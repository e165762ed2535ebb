//! The benchmark's own execution backend. During set-up each synthetic
//! kernel runs once on the simulated machine ([`SimBackend`]) and its
//! observations are captured; the timed loops then serve those captured
//! observations back, so an invocation's backend cost is a few ns and
//! fixed, and what is measured is the scheduler.

use crate::inputs::KernelSpec;
use easched_runtime::{Backend, Observation, SimBackend};
use easched_sim::{AccessPattern, KernelTraits, Machine};

/// Grid points of the captured split observations (α = i / 10).
const SPLIT_POINTS: usize = 11;

/// Observations one kernel produced on the simulated machine.
#[derive(Debug, Clone)]
pub struct Captured {
    pub items: u64,
    pub profile_size: u64,
    /// The first profiling step of a fresh invocation.
    pub profile: Observation,
    /// A whole-invocation split at each α grid point.
    pub splits: [Observation; SPLIT_POINTS],
}

/// Builds the simulator's traits for a generated kernel.
pub fn traits_of(spec: &KernelSpec) -> KernelTraits {
    let b = KernelTraits::builder(format!("k{:x}", spec.id))
        .cpu_rate(spec.cpu_rate)
        .gpu_rate(spec.gpu_rate);
    if spec.memory_bound() {
        b.memory_intensity(0.6)
            .access(AccessPattern::Random)
            .working_set_bytes(256 << 20)
            .build()
    } else {
        b.build()
    }
}

impl Captured {
    /// Runs `spec` on `machine` and keeps what the black-box interface
    /// observed.
    pub fn capture(machine: &mut Machine, spec: &KernelSpec) -> Captured {
        let traits = traits_of(spec);
        let profile_size = machine.platform().gpu_profile_size();
        let profile =
            SimBackend::new(machine, &traits, spec.items, None, 1).profile_step(profile_size);
        let splits = std::array::from_fn(|i| {
            SimBackend::new(machine, &traits, spec.items, None, 2 + i as u64)
                .run_split(i as f64 / (SPLIT_POINTS - 1) as f64)
        });
        Captured {
            items: spec.items,
            profile_size,
            profile,
            splits,
        }
    }
}

/// Serves one invocation from captured observations.
#[derive(Debug)]
pub struct ReplayBackend<'a> {
    cap: &'a Captured,
    remaining: u64,
    /// Simulated seconds the served observations add up to.
    pub sim_seconds: f64,
}

impl<'a> ReplayBackend<'a> {
    pub fn new(cap: &'a Captured) -> ReplayBackend<'a> {
        ReplayBackend {
            cap,
            remaining: cap.items,
            sim_seconds: 0.0,
        }
    }
}

fn scaled(obs: &Observation, k: f64) -> Observation {
    let mut counters = obs.counters;
    counters.instructions *= k;
    counters.loads *= k;
    counters.l3_misses *= k;
    Observation {
        elapsed: obs.elapsed * k,
        cpu_time: obs.cpu_time * k,
        gpu_time: obs.gpu_time * k,
        energy_joules: obs.energy_joules * k,
        counters,
        ..*obs
    }
}

impl Backend for ReplayBackend<'_> {
    fn remaining(&self) -> u64 {
        self.remaining
    }

    fn gpu_profile_size(&self) -> u64 {
        self.cap.profile_size
    }

    fn profile_step(&mut self, gpu_chunk: u64) -> Observation {
        let gpu = gpu_chunk.min(self.remaining);
        let cpu = self.cap.profile.cpu_items.min(self.remaining - gpu);
        self.remaining -= gpu + cpu;
        self.sim_seconds += self.cap.profile.elapsed;
        Observation {
            cpu_items: cpu,
            gpu_items: gpu,
            ..self.cap.profile
        }
    }

    fn run_split(&mut self, alpha: f64) -> Observation {
        let rem = self.remaining;
        if rem == 0 {
            return Observation::default();
        }
        let point = (alpha * (SPLIT_POINTS - 1) as f64).round() as usize;
        let full = &self.cap.splits[point.min(SPLIT_POINTS - 1)];
        let obs = if rem == self.cap.items {
            *full
        } else {
            scaled(full, rem as f64 / self.cap.items as f64)
        };
        let gpu = (rem as f64 * alpha).round() as u64;
        self.remaining = 0;
        self.sim_seconds += obs.elapsed;
        Observation {
            cpu_items: rem - gpu,
            gpu_items: gpu,
            ..obs
        }
    }
}
