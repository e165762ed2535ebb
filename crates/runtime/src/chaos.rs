//! Deterministic fault injection for the observation pipeline.
//!
//! Real integrated CPU-GPU systems misbehave in ways the simulator's happy
//! path never shows: `MSR_PKG_ENERGY_STATUS` drops samples or wraps
//! mid-read, PCM counters glitch, and iGPU drivers hang and time out
//! mid-offload. [`ChaosBackend`] wraps any [`Backend`] and injects those
//! faults *into the returned observations only* — execution itself (item
//! bookkeeping, functional output, virtual time) passes through untouched,
//! so a workload under chaos still completes and verifies. That mirrors the
//! real failure mode this PR hardens against: the work happens, but what
//! the scheduler *sees* is garbage.
//!
//! Faults are scripted by a [`FaultPlan`] and sequenced by a
//! [`ChaosInjector`], whose step counter persists across invocations so a
//! plan can target e.g. "steps 40..60 of the whole run". Randomized plans
//! are seeded and use a pure counter-based hash: the same seed always
//! yields the same fault sequence, independent of global RNG state.
//!
//! With [`FaultPlan::None`] the wrapper is a pure pass-through; the clean
//! path is bit-for-bit identical to running the inner backend directly.

use crate::backend::Backend;
use crate::observation::{Observation, RunMetrics};
use crate::scheduler::{KernelId, Scheduler};
use crate::sim_backend::run_workload;
use easched_sim::Machine;

/// How long a hung GPU offload "takes" before the driver times out,
/// seconds of virtual time attributed to the observation.
pub const GPU_HANG_TIMEOUT: f64 = 10.0;

/// How long a wedged round stalls before a watchdog-scale cancel,
/// seconds of virtual time attributed to the observation. Unlike
/// [`GPU_HANG_TIMEOUT`], the driver *does* eventually return here — with
/// internally plausible data — so only a scheduler-side deadline, not
/// observation vetting, can catch it.
pub const HANG_STALL: f64 = 3600.0;

/// Energy multiplier of a [`Fault::PowerSurge`]: large enough to drag a
/// kernel's realized EDP far off its prediction, small enough to stay
/// under the observation guard's power ceiling (model max × 20).
pub const POWER_SURGE_FACTOR: f64 = 2.5;

/// One injected fault, applied to a single observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The GPU driver hangs and the offload times out: the chunk reports
    /// zero completed GPU items after [`GPU_HANG_TIMEOUT`] seconds busy.
    GpuHang,
    /// The energy register drops the sample (or reads stuck): the
    /// observation window sees zero joules.
    EnergyDropout,
    /// A spurious 32-bit register wrap: the window's energy delta is off
    /// by the full register range (2³² × 2⁻¹⁶ J ≈ 65.5 kJ).
    EnergyWrap,
    /// Performance-counter corruption: L3 misses vastly exceed retired
    /// loads, which is physically impossible (every miss is a load).
    CounterCorrupt,
    /// Timing fields come back NaN (a torn or failed read).
    NanObservation,
    /// The GPU "completes" an absurd number of items in nanoseconds — a
    /// wildly implausible throughput reading.
    ImplausibleThroughput,
    /// The round wedges: it eventually returns with internally consistent
    /// timings and counters — every rate plausible, energy proportional —
    /// but only after [`HANG_STALL`] seconds. Vetting cannot reject it;
    /// catching it is the watchdog's job (DESIGN.md §11).
    Hang,
    /// Sustained power surge (thermal or firmware misbehavior): the window
    /// burns [`POWER_SURGE_FACTOR`]× the expected energy while timings
    /// stay truthful. Each observation passes vetting, so the learned
    /// ratio's realized EDP drifts off its prediction — the drift
    /// monitor's territory, not the fault guard's.
    PowerSurge,
}

impl Fault {
    /// The six *observation-corrupting* faults in a stable order (used by
    /// randomized plans). Frozen at six deliberately: seeded
    /// [`FaultPlan::Random`] sequences index into their `kinds` list, so
    /// growing this array would silently reshuffle every existing seeded
    /// chaos scenario. The §11 faults ([`Fault::Hang`],
    /// [`Fault::PowerSurge`]) are vetting-proof by design and are scripted
    /// explicitly where a scenario wants them.
    pub const ALL: [Fault; 6] = [
        Fault::GpuHang,
        Fault::EnergyDropout,
        Fault::EnergyWrap,
        Fault::CounterCorrupt,
        Fault::NanObservation,
        Fault::ImplausibleThroughput,
    ];

    /// Corrupts `obs` the way this fault manifests on real hardware.
    fn corrupt(self, mut obs: Observation) -> Observation {
        match self {
            Fault::GpuHang => {
                obs.gpu_items = 0;
                obs.gpu_time = GPU_HANG_TIMEOUT;
                obs.elapsed = obs.elapsed.max(GPU_HANG_TIMEOUT);
            }
            Fault::EnergyDropout => {
                obs.energy_joules = 0.0;
            }
            Fault::EnergyWrap => {
                obs.energy_joules += 4_294_967_296.0 * easched_sim::energy::ENERGY_UNIT_JOULES;
            }
            Fault::CounterCorrupt => {
                obs.counters.l3_misses = obs.counters.loads.max(1.0) * 1.0e6;
            }
            Fault::NanObservation => {
                obs.elapsed = f64::NAN;
                obs.cpu_time = f64::NAN;
            }
            Fault::ImplausibleThroughput => {
                obs.gpu_items = 1 << 50;
                obs.gpu_time = 1.0e-12;
            }
            Fault::Hang => {
                // Everything stays internally consistent — the items were
                // all "completed", rates are minuscule but legal, energy
                // over the stall reads as a near-idle package — except the
                // wall clock, which busts any sane deadline.
                obs.elapsed = HANG_STALL;
                obs.cpu_time = HANG_STALL;
                if obs.gpu_items > 0 {
                    obs.gpu_time = HANG_STALL;
                }
            }
            Fault::PowerSurge => {
                obs.energy_joules *= POWER_SURGE_FACTOR;
            }
        }
        obs
    }
}

/// A script of faults over the run's observation steps.
///
/// Steps number every `profile_step`/`run_split` call made through one
/// [`ChaosInjector`], across invocations, starting at 0.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlan {
    /// No faults: the wrapper is a pure pass-through.
    None,
    /// Inject the given fault at each listed step (steps need not be
    /// sorted; duplicate steps apply the first matching entry).
    Scripted(Vec<(u64, Fault)>),
    /// Inject a fault on each step independently with probability `rate`,
    /// choosing uniformly among `kinds`. Deterministic in `seed`.
    Random {
        /// Seed for the counter-based hash; same seed, same sequence.
        seed: u64,
        /// Per-step fault probability in `[0, 1]`.
        rate: f64,
        /// Fault kinds to draw from (empty means no faults).
        kinds: Vec<Fault>,
    },
    /// A sustained GPU outage: every step in `from..until` hangs
    /// ([`Fault::GpuHang`]), modeling a crashed driver that later resets.
    GpuOutage {
        /// First faulty step.
        from: u64,
        /// One past the last faulty step.
        until: u64,
    },
    /// A sustained platform shift: every step in `from..until` burns
    /// surge power ([`Fault::PowerSurge`]), modeling a thermal event or
    /// firmware regression that invalidates learned ratios without ever
    /// producing a vettable fault — the drift monitor's target scenario.
    Drift {
        /// First surging step.
        from: u64,
        /// One past the last surging step.
        until: u64,
    },
    /// A bursty co-tenant: periodic burst windows during which steps
    /// burn surge power ([`Fault::PowerSurge`]) with high probability
    /// and occasionally hang the GPU ([`Fault::GpuHang`]), modeling a
    /// noisy neighbor hammering the shared package. This is the plan the
    /// overload-storm harness drives the brownout ladder with:
    /// PowerSurge is vetting-proof, so only the admission layer's power
    /// hysteresis (not the fault pipeline) can respond.
    BurstyTenant {
        /// Seed for the counter-based hash; same seed, same bursts.
        seed: u64,
        /// Burst window period, steps.
        period: u64,
        /// Burst window length, steps (clamped to `period`).
        burst_len: u64,
        /// Per-step fault probability inside a burst window.
        rate: f64,
    },
}

impl FaultPlan {
    fn fault_at(&self, step: u64) -> Option<Fault> {
        match self {
            FaultPlan::None => None,
            FaultPlan::Scripted(script) => script
                .iter()
                .find(|(at, _)| *at == step)
                .map(|(_, fault)| *fault),
            FaultPlan::Random { seed, rate, kinds } => {
                if kinds.is_empty() {
                    return None;
                }
                let h = mix(*seed, step);
                // Top 53 bits → uniform in [0, 1).
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                if u < *rate {
                    let pick = mix(h, 0x9e37_79b9) as usize % kinds.len();
                    Some(kinds[pick])
                } else {
                    None
                }
            }
            FaultPlan::GpuOutage { from, until } => {
                (*from..*until).contains(&step).then_some(Fault::GpuHang)
            }
            FaultPlan::Drift { from, until } => {
                (*from..*until).contains(&step).then_some(Fault::PowerSurge)
            }
            FaultPlan::BurstyTenant {
                seed,
                period,
                burst_len,
                rate,
            } => {
                if *period == 0 || step % *period >= (*burst_len).min(*period) {
                    return None;
                }
                let h = mix(*seed, step);
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                if u < *rate {
                    // Mostly power (the contended resource), occasionally
                    // a hang so the fault pipeline stays exercised too.
                    if mix(h, 0x5bd1_e995).is_multiple_of(8) {
                        Some(Fault::GpuHang)
                    } else {
                        Some(Fault::PowerSurge)
                    }
                } else {
                    None
                }
            }
        }
    }
}

/// splitmix64-style avalanche of `(seed, step)` — a pure counter-based
/// stream so fault schedules are reproducible and order-independent.
fn mix(seed: u64, step: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(step)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Sequences a [`FaultPlan`] over a run: owns the step counter that
/// persists across invocations and counts how many faults actually fired.
#[derive(Debug, Clone)]
pub struct ChaosInjector {
    plan: FaultPlan,
    step: u64,
    injected: u64,
}

impl ChaosInjector {
    /// Creates an injector at step 0.
    pub fn new(plan: FaultPlan) -> ChaosInjector {
        ChaosInjector {
            plan,
            step: 0,
            injected: 0,
        }
    }

    /// Wraps `inner` for one invocation; the injector's counters carry
    /// over to the next wrap.
    pub fn wrap<'a>(&'a mut self, inner: &'a mut dyn Backend) -> ChaosBackend<'a> {
        ChaosBackend {
            injector: self,
            inner,
        }
    }

    /// Observation steps sequenced so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Faults actually injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Advances the step counter and corrupts `obs` if the plan says so.
    fn apply(&mut self, obs: Observation) -> Observation {
        let fault = self.plan.fault_at(self.step);
        self.step += 1;
        match fault {
            Some(fault) => {
                self.injected += 1;
                fault.corrupt(obs)
            }
            None => obs,
        }
    }
}

/// A [`Backend`] decorator that corrupts observations per a fault plan.
///
/// Execution is delegated unchanged — items are really consumed and
/// functional output is really produced — only the *measurements* the
/// scheduler sees are tampered with.
///
/// # Examples
///
/// ```
/// use easched_runtime::backend::test_support::FakeBackend;
/// use easched_runtime::chaos::{ChaosInjector, Fault, FaultPlan};
/// use easched_runtime::Backend;
///
/// let mut injector = ChaosInjector::new(FaultPlan::Scripted(vec![(0, Fault::EnergyDropout)]));
/// let mut inner = FakeBackend::new(100_000, 1.0e6, 2.0e6);
/// let mut chaos = injector.wrap(&mut inner);
/// let bad = chaos.profile_step(2240); // step 0: faulted
/// let good = chaos.profile_step(2240); // step 1: clean
/// assert_eq!(bad.energy_joules, 0.0);
/// assert!(good.energy_joules > 0.0);
/// ```
pub struct ChaosBackend<'a> {
    injector: &'a mut ChaosInjector,
    inner: &'a mut dyn Backend,
}

impl std::fmt::Debug for ChaosBackend<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosBackend")
            .field("injector", &self.injector)
            .finish_non_exhaustive()
    }
}

impl Backend for ChaosBackend<'_> {
    fn remaining(&self) -> u64 {
        self.inner.remaining()
    }

    fn gpu_profile_size(&self) -> u64 {
        self.inner.gpu_profile_size()
    }

    fn profile_step(&mut self, gpu_chunk: u64) -> Observation {
        let obs = self.inner.profile_step(gpu_chunk);
        self.injector.apply(obs)
    }

    fn run_split(&mut self, alpha: f64) -> Observation {
        let obs = self.inner.run_split(alpha);
        self.injector.apply(obs)
    }
}

/// Runs a full workload under `scheduler` with observations filtered
/// through `injector` — the chaos-testing analogue of
/// [`run_workload`]. Functional execution and
/// verification are unaffected by the injected faults.
pub fn run_workload_chaos<S: Scheduler>(
    machine: &mut Machine,
    workload: &dyn easched_kernels::Workload,
    scheduler: &mut S,
    injector: &mut ChaosInjector,
) -> (RunMetrics, easched_kernels::Verification) {
    let mut chaos = ChaosScheduler {
        inner: scheduler,
        injector,
    };
    run_workload(machine, workload, &mut chaos)
}

/// A [`Scheduler`] that hands every invocation's backend to its inner
/// scheduler through [`ChaosInjector::wrap`].
struct ChaosScheduler<'a, S: Scheduler> {
    inner: &'a mut S,
    injector: &'a mut ChaosInjector,
}

impl<S: Scheduler> Scheduler for ChaosScheduler<'_, S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, kernel: KernelId, backend: &mut dyn Backend) {
        let mut chaos = self.injector.wrap(backend);
        self.inner.schedule(kernel, &mut chaos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::test_support::FakeBackend;
    use crate::scheduler::FixedAlpha;
    use crate::sim_backend::run_workload;
    use easched_kernels::suite;
    use easched_sim::Platform;

    fn fake() -> FakeBackend {
        FakeBackend::new(100_000, 1.0e6, 2.0e6)
    }

    #[test]
    fn no_plan_is_a_pure_pass_through() {
        let mut plain = fake();
        let clean = plain.profile_step(2240);

        let mut injector = ChaosInjector::new(FaultPlan::None);
        let mut inner = fake();
        let mut chaos = injector.wrap(&mut inner);
        let wrapped = chaos.profile_step(2240);

        assert_eq!(clean, wrapped);
        assert_eq!(injector.injected(), 0);
        assert_eq!(injector.steps(), 1);
    }

    #[test]
    fn execution_is_never_corrupted_only_observations() {
        let mut injector = ChaosInjector::new(FaultPlan::Scripted(vec![(0, Fault::GpuHang)]));
        let mut inner = fake();
        {
            let mut chaos = injector.wrap(&mut inner);
            let obs = chaos.profile_step(2240);
            // The observation lies about the GPU...
            assert_eq!(obs.gpu_items, 0);
            assert_eq!(obs.gpu_time, GPU_HANG_TIMEOUT);
        }
        // ...but the items were really consumed by the inner backend.
        assert!(inner.remaining() < 100_000);
        assert_eq!(inner.log, vec!["profile(2240)"]);
    }

    #[test]
    fn every_fault_kind_produces_its_signature() {
        for fault in Fault::ALL {
            let mut injector = ChaosInjector::new(FaultPlan::Scripted(vec![(0, fault)]));
            let mut inner = fake();
            let mut chaos = injector.wrap(&mut inner);
            let obs = chaos.profile_step(2240);
            match fault {
                Fault::GpuHang => assert!(obs.gpu_items == 0 && obs.gpu_time > 0.0),
                Fault::EnergyDropout => assert_eq!(obs.energy_joules, 0.0),
                Fault::EnergyWrap => assert!(obs.energy_joules > 60_000.0),
                Fault::CounterCorrupt => assert!(obs.counters.l3_misses > obs.counters.loads),
                Fault::NanObservation => assert!(obs.elapsed.is_nan()),
                Fault::ImplausibleThroughput => assert!(obs.gpu_rate() > 1.0e20),
                Fault::Hang | Fault::PowerSurge => {
                    unreachable!("§11 faults are not in Fault::ALL")
                }
            }
            assert_eq!(injector.injected(), 1);
        }
    }

    #[test]
    fn all_stays_frozen_at_the_six_vettable_faults() {
        // Seeded Random plans index into ALL; growing it would reshuffle
        // every existing seeded scenario (see the doc on Fault::ALL).
        assert_eq!(Fault::ALL.len(), 6);
        assert!(!Fault::ALL.contains(&Fault::Hang));
        assert!(!Fault::ALL.contains(&Fault::PowerSurge));
    }

    #[test]
    fn hang_is_internally_plausible_but_stalls() {
        let mut injector = ChaosInjector::new(FaultPlan::Scripted(vec![(0, Fault::Hang)]));
        let mut inner = fake();
        let mut chaos = injector.wrap(&mut inner);
        let obs = chaos.profile_step(2240);
        assert_eq!(obs.elapsed, HANG_STALL);
        // Unlike GpuHang, the chunk "completed" — rates are tiny but legal
        // and the GPU is not silent, so observation vetting passes it.
        assert!(obs.gpu_items > 0);
        assert!(obs.gpu_rate() > 0.0 && obs.gpu_rate() < 10.0);
        assert!(obs.cpu_rate() < 10.0);
        assert!(obs.energy_joules > 0.0);
    }

    #[test]
    fn power_surge_scales_energy_only() {
        let clean = fake().profile_step(2240);
        let mut injector = ChaosInjector::new(FaultPlan::Scripted(vec![(0, Fault::PowerSurge)]));
        let mut inner = fake();
        let mut chaos = injector.wrap(&mut inner);
        let obs = chaos.profile_step(2240);
        assert!((obs.energy_joules - clean.energy_joules * POWER_SURGE_FACTOR).abs() < 1e-12);
        assert_eq!(obs.elapsed, clean.elapsed);
        assert_eq!(obs.gpu_items, clean.gpu_items);
    }

    #[test]
    fn drift_window_surges_exactly_its_steps() {
        let plan = FaultPlan::Drift { from: 1, until: 3 };
        let faults: Vec<_> = (0..4).map(|s| plan.fault_at(s)).collect();
        assert_eq!(
            faults,
            vec![None, Some(Fault::PowerSurge), Some(Fault::PowerSurge), None]
        );
    }

    #[test]
    fn bursty_tenant_faults_only_inside_burst_windows() {
        let plan = FaultPlan::BurstyTenant {
            seed: 7,
            period: 10,
            burst_len: 3,
            rate: 1.0,
        };
        for step in 0..100u64 {
            let fault = plan.fault_at(step);
            if step % 10 < 3 {
                assert!(
                    matches!(fault, Some(Fault::PowerSurge) | Some(Fault::GpuHang)),
                    "step {step} inside a burst must fault"
                );
            } else {
                assert_eq!(fault, None, "step {step} outside a burst is clean");
            }
        }
        // Mostly power surges: the plan exists to stress the power budget.
        let surges = (0..1000)
            .filter(|&s| plan.fault_at(s) == Some(Fault::PowerSurge))
            .count();
        let hangs = (0..1000)
            .filter(|&s| plan.fault_at(s) == Some(Fault::GpuHang))
            .count();
        assert!(surges > hangs * 3, "surges {surges} vs hangs {hangs}");
        // Deterministic in the seed.
        let seq: Vec<_> = (0..50).map(|s| plan.fault_at(s)).collect();
        assert_eq!(seq, (0..50).map(|s| plan.fault_at(s)).collect::<Vec<_>>());
    }

    #[test]
    fn random_plans_are_deterministic_in_the_seed() {
        let plan = |seed| FaultPlan::Random {
            seed,
            rate: 0.5,
            kinds: Fault::ALL.to_vec(),
        };
        let sequence = |seed| (0..64).map(|s| plan(seed).fault_at(s)).collect::<Vec<_>>();
        assert_eq!(sequence(7), sequence(7));
        assert_ne!(sequence(7), sequence(8));
        let fired = sequence(7).iter().filter(|f| f.is_some()).count();
        assert!(fired > 8 && fired < 56, "rate wildly off: {fired}/64");
    }

    #[test]
    fn step_counter_persists_across_invocations() {
        let mut injector = ChaosInjector::new(FaultPlan::Scripted(vec![(1, Fault::EnergyDropout)]));
        let obs0 = {
            let mut inner = fake();
            let mut chaos = injector.wrap(&mut inner);
            chaos.run_split(0.5)
        };
        let obs1 = {
            let mut inner = fake();
            let mut chaos = injector.wrap(&mut inner);
            chaos.run_split(0.5)
        };
        assert!(obs0.energy_joules > 0.0, "step 0 is clean");
        assert_eq!(obs1.energy_joules, 0.0, "step 1 (second invocation) faults");
        assert_eq!(injector.steps(), 2);
    }

    #[test]
    fn gpu_outage_covers_exactly_its_window() {
        let plan = FaultPlan::GpuOutage { from: 2, until: 4 };
        let faults: Vec<_> = (0..6).map(|s| plan.fault_at(s)).collect();
        assert_eq!(
            faults,
            vec![
                None,
                None,
                Some(Fault::GpuHang),
                Some(Fault::GpuHang),
                None,
                None
            ]
        );
    }

    #[test]
    fn chaos_run_still_verifies_functionally() {
        let mut p = Platform::haswell_desktop();
        p.pcu.measurement_noise = 0.0;
        let mut machine = Machine::new(p.clone());
        let w = suite::blackscholes_small();
        let mut injector = ChaosInjector::new(FaultPlan::Random {
            seed: 42,
            rate: 0.5,
            kinds: Fault::ALL.to_vec(),
        });
        let (metrics, v) = run_workload_chaos(
            &mut machine,
            w.as_ref(),
            &mut FixedAlpha::new(0.5),
            &mut injector,
        );
        assert!(v.is_passed(), "faults must never corrupt outputs: {v:?}");
        assert!(metrics.items > 0 && metrics.time > 0.0);
        assert!(
            injector.injected() > 0,
            "plan at rate 0.5 should have fired"
        );
    }

    #[test]
    fn chaos_with_no_plan_matches_plain_run_exactly() {
        let quiet = || {
            let mut p = Platform::haswell_desktop();
            p.pcu.measurement_noise = 0.0;
            Machine::new(p)
        };
        let w = suite::blackscholes_small();

        let mut m1 = quiet();
        let (plain, v1) = run_workload(&mut m1, w.as_ref(), &mut FixedAlpha::new(0.4));

        let mut m2 = quiet();
        let mut injector = ChaosInjector::new(FaultPlan::None);
        let (chaos, v2) = run_workload_chaos(
            &mut m2,
            w.as_ref(),
            &mut FixedAlpha::new(0.4),
            &mut injector,
        );

        assert_eq!(plain, chaos);
        assert_eq!(v1, v2);
    }
}
