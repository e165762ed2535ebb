//! profile-cold: one closed-loop stream where every invocation is for a
//! kernel the table has not learned, so each runs the Fig 7 profiling
//! rounds, classify, the 11-point argmin, `accumulate` and a journal
//! write. Passes replay the same generated kernels against a fresh
//! scheduler (built outside the timed window), which keeps the table,
//! the journal and the decision log bounded.

use crate::backend::{Captured, ReplayBackend};
use crate::inputs::Inputs;
use crate::measure::{
    self, deadline, fold, Measured, NoSyncFs, Samples, Scratch, Stop, FNV_OFFSET,
};
use crate::stats::{self, Histogram};
use crate::trace::Spans;
use easched_core::{Classifier, PowerModel, RingSink, SharedEas, TelemetrySink};
use easched_runtime::{Backend, ConcurrentScheduler};
use easched_sim::Machine;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Share of calls that may reuse a learned α: every call must profile.
pub const MAX_HIT_RATE: f64 = 0.01;

pub struct ColdState {
    pub ids: Vec<u64>,
    pub caps: Vec<Captured>,
    /// Classes the captured first profiling steps fall in.
    pub classes_seen: [u64; 8],
    /// The platform's characterized power model, fitted once in set-up
    /// and shared by every pass's scheduler.
    model: PowerModel,
    scratch: Scratch,
    passes: u64,
}

/// A fresh, empty scheduler for one pass.
pub struct Pass {
    pub eas: Arc<SharedEas>,
    pub ring: Arc<RingSink>,
    _dir: Scratch,
}

pub fn setup(inputs: &Inputs, scratch_root: &Path, tag: &str) -> ColdState {
    let mut machine = Machine::with_seed(measure::platform(), inputs.seed);
    let caps: Vec<Captured> = inputs
        .cold_pass
        .iter()
        .map(|k| Captured::capture(&mut machine, k))
        .collect();
    let classifier = Classifier::default();
    let mut classes_seen = [0u64; 8];
    for cap in &caps {
        let remaining = cap.items - cap.profile.cpu_items - cap.profile.gpu_items;
        classes_seen[classifier.classify(&cap.profile, remaining).index()] += 1;
    }
    ColdState {
        ids: inputs.cold_pass.iter().map(|k| k.id).collect(),
        caps,
        classes_seen,
        model: measure::model(),
        scratch: Scratch::new(scratch_root, &format!("cold-{tag}")),
        passes: 0,
    }
}

impl ColdState {
    pub fn fresh_pass(&mut self) -> Pass {
        self.passes += 1;
        let dir = Scratch::new(self.scratch.path(), &format!("pass-{}", self.passes));
        let ring = Arc::new(RingSink::with_capacity(1 << 12));
        let eas = SharedEas::with_telemetry_persistence_vfs(
            self.model.clone(),
            measure::pure_reuse_config(),
            dir.path(),
            Arc::clone(&ring) as Arc<dyn TelemetrySink>,
            Arc::new(NoSyncFs),
        )
        .expect("journal opens in a fresh scratch directory");
        Pass {
            eas,
            ring,
            _dir: dir,
        }
    }
}

/// Digest of the (kernel, learned α) sequence a pass produced.
fn pass_digest(state: &ColdState, pass: &Pass) -> u64 {
    state.ids.iter().fold(FNV_OFFSET, |h, &id| {
        let alpha = pass.eas.learned_alpha(id).map_or(u64::MAX, f64::to_bits);
        fold(fold(h, id), alpha)
    })
}

/// What a stretch of passes produced.
pub struct ColdRun {
    pub m: Measured,
    /// Digest of each complete pass.
    pub digests: Vec<u64>,
    /// Ring hit rate of each complete pass.
    pub hit_rates: Vec<f64>,
    /// Simulated seconds of each invocation of the first pass.
    pub sim: Vec<f64>,
    /// The last pass's scheduler, for its decision log and journal.
    pub last: Pass,
    pub spans: Option<Spans>,
}

/// Runs passes until `stop`, one span per invocation when traced.
pub fn replay(state: &mut ColdState, stop: Stop, traced: bool) -> ColdRun {
    let mut hist = Histogram::default();
    let mut sim = Vec::with_capacity(state.caps.len());
    let (mut ops, mut busy, mut unconsumed) = (0u64, 0.0f64, 0u64);
    let (mut digests, mut hit_rates, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut spans = traced.then(Spans::new);
    let last = 'run: loop {
        let pass = state.fresh_pass();
        let began = Instant::now();
        for (i, (&id, cap)) in state.ids.iter().zip(&state.caps).enumerate() {
            let mut backend = ReplayBackend::new(cap);
            let t0 = Instant::now();
            pass.eas.schedule_shared(black_box(id), &mut backend);
            let t1 = Instant::now();
            if let Some(spans) = &mut spans {
                spans.push("core::shared::schedule_shared", t0, t1, None, ops);
            }
            hist.record((t1 - t0).as_nanos() as u64);
            ops += 1;
            unconsumed += u64::from(backend.remaining() != 0);
            if digests.is_empty() {
                sim.push(backend.sim_seconds);
            }
            if stop.reached(t1, ops) {
                busy += (t1 - began).as_secs_f64();
                if i + 1 == state.ids.len() {
                    digests.push(pass_digest(state, &pass));
                    hit_rates.push(pass.ring.metrics().hit_rate());
                }
                break 'run pass;
            }
        }
        let pass_s = began.elapsed().as_secs_f64();
        busy += pass_s;
        rates.push(state.ids.len() as f64 / pass_s);
        digests.push(pass_digest(state, &pass));
        hit_rates.push(pass.ring.metrics().hit_rate());
    };
    let mut m = Measured::new(ops, busy, Samples::Hist(hist));
    m.window_rates = rates;
    m.tally(ops, unconsumed, || {
        format!("{unconsumed} invocations left items unconsumed")
    });
    ColdRun {
        m,
        digests,
        hit_rates,
        sim,
        last,
        spans,
    }
}

impl ColdRun {
    /// Median scheduler ns per first-seen invocation ÷ median simulated
    /// time of the same invocations, in percent.
    pub fn sched_overhead_pct(&self) -> f64 {
        self.m.op_ns.p50() / (stats::median(&self.sim) * 1e9) * 100.0
    }
}

pub fn run(state: &mut ColdState, seconds: f64) -> Measured {
    let run = replay(state, Stop::At(deadline(seconds)), false);
    let overhead = run.sched_overhead_pct();
    let ColdRun {
        mut m,
        digests,
        hit_rates,
        ..
    } = run;
    let first = digests.first().copied();
    let differing = digests.iter().filter(|&&d| Some(d) != first).count() as u64;
    m.tally(digests.len() as u64, differing, || {
        format!("{differing} passes produced a different (kernel, alpha) digest")
    });
    m.check(!digests.is_empty(), || {
        "no pass completed; extend --seconds".into()
    });
    let every_class = state.classes_seen.iter().all(|&n| n > 0);
    m.check(every_class, || {
        format!("observations miss a class: {:?}", state.classes_seen)
    });
    if let Some(d) = first {
        m.note("alpha_digest", format!("{d:016x}"));
    }
    m.note("passes", digests.len());
    let hit_rate = hit_rates.iter().copied().fold(0.0, f64::max);
    m.check(hit_rate <= MAX_HIT_RATE, || {
        format!("ring hit rate {hit_rate} > {MAX_HIT_RATE}")
    });
    m.note("hit_rate", hit_rate);
    m.note("sched_overhead_pct", overhead);
    m
}
