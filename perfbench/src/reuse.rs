//! reuse-hot: two closed-loop client threads share one `Arc<SharedEas>`
//! (ring telemetry, journaled table) whose table is already warm for a
//! pool of kernels; every call is a learned-kernel reuse.

use crate::backend::{Captured, ReplayBackend};
use crate::inputs::Inputs;
use crate::measure::{self, deadline, Measured, NoSyncFs, Samples, Scratch, Stop};
use crate::stats::{self, Histogram};
use crate::trace::Spans;
use easched_core::{RingSink, SharedEas, TelemetrySink};
use easched_runtime::{Backend, ConcurrentScheduler};
use easched_sim::Machine;
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Client threads (the host has two logical CPUs).
pub const STREAMS: usize = 2;
/// Share of calls that must reuse a learned α: the loop takes the
/// reuse path it claims.
pub const MIN_HIT_RATE: f64 = 0.99;
/// Warm-up invocations per pool kernel before timing.
const WARM_ROUNDS: usize = 4;

/// A warm scheduler and the observations it will be served.
pub struct ReuseState {
    pub eas: Arc<SharedEas>,
    pub ring: Arc<RingSink>,
    pub ids: Vec<u64>,
    pub caps: Vec<Captured>,
    pub draws: [Vec<u32>; 2],
    /// Learned α of each pool kernel after warm-up.
    pub learned: Vec<u64>,
    _dir: Scratch,
}

pub fn setup(inputs: &Inputs, scratch_root: &Path, tag: &str) -> ReuseState {
    let mut machine = Machine::with_seed(measure::platform(), inputs.seed);
    let caps: Vec<Captured> = inputs
        .reuse_pool
        .iter()
        .map(|k| Captured::capture(&mut machine, k))
        .collect();
    let ids: Vec<u64> = inputs.reuse_pool.iter().map(|k| k.id).collect();
    let dir = Scratch::new(scratch_root, &format!("reuse-{tag}"));
    let ring = Arc::new(RingSink::with_capacity(1 << 14));
    // The journal skips `fsync`, as profile-cold's does: opening it
    // syncs the file and its directory, and on a shared disk that swing
    // would swamp a set-up of a few ms. The reuse path appends nothing.
    let eas = SharedEas::with_telemetry_persistence_vfs(
        measure::model(),
        measure::pure_reuse_config(),
        dir.path(),
        Arc::clone(&ring) as Arc<dyn TelemetrySink>,
        Arc::new(NoSyncFs),
    )
    .expect("journal opens in a fresh scratch directory");
    for _ in 0..WARM_ROUNDS {
        for (id, cap) in ids.iter().zip(&caps) {
            eas.schedule_shared(*id, &mut ReplayBackend::new(cap));
        }
    }
    let learned = ids
        .iter()
        .map(|&id| eas.learned_alpha(id).map_or(u64::MAX, f64::to_bits))
        .collect();
    ReuseState {
        eas,
        ring,
        ids,
        caps,
        draws: inputs.reuse_draws.clone(),
        learned,
        _dir: dir,
    }
}

/// Length of one throughput sub-window.
const WINDOW_S: f64 = 0.25;

/// One client's share of a timed loop.
pub struct Stream {
    pub calls: u64,
    /// Calls completed in each [`WINDOW_S`] window since the shared epoch.
    pub windows: Vec<u64>,
    pub unconsumed: u64,
    pub hist: Histogram,
    pub seconds: f64,
    /// One span per call, when traced.
    pub spans: Option<Spans>,
}

/// One client: schedules its draw sequence until `stop`.
fn stream(
    state: &ReuseState,
    draws: &[u32],
    stop: Stop,
    start: &Barrier,
    epoch: Instant,
    traced: bool,
) -> Stream {
    let mut s = Stream {
        calls: 0,
        windows: Vec::new(),
        unconsumed: 0,
        hist: Histogram::default(),
        seconds: 0.0,
        spans: traced.then(Spans::new),
    };
    start.wait();
    let began = Instant::now();
    'run: loop {
        for &d in draws {
            let d = d as usize;
            let mut backend = ReplayBackend::new(&state.caps[d]);
            let t0 = Instant::now();
            state
                .eas
                .schedule_shared(black_box(state.ids[d]), &mut backend);
            let t1 = Instant::now();
            if let Some(spans) = &mut s.spans {
                spans.push("core::shared::schedule_shared", t0, t1, None, s.calls);
            }
            s.hist.record((t1 - t0).as_nanos() as u64);
            s.calls += 1;
            let w = ((t1 - epoch).as_secs_f64() / WINDOW_S) as usize;
            if s.windows.len() <= w {
                s.windows.resize(w + 1, 0);
            }
            s.windows[w] += 1;
            s.unconsumed += u64::from(backend.remaining() != 0);
            if stop.reached(t1, s.calls) {
                s.seconds = (t1 - began).as_secs_f64();
                break 'run;
            }
        }
    }
    s
}

/// Runs `clients` concurrent client threads (stream `i` uses draw
/// sequence `i % 2`) until `stop`.
pub fn streams(state: &ReuseState, clients: usize, stop: Stop, traced: bool) -> Vec<Stream> {
    let start = Barrier::new(clients);
    let epoch = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                let (draws, start) = (&state.draws[i % 2], &start);
                scope.spawn(move || stream(state, draws, stop, start, epoch, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reuse client thread panicked"))
            .collect()
    })
}

/// Merges the clients' samples; `ops_per_s` counts calls of all clients
/// over the longest client's window.
pub fn merge(streams: &[Stream]) -> Measured {
    let mut hist = Histogram::default();
    streams.iter().for_each(|s| hist.merge(&s.hist));
    let mut m = Measured::new(
        streams.iter().map(|s| s.calls).sum(),
        streams.iter().map(|s| s.seconds).fold(0.0, f64::max),
        Samples::Hist(hist),
    );
    // Whole windows only: the first holds thread start-up, the last is cut.
    let windows = streams.iter().map(|s| s.windows.len()).min().unwrap_or(0);
    m.window_rates = (1..windows.saturating_sub(1))
        .map(|w| streams.iter().map(|s| s.windows[w]).sum::<u64>() as f64 / WINDOW_S)
        .collect();
    let unconsumed: u64 = streams.iter().map(|s| s.unconsumed).sum();
    m.tally(m.ops, unconsumed, || {
        format!("{unconsumed} invocations left items unconsumed")
    });
    m
}

pub fn run(state: &ReuseState, seconds: f64) -> Measured {
    let mut m = merge(&streams(state, STREAMS, Stop::At(deadline(seconds)), false));

    // Output checks, outside the timed window.
    for (&id, &was) in state.ids.iter().zip(&state.learned) {
        let now = state.eas.learned_alpha(id).map_or(u64::MAX, f64::to_bits);
        m.check(now == was, || {
            format!(
                "kernel {id:#x}: learned alpha moved from {} to {}",
                f64::from_bits(was),
                f64::from_bits(now)
            )
        });
    }
    let write_errors = state.eas.store().map_or(0, |s| s.write_errors());
    m.check(write_errors == 0, || {
        format!("journal reported {write_errors} write errors")
    });
    let hit_rate = state.ring.metrics().hit_rate();
    m.check(hit_rate >= MIN_HIT_RATE, || {
        format!("ring hit rate {hit_rate} < {MIN_HIT_RATE}")
    });
    m.note("hit_rate", hit_rate);
    m.note(
        "sched_overhead_pct",
        sched_overhead_pct(state, m.op_ns.p50()),
    );
    m
}

/// Median scheduler ns per invocation ÷ median simulated invocation time
/// of the same observations (over the draw sequence), in percent.
pub fn sched_overhead_pct(state: &ReuseState, op_ns_p50: f64) -> f64 {
    let sim: Vec<f64> = state.draws[0]
        .iter()
        .map(|&d| {
            let d = d as usize;
            let alpha = f64::from_bits(state.learned[d]);
            let mut b = ReplayBackend::new(&state.caps[d]);
            b.run_split(alpha);
            b.sim_seconds
        })
        .collect();
    op_ns_p50 / (stats::median(&sim) * 1e9) * 100.0
}
