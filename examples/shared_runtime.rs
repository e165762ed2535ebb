//! Shared scheduler: N concurrent workload streams learning into — and
//! reusing from — one global kernel table through an `Arc<SharedEas>`.
//!
//! Each thread gets its own `EasRuntime` (its own simulated machine), but
//! all of them drive the same scheduler: the first stream to profile a
//! kernel pays the profiling cost, every later stream on *any* thread
//! reuses the learned ratio through a lock-light table probe.
//!
//! ```text
//! cargo run --release --example shared_runtime
//! cargo run --release --example shared_runtime -- --trace shared.trace.json
//! cargo run --release --example shared_runtime -- --store table.d --repeat 50
//! cargo run --release --example shared_runtime -- --store table.d --verify-recovery
//! cargo run --release --example shared_runtime -- --record run.runlog --seed 7
//! cargo run --release --example shared_runtime -- --replay run.runlog
//! ```
//!
//! With `--trace <path>`, all streams' `DecisionRecord`s land in one
//! shared ring sink and are dumped as a Chrome Trace Event file — open it
//! in Perfetto (ui.perfetto.dev) or chrome://tracing to see which stream
//! paid the profiling cost and which got table hits (see README
//! "Inspecting decision traces").
//!
//! With `--store <dir>`, every table mutation is journaled to a crash-safe
//! store (DESIGN.md §11): the next run with the same `--store` warm-starts
//! from the recovered table instead of re-profiling — even after a
//! `kill -9`. `--repeat N` loops the workload set N times per stream
//! (long enough to kill mid-flight), and `--verify-recovery` skips the run
//! entirely: it opens the store, audits every recovered entry, and exits
//! non-zero if recovery surfaced anything corrupt — the assertion half of
//! ci.sh's SIGKILL smoke test.
//!
//! With `--chaos-fs <per-mille>`, the store's filesystem is wrapped in a
//! seed-deterministic `ChaosFs` (DESIGN.md §16) that injects ENOSPC,
//! short writes, and fsync failures at the given per-mille rate. The
//! scheduler must keep deciding at full fidelity while the store degrades
//! to memory and re-arms; the final checkpoint is retried a bounded
//! number of times and a persistent failure is reported, not fatal —
//! exactly the behaviour ci.sh's storage-chaos stage asserts.
//!
//! With `--record <file>`, one stream runs the workload set through the
//! shared scheduler with every determinism seam tapped (virtual clock,
//! seeded config, recorded observations — DESIGN.md §12) and writes a
//! sealed `RunLog`; `--replay <file>` re-executes it against a freshly
//! built scheduler and diffs the decision streams, exiting non-zero on
//! the first divergent decision. Recording collapses to a single stream
//! because replay is sequential: a multi-stream run's decision order is
//! an OS scheduling artifact, which is exactly the nondeterminism the
//! record mode exists to exclude (see README "Replaying a run").

use easched::core::telemetry::{parse_trace, to_trace};
use easched::core::{
    characterize, table_to_text, CharacterizationConfig, EasConfig, EasRuntime, EasScheduler,
    Objective, RingSink, RunSeed, TableStore, TelemetrySink,
};
use easched::kernels::suite;
use easched::runtime::kernel_id_of;
use easched::runtime::vfs::{ChaosFs, ChaosFsPlan, StdFs, Vfs};
use easched::runtime::TickClock;
use easched::sim::Platform;
use std::path::PathBuf;
use std::sync::Arc;

const STREAMS: usize = 8;

struct Options {
    trace: Option<PathBuf>,
    store: Option<PathBuf>,
    repeat: usize,
    verify_recovery: bool,
    record: Option<PathBuf>,
    replay: Option<PathBuf>,
    seed: u64,
    chaos_fs: Option<u16>,
}

fn options() -> Options {
    let mut opts = Options {
        trace: None,
        store: None,
        repeat: 1,
        verify_recovery: false,
        record: None,
        replay: None,
        seed: 7,
        chaos_fs: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trace" => {
                opts.trace = Some(PathBuf::from(
                    args.next().expect("--trace requires a file path"),
                ))
            }
            "--store" => {
                opts.store = Some(PathBuf::from(
                    args.next().expect("--store requires a directory"),
                ))
            }
            "--repeat" => {
                opts.repeat = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .expect("--repeat requires a count")
            }
            "--verify-recovery" => opts.verify_recovery = true,
            "--record" => {
                opts.record = Some(PathBuf::from(
                    args.next().expect("--record requires a file path"),
                ))
            }
            "--replay" => {
                opts.replay = Some(PathBuf::from(
                    args.next().expect("--replay requires a file path"),
                ))
            }
            "--seed" => {
                opts.seed = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .expect("--seed requires an integer")
            }
            "--chaos-fs" => {
                let rate: u16 = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .expect("--chaos-fs requires a per-mille rate (0..=1000)");
                assert!(rate <= 1000, "--chaos-fs rate must be 0..=1000 per mille");
                opts.chaos_fs = Some(rate);
            }
            other => panic!("unknown flag {other:?}"),
        }
    }
    opts
}

/// Opens the store, audits what recovery produced, and exits the process:
/// 0 when every recovered entry is well-formed, 1 otherwise. Run after a
/// `kill -9` to prove the journal brought the table back intact — a torn
/// tail line is expected and fine (it is discarded), corrupt *values*
/// are not.
fn verify_recovery(dir: &PathBuf) -> ! {
    let (_store, rec) = TableStore::open(dir).unwrap_or_else(|e| {
        eprintln!("recovery failed to open {}: {e}", dir.display());
        std::process::exit(1);
    });
    println!(
        "recovered generation {} (+{} journal records, {} torn/corrupt lines discarded)",
        rec.generation, rec.replayed, rec.discarded
    );
    println!("breaker: {:?}", rec.breaker);
    let mut kernels = 0usize;
    let mut bad = 0usize;
    for (kernel, stat, tainted) in rec.table.snapshot_with_taint() {
        kernels += 1;
        let ok = stat.alpha.is_finite()
            && (0.0..=1.0).contains(&stat.alpha)
            && stat.weight.is_finite()
            && stat.weight > 0.0;
        if !ok {
            bad += 1;
        }
        println!(
            "  kernel {kernel}: α = {:.4}  weight {:.0}  seen {}  tainted {tainted}  {}",
            stat.alpha,
            stat.weight,
            stat.invocations_seen,
            if ok { "ok" } else { "CORRUPT" },
        );
    }
    if kernels == 0 {
        eprintln!("recovery produced an empty table — the journal never made it to disk");
        std::process::exit(1);
    }
    if bad > 0 {
        eprintln!("{bad}/{kernels} recovered entries are corrupt");
        std::process::exit(1);
    }
    println!("{kernels} kernels recovered clean");
    std::process::exit(0);
}

/// `--record`: one stream, every nondeterminism seam tapped. The shared
/// scheduler is built by `recording_setup` (storm platform, seeded
/// config, virtual clock, recorder attached as telemetry sink), then
/// each workload runs through the same `Shared` adapter the concurrent
/// streams use — wrapped in a `RecordingScheduler` so every backend
/// observation lands in the log alongside the decision stream.
fn record_run(path: &PathBuf, seed: u64) -> ! {
    use easched::replay::{recording_setup, storm_platform, RecordingScheduler};
    use easched::runtime::{run_workload, Shared};
    use easched::sim::Machine;

    println!("recording single-stream run (seed {seed}) ...");
    let (eas, recorder) = recording_setup(easched::core::RunSeed::new(seed));
    let shared = eas.into_shared(); // carries the recorder sink + TickClock
    let mut adapter = Shared::new(shared);
    let mut machine = Machine::new(storm_platform());
    for workload in [suite::blackscholes_small(), suite::mandelbrot_small()] {
        let label = workload.spec().abbrev;
        let mut recording = RecordingScheduler::new(&mut adapter, Arc::clone(&recorder), label);
        let (_, verification) = run_workload(&mut machine, workload.as_ref(), &mut recording);
        assert!(verification.is_passed());
    }
    let log = recorder.finish();
    std::fs::write(path, log.to_text()).expect("write run log");
    println!(
        "recorded {} decisions ({} events) to {}",
        log.decisions().len(),
        log.events.len(),
        path.display()
    );
    println!("replay with: cargo run --release --example shared_runtime -- --replay <file>");
    std::process::exit(0);
}

/// `--replay`: rebuild the scheduler from the log's fingerprints, re-feed
/// the recorded observations, diff the decision streams bit-for-bit.
fn replay_run(path: &PathBuf) -> ! {
    use easched::replay::{replay_chaos_storm, RunLog};

    let text = std::fs::read_to_string(path).expect("read run log");
    let log = RunLog::from_text(&text).unwrap_or_else(|e| {
        eprintln!("{} is not a run log: {e:?}", path.display());
        std::process::exit(2);
    });
    match replay_chaos_storm(&log) {
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
        Ok(outcome) => {
            if let Some(divergence) = outcome.divergence {
                println!("{}", divergence.render());
                std::process::exit(1);
            }
            println!(
                "{}: replayed {} invocations, {} decisions byte-identical",
                path.display(),
                outcome.invocations_replayed,
                outcome.live.len()
            );
            std::process::exit(0);
        }
    }
}

fn main() {
    let opts = options();
    if opts.verify_recovery {
        let dir = opts
            .store
            .as_ref()
            .expect("--verify-recovery requires --store <dir>");
        verify_recovery(dir);
    }
    if let Some(path) = &opts.replay {
        replay_run(path);
    }
    if let Some(path) = &opts.record {
        record_run(path, opts.seed);
    }

    let platform = Platform::haswell_desktop();
    println!("characterizing {} ...", platform.name);
    let model = characterize(&platform, &CharacterizationConfig::default());
    let tracing = opts
        .trace
        .map(|p| (p, Arc::new(RingSink::with_capacity(1 << 14))));

    // One scheduler, shared by every stream. With `--store`, it first
    // recovers whatever an earlier process learned (crashed or not).
    // `--chaos-fs` swaps the store's filesystem for a seed-deterministic
    // fault injector; everything above the Vfs seam is unchanged.
    let config = EasConfig::new(Objective::EnergyDelay);
    let vfs: Arc<dyn Vfs> = match opts.chaos_fs {
        None => Arc::new(StdFs),
        Some(rate) => {
            println!(
                "storage chaos: ChaosFs storm at {rate}\u{2030} (seed {})",
                opts.seed
            );
            Arc::new(ChaosFs::new(
                RunSeed::new(opts.seed).derive("chaos-fs"),
                ChaosFsPlan::storm(rate),
                Arc::new(TickClock::new()),
            ))
        }
    };
    let mut eas = match &opts.store {
        Some(dir) => EasScheduler::open(model, config, dir, vfs).expect("open table store"),
        None => EasScheduler::new(model, config),
    };
    if let Some((_, sink)) = &tracing {
        eas.set_telemetry(Some(sink.clone() as Arc<dyn TelemetrySink>));
    }
    let eas = eas.into_shared();
    if opts.store.is_some() && !eas.table().is_empty() {
        println!(
            "warm-started from recovered table ({} kernels)",
            eas.table().snapshot_with_taint().len()
        );
    }

    std::thread::scope(|s| {
        for stream in 0..STREAMS {
            let eas = Arc::clone(&eas);
            let platform = platform.clone();
            let repeat = opts.repeat;
            s.spawn(move || {
                let mut rt = EasRuntime::with_shared(platform, eas);
                for round in 0..repeat {
                    for workload in [suite::blackscholes_small(), suite::mandelbrot_small()] {
                        let spec = workload.spec();
                        let outcome = rt.run(workload.as_ref());
                        assert!(outcome.verification.is_passed());
                        if round == 0 {
                            println!(
                                "stream {stream}: {:>4}  {:>8.4} s  {:>8.3} J  EDP {:>9.4}",
                                spec.abbrev, outcome.time, outcome.energy_joules, outcome.edp,
                            );
                        }
                    }
                }
            });
        }
    });

    // The table holds one learned ratio per kernel, no matter how many
    // streams ran it; profiling decisions were made once per kernel, not
    // once per stream.
    println!();
    for workload in [suite::blackscholes_small(), suite::mandelbrot_small()] {
        let kernel = kernel_id_of(workload.as_ref());
        let stat = eas.table().stat(kernel).unwrap();
        println!(
            "{:>4}: learned α = {:.2}  (weight {:.0}, {} reuse invocations)",
            workload.spec().abbrev,
            stat.alpha,
            stat.weight,
            stat.invocations_seen,
        );
    }
    println!(
        "total α decisions across {STREAMS} streams: {} (reuse is decision-free)",
        eas.decisions()
    );

    // The learned table persists like the power model does, so the next
    // process warm-starts instead of re-profiling.
    println!(
        "\npersisted table:\n{}",
        table_to_text(eas.table(), eas.health_state().breaker().state(), 0)
    );
    if opts.store.is_some() {
        // Under `--chaos-fs` the checkpoint may hit injected faults; each
        // retry advances the fault stream past the window, so a bounded
        // loop re-arms durability. A still-failing disk is reported, not
        // fatal — the scheduler kept full fidelity the whole run.
        let attempts = if opts.chaos_fs.is_some() { 32 } else { 1 };
        let mut failed = 0u32;
        loop {
            match eas.checkpoint() {
                Ok(()) => {
                    if failed > 0 {
                        println!("checkpoint re-armed after {failed} injected faults");
                    }
                    println!("checkpointed store (journal compacted into a fresh snapshot)");
                    break;
                }
                Err(e) if opts.chaos_fs.is_some() => {
                    failed += 1;
                    if failed >= attempts {
                        println!("checkpoint still failing after {failed} attempts ({e}); store stays degraded-to-memory");
                        break;
                    }
                }
                Err(e) => panic!("checkpoint table store: {e}"),
            }
        }
        let health = eas.health();
        if opts.chaos_fs.is_some() {
            println!(
                "store health: {} io errors absorbed, degraded {}, {} journal bytes",
                health.store_io_errors,
                health.store_degraded != 0,
                health.store_bytes
            );
        }
    }

    if let Some((path, sink)) = &tracing {
        let records = sink.snapshot();
        let trace = to_trace(&records);
        // Self-check: the exported trace must round-trip through the
        // analyzer before we hand it to the user (bit-level, since
        // PartialEq cannot see NaN == NaN).
        let reparsed = parse_trace(&trace).expect("exported trace must parse");
        assert!(
            reparsed.len() == records.len()
                && reparsed.iter().zip(&records).all(|(a, b)| a.bitwise_eq(b)),
            "trace round-trip must be lossless"
        );
        std::fs::write(path, trace).expect("write trace file");
        println!(
            "wrote {} decision records to {} (open in Perfetto or chrome://tracing)",
            records.len(),
            path.display()
        );
    }
}
