//! End-to-end record/replay of a chaos storm — the canonical scenario.
//!
//! [`record_chaos_storm`] runs the reduced suite (BFS, Blackscholes,
//! Mandelbrot) for several rounds under a seeded random fault plan drawn
//! from the run's [`RunSeed`], with the EAS scheduler learning across
//! workloads, a [`TickClock`] driving the decide timer, and every seam
//! tapped by a [`Recorder`]. [`replay_chaos_storm`] rebuilds the same
//! scheduler from the log's fingerprinted platform + config and re-feeds
//! the recorded observations; a clean replay reproduces the decision
//! stream — and the final table and health counters — byte-identically,
//! chaos faults, drift reprofiles and breaker trips included.
//!
//! The storm deliberately reuses one scheduler *and* one fault-step
//! counter across all workloads and rounds, so recorded state (learned
//! table entries, breaker state, chaos step offsets) threads through the
//! whole run — the gnarliest case the replay layer must get right.

use crate::record::{Recorder, RecordingScheduler};
use crate::replay::{replay_log, table_text, ReplayOutcome};
use crate::RunLog;
use easched_core::{
    characterize, fnv1a64, model_to_text, CharacterizationConfig, EasConfig, EasScheduler,
    HealthReport, Objective, PowerModel, RunSeed,
};
use easched_kernels::suite;
use easched_runtime::{run_workload_chaos, ChaosInjector, Fault, FaultPlan, TickClock};
use easched_sim::{Machine, Platform};
use easched_telemetry::{FanoutSink, RingSink, TelemetrySink, DEFAULT_SPAN_CAPACITY};
use std::sync::Arc;

/// Shape of a recorded chaos storm.
#[derive(Debug, Clone)]
pub struct StormSpec {
    /// Root seed; everything stochastic in the run derives from it.
    pub seed: RunSeed,
    /// Passes over the three-workload rotation.
    pub rounds: usize,
    /// Per-step fault probability of the random plan.
    pub chaos_rate: f64,
}

impl StormSpec {
    /// A storm rooted at `root` with the default shape (2 rounds, 20 %
    /// fault rate over all six vettable kinds).
    pub fn new(root: u64) -> StormSpec {
        StormSpec {
            seed: RunSeed::new(root),
            rounds: 2,
            chaos_rate: 0.2,
        }
    }
}

/// A finished recording plus the run's final engine state (for asserting
/// that a replay reconverges to the same place).
#[derive(Debug)]
pub struct RecordedStorm {
    /// The sealed log.
    pub log: RunLog,
    /// Final health counters of the recorded run.
    pub health: HealthReport,
    /// Final kernel table of the recorded run, as text.
    pub table: String,
}

/// Why a log refused to replay against this build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The characterized platform model no longer matches the recording.
    PlatformMismatch {
        /// Fingerprint in the log.
        recorded: u64,
        /// Fingerprint of the model this build characterizes.
        live: u64,
    },
    /// The scheduler configuration no longer matches the recording.
    ConfigMismatch {
        /// Fingerprint in the log.
        recorded: u64,
        /// Fingerprint of the config this build constructs.
        live: u64,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::PlatformMismatch { recorded, live } => write!(
                f,
                "platform fingerprint mismatch: log {recorded:016x}, this build {live:016x}"
            ),
            ReplayError::ConfigMismatch { recorded, live } => write!(
                f,
                "config fingerprint mismatch: log {recorded:016x}, this build {live:016x}"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// The storm's workload rotation (labels are suite abbreviations).
fn storm_workloads() -> Vec<Box<dyn easched_kernels::Workload>> {
    vec![
        suite::bfs_small(),
        suite::blackscholes_small(),
        suite::mandelbrot_small(),
    ]
}

/// The platform every replayable recording runs on (the storm harness,
/// the CLI `record` subcommand, the `shared_runtime` example's `--record`
/// mode). Measurement noise is zeroed: the sim is deterministic either
/// way, but a noiseless platform keeps recorded energies bit-stable
/// across refactors of the noise model itself.
pub fn storm_platform() -> Platform {
    let mut p = Platform::haswell_desktop();
    p.pcu.measurement_noise = 0.0;
    p
}

fn storm_model(platform: &Platform) -> PowerModel {
    characterize(platform, &CharacterizationConfig::default())
}

fn storm_config(seed: RunSeed) -> EasConfig {
    EasConfig::new(Objective::EnergyDelay).with_seed(seed)
}

/// Fingerprints `(platform, config)` the way logs record them.
fn fingerprints(model: &PowerModel, config: &EasConfig) -> (u64, u64) {
    (
        fnv1a64(model_to_text(model).as_bytes()),
        fnv1a64(format!("{config:?}").as_bytes()),
    )
}

/// Builds the canonical replayable setup for root seed `seed`: an
/// [`EasScheduler`] on the [`storm_platform`] model with a virtual
/// [`TickClock`] and a [`Recorder`] (already attached as the telemetry
/// sink, seed manifest logged) whose fingerprints
/// [`scheduler_for_log`] will accept. Shared by [`record_chaos_storm`],
/// the CLI, and the `shared_runtime` example.
pub fn recording_setup(seed: RunSeed) -> (EasScheduler, Arc<Recorder>) {
    let platform = storm_platform();
    let model = storm_model(&platform);
    let config = storm_config(seed);
    let (platform_fp, config_fp) = fingerprints(&model, &config);

    let recorder = Recorder::new(seed, platform_fp, config_fp);
    // The full seed inventory: suite input-generation constants first
    // (they predate the root — see `suite::seeds`), then any derivations
    // the caller takes from the root.
    for (name, value) in suite::seeds::manifest() {
        recorder.note_seed(name, value);
    }

    let mut eas = EasScheduler::new(model, config);
    eas.set_telemetry(Some(Arc::clone(&recorder) as Arc<dyn TelemetrySink>));
    eas.set_clock(Arc::new(TickClock::new()));
    (eas, recorder)
}

/// [`recording_setup`] plus the live observability plane: the scheduler's
/// sink becomes a [`FanoutSink`] teeing the [`Recorder`] (run log +
/// exemplar offsets) and a span-tracing [`RingSink`] (metrics registry +
/// causal spans for the scrape server). The recorder stays first so
/// [`TelemetrySink::offset`] reads log offsets; the ring sink is the
/// span owner.
///
/// The trace-id root is `seed.derive("trace")` taken *directly* from the
/// seed, not through [`Recorder::derive`]: spans are derived state
/// (DESIGN.md §14), so the derivation must not enter the event stream —
/// an observed run's log stays byte-identical to an unobserved one.
pub fn recording_setup_observed(seed: RunSeed) -> (EasScheduler, Arc<Recorder>, Arc<RingSink>) {
    let (mut eas, recorder) = recording_setup(seed);
    let ring = Arc::new(
        RingSink::default().with_span_tracing(DEFAULT_SPAN_CAPACITY, seed.derive("trace")),
    );
    let fanout = FanoutSink::new(vec![
        Arc::clone(&recorder) as Arc<dyn TelemetrySink>,
        Arc::clone(&ring) as Arc<dyn TelemetrySink>,
    ]);
    eas.set_telemetry(Some(Arc::new(fanout) as Arc<dyn TelemetrySink>));
    (eas, recorder, ring)
}

/// Records a chaos storm, returning the log and the run's final state.
pub fn record_chaos_storm(spec: &StormSpec) -> RecordedStorm {
    let (mut eas, recorder) = recording_setup(spec.seed);
    let chaos_seed = recorder.derive(spec.seed, "chaos");

    let mut injector = ChaosInjector::new(FaultPlan::Random {
        seed: chaos_seed,
        rate: spec.chaos_rate,
        kinds: Fault::ALL.to_vec(),
    });
    let mut machine = Machine::new(storm_platform());
    for _round in 0..spec.rounds {
        for workload in storm_workloads() {
            let label = workload.spec().abbrev;
            let mut recording = RecordingScheduler::new(&mut eas, Arc::clone(&recorder), label);
            let (_, verification) = run_workload_chaos(
                &mut machine,
                workload.as_ref(),
                &mut recording,
                &mut injector,
            );
            assert!(
                verification.is_passed(),
                "chaos corrupts observations, never outputs: {label}"
            );
        }
    }

    RecordedStorm {
        log: recorder.finish(),
        health: eas.health(),
        table: table_text(&eas),
    }
}

/// Builds the scheduler a storm log replays against, verifying the log's
/// platform and config fingerprints first.
pub fn scheduler_for_log(log: &RunLog) -> Result<EasScheduler, ReplayError> {
    let platform = storm_platform();
    let model = storm_model(&platform);
    let config = storm_config(RunSeed::new(log.root));
    let (platform_fp, config_fp) = fingerprints(&model, &config);
    if platform_fp != log.platform_fp {
        return Err(ReplayError::PlatformMismatch {
            recorded: log.platform_fp,
            live: platform_fp,
        });
    }
    if config_fp != log.config_fp {
        return Err(ReplayError::ConfigMismatch {
            recorded: log.config_fp,
            live: config_fp,
        });
    }
    let mut eas = EasScheduler::new(model, config);
    eas.set_clock(Arc::new(TickClock::new()));
    Ok(eas)
}

/// Replays a storm log recorded by [`record_chaos_storm`] and diffs the
/// decision streams.
pub fn replay_chaos_storm(log: &RunLog) -> Result<ReplayOutcome, ReplayError> {
    let mut eas = scheduler_for_log(log)?;
    Ok(replay_log(log, &mut eas))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_replays_byte_identically() {
        let recorded = record_chaos_storm(&StormSpec::new(7));
        let outcome = replay_chaos_storm(&recorded.log).unwrap();
        assert!(
            outcome.identical(),
            "divergence: {}",
            outcome.divergence.unwrap().render()
        );
        assert_eq!(outcome.recorded.len(), outcome.live.len());
        assert!(!outcome.recorded.is_empty());
        // The replay reconverges to the same engine state.
        assert_eq!(outcome.table, recorded.table);
        assert_eq!(outcome.health, recorded.health);
    }

    #[test]
    fn recording_is_deterministic() {
        let a = record_chaos_storm(&StormSpec::new(23));
        let b = record_chaos_storm(&StormSpec::new(23));
        assert_eq!(a.log.to_text(), b.log.to_text());
    }

    #[test]
    fn different_roots_differ() {
        let a = record_chaos_storm(&StormSpec::new(7));
        let b = record_chaos_storm(&StormSpec::new(8));
        assert_ne!(a.log.to_text(), b.log.to_text());
    }

    #[test]
    fn trace_ids_equal_indexed_seed_derivations() {
        // The span sink's trace-id allocator must be the same function as
        // `RunSeed::derive_indexed("trace", ordinal)` — that equality is
        // what makes trace ids replay-stable without logging them. The
        // telemetry crate cannot see `RunSeed`, so the equality is pinned
        // here, cross-crate.
        let seed = RunSeed::new(7);
        let (_eas, _recorder, ring) = recording_setup_observed(seed);
        let sink = ring.span_sink().expect("observed setup traces spans");
        assert_eq!(sink.root(), seed.derive("trace"));
        for ordinal in 0..32u64 {
            assert_eq!(
                sink.next_trace(),
                seed.derive_indexed("trace", ordinal),
                "trace ordinal {ordinal} diverged from the seed derivation"
            );
        }
        assert_eq!(sink.traces_started(), 32);
    }

    #[test]
    fn perturbed_log_diverges_and_reports() {
        let mut recorded = record_chaos_storm(&StormSpec::new(7));
        let steps = recorded
            .log
            .events
            .iter()
            .filter(|e| matches!(e, crate::log::Event::Step(_)))
            .count();
        assert!(recorded.log.perturb_step(steps / 2));
        let outcome = replay_chaos_storm(&recorded.log).unwrap();
        let divergence = outcome.divergence.expect("perturbation must diverge");
        let report = divergence.render();
        assert!(report.contains("first divergent decision"), "{report}");
        assert!(!divergence.table.is_empty());
    }
}
