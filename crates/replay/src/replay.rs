//! Re-executing a recorded run and diffing it against the log.
//!
//! [`ReplayBackend`] impersonates the recorded backend for one
//! invocation: each `profile_step`/`run_split` call is matched against
//! the next recorded step and answered with the recorded observation, so
//! the scheduler re-sees exactly what it saw live — chaos corruption,
//! drift windows, watchdog stalls and all — without a simulator or real
//! hardware behind it. [`replay_log`] drives a fresh scheduler through
//! every recorded invocation, collects its live [`DecisionRecord`]
//! stream, and reports the first divergence from the recorded stream
//! (bit-level, NaN-tolerant), together with the engine state — table and
//! health — at the moment of divergence. That is the time-travel
//! debugging loop: perturb, replay, and the diff hands you the first
//! decision where history changed.
//!
//! A structurally divergent scheduler (one that asks for a different
//! chunk or α than the log has next) would deadlock a strict replayer,
//! so after noting the first structural mismatch the backend *free-runs*:
//! it synthesizes deterministic observations (fixed nominal device rates)
//! and keeps consuming items, letting the run complete so the decision
//! diff can still be reported.

use crate::log::{LoggedInvocation, RecordedStep, RunLog, StepCall};
use easched_core::{table_to_text, EasScheduler, HealthReport, SharedEas};
use easched_runtime::{Backend, Observation, Scheduler};
use easched_telemetry::{DecisionRecord, TelemetrySink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Nominal device rates for free-running synthesized observations after a
/// structural divergence (same constants the test fake uses).
const FREE_RUN_CPU_RATE: f64 = 1.0e6;
const FREE_RUN_GPU_RATE: f64 = 2.0e6;
const FREE_RUN_POWER: f64 = 55.0;

/// A backend that answers one recorded invocation's calls from the log.
#[derive(Debug)]
pub struct ReplayBackend<'a> {
    steps: &'a [RecordedStep],
    cursor: usize,
    remaining: u64,
    profile_size: u64,
    divergence: Option<String>,
}

impl<'a> ReplayBackend<'a> {
    /// A backend for one recorded invocation.
    pub fn new(invocation: &'a LoggedInvocation<'a>) -> ReplayBackend<'a> {
        ReplayBackend {
            steps: &invocation.steps,
            cursor: 0,
            remaining: invocation.items,
            profile_size: invocation.profile_size,
            divergence: None,
        }
    }

    /// The first structural mismatch, if the live scheduler called the
    /// backend differently than the recording (human-readable).
    pub fn divergence(&self) -> Option<&str> {
        self.divergence.as_deref()
    }

    /// Recorded steps not consumed by the live scheduler.
    pub fn unconsumed_steps(&self) -> usize {
        self.steps.len() - self.cursor
    }

    fn next_matching(&mut self, wanted: &StepCall, desc: &str) -> Option<RecordedStep> {
        if self.divergence.is_some() {
            return None;
        }
        match self.steps.get(self.cursor) {
            Some(step) if calls_match(&step.call, wanted) => {
                self.cursor += 1;
                Some(*step)
            }
            other => {
                self.divergence = Some(format!(
                    "live scheduler called {desc} but log step {} is {:?}",
                    self.cursor,
                    other.map(|s| s.call)
                ));
                None
            }
        }
    }

    /// Deterministic stand-in observation once the log no longer applies.
    fn synthesize(&mut self, gpu_items: u64, cpu_items: u64) -> Observation {
        let gpu_time = gpu_items as f64 / FREE_RUN_GPU_RATE;
        let cpu_time = cpu_items as f64 / FREE_RUN_CPU_RATE;
        let elapsed = gpu_time.max(cpu_time);
        self.remaining -= gpu_items + cpu_items;
        Observation {
            elapsed,
            cpu_items,
            gpu_items,
            cpu_time,
            gpu_time,
            energy_joules: FREE_RUN_POWER * elapsed,
            ..Default::default()
        }
    }
}

/// `run_split` α must match bit-for-bit: the recorded α came out of the
/// same deterministic minimizer the replay re-runs, so any difference at
/// all is a real divergence, not float noise.
fn calls_match(recorded: &StepCall, wanted: &StepCall) -> bool {
    match (recorded, wanted) {
        (StepCall::Profile { chunk: a }, StepCall::Profile { chunk: b }) => a == b,
        (StepCall::Split { alpha: a }, StepCall::Split { alpha: b }) => a.to_bits() == b.to_bits(),
        _ => false,
    }
}

impl Backend for ReplayBackend<'_> {
    fn remaining(&self) -> u64 {
        self.remaining
    }

    fn gpu_profile_size(&self) -> u64 {
        self.profile_size
    }

    fn profile_step(&mut self, gpu_chunk: u64) -> Observation {
        let call = StepCall::Profile { chunk: gpu_chunk };
        if let Some(step) = self.next_matching(&call, &format!("profile_step({gpu_chunk})")) {
            self.remaining = step.remaining_after;
            return step.obs;
        }
        let gpu = gpu_chunk.min(self.remaining);
        let cpu = ((self.remaining - gpu) / 2).min((FREE_RUN_CPU_RATE / 1.0e3) as u64);
        self.synthesize(gpu, cpu)
    }

    fn run_split(&mut self, alpha: f64) -> Observation {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
        let call = StepCall::Split { alpha };
        if let Some(step) = self.next_matching(&call, &format!("run_split({alpha})")) {
            self.remaining = step.remaining_after;
            return step.obs;
        }
        let gpu = (self.remaining as f64 * alpha).round() as u64;
        let cpu = self.remaining - gpu;
        self.synthesize(gpu, cpu)
    }
}

/// A telemetry sink that just collects records (publication-order seqs,
/// like the ring sink) for the replay-side diff.
#[derive(Debug, Default)]
pub struct CollectorSink {
    records: Mutex<Vec<DecisionRecord>>,
    seq: AtomicU64,
}

impl CollectorSink {
    /// An empty collector ready to attach.
    pub fn new() -> Arc<CollectorSink> {
        Arc::new(CollectorSink::default())
    }

    /// The records collected so far, in publication order.
    pub fn records(&self) -> Vec<DecisionRecord> {
        self.records
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl TelemetrySink for CollectorSink {
    fn record(&self, record: &DecisionRecord) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.records
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(DecisionRecord { seq, ..*record });
    }
}

/// The first point where a replay's decision stream left the recording.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Index into the decision stream (0-based) of the first divergent
    /// record.
    pub decision_index: usize,
    /// 0-based ordinal of the invocation that emitted it.
    pub invocation: usize,
    /// Workload label of that invocation.
    pub label: String,
    /// The recorded decision at that index (`None`: the live run emitted
    /// *more* decisions than were recorded).
    pub recorded: Option<DecisionRecord>,
    /// The live decision at that index (`None`: the live run emitted
    /// fewer).
    pub live: Option<DecisionRecord>,
    /// Names of the differing record fields (empty when one side is
    /// missing entirely).
    pub fields: Vec<&'static str>,
    /// First structural backend mismatch, if the live scheduler also
    /// called the backend differently.
    pub structural: Option<String>,
    /// The kernel table as text at the moment of divergence — the engine
    /// state a time-traveling debugger lands on.
    pub table: String,
    /// Health counters at the moment of divergence.
    pub health: HealthReport,
}

impl Divergence {
    /// A multi-line human-readable report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "first divergent decision: index {} (invocation {} [{}])\n",
            self.decision_index, self.invocation, self.label
        );
        match (&self.recorded, &self.live) {
            (Some(r), Some(l)) => {
                out.push_str(&format!("  differing fields: {}\n", self.fields.join(", ")));
                out.push_str(&format!("  recorded: {r:?}\n  live:     {l:?}\n"));
            }
            (Some(r), None) => {
                out.push_str(&format!("  live run ended early; recorded: {r:?}\n"));
            }
            (None, Some(l)) => {
                out.push_str(&format!("  live run emitted extra decision: {l:?}\n"));
            }
            (None, None) => {}
        }
        if let Some(s) = &self.structural {
            out.push_str(&format!("  structural: {s}\n"));
        }
        out.push_str(&format!("  health at divergence: {:?}\n", self.health));
        out.push_str("  kernel table at divergence:\n");
        for line in self.table.lines() {
            out.push_str(&format!("    {line}\n"));
        }
        out
    }
}

/// Outcome of replaying a full log against a fresh scheduler.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Decisions the live re-run emitted (up to the divergence, if any).
    pub live: Vec<DecisionRecord>,
    /// Decisions the log recorded.
    pub recorded: Vec<DecisionRecord>,
    /// The first divergence, or `None` for a byte-identical replay.
    pub divergence: Option<Divergence>,
    /// Invocations actually replayed (all of them unless diverged).
    pub invocations_replayed: usize,
    /// Final health counters of the replaying scheduler.
    pub health: HealthReport,
    /// Final kernel table of the replaying scheduler, as text.
    pub table: String,
}

impl ReplayOutcome {
    /// `true` when the replay reproduced the recorded decision stream
    /// bit-for-bit.
    pub fn identical(&self) -> bool {
        self.divergence.is_none()
    }
}

/// Replays `log` through `scheduler` (which must be freshly built from
/// the same model + config the recording used — see the fingerprints in
/// the log header) and diffs the decision streams.
///
/// The scheduler's telemetry sink is replaced with a collector for the
/// duration; the first divergent decision stops the replay so the
/// reported table/health are the state *at* the divergence.
pub fn replay_log(log: &RunLog, scheduler: &mut EasScheduler) -> ReplayOutcome {
    let collector = CollectorSink::new();
    scheduler.set_telemetry(Some(Arc::clone(&collector) as Arc<dyn TelemetrySink>));

    let recorded = log.decisions();
    let invocations = log.invocations();
    let mut divergence = None;
    let mut replayed: usize = 0;

    for (ordinal, invocation) in invocations.iter().enumerate() {
        let mut backend = ReplayBackend::new(invocation);
        scheduler.schedule(invocation.kernel, &mut backend);
        let structural = backend.divergence().map(String::from);
        replayed += 1;

        let live = collector.records();
        if let Some(index) = first_divergent(&recorded, &live) {
            divergence = Some(build_divergence(
                index,
                ordinal,
                invocation.label,
                &recorded,
                &live,
                structural,
                scheduler,
            ));
            break;
        }
        if let Some(s) = structural {
            // The backend calls diverged but every decision so far still
            // matches (possible when corruption cancels out downstream) —
            // report it anchored at the next decision index.
            divergence = Some(build_divergence(
                live.len(),
                ordinal,
                invocation.label,
                &recorded,
                &live,
                Some(s),
                scheduler,
            ));
            break;
        }
    }

    let live = collector.records();
    if divergence.is_none() && live.len() != recorded.len() {
        let index = live.len().min(recorded.len());
        divergence = Some(build_divergence(
            index,
            replayed.saturating_sub(1),
            invocations.last().map_or("", |i| i.label),
            &recorded,
            &live,
            None,
            scheduler,
        ));
    }

    ReplayOutcome {
        live,
        recorded,
        divergence,
        invocations_replayed: replayed,
        health: scheduler.health(),
        table: table_text(scheduler),
    }
}

/// A scheduler core's kernel table and breaker state as table text — the
/// final state a record and its replay compare (a run's table never has
/// a store generation, so it is written as 0).
pub(crate) fn table_text(core: &SharedEas) -> String {
    table_to_text(core.table(), core.health_state().breaker().state(), 0)
}

fn build_divergence(
    index: usize,
    invocation: usize,
    label: &str,
    recorded: &[DecisionRecord],
    live: &[DecisionRecord],
    structural: Option<String>,
    scheduler: &EasScheduler,
) -> Divergence {
    let rec = recorded.get(index).copied();
    let liv = live.get(index).copied();
    let fields = match (&rec, &liv) {
        (Some(r), Some(l)) => differing_fields(r, l),
        _ => Vec::new(),
    };
    Divergence {
        decision_index: index,
        invocation,
        label: label.to_string(),
        recorded: rec,
        live: liv,
        fields,
        structural,
        table: table_text(scheduler),
        health: scheduler.health(),
    }
}

/// Index of the first pair that is not bitwise-equal, if any (only over
/// the common prefix; length mismatch is handled by the caller).
fn first_divergent(recorded: &[DecisionRecord], live: &[DecisionRecord]) -> Option<usize> {
    recorded
        .iter()
        .zip(live.iter())
        .position(|(r, l)| !r.bitwise_eq(l))
}

/// Field names of the encoded words where two records differ.
pub fn differing_fields(a: &DecisionRecord, b: &DecisionRecord) -> Vec<&'static str> {
    const NAMES: [&str; DecisionRecord::WORDS] = [
        "kernel",
        "path/class/breaker/rounds",
        "r_c",
        "r_g",
        "alpha",
        "predicted_power",
        "predicted_time",
        "predicted_objective",
        "profile_time",
        "profile_energy",
        "split_time",
        "split_energy",
        "items/decide_nanos",
    ];
    let wa = a.encode();
    let wb = b.encode();
    let mut out: Vec<&'static str> = NAMES
        .iter()
        .zip(wa.iter().zip(wb.iter()))
        .filter(|(_, (x, y))| x != y)
        .map(|(n, _)| *n)
        .collect();
    if a.seq != b.seq {
        out.insert(0, "seq");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{Event, RunLog};

    fn one_invocation_log() -> RunLog {
        let obs = Observation {
            elapsed: 0.1,
            cpu_items: 1000,
            gpu_items: 4000,
            cpu_time: 0.1,
            gpu_time: 0.1,
            energy_joules: 5.0,
            ..Default::default()
        };
        RunLog {
            version: crate::log::FORMAT_VERSION,
            root: 1,
            platform_fp: 0,
            config_fp: 0,
            events: vec![
                Event::Invocation {
                    kernel: 3,
                    items: 10_000,
                    profile_size: 2240,
                    label: "T".into(),
                },
                Event::Step(RecordedStep {
                    call: StepCall::Profile { chunk: 2240 },
                    obs,
                    remaining_after: 5000,
                }),
                Event::Step(RecordedStep {
                    call: StepCall::Split { alpha: 0.5 },
                    obs,
                    remaining_after: 0,
                }),
            ],
            complete: true,
        }
    }

    #[test]
    fn replay_backend_feeds_recorded_observations() {
        let log = one_invocation_log();
        let invs = log.invocations();
        let mut b = ReplayBackend::new(&invs[0]);
        assert_eq!(b.remaining(), 10_000);
        assert_eq!(b.gpu_profile_size(), 2240);
        let o1 = b.profile_step(2240);
        assert_eq!(o1.gpu_items, 4000, "recorded obs, corrupted counts and all");
        assert_eq!(b.remaining(), 5000, "ground truth, not the obs");
        let o2 = b.run_split(0.5);
        assert_eq!(o2.energy_joules, 5.0);
        assert_eq!(b.remaining(), 0);
        assert!(b.divergence().is_none());
        assert_eq!(b.unconsumed_steps(), 0);
    }

    #[test]
    fn structural_mismatch_noted_then_free_runs() {
        let log = one_invocation_log();
        let invs = log.invocations();
        let mut b = ReplayBackend::new(&invs[0]);
        // Ask for a different chunk than recorded.
        let _ = b.profile_step(999);
        assert!(b.divergence().unwrap().contains("profile_step(999)"));
        // Free-run still consumes everything so a scheduler can finish.
        while b.remaining() > 0 {
            b.run_split(1.0);
        }
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn differing_fields_names_the_word() {
        let a = DecisionRecord {
            alpha: 0.5,
            ..Default::default()
        };
        let b = DecisionRecord {
            alpha: 0.6,
            split_energy: 1.0,
            ..Default::default()
        };
        assert_eq!(differing_fields(&a, &b), vec!["alpha", "split_energy"]);
        // NaN == NaN under the bitwise view.
        let n1 = DecisionRecord {
            r_c: f64::NAN,
            ..Default::default()
        };
        let n2 = DecisionRecord {
            r_c: f64::NAN,
            ..Default::default()
        };
        assert!(differing_fields(&n1, &n2).is_empty());
    }

    #[test]
    fn split_alpha_must_match_bitwise() {
        let a = StepCall::Split { alpha: 0.5 };
        assert!(calls_match(&a, &StepCall::Split { alpha: 0.5 }));
        assert!(!calls_match(&a, &StepCall::Split { alpha: 0.5 + 1e-16 }));
    }
}
