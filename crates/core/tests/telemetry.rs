//! Telemetry integration: every Figure 7 exit path emits a correctly
//! tagged [`DecisionRecord`], the disabled path stays behavior-identical,
//! and concurrent streams interleave safely into one sink (DESIGN.md §10).

use easched_core::{
    BreakerState, EasConfig, EasScheduler, InvocationPath, Objective, PowerCurve, PowerModel,
    RingSink, SharedEasExt, WorkloadClass,
};
use easched_num::Polynomial;
use easched_runtime::backend::test_support::FakeBackend;
use easched_runtime::chaos::{ChaosInjector, Fault, FaultPlan};
use easched_runtime::{Backend, Scheduler};
use std::collections::HashSet;
use std::sync::Arc;

fn flat_model(watts: f64) -> PowerModel {
    let curves = WorkloadClass::all()
        .into_iter()
        .map(|c| PowerCurve::new(c, Polynomial::constant(watts), 0.0, 11))
        .collect();
    PowerModel::new("flat", curves)
}

/// 100k items on a 1:2 machine: the Time objective's grid decision is
/// exactly α = 0.7.
fn fake() -> FakeBackend {
    FakeBackend::new(100_000, 1.0e6, 2.0e6)
}

fn instrumented(objective: Objective) -> (EasScheduler, Arc<RingSink>) {
    let sink = Arc::new(RingSink::with_capacity(1024));
    let mut eas = EasScheduler::new(flat_model(50.0), EasConfig::new(objective));
    eas.set_telemetry(Some(sink.clone()));
    (eas, sink)
}

#[test]
fn profiled_then_table_hit_records() {
    let (mut eas, sink) = instrumented(Objective::Time);
    let mut b = fake();
    eas.schedule(7, &mut b);
    let mut b2 = fake();
    eas.schedule(7, &mut b2);

    assert_eq!(sink.recorded(), 2);
    assert_eq!(sink.dropped(), 0);
    let records = sink.snapshot();
    assert_eq!(records.len(), 2);

    let first = &records[0];
    assert_eq!(first.path, InvocationPath::Profiled);
    assert_eq!(first.kernel, 7);
    assert_eq!(first.items, 100_000);
    assert!(first.rounds > 0, "{first:?}");
    assert!(first.class.is_some());
    assert_eq!(first.breaker, BreakerState::Closed.code());
    assert_eq!(first.last_fault, None);
    assert_eq!(first.fault_rounds, 0);
    assert!((first.alpha - 0.7).abs() < 1e-9, "{first:?}");
    // The last decision saw a 1:2 machine.
    assert!((first.r_g / first.r_c - 2.0).abs() < 0.01, "{first:?}");
    // Model predictions are pinned alongside realized observations.
    assert!(first.predicted_time > 0.0 && first.predicted_time.is_finite());
    assert_eq!(first.predicted_power, 50.0);
    assert!(first.predicted_objective > 0.0);
    assert!(first.profile_time > 0.0, "profiling phase observed");
    assert!(first.split_time > 0.0 && first.split_energy > 0.0);
    assert!(first.total_time() > first.split_time);
    assert!(first.decide_nanos > 0, "vet+decide path was timed");

    let second = &records[1];
    assert_eq!(second.path, InvocationPath::TableHit);
    assert!(second.seq > first.seq);
    assert_eq!(second.rounds, 0);
    assert_eq!(second.class, None, "no decision was made on a reuse");
    assert_eq!(second.predicted_time, 0.0, "no prediction on a reuse");
    assert!((second.alpha - 0.7).abs() < 1e-9);
    assert_eq!(second.profile_time, 0.0);
    assert!(second.split_time > 0.0);

    let m = sink.metrics();
    assert_eq!(m.invocations.get(), 2);
    assert_eq!(m.profiled.get(), 1);
    assert_eq!(m.table_hits.get(), 1);
    assert!((m.hit_rate() - 0.5).abs() < 1e-9);
    assert!(m.overhead_fraction() > 0.0);
}

#[test]
fn small_and_empty_invocations() {
    let (mut eas, sink) = instrumented(Objective::EnergyDelay);

    let mut small = FakeBackend::new(100, 1.0e6, 2.0e6);
    eas.schedule(1, &mut small);
    let mut empty = FakeBackend::new(0, 1.0e6, 2.0e6);
    eas.schedule(2, &mut empty);

    assert_eq!(sink.recorded(), 1, "empty invocations emit no record");
    let records = sink.snapshot();
    assert_eq!(records[0].path, InvocationPath::SmallN);
    assert_eq!(records[0].items, 100);
    assert_eq!(records[0].alpha, 0.0);
    assert_eq!(records[0].rounds, 0);
    assert_eq!(sink.metrics().small_n.get(), 1);
}

#[test]
fn outage_tags_degraded_quarantined_and_probe_paths() {
    // Same schedule as the chaos suite's persistent-outage test:
    // invocation 0 degrades after the retry budget, 1..=7 are gated
    // CPU-only by the open breaker, invocation 8 is the probe — still
    // dead, so it degrades again.
    let (mut eas, sink) = instrumented(Objective::Time);
    let mut injector = ChaosInjector::new(FaultPlan::GpuOutage {
        from: 0,
        until: u64::MAX,
    });
    for _ in 0..9 {
        let mut b = fake();
        let mut chaos = injector.wrap(&mut b);
        eas.schedule(7, &mut chaos);
    }

    let records = sink.snapshot();
    assert_eq!(records.len(), 9);
    assert_eq!(records[0].path, InvocationPath::Degraded);
    assert!(records[0].fault_rounds > 0, "{:?}", records[0]);
    assert!(records[0].last_fault.is_some());
    assert_eq!(records[0].alpha, 0.0, "degraded with no trusted decision");
    assert_eq!(records[0].breaker, BreakerState::Open.code());
    for r in &records[1..8] {
        assert_eq!(r.path, InvocationPath::Quarantined, "{r:?}");
        assert_eq!(r.alpha, 0.0);
        assert_eq!(r.rounds, 0);
        assert!(r.split_time > 0.0, "CPU-only remainder still ran");
    }
    assert_eq!(records[8].path, InvocationPath::Degraded, "dead probe");
    assert!(records[8].fault_rounds > 0);

    let m = sink.metrics();
    assert_eq!(m.degraded.get(), 2);
    assert_eq!(m.quarantined.get(), 7);
    // Record-granularity transitions: Closed→Open once; the probe's
    // HalfOpen excursion re-trips *within* invocation 8, so its
    // post-invocation state is Open again and no transition is visible.
    assert_eq!(m.breaker_transitions.get(), 1);
}

#[test]
fn recovered_probe_is_tagged_probe_with_prediction() {
    let (mut eas, sink) = instrumented(Objective::Time);
    let mut injector = ChaosInjector::new(FaultPlan::GpuOutage { from: 0, until: 4 });
    for _ in 0..9 {
        let mut b = fake();
        let mut chaos = injector.wrap(&mut b);
        eas.schedule(7, &mut chaos);
    }
    let records = sink.snapshot();
    assert_eq!(records.len(), 9);
    let probe = &records[8];
    assert_eq!(probe.path, InvocationPath::Probe, "{probe:?}");
    assert!(probe.rounds > 0);
    assert!(
        probe.predicted_time > 0.0,
        "probe decisions carry the model"
    );
    assert!((probe.alpha - 0.7).abs() < 1e-9, "probe relearns the ratio");
    assert_eq!(probe.breaker, BreakerState::Closed.code(), "probe healed");
    assert_eq!(sink.metrics().probes.get(), 1);
}

#[test]
fn tainted_entry_reprofile_is_tagged_reprofiled() {
    let (mut eas, sink) = instrumented(Objective::Time);
    let mut injector = ChaosInjector::new(FaultPlan::Scripted(vec![(0, Fault::EnergyDropout)]));

    // Invocation 0: one rejected round → profiling completes but taints.
    let mut b0 = fake();
    let mut chaos = injector.wrap(&mut b0);
    eas.schedule(7, &mut chaos);
    // Invocation 1: the taint forces a re-profile instead of reuse.
    let mut b1 = fake();
    eas.schedule(7, &mut b1);

    let records = sink.snapshot();
    assert_eq!(records[0].path, InvocationPath::Profiled);
    assert_eq!(records[0].fault_rounds, 1, "{:?}", records[0]);
    assert!(records[0].last_fault.is_some());
    assert_eq!(
        records[1].path,
        InvocationPath::Reprofiled,
        "{:?}",
        records[1]
    );
    assert_eq!(records[1].fault_rounds, 0);
    assert_eq!(sink.metrics().reprofiled.get(), 1);
    assert_eq!(sink.metrics().fault_rounds.get(), 1);
}

#[test]
fn disabled_telemetry_is_behavior_identical() {
    let mut plain = EasScheduler::new(flat_model(50.0), EasConfig::new(Objective::Time));
    let (mut traced, sink) = instrumented(Objective::Time);

    for kernel in [7, 7, 8] {
        let mut a = fake();
        plain.schedule(kernel, &mut a);
        let mut b = fake();
        traced.schedule(kernel, &mut b);
        assert_eq!(a.log, b.log, "identical backend traffic for {kernel}");
    }
    assert_eq!(plain.learned_alpha(7), traced.learned_alpha(7));
    assert_eq!(plain.learned_alpha(8), traced.learned_alpha(8));
    assert_eq!(plain.decisions(), traced.decisions());
    assert_eq!(plain.decision_log(), traced.decision_log());
    assert_eq!(sink.recorded(), 3, "the sink saw every invocation");
}

#[test]
fn shared_streams_interleave_into_one_sink() {
    const STREAMS: usize = 4;
    const INVOCATIONS: usize = 8;
    let sink = Arc::new(RingSink::with_capacity(1024));
    let mut eas = EasScheduler::new(flat_model(50.0), EasConfig::new(Objective::Time));
    eas.set_telemetry(Some(sink.clone()));
    let shared = eas.into_shared();
    assert!(shared.telemetry().is_some());

    std::thread::scope(|s| {
        for stream in 0..STREAMS {
            let shared = Arc::clone(&shared);
            s.spawn(move || {
                let mut handle = shared.handle();
                for i in 0..INVOCATIONS {
                    let mut b = fake();
                    handle.schedule((stream * INVOCATIONS + i) as u64, &mut b);
                    assert_eq!(b.remaining(), 0);
                }
            });
        }
    });

    let total = (STREAMS * INVOCATIONS) as u64;
    assert_eq!(sink.recorded(), total);
    assert_eq!(sink.dropped(), 0);
    let records = sink.snapshot();
    assert_eq!(records.len(), total as usize);
    let seqs: HashSet<u64> = records.iter().map(|r| r.seq).collect();
    assert_eq!(seqs.len(), records.len(), "one unique seq per invocation");
    // Every kernel was first-seen on its own stream: all profiled.
    assert!(records
        .iter()
        .all(|r| r.path == InvocationPath::Profiled && (r.alpha - 0.7).abs() < 1e-9));
    assert_eq!(sink.metrics().invocations.get(), total);
    let expo = sink.metrics().expose();
    assert!(expo.contains("easched_invocations_total"), "{expo}");
}
