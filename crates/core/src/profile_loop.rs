//! The per-invocation Figure 7 control flow, as `&self` methods of the
//! scheduler core [`SharedEas`] — which both the concurrent API and the
//! exclusive [`EasScheduler`](crate::EasScheduler) adapter drive.
//!
//! This is the *observation-driven* loop: reuse a learned ratio from the
//! kernel table when one exists (steps 2–4), run tiny invocations CPU-only
//! (steps 6–10), otherwise repeat online profiling and re-decide α each
//! round (steps 11–22), then run the remainder at the decided ratio and
//! fold it into G with sample weighting (steps 23–26). The loop keeps no
//! state of its own — it reads the engine (policy), reads/writes the
//! table (memory), drives the backend (observation), and counts and logs
//! every decision on the core.
//!
//! # Fault handling (DESIGN.md §9)
//!
//! Every profiling observation is vetted by the engine's
//! [`ObservationGuard`](crate::ObservationGuard) before it can influence a
//! decision. A rejected round is retried with a *backed-off* GPU chunk
//! (halved per consecutive rejection) up to
//! [`FaultPolicy::max_retries`](crate::FaultPolicy); past the budget the
//! invocation *degrades*: it runs its remainder at the last trusted α (or
//! CPU-only if none) and learns nothing. GPU-implicating faults also feed
//! the [`CircuitBreaker`](crate::CircuitBreaker): once it trips, whole
//! invocations are gated to CPU-only until the quarantine is served and a
//! probe invocation finds the GPU healthy again. Any invocation that saw a
//! fault taints the kernel's table entry, forcing a re-profile on the next
//! reuse. On a healthy platform none of these paths activate and the loop
//! is behavior-identical to the unguarded original.
//!
//! # Telemetry (DESIGN.md §10)
//!
//! With a [`TelemetrySink`] attached, the loop emits one
//! [`DecisionRecord`] per invocation: the backend is wrapped in an
//! [`InstrumentedBackend`] that totals what each phase observed, the
//! vet+decide path is wall-clock timed, and the exit path tags which
//! Figure 7 branch ran. With no sink (the default) none of that exists —
//! the backend is driven directly and the only residue is a handful of
//! dead local stores, keeping the disabled path behavior-identical
//! *and* cost-identical to the pre-telemetry loop.

use crate::eas::Decision;
use crate::engine::DecisionEngine;
use crate::guard::FaultKind;
use crate::health::{BreakerGate, Health};
use crate::selfheal::DriftAction;
use crate::shared::SharedEas;
use easched_runtime::telemetry::InstrumentedBackend;
use easched_runtime::{Backend, Clock, GpuPolicy, InvocationCtx, KernelId, Observation};
use easched_telemetry::{
    ControlEvent, DecisionRecord, InvocationPath, Span, SpanKind, TelemetrySink,
};

/// What `drive` learned about the invocation, for record construction.
struct InvocationSummary {
    path: InvocationPath,
    last: Option<Decision>,
    rounds: u32,
    fault_rounds: u32,
    last_fault: Option<FaultKind>,
    /// The α the remainder actually executed at.
    alpha: f64,
    decide_nanos: u64,
}

impl InvocationSummary {
    fn new(path: InvocationPath, alpha: f64) -> InvocationSummary {
        InvocationSummary {
            path,
            last: None,
            rounds: 0,
            fault_rounds: 0,
            last_fault: None,
            alpha,
            decide_nanos: 0,
        }
    }
}

/// Nanoseconds elapsed on `clock` since `started` (clamped at zero).
fn elapsed_nanos(clock: &dyn Clock, started: f64) -> u64 {
    ((clock.now() - started).max(0.0) * 1.0e9) as u64
}

/// Emits a control-loop event when a sink is attached (no-op otherwise).
fn emit(sink: Option<&dyn TelemetrySink>, event: &ControlEvent) {
    if let Some(sink) = sink {
        sink.control(event);
    }
}

impl SharedEas {
    /// Executes one kernel invocation under the EAS policy.
    ///
    /// Every profiling-round α decision is counted and logged, in order.
    /// With a telemetry sink, one [`DecisionRecord`] is emitted after the
    /// invocation completes; with none the loop runs the exact
    /// untelemetered path.
    pub(crate) fn schedule_invocation(
        &self,
        kernel: KernelId,
        backend: &mut dyn Backend,
        ctx: InvocationCtx,
    ) {
        let sink = self.telemetry.as_deref();
        match sink {
            None => {
                self.drive(kernel, backend, ctx);
            }
            Some(sink) => {
                let items = backend.remaining();
                let mut instrumented = InstrumentedBackend::new(backend);
                if let Some(summary) = self.drive(kernel, &mut instrumented, ctx) {
                    let record = build_record(
                        &self.engine,
                        &self.health,
                        kernel,
                        items,
                        &instrumented,
                        summary,
                    );
                    sink.record(&record);
                    if sink.wants_spans() {
                        emit_invocation_spans(sink, kernel, ctx, &record, &instrumented);
                    }
                }
            }
        }
        if let Some(store) = self.store.as_deref() {
            // Deduplicated inside the store: only actual transitions append.
            store.record_breaker(self.health.breaker.state());
            // Storage faults the store absorbed this invocation surface as
            // control events — never as decision records, so fault-free runs
            // and chaos runs record byte-identical rings (DESIGN.md §16).
            if store.has_events() {
                for ev in store.take_events() {
                    emit(
                        sink,
                        &ControlEvent::StorageFault {
                            kind: ev.kind.code(),
                            degraded: store.is_degraded(),
                        },
                    );
                }
            }
        }
    }

    /// The §11 post-split control hook, shared by every path that executed a
    /// chunk: first the watchdog checks the chunk against its hard deadline —
    /// an overrun taints the entry and feeds the breaker exactly like a hung
    /// profiling round — then, when the split is drift-eligible (`drift`
    /// carries the predicted EDP and item count), its realized EDP is folded
    /// into the kernel's drift EWMA and the monitor's verdict is acted on:
    /// a `Reprofile` taints the entry so the next invocation re-profiles, a
    /// `Suppressed` only counts (the token bucket was empty). Implausible
    /// observations are vetted out before they can steer the loop, so none
    /// of the §9 fault signatures ever reach the drift monitor.
    fn after_split(
        &self,
        kernel: KernelId,
        obs: &Observation,
        deadline: Option<f64>,
        drift: Option<(Option<f64>, u64)>,
    ) {
        let (engine, table, health) = (&self.engine, &self.table, &self.health);
        let (sink, store) = (self.telemetry.as_deref(), self.store.as_deref());
        if health
            .watchdog()
            .split_overrun_within(obs.elapsed, deadline)
        {
            health.stats.note_split_overrun();
            emit(
                sink,
                &ControlEvent::SplitOverrun {
                    kernel,
                    elapsed: obs.elapsed,
                },
            );
            // A chunk that busted its hard deadline implicates the GPU the
            // same way a hung profiling round does, and the learned ratio it
            // ran under is suspect — re-profile before the next reuse.
            if health.breaker.record_gpu_fault() {
                health.stats.note_trip();
            }
            table.taint(kernel);
            if let Some(store) = store {
                store.record_taint(kernel);
            }
            return;
        }
        let Some((predicted_edp, items)) = drift else {
            return;
        };
        if engine.vet(obs).is_err() {
            return; // §9 territory: faults must not steer the drift loop
        }
        let realized_edp = obs.energy_joules * obs.elapsed;
        let Some(outcome) = health
            .drift()
            .observe(kernel, predicted_edp, realized_edp, items)
        else {
            return;
        };
        emit(
            sink,
            &ControlEvent::Drift {
                kernel,
                ewma: outcome.ewma,
            },
        );
        match outcome.action {
            DriftAction::Observed => {}
            DriftAction::Reprofile => {
                // Adaptation, not a fault: the entry goes stale so the next
                // invocation re-profiles, but `fault_free()` stays true.
                health.stats.note_drift_reprofile();
                table.taint(kernel);
                if let Some(store) = store {
                    store.record_taint(kernel);
                }
                emit(
                    sink,
                    &ControlEvent::Reprofile {
                        kernel,
                        ewma: outcome.ewma,
                    },
                );
            }
            DriftAction::Suppressed => {
                health.stats.note_reprofile_suppressed();
                emit(sink, &ControlEvent::ReprofileSuppressed { kernel });
            }
        }
    }

    /// The Figure 7 control flow proper. Returns `None` for empty
    /// invocations (nothing ran, nothing to record). The decide timer — read
    /// from `clock`, wall by default, deterministic under record/replay —
    /// runs only when a sink is attached (only the telemetry path pays for
    /// it); `store`, when present, journals every table mutation so the
    /// invocation's learning survives a crash (DESIGN.md §11).
    fn drive(
        &self,
        kernel: KernelId,
        backend: &mut dyn Backend,
        ctx: InvocationCtx,
    ) -> Option<InvocationSummary> {
        let (engine, table, health) = (&self.engine, &self.table, &self.health);
        let (sink, store) = (self.telemetry.as_deref(), self.store.as_deref());
        let clock = self.clock.as_ref();
        let timed = sink.is_some();
        let n = backend.remaining();
        if n == 0 {
            return None;
        }
        let profile_size = backend.gpu_profile_size();
        let config = engine.config();

        // Overload gate (DESIGN.md §13): an admission context that denies the
        // GPU outright runs the whole invocation CPU-only and learns nothing —
        // the same shape as a quarantined invocation, but driven by the
        // brownout ladder rather than the breaker, so the breaker's quarantine
        // countdown is not consumed and no probe is wasted on a request that
        // was never going to touch the GPU.
        if ctx.gpu == GpuPolicy::Deny {
            health.stats.note_throttled();
            backend.run_split(0.0);
            return Some(InvocationSummary::new(InvocationPath::Throttled, 0.0));
        }

        // §9 gate: with the breaker open the GPU is quarantined — run the
        // whole invocation CPU-only and learn nothing (a ratio learned during
        // an outage would poison the table for the healthy future). A `Probe`
        // gate falls through to profiling but skips table reuse, so the GPU is
        // actually exercised and a clean observation can close the breaker.
        let probing = match health.breaker.gate() {
            BreakerGate::Normal => false,
            BreakerGate::Probe => {
                health.stats.note_probe();
                true
            }
            BreakerGate::CpuOnly => {
                health.stats.note_quarantined();
                backend.run_split(0.0);
                return Some(InvocationSummary::new(InvocationPath::Quarantined, 0.0));
            }
        };

        // Steps 2–4: reuse the learned ratio for known kernels (unless a
        // periodic re-profile is due, or the entry is tainted by an earlier
        // faulty invocation). The small-N guard of steps 6–8 still applies on
        // this path: an invocation too small to fill the GPU runs on the CPU
        // regardless of the learned ratio — offloading a sub-occupancy sliver
        // would waste both time and energy (this is the reason the guard
        // exists, and it matters for cascade-style kernels like FD whose
        // invocation sizes swing by orders of magnitude).
        let mut reprofiling = false;
        if !probing {
            if let Some(probe) = table.note_reuse(kernel) {
                // DenyNew (brownout stage 1) suppresses a due re-profile: the
                // learned ratio is still served, but no *new* GPU profiling
                // work starts while the package is hot.
                let due_reprofile = (probe.tainted
                    || config
                        .reprofile_every
                        .is_some_and(|k| probe.invocations_seen % k == 0))
                    && n >= profile_size
                    && ctx.gpu == GpuPolicy::Allow;
                if !due_reprofile {
                    let alpha = if n < profile_size { 0.0 } else { probe.alpha };
                    let obs = backend.run_split(alpha);
                    // Reused ratios are exactly what the drift monitor guards:
                    // no profiling round re-validated them this invocation.
                    // Sub-occupancy slivers ran CPU-only regardless of the
                    // learned ratio, so they carry no drift signal.
                    let drift = (n >= profile_size).then_some((None, n));
                    self.after_split(kernel, &obs, ctx.deadline, drift);
                    return Some(InvocationSummary::new(InvocationPath::TableHit, alpha));
                }
                // Fall through to a fresh profiling pass that re-accumulates.
                reprofiling = true;
            }
        }

        // Steps 6–10: tiny invocations cannot fill the GPU — CPU alone.
        if n < profile_size {
            let obs = backend.run_split(0.0);
            table.accumulate(kernel, 0.0, n as f64, config.accumulation);
            if let Some(store) = store {
                store.record_entry(table, kernel);
            }
            // Watchdog only: a CPU-only sliver carries no drift signal, but a
            // hung chunk still has to be caught. Ordered after the accumulate
            // so an overrun's taint is not immediately cleared by it.
            self.after_split(kernel, &obs, ctx.deadline, None);
            return Some(InvocationSummary::new(InvocationPath::SmallN, 0.0));
        }

        // DenyNew with nothing to reuse: profiling would be fresh GPU work,
        // which brownout stage 1 forbids — run CPU-only and learn nothing (a
        // ratio learned under a denied GPU would poison the table, exactly as
        // during a quarantine).
        if ctx.gpu != GpuPolicy::Allow {
            health.stats.note_throttled();
            backend.run_split(0.0);
            return Some(InvocationSummary::new(InvocationPath::Throttled, 0.0));
        }

        // Steps 11–22: repeat profiling for `profile_fraction` of the
        // iterations, re-deciding α each round. Rejected rounds are retried
        // with a backed-off chunk; sustained rejection degrades the
        // invocation.
        let profile_until = ((n as f64) * (1.0 - config.profile_fraction)) as u64;
        // Fleet warm start (DESIGN.md §15): a ratio the same kernel learned
        // on another platform narrows the α search window. Profiling still
        // runs in full — the prior is a hint, never truth — the minimizer
        // just searches near the foreign optimum at finer resolution. With
        // no fleet attached the map is empty and this path is byte-identical
        // to the unprimed loop.
        let prior = table.prior(kernel);
        let mut alpha = 0.0;
        let mut alpha_weight = 0.0;
        let mut streak = 0usize;
        let mut rejected_streak: u32 = 0;
        let mut faulty_rounds: u64 = 0;
        let mut gave_up = false;
        let mut rounds: u32 = 0;
        let mut last = None;
        let mut last_fault = None;
        let mut decide_nanos: u64 = 0;
        while backend.remaining() > profile_until.max(profile_size) {
            let before = backend.remaining();
            // Bounded backoff: each consecutive rejection halves the chunk so
            // a misbehaving device wastes geometrically less work per retry.
            let chunk = (profile_size >> rejected_streak.min(16)).max(1);
            let obs = backend.profile_step(chunk);
            let consumed = before - backend.remaining();
            if consumed == 0 {
                break; // safety: no progress (degenerate backend)
            }
            let started = timed.then(|| clock.now());
            // §11 watchdog: a profiling round that busted its hard deadline is
            // cancelled — typed as a fault so it rides the same rejection path
            // (backed-off retry, breaker escalation, degradation) as the §9
            // signatures, which the vet below would let through: a hung round
            // can report perfectly plausible rates.
            let vetted = if health
                .watchdog()
                .profile_overrun_within(obs.elapsed, ctx.deadline)
            {
                health.stats.note_watchdog_trip();
                emit(
                    sink,
                    &ControlEvent::ProfileDeadline {
                        kernel,
                        elapsed: obs.elapsed,
                    },
                );
                Err(FaultKind::DeadlineExceeded)
            } else {
                engine.vet(&obs)
            };
            if let Err(fault) = vetted {
                if let Some(t) = started {
                    decide_nanos += elapsed_nanos(clock, t);
                }
                last_fault = Some(fault);
                health.stats.note_rejected();
                faulty_rounds += 1;
                if fault.implicates_gpu() && health.breaker.record_gpu_fault() {
                    health.stats.note_trip();
                }
                if health.breaker.is_open() || rejected_streak >= config.fault.max_retries {
                    gave_up = true;
                    break;
                }
                rejected_streak += 1;
                health.stats.note_retry();
                continue;
            }
            health.stats.note_accepted();
            if obs.gpu_items > 0 && health.breaker.record_clean_gpu() {
                health.stats.note_recovery();
            }
            rejected_streak = 0;
            let decision = engine.decide_with_prior(kernel, &obs, backend.remaining(), prior);
            if let Some(t) = started {
                decide_nanos += elapsed_nanos(clock, t);
            }
            rounds += 1;
            last = Some(decision);
            let decided = decision.alpha;
            self.note_decision(decision);
            streak = if (decided - alpha).abs() < 1e-9 && alpha_weight > 0.0 {
                streak + 1
            } else {
                1
            };
            alpha = decided;
            alpha_weight += consumed as f64;
            if config.profile_stable_rounds > 0 && streak >= config.profile_stable_rounds {
                break; // converged: stop profiling early
            }
        }

        if gave_up {
            // Degraded finish: trust the last clean decision if there was one
            // and the GPU is not implicated; otherwise fall back to CPU-only.
            health.stats.note_degraded();
            let fallback = if health.breaker.is_open() || alpha_weight <= 0.0 {
                0.0
            } else {
                alpha
            };
            if backend.remaining() > 0 {
                backend.run_split(fallback);
            }
            // Learn only what clean rounds support — and mark it suspect so
            // the next invocation re-profiles instead of reusing it.
            if alpha_weight > 0.0 && !health.breaker.is_open() {
                table.accumulate(kernel, fallback, alpha_weight, config.accumulation);
                table.taint(kernel);
                health.stats.note_taint();
                if let Some(store) = store {
                    store.record_entry(table, kernel);
                    store.record_taint(kernel);
                }
            }
            return Some(InvocationSummary {
                path: InvocationPath::Degraded,
                last,
                rounds,
                fault_rounds: faulty_rounds as u32,
                last_fault,
                alpha: fallback,
                decide_nanos,
            });
        }

        // Steps 23–25: run the remainder at the decided ratio.
        let split_obs = (backend.remaining() > 0).then(|| backend.run_split(alpha));
        // Step 26: sample-weighted accumulation into G.
        table.accumulate(
            kernel,
            alpha,
            alpha_weight.max(n as f64 * 0.5),
            config.accumulation,
        );
        if let Some(store) = store {
            store.record_entry(table, kernel);
        }
        if faulty_rounds > 0 {
            // Some rounds were rejected even though profiling finished: the
            // learned ratio rests on a suspect invocation — re-profile next
            // time rather than reuse it.
            table.taint(kernel);
            health.stats.note_taint();
            if let Some(store) = store {
                store.record_taint(kernel);
            }
        }
        if let Some(obs) = &split_obs {
            // A freshly profiled split has a model prediction to drift
            // against (P(α)·T(α)² — the same EDP form `figures telemetry`
            // reports); fold it only for clean invocations, ordered after the
            // accumulate so a drift taint survives it.
            let predicted_edp = last.filter(|_| faulty_rounds == 0).map(|d| {
                let p = engine.predict(&d);
                p.power * p.time * p.time
            });
            let items = obs.cpu_items + obs.gpu_items;
            let drift = predicted_edp.map(|edp| (Some(edp), items));
            self.after_split(kernel, obs, ctx.deadline, drift);
        }
        let path = if probing {
            InvocationPath::Probe
        } else if reprofiling {
            InvocationPath::Reprofiled
        } else {
            InvocationPath::Profiled
        };
        Some(InvocationSummary {
            path,
            last,
            rounds,
            fault_rounds: faulty_rounds as u32,
            last_fault,
            alpha,
            decide_nanos,
        })
    }
}

/// Emits the execution subtree of one invocation's trace: `decide` roots
/// the batch, with `cpu-phase` / `gpu-phase` children carrying the
/// instrumented per-phase totals and a zero-width `fold` closing it. The
/// batch uses batch-relative ids and starts; the sink rebases them onto
/// the trace's cursor, so multi-invocation requests chain their subtrees
/// end to end. A context without a trace (direct, untenanted calls)
/// allocates a fresh one from the sink's deterministic allocator.
///
/// Every duration is virtual (from the deterministic observation stream)
/// and carried bit-exact — a chaos-corrupted phase total rides through
/// as NaN rather than being sanitized away.
fn emit_invocation_spans(
    sink: &dyn TelemetrySink,
    kernel: KernelId,
    ctx: InvocationCtx,
    record: &DecisionRecord,
    backend: &InstrumentedBackend<'_>,
) {
    let trace = if ctx.trace != 0 {
        ctx.trace
    } else {
        sink.next_trace()
    };
    if trace == 0 {
        return; // sink advertises spans but has no trace allocator
    }
    let profile = backend.profile_totals();
    let split = backend.split_totals();
    let decide_dur = record.decide_nanos as f64 * 1e-9;
    let cpu_dur = profile.cpu_time + split.cpu_time;
    let gpu_dur = profile.gpu_time + split.gpu_time;
    let cpu_items = profile.cpu_items + split.cpu_items;
    let gpu_items = profile.gpu_items + split.gpu_items;
    let clamp = |d: f64| if d.is_finite() && d > 0.0 { d } else { 0.0 };
    let exec_end =
        decide_dur + clamp(cpu_dur).max(if gpu_items > 0 { clamp(gpu_dur) } else { 0.0 });
    let span = |id: u16, parent: u16, kind: SpanKind, start: f64, dur: f64, payload: f64| Span {
        seq: 0,   // assigned by the ring
        trace: 0, // rebased by the sink
        kernel,
        id,
        parent,
        kind,
        tenant: ctx.tenant,
        start,
        dur,
        payload,
    };
    let mut spans = Vec::with_capacity(4);
    spans.push(span(1, 0, SpanKind::Decide, 0.0, decide_dur, record.alpha));
    spans.push(span(
        2,
        1,
        SpanKind::CpuPhase,
        decide_dur,
        cpu_dur,
        cpu_items as f64,
    ));
    if gpu_items > 0 {
        spans.push(span(
            3,
            1,
            SpanKind::GpuPhase,
            decide_dur,
            gpu_dur,
            gpu_items as f64,
        ));
    }
    let fold_id = spans.len() as u16 + 1;
    spans.push(span(
        fold_id,
        1,
        SpanKind::Fold,
        exec_end,
        0.0,
        record.alpha,
    ));
    sink.span_batch(trace, &mut spans);
}

/// Assembles the per-invocation telemetry record: the summary's control
/// flow and decision context, the instrumented backend's per-phase
/// realized totals, the engine's model prediction at the executed α, and
/// the breaker's state after the invocation.
fn build_record(
    engine: &DecisionEngine,
    health: &Health,
    kernel: KernelId,
    items: u64,
    backend: &InstrumentedBackend<'_>,
    summary: InvocationSummary,
) -> DecisionRecord {
    // Predictions are only meaningful on paths whose final split executed
    // at the last decision's α (on a degraded path the fallback may
    // differ, so the comparison would be apples to oranges).
    let prediction = summary
        .last
        .filter(|_| summary.path.has_prediction())
        .map(|d| engine.predict(&d))
        .unwrap_or_default();
    let profile = backend.profile_totals();
    let split = backend.split_totals();
    DecisionRecord {
        seq: 0, // assigned by the sink
        kernel,
        path: summary.path,
        class: summary.last.map(|d| d.class.index() as u8),
        breaker: health.breaker().state().code(),
        last_fault: summary.last_fault.map(FaultKind::code),
        rounds: summary.rounds,
        fault_rounds: summary.fault_rounds,
        r_c: summary.last.map_or(0.0, |d| d.r_c),
        r_g: summary.last.map_or(0.0, |d| d.r_g),
        alpha: summary.alpha,
        predicted_power: prediction.power,
        predicted_time: prediction.time,
        predicted_objective: prediction.objective,
        profile_time: profile.elapsed,
        profile_energy: profile.energy_joules,
        split_time: split.elapsed,
        split_energy: split.energy_joules,
        items,
        decide_nanos: summary.decide_nanos,
    }
}
