//! The multi-tenant overload frontend: admission control, backpressure,
//! and brownout degradation in front of a shared scheduler (DESIGN.md
//! §13).
//!
//! [`TenantFrontend`] composes the deterministic
//! [`AdmissionController`] — per-
//! tenant bounded queues, weighted fair-share draining, quota windows,
//! and the three-rung brownout ladder — with an [`Arc<SharedEas>`]: every
//! request that survives admission executes through the shared table
//! under an [`InvocationCtx`] derived from the current brownout rung and
//! the tenant's deadline budget. Admission outcomes are folded into the
//! scheduler's [`HealthReport`](crate::HealthReport) counters and, when a
//! telemetry sink is attached, emitted as
//! [`ControlEvent`]s so Prometheus
//! exposure carries per-tenant shed/queue/quota series.
//!
//! The frontend adds nothing to the single-tenant fast path: a
//! [`SharedEas`] driven directly (no frontend) never constructs a
//! non-default ctx and takes the exact pre-tenancy code path.

use crate::shared::SharedEas;
use easched_runtime::{
    AdmissionConfig, AdmissionController, AdmissionOutcome, Backend, BrownoutLevel,
    ConcurrentScheduler, InvocationCtx, KernelId, TenantRegistry, TenantStats,
};
use easched_telemetry::{ControlEvent, SloEvent, SloTracker, Span, SpanKind};
use std::sync::{Arc, Mutex, PoisonError};

/// One request handed out by
/// [`drain_detailed`](TenantFrontend::drain_detailed): the admission
/// detail plus the causal trace allocated for it (0 when span tracing is
/// off). Build its execution context with
/// [`ctx_for_request`](TenantFrontend::ctx_for_request) so the
/// scheduler's spans land on the same trace as the admission subtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmittedRequest {
    /// Owning tenant's registry index.
    pub tenant: usize,
    /// Ticket assigned at offer time.
    pub ticket: u64,
    /// Full ticks the request queued between offer and drain.
    pub waited_ticks: u64,
    /// Causal trace id, or 0 when tracing is disabled.
    pub trace: u64,
}

/// A multi-tenant admission frontend over one shared scheduler.
///
/// All admission state sits behind one mutex — admission is a few integer
/// operations per request, orders of magnitude cheaper than the kernel
/// executions it gates, so contention here is never the bottleneck.
/// Kernel execution itself ([`schedule`](TenantFrontend::schedule)) runs
/// *outside* the lock: streams still scale with the shared table's
/// reader parallelism.
#[derive(Debug)]
pub struct TenantFrontend {
    shared: Arc<SharedEas>,
    admission: Mutex<AdmissionController>,
    slo: Option<Arc<SloTracker>>,
}

impl TenantFrontend {
    /// A frontend over `shared` admitting the given tenants.
    pub fn new(
        shared: Arc<SharedEas>,
        registry: TenantRegistry,
        cfg: AdmissionConfig,
    ) -> TenantFrontend {
        TenantFrontend {
            shared,
            admission: Mutex::new(AdmissionController::new(registry, cfg)),
            slo: None,
        }
    }

    /// Attaches an SLO burn-rate tracker (builder form): offers, drains,
    /// and [`observe_request_edp`](Self::observe_request_edp) feed it,
    /// and fired alerts are echoed as
    /// [`ControlEvent::SloBreach`](easched_telemetry::ControlEvent)
    /// control events.
    pub fn with_slo(mut self, slo: Arc<SloTracker>) -> TenantFrontend {
        self.slo = Some(slo);
        self
    }

    /// The attached SLO tracker, if any.
    pub fn slo(&self) -> Option<&Arc<SloTracker>> {
        self.slo.as_ref()
    }

    /// The scheduler behind this frontend.
    pub fn shared(&self) -> &Arc<SharedEas> {
        &self.shared
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, AdmissionController> {
        // Admission state stays consistent under poisoning: every mutation
        // completes before the lock drops, and one panicked tenant thread
        // must not deny service to the rest.
        self.admission
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn emit(&self, event: ControlEvent) {
        if let Some(sink) = self.shared.telemetry() {
            sink.control(&event);
        }
    }

    /// Echoes a fired SLO alert into the control-event stream. The full
    /// event (burn rates, exemplar offset) stays queryable on the
    /// tracker; the control event is the metrics-exposure hook.
    fn fire(&self, event: Option<SloEvent>) {
        if let Some(e) = event {
            self.emit(ControlEvent::SloBreach {
                tenant: e.tenant,
                signal: e.kind.code(),
            });
        }
    }

    /// The current `RunLog` offset of the attached sink (0 without a
    /// recording sink) — the exemplar SLO events carry.
    fn log_offset(&self) -> u64 {
        self.shared.telemetry().map_or(0, |s| s.offset())
    }

    /// Offers one request for `tenant`, returning the typed admission
    /// outcome — never an unbounded enqueue. Sheds, queues, and quota
    /// denials are counted in the scheduler's health report and emitted
    /// as control events (overload protection is adaptation, not a
    /// fault: `fault_free()` is undisturbed).
    pub fn offer(&self, tenant: usize) -> AdmissionOutcome {
        let (outcome, quota_denied, tick) = {
            let mut adm = self.lock();
            let before = adm.tenant_stats(tenant).quota_denials;
            let outcome = adm.offer(tenant);
            (
                outcome,
                adm.tenant_stats(tenant).quota_denials > before,
                adm.tick(),
            )
        };
        if let Some(slo) = &self.slo {
            let shed = matches!(outcome, AdmissionOutcome::Shed { .. });
            self.fire(slo.observe_shed(tenant as u64, shed, tick as f64, self.log_offset()));
        }
        let stats = &self.shared.health_state().stats;
        match outcome {
            AdmissionOutcome::Admit { .. } => {}
            AdmissionOutcome::Queue { .. } => {
                stats.note_request_queued();
                self.emit(ControlEvent::RequestQueued {
                    tenant: tenant as u64,
                });
            }
            AdmissionOutcome::Shed { .. } => {
                if quota_denied {
                    stats.note_quota_denial();
                    self.emit(ControlEvent::QuotaDenied {
                        tenant: tenant as u64,
                    });
                }
                stats.note_request_shed();
                self.emit(ControlEvent::RequestShed {
                    tenant: tenant as u64,
                });
            }
        }
        outcome
    }

    /// Pops up to `slots` queued requests in weighted fair-share order;
    /// each entry is `(tenant, ticket)`.
    pub fn drain(&self, slots: usize) -> Vec<(usize, u64)> {
        self.drain_detailed(slots)
            .into_iter()
            .map(|r| (r.tenant, r.ticket))
            .collect()
    }

    /// [`drain`](Self::drain) with the observability plane attached: each
    /// drained request reports its queue wait, gets a causal trace
    /// allocated (when the sink traces spans) with its admission subtree
    /// — `admit` rooting a `queue-wait` child — already published, and
    /// feeds the queue-wait SLO signal.
    pub fn drain_detailed(&self, slots: usize) -> Vec<AdmittedRequest> {
        let (drained, tick) = {
            let mut adm = self.lock();
            let drained = adm.drain_detailed(slots);
            (drained, adm.tick())
        };
        if drained.is_empty() {
            return Vec::new();
        }
        let sink = self.shared.telemetry();
        let tracing = sink.as_ref().is_some_and(|s| s.wants_spans());
        let offset = self.log_offset();
        drained
            .into_iter()
            .map(|d| {
                let mut trace = 0;
                if tracing {
                    let sink = sink.expect("tracing implies a sink");
                    trace = sink.next_trace();
                    if trace != 0 {
                        let wait = d.waited_ticks as f64;
                        let mut spans = [
                            Span {
                                id: 1,
                                kind: SpanKind::Admit,
                                tenant: d.tenant as u16,
                                dur: wait,
                                payload: d.ticket as f64,
                                ..Span::default()
                            },
                            Span {
                                id: 2,
                                parent: 1,
                                kind: SpanKind::QueueWait,
                                tenant: d.tenant as u16,
                                dur: wait,
                                payload: d.waited_ticks as f64,
                                ..Span::default()
                            },
                        ];
                        sink.span_batch(trace, &mut spans);
                    }
                }
                if let Some(slo) = &self.slo {
                    self.fire(slo.observe_queue_wait(
                        d.tenant as u64,
                        d.waited_ticks as f64,
                        tick as f64,
                        offset,
                    ));
                }
                AdmittedRequest {
                    tenant: d.tenant,
                    ticket: d.ticket,
                    waited_ticks: d.waited_ticks,
                    trace,
                }
            })
            .collect()
    }

    /// Feeds one executed request's predicted and realized EDP into the
    /// SLO engine (the scheduler-visible pair, so record and replay feed
    /// identical streams). No-op without a tracker.
    pub fn observe_request_edp(&self, tenant: usize, predicted: f64, realized: f64) {
        if let Some(slo) = &self.slo {
            let tick = self.lock().tick();
            self.fire(slo.observe_edp(
                tenant as u64,
                predicted,
                realized,
                tick as f64,
                self.log_offset(),
            ));
        }
    }

    /// Debits `gpu_seconds` of GPU-proxy time against the tenant's quota
    /// window and fair-share debt, after its request executed.
    pub fn complete(&self, tenant: usize, gpu_seconds: f64) {
        self.lock().complete(tenant, gpu_seconds);
    }

    /// Feeds one simulated package-power sample to the brownout ladder.
    /// A rung change is counted and emitted; requests flushed by a
    /// shed-load entry are counted as sheds.
    pub fn observe_power(&self, watts: f64) -> Option<(BrownoutLevel, BrownoutLevel)> {
        let transition = self.lock().observe_power(watts);
        let (from, to, flushed) = transition?;
        let stats = &self.shared.health_state().stats;
        stats.note_brownout_transition();
        self.emit(ControlEvent::Brownout { level: to.code() });
        for _ in 0..flushed {
            stats.note_request_shed();
        }
        Some((from, to))
    }

    /// Advances the admission clock one tick (quota windows and shed
    /// retry horizons are measured in ticks).
    pub fn advance_tick(&self) {
        self.lock().advance_tick();
    }

    /// The invocation context a drained request for `tenant` must execute
    /// under right now: the brownout rung's GPU policy plus the tenant's
    /// deadline budget.
    pub fn ctx_for(&self, tenant: usize) -> InvocationCtx {
        self.lock().ctx_for(tenant)
    }

    /// [`ctx_for`](Self::ctx_for) bound to a drained request's trace, so
    /// the execution subtree lands on the same trace as its admission
    /// spans.
    pub fn ctx_for_request(&self, req: &AdmittedRequest) -> InvocationCtx {
        let mut ctx = self.ctx_for(req.tenant);
        ctx.trace = req.trace;
        ctx
    }

    /// The ladder's current rung.
    pub fn level(&self) -> BrownoutLevel {
        self.lock().level()
    }

    /// The ladder's smoothed package-power estimate, watts (`None`
    /// before the first sample).
    pub fn power_ewma(&self) -> Option<f64> {
        self.lock().power_ewma()
    }

    /// The worst relative fair-share deficit across eligible tenants
    /// (the ci gate asserts ≤ 5 % under the overload storm).
    pub fn fair_share_deficit(&self) -> f64 {
        self.lock().fair_share_deficit()
    }

    /// Whether every queue respects its tenant's bound (an invariant —
    /// `false` is a bug).
    pub fn queues_bounded(&self) -> bool {
        self.lock().queues_bounded()
    }

    /// A tenant's admission counters.
    pub fn tenant_stats(&self, tenant: usize) -> TenantStats {
        self.lock().tenant_stats(tenant)
    }

    /// Executes one admitted request through the shared scheduler under
    /// the tenant's current context. The admission lock is *not* held
    /// during execution.
    pub fn schedule(&self, tenant: usize, kernel: KernelId, backend: &mut dyn Backend) {
        let ctx = self.ctx_for(tenant);
        self.shared.schedule_shared_ctx(kernel, backend, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::WorkloadClass;
    use crate::eas::{EasConfig, EasScheduler};
    use crate::objective::Objective;
    use crate::power_model::{PowerCurve, PowerModel};
    use easched_num::Polynomial;
    use easched_runtime::backend::test_support::FakeBackend;
    use easched_runtime::TenantSpec;
    use easched_telemetry::{RingSink, SloKind, TelemetrySink};

    fn flat_model(watts: f64) -> PowerModel {
        let curves = WorkloadClass::all()
            .into_iter()
            .map(|c| PowerCurve::new(c, Polynomial::constant(watts), 0.0, 11))
            .collect();
        PowerModel::new("flat", curves)
    }

    fn frontend(sink: Option<Arc<RingSink>>) -> TenantFrontend {
        let mut eas = EasScheduler::new(flat_model(50.0), EasConfig::new(Objective::Time));
        eas.set_telemetry(sink.map(|s| s as Arc<dyn TelemetrySink>));
        let shared = eas.into_shared();
        let registry = TenantRegistry::new(vec![
            TenantSpec::new("a", 1.0).with_queue_cap(2),
            TenantSpec::new("b", 3.0).with_queue_cap(2),
        ]);
        TenantFrontend::new(shared, registry, AdmissionConfig::default())
    }

    #[test]
    fn outcomes_feed_health_counters_not_fault_free() {
        let f = frontend(None);
        assert!(matches!(f.offer(0), AdmissionOutcome::Admit { .. }));
        assert!(matches!(f.offer(0), AdmissionOutcome::Queue { .. }));
        assert!(matches!(f.offer(0), AdmissionOutcome::Shed { .. }));
        let report = f.shared().health();
        assert_eq!(report.requests_queued, 1);
        assert_eq!(report.requests_shed, 1);
        assert_eq!(report.quota_denials, 0);
        assert!(report.fault_free(), "overload protection is not a fault");
    }

    #[test]
    fn control_events_reach_the_sink() {
        let sink = Arc::new(RingSink::default());
        let f = frontend(Some(Arc::clone(&sink)));
        for _ in 0..3 {
            f.offer(1);
        }
        assert_eq!(sink.metrics().requests_queued.get(), 1);
        assert_eq!(sink.metrics().requests_shed.get(), 1);
        assert_eq!(sink.metrics().tenant_sheds(), vec![(1, 1)]);
    }

    #[test]
    fn admitted_requests_execute_through_the_shared_table() {
        let f = frontend(None);
        assert!(matches!(f.offer(0), AdmissionOutcome::Admit { .. }));
        let drained = f.drain(4);
        assert_eq!(drained.len(), 1);
        let (tenant, _ticket) = drained[0];
        let mut b = FakeBackend::new(100_000, 1.0e6, 2.0e6);
        f.schedule(tenant, 7, &mut b);
        f.complete(tenant, 0.5);
        assert!(f.shared().learned_alpha(7).is_some());
        assert!(f.queues_bounded());
        assert!(f.tenant_stats(0).gpu_seconds > 0.0);
    }

    #[test]
    fn drained_requests_carry_traces_and_publish_admission_spans() {
        let sink = Arc::new(RingSink::with_capacity(256).with_span_tracing(256, 0xFEED));
        let f = frontend(Some(Arc::clone(&sink)));
        assert!(matches!(f.offer(0), AdmissionOutcome::Admit { .. }));
        f.advance_tick();
        f.advance_tick();
        let drained = f.drain_detailed(4);
        assert_eq!(drained.len(), 1);
        let req = drained[0];
        assert_ne!(req.trace, 0, "tracing sink allocates a trace");
        assert_eq!(req.waited_ticks, 2);

        let spans = sink.span_snapshot();
        assert_eq!(spans.len(), 2, "admit + queue-wait");
        assert_eq!(spans[0].kind, SpanKind::Admit);
        assert_eq!(spans[1].kind, SpanKind::QueueWait);
        assert!(spans.iter().all(|s| s.trace == req.trace));
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[1].payload, 2.0, "waited ticks ride as payload");
        assert_eq!(spans[0].tenant, 0);

        // Executing under the request's ctx chains the decide subtree
        // onto the same trace, after the queue wait.
        let ctx = f.ctx_for_request(&req);
        assert_eq!(ctx.trace, req.trace);
        let mut b = FakeBackend::new(100_000, 1.0e6, 2.0e6);
        f.shared().schedule_shared_ctx(7, &mut b, ctx);
        let spans = sink.span_snapshot();
        assert!(spans.len() > 2, "execution subtree published");
        assert!(spans.iter().all(|s| s.trace == req.trace));
        let decide = spans.iter().find(|s| s.kind == SpanKind::Decide).unwrap();
        assert!(decide.start >= 2.0, "execution starts after the queue wait");
        assert!(spans.iter().any(|s| s.kind == SpanKind::Fold));
        assert_eq!(decide.tenant, 0, "ctx tenant labels the execution spans");
    }

    #[test]
    fn untraced_sink_allocates_no_traces_and_no_spans() {
        let sink = Arc::new(RingSink::default());
        let f = frontend(Some(Arc::clone(&sink)));
        f.offer(0);
        let drained = f.drain_detailed(4);
        assert_eq!(drained[0].trace, 0);
        assert!(sink.span_sink().is_none());
    }

    #[test]
    fn sustained_sheds_fire_an_slo_breach_control_event() {
        let sink = Arc::new(RingSink::default());
        let slo = Arc::new(SloTracker::default());
        let f = {
            let mut eas = EasScheduler::new(flat_model(50.0), EasConfig::new(Objective::Time));
            eas.set_telemetry(Some(Arc::clone(&sink) as Arc<dyn TelemetrySink>));
            let shared = eas.into_shared();
            let registry = TenantRegistry::new(vec![TenantSpec::new("a", 1.0).with_queue_cap(1)]);
            TenantFrontend::new(shared, registry, AdmissionConfig::default())
                .with_slo(Arc::clone(&slo))
        };
        // Queue cap 1 and no drains: every offer past the first sheds.
        // 100 % shed rate burns 10× the 10 % budget in both windows.
        for _ in 0..64 {
            f.offer(0);
        }
        let events = slo.events();
        assert!(!events.is_empty(), "sustained sheds must fire");
        assert_eq!(events[0].kind, SloKind::ShedRate);
        assert_eq!(sink.metrics().slo_breaches.get(), events.len() as u64);
        assert_eq!(
            sink.metrics().tenant_slo_breaches(),
            vec![(0, events.len() as u64)]
        );
    }

    #[test]
    fn brownout_transition_is_counted_and_shapes_ctx() {
        let f = frontend(None);
        // Default budget 45 W, enter margin 1.0, streak 3: sustained
        // 90 W drives the ladder up one rung.
        assert!(f.observe_power(90.0).is_none());
        assert!(f.observe_power(90.0).is_none());
        let t = f.observe_power(90.0);
        assert_eq!(t, Some((BrownoutLevel::Normal, BrownoutLevel::DenyGpu)));
        assert_eq!(f.level(), BrownoutLevel::DenyGpu);
        assert_eq!(f.shared().health().brownout_transitions, 1);
        let ctx = f.ctx_for(0);
        assert_ne!(ctx, InvocationCtx::default());
    }
}
