//! Fault-handling state and telemetry: retry policy, the GPU circuit
//! breaker, and health counters.
//!
//! The profile loop consults one [`Health`] per scheduling frontend. Its
//! [`CircuitBreaker`] implements the degradation state machine (DESIGN.md
//! §9): **Closed** (normal scheduling) → after `breaker_threshold`
//! consecutive GPU-implicating faults → **Open** (the GPU is quarantined:
//! invocations run CPU-only, α = 0) → after `quarantine` invocations →
//! **HalfOpen** (one probe invocation re-profiles through the GPU) → a
//! clean probe closes the breaker (recovery), a faulty one re-opens it for
//! another quarantine period. [`HealthStats`] counts every event with
//! relaxed atomics so both the exclusive and the shared frontend can
//! report telemetry without locks.

use crate::selfheal::{DriftMonitor, DriftPolicy, Watchdog, WatchdogPolicy};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};

/// Tunable fault-handling policy, carried by
/// [`EasConfig`](crate::EasConfig).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPolicy {
    /// Consecutive rejected profiling rounds tolerated per invocation
    /// before the invocation degrades (runs its remainder without further
    /// profiling).
    pub max_retries: u32,
    /// Consecutive GPU-implicating faults that trip the circuit breaker.
    pub breaker_threshold: u32,
    /// Invocations the GPU stays quarantined (CPU-only) after a trip; the
    /// K-th invocation after the trip is the recovery probe.
    pub quarantine: u64,
}

impl Default for FaultPolicy {
    fn default() -> FaultPolicy {
        FaultPolicy {
            max_retries: 3,
            breaker_threshold: 3,
            quarantine: 8,
        }
    }
}

/// Lock-free event counters for the fault pipeline.
#[derive(Debug, Default)]
pub struct HealthStats {
    accepted: AtomicU64,
    rejected: AtomicU64,
    retries: AtomicU64,
    degraded: AtomicU64,
    trips: AtomicU64,
    probes: AtomicU64,
    recoveries: AtomicU64,
    taints: AtomicU64,
    quarantined: AtomicU64,
    drift_reprofiles: AtomicU64,
    reprofiles_suppressed: AtomicU64,
    watchdog_trips: AtomicU64,
    split_overruns: AtomicU64,
    throttled: AtomicU64,
    requests_shed: AtomicU64,
    requests_queued: AtomicU64,
    quota_denials: AtomicU64,
    brownout_transitions: AtomicU64,
}

macro_rules! note {
    ($($method:ident => $field:ident),* $(,)?) => {
        $(pub(crate) fn $method(&self) {
            self.$field.fetch_add(1, Ordering::Relaxed);
        })*
    };
}

impl HealthStats {
    note! {
        note_accepted => accepted,
        note_rejected => rejected,
        note_retry => retries,
        note_degraded => degraded,
        note_trip => trips,
        note_probe => probes,
        note_recovery => recoveries,
        note_taint => taints,
        note_quarantined => quarantined,
        note_drift_reprofile => drift_reprofiles,
        note_reprofile_suppressed => reprofiles_suppressed,
        note_watchdog_trip => watchdog_trips,
        note_split_overrun => split_overruns,
        note_throttled => throttled,
        note_request_shed => requests_shed,
        note_request_queued => requests_queued,
        note_quota_denial => quota_denials,
        note_brownout_transition => brownout_transitions,
    }

    /// A consistent-enough read of every counter, in the public
    /// reporting shape — the single point where relaxed atomics become
    /// plain integers; `Clone` and the frontends' `health()` route
    /// through it. The store counters stay zero: they live in the
    /// `TableStore`, and the frontends merge them in.
    pub fn report(&self) -> HealthReport {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        HealthReport {
            observations_accepted: load(&self.accepted),
            observations_rejected: load(&self.rejected),
            retries: load(&self.retries),
            degraded_invocations: load(&self.degraded),
            breaker_trips: load(&self.trips),
            probes: load(&self.probes),
            recoveries: load(&self.recoveries),
            taints: load(&self.taints),
            quarantined_invocations: load(&self.quarantined),
            drift_reprofiles: load(&self.drift_reprofiles),
            reprofiles_suppressed: load(&self.reprofiles_suppressed),
            watchdog_trips: load(&self.watchdog_trips),
            split_overruns: load(&self.split_overruns),
            throttled_invocations: load(&self.throttled),
            requests_shed: load(&self.requests_shed),
            requests_queued: load(&self.requests_queued),
            quota_denials: load(&self.quota_denials),
            brownout_transitions: load(&self.brownout_transitions),
            ..HealthReport::default()
        }
    }
}

impl Clone for HealthStats {
    fn clone(&self) -> HealthStats {
        let r = self.report();
        HealthStats {
            accepted: AtomicU64::new(r.observations_accepted),
            rejected: AtomicU64::new(r.observations_rejected),
            retries: AtomicU64::new(r.retries),
            degraded: AtomicU64::new(r.degraded_invocations),
            trips: AtomicU64::new(r.breaker_trips),
            probes: AtomicU64::new(r.probes),
            recoveries: AtomicU64::new(r.recoveries),
            taints: AtomicU64::new(r.taints),
            quarantined: AtomicU64::new(r.quarantined_invocations),
            drift_reprofiles: AtomicU64::new(r.drift_reprofiles),
            reprofiles_suppressed: AtomicU64::new(r.reprofiles_suppressed),
            watchdog_trips: AtomicU64::new(r.watchdog_trips),
            split_overruns: AtomicU64::new(r.split_overruns),
            throttled: AtomicU64::new(r.throttled_invocations),
            requests_shed: AtomicU64::new(r.requests_shed),
            requests_queued: AtomicU64::new(r.requests_queued),
            quota_denials: AtomicU64::new(r.quota_denials),
            brownout_transitions: AtomicU64::new(r.brownout_transitions),
        }
    }
}

/// Snapshot of [`HealthStats`] — the telemetry surfaced by
/// [`SharedEas::health`](crate::SharedEas::health), which an
/// [`EasScheduler`](crate::EasScheduler) reaches through `Deref`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthReport {
    /// Profiling observations that passed the guard.
    pub observations_accepted: u64,
    /// Profiling observations rejected as faults.
    pub observations_rejected: u64,
    /// Rejected rounds that were retried (with a backed-off chunk).
    pub retries: u64,
    /// Invocations that gave up profiling and ran degraded.
    pub degraded_invocations: u64,
    /// Times the GPU circuit breaker tripped open.
    pub breaker_trips: u64,
    /// Recovery probes attempted while half-open.
    pub probes: u64,
    /// Probes that found the GPU healthy again (breaker re-closed).
    pub recoveries: u64,
    /// Kernel-table entries marked suspect after a faulty invocation.
    pub taints: u64,
    /// Invocations forced to CPU-only by an open breaker.
    pub quarantined_invocations: u64,
    /// Re-profiles scheduled by the drift monitor (DESIGN.md §11).
    /// Adaptation, not a fault: it does not disturb
    /// [`fault_free`](HealthReport::fault_free).
    pub drift_reprofiles: u64,
    /// Drift re-profiles deferred because the global token bucket was
    /// empty.
    pub reprofiles_suppressed: u64,
    /// Profiling rounds cancelled by the watchdog deadline.
    pub watchdog_trips: u64,
    /// Chunk executions that overran the watchdog's split deadline.
    pub split_overruns: u64,
    /// Invocations forced CPU-only by their admission context (brownout
    /// or a denied GPU policy). Overload protection, not a fault: does
    /// not disturb [`fault_free`](HealthReport::fault_free).
    pub throttled_invocations: u64,
    /// Requests the admission layer shed (queue overflow, brownout
    /// stage 3). Adaptation, not a fault.
    pub requests_shed: u64,
    /// Requests the admission layer queued behind earlier arrivals.
    pub requests_queued: u64,
    /// Requests refused because a tenant's GPU quota window was spent.
    pub quota_denials: u64,
    /// Brownout-ladder rung changes (either direction).
    pub brownout_transitions: u64,
    /// Journal/snapshot I/O failures absorbed by the table store
    /// (DESIGN.md §16). Reduced durability, not reduced scheduling
    /// fidelity: excluded from [`fault_free`](HealthReport::fault_free).
    pub store_io_errors: u64,
    /// 1 while the table store is in degrade-to-memory mode, else 0.
    /// Excluded from [`fault_free`](HealthReport::fault_free).
    pub store_degraded: u64,
    /// Bytes the table store successfully persisted (journal lines and
    /// snapshots).
    pub store_bytes: u64,
}

/// Fold a [`StoreHealth`](crate::journal::StoreHealth) snapshot into a
/// report. The scheduler frontends call this so `health()` carries the
/// store counters without the store writing into `HealthStats`.
pub(crate) fn merge_store_health(report: &mut HealthReport, s: crate::journal::StoreHealth) {
    report.store_io_errors = s.io_errors;
    report.store_degraded = u64::from(s.degraded);
    report.store_bytes = s.bytes_written;
}

impl HealthReport {
    /// True when no fault was ever observed (the clean-path invariant).
    pub fn fault_free(&self) -> bool {
        self.observations_rejected == 0
            && self.retries == 0
            && self.degraded_invocations == 0
            && self.breaker_trips == 0
            && self.probes == 0
            && self.taints == 0
            && self.quarantined_invocations == 0
            && self.watchdog_trips == 0
            && self.split_overruns == 0
    }
}

const CLOSED: u8 = 0;
const OPEN: u8 = 1;
const HALF_OPEN: u8 = 2;

/// Current position in the breaker state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; faults are being counted.
    Closed,
    /// GPU quarantined: invocations run CPU-only.
    Open,
    /// Quarantine served: the next invocation probes the GPU.
    HalfOpen,
}

impl BreakerState {
    /// Stable numeric code used in telemetry records (0 closed, 1 open,
    /// 2 half-open — the internal encoding, made public for exports).
    pub fn code(self) -> u8 {
        match self {
            BreakerState::Closed => CLOSED,
            BreakerState::Open => OPEN,
            BreakerState::HalfOpen => HALF_OPEN,
        }
    }

    /// Inverse of [`code`](BreakerState::code); `None` for unknown codes
    /// (used when recovering persisted state).
    pub fn from_code(code: u8) -> Option<BreakerState> {
        match code {
            CLOSED => Some(BreakerState::Closed),
            OPEN => Some(BreakerState::Open),
            HALF_OPEN => Some(BreakerState::HalfOpen),
            _ => None,
        }
    }
}

/// What the breaker allows the current invocation to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerGate {
    /// Schedule normally.
    Normal,
    /// GPU quarantined: run everything at α = 0, touch nothing else.
    CpuOnly,
    /// Probe: profile through the GPU (skipping table reuse) so a clean
    /// observation can close the breaker.
    Probe,
}

/// The GPU circuit breaker (state machine in the [module docs](self)).
///
/// All state is atomic: many streams of an `Arc<SharedEas>` consult one
/// breaker concurrently. Races are benign — at worst two streams both run
/// the recovery probe.
#[derive(Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    quarantine: u64,
    state: AtomicU8,
    consecutive: AtomicU32,
    quarantine_left: AtomicU64,
}

impl CircuitBreaker {
    /// A closed breaker with the given policy.
    pub fn new(policy: &FaultPolicy) -> CircuitBreaker {
        CircuitBreaker {
            threshold: policy.breaker_threshold.max(1),
            quarantine: policy.quarantine.max(1),
            state: AtomicU8::new(CLOSED),
            consecutive: AtomicU32::new(0),
            quarantine_left: AtomicU64::new(0),
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        match self.state.load(Ordering::Acquire) {
            OPEN => BreakerState::Open,
            HALF_OPEN => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }

    /// Whether the breaker is open (GPU quarantined).
    pub fn is_open(&self) -> bool {
        self.state.load(Ordering::Acquire) == OPEN
    }

    /// Consulted once per invocation, before any scheduling work.
    pub(crate) fn gate(&self) -> BreakerGate {
        match self.state.load(Ordering::Acquire) {
            CLOSED => BreakerGate::Normal,
            HALF_OPEN => BreakerGate::Probe,
            _ => {
                let before = self
                    .quarantine_left
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
                        Some(v.saturating_sub(1))
                    })
                    .unwrap_or(0);
                if before <= 1 {
                    self.state.store(HALF_OPEN, Ordering::Release);
                    BreakerGate::Probe
                } else {
                    BreakerGate::CpuOnly
                }
            }
        }
    }

    /// Records a GPU-implicating fault; returns `true` if this fault
    /// tripped the breaker open (from closed or from a failed probe).
    pub(crate) fn record_gpu_fault(&self) -> bool {
        match self.state.load(Ordering::Acquire) {
            OPEN => false,
            HALF_OPEN => {
                self.trip();
                true
            }
            _ => {
                let seen = self.consecutive.fetch_add(1, Ordering::AcqRel) + 1;
                if seen >= self.threshold {
                    self.trip();
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a clean GPU observation; returns `true` if it closed a
    /// half-open breaker (a recovery).
    pub(crate) fn record_clean_gpu(&self) -> bool {
        self.consecutive.store(0, Ordering::Release);
        let was_half_open = self.state.load(Ordering::Acquire) == HALF_OPEN;
        if was_half_open {
            self.state.store(CLOSED, Ordering::Release);
        }
        was_half_open
    }

    fn trip(&self) {
        self.consecutive.store(0, Ordering::Release);
        self.quarantine_left
            .store(self.quarantine, Ordering::Release);
        self.state.store(OPEN, Ordering::Release);
    }

    /// Forces the breaker into a recovered state (crash recovery): an
    /// `Open` restore starts a full quarantine period, exactly as if the
    /// trip had just happened.
    pub(crate) fn restore(&self, state: BreakerState) {
        self.consecutive.store(0, Ordering::Release);
        match state {
            BreakerState::Open => {
                self.quarantine_left
                    .store(self.quarantine, Ordering::Release);
                self.state.store(OPEN, Ordering::Release);
            }
            BreakerState::HalfOpen => self.state.store(HALF_OPEN, Ordering::Release),
            BreakerState::Closed => self.state.store(CLOSED, Ordering::Release),
        }
    }
}

impl Clone for CircuitBreaker {
    fn clone(&self) -> CircuitBreaker {
        CircuitBreaker {
            threshold: self.threshold,
            quarantine: self.quarantine,
            state: AtomicU8::new(self.state.load(Ordering::Acquire)),
            consecutive: AtomicU32::new(self.consecutive.load(Ordering::Acquire)),
            quarantine_left: AtomicU64::new(self.quarantine_left.load(Ordering::Acquire)),
        }
    }
}

/// Per-frontend fault-handling state: counters, the GPU breaker, and the
/// self-healing control loop's drift monitor and watchdog (DESIGN.md
/// §11).
#[derive(Debug, Clone)]
pub struct Health {
    pub(crate) stats: HealthStats,
    pub(crate) breaker: CircuitBreaker,
    pub(crate) drift: DriftMonitor,
    pub(crate) watchdog: Watchdog,
}

impl Health {
    /// Fresh healthy state under the given policies.
    pub(crate) fn new(
        policy: &FaultPolicy,
        drift: DriftPolicy,
        watchdog: WatchdogPolicy,
    ) -> Health {
        Health {
            stats: HealthStats::default(),
            breaker: CircuitBreaker::new(policy),
            drift: DriftMonitor::new(drift),
            watchdog: Watchdog::new(watchdog),
        }
    }

    /// Snapshot of the counters, in the user-facing reporting shape.
    pub fn report(&self) -> HealthReport {
        self.stats.report()
    }

    /// The GPU circuit breaker.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// The drift monitor feeding the self-healing loop.
    pub fn drift(&self) -> &DriftMonitor {
        &self.drift
    }

    /// The watchdog bounding round/chunk durations.
    pub fn watchdog(&self) -> &Watchdog {
        &self.watchdog
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> FaultPolicy {
        FaultPolicy {
            max_retries: 3,
            breaker_threshold: 3,
            quarantine: 4,
        }
    }

    fn health() -> Health {
        Health::new(&policy(), DriftPolicy::default(), WatchdogPolicy::default())
    }

    #[test]
    fn breaker_trips_after_threshold_consecutive_faults() {
        let b = CircuitBreaker::new(&policy());
        assert!(!b.record_gpu_fault());
        assert!(!b.record_gpu_fault());
        // A clean observation resets the streak.
        assert!(!b.record_clean_gpu());
        assert!(!b.record_gpu_fault());
        assert!(!b.record_gpu_fault());
        assert!(b.record_gpu_fault());
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn open_breaker_quarantines_then_probes() {
        let b = CircuitBreaker::new(&policy());
        for _ in 0..3 {
            b.record_gpu_fault();
        }
        // quarantine = 4: three CPU-only invocations, the fourth probes.
        assert_eq!(b.gate(), BreakerGate::CpuOnly);
        assert_eq!(b.gate(), BreakerGate::CpuOnly);
        assert_eq!(b.gate(), BreakerGate::CpuOnly);
        assert_eq!(b.gate(), BreakerGate::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn clean_probe_closes_failed_probe_reopens() {
        let b = CircuitBreaker::new(&policy());
        for _ in 0..3 {
            b.record_gpu_fault();
        }
        for _ in 0..4 {
            b.gate();
        }
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Failed probe: straight back to open for a full quarantine.
        assert!(b.record_gpu_fault());
        assert_eq!(b.state(), BreakerState::Open);
        for _ in 0..4 {
            b.gate();
        }
        // Clean probe: recovery.
        assert!(b.record_clean_gpu());
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.gate(), BreakerGate::Normal);
    }

    #[test]
    fn closed_breaker_gates_normal_without_side_effects() {
        let b = CircuitBreaker::new(&policy());
        for _ in 0..100 {
            assert_eq!(b.gate(), BreakerGate::Normal);
        }
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn health_report_roundtrips_counters() {
        let h = health();
        h.stats.note_accepted();
        h.stats.note_rejected();
        h.stats.note_rejected();
        h.stats.note_degraded();
        let r = h.report();
        assert_eq!(r.observations_accepted, 1);
        assert_eq!(r.observations_rejected, 2);
        assert_eq!(r.degraded_invocations, 1);
        assert!(!r.fault_free());
        assert!(HealthReport::default().fault_free());
        // Clone carries the counts.
        assert_eq!(h.clone().report(), r);
    }

    #[test]
    fn clone_carries_every_counter() {
        let h = health();
        let notes: [fn(&HealthStats); 18] = [
            HealthStats::note_accepted,
            HealthStats::note_rejected,
            HealthStats::note_retry,
            HealthStats::note_degraded,
            HealthStats::note_trip,
            HealthStats::note_probe,
            HealthStats::note_recovery,
            HealthStats::note_taint,
            HealthStats::note_quarantined,
            HealthStats::note_drift_reprofile,
            HealthStats::note_reprofile_suppressed,
            HealthStats::note_watchdog_trip,
            HealthStats::note_split_overrun,
            HealthStats::note_throttled,
            HealthStats::note_request_shed,
            HealthStats::note_request_queued,
            HealthStats::note_quota_denial,
            HealthStats::note_brownout_transition,
        ];
        // A distinct count per counter, so a crossed wire between the
        // report and the clone cannot read back equal.
        for (i, note) in notes.iter().enumerate() {
            for _ in 0..=i {
                note(&h.stats);
            }
        }
        let r = h.report();
        assert_eq!((r.observations_accepted, r.retries, r.taints), (1, 3, 8));
        assert_eq!(r.brownout_transitions, 18);
        assert_eq!(h.stats.clone().report(), r);
    }

    #[test]
    fn admission_counters_roundtrip_and_stay_out_of_fault_free() {
        let h = health();
        h.stats.note_throttled();
        h.stats.note_request_shed();
        h.stats.note_request_shed();
        h.stats.note_request_queued();
        h.stats.note_quota_denial();
        h.stats.note_brownout_transition();
        let r = h.report();
        assert_eq!(r.throttled_invocations, 1);
        assert_eq!(r.requests_shed, 2);
        assert_eq!(r.requests_queued, 1);
        assert_eq!(r.quota_denials, 1);
        assert_eq!(r.brownout_transitions, 1);
        // Overload protection is adaptation, not a fault.
        assert!(r.fault_free());
        assert_eq!(h.clone().report(), r);
    }

    #[test]
    fn store_counters_stay_out_of_fault_free() {
        let r = HealthReport {
            store_io_errors: 9,
            store_degraded: 1,
            store_bytes: 4096,
            ..HealthReport::default()
        };
        assert!(
            r.fault_free(),
            "a failing disk reduces durability, not scheduling fidelity"
        );
    }

    #[test]
    fn breaker_state_codes_are_stable() {
        assert_eq!(BreakerState::Closed.code(), 0);
        assert_eq!(BreakerState::Open.code(), 1);
        assert_eq!(BreakerState::HalfOpen.code(), 2);
    }
}
