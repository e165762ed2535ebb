//! The EAS scheduler core: the one state the paper's Figure 7 runtime
//! keeps — policy, the global table G, fault health, and the decision
//! counter — shared by any number of workload streams.
//!
//! [`SharedEas`] composes the layers (pure [`DecisionEngine`] policy,
//! sharded [`KernelTable`] memory, [`Health`]) with the optional telemetry
//! sink and journal store; the Figure 7 flow itself runs as its `&self`
//! methods (`profile_loop`). Drive it through the [`ConcurrentScheduler`]
//! API: wrap it in an `Arc`, hand a [`handle()`](SharedEasExt::handle) to
//! each stream, and every stream both benefits from and contributes to
//! one global table — the paper's "global table G" made literal for
//! multi-programmed workloads. [`EasScheduler`] is the exclusive
//! `&mut self` adapter over the same core, and also where a core is
//! configured (sink, store, clock) before
//! [`into_shared`](EasScheduler::into_shared) publishes it.
//!
//! The reuse path (a known kernel arriving again) takes only a shard read
//! lock plus one atomic increment, so concurrent streams re-invoking
//! learned kernels scale with reader parallelism. A profiling round's
//! decision also takes the decision-log mutex (DESIGN.md §8).

use crate::eas::{Decision, EasConfig, EasScheduler};
use crate::engine::DecisionEngine;
use crate::health::{merge_store_health, Health, HealthReport};
use crate::journal::{StoreError, TableStore};
use crate::kernel_table::KernelTable;
use crate::power_model::PowerModel;
use easched_runtime::vfs::Vfs;
use easched_runtime::{Backend, Clock, ConcurrentScheduler, InvocationCtx, KernelId, Shared};
use easched_telemetry::TelemetrySink;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// The energy-aware scheduler with interior synchronization: the
/// Figure 7 policy drivable through `&self` from any number of threads
/// sharing one `Arc`. [`EasScheduler`] owns one by value and derefs to
/// it, so every accessor here serves both.
///
/// # Examples
///
/// ```
/// use easched_core::{characterize, CharacterizationConfig, EasConfig, EasRuntime,
///                    Objective, SharedEas};
/// use easched_kernels::suite;
/// use easched_sim::Platform;
/// use std::sync::Arc;
///
/// let platform = Platform::haswell_desktop();
/// let model = characterize(&platform, &CharacterizationConfig::default());
/// let eas = SharedEas::new(model, EasConfig::new(Objective::EnergyDelay));
///
/// // Each stream gets its own runtime; all learn into one table.
/// std::thread::scope(|s| {
///     for _ in 0..4 {
///         let eas = Arc::clone(&eas);
///         s.spawn(move || {
///             let mut rt = EasRuntime::with_shared(Platform::haswell_desktop(), eas);
///             assert!(rt.run(suite::blackscholes_small().as_ref()).verification.is_passed());
///         });
///     }
/// });
/// assert!(!eas.table().is_empty());
/// ```
#[derive(Debug)]
pub struct SharedEas {
    pub(crate) engine: DecisionEngine,
    pub(crate) table: KernelTable,
    pub(crate) health: Health,
    pub(crate) name: String,
    pub(crate) decisions: AtomicU64,
    pub(crate) log: Mutex<Vec<Decision>>,
    pub(crate) telemetry: Option<Arc<dyn TelemetrySink>>,
    pub(crate) store: Option<Arc<TableStore>>,
    pub(crate) clock: Arc<dyn Clock>,
}

impl SharedEas {
    /// Creates a shareable scheduler from a platform's characterized power
    /// model — [`EasScheduler::new`] followed by
    /// [`into_shared`](EasScheduler::into_shared).
    ///
    /// # Panics
    ///
    /// Panics if `config.profile_fraction` is outside (0, 1], exactly as
    /// [`EasScheduler::new`] does.
    pub fn new(model: PowerModel, config: EasConfig) -> Arc<SharedEas> {
        EasScheduler::new(model, config).into_shared()
    }

    /// The full wiring in one call: the table journaled to (and recovered
    /// from) the store at `dir` on `vfs` ([`EasScheduler::open`]), and
    /// every stream's invocations emitting
    /// [`DecisionRecord`](easched_telemetry::DecisionRecord)s — plus
    /// typed `StorageFault` control events — into `sink`.
    pub fn with_telemetry_persistence_vfs(
        model: PowerModel,
        config: EasConfig,
        dir: impl AsRef<Path>,
        sink: Arc<dyn TelemetrySink>,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Arc<SharedEas>, StoreError> {
        let mut eas = EasScheduler::open(model, config, dir, vfs)?;
        eas.set_telemetry(Some(sink));
        Ok(eas.into_shared())
    }

    /// The persistence store, if this scheduler was built with one.
    pub fn store(&self) -> Option<&Arc<TableStore>> {
        self.store.as_ref()
    }

    /// Forces a snapshot + journal compaction now (also happens
    /// automatically every
    /// [`compact_every`](TableStore::compact_every) journal appends).
    /// No-op without a store.
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        match &self.store {
            Some(store) => store.checkpoint(&self.table, self.health.breaker.state()),
            None => Ok(()),
        }
    }

    /// The attached telemetry sink, if any.
    pub fn telemetry(&self) -> Option<&Arc<dyn TelemetrySink>> {
        self.telemetry.as_ref()
    }

    /// The scheduler's time source.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The learned offload ratio for a kernel, if any.
    pub fn learned_alpha(&self, kernel: KernelId) -> Option<f64> {
        self.table.lookup(kernel)
    }

    /// Number of α decisions made so far (profiling rounds across all
    /// invocations and streams).
    pub fn decisions(&self) -> u64 {
        self.decisions.load(Ordering::Relaxed)
    }

    /// A copy of every α decision made so far. Decisions from one stream
    /// stay in that stream's order; interleaving across streams follows
    /// lock-acquisition order.
    pub fn decision_log(&self) -> Vec<Decision> {
        lock_log(&self.log).clone()
    }

    /// Serializes the decision log as CSV (for the harness and post-hoc
    /// analysis).
    ///
    /// ```
    /// # use easched_core::{EasConfig, EasScheduler, Objective, PowerModel, PowerCurve, WorkloadClass};
    /// # use easched_num::Polynomial;
    /// # let curves = WorkloadClass::all().into_iter()
    /// #     .map(|c| PowerCurve::new(c, Polynomial::constant(50.0), 0.0, 11)).collect();
    /// # let model = PowerModel::new("x", curves);
    /// let eas = EasScheduler::new(model, EasConfig::new(Objective::Energy));
    /// assert!(eas.decision_log_csv().starts_with("kernel,r_c,r_g,"));
    /// ```
    pub fn decision_log_csv(&self) -> String {
        let mut out = String::from("kernel,r_c,r_g,class,n_remaining,alpha\n");
        for d in lock_log(&self.log).iter() {
            out.push_str(&format!(
                "{},{:.3},{:.3},{},{},{:.3}\n",
                d.kernel,
                d.r_c,
                d.r_g,
                d.class.index(),
                d.n_remaining,
                d.alpha
            ));
        }
        out
    }

    /// The underlying decision engine (policy layer).
    pub fn engine(&self) -> &DecisionEngine {
        &self.engine
    }

    /// The kernel table G (memory layer).
    pub fn table(&self) -> &KernelTable {
        &self.table
    }

    /// Fault-pipeline telemetry aggregated across all streams: guard
    /// rejections, retries, degraded invocations, circuit-breaker and
    /// store activity (see [`HealthReport`]). All zeros on a healthy
    /// platform.
    pub fn health(&self) -> HealthReport {
        let mut report = self.health.report();
        if let Some(store) = &self.store {
            merge_store_health(&mut report, store.health());
        }
        report
    }

    /// The fault-handling state shared by all streams (breaker inspection
    /// for diagnostics).
    pub fn health_state(&self) -> &Health {
        &self.health
    }

    /// Counts and logs one profiling-round α decision.
    pub(crate) fn note_decision(&self, decision: Decision) {
        self.decisions.fetch_add(1, Ordering::Relaxed);
        lock_log(&self.log).push(decision);
    }
}

/// Locks the decision log, recovering from poisoning: a stream that
/// panicked mid-push leaves a fully written Vec (push is not observable
/// half-done here), and one dead tenant must not take down the others.
fn lock_log(log: &Mutex<Vec<Decision>>) -> std::sync::MutexGuard<'_, Vec<Decision>> {
    log.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ConcurrentScheduler for SharedEas {
    fn name(&self) -> &str {
        &self.name
    }

    fn schedule_shared(&self, kernel: KernelId, backend: &mut dyn Backend) {
        self.schedule_invocation(kernel, backend, InvocationCtx::default());
    }

    fn schedule_shared_ctx(&self, kernel: KernelId, backend: &mut dyn Backend, ctx: InvocationCtx) {
        self.schedule_invocation(kernel, backend, ctx);
    }
}

/// `Arc<SharedEas>` conveniences.
pub trait SharedEasExt {
    /// A cheap per-stream handle implementing the exclusive
    /// [`Scheduler`](easched_runtime::Scheduler) trait, so existing
    /// drivers ([`EasRuntime`](crate::EasRuntime), harnesses, traces) can
    /// run against the shared table unchanged.
    fn handle(&self) -> Shared<SharedEas>;
}

impl SharedEasExt for Arc<SharedEas> {
    fn handle(&self) -> Shared<SharedEas> {
        Shared::new(Arc::clone(self))
    }
}

// Whole point of the type; fail the build if a field ever loses it.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SharedEas>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::WorkloadClass;
    use crate::objective::Objective;
    use crate::power_model::PowerCurve;
    use easched_num::Polynomial;
    use easched_runtime::backend::test_support::FakeBackend;
    use easched_runtime::vfs::StdFs;
    use easched_runtime::Scheduler;
    use easched_runtime::WallClock;
    use easched_telemetry::RingSink;

    fn flat_model(watts: f64) -> PowerModel {
        let curves = WorkloadClass::all()
            .into_iter()
            .map(|c| PowerCurve::new(c, Polynomial::constant(watts), 0.0, 11))
            .collect();
        PowerModel::new("flat", curves)
    }

    /// A scratch directory under the system temp dir, removed on drop.
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            static SEQ: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
            let dir = std::env::temp_dir().join(format!(
                "easched_shared_{tag}_{}_{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Every file in `dir`, by name, with its bytes.
    fn dir_bytes(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.file_name(), std::fs::read(e.path()).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    /// One way of wiring a scheduler: a name, whether a telemetry sink is
    /// attached, and the filesystem of its journal, if it has one.
    type Row = (&'static str, bool, Option<fn() -> Arc<dyn Vfs>>);

    fn quiet_chaos() -> Arc<dyn Vfs> {
        Arc::new(easched_runtime::vfs::ChaosFs::new(
            7,
            easched_runtime::vfs::ChaosFsPlan::default(),
            Arc::new(WallClock),
        ))
    }

    /// Builds the exclusive and the shared scheduler for `row`, each with
    /// its own ring and store directory.
    fn wire(
        &(_, telemetry, vfs): &Row,
        config: &EasConfig,
        dirs: [&Path; 2],
    ) -> (EasScheduler, Arc<SharedEas>, [Option<Arc<RingSink>>; 2]) {
        let ring = || Arc::new(RingSink::with_capacity(256));
        let rings = [0, 1].map(|_| telemetry.then(ring));
        let sink = |i: usize| rings[i].clone().map(|r| r as Arc<dyn TelemetrySink>);
        let build = |dir: &Path, sink: Option<Arc<dyn TelemetrySink>>| {
            let mut eas = match vfs {
                Some(vfs) => {
                    EasScheduler::open(flat_model(50.0), config.clone(), dir, vfs()).unwrap()
                }
                None => EasScheduler::new(flat_model(50.0), config.clone()),
            };
            eas.set_telemetry(sink);
            eas
        };
        let exclusive = build(dirs[0], sink(0));
        // The two shared constructors kept as forwards, where a row
        // matches them; the adapter's path otherwise.
        let (model, config) = (flat_model(50.0), config.clone());
        let shared = match (vfs, sink(1)) {
            (None, None) => SharedEas::new(model, config),
            (Some(vfs), Some(s)) => {
                SharedEas::with_telemetry_persistence_vfs(model, config, dirs[1], s, vfs()).unwrap()
            }
            (_, s) => build(dirs[1], s).into_shared(),
        };
        (exclusive, shared, rings)
    }

    #[test]
    fn shared_matches_exclusive_single_stream() {
        let rows: [Row; 5] = [
            ("plain", false, None),
            ("telemetry", true, None),
            ("persistence", false, Some(|| Arc::new(StdFs))),
            ("telemetry+persistence", true, Some(|| Arc::new(StdFs))),
            ("quiet-chaos-fs", false, Some(quiet_chaos)),
        ];
        let mut config = EasConfig::new(Objective::Time);
        config.reprofile_every = Some(3);
        // Profile, reuse, small-N, a second kernel, then a periodic
        // re-profile of the first.
        let invocations: [(KernelId, u64, f64); 6] = [
            (7, 100_000, 2.0e6),
            (7, 100_000, 2.0e6),
            (8, 100, 2.0e6),
            (9, 80_000, 0.5e6),
            (7, 100_000, 2.0e6),
            (7, 100_000, 2.0e6),
        ];
        for row in &rows {
            let (name, telemetry, vfs) = *row;
            let dirs = [TempDir::new("excl"), TempDir::new("shared")];
            let (mut exclusive, shared, rings) = wire(row, &config, [&dirs[0].0, &dirs[1].0]);
            let mut handle = shared.handle();
            for &(kernel, n, gpu_rate) in &invocations {
                let mut b1 = FakeBackend::new(n, 1.0e6, gpu_rate);
                exclusive.schedule(kernel, &mut b1);
                let mut b2 = FakeBackend::new(n, 1.0e6, gpu_rate);
                handle.schedule(kernel, &mut b2);
                assert_eq!(b1.log, b2.log, "{name}: backend traffic, kernel {kernel}");
            }
            for kernel in [7, 8, 9] {
                let bits = |a: Option<f64>| a.map(f64::to_bits);
                assert_eq!(
                    bits(exclusive.learned_alpha(kernel)),
                    bits(shared.learned_alpha(kernel)),
                    "{name}: learned alpha of {kernel}"
                );
            }
            assert_eq!(exclusive.decisions(), shared.decisions(), "{name}");
            assert_eq!(exclusive.decision_log(), shared.decision_log(), "{name}");
            let csv = exclusive.decision_log_csv();
            assert_eq!(csv, shared.decision_log_csv(), "{name}");
            // `decide_nanos` is wall-clock timed; everything else must match.
            let records = |ring: &Option<Arc<RingSink>>| {
                ring.as_ref().map(|r| {
                    let mut records = r.snapshot();
                    records.iter_mut().for_each(|d| d.decide_nanos = 0);
                    records
                })
            };
            assert_eq!(
                records(&rings[0]),
                records(&rings[1]),
                "{name}: ring records"
            );
            if telemetry {
                assert_eq!(
                    rings[0].as_ref().unwrap().recorded(),
                    invocations.len() as u64
                );
            }
            if vfs.is_some() {
                let journal = dir_bytes(&dirs[0].0);
                assert!(!journal.is_empty(), "{name}: store wrote nothing");
                assert_eq!(journal, dir_bytes(&dirs[1].0), "{name}: journal bytes");
            }
        }
    }

    #[test]
    fn into_shared_carries_learned_state() {
        let mut eas = EasScheduler::new(flat_model(50.0), EasConfig::new(Objective::Time));
        let mut b = FakeBackend::new(100_000, 1.0e6, 2.0e6);
        eas.schedule(7, &mut b);
        let alpha = eas.learned_alpha(7);
        let decisions = eas.decisions();

        let shared = eas.into_shared();
        assert_eq!(shared.learned_alpha(7), alpha);
        assert_eq!(shared.decisions(), decisions);
        assert_eq!(
            easched_runtime::ConcurrentScheduler::name(&*shared),
            "EAS-shared(time)"
        );

        // The carried table is reused, not re-profiled.
        let mut b2 = FakeBackend::new(100_000, 1.0e6, 2.0e6);
        shared.handle().schedule(7, &mut b2);
        assert_eq!(b2.log.len(), 1, "{:?}", b2.log);
    }

    #[test]
    fn handle_is_cheap_and_named() {
        let shared = SharedEas::new(flat_model(50.0), EasConfig::new(Objective::Energy));
        let h = shared.handle();
        assert_eq!(Scheduler::name(&h), "EAS-shared(energy)");
        let h2 = h.clone();
        assert_eq!(Scheduler::name(&h2), "EAS-shared(energy)");
    }
}
