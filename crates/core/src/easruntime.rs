//! High-level user-facing runtime: characterize once, then run workloads
//! under the energy-aware scheduler.
//!
//! A runtime drives one workload stream. It either owns its scheduler
//! exclusively ([`EasRuntime::new`]) or holds a handle to an
//! [`Arc<SharedEas>`] ([`EasRuntime::with_shared`]), in which case any
//! number of runtimes — typically one per thread — learn into and reuse
//! one global kernel table G.

use crate::eas::{EasConfig, EasScheduler};
use crate::journal::StoreError;
use crate::power_model::PowerModel;
use crate::shared::{SharedEas, SharedEasExt};
use easched_kernels::{Verification, Workload};
use easched_runtime::vfs::StdFs;
use easched_runtime::{run_workload, Backend, KernelId, RunMetrics, Scheduler, Shared};
use easched_sim::{Machine, Platform};
use std::path::Path;
use std::sync::Arc;

/// Outcome of running one workload under the energy-aware runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// End-to-end execution time, seconds.
    pub time: f64,
    /// Package energy, joules.
    pub energy_joules: f64,
    /// Energy-delay product, joule-seconds.
    pub edp: f64,
    /// Functional verification of the workload's output.
    pub verification: Verification,
    /// Raw totals.
    pub metrics: RunMetrics,
}

/// The scheduling frontend a runtime drives: an owned exclusive scheduler,
/// or a per-stream handle onto a shared one.
#[derive(Debug)]
enum Driver {
    Exclusive(Box<EasScheduler>),
    Shared(Shared<SharedEas>),
}

impl Scheduler for Driver {
    fn name(&self) -> &str {
        match self {
            Driver::Exclusive(s) => s.name(),
            Driver::Shared(s) => s.name(),
        }
    }

    fn schedule(&mut self, kernel: KernelId, backend: &mut dyn Backend) {
        match self {
            Driver::Exclusive(s) => s.schedule(kernel, backend),
            Driver::Shared(s) => s.schedule(kernel, backend),
        }
    }
}

/// The user-facing energy-aware runtime: a machine plus an
/// [`EasScheduler`] with its cross-workload kernel table.
///
/// # Examples
///
/// ```
/// use easched_core::{characterize, CharacterizationConfig, EasConfig, EasRuntime, Objective};
/// use easched_kernels::suite;
/// use easched_sim::Platform;
///
/// let platform = Platform::haswell_desktop();
/// let model = characterize(&platform, &CharacterizationConfig::default());
/// let mut runtime = EasRuntime::new(platform, model, EasConfig::new(Objective::EnergyDelay));
/// let outcome = runtime.run(suite::blackscholes_small().as_ref());
/// assert!(outcome.verification.is_passed());
/// assert!(outcome.edp > 0.0);
/// ```
#[derive(Debug)]
pub struct EasRuntime {
    machine: Machine,
    driver: Driver,
}

impl EasRuntime {
    /// Creates a runtime for `platform` from its characterized `model`,
    /// with an exclusively owned scheduler.
    pub fn new(platform: Platform, model: PowerModel, config: EasConfig) -> EasRuntime {
        EasRuntime {
            machine: Machine::new(platform),
            driver: Driver::Exclusive(Box::new(EasScheduler::new(model, config))),
        }
    }

    /// Creates a runtime driving a *shared* scheduler: every runtime
    /// constructed from the same `Arc<SharedEas>` reads and writes one
    /// kernel table, so a ratio learned by one workload stream is
    /// immediately reused by the others.
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
    /// std::thread::scope(|s| {
    ///     for _ in 0..2 {
    ///         let eas = Arc::clone(&eas);
    ///         s.spawn(move || {
    ///             let mut rt = EasRuntime::with_shared(Platform::haswell_desktop(), eas);
    ///             assert!(rt.run(suite::blackscholes_small().as_ref()).verification.is_passed());
    ///         });
    ///     }
    /// });
    /// ```
    pub fn with_shared(platform: Platform, scheduler: Arc<SharedEas>) -> EasRuntime {
        EasRuntime {
            machine: Machine::new(platform),
            driver: Driver::Shared(scheduler.handle()),
        }
    }

    /// Creates a runtime around an already-built exclusive scheduler —
    /// for callers that configured the scheduler first (e.g. attached a
    /// telemetry sink with [`EasScheduler::set_telemetry`], or warmed its
    /// table) before handing it to a runtime.
    pub fn with_scheduler(platform: Platform, scheduler: EasScheduler) -> EasRuntime {
        EasRuntime {
            machine: Machine::new(platform),
            driver: Driver::Exclusive(Box::new(scheduler)),
        }
    }

    /// Like [`EasRuntime::new`], but the scheduler's kernel table is
    /// recovered from — and journaled to — the crash-safe store rooted at
    /// `dir` (see [`EasScheduler::open`]): after a `kill -9`,
    /// a new runtime opened on the same directory resumes with every
    /// learned α, taint mark, and the breaker state (DESIGN.md §11).
    pub fn with_persistence(
        platform: Platform,
        model: PowerModel,
        config: EasConfig,
        dir: impl AsRef<Path>,
    ) -> Result<EasRuntime, StoreError> {
        Ok(EasRuntime {
            machine: Machine::new(platform),
            driver: Driver::Exclusive(Box::new(EasScheduler::open(
                model,
                config,
                dir,
                Arc::new(StdFs),
            )?)),
        })
    }

    /// Forces a snapshot + journal compaction of the underlying store —
    /// mode-agnostic; no-op when the scheduler has no persistence.
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        self.core().checkpoint()
    }

    /// Runs a workload to completion (functional execution + verification),
    /// partitioning every kernel invocation with EAS.
    pub fn run(&mut self, workload: &dyn Workload) -> RunOutcome {
        let (metrics, verification) = run_workload(&mut self.machine, workload, &mut self.driver);
        RunOutcome {
            time: metrics.time,
            energy_joules: metrics.energy_joules,
            edp: metrics.edp(),
            verification,
            metrics,
        }
    }

    /// Access to the scheduler (e.g. to inspect learned ratios).
    ///
    /// # Panics
    ///
    /// Panics for a shared runtime ([`EasRuntime::with_shared`]) — the
    /// scheduler is not exclusively owned there; inspect it through the
    /// `Arc<SharedEas>` instead, or use [`learned_alpha`](Self::learned_alpha),
    /// which works in both modes.
    pub fn scheduler(&self) -> &EasScheduler {
        match &self.driver {
            Driver::Exclusive(s) => s,
            Driver::Shared(_) => {
                panic!("shared runtime: inspect the Arc<SharedEas> instead")
            }
        }
    }

    /// The learned offload ratio for a kernel, if any — mode-agnostic.
    pub fn learned_alpha(&self, kernel: KernelId) -> Option<f64> {
        self.core().learned_alpha(kernel)
    }

    /// Fault-pipeline telemetry from the underlying scheduler —
    /// mode-agnostic (for a shared runtime the report aggregates every
    /// stream driving the same `Arc<SharedEas>`).
    pub fn health(&self) -> crate::health::HealthReport {
        self.core().health()
    }

    /// The scheduler core, whichever way the runtime holds it.
    fn core(&self) -> &SharedEas {
        match &self.driver {
            Driver::Exclusive(s) => s,
            Driver::Shared(s) => s.policy(),
        }
    }

    /// The machine's current virtual time, seconds.
    pub fn now(&self) -> f64 {
        self.machine.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::{characterize, CharacterizationConfig};
    use crate::objective::Objective;
    use easched_kernels::suite;

    fn model_for(platform: &Platform) -> PowerModel {
        characterize(
            platform,
            &CharacterizationConfig {
                alpha_steps: 10,
                ..Default::default()
            },
        )
    }

    fn quiet_platform() -> Platform {
        let mut platform = Platform::haswell_desktop();
        platform.pcu.measurement_noise = 0.0;
        platform
    }

    fn runtime() -> EasRuntime {
        let platform = quiet_platform();
        let model = model_for(&platform);
        EasRuntime::new(platform, model, EasConfig::new(Objective::EnergyDelay))
    }

    #[test]
    fn runs_and_verifies_workloads() {
        let mut rt = runtime();
        let out = rt.run(suite::blackscholes_small().as_ref());
        assert!(out.verification.is_passed());
        assert!(out.time > 0.0 && out.energy_joules > 0.0);
        assert!((out.edp - out.energy_joules * out.time).abs() < 1e-9);
    }

    #[test]
    fn kernel_table_persists_across_workload_runs() {
        let mut rt = runtime();
        rt.run(suite::mandelbrot_small().as_ref());
        let first_decisions = rt.scheduler().decisions();
        rt.run(suite::mandelbrot_small().as_ref());
        // Second run of the same kernel reuses G: no new decisions.
        assert_eq!(rt.scheduler().decisions(), first_decisions);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut rt = runtime();
        let t0 = rt.now();
        rt.run(suite::blackscholes_small().as_ref());
        assert!(rt.now() > t0);
    }

    #[test]
    fn shared_runtime_matches_exclusive() {
        let platform = quiet_platform();
        let model = model_for(&platform);

        let mut exclusive = EasRuntime::new(
            platform.clone(),
            model.clone(),
            EasConfig::new(Objective::EnergyDelay),
        );
        let a = exclusive.run(suite::blackscholes_small().as_ref());

        let eas = SharedEas::new(model, EasConfig::new(Objective::EnergyDelay));
        let mut shared = EasRuntime::with_shared(platform, Arc::clone(&eas));
        let b = shared.run(suite::blackscholes_small().as_ref());

        // Same machine, same policy, same workload → identical outcome.
        assert_eq!(a, b);
        assert_eq!(
            exclusive.learned_alpha(easched_runtime::kernel_id_of(
                suite::blackscholes_small().as_ref()
            )),
            shared.learned_alpha(easched_runtime::kernel_id_of(
                suite::blackscholes_small().as_ref()
            )),
        );
    }

    #[test]
    fn shared_runtimes_reuse_each_others_learning() {
        let platform = quiet_platform();
        let model = model_for(&platform);
        let eas = SharedEas::new(model, EasConfig::new(Objective::EnergyDelay));

        let mut first = EasRuntime::with_shared(platform.clone(), Arc::clone(&eas));
        first.run(suite::mandelbrot_small().as_ref());
        let decisions_after_first = eas.decisions();
        assert!(decisions_after_first > 0);

        // A *different* runtime sharing the table needs no new decisions.
        let mut second = EasRuntime::with_shared(platform, Arc::clone(&eas));
        second.run(suite::mandelbrot_small().as_ref());
        assert_eq!(eas.decisions(), decisions_after_first);
    }

    #[test]
    #[should_panic(expected = "shared runtime")]
    fn shared_runtime_has_no_exclusive_scheduler() {
        let platform = quiet_platform();
        let model = model_for(&platform);
        let eas = SharedEas::new(model, EasConfig::new(Objective::EnergyDelay));
        let rt = EasRuntime::with_shared(platform, eas);
        let _ = rt.scheduler();
    }
}
