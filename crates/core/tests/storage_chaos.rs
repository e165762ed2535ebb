//! Storage chaos harness (DESIGN.md §16): an injected fault at *every*
//! operation index of a scripted store workload, for every fault class,
//! must never panic, never corrupt recoverable state, and never stop a
//! later clean-disk life from appending and checkpointing again. A
//! second suite drives the full scheduler frontend through a write-fault
//! storm and asserts decisions keep full fidelity (`fault_free()` stays
//! true — a broken disk degrades durability, not scheduling). The
//! property test is the checkpoint half: a fault at any point during
//! snapshot write / fsync / rename leaves the previous snapshot and
//! journal fully loadable.

use easched_core::{
    characterize, AlphaStat, BreakerState, CharacterizationConfig, EasConfig, EasScheduler,
    KernelTable, Objective, TableStore,
};
use easched_runtime::backend::test_support::FakeBackend;
use easched_runtime::vfs::{ChaosFs, ChaosFsPlan, StdFs, StorageFault, Vfs};
use easched_runtime::{Scheduler, TickClock};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// A unique scratch directory removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let path = std::env::temp_dir().join(format!(
            "easched_schaos_{tag}_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&path);
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn stat(alpha: f64, weight: f64, seen: u64) -> AlphaStat {
    AlphaStat {
        alpha,
        weight,
        invocations_seen: seen,
    }
}

fn chaos(plan: ChaosFsPlan) -> ChaosFs {
    ChaosFs::new(0xC4A05, plan, Arc::new(TickClock::new()))
}

/// Every fault class the store's write path can meet. `Latency` is
/// excluded on purpose: it never fails an operation, so it cannot
/// change recoverable state.
const FAULTS: [StorageFault; 4] = [
    StorageFault::Enospc,
    StorageFault::Eio,
    StorageFault::ShortWrite,
    StorageFault::FsyncFail,
];

/// The scripted store workload: open, two entries, a checkpoint, a
/// taint, a breaker flip, a third entry, a final checkpoint. Exercises
/// every public mutation the scheduler's hot path uses. Must never
/// panic, whatever the vfs injects; checkpoints may honestly `Err`.
///
/// Returns `None` when open itself met an injected honest error (a
/// faulted snapshot read) — nothing further to script in that life.
fn scripted_workload(dir: &Path, vfs: Arc<dyn Vfs>) -> Option<(bool, bool)> {
    let (store, _) = TableStore::open_with(dir, vfs).ok()?;
    let table = KernelTable::new();
    table.insert(1, stat(0.25, 1.0e3, 3));
    store.record_entry(&table, 1);
    table.insert(2, stat(0.75, 2.0e3, 5));
    store.record_entry(&table, 2);
    let ck1 = store.checkpoint(&table, BreakerState::Closed).is_ok();
    table.taint(2);
    store.record_taint(2);
    store.record_breaker(BreakerState::Open);
    table.insert(3, stat(0.5, 3.0e3, 1));
    store.record_entry(&table, 3);
    let ck2 = store.checkpoint(&table, BreakerState::Open).is_ok();
    Some((ck1, ck2))
}

/// Asserts a recovered table holds only values the script actually
/// wrote — a faulted life may lose a suffix, never invent or corrupt.
fn assert_recovered_consistent(rec: &easched_core::Recovered, context: &str) {
    for (kernel, s, _) in rec.table.snapshot_with_taint() {
        assert!(
            s.alpha.is_finite() && (0.0..=1.0).contains(&s.alpha),
            "{context}: kernel {kernel} alpha {} out of range",
            s.alpha
        );
        assert!(
            s.weight.is_finite() && s.weight > 0.0,
            "{context}: kernel {kernel} weight {} corrupt",
            s.weight
        );
        let expected = match kernel {
            1 => stat(0.25, 1.0e3, 3),
            2 => stat(0.75, 2.0e3, 5),
            3 => stat(0.5, 3.0e3, 1),
            4 => stat(0.4, 4.0e3, 2),
            other => panic!("{context}: recovered kernel {other} was never written"),
        };
        assert_eq!(
            (s.alpha, s.weight, s.invocations_seen),
            (expected.alpha, expected.weight, expected.invocations_seen),
            "{context}: kernel {kernel} value drifted"
        );
    }
}

/// The tentpole: sweep one injected fault across *every* operation
/// index of the scripted workload, for every fault class. Each (op,
/// fault) life must (a) not panic, (b) leave state a plain `StdFs`
/// reopen recovers clean, and (c) not poison the *next* clean-disk
/// life: appends and a checkpoint must re-arm durability.
#[test]
fn every_fault_point_recovers_and_rearms() {
    // First, count the workload's clean-run operation footprint so the
    // sweep provably covers every index (plus slack for the extra ops
    // fault-recovery paths themselves perform).
    let probe = TempDir::new("probe");
    let fs_probe = chaos(ChaosFsPlan::default());
    let clean = scripted_workload(&probe.0, Arc::new(fs_probe.clone()));
    assert_eq!(clean, Some((true, true)), "zero-rate plan must be clean");
    let total_ops = fs_probe.op_count();
    assert!(
        total_ops > 10,
        "scripted workload too small: {total_ops} ops"
    );

    for fault in FAULTS {
        for op in 0..total_ops + 4 {
            let context = format!("fault {fault:?} at op {op}");
            let dir = TempDir::new("sweep");

            // Life 1: the faulted run. Any outcome but a panic is legal.
            let outcome = scripted_workload(&dir.0, Arc::new(chaos(ChaosFsPlan::at(op, fault))));

            // Whatever happened, a plain reopen must recover something
            // consistent (possibly empty — the fault may have killed
            // the very first create).
            let (_, rec) = TableStore::open(&dir.0)
                .unwrap_or_else(|e| panic!("{context}: StdFs reopen failed: {e}"));
            assert_recovered_consistent(&rec, &context);
            if outcome == Some((true, true)) {
                // Both checkpoints succeeded: the final snapshot is the
                // full table, nothing may be missing.
                assert_eq!(
                    rec.table.snapshot_with_taint().len(),
                    3,
                    "{context}: clean checkpoints must persist all three kernels"
                );
                assert!(rec.table.is_tainted(2), "{context}: taint lost");
            }
            drop(rec);

            // Life 2: the disk is healthy again. The store must append
            // and checkpoint — degradation never outlives the fault.
            let (store, rec) = TableStore::open(&dir.0)
                .unwrap_or_else(|e| panic!("{context}: clean reopen failed: {e}"));
            let table = rec.table;
            table.insert(4, stat(0.4, 4.0e3, 2));
            store.record_entry(&table, 4);
            store
                .checkpoint(&table, BreakerState::Closed)
                .unwrap_or_else(|e| panic!("{context}: clean-disk checkpoint failed: {e}"));
            assert!(
                !store.is_degraded(),
                "{context}: still degraded on a healthy disk"
            );
            drop(store);

            let (_, rec) = TableStore::open(&dir.0).expect("final reopen");
            assert_eq!(
                rec.table.stat(4).map(|s| s.invocations_seen),
                Some(2),
                "{context}: post-fault append lost"
            );
            assert_recovered_consistent(&rec, &context);
        }
    }
}

/// The storm: high write-side fault rates while the full scheduler
/// frontend profiles and decides. Decisions must match a chaos-free
/// run bit-for-bit, `fault_free()` must stay true, and the absorbed
/// faults must be visible in the store-health counters — not the
/// scheduler fault plane.
#[test]
fn scheduler_decides_at_full_fidelity_through_a_write_fault_storm() {
    let model = characterize(
        &easched_sim::Platform::haswell_desktop(),
        &CharacterizationConfig {
            alpha_steps: 10,
            ..Default::default()
        },
    );
    let config = EasConfig::new(Objective::Time);

    // Reference life: same workload on a quiet disk.
    let quiet = TempDir::new("quiet");
    let mut reference =
        EasScheduler::open(model.clone(), config.clone(), &quiet.0, Arc::new(StdFs))
            .expect("quiet open");
    let mut b = FakeBackend::new(100_000, 1.0e6, 2.0e6);
    reference.schedule(7, &mut b);
    let mut b = FakeBackend::new(100_000, 1.0e6, 2.0e6);
    reference.schedule(9, &mut b);

    // Storm life: 400‰ ENOSPC, 200‰ torn writes and fsync failures.
    let dir = TempDir::new("storm");
    let fs = chaos(ChaosFsPlan::storm(400));
    let mut eas = EasScheduler::open(model, config, &dir.0, Arc::new(fs.clone()))
        .expect("storm open (storm plans never fault reads)");
    let mut b = FakeBackend::new(100_000, 1.0e6, 2.0e6);
    eas.schedule(7, &mut b);
    let mut b = FakeBackend::new(100_000, 1.0e6, 2.0e6);
    eas.schedule(9, &mut b);

    assert_eq!(
        eas.learned_alpha(7),
        reference.learned_alpha(7),
        "storm must not change what the scheduler learns"
    );
    assert_eq!(eas.learned_alpha(9), reference.learned_alpha(9));

    let health = eas.health();
    assert!(
        health.fault_free(),
        "storage faults must not trip the scheduler fault plane: {health:?}"
    );
    assert!(
        fs.faults_injected() > 0,
        "storm at 400\u{2030} injected nothing — the seam is not being exercised"
    );
    assert_eq!(
        health.store_io_errors,
        eas.store().expect("persistent").health().io_errors,
        "report must carry the store's own counter"
    );
    assert!(
        health.store_io_errors > 0,
        "absorbed faults must be visible in store health"
    );

    // The faulted store still recovers everything that reached disk —
    // and once the weather clears, a checkpoint makes it all durable.
    let store = eas.store().expect("persistent").clone();
    let table = eas.table();
    while store.checkpoint(table, BreakerState::Closed).is_err() {
        // Each retry advances the fault stream; the storm is 400‰, so
        // this terminates fast.
    }
    drop(eas);
    let (_, rec) = TableStore::open(&dir.0).expect("post-storm recovery");
    assert!(
        rec.table.stat(7).is_some(),
        "kernel 7 must survive the storm once checkpointed"
    );
    assert!(rec.table.stat(9).is_some());
}

/// Degrade-to-memory endurance: a disk that is *permanently* broken
/// (every write-side op faults) must leave the scheduler deciding and
/// the process alive for an arbitrarily long run, with buffering
/// bounded.
#[test]
fn permanently_broken_disk_never_panics_and_bounds_buffering() {
    let dir = TempDir::new("deaddisk");
    // Seed a valid store first so open has a snapshot to read.
    {
        let (store, _) = TableStore::open(&dir.0).expect("seed");
        let table = KernelTable::new();
        table.insert(1, stat(0.25, 1.0e3, 3));
        store.record_entry(&table, 1);
        store
            .checkpoint(&table, BreakerState::Closed)
            .expect("seed ckpt");
    }
    let plan = ChaosFsPlan {
        enospc_per_mille: 1000,
        short_write_per_mille: 0,
        fsync_fail_per_mille: 1000,
        ..ChaosFsPlan::default()
    };
    let (store, rec) = TableStore::open_with(&dir.0, Arc::new(chaos(plan)))
        .expect("open degrades, never errors, on write-side faults");
    let table = rec.table;
    for i in 0..5_000u64 {
        table.insert(100 + i, stat(0.5, 1.0e3, 1));
        store.record_entry(&table, 100 + i);
    }
    assert!(
        store.is_degraded(),
        "an all-faults disk must degrade the store"
    );
    let health = store.health();
    assert!(health.io_errors > 0);
    assert!(
        health.buffered <= 1024,
        "RAM buffering must stay bounded: {} lines held",
        health.buffered
    );
    assert!(
        health.buffered_dropped > 0,
        "5000 appends through a 1024-line buffer must have dropped"
    );
    // The seeded durable state is untouched by the whole ordeal.
    drop(store);
    let (_, rec) = TableStore::open(&dir.0).expect("reopen");
    assert_eq!(rec.table.stat(1).map(|s| s.alpha), Some(0.25));
}

proptest! {
    /// Satellite 3: a fault injected at *any* operation index during a
    /// checkpoint (snapshot create, write, fsync, rename, dir sync,
    /// journal reset) leaves the previous snapshot + journal fully
    /// loadable — the old state or the new state, never neither, never
    /// a blend with invented values.
    #[test]
    fn checkpoint_fault_leaves_previous_state_loadable(
        op in 0u64..32,
        which in 0usize..4,
    ) {
        let fault = FAULTS[which];
        let dir = TempDir::new("pckpt");

        // Durable baseline: snapshot generation 1 holding kernels 1+2,
        // then a journal suffix adding kernel 3 and tainting kernel 2.
        {
            let (store, _) = TableStore::open(&dir.0).expect("seed open");
            let table = KernelTable::new();
            table.insert(1, stat(0.1, 1.0e3, 1));
            store.record_entry(&table, 1);
            table.insert(2, stat(0.5, 2.0e3, 2));
            store.record_entry(&table, 2);
            store.checkpoint(&table, BreakerState::Closed).expect("seed ckpt");
            table.insert(3, stat(0.3, 3.0e3, 3));
            store.record_entry(&table, 3);
            table.taint(2);
            store.record_taint(2);
        }

        // Faulted life: reopen through the chaos lens and checkpoint.
        // The open's reads land before `op` draws may fire on them —
        // storm-free `at` plans only fire at exactly one index, so any
        // op of the open+checkpoint sequence can be the victim.
        if let Ok((store, rec)) =
            TableStore::open_with(&dir.0, Arc::new(chaos(ChaosFsPlan::at(op, fault))))
        {
            let _ = store.checkpoint(&rec.table, BreakerState::Closed);
        }

        // The store must load: old state or new, both carry all three
        // kernels and the taint (the seed checkpoint preceded nothing
        // that could lose them).
        let (_, rec) = TableStore::open(&dir.0).expect("previous state must stay loadable");
        prop_assert_eq!(rec.table.stat(1).map(|s| s.alpha), Some(0.1));
        prop_assert_eq!(rec.table.stat(2).map(|s| s.alpha), Some(0.5));
        prop_assert_eq!(rec.table.stat(3).map(|s| s.alpha), Some(0.3));
        prop_assert!(rec.table.is_tainted(2), "taint must survive a faulted checkpoint");
        prop_assert!(!rec.table.is_tainted(1));
        prop_assert!(!rec.table.is_tainted(3));
    }
}
