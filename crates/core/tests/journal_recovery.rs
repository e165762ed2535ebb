//! Crash-safety integration tests for the v3 table store (DESIGN.md §11):
//! the byte-offset crash-point harness, v1/v2 migration, property-based
//! torn-tail and bit-flip recovery, and a kill-9-equivalent round trip
//! through the scheduler frontend.

use easched_core::{
    characterize, fnv1a64, Accumulation, AlphaStat, BreakerState, CharacterizationConfig,
    EasConfig, EasScheduler, KernelTable, Objective, PowerModel, StoreError, TableStore,
};
use easched_runtime::backend::test_support::FakeBackend;
use easched_runtime::chaos::{ChaosInjector, Fault, FaultPlan};
use easched_runtime::vfs::StdFs;
use easched_runtime::Scheduler;
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// A unique scratch directory removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let path = std::env::temp_dir().join(format!(
            "easched_jrec_{tag}_{}_{}",
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

/// Builds a store with a checkpointed base (kernels 1 and 2) and a known
/// five-record journal suffix, returning the on-disk snapshot and journal
/// bytes after the writer is gone.
fn seeded_store_files(dir: &TempDir) -> (Vec<u8>, Vec<u8>) {
    let (store, _) = TableStore::open(&dir.0).expect("fresh store");
    let table = KernelTable::new();
    table.insert(1, stat(0.1, 1.0e3, 1));
    store.record_entry(&table, 1);
    table.insert(2, stat(0.5, 2.0e3, 2));
    store.record_entry(&table, 2);
    store
        .checkpoint(&table, BreakerState::Closed)
        .expect("checkpoint");
    // Journal suffix, in order: put 3, taint 2, breaker open, put 1
    // (absolute update), breaker closed.
    table.insert(3, stat(0.3, 3.0e3, 3));
    store.record_entry(&table, 3);
    table.taint(2);
    store.record_taint(2);
    store.record_breaker(BreakerState::Open);
    table.insert(1, stat(0.9, 9.0e3, 4));
    store.record_entry(&table, 1);
    store.record_breaker(BreakerState::Closed);
    drop(store);
    let snap = fs::read(dir.0.join("table.snap")).expect("snapshot bytes");
    let journal = fs::read(dir.0.join("table.journal")).expect("journal bytes");
    (snap, journal)
}

/// Number of complete (newline-terminated) lines fully inside `len`
/// bytes of `journal`.
fn complete_lines(journal: &[u8], len: usize) -> usize {
    journal[..len].iter().filter(|&&b| b == b'\n').count()
}

#[test]
fn crash_point_harness_recovers_at_every_byte_offset() {
    let seed = TempDir::new("seed");
    let (snap, journal) = seeded_store_files(&seed);
    assert!(
        journal.len() > 100,
        "journal suspiciously small: {} bytes",
        journal.len()
    );

    for offset in 0..=journal.len() {
        let dir = TempDir::new("cut");
        fs::create_dir_all(&dir.0).unwrap();
        fs::write(dir.0.join("table.snap"), &snap).unwrap();
        fs::write(dir.0.join("table.journal"), &journal[..offset]).unwrap();

        let (store, rec) = TableStore::open(&dir.0)
            .unwrap_or_else(|e| panic!("offset {offset}: open failed: {e}"));

        // The journal's first line is its header; every complete line
        // before the cut must replay, everything after is forfeit.
        let lines = complete_lines(&journal, offset);
        let expected_replays = lines.saturating_sub(1) as u64;
        assert_eq!(
            rec.replayed, expected_replays,
            "offset {offset}: {lines} complete lines"
        );
        assert_eq!(rec.generation, 1, "offset {offset}");

        // The checkpointed base is inviolable at every offset.
        let s1 = rec.table.stat(1).expect("kernel 1 from snapshot");
        let s2 = rec.table.stat(2).expect("kernel 2 from snapshot");
        assert_eq!(s2.alpha, 0.5, "offset {offset}");

        // Replayed prefix semantics, record by record.
        let r = expected_replays;
        assert_eq!(rec.table.stat(3).is_some(), r >= 1, "offset {offset}");
        assert_eq!(rec.table.is_tainted(2), r >= 2, "offset {offset}");
        let expected_breaker = match r {
            0..=2 => BreakerState::Closed,
            3..=4 => BreakerState::Open,
            _ => BreakerState::Closed,
        };
        assert_eq!(rec.breaker, expected_breaker, "offset {offset}");
        assert_eq!(s1.alpha, if r >= 4 { 0.9 } else { 0.1 }, "offset {offset}");
        assert!(!rec.table.is_tainted(1), "offset {offset}");

        // Recovery is idempotent: the torn suffix was truncated away, so
        // a second open replays exactly the same prefix.
        drop(store);
        let (store, again) = TableStore::open(&dir.0)
            .unwrap_or_else(|e| panic!("offset {offset}: reopen failed: {e}"));
        assert_eq!(again.replayed, expected_replays, "offset {offset}: reopen");
        assert_eq!(again.discarded, 0, "offset {offset}: tail already clean");

        // And the store stays writable: append + checkpoint + reopen.
        if offset % 13 == 0 {
            again.table.insert(42, stat(0.42, 4.2e3, 1));
            store.record_entry(&again.table, 42);
            store
                .checkpoint(&again.table, again.breaker)
                .unwrap_or_else(|e| panic!("offset {offset}: checkpoint failed: {e}"));
            let (_, after) = TableStore::open(&dir.0).expect("post-checkpoint open");
            assert_eq!(after.generation, 2, "offset {offset}");
            assert_eq!(after.table.stat(42).map(|s| s.alpha), Some(0.42));
        }
    }
}

/// The crash window the checkpoint's directory fsync closes: a power
/// loss right after the snapshot rename (but before the rename's
/// directory entry hits disk) can resurrect the *old* snapshot beside
/// the *new*-generation journal. That pair is unrecoverable by design —
/// replaying a journal onto a base it never extended would fabricate
/// state — so `open` must refuse it loudly with `GenerationAhead`
/// rather than quietly resurrect a stale table. With `sync_dir` after
/// the rename (and after the journal reset) the window no longer exists
/// on a real power loss; this test pins both halves of the contract.
#[test]
fn resurrected_stale_snapshot_refuses_recovery_with_generation_ahead() {
    let dir = TempDir::new("dirsync");
    let (store, _) = TableStore::open(&dir.0).expect("fresh store");
    let table = KernelTable::new();
    table.insert(1, stat(0.1, 1.0e3, 1));
    store.record_entry(&table, 1);
    store
        .checkpoint(&table, BreakerState::Closed)
        .expect("first checkpoint");
    let stale_snapshot = fs::read(dir.0.join("table.snap")).expect("gen-1 snapshot");

    table.insert(2, stat(0.5, 2.0e3, 2));
    store.record_entry(&table, 2);
    store
        .checkpoint(&table, BreakerState::Closed)
        .expect("second checkpoint");
    drop(store);

    // Sanity: the durable (synced) pair reopens at the new generation.
    let (_, rec) = TableStore::open(&dir.0).expect("durable pair");
    assert_eq!(rec.generation, 2);
    assert!(rec.table.stat(2).is_some());

    // Simulate the pre-fsync power loss: the rename is undone (old
    // snapshot back in place) while the gen-2 journal survived.
    fs::write(dir.0.join("table.snap"), &stale_snapshot).unwrap();
    match TableStore::open(&dir.0) {
        Err(easched_core::StoreError::GenerationAhead { journal, snapshot }) => {
            assert_eq!(journal, 2);
            assert_eq!(snapshot, 1);
        }
        Ok(_) => panic!("stale snapshot + new journal must not open"),
        Err(e) => panic!("wrong error for resurrected snapshot: {e}"),
    }
}

/// Byte-offset harness over the *checkpoint* itself: whatever prefix of
/// the journal survives alongside either snapshot generation that could
/// legally be on disk (old before the rename's dir entry is durable, new
/// after), recovery either succeeds on a consistent pair or fails with
/// the typed generation error — never panics, never fabricates state.
#[test]
fn crash_point_harness_covers_the_rename_window() {
    let seed = TempDir::new("renwin");
    let (store, _) = TableStore::open(&seed.0).expect("fresh store");
    let table = KernelTable::new();
    table.insert(1, stat(0.1, 1.0e3, 1));
    store.record_entry(&table, 1);
    store
        .checkpoint(&table, BreakerState::Closed)
        .expect("checkpoint to gen 1");
    let old_snap = fs::read(seed.0.join("table.snap")).unwrap();
    table.insert(2, stat(0.7, 7.0e3, 3));
    store.record_entry(&table, 2);
    store
        .checkpoint(&table, BreakerState::Closed)
        .expect("checkpoint to gen 2");
    store.record_taint(1);
    drop(store);
    let new_snap = fs::read(seed.0.join("table.snap")).unwrap();
    let journal = fs::read(seed.0.join("table.journal")).unwrap();

    for (snap, expect_new) in [(&old_snap, false), (&new_snap, true)] {
        for offset in 0..=journal.len() {
            let dir = TempDir::new("renwinc");
            fs::create_dir_all(&dir.0).unwrap();
            fs::write(dir.0.join("table.snap"), snap).unwrap();
            fs::write(dir.0.join("table.journal"), &journal[..offset]).unwrap();
            match TableStore::open(&dir.0) {
                Ok((_, rec)) => {
                    if expect_new {
                        assert_eq!(rec.generation, 2, "offset {offset}");
                    } else {
                        // Old snapshot + a journal prefix too short to
                        // carry its gen-2 header: the journal is ignored
                        // and the gen-1 base stands alone.
                        assert_eq!(rec.generation, 1, "offset {offset}");
                        assert_eq!(rec.replayed, 0, "offset {offset}");
                    }
                }
                Err(easched_core::StoreError::GenerationAhead { journal, snapshot }) => {
                    assert!(!expect_new, "offset {offset}: durable pair must open");
                    assert_eq!((journal, snapshot), (2, 1), "offset {offset}");
                }
                Err(e) => panic!("offset {offset}: unexpected error {e}"),
            }
        }
    }
}

#[test]
fn v1_snapshot_migrates_and_reseals_as_v3() {
    let dir = TempDir::new("v1");
    fs::create_dir_all(&dir.0).unwrap();
    // The legacy v1 format: no checksum envelope, no taint, no breaker.
    fs::write(
        dir.0.join("table.snap"),
        "easched-kernel-table v1\nkernel 7 alpha 6.5e-1 weight 5e4 seen 12\n",
    )
    .unwrap();

    let (store, rec) = TableStore::open(&dir.0).expect("v1 migration");
    assert_eq!(rec.generation, 0);
    assert_eq!(rec.breaker, BreakerState::Closed);
    let s = rec.table.stat(7).expect("migrated kernel");
    assert_eq!(s.alpha, 0.65);
    assert_eq!(s.invocations_seen, 12);
    assert!(!rec.table.is_tainted(7));

    // The first checkpoint rewrites the snapshot in v3.
    rec.table.taint(7);
    store
        .checkpoint(&rec.table, BreakerState::HalfOpen)
        .expect("checkpoint");
    let text = fs::read_to_string(dir.0.join("table.snap")).unwrap();
    assert!(
        text.starts_with("easched-kernel-table v3"),
        "not resealed: {text}"
    );

    let (_, back) = TableStore::open(&dir.0).expect("v3 reopen");
    assert_eq!(back.generation, 1);
    assert_eq!(back.breaker, BreakerState::HalfOpen);
    assert!(
        back.table.is_tainted(7),
        "taint must survive the round trip"
    );
    assert_eq!(back.table.stat(7).map(|s| s.alpha), Some(0.65));
}

#[test]
fn v2_snapshot_migrates_through_the_public_text_format() {
    let dir = TempDir::new("v2");
    fs::create_dir_all(&dir.0).unwrap();
    fs::write(
        dir.0.join("table.snap"),
        "easched-kernel-table v2\n\
         kernel 11 alpha 2.5e-1 weight 1.5e4 seen 3\n\
         kernel 12 alpha 1e0 weight 2e4 seen 5\n\
         checksum 53ece1cc09687118\n",
    )
    .unwrap();

    let (_, rec) = TableStore::open(&dir.0).expect("v2 migration");
    assert_eq!(rec.generation, 0);
    assert_eq!(rec.breaker, BreakerState::Closed);
    assert_eq!(
        rec.table.snapshot(),
        vec![(11, stat(0.25, 1.5e4, 3)), (12, stat(1.0, 2.0e4, 5))]
    );
    assert!(!rec.table.is_tainted(11) && !rec.table.is_tainted(12));
}

#[test]
fn v2_snapshot_with_a_nan_weight_is_refused() {
    let dir = TempDir::new("v2nan");
    fs::create_dir_all(&dir.0).unwrap();
    let body = "easched-kernel-table v2\nkernel 11 alpha 2.5e-1 weight NaN seen 3\n";
    let sealed = format!("{body}checksum {:016x}\n", fnv1a64(body.as_bytes()));
    fs::write(dir.0.join("table.snap"), sealed).unwrap();

    let err = TableStore::open(&dir.0).unwrap_err();
    assert!(matches!(err, StoreError::Snapshot(_)), "{err}");
}

fn desktop_model() -> PowerModel {
    characterize(
        &easched_sim::Platform::haswell_desktop(),
        &CharacterizationConfig {
            alpha_steps: 10,
            ..Default::default()
        },
    )
}

#[test]
fn kill_minus_nine_equivalent_restores_alpha_taint_and_breaker() {
    let dir = TempDir::new("kill9");
    let model = desktop_model();
    let config = EasConfig::new(Objective::Time);

    // Session 1: learn two kernels — one cleanly, one through a scripted
    // sensor fault so its entry ends tainted — then die without a
    // checkpoint (drop ≡ kill -9 for completed writes: nothing here
    // flushes or finalizes anything).
    let (alpha7, alpha9) = {
        let mut eas = EasScheduler::open(model.clone(), config.clone(), &dir.0, Arc::new(StdFs))
            .expect("fresh persistent scheduler");
        let mut b = FakeBackend::new(100_000, 1.0e6, 2.0e6);
        eas.schedule(7, &mut b);
        // Kernel 9's *last* invocation sees an energy dropout: profiling
        // still completes, so the entry is learned but tainted.
        let mut injector = ChaosInjector::new(FaultPlan::Scripted(vec![(0, Fault::EnergyDropout)]));
        let mut b = FakeBackend::new(100_000, 1.0e6, 2.0e6);
        let mut chaos = injector.wrap(&mut b);
        eas.schedule(9, &mut chaos);
        assert!(eas.table().is_tainted(9), "fault must taint kernel 9");
        assert!(!eas.table().is_tainted(7));
        (
            eas.learned_alpha(7).expect("kernel 7 learned"),
            eas.learned_alpha(9).expect("kernel 9 learned"),
        )
    };

    // Session 2: a new scheduler on the same directory resumes with every
    // learned ratio and the quarantine/taint state intact.
    let eas = EasScheduler::open(model, config, &dir.0, Arc::new(StdFs)).expect("recovery");
    assert_eq!(eas.learned_alpha(7), Some(alpha7));
    assert_eq!(eas.learned_alpha(9), Some(alpha9));
    assert!(eas.table().is_tainted(9), "taint must survive kill -9");
    assert!(!eas.table().is_tainted(7));
    assert_eq!(eas.health_state().breaker().state(), BreakerState::Closed);
}

proptest! {
    /// Whatever byte length the crash left behind, recovery succeeds and
    /// yields only values some prefix of the journal actually recorded.
    #[test]
    fn torn_tails_never_break_recovery(cut in 0usize..400) {
        let seed = TempDir::new("ptorn");
        let (snap, journal) = seeded_store_files(&seed);
        let cut = cut.min(journal.len());

        let dir = TempDir::new("ptornc");
        fs::create_dir_all(&dir.0).unwrap();
        fs::write(dir.0.join("table.snap"), &snap).unwrap();
        fs::write(dir.0.join("table.journal"), &journal[..cut]).unwrap();

        let (_, rec) = TableStore::open(&dir.0).expect("torn tail must recover");
        prop_assert_eq!(rec.generation, 1);
        // Kernel 1 only ever held alpha 0.1 (snapshot) or 0.9 (journal).
        let a1 = rec.table.stat(1).expect("kernel 1").alpha;
        prop_assert!(a1 == 0.1 || a1 == 0.9);
        for (_, s, _) in rec.table.snapshot_with_taint() {
            prop_assert!((0.0..=1.0).contains(&s.alpha));
            prop_assert!(s.weight.is_finite() && s.weight >= 0.0);
        }
    }

    /// A flipped bit anywhere in the journal is detected by the per-line
    /// digest: recovery still succeeds and never surfaces a corrupted
    /// value — only states that were genuinely written.
    #[test]
    fn bit_flips_never_surface_corrupt_values(pos in 0usize..400, bit in 0u8..8) {
        let seed = TempDir::new("pflip");
        let (snap, mut journal) = seeded_store_files(&seed);
        let pos = pos.min(journal.len() - 1);
        journal[pos] ^= 1 << bit;

        let dir = TempDir::new("pflipc");
        fs::create_dir_all(&dir.0).unwrap();
        fs::write(dir.0.join("table.snap"), &snap).unwrap();
        fs::write(dir.0.join("table.journal"), &journal).unwrap();

        let (_, rec) = TableStore::open(&dir.0).expect("bit flip must recover");
        prop_assert_eq!(rec.generation, 1);
        let a1 = rec.table.stat(1).expect("kernel 1").alpha;
        prop_assert!(a1 == 0.1 || a1 == 0.9);
        if let Some(s3) = rec.table.stat(3) {
            prop_assert_eq!(s3.alpha, 0.3);
        }
        let a2 = rec.table.stat(2).expect("kernel 2").alpha;
        prop_assert_eq!(a2, 0.5);
    }
}

/// The store's on-disk bytes for a fixed script of entries, a taint,
/// breaker transitions and a checkpoint: a change to the snapshot or the
/// journal writer that moves one byte fails here.
#[test]
fn store_bytes_are_pinned() {
    let dir = TempDir::new("pin");
    let (store, _) = TableStore::open(&dir.0).expect("fresh store");
    let t = KernelTable::new();
    let w = Accumulation::SampleWeighted;
    t.accumulate(7, 2.0 / 3.0, 5e4, w);
    store.record_entry(&t, 7);
    t.accumulate(7, 0.1, 12_345.0, w);
    store.record_entry(&t, 7);
    t.accumulate(900, 1.0, 1e9, w);
    store.record_entry(&t, 900);
    t.taint(900);
    store.record_taint(900);
    store.record_breaker(BreakerState::Open);
    store
        .checkpoint(&t, BreakerState::Open)
        .expect("checkpoint");
    t.note_reuse(7);
    t.accumulate(1, 0.0, 17.0, w);
    store.record_entry(&t, 1);
    store.record_entry(&t, 7);
    store.record_breaker(BreakerState::HalfOpen);
    drop(store);
    for (file, digest, len) in [
        ("table.snap", 0x620e_6261_828f_1cf8, 190),
        ("table.journal", 0x69a1_7c1a_01c8_5a10, 236),
    ] {
        let bytes = fs::read(dir.0.join(file)).unwrap();
        assert_eq!(
            (fnv1a64(&bytes), bytes.len()),
            (digest, len),
            "{file}:\n{}",
            String::from_utf8_lossy(&bytes)
        );
    }
}
