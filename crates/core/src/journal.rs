//! Crash-safe kernel-table persistence, version 3: an append-only
//! write-ahead journal of table mutations plus periodic atomic
//! snapshot+compaction (DESIGN.md §11).
//!
//! Versions 1 and 2 persisted the table as one whole-file write — useless
//! against a `kill -9`: everything learned since the last save died with
//! the process. They survive only as read-only migration input. Version 3
//! journals every mutation as it happens, so a restart recovers the table
//! — including taint and circuit-breaker state — to within the single
//! invocation that was in flight.
//!
//! # On-disk layout
//!
//! A store directory holds two files:
//!
//! ```text
//! table.snap      — latest snapshot (atomic rename target)
//! table.journal   — mutations since that snapshot (append-only)
//! ```
//!
//! The snapshot is the kernel-table text format of
//! [`persist`](crate::persist) — one codec, [`table_to_text`] /
//! [`table_from_text`] — carrying generation, breaker, and taint state
//! under a trailing-checksum envelope:
//!
//! ```text
//! easched-kernel-table v3
//! generation 4
//! breaker 0
//! kernel 7 alpha 6.5e-1 weight 5e4 seen 12 tainted 0
//! checksum 41c09f22e6b7d530
//! ```
//!
//! The journal is line-oriented; every line — header included — carries
//! its own FNV-1a digest so each record validates independently:
//!
//! ```text
//! easched-table-journal v1 gen 4 crc 9f0c21d55ab3e847
//! put 7 alpha 6.5e-1 weight 5e4 seen 12 tainted 0 crc 1c22b06f9d4e7a35
//! taint 7 crc e5b91f20c6a4d713
//! breaker 1 crc 07d4f8a2c91b63e5
//! ```
//!
//! `put` records carry the kernel's *absolute* state (not a delta), so
//! replay is idempotent and a lost record costs only that one update.
//! Their fields are a snapshot `kernel` line's, written and parsed by the
//! same entry codec.
//!
//! # Recovery
//!
//! [`TableStore::open`] loads the snapshot (v1/v2 files are accepted for
//! migration under the v3 entry rule: generation 0, breaker closed,
//! untainted), then replays the journal **only if** its header
//! generation matches the snapshot's — a stale journal (crash between
//! snapshot rename and journal reset) is ignored, exactly right because
//! the snapshot already contains its mutations. Replay stops at the first line that fails its digest or
//! parse: a torn tail (the crash landed mid-`write`) or flipped bits
//! forfeit the suffix from that point, never the whole table, and the
//! file is truncated back to the valid prefix so appends resume cleanly.
//! Recovery never panics, whatever the bytes.
//!
//! # Durability
//!
//! Appends are plain `write` syscalls — completed writes survive process
//! death (`kill -9`), which is the failure mode this store defends
//! against. `fsync` happens only at snapshot+compaction, so a *power
//! loss* may cost the journal suffix since the last checkpoint; that
//! trade keeps the per-invocation overhead to one small write. The
//! checkpoint itself is made power-loss-durable end to end: the snapshot
//! is fsynced before the rename, and the **parent directory** is fsynced
//! after the rename and again after the journal reset — without the
//! directory syncs, a power loss after the rename could resurrect the
//! *old* snapshot beside the *new*-generation journal, a pair recovery
//! rejects as [`StoreError::GenerationAhead`].
//!
//! # Live I/O faults (DESIGN.md §16)
//!
//! All disk access goes through the [`Vfs`] seam, so the same code runs
//! against the real filesystem ([`StdFs`]) or a
//! deterministic fault injector ([`ChaosFs`](easched_runtime::ChaosFs)).
//! Failures on the scheduling path never panic and never block a
//! decision; they follow three rules:
//!
//! * **Poisoning** — after a failed write or fsync the open handle is
//!   never trusted again (the fsyncgate lesson: a second fsync on the
//!   same descriptor can silently report success over lost data). The
//!   store reopens the journal, rescans the sealed prefix from disk,
//!   truncates the tail, and resumes there.
//! * **ENOSPC → emergency compaction** — a full disk triggers an
//!   immediate snapshot+compaction (the snapshot is smaller than
//!   snapshot + journal, and carries the very mutation that failed).
//! * **Degrade-to-memory** — when the disk stays broken, the store
//!   trips into [`StoreMode::Degraded`]: mutations land in a bounded
//!   in-RAM buffer, counters and typed [`StorageEvent`]s surface the
//!   state, and every [`compact_every`](TableStore::compact_every)
//!   appends (or any explicit checkpoint) the store probes the disk
//!   with a compaction; success **re-arms** durability. Buffered lines
//!   are superseded by that snapshot, never replayed on top of it.

use crate::guard::FaultKind;
use crate::health::BreakerState;
use crate::kernel_table::{AlphaStat, KernelTable};
use crate::persist::{
    parse_entry, push_entry, seal_line, seal_tail, table_from_text, table_to_text, unseal_line,
    ModelParseError, ENTRY_MAX_LEN,
};
use easched_runtime::vfs::{StdFs, Vfs, VfsFile};
use easched_runtime::KernelId;
use std::error::Error;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Snapshot file name inside a store directory.
const SNAPSHOT_FILE: &str = "table.snap";
/// Journal file name inside a store directory.
const JOURNAL_FILE: &str = "table.journal";
/// Magic prefix of the journal header line.
const JOURNAL_MAGIC: &str = "easched-table-journal v1";
/// Default journal appends between automatic snapshot+compactions.
const DEFAULT_COMPACT_EVERY: u64 = 256;
/// Bound on in-RAM journal lines held while degraded; beyond it the
/// oldest line is dropped (puts are absolute, so newest state wins).
const MAX_BUFFERED_LINES: usize = 1024;
/// Bound on queued [`StorageEvent`]s between telemetry drains.
const MAX_EVENTS: usize = 64;

/// Error opening or checkpointing a [`TableStore`].
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The snapshot file exists but is malformed or corrupt. Unlike a
    /// torn journal tail this is *not* recoverable silently: the snapshot
    /// is written atomically, so damage means corruption at rest and the
    /// caller must decide.
    Snapshot(ModelParseError),
    /// The journal's header generation is *ahead* of the snapshot's —
    /// the snapshot was deleted or replaced with an older one. Replaying
    /// would resurrect a table missing its base state.
    GenerationAhead {
        /// Generation the journal claims.
        journal: u64,
        /// Generation the snapshot holds.
        snapshot: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::Snapshot(e) => write!(f, "snapshot: {e}"),
            StoreError::GenerationAhead { journal, snapshot } => write!(
                f,
                "journal generation {journal} is ahead of snapshot generation {snapshot}"
            ),
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Snapshot(e) => Some(e),
            StoreError::GenerationAhead { .. } => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// What [`TableStore::open`] recovered from disk.
#[derive(Debug)]
pub struct Recovered {
    /// The kernel table, taint state included.
    pub table: KernelTable,
    /// The circuit-breaker state at the last recorded transition.
    pub breaker: BreakerState,
    /// Snapshot generation the store resumed from.
    pub generation: u64,
    /// Journal records replayed on top of the snapshot.
    pub replayed: u64,
    /// Journal lines discarded as torn or corrupt (suffix from the first
    /// invalid line).
    pub discarded: u64,
}

/// Journal-side representation of one mutation.
enum JournalRecord {
    Put {
        kernel: KernelId,
        stat: AlphaStat,
        tainted: bool,
    },
    Taint(KernelId),
    Breaker(BreakerState),
}

/// Durability mode of a [`TableStore`] (DESIGN.md §16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreMode {
    /// The journal handle is live; mutations hit disk.
    Durable,
    /// The disk is broken: mutations buffer in RAM (bounded) and every
    /// compaction interval the store probes for recovery.
    Degraded,
}

/// One storage fault absorbed by the store, queued for telemetry (the
/// profile loop drains these into [`ControlEvent`]s; they never enter
/// the record ring, so recorded runs stay byte-identical).
///
/// [`ControlEvent`]: easched_telemetry::ControlEvent
#[derive(Debug, Clone)]
pub struct StorageEvent {
    /// What failed (always one of the `FaultKind::Storage*` variants).
    pub kind: FaultKind,
    /// Human-readable context: operation and OS error.
    pub detail: String,
}

/// Counter snapshot of a store's storage health, merged into
/// [`HealthReport`](crate::HealthReport) by the scheduler frontends.
/// None of these affect `fault_free()` — a broken disk degrades
/// durability, not scheduling fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreHealth {
    /// I/O operations that failed (append, snapshot, fsync, resync).
    pub io_errors: u64,
    /// Bytes successfully written (journal lines + snapshots).
    pub bytes_written: u64,
    /// Whether the store is currently in degrade-to-memory mode.
    pub degraded: bool,
    /// Durable→degraded transitions over the store's lifetime.
    pub degraded_transitions: u64,
    /// Degraded→durable recoveries (successful re-arm compactions).
    pub rearms: u64,
    /// Journal lines currently buffered in RAM (degraded mode only).
    pub buffered: u64,
    /// Buffered lines dropped at the RAM bound.
    pub buffered_dropped: u64,
    /// The filesystem rejected directory fsync as unsupported
    /// (tolerated, noted once: renames can't be made power-loss-durable
    /// on this mount).
    pub dir_sync_unsupported: bool,
}

/// What one append attempt did, so entry recording can route ENOSPC
/// into emergency compaction (the one call site holding the table).
enum AppendOutcome {
    /// The line is on disk.
    Written,
    /// The line went to the RAM buffer (store degraded).
    Buffered,
    /// The disk is full and the line, handed back, is not yet safe
    /// anywhere; the caller must compact or degrade.
    DiskFull(String),
}

/// Mutable store state behind the mutex: the append handle plus the
/// bookkeeping compaction and degradation need.
#[derive(Debug)]
struct StoreInner {
    file: Option<Box<dyn VfsFile>>,
    generation: u64,
    appends: u64,
    last_breaker: u8,
    mode: StoreMode,
    buffered: Vec<String>,
    buffered_dropped: u64,
    /// Open could not *read* the journal: the recovered table may be
    /// missing records that still exist on disk. Compaction must merge
    /// (or refuse) before resetting the journal, else the loss becomes
    /// durable.
    recovery_partial: bool,
}

/// The crash-safe store: journal appends on the scheduling path, atomic
/// snapshot+compaction at checkpoints (format and recovery rules in the
/// [module docs](self)).
///
/// All recording methods take `&self` and never panic or return errors —
/// persistence is best-effort on the hot path (failures are counted, see
/// [`write_errors`](TableStore::write_errors)); only [`open`](TableStore::open)
/// and [`checkpoint`](TableStore::checkpoint) surface [`StoreError`].
#[derive(Debug)]
pub struct TableStore {
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
    inner: Mutex<StoreInner>,
    compact_every: u64,
    write_errors: AtomicU64,
    io_errors: AtomicU64,
    bytes_written: AtomicU64,
    degraded_transitions: AtomicU64,
    rearms: AtomicU64,
    dir_sync_unsupported: AtomicBool,
    events: Mutex<Vec<StorageEvent>>,
    events_pending: AtomicBool,
}

/// Locks the inner state, recovering from poisoning: a panicked tenant
/// must not end persistence for every other stream.
fn lock(inner: &Mutex<StoreInner>) -> MutexGuard<'_, StoreInner> {
    inner.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One journal line — the record body followed by its own digest — in a
/// buffer sized to fit it exactly.
fn journal_line(body: &str) -> String {
    let mut line = String::with_capacity(body.len() + SEAL_LEN);
    seal_line(&mut line, body);
    line
}

/// Bytes [`seal_line`] adds after the body: ` crc `, 16 hex digits, `\n`.
const SEAL_LEN: usize = 22;

/// The longest sealed `put` line, so one allocation always holds it.
const PUT_LINE_MAX: usize = "put ".len() + ENTRY_MAX_LEN + SEAL_LEN;

impl TableStore {
    /// Opens (creating if absent) the store rooted at `dir` and recovers
    /// the persisted table: snapshot, then journal replay, per the
    /// [module docs](self).
    ///
    /// # Errors
    ///
    /// [`StoreError`] on a corrupt snapshot, a snapshot-read I/O
    /// failure, or a journal generation ahead of the snapshot's. A torn
    /// or corrupt journal *tail* is not an error — the suffix is
    /// discarded and counted in [`Recovered::discarded`]. Journal-side
    /// *write* failures during open are not errors either: the store
    /// opens in [`StoreMode::Degraded`] and probes its way back.
    pub fn open(dir: impl AsRef<Path>) -> Result<(TableStore, Recovered), StoreError> {
        TableStore::open_with(dir, Arc::new(StdFs))
    }

    /// [`open`](TableStore::open) with an explicit [`Vfs`] — the seam
    /// chaos tests and `--chaos-fs` runs thread a fault injector
    /// through.
    pub fn open_with(
        dir: impl AsRef<Path>,
        vfs: Arc<dyn Vfs>,
    ) -> Result<(TableStore, Recovered), StoreError> {
        let dir = dir.as_ref().to_path_buf();
        vfs.create_dir_all(&dir)?;
        let snap_path = dir.join(SNAPSHOT_FILE);
        let journal_path = dir.join(JOURNAL_FILE);

        let (table, mut breaker, generation) = match vfs.read(&snap_path) {
            Ok(bytes) => {
                table_from_text(&String::from_utf8_lossy(&bytes)).map_err(StoreError::Snapshot)?
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                (KernelTable::new(), BreakerState::Closed, 0)
            }
            Err(e) => return Err(StoreError::Io(e)),
        };

        let mut replayed = 0u64;
        let mut discarded = 0u64;
        let mut resume_at: Option<u64> = None;
        let mut open_faults: Vec<StorageEvent> = Vec::new();
        let mut journal_readable = true;
        match vfs.read(&journal_path) {
            Ok(bytes) => {
                let text = String::from_utf8_lossy(&bytes);
                let scan = scan_journal(&text);
                match scan.gen {
                    Some(g) if g == generation => {
                        for record in scan.records {
                            match record {
                                JournalRecord::Put {
                                    kernel,
                                    stat,
                                    tainted,
                                } => {
                                    table.insert(kernel, stat);
                                    if tainted {
                                        table.taint(kernel);
                                    }
                                }
                                JournalRecord::Taint(kernel) => table.taint(kernel),
                                JournalRecord::Breaker(state) => breaker = state,
                            }
                            replayed += 1;
                        }
                        discarded = scan.discarded;
                        resume_at = Some(scan.valid_len as u64);
                    }
                    Some(g) if g > generation => {
                        return Err(StoreError::GenerationAhead {
                            journal: g,
                            snapshot: generation,
                        });
                    }
                    // Stale (pre-snapshot) or unreadable header: the
                    // snapshot supersedes it; start a fresh journal.
                    _ => {}
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => {
                // The journal exists but won't read back. Failing open
                // would take the scheduler down for a durability-only
                // problem: open degraded on the snapshot alone instead,
                // leaving the journal bytes untouched for forensics.
                journal_readable = false;
                open_faults.push(StorageEvent {
                    kind: FaultKind::StorageWrite,
                    detail: format!("journal read at open: {e}"),
                });
            }
        }

        let mut mode = StoreMode::Durable;
        let file = if journal_readable {
            let attempt: io::Result<Box<dyn VfsFile>> = match resume_at {
                Some(len) => (|| {
                    let mut file = vfs.open_write(&journal_path)?;
                    // Drop the torn tail so appends extend a valid prefix.
                    file.set_len(len)?;
                    file.seek_end()?;
                    Ok(file)
                })(),
                None => (|| {
                    let mut file = vfs.create(&journal_path)?;
                    file.write_all(
                        journal_line(&format!("{JOURNAL_MAGIC} gen {generation}")).as_bytes(),
                    )?;
                    Ok(file)
                })(),
            };
            match attempt {
                Ok(file) => Some(file),
                Err(e) => {
                    open_faults.push(StorageEvent {
                        kind: FaultKind::StorageWrite,
                        detail: format!("journal open: {e}"),
                    });
                    mode = StoreMode::Degraded;
                    None
                }
            }
        } else {
            mode = StoreMode::Degraded;
            None
        };

        let store = TableStore {
            dir,
            vfs,
            inner: Mutex::new(StoreInner {
                file,
                generation,
                appends: 0,
                last_breaker: breaker.code(),
                mode,
                buffered: Vec::new(),
                buffered_dropped: 0,
                recovery_partial: !journal_readable,
            }),
            compact_every: DEFAULT_COMPACT_EVERY,
            write_errors: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            degraded_transitions: AtomicU64::new(0),
            rearms: AtomicU64::new(0),
            dir_sync_unsupported: AtomicBool::new(false),
            events: Mutex::new(Vec::new()),
            events_pending: AtomicBool::new(false),
        };
        for event in open_faults {
            store.note_fault(event.kind, event.detail);
        }
        if mode == StoreMode::Degraded {
            store.degraded_transitions.fetch_add(1, Ordering::Relaxed);
            store.note_event(
                FaultKind::StorageDegraded,
                "opened in degrade-to-memory mode".into(),
            );
        }
        let recovered = Recovered {
            table,
            breaker,
            generation,
            replayed,
            discarded,
        };
        Ok((store, recovered))
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Journal appends between automatic snapshot+compactions.
    pub fn compact_every(&self) -> u64 {
        self.compact_every
    }

    /// Adjusts the auto-compaction threshold (values below 1 are clamped
    /// to 1). Call before sharing the store across threads.
    pub fn set_compact_every(&mut self, every: u64) {
        self.compact_every = every.max(1);
    }

    /// Append or checkpoint failures absorbed on the scheduling path
    /// (persistence is best-effort; scheduling never blocks on disk).
    /// Superseded by the richer [`health`](TableStore::health) but kept
    /// as the stable quick check.
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }

    /// Current journal generation.
    pub fn generation(&self) -> u64 {
        lock(&self.inner).generation
    }

    /// Whether the store is currently in degrade-to-memory mode.
    pub fn is_degraded(&self) -> bool {
        lock(&self.inner).mode == StoreMode::Degraded
    }

    /// Snapshot of the store's storage-health counters.
    pub fn health(&self) -> StoreHealth {
        let inner = lock(&self.inner);
        StoreHealth {
            io_errors: self.io_errors.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            degraded: inner.mode == StoreMode::Degraded,
            degraded_transitions: self.degraded_transitions.load(Ordering::Relaxed),
            rearms: self.rearms.load(Ordering::Relaxed),
            buffered: inner.buffered.len() as u64,
            buffered_dropped: inner.buffered_dropped,
            dir_sync_unsupported: self.dir_sync_unsupported.load(Ordering::Relaxed),
        }
    }

    /// Whether [`take_events`](TableStore::take_events) has anything to
    /// drain — one atomic load, safe on the hot path.
    pub fn has_events(&self) -> bool {
        self.events_pending.load(Ordering::Acquire)
    }

    /// Drains the queued storage events (at most 64 are queued;
    /// overflow drops the newest, counters never lie).
    pub fn take_events(&self) -> Vec<StorageEvent> {
        if !self.events_pending.swap(false, Ordering::AcqRel) {
            return Vec::new();
        }
        std::mem::take(&mut *self.events.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Journals the current state of one kernel's table entry (called
    /// after every accumulation). Triggers an automatic
    /// snapshot+compaction once
    /// [`compact_every`](TableStore::compact_every) appends accumulate.
    pub fn record_entry(&self, table: &KernelTable, kernel: KernelId) {
        let Some(stat) = table.stat(kernel) else {
            return;
        };
        let mut line = String::with_capacity(PUT_LINE_MAX);
        line.push_str("put ");
        push_entry(&mut line, kernel, &stat, table.is_tainted(kernel));
        seal_tail(&mut line, 0);
        let mut inner = lock(&self.inner);
        if let AppendOutcome::DiskFull(line) = self.append(&mut inner, line) {
            // ENOSPC with the table in hand: an emergency
            // snapshot+compaction both frees space (snapshot replaces
            // snapshot + journal) and carries this very mutation.
            let breaker =
                BreakerState::from_code(inner.last_breaker).unwrap_or(BreakerState::Closed);
            if self.compact_locked(&mut inner, table, breaker).is_err() {
                self.write_errors.fetch_add(1, Ordering::Relaxed);
                self.degrade(
                    &mut inner,
                    Some(line),
                    "ENOSPC and emergency compaction failed",
                );
            }
            return;
        }
        inner.appends += 1;
        if inner.appends >= self.compact_every {
            let breaker =
                BreakerState::from_code(inner.last_breaker).unwrap_or(BreakerState::Closed);
            // In durable mode this is routine compaction; in degraded
            // mode it doubles as the re-arm probe (DESIGN.md §16).
            let ok = self.compact_locked(&mut inner, table, breaker).is_ok();
            self.rearm_after(&mut inner, ok);
            if !ok {
                self.write_errors.fetch_add(1, Ordering::Relaxed);
                // Avoid retrying compaction on every subsequent append.
                inner.appends = 0;
            }
        }
    }

    /// Journals a taint mark for a kernel.
    pub fn record_taint(&self, kernel: KernelId) {
        let line = journal_line(&format!("taint {kernel}"));
        let mut inner = lock(&self.inner);
        if let AppendOutcome::DiskFull(line) = self.append(&mut inner, line) {
            // No table in hand, so no emergency compaction here: buffer
            // the line and let the next entry append or checkpoint probe
            // the disk.
            self.degrade(&mut inner, Some(line), "ENOSPC outside the entry path");
        }
    }

    /// Journals a circuit-breaker transition; no-op when the state
    /// matches the last recorded one, so hot paths may call this
    /// unconditionally.
    pub fn record_breaker(&self, state: BreakerState) {
        let mut inner = lock(&self.inner);
        if inner.last_breaker == state.code() {
            return;
        }
        inner.last_breaker = state.code();
        let line = journal_line(&format!("breaker {}", state.code()));
        if let AppendOutcome::DiskFull(line) = self.append(&mut inner, line) {
            self.degrade(&mut inner, Some(line), "ENOSPC outside the entry path");
        }
    }

    /// Writes a fresh snapshot atomically (write-temp, `fsync`, rename)
    /// and resets the journal to the new generation. While degraded,
    /// a successful checkpoint is exactly the re-arm probe: it restores
    /// durability and clears the RAM buffer (superseded by the
    /// snapshot).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; the previous snapshot remains intact (the
    /// rename is the commit point).
    pub fn checkpoint(&self, table: &KernelTable, breaker: BreakerState) -> Result<(), StoreError> {
        let mut inner = lock(&self.inner);
        inner.last_breaker = breaker.code();
        let result = self.compact_locked(&mut inner, table, breaker);
        self.rearm_after(&mut inner, result.is_ok());
        result
    }

    /// Best-effort append of one sealed line; failures are absorbed
    /// (counted, typed, degraded), never raised — except ENOSPC, which
    /// hands the line back so the entry path can compact.
    fn append(&self, inner: &mut StoreInner, line: String) -> AppendOutcome {
        if inner.mode == StoreMode::Degraded {
            self.buffer_line(inner, line);
            return AppendOutcome::Buffered;
        }
        let Some(file) = inner.file.as_mut() else {
            self.degrade(inner, Some(line), "append with no journal handle");
            return AppendOutcome::Buffered;
        };
        match file.write_all(line.as_bytes()) {
            Ok(()) => {
                self.bytes_written
                    .fetch_add(line.len() as u64, Ordering::Relaxed);
                AppendOutcome::Written
            }
            Err(e) => {
                self.write_errors.fetch_add(1, Ordering::Relaxed);
                let disk_full = e.raw_os_error() == Some(28) // ENOSPC
                    || e.kind() == io::ErrorKind::StorageFull;
                self.note_fault(FaultKind::StorageWrite, format!("journal append: {e}"));
                if disk_full {
                    AppendOutcome::DiskFull(line)
                } else {
                    // EIO or a short write: the handle may have torn
                    // bytes on disk. Poison it, rescan the sealed prefix
                    // from disk, and land the line on the fresh handle.
                    if self.resync_handle(inner) {
                        self.append_resynced(inner, line)
                    } else {
                        self.degrade(inner, Some(line), "journal handle lost after write error");
                        AppendOutcome::Buffered
                    }
                }
            }
        }
    }

    /// One append on a freshly resynced handle. No further retries: a
    /// second failure immediately degrades.
    fn append_resynced(&self, inner: &mut StoreInner, line: String) -> AppendOutcome {
        let Some(file) = inner.file.as_mut() else {
            self.degrade(inner, Some(line), "resync produced no handle");
            return AppendOutcome::Buffered;
        };
        match file.write_all(line.as_bytes()) {
            Ok(()) => {
                self.bytes_written
                    .fetch_add(line.len() as u64, Ordering::Relaxed);
                AppendOutcome::Written
            }
            Err(e) => {
                self.write_errors.fetch_add(1, Ordering::Relaxed);
                self.note_fault(FaultKind::StorageWrite, format!("append after resync: {e}"));
                self.degrade(inner, Some(line), "append failed twice");
                AppendOutcome::Buffered
            }
        }
    }

    /// Queues a typed storage event without counting an I/O error
    /// (degradation transitions and tolerated conditions).
    fn note_event(&self, kind: FaultKind, detail: String) {
        let mut events = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        if events.len() < MAX_EVENTS {
            events.push(StorageEvent { kind, detail });
        }
        self.events_pending.store(true, Ordering::Release);
    }

    /// Counts an I/O error and queues its typed event.
    fn note_fault(&self, kind: FaultKind, detail: String) {
        self.io_errors.fetch_add(1, Ordering::Relaxed);
        self.note_event(kind, detail);
    }

    /// Trips the store into degrade-to-memory mode (idempotent) and
    /// buffers the line that had nowhere safe to go.
    fn degrade(&self, inner: &mut StoreInner, line: Option<String>, why: &str) {
        if inner.mode != StoreMode::Degraded {
            inner.mode = StoreMode::Degraded;
            inner.file = None;
            self.degraded_transitions.fetch_add(1, Ordering::Relaxed);
            self.note_event(
                FaultKind::StorageDegraded,
                format!("degrade-to-memory: {why}"),
            );
        }
        if let Some(line) = line {
            self.buffer_line(inner, line);
        }
    }

    /// Restores durability after a successful compaction while degraded.
    /// Buffered lines are *dropped*, not flushed: they predate the
    /// snapshot that just committed, and replaying absolute `put`s on
    /// top of it at recovery would regress newer state.
    fn rearm_after(&self, inner: &mut StoreInner, compacted: bool) {
        if compacted && inner.mode == StoreMode::Degraded {
            inner.mode = StoreMode::Durable;
            inner.buffered.clear();
            self.rearms.fetch_add(1, Ordering::Relaxed);
            self.note_event(
                FaultKind::StorageDegraded,
                "durability re-armed after compaction".into(),
            );
        }
    }

    /// Bounded RAM buffering while degraded: at the cap the *oldest*
    /// line drops (puts carry absolute state, so newest wins).
    fn buffer_line(&self, inner: &mut StoreInner, line: String) {
        if inner.buffered.len() >= MAX_BUFFERED_LINES {
            inner.buffered.remove(0);
            inner.buffered_dropped += 1;
        }
        inner.buffered.push(line);
    }

    /// Re-derives a clean journal handle after a poisoned write or
    /// fsync: re-reads the snapshot generation and the journal's sealed
    /// prefix *from disk*, truncates the tail, and resumes there. Never
    /// retries on the old descriptor (fsyncgate). Returns `false` when
    /// the disk refuses — the caller degrades.
    fn resync_handle(&self, inner: &mut StoreInner) -> bool {
        inner.file = None;
        let journal_path = self.dir.join(JOURNAL_FILE);
        let attempt = (|| -> io::Result<(Box<dyn VfsFile>, u64)> {
            let snap_gen = match self.vfs.read(&self.dir.join(SNAPSHOT_FILE)) {
                Ok(bytes) => table_from_text(&String::from_utf8_lossy(&bytes))
                    .map(|(_, _, generation)| generation)
                    .map_err(|e| {
                        io::Error::new(io::ErrorKind::InvalidData, format!("snapshot: {e}"))
                    })?,
                Err(e) if e.kind() == io::ErrorKind::NotFound => 0,
                Err(e) => return Err(e),
            };
            let resume = match self.vfs.read(&journal_path) {
                Ok(bytes) => {
                    let text = String::from_utf8_lossy(&bytes);
                    let scan = scan_journal(&text);
                    (scan.gen == Some(snap_gen)).then_some(scan.valid_len as u64)
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => None,
                Err(e) => return Err(e),
            };
            let file = match resume {
                Some(len) => {
                    let mut file = self.vfs.open_write(&journal_path)?;
                    file.set_len(len)?;
                    file.seek_end()?;
                    file
                }
                None => {
                    let mut file = self.vfs.create(&journal_path)?;
                    file.write_all(
                        journal_line(&format!("{JOURNAL_MAGIC} gen {snap_gen}")).as_bytes(),
                    )?;
                    file
                }
            };
            Ok((file, snap_gen))
        })();
        match attempt {
            Ok((file, generation)) => {
                inner.file = Some(file);
                inner.generation = generation;
                true
            }
            Err(e) => {
                self.note_fault(FaultKind::StorageWrite, format!("journal resync: {e}"));
                false
            }
        }
    }

    /// Directory fsync with the §16 classification: unsupported mounts
    /// are tolerated (noted once — they could never make renames
    /// power-loss-durable anyway); real failures propagate so the
    /// checkpoint reports honestly.
    /// When open could not *read* the journal, records the caller's
    /// table never saw may still be sitting on disk — and compaction is
    /// about to reset that file. Recover them first: puts land only for
    /// kernels the live table does not hold (the journal's values
    /// predate this life, so a fresh in-memory value always wins),
    /// taints always re-apply (quarantine is the safe direction). If
    /// the journal *still* will not read, the compaction is refused:
    /// returning `Err` leaves the previous snapshot + journal intact
    /// and loadable, which beats durably committing silent loss.
    fn merge_unread_journal(
        &self,
        inner: &mut StoreInner,
        table: &KernelTable,
    ) -> Result<(), StoreError> {
        match self.vfs.read(&self.dir.join(JOURNAL_FILE)) {
            Ok(bytes) => {
                let text = String::from_utf8_lossy(&bytes);
                let scan = scan_journal(&text);
                if scan.gen == Some(inner.generation) {
                    for record in scan.records {
                        match record {
                            JournalRecord::Put {
                                kernel,
                                stat,
                                tainted,
                            } => {
                                if table.stat(kernel).is_none() {
                                    table.insert(kernel, stat);
                                    if tainted {
                                        table.taint(kernel);
                                    }
                                }
                            }
                            JournalRecord::Taint(kernel) => table.taint(kernel),
                            JournalRecord::Breaker(_) => {}
                        }
                    }
                }
                inner.recovery_partial = false;
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                inner.recovery_partial = false;
                Ok(())
            }
            Err(e) => {
                self.note_fault(
                    FaultKind::StorageWrite,
                    format!("compaction refused, unread journal still unreadable: {e}"),
                );
                Err(StoreError::Io(e))
            }
        }
    }

    fn sync_dir_counted(&self) -> io::Result<()> {
        match classify_dir_sync(self.vfs.sync_dir(&self.dir)) {
            DirSyncOutcome::Synced => Ok(()),
            DirSyncOutcome::Unsupported => {
                if !self.dir_sync_unsupported.swap(true, Ordering::Relaxed) {
                    self.note_event(
                        FaultKind::StorageSync,
                        "directory fsync unsupported on this filesystem (tolerated)".into(),
                    );
                }
                Ok(())
            }
            DirSyncOutcome::Failed(e) => Err(e),
        }
    }

    fn compact_locked(
        &self,
        inner: &mut StoreInner,
        table: &KernelTable,
        breaker: BreakerState,
    ) -> Result<(), StoreError> {
        if inner.recovery_partial {
            self.merge_unread_journal(inner, table)?;
        }
        let generation = inner.generation + 1;
        let text = table_to_text(table, breaker, generation);
        let tmp = self.dir.join("table.snap.tmp");
        // Once the rename commits, the *old* journal is stale (its
        // generation lags the snapshot) and the live handle must not be
        // reused; track where the failure landed.
        let mut renamed = false;
        let mut step = "write snapshot temp";
        let result = (|| -> io::Result<Box<dyn VfsFile>> {
            {
                let mut f = self.vfs.create(&tmp)?;
                step = "fill snapshot temp";
                f.write_all(text.as_bytes())?;
                step = "fsync snapshot temp";
                f.sync_all()?;
            }
            // The commit point: a crash before this rename leaves the old
            // snapshot + full journal; after it, the journal is stale (its
            // generation lags) and recovery ignores it.
            step = "rename snapshot";
            self.vfs.rename(&tmp, &self.dir.join(SNAPSHOT_FILE))?;
            renamed = true;
            // A rename is durable only once its *directory* is synced:
            // without this fsync, a power loss after the rename could
            // resurrect the old snapshot beside the new-generation journal
            // written below — a pair recovery refuses with
            // `GenerationAhead` (the journal claims a base the snapshot no
            // longer holds).
            step = "fsync directory";
            self.sync_dir_counted()?;
            step = "reset journal";
            let mut file = self.vfs.create(&self.dir.join(JOURNAL_FILE))?;
            step = "write journal header";
            file.write_all(journal_line(&format!("{JOURNAL_MAGIC} gen {generation}")).as_bytes())?;
            step = "fsync journal";
            file.sync_all()?;
            // Same reasoning for the journal reset: the first compaction
            // *creates* the directory entry, and its durability needs the
            // directory synced too.
            step = "fsync directory after reset";
            self.sync_dir_counted()?;
            Ok(file)
        })();
        match result {
            Ok(file) => {
                self.bytes_written
                    .fetch_add(text.len() as u64, Ordering::Relaxed);
                inner.file = Some(file);
                inner.generation = generation;
                inner.appends = 0;
                Ok(())
            }
            Err(e) => {
                let kind = if step.contains("fsync") {
                    FaultKind::StorageSync
                } else {
                    FaultKind::StorageWrite
                };
                self.note_fault(kind, format!("compaction, {step}: {e}"));
                if renamed {
                    // The snapshot committed but something after it
                    // failed: the old handle now points at a stale (or
                    // truncated) journal. Poison it and re-derive from
                    // the new on-disk state; if even that fails, degrade.
                    if !self.resync_handle(inner) {
                        self.degrade(inner, None, "journal lost after snapshot commit");
                    } else {
                        inner.appends = 0;
                    }
                }
                Err(StoreError::Io(e))
            }
        }
    }
}

/// Classification of a directory-fsync result: some mounts (network
/// filesystems, FUSE) cannot sync a directory handle at all and report
/// `EINVAL`/`ENOTSUP` — a capability gap, not a failing disk. POSIX
/// makes *file* fsync say nothing about the directory entry, so on such
/// mounts renames are simply never power-loss-durable and the store
/// tolerates (but notes) it. Everything else is a real error.
#[derive(Debug)]
enum DirSyncOutcome {
    /// The directory entry is durable.
    Synced,
    /// This filesystem cannot fsync directories (tolerated, noted once).
    Unsupported,
    /// A real sync failure — propagated to the caller.
    Failed(io::Error),
}

fn classify_dir_sync(result: io::Result<()>) -> DirSyncOutcome {
    match result {
        Ok(()) => DirSyncOutcome::Synced,
        Err(e) if e.raw_os_error() == Some(22) => DirSyncOutcome::Unsupported, // EINVAL
        Err(e) if e.raw_os_error() == Some(95) => DirSyncOutcome::Unsupported, // ENOTSUP
        Err(e) if e.kind() == io::ErrorKind::Unsupported => DirSyncOutcome::Unsupported,
        Err(e) => DirSyncOutcome::Failed(e),
    }
}

/// Result of scanning a journal file: the records of the valid prefix
/// and where that prefix ends.
struct JournalScan {
    /// Header generation, if the header line validated.
    gen: Option<u64>,
    records: Vec<JournalRecord>,
    /// Byte length of the valid prefix (header + intact records).
    valid_len: usize,
    /// Lines abandoned after the first invalid one.
    discarded: u64,
}

/// Walks the journal line by line, stopping at the first line that is
/// torn (no trailing newline), fails its digest, or fails to parse.
fn scan_journal(text: &str) -> JournalScan {
    let mut scan = JournalScan {
        gen: None,
        records: Vec::new(),
        valid_len: 0,
        discarded: 0,
    };
    let mut offset = 0usize;
    let mut lines = text.split_inclusive('\n');
    for line in &mut lines {
        let intact = line.ends_with('\n');
        let parsed = intact
            .then(|| unseal_line(line))
            .flatten()
            .and_then(|body| {
                if scan.gen.is_none() {
                    let gen = body
                        .strip_prefix(JOURNAL_MAGIC)?
                        .trim()
                        .strip_prefix("gen ")?
                        .trim()
                        .parse()
                        .ok()?;
                    scan.gen = Some(gen);
                    Some(())
                } else {
                    scan.records.push(parse_record(body)?);
                    Some(())
                }
            });
        if parsed.is_none() {
            scan.discarded += 1;
            break;
        }
        offset += line.len();
    }
    scan.discarded += lines.count() as u64;
    scan.valid_len = offset;
    scan
}

/// Parses one verified journal record body.
fn parse_record(body: &str) -> Option<JournalRecord> {
    let mut tokens = body.split_whitespace();
    match tokens.next()? {
        "put" => {
            let (kernel, stat, tainted) = parse_entry(&mut tokens, true).ok()?;
            Some(JournalRecord::Put {
                kernel,
                stat,
                tainted,
            })
        }
        "taint" => {
            let kernel = tokens.next()?.parse().ok()?;
            tokens
                .next()
                .is_none()
                .then_some(JournalRecord::Taint(kernel))
        }
        "breaker" => {
            let code: u8 = tokens.next()?.parse().ok()?;
            let state = BreakerState::from_code(code)?;
            tokens
                .next()
                .is_none()
                .then_some(JournalRecord::Breaker(state))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eas::Accumulation;
    use easched_runtime::vfs::{ChaosFs, ChaosFsPlan, StorageFault};
    use easched_runtime::TickClock;
    use std::fs;
    use std::sync::atomic::AtomicU32;

    /// A unique, self-cleaning store directory per test.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new() -> TempDir {
            static SEQ: AtomicU32 = AtomicU32::new(0);
            let dir = std::env::temp_dir().join(format!(
                "easched_store_{}_{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn learned_table() -> KernelTable {
        let t = KernelTable::new();
        t.accumulate(7, 2.0 / 3.0, 50_000.0, Accumulation::SampleWeighted);
        t.accumulate(1, 0.0, 17.0, Accumulation::SampleWeighted);
        t.accumulate(900, 1.0, 1e9, Accumulation::SampleWeighted);
        t.note_reuse(7);
        t.taint(900);
        t
    }

    #[test]
    fn fresh_store_starts_empty() {
        let dir = TempDir::new();
        let (store, recovered) = TableStore::open(dir.path()).unwrap();
        assert!(recovered.table.is_empty());
        assert_eq!(recovered.breaker, BreakerState::Closed);
        assert_eq!(recovered.generation, 0);
        assert_eq!(recovered.replayed, 0);
        assert_eq!(store.write_errors(), 0);
    }

    #[test]
    fn journal_replay_recovers_entries_taint_and_breaker() {
        let dir = TempDir::new();
        let table = learned_table();
        {
            let (store, _) = TableStore::open(dir.path()).unwrap();
            for (k, _, _) in table.snapshot_with_taint() {
                store.record_entry(&table, k);
            }
            store.record_taint(7);
            store.record_breaker(BreakerState::Open);
            // kill -9: the store is dropped without a checkpoint.
        }
        let (_, recovered) = TableStore::open(dir.path()).unwrap();
        assert_eq!(recovered.table.snapshot(), table.snapshot());
        assert!(recovered.table.is_tainted(900), "taint from put record");
        assert!(recovered.table.is_tainted(7), "taint record replayed");
        assert_eq!(recovered.breaker, BreakerState::Open);
        assert_eq!(recovered.replayed, 5);
        assert_eq!(recovered.discarded, 0);
    }

    #[test]
    fn checkpoint_compacts_and_survives_reopen() {
        let dir = TempDir::new();
        let table = learned_table();
        {
            let (store, _) = TableStore::open(dir.path()).unwrap();
            for (k, _, _) in table.snapshot_with_taint() {
                store.record_entry(&table, k);
            }
            store.checkpoint(&table, BreakerState::HalfOpen).unwrap();
            assert_eq!(store.generation(), 1);
        }
        let journal = fs::read_to_string(dir.path().join(JOURNAL_FILE)).unwrap();
        assert_eq!(journal.lines().count(), 1, "journal reset to header only");
        let (_, recovered) = TableStore::open(dir.path()).unwrap();
        assert_eq!(recovered.table.snapshot(), table.snapshot());
        assert!(recovered.table.is_tainted(900));
        assert_eq!(recovered.breaker, BreakerState::HalfOpen);
        assert_eq!(recovered.generation, 1);
        assert_eq!(recovered.replayed, 0);
    }

    #[test]
    fn auto_compaction_fires_at_threshold() {
        let dir = TempDir::new();
        let table = learned_table();
        let (mut store, _) = TableStore::open(dir.path()).unwrap();
        store.set_compact_every(4);
        for _ in 0..4 {
            store.record_entry(&table, 7);
        }
        assert_eq!(store.generation(), 1, "4th append compacted");
        let (_, recovered) = TableStore::open(dir.path()).unwrap();
        assert_eq!(recovered.generation, 1);
        assert_eq!(recovered.table.lookup(7), table.lookup(7));
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = TempDir::new();
        let table = learned_table();
        {
            let (store, _) = TableStore::open(dir.path()).unwrap();
            store.record_entry(&table, 7);
            store.record_entry(&table, 1);
        }
        let path = dir.path().join(JOURNAL_FILE);
        let full = fs::read(&path).unwrap();
        // Tear mid-way through the final record.
        fs::write(&path, &full[..full.len() - 7]).unwrap();
        let (store, recovered) = TableStore::open(dir.path()).unwrap();
        assert_eq!(recovered.replayed, 1);
        assert_eq!(recovered.discarded, 1);
        assert_eq!(recovered.table.lookup(7), table.lookup(7));
        assert_eq!(recovered.table.lookup(1), None, "torn record lost");
        // Appends after recovery extend the truncated prefix cleanly.
        store.record_entry(&recovered.table, 7);
        drop(store);
        let (_, again) = TableStore::open(dir.path()).unwrap();
        assert_eq!(again.replayed, 2);
        assert_eq!(again.discarded, 0);
    }

    #[test]
    fn corrupt_line_forfeits_suffix_only() {
        let dir = TempDir::new();
        let table = learned_table();
        {
            let (store, _) = TableStore::open(dir.path()).unwrap();
            store.record_entry(&table, 7);
            store.record_entry(&table, 1);
            store.record_entry(&table, 900);
        }
        let path = dir.path().join(JOURNAL_FILE);
        let mut bytes = fs::read(&path).unwrap();
        // Flip one bit in the *second* record (line 3 of the file).
        let line_starts: Vec<usize> = std::iter::once(0)
            .chain(
                bytes
                    .iter()
                    .enumerate()
                    .filter(|(_, &b)| b == b'\n')
                    .map(|(i, _)| i + 1),
            )
            .collect();
        bytes[line_starts[2] + 4] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let (_, recovered) = TableStore::open(dir.path()).unwrap();
        assert_eq!(recovered.replayed, 1, "only the intact prefix replays");
        assert_eq!(recovered.discarded, 2, "flipped line and everything after");
        assert_eq!(recovered.table.lookup(7), table.lookup(7));
    }

    #[test]
    fn stale_journal_is_ignored_after_snapshot() {
        let dir = TempDir::new();
        let table = learned_table();
        {
            let (store, _) = TableStore::open(dir.path()).unwrap();
            store.record_entry(&table, 7);
            store.checkpoint(&table, BreakerState::Closed).unwrap();
        }
        // Simulate the crash window: restore a pre-checkpoint journal
        // (generation 0) next to the generation-1 snapshot.
        let path = dir.path().join(JOURNAL_FILE);
        let mut text = journal_line(&format!("{JOURNAL_MAGIC} gen 0"));
        text.push_str(&journal_line(
            "put 5 alpha 5e-1 weight 1e0 seen 0 tainted 0",
        ));
        fs::write(&path, text).unwrap();
        let (_, recovered) = TableStore::open(dir.path()).unwrap();
        assert_eq!(recovered.generation, 1);
        assert_eq!(recovered.replayed, 0, "stale journal ignored");
        assert_eq!(
            recovered.table.lookup(5),
            None,
            "its mutations are already in the snapshot lineage"
        );
        assert_eq!(recovered.table.snapshot(), table.snapshot());
    }

    #[test]
    fn journal_ahead_of_snapshot_is_refused() {
        let dir = TempDir::new();
        let path = dir.path().join(JOURNAL_FILE);
        fs::write(&path, journal_line(&format!("{JOURNAL_MAGIC} gen 3"))).unwrap();
        let err = TableStore::open(dir.path()).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::GenerationAhead {
                    journal: 3,
                    snapshot: 0
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("ahead"));
    }

    #[test]
    fn v2_snapshot_migrates() {
        let dir = TempDir::new();
        // `learned_table()` as the retired v2 writer sealed it.
        fs::write(
            dir.path().join(SNAPSHOT_FILE),
            "easched-kernel-table v2\n\
             kernel 1 alpha 0e0 weight 1.7e1 seen 0\n\
             kernel 7 alpha 6.666666666666665e-1 weight 5e4 seen 1\n\
             kernel 900 alpha 1e0 weight 1e9 seen 0\n\
             checksum 50a8e97575c5ee69\n",
        )
        .unwrap();
        let (_, recovered) = TableStore::open(dir.path()).unwrap();
        assert_eq!(recovered.table.snapshot(), learned_table().snapshot());
        assert_eq!(recovered.generation, 0);
        assert_eq!(recovered.breaker, BreakerState::Closed);
        assert!(
            !recovered.table.is_tainted(900),
            "v2 carried no taint state"
        );
    }

    #[test]
    fn corrupt_snapshot_is_fatal() {
        let dir = TempDir::new();
        let table = learned_table();
        {
            let (store, _) = TableStore::open(dir.path()).unwrap();
            store.checkpoint(&table, BreakerState::Closed).unwrap();
        }
        let path = dir.path().join(SNAPSHOT_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        let err = TableStore::open(dir.path()).unwrap_err();
        assert!(matches!(err, StoreError::Snapshot(_)), "{err}");
    }

    #[test]
    fn breaker_transitions_deduplicate() {
        let dir = TempDir::new();
        let (store, _) = TableStore::open(dir.path()).unwrap();
        store.record_breaker(BreakerState::Closed); // already the default
        store.record_breaker(BreakerState::Open);
        store.record_breaker(BreakerState::Open);
        store.record_breaker(BreakerState::Closed);
        drop(store);
        let text = fs::read_to_string(dir.path().join(JOURNAL_FILE)).unwrap();
        assert_eq!(
            text.lines().filter(|l| l.starts_with("breaker")).count(),
            2,
            "{text}"
        );
    }

    #[test]
    fn snapshot_text_is_stable_and_checksummed() {
        let text = table_to_text(&learned_table(), BreakerState::Open, 7);
        assert!(text.starts_with("easched-kernel-table v3\ngeneration 7\nbreaker 1\n"));
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("checksum "), "{last}");
        let (table, breaker, generation) = table_from_text(&text).unwrap();
        assert_eq!(table.snapshot(), learned_table().snapshot());
        assert!(table.is_tainted(900));
        assert_eq!(breaker, BreakerState::Open);
        assert_eq!(generation, 7);
    }

    /// A chaos store over `dir` with the given plan (seed fixed: the
    /// schedules below pin exact operation indices).
    fn chaos_store(dir: &Path, plan: ChaosFsPlan) -> (TableStore, Recovered, ChaosFs) {
        let vfs = ChaosFs::new(42, plan, Arc::new(TickClock::new()));
        let (store, recovered) =
            TableStore::open_with(dir, Arc::new(vfs.clone())).expect("open never fails on writes");
        (store, recovered, vfs)
    }

    #[test]
    fn classify_dir_sync_distinguishes_unsupported_from_failure() {
        assert!(matches!(classify_dir_sync(Ok(())), DirSyncOutcome::Synced));
        // EINVAL, ENOTSUP, and ErrorKind::Unsupported are capability
        // gaps: tolerated.
        for err in [
            io::Error::from_raw_os_error(22),
            io::Error::from_raw_os_error(95),
            io::Error::new(io::ErrorKind::Unsupported, "no dir fsync here"),
        ] {
            assert!(
                matches!(classify_dir_sync(Err(err)), DirSyncOutcome::Unsupported),
                "capability gap must be tolerated"
            );
        }
        // A real EIO propagates.
        let DirSyncOutcome::Failed(e) = classify_dir_sync(Err(io::Error::from_raw_os_error(5)))
        else {
            panic!("EIO is a real failure");
        };
        assert_eq!(e.raw_os_error(), Some(5));
    }

    #[test]
    fn dir_sync_unsupported_is_tolerated_and_noted_once() {
        let dir = TempDir::new();
        let plan = ChaosFsPlan {
            dir_sync_unsupported: true,
            ..ChaosFsPlan::default()
        };
        let (store, _, _) = chaos_store(dir.path(), plan);
        let table = learned_table();
        store
            .checkpoint(&table, BreakerState::Closed)
            .expect("tolerated");
        store
            .checkpoint(&table, BreakerState::Closed)
            .expect("tolerated");
        let health = store.health();
        assert!(health.dir_sync_unsupported);
        assert_eq!(health.io_errors, 0, "a capability gap is not an I/O error");
        let syncs = store
            .take_events()
            .into_iter()
            .filter(|e| e.kind == FaultKind::StorageSync)
            .count();
        assert_eq!(syncs, 1, "noted once across four dir syncs");
    }

    #[test]
    fn every_fsync_point_in_a_checkpoint_propagates_failure() {
        // Open consumes ops 0..=3 on a fresh dir (2 reads, create,
        // header write); a checkpoint spans the 9 ops after it. Schedule
        // an fsync failure at each op: exactly the four sync points
        // (snapshot fsync, dir fsync, journal fsync, dir fsync again)
        // must fail the checkpoint — syncs are never silently absorbed.
        let mut failures = 0;
        for op in 4..13 {
            let dir = TempDir::new();
            let (store, _, _) =
                chaos_store(dir.path(), ChaosFsPlan::at(op, StorageFault::FsyncFail));
            if store
                .checkpoint(&learned_table(), BreakerState::Closed)
                .is_err()
            {
                failures += 1;
            }
            // Whatever happened, the store must still be usable and the
            // on-disk state loadable.
            store.record_entry(&learned_table(), 7);
            let (_, recovered) = TableStore::open(dir.path()).expect("loadable");
            assert_eq!(recovered.table.lookup(7), learned_table().lookup(7));
        }
        assert_eq!(failures, 4, "one per fsync point, no more, no less");
    }

    #[test]
    fn enospc_on_append_triggers_emergency_compaction() {
        let dir = TempDir::new();
        let table = learned_table();
        // Op 4 is the first journal append after a fresh open.
        let (store, _, _) = chaos_store(dir.path(), ChaosFsPlan::at(4, StorageFault::Enospc));
        store.record_entry(&table, 7);
        assert!(!store.is_degraded(), "compaction freed the disk");
        assert_eq!(store.generation(), 1, "emergency snapshot committed");
        assert!(store.health().io_errors >= 1);
        let (_, recovered) = TableStore::open(dir.path()).expect("loadable");
        assert_eq!(
            recovered.table.lookup(7),
            table.lookup(7),
            "the failed mutation rode the emergency snapshot"
        );
    }

    #[test]
    fn persistent_enospc_degrades_then_checkpoint_rearms() {
        let dir = TempDir::new();
        let table = learned_table();
        // Append fails with ENOSPC *and* the emergency compaction's
        // temp-file create fails right after: degrade-to-memory.
        let plan = ChaosFsPlan {
            schedule: vec![(4, StorageFault::Enospc), (5, StorageFault::Enospc)],
            ..ChaosFsPlan::default()
        };
        let (store, _, _) = chaos_store(dir.path(), plan);
        store.record_entry(&table, 7);
        assert!(store.is_degraded());
        store.record_entry(&table, 1);
        // As in the profile loop, the table is tainted alongside the
        // journal record — the re-arm snapshot carries it even though
        // the buffered line is superseded.
        table.taint(7);
        store.record_taint(7);
        let health = store.health();
        assert_eq!(health.degraded_transitions, 1);
        assert_eq!(health.buffered, 3, "mutations buffer in RAM while degraded");
        // The disk "clears" (the schedule is exhausted): an explicit
        // checkpoint is the re-arm probe.
        store
            .checkpoint(&table, BreakerState::Closed)
            .expect("re-arm");
        let health = store.health();
        assert!(!health.degraded);
        assert_eq!(health.rearms, 1);
        assert_eq!(health.buffered, 0, "superseded by the snapshot");
        store.record_entry(&table, 900);
        let (_, recovered) = TableStore::open(dir.path()).expect("loadable");
        assert_eq!(recovered.table.snapshot(), table.snapshot());
        assert!(recovered.table.is_tainted(7), "taint survived via snapshot");
    }

    #[test]
    fn short_write_poisons_handle_and_resyncs_to_sealed_prefix() {
        let dir = TempDir::new();
        let table = learned_table();
        let (store, _, _) = chaos_store(dir.path(), ChaosFsPlan::at(4, StorageFault::ShortWrite));
        store.record_entry(&table, 7); // torn on disk, then resynced + relanded
        store.record_entry(&table, 1);
        assert!(!store.is_degraded());
        assert_eq!(store.health().io_errors, 1);
        drop(store);
        let (_, recovered) = TableStore::open(dir.path()).expect("loadable");
        assert_eq!(recovered.discarded, 0, "the torn bytes were truncated away");
        assert_eq!(recovered.replayed, 2);
        assert_eq!(recovered.table.lookup(7), table.lookup(7));
        assert_eq!(recovered.table.lookup(1), table.lookup(1));
    }

    #[test]
    fn unreadable_journal_opens_degraded_not_fatal() {
        let dir = TempDir::new();
        let table = learned_table();
        {
            let (store, _) = TableStore::open(dir.path()).unwrap();
            store.checkpoint(&table, BreakerState::Closed).unwrap();
        }
        // Snapshot read (op 0) is fine; journal read (op 1) EIOs.
        let (store, recovered, _) = chaos_store(dir.path(), ChaosFsPlan::at(1, StorageFault::Eio));
        assert!(store.is_degraded(), "journal unreadable: degraded open");
        assert_eq!(
            recovered.table.snapshot(),
            table.snapshot(),
            "the snapshot alone still recovers the table"
        );
        // And the store can still re-arm once the disk behaves.
        store
            .checkpoint(&table, BreakerState::Closed)
            .expect("re-arm");
        assert!(!store.is_degraded());
    }

    #[test]
    fn storage_events_drain_once_and_are_typed() {
        let dir = TempDir::new();
        let (store, _, _) = chaos_store(dir.path(), ChaosFsPlan::at(4, StorageFault::Enospc));
        assert!(!store.has_events());
        store.record_entry(&learned_table(), 7);
        assert!(store.has_events());
        let events = store.take_events();
        assert!(events.iter().any(|e| e.kind == FaultKind::StorageWrite));
        assert!(!store.has_events());
        assert!(store.take_events().is_empty(), "drained");
    }
}
