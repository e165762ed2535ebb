//! What a timed loop hands back, and the set-up every workload shares.

use crate::stats::{self, Histogram};
use easched_core::{characterize, CharacterizationConfig, EasConfig, Objective, PowerModel};
use easched_runtime::vfs::{StdFs, Vfs, VfsFile};
use easched_sim::Platform;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Per-operation wall times: every call for the fast loops, one value
/// per timed unit (a storm, a fleet run) for the slow ones.
#[derive(Debug, Clone)]
pub enum Samples {
    Hist(Histogram),
    Few(Vec<f64>),
}

impl Samples {
    pub fn count(&self) -> u64 {
        match self {
            Samples::Hist(h) => h.count(),
            Samples::Few(v) => v.len() as u64,
        }
    }

    pub fn percentile(&self, p: f64) -> f64 {
        match self {
            Samples::Hist(h) => h.percentile(p),
            Samples::Few(v) => {
                let mut v = v.clone();
                v.sort_by(f64::total_cmp);
                if p == 50.0 {
                    stats::median(&v)
                } else {
                    stats::percentile_sorted(&v, p)
                }
            }
        }
    }

    pub fn p50(&self) -> f64 {
        self.percentile(50.0)
    }

    /// The tail percentile the sample count supports, and its value.
    pub fn tail(&self) -> (f64, f64) {
        let p = stats::tail_percentile(self.count()).unwrap_or(50.0);
        (p, self.percentile(p))
    }
}

/// One workload's timed loop, plus its output checks.
#[derive(Debug)]
pub struct Measured {
    /// Operations completed in the timed window (invocations, storm
    /// requests, fleet ticks).
    pub ops: u64,
    /// Wall seconds the window lasted.
    pub seconds: f64,
    /// Throughput of each sub-window of the run (a fixed stretch of
    /// wall time, a profile-cold pass, a storm, a fleet run), 1/s.
    pub window_rates: Vec<f64>,
    /// Wall ns per operation.
    pub op_ns: Samples,
    /// Output checks made (outside the timed window) and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Workload facts worth printing next to the metrics.
    pub notes: Vec<(String, String)>,
}

impl Measured {
    pub fn new(ops: u64, seconds: f64, op_ns: Samples) -> Measured {
        Measured {
            ops,
            seconds,
            window_rates: Vec::new(),
            op_ns,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Counts one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.tally(1, u64::from(!ok), what);
    }

    /// Counts `attempted` output checks of which `failed` failed.
    pub fn tally(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.failures.len() < 16 {
            self.failures.push(what());
        }
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Median sub-window throughput, which a transient stall of the
    /// host moves less than the whole-run mean; the mean where the run
    /// had fewer than three sub-windows.
    pub fn ops_per_s(&self) -> f64 {
        if self.window_rates.len() >= 3 {
            stats::median(&self.window_rates)
        } else {
            self.ops as f64 / self.seconds
        }
    }
}

/// When a timed loop ends: at a wall-clock deadline, or after a fixed
/// number of calls (the traced replays, whose span buffers must stay
/// bounded).
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    At(Instant),
    Calls(u64),
}

impl Stop {
    pub fn reached(self, now: Instant, calls: u64) -> bool {
        match self {
            Stop::At(t) => now >= t,
            Stop::Calls(n) => calls >= n,
        }
    }
}

/// How many timed units (storms, fleet runs) a run of `seconds` makes:
/// whole rounds over the `roots` inputs, about one round per
/// `round_s` seconds at the speed the unit size was tuned on. The count
/// depends on `--seconds` alone, not on how fast the build or the host
/// is, so a faster build runs the same inputs and reports the same tail
/// percentile.
pub fn units(seconds: f64, round_s: f64, roots: usize) -> usize {
    ((seconds / round_s).round() as usize).max(1) * roots
}

/// A deadline `seconds` from now.
pub fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}

/// The platform every single-node workload runs on.
pub fn platform() -> Platform {
    Platform::haswell_desktop()
}

/// The characterized power model of [`platform`].
pub fn model() -> PowerModel {
    characterize(&platform(), &CharacterizationConfig::default())
}

/// The paper's EDP configuration with periodic re-profiling off, so a
/// learned kernel takes the pure Fig 7 reuse path on every call.
pub fn pure_reuse_config() -> EasConfig {
    EasConfig {
        reprofile_every: None,
        ..EasConfig::new(Objective::EnergyDelay)
    }
}

/// A scratch directory for journals and logs, removed on drop.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(root: &Path, name: &str) -> Scratch {
        let dir = root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("benchmark scratch directory is writable");
        Scratch(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// FNV-1a fold of 64-bit words, for output digests.
pub fn fold(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The real filesystem without its durability syncs: every journal
/// write, rename and truncate reaches the kernel, but `fsync` of files
/// and directories returns at once. On a host whose disk is shared, one
/// `fsync` takes from under a millisecond to several, and that swing
/// would swamp the scheduler cost a workload exists to measure.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoSyncFs;

#[derive(Debug)]
struct NoSyncFile(Box<dyn VfsFile>);

impl VfsFile for NoSyncFile {
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        self.0.write_all(buf)
    }
    fn sync_all(&mut self) -> std::io::Result<()> {
        Ok(())
    }
    fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        self.0.set_len(len)
    }
    fn seek_end(&mut self) -> std::io::Result<u64> {
        self.0.seek_end()
    }
}

impl Vfs for NoSyncFs {
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        StdFs.create_dir_all(dir)
    }
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        StdFs.read(path)
    }
    fn create(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(NoSyncFile(StdFs.create(path)?)))
    }
    fn open_write(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(NoSyncFile(StdFs.open_write(path)?)))
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        StdFs.rename(from, to)
    }
    fn sync_dir(&self, _dir: &Path) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_count_depends_on_seconds_alone_in_whole_rounds() {
        assert_eq!(units(15.0, 15.0, 40), 40);
        assert_eq!(units(1.0, 15.0, 40), 40);
        assert_eq!(units(30.0, 15.0, 40), 80);
        assert_eq!(units(15.0, 3.0, 8), 40);
    }
}
