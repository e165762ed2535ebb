//! What a result was measured on: the host fingerprint (CPU model,
//! logical CPUs, compiler) and the source revision, plus the process's
//! peak resident set.

use crate::json::Json;
use std::path::Path;
use std::process::Command;

/// The host a result was measured on, and the code it measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub cpu_model: String,
    pub nproc: u64,
    pub rustc: String,
    /// `git rev-parse HEAD` where the checkout is a git repository,
    /// otherwise `src-<digest>` over the workspace sources.
    pub commit: String,
}

impl Fingerprint {
    /// Probes the running host; `root` is the repository checkout.
    pub fn probe(root: &Path) -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
        let rustc = command_line("rustc", &["-V"], root).unwrap_or_else(|| "unknown".into());
        let commit = command_line("git", &["rev-parse", "HEAD"], root)
            .unwrap_or_else(|| format!("src-{:016x}", source_digest(root)));
        Fingerprint {
            cpu_model,
            nproc,
            rustc,
            commit,
        }
    }

    /// The fields that decide whether two results may be compared:
    /// everything but the commit, which is what a comparison varies.
    pub fn host_key(&self) -> (&str, u64, &str) {
        (&self.cpu_model, self.nproc, &self.rustc)
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("cpu_model".into(), Json::Str(self.cpu_model.clone())),
            ("nproc".into(), Json::Num(self.nproc as f64)),
            ("rustc".into(), Json::Str(self.rustc.clone())),
            ("commit".into(), Json::Str(self.commit.clone())),
        ])
    }

    pub fn from_json(v: &Json) -> Option<Fingerprint> {
        Some(Fingerprint {
            cpu_model: v.get("cpu_model")?.as_str()?.to_string(),
            nproc: v.get("nproc")?.as_f64()? as u64,
            rustc: v.get("rustc")?.as_str()?.to_string(),
            commit: v.get("commit")?.as_str()?.to_string(),
        })
    }
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status.success().then_some(())?;
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.lines().next()?.trim().to_string()).filter(|s| !s.is_empty())
}

/// FNV-1a over the paths and bytes of every `.rs` and `Cargo.toml` file
/// under `crates/`, in sorted order: identifies the measured code when
/// the checkout carries no git metadata.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs")
                || path.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in rel.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
