//! The `RunLog`: a sealed, ordered record of everything a run's scheduler
//! observed and decided.
//!
//! A log captures the three nondeterminism seams of a run (DESIGN.md §12):
//! the root [`RunSeed`](easched_core::RunSeed) and every named derivation
//! taken from it, the per-invocation observation stream each backend
//! returned (post-chaos — what the scheduler *saw*, faults included), and
//! the ordered [`DecisionRecord`] stream the scheduler emitted. Feeding the
//! observations back through a
//! [`ReplayBackend`](crate::replay::ReplayBackend) re-executes the run's
//! decision logic byte-identically; diffing the re-run's records against
//! the recorded stream pinpoints the first divergence.
//!
//! The on-disk form follows the v3 table journal's idiom: a line-oriented
//! text format where every line carries a trailing `crc <hex>` FNV-1a seal
//! and floats are serialized as `{:016x}` bit patterns (byte-exact, NaN
//! included). Parsing truncates at the first unsealed line, so a log torn
//! mid-write by a crash loses only its tail; the `end` footer
//! distinguishes a truncated log from a complete one.

use easched_core::{seal_line, unseal_line};
use easched_runtime::vfs::Vfs;
use easched_runtime::Observation;
use easched_sim::CounterSnapshot;
use easched_telemetry::DecisionRecord;
use std::io;
use std::path::Path;

/// Format version written in the header. Bump when the line grammar
/// changes; [`RunLog::from_text`] refuses versions it does not know, so a
/// future reader can dispatch on this field and keep old logs replayable
/// (ROADMAP: de-vendoring `rand` shifts future PRNG streams, but logs
/// carry their own observations, so old logs replay unchanged).
pub const FORMAT_VERSION: u32 = 1;

/// The version written when a log carries admission-layer events
/// (overload runs). Single-tenant recordings keep writing v1, so every
/// pre-tenancy log — committed fixtures included — stays byte-stable.
pub const FORMAT_VERSION_ADMISSION: u32 = 2;

/// The version written when a log carries fleet replication events
/// (`easched fleet` recordings, DESIGN.md §15). Non-fleet recordings keep
/// writing v1/v2, so every pre-fleet log — committed fixtures included —
/// stays byte-stable.
pub const FORMAT_VERSION_FLEET: u32 = 3;

/// One backend call a scheduler made during an invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepCall {
    /// A `profile_step(chunk)` call.
    Profile {
        /// The GPU chunk size the scheduler requested.
        chunk: u64,
    },
    /// A `run_split(alpha)` call.
    Split {
        /// The offload ratio the scheduler executed at.
        alpha: f64,
    },
}

/// One recorded backend call: what was asked, what came back, and how many
/// items were left afterwards.
///
/// `remaining_after` is recorded separately from the observation because a
/// fault-corrupted observation legitimately *lies* about item counts (e.g.
/// [`Fault::GpuHang`](easched_runtime::Fault) reports zero GPU items for a
/// chunk that really ran); the replay backend must track the truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordedStep {
    /// The call the scheduler made.
    pub call: StepCall,
    /// The (possibly chaos-corrupted) observation the scheduler saw.
    pub obs: Observation,
    /// Ground-truth items remaining after the call.
    pub remaining_after: u64,
}

/// One admission-layer decision in an overloaded run (v2 logs only).
///
/// The admission controller is deterministic — replay re-runs it and
/// demands the identical stream — so these records are both a trace for
/// humans and a cross-check for the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionRecord {
    /// The admission tick the decision was made on.
    pub tick: u64,
    /// The tenant's registry index.
    pub tenant: u64,
    /// The brownout rung at decision time ([`BrownoutLevel::code`]).
    ///
    /// [`BrownoutLevel::code`]: easched_runtime::BrownoutLevel::code
    pub level: u8,
    /// What happened: 0 admit, 1 queue, 2 shed, 3 execution-start marker
    /// (delimits the invocation group of a drained request).
    pub verdict: u8,
    /// Verdict argument: the ticket (admit/queue/exec), the queue
    /// position packed with the ticket, or the shed retry-after seconds
    /// as `f64` bits.
    pub arg: u64,
}

/// One entry in a run's ordered event stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A named seed derivation taken from the root (`index` for
    /// per-invocation streams within a domain).
    Derive {
        /// Derivation domain, e.g. `"chaos"` or `"workload/BS"`.
        domain: String,
        /// Stream index within the domain, if indexed.
        index: Option<u64>,
        /// The derived seed value.
        seed: u64,
    },
    /// The start of one kernel invocation.
    Invocation {
        /// Kernel id the scheduler was invoked with.
        kernel: u64,
        /// Items in the invocation.
        items: u64,
        /// The backend's `gpu_profile_size()` (replay must answer the
        /// same value, or the scheduler would pick different chunks).
        profile_size: u64,
        /// Human label (workload abbreviation), informational only.
        label: String,
    },
    /// One backend call within the current invocation.
    Step(RecordedStep),
    /// The telemetry record the scheduler emitted for the current
    /// invocation.
    Decision(DecisionRecord),
    /// One admission-layer decision (overload recordings; forces v2).
    Admission(AdmissionRecord),
    /// One fleet replication event (fleet recordings; forces v3).
    ///
    /// The payload is an opaque single line owned by `easched-fleet` —
    /// the log stores and seals it verbatim, and fleet replay parses it
    /// back with the fleet crate's own grammar. Keeping the grammar out
    /// of this crate means the replication protocol can evolve without a
    /// run-log version bump, exactly like decision records own their
    /// word encoding.
    Fleet {
        /// The fleet event line, verbatim (no newlines).
        line: String,
    },
}

/// A complete (or torn-tail-truncated) recorded run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunLog {
    /// The format version this log serializes as ([`FORMAT_VERSION`] for
    /// single-tenant runs, [`FORMAT_VERSION_ADMISSION`] when the stream
    /// carries admission events).
    pub version: u32,
    /// The run's root seed (`RunSeed::root()`).
    pub root: u64,
    /// FNV-1a fingerprint of the power model text the scheduler ran with.
    pub platform_fp: u64,
    /// FNV-1a fingerprint of the scheduler configuration (`Debug` form).
    pub config_fp: u64,
    /// The ordered event stream.
    pub events: Vec<Event>,
    /// Whether the `end` footer was present and consistent. A `false`
    /// here means the tail was torn (crash mid-record): the surviving
    /// prefix is still replayable.
    pub complete: bool,
}

/// Why a byte stream failed to parse as a [`RunLog`] at all (tail
/// truncation is *not* an error — see [`RunLog::complete`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// The header magic line is missing or unsealed.
    NotARunLog,
    /// The header declares a format version this reader does not know.
    UnknownVersion(u32),
    /// A sealed-and-valid header line is malformed (corruption that FNV
    /// happened to miss, or a writer bug).
    MalformedHeader(String),
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::NotARunLog => write!(f, "not an easched run log"),
            LogError::UnknownVersion(v) => write!(f, "unknown run-log format version {v}"),
            LogError::MalformedHeader(line) => write!(f, "malformed run-log header: {line:?}"),
        }
    }
}

impl std::error::Error for LogError {}

impl RunLog {
    /// Serializes the log, every line sealed.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        seal_line(&mut out, &format!("easched-runlog v{}", self.version));
        seal_line(&mut out, &format!("root {:016x}", self.root));
        seal_line(&mut out, &format!("platform {:016x}", self.platform_fp));
        seal_line(&mut out, &format!("config {:016x}", self.config_fp));
        for event in &self.events {
            seal_line(&mut out, &event_line(event));
        }
        seal_line(&mut out, &format!("end {}", self.events.len()));
        out
    }

    /// Writes the serialized log through a [`Vfs`] — the storage-chaos
    /// seam (DESIGN.md §16). With [`StdFs`](easched_runtime::vfs::StdFs)
    /// this is `fs::write` plus an fsync; under a chaos fs the write can
    /// fail, which is the point.
    pub fn save_with(&self, vfs: &dyn Vfs, path: &Path) -> io::Result<()> {
        vfs.write(path, self.to_text().as_bytes())?;
        let mut file = vfs.open_write(path)?;
        file.sync_all()
    }

    /// [`save_with`](RunLog::save_with) under fault injection: retries up
    /// to `attempts` times, advancing the chaos fs's op counter past the
    /// fault window each round. Returns how many attempts failed before
    /// one stuck, or the last error once the budget is spent — the
    /// CLI-level twin of the store's degrade-and-re-arm loop.
    pub fn save_with_retries(&self, vfs: &dyn Vfs, path: &Path, attempts: u32) -> io::Result<u32> {
        let mut failed = 0;
        loop {
            match self.save_with(vfs, path) {
                Ok(()) => return Ok(failed),
                Err(e) if failed + 1 >= attempts => return Err(e),
                Err(_) => failed += 1,
            }
        }
    }

    /// Parses a log, tolerating a torn tail: the first line whose seal or
    /// grammar fails truncates the event stream there (and clears
    /// [`complete`](RunLog::complete)). Only a broken *header* is a hard
    /// error — without root and fingerprints there is nothing to replay.
    pub fn from_text(text: &str) -> Result<RunLog, LogError> {
        let mut lines = text.lines();
        let magic = lines
            .next()
            .and_then(unseal_line)
            .ok_or(LogError::NotARunLog)?;
        let version = magic
            .strip_prefix("easched-runlog v")
            .and_then(|v| v.parse::<u32>().ok())
            .ok_or(LogError::NotARunLog)?;
        if version != FORMAT_VERSION
            && version != FORMAT_VERSION_ADMISSION
            && version != FORMAT_VERSION_FLEET
        {
            return Err(LogError::UnknownVersion(version));
        }
        let mut header = |tag: &str| -> Result<u64, LogError> {
            let line = lines
                .next()
                .and_then(unseal_line)
                .ok_or(LogError::NotARunLog)?;
            line.strip_prefix(tag)
                .and_then(|rest| u64::from_str_radix(rest.trim(), 16).ok())
                .ok_or_else(|| LogError::MalformedHeader(line.to_string()))
        };
        let root = header("root ")?;
        let platform_fp = header("platform ")?;
        let config_fp = header("config ")?;

        let mut events = Vec::new();
        let mut complete = false;
        for line in lines {
            let Some(body) = unseal_line(line) else { break };
            if let Some(count) = body.strip_prefix("end ") {
                complete = count.trim().parse::<usize>() == Ok(events.len());
                break;
            }
            match parse_event(body) {
                Some(event) => events.push(event),
                None => break,
            }
        }
        Ok(RunLog {
            version,
            root,
            platform_fp,
            config_fp,
            events,
            complete,
        })
    }

    /// The recorded decision stream, in emission order.
    pub fn decisions(&self) -> Vec<DecisionRecord> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Decision(r) => Some(*r),
                _ => None,
            })
            .collect()
    }

    /// The recorded admission-layer decisions, in order (empty for v1
    /// logs).
    pub fn admissions(&self) -> Vec<AdmissionRecord> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Admission(r) => Some(*r),
                _ => None,
            })
            .collect()
    }

    /// The recorded fleet replication lines, in order (empty for v1/v2
    /// logs). The fleet crate owns the line grammar.
    pub fn fleet_lines(&self) -> Vec<&str> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Fleet { line } => Some(line.as_str()),
                _ => None,
            })
            .collect()
    }

    /// The recorded invocations, each with its backend-call steps in
    /// order — the replay backend's feed.
    pub fn invocations(&self) -> Vec<LoggedInvocation<'_>> {
        let mut out: Vec<LoggedInvocation<'_>> = Vec::new();
        for event in &self.events {
            match event {
                Event::Invocation {
                    kernel,
                    items,
                    profile_size,
                    label,
                } => out.push(LoggedInvocation {
                    kernel: *kernel,
                    items: *items,
                    profile_size: *profile_size,
                    label,
                    steps: Vec::new(),
                }),
                Event::Step(step) => {
                    if let Some(inv) = out.last_mut() {
                        inv.steps.push(*step);
                    }
                }
                Event::Derive { .. }
                | Event::Decision(_)
                | Event::Admission(_)
                | Event::Fleet { .. } => {}
            }
        }
        out
    }

    /// Cuts the log to its first `offset` events — the prefix an SLO
    /// exemplar names (`easched replay --at <offset>`) — then backs the
    /// cut off to the last complete invocation boundary, dropping any
    /// trailing `Invocation`/`Step` events whose [`DecisionRecord`] the
    /// prefix does not contain. The slice is a well-formed, complete log
    /// in its own right: every invocation it carries replays, and an
    /// overload replay of the slice reproduces the sliced stream line
    /// for line before running past the cut.
    pub fn slice_at(&self, offset: u64) -> RunLog {
        let take = (offset as usize).min(self.events.len());
        let mut events: Vec<Event> = self.events[..take].to_vec();
        while matches!(
            events.last(),
            Some(Event::Invocation { .. } | Event::Step(_))
        ) {
            events.pop();
        }
        RunLog {
            version: self.version,
            root: self.root,
            platform_fp: self.platform_fp,
            config_fp: self.config_fp,
            events,
            complete: true,
        }
    }

    /// Corrupts the `index`-th recorded step (counting across the whole
    /// run) by scaling its observed energy ×1.5 — an intentional
    /// divergence for exercising the bisect reporter. Returns `false` if
    /// the log has fewer steps.
    pub fn perturb_step(&mut self, index: usize) -> bool {
        let mut seen = 0;
        for event in &mut self.events {
            if let Event::Step(step) = event {
                if seen == index {
                    step.obs.energy_joules = step.obs.energy_joules * 1.5 + 1.0;
                    return true;
                }
                seen += 1;
            }
        }
        false
    }
}

/// One invocation as recorded in a log (borrowed view).
#[derive(Debug, Clone, PartialEq)]
pub struct LoggedInvocation<'a> {
    /// Kernel id.
    pub kernel: u64,
    /// Items in the invocation.
    pub items: u64,
    /// Recorded `gpu_profile_size()`.
    pub profile_size: u64,
    /// Workload label.
    pub label: &'a str,
    /// Backend calls, in order.
    pub steps: Vec<RecordedStep>,
}

fn event_line(event: &Event) -> String {
    match event {
        Event::Derive {
            domain,
            index,
            seed,
        } => {
            let idx = index.map_or("-".to_string(), |i| i.to_string());
            format!("derive {} {idx} {seed:016x}", sanitize(domain))
        }
        Event::Invocation {
            kernel,
            items,
            profile_size,
            label,
        } => format!(
            "invocation {kernel:016x} {items} {profile_size} {}",
            sanitize(label)
        ),
        Event::Step(step) => {
            let call = match step.call {
                StepCall::Profile { chunk } => format!("profile {chunk}"),
                StepCall::Split { alpha } => format!("split {:016x}", alpha.to_bits()),
            };
            format!(
                "step {call} {} {}",
                step.remaining_after,
                obs_words(&step.obs)
            )
        }
        Event::Decision(record) => {
            let words: Vec<String> = record
                .encode()
                .iter()
                .map(|w| format!("{w:016x}"))
                .collect();
            format!("decision {} {}", record.seq, words.join(" "))
        }
        Event::Admission(r) => format!(
            "admission {} {} {} {} {:016x}",
            r.tick, r.tenant, r.level, r.verdict, r.arg
        ),
        // The payload is verbatim (it may itself carry an inner seal);
        // only newlines would break the line grammar, and the fleet
        // writer never produces them.
        Event::Fleet { line } => format!("fleet {}", line.replace('\n', " ")),
    }
}

/// Whitespace would break the line grammar; labels and domains are
/// code-chosen, so just squash any stray space.
fn sanitize(s: &str) -> String {
    s.replace(char::is_whitespace, "_")
}

fn obs_words(obs: &Observation) -> String {
    format!(
        "{:016x} {} {} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x}",
        obs.elapsed.to_bits(),
        obs.cpu_items,
        obs.gpu_items,
        obs.cpu_time.to_bits(),
        obs.gpu_time.to_bits(),
        obs.energy_joules.to_bits(),
        obs.counters.instructions.to_bits(),
        obs.counters.loads.to_bits(),
        obs.counters.l3_misses.to_bits(),
    )
}

fn parse_event(body: &str) -> Option<Event> {
    // Fleet lines are opaque to this crate and may contain arbitrary
    // spacing — take the rest of the line verbatim instead of word-
    // splitting it.
    if let Some(line) = body.strip_prefix("fleet ") {
        return Some(Event::Fleet {
            line: line.to_string(),
        });
    }
    let mut parts = body.split_whitespace();
    match parts.next()? {
        "derive" => {
            let domain = parts.next()?.to_string();
            let index = match parts.next()? {
                "-" => None,
                i => Some(i.parse().ok()?),
            };
            let seed = u64::from_str_radix(parts.next()?, 16).ok()?;
            end_of(parts)?;
            Some(Event::Derive {
                domain,
                index,
                seed,
            })
        }
        "invocation" => {
            let kernel = u64::from_str_radix(parts.next()?, 16).ok()?;
            let items = parts.next()?.parse().ok()?;
            let profile_size = parts.next()?.parse().ok()?;
            let label = parts.next()?.to_string();
            end_of(parts)?;
            Some(Event::Invocation {
                kernel,
                items,
                profile_size,
                label,
            })
        }
        "step" => {
            let call = match parts.next()? {
                "profile" => StepCall::Profile {
                    chunk: parts.next()?.parse().ok()?,
                },
                "split" => StepCall::Split {
                    alpha: f64::from_bits(u64::from_str_radix(parts.next()?, 16).ok()?),
                },
                _ => return None,
            };
            let remaining_after = parts.next()?.parse().ok()?;
            let obs = parse_obs(&mut parts)?;
            end_of(parts)?;
            Some(Event::Step(RecordedStep {
                call,
                obs,
                remaining_after,
            }))
        }
        "decision" => {
            let seq = parts.next()?.parse().ok()?;
            let mut words = [0u64; DecisionRecord::WORDS];
            for w in &mut words {
                *w = u64::from_str_radix(parts.next()?, 16).ok()?;
            }
            end_of(parts)?;
            Some(Event::Decision(DecisionRecord::decode(seq, &words)))
        }
        "admission" => {
            let tick = parts.next()?.parse().ok()?;
            let tenant = parts.next()?.parse().ok()?;
            let level = parts.next()?.parse().ok()?;
            let verdict = parts.next()?.parse().ok()?;
            let arg = u64::from_str_radix(parts.next()?, 16).ok()?;
            end_of(parts)?;
            Some(Event::Admission(AdmissionRecord {
                tick,
                tenant,
                level,
                verdict,
                arg,
            }))
        }
        _ => None,
    }
}

fn parse_obs(parts: &mut std::str::SplitWhitespace<'_>) -> Option<Observation> {
    let bits =
        |parts: &mut std::str::SplitWhitespace<'_>| u64::from_str_radix(parts.next()?, 16).ok();
    Some(Observation {
        elapsed: f64::from_bits(bits(parts)?),
        cpu_items: parts.next()?.parse().ok()?,
        gpu_items: parts.next()?.parse().ok()?,
        cpu_time: f64::from_bits(bits(parts)?),
        gpu_time: f64::from_bits(bits(parts)?),
        energy_joules: f64::from_bits(bits(parts)?),
        counters: CounterSnapshot {
            instructions: f64::from_bits(bits(parts)?),
            loads: f64::from_bits(bits(parts)?),
            l3_misses: f64::from_bits(bits(parts)?),
        },
    })
}

/// `Some(())` only when the iterator is exhausted (trailing junk on a
/// line is treated as corruption).
fn end_of(mut parts: std::str::SplitWhitespace<'_>) -> Option<()> {
    parts.next().is_none().then_some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> RunLog {
        let obs = Observation {
            elapsed: 0.25,
            cpu_items: 100,
            gpu_items: 2240,
            cpu_time: 0.2,
            gpu_time: 0.25,
            energy_joules: 12.5,
            counters: CounterSnapshot {
                instructions: 1.0e9,
                loads: 2.0e8,
                l3_misses: 3.0e6,
            },
        };
        RunLog {
            version: FORMAT_VERSION,
            root: 0xDEAD_BEEF,
            platform_fp: 0x1234,
            config_fp: 0x5678,
            events: vec![
                Event::Derive {
                    domain: "chaos".into(),
                    index: None,
                    seed: 42,
                },
                Event::Invocation {
                    kernel: 7,
                    items: 10_000,
                    profile_size: 2240,
                    label: "BS".into(),
                },
                Event::Step(RecordedStep {
                    call: StepCall::Profile { chunk: 2240 },
                    obs,
                    remaining_after: 7660,
                }),
                Event::Step(RecordedStep {
                    call: StepCall::Split { alpha: 0.65 },
                    obs: Observation {
                        elapsed: f64::NAN,
                        ..obs
                    },
                    remaining_after: 0,
                }),
                Event::Decision(DecisionRecord {
                    seq: 0,
                    kernel: 7,
                    alpha: 0.65,
                    items: 10_000,
                    ..Default::default()
                }),
            ],
            complete: true,
        }
    }

    #[test]
    fn round_trips_byte_identically() {
        let log = sample_log();
        let text = log.to_text();
        let back = RunLog::from_text(&text).unwrap();
        // NaN fields break PartialEq, so compare the re-serialization.
        assert_eq!(back.to_text(), text);
        assert!(back.complete);
        assert_eq!(back.events.len(), log.events.len());
    }

    #[test]
    fn save_with_retries_rides_out_injected_faults() {
        use easched_runtime::vfs::{ChaosFs, ChaosFsPlan, StorageFault};
        use easched_runtime::TickClock;
        use std::sync::Arc;

        let dir = std::env::temp_dir().join(format!("runlog-chaos-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.log");
        let log = sample_log();
        // Attempt 1 consumes ops 0 (create) and 1 (write_all, faulted);
        // attempt 2 runs ops 2..=5 (create, write_all, open_write,
        // sync_all — faulted); attempt 3 must land on ops 6..=9.
        let plan = ChaosFsPlan::at(1, StorageFault::Enospc).then(5, StorageFault::FsyncFail);
        let vfs = ChaosFs::new(11, plan, Arc::new(TickClock::new()));
        let failed = log.save_with_retries(&vfs, &path, 8).unwrap();
        assert_eq!(failed, 2, "both scheduled faults cost one attempt each");
        let back = RunLog::from_text(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(back.complete);
        assert_eq!(back.to_text(), log.to_text());
        // A budget smaller than the fault window surfaces the error.
        let stubborn = ChaosFs::new(11, ChaosFsPlan::storm(1000), Arc::new(TickClock::new()));
        assert!(log.save_with_retries(&stubborn, &path, 3).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_truncates_but_parses() {
        let text = sample_log().to_text();
        // Tear mid-way through the last event line (before the footer).
        let keep = text.lines().count() - 2;
        let torn: String = text
            .lines()
            .take(keep)
            .map(|l| format!("{l}\n"))
            .chain(std::iter::once("decision 1 fff".to_string()))
            .collect();
        let log = RunLog::from_text(&torn).unwrap();
        assert!(!log.complete);
        assert_eq!(log.events.len(), keep - 4, "header is 4 lines");
        assert_eq!(log.root, 0xDEAD_BEEF);
    }

    #[test]
    fn corrupt_header_is_a_hard_error() {
        assert_eq!(RunLog::from_text("garbage"), Err(LogError::NotARunLog));
        let mut text = sample_log().to_text();
        text = text.replacen("root", "r00t", 1);
        assert!(matches!(
            RunLog::from_text(&text),
            Err(LogError::NotARunLog)
        ));
    }

    #[test]
    fn unknown_version_is_refused() {
        let mut out = String::new();
        seal_line(&mut out, "easched-runlog v99");
        assert_eq!(RunLog::from_text(&out), Err(LogError::UnknownVersion(99)));
    }

    #[test]
    fn invocations_group_steps() {
        let log = sample_log();
        let invs = log.invocations();
        assert_eq!(invs.len(), 1);
        assert_eq!(invs[0].kernel, 7);
        assert_eq!(invs[0].steps.len(), 2);
        assert_eq!(invs[0].steps[0].call, StepCall::Profile { chunk: 2240 });
    }

    #[test]
    fn perturb_changes_exactly_one_step() {
        let mut log = sample_log();
        let before = log.to_text();
        assert!(log.perturb_step(1));
        assert!(!log.perturb_step(9));
        let after = log.to_text();
        let changed: Vec<_> = before
            .lines()
            .zip(after.lines())
            .filter(|(a, b)| a != b)
            .collect();
        assert_eq!(changed.len(), 1);
        assert!(changed[0].0.starts_with("step split"));
    }

    #[test]
    fn decisions_extracts_the_stream() {
        let d = sample_log().decisions();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].kernel, 7);
    }

    #[test]
    fn fleet_events_round_trip_verbatim_as_v3() {
        let mut log = sample_log();
        log.version = FORMAT_VERSION_FLEET;
        // Fleet payloads may carry an inner seal and arbitrary spacing —
        // both must survive verbatim.
        log.events.push(Event::Fleet {
            line: "spec nodes 3 seed 0007".to_string(),
        });
        log.events.push(Event::Fleet {
            line: "frame 0 1 ent 2 crc 00000000deadbeef".to_string(),
        });
        let text = log.to_text();
        let back = RunLog::from_text(&text).unwrap();
        assert_eq!(back.version, FORMAT_VERSION_FLEET);
        assert!(back.complete);
        assert_eq!(
            back.fleet_lines(),
            vec![
                "spec nodes 3 seed 0007",
                "frame 0 1 ent 2 crc 00000000deadbeef"
            ]
        );
        assert_eq!(back.to_text(), text);
        // Fleet events never leak into the invocation feed.
        assert_eq!(back.invocations().len(), log.invocations().len());
    }

    #[test]
    fn slice_at_trims_to_complete_invocation_boundaries() {
        let log = sample_log();
        // Cutting mid-invocation (after the Invocation and one Step, but
        // before the Decision) backs off past the whole invocation.
        let slice = log.slice_at(3);
        assert_eq!(slice.events.len(), 1, "only the derive survives");
        assert!(matches!(slice.events[0], Event::Derive { .. }));
        assert!(slice.complete);
        assert_eq!(slice.root, log.root);
        // Cutting at or past the Decision keeps the invocation whole.
        let full = log.slice_at(5);
        assert_eq!(full.events.len(), 5);
        assert_eq!(full.invocations().len(), 1);
        assert_eq!(full.decisions().len(), 1);
        // An offset past the end is the identity slice.
        assert_eq!(log.slice_at(99).events.len(), log.events.len());
        // The slice round-trips through text like any complete log.
        let back = RunLog::from_text(&full.to_text()).unwrap();
        assert!(back.complete);
        assert_eq!(back.events.len(), 5);
    }

    #[test]
    fn admission_events_round_trip_as_v2() {
        let mut log = sample_log();
        log.version = FORMAT_VERSION_ADMISSION;
        let rec = AdmissionRecord {
            tick: 3,
            tenant: 5,
            level: 1,
            verdict: 2,
            arg: 2.0f64.to_bits(),
        };
        log.events.insert(1, Event::Admission(rec));
        let text = log.to_text();
        assert!(text.starts_with("easched-runlog v2 "));
        let back = RunLog::from_text(&text).unwrap();
        assert_eq!(back.version, FORMAT_VERSION_ADMISSION);
        assert_eq!(back.to_text(), text);
        assert_eq!(back.admissions(), vec![rec]);
        // v1 logs report no admissions.
        assert!(sample_log().admissions().is_empty());
    }
}
