//! Power-model and kernel-table persistence.
//!
//! The characterization step is "computed once for each processor"
//! (abstract): on a real deployment the fitted model is saved and reloaded
//! on every subsequent run. The format is a small line-oriented text file —
//! stable, diffable, and dependency-free:
//!
//! ```text
//! easched-power-model v2
//! platform haswell-desktop
//! curve 0 rmse 0.169 samples 21 coeffs 32.55 -0.95 ...
//! ... (8 curve lines, class-index order)
//! checksum 8d3f2a915c04be71
//! ```
//!
//! The learned kernel table G has one codec the same way
//! ([`table_to_text`]/[`table_from_text`]); the crash-safe store
//! ([`journal`](crate::journal), DESIGN.md §11) writes it as its snapshot
//! and formats its journal `put` records with the same entry writer:
//!
//! ```text
//! easched-kernel-table v3
//! generation 4
//! breaker 0
//! kernel 7 alpha 6.5e-1 weight 5e4 seen 12 tainted 0
//! ... (one line per kernel, id order)
//! checksum 41c09f22e6b7d530
//! ```
//!
//! Table versions 1 and 2 (no generation, breaker or taint state) are
//! read-only migration input, parsed by the same entry parser under the
//! same rule.
//!
//! # Integrity (DESIGN.md §9)
//!
//! Every written file ends in a `checksum` line: an FNV-1a 64-bit digest
//! over every byte that precedes it. A model or table file truncated by a
//! crashed writer or corrupted at rest fails
//! [`ModelParseError::MissingChecksum`] /
//! [`ModelParseError::ChecksumMismatch`] instead of silently warm-starting
//! the scheduler with damaged ratios — loading never panics. Version-1
//! files (no checksum) are still accepted for migration.

use crate::classify::WorkloadClass;
use crate::health::BreakerState;
use crate::kernel_table::{AlphaStat, KernelTable};
use crate::power_model::{PowerCurve, PowerModel};
use easched_num::Polynomial;
use easched_runtime::KernelId;
use std::error::Error;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::str::FromStr;

/// Format header of the legacy (checksum-less) version 1.
const HEADER_V1: &str = "easched-power-model v1";
/// Format header of version 2 (trailing FNV-1a checksum line).
const HEADER_V2: &str = "easched-power-model v2";

/// Error parsing a persisted power model.
#[derive(Debug)]
pub enum ModelParseError {
    /// Missing or unknown header line.
    BadHeader(String),
    /// A line could not be parsed; carries the 1-based line number and a
    /// description.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The file did not contain exactly one curve per class.
    WrongCurveCount(usize),
    /// A version-2 file whose trailing `checksum` line is absent or
    /// unreadable — typically a write truncated by a crash.
    MissingChecksum,
    /// A version-2 file whose bytes do not hash to the recorded checksum —
    /// corruption at rest, or a hand edit without updating the digest.
    ChecksumMismatch {
        /// Digest computed over the file contents.
        computed: u64,
        /// Digest the file claims.
        stored: u64,
    },
    /// Underlying I/O failure.
    Io(io::Error),
}

impl fmt::Display for ModelParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelParseError::BadHeader(h) => write!(f, "unrecognized header {h:?}"),
            ModelParseError::BadLine { line, message } => {
                write!(f, "line {line}: {message}")
            }
            ModelParseError::WrongCurveCount(n) => {
                write!(f, "expected 8 curves, found {n}")
            }
            ModelParseError::MissingChecksum => {
                write!(f, "v2 file has no trailing checksum line (truncated?)")
            }
            ModelParseError::ChecksumMismatch { computed, stored } => write!(
                f,
                "checksum mismatch: contents hash to {computed:016x}, file says {stored:016x}"
            ),
            ModelParseError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl Error for ModelParseError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ModelParseError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ModelParseError {
    fn from(e: io::Error) -> Self {
        ModelParseError::Io(e)
    }
}

/// FNV-1a, 64-bit. Not cryptographic — it guards against truncation and
/// bit rot, not adversaries — but the per-byte xor-then-multiply step is
/// injective, so any single corrupted byte changes the digest. Public
/// because the journal (§11), the run-seed derivation, and the
/// record/replay log (`easched-replay`, §12) all seal with the same hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Appends `body` to `out` as one sealed line: `<body> crc <16 hex>\n`,
/// the digest being [`fnv1a64`] of the body. Every line-oriented log
/// seals this way — the table journal (§11), the record/replay run log
/// (§12) and the fleet wire frame (§15) — so a torn or bit-rotted line
/// fails [`unseal_line`] on its own, without a file-level checksum.
pub fn seal_line(out: &mut String, body: &str) {
    let start = out.len();
    out.push_str(body);
    seal_tail(out, start);
}

/// Seals the body already written at `out[start..]` in place, exactly as
/// [`seal_line`] would have sealed it — so a writer can format a line
/// straight into its output buffer instead of into a temporary `String`.
pub fn seal_tail(out: &mut String, start: usize) {
    use std::fmt::Write as _;
    let body = &out[start..];
    debug_assert!(!body.contains('\n'), "sealed lines are single lines");
    let digest = fnv1a64(body.as_bytes());
    // Writing into a `String` cannot fail.
    let _ = writeln!(out, " crc {digest:016x}");
}

/// Appends `s` with every whitespace character replaced by `_`. Labels,
/// domains and platform names are code-chosen words inside a
/// whitespace-split line grammar (run log, fleet frame); this squashes
/// any stray space so it cannot split a field.
pub fn push_sanitized(out: &mut String, s: &str) {
    for (i, word) in s.split(char::is_whitespace).enumerate() {
        if i > 0 {
            out.push('_');
        }
        out.push_str(word);
    }
}

/// The body of a line [`seal_line`] wrote, or `None` unless the line ends
/// in ` crc ` plus exactly 16 hex digits (either case) that digest the
/// body. Surrounding whitespace of the digest is ignored, so a line may
/// still carry its `\n`.
pub fn unseal_line(line: &str) -> Option<&str> {
    let (body, hex) = line.rsplit_once(" crc ")?;
    let hex = hex.trim();
    if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let stored = u64::from_str_radix(hex, 16).ok()?;
    (fnv1a64(body.as_bytes()) == stored).then_some(body)
}

/// Appends the trailing checksum line over everything written so far.
fn seal(mut body: String) -> String {
    let digest = fnv1a64(body.as_bytes());
    body.push_str(&format!("checksum {digest:016x}\n"));
    body
}

/// Validates the envelope of a persisted file and returns the body the
/// record parser should read (header line included, checksum line
/// stripped).
///
/// A v1 header passes through unchecked (legacy files carry no digest); a
/// v2 header requires a well-formed trailing `checksum` line whose digest
/// matches every preceding byte; anything else is [`BadHeader`].
///
/// [`BadHeader`]: ModelParseError::BadHeader
fn verify_envelope<'a>(
    text: &'a str,
    header_v1: &str,
    header_v2: &str,
) -> Result<&'a str, ModelParseError> {
    let header = text.lines().next().unwrap_or("").trim();
    if header == header_v1 {
        return Ok(text);
    }
    verify_sealed(text, header_v2)
}

/// The checksum-required half of [`verify_envelope`]: accepts only files
/// whose first line is exactly `header` and whose trailing `checksum`
/// line digests every preceding byte (also used by the v3 kernel table,
/// which has no unchecked form).
fn verify_sealed<'a>(text: &'a str, header: &str) -> Result<&'a str, ModelParseError> {
    let found = text.lines().next().unwrap_or("").trim();
    if found != header {
        return Err(ModelParseError::BadHeader(found.to_string()));
    }
    // The digest covers everything up to and including the newline that
    // precedes the checksum line, so take the *last* occurrence: any
    // spoofed earlier "checksum" text is just covered bytes.
    let at = text
        .rfind("\nchecksum ")
        .ok_or(ModelParseError::MissingChecksum)?;
    let covered = &text[..=at];
    let mut tokens = text[at + 1..].split_whitespace();
    tokens.next(); // the "checksum" keyword rfind just matched
    let stored = tokens
        .next()
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or(ModelParseError::MissingChecksum)?;
    if tokens.next().is_some() {
        // Records after the checksum line are not covered by the digest;
        // refuse rather than trust them.
        return Err(ModelParseError::MissingChecksum);
    }
    let computed = fnv1a64(covered.as_bytes());
    if computed != stored {
        return Err(ModelParseError::ChecksumMismatch { computed, stored });
    }
    Ok(covered)
}

/// Serializes a model to the v2 text format (trailing checksum line).
///
/// # Examples
///
/// ```
/// use easched_core::persist::{model_to_text, model_from_text};
/// use easched_core::{characterize, CharacterizationConfig};
/// use easched_sim::Platform;
///
/// let model = characterize(
///     &Platform::haswell_desktop(),
///     &CharacterizationConfig { alpha_steps: 10, ..Default::default() },
/// );
/// let text = model_to_text(&model);
/// let back = model_from_text(&text)?;
/// assert_eq!(back.platform_name(), model.platform_name());
/// # Ok::<(), easched_core::persist::ModelParseError>(())
/// ```
pub fn model_to_text(model: &PowerModel) -> String {
    let mut out = String::new();
    out.push_str(HEADER_V2);
    out.push('\n');
    out.push_str(&format!("platform {}\n", model.platform_name()));
    for curve in model.curves() {
        out.push_str(&format!(
            "curve {} rmse {:e} samples {} coeffs",
            curve.class().index(),
            curve.rmse(),
            curve.samples(),
        ));
        for c in curve.poly().coeffs() {
            // Full round-trip precision.
            out.push_str(&format!(" {c:e}"));
        }
        out.push('\n');
    }
    seal(out)
}

/// Parses the text format: v2 (checksum verified) or legacy v1.
///
/// # Errors
///
/// [`ModelParseError`] on malformed, truncated, or corrupted input.
/// Never panics, whatever the bytes.
pub fn model_from_text(text: &str) -> Result<PowerModel, ModelParseError> {
    let body = verify_envelope(text, HEADER_V1, HEADER_V2)?;
    let mut lines = body.lines().enumerate();
    lines.next(); // header, already validated by the envelope check
    let mut platform = String::new();
    let mut curves: Vec<PowerCurve> = Vec::new();
    for (idx, raw) in lines {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tokens = line.split_whitespace();
        match tokens.next() {
            Some("platform") => {
                platform = tokens.collect::<Vec<_>>().join(" ");
                if platform.is_empty() {
                    return Err(ModelParseError::BadLine {
                        line: line_no,
                        message: "platform name missing".into(),
                    });
                }
            }
            Some("curve") => {
                curves.push(parse_curve(&mut tokens).map_err(|message| {
                    ModelParseError::BadLine {
                        line: line_no,
                        message,
                    }
                })?);
            }
            other => {
                return Err(ModelParseError::BadLine {
                    line: line_no,
                    message: format!("unknown record {other:?}"),
                });
            }
        }
    }
    if curves.len() != 8 {
        return Err(ModelParseError::WrongCurveCount(curves.len()));
    }
    // PowerModel::new validates one-curve-per-class; map its panic into a
    // parse error by checking first.
    let mut seen = [false; 8];
    for c in &curves {
        let i = c.class().index();
        if seen[i] {
            return Err(ModelParseError::WrongCurveCount(curves.len()));
        }
        seen[i] = true;
    }
    Ok(PowerModel::new(platform, curves))
}

fn parse_curve<'a>(tokens: &mut impl Iterator<Item = &'a str>) -> Result<PowerCurve, String> {
    let index: usize = field(tokens, "class index")?;
    if index >= 8 {
        return Err(format!("class index {index} out of range"));
    }
    keyword(tokens, "rmse")?;
    let rmse = field(tokens, "rmse")?;
    keyword(tokens, "samples")?;
    let samples = field(tokens, "samples")?;
    keyword(tokens, "coeffs")?;
    let coeffs: Result<Vec<f64>, _> = tokens.map(str::parse).collect();
    let coeffs = coeffs.map_err(|e| format!("coefficient: {e}"))?;
    if coeffs.is_empty() {
        return Err("curve has no coefficients".into());
    }
    Ok(PowerCurve::new(
        WorkloadClass::from_index(index),
        Polynomial::new(coeffs),
        rmse,
        samples,
    ))
}

/// The next token parsed as a `T`; the error names the field.
fn field<'a, T: FromStr>(
    tokens: &mut impl Iterator<Item = &'a str>,
    name: &str,
) -> Result<T, String>
where
    T::Err: fmt::Display,
{
    let token = tokens.next().ok_or_else(|| format!("missing {name}"))?;
    token.parse().map_err(|e| format!("{name}: {e}"))
}

/// Consumes the next token, which must be `want`.
fn keyword<'a>(tokens: &mut impl Iterator<Item = &'a str>, want: &str) -> Result<(), String> {
    match tokens.next() {
        Some(t) if t == want => Ok(()),
        other => Err(format!("expected {want:?}, found {other:?}")),
    }
}

/// Saves a model to a file.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_model(model: &PowerModel, path: impl AsRef<Path>) -> io::Result<()> {
    fs::write(path, model_to_text(model))
}

/// Loads a model from a file.
///
/// # Errors
///
/// [`ModelParseError`] on I/O or format problems.
pub fn load_model(path: impl AsRef<Path>) -> Result<PowerModel, ModelParseError> {
    model_from_text(&fs::read_to_string(path)?)
}

/// Header of the legacy kernel-table format, version 1 (no checksum).
const TABLE_HEADER_V1: &str = "easched-kernel-table v1";
/// Header of kernel-table version 2: checksummed, but without
/// generation, breaker or taint state.
const TABLE_HEADER_V2: &str = "easched-kernel-table v2";
/// Header of kernel-table version 3, the only version written.
const TABLE_HEADER_V3: &str = "easched-kernel-table v3";

/// The longest text [`push_entry`] writes: two 20-digit integers, two
/// 23-character `{:e}` floats, the flag and the keywords between them.
pub(crate) const ENTRY_MAX_LEN: usize = 117;

/// Appends one table entry as `<id> alpha <a> weight <w> seen <n>
/// tainted <0|1>` — the fields of a snapshot `kernel` line and of a
/// journal `put` record alike. `{:e}` floats round-trip every bit.
pub(crate) fn push_entry(out: &mut String, kernel: KernelId, stat: &AlphaStat, tainted: bool) {
    use std::fmt::Write as _;
    // Writing into a `String` cannot fail.
    let _ = write!(
        out,
        "{kernel} alpha {:e} weight {:e} seen {} tainted {}",
        stat.alpha,
        stat.weight,
        stat.invocations_seen,
        u8::from(tainted)
    );
}

/// Parses the fields [`push_entry`] writes. Without `with_taint` (a v1
/// or v2 `kernel` line) the fields end after `seen` and the entry is
/// untainted. Every version holds to one rule: α in [0, 1], a finite
/// non-negative weight, nothing after the last field.
pub(crate) fn parse_entry<'a>(
    tokens: &mut impl Iterator<Item = &'a str>,
    with_taint: bool,
) -> Result<(KernelId, AlphaStat, bool), String> {
    let kernel = field(tokens, "kernel id")?;
    keyword(tokens, "alpha")?;
    let alpha: f64 = field(tokens, "alpha")?;
    if !(0.0..=1.0).contains(&alpha) {
        return Err(format!("alpha {alpha} out of [0, 1]"));
    }
    keyword(tokens, "weight")?;
    let weight: f64 = field(tokens, "weight")?;
    if !weight.is_finite() || weight < 0.0 {
        return Err(format!("weight {weight} not a finite non-negative value"));
    }
    keyword(tokens, "seen")?;
    let invocations_seen = field(tokens, "seen count")?;
    let mut tainted = false;
    if with_taint {
        keyword(tokens, "tainted")?;
        tainted = match tokens.next() {
            Some("0") => false,
            Some("1") => true,
            other => return Err(format!("tainted flag: found {other:?}")),
        };
    }
    if let Some(extra) = tokens.next() {
        return Err(format!("trailing token {extra:?}"));
    }
    let stat = AlphaStat {
        alpha,
        weight,
        invocations_seen,
    };
    Ok((kernel, stat, tainted))
}

/// Serializes a kernel table with its circuit-breaker state and store
/// generation — the v3 format, kernel lines in id order under the
/// checksum envelope, so equal states serialize identically. The table
/// store writes its snapshots with it (DESIGN.md §11).
///
/// # Examples
///
/// ```
/// use easched_core::persist::{table_from_text, table_to_text};
/// use easched_core::{Accumulation, BreakerState, KernelTable};
///
/// let table = KernelTable::new();
/// table.accumulate(7, 0.7, 50_000.0, Accumulation::SampleWeighted);
/// let text = table_to_text(&table, BreakerState::Closed, 0);
/// let (back, breaker, generation) = table_from_text(&text)?;
/// assert_eq!(back.lookup(7), Some(0.7));
/// assert_eq!((breaker, generation), (BreakerState::Closed, 0));
/// # Ok::<(), easched_core::persist::ModelParseError>(())
/// ```
pub fn table_to_text(table: &KernelTable, breaker: BreakerState, generation: u64) -> String {
    let mut out = format!(
        "{TABLE_HEADER_V3}\ngeneration {generation}\nbreaker {}\n",
        breaker.code()
    );
    for (kernel, stat, tainted) in table.snapshot_with_taint() {
        out.push_str("kernel ");
        push_entry(&mut out, kernel, &stat, tainted);
        out.push('\n');
    }
    seal(out)
}

/// Parses a kernel-table file of any version into the table, its
/// breaker state and its generation. Versions 1 and 2 are migration
/// input: they yield generation 0, a closed breaker and no taint.
///
/// # Errors
///
/// [`ModelParseError`] on malformed, truncated, or corrupted input — in
/// every version, an α outside [0, 1], a weight that is not finite and
/// non-negative, a token after the last field, or a duplicated kernel id
/// (which would silently drop learned weight). Never panics, whatever
/// the bytes.
pub fn table_from_text(text: &str) -> Result<(KernelTable, BreakerState, u64), ModelParseError> {
    let v3 = text.lines().next().unwrap_or("").trim() == TABLE_HEADER_V3;
    let body = if v3 {
        verify_sealed(text, TABLE_HEADER_V3)?
    } else {
        verify_envelope(text, TABLE_HEADER_V1, TABLE_HEADER_V2)?
    };
    let table = KernelTable::new();
    let mut breaker = BreakerState::Closed;
    let mut generation = 0;
    let mut lines = body.lines().enumerate();
    lines.next(); // header, already validated by the envelope check
    for (idx, raw) in lines {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = |message: String| ModelParseError::BadLine {
            line: idx + 1,
            message,
        };
        let mut tokens = line.split_whitespace();
        match tokens.next() {
            Some("generation") if v3 => {
                generation = field(&mut tokens, "generation").map_err(bad)?
            }
            Some("breaker") if v3 => {
                let code: u8 = field(&mut tokens, "breaker code").map_err(bad)?;
                breaker = BreakerState::from_code(code)
                    .ok_or_else(|| bad(format!("unknown breaker code {code}")))?;
            }
            Some("kernel") => {
                let (kernel, stat, tainted) = parse_entry(&mut tokens, v3).map_err(bad)?;
                if table.stat(kernel).is_some() {
                    return Err(bad(format!("kernel {kernel} listed twice")));
                }
                table.insert(kernel, stat);
                if tainted {
                    table.taint(kernel);
                }
            }
            other => return Err(bad(format!("unknown record {other:?}"))),
        }
        if let Some(extra) = tokens.next() {
            return Err(bad(format!("trailing token {extra:?}")));
        }
    }
    Ok((table, breaker, generation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::{characterize, CharacterizationConfig};
    use easched_sim::Platform;

    fn sample_model() -> PowerModel {
        let mut p = Platform::haswell_desktop();
        p.pcu.measurement_noise = 0.0;
        characterize(
            &p,
            &CharacterizationConfig {
                alpha_steps: 10,
                ..Default::default()
            },
        )
    }

    #[test]
    fn roundtrip_is_lossless() {
        let model = sample_model();
        let back = model_from_text(&model_to_text(&model)).unwrap();
        assert_eq!(back.platform_name(), model.platform_name());
        for class in WorkloadClass::all() {
            for i in 0..=20 {
                let a = i as f64 / 20.0;
                assert_eq!(
                    back.predict(class, a),
                    model.predict(class, a),
                    "{class:?} α={a}"
                );
            }
            assert_eq!(back.curve(class).rmse(), model.curve(class).rmse());
            assert_eq!(back.curve(class).samples(), model.curve(class).samples());
        }
    }

    #[test]
    fn file_roundtrip() {
        let model = sample_model();
        let path = std::env::temp_dir().join(format!("easched_model_{}.txt", std::process::id()));
        save_model(&model, &path).unwrap();
        let back = load_model(&path).unwrap();
        assert_eq!(back, model_from_text(&model_to_text(&model)).unwrap());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn rejects_bad_header() {
        let err = model_from_text("easched-power-model v99\n").unwrap_err();
        assert!(matches!(err, ModelParseError::BadHeader(_)));
        assert!(model_from_text("").is_err());
    }

    #[test]
    fn rejects_missing_curves() {
        let text = format!("{HEADER_V1}\nplatform x\ncurve 0 rmse 0.1 samples 3 coeffs 1.0 2.0\n");
        let err = model_from_text(&text).unwrap_err();
        assert!(matches!(err, ModelParseError::WrongCurveCount(1)));
    }

    #[test]
    fn rejects_duplicate_class() {
        let mut text = format!("{HEADER_V1}\nplatform x\n");
        for _ in 0..8 {
            text.push_str("curve 3 rmse 0.1 samples 3 coeffs 1.0\n");
        }
        let err = model_from_text(&text).unwrap_err();
        assert!(matches!(err, ModelParseError::WrongCurveCount(_)));
    }

    #[test]
    fn rejects_malformed_fields() {
        for bad in [
            "curve x rmse 0.1 samples 3 coeffs 1.0",
            "curve 9 rmse 0.1 samples 3 coeffs 1.0",
            "curve 0 rmse abc samples 3 coeffs 1.0",
            "curve 0 rmse 0.1 samples 3 coeffs",
            "curve 0 rmse 0.1 coeffs 1.0",
            "mystery 1 2 3",
        ] {
            let text = format!("{HEADER_V1}\nplatform x\n{bad}\n");
            let err = model_from_text(&text).unwrap_err();
            assert!(
                matches!(
                    err,
                    ModelParseError::BadLine { .. } | ModelParseError::WrongCurveCount(_)
                ),
                "{bad}: {err}"
            );
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let model = sample_model();
        let mut text = model_to_text(&model);
        // Editing the body invalidates the digest, so re-seal afterwards —
        // the well-behaved way to hand-annotate a v2 file.
        text.truncate(text.rfind("checksum").unwrap());
        text = text.replace("platform", "# leading comment\n\nplatform");
        assert!(model_from_text(&seal(text)).is_ok());
    }

    #[test]
    fn tampered_body_fails_checksum() {
        let text = model_to_text(&sample_model());
        // Flip one digit somewhere inside a coefficient.
        let pos = text.find("coeffs").unwrap() + 8;
        let mut bytes = text.into_bytes();
        bytes[pos] = if bytes[pos] == b'5' { b'6' } else { b'5' };
        let err = model_from_text(std::str::from_utf8(&bytes).unwrap()).unwrap_err();
        assert!(
            matches!(err, ModelParseError::ChecksumMismatch { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("checksum mismatch"));
    }

    #[test]
    fn truncated_file_is_rejected() {
        let text = model_to_text(&sample_model());
        // A crashed writer loses the tail: the checksum line goes first.
        let cut = text.rfind("checksum").unwrap();
        let err = model_from_text(&text[..cut]).unwrap_err();
        assert!(matches!(err, ModelParseError::MissingChecksum), "{err}");
        // Mid-file truncation keeps a stale digest → mismatch.
        let mid = text.len() / 2;
        let cut_mid = format!("{}checksum 0123456789abcdef\n", &text[..mid]);
        assert!(model_from_text(&cut_mid).is_err());
    }

    #[test]
    fn records_after_checksum_are_rejected() {
        let mut text = table_to_text(&learned_table(), BreakerState::Closed, 0);
        text.push_str("kernel 2 alpha 0.5 weight 1 seen 0\n");
        let err = table_from_text(&text).unwrap_err();
        assert!(matches!(err, ModelParseError::MissingChecksum), "{err}");
    }

    #[test]
    fn legacy_v1_files_still_load() {
        // A v1 file is exactly the v2 body with the old header and no
        // checksum line.
        let v2 = model_to_text(&sample_model());
        let body_end = v2.rfind("checksum").unwrap();
        let v1 = v2[..body_end].replace(HEADER_V2, HEADER_V1);
        let back = model_from_text(&v1).unwrap();
        assert_eq!(back, model_from_text(&v2).unwrap());

        // A v1 table is the kernel lines without their taint field.
        let t3 = table_to_text(&learned_table(), BreakerState::Closed, 0);
        let kernels: Vec<&str> = t3
            .lines()
            .filter_map(|l| l.strip_suffix(" tainted 0"))
            .collect();
        let t1 = format!("{TABLE_HEADER_V1}\n{}\n", kernels.join("\n"));
        let (back, breaker, generation) = table_from_text(&t1).unwrap();
        assert_eq!(back.snapshot(), learned_table().snapshot());
        assert_eq!((breaker, generation), (BreakerState::Closed, 0));
    }

    #[test]
    fn checksum_line_is_well_formed() {
        for text in [
            model_to_text(&sample_model()),
            table_to_text(&learned_table(), BreakerState::Open, 3),
            table_to_text(&KernelTable::new(), BreakerState::Closed, 0),
        ] {
            let last = text.lines().last().unwrap();
            let hex = last.strip_prefix("checksum ").unwrap();
            assert_eq!(hex.len(), 16, "{last}");
            u64::from_str_radix(hex, 16).unwrap();
        }
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = load_model("/definitely/not/here.txt").unwrap_err();
        assert!(matches!(err, ModelParseError::Io(_)));
        use std::error::Error as _;
        assert!(err.source().is_some());
    }

    use crate::eas::Accumulation;

    fn learned_table() -> KernelTable {
        let t = KernelTable::new();
        // Awkward floats on purpose: accumulation quotients that don't
        // round-trip through short decimal forms.
        t.accumulate(7, 2.0 / 3.0, 50_000.0, Accumulation::SampleWeighted);
        t.accumulate(7, 0.1, 12_345.0, Accumulation::SampleWeighted);
        t.accumulate(1, 0.0, 17.0, Accumulation::SampleWeighted);
        t.accumulate(900, 1.0, 1e9, Accumulation::SampleWeighted);
        t.note_reuse(7);
        t.note_reuse(7);
        t.note_reuse(900);
        t
    }

    #[test]
    fn table_roundtrip_is_lossless() {
        let table = learned_table();
        table.taint(900);
        let (back, breaker, generation) =
            table_from_text(&table_to_text(&table, BreakerState::HalfOpen, 9)).unwrap();
        // Bit-identical α, weight, and invocation counts for every kernel.
        assert_eq!(back.snapshot_with_taint(), table.snapshot_with_taint());
        assert_eq!(back, table);
        assert_eq!((breaker, generation), (BreakerState::HalfOpen, 9));
    }

    #[test]
    fn empty_table_roundtrips() {
        let text = table_to_text(&KernelTable::new(), BreakerState::Closed, 0);
        assert!(table_from_text(&text).unwrap().0.is_empty());
    }

    #[test]
    fn entry_max_len_bounds_every_entry() {
        let mut out = String::new();
        let widest = AlphaStat {
            alpha: f64::MIN_POSITIVE,
            weight: 1.234_567_890_123_456_7e-300,
            invocations_seen: u64::MAX,
        };
        push_entry(&mut out, u64::MAX, &widest, true);
        assert_eq!(out.len(), ENTRY_MAX_LEN, "{out}");
    }

    #[test]
    fn table_rejects_bad_input() {
        assert!(matches!(
            table_from_text("easched-kernel-table v99\n").unwrap_err(),
            ModelParseError::BadHeader(_)
        ));
        let dup = "kernel 1 alpha 0.5 weight 1 seen 0\nkernel 1 alpha 0.5 weight 1 seen 0";
        for bad in [
            "kernel x alpha 0.5 weight 1 seen 0",
            "kernel 1 alpha 1.5 weight 1 seen 0",
            "kernel 1 alpha 0.5 weight abc seen 0",
            "kernel 1 alpha 0.5 weight NaN seen 0",
            "kernel 1 alpha 0.5 weight -5e0 seen 0",
            "kernel 1 alpha 0.5 weight inf seen 0",
            "kernel 1 alpha 0.5 weight 1 seen -3",
            "kernel 1 alpha 0.5 weight 1 seen 3 extra",
            "kernel 1 alpha 0.5 weight 1 seen 0 tainted 0",
            "kernel 1 alpha 0.5 weight 1",
            "kernel 1 weight 1 alpha 0.5 seen 0",
            "generation 4",
            "mystery 1 2 3",
            dup,
        ] {
            // v1 carries no checksum; v2 is the same body, sealed. Both
            // are migration input under the v3 entry rule.
            for text in [
                format!("{TABLE_HEADER_V1}\n{bad}\n"),
                seal(format!("{TABLE_HEADER_V2}\n{bad}\n")),
            ] {
                let err = table_from_text(&text).unwrap_err();
                assert!(
                    matches!(err, ModelParseError::BadLine { .. }),
                    "{bad}: {err}"
                );
            }
        }
        for bad in [
            "kernel 1 alpha 0.5 weight 1 seen 0",
            "kernel 1 alpha 0.5 weight 1 seen 0 tainted 2",
            "kernel 1 alpha 0.5 weight 1 seen 0 tainted 0 extra",
            "generation -1",
            "generation 4 extra",
            "breaker 9",
            "breaker 1 extra",
        ] {
            let text = seal(format!("{TABLE_HEADER_V3}\n{bad}\n"));
            let err = table_from_text(&text).unwrap_err();
            assert!(
                matches!(err, ModelParseError::BadLine { .. }),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn table_comments_and_blank_lines_ignored() {
        let text = format!(
            "{TABLE_HEADER_V1}\n# warm-start state\n\nkernel 4 alpha 0.25 weight 10 seen 2\n"
        );
        let (back, _, _) = table_from_text(&text).unwrap();
        assert_eq!(back.lookup(4), Some(0.25));
        assert_eq!(
            back.stat(4).unwrap(),
            AlphaStat {
                alpha: 0.25,
                weight: 10.0,
                invocations_seen: 2
            }
        );
    }
}
