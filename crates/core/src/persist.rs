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
//! The learned kernel table G persists the same way
//! ([`table_to_text`]/[`table_from_text`]), so a long-running deployment
//! can warm-start its offload ratios instead of re-profiling every kernel
//! after a restart:
//!
//! ```text
//! easched-kernel-table v2
//! kernel 7 alpha 6.5e-1 weight 5e4 seen 12
//! ... (one line per kernel, id order)
//! checksum 41c09f22e6b7d530
//! ```
//!
//! # Integrity (DESIGN.md §9)
//!
//! Version 2 appends a trailing `checksum` line: an FNV-1a 64-bit digest
//! over every byte that precedes it. A model or table file truncated by a
//! crashed writer or corrupted at rest fails
//! [`ModelParseError::MissingChecksum`] /
//! [`ModelParseError::ChecksumMismatch`] instead of silently warm-starting
//! the scheduler with damaged ratios — loading never panics. Version-1
//! files (no checksum) are still accepted for migration.

use crate::classify::WorkloadClass;
use crate::kernel_table::{AlphaStat, KernelTable};
use crate::power_model::{PowerCurve, PowerModel};
use easched_num::Polynomial;
use easched_runtime::vfs::Vfs;
use std::error::Error;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

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
    use std::fmt::Write as _;
    debug_assert!(!body.contains('\n'), "sealed lines are single lines");
    out.push_str(body);
    // Writing into a `String` cannot fail.
    let _ = writeln!(out, " crc {:016x}", fnv1a64(body.as_bytes()));
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

/// Appends the v2 trailing checksum line over everything written so far.
pub(crate) fn seal(mut body: String) -> String {
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
pub(crate) fn verify_envelope<'a>(
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
/// line digests every preceding byte (also used by the v3 journal
/// snapshot, which has no unchecked legacy form).
pub(crate) fn verify_sealed<'a>(text: &'a str, header: &str) -> Result<&'a str, ModelParseError> {
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
                curves.push(parse_curve(line_no, &mut tokens)?);
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

fn parse_curve<'a>(
    line: usize,
    tokens: &mut impl Iterator<Item = &'a str>,
) -> Result<PowerCurve, ModelParseError> {
    let bad = |message: String| ModelParseError::BadLine { line, message };
    let index: usize = tokens
        .next()
        .ok_or_else(|| bad("missing class index".into()))?
        .parse()
        .map_err(|e| bad(format!("class index: {e}")))?;
    if index >= 8 {
        return Err(bad(format!("class index {index} out of range")));
    }
    expect_keyword(line, tokens, "rmse")?;
    let rmse: f64 = tokens
        .next()
        .ok_or_else(|| bad("missing rmse".into()))?
        .parse()
        .map_err(|e| bad(format!("rmse: {e}")))?;
    expect_keyword(line, tokens, "samples")?;
    let samples: usize = tokens
        .next()
        .ok_or_else(|| bad("missing samples".into()))?
        .parse()
        .map_err(|e| bad(format!("samples: {e}")))?;
    expect_keyword(line, tokens, "coeffs")?;
    let coeffs: Result<Vec<f64>, _> = tokens.map(str::parse).collect();
    let coeffs = coeffs.map_err(|e| bad(format!("coefficient: {e}")))?;
    if coeffs.is_empty() {
        return Err(bad("curve has no coefficients".into()));
    }
    Ok(PowerCurve::new(
        WorkloadClass::from_index(index),
        Polynomial::new(coeffs),
        rmse,
        samples,
    ))
}

fn expect_keyword<'a>(
    line: usize,
    tokens: &mut impl Iterator<Item = &'a str>,
    keyword: &str,
) -> Result<(), ModelParseError> {
    match tokens.next() {
        Some(t) if t == keyword => Ok(()),
        other => Err(ModelParseError::BadLine {
            line,
            message: format!("expected {keyword:?}, found {other:?}"),
        }),
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

/// [`save_model`] through an explicit [`Vfs`] (the storage-chaos seam).
///
/// # Errors
///
/// Propagates filesystem errors, injected or real.
pub fn save_model_with(
    vfs: &dyn Vfs,
    model: &PowerModel,
    path: impl AsRef<Path>,
) -> io::Result<()> {
    vfs.write(path.as_ref(), model_to_text(model).as_bytes())
}

/// Loads a model from a file.
///
/// # Errors
///
/// [`ModelParseError`] on I/O or format problems.
pub fn load_model(path: impl AsRef<Path>) -> Result<PowerModel, ModelParseError> {
    model_from_text(&fs::read_to_string(path)?)
}

/// [`load_model`] through an explicit [`Vfs`].
///
/// # Errors
///
/// [`ModelParseError`] on I/O or format problems.
pub fn load_model_with(
    vfs: &dyn Vfs,
    path: impl AsRef<Path>,
) -> Result<PowerModel, ModelParseError> {
    let bytes = vfs.read(path.as_ref())?;
    model_from_text(&String::from_utf8_lossy(&bytes))
}

/// Format header of the legacy kernel-table format, version 1.
pub(crate) const TABLE_HEADER_V1: &str = "easched-kernel-table v1";
/// Format header of the kernel-table format, version 2 (checksummed).
pub(crate) const TABLE_HEADER_V2: &str = "easched-kernel-table v2";

/// Serializes a learned kernel table to the v2 text format. Lines are in
/// kernel-id order, so equal tables serialize identically.
///
/// # Examples
///
/// ```
/// use easched_core::persist::{table_from_text, table_to_text};
/// use easched_core::{Accumulation, KernelTable};
///
/// let table = KernelTable::new();
/// table.accumulate(7, 0.7, 50_000.0, Accumulation::SampleWeighted);
/// let back = table_from_text(&table_to_text(&table))?;
/// assert_eq!(back.lookup(7), Some(0.7));
/// # Ok::<(), easched_core::persist::ModelParseError>(())
/// ```
pub fn table_to_text(table: &KernelTable) -> String {
    let mut out = String::new();
    out.push_str(TABLE_HEADER_V2);
    out.push('\n');
    for (kernel, stat) in table.snapshot() {
        // Full round-trip precision on the floats.
        out.push_str(&format!(
            "kernel {} alpha {:e} weight {:e} seen {}\n",
            kernel, stat.alpha, stat.weight, stat.invocations_seen
        ));
    }
    seal(out)
}

/// Parses the kernel-table text format: v2 (checksum verified) or legacy
/// v1.
///
/// # Errors
///
/// [`ModelParseError`] on malformed, truncated, or corrupted input
/// (including a duplicated kernel id, which would silently drop learned
/// weight). Never panics, whatever the bytes.
pub fn table_from_text(text: &str) -> Result<KernelTable, ModelParseError> {
    let body = verify_envelope(text, TABLE_HEADER_V1, TABLE_HEADER_V2)?;
    let mut lines = body.lines().enumerate();
    lines.next(); // header, already validated by the envelope check
    let table = KernelTable::new();
    for (idx, raw) in lines {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = |message: String| ModelParseError::BadLine {
            line: line_no,
            message,
        };
        let mut tokens = line.split_whitespace();
        match tokens.next() {
            Some("kernel") => {
                let kernel: u64 = tokens
                    .next()
                    .ok_or_else(|| bad("missing kernel id".into()))?
                    .parse()
                    .map_err(|e| bad(format!("kernel id: {e}")))?;
                expect_keyword(line_no, &mut tokens, "alpha")?;
                let alpha: f64 = tokens
                    .next()
                    .ok_or_else(|| bad("missing alpha".into()))?
                    .parse()
                    .map_err(|e| bad(format!("alpha: {e}")))?;
                if !(0.0..=1.0).contains(&alpha) {
                    return Err(bad(format!("alpha {alpha} out of [0, 1]")));
                }
                expect_keyword(line_no, &mut tokens, "weight")?;
                let weight: f64 = tokens
                    .next()
                    .ok_or_else(|| bad("missing weight".into()))?
                    .parse()
                    .map_err(|e| bad(format!("weight: {e}")))?;
                expect_keyword(line_no, &mut tokens, "seen")?;
                let invocations_seen: u64 = tokens
                    .next()
                    .ok_or_else(|| bad("missing seen count".into()))?
                    .parse()
                    .map_err(|e| bad(format!("seen count: {e}")))?;
                if table.stat(kernel).is_some() {
                    return Err(bad(format!("kernel {kernel} listed twice")));
                }
                table.insert(
                    kernel,
                    AlphaStat {
                        alpha,
                        weight,
                        invocations_seen,
                    },
                );
            }
            other => {
                return Err(bad(format!("unknown record {other:?}")));
            }
        }
    }
    Ok(table)
}

/// Saves a kernel table to a file.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_table(table: &KernelTable, path: impl AsRef<Path>) -> io::Result<()> {
    fs::write(path, table_to_text(table))
}

/// [`save_table`] through an explicit [`Vfs`] (the storage-chaos seam).
///
/// # Errors
///
/// Propagates filesystem errors, injected or real.
pub fn save_table_with(
    vfs: &dyn Vfs,
    table: &KernelTable,
    path: impl AsRef<Path>,
) -> io::Result<()> {
    vfs.write(path.as_ref(), table_to_text(table).as_bytes())
}

/// Loads a kernel table from a file.
///
/// # Errors
///
/// [`ModelParseError`] on I/O or format problems.
pub fn load_table(path: impl AsRef<Path>) -> Result<KernelTable, ModelParseError> {
    table_from_text(&fs::read_to_string(path)?)
}

/// [`load_table`] through an explicit [`Vfs`].
///
/// # Errors
///
/// [`ModelParseError`] on I/O or format problems.
pub fn load_table_with(
    vfs: &dyn Vfs,
    path: impl AsRef<Path>,
) -> Result<KernelTable, ModelParseError> {
    let bytes = vfs.read(path.as_ref())?;
    table_from_text(&String::from_utf8_lossy(&bytes))
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
        let mut text = table_to_text(&learned_table());
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

        let t2 = table_to_text(&learned_table());
        let t1 = t2[..t2.rfind("checksum").unwrap()].replace(TABLE_HEADER_V2, TABLE_HEADER_V1);
        assert_eq!(
            table_from_text(&t1).unwrap().snapshot(),
            learned_table().snapshot()
        );
    }

    #[test]
    fn checksum_line_is_well_formed() {
        for text in [
            model_to_text(&sample_model()),
            table_to_text(&learned_table()),
            table_to_text(&KernelTable::new()),
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
    use crate::kernel_table::{AlphaStat, KernelTable};

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
        let back = table_from_text(&table_to_text(&table)).unwrap();
        // Bit-identical α, weight, and invocation counts for every kernel.
        assert_eq!(back.snapshot(), table.snapshot());
        assert_eq!(back, table);
    }

    #[test]
    fn table_file_roundtrip() {
        let table = learned_table();
        let path = std::env::temp_dir().join(format!("easched_table_{}.txt", std::process::id()));
        save_table(&table, &path).unwrap();
        let back = load_table(&path).unwrap();
        assert_eq!(back.snapshot(), table.snapshot());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn empty_table_roundtrips() {
        let back = table_from_text(&table_to_text(&KernelTable::new())).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn table_rejects_bad_input() {
        assert!(matches!(
            table_from_text("easched-kernel-table v99\n").unwrap_err(),
            ModelParseError::BadHeader(_)
        ));
        for bad in [
            "kernel x alpha 0.5 weight 1 seen 0",
            "kernel 1 alpha 1.5 weight 1 seen 0",
            "kernel 1 alpha 0.5 weight abc seen 0",
            "kernel 1 alpha 0.5 weight 1 seen -3",
            "kernel 1 alpha 0.5 weight 1",
            "kernel 1 weight 1 alpha 0.5 seen 0",
            "mystery 1 2 3",
            "kernel 1 alpha 0.5 weight 1 seen 0\nkernel 1 alpha 0.5 weight 1 seen 0",
        ] {
            let text = format!("{TABLE_HEADER_V1}\n{bad}\n");
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
        let back = table_from_text(&text).unwrap();
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
