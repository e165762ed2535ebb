//! The replication wire format: sealed envelopes in sealed frames.
//!
//! A [`Frame`] is the atomic transport unit of the anti-entropy protocol
//! (DESIGN.md §15). It is line-oriented text in the v3 journal's idiom:
//! every line carries a trailing `crc <hex>` FNV-1a seal, floats ride as
//! `{:016x}` bit patterns (byte-exact, NaN included), and a header/footer
//! pair brackets the body so a frame torn anywhere — mid-line, mid-body,
//! or mid-footer — is rejected *whole*. Entries never apply partially.
//!
//! Two frame kinds exist:
//!
//! * `req` — a puller's watermark vector: one `want <origin> <gen> <seq>`
//!   line per origin it knows about. The receiver answers with every
//!   envelope the puller lacks.
//! * `ent` — a batch of [`Envelope`]s, each a single sealed line, in
//!   strictly increasing `(generation, seq)` order per origin.

use easched_core::{seal_line, unseal_line};

/// A node's identity within the fleet (dense, 0-based).
pub type NodeId = u16;

/// A replication version: the envelope's position in its origin's stream.
///
/// Versions order lexicographically as `(generation, seq, origin)`. The
/// generation is the origin's node epoch (bumped across crash/restart,
/// fenced by the journal's snapshot generation), `seq` counts envelopes
/// within an epoch from 1, and the origin id breaks the (never expected,
/// but total-order-required) cross-origin tie deterministically. Applying
/// by max version is what makes replication last-writer-wins and
/// order-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Version {
    /// The origin's node epoch.
    pub generation: u64,
    /// 1-based position within the epoch.
    pub seq: u64,
    /// The originating node.
    pub origin: NodeId,
}

/// What an envelope says about a kernel on its origin's platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Absolute table state for one kernel — not a delta, so applying the
    /// max-version `Put` alone reconstructs the entry.
    Put {
        /// Kernel id.
        kernel: u64,
        /// Learned offload ratio.
        alpha: f64,
        /// Accumulated sample weight.
        weight: f64,
        /// Invocations observed by the origin.
        seen: u64,
        /// Whether the origin had the entry tainted at publish time.
        tainted: bool,
    },
    /// The origin quarantined this kernel's entry (fault pipeline). A
    /// taint is a separate monotone fact, not an overwrite: it beats any
    /// older `Put` and is beaten by any newer one, so replicas converge
    /// regardless of arrival order.
    Taint {
        /// Kernel id.
        kernel: u64,
    },
}

impl Op {
    /// The kernel this op concerns.
    pub fn kernel(&self) -> u64 {
        match *self {
            Op::Put { kernel, .. } | Op::Taint { kernel } => kernel,
        }
    }
}

/// One replicated journal fact: who learned what, where, and when.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// The node that learned the fact.
    pub origin: NodeId,
    /// The origin's platform name — the namespace the fact is truth in.
    /// On any *other* platform it is at most a warm-start prior.
    pub platform: String,
    /// Origin's node epoch at publish time.
    pub generation: u64,
    /// 1-based position within the epoch.
    pub seq: u64,
    /// The fact itself.
    pub op: Op,
}

impl Envelope {
    /// This envelope's replication version.
    pub fn version(&self) -> Version {
        Version {
            generation: self.generation,
            seq: self.seq,
            origin: self.origin,
        }
    }

    fn to_line(&self) -> String {
        match self.op {
            Op::Put {
                kernel,
                alpha,
                weight,
                seen,
                tainted,
            } => format!(
                "put {} {} {} {} {kernel:016x} {:016x} {:016x} {seen} {}",
                self.origin,
                sanitize(&self.platform),
                self.generation,
                self.seq,
                alpha.to_bits(),
                weight.to_bits(),
                u8::from(tainted),
            ),
            Op::Taint { kernel } => format!(
                "taint {} {} {} {} {kernel:016x}",
                self.origin,
                sanitize(&self.platform),
                self.generation,
                self.seq,
            ),
        }
    }

    fn from_line(body: &str) -> Option<Envelope> {
        let mut parts = body.split_whitespace();
        let word = parts.next()?;
        let origin = parts.next()?.parse().ok()?;
        let platform = parts.next()?.to_string();
        let generation = parts.next()?.parse().ok()?;
        let seq = parts.next()?.parse().ok()?;
        let kernel = u64::from_str_radix(parts.next()?, 16).ok()?;
        let op = match word {
            "put" => Op::Put {
                kernel,
                alpha: f64::from_bits(u64::from_str_radix(parts.next()?, 16).ok()?),
                weight: f64::from_bits(u64::from_str_radix(parts.next()?, 16).ok()?),
                seen: parts.next()?.parse().ok()?,
                tainted: match parts.next()? {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                },
            },
            "taint" => Op::Taint { kernel },
            _ => return None,
        };
        end_of(parts)?;
        Some(Envelope {
            origin,
            platform,
            generation,
            seq,
            op,
        })
    }
}

/// What a frame carries.
#[derive(Debug, Clone, PartialEq)]
pub enum FramePayload {
    /// A puller's watermark vector: `(origin, generation, seq)` high-water
    /// marks, one per origin the puller has applied anything from.
    Request(Vec<(NodeId, u64, u64)>),
    /// A batch of envelopes answering a request.
    Entries(Vec<Envelope>),
}

/// The atomic transport unit: sender, receiver, and a sealed payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// The payload.
    pub payload: FramePayload,
}

/// Why a byte blob failed to decode as a [`Frame`]. Every variant means
/// the *whole* frame is discarded — there is no partial apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The `frame ...` header line is missing, unsealed, or malformed.
    BadHeader,
    /// A body line is missing, unsealed, or malformed (torn frame,
    /// bit flip, or truncation).
    TornBody,
    /// The `frame-end <n>` footer is missing, unsealed, or disagrees with
    /// the body count (classic torn-tail signature).
    TornFooter,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadHeader => write!(f, "frame header missing or corrupt"),
            FrameError::TornBody => write!(f, "frame body torn or corrupt"),
            FrameError::TornFooter => write!(f, "frame footer torn or corrupt"),
        }
    }
}

impl std::error::Error for FrameError {}

impl Frame {
    /// A request frame carrying the puller's watermark vector.
    pub fn request(from: NodeId, to: NodeId, wants: Vec<(NodeId, u64, u64)>) -> Frame {
        Frame {
            from,
            to,
            payload: FramePayload::Request(wants),
        }
    }

    /// An entries frame answering a request.
    pub fn entries(from: NodeId, to: NodeId, envelopes: Vec<Envelope>) -> Frame {
        Frame {
            from,
            to,
            payload: FramePayload::Entries(envelopes),
        }
    }

    /// Serializes the frame, every line sealed.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        let (kind, n) = match &self.payload {
            FramePayload::Request(wants) => ("req", wants.len()),
            FramePayload::Entries(envs) => ("ent", envs.len()),
        };
        seal_line(
            &mut out,
            &format!("frame {} {} {kind} {n}", self.from, self.to),
        );
        match &self.payload {
            FramePayload::Request(wants) => {
                for (origin, generation, seq) in wants {
                    seal_line(&mut out, &format!("want {origin} {generation} {seq}"));
                }
            }
            FramePayload::Entries(envs) => {
                for env in envs {
                    seal_line(&mut out, &env.to_line());
                }
            }
        }
        seal_line(&mut out, &format!("frame-end {n}"));
        out
    }

    /// Decodes a frame, rejecting it whole on any torn or corrupt line.
    pub fn decode(text: &str) -> Result<Frame, FrameError> {
        let mut lines = text.lines();
        let header = lines
            .next()
            .and_then(unseal_line)
            .ok_or(FrameError::BadHeader)?;
        let mut parts = header.split_whitespace();
        if parts.next() != Some("frame") {
            return Err(FrameError::BadHeader);
        }
        let from: NodeId = parse_field(parts.next()).ok_or(FrameError::BadHeader)?;
        let to: NodeId = parse_field(parts.next()).ok_or(FrameError::BadHeader)?;
        let kind = parts.next().ok_or(FrameError::BadHeader)?.to_string();
        let n: usize = parse_field(parts.next()).ok_or(FrameError::BadHeader)?;
        if parts.next().is_some() {
            return Err(FrameError::BadHeader);
        }

        let payload = match kind.as_str() {
            "req" => {
                let mut wants = Vec::with_capacity(n);
                for _ in 0..n {
                    let body = lines
                        .next()
                        .and_then(unseal_line)
                        .ok_or(FrameError::TornBody)?;
                    let mut p = body.split_whitespace();
                    if p.next() != Some("want") {
                        return Err(FrameError::TornBody);
                    }
                    let origin = parse_field(p.next()).ok_or(FrameError::TornBody)?;
                    let generation = parse_field(p.next()).ok_or(FrameError::TornBody)?;
                    let seq = parse_field(p.next()).ok_or(FrameError::TornBody)?;
                    if p.next().is_some() {
                        return Err(FrameError::TornBody);
                    }
                    wants.push((origin, generation, seq));
                }
                FramePayload::Request(wants)
            }
            "ent" => {
                let mut envs = Vec::with_capacity(n);
                for _ in 0..n {
                    let body = lines
                        .next()
                        .and_then(unseal_line)
                        .ok_or(FrameError::TornBody)?;
                    envs.push(Envelope::from_line(body).ok_or(FrameError::TornBody)?);
                }
                FramePayload::Entries(envs)
            }
            _ => return Err(FrameError::BadHeader),
        };

        let footer = lines
            .next()
            .and_then(unseal_line)
            .ok_or(FrameError::TornFooter)?;
        let count = footer
            .strip_prefix("frame-end ")
            .and_then(|c| c.trim().parse::<usize>().ok())
            .ok_or(FrameError::TornFooter)?;
        if count != n || lines.next().is_some() {
            return Err(FrameError::TornFooter);
        }
        Ok(Frame { from, to, payload })
    }
}

fn parse_field<T: std::str::FromStr>(field: Option<&str>) -> Option<T> {
    field?.parse().ok()
}

/// Platform names are code-chosen; squash any stray whitespace so they
/// cannot break the line grammar.
fn sanitize(s: &str) -> String {
    s.replace(char::is_whitespace, "_")
}

/// `Some(())` only when the iterator is exhausted (trailing junk on a
/// line is treated as corruption).
fn end_of(mut parts: std::str::SplitWhitespace<'_>) -> Option<()> {
    parts.next().is_none().then_some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries() -> Frame {
        Frame::entries(
            0,
            1,
            vec![
                Envelope {
                    origin: 0,
                    platform: "haswell-desktop".into(),
                    generation: 1,
                    seq: 1,
                    op: Op::Put {
                        kernel: 7,
                        alpha: 0.65,
                        weight: 12.0,
                        seen: 3,
                        tainted: false,
                    },
                },
                Envelope {
                    origin: 0,
                    platform: "haswell-desktop".into(),
                    generation: 1,
                    seq: 2,
                    op: Op::Taint { kernel: 7 },
                },
            ],
        )
    }

    #[test]
    fn entries_round_trip() {
        let frame = sample_entries();
        assert_eq!(Frame::decode(&frame.encode()), Ok(frame));
    }

    #[test]
    fn request_round_trips() {
        let frame = Frame::request(2, 0, vec![(0, 1, 5), (1, 2, 0), (2, 1, 9)]);
        assert_eq!(Frame::decode(&frame.encode()), Ok(frame));
    }

    #[test]
    fn nan_alpha_rides_bit_exact() {
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let frame = Frame::entries(
            1,
            0,
            vec![Envelope {
                origin: 1,
                platform: "baytrail-tablet".into(),
                generation: 3,
                seq: 1,
                op: Op::Put {
                    kernel: 9,
                    alpha: nan,
                    weight: f64::NEG_INFINITY,
                    seen: 0,
                    tainted: true,
                },
            }],
        );
        let back = Frame::decode(&frame.encode()).unwrap();
        let FramePayload::Entries(envs) = &back.payload else {
            panic!("entries frame");
        };
        let Op::Put { alpha, weight, .. } = envs[0].op else {
            panic!("put op");
        };
        assert_eq!(alpha.to_bits(), nan.to_bits());
        assert_eq!(weight, f64::NEG_INFINITY);
    }

    #[test]
    fn every_truncation_is_rejected_whole() {
        let text = sample_entries().encode();
        // Cutting exactly the trailing '\n' leaves every sealed line —
        // footer included — byte-intact, so that one prefix legitimately
        // decodes; every shorter prefix must be rejected whole.
        for cut in 0..text.len() - 1 {
            let torn = &text[..cut];
            assert!(
                Frame::decode(torn).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn any_single_bit_flip_is_rejected() {
        let text = sample_entries().encode();
        let bytes = text.as_bytes();
        // Flip one ASCII-visible bit in a few positions across the frame
        // (the proptest suite sweeps this exhaustively).
        for pos in [0, 7, bytes.len() / 2, bytes.len() - 2] {
            let mut corrupt = bytes.to_vec();
            corrupt[pos] ^= 0x01;
            let corrupt = String::from_utf8(corrupt).unwrap();
            if corrupt == text {
                continue;
            }
            assert!(Frame::decode(&corrupt).is_err(), "flip at {pos} decoded");
        }
    }

    #[test]
    fn footer_count_mismatch_is_torn() {
        let text = sample_entries().encode();
        // Drop the middle body line but keep header and footer intact.
        let lines: Vec<&str> = text.lines().collect();
        let shorter: String = [lines[0], lines[2], lines[3]]
            .iter()
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(Frame::decode(&shorter), Err(FrameError::TornBody));
    }

    #[test]
    fn versions_order_lexicographically() {
        let v = |generation, seq, origin| Version {
            generation,
            seq,
            origin,
        };
        assert!(v(1, 9, 2) < v(2, 1, 0), "generation dominates");
        assert!(v(1, 1, 0) < v(1, 2, 0), "then seq");
        assert!(v(1, 1, 0) < v(1, 1, 1), "then origin");
    }
}
