//! The checked-line core shared by the workspace's on-disk formats.
//!
//! Four formats frame their records with FNV-1a checksums: event traces
//! ([`crate::codec`]) and schedules ([`crate::sched`]) put one record per
//! text line, checkpoint journals ([`crate::journal`]) checksum their
//! `@rec` headers, and shard directories ([`crate::shard`]) their
//! `MANIFEST` lines. This module holds the one copy of each piece they
//! share:
//!
//! * [`fnv1a`] and its continuing form [`fnv1a_extend`];
//! * [`verify_token`], which splits off and checks a trailing
//!   ` ~<hex>` checksum token;
//! * the salvaging line loop behind the trace and schedule readers, with
//!   its error type [`ParseLineError`] and result type [`Salvaged`].
//!
//! # Torn lines
//!
//! Trace and schedule lines may omit their checksum token, so that
//! hand-written input stays readable. A capture cut off mid-write can
//! leave a final line that lost its token *and* part of its last number
//! — `call 17 ~…` cut to `call 1` — which still parses. The loop
//! therefore treats a final line with neither a terminating newline nor
//! a checksum token as torn: a writer always ends its last line with
//! both.

use crate::obs::Metrics;
use std::fmt;

/// The FNV-1a 64-bit offset basis: the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` one at a time into the FNV-1a state `hash`.
///
/// # Example
/// ```
/// use drms_trace::lines::{fnv1a, fnv1a_extend};
/// assert_eq!(fnv1a_extend(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
/// ```
#[inline]
pub fn fnv1a_extend(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// FNV-1a hash of `bytes` — the workspace's line checksum and its cheap,
/// dependency-free fingerprint for byte-identity checks.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Appends `payload ~<hex>` and a newline to `out`: one checksummed line
/// as the trace and schedule codecs and the journal's `@rec` headers
/// write it.
pub(crate) fn push_checked(out: &mut String, payload: &str) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "{payload} ~{:x}", fnv1a(payload.as_bytes()));
}

/// Splits a trailing ` ~<hex>` checksum token off `line` and verifies it
/// against the payload before it.
///
/// The token is the text after the last `~` when whitespace precedes
/// that `~`; the payload is everything before it, trailing whitespace
/// trimmed. Returns `Ok(Some(payload))` for a verified line and
/// `Ok(None)` for a line without a token.
///
/// # Errors
/// A description of the bad hex digits or of the mismatch.
pub fn verify_token(line: &str) -> Result<Option<&str>, String> {
    let Some((head, hex)) = line
        .rsplit_once('~')
        .filter(|(head, _)| head.ends_with(char::is_whitespace))
    else {
        return Ok(None);
    };
    let payload = head.trim_end();
    let declared =
        u64::from_str_radix(hex, 16).map_err(|e| format!("bad checksum `{hex}`: {e}"))?;
    let actual = fnv1a(payload.as_bytes());
    if actual != declared {
        return Err(format!(
            "checksum mismatch: line declares {declared:x}, payload hashes to {actual:x}"
        ));
    }
    Ok(Some(payload))
}

/// Error produced when parsing a line-oriented text format: an event
/// trace, a schedule or a profile report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseLineError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for ParseLineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseLineError {}

/// What a salvaging reader recovered from damaged input: the decoded
/// longest valid prefix plus its accounting.
///
/// `salvaged + dropped == total` holds for every input. The trace and
/// schedule readers count non-blank, non-comment lines; the journal
/// reader counts records.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Salvaged<T> {
    /// The decoded valid prefix.
    pub value: T,
    /// Units decoded into [`Self::value`].
    pub salvaged: usize,
    /// Units lost: the first bad one and everything after it.
    pub dropped: usize,
    /// Units seen, counted independently of the salvage decisions, so
    /// `salvaged + dropped == total` is a checkable invariant.
    pub total: usize,
    /// Human-readable descriptions of what was dropped or skipped and
    /// why (empty when the whole input read cleanly).
    pub warnings: Vec<String>,
}

impl<T> Salvaged<T> {
    /// Whether the reader found any damage.
    pub fn is_damaged(&self) -> bool {
        !self.warnings.is_empty()
    }
}

/// A value a salvaging reader decodes, naming the metric prefix its
/// [`Salvaged`] accounting is recorded under.
pub trait SalvageKind: Sized {
    /// Prefix of the `<prefix>.lines.{salvaged,dropped,total}` counters.
    const METRIC_PREFIX: &'static str;

    /// Records counters beyond the `lines.*` accounting; none by default.
    fn observe_more(_salvage: &Salvaged<Self>, _metrics: &mut Metrics) {}
}

impl<T: SalvageKind> Salvaged<T> {
    /// Records this salvage's accounting into `metrics`, where
    /// [`Metrics::audit`] cross-checks `salvaged + dropped == total`.
    pub fn observe_metrics(&self, metrics: &mut Metrics) {
        metrics.record_salvage(
            T::METRIC_PREFIX,
            self.salvaged as u64,
            self.dropped as u64,
            self.total as u64,
        );
        T::observe_more(self, metrics);
    }
}

/// The line loop behind the trace and schedule readers.
///
/// Skips blank and `#` lines and counts the rest. Each counted line's
/// checksum token, when present, is verified, and the payload goes to
/// `parse`; `keep` folds each parsed record into the value. The loop
/// keeps the longest valid prefix and stops at the first bad line —
/// records after a corruption point cannot be trusted to belong where
/// they appear — returning that line's error next to the salvage,
/// whose one warning describes it.
pub(crate) fn read_lines<T: Default, R>(
    text: &str,
    parse: impl Fn(&str) -> Result<R, String>,
    mut keep: impl FnMut(&mut T, R),
) -> (Salvaged<T>, Option<ParseLineError>) {
    let mut out = Salvaged::<T>::default();
    let mut error = None;
    for (i, raw) in text.split_inclusive('\n').enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.total += 1;
        if error.is_some() {
            out.dropped += 1;
            continue;
        }
        let parsed = match verify_token(line) {
            Ok(Some(payload)) => parse(payload),
            Ok(None) => parse(line).and_then(|record| {
                if raw.ends_with('\n') {
                    Ok(record)
                } else {
                    Err("torn final line: no checksum and no newline".to_owned())
                }
            }),
            Err(message) => Err(message),
        };
        match parsed {
            Ok(record) => {
                keep(&mut out.value, record);
                out.salvaged += 1;
            }
            Err(message) => {
                out.dropped += 1;
                error = Some(ParseLineError {
                    line: i + 1,
                    message,
                });
            }
        }
    }
    if let Some(e) = &error {
        out.warnings.push(format!(
            "{e}; salvaged {} line(s), dropped {}",
            out.salvaged, out.dropped
        ));
    }
    (out, error)
}
