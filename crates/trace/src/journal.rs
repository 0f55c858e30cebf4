//! Checksummed append-only checkpoint journal.
//!
//! Long sweeps (family × size × seed grids) are exactly the jobs where a
//! crash throws away hours of work. The journal lets a supervisor record
//! each completed unit of work as it finishes and salvage everything that
//! was durably written when the process is killed mid-grid.
//!
//! The format is a length-framed sibling of the `.trace`/`.sched` line
//! codecs and reuses their checked-line core ([`crate::lines`]): the
//! FNV-1a checksum, the ` ~<hex>` header token and the [`Salvaged`]
//! result, extended to multi-line payloads:
//!
//! ```text
//! # drms-journal v1
//! @rec <meta> %<payload-bytes> ~<hex checksum of the header payload>
//! <payload bytes, exactly %n of them, may contain newlines>
//! @end ~<hex FNV-1a checksum of the payload bytes>
//! ```
//!
//! * the `@rec` header carries a free-form single-line `meta` token
//!   stream (record kind, grid index, attempt counts — whatever the
//!   writer needs to key records by), the exact payload length in bytes,
//!   and a checksum of the header itself;
//! * the payload is copied verbatim — it is *length-framed*, not
//!   line-framed, so payloads may embed any text, including lines that
//!   look like journal framing;
//! * the `@end` trailer checksums the payload, so a torn write (the
//!   classic crash-mid-append) is detected even when the truncation point
//!   happens to fall on a plausible-looking boundary.
//!
//! [`from_text`] fails on the first damaged record; [`from_text_lossy`]
//! salvages the longest valid prefix — everything before the first
//! corrupt or torn record — mirroring the trace/sched codecs. Its
//! length-framed record parser and `@rec` loss estimate stay its own:
//! a record is not a line. A journal
//! is append-only: re-recording a unit of work appends a fresh record,
//! and readers let the *last* record for a key win.

use crate::lines::{fnv1a, push_checked, verify_token, SalvageKind, Salvaged};
use crate::obs::Metrics;

/// The first line of every journal file.
pub const FILE_HEADER: &str = "# drms-journal v1";

/// One salvageable unit of work: an opaque `meta` key line plus an
/// opaque payload (both chosen by the writer).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalRecord {
    /// Single-line, free-form record key ("spec minidb", "cell 3 ok", …).
    pub meta: String,
    /// Verbatim payload; may contain newlines.
    pub payload: String,
}

/// Error produced when strictly parsing a journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseJournalError {
    /// 1-based index of the offending record (0 for file-level problems).
    pub record: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl std::fmt::Display for ParseJournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "journal record {}: {}", self.record, self.message)
    }
}

impl std::error::Error for ParseJournalError {}

/// Encodes one record (header line + payload + trailer). The result is
/// what an appender writes — durable once flushed, self-delimiting, and
/// verifiable without trusting anything that follows it in the file.
///
/// # Panics
/// Panics if `meta` contains a newline: the header must stay one line.
pub fn encode_record(meta: &str, payload: &str) -> String {
    assert!(
        !meta.contains('\n') && !meta.contains('\r'),
        "journal meta must be a single line"
    );
    let header = format!("@rec {meta} %{}", payload.len());
    let mut out = String::with_capacity(header.len() + payload.len() + 32);
    push_checked(&mut out, &header);
    out.push_str(payload);
    out.push_str(&format!("\n@end ~{:x}\n", fnv1a(payload.as_bytes())));
    out
}

/// Serializes a whole journal: file header plus every record in order.
pub fn to_text(records: &[JournalRecord]) -> String {
    let mut out = String::from(FILE_HEADER);
    out.push('\n');
    for r in records {
        out.push_str(&encode_record(&r.meta, &r.payload));
    }
    out
}

/// Strictly parses a journal; fails on the first damaged record.
pub fn from_text(text: &str) -> Result<Vec<JournalRecord>, ParseJournalError> {
    let salvaged = from_text_lossy(text.as_bytes());
    match salvaged.warnings.first() {
        None => Ok(salvaged.value),
        Some(w) => Err(ParseJournalError {
            record: salvaged.salvaged + 1,
            message: w.clone(),
        }),
    }
}

impl SalvageKind for Vec<JournalRecord> {
    const METRIC_PREFIX: &'static str = "journal";

    /// The headline `journal.cells_salvaged` counter used by resume
    /// reporting, and `journal.damaged` when anything was lost.
    fn observe_more(salvage: &Salvaged<Self>, metrics: &mut Metrics) {
        metrics.add("journal.cells_salvaged", salvage.salvaged as u64);
        if salvage.is_damaged() {
            metrics.inc("journal.damaged");
        }
    }
}

/// Parses as many complete, checksum-valid records as possible from the
/// start of `bytes`, stopping at the first sign of damage. Truncating a
/// journal at *any* byte yields the records that were fully appended
/// before the truncation point — never a torn or corrupt record.
///
/// Writers only ever append UTF-8, so an invalid byte is corruption like
/// any other: it is decoded lossily (to U+FFFD), which breaks the
/// length framing or checksum of the record it lands in and tears the
/// journal there.
pub fn from_text_lossy(bytes: &[u8]) -> Salvaged<Vec<JournalRecord>> {
    let text = &*String::from_utf8_lossy(bytes);
    let mut out = Salvaged::<Vec<JournalRecord>>::default();
    let mut pos = 0usize;

    // File header line (tolerate a missing trailing newline on it only
    // if the file contains nothing else).
    match read_line(text, pos) {
        Some((line, next)) if line == FILE_HEADER => pos = next,
        Some((line, _)) => {
            out.warnings
                .push(format!("bad journal header line: `{line}`"));
            out.dropped = count_record_headers(text, 0);
            out.total = out.dropped;
            return out;
        }
        None => {
            if !text.is_empty() {
                out.warnings
                    .push("journal header truncated mid-line".to_string());
            }
            return out;
        }
    }

    loop {
        let rec_start = pos;
        let (line, next) = match read_line(text, pos) {
            Some(x) => x,
            None => {
                if pos < text.len() {
                    out.warnings
                        .push("record header truncated mid-line".to_string());
                }
                break;
            }
        };
        pos = next;
        if line.is_empty() {
            continue; // stray blank line between records is harmless
        }
        if line.starts_with("@end") {
            // A duplicate `@end` trailer (a writer retrying an append
            // after a partially-flushed one) is unambiguous at record
            // position: note it and keep going — the records after it
            // are intact and must not be dropped with the noise.
            out.warnings
                .push(format!("stray `@end` trailer skipped: `{line}`"));
            continue;
        }
        match parse_record_at(text, line, pos) {
            Ok((rec, next)) => {
                out.value.push(rec);
                pos = next;
            }
            Err(msg) => {
                out.warnings.push(msg);
                pos = rec_start;
                break;
            }
        }
    }

    out.salvaged = out.value.len();
    // Count the records we failed to recover: every @rec header in the
    // damaged suffix. The torn record itself counts once even when its
    // header line is what got corrupted beyond recognition. Skipped
    // stray trailers cost no records, so nothing is dropped when the
    // scan reached the end of the file.
    if !out.warnings.is_empty() && pos < text.len() {
        let mut dropped = count_record_headers(text, pos);
        if dropped == 0 {
            dropped = 1;
        }
        out.dropped = dropped;
    }
    out.total = out.salvaged + out.dropped;
    out
}

/// Parses one record whose header `line` was read ending at byte
/// `payload_start`. Returns the record and the byte offset just past its
/// trailer, or a warning message on any damage.
fn parse_record_at(
    text: &str,
    line: &str,
    payload_start: usize,
) -> Result<(JournalRecord, usize), String> {
    let header_payload = match verify_token(line) {
        Ok(Some(p)) => p,
        Ok(None) => return Err(format!("record header without checksum: `{line}`")),
        Err(_) => return Err(format!("record header checksum mismatch: `{line}`")),
    };
    if !header_payload.starts_with("@rec ") {
        return Err(format!("expected `@rec` header, found `{line}`"));
    }
    let body = &header_payload["@rec ".len()..];
    let (meta, len_tok) = match body.rsplit_once(" %") {
        Some(x) => x,
        None => return Err(format!("record header without payload length: `{line}`")),
    };
    let payload_len: usize = match len_tok.parse() {
        Ok(n) => n,
        Err(_) => return Err(format!("bad payload length `{len_tok}`")),
    };
    let payload_end = payload_start.checked_add(payload_len);
    let payload = match payload_end.and_then(|end| text.get(payload_start..end)) {
        Some(p) => p,
        None => return Err("payload truncated".to_string()),
    };
    let mut pos = payload_start + payload_len;
    // The encoder terminates the payload with one separator newline
    // before the trailer line (so the trailer always starts a line even
    // when the payload lacks a trailing newline).
    match text.get(pos..pos + 1) {
        Some("\n") => pos += 1,
        _ => return Err("payload separator truncated".to_string()),
    }
    let (trailer, next) = match read_line(text, pos) {
        Some(x) => x,
        None => return Err("record trailer truncated".to_string()),
    };
    pos = next;
    let want = format!("@end ~{:x}", fnv1a(payload.as_bytes()));
    if trailer != want {
        return Err(format!(
            "payload checksum mismatch: expected `{want}`, found `{trailer}`"
        ));
    }
    Ok((
        JournalRecord {
            meta: meta.to_string(),
            payload: payload.to_string(),
        },
        pos,
    ))
}

/// Reads the line starting at byte `pos`; returns `(line, next_pos)` only
/// when the line is terminated by `\n` (an unterminated tail is, by
/// definition, a torn write).
fn read_line(text: &str, pos: usize) -> Option<(&str, usize)> {
    let rest = text.get(pos..)?;
    let nl = rest.find('\n')?;
    Some((&rest[..nl], pos + nl + 1))
}

/// Counts `@rec ` headers at line starts from byte `pos` on — the
/// records the salvage pass could not recover. Payload bytes can fake a
/// header, so this is an estimate that errs toward reporting loss.
fn count_record_headers(text: &str, pos: usize) -> usize {
    let rest = match text.get(pos..) {
        Some(r) => r,
        None => return 0,
    };
    rest.lines().filter(|l| l.starts_with("@rec ")).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<JournalRecord> {
        vec![
            JournalRecord {
                meta: "spec minidb".to_string(),
                payload: "family minidb\nsizes 2,4\nseeds 1\n".to_string(),
            },
            JournalRecord {
                meta: "cell 0 ok".to_string(),
                payload: "size 2\nseed 1\n@rec looks like framing %9 ~0\n".to_string(),
            },
            JournalRecord {
                meta: "cell 1 quarantined".to_string(),
                payload: String::new(),
            },
        ]
    }

    #[test]
    fn roundtrip_strict() {
        let text = to_text(&sample());
        assert_eq!(from_text(&text).unwrap(), sample());
    }

    #[test]
    fn payload_may_embed_framing_lines() {
        let text = to_text(&sample());
        let s = from_text_lossy(text.as_bytes());
        assert!(!s.is_damaged(), "{:?}", s.warnings);
        assert_eq!(s.value[1].payload, sample()[1].payload);
    }

    #[test]
    fn truncation_at_every_byte_salvages_a_prefix_and_never_panics() {
        let text = to_text(&sample());
        let full = from_text_lossy(text.as_bytes()).value;
        let mut seen_lens = Vec::new();
        for cut in 0..=text.len() {
            let s = from_text_lossy(&text.as_bytes()[..cut]);
            assert!(s.value.len() <= full.len());
            assert_eq!(s.value[..], full[..s.value.len()], "cut at {cut}");
            assert_eq!(s.salvaged + s.dropped, s.total, "cut at {cut}");
            seen_lens.push(s.value.len());
        }
        assert_eq!(*seen_lens.last().unwrap(), full.len());
        assert!(seen_lens.contains(&1), "partial salvage seen");
    }

    #[test]
    fn flipped_byte_is_detected() {
        let text = to_text(&sample());
        // Flip a byte inside the second record's payload.
        let idx = text.find("seed 1").unwrap();
        let mut bytes = text.into_bytes();
        bytes[idx] = b'X';
        let corrupted = String::from_utf8(bytes).unwrap();
        let s = from_text_lossy(corrupted.as_bytes());
        assert_eq!(s.value.len(), 1, "only the first record survives");
        assert!(s.is_damaged());
        // 2 real records lost + 1 fake `@rec` line inside the lost
        // payload: the estimate errs toward reporting loss.
        assert_eq!(s.dropped, 3);
        assert!(from_text(&corrupted).is_err());
    }

    #[test]
    fn bad_file_header_salvages_nothing() {
        let text = to_text(&sample()).replace(FILE_HEADER, "# not a journal");
        let s = from_text_lossy(text.as_bytes());
        assert!(s.value.is_empty());
        assert!(s.is_damaged());
        assert_eq!(s.dropped, 4, "3 real records + 1 fake header line");
    }

    #[test]
    fn empty_and_header_only_files_are_clean() {
        assert!(!from_text_lossy(b"").is_damaged());
        let s = from_text_lossy(format!("{FILE_HEADER}\n").as_bytes());
        assert!(!s.is_damaged());
        assert_eq!(s.total, 0);
    }

    #[test]
    fn meta_with_newline_panics() {
        let r = std::panic::catch_unwind(|| encode_record("two\nlines", ""));
        assert!(r.is_err());
    }

    #[test]
    fn observe_metrics_feeds_audit() {
        let text = to_text(&sample());
        let torn = &text[..text.len() - 3];
        let s = from_text_lossy(torn.as_bytes());
        let mut m = Metrics::new();
        s.observe_metrics(&mut m);
        assert_eq!(m.counter("journal.cells_salvaged"), s.salvaged as u64);
        assert_eq!(m.counter("journal.damaged"), 1);
        assert_eq!(m.audit(), Ok(()));
    }

    /// Pins a record's bytes: journals written before the line core was
    /// shared must still resume.
    #[test]
    fn encoded_records_keep_their_bytes() {
        assert_eq!(
            encode_record("cell 0 ok", "size 2\n"),
            "@rec cell 0 ok %7 ~c8dc45624b8c626f\nsize 2\n\n@end ~4d0f9febbab417c8\n"
        );
    }
}
