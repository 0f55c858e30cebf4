//! Abuse tests for the checkpoint journal codec: the malformed files a
//! long-lived daemon actually sees on disk after crashes, retried
//! appends, and torn drains. Every case must salvage with consistent
//! `journal.*` accounting — the daemon trusts those counters when it
//! decides which cells to re-run after a restart.

use drms_trace::journal::{
    encode_record, from_text, from_text_lossy, to_text, JournalRecord, FILE_HEADER,
};
use drms_trace::Metrics;

fn rec(meta: &str, payload: &str) -> JournalRecord {
    JournalRecord {
        meta: meta.to_string(),
        payload: payload.to_string(),
    }
}

fn sample() -> Vec<JournalRecord> {
    vec![
        rec("spec stream", "family stream\nsizes 4,8\nseeds 1\n"),
        rec("cell stream 0 ok", "size 4\nseed 1\ncost 10\n"),
        rec("cell stream 1 ok", "size 8\nseed 1\ncost 20\n"),
    ]
}

/// Counters fed to the registry must always satisfy the audit
/// invariant `salvaged + dropped == total`.
fn assert_accounting(s: &drms_trace::Salvaged<Vec<JournalRecord>>) {
    assert_eq!(s.salvaged, s.value.len());
    assert_eq!(s.salvaged + s.dropped, s.total);
    let mut m = Metrics::new();
    s.observe_metrics(&mut m);
    assert_eq!(m.counter("journal.cells_salvaged"), s.salvaged as u64);
    assert_eq!(m.audit(), Ok(()), "{:?}", m.audit());
}

/// A writer that died mid-flush and retried can leave a duplicate
/// `@end` trailer between two intact records. The noise is skipped
/// with a warning — the records *after* it must not be dropped.
#[test]
fn duplicate_end_trailer_is_skipped_not_fatal() {
    let records = sample();
    let mut text = String::from(FILE_HEADER);
    text.push('\n');
    text.push_str(&encode_record(&records[0].meta, &records[0].payload));
    text.push_str("@end ~deadbeef\n"); // retried flush left this behind
    text.push_str(&encode_record(&records[1].meta, &records[1].payload));
    text.push_str(&encode_record(&records[2].meta, &records[2].payload));

    let s = from_text_lossy(text.as_bytes());
    assert_eq!(s.value, records, "records after the stray trailer survive");
    assert_eq!(s.dropped, 0, "a stray trailer costs no records");
    assert!(s.is_damaged());
    assert!(
        s.warnings.iter().any(|w| w.contains("stray `@end`")),
        "{:?}",
        s.warnings
    );
    assert_accounting(&s);
    assert!(
        from_text(&text).is_err(),
        "strict parse still refuses noise"
    );
}

/// Truncation mid-record while the daemon drains to disk: the torn
/// record is dropped, everything before it is salvaged, and the
/// counters report exactly what was lost.
#[test]
fn truncation_mid_record_during_drain_salvages_prefix() {
    let text = to_text(&sample());
    let cut = text.find("cost 20").expect("payload of record 3") + 4;
    let s = from_text_lossy(&text.as_bytes()[..cut]);
    assert_eq!(s.value, sample()[..2], "valid prefix survives the tear");
    assert_eq!(s.salvaged, 2);
    assert_eq!(s.dropped, 1, "exactly the torn record is lost");
    assert_accounting(&s);
}

/// Both abuses at once: a stray trailer in the middle *and* a torn
/// final record. Salvage keeps every intact record and the counters
/// stay consistent.
#[test]
fn stray_trailer_plus_torn_tail_accounts_for_both() {
    let records = sample();
    let mut text = String::from(FILE_HEADER);
    text.push('\n');
    text.push_str(&encode_record(&records[0].meta, &records[0].payload));
    text.push_str("@end ~0\n");
    text.push_str(&encode_record(&records[1].meta, &records[1].payload));
    let torn = encode_record(&records[2].meta, &records[2].payload);
    text.push_str(&torn[..torn.len() - 9]); // tear inside the trailer

    let s = from_text_lossy(text.as_bytes());
    assert_eq!(s.value, records[..2]);
    assert_eq!(s.dropped, 1);
    assert!(s.warnings.len() >= 2, "{:?}", s.warnings);
    assert_accounting(&s);
}

/// The resumed-writer discipline: salvaging a torn journal, rewriting
/// it to the valid prefix, and appending fresh records yields a file
/// that strictly parses — whereas appending straight onto the torn
/// tail would interleave good records *behind* the damage and lose
/// them to the next salvage. This is the codec-level contract that
/// `supervisor::resume_sweep` relies on.
#[test]
fn interleaved_append_after_rewrite_survives_the_next_salvage() {
    let records = sample();
    let full = to_text(&records[..2]);
    // Tear at a line boundary inside record 2's payload, as a drain
    // killed between two buffered line writes would.
    let torn = &full[..full.find("cost 10").expect("payload line")];

    // Naive interleaved append onto the torn tail: the appended record
    // sits behind the tear and the next salvage cannot reach it.
    let mut naive = torn.to_string();
    naive.push_str(&encode_record(&records[2].meta, &records[2].payload));
    let s = from_text_lossy(naive.as_bytes());
    assert_eq!(s.value, records[..1], "append behind a tear is lost");
    assert_eq!(s.dropped, 2, "the torn record and the appended one");
    assert_accounting(&s);

    // The resume discipline: rewrite to the salvaged prefix, then append.
    let salvaged = from_text_lossy(torn.as_bytes());
    assert_eq!(salvaged.value, records[..1]);
    let mut healed = to_text(&salvaged.value);
    healed.push_str(&encode_record(&records[2].meta, &records[2].payload));
    let reparsed = from_text(&healed).expect("healed journal parses strictly");
    assert_eq!(reparsed, vec![records[0].clone(), records[2].clone()]);
    assert_accounting(&from_text_lossy(healed.as_bytes()));
}

/// A tiny xorshift64* step: seeded, dependency-free randomness for the
/// random-bytes suite below.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Journals are untrusted bytes on disk. Seeded random damage — a
/// single byte overwritten with any value 0–255 (invalid UTF-8
/// included), a byte inserted, or the file truncated — must never panic
/// the reader, must keep `salvaged + dropped == total`, must salvage
/// every record that ends before the first damaged byte, and may only
/// ever salvage a prefix of the records that were written.
#[test]
fn seeded_random_byte_damage_salvages_the_intact_prefix() {
    let records = vec![
        rec("spec stream", "family stream\nsizes 4,8\nseeds 1\n"),
        rec("cell stream 0 ok", "size 4\nseed 1\nnote naïve → ok\n"),
        rec("cell stream 1 ok", "size 8\nseed 1\ncost 20"),
    ];
    let text = to_text(&records);
    let bytes = text.as_bytes();
    // Byte offset just past each record's trailer.
    let mut ends = Vec::new();
    let mut end = FILE_HEADER.len() + 1;
    for r in &records {
        end += encode_record(&r.meta, &r.payload).len();
        ends.push(end);
    }
    assert_eq!(end, bytes.len());

    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    for case in 0..4000 {
        let mut damaged = bytes.to_vec();
        let r = xorshift(&mut rng);
        let value = (r >> 8) as u8;
        let (first, what) = match r % 3 {
            0 => {
                let at = (r >> 16) as usize % bytes.len();
                damaged[at] = value;
                (at, "overwrite")
            }
            1 => {
                let at = (r >> 16) as usize % (bytes.len() + 1);
                damaged.insert(at, value);
                (at, "insert")
            }
            _ => {
                let at = (r >> 16) as usize % bytes.len();
                damaged.truncate(at);
                (at, "truncate")
            }
        };
        let label = format!("case {case}: {what} at byte {first} (value {value:#04x})");
        let s = std::panic::catch_unwind(|| from_text_lossy(&damaged))
            .unwrap_or_else(|_| panic!("{label}: the reader panicked"));
        assert_accounting(&s);
        let intact = ends.iter().filter(|&&e| e <= first).count();
        assert!(
            s.value.len() >= intact,
            "{label}: salvaged {} of the {intact} records before the damage",
            s.value.len()
        );
        assert_eq!(
            s.value[..],
            records[..s.value.len()],
            "{label}: salvaged records must be a prefix of the written ones"
        );
    }
}
