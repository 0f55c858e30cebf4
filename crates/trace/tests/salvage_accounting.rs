//! Lossy-salvage accounting regression tests, shared between the trace
//! codec and the schedule codec.
//!
//! The invariant under test: `salvaged + dropped` must
//! exactly equal the number of non-comment, non-blank input lines
//! (`total`, counted independently of the salvage decisions), for
//! every corruption shape — trailing garbage, mid-file corruption, and
//! comment/blank-only inputs. [`Metrics::audit`] enforces the same
//! relation at run time through `observe_metrics`.

use drms_trace::obs::Metrics;
use drms_trace::sched::{PreemptCause, SchedDecision, Schedule};
use drms_trace::{codec, sched, Event, RoutineId, ThreadId, TimedEvent};

/// Counts the lines the salvage loops are required to account for.
fn countable_lines(text: &str) -> usize {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .count()
}

fn sample_trace_text() -> String {
    let events: Vec<TimedEvent> = (0..6)
        .map(|i| {
            TimedEvent::new(
                i + 1,
                ThreadId::MAIN,
                i,
                Event::Call {
                    routine: RoutineId::new(i as u32 % 3),
                },
            )
        })
        .collect();
    codec::to_text(&events)
}

fn sample_sched_text() -> String {
    let schedule = Schedule {
        quantum: 50,
        decisions: (0..6)
            .map(|i| SchedDecision {
                thread: ThreadId::new(i % 2),
                steps: 3 + i,
                cause: PreemptCause::Quantum,
            })
            .collect(),
    };
    sched::to_text(&schedule)
}

/// Applies one corruption shape to a well-formed serialized text.
fn corrupt(text: &str, shape: &str) -> String {
    let lines: Vec<&str> = text.lines().collect();
    match shape {
        "clean" => text.to_owned(),
        "trailing-garbage" => format!("{text}???? not a line ~zz\nmore garbage\n"),
        "mid-file" => {
            let mut out = String::new();
            for (i, l) in lines.iter().enumerate() {
                if i == lines.len() / 2 {
                    out.push_str("CORRUPTED LINE WITH NO CHECKSUM\n");
                }
                out.push_str(l);
                out.push('\n');
            }
            out
        }
        "comments-only" => "# a comment\n\n   \n# another\n".to_owned(),
        "comments-after-corruption" => {
            format!("{text}bad line here\n# comment after the corruption\n\nbad again\n")
        }
        "flipped-payload" => {
            // Flip a byte inside a checksummed payload: the checksum
            // mismatch must drop the line (and everything after it).
            let mut out = String::new();
            for (i, l) in lines.iter().enumerate() {
                if i == 1 {
                    out.push_str(&l.replace(['0', '1', '2'], "9"));
                } else {
                    out.push_str(l);
                }
                out.push('\n');
            }
            out
        }
        other => panic!("unknown corruption shape `{other}`"),
    }
}

const SHAPES: [&str; 6] = [
    "clean",
    "trailing-garbage",
    "mid-file",
    "comments-only",
    "comments-after-corruption",
    "flipped-payload",
];

#[test]
fn trace_salvage_accounts_for_every_countable_line() {
    let base = sample_trace_text();
    for shape in SHAPES {
        let text = corrupt(&base, shape);
        let expected = countable_lines(&text);
        let s = codec::from_text_lossy(&text);
        assert_eq!(
            s.salvaged + s.dropped,
            expected,
            "{shape}: salvaged {} + dropped {} != countable {expected}",
            s.salvaged,
            s.dropped
        );
        assert_eq!(s.total, expected, "{shape}: total drifted");
        assert_eq!(s.value.len(), s.salvaged, "{shape}");
        assert_eq!(s.is_damaged(), s.dropped > 0, "{shape}");
    }
}

#[test]
fn sched_salvage_accounts_for_every_countable_line() {
    let base = sample_sched_text();
    for shape in SHAPES {
        let text = corrupt(&base, shape);
        let expected = countable_lines(&text);
        let s = sched::from_text_lossy(&text);
        assert_eq!(
            s.salvaged + s.dropped,
            expected,
            "{shape}: salvaged {} + dropped {} != countable {expected}",
            s.salvaged,
            s.dropped
        );
        assert_eq!(s.total, expected, "{shape}: total drifted");
        assert_eq!(s.is_damaged(), s.dropped > 0, "{shape}");
    }
}

#[test]
fn comment_and_blank_lines_count_in_neither_side() {
    let s = codec::from_text_lossy("# only\n\n  \t \n# comments\n");
    assert_eq!((s.salvaged, s.dropped, s.total), (0, 0, 0));
    assert!(s.value.is_empty());
    assert!(!s.is_damaged());
    let s = sched::from_text_lossy("\n# q 50\n\n");
    assert_eq!((s.salvaged, s.dropped, s.total), (0, 0, 0));
    assert!(!s.is_damaged());
}

#[test]
fn salvage_metrics_survive_the_audit_and_break_it_when_tampered() {
    let text = corrupt(&sample_trace_text(), "mid-file");
    let trace_salvage = codec::from_text_lossy(&text);
    let sched_salvage = sched::from_text_lossy(&corrupt(&sample_sched_text(), "trailing-garbage"));

    let mut m = Metrics::new();
    trace_salvage.observe_metrics(&mut m);
    sched_salvage.observe_metrics(&mut m);
    assert_eq!(m.audit(), Ok(()), "honest salvage accounting passes");

    // A lost drop (the class of bug the audit exists to catch) trips it.
    let mut tampered = m.clone();
    tampered.add("trace.lines.total", 1);
    let violations = tampered.audit().unwrap_err();
    assert!(
        violations.iter().any(|v| v.contains("trace.lines")),
        "{violations:?}"
    );
}
