//! Plain-text trace serialization.
//!
//! One event per line:
//!
//! ```text
//! <time> <thread> <cost> <mnemonic> [args...] ~<checksum>
//! ```
//!
//! The format is stable, diff-friendly and human-readable; it backs golden
//! tests and lets traces be captured once and re-analysed offline.
//!
//! The trailing `~<hex>` token is an FNV-1a checksum of the payload
//! before it, letting corrupted captures (truncated files, flipped
//! bits) be detected line by line. Lines are read by the shared
//! checked-line core ([`crate::lines`]): checksum-less lines are
//! accepted for hand-written traces, except a final line that also
//! lacks its newline, which is torn. When the token is present it must
//! match. [`from_text`] fails on the first bad line; [`from_text_lossy`]
//! instead salvages the longest valid prefix so a damaged capture can
//! still be replayed or merged.

use crate::event::{Event, SyncOp, TimedEvent};
use crate::ids::{Addr, BlockId, RoutineId, ThreadId};
use crate::lines::{push_checked, read_lines, ParseLineError, SalvageKind, Salvaged};
use std::fmt::Write as _;
use std::str::{FromStr, SplitAsciiWhitespace};

/// Serializes events to the line-oriented text format.
///
/// # Example
/// ```
/// use drms_trace::{TimedEvent, Event, ThreadId, RoutineId};
/// use drms_trace::codec::{to_text, from_text};
/// let evs = vec![TimedEvent::new(1, ThreadId::MAIN, 0,
///     Event::Call { routine: RoutineId::new(2) })];
/// let text = to_text(&evs);
/// assert_eq!(from_text(&text).unwrap(), evs);
/// ```
pub fn to_text(events: &[TimedEvent]) -> String {
    let mut out = String::new();
    let mut line = String::new();
    for ev in events {
        line.clear();
        write_event(&mut line, ev);
        push_checked(&mut out, &line);
    }
    out
}

fn write_event(out: &mut String, ev: &TimedEvent) {
    let _ = write!(
        out,
        "{} {} {} {}",
        ev.time,
        ev.thread.index(),
        ev.cost,
        ev.event.mnemonic()
    );
    match ev.event {
        Event::Call { routine } | Event::Return { routine } => {
            let _ = write!(out, " {}", routine.index());
        }
        Event::Read { addr, len }
        | Event::Write { addr, len }
        | Event::UserToKernel { addr, len }
        | Event::KernelToUser { addr, len } => {
            let _ = write!(out, " {} {}", addr.raw(), len);
        }
        Event::ThreadStart { parent } => {
            if let Some(p) = parent {
                let _ = write!(out, " {}", p.index());
            }
        }
        Event::ThreadExit => {}
        Event::Sync { op } => {
            let _ = match op {
                SyncOp::SemWait(s) => write!(out, " semw {s}"),
                SyncOp::SemSignal(s) => write!(out, " sems {s}"),
                SyncOp::MutexLock(m) => write!(out, " mtxl {m}"),
                SyncOp::MutexUnlock(m) => write!(out, " mtxu {m}"),
                SyncOp::CondWait { cond, mutex } => write!(out, " cvw {cond} {mutex}"),
                SyncOp::CondSignal(c) => write!(out, " cvs {c}"),
                SyncOp::CondBroadcast(c) => write!(out, " cvb {c}"),
                SyncOp::Spawn { child } => write!(out, " spawn {}", child.index()),
                SyncOp::Join { child } => write!(out, " join {}", child.index()),
            };
        }
        Event::Block { routine, block } => {
            let _ = write!(out, " {} {}", routine.index(), block.index());
        }
    }
}

/// Parses the line-oriented text format back into events.
///
/// Blank lines and lines starting with `#` are skipped. Lines carrying
/// a trailing `~<hex>` checksum are verified against their payload;
/// lines without one are accepted unverified, unless the last line also
/// lacks its newline (a torn write).
///
/// # Errors
/// Returns a [`ParseLineError`] naming the first malformed line.
pub fn from_text(text: &str) -> Result<Vec<TimedEvent>, ParseLineError> {
    match read_lines(text, parse_event, Vec::push) {
        (_, Some(e)) => Err(e),
        (salvage, None) => Ok(salvage.value),
    }
}

impl SalvageKind for Vec<TimedEvent> {
    const METRIC_PREFIX: &'static str = "trace";
}

/// Parses as much of a damaged trace as possible: the longest prefix of
/// well-formed lines, stopping at the first malformed, torn or
/// checksum-mismatched line.
///
/// Everything from the first bad line onward is dropped — events after
/// a corruption point cannot be trusted to belong where they appear —
/// and described in [`Salvaged::warnings`]. Never fails: feeding it
/// arbitrary bytes yields an empty (or partial) event list.
pub fn from_text_lossy(text: &str) -> Salvaged<Vec<TimedEvent>> {
    read_lines(text, parse_event, Vec::push).0
}

/// Parses the next whitespace-separated field as a `T`, naming the field
/// when it is missing, malformed or out of `T`'s range.
fn field<T: FromStr>(parts: &mut SplitAsciiWhitespace<'_>, what: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    parts
        .next()
        .ok_or_else(|| format!("missing {what}"))?
        .parse()
        .map_err(|e| format!("bad {what}: {e}"))
}

/// Parses one line payload (checksum token already verified and removed).
fn parse_event(line: &str) -> Result<TimedEvent, String> {
    let parts = &mut line.split_ascii_whitespace();
    let time = field(parts, "time")?;
    let thread = ThreadId::new(field(parts, "thread")?);
    let cost = field(parts, "cost")?;
    let kind = parts.next().ok_or("missing kind")?;
    let event = match kind {
        "call" => Event::Call {
            routine: RoutineId::new(field(parts, "routine")?),
        },
        "ret" => Event::Return {
            routine: RoutineId::new(field(parts, "routine")?),
        },
        "rd" | "wr" | "u2k" | "k2u" => {
            let addr = Addr::new(field(parts, "addr")?);
            let len = field(parts, "len")?;
            match kind {
                "rd" => Event::Read { addr, len },
                "wr" => Event::Write { addr, len },
                "u2k" => Event::UserToKernel { addr, len },
                _ => Event::KernelToUser { addr, len },
            }
        }
        "tstart" => {
            let parent = parts
                .next()
                .map(|p| {
                    p.parse()
                        .map(ThreadId::new)
                        .map_err(|e| format!("bad parent: {e}"))
                })
                .transpose()?;
            Event::ThreadStart { parent }
        }
        "texit" => Event::ThreadExit,
        "bb" => Event::Block {
            routine: RoutineId::new(field(parts, "routine")?),
            block: BlockId::new(field(parts, "block")?),
        },
        "sync" => {
            let op = parts.next().ok_or("missing sync op")?;
            let sync = match op {
                "semw" => SyncOp::SemWait(field(parts, "sem")?),
                "sems" => SyncOp::SemSignal(field(parts, "sem")?),
                "mtxl" => SyncOp::MutexLock(field(parts, "mutex")?),
                "mtxu" => SyncOp::MutexUnlock(field(parts, "mutex")?),
                "cvw" => SyncOp::CondWait {
                    cond: field(parts, "cond")?,
                    mutex: field(parts, "mutex")?,
                },
                "cvs" => SyncOp::CondSignal(field(parts, "cond")?),
                "cvb" => SyncOp::CondBroadcast(field(parts, "cond")?),
                "spawn" => SyncOp::Spawn {
                    child: ThreadId::new(field(parts, "child")?),
                },
                "join" => SyncOp::Join {
                    child: ThreadId::new(field(parts, "child")?),
                },
                other => return Err(format!("unknown sync op `{other}`")),
            };
            Event::Sync { op: sync }
        }
        other => return Err(format!("unknown event kind `{other}`")),
    };
    if let Some(extra) = parts.next() {
        return Err(format!("trailing token `{extra}`"));
    }
    Ok(TimedEvent {
        time,
        thread,
        cost,
        event,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TimedEvent> {
        let t = ThreadId::new(1);
        vec![
            TimedEvent::new(
                1,
                t,
                0,
                Event::ThreadStart {
                    parent: Some(ThreadId::MAIN),
                },
            ),
            TimedEvent::new(
                2,
                t,
                0,
                Event::Call {
                    routine: RoutineId::new(4),
                },
            ),
            TimedEvent::new(
                3,
                t,
                1,
                Event::Block {
                    routine: RoutineId::new(4),
                    block: BlockId::new(0),
                },
            ),
            TimedEvent::new(
                4,
                t,
                1,
                Event::Read {
                    addr: Addr::new(100),
                    len: 8,
                },
            ),
            TimedEvent::new(
                5,
                t,
                1,
                Event::Write {
                    addr: Addr::new(200),
                    len: 1,
                },
            ),
            TimedEvent::new(
                6,
                t,
                2,
                Event::KernelToUser {
                    addr: Addr::new(300),
                    len: 16,
                },
            ),
            TimedEvent::new(
                7,
                t,
                2,
                Event::UserToKernel {
                    addr: Addr::new(300),
                    len: 16,
                },
            ),
            TimedEvent::new(
                8,
                t,
                2,
                Event::Sync {
                    op: SyncOp::SemWait(3),
                },
            ),
            TimedEvent::new(
                9,
                t,
                2,
                Event::Sync {
                    op: SyncOp::CondWait { cond: 1, mutex: 2 },
                },
            ),
            TimedEvent::new(
                10,
                t,
                2,
                Event::Sync {
                    op: SyncOp::Spawn {
                        child: ThreadId::new(2),
                    },
                },
            ),
            TimedEvent::new(
                11,
                t,
                3,
                Event::Return {
                    routine: RoutineId::new(4),
                },
            ),
            TimedEvent::new(12, t, 3, Event::ThreadExit),
        ]
    }

    #[test]
    fn roundtrip_all_event_kinds() {
        let evs = sample_events();
        let text = to_text(&evs);
        let back = from_text(&text).expect("parse");
        assert_eq!(back, evs);
    }

    #[test]
    fn roundtrip_main_thread_start_without_parent() {
        let evs = vec![TimedEvent::new(
            0,
            ThreadId::MAIN,
            0,
            Event::ThreadStart { parent: None },
        )];
        assert_eq!(from_text(&to_text(&evs)).unwrap(), evs);
    }

    #[test]
    fn skips_blank_and_comment_lines() {
        let text = "# header\n\n1 0 0 texit\n";
        let evs = from_text(text).unwrap();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].event, Event::ThreadExit);
    }

    #[test]
    fn reports_line_numbers_on_errors() {
        let text = "1 0 0 texit\n2 0 0 bogus\n";
        let e = from_text(text).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("bogus"));
    }

    #[test]
    fn rejects_trailing_tokens() {
        let e = from_text("1 0 0 texit junk").unwrap_err();
        assert!(e.message.contains("trailing"));
    }

    #[test]
    fn rejects_missing_fields() {
        assert!(from_text("1 0 0 rd 5").is_err());
        assert!(from_text("1 0").is_err());
        assert!(from_text("x 0 0 texit").is_err());
    }

    #[test]
    fn serialized_lines_carry_checksums() {
        let text = to_text(&sample_events());
        for line in text.lines() {
            let (_, hex) = line.rsplit_once('~').expect("checksum token");
            assert!(u64::from_str_radix(hex, 16).is_ok(), "hex checksum: {line}");
        }
    }

    #[test]
    fn detects_payload_bit_flips() {
        let evs = sample_events();
        let text = to_text(&evs);
        // Corrupt one digit of the fourth line's address field.
        let corrupted = text.replacen("100 8", "108 8", 1);
        assert_ne!(corrupted, text, "corruption applied");
        let e = from_text(&corrupted).unwrap_err();
        assert!(e.message.contains("checksum mismatch"), "{e}");
    }

    #[test]
    fn lossy_parse_of_clean_text_has_no_warnings() {
        let evs = sample_events();
        let s = from_text_lossy(&to_text(&evs));
        assert_eq!(s.value, evs);
        assert!(!s.is_damaged());
        assert_eq!(s.salvaged, evs.len());
        assert_eq!(s.dropped, 0);
    }

    #[test]
    fn lossy_parse_salvages_prefix_before_corruption() {
        let evs = sample_events();
        let text = to_text(&evs);
        // Flip a byte in the fifth line; everything after it is dropped.
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        lines[4] = lines[4].replacen('w', "q", 1);
        let s = from_text_lossy(&lines.join("\n"));
        assert_eq!(s.value, evs[..4].to_vec());
        assert!(s.is_damaged());
        assert_eq!(s.salvaged, 4);
        assert_eq!(s.dropped, evs.len() - 4);
        assert_eq!(s.warnings.len(), 1);
        assert!(s.warnings[0].contains("line 5"), "{}", s.warnings[0]);
        assert!(s.warnings[0].contains("salvaged 4"), "{}", s.warnings[0]);
    }

    #[test]
    fn lossy_parse_of_truncated_capture_recovers_whole_lines() {
        let evs = sample_events();
        let text = to_text(&evs);
        // Simulate a capture cut off mid-write: keep 60% of the bytes.
        let cut = &text[..text.len() * 6 / 10];
        let s = from_text_lossy(cut);
        assert!(!s.value.is_empty(), "some events survive");
        assert!(s.value.len() < evs.len(), "some events were lost");
        assert_eq!(s.value, evs[..s.value.len()].to_vec(), "valid prefix");
    }

    #[test]
    fn lossy_parse_of_garbage_is_empty_not_a_panic() {
        let s = from_text_lossy("not a trace\n\u{1F980} bytes ~zz\n");
        assert!(s.value.is_empty());
        assert!(s.is_damaged());
        assert_eq!(s.salvaged, 0);
        assert_eq!(s.dropped, 2);
    }

    #[test]
    fn checksum_less_lines_remain_accepted() {
        let evs = from_text("1 0 0 texit\n").unwrap();
        assert_eq!(evs[0].event, Event::ThreadExit);
    }

    /// Regression: a capture cut inside a line's checksum token used to
    /// leave a checksum-less line that still parsed — `call 17` cut to
    /// `call 1`, `rd 4096 16` cut to `rd 4096 1` — and both readers
    /// returned that never-written event.
    #[test]
    fn a_cut_at_any_byte_never_yields_an_unwritten_event() {
        let evs = vec![
            TimedEvent::new(
                1,
                ThreadId::MAIN,
                0,
                Event::Call {
                    routine: RoutineId::new(17),
                },
            ),
            TimedEvent::new(
                2,
                ThreadId::MAIN,
                1,
                Event::Read {
                    addr: Addr::new(4096),
                    len: 16,
                },
            ),
        ];
        let text = to_text(&evs);
        for cut in 0..=text.len() {
            let prefix = &text[..cut];
            let s = from_text_lossy(prefix);
            assert_eq!(s.value, evs[..s.value.len()], "cut at {cut}");
            assert_eq!(s.salvaged + s.dropped, s.total, "cut at {cut}");
            match from_text(prefix) {
                Ok(strict) => assert_eq!(strict, s.value, "cut at {cut}"),
                Err(e) => assert_eq!(e.line, s.value.len() + 1, "cut at {cut}: {e}"),
            }
        }
    }

    /// Regression: `u32` fields were parsed as `u64` and truncated, so
    /// `1 4294967296 0 texit` read as thread 0.
    #[test]
    fn u32_fields_reject_values_past_their_width() {
        let max = u32::MAX;
        for (line, field) in [
            ("1 {} 0 texit", "thread"),
            ("1 0 0 call {}", "routine"),
            ("1 0 0 ret {}", "routine"),
            ("1 0 0 rd 100 {}", "len"),
            ("1 0 0 k2u 100 {}", "len"),
            ("1 0 0 bb 0 {}", "block"),
            ("1 0 0 tstart {}", "parent"),
            ("1 0 0 sync semw {}", "sem"),
            ("1 0 0 sync mtxl {}", "mutex"),
            ("1 0 0 sync cvw 0 {}", "mutex"),
            ("1 0 0 sync cvb {}", "cond"),
            ("1 0 0 sync spawn {}", "child"),
            ("1 0 0 sync join {}", "child"),
        ] {
            let at_max = format!("{}\n", line.replace("{}", &max.to_string()));
            let events = from_text(&at_max).unwrap_or_else(|e| panic!("{at_max}: {e}"));
            assert_eq!(
                to_text(&events),
                to_text(&from_text(&to_text(&events)).unwrap())
            );
            assert!(to_text(&events).starts_with(at_max.trim_end()), "{at_max}");
            let past = format!("{}\n", line.replace("{}", "4294967296"));
            let e = from_text(&past).unwrap_err();
            assert!(e.message.contains(&format!("bad {field}")), "{past}: {e}");
        }
    }
}
