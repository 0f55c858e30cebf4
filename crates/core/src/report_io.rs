//! Plain-text serialization of profile reports.
//!
//! The original tool writes per-process report files that its plotting
//! front end consumes offline; this module provides the same workflow: a
//! stable, line-oriented dump of a [`ProfileReport`] and its parser.
//!
//! Format (one record per `(routine, thread)` pair):
//!
//! ```text
//! # drms profile report v1
//! profile routine=<id> thread=<id>
//! calls <n> <sum_rms> <sum_drms>
//! breakdown <plain> <thread_induced> <kernel_induced>
//! rms <input> <count> <min> <max> <sum>
//! drms <input> <count> <min> <max> <sum>
//! ```

use crate::profile::{CostStats, ProfileReport};
use drms_trace::{ParseLineError, RoutineId, ThreadId};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Serializes a report to the line-oriented text format.
///
/// Records are emitted in `(routine, thread)` order so dumps are stable
/// and diff-friendly.
///
/// # Example
/// ```
/// use drms_core::{ProfileReport, report_io};
/// use drms_trace::{RoutineId, ThreadId};
///
/// let mut rep = ProfileReport::new();
/// rep.entry(RoutineId::new(1), ThreadId::MAIN).record(3, 7, 100);
/// let text = report_io::to_text(&rep);
/// assert_eq!(report_io::from_text(&text).unwrap(), rep);
/// ```
pub fn to_text(report: &ProfileReport) -> String {
    let mut out = String::from("# drms profile report v1\n");
    let mut keys: Vec<(RoutineId, ThreadId)> = report.iter().map(|(&k, _)| k).collect();
    keys.sort();
    for (routine, thread) in keys {
        let p = report.get(routine, thread).expect("key from iter");
        let _ = writeln!(
            out,
            "profile routine={} thread={}",
            routine.index(),
            thread.index()
        );
        let _ = writeln!(out, "calls {} {} {}", p.calls, p.sum_rms, p.sum_drms);
        let _ = writeln!(
            out,
            "breakdown {} {} {}",
            p.breakdown.plain, p.breakdown.thread_induced, p.breakdown.kernel_induced
        );
        for (label, map) in [("rms", &p.by_rms), ("drms", &p.by_drms)] {
            for (&input, s) in map {
                let _ = writeln!(
                    out,
                    "{label} {input} {} {} {} {}",
                    s.count, s.min, s.max, s.sum
                );
            }
        }
    }
    out
}

/// Parses the text format back into a report.
///
/// Blank lines and `#` comments are skipped; records may appear in any
/// order.
///
/// # Errors
/// Returns a [`ParseLineError`] naming the first malformed line.
pub fn from_text(text: &str) -> Result<ProfileReport, ParseLineError> {
    let mut report = ProfileReport::new();
    let mut current: Option<(RoutineId, ThreadId)> = None;
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |message: String| ParseLineError {
            line: line_no,
            message,
        };
        let mut parts = line.split_ascii_whitespace();
        let kind = parts.next().expect("non-empty line");
        match kind {
            "profile" => {
                let mut routine = None;
                let mut thread = None;
                for field in parts {
                    if let Some(v) = field.strip_prefix("routine=") {
                        routine = v.parse::<u32>().ok();
                    } else if let Some(v) = field.strip_prefix("thread=") {
                        thread = v.parse::<u32>().ok();
                    } else {
                        return Err(err(format!("unknown field `{field}`")));
                    }
                }
                let (Some(r), Some(t)) = (routine, thread) else {
                    return Err(err("profile line needs routine= and thread=".into()));
                };
                current = Some((RoutineId::new(r), ThreadId::new(t)));
                // Materialize the entry even if it stays empty.
                let (r, t) = current.expect("just set");
                report.entry(r, t);
            }
            "calls" | "breakdown" | "rms" | "drms" => {
                let Some((routine, thread)) = current else {
                    return Err(err(format!("`{kind}` before any profile header")));
                };
                let nums: Result<Vec<u64>, _> = parts
                    .map(|s| s.parse::<u64>().map_err(|e| e.to_string()))
                    .collect();
                let nums = nums.map_err(|e| err(format!("bad number: {e}")))?;
                let p = report.entry(routine, thread);
                match kind {
                    "calls" => {
                        if nums.len() != 3 {
                            return Err(err("calls needs 3 numbers".into()));
                        }
                        p.calls = nums[0];
                        p.sum_rms = nums[1];
                        p.sum_drms = nums[2];
                    }
                    "breakdown" => {
                        if nums.len() != 3 {
                            return Err(err("breakdown needs 3 numbers".into()));
                        }
                        p.breakdown.plain = nums[0];
                        p.breakdown.thread_induced = nums[1];
                        p.breakdown.kernel_induced = nums[2];
                    }
                    "rms" | "drms" => {
                        if nums.len() != 5 {
                            return Err(err(format!("{kind} needs 5 numbers")));
                        }
                        let stats = CostStats {
                            count: nums[1],
                            min: nums[2],
                            max: nums[3],
                            sum: nums[4],
                        };
                        let map: &mut BTreeMap<u64, CostStats> = if kind == "rms" {
                            &mut p.by_rms
                        } else {
                            &mut p.by_drms
                        };
                        map.insert(nums[0], stats);
                    }
                    _ => unreachable!(),
                }
            }
            other => return Err(err(format!("unknown record `{other}`"))),
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ProfileReport {
        let mut rep = ProfileReport::new();
        let p = rep.entry(RoutineId::new(3), ThreadId::new(1));
        p.record(2, 5, 100);
        p.record(2, 9, 250);
        p.record(4, 9, 80);
        p.breakdown.plain = 6;
        p.breakdown.thread_induced = 4;
        p.breakdown.kernel_induced = 2;
        rep.entry(RoutineId::new(0), ThreadId::new(0))
            .record(1, 1, 7);
        rep
    }

    #[test]
    fn roundtrip_empty() {
        let rep = ProfileReport::new();
        assert_eq!(from_text(&to_text(&rep)).unwrap(), rep);
    }

    #[test]
    fn roundtrip_populated_report() {
        let rep = sample_report();
        let text = to_text(&rep);
        assert!(text.starts_with("# drms profile report v1"));
        assert_eq!(from_text(&text).unwrap(), rep);
    }

    #[test]
    fn dumps_are_stable_and_sorted() {
        let rep = sample_report();
        assert_eq!(to_text(&rep), to_text(&rep.clone()));
        let text = to_text(&rep);
        let first = text.find("routine=0").unwrap();
        let second = text.find("routine=3").unwrap();
        assert!(first < second, "records sorted by (routine, thread)");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_text("calls 1 2 3")
            .unwrap_err()
            .message
            .contains("before any profile"));
        assert!(from_text("profile routine=0").is_err());
        assert!(from_text("profile routine=0 thread=0\ncalls 1 2").is_err());
        assert!(from_text("profile routine=0 thread=0\nbreakdown 1 2").is_err());
        assert!(from_text("profile routine=0 thread=0\nrms 1 2 3").is_err());
        assert!(from_text("bogus").is_err());
        assert!(from_text("profile routine=0 thread=0 junk=1").is_err());
        let e = from_text("profile routine=0 thread=0\nrms a b c d e").unwrap_err();
        assert!(e.to_string().contains("line 2"));
    }

    #[test]
    fn roundtrip_real_workload_report() {
        use crate::drms::{DrmsConfig, DrmsProfiler};
        use drms_trace::{Event, EventSink};
        // Drive a small synthetic trace through the profiler and check
        // that serialization preserves the collected report exactly.
        let mut prof = DrmsProfiler::new(DrmsConfig::full());
        let t = ThreadId::MAIN;
        prof.on_call(t, RoutineId::new(0), 0);
        for i in 0..20u64 {
            prof.on_read(t, drms_trace::Addr::new(100 + i % 7), 1);
            prof.on_write(t, drms_trace::Addr::new(200 + i % 3), 1);
        }
        prof.on_kernel_to_user(t, drms_trace::Addr::new(100), 4);
        prof.on_read(t, drms_trace::Addr::new(100), 4);
        prof.on_return(t, RoutineId::new(0), 55);
        let _ = Event::ThreadExit;
        let rep = prof.into_report();
        assert_eq!(from_text(&to_text(&rep)).unwrap(), rep);
    }
}
