//! Recorded thread schedules: the scheduling decisions of one guest run.
//!
//! The VM's serializing scheduler executes one thread at a time; each
//! *slice* is described by a [`SchedDecision`] — which thread was chosen,
//! how many interpreter steps it ran, and why the slice ended (the
//! [`PreemptCause`]). The full [`Schedule`] is a compact, replayable
//! artifact: feeding it back through the VM's replay policy reproduces
//! the exact interleaving, and therefore a bit-identical tool event
//! stream and drms report.
//!
//! # Text format
//!
//! Like the event codec, one record per line with a trailing FNV-1a
//! `~<hex>` checksum:
//!
//! ```text
//! # drms-sched v1
//! quantum 50 ~<checksum>
//! <thread> <steps> <cause> ~<checksum>
//! ```
//!
//! Cause mnemonics: `q` quantum expiry, `s` sync-point preemption, `k`
//! kernel-transfer preemption, `b` thread blocked, `y` thread yielded,
//! `x` thread exited, `a` run aborted mid-slice. Lines are read by the
//! shared checked-line core ([`crate::lines`]), with the event codec's
//! rules for checksum-less and torn lines. [`from_text`] fails on the
//! first bad line; [`from_text_lossy`] salvages the longest valid prefix
//! and reports how many lines were kept vs dropped.

use crate::ids::ThreadId;
use crate::lines::{push_checked, read_lines, ParseLineError, SalvageKind, Salvaged};
use std::fmt;

/// Why a scheduling slice ended.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PreemptCause {
    /// The slice's basic-block quantum expired (forced preemption).
    Quantum,
    /// Preempted right after a synchronization operation (forced;
    /// injected by the chaos policy).
    Sync,
    /// Preempted right after a kernel transfer (forced; injected by the
    /// chaos policy).
    Kernel,
    /// The thread blocked on a semaphore, mutex, condvar or join.
    Block,
    /// The thread voluntarily yielded.
    Yield,
    /// The thread exited.
    Exit,
    /// The run aborted mid-slice (watchdog or guest error); the slice
    /// covers the steps executed before the abort.
    Abort,
}

impl PreemptCause {
    /// Every cause, in declaration order. The per-cause scheduler
    /// counters (`sched.preempt.*`) index this array, and
    /// `Metrics::audit` checks their sum against `sched.slices`.
    pub const ALL: [PreemptCause; 7] = [
        PreemptCause::Quantum,
        PreemptCause::Sync,
        PreemptCause::Kernel,
        PreemptCause::Block,
        PreemptCause::Yield,
        PreemptCause::Exit,
        PreemptCause::Abort,
    ];

    /// The index of this cause in [`Self::ALL`].
    pub fn index(self) -> usize {
        match self {
            PreemptCause::Quantum => 0,
            PreemptCause::Sync => 1,
            PreemptCause::Kernel => 2,
            PreemptCause::Block => 3,
            PreemptCause::Yield => 4,
            PreemptCause::Exit => 5,
            PreemptCause::Abort => 6,
        }
    }

    /// The lower-case word used in metric names (`sched.preempt.<word>`).
    pub fn metric_name(self) -> &'static str {
        match self {
            PreemptCause::Quantum => "quantum",
            PreemptCause::Sync => "sync",
            PreemptCause::Kernel => "kernel",
            PreemptCause::Block => "block",
            PreemptCause::Yield => "yield",
            PreemptCause::Exit => "exit",
            PreemptCause::Abort => "abort",
        }
    }

    /// The single-character codec mnemonic.
    pub fn token(self) -> &'static str {
        match self {
            PreemptCause::Quantum => "q",
            PreemptCause::Sync => "s",
            PreemptCause::Kernel => "k",
            PreemptCause::Block => "b",
            PreemptCause::Yield => "y",
            PreemptCause::Exit => "x",
            PreemptCause::Abort => "a",
        }
    }

    /// Parses a codec mnemonic back into a cause.
    pub fn from_token(token: &str) -> Option<Self> {
        Some(match token {
            "q" => PreemptCause::Quantum,
            "s" => PreemptCause::Sync,
            "k" => PreemptCause::Kernel,
            "b" => PreemptCause::Block,
            "y" => PreemptCause::Yield,
            "x" => PreemptCause::Exit,
            "a" => PreemptCause::Abort,
            _ => return None,
        })
    }

    /// Whether the scheduler forced this preemption (as opposed to the
    /// thread stopping on its own). Forced preemptions are the schedule's
    /// information content: they are what the shrinker minimizes.
    pub fn is_forced(self) -> bool {
        matches!(
            self,
            PreemptCause::Quantum | PreemptCause::Sync | PreemptCause::Kernel
        )
    }
}

impl fmt::Display for PreemptCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            PreemptCause::Quantum => "quantum expiry",
            PreemptCause::Sync => "sync preemption",
            PreemptCause::Kernel => "kernel preemption",
            PreemptCause::Block => "blocked",
            PreemptCause::Yield => "yielded",
            PreemptCause::Exit => "exited",
            PreemptCause::Abort => "aborted",
        };
        f.write_str(name)
    }
}

/// One scheduling slice: the chosen thread, how many interpreter steps
/// it executed, and why the slice ended.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SchedDecision {
    /// The thread granted the slice.
    pub thread: ThreadId,
    /// Interpreter steps executed within the slice (block entries,
    /// instructions and terminators all count as one step each).
    pub steps: u32,
    /// Why the slice ended.
    pub cause: PreemptCause,
}

impl fmt::Display for SchedDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ran {} steps, {}",
            self.thread, self.steps, self.cause
        )
    }
}

/// A complete recorded schedule: every scheduling decision of one run,
/// in order, plus the base quantum it was recorded under.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule {
    /// The configured base quantum (in basic blocks) of the recording
    /// run — informational; replay is driven purely by the decisions.
    pub quantum: u32,
    /// The scheduling decisions, in slice order.
    pub decisions: Vec<SchedDecision>,
}

impl Schedule {
    /// An empty schedule recorded under `quantum`.
    pub fn new(quantum: u32) -> Self {
        Schedule {
            quantum,
            decisions: Vec::new(),
        }
    }

    /// Number of recorded decisions.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// Whether no decisions were recorded.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// Number of *forced* preemption points (quantum, sync, kernel) —
    /// the shrinker's minimization objective. Natural stops (block,
    /// yield, exit) are not preemptions: any scheduler would stop there.
    pub fn preemption_points(&self) -> usize {
        self.decisions
            .iter()
            .filter(|d| d.cause.is_forced())
            .count()
    }

    /// Appends a decision.
    pub fn push(&mut self, decision: SchedDecision) {
        self.decisions.push(decision);
    }
}

/// Serializes a schedule to the line-oriented text format.
///
/// # Example
/// ```
/// use drms_trace::sched::{to_text, from_text, Schedule, SchedDecision, PreemptCause};
/// use drms_trace::ThreadId;
///
/// let mut s = Schedule::new(50);
/// s.push(SchedDecision { thread: ThreadId::MAIN, steps: 120, cause: PreemptCause::Quantum });
/// assert_eq!(from_text(&to_text(&s)).unwrap(), s);
/// ```
pub fn to_text(schedule: &Schedule) -> String {
    let mut out = String::from("# drms-sched v1\n");
    push_checked(&mut out, &format!("quantum {}", schedule.quantum));
    for d in &schedule.decisions {
        let line = format!("{} {} {}", d.thread.index(), d.steps, d.cause.token());
        push_checked(&mut out, &line);
    }
    out
}

/// One schedule line: the `quantum N` header or a decision.
enum SchedLine {
    Quantum(u32),
    Decision(SchedDecision),
}

/// Parses one line payload (checksum token already verified and removed).
fn parse_line(payload: &str) -> Result<SchedLine, String> {
    if let Some(q) = payload.strip_prefix("quantum ") {
        let quantum = q.trim().parse().map_err(|e| format!("bad quantum: {e}"))?;
        return Ok(SchedLine::Quantum(quantum));
    }
    let mut parts = payload.split_ascii_whitespace();
    let mut number = |what: &str| {
        parts
            .next()
            .ok_or_else(|| format!("missing {what}"))?
            .parse::<u32>()
            .map_err(|e| format!("bad {what}: {e}"))
    };
    let thread = ThreadId::new(number("thread")?);
    let steps = number("steps")?;
    let cause_tok = parts.next().ok_or("missing cause")?;
    let cause = PreemptCause::from_token(cause_tok)
        .ok_or_else(|| format!("unknown cause `{cause_tok}`"))?;
    if let Some(extra) = parts.next() {
        return Err(format!("trailing token `{extra}`"));
    }
    Ok(SchedLine::Decision(SchedDecision {
        thread,
        steps,
        cause,
    }))
}

fn keep(schedule: &mut Schedule, line: SchedLine) {
    match line {
        SchedLine::Quantum(q) => schedule.quantum = q,
        SchedLine::Decision(d) => schedule.push(d),
    }
}

/// Parses the text format back into a [`Schedule`].
///
/// Blank lines and `#` comments are skipped. Lines carrying a `~<hex>`
/// checksum are verified; lines without one are accepted unverified,
/// unless the last line also lacks its newline (a torn write).
///
/// # Errors
/// Returns a [`ParseLineError`] naming the first malformed line.
pub fn from_text(text: &str) -> Result<Schedule, ParseLineError> {
    match read_lines(text, parse_line, keep) {
        (_, Some(e)) => Err(e),
        (salvage, None) => Ok(salvage.value),
    }
}

impl SalvageKind for Schedule {
    const METRIC_PREFIX: &'static str = "sched";
}

/// Parses as much of a damaged schedule as possible: the longest prefix
/// of well-formed lines. Decisions after a corruption point cannot be
/// trusted to belong where they appear, so everything from the first bad
/// line onward is dropped and counted. Never fails.
pub fn from_text_lossy(text: &str) -> Salvaged<Schedule> {
    read_lines(text, parse_line, keep).0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schedule {
        Schedule {
            quantum: 50,
            decisions: vec![
                SchedDecision {
                    thread: ThreadId::new(0),
                    steps: 120,
                    cause: PreemptCause::Quantum,
                },
                SchedDecision {
                    thread: ThreadId::new(1),
                    steps: 7,
                    cause: PreemptCause::Sync,
                },
                SchedDecision {
                    thread: ThreadId::new(2),
                    steps: 31,
                    cause: PreemptCause::Kernel,
                },
                SchedDecision {
                    thread: ThreadId::new(1),
                    steps: 4,
                    cause: PreemptCause::Block,
                },
                SchedDecision {
                    thread: ThreadId::new(0),
                    steps: 9,
                    cause: PreemptCause::Yield,
                },
                SchedDecision {
                    thread: ThreadId::new(0),
                    steps: 2,
                    cause: PreemptCause::Exit,
                },
            ],
        }
    }

    #[test]
    fn roundtrips_all_causes() {
        let s = sample();
        let text = to_text(&s);
        assert_eq!(from_text(&text).unwrap(), s);
    }

    #[test]
    fn counts_forced_preemption_points() {
        assert_eq!(sample().preemption_points(), 3);
        assert!(PreemptCause::Quantum.is_forced());
        assert!(!PreemptCause::Block.is_forced());
        assert!(!PreemptCause::Abort.is_forced());
    }

    #[test]
    fn every_line_carries_a_checksum() {
        let text = to_text(&sample());
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, hex) = line.rsplit_once('~').expect("checksum token");
            assert!(u64::from_str_radix(hex, 16).is_ok(), "{line}");
        }
    }

    #[test]
    fn detects_bit_flips_via_checksum() {
        let text = to_text(&sample());
        let corrupted = text.replacen("120", "121", 1);
        assert_ne!(corrupted, text);
        let e = from_text(&corrupted).unwrap_err();
        assert!(e.message.contains("checksum mismatch"), "{e}");
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(from_text("0 1 z").is_err(), "unknown cause");
        assert!(from_text("0 1").is_err(), "missing cause");
        assert!(from_text("0 1 q extra").is_err(), "trailing token");
        assert!(from_text("quantum x").is_err(), "bad quantum");
        let e = from_text("quantum 5\nbogus line here\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn checksum_less_lines_are_accepted() {
        let s = from_text("quantum 9\n0 3 q\n").unwrap();
        assert_eq!(s.quantum, 9);
        assert_eq!(s.decisions.len(), 1);
    }

    #[test]
    fn lossy_parse_reports_salvaged_and_dropped_counts() {
        let s = sample();
        let text = to_text(&s);
        let clean = from_text_lossy(&text);
        assert!(!clean.is_damaged());
        // header + decisions all count as salvaged lines
        assert_eq!(clean.salvaged, 1 + s.decisions.len());
        assert_eq!(clean.dropped, 0);
        assert_eq!(clean.value, s);

        // Corrupt the second decision line (lines[0] is the `#` header
        // comment, [1] the quantum, [2..] decisions); it and everything
        // after drop.
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        lines[3] = lines[3].replacen(' ', "_", 1);
        let damaged = from_text_lossy(&lines.join("\n"));
        assert!(damaged.is_damaged());
        assert_eq!(damaged.value.decisions.len(), 1);
        assert_eq!(damaged.salvaged, 2, "quantum + one decision");
        assert_eq!(damaged.dropped, 5);
        assert_eq!(damaged.warnings.len(), 1);
        assert!(
            damaged.warnings[0].contains("salvaged 2"),
            "{:?}",
            damaged.warnings
        );
        assert!(
            damaged.warnings[0].contains("dropped 5"),
            "{:?}",
            damaged.warnings
        );
    }

    #[test]
    fn lossy_parse_of_garbage_never_panics() {
        let s = from_text_lossy("complete nonsense\n\u{1F980}\n");
        assert!(s.value.is_empty());
        assert!(s.is_damaged());
    }

    /// Regression: a schedule cut inside `quantum 50 ~…` read as
    /// `quantum 5` in both readers.
    #[test]
    fn a_cut_at_any_byte_never_yields_an_unwritten_line() {
        let full = sample();
        let text = to_text(&full);
        for cut in 0..=text.len() {
            let prefix = &text[..cut];
            let s = from_text_lossy(prefix);
            let d = &s.value.decisions;
            assert_eq!(d[..], full.decisions[..d.len()], "cut at {cut}");
            let quantum_kept = s.salvaged > d.len();
            assert_eq!(
                s.salvaged,
                usize::from(quantum_kept) + d.len(),
                "cut at {cut}"
            );
            let want_quantum = if quantum_kept { full.quantum } else { 0 };
            assert_eq!(s.value.quantum, want_quantum, "cut at {cut}");
            assert_eq!(s.salvaged + s.dropped, s.total, "cut at {cut}");
            match from_text(prefix) {
                Ok(strict) => assert_eq!(strict, s.value, "cut at {cut}"),
                Err(e) => assert_eq!(e.line, s.salvaged + 2, "cut at {cut}: {e}"),
            }
        }
    }
}
