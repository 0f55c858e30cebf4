//! The scheduling engine of the serializing VM.
//!
//! `Scheduler` owns every scheduling decision of a run: which runnable
//! thread gets the next slice, how long the slice lasts, and why it
//! ends. Centralizing the logic here gives all four policies one code
//! path the interpreter drives blindly:
//!
//! * **RoundRobin / Random** — the classic block-quantum policies;
//!   their behavior is bit-identical to the pre-scheduler interpreter.
//! * **Chaos** — a seeded fuzzing policy: random thread pick, a random
//!   per-slice quantum in `[1, quantum]`, and probabilistic preemption
//!   right after synchronization operations and kernel transfers — the
//!   points where interleaving actually changes drms.
//! * **Replay** — drives the run from a recorded [`Schedule`],
//!   reproducing the original interleaving exactly (strict mode), or as
//!   closely as the program still allows (relaxed mode, used by the
//!   schedule shrinker on mutated decision lists).
//!
//! Any policy can additionally *record* its decisions into a
//! [`Schedule`] (`RunConfig::record_sched`), making every run — chaotic
//! or not — a replayable artifact.

use crate::interp::RunError;
use crate::rng::SmallRng;
use crate::stats::{RunConfig, SchedPolicy};
use drms_trace::sched::{PreemptCause, SchedDecision, Schedule};
use drms_trace::ThreadId;
use std::sync::Arc;

/// Classification of one interpreter step, as seen by the scheduler.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum StepKind {
    /// An ordinary instruction (or a step that ends the slice anyway).
    Plain,
    /// Control entered a basic block — the unit block-quanta count.
    Block,
    /// A synchronization operation completed without blocking — a chaos
    /// preemption point.
    Sync,
    /// A kernel transfer (syscall) executed — a chaos preemption point.
    Kernel,
}

/// Probability (1/CHAOS_PREEMPT_DEN) that chaos preempts at a sync
/// point or kernel transfer.
const CHAOS_PREEMPT_NUM: u32 = 1;
const CHAOS_PREEMPT_DEN: u32 = 4;

/// Histogram bucket bounds for slice lengths in interpreter steps
/// (`sched.slice.steps` in the metrics registry).
pub(crate) const SLICE_STEP_BOUNDS: [u64; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// Observability tallies of one run's scheduling decisions. Plain
/// integer bumps on the slice-close path; folded into the metrics
/// registry by [`Vm::metrics`](crate::Vm::metrics), where the audit
/// checks `Σ sched.preempt.* == sched.slices`.
#[derive(Clone, Debug, Default)]
pub(crate) struct SliceCounters {
    /// Total closed slices (aborted ones included).
    pub slices: u64,
    /// Per-cause tallies, indexed by [`PreemptCause::index`].
    pub by_cause: [u64; 7],
    /// Slice lengths in steps, bucketed by [`SLICE_STEP_BOUNDS`]
    /// (`counts[i]` covers values `<= SLICE_STEP_BOUNDS[i]`, the last
    /// slot is the overflow bucket), plus the running sum for the
    /// histogram's `_sum` series.
    pub step_buckets: [u64; 9],
    pub step_sum: u64,
}

pub(crate) struct Scheduler {
    policy: SchedPolicy,
    quantum: u32,
    last: usize,
    rng: SmallRng,
    replay: Option<Arc<Schedule>>,
    /// Index of the next replay decision to consume.
    cursor: usize,
    /// Set once a relaxed replay has exhausted (or skipped past) all
    /// recorded decisions: remaining threads run non-preemptively.
    replay_exhausted: bool,
    record: Option<Schedule>,
    // --- current slice ---
    in_slice: bool,
    cur_thread: usize,
    cur_steps: u32,
    /// Remaining block budget of the slice (block-quantum policies).
    blocks_left: u32,
    /// The recorded decision driving the current slice (replay).
    replay_decision: Option<SchedDecision>,
    counters: SliceCounters,
}

impl Scheduler {
    /// Builds the scheduler for `config`.
    ///
    /// # Errors
    /// [`RunError::ScheduleMissing`] if the policy is
    /// [`SchedPolicy::Replay`] but `config.replay` holds no schedule.
    pub(crate) fn new(config: &RunConfig) -> Result<Self, RunError> {
        let seed = match config.policy {
            SchedPolicy::Random { seed } | SchedPolicy::Chaos { seed } => seed,
            SchedPolicy::RoundRobin | SchedPolicy::Replay { .. } => 0,
        };
        let replay = match config.policy {
            SchedPolicy::Replay { .. } => {
                Some(config.replay.clone().ok_or(RunError::ScheduleMissing)?)
            }
            _ => config.replay.clone(),
        };
        Ok(Scheduler {
            policy: config.policy,
            quantum: config.quantum.max(1),
            last: 0,
            rng: SmallRng::seed_from_u64(seed),
            replay,
            cursor: 0,
            replay_exhausted: false,
            record: config.record_sched.then(|| Schedule::new(config.quantum)),
            in_slice: false,
            cur_thread: 0,
            cur_steps: 0,
            blocks_left: 0,
            replay_decision: None,
            counters: SliceCounters::default(),
        })
    }

    /// Picks the thread for the next slice, given per-thread runnable
    /// flags. Returns `None` when no thread is runnable (the caller
    /// decides between completion and deadlock).
    ///
    /// # Errors
    /// [`RunError::ScheduleDiverged`] in strict replay when the
    /// recorded decision cannot be honored.
    pub(crate) fn pick(&mut self, runnable: &[bool]) -> Result<Option<usize>, RunError> {
        if !runnable.iter().any(|&r| r) {
            return Ok(None);
        }
        let n = runnable.len();
        match self.policy {
            SchedPolicy::RoundRobin => Ok(self.round_robin(runnable)),
            SchedPolicy::Random { .. } | SchedPolicy::Chaos { .. } => {
                let pool: Vec<usize> = (0..n).filter(|&i| runnable[i]).collect();
                Ok(Some(pool[self.rng.gen_range(0..pool.len())]))
            }
            SchedPolicy::Replay { relaxed } => self.pick_replay(runnable, relaxed),
        }
    }

    fn round_robin(&self, runnable: &[bool]) -> Option<usize> {
        let n = runnable.len();
        (1..=n).map(|d| (self.last + d) % n).find(|&i| runnable[i])
    }

    fn pick_replay(&mut self, runnable: &[bool], relaxed: bool) -> Result<Option<usize>, RunError> {
        let schedule = self
            .replay
            .clone()
            .expect("replay policy validated at construction");
        loop {
            let Some(d) = schedule.decisions.get(self.cursor).copied() else {
                // Decisions exhausted while threads are still runnable.
                if relaxed {
                    self.replay_exhausted = true;
                    self.replay_decision = None;
                    return Ok(self.round_robin(runnable));
                }
                return Err(RunError::ScheduleDiverged {
                    slice: self.cursor,
                    reason: "schedule exhausted with runnable threads remaining".into(),
                });
            };
            let idx = d.thread.index() as usize;
            if idx < runnable.len() && runnable[idx] {
                self.cursor += 1;
                self.replay_decision = Some(d);
                return Ok(Some(idx));
            }
            if relaxed {
                // The mutated schedule names a thread that cannot run
                // here; skip the decision and try the next one.
                self.cursor += 1;
                continue;
            }
            return Err(RunError::ScheduleDiverged {
                slice: self.cursor,
                reason: format!("recorded thread {} is not runnable", d.thread),
            });
        }
    }

    /// Opens a slice for thread `t`, fixing its budget.
    pub(crate) fn begin_slice(&mut self, t: usize) {
        self.last = t;
        self.cur_thread = t;
        self.cur_steps = 0;
        self.in_slice = true;
        self.blocks_left = match self.policy {
            SchedPolicy::RoundRobin | SchedPolicy::Random { .. } => self.quantum,
            SchedPolicy::Chaos { .. } => 1 + self.rng.gen_range(0..self.quantum),
            // Replay slices are step-driven (or unbounded in the
            // relaxed fallback after exhaustion).
            SchedPolicy::Replay { .. } => u32::MAX,
        };
    }

    /// Accounts one interpreter step of the current slice and decides
    /// whether the scheduler must preempt after it. Natural slice ends
    /// (block, yield, exit) take precedence in the interpreter loop.
    pub(crate) fn note_step(&mut self, kind: StepKind) -> Option<PreemptCause> {
        self.cur_steps += 1;
        match self.policy {
            SchedPolicy::Replay { relaxed } => {
                let d = self.replay_decision?;
                if self.cur_steps < d.steps {
                    return None;
                }
                // Honor the recorded slice length. A forced cause
                // replays as itself. A recorded abort is re-raised by
                // the guest itself (watchdog or error) before the next
                // step, so strict replay keeps the slice open; relaxed
                // replay bounds it in case the failure no longer
                // occurs. A natural cause should coincide with a
                // natural stop — if it does not, preempt as a quantum
                // expiry and let strict verification flag the
                // divergence.
                match d.cause {
                    c if c.is_forced() => Some(c),
                    PreemptCause::Abort if !relaxed => None,
                    _ => Some(PreemptCause::Quantum),
                }
            }
            SchedPolicy::Chaos { .. } => match kind {
                StepKind::Block => {
                    self.blocks_left -= 1;
                    (self.blocks_left == 0).then_some(PreemptCause::Quantum)
                }
                StepKind::Sync => self
                    .rng
                    .gen_ratio(CHAOS_PREEMPT_NUM, CHAOS_PREEMPT_DEN)
                    .then_some(PreemptCause::Sync),
                StepKind::Kernel => self
                    .rng
                    .gen_ratio(CHAOS_PREEMPT_NUM, CHAOS_PREEMPT_DEN)
                    .then_some(PreemptCause::Kernel),
                StepKind::Plain => None,
            },
            SchedPolicy::RoundRobin | SchedPolicy::Random { .. } => match kind {
                StepKind::Block => {
                    self.blocks_left -= 1;
                    (self.blocks_left == 0).then_some(PreemptCause::Quantum)
                }
                _ => None,
            },
        }
    }

    /// Accounts `n` plain steps at once — the decoded dispatch loop's
    /// bulk equivalent of `n` calls to
    /// [`note_step`](Self::note_step)`(StepKind::Plain)`.
    ///
    /// Sound because a plain step can never preempt on its own: under
    /// the block-quantum policies only [`StepKind::Block`] decrements
    /// the budget, chaos preempts only at sync/kernel points, and the
    /// decoded loop never runs while a replay decision is active
    /// (replay runs always use the reference stepper). Slice step
    /// totals — recorded schedules and the `sched.slice.steps`
    /// histogram — come out identical to per-step accounting.
    pub(crate) fn note_plain_steps(&mut self, n: u32) {
        debug_assert!(
            self.replay_decision.is_none(),
            "decoded dispatch never drives a replayed slice"
        );
        self.cur_steps += n;
    }

    /// Remaining block budget of the current slice: how many more
    /// [`StepKind::Block`] steps may run before a quantum preemption.
    /// At least 1 while a slice is open.
    pub(crate) fn blocks_remaining(&self) -> u32 {
        self.blocks_left
    }

    /// Accounts `n` block steps at once — the decoded dispatch loop's
    /// bulk equivalent of `n` calls to
    /// [`note_step`](Self::note_step)`(StepKind::Block)`, valid only
    /// for `n <` [`blocks_remaining`](Self::blocks_remaining) (the
    /// caller keeps the slice's *final* block step on the per-step
    /// path, so a quantum expiry is always decided by `note_step`).
    /// Chaos randomness is unaffected: its RNG draws happen only at
    /// sync/kernel steps and slice starts, never per block.
    pub(crate) fn note_block_steps(&mut self, n: u32) {
        debug_assert!(
            self.replay_decision.is_none(),
            "decoded dispatch never drives a replayed slice"
        );
        debug_assert!(n < self.blocks_left, "bulk blocks may not end the slice");
        self.cur_steps += n;
        self.blocks_left -= n;
    }

    /// Closes the current slice with `cause`, recording it if recording
    /// is on.
    ///
    /// # Errors
    /// [`RunError::ScheduleDiverged`] in strict replay when the
    /// observed slice does not match the recorded one.
    pub(crate) fn end_slice(&mut self, cause: PreemptCause) -> Result<(), RunError> {
        self.in_slice = false;
        if let Some(d) = self.replay_decision.take() {
            if let SchedPolicy::Replay { relaxed: false } = self.policy {
                if cause != d.cause || self.cur_steps != d.steps {
                    return Err(RunError::ScheduleDiverged {
                        slice: self.cursor - 1,
                        reason: format!(
                            "recorded {} steps ending with {}, observed {} steps ending with {}",
                            d.steps, d.cause, self.cur_steps, cause
                        ),
                    });
                }
            }
        }
        self.push_decision(cause);
        Ok(())
    }

    /// Flushes an in-progress slice after a mid-slice abort (watchdog
    /// or guest error), so a recorded failing run replays to the same
    /// failure point.
    pub(crate) fn abort_slice(&mut self) {
        if self.in_slice {
            self.in_slice = false;
            self.replay_decision = None;
            self.push_decision(PreemptCause::Abort);
        }
    }

    fn push_decision(&mut self, cause: PreemptCause) {
        let (thread, steps) = (self.cur_thread, self.cur_steps);
        self.counters.slices += 1;
        self.counters.by_cause[cause.index()] += 1;
        let bucket = SLICE_STEP_BOUNDS
            .iter()
            .position(|&b| u64::from(steps) <= b)
            .unwrap_or(SLICE_STEP_BOUNDS.len());
        self.counters.step_buckets[bucket] += 1;
        self.counters.step_sum += u64::from(steps);
        if let Some(rec) = &mut self.record {
            rec.push(SchedDecision {
                thread: ThreadId::new(thread as u32),
                steps,
                cause,
            });
        }
    }

    /// The observability tallies accumulated so far.
    pub(crate) fn counters(&self) -> &SliceCounters {
        &self.counters
    }

    /// The schedule recorded so far, if recording was requested.
    pub(crate) fn recorded(&self) -> Option<&Schedule> {
        self.record.as_ref()
    }

    /// Takes ownership of the recorded schedule.
    pub(crate) fn take_recorded(&mut self) -> Option<Schedule> {
        self.record.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(policy: SchedPolicy) -> RunConfig {
        RunConfig {
            policy,
            quantum: 4,
            record_sched: true,
            ..RunConfig::default()
        }
    }

    #[test]
    fn replay_policy_without_schedule_is_rejected() {
        let cfg = RunConfig {
            policy: SchedPolicy::Replay { relaxed: false },
            ..RunConfig::default()
        };
        assert_eq!(Scheduler::new(&cfg).err(), Some(RunError::ScheduleMissing));
    }

    #[test]
    fn round_robin_rotates_from_last() {
        let mut s = Scheduler::new(&config(SchedPolicy::RoundRobin)).unwrap();
        let runnable = vec![true, true, true];
        let a = s.pick(&runnable).unwrap().unwrap();
        s.begin_slice(a);
        assert_eq!(a, 1, "starts after thread 0");
        let b = s.pick(&runnable).unwrap().unwrap();
        s.begin_slice(b);
        assert_eq!(b, 2);
        let c = s.pick(&runnable).unwrap().unwrap();
        assert_eq!(c, 0);
    }

    #[test]
    fn pick_returns_none_when_nothing_runnable() {
        let mut s = Scheduler::new(&config(SchedPolicy::RoundRobin)).unwrap();
        assert_eq!(s.pick(&[false, false]).unwrap(), None);
        assert_eq!(s.pick(&[]).unwrap(), None);
    }

    #[test]
    fn block_quantum_preempts_after_budget() {
        let mut s = Scheduler::new(&config(SchedPolicy::RoundRobin)).unwrap();
        s.begin_slice(0);
        for _ in 0..3 {
            assert_eq!(s.note_step(StepKind::Block), None);
        }
        assert_eq!(s.note_step(StepKind::Block), Some(PreemptCause::Quantum));
    }

    #[test]
    fn recording_captures_decisions_in_order() {
        let mut s = Scheduler::new(&config(SchedPolicy::RoundRobin)).unwrap();
        s.begin_slice(0);
        s.note_step(StepKind::Plain);
        s.note_step(StepKind::Plain);
        s.end_slice(PreemptCause::Block).unwrap();
        s.begin_slice(1);
        s.note_step(StepKind::Plain);
        s.end_slice(PreemptCause::Exit).unwrap();
        let rec = s.take_recorded().unwrap();
        assert_eq!(rec.decisions.len(), 2);
        assert_eq!(rec.decisions[0].steps, 2);
        assert_eq!(rec.decisions[0].cause, PreemptCause::Block);
        assert_eq!(rec.decisions[1].thread, ThreadId::new(1));
    }

    #[test]
    fn abort_flushes_open_slice_only() {
        let mut s = Scheduler::new(&config(SchedPolicy::RoundRobin)).unwrap();
        s.begin_slice(0);
        s.note_step(StepKind::Plain);
        s.abort_slice();
        s.abort_slice(); // closed: second flush is a no-op
        let rec = s.recorded().unwrap();
        assert_eq!(rec.decisions.len(), 1);
        assert_eq!(rec.decisions[0].cause, PreemptCause::Abort);
    }

    fn replay_config(decisions: Vec<SchedDecision>, relaxed: bool) -> RunConfig {
        RunConfig {
            policy: SchedPolicy::Replay { relaxed },
            replay: Some(Arc::new(Schedule {
                quantum: 4,
                decisions,
            })),
            ..RunConfig::default()
        }
    }

    #[test]
    fn strict_replay_follows_decisions_and_verifies_causes() {
        let decisions = vec![
            SchedDecision {
                thread: ThreadId::new(0),
                steps: 2,
                cause: PreemptCause::Quantum,
            },
            SchedDecision {
                thread: ThreadId::new(1),
                steps: 1,
                cause: PreemptCause::Exit,
            },
        ];
        let mut s = Scheduler::new(&replay_config(decisions, false)).unwrap();
        let t = s.pick(&[true, true]).unwrap().unwrap();
        assert_eq!(t, 0);
        s.begin_slice(t);
        assert_eq!(s.note_step(StepKind::Plain), None);
        assert_eq!(s.note_step(StepKind::Plain), Some(PreemptCause::Quantum));
        s.end_slice(PreemptCause::Quantum).unwrap();
        let t = s.pick(&[true, true]).unwrap().unwrap();
        assert_eq!(t, 1);
        s.begin_slice(t);
        s.note_step(StepKind::Plain);
        s.end_slice(PreemptCause::Exit).unwrap();
    }

    #[test]
    fn strict_replay_flags_cause_divergence() {
        let decisions = vec![SchedDecision {
            thread: ThreadId::new(0),
            steps: 3,
            cause: PreemptCause::Block,
        }];
        let mut s = Scheduler::new(&replay_config(decisions, false)).unwrap();
        let t = s.pick(&[true]).unwrap().unwrap();
        s.begin_slice(t);
        s.note_step(StepKind::Plain);
        // The thread blocks a step early — divergence.
        let e = s.end_slice(PreemptCause::Block).unwrap_err();
        assert!(
            matches!(e, RunError::ScheduleDiverged { slice: 0, .. }),
            "{e:?}"
        );
    }

    #[test]
    fn strict_replay_flags_unrunnable_thread() {
        let decisions = vec![SchedDecision {
            thread: ThreadId::new(1),
            steps: 1,
            cause: PreemptCause::Exit,
        }];
        let mut s = Scheduler::new(&replay_config(decisions, false)).unwrap();
        let e = s.pick(&[true, false]).unwrap_err();
        assert!(matches!(e, RunError::ScheduleDiverged { .. }), "{e:?}");
    }

    #[test]
    fn relaxed_replay_skips_unrunnable_and_falls_back_to_round_robin() {
        let decisions = vec![
            SchedDecision {
                thread: ThreadId::new(1),
                steps: 5,
                cause: PreemptCause::Quantum,
            },
            SchedDecision {
                thread: ThreadId::new(0),
                steps: 2,
                cause: PreemptCause::Quantum,
            },
        ];
        let mut s = Scheduler::new(&replay_config(decisions, true)).unwrap();
        // Thread 1 is not runnable: the decision is skipped, thread 0's
        // decision applies.
        let t = s.pick(&[true, false]).unwrap().unwrap();
        assert_eq!(t, 0);
        s.begin_slice(t);
        s.note_step(StepKind::Plain);
        assert_eq!(s.note_step(StepKind::Plain), Some(PreemptCause::Quantum));
        s.end_slice(PreemptCause::Quantum).unwrap();
        // Decisions exhausted: non-preemptive round-robin fallback.
        let t = s.pick(&[true, true]).unwrap().unwrap();
        s.begin_slice(t);
        for _ in 0..1000 {
            assert_eq!(
                s.note_step(StepKind::Block),
                None,
                "fallback never preempts"
            );
        }
    }

    #[test]
    fn chaos_policy_draws_bounded_quanta_and_sometimes_preempts_at_sync() {
        let mut s = Scheduler::new(&config(SchedPolicy::Chaos { seed: 7 })).unwrap();
        let mut sync_preempts = 0;
        let mut quantum_preempts = 0;
        for round in 0..200 {
            let t = s.pick(&[true, true]).unwrap().unwrap();
            assert!(t < 2);
            s.begin_slice(t);
            assert!((1..=4).contains(&s.blocks_left), "quantum in [1, quantum]");
            loop {
                match s.note_step(if round % 2 == 0 {
                    StepKind::Sync
                } else {
                    StepKind::Block
                }) {
                    Some(PreemptCause::Sync) => {
                        sync_preempts += 1;
                        break;
                    }
                    Some(PreemptCause::Quantum) => {
                        quantum_preempts += 1;
                        break;
                    }
                    Some(other) => panic!("unexpected cause {other:?}"),
                    None => {}
                }
                if s.cur_steps > 64 {
                    s.end_slice(PreemptCause::Yield).unwrap();
                    break;
                }
            }
            if s.in_slice {
                s.end_slice(PreemptCause::Quantum).unwrap();
            }
        }
        assert!(sync_preempts > 0, "sync preemptions occur");
        assert!(quantum_preempts > 0, "quantum preemptions occur");
    }

    #[test]
    fn slice_counters_cover_every_closed_slice() {
        let mut s = Scheduler::new(&config(SchedPolicy::RoundRobin)).unwrap();
        s.begin_slice(0);
        s.note_step(StepKind::Plain);
        s.note_step(StepKind::Plain);
        s.note_step(StepKind::Plain);
        s.end_slice(PreemptCause::Block).unwrap();
        s.begin_slice(1);
        s.note_step(StepKind::Plain);
        s.end_slice(PreemptCause::Exit).unwrap();
        s.begin_slice(0);
        s.note_step(StepKind::Plain);
        s.abort_slice();
        let c = s.counters();
        assert_eq!(c.slices, 3);
        assert_eq!(c.by_cause.iter().sum::<u64>(), c.slices);
        assert_eq!(c.by_cause[PreemptCause::Block.index()], 1);
        assert_eq!(c.by_cause[PreemptCause::Exit.index()], 1);
        assert_eq!(c.by_cause[PreemptCause::Abort.index()], 1);
        assert_eq!(c.step_buckets.iter().sum::<u64>(), c.slices);
        assert_eq!(c.step_sum, 5);
        // Steps 3 lands in the `<= 4` bucket, 1 in `<= 1`, 1 in `<= 1`.
        assert_eq!(c.step_buckets[0], 2);
        assert_eq!(c.step_buckets[2], 1);
    }

    #[test]
    fn chaos_is_deterministic_per_seed() {
        let run = |seed| {
            let mut s = Scheduler::new(&config(SchedPolicy::Chaos { seed })).unwrap();
            let mut picks = Vec::new();
            for _ in 0..100 {
                let t = s.pick(&[true, true, true]).unwrap().unwrap();
                s.begin_slice(t);
                picks.push((t, s.blocks_left));
                s.end_slice(PreemptCause::Yield).unwrap();
            }
            picks
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
