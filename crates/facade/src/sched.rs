//! Schedule robustness harness: record/replay determinism checking,
//! chaos fuzzing across seeds, and delta-debugging of failing schedules.
//!
//! drms is a schedule-sensitive metric — a read counts when its location
//! was last written by another thread or the kernel, so the interleaving
//! the scheduler produced *is* part of the measurement. This module turns
//! that from a threat into a tool:
//!
//! * [`record_run`] captures a run's full [`Schedule`] alongside its
//!   profile and merged event stream;
//! * [`check_replay_determinism`] replays the recording strictly and
//!   verifies the event stream is bit-identical and the serialized drms
//!   report byte-identical — the reproducibility contract of the replay
//!   policy;
//! * [`chaos_scan`] profiles the same program under N chaos seeds and
//!   aggregates the per-routine drms spread
//!   ([`drms_core::drms_variance`]);
//! * [`shrink_failing_schedule`] delta-debugs a failing schedule down to
//!   a minimal set of forced preemption points that still reproduces the
//!   same failure class, using relaxed replay.
//!
//! Every profiled run of the harness is a [`ProfileSession`] run, so its
//! outcome carries the same metrics (`run.aborts` included) as any other
//! profiled run.

use drms_core::{report_io, VarianceReport};
use drms_trace::{codec, merge_traces};
use drms_vm::{
    NullTool, Program, RunConfig, RunError, SchedDecision, SchedPolicy, Schedule, TraceRecorder, Vm,
};
use std::sync::Arc;

use crate::{Error, ProfileOutcome, ProfileSession};

/// A profiled run together with the schedule that produced it and the
/// canonical serializations used for byte-level comparison.
#[derive(Clone, Debug)]
pub struct RecordedRun {
    /// Profile, stats, metrics and abort reason (if any) of the run. Its
    /// recorded schedule lives in [`RecordedRun::schedule`] instead.
    pub outcome: ProfileOutcome,
    /// Every scheduling decision of the run.
    pub schedule: Arc<Schedule>,
    /// The merged instrumentation event stream, in the trace text codec.
    pub events: String,
    /// The drms report, in the report text format.
    pub report_text: String,
}

impl RecordedRun {
    /// FNV-1a fingerprint of the serialized report — equal fingerprints
    /// of two runs mean byte-identical reports.
    pub fn report_fingerprint(&self) -> u64 {
        fnv1a(self.report_text.as_bytes())
    }

    /// FNV-1a fingerprint of the serialized event stream.
    pub fn events_fingerprint(&self) -> u64 {
        fnv1a(self.events.as_bytes())
    }
}

/// The workspace's FNV-1a fingerprint for byte-identity checks
/// (reports, event streams, merged sweep output), re-exported here for
/// the sweep, service and benchmark code that fingerprints its output.
pub use drms_trace::lines::fnv1a;

/// Runs `program` under `config` with full instrumentation (drms
/// profiler + trace recorder) and schedule recording, regardless of the
/// policy in `config`: a [`ProfileSession`] with one extra tool.
///
/// # Errors
/// Only setup failures ([`RunError::Validate`],
/// [`RunError::ScheduleMissing`], as [`Error::Run`]) are returned as
/// `Err`; run-time aborts land in [`ProfileOutcome::error`] with the
/// partial profile and the schedule up to the failure point preserved.
pub fn record_run(program: &Program, config: &RunConfig) -> Result<RecordedRun, Error> {
    let mut recorder = TraceRecorder::new();
    let outcome = ProfileSession::new(program)
        .config(config.clone())
        .record_sched()
        .tool(&mut recorder)
        .run()?;
    let (outcome, schedule) = take_schedule(outcome);
    let report_text = report_io::to_text(&outcome.report);
    let events = codec::to_text(&merge_traces(recorder.into_traces()));
    Ok(RecordedRun {
        outcome,
        schedule,
        events,
        report_text,
    })
}

/// Moves a recording session's schedule out of its outcome, so the
/// harness keeps it in one place.
fn take_schedule(mut outcome: ProfileOutcome) -> (ProfileOutcome, Arc<Schedule>) {
    let schedule = outcome
        .schedule
        .take()
        .expect("record_sched was set, so a schedule was recorded");
    (outcome, Arc::new(schedule))
}

/// Replays `schedule` against `program` with full instrumentation.
/// Strict mode (`relaxed = false`) aborts with
/// [`RunError::ScheduleDiverged`] if the guest does not follow the
/// recording; relaxed mode follows the schedule as closely as the guest
/// allows (the shrinker's mode).
///
/// # Errors
/// Same contract as [`record_run`].
pub fn replay_run(
    program: &Program,
    base: &RunConfig,
    schedule: Arc<Schedule>,
    relaxed: bool,
) -> Result<RecordedRun, Error> {
    let config = RunConfig {
        policy: SchedPolicy::Replay { relaxed },
        replay: Some(schedule),
        ..base.clone()
    };
    record_run(program, &config)
}

/// The verdict of [`check_replay_determinism`]: a recorded run and its
/// strict replay, side by side.
#[derive(Clone, Debug)]
pub struct DeterminismCheck {
    /// The original (recording) run.
    pub recorded: RecordedRun,
    /// The strict replay of its schedule.
    pub replayed: RecordedRun,
}

impl DeterminismCheck {
    /// Whether the replayed event stream is bit-identical.
    pub fn events_identical(&self) -> bool {
        self.recorded.events == self.replayed.events
    }

    /// Whether the serialized drms reports are byte-identical.
    pub fn reports_identical(&self) -> bool {
        self.recorded.report_text == self.replayed.report_text
    }

    /// Whether both runs ended the same way (both completed, or both
    /// aborted with the same error).
    pub fn outcomes_match(&self) -> bool {
        self.recorded.outcome.error == self.replayed.outcome.error
    }

    /// The full reproducibility contract: identical events, identical
    /// report bytes, identical outcome.
    pub fn holds(&self) -> bool {
        self.events_identical() && self.reports_identical() && self.outcomes_match()
    }
}

/// Records a run of `program` under `config`'s policy, then strictly
/// replays the recorded schedule and compares the two runs byte for
/// byte. [`DeterminismCheck::holds`] failing indicates a replay bug (or
/// nondeterminism outside the scheduler's control).
///
/// # Errors
/// Setup failures only, as in [`record_run`].
pub fn check_replay_determinism(
    program: &Program,
    config: &RunConfig,
) -> Result<DeterminismCheck, Error> {
    let recorded = record_run(program, config)?;
    let replayed = replay_run(program, config, Arc::clone(&recorded.schedule), false)?;
    Ok(DeterminismCheck { recorded, replayed })
}

/// One run of a [`chaos_scan`].
#[derive(Clone, Debug)]
pub struct ChaosRun {
    /// The chaos seed of this run.
    pub seed: u64,
    /// Profile, stats, metrics and abort reason (if any).
    pub outcome: ProfileOutcome,
    /// The recorded schedule — a ready-made repro when the run failed.
    pub schedule: Arc<Schedule>,
}

/// Result of fuzzing a program's scheduler across several chaos seeds.
#[derive(Clone, Debug)]
pub struct ChaosScan {
    /// One entry per seed, in input order.
    pub runs: Vec<ChaosRun>,
    /// Per-routine drms spread across the *completed* runs.
    pub variance: VarianceReport,
}

impl ChaosScan {
    /// The runs that aborted, i.e. the seeds that found a failure.
    pub fn failures(&self) -> impl Iterator<Item = &ChaosRun> {
        self.runs.iter().filter(|r| r.outcome.error.is_some())
    }

    /// Number of runs that completed normally.
    pub fn completed(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| r.outcome.error.is_none())
            .count()
    }
}

/// Profiles `program` once per seed under [`SchedPolicy::Chaos`],
/// recording every schedule, and aggregates the per-routine drms spread
/// over the completed runs ([`drms_core::drms_variance`]).
///
/// Aborting seeds are kept in [`ChaosScan::runs`] (with their recorded
/// schedules as repros) but excluded from the variance aggregation:
/// a partial profile's terminal drms says nothing about spread.
///
/// # Errors
/// Setup failures only, as in [`record_run`].
pub fn chaos_scan(program: &Program, base: &RunConfig, seeds: &[u64]) -> Result<ChaosScan, Error> {
    let mut runs = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        let config = RunConfig {
            policy: SchedPolicy::Chaos { seed },
            replay: None,
            ..base.clone()
        };
        let outcome = ProfileSession::new(program)
            .config(config)
            .record_sched()
            .run()?;
        let (outcome, schedule) = take_schedule(outcome);
        runs.push(ChaosRun {
            seed,
            outcome,
            schedule,
        });
    }
    let completed: Vec<_> = runs
        .iter()
        .filter(|r| r.outcome.error.is_none())
        .map(|r| r.outcome.report.clone())
        .collect();
    let variance = drms_core::drms_variance(&completed);
    Ok(ChaosScan { runs, variance })
}

/// Upper bound on replay attempts one shrink is allowed to spend.
const MAX_SHRINK_ATTEMPTS: usize = 512;

/// The result of shrinking a failing schedule.
#[derive(Clone, Debug)]
pub struct ShrinkOutcome {
    /// The minimized schedule: relaxed-replaying it still reproduces
    /// the failure class.
    pub minimized: Schedule,
    /// Forced preemption points in the input schedule.
    pub original_points: usize,
    /// Forced preemption points in the minimized schedule.
    pub minimized_points: usize,
    /// The error the minimized schedule reproduces (same variant as the
    /// target, details may differ).
    pub error: RunError,
    /// Replay attempts spent.
    pub attempts: usize,
}

/// Delta-debugs (ddmin) `schedule` down to a locally minimal decision
/// list whose relaxed replay still fails with the same [`RunError`]
/// *variant* as `target` (payloads such as the exact wait-graph may
/// differ). Returns `None` if the input schedule does not reproduce the
/// failure class in the first place.
///
/// Relaxed replay makes arbitrary sub-schedules meaningful: decisions
/// naming non-runnable threads are skipped, and once the schedule is
/// exhausted the scheduler falls back to non-preemptive round-robin —
/// so dropping a chunk of decisions asks "does the failure still happen
/// without these forced preemptions?", which is exactly the ddmin test.
pub fn shrink_failing_schedule(
    program: &Program,
    base: &RunConfig,
    schedule: &Schedule,
    target: &RunError,
) -> Option<ShrinkOutcome> {
    let attempts = std::cell::Cell::new(0usize);
    let reproduce = |decisions: &[SchedDecision]| -> Option<RunError> {
        attempts.set(attempts.get() + 1);
        let candidate = Arc::new(Schedule {
            quantum: schedule.quantum,
            decisions: decisions.to_vec(),
        });
        let config = RunConfig {
            policy: SchedPolicy::Replay { relaxed: true },
            replay: Some(candidate),
            record_sched: false,
            ..base.clone()
        };
        let err = match Vm::new(program, config) {
            Ok(mut vm) => vm.run(&mut NullTool).err()?,
            Err(e) => e,
        };
        (std::mem::discriminant(&err) == std::mem::discriminant(target)).then_some(err)
    };

    let mut current = schedule.decisions.clone();
    let mut error = reproduce(&current)?;

    // Classic ddmin over the decision list: try dropping ever-finer
    // chunks; keep any complement that still reproduces.
    let mut n = 2usize;
    while current.len() >= 2 && attempts.get() < MAX_SHRINK_ATTEMPTS {
        let chunk = current.len().div_ceil(n);
        let mut reduced = None;
        for i in 0..n {
            let lo = i * chunk;
            if lo >= current.len() {
                break;
            }
            let hi = ((i + 1) * chunk).min(current.len());
            let complement: Vec<SchedDecision> = current[..lo]
                .iter()
                .chain(&current[hi..])
                .copied()
                .collect();
            if let Some(err) = reproduce(&complement) {
                reduced = Some((complement, err));
                break;
            }
            if attempts.get() >= MAX_SHRINK_ATTEMPTS {
                break;
            }
        }
        if let Some((complement, err)) = reduced {
            current = complement;
            error = err;
            n = 2.max(n - 1);
        } else {
            if n >= current.len() {
                break;
            }
            n = (n * 2).min(current.len());
        }
    }

    let minimized = Schedule {
        quantum: schedule.quantum,
        decisions: current,
    };
    Some(ShrinkOutcome {
        original_points: schedule.preemption_points(),
        minimized_points: minimized.preemption_points(),
        minimized,
        error,
        attempts: attempts.get(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms_workloads::patterns;

    #[test]
    fn every_policy_is_deterministic_under_a_fixed_seed() {
        let w = patterns::producer_consumer(8);
        for policy in [
            SchedPolicy::RoundRobin,
            SchedPolicy::Random { seed: 11 },
            SchedPolicy::Chaos { seed: 11 },
        ] {
            let config = RunConfig {
                policy,
                ..w.run_config()
            };
            let a = record_run(&w.program, &config).unwrap();
            let b = record_run(&w.program, &config).unwrap();
            assert_eq!(a.events, b.events, "{policy:?}: event streams differ");
            assert_eq!(
                a.report_text, b.report_text,
                "{policy:?}: drms reports differ"
            );
            assert_eq!(a.schedule, b.schedule, "{policy:?}: schedules differ");
            assert_eq!(a.report_fingerprint(), b.report_fingerprint());
            assert_eq!(a.events_fingerprint(), b.events_fingerprint());
        }
    }

    #[test]
    fn replaying_a_chaos_recording_reproduces_the_run_byte_for_byte() {
        let w = patterns::producer_consumer(10);
        for seed in [1u64, 7, 42] {
            let config = RunConfig {
                policy: SchedPolicy::Chaos { seed },
                ..w.run_config()
            };
            let check = check_replay_determinism(&w.program, &config).unwrap();
            assert!(
                check.events_identical(),
                "seed {seed}: event streams differ"
            );
            assert!(check.reports_identical(), "seed {seed}: reports differ");
            assert!(check.outcomes_match(), "seed {seed}: outcomes differ");
            assert!(check.holds());
        }
    }

    #[test]
    fn strict_replay_reproduces_a_deadlocking_chaos_run() {
        let w = patterns::lock_order_inversion(6);
        let seed = (0..64)
            .find(|&seed| {
                let config = RunConfig {
                    policy: SchedPolicy::Chaos { seed },
                    ..w.run_config()
                };
                record_run(&w.program, &config)
                    .unwrap()
                    .outcome
                    .error
                    .is_some()
            })
            .expect("some chaos seed deadlocks the lock-order inversion");
        let config = RunConfig {
            policy: SchedPolicy::Chaos { seed },
            ..w.run_config()
        };
        let check = check_replay_determinism(&w.program, &config).unwrap();
        assert!(matches!(
            check.recorded.outcome.error,
            Some(RunError::Deadlock { .. })
        ));
        assert!(check.holds(), "a failing run must replay exactly too");
        for run in [&check.recorded, &check.replayed] {
            assert_eq!(run.outcome.metrics.counter("run.aborts"), 1);
        }
    }

    #[test]
    fn chaos_scan_collects_failures_and_variance() {
        let w = patterns::lock_order_inversion(6);
        let seeds: Vec<u64> = (0..16).collect();
        let scan = chaos_scan(&w.program, &w.run_config(), &seeds).unwrap();
        assert_eq!(scan.runs.len(), seeds.len());
        assert!(scan.failures().count() >= 1, "no seed found the deadlock");
        assert!(scan.completed() >= 1, "every seed deadlocked");
        assert_eq!(scan.variance.runs, scan.completed());
        for f in scan.failures() {
            assert!(
                !f.schedule.is_empty(),
                "failures ship a replayable schedule"
            );
            assert_eq!(
                f.outcome.metrics.counter("run.aborts"),
                1,
                "seed {}: the abort is counted",
                f.seed
            );
        }
    }

    #[test]
    fn shrinker_reduces_a_deadlock_schedule_to_fewer_preemption_points() {
        let w = patterns::lock_order_inversion(6);
        let seeds: Vec<u64> = (0..64).collect();
        let scan = chaos_scan(&w.program, &w.run_config(), &seeds).unwrap();
        let failing = scan
            .failures()
            .max_by_key(|r| r.schedule.preemption_points())
            .expect("some chaos seed deadlocks");
        let target = failing.outcome.error.clone().expect("failure has an error");
        let shrink =
            shrink_failing_schedule(&w.program, &w.run_config(), &failing.schedule, &target)
                .expect("the recorded schedule reproduces its own failure");
        assert!(
            matches!(shrink.error, RunError::Deadlock { .. }),
            "minimized schedule fails with the same variant: {:?}",
            shrink.error
        );
        assert!(
            shrink.minimized_points < shrink.original_points,
            "shrinker must strictly reduce preemption points ({} -> {})",
            shrink.original_points,
            shrink.minimized_points
        );
        assert!(shrink.minimized.len() <= failing.schedule.len());
        assert!(shrink.attempts >= 1);
    }

    #[test]
    fn shrinker_rejects_a_schedule_that_does_not_reproduce() {
        let w = patterns::producer_consumer(4);
        // A healthy run's schedule cannot reproduce a deadlock.
        let recorded = record_run(&w.program, &w.run_config()).unwrap();
        assert!(recorded.outcome.error.is_none());
        let target = RunError::Deadlock {
            blocked: Vec::new(),
        };
        assert!(
            shrink_failing_schedule(&w.program, &w.run_config(), &recorded.schedule, &target)
                .is_none()
        );
    }
}
