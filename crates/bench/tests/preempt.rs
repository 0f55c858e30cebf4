//! Preempt-at-every-cell chaos suite: a supervised sweep is forced to
//! yield after *each* grid-cell boundary in turn, re-dispatched through
//! the resume path, and its merged artifacts compared byte-for-byte
//! against an uninterrupted run. If preemption at any boundary changed
//! a single byte, the daemon's priority scheduling would silently
//! corrupt results — this suite is the proof it cannot.

use drms::trace::HostIo;
use drms_bench::supervisor::{
    profile_cell, resume_sweep, run_supervised_with, Attempt, CellCtx, JournalWriter,
    PreemptSignal, SupervisedRun, SupervisorOptions,
};
use drms_bench::sweep::{FamilyBench, SweepBench, SweepSpec};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("drms-preempt-{name}-{}", std::process::id()))
}

fn opts() -> SupervisorOptions {
    SupervisorOptions {
        backoff_base_ms: 0,
        ..SupervisorOptions::default()
    }
}

/// A fresh, header-only journal at `path` — what the daemon creates
/// before a job's first dispatch.
fn fresh_journal(path: &Path) {
    let _ = std::fs::remove_file(path);
    JournalWriter::create_with(&HostIo::real(), path).expect("journal");
}

/// The three artifact surfaces a job publishes, rendered exactly the
/// way the daemon renders them.
fn artifacts(result: drms_bench::sweep::SweepResult) -> (String, String, String) {
    let report = result.merged_report_text();
    let metrics = result.merged_metrics().to_json();
    let bench = SweepBench {
        jobs: 1,
        resumed: false,
        families: vec![FamilyBench::from_resumed(result)],
    }
    .to_json();
    (bench, report, metrics)
}

#[test]
fn preemption_at_every_cell_boundary_resumes_byte_identically() {
    let spec = SweepSpec::new("stream", &[4, 6, 8], 1).seeds(&[1, 2]);
    let cells = spec.grid().len();
    assert_eq!(cells, 6, "the grid this suite sweeps");

    // The artifact set every interrupted run must reproduce.
    let baseline_journal = temp_path("baseline");
    let _ = std::fs::remove_file(&baseline_journal);
    let mut writer =
        JournalWriter::create_with(&HostIo::real(), &baseline_journal).expect("journal");
    let baseline = artifacts(run_supervised_with(
        &spec,
        &opts(),
        Some(&mut writer),
        &profile_cell,
    ));
    let _ = std::fs::remove_file(&baseline_journal);

    for k in 1..cells {
        let journal = temp_path(&format!("cell-{k}"));
        fresh_journal(&journal);

        // Raise the signal the moment the k-th cell completes: the
        // supervisor must stop at that boundary, not one cell later.
        let signal = PreemptSignal::new();
        let done = AtomicUsize::new(0);
        let counting = {
            let signal = signal.clone();
            let done = &done;
            move |ctx: &CellCtx| -> Attempt {
                let attempt = profile_cell(ctx);
                if done.fetch_add(1, Ordering::SeqCst) + 1 == k {
                    signal.raise();
                }
                attempt
            }
        };
        let (run, _) =
            resume_sweep(&spec, &opts(), &journal, &counting, Some(&signal)).expect("dispatch");
        match run {
            SupervisedRun::Yielded {
                cells_done,
                cells_total,
            } => {
                assert_eq!(cells_done, k, "yield happened at the signaled boundary");
                assert_eq!(cells_total, cells);
            }
            SupervisedRun::Completed(_) => {
                panic!("preempting after cell {k} of {cells} must yield, not complete")
            }
        }

        // Re-dispatch: the journal is the checkpoint, the resume path
        // is exactly what the daemon runs, and the merged artifacts
        // must match the uninterrupted run byte for byte.
        let (run, report) =
            resume_sweep(&spec, &opts(), &journal, &profile_cell, None).expect("resume");
        let SupervisedRun::Completed(result) = run else {
            panic!("a resume without a preempt signal must complete: {run:?}");
        };
        assert_eq!(
            report.salvaged_cells, k,
            "every journaled cell is adopted, none re-run"
        );
        assert_eq!(report.rerun_cells, cells - k);
        let resumed = artifacts(*result);
        assert_eq!(
            resumed.0, baseline.0,
            "bench artifact diverged after preempting at cell {k}"
        );
        assert_eq!(
            resumed.1, baseline.1,
            "report diverged after preempting at cell {k}"
        );
        assert_eq!(
            resumed.2, baseline.2,
            "metrics diverged after preempting at cell {k}"
        );
        let _ = std::fs::remove_file(&journal);
    }
}

/// Preemptions stack: yield after one cell, resume-and-yield again one
/// cell later, and keep going — every dispatch makes forward progress
/// (the signal is checked at the claim, after at least the first cell
/// of the dispatch ran), and the final assembly is still byte-identical.
#[test]
fn stacked_preemptions_still_assemble_byte_identical_artifacts() {
    let spec = SweepSpec::new("stream", &[4, 6, 8], 1).seeds(&[1]);
    let cells = spec.grid().len();

    let baseline = artifacts(run_supervised_with(&spec, &opts(), None, &profile_cell));

    let journal = temp_path("stacked");
    fresh_journal(&journal);

    // First dispatch: yield after the very first cell.
    let signal = PreemptSignal::new();
    let first_cell_then_yield = {
        let signal = signal.clone();
        move |ctx: &CellCtx| -> Attempt {
            let attempt = profile_cell(ctx);
            signal.raise();
            attempt
        }
    };
    let (run, _) = resume_sweep(
        &spec,
        &opts(),
        &journal,
        &first_cell_then_yield,
        Some(&signal),
    )
    .expect("first dispatch");
    assert!(
        matches!(run, SupervisedRun::Yielded { cells_done: 1, .. }),
        "{run:?}"
    );

    // Each further dispatch resumes, completes one more cell, yields
    // again — until only the final dispatch can complete the grid.
    for dispatched in 1..cells {
        signal.clear();
        let inner = PreemptSignal::new();
        let one_more = {
            let inner = inner.clone();
            move |ctx: &CellCtx| -> Attempt {
                let attempt = profile_cell(ctx);
                inner.raise();
                attempt
            }
        };
        let (run, _report) =
            resume_sweep(&spec, &opts(), &journal, &one_more, Some(&inner)).expect("resume");
        match run {
            SupervisedRun::Yielded { cells_done, .. } => {
                assert_eq!(
                    cells_done,
                    dispatched + 1,
                    "each dispatch makes exactly one cell of progress here"
                );
            }
            SupervisedRun::Completed(result) => {
                assert_eq!(
                    dispatched + 1,
                    cells,
                    "completion only once every cell is journaled"
                );
                let resumed = artifacts(*result);
                assert_eq!(resumed, baseline, "stacked preemptions changed the bytes");
                let _ = std::fs::remove_file(&journal);
                return;
            }
        }
    }
    panic!("the sweep never completed");
}
