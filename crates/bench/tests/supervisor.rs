//! Integration tests for the crash-safe sweep supervisor: panic
//! isolation, deterministic retry/backoff, quarantine accounting, and
//! the journal's kill-anywhere resume guarantee.

use drms::trace::HostIo;
use drms_bench::supervisor::{
    profile_cell, resume_sweep, run_supervised_with, Attempt, CellCtx, JournalWriter, ResumeReport,
    Runner, SupervisedRun, SupervisorOptions,
};
use drms_bench::sweep::{FamilyBench, SweepBench, SweepResult, SweepSpec};
use std::path::{Path, PathBuf};

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("drms-supervisor-{name}-{}", std::process::id()))
}

fn fast_opts() -> SupervisorOptions {
    SupervisorOptions {
        backoff_base_ms: 0,
        ..SupervisorOptions::default()
    }
}

/// Resumes `spec` from the journal at `path` without a preempt signal,
/// so the run must complete.
fn resume(
    spec: &SweepSpec,
    opts: &SupervisorOptions,
    path: &Path,
    runner: &Runner<'_>,
) -> Result<(SweepResult, ResumeReport), drms::Error> {
    match resume_sweep(spec, opts, path, runner, None)? {
        (SupervisedRun::Completed(result), report) => Ok((*result, report)),
        (yielded, _) => panic!("a resume without a preempt signal yielded: {yielded:?}"),
    }
}

/// A deliberately panicking cell no longer takes the sweep down (the
/// old collection path shared a mutex that one panic poisoned for the
/// whole grid). The poisoned cell is retried, quarantined, and every
/// other cell completes — identically for any worker count.
#[test]
fn panicking_cell_is_isolated_and_quarantined() {
    let spec = SweepSpec::new("stream", &[4, 8, 12], 4).seeds(&[1]);
    let runner = |ctx: &CellCtx| -> Attempt {
        if ctx.size == 8 {
            panic!("injected panic for size {}", ctx.size);
        }
        profile_cell(ctx)
    };
    let run = |jobs: usize| {
        let spec = SweepSpec {
            jobs,
            ..spec.clone()
        };
        run_supervised_with(&spec, &fast_opts(), None, &runner)
    };
    let (serial, parallel) = (run(1), run(4));
    for result in [&serial, &parallel] {
        assert_eq!(result.cells.len(), 2, "the healthy cells completed");
        assert_eq!(result.quarantined.len(), 1);
        let q = &result.quarantined[0];
        assert_eq!((q.size, q.seed), (8, 1));
        assert_eq!(q.attempts, 3, "transient failures retry to exhaustion");
        assert_eq!(q.panics, 3, "every attempt panicked");
        assert!(q.error.contains("injected panic"), "{}", q.error);
        let m = result.merged_metrics();
        assert_eq!(m.audit(), Ok(()), "{:?}", m.audit());
        assert_eq!(m.counter("sweep.panics"), 3);
        assert_eq!(m.counter("sweep.quarantined"), 1);
    }
    assert_eq!(
        serial.merged_report_text(),
        parallel.merged_report_text(),
        "quarantine placement is jobs-invariant"
    );
    assert_eq!(
        serial.merged_metrics().to_json(),
        parallel.merged_metrics().to_json()
    );
}

/// A flaky cell that succeeds on its second attempt completes with the
/// retry recorded — and the attempt counts are identical no matter how
/// many workers raced over the grid.
#[test]
fn flaky_cell_retries_deterministically_across_jobs() {
    let spec = SweepSpec::new("stream", &[4, 8], 1).seeds(&[1, 2]);
    // Deterministic flakiness: cells with odd seed fail their first
    // attempt (a function of cell identity and attempt only, never of
    // wall clock or thread timing).
    let runner = |ctx: &CellCtx| -> Attempt {
        if ctx.seed % 2 == 1 && ctx.attempt == 1 {
            return Attempt::Transient("injected transient failure".to_string());
        }
        profile_cell(ctx)
    };
    let run = |jobs: usize| {
        let spec = SweepSpec {
            jobs,
            ..spec.clone()
        };
        run_supervised_with(&spec, &fast_opts(), None, &runner)
    };
    let (serial, parallel) = (run(1), run(4));
    for result in [&serial, &parallel] {
        assert_eq!(result.cells.len(), 4);
        assert!(result.quarantined.is_empty());
        for cell in &result.cells {
            let expected = if cell.seed % 2 == 1 { 2 } else { 1 };
            assert_eq!(
                cell.attempts, expected,
                "size {} seed {}",
                cell.size, cell.seed
            );
        }
        let m = result.merged_metrics();
        assert_eq!(m.audit(), Ok(()), "{:?}", m.audit());
        assert_eq!(m.counter("sweep.attempts"), 6);
        assert_eq!(m.counter("sweep.completed"), 4);
        assert_eq!(m.counter("sweep.retries"), 2);
    }
    assert_eq!(
        serial.merged_metrics().to_json(),
        parallel.merged_metrics().to_json(),
        "attempt accounting must not depend on worker count"
    );
}

/// An instruction budget plus an injected fault plan — the production
/// failure path — quarantines deterministically: the same spec renders
/// the identical v2 bench JSON and merged metrics for any `--jobs`.
#[test]
fn budget_and_faults_quarantine_identically_for_any_jobs() {
    let opts = SupervisorOptions {
        max_attempts: 2,
        backoff_base_ms: 0,
        // Tight enough that larger sizes exhaust the watchdog, small
        // ones complete: a mixed completed/quarantined grid.
        max_instructions: Some(500),
        ..SupervisorOptions::default()
    };
    let run = |jobs: usize| {
        let spec = SweepSpec::new("producer-consumer", &[2, 64], jobs).seeds(&[1, 2]);
        run_supervised_with(&spec, &opts, None, &profile_cell)
    };
    let (serial, parallel) = (run(1), run(4));
    assert!(
        !serial.quarantined.is_empty(),
        "the tight budget quarantined the large cells"
    );
    assert!(
        !serial.cells.is_empty(),
        "the small cells fit the budget and completed"
    );
    for q in &serial.quarantined {
        assert_eq!(
            q.attempts, 2,
            "budget exhaustion is transient: retried once"
        );
        assert!(q.error.contains("instruction"), "{}", q.error);
    }
    let bench_of = |result: drms_bench::sweep::SweepResult, jobs| SweepBench {
        jobs,
        resumed: false,
        families: vec![FamilyBench::from_resumed(result)],
    };
    assert_eq!(
        bench_of(serial.clone(), 1).to_json(),
        bench_of(parallel.clone(), 4).to_json(),
        "v2 bench JSON is byte-identical across worker counts"
    );
    assert_eq!(
        serial.merged_metrics().to_json(),
        parallel.merged_metrics().to_json()
    );
    assert_eq!(serial.merged_metrics().audit(), Ok(()));
}

/// A wall-clock deadline of zero quarantines every cell — and the sweep
/// still returns normally with clean accounting.
#[test]
fn zero_deadline_quarantines_the_grid() {
    let opts = SupervisorOptions {
        max_attempts: 2,
        backoff_base_ms: 0,
        deadline: Some(std::time::Duration::ZERO),
        ..SupervisorOptions::default()
    };
    let spec = SweepSpec::new("stream", &[4, 8], 2).seeds(&[1]);
    let result = run_supervised_with(&spec, &opts, None, &profile_cell);
    assert!(result.cells.is_empty());
    assert_eq!(result.quarantined.len(), 2);
    for q in &result.quarantined {
        assert!(q.error.contains("deadline"), "{}", q.error);
    }
    assert_eq!(result.merged_metrics().audit(), Ok(()));
}

/// Resuming a complete journal re-runs nothing and reproduces the
/// original result byte-for-byte.
#[test]
fn resume_of_a_complete_journal_is_a_pure_replay() {
    let path = temp_path("complete");
    let spec = SweepSpec::new("stream", &[4, 8], 1).seeds(&[1]);
    let opts = fast_opts();
    let mut writer = JournalWriter::create_with(&HostIo::real(), &path).unwrap();
    let baseline = run_supervised_with(&spec, &opts, Some(&mut writer), &profile_cell);
    let panicking_runner = |_: &CellCtx| -> Attempt {
        panic!("resume must not re-run any cell of a complete journal");
    };
    let (resumed, report) = resume(&spec, &opts, &path, &panicking_runner).unwrap();
    assert_eq!(report.salvaged_cells, 2);
    assert_eq!(report.rerun_cells, 0);
    assert_eq!(resumed.merged_report_text(), baseline.merged_report_text());
    assert_eq!(
        resumed.merged_metrics().to_json(),
        baseline.merged_metrics().to_json()
    );
    assert_eq!(
        report.metrics.audit(),
        Ok(()),
        "{:?}",
        report.metrics.audit()
    );
    let _ = std::fs::remove_file(&path);
}

/// The crash-anywhere property: truncate the journal at every sampled
/// byte offset, resume, and the merged report and metrics must come out
/// byte-identical to the uninterrupted `--jobs 1` run. A torn tail may
/// cost re-runs, never correctness.
#[test]
fn truncated_journal_resumes_to_identical_results() {
    let path = temp_path("truncate-base");
    let spec = SweepSpec::new("stream", &[4, 8], 1).seeds(&[1]);
    let opts = fast_opts();
    let mut writer = JournalWriter::create_with(&HostIo::real(), &path).unwrap();
    let baseline = run_supervised_with(&spec, &opts, Some(&mut writer), &profile_cell);
    let baseline_report = baseline.merged_report_text();
    let baseline_metrics = baseline.merged_metrics().to_json();
    let journal = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    // Sample points: every record-header boundary +/- 1 byte, plus a
    // fixed stride through the interior (payload middles, checksum
    // bytes, separators).
    let mut cuts = vec![0usize, journal.len().saturating_sub(1)];
    let text = String::from_utf8_lossy(&journal);
    let mut offset = 0usize;
    for line in text.split_inclusive('\n') {
        if line.starts_with("@rec ") || line.starts_with("@end ") {
            cuts.extend([offset.saturating_sub(1), offset, offset + 1]);
        }
        offset += line.len();
    }
    cuts.extend((0..journal.len()).step_by(97));
    cuts.retain(|&c| c <= journal.len());
    cuts.sort_unstable();
    cuts.dedup();

    for (i, &cut) in cuts.iter().enumerate() {
        let path = temp_path(&format!("truncate-{i}"));
        std::fs::write(&path, &journal[..cut]).unwrap();
        let (resumed, report) = resume(&spec, &opts, &path, &profile_cell)
            .unwrap_or_else(|e| panic!("cut at byte {cut}: {e}"));
        assert_eq!(
            resumed.merged_report_text(),
            baseline_report,
            "cut at byte {cut}: merged report diverged"
        );
        assert_eq!(
            resumed.merged_metrics().to_json(),
            baseline_metrics,
            "cut at byte {cut}: merged metrics diverged"
        );
        assert_eq!(
            report.salvaged_cells + report.rerun_cells,
            2,
            "cut at byte {cut}: grid accounting"
        );
        let _ = std::fs::remove_file(&path);
    }
}

/// Quarantined cells recorded in the journal get a fresh chance on
/// resume; if they succeed this time the final result is
/// indistinguishable from a run that never failed.
#[test]
fn resume_retries_journaled_quarantines() {
    let path = temp_path("requarantine");
    let spec = SweepSpec::new("stream", &[4, 8], 1).seeds(&[1]);
    let opts = SupervisorOptions {
        max_attempts: 1,
        backoff_base_ms: 0,
        ..SupervisorOptions::default()
    };
    let flaky = |ctx: &CellCtx| -> Attempt {
        if ctx.size == 8 {
            return Attempt::Transient("flaky environment".to_string());
        }
        profile_cell(ctx)
    };
    let mut writer = JournalWriter::create_with(&HostIo::real(), &path).unwrap();
    let crashed = run_supervised_with(&spec, &opts, Some(&mut writer), &flaky);
    drop(writer);
    assert_eq!(crashed.quarantined.len(), 1);
    let (resumed, report) = resume(&spec, &opts, &path, &profile_cell).unwrap();
    assert!(resumed.quarantined.is_empty(), "the flake healed on resume");
    assert_eq!(resumed.cells.len(), 2);
    assert_eq!(report.salvaged_cells, 1);
    assert_eq!(report.rerun_cells, 1);
    assert_eq!(report.metrics.counter("journal.cells_requarantined"), 1);
    let healthy = run_supervised_with(&spec, &opts, None, &profile_cell);
    assert_eq!(resumed.merged_report_text(), healthy.merged_report_text());
    let _ = std::fs::remove_file(&path);
}

/// Resuming under a different grid or failure policy than the journal
/// records is an error, not a silent mix of semantics.
#[test]
fn resume_rejects_a_mismatched_spec() {
    let path = temp_path("mismatch");
    let spec = SweepSpec::new("stream", &[4], 1).seeds(&[1]);
    let opts = fast_opts();
    let mut writer = JournalWriter::create_with(&HostIo::real(), &path).unwrap();
    let _ = run_supervised_with(&spec, &opts, Some(&mut writer), &profile_cell);
    drop(writer);
    let other_grid = SweepSpec::new("stream", &[4, 8], 1).seeds(&[1]);
    let err = resume(&other_grid, &opts, &path, &profile_cell).unwrap_err();
    assert!(matches!(err, drms::Error::Journal(_)), "{err:?}");
    let other_policy = SupervisorOptions {
        max_attempts: 7,
        ..fast_opts()
    };
    let err = resume(&spec, &other_policy, &path, &profile_cell).unwrap_err();
    assert!(matches!(err, drms::Error::Journal(_)), "{err:?}");
    // A different jobs count is NOT a mismatch: resume may use any
    // worker count and still reproduce the bytes.
    let more_jobs = SweepSpec {
        jobs: 8,
        ..spec.clone()
    };
    assert!(resume(&more_jobs, &opts, &path, &profile_cell).is_ok());
    let _ = std::fs::remove_file(&path);
}

/// One journal carries a multi-family sweep: a family the crash never
/// reached has no spec record and simply starts fresh on resume.
#[test]
fn resume_runs_unstarted_families_from_scratch() {
    let path = temp_path("unstarted");
    let started = SweepSpec::new("stream", &[4], 1).seeds(&[1]);
    let unstarted = SweepSpec::new("producer-consumer", &[4], 1).seeds(&[1]);
    let opts = fast_opts();
    let mut writer = JournalWriter::create_with(&HostIo::real(), &path).unwrap();
    let _ = run_supervised_with(&started, &opts, Some(&mut writer), &profile_cell);
    drop(writer);
    let (result, report) = resume(&unstarted, &opts, &path, &profile_cell).unwrap();
    assert_eq!(result.cells.len(), 1);
    assert_eq!(report.salvaged_cells, 0);
    assert_eq!(report.rerun_cells, 1);
    // And now both families are journaled: either resumes as a replay.
    let (_, report) = resume(&unstarted, &opts, &path, &profile_cell).unwrap();
    assert_eq!(report.salvaged_cells, 1);
    let (_, report) = resume(&started, &opts, &path, &profile_cell).unwrap();
    assert_eq!(report.salvaged_cells, 1);
    let _ = std::fs::remove_file(&path);
}

/// A resumed writer must never append behind a torn tail: resume
/// rewrites the journal to its salvaged prefix before appending, so the
/// file stays strictly parsable and a *second* crash + resume cannot
/// lose the records the first resume appended to the damage.
#[test]
fn resume_heals_torn_journals_before_appending() {
    let spec = SweepSpec::new("stream", &[4, 8], 1).seeds(&[1]);
    let opts = fast_opts();
    let base = temp_path("heal-base");
    let mut writer = JournalWriter::create_with(&HostIo::real(), &base).unwrap();
    let baseline = run_supervised_with(&spec, &opts, Some(&mut writer), &profile_cell);
    let baseline_report = baseline.merged_report_text();
    let bytes = std::fs::read(&base).unwrap();
    let _ = std::fs::remove_file(&base);

    // First crash: tear mid-way through the last record's trailer.
    let path = temp_path("heal");
    std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
    let (first, report) = resume(&spec, &opts, &path, &profile_cell).unwrap();
    assert_eq!(first.merged_report_text(), baseline_report);
    assert_eq!(report.metrics.counter("journal.rewritten"), 1);
    let healed = std::fs::read_to_string(&path).unwrap();
    drms::trace::journal::from_text(&healed)
        .expect("resume leaves a strictly-parsable journal behind");

    // Second crash on the healed file: resume again; byte-identical
    // output and a clean journal, every time.
    std::fs::write(&path, &healed[..healed.len() - 7]).unwrap();
    let (second, _) = resume(&spec, &opts, &path, &profile_cell).unwrap();
    assert_eq!(second.merged_report_text(), baseline_report);
    drms::trace::journal::from_text(&std::fs::read_to_string(&path).unwrap())
        .expect("second resume also leaves a clean journal");
    let _ = std::fs::remove_file(&path);
}

/// One non-UTF-8 byte after a finished journal is a torn tail like any
/// other: the resume salvages every cell, rewrites the tail away, and
/// reproduces the uninterrupted artifact byte for byte.
#[test]
fn a_non_utf8_byte_tears_the_journal_instead_of_failing_the_resume() {
    let spec = SweepSpec::new("stream", &[4, 8], 1).seeds(&[1]);
    let opts = fast_opts();
    let path = temp_path("non-utf8");
    let mut writer = JournalWriter::create_with(&HostIo::real(), &path).unwrap();
    let baseline = run_supervised_with(&spec, &opts, Some(&mut writer), &profile_cell);
    drop(writer);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.push(0xFF);
    std::fs::write(&path, &bytes).unwrap();

    let (resumed, report) = resume(&spec, &opts, &path, &profile_cell).unwrap();
    assert_eq!(report.salvaged_cells, 2);
    assert_eq!(report.rerun_cells, 0);
    assert_eq!(report.metrics.counter("journal.rewritten"), 1);
    let bench = |result| {
        SweepBench {
            jobs: 1,
            resumed: false,
            families: vec![FamilyBench::from_resumed(result)],
        }
        .to_json()
    };
    assert_eq!(bench(resumed), bench(baseline));
    drms::trace::journal::from_text(&std::fs::read_to_string(&path).unwrap())
        .expect("the resume rewrote the invalid byte away");
    let _ = std::fs::remove_file(&path);
}

/// A cell record in an older payload layout, one that still carried the
/// run counters outside the metrics section, does not decode: resume
/// warns and re-runs the cell, exactly as it does a torn one.
#[test]
fn cell_payloads_in_an_older_layout_are_re_run() {
    let spec = SweepSpec::new("stream", &[4, 8], 1).seeds(&[1]);
    let opts = fast_opts();
    let path = temp_path("older-layout");
    let mut writer = JournalWriter::create_with(&HostIo::real(), &path).unwrap();
    let baseline = run_supervised_with(&spec, &opts, Some(&mut writer), &profile_cell);
    drop(writer);
    let text = std::fs::read_to_string(&path).unwrap();
    let mut records = drms::trace::journal::from_text(&text).unwrap();
    for rec in records.iter_mut().filter(|r| r.meta.ends_with(" ok")) {
        rec.payload = rec
            .payload
            .replacen("\nattempts ", "\nshadow_bytes 0\nattempts ", 1);
    }
    std::fs::write(&path, drms::trace::journal::to_text(&records)).unwrap();

    let (resumed, report) = resume(&spec, &opts, &path, &profile_cell).unwrap();
    assert_eq!(report.rerun_cells, 2);
    let unusable = report
        .warnings
        .iter()
        .filter(|w| w.contains("payload unusable"));
    assert_eq!(unusable.count(), 2, "{:?}", report.warnings);
    assert_eq!(resumed.merged_report_text(), baseline.merged_report_text());
    let _ = std::fs::remove_file(&path);
}
