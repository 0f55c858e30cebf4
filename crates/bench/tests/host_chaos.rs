//! Host-fault chaos suite: the property the [`HostIo`] layer exists to
//! prove.
//!
//! A journaled sweep performs a fixed, deterministic sequence of host
//! I/O operations (journal create/append/fsync, artifact temp + fsync +
//! rename + dir-sync). This suite enumerates **every one of those fault
//! points** by running a fault-free baseline under a counting plan,
//! then re-running the sweep once per (operation, index) with a seeded
//! injected fault at exactly that point. The property:
//!
//! > every injected fault either leaves a run that *resumes to
//! > byte-identical artifacts* on clean I/O, or fails with a **typed,
//! > attributable error** and a salvageable journal — never a corrupt
//! > artifact, never a silent loss.

use drms::trace::hostio::{is_injected, HostIo, HostOp};
use drms::trace::journal;
use drms::trace::Metrics;
use drms_bench::artifact::atomic_write_with;
use drms_bench::supervisor::{
    profile_cell, resume_sweep, run_supervised_with, JournalWriter, ResumeReport, SupervisedRun,
    SupervisorOptions,
};
use drms_bench::sweep::{FamilyBench, SweepBench, SweepResult, SweepSpec};
use std::path::{Path, PathBuf};

fn chaos_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("drms-chaos-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("chaos dir");
    dir
}

fn spec() -> SweepSpec {
    SweepSpec::new("stream", &[4, 6], 2).seeds(&[1])
}

/// Assembles the deterministic bench artifact the same way `repro
/// sweep` and `aprofd` do — wall-clock lives in a separate artifact, so
/// this JSON is byte-stable across runs and resumes.
fn bench_json(result: drms_bench::sweep::SweepResult) -> String {
    SweepBench {
        jobs: 2,
        resumed: false,
        families: vec![FamilyBench::from_resumed(result)],
    }
    .to_json()
}

/// One journaled sweep + artifact write through `io`, exactly the
/// production sequence: create the journal, run the grid (checkpointing
/// each cell), atomically write the bench artifact.
fn journaled_run(io: &HostIo, journal_path: &Path, bench_out: &Path) -> std::io::Result<()> {
    let sup = SupervisorOptions::default();
    let mut writer = JournalWriter::create_with(io, journal_path)?;
    let result = run_supervised_with(&spec(), &sup, Some(&mut writer), &profile_cell);
    atomic_write_with(io, bench_out, &bench_json(result))
}

/// Resumes `spec()` from the journal at `journal_path` on clean I/O;
/// without a preempt signal the run must complete.
fn clean_resume(journal_path: &Path) -> Result<(SweepResult, ResumeReport), drms::Error> {
    let sup = SupervisorOptions::default();
    match resume_sweep(&spec(), &sup, journal_path, &profile_cell, None)? {
        (SupervisedRun::Completed(result), report) => Ok((*result, report)),
        (yielded, _) => panic!("a resume without a preempt signal yielded: {yielded:?}"),
    }
}

/// The chaos property, exhaustively: a fault injected at every single
/// host-I/O operation of the run either still converges to the baseline
/// bytes after a clean-I/O resume, or fails typed with the journal's
/// valid prefix intact.
#[test]
fn every_fault_point_resumes_byte_identical_or_fails_typed() {
    // Baseline under a counting plan whose only rule can never fire:
    // same artifact bytes as a real run, plus the per-op totals that
    // enumerate the fault points.
    let base = chaos_dir("baseline");
    let counter = HostIo::from_spec("write:enospc:once=1000000000").expect("counting plan");
    journaled_run(
        &counter,
        &base.join("sweep.journal"),
        &base.join("bench.json"),
    )
    .expect("fault-free baseline");
    assert_eq!(counter.injected(), 0, "the counting plan must not fire");
    let baseline = std::fs::read_to_string(base.join("bench.json")).expect("baseline artifact");

    // Every (op, 1-based index, kind) this run can fault at. Torn
    // writes are a distinct failure shape from ENOSPC, so writes get
    // both.
    let mut points: Vec<(HostOp, u64, &str)> = Vec::new();
    for (op, kinds) in [
        (HostOp::Create, &["enospc"][..]),
        (HostOp::Write, &["enospc", "torn"][..]),
        (HostOp::Fsync, &["eio"][..]),
        (HostOp::Rename, &["eio"][..]),
        (HostOp::SyncDir, &["eio"][..]),
    ] {
        let count = counter.ops(op);
        assert!(count > 0, "baseline never performed {op:?}");
        for at in 1..=count {
            for kind in kinds {
                points.push((op, at, kind));
            }
        }
    }
    assert!(
        points.len() >= 15,
        "the run has a real fault surface, got {} points",
        points.len()
    );

    for (op, at, kind) in points {
        let label = format!("{}:{kind}:once={at}", op.name());
        let dir = chaos_dir(&format!("pt-{}-{kind}-{at}", op.name()));
        let journal_path = dir.join("sweep.journal");
        let bench_out = dir.join("bench.json");
        let io = HostIo::from_spec(&label).expect("fault plan");

        match journaled_run(&io, &journal_path, &bench_out) {
            Ok(()) => {
                // The fault was absorbed (journal appends degrade
                // gracefully): the artifact must already be the
                // baseline bytes.
                let got = std::fs::read_to_string(&bench_out).expect("artifact");
                assert_eq!(
                    got, baseline,
                    "[{label}] absorbed fault corrupted the artifact"
                );
            }
            Err(e) => {
                // Typed failure: attributable to the injection, and the
                // target artifact is never left *corrupt* — either it
                // does not exist yet, or (a dir-sync failure after the
                // rename already landed) it is the complete bytes.
                assert!(is_injected(&e), "[{label}] untyped error: {e}");
                if bench_out.exists() {
                    let got = std::fs::read_to_string(&bench_out).expect("artifact");
                    assert_eq!(
                        got, baseline,
                        "[{label}] failed write left a corrupt artifact"
                    );
                }
            }
        }

        // Recovery on clean I/O: resume from whatever the journal holds
        // (or start over if the fault beat the journal header to disk).
        let recovered = if journal_path.exists() {
            let (result, resume) = clean_resume(&journal_path)
                .unwrap_or_else(|e| panic!("[{label}] clean resume failed: {e}"));
            assert_eq!(
                resume.salvaged_cells + resume.rerun_cells,
                2,
                "[{label}] salvage accounting lost a cell"
            );
            resume
                .metrics
                .audit()
                .unwrap_or_else(|v| panic!("[{label}] salvage audit: {v:?}"));
            bench_json(result)
        } else {
            journaled_run(&HostIo::real(), &journal_path, &bench_out)
                .unwrap_or_else(|e| panic!("[{label}] clean rerun failed: {e}"));
            std::fs::read_to_string(&bench_out).expect("artifact")
        };
        assert_eq!(
            recovered, baseline,
            "[{label}] recovery diverged from baseline"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// Salvage accounting under a short write at **every byte offset** of a
/// journal record: however many bytes of the final record actually hit
/// the disk, `journal.lines.salvaged + journal.lines.dropped ==
/// journal.lines.total` holds, the valid prefix survives intact, and a
/// resume re-runs exactly the lost cell — rewriting the damaged tail
/// (`journal.rewritten`) so later appends extend a clean file.
#[test]
fn short_writes_at_every_offset_of_a_record_salvage_with_audited_counters() {
    let dir = chaos_dir("offsets");
    let journal_path = dir.join("sweep.journal");
    let bench_out = dir.join("bench.json");
    journaled_run(&HostIo::real(), &journal_path, &bench_out).expect("baseline");
    let baseline = std::fs::read_to_string(&bench_out).expect("baseline artifact");
    let full = std::fs::read_to_string(&journal_path).expect("journal");

    // The byte range of the final record: everything before it is the
    // valid prefix a short write can never touch.
    let records = journal::from_text(&full).expect("intact journal parses");
    assert!(records.len() >= 3, "header spec + 2 cells expected");
    let prefix = journal::to_text(&records[..records.len() - 1]);
    assert!(
        full.starts_with(&prefix),
        "to_text is the file's own framing"
    );
    let prefix_cells = records[..records.len() - 1]
        .iter()
        .filter(|r| r.meta.starts_with("cell "))
        .count();

    // Counter law at every offset (cheap: pure salvage, no re-runs).
    for cut in prefix.len()..full.len() {
        let salvaged = journal::from_text_lossy(&full.as_bytes()[..cut]);
        let mut m = Metrics::new();
        salvaged.observe_metrics(&mut m);
        m.audit()
            .unwrap_or_else(|v| panic!("cut at {cut}: salvage audit failed: {v:?}"));
        assert_eq!(
            m.counter("journal.lines.salvaged") + m.counter("journal.lines.dropped"),
            m.counter("journal.lines.total"),
            "cut at {cut}"
        );
        assert_eq!(
            salvaged.value.len(),
            records.len() - 1,
            "cut at {cut}: the valid prefix must survive exactly"
        );
        assert_eq!(
            m.counter("journal.cells_salvaged"),
            salvaged.value.len() as u64
        );
    }

    // Full resume at a bounded sample of offsets (plus both ends of the
    // record): byte-identical artifact, one cell re-run, damaged tail
    // rewritten.
    let span = full.len() - prefix.len();
    let stride = (span / 8).max(1);
    let mut cuts: Vec<usize> = (prefix.len()..full.len()).step_by(stride).collect();
    cuts.push(full.len() - 1);
    for cut in cuts {
        let case = chaos_dir(&format!("offset-{cut}"));
        let torn_path = case.join("sweep.journal");
        std::fs::write(&torn_path, &full[..cut]).expect("torn journal");
        let (result, resume) =
            clean_resume(&torn_path).unwrap_or_else(|e| panic!("cut at {cut}: resume failed: {e}"));
        assert_eq!(resume.salvaged_cells, prefix_cells, "cut at {cut}");
        assert_eq!(
            resume.metrics.counter("journal.cells_rerun"),
            (2 - prefix_cells) as u64,
            "cut at {cut}"
        );
        // A cut exactly on a record boundary is a valid (just shorter)
        // journal — no damage, nothing to rewrite. Any other cut tears
        // the final record and must trigger the rewrite.
        let expect_rewrite = u64::from(cut != prefix.len());
        assert_eq!(
            resume.metrics.counter("journal.rewritten"),
            expect_rewrite,
            "cut at {cut}: a damaged tail must be rewritten before appending"
        );
        assert_eq!(
            bench_json(result),
            baseline,
            "cut at {cut}: artifact diverged"
        );

        // The rewritten + appended journal is clean: a second salvage
        // sees no damage and every cell.
        let healed = std::fs::read_to_string(&torn_path).expect("healed journal");
        let salvaged = journal::from_text_lossy(healed.as_bytes());
        assert!(
            !salvaged.is_damaged(),
            "cut at {cut}: resume left damage behind"
        );
        let _ = std::fs::remove_dir_all(&case);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
