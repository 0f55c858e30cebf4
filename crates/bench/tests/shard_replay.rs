//! Differential suite for the out-of-core trace pipeline: for every
//! workload family, an in-memory profiling run and a spill-to-disk run
//! replayed offline must be **byte-identical** — same report text, same
//! drms curves, same profiler counters.
//!
//! This is also the [`SuppressCache`] retarget audit: the live VM
//! delivers events with explicit thread switches and the replay driver
//! delivers the recorded frames in the same global order, so the
//! direct-mapped suppression cache must see the identical
//! lookup/hit/flush sequence — checked here through the
//! `drms.suppress.*` counters, which would diverge on any delivery-
//! order difference.
//!
//! Each family's shard set is also replayed into the naive Fig. 7
//! set-based profiler, the slow oracle: its drms and rms profiles must
//! match the fast profiler's for every routine and thread.
//!
//! [`SuppressCache`]: drms::core::DrmsProfiler

use drms::core::{report_io, DrmsConfig, DrmsProfiler, NaiveProfiler, ProfileReport};
use drms::prelude::*;
use drms::vm::DecodeMode;
use drms_bench::sweep::{family_workload, FAMILIES};
use std::path::{Path, PathBuf};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("drms-shard-replay-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The family's sweep-cell size for this suite: small enough to keep
/// the matrix fast, big enough that every family streams batches
/// through multiple spill flushes.
fn family_size(family: &str) -> i64 {
    match family {
        "imgpipe" => 6,
        "sort" => 10,
        _ => 24,
    }
}

/// Live in-memory run vs spill-then-offline-replay, for one family.
/// Returns (live report text, replayed report text, live metrics,
/// replay metrics).
fn run_family(family: &str) -> (String, String, Metrics, Metrics) {
    let w = family_workload(family, family_size(family)).expect("known family");
    let mut config = w.run_config();
    config.decode = DecodeMode::Fused;
    config.event_batch = 16;

    // In-memory reference run.
    let live = ProfileSession::new(&w.program)
        .config(config.clone())
        .run()
        .expect("live run");
    assert!(live.error.is_none(), "suite families run to completion");

    // Spill run: identical configuration plus a shard directory with a
    // small threshold, so every family crosses flush boundaries.
    let dir = scratch(family);
    let spill = ProfileSession::new(&w.program)
        .config(config)
        .trace_dir(&dir)
        .spill_threshold(256)
        .run()
        .expect("spill run");
    let live_text = report_io::to_text(&live.report);
    assert_eq!(
        live_text,
        report_io::to_text(&spill.report),
        "{family}: attaching the shard recorder must not perturb the profile"
    );

    // Offline replay through a fresh profiler.
    let set = ShardSet::load(&dir, 2).expect("load shards");
    assert_eq!(set.dropped, 0, "{family}: clean spill drops nothing");
    let mut profiler = DrmsProfiler::new(DrmsConfig::full());
    replay_shards_into(&set, &mut profiler);
    let mut replay_metrics = Metrics::new();
    profiler.observe_metrics(&mut replay_metrics);
    let replayed = profiler.into_report();
    assert_naive_agrees(family, &set, &replayed);
    let replayed_text = report_io::to_text(&replayed);

    // Focus drms curves, point by point (redundant with the text
    // equality, but this is the curve the paper's figures plot).
    let live_report = report_io::from_text(&live_text).expect("reparse");
    let replay_report = report_io::from_text(&replayed_text).expect("reparse");
    if let Some(focus) = w.focus {
        assert_eq!(
            live_report.merged_routine(focus).drms_plot(),
            replay_report.merged_routine(focus).drms_plot(),
            "{family}: drms curve must survive the disk round trip"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
    (live_text, replayed_text, live.metrics, replay_metrics)
}

/// Replays `set` into the naive Fig. 7 oracle and checks its drms and
/// rms profiles against the fast profiler's `fast` report, routine by
/// routine and thread by thread.
fn assert_naive_agrees(family: &str, set: &ShardSet, fast: &ProfileReport) {
    let mut oracle = NaiveProfiler::new();
    replay_shards_into(set, &mut oracle);
    let naive = oracle.into_report();
    assert_eq!(naive.len(), fast.len(), "{family}: profile count");
    for (&(routine, thread), profile) in fast.iter() {
        let oracle = naive
            .get(routine, thread)
            .unwrap_or_else(|| panic!("{family}: no oracle profile for {routine:?} {thread:?}"));
        assert_eq!(
            oracle.by_drms, profile.by_drms,
            "{family}: drms profile of {routine:?} {thread:?} differs from the naive oracle"
        );
        assert_eq!(
            oracle.by_rms, profile.by_rms,
            "{family}: rms profile of {routine:?} {thread:?} differs from the naive oracle"
        );
    }
}

#[test]
fn every_family_replays_byte_identical_from_shards() {
    for family in FAMILIES {
        let (live_text, replayed_text, live_metrics, replay_metrics) = run_family(family);
        assert_eq!(
            live_text, replayed_text,
            "{family}: offline replay must reproduce the in-memory report byte for byte"
        );
        // The SuppressCache retarget audit: identical delivery order ⇒
        // identical cache behaviour, counter for counter. The live
        // registry holds the VM's counters too, so compare exactly the
        // profiler-owned names.
        for name in [
            "drms.suppress.lookups",
            "drms.suppress.read_hits",
            "drms.suppress.write_hits",
            "drms.suppress.flushes",
        ] {
            assert_eq!(
                live_metrics.counter(name),
                replay_metrics.counter(name),
                "{family}: {name} diverged between live delivery and shard replay"
            );
        }
        replay_metrics
            .audit()
            .expect("replay registry audits clean");
    }
}

/// Replays a shard directory into a fresh full-drms profiler and
/// renders its report, as `repro replay-shards` does.
fn replay_report(dir: &Path) -> String {
    let set = ShardSet::load(dir, 2).expect("load shards");
    assert_eq!(set.dropped, 0);
    let mut profiler = DrmsProfiler::new(DrmsConfig::full());
    replay_shards_into(&set, &mut profiler);
    report_io::to_text(&profiler.into_report())
}

/// Regression: any spelling of a thread index that parses as a `u32`
/// used to load as that thread's shard, so a copy of `shard-1.bin` named
/// `shard-01.bin` or `shard-+1.bin` replayed thread 1's runs twice and
/// the report drifted from the live run's. Only `shard-<tid>.bin` itself
/// loads now.
#[test]
fn look_alike_shard_copies_leave_the_replay_identical_to_the_live_run() {
    let w = family_workload("producer-consumer", 24).expect("known family");
    let live = ProfileSession::new(&w.program)
        .config(w.run_config())
        .run()
        .expect("live run");
    let dir = scratch("look-alike");
    ProfileSession::new(&w.program)
        .config(w.run_config())
        .trace_dir(&dir)
        .run()
        .expect("spill run");
    let live_text = report_io::to_text(&live.report);
    assert_eq!(replay_report(&dir), live_text);
    for copy in ["shard-01.bin", "shard-+1.bin"] {
        std::fs::copy(dir.join("shard-1.bin"), dir.join(copy)).expect("copy shard");
    }
    let set = ShardSet::load(&dir, 2).expect("load shards");
    assert_eq!(set.shards.len(), 2, "the copies are not shards");
    assert_eq!(set.warnings.len(), 2, "{:?}", set.warnings);
    assert_eq!(
        replay_report(&dir),
        live_text,
        "a look-alike shard name must not replay a thread twice"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
