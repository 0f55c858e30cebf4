//! Cross-crate integration tests: online vs offline profiling
//! equivalence, trace serialization, facade workflows, and end-to-end
//! cost-function estimation on the bundled workloads.

use drms::analysis::{CostPlot, InputMetric, Model};
use drms::core::{DrmsConfig, DrmsProfiler};
use drms::trace::{codec, merge_traces, replay};
use drms::vm::{run_program, TraceRecorder, Vm};
use drms::workloads::{self, Workload};

/// Profiles online (tool attached to the VM) and offline (record, merge,
/// replay) and asserts identical reports — the paper's trace-merging
/// formulation is equivalent to live instrumentation.
fn online_equals_offline(w: &Workload) {
    let mut online = DrmsProfiler::new(DrmsConfig::full());
    run_program(&w.program, w.run_config(), &mut online).expect("online run");

    let mut recorder = TraceRecorder::new();
    run_program(&w.program, w.run_config(), &mut recorder).expect("recorded run");
    for trace in recorder.traces() {
        trace.validate().expect("well-formed per-thread trace");
    }
    let merged = merge_traces(recorder.into_traces());
    let mut offline = DrmsProfiler::new(DrmsConfig::full());
    replay(&merged, &mut offline);

    assert_eq!(
        online.into_report(),
        offline.into_report(),
        "online and replayed profiles differ for {}",
        w.name
    );
}

#[test]
fn online_offline_equivalence_across_workloads() {
    for w in [
        workloads::patterns::producer_consumer(12),
        workloads::patterns::stream_reader(12),
        workloads::minidb::minidb_scaling(&[32, 64]),
        workloads::parsec::dedup(3, 1),
        workloads::imgpipe::vips(2, 4, 1),
        workloads::specomp::smithwa(2, 1),
    ] {
        online_equals_offline(&w);
    }
}

#[test]
fn trace_codec_roundtrips_a_real_execution() {
    let w = workloads::patterns::producer_consumer(6);
    let mut recorder = TraceRecorder::new();
    run_program(&w.program, w.run_config(), &mut recorder).expect("run");
    let merged = merge_traces(recorder.into_traces());
    let text = codec::to_text(&merged);
    let back = codec::from_text(&text).expect("parse recorded trace");
    assert_eq!(back, merged);

    // Replaying the parsed trace still yields the same profile.
    let mut a = DrmsProfiler::new(DrmsConfig::full());
    replay(&merged, &mut a);
    let mut b = DrmsProfiler::new(DrmsConfig::full());
    replay(&back, &mut b);
    assert_eq!(a.into_report(), b.into_report());
}

#[test]
fn profiling_is_deterministic_under_round_robin() {
    let w = workloads::parsec::dedup(3, 1);
    let (r1, s1) = drms::ProfileSession::workload(&w)
        .run()
        .expect("run 1")
        .into_parts()
        .expect("run 1");
    let (r2, s2) = drms::ProfileSession::workload(&w)
        .run()
        .expect("run 2")
        .into_parts()
        .expect("run 2");
    assert_eq!(r1, r2, "round-robin scheduling must be deterministic");
    assert_eq!(s1.basic_blocks, s2.basic_blocks);
    assert_eq!(s1.thread_switches, s2.thread_switches);
}

#[test]
fn quadratic_routine_is_identified_end_to_end() {
    let w = workloads::sorting::selection_sort_sweep(&[10, 20, 40, 80, 120, 160]);
    let (report, _) = drms::ProfileSession::workload(&w)
        .run()
        .expect("run")
        .into_parts()
        .expect("run");
    let p = report.merged_routine(w.focus.expect("selection_sort"));
    let fit = CostPlot::of(&p, InputMetric::Drms).fit(0.01);
    assert_eq!(fit.model, Model::Quadratic, "fit: {fit}");
    assert!(fit.r2 > 0.99);
}

#[test]
fn renumbering_is_transparent_on_real_workloads() {
    let w = workloads::imgpipe::vips(2, 5, 1);
    let (baseline, _) = drms::ProfileSession::workload(&w)
        .run()
        .expect("run")
        .into_parts()
        .expect("run");
    let tiny = DrmsConfig {
        count_limit: 128,
        ..DrmsConfig::full()
    };
    let mut prof = DrmsProfiler::new(tiny);
    Vm::new(&w.program, w.run_config())
        .expect("vm")
        .run(&mut prof)
        .expect("run");
    assert!(prof.renumberings() > 0, "tiny limit must renumber");
    assert_eq!(prof.into_report(), baseline);
}

#[test]
fn drms_dominates_rms_on_every_profile() {
    // Paper Inequality 1: drms >= rms for every activation; in aggregate,
    // Σdrms >= Σrms per (routine, thread).
    for w in workloads::full_suite(2, 1) {
        let (report, _) = drms::ProfileSession::workload(&w)
            .run()
            .expect("run")
            .into_parts()
            .expect("run");
        for (&(r, t), p) in report.iter() {
            assert!(
                p.sum_drms >= p.sum_rms,
                "{}: routine {r} thread {t} violates drms >= rms",
                w.name
            );
        }
    }
}

#[test]
fn block_tracing_mode_delivers_block_events() {
    use drms::trace::{BlockId, RoutineId, ThreadId};
    #[derive(Default)]
    struct BlockCounter(u64);
    impl drms::vm::Tool for BlockCounter {
        fn on_block(&mut self, _: ThreadId, _: RoutineId, _: BlockId) {
            self.0 += 1;
        }
        fn name(&self) -> &str {
            "block-counter"
        }
    }
    let w = workloads::patterns::producer_consumer(5);
    let mut cfg = w.run_config();
    cfg.trace_blocks = true;
    let mut counter = BlockCounter::default();
    let stats = run_program(&w.program, cfg, &mut counter).expect("run");
    assert!(counter.0 > 0);
    assert!(
        counter.0 <= stats.basic_blocks,
        "block events never exceed counted blocks"
    );
}

#[test]
fn full_suite_is_robust_across_thread_counts() {
    // Partitioning logic must hold at the extremes the paper sweeps
    // (Figure 16 uses 1..8 threads).
    for threads in [1u32, 3, 8] {
        for w in workloads::full_suite(threads, 1) {
            let (report, stats) = drms::ProfileSession::workload(&w)
                .run()
                .expect("setup")
                .into_parts()
                .unwrap_or_else(|e| panic!("{} at {threads} threads: {e}", w.name));
            assert!(stats.basic_blocks > 0, "{} at {threads}", w.name);
            assert!(!report.is_empty(), "{} at {threads}", w.name);
        }
    }
}

#[test]
fn cct_profiler_matches_routine_sums_on_workloads() {
    use drms::core::CctProfiler;
    use drms::core::DrmsConfig;
    for w in [
        workloads::patterns::producer_consumer(8),
        workloads::minidb::minidb_scaling(&[32, 64]),
        workloads::imgpipe::vips(2, 4, 1),
    ] {
        let mut prof = CctProfiler::new(DrmsConfig::full());
        run_program(&w.program, w.run_config(), &mut prof)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        for rid in 0..w.program.routines().len() as u32 {
            let routine = drms::trace::RoutineId::new(rid);
            let merged = prof.inner().report().merged_routine(routine);
            let ctx_calls: u64 = prof.contexts_of(routine).iter().map(|(_, p)| p.calls).sum();
            assert_eq!(
                ctx_calls, merged.calls,
                "{}: context calls partition routine calls",
                w.name
            );
            let ctx_drms: u64 = prof
                .contexts_of(routine)
                .iter()
                .map(|(_, p)| p.sum_drms)
                .sum();
            assert_eq!(ctx_drms, merged.sum_drms, "{}", w.name);
        }
    }
}

#[test]
fn report_roundtrips_through_text_for_all_pattern_workloads() {
    use drms::core::report_io;
    for w in [
        workloads::patterns::producer_consumer(10),
        workloads::patterns::stream_reader(10),
        workloads::parsec::dedup(3, 1),
    ] {
        let (report, _) = drms::ProfileSession::workload(&w)
            .run()
            .expect("run")
            .into_parts()
            .expect("run");
        let text = report_io::to_text(&report);
        let back = report_io::from_text(&text).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(back, report, "{}", w.name);
    }
}
