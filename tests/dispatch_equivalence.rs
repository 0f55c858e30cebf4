//! Differential dispatch/batching properties.
//!
//! The fast interpreter core must be *observably equivalent* to the
//! reference interpreter: pre-decoded fused dispatch and batched tool
//! event delivery may change how fast a run goes, but never what it
//! produces. This suite runs every workload family under the full
//! dispatch × batching matrix and asserts identical profile reports,
//! run statistics, metrics registries, drms curves, and recorded trace
//! checksums — including under chaos scheduling and injected kernel
//! faults. The reference run itself is pinned to a frozen fingerprint
//! table, so a change that moves every mode the same way still fails.

use drms::analysis::{CostPlot, InputMetric};
use drms::core::report_io;
use drms::prelude::*;
use drms::sched::fnv1a;
use drms::trace::{codec, merge_traces};
use drms::vm::TraceRecorder;
use drms::workloads::{self, Workload};

/// The dispatch/batching matrix; the first entry (reference interpreter,
/// per-event delivery) is the baseline the others must match.
const MATRIX: &[(DecodeMode, usize)] = &[
    (DecodeMode::Off, 1),
    (DecodeMode::Off, 512),
    (DecodeMode::Fused, 1),
    (DecodeMode::Fused, 512),
];

/// One workload's `[report-text FNV-1a, metrics-JSON FNV-1a, trace
/// checksum]`.
type Fingerprints = (&'static str, [u64; 3]);

/// Frozen fingerprints of the reference run (`Off`, batch 1) of every
/// label and family this suite runs. The matrix only compares modes with
/// each other, so it cannot see a change that moves every mode the same
/// way; this table can. Regenerate it only for a change meant to alter
/// what a run produces.
#[rustfmt::skip]
const FROZEN: &[(&str, &[Fingerprints])] = &[
    ("default schedule", &[
        ("producer_consumer_16", [0x1457a7348aa7b1d3, 0x9669754e36047088, 0xe3487946dd5e909b]),
        ("stream_reader_24", [0x840a5a65f8dce6da, 0x4f4f24f27a6783fa, 0xab003fc716657273]),
        ("minidb", [0xc30298e25fca9b66, 0x17b62a628d1fadcd, 0x3b40276e41d53f86]),
        ("mysqlslap", [0x240049e469b7d672, 0xcd4a0fdb75299130, 0xa6249771be7adb29]),
        ("vips", [0x8d3f7bb587a72758, 0x3eb57f6482b0ac74, 0x0a83d23ba94b4515]),
        ("selection_sort", [0x176250e1204e0f08, 0x2abb0207f22161ce, 0x2a7afd86f98c3f09]),
    ]),
    ("chaos seed 3", &[
        ("producer_consumer_16", [0x1457a7348aa7b1d3, 0xcbb9c39315d7f1a3, 0xf442dbc18e94dba1]),
        ("stream_reader_24", [0x840a5a65f8dce6da, 0xf3c5bdaa2cdf4d82, 0xab003fc716657273]),
        ("minidb", [0xc30298e25fca9b66, 0x71c36e95387d7cb2, 0x3b40276e41d53f86]),
        ("mysqlslap", [0x240049e469b7d672, 0x43e44a6b10b140ba, 0x925439f6dc137e54]),
        ("vips", [0x8d3f7bb587a72758, 0xfa398d9ae9828386, 0x3ced3addc344387a]),
        ("selection_sort", [0x176250e1204e0f08, 0x888023451addef00, 0x2a7afd86f98c3f09]),
    ]),
    ("chaos seed 50336", &[
        ("producer_consumer_16", [0x1457a7348aa7b1d3, 0x7260d3d0c7a2f52f, 0xe3487946dd5e909b]),
        ("stream_reader_24", [0x840a5a65f8dce6da, 0xb23b337e4f4884b3, 0xab003fc716657273]),
        ("minidb", [0xc30298e25fca9b66, 0x20ff8f7d2aff2fff, 0x3b40276e41d53f86]),
        ("mysqlslap", [0x240049e469b7d672, 0xff6cc903d1d8da4c, 0x0cf1dc7d2db69f9a]),
        ("vips", [0x8d3f7bb587a72758, 0xafd75f0051dfdf83, 0xcf2a2a3ecaabd397]),
        ("selection_sort", [0x176250e1204e0f08, 0x8a12ac15d4d0fa0d, 0x2a7afd86f98c3f09]),
    ]),
    ("fault plan", &[
        ("stream_reader_24", [0x441fc51336c98846, 0x29b023e7ffc821f0, 0x4059257236e4d408]),
        ("minidb", [0xa65f5f5c4989bb71, 0x4af22bf59b0cc26e, 0xe8825c256f83fb98]),
        ("mysqlslap", [0x8a2fe7be1bdba194, 0x41d7ee507d367621, 0x14c3f5fb3fa44efb]),
    ]),
    ("fault plan + chaos", &[
        ("stream_reader_24", [0x441fc51336c98846, 0x97fd57ad8ced6461, 0x4059257236e4d408]),
        ("minidb", [0xa65f5f5c4989bb71, 0x22084d02ab1b37c3, 0xe8825c256f83fb98]),
        ("mysqlslap", [0x8f09a5df17e58b4e, 0xf1067e2973a9b32c, 0xfc397fe111fb0d08]),
    ]),
];

/// One representative of every sweep/bench workload family.
fn families() -> Vec<Workload> {
    vec![
        workloads::patterns::producer_consumer(16),
        workloads::patterns::stream_reader(24),
        workloads::minidb::minidb_scaling(&[32, 64, 128]),
        workloads::minidb::mysqlslap(2, 2, 48),
        workloads::imgpipe::vips(2, 6, 1),
        workloads::sorting::selection_sort_sweep(&[10, 30, 50]),
    ]
}

/// Everything a run exposes that the matrix must keep invariant.
struct Observed {
    report: ProfileReport,
    stats: RunStats,
    metrics_json: String,
    trace_fnv: u64,
}

fn observe(w: &Workload, mut cfg: RunConfig, decode: DecodeMode, batch: usize) -> Observed {
    cfg.decode = decode;
    cfg.event_batch = batch;
    let outcome = ProfileSession::new(&w.program)
        .config(cfg.clone())
        .run()
        .expect("valid program");
    // Trace checksum from a second run with a recorder tool: batched
    // delivery replays through the default `observe_batch`, so the
    // recorded event stream must be byte-identical to per-event mode.
    let mut rec = TraceRecorder::new();
    let mut vm = Vm::new(&w.program, cfg).expect("valid program");
    let _ = vm.run(&mut rec); // a guest abort keeps its partial trace
    let merged = merge_traces(rec.into_traces());
    Observed {
        report: outcome.report,
        stats: outcome.stats,
        metrics_json: outcome.metrics.to_json(),
        trace_fnv: fnv1a(codec::to_text(&merged).as_bytes()),
    }
}

/// Runs `w` under every matrix entry and asserts each one observes
/// exactly what the reference interpreter observes, and that the
/// reference still matches its [`FROZEN`] fingerprints.
fn assert_matrix_equivalent(w: &Workload, base: &RunConfig, label: &str) {
    let (d0, b0) = MATRIX[0];
    let reference = observe(w, base.clone(), d0, b0);
    let frozen = FROZEN
        .iter()
        .find(|(l, _)| *l == label)
        .and_then(|(_, rows)| rows.iter().find(|(name, _)| *name == w.name))
        .unwrap_or_else(|| panic!("{label}: no frozen fingerprints for {}", w.name));
    assert_eq!(
        [
            fnv1a(report_io::to_text(&reference.report).as_bytes()),
            fnv1a(reference.metrics_json.as_bytes()),
            reference.trace_fnv,
        ],
        frozen.1,
        "{label}: {} reference run moved off its frozen [report, metrics, trace] fingerprints",
        w.name
    );
    for &(decode, batch) in &MATRIX[1..] {
        let got = observe(w, base.clone(), decode, batch);
        let tag = format!("{label}: {} under {decode:?}/batch={batch}", w.name);
        assert_eq!(got.report, reference.report, "{tag}: profile report");
        assert_eq!(got.stats, reference.stats, "{tag}: run stats");
        assert_eq!(
            got.metrics_json, reference.metrics_json,
            "{tag}: metrics registry"
        );
        assert_eq!(got.trace_fnv, reference.trace_fnv, "{tag}: trace checksum");
        if let Some(focus) = w.focus {
            let curve = CostPlot::of(&got.report.merged_routine(focus), InputMetric::Drms);
            let want = CostPlot::of(&reference.report.merged_routine(focus), InputMetric::Drms);
            assert_eq!(curve.points, want.points, "{tag}: drms curve");
        }
    }
}

#[test]
fn dispatch_matrix_is_observably_equivalent_across_families() {
    for w in families() {
        assert_matrix_equivalent(&w, &w.run_config(), "default schedule");
    }
}

#[test]
fn equivalence_holds_under_chaos_scheduling() {
    for w in families() {
        for seed in [3u64, 0xC4A0] {
            let cfg = RunConfig {
                policy: SchedPolicy::Chaos { seed },
                ..w.run_config()
            };
            assert_matrix_equivalent(&w, &cfg, &format!("chaos seed {seed}"));
        }
    }
}

#[test]
fn equivalence_holds_under_fault_injection() {
    // Device-backed families, so the plan's short reads and transient
    // errors actually fire inside the kernel model.
    let device_backed = [
        workloads::patterns::stream_reader(24),
        workloads::minidb::minidb_scaling(&[32, 64, 128]),
        workloads::minidb::mysqlslap(2, 2, 48),
    ];
    let plan =
        FaultPlan::parse("seed=11,fd0:shortread:p=1/3,in:eintr:every=5").expect("valid fault spec");
    for w in device_backed {
        let cfg = RunConfig {
            faults: Some(plan.clone()),
            ..w.run_config()
        };
        assert_matrix_equivalent(&w, &cfg, "fault plan");
        // Faults and chaos together: the worst-case nondeterminism the
        // matrix still has to cancel out.
        let cfg = RunConfig {
            policy: SchedPolicy::Chaos { seed: 0xFA17 },
            faults: Some(plan.clone()),
            ..w.run_config()
        };
        assert_matrix_equivalent(&w, &cfg, "fault plan + chaos");
    }
}
