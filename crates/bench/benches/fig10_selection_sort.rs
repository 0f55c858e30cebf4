//! Figure 10: selection sort profiled under basic-block counting versus
//! simulated-nanosecond timing. The bench measures both profiling modes;
//! the summary verifies the quadratic fit is cleaner under BB counting
//! (higher R², the paper's argument for the BB cost measure).

use criterion::{criterion_group, criterion_main, Criterion};
use drms::analysis::{best_fit, CostPlot, InputMetric, Model};
use drms::core::ProfileReport;
use drms::vm::{CostKind, RunConfig};
use drms::workloads::{sorting, Workload};
use drms::ProfileSession;

/// Profiles `w` under the full drms profiler with `cost` as the measure.
fn profile(w: &Workload, cost: CostKind) -> ProfileReport {
    let config = RunConfig {
        cost,
        ..w.run_config()
    };
    let outcome = ProfileSession::new(&w.program).config(config).run();
    outcome
        .expect("valid workload")
        .into_parts()
        .expect("profiled run")
        .0
}

fn bench(c: &mut Criterion) {
    let w = sorting::selection_sort_default(10);
    let mut group = c.benchmark_group("fig10");
    group.bench_function("profile_bb_cost", |b| {
        b.iter(|| profile(&w, CostKind::BasicBlocks))
    });
    group.bench_function("profile_nanos_cost", |b| {
        b.iter(|| profile(&w, CostKind::SimNanos { jitter_seed: 7 }))
    });
    group.finish();

    let w = sorting::selection_sort_default(20);
    let focus = w.focus.expect("selection_sort");
    let bb = profile(&w, CostKind::BasicBlocks);
    let ns = profile(&w, CostKind::SimNanos { jitter_seed: 7 });
    let bb_fit = best_fit(
        &CostPlot::of(&bb.merged_routine(focus), InputMetric::Drms).points,
        0.01,
    );
    let ns_fit = best_fit(
        &CostPlot::of(&ns.merged_routine(focus), InputMetric::Drms).points,
        0.01,
    );
    println!("\nfig10: BB fit {bb_fit}; nanos fit {ns_fit}");
    assert_eq!(bb_fit.model, Model::Quadratic, "selection sort is Θ(n²)");
    assert!(
        bb_fit.r2 >= ns_fit.r2 - 1e-6,
        "BB counting is at least as clean as timing (paper's point)"
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(1200));
    targets = bench
}
criterion_main!(benches);
