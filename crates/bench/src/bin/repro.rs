//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro <experiment> [--threads N] [--scale S] [--out DIR]
//!
//! experiments:
//!   fig4    mysql_select cost plots, rms vs drms
//!   fig5    im_generate cost plots, rms vs drms
//!   fig6    wbuffer_write_thread: rms / drms-external / drms-full
//!   fig10   selection sort: basic blocks vs simulated nanoseconds
//!   fig11   routine profile richness curves
//!   fig12   dynamic input volume curves
//!   fig13   per-routine thread vs external input (mysqlslap, vips)
//!   fig14   thread/external input tail curves
//!   fig15   induced first-read split per benchmark
//!   fig16   slowdown & space overhead vs number of threads
//!   table1  tool slowdown/space comparison on both suites
//!   sched   scheduler-sensitivity study (§4.2)
//!   faults  robustness study: minidb under injected kernel faults
//!   all     everything above
//!
//!   sched-fuzz    chaos-fuzz the scheduler: N seeds per workload
//!                 ([--seeds N] [--quick]); prints the drms-variance
//!                 summary, strict-replays every failure, shrinks its
//!                 schedule, and exits nonzero if any failure cannot be
//!                 replayed or shrunk
//!   sched-shrink  minimize a failing schedule ([--sched FILE] from
//!                 sched-fuzz/aprof --record-sched, or self-seeded);
//!                 writes the minimized .sched and prints the wait-graph
//!   sweep         parallel sweep benchmark over the minidb/imgpipe size
//!                 grids ([--jobs N] [--quick] [--bench-out FILE]
//!                 [--journal FILE] [--resume FILE] [--max-attempts N]
//!                 [--deadline-ms N]): each family is swept serially and
//!                 with N workers under the crash-safe supervisor, the
//!                 merged reports and merged metrics are checked
//!                 byte-identical, and the deterministic measurements
//!                 land in BENCH_sweep.json (wall-clock in its
//!                 .timings.json sibling, audited metrics in its
//!                 .metrics.json sibling). --journal checkpoints every
//!                 finished cell; --resume salvages a journal after a
//!                 crash and re-runs only the lost cells, reproducing
//!                 the uninterrupted artifacts byte-for-byte (it appends
//!                 to that journal, so --journal with it exits 2).
//!                 --host-faults SPEC injects storage faults (chaos
//!                 testing): journal and artifact writes hit seeded
//!                 ENOSPC / fsync-EIO / torn writes and the sweep must
//!                 either finish byte-identical or exit 1 with a typed
//!                 error — never leave a corrupt artifact
//!   replay-shards DIR  offline half of the out-of-core trace pipeline:
//!                 load the per-thread binary shards a live run spilled
//!                 under DIR (`aprof --trace-out` / a session's
//!                 `trace_dir`), salvage any torn tails, replay the
//!                 merged stream through a fresh drms profiler
//!                 ([--jobs N] parallel shard loading) and print the
//!                 profile summary; [--report FILE] dumps the report
//!                 (byte-identical to the live run's for clean shards),
//!                 [--metrics FILE] dumps the shard + profiler registry
//!                 after its self-consistency audit
//! ```
//!
//! Each experiment prints its series and also writes CSV/gnuplot data
//! under `--out` (default `target/repro`).

use drms::analysis::{
    ascii_plot, best_fit, induced_split, richness_curve, routine_metrics, to_gnuplot, to_table,
    volume_curve, CostPlot, InputMetric, OverheadTable,
};
use drms::core::{DrmsConfig, ProfileReport};
use drms::vm::{CostKind, RunConfig, SchedPolicy};
use drms::workloads::{self, Workload};
use drms::ProfileSession;
use drms_bench::{flag_value, measure_suite, TOOLS};
use std::fs;
use std::path::{Path, PathBuf};

struct Options {
    threads: u32,
    scale: u32,
    out: PathBuf,
    seeds: u64,
    quick: bool,
    sched: Option<String>,
    jobs: usize,
    bench_out: PathBuf,
    journal: Option<PathBuf>,
    resume: Option<PathBuf>,
    max_attempts: u32,
    deadline_ms: Option<u64>,
    decode: Option<drms::vm::DecodeMode>,
    batch: Option<usize>,
    host_io: drms::trace::hostio::HostIo,
    report_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!("usage: repro <fig4|fig5|fig6|fig10|fig11|fig12|fig13|fig14|fig15|fig16|table1|sched|faults|all|sched-fuzz|sched-shrink|sweep|replay-shards DIR> [--threads N] [--scale S] [--out DIR] [--seeds N] [--quick] [--sched FILE] [--jobs N] [--bench-out FILE] [--journal FILE] [--resume FILE] [--max-attempts N] [--deadline-ms N] [--decode off|fused] [--batch N] [--host-faults SPEC] [--report FILE] [--metrics FILE]");
    std::process::exit(2)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut experiment = None;
    let mut positional = None;
    let mut opts = Options {
        threads: 4,
        scale: 2,
        out: PathBuf::from("target/repro"),
        seeds: 16,
        quick: false,
        sched: None,
        jobs: 4,
        bench_out: PathBuf::from("BENCH_sweep.json"),
        journal: None,
        resume: None,
        max_attempts: 3,
        deadline_ms: None,
        decode: None,
        batch: None,
        host_io: drms::trace::hostio::HostIo::real(),
        report_out: None,
        metrics_out: None,
    };
    while let Some(arg) = args.next() {
        let args = &mut args;
        match arg.as_str() {
            "--threads" => opts.threads = flag_value(args, "--threads N", usage),
            "--scale" => opts.scale = flag_value(args, "--scale S", usage),
            "--out" => opts.out = flag_value(args, "--out DIR", usage),
            "--seeds" => opts.seeds = flag_value(args, "--seeds N", usage),
            "--quick" => opts.quick = true,
            "--sched" => opts.sched = Some(flag_value(args, "--sched FILE", usage)),
            "--jobs" => opts.jobs = flag_value(args, "--jobs N", usage),
            "--bench-out" => opts.bench_out = flag_value(args, "--bench-out FILE", usage),
            "--journal" => opts.journal = Some(flag_value(args, "--journal FILE", usage)),
            "--resume" => opts.resume = Some(flag_value(args, "--resume FILE", usage)),
            "--max-attempts" => opts.max_attempts = flag_value(args, "--max-attempts N", usage),
            "--deadline-ms" => opts.deadline_ms = Some(flag_value(args, "--deadline-ms N", usage)),
            "--decode" => {
                let v: String = flag_value(args, "--decode off|fused", usage);
                opts.decode = Some(v.parse().unwrap_or_else(|e| {
                    eprintln!("--decode: {e}");
                    std::process::exit(2);
                }));
            }
            "--batch" => opts.batch = Some(flag_value(args, "--batch N", usage)),
            "--host-faults" => {
                let spec: String = flag_value(args, "--host-faults SPEC", usage);
                match drms::trace::hostio::HostIo::from_spec(&spec) {
                    Ok(io) => {
                        eprintln!("repro: CHAOS MODE — injecting host faults from `{spec}`");
                        opts.host_io = io;
                    }
                    Err(e) => {
                        eprintln!("repro: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "--report" => opts.report_out = Some(flag_value(args, "--report FILE", usage)),
            "--metrics" => opts.metrics_out = Some(flag_value(args, "--metrics FILE", usage)),
            other if experiment.is_none() => experiment = Some(other.to_owned()),
            // One operand after the experiment name (the shard directory
            // of `replay-shards DIR`); the dispatch arm validates it.
            other if positional.is_none() && !other.starts_with('-') => {
                positional = Some(other.to_owned())
            }
            other => {
                eprintln!("unexpected argument `{other}`");
                std::process::exit(2);
            }
        }
    }
    if opts.journal.is_some() && opts.resume.is_some() {
        eprintln!(
            "--journal cannot be combined with --resume (a resume appends to the journal it resumes)"
        );
        std::process::exit(2);
    }
    let Some(experiment) = experiment else {
        usage()
    };
    fs::create_dir_all(&opts.out).expect("create output dir");
    match experiment.as_str() {
        "fig4" => fig4(&opts),
        "fig5" => fig5(&opts),
        "fig6" => fig6(&opts),
        "fig10" => fig10(&opts),
        "fig11" => fig11_12(&opts, true),
        "fig12" => fig11_12(&opts, false),
        "fig13" => fig13(&opts),
        "fig14" => fig14(&opts),
        "fig15" => fig15(&opts),
        "fig16" => fig16(&opts),
        "table1" => table1(&opts),
        "sched" => sched(&opts),
        "faults" => faults(&opts),
        "sched-fuzz" => sched_fuzz(&opts),
        "sched-shrink" => sched_shrink(&opts),
        "sweep" => sweep_bench(&opts),
        "replay-shards" => replay_shards(&opts, positional.as_deref()),
        "all" => {
            fig4(&opts);
            fig5(&opts);
            fig6(&opts);
            fig10(&opts);
            fig11_12(&opts, true);
            fig11_12(&opts, false);
            fig13(&opts);
            fig14(&opts);
            fig15(&opts);
            fig16(&opts);
            table1(&opts);
            sched(&opts);
            faults(&opts);
        }
        other => {
            eprintln!("unknown experiment `{other}`");
            std::process::exit(2);
        }
    }
}

fn save(out: &Path, name: &str, contents: &str) {
    let path = out.join(name);
    drms_bench::artifact::atomic_write(&path, contents).expect("write data file");
    println!("  [data written to {}]", path.display());
}

/// `replay-shards DIR`: the offline half of the out-of-core trace
/// pipeline. Loads the shard directory (salvaging torn tails), replays
/// the merged stream through a fresh full-drms profiler with native
/// batch delivery, and renders the same report/metrics artifacts a live
/// run would have — byte-identical when every shard is clean.
fn replay_shards(opts: &Options, dir: Option<&str>) {
    use drms::vm::Tool;
    let Some(dir) = dir else {
        eprintln!("replay-shards needs the shard directory: repro replay-shards DIR");
        std::process::exit(2);
    };
    let set = drms::trace::ShardSet::load(Path::new(dir), opts.jobs).unwrap_or_else(|e| {
        eprintln!("{dir}: {e}");
        std::process::exit(1);
    });
    for warning in &set.warnings {
        eprintln!("  [salvage] {warning}");
    }
    let mut profiler = drms::core::DrmsProfiler::new(DrmsConfig::full());
    drms::vm::replay_shards_into(&set, &mut profiler);

    let mut metrics = drms::trace::Metrics::new();
    set.observe_metrics(&mut metrics);
    profiler.observe_metrics(&mut metrics);
    println!(
        "replayed {} frames from {} shards ({} bytes; {} salvaged, {} dropped)",
        set.total - set.dropped,
        set.shards.len(),
        set.bytes,
        set.salvaged,
        set.dropped,
    );
    let report = profiler.into_report();
    println!(
        "{} profiles, dynamic input volume {:.1}%",
        report.len(),
        report.dynamic_input_volume() * 100.0
    );
    if let Some(path) = &opts.report_out {
        let text = drms::core::report_io::to_text(&report);
        drms_bench::artifact::atomic_write_with(&opts.host_io, path, &text).unwrap_or_else(|e| {
            eprintln!("{}: {e}", path.display());
            std::process::exit(1);
        });
        println!("report written to {}", path.display());
    }
    if let Some(path) = &opts.metrics_out {
        if let Err(violations) = metrics.audit() {
            eprintln!("metrics audit failed ({} violations):", violations.len());
            for v in &violations {
                eprintln!("  {v}");
            }
            std::process::exit(1);
        }
        drms_bench::artifact::atomic_write_with(&opts.host_io, path, &metrics.to_json())
            .unwrap_or_else(|e| {
                eprintln!("{}: {e}", path.display());
                std::process::exit(1);
            });
        println!("metrics written to {} (audit passed)", path.display());
    }
}

/// Profiles `w` through the session builder and returns the completed
/// report, aborting the process on a guest failure (repro's workloads
/// are expected to run to completion).
fn profile_full(w: &Workload) -> ProfileReport {
    let outcome = ProfileSession::workload(w).run().expect("valid workload");
    if let Some(e) = outcome.error {
        eprintln!("{}: guest aborted: {e}", w.name);
        std::process::exit(drms_bench::run_error_exit_code(&e));
    }
    outcome.report
}

fn cost_plot_pair(w: &Workload) -> (CostPlot, CostPlot) {
    let report = profile_full(w);
    let p = report.merged_routine(w.focus.expect("focus routine"));
    (
        CostPlot::of(&p, InputMetric::Rms),
        CostPlot::of(&p, InputMetric::Drms),
    )
}

fn show_pair(title: &str, rms: &CostPlot, drms: &CostPlot, out: &Path, stem: &str) {
    println!("\n=== {title} ===");
    println!(
        "{}",
        ascii_plot(&rms.as_f64(), 60, 12, &format!("{title}: cost vs RMS"))
    );
    println!(
        "{}",
        ascii_plot(&drms.as_f64(), 60, 12, &format!("{title}: cost vs DRMS"))
    );
    let rms_fit = best_fit(&rms.points, 0.02);
    let drms_fit = best_fit(&drms.points, 0.02);
    println!(
        "rms  plot: {:>4} points, span {:>8}, fit {rms_fit}",
        rms.len(),
        rms.input_span()
    );
    println!(
        "drms plot: {:>4} points, span {:>8}, fit {drms_fit}",
        drms.len(),
        drms.input_span()
    );
    save(
        out,
        &format!("{stem}.dat"),
        &to_gnuplot(&[("rms", &rms.as_f64()[..]), ("drms", &drms.as_f64()[..])]),
    );
}

/// Figure 4: mysql_select — rms suggests a false superlinear trend, drms
/// shows the true linear cost.
fn fig4(opts: &Options) {
    let sizes: Vec<i64> = (1..=10).map(|i| i * 64 * opts.scale as i64).collect();
    let w = workloads::minidb::minidb_scaling(&sizes);
    let (rms, drms) = cost_plot_pair(&w);
    show_pair(
        "Fig 4: mysql_select (minidb)",
        &rms,
        &drms,
        &opts.out,
        "fig04",
    );
}

/// Figure 5: im_generate of the vips-like pipeline.
fn fig5(opts: &Options) {
    let w = workloads::imgpipe::vips(opts.threads.max(2), 24, opts.scale);
    let (rms, drms) = cost_plot_pair(&w);
    show_pair("Fig 5: im_generate (vips)", &rms, &drms, &opts.out, "fig05");
}

/// Figure 6: wbuffer_write_thread under (a) rms, (b) drms with external
/// input only, (c) full drms.
fn fig6(opts: &Options) {
    let tasks = 110;
    let w = workloads::imgpipe::vips(opts.threads.max(2), tasks, opts.scale);
    let wb = w
        .program
        .routine_by_name("wbuffer_write_thread")
        .expect("wbuffer routine");
    let full_report = profile_full(&w);
    let ext_report = ProfileSession::workload(&w)
        .drms(DrmsConfig::external_only())
        .run()
        .expect("external-only profile")
        .report;
    let full = full_report.merged_routine(wb);
    let ext = ext_report.merged_routine(wb);
    let a = CostPlot::of(&full, InputMetric::Rms);
    let b = CostPlot::of(&ext, InputMetric::Drms);
    let c = CostPlot::of(&full, InputMetric::Drms);
    println!(
        "\n=== Fig 6: wbuffer_write_thread ({} calls) ===",
        full.calls
    );
    println!(
        "(a) rms:                 {:>4} distinct input sizes",
        a.len()
    );
    println!(
        "(b) drms external only:  {:>4} distinct input sizes",
        b.len()
    );
    println!(
        "(c) drms ext+thread:     {:>4} distinct input sizes",
        c.len()
    );
    println!("{}", ascii_plot(&a.as_f64(), 60, 10, "(a) cost vs RMS"));
    println!(
        "{}",
        ascii_plot(&b.as_f64(), 60, 10, "(b) cost vs DRMS (external)")
    );
    println!(
        "{}",
        ascii_plot(&c.as_f64(), 60, 10, "(c) cost vs DRMS (full)")
    );
    // The paper's variance indicator: rms values carrying many calls
    // with widely varying costs signal uncaptured input information.
    let names = w.program.name_table();
    for flag in drms::analysis::variance_flags(&full_report, 0.5) {
        println!(
            "  variance flag: {} collapses {} calls onto rms={} (spread {:.2})",
            names.get(flag.routine).unwrap_or("?"),
            flag.collapsed_calls,
            flag.input,
            flag.spread
        );
    }
    save(
        &opts.out,
        "fig06.dat",
        &to_gnuplot(&[
            ("rms", &a.as_f64()[..]),
            ("drms_external", &b.as_f64()[..]),
            ("drms_full", &c.as_f64()[..]),
        ]),
    );
}

/// Figure 10: selection sort under basic-block counting vs simulated
/// nanoseconds.
fn fig10(opts: &Options) {
    let w = workloads::sorting::selection_sort_default(16 * opts.scale as i64);
    let focus = w.focus.expect("selection_sort");
    let profile = |cost| {
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
    };
    let bb_report = profile(CostKind::BasicBlocks);
    let ns_report = profile(CostKind::SimNanos { jitter_seed: 42 });
    let bb = CostPlot::of(&bb_report.merged_routine(focus), InputMetric::Drms);
    let ns = CostPlot::of(&ns_report.merged_routine(focus), InputMetric::Drms);
    println!("\n=== Fig 10: selection_sort, BB counting vs timing ===");
    println!("{}", ascii_plot(&bb.as_f64(), 60, 12, "cost (executed BB)"));
    println!(
        "{}",
        ascii_plot(&ns.as_f64(), 60, 12, "cost (simulated ns)")
    );
    let bb_fit = best_fit(&bb.points, 0.01);
    let ns_fit = best_fit(&ns.points, 0.01);
    println!("BB fit: {bb_fit}");
    println!("ns fit: {ns_fit}");
    save(
        &opts.out,
        "fig10.dat",
        &to_gnuplot(&[("bb", &bb.as_f64()[..]), ("nanos", &ns.as_f64()[..])]),
    );
}

fn figure_benchmarks(opts: &Options) -> Vec<Workload> {
    vec![
        workloads::parsec::fluidanimate(opts.threads, opts.scale),
        workloads::minidb::mysqlslap(opts.threads, 4 + opts.scale, 60 * opts.scale as i64),
        workloads::specomp::smithwa(opts.threads, opts.scale),
        workloads::parsec::dedup(opts.threads, opts.scale),
        workloads::specomp::nab(opts.threads, opts.scale),
        workloads::parsec::bodytrack(opts.threads, opts.scale),
        workloads::parsec::swaptions(opts.threads, opts.scale),
        workloads::imgpipe::vips(opts.threads.max(2), 10 + opts.scale as usize, opts.scale),
        workloads::parsec::x264(opts.threads, opts.scale),
    ]
}

/// Figures 11 and 12: profile richness / dynamic input volume curves.
fn fig11_12(opts: &Options, richness: bool) {
    let (name, stem) = if richness {
        ("Fig 11: routine profile richness", "fig11")
    } else {
        ("Fig 12: dynamic input volume", "fig12")
    };
    println!("\n=== {name} ===");
    let mut series: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    for w in figure_benchmarks(opts) {
        let report = profile_full(&w);
        let curve = if richness {
            richness_curve(&report)
        } else {
            volume_curve(&report)
        };
        let head: Vec<String> = curve
            .iter()
            .take(4)
            .map(|(x, y)| format!("({x:.0}%, {y:.1})"))
            .collect();
        println!(
            "  {:<14} {} points; top: {}",
            w.name,
            curve.len(),
            head.join(" ")
        );
        series.push((w.name.clone(), curve));
    }
    let refs: Vec<(&str, &[(f64, f64)])> = series
        .iter()
        .map(|(n, c)| (n.as_str(), c.as_slice()))
        .collect();
    save(&opts.out, &format!("{stem}.dat"), &to_gnuplot(&refs));
}

/// Figure 13: routine-by-routine thread vs external input for mysqlslap
/// and vips.
fn fig13(opts: &Options) {
    println!("\n=== Fig 13: per-routine thread vs external input ===");
    for (label, w) in [
        (
            "mysql",
            workloads::minidb::mysqlslap(opts.threads, 4 + opts.scale, 60 * opts.scale as i64),
        ),
        (
            "vips",
            workloads::imgpipe::vips(opts.threads.max(2), 10 + opts.scale as usize, opts.scale),
        ),
    ] {
        let report = profile_full(&w);
        let names = w.program.name_table();
        let mut rows: Vec<Vec<String>> = Vec::new();
        let mut metrics = routine_metrics(&report);
        metrics.sort_by(|a, b| {
            let ia = a.thread_input + a.external_input;
            let ib = b.thread_input + b.external_input;
            ib.partial_cmp(&ia).expect("finite shares")
        });
        for m in metrics.iter().filter(|m| m.first_reads > 0) {
            rows.push(vec![
                names.get(m.routine).unwrap_or("?").to_owned(),
                format!("{:.1}", m.thread_input * 100.0),
                format!("{:.1}", m.external_input * 100.0),
            ]);
        }
        println!("\n[{label}]");
        println!(
            "{}",
            to_table(&["routine", "thread input %", "external input %"], &rows)
        );
        let csv: String = rows
            .iter()
            .map(|r| format!("{},{},{}\n", r[0], r[1], r[2]))
            .collect();
        save(
            &opts.out,
            &format!("fig13_{label}.csv"),
            &format!("routine,thread,external\n{csv}"),
        );
    }
}

/// Figure 14: thread/external input tail curves per benchmark.
fn fig14(opts: &Options) {
    println!("\n=== Fig 14: thread and external input per routine ===");
    let selected = [
        workloads::parsec::swaptions(opts.threads, opts.scale),
        workloads::parsec::bodytrack(opts.threads, opts.scale),
        workloads::specomp::smithwa(opts.threads, opts.scale),
        workloads::specomp::kdtree(opts.threads, opts.scale),
        workloads::parsec::dedup(opts.threads, opts.scale),
        workloads::parsec::x264(opts.threads, opts.scale),
    ];
    let mut series: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    for w in selected {
        let report = profile_full(&w);
        let (thread, external) = drms::analysis::input_share_curves(&report);
        println!(
            "  {:<14} thread curve {} pts (max {:.0}%), external curve {} pts (max {:.0}%)",
            w.name,
            thread.len(),
            thread.first().map(|p| p.1).unwrap_or(0.0),
            external.len(),
            external.first().map(|p| p.1).unwrap_or(0.0),
        );
        series.push((format!("{}_thread", w.name), thread));
        series.push((format!("{}_external", w.name), external));
    }
    let refs: Vec<(&str, &[(f64, f64)])> = series
        .iter()
        .map(|(n, c)| (n.as_str(), c.as_slice()))
        .collect();
    save(&opts.out, "fig14.dat", &to_gnuplot(&refs));
}

/// Figure 15: 100%-stacked thread/external split of induced first reads
/// per benchmark, sorted by decreasing thread input.
fn fig15(opts: &Options) {
    println!("\n=== Fig 15: induced first-read characterization ===");
    let mut rows: Vec<(String, f64, f64)> = Vec::new();
    for w in workloads::full_suite(opts.threads, opts.scale) {
        let report = profile_full(&w);
        let (th, ke) = induced_split(&report);
        rows.push((w.name.clone(), th, ke));
    }
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(n, th, ke)| vec![n.clone(), format!("{th:.1}"), format!("{ke:.1}")])
        .collect();
    println!(
        "{}",
        to_table(
            &["benchmark", "thread input %", "external input %"],
            &table_rows
        )
    );
    let csv: String = rows
        .iter()
        .map(|(n, th, ke)| format!("{n},{th:.2},{ke:.2}\n"))
        .collect();
    save(
        &opts.out,
        "fig15.csv",
        &format!("benchmark,thread,external\n{csv}"),
    );
}

/// Figure 16: slowdown and space overhead as a function of thread count.
fn fig16(opts: &Options) {
    println!("\n=== Fig 16: overhead vs number of threads ===");
    let mut slow_series: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    let mut space_series: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    for tool in TOOLS {
        slow_series.push((tool.to_owned(), Vec::new()));
        space_series.push((tool.to_owned(), Vec::new()));
    }
    for threads in [1u32, 2, 4, 8] {
        let suite = workloads::spec_omp_suite(threads, opts.scale);
        let mut table = OverheadTable::new();
        measure_suite(&mut table, "omp", &suite, 2);
        for (i, tool) in TOOLS.iter().enumerate() {
            slow_series[i]
                .1
                .push((threads as f64, table.mean_slowdown("omp", tool)));
            space_series[i]
                .1
                .push((threads as f64, table.mean_space("omp", tool)));
        }
    }
    let mut rows = Vec::new();
    for (i, tool) in TOOLS.iter().enumerate() {
        let slows: Vec<String> = slow_series[i]
            .1
            .iter()
            .map(|p| format!("{:.1}", p.1))
            .collect();
        let spaces: Vec<String> = space_series[i]
            .1
            .iter()
            .map(|p| format!("{:.2}", p.1))
            .collect();
        rows.push(vec![
            tool.to_string(),
            slows.join(" / "),
            spaces.join(" / "),
        ]);
    }
    println!(
        "{}",
        to_table(
            &[
                "tool",
                "slowdown @1/2/4/8 threads",
                "space @1/2/4/8 threads"
            ],
            &rows
        )
    );
    let refs: Vec<(&str, &[(f64, f64)])> = slow_series
        .iter()
        .map(|(n, c)| (n.as_str(), c.as_slice()))
        .collect();
    save(&opts.out, "fig16_slowdown.dat", &to_gnuplot(&refs));
    let refs: Vec<(&str, &[(f64, f64)])> = space_series
        .iter()
        .map(|(n, c)| (n.as_str(), c.as_slice()))
        .collect();
    save(&opts.out, "fig16_space.dat", &to_gnuplot(&refs));
}

/// Table 1: tool comparison over both suites.
fn table1(opts: &Options) {
    println!("\n=== Table 1: slowdown and space overhead (geometric means) ===");
    let mut table = OverheadTable::new();
    measure_suite(
        &mut table,
        "SPEC OMP",
        &workloads::spec_omp_suite(opts.threads, opts.scale),
        2,
    );
    measure_suite(
        &mut table,
        "PARSEC 2.1",
        &workloads::parsec_suite(opts.threads, opts.scale),
        2,
    );
    let mut rows = Vec::new();
    for suite in table.suites() {
        for tool in TOOLS {
            rows.push(vec![
                suite.clone(),
                tool.to_string(),
                format!("{:.1}x", table.mean_slowdown(&suite, tool)),
                format!("{:.2}x", table.mean_space(&suite, tool)),
            ]);
        }
    }
    println!(
        "{}",
        to_table(&["suite", "tool", "slowdown", "space overhead"], &rows)
    );
    let csv: String = rows
        .iter()
        .map(|r| format!("{},{},{},{}\n", r[0], r[1], r[2], r[3]))
        .collect();
    save(
        &opts.out,
        "table1.csv",
        &format!("suite,tool,slowdown,space\n{csv}"),
    );
}

/// Robustness study: minidb under injected short reads and transient
/// EINTR errors. The workload's read loops resume short transfers and
/// retry transient errors, so the drms cost function of `mysql_select`
/// keeps its fault-free shape while the run statistics expose how many
/// faults were absorbed along the way.
fn faults(opts: &Options) {
    use drms::vm::FaultPlan;
    println!("\n=== Faults: minidb under short reads + EINTR ===");
    let sizes: Vec<i64> = (1..=10).map(|i| i * 64 * opts.scale as i64).collect();
    let w = workloads::minidb::minidb_scaling(&sizes);
    let focus = w.focus.expect("mysql_select");

    let clean = ProfileSession::workload(&w).run().expect("fault-free run");
    let (clean_report, clean_stats) = (clean.report, clean.stats);
    let spec = "seed=7,fd0:shortread:p=1/3,in:eintr:every=11";
    let outcome = ProfileSession::workload(&w)
        .faults(FaultPlan::parse(spec).expect("valid fault spec"))
        .run()
        .expect("valid workload");
    if let Some(e) = &outcome.error {
        println!("  run aborted: {e} (partial profile below)");
    }

    let clean = CostPlot::of(&clean_report.merged_routine(focus), InputMetric::Drms);
    let faulted = CostPlot::of(&outcome.report.merged_routine(focus), InputMetric::Drms);
    let clean_fit = best_fit(&clean.points, 0.02);
    let faulted_fit = best_fit(&faulted.points, 0.02);
    println!("  fault spec: {spec}");
    println!("  injected:   {}", outcome.stats.faults);
    println!(
        "  clean:   {:>6} syscalls, drms fit {clean_fit}",
        clean_stats.syscalls
    );
    println!(
        "  faulted: {:>6} syscalls, drms fit {faulted_fit}",
        outcome.stats.syscalls
    );
    if clean_fit.model == faulted_fit.model {
        println!("  fit class preserved under faults: {}", faulted_fit.model);
    } else {
        println!(
            "  WARNING: fit class changed under faults: {} -> {}",
            clean_fit.model, faulted_fit.model
        );
    }
    save(
        &opts.out,
        "faults.dat",
        &to_gnuplot(&[
            ("clean", &clean.as_f64()[..]),
            ("faulted", &faulted.as_f64()[..]),
        ]),
    );
}

/// Scheduler-sensitivity study (§4.2): external input is stable across
/// scheduling policies, thread input fluctuates mildly.
fn sched(opts: &Options) {
    println!("\n=== Scheduler sensitivity (§4.2) ===");
    let policies: Vec<(String, SchedPolicy)> = vec![
        ("round_robin".into(), SchedPolicy::RoundRobin),
        ("random_1".into(), SchedPolicy::Random { seed: 1 }),
        ("random_2".into(), SchedPolicy::Random { seed: 2 }),
        ("random_3".into(), SchedPolicy::Random { seed: 3 }),
    ];
    let mut rows = Vec::new();
    for w in [
        workloads::parsec::dedup(opts.threads, opts.scale),
        workloads::specomp::nab(opts.threads, opts.scale),
        workloads::imgpipe::vips(opts.threads.max(2), 8, opts.scale),
    ] {
        for (pname, policy) in &policies {
            let outcome = ProfileSession::workload(&w)
                .sched(*policy)
                .run()
                .expect("valid workload");
            assert!(outcome.error.is_none(), "profiled run");
            let report = outcome.report;
            let (mut th, mut ke) = (0u64, 0u64);
            for (_, p) in report.iter() {
                th += p.breakdown.thread_induced;
                ke += p.breakdown.kernel_induced;
            }
            rows.push(vec![
                w.name.clone(),
                pname.clone(),
                th.to_string(),
                ke.to_string(),
            ]);
        }
    }
    println!(
        "{}",
        to_table(
            &["benchmark", "policy", "thread-induced", "kernel-induced"],
            &rows
        )
    );
    let csv: String = rows
        .iter()
        .map(|r| format!("{},{},{},{}\n", r[0], r[1], r[2], r[3]))
        .collect();
    save(
        &opts.out,
        "sched.csv",
        &format!("benchmark,policy,thread_induced,kernel_induced\n{csv}"),
    );
}

/// The schedule fuzzer's targets: small pattern workloads whose behavior
/// under adversarial interleavings is fully understood — one genuinely
/// racy program (the lock-order inversion) and two correct ones that
/// must survive any schedule.
fn fuzz_workloads(quick: bool) -> Vec<Workload> {
    let n: i64 = if quick { 6 } else { 12 };
    vec![
        workloads::patterns::lock_order_inversion(n),
        workloads::patterns::producer_consumer(2 * n),
        workloads::patterns::stream_reader(2 * n),
    ]
}

/// Schedule fuzzing gate: run every fuzz workload under `--seeds` chaos
/// seeds, print the per-routine drms-variance summary, and put each
/// failing seed through the full robustness pipeline — strict replay
/// must reproduce the failure exactly and the shrinker must minimize its
/// schedule. Any unreproducible or unshrinkable failure fails the run.
fn sched_fuzz(opts: &Options) {
    use drms::sched::{chaos_scan, replay_run, shrink_failing_schedule};
    use std::sync::Arc;
    println!(
        "\n=== Schedule fuzz: chaos policy, {} seeds{} ===",
        opts.seeds,
        if opts.quick { " (quick)" } else { "" }
    );
    let seeds: Vec<u64> = (0..opts.seeds).collect();
    let mut bad = 0usize;
    for w in fuzz_workloads(opts.quick) {
        let scan = chaos_scan(&w.program, &w.run_config(), &seeds).expect("valid workload");
        let failures: Vec<_> = scan.failures().collect();
        println!(
            "\n[{}] {}/{} seeds completed, {} failed",
            w.name,
            scan.completed(),
            seeds.len(),
            failures.len()
        );
        let names = w.program.name_table();
        print!(
            "{}",
            scan.variance
                .render(|r| names.get(r).unwrap_or("?").to_owned())
        );
        for f in &failures {
            let err = f.outcome.error.clone().expect("failing run has an error");
            let strict = replay_run(&w.program, &w.run_config(), Arc::clone(&f.schedule), false)
                .expect("valid workload");
            if strict.outcome.error.as_ref() != Some(&err) {
                println!(
                    "  seed {}: NOT REPRODUCIBLE under strict replay: {err}",
                    f.seed
                );
                bad += 1;
                continue;
            }
            match shrink_failing_schedule(&w.program, &w.run_config(), &f.schedule, &err) {
                Some(s) => {
                    println!(
                        "  seed {}: {err}; shrunk {} -> {} preemption points in {} replays",
                        f.seed, s.original_points, s.minimized_points, s.attempts
                    );
                    save(
                        &opts.out,
                        &format!("{}_seed{}.sched", w.name, f.seed),
                        &drms::trace::sched::to_text(&s.minimized),
                    );
                }
                None => {
                    println!("  seed {}: UNSHRINKABLE: {err}", f.seed);
                    bad += 1;
                }
            }
        }
    }
    if bad > 0 {
        eprintln!("sched-fuzz: {bad} failure(s) did not replay deterministically or shrink");
        std::process::exit(1);
    }
    println!("\nsched-fuzz: every failure replayed deterministically and shrank");
}

/// Minimize one failing schedule. With `--sched FILE` the schedule comes
/// from a previous `sched-fuzz` / `aprof --record-sched` run (against
/// the same fuzz workload and `--quick` setting); without it, the
/// command hunts a failing chaos seed itself. Writes the minimized
/// `.sched` next to the other outputs and prints the deadlock
/// wait-graph.
fn sched_shrink(opts: &Options) {
    use drms::sched::{chaos_scan, replay_run, shrink_failing_schedule};
    use drms::vm::RunError;
    use std::sync::Arc;
    let w = fuzz_workloads(opts.quick)
        .into_iter()
        .next()
        .expect("fuzz workloads are non-empty");
    println!("\n=== Schedule shrink on {} ===", w.name);
    let (schedule, err) = match &opts.sched {
        Some(path) => {
            let text = fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("{path}: {e}");
                std::process::exit(1)
            });
            let schedule = Arc::new(drms::trace::sched::from_text(&text).unwrap_or_else(|e| {
                eprintln!("{path}: {e}");
                std::process::exit(2)
            }));
            let run = replay_run(&w.program, &w.run_config(), Arc::clone(&schedule), true)
                .expect("valid workload");
            let Some(err) = run.outcome.error else {
                eprintln!(
                    "{path}: schedule does not reproduce a failure on {}",
                    w.name
                );
                std::process::exit(1)
            };
            (schedule, err)
        }
        None => {
            let seeds: Vec<u64> = (0..opts.seeds.max(16)).collect();
            let scan = chaos_scan(&w.program, &w.run_config(), &seeds).expect("valid workload");
            let Some(f) = scan
                .failures()
                .max_by_key(|r| r.schedule.preemption_points())
            else {
                eprintln!("no chaos seed in 0..{} fails {}", seeds.len(), w.name);
                std::process::exit(1)
            };
            println!("  seed {} fails; using its recorded schedule", f.seed);
            (
                Arc::clone(&f.schedule),
                f.outcome.error.clone().expect("failing run has an error"),
            )
        }
    };
    let Some(s) = shrink_failing_schedule(&w.program, &w.run_config(), &schedule, &err) else {
        eprintln!("the schedule does not reproduce its own failure");
        std::process::exit(1)
    };
    println!(
        "  shrunk {} -> {} decisions, {} -> {} preemption points ({} replays)",
        schedule.len(),
        s.minimized.len(),
        s.original_points,
        s.minimized_points,
        s.attempts
    );
    println!("  minimized failure: {}", s.error);
    if let RunError::Deadlock { blocked } = &s.error {
        println!("  wait-graph:");
        for b in blocked {
            println!("    {b}");
        }
    }
    save(
        &opts.out,
        "minimized.sched",
        &drms::trace::sched::to_text(&s.minimized),
    );
}

/// Parallel sweep benchmark: sweep the minidb and imgpipe families over
/// their size grids under the crash-safe supervisor, verify the merged
/// reports **and merged metrics** are byte-identical between serial and
/// parallel runs, and write the deterministic measurements to
/// `--bench-out` (default `BENCH_sweep.json`) plus the wall-clock side
/// to a `.timings.json` sibling and the audited grid-merged metrics to
/// a `.metrics.json` sibling — all through atomic temp+fsync+rename
/// writes.
///
/// `--journal FILE` checkpoints every finished cell; after a crash,
/// `--resume FILE` (with the same grid flags, and without `--journal`)
/// salvages the journal, re-runs only the lost cells, and produces
/// artifacts byte-identical to an uninterrupted run. `--max-attempts` /
/// `--deadline-ms` tune the supervisor's retry and deadline policy;
/// cells that exhaust their attempts are quarantined and reported, and
/// the sweep still exits 0.
/// `--quick` shrinks the grids for smoke testing.
fn sweep_bench(opts: &Options) {
    use drms::analysis::InputMetric;
    use drms_bench::artifact::atomic_write_with;
    use drms_bench::supervisor::{
        profile_cell, resume_sweep, JournalWriter, SupervisedRun, SupervisorOptions,
    };
    use drms_bench::sweep::{focus_plot, validate_bench_json, FamilyBench, SweepBench, SweepSpec};
    // Artifact writes must fail typed, not panic: under --host-faults
    // the CI chaos gate asserts a clean nonzero exit with the fault
    // named, and the atomic temp+rename discipline guarantees the
    // previous artifact (if any) is still intact.
    let write_artifact = |path: &Path, contents: &str, what: &str| {
        if let Err(e) = atomic_write_with(&opts.host_io, path, contents) {
            eprintln!("sweep: cannot write {what} `{}`: {e}", path.display());
            std::process::exit(1);
        }
    };
    println!("\n=== Parallel sweep benchmark ({} jobs) ===", opts.jobs);
    let scale = opts.scale as i64;
    // The sort family's size is the Figure-10 step count (arrays of
    // 10..=10·size elements), so a cell costs Θ(size³) instructions;
    // sizes stay fixed rather than scaling with `--scale` because the
    // VM watchdog (500M instructions) caps the step count near 140.
    // Sizes are listed descending: workers pull cells off a shared
    // cursor in grid order, so the longest quadratic arrays start first
    // and the small minidb/imgpipe cells backfill the stragglers.
    let (sort_sizes, minidb_sizes, imgpipe_sizes, seeds): (Vec<i64>, Vec<i64>, Vec<i64>, Vec<u64>) =
        if opts.quick {
            (
                vec![64, 56, 48],
                (1..=3).map(|i| i * 32).collect(),
                vec![4, 8],
                vec![1],
            )
        } else {
            (
                vec![112, 96, 80],
                (1..=8).map(|i| i * 64 * scale).collect(),
                (1..=6).map(|i| 4 * i * scale).collect(),
                vec![1, 2],
            )
        };
    let specs = [
        SweepSpec::new("sort", &sort_sizes, opts.jobs).seeds(&seeds),
        SweepSpec::new("minidb", &minidb_sizes, opts.jobs).seeds(&seeds),
        SweepSpec::new("imgpipe", &imgpipe_sizes, opts.jobs).seeds(&seeds),
    ];
    let sup = SupervisorOptions {
        max_attempts: opts.max_attempts.max(1),
        deadline: opts.deadline_ms.map(std::time::Duration::from_millis),
        decode: opts.decode,
        event_batch: opts.batch,
        io: opts.host_io.clone(),
        ..SupervisorOptions::default()
    };
    let resumed = opts.resume.is_some();
    let mut families = Vec::new();
    if let Some(path) = &opts.resume {
        println!("  resuming from journal {}", path.display());
        for spec in &specs {
            match resume_sweep(spec, &sup, path, &profile_cell, None) {
                Ok((SupervisedRun::Completed(result), resume)) => {
                    println!(
                        "  {:<8} salvaged {} cells, re-ran {} ({:.3}s)",
                        spec.family, resume.salvaged_cells, resume.rerun_cells, result.wall_secs,
                    );
                    for w in &resume.warnings {
                        println!("           note: {w}");
                    }
                    if let Err(violations) = resume.metrics.audit() {
                        eprintln!("sweep: resume accounting audit failed:");
                        for v in &violations {
                            eprintln!("  {v}");
                        }
                        std::process::exit(1);
                    }
                    families.push(FamilyBench::from_resumed(*result));
                }
                Ok((SupervisedRun::Yielded { cells_done, .. }, _)) => {
                    eprintln!(
                        "sweep: family `{}` yielded after {cells_done} cells without a \
                         preempt signal",
                        spec.family
                    );
                    std::process::exit(1);
                }
                Err(e) => {
                    eprintln!("sweep: cannot resume family `{}`: {e}", spec.family);
                    let mut source = std::error::Error::source(&e);
                    while let Some(s) = source {
                        eprintln!("  caused by: {s}");
                        source = s.source();
                    }
                    std::process::exit(1);
                }
            }
        }
    } else {
        let mut writer = opts.journal.as_ref().map(|p| {
            let w = match JournalWriter::create_with(&opts.host_io, p) {
                Ok(w) => w,
                Err(e) => {
                    eprintln!(
                        "sweep: cannot create checkpoint journal `{}`: {e}",
                        p.display()
                    );
                    std::process::exit(1);
                }
            };
            println!("  journaling checkpoints to {}", p.display());
            w
        });
        for spec in &specs {
            let fam = FamilyBench::measure_with(spec, &sup, writer.as_mut());
            let p = &fam.parallel;
            println!(
                "  {:<8} {:>2} cells: serial {:.3}s, parallel {:.3}s ({:.2}x), fingerprint {:#018x}{}",
                spec.family,
                p.cells.len(),
                fam.serial_secs,
                p.wall_secs,
                fam.speedup(),
                p.fingerprint(),
                if fam.diverged() { "  DIVERGED" } else { "" },
            );
            if fam.metrics_diverged() {
                eprintln!(
                    "sweep: family `{}`: serial and parallel merged metrics diverged",
                    spec.family
                );
                std::process::exit(1);
            }
            families.push(fam);
        }
    }
    let mut merged_metrics = drms::trace::Metrics::new();
    for fam in &families {
        let p = &fam.parallel;
        merged_metrics
            .merge(&p.merged_metrics())
            .expect("families share one bucket layout per histogram name");
        for q in &p.quarantined {
            println!(
                "  QUARANTINED {} size={} seed={} after {} attempt(s): {}",
                p.spec.family, q.size, q.seed, q.attempts, q.error
            );
        }
        let plot = focus_plot(&p.spec.family, &p.cells, InputMetric::Drms);
        let fit = best_fit(&plot.points, 0.02);
        println!(
            "           focus drms plot: {} points, fit {fit}",
            plot.points.len()
        );
    }
    let bench = SweepBench {
        jobs: opts.jobs,
        resumed,
        families,
    };
    if bench.diverged() {
        eprintln!("sweep: serial and parallel merged reports diverged");
        std::process::exit(1);
    }
    let json = bench.to_json();
    if let Err(e) = validate_bench_json(&json) {
        eprintln!("sweep: emitted JSON fails its own schema: {e}");
        std::process::exit(1);
    }
    println!(
        "  total: serial {:.3}s, parallel {:.3}s, speedup {:.2}x",
        bench.serial_secs(),
        bench.parallel_secs(),
        bench.speedup()
    );
    write_artifact(&opts.bench_out, &json, "bench artifact");
    println!("  [benchmark written to {}]", opts.bench_out.display());
    let timings_out = opts.bench_out.with_extension("timings.json");
    write_artifact(&timings_out, &bench.timings_json(), "sweep timings");
    println!("  [timings written to {}]", timings_out.display());
    if let Err(violations) = merged_metrics.audit() {
        eprintln!(
            "sweep: metrics audit failed ({} violations):",
            violations.len()
        );
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
    let metrics_out = opts.bench_out.with_extension("metrics.json");
    write_artifact(&metrics_out, &merged_metrics.to_json(), "sweep metrics");
    println!("  [audited metrics written to {}]", metrics_out.display());
}
