//! `aprof` — command-line front end of the profiler, in the spirit of
//! the original tool's `valgrind --tool=aprof <prog>` workflow.
//!
//! ```text
//! aprof --workload <name> [options]
//!
//! options:
//!   --workload NAME     one of: producer_consumer, stream_reader,
//!                       lock_order_inversion, selection_sort, minidb,
//!                       mysqlslap, vips,
//!                       blackscholes, bodytrack, canneal, dedup, ferret,
//!                       fluidanimate, streamcluster, swaptions, x264,
//!                       smithwa, nab, kdtree, botsalgn, md, imagick,
//!                       swim, bt331, ilbdc
//!   --threads N         worker threads for suite workloads (default 4)
//!   --scale S           workload scale factor (default 2)
//!   --tool NAME         aprof-drms (default) | aprof | external-only |
//!                       nulgrind; the run and output options below apply
//!                       to every tool and to --context (--sweep always
//!                       profiles with aprof-drms; --context refuses any
//!                       other tool)
//!   --sweep SIZES       profile the workload once per comma-separated
//!                       size (e.g. `--sweep 64,128,256`) through the
//!                       crash-safe sweep supervisor and print the
//!                       merged focus plot; cells that keep failing are
//!                       quarantined and reported, not fatal; sweepable
//!                       workloads: minidb, mysqlslap, vips,
//!                       stream_reader, producer_consumer,
//!                       selection_sort
//!   --decode MODE       interpreter dispatch: off (reference
//!                       interpreter) | fused (pre-decoded basic blocks
//!                       with superinstruction fusion, the default);
//!                       both modes produce the same profile, report
//!                       and metrics
//!   --batch N           tool event-batch capacity (default 512);
//!                       N=1 degenerates to per-event delivery
//!   --jobs N            worker threads for --sweep (default 1, >= 1)
//!   --deadline-ms N     wall-clock budget per run (checked once per
//!                       scheduler slice; exceeding it aborts with
//!                       a deterministic deadline error, exit code 5);
//!                       with --sweep, bounds every cell attempt
//!   --max-attempts N    with --sweep: supervisor attempts per cell
//!                       before quarantine (default 3)
//!   --policy P          rr (default) | random:SEED | chaos,seed=N
//!   --sched P           alias of --policy (chaos fuzzing reads better as
//!                       `--sched chaos,seed=7`)
//!   --quantum N         scheduling quantum in basic blocks
//!   --record-sched FILE record every scheduling decision of the profiled
//!                       run into FILE (drms-sched text format)
//!   --replay-sched FILE drive the scheduler from a recorded schedule;
//!                       strict replay reproduces the recorded run's event
//!                       stream and report byte for byte
//!                       (the four scheduler options above are rejected
//!                       with --sweep, whose cells keep their workload's
//!                       own schedule)
//!   --focus ROUTINE     print cost plots + fit for one routine
//!   --fit               fit the focus (or every) routine's cost function
//!   --faults SPEC       seeded kernel fault-injection plan, e.g.
//!                       "seed=7,fd0:shortread:p=1/4,in:eintr:every=9";
//!                       aborted runs still report a partial profile;
//!                       with --sweep, injected into every cell
//!   --context           context-sensitive profile of the focus routine;
//!                       --report still dumps the routine-level report
//!   --report FILE       dump the profile report (report_io text format)
//!   --metrics FILE      dump the run's observability registry (event,
//!                       scheduler, kernel, shadow-cache and per-tool
//!                       counters) as deterministic JSON — or prometheus
//!                       text when FILE ends in `.prom`; the registry's
//!                       self-consistency audit runs first and audit
//!                       violations fail the invocation (exit 1); with
//!                       --sweep this dumps the grid-merged registry
//!   --trace FILE        record and dump the profiled run's merged
//!                       execution trace
//!   --trace-stats       print the profiled run's event-stream statistics
//!   --trace-out DIR     spill the live event stream into per-thread
//!                       binary shards under DIR (the out-of-core trace
//!                       pipeline); replay offline with
//!                       `repro replay-shards DIR`. With --sweep, each
//!                       cell gets its own `cell-<family>-<size>-<seed>`
//!                       subdirectory
//!   --host-faults SPEC  inject storage faults into the shard writes
//!                       (same spec language as repro; e.g.
//!                       "write:enospc:once=3"); a mid-shard fault is a
//!                       typed failure and the flushed prefix stays
//!                       salvageable
//!   --disasm            print the guest program listing and exit
//!   --diff OLD NEW      compare two saved reports and print regressions
//!                       (standalone mode: no --workload needed)
//! ```
//!
//! Every mode is one profiled run. Aborted runs still print whatever
//! partial output was collected, then exit with a distinct documented
//! code per abort reason (see
//! [`drms_bench::run_error_exit_code`]): 3 invalid program, 4 deadlock,
//! 5 instruction budget, 6 corrupt guest stack, 7 schedule replay
//! missing/diverged, 8 other guest errors. 0 is success, 1 generic
//! failures, 2 usage errors.

use drms::analysis::{ascii_plot, CostPlot, InputMetric};
use drms::core::{report_io, CctProfiler, DrmsConfig, ProfileReport, RmsProfiler};
use drms::trace::{merge_traces, Metrics, TraceStats};
use drms::vm::{disassemble, DecodeMode, FaultPlan, NullTool, SchedPolicy, TraceRecorder};
use drms::workloads::{self, Workload};
use drms::{ProfileOutcome, ProfileSession};
use drms_bench::artifact::atomic_write;
use drms_bench::supervisor::{profile_cell, run_supervised_with, SupervisorOptions};
use drms_bench::sweep::{focus_plot, SweepSpec};
use drms_bench::{flag_value, run_error_exit_code};
use std::path::Path;
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

struct Cli {
    workload: Option<String>,
    threads: u32,
    scale: u32,
    tool: ToolName,
    policy: SchedPolicy,
    /// The last scheduler option given (`--policy`, `--sched`,
    /// `--quantum`, `--record-sched`, `--replay-sched`), which `--sweep`
    /// refuses by name.
    sched_flag: Option<String>,
    quantum: Option<u32>,
    focus: Option<String>,
    fit: bool,
    faults: Option<FaultPlan>,
    record_sched: Option<String>,
    replay_sched: Option<String>,
    context: bool,
    report: Option<String>,
    metrics: Option<String>,
    trace: Option<String>,
    trace_stats: bool,
    disasm: bool,
    diff: Option<(String, String)>,
    sweep: Option<Vec<i64>>,
    decode: Option<DecodeMode>,
    batch: Option<usize>,
    jobs: usize,
    deadline_ms: Option<u64>,
    max_attempts: u32,
    trace_out: Option<String>,
    host_io: drms::trace::HostIo,
}

fn usage() -> ! {
    eprintln!("usage: aprof --workload <name> [--tool aprof-drms|aprof|external-only|nulgrind] [--focus ROUTINE] [--fit] [--faults SPEC] [--context] [--report FILE] [--metrics FILE] [--trace FILE] [--trace-stats] [--disasm] [--diff OLD NEW] [--threads N] [--scale S] [--policy|--sched rr|random:SEED|chaos,seed=N] [--quantum N] [--record-sched FILE] [--replay-sched FILE] [--sweep SIZES] [--decode off|fused] [--batch N] [--jobs N] [--deadline-ms N] [--max-attempts N] [--trace-out DIR] [--host-faults SPEC]");
    exit(2)
}

/// The profiler `--tool` names, checked when the flag is read.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ToolName {
    Drms,
    ExternalOnly,
    Rms,
    Null,
}

fn parse_tool(name: &str) -> ToolName {
    match name {
        "aprof-drms" => ToolName::Drms,
        "external-only" => ToolName::ExternalOnly,
        "aprof" => ToolName::Rms,
        // The nulgrind analogue: no analysis at all, measuring bare
        // VM + instrumentation-dispatch overhead.
        "null" | "nulgrind" => ToolName::Null,
        other => {
            eprintln!("unknown tool `{other}` (aprof-drms | aprof | external-only | nulgrind)");
            exit(1)
        }
    }
}

/// Parses a scheduling policy spec: `rr`, `random:SEED`, `chaos:SEED`;
/// the seed may also be written `,seed=N` (e.g. `chaos,seed=7`).
fn parse_policy(spec: &str) -> Option<SchedPolicy> {
    if spec == "rr" {
        return Some(SchedPolicy::RoundRobin);
    }
    let (name, arg) = spec.split_once([':', ','])?;
    let seed = arg.strip_prefix("seed=").unwrap_or(arg).parse().ok()?;
    match name {
        "random" => Some(SchedPolicy::Random { seed }),
        "chaos" => Some(SchedPolicy::Chaos { seed }),
        _ => None,
    }
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        workload: None,
        threads: 4,
        scale: 2,
        tool: ToolName::Drms,
        policy: SchedPolicy::RoundRobin,
        sched_flag: None,
        quantum: None,
        focus: None,
        fit: false,
        faults: None,
        record_sched: None,
        replay_sched: None,
        context: false,
        report: None,
        metrics: None,
        trace: None,
        trace_stats: false,
        disasm: false,
        diff: None,
        sweep: None,
        decode: None,
        batch: None,
        jobs: 1,
        deadline_ms: None,
        max_attempts: 3,
        trace_out: None,
        host_io: drms::trace::HostIo::real(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let args = &mut args;
        if matches!(
            arg.as_str(),
            "--policy" | "--sched" | "--quantum" | "--record-sched" | "--replay-sched"
        ) {
            cli.sched_flag = Some(arg.clone());
        }
        match arg.as_str() {
            "--workload" => cli.workload = Some(flag_value(args, "--workload NAME", usage)),
            "--threads" => cli.threads = flag_value(args, "--threads N", usage),
            "--scale" => cli.scale = flag_value(args, "--scale S", usage),
            "--tool" => cli.tool = parse_tool(&flag_value::<String>(args, "--tool NAME", usage)),
            "--policy" | "--sched" => {
                let v: String = flag_value(args, &format!("{arg} P"), usage);
                cli.policy = parse_policy(&v).unwrap_or_else(|| {
                    eprintln!("bad policy `{v}` (rr | random:SEED | chaos,seed=N)");
                    usage()
                });
            }
            "--quantum" => cli.quantum = Some(flag_value(args, "--quantum N", usage)),
            "--focus" => cli.focus = Some(flag_value(args, "--focus ROUTINE", usage)),
            "--fit" => cli.fit = true,
            "--faults" => {
                let spec: String = flag_value(args, "--faults SPEC", usage);
                cli.faults = Some(FaultPlan::parse(&spec).unwrap_or_else(|e| {
                    eprintln!("--faults: {e}");
                    exit(2)
                }));
            }
            "--record-sched" => {
                cli.record_sched = Some(flag_value(args, "--record-sched FILE", usage))
            }
            "--replay-sched" => {
                cli.replay_sched = Some(flag_value(args, "--replay-sched FILE", usage))
            }
            "--context" => cli.context = true,
            "--report" => cli.report = Some(flag_value(args, "--report FILE", usage)),
            "--metrics" => cli.metrics = Some(flag_value(args, "--metrics FILE", usage)),
            "--trace" => cli.trace = Some(flag_value(args, "--trace FILE", usage)),
            "--trace-stats" => cli.trace_stats = true,
            "--disasm" => cli.disasm = true,
            "--sweep" => {
                let spec: String = flag_value(args, "--sweep SIZES", usage);
                let sizes: Option<Vec<i64>> =
                    spec.split(',').map(|s| s.trim().parse().ok()).collect();
                match sizes {
                    Some(s) if !s.is_empty() => cli.sweep = Some(s),
                    _ => {
                        eprintln!("bad --sweep `{spec}` (comma-separated sizes)");
                        usage()
                    }
                }
            }
            "--decode" => {
                let v: String = flag_value(args, "--decode off|fused", usage);
                cli.decode = Some(v.parse().unwrap_or_else(|e| {
                    eprintln!("--decode: {e}");
                    usage()
                }));
            }
            "--batch" => cli.batch = Some(flag_value(args, "--batch N", usage)),
            "--jobs" => cli.jobs = flag_value(args, "--jobs N", usage),
            "--deadline-ms" => cli.deadline_ms = Some(flag_value(args, "--deadline-ms N", usage)),
            "--max-attempts" => cli.max_attempts = flag_value(args, "--max-attempts N", usage),
            "--diff" => {
                let old = flag_value(args, "--diff OLD NEW", usage);
                cli.diff = Some((old, flag_value(args, "--diff OLD NEW", usage)));
            }
            "--trace-out" => cli.trace_out = Some(flag_value(args, "--trace-out DIR", usage)),
            "--host-faults" => {
                let spec: String = flag_value(args, "--host-faults SPEC", usage);
                match drms::trace::hostio::HostIo::from_spec(&spec) {
                    Ok(io) => {
                        eprintln!("aprof: CHAOS MODE — injecting host faults from `{spec}`");
                        cli.host_io = io;
                    }
                    Err(e) => {
                        eprintln!("aprof: {e}");
                        exit(2)
                    }
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown option `{other}`");
                usage()
            }
        }
    }
    if cli.context && cli.tool != ToolName::Drms {
        eprintln!(
            "--tool cannot be combined with --context (context mode profiles with aprof-drms)"
        );
        exit(2)
    }
    cli
}

fn lookup_workload(name: &str, threads: u32, scale: u32) -> Option<Workload> {
    let w = match name {
        "producer_consumer" => workloads::patterns::producer_consumer(50 * scale as i64),
        "stream_reader" => workloads::patterns::stream_reader(50 * scale as i64),
        "lock_order_inversion" => workloads::patterns::lock_order_inversion(3 * scale as i64),
        "selection_sort" => workloads::sorting::selection_sort_default(12 * scale as i64),
        "minidb" => {
            let sizes: Vec<i64> = (1..=10).map(|i| i * 50 * scale as i64).collect();
            workloads::minidb::minidb_scaling(&sizes)
        }
        "mysqlslap" => workloads::minidb::mysqlslap(threads, 4 + scale, 50 * scale as i64),
        "vips" => workloads::imgpipe::vips(threads.max(2), 10 + 2 * scale as usize, scale),
        "blackscholes" => workloads::parsec::blackscholes(threads, scale),
        "bodytrack" => workloads::parsec::bodytrack(threads, scale),
        "canneal" => workloads::parsec::canneal(threads, scale),
        "dedup" => workloads::parsec::dedup(threads, scale),
        "ferret" => workloads::parsec::ferret(threads, scale),
        "fluidanimate" => workloads::parsec::fluidanimate(threads, scale),
        "streamcluster" => workloads::parsec::streamcluster(threads, scale),
        "swaptions" => workloads::parsec::swaptions(threads, scale),
        "x264" => workloads::parsec::x264(threads, scale),
        "smithwa" => workloads::specomp::smithwa(threads, scale),
        "nab" => workloads::specomp::nab(threads, scale),
        "kdtree" => workloads::specomp::kdtree(threads, scale),
        "botsalgn" => workloads::specomp::botsalgn(threads, scale),
        "md" => workloads::specomp::md(threads, scale),
        "imagick" => workloads::specomp::imagick(threads, scale),
        "swim" => workloads::specomp::swim(threads, scale),
        "bt331" => workloads::specomp::bt331(threads, scale),
        "ilbdc" => workloads::specomp::ilbdc(threads, scale),
        _ => return None,
    };
    Some(w)
}

fn print_routine(w: &Workload, report: &ProfileReport, name: &str, fit: bool) {
    let Some(id) = w.program.routine_by_name(name) else {
        eprintln!("no routine named `{name}` in {}", w.name);
        exit(1);
    };
    let p = report.merged_routine(id);
    if p.calls == 0 {
        println!("{name}: never activated");
        return;
    }
    let rms = CostPlot::of(&p, InputMetric::Rms);
    let drms = CostPlot::of(&p, InputMetric::Drms);
    println!(
        "{name}: {} calls, |rms| = {}, |drms| = {}",
        p.calls,
        rms.len(),
        drms.len()
    );
    println!(
        "input provenance: {} plain, {} thread-induced, {} kernel-induced first reads",
        p.breakdown.plain, p.breakdown.thread_induced, p.breakdown.kernel_induced
    );
    println!(
        "{}",
        ascii_plot(&drms.as_f64(), 60, 12, "worst-case cost vs DRMS")
    );
    if fit {
        println!("rms  fit: {}", rms.fit(0.02));
        println!("drms fit: {}", drms.fit(0.02));
    }
}

fn main() {
    let cli = parse_cli();
    if let Some((old_path, new_path)) = &cli.diff {
        run_diff(old_path, new_path);
        return;
    }
    let Some(ref name) = cli.workload else {
        usage();
    };
    let Some(w) = lookup_workload(name, cli.threads, cli.scale) else {
        eprintln!("unknown workload `{name}`");
        exit(1);
    };
    if cli.disasm {
        print!("{}", disassemble(&w.program));
        return;
    }
    if let Some(sizes) = &cli.sweep {
        run_size_sweep(name, sizes, &cli);
        return;
    }
    let mut config = w.run_config();
    config.policy = cli.policy;
    if let Some(mode) = cli.decode {
        config.decode = mode;
    }
    if let Some(n) = cli.batch {
        config.event_batch = n;
    }
    if let Some(q) = cli.quantum {
        config.quantum = q;
    }
    config.deadline = cli.deadline_ms.map(Duration::from_millis);
    config.faults = cli.faults.clone();
    if let Some(path) = &cli.replay_sched {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            exit(1)
        });
        let sched = drms::trace::sched::from_text(&text).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            exit(1)
        });
        config.policy = SchedPolicy::Replay { relaxed: false };
        config.replay = Some(Arc::new(sched));
    }
    config.record_sched = cli.record_sched.is_some();

    // One profiled run: the session carries the spill and the trace
    // recorder whichever tool profiles, so every mode honours them.
    let mut session = ProfileSession::new(&w.program).config(config);
    if let Some(dir) = &cli.trace_out {
        session = session.trace_dir(dir).trace_io(cli.host_io.clone());
    }
    let mut recorder = (cli.trace.is_some() || cli.trace_stats).then(TraceRecorder::new);
    if let Some(rec) = recorder.as_mut() {
        session = session.tool(rec);
    }
    // Context-sensitive mode wraps the drms profiler; its inner report is
    // the run's report.
    let mut cct = cli.context.then(|| CctProfiler::new(DrmsConfig::full()));
    let run = match (cct.as_mut(), cli.tool) {
        (Some(prof), _) => session.run_with(prof).map(|o| ProfileOutcome {
            report: prof.inner().report().clone(),
            ..o
        }),
        (None, ToolName::Drms) => session.run(),
        (None, ToolName::ExternalOnly) => session.drms(DrmsConfig::external_only()).run(),
        (None, ToolName::Rms) => {
            let mut p = RmsProfiler::new();
            session.run_with(&mut p).map(|o| ProfileOutcome {
                report: p.into_report(),
                ..o
            })
        }
        (None, ToolName::Null) => session.run_with(&mut NullTool),
    };
    // Setup failures exit with their documented code; a failed shard
    // finalize (`--trace-out` on a faulty disk) exits 1, leaving the
    // salvageable shard prefix on disk.
    let outcome = run.unwrap_or_else(|e| {
        match e {
            drms::Error::Run(e) => {
                eprintln!("{}: {e}", w.name);
                exit(run_error_exit_code(&e))
            }
            drms::Error::Io(io_err) => eprintln!("{}: trace spill failed: {io_err}", w.name),
            other => eprintln!("{}: {other}", w.name),
        }
        exit(1)
    });

    if let Some(rec) = recorder {
        let merged = merge_traces(rec.into_traces());
        if cli.trace_stats {
            println!("{}", TraceStats::of(&merged));
        }
        if let Some(path) = &cli.trace {
            atomic_write(Path::new(path), &drms::trace::codec::to_text(&merged))
                .expect("write trace");
            println!("trace written to {path} ({} events)", merged.len());
        }
    }
    if let Some(dir) = &cli.trace_out {
        let frames = outcome.metrics.counter("trace.shard.frames");
        let bytes = outcome.metrics.counter("trace.shard.bytes");
        println!("trace shards written to {dir} ({frames} frames, {bytes} bytes)");
    }
    if let Some(path) = &cli.record_sched {
        let sched = outcome
            .schedule
            .as_ref()
            .expect("--record-sched enables recording");
        atomic_write(Path::new(path), &drms::trace::sched::to_text(sched)).expect("write schedule");
        println!(
            "schedule written to {path} ({} decisions, {} forced preemptions)",
            sched.len(),
            sched.preemption_points()
        );
    }
    if let Some(e) = &outcome.error {
        eprintln!(
            "{}: run aborted ({e}); reporting the partial profile",
            w.name
        );
    }

    let (report, stats) = (&outcome.report, &outcome.stats);
    if let Some(prof) = &cct {
        let focus = cli.focus.as_deref().unwrap_or_else(|| {
            w.focus_name().unwrap_or_else(|| {
                eprintln!("--context needs --focus or a workload with a focus routine");
                exit(1)
            })
        });
        let Some(id) = w.program.routine_by_name(focus) else {
            eprintln!("no routine named `{focus}`");
            exit(1);
        };
        println!("contexts of {focus}:");
        for (ctx, p) in prof.contexts_of(id) {
            let path = prof
                .tree()
                .render(ctx, |r| w.program.routine_name(r).to_owned());
            let plot = CostPlot::of(&p, InputMetric::Drms);
            print!("  {path}: {} calls, {} input sizes", p.calls, plot.len());
            if cli.fit {
                print!(", fit {}", plot.fit(0.02));
            }
            println!();
        }
    } else {
        println!(
            "[{}] {} basic blocks, {} threads, {} syscalls, {} thread switches",
            w.name, stats.basic_blocks, stats.threads, stats.syscalls, stats.thread_switches
        );
        if cli.faults.is_some() || stats.faults.injected() > 0 {
            println!("fault injection: {}", stats.faults);
        }
        println!(
            "dynamic input volume: {:.1}%",
            report.dynamic_input_volume() * 100.0
        );
        println!(
            "{}",
            drms::analysis::report_summary(report, |r| w.program.routine_name(r).to_owned())
        );
        if let Some(focus) = cli.focus.as_deref().or(w.focus_name()) {
            print_routine(&w, report, focus, cli.fit);
        }
    }

    if let Some(path) = &cli.report {
        atomic_write(Path::new(path), &report_io::to_text(report)).expect("write report");
        println!("report written to {path} ({} profiles)", report.len());
    }
    if let Some(path) = &cli.metrics {
        write_metrics(path, &outcome.metrics);
    }
    if let Some(e) = &outcome.error {
        exit(run_error_exit_code(e));
    }
}

/// `--metrics`: audits the registry, then dumps it to `path` —
/// prometheus text for a `.prom` extension, deterministic JSON
/// otherwise. Audit violations are a profiler bug, never workload
/// noise, so they fail the invocation loudly.
fn write_metrics(path: &str, metrics: &Metrics) {
    if let Err(violations) = metrics.audit() {
        eprintln!("metrics audit failed ({} violations):", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        exit(1);
    }
    let rendered = if path.ends_with(".prom") {
        metrics.to_prometheus()
    } else {
        metrics.to_json()
    };
    atomic_write(Path::new(path), &rendered).expect("write metrics");
    println!("metrics written to {path} (audit passed)");
}

/// Maps an aprof workload name onto a sweep family (the sweepable
/// workloads are the ones parameterized by a single size).
fn sweep_family(name: &str) -> Option<&'static str> {
    match name {
        "minidb" => Some("minidb"),
        "mysqlslap" => Some("mysqlslap"),
        "vips" => Some("imgpipe"),
        "stream_reader" => Some("stream"),
        "producer_consumer" => Some("producer-consumer"),
        "selection_sort" => Some("sort"),
        _ => None,
    }
}

/// `--sweep`: fan the workload's size grid across `--jobs` workers
/// under the crash-safe supervisor and print the per-cell summary plus
/// the merged focus plot. Cells that exhaust their retry budget are
/// quarantined and listed, never fatal. With `--metrics`, the
/// grid-merged registry is audited and dumped too. Every cell runs
/// under `--faults`, `--decode` and `--batch`; scheduler options are
/// refused, since each cell keeps its workload's own schedule.
fn run_size_sweep(name: &str, sizes: &[i64], cli: &Cli) {
    let Some(family) = sweep_family(name) else {
        eprintln!(
            "`{name}` is not sweepable (try minidb, mysqlslap, vips, \
             stream_reader, producer_consumer or selection_sort)"
        );
        exit(2);
    };
    if let Some(flag) = &cli.sched_flag {
        eprintln!(
            "{flag} cannot be combined with --sweep (each cell keeps its workload's schedule)"
        );
        exit(2);
    }
    let spec = SweepSpec::new(family, sizes, cli.jobs);
    let opts = SupervisorOptions {
        max_attempts: cli.max_attempts,
        deadline: cli.deadline_ms.map(Duration::from_millis),
        faults: cli.faults.clone(),
        decode: cli.decode,
        event_batch: cli.batch,
        trace_dir: cli.trace_out.as_deref().map(std::path::PathBuf::from),
        io: cli.host_io.clone(),
        ..SupervisorOptions::default()
    };
    let result = run_supervised_with(&spec, &opts, None, &profile_cell);
    println!(
        "[{family}] {} cells in {:.3}s with {} jobs ({} instructions, {} events, {} retries)",
        result.cells.len(),
        result.wall_secs,
        spec.jobs,
        result.instructions(),
        result.events(),
        result.retries()
    );
    for cell in &result.cells {
        let note = cell
            .error
            .as_deref()
            .map(|e| format!(" [aborted: {e}]"))
            .unwrap_or_default();
        println!(
            "  size {:>6} seed {}: {} basic blocks, {} threads{note}",
            cell.size,
            cell.seed,
            cell.metrics.counter("vm.basic_blocks"),
            cell.metrics.gauge("vm.threads")
        );
    }
    for q in &result.quarantined {
        println!(
            "  QUARANTINED size {:>6} seed {} after {} attempts ({} panics): {}",
            q.size, q.seed, q.attempts, q.panics, q.error
        );
    }
    let plot = focus_plot(family, &result.cells, InputMetric::Drms);
    if !plot.points.is_empty() {
        println!(
            "{}",
            ascii_plot(&plot.as_f64(), 60, 12, "worst-case cost vs DRMS")
        );
        if cli.fit {
            println!("drms fit: {}", plot.fit(0.02));
        }
    }
    if let Some(path) = cli.metrics.as_deref() {
        write_metrics(path, &result.merged_metrics());
    }
}

/// Standalone report comparison: load two report_io dumps and print the
/// routines whose profiles changed significantly.
fn run_diff(old_path: &str, new_path: &str) {
    use drms::core::diff::{regressions, RoutineChange};
    let load = |path: &str| -> drms::core::ProfileReport {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            exit(1)
        });
        report_io::from_text(&text).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            exit(1)
        })
    };
    let old = load(old_path);
    let new = load(new_path);
    let changes = drms::core::diff::diff_reports(&old, &new);
    let appeared = changes
        .values()
        .filter(|c| matches!(c, RoutineChange::Appeared))
        .count();
    let disappeared = changes
        .values()
        .filter(|c| matches!(c, RoutineChange::Disappeared))
        .count();
    println!(
        "{} routines compared; {appeared} appeared, {disappeared} disappeared",
        changes.len()
    );
    let regs = regressions(&old, &new, 0.1);
    if regs.is_empty() {
        println!("no significant changes (epsilon 0.1)");
        return;
    }
    for (routine, delta) in regs {
        print!("{routine}: calls {} -> {}", delta.calls.0, delta.calls.1);
        if let Some(r) = delta.cost_ratio() {
            print!(", cost x{r:.2} at shared input");
        }
        println!(
            ", volume {:.1}% -> {:.1}%",
            delta.volume.0 * 100.0,
            delta.volume.1 * 100.0
        );
    }
}
