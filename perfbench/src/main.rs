//! `perfbench` — the drms profiler stack's benchmark.
//!
//! ```text
//! perfbench --workload <hot_loop|induced_input|out_of_core>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run times the workload's set-up in several samples (the median
//! is `setup_s`), computes every reference outside the timed phase,
//! then measures for `--seconds`:
//!
//! * `--trace 0` times the workload end to end and prints the
//!   end-to-end metrics;
//! * `--trace 1` climbs the per-layer ladder (see [`ladder`]) with spans
//!   around every public call and prints the per-layer metrics; the
//!   spans land in `.bench_work/spans/`.
//!
//! Every output is checked; a mismatch counts as a failed operation.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `LEDGER.md` beside this package lists the workloads, the metrics and
//! which layer is predicted to move which metric.

mod cells;
mod ladder;
mod pipeline;
mod service;
mod trace;

use cells::{Prepared, Reference, SetupTimes};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// Set-up samples per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 15;
/// A sample repeats the set-up until it has lasted this long and
/// reports the mean, so that one sample lasts far longer than the
/// host's timer and scheduling noise.
const SETUP_SAMPLE_S: f64 = 0.04;

const USAGE: &str = "usage: perfbench --workload <hot_loop|induced_input|out_of_core> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad()),
            },
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The state of one benchmark run: the tracer, operation accounting,
/// the metrics so far, and the scratch directory.
pub struct Run {
    pub tr: Tracer,
    pub seconds: f64,
    pub work: PathBuf,
    attempted: u64,
    failed: u64,
    failures: BTreeMap<&'static str, u64>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Run {
    /// Accounts one attempted operation; it failed when `problems` is
    /// non-empty.
    pub fn op(&mut self, problems: &[&'static str]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
        }
        for p in problems {
            *self.failures.entry(p).or_default() += 1;
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn result_json(&self) -> String {
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && finite,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Restarts the kernel's peak-RSS record (`VmHWM`) from the current
/// resident set, so that [`peak_rss_mib`] covers only what follows.
fn reset_peak_rss() {
    eprintln!(
        "perfbench: peak RSS of set-up and references {:.1} MiB",
        peak_rss_mib()
    );
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("perfbench: peak RSS not reset, it covers the whole run: {e}");
    }
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A fingerprint of this program's own executable, so that only runs of
/// the same build compare their counts.
fn build_id() -> u64 {
    std::env::current_exe()
        .and_then(std::fs::read)
        .map_or(0, |bytes| drms::sched::fnv1a(&bytes))
}

/// Checks the cells' deterministic counts against those a previous run
/// of the same build, workload and seed recorded in this checkout
/// (traced or not), and records them when none did.
fn check_counts_across_runs(run: &mut Run, args: &Args, prepared: &[Prepared], refs: &[Reference]) {
    let mut text = String::new();
    for (p, r) in prepared.iter().zip(refs) {
        let c = &r.counts;
        let _ = writeln!(
            text,
            "{} {} {} instructions {} events {} suppress_lookups {} suppress_hits {} \
             shadow_bytes {} slices {} transfers {}",
            p.cell.family,
            p.cell.size,
            p.cell.seed,
            c.instructions,
            c.events,
            c.suppress_lookups,
            c.suppress_hits,
            c.shadow_bytes,
            r.slices,
            r.transfers
        );
    }
    let path = Path::new(".bench_work").join(format!(
        "counts-{:016x}-{}-{}.txt",
        build_id(),
        args.workload,
        args.seed
    ));
    match std::fs::read_to_string(&path) {
        Ok(seen) => run.op(if seen == text {
            &[]
        } else {
            &["deterministic counts changed between runs"]
        }),
        Err(_) => {
            let _ = std::fs::write(&path, &text);
        }
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let Some(cells) = cells::cells_of(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload `{}`\n{USAGE}", args.workload);
        std::process::exit(2);
    };
    let work = Path::new(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).expect("scratch directory in the checkout");
    let mut run = Run {
        tr: Tracer::new(args.trace),
        seconds: args.seconds,
        work,
        attempted: 0,
        failed: 0,
        failures: BTreeMap::new(),
        metrics: Vec::new(),
    };

    // Set-up: build and decode every cell and construct its VM, timed
    // in samples of many repetitions. The spans of a traced run come
    // from one more set-up, whose cells the run then uses.
    let mut quiet = Tracer::new(false);
    let mut samples: Vec<SetupTimes> = (0..SETUP_SAMPLES)
        .map(|_| {
            let start = Instant::now();
            let (mut sum, mut reps) = (SetupTimes::default(), 0);
            while reps == 0 || start.elapsed().as_secs_f64() < SETUP_SAMPLE_S {
                sum.add(&cells::prepare(&cells, &mut quiet).1);
                reps += 1;
            }
            sum.mean_of(reps)
        })
        .collect();
    samples.sort_by(|a, b| a.total().total_cmp(&b.total()));
    let setup = samples[samples.len() / 2];
    let setup_s = setup.total();
    let prepared = cells::prepare(&cells, &mut run.tr).0;

    // References, outside the timed phase.
    let start = Instant::now();
    let refs: Vec<Reference> = prepared.iter().map(cells::reference).collect();
    if args.workload == "induced_input" {
        for (i, (p, r)) in prepared.iter().zip(&refs).enumerate() {
            if !cells::smallest_of_family(&cells, i) {
                continue;
            }
            run.op(if cells::naive_agrees(p, &r.report) {
                &[]
            } else {
                &["naive oracle disagrees"]
            });
        }
    }
    check_counts_across_runs(&mut run, &args, &prepared, &refs);
    eprintln!(
        "perfbench: {} seed {}: set-up {setup_s:.6} s, references {:.2} s",
        args.workload,
        args.seed,
        start.elapsed().as_secs_f64()
    );

    if args.trace {
        ladder::ladder(&prepared, &refs, &setup, &mut run);
    } else {
        reset_peak_rss();
        if args.workload == "out_of_core" {
            pipeline::out_of_core_phase(&prepared, &refs, &mut run);
        } else {
            pipeline::live_phase(&prepared, &refs, &mut run);
        }
        run.metric("setup_s", setup_s, "s");
        run.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    }

    let _ = std::fs::remove_dir_all(&run.work);
    if args.trace {
        let dir = Path::new(".bench_work").join("spans");
        let path = dir.join(format!("{}-{}.tsv", args.workload, args.seed));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| run.tr.write_tsv(&path)) {
            eprintln!("perfbench: spans not written: {e}");
        }
    }
    for (name, value, unit) in &run.metrics {
        eprintln!("perfbench: {name:<34} {value:>16.6} {unit}");
    }
    for (what, n) in &run.failures {
        eprintln!("perfbench: FAILED {n}x: {what}");
    }
    println!("{}", run.result_json());
}
