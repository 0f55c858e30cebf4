//! Experiment harness shared by the `repro` binary and the Criterion
//! benches: run workloads under each tool, measure slowdown and space,
//! and regenerate the series behind every table and figure of the paper.

pub mod artifact;
pub mod supervisor;
pub mod sweep;

use drms::analysis::{Measurement, OverheadTable};
use drms::core::{DrmsConfig, DrmsProfiler, RmsProfiler};
use drms::tools::{CallgrindTool, HelgrindTool, MemcheckTool};
use drms::trace::Metrics;
use drms::vm::{NullTool, RunError, RunStats, Tool, Vm};
use drms::workloads::Workload;
use std::str::FromStr;
use std::time::Instant;

/// The tool lineup of Table 1, in the paper's column order.
pub const TOOLS: [&str; 6] = [
    "nulgrind",
    "memcheck",
    "callgrind",
    "helgrind",
    "aprof",
    "aprof-drms",
];

/// Runs `workload` uninstrumented ("native") and returns `(secs, stats)`.
///
/// # Panics
/// Panics if the guest program fails: harness workloads are expected to
/// be well-formed.
pub fn run_native(w: &Workload) -> (f64, RunStats) {
    let (secs, _, stats) = run_tool_with(w, &mut NullTool);
    (secs, stats)
}

/// Runs `workload` under a statically-known tool, returning `(secs,
/// shadow bytes, stats)`.
///
/// This is the monomorphized hot path: the tool type is fixed at the
/// call site, so the VM's per-event dispatch compiles to direct calls —
/// no `dyn Tool` vtable in the loop.
///
/// # Panics
/// Panics on failing guest programs.
pub fn run_tool_with<T: Tool>(w: &Workload, tool: &mut T) -> (f64, u64, RunStats) {
    let mut vm = Vm::new(&w.program, w.run_config()).expect("valid workload");
    let start = Instant::now();
    let stats = vm.run(tool).expect("instrumented run");
    let secs = start.elapsed().as_secs_f64();
    (secs, tool.shadow_bytes(), stats)
}

/// Runs `workload` under the named tool (see [`TOOLS`]), returning
/// `(secs, shadow bytes, stats)`.
///
/// Dispatches on the name **once**, then hands the concrete tool to the
/// monomorphized [`run_tool_with`] — the measured run itself carries no
/// dynamic dispatch.
///
/// # Panics
/// Panics on unknown tool names or failing guest programs.
pub fn run_tool(w: &Workload, tool_name: &str) -> (f64, u64, RunStats) {
    match tool_name {
        "nulgrind" => run_tool_with(w, &mut NullTool),
        "memcheck" => run_tool_with(w, &mut MemcheckTool::for_program(&w.program)),
        "callgrind" => run_tool_with(w, &mut CallgrindTool::new()),
        "helgrind" => run_tool_with(w, &mut HelgrindTool::new()),
        "aprof" => run_tool_with(w, &mut RmsProfiler::new()),
        "aprof-drms" => run_tool_with(w, &mut DrmsProfiler::new(DrmsConfig::full())),
        other => panic!("unknown tool `{other}`"),
    }
}

/// Measures every tool on every workload of `suite`, filling an
/// [`OverheadTable`] under the given suite label. Each cell is the best
/// of `repeats` runs (to tame timer noise at these small scales).
pub fn measure_suite(table: &mut OverheadTable, label: &str, suite: &[Workload], repeats: u32) {
    measure_suite_observed(table, label, suite, repeats, &mut Metrics::new());
}

/// Like [`measure_suite`], but also folds per-tool overhead accounting
/// into `metrics`, so Table 1 can be regenerated from a live run's
/// metrics export:
///
/// * deterministic `tool.<tool>.shadow_bytes` gauges (summed over the
///   suite's workloads — gauge merges are additive) and
///   `tool.<tool>.runs` counters;
/// * wall-clock dispatch time per tool in the **timings** section
///   (`<label>.<tool>.secs`, plus `<label>.native.secs`), which only
///   [`Metrics::to_json_with_timings`] renders — the default export
///   stays byte-deterministic.
pub fn measure_suite_observed(
    table: &mut OverheadTable,
    label: &str,
    suite: &[Workload],
    repeats: u32,
    metrics: &mut Metrics,
) {
    let mut native_secs = 0.0;
    let mut tool_secs: Vec<f64> = vec![0.0; TOOLS.len()];
    let mut tool_shadow: Vec<u64> = vec![0; TOOLS.len()];
    for w in suite {
        let mut native = f64::INFINITY;
        let mut guest_bytes = 0;
        for _ in 0..repeats.max(1) {
            let (secs, stats) = run_native(w);
            native = native.min(secs);
            guest_bytes = stats.guest_bytes;
        }
        native_secs += native;
        for (ti, tool) in TOOLS.iter().enumerate() {
            let mut best = f64::INFINITY;
            let mut shadow = 0;
            for _ in 0..repeats.max(1) {
                let (secs, bytes, _) = run_tool(w, tool);
                best = best.min(secs);
                shadow = bytes;
            }
            tool_secs[ti] += best;
            tool_shadow[ti] += shadow;
            metrics.inc(format!("tool.{tool}.runs"));
            table.record(
                label,
                tool,
                &w.name,
                Measurement {
                    tool_seconds: best,
                    native_seconds: native,
                    shadow_bytes: shadow,
                    guest_bytes,
                },
            );
        }
    }
    metrics.set_timing(format!("{label}.native.secs"), native_secs);
    for (ti, tool) in TOOLS.iter().enumerate() {
        metrics.set_timing(format!("{label}.{tool}.secs"), tool_secs[ti]);
        metrics.set_gauge(format!("tool.{tool}.shadow_bytes"), tool_shadow[ti]);
    }
}

/// Why each count flag of the CLIs refuses 0.
const AT_LEAST_ONE: [(&str, &str); 10] = [
    ("--jobs", "0 would start no worker"),
    ("--max-attempts", "0 would never run a cell"),
    ("--deadline-ms", "0 expires before the run starts"),
    ("--batch", "0 could never buffer an event"),
    ("--retries", "0 would never send the request"),
    ("--queue-cap", "0 would shed every submission"),
    ("--tenant-queued", "0 would shed every submission"),
    ("--tenant-running", "0 would never run a job"),
    ("--io-threads", "0 would never handle a connection"),
    ("--max-conns", "0 would shed every connection"),
];

/// The value of flag `what` (its name and operand, e.g. `--jobs N`): the
/// next argument of `args`, parsed. A missing or malformed value, or 0
/// for a count that must be at least 1, is a usage error: the reason on
/// stderr, then the CLI's `usage`, which exits 2.
pub fn flag_value<T: FromStr>(
    args: &mut impl Iterator<Item = String>,
    what: &str,
    usage: fn() -> !,
) -> T {
    let Some(v) = args.next() else {
        eprintln!("missing value for {what}");
        usage()
    };
    let flag = what.split(' ').next().unwrap_or(what);
    if let Some((_, why)) = AT_LEAST_ONE.iter().find(|(f, _)| *f == flag) {
        if v.parse::<u64>() == Ok(0) {
            eprintln!("{flag} must be >= 1 ({why})");
            usage()
        }
    }
    v.parse().unwrap_or_else(|_| {
        eprintln!("bad value `{v}` for {what}");
        usage()
    })
}

/// Renders an error with its `source()` chain: the error on the first
/// line, then one `  caused by: …` line per source.
pub fn render_error_chain(err: &dyn std::error::Error) -> String {
    use std::fmt::Write as _;
    let mut out = format!("{err}\n");
    let mut src = err.source();
    while let Some(e) = src {
        let _ = writeln!(out, "  caused by: {e}");
        src = e.source();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms::workloads::patterns;

    #[test]
    fn run_tool_covers_all_tools() {
        let w = patterns::producer_consumer(4);
        for tool in TOOLS {
            let (secs, _, stats) = run_tool(&w, tool);
            assert!(secs >= 0.0);
            assert!(stats.basic_blocks > 0, "{tool}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown tool")]
    fn unknown_tool_panics() {
        let w = patterns::producer_consumer(2);
        let _ = run_tool(&w, "bogus");
    }

    #[test]
    fn measure_suite_fills_table() {
        let mut table = OverheadTable::new();
        let suite = vec![patterns::producer_consumer(4), patterns::stream_reader(4)];
        measure_suite(&mut table, "patterns", &suite, 1);
        assert_eq!(table.len(), TOOLS.len() * suite.len());
        for tool in TOOLS {
            assert!(table.mean_slowdown("patterns", tool) > 0.0);
            assert!(table.mean_space("patterns", tool) >= 1.0);
        }
    }

    #[test]
    fn observed_measurement_feeds_table_and_metrics() {
        let mut table = OverheadTable::new();
        let mut metrics = drms::trace::Metrics::new();
        let suite = vec![patterns::stream_reader(4)];
        measure_suite_observed(&mut table, "patterns", &suite, 1, &mut metrics);
        assert_eq!(table.len(), TOOLS.len());
        assert_eq!(metrics.audit(), Ok(()));
        for tool in TOOLS {
            assert_eq!(metrics.counter(&format!("tool.{tool}.runs")), 1);
            assert!(
                metrics.timing(&format!("patterns.{tool}.secs")).is_some(),
                "{tool} wall-clock recorded"
            );
        }
        assert!(metrics.gauge("tool.aprof-drms.shadow_bytes") > 0);
        assert!(
            !metrics.to_json().contains(".secs"),
            "wall-clock stays out of the deterministic export"
        );
        assert!(metrics
            .to_json_with_timings()
            .contains("patterns.native.secs"));
    }
}

/// Process exit code for a guest abort, one distinct code per failure
/// class so scripts and CI can dispatch on `$?` without parsing stderr:
///
/// | code | abort reason |
/// |---|---|
/// | 3 | invalid guest program ([`RunError::Validate`]) |
/// | 4 | deadlock ([`RunError::Deadlock`]) |
/// | 5 | watchdog budget — instruction count or wall-clock deadline ([`RunError::InstructionLimit`] / [`RunError::DeadlineExceeded`]) |
/// | 6 | corrupt guest stack ([`RunError::CorruptStack`]) |
/// | 7 | schedule replay failed ([`RunError::ScheduleMissing`] / [`RunError::ScheduleDiverged`]) |
/// | 8 | any other guest error (bad address, division by zero, misused mutex, …) |
///
/// Codes 0–2 are reserved for success, generic I/O failures and usage
/// errors respectively.
pub fn run_error_exit_code(e: &RunError) -> i32 {
    // Exhaustive on purpose: a new RunError variant must pick its exit
    // code here (and in the table above) or the build fails — the
    // wildcard this replaced silently bucketed new failure classes
    // into 8, letting the docs and the mapping drift apart.
    match e {
        RunError::Validate(_) => 3,
        RunError::Deadlock { .. } => 4,
        RunError::InstructionLimit { .. } | RunError::DeadlineExceeded { .. } => 5,
        RunError::CorruptStack { .. } => 6,
        RunError::ScheduleMissing | RunError::ScheduleDiverged { .. } => 7,
        RunError::DivisionByZero { .. }
        | RunError::BadAddress { .. }
        | RunError::MutexNotOwned { .. }
        | RunError::MutexReentry { .. }
        | RunError::BadThreadId { .. } => 8,
    }
}

#[cfg(test)]
mod exit_code_tests {
    use super::run_error_exit_code;
    use drms::trace::{RoutineId, ThreadId};
    use drms::vm::{RunError, ValidateError};

    /// One instance of every [`RunError`] variant. Adding a variant to
    /// the enum without adding it here (and to the mapping's doc table)
    /// leaves the new variant untested; the exhaustive match in
    /// [`run_error_exit_code`] already refuses to compile until the
    /// mapping itself is decided.
    fn every_variant() -> Vec<(RunError, i32)> {
        vec![
            (RunError::Validate(ValidateError::BadMain), 3),
            (RunError::Deadlock { blocked: vec![] }, 4),
            (RunError::InstructionLimit { limit: 1 }, 5),
            (RunError::DeadlineExceeded { millis: 100 }, 5),
            (
                RunError::CorruptStack {
                    thread: ThreadId::MAIN,
                },
                6,
            ),
            (RunError::ScheduleMissing, 7),
            (
                RunError::ScheduleDiverged {
                    slice: 0,
                    reason: String::new(),
                },
                7,
            ),
            (
                RunError::DivisionByZero {
                    routine: RoutineId::new(0),
                },
                8,
            ),
            (RunError::BadAddress { value: -1 }, 8),
            (
                RunError::MutexNotOwned {
                    mutex: 0,
                    thread: ThreadId::MAIN,
                },
                8,
            ),
            (
                RunError::MutexReentry {
                    mutex: 0,
                    thread: ThreadId::MAIN,
                },
                8,
            ),
            (RunError::BadThreadId { value: 7 }, 8),
        ]
    }

    #[test]
    fn every_failure_class_has_a_distinct_documented_code() {
        let cases = every_variant();
        assert_eq!(cases.len(), 12, "one case per RunError variant");
        for (err, code) in cases {
            let got = run_error_exit_code(&err);
            assert_eq!(got, code, "{err}");
            assert!((3..=8).contains(&got), "documented range is 3–8: {err}");
        }
    }
}
