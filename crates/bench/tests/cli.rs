//! End-to-end tests of the `aprof` and `repro` command-line binaries.

use std::path::PathBuf;
use std::process::{Command, Output};

fn aprof(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_aprof"))
        .args(args)
        .output()
        .expect("spawn aprof")
}

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

#[test]
fn aprof_profiles_a_workload_with_fit() {
    let out = aprof(&["--workload", "minidb", "--fit", "--scale", "1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("dynamic input volume"));
    assert!(text.contains("mysql_select"), "focus routine shown");
    assert!(text.contains("drms fit: Θ(n)"), "linear fit found:\n{text}");
}

#[test]
fn aprof_rejects_unknown_inputs() {
    assert!(!aprof(&["--workload", "nope"]).status.success());
    assert!(!aprof(&[]).status.success());
    assert!(!aprof(&["--workload", "minidb", "--tool", "bogus"])
        .status
        .success());
    assert!(!aprof(&["--bogus-flag"]).status.success());
}

#[test]
fn aprof_dumps_parseable_reports_and_traces() {
    let dir = std::env::temp_dir().join(format!("drms-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let report: PathBuf = dir.join("out.report");
    let trace: PathBuf = dir.join("out.trace");
    let out = aprof(&[
        "--workload",
        "producer_consumer",
        "--scale",
        "1",
        "--report",
        report.to_str().expect("utf-8 path"),
        "--trace",
        trace.to_str().expect("utf-8 path"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report_text = std::fs::read_to_string(&report).expect("report file");
    let parsed = drms::core::report_io::from_text(&report_text).expect("parse report");
    assert!(!parsed.is_empty());
    let trace_text = std::fs::read_to_string(&trace).expect("trace file");
    let events = drms::trace::codec::from_text(&trace_text).expect("parse trace");
    assert!(!events.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn aprof_disassembles_programs() {
    let out = aprof(&["--workload", "stream_reader", "--disasm"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("routine @"));
    assert!(text.contains("syscall read"));
}

#[test]
fn aprof_context_mode_renders_paths() {
    let out = aprof(&["--workload", "vips", "--context", "--scale", "1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("contexts of im_generate"));
    assert!(text.contains("→ im_generate"));
}

#[test]
fn aprof_rms_tool_misses_dynamic_input() {
    let drms_out = stdout(&aprof(&["--workload", "stream_reader", "--scale", "1"]));
    let rms_out = stdout(&aprof(&[
        "--workload",
        "stream_reader",
        "--scale",
        "1",
        "--tool",
        "aprof",
    ]));
    // The drms run reports a large dynamic input volume, the rms run 0%.
    assert!(
        !drms_out.contains("dynamic input volume: 0.0%"),
        "{drms_out}"
    );
    assert!(rms_out.contains("dynamic input volume: 0.0%"), "{rms_out}");
}

#[test]
fn repro_runs_a_single_experiment_and_writes_data() {
    let dir = std::env::temp_dir().join(format!("drms-repro-{}", std::process::id()));
    let out = repro(&[
        "fig4",
        "--scale",
        "1",
        "--out",
        dir.to_str().expect("utf-8 path"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("Fig 4"));
    assert!(text.contains("fit Θ(n)"), "drms linear fit:\n{text}");
    assert!(dir.join("fig04.dat").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repro_rejects_unknown_experiments() {
    assert!(!repro(&["fig99"]).status.success());
    assert!(!repro(&[]).status.success());
}

#[test]
fn aprof_diff_compares_saved_reports() {
    let dir = std::env::temp_dir().join(format!("drms-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let old = dir.join("rms.report");
    let new = dir.join("drms.report");
    for (tool, path) in [("aprof", &old), ("aprof-drms", &new)] {
        let out = aprof(&[
            "--workload",
            "stream_reader",
            "--scale",
            "1",
            "--tool",
            tool,
            "--report",
            path.to_str().expect("utf-8 path"),
        ]);
        assert!(out.status.success());
    }
    let out = aprof(&["--diff", old.to_str().unwrap(), new.to_str().unwrap()]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("routines compared"));
    assert!(
        text.contains("volume 0.0% -> 9"),
        "the drms run reveals the dynamic workload:\n{text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The `"name": value` counter of a metrics JSON export.
fn json_counter(json: &str, name: &str) -> u64 {
    let key = format!("\"{name}\": ");
    let at = json
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing:\n{json}"))
        + key.len();
    json[at..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("{name} is not a counter:\n{json}"))
}

#[test]
fn aprof_sweep_injects_the_fault_plan_into_every_cell() {
    let dir = std::env::temp_dir().join(format!("drms-sweep-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let metrics = dir.join("sweep.metrics.json");
    let out = aprof(&[
        "--workload",
        "stream_reader",
        "--sweep",
        "8,16",
        "--faults",
        "in:eio",
        "--decode",
        "off",
        "--batch",
        "1",
        "--metrics",
        metrics.to_str().expect("utf-8 path"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&metrics).expect("metrics file");
    assert!(
        json_counter(&json, "faults.device_failures") > 0,
        "the fault plan reached the sweep cells:\n{json}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn aprof_sweep_refuses_scheduler_options_by_name() {
    for flag in [
        "--policy",
        "--sched",
        "--quantum",
        "--record-sched",
        "--replay-sched",
    ] {
        let value = match flag {
            "--policy" | "--sched" => "chaos,seed=7",
            "--quantum" => "3",
            _ => "unused.sched",
        };
        let out = aprof(&["--workload", "stream_reader", "--sweep", "8", flag, value]);
        assert_eq!(out.status.code(), Some(2), "{flag} with --sweep");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag), "{flag}: {err}");
    }
}

#[test]
fn both_clis_reject_the_retired_blocks_decode_mode() {
    let out = aprof(&["--workload", "stream_reader", "--decode", "blocks"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown decode mode `blocks`"));
    let out = repro(&["sweep", "--quick", "--decode", "blocks"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown decode mode `blocks`"));
}

#[test]
fn malformed_fault_specs_exit_2_naming_the_element() {
    for (out, element) in [
        (
            aprof(&["--workload", "minidb", "--faults", "seed=7,fd0:eio:after=9"]),
            "`fd0:eio:after=9`",
        ),
        (
            aprof(&[
                "--workload",
                "minidb",
                "--host-faults",
                "write:eio;write:nope",
            ]),
            "`write:nope`",
        ),
        (
            repro(&[
                "sweep",
                "--quick",
                "--host-faults",
                "seed=1,seed=2,rename:eio",
            ]),
            "`seed=2`",
        ),
    ] {
        assert_eq!(out.status.code(), Some(2));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(element), "{element}: {err}");
    }
}

#[test]
fn repro_sweep_refuses_journal_with_resume() {
    let dir = std::env::temp_dir().join(format!("drms-cli-journal-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("new.journal");
    let resume = dir.join("old.journal");
    let out = repro(&[
        "sweep",
        "--quick",
        "--journal",
        journal.to_str().unwrap(),
        "--resume",
        resume.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--journal") && err.contains("--resume"),
        "{err}"
    );
    assert!(
        !journal.exists(),
        "a refused run must not create the journal"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression: a missing or malformed flag value used to panic (exit
/// 101). It is a usage error like any other: the usage line and exit 2.
#[test]
fn repro_flag_value_errors_exit_2_without_a_panic() {
    for args in [
        &["sweep", "--jobs", "abc"][..],
        &["sweep", "--max-attempts", "x"],
        &["sweep", "--batch"],
        &["sweep", "--out"],
        &["fig4", "--threads", "-1"],
        &["sweep", "--jobs", "0"],
    ] {
        let out = repro(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(err.contains("usage: repro"), "{args:?}: {err}");
    }
}

/// `aprof` reads flag values with the same reader as `repro`: a missing,
/// malformed or zero count is a usage error naming the flag, never a
/// panic or a silent clamp.
#[test]
fn aprof_flag_value_errors_exit_2_naming_the_flag() {
    for (args, flag) in [
        (
            &["--workload", "stream_reader", "--threads", "x"][..],
            "--threads",
        ),
        (&["--workload", "stream_reader", "--scale"], "--scale"),
        (
            &["--workload", "stream_reader", "--sweep", "8", "--jobs", "0"],
            "--jobs",
        ),
    ] {
        let out = aprof(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(flag), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(err.contains("usage: aprof"), "{args:?}: {err}");
    }
}

/// The tool name is checked once, before the mode is picked: an unknown
/// name fails as it does without `--context`, and `--context` refuses
/// any tool but the drms profiler it wraps, naming both flags.
#[test]
fn aprof_context_checks_the_tool_name() {
    for (tool, code, says) in [
        ("bogus", 1, "unknown tool `bogus`"),
        ("aprof", 2, "--tool cannot be combined with --context"),
        ("aprof-drms", 0, ""),
    ] {
        let out = aprof(&[
            "--workload",
            "stream_reader",
            "--scale",
            "1",
            "--context",
            "--tool",
            tool,
        ]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "--tool {tool}: {err}");
        assert!(err.contains(says), "--tool {tool}: {err}");
    }
}

/// `--sweep` profiles every cell with the drms profiler, so it refuses
/// any other tool the way `--context` does; an unknown name still fails
/// as an unknown name.
#[test]
fn aprof_sweep_checks_the_tool_name() {
    for (tool, code, says) in [
        ("bogus", 1, "unknown tool `bogus`"),
        ("aprof", 2, "--tool cannot be combined with --sweep"),
        ("aprof-drms", 0, ""),
    ] {
        let out = aprof(&[
            "--workload",
            "stream_reader",
            "--sweep",
            "8",
            "--tool",
            tool,
        ]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "--tool {tool}: {err}");
        assert!(err.contains(says), "--tool {tool}: {err}");
    }
}

/// Every tool and mode is one session run, so each honours the output
/// flags: the spill replays to the default tool's report, and the
/// context mode's report and schedule are the default run's.
#[test]
fn every_tool_and_mode_honours_the_output_flags() {
    let dir = std::env::temp_dir().join(format!("drms-cli-modes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 path").to_owned();
    let run = |extra: &[&str]| {
        let mut args = vec!["--workload", "producer_consumer", "--scale", "1"];
        args.extend_from_slice(extra);
        let out = aprof(&args);
        assert!(
            out.status.success(),
            "{extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        stdout(&out)
    };
    run(&[
        "--report",
        &path("default.report"),
        "--record-sched",
        &path("default.sched"),
    ]);
    let default_report = std::fs::read(path("default.report")).unwrap();

    for (name, mode) in [
        ("rms", "--tool aprof"),
        ("null", "--tool nulgrind"),
        ("cct", "--context"),
    ] {
        let shards = path(name);
        let mut args: Vec<&str> = mode.split(' ').collect();
        args.extend(["--trace-out", &shards]);
        run(&args);
        let written = std::fs::read_dir(&shards)
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.starts_with("shard-") && n.ends_with(".bin"))
            .count();
        assert!(written >= 2, "{mode}: {written} shard files");
        let replayed = path(&format!("{name}.replayed"));
        let out = repro(&["replay-shards", &shards, "--report", &replayed]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            std::fs::read(&replayed).unwrap() == default_report,
            "{mode}: the spill replays to the default tool's report"
        );
    }

    let text = run(&[
        "--context",
        "--report",
        &path("cct.report"),
        "--metrics",
        &path("cct.metrics.json"),
        "--record-sched",
        &path("cct.sched"),
    ]);
    assert!(std::fs::read(path("cct.report")).unwrap() == default_report);
    assert_eq!(
        std::fs::read(path("cct.sched")).unwrap(),
        std::fs::read(path("default.sched")).unwrap()
    );
    assert!(text.contains("(audit passed)"), "{text}");
    assert!(std::fs::metadata(path("cct.metrics.json")).unwrap().len() > 0);
    std::fs::remove_dir_all(&dir).ok();
}
