//! End-to-end tests of the `aprofd` and `aprofctl` command lines. Every
//! row is an invalid invocation, so no daemon is ever started and no
//! request is ever sent.

use std::process::Command;

/// Both binaries read flag values with the CLIs' one reader: a
/// malformed value or a zero count is a usage error naming the flag,
/// never a panic, a silent default or a retried request.
#[test]
fn flag_value_errors_exit_2_naming_the_flag() {
    let state = std::env::temp_dir().join(format!("drms-aprofd-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let state_arg = state.to_str().expect("utf-8 path");
    let ctl = env!("CARGO_BIN_EXE_aprofctl");
    let daemon = env!("CARGO_BIN_EXE_aprofd");
    for (bin, args, flag) in [
        (
            ctl,
            &["--addr", "127.0.0.1:1", "--retries", "x", "health"][..],
            "--retries",
        ),
        (
            ctl,
            &["--addr", "127.0.0.1:1", "--retries", "0", "health"],
            "--retries",
        ),
        (daemon, &["--workers", "x"], "--workers"),
        (
            daemon,
            &["--state-dir", state_arg, "--queue-cap", "0"],
            "--queue-cap",
        ),
        (
            daemon,
            &["--state-dir", state_arg, "--tenant-queued", "0"],
            "--tenant-queued",
        ),
        (
            daemon,
            &["--state-dir", state_arg, "--tenant-running", "0"],
            "--tenant-running",
        ),
        (
            daemon,
            &["--state-dir", state_arg, "--io-threads", "0"],
            "--io-threads",
        ),
        (
            daemon,
            &["--state-dir", state_arg, "--max-conns", "0"],
            "--max-conns",
        ),
    ] {
        let out = Command::new(bin).args(args).output().expect("spawn");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(flag), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(!err.contains("transport failed"), "{args:?}: {err}");
    }
    assert!(!state.exists(), "a refused daemon creates no state dir");
}
