//! `aprofd` — the profiling service daemon.
//!
//! ```text
//! aprofd --state-dir DIR [--addr 127.0.0.1:0] [--addr-file FILE]
//!        [--workers N] [--queue-cap N] [--tenant-queued N] [--tenant-running N]
//! ```
//!
//! Binds, prints `aprofd listening on <addr>` (and writes the address
//! to `--addr-file` for scripts that bound port 0), restores any
//! journaled jobs found in the state directory, then serves until a
//! graceful drain completes. SIGTERM and `POST /shutdown` both begin
//! the drain: submissions are refused, running jobs finish, queued
//! jobs stay on disk for the next start. SIGKILL is the crash path the
//! journal exists for — restart with the same `--state-dir` and every
//! unfinished job resumes to byte-identical artifacts.

use drms_aprofd::daemon::{serve, Daemon, DaemonConfig};
use drms_aprofd::queue::QueueConfig;
use drms_bench::flag_value;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Set by the SIGTERM handler; polled by the drain watcher thread.
static TERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_sig: i32) {
    TERM.store(true, Ordering::SeqCst);
}

/// Installs `on_term` for SIGTERM (15) via the libc `signal` the Rust
/// runtime already links — the workspace is dependency-free, so no
/// `libc` crate.
fn install_sigterm() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(15, on_term);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: aprofd --state-dir DIR [--addr HOST:PORT] [--addr-file FILE]\n\
         \x20             [--workers N] [--io-threads N] [--queue-cap N] [--tenant-queued N]\n\
         \x20             [--tenant-running N] [--max-conns N] [--read-timeout-ms N]\n\
         \x20             [--poll-timeout-ms N] [--retain N] [--retain-age-ms N]\n\
         \x20             [--host-faults SPEC]\n\
         \n\
         --state-dir DIR      job specs, journals, and artifacts (required)\n\
         --addr HOST:PORT     bind address (default 127.0.0.1:0)\n\
         --addr-file FILE     write the bound address here (for port 0)\n\
         --workers N          concurrent jobs; 0 = admit-only (default 2)\n\
         --io-threads N       connection-handler threads (default 4)\n\
         --queue-cap N        queued jobs before submissions shed (default 64)\n\
         --tenant-queued N    queued jobs per tenant before shed (default 16)\n\
         --tenant-running N   running jobs per tenant (default 2)\n\
         --max-conns N        queued+handled connections; excess shed 503 (default 64)\n\
         --read-timeout-ms N  per-socket read/write + keep-alive idle deadline (default 10000)\n\
         --poll-timeout-ms N  long-poll hold for /jobs/ID/events (default 10000)\n\
         --retain N           keep at most N finished jobs; prune older (default all)\n\
         --retain-age-ms N    prune finished jobs older than N ms (default never)\n\
         --host-faults SPEC   inject host I/O faults (chaos testing), e.g.\n\
         \x20                    'write:enospc:after=4096' or 'fsync:eio:once=2'"
    );
    std::process::exit(2);
}

fn main() {
    let mut state_dir: Option<PathBuf> = None;
    let mut addr = "127.0.0.1:0".to_string();
    let mut addr_file: Option<PathBuf> = None;
    let mut workers = 2usize;
    let mut io_threads = 4usize;
    let mut queue = QueueConfig::default();
    let mut max_connections = 64usize;
    let mut read_timeout_ms = 10_000u64;
    let mut poll_timeout_ms = 10_000u64;
    let mut retain_count: Option<usize> = None;
    let mut retain_age_ms: Option<u64> = None;
    let mut host_faults: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let args = &mut args;
        match arg.as_str() {
            "--state-dir" => state_dir = Some(flag_value(args, "--state-dir DIR", usage)),
            "--addr" => addr = flag_value(args, "--addr HOST:PORT", usage),
            "--addr-file" => addr_file = Some(flag_value(args, "--addr-file FILE", usage)),
            "--workers" => workers = flag_value(args, "--workers N", usage),
            "--io-threads" => io_threads = flag_value(args, "--io-threads N", usage),
            "--queue-cap" => queue.capacity = flag_value(args, "--queue-cap N", usage),
            "--tenant-queued" => {
                queue.tenant_queued_cap = flag_value(args, "--tenant-queued N", usage)
            }
            "--tenant-running" => {
                queue.tenant_running_cap = flag_value(args, "--tenant-running N", usage)
            }
            "--max-conns" => max_connections = flag_value(args, "--max-conns N", usage),
            "--read-timeout-ms" => read_timeout_ms = flag_value(args, "--read-timeout-ms N", usage),
            "--poll-timeout-ms" => poll_timeout_ms = flag_value(args, "--poll-timeout-ms N", usage),
            "--retain" => retain_count = Some(flag_value(args, "--retain N", usage)),
            "--retain-age-ms" => retain_age_ms = Some(flag_value(args, "--retain-age-ms N", usage)),
            "--host-faults" => host_faults = Some(flag_value(args, "--host-faults SPEC", usage)),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage();
            }
        }
    }
    let Some(state_dir) = state_dir else {
        eprintln!("--state-dir is required");
        usage();
    };
    let host_io = match host_faults.as_deref() {
        None => drms::trace::hostio::HostIo::real(),
        Some(spec) => match drms::trace::hostio::HostIo::from_spec(spec) {
            Ok(io) => {
                eprintln!("aprofd: CHAOS MODE — injecting host faults from `{spec}`");
                io
            }
            Err(e) => {
                eprintln!("aprofd: {e}");
                std::process::exit(2);
            }
        },
    };

    install_sigterm();

    let cfg = DaemonConfig {
        workers,
        io_threads,
        queue,
        host_io,
        retain_count,
        retain_age: retain_age_ms.map(std::time::Duration::from_millis),
        max_connections,
        read_timeout: std::time::Duration::from_millis(read_timeout_ms),
        poll_timeout: std::time::Duration::from_millis(poll_timeout_ms),
        ..DaemonConfig::new(state_dir)
    };
    let daemon = match Daemon::new(cfg) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("aprofd: state dir unusable: {e}");
            std::process::exit(1);
        }
    };
    let listener = match std::net::TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("aprofd: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    let bound = listener.local_addr().map(|a| a.to_string()).unwrap_or(addr);
    println!("aprofd listening on {bound}");
    if let Some(path) = addr_file {
        if let Err(e) = drms_bench::artifact::atomic_write(&path, &format!("{bound}\n")) {
            eprintln!("aprofd: cannot write addr file: {e}");
            std::process::exit(1);
        }
    }

    let handles = daemon.spawn_workers();

    // Bridge SIGTERM to the graceful drain.
    {
        let d = Arc::clone(&daemon);
        std::thread::spawn(move || loop {
            if TERM.load(Ordering::SeqCst) {
                d.begin_drain();
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        });
    }

    if let Err(e) = serve(Arc::clone(&daemon), listener) {
        eprintln!("aprofd: accept loop failed: {e}");
        std::process::exit(1);
    }
    for h in handles {
        let _ = h.join();
    }
    println!("aprofd drained");
}
