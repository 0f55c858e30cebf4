//! `aprofctl` — line client for the `aprofd` profiling service.
//!
//! ```text
//! aprofctl [--addr HOST:PORT | --addr-file FILE] [--retries N] CMD ...
//!
//!   submit [SPEC-FILE]        submit a job spec (stdin when omitted); prints the id
//!   status ID                 one job's status lines
//!   wait ID [--timeout-ms N]  poll until the job finishes
//!   report ID [--since N]     snapshot (or delta) report of a live or done job
//!   watch ID                  stream finished cells over one keep-alive connection
//!   metrics [ID]              daemon (or per-job) metrics as Prometheus text
//!   health                    daemon health lines
//!   shutdown                  begin the graceful drain
//! ```
//!
//! `watch` drives the `/jobs/ID/events` long-poll: the daemon holds
//! each request until new cells finish (or its poll timeout passes)
//! and the client re-arms from the returned cursor — all over a single
//! persistent connection, so a dashboard costs one socket, not one per
//! poll.
//!
//! Retries are the supervisor's discipline: exponential backoff with
//! seeded FNV-1a jitter, honoring the server's `X-Retry-After-Ms` when
//! a submission is shed.
//!
//! Exit codes: 0 ok · 1 transport/daemon failure · 2 usage ·
//! 3 shed after retries · 4 job failed · 5 timed out (a `wait` that
//! never finished, or a hung daemon blowing the per-request socket
//! deadline on every retry).

use drms_aprofd::client::{Client, ClientError};
use drms_bench::flag_value;
use std::io::Read as _;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: aprofctl [--addr HOST:PORT | --addr-file FILE] [--retries N]\n\
         \x20               [--timeout-ms N] CMD ...\n\
         \n\
         commands:\n\
         \x20 submit [SPEC-FILE]        submit a job spec (stdin when omitted); prints the id\n\
         \x20 status ID                 one job's status lines\n\
         \x20 wait ID [--timeout-ms N]  poll until the job finishes (default 120000)\n\
         \x20 report ID [--since N]     snapshot (or delta) report\n\
         \x20 watch ID                  stream finished cells until the job ends\n\
         \x20 metrics [ID]              daemon (or per-job) metrics\n\
         \x20 health                    daemon health lines\n\
         \x20 shutdown                  begin the graceful drain"
    );
    std::process::exit(2);
}

fn fail(msg: impl std::fmt::Display, code: i32) -> ! {
    eprintln!("aprofctl: {msg}");
    std::process::exit(code);
}

/// Runs one request, mapping terminal outcomes to exit codes: shed
/// exhaustion is 3 (distinct, scriptable), a hung daemon blowing the
/// socket deadline on every retry is 5 (timeout), transport failure
/// is 1. The socket deadline means a wedged daemon can never wedge the
/// client with it.
fn run(client: &Client, method: &str, path: &str, body: &str) -> drms_aprofd::http::Reply {
    match client.request(method, path, body) {
        Ok(reply) => reply,
        Err(e @ ClientError::Shed(_)) => fail(e, 3),
        Err(e @ ClientError::Timeout(_)) => fail(
            format!(
                "{e} (daemon hung or unreachable; socket deadline {:?})",
                client.timeout
            ),
            5,
        ),
        Err(e) => fail(e, 1),
    }
}

/// The `state` line of a status body, if present.
fn state_of(body: &str) -> Option<&str> {
    body.lines().find_map(|l| l.strip_prefix("state "))
}

fn main() {
    let mut addr: Option<String> = None;
    let mut retries: Option<u32> = None;
    let mut timeout_ms: Option<u64> = None;
    let mut rest: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let args = &mut args;
        match arg.as_str() {
            "--addr" => addr = Some(flag_value(args, "--addr HOST:PORT", usage)),
            "--addr-file" => {
                let path: String = flag_value(args, "--addr-file FILE", usage);
                match std::fs::read_to_string(&path) {
                    Ok(text) => addr = Some(text.trim().to_string()),
                    Err(e) => fail(format!("cannot read addr file `{path}`: {e}"), 1),
                }
            }
            "--retries" => retries = Some(flag_value(args, "--retries N", usage)),
            "--timeout-ms" if rest.is_empty() => {
                timeout_ms = Some(flag_value(args, "--timeout-ms N", usage))
            }
            "--help" | "-h" => usage(),
            _ => {
                rest.push(arg);
                rest.extend(args.by_ref());
            }
        }
    }
    let Some(addr) = addr else {
        fail("--addr or --addr-file is required", 2);
    };
    let mut client = Client::new(addr);
    if let Some(n) = retries {
        client.attempts = n;
    }
    if let Some(ms) = timeout_ms {
        client.timeout = Duration::from_millis(ms.max(1));
    }

    let mut rest = rest.into_iter();
    let cmd = rest.next().unwrap_or_else(|| usage());
    match cmd.as_str() {
        "submit" => {
            let spec = match rest.next() {
                Some(path) => std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| fail(format!("cannot read `{path}`: {e}"), 1)),
                None => {
                    let mut buf = String::new();
                    std::io::stdin()
                        .read_to_string(&mut buf)
                        .unwrap_or_else(|e| fail(format!("cannot read stdin: {e}"), 1));
                    buf
                }
            };
            let reply = run(&client, "POST", "/jobs", &spec);
            if reply.status != 200 {
                fail(reply.body.trim_end(), 1);
            }
            print!("{}", reply.body);
        }
        "status" => {
            let id = rest.next().unwrap_or_else(|| usage());
            let reply = run(&client, "GET", &format!("/jobs/{id}"), "");
            if reply.status != 200 {
                fail(reply.body.trim_end(), 1);
            }
            print!("{}", reply.body);
        }
        "wait" => {
            let id = rest.next().unwrap_or_else(|| usage());
            let mut timeout_ms = 120_000u64;
            if rest.next().as_deref() == Some("--timeout-ms") {
                timeout_ms = flag_value(&mut rest, "--timeout-ms N", usage);
            }
            let deadline = Instant::now() + Duration::from_millis(timeout_ms);
            loop {
                let reply = run(&client, "GET", &format!("/jobs/{id}"), "");
                if reply.status != 200 {
                    fail(reply.body.trim_end(), 1);
                }
                match state_of(&reply.body) {
                    Some("done") => {
                        print!("{}", reply.body);
                        return;
                    }
                    Some("failed") => {
                        eprint!("{}", reply.body);
                        std::process::exit(4);
                    }
                    _ => {}
                }
                if Instant::now() >= deadline {
                    fail(
                        format!("job {id} still not finished after {timeout_ms} ms"),
                        5,
                    );
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        }
        "report" => {
            let id = rest.next().unwrap_or_else(|| usage());
            let mut path = format!("/jobs/{id}/report");
            if rest.next().as_deref() == Some("--since") {
                let n: u64 = flag_value(&mut rest, "--since N", usage);
                path.push_str(&format!("?since={n}"));
            }
            let reply = run(&client, "GET", &path, "");
            if reply.status != 200 {
                fail(reply.body.trim_end(), 1);
            }
            print!("{}", reply.body);
        }
        "watch" => {
            let id = rest.next().unwrap_or_else(|| usage());
            // One persistent connection for the whole watch: each
            // long-poll re-arms from the cursor the daemon returned.
            let mut conn = drms_aprofd::http::Conn::new(client.addr.clone(), client.timeout);
            let mut since = 0u64;
            loop {
                let path = format!("/jobs/{id}/events?since={since}");
                let reply = match conn.request("GET", &path, "") {
                    Ok(reply) => reply,
                    Err(e) => fail(format!("watch transport failed: {e}"), 1),
                };
                if reply.status != 200 {
                    fail(reply.body.trim_end(), 1);
                }
                let mut state = None;
                for line in reply.body.lines() {
                    if let Some(cursor) = line.strip_prefix("cursor ") {
                        since = cursor.parse().unwrap_or(since);
                    } else if let Some(s) = line.strip_prefix("state ") {
                        state = Some(s.to_string());
                    } else {
                        println!("{line}");
                    }
                }
                match state.as_deref() {
                    Some("done") => {
                        println!("state done");
                        return;
                    }
                    Some("failed") => {
                        eprintln!("state failed");
                        std::process::exit(4);
                    }
                    _ => {}
                }
            }
        }
        "metrics" => {
            let path = match rest.next() {
                Some(id) => format!("/jobs/{id}/metrics"),
                None => "/metrics".to_string(),
            };
            let reply = run(&client, "GET", &path, "");
            if reply.status != 200 {
                fail(reply.body.trim_end(), 1);
            }
            print!("{}", reply.body);
        }
        "health" => {
            let reply = run(&client, "GET", "/healthz", "");
            if reply.status != 200 {
                fail(reply.body.trim_end(), 1);
            }
            print!("{}", reply.body);
        }
        "shutdown" => {
            let reply = run(&client, "POST", "/shutdown", "");
            if reply.status != 200 {
                fail(reply.body.trim_end(), 1);
            }
            print!("{}", reply.body);
        }
        _ => usage(),
    }
}
