//! Chaos and hardening suite for the daemon: disk-full shedding,
//! slow-loris and oversize-request defense, the connection cap, and
//! retention GC surviving restarts.
//!
//! The storage faults are injected through the same seeded
//! [`HostIo`] plans `aprofd --host-faults` accepts; the network abuse
//! is real sockets doing what a hostile or broken client would do.

use drms::trace::hostio::HostIo;
use drms_aprofd::client::Client;
use drms_aprofd::daemon::{serve, Daemon, DaemonConfig, DISK_FULL_RETRY_MS};
use drms_aprofd::spec::{job_id, JobSpec};
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const SPEC: &str = "tenant alice\nfamily stream\nsizes 4,6\nseeds 1,2\njobs 2\n";

fn state_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("drms-chaosd-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("state dir");
    dir
}

struct Server {
    daemon: Arc<Daemon>,
    addr: String,
    threads: Vec<JoinHandle<()>>,
}

fn start_with(cfg: DaemonConfig) -> Server {
    let daemon = Daemon::new(cfg).expect("daemon");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let mut threads = daemon.spawn_workers();
    let d = Arc::clone(&daemon);
    threads.push(std::thread::spawn(move || {
        serve(d, listener).expect("serve");
    }));
    Server {
        daemon,
        addr,
        threads,
    }
}

fn start(dir: &Path, workers: usize) -> Server {
    start_with(DaemonConfig {
        workers,
        ..DaemonConfig::new(dir.to_path_buf())
    })
}

impl Server {
    fn client(&self) -> Client {
        let mut c = Client::new(self.addr.clone());
        c.backoff_base_ms = 0;
        c
    }

    fn stop(self) {
        self.daemon.begin_drain();
        for t in self.threads {
            t.join().expect("daemon thread");
        }
    }
}

fn submit(server: &Server, spec: &str) -> String {
    let reply = server
        .client()
        .request("POST", "/jobs", spec)
        .expect("submit");
    assert_eq!(reply.status, 200, "{}", reply.body);
    reply.body.trim().to_string()
}

fn status_of(server: &Server, id: &str) -> (u16, String) {
    let reply = server
        .client()
        .request("GET", &format!("/jobs/{id}"), "")
        .expect("status");
    (reply.status, reply.body)
}

fn wait_done(server: &Server, id: &str) {
    for _ in 0..600 {
        let (code, body) = status_of(server, id);
        assert_eq!(code, 200, "{body}");
        match body.lines().find_map(|l| l.strip_prefix("state ")) {
            Some("done") => return,
            Some("failed") => panic!("job failed:\n{body}"),
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    panic!("job {id} never finished");
}

/// Raw-socket round trip: send `request` bytes, read until the server
/// closes, return the whole response text.
fn raw(addr: &str, request: &[u8]) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(request).expect("send");
    let mut out = String::new();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let _ = s.read_to_string(&mut out);
    out
}

/// Disk-full: the spec persist fails typed, the daemon sheds 507 with
/// the deterministic retry hint, the queue slot comes back, the counter
/// holds (the retry mints the *same* id), and the queue survives a
/// restart.
#[test]
fn disk_full_sheds_507_and_the_retried_submission_mints_the_same_id() {
    let dir = state_dir("disk-full");
    // The first temp-file creation (= the first submission's spec
    // persist) hits ENOSPC; everything after succeeds.
    let s = start_with(DaemonConfig {
        workers: 0,
        host_io: HostIo::from_spec("create:enospc:once=1").expect("plan"),
        ..DaemonConfig::new(dir.clone())
    });
    let mut one_shot = s.client();
    one_shot.attempts = 1;
    match one_shot.request("POST", "/jobs", SPEC) {
        Err(drms_aprofd::client::ClientError::Shed(reply)) => {
            assert_eq!(reply.status, 507, "{}", reply.body);
            assert_eq!(reply.retry_after_ms, Some(DISK_FULL_RETRY_MS));
            assert!(
                reply.body.contains("state disk unavailable"),
                "{}",
                reply.body
            );
            assert!(reply.body.contains("injected host fault"), "{}", reply.body);
        }
        other => panic!("expected a 507 shed, got {other:?}"),
    }
    // Nothing half-written, no phantom queue entry.
    let health = s.client().request("GET", "/healthz", "").expect("health");
    assert!(health.body.contains("queued 0"), "{}", health.body);

    // Space "returns" (the once-fault is spent): the retry succeeds and
    // the id is the one the first attempt would have produced — the
    // counter did not advance past the failed persist.
    let id = submit(&s, SPEC);
    assert_eq!(id, job_id(&JobSpec::parse(SPEC).unwrap(), 1));
    s.stop();

    // The admitted job was durable despite the earlier fault: a clean
    // restart still has it queued.
    let s2 = start(&dir, 0);
    let (code, body) = status_of(&s2, &id);
    assert_eq!(code, 200, "{body}");
    assert!(body.contains("state queued"), "{body}");
    s2.stop();
}

/// Slow loris: a client that sends half a request line and stalls gets
/// a typed 408 when the read deadline expires — and the daemon stays
/// responsive to honest clients throughout.
#[test]
fn slow_loris_gets_a_408_and_the_daemon_stays_responsive() {
    let dir = state_dir("loris");
    let s = start_with(DaemonConfig {
        workers: 0,
        read_timeout: Duration::from_millis(300),
        ..DaemonConfig::new(dir)
    });

    let mut loris = TcpStream::connect(&s.addr).expect("connect");
    loris.write_all(b"GET /heal").expect("partial request");

    // While the loris stalls, an honest health check still answers.
    let health = s.client().request("GET", "/healthz", "").expect("health");
    assert_eq!(health.status, 200);

    let mut out = String::new();
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let _ = loris.read_to_string(&mut out);
    assert!(out.starts_with("HTTP/1.1 408"), "got: {out:?}");
    assert!(out.contains("read deadline expired"), "got: {out:?}");

    let metrics = s.client().request("GET", "/metrics", "").expect("metrics");
    assert!(
        metrics.body.contains("aprofd_http_timeouts 1"),
        "{}",
        metrics.body
    );
    s.stop();
}

/// Oversized requests are refused typed (413), not buffered: a giant
/// header line, too many headers, and an oversized body are all caps.
#[test]
fn oversized_requests_are_refused_with_413() {
    let dir = state_dir("toolarge");
    let s = start(&dir, 0);

    let giant_header = format!(
        "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "a".repeat(8 * 1024)
    );
    let out = raw(&s.addr, giant_header.as_bytes());
    assert!(out.starts_with("HTTP/1.1 413"), "got: {out:?}");

    let giant_body = format!(
        "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        10 * 1024 * 1024
    );
    let out = raw(&s.addr, giant_body.as_bytes());
    assert!(out.starts_with("HTTP/1.1 413"), "got: {out:?}");

    let metrics = s.client().request("GET", "/metrics", "").expect("metrics");
    assert!(
        metrics.body.contains("aprofd_http_too_large 2"),
        "{}",
        metrics.body
    );
    s.stop();
}

/// The connection cap sheds excess connections at the door with a 503
/// instead of spawning unbounded handler threads.
#[test]
fn connection_cap_sheds_excess_connections_with_503() {
    let dir = state_dir("conncap");
    let s = start_with(DaemonConfig {
        workers: 0,
        max_connections: 1,
        read_timeout: Duration::from_secs(5),
        ..DaemonConfig::new(dir)
    });

    // Occupy the only slot with a connection that never completes its
    // request (its handler blocks in the read until the deadline).
    let mut hog = TcpStream::connect(&s.addr).expect("connect");
    hog.write_all(b"GET /heal").expect("partial request");
    // Let the accept loop register the hog before probing the cap.
    std::thread::sleep(Duration::from_millis(200));

    let out = raw(&s.addr, b"GET /healthz HTTP/1.1\r\n\r\n");
    assert!(out.starts_with("HTTP/1.1 503"), "got: {out:?}");
    assert!(out.contains("connection limit"), "got: {out:?}");
    assert!(out.contains("X-Retry-After-Ms: 250"), "got: {out:?}");
    drop(hog);

    // The slot frees once the hog is gone; honest requests flow again.
    let health = s.client().request("GET", "/healthz", "").expect("health");
    assert_eq!(health.status, 200);
    let metrics = s.client().request("GET", "/metrics", "").expect("metrics");
    assert!(
        metrics.body.contains("aprofd_http_conn_refused"),
        "{}",
        metrics.body
    );
    s.stop();
}

/// Regression for the slot leak: a handler that panics mid-request
/// must return its `max_connections` slot (the drop guard runs during
/// unwind) and be counted — with a cap of one, three consecutive
/// panics would wedge the daemon forever if any slot leaked.
#[test]
fn a_panicking_handler_returns_its_slot_and_is_counted() {
    let dir = state_dir("panic");
    let s = start_with(DaemonConfig {
        workers: 0,
        max_connections: 1,
        debug_endpoints: true,
        ..DaemonConfig::new(dir)
    });
    for round in 1..=3 {
        let out = raw(&s.addr, b"GET /debug/panic HTTP/1.1\r\n\r\n");
        assert_eq!(
            out, "",
            "a panicked handler answers nothing (round {round})"
        );
        // The freed slot must serve the very next connection. The
        // client absorbs the tiny window between socket close and the
        // guard's drop by honoring the 503's retry hint.
        let health = s.client().request("GET", "/healthz", "").expect("health");
        assert_eq!(health.status, 200, "round {round}: {}", health.body);
    }
    let metrics = s.client().request("GET", "/metrics", "").expect("metrics");
    assert!(
        metrics.body.contains("aprofd_http_handler_panics 3"),
        "{}",
        metrics.body
    );
    s.stop();
}

/// The `Threads:` line of `/proc/self/status` — the whole test
/// process, which is fine: we only assert the *delta* across churn.
fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("proc status")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads line")
        .trim()
        .parse()
        .expect("thread count")
}

/// The io-thread pool keeps the thread count flat: forty short-lived
/// connections must not grow the process by even one thread (the old
/// design spawned one per connection).
#[test]
fn the_io_pool_keeps_thread_count_flat_under_connection_churn() {
    let dir = state_dir("threads");
    let s = start_with(DaemonConfig {
        workers: 0,
        io_threads: 2,
        ..DaemonConfig::new(dir)
    });
    // Warm the pool so its threads are in the baseline.
    let health = s.client().request("GET", "/healthz", "").expect("health");
    assert_eq!(health.status, 200);
    let before = thread_count();
    for _ in 0..40 {
        let out = raw(
            &s.addr,
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(out.starts_with("HTTP/1.1 200"), "got: {out:?}");
    }
    let after = thread_count();
    assert!(
        after <= before + 2,
        "connection churn grew the thread count: {before} -> {after}"
    );
    // And the chaos endpoint is gated: without `debug_endpoints` it
    // does not exist.
    let out = raw(&s.addr, b"GET /debug/panic HTTP/1.1\r\n\r\n");
    assert!(out.starts_with("HTTP/1.1 404"), "got: {out:?}");
    s.stop();
}

/// Reads one `Content-Length`-framed response off a keep-alive
/// connection: status line, headers, exactly `Content-Length` body
/// bytes — leaving the stream positioned at the next response.
fn read_framed(reader: &mut std::io::BufReader<TcpStream>) -> (String, String, String) {
    use std::io::BufRead as _;
    let mut status = String::new();
    reader.read_line(&mut status).expect("status line");
    let mut headers = String::new();
    let mut len = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        if line.trim_end().is_empty() {
            break;
        }
        let lower = line.to_ascii_lowercase();
        if let Some(v) = lower.trim_end().strip_prefix("content-length:") {
            len = v.trim().parse().expect("content length");
        }
        headers.push_str(&line);
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).expect("body");
    (status, headers, String::from_utf8(body).expect("utf8 body"))
}

/// Keep-alive soak: one raw connection serves many sequential requests
/// under a connection cap of one — proof the daemon stays fully
/// responsive through a single persistent socket — and `Connection:
/// close` ends it on request.
#[test]
fn one_keep_alive_connection_serves_many_requests_under_the_cap() {
    let dir = state_dir("keepalive");
    let s = start_with(DaemonConfig {
        workers: 0,
        max_connections: 1,
        ..DaemonConfig::new(dir)
    });

    let stream = TcpStream::connect(&s.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = std::io::BufReader::new(stream);
    for i in 0..50 {
        writer
            .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
            .expect("send");
        let (status, headers, body) = read_framed(&mut reader);
        assert!(status.starts_with("HTTP/1.1 200"), "req {i}: {status:?}");
        assert!(
            headers
                .to_ascii_lowercase()
                .contains("connection: keep-alive"),
            "req {i}: {headers:?}"
        );
        assert!(body.starts_with("ok\n"), "req {i}: {body:?}");
    }
    // An explicit close is honored: the reply says so and the server
    // hangs up after it.
    writer
        .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .expect("send");
    let (status, headers, _) = read_framed(&mut reader);
    assert!(status.starts_with("HTTP/1.1 200"), "{status:?}");
    assert!(
        headers.to_ascii_lowercase().contains("connection: close"),
        "{headers:?}"
    );
    let mut rest = String::new();
    let _ = reader.read_to_string(&mut rest);
    assert_eq!(rest, "", "the server must close after Connection: close");
    s.stop();
}

/// Retention GC: finished jobs beyond `retain_count` are tombstoned and
/// pruned, stay gone across a restart (the startup scan honors the
/// tombstone journal), the submission counter continues past pruned
/// jobs, and an age-based policy prunes the rest at startup.
#[test]
fn gc_pruned_jobs_stay_gone_across_restart_and_the_counter_advances() {
    let dir = state_dir("gc");
    let s = start_with(DaemonConfig {
        workers: 1,
        retain_count: Some(1),
        ..DaemonConfig::new(dir.clone())
    });
    let id1 = submit(&s, SPEC);
    wait_done(&s, &id1);
    let id2 = submit(&s, SPEC);
    wait_done(&s, &id2);
    let id3 = submit(&s, SPEC);
    wait_done(&s, &id3);
    assert_ne!(id1, id2);
    assert_ne!(id2, id3);

    // retain_count = 1: after the third finishes, the two oldest are
    // tombstoned + pruned.
    let (code, body) = status_of(&s, &id1);
    assert_eq!(code, 404, "{body}");
    let (code, body) = status_of(&s, &id2);
    assert_eq!(code, 404, "{body}");
    let (code, _) = status_of(&s, &id3);
    assert_eq!(code, 200);
    let metrics = s.client().request("GET", "/metrics", "").expect("metrics");
    assert!(
        metrics.body.contains("aprofd_jobs_gc_pruned 2"),
        "{}",
        metrics.body
    );
    s.stop();
    assert!(
        !dir.join(format!("job-{id1}.spec")).exists(),
        "pruned job files must be deleted"
    );
    assert!(dir.join("gc.tombstones").exists());

    // Restart: the tombstones keep the pruned jobs gone, and the
    // counter continues past them — a fresh submission of the same spec
    // mints a *new* id, never a pruned one.
    let s2 = start(&dir, 0);
    let (code, _) = status_of(&s2, &id1);
    assert_eq!(code, 404, "pruned jobs must not resurrect on restart");
    let (code, _) = status_of(&s2, &id3);
    assert_eq!(code, 200, "retained jobs survive the restart");
    let id4 = submit(&s2, SPEC);
    assert_eq!(id4, job_id(&JobSpec::parse(SPEC).unwrap(), 4));
    for old in [&id1, &id2, &id3] {
        assert_ne!(&id4, old, "the counter re-minted a pruned or live id");
    }
    s2.stop();

    // Age-based retention at startup: with retain_age = 0 every
    // finished job is immediately out of policy and pruned by the
    // startup GC pass.
    let s3 = start_with(DaemonConfig {
        workers: 0,
        retain_age: Some(Duration::from_millis(0)),
        ..DaemonConfig::new(dir.clone())
    });
    let (code, _) = status_of(&s3, &id3);
    assert_eq!(code, 404, "age-expired jobs are pruned at startup");
    s3.stop();
}

/// A non-UTF-8 byte after the last tombstone tears only the tail: the
/// startup scan still honors every intact tombstone (the pruned job's
/// leftover spec is swept, not resurrected), and the counter continues
/// past its submission number.
#[test]
fn a_non_utf8_tombstone_tail_keeps_every_intact_tombstone() {
    let dir = state_dir("gc-non-utf8");
    let spec = JobSpec::parse(SPEC).unwrap();
    let pruned = job_id(&spec, 5);
    // The crash window between tombstone and deletion: the spec is
    // still on disk, and the tombstone journal has a damaged tail.
    std::fs::write(
        dir.join(format!("job-{pruned}.spec")),
        format!("{}submitted 5\n", spec.canonical_text()),
    )
    .unwrap();
    let mut tombstones = drms::trace::journal::to_text(&[drms::trace::journal::JournalRecord {
        meta: format!("gc {pruned}"),
        payload: "submitted 5\n".to_string(),
    }])
    .into_bytes();
    tombstones.push(0xFF);
    std::fs::write(dir.join("gc.tombstones"), tombstones).unwrap();

    let s = start(&dir, 0);
    let (code, body) = status_of(&s, &pruned);
    assert_eq!(code, 404, "a tombstoned job resurrected:\n{body}");
    assert!(!dir.join(format!("job-{pruned}.spec")).exists());
    assert_eq!(submit(&s, SPEC), job_id(&spec, 6));
    s.stop();
}

/// `trace_dir on`: the job spills per-cell trace shards under
/// `job-<id>.shards/`, the shards replay offline into a clean drms
/// report, and retention GC removes the shard directory with the rest
/// of the job's files.
#[test]
fn trace_shards_are_retained_as_artifacts_and_gc_removes_them() {
    let dir = state_dir("trace-shards");
    let s = start_with(DaemonConfig {
        workers: 1,
        retain_count: Some(1),
        ..DaemonConfig::new(dir.clone())
    });
    const TRACED: &str = "tenant alice\nfamily stream\nsizes 4\nseeds 1\ntrace_dir on\n";
    let id = submit(&s, TRACED);
    wait_done(&s, &id);

    let shards = dir.join(format!("job-{id}.shards"));
    assert!(shards.is_dir(), "traced job leaves a shard directory");
    let cell = shards.join("cell-stream-4-1");
    assert!(cell.is_dir(), "one spill directory per sweep cell");
    assert!(cell.join("MANIFEST").exists());

    // The spilled stream replays offline into a complete profile.
    let set = drms::trace::ShardSet::load(&cell, 2).expect("load shards");
    assert_eq!(set.dropped, 0, "clean shards salvage everything");
    assert!(set.total > 0);
    let mut prof = drms::core::DrmsProfiler::new(drms::core::DrmsConfig::full());
    drms::vm::replay_shards_into(&set, &mut prof);
    assert!(!prof.report().is_empty());

    // retain_count = 1: the next finished job pushes this one out of
    // policy, and the GC removes the shard directory too.
    let id2 = submit(&s, SPEC);
    wait_done(&s, &id2);
    let (code, _) = status_of(&s, &id);
    assert_eq!(code, 404, "traced job is pruned");
    assert!(
        !shards.exists(),
        "GC must remove the shard directory with the job"
    );
    s.stop();
}
