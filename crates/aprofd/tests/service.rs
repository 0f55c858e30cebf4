//! End-to-end service tests: an in-process daemon (the same `serve`
//! loop and worker pool the `aprofd` binary runs) exercised over real
//! sockets by the same retrying `Client` that backs `aprofctl`.

use drms::trace::HostIo;
use drms_aprofd::client::Client;
use drms_aprofd::daemon::{serve, Daemon, DaemonConfig, JobState};
use drms_aprofd::queue::QueueConfig;
use drms_aprofd::spec::{job_id, JobSpec};
use drms_bench::supervisor::{run_supervised_with, JournalWriter};
use drms_bench::sweep::{FamilyBench, SweepBench};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

fn state_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("drms-aprofd-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("state dir");
    dir
}

/// One running in-process daemon: the worker pool plus the accept loop,
/// reachable at `addr`. `stop` drains and joins everything.
struct Server {
    daemon: Arc<Daemon>,
    addr: String,
    threads: Vec<JoinHandle<()>>,
}

fn start(dir: &Path, workers: usize, queue: QueueConfig) -> Server {
    let daemon = Daemon::new(DaemonConfig {
        workers,
        queue,
        ..DaemonConfig::new(dir.to_path_buf())
    })
    .expect("daemon");
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

impl Server {
    fn client(&self) -> Client {
        let mut c = Client::new(self.addr.clone());
        c.backoff_base_ms = 0; // tests never sleep on transport blips
        c
    }

    fn stop(self) {
        self.daemon.begin_drain();
        for t in self.threads {
            t.join().expect("daemon thread");
        }
    }
}

const SPEC: &str = "tenant alice\nfamily stream\nsizes 4,6\nseeds 1,2\njobs 2\n";

fn submit(server: &Server, spec: &str) -> String {
    let reply = server
        .client()
        .request("POST", "/jobs", spec)
        .expect("submit");
    assert_eq!(reply.status, 200, "{}", reply.body);
    reply.body.trim().to_string()
}

fn wait_done(server: &Server, id: &str) -> String {
    let client = server.client();
    for _ in 0..600 {
        let reply = client
            .request("GET", &format!("/jobs/{id}"), "")
            .expect("status");
        assert_eq!(reply.status, 200, "{}", reply.body);
        let state = reply
            .body
            .lines()
            .find_map(|l| l.strip_prefix("state "))
            .expect("state line")
            .to_string();
        match state.as_str() {
            "done" => return reply.body,
            "failed" => panic!("job failed:\n{}", reply.body),
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    panic!("job {id} never finished");
}

/// The bench artifact an uninterrupted daemon run must match: the same
/// spec run directly through the supervisor, journal and all.
fn direct_bench(dir: &Path, spec_text: &str) -> String {
    let spec = JobSpec::parse(spec_text).expect("spec");
    let mut writer =
        JournalWriter::create_with(&HostIo::real(), &dir.join("direct.journal")).expect("journal");
    let result = run_supervised_with(
        &spec.sweep_spec(),
        &spec.supervisor_options(),
        Some(&mut writer),
        &drms_bench::supervisor::profile_cell,
    );
    SweepBench {
        jobs: spec.jobs,
        resumed: false,
        families: vec![FamilyBench::from_resumed(result)],
    }
    .to_json()
}

#[test]
fn job_ids_are_deterministic_across_daemon_generations() {
    let dir_a = state_dir("ids-a");
    let dir_b = state_dir("ids-b");
    let a = start(&dir_a, 0, QueueConfig::default());
    let b = start(&dir_b, 0, QueueConfig::default());
    let id_a = submit(&a, SPEC);
    let id_b = submit(&b, SPEC);
    assert_eq!(id_a, id_b, "same spec, same counter, same id");
    assert_eq!(
        id_a,
        job_id(&JobSpec::parse(SPEC).unwrap(), 1),
        "the id is the documented FNV-1a derivation"
    );
    // A second submission of the same spec gets a distinct, still
    // deterministic id: the counter is part of the key.
    let id_a2 = submit(&a, SPEC);
    let id_b2 = submit(&b, SPEC);
    assert_ne!(id_a, id_a2);
    assert_eq!(id_a2, id_b2);
    a.stop();
    b.stop();
}

#[test]
fn zero_budgets_are_rejected_with_a_400() {
    let dir = state_dir("reject");
    let s = start(&dir, 0, QueueConfig::default());
    for bad in [
        "family stream\nsizes 4\ndeadline_ms 0\n",
        "family stream\nsizes 4\nmax_attempts 0\n",
    ] {
        let reply = s.client().request("POST", "/jobs", bad).expect("reply");
        assert_eq!(reply.status, 400, "{}", reply.body);
        assert!(reply.body.contains("rejected"), "{}", reply.body);
    }
    // Nothing was persisted for rejected specs.
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
    s.stop();
}

#[test]
fn a_submitted_job_runs_to_the_same_artifact_as_a_direct_sweep() {
    let dir = state_dir("run");
    let s = start(&dir, 2, QueueConfig::default());
    let id = submit(&s, SPEC);
    let status = wait_done(&s, id.as_str());
    assert!(status.contains("cells 4/4"), "{status}");
    assert!(status.contains("fingerprint "), "{status}");

    let bench = std::fs::read_to_string(dir.join(format!("job-{id}.bench.json"))).unwrap();
    assert_eq!(
        bench,
        direct_bench(&dir, SPEC),
        "daemon adds nothing to the artifact"
    );

    // The finished report artifact serves over HTTP, and per-job
    // metrics stream as Prometheus text without a merge error.
    let report = s
        .client()
        .request("GET", &format!("/jobs/{id}/report"), "")
        .expect("report");
    assert_eq!(report.status, 200);
    assert!(
        report.body.contains("## cell family=stream"),
        "{}",
        report.body
    );
    let metrics = s
        .client()
        .request("GET", &format!("/jobs/{id}/metrics"), "")
        .expect("metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics.body.contains("drms_"), "{}", metrics.body);
    s.stop();
}

#[test]
fn full_queue_sheds_with_a_typed_retry_after() {
    let dir = state_dir("shed");
    let s = start(
        &dir,
        0, // admit-only: queued jobs never drain, so the cap is reachable
        QueueConfig {
            capacity: 2,
            ..QueueConfig::default()
        },
    );
    submit(&s, SPEC);
    submit(&s, SPEC);
    let mut one_shot = s.client();
    one_shot.attempts = 1;
    match one_shot.request("POST", "/jobs", SPEC) {
        Err(drms_aprofd::client::ClientError::Shed(reply)) => {
            assert_eq!(reply.status, 429);
            assert_eq!(reply.retry_after_ms, Some(500), "deterministic hint");
            assert!(reply.body.contains("queue full"), "{}", reply.body);
        }
        other => panic!("expected a shed, got {other:?}"),
    }
    // The shed submission left no trace; the health lines still show
    // exactly the two admitted jobs.
    let health = s.client().request("GET", "/healthz", "").expect("health");
    assert!(health.body.contains("queued 2"), "{}", health.body);
    s.stop();
}

#[test]
fn tenant_quota_sheds_only_the_noisy_tenant() {
    let dir = state_dir("tenant");
    let s = start(
        &dir,
        0,
        QueueConfig {
            capacity: 64,
            tenant_queued_cap: 1,
            ..QueueConfig::default()
        },
    );
    submit(&s, SPEC);
    let mut one_shot = s.client();
    one_shot.attempts = 1;
    match one_shot.request("POST", "/jobs", SPEC) {
        Err(drms_aprofd::client::ClientError::Shed(reply)) => {
            assert_eq!(reply.status, 429);
            assert!(reply.body.contains("tenant quota"), "{}", reply.body);
        }
        other => panic!("expected a tenant shed, got {other:?}"),
    }
    let quiet = SPEC.replace("tenant alice", "tenant bob");
    submit(&s, &quiet);
    s.stop();
}

#[test]
fn draining_refuses_submissions_but_finishes_the_queue_on_restart() {
    let dir = state_dir("drain");
    let s = start(&dir, 0, QueueConfig::default());
    let id = submit(&s, SPEC);
    // With no workers the drain completes the moment it begins (no job
    // mid-run) and the listener closes, so probe the refusal at the
    // handler — the same code path a connection would hit mid-drain.
    s.daemon.begin_drain();
    let refusal = s.daemon.handle(&drms_aprofd::http::Request {
        method: "POST".into(),
        path: "/jobs".into(),
        query: String::new(),
        body: SPEC.into(),
        close: false,
    });
    assert_eq!(refusal.status, 503);
    assert_eq!(refusal.retry_after_ms, Some(1000));
    assert!(refusal.body.contains("draining"), "{}", refusal.body);
    s.stop();

    // The queued job survived the drain on disk; a restarted daemon
    // (with workers this time) runs it without resubmission.
    let s2 = start(&dir, 2, QueueConfig::default());
    wait_done(&s2, id.as_str());
    s2.stop();
}

/// The crash path, in-process: a job's journal is torn mid-record (as a
/// `kill -9` mid-append leaves it), the daemon restarts, and the
/// resumed run must produce byte-identical artifacts to an
/// uninterrupted one.
#[test]
fn restart_resumes_a_torn_journal_to_identical_artifacts() {
    let baseline_dir = state_dir("resume-baseline");
    let crashed_dir = state_dir("resume-crashed");

    // Uninterrupted daemon run: the artifact to match.
    let s = start(&baseline_dir, 1, QueueConfig::default());
    let id = submit(&s, SPEC);
    wait_done(&s, id.as_str());
    s.stop();
    let baseline_bench =
        std::fs::read_to_string(baseline_dir.join(format!("job-{id}.bench.json"))).unwrap();
    let baseline_metrics =
        std::fs::read_to_string(baseline_dir.join(format!("job-{id}.metrics.json"))).unwrap();

    // "Crashed" state: the durable spec plus a journal torn mid-record.
    // (Deterministic job IDs make the two state dirs line up by path.)
    std::fs::copy(
        baseline_dir.join(format!("job-{id}.spec")),
        crashed_dir.join(format!("job-{id}.spec")),
    )
    .unwrap();
    let full = std::fs::read_to_string(baseline_dir.join(format!("job-{id}.journal"))).unwrap();
    assert!(full.len() > 40, "journal has content to tear");
    std::fs::write(
        crashed_dir.join(format!("job-{id}.journal")),
        &full[..full.len() - 23],
    )
    .unwrap();

    // Restart over the crashed state: the job is restored (not
    // resubmitted), resumed, and finishes to the same bytes.
    let s2 = start(&crashed_dir, 1, QueueConfig::default());
    let status = wait_done(&s2, id.as_str());
    assert!(status.contains("resumed 1"), "{status}");
    let health = s2.client().request("GET", "/healthz", "").expect("health");
    assert!(health.body.contains("done 1"), "{}", health.body);
    s2.stop();

    let resumed_bench =
        std::fs::read_to_string(crashed_dir.join(format!("job-{id}.bench.json"))).unwrap();
    let resumed_metrics =
        std::fs::read_to_string(crashed_dir.join(format!("job-{id}.metrics.json"))).unwrap();
    assert_eq!(resumed_bench, baseline_bench, "bench artifact diverged");
    assert_eq!(
        resumed_metrics, baseline_metrics,
        "metrics artifact diverged"
    );
}

#[test]
fn live_jobs_serve_snapshot_and_delta_reports_from_the_journal() {
    let dir = state_dir("live");
    // workers = 0: the job stays queued, so "live" views must cope with
    // an empty journal, then with a finished one after a restart.
    let s = start(&dir, 0, QueueConfig::default());
    let id = submit(&s, SPEC);
    let snap = s
        .client()
        .request("GET", &format!("/jobs/{id}/report"), "")
        .expect("snapshot");
    assert_eq!(snap.status, 200);
    assert!(snap.body.contains("cursor 0"), "{}", snap.body);
    assert!(snap.body.contains("snapshot stream: 0/4"), "{}", snap.body);
    s.stop();

    let s2 = start(&dir, 1, QueueConfig::default());
    wait_done(&s2, id.as_str());
    let delta = s2
        .client()
        .request("GET", &format!("/jobs/{id}/report?since=3"), "")
        .expect("delta");
    assert_eq!(delta.status, 200);
    assert!(delta.body.contains("cursor 4"), "{}", delta.body);
    assert_eq!(
        delta
            .body
            .lines()
            .filter(|l| l.starts_with("cell "))
            .count(),
        1,
        "delta serves only the cells past the cursor:\n{}",
        delta.body
    );
    s2.stop();
}

/// The tentpole end-to-end: a one-worker daemon running a low-priority
/// sweep gets a high-priority job. The running job must yield at its
/// next grid-cell boundary, the high job must finish first, and the
/// preempted job — resumed from its own journal — must still produce
/// artifacts byte-identical to an uninterrupted run.
#[test]
fn a_high_priority_job_preempts_and_the_yielded_job_resumes_identically() {
    let dir = state_dir("preempt");
    // Enough cells that the low job is still mid-grid when the high
    // one arrives: 5 sizes x 4 seeds = 20 cell boundaries to yield at,
    // and cells big enough that the sweep outlasts the high job's
    // admission (smaller ones finish the whole grid in milliseconds).
    let low_spec = "tenant alice\nfamily stream\nsizes 4096,6144,8192,10240,12288\n\
                    seeds 1,2,3,4\njobs 1\npriority 0\n";
    let high_spec = "tenant bob\nfamily stream\nsizes 4\nseeds 1\njobs 1\npriority 9\n";

    let s = start(&dir, 1, QueueConfig::default());
    let low = submit(&s, low_spec);
    // Wait until the low job is actually on the worker.
    let client = s.client();
    for i in 0.. {
        let body = client
            .request("GET", &format!("/jobs/{low}"), "")
            .expect("status")
            .body;
        match body.lines().find_map(|l| l.strip_prefix("state ")) {
            Some("running") => break,
            Some("done") => panic!("low job finished before the high one could preempt"),
            _ if i > 2000 => panic!("low job never started:\n{body}"),
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    let high = submit(&s, high_spec);

    // Record which job reaches `done` first.
    let mut first_done = None;
    for i in 0.. {
        for id in [&high, &low] {
            let body = client
                .request("GET", &format!("/jobs/{id}"), "")
                .expect("status")
                .body;
            match body.lines().find_map(|l| l.strip_prefix("state ")) {
                Some("done") => {
                    first_done.get_or_insert_with(|| id.to_string());
                }
                Some("failed") => panic!("job {id} failed:\n{body}"),
                _ => {}
            }
        }
        if first_done.is_some() {
            break;
        }
        assert!(i < 6000, "neither job finished");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        first_done.as_deref(),
        Some(high.as_str()),
        "the high-priority job must finish before the preempted sweep"
    );
    let low_status = wait_done(&s, low.as_str());
    assert!(
        low_status.contains("resumed 1"),
        "the preempted job re-dispatches through the resume path:\n{low_status}"
    );

    // The preemption itself is observable and counted.
    let metrics = client.request("GET", "/metrics", "").expect("metrics").body;
    let counter = |name: &str| {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(0)
    };
    assert!(
        counter("drms_aprofd_jobs_preempt_signals ") >= 1,
        "no preempt signal was raised:\n{metrics}"
    );
    assert!(
        counter("drms_aprofd_jobs_preempted ") >= 1,
        "the low job never yielded:\n{metrics}"
    );
    s.stop();

    // Byte-identity: the preempted-then-resumed artifact matches the
    // same spec swept directly, journal checkpoint and all.
    let bench = std::fs::read_to_string(dir.join(format!("job-{low}.bench.json"))).unwrap();
    assert_eq!(
        bench,
        direct_bench(&dir, low_spec),
        "preemption must not change the artifact"
    );
}

/// The `/jobs/ID/events` long-poll: a queued job's poll parks until the
/// daemon's poll timeout, and a finished job answers immediately with
/// every cell past the cursor plus its terminal state.
#[test]
fn events_long_poll_parks_then_streams_cells_past_the_cursor() {
    let dir = state_dir("events");
    let daemon = Daemon::new(DaemonConfig {
        workers: 0,
        poll_timeout: Duration::from_millis(120),
        ..DaemonConfig::new(dir.clone())
    })
    .expect("daemon");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let mut threads = daemon.spawn_workers();
    let d = Arc::clone(&daemon);
    threads.push(std::thread::spawn(move || {
        serve(d, listener).expect("serve");
    }));
    let s = Server {
        daemon,
        addr,
        threads,
    };

    let id = submit(&s, SPEC);
    // No workers: the poll has nothing to report and must park until
    // the configured timeout, then answer with an unchanged cursor.
    let t0 = std::time::Instant::now();
    let reply = s
        .client()
        .request("GET", &format!("/jobs/{id}/events?since=0"), "")
        .expect("events");
    assert!(
        t0.elapsed() >= Duration::from_millis(100),
        "the poll answered without parking"
    );
    assert_eq!(reply.status, 200);
    assert!(reply.body.contains("cursor 0"), "{}", reply.body);
    assert!(reply.body.contains("state queued"), "{}", reply.body);
    assert!(
        s.client()
            .request("GET", "/jobs/nope/events", "")
            .expect("missing")
            .status
            == 404,
        "unknown jobs 404"
    );
    s.stop();

    // Restart with a worker: once the job finishes, the poll answers
    // immediately with all four cells, and a cursor-advanced poll
    // serves only the tail.
    let s2 = start(&dir, 1, QueueConfig::default());
    wait_done(&s2, id.as_str());
    let full = s2
        .client()
        .request("GET", &format!("/jobs/{id}/events?since=0"), "")
        .expect("events");
    assert!(full.body.contains("cursor 4"), "{}", full.body);
    assert!(full.body.contains("state done"), "{}", full.body);
    assert_eq!(
        full.body.lines().filter(|l| l.starts_with("cell ")).count(),
        4,
        "{}",
        full.body
    );
    let tail = s2
        .client()
        .request("GET", &format!("/jobs/{id}/events?since=3"), "")
        .expect("events");
    assert_eq!(
        tail.body.lines().filter(|l| l.starts_with("cell ")).count(),
        1,
        "the cursor skips already-delivered cells:\n{}",
        tail.body
    );
    s2.stop();
}

#[test]
fn restored_entries_report_their_state_without_a_network_restart() {
    // Pure store-level check of Daemon::new's scan: done markers load
    // as records, unfinished specs re-queue.
    let dir = state_dir("scan");
    let s = start(&dir, 1, QueueConfig::default());
    let done_id = submit(&s, SPEC);
    wait_done(&s, done_id.as_str());
    s.stop();

    let queued_spec = SPEC.replace("tenant alice", "tenant carol");
    let s2 = start(&dir, 0, QueueConfig::default());
    let queued_id = submit(&s2, &queued_spec);
    s2.stop();

    let d = Daemon::new(DaemonConfig {
        workers: 0,
        ..DaemonConfig::new(dir.clone())
    })
    .expect("daemon");
    let status = |id: &str| {
        d.handle(&drms_aprofd::http::Request {
            method: "GET".into(),
            path: format!("/jobs/{id}"),
            query: String::new(),
            body: String::new(),
            close: false,
        })
    };
    assert!(status(&done_id).body.contains("state done"));
    assert!(
        status(&done_id).body.contains("fingerprint "),
        "done summaries reload from the marker"
    );
    assert!(status(&queued_id).body.contains("state queued"));
    assert_eq!(
        JobState::Queued.as_str(),
        "queued",
        "state names are part of the wire format"
    );
}

#[test]
fn a_spec_persisted_with_retired_dispatch_keys_loads_as_a_failed_job() {
    // A state dir written by a daemon whose job specs still carried the
    // `decode` and `event_batch` keys: the spec no longer parses, so the
    // daemon must start anyway and list the job as failed.
    let dir = state_dir("unloadable");
    let id = "5eedc0de00000007";
    std::fs::write(
        dir.join(format!("job-{id}.spec")),
        "tenant default\nfamily stream\nsizes 4\nseeds 1\njobs 1\npriority 0\n\
         max_attempts 3\ndeadline_ms -\nmax_instructions -\ndecode -\nevent_batch -\n\
         trace_dir -\nsubmitted 7\n",
    )
    .expect("write spec");
    let d = Daemon::new(DaemonConfig {
        workers: 0,
        ..DaemonConfig::new(dir.clone())
    })
    .expect("the daemon starts despite the unloadable spec");
    let get = |path: &str| {
        d.handle(&drms_aprofd::http::Request {
            method: "GET".into(),
            path: path.into(),
            query: String::new(),
            body: String::new(),
            close: false,
        })
    };
    let status = get(&format!("/jobs/{id}"));
    assert_eq!(status.status, 200, "{}", status.body);
    assert!(status.body.contains("state failed"), "{}", status.body);
    assert!(
        status.body.contains("error unloadable spec:") && status.body.contains("decode"),
        "{}",
        status.body
    );
    let metrics = get("/metrics").body;
    assert!(
        metrics.contains("drms_aprofd_jobs_unloadable 1\n"),
        "{metrics}"
    );
    assert!(get("/healthz").body.contains("jobs 1\n"));

    // New submissions continue past the unloadable job's number.
    let reply = d.handle(&drms_aprofd::http::Request {
        method: "POST".into(),
        path: "/jobs".into(),
        query: String::new(),
        body: SPEC.into(),
        close: false,
    });
    assert_eq!(reply.status, 200, "{}", reply.body);
    let new_id = reply.body.trim().to_string();
    assert!(get(&format!("/jobs/{new_id}"))
        .body
        .contains("submitted 8\n"));
}
