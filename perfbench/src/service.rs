//! The in-process `aprofd` the ladder's last two rungs drive: start-up,
//! one job over keep-alive HTTP, and the direct supervised run each job
//! is checked against.

use crate::trace::Tracer;
use drms::trace::hostio::HostOp;
use drms::trace::HostIo;
use drms_aprofd::http::Request;
use drms_aprofd::{serve, Conn, Daemon, DaemonConfig, JobSpec};
use drms_bench::supervisor::{profile_cell, run_supervised_with, JournalWriter};
use drms_bench::sweep::{FamilyBench, SweepBench};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shed replies a client absorbs per job before giving it up.
const MAX_SHED_RETRIES: u32 = 20;

/// A daemon over `state_dir` with `workers` job workers, and a loopback
/// listener for it: the service's set-up.
pub fn start_daemon(state_dir: &Path, workers: usize) -> (Arc<Daemon>, TcpListener) {
    let _ = std::fs::remove_dir_all(state_dir);
    let cfg = DaemonConfig {
        workers,
        ..DaemonConfig::new(state_dir)
    };
    let daemon = Daemon::new(cfg).expect("aprofd state dir");
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback listener");
    (daemon, listener)
}

/// A daemon that admits jobs but never runs them, with room for every
/// submission a run makes: the target of `Daemon::handle` timings.
pub fn admit_only_daemon(state_dir: &Path) -> Arc<Daemon> {
    let _ = std::fs::remove_dir_all(state_dir);
    let mut cfg = DaemonConfig::new(state_dir);
    cfg.workers = 0;
    cfg.queue.capacity = 1 << 20;
    cfg.queue.tenant_queued_cap = 1 << 20;
    Daemon::new(cfg).expect("aprofd state dir")
}

/// A serving daemon: its worker pool and accept loop.
pub struct Service {
    pub addr: String,
    daemon: Arc<Daemon>,
    state_dir: PathBuf,
    workers: Vec<JoinHandle<()>>,
    server: JoinHandle<std::io::Result<()>>,
}

impl Service {
    pub fn start(daemon: Arc<Daemon>, listener: TcpListener, state_dir: &Path) -> Service {
        let addr = listener.local_addr().expect("bound").to_string();
        let workers = daemon.spawn_workers();
        let d = Arc::clone(&daemon);
        let server = std::thread::spawn(move || serve(d, listener));
        Service {
            daemon,
            addr,
            state_dir: state_dir.to_path_buf(),
            workers,
            server,
        }
    }

    /// Drains the daemon and waits for every thread it started.
    pub fn stop(self) {
        self.daemon.begin_drain();
        self.server
            .join()
            .expect("accept loop panicked")
            .expect("accept loop failed");
        for w in self.workers {
            w.join().expect("aprofd worker panicked");
        }
    }

    /// The published `bench.json` of job `id`.
    pub fn bench_json(&self, id: &str) -> Option<String> {
        std::fs::read_to_string(self.state_dir.join(format!("job-{id}.bench.json"))).ok()
    }
}

/// What a direct journaled `run_supervised_with` of a job spec gives.
pub struct Direct {
    pub bench_json: String,
    pub report_fps: Vec<u64>,
    pub quarantined: usize,
    pub fsyncs: u64,
    pub journal_bytes: u64,
}

/// Runs `spec` the way an aprofd worker does, minus the daemon: the
/// job's grid under the supervisor with a checkpoint journal written
/// through `io`, rendered as the job's `bench.json`.
pub fn direct(spec: &str, journal: &Path, io: &HostIo) -> Direct {
    let spec = JobSpec::parse(spec).expect("valid job spec");
    let fsyncs_before = io.ops(HostOp::Fsync);
    let mut writer = JournalWriter::create_with(io, journal).expect("journal");
    let result = run_supervised_with(
        &spec.sweep_spec(),
        &spec.supervisor_options(),
        Some(&mut writer),
        &profile_cell,
    );
    drop(writer);
    let report_fps = result
        .cells
        .iter()
        .map(|c| crate::cells::report_fingerprint(&c.report))
        .collect();
    let quarantined = result.quarantined.len();
    let bench_json = SweepBench {
        jobs: spec.jobs,
        resumed: false,
        families: vec![FamilyBench::from_resumed(result)],
    }
    .to_json();
    Direct {
        bench_json,
        report_fps,
        quarantined,
        fsyncs: io.ops(HostOp::Fsync) - fsyncs_before,
        journal_bytes: std::fs::metadata(journal).map_or(0, |m| m.len()),
    }
}

/// One job driven over HTTP from submit to a terminal state.
pub struct Job {
    pub id: String,
    pub state: String,
    pub submit_s: f64,
    pub queue_s: f64,
    pub run_s: f64,
    pub total_s: f64,
    pub shed: u32,
    pub requests: u64,
}

/// Submits `spec`, polls `/jobs/{id}` until the job leaves the queue,
/// then long-polls `/jobs/{id}/events` until it is done or failed.
///
/// The daemon records no timestamps, so queue wait is seen from the
/// client: from the submit reply to the sending of the first status
/// poll that finds the job out of the queue. That poll's own round trip
/// is left out, so the figure is the wait to within one status round
/// trip rather than a round trip plus the wait.
pub fn run_job(conn: &mut Conn, spec: &str) -> Result<Job, String> {
    let start = Instant::now();
    let mut requests = 0;
    let mut shed = 0;
    let id = loop {
        let reply = conn
            .request("POST", "/jobs", spec)
            .map_err(|e| format!("submit: {e}"))?;
        requests += 1;
        if reply.status == 200 {
            break reply.body.trim().to_string();
        }
        if !reply.is_shed() || shed == MAX_SHED_RETRIES {
            return Err(format!("submit refused: {}", reply.status));
        }
        shed += 1;
        std::thread::sleep(Duration::from_millis(reply.retry_after_ms.unwrap_or(10)));
    };
    let submit_s = start.elapsed().as_secs_f64();
    let queued_at = Instant::now();
    let queue_s = loop {
        let polled_at = queued_at.elapsed().as_secs_f64();
        let reply = conn
            .request("GET", &format!("/jobs/{id}"), "")
            .map_err(|e| format!("status: {e}"))?;
        requests += 1;
        if !reply.body.lines().any(|l| l == "state queued") {
            break polled_at;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    let running_at = queued_at + Duration::from_secs_f64(queue_s);
    let mut cursor = 0u64;
    let state = loop {
        let reply = conn
            .request("GET", &format!("/jobs/{id}/events?since={cursor}"), "")
            .map_err(|e| format!("events: {e}"))?;
        requests += 1;
        let mut state = "";
        for line in reply.body.lines() {
            if let Some(c) = line.strip_prefix("cursor ") {
                cursor = c.parse().unwrap_or(cursor);
            } else if let Some(s) = line.strip_prefix("state ") {
                state = s;
            }
        }
        if state == "done" || state == "failed" || reply.status != 200 {
            break state.to_string();
        }
    };
    Ok(Job {
        id,
        state,
        submit_s,
        queue_s,
        run_s: running_at.elapsed().as_secs_f64(),
        total_s: start.elapsed().as_secs_f64(),
        shed,
        requests,
    })
}

/// Checks a finished job against the direct run of its spec.
pub fn check_job(svc: &Service, job: &Job, reference: &Direct, bad: &mut Vec<&'static str>) {
    if job.state != "done" {
        bad.push("aprofd job failed");
    } else if svc.bench_json(&job.id).as_deref() != Some(reference.bench_json.as_str()) {
        bad.push("aprofd bench.json differs from the direct supervised run");
    }
}

/// Times one request through `Daemon::handle`, without a socket.
pub fn handle_submit(daemon: &Daemon, spec: &str, tr: &mut Tracer, id: u32) -> u16 {
    let req = Request {
        method: "POST".to_string(),
        path: "/jobs".to_string(),
        query: String::new(),
        body: spec.to_string(),
        close: false,
    };
    let o = tr.open("aprofd.handle", id);
    let status = daemon.handle(&req).status;
    tr.close(o);
    status
}
