//! The daemon: job store, worker pool, endpoints, and restart-resume.
//!
//! Every job lives in the state directory as a small family of files
//! keyed by its deterministic ID:
//!
//! ```text
//! job-<id>.spec          canonical spec + submission counter (written at admission)
//! job-<id>.journal       per-job checkpoint journal (supervisor-appended, fsynced)
//! job-<id>.bench.json    drms-sweep-v2 artifact (atomic, deterministic)
//! job-<id>.report.txt    merged profile report (atomic, deterministic)
//! job-<id>.metrics.json  merged metrics registry (atomic, deterministic)
//! job-<id>.done          completion summary (atomic; presence = job finished)
//! job-<id>.failed        failure summary (atomic; presence = job failed)
//! gc.tombstones          journal of pruned job IDs (written before deletion)
//! ```
//!
//! The `.spec` file is the durability point: a submission is
//! acknowledged only after its spec is atomically on disk, so a
//! `kill -9` at *any* later moment leaves either a finished job (done
//! marker present) or a resumable one (spec present, journal salvaged
//! by [`resume_sweep`], missing cells re-run). Restart scans the
//! directory, restores the submission counter, and re-queues every
//! unfinished job — artifacts come out byte-identical to an
//! uninterrupted run.
//!
//! Retention GC prunes finished jobs beyond [`DaemonConfig::retain_count`]
//! / older than [`DaemonConfig::retain_age`]. Each pruned ID is first
//! recorded in the `gc.tombstones` journal (atomically rewritten and
//! fsynced), *then* its files are deleted — so a crash between the two
//! leaves a tombstone the startup scan honors (leftovers removed, job
//! never resurrected) and the submission counter continues past pruned
//! jobs (IDs never collide).
//!
//! Every host write goes through [`DaemonConfig::host_io`]: production
//! uses real I/O; tests and `aprofd --host-faults` inject ENOSPC,
//! fsync-EIO, and torn writes. A spec that cannot be persisted is shed
//! with a typed 507 and a deterministic retry-after — the queue slot is
//! withdrawn, the counter is not advanced, and the daemon keeps serving.

use crate::http::{Request, RequestError, Response, MAX_REQUESTS_PER_CONN};
use crate::queue::{Admission, AdmissionQueue, QueueConfig};
use crate::spec::{job_id, JobSpec};
use drms::analysis::{sweep_snapshot, InputMetric};
use drms::trace::hostio::HostIo;
use drms::trace::journal;
use drms::trace::Metrics;
use drms_bench::artifact::atomic_write_with;
use drms_bench::render_error_chain;
use drms_bench::supervisor::{
    panic_message, profile_cell, read_cells, resume_sweep, CellOutcome, JournalWriter,
    PreemptSignal, SupervisedRun,
};
use drms_bench::sweep::{focus_plot, FamilyBench, SweepBench, SweepCell, SweepSpec};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, SystemTime};

/// Deterministic retry-after for the 507 disk-full shed: long enough
/// that an operator plausibly freed space, fixed so clients and tests
/// see the same hint every time.
pub const DISK_FULL_RETRY_MS: u64 = 5_000;

/// Sleep quantum of the `/jobs/{id}/events` long-poll loop: new journal
/// cells are noticed within this bound without a wakeup channel.
const POLL_STEP: Duration = Duration::from_millis(20);

/// Daemon configuration (CLI flags map 1:1 onto this).
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Directory holding specs, journals, and artifacts.
    pub state_dir: PathBuf,
    /// Concurrent jobs. `0` is a valid admission-only mode (jobs queue
    /// but never run) used by tests and the CI full-queue gate.
    pub workers: usize,
    /// Admission bounds.
    pub queue: QueueConfig,
    /// Host file I/O for every durable write (specs, journals,
    /// artifacts, tombstones). Real in production; fault-injected under
    /// test and behind `--host-faults`.
    pub host_io: HostIo,
    /// Keep at most this many finished (done/failed) jobs on disk;
    /// older ones are tombstoned and pruned. `None` = keep all.
    pub retain_count: Option<usize>,
    /// Prune finished jobs whose completion marker is older than this.
    /// `None` = no age limit.
    pub retain_age: Option<Duration>,
    /// Concurrent connections admitted (queued + being handled); excess
    /// connections get an immediate 503 shed instead of an unbounded
    /// thread per socket.
    pub max_connections: usize,
    /// Fixed connection-handler threads fed by the bounded accept
    /// queue. The daemon's thread count is `io_threads + workers`
    /// plus the accept loop — never a thread per connection.
    pub io_threads: usize,
    /// Per-socket read/write deadline — a slow-loris client dribbling
    /// bytes gets a typed 408 when it expires, not a parked thread.
    /// Doubles as the keep-alive idle deadline: a persistent connection
    /// with no next request within it is closed silently.
    pub read_timeout: Duration,
    /// Longest a `/jobs/{id}/events` long-poll blocks for a newer
    /// journal delta before answering with whatever is there.
    pub poll_timeout: Duration,
    /// Enables `GET /debug/panic` (a handler that panics on purpose) so
    /// chaos tests can prove a panicking handler frees its connection
    /// slot. Never enabled in production defaults.
    pub debug_endpoints: bool,
}

impl DaemonConfig {
    /// Production defaults over `state_dir`: 2 workers, default queue
    /// bounds, real host I/O, no retention limits, 64 connections over
    /// 4 io-threads, 10 s socket deadlines and long-poll timeout.
    pub fn new(state_dir: impl Into<PathBuf>) -> DaemonConfig {
        DaemonConfig {
            state_dir: state_dir.into(),
            workers: 2,
            queue: QueueConfig::default(),
            host_io: HostIo::real(),
            retain_count: None,
            retain_age: None,
            max_connections: 64,
            io_threads: 4,
            read_timeout: Duration::from_secs(10),
            poll_timeout: Duration::from_secs(10),
            debug_endpoints: false,
        }
    }
}

/// Lifecycle state of one job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is sweeping its grid.
    Running,
    /// Finished; artifacts and the done marker are on disk.
    Done,
    /// Could not run (journal spec mismatch, I/O failure). The string
    /// is the human-readable cause.
    Failed(String),
}

impl JobState {
    /// The wire name of this state (the `state` line of `/jobs/{id}`).
    pub fn as_str(&self) -> &str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed(_) => "failed",
        }
    }
}

/// Attempt/retry accounting of a finished job (mirrors the sweep's own
/// derived counters, so a resumed job reports identical numbers).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobSummary {
    /// Total cell attempts.
    pub attempts: u64,
    /// Attempts beyond the first, per cell, summed.
    pub retries: u64,
    /// Cells quarantined after exhausting their attempts.
    pub quarantined: u64,
    /// Completed cells.
    pub cells: u64,
    /// Fingerprint of the merged report (`drms-sweep-v2` discipline).
    pub fingerprint: u64,
}

impl JobSummary {
    fn to_text(&self) -> String {
        format!(
            "attempts {}\nretries {}\nquarantined {}\ncells {}\nfingerprint {:016x}\n",
            self.attempts, self.retries, self.quarantined, self.cells, self.fingerprint
        )
    }

    fn parse(text: &str) -> JobSummary {
        let mut s = JobSummary::default();
        for line in text.lines() {
            let Some((k, v)) = line.split_once(' ') else {
                continue;
            };
            match k {
                "attempts" => s.attempts = v.parse().unwrap_or(0),
                "retries" => s.retries = v.parse().unwrap_or(0),
                "quarantined" => s.quarantined = v.parse().unwrap_or(0),
                "cells" => s.cells = v.parse().unwrap_or(0),
                "fingerprint" => s.fingerprint = u64::from_str_radix(v, 16).unwrap_or(0),
                _ => {}
            }
        }
        s
    }
}

struct JobEntry {
    spec: JobSpec,
    submitted: u64,
    state: JobState,
    resumed: bool,
    summary: Option<JobSummary>,
}

/// Book-keeping for one job mid-run: enough to pick a preemption
/// victim (base priority, deterministic job-ID tie-break via the map
/// key) and to signal it.
struct RunningJob {
    priority: u8,
    signal: PreemptSignal,
}

struct Inner {
    entries: BTreeMap<String, JobEntry>,
    queue: AdmissionQueue,
    counter: u64,
    /// Jobs currently on a worker, keyed by job ID.
    running: BTreeMap<String, RunningJob>,
}

/// How one dispatch of a job ended.
enum JobOutcome {
    Done(JobSummary),
    /// The job yielded to a cooperative preempt at a cell boundary; its
    /// journal is the checkpoint and it returns to the queue.
    Preempted,
    Failed(String),
}

/// The brownout ladder, derived from queue depth against capacity only
/// (counters and queue state — never wall-clock):
///
/// | tier | trigger (queued/capacity) | degradation |
/// |---|---|---|
/// | 0 | < 25 % | none |
/// | 1 | ≥ 25 % | keep-alive disabled: every response closes |
/// | 2 | ≥ 50 % | snapshot/report endpoints answer from last persisted state; long-polls answer immediately |
/// | 3 | = 100 % | new submissions shed (the existing typed 429) |
///
/// Each tier includes the degradations of the tiers below it, so the
/// daemon sheds optional work first and paying work last.
fn brownout_tier(queued: usize, capacity: usize) -> u8 {
    let capacity = capacity.max(1);
    if queued >= capacity {
        3
    } else if queued * 2 >= capacity {
        2
    } else if queued * 4 >= capacity {
        1
    } else {
        0
    }
}

/// The shared daemon state. Cheap to clone behind an [`Arc`]; the
/// worker pool, the accept loop, and every connection handler hold one.
pub struct Daemon {
    cfg: DaemonConfig,
    inner: Mutex<Inner>,
    cv: Condvar,
    metrics: Mutex<Metrics>,
    draining: AtomicBool,
    /// Current brownout tier (see [`brownout_tier`]), updated whenever
    /// queue depth changes so connection handlers read it lock-free.
    brownout: AtomicUsize,
    /// Held for a whole [`gc`](Daemon::gc) pass: each pass rewrites the
    /// tombstone journal, so two workers finishing at once must not
    /// interleave their rewrites (or prune the same victims twice).
    gc: Mutex<()>,
}

impl Daemon {
    /// Creates the daemon over `cfg.state_dir`, creating the directory
    /// and restoring every journaled job found in it: done/failed jobs
    /// load as records, unfinished ones re-queue for resume in
    /// submission order, and the submission counter continues past the
    /// highest restored value (so new job IDs never collide).
    pub fn new(cfg: DaemonConfig) -> std::io::Result<Arc<Daemon>> {
        std::fs::create_dir_all(&cfg.state_dir)?;
        let mut inner = Inner {
            entries: BTreeMap::new(),
            queue: AdmissionQueue::new(cfg.queue.clone()),
            counter: 0,
            running: BTreeMap::new(),
        };
        let mut metrics = Metrics::new();

        // Tombstones first: a pruned job must never be resurrected,
        // even when a crash between tombstone-write and file-deletion
        // left its spec behind. The tombstone also carries the pruned
        // job's submission number, so the counter continues past it and
        // new IDs never collide with GC'd history.
        let mut tombstoned: BTreeSet<String> = BTreeSet::new();
        if let Ok(bytes) = std::fs::read(cfg.state_dir.join("gc.tombstones")) {
            for rec in &journal::from_text_lossy(&bytes).value {
                let Some(id) = rec.meta.strip_prefix("gc ") else {
                    continue;
                };
                tombstoned.insert(id.to_string());
                for line in rec.payload.lines() {
                    if let Some(v) = line.strip_prefix("submitted ") {
                        inner.counter = inner.counter.max(v.parse().unwrap_or(0));
                    }
                }
            }
        }

        let mut restored: Vec<(u64, String, String, u8)> = Vec::new(); // (submitted, id, tenant, priority)
        for entry in std::fs::read_dir(&cfg.state_dir)? {
            let name = entry?.file_name();
            let Some(id) = name
                .to_str()
                .and_then(|n| n.strip_prefix("job-"))
                .and_then(|n| n.strip_suffix(".spec"))
            else {
                continue;
            };
            let id = id.to_string();
            if tombstoned.contains(&id) {
                continue; // leftovers swept below
            }
            let text = std::fs::read_to_string(cfg.state_dir.join(&*name))?;
            let mut submitted = 0u64;
            let mut spec_lines = String::new();
            for line in text.lines() {
                if let Some(v) = line.strip_prefix("submitted ") {
                    submitted = v.parse().unwrap_or(0);
                } else {
                    spec_lines.push_str(line);
                    spec_lines.push('\n');
                }
            }
            // Even an unloadable spec used up its submission number.
            inner.counter = inner.counter.max(submitted);
            let spec = match JobSpec::parse(&spec_lines) {
                Ok(s) => s,
                Err(e) => {
                    // A spec this daemon once accepted no longer parses
                    // (config drift, or a key an older build wrote):
                    // record the failure, don't crash.
                    metrics.inc("aprofd.jobs.unloadable");
                    inner.entries.insert(
                        id,
                        JobEntry {
                            spec: JobSpec::default(),
                            submitted,
                            state: JobState::Failed(format!("unloadable spec: {e}")),
                            resumed: true,
                            summary: None,
                        },
                    );
                    continue;
                }
            };
            let done = cfg.state_dir.join(format!("job-{id}.done"));
            let failed = cfg.state_dir.join(format!("job-{id}.failed"));
            let (state, summary) = if let Ok(t) = std::fs::read_to_string(&done) {
                (JobState::Done, Some(JobSummary::parse(&t)))
            } else if let Ok(t) = std::fs::read_to_string(&failed) {
                (JobState::Failed(t.trim().to_string()), None)
            } else {
                restored.push((submitted, id.clone(), spec.tenant.clone(), spec.priority));
                (JobState::Queued, None)
            };
            inner.entries.insert(
                id,
                JobEntry {
                    spec,
                    submitted,
                    state,
                    resumed: true,
                    summary,
                },
            );
        }
        // Re-queue unfinished jobs in their original submission order,
        // bypassing admission caps (they were admitted pre-crash).
        restored.sort();
        for (_, id, tenant, priority) in restored {
            inner.queue.restore(&tenant, &id, priority);
            metrics.inc("aprofd.jobs.restored");
        }
        metrics.set_gauge("aprofd.queue.depth", inner.queue.queued() as u64);
        let tier = brownout_tier(inner.queue.queued(), inner.queue.capacity());
        metrics.set_gauge("aprofd.brownout.tier", tier as u64);

        // Sweep leftovers of tombstoned jobs (the crash window between
        // tombstone-write and deletion).
        for id in &tombstoned {
            if remove_job_files(&cfg.state_dir, id) {
                metrics.inc("aprofd.jobs.gc_swept");
            }
        }

        let daemon = Arc::new(Daemon {
            cfg,
            brownout: AtomicUsize::new(tier as usize),
            inner: Mutex::new(inner),
            cv: Condvar::new(),
            metrics: Mutex::new(metrics),
            draining: AtomicBool::new(false),
            gc: Mutex::new(()),
        });
        daemon.gc();
        Ok(daemon)
    }

    /// The current brownout tier, 0–3 (see `brownout_tier`); lock-free so
    /// every connection handler can consult it per response.
    pub fn current_brownout(&self) -> u8 {
        self.brownout.load(Ordering::SeqCst) as u8
    }

    fn job_path(&self, id: &str, suffix: &str) -> PathBuf {
        self.cfg.state_dir.join(format!("job-{id}.{suffix}"))
    }

    /// Retention GC: prunes finished (done/failed) jobs beyond
    /// [`DaemonConfig::retain_count`] or older than
    /// [`DaemonConfig::retain_age`]. Runs at startup and after every
    /// job completion; a no-op when neither bound is set.
    ///
    /// Prune order is tombstone-then-delete: the pass atomically
    /// rewrites the `gc.tombstones` journal to its salvaged records plus
    /// one record per victim (ID and submission number) *before* any
    /// file is removed, so a crash mid-prune can only leave tombstoned
    /// leftovers the next startup sweeps — never a resurrected job. If
    /// the tombstones cannot be made durable (disk full), nothing is
    /// deleted.
    pub fn gc(&self) -> usize {
        if self.cfg.retain_count.is_none() && self.cfg.retain_age.is_none() {
            return 0;
        }
        let _pass = self.gc.lock().unwrap_or_else(|e| e.into_inner());
        // Pick victims under the lock; finished jobs cannot change
        // state, so acting on the snapshot afterwards is safe.
        let mut finished: Vec<(u64, String)> = {
            let inner = self.inner.lock().unwrap();
            inner
                .entries
                .iter()
                .filter(|(_, e)| matches!(e.state, JobState::Done | JobState::Failed(_)))
                .map(|(id, e)| (e.submitted, id.clone()))
                .collect()
        };
        finished.sort();
        let mut victims: BTreeSet<String> = BTreeSet::new();
        if let Some(keep) = self.cfg.retain_count {
            for (_, id) in finished.iter().take(finished.len().saturating_sub(keep)) {
                victims.insert(id.clone());
            }
        }
        if let Some(age) = self.cfg.retain_age {
            let now = SystemTime::now();
            for (_, id) in &finished {
                let marker = ["done", "failed"]
                    .iter()
                    .map(|s| self.job_path(id, s))
                    .find(|p| p.exists());
                let Some(mtime) = marker.and_then(|p| std::fs::metadata(p).ok()?.modified().ok())
                else {
                    continue;
                };
                if now.duration_since(mtime).is_ok_and(|d| d >= age) {
                    victims.insert(id.clone());
                }
            }
        }
        if victims.is_empty() {
            return 0;
        }
        let path = self.cfg.state_dir.join("gc.tombstones");
        let mut tombstones = match std::fs::read(&path) {
            Ok(bytes) => journal::from_text_lossy(&bytes).value,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => {
                eprintln!("aprofd: gc skipped, tombstone journal unreadable: {e}");
                return 0;
            }
        };
        let submitted_of: BTreeMap<&String, u64> =
            finished.iter().map(|(n, id)| (id, *n)).collect();
        tombstones.extend(victims.iter().map(|id| journal::JournalRecord {
            meta: format!("gc {id}"),
            payload: format!("submitted {}\n", submitted_of.get(id).copied().unwrap_or(0)),
        }));
        let text = journal::to_text(&tombstones);
        if let Err(e) = atomic_write_with(&self.cfg.host_io, &path, &text) {
            eprintln!("aprofd: gc skipped, tombstones not durable: {e}");
            return 0;
        }
        for id in &victims {
            remove_job_files(&self.cfg.state_dir, id);
            self.inner.lock().unwrap().entries.remove(id);
        }
        self.metrics
            .lock()
            .unwrap()
            .add("aprofd.jobs.gc_pruned", victims.len() as u64);
        victims.len()
    }

    /// Begins the graceful drain: submissions are refused with a typed
    /// 503, running jobs finish, queued jobs stay durable on disk for
    /// the next start. Idempotent.
    pub fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            self.metrics.lock().unwrap().inc("aprofd.drains");
        }
        self.cv.notify_all();
    }

    /// Whether a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Whether the drain has finished (no job mid-run). Queued jobs do
    /// not block exit — their specs are durable and the next start
    /// resumes them. Running jobs complete normally (their artifacts
    /// are moments away); preemption is for scheduling, not shutdown.
    pub fn drain_complete(&self) -> bool {
        self.is_draining() && self.inner.lock().unwrap().running.is_empty()
    }

    /// Spawns the worker pool (`cfg.workers` threads).
    pub fn spawn_workers(self: &Arc<Self>) -> Vec<std::thread::JoinHandle<()>> {
        (0..self.cfg.workers)
            .map(|_| {
                let d = Arc::clone(self);
                std::thread::spawn(move || d.worker_loop())
            })
            .collect()
    }

    fn worker_loop(&self) {
        loop {
            let popped = {
                let mut inner = self.inner.lock().unwrap();
                loop {
                    if let Some(d) = inner.queue.pop_fair() {
                        let signal = PreemptSignal::new();
                        inner.running.insert(
                            d.job.clone(),
                            RunningJob {
                                priority: d.priority,
                                signal: signal.clone(),
                            },
                        );
                        if let Some(e) = inner.entries.get_mut(&d.job) {
                            e.state = JobState::Running;
                        }
                        break Some((d, signal));
                    }
                    if self.is_draining() {
                        break None;
                    }
                    let (guard, _) = self
                        .cv
                        .wait_timeout(inner, Duration::from_millis(100))
                        .unwrap();
                    inner = guard;
                }
            };
            let Some((dispatch, signal)) = popped else {
                return;
            };
            self.publish_depth();
            // A panicking job (a supervisor bug — guest panics are
            // already caught per-cell) must not take the worker thread
            // with it: catch it, fail the job, keep the pool at
            // `cfg.workers`.
            let outcome = catch_unwind(AssertUnwindSafe(|| self.run_job(&dispatch.job, &signal)))
                .unwrap_or_else(|p| {
                    self.metrics
                        .lock()
                        .unwrap()
                        .inc("aprofd.jobs.worker_panics");
                    let msg = format!("panic: {}", panic_message(p));
                    JobOutcome::Failed(self.fail_job(&dispatch.job, msg))
                });
            let preempted = matches!(outcome, JobOutcome::Preempted);
            {
                let mut inner = self.inner.lock().unwrap();
                inner.queue.finished(&dispatch.tenant);
                inner.running.remove(&dispatch.job);
                match outcome {
                    JobOutcome::Done(summary) => {
                        if let Some(e) = inner.entries.get_mut(&dispatch.job) {
                            e.state = JobState::Done;
                            e.summary = Some(summary);
                        }
                    }
                    JobOutcome::Failed(msg) => {
                        if let Some(e) = inner.entries.get_mut(&dispatch.job) {
                            e.state = JobState::Failed(msg);
                        }
                    }
                    JobOutcome::Preempted => {
                        // Back to the queue at its base priority; the
                        // fsync'd journal is the checkpoint the next
                        // dispatch resumes from. `restore` bypasses the
                        // admission caps — the job was admitted once.
                        if let Some(e) = inner.entries.get_mut(&dispatch.job) {
                            e.state = JobState::Queued;
                        }
                        inner
                            .queue
                            .restore(&dispatch.tenant, &dispatch.job, dispatch.priority);
                    }
                }
            }
            let mut m = self.metrics.lock().unwrap();
            if preempted {
                m.inc("aprofd.jobs.preempted");
            } else {
                m.inc("aprofd.jobs.finished");
            }
            drop(m);
            self.gc();
            self.publish_depth();
            self.cv.notify_all();
        }
    }

    /// Raises the preempt signal of the lowest-priority running job iff
    /// every worker is busy and that job's priority is strictly below
    /// `incoming` — called under no lock after a successful admission.
    /// Victim choice is deterministic: minimum (base priority, job ID),
    /// skipping jobs already signaled. The victim yields at its next
    /// grid-cell boundary; cells in flight finish and journal first.
    fn maybe_preempt(&self, incoming: u8) {
        let workers = self.cfg.workers;
        if workers == 0 {
            return;
        }
        let inner = self.inner.lock().unwrap();
        if inner.running.len() < workers {
            return; // a free worker will pick the job up directly
        }
        let victim = inner
            .running
            .iter()
            .filter(|(_, r)| !r.signal.is_raised())
            .min_by_key(|(id, r)| (r.priority, (*id).clone()));
        if let Some((_id, r)) = victim {
            if r.priority < incoming {
                r.signal.raise();
                drop(inner);
                self.metrics
                    .lock()
                    .unwrap()
                    .inc("aprofd.jobs.preempt_signals");
            }
        }
    }

    /// Runs (or resumes) one job to its artifacts, or to a preemption
    /// yield. Every failure mode the sweep itself can absorb — panics,
    /// deadlines, budgets, transient faults — is already the
    /// supervisor's business; only setup-level failures (journal
    /// unusable, artifact I/O) fail the job, and those are recorded
    /// durably in the `.failed` marker. A yielded job writes nothing
    /// beyond its journal: the journal *is* the checkpoint.
    fn run_job(&self, id: &str, signal: &PreemptSignal) -> JobOutcome {
        let spec = {
            let inner = self.inner.lock().unwrap();
            match inner.entries.get(id) {
                Some(e) => e.spec.clone(),
                None => return JobOutcome::Failed("job vanished from the store".to_string()),
            }
        };
        let mut opts = spec.supervisor_options();
        opts.io = self.cfg.host_io.clone();
        if spec.trace_dir {
            // Shards are a job artifact: they live next to the journal
            // and report, survive restarts, and are removed with the
            // job (DELETE, tombstone sweep, retention GC).
            opts.trace_dir = Some(self.job_path(id, "shards"));
        }
        let io = &opts.io;
        let journal_path = self.job_path(id, "journal");

        // Every dispatch is a resume: a first dispatch creates the
        // journal, and a header-only journal resumes exactly like a
        // fresh run.
        let resumed = std::fs::metadata(&journal_path).is_ok_and(|m| m.len() > 0);
        if !resumed {
            if let Err(e) = JournalWriter::create_with(io, &journal_path) {
                return JobOutcome::Failed(self.fail_job(id, format!("journal create: {e}")));
            }
        }
        let (run, report) = match resume_sweep(
            &spec.sweep_spec(),
            &opts,
            &journal_path,
            &profile_cell,
            Some(signal),
        ) {
            Ok(x) => x,
            Err(e) => return JobOutcome::Failed(self.fail_job(id, render_error_chain(&e))),
        };
        if resumed {
            let mut m = self.metrics.lock().unwrap();
            m.inc("aprofd.jobs.resumed");
            if let Err(e) = m.merge(&report.metrics) {
                drop(m);
                return JobOutcome::Failed(format!("resume metrics merge: {e}"));
            }
            drop(m);
            // This dispatch picked up from the journal — a restart *or*
            // a preemption checkpoint; the status line reports both the
            // same way.
            if let Some(e) = self.inner.lock().unwrap().entries.get_mut(id) {
                e.resumed = true;
            }
        }
        let result = match run {
            SupervisedRun::Completed(result) => *result,
            SupervisedRun::Yielded { .. } => return JobOutcome::Preempted,
        };

        let summary = JobSummary {
            attempts: result.attempts(),
            retries: result.retries(),
            quarantined: result.quarantined.len() as u64,
            cells: result.cells.len() as u64,
            fingerprint: result.fingerprint(),
        };
        let report_text = result.merged_report_text();
        let metrics_json = result.merged_metrics().to_json();
        let bench = SweepBench {
            jobs: spec.jobs,
            resumed,
            families: vec![FamilyBench::from_resumed(result)],
        };
        let write = |suffix: &str, contents: &str| {
            atomic_write_with(io, &self.job_path(id, suffix), contents)
                .map_err(|e| self.fail_job(id, format!("artifact `{suffix}`: {e}")))
        };
        let wrote = write("bench.json", &bench.to_json())
            .and_then(|()| write("report.txt", &report_text))
            .and_then(|()| write("metrics.json", &metrics_json))
            .and_then(|()| write("done", &summary.to_text()));
        match wrote {
            Ok(()) => JobOutcome::Done(summary),
            Err(msg) => JobOutcome::Failed(msg),
        }
    }

    /// Records a job failure durably and returns the message (for use
    /// as the in-memory state). Best-effort on purpose: the failure may
    /// *be* a full disk, and the partial outcome is already flushed in
    /// the journal — the in-memory state and restart-resume both carry
    /// the job regardless.
    fn fail_job(&self, id: &str, msg: String) -> String {
        let _ = atomic_write_with(&self.cfg.host_io, &self.job_path(id, "failed"), &msg);
        msg
    }

    fn publish_depth(&self) {
        let (queued, running, capacity) = {
            let inner = self.inner.lock().unwrap();
            (
                inner.queue.queued(),
                inner.running.len(),
                inner.queue.capacity(),
            )
        };
        let tier = brownout_tier(queued, capacity);
        let prev = self.brownout.swap(tier as usize, Ordering::SeqCst) as u8;
        let mut m = self.metrics.lock().unwrap();
        m.set_gauge("aprofd.queue.depth", queued as u64);
        m.set_gauge("aprofd.jobs.running", running as u64);
        m.set_gauge("aprofd.brownout.tier", tier as u64);
        if prev != tier {
            m.inc("aprofd.brownout.transitions");
        }
    }

    // ------------------------------------------------------------------
    // Endpoints
    // ------------------------------------------------------------------

    /// Routes one request. Pure with respect to the connection — tests
    /// call this directly without a socket.
    pub fn handle(&self, req: &Request) -> Response {
        self.metrics.lock().unwrap().inc("aprofd.http.requests");
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => self.healthz(),
            ("GET", "/metrics") => Response::ok(self.metrics.lock().unwrap().to_prometheus()),
            ("GET", "/debug/panic") if self.cfg.debug_endpoints => {
                panic!("debug: handler panic requested")
            }
            ("POST", "/jobs") => self.submit(&req.body),
            ("POST", "/shutdown") => {
                self.begin_drain();
                Response::ok("draining\n")
            }
            ("GET", path) => {
                if let Some(rest) = path.strip_prefix("/jobs/") {
                    match rest.split_once('/') {
                        None => self.job_status(rest),
                        Some((id, "report")) => self.job_report(id, req.query_u64("since")),
                        Some((id, "events")) => self.job_events(id, req.query_u64("since")),
                        Some((id, "metrics")) => self.job_metrics(id),
                        Some(_) => Response::text(404, "not found\n"),
                    }
                } else {
                    Response::text(404, "not found\n")
                }
            }
            _ => Response::text(404, "not found\n"),
        }
    }

    fn healthz(&self) -> Response {
        let inner = self.inner.lock().unwrap();
        let done = inner
            .entries
            .values()
            .filter(|e| e.state == JobState::Done)
            .count();
        Response::ok(format!(
            "ok\nqueued {}\nrunning {}\ndone {}\njobs {}\ndraining {}\nbrownout {}\n",
            inner.queue.queued(),
            inner.running.len(),
            done,
            inner.entries.len(),
            self.is_draining() as u8,
            self.current_brownout(),
        ))
    }

    /// Admission: parse → validate → durably persist the spec → queue.
    /// The bounded queue makes the refusal typed and explicit; nothing
    /// about a shed submission is retained.
    fn submit(&self, body: &str) -> Response {
        if self.is_draining() {
            self.metrics
                .lock()
                .unwrap()
                .inc("aprofd.jobs.refused_draining");
            return Response::shed(503, 1000, "draining: submissions refused; retry later\n");
        }
        let spec = match JobSpec::parse(body) {
            Ok(s) => s,
            Err(e) => {
                self.metrics
                    .lock()
                    .unwrap()
                    .inc("aprofd.jobs.rejected_spec");
                return Response::text(400, format!("rejected: {e}\n"));
            }
        };
        let (id, decision) = {
            let mut inner = self.inner.lock().unwrap();
            let submitted = inner.counter + 1;
            let id = job_id(&spec, submitted);
            let decision = inner.queue.offer(&spec.tenant, &id, spec.priority);
            if decision == Admission::Queued {
                // Durability point: acknowledge only after the spec is
                // atomically on disk. Failure to persist is a typed
                // disk-full shed: the queue slot is withdrawn and the
                // counter stays put, so the retried submission mints
                // the *same* deterministic ID once space returns.
                let spec_text = format!("{}submitted {submitted}\n", spec.canonical_text());
                if let Err(e) =
                    atomic_write_with(&self.cfg.host_io, &self.job_path(&id, "spec"), &spec_text)
                {
                    inner.queue.cancel(&spec.tenant, &id);
                    drop(inner);
                    self.metrics
                        .lock()
                        .unwrap()
                        .inc("aprofd.jobs.shed_disk_full");
                    self.publish_depth();
                    return Response::shed(
                        507,
                        DISK_FULL_RETRY_MS,
                        format!(
                            "shed: state disk unavailable ({e}); retry after {DISK_FULL_RETRY_MS} ms\n"
                        ),
                    );
                }
                inner.counter = submitted;
                inner.entries.insert(
                    id.clone(),
                    JobEntry {
                        spec: spec.clone(),
                        submitted,
                        state: JobState::Queued,
                        resumed: false,
                        summary: None,
                    },
                );
            }
            (id, decision)
        };
        let mut m = self.metrics.lock().unwrap();
        match decision {
            Admission::Queued => {
                m.inc("aprofd.jobs.submitted");
                drop(m);
                self.publish_depth();
                self.cv.notify_all();
                self.maybe_preempt(spec.priority);
                Response::ok(format!("{id}\n"))
            }
            Admission::ShedFull {
                queued,
                retry_after_ms,
            } => {
                m.inc("aprofd.jobs.shed_full");
                Response::shed(
                    429,
                    retry_after_ms,
                    format!(
                        "shed: queue full ({queued} queued); retry after {retry_after_ms} ms\n"
                    ),
                )
            }
            Admission::ShedTenant {
                queued,
                retry_after_ms,
            } => {
                m.inc("aprofd.jobs.shed_tenant");
                Response::shed(
                    429,
                    retry_after_ms,
                    format!(
                        "shed: tenant quota exhausted ({queued} queued); retry after {retry_after_ms} ms\n"
                    ),
                )
            }
        }
    }

    fn job_status(&self, id: &str) -> Response {
        let inner = self.inner.lock().unwrap();
        let Some(e) = inner.entries.get(id) else {
            return Response::text(404, format!("no such job `{id}`\n"));
        };
        let total = e.spec.grid_len();
        let mut out = String::new();
        let _ = writeln!(out, "id {id}");
        let _ = writeln!(out, "tenant {}", e.spec.tenant);
        let _ = writeln!(out, "family {}", e.spec.family);
        let _ = writeln!(out, "state {}", e.state.as_str());
        let _ = writeln!(out, "priority {}", e.spec.priority);
        let _ = writeln!(out, "submitted {}", e.submitted);
        let _ = writeln!(out, "resumed {}", e.resumed as u8);
        match (&e.state, &e.summary) {
            (JobState::Done, Some(s)) => {
                let _ = writeln!(out, "cells {}/{total}", s.cells);
                let _ = writeln!(out, "attempts {}", s.attempts);
                let _ = writeln!(out, "retries {}", s.retries);
                let _ = writeln!(out, "quarantined {}", s.quarantined);
                let _ = writeln!(out, "fingerprint {:016x}", s.fingerprint);
            }
            (JobState::Failed(msg), _) => {
                let _ = writeln!(out, "error {}", msg.replace('\n', " "));
            }
            _ => {
                // Live accounting straight from the journal: cells land
                // there (fsynced) the moment they finish. Each grid slot
                // counts once, its latest record winning, as on resume.
                let spec = e.spec.sweep_spec();
                drop(inner);
                let slots: BTreeMap<usize, CellOutcome> =
                    self.live_outcomes(id, &spec).into_iter().collect();
                let (mut cells, mut attempts, mut quarantined) = (0, 0u64, 0);
                for outcome in slots.values() {
                    match outcome {
                        CellOutcome::Completed(c) => {
                            cells += 1;
                            attempts += u64::from(c.attempts);
                        }
                        CellOutcome::Quarantined(q) => {
                            quarantined += 1;
                            attempts += u64::from(q.attempts);
                        }
                    }
                }
                let _ = writeln!(out, "cells {cells}/{total}");
                let _ = writeln!(out, "attempts {attempts}");
                let _ = writeln!(out, "quarantined {quarantined}");
            }
        }
        Response::ok(out)
    }

    /// The job's cell outcomes in record order, read by the supervisor's
    /// own reader ([`read_cells`]) from the salvaged journal, so the torn
    /// tail of a live append is tolerated. Empty before the first
    /// dispatch creates the journal.
    fn live_outcomes(&self, id: &str, spec: &SweepSpec) -> Vec<(usize, CellOutcome)> {
        match std::fs::read(self.job_path(id, "journal")) {
            Ok(bytes) => read_cells(spec, &journal::from_text_lossy(&bytes).value).0,
            Err(_) => Vec::new(),
        }
    }

    /// The completed cells of [`live_outcomes`](Self::live_outcomes) in
    /// record order: the cursor of `/jobs/{id}/events` and
    /// `/jobs/{id}/report?since=N` counts these.
    fn live_cells(&self, id: &str, spec: &SweepSpec) -> Vec<(usize, SweepCell)> {
        self.live_outcomes(id, spec)
            .into_iter()
            .filter_map(|(idx, outcome)| match outcome {
                CellOutcome::Completed(cell) => Some((idx, *cell)),
                CellOutcome::Quarantined(_) => None,
            })
            .collect()
    }

    /// Snapshot (`/jobs/{id}/report`) and delta
    /// (`/jobs/{id}/report?since=N`) rendering of a live run, straight
    /// from the journal. Done jobs serve their final artifact.
    fn job_report(&self, id: &str, since: Option<u64>) -> Response {
        let (state, spec, total) = {
            let inner = self.inner.lock().unwrap();
            let Some(e) = inner.entries.get(id) else {
                return Response::text(404, format!("no such job `{id}`\n"));
            };
            (e.state.clone(), e.spec.sweep_spec(), e.spec.grid_len())
        };
        if since.is_none() && state == JobState::Done {
            return match std::fs::read_to_string(self.job_path(id, "report.txt")) {
                Ok(text) => Response::ok(text),
                Err(e) => Response::text(500, format!("artifact unreadable: {e}\n")),
            };
        }
        // Brownout tier ≥ 2: answer snapshots from the last persisted
        // state instead of re-reading and re-fitting the live journal —
        // the journal salvage + drms fit below is the expensive part of
        // this endpoint, and under queue pressure the cycles belong to
        // the sweeps.
        if since.is_none() && self.current_brownout() >= 2 {
            return Response::ok(format!(
                "brownout {}: live snapshot degraded; state {}\n",
                self.current_brownout(),
                state.as_str(),
            ));
        }
        let cells = self.live_cells(id, &spec);
        let mut out = String::new();
        let _ = writeln!(out, "cursor {}", cells.len());
        cell_lines(&mut out, &cells, since.unwrap_or(0) as usize);
        if since.is_none() {
            // Full snapshot: the partial drms plot of the family's focus
            // routine plus the current fit, re-rendered on every poll as
            // the model converges.
            let plot = focus_plot(
                &spec.family,
                cells.iter().map(|(_, c)| c),
                InputMetric::Drms,
            );
            out.push_str(&sweep_snapshot(
                &spec.family,
                &plot.points,
                cells.len(),
                total,
            ));
        }
        Response::ok(out)
    }

    /// The `/jobs/{id}/events?since=N` long-poll: blocks (in bounded
    /// [`POLL_STEP`] sleeps, up to [`DaemonConfig::poll_timeout`]) until
    /// the job's journal has a cell the caller has not seen, the job
    /// reaches a terminal state, the daemon drains, or brownout tier
    /// ≥ 2 forces an immediate answer — then renders the delta:
    ///
    /// ```text
    /// cursor <total cells journaled>
    /// state <queued|running|done|failed>
    /// cell <idx> size <s> seed <s> attempts <n> shadow_bytes <b>   (per new cell)
    /// ```
    ///
    /// `aprofctl watch` drives this in a loop, feeding each answer's
    /// `cursor` back as the next `since`.
    fn job_events(&self, id: &str, since: Option<u64>) -> Response {
        let since = since.unwrap_or(0) as usize;
        let steps = (self.cfg.poll_timeout.as_millis() / POLL_STEP.as_millis()).max(1) as u64;
        for step in 0u64.. {
            let (state, spec) = {
                let inner = self.inner.lock().unwrap();
                match inner.entries.get(id) {
                    Some(e) => (e.state.clone(), e.spec.sweep_spec()),
                    None => return Response::text(404, format!("no such job `{id}`\n")),
                }
            };
            let terminal = matches!(state, JobState::Done | JobState::Failed(_));
            let cells = self.live_cells(id, &spec);
            let expired = step + 1 >= steps;
            if cells.len() > since
                || terminal
                || expired
                || self.is_draining()
                || self.current_brownout() >= 2
            {
                let mut out = String::new();
                let _ = writeln!(out, "cursor {}", cells.len());
                let _ = writeln!(out, "state {}", state.as_str());
                cell_lines(&mut out, &cells, since);
                return Response::ok(out);
            }
            std::thread::sleep(POLL_STEP);
        }
        unreachable!("the poll loop always answers by its last step")
    }

    /// Streams the job's merged metrics as Prometheus text, rebuilt
    /// from the journal so live and finished jobs share one code path.
    /// A bucket-layout mismatch between cells surfaces as the typed
    /// [`drms::Error::Metrics`] chain, not a panic.
    fn job_metrics(&self, id: &str) -> Response {
        let Some(spec) = self
            .inner
            .lock()
            .unwrap()
            .entries
            .get(id)
            .map(|e| e.spec.sweep_spec())
        else {
            return Response::text(404, format!("no such job `{id}`\n"));
        };
        let mut merged = Metrics::new();
        for (_, cell) in self.live_cells(id, &spec) {
            if let Err(e) = merged.merge(&cell.metrics) {
                let err = drms::Error::from(e);
                return Response::text(500, render_error_chain(&err));
            }
        }
        Response::ok(merged.to_prometheus())
    }
}

/// Renders each live cell past the caller's cursor `since` as one
/// `cell <idx> size <s> seed <s> attempts <n> shadow_bytes <b>` line.
fn cell_lines(out: &mut String, cells: &[(usize, SweepCell)], since: usize) {
    for (idx, cell) in cells.iter().skip(since) {
        let _ = writeln!(
            out,
            "cell {idx} size {} seed {} attempts {} shadow_bytes {}",
            cell.size,
            cell.seed,
            cell.attempts,
            cell.metrics.gauge("shadow.bytes")
        );
    }
}

/// Removes every `job-<id>.*` file. Returns whether anything existed.
fn remove_job_files(state_dir: &std::path::Path, id: &str) -> bool {
    let mut removed = false;
    for suffix in [
        "spec",
        "journal",
        "bench.json",
        "report.txt",
        "metrics.json",
        "done",
        "failed",
    ] {
        let path = state_dir.join(format!("job-{id}.{suffix}"));
        if std::fs::remove_file(path).is_ok() {
            removed = true;
        }
    }
    // The trace-shard spill directory (`trace_dir on` jobs).
    if std::fs::remove_dir_all(state_dir.join(format!("job-{id}.shards"))).is_ok() {
        removed = true;
    }
    removed
}

/// Frees one connection slot on drop — however the handler exits,
/// including a panic unwinding through it, the `max_connections`
/// accounting stays correct.
struct SlotGuard(Arc<AtomicUsize>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The bounded accept queue feeding the io-thread pool. `slots` counts
/// queued + in-flight connections against `max_connections`.
struct AcceptQueue {
    queue: Mutex<VecDeque<(TcpStream, SlotGuard)>>,
    cv: Condvar,
    stop: AtomicBool,
}

/// Serves `daemon` on `listener` until the drain completes: a fixed
/// pool of [`DaemonConfig::io_threads`] connection handlers consumes a
/// bounded accept queue — total admitted connections (queued plus
/// in-flight) are capped at [`DaemonConfig::max_connections`]; excess
/// connections get an immediate 503 shed at the door instead of an
/// unbounded thread per socket. Refuses new submissions while draining
/// and returns once no job is mid-run, after joining the io pool. Both
/// the `aprofd` binary and the in-process tests run this.
pub fn serve(daemon: Arc<Daemon>, listener: TcpListener) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let slots = Arc::new(AtomicUsize::new(0));
    let max_connections = daemon.cfg.max_connections.max(1);
    let accept = Arc::new(AcceptQueue {
        queue: Mutex::new(VecDeque::new()),
        cv: Condvar::new(),
        stop: AtomicBool::new(false),
    });
    let io_pool: Vec<_> = (0..daemon.cfg.io_threads.max(1))
        .map(|_| {
            let d = Arc::clone(&daemon);
            let q = Arc::clone(&accept);
            std::thread::spawn(move || io_thread_loop(&d, &q))
        })
        .collect();
    let result = loop {
        if daemon.drain_complete() {
            break Ok(());
        }
        match listener.accept() {
            Ok((mut stream, _)) => {
                // Replies are written whole (`http::write_response`), so
                // Nagle's algorithm only adds a delayed-ACK stall.
                let _ = stream.set_nodelay(true);
                // Reserve a slot before queueing; the guard travels
                // with the stream and frees it wherever the connection
                // ends (drained, handled, or handler panic).
                if slots.fetch_add(1, Ordering::SeqCst) >= max_connections {
                    slots.fetch_sub(1, Ordering::SeqCst);
                    // Shed at the door: a deterministic 503 beats an
                    // unbounded pile-up. The hint is short — the cap
                    // clears as fast as one request round-trips.
                    daemon
                        .metrics
                        .lock()
                        .unwrap()
                        .inc("aprofd.http.conn_refused");
                    let _ = stream.set_write_timeout(Some(daemon.cfg.read_timeout));
                    let _ = crate::http::write_response(
                        &mut stream,
                        &Response::shed(503, 250, "busy: connection limit reached; retry\n"),
                        false,
                    );
                    continue;
                }
                let guard = SlotGuard(Arc::clone(&slots));
                let mut q = accept.queue.lock().unwrap();
                q.push_back((stream, guard));
                drop(q);
                accept.cv.notify_one();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => break Err(e),
        }
    };
    // Stop the pool: unserved queued connections drop (their guards
    // free the slots) and each io thread exits at its next wakeup.
    accept.stop.store(true, Ordering::SeqCst);
    accept.queue.lock().unwrap().clear();
    accept.cv.notify_all();
    for t in io_pool {
        let _ = t.join();
    }
    result
}

/// One io-thread: pops connections off the accept queue and handles
/// each to completion. A handler panic is caught here — the thread
/// survives, the counter records it, and the connection's slot guard
/// drops either way.
fn io_thread_loop(daemon: &Daemon, accept: &AcceptQueue) {
    loop {
        let popped = {
            let mut q = accept.queue.lock().unwrap();
            loop {
                if let Some(conn) = q.pop_front() {
                    break Some(conn);
                }
                if accept.stop.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _) = accept
                    .cv
                    .wait_timeout(q, Duration::from_millis(50))
                    .unwrap();
                q = guard;
            }
        };
        let Some((stream, _slot)) = popped else {
            return;
        };
        if catch_unwind(AssertUnwindSafe(|| handle_connection(daemon, stream))).is_err() {
            daemon
                .metrics
                .lock()
                .unwrap()
                .inc("aprofd.http.handler_panics");
        }
        // `_slot` drops here: the connection slot is returned even when
        // the handler panicked.
    }
}

fn handle_connection(daemon: &Daemon, stream: TcpStream) {
    let deadline = daemon.cfg.read_timeout;
    let _ = stream.set_read_timeout(Some(deadline));
    let _ = stream.set_write_timeout(Some(deadline));
    let mut write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = std::io::BufReader::new(stream);
    // Keep-alive loop: serve requests off one connection until the
    // client asks to close, the per-connection cap is reached, the
    // idle deadline expires, an error ends the framing, or the daemon
    // is draining / browned out (tier ≥ 1 disables keep-alive).
    for served in 0..MAX_REQUESTS_PER_CONN {
        let response = match crate::http::read_request(&mut reader) {
            Ok(req) => {
                let resp = daemon.handle(&req);
                let keep_alive = !req.close
                    && served + 1 < MAX_REQUESTS_PER_CONN
                    && !daemon.is_draining()
                    && daemon.current_brownout() < 1;
                if crate::http::write_response(&mut write_half, &resp, keep_alive).is_err()
                    || !keep_alive
                {
                    return;
                }
                continue;
            }
            Err(e @ RequestError::TooLarge(_)) => {
                daemon.metrics.lock().unwrap().inc("aprofd.http.too_large");
                Response::text(413, format!("{e}\n"))
            }
            Err(e @ RequestError::Malformed(_)) => Response::text(400, format!("{e}\n")),
            Err(RequestError::Timeout) => {
                if served > 0 {
                    // Keep-alive idle deadline: the client simply had no
                    // next request within `read_timeout`. Close quietly —
                    // this is the protocol working, not a slow loris.
                    daemon
                        .metrics
                        .lock()
                        .unwrap()
                        .inc("aprofd.http.idle_closed");
                    return;
                }
                // Slow loris: the read deadline expired mid-request.
                // Answer typed (best-effort — the peer may be gone) and
                // close; the io thread is freed either way.
                daemon.metrics.lock().unwrap().inc("aprofd.http.timeouts");
                Response::text(408, "request read deadline expired\n")
            }
            Err(RequestError::Closed | RequestError::Io(_)) => return, // nothing to answer
        };
        // Error responses always end the connection: the request
        // framing is unreliable past this point.
        let _ = crate::http::write_response(&mut write_half, &response, false);
        return;
    }
}
