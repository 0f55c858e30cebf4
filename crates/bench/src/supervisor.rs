//! The crash-safe sweep supervisor.
//!
//! [`run_sweep`](crate::sweep::run_sweep) used to fan cells out over a
//! shared `Mutex<Vec<Option<SweepCell>>>`; one panicking cell poisoned
//! the mutex and killed the whole grid, and a killed process threw away
//! every finished cell. This module is the survival layer wrapped around
//! the same embarrassingly-parallel grid:
//!
//! * **Panic isolation** — every cell attempt runs under
//!   [`catch_unwind`]; a panic is a recorded failure of that attempt,
//!   never a poisoned lock (collection is a channel drained by the
//!   supervising thread — there is no lock left to poison).
//! * **Deadlines** — [`SupervisorOptions::deadline`] (wall-clock,
//!   checked by the VM once per scheduler slice) and
//!   [`SupervisorOptions::max_instructions`] (the VM watchdog budget)
//!   bound each attempt.
//! * **Retry with deterministic backoff** — transient failures (panics,
//!   deadline/budget aborts, guest aborts under an injected fault plan)
//!   are retried up to [`SupervisorOptions::max_attempts`] times with
//!   exponential backoff whose jitter derives from the cell's
//!   `(family, size, seed, attempt)` via FNV-1a — no wall-clock or RNG
//!   nondeterminism reaches the merged output.
//! * **Quarantine** — a cell that exhausts its attempts (or fails
//!   fatally, e.g. a family name that no longer exists after config
//!   drift) lands in [`SweepResult::quarantined`] instead of aborting
//!   the sweep; the rest of the grid completes and the sweep exits
//!   cleanly.
//! * **Checkpoint journal** — with a [`JournalWriter`] attached, every
//!   finished cell is appended (checksummed, fsynced) as it completes;
//!   [`resume_sweep`] salvages the journal after a crash and re-runs
//!   only the missing and quarantined cells, producing a result
//!   byte-identical to an uninterrupted run.

use crate::sweep::{family_workload, QuarantinedCell, SweepCell, SweepResult, SweepSpec};
use drms::core::report_io;
use drms::sched::fnv1a;
use drms::trace::hostio::HostIo;
use drms::trace::journal::{self, ParseJournalError};
use drms::trace::Metrics;
use drms::vm::{
    DecodeMode, DecodedProgram, EventBatch, EventCounters, FaultCounters, FaultPlan, RunConfig,
    RunError, RunStats,
};
use drms::workloads::Workload;
use drms::{Error, ProfileSession};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// A cooperative preemption flag shared between a scheduler (the
/// `aprofd` daemon's dispatcher) and a running supervised sweep.
///
/// Raising the signal asks the sweep to yield at its **next grid-cell
/// boundary**: cells already in flight finish and journal normally, no
/// new cell starts, and the run returns [`SupervisedRun::Yielded`].
/// The fsync'd checkpoint journal *is* the preemption checkpoint — a
/// later [`resume_sweep`] of the same journal completes the grid to
/// artifacts byte-identical to an uninterrupted run (the same property
/// the crash-safety machinery already proves for arbitrary prefixes).
///
/// The signal is level-triggered and sticky until [`clear`]ed; clone
/// handles share one flag.
///
/// [`clear`]: PreemptSignal::clear
#[derive(Clone, Debug, Default)]
pub struct PreemptSignal(Arc<AtomicBool>);

impl PreemptSignal {
    /// A fresh, un-raised signal.
    pub fn new() -> PreemptSignal {
        PreemptSignal::default()
    }

    /// Asks the sweep holding this signal to yield at its next cell
    /// boundary.
    pub fn raise(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether a yield has been requested.
    pub fn is_raised(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }

    /// Re-arms the signal (a re-dispatched job starts un-preempted).
    pub fn clear(&self) {
        self.0.store(false, Ordering::SeqCst);
    }
}

/// Failure-handling policy of a supervised sweep.
#[derive(Clone, Debug)]
pub struct SupervisorOptions {
    /// Attempts per cell before quarantine (minimum 1).
    pub max_attempts: u32,
    /// Base backoff before the second attempt, in milliseconds; doubles
    /// per retry. `0` disables sleeping (tests).
    pub backoff_base_ms: u64,
    /// Upper bound on any single backoff sleep, in milliseconds.
    pub backoff_cap_ms: u64,
    /// Per-attempt wall-clock budget (see
    /// [`RunConfig::deadline`](drms::vm::RunConfig)).
    pub deadline: Option<Duration>,
    /// Per-attempt instruction budget override (the VM watchdog).
    pub max_instructions: Option<u64>,
    /// Kernel fault plan injected into every cell. Guest aborts under an
    /// injected plan are treated as transient (the flaky-I/O world the
    /// plan simulates), so they retry instead of landing in the cell.
    pub faults: Option<FaultPlan>,
    /// Interpreter dispatch mode override for every cell; `None` keeps
    /// the workload's default ([`DecodeMode::Fused`]). A pure
    /// performance knob — all modes profile identically — so, like
    /// `jobs`, it does not bind the journal: a resume may switch modes.
    pub decode: Option<DecodeMode>,
    /// Tool event-batch capacity override for every cell; `None` keeps
    /// the [`RunConfig`] default. Clamped to at least 1. Like
    /// [`decode`](Self::decode), a perf knob that does not bind the
    /// journal.
    pub event_batch: Option<usize>,
    /// Spill every cell's event stream to binary trace shards under
    /// `<trace_dir>/cell-<family>-<size>-<seed>/` (see
    /// [`drms::trace::shard`]). An observability knob, not a semantic
    /// one — the profile is unchanged and replaying the shards offline
    /// reproduces it byte-for-byte — so, like `decode`, it does not
    /// bind the journal.
    pub trace_dir: Option<std::path::PathBuf>,
    /// Host I/O seam the shard spill writes through; fault-injected
    /// under chaos testing. Defaults to the real host.
    pub trace_io: drms::trace::HostIo,
    /// Cooperative preemption signal checked at every grid-cell
    /// boundary (see [`PreemptSignal`]). `None` runs to completion.
    /// Like `jobs` and [`decode`](Self::decode), scheduling does not
    /// bind the journal: a preempted run and its resume share one
    /// journal and one spec record.
    pub preempt: Option<PreemptSignal>,
}

impl Default for SupervisorOptions {
    fn default() -> Self {
        SupervisorOptions {
            max_attempts: 3,
            backoff_base_ms: 5,
            backoff_cap_ms: 250,
            deadline: None,
            max_instructions: None,
            faults: None,
            decode: None,
            event_batch: None,
            trace_dir: None,
            trace_io: drms::trace::HostIo::real(),
            preempt: None,
        }
    }
}

impl SupervisorOptions {
    /// The options rendered as deterministic spec lines — part of the
    /// journal's spec record, so a resume with different failure policy
    /// is rejected instead of silently mixing semantics.
    ///
    /// [`decode`](Self::decode), [`event_batch`](Self::event_batch) and
    /// [`preempt`](Self::preempt) are deliberately absent, like `jobs`:
    /// they change how fast (or whether) cells run *now*, never what
    /// they produce, so a resume may retune or re-signal them.
    fn spec_lines(&self) -> String {
        fn opt<T: std::fmt::Display>(v: &Option<T>) -> String {
            v.as_ref().map_or("-".to_string(), T::to_string)
        }
        format!(
            "max_attempts {}\nbackoff_base_ms {}\nbackoff_cap_ms {}\n\
             deadline_ms {}\nmax_instructions {}\nfaults {}\n",
            self.max_attempts.max(1),
            self.backoff_base_ms,
            self.backoff_cap_ms,
            opt(&self.deadline.map(|d| d.as_millis())),
            opt(&self.max_instructions),
            opt(&self.faults),
        )
    }
}

/// Outcome of one *attempt* at a cell, as classified by the runner.
pub enum Attempt {
    /// The attempt produced a cell (possibly with a recorded guest
    /// abort — deterministic aborts are data, not failures). Boxed:
    /// a cell carries a full report + metrics registry, and the error
    /// variants should stay cheap to move.
    Done(Box<SweepCell>),
    /// Transient failure: retry with backoff, quarantine when attempts
    /// are exhausted.
    Transient(String),
    /// Permanent failure: quarantine immediately, retrying cannot help
    /// (unknown family after config drift, setup errors).
    Fatal(String),
}

/// Everything a cell runner gets to see about its attempt.
pub struct CellCtx<'a> {
    /// Workload family name.
    pub family: &'a str,
    /// Workload size of the cell.
    pub size: i64,
    /// Guest seed of the cell.
    pub seed: u64,
    /// 1-based attempt number.
    pub attempt: u32,
    /// The supervisor's failure policy.
    pub opts: &'a SupervisorOptions,
}

/// A cell runner: maps one attempt to an [`Attempt`] outcome. The
/// supervisor catches panics around the call, so a runner (or the
/// workload underneath it) may panic freely. Tests inject flaky or
/// panicking runners; production uses [`profile_cell`].
pub type Runner<'a> = dyn Fn(&CellCtx) -> Attempt + Sync + 'a;

/// Shared per-sweep state the production runner draws on: built
/// workloads with their pre-decoded programs, keyed by `(family, size)`,
/// plus a pool of recycled event batches.
///
/// A sweep grid re-profiles the same `(family, size)` workload once per
/// seed, and the supervisor may re-run a cell several times (retries,
/// resume). Without the cache every attempt rebuilt the guest program
/// and re-decoded it — pure overhead that scaled with `seeds ×
/// attempts` and was the dominant fixed cost of small cells at high
/// `--jobs`. The cache builds each workload and its
/// [`DecodedProgram`] once; results are unaffected (workload
/// construction is deterministic and takes no seed — the seed enters
/// through [`RunConfig`]).
///
/// Thread-safe: workers share one cache behind internal mutexes, held
/// only for lookups and (on miss) the one-time build.
#[derive(Default)]
pub struct CellCache {
    entries: Mutex<HashMap<(String, i64), Arc<CacheEntry>>>,
    batch_pool: Mutex<Vec<EventBatch>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// One cached workload: the built guest program plus its pre-decoded
/// image (absent under [`DecodeMode::Off`]).
pub struct CacheEntry {
    /// The built workload of this `(family, size)` cell.
    pub workload: Workload,
    /// The shared pre-decoded image, `None` when decoding is off.
    pub decoded: Option<Arc<DecodedProgram>>,
    mode: DecodeMode,
}

impl CellCache {
    /// An empty cache.
    pub fn new() -> CellCache {
        CellCache::default()
    }

    /// The cached workload of `(family, size)` pre-decoded under
    /// `mode`, building it on first use. `None` for unknown families.
    pub fn entry(&self, family: &str, size: i64, mode: DecodeMode) -> Option<Arc<CacheEntry>> {
        let key = (family.to_string(), size);
        // A panic while building a workload is caught by the supervisor;
        // recover the map rather than poisoning every later cell.
        let mut map = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(e) = map.get(&key) {
            if e.mode == mode {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(Arc::clone(e));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let workload = family_workload(family, size)?;
        let decoded = match mode {
            DecodeMode::Off => None,
            m => Some(DecodedProgram::decode(&workload.program, m)),
        };
        let entry = Arc::new(CacheEntry {
            workload,
            decoded,
            mode,
        });
        map.insert(key, Arc::clone(&entry));
        Some(entry)
    }

    /// A pooled event batch (or a fresh empty one); hand it back with
    /// [`recycle`](Self::recycle) so the next cell on any worker reuses
    /// its storage.
    pub fn take_batch(&self) -> EventBatch {
        self.batch_pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_default()
    }

    /// Returns a batch to the pool.
    pub fn recycle(&self, batch: EventBatch) {
        self.batch_pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(batch);
    }

    /// Cache lookups served from an existing entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache lookups that had to build the workload.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Total buffer allocations across every pooled batch — with W
    /// workers this stays at W no matter how many cells ran.
    pub fn batch_allocations(&self) -> u64 {
        self.batch_pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(EventBatch::allocations)
            .sum()
    }
}

/// The production cell runner: builds the family workload, applies the
/// supervisor's budgets, and profiles it under a [`ProfileSession`].
/// Stateless — every sweep entry point routes through
/// [`profile_cell_cached`] instead; this remains for callers that hold
/// no cache.
pub fn profile_cell(ctx: &CellCtx) -> Attempt {
    profile_cell_cached(ctx, &CellCache::new())
}

/// [`profile_cell`] drawing the workload, its pre-decoded program and
/// the event batch from `cache`.
pub fn profile_cell_cached(ctx: &CellCtx, cache: &CellCache) -> Attempt {
    let mode = ctx.opts.decode.unwrap_or_default();
    let Some(entry) = cache.entry(ctx.family, ctx.size, mode) else {
        return Attempt::Fatal(format!(
            "unknown workload family `{}` (config drift?)",
            ctx.family
        ));
    };
    let w = &entry.workload;
    let mut config = RunConfig {
        seed: ctx.seed,
        decode: mode,
        ..w.run_config()
    };
    if let Some(n) = ctx.opts.event_batch {
        config.event_batch = n.max(1);
    }
    if let Some(limit) = ctx.opts.max_instructions {
        config.max_instructions = limit;
    }
    config.deadline = ctx.opts.deadline;
    if ctx.opts.faults.is_some() {
        config.faults = ctx.opts.faults.clone();
    }
    let mut batch = cache.take_batch();
    let start = Instant::now();
    let mut session = ProfileSession::new(&w.program)
        .config(config)
        .batch_buffer(&mut batch);
    if let Some(d) = &entry.decoded {
        session = session.decoded(Arc::clone(d));
    }
    if let Some(dir) = &ctx.opts.trace_dir {
        session = session
            .trace_dir(dir.join(format!("cell-{}-{}-{}", ctx.family, ctx.size, ctx.seed)))
            .trace_io(ctx.opts.trace_io.clone());
    }
    let result = session.run();
    cache.recycle(batch);
    let outcome = match result {
        Ok(o) => o,
        // Setup failures and shard-trace finalize failures both land
        // here; neither leaves a profile worth keeping.
        Err(e) => return Attempt::Fatal(format!("session failed: {e}")),
    };
    match &outcome.error {
        // Budget exhaustion is what the supervisor's deadlines are for:
        // retry, then quarantine.
        Some(e @ (RunError::DeadlineExceeded { .. } | RunError::InstructionLimit { .. })) => {
            return Attempt::Transient(e.to_string());
        }
        // Under an injected fault plan, guest aborts model a flaky
        // environment — transient by definition.
        Some(e) if ctx.opts.faults.is_some() => return Attempt::Transient(e.to_string()),
        _ => {}
    }
    Attempt::Done(Box::new(SweepCell {
        size: ctx.size,
        seed: ctx.seed,
        secs: start.elapsed().as_secs_f64(),
        shadow_bytes: outcome.shadow_bytes,
        stats: outcome.stats,
        report: outcome.report,
        metrics: outcome.metrics,
        error: outcome.error.map(|e| e.to_string()),
        attempts: ctx.attempt,
        panics: 0,
    }))
}

/// One cell's final fate.
#[derive(Clone, Debug)]
pub enum CellOutcome {
    /// The cell completed (its `attempts`/`panics` fields record the
    /// retries it took). Boxed for the same reason as
    /// [`Attempt::Done`].
    Completed(Box<SweepCell>),
    /// The cell exhausted its attempts or failed fatally.
    Quarantined(QuarantinedCell),
}

/// Deterministic backoff before attempt `attempt + 1`: exponential in
/// the attempt number, jittered by an FNV-1a hash of the cell identity —
/// reproducible for a given spec, decorrelated across cells.
fn backoff_ms(opts: &SupervisorOptions, family: &str, size: i64, seed: u64, attempt: u32) -> u64 {
    if opts.backoff_base_ms == 0 {
        return 0;
    }
    let exp = opts
        .backoff_base_ms
        .saturating_mul(1u64 << (attempt - 1).min(16));
    let capped = exp.min(opts.backoff_cap_ms).max(1);
    let key = format!("{family}:{size}:{seed}:{attempt}");
    let jitter = fnv1a(key.as_bytes()) % (capped / 2 + 1);
    (capped / 2 + jitter).min(opts.backoff_cap_ms)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs one cell to completion or quarantine: attempt, classify, back
/// off, repeat. Panics in the runner are caught and treated as
/// transient failures.
fn supervise_cell(
    family: &str,
    size: i64,
    seed: u64,
    opts: &SupervisorOptions,
    runner: &Runner<'_>,
) -> CellOutcome {
    let max_attempts = opts.max_attempts.max(1);
    let mut panics = 0u32;
    for attempt in 1..=max_attempts {
        let ctx = CellCtx {
            family,
            size,
            seed,
            attempt,
            opts,
        };
        let failure = match catch_unwind(AssertUnwindSafe(|| runner(&ctx))) {
            Ok(Attempt::Done(mut cell)) => {
                cell.attempts = attempt;
                cell.panics = panics;
                return CellOutcome::Completed(cell);
            }
            Ok(Attempt::Fatal(error)) => {
                return CellOutcome::Quarantined(QuarantinedCell {
                    size,
                    seed,
                    attempts: attempt,
                    panics,
                    error,
                });
            }
            Ok(Attempt::Transient(e)) => e,
            Err(payload) => {
                panics += 1;
                format!("panic: {}", panic_message(payload))
            }
        };
        if attempt == max_attempts {
            return CellOutcome::Quarantined(QuarantinedCell {
                size,
                seed,
                attempts: attempt,
                panics,
                error: failure,
            });
        }
        let ms = backoff_ms(opts, family, size, seed, attempt);
        if ms > 0 {
            std::thread::sleep(Duration::from_millis(ms));
        }
    }
    unreachable!("the attempt loop always returns")
}

// ---------------------------------------------------------------------------
// Journal I/O.

/// An append-only, durably-flushed writer for the checkpoint journal.
///
/// Append errors (disk full, permissions yanked) degrade gracefully:
/// the writer warns on stderr once, stops journaling, and the sweep
/// itself carries on — losing checkpoints must never lose the run.
pub struct JournalWriter {
    file: Option<File>,
    io: HostIo,
}

impl JournalWriter {
    /// Creates (truncates) the journal at `path`, writes the file
    /// header, and syncs the parent directory so the journal's
    /// existence survives a crash.
    pub fn create(path: &Path) -> std::io::Result<JournalWriter> {
        JournalWriter::create_with(&HostIo::real(), path)
    }

    /// [`JournalWriter::create`] through `io`, so chaos suites can fail
    /// any step of journal creation.
    pub fn create_with(io: &HostIo, path: &Path) -> std::io::Result<JournalWriter> {
        let mut file = io.create(path)?;
        io.write_all(&mut file, journal::FILE_HEADER.as_bytes())?;
        io.write_all(&mut file, b"\n")?;
        io.fsync(&file)?;
        // The file's *name* lives in the directory; without this a
        // crash can lose the freshly-created journal entirely.
        io.sync_parent_dir(path)?;
        Ok(JournalWriter {
            file: Some(file),
            io: io.clone(),
        })
    }

    /// Opens the journal at `path` for appending (resume).
    pub fn append_to(path: &Path) -> std::io::Result<JournalWriter> {
        JournalWriter::append_to_with(&HostIo::real(), path)
    }

    /// [`JournalWriter::append_to`] with appended records written
    /// through `io`.
    pub fn append_to_with(io: &HostIo, path: &Path) -> std::io::Result<JournalWriter> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(JournalWriter {
            file: Some(file),
            io: io.clone(),
        })
    }

    /// Appends one record and flushes it to disk. Best-effort: on I/O
    /// failure the writer disables itself (see the type docs).
    pub fn append(&mut self, meta: &str, payload: &str) {
        let Some(file) = self.file.as_mut() else {
            return;
        };
        let encoded = journal::encode_record(meta, payload);
        let result = self
            .io
            .write_all(file, encoded.as_bytes())
            .and_then(|()| self.io.fdatasync(file));
        if let Err(e) = result {
            eprintln!("warning: journal append failed ({e}); journaling disabled for this sweep");
            self.file = None;
        }
    }

    /// Whether the writer is still journaling (an append failure
    /// disables it for the rest of the sweep).
    pub fn is_active(&self) -> bool {
        self.file.is_some()
    }
}

fn csv(values: &[u64]) -> String {
    if values.is_empty() {
        return "-".to_string();
    }
    values
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

fn uncsv(tok: &str) -> Result<Vec<u64>, String> {
    if tok == "-" {
        return Ok(Vec::new());
    }
    tok.split(',')
        .map(|v| v.parse().map_err(|_| format!("bad number `{v}`")))
        .collect()
}

/// One line of error text: abort reasons are single-line by
/// construction, but the journal's line-oriented cell codec must not
/// trust that.
fn one_line(s: &str) -> String {
    s.replace(['\n', '\r'], " ")
}

fn spec_meta(family: &str) -> String {
    format!("spec {family}")
}

fn spec_payload(spec: &SweepSpec, opts: &SupervisorOptions) -> String {
    let sizes: Vec<u64> = spec.sizes.iter().map(|&s| s.max(0) as u64).collect();
    format!(
        "family {}\nsizes {}\nseeds {}\n{}",
        spec.family,
        csv(&sizes),
        csv(&spec.seeds),
        opts.spec_lines()
    )
}

fn cell_meta(family: &str, index: usize, outcome: &CellOutcome) -> String {
    let status = match outcome {
        CellOutcome::Completed(_) => "ok",
        CellOutcome::Quarantined(_) => "quarantined",
    };
    format!("cell {family} {index} {status}")
}

fn encode_cell_payload(cell: &SweepCell) -> String {
    let mut out = String::new();
    let s = &cell.stats;
    let e = &s.events_by_kind;
    let f = &s.faults;
    let _ = writeln!(out, "size {}", cell.size);
    let _ = writeln!(out, "seed {}", cell.seed);
    let _ = writeln!(out, "secs {}", cell.secs);
    let _ = writeln!(out, "shadow_bytes {}", cell.shadow_bytes);
    let _ = writeln!(out, "attempts {}", cell.attempts);
    let _ = writeln!(out, "panics {}", cell.panics);
    let _ = writeln!(
        out,
        "error {}",
        cell.error.as_deref().map_or("-".to_string(), one_line)
    );
    let _ = writeln!(out, "stats.instructions {}", s.instructions);
    let _ = writeln!(out, "stats.basic_blocks {}", s.basic_blocks);
    let _ = writeln!(out, "stats.per_thread_blocks {}", csv(&s.per_thread_blocks));
    let _ = writeln!(out, "stats.per_thread_nanos {}", csv(&s.per_thread_nanos));
    let _ = writeln!(out, "stats.thread_switches {}", s.thread_switches);
    let _ = writeln!(out, "stats.syscalls {}", s.syscalls);
    let _ = writeln!(out, "stats.threads {}", s.threads);
    let _ = writeln!(out, "stats.guest_pages {}", s.guest_pages);
    let _ = writeln!(out, "stats.guest_bytes {}", s.guest_bytes);
    let _ = writeln!(out, "stats.events {}", s.events);
    let by_kind: Vec<u64> = e.by_kind().iter().map(|&(_, v)| v).collect();
    let _ = writeln!(out, "stats.events_by_kind {}", csv(&by_kind));
    let faults = [
        f.short_reads,
        f.short_writes,
        f.transient_errors,
        f.device_failures,
        f.errno_returns,
    ];
    let _ = writeln!(out, "stats.faults {}", csv(&faults));
    let metrics = cell.metrics.to_lines();
    let _ = writeln!(out, "metrics {}", metrics.lines().count());
    out.push_str(&metrics);
    out.push_str("report\n");
    out.push_str(&report_io::to_text(&cell.report));
    out
}

fn encode_quarantine_payload(q: &QuarantinedCell) -> String {
    format!(
        "size {}\nseed {}\nattempts {}\npanics {}\nerror {}\n",
        q.size,
        q.seed,
        q.attempts,
        q.panics,
        one_line(&q.error)
    )
}

fn encode_outcome(outcome: &CellOutcome) -> String {
    match outcome {
        CellOutcome::Completed(c) => encode_cell_payload(c),
        CellOutcome::Quarantined(q) => encode_quarantine_payload(q),
    }
}

struct PayloadLines<'a> {
    lines: std::str::Lines<'a>,
    consumed: usize,
}

impl<'a> PayloadLines<'a> {
    fn new(text: &'a str) -> Self {
        PayloadLines {
            lines: text.lines(),
            consumed: 0,
        }
    }

    fn field(&mut self, key: &str) -> Result<&'a str, String> {
        let line = self
            .lines
            .next()
            .ok_or_else(|| format!("missing `{key}` line"))?;
        self.consumed += 1;
        line.strip_prefix(key)
            .and_then(|rest| rest.strip_prefix(' '))
            .ok_or_else(|| format!("expected `{key}`, found `{line}`"))
    }

    fn num<T: std::str::FromStr>(&mut self, key: &str) -> Result<T, String> {
        let v = self.field(key)?;
        v.parse().map_err(|_| format!("bad `{key}` value `{v}`"))
    }
}

/// Decodes one journaled `cell … ok` payload back into a [`SweepCell`].
///
/// Public for journal consumers beyond resume: the `aprofd` daemon
/// renders live snapshot/delta reports and per-job metrics straight
/// from the on-disk journal of a running sweep.
pub fn decode_cell_payload(payload: &str) -> Result<SweepCell, String> {
    let mut p = PayloadLines::new(payload);
    let size: i64 = p.num("size")?;
    let seed: u64 = p.num("seed")?;
    let secs: f64 = p.num("secs")?;
    let shadow_bytes: u64 = p.num("shadow_bytes")?;
    let attempts: u32 = p.num("attempts")?;
    let panics: u32 = p.num("panics")?;
    let error = match p.field("error")? {
        "-" => None,
        e => Some(e.to_string()),
    };
    let mut stats = RunStats {
        instructions: p.num("stats.instructions")?,
        basic_blocks: p.num("stats.basic_blocks")?,
        per_thread_blocks: uncsv(p.field("stats.per_thread_blocks")?)?,
        per_thread_nanos: uncsv(p.field("stats.per_thread_nanos")?)?,
        thread_switches: p.num("stats.thread_switches")?,
        syscalls: p.num("stats.syscalls")?,
        threads: p.num("stats.threads")?,
        guest_pages: p.num("stats.guest_pages")?,
        guest_bytes: p.num("stats.guest_bytes")?,
        events: p.num("stats.events")?,
        ..RunStats::default()
    };
    let by_kind = uncsv(p.field("stats.events_by_kind")?)?;
    if by_kind.len() != 11 {
        return Err(format!("expected 11 event kinds, got {}", by_kind.len()));
    }
    stats.events_by_kind = EventCounters {
        thread_start: by_kind[0],
        thread_exit: by_kind[1],
        thread_switch: by_kind[2],
        call: by_kind[3],
        ret: by_kind[4],
        read: by_kind[5],
        write: by_kind[6],
        sync: by_kind[7],
        block: by_kind[8],
        kernel_to_user: by_kind[9],
        user_to_kernel: by_kind[10],
    };
    let faults = uncsv(p.field("stats.faults")?)?;
    if faults.len() != 5 {
        return Err(format!("expected 5 fault counters, got {}", faults.len()));
    }
    stats.faults = FaultCounters {
        short_reads: faults[0],
        short_writes: faults[1],
        transient_errors: faults[2],
        device_failures: faults[3],
        errno_returns: faults[4],
    };
    let metric_lines: usize = p.num("metrics")?;
    let mut metric_text = String::new();
    for _ in 0..metric_lines {
        let line = p.lines.next().ok_or("metrics section truncated")?;
        p.consumed += 1;
        metric_text.push_str(line);
        metric_text.push('\n');
    }
    let metrics = Metrics::from_lines(&metric_text)?;
    match p.lines.next() {
        Some("report") => p.consumed += 1,
        other => return Err(format!("expected `report` marker, found {other:?}")),
    }
    // Everything after the marker is the report, verbatim.
    let mut offset = 0usize;
    for _ in 0..p.consumed {
        offset = payload[offset..]
            .find('\n')
            .map(|n| offset + n + 1)
            .ok_or("payload ended before the report section")?;
    }
    let report = report_io::from_text(&payload[offset..]).map_err(|e| e.to_string())?;
    Ok(SweepCell {
        size,
        seed,
        secs,
        shadow_bytes,
        stats,
        report,
        metrics,
        error,
        attempts,
        panics,
    })
}

fn decode_quarantine_payload(payload: &str) -> Result<QuarantinedCell, String> {
    let mut p = PayloadLines::new(payload);
    Ok(QuarantinedCell {
        size: p.num("size")?,
        seed: p.num("seed")?,
        attempts: p.num("attempts")?,
        panics: p.num("panics")?,
        error: p.field("error")?.to_string(),
    })
}

// ---------------------------------------------------------------------------
// The supervisor proper.

/// How a preemptible supervised run ended.
#[derive(Debug)]
pub enum SupervisedRun {
    /// Every grid cell has an outcome; the merged result is final.
    Completed(Box<SweepResult>),
    /// The [`PreemptSignal`] was raised: the run stopped at a cell
    /// boundary with `cells_done` outcomes journaled. Re-dispatching
    /// through [`resume_sweep`] completes the grid byte-identically.
    Yielded {
        /// Grid slots with a journaled outcome when the run yielded.
        cells_done: usize,
        /// Total grid cells.
        cells_total: usize,
    },
}

/// Runs `spec` under the supervisor with `opts` and the production
/// runner, without journaling. This is what
/// [`run_sweep`](crate::sweep::run_sweep) delegates to.
pub fn run_supervised(spec: &SweepSpec, opts: &SupervisorOptions) -> SweepResult {
    let cache = CellCache::new();
    run_supervised_with(spec, opts, None, &|ctx| profile_cell_cached(ctx, &cache))
}

/// Runs `spec` under the supervisor with a custom runner and an
/// optional checkpoint journal. Cells append to the journal in
/// completion order; the merged result is assembled in grid order, so
/// journal order never leaks into the output.
///
/// This entry point is non-preemptible: callers that thread a
/// [`PreemptSignal`] through their options must use
/// [`run_supervised_preemptible`] instead, which can represent the
/// yielded state.
pub fn run_supervised_with(
    spec: &SweepSpec,
    opts: &SupervisorOptions,
    journal: Option<&mut JournalWriter>,
    runner: &Runner<'_>,
) -> SweepResult {
    match run_supervised_preemptible(spec, opts, journal, runner) {
        SupervisedRun::Completed(r) => *r,
        SupervisedRun::Yielded { .. } => unreachable!(
            "run_supervised_with is only reachable without a preempt signal; \
             preemptible callers use run_supervised_preemptible"
        ),
    }
}

/// [`run_supervised_with`] that honors [`SupervisorOptions::preempt`]:
/// when the signal is raised mid-grid the run stops at the next cell
/// boundary and returns [`SupervisedRun::Yielded`] — everything
/// finished so far is already fsync'd in the journal, which is the
/// checkpoint a later [`resume_sweep`] completes from.
pub fn run_supervised_preemptible(
    spec: &SweepSpec,
    opts: &SupervisorOptions,
    mut journal: Option<&mut JournalWriter>,
    runner: &Runner<'_>,
) -> SupervisedRun {
    let grid = spec.grid();
    let start = Instant::now();
    if let Some(j) = journal.as_deref_mut() {
        j.append(&spec_meta(&spec.family), &spec_payload(spec, opts));
    }
    let mut slots: Vec<Option<CellOutcome>> = (0..grid.len()).map(|_| None).collect();
    if run_missing(spec, &grid, opts, journal, runner, &mut slots) {
        SupervisedRun::Completed(Box::new(assemble(
            spec,
            slots,
            start.elapsed().as_secs_f64(),
        )))
    } else {
        SupervisedRun::Yielded {
            cells_done: slots.iter().filter(|s| s.is_some()).count(),
            cells_total: grid.len(),
        }
    }
}

fn preempt_raised(opts: &SupervisorOptions) -> bool {
    opts.preempt.as_ref().is_some_and(PreemptSignal::is_raised)
}

/// Fills every `None` slot by running its cell, appending each outcome
/// to the journal as it completes. Returns whether the grid is complete
/// — `false` only when a raised [`PreemptSignal`] stopped the run at a
/// cell boundary (cells already in flight still finish and journal).
fn run_missing(
    spec: &SweepSpec,
    grid: &[(i64, u64)],
    opts: &SupervisorOptions,
    mut journal: Option<&mut JournalWriter>,
    runner: &Runner<'_>,
    slots: &mut [Option<CellOutcome>],
) -> bool {
    let pending: Vec<usize> = (0..grid.len()).filter(|&i| slots[i].is_none()).collect();
    if pending.is_empty() {
        return true;
    }
    let workers = spec.jobs.max(1).min(pending.len());
    if workers <= 1 {
        for &i in &pending {
            if preempt_raised(opts) {
                return false;
            }
            let (size, seed) = grid[i];
            let outcome = supervise_cell(&spec.family, size, seed, opts, runner);
            if let Some(j) = journal.as_deref_mut() {
                j.append(
                    &cell_meta(&spec.family, i, &outcome),
                    &encode_outcome(&outcome),
                );
            }
            slots[i] = Some(outcome);
        }
        return true;
    }
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, CellOutcome)>();
    std::thread::scope(|s| {
        let pending = &pending;
        let cursor = &cursor;
        for _ in 0..workers {
            let tx = tx.clone();
            s.spawn(move || loop {
                // The preempt check guards the *claim*: a raised signal
                // stops workers from starting new cells, while cells
                // already claimed run to completion and journal.
                if preempt_raised(opts) {
                    break;
                }
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&i) = pending.get(k) else {
                    break;
                };
                let (size, seed) = grid[i];
                let outcome = supervise_cell(&spec.family, size, seed, opts, runner);
                if tx.send((i, outcome)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // The supervising thread owns the slots and the journal — no
        // shared mutex, nothing a worker panic could poison. Each
        // outcome is journaled (and fsynced) the moment it arrives, so
        // a SIGKILL loses at most the cells still in flight.
        for (i, outcome) in rx {
            if let Some(j) = journal.as_deref_mut() {
                j.append(
                    &cell_meta(&spec.family, i, &outcome),
                    &encode_outcome(&outcome),
                );
            }
            slots[i] = Some(outcome);
        }
    });
    pending.iter().all(|&i| slots[i].is_some())
}

/// Splits filled slots into completed cells and quarantined cells, both
/// in grid order.
fn assemble(spec: &SweepSpec, slots: Vec<Option<CellOutcome>>, wall_secs: f64) -> SweepResult {
    let mut cells = Vec::new();
    let mut quarantined = Vec::new();
    for slot in slots {
        match slot.expect("every grid slot was filled by run_missing") {
            CellOutcome::Completed(c) => cells.push(*c),
            CellOutcome::Quarantined(q) => quarantined.push(q),
        }
    }
    SweepResult {
        spec: spec.clone(),
        cells,
        quarantined,
        wall_secs,
    }
}

/// What a resume salvaged and what it had to redo — surfaced to the CLI
/// and folded into the *resume accounting* registry, which is kept
/// separate from the deterministic merged metrics (a resumed run's
/// merged output must stay byte-identical to an uninterrupted run).
#[derive(Clone, Debug, Default)]
pub struct ResumeReport {
    /// Salvage + resume accounting: `journal.lines.*`,
    /// `journal.cells_salvaged`, `journal.cells_rerun`,
    /// `journal.cells_requarantined` — audited by [`Metrics::audit`].
    pub metrics: Metrics,
    /// Completed cells recovered from the journal.
    pub salvaged_cells: usize,
    /// Cells re-run because they were missing, torn, or quarantined.
    pub rerun_cells: usize,
    /// Human-readable notes (torn records, re-run quarantines, …).
    pub warnings: Vec<String>,
}

/// Resumes the sweep `spec` from the journal at `path` with the
/// production runner.
pub fn resume_sweep(
    spec: &SweepSpec,
    opts: &SupervisorOptions,
    path: &Path,
) -> Result<(SweepResult, ResumeReport), Error> {
    let cache = CellCache::new();
    resume_sweep_with(spec, opts, path, &|ctx| profile_cell_cached(ctx, &cache))
}

/// Resumes the sweep `spec` from the journal at `path`: salvages the
/// journal's valid prefix, adopts every completed cell that matches the
/// grid, re-runs missing / torn / quarantined cells (appending them to
/// the same journal), and returns a result byte-identical to an
/// uninterrupted run of the same spec.
///
/// # Errors
/// * [`Error::Io`] — the journal cannot be read or reopened for append;
/// * [`Error::Journal`] — the journal's spec record for this family
///   disagrees with `spec` + `opts` (resuming under a different grid or
///   failure policy would silently mix semantics).
///
/// A journal with *no* spec record for this family is not an error: the
/// family had not started when the original run died, so the resume
/// runs it from scratch (this is what lets one journal carry a
/// multi-family `repro sweep`).
pub fn resume_sweep_with(
    spec: &SweepSpec,
    opts: &SupervisorOptions,
    path: &Path,
    runner: &Runner<'_>,
) -> Result<(SweepResult, ResumeReport), Error> {
    resume_sweep_with_io(spec, opts, path, runner, &HostIo::real())
}

/// [`resume_sweep_with`] with every journal/artifact write routed
/// through `io` — the chaos suite's entry point for proving that a
/// faulted resume either completes byte-identically or fails typed.
///
/// Non-preemptible, like [`run_supervised_with`]: callers that set
/// [`SupervisorOptions::preempt`] use
/// [`resume_sweep_preemptible_with_io`].
pub fn resume_sweep_with_io(
    spec: &SweepSpec,
    opts: &SupervisorOptions,
    path: &Path,
    runner: &Runner<'_>,
    io: &HostIo,
) -> Result<(SweepResult, ResumeReport), Error> {
    match resume_sweep_preemptible_with_io(spec, opts, path, runner, io)? {
        (SupervisedRun::Completed(r), report) => Ok((*r, report)),
        (SupervisedRun::Yielded { .. }, _) => unreachable!(
            "resume_sweep_with_io is only reachable without a preempt signal; \
             preemptible callers use resume_sweep_preemptible_with_io"
        ),
    }
}

/// [`resume_sweep_with_io`] that honors [`SupervisorOptions::preempt`]:
/// a raised signal stops the re-run at the next cell boundary and
/// returns [`SupervisedRun::Yielded`] — the journal (salvaged prefix
/// plus everything this pass appended) remains the checkpoint for the
/// next dispatch, so preempt/resume cycles can stack arbitrarily deep
/// and still assemble byte-identical artifacts.
pub fn resume_sweep_preemptible_with_io(
    spec: &SweepSpec,
    opts: &SupervisorOptions,
    path: &Path,
    runner: &Runner<'_>,
    io: &HostIo,
) -> Result<(SupervisedRun, ResumeReport), Error> {
    let text = std::fs::read_to_string(path)?;
    let salvaged = journal::from_text_lossy(&text);
    let grid = spec.grid();
    let start = Instant::now();
    let mut report = ResumeReport::default();
    salvaged.observe_metrics(&mut report.metrics);
    report.warnings.extend(salvaged.warnings.iter().cloned());

    // Validate the (last) spec record for this family, if any.
    let want_payload = spec_payload(spec, opts);
    let spec_rec = salvaged
        .records
        .iter()
        .rfind(|r| r.meta == spec_meta(&spec.family));
    let family_started = match spec_rec {
        Some(rec) if rec.payload == want_payload => true,
        Some(rec) => {
            return Err(ParseJournalError {
                record: 0,
                message: format!(
                    "spec mismatch for family `{}`: journal has\n{}\nresume wants\n{}",
                    spec.family, rec.payload, want_payload
                ),
            }
            .into());
        }
        None => false,
    };

    // Adopt salvaged cells. Later records win (append-only journal:
    // a re-run simply appends a fresh record for the same index).
    let mut slots: Vec<Option<CellOutcome>> = (0..grid.len()).map(|_| None).collect();
    let cell_prefix = format!("cell {} ", spec.family);
    if family_started {
        for rec in &salvaged.records {
            let Some(rest) = rec.meta.strip_prefix(cell_prefix.as_str()) else {
                continue;
            };
            let mut tok = rest.split(' ');
            let (idx, status) = match (
                tok.next().and_then(|t| t.parse::<usize>().ok()),
                tok.next(),
                tok.next(),
            ) {
                (Some(i), Some(s), None) => (i, s),
                _ => {
                    report
                        .warnings
                        .push(format!("unparseable cell meta `{}`", rec.meta));
                    continue;
                }
            };
            if idx >= grid.len() {
                report
                    .warnings
                    .push(format!("cell index {idx} outside the grid"));
                continue;
            }
            let decoded = match status {
                "ok" => {
                    decode_cell_payload(&rec.payload).map(|c| CellOutcome::Completed(Box::new(c)))
                }
                "quarantined" => {
                    decode_quarantine_payload(&rec.payload).map(CellOutcome::Quarantined)
                }
                other => Err(format!("unknown cell status `{other}`")),
            };
            match decoded {
                Ok(outcome) => {
                    let (size, seed) = (outcome_size(&outcome), outcome_seed(&outcome));
                    if (size, seed) != grid[idx] {
                        report.warnings.push(format!(
                            "cell {idx} payload ({size}, {seed}) disagrees with the grid \
                             {:?}; re-running",
                            grid[idx]
                        ));
                        continue;
                    }
                    slots[idx] = Some(outcome);
                }
                Err(e) => {
                    report
                        .warnings
                        .push(format!("cell {idx} payload unusable ({e}); re-running"));
                }
            }
        }
    }

    // Quarantined cells get a fresh chance on resume: self-healing for
    // transient environments, and the re-run appends a newer record
    // that wins over the quarantine on any later resume.
    for slot in slots.iter_mut() {
        if let Some(CellOutcome::Quarantined(q)) = slot {
            report.warnings.push(format!(
                "re-running quarantined cell (size {}, seed {}): {}",
                q.size, q.seed, q.error
            ));
            report.metrics.inc("journal.cells_requarantined");
            *slot = None;
        }
    }

    report.salvaged_cells = slots.iter().filter(|s| s.is_some()).count();
    report.rerun_cells = grid.len() - report.salvaged_cells;
    report
        .metrics
        .add("journal.cells_rerun", report.rerun_cells as u64);

    let mut writer = if text.is_empty() || salvaged.records.is_empty() && salvaged.is_damaged() {
        // Nothing usable (empty file, or killed before the header hit
        // the disk): start the journal over.
        JournalWriter::create_with(io, path)?
    } else if salvaged.is_damaged() {
        // A torn tail or stray trailer would sit between the valid
        // prefix and everything this resume appends, and the *next*
        // salvage would stop at the damage and drop the appended
        // records. Rewrite the journal to its salvaged prefix first so
        // interleaved appends from a resumed writer always extend a
        // clean file.
        crate::artifact::atomic_write_with(io, path, &journal::to_text(&salvaged.records))?;
        report.metrics.inc("journal.rewritten");
        JournalWriter::append_to_with(io, path)?
    } else {
        JournalWriter::append_to_with(io, path)?
    };
    if !family_started {
        writer.append(&spec_meta(&spec.family), &want_payload);
    }
    let run = if run_missing(spec, &grid, opts, Some(&mut writer), runner, &mut slots) {
        SupervisedRun::Completed(Box::new(assemble(
            spec,
            slots,
            start.elapsed().as_secs_f64(),
        )))
    } else {
        SupervisedRun::Yielded {
            cells_done: slots.iter().filter(|s| s.is_some()).count(),
            cells_total: grid.len(),
        }
    };
    Ok((run, report))
}

fn outcome_size(o: &CellOutcome) -> i64 {
    match o {
        CellOutcome::Completed(c) => c.size,
        CellOutcome::Quarantined(q) => q.size,
    }
}

fn outcome_seed(o: &CellOutcome) -> u64 {
    match o {
        CellOutcome::Completed(c) => c.seed,
        CellOutcome::Quarantined(q) => q.seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let opts = SupervisorOptions::default();
        let a1 = backoff_ms(&opts, "stream", 4, 1, 1);
        let a2 = backoff_ms(&opts, "stream", 4, 1, 1);
        assert_eq!(a1, a2, "same cell, same attempt, same backoff");
        for attempt in 1..8 {
            let ms = backoff_ms(&opts, "stream", 4, 1, attempt);
            assert!(ms >= 1 && ms <= opts.backoff_cap_ms, "{ms}");
        }
        let other = backoff_ms(&opts, "stream", 4, 2, 1);
        assert!(
            a1 != other || a1 <= opts.backoff_cap_ms,
            "jitter varies by cell"
        );
        let zero = SupervisorOptions {
            backoff_base_ms: 0,
            ..SupervisorOptions::default()
        };
        assert_eq!(backoff_ms(&zero, "stream", 4, 1, 1), 0);
    }

    #[test]
    fn cell_payload_roundtrips() {
        let spec = SweepSpec::new("stream", &[4], 1);
        let result = run_supervised(&spec, &SupervisorOptions::default());
        let cell = &result.cells[0];
        let payload = encode_cell_payload(cell);
        let back = decode_cell_payload(&payload).unwrap();
        assert_eq!(back.size, cell.size);
        assert_eq!(back.seed, cell.seed);
        assert_eq!(back.stats, cell.stats);
        assert_eq!(back.report, cell.report);
        assert_eq!(back.metrics, cell.metrics);
        assert_eq!(back.error, cell.error);
        assert_eq!(back.attempts, cell.attempts);
    }

    #[test]
    fn quarantine_payload_roundtrips() {
        let q = QuarantinedCell {
            size: 8,
            seed: 3,
            attempts: 3,
            panics: 2,
            error: "panic: multi\nline".to_string(),
        };
        let payload = encode_quarantine_payload(&q);
        let back = decode_quarantine_payload(&payload).unwrap();
        assert_eq!(back.size, 8);
        assert_eq!(back.attempts, 3);
        assert_eq!(back.panics, 2);
        assert_eq!(back.error, "panic: multi line", "newlines flattened");
    }

    #[test]
    fn spec_payload_binds_grid_and_policy() {
        let spec = SweepSpec::new("stream", &[4, 8], 2).seeds(&[1, 2]);
        let a = spec_payload(&spec, &SupervisorOptions::default());
        assert!(a.contains("family stream"));
        assert!(a.contains("sizes 4,8"));
        assert!(a.contains("seeds 1,2"));
        assert!(a.contains("max_attempts 3"));
        let tighter = SupervisorOptions {
            max_attempts: 1,
            ..SupervisorOptions::default()
        };
        assert_ne!(a, spec_payload(&spec, &tighter));
        let other_jobs = SweepSpec {
            jobs: 7,
            ..spec.clone()
        };
        assert_eq!(
            a,
            spec_payload(&other_jobs, &SupervisorOptions::default()),
            "jobs must not bind the journal: resume may use any worker count"
        );
        let other_dispatch = SupervisorOptions {
            decode: Some(DecodeMode::Off),
            event_batch: Some(1),
            ..SupervisorOptions::default()
        };
        assert_eq!(
            a,
            spec_payload(&spec, &other_dispatch),
            "dispatch knobs must not bind the journal: all modes profile identically"
        );
        let preemptible = SupervisorOptions {
            preempt: Some(PreemptSignal::new()),
            ..SupervisorOptions::default()
        };
        assert_eq!(
            a,
            spec_payload(&spec, &preemptible),
            "scheduling must not bind the journal: a preempted run and its resume \
             share one spec record"
        );
    }

    #[test]
    fn preempt_yields_at_cell_boundary_and_resume_completes() {
        let dir = std::env::temp_dir().join(format!("drms-preempt-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal_path = dir.join("sweep.journal");
        let spec = SweepSpec::new("stream", &[4, 6, 8], 1).seeds(&[1, 2]);
        let opts = SupervisorOptions::default();

        // Baseline: uninterrupted run (no journal needed for comparison).
        let baseline = run_supervised(&spec, &opts);

        // Preempted run: the signal is raised after the second cell
        // completes, so the run must yield with exactly two outcomes
        // journaled.
        let signal = PreemptSignal::new();
        let preempt_opts = SupervisorOptions {
            preempt: Some(signal.clone()),
            ..SupervisorOptions::default()
        };
        let done = AtomicUsize::new(0);
        let cache = CellCache::new();
        let counting_runner = |ctx: &CellCtx<'_>| {
            let out = profile_cell_cached(ctx, &cache);
            if done.fetch_add(1, Ordering::SeqCst) + 1 == 2 {
                signal.raise();
            }
            out
        };
        let mut writer = JournalWriter::create(&journal_path).unwrap();
        match run_supervised_preemptible(&spec, &preempt_opts, Some(&mut writer), &counting_runner)
        {
            SupervisedRun::Yielded {
                cells_done,
                cells_total,
            } => {
                assert_eq!(cells_done, 2);
                assert_eq!(cells_total, 6);
            }
            SupervisedRun::Completed(_) => panic!("raised signal must yield the run"),
        }
        drop(writer);

        // Resume with a cleared signal: completes and matches baseline.
        let (resumed, report) = resume_sweep(&spec, &opts, &journal_path).unwrap();
        assert_eq!(report.salvaged_cells, 2);
        assert_eq!(report.rerun_cells, 4);
        let bench = |r: SweepResult| crate::sweep::SweepBench {
            jobs: 1,
            resumed: false,
            families: vec![crate::sweep::FamilyBench::from_resumed(r)],
        };
        assert_eq!(
            bench(resumed).to_json(),
            bench(baseline).to_json(),
            "preempt + resume must be byte-identical to an uninterrupted run"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cell_cache_reuses_workload_decoded_image_and_batch() {
        let cache = CellCache::new();
        let opts = SupervisorOptions::default();
        for seed in [1u64, 2, 3] {
            let ctx = CellCtx {
                family: "stream",
                size: 16,
                seed,
                attempt: 1,
                opts: &opts,
            };
            match profile_cell_cached(&ctx, &cache) {
                Attempt::Done(cell) => assert!(cell.error.is_none(), "seed {seed}"),
                _ => panic!("stream cell must profile cleanly"),
            }
        }
        assert_eq!(cache.misses(), 1, "one (family, size) pair, built once");
        assert_eq!(cache.hits(), 2, "the two later seeds hit the cache");
        assert_eq!(
            cache.batch_allocations(),
            1,
            "sequential cells share one event batch buffer"
        );
        let entry = cache.entry("stream", 16, DecodeMode::default()).unwrap();
        assert!(
            entry.decoded.as_ref().unwrap().stats().fused() > 0,
            "the shared image is pre-decoded with fusion"
        );
    }

    #[test]
    fn cached_runner_matches_uncached_across_dispatch_modes() {
        let spec = SweepSpec::new("stream", &[8, 16], 1).seeds(&[1, 2]);
        let baseline = run_supervised_with(
            &spec,
            &SupervisorOptions {
                decode: Some(DecodeMode::Off),
                event_batch: Some(1),
                ..SupervisorOptions::default()
            },
            None,
            &|ctx| profile_cell_cached(ctx, &CellCache::new()),
        );
        for decode in [DecodeMode::Off, DecodeMode::Fused] {
            let opts = SupervisorOptions {
                decode: Some(decode),
                event_batch: Some(64),
                ..SupervisorOptions::default()
            };
            let cached = run_supervised(&spec, &opts);
            assert_eq!(
                cached.fingerprint(),
                baseline.fingerprint(),
                "{decode:?}: dispatch mode must not perturb the merged report"
            );
            assert_eq!(
                cached.merged_metrics().to_json(),
                baseline.merged_metrics().to_json(),
                "{decode:?}: dispatch mode must not perturb merged metrics"
            );
        }
    }
}
