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
use drms::trace::journal::{self, JournalRecord, ParseJournalError};
use drms::trace::Metrics;
use drms::vm::{DecodeMode, DecodedProgram, EventBatch, FaultPlan, RunConfig, RunError};
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
/// `aprofd` daemon's dispatcher) and the checkpointed run it was passed
/// to ([`resume_sweep`]).
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
    /// The host-I/O seam: [`resume_sweep`]'s journal writes and every
    /// cell's shard spill go through it (a fresh run's journal is
    /// whatever [`JournalWriter`] the caller created). Fault-injected
    /// under chaos testing; defaults to the real host.
    pub io: HostIo,
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
            io: HostIo::real(),
        }
    }
}

impl SupervisorOptions {
    /// The options rendered as deterministic spec lines — part of the
    /// journal's spec record, so a resume with different failure policy
    /// is rejected instead of silently mixing semantics.
    ///
    /// [`decode`](Self::decode), [`event_batch`](Self::event_batch) and
    /// [`io`](Self::io) are deliberately absent, like `jobs` and the
    /// preempt signal: they change how fast (or whether) cells run
    /// *now*, never what they produce, so a resume may retune them.
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
    /// The entry-point call's workload cache, which [`profile_cell`]
    /// draws on.
    cache: &'a CellCache,
}

/// A cell runner: maps one attempt to an [`Attempt`] outcome. The
/// supervisor catches panics around the call, so a runner (or the
/// workload underneath it) may panic freely. Tests inject flaky or
/// panicking runners; production uses [`profile_cell`].
pub type Runner<'a> = dyn Fn(&CellCtx) -> Attempt + Sync + 'a;

/// Shared state the production runner draws on, one per entry-point
/// call: built workloads with their pre-decoded programs, keyed by
/// `(family, size)`, plus a pool of recycled event batches.
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
struct CellCache {
    entries: Mutex<HashMap<(String, i64), Arc<CacheEntry>>>,
    batch_pool: Mutex<Vec<EventBatch>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// One cached workload: the built guest program plus its pre-decoded
/// image (absent under [`DecodeMode::Off`]).
struct CacheEntry {
    workload: Workload,
    decoded: Option<Arc<DecodedProgram>>,
    mode: DecodeMode,
}

impl CellCache {
    /// The cached workload of `(family, size)` pre-decoded under
    /// `mode`, building it on first use. `None` for unknown families.
    fn entry(&self, family: &str, size: i64, mode: DecodeMode) -> Option<Arc<CacheEntry>> {
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
    fn take_batch(&self) -> EventBatch {
        self.batch_pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_default()
    }

    /// Returns a batch to the pool.
    fn recycle(&self, batch: EventBatch) {
        self.batch_pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(batch);
    }
}

/// The production cell runner: takes the family workload, its
/// pre-decoded program and an event batch from the entry-point call's
/// cache, applies the supervisor's budgets, and profiles the cell under
/// a [`ProfileSession`].
pub fn profile_cell(ctx: &CellCtx) -> Attempt {
    let cache = ctx.cache;
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
            .trace_io(ctx.opts.io.clone());
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

impl CellOutcome {
    /// The `(size, seed)` grid cell this outcome belongs to.
    fn cell(&self) -> (i64, u64) {
        match self {
            CellOutcome::Completed(c) => (c.size, c.seed),
            CellOutcome::Quarantined(q) => (q.size, q.seed),
        }
    }
}

/// Deterministic backoff before attempt `attempt + 1`, in milliseconds:
/// `base_ms` doubled per attempt and capped at `cap_ms`, then jittered
/// within its upper half by an FNV-1a hash of `<key>:<attempt>` —
/// reproducible for a given key, decorrelated across keys, never the
/// clock. `base_ms == 0` disables sleeping. The supervisor keys it by
/// cell (`family:size:seed`), aprofd's client by address and request.
pub fn backoff_ms(base_ms: u64, cap_ms: u64, key: &str, attempt: u32) -> u64 {
    if base_ms == 0 {
        return 0;
    }
    let exp = base_ms.saturating_mul(1u64 << attempt.saturating_sub(1).min(16));
    let capped = exp.min(cap_ms).max(1);
    let jitter = fnv1a(format!("{key}:{attempt}").as_bytes()) % (capped / 2 + 1);
    (capped / 2 + jitter).min(cap_ms)
}

/// The message a caught panic carried: its `&str` or `String` payload,
/// or a placeholder for any other payload type.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
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
    cache: &CellCache,
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
            cache,
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
        let ms = backoff_ms(
            opts.backoff_base_ms,
            opts.backoff_cap_ms,
            &format!("{family}:{size}:{seed}"),
            attempt,
        );
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
    /// Creates (truncates) the journal at `path` through `io`, writes
    /// the file header, and syncs the parent directory so the journal's
    /// existence survives a crash. Chaos suites fail any step of it by
    /// passing a fault-injecting `io`.
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
    let _ = writeln!(out, "size {}", cell.size);
    let _ = writeln!(out, "seed {}", cell.seed);
    let _ = writeln!(out, "secs {}", cell.secs);
    let _ = writeln!(out, "attempts {}", cell.attempts);
    let _ = writeln!(out, "panics {}", cell.panics);
    let _ = writeln!(
        out,
        "error {}",
        cell.error.as_deref().map_or("-".to_string(), one_line)
    );
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
fn decode_cell_payload(payload: &str) -> Result<SweepCell, String> {
    let mut p = PayloadLines::new(payload);
    let size: i64 = p.num("size")?;
    let seed: u64 = p.num("seed")?;
    let secs: f64 = p.num("secs")?;
    let attempts: u32 = p.num("attempts")?;
    let panics: u32 = p.num("panics")?;
    let error = match p.field("error")? {
        "-" => None,
        e => Some(e.to_string()),
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

/// Reads `spec`'s cell records out of salvaged journal `records`: parses
/// each `cell <family> <idx> <status>` meta, decodes its payload and
/// checks it against the grid. Returns the usable `(grid index,
/// outcome)` pairs in record order, plus one warning per cell record it
/// had to skip. A later pair for an index supersedes an earlier one (the
/// journal is append-only: a re-run appends a fresh record).
///
/// The one reader of cell records: [`resume_sweep`] adopts the pairs,
/// and the `aprofd` daemon renders a running job's live views from them.
pub fn read_cells(
    spec: &SweepSpec,
    records: &[JournalRecord],
) -> (Vec<(usize, CellOutcome)>, Vec<String>) {
    let grid = spec.grid();
    let cell_prefix = format!("cell {} ", spec.family);
    let (mut cells, mut warnings) = (Vec::new(), Vec::new());
    for rec in records {
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
                warnings.push(format!("unparseable cell meta `{}`", rec.meta));
                continue;
            }
        };
        if idx >= grid.len() {
            warnings.push(format!("cell index {idx} outside the grid"));
            continue;
        }
        let decoded = match status {
            "ok" => decode_cell_payload(&rec.payload).map(|c| CellOutcome::Completed(Box::new(c))),
            "quarantined" => decode_quarantine_payload(&rec.payload).map(CellOutcome::Quarantined),
            other => Err(format!("unknown cell status `{other}`")),
        };
        match decoded {
            Ok(outcome) if outcome.cell() != grid[idx] => warnings.push(format!(
                "cell {idx} payload {:?} disagrees with the grid {:?}; re-running",
                outcome.cell(),
                grid[idx]
            )),
            Ok(outcome) => cells.push((idx, outcome)),
            Err(e) => warnings.push(format!("cell {idx} payload unusable ({e}); re-running")),
        }
    }
    (cells, warnings)
}

// ---------------------------------------------------------------------------
// The supervisor proper.

/// How a checkpointed run ([`resume_sweep`]) ended.
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

/// Runs `spec` from scratch under the supervisor: every grid cell goes
/// through `runner` (in production [`profile_cell`]), and with a
/// `journal` attached the spec record and then each cell outcome are
/// appended as they complete. Cells append in completion order; the
/// merged result is assembled in grid order, so journal order never
/// leaks into the output.
///
/// A fresh run never yields. A run that must be preemptible goes
/// through [`resume_sweep`] on a freshly created journal instead.
pub fn run_supervised_with(
    spec: &SweepSpec,
    opts: &SupervisorOptions,
    mut journal: Option<&mut JournalWriter>,
    runner: &Runner<'_>,
) -> SweepResult {
    let grid = spec.grid();
    let start = Instant::now();
    if let Some(j) = journal.as_deref_mut() {
        j.append(&spec_meta(&spec.family), &spec_payload(spec, opts));
    }
    let mut slots = vec![None; grid.len()];
    run_missing(spec, &grid, opts, journal, runner, None, &mut slots);
    assemble(spec, slots, start.elapsed().as_secs_f64())
}

/// Fills every `None` slot by running its cell, appending each outcome
/// to the journal as it completes. Every call builds one `CellCache`
/// that all of its cells share. Returns whether the grid is complete —
/// `false` only when a raised `preempt` stopped the run at a cell
/// boundary (cells already in flight still finish and journal).
fn run_missing(
    spec: &SweepSpec,
    grid: &[(i64, u64)],
    opts: &SupervisorOptions,
    mut journal: Option<&mut JournalWriter>,
    runner: &Runner<'_>,
    preempt: Option<&PreemptSignal>,
    slots: &mut [Option<CellOutcome>],
) -> bool {
    let preempted = || preempt.is_some_and(PreemptSignal::is_raised);
    let cache = CellCache::default();
    let pending: Vec<usize> = (0..grid.len()).filter(|&i| slots[i].is_none()).collect();
    if pending.is_empty() {
        return true;
    }
    let workers = spec.jobs.max(1).min(pending.len());
    if workers <= 1 {
        for &i in &pending {
            if preempted() {
                return false;
            }
            let (size, seed) = grid[i];
            let outcome = supervise_cell(&spec.family, size, seed, opts, runner, &cache);
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
        let (pending, cursor, cache) = (&pending, &cursor, &cache);
        for _ in 0..workers {
            let tx = tx.clone();
            s.spawn(move || loop {
                // The preempt check guards the *claim*: a raised signal
                // stops workers from starting new cells, while cells
                // already claimed run to completion and journal.
                if preempted() {
                    break;
                }
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&i) = pending.get(k) else {
                    break;
                };
                let (size, seed) = grid[i];
                let outcome = supervise_cell(&spec.family, size, seed, opts, runner, cache);
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

/// Continues the sweep `spec` from the journal at `path` — the
/// checkpointed run. Salvages the journal's valid prefix, adopts every
/// completed cell that matches the grid, re-runs missing / torn /
/// quarantined cells through `runner` (appending them to the same
/// journal through [`SupervisorOptions::io`]), and assembles a result
/// byte-identical to an uninterrupted run of the same spec.
///
/// A raised `preempt` stops the re-run at the next cell boundary with
/// [`SupervisedRun::Yielded`]; the journal (salvaged prefix plus
/// everything this pass appended) remains the checkpoint for the next
/// call, so preempt/resume cycles stack arbitrarily deep. With `None`
/// the run always completes. A journal holding only its header resumes
/// exactly like a fresh run: the spec record is appended, then every
/// cell runs.
///
/// # Errors
/// * [`Error::Io`] — the journal is missing or cannot be read, rewritten
///   or reopened for append;
/// * [`Error::Journal`] — the journal's spec record for this family
///   disagrees with `spec` + `opts` (resuming under a different grid or
///   failure policy would silently mix semantics).
///
/// A journal with *no* spec record for this family is not an error: the
/// family had not started when the original run died, so the resume
/// runs it from scratch (this is what lets one journal carry a
/// multi-family `repro sweep`).
pub fn resume_sweep(
    spec: &SweepSpec,
    opts: &SupervisorOptions,
    path: &Path,
    runner: &Runner<'_>,
    preempt: Option<&PreemptSignal>,
) -> Result<(SupervisedRun, ResumeReport), Error> {
    let bytes = std::fs::read(path)?;
    let salvaged = journal::from_text_lossy(&bytes);
    let grid = spec.grid();
    let start = Instant::now();
    let mut report = ResumeReport::default();
    salvaged.observe_metrics(&mut report.metrics);
    report.warnings.extend(salvaged.warnings.iter().cloned());

    // Validate the (last) spec record for this family, if any.
    let want_payload = spec_payload(spec, opts);
    let spec_rec = salvaged
        .value
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

    // Adopt salvaged cells; later records win.
    let mut slots = vec![None; grid.len()];
    if family_started {
        let (cells, warnings) = read_cells(spec, &salvaged.value);
        report.warnings.extend(warnings);
        for (idx, outcome) in cells {
            slots[idx] = Some(outcome);
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

    let mut writer = if bytes.is_empty() || salvaged.value.is_empty() && salvaged.is_damaged() {
        // Nothing usable (empty file, or killed before the header hit
        // the disk): start the journal over.
        JournalWriter::create_with(&opts.io, path)?
    } else {
        if salvaged.is_damaged() {
            // A torn tail or stray trailer would sit between the valid
            // prefix and everything this resume appends, and the *next*
            // salvage would stop at the damage and drop the appended
            // records. Rewrite the journal to its salvaged prefix first
            // so interleaved appends from a resumed writer always extend
            // a clean file.
            crate::artifact::atomic_write_with(&opts.io, path, &journal::to_text(&salvaged.value))?;
            report.metrics.inc("journal.rewritten");
        }
        JournalWriter {
            file: Some(OpenOptions::new().append(true).open(path)?),
            io: opts.io.clone(),
        }
    };
    if !family_started {
        writer.append(&spec_meta(&spec.family), &want_payload);
    }
    let complete = run_missing(
        spec,
        &grid,
        opts,
        Some(&mut writer),
        runner,
        preempt,
        &mut slots,
    );
    let run = if complete {
        SupervisedRun::Completed(Box::new(assemble(
            spec,
            slots,
            start.elapsed().as_secs_f64(),
        )))
    } else {
        SupervisedRun::Yielded {
            cells_done: slots.iter().flatten().count(),
            cells_total: grid.len(),
        }
    };
    Ok((run, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let opts = SupervisorOptions::default();
        let (base, cap) = (opts.backoff_base_ms, opts.backoff_cap_ms);
        let a1 = backoff_ms(base, cap, "stream:4:1", 1);
        assert_eq!(
            a1,
            backoff_ms(base, cap, "stream:4:1", 1),
            "same cell, same backoff"
        );
        for attempt in 1..8 {
            let ms = backoff_ms(base, cap, "stream:4:1", attempt);
            assert!(ms >= 1 && ms <= cap, "{ms}");
        }
        let other = backoff_ms(base, cap, "stream:4:2", 1);
        assert!(a1 != other || a1 <= cap, "jitter varies by cell");
        assert_eq!(backoff_ms(0, cap, "stream:4:1", 1), 0);
        // The exact sleeps of two cells (`supervise_cell` keys a cell as
        // `family:size:seed`) under the default policy, pinned.
        for (cell, pinned) in [
            ("stream:4:1", [2, 9, 19, 39, 61, 95, 132, 159]),
            ("minidb:16:2", [3, 6, 17, 23, 51, 100, 243, 210]),
        ] {
            let slept: Vec<u64> = (1..=8).map(|a| backoff_ms(base, cap, cell, a)).collect();
            assert_eq!(slept, pinned, "{cell}");
        }
    }

    #[test]
    fn cell_payload_roundtrips() {
        let spec = SweepSpec::new("stream", &[4], 1);
        let result = run_supervised_with(&spec, &SupervisorOptions::default(), None, &profile_cell);
        let cell = &result.cells[0];
        let payload = encode_cell_payload(cell);
        assert!(
            !payload
                .lines()
                .any(|l| l.starts_with("stats.") || l.starts_with("shadow_bytes")),
            "run counters live only in the metrics section:\n{payload}"
        );
        let back = decode_cell_payload(&payload).unwrap();
        assert_eq!(back.size, cell.size);
        assert_eq!(back.seed, cell.seed);
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
        let faulted_io = SupervisorOptions {
            io: HostIo::from_spec("write:enospc:once=9").unwrap(),
            ..SupervisorOptions::default()
        };
        assert_eq!(
            a,
            spec_payload(&spec, &faulted_io),
            "the I/O seam must not bind the journal: a resume may retry on healthy I/O"
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
        let baseline = run_supervised_with(&spec, &opts, None, &profile_cell);

        // Preempted run on a fresh journal: the signal is raised after
        // the second cell completes, so the run must yield with exactly
        // two outcomes journaled.
        let signal = PreemptSignal::new();
        let done = AtomicUsize::new(0);
        let counting_runner = |ctx: &CellCtx<'_>| {
            let out = profile_cell(ctx);
            if done.fetch_add(1, Ordering::SeqCst) + 1 == 2 {
                signal.raise();
            }
            out
        };
        JournalWriter::create_with(&HostIo::real(), &journal_path).unwrap();
        let (run, _) =
            resume_sweep(&spec, &opts, &journal_path, &counting_runner, Some(&signal)).unwrap();
        match run {
            SupervisedRun::Yielded {
                cells_done,
                cells_total,
            } => {
                assert_eq!(cells_done, 2);
                assert_eq!(cells_total, 6);
            }
            SupervisedRun::Completed(_) => panic!("raised signal must yield the run"),
        }

        // Resume without a signal: completes and matches baseline.
        let (run, report) = resume_sweep(&spec, &opts, &journal_path, &profile_cell, None).unwrap();
        let SupervisedRun::Completed(resumed) = run else {
            panic!("a resume without a preempt signal must complete: {run:?}");
        };
        assert_eq!(report.salvaged_cells, 2);
        assert_eq!(report.rerun_cells, 4);
        let bench = |r: SweepResult| crate::sweep::SweepBench {
            jobs: 1,
            resumed: false,
            families: vec![crate::sweep::FamilyBench::from_resumed(r)],
        };
        assert_eq!(
            bench(*resumed).to_json(),
            bench(baseline).to_json(),
            "preempt + resume must be byte-identical to an uninterrupted run"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cell_cache_reuses_workload_decoded_image_and_batch() {
        let cache = CellCache::default();
        let opts = SupervisorOptions::default();
        for seed in [1u64, 2, 3] {
            let ctx = CellCtx {
                family: "stream",
                size: 16,
                seed,
                attempt: 1,
                opts: &opts,
                cache: &cache,
            };
            match profile_cell(&ctx) {
                Attempt::Done(cell) => assert!(cell.error.is_none(), "seed {seed}"),
                _ => panic!("stream cell must profile cleanly"),
            }
        }
        assert_eq!(
            cache.misses.load(Ordering::Relaxed),
            1,
            "one (family, size) pair, built once"
        );
        assert_eq!(
            cache.hits.load(Ordering::Relaxed),
            2,
            "the two later seeds hit the cache"
        );
        let pool = cache.batch_pool.lock().unwrap();
        assert_eq!(
            pool.iter().map(EventBatch::allocations).sum::<u64>(),
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
            // A fresh cache per attempt: the uncached reference.
            &|ctx| {
                profile_cell(&CellCtx {
                    cache: &CellCache::default(),
                    ..*ctx
                })
            },
        );
        for decode in [DecodeMode::Off, DecodeMode::Fused] {
            let opts = SupervisorOptions {
                decode: Some(decode),
                event_batch: Some(64),
                ..SupervisorOptions::default()
            };
            let cached = run_supervised_with(&spec, &opts, None, &profile_cell);
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
