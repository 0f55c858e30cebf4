//! The parallel sweep engine.
//!
//! The paper's evaluation (§5) sweeps one routine across many workload
//! sizes and fits the resulting drms plots. Every VM run is
//! self-contained and deterministic, so a sweep — workload family ×
//! size grid × seed set — is embarrassingly parallel: this module fans
//! the cells out across a scoped thread pool, collects a
//! `(ProfileReport, Metrics)` pair per cell, and merges them into cost
//! plots and variance tables.
//!
//! Determinism is preserved by construction: each worker writes its
//! finished cell into the slot indexed by the cell's grid position, so
//! the merged output is in grid order (sizes outer, seeds inner)
//! regardless of thread timing, and a `--jobs 1` and a `--jobs 4` sweep
//! of the same spec produce byte-identical merged reports.
//!
//! Execution is delegated to the crash-safe
//! [`supervisor`](crate::supervisor): every cell runs under panic
//! isolation with deterministic retry/backoff, and cells that exhaust
//! their attempts land in [`SweepResult::quarantined`] instead of
//! aborting the grid.
//!
//! [`SweepBench`] pairs a serial and a parallel run of the same spec and
//! serializes the deterministic measurements (instructions, events,
//! shadow bytes, attempt accounting, fingerprints) as
//! `BENCH_sweep.json` (schema [`BENCH_SCHEMA`]), giving every future
//! change a perf trajectory to beat; the wall-clock side (speedup,
//! per-cell seconds) lives in a [`timings sibling`](SweepBench::timings_json)
//! so the bench JSON itself stays byte-reproducible. [`validate_bench_json`]
//! re-parses an emitted file and checks it against its schema: the
//! offline CI gate.

use crate::supervisor::{profile_cell, run_supervised_with, JournalWriter, SupervisorOptions};
use drms::analysis::{CostPlot, InputMetric};
use drms::core::{drms_variance, report_io, ProfileReport, VarianceReport};
use drms::sched::fnv1a;
use drms::trace::Metrics;
use drms::workloads::{imgpipe, minidb, patterns, sorting, Workload};
use std::fmt::Write as _;

/// Workload families a sweep can iterate, keyed by CLI-friendly names.
///
/// Each family maps a single scalar size to a [`Workload`] with a focus
/// routine, so sweep cells stay one-dimensional.
pub const FAMILIES: [&str; 6] = [
    "minidb",
    "mysqlslap",
    "imgpipe",
    "stream",
    "producer-consumer",
    "sort",
];

/// Builds the workload of `family` at `size`, or `None` for an unknown
/// family name (see [`FAMILIES`]).
pub fn family_workload(family: &str, size: i64) -> Option<Workload> {
    let size = size.max(1);
    Some(match family {
        "minidb" => minidb::minidb_scaling(&[size]),
        "mysqlslap" => minidb::mysqlslap(2, 2, size),
        "imgpipe" => imgpipe::vips(2, size as usize, 2),
        "stream" => patterns::stream_reader(size),
        "producer-consumer" => patterns::producer_consumer(size),
        "sort" => sorting::selection_sort_default(size),
        _ => return None,
    })
}

/// One sweep: a workload family crossed with a size grid and a seed set,
/// executed on `jobs` worker threads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepSpec {
    /// Family name (see [`FAMILIES`]).
    pub family: String,
    /// Workload sizes, the grid's outer dimension.
    pub sizes: Vec<i64>,
    /// Guest `Rand` seeds, the grid's inner dimension.
    pub seeds: Vec<u64>,
    /// Worker threads; `1` runs inline with no pool.
    pub jobs: usize,
}

impl SweepSpec {
    /// A spec over `family` with one default seed.
    pub fn new(family: &str, sizes: &[i64], jobs: usize) -> Self {
        SweepSpec {
            family: family.to_string(),
            sizes: sizes.to_vec(),
            seeds: vec![0],
            jobs,
        }
    }

    /// Replaces the seed set.
    pub fn seeds(mut self, seeds: &[u64]) -> Self {
        self.seeds = seeds.to_vec();
        self
    }

    /// The flattened `(size, seed)` grid, sizes outer, seeds inner —
    /// the canonical cell order of every merge.
    pub fn grid(&self) -> Vec<(i64, u64)> {
        self.sizes
            .iter()
            .flat_map(|&size| self.seeds.iter().map(move |&seed| (size, seed)))
            .collect()
    }
}

/// The result of one sweep cell: one profiled VM run.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// Workload size of this cell.
    pub size: i64,
    /// Guest seed of this cell.
    pub seed: u64,
    /// Wall-clock seconds of the profiled run.
    pub secs: f64,
    /// The (possibly partial) drms profile.
    pub report: ProfileReport,
    /// The run's observability registry (deterministic counters, gauges
    /// and histograms — see [`drms::trace::Metrics`]), the cell's one
    /// record of its run counters: `vm.instructions`, `vm.events.total`,
    /// `vm.basic_blocks`, `vm.threads`, `shadow.bytes` and the rest.
    pub metrics: Metrics,
    /// Rendered abort reason, if the guest failed.
    pub error: Option<String>,
    /// Attempts the supervisor spent on this cell (1 = first try).
    pub attempts: u32,
    /// Attempts that ended in a caught panic before the cell completed.
    pub panics: u32,
}

/// A cell the supervisor gave up on: every attempt failed (or the first
/// failure was fatal), so the sweep carries the failure as data instead
/// of aborting the grid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantinedCell {
    /// Workload size of the cell.
    pub size: i64,
    /// Guest seed of the cell.
    pub seed: u64,
    /// Attempts spent before quarantining.
    pub attempts: u32,
    /// Attempts that ended in a caught panic.
    pub panics: u32,
    /// The last attempt's failure, rendered.
    pub error: String,
}

/// A completed sweep: every cell in grid order, plus the sweep's own
/// wall time.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// The spec that produced this result.
    pub spec: SweepSpec,
    /// Completed cells in grid order (sizes outer, seeds inner).
    pub cells: Vec<SweepCell>,
    /// Quarantined cells in grid order; disjoint from
    /// [`cells`](Self::cells), together they cover the grid.
    pub quarantined: Vec<QuarantinedCell>,
    /// Wall-clock seconds of the whole sweep.
    pub wall_secs: f64,
}

impl SweepResult {
    /// Serializes every cell's profile into one deterministic text
    /// blob: a header per cell (family, size, seed, error class)
    /// followed by the report in the canonical report-io format.
    /// Quarantined cells appear at their grid position as a single
    /// `## quarantined …` line, so a quarantine shifts no other cell's
    /// bytes.
    ///
    /// Two sweeps of the same spec merge byte-identically exactly when
    /// every cell profiled identically — the `--jobs 1` vs `--jobs N`
    /// determinism gate (and the kill-and-resume gate) compare these
    /// blobs.
    pub fn merged_report_text(&self) -> String {
        let mut out = String::new();
        let mut cells = self.cells.iter().peekable();
        let mut quarantined = self.quarantined.iter().peekable();
        for (size, seed) in self.spec.grid() {
            if cells
                .peek()
                .is_some_and(|c| c.size == size && c.seed == seed)
            {
                let cell = cells.next().expect("peeked");
                let _ = writeln!(
                    out,
                    "## cell family={} size={} seed={} error={}",
                    self.spec.family,
                    cell.size,
                    cell.seed,
                    cell.error.as_deref().unwrap_or("none"),
                );
                out.push_str(&report_io::to_text(&cell.report));
            } else if quarantined
                .peek()
                .is_some_and(|q| q.size == size && q.seed == seed)
            {
                let q = quarantined.next().expect("peeked");
                let _ = writeln!(
                    out,
                    "## quarantined family={} size={} seed={} attempts={} error={}",
                    self.spec.family, q.size, q.seed, q.attempts, q.error,
                );
            }
        }
        out
    }

    /// FNV-1a fingerprint of [`merged_report_text`](Self::merged_report_text).
    pub fn fingerprint(&self) -> u64 {
        fnv1a(self.merged_report_text().as_bytes())
    }

    /// Per-routine drms variance across all cells (completed runs only),
    /// the sweep analogue of the chaos scan's variance table.
    pub fn variance(&self) -> VarianceReport {
        let completed: Vec<ProfileReport> = self
            .cells
            .iter()
            .filter(|c| c.error.is_none())
            .map(|c| c.report.clone())
            .collect();
        drms_variance(&completed)
    }

    /// Total guest instructions across all cells.
    pub fn instructions(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.metrics.counter("vm.instructions"))
            .sum()
    }

    /// Total instrumentation events across all cells.
    pub fn events(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.metrics.counter("vm.events.total"))
            .sum()
    }

    /// Total shadow bytes across all cells.
    pub fn shadow_bytes(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.metrics.gauge("shadow.bytes"))
            .sum()
    }

    /// Total supervisor attempts across completed and quarantined cells.
    pub fn attempts(&self) -> u64 {
        self.cells.iter().map(|c| c.attempts as u64).sum::<u64>()
            + self
                .quarantined
                .iter()
                .map(|q| q.attempts as u64)
                .sum::<u64>()
    }

    /// Total non-first attempts: `attempts - (completed + quarantined)`.
    pub fn retries(&self) -> u64 {
        self.attempts()
            .saturating_sub((self.cells.len() + self.quarantined.len()) as u64)
    }

    /// Total attempts that ended in a caught panic.
    pub fn panics(&self) -> u64 {
        self.cells.iter().map(|c| c.panics as u64).sum::<u64>()
            + self
                .quarantined
                .iter()
                .map(|q| q.panics as u64)
                .sum::<u64>()
    }

    /// Merges every cell's metrics registry in grid order into one
    /// sweep-wide registry (counters, gauges, histograms and timings
    /// all add — see [`Metrics::merge`]), then tags it with the grid
    /// shape and the supervisor's attempt accounting
    /// (`sweep.attempts == sweep.completed + sweep.retries +
    /// sweep.quarantined`, cross-checked by [`Metrics::audit`]).
    ///
    /// Deterministic like [`merged_report_text`](Self::merged_report_text):
    /// a `--jobs 1` and a `--jobs N` sweep of the same spec produce
    /// byte-identical [`Metrics::to_json`] outputs. The supervisor
    /// counters are *derived* from per-cell fields rather than counted
    /// during execution, so a resumed sweep reconstructs the identical
    /// registry from salvaged cells.
    pub fn merged_metrics(&self) -> Metrics {
        let mut merged = Metrics::new();
        for cell in &self.cells {
            merged
                .merge(&cell.metrics)
                .expect("sweep cells share one bucket layout per histogram name");
        }
        merged.add("sweep.attempts", self.attempts());
        merged.add("sweep.completed", self.cells.len() as u64);
        merged.add("sweep.retries", self.retries());
        merged.add("sweep.quarantined", self.quarantined.len() as u64);
        merged.add("sweep.panics", self.panics());
        merged.set_gauge(
            "sweep.cells",
            (self.cells.len() + self.quarantined.len()) as u64,
        );
        merged.set_gauge("sweep.sizes", self.spec.sizes.len() as u64);
        merged.set_gauge("sweep.seeds", self.spec.seeds.len() as u64);
        merged
    }
}

/// Merged cost plot of `family`'s focus routine under `metric`: the
/// union of every cell's plot, keeping the worst-case cost per input
/// size (the paper's plot semantics). Empty for an unknown family or
/// one without a focus routine.
pub fn focus_plot<'a>(
    family: &str,
    cells: impl IntoIterator<Item = &'a SweepCell>,
    metric: InputMetric,
) -> CostPlot {
    let mut worst: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    if let Some(focus) = family_workload(family, 1).and_then(|w| w.focus) {
        for cell in cells {
            let profile = cell.report.merged_routine(focus);
            for (input, cost) in CostPlot::of(&profile, metric).points {
                let e = worst.entry(input).or_insert(cost);
                *e = (*e).max(cost);
            }
        }
    }
    CostPlot {
        metric,
        points: worst.into_iter().collect(),
    }
}

/// Runs the sweep described by `spec` under the crash-safe supervisor
/// with default failure policy (3 attempts per cell, exponential
/// backoff, no deadline).
///
/// With `jobs == 1` the cells run inline, serially, in grid order. With
/// more jobs, a pool of workers pulls cells off a shared cursor and
/// streams finished cells over a channel to the supervising thread,
/// which slots them by grid position — the result is identical to the
/// serial one regardless of scheduling, and a panicking cell poisons
/// nothing (it is retried, then quarantined).
///
/// Unknown family names do not panic: every cell of such a spec is
/// quarantined with a fatal `unknown workload family` error, and the
/// sweep still returns normally.
pub fn run_sweep(spec: &SweepSpec) -> SweepResult {
    run_supervised_with(spec, &SupervisorOptions::default(), None, &profile_cell)
}

/// Schema tag of `BENCH_sweep.json`; bump when the layout changes.
///
/// v2 carries no wall-clock field — those live in the
/// [timings sibling](SweepBench::timings_json) — and records the
/// supervisor's attempt accounting and quarantine lists, making the
/// bench JSON itself byte-deterministic for a given spec.
pub const BENCH_SCHEMA: &str = "drms-sweep-v2";

/// One family's serial + parallel measurement pair inside a
/// [`SweepBench`].
#[derive(Clone, Debug)]
pub struct FamilyBench {
    /// The (parallel) sweep result; cells and totals come from here.
    pub parallel: SweepResult,
    /// Wall seconds of the serial (`jobs = 1`) run of the same spec.
    pub serial_secs: f64,
    /// Fingerprint of the serial run's merged report.
    pub serial_fingerprint: u64,
    /// Fingerprint of the serial run's merged metrics JSON.
    pub serial_metrics_fingerprint: u64,
}

impl FamilyBench {
    /// Measures `spec` twice — serially, then with `spec.jobs` workers —
    /// and pairs the results.
    pub fn measure(spec: &SweepSpec) -> FamilyBench {
        Self::measure_with(spec, &SupervisorOptions::default(), None)
    }

    /// Like [`measure`](Self::measure) with an explicit failure policy
    /// and an optional checkpoint journal. Only the parallel run — the
    /// one whose cells become the bench — is journaled; the serial run
    /// exists purely as the determinism baseline.
    pub fn measure_with(
        spec: &SweepSpec,
        opts: &SupervisorOptions,
        journal: Option<&mut JournalWriter>,
    ) -> FamilyBench {
        let serial = run_supervised_with(
            &SweepSpec {
                jobs: 1,
                ..spec.clone()
            },
            opts,
            None,
            &profile_cell,
        );
        let parallel = run_supervised_with(spec, opts, journal, &profile_cell);
        FamilyBench {
            serial_secs: serial.wall_secs,
            serial_fingerprint: serial.fingerprint(),
            serial_metrics_fingerprint: fnv1a(serial.merged_metrics().to_json().as_bytes()),
            parallel,
        }
    }

    /// Wraps a resumed sweep result. A resume re-runs no serial
    /// baseline (the point is *not* to redo work), so the serial fields
    /// mirror the parallel ones: `diverged()` is false by construction
    /// and the timings sibling flags the run as resumed.
    pub fn from_resumed(parallel: SweepResult) -> FamilyBench {
        FamilyBench {
            serial_secs: parallel.wall_secs,
            serial_fingerprint: parallel.fingerprint(),
            serial_metrics_fingerprint: fnv1a(parallel.merged_metrics().to_json().as_bytes()),
            parallel,
        }
    }

    /// FNV-1a fingerprint of the parallel run's merged metrics JSON.
    pub fn metrics_fingerprint(&self) -> u64 {
        fnv1a(self.parallel.merged_metrics().to_json().as_bytes())
    }

    /// Serial wall time over parallel wall time.
    pub fn speedup(&self) -> f64 {
        self.serial_secs / self.parallel.wall_secs.max(1e-12)
    }

    /// Whether the serial and parallel merged reports differ — always a
    /// bug, the engine's core invariant.
    pub fn diverged(&self) -> bool {
        self.serial_fingerprint != self.parallel.fingerprint()
    }

    /// Whether the serial and parallel merged **metrics** differ — the
    /// observability analogue of [`diverged`](Self::diverged): the same
    /// grid must count the same events no matter how many workers ran it.
    pub fn metrics_diverged(&self) -> bool {
        self.serial_metrics_fingerprint != self.metrics_fingerprint()
    }
}

/// Escapes a string for embedding in a JSON document.
fn json_str(s: &str) -> String {
    format!(
        "\"{}\"",
        s.replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n")
            .replace('\t', "\\t")
    )
}

/// The machine-readable sweep benchmark: every family measured serially
/// and in parallel, serialized as `BENCH_sweep.json`
/// ([`to_json`](Self::to_json), deterministic) plus a timings sibling
/// ([`timings_json`](Self::timings_json), wall-clock).
#[derive(Clone, Debug)]
pub struct SweepBench {
    /// Worker threads used for the parallel runs.
    pub jobs: usize,
    /// Whether this bench was assembled by resuming a journal (serial
    /// baselines mirror the parallel runs in that case).
    pub resumed: bool,
    /// Per-family measurement pairs.
    pub families: Vec<FamilyBench>,
}

impl SweepBench {
    /// Total serial wall seconds across families.
    pub fn serial_secs(&self) -> f64 {
        self.families.iter().map(|f| f.serial_secs).sum()
    }

    /// Total parallel wall seconds across families.
    pub fn parallel_secs(&self) -> f64 {
        self.families.iter().map(|f| f.parallel.wall_secs).sum()
    }

    /// Aggregate serial-over-parallel speedup.
    pub fn speedup(&self) -> f64 {
        self.serial_secs() / self.parallel_secs().max(1e-12)
    }

    /// Whether any family diverged between serial and parallel runs.
    pub fn diverged(&self) -> bool {
        self.families.iter().any(|f| f.diverged())
    }

    /// Whether any family's merged metrics diverged between serial and
    /// parallel runs.
    pub fn metrics_diverged(&self) -> bool {
        self.families.iter().any(|f| f.metrics_diverged())
    }

    /// Renders the benchmark as `BENCH_sweep.json` (schema
    /// [`BENCH_SCHEMA`]).
    ///
    /// Every field is deterministic for a given spec: no wall-clock, no
    /// worker count, no resume flag. Two runs of the same grid — any
    /// `--jobs`, interrupted-and-resumed or not — must render
    /// byte-identical blobs; the kill-and-resume CI gate `cmp`s them.
    /// Wall-clock measurements live in
    /// [`timings_json`](Self::timings_json).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let instructions: u64 = self
            .families
            .iter()
            .map(|f| f.parallel.instructions())
            .sum();
        let events: u64 = self.families.iter().map(|f| f.parallel.events()).sum();
        let shadow: u64 = self
            .families
            .iter()
            .map(|f| f.parallel.shadow_bytes())
            .sum();
        let attempts: u64 = self.families.iter().map(|f| f.parallel.attempts()).sum();
        let completed: u64 = self
            .families
            .iter()
            .map(|f| f.parallel.cells.len() as u64)
            .sum();
        let retries: u64 = self.families.iter().map(|f| f.parallel.retries()).sum();
        let quarantined: u64 = self
            .families
            .iter()
            .map(|f| f.parallel.quarantined.len() as u64)
            .sum();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{BENCH_SCHEMA}\",");
        let _ = writeln!(out, "  \"instructions\": {instructions},");
        let _ = writeln!(out, "  \"events\": {events},");
        let _ = writeln!(out, "  \"shadow_bytes\": {shadow},");
        let _ = writeln!(out, "  \"attempts\": {attempts},");
        let _ = writeln!(out, "  \"completed\": {completed},");
        let _ = writeln!(out, "  \"retries\": {retries},");
        let _ = writeln!(out, "  \"quarantined\": {quarantined},");
        out.push_str("  \"families\": [\n");
        for (i, fam) in self.families.iter().enumerate() {
            let p = &fam.parallel;
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"family\": \"{}\",", p.spec.family);
            let _ = writeln!(out, "      \"sizes\": {:?},", p.spec.sizes);
            let _ = writeln!(out, "      \"seeds\": {:?},", p.spec.seeds);
            let _ = writeln!(out, "      \"fingerprint\": \"{:#018x}\",", p.fingerprint());
            let _ = writeln!(
                out,
                "      \"metrics_fingerprint\": \"{:#018x}\",",
                fam.metrics_fingerprint()
            );
            let _ = writeln!(out, "      \"attempts\": {},", p.attempts());
            let _ = writeln!(out, "      \"retries\": {},", p.retries());
            out.push_str("      \"cells\": [\n");
            for (j, c) in p.cells.iter().enumerate() {
                let _ = write!(
                    out,
                    "        {{\"size\": {}, \"seed\": {}, \"attempts\": {}, \
                     \"instructions\": {}, \"events\": {}, \"basic_blocks\": {}, \
                     \"shadow_bytes\": {}, \"error\": {}}}",
                    c.size,
                    c.seed,
                    c.attempts,
                    c.metrics.counter("vm.instructions"),
                    c.metrics.counter("vm.events.total"),
                    c.metrics.counter("vm.basic_blocks"),
                    c.metrics.gauge("shadow.bytes"),
                    match &c.error {
                        Some(e) => json_str(e),
                        None => "null".to_string(),
                    },
                );
                out.push_str(if j + 1 < p.cells.len() { ",\n" } else { "\n" });
            }
            out.push_str("      ],\n");
            out.push_str("      \"quarantined\": [\n");
            for (j, q) in p.quarantined.iter().enumerate() {
                let _ = write!(
                    out,
                    "        {{\"size\": {}, \"seed\": {}, \"attempts\": {}, \
                     \"panics\": {}, \"error\": {}}}",
                    q.size,
                    q.seed,
                    q.attempts,
                    q.panics,
                    json_str(&q.error),
                );
                out.push_str(if j + 1 < p.quarantined.len() {
                    ",\n"
                } else {
                    "\n"
                });
            }
            out.push_str("      ]\n");
            out.push_str(if i + 1 < self.families.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders the wall-clock side of the benchmark (schema
    /// `drms-sweep-timings-v1`): jobs, serial/parallel seconds, speedup,
    /// divergence verdicts and per-cell seconds. Everything
    /// nondeterministic lives here, keeping
    /// [`to_json`](Self::to_json) byte-reproducible.
    pub fn timings_json(&self) -> String {
        let mut out = String::new();
        let instructions: u64 = self
            .families
            .iter()
            .map(|f| f.parallel.instructions())
            .sum();
        let events: u64 = self.families.iter().map(|f| f.parallel.events()).sum();
        let wall = self.parallel_secs().max(1e-12);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"drms-sweep-timings-v1\",");
        let _ = writeln!(out, "  \"jobs\": {},", self.jobs);
        let _ = writeln!(out, "  \"resumed\": {},", self.resumed);
        let _ = writeln!(out, "  \"wall_secs_serial\": {:.6},", self.serial_secs());
        let _ = writeln!(
            out,
            "  \"wall_secs_parallel\": {:.6},",
            self.parallel_secs()
        );
        let _ = writeln!(out, "  \"speedup\": {:.4},", self.speedup());
        let _ = writeln!(
            out,
            "  \"instructions_per_sec\": {:.1},",
            instructions as f64 / wall
        );
        let _ = writeln!(out, "  \"events_per_sec\": {:.1},", events as f64 / wall);
        let _ = writeln!(out, "  \"divergence\": {},", self.diverged());
        let _ = writeln!(
            out,
            "  \"metrics_divergence\": {},",
            self.metrics_diverged()
        );
        out.push_str("  \"families\": [\n");
        for (i, fam) in self.families.iter().enumerate() {
            let p = &fam.parallel;
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"family\": \"{}\",", p.spec.family);
            let _ = writeln!(out, "      \"serial_secs\": {:.6},", fam.serial_secs);
            let _ = writeln!(out, "      \"parallel_secs\": {:.6},", p.wall_secs);
            let _ = writeln!(out, "      \"speedup\": {:.4},", fam.speedup());
            let _ = writeln!(out, "      \"divergence\": {},", fam.diverged());
            out.push_str("      \"cells\": [\n");
            for (j, c) in p.cells.iter().enumerate() {
                let _ = write!(
                    out,
                    "        {{\"size\": {}, \"seed\": {}, \"secs\": {:.6}}}",
                    c.size, c.seed, c.secs,
                );
                out.push_str(if j + 1 < p.cells.len() { ",\n" } else { "\n" });
            }
            out.push_str("      ]\n");
            out.push_str(if i + 1 < self.families.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

// ---------------------------------------------------------------------------
// Schema validation: a minimal JSON reader (the workspace is offline and
// dependency-free, so no serde) plus the drms-sweep-v2 checks.

/// Deepest array/object nesting [`validate_bench_json`] parses. A v2
/// blob nests five containers deep (root, `families`, a family, its
/// `cells`, a cell); the bound keeps a hostile blob from recursing the
/// parser off the end of its stack.
const MAX_JSON_DEPTH: usize = 8;

/// A parsed JSON value — just enough of the data model for validation.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn parse(text: &'a str) -> Result<Json, String> {
        let mut p = JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Parses one value that sits `depth` arrays/objects deep.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{' | b'[') if depth == MAX_JSON_DEPTH => Err(format!(
                "nesting deeper than {MAX_JSON_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let esc = self.bytes.get(self.pos + 1).copied();
                    out.push(match esc {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        other => {
                            return Err(format!("unsupported escape {other:?}"));
                        }
                    });
                    self.pos += 2;
                }
                Some(&b) => {
                    // Multi-byte UTF-8 sequences pass through unchanged.
                    let ch_len = match b {
                        _ if b < 0x80 => 1,
                        _ if b >> 5 == 0b110 => 2,
                        _ if b >> 4 == 0b1110 => 3,
                        _ => 4,
                    };
                    let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + ch_len])
                        .map_err(|e| e.to_string())?;
                    out.push_str(s);
                    self.pos += ch_len;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            self.expect(b',')?;
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.eat(b'}') {
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value(depth)?;
            fields.push((key, value));
            if self.eat(b'}') {
                return Ok(Json::Obj(fields));
            }
            self.expect(b',')?;
        }
    }
}

/// Validates a `BENCH_sweep.json` blob against [`BENCH_SCHEMA`],
/// including the supervisor's attempt accounting (`completed + retries
/// + quarantined == attempts`, at the top level and per family).
///
/// # Errors
/// A human-readable description of the first violation: parse failure
/// (including nesting deeper than the schema's), unknown schema tag,
/// missing or mistyped field, empty family list, or broken accounting.
pub fn validate_bench_json(text: &str) -> Result<(), String> {
    let root = JsonParser::parse(text)?;
    match root.get("schema") {
        Some(Json::Str(s)) if s == BENCH_SCHEMA => validate_v2(&root),
        other => Err(format!("bad schema tag: {other:?}")),
    }
}

/// A `%.18g`-free integer read: the mini parser stores numbers as f64,
/// which is exact for every count this schema emits (< 2^53).
fn non_negative(obj: &Json, key: &str) -> Result<f64, String> {
    let v = obj
        .get(key)
        .and_then(Json::num)
        .ok_or_else(|| format!("missing numeric `{key}`"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("`{key}` must be a finite non-negative number"));
    }
    Ok(v)
}

fn fingerprint_field(obj: &Json, key: &str, ctx: &str) -> Result<(), String> {
    match obj.get(key) {
        Some(Json::Str(f)) if f.starts_with("0x") && f.len() == 18 => Ok(()),
        other => Err(format!("{ctx}: bad `{key}` {other:?}")),
    }
}

fn validate_v2(root: &Json) -> Result<(), String> {
    for key in ["instructions", "events", "shadow_bytes"] {
        non_negative(root, key)?;
    }
    let attempts = non_negative(root, "attempts")?;
    let completed = non_negative(root, "completed")?;
    let retries = non_negative(root, "retries")?;
    let quarantined = non_negative(root, "quarantined")?;
    if completed + retries + quarantined != attempts {
        return Err(format!(
            "attempt accounting broken: completed ({completed}) + retries ({retries}) \
             + quarantined ({quarantined}) != attempts ({attempts})"
        ));
    }
    let Some(Json::Arr(families)) = root.get("families") else {
        return Err("missing `families` array".to_string());
    };
    if families.is_empty() {
        return Err("`families` is empty".to_string());
    }
    for fam in families {
        let name = match fam.get("family") {
            Some(Json::Str(s)) => s.clone(),
            _ => return Err("family entry without a `family` name".to_string()),
        };
        let ctx = format!("family `{name}`");
        fingerprint_field(fam, "fingerprint", &ctx)?;
        fingerprint_field(fam, "metrics_fingerprint", &ctx)?;
        let fam_attempts = non_negative(fam, "attempts").map_err(|e| format!("{ctx}: {e}"))?;
        non_negative(fam, "retries").map_err(|e| format!("{ctx}: {e}"))?;
        let Some(Json::Arr(cells)) = fam.get("cells") else {
            return Err(format!("{ctx}: missing `cells` array"));
        };
        let Some(Json::Arr(quarantine)) = fam.get("quarantined") else {
            return Err(format!("{ctx}: missing `quarantined` array"));
        };
        if cells.is_empty() && quarantine.is_empty() {
            return Err(format!("{ctx}: no cells and no quarantine — empty grid"));
        }
        let mut attempt_sum = 0.0;
        for cell in cells {
            for key in [
                "size",
                "seed",
                "attempts",
                "instructions",
                "events",
                "basic_blocks",
                "shadow_bytes",
            ] {
                if cell.get(key).and_then(Json::num).is_none() {
                    return Err(format!("{ctx}: cell missing numeric `{key}`"));
                }
            }
            attempt_sum += cell.get("attempts").and_then(Json::num).unwrap_or(0.0);
            match cell.get("error") {
                Some(Json::Null) | Some(Json::Str(_)) => {}
                other => return Err(format!("{ctx}: bad cell error field {other:?}")),
            }
        }
        for q in quarantine {
            for key in ["size", "seed", "attempts", "panics"] {
                if q.get(key).and_then(Json::num).is_none() {
                    return Err(format!("{ctx}: quarantine entry missing numeric `{key}`"));
                }
            }
            attempt_sum += q.get("attempts").and_then(Json::num).unwrap_or(0.0);
            match q.get("error") {
                Some(Json::Str(e)) if !e.is_empty() => {}
                other => {
                    return Err(format!(
                        "{ctx}: quarantine entry needs a non-empty error, got {other:?}"
                    ));
                }
            }
        }
        if attempt_sum != fam_attempts {
            return Err(format!(
                "{ctx}: per-cell attempts sum to {attempt_sum}, \
                 family claims {fam_attempts}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_sizes_outer_seeds_inner() {
        let spec = SweepSpec::new("stream", &[4, 8], 1).seeds(&[1, 2]);
        assert_eq!(spec.grid(), vec![(4, 1), (4, 2), (8, 1), (8, 2)]);
    }

    #[test]
    fn every_family_builds_a_focused_workload() {
        for family in FAMILIES {
            let w = family_workload(family, 4).expect(family);
            assert!(w.focus.is_some(), "{family} needs a focus routine");
        }
        assert!(family_workload("bogus", 4).is_none());
    }

    #[test]
    fn serial_and_parallel_sweeps_merge_identically() {
        let spec = SweepSpec::new("stream", &[4, 8, 16], 4).seeds(&[1, 2]);
        let serial = run_sweep(&SweepSpec {
            jobs: 1,
            ..spec.clone()
        });
        let parallel = run_sweep(&spec);
        assert_eq!(serial.cells.len(), 6);
        assert_eq!(serial.merged_report_text(), parallel.merged_report_text());
        assert_eq!(serial.fingerprint(), parallel.fingerprint());
    }

    #[test]
    fn merged_metrics_are_audited_and_jobs_invariant() {
        let spec = SweepSpec::new("producer-consumer", &[4, 8], 4).seeds(&[1, 2]);
        let serial = run_sweep(&SweepSpec {
            jobs: 1,
            ..spec.clone()
        });
        let parallel = run_sweep(&spec);
        let (sm, pm) = (serial.merged_metrics(), parallel.merged_metrics());
        assert_eq!(sm.audit(), Ok(()), "{:?}", sm.audit());
        assert_eq!(
            sm.to_json(),
            pm.to_json(),
            "merged metrics must not depend on worker count"
        );
        assert_eq!(sm.gauge("sweep.cells"), 4);
        assert_eq!(sm.gauge("sweep.sizes"), 2);
        assert_eq!(sm.gauge("sweep.seeds"), 2);
        assert_eq!(sm.counter("sweep.attempts"), 4);
        assert_eq!(sm.counter("sweep.completed"), 4);
        assert_eq!(sm.counter("sweep.retries"), 0);
        assert_eq!(sm.counter("sweep.quarantined"), 0);
        assert_eq!(sm.counter("sweep.panics"), 0);
        assert_eq!(
            sm.counter("vm.events.total"),
            serial.events(),
            "merged event counter matches the stats total"
        );
        let per_cell: u64 = serial
            .cells
            .iter()
            .map(|c| c.metrics.counter("vm.instructions"))
            .sum();
        assert_eq!(sm.counter("vm.instructions"), per_cell);
    }

    #[test]
    fn focus_plot_merges_worst_case_points() {
        let spec = SweepSpec::new("stream", &[4, 8], 1);
        let result = run_sweep(&spec);
        let plot = focus_plot("stream", &result.cells, InputMetric::Drms);
        let inputs: Vec<u64> = plot.points.iter().map(|p| p.0).collect();
        assert!(inputs.contains(&4) && inputs.contains(&8), "{inputs:?}");
        let sorted = {
            let mut s = inputs.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(inputs, sorted, "plot points are sorted by input");
    }

    #[test]
    fn bench_json_emits_and_validates() {
        let spec = SweepSpec::new("stream", &[4, 8], 2);
        let bench = SweepBench {
            jobs: 2,
            resumed: false,
            families: vec![FamilyBench::measure(&spec)],
        };
        assert!(!bench.diverged());
        let json = bench.to_json();
        validate_bench_json(&json).expect("emitted JSON matches the schema");
        assert!(
            !json.contains("secs") && !json.contains("jobs"),
            "wall-clock and worker count stay out of the deterministic bench"
        );
        let timings = bench.timings_json();
        assert!(timings.contains("\"schema\": \"drms-sweep-timings-v1\""));
        assert!(timings.contains("\"jobs\": 2"));
        assert!(timings.contains("\"resumed\": false"));
        assert!(timings.contains("\"divergence\": false"));
    }

    #[test]
    fn validator_rejects_broken_blobs() {
        assert!(validate_bench_json("not json").is_err());
        assert!(validate_bench_json("{}").is_err());
        let spec = SweepSpec::new("stream", &[4], 1);
        let bench = SweepBench {
            jobs: 1,
            resumed: false,
            families: vec![FamilyBench::measure(&spec)],
        };
        let good = bench.to_json();
        validate_bench_json(&good).expect("baseline validates");
        let miscounted = good.replace(
            "\"retries\": 0,\n  \"quarantined\"",
            "\"retries\": 5,\n  \"quarantined\"",
        );
        assert_ne!(miscounted, good, "replacement hit the top-level counter");
        let err = validate_bench_json(&miscounted).unwrap_err();
        assert!(err.contains("accounting"), "{err}");
        let bad_family_sum = good.replace(
            "\"attempts\": 1,\n      \"retries\"",
            "\"attempts\": 9,\n      \"retries\"",
        );
        assert_ne!(bad_family_sum, good);
        let err = validate_bench_json(&bad_family_sum).unwrap_err();
        assert!(err.contains("attempts"), "{err}");
        for tag in ["drms-sweep-v0", "drms-sweep-v1"] {
            let err = validate_bench_json(&good.replace(BENCH_SCHEMA, tag)).unwrap_err();
            assert!(err.contains("bad schema tag"), "{tag}: {err}");
        }
    }

    #[test]
    fn unknown_family_quarantines_instead_of_panicking() {
        let spec = SweepSpec::new("bogus-family", &[4, 8], 2).seeds(&[1, 2]);
        let result = run_sweep(&spec);
        assert!(result.cells.is_empty());
        assert_eq!(result.quarantined.len(), 4, "every grid cell quarantined");
        for q in &result.quarantined {
            assert_eq!(q.attempts, 1, "fatal failures are not retried");
            assert!(q.error.contains("unknown workload family"), "{}", q.error);
        }
        let m = result.merged_metrics();
        assert_eq!(m.audit(), Ok(()), "{:?}", m.audit());
        assert_eq!(m.counter("sweep.quarantined"), 4);
        assert_eq!(m.counter("sweep.completed"), 0);
        assert!(
            result.merged_report_text().contains("## quarantined"),
            "quarantines appear in the merged report"
        );
    }

    #[test]
    fn json_parser_handles_the_data_model() {
        let v =
            JsonParser::parse(r#"{"a": [1, 2.5, -3], "b": {"c": "x\"y"}, "d": null, "e": true}"#)
                .unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2.5),
                Json::Num(-3.0)
            ]))
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")),
            Some(&Json::Str("x\"y".into()))
        );
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert_eq!(v.get("e"), Some(&Json::Bool(true)));
        assert!(JsonParser::parse("{\"a\": }").is_err());
        assert!(JsonParser::parse("[1, 2] trailing").is_err());
        let nested = |n| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(JsonParser::parse(&nested(MAX_JSON_DEPTH)).is_ok());
        let err = JsonParser::parse(&nested(MAX_JSON_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
    }
}
