//! Workload cells: what each benchmark workload profiles, how the
//! benchmark seed turns into guest seeds, set-up, and the reference
//! runs every timed result is checked against.

use crate::trace::Tracer;
use drms::core::report_io;
use drms::prelude::*;
use drms::sched::fnv1a;
use drms_bench::sweep::family_workload;
use std::sync::Arc;

/// One profiled unit: a workload family at one size and guest seed.
#[derive(Clone, Debug)]
pub struct Cell {
    pub family: &'static str,
    pub size: i64,
    pub seed: u64,
}

/// A group of cells: one family over `sizes` × `seeds` guest seeds, in
/// sweep grid order (sizes outer).
type Group = (&'static str, &'static [i64], usize);

/// `sort` at a size where one drms cell takes about half a second:
/// single thread, no kernel I/O, ~99% suppression hits.
const HOT_LOOP: [Group; 1] = [("sort", &[64], 1)];

/// The five dynamic-workload families, sized so each takes a
/// comparable share of a round (about 0.1 s under drms). `mysqlslap`'s
/// work depends on its guest seed, so it runs as many small cells whose
/// sum varies little from seed to seed.
const INDUCED_INPUT: [Group; 5] = [
    ("minidb", &[131_072], 1),
    ("mysqlslap", &[4_096], 16),
    ("imgpipe", &[80], 1),
    ("stream", &[120_000], 1),
    ("producer-consumer", &[80_000], 1),
];

/// A `sort` cell (columnar `BATCH` frames), a thread-switch-heavy cell
/// (single-event frames) and a kernel-input cell. Each has at most two
/// threads, so a round writes and syncs only a handful of shard files.
const OUT_OF_CORE: [Group; 3] = [
    ("sort", &[40], 1),
    ("producer-consumer", &[40_000], 1),
    ("minidb", &[65_536], 1),
];

/// SplitMix64: a well-mixed guest seed from the benchmark seed.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn groups_of(workload: &str) -> Option<&'static [Group]> {
    Some(match workload {
        "hot_loop" => &HOT_LOOP,
        "induced_input" => &INDUCED_INPUT,
        "out_of_core" => &OUT_OF_CORE,
        _ => return None,
    })
}

/// The guest seeds of group `g` under benchmark seed `seed`.
fn group_seeds(seed: u64, g: usize, n: usize) -> Vec<u64> {
    (0..n)
        .map(|j| mix(seed ^ mix((g * 1000 + j) as u64)) % 1_000_000)
        .collect()
}

/// The cells of `workload`, or `None` for a name that is not one.
pub fn cells_of(workload: &str, seed: u64) -> Option<Vec<Cell>> {
    let mut cells = Vec::new();
    for (g, &(family, sizes, n)) in groups_of(workload)?.iter().enumerate() {
        let seeds = group_seeds(seed, g, n);
        for &size in sizes {
            cells.extend(seeds.iter().map(|&seed| Cell { family, size, seed }));
        }
    }
    Some(cells)
}

/// Whether `cells[i]` is the first of the smallest cells of its family
/// — the one the naive oracle checks.
pub fn smallest_of_family(cells: &[Cell], i: usize) -> bool {
    let c = &cells[i];
    cells.iter().position(|d| {
        d.family == c.family
            && cells
                .iter()
                .filter(|e| e.family == c.family)
                .all(|e| e.size >= d.size)
    }) == Some(i)
}

/// A cell with its workload built and its program pre-decoded.
pub struct Prepared {
    pub cell: Cell,
    pub workload: Workload,
    pub decoded: Arc<DecodedProgram>,
}

impl Prepared {
    pub fn config(&self) -> RunConfig {
        RunConfig {
            seed: self.cell.seed,
            ..self.workload.run_config()
        }
    }

    /// The one-cell aprofd job spec of this cell.
    pub fn job_spec(&self) -> String {
        format!(
            "family {}\nsizes {}\nseeds {}\njobs 1\n",
            self.cell.family, self.cell.size, self.cell.seed
        )
    }
}

/// Set-up cost of one pass over a workload's cells.
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    pub build_s: f64,
    pub decode_s: f64,
    pub vm_s: f64,
    pub fused: u64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.build_s + self.decode_s + self.vm_s
    }

    /// Adds `t` to these times (and its fused count to this one's).
    pub fn add(&mut self, t: &SetupTimes) {
        self.build_s += t.build_s;
        self.decode_s += t.decode_s;
        self.vm_s += t.vm_s;
        self.fused += t.fused;
    }

    /// The mean of `n` set-ups these times are the sum of.
    pub fn mean_of(&self, n: u32) -> SetupTimes {
        let n = f64::from(n);
        SetupTimes {
            build_s: self.build_s / n,
            decode_s: self.decode_s / n,
            vm_s: self.vm_s / n,
            fused: (self.fused as f64 / n).round() as u64,
        }
    }
}

/// Builds every cell's workload, decodes it, and constructs a VM over
/// the decoded image — everything a profiling run needs before its
/// first instruction.
pub fn prepare(cells: &[Cell], tr: &mut Tracer) -> (Vec<Prepared>, SetupTimes) {
    let mut t = SetupTimes::default();
    let prepared = cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let id = i as u32;
            let o = tr.open("workloads.build", id);
            let workload = family_workload(cell.family, cell.size).expect("known family");
            t.build_s += tr.close(o);
            let o = tr.open("vm.decode", id);
            let decoded = DecodedProgram::decode(&workload.program, DecodeMode::Fused);
            t.decode_s += tr.close(o);
            t.fused += decoded.stats().fused();
            let p = Prepared {
                cell: cell.clone(),
                workload,
                decoded,
            };
            let o = tr.open("vm.new", id);
            let vm = Vm::with_decoded(&p.workload.program, p.config(), Arc::clone(&p.decoded))
                .expect("valid workload");
            drop(vm);
            t.vm_s += tr.close(o);
            p
        })
        .collect();
    (prepared, t)
}

/// Deterministic counts of one profiled cell. They must repeat exactly
/// on every run of the cell, whatever the dispatch mode or timing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub instructions: u64,
    pub events: u64,
    pub suppress_lookups: u64,
    pub suppress_hits: u64,
    pub shadow_bytes: u64,
}

impl Counts {
    pub fn of(o: &ProfileOutcome) -> Counts {
        let m = &o.metrics;
        Counts {
            instructions: o.stats.instructions,
            events: o.stats.events,
            suppress_lookups: m.counter("drms.suppress.lookups"),
            suppress_hits: m.counter("drms.suppress.read_hits")
                + m.counter("drms.suppress.write_hits"),
            shadow_bytes: o.shadow_bytes,
        }
    }
}

pub fn report_fingerprint(report: &ProfileReport) -> u64 {
    fnv1a(report_io::to_text(report).as_bytes())
}

/// What the reference interpreter (no pre-decoding, per-event
/// delivery) produces for a cell.
pub struct Reference {
    pub report_fp: u64,
    pub metrics_fp: u64,
    pub counts: Counts,
    pub slices: u64,
    pub transfers: u64,
    pub shadow_cache_hits: u64,
    pub shadow_cache_lookups: u64,
    pub report: ProfileReport,
}

pub fn reference(p: &Prepared) -> Reference {
    let o = ProfileSession::new(&p.workload.program)
        .config(p.config())
        .decode(DecodeMode::Off)
        .event_batch(1)
        .run()
        .expect("reference run sets up");
    assert!(o.error.is_none(), "reference run of {:?} aborted", p.cell);
    let m = &o.metrics;
    Reference {
        report_fp: report_fingerprint(&o.report),
        metrics_fp: fnv1a(m.to_json().as_bytes()),
        counts: Counts::of(&o),
        slices: m.counter("sched.slices"),
        transfers: m.counter("kernel.transfers"),
        shadow_cache_hits: m.counter("shadow.cache.hit"),
        shadow_cache_lookups: m.counter("shadow.cache.lookups"),
        report: o.report,
    }
}

/// Whether the naive Fig. 7 set-based oracle computes the same drms
/// and rms profiles as `reference` on this cell.
pub fn naive_agrees(p: &Prepared, reference: &ProfileReport) -> bool {
    let mut oracle = NaiveProfiler::new();
    if run_program_with(&p.workload.program, p.config(), &mut oracle).is_err() {
        return false;
    }
    let naive = oracle.into_report();
    naive.len() == reference.len()
        && reference.iter().all(|(&(r, t), fast)| {
            naive
                .get(r, t)
                .is_some_and(|q| q.by_drms == fast.by_drms && q.by_rms == fast.by_rms)
        })
}
