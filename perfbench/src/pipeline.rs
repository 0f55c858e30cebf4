//! The profiling pipelines the live and out-of-core workloads time:
//! a drms `ProfileSession` per cell, and the spill → load → replay
//! path through `trace::shard`.

use crate::cells::{report_fingerprint, Counts, Prepared, Reference};
use crate::trace::{median, quantile, tail_quantile, Tracer};
use crate::Run;
use drms::prelude::*;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The completed jobs of a timed phase.
///
/// The bounded figures are tail quantiles over jobs, not medians. On the
/// shared reference host the time of one job wanders by up to a third
/// from second to second with the load of other machines, and how much
/// of a run falls in a quiet stretch varies from run to run; the slow
/// tail is reached in every run, so its quantile repeats far better than
/// the median does, and a faster program still moves it in proportion.
struct Jobs {
    start: Instant,
    latencies: Vec<f64>,
    /// Seconds each job spent profiling.
    profile: Vec<f64>,
    instructions: u64,
}

impl Jobs {
    fn new() -> Jobs {
        Jobs {
            start: Instant::now(),
            latencies: Vec::new(),
            profile: Vec::new(),
            instructions: 0,
        }
    }

    /// Records one job of `instructions` guest instructions that took
    /// `latency` seconds, `profile_s` of them profiling.
    fn push(&mut self, latency: f64, profile_s: f64, instructions: u64) {
        self.latencies.push(latency);
        self.profile.push(profile_s);
        self.instructions += instructions;
    }

    /// Emits the metrics every workload shares, both at the tail
    /// quantile `job_p90_s` names (see [`tail_quantile`]):
    ///
    /// * `job_p90_s` — job latency;
    /// * `profile_minstr_per_s` — a job's mean guest instructions over
    ///   the same quantile of its profiling time.
    ///
    /// The median latency goes to standard error with the job count.
    fn report(mut self, run: &mut Run) {
        let n = self.latencies.len();
        if n < 2 {
            run.op(&["fewer than two jobs completed"]);
            return;
        }
        let q = tail_quantile(n);
        let tail = quantile(&mut self.latencies, q);
        let per_job = self.instructions as f64 / n as f64;
        eprintln!(
            "perfbench: {n} jobs; median latency {:.6} s; job_p90_s is the p{:.1} quantile",
            median(&mut self.latencies),
            q * 100.0
        );
        run.metric(
            "profile_minstr_per_s",
            per_job / quantile(&mut self.profile, q) / 1e6,
            "Minstr/s",
        );
        run.metric("job_p90_s", tail, "s");
    }
}

/// Runs `round` once to warm caches and allocations, then as one job
/// after another until the run's measuring time is used up, and at
/// least twice. A round returns its latency, the part of it spent
/// profiling, and the guest instructions it profiled.
fn timed_rounds(run: &mut Run, mut round: impl FnMut(&mut Run) -> (f64, f64, u64)) {
    round(run);
    let mut jobs = Jobs::new();
    while jobs.latencies.len() < 2 || jobs.start.elapsed().as_secs_f64() < run.seconds {
        let (latency, profile_s, instructions) = round(run);
        jobs.push(latency, profile_s, instructions);
    }
    jobs.report(run);
}

/// Runs the workload's cells under a full drms `ProfileSession`, one
/// round over all of them per job. Every outcome is checked against its
/// reference.
pub fn live_phase(prepared: &[Prepared], refs: &[Reference], run: &mut Run) {
    let mut batch = EventBatch::default();
    timed_rounds(run, |run| {
        let (mut round_s, mut instructions) = (0.0, 0);
        for (i, (p, r)) in prepared.iter().zip(refs).enumerate() {
            let o = run.tr.open("core.drms.session", i as u32);
            let out = ProfileSession::new(&p.workload.program)
                .config(p.config())
                .decoded(Arc::clone(&p.decoded))
                .batch_buffer(&mut batch)
                .run();
            let secs = run.tr.close(o);
            let mut bad = Vec::new();
            match out {
                Ok(out) => check_live(&out, r, &mut bad),
                Err(_) => bad.push("session set-up failed"),
            }
            run.op(&bad);
            round_s += secs;
            instructions += r.counts.instructions;
        }
        (round_s, round_s, instructions)
    });
}

/// A live outcome must match the reference interpreter's report,
/// metrics and counts exactly.
pub fn check_live(out: &ProfileOutcome, r: &Reference, bad: &mut Vec<&'static str>) {
    if out.error.is_some() {
        bad.push("guest abort");
    }
    if report_fingerprint(&out.report) != r.report_fp {
        bad.push("report differs from the reference interpreter");
    }
    if drms::sched::fnv1a(out.metrics.to_json().as_bytes()) != r.metrics_fp {
        bad.push("metrics differ from the reference interpreter");
    }
    if Counts::of(out) != r.counts {
        bad.push("counts differ from the reference interpreter");
    }
}

/// One cell profiled with a shard spill attached, its shards loaded
/// back, and replayed into a fresh `DrmsProfiler`.
pub struct Spilled {
    pub live: ProfileOutcome,
    pub frames: u64,
    pub bytes: u64,
    pub spill_s: f64,
    pub load_s: f64,
    pub replay_s: f64,
}

/// Spills, loads and replays one cell under spans `trace.shard.spill`,
/// `trace.shard.load` and `vm.replay`, checking the outcome.
pub fn spill_load_replay(
    p: &Prepared,
    r: &Reference,
    dir: &Path,
    tr: &mut Tracer,
    id: u32,
    bad: &mut Vec<&'static str>,
) -> Option<Spilled> {
    let _ = std::fs::remove_dir_all(dir);
    let o = tr.open("trace.shard.spill", id);
    let live = ProfileSession::new(&p.workload.program)
        .config(p.config())
        .decoded(Arc::clone(&p.decoded))
        .trace_dir(dir)
        .run();
    let spill_s = tr.close(o);
    let Ok(live) = live else {
        bad.push("spill run failed");
        return None;
    };
    let o = tr.open("trace.shard.load", id);
    let set = ShardSet::load(dir, 1);
    let load_s = tr.close(o);
    let Ok(set) = set else {
        bad.push("shard load failed");
        return None;
    };
    let o = tr.open("vm.replay", id);
    let mut replay = DrmsProfiler::new(DrmsConfig::full());
    replay_shards_into(&set, &mut replay);
    let replayed = replay.into_report();
    let replay_s = tr.close(o);

    if live.error.is_some() {
        bad.push("guest abort");
    }
    let live_fp = report_fingerprint(&live.report);
    if live_fp != r.report_fp {
        bad.push("spilled report differs from the reference interpreter");
    }
    if report_fingerprint(&replayed) != live_fp {
        bad.push("replayed report differs from the live report");
    }
    let counts = Counts::of(&live);
    if (counts.instructions, counts.events) != (r.counts.instructions, r.counts.events) {
        bad.push("spilled counts differ from the reference interpreter");
    }
    if set.dropped != 0 {
        bad.push("dropped shard frames");
    }
    if set.salvaged + set.dropped != set.total {
        bad.push("shard salvage accounting broken");
    }
    let m = &live.metrics;
    let (frames, bytes) = (
        m.counter("trace.shard.frames"),
        m.counter("trace.shard.bytes"),
    );
    drop(set);
    let _ = std::fs::remove_dir_all(dir);
    Some(Spilled {
        live,
        frames,
        bytes,
        spill_s,
        load_s,
        replay_s,
    })
}

/// First-seen shard frame and byte counts per cell: a later repetition
/// of the cell must spill exactly the same.
#[derive(Default)]
pub struct ShardCounts(BTreeMap<usize, (u64, u64)>);

impl ShardCounts {
    pub fn check(&mut self, cell: usize, s: &Spilled, bad: &mut Vec<&'static str>) {
        let seen = *self.0.entry(cell).or_insert((s.frames, s.bytes));
        if seen != (s.frames, s.bytes) {
            bad.push("shard frames or bytes changed between repetitions");
        }
    }
}

/// Profiles every cell through spill, load and replay, one round over
/// all of them per job.
pub fn out_of_core_phase(prepared: &[Prepared], refs: &[Reference], run: &mut Run) {
    let mut shard_counts = ShardCounts::default();
    timed_rounds(run, |run| {
        let (mut round_s, mut spill_s, mut instructions) = (0.0, 0.0, 0);
        for (i, (p, r)) in prepared.iter().zip(refs).enumerate() {
            let dir = run.work.join(format!("shards-{i}"));
            let mut bad = Vec::new();
            if let Some(s) = spill_load_replay(p, r, &dir, &mut run.tr, i as u32, &mut bad) {
                shard_counts.check(i, &s, &mut bad);
                round_s += s.spill_s + s.load_s + s.replay_s;
                spill_s += s.spill_s;
                instructions += s.live.stats.instructions;
            }
            run.op(&bad);
        }
        (round_s, spill_s, instructions)
    });
}
