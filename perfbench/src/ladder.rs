//! The traced run: each workload cell climbs a cumulative ladder of
//! configurations, one span per rung, and every per-layer metric is a
//! rung's self time divided by the deterministic count beside it.
//!
//! | rung | span | call |
//! |---|---|---|
//! | 1 | `vm.null.batch1` | `run_program_with` + `NullTool`, `event_batch` 1 |
//! | 2 | `vm.null` | `run_program_with` + `NullTool`, batched (native) |
//! | 3 | `core.rms` | `run_program_with` + `RmsProfiler` |
//! | 4 | `core.drms` | a bare `ProfileSession` (full drms) |
//! | 5 | `trace.shard.spill` | the session with `trace_dir` spill attached |
//! | 6 | `trace.shard.load` | `ShardSet::load` |
//! | 7 | `vm.replay` | `replay_shards_into` a fresh `DrmsProfiler` |
//! | 8 | `supervisor.cell` | journaled `run_supervised_with`, then `hostio.fsync` |
//! | 9 | `aprofd.job` | submit → queue → done over HTTP, and `aprofd.handle` |

use crate::cells::{Prepared, Reference, SetupTimes};
use crate::pipeline::{check_live, spill_load_replay, ShardCounts};
use crate::service::{self, Service};
use crate::trace::{self, Tracer};
use crate::Run;
use drms::prelude::*;
use drms_aprofd::Conn;
use std::time::{Duration, Instant};

/// Timed `fdatasync` calls made after each journaled cell.
const FSYNC_SAMPLES: usize = 3;

/// Deterministic counts summed over the cells the ladder climbed.
#[derive(Default)]
struct Totals {
    cells: u64,
    instructions: u64,
    events: u64,
    slices: u64,
    transfers: u64,
    suppress_lookups: u64,
    suppress_hits: u64,
    cache_hits: u64,
    cache_lookups: u64,
    shadow_bytes: u64,
    frames: u64,
    shard_bytes: u64,
    fsyncs: u64,
    journal_bytes: u64,
    requests: u64,
    shed: u64,
}

pub fn ladder(prepared: &[Prepared], refs: &[Reference], setup: &SetupTimes, run: &mut Run) {
    let (daemon, listener) = service::start_daemon(&run.work.join("aprofd"), 1);
    let svc = Service::start(daemon, listener, &run.work.join("aprofd"));
    let admit_only = service::admit_only_daemon(&run.work.join("aprofd-admit"));
    let mut conn = Conn::new(svc.addr.clone(), Duration::from_secs(60));
    let io = HostIo::real();
    let mut shard_counts = ShardCounts::default();
    let mut fsync_samples = Vec::new();
    let mut t = Totals::default();

    let start = Instant::now();
    let mut k = 0;
    while k < prepared.len() || start.elapsed().as_secs_f64() < run.seconds {
        let i = k % prepared.len();
        k += 1;
        let (p, r) = (&prepared[i], &refs[i]);
        let id = i as u32;
        let mut bad = Vec::new();
        let cell = run.tr.open("ladder.cell", id);

        let batched = p.config().event_batch;
        for (span, event_batch) in [("vm.null.batch1", 1), ("vm.null", batched)] {
            let config = RunConfig {
                event_batch,
                ..p.config()
            };
            let o = run.tr.open(span, id);
            let stats = run_program_with(&p.workload.program, config, &mut NullTool);
            run.tr.close(o);
            if stats.map(|s| s.instructions).ok() != Some(r.counts.instructions) {
                bad.push("native run differs from the reference interpreter");
            }
        }
        let o = run.tr.open("core.rms", id);
        let stats = run_program_with(&p.workload.program, p.config(), &mut RmsProfiler::new());
        run.tr.close(o);
        if stats.map(|s| s.events).ok() != Some(r.counts.events) {
            bad.push("rms run differs from the reference interpreter");
        }
        let o = run.tr.open("core.drms", id);
        let out = ProfileSession::new(&p.workload.program)
            .config(p.config())
            .run();
        run.tr.close(o);
        match out {
            Ok(out) => check_live(&out, r, &mut bad),
            Err(_) => bad.push("session set-up failed"),
        }

        let dir = run.work.join(format!("shards-{i}"));
        if let Some(s) = spill_load_replay(p, r, &dir, &mut run.tr, id, &mut bad) {
            shard_counts.check(i, &s, &mut bad);
            t.frames += s.frames;
            t.shard_bytes += s.bytes;
        }

        let spec = p.job_spec();
        let journal = run.work.join(format!("cell-{i}.journal"));
        let o = run.tr.open("supervisor.cell", id);
        let direct = service::direct(&spec, &journal, &io);
        run.tr.close(o);
        if direct.quarantined != 0 || direct.report_fps != [r.report_fp] {
            bad.push("supervised cell differs from the reference interpreter");
        }
        t.fsyncs += direct.fsyncs;
        t.journal_bytes += direct.journal_bytes;
        fsync_samples.extend(time_fsyncs(&journal, &io, &mut run.tr, id));

        let o = run.tr.open("aprofd.job", id);
        let job = service::run_job(&mut conn, &spec);
        if let Ok(job) = &job {
            let submitted = Instant::now() - Duration::from_secs_f64(job.total_s);
            let tr = &mut run.tr;
            tr.record("aprofd.http.submit", id, submitted, job.submit_s);
            let queued = submitted + Duration::from_secs_f64(job.submit_s);
            tr.record("aprofd.queue.wait", id, queued, job.queue_s);
            let running = queued + Duration::from_secs_f64(job.queue_s);
            tr.record("aprofd.job.run", id, running, job.run_s);
        }
        run.tr.close(o);
        match job {
            Ok(job) => {
                service::check_job(&svc, &job, &direct, &mut bad);
                t.requests += job.requests;
                t.shed += u64::from(job.shed);
            }
            Err(e) => {
                eprintln!("perfbench: ladder aprofd job: {e}");
                bad.push("aprofd request failed");
            }
        }
        if service::handle_submit(&admit_only, &spec, &mut run.tr, id) != 200 {
            bad.push("Daemon::handle refused the submission");
        }
        run.tr.close(cell);
        run.op(&bad);

        t.cells += 1;
        t.instructions += r.counts.instructions;
        t.events += r.counts.events;
        t.slices += r.slices;
        t.transfers += r.transfers;
        t.suppress_lookups += r.counts.suppress_lookups;
        t.suppress_hits += r.counts.suppress_hits;
        t.cache_hits += r.shadow_cache_hits;
        t.cache_lookups += r.shadow_cache_lookups;
        t.shadow_bytes += r.counts.shadow_bytes;
    }
    let traced_s = start.elapsed().as_secs_f64();
    drop(conn);
    svc.stop();
    report(run, setup, &t, fsync_samples, traced_s);
}

/// Appends a line to the journal and times `FSYNC_SAMPLES`
/// `fdatasync`s of it through the same counting `HostIo`.
fn time_fsyncs(journal: &std::path::Path, io: &HostIo, tr: &mut Tracer, id: u32) -> Vec<f64> {
    let Ok(mut file) = std::fs::OpenOptions::new().append(true).open(journal) else {
        return Vec::new();
    };
    (0..FSYNC_SAMPLES)
        .filter_map(|_| {
            io.write_all(&mut file, b"#\n").ok()?;
            let o = tr.open("hostio.fsync", id);
            let ok = io.fdatasync(&file).is_ok();
            let secs = tr.close(o);
            ok.then_some(secs)
        })
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn report(run: &mut Run, setup: &SetupTimes, t: &Totals, mut fsyncs: Vec<f64>, traced_s: f64) {
    let own = run.tr.self_secs();
    let s = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let (instr, events, cells) = (t.instructions as f64, t.events as f64, t.cells as f64);
    let native = s("vm.null");
    let ns_per_event = |secs: f64| ratio(secs, events) * 1e9;
    let per_cell_ms = |secs: f64| ratio(secs, cells) * 1e3;
    let mib = t.shard_bytes as f64 / (1024.0 * 1024.0);

    let m = [
        ("workloads.build_s", setup.build_s, "s"),
        ("vm.decode.s", setup.decode_s, "s"),
        ("vm.decode.fused", setup.fused as f64, "count"),
        ("vm.instructions", instr, "count"),
        ("vm.events", events, "count"),
        ("sched.slices", t.slices as f64, "count"),
        ("kernel.transfers", t.transfers as f64, "count"),
        ("vm.interp.ns_per_instr", ratio(native, instr) * 1e9, "ns"),
        (
            "vm.batch.ns_per_event",
            ns_per_event(s("vm.null.batch1") - native),
            "ns",
        ),
        (
            "core.rms.ns_per_event",
            ns_per_event(s("core.rms") - native),
            "ns",
        ),
        (
            "core.drms.ns_per_event",
            ns_per_event(s("core.drms") - native),
            "ns",
        ),
        ("core.drms.slowdown", ratio(s("core.drms"), native), "x"),
        (
            "core.drms.suppress_lookups",
            t.suppress_lookups as f64,
            "count",
        ),
        ("core.drms.suppress_hits", t.suppress_hits as f64, "count"),
        (
            "core.drms.suppress_hit_ratio",
            ratio(t.suppress_hits as f64, t.suppress_lookups as f64),
            "ratio",
        ),
        (
            "core.drms.shadow_cache_hit_ratio",
            ratio(t.cache_hits as f64, t.cache_lookups as f64),
            "ratio",
        ),
        ("core.drms.shadow_bytes", t.shadow_bytes as f64, "bytes"),
        (
            "trace.shard.write_ns_per_event",
            ns_per_event(s("trace.shard.spill") - s("core.drms")),
            "ns",
        ),
        ("trace.shard.frames", t.frames as f64, "count"),
        ("trace.shard.bytes", t.shard_bytes as f64, "bytes"),
        (
            "trace.shard.bytes_per_event",
            ratio(t.shard_bytes as f64, events),
            "bytes",
        ),
        (
            "trace.shard.spill_mevents_per_s",
            ratio(events, s("trace.shard.spill")) / 1e6,
            "Mevents/s",
        ),
        (
            "trace.shard.load_s",
            ratio(s("trace.shard.load"), cells),
            "s",
        ),
        (
            "trace.shard.load_mib_per_s",
            ratio(mib, s("trace.shard.load")),
            "MiB/s",
        ),
        ("vm.replay.ns_per_event", ns_per_event(s("vm.replay")), "ns"),
        (
            "vm.replay.mevents_per_s",
            ratio(events, s("trace.shard.load") + s("vm.replay")) / 1e6,
            "Mevents/s",
        ),
        (
            "supervisor.ms_per_cell",
            per_cell_ms(s("supervisor.cell") - s("core.drms")),
            "ms",
        ),
        ("trace.journal.fsyncs", t.fsyncs as f64, "count"),
        ("trace.journal.bytes", t.journal_bytes as f64, "bytes"),
        (
            "hostio.fsync_ms",
            if fsyncs.is_empty() {
                0.0
            } else {
                trace::median(&mut fsyncs) * 1e3
            },
            "ms",
        ),
        (
            "aprofd.http.submit_ms",
            per_cell_ms(s("aprofd.http.submit")),
            "ms",
        ),
        ("aprofd.handle_ms", per_cell_ms(s("aprofd.handle")), "ms"),
        (
            "aprofd.queue.wait_ms",
            per_cell_ms(s("aprofd.queue.wait")),
            "ms",
        ),
        ("aprofd.job.run_ms", per_cell_ms(s("aprofd.job.run")), "ms"),
        ("aprofd.http.requests", t.requests as f64, "count"),
        ("aprofd.shed", t.shed as f64, "count"),
        ("ladder.cells", cells, "count"),
    ];
    for (name, value, unit) in m {
        run.metric(name, value, unit);
    }
    let spans = run.tr.len() as f64;
    run.metric("trace.spans", spans, "count");
    run.metric(
        "trace.overhead_frac",
        spans * trace::span_cost_secs() / traced_s,
        "ratio",
    );
}
