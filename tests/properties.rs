//! Property-based tests over randomly generated event streams and guest
//! programs, driven by the workspace's own seeded PRNG (the build
//! environment has no network access, so no external fuzzing crate):
//!
//! * the read/write timestamping algorithm agrees with the naive
//!   set-based oracle (Figure 7 vs Figure 8) on arbitrary interleavings,
//!   delivered per event and in read/write batches of random capacity;
//! * timestamp renumbering never changes profiles;
//! * `drms ≥ rms` on every activation (paper Inequality 1);
//! * the trace codec round-trips arbitrary traces;
//! * merging preserves per-thread subsequences;
//! * injected kernel faults do not change the cost-function shape of a
//!   retrying workload (metamorphic);
//! * corrupted trace text never panics the codec and salvage yields a
//!   valid prefix.

use drms::analysis::{CostPlot, InputMetric};
use drms::core::{DrmsConfig, DrmsProfiler, NaiveProfiler, RmsProfiler};
use drms::trace::{
    codec, merge_traces, merge_traces_with_ties, replay, Addr, BatchKind, Event, EventBatch,
    RoutineId, ThreadId, ThreadTrace, TieBreaker, TimedEvent, Tool,
};
use drms::vm::{FaultPlan, SmallRng};

const CASES: u64 = 64;

/// A compact description of one generated event.
#[derive(Clone, Debug)]
enum Op {
    Call(u8),
    Return,
    Read(u8),
    Write(u8),
    KernelFill(u8, u8),
    KernelDrain(u8, u8),
}

/// Samples one op with the same weights the proptest strategy used:
/// call 3, return 3, read 6, write 4, kernel fill 1, kernel drain 1.
fn random_op(rng: &mut SmallRng) -> Op {
    match rng.gen_range(0u32..18) {
        0..=2 => Op::Call(rng.gen_range(0u32..6) as u8),
        3..=5 => Op::Return,
        6..=11 => Op::Read(rng.gen_range(0u32..24) as u8),
        12..=15 => Op::Write(rng.gen_range(0u32..24) as u8),
        16 => Op::KernelFill(rng.gen_range(0u32..20) as u8, rng.gen_range(1u32..5) as u8),
        _ => Op::KernelDrain(rng.gen_range(0u32..20) as u8, rng.gen_range(1u32..5) as u8),
    }
}

/// Samples 1–3 threads of 0–59 ops each.
fn random_interleaving(rng: &mut SmallRng) -> Vec<ThreadTrace> {
    let threads = rng.gen_range(1usize..4);
    let per_thread: Vec<Vec<Op>> = (0..threads)
        .map(|_| {
            let len = rng.gen_range(0usize..60);
            (0..len).map(|_| random_op(rng)).collect()
        })
        .collect();
    build_traces(per_thread)
}

/// Turns per-thread op lists into well-formed per-thread traces: calls
/// and returns are balanced per thread (spurious returns are dropped,
/// pending frames closed at the end), memory ops outside a routine are
/// dropped.
fn build_traces(per_thread: Vec<Vec<Op>>) -> Vec<ThreadTrace> {
    let mut traces = Vec::new();
    let mut time = 1u64;
    for (t, ops) in per_thread.into_iter().enumerate() {
        let tid = ThreadId::new(t as u32);
        let mut tr = ThreadTrace::new(tid);
        let mut depth = 0u32;
        let mut stack: Vec<RoutineId> = Vec::new();
        tr.push(time, 0, Event::ThreadStart { parent: None });
        time += 1;
        for op in ops {
            match op {
                Op::Call(r) => {
                    let routine = RoutineId::new(r as u32);
                    stack.push(routine);
                    depth += 1;
                    tr.push(time, depth as u64, Event::Call { routine });
                }
                Op::Return => {
                    if let Some(routine) = stack.pop() {
                        depth -= 1;
                        tr.push(time, depth as u64 + 1, Event::Return { routine });
                    }
                }
                Op::Read(a) if depth > 0 => {
                    tr.push(
                        time,
                        depth as u64,
                        Event::Read {
                            addr: Addr::new(100 + a as u64),
                            len: 1,
                        },
                    );
                }
                Op::Write(a) if depth > 0 => {
                    tr.push(
                        time,
                        depth as u64,
                        Event::Write {
                            addr: Addr::new(100 + a as u64),
                            len: 1,
                        },
                    );
                }
                Op::KernelFill(a, l) if depth > 0 => {
                    tr.push(
                        time,
                        depth as u64,
                        Event::KernelToUser {
                            addr: Addr::new(100 + a as u64),
                            len: l as u32,
                        },
                    );
                }
                Op::KernelDrain(a, l) if depth > 0 => {
                    tr.push(
                        time,
                        depth as u64,
                        Event::UserToKernel {
                            addr: Addr::new(100 + a as u64),
                            len: l as u32,
                        },
                    );
                }
                _ => {}
            }
            time += 1;
        }
        while let Some(routine) = stack.pop() {
            tr.push(time, depth as u64, Event::Return { routine });
            depth = depth.saturating_sub(1);
            time += 1;
        }
        tr.push(time, 0, Event::ThreadExit);
        time += 1;
        traces.push(tr);
    }
    traces
}

#[test]
fn timestamping_matches_naive_oracle() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xA11CE ^ case);
        let traces = random_interleaving(&mut rng);
        let merged = merge_traces_with_ties(traces, TieBreaker::Seeded(case % 8));
        let mut fast = DrmsProfiler::new(DrmsConfig::full());
        replay(&merged, &mut fast);
        let mut oracle = NaiveProfiler::new();
        replay(&merged, &mut oracle);
        let a = fast.into_report();
        let b = oracle.into_report();
        assert_eq!(a.len(), b.len(), "case {case}");
        for (&(r, t), p) in a.iter() {
            let q = b.get(r, t).expect("oracle has the same profiles");
            assert_eq!(
                &p.by_drms, &q.by_drms,
                "drms mismatch at {r}/{t}, case {case}"
            );
            assert_eq!(&p.by_rms, &q.by_rms, "rms mismatch at {r}/{t}, case {case}");
        }
    }
}

/// Replays `events` the way the VM's decoded loop delivers them: each
/// thread's consecutive reads and writes reach `tool` through
/// `observe_batch`, in batches of up to `capacity` entries flushed when
/// full, before any other event, before each thread switch (synthesized
/// as [`replay`] does) and at the end.
fn replay_batched<T: Tool>(events: &[TimedEvent], capacity: usize, tool: &mut T) {
    let mut batch = EventBatch::with_capacity(capacity);
    let mut current = None;
    for ev in events {
        let (t, cost) = (ev.thread, ev.cost);
        let entry = match ev.event {
            Event::Read { addr, len } => Some((BatchKind::Read, addr, len)),
            Event::Write { addr, len } => Some((BatchKind::Write, addr, len)),
            _ => None,
        };
        if !batch.is_empty() && (current != Some(t) || entry.is_none() || batch.is_full()) {
            tool.observe_batch(&batch);
            batch.clear();
        }
        if current != Some(t) {
            tool.on_thread_switch(current, t);
            current = Some(t);
        }
        match (entry, ev.event) {
            (Some((kind, addr, len)), _) => {
                if batch.is_empty() {
                    batch.set_thread(t);
                }
                batch.push(kind, addr, len);
            }
            (None, Event::Call { routine }) => tool.on_call(t, routine, cost),
            (None, Event::Return { routine }) => tool.on_return(t, routine, cost),
            (None, Event::UserToKernel { addr, len }) => tool.on_user_to_kernel(t, addr, len),
            (None, Event::KernelToUser { addr, len }) => tool.on_kernel_to_user(t, addr, len),
            (None, Event::ThreadStart { parent }) => tool.on_thread_start(t, parent),
            (None, Event::ThreadExit) => tool.on_thread_exit(t, cost),
            (None, Event::Sync { op }) => tool.on_sync(t, op),
            (None, Event::Block { routine, block }) => tool.on_block(t, routine, block),
            (None, Event::Read { .. } | Event::Write { .. }) => unreachable!("batched above"),
        }
    }
    if !batch.is_empty() {
        tool.observe_batch(&batch);
    }
    tool.on_finish();
}

/// The fast profiler's native batch path against the naive oracle
/// (which unrolls each batch through its per-event hooks): batch
/// boundaries, at any capacity, never change a profile.
#[test]
fn batched_timestamping_matches_naive_oracle() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xBA7C ^ case);
        let merged = merge_traces(random_interleaving(&mut rng));
        let capacity = rng.gen_range(1usize..65);
        let mut per_event = DrmsProfiler::new(DrmsConfig::full());
        replay(&merged, &mut per_event);
        let mut fast = DrmsProfiler::new(DrmsConfig::full());
        replay_batched(&merged, capacity, &mut fast);
        let mut oracle = NaiveProfiler::new();
        replay_batched(&merged, capacity, &mut oracle);
        let a = fast.into_report();
        let b = oracle.into_report();
        assert_eq!(
            a,
            per_event.into_report(),
            "case {case}, capacity {capacity}"
        );
        assert_eq!(a.len(), b.len(), "case {case}");
        for (&(r, t), p) in a.iter() {
            let q = b.get(r, t).expect("oracle has the same profiles");
            assert_eq!(
                &p.by_drms, &q.by_drms,
                "drms mismatch at {r}/{t}, case {case}, capacity {capacity}"
            );
            assert_eq!(
                &p.by_rms, &q.by_rms,
                "rms mismatch at {r}/{t}, case {case}, capacity {capacity}"
            );
        }
    }
}

#[test]
fn renumbering_never_changes_profiles() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xB0B ^ case);
        let traces = random_interleaving(&mut rng);
        let limit = rng.gen_range(4u64..64);
        let merged = merge_traces(traces);
        let mut base = DrmsProfiler::new(DrmsConfig::full());
        replay(&merged, &mut base);
        let mut tiny = DrmsProfiler::new(DrmsConfig {
            count_limit: limit,
            ..DrmsConfig::full()
        });
        replay(&merged, &mut tiny);
        assert_eq!(
            base.into_report(),
            tiny.into_report(),
            "case {case}, limit {limit}"
        );
    }
}

#[test]
fn drms_dominates_rms_pointwise() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xD0D0 ^ case);
        let merged = merge_traces(random_interleaving(&mut rng));
        let mut prof = DrmsProfiler::new(DrmsConfig::full());
        replay(&merged, &mut prof);
        for (_, p) in prof.report().iter() {
            assert!(p.sum_drms >= p.sum_rms, "case {case}");
        }
    }
}

#[test]
fn standalone_rms_matches_fused_rms() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xFACE ^ case);
        let merged = merge_traces(random_interleaving(&mut rng));
        let mut fused = DrmsProfiler::new(DrmsConfig::full());
        replay(&merged, &mut fused);
        let mut standalone = RmsProfiler::new();
        replay(&merged, &mut standalone);
        let a = fused.into_report();
        let b = standalone.into_report();
        for (&(r, t), p) in a.iter() {
            let q = b.get(r, t).expect("same routines");
            assert_eq!(&p.by_rms, &q.by_rms, "at {r}/{t}, case {case}");
        }
    }
}

#[test]
fn static_only_drms_equals_rms() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5EED ^ case);
        let merged = merge_traces(random_interleaving(&mut rng));
        let mut prof = DrmsProfiler::new(DrmsConfig::static_only());
        replay(&merged, &mut prof);
        for (_, p) in prof.report().iter() {
            assert_eq!(&p.by_drms, &p.by_rms, "case {case}");
        }
    }
}

#[test]
fn codec_roundtrips_arbitrary_traces() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xC0DEC ^ case);
        let merged = merge_traces(random_interleaving(&mut rng));
        let text = codec::to_text(&merged);
        let back = codec::from_text(&text).expect("parse");
        assert_eq!(back, merged, "case {case}");
    }
}

#[test]
fn merge_preserves_thread_subsequences() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x9E9E ^ case);
        let traces = random_interleaving(&mut rng);
        let expected: Vec<Vec<TimedEvent>> = traces.iter().map(|t| t.events().to_vec()).collect();
        let merged = merge_traces_with_ties(traces, TieBreaker::Seeded(case % 8));
        for (t, exp) in expected.iter().enumerate() {
            let got: Vec<TimedEvent> = merged
                .iter()
                .filter(|e| e.thread.index() as usize == t)
                .copied()
                .collect();
            assert_eq!(&got, exp, "case {case}");
        }
    }
}

/// Samples a fault plan a retrying guest can always mask: short reads
/// and transient errors only (no hard EIO, which legitimately changes
/// what the guest can read).
fn random_recoverable_plan(rng: &mut SmallRng) -> FaultPlan {
    let seed = rng.next_u64() & 0xFFFF;
    let mut rules = Vec::new();
    if rng.gen_ratio(2, 3) {
        let den = rng.gen_range(2u64..6);
        let num = rng.gen_range(1u64..den + 1);
        rules.push(format!("fd0:shortread:p={num}/{den}"));
    }
    if rng.gen_ratio(1, 2) {
        let period = rng.gen_range(3u64..20);
        rules.push(format!("in:eintr:every={period}"));
    }
    if rules.is_empty() {
        rules.push("in:eagain:p=1/7".to_owned());
    }
    let spec = format!("seed={seed},{}", rules.join(","));
    FaultPlan::parse(&spec).expect("generated specs are valid")
}

/// Metamorphic robustness property: a workload whose reads resume short
/// transfers and retry transient errors produces the same drms input
/// sizes — and the same cost-function class — whether or not faults are
/// injected. Costs differ (retry loops execute extra blocks), so only
/// the input sets and the fit class are compared.
#[test]
fn fault_injection_preserves_cost_function_shape() {
    let sizes = [32i64, 64, 96, 128, 192, 256];
    let w = drms::workloads::minidb::minidb_scaling(&sizes);
    let focus = w.focus.expect("mysql_select");
    let (clean_report, clean_stats) = drms::ProfileSession::workload(&w)
        .run()
        .expect("fault-free run")
        .into_parts()
        .expect("fault-free run");
    let clean_plot = CostPlot::of(&clean_report.merged_routine(focus), InputMetric::Drms);
    let clean_sizes: Vec<u64> = clean_plot.points.iter().map(|p| p.0).collect();
    let clean_fit = clean_plot.fit(0.02);
    assert_eq!(clean_stats.faults.injected(), 0);

    for case in 0..16u64 {
        let mut rng = SmallRng::seed_from_u64(0xFA17 ^ case);
        let plan = random_recoverable_plan(&mut rng);
        let mut cfg = w.run_config();
        cfg.faults = Some(plan.clone());
        let outcome = drms::ProfileSession::new(&w.program)
            .config(cfg)
            .run()
            .expect("valid workload");
        assert!(
            outcome.error.is_none(),
            "recoverable faults must not abort the run (case {case}, plan {plan})"
        );
        let plot = CostPlot::of(&outcome.report.merged_routine(focus), InputMetric::Drms);
        let fault_sizes: Vec<u64> = plot.points.iter().map(|p| p.0).collect();
        assert_eq!(
            fault_sizes, clean_sizes,
            "drms input sizes must match the fault-free run (case {case}, plan {plan})"
        );
        assert_eq!(
            plot.fit(0.02).model,
            clean_fit.model,
            "cost-function class must survive injected faults (case {case}, plan {plan})"
        );
    }
}

/// Corrupting serialized traces (single-byte replacement or truncation)
/// never panics the codec: strict parsing reports a structured error and
/// lossy parsing salvages a prefix that still replays cleanly.
#[test]
fn corrupted_trace_text_never_panics() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xBADC0DE ^ case);
        let merged = merge_traces(random_interleaving(&mut rng));
        let text = codec::to_text(&merged);
        if text.is_empty() {
            continue;
        }
        let corrupted = if rng.gen_ratio(1, 2) {
            // Replace one byte with 'X' (trace text is pure ASCII).
            let i = rng.gen_range(0usize..text.len());
            let mut bytes = text.clone().into_bytes();
            bytes[i] = b'X';
            String::from_utf8(bytes).expect("still ASCII")
        } else {
            // Truncate mid-stream, as a crashed capture would.
            let i = rng.gen_range(0usize..text.len());
            text[..i].to_owned()
        };
        // Strict parsing returns a structured result either way.
        let _ = codec::from_text(&corrupted);
        // Lossy parsing salvages a prefix no longer than the original...
        let salvage = codec::from_text_lossy(&corrupted);
        assert!(salvage.value.len() <= merged.len(), "case {case}");
        // ...which is exactly the original prefix: a final line cut
        // inside its checksum token is torn, never a shorter event...
        let n = salvage.value.len();
        assert_eq!(&salvage.value[..], &merged[..n], "case {case}");
        // ...and which the analysis pipeline accepts without panicking.
        let mut prof = DrmsProfiler::new(DrmsConfig::full());
        replay(&salvage.value, &mut prof);
        let _ = prof.into_report();
    }
}

/// The shadow memory's last-leaf cache is transparent: on arbitrary
/// clustered get/set/clear sequences the cached reads agree with the
/// always-walk reference path ([`get_uncached`]) and with a map oracle.
///
/// [`get_uncached`]: drms::vm::ShadowMemory::get_uncached
#[test]
fn shadow_leaf_cache_is_transparent() {
    use drms::vm::ShadowMemory;
    use std::collections::HashMap;
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5AD0_0B5E ^ case);
        let mut shadow: ShadowMemory<u64> = ShadowMemory::new();
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        for step in 0..500u64 {
            // Cluster addresses onto a handful of leaf chunks so the
            // sequence mixes same-leaf runs with leaf switches.
            let leaf = rng.gen_range(0u32..5) as u64;
            let a = leaf * 4096 + rng.gen_range(0u32..64) as u64;
            let addr = Addr::new(a);
            match rng.gen_range(0u32..12) {
                0..=5 => {
                    shadow.set(addr, step + 1);
                    oracle.insert(a, step + 1);
                }
                6..=9 => {
                    let expect = oracle.get(&a).copied().unwrap_or_default();
                    assert_eq!(shadow.get(addr), expect, "case {case} step {step}");
                    assert_eq!(shadow.get_uncached(addr), expect, "case {case} step {step}");
                }
                10 => {
                    assert_eq!(
                        shadow.get(addr),
                        shadow.get_uncached(addr),
                        "case {case} step {step}"
                    );
                }
                _ => {
                    shadow.clear();
                    oracle.clear();
                }
            }
        }
    }
}
