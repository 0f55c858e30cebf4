//! Property-based fuzzing of the builder + interpreter: randomly
//! generated structured guest programs must pass validation, run to
//! completion within the instruction budget, and behave identically when
//! re-run (the VM is deterministic under round-robin scheduling). The
//! decoded block-dispatch loop must be observably identical to the
//! reference stepper on every generated program, including programs
//! that fault and runs the watchdog cuts short at any instruction.
//!
//! Programs are generated with the workspace's own seeded PRNG (the
//! build environment has no network access, so no external fuzzing
//! crate); every case is reproducible from its printed seed.

use drms_trace::{merge_traces, Schedule, TimedEvent};
use drms_vm::{
    run_program, CostKind, DecodeMode, FnBuilder, NullTool, Operand, Program, ProgramBuilder,
    RunConfig, RunError, RunStats, SchedPolicy, SmallRng, TraceRecorder, Vm,
};

const CASES: u64 = 48;

/// One structured statement in a generated routine body.
#[derive(Clone, Debug)]
enum Stmt {
    Arith(u8, u8),
    LoadStore(u8),
    IfThen(u8, Vec<Stmt>),
    IfElse(u8, Vec<Stmt>, Vec<Stmt>),
    ForLoop(u8, Vec<Stmt>),
    Rand(u8),
    CallHelper(u8),
    /// `for i in 0..n { v = 97 / (i - k); v = v + 1 }`: divides by zero
    /// on iteration `k` when `k < n`, between fused loop idioms.
    DivFault {
        v: u8,
        k: u8,
        n: u8,
    },
    /// `for i in 0..n { x = scratch[(k - i) << 30]; v = x + v }`: the
    /// address goes negative, a bad address, once `i > k`.
    LoadFault {
        v: u8,
        k: u8,
        n: u8,
    },
}

/// Whether generated programs may fault: the oracle's programs do, the
/// run-to-completion ones must not.
#[derive(Copy, Clone)]
enum Faults {
    Never,
    Guarded,
}

fn random_leaf(rng: &mut SmallRng, faults: Faults) -> Stmt {
    let kinds = match faults {
        Faults::Never => 4,
        Faults::Guarded => 6,
    };
    let mut small = |n: u32| rng.gen_range(0u32..n) as u8;
    match small(kinds) {
        0 => Stmt::Arith(small(8), small(8)),
        1 => Stmt::LoadStore(small(16)),
        2 => Stmt::Rand(small(8)),
        3 => Stmt::CallHelper(small(4)),
        4 => Stmt::DivFault {
            v: small(8),
            k: small(12),
            n: 1 + small(5),
        },
        _ => Stmt::LoadFault {
            v: small(8),
            k: small(12),
            n: 1 + small(5),
        },
    }
}

/// Samples one statement: at depth 0 only leaves; otherwise leaves with
/// weight 4 against if/if-else/for with weight 1 each.
fn random_stmt(rng: &mut SmallRng, depth: u32, faults: Faults) -> Stmt {
    if depth == 0 {
        return random_leaf(rng, faults);
    }
    match rng.gen_range(0u32..7) {
        0..=3 => random_leaf(rng, faults),
        4 => {
            let c = rng.gen_range(0u32..8) as u8;
            let body = random_stmts(rng, depth - 1, 4, faults);
            Stmt::IfThen(c, body)
        }
        5 => {
            let c = rng.gen_range(0u32..8) as u8;
            let a = random_stmts(rng, depth - 1, 3, faults);
            let b = random_stmts(rng, depth - 1, 3, faults);
            Stmt::IfElse(c, a, b)
        }
        _ => {
            let n = rng.gen_range(1u32..6) as u8;
            let body = random_stmts(rng, depth - 1, 3, faults);
            Stmt::ForLoop(n, body)
        }
    }
}

fn random_stmts(rng: &mut SmallRng, depth: u32, max_len: usize, faults: Faults) -> Vec<Stmt> {
    let len = rng.gen_range(0usize..max_len);
    (0..len).map(|_| random_stmt(rng, depth, faults)).collect()
}

/// Samples 1..max_routines routine bodies of 0..max_stmts statements.
fn random_bodies(
    rng: &mut SmallRng,
    depth: u32,
    max_routines: usize,
    max_stmts: usize,
    faults: Faults,
) -> Vec<Vec<Stmt>> {
    let routines = rng.gen_range(1usize..max_routines);
    (0..routines)
        .map(|_| random_stmts(rng, depth, max_stmts, faults))
        .collect()
}

/// Emits a statement list into a routine body. `scratch` is a base
/// register holding the address of a scratch buffer; `vals` is a small
/// pool of value registers the statements mix.
fn emit(
    f: &mut FnBuilder,
    stmts: &[Stmt],
    scratch: drms_vm::Reg,
    vals: &[drms_vm::Reg],
    helpers: &[drms_trace::RoutineId],
) {
    for stmt in stmts {
        match stmt {
            Stmt::Arith(a, b) => {
                let ra = vals[*a as usize % vals.len()];
                let rb = vals[*b as usize % vals.len()];
                let sum = f.add(ra, rb);
                let clipped = f.rem(sum, 10007);
                f.assign(ra, clipped);
            }
            Stmt::LoadStore(slot) => {
                let off = (*slot % 16) as i64;
                let v = f.load(scratch, off);
                let v2 = f.add(v, 1);
                f.store(scratch, off, v2);
            }
            Stmt::IfThen(c, body) => {
                let rc = vals[*c as usize % vals.len()];
                let cond = f.gt(rc, 3);
                f.if_then(cond, |f| emit(f, body, scratch, vals, helpers));
            }
            Stmt::IfElse(c, a, b) => {
                let rc = vals[*c as usize % vals.len()];
                let cond = f.lt(rc, 100);
                f.if_else(
                    cond,
                    |f| emit(f, a, scratch, vals, helpers),
                    |f| emit(f, b, scratch, vals, helpers),
                );
            }
            Stmt::ForLoop(n, body) => {
                f.for_range(0, *n as i64, |f, _| emit(f, body, scratch, vals, helpers));
            }
            Stmt::Rand(v) => {
                let rv = vals[*v as usize % vals.len()];
                let r = f.rand(97);
                f.assign(rv, r);
            }
            Stmt::CallHelper(h) => {
                let helper = helpers[*h as usize % helpers.len()];
                f.call_void(helper, &[Operand::Reg(scratch)]);
            }
            Stmt::DivFault { v, k, n } => {
                let rv = vals[*v as usize % vals.len()];
                f.for_range(0, *n as i64, |f, i| {
                    let d = f.sub(i, *k as i64);
                    let q = f.div(97, d);
                    f.assign(rv, q);
                    let s = f.add(rv, 1);
                    f.assign(rv, s);
                });
            }
            Stmt::LoadFault { v, k, n } => {
                let rv = vals[*v as usize % vals.len()];
                f.for_range(0, *n as i64, |f, i| {
                    let back = f.sub(*k as i64, i);
                    let off = f.mul(back, 1 << 30);
                    let x = f.load(scratch, off);
                    let s = f.add(x, rv);
                    f.assign(rv, s);
                });
            }
        }
    }
}

/// How `main` runs the generated routines.
#[derive(Copy, Clone)]
enum Shape {
    /// One thread calling each routine in turn.
    Calls,
    /// One spawned thread per routine, all sharing the scratch buffer,
    /// then joined.
    Threads,
}

fn build_program(bodies: &[Vec<Stmt>], shape: Shape) -> Program {
    let mut pb = ProgramBuilder::new();
    // A few helpers that touch the scratch buffer in different ways.
    let helpers: Vec<drms_trace::RoutineId> = (0..4)
        .map(|i| {
            pb.function(&format!("helper_{i}"), 1, |f| {
                let base = f.param(0);
                let v = f.load(base, i);
                let w = f.add(v, i as i64 + 1);
                f.store(base, i, w);
                f.ret(None);
            })
        })
        .collect();
    let routines: Vec<drms_trace::RoutineId> = bodies
        .iter()
        .enumerate()
        .map(|(i, body)| {
            let body = body.clone();
            let helpers = helpers.clone();
            pb.function(&format!("gen_{i}"), 1, move |f| {
                let scratch = f.param(0);
                let vals: Vec<drms_vm::Reg> = (0..4).map(|k| f.copy(k as i64 + 1)).collect();
                emit(f, &body, scratch, &vals, &helpers);
                f.ret(None);
            })
        })
        .collect();
    let main = pb.function("main", 0, |f| {
        let scratch = f.alloc(16);
        match shape {
            Shape::Calls => {
                for &r in &routines {
                    f.call_void(r, &[Operand::Reg(scratch)]);
                }
            }
            Shape::Threads => {
                let tids: Vec<_> = routines
                    .iter()
                    .map(|&r| f.spawn(r, &[Operand::Reg(scratch)]))
                    .collect();
                for t in tids {
                    f.join(t);
                }
            }
        }
        f.ret(None);
    });
    pb.finish(main).expect("generated programs always validate")
}

fn config() -> RunConfig {
    RunConfig {
        max_instructions: 2_000_000,
        ..RunConfig::default()
    }
}

#[test]
fn generated_programs_run_to_completion() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xF022 ^ case);
        let bodies = random_bodies(&mut rng, 2, 4, 10, Faults::Never);
        let program = build_program(&bodies, Shape::Calls);
        assert!(program.validate().is_ok(), "case {case}");
        let stats = run_program(&program, config(), &mut NullTool)
            .unwrap_or_else(|e| panic!("generated programs terminate (case {case}): {e}"));
        assert!(stats.basic_blocks >= 1, "case {case}");
        assert_eq!(stats.threads, 1, "case {case}");
    }
}

#[test]
fn generated_programs_are_deterministic() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xDE7 ^ case);
        let bodies = random_bodies(&mut rng, 2, 3, 8, Faults::Never);
        let program = build_program(&bodies, Shape::Calls);
        let run = || {
            let mut rec = TraceRecorder::new();
            run_program(&program, config(), &mut rec).expect("run");
            drms_trace::merge_traces(rec.into_traces())
        };
        assert_eq!(run(), run(), "case {case}");
    }
}

#[test]
fn generated_listings_disassemble() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xD15A ^ case);
        let bodies = random_bodies(&mut rng, 1, 3, 6, Faults::Never);
        let program = build_program(&bodies, Shape::Calls);
        let text = drms_vm::disassemble(&program);
        assert!(text.contains("routine @"), "case {case}");
        // Every routine name appears in the listing.
        for r in program.routines() {
            assert!(text.contains(&r.name), "case {case}: missing {}", r.name);
        }
    }
}

/// Everything one run exposes that the decoded stepper must reproduce.
struct Outcome {
    result: Result<RunStats, RunError>,
    stats: RunStats,
    metrics: String,
    trace: Vec<TimedEvent>,
    schedule: Option<Schedule>,
}

fn observe(program: &Program, cfg: &RunConfig, decode: DecodeMode, batch: usize) -> Outcome {
    let cfg = RunConfig {
        decode,
        event_batch: batch,
        ..cfg.clone()
    };
    let mut vm = Vm::new(program, cfg).expect("generated programs validate");
    let mut rec = TraceRecorder::new();
    let result = vm.run(&mut rec);
    Outcome {
        result,
        stats: vm.stats().clone(),
        metrics: vm.metrics().to_json(),
        trace: merge_traces(rec.into_traces()),
        schedule: vm.take_recorded_schedule(),
    }
}

/// Runs `program` under the reference stepper (`Off`, batch 1) and the
/// decoded stepper (batches 1 and 512) and requires identical outcomes.
/// Returns the reference outcome.
fn assert_decoded_matches_reference(program: &Program, cfg: &RunConfig, tag: &str) -> Outcome {
    let want = observe(program, cfg, DecodeMode::Off, 1);
    for batch in [1, 512] {
        let got = observe(program, cfg, DecodeMode::Fused, batch);
        let tag = format!("{tag}, decoded batch {batch}");
        assert_eq!(got.result, want.result, "{tag}: result");
        assert_eq!(got.stats, want.stats, "{tag}: run stats");
        assert_eq!(got.metrics, want.metrics, "{tag}: metrics");
        assert!(
            got.trace == want.trace,
            "{tag}: traces differ ({} vs {} events, first difference at {:?})",
            got.trace.len(),
            want.trace.len(),
            got.trace.iter().zip(&want.trace).position(|(a, b)| a != b)
        );
        assert_eq!(got.schedule, want.schedule, "{tag}: recorded schedule");
    }
    want
}

/// Round-robin at quantum 3 and chaos, × both cost models, × block
/// tracing off and on; schedules are always recorded.
fn oracle_configs() -> Vec<(String, RunConfig)> {
    let mut out = Vec::new();
    for policy in [SchedPolicy::RoundRobin, SchedPolicy::Chaos { seed: 0x0AC1 }] {
        for cost in [CostKind::BasicBlocks, CostKind::SimNanos { jitter_seed: 9 }] {
            for trace_blocks in [false, true] {
                let cfg = RunConfig {
                    policy,
                    quantum: 3,
                    cost,
                    trace_blocks,
                    record_sched: true,
                    ..config()
                };
                out.push((
                    format!("{policy:?}/{cost:?}/trace_blocks={trace_blocks}"),
                    cfg,
                ));
            }
        }
    }
    out
}

#[test]
fn decoded_dispatch_matches_the_reference_stepper_under_every_budget() {
    let configs = oracle_configs();
    let (mut faulted, mut completed) = (0, 0);
    for case in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(0x0AC1E ^ case);
        let bodies = random_bodies(&mut rng, 2, 4, 8, Faults::Guarded);
        let shape = if case % 2 == 0 {
            Shape::Calls
        } else {
            Shape::Threads
        };
        let program = build_program(&bodies, shape);
        for (i, (label, cfg)) in configs.iter().enumerate() {
            let tag = format!("case {case}, {label}");
            let reference = assert_decoded_matches_reference(&program, cfg, &tag);
            match reference.result {
                Ok(_) => completed += 1,
                Err(_) => faulted += 1,
            }
            // Watchdog sweep under every other configuration: the limit
            // lands on each half of every fused pair and on chained
            // terminators, near the start and near the end of the run.
            if i % 2 != case as usize % 2 {
                continue;
            }
            let n = reference.stats.instructions;
            let mut limits: Vec<u64> = (1..=64).chain(n.saturating_sub(64)..=n).collect();
            limits.sort_unstable();
            limits.dedup();
            for limit in limits {
                let cfg = RunConfig {
                    max_instructions: limit,
                    ..cfg.clone()
                };
                assert_decoded_matches_reference(&program, &cfg, &format!("{tag}, limit {limit}"));
            }
        }
    }
    assert!(
        faulted > 0 && completed > 0,
        "the generator reaches both outcomes: {faulted} faulted, {completed} completed"
    );
}
