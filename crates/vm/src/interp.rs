//! The guest interpreter: a serializing multi-threaded virtual machine.
//!
//! Like Valgrind, the VM executes one guest thread at a time; a scheduling
//! policy hands out quanta (measured in basic blocks) to runnable threads.
//! Every observable operation — call, return, memory access, kernel
//! transfer, synchronization, thread switch — is delivered to the attached
//! [`Tool`] in a single total order, which is exactly the merged trace the
//! paper's profiling algorithm consumes.

use crate::decode::{DecodedOp, DecodedProgram};
use crate::ir::{BinOp, Inst, Operand, Program, Reg, Terminator, ValidateError};
use crate::kernel::{Direction, Kernel, KernelError, Syscall};
use crate::memory::Memory;
use crate::rng::SmallRng;
use crate::sched::{Scheduler, StepKind, SLICE_STEP_BOUNDS};
use crate::shadow::ADDRESS_LIMIT;
use crate::stats::{CostKind, DecodeMode, EventCounters, RunConfig, RunStats, SchedPolicy};
use drms_trace::sched::PreemptCause;
use drms_trace::{
    Addr, BatchKind, BlockId, EventBatch, Histogram, Metrics, RoutineId, Schedule, SyncOp,
    ThreadId, Tool,
};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// The resource a blocked thread is waiting on — one node of the
/// wait-graph reported by [`RunError::Deadlock`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WaitTarget {
    /// Waiting for a semaphore to be signalled.
    Semaphore(u32),
    /// Waiting to acquire a mutex, held by `owner` (if anyone).
    Mutex { mutex: u32, owner: Option<ThreadId> },
    /// Waiting on a condition variable.
    Condvar(u32),
    /// Waiting for the given thread to exit.
    Join(ThreadId),
}

impl fmt::Display for WaitTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitTarget::Semaphore(s) => write!(f, "semaphore {s}"),
            WaitTarget::Mutex {
                mutex,
                owner: Some(o),
            } => write!(f, "mutex {mutex} (held by {o})"),
            WaitTarget::Mutex { mutex, owner: None } => write!(f, "mutex {mutex} (unowned)"),
            WaitTarget::Condvar(c) => write!(f, "condvar {c}"),
            WaitTarget::Join(t) => write!(f, "join of {t}"),
        }
    }
}

/// One entry of the deadlock wait-graph: a thread and the resource it
/// is blocked on.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BlockedThread {
    /// The blocked thread.
    pub thread: ThreadId,
    /// What it is waiting on.
    pub waiting_on: WaitTarget,
}

impl fmt::Display for BlockedThread {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} waiting on {}", self.thread, self.waiting_on)
    }
}

/// Errors aborting a guest execution.
///
/// Kernel I/O failures are *not* run errors: the VM delivers them to
/// the guest as negative errno values, like real syscalls (see
/// [`KernelError::errno`]). When [`Vm::run`] does return an error, the
/// statistics gathered so far remain available via [`Vm::stats`] and
/// the attached tool's `on_finish` hook has run, so partial profiles
/// survive the abort.
#[derive(Clone, Debug, PartialEq)]
pub enum RunError {
    /// The program failed structural validation.
    Validate(ValidateError),
    /// All live threads are blocked; `blocked` is the per-thread
    /// wait-graph naming the resource each one waits on.
    Deadlock { blocked: Vec<BlockedThread> },
    /// The watchdog instruction budget was exhausted.
    InstructionLimit { limit: u64 },
    /// The wall-clock deadline ([`RunConfig::deadline`]) was exceeded.
    /// Carries the configured budget in milliseconds — never the
    /// elapsed time — so the abort message is deterministic.
    DeadlineExceeded { millis: u64 },
    /// Integer division or remainder by zero.
    DivisionByZero { routine: RoutineId },
    /// A memory access targeted a non-positive or out-of-range address.
    BadAddress { value: i64 },
    /// A thread's frame stack was empty where a live frame was
    /// required — a malformed guest program, reported instead of
    /// panicking.
    CorruptStack { thread: ThreadId },
    /// A thread unlocked (or cond-waited on) a mutex it does not hold.
    MutexNotOwned { mutex: u32, thread: ThreadId },
    /// A thread re-locked a mutex it already holds.
    MutexReentry { mutex: u32, thread: ThreadId },
    /// `Join` on a value that is not a thread id.
    BadThreadId { value: i64 },
    /// The policy is [`SchedPolicy::Replay`] but
    /// [`RunConfig::replay`] holds no schedule.
    ScheduleMissing,
    /// A strict replay could not honor the recorded schedule: the guest
    /// behaved differently from the recording run (e.g. a different
    /// program, config, or fault plan was supplied).
    ScheduleDiverged {
        /// Index of the recorded decision that could not be honored.
        slice: usize,
        /// What differed.
        reason: String,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Validate(e) => write!(f, "invalid program: {e}"),
            RunError::Deadlock { blocked } => {
                write!(f, "deadlock: {} thread(s) blocked forever", blocked.len())?;
                for (i, b) in blocked.iter().enumerate() {
                    write!(f, "{} {b}", if i == 0 { ":" } else { ";" })?;
                }
                Ok(())
            }
            RunError::InstructionLimit { limit } => {
                write!(f, "instruction budget of {limit} exhausted")
            }
            RunError::DeadlineExceeded { millis } => {
                write!(f, "wall-clock deadline of {millis} ms exceeded")
            }
            RunError::DivisionByZero { routine } => {
                write!(f, "division by zero in routine {routine}")
            }
            RunError::BadAddress { value } => write!(f, "bad memory address {value}"),
            RunError::CorruptStack { thread } => {
                write!(f, "{thread} has no live frame (corrupt guest stack)")
            }
            RunError::MutexNotOwned { mutex, thread } => {
                write!(f, "{thread} released mutex {mutex} it does not hold")
            }
            RunError::MutexReentry { mutex, thread } => {
                write!(f, "{thread} re-locked mutex {mutex} it already holds")
            }
            RunError::BadThreadId { value } => write!(f, "bad thread id {value}"),
            RunError::ScheduleMissing => {
                write!(f, "replay policy selected but no schedule was provided")
            }
            RunError::ScheduleDiverged { slice, reason } => {
                write!(f, "replay diverged at schedule slice {slice}: {reason}")
            }
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Validate(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ValidateError> for RunError {
    fn from(e: ValidateError) -> Self {
        RunError::Validate(e)
    }
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum ThreadState {
    Runnable,
    Blocked,
    Exited,
}

#[derive(Debug)]
struct Frame {
    routine: RoutineId,
    block: usize,
    ip: usize,
    regs: Vec<i64>,
    ret_dst: Option<Reg>,
    /// The frame was created but its entry block not yet entered/counted.
    pending_entry: bool,
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Resume {
    /// Woken from a condition wait; must re-acquire this mutex.
    ReacquireMutex(u32),
}

struct ThreadCtx {
    id: ThreadId,
    frames: Vec<Frame>,
    state: ThreadState,
    blocks: u64,
    nanos: u64,
    rng: SmallRng,
    jitter: SmallRng,
    resume: Option<Resume>,
    join_waiters: Vec<usize>,
    /// Set while `state == Blocked`: the wait-graph edge for deadlock
    /// diagnostics.
    waiting_on: Option<WaitTarget>,
}

struct Semaphore {
    value: i64,
    waiters: VecDeque<usize>,
}

struct Mutex {
    owner: Option<usize>,
    waiters: VecDeque<usize>,
}

#[derive(Default)]
struct Cond {
    waiters: VecDeque<usize>,
}

enum Step {
    /// Instruction executed, same basic block.
    Continue,
    /// Control entered a (new) basic block.
    BlockEntered,
    /// A synchronization operation completed without blocking — a
    /// potential chaos preemption point.
    Synced,
    /// A kernel transfer (syscall) executed — a potential chaos
    /// preemption point.
    Kernel,
    /// The thread blocked; the instruction will re-execute on wake.
    Blocked,
    /// The thread voluntarily ended its quantum.
    Yielded,
    /// The thread exited.
    Exited,
}

impl Step {
    fn kind(&self) -> StepKind {
        match self {
            Step::BlockEntered => StepKind::Block,
            Step::Synced => StepKind::Sync,
            Step::Kernel => StepKind::Kernel,
            Step::Continue | Step::Blocked | Step::Yielded | Step::Exited => StepKind::Plain,
        }
    }
}

/// A guest virtual machine ready to execute one program.
///
/// # Example
/// ```
/// use drms_vm::{ProgramBuilder, Vm, RunConfig, NullTool};
///
/// let mut pb = ProgramBuilder::new();
/// let main = pb.declare("main", 0);
/// pb.define(main, |f| { let _ = f.add(1, 2); f.ret(None); });
/// let program = pb.finish(main).unwrap();
/// let mut vm = Vm::new(&program, RunConfig::default()).unwrap();
/// let stats = vm.run(&mut NullTool::default()).unwrap();
/// assert!(stats.basic_blocks >= 1);
/// ```
pub struct Vm<'p> {
    program: &'p Program,
    /// Pre-decoded image of `program`, present whenever
    /// `config.decode != DecodeMode::Off`. Behind an [`Arc`] so the
    /// sweep shares one decode across grid cells and so the dispatch
    /// loop can untie the decoded-op borrow from `&mut self`.
    decoded: Option<Arc<DecodedProgram>>,
    /// Buffered read/write events awaiting delivery via
    /// [`Tool::observe_batch`]. Always flushed before any other tool
    /// callback, so delivery order matches per-event dispatch exactly.
    batch: EventBatch,
    config: RunConfig,
    mem: Memory,
    kernel: Kernel,
    threads: Vec<ThreadCtx>,
    sems: Vec<Semaphore>,
    mutexes: Vec<Mutex>,
    conds: Vec<Cond>,
    stats: RunStats,
    sched: Scheduler,
    /// Reusable staging buffer for syscall transfers: kernel data on its
    /// way into guest memory (input) or the loaded user buffer on its way
    /// to a device (output). Cleared before each use, so steady-state
    /// transfers allocate nothing.
    scratch: Vec<i64>,
    /// Reusable buffer for evaluating call/spawn arguments, so argument
    /// passing allocates nothing in steady state.
    call_scratch: Vec<i64>,
    /// Recycled call frames: a `Ret` parks its popped frame here and the
    /// next `Call` reuses it (register vector capacity included), so a
    /// call/return cycle at steady depth performs no heap traffic.
    frame_pool: Vec<Frame>,
    /// Per-transfer cell counts bucketed by [`TRANSFER_CELL_BOUNDS`]
    /// (last slot is the overflow bucket) plus their running sum —
    /// the raw data of the `kernel.transfer.cells` histogram.
    transfer_buckets: [u64; 8],
    transfer_cells_sum: u64,
}

/// Histogram bucket bounds for cells moved per completed kernel
/// transfer (`kernel.transfer.cells` in the metrics registry).
pub const TRANSFER_CELL_BOUNDS: [u64; 7] = [1, 4, 16, 64, 256, 1024, 4096];

impl<'p> Vm<'p> {
    /// Creates a VM for `program` under `config`, validating the program
    /// and loading its globals.
    ///
    /// # Errors
    /// Returns [`RunError::Validate`] if the program is malformed.
    pub fn new(program: &'p Program, config: RunConfig) -> Result<Self, RunError> {
        Self::build(program, config, None)
    }

    /// Like [`Vm::new`], but reuses a shared pre-decoded image instead
    /// of decoding again — the sweep decodes each `(family, size)`
    /// program once and hands the [`Arc`] to every attempt/run of that
    /// cell. Ignored (the reference interpreter runs) when
    /// `config.decode` is [`DecodeMode::Off`].
    ///
    /// # Panics
    /// Panics if `decoded` does not structurally match `program` — a
    /// harness bug, not a guest error.
    ///
    /// # Errors
    /// Returns [`RunError::Validate`] if the program is malformed.
    pub fn with_decoded(
        program: &'p Program,
        config: RunConfig,
        decoded: Arc<DecodedProgram>,
    ) -> Result<Self, RunError> {
        assert!(
            decoded.matches(program),
            "shared DecodedProgram does not match the program being run"
        );
        Self::build(program, config, Some(decoded))
    }

    fn build(
        program: &'p Program,
        config: RunConfig,
        shared: Option<Arc<DecodedProgram>>,
    ) -> Result<Self, RunError> {
        program.validate()?;
        let decoded = match config.decode {
            DecodeMode::Off => None,
            mode => Some(shared.unwrap_or_else(|| DecodedProgram::decode(program, mode))),
        };
        let batch = EventBatch::with_capacity(config.event_batch);
        let mut mem = Memory::new(program.heap_base());
        for (base, data) in program.globals() {
            mem.store_slice(*base, data);
        }
        let mut kernel = Kernel::with_devices(config.devices.clone());
        if let Some(plan) = &config.faults {
            kernel.set_fault_plan(plan.clone());
        }
        let sems = program
            .semaphores()
            .iter()
            .map(|&v| Semaphore {
                value: v,
                waiters: VecDeque::new(),
            })
            .collect();
        let mutexes = (0..program.mutex_count())
            .map(|_| Mutex {
                owner: None,
                waiters: VecDeque::new(),
            })
            .collect();
        let conds = (0..program.cond_count()).map(|_| Cond::default()).collect();
        let sched = Scheduler::new(&config)?;
        Ok(Vm {
            program,
            decoded,
            batch,
            config,
            mem,
            kernel,
            threads: Vec::new(),
            sems,
            mutexes,
            conds,
            stats: RunStats::default(),
            sched,
            scratch: Vec::new(),
            call_scratch: Vec::new(),
            frame_pool: Vec::new(),
            transfer_buckets: [0; 8],
            transfer_cells_sum: 0,
        })
    }

    /// Direct access to guest memory (for harnesses inspecting results).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// The pre-decoded image this VM dispatches from, when decoding is
    /// on. Clone the [`Arc`] to share it with further VMs over the same
    /// program ([`Vm::with_decoded`]).
    pub fn decoded(&self) -> Option<&Arc<DecodedProgram>> {
        self.decoded.as_ref()
    }

    /// Replaces the internal event batch with `batch` — cleared and
    /// grown to the configured capacity — so a sweep worker reuses one
    /// allocation across every run it executes. Recover the buffer
    /// afterwards with [`Vm::take_batch`]; its
    /// [`allocations`](EventBatch::allocations) counter survives the
    /// round-trip, which is how the reuse test proves no per-cell
    /// reallocation happens.
    pub fn install_batch(&mut self, mut batch: EventBatch) {
        batch.clear();
        batch.ensure_capacity(self.config.event_batch);
        self.batch = batch;
    }

    /// Takes the event batch back out of the VM (leaving a minimal
    /// replacement), for reuse by the next run.
    pub fn take_batch(&mut self) -> EventBatch {
        std::mem::take(&mut self.batch)
    }

    /// Direct access to the kernel (device counters etc.).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Statistics gathered so far. After [`Vm::run`] returns — even
    /// with an error — these are finalized, so aborted runs still
    /// expose instruction, block and fault counts.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Folds the run's execution counters into a fresh observability
    /// registry: event tallies by kind, per-thread block and cost
    /// counts, scheduler slices by preemption cause, kernel transfer
    /// traffic, and fault-injection counters. Deterministic — no
    /// wall-clock, no addresses — so the same program + seed + schedule
    /// yields a byte-identical [`Metrics::to_json`].
    ///
    /// Call after [`Vm::run`]; mid-run the registry reflects progress
    /// so far (the hot loop only bumps plain integer fields, the
    /// registry is built here). [`Metrics::audit`] passes on the
    /// result by construction unless the VM's own accounting is buggy
    /// — which is exactly what the audit exists to catch.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::new();
        m.add("vm.instructions", self.stats.instructions);
        m.add("vm.basic_blocks", self.stats.basic_blocks);
        m.add("vm.thread_switches", self.stats.thread_switches);
        m.add("vm.syscalls", self.stats.syscalls);
        m.add("vm.events.total", self.stats.events);
        for (kind, count) in self.stats.events_by_kind.by_kind() {
            m.add(format!("vm.events.{kind}"), count);
        }
        let mut cost_total = 0;
        for (t, &blocks) in self.stats.per_thread_blocks.iter().enumerate() {
            m.add(format!("vm.blocks.thread.{t}"), blocks);
            let cost = self.stats.thread_cost(t, self.config.cost);
            m.add(format!("vm.cost.thread.{t}"), cost);
            cost_total += cost;
        }
        m.add("vm.cost.total", cost_total);
        m.set_gauge("vm.threads", u64::from(self.stats.threads));
        m.set_gauge("vm.guest_pages", self.stats.guest_pages);
        m.set_gauge("vm.guest_bytes", self.stats.guest_bytes);

        let sc = self.sched.counters();
        m.add("sched.slices", sc.slices);
        for cause in PreemptCause::ALL {
            m.add(
                format!("sched.preempt.{}", cause.metric_name()),
                sc.by_cause[cause.index()],
            );
        }
        let mut steps = Histogram::new(&SLICE_STEP_BOUNDS);
        steps.counts = sc.step_buckets.to_vec();
        steps.total = sc.slices;
        steps.sum = sc.step_sum;
        m.merge_histogram("sched.slice.steps", &steps)
            .expect("one bucket layout per histogram name");

        let tc = self.kernel.transfer_counters();
        m.add("kernel.transfers", tc.transfers);
        m.add("kernel.cells_in", tc.cells_in);
        m.add("kernel.cells_out", tc.cells_out);
        let mut cells = Histogram::new(&TRANSFER_CELL_BOUNDS);
        cells.counts = self.transfer_buckets.to_vec();
        cells.total = self.transfer_buckets.iter().sum();
        cells.sum = self.transfer_cells_sum;
        m.merge_histogram("kernel.transfer.cells", &cells)
            .expect("one bucket layout per histogram name");

        let f = self.kernel.fault_counters();
        m.add("faults.short_reads", f.short_reads);
        m.add("faults.short_writes", f.short_writes);
        m.add("faults.transient_errors", f.transient_errors);
        m.add("faults.device_failures", f.device_failures);
        m.add("faults.errno_returns", f.errno_returns);
        m
    }

    /// Runs the program to completion, delivering all instrumentation
    /// events to `tool`, and returns execution statistics.
    ///
    /// The generic parameter lets a statically-known no-op tool compile to
    /// an essentially uninstrumented ("native") run, while `&mut dyn Tool`
    /// models a dynamically dispatched tool plugin.
    ///
    /// The run degrades gracefully on failure: whatever the outcome,
    /// statistics are finalized (available via [`Vm::stats`]) and the
    /// tool's `on_finish` hook runs, so a profiler attached to an
    /// aborted guest still holds a valid partial profile.
    ///
    /// # Errors
    /// Any [`RunError`] raised by the guest (deadlock, bad address,
    /// watchdog budget, corrupt stack, …). Kernel I/O failures are not
    /// errors here; they surface inside the guest as negative errno
    /// register values.
    pub fn run<T: Tool + ?Sized>(&mut self, tool: &mut T) -> Result<RunStats, RunError> {
        let started = std::time::Instant::now();
        let result = self.run_inner(tool, started);
        if result.is_err() {
            // Flush the in-progress slice so a recorded failing run
            // replays to the same failure point.
            self.sched.abort_slice();
        }
        // Deliver any reads/writes buffered up to an abort before the
        // tool finalizes — partial profiles must see the full stream.
        self.flush_batch(tool);
        self.stats.guest_pages = self.mem.page_count() as u64;
        self.stats.guest_bytes = self.mem.backing_bytes();
        self.stats.threads = self.threads.len() as u32;
        self.stats.per_thread_blocks = self.threads.iter().map(|t| t.blocks).collect();
        self.stats.per_thread_nanos = self.threads.iter().map(|t| t.nanos).collect();
        self.stats.basic_blocks = self.stats.per_thread_blocks.iter().sum();
        self.stats.faults = self.kernel.fault_counters();
        // `events` is derived, not counted: every emission site bumps
        // exactly one (or, for spawn, two) of the per-kind counters, so
        // the total is their sum — one fewer read-modify-write per event
        // on the hot path.
        self.stats.events = self.stats.events_by_kind.total();
        tool.on_finish();
        result.map(|()| self.stats.clone())
    }

    /// The scheduler loop. The stepper is picked once per run: the
    /// decoded image when there is one, where each step the scheduler
    /// sees may stand for a whole run of plain instructions executed by
    /// [`Vm::step_decoded`] (bulk-accounted via `note_plain_steps`,
    /// which is sound because a plain step can never preempt on its
    /// own); otherwise the reference [`Vm::step`]. Schedule replay always
    /// takes the reference stepper: a recorded slice can end after any
    /// step count, including between the two halves of a fused op, and
    /// only the reference stepper stops there.
    fn run_inner<T: Tool + ?Sized>(
        &mut self,
        tool: &mut T,
        started: std::time::Instant,
    ) -> Result<(), RunError> {
        let decoded = match self.config.policy {
            SchedPolicy::Replay { .. } => None,
            _ => self.decoded.clone(),
        };
        let sim = matches!(self.config.cost, CostKind::SimNanos { .. });
        self.spawn_thread(self.program.main(), Vec::new(), None, tool);
        let mut current: Option<usize> = None;
        let mut runnable: Vec<bool> = Vec::new();
        loop {
            // Wall-clock watchdog: checked once per slice so the hot
            // instruction loop never reads the clock. A slice is bounded
            // by the quantum, which bounds how late the abort can fire.
            if let Some(deadline) = self.config.deadline {
                if started.elapsed() >= deadline {
                    return Err(RunError::DeadlineExceeded {
                        millis: deadline.as_millis() as u64,
                    });
                }
            }
            runnable.clear();
            runnable.extend(
                self.threads
                    .iter()
                    .map(|t| t.state == ThreadState::Runnable),
            );
            let Some(next) = self.sched.pick(&runnable)? else {
                if self.threads.iter().all(|t| t.state == ThreadState::Exited) {
                    return Ok(());
                }
                return Err(RunError::Deadlock {
                    blocked: self.wait_graph(),
                });
            };
            if current != Some(next) {
                if current.is_some() {
                    self.stats.thread_switches += 1;
                }
                self.stats.events_by_kind.thread_switch += 1;
                self.flush_batch(tool);
                tool.on_thread_switch(current.map(|i| self.threads[i].id), self.threads[next].id);
                current = Some(next);
            }
            self.sched.begin_slice(next);
            loop {
                // The reference stepper checks the instruction budget
                // before every instruction, the decoded one before every
                // block it runs, falling back to the reference for a
                // block the budget does not cover.
                let step = match &decoded {
                    Some(d) if sim => self.step_decoded::<T, true>(next, d, tool)?,
                    Some(d) => self.step_decoded::<T, false>(next, d, tool)?,
                    None => self.step(next, tool)?,
                };
                let forced = self.sched.note_step(step.kind());
                // Natural slice ends take precedence over any forced
                // preemption landing on the same step.
                match step {
                    Step::Blocked => {
                        self.sched.end_slice(PreemptCause::Block)?;
                        break;
                    }
                    Step::Yielded => {
                        self.sched.end_slice(PreemptCause::Yield)?;
                        break;
                    }
                    Step::Exited => {
                        self.sched.end_slice(PreemptCause::Exit)?;
                        break;
                    }
                    Step::Continue | Step::BlockEntered | Step::Synced | Step::Kernel => {
                        if let Some(cause) = forced {
                            self.sched.end_slice(cause)?;
                            break;
                        }
                    }
                }
            }
        }
    }

    /// Runs thread `t` on the decoded image, a block at a time, until a
    /// step the reference stepper must take, then takes that one step
    /// through [`Vm::step`] and returns it.
    ///
    /// Bookkeeping happens at block boundaries only. On entering or
    /// resuming a block the loop checks once that the instruction
    /// budget covers the rest of it, terminator included; the ops then
    /// run without per-op checks or counters. A slot stands for one
    /// source instruction, so instruction, plain-step and block-step
    /// counts are slot distances, added when the loop leaves: at a slow
    /// op, at the quantum's final block step, at a block the budget does
    /// not cover (the reference stepper then runs it one checked
    /// instruction at a time, so the watchdog fires exactly where it
    /// would), or at a guest error, whose failing instruction is counted
    /// but not stepped, like the reference. `SIM` selects the
    /// [`CostKind::SimNanos`] jitter model at compile time.
    fn step_decoded<T: Tool + ?Sized, const SIM: bool>(
        &mut self,
        t: usize,
        decoded: &DecodedProgram,
        tool: &mut T,
    ) -> Result<Step, RunError> {
        if self.stats.instructions >= self.config.max_instructions {
            return Err(RunError::InstructionLimit {
                limit: self.config.max_instructions,
            });
        }
        let (pending, routine_id, block_idx, ip) = {
            let frame = self.frame(t)?;
            (frame.pending_entry, frame.routine, frame.block, frame.ip)
        };
        if pending {
            self.enter_block(t, block_idx, tool)?;
            return Ok(Step::BlockEntered);
        }
        let (ops, starts) = decoded.code(routine_id);
        // A block's slot `ip` is source instruction `ip`; a slow one goes
        // straight to the reference stepper.
        let mut k = starts[block_idx] as usize + ip;
        if matches!(ops[k], DecodedOp::Slow) {
            return self.step(t, tool);
        }

        let trace_blocks = self.config.trace_blocks;
        // Jump/Branch terminators are chained inline while the slice has
        // block budget to spare; the slice's final block step always
        // goes through the reference stepper so quantum preemption
        // decisions stay with `note_step`.
        let chain_budget = self.sched.blocks_remaining();
        let budget_left = self.config.max_instructions - self.stats.instructions;
        // Split borrows: the loop touches disjoint parts of the VM
        // (registers, memory, stats, the event batch), hoisted out of
        // `&mut self` so the compiler keeps them in registers.
        let Vm {
            threads,
            mem,
            stats,
            batch,
            ..
        } = &mut *self;
        let ThreadCtx {
            id,
            frames,
            rng,
            jitter,
            nanos,
            blocks,
            ..
        } = &mut threads[t];
        let id = *id;
        let frame = frames
            .last_mut()
            .ok_or(RunError::CorruptStack { thread: id })?;
        if batch.is_empty() {
            // The batch can only be non-empty with this same thread:
            // any thread switch flushes before its switch event.
            batch.set_thread(id);
        }
        let regs = &mut frame.regs[..];
        let mut block = block_idx;
        // Instructions completed in this call, and the Jump/Branch
        // terminators among them (block steps); every other completed
        // instruction is a plain step.
        let mut done: u64 = 0;
        let mut chained: u32 = 0;
        // The slot the current block was entered or resumed at.
        let mut base;
        // Leaves with the slot to resume at, and the error if the
        // instruction there failed.
        let (stop, err) = 'blocks: loop {
            base = k;
            let end = starts[block + 1] as usize;
            if done + (end - base) as u64 > budget_left {
                break (base, None);
            }
            // The target block of a chained terminator.
            let target = loop {
                match ops[k] {
                    DecodedOp::Mov { dst, src } => {
                        regs[dst as usize] = regs[src as usize];
                        if SIM {
                            add_sim_nanos(jitter, nanos, 1);
                        }
                    }
                    DecodedOp::Bin { op, dst, a, b } => {
                        match op.apply(regs[a as usize], regs[b as usize]) {
                            Some(v) => regs[dst as usize] = v,
                            None => {
                                let e = RunError::DivisionByZero {
                                    routine: routine_id,
                                };
                                break 'blocks (k, Some(e));
                            }
                        }
                        if SIM {
                            add_sim_nanos(jitter, nanos, 1);
                        }
                    }
                    DecodedOp::Load { dst, base, offset } => {
                        let a = regs[base as usize].wrapping_add(regs[offset as usize]);
                        let counts = &mut stats.events_by_kind;
                        match buffer_access(a, BatchKind::Read, batch, counts, tool) {
                            Ok(addr) => regs[dst as usize] = mem.load(addr),
                            Err(e) => break 'blocks (k, Some(e)),
                        }
                        if SIM {
                            add_sim_nanos(jitter, nanos, 3);
                        }
                    }
                    DecodedOp::Store { base, offset, src } => {
                        let a = regs[base as usize].wrapping_add(regs[offset as usize]);
                        let counts = &mut stats.events_by_kind;
                        match buffer_access(a, BatchKind::Write, batch, counts, tool) {
                            Ok(addr) => mem.store(addr, regs[src as usize]),
                            Err(e) => break 'blocks (k, Some(e)),
                        }
                        if SIM {
                            add_sim_nanos(jitter, nanos, 3);
                        }
                    }
                    DecodedOp::Alloc { dst, cells } => {
                        let n = regs[cells as usize].max(0) as u64;
                        regs[dst as usize] = mem.alloc(n).raw() as i64;
                        if SIM {
                            add_sim_nanos(jitter, nanos, 4);
                        }
                    }
                    DecodedOp::Rand { dst, bound } => {
                        let b = regs[bound as usize].max(1);
                        regs[dst as usize] = rng.gen_range(0..b);
                        if SIM {
                            add_sim_nanos(jitter, nanos, 2);
                        }
                    }
                    DecodedOp::BinMov { op, t, a, b, v } => {
                        let x = fused_apply(op, regs[a as usize], regs[b as usize]);
                        regs[t as usize] = x;
                        regs[v as usize] = x;
                        if SIM {
                            add_sim_nanos(jitter, nanos, 1);
                            add_sim_nanos(jitter, nanos, 1);
                        }
                        // Skip the second half's own slot.
                        k += 1;
                    }
                    DecodedOp::BinBranch {
                        op,
                        dst,
                        a,
                        b,
                        then_block,
                        else_block,
                    } => {
                        let x = fused_apply(op, regs[a as usize], regs[b as usize]);
                        regs[dst as usize] = x;
                        if SIM {
                            add_sim_nanos(jitter, nanos, 1);
                        }
                        if chained + 1 >= chain_budget {
                            // The quantum's final block step: the compare
                            // ran here, the branch in the next slot goes
                            // through the reference stepper.
                            break 'blocks (k + 1, None);
                        }
                        break if x != 0 { then_block } else { else_block };
                    }
                    DecodedOp::Jump { target } => {
                        if chained + 1 >= chain_budget {
                            break 'blocks (k, None);
                        }
                        break target;
                    }
                    DecodedOp::Branch {
                        cond,
                        then_block,
                        else_block,
                    } => {
                        if chained + 1 >= chain_budget {
                            break 'blocks (k, None);
                        }
                        break if regs[cond as usize] != 0 {
                            then_block
                        } else {
                            else_block
                        };
                    }
                    DecodedOp::Slow => break 'blocks (k, None),
                }
                k += 1;
            };
            done += (end - base) as u64;
            chained += 1;
            if SIM {
                // Jump cost, then block-entry cost — the same two draws,
                // in the same order, as the reference path.
                add_sim_nanos(jitter, nanos, 1);
                add_sim_nanos(jitter, nanos, 2);
            }
            *blocks += 1;
            block = target as usize;
            k = starts[block] as usize;
            if trace_blocks {
                stats.events_by_kind.block += 1;
                flush_batch_to(batch, &mut stats.events_by_kind, tool);
                tool.on_block(id, routine_id, BlockId::new(target));
            }
        };
        // Everything from the last block boundary up to the stop is
        // complete; a failing instruction is counted but not stepped.
        done += (stop - base) as u64;
        frame.ip = stop - starts[block] as usize;
        frame.block = block;
        stats.instructions += done + u64::from(err.is_some());
        self.sched
            .note_plain_steps((done - u64::from(chained)) as u32);
        if chained > 0 {
            self.sched.note_block_steps(chained);
        }
        match err {
            Some(e) => Err(e),
            None => self.step(t, tool),
        }
    }

    /// Delivers the pending event batch, if any. Called before every
    /// non-read/write tool callback so batched delivery preserves the
    /// per-event total order.
    #[inline]
    fn flush_batch<T: Tool + ?Sized>(&mut self, tool: &mut T) {
        flush_batch_to(&mut self.batch, &mut self.stats.events_by_kind, tool);
    }

    /// The schedule recorded by this run, when
    /// [`RunConfig::record_sched`] was set.
    pub fn recorded_schedule(&self) -> Option<&Schedule> {
        self.sched.recorded()
    }

    /// Takes ownership of the recorded schedule (if any), leaving
    /// `None` behind.
    pub fn take_recorded_schedule(&mut self) -> Option<Schedule> {
        self.sched.take_recorded()
    }

    /// The wait-graph of currently blocked threads, with mutex
    /// ownership re-read at report time (ownership may have migrated
    /// since the thread blocked).
    fn wait_graph(&self) -> Vec<BlockedThread> {
        self.threads
            .iter()
            .filter(|t| t.state == ThreadState::Blocked)
            .map(|t| {
                let waiting_on = match t.waiting_on {
                    Some(WaitTarget::Mutex { mutex, .. }) => WaitTarget::Mutex {
                        mutex,
                        owner: self.mutexes[mutex as usize]
                            .owner
                            .map(|o| self.threads[o].id),
                    },
                    Some(w) => w,
                    // Unreachable for threads blocked through
                    // `block_thread`, but degrade to a self-join edge
                    // rather than panicking.
                    None => WaitTarget::Join(t.id),
                };
                BlockedThread {
                    thread: t.id,
                    waiting_on,
                }
            })
            .collect()
    }

    fn spawn_thread<T: Tool + ?Sized>(
        &mut self,
        routine: RoutineId,
        args: Vec<i64>,
        parent: Option<usize>,
        tool: &mut T,
    ) -> usize {
        let idx = self.threads.len();
        let id = ThreadId::new(idx as u32);
        let mut regs = Vec::new();
        self.init_regs(&mut regs, routine, &args);
        let frame = Frame {
            routine,
            block: self.program.routine(routine).entry.index() as usize,
            ip: 0,
            regs,
            ret_dst: None,
            pending_entry: true,
        };
        self.threads.push(ThreadCtx {
            id,
            frames: vec![frame],
            state: ThreadState::Runnable,
            blocks: 0,
            nanos: 0,
            rng: SmallRng::seed_from_u64(self.config.seed ^ (idx as u64).wrapping_mul(0xA5A5_5A5A)),
            jitter: SmallRng::seed_from_u64(match self.config.cost {
                CostKind::SimNanos { jitter_seed } => jitter_seed ^ idx as u64,
                CostKind::BasicBlocks => idx as u64,
            }),
            resume: None,
            join_waiters: Vec::new(),
            waiting_on: None,
        });
        let parent_id = parent.map(|p| self.threads[p].id);
        self.stats.events_by_kind.thread_start += 1;
        self.stats.events_by_kind.call += 1;
        self.flush_batch(tool);
        tool.on_thread_start(id, parent_id);
        tool.on_call(id, routine, 0);
        idx
    }

    /// Fills `regs` with routine `routine`'s initial register file:
    /// zeros, then — while a decoded image is in use — the routine's
    /// constant registers, then `args` over its parameters.
    fn init_regs(&self, regs: &mut Vec<i64>, routine: RoutineId, args: &[i64]) {
        regs.clear();
        regs.resize(self.program.routine(routine).regs as usize, 0);
        if let Some(d) = &self.decoded {
            regs.extend_from_slice(d.constants(routine));
        }
        regs[..args.len()].copy_from_slice(args);
    }

    /// The innermost live frame of thread `t`.
    ///
    /// # Errors
    /// [`RunError::CorruptStack`] if the frame stack is empty — a
    /// malformed guest, reported structurally instead of panicking.
    #[inline]
    fn frame(&self, t: usize) -> Result<&Frame, RunError> {
        let th = &self.threads[t];
        th.frames
            .last()
            .ok_or(RunError::CorruptStack { thread: th.id })
    }

    /// Mutable access to the innermost live frame of thread `t`.
    ///
    /// # Errors
    /// [`RunError::CorruptStack`] on an empty frame stack.
    #[inline]
    fn frame_mut(&mut self, t: usize) -> Result<&mut Frame, RunError> {
        let th = &mut self.threads[t];
        let id = th.id;
        th.frames
            .last_mut()
            .ok_or(RunError::CorruptStack { thread: id })
    }

    #[inline]
    fn eval(&self, t: usize, op: Operand) -> Result<i64, RunError> {
        match op {
            Operand::Imm(v) => Ok(v),
            Operand::Reg(r) => Ok(self.frame(t)?.regs[r as usize]),
        }
    }

    fn addr_of(&self, base: i64, offset: i64) -> Result<Addr, RunError> {
        let a = base.wrapping_add(offset);
        if a <= 0 || (a as u64) >= ADDRESS_LIMIT {
            return Err(RunError::BadAddress { value: a });
        }
        Ok(Addr::new(a as u64))
    }

    #[inline]
    fn cost_of(&self, t: usize) -> u64 {
        match self.config.cost {
            CostKind::BasicBlocks => self.threads[t].blocks,
            CostKind::SimNanos { .. } => self.threads[t].nanos,
        }
    }

    #[inline]
    fn add_inst_cost(&mut self, t: usize, inst_kind_cost: u64) {
        if let CostKind::SimNanos { .. } = self.config.cost {
            // Base latency plus multiplicative jitter and occasional
            // cache-miss style spikes, mimicking real timers (Fig. 10).
            let th = &mut self.threads[t];
            let jitter = th.jitter.gen_range(0..=inst_kind_cost / 2 + 1);
            let spike = if th.jitter.gen_ratio(1, 64) { 40 } else { 0 };
            th.nanos += inst_kind_cost + jitter + spike;
        }
    }

    fn enter_block<T: Tool + ?Sized>(
        &mut self,
        t: usize,
        block: usize,
        tool: &mut T,
    ) -> Result<(), RunError> {
        let frame = self.frame_mut(t)?;
        frame.block = block;
        frame.ip = 0;
        frame.pending_entry = false;
        let routine = frame.routine;
        self.threads[t].blocks += 1;
        self.add_inst_cost(t, 2);
        if self.config.trace_blocks {
            self.stats.events_by_kind.block += 1;
            self.flush_batch(tool);
            tool.on_block(self.threads[t].id, routine, BlockId::new(block as u32));
        }
        Ok(())
    }

    fn wake(&mut self, t: usize) {
        debug_assert_eq!(self.threads[t].state, ThreadState::Blocked);
        self.threads[t].state = ThreadState::Runnable;
        self.threads[t].waiting_on = None;
    }

    fn block_thread(&mut self, t: usize, target: WaitTarget) -> Step {
        self.threads[t].state = ThreadState::Blocked;
        self.threads[t].waiting_on = Some(target);
        Step::Blocked
    }

    fn exit_thread<T: Tool + ?Sized>(&mut self, t: usize, tool: &mut T) -> Step {
        self.threads[t].state = ThreadState::Exited;
        let id = self.threads[t].id;
        let cost = self.cost_of(t);
        self.stats.events_by_kind.thread_exit += 1;
        self.flush_batch(tool);
        tool.on_thread_exit(id, cost);
        let waiters = std::mem::take(&mut self.threads[t].join_waiters);
        for w in waiters {
            self.wake(w);
        }
        Step::Exited
    }

    /// Executes one instruction (or terminator) of thread `t`.
    fn step<T: Tool + ?Sized>(&mut self, t: usize, tool: &mut T) -> Result<Step, RunError> {
        if self.stats.instructions >= self.config.max_instructions {
            // Watchdog: terminate gracefully rather than spin forever;
            // the caller still gets finalized stats and a flushable
            // partial profile.
            return Err(RunError::InstructionLimit {
                limit: self.config.max_instructions,
            });
        }
        let (pending, routine_id, block_idx, ip) = {
            let frame = self.frame(t)?;
            (frame.pending_entry, frame.routine, frame.block, frame.ip)
        };
        if pending {
            self.enter_block(t, block_idx, tool)?;
            return Ok(Step::BlockEntered);
        }
        self.stats.instructions += 1;
        // Copying the `&'p Program` reference out of `self` unties the
        // instruction borrow from `&mut self`, avoiding per-step clones.
        let program: &'p Program = self.program;
        let block = &program.routine(routine_id).blocks[block_idx];
        if ip >= block.insts.len() {
            return self.exec_terminator(t, &block.term, tool);
        }
        self.exec_inst(t, &block.insts[ip], tool)
    }

    fn advance(&mut self, t: usize) -> Result<(), RunError> {
        self.frame_mut(t)?.ip += 1;
        Ok(())
    }

    fn set_reg(&mut self, t: usize, r: Reg, v: i64) -> Result<(), RunError> {
        self.frame_mut(t)?.regs[r as usize] = v;
        Ok(())
    }

    fn emit_sync<T: Tool + ?Sized>(&mut self, t: usize, op: SyncOp, tool: &mut T) {
        self.stats.events_by_kind.sync += 1;
        self.flush_batch(tool);
        tool.on_sync(self.threads[t].id, op);
    }

    fn exec_terminator<T: Tool + ?Sized>(
        &mut self,
        t: usize,
        term: &Terminator,
        tool: &mut T,
    ) -> Result<Step, RunError> {
        match *term {
            Terminator::Jump(b) => {
                self.add_inst_cost(t, 1);
                self.enter_block(t, b.index() as usize, tool)?;
                Ok(Step::BlockEntered)
            }
            Terminator::Branch {
                cond,
                then_block,
                else_block,
            } => {
                self.add_inst_cost(t, 1);
                let taken = if self.eval(t, cond)? != 0 {
                    then_block
                } else {
                    else_block
                };
                self.enter_block(t, taken.index() as usize, tool)?;
                Ok(Step::BlockEntered)
            }
            Terminator::Ret(v) => {
                let value = v.map(|op| self.eval(t, op)).transpose()?.unwrap_or(0);
                let id = self.threads[t].id;
                let frame = self.threads[t]
                    .frames
                    .pop()
                    .ok_or(RunError::CorruptStack { thread: id })?;
                let cost = self.cost_of(t);
                self.stats.events_by_kind.ret += 1;
                self.flush_batch(tool);
                tool.on_return(id, frame.routine, cost);
                let ret_dst = frame.ret_dst;
                self.frame_pool.push(frame);
                if self.threads[t].frames.is_empty() {
                    return Ok(self.exit_thread(t, tool));
                }
                if let Some(dst) = ret_dst {
                    self.set_reg(t, dst, value)?;
                }
                // The caller's ip was advanced past the call instruction
                // when the frame was pushed; the continuation resumes there
                // and counts as a fresh basic block, as dynamic binary
                // translation splits blocks at call sites.
                let caller = self.frame(t)?;
                let (cont_routine, cont_block) = (caller.routine, caller.block);
                self.threads[t].blocks += 1;
                self.add_inst_cost(t, 2);
                if self.config.trace_blocks {
                    self.stats.events_by_kind.block += 1;
                    tool.on_block(id, cont_routine, BlockId::new(cont_block as u32));
                }
                Ok(Step::BlockEntered)
            }
        }
    }

    fn exec_inst<T: Tool + ?Sized>(
        &mut self,
        t: usize,
        inst: &Inst,
        tool: &mut T,
    ) -> Result<Step, RunError> {
        match *inst {
            Inst::Mov { dst, src } => {
                let v = self.eval(t, src)?;
                self.set_reg(t, dst, v)?;
                self.add_inst_cost(t, 1);
                self.advance(t)?;
                Ok(Step::Continue)
            }
            Inst::Bin { op, dst, lhs, rhs } => {
                let a = self.eval(t, lhs)?;
                let b = self.eval(t, rhs)?;
                let routine = self.frame(t)?.routine;
                let v = op.apply(a, b).ok_or(RunError::DivisionByZero { routine })?;
                self.set_reg(t, dst, v)?;
                self.add_inst_cost(t, 1);
                self.advance(t)?;
                Ok(Step::Continue)
            }
            Inst::Load { dst, base, offset } => {
                let addr = self.addr_of(self.eval(t, base)?, self.eval(t, offset)?)?;
                let id = self.threads[t].id;
                self.stats.events_by_kind.read += 1;
                // Batched reads and writes precede this one: the decoded
                // stepper hands loads to this path near the watchdog.
                self.flush_batch(tool);
                tool.on_read(id, addr, 1);
                let v = self.mem.load(addr);
                self.set_reg(t, dst, v)?;
                self.add_inst_cost(t, 3);
                self.advance(t)?;
                Ok(Step::Continue)
            }
            Inst::Store { base, offset, src } => {
                let addr = self.addr_of(self.eval(t, base)?, self.eval(t, offset)?)?;
                let v = self.eval(t, src)?;
                let id = self.threads[t].id;
                self.stats.events_by_kind.write += 1;
                self.flush_batch(tool);
                tool.on_write(id, addr, 1);
                self.mem.store(addr, v);
                self.add_inst_cost(t, 3);
                self.advance(t)?;
                Ok(Step::Continue)
            }
            Inst::Alloc { dst, cells } => {
                let n = self.eval(t, cells)?.max(0) as u64;
                let base = self.mem.alloc(n);
                self.set_reg(t, dst, base.raw() as i64)?;
                self.add_inst_cost(t, 4);
                self.advance(t)?;
                Ok(Step::Continue)
            }
            Inst::Call {
                routine,
                ref args,
                dst,
            } => {
                let mut vals = std::mem::take(&mut self.call_scratch);
                vals.clear();
                for &a in args.iter() {
                    match self.eval(t, a) {
                        Ok(v) => vals.push(v),
                        Err(e) => {
                            self.call_scratch = vals;
                            return Err(e);
                        }
                    }
                }
                let entry = self.program.routine(routine).entry.index() as usize;
                let mut frame = self.frame_pool.pop().unwrap_or_else(|| Frame {
                    routine,
                    block: entry,
                    ip: 0,
                    regs: Vec::new(),
                    ret_dst: dst,
                    pending_entry: false,
                });
                frame.routine = routine;
                frame.block = entry;
                frame.ip = 0;
                frame.ret_dst = dst;
                frame.pending_entry = false;
                self.init_regs(&mut frame.regs, routine, &vals);
                self.call_scratch = vals;
                self.advance(t)?; // resume after the call on return
                let id = self.threads[t].id;
                let cost = self.cost_of(t);
                self.stats.events_by_kind.call += 1;
                self.flush_batch(tool);
                tool.on_call(id, routine, cost);
                self.threads[t].frames.push(frame);
                self.add_inst_cost(t, 5);
                self.enter_block(t, entry, tool)?;
                Ok(Step::BlockEntered)
            }
            Inst::Spawn {
                routine,
                ref args,
                dst,
            } => {
                let vals = args
                    .iter()
                    .map(|&a| self.eval(t, a))
                    .collect::<Result<Vec<i64>, RunError>>()?;
                let child = self.spawn_thread(routine, vals, Some(t), tool);
                let child_id = self.threads[child].id;
                self.set_reg(t, dst, child_id.index() as i64)?;
                self.emit_sync(t, SyncOp::Spawn { child: child_id }, tool);
                self.add_inst_cost(t, 20);
                self.advance(t)?;
                Ok(Step::Synced)
            }
            Inst::Join { thread } => {
                let v = self.eval(t, thread)?;
                let target = usize::try_from(v)
                    .ok()
                    .filter(|&i| i < self.threads.len())
                    .ok_or(RunError::BadThreadId { value: v })?;
                if self.threads[target].state == ThreadState::Exited {
                    let child = self.threads[target].id;
                    self.emit_sync(t, SyncOp::Join { child }, tool);
                    self.add_inst_cost(t, 5);
                    self.advance(t)?;
                    Ok(Step::Synced)
                } else {
                    self.threads[target].join_waiters.push(t);
                    let child = self.threads[target].id;
                    Ok(self.block_thread(t, WaitTarget::Join(child)))
                }
            }
            Inst::SemWait { sem } => {
                if self.sems[sem as usize].value > 0 {
                    self.sems[sem as usize].value -= 1;
                    self.emit_sync(t, SyncOp::SemWait(sem), tool);
                    self.add_inst_cost(t, 8);
                    self.advance(t)?;
                    Ok(Step::Synced)
                } else {
                    self.sems[sem as usize].waiters.push_back(t);
                    Ok(self.block_thread(t, WaitTarget::Semaphore(sem)))
                }
            }
            Inst::SemSignal { sem } => {
                self.sems[sem as usize].value += 1;
                if let Some(w) = self.sems[sem as usize].waiters.pop_front() {
                    self.wake(w);
                }
                self.emit_sync(t, SyncOp::SemSignal(sem), tool);
                self.add_inst_cost(t, 8);
                self.advance(t)?;
                Ok(Step::Synced)
            }
            Inst::MutexLock { mutex } => self.lock_mutex(t, mutex, false, tool),
            Inst::MutexUnlock { mutex } => {
                let m = &mut self.mutexes[mutex as usize];
                if m.owner != Some(t) {
                    return Err(RunError::MutexNotOwned {
                        mutex,
                        thread: self.threads[t].id,
                    });
                }
                m.owner = None;
                if let Some(w) = m.waiters.pop_front() {
                    self.wake(w);
                }
                self.emit_sync(t, SyncOp::MutexUnlock(mutex), tool);
                self.add_inst_cost(t, 6);
                self.advance(t)?;
                Ok(Step::Synced)
            }
            Inst::CondWait { cond, mutex } => {
                if self.threads[t].resume == Some(Resume::ReacquireMutex(mutex)) {
                    return self.lock_mutex(t, mutex, true, tool);
                }
                let m = &mut self.mutexes[mutex as usize];
                if m.owner != Some(t) {
                    return Err(RunError::MutexNotOwned {
                        mutex,
                        thread: self.threads[t].id,
                    });
                }
                m.owner = None;
                if let Some(w) = m.waiters.pop_front() {
                    self.wake(w);
                }
                self.conds[cond as usize].waiters.push_back(t);
                self.threads[t].resume = Some(Resume::ReacquireMutex(mutex));
                self.emit_sync(t, SyncOp::CondWait { cond, mutex }, tool);
                Ok(self.block_thread(t, WaitTarget::Condvar(cond)))
            }
            Inst::CondSignal { cond } => {
                if let Some(w) = self.conds[cond as usize].waiters.pop_front() {
                    self.wake(w);
                }
                self.emit_sync(t, SyncOp::CondSignal(cond), tool);
                self.add_inst_cost(t, 6);
                self.advance(t)?;
                Ok(Step::Synced)
            }
            Inst::CondBroadcast { cond } => {
                while let Some(w) = self.conds[cond as usize].waiters.pop_front() {
                    self.wake(w);
                }
                self.emit_sync(t, SyncOp::CondBroadcast(cond), tool);
                self.add_inst_cost(t, 6);
                self.advance(t)?;
                Ok(Step::Synced)
            }
            Inst::Syscall { call, dst } => self.exec_syscall(t, call, dst, tool),
            Inst::Rand { dst, bound } => {
                let b = self.eval(t, bound)?.max(1);
                let v = self.threads[t].rng.gen_range(0..b);
                self.set_reg(t, dst, v)?;
                self.add_inst_cost(t, 2);
                self.advance(t)?;
                Ok(Step::Continue)
            }
            Inst::Yield => {
                self.add_inst_cost(t, 1);
                self.advance(t)?;
                Ok(Step::Yielded)
            }
        }
    }

    fn lock_mutex<T: Tool + ?Sized>(
        &mut self,
        t: usize,
        mutex: u32,
        from_cond: bool,
        tool: &mut T,
    ) -> Result<Step, RunError> {
        let m = &mut self.mutexes[mutex as usize];
        match m.owner {
            None => {
                m.owner = Some(t);
                if from_cond {
                    self.threads[t].resume = None;
                }
                self.emit_sync(t, SyncOp::MutexLock(mutex), tool);
                self.add_inst_cost(t, 6);
                self.advance(t)?;
                Ok(Step::Synced)
            }
            Some(owner) if owner == t => Err(RunError::MutexReentry {
                mutex,
                thread: self.threads[t].id,
            }),
            Some(owner) => {
                m.waiters.push_back(t);
                let owner_id = self.threads[owner].id;
                Ok(self.block_thread(
                    t,
                    WaitTarget::Mutex {
                        mutex,
                        owner: Some(owner_id),
                    },
                ))
            }
        }
    }

    /// Completes a failed syscall POSIX-style: the destination register
    /// receives `-errno` and execution continues. Kernel failures never
    /// abort the run.
    fn deliver_errno(
        &mut self,
        t: usize,
        dst: Option<Reg>,
        e: &KernelError,
    ) -> Result<Step, RunError> {
        self.kernel.count_errno_return();
        if let Some(d) = dst {
            self.set_reg(t, d, -e.errno())?;
        }
        self.add_inst_cost(t, 30);
        self.advance(t)?;
        Ok(Step::Kernel)
    }

    fn exec_syscall<T: Tool + ?Sized>(
        &mut self,
        t: usize,
        call: Syscall,
        dst: Option<Reg>,
        tool: &mut T,
    ) -> Result<Step, RunError> {
        let fd = self.eval(t, call.fd)?;
        let len = self.eval(t, call.len)?.max(0) as u32;
        let buf = self.addr_of(self.eval(t, call.buf)?, 0)?;
        let offset = call
            .no
            .is_positioned()
            .then(|| self.eval(t, call.offset))
            .transpose()?
            .map(|o| o.max(0) as u64);
        self.stats.syscalls += 1;
        let id = self.threads[t].id;
        // The fault gate decides the effective transfer length (short
        // reads/writes) or fails the call with an errno, *before* any
        // kernelToUser/userToKernel event is emitted — events must tag
        // only cells the kernel actually moves, or drms would count
        // input the guest never received.
        let dir = call.no.direction();
        let effective = match self.kernel.prepare_transfer(fd, dir, len) {
            Ok(n) => n,
            Err(e) => return self.deliver_errno(t, dst, &e),
        };
        let transferred = match dir {
            Direction::Input => {
                self.scratch.clear();
                let n = match self
                    .kernel
                    .input_into(fd, effective, offset, &mut self.scratch)
                {
                    Ok(n) => n,
                    Err(e) => return self.deliver_errno(t, dst, &e),
                };
                if n > 0 {
                    // The kernel writes external data into the user buffer.
                    self.stats.events_by_kind.kernel_to_user += 1;
                    self.flush_batch(tool);
                    tool.on_kernel_to_user(id, buf, n);
                    self.mem.store_slice(buf, &self.scratch);
                }
                n
            }
            Direction::Output => {
                self.scratch.clear();
                self.mem.load_into(buf, effective, &mut self.scratch);
                let n = match self.kernel.output(fd, &self.scratch, offset) {
                    Ok(n) => n,
                    Err(e) => return self.deliver_errno(t, dst, &e),
                };
                if n > 0 {
                    // The kernel reads the accepted prefix of the user
                    // buffer on the thread's behalf — "as if the system
                    // call were a normal subroutine" (Fig. 9).
                    self.stats.events_by_kind.user_to_kernel += 1;
                    self.flush_batch(tool);
                    tool.on_user_to_kernel(id, buf, n);
                }
                n
            }
        };
        let bucket = TRANSFER_CELL_BOUNDS
            .iter()
            .position(|&b| u64::from(transferred) <= b)
            .unwrap_or(TRANSFER_CELL_BOUNDS.len());
        self.transfer_buckets[bucket] += 1;
        self.transfer_cells_sum += u64::from(transferred);
        if let Some(d) = dst {
            self.set_reg(t, d, transferred as i64)?;
        }
        self.add_inst_cost(t, 30 + 2 * transferred as u64);
        self.advance(t)?;
        Ok(Step::Kernel)
    }
}

/// Checks the address `a` of a decoded load or store and buffers its
/// event, flushing a full batch first.
#[inline(always)]
fn buffer_access<T: Tool + ?Sized>(
    a: i64,
    kind: BatchKind,
    batch: &mut EventBatch,
    counts: &mut EventCounters,
    tool: &mut T,
) -> Result<Addr, RunError> {
    if a <= 0 || (a as u64) >= ADDRESS_LIMIT {
        return Err(RunError::BadAddress { value: a });
    }
    let addr = Addr::new(a as u64);
    if batch.is_full() {
        flush_batch_to(batch, counts, tool);
    }
    batch.push(kind, addr, 1);
    Ok(addr)
}

/// A fused op's `Bin` half. Decode never fuses `Div` or `Rem`, the only
/// operations that can fail, so the fallback value is never taken.
#[inline(always)]
fn fused_apply(op: BinOp, a: i64, b: i64) -> i64 {
    op.apply(a, b).unwrap_or(0)
}

/// The [`Vm::add_inst_cost`] jitter model, with the thread's RNG and
/// nanos counter already split-borrowed out of the VM.
#[inline(always)]
fn add_sim_nanos(jitter: &mut SmallRng, nanos: &mut u64, inst_kind_cost: u64) {
    let j = jitter.gen_range(0..=inst_kind_cost / 2 + 1);
    let spike = if jitter.gen_ratio(1, 64) { 40 } else { 0 };
    *nanos += inst_kind_cost + j + spike;
}

/// Delivers and clears a non-empty batch, tallying its reads and
/// writes into `counts` — the decoded loop's only per-kind event
/// tally, so every path that reads [`RunStats`] flushes first.
#[inline]
fn flush_batch_to<T: Tool + ?Sized>(
    batch: &mut EventBatch,
    counts: &mut EventCounters,
    tool: &mut T,
) {
    if !batch.is_empty() {
        let (kinds, _, _) = batch.arrays();
        let writes = kinds.iter().filter(|&&k| k == BatchKind::Write).count();
        counts.write += writes as u64;
        counts.read += (kinds.len() - writes) as u64;
        tool.observe_batch(batch);
        batch.clear();
    }
}

impl fmt::Debug for Vm<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vm")
            .field("threads", &self.threads.len())
            .field("instructions", &self.stats.instructions)
            .finish()
    }
}

/// Builds a VM and runs `program` under `config` with `tool` attached.
///
/// Convenience wrapper over [`Vm::new`] + [`Vm::run`]. For a sized `T`
/// the per-event hot loop is monomorphized: calls into the tool are
/// direct, not `dyn Tool` vtable dispatch.
///
/// # Errors
/// Propagates any [`RunError`].
pub fn run_program<T: Tool + ?Sized>(
    program: &Program,
    config: RunConfig,
    tool: &mut T,
) -> Result<RunStats, RunError> {
    Vm::new(program, config)?.run(tool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::kernel::Device;
    use crate::stats::SchedPolicy;
    use crate::tool::NullTool;

    fn run_main(
        body: impl FnOnce(&mut crate::builder::FnBuilder),
        config: RunConfig,
    ) -> Result<RunStats, RunError> {
        let mut pb = ProgramBuilder::new();
        let main = pb.function("main", 0, body);
        let program = pb.finish(main).expect("build");
        run_program(&program, config, &mut NullTool)
    }

    #[test]
    fn division_by_zero_is_reported() {
        let err = run_main(
            |f| {
                let z = f.copy(0);
                let _ = f.div(1, z);
            },
            RunConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RunError::DivisionByZero { .. }));
        assert!(err.to_string().contains("division by zero"));
    }

    #[test]
    fn bad_address_is_reported() {
        let err = run_main(
            |f| {
                let _ = f.load(-5, 0);
            },
            RunConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, RunError::BadAddress { value: -5 });
    }

    #[test]
    fn instruction_limit_aborts_infinite_loops() {
        let cfg = RunConfig {
            max_instructions: 10_000,
            ..RunConfig::default()
        };
        let err = run_main(
            |f| {
                let head = f.new_block();
                f.jump(head);
                f.switch_to(head);
                let _ = f.add(1, 1);
                f.jump(head);
            },
            cfg,
        )
        .unwrap_err();
        assert_eq!(err, RunError::InstructionLimit { limit: 10_000 });
    }

    #[test]
    fn zero_deadline_aborts_before_the_first_slice() {
        let cfg = RunConfig {
            deadline: Some(std::time::Duration::ZERO),
            ..RunConfig::default()
        };
        let err = run_main(
            |f| {
                let _ = f.add(1, 1);
            },
            cfg,
        )
        .unwrap_err();
        assert_eq!(err, RunError::DeadlineExceeded { millis: 0 });
        assert!(
            err.to_string().contains("deadline of 0 ms"),
            "message reports the configured budget, not elapsed time"
        );
    }

    #[test]
    fn generous_deadline_does_not_fire() {
        let cfg = RunConfig {
            deadline: Some(std::time::Duration::from_secs(3600)),
            ..RunConfig::default()
        };
        run_main(
            |f| {
                let _ = f.add(1, 1);
            },
            cfg,
        )
        .unwrap();
    }

    #[test]
    fn self_deadlock_is_detected() {
        let mut pb = ProgramBuilder::new();
        let sem = pb.semaphore(0);
        let main = pb.function("main", 0, |f| {
            f.sem_wait(sem); // never signalled
        });
        let program = pb.finish(main).unwrap();
        let err = run_program(&program, RunConfig::default(), &mut NullTool).unwrap_err();
        assert!(matches!(err, RunError::Deadlock { ref blocked } if blocked.len() == 1));
        assert!(err.to_string().contains("deadlock"));
    }

    #[test]
    fn unlocking_foreign_mutex_is_an_error() {
        let mut pb = ProgramBuilder::new();
        let m = pb.mutex();
        let main = pb.function("main", 0, |f| f.unlock(m));
        let program = pb.finish(main).unwrap();
        let err = run_program(&program, RunConfig::default(), &mut NullTool).unwrap_err();
        assert!(matches!(err, RunError::MutexNotOwned { mutex: 0, .. }));
    }

    #[test]
    fn relocking_held_mutex_is_an_error() {
        let mut pb = ProgramBuilder::new();
        let m = pb.mutex();
        let main = pb.function("main", 0, |f| {
            f.lock(m);
            f.lock(m);
        });
        let program = pb.finish(main).unwrap();
        let err = run_program(&program, RunConfig::default(), &mut NullTool).unwrap_err();
        assert!(matches!(err, RunError::MutexReentry { mutex: 0, .. }));
    }

    #[test]
    fn join_on_garbage_thread_id_is_an_error() {
        let err = run_main(|f| f.join(99), RunConfig::default()).unwrap_err();
        assert_eq!(err, RunError::BadThreadId { value: 99 });
    }

    #[test]
    fn random_scheduler_is_deterministic_per_seed_and_varies_across_seeds() {
        let build = || {
            let mut pb = ProgramBuilder::new();
            let g = pb.global(8);
            let worker = pb.function("worker", 1, |f| {
                let tid = f.param(0);
                f.for_range(0, 50, |f, i| {
                    let v = f.mul(i, 3);
                    let slot = f.rem(v, 8);
                    f.store(g.raw() as i64, slot, v);
                });
                let _ = tid;
                f.ret(None);
            });
            let main = pb.function("main", 0, |f| {
                let a = f.spawn(worker, &[Operand::Imm(0)]);
                let b = f.spawn(worker, &[Operand::Imm(1)]);
                f.join(a);
                f.join(b);
            });
            pb.finish(main).unwrap()
        };
        let program = build();
        let run = |policy| {
            let cfg = RunConfig {
                policy,
                quantum: 3,
                ..RunConfig::default()
            };
            let mut rec = crate::recorder::TraceRecorder::new();
            run_program(&program, cfg, &mut rec).expect("run");
            drms_trace::merge_traces(rec.into_traces())
        };
        let a = run(crate::stats::SchedPolicy::Random { seed: 5 });
        let b = run(crate::stats::SchedPolicy::Random { seed: 5 });
        assert_eq!(a, b, "same seed gives the same interleaving");
        let c = run(crate::stats::SchedPolicy::Random { seed: 6 });
        assert_ne!(a, c, "different seeds interleave differently");
    }

    #[test]
    fn sim_nanos_cost_is_noisy_but_monotone() {
        let mut pb = ProgramBuilder::new();
        let main = pb.function("main", 0, |f| {
            f.for_range(0, 200, |f, i| {
                let _ = f.mul(i, i);
            });
        });
        let program = pb.finish(main).unwrap();
        let cfg = RunConfig {
            cost: CostKind::SimNanos { jitter_seed: 1 },
            ..RunConfig::default()
        };
        let stats = run_program(&program, cfg, &mut NullTool).unwrap();
        assert!(stats.per_thread_nanos[0] > stats.per_thread_blocks[0]);
        let cfg2 = RunConfig {
            cost: CostKind::SimNanos { jitter_seed: 2 },
            ..RunConfig::default()
        };
        let stats2 = run_program(&program, cfg2, &mut NullTool).unwrap();
        assert_ne!(
            stats.per_thread_nanos, stats2.per_thread_nanos,
            "different jitter seeds give different timings"
        );
    }

    #[test]
    fn yield_rotates_between_threads() {
        let mut pb = ProgramBuilder::new();
        let worker = pb.function("worker", 0, |f| {
            f.for_range(0, 20, |f, _| f.yield_now());
        });
        let main = pb.function("main", 0, |f| {
            let a = f.spawn(worker, &[]);
            let b = f.spawn(worker, &[]);
            f.join(a);
            f.join(b);
        });
        let program = pb.finish(main).unwrap();
        let stats = run_program(&program, RunConfig::default(), &mut NullTool).unwrap();
        assert!(stats.thread_switches > 20, "yields force frequent switches");
    }

    #[test]
    fn condvar_wait_signal_roundtrip() {
        let mut pb = ProgramBuilder::new();
        let g = pb.global(2);
        let m = pb.mutex();
        let cv = pb.condvar();
        let waiter = pb.function("waiter", 0, |f| {
            f.lock(m);
            let ready_head = f.new_block();
            let done = f.new_block();
            f.jump(ready_head);
            f.switch_to(ready_head);
            let ready = f.load(g.raw() as i64, 0);
            let is_ready = f.ne(ready, 0);
            let wait_blk = f.new_block();
            f.branch(is_ready, done, wait_blk);
            f.switch_to(wait_blk);
            f.cond_wait(cv, m);
            f.jump(ready_head);
            f.switch_to(done);
            f.store(g.raw() as i64, 1, 42); // observed the flag
            f.unlock(m);
            f.ret(None);
        });
        let main = pb.function("main", 0, |f| {
            let t = f.spawn(waiter, &[]);
            f.lock(m);
            f.store(g.raw() as i64, 0, 1);
            f.cond_signal(cv);
            f.unlock(m);
            f.join(t);
        });
        let program = pb.finish(main).unwrap();
        let mut vm = Vm::new(&program, RunConfig::default()).unwrap();
        vm.run(&mut NullTool).unwrap();
        assert_eq!(vm.memory().load(drms_trace::Addr::new(0x101)), 42);
    }

    #[test]
    fn cond_broadcast_wakes_all_waiters() {
        let mut pb = ProgramBuilder::new();
        let g = pb.global(4);
        let m = pb.mutex();
        let cv = pb.condvar();
        let waiter = pb.function("waiter", 1, |f| {
            let slot = f.param(0);
            f.lock(m);
            let flag = f.load(g.raw() as i64, 3);
            let not_ready = f.eq(flag, 0);
            f.if_then(not_ready, |f| f.cond_wait(cv, m));
            f.store(g.raw() as i64, slot, 7);
            f.unlock(m);
            f.ret(None);
        });
        let main = pb.function("main", 0, |f| {
            let a = f.spawn(waiter, &[Operand::Imm(0)]);
            let b = f.spawn(waiter, &[Operand::Imm(1)]);
            // give the waiters a chance to block
            f.for_range(0, 100, |f, i| {
                let _ = f.add(i, 1);
            });
            f.lock(m);
            f.store(g.raw() as i64, 3, 1);
            f.cond_broadcast(cv);
            f.unlock(m);
            f.join(a);
            f.join(b);
        });
        let program = pb.finish(main).unwrap();
        let mut vm = Vm::new(&program, RunConfig::default()).unwrap();
        vm.run(&mut NullTool).unwrap();
        assert_eq!(vm.memory().load(drms_trace::Addr::new(0x100)), 7);
        assert_eq!(vm.memory().load(drms_trace::Addr::new(0x101)), 7);
    }

    #[test]
    fn syscall_eof_returns_zero() {
        let mut pb = ProgramBuilder::new();
        let g = pb.global(4);
        let main = pb.function("main", 0, |f| {
            let buf = f.alloc(4);
            let n1 = f.syscall(crate::kernel::SyscallNo::Read, 0, buf, 4, 0);
            let n2 = f.syscall(crate::kernel::SyscallNo::Read, 0, buf, 4, 0);
            f.store(g.raw() as i64, 0, n1);
            f.store(g.raw() as i64, 1, n2);
        });
        let program = pb.finish(main).unwrap();
        let cfg = RunConfig::with_devices(vec![Device::File {
            data: vec![9, 8, 7],
        }]);
        let mut vm = Vm::new(&program, cfg).unwrap();
        vm.run(&mut NullTool).unwrap();
        assert_eq!(vm.memory().load(drms_trace::Addr::new(0x100)), 3);
        assert_eq!(vm.memory().load(drms_trace::Addr::new(0x101)), 0, "EOF");
    }

    #[test]
    fn unknown_fd_returns_ebadf_to_the_guest() {
        let mut pb = ProgramBuilder::new();
        let g = pb.global(1);
        let main = pb.function("main", 0, |f| {
            let buf = f.alloc(2);
            let n = f.syscall(crate::kernel::SyscallNo::Read, 7, buf, 2, 0);
            f.store(g.raw() as i64, 0, n);
        });
        let program = pb.finish(main).unwrap();
        let mut vm = Vm::new(&program, RunConfig::default()).unwrap();
        vm.run(&mut NullTool)
            .expect("kernel errors do not abort the run");
        assert_eq!(
            vm.memory().load(drms_trace::Addr::new(0x100)),
            -9,
            "guest sees -EBADF"
        );
        assert_eq!(vm.kernel().fault_counters().errno_returns, 1);
    }

    #[test]
    fn deadlock_error_names_waited_resources() {
        let mut pb = ProgramBuilder::new();
        let sem = pb.semaphore(0);
        let main = pb.function("main", 0, |f| {
            f.sem_wait(sem); // never signalled
        });
        let program = pb.finish(main).unwrap();
        let err = run_program(&program, RunConfig::default(), &mut NullTool).unwrap_err();
        match &err {
            RunError::Deadlock { blocked } => {
                assert_eq!(blocked.len(), 1);
                assert_eq!(blocked[0].waiting_on, WaitTarget::Semaphore(sem));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
        assert!(err.to_string().contains("semaphore 0"), "{err}");
    }

    #[test]
    fn mutex_deadlock_reports_the_owner() {
        let mut pb = ProgramBuilder::new();
        let m = pb.mutex();
        let sem = pb.semaphore(0);
        let holder = pb.function("holder", 0, |f| {
            f.lock(m);
            f.sem_wait(sem); // parks forever while holding the mutex
            f.unlock(m);
            f.ret(None);
        });
        let main = pb.function("main", 0, |f| {
            let _h = f.spawn(holder, &[]);
            // Let the holder take the lock first.
            f.for_range(0, 200, |f, i| {
                let _ = f.add(i, 1);
            });
            f.lock(m);
        });
        let program = pb.finish(main).unwrap();
        let err = run_program(&program, RunConfig::default(), &mut NullTool).unwrap_err();
        match &err {
            RunError::Deadlock { blocked } => {
                assert_eq!(blocked.len(), 2);
                let holder_id = ThreadId::new(1);
                assert!(blocked
                    .iter()
                    .any(|b| b.thread == holder_id && b.waiting_on == WaitTarget::Semaphore(sem)));
                assert!(blocked.iter().any(|b| b.waiting_on
                    == WaitTarget::Mutex {
                        mutex: m,
                        owner: Some(holder_id),
                    }));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
        assert!(err.to_string().contains("held by"), "{err}");
    }

    #[test]
    fn join_cycle_deadlock_names_the_join_target() {
        let mut pb = ProgramBuilder::new();
        let waiter = pb.function("waiter", 0, |f| {
            // Join the main thread (id 0): a join cycle.
            f.join(0);
            f.ret(None);
        });
        let main = pb.function("main", 0, |f| {
            let h = f.spawn(waiter, &[]);
            f.join(h);
        });
        let program = pb.finish(main).unwrap();
        let err = run_program(&program, RunConfig::default(), &mut NullTool).unwrap_err();
        match &err {
            RunError::Deadlock { blocked } => {
                assert_eq!(blocked.len(), 2);
                let targets: Vec<WaitTarget> = blocked.iter().map(|b| b.waiting_on).collect();
                assert!(targets.contains(&WaitTarget::Join(ThreadId::new(0))));
                assert!(targets.contains(&WaitTarget::Join(ThreadId::new(1))));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
        assert!(err.to_string().contains("join of"), "{err}");
    }

    #[test]
    fn watchdog_abort_still_finalizes_stats_and_finishes_the_tool() {
        struct FinishProbe {
            finished: bool,
        }
        impl Tool for FinishProbe {
            fn on_finish(&mut self) {
                self.finished = true;
            }
            fn name(&self) -> &str {
                "finish-probe"
            }
        }
        let mut pb = ProgramBuilder::new();
        let main = pb.function("main", 0, |f| {
            let head = f.new_block();
            f.jump(head);
            f.switch_to(head);
            let _ = f.add(1, 1);
            f.jump(head);
        });
        let program = pb.finish(main).unwrap();
        let cfg = RunConfig {
            max_instructions: 5_000,
            ..RunConfig::default()
        };
        let mut vm = Vm::new(&program, cfg).unwrap();
        let mut probe = FinishProbe { finished: false };
        let err = vm.run(&mut probe).unwrap_err();
        assert_eq!(err, RunError::InstructionLimit { limit: 5_000 });
        assert!(probe.finished, "on_finish runs even on abort");
        let stats = vm.stats();
        assert!(stats.instructions >= 5_000);
        assert!(stats.basic_blocks > 0);
        assert_eq!(stats.per_thread_blocks.len(), 1);
        assert_eq!(stats.threads, 1);
    }

    #[test]
    fn injected_short_reads_tag_only_delivered_cells() {
        use crate::fault::FaultPlan;
        struct K2uProbe {
            cells: Vec<u32>,
        }
        impl Tool for K2uProbe {
            fn on_kernel_to_user(&mut self, _t: ThreadId, _addr: Addr, len: u32) {
                self.cells.push(len);
            }
            fn name(&self) -> &str {
                "k2u-probe"
            }
        }
        let mut pb = ProgramBuilder::new();
        let g = pb.global(1);
        let main = pb.function("main", 0, |f| {
            let buf = f.alloc(8);
            let n = f.syscall(crate::kernel::SyscallNo::Read, 0, buf, 8, 0);
            f.store(g.raw() as i64, 0, n);
        });
        let program = pb.finish(main).unwrap();
        let cfg = RunConfig {
            faults: Some(FaultPlan::parse("fd0:shortread:every=1").unwrap()),
            ..RunConfig::with_devices(vec![Device::Stream { seed: 3 }])
        };
        let mut vm = Vm::new(&program, cfg).unwrap();
        let mut probe = K2uProbe { cells: Vec::new() };
        vm.run(&mut probe).unwrap();
        assert_eq!(probe.cells, vec![4], "event tags delivered cells only");
        assert_eq!(vm.memory().load(drms_trace::Addr::new(0x100)), 4);
        assert_eq!(vm.stats().faults.short_reads, 1);
    }

    #[test]
    fn injected_eintr_returns_negative_errno_and_counts() {
        use crate::fault::FaultPlan;
        let mut pb = ProgramBuilder::new();
        let g = pb.global(2);
        let main = pb.function("main", 0, |f| {
            let buf = f.alloc(4);
            let n1 = f.syscall(crate::kernel::SyscallNo::Read, 0, buf, 4, 0);
            let n2 = f.syscall(crate::kernel::SyscallNo::Read, 0, buf, 4, 0);
            f.store(g.raw() as i64, 0, n1);
            f.store(g.raw() as i64, 1, n2);
        });
        let program = pb.finish(main).unwrap();
        let cfg = RunConfig {
            faults: Some(FaultPlan::parse("in:eintr:once=1").unwrap()),
            ..RunConfig::with_devices(vec![Device::Stream { seed: 3 }])
        };
        let mut vm = Vm::new(&program, cfg).unwrap();
        vm.run(&mut NullTool).unwrap();
        assert_eq!(vm.memory().load(drms_trace::Addr::new(0x100)), -4, "-EINTR");
        assert_eq!(
            vm.memory().load(drms_trace::Addr::new(0x101)),
            4,
            "retry succeeds"
        );
        let faults = vm.stats().faults;
        assert_eq!(faults.transient_errors, 1);
        assert_eq!(faults.errno_returns, 1);
    }

    /// A contended two-worker program exercising sync ops and syscalls —
    /// plenty of scheduling decision points.
    fn contended_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let g = pb.global(8);
        let m = pb.mutex();
        let worker = pb.function("worker", 1, |f| {
            let tid = f.param(0);
            let buf = f.alloc(4);
            f.for_range(0, 20, |f, i| {
                f.lock(m);
                let v = f.mul(i, 3);
                let slot = f.rem(v, 8);
                f.store(g.raw() as i64, slot, v);
                f.unlock(m);
                let _ = f.syscall(crate::kernel::SyscallNo::Read, 0, buf, 2, 0);
            });
            let _ = tid;
            f.ret(None);
        });
        let main = pb.function("main", 0, |f| {
            let a = f.spawn(worker, &[Operand::Imm(0)]);
            let b = f.spawn(worker, &[Operand::Imm(1)]);
            f.join(a);
            f.join(b);
        });
        pb.finish(main).unwrap()
    }

    fn record_run(
        program: &Program,
        policy: SchedPolicy,
    ) -> (Vec<drms_trace::TimedEvent>, crate::Schedule) {
        let cfg = RunConfig {
            policy,
            quantum: 5,
            record_sched: true,
            ..RunConfig::with_devices(vec![Device::Stream { seed: 9 }])
        };
        let mut vm = Vm::new(program, cfg).unwrap();
        let mut rec = crate::recorder::TraceRecorder::new();
        vm.run(&mut rec).expect("run");
        let schedule = vm.take_recorded_schedule().expect("recorded");
        (drms_trace::merge_traces(rec.into_traces()), schedule)
    }

    fn replay_run(
        program: &Program,
        schedule: crate::Schedule,
    ) -> Result<Vec<drms_trace::TimedEvent>, RunError> {
        let cfg = RunConfig {
            policy: SchedPolicy::Replay { relaxed: false },
            quantum: 5,
            replay: Some(std::sync::Arc::new(schedule)),
            ..RunConfig::with_devices(vec![Device::Stream { seed: 9 }])
        };
        let mut vm = Vm::new(program, cfg).unwrap();
        let mut rec = crate::recorder::TraceRecorder::new();
        vm.run(&mut rec)?;
        Ok(drms_trace::merge_traces(rec.into_traces()))
    }

    #[test]
    fn replaying_a_recorded_chaos_schedule_reproduces_the_event_stream() {
        let program = contended_program();
        for seed in [1u64, 7, 42] {
            let (events, schedule) = record_run(&program, SchedPolicy::Chaos { seed });
            assert!(!schedule.is_empty());
            let replayed = replay_run(&program, schedule).expect("strict replay");
            assert_eq!(events, replayed, "seed {seed}: bit-identical event stream");
        }
    }

    #[test]
    fn replaying_a_recorded_round_robin_schedule_reproduces_the_event_stream() {
        let program = contended_program();
        let (events, schedule) = record_run(&program, SchedPolicy::RoundRobin);
        let replayed = replay_run(&program, schedule).expect("strict replay");
        assert_eq!(events, replayed);
    }

    #[test]
    fn chaos_preempts_at_sync_points() {
        let program = contended_program();
        let (_, schedule) = record_run(&program, SchedPolicy::Chaos { seed: 3 });
        let has_sync_or_kernel = schedule.decisions.iter().any(|d| {
            matches!(
                d.cause,
                drms_trace::sched::PreemptCause::Sync | drms_trace::sched::PreemptCause::Kernel
            )
        });
        assert!(has_sync_or_kernel, "chaos injected sync/kernel preemptions");
    }

    #[test]
    fn replay_of_a_different_program_diverges_instead_of_misattributing() {
        let program = contended_program();
        let (_, schedule) = record_run(&program, SchedPolicy::Chaos { seed: 1 });
        // A different guest cannot follow the recorded slices.
        let mut pb = ProgramBuilder::new();
        let main = pb.function("main", 0, |f| {
            f.for_range(0, 5, |f, i| {
                let _ = f.add(i, 1);
            });
        });
        let other = pb.finish(main).unwrap();
        let err = replay_run(&other, schedule).unwrap_err();
        assert!(
            matches!(err, RunError::ScheduleDiverged { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn replay_policy_without_schedule_fails_fast() {
        let mut pb = ProgramBuilder::new();
        let main = pb.function("main", 0, |f| f.ret(None));
        let program = pb.finish(main).unwrap();
        let cfg = RunConfig {
            policy: SchedPolicy::Replay { relaxed: false },
            ..RunConfig::default()
        };
        let err = Vm::new(&program, cfg).unwrap_err();
        assert_eq!(err, RunError::ScheduleMissing);
        assert!(err.to_string().contains("no schedule"));
    }

    #[test]
    fn aborted_run_records_a_final_abort_decision_and_replays_to_the_same_error() {
        let mut pb = ProgramBuilder::new();
        let main = pb.function("main", 0, |f| {
            let head = f.new_block();
            f.jump(head);
            f.switch_to(head);
            let _ = f.add(1, 1);
            f.jump(head);
        });
        let program = pb.finish(main).unwrap();
        let cfg = RunConfig {
            max_instructions: 5_000,
            record_sched: true,
            ..RunConfig::default()
        };
        let mut vm = Vm::new(&program, cfg).unwrap();
        let err = vm.run(&mut NullTool).unwrap_err();
        assert_eq!(err, RunError::InstructionLimit { limit: 5_000 });
        let schedule = vm.take_recorded_schedule().unwrap();
        let last = schedule.decisions.last().expect("abort slice flushed");
        assert_eq!(last.cause, drms_trace::sched::PreemptCause::Abort);
        // Replaying the failing schedule reproduces the same abort.
        let replay_cfg = RunConfig {
            policy: SchedPolicy::Replay { relaxed: false },
            max_instructions: 5_000,
            replay: Some(std::sync::Arc::new(schedule)),
            ..RunConfig::default()
        };
        let mut vm = Vm::new(&program, replay_cfg).unwrap();
        let err2 = vm.run(&mut NullTool).unwrap_err();
        assert_eq!(err2, RunError::InstructionLimit { limit: 5_000 });
    }

    #[test]
    fn run_error_source_chain_exposes_validate_cause() {
        use std::error::Error as _;
        let validate = ValidateError::BadMain;
        let err = RunError::Validate(validate.clone());
        let source = err.source().expect("validate carries a source");
        assert_eq!(source.to_string(), validate.to_string());
        assert!(RunError::ScheduleMissing.source().is_none());
    }

    #[test]
    fn vm_debug_is_nonempty() {
        let mut pb = ProgramBuilder::new();
        let main = pb.function("main", 0, |f| f.ret(None));
        let program = pb.finish(main).unwrap();
        let vm = Vm::new(&program, RunConfig::default()).unwrap();
        assert!(format!("{vm:?}").contains("Vm"));
    }

    /// A threaded, syscalling guest for the metrics tests.
    fn metrics_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let g = pb.global(4);
        let worker = pb.function("worker", 1, |f| {
            let buf = f.alloc(16);
            let n = f.syscall(crate::kernel::SyscallNo::Read, 0, buf, 16, 0);
            f.store(g.raw() as i64, 0, n);
            f.ret(None);
        });
        let main = pb.function("main", 0, |f| {
            let a = f.spawn(worker, &[Operand::Imm(0)]);
            let b = f.spawn(worker, &[Operand::Imm(1)]);
            f.join(a);
            f.join(b);
        });
        pb.finish(main).unwrap()
    }

    #[test]
    fn metrics_cover_the_run_and_survive_the_audit() {
        let program = metrics_program();
        let cfg = RunConfig {
            quantum: 3,
            ..RunConfig::with_devices(vec![Device::Stream { seed: 3 }])
        };
        let mut vm = Vm::new(&program, cfg).unwrap();
        let stats = vm.run(&mut NullTool).unwrap();
        let m = vm.metrics();
        assert_eq!(m.audit(), Ok(()), "a healthy run is self-consistent");
        assert_eq!(m.counter("vm.events.total"), stats.events);
        assert_eq!(m.counter("vm.events.thread_start"), 3, "main + two workers");
        assert_eq!(m.counter("vm.basic_blocks"), stats.basic_blocks);
        assert_eq!(m.counter("vm.syscalls"), stats.syscalls);
        assert_eq!(m.counter("kernel.transfers"), 2);
        assert_eq!(m.counter("kernel.cells_in"), 32);
        assert_eq!(m.gauge("vm.threads"), 3);
        assert!(m.counter("sched.slices") > 0);
        let steps = m.histogram("sched.slice.steps").unwrap();
        assert_eq!(steps.total, m.counter("sched.slices"));
        let cells = m.histogram("kernel.transfer.cells").unwrap();
        assert_eq!(cells.total, 2);
        assert_eq!(cells.sum, 32);
    }

    #[test]
    fn metrics_json_is_byte_identical_across_same_seed_runs() {
        let program = metrics_program();
        let run = || {
            let cfg = RunConfig {
                policy: SchedPolicy::Random { seed: 11 },
                quantum: 3,
                ..RunConfig::with_devices(vec![Device::Stream { seed: 3 }])
            };
            let mut vm = Vm::new(&program, cfg).unwrap();
            vm.run(&mut NullTool).unwrap();
            vm.metrics()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_prometheus(), b.to_prometheus());
    }

    /// Every dispatch mode and batch size must execute the same run: a
    /// threaded, syscalling, memory-heavy guest produces identical
    /// stats, metrics and event traces under `Off` and `Fused` decoding
    /// with per-event and batched delivery.
    #[test]
    fn decoded_dispatch_matches_interpreted_reference() {
        use crate::recorder::TraceRecorder;
        use crate::stats::DecodeMode;

        let mut pb = ProgramBuilder::new();
        let g = pb.global(8);
        let sem = pb.semaphore(0);
        let worker = pb.function("worker", 1, |f| {
            let buf = f.alloc(16);
            let n = f.syscall(crate::kernel::SyscallNo::Read, 0, buf, 16, 0);
            let acc = f.copy(0);
            f.for_range(0, 24, |f, i| {
                let v = f.load(buf, i);
                let r = f.rand(7);
                let s = f.add(v, r);
                let t = f.add(acc, s);
                f.assign(acc, t);
                f.store(buf, i, t);
            });
            f.store(g.raw() as i64, 0, n);
            f.sem_signal(sem);
            f.ret(None);
        });
        let main = pb.function("main", 0, |f| {
            let a = f.spawn(worker, &[Operand::Imm(0)]);
            let b = f.spawn(worker, &[Operand::Imm(1)]);
            f.sem_wait(sem);
            f.sem_wait(sem);
            f.join(a);
            f.join(b);
        });
        let program = pb.finish(main).unwrap();

        let run = |decode: DecodeMode, event_batch: usize| {
            let cfg = RunConfig {
                policy: SchedPolicy::Random { seed: 17 },
                quantum: 3,
                trace_blocks: true,
                decode,
                event_batch,
                ..RunConfig::with_devices(vec![Device::Stream { seed: 5 }])
            };
            let mut vm = Vm::new(&program, cfg).unwrap();
            let mut rec = TraceRecorder::new();
            let stats = vm.run(&mut rec).unwrap();
            (stats, vm.metrics().to_json(), format!("{:?}", rec.traces()))
        };

        let reference = run(DecodeMode::Off, 1);
        for decode in [DecodeMode::Off, DecodeMode::Fused] {
            for batch in [1, 4, 128] {
                let got = run(decode, batch);
                assert_eq!(
                    got, reference,
                    "decode={decode} batch={batch} diverged from interpreted per-event run"
                );
            }
        }
    }

    #[test]
    fn metrics_of_an_aborted_run_still_audit_cleanly() {
        let cfg = RunConfig {
            max_instructions: 2_000,
            ..RunConfig::default()
        };
        let err = run_main(
            |f| {
                let head = f.new_block();
                f.jump(head);
                f.switch_to(head);
                let _ = f.add(1, 1);
                f.jump(head);
            },
            cfg.clone(),
        )
        .unwrap_err();
        assert_eq!(err, RunError::InstructionLimit { limit: 2_000 });
        let mut pb = ProgramBuilder::new();
        let main = pb.function("main", 0, |f| {
            let head = f.new_block();
            f.jump(head);
            f.switch_to(head);
            let _ = f.add(1, 1);
            f.jump(head);
        });
        let program = pb.finish(main).unwrap();
        let mut vm = Vm::new(&program, cfg).unwrap();
        vm.run(&mut NullTool).unwrap_err();
        let m = vm.metrics();
        assert_eq!(m.audit(), Ok(()), "graceful degradation includes metrics");
        assert!(m.counter("sched.preempt.abort") > 0, "abort slice counted");
    }
}
