//! A multi-threaded guest virtual machine with instrumentation hooks —
//! the simulated dynamic-binary-instrumentation substrate of the `drms`
//! workspace.
//!
//! The original system is a Valgrind tool; this crate replaces the DBI
//! layer with a small, fully observable execution substrate that preserves
//! the properties the profiling algorithms depend on:
//!
//! * **Serializing scheduler.** One guest thread runs at a time (as under
//!   Valgrind); a [`SchedPolicy`] hands out quanta measured in basic
//!   blocks, so different policies produce different interleavings.
//! * **Complete event stream.** Every call, return, memory access, kernel
//!   transfer, synchronization operation and thread switch is delivered to
//!   an attached [`Tool`] in one total order.
//! * **Kernel model.** Guest threads exchange data with external devices
//!   only through POSIX-flavoured system calls, mapped to `kernelToUser` /
//!   `userToKernel` events exactly as the paper's syscall wrappers do.
//! * **Basic-block costs.** The cost measure is executed basic blocks, the
//!   paper's metric; a simulated-nanoseconds mode adds timer-like noise.
//!
//! # Quick start
//!
//! ```
//! use drms_vm::{ProgramBuilder, run_program, RunConfig, NullTool};
//!
//! let mut pb = ProgramBuilder::new();
//! let main = pb.declare("main", 0);
//! pb.define(main, |f| {
//!     let acc = f.copy(0);
//!     f.for_range(0, 10, |f, i| {
//!         let s = f.add(acc, i);
//!         f.assign(acc, s);
//!     });
//!     f.ret(None);
//! });
//! let program = pb.finish(main).unwrap();
//! let stats = run_program(&program, RunConfig::default(), &mut NullTool::default()).unwrap();
//! assert!(stats.basic_blocks > 10);
//! ```

pub mod builder;
pub mod decode;
pub mod disasm;
pub mod fault;
pub mod interp;
pub mod ir;
pub mod kernel;
pub mod memory;
pub mod recorder;
pub mod rng;
pub mod sched;
pub mod shadow;
pub mod stats;
pub mod tool;

pub use builder::{BuildError, FnBuilder, ProgramBuilder};
pub use decode::{DecodeStats, DecodedProgram};
pub use disasm::{disassemble, routine_listing};
pub use fault::{FaultCounters, FaultKind, FaultPlan, FaultRule, FaultSpecError, FaultTrigger};
/// [`run_program`] under the name callers use for a concrete tool type.
pub use interp::run_program as run_program_with;
pub use interp::{run_program, BlockedThread, RunError, Vm, WaitTarget};
pub use ir::{BinOp, Block, Inst, Operand, Program, Reg, Routine, Terminator, ValidateError};
pub use kernel::{Device, Direction, Kernel, KernelError, Syscall, SyscallNo, TransferCounters};
pub use memory::Memory;
pub use recorder::TraceRecorder;
pub use rng::SmallRng;
pub use shadow::ShadowCacheStats;
pub use shadow::ShadowMemory;
pub use stats::{CostKind, DecodeMode, EventCounters, RunConfig, RunStats, SchedPolicy};
pub use tool::{MultiTool, NullTool};

pub use drms_trace::{replay_shards_into, BatchKind, EventBatch, Tool};

// Schedule model re-exports, so VM users need not depend on the trace
// crate directly to record or replay schedules.
pub use drms_trace::sched::{PreemptCause, SchedDecision};
pub use drms_trace::Schedule;
