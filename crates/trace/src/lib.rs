//! Execution-trace event model for input-sensitive profiling.
//!
//! This crate defines the vocabulary shared by the whole `drms` workspace:
//!
//! * [`ids`] — strongly-typed identifiers for threads, routines, memory
//!   addresses and basic blocks;
//! * [`event`] — the instrumentation events a dynamic-analysis substrate
//!   produces (`call`, `return`, `read`, `write`, `userToKernel`,
//!   `kernelToUser`, synchronization operations, …);
//! * [`trace`] — per-thread recorded traces of timestamped events;
//! * [`merge`] — merging per-thread traces into a single totally-ordered
//!   execution trace, breaking timestamp ties arbitrarily (Section 3 of the
//!   paper);
//! * [`replay()`] — feeding a merged trace back into an [`EventSink`], the
//!   consumer-side trait implemented by profilers, with `switchThread`
//!   notifications synthesized between events of different threads;
//! * [`codec`] — a plain-text serialization of traces for golden tests and
//!   offline analysis, read through the checked-line core in [`lines`]
//!   that the schedule, journal and shard formats share;
//! * [`faultspec`] — the fault-trigger grammar shared by the kernel and
//!   host fault plans;
//! * [`shard`] — the out-of-core binary trace: a [`ShardWriter`] that
//!   records as an [`EventSink`], per-thread shard files, and a
//!   salvaging [`ShardSet`] loader that hands the runs back in global
//!   order. [`BatchKind`] names the batched read/write entries of both
//!   the VM's event batch and the shard format.
//!
//! The design mirrors the paper's model: the profiler is given per-thread
//! traces of timestamped operations, which are logically merged into one
//! totally-ordered execution trace (ties between threads broken
//! arbitrarily) before being consumed by the profiling algorithm.
//!
//! # Example
//!
//! ```
//! use drms_trace::{Event, ThreadId, RoutineId, Addr, ThreadTrace, merge_traces};
//!
//! let t0 = ThreadId::new(0);
//! let mut tr = ThreadTrace::new(t0);
//! tr.push(1, 0, Event::Call { routine: RoutineId::new(0) });
//! tr.push(2, 1, Event::Read { addr: Addr::new(0x10), len: 1 });
//! tr.push(3, 2, Event::Return { routine: RoutineId::new(0) });
//! let merged = merge_traces(vec![tr]);
//! assert_eq!(merged.len(), 3);
//! ```

pub mod codec;
pub mod event;
pub mod faultspec;
pub mod hostio;
pub mod ids;
pub mod journal;
pub mod lines;
pub mod merge;
pub mod obs;
pub mod replay;
pub mod sched;
pub mod shard;
pub mod stats;
pub mod trace;

pub use codec::{from_text, from_text_lossy, to_text};
pub use event::{BatchKind, Event, SyncOp, TimedEvent};
pub use faultspec::{FaultSpecError, FaultTrigger};
pub use hostio::{HostFaultPlan, HostIo};
pub use ids::{Addr, BlockId, NameTable, RoutineId, ThreadId};
pub use journal::{JournalRecord, ParseJournalError};
pub use lines::{fnv1a, ParseLineError, Salvaged};
pub use merge::{merge_traces, merge_traces_with_ties, TieBreaker};
pub use obs::{Histogram, MergeError, Metrics};
pub use replay::{replay, EventSink};
pub use sched::{PreemptCause, SchedDecision, Schedule};
pub use shard::{
    SalvagedShard, ShardBatch, ShardEvent, ShardFrame, ShardRecord, ShardSet, ShardSummary,
    ShardWriter,
};
pub use stats::TraceStats;
pub use trace::ThreadTrace;
