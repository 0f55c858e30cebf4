//! Instrumentation events.
//!
//! An [`Event`] is one observable operation of a guest execution: routine
//! activations and completions, memory accesses, kernel-mediated transfers
//! (`userToKernel` / `kernelToUser`), thread lifecycle and synchronization
//! operations. A [`TimedEvent`] couples an event with the issuing thread, a
//! global timestamp, and the thread's cumulative cost at that point.

use crate::ids::{Addr, BlockId, RoutineId, ThreadId};
use std::fmt;

/// A synchronization operation performed by a guest thread.
///
/// Synchronization events carry no memory semantics for the profiling
/// algorithms (the paper explicitly disregards memory accesses due to
/// semaphore operations) but are consumed by happens-before analyses such
/// as the `helgrind`-like race detector.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum SyncOp {
    /// `wait` (P) on the semaphore with the given index.
    SemWait(u32),
    /// `signal` (V) on the semaphore with the given index.
    SemSignal(u32),
    /// Lock acquisition of the mutex with the given index.
    MutexLock(u32),
    /// Lock release of the mutex with the given index.
    MutexUnlock(u32),
    /// Condition-variable wait (atomically releases the paired mutex).
    CondWait { cond: u32, mutex: u32 },
    /// Condition-variable signal.
    CondSignal(u32),
    /// Condition-variable broadcast.
    CondBroadcast(u32),
    /// Creation of a new thread.
    Spawn { child: ThreadId },
    /// Join on a previously spawned thread.
    Join { child: ThreadId },
}

impl fmt::Display for SyncOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncOp::SemWait(s) => write!(f, "sem_wait({s})"),
            SyncOp::SemSignal(s) => write!(f, "sem_signal({s})"),
            SyncOp::MutexLock(m) => write!(f, "mutex_lock({m})"),
            SyncOp::MutexUnlock(m) => write!(f, "mutex_unlock({m})"),
            SyncOp::CondWait { cond, mutex } => write!(f, "cond_wait({cond},{mutex})"),
            SyncOp::CondSignal(c) => write!(f, "cond_signal({c})"),
            SyncOp::CondBroadcast(c) => write!(f, "cond_broadcast({c})"),
            SyncOp::Spawn { child } => write!(f, "spawn({child})"),
            SyncOp::Join { child } => write!(f, "join({child})"),
        }
    }
}

/// Kind of one batched memory event: the entries of the VM's
/// struct-of-arrays `EventBatch` and of a shard's `BATCH` record. The
/// discriminant is the entry's shard record kind byte.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum BatchKind {
    /// A guest load (`on_read`).
    Read = 0,
    /// A guest store (`on_write`).
    Write = 1,
}

/// One observable operation of a guest execution.
///
/// The `Read`/`Write`/`UserToKernel`/`KernelToUser` variants describe a
/// contiguous range of `len` cells starting at `addr`; profiling algorithms
/// expand ranges to individual cells.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Event {
    /// Activation of a routine.
    Call { routine: RoutineId },
    /// Completion of the topmost pending routine activation.
    Return { routine: RoutineId },
    /// A memory load performed by guest code.
    Read { addr: Addr, len: u32 },
    /// A memory store performed by guest code.
    Write { addr: Addr, len: u32 },
    /// The kernel reads a user buffer on behalf of the thread (output
    /// system calls: `write`, `sendto`, `pwrite64`, `writev`, `msgsnd`, …).
    UserToKernel { addr: Addr, len: u32 },
    /// The kernel fills a user buffer with external data (input system
    /// calls: `read`, `recvfrom`, `pread64`, `readv`, `msgrcv`, …).
    KernelToUser { addr: Addr, len: u32 },
    /// First event of every thread.
    ThreadStart { parent: Option<ThreadId> },
    /// Last event of every thread.
    ThreadExit,
    /// A synchronization operation.
    Sync { op: SyncOp },
    /// Entry into a basic block (the unit of the paper's cost measure).
    Block { routine: RoutineId, block: BlockId },
}

impl Event {
    /// Returns the `(addr, len)` range touched by memory-carrying events.
    pub fn mem_range(&self) -> Option<(Addr, u32)> {
        match *self {
            Event::Read { addr, len }
            | Event::Write { addr, len }
            | Event::UserToKernel { addr, len }
            | Event::KernelToUser { addr, len } => Some((addr, len)),
            _ => None,
        }
    }

    /// Whether this event is mediated by a kernel system call.
    pub fn is_kernel(&self) -> bool {
        matches!(
            self,
            Event::UserToKernel { .. } | Event::KernelToUser { .. }
        )
    }

    /// A short mnemonic for the event kind, used by the text codec.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Event::Call { .. } => "call",
            Event::Return { .. } => "ret",
            Event::Read { .. } => "rd",
            Event::Write { .. } => "wr",
            Event::UserToKernel { .. } => "u2k",
            Event::KernelToUser { .. } => "k2u",
            Event::ThreadStart { .. } => "tstart",
            Event::ThreadExit => "texit",
            Event::Sync { .. } => "sync",
            Event::Block { .. } => "bb",
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Call { routine } => write!(f, "call {routine}"),
            Event::Return { routine } => write!(f, "ret {routine}"),
            Event::Read { addr, len } => write!(f, "rd {addr}+{len}"),
            Event::Write { addr, len } => write!(f, "wr {addr}+{len}"),
            Event::UserToKernel { addr, len } => write!(f, "u2k {addr}+{len}"),
            Event::KernelToUser { addr, len } => write!(f, "k2u {addr}+{len}"),
            Event::ThreadStart { parent: Some(p) } => write!(f, "tstart<-{p}"),
            Event::ThreadStart { parent: None } => write!(f, "tstart"),
            Event::ThreadExit => write!(f, "texit"),
            Event::Sync { op } => write!(f, "sync {op}"),
            Event::Block { routine, block } => write!(f, "bb {routine}:{block}"),
        }
    }
}

/// An [`Event`] with its issuing thread, global timestamp and the thread's
/// cumulative cost (executed basic blocks by default) at emission time.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct TimedEvent {
    /// Global timestamp; traces of different threads are merged by this key.
    pub time: u64,
    /// The thread that issued the event.
    pub thread: ThreadId,
    /// Cumulative cost of `thread` when the event was emitted.
    pub cost: u64,
    /// The operation itself.
    pub event: Event,
}

impl TimedEvent {
    /// Convenience constructor.
    pub fn new(time: u64, thread: ThreadId, cost: u64, event: Event) -> Self {
        TimedEvent {
            time,
            thread,
            cost,
            event,
        }
    }
}

impl fmt::Display for TimedEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} {} c={}] {}",
            self.time, self.thread, self.cost, self.event
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_range_extraction() {
        let e = Event::Read {
            addr: Addr::new(8),
            len: 4,
        };
        assert_eq!(e.mem_range(), Some((Addr::new(8), 4)));
        assert_eq!(Event::ThreadExit.mem_range(), None);
        assert!(Event::KernelToUser {
            addr: Addr::new(1),
            len: 1
        }
        .is_kernel());
        assert!(!e.is_kernel());
    }

    #[test]
    fn display_forms() {
        let e = TimedEvent::new(
            5,
            ThreadId::new(1),
            42,
            Event::Call {
                routine: RoutineId::new(3),
            },
        );
        assert_eq!(e.to_string(), "[5 T1 c=42] call R3");
        assert_eq!(
            Event::Sync {
                op: SyncOp::SemWait(2)
            }
            .to_string(),
            "sync sem_wait(2)"
        );
    }

    #[test]
    fn mnemonics_are_distinct_per_kind() {
        let events = [
            Event::Call {
                routine: RoutineId::new(0),
            },
            Event::Return {
                routine: RoutineId::new(0),
            },
            Event::Read {
                addr: Addr::new(0),
                len: 1,
            },
            Event::Write {
                addr: Addr::new(0),
                len: 1,
            },
            Event::UserToKernel {
                addr: Addr::new(0),
                len: 1,
            },
            Event::KernelToUser {
                addr: Addr::new(0),
                len: 1,
            },
            Event::ThreadStart { parent: None },
            Event::ThreadExit,
            Event::Sync {
                op: SyncOp::CondSignal(0),
            },
            Event::Block {
                routine: RoutineId::new(0),
                block: BlockId::new(0),
            },
        ];
        let mut seen = std::collections::HashSet::new();
        for e in events {
            assert!(
                seen.insert(e.mnemonic()),
                "duplicate mnemonic {}",
                e.mnemonic()
            );
        }
    }
}
