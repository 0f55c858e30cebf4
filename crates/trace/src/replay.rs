//! The event-consumer interface, and replaying a merged trace into it.
//!
//! [`Tool`] is the analogue of a Valgrind tool plugin and the
//! consumer-side interface of the profiling algorithms: one callback per
//! event kind, plus `on_thread_switch`, which [`replay`] synthesizes
//! between any two consecutive events issued by different threads —
//! mirroring the paper's assumption that `switchThread` events are
//! inserted in the merged trace. A tool also names itself and reports how
//! much shadow state it allocated, which backs the paper's space overhead
//! measurements.
//!
//! Live execution substrates (the guest VM) drive the same trait directly,
//! so a profiler behaves identically online and offline; an integration
//! test asserts this equivalence.

use crate::batch::{BatchKind, EventBatch};
use crate::event::{Event, SyncOp, TimedEvent};
use crate::ids::{Addr, BlockId, RoutineId, ThreadId};
use crate::obs::Metrics;

/// A dynamic-analysis tool: the consumer of a totally-ordered
/// instrumentation event stream.
///
/// Every callback has an empty default body, so a tool only overrides
/// what it observes. `cost` arguments carry the issuing thread's
/// cumulative cost (executed basic blocks by default) at the time of the
/// event. [`Tool::shadow_bytes`] reports host bytes spent on analysis
/// metadata (shadow memories, shadow stacks, profile tables) and is
/// sampled after the run for space-overhead accounting.
pub trait Tool {
    /// A new thread begins; `parent` is `None` for the main thread.
    fn on_thread_start(&mut self, thread: ThreadId, parent: Option<ThreadId>) {
        let _ = (thread, parent);
    }
    /// A thread terminates.
    fn on_thread_exit(&mut self, thread: ThreadId, cost: u64) {
        let _ = (thread, cost);
    }
    /// Control passes from thread `from` (if any ran before) to `to`.
    fn on_thread_switch(&mut self, from: Option<ThreadId>, to: ThreadId) {
        let _ = (from, to);
    }
    /// Routine activation.
    fn on_call(&mut self, thread: ThreadId, routine: RoutineId, cost: u64) {
        let _ = (thread, routine, cost);
    }
    /// Routine completion.
    fn on_return(&mut self, thread: ThreadId, routine: RoutineId, cost: u64) {
        let _ = (thread, routine, cost);
    }
    /// Memory load of `len` cells at `addr`.
    fn on_read(&mut self, thread: ThreadId, addr: Addr, len: u32) {
        let _ = (thread, addr, len);
    }
    /// Memory store of `len` cells at `addr`.
    fn on_write(&mut self, thread: ThreadId, addr: Addr, len: u32) {
        let _ = (thread, addr, len);
    }
    /// The kernel reads a user buffer (output system call).
    fn on_user_to_kernel(&mut self, thread: ThreadId, addr: Addr, len: u32) {
        let _ = (thread, addr, len);
    }
    /// The kernel fills a user buffer with external data (input syscall).
    fn on_kernel_to_user(&mut self, thread: ThreadId, addr: Addr, len: u32) {
        let _ = (thread, addr, len);
    }
    /// A synchronization operation.
    fn on_sync(&mut self, thread: ThreadId, op: SyncOp) {
        let _ = (thread, op);
    }
    /// Entry into a basic block.
    fn on_block(&mut self, thread: ThreadId, routine: RoutineId, block: BlockId) {
        let _ = (thread, routine, block);
    }
    /// The execution is complete; no further events will arrive.
    fn on_finish(&mut self) {}

    /// Short tool name used in reports (e.g. `"aprof-drms"`).
    fn name(&self) -> &str;

    /// Host bytes currently allocated for analysis metadata.
    fn shadow_bytes(&self) -> u64 {
        0
    }

    /// Folds this tool's observability data into the run's metrics
    /// registry. Called once after the run, never on the hot path.
    ///
    /// The default contribution is a `tool.<name>.shadow_bytes` gauge;
    /// tools with richer internal state (shadow-memory caches, profile
    /// tables) override this to add their own deterministic counters.
    fn observe_metrics(&self, metrics: &mut Metrics) {
        metrics.set_gauge(
            format!("tool.{}.shadow_bytes", self.name()),
            self.shadow_bytes(),
        );
    }

    /// Delivers a batch of buffered read/write events, in emission order.
    ///
    /// The VM's decoded dispatch loop calls this instead of per-event
    /// [`Tool::on_read`]/[`Tool::on_write`] when its configured event
    /// batch holds more than one event. The default implementation
    /// replays the batch through those per-event hooks, so existing tools
    /// observe an identical stream; tools with a native batch path (the
    /// drms profiler, memcheck, the shard writer) override this to
    /// amortize per-delivery setup over the whole batch.
    ///
    /// Every entry belongs to [`EventBatch::thread`]; the VM flushes
    /// before any other event kind, so overriding implementations may
    /// assume no call/return/sync/kernel event interleaves a batch.
    fn observe_batch(&mut self, batch: &EventBatch) {
        let thread = batch.thread();
        for (kind, addr, len) in batch.entries() {
            match kind {
                BatchKind::Read => self.on_read(thread, addr, len),
                BatchKind::Write => self.on_write(thread, addr, len),
            }
        }
    }
}

/// Replays a merged, totally-ordered event stream into `sink`, synthesizing
/// `on_thread_switch` notifications whenever consecutive events belong to
/// different threads, and calling [`Tool::on_finish`] at the end.
///
/// # Example
/// ```
/// use drms_trace::{replay, Tool, TimedEvent, Event, ThreadId, RoutineId};
///
/// #[derive(Default)]
/// struct CallCounter(u64);
/// impl Tool for CallCounter {
///     fn on_call(&mut self, _: ThreadId, _: RoutineId, _: u64) { self.0 += 1; }
///     fn name(&self) -> &str { "call-counter" }
/// }
///
/// let evs = vec![TimedEvent::new(1, ThreadId::MAIN, 0,
///     Event::Call { routine: RoutineId::new(0) })];
/// let mut sink = CallCounter::default();
/// replay(&evs, &mut sink);
/// assert_eq!(sink.0, 1);
/// ```
pub fn replay<S: Tool + ?Sized>(events: &[TimedEvent], sink: &mut S) {
    let mut current: Option<ThreadId> = None;
    for ev in events {
        if current != Some(ev.thread) {
            sink.on_thread_switch(current, ev.thread);
            current = Some(ev.thread);
        }
        dispatch(ev, sink);
    }
    sink.on_finish();
}

fn dispatch<S: Tool + ?Sized>(ev: &TimedEvent, sink: &mut S) {
    let t = ev.thread;
    match ev.event {
        Event::Call { routine } => sink.on_call(t, routine, ev.cost),
        Event::Return { routine } => sink.on_return(t, routine, ev.cost),
        Event::Read { addr, len } => sink.on_read(t, addr, len),
        Event::Write { addr, len } => sink.on_write(t, addr, len),
        Event::UserToKernel { addr, len } => sink.on_user_to_kernel(t, addr, len),
        Event::KernelToUser { addr, len } => sink.on_kernel_to_user(t, addr, len),
        Event::ThreadStart { parent } => sink.on_thread_start(t, parent),
        Event::ThreadExit => sink.on_thread_exit(t, ev.cost),
        Event::Sync { op } => sink.on_sync(t, op),
        Event::Block { routine, block } => sink.on_block(t, routine, block),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Recorder {
        switches: Vec<(Option<ThreadId>, ThreadId)>,
        calls: Vec<(ThreadId, RoutineId, u64)>,
        reads: u64,
        finished: bool,
    }

    impl Tool for Recorder {
        fn name(&self) -> &str {
            "recorder"
        }
        fn on_thread_switch(&mut self, from: Option<ThreadId>, to: ThreadId) {
            self.switches.push((from, to));
        }
        fn on_call(&mut self, thread: ThreadId, routine: RoutineId, cost: u64) {
            self.calls.push((thread, routine, cost));
        }
        fn on_read(&mut self, _: ThreadId, _: Addr, len: u32) {
            self.reads += len as u64;
        }
        fn on_finish(&mut self) {
            self.finished = true;
        }
    }

    fn ev(time: u64, tid: u32, event: Event) -> TimedEvent {
        TimedEvent::new(time, ThreadId::new(tid), time, event)
    }

    #[test]
    fn synthesizes_thread_switches() {
        let events = vec![
            ev(
                1,
                0,
                Event::Call {
                    routine: RoutineId::new(0),
                },
            ),
            ev(
                2,
                1,
                Event::Call {
                    routine: RoutineId::new(1),
                },
            ),
            ev(
                3,
                1,
                Event::Read {
                    addr: Addr::new(4),
                    len: 2,
                },
            ),
            ev(
                4,
                0,
                Event::Read {
                    addr: Addr::new(8),
                    len: 1,
                },
            ),
        ];
        let mut rec = Recorder::default();
        replay(&events, &mut rec);
        assert_eq!(
            rec.switches,
            vec![
                (None, ThreadId::new(0)),
                (Some(ThreadId::new(0)), ThreadId::new(1)),
                (Some(ThreadId::new(1)), ThreadId::new(0)),
            ]
        );
        assert_eq!(rec.calls.len(), 2);
        assert_eq!(rec.reads, 3);
        assert!(rec.finished);
    }

    #[test]
    fn no_switch_within_same_thread_run() {
        let events = vec![
            ev(1, 5, Event::ThreadStart { parent: None }),
            ev(2, 5, Event::ThreadExit),
        ];
        let mut rec = Recorder::default();
        replay(&events, &mut rec);
        assert_eq!(rec.switches.len(), 1);
    }

    #[test]
    fn empty_stream_still_finishes() {
        let mut rec = Recorder::default();
        replay(&[], &mut rec);
        assert!(rec.finished);
        assert!(rec.switches.is_empty());
    }

    #[test]
    fn dispatch_covers_all_variants() {
        // Smoke-test that every event kind routes without panicking.
        let all = vec![
            ev(1, 0, Event::ThreadStart { parent: None }),
            ev(
                2,
                0,
                Event::Call {
                    routine: RoutineId::new(0),
                },
            ),
            ev(
                3,
                0,
                Event::Block {
                    routine: RoutineId::new(0),
                    block: BlockId::new(0),
                },
            ),
            ev(
                4,
                0,
                Event::Read {
                    addr: Addr::new(1),
                    len: 1,
                },
            ),
            ev(
                5,
                0,
                Event::Write {
                    addr: Addr::new(1),
                    len: 1,
                },
            ),
            ev(
                6,
                0,
                Event::UserToKernel {
                    addr: Addr::new(1),
                    len: 1,
                },
            ),
            ev(
                7,
                0,
                Event::KernelToUser {
                    addr: Addr::new(1),
                    len: 1,
                },
            ),
            ev(
                8,
                0,
                Event::Sync {
                    op: SyncOp::SemSignal(0),
                },
            ),
            ev(
                9,
                0,
                Event::Return {
                    routine: RoutineId::new(0),
                },
            ),
            ev(10, 0, Event::ThreadExit),
        ];
        let mut rec = Recorder::default();
        replay(&all, &mut rec);
        assert!(rec.finished);
    }
}
