//! Recording executions as per-thread traces.
//!
//! [`TraceRecorder`] is a [`Tool`] that captures the instrumentation event
//! stream into per-thread [`ThreadTrace`]s, timestamped in global emission
//! order. Merging the recorded traces and replaying them reproduces the
//! online event stream exactly (modulo redundant thread-switch
//! notifications, which carry no information) — the equivalence the
//! paper's offline trace-merging formulation relies on.

use drms_trace::{Addr, BlockId, Event, RoutineId, SyncOp, ThreadId, ThreadTrace, Tool};

/// A tool that records every event into per-thread traces.
///
/// # Example
/// ```
/// use drms_vm::{ProgramBuilder, run_program, RunConfig, TraceRecorder};
/// use drms_trace::merge_traces;
///
/// let mut pb = ProgramBuilder::new();
/// let main = pb.declare("main", 0);
/// pb.define(main, |f| { let _ = f.add(1, 1); f.ret(None); });
/// let program = pb.finish(main).unwrap();
/// let mut rec = TraceRecorder::new();
/// run_program(&program, RunConfig::default(), &mut rec).unwrap();
/// let merged = merge_traces(rec.into_traces());
/// assert!(!merged.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct TraceRecorder {
    traces: Vec<ThreadTrace>,
    last_cost: Vec<u64>,
    clock: u64,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The traces recorded so far, indexed by thread id.
    pub fn traces(&self) -> &[ThreadTrace] {
        &self.traces
    }

    /// Consumes the recorder, yielding its per-thread traces.
    pub fn into_traces(self) -> Vec<ThreadTrace> {
        self.traces
    }

    /// Total recorded events across all threads.
    pub fn event_count(&self) -> usize {
        self.traces.iter().map(ThreadTrace::len).sum()
    }

    fn record(&mut self, thread: ThreadId, cost: Option<u64>, event: Event) {
        let idx = thread.index() as usize;
        while self.traces.len() <= idx {
            self.traces
                .push(ThreadTrace::new(ThreadId::new(self.traces.len() as u32)));
            self.last_cost.push(0);
        }
        // Events without an intrinsic cost (memory accesses, sync ops)
        // carry the thread's last known cumulative cost, keeping each
        // per-thread trace's cost column monotone.
        let cost = match cost {
            Some(c) => {
                self.last_cost[idx] = c;
                c
            }
            None => self.last_cost[idx],
        };
        self.clock += 1;
        self.traces[idx].push(self.clock, cost, event);
    }
}

impl Tool for TraceRecorder {
    fn name(&self) -> &str {
        "trace-recorder"
    }

    fn on_thread_start(&mut self, thread: ThreadId, parent: Option<ThreadId>) {
        self.record(thread, Some(0), Event::ThreadStart { parent });
    }
    fn on_thread_exit(&mut self, thread: ThreadId, cost: u64) {
        self.record(thread, Some(cost), Event::ThreadExit);
    }
    fn on_call(&mut self, thread: ThreadId, routine: RoutineId, cost: u64) {
        self.record(thread, Some(cost), Event::Call { routine });
    }
    fn on_return(&mut self, thread: ThreadId, routine: RoutineId, cost: u64) {
        self.record(thread, Some(cost), Event::Return { routine });
    }
    fn on_read(&mut self, thread: ThreadId, addr: Addr, len: u32) {
        self.record(thread, None, Event::Read { addr, len });
    }
    fn on_write(&mut self, thread: ThreadId, addr: Addr, len: u32) {
        self.record(thread, None, Event::Write { addr, len });
    }
    fn on_user_to_kernel(&mut self, thread: ThreadId, addr: Addr, len: u32) {
        self.record(thread, None, Event::UserToKernel { addr, len });
    }
    fn on_kernel_to_user(&mut self, thread: ThreadId, addr: Addr, len: u32) {
        self.record(thread, None, Event::KernelToUser { addr, len });
    }
    fn on_sync(&mut self, thread: ThreadId, op: SyncOp) {
        self.record(thread, None, Event::Sync { op });
    }
    fn on_block(&mut self, thread: ThreadId, routine: RoutineId, block: BlockId) {
        self.record(thread, None, Event::Block { routine, block });
    }

    fn shadow_bytes(&self) -> u64 {
        self.traces
            .iter()
            .map(|t| (t.len() * std::mem::size_of::<drms_trace::TimedEvent>()) as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::interp::run_program;
    use crate::stats::RunConfig;
    use drms_trace::merge_traces;

    #[test]
    fn records_monotone_valid_traces() {
        let mut pb = ProgramBuilder::new();
        let worker = pb.function("worker", 0, |f| {
            let buf = f.alloc(4);
            f.store(buf, 0, 1);
            let _ = f.load(buf, 0);
            f.ret(None);
        });
        let main = pb.function("main", 0, |f| {
            let t = f.spawn(worker, &[]);
            f.join(t);
            f.ret(None);
        });
        let program = pb.finish(main).unwrap();
        let mut rec = TraceRecorder::new();
        run_program(&program, RunConfig::default(), &mut rec).unwrap();
        assert_eq!(rec.traces().len(), 2);
        for t in rec.traces() {
            t.validate().expect("well-formed per-thread trace");
        }
        assert!(rec.event_count() > 6);
        assert!(rec.shadow_bytes() > 0);
        let merged = merge_traces(rec.into_traces());
        // Strictly increasing global clock means the merge is unambiguous.
        assert!(merged.windows(2).all(|w| w[0].time < w[1].time));
    }
}
