//! The naive set-based algorithm (paper §3.1, Figure 7) — a slow but
//! obviously-correct oracle for differential testing.
//!
//! For every pending routine activation `r` of every thread `t` it keeps
//! an explicit set `L(r,t)` of memory locations, updated per the paper's
//! table: reads and writes by `t` insert into all of `t`'s pending sets;
//! writes by other threads (and kernel fills) remove from them. A read of
//! `ℓ` increments `drms(r,t)` exactly when `ℓ ∉ L(r,t)`.
//!
//! The rms oracle is the same construction without cross-thread removal.
//! Property tests assert that the timestamping algorithm matches this
//! oracle event-for-event on arbitrary interleavings.

use crate::profile::ProfileReport;
use drms_trace::{Addr, RoutineId, ThreadId};
use drms_vm::Tool;
use std::collections::HashSet;

struct Frame {
    routine: RoutineId,
    /// `L(r,t)`: locations accessed since activation, minus foreign-write
    /// invalidations.
    live: HashSet<u64>,
    /// Locations accessed since activation (never removed) — rms oracle.
    accessed: HashSet<u64>,
    drms: u64,
    rms: u64,
    entry_cost: u64,
}

#[derive(Default)]
struct ThreadState {
    stack: Vec<Frame>,
}

/// The naive oracle profiler.
///
/// Time is `O(stack depth)` per access and `O(threads × stack depth)` per
/// write, and space is proportional to the footprint times the stack
/// depth — use on small workloads only.
#[derive(Default)]
pub struct NaiveProfiler {
    threads: Vec<ThreadState>,
    report: ProfileReport,
}

impl NaiveProfiler {
    /// Creates a naive profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// The report collected so far.
    pub fn report(&self) -> &ProfileReport {
        &self.report
    }

    /// Consumes the profiler, yielding its report.
    pub fn into_report(self) -> ProfileReport {
        self.report
    }

    fn thread_mut(&mut self, t: ThreadId) -> &mut ThreadState {
        let idx = t.index() as usize;
        while self.threads.len() <= idx {
            self.threads.push(ThreadState::default());
        }
        &mut self.threads[idx]
    }

    fn read_cell(&mut self, t: ThreadId, cell: Addr) {
        let raw = cell.raw();
        let state = self.thread_mut(t);
        for frame in &mut state.stack {
            if frame.live.insert(raw) {
                frame.drms += 1;
            }
            if frame.accessed.insert(raw) {
                frame.rms += 1;
            }
        }
    }

    fn write_cell(&mut self, t: ThreadId, cell: Addr) {
        let raw = cell.raw();
        let own = t.index() as usize;
        for (idx, state) in self.threads.iter_mut().enumerate() {
            if idx == own {
                for frame in &mut state.stack {
                    frame.live.insert(raw);
                    frame.accessed.insert(raw);
                }
            } else {
                for frame in &mut state.stack {
                    frame.live.remove(&raw);
                }
            }
        }
    }

    fn kernel_write_cell(&mut self, cell: Addr) {
        let raw = cell.raw();
        // The kernel acts as a separate thread: invalidate everywhere.
        for state in &mut self.threads {
            for frame in &mut state.stack {
                frame.live.remove(&raw);
            }
        }
    }
}

impl Tool for NaiveProfiler {
    fn on_thread_start(&mut self, thread: ThreadId, _parent: Option<ThreadId>) {
        self.thread_mut(thread);
    }

    fn on_call(&mut self, thread: ThreadId, routine: RoutineId, cost: u64) {
        self.thread_mut(thread).stack.push(Frame {
            routine,
            live: HashSet::new(),
            accessed: HashSet::new(),
            drms: 0,
            rms: 0,
            entry_cost: cost,
        });
    }

    fn on_return(&mut self, thread: ThreadId, routine: RoutineId, cost: u64) {
        let state = self.thread_mut(thread);
        let Some(frame) = state.stack.pop() else {
            return;
        };
        debug_assert_eq!(frame.routine, routine, "unbalanced call stack");
        self.report.entry(frame.routine, thread).record(
            frame.rms,
            frame.drms,
            cost.saturating_sub(frame.entry_cost),
        );
    }

    fn on_read(&mut self, thread: ThreadId, addr: Addr, len: u32) {
        for cell in addr.range(len) {
            self.read_cell(thread, cell);
        }
    }

    fn on_write(&mut self, thread: ThreadId, addr: Addr, len: u32) {
        for cell in addr.range(len) {
            self.write_cell(thread, cell);
        }
    }

    fn on_user_to_kernel(&mut self, thread: ThreadId, addr: Addr, len: u32) {
        self.on_read(thread, addr, len);
    }

    fn on_kernel_to_user(&mut self, _thread: ThreadId, addr: Addr, len: u32) {
        for cell in addr.range(len) {
            self.kernel_write_cell(cell);
        }
    }

    fn on_thread_exit(&mut self, thread: ThreadId, cost: u64) {
        loop {
            let state = self.thread_mut(thread);
            let Some(frame) = state.stack.last() else {
                break;
            };
            let routine = frame.routine;
            self.on_return(thread, routine, cost);
        }
    }

    fn name(&self) -> &str {
        "naive-drms"
    }

    fn shadow_bytes(&self) -> u64 {
        let mut bytes = 0u64;
        for state in &self.threads {
            for frame in &state.stack {
                bytes += ((frame.live.len() + frame.accessed.len())
                    * std::mem::size_of::<u64>()
                    * 2) as u64;
            }
        }
        bytes + self.report.approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R0: RoutineId = RoutineId::new(0);
    const R1: RoutineId = RoutineId::new(1);
    const T0: ThreadId = ThreadId::new(0);
    const T1: ThreadId = ThreadId::new(1);

    #[test]
    fn figure_1a_oracle() {
        let mut p = NaiveProfiler::new();
        p.on_call(T0, R0, 0);
        p.on_read(T0, Addr::new(10), 1);
        p.on_call(T1, R1, 0);
        p.on_write(T1, Addr::new(10), 1);
        p.on_return(T1, R1, 0);
        p.on_read(T0, Addr::new(10), 1);
        p.on_return(T0, R0, 0);
        let report = p.into_report();
        let f = report.get(R0, T0).unwrap();
        assert_eq!(f.drms_plot(), vec![(2, 0)]);
        assert_eq!(f.rms_plot(), vec![(1, 0)]);
    }

    #[test]
    fn own_writes_do_not_invalidate() {
        let mut p = NaiveProfiler::new();
        p.on_call(T0, R0, 0);
        p.on_write(T0, Addr::new(4), 1);
        p.on_read(T0, Addr::new(4), 1);
        p.on_return(T0, R0, 2);
        let report = p.into_report();
        let f = report.get(R0, T0).unwrap();
        assert_eq!(f.drms_plot(), vec![(0, 2)]);
        assert_eq!(f.rms_plot(), vec![(0, 2)]);
    }

    #[test]
    fn kernel_fill_invalidates_all_threads() {
        let mut p = NaiveProfiler::new();
        p.on_call(T0, R0, 0);
        p.on_call(T1, R1, 0);
        p.on_read(T0, Addr::new(9), 1);
        p.on_read(T1, Addr::new(9), 1);
        p.on_kernel_to_user(T0, Addr::new(9), 1);
        p.on_read(T0, Addr::new(9), 1);
        p.on_read(T1, Addr::new(9), 1);
        p.on_return(T0, R0, 0);
        p.on_return(T1, R1, 0);
        let report = p.into_report();
        assert_eq!(report.get(R0, T0).unwrap().drms_plot(), vec![(2, 0)]);
        assert_eq!(report.get(R1, T1).unwrap().drms_plot(), vec![(2, 0)]);
    }

    #[test]
    fn event_sink_trait_object_usable() {
        let mut p = NaiveProfiler::new();
        {
            let sink: &mut dyn Tool = &mut p;
            sink.on_call(T0, R0, 0);
            sink.on_read(T0, Addr::new(1), 3);
            sink.on_thread_exit(T0, 9);
        }
        assert_eq!(p.name(), "naive-drms");
        let f = p.report().get(R0, T0).unwrap();
        assert_eq!(f.drms_plot(), vec![(3, 9)]);
    }
}
