//! The rms-only profiler — the `aprof` baseline (PLDI'12 latest-access
//! algorithm).
//!
//! Unlike [`DrmsProfiler`](crate::DrmsProfiler), this tool maintains *no*
//! global write-timestamp shadow: it tracks only per-thread access
//! timestamps and shadow stacks, so it cannot see dynamic workloads. It
//! exists for measurement fairness — Table 1 of the paper compares
//! `aprof` and `aprof-drms` head to head, and the rms tool must not pay
//! for the global shadow memory it does not use.

use crate::profile::ProfileReport;
use drms_trace::{Addr, RoutineId, ThreadId};
use drms_vm::{ShadowMemory, Tool};

struct Frame {
    routine: RoutineId,
    ts: u64,
    partial_rms: i64,
    entry_cost: u64,
}

struct ThreadState {
    /// 32-bit per-cell access timestamps, as in the original tool.
    ts: ShadowMemory<u32>,
    stack: Vec<Frame>,
}

/// The `aprof` baseline: computes the read memory size of every routine
/// activation using the latest-access timestamping algorithm.
///
/// Reports fill only the rms side of each
/// [`RoutineProfile`](crate::profile::RoutineProfile); drms fields mirror
/// the rms values (for this tool the two metrics coincide by
/// construction, as no dynamic input is observed).
///
/// # Example
/// ```
/// use drms_core::RmsProfiler;
/// use drms_vm::{ProgramBuilder, run_program, RunConfig};
///
/// let mut pb = ProgramBuilder::new();
/// let g = pb.global(4);
/// let main = pb.function("main", 0, |f| {
///     let _ = f.load(g.raw() as i64, 0);
///     let _ = f.load(g.raw() as i64, 1);
///     f.ret(None);
/// });
/// let program = pb.finish(main).unwrap();
/// let mut prof = RmsProfiler::new();
/// run_program(&program, RunConfig::default(), &mut prof).unwrap();
/// let p = prof.into_report().merged_routine(main);
/// assert_eq!(p.rms_plot()[0].0, 2);
/// ```
#[derive(Default)]
pub struct RmsProfiler {
    count: u64,
    threads: Vec<Option<ThreadState>>,
    report: ProfileReport,
}

impl RmsProfiler {
    /// Creates an rms profiler.
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
            self.threads.push(None);
        }
        self.threads[idx].get_or_insert_with(|| ThreadState {
            ts: ShadowMemory::new(),
            stack: Vec::new(),
        })
    }

    fn read_cell(&mut self, t: ThreadId, cell: Addr) {
        let count = self.count as u32;
        let state = self.thread_mut(t);
        let Some(top_idx) = state.stack.len().checked_sub(1) else {
            state.ts.set(cell, count);
            return;
        };
        let ts_l = state.ts.get(cell) as u64;
        if ts_l < state.stack[top_idx].ts {
            state.stack[top_idx].partial_rms += 1;
            if ts_l != 0 {
                let pp = state.stack.partition_point(|f| f.ts <= ts_l);
                if let Some(i) = pp.checked_sub(1) {
                    state.stack[i].partial_rms -= 1;
                }
            }
            let routine = state.stack[top_idx].routine;
            state.ts.set(cell, count);
            self.report.entry(routine, t).breakdown.plain += 1;
            return;
        }
        state.ts.set(cell, count);
    }
}

impl Tool for RmsProfiler {
    fn on_thread_start(&mut self, thread: ThreadId, _parent: Option<ThreadId>) {
        self.thread_mut(thread);
    }

    fn on_thread_switch(&mut self, _from: Option<ThreadId>, _to: ThreadId) {
        self.count += 1;
    }

    fn on_call(&mut self, thread: ThreadId, routine: RoutineId, cost: u64) {
        self.count += 1;
        // The baseline tool has no renumbering pass; its 32-bit stored
        // timestamps bound the executions it can observe (the full drms
        // profiler renumbers instead).
        assert!(
            self.count < u32::MAX as u64,
            "rms baseline exceeded its 32-bit timestamp budget"
        );
        let count = self.count;
        self.thread_mut(thread).stack.push(Frame {
            routine,
            ts: count,
            partial_rms: 0,
            entry_cost: cost,
        });
    }

    fn on_return(&mut self, thread: ThreadId, routine: RoutineId, cost: u64) {
        let state = self.thread_mut(thread);
        let Some(frame) = state.stack.pop() else {
            return;
        };
        debug_assert_eq!(frame.routine, routine, "unbalanced call stack");
        if let Some(parent) = state.stack.last_mut() {
            parent.partial_rms += frame.partial_rms;
        }
        let rms = frame.partial_rms.max(0) as u64;
        self.report.entry(frame.routine, thread).record(
            rms,
            rms,
            cost.saturating_sub(frame.entry_cost),
        );
    }

    fn on_read(&mut self, thread: ThreadId, addr: Addr, len: u32) {
        for cell in addr.range(len) {
            self.read_cell(thread, cell);
        }
    }

    fn on_write(&mut self, thread: ThreadId, addr: Addr, len: u32) {
        let count = self.count as u32;
        let state = self.thread_mut(thread);
        for cell in addr.range(len) {
            state.ts.set(cell, count);
        }
    }

    fn on_user_to_kernel(&mut self, thread: ThreadId, addr: Addr, len: u32) {
        self.on_read(thread, addr, len);
    }

    // kernelToUser is intentionally ignored: aprof cannot observe kernel
    // writes into user buffers, which is the limitation drms removes.

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
        "aprof"
    }

    fn shadow_bytes(&self) -> u64 {
        let mut bytes = 0;
        for state in self.threads.iter().flatten() {
            bytes += state.ts.bytes();
            bytes += (state.stack.capacity() * std::mem::size_of::<Frame>()) as u64;
        }
        bytes + self.report.approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drms::{DrmsConfig, DrmsProfiler};
    use drms_trace::{Event, ThreadTrace};

    const R0: RoutineId = RoutineId::new(0);
    const T0: ThreadId = ThreadId::new(0);
    const T1: ThreadId = ThreadId::new(1);

    fn drive(events: Vec<(ThreadId, Event)>) -> ProfileReport {
        let mut traces: Vec<ThreadTrace> = Vec::new();
        for (i, (t, e)) in events.into_iter().enumerate() {
            let idx = t.index() as usize;
            while traces.len() <= idx {
                traces.push(ThreadTrace::new(ThreadId::new(traces.len() as u32)));
            }
            traces[idx].push(i as u64 + 1, 0, e);
        }
        let merged = drms_trace::merge_traces(traces);
        let mut prof = RmsProfiler::new();
        drms_trace::replay(&merged, &mut prof);
        prof.into_report()
    }

    #[test]
    fn rms_ignores_cross_thread_writes() {
        let report = drive(vec![
            (T0, Event::Call { routine: R0 }),
            (
                T0,
                Event::Read {
                    addr: Addr::new(5),
                    len: 1,
                },
            ),
            (
                T1,
                Event::Call {
                    routine: RoutineId::new(1),
                },
            ),
            (
                T1,
                Event::Write {
                    addr: Addr::new(5),
                    len: 1,
                },
            ),
            (
                T1,
                Event::Return {
                    routine: RoutineId::new(1),
                },
            ),
            (
                T0,
                Event::Read {
                    addr: Addr::new(5),
                    len: 1,
                },
            ),
            (T0, Event::Return { routine: R0 }),
        ]);
        let p = report.get(R0, T0).unwrap();
        assert_eq!(p.rms_plot(), vec![(1, 0)], "second read is not new input");
    }

    #[test]
    fn rms_ignores_kernel_fills() {
        let report = drive(vec![
            (T0, Event::Call { routine: R0 }),
            (
                T0,
                Event::KernelToUser {
                    addr: Addr::new(8),
                    len: 2,
                },
            ),
            (
                T0,
                Event::Read {
                    addr: Addr::new(8),
                    len: 1,
                },
            ),
            (
                T0,
                Event::KernelToUser {
                    addr: Addr::new(8),
                    len: 2,
                },
            ),
            (
                T0,
                Event::Read {
                    addr: Addr::new(8),
                    len: 1,
                },
            ),
            (T0, Event::Return { routine: R0 }),
        ]);
        let p = report.get(R0, T0).unwrap();
        assert_eq!(p.rms_plot(), vec![(1, 0)]);
    }

    /// On single-threaded executions without kernel input, rms (aprof)
    /// and drms (aprof-drms) agree on every activation.
    #[test]
    fn agrees_with_drms_on_static_workloads() {
        let mk = || {
            let mut evs = vec![(T0, Event::Call { routine: R0 })];
            for i in 0..30u64 {
                evs.push((
                    T0,
                    Event::Call {
                        routine: RoutineId::new(1),
                    },
                ));
                evs.push((
                    T0,
                    Event::Read {
                        addr: Addr::new(100 + i % 11),
                        len: 1,
                    },
                ));
                evs.push((
                    T0,
                    Event::Write {
                        addr: Addr::new(200 + i % 7),
                        len: 1,
                    },
                ));
                evs.push((
                    T0,
                    Event::Read {
                        addr: Addr::new(200 + i % 7),
                        len: 1,
                    },
                ));
                evs.push((
                    T0,
                    Event::Return {
                        routine: RoutineId::new(1),
                    },
                ));
            }
            evs.push((T0, Event::Return { routine: R0 }));
            evs
        };
        let rms_report = drive(mk());
        let mut traces: Vec<ThreadTrace> = vec![ThreadTrace::new(T0)];
        for (i, (_, e)) in mk().into_iter().enumerate() {
            traces[0].push(i as u64 + 1, 0, e);
        }
        let merged = drms_trace::merge_traces(traces);
        let mut drms = DrmsProfiler::new(DrmsConfig::full());
        drms_trace::replay(&merged, &mut drms);
        let drms_report = drms.into_report();
        for (&(r, t), p) in rms_report.iter() {
            let q = drms_report.get(r, t).expect("same routines profiled");
            assert_eq!(p.by_rms, q.by_rms, "rms tables agree");
            assert_eq!(p.by_rms, q.by_drms, "drms degenerates to rms");
        }
    }

    #[test]
    fn tool_metadata() {
        let mut p = RmsProfiler::new();
        p.on_call(T0, R0, 0);
        p.on_write(T0, Addr::new(64), 16);
        assert_eq!(p.name(), "aprof");
        assert!(p.shadow_bytes() > 0);
        p.on_thread_exit(T0, 5);
        assert_eq!(p.report().get(R0, T0).unwrap().calls, 1);
    }
}
