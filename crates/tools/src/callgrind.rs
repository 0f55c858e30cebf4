//! `callgrind`-like call-graph profiler.
//!
//! Builds the dynamic call graph with per-arc call counts and inclusive
//! costs, plus per-routine inclusive/exclusive basic-block totals. It
//! traces only calls and returns (no per-access shadowing), matching the
//! cost profile of a call-graph generator in the paper's tool comparison.

use drms_trace::{RoutineId, ThreadId};
use drms_vm::Tool;
use std::collections::HashMap;

/// Statistics of one call-graph arc (caller → callee).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ArcStats {
    /// Number of calls along this arc.
    pub calls: u64,
    /// Total inclusive cost of those calls.
    pub inclusive_cost: u64,
}

/// Per-routine aggregate costs.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RoutineCost {
    /// Activations observed.
    pub calls: u64,
    /// Cost including descendants.
    pub inclusive: u64,
    /// Cost excluding descendants.
    pub exclusive: u64,
}

#[derive(Clone, Debug)]
struct Frame {
    routine: RoutineId,
    entry_cost: u64,
    callee_cost: u64,
    caller: Option<RoutineId>,
}

/// A call-graph generating profiler in the spirit of `callgrind`.
///
/// # Example
/// ```
/// use drms_tools::CallgrindTool;
/// use drms_vm::{ProgramBuilder, run_program, RunConfig};
///
/// let mut pb = ProgramBuilder::new();
/// let leaf = pb.function("leaf", 0, |f| { let _ = f.add(1, 1); });
/// let main = pb.function("main", 0, |f| {
///     f.call_void(leaf, &[]);
///     f.call_void(leaf, &[]);
/// });
/// let program = pb.finish(main).unwrap();
/// let mut cg = CallgrindTool::new();
/// run_program(&program, RunConfig::default(), &mut cg).unwrap();
/// assert_eq!(cg.arc(main, leaf).unwrap().calls, 2);
/// ```
#[derive(Default)]
pub struct CallgrindTool {
    stacks: Vec<Vec<Frame>>,
    arcs: HashMap<(RoutineId, RoutineId), ArcStats>,
    routines: HashMap<RoutineId, RoutineCost>,
}

impl CallgrindTool {
    /// Creates an empty call-graph profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// The arc (caller → callee), if observed.
    pub fn arc(&self, caller: RoutineId, callee: RoutineId) -> Option<&ArcStats> {
        self.arcs.get(&(caller, callee))
    }

    /// All observed arcs.
    pub fn arcs(&self) -> impl Iterator<Item = (&(RoutineId, RoutineId), &ArcStats)> {
        self.arcs.iter()
    }

    /// Aggregate costs of `routine`, if observed.
    pub fn routine_cost(&self, routine: RoutineId) -> Option<&RoutineCost> {
        self.routines.get(&routine)
    }

    /// Number of distinct routines observed.
    pub fn routine_count(&self) -> usize {
        self.routines.len()
    }

    fn stack_mut(&mut self, t: ThreadId) -> &mut Vec<Frame> {
        let idx = t.index() as usize;
        while self.stacks.len() <= idx {
            self.stacks.push(Vec::new());
        }
        &mut self.stacks[idx]
    }
}

impl Tool for CallgrindTool {
    fn on_call(&mut self, thread: ThreadId, routine: RoutineId, cost: u64) {
        let stack = self.stack_mut(thread);
        let caller = stack.last().map(|f| f.routine);
        stack.push(Frame {
            routine,
            entry_cost: cost,
            callee_cost: 0,
            caller,
        });
    }

    fn on_return(&mut self, thread: ThreadId, _routine: RoutineId, cost: u64) {
        let stack = self.stack_mut(thread);
        let Some(frame) = stack.pop() else {
            return;
        };
        let inclusive = cost.saturating_sub(frame.entry_cost);
        let exclusive = inclusive.saturating_sub(frame.callee_cost);
        if let Some(parent) = stack.last_mut() {
            parent.callee_cost += inclusive;
        }
        let rc = self.routines.entry(frame.routine).or_default();
        rc.calls += 1;
        rc.inclusive += inclusive;
        rc.exclusive += exclusive;
        if let Some(caller) = frame.caller {
            let arc = self.arcs.entry((caller, frame.routine)).or_default();
            arc.calls += 1;
            arc.inclusive_cost += inclusive;
        }
    }

    fn on_thread_exit(&mut self, thread: ThreadId, cost: u64) {
        while !self.stack_mut(thread).is_empty() {
            let routine = self
                .stack_mut(thread)
                .last()
                .map(|f| f.routine)
                .expect("frame");
            self.on_return(thread, routine, cost);
        }
    }

    fn name(&self) -> &str {
        "callgrind"
    }

    fn shadow_bytes(&self) -> u64 {
        (self.arcs.len()
            * (std::mem::size_of::<(RoutineId, RoutineId)>()
                + std::mem::size_of::<ArcStats>()
                + 32)
            + self.routines.len() * (std::mem::size_of::<RoutineCost>() + 40)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: ThreadId = ThreadId::MAIN;
    const MAIN: RoutineId = RoutineId::new(0);
    const F: RoutineId = RoutineId::new(1);
    const G: RoutineId = RoutineId::new(2);

    #[test]
    fn inclusive_and_exclusive_costs() {
        let mut cg = CallgrindTool::new();
        cg.on_call(T, MAIN, 0);
        cg.on_call(T, F, 10);
        cg.on_call(T, G, 15);
        cg.on_return(T, G, 25); // g: inclusive 10
        cg.on_return(T, F, 40); // f: inclusive 30, exclusive 20
        cg.on_return(T, MAIN, 50); // main: inclusive 50, exclusive 20
        let f = cg.routine_cost(F).unwrap();
        assert_eq!((f.inclusive, f.exclusive), (30, 20));
        let m = cg.routine_cost(MAIN).unwrap();
        assert_eq!((m.inclusive, m.exclusive), (50, 20));
        assert_eq!(cg.arc(MAIN, F).unwrap().inclusive_cost, 30);
        assert_eq!(cg.arc(F, G).unwrap().calls, 1);
        assert_eq!(cg.routine_count(), 3);
    }

    #[test]
    fn recursion_accumulates_arcs() {
        let mut cg = CallgrindTool::new();
        cg.on_call(T, MAIN, 0);
        cg.on_call(T, F, 1);
        cg.on_call(T, F, 2);
        cg.on_return(T, F, 3);
        cg.on_return(T, F, 4);
        cg.on_return(T, MAIN, 5);
        assert_eq!(cg.arc(F, F).unwrap().calls, 1);
        assert_eq!(cg.arc(MAIN, F).unwrap().calls, 1);
        assert_eq!(cg.routine_cost(F).unwrap().calls, 2);
    }

    #[test]
    fn thread_exit_unwinds() {
        let mut cg = CallgrindTool::new();
        cg.on_call(T, MAIN, 0);
        cg.on_call(T, F, 5);
        cg.on_thread_exit(T, 9);
        assert_eq!(cg.routine_cost(F).unwrap().inclusive, 4);
        assert_eq!(cg.routine_cost(MAIN).unwrap().inclusive, 9);
        assert!(cg.shadow_bytes() > 0);
        assert_eq!(cg.name(), "callgrind");
        assert_eq!(cg.arcs().count(), 1);
    }
}
