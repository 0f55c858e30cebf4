//! Calling-context-sensitive profiles.
//!
//! The paper aggregates performance tuples per *routine*; its conclusions
//! point towards characterizing workloads "at routine activation rather
//! than thread granularity". This module provides the natural middle
//! ground: profiles keyed by **calling context** — the chain of pending
//! routines at activation time — organised as a calling-context tree
//! (CCT). The same activation tuples `(rms, drms, cost)` are collected,
//! but two `memcpy` calls reached from different parents no longer share
//! a cost plot.
//!
//! [`ContextTree`] is a standalone, reusable CCT; [`CctProfiler`] couples
//! it with the drms event handling by wrapping [`DrmsProfiler`]'s
//! event stream and re-keying collected activations by context.

use crate::drms::{DrmsConfig, DrmsProfiler};
use crate::fnv::FnvBuildHasher;
use crate::profile::RoutineProfile;
use drms_trace::{Addr, RoutineId, SyncOp, ThreadId};
use drms_vm::Tool;
use std::collections::HashMap;

/// Identifier of a calling-context node (dense, root = 0).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContextId(u32);

impl ContextId {
    /// The synthetic root context (no routine pending).
    pub const ROOT: ContextId = ContextId(0);

    /// Dense index of this node.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for ContextId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ctx{}", self.0)
    }
}

#[derive(Clone, Debug)]
struct Node {
    parent: ContextId,
    routine: Option<RoutineId>,
    children: HashMap<RoutineId, ContextId, FnvBuildHasher>,
    depth: u32,
}

/// A calling-context tree: interned chains of routine activations.
///
/// # Example
/// ```
/// use drms_core::context::{ContextTree, ContextId};
/// use drms_trace::RoutineId;
///
/// let mut cct = ContextTree::new();
/// let main = cct.child_of(ContextId::ROOT, RoutineId::new(0));
/// let f_from_main = cct.child_of(main, RoutineId::new(1));
/// assert_eq!(cct.parent(f_from_main), Some(main));
/// assert_eq!(cct.depth(f_from_main), 2);
/// // Re-interning the same edge yields the same node.
/// assert_eq!(cct.child_of(main, RoutineId::new(1)), f_from_main);
/// ```
#[derive(Clone, Debug)]
pub struct ContextTree {
    nodes: Vec<Node>,
}

impl Default for ContextTree {
    fn default() -> Self {
        Self::new()
    }
}

impl ContextTree {
    /// Creates a tree holding only the root context.
    pub fn new() -> Self {
        ContextTree {
            nodes: vec![Node {
                parent: ContextId::ROOT,
                routine: None,
                children: HashMap::default(),
                depth: 0,
            }],
        }
    }

    /// Interns (or finds) the child of `parent` labelled `routine`.
    pub fn child_of(&mut self, parent: ContextId, routine: RoutineId) -> ContextId {
        if let Some(&c) = self.nodes[parent.0 as usize].children.get(&routine) {
            return c;
        }
        let id = ContextId(self.nodes.len() as u32);
        let depth = self.nodes[parent.0 as usize].depth + 1;
        self.nodes.push(Node {
            parent,
            routine: Some(routine),
            children: HashMap::default(),
            depth,
        });
        self.nodes[parent.0 as usize].children.insert(routine, id);
        id
    }

    /// The parent of `ctx`, or `None` for the root.
    pub fn parent(&self, ctx: ContextId) -> Option<ContextId> {
        if ctx == ContextId::ROOT {
            None
        } else {
            Some(self.nodes[ctx.0 as usize].parent)
        }
    }

    /// The routine labelling `ctx`, or `None` for the root.
    pub fn routine(&self, ctx: ContextId) -> Option<RoutineId> {
        self.nodes[ctx.0 as usize].routine
    }

    /// Depth of `ctx` (root = 0).
    pub fn depth(&self, ctx: ContextId) -> u32 {
        self.nodes[ctx.0 as usize].depth
    }

    /// Number of interned contexts (root included).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether only the root exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// The full chain of routines from the root to `ctx` (outermost
    /// first).
    pub fn path(&self, ctx: ContextId) -> Vec<RoutineId> {
        let mut out = Vec::new();
        let mut cur = ctx;
        while let Some(r) = self.routine(cur) {
            out.push(r);
            cur = self.parent(cur).expect("non-root has a parent");
        }
        out.reverse();
        out
    }

    /// Renders `ctx` as `main → f → g` using a name resolver.
    pub fn render(&self, ctx: ContextId, name: impl Fn(RoutineId) -> String) -> String {
        let parts: Vec<String> = self.path(ctx).into_iter().map(name).collect();
        if parts.is_empty() {
            "<root>".to_owned()
        } else {
            parts.join(" → ")
        }
    }

    /// Rough host bytes used by the tree.
    pub fn approx_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| (std::mem::size_of::<Node>() + n.children.len() * 16) as u64)
            .sum()
    }
}

/// A context-sensitive drms profiler: the drms/rms metrics of the paper,
/// collected per (calling context, thread) instead of per routine.
///
/// Internally the events are forwarded unchanged to a [`DrmsProfiler`]
/// (whose routine-level report remains available); call/return events
/// additionally walk the [`ContextTree`], and each collected activation
/// is re-keyed by its context.
///
/// # Example
/// ```
/// use drms_core::context::CctProfiler;
/// use drms_core::DrmsConfig;
/// use drms_vm::{ProgramBuilder, run_program, RunConfig, Operand};
///
/// // `leaf` is called from two different parents.
/// let mut pb = ProgramBuilder::new();
/// let g = pb.global(8);
/// let leaf = pb.function("leaf", 1, |f| {
///     let n = f.param(0);
///     f.for_range(0, n, |f, i| { let _ = f.load(g.raw() as i64, i); });
/// });
/// let small = pb.function("small", 0, |f| f.call_void(leaf, &[Operand::Imm(2)]));
/// let big = pb.function("big", 0, |f| f.call_void(leaf, &[Operand::Imm(8)]));
/// let main = pb.function("main", 0, |f| {
///     f.call_void(small, &[]);
///     f.call_void(big, &[]);
/// });
/// let program = pb.finish(main).unwrap();
/// let mut prof = CctProfiler::new(DrmsConfig::full());
/// run_program(&program, RunConfig::default(), &mut prof).unwrap();
/// // Routine-level profiling merges both call sites…
/// assert_eq!(prof.inner().report().merged_routine(leaf).distinct_drms(), 2);
/// // …while the context-sensitive report keeps them apart.
/// let contexts = prof.contexts_of(leaf);
/// assert_eq!(contexts.len(), 2);
/// ```
pub struct CctProfiler {
    inner: DrmsProfiler,
    tree: ContextTree,
    /// Per-thread cursor into the tree.
    cursors: Vec<ContextId>,
    /// Per-(context, thread) profiles.
    profiles: HashMap<(ContextId, ThreadId), RoutineProfile, FnvBuildHasher>,
    /// Activation bookkeeping: entry cost per frame, per thread.
    entry_costs: Vec<Vec<u64>>,
    /// Snapshot of (sum_rms, sum_drms) per frame to derive per-activation
    /// values from the inner profiler's routine report.
    pending: Vec<Vec<(u64, u64)>>,
    /// Per-thread cost at the latest call or return, at which an aborted
    /// run's open contexts are unwound.
    last_costs: Vec<u64>,
}

impl CctProfiler {
    /// Creates a context-sensitive profiler with the given drms config.
    pub fn new(config: DrmsConfig) -> Self {
        CctProfiler {
            inner: DrmsProfiler::new(config),
            tree: ContextTree::new(),
            cursors: Vec::new(),
            profiles: HashMap::default(),
            entry_costs: Vec::new(),
            pending: Vec::new(),
            last_costs: Vec::new(),
        }
    }

    /// The underlying routine-level profiler.
    pub fn inner(&self) -> &DrmsProfiler {
        &self.inner
    }

    /// The calling-context tree built so far.
    pub fn tree(&self) -> &ContextTree {
        &self.tree
    }

    /// The profile of one (context, thread), if collected.
    pub fn profile(&self, ctx: ContextId, thread: ThreadId) -> Option<&RoutineProfile> {
        self.profiles.get(&(ctx, thread))
    }

    /// All contexts whose label is `routine`, with their thread-merged
    /// profiles, in context-id order.
    pub fn contexts_of(&self, routine: RoutineId) -> Vec<(ContextId, RoutineProfile)> {
        let mut by_ctx: HashMap<ContextId, RoutineProfile, FnvBuildHasher> = HashMap::default();
        for (&(ctx, _), p) in &self.profiles {
            if self.tree.routine(ctx) == Some(routine) {
                by_ctx.entry(ctx).or_default().merge(p);
            }
        }
        let mut out: Vec<(ContextId, RoutineProfile)> = by_ctx.into_iter().collect();
        out.sort_by_key(|(c, _)| *c);
        out
    }

    /// Iterates all `(context, thread)` profiles.
    pub fn iter(&self) -> impl Iterator<Item = (&(ContextId, ThreadId), &RoutineProfile)> {
        self.profiles.iter()
    }

    fn cursor_mut(&mut self, t: ThreadId) -> &mut ContextId {
        let idx = t.index() as usize;
        while self.cursors.len() <= idx {
            self.cursors.push(ContextId::ROOT);
            self.entry_costs.push(Vec::new());
            self.pending.push(Vec::new());
            self.last_costs.push(0);
        }
        &mut self.cursors[idx]
    }

    /// Current (sum_rms, sum_drms) of `routine` in the inner report — a
    /// cheap monotone counter pair used to difference per activation.
    fn sums(&self, routine: RoutineId, t: ThreadId) -> (u64, u64) {
        self.inner
            .report()
            .get(routine, t)
            .map(|p| (p.sum_rms, p.sum_drms))
            .unwrap_or((0, 0))
    }
}

impl Tool for CctProfiler {
    fn on_thread_start(&mut self, thread: ThreadId, parent: Option<ThreadId>) {
        self.cursor_mut(thread);
        self.inner.on_thread_start(thread, parent);
    }

    fn on_thread_switch(&mut self, from: Option<ThreadId>, to: ThreadId) {
        self.inner.on_thread_switch(from, to);
    }

    fn on_call(&mut self, thread: ThreadId, routine: RoutineId, cost: u64) {
        let cur = *self.cursor_mut(thread);
        let child = self.tree.child_of(cur, routine);
        let idx = thread.index() as usize;
        self.cursors[idx] = child;
        self.entry_costs[idx].push(cost);
        self.last_costs[idx] = cost;
        let sums = self.sums(routine, thread);
        self.pending[idx].push(sums);
        self.inner.on_call(thread, routine, cost);
    }

    fn on_return(&mut self, thread: ThreadId, routine: RoutineId, cost: u64) {
        self.inner.on_return(thread, routine, cost);
        let idx = thread.index() as usize;
        let ctx = self.cursors[idx];
        self.last_costs[idx] = cost;
        if let (Some(entry_cost), Some((rms0, drms0))) =
            (self.entry_costs[idx].pop(), self.pending[idx].pop())
        {
            // The inner profiler just recorded this activation; its sum
            // deltas are exactly the activation's rms/drms.
            let (rms1, drms1) = self.sums(routine, thread);
            self.profiles.entry((ctx, thread)).or_default().record(
                rms1 - rms0,
                drms1 - drms0,
                cost.saturating_sub(entry_cost),
            );
        }
        self.cursors[idx] = self.tree.parent(ctx).unwrap_or(ContextId::ROOT);
    }

    fn on_read(&mut self, thread: ThreadId, addr: Addr, len: u32) {
        self.inner.on_read(thread, addr, len);
    }

    fn on_write(&mut self, thread: ThreadId, addr: Addr, len: u32) {
        self.inner.on_write(thread, addr, len);
    }

    fn on_user_to_kernel(&mut self, thread: ThreadId, addr: Addr, len: u32) {
        self.inner.on_user_to_kernel(thread, addr, len);
    }

    fn on_kernel_to_user(&mut self, thread: ThreadId, addr: Addr, len: u32) {
        self.inner.on_kernel_to_user(thread, addr, len);
    }

    fn on_sync(&mut self, thread: ThreadId, op: SyncOp) {
        self.inner.on_sync(thread, op);
    }

    fn on_thread_exit(&mut self, thread: ThreadId, cost: u64) {
        // Unwind pending contexts like the inner profiler unwinds frames.
        let idx = thread.index() as usize;
        while let Some(ctx) = {
            let c = self.cursors[idx];
            (c != ContextId::ROOT).then_some(c)
        } {
            let routine = self.tree.routine(ctx).expect("non-root context");
            self.on_return(thread, routine, cost);
        }
        self.inner.on_thread_exit(thread, cost);
    }

    fn on_finish(&mut self) {
        // An aborted run leaves contexts open: unwind each thread's at
        // its last observed cost, so every activation the routine-level
        // report flushes (exactly as a lone drms profiler would) is also
        // keyed by its context.
        for idx in 0..self.cursors.len() {
            if self.cursors[idx] != ContextId::ROOT {
                self.on_thread_exit(ThreadId::new(idx as u32), self.last_costs[idx]);
            }
        }
        self.inner.on_finish();
    }

    fn name(&self) -> &str {
        "aprof-drms-cct"
    }

    fn shadow_bytes(&self) -> u64 {
        self.inner.shadow_bytes()
            + self.tree.approx_bytes()
            + self
                .profiles
                .values()
                .map(RoutineProfile::approx_bytes)
                .sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms_vm::{run_program, Operand, ProgramBuilder, RunConfig, SchedPolicy};

    #[test]
    fn tree_interning_and_paths() {
        let mut t = ContextTree::new();
        assert!(t.is_empty());
        let a = t.child_of(ContextId::ROOT, RoutineId::new(0));
        let b = t.child_of(a, RoutineId::new(1));
        let b2 = t.child_of(a, RoutineId::new(1));
        assert_eq!(b, b2);
        assert_eq!(t.len(), 3);
        assert_eq!(t.path(b), vec![RoutineId::new(0), RoutineId::new(1)]);
        assert_eq!(t.depth(b), 2);
        assert_eq!(t.render(ContextId::ROOT, |_| unreachable!()), "<root>");
        let rendered = t.render(b, |r| format!("r{}", r.index()));
        assert_eq!(rendered, "r0 → r1");
        assert!(t.approx_bytes() > 0);
    }

    #[test]
    fn recursion_creates_one_context_per_depth() {
        let mut t = ContextTree::new();
        let r = RoutineId::new(5);
        let mut cur = ContextId::ROOT;
        for depth in 1..=4 {
            cur = t.child_of(cur, r);
            assert_eq!(t.depth(cur), depth);
        }
        assert_eq!(t.len(), 5, "one node per recursion depth");
    }

    #[test]
    fn separates_call_sites_that_routine_profiling_merges() {
        let mut pb = ProgramBuilder::new();
        let g = pb.global(16);
        let leaf = pb.function("leaf", 1, |f| {
            let n = f.param(0);
            f.for_range(0, n, |f, i| {
                let _ = f.load(g.raw() as i64, i);
            });
        });
        let small = pb.function("small", 0, |f| {
            f.call_void(leaf, &[Operand::Imm(3)]);
        });
        let big = pb.function("big", 0, |f| {
            f.call_void(leaf, &[Operand::Imm(12)]);
        });
        let main = pb.function("main", 0, |f| {
            f.for_range(0, 4, |f, _| {
                f.call_void(small, &[]);
                f.call_void(big, &[]);
            });
        });
        let program = pb.finish(main).unwrap();
        let mut prof = CctProfiler::new(DrmsConfig::full());
        run_program(&program, RunConfig::default(), &mut prof).unwrap();

        let contexts = prof.contexts_of(leaf);
        assert_eq!(contexts.len(), 2, "two distinct calling contexts");
        let mut maxima: Vec<u64> = contexts
            .iter()
            .map(|(_, p)| p.drms_plot().last().unwrap().0)
            .collect();
        maxima.sort_unstable();
        assert_eq!(maxima, vec![3, 12], "each context keeps its own input size");
        // Each context saw 4 activations.
        for (_, p) in &contexts {
            assert_eq!(p.calls, 4);
        }
        // The inner routine-level report still merges them.
        let merged = prof.inner().report().merged_routine(leaf);
        assert_eq!(merged.calls, 8);
    }

    #[test]
    fn aborted_runs_flush_the_inner_report_like_a_lone_profiler() {
        let mut pb = ProgramBuilder::new();
        let leaf = pb.function("leaf", 0, |f| {
            let z = f.copy(0);
            let _ = f.div(1, z);
        });
        let main = pb.function("main", 0, |f| f.call_void(leaf, &[]));
        let program = pb.finish(main).unwrap();
        let mut cct = CctProfiler::new(DrmsConfig::full());
        let mut lone = DrmsProfiler::new(DrmsConfig::full());
        assert!(run_program(&program, RunConfig::default(), &mut cct).is_err());
        assert!(run_program(&program, RunConfig::default(), &mut lone).is_err());
        assert_eq!(lone.report().merged_routine(leaf).calls, 1, "flushed");
        assert_eq!(cct.inner().report(), lone.report());
    }

    /// The lock-order-inversion pattern deadlocks under chaos seed 1
    /// with both workers inside their routines: the contexts unwound at
    /// the abort must account for every call the routine-level report
    /// flushes.
    #[test]
    fn aborted_runs_key_every_flushed_call_by_its_context() {
        let mut pb = ProgramBuilder::new();
        let cells = [pb.global(1), pb.global(1)];
        let mutexes = [pb.mutex(), pb.mutex()];
        let worker = |pb: &mut ProgramBuilder, name, first: usize| {
            pb.function(name, 1, |f| {
                let n = f.param(0);
                f.for_range(0, n, |f, i| {
                    for k in [first, 1 - first] {
                        f.lock(mutexes[k]);
                        let v = f.load(cells[k].raw() as i64, 0);
                        let v2 = f.add(v, i);
                        f.store(cells[k].raw() as i64, 0, v2);
                    }
                    f.unlock(mutexes[1 - first]);
                    f.unlock(mutexes[first]);
                });
                f.ret(None);
            })
        };
        let ab = worker(&mut pb, "worker_ab", 0);
        let ba = worker(&mut pb, "worker_ba", 1);
        let main = pb.function("main", 0, |f| {
            let t1 = f.spawn(ab, &[Operand::Imm(6)]);
            let t2 = f.spawn(ba, &[Operand::Imm(6)]);
            f.join(t1);
            f.join(t2);
            f.ret(None);
        });
        let program = pb.finish(main).unwrap();
        let config = RunConfig {
            policy: SchedPolicy::Chaos { seed: 1 },
            ..RunConfig::default()
        };
        let mut prof = CctProfiler::new(DrmsConfig::full());
        assert!(run_program(&program, config, &mut prof).is_err());
        let report = prof.inner().report();
        assert_eq!(report.merged_routine(ab).calls, 1, "flushed at the abort");
        for rid in 0..program.routines().len() as u32 {
            let routine = RoutineId::new(rid);
            let ctx_calls: u64 = prof.contexts_of(routine).iter().map(|(_, p)| p.calls).sum();
            assert_eq!(
                ctx_calls,
                report.merged_routine(routine).calls,
                "{}",
                program.routine_name(routine)
            );
        }
    }

    #[test]
    fn context_paths_render_with_program_names() {
        let mut pb = ProgramBuilder::new();
        let inner = pb.function("inner", 0, |f| {
            let _ = f.add(1, 1);
        });
        let outer = pb.function("outer", 0, |f| f.call_void(inner, &[]));
        let main = pb.function("main", 0, |f| f.call_void(outer, &[]));
        let program = pb.finish(main).unwrap();
        let mut prof = CctProfiler::new(DrmsConfig::full());
        run_program(&program, RunConfig::default(), &mut prof).unwrap();
        let contexts = prof.contexts_of(inner);
        assert_eq!(contexts.len(), 1);
        let rendered = prof
            .tree()
            .render(contexts[0].0, |r| program.routine_name(r).to_owned());
        assert_eq!(rendered, "main → outer → inner");
    }

    #[test]
    fn cct_profile_sums_match_routine_sums() {
        // Σ over contexts of a routine == the routine-level sums.
        let w = drms_workloads_smoke();
        let mut prof = CctProfiler::new(DrmsConfig::full());
        run_program(&w.0, RunConfig::default(), &mut prof).unwrap();
        for rid in 0..w.0.routines().len() as u32 {
            let routine = RoutineId::new(rid);
            let merged = prof.inner().report().merged_routine(routine);
            let ctx_sum: u64 = prof
                .contexts_of(routine)
                .iter()
                .map(|(_, p)| p.sum_drms)
                .sum();
            assert_eq!(ctx_sum, merged.sum_drms, "routine {routine}");
        }
        assert_eq!(prof.name(), "aprof-drms-cct");
        assert!(prof.shadow_bytes() > 0);
        assert!(prof.iter().count() >= prof.tree().len() - 1);
    }

    /// A small nested-call program exercised by several tests.
    fn drms_workloads_smoke() -> (drms_vm::Program,) {
        let mut pb = ProgramBuilder::new();
        let g = pb.global(8);
        let c = pb.function("c", 0, |f| {
            let _ = f.load(g.raw() as i64, 0);
        });
        let b = pb.function("b", 0, |f| {
            f.call_void(c, &[]);
            let _ = f.load(g.raw() as i64, 1);
        });
        let a = pb.function("a", 0, |f| {
            f.call_void(b, &[]);
            f.call_void(c, &[]);
        });
        let main = pb.function("main", 0, |f| {
            f.call_void(a, &[]);
            f.call_void(b, &[]);
        });
        (pb.finish(main).unwrap(),)
    }
}
