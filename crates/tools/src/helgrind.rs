//! `helgrind`-like happens-before data-race detector.
//!
//! Implements vector-clock race detection over the VM's synchronization
//! vocabulary: semaphores, mutexes, condition variables, spawn and join
//! all induce happens-before edges; every memory cell carries last-write
//! and last-read epochs in a shadow memory. An access racing with a
//! previous unordered access of which at least one is a write is reported
//! once per cell.
//!
//! Among the comparison tools this is the heavyweight one — per-access
//! epoch checks plus per-sync vector-clock joins — matching its position
//! in the paper's Table 1 (helgrind is the slowest tool measured).

use drms_trace::{Addr, SyncOp, ThreadId};
use drms_vm::{ShadowMemory, Tool};
use std::collections::HashMap;

/// An epoch: (thread, per-thread clock value). Thread `u16::MAX` means
/// "never accessed".
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Epoch {
    thread: u16,
    clock: u32,
}

impl Default for Epoch {
    fn default() -> Self {
        Epoch {
            thread: u16::MAX,
            clock: 0,
        }
    }
}

/// Per-cell access state: last write/read epochs plus the routine and
/// lock-set under which each access happened (for race diagnostics, as
/// real helgrind records origin contexts), and a reported flag to
/// deduplicate race reports.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
struct CellState {
    write: Epoch,
    read: Epoch,
    /// Routine performing the last write / read (for reports).
    write_origin: u32,
    read_origin: u32,
    /// Hash of the lock set held at the last write / read.
    write_locks: u64,
    read_locks: u64,
    reported: bool,
}

type VectorClock = Vec<u32>;

fn join(into: &mut VectorClock, other: &VectorClock) {
    if into.len() < other.len() {
        into.resize(other.len(), 0);
    }
    for (a, &b) in into.iter_mut().zip(other.iter()) {
        *a = (*a).max(b);
    }
}

/// A record of one detected race.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RaceReport {
    /// The racing cell.
    pub addr: Addr,
    /// Thread performing the later access.
    pub second: ThreadId,
    /// Thread that performed the earlier, unordered access.
    pub first: ThreadId,
    /// Whether the later access was a write.
    pub second_is_write: bool,
    /// Routine in which the earlier access happened, if known.
    pub first_origin: Option<drms_trace::RoutineId>,
    /// Routine in which the later access happened, if known.
    pub second_origin: Option<drms_trace::RoutineId>,
}

/// A vector-clock happens-before race detector.
///
/// # Example
/// ```
/// use drms_tools::HelgrindTool;
/// use drms_vm::{ProgramBuilder, run_program, RunConfig, Operand};
///
/// // Two threads store to the same global without synchronization.
/// let mut pb = ProgramBuilder::new();
/// let g = pb.global(1);
/// let w = pb.function("w", 0, |f| { f.store(g.raw() as i64, 0, 1); });
/// let main = pb.function("main", 0, |f| {
///     let t1 = f.spawn(w, &[]);
///     let t2 = f.spawn(w, &[]);
///     f.join(t1);
///     f.join(t2);
/// });
/// let program = pb.finish(main).unwrap();
/// let mut hg = HelgrindTool::new();
/// run_program(&program, RunConfig::default(), &mut hg).unwrap();
/// assert_eq!(hg.race_count(), 1);
/// ```
#[derive(Default)]
pub struct HelgrindTool {
    clocks: Vec<VectorClock>,
    sem_vc: HashMap<u32, VectorClock>,
    mutex_vc: HashMap<u32, VectorClock>,
    cond_vc: HashMap<u32, VectorClock>,
    cells: ShadowMemory<CellState>,
    races: Vec<RaceReport>,
    /// Per-thread call stack (routine ids), for race-report origins.
    stacks: Vec<Vec<u32>>,
    /// Per-thread held-lock-set hash (order-independent xor of ids).
    locksets: Vec<u64>,
}

impl HelgrindTool {
    /// Creates a race detector with no knowledge of any thread.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct racing cells found.
    pub fn race_count(&self) -> u64 {
        self.races.len() as u64
    }

    /// The collected race reports (one per racing cell).
    pub fn races(&self) -> &[RaceReport] {
        &self.races
    }

    fn vc_mut(&mut self, t: ThreadId) -> &mut VectorClock {
        let idx = t.index() as usize;
        while self.clocks.len() <= idx {
            let mut vc = vec![0u32; idx + 1];
            let me = self.clocks.len();
            if me < vc.len() {
                vc[me] = 1;
            }
            self.clocks.push(vc);
        }
        &mut self.clocks[idx]
    }

    fn tick(&mut self, t: ThreadId) {
        let idx = t.index() as usize;
        let vc = self.vc_mut(t);
        if vc.len() <= idx {
            vc.resize(idx + 1, 0);
        }
        vc[idx] += 1;
    }

    /// Whether epoch `e` happens-before the current state of thread `t`.
    fn ordered_before(&mut self, e: Epoch, t: ThreadId) -> bool {
        if e.thread == u16::MAX {
            return true;
        }
        if e.thread as u32 == t.index() {
            return true;
        }
        let vc = self.vc_mut(t);
        let idx = e.thread as usize;
        idx < vc.len() && vc[idx] >= e.clock
    }

    fn epoch_of(&mut self, t: ThreadId) -> Epoch {
        let idx = t.index() as usize;
        let vc = self.vc_mut(t);
        Epoch {
            thread: idx as u16,
            clock: vc[idx],
        }
    }

    fn current_routine(&self, t: ThreadId) -> Option<drms_trace::RoutineId> {
        self.stacks
            .get(t.index() as usize)
            .and_then(|s| s.last())
            .map(|&r| drms_trace::RoutineId::new(r))
    }

    fn access(&mut self, t: ThreadId, addr: Addr, len: u32, is_write: bool) {
        let origin = self
            .stacks
            .get(t.index() as usize)
            .and_then(|s| s.last().copied())
            .unwrap_or(u32::MAX);
        let lockset = self.locksets.get(t.index() as usize).copied().unwrap_or(0);
        for cell in addr.range(len) {
            let mut state = self.cells.get(cell);
            if !state.reported {
                let prior_write_ok = self.ordered_before(state.write, t);
                let prior_read_ok = !is_write || self.ordered_before(state.read, t);
                if !prior_write_ok || !prior_read_ok {
                    let (first, first_origin) = if !prior_write_ok {
                        (state.write.thread, state.write_origin)
                    } else {
                        (state.read.thread, state.read_origin)
                    };
                    state.reported = true;
                    self.races.push(RaceReport {
                        addr: cell,
                        second: t,
                        first: ThreadId::new(first as u32),
                        second_is_write: is_write,
                        first_origin: (first_origin != u32::MAX)
                            .then(|| drms_trace::RoutineId::new(first_origin)),
                        second_origin: self.current_routine(t),
                    });
                }
            }
            let epoch = self.epoch_of(t);
            if is_write {
                state.write = epoch;
                state.write_origin = origin;
                state.write_locks = lockset;
            } else {
                state.read = epoch;
                state.read_origin = origin;
                state.read_locks = lockset;
            }
            self.cells.set(cell, state);
        }
    }

    fn stack_mut(&mut self, t: ThreadId) -> &mut Vec<u32> {
        let idx = t.index() as usize;
        while self.stacks.len() <= idx {
            self.stacks.push(Vec::new());
            self.locksets.push(0);
        }
        &mut self.stacks[idx]
    }

    fn toggle_lock(&mut self, t: ThreadId, mutex: u32) {
        self.stack_mut(t);
        // Order-independent set hash: acquire and release both xor.
        let h = (mutex as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.locksets[t.index() as usize] ^= h;
    }

    fn release(&mut self, t: ThreadId, key: u32, table: Table) {
        let vc = self.vc_mut(t).clone();
        let entry = match table {
            Table::Sem => self.sem_vc.entry(key).or_default(),
            Table::Mutex => self.mutex_vc.entry(key).or_default(),
            Table::Cond => self.cond_vc.entry(key).or_default(),
        };
        join(entry, &vc);
        self.tick(t);
    }

    fn acquire(&mut self, t: ThreadId, key: u32, table: Table) {
        let source = match table {
            Table::Sem => self.sem_vc.get(&key).cloned(),
            Table::Mutex => self.mutex_vc.get(&key).cloned(),
            Table::Cond => self.cond_vc.get(&key).cloned(),
        };
        if let Some(vc) = source {
            join(self.vc_mut(t), &vc);
        }
    }
}

#[derive(Copy, Clone)]
enum Table {
    Sem,
    Mutex,
    Cond,
}

impl Tool for HelgrindTool {
    fn on_thread_start(&mut self, thread: ThreadId, parent: Option<ThreadId>) {
        self.vc_mut(thread);
        if let Some(p) = parent {
            let pvc = self.vc_mut(p).clone();
            join(self.vc_mut(thread), &pvc);
            self.tick(p);
        }
        self.tick(thread);
    }

    fn on_read(&mut self, thread: ThreadId, addr: Addr, len: u32) {
        self.access(thread, addr, len, false);
    }

    fn on_write(&mut self, thread: ThreadId, addr: Addr, len: u32) {
        self.access(thread, addr, len, true);
    }

    fn on_kernel_to_user(&mut self, thread: ThreadId, addr: Addr, len: u32) {
        // Kernel fills act as writes by the requesting thread.
        self.access(thread, addr, len, true);
    }

    fn on_user_to_kernel(&mut self, thread: ThreadId, addr: Addr, len: u32) {
        self.access(thread, addr, len, false);
    }

    fn on_call(&mut self, thread: ThreadId, routine: drms_trace::RoutineId, _cost: u64) {
        self.stack_mut(thread).push(routine.index());
    }

    fn on_return(&mut self, thread: ThreadId, _routine: drms_trace::RoutineId, _cost: u64) {
        self.stack_mut(thread).pop();
    }

    fn on_sync(&mut self, thread: ThreadId, op: SyncOp) {
        match op {
            SyncOp::SemSignal(s) => self.release(thread, s, Table::Sem),
            SyncOp::SemWait(s) => self.acquire(thread, s, Table::Sem),
            SyncOp::MutexLock(m) => {
                self.toggle_lock(thread, m);
                self.acquire(thread, m, Table::Mutex);
            }
            SyncOp::MutexUnlock(m) => {
                self.toggle_lock(thread, m);
                self.release(thread, m, Table::Mutex);
            }
            SyncOp::CondWait { cond, mutex } => {
                // Atomic release of the mutex and publication to the cond.
                self.release(thread, mutex, Table::Mutex);
                self.release(thread, cond, Table::Cond);
            }
            SyncOp::CondSignal(c) | SyncOp::CondBroadcast(c) => {
                self.release(thread, c, Table::Cond);
            }
            SyncOp::Spawn { .. } => {
                // Ordering handled in on_thread_start via the parent link.
            }
            SyncOp::Join { child } => {
                let cvc = self.vc_mut(child).clone();
                join(self.vc_mut(thread), &cvc);
            }
        }
    }

    fn name(&self) -> &str {
        "helgrind"
    }

    fn shadow_bytes(&self) -> u64 {
        let vc_bytes: usize = self.clocks.iter().map(|v| v.len() * 4 + 24).sum::<usize>()
            + (self.sem_vc.len() + self.mutex_vc.len() + self.cond_vc.len()) * 64;
        let stack_bytes: usize = self.stacks.iter().map(|s| s.capacity() * 4 + 24).sum();
        self.cells.bytes()
            + vc_bytes as u64
            + stack_bytes as u64
            + (self.races.len() * std::mem::size_of::<RaceReport>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId::new(0);
    const T1: ThreadId = ThreadId::new(1);

    fn started(tool: &mut HelgrindTool) {
        tool.on_thread_start(T0, None);
        tool.on_thread_start(T1, Some(T0));
    }

    #[test]
    fn unsynchronized_write_write_races() {
        let mut hg = HelgrindTool::new();
        started(&mut hg);
        hg.on_write(T0, Addr::new(10), 1);
        hg.on_write(T1, Addr::new(10), 1);
        assert_eq!(hg.race_count(), 1);
        let r = hg.races()[0];
        assert_eq!(r.second, T1);
        assert!(r.second_is_write);
    }

    #[test]
    fn spawn_orders_parent_before_child() {
        let mut hg = HelgrindTool::new();
        hg.on_thread_start(T0, None);
        hg.on_write(T0, Addr::new(10), 1);
        hg.on_thread_start(T1, Some(T0)); // child sees parent's write
        hg.on_read(T1, Addr::new(10), 1);
        assert_eq!(hg.race_count(), 0);
    }

    #[test]
    fn mutex_protects_accesses() {
        let mut hg = HelgrindTool::new();
        started(&mut hg);
        hg.on_sync(T0, SyncOp::MutexLock(0));
        hg.on_write(T0, Addr::new(5), 1);
        hg.on_sync(T0, SyncOp::MutexUnlock(0));
        hg.on_sync(T1, SyncOp::MutexLock(0));
        hg.on_write(T1, Addr::new(5), 1);
        hg.on_sync(T1, SyncOp::MutexUnlock(0));
        assert_eq!(hg.race_count(), 0);
    }

    #[test]
    fn semaphore_handoff_orders_producer_consumer() {
        let mut hg = HelgrindTool::new();
        started(&mut hg);
        hg.on_write(T0, Addr::new(7), 1);
        hg.on_sync(T0, SyncOp::SemSignal(0));
        hg.on_sync(T1, SyncOp::SemWait(0));
        hg.on_read(T1, Addr::new(7), 1);
        assert_eq!(hg.race_count(), 0);
    }

    #[test]
    fn read_read_never_races() {
        let mut hg = HelgrindTool::new();
        started(&mut hg);
        hg.on_read(T0, Addr::new(3), 1);
        hg.on_read(T1, Addr::new(3), 1);
        assert_eq!(hg.race_count(), 0);
    }

    #[test]
    fn racing_cell_reported_once() {
        let mut hg = HelgrindTool::new();
        started(&mut hg);
        hg.on_write(T0, Addr::new(10), 1);
        hg.on_write(T1, Addr::new(10), 1);
        hg.on_write(T0, Addr::new(10), 1);
        hg.on_write(T1, Addr::new(10), 1);
        assert_eq!(hg.race_count(), 1);
        assert!(hg.shadow_bytes() > 0);
        assert_eq!(hg.name(), "helgrind");
    }

    #[test]
    fn join_orders_child_before_parent() {
        let mut hg = HelgrindTool::new();
        started(&mut hg);
        hg.on_write(T1, Addr::new(20), 1);
        hg.on_sync(T0, SyncOp::Join { child: T1 });
        hg.on_read(T0, Addr::new(20), 1);
        assert_eq!(hg.race_count(), 0);
    }

    #[test]
    fn unordered_read_then_write_races() {
        let mut hg = HelgrindTool::new();
        started(&mut hg);
        hg.on_read(T0, Addr::new(11), 1);
        hg.on_write(T1, Addr::new(11), 1);
        assert_eq!(hg.race_count(), 1);
        assert!(!hg.races()[0].second_is_write || hg.races()[0].second == T1);
    }
}
