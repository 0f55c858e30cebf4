//! The read/write timestamping algorithm (paper §3.2, Figures 8 and 9).
//!
//! [`DrmsProfiler`] computes, for every routine activation of every
//! thread, the **dynamic read memory size** — the number of first-reads
//! and induced first-reads — together with the classical **read memory
//! size** in a single fused pass, plus the activation's cost.
//!
//! Data structures mirror the paper exactly:
//!
//! * a global counter `count`, incremented at each thread switch and
//!   routine activation (and at each `kernelToUser` transfer);
//! * a global shadow memory `wts` holding, per cell, the timestamp of the
//!   latest write by *any* thread (or by the kernel);
//! * per thread, a shadow memory `ts_t` holding the timestamp of the
//!   thread's latest access to each cell, and a shadow run-time stack
//!   whose entries carry the invocation timestamp and *partial* rms/drms
//!   values maintained under the paper's Invariant 2;
//! * the ancestor search of `read` (line 7) runs in `O(log d)` via binary
//!   search on the strictly increasing invocation timestamps.
//!
//! Counter overflow is handled by periodic global renumbering: when
//! `count` reaches a configurable limit, all live timestamps are
//! rank-compressed, preserving every pairwise order relation among
//! `ts_t[ℓ]`, `wts[ℓ]` and the shadow-stack entries.

use crate::profile::ProfileReport;
use drms_trace::{Addr, Metrics, RoutineId, ThreadId};
use drms_vm::{BatchKind, EventBatch, ShadowCacheStats, ShadowMemory, Tool};

/// Which write source a `wts` entry came from (provenance of induced
/// first-reads, backing the thread/external input split of Figs. 13–15).
#[allow(dead_code)]
const SRC_NONE: u8 = 0;
const SRC_THREAD: u8 = 1;
const SRC_KERNEL: u8 = 2;

/// Configuration of the drms profiler.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DrmsConfig {
    /// Count induced first-reads caused by stores of other threads.
    ///
    /// Disabling this (with `external_input` on) reproduces the paper's
    /// "drms with external input only" variant (Figure 6b).
    pub thread_input: bool,
    /// Count induced first-reads caused by kernel transfers (Figure 9).
    pub external_input: bool,
    /// Renumber timestamps when `count` reaches this value.
    ///
    /// The default mimics a 32-bit counter. Tests force tiny limits to
    /// exercise renumbering aggressively.
    pub count_limit: u64,
}

impl Default for DrmsConfig {
    fn default() -> Self {
        DrmsConfig {
            thread_input: true,
            external_input: true,
            count_limit: u32::MAX as u64,
        }
    }
}

impl DrmsConfig {
    /// Both dynamic input sources enabled (the full metric).
    pub fn full() -> Self {
        Self::default()
    }

    /// Only external (kernel) input counts as induced (Figure 6b).
    pub fn external_only() -> Self {
        DrmsConfig {
            thread_input: false,
            ..Self::default()
        }
    }

    /// No dynamic input sources: drms degenerates to rms.
    pub fn static_only() -> Self {
        DrmsConfig {
            thread_input: false,
            external_input: false,
            ..Self::default()
        }
    }
}

/// Number of slots in the [`SuppressCache`]; a power of two.
const SUPPRESS_SLOTS: usize = 8192;

#[derive(Clone, Copy)]
struct SuppressSlot {
    addr: u64,
    gen: u64,
    /// Whether a *write* to this cell is also a no-op (set by a write,
    /// cleared by a read: a read does not stamp `wts`/`wsrc`, so a
    /// later write at the same count still has work to do).
    write_ok: bool,
}

/// Hot-loop redundancy suppression: a direct-mapped, generation-tagged
/// cache of cells the current thread has already accessed at the
/// current global `count`.
///
/// Soundness rests on the timestamping algorithm itself: after
/// `read(ℓ)` by thread `t` at count `c`, `ts_t[ℓ] = c`, and since every
/// frame's invocation timestamp and every `wts` entry is ≤ `c`, a
/// second `read(ℓ)` by `t` at the same `c` takes neither the induced
/// nor the rms-first branch and rewrites `ts_t[ℓ] = c` — a complete
/// no-op. Likewise a repeated `write(ℓ)` restores the identical
/// `ts`/`wts`/`wsrc` values, and a read after a write is a no-op too
/// (the reverse is not: a read does not stamp `wts`, hence `write_ok`).
/// The cache is therefore invalidated *only* when `count` moves
/// (thread switch, routine call, kernel fill — all call `bump_count`)
/// or when events from a different thread arrive without an
/// intervening switch (trace replays); both are O(1) generation bumps.
/// Returns never invalidate: the no-op argument is stack-independent.
///
/// A collision merely evicts — the slow path re-runs the (idempotent)
/// event handler — so the cache can never change the profile, only
/// skip shadow-memory walks. The hit/lookup counters land in the
/// metrics registry and are byte-identical across dispatch modes,
/// because delivery order (and thus the cache's state machine) is.
struct SuppressCache {
    slots: Vec<SuppressSlot>,
    gen: u64,
    owner: ThreadId,
    read_hits: u64,
    write_hits: u64,
    lookups: u64,
    flushes: u64,
}

impl SuppressCache {
    fn new() -> Self {
        SuppressCache {
            slots: vec![
                SuppressSlot {
                    addr: 0,
                    gen: 0,
                    write_ok: false,
                };
                SUPPRESS_SLOTS
            ],
            // Generation 0 is reserved for "never written" slots.
            gen: 1,
            owner: ThreadId::MAIN,
            read_hits: 0,
            write_hits: 0,
            lookups: 0,
            flushes: 0,
        }
    }

    #[inline(always)]
    fn idx(cell: Addr) -> usize {
        let a = cell.raw();
        ((a ^ (a >> 13)) as usize) & (SUPPRESS_SLOTS - 1)
    }

    /// Invalidates every entry (generation bump; storage untouched).
    #[inline]
    fn flush(&mut self) {
        self.gen += 1;
        self.flushes += 1;
    }

    /// Re-homes the cache when events arrive from a different thread
    /// than the one that filled it. VM streams flush on the thread
    /// switch anyway; this guards direct trace replays.
    #[inline(always)]
    fn retarget(&mut self, t: ThreadId) {
        if t != self.owner {
            self.flush();
            self.owner = t;
        }
    }

    #[inline(always)]
    fn read_suppressed(&mut self, t: ThreadId, cell: Addr) -> bool {
        self.retarget(t);
        self.lookups += 1;
        let s = &self.slots[Self::idx(cell)];
        let hit = s.gen == self.gen && s.addr == cell.raw();
        self.read_hits += hit as u64;
        hit
    }

    #[inline(always)]
    fn write_suppressed(&mut self, t: ThreadId, cell: Addr) -> bool {
        self.retarget(t);
        self.lookups += 1;
        let s = &self.slots[Self::idx(cell)];
        let hit = s.gen == self.gen && s.addr == cell.raw() && s.write_ok;
        self.write_hits += hit as u64;
        hit
    }

    #[inline(always)]
    fn insert_read(&mut self, cell: Addr) {
        let s = &mut self.slots[Self::idx(cell)];
        let write_ok = s.gen == self.gen && s.addr == cell.raw() && s.write_ok;
        *s = SuppressSlot {
            addr: cell.raw(),
            gen: self.gen,
            write_ok,
        };
    }

    #[inline(always)]
    fn insert_write(&mut self, cell: Addr) {
        self.slots[Self::idx(cell)] = SuppressSlot {
            addr: cell.raw(),
            gen: self.gen,
            write_ok: true,
        };
    }
}

struct Frame {
    routine: RoutineId,
    /// Invocation timestamp (`St[i].ts`).
    ts: u64,
    /// Partial rms under Invariant 2 (may be transiently negative).
    partial_rms: i64,
    /// Partial drms under Invariant 2 (may be transiently negative).
    partial_drms: i64,
    /// Thread cost when the activation began (`St[i].cost`).
    entry_cost: u64,
}

struct ThreadState {
    /// 32-bit per-cell timestamps, as in the original tool — the reason
    /// periodic renumbering is needed at all.
    ts: ShadowMemory<u32>,
    stack: Vec<Frame>,
    last_cost: u64,
}

impl ThreadState {
    fn new() -> Self {
        ThreadState {
            ts: ShadowMemory::new(),
            stack: Vec::new(),
            last_cost: 0,
        }
    }
}

/// The aprof-drms profiler: computes rms and drms per routine activation
/// in one pass over the instrumentation event stream.
///
/// Attach it to a live VM run as a [`Tool`], or feed it a merged trace via
/// [`drms_trace::replay()`] — both produce identical profiles.
///
/// # Example
/// ```
/// use drms_core::{DrmsProfiler, DrmsConfig};
/// use drms_vm::{ProgramBuilder, run_program, RunConfig};
///
/// let mut pb = ProgramBuilder::new();
/// let g = pb.global(8);
/// let work = pb.function("work", 0, |f| {
///     f.for_range(0, 8, |f, i| { let _ = f.load(g.raw() as i64, i); });
///     f.ret(None);
/// });
/// let main = pb.function("main", 0, |f| {
///     f.call_void(work, &[]);
///     f.ret(None);
/// });
/// let program = pb.finish(main).unwrap();
/// let mut prof = DrmsProfiler::new(DrmsConfig::full());
/// run_program(&program, RunConfig::default(), &mut prof).unwrap();
/// let report = prof.into_report();
/// let p = report.merged_routine(work);
/// assert_eq!(p.drms_plot().len(), 1);
/// assert_eq!(p.drms_plot()[0].0, 8); // eight distinct cells read
/// ```
pub struct DrmsProfiler {
    config: DrmsConfig,
    count: u64,
    wts: ShadowMemory<u32>,
    wsrc: ShadowMemory<u8>,
    threads: Vec<Option<ThreadState>>,
    report: ProfileReport,
    renumberings: u64,
    suppress: SuppressCache,
}

impl DrmsProfiler {
    /// Creates a profiler with the given configuration.
    pub fn new(config: DrmsConfig) -> Self {
        let config = DrmsConfig {
            // Stored timestamps are 32-bit; renumber before they overflow.
            count_limit: config.count_limit.min(u32::MAX as u64),
            ..config
        };
        DrmsProfiler {
            config,
            count: 0,
            wts: ShadowMemory::new(),
            wsrc: ShadowMemory::new(),
            threads: Vec::new(),
            report: ProfileReport::new(),
            renumberings: 0,
            suppress: SuppressCache::new(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> DrmsConfig {
        self.config
    }

    /// Number of global renumbering passes performed so far.
    pub fn renumberings(&self) -> u64 {
        self.renumberings
    }

    /// Current value of the global timestamp counter.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The report collected so far (activations still pending on some
    /// shadow stack are not included).
    pub fn report(&self) -> &ProfileReport {
        &self.report
    }

    /// Consumes the profiler, yielding its report.
    pub fn into_report(self) -> ProfileReport {
        self.report
    }

    fn bump_count(&mut self) {
        // Any count move invalidates the redundancy cache: "already
        // accessed at the current count" stops being true.
        self.suppress.flush();
        self.count += 1;
        if self.count >= self.config.count_limit {
            self.renumber();
        }
    }

    fn thread_mut(&mut self, t: ThreadId) -> &mut ThreadState {
        let idx = t.index() as usize;
        while self.threads.len() <= idx {
            self.threads.push(None);
        }
        self.threads[idx].get_or_insert_with(ThreadState::new)
    }

    /// The `read(ℓ, t)` event handler, short-circuited through the
    /// redundancy cache: a cell this thread already touched at the
    /// current count needs no shadow-memory walk (see [`SuppressCache`]).
    #[inline]
    fn read_cell(&mut self, t: ThreadId, cell: Addr) {
        if self.suppress.read_suppressed(t, cell) {
            return;
        }
        self.read_cell_slow(t, cell);
        self.suppress.insert_read(cell);
    }

    /// Core of the `read(ℓ, t)` event handler (Figure 8), fused with the
    /// rms ("latest access", PLDI'12) update.
    fn read_cell_slow(&mut self, t: ThreadId, cell: Addr) {
        let count = self.count as u32;
        let wts_l = self.wts.get(cell) as u64;
        let state = self.thread_mut(t);
        let Some(top_idx) = state.stack.len().checked_sub(1) else {
            // Access outside any routine activation: only refresh ts_t.
            state.ts.set(cell, count);
            return;
        };
        // One walk for the ts_t read-modify-write: every exit path stamps
        // the cell with the current count, so write it up front and keep
        // the old stamp for the first-read tests below.
        let slot = state.ts.slot_mut(cell);
        let ts_l = *slot as u64;
        *slot = count;
        let top_ts = state.stack[top_idx].ts;

        // rms side: a first access *by this thread's topmost activation*
        // is one whose last thread-local access predates the activation.
        let rms_first = ts_l < top_ts;

        if ts_l < wts_l {
            // Induced first-read: ℓ was written (by another thread or by
            // the kernel) after this thread's latest access.
            state.stack[top_idx].partial_drms += 1;
            if rms_first {
                state.stack[top_idx].partial_rms += 1;
                if ts_l != 0 {
                    if let Some(i) = ancestor_index(&state.stack, ts_l) {
                        state.stack[i].partial_rms -= 1;
                    }
                }
            }
            let routine = state.stack[top_idx].routine;
            // The write source only matters on this (rare) branch, so
            // its shadow walk is deferred to here.
            let src = self.wsrc.get(cell);
            let breakdown = self.report.entry(routine, t);
            match src {
                SRC_KERNEL => breakdown.breakdown.kernel_induced += 1,
                _ => breakdown.breakdown.thread_induced += 1,
            }
            return;
        }

        if rms_first {
            // Plain first read for the topmost activation; ancestors that
            // already saw ℓ give one unit back (Invariant 2).
            state.stack[top_idx].partial_drms += 1;
            state.stack[top_idx].partial_rms += 1;
            if ts_l != 0 {
                if let Some(i) = ancestor_index(&state.stack, ts_l) {
                    state.stack[i].partial_drms -= 1;
                    state.stack[i].partial_rms -= 1;
                }
            }
            let routine = state.stack[top_idx].routine;
            self.report.entry(routine, t).breakdown.plain += 1;
        }
    }

    /// The `write(ℓ, t)` event handler. Suppressible only when the
    /// previous access at this count was itself a write (`write_ok`):
    /// a repeated write restores identical `ts`/`wts`/`wsrc` stamps.
    #[inline]
    fn write_cell(&mut self, t: ThreadId, cell: Addr) {
        if self.suppress.write_suppressed(t, cell) {
            return;
        }
        let count = self.count as u32;
        self.thread_mut(t).ts.set(cell, count);
        if self.config.thread_input {
            self.wts.set(cell, count);
            self.wsrc.set(cell, SRC_THREAD);
        }
        self.suppress.insert_write(cell);
    }

    /// Global timestamp renumbering (paper §3.2, "Counter Overflows").
    ///
    /// All timestamps live in `wts`, the per-thread `ts_t` shadows and the
    /// shadow stacks; rank-compressing them preserves every pairwise
    /// order relation while shrinking the counter back towards zero.
    fn renumber(&mut self) {
        let mut live: Vec<u64> = Vec::new();
        self.wts.for_each_mut(|_, v| {
            if *v != 0 {
                live.push(*v as u64);
            }
        });
        for state in self.threads.iter_mut().flatten() {
            state.ts.for_each_mut(|_, v| {
                if *v != 0 {
                    live.push(*v as u64);
                }
            });
            for frame in &state.stack {
                live.push(frame.ts);
            }
        }
        live.push(self.count);
        live.sort_unstable();
        live.dedup();
        let rank_of = |v: u64| -> u64 {
            match live.binary_search(&v) {
                Ok(i) => i as u64 + 1,
                Err(_) => unreachable!("renumbering a timestamp that was not collected"),
            }
        };
        self.wts.for_each_mut(|_, v| {
            if *v != 0 {
                *v = match live.binary_search(&(*v as u64)) {
                    Ok(i) => i as u32 + 1,
                    Err(_) => unreachable!(),
                };
            }
        });
        for state in self.threads.iter_mut().flatten() {
            state.ts.for_each_mut(|_, v| {
                if *v != 0 {
                    *v = match live.binary_search(&(*v as u64)) {
                        Ok(i) => i as u32 + 1,
                        Err(_) => unreachable!(),
                    };
                }
            });
            for frame in &mut state.stack {
                frame.ts = rank_of(frame.ts);
            }
        }
        self.count = rank_of(self.count);
        self.renumberings += 1;
    }
}

/// `max i such that stack[i].ts <= ts` — the paper's line 7, in
/// `O(log d)` thanks to strictly increasing invocation timestamps.
fn ancestor_index(stack: &[Frame], ts: u64) -> Option<usize> {
    let pp = stack.partition_point(|f| f.ts <= ts);
    pp.checked_sub(1)
}

impl Tool for DrmsProfiler {
    fn on_thread_start(&mut self, thread: ThreadId, _parent: Option<ThreadId>) {
        self.thread_mut(thread);
    }

    fn on_thread_switch(&mut self, _from: Option<ThreadId>, _to: ThreadId) {
        self.bump_count();
    }

    fn on_call(&mut self, thread: ThreadId, routine: RoutineId, cost: u64) {
        self.bump_count();
        let count = self.count;
        let state = self.thread_mut(thread);
        state.stack.push(Frame {
            routine,
            ts: count,
            partial_rms: 0,
            partial_drms: 0,
            entry_cost: cost,
        });
        state.last_cost = cost;
    }

    fn on_return(&mut self, thread: ThreadId, routine: RoutineId, cost: u64) {
        let state = self.thread_mut(thread);
        let Some(frame) = state.stack.pop() else {
            return;
        };
        debug_assert_eq!(frame.routine, routine, "unbalanced call stack");
        if let Some(parent) = state.stack.last_mut() {
            parent.partial_rms += frame.partial_rms;
            parent.partial_drms += frame.partial_drms;
        }
        state.last_cost = cost;
        let rms = frame.partial_rms.max(0) as u64;
        let drms = frame.partial_drms.max(0) as u64;
        debug_assert!(frame.partial_rms >= 0, "rms must be non-negative at return");
        debug_assert!(
            frame.partial_drms >= 0,
            "drms must be non-negative at return"
        );
        self.report.entry(frame.routine, thread).record(
            rms,
            drms,
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
        // The kernel reads the buffer on the thread's behalf, "as if the
        // system call were a normal subroutine" (Figure 9).
        self.on_read(thread, addr, len);
    }

    fn on_kernel_to_user(&mut self, _thread: ThreadId, addr: Addr, len: u32) {
        if !self.config.external_input {
            return;
        }
        // Figure 9: bump the counter once, then stamp the buffer with a
        // global write timestamp larger than any thread-local one.
        self.bump_count();
        let count = self.count as u32;
        for cell in addr.range(len) {
            self.wts.set(cell, count);
            self.wsrc.set(cell, SRC_KERNEL);
        }
    }

    fn on_thread_exit(&mut self, thread: ThreadId, cost: u64) {
        // Defensive unwind: collect any activations still pending (the VM
        // normally returns from the root routine before exiting).
        loop {
            let state = self.thread_mut(thread);
            let Some(frame) = state.stack.last() else {
                break;
            };
            let routine = frame.routine;
            self.on_return(thread, routine, cost);
        }
    }

    fn on_finish(&mut self) {
        // An aborted run (watchdog, deadlock, corrupt stack) leaves
        // activations open on some shadow stacks. Flush them at each
        // thread's latest observed cost so the partial profile is still
        // valid; on a clean run every stack is already empty.
        for idx in 0..self.threads.len() {
            let cost = match &self.threads[idx] {
                Some(s) if !s.stack.is_empty() => s.last_cost,
                _ => continue,
            };
            self.on_thread_exit(ThreadId::new(idx as u32), cost);
        }
    }

    fn name(&self) -> &str {
        "aprof-drms"
    }

    fn shadow_bytes(&self) -> u64 {
        let mut bytes = self.wts.bytes() + self.wsrc.bytes();
        for state in self.threads.iter().flatten() {
            bytes += state.ts.bytes();
            bytes += (state.stack.capacity() * std::mem::size_of::<Frame>()) as u64;
        }
        bytes + self.report.approx_bytes()
    }

    /// Adds the profiler's shadow-memory pressure to the registry: the
    /// summed last-leaf cache counters of every shadow (`wts`, `wsrc`
    /// and the per-thread `ts_t`), leaf/byte gauges, and the
    /// renumbering count. `Metrics::audit` cross-checks
    /// `shadow.cache.hit + miss == lookups` over the summed values.
    fn observe_metrics(&self, metrics: &mut Metrics) {
        metrics.set_gauge(
            format!("tool.{}.shadow_bytes", self.name()),
            self.shadow_bytes(),
        );
        let mut cache = ShadowCacheStats::default();
        cache.absorb(self.wts.cache_stats());
        cache.absorb(self.wsrc.cache_stats());
        let mut leaves = (self.wts.leaf_count() + self.wsrc.leaf_count()) as u64;
        for state in self.threads.iter().flatten() {
            cache.absorb(state.ts.cache_stats());
            leaves += state.ts.leaf_count() as u64;
        }
        metrics.add("shadow.cache.hit", cache.hits);
        metrics.add("shadow.cache.miss", cache.misses);
        metrics.add("shadow.cache.lookups", cache.lookups);
        metrics.add("shadow.cache.invalidate", cache.invalidations);
        metrics.add("shadow.leaf_allocs", cache.leaf_allocs);
        metrics.set_gauge("shadow.leaves", leaves);
        metrics.set_gauge("shadow.bytes", self.shadow_bytes());
        metrics.add("drms.renumberings", self.renumberings);
        metrics.add("drms.suppress.lookups", self.suppress.lookups);
        metrics.add("drms.suppress.read_hits", self.suppress.read_hits);
        metrics.add("drms.suppress.write_hits", self.suppress.write_hits);
        metrics.add("drms.suppress.flushes", self.suppress.flushes);
    }

    /// Native batch path: one virtual dispatch delivers the whole
    /// read/write batch; each entry runs the same `read_cell` /
    /// `write_cell` state machine as per-event delivery (the VM flushes
    /// before every other event kind, so order is preserved exactly).
    fn observe_batch(&mut self, batch: &EventBatch) {
        let thread = batch.thread();
        let (kinds, addrs, lens) = batch.arrays();
        for i in 0..kinds.len() {
            match kinds[i] {
                BatchKind::Read => {
                    for cell in addrs[i].range(lens[i]) {
                        self.read_cell(thread, cell);
                    }
                }
                BatchKind::Write => {
                    for cell in addrs[i].range(lens[i]) {
                        self.write_cell(thread, cell);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms_trace::{Event, RoutineId, ThreadTrace};

    const R0: RoutineId = RoutineId::new(0);
    const R1: RoutineId = RoutineId::new(1);
    const T0: ThreadId = ThreadId::new(0);
    const T1: ThreadId = ThreadId::new(1);

    fn a(x: u64) -> Addr {
        Addr::new(x)
    }

    /// Drives a hand-written interleaved event sequence into a profiler.
    fn drive(events: Vec<(ThreadId, Event)>, config: DrmsConfig) -> ProfileReport {
        let mut traces: Vec<ThreadTrace> = Vec::new();
        for (i, (t, e)) in events.into_iter().enumerate() {
            let idx = t.index() as usize;
            while traces.len() <= idx {
                traces.push(ThreadTrace::new(ThreadId::new(traces.len() as u32)));
            }
            traces[idx].push(i as u64 + 1, 0, e);
        }
        let merged = drms_trace::merge_traces(traces);
        let mut prof = DrmsProfiler::new(config);
        drms_trace::replay(&merged, &mut prof);
        prof.into_report()
    }

    fn call(r: RoutineId) -> Event {
        Event::Call { routine: r }
    }
    fn ret(r: RoutineId) -> Event {
        Event::Return { routine: r }
    }
    fn rd(x: u64) -> Event {
        Event::Read { addr: a(x), len: 1 }
    }
    fn wr(x: u64) -> Event {
        Event::Write { addr: a(x), len: 1 }
    }

    /// Figure 1a: f in T1 reads x twice; g in T2 overwrites x in between.
    /// rms(f) = 1, drms(f) = 2.
    #[test]
    fn figure_1a_interleaved_write() {
        let report = drive(
            vec![
                (T0, call(R0)),
                (T0, rd(10)),
                (T1, call(R1)),
                (T1, wr(10)),
                (T1, ret(R1)),
                (T0, rd(10)),
                (T0, ret(R0)),
            ],
            DrmsConfig::full(),
        );
        let f = report.get(R0, T0).unwrap();
        assert_eq!(f.drms_plot(), vec![(2, 0)]);
        assert_eq!(f.rms_plot(), vec![(1, 0)]);
        assert_eq!(f.breakdown.plain, 1);
        assert_eq!(f.breakdown.thread_induced, 1);
    }

    /// Figure 1b: f reads x, calls h which reads x (after T2 writes x),
    /// then T2 writes x again and f reads x a third time… the paper's
    /// exact interleaving: rms(h)=1, rms(f)=1, drms(h)=1, drms(f)=2.
    #[test]
    fn figure_1b_subroutine_induced_read() {
        // Interleaving: f: read x; T2 writes x; h: read x (induced for f
        // via h); T2 does NOT write again; f: read x → between the latest
        // T2 write and this read, T1 already accessed x through h, so the
        // third read is not induced.
        let h = RoutineId::new(2);
        let report = drive(
            vec![
                (T0, call(R0)), // f
                (T0, rd(10)),   // first-read for f
                (T1, call(R1)),
                (T1, wr(10)), // T2 write
                (T1, ret(R1)),
                (T0, call(h)),
                (T0, rd(10)), // induced first-read (also first for h)
                (T0, ret(h)),
                (T0, rd(10)), // NOT induced: T1 accessed x via h already
                (T0, ret(R0)),
            ],
            DrmsConfig::full(),
        );
        let f = report.get(R0, T0).unwrap();
        let hp = report.get(h, T0).unwrap();
        assert_eq!(hp.drms_plot(), vec![(1, 0)], "drms(h) = 1");
        assert_eq!(hp.rms_plot(), vec![(1, 0)], "rms(h) = 1");
        assert_eq!(f.drms_plot(), vec![(2, 0)], "drms(f) = 2");
        assert_eq!(f.rms_plot(), vec![(1, 0)], "rms(f) = 1");
    }

    /// First access that is a write suppresses later reads from the rms
    /// and the drms alike.
    #[test]
    fn write_then_read_is_not_input() {
        let report = drive(
            vec![(T0, call(R0)), (T0, wr(5)), (T0, rd(5)), (T0, ret(R0))],
            DrmsConfig::full(),
        );
        let p = report.get(R0, T0).unwrap();
        assert_eq!(p.drms_plot(), vec![(0, 0)]);
        assert_eq!(p.rms_plot(), vec![(0, 0)]);
    }

    /// Nested activations: the child's first-read is also the parent's;
    /// a later parent read of the same cell must not double-count
    /// (Invariant 2's ancestor decrement).
    #[test]
    fn nested_first_reads_propagate_once() {
        let report = drive(
            vec![
                (T0, call(R0)),
                (T0, call(R1)),
                (T0, rd(7)),
                (T0, ret(R1)),
                (T0, rd(7)), // parent already counted via child
                (T0, ret(R0)),
            ],
            DrmsConfig::full(),
        );
        let parent = report.get(R0, T0).unwrap();
        let child = report.get(R1, T0).unwrap();
        assert_eq!(child.drms_plot(), vec![(1, 0)]);
        assert_eq!(parent.drms_plot(), vec![(1, 0)]);
        assert_eq!(parent.rms_plot(), vec![(1, 0)]);
    }

    /// A sibling call's accesses count once for the parent; the second
    /// sibling reading the same cell counts for itself but not again for
    /// the parent.
    #[test]
    fn sibling_calls_share_parent_input() {
        let report = drive(
            vec![
                (T0, call(R0)),
                (T0, call(R1)),
                (T0, rd(7)),
                (T0, ret(R1)),
                (T0, call(R1)),
                (T0, rd(7)),
                (T0, ret(R1)),
                (T0, ret(R0)),
            ],
            DrmsConfig::full(),
        );
        let parent = report.get(R0, T0).unwrap();
        let child = report.get(R1, T0).unwrap();
        assert_eq!(
            parent.drms_plot(),
            vec![(1, 0)],
            "parent counts the cell once"
        );
        assert_eq!(child.calls, 2);
        // Both sibling activations observed drms = 1.
        assert_eq!(child.by_drms.get(&1).map(|s| s.count), Some(2));
    }

    /// Kernel input: kernelToUser stamps the buffer; the subsequent read
    /// is an induced first-read every time (data streaming, Figure 3).
    #[test]
    fn kernel_to_user_induces_reads() {
        let mut events = vec![(T0, call(R0))];
        for _ in 0..5 {
            events.push((
                T0,
                Event::KernelToUser {
                    addr: a(20),
                    len: 2,
                },
            ));
            events.push((T0, rd(20))); // only b[0] is consumed
        }
        events.push((T0, ret(R0)));
        let report = drive(events, DrmsConfig::full());
        let p = report.get(R0, T0).unwrap();
        assert_eq!(p.drms_plot(), vec![(5, 0)], "drms = n (5 induced reads)");
        assert_eq!(p.rms_plot(), vec![(1, 0)], "rms = 1 (same location)");
        // Every read follows a kernel fill, so all five are kernel-induced.
        assert_eq!(p.breakdown.kernel_induced, 5);
        assert_eq!(p.breakdown.plain, 0);
    }

    /// With external input disabled, kernel transfers are invisible.
    #[test]
    fn external_input_can_be_disabled() {
        let events = vec![
            (T0, call(R0)),
            (
                T0,
                Event::KernelToUser {
                    addr: a(20),
                    len: 1,
                },
            ),
            (T0, rd(20)),
            (
                T0,
                Event::KernelToUser {
                    addr: a(20),
                    len: 1,
                },
            ),
            (T0, rd(20)),
            (T0, ret(R0)),
        ];
        let report = drive(events, DrmsConfig::static_only());
        let p = report.get(R0, T0).unwrap();
        assert_eq!(p.drms_plot(), vec![(1, 0)], "degenerates to rms");
    }

    /// With thread input disabled but external enabled (Fig. 6b variant),
    /// cross-thread writes do not induce reads but kernel fills do.
    #[test]
    fn external_only_config() {
        let report = drive(
            vec![
                (T0, call(R0)),
                (T0, rd(10)),
                (T1, call(R1)),
                (T1, wr(10)),
                (T1, ret(R1)),
                (T0, rd(10)), // not induced under external-only
                (
                    T0,
                    Event::KernelToUser {
                        addr: a(10),
                        len: 1,
                    },
                ),
                (T0, rd(10)), // induced (kernel)
                (T0, ret(R0)),
            ],
            DrmsConfig::external_only(),
        );
        let p = report.get(R0, T0).unwrap();
        assert_eq!(p.drms_plot(), vec![(2, 0)]);
        assert_eq!(p.breakdown.kernel_induced, 1);
        assert_eq!(p.breakdown.thread_induced, 0);
    }

    /// userToKernel counts as a read performed by the thread.
    #[test]
    fn user_to_kernel_is_a_read() {
        let report = drive(
            vec![
                (T0, call(R0)),
                (
                    T0,
                    Event::UserToKernel {
                        addr: a(30),
                        len: 3,
                    },
                ),
                (T0, ret(R0)),
            ],
            DrmsConfig::full(),
        );
        let p = report.get(R0, T0).unwrap();
        assert_eq!(p.drms_plot(), vec![(3, 0)]);
        assert_eq!(p.rms_plot(), vec![(3, 0)]);
    }

    /// drms ≥ rms on every activation (paper Inequality 1).
    #[test]
    fn drms_dominates_rms() {
        let report = drive(
            vec![
                (T0, call(R0)),
                (T0, rd(1)),
                (T0, wr(2)),
                (T1, call(R1)),
                (T1, wr(1)),
                (T1, rd(2)),
                (T1, ret(R1)),
                (T0, rd(1)),
                (T0, rd(2)),
                (T0, ret(R0)),
            ],
            DrmsConfig::full(),
        );
        for (_, p) in report.iter() {
            assert!(p.sum_drms >= p.sum_rms);
        }
    }

    /// Renumbering with a tiny counter limit must not change results.
    #[test]
    fn renumbering_preserves_profiles() {
        let mk_events = || {
            let mut evs = vec![(T0, call(R0)), (T1, call(R1))];
            for i in 0..40 {
                evs.push((T0, rd(100 + (i % 7))));
                evs.push((T1, wr(100 + (i % 5))));
                evs.push((T0, wr(200 + (i % 3))));
                evs.push((T1, rd(200 + (i % 3))));
            }
            evs.push((T0, ret(R0)));
            evs.push((T1, ret(R1)));
            evs
        };
        let baseline = drive(mk_events(), DrmsConfig::full());
        let tiny = DrmsConfig {
            count_limit: 13,
            ..DrmsConfig::full()
        };
        // Drive manually to also check the renumbering counter.
        let mut traces: Vec<ThreadTrace> = Vec::new();
        for (i, (t, e)) in mk_events().into_iter().enumerate() {
            let idx = t.index() as usize;
            while traces.len() <= idx {
                traces.push(ThreadTrace::new(ThreadId::new(traces.len() as u32)));
            }
            traces[idx].push(i as u64 + 1, 0, e);
        }
        let merged = drms_trace::merge_traces(traces);
        let mut prof = DrmsProfiler::new(tiny);
        drms_trace::replay(&merged, &mut prof);
        assert!(
            prof.renumberings() > 0,
            "tiny limit must trigger renumbering"
        );
        assert!(prof.count() < 200);
        assert_eq!(prof.into_report(), baseline);
    }

    /// Producer/consumer pattern (paper Figure 2): at iteration n the
    /// consumer's drms is n while its rms is 1.
    #[test]
    fn producer_consumer_pattern() {
        let n = 6;
        let mut events = vec![(T0, call(R0)), (T1, call(R1))];
        for _ in 0..n {
            events.push((T0, wr(50))); // produceData writes x
            events.push((T1, rd(50))); // consumeData reads x
        }
        events.push((T0, ret(R0)));
        events.push((T1, ret(R1)));
        let report = drive(events, DrmsConfig::full());
        let consumer = report.get(R1, T1).unwrap();
        assert_eq!(consumer.drms_plot(), vec![(n, 0)]);
        assert_eq!(consumer.rms_plot(), vec![(1, 0)]);
    }

    #[test]
    fn shadow_bytes_grow_with_footprint() {
        let mut prof = DrmsProfiler::new(DrmsConfig::full());
        let before = prof.shadow_bytes();
        prof.on_call(T0, R0, 0);
        prof.on_write(T0, a(1000), 64);
        assert!(prof.shadow_bytes() > before);
        assert_eq!(prof.name(), "aprof-drms");
    }

    /// Hot-loop redundancy suppression: repeated same-count accesses
    /// hit the cache, never reach the shadow walk, and leave the
    /// profile exactly where the unsuppressed algebra puts it.
    #[test]
    fn redundant_rereads_hit_the_suppression_cache() {
        let mut prof = DrmsProfiler::new(DrmsConfig::full());
        prof.on_call(T0, R0, 0);
        for _ in 0..5 {
            prof.on_read(T0, a(100), 1); // 1 slow read + 4 suppressed
        }
        for _ in 0..3 {
            prof.on_write(T0, a(200), 1); // 1 slow write + 2 suppressed
        }
        prof.on_read(T0, a(200), 1); // read-after-write: suppressed too
        prof.on_write(T0, a(100), 1); // write-after-read: NOT suppressible
        assert_eq!(prof.suppress.read_hits, 5);
        assert_eq!(prof.suppress.write_hits, 2);
        assert_eq!(prof.suppress.lookups, 10);
        // A count bump (here: a nested call) invalidates everything.
        prof.on_call(T0, R1, 4);
        prof.on_read(T0, a(100), 1);
        assert_eq!(prof.suppress.read_hits, 5, "flushed on bump_count");
        // Events from another thread without a switch re-home the cache.
        prof.on_read(T1, a(100), 1);
        assert_eq!(prof.suppress.read_hits, 5, "flushed on owner change");
        prof.on_return(T0, R1, 8);
        prof.on_return(T0, R0, 9);
        let report = prof.into_report();
        let p = report.get(R0, T0).unwrap();
        // Only cell 100 is a first read for R0 (200 was self-written
        // before it was read back) — exactly as without the cache.
        assert_eq!(p.rms_plot(), vec![(1, 9)]);
    }

    /// The suppressed and unsuppressed event streams produce identical
    /// profiles on a workload with heavy re-reading (the cache is
    /// always on, so this pins the algebra the suppression relies on:
    /// replaying each read N times must change nothing).
    #[test]
    fn repeated_accesses_do_not_change_any_profile() {
        let base = vec![
            (T0, call(R0)),
            (T0, rd(10)),
            (T0, wr(20)),
            (T1, call(R1)),
            (T1, wr(10)),
            (T1, ret(R1)),
            (T0, rd(10)),
            (T0, ret(R0)),
        ];
        let mut tripled = Vec::new();
        for (t, e) in &base {
            let reps = match e {
                Event::Read { .. } | Event::Write { .. } => 3,
                _ => 1,
            };
            for _ in 0..reps {
                tripled.push((*t, *e));
            }
        }
        let a = drive(base, DrmsConfig::full());
        let b = drive(tripled, DrmsConfig::full());
        assert_eq!(
            a.get(R0, T0).unwrap().drms_plot(),
            b.get(R0, T0).unwrap().drms_plot()
        );
        assert_eq!(
            a.get(R0, T0).unwrap().rms_plot(),
            b.get(R0, T0).unwrap().rms_plot()
        );
    }

    #[test]
    fn thread_exit_unwinds_pending_frames() {
        let mut prof = DrmsProfiler::new(DrmsConfig::full());
        prof.on_call(T0, R0, 0);
        prof.on_call(T0, R1, 3);
        prof.on_read(T0, a(9), 1);
        prof.on_thread_exit(T0, 10);
        let report = prof.into_report();
        assert_eq!(report.get(R1, T0).unwrap().calls, 1);
        assert_eq!(report.get(R0, T0).unwrap().calls, 1);
        assert_eq!(report.get(R0, T0).unwrap().drms_plot(), vec![(1, 10)]);
    }
}
