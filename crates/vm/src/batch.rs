//! Batched tool event delivery.
//!
//! The decoded dispatch loop does not call the tool once per memory
//! access. It appends read/write events into a fixed-capacity
//! struct-of-arrays [`EventBatch`] and flushes the whole batch through
//! [`Tool::observe_batch`](crate::Tool::observe_batch) at block
//! boundaries (or earlier, when the batch fills up or a state-changing
//! event — call, return, sync, syscall, thread switch — must be
//! delivered in order). This is the cheap-online half of the
//! cheap-online/heavy-offline split: the hot loop pays three array
//! pushes per access, and the tool amortizes its per-delivery setup
//! (thread-state lookup, shadow-walk locality) over the batch.
//!
//! Only plain reads and writes are batched. Every other event kind can
//! change tool state that read/write handling depends on (the drms
//! profiler's global count, its shadow stacks), so those are delivered
//! immediately — after flushing any pending batch, preserving the exact
//! event order of per-event delivery. A batch never spans a thread
//! switch, so one `thread` id covers all of its entries.

pub use drms_trace::BatchKind;
use drms_trace::{Addr, ThreadId};

/// A fixed-capacity struct-of-arrays buffer of read/write events, all
/// belonging to one thread.
///
/// The parallel `kinds`/`addrs`/`lens` arrays are allocated once (to
/// [`EventBatch::with_capacity`]'s capacity) and reused across flushes;
/// [`EventBatch::allocations`] counts the times backing storage was
/// actually (re)allocated, which the sweep's buffer-reuse test pins to
/// one per worker.
///
/// # Example
/// ```
/// use drms_vm::{BatchKind, EventBatch};
/// use drms_trace::{Addr, ThreadId};
///
/// let mut b = EventBatch::with_capacity(4);
/// b.set_thread(ThreadId::new(0));
/// b.push(BatchKind::Read, Addr::new(100), 1);
/// assert_eq!(b.len(), 1);
/// assert!(!b.is_full());
/// assert_eq!(b.entries().next(), Some((BatchKind::Read, Addr::new(100), 1)));
/// ```
#[derive(Clone, Debug)]
pub struct EventBatch {
    thread: ThreadId,
    /// Configured capacity; always ≥ 1. [`EventBatch::ensure_capacity`]
    /// is the only place that clamps, so every other method can trust
    /// the invariant instead of re-deriving it.
    capacity: usize,
    kinds: Vec<BatchKind>,
    addrs: Vec<Addr>,
    lens: Vec<u32>,
    allocations: u64,
}

impl Default for EventBatch {
    /// An empty one-event batch: the ≥1 capacity invariant holds from
    /// construction on, before any `ensure_capacity` call.
    fn default() -> EventBatch {
        EventBatch {
            thread: ThreadId::default(),
            capacity: 1,
            kinds: Vec::new(),
            addrs: Vec::new(),
            lens: Vec::new(),
            allocations: 0,
        }
    }
}

impl EventBatch {
    /// Creates a batch holding up to `capacity.max(1)` events.
    pub fn with_capacity(capacity: usize) -> EventBatch {
        let mut b = EventBatch::default();
        b.ensure_capacity(capacity);
        b
    }

    /// Grows (never shrinks) the backing arrays to hold `capacity`
    /// events, counting an allocation only when storage actually moves.
    /// Reusing one batch across runs with the same configured capacity
    /// therefore allocates exactly once.
    pub fn ensure_capacity(&mut self, capacity: usize) {
        // The one place the ≥1 clamp lives; `push`/`is_full`/`capacity`
        // assert on and return `self.capacity` directly.
        let capacity = capacity.max(1);
        self.capacity = capacity;
        // Each array reserves against its own deficit: the three Vecs
        // can legally over-allocate differently, so gating all three on
        // `kinds.capacity()` both skips needed `addrs`/`lens` growth
        // (when `kinds` is already large enough) and underflows (when
        // another array is larger than the requested capacity).
        // `reserve_exact(n)` guarantees room for `len + n` elements, so
        // the deficit is measured from `len` (inside the branch
        // `len <= capacity() < capacity`, so it cannot underflow).
        let mut grew = false;
        if self.kinds.capacity() < capacity {
            self.kinds.reserve_exact(capacity - self.kinds.len());
            grew = true;
        }
        if self.addrs.capacity() < capacity {
            self.addrs.reserve_exact(capacity - self.addrs.len());
            grew = true;
        }
        if self.lens.capacity() < capacity {
            self.lens.reserve_exact(capacity - self.lens.len());
            grew = true;
        }
        if grew {
            self.allocations += 1;
        }
    }

    /// The thread every entry belongs to.
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// Sets the owning thread. Only valid while the batch is empty — a
    /// batch never spans a thread switch.
    #[inline]
    pub fn set_thread(&mut self, thread: ThreadId) {
        debug_assert!(self.is_empty(), "a batch never spans a thread switch");
        self.thread = thread;
    }

    /// Appends one event. The caller flushes before exceeding capacity.
    #[inline]
    pub fn push(&mut self, kind: BatchKind, addr: Addr, len: u32) {
        debug_assert!(self.kinds.len() < self.capacity);
        self.kinds.push(kind);
        self.addrs.push(addr);
        self.lens.push(len);
    }

    /// Number of buffered events.
    #[inline]
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the batch holds no events.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Whether the next push would exceed capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.kinds.len() >= self.capacity
    }

    /// Configured capacity (always ≥ 1).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Times the backing arrays were (re)allocated since construction.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// The buffered events in emission order.
    pub fn entries(&self) -> impl Iterator<Item = (BatchKind, Addr, u32)> + '_ {
        self.kinds
            .iter()
            .zip(&self.addrs)
            .zip(&self.lens)
            .map(|((&k, &a), &l)| (k, a, l))
    }

    /// The raw parallel arrays `(kinds, addrs, lens)`, for native batch
    /// consumers that want to iterate without the zip adapters.
    pub fn arrays(&self) -> (&[BatchKind], &[Addr], &[u32]) {
        (&self.kinds, &self.addrs, &self.lens)
    }

    /// Empties the batch, keeping its storage.
    #[inline]
    pub fn clear(&mut self) {
        self.kinds.clear();
        self.addrs.clear();
        self.lens.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_entries_roundtrip_in_order() {
        let mut b = EventBatch::with_capacity(8);
        b.set_thread(ThreadId::new(3));
        b.push(BatchKind::Read, Addr::new(10), 1);
        b.push(BatchKind::Write, Addr::new(20), 1);
        b.push(BatchKind::Read, Addr::new(10), 2);
        assert_eq!(b.thread(), ThreadId::new(3));
        let got: Vec<_> = b.entries().collect();
        assert_eq!(
            got,
            vec![
                (BatchKind::Read, Addr::new(10), 1),
                (BatchKind::Write, Addr::new(20), 1),
                (BatchKind::Read, Addr::new(10), 2),
            ]
        );
        let (kinds, addrs, lens) = b.arrays();
        assert_eq!(kinds.len(), 3);
        assert_eq!(addrs[1], Addr::new(20));
        assert_eq!(lens[2], 2);
    }

    #[test]
    fn capacity_and_fullness() {
        let mut b = EventBatch::with_capacity(2);
        assert_eq!(b.capacity(), 2);
        assert!(!b.is_full());
        b.push(BatchKind::Read, Addr::new(1), 1);
        b.push(BatchKind::Write, Addr::new(2), 1);
        assert!(b.is_full());
        b.clear();
        assert!(b.is_empty() && !b.is_full());
        // Zero-capacity requests degrade to one-event batches.
        let z = EventBatch::with_capacity(0);
        assert_eq!(z.capacity(), 1);
    }

    #[test]
    fn ensure_capacity_grows_each_array_on_its_own_deficit() {
        // Diverge the backing arrays first: any Vec may legally hold
        // more capacity than its siblings (allocator rounding, a clone,
        // a swap). The old code gated all three reserves on
        // `kinds.capacity()` alone, so this request both skipped the
        // `lens` growth and underflowed `capacity - addrs.capacity()`.
        let mut b = EventBatch::with_capacity(4);
        b.addrs.reserve_exact(256);
        assert!(b.addrs.capacity() >= 256);
        b.ensure_capacity(128);
        assert!(b.kinds.capacity() >= 128);
        assert!(b.lens.capacity() >= 128);

        // The converse divergence: `kinds` already large enough must
        // not skip growing the two smaller arrays.
        let mut b = EventBatch::with_capacity(1);
        b.kinds.reserve_exact(512);
        b.ensure_capacity(256);
        assert!(b.addrs.capacity() >= 256);
        assert!(b.lens.capacity() >= 256);
        let before = b.allocations();
        b.set_thread(ThreadId::new(0));
        for i in 0..256 {
            b.push(BatchKind::Write, Addr::new(i + 1), 1);
        }
        assert_eq!(
            b.allocations(),
            before,
            "filling to capacity reuses storage"
        );
    }

    #[test]
    fn default_batch_holds_one_event() {
        // The ≥1 invariant is established at construction, not patched
        // up by `.max(1)` at each use site.
        let mut b = EventBatch::default();
        assert_eq!(b.capacity(), 1);
        assert!(!b.is_full());
        b.push(BatchKind::Read, Addr::new(7), 1);
        assert!(b.is_full());
    }

    #[test]
    fn reuse_with_stable_capacity_allocates_once() {
        let mut b = EventBatch::with_capacity(64);
        assert_eq!(b.allocations(), 1);
        for _ in 0..10 {
            b.ensure_capacity(64);
            for i in 0..64 {
                b.push(BatchKind::Read, Addr::new(i + 1), 1);
            }
            b.clear();
        }
        assert_eq!(b.allocations(), 1, "reuse never reallocates");
        b.ensure_capacity(128);
        assert_eq!(b.allocations(), 2, "growth is a counted allocation");
        b.ensure_capacity(32);
        assert_eq!(b.capacity(), 32, "capacity may shrink logically");
        assert_eq!(b.allocations(), 2, "…without touching storage");
    }
}
