//! Three-level shadow memory.
//!
//! Per §4.1 of the paper, shadow memories are maintained "by means of
//! three-level lookup tables, so that only chunks related to memory cells
//! actually accessed by a thread need to be shadowed". This module is the
//! shared infrastructure used by both the profiling algorithms (timestamp
//! shadows) and the comparison tools (validity bits, vector-clock ids).
//!
//! The address space is split `L1 → L2 → leaf`; leaves hold
//! 2¹² values, second-level tables 2¹¹ leaf slots, and the root 2¹³ slots,
//! covering a 2³⁶-cell space. Unmapped cells read as `T::default()`.
//!
//! Per-access event handlers hit this structure on every guest load and
//! store, so [`ShadowMemory::get`]/[`ShadowMemory::set`] keep a
//! **last-leaf cache**: the walk result of the previous access. Guest
//! accesses are strongly clustered (stack frames, buffers, table scans),
//! so most lookups resolve in the one-comparison fast path without
//! touching the L1/L2 tables.

use drms_trace::Addr;
use std::cell::Cell;
use std::ptr::NonNull;

const LEAF_BITS: u32 = 12;
const L2_BITS: u32 = 11;
const L1_BITS: u32 = 13;

/// Cells per leaf chunk.
pub const LEAF_CELLS: usize = 1 << LEAF_BITS;
const L2_SLOTS: usize = 1 << L2_BITS;
const L1_SLOTS: usize = 1 << L1_BITS;

/// Maximum shadowable address (exclusive).
pub const ADDRESS_LIMIT: u64 = 1 << (LEAF_BITS + L2_BITS + L1_BITS);

type Leaf<T> = Box<[T; LEAF_CELLS]>;

struct Level2<T> {
    leaves: Vec<Option<Leaf<T>>>,
}

impl<T: Copy + Default> Level2<T> {
    fn new() -> Self {
        Level2 {
            leaves: (0..L2_SLOTS).map(|_| None).collect(),
        }
    }
}

/// A sparse, three-level map from guest addresses to shadow values.
///
/// # Example
/// ```
/// use drms_vm::shadow::ShadowMemory;
/// use drms_trace::Addr;
/// let mut s: ShadowMemory<u64> = ShadowMemory::new();
/// assert_eq!(s.get(Addr::new(42)), 0);
/// s.set(Addr::new(42), 7);
/// assert_eq!(s.get(Addr::new(42)), 7);
/// assert_eq!(s.leaf_count(), 1);
/// ```
pub struct ShadowMemory<T> {
    root: Vec<Option<Box<Level2<T>>>>,
    leaf_count: usize,
    /// Last-leaf cache: `(addr >> LEAF_BITS, pointer to the leaf's first
    /// cell, writable)` of the most recent table walk. Leaf chunks are
    /// boxed and never move once materialized (only `clear` frees them),
    /// so the pointer stays valid for the structure's lifetime between
    /// clears. `writable` records whether the pointer was derived from a
    /// mutable borrow (in `slot_mut`); pointers cached by `get` carry
    /// read-only provenance and are never written through.
    last: Cell<Option<(u64, NonNull<T>, bool)>>,
    /// Last-leaf fast-path hits (`Cell`: `get` counts through `&self`).
    hits: Cell<u64>,
    /// Full three-level walks, including reads of unmapped cells.
    misses: Cell<u64>,
    /// All `get`/`set` accesses, counted independently of the hit/miss
    /// split so `Metrics::audit` can cross-check `hit + miss == lookups`.
    lookups: Cell<u64>,
    /// Times the cache was explicitly wiped (`clear`, `for_each_mut`).
    invalidations: u64,
    /// Leaf chunks ever materialized (monotonic, unlike `leaf_count`).
    leaf_allocs: u64,
}

/// Snapshot of one [`ShadowMemory`]'s last-leaf cache and leaf-allocator
/// counters. Every leaf-dropping or pointer-superseding path (`clear`,
/// `for_each_mut`) must bump `invalidations` when it wipes the cache —
/// the cache-transparency property tests assert these counters
/// alongside value agreement.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ShadowCacheStats {
    /// Accesses served by the last-leaf fast path.
    pub hits: u64,
    /// Accesses that walked the three-level structure.
    pub misses: u64,
    /// All accesses (`hits + misses` must equal this).
    pub lookups: u64,
    /// Explicit cache wipes.
    pub invalidations: u64,
    /// Leaf chunks ever materialized.
    pub leaf_allocs: u64,
}

impl ShadowCacheStats {
    /// Adds `other`'s counters into `self` (for summing the stats of a
    /// profiler's several shadow memories).
    pub fn absorb(&mut self, other: ShadowCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.lookups += other.lookups;
        self.invalidations += other.invalidations;
        self.leaf_allocs += other.leaf_allocs;
    }
}

// SAFETY: `ShadowMemory` owns every allocation the cached pointer can
// refer to, so moving the whole structure to another thread moves its
// referent along with it. The `Cell` makes it `!Sync`, which is correct:
// the cache is updated through `&self` in `get`.
unsafe impl<T: Send> Send for ShadowMemory<T> {}

impl<T: Copy + Default> Default for ShadowMemory<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default> ShadowMemory<T> {
    /// Creates an empty shadow memory.
    ///
    /// The root table grows on demand up to [`ADDRESS_LIMIT`]'s
    /// `2^13` slots, so an empty shadow costs a few words, not a full
    /// top-level table — the memory reported by [`bytes`](Self::bytes)
    /// tracks the footprint actually shadowed.
    pub fn new() -> Self {
        ShadowMemory {
            root: Vec::new(),
            leaf_count: 0,
            last: Cell::new(None),
            hits: Cell::new(0),
            misses: Cell::new(0),
            lookups: Cell::new(0),
            invalidations: 0,
            leaf_allocs: 0,
        }
    }

    #[inline]
    fn split(addr: Addr) -> (usize, usize, usize) {
        let a = addr.raw();
        debug_assert!(a < ADDRESS_LIMIT, "address {a:#x} beyond shadowable space");
        let leaf = (a & (LEAF_CELLS as u64 - 1)) as usize;
        let l2 = ((a >> LEAF_BITS) & (L2_SLOTS as u64 - 1)) as usize;
        let l1 = (a >> (LEAF_BITS + L2_BITS)) as usize;
        debug_assert!(l1 < L1_SLOTS);
        (l1, l2, leaf)
    }

    /// The cache tag of `addr`: the address with the in-leaf offset
    /// masked off, identifying its leaf chunk.
    #[inline]
    fn leaf_tag(addr: Addr) -> u64 {
        addr.raw() >> LEAF_BITS
    }

    /// Reads the shadow value of `addr`; unmapped cells yield
    /// `T::default()`.
    ///
    /// Accesses hitting the same leaf chunk as the previous `get`/`set`
    /// skip the table walk entirely (the common case: guest accesses are
    /// clustered). [`get_uncached`](Self::get_uncached) is the always-walk
    /// reference path.
    #[inline]
    pub fn get(&self, addr: Addr) -> T {
        self.lookups.set(self.lookups.get() + 1);
        if let Some((tag, ptr, _)) = self.last.get() {
            if tag == Self::leaf_tag(addr) {
                self.hits.set(self.hits.get() + 1);
                let leaf = (addr.raw() & (LEAF_CELLS as u64 - 1)) as usize;
                // SAFETY: `ptr` points to the first cell of a live
                // `LEAF_CELLS`-sized leaf (see the `last` field
                // invariant) and `leaf < LEAF_CELLS`. No `&mut` to the
                // chunk can exist while `&self` is held.
                return unsafe { *ptr.as_ptr().add(leaf) };
            }
        }
        self.misses.set(self.misses.get() + 1);
        let (l1, l2, leaf) = Self::split(addr);
        match self.root.get(l1).and_then(|s| s.as_ref()) {
            Some(level2) => match &level2.leaves[l2] {
                Some(chunk) => {
                    self.last.set(Some((
                        Self::leaf_tag(addr),
                        NonNull::from(&chunk[0]),
                        false,
                    )));
                    chunk[leaf]
                }
                None => T::default(),
            },
            None => T::default(),
        }
    }

    /// Reads the shadow value of `addr` by walking the full three-level
    /// structure, bypassing (and not updating) the last-leaf cache.
    ///
    /// This is the reference path the cached [`get`](Self::get) must
    /// agree with; property tests exercise both on the same sequence.
    #[inline]
    pub fn get_uncached(&self, addr: Addr) -> T {
        let (l1, l2, leaf) = Self::split(addr);
        match self.root.get(l1).and_then(|s| s.as_ref()) {
            Some(level2) => match &level2.leaves[l2] {
                Some(chunk) => chunk[leaf],
                None => T::default(),
            },
            None => T::default(),
        }
    }

    /// Writes the shadow value of `addr`, materializing chunks on demand.
    ///
    /// Like [`get`](Self::get), consecutive writes into one leaf chunk
    /// take a one-comparison fast path.
    #[inline]
    pub fn set(&mut self, addr: Addr, value: T) {
        *self.slot_mut(addr) = value;
    }

    /// A mutable reference to the shadow cell of `addr`, materializing
    /// its chunk on demand.
    ///
    /// Lets a read-modify-write (the drms `ts_t` "load old stamp, store
    /// new stamp" pattern) cost one table walk instead of a `get` plus a
    /// `set`. Counted as a single lookup in the cache statistics.
    #[inline]
    pub fn slot_mut(&mut self, addr: Addr) -> &mut T {
        self.lookups.set(self.lookups.get() + 1);
        if let Some((tag, ptr, true)) = self.last.get() {
            if tag == Self::leaf_tag(addr) {
                self.hits.set(self.hits.get() + 1);
                let leaf = (addr.raw() & (LEAF_CELLS as u64 - 1)) as usize;
                // SAFETY: same invariant as in `get`, plus
                // `writable == true` means the pointer was derived from a
                // mutable borrow of a live leaf chunk; `&mut self` grants
                // exclusive access for the returned lifetime.
                return unsafe { &mut *ptr.as_ptr().add(leaf) };
            }
        }
        self.misses.set(self.misses.get() + 1);
        let (l1, l2, leaf) = Self::split(addr);
        if self.root.len() <= l1 {
            self.root.resize_with(l1 + 1, || None);
        }
        let level2 = self.root[l1].get_or_insert_with(|| Box::new(Level2::new()));
        let chunk = match &mut level2.leaves[l2] {
            Some(c) => c,
            slot @ None => {
                self.leaf_count += 1;
                self.leaf_allocs += 1;
                slot.insert(
                    vec![T::default(); LEAF_CELLS]
                        .into_boxed_slice()
                        .try_into()
                        .unwrap_or_else(|_| unreachable!()),
                )
            }
        };
        self.last.set(Some((
            Self::leaf_tag(addr),
            NonNull::from(&mut chunk[0]),
            true,
        )));
        &mut chunk[leaf]
    }

    /// Number of materialized leaf chunks.
    pub fn leaf_count(&self) -> usize {
        self.leaf_count
    }

    /// Host bytes backing this shadow memory (leaves plus tables).
    pub fn bytes(&self) -> u64 {
        let leaf_bytes = self.leaf_count as u64 * (LEAF_CELLS * std::mem::size_of::<T>()) as u64;
        let l2_bytes = self.root.iter().filter(|s| s.is_some()).count() as u64
            * (L2_SLOTS * std::mem::size_of::<usize>()) as u64;
        let root_bytes = (self.root.capacity() * std::mem::size_of::<usize>()) as u64;
        leaf_bytes + l2_bytes + root_bytes
    }

    /// Applies `f` to every cell of every materialized chunk.
    ///
    /// Used by the timestamp-renumbering pass, which must rewrite all
    /// stored timestamps in place.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(Addr, &mut T)) {
        // The fresh `&mut` borrows below supersede the cached pointer's
        // provenance; drop it rather than write through a stale tag later.
        self.last.set(None);
        self.invalidations += 1;
        for (i1, slot1) in self.root.iter_mut().enumerate() {
            let Some(level2) = slot1 else { continue };
            for (i2, slot2) in level2.leaves.iter_mut().enumerate() {
                let Some(chunk) = slot2 else { continue };
                let base = ((i1 as u64) << (LEAF_BITS + L2_BITS)) | ((i2 as u64) << LEAF_BITS);
                for (off, cell) in chunk.iter_mut().enumerate() {
                    f(Addr::new(base | off as u64), cell);
                }
            }
        }
    }

    /// Drops all materialized chunks.
    ///
    /// Cache counters survive: a session that clears and re-populates
    /// its shadows keeps one continuous hit/miss/invalidation history,
    /// which is what the staleness tripwire audits.
    pub fn clear(&mut self) {
        // The cached leaf pointer dangles once its chunk is freed.
        self.last.set(None);
        self.invalidations += 1;
        self.root.clear();
        self.leaf_count = 0;
    }

    /// Snapshot of the cache and allocation counters.
    pub fn cache_stats(&self) -> ShadowCacheStats {
        ShadowCacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            lookups: self.lookups.get(),
            invalidations: self.invalidations,
            leaf_allocs: self.leaf_allocs,
        }
    }
}

impl<T: Copy + Default> std::fmt::Debug for ShadowMemory<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShadowMemory")
            .field("leaf_count", &self.leaf_count)
            .field("bytes", &self.bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_reads_zero() {
        let s: ShadowMemory<u64> = ShadowMemory::new();
        assert_eq!(s.get(Addr::new(0)), 0);
        assert_eq!(s.get(Addr::new(ADDRESS_LIMIT - 1)), 0);
        assert_eq!(s.leaf_count(), 0);
    }

    #[test]
    fn set_get_roundtrip_across_levels() {
        let mut s: ShadowMemory<u64> = ShadowMemory::new();
        let addrs = [
            0u64,
            1,
            LEAF_CELLS as u64,              // second leaf
            (LEAF_CELLS * L2_SLOTS) as u64, // second L2 table
            ADDRESS_LIMIT - 1,              // last cell
        ];
        for (i, &a) in addrs.iter().enumerate() {
            s.set(Addr::new(a), i as u64 + 1);
        }
        for (i, &a) in addrs.iter().enumerate() {
            assert_eq!(s.get(Addr::new(a)), i as u64 + 1, "addr {a:#x}");
        }
        assert_eq!(s.leaf_count(), 4, "two addrs share the first leaf");
    }

    #[test]
    fn sparse_allocation_only_touched_chunks() {
        let mut s: ShadowMemory<u8> = ShadowMemory::new();
        s.set(Addr::new(5), 1);
        s.set(Addr::new(6), 2);
        assert_eq!(s.leaf_count(), 1);
        let before = s.bytes();
        s.set(Addr::new((LEAF_CELLS * 10) as u64), 3);
        assert!(s.bytes() > before);
        assert_eq!(s.leaf_count(), 2);
    }

    #[test]
    fn for_each_mut_visits_and_rewrites() {
        let mut s: ShadowMemory<u64> = ShadowMemory::new();
        s.set(Addr::new(3), 10);
        s.set(Addr::new((LEAF_CELLS + 1) as u64), 20);
        let mut seen = Vec::new();
        s.for_each_mut(|addr, v| {
            if *v != 0 {
                seen.push((addr.raw(), *v));
                *v += 1;
            }
        });
        seen.sort_unstable();
        assert_eq!(seen, vec![(3, 10), (LEAF_CELLS as u64 + 1, 20)]);
        assert_eq!(s.get(Addr::new(3)), 11);
        assert_eq!(s.get(Addr::new((LEAF_CELLS + 1) as u64)), 21);
    }

    #[test]
    fn clear_resets_everything() {
        let mut s: ShadowMemory<u64> = ShadowMemory::new();
        s.set(Addr::new(100), 9);
        s.clear();
        assert_eq!(s.get(Addr::new(100)), 0);
        assert_eq!(s.leaf_count(), 0);
    }

    #[test]
    fn cached_and_uncached_reads_agree_across_leaf_switches() {
        let mut s: ShadowMemory<u64> = ShadowMemory::new();
        let a = Addr::new(10);
        let b = Addr::new((LEAF_CELLS * 3 + 5) as u64); // different leaf
        s.set(a, 1); // cache -> leaf of a
        s.set(b, 2); // cache -> leaf of b
        assert_eq!(s.get(a), 1, "switch back via slow path");
        assert_eq!(s.get(a), 1, "now served from the cache");
        assert_eq!(s.get_uncached(a), 1);
        assert_eq!(s.get_uncached(b), 2);
        // Cached write after cached read of the same leaf.
        s.set(a, 9);
        assert_eq!(s.get_uncached(a), 9);
        assert_eq!(s.get(Addr::new(11)), 0, "cache hit on an unset cell");
    }

    #[test]
    fn clear_invalidates_the_leaf_cache() {
        let mut s: ShadowMemory<u64> = ShadowMemory::new();
        s.set(Addr::new(42), 7);
        assert_eq!(s.get(Addr::new(42)), 7);
        s.clear();
        assert_eq!(s.get(Addr::new(42)), 0, "no stale read through the cache");
        s.set(Addr::new(42), 3);
        assert_eq!(s.get(Addr::new(42)), 3);
        let st = s.cache_stats();
        assert_eq!(st.invalidations, 1, "one clear, one invalidation");
        assert_eq!(st.leaf_allocs, 2, "the leaf was re-materialized");
        assert_eq!(st.hits + st.misses, st.lookups);
    }

    #[test]
    fn cache_counters_track_hits_misses_and_wipes() {
        let mut s: ShadowMemory<u64> = ShadowMemory::new();
        assert_eq!(s.cache_stats(), ShadowCacheStats::default());
        s.set(Addr::new(1), 1); // miss (materialize)
        s.set(Addr::new(2), 2); // hit (same leaf, writable cache)
        assert_eq!(s.get(Addr::new(1)), 1); // hit
        assert_eq!(s.get(Addr::new((LEAF_CELLS * 5) as u64)), 0); // miss, unmapped
        let st = s.cache_stats();
        assert_eq!((st.hits, st.misses, st.lookups), (2, 2, 4));
        assert_eq!(st.leaf_allocs, 1);
        s.for_each_mut(|_, _| {});
        assert_eq!(s.cache_stats().invalidations, 1, "for_each_mut wipes");
        assert_eq!(
            s.get_uncached(Addr::new(1)),
            1,
            "reference path counts nothing"
        );
        assert_eq!(s.cache_stats().lookups, 4);
    }

    /// Seeded-loop property: interleaving `clear()` (and `for_each_mut`)
    /// with re-population keeps the cached path transparent — every read
    /// agrees with the uncached reference walk — while the counters obey
    /// `hits + misses == lookups` and count one invalidation per wipe.
    #[test]
    fn cache_transparent_across_interleaved_clears_and_repopulation() {
        let mut rng = crate::rng::SmallRng::seed_from_u64(0x5AD0_CAFE);
        for round in 0..20u64 {
            let mut s: ShadowMemory<u64> = ShadowMemory::new();
            let mut wipes = 0;
            let mut ops = 0;
            for step in 0..400u64 {
                let addr = Addr::new(rng.gen_range(0..(LEAF_CELLS as u64 * 4)));
                match rng.gen_range(0..10u32) {
                    0 => {
                        s.clear();
                        wipes += 1;
                    }
                    1 => {
                        s.for_each_mut(|_, v| *v = v.wrapping_add(1));
                        wipes += 1;
                    }
                    2..=5 => {
                        s.set(addr, round * 1000 + step);
                        ops += 1;
                    }
                    _ => {
                        let cached = s.get(addr);
                        let reference = s.get_uncached(addr);
                        assert_eq!(cached, reference, "round {round} step {step}");
                        ops += 1;
                    }
                }
            }
            let st = s.cache_stats();
            assert_eq!(st.hits + st.misses, st.lookups, "round {round}");
            assert_eq!(st.lookups, ops, "round {round}: every access counted");
            assert_eq!(st.invalidations, wipes, "round {round}: every wipe counted");
            assert!(st.leaf_allocs >= s.leaf_count() as u64);
        }
    }

    #[test]
    fn overwrite_keeps_single_leaf() {
        let mut s: ShadowMemory<u64> = ShadowMemory::new();
        for v in 0..100 {
            s.set(Addr::new(7), v);
        }
        assert_eq!(s.get(Addr::new(7)), 99);
        assert_eq!(s.leaf_count(), 1);
    }
}
