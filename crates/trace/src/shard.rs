//! Out-of-core sharded binary trace pipeline.
//!
//! The DINAMITE split: logging must be cheap online, analysis can be
//! heavy offline. A [`ShardWriter`] appends instrumentation events —
//! including whole struct-of-arrays read/write batches — to one compact
//! binary file per guest thread. It stages each run of consecutive
//! deliveries to one shard column by column, encodes the run as one
//! frame straight into the shard's spill buffer, and flushes through the
//! [`HostIo`] seam so host-fault chaos applies to every byte that
//! reaches the disk. The writer is itself a [`Tool`]: each callback
//! encodes its own record, and [`Tool::observe_batch`] stages a whole
//! [`EventBatch`] columnar. An offline [`ShardSet`] loads the shards back
//! (in parallel across shards), keeps each one's verifying byte prefix
//! plus an index of its frames, and hands the runs out in their original
//! global order ([`ShardSet::frames_in_order`]), each decoded in place.
//! [`replay_shards_into`] is the one shard replay: [`deliver_event`]
//! turns each stored event back into its callback, and each stored batch
//! reaches the tool as one [`EventBatch`] again, so a write-then-replay
//! run is byte-identical to the in-memory run it recorded.
//!
//! # Format
//!
//! Every integer is little-endian. A shard file `shard-<tid>.bin` is
//!
//! ```text
//! magic "DRMSSHD3" (8) · thread id u32 · frame*
//! frame   := payload_len u32 · checksum(payload) u64 · payload
//! payload := base_seq u64 · records u32 · a_count u32
//!            · a_width u8 · b_width u8
//!            · kinds: u8 × records
//!            · a: a_width bytes × a_count
//!            · b: b_width bytes × records
//! ```
//!
//! A frame holds one *run*: consecutive deliveries to one shard. Each
//! delivery is one record, except a read/write batch, which is a `BATCH`
//! record followed by one entry record per batched access. Every record
//! has one kind byte and one `b` operand; some kinds also take one `a`
//! operand, in record order:
//!
//! | kind | `a` (`u64` class) | `b` (`u32` class) |
//! |---|---|---|
//! | 0 `ENTRY_READ`, 1 `ENTRY_WRITE` | address | len |
//! | 2 `BATCH` | — | entry count |
//! | 3 `THREAD_START` | — | parent + 1 (0: none) |
//! | 4 `THREAD_EXIT` | cost | 0 |
//! | 5 `THREAD_SWITCH` | — | previous thread + 1 (0: none) |
//! | 6 `CALL`, 7 `RETURN` | cost | routine |
//! | 8 `READ`, 9 `WRITE`, 10 `USER_TO_KERNEL`, 11 `KERNEL_TO_USER` | address | len |
//! | 12 `BLOCK` | block | routine |
//! | 13–21: the nine [`SyncOp`]s in declaration order | mutex, for `CondWait` only | the first argument |
//!
//! Each column's width is the narrowest of 1, 2, 4 or 8 bytes (the `b`
//! column: 1, 2 or 4) that holds the largest value in it, so it comes
//! from the frame's data. A run's deliveries carry consecutive global
//! `seq` numbers: the `k`-th delivery's is `base_seq + k`. The writer
//! ends a run when the next delivery goes to another shard, once the run
//! holds `RUN_RECORD_CAP` (4096) records, or at [`ShardWriter::finish`];
//! thread starts go to the child's shard and switches to the incoming
//! thread's.
//!
//! The checksum is FNV-1a over the payload's little-endian `u64` words,
//! then over its tail bytes one at a time. Each word step (xor in the
//! word, multiply by the odd FNV prime, xor in the state's high half
//! shifted down) is a bijection of the 64-bit state, so two payloads
//! that differ in one word — every single-bit flip among them — never
//! share a checksum. The multiply only carries a difference upwards;
//! the shift carries it back down, so damage confined to the top bits
//! of several words does not cancel either. The hash costs one multiply
//! per eight bytes instead of one per byte.
//!
//! `seq` is global and monotonic, so a k-way merge of the per-thread
//! shards' runs by base `seq` reconstructs the exact live delivery order
//! — thread switches included, which is what keeps replay-order delivery
//! identical to the VM's (and the drms profiler's redundancy cache
//! byte-identical with it). A batch's entries are contiguous in all
//! three columns, so replay hands them out as one [`ShardBatch`] of
//! borrowed column slices and makes the same `observe_batch` call the
//! live run made.
//!
//! # Salvage
//!
//! The same discipline as the text journal: a torn or corrupt frame
//! ends the shard — the checksummed prefix before it is salvaged, the
//! rest is dropped, and the accounting law
//! `trace.shard.lines.salvaged + dropped == total` (enforced by
//! [`Metrics::audit`]) holds, counted in frames, so one torn frame loses
//! a whole run. Load checks each frame once: its checksum, then its
//! structure (kinds in range, every batch inside its frame and entries
//! only inside a batch, valid widths, column lengths that match the
//! header exactly), then that its base `seq` does not fall below the end
//! of the previous run. A header that names another thread than the
//! file name does, or carries another format's magic, makes the whole
//! shard corrupt. A `MANIFEST` written atomically at
//! [`ShardWriter::finish`] records the expected frame count per shard,
//! so the reader can tell how much a torn tail actually lost; without a
//! manifest (the writer crashed mid-run) a torn tail counts as one
//! dropped frame.

use crate::batch::{BatchKind, EventBatch};
use crate::event::SyncOp;
use crate::hostio::HostIo;
use crate::ids::{Addr, BlockId, RoutineId, ThreadId};
use crate::lines::{fnv1a, fnv1a_extend, verify_token, FNV_OFFSET, FNV_PRIME};
use crate::obs::Metrics;
use crate::replay::Tool;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Leading magic of every shard file.
pub const SHARD_MAGIC: [u8; 8] = *b"DRMSSHD3";

/// What every version of the shard magic starts with: a file that has
/// it but not [`SHARD_MAGIC`] is a shard in a format this reader does
/// not read.
const MAGIC_STEM: &[u8] = b"DRMSSHD";

/// Name of the atomic per-directory manifest.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Default per-shard buffer size before a flush to the host.
pub const DEFAULT_SPILL_THRESHOLD: usize = 64 * 1024;

/// Records after which the writer ends a run even though the next
/// delivery goes to the same shard. It bounds the writer's staging
/// memory and what one torn frame loses; a batch that crosses it still
/// ends in the frame it started in.
const RUN_RECORD_CAP: usize = 4096;

const FILE_HEADER_BYTES: usize = 8 + 4;
const FRAME_HEADER_BYTES: usize = 4 + 8;
/// `base_seq u64 · records u32 · a_count u32 · a_width u8 · b_width u8`.
const RUN_HEADER_BYTES: usize = 8 + 4 + 4 + 1 + 1;
/// Upper bound on a single frame payload; anything larger in a length
/// prefix is corruption, not data.
const MAX_PAYLOAD_BYTES: usize = 1 << 26;

const K_ENTRY_READ: u8 = BatchKind::Read as u8;
const K_ENTRY_WRITE: u8 = BatchKind::Write as u8;
const K_BATCH: u8 = 2;
const K_THREAD_START: u8 = 3;
const K_THREAD_EXIT: u8 = 4;
const K_THREAD_SWITCH: u8 = 5;
const K_CALL: u8 = 6;
const K_RETURN: u8 = 7;
const K_READ: u8 = 8;
const K_WRITE: u8 = 9;
const K_U2K: u8 = 10;
const K_K2U: u8 = 11;
const K_BLOCK: u8 = 12;
const K_SEM_WAIT: u8 = 13;
const K_SEM_SIGNAL: u8 = 14;
const K_MUTEX_LOCK: u8 = 15;
const K_MUTEX_UNLOCK: u8 = 16;
const K_COND_WAIT: u8 = 17;
const K_COND_SIGNAL: u8 = 18;
const K_COND_BROADCAST: u8 = 19;
const K_SPAWN: u8 = 20;
const K_JOIN: u8 = 21;
/// One past the last kind.
const KINDS: u8 = 22;

/// The kinds that take an `a` operand, one bit each.
const A_KINDS: u32 = (1 << K_ENTRY_READ)
    | (1 << K_ENTRY_WRITE)
    | (1 << K_THREAD_EXIT)
    | (1 << K_CALL)
    | (1 << K_RETURN)
    | (1 << K_READ)
    | (1 << K_WRITE)
    | (1 << K_U2K)
    | (1 << K_K2U)
    | (1 << K_BLOCK)
    | (1 << K_COND_WAIT);

/// Whether records of `kind` take an `a` operand.
#[inline]
fn has_a(kind: u8) -> bool {
    (A_KINDS >> kind) & 1 != 0
}

/// A frame's checksum: FNV-1a over the payload's little-endian `u64`
/// words, each step followed by a xorshift, then its tail bytes (see the
/// module docs for why any one differing word always shows).
fn frame_checksum(payload: &[u8]) -> u64 {
    let words = payload.chunks_exact(8);
    let tail = words.remainder();
    let hash = words.fold(FNV_OFFSET, |h, w| {
        let h = (h ^ u64::from_le_bytes(w.try_into().unwrap())).wrapping_mul(FNV_PRIME);
        h ^ (h >> 32)
    });
    fnv1a_extend(hash, tail)
}

/// One instrumentation event as the shard format stores it: the
/// [`Tool`] callback vocabulary (costs included), not the merged
/// [`crate::TimedEvent`] one.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ShardEvent {
    /// First event of a thread.
    ThreadStart {
        /// Spawning thread, `None` for the main thread.
        parent: Option<ThreadId>,
    },
    /// Last event of a thread.
    ThreadExit {
        /// The thread's final cost.
        cost: u64,
    },
    /// The scheduler handed the CPU to this shard's thread.
    ThreadSwitch {
        /// Previously running thread, `None` at the very first switch.
        from: Option<ThreadId>,
    },
    /// Routine activation.
    Call {
        /// Activated routine.
        routine: RoutineId,
        /// Thread cost at activation.
        cost: u64,
    },
    /// Routine completion.
    Return {
        /// Completed routine.
        routine: RoutineId,
        /// Thread cost at completion.
        cost: u64,
    },
    /// Unbatched guest load.
    Read {
        /// First cell.
        addr: Addr,
        /// Cell count.
        len: u32,
    },
    /// Unbatched guest store.
    Write {
        /// First cell.
        addr: Addr,
        /// Cell count.
        len: u32,
    },
    /// Kernel reads a user buffer (output syscall).
    UserToKernel {
        /// First cell.
        addr: Addr,
        /// Cell count.
        len: u32,
    },
    /// Kernel fills a user buffer (input syscall).
    KernelToUser {
        /// First cell.
        addr: Addr,
        /// Cell count.
        len: u32,
    },
    /// Synchronization operation.
    Sync {
        /// The operation.
        op: SyncOp,
    },
    /// Basic-block entry.
    Block {
        /// Containing routine.
        routine: RoutineId,
        /// The block.
        block: BlockId,
    },
}

/// The `b` operand of an optional thread: no 32-bit thread index can
/// reach `u32::MAX` (it would be the 2^32-th spawned thread), so the
/// index + 1 fits and 0 is left for `None`.
fn thread_operand(thread: Option<ThreadId>) -> u32 {
    thread.map_or(0, |t| t.index().wrapping_add(1))
}

fn thread_of_operand(b: u32) -> Option<ThreadId> {
    b.checked_sub(1).map(ThreadId::new)
}

/// The event a non-batch record holds; `a` is 0 for kinds without one.
/// Load checked every kind, so the record is one of these.
#[inline]
fn decode_event(kind: u8, a: u64, b: u32) -> ShardEvent {
    let sync = |op| ShardEvent::Sync { op };
    match kind {
        K_THREAD_START => ShardEvent::ThreadStart {
            parent: thread_of_operand(b),
        },
        K_THREAD_EXIT => ShardEvent::ThreadExit { cost: a },
        K_THREAD_SWITCH => ShardEvent::ThreadSwitch {
            from: thread_of_operand(b),
        },
        K_CALL => ShardEvent::Call {
            routine: RoutineId::new(b),
            cost: a,
        },
        K_RETURN => ShardEvent::Return {
            routine: RoutineId::new(b),
            cost: a,
        },
        K_READ => ShardEvent::Read {
            addr: Addr::new(a),
            len: b,
        },
        K_WRITE => ShardEvent::Write {
            addr: Addr::new(a),
            len: b,
        },
        K_U2K => ShardEvent::UserToKernel {
            addr: Addr::new(a),
            len: b,
        },
        K_K2U => ShardEvent::KernelToUser {
            addr: Addr::new(a),
            len: b,
        },
        K_BLOCK => ShardEvent::Block {
            routine: RoutineId::new(b),
            block: BlockId::new(a as u32),
        },
        K_SEM_WAIT => sync(SyncOp::SemWait(b)),
        K_SEM_SIGNAL => sync(SyncOp::SemSignal(b)),
        K_MUTEX_LOCK => sync(SyncOp::MutexLock(b)),
        K_MUTEX_UNLOCK => sync(SyncOp::MutexUnlock(b)),
        K_COND_WAIT => sync(SyncOp::CondWait {
            cond: b,
            mutex: a as u32,
        }),
        K_COND_SIGNAL => sync(SyncOp::CondSignal(b)),
        K_COND_BROADCAST => sync(SyncOp::CondBroadcast(b)),
        K_SPAWN => sync(SyncOp::Spawn {
            child: ThreadId::new(b),
        }),
        K_JOIN => sync(SyncOp::Join {
            child: ThreadId::new(b),
        }),
        _ => unreachable!("load indexes only frames whose kinds are in range"),
    }
}

/// The narrowest of 1, 2, 4 or 8 bytes that holds every value whose
/// bits `bits` ORs together.
fn width(bits: u64) -> usize {
    match bits {
        0..=0xff => 1,
        0x100..=0xffff => 2,
        0x1_0000..=0xffff_ffff => 4,
        _ => 8,
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `values` as a column of `width`-byte little-endian values.
fn put_column<T: Copy + Into<u64>>(buf: &mut Vec<u8>, values: &[T], width: usize) {
    fn put<T: Copy + Into<u64>, const N: usize>(dst: &mut [u8], values: &[T]) {
        for (d, &v) in dst.chunks_exact_mut(N).zip(values) {
            d.copy_from_slice(&v.into().to_le_bytes()[..N]);
        }
    }
    let at = buf.len();
    buf.resize(at + values.len() * width, 0);
    let dst = &mut buf[at..];
    match width {
        1 => put::<T, 1>(dst, values),
        2 => put::<T, 2>(dst, values),
        4 => put::<T, 4>(dst, values),
        _ => put::<T, 8>(dst, values),
    }
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// The `N`-byte little-endian value `bytes` holds.
#[inline]
fn le<const N: usize>(bytes: &[u8]) -> u64 {
    let mut word = [0; 8];
    word[..N].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// A column of `width`-byte little-endian values, borrowed from a loaded
/// shard.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Column<'a> {
    bytes: &'a [u8],
    width: usize,
}

impl<'a> Column<'a> {
    /// Value `i`.
    #[inline]
    fn get(self, i: usize) -> u64 {
        let v = &self.bytes[i * self.width..];
        match self.width {
            1 => le::<1>(&v[..1]),
            2 => le::<2>(&v[..2]),
            4 => le::<4>(&v[..4]),
            _ => le::<8>(&v[..8]),
        }
    }

    /// Values `from..from + n`.
    #[inline]
    fn range(self, from: usize, n: usize) -> Column<'a> {
        Column {
            bytes: &self.bytes[from * self.width..(from + n) * self.width],
            width: self.width,
        }
    }
}

/// A read/write batch's columns, borrowed from the loaded shard. Load
/// checked every entry's kind byte, so the columns decode as they are
/// read.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ShardBatch<'a> {
    kinds: &'a [u8],
    addrs: Column<'a>,
    lens: Column<'a>,
}

impl<'a> ShardBatch<'a> {
    /// Number of entries.
    pub fn len(self) -> usize {
        self.kinds.len()
    }

    /// Whether the batch has no entries.
    pub fn is_empty(self) -> bool {
        self.kinds.is_empty()
    }

    /// Calls `f` on every entry, in emission order. The column widths
    /// are resolved once per batch, not once per entry.
    #[inline]
    pub fn for_each_entry(self, mut f: impl FnMut(BatchKind, Addr, u32)) {
        match self.addrs.width {
            1 => self.entries_with::<1>(&mut f),
            2 => self.entries_with::<2>(&mut f),
            4 => self.entries_with::<4>(&mut f),
            _ => self.entries_with::<8>(&mut f),
        }
    }

    fn entries_with<const A: usize>(self, f: &mut impl FnMut(BatchKind, Addr, u32)) {
        match self.lens.width {
            1 => self.entries_as::<A, 1>(f),
            2 => self.entries_as::<A, 2>(f),
            _ => self.entries_as::<A, 4>(f),
        }
    }

    fn entries_as<const A: usize, const B: usize>(self, f: &mut impl FnMut(BatchKind, Addr, u32)) {
        let addrs = self.addrs.bytes.chunks_exact(A);
        let lens = self.lens.bytes.chunks_exact(B);
        for ((&kind, addr), len) in self.kinds.iter().zip(addrs).zip(lens) {
            let kind = if kind == K_ENTRY_READ {
                BatchKind::Read
            } else {
                BatchKind::Write
            };
            f(kind, Addr::new(le::<A>(addr)), le::<B>(len) as u32);
        }
    }
}

/// One delivery of a run, decoded in place.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ShardRecord<'a> {
    /// A single event, by value.
    Event(ShardEvent),
    /// A whole read/write batch, its columns borrowed from the shard.
    Batch(ShardBatch<'a>),
}

/// One frame decoded in place: a run of consecutive deliveries to one
/// shard. The `k`-th of its [`records`](ShardFrame::records) has global
/// sequence number `seq + k`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ShardFrame<'a> {
    /// Global sequence number of the run's first delivery (assigned at
    /// record time).
    pub seq: u64,
    /// Thread whose shard held the frame.
    pub thread: ThreadId,
    kinds: &'a [u8],
    a: Column<'a>,
    b: Column<'a>,
}

impl<'a> ShardFrame<'a> {
    /// Splits a payload into its columns, from its header alone: load
    /// has checked that they fit.
    #[inline]
    fn split(payload: &'a [u8], thread: ThreadId) -> ShardFrame<'a> {
        let records = u32_at(payload, 8) as usize;
        let a_len = u32_at(payload, 12) as usize * usize::from(payload[16]);
        let (kinds, rest) = payload[RUN_HEADER_BYTES..].split_at(records);
        let (a, b) = rest.split_at(a_len);
        ShardFrame {
            seq: u64_at(payload, 0),
            thread,
            kinds,
            a: Column {
                bytes: a,
                width: usize::from(payload[16]),
            },
            b: Column {
                bytes: b,
                width: usize::from(payload[17]),
            },
        }
    }

    /// The run's deliveries, in record order.
    pub fn records(self) -> impl Iterator<Item = ShardRecord<'a>> + 'a {
        let (mut i, mut j) = (0, 0);
        std::iter::from_fn(move || {
            let &kind = self.kinds.get(i)?;
            let b = self.b.get(i);
            i += 1;
            if kind == K_BATCH {
                let n = b as usize;
                let batch = ShardBatch {
                    kinds: &self.kinds[i..i + n],
                    addrs: self.a.range(j, n),
                    lens: self.b.range(i, n),
                };
                i += n;
                j += n;
                return Some(ShardRecord::Batch(batch));
            }
            let a = if has_a(kind) {
                j += 1;
                self.a.get(j - 1)
            } else {
                0
            };
            Some(ShardRecord::Event(decode_event(kind, a, b as u32)))
        })
    }
}

/// Checks one checksummed payload's structure — widths, exact column
/// lengths, kinds in range, every batch inside the frame and entries
/// only inside a batch — and returns its frame and delivery count, or
/// why it is malformed.
fn check_run(payload: &[u8], thread: ThreadId) -> Result<(ShardFrame<'_>, u64), &'static str> {
    if payload.len() < RUN_HEADER_BYTES {
        return Err("frame shorter than its run header");
    }
    let (a_width, b_width) = (payload[16], payload[17]);
    if !matches!(a_width, 1 | 2 | 4 | 8) || !matches!(b_width, 1 | 2 | 4) {
        return Err("bad column width");
    }
    let records = u64::from(u32_at(payload, 8));
    let a_count = u64::from(u32_at(payload, 12));
    let columns = records * (1 + u64::from(b_width)) + a_count * u64::from(a_width);
    if payload.len() as u64 != RUN_HEADER_BYTES as u64 + columns {
        return Err("column lengths do not match the header");
    }
    if records == 0 {
        return Err("empty run");
    }
    let frame = ShardFrame::split(payload, thread);
    let (mut i, mut a_used, mut deliveries) = (0, 0, 0);
    while let Some(&kind) = frame.kinds.get(i) {
        i += 1;
        deliveries += 1;
        match kind {
            K_BATCH => {
                let n = frame.b.get(i - 1) as usize;
                let Some(entries) = frame.kinds[i..].get(..n) else {
                    return Err("batch overruns its frame");
                };
                if entries.iter().any(|&k| k > K_ENTRY_WRITE) {
                    return Err("non-entry record inside a batch");
                }
                i += n;
                a_used += n;
            }
            K_ENTRY_READ | K_ENTRY_WRITE => return Err("batch entry outside a batch"),
            k if k < KINDS => a_used += usize::from(has_a(k)),
            _ => return Err("kind out of range"),
        }
    }
    if a_used as u64 != a_count {
        return Err("column lengths do not match the header");
    }
    Ok((frame, deliveries))
}

/// The open run: consecutive deliveries to one shard, staged column by
/// column until it ends and is encoded as one frame.
#[derive(Default)]
struct Run {
    thread: ThreadId,
    /// `seq` of the run's first delivery.
    base_seq: u64,
    kinds: Vec<u8>,
    a: Vec<u64>,
    b: Vec<u32>,
}

impl Run {
    #[inline]
    fn push(&mut self, kind: u8, a: Option<u64>, b: u32) {
        self.kinds.push(kind);
        if let Some(a) = a {
            self.a.push(a);
        }
        self.b.push(b);
    }

    fn push_batch(&mut self, batch: &EventBatch) {
        let (kinds, addrs, lens) = batch.arrays();
        self.push(K_BATCH, None, addrs.len() as u32);
        self.kinds.extend(kinds.iter().map(|&k| k as u8));
        self.a.extend(addrs.iter().map(|a| a.raw()));
        self.b.extend_from_slice(lens);
    }

    /// Appends the run's payload to `buf`, each column at the narrowest
    /// width that holds its values.
    fn encode(&self, buf: &mut Vec<u8>) {
        let a_width = width(self.a.iter().fold(0, |bits, &v| bits | v));
        let b_width = width(u64::from(self.b.iter().fold(0, |bits, &v| bits | v)));
        put_u64(buf, self.base_seq);
        put_u32(buf, self.kinds.len() as u32);
        put_u32(buf, self.a.len() as u32);
        buf.extend_from_slice(&[a_width as u8, b_width as u8]);
        buf.extend_from_slice(&self.kinds);
        put_column(buf, &self.a, a_width);
        put_column(buf, &self.b, b_width);
    }

    fn clear(&mut self) {
        self.kinds.clear();
        self.a.clear();
        self.b.clear();
    }
}

/// Shard file name for a thread.
fn shard_name(thread: ThreadId) -> String {
    format!("shard-{}.bin", thread.index())
}

/// The thread a file name is the shard of: only [`shard_name`]'s own
/// spelling counts, so a copy named `shard-01.bin` or `shard-+1.bin` is
/// not a second shard of thread 1.
fn thread_of_name(name: &str) -> Option<ThreadId> {
    let index = name.strip_prefix("shard-")?.strip_suffix(".bin")?;
    let thread = ThreadId::new(index.parse().ok()?);
    (shard_name(thread) == name).then_some(thread)
}

struct OpenShard {
    file: File,
    name: String,
    buf: Vec<u8>,
    frames: u64,
    bytes: u64,
}

/// Summary of a finished [`ShardWriter`], for folding into a run's
/// metrics registry.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardSummary {
    /// Frames written across all shards.
    pub frames: u64,
    /// Payload + framing bytes written across all shards (headers
    /// included).
    pub bytes: u64,
    /// Number of shard files.
    pub shards: u64,
}

impl ShardSummary {
    /// Adds the writer-side `trace.shard.*` counters to a registry.
    pub fn observe_metrics(&self, metrics: &mut Metrics) {
        metrics.add("trace.shard.frames", self.frames);
        metrics.add("trace.shard.bytes", self.bytes);
        metrics.set_gauge("trace.shard.files", self.shards);
    }
}

/// Streaming writer of a shard directory.
///
/// Recording is infallible by design — the hot loop must not branch on
/// I/O results — so the first host-I/O failure is latched and every
/// later record becomes a no-op; [`ShardWriter::finish`] surfaces the
/// latched error. Every byte goes through the [`HostIo`] seam, so
/// seeded ENOSPC / EIO chaos exercises the same code paths as real
/// disks, and a crashed or faulted run leaves shards whose checksummed
/// prefix [`ShardSet::load`] salvages.
///
/// Events arrive through the writer's [`Tool`] callbacks, each encoding
/// its own record, and read/write batches through
/// [`Tool::observe_batch`]. A run ends when the next delivery goes to
/// another shard, so only one run is ever open and the writer stages it
/// in one place.
pub struct ShardWriter {
    io: HostIo,
    dir: PathBuf,
    spill_threshold: usize,
    shards: Vec<Option<OpenShard>>,
    /// The open run; empty between runs.
    run: Run,
    seq: u64,
    error: Option<io::Error>,
}

impl ShardWriter {
    /// Creates (or reuses) `dir` and a writer spilling each shard's
    /// buffer once it exceeds `spill_threshold` bytes.
    pub fn create(io: &HostIo, dir: &Path, spill_threshold: usize) -> io::Result<ShardWriter> {
        std::fs::create_dir_all(dir)?;
        Ok(ShardWriter {
            io: io.clone(),
            dir: dir.to_path_buf(),
            spill_threshold: spill_threshold.max(1),
            shards: Vec::new(),
            run: Run::default(),
            seq: 0,
            error: None,
        })
    }

    /// The first latched host-I/O error, if any.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Records one event's record — its kind, its `a` operand if the
    /// kind takes one, and its `b` operand — into `thread`'s shard.
    /// Infallible: a host-I/O failure latches and later records are
    /// dropped.
    #[inline]
    fn record(&mut self, thread: ThreadId, kind: u8, a: Option<u64>, b: u32) {
        if self.begin(thread) {
            self.run.push(kind, a, b);
            self.end_run_at_cap();
        }
    }

    /// Starts one delivery to `thread`: ends the open run if it goes to
    /// another shard, opens `thread`'s shard on its first delivery, and
    /// numbers the delivery. False once an error has latched.
    #[inline]
    fn begin(&mut self, thread: ThreadId) -> bool {
        if self.run.thread != thread && !self.run.kinds.is_empty() {
            self.end_run();
        }
        if self.error.is_some() {
            return false;
        }
        if self
            .shards
            .get(thread.index() as usize)
            .is_none_or(Option::is_none)
        {
            if let Err(e) = self.open(thread) {
                self.error = Some(e);
                return false;
            }
        }
        self.seq += 1;
        if self.run.kinds.is_empty() {
            self.run.thread = thread;
            self.run.base_seq = self.seq;
        }
        true
    }

    #[inline]
    fn end_run_at_cap(&mut self) {
        if self.run.kinds.len() >= RUN_RECORD_CAP {
            self.end_run();
        }
    }

    /// Ends the open run: encodes it as one frame straight into its
    /// shard's spill buffer — a header left blank, the payload, then the
    /// header's length and checksum filled in — and flushes the buffer
    /// once it passes the spill threshold.
    fn end_run(&mut self) {
        if self.run.kinds.is_empty() || self.error.is_some() {
            self.run.clear();
            return;
        }
        let shard = self.shards[self.run.thread.index() as usize]
            .as_mut()
            .expect("a run's shard is open");
        let buf = &mut shard.buf;
        let start = buf.len();
        let body = start + FRAME_HEADER_BYTES;
        buf.resize(body, 0);
        self.run.encode(buf);
        self.run.clear();
        let len = buf.len() - body;
        let sum = frame_checksum(&buf[body..]);
        buf[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
        buf[start + 4..body].copy_from_slice(&sum.to_le_bytes());
        shard.frames += 1;
        shard.bytes += (FRAME_HEADER_BYTES + len) as u64;
        if shard.buf.len() >= self.spill_threshold {
            if let Err(e) = self.io.write_all(&mut shard.file, &shard.buf) {
                self.error = Some(e);
                return;
            }
            shard.buf.clear();
        }
    }

    /// Creates `thread`'s shard file and its spill buffer, header first.
    fn open(&mut self, thread: ThreadId) -> io::Result<()> {
        let name = shard_name(thread);
        let file = self.io.create(&self.dir.join(&name))?;
        // Pre-size to the spill point (bounded: a huge threshold means
        // "never spill", not "pre-allocate").
        let mut buf = Vec::with_capacity(self.spill_threshold.saturating_add(64).min(1 << 20));
        buf.extend_from_slice(&SHARD_MAGIC);
        put_u32(&mut buf, thread.index());
        let idx = thread.index() as usize;
        if self.shards.len() <= idx {
            self.shards.resize_with(idx + 1, || None);
        }
        self.shards[idx] = Some(OpenShard {
            file,
            name,
            bytes: buf.len() as u64,
            buf,
            frames: 0,
        });
        Ok(())
    }

    /// Ends the open run, flushes and fsyncs every shard, atomically
    /// publishes the manifest, and fsyncs the directory. Returns the
    /// first latched recording error instead, if there was one — the
    /// shards on disk then hold a salvageable prefix of the run.
    pub fn finish(mut self) -> io::Result<ShardSummary> {
        self.end_run();
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let mut summary = ShardSummary::default();
        let mut manifest = String::from("drms shard manifest v1\n");
        for shard in self.shards.iter_mut().flatten() {
            if !shard.buf.is_empty() {
                self.io.write_all(&mut shard.file, &shard.buf)?;
                shard.buf.clear();
            }
            self.io.fdatasync(&shard.file)?;
            summary.frames += shard.frames;
            summary.bytes += shard.bytes;
            summary.shards += 1;
            manifest.push_str(&manifest_line(&shard.name, shard.frames, shard.bytes));
        }
        let tmp = self.dir.join("MANIFEST.tmp");
        let target = self.dir.join(MANIFEST_FILE);
        let publish = (|| -> io::Result<()> {
            let mut f = self.io.create(&tmp)?;
            self.io.write_all(&mut f, manifest.as_bytes())?;
            self.io.fsync(&f)?;
            drop(f);
            self.io.rename(&tmp, &target)?;
            self.io.sync_parent_dir(&target)
        })();
        if let Err(e) = publish {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        Ok(summary)
    }
}

/// The writer's state is bounded I/O buffering, not shadow memory, so
/// its `shadow_bytes` is the default 0.
impl Tool for ShardWriter {
    fn name(&self) -> &str {
        "shard-writer"
    }
    fn on_thread_start(&mut self, thread: ThreadId, parent: Option<ThreadId>) {
        self.record(thread, K_THREAD_START, None, thread_operand(parent));
    }
    fn on_thread_exit(&mut self, thread: ThreadId, cost: u64) {
        self.record(thread, K_THREAD_EXIT, Some(cost), 0);
    }
    fn on_thread_switch(&mut self, from: Option<ThreadId>, to: ThreadId) {
        // Stored in the *incoming* thread's shard; the global sequence
        // number keeps its place in the merged order.
        self.record(to, K_THREAD_SWITCH, None, thread_operand(from));
    }
    fn on_call(&mut self, thread: ThreadId, routine: RoutineId, cost: u64) {
        self.record(thread, K_CALL, Some(cost), routine.index());
    }
    fn on_return(&mut self, thread: ThreadId, routine: RoutineId, cost: u64) {
        self.record(thread, K_RETURN, Some(cost), routine.index());
    }
    fn on_read(&mut self, thread: ThreadId, addr: Addr, len: u32) {
        self.record(thread, K_READ, Some(addr.raw()), len);
    }
    fn on_write(&mut self, thread: ThreadId, addr: Addr, len: u32) {
        self.record(thread, K_WRITE, Some(addr.raw()), len);
    }
    fn on_user_to_kernel(&mut self, thread: ThreadId, addr: Addr, len: u32) {
        self.record(thread, K_U2K, Some(addr.raw()), len);
    }
    fn on_kernel_to_user(&mut self, thread: ThreadId, addr: Addr, len: u32) {
        self.record(thread, K_K2U, Some(addr.raw()), len);
    }
    fn on_sync(&mut self, thread: ThreadId, op: SyncOp) {
        let (kind, a, b) = match op {
            SyncOp::SemWait(s) => (K_SEM_WAIT, None, s),
            SyncOp::SemSignal(s) => (K_SEM_SIGNAL, None, s),
            SyncOp::MutexLock(m) => (K_MUTEX_LOCK, None, m),
            SyncOp::MutexUnlock(m) => (K_MUTEX_UNLOCK, None, m),
            SyncOp::CondWait { cond, mutex } => (K_COND_WAIT, Some(u64::from(mutex)), cond),
            SyncOp::CondSignal(c) => (K_COND_SIGNAL, None, c),
            SyncOp::CondBroadcast(c) => (K_COND_BROADCAST, None, c),
            SyncOp::Spawn { child } => (K_SPAWN, None, child.index()),
            SyncOp::Join { child } => (K_JOIN, None, child.index()),
        };
        self.record(thread, kind, a, b);
    }
    fn on_block(&mut self, thread: ThreadId, routine: RoutineId, block: BlockId) {
        self.record(
            thread,
            K_BLOCK,
            Some(u64::from(block.index())),
            routine.index(),
        );
    }
    // on_finish is deliberately not recorded: the offline replay
    // finishes its tools itself, once, after the merged stream ends.

    /// Native batch path: the whole batch is staged columnar into the
    /// open run, preserving the struct-of-arrays layout end to end.
    fn observe_batch(&mut self, batch: &EventBatch) {
        if self.begin(batch.thread()) {
            self.run.push_batch(batch);
            self.end_run_at_cap();
        }
    }
}

/// The salvaged contents of one shard file: its verifying byte prefix
/// and where each frame in it starts. Frames are split into their
/// columns and decoded in place, on demand.
#[derive(Clone, Debug)]
pub struct SalvagedShard {
    /// File name inside the shard directory.
    pub name: String,
    /// Owning thread, from the file name (a header naming another
    /// thread makes the whole shard corrupt).
    pub thread: ThreadId,
    /// Bytes of the valid prefix (header + intact frames).
    pub bytes: u64,
    /// Whether the file ended in a torn or corrupt frame, or its header
    /// was unusable.
    pub torn: bool,
    /// The valid prefix itself.
    image: Vec<u8>,
    /// Offset in `image` of each intact frame, in record order.
    index: Vec<usize>,
}

impl SalvagedShard {
    /// Number of salvaged frames.
    pub fn frame_count(&self) -> usize {
        self.index.len()
    }

    /// Base `seq` of frame `i`, if the shard has that many frames.
    #[inline]
    fn seq(&self, i: usize) -> Option<u64> {
        Some(u64_at(&self.image, self.index.get(i)? + FRAME_HEADER_BYTES))
    }

    /// Frame `i`, split in place.
    #[inline]
    fn frame(&self, i: usize) -> ShardFrame<'_> {
        let body = self.index[i] + FRAME_HEADER_BYTES;
        let end = self.index.get(i + 1).copied().unwrap_or(self.image.len());
        ShardFrame::split(&self.image[body..end], self.thread)
    }
}

/// Checks a shard image's file header against the thread its file name
/// names; the error says why the whole shard is unusable.
fn check_header(image: &[u8], thread: ThreadId) -> Result<(), String> {
    if image.len() < FILE_HEADER_BYTES {
        return Err("torn file header".to_owned());
    }
    let magic = &image[..8];
    if magic != SHARD_MAGIC {
        return Err(if magic.starts_with(MAGIC_STEM) {
            format!("unsupported shard format {}", magic.escape_ascii())
        } else {
            "not a shard file".to_owned()
        });
    }
    let named = u32_at(image, 8);
    if named != thread.index() {
        return Err(format!(
            "header names thread {named}, file name thread {}",
            thread.index()
        ));
    }
    Ok(())
}

/// Indexes the longest verifying frame prefix of an image whose header
/// checked out. Returns where that prefix ends and, when the image goes
/// on past it, why.
fn index_frames(
    image: &[u8],
    thread: ThreadId,
    index: &mut Vec<usize>,
) -> (usize, Option<&'static str>) {
    let mut pos = FILE_HEADER_BYTES;
    // One past the last `seq` indexed: no run may start below it.
    let mut next_seq = 0;
    while pos < image.len() {
        let Some(header) = image.get(pos..pos + FRAME_HEADER_BYTES) else {
            return (pos, Some("torn frame header"));
        };
        let len = u32_at(header, 0) as usize;
        if len > MAX_PAYLOAD_BYTES {
            return (pos, Some("frame length out of range"));
        }
        let body = pos + FRAME_HEADER_BYTES;
        let Some(payload) = image.get(body..body + len) else {
            return (pos, Some("torn frame"));
        };
        if frame_checksum(payload) != u64_at(header, 4) {
            return (pos, Some("checksum mismatch"));
        }
        let (frame, deliveries) = match check_run(payload, thread) {
            Ok(run) => run,
            Err(why) => return (pos, Some(why)),
        };
        if frame.seq < next_seq {
            return (pos, Some("seq does not rise"));
        }
        let Some(end) = frame.seq.checked_add(deliveries) else {
            return (pos, Some("seq overflows"));
        };
        next_seq = end;
        index.push(pos);
        pos = body + len;
    }
    (pos, None)
}

/// Salvages one shard image: keeps its longest verifying prefix and
/// indexes the frames in it. The reason comes back when the shard is
/// torn.
fn parse_shard(
    name: &str,
    thread: ThreadId,
    mut image: Vec<u8>,
) -> (SalvagedShard, Option<String>) {
    let mut index = Vec::new();
    let (end, tear) = match check_header(&image, thread) {
        Ok(()) => {
            let (end, why) = index_frames(&image, thread, &mut index);
            (end, why.map(str::to_owned))
        }
        Err(why) => (0, Some(why)),
    };
    image.truncate(end);
    let shard = SalvagedShard {
        name: name.to_owned(),
        thread,
        bytes: end as u64,
        torn: tear.is_some(),
        image,
        index,
    };
    (shard, tear)
}

/// One `MANIFEST` row: `<name> <frames> <bytes> ~<16 hex digits>` and a
/// newline, checksummed like a trace line but zero-padded.
fn manifest_line(name: &str, frames: u64, bytes: u64) -> String {
    let body = format!("{name} {frames} {bytes}");
    format!("{body} ~{:016x}\n", fnv1a(body.as_bytes()))
}

/// Parses the manifest text into `(name, frames, bytes)` rows. `None`
/// means the manifest as a whole cannot be trusted (it is written
/// atomically, so a damaged one is corruption, not a torn tail).
fn parse_manifest(text: &str) -> Option<Vec<(String, u64, u64)>> {
    let mut lines = text.lines();
    if lines.next()? != "drms shard manifest v1" {
        return None;
    }
    let mut rows = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let body = verify_token(line).ok()??;
        let mut parts = body.split(' ');
        let name = parts.next()?.to_owned();
        let frames = parts.next()?.parse().ok()?;
        let bytes = parts.next()?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        rows.push((name, frames, bytes));
    }
    Some(rows)
}

/// A loaded shard directory: every shard's salvaged prefix plus the
/// salvage accounting across them.
#[derive(Clone, Debug)]
pub struct ShardSet {
    /// Salvaged shards, ordered by thread index.
    pub shards: Vec<SalvagedShard>,
    /// Frames salvaged across all shards.
    pub salvaged: u64,
    /// Frames lost to torn tails, corrupt frames, or missing files
    /// (counted against the manifest when one exists).
    pub dropped: u64,
    /// `salvaged + dropped` — the accounting law's right-hand side.
    pub total: u64,
    /// Bytes of valid prefix across all shards.
    pub bytes: u64,
    /// Whether a trustworthy manifest was found.
    pub had_manifest: bool,
    /// Human-readable notes about everything that was not pristine.
    pub warnings: Vec<String>,
}

impl ShardSet {
    /// Loads every `shard-<tid>.bin` under `dir`, parsing up to `jobs`
    /// shards in parallel (the sweep's worker-pool idiom: scoped
    /// threads racing over an atomic cursor). A `shard-*.bin` file whose
    /// name is not a thread's own spelling is ignored with a warning.
    pub fn load(dir: &Path, jobs: usize) -> io::Result<ShardSet> {
        let mut names: Vec<(ThreadId, String)> = Vec::new();
        let mut look_alikes = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(thread) = thread_of_name(&name) {
                names.push((thread, name));
            } else if name.starts_with("shard-") && name.ends_with(".bin") {
                look_alikes.push(name);
            }
        }
        names.sort();
        look_alikes.sort();

        let mut warnings: Vec<String> = look_alikes
            .iter()
            .map(|name| format!("{name}: not a shard-<thread>.bin name; ignored"))
            .collect();
        let manifest = match std::fs::read_to_string(dir.join(MANIFEST_FILE)) {
            Ok(text) => match parse_manifest(&text) {
                Some(rows) => Some(rows),
                None => {
                    warnings.push("manifest corrupt; falling back to per-shard tears".to_owned());
                    None
                }
            },
            Err(_) => None,
        };

        let mut slots: Vec<Option<(SalvagedShard, Option<String>)>> = Vec::new();
        slots.resize_with(names.len(), || None);
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel();
        let workers = jobs.max(1).min(names.len().max(1));
        std::thread::scope(|scope| {
            let names = &names;
            let cursor = &cursor;
            for _ in 0..workers {
                let tx = tx.clone();
                scope.spawn(move || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some((thread, name)) = names.get(i) else {
                        break;
                    };
                    let parsed = match std::fs::read(dir.join(name)) {
                        Ok(image) => parse_shard(name, *thread, image),
                        Err(e) => {
                            let (shard, _) = parse_shard(name, *thread, Vec::new());
                            (shard, Some(format!("unreadable: {e}")))
                        }
                    };
                    if tx.send((i, parsed)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            for (i, parsed) in rx {
                slots[i] = Some(parsed);
            }
        });
        let (shards, tears): (Vec<_>, Vec<_>) = slots.into_iter().flatten().unzip();

        let mut set = ShardSet {
            shards,
            salvaged: 0,
            dropped: 0,
            total: 0,
            bytes: 0,
            had_manifest: manifest.is_some(),
            warnings,
        };
        // Accounting: with a manifest, a shard's expected frame count is
        // authoritative (dropped = expected − salvaged, and a missing
        // file drops all of its frames); without one, a torn tail is
        // known to have lost at least the frame it tore in.
        let mut seen: Vec<&str> = Vec::new();
        for (shard, tear) in set.shards.iter().zip(tears) {
            seen.push(&shard.name);
            let salvaged = shard.frame_count() as u64;
            let expected = manifest
                .as_deref()
                .and_then(|rows| rows.iter().find(|(n, _, _)| *n == shard.name))
                .map(|&(_, frames, _)| frames.max(salvaged))
                .unwrap_or(salvaged + shard.torn as u64);
            set.salvaged += salvaged;
            set.dropped += expected - salvaged;
            set.total += expected;
            set.bytes += shard.bytes;
            if let Some(why) = tear {
                set.warnings.push(format!(
                    "{}: torn after {salvaged} frames ({why})",
                    shard.name
                ));
            }
        }
        for (name, frames, _) in manifest.as_deref().unwrap_or(&[]) {
            if !seen.contains(&name.as_str()) {
                set.dropped += frames;
                set.total += frames;
                set.warnings
                    .push(format!("{name}: listed in manifest but missing"));
            }
        }
        Ok(set)
    }

    /// Adds the reader-side shard counters and the salvage-accounting
    /// triple (`trace.shard.lines.{salvaged,dropped,total}`, whose sum
    /// law [`Metrics::audit`] enforces) to a registry. The plain
    /// `trace.shard.{salvaged,dropped}` aliases are the documented
    /// dashboard names.
    pub fn observe_metrics(&self, metrics: &mut Metrics) {
        metrics.record_salvage("trace.shard", self.salvaged, self.dropped, self.total);
        metrics.add("trace.shard.salvaged", self.salvaged);
        metrics.add("trace.shard.dropped", self.dropped);
        metrics.add("trace.shard.frames", self.salvaged);
        metrics.add("trace.shard.bytes", self.bytes);
        metrics.set_gauge("trace.shard.files", self.shards.len() as u64);
    }

    /// Every salvaged frame, split in place and merged across shards
    /// back into the global record order: a run's deliveries carry
    /// consecutive `seq`s and runs never overlap, so a k-way merge of
    /// the runs by base `seq` *is* the live delivery order.
    pub fn frames_in_order(&self) -> impl Iterator<Item = ShardFrame<'_>> + '_ {
        let heads = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(s, shard)| Some(Reverse((shard.seq(0)?, s, 0))))
            .collect();
        Merge {
            shards: &self.shards,
            heads,
        }
    }
}

/// The k-way merge of a set's shards by base `seq`: one heap pop per
/// run.
struct Merge<'a> {
    shards: &'a [SalvagedShard],
    /// `(seq, shard, frame)` of every shard's next frame.
    heads: BinaryHeap<Reverse<(u64, usize, usize)>>,
}

impl<'a> Iterator for Merge<'a> {
    type Item = ShardFrame<'a>;

    // Inlined into the replay loops of other crates, which call it once
    // per run.
    #[inline]
    fn next(&mut self) -> Option<ShardFrame<'a>> {
        let Reverse((_, s, i)) = self.heads.pop()?;
        if let Some(seq) = self.shards[s].seq(i + 1) {
            self.heads.push(Reverse((seq, s, i + 1)));
        }
        Some(self.shards[s].frame(i))
    }
}

/// Delivers one event of `thread`'s shard to a [`Tool`]: the one map
/// from a [`ShardEvent`] back to its callback, and so, into a
/// [`ShardWriter`], the way to record a single event.
pub fn deliver_event<S: Tool + ?Sized>(thread: ThreadId, event: ShardEvent, sink: &mut S) {
    let t = thread;
    match event {
        ShardEvent::ThreadStart { parent } => sink.on_thread_start(t, parent),
        ShardEvent::ThreadExit { cost } => sink.on_thread_exit(t, cost),
        ShardEvent::ThreadSwitch { from } => sink.on_thread_switch(from, t),
        ShardEvent::Call { routine, cost } => sink.on_call(t, routine, cost),
        ShardEvent::Return { routine, cost } => sink.on_return(t, routine, cost),
        ShardEvent::Read { addr, len } => sink.on_read(t, addr, len),
        ShardEvent::Write { addr, len } => sink.on_write(t, addr, len),
        ShardEvent::UserToKernel { addr, len } => sink.on_user_to_kernel(t, addr, len),
        ShardEvent::KernelToUser { addr, len } => sink.on_kernel_to_user(t, addr, len),
        ShardEvent::Sync { op } => sink.on_sync(t, op),
        ShardEvent::Block { routine, block } => sink.on_block(t, routine, block),
    }
}

/// Replays a loaded shard set into `tool` with the live run's delivery
/// shape: single events arrive through their callbacks
/// ([`deliver_event`]), stored batches arrive through
/// [`Tool::observe_batch`] as one [`EventBatch`] each, reused and filled
/// straight from the run's columns. Finishes the tool at the end.
pub fn replay_shards_into<T: Tool + ?Sized>(set: &ShardSet, tool: &mut T) {
    let mut batch = EventBatch::default();
    for frame in set.frames_in_order() {
        for record in frame.records() {
            match record {
                ShardRecord::Event(event) => deliver_event(frame.thread, event, tool),
                ShardRecord::Batch(columns) => {
                    batch.clear();
                    batch.ensure_capacity(columns.len());
                    batch.set_thread(frame.thread);
                    columns.for_each_entry(|kind, addr, len| batch.push(kind, addr, len));
                    tool.observe_batch(&batch);
                }
            }
        }
    }
    tool.on_finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("drms-shard-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Three runs: thread 0's seqs 1–3, thread 1's 4–6, thread 0's 7–8.
    fn sample_events() -> Vec<(ThreadId, ShardEvent)> {
        let t0 = ThreadId::new(0);
        let t1 = ThreadId::new(1);
        vec![
            (t0, ShardEvent::ThreadStart { parent: None }),
            (
                t0,
                ShardEvent::Call {
                    routine: RoutineId::new(3),
                    cost: 10,
                },
            ),
            (
                t0,
                ShardEvent::Read {
                    addr: Addr::new(0x100),
                    len: 4,
                },
            ),
            (t1, ShardEvent::ThreadStart { parent: Some(t0) }),
            (t1, ShardEvent::ThreadSwitch { from: Some(t0) }),
            (
                t1,
                ShardEvent::Sync {
                    op: SyncOp::CondWait { cond: 1, mutex: 2 },
                },
            ),
            (
                t0,
                ShardEvent::Return {
                    routine: RoutineId::new(3),
                    cost: 99,
                },
            ),
            (t0, ShardEvent::ThreadExit { cost: 99 }),
        ]
    }

    /// Every delivery of a set, in replay order: `(seq, thread, record)`.
    fn deliveries(set: &ShardSet) -> Vec<(u64, ThreadId, ShardRecord<'_>)> {
        set.frames_in_order()
            .flat_map(|f| {
                (f.seq..)
                    .zip(f.records())
                    .map(move |(s, r)| (s, f.thread, r))
            })
            .collect()
    }

    fn entries(batch: ShardBatch<'_>) -> Vec<(BatchKind, Addr, u32)> {
        let mut out = Vec::new();
        batch.for_each_entry(|k, a, l| out.push((k, a, l)));
        out
    }

    /// `thread`'s batch of the entries the three columns hold.
    fn batch(thread: ThreadId, kinds: &[BatchKind], addrs: &[Addr], lens: &[u32]) -> EventBatch {
        let mut b = EventBatch::with_capacity(kinds.len());
        b.set_thread(thread);
        for ((&k, &a), &l) in kinds.iter().zip(addrs).zip(lens) {
            b.push(k, a, l);
        }
        b
    }

    #[test]
    fn write_load_replay_roundtrip_in_global_order() {
        let dir = tmp_dir("roundtrip");
        let io = HostIo::real();
        let mut w = ShardWriter::create(&io, &dir, 16).unwrap();
        for &(t, e) in &sample_events() {
            deliver_event(t, e, &mut w);
        }
        w.observe_batch(&batch(
            ThreadId::new(1),
            &[BatchKind::Read, BatchKind::Write],
            &[Addr::new(0x200), Addr::new(0x1_0000_0208)],
            &[1, 70_000],
        ));
        let summary = w.finish().unwrap();
        // One frame per run: t0 1–3, t1 4–6, t0 7–8, t1's batch 9.
        assert_eq!(summary.frames, 4);
        assert_eq!(summary.shards, 2);

        let set = ShardSet::load(&dir, 4).unwrap();
        assert!(set.had_manifest);
        assert_eq!((set.salvaged, set.dropped, set.total), (4, 0, 4));
        let frames: Vec<ShardFrame<'_>> = set.frames_in_order().collect();
        assert_eq!(
            frames.iter().map(|f| f.seq).collect::<Vec<_>>(),
            [1, 4, 7, 9]
        );
        let got = deliveries(&set);
        assert_eq!(got.len(), 9);
        // The events come back in record order, not per-file order, each
        // with its implicit seq.
        for (i, &(t, e)) in sample_events().iter().enumerate() {
            assert_eq!(
                got[i],
                (i as u64 + 1, t, ShardRecord::Event(e)),
                "delivery {i}"
            );
        }
        let (9, t, ShardRecord::Batch(batch)) = got[8] else {
            panic!("delivery 9 is the batch");
        };
        assert_eq!(t, ThreadId::new(1));
        assert_eq!(
            entries(batch),
            [
                (BatchKind::Read, Addr::new(0x200), 1),
                (BatchKind::Write, Addr::new(0x1_0000_0208), 70_000),
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every writer callback — the eleven event kinds, all nine sync ops —
    /// and a batch of both entry kinds come back from load as exactly the
    /// stream that went in. Deliveries alternate between two shards, so
    /// each is a frame of its own whose widths its operands pick: thread
    /// operands up to `u32::MAX` and addresses of 2³² and more need the
    /// widest columns, small ones the narrowest.
    #[test]
    fn every_callback_round_trips_through_the_writer() {
        let dir = tmp_dir("callbacks");
        let mut w = ShardWriter::create(&HostIo::real(), &dir, 64).unwrap();
        // The largest storable thread: its operand, index + 1, is u32::MAX.
        let far = ThreadId::new(u32::MAX - 1);
        let (r, top) = (RoutineId::new(u32::MAX), Addr::new(u64::MAX));
        let sync = |op| ShardEvent::Sync { op };
        let events = [
            ShardEvent::ThreadStart { parent: None },
            ShardEvent::ThreadStart { parent: Some(far) },
            ShardEvent::ThreadSwitch { from: None },
            ShardEvent::ThreadSwitch { from: Some(far) },
            ShardEvent::Call {
                routine: r,
                cost: u64::MAX,
            },
            ShardEvent::Read {
                addr: Addr::new(1 << 32),
                len: 0xff,
            },
            ShardEvent::Write {
                addr: top,
                len: u32::MAX,
            },
            ShardEvent::UserToKernel {
                addr: Addr::new(0xffff_ffff),
                len: 0x100,
            },
            ShardEvent::KernelToUser {
                addr: Addr::new(0x100),
                len: 0xffff,
            },
            ShardEvent::Block {
                routine: RoutineId::new(0),
                block: BlockId::new(u32::MAX),
            },
            sync(SyncOp::SemWait(0)),
            sync(SyncOp::SemSignal(0xff)),
            sync(SyncOp::MutexLock(0x100)),
            sync(SyncOp::MutexUnlock(u32::MAX)),
            sync(SyncOp::CondWait {
                cond: 0x1_0000,
                mutex: u32::MAX,
            }),
            sync(SyncOp::CondSignal(u32::MAX)),
            sync(SyncOp::CondBroadcast(1)),
            sync(SyncOp::Spawn { child: far }),
            sync(SyncOp::Join { child: far }),
            ShardEvent::Return {
                routine: r,
                cost: 0x1_0000,
            },
            ShardEvent::ThreadExit { cost: 1 << 40 },
        ];
        let shard = |i: usize| ThreadId::new(i as u32 % 2);
        for (i, &e) in events.iter().enumerate() {
            deliver_event(shard(i), e, &mut w);
        }
        let kinds = [BatchKind::Read, BatchKind::Write];
        let (addrs, lens) = ([Addr::new(1 << 32), top], [u32::MAX, 0]);
        w.observe_batch(&batch(shard(events.len()), &kinds, &addrs, &lens));
        w.finish().unwrap();

        let set = ShardSet::load(&dir, 2).unwrap();
        assert_eq!(set.dropped, 0);
        let got = deliveries(&set);
        assert_eq!(got.len(), events.len() + 1);
        for (i, &e) in events.iter().enumerate() {
            let want = (i as u64 + 1, shard(i), ShardRecord::Event(e));
            assert_eq!(got[i], want, "delivery {i}");
        }
        let (seq, t, ShardRecord::Batch(stored)) = got[events.len()] else {
            panic!("the last delivery is the batch");
        };
        assert_eq!((seq, t), (events.len() as u64 + 1, shard(events.len())));
        let batch: Vec<_> = (0..2).map(|i| (kinds[i], addrs[i], lens[i])).collect();
        assert_eq!(entries(stored), batch);
        let widths: Vec<(usize, usize)> = set
            .frames_in_order()
            .map(|f| (f.a.width, f.b.width))
            .collect();
        for a in [1, 2, 4, 8] {
            assert!(widths.iter().any(|&(w, _)| w == a), "a width {a}");
        }
        for b in [1, 2, 4] {
            assert!(widths.iter().any(|&(_, w)| w == b), "b width {b}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Each column takes the narrowest width its largest value fits, per
    /// frame: one event whose operands need 1-, 2-, 4- and 8-byte widths
    /// round-trips through every width, and the payload is exactly as
    /// long as the widths say.
    #[test]
    fn column_widths_come_from_each_frames_data() {
        let dir = tmp_dir("widths");
        let mut w = ShardWriter::create(&HostIo::real(), &dir, usize::MAX).unwrap();
        let cases: [(u64, u32, usize, usize); 5] = [
            (0, 0, 1, 1),
            (0xff, 0xff, 1, 1),
            (0x100, 0x100, 2, 2),
            (0x1_0000, 0xffff_ffff, 4, 4),
            (u64::MAX, 1, 8, 1),
        ];
        // Alternating threads end every run after one event.
        for (i, &(addr, len, _, _)) in cases.iter().enumerate() {
            let addr = Addr::new(addr);
            w.on_write(ThreadId::new(i as u32 % 2), addr, len);
        }
        w.finish().unwrap();
        let set = ShardSet::load(&dir, 1).unwrap();
        let frames: Vec<ShardFrame<'_>> = set.frames_in_order().collect();
        assert_eq!(frames.len(), cases.len());
        for (frame, &(addr, len, a_width, b_width)) in frames.iter().zip(&cases) {
            assert_eq!((frame.a.width, frame.b.width), (a_width, b_width));
            assert_eq!(
                frame.kinds.len() + frame.a.bytes.len() + frame.b.bytes.len(),
                1 + a_width + b_width
            );
            let addr = Addr::new(addr);
            assert_eq!(
                frame.records().collect::<Vec<_>>(),
                [ShardRecord::Event(ShardEvent::Write { addr, len })]
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A run that stays on one shard ends at the record cap, and the
    /// next frame picks up at the following seq; a batch that crosses
    /// the cap stays whole in the frame it started in.
    #[test]
    fn a_run_ends_at_the_record_cap_and_batches_stay_whole() {
        let dir = tmp_dir("cap");
        let mut w = ShardWriter::create(&HostIo::real(), &dir, 4096).unwrap();
        let t = ThreadId::MAIN;
        let n = RUN_RECORD_CAP as u64 + 10;
        for i in 0..n {
            w.on_read(t, Addr::new(i), 1);
        }
        // The next run holds 10 records; this batch takes it past the cap.
        let addrs: Vec<Addr> = (0..RUN_RECORD_CAP as u64).map(Addr::new).collect();
        let kinds = vec![BatchKind::Write; addrs.len()];
        w.observe_batch(&batch(t, &kinds, &addrs, &vec![2; addrs.len()]));
        w.on_thread_exit(t, 5);
        let summary = w.finish().unwrap();
        assert_eq!(summary.frames, 3);

        let set = ShardSet::load(&dir, 1).unwrap();
        let frames: Vec<ShardFrame<'_>> = set.frames_in_order().collect();
        let seqs: Vec<u64> = frames.iter().map(|f| f.seq).collect();
        assert_eq!(seqs, [1, RUN_RECORD_CAP as u64 + 1, n + 2]);
        assert_eq!(frames[0].records().count(), RUN_RECORD_CAP);
        let second: Vec<_> = frames[1].records().collect();
        assert_eq!(second.len(), 11);
        let ShardRecord::Batch(batch) = second[10] else {
            panic!("the second run ends in the batch");
        };
        assert_eq!(batch.len(), RUN_RECORD_CAP);
        assert_eq!(deliveries(&set).len() as u64, n + 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_salvages_prefix_and_accounts_against_manifest() {
        let dir = tmp_dir("torn");
        let io = HostIo::real();
        let mut w = ShardWriter::create(&io, &dir, usize::MAX).unwrap();
        for &(t, e) in &sample_events() {
            deliver_event(t, e, &mut w);
        }
        w.finish().unwrap();

        // Tear the larger shard three bytes before its end.
        let victim = dir.join("shard-0.bin");
        let bytes = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &bytes[..bytes.len() - 3]).unwrap();

        let set = ShardSet::load(&dir, 2).unwrap();
        assert!(set.had_manifest);
        assert_eq!(set.salvaged + set.dropped, set.total);
        assert_eq!(set.dropped, 1, "exactly the torn run's frame is lost");
        assert_eq!(set.total, 3);
        let mut m = Metrics::new();
        set.observe_metrics(&mut m);
        assert!(m.audit().is_ok(), "salvage accounting must audit clean");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_manifest_counts_tears_only() {
        let dir = tmp_dir("nomanifest");
        let io = HostIo::real();
        let mut w = ShardWriter::create(&io, &dir, usize::MAX).unwrap();
        for &(t, e) in &sample_events() {
            deliver_event(t, e, &mut w);
        }
        w.finish().unwrap();
        std::fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();

        let intact = ShardSet::load(&dir, 1).unwrap();
        assert!(!intact.had_manifest);
        assert_eq!(intact.salvaged, 3);
        assert_eq!(intact.dropped, 0);

        let victim = dir.join("shard-1.bin");
        let bytes = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &bytes[..bytes.len() - 1]).unwrap();
        let torn = ShardSet::load(&dir, 1).unwrap();
        assert_eq!(torn.dropped, 1, "a tear without a manifest counts once");
        assert_eq!(torn.salvaged + torn.dropped, torn.total);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_missing_file_drops_its_frames() {
        let dir = tmp_dir("missingfile");
        let io = HostIo::real();
        let mut w = ShardWriter::create(&io, &dir, usize::MAX).unwrap();
        for &(t, e) in &sample_events() {
            deliver_event(t, e, &mut w);
        }
        w.finish().unwrap();
        std::fs::remove_file(dir.join("shard-1.bin")).unwrap();

        let set = ShardSet::load(&dir, 2).unwrap();
        assert_eq!((set.salvaged, set.dropped, set.total), (2, 1, 3));
        assert!(set.warnings.iter().any(|w| w.contains("missing")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulted_writer_latches_and_finish_surfaces_the_error() {
        let dir = tmp_dir("faulted");
        let io = HostIo::from_spec("write:enospc:once=1").unwrap();
        let mut w = ShardWriter::create(&io, &dir, 1).unwrap();
        for &(t, e) in &sample_events() {
            deliver_event(t, e, &mut w);
        }
        assert!(
            w.error().is_some(),
            "the first run's write faults and latches"
        );
        let err = w.finish().unwrap_err();
        assert!(crate::hostio::is_injected(&err));
        // Whatever reached the disk is still a loadable prefix.
        let set = ShardSet::load(&dir, 2).unwrap();
        assert_eq!(set.salvaged + set.dropped, set.total);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Writes `sample_events` (thread 0: two runs, thread 1: one) into a
    /// fresh directory.
    fn write_sample(name: &str) -> PathBuf {
        let dir = tmp_dir(name);
        let mut w = ShardWriter::create(&HostIo::real(), &dir, usize::MAX).unwrap();
        for &(t, e) in &sample_events() {
            deliver_event(t, e, &mut w);
        }
        w.finish().unwrap();
        dir
    }

    /// Regression: the thread id in the file header is not checksummed,
    /// so it must agree with the file name. Flipping bit 1 of byte 8 used
    /// to move every frame of `shard-0.bin` onto thread 2 unnoticed.
    #[test]
    fn header_naming_another_thread_makes_the_shard_corrupt() {
        let dir = write_sample("header-tid");
        let victim = dir.join("shard-0.bin");
        let mut bytes = std::fs::read(&victim).unwrap();
        bytes[8] ^= 0b10;
        std::fs::write(&victim, &bytes).unwrap();

        let set = ShardSet::load(&dir, 2).unwrap();
        let shard0 = &set.shards[0];
        assert_eq!(shard0.thread, ThreadId::new(0));
        assert_eq!(shard0.frame_count(), 0);
        assert!(shard0.torn);
        assert_eq!((set.salvaged, set.dropped, set.total), (1, 2, 3));
        assert!(set.frames_in_order().all(|f| f.thread == ThreadId::new(1)));
        assert!(
            set.warnings
                .iter()
                .any(|w| w.starts_with("shard-0.bin: torn") && w.contains("header names thread 2")),
            "{:?}",
            set.warnings
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The multiply in each checksum step carries a difference only
    /// upwards, so without the xorshift bit 63 of one word could cancel
    /// bit 63 of a later one. Flipping bit 63 of any two words of a
    /// 4-entry batch frame (its 8-byte addrs' top bytes, say) must tear
    /// it.
    #[test]
    fn flipping_the_top_bit_of_two_words_tears_the_frame() {
        let dir = tmp_dir("top-bits");
        let mut w = ShardWriter::create(&HostIo::real(), &dir, 64).unwrap();
        let addrs = [0x10, 0x20, 0x30, 1 << 40].map(Addr::new);
        w.observe_batch(&batch(
            ThreadId::new(0),
            &[BatchKind::Read; 4],
            &addrs,
            &[1, 2, 4, 8],
        ));
        w.finish().unwrap();
        let victim = dir.join("shard-0.bin");
        let pristine = std::fs::read(&victim).unwrap();
        let body = FILE_HEADER_BYTES + FRAME_HEADER_BYTES;
        let words = (pristine.len() - body) / 8;
        assert_eq!(words, 7);
        for i in 0..words {
            for j in i + 1..words {
                let mut bytes = pristine.clone();
                bytes[body + 8 * i + 7] ^= 0x80;
                bytes[body + 8 * j + 7] ^= 0x80;
                std::fs::write(&victim, &bytes).unwrap();
                let set = ShardSet::load(&dir, 1).unwrap();
                assert!(set.shards[0].torn, "words {i} and {j}");
                assert_eq!((set.salvaged, set.dropped), (0, 1), "words {i} and {j}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Rewrites frame `k`'s base `seq` and fixes up its checksum, so only
    /// the rising-`seq` rule can reject it.
    fn set_seq(image: &mut [u8], k: usize, seq: u64) {
        let mut index = Vec::new();
        assert_eq!(index_frames(image, ThreadId::MAIN, &mut index).1, None);
        let body = index[k] + FRAME_HEADER_BYTES;
        let end = index.get(k + 1).copied().unwrap_or(image.len());
        image[body..body + 8].copy_from_slice(&seq.to_le_bytes());
        let sum = frame_checksum(&image[body..end]);
        image[index[k] + 4..body].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn a_checksummed_frame_whose_seq_does_not_rise_ends_its_shard() {
        let dir = write_sample("seq-rule");
        let victim = dir.join("shard-0.bin");
        let pristine = std::fs::read(&victim).unwrap();
        // Thread 0 holds the runs 1–3 and 7–8. The second run first
        // starts at seq 3, inside the first, then at seq 1.
        for seq in [3, 1] {
            let mut bytes = pristine.clone();
            set_seq(&mut bytes, 1, seq);
            std::fs::write(&victim, &bytes).unwrap();
            let set = ShardSet::load(&dir, 1).unwrap();
            assert_eq!(set.shards[0].frame_count(), 1, "seq {seq}");
            assert_eq!((set.salvaged, set.dropped, set.total), (2, 1, 3));
            assert!(
                set.warnings[0].contains("seq does not rise"),
                "{:?}",
                set.warnings
            );
            let mut m = Metrics::new();
            set.observe_metrics(&mut m);
            assert!(m.audit().is_ok());
        }
        // Starting right at the end of the first run is fine.
        let mut bytes = pristine.clone();
        set_seq(&mut bytes, 1, 4);
        std::fs::write(&victim, &bytes).unwrap();
        assert_eq!(ShardSet::load(&dir, 1).unwrap().dropped, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `(thread, addr)` of every read of a set, batch entries included,
    /// in replay order.
    fn reads(set: &ShardSet) -> Vec<(ThreadId, u64)> {
        let mut out = Vec::new();
        for frame in set.frames_in_order() {
            let t = frame.thread;
            for record in frame.records() {
                match record {
                    ShardRecord::Event(ShardEvent::Read { addr, .. }) => out.push((t, addr.raw())),
                    ShardRecord::Batch(batch) => batch.for_each_entry(|kind, addr, _| {
                        if kind == BatchKind::Read {
                            out.push((t, addr.raw()));
                        }
                    }),
                    ShardRecord::Event(_) => {}
                }
            }
        }
        out
    }

    #[test]
    fn four_interleaved_shards_merge_back_into_global_seq_order() {
        let dir = tmp_dir("merge");
        let mut w = ShardWriter::create(&HostIo::real(), &dir, 64).unwrap();
        let mut expected = Vec::new();
        // Runs of one to four deliveries per thread, in an irregular
        // thread order, with every fifth delivery a two-entry batch.
        let mut x = 7u32;
        let mut n = 0u64;
        let mut runs = 0;
        let mut last = None;
        for _ in 0..60 {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            let t = ThreadId::new((x >> 16) % 4);
            runs += usize::from(last != Some(t));
            last = Some(t);
            for _ in 0..=(x >> 8) % 4 {
                n += 1;
                let addr = Addr::new(n * 10);
                if n.is_multiple_of(5) {
                    let next = Addr::new(n * 10 + 1);
                    let kinds = [BatchKind::Read; 2];
                    w.observe_batch(&batch(t, &kinds, &[addr, next], &[1, 1]));
                    expected.extend([(t, addr.raw()), (t, next.raw())]);
                } else {
                    w.on_read(t, addr, 1);
                    expected.push((t, addr.raw()));
                }
            }
        }
        assert!(n > 100 && runs > 30);
        let summary = w.finish().unwrap();
        assert_eq!((summary.frames, summary.shards), (runs as u64, 4));

        let set = ShardSet::load(&dir, 3).unwrap();
        let seqs: Vec<u64> = deliveries(&set).iter().map(|d| d.0).collect();
        assert_eq!(seqs, (1..=n).collect::<Vec<_>>());
        assert_eq!(reads(&set), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_older_format_shard_is_unsupported_and_its_frames_dropped() {
        for old in [b"DRMSSHD1", b"DRMSSHD2"] {
            let dir = write_sample("old-format");
            let victim = dir.join("shard-1.bin");
            let mut bytes = std::fs::read(&victim).unwrap();
            bytes[..8].copy_from_slice(old);
            std::fs::write(&victim, &bytes).unwrap();

            let set = ShardSet::load(&dir, 2).unwrap();
            assert_eq!((set.salvaged, set.dropped, set.total), (2, 1, 3));
            assert_eq!(set.shards[1].frame_count(), 0);
            let why = format!("unsupported shard format {}", old.escape_ascii());
            assert!(
                set.warnings
                    .iter()
                    .any(|w| w.contains("shard-1.bin") && w.contains(&why)),
                "{:?}",
                set.warnings
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Regression: a copy of `shard-1.bin` named `shard-01.bin` or
    /// `shard-+1.bin` parsed as thread 1 too, so its frames replayed
    /// twice. Only the canonical name loads; the look-alikes warn.
    #[test]
    fn a_look_alike_shard_name_is_ignored_with_a_warning() {
        let dir = write_sample("look-alike");
        let pristine = ShardSet::load(&dir, 2).unwrap();
        let pristine_reads = reads(&pristine);
        for copy in ["shard-01.bin", "shard-+1.bin", "shard-x.bin"] {
            std::fs::copy(dir.join("shard-1.bin"), dir.join(copy)).unwrap();
        }
        let set = ShardSet::load(&dir, 2).unwrap();
        assert_eq!(set.shards.len(), 2);
        assert_eq!(
            (set.salvaged, set.dropped, set.total),
            (pristine.salvaged, 0, pristine.total)
        );
        assert_eq!(deliveries(&set), deliveries(&pristine));
        assert_eq!(reads(&set), pristine_reads);
        assert_eq!(
            set.warnings,
            [
                "shard-+1.bin: not a shard-<thread>.bin name; ignored",
                "shard-01.bin: not a shard-<thread>.bin name; ignored",
                "shard-x.bin: not a shard-<thread>.bin name; ignored",
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Pins the manifest row's bytes: a spill written before the line
    /// core was shared must still load with its manifest.
    #[test]
    fn manifest_rows_keep_their_bytes() {
        let line = manifest_line("shard-0.bin", 2, 57);
        assert_eq!(line, "shard-0.bin 2 57 ~9de0f0b60c40a8e9\n");
        let text = format!("drms shard manifest v1\n{line}");
        assert_eq!(
            parse_manifest(&text),
            Some(vec![("shard-0.bin".to_owned(), 2, 57)])
        );
        let torn = &text[..text.len() - 2];
        assert_eq!(parse_manifest(torn), None, "a cut token fails to verify");
    }
}
