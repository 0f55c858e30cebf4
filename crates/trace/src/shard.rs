//! Out-of-core sharded binary trace pipeline.
//!
//! The DINAMITE split: logging must be cheap online, analysis can be
//! heavy offline. A [`ShardWriter`] appends instrumentation events —
//! including whole struct-of-arrays read/write batches — to one compact
//! binary file per guest thread, encoding each frame straight into the
//! shard's spill buffer and flushing through the [`HostIo`] seam so
//! host-fault chaos applies to every byte that reaches the disk. An
//! offline [`ShardSet`] loads the shards back (in parallel across
//! shards), keeps each one's verifying byte prefix plus an index of its
//! frames, and replays the frames in their original global order into
//! any [`EventSink`], decoding each in place — a write-then-replay run
//! is byte-identical to the in-memory run it recorded.
//!
//! # Format
//!
//! Every integer is little-endian. A shard file `shard-<tid>.bin` is
//!
//! ```text
//! magic "DRMSSHD2" (8) · thread id u32 · frame*
//! frame   := payload_len u32 · checksum(payload) u64 · payload
//! payload := seq u64 · kind u8 · fields…
//! ```
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
//! `seq` is a global monotonic sequence number assigned at record time,
//! so a k-way merge of the per-thread shards by `seq` reconstructs the
//! exact live delivery order — thread switches included, which is what
//! keeps replay-order delivery identical to the VM's (and the drms
//! profiler's redundancy cache byte-identical with it). The `BATCH`
//! frame stores a whole read/write batch columnar (`count u32`, then
//! `count` kinds, `count` addrs, `count` lens), mirroring the in-memory
//! struct-of-arrays layout; replay hands the columns out as borrowed
//! little-endian slices of the loaded file.
//!
//! # Salvage
//!
//! The same discipline as the text journal: a torn or corrupt frame
//! ends the shard — the checksummed prefix before it is salvaged, the
//! rest is dropped, and the accounting law
//! `trace.shard.lines.salvaged + dropped == total` (enforced by
//! [`Metrics::audit`]) holds. A frame whose `seq` does not rise ends its
//! shard too, and a header that names another thread than the file name
//! does, or carries another format's magic, makes the whole shard
//! corrupt. A `MANIFEST` written atomically at [`ShardWriter::finish`]
//! records the expected frame count per shard, so the reader can tell
//! how much a torn tail actually lost; without a manifest (the writer
//! crashed mid-run) a torn tail counts as one dropped frame.

use crate::event::SyncOp;
use crate::hostio::HostIo;
use crate::ids::{Addr, BlockId, RoutineId, ThreadId};
use crate::obs::Metrics;
use crate::replay::EventSink;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Leading magic of every shard file.
pub const SHARD_MAGIC: [u8; 8] = *b"DRMSSHD2";

/// What every version of the shard magic starts with: a file that has
/// it but not [`SHARD_MAGIC`] is a shard in a format this reader does
/// not read.
const MAGIC_STEM: &[u8] = b"DRMSSHD";

/// Name of the atomic per-directory manifest.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Default per-shard buffer size before a flush to the host.
pub const DEFAULT_SPILL_THRESHOLD: usize = 64 * 1024;

const FILE_HEADER_BYTES: usize = 8 + 4;
const FRAME_HEADER_BYTES: usize = 4 + 8;
/// Upper bound on a single frame payload; anything larger in a length
/// prefix is corruption, not data.
const MAX_PAYLOAD_BYTES: usize = 1 << 26;

const K_THREAD_START: u8 = 0;
const K_THREAD_EXIT: u8 = 1;
const K_THREAD_SWITCH: u8 = 2;
const K_CALL: u8 = 3;
const K_RETURN: u8 = 4;
const K_READ: u8 = 5;
const K_WRITE: u8 = 6;
const K_U2K: u8 = 7;
const K_K2U: u8 = 8;
const K_SYNC: u8 = 9;
const K_BLOCK: u8 = 10;
const K_BATCH: u8 = 11;

/// On-disk encoding of `Option<ThreadId>`: no 32-bit thread index can
/// reach `u32::MAX` (it would be the 2^32-th spawned thread).
const NO_THREAD: u32 = u32::MAX;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` one at a time into the FNV-1a state `hash`. From
/// [`FNV_OFFSET`] this is the text codec's per-line checksum, which the
/// `MANIFEST` lines carry.
fn fnv1a_bytes(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
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
    fnv1a_bytes(hash, tail)
}

/// Kind of one batched read/write entry; the discriminant is its byte
/// in a `BATCH` frame's kinds column.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ShardBatchKind {
    /// A guest load.
    Read = 0,
    /// A guest store.
    Write = 1,
}

/// One instrumentation event as the shard format stores it: the
/// [`EventSink`] callback vocabulary (costs included), not the merged
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

/// A `BATCH` frame's columns, borrowed little-endian from the loaded
/// shard. Load checked every kind byte, so the columns decode as they
/// are read.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ShardBatch<'a> {
    kinds: &'a [u8],
    addrs: &'a [u8],
    lens: &'a [u8],
}

impl<'a> ShardBatch<'a> {
    /// The entries, in emission order.
    pub fn entries(self) -> impl ExactSizeIterator<Item = (ShardBatchKind, Addr, u32)> + 'a {
        let kinds = self.kinds.iter().map(|&k| {
            if k == ShardBatchKind::Read as u8 {
                ShardBatchKind::Read
            } else {
                ShardBatchKind::Write
            }
        });
        let addrs = self
            .addrs
            .chunks_exact(8)
            .map(|w| Addr::new(u64::from_le_bytes(w.try_into().unwrap())));
        let lens = self
            .lens
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes(w.try_into().unwrap()));
        kinds.zip(addrs).zip(lens).map(|((k, a), l)| (k, a, l))
    }
}

/// Payload of one frame, decoded in place.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ShardPayload<'a> {
    /// A single event, by value.
    Event(ShardEvent),
    /// A whole read/write batch, its columns borrowed from the shard.
    Batch(ShardBatch<'a>),
}

/// One frame decoded in place: global sequence number, owning thread,
/// payload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ShardFrame<'a> {
    /// Global monotonic sequence number (assigned at record time).
    pub seq: u64,
    /// Thread whose shard held the frame.
    pub thread: ThreadId,
    /// The decoded payload.
    pub payload: ShardPayload<'a>,
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn opt_thread(t: Option<ThreadId>) -> u32 {
    t.map_or(NO_THREAD, ThreadId::index)
}

fn encode_event(buf: &mut Vec<u8>, event: ShardEvent) {
    match event {
        ShardEvent::ThreadStart { parent } => {
            buf.push(K_THREAD_START);
            put_u32(buf, opt_thread(parent));
        }
        ShardEvent::ThreadExit { cost } => {
            buf.push(K_THREAD_EXIT);
            put_u64(buf, cost);
        }
        ShardEvent::ThreadSwitch { from } => {
            buf.push(K_THREAD_SWITCH);
            put_u32(buf, opt_thread(from));
        }
        ShardEvent::Call { routine, cost } => {
            buf.push(K_CALL);
            put_u32(buf, routine.index());
            put_u64(buf, cost);
        }
        ShardEvent::Return { routine, cost } => {
            buf.push(K_RETURN);
            put_u32(buf, routine.index());
            put_u64(buf, cost);
        }
        ShardEvent::Read { addr, len } => {
            buf.push(K_READ);
            put_u64(buf, addr.raw());
            put_u32(buf, len);
        }
        ShardEvent::Write { addr, len } => {
            buf.push(K_WRITE);
            put_u64(buf, addr.raw());
            put_u32(buf, len);
        }
        ShardEvent::UserToKernel { addr, len } => {
            buf.push(K_U2K);
            put_u64(buf, addr.raw());
            put_u32(buf, len);
        }
        ShardEvent::KernelToUser { addr, len } => {
            buf.push(K_K2U);
            put_u64(buf, addr.raw());
            put_u32(buf, len);
        }
        ShardEvent::Sync { op } => {
            buf.push(K_SYNC);
            match op {
                SyncOp::SemWait(s) => {
                    buf.push(0);
                    put_u32(buf, s);
                }
                SyncOp::SemSignal(s) => {
                    buf.push(1);
                    put_u32(buf, s);
                }
                SyncOp::MutexLock(m) => {
                    buf.push(2);
                    put_u32(buf, m);
                }
                SyncOp::MutexUnlock(m) => {
                    buf.push(3);
                    put_u32(buf, m);
                }
                SyncOp::CondWait { cond, mutex } => {
                    buf.push(4);
                    put_u32(buf, cond);
                    put_u32(buf, mutex);
                }
                SyncOp::CondSignal(c) => {
                    buf.push(5);
                    put_u32(buf, c);
                }
                SyncOp::CondBroadcast(c) => {
                    buf.push(6);
                    put_u32(buf, c);
                }
                SyncOp::Spawn { child } => {
                    buf.push(7);
                    put_u32(buf, child.index());
                }
                SyncOp::Join { child } => {
                    buf.push(8);
                    put_u32(buf, child.index());
                }
            }
        }
        ShardEvent::Block { routine, block } => {
            buf.push(K_BLOCK);
            put_u32(buf, routine.index());
            put_u32(buf, block.index());
        }
    }
}

/// Encodes a `BATCH` frame's body, one bulk pass per column.
fn encode_batch(
    buf: &mut Vec<u8>,
    kinds: impl ExactSizeIterator<Item = ShardBatchKind>,
    addrs: &[Addr],
    lens: &[u32],
) {
    buf.push(K_BATCH);
    put_u32(buf, addrs.len() as u32);
    buf.extend(kinds.map(|k| k as u8));
    let at = buf.len();
    buf.resize(at + addrs.len() * 8 + lens.len() * 4, 0);
    let (addr_col, len_col) = buf[at..].split_at_mut(addrs.len() * 8);
    for (dst, addr) in addr_col.chunks_exact_mut(8).zip(addrs) {
        dst.copy_from_slice(&addr.raw().to_le_bytes());
    }
    for (dst, len) in len_col.chunks_exact_mut(4).zip(lens) {
        dst.copy_from_slice(&len.to_le_bytes());
    }
}

/// `body` as exactly `N` bytes: the fields of a fixed-width frame. One
/// length check per frame then covers every field read.
fn fixed<const N: usize>(body: &[u8]) -> Option<&[u8; N]> {
    body.try_into().ok()
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn decode_opt_thread(v: u32) -> Option<ThreadId> {
    (v != NO_THREAD).then(|| ThreadId::new(v))
}

/// An `addr u64 · len u32` body.
fn span(body: &[u8]) -> Option<(Addr, u32)> {
    let f = fixed::<12>(body)?;
    Some((Addr::new(u64_at(f, 0)), u32_at(f, 8)))
}

/// A `routine u32 · cost u64` body.
fn routine_cost(body: &[u8]) -> Option<(RoutineId, u64)> {
    let f = fixed::<12>(body)?;
    Some((RoutineId::new(u32_at(f, 0)), u64_at(f, 4)))
}

/// A `u32` body.
fn word(body: &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(*fixed::<4>(body)?))
}

/// The one frame decoder, serving both load-time validation and replay:
/// the `seq` and payload of one checksummed frame, read in place.
/// `None` means the payload is not a well-formed frame (unknown kind,
/// wrong length for its kind, a batch kind byte that is neither read
/// nor write) and the shard is torn at this frame.
#[inline]
fn decode_frame(payload: &[u8]) -> Option<(u64, ShardPayload<'_>)> {
    let (head, body) = payload.split_first_chunk::<9>()?;
    let seq = u64_at(head, 0);
    let event = match head[8] {
        K_THREAD_START => ShardEvent::ThreadStart {
            parent: decode_opt_thread(word(body)?),
        },
        K_THREAD_EXIT => ShardEvent::ThreadExit {
            cost: u64::from_le_bytes(*fixed::<8>(body)?),
        },
        K_THREAD_SWITCH => ShardEvent::ThreadSwitch {
            from: decode_opt_thread(word(body)?),
        },
        K_CALL => {
            let (routine, cost) = routine_cost(body)?;
            ShardEvent::Call { routine, cost }
        }
        K_RETURN => {
            let (routine, cost) = routine_cost(body)?;
            ShardEvent::Return { routine, cost }
        }
        K_READ => {
            let (addr, len) = span(body)?;
            ShardEvent::Read { addr, len }
        }
        K_WRITE => {
            let (addr, len) = span(body)?;
            ShardEvent::Write { addr, len }
        }
        K_U2K => {
            let (addr, len) = span(body)?;
            ShardEvent::UserToKernel { addr, len }
        }
        K_K2U => {
            let (addr, len) = span(body)?;
            ShardEvent::KernelToUser { addr, len }
        }
        K_SYNC => {
            let (&op, args) = body.split_first()?;
            let op = match op {
                0 => SyncOp::SemWait(word(args)?),
                1 => SyncOp::SemSignal(word(args)?),
                2 => SyncOp::MutexLock(word(args)?),
                3 => SyncOp::MutexUnlock(word(args)?),
                4 => {
                    let f = fixed::<8>(args)?;
                    SyncOp::CondWait {
                        cond: u32_at(f, 0),
                        mutex: u32_at(f, 4),
                    }
                }
                5 => SyncOp::CondSignal(word(args)?),
                6 => SyncOp::CondBroadcast(word(args)?),
                7 => SyncOp::Spawn {
                    child: ThreadId::new(word(args)?),
                },
                8 => SyncOp::Join {
                    child: ThreadId::new(word(args)?),
                },
                _ => return None,
            };
            ShardEvent::Sync { op }
        }
        K_BLOCK => {
            let f = fixed::<8>(body)?;
            ShardEvent::Block {
                routine: RoutineId::new(u32_at(f, 0)),
                block: BlockId::new(u32_at(f, 4)),
            }
        }
        K_BATCH => {
            let (count, columns) = body.split_first_chunk::<4>()?;
            let count = u32::from_le_bytes(*count) as usize;
            // Columnar: count kinds, then count addrs, then count lens.
            if count.checked_mul(13) != Some(columns.len()) {
                return None;
            }
            let (kinds, rest) = columns.split_at(count);
            if kinds.iter().any(|&k| k > ShardBatchKind::Write as u8) {
                return None;
            }
            let (addrs, lens) = rest.split_at(count * 8);
            let batch = ShardBatch { kinds, addrs, lens };
            return Some((seq, ShardPayload::Batch(batch)));
        }
        _ => return None,
    };
    Some((seq, ShardPayload::Event(event)))
}

/// Shard file name for a thread.
fn shard_name(thread: ThreadId) -> String {
    format!("shard-{}.bin", thread.index())
}

fn thread_of_name(name: &str) -> Option<ThreadId> {
    name.strip_prefix("shard-")?
        .strip_suffix(".bin")?
        .parse::<u32>()
        .ok()
        .map(ThreadId::new)
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
pub struct ShardWriter {
    io: HostIo,
    dir: PathBuf,
    spill_threshold: usize,
    shards: Vec<Option<OpenShard>>,
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
            seq: 0,
            error: None,
        })
    }

    /// The first latched host-I/O error, if any.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Records one event into `thread`'s shard. Infallible: a host-I/O
    /// failure latches and later records are dropped.
    pub fn record_event(&mut self, thread: ThreadId, event: ShardEvent) {
        self.append(thread, |buf| encode_event(buf, event));
    }

    /// Records one whole read/write batch into `thread`'s shard, in the
    /// same columnar layout it had in memory: the three columns must be
    /// equally long.
    pub fn record_batch(
        &mut self,
        thread: ThreadId,
        kinds: impl ExactSizeIterator<Item = ShardBatchKind>,
        addrs: &[Addr],
        lens: &[u32],
    ) {
        assert!(
            kinds.len() == addrs.len() && addrs.len() == lens.len(),
            "batch columns differ in length"
        );
        self.append(thread, |buf| encode_batch(buf, kinds, addrs, lens));
    }

    /// Appends one frame to `thread`'s shard, straight into its spill
    /// buffer: a header left blank, the next `seq`, whatever `encode`
    /// writes; then the header's length and checksum are filled in.
    fn append(&mut self, thread: ThreadId, encode: impl FnOnce(&mut Vec<u8>)) {
        if self.error.is_some() {
            return;
        }
        self.seq += 1;
        let idx = thread.index() as usize;
        if self.shards.get(idx).is_none_or(Option::is_none) {
            if let Err(e) = self.open(thread) {
                self.error = Some(e);
                return;
            }
        }
        let shard = self.shards[idx].as_mut().expect("shard just opened");
        let buf = &mut shard.buf;
        let start = buf.len();
        let body = start + FRAME_HEADER_BYTES;
        buf.resize(body, 0);
        put_u64(buf, self.seq);
        encode(buf);
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

    /// Flushes and fsyncs every shard, atomically publishes the
    /// manifest, and fsyncs the directory. Returns the first latched
    /// recording error instead, if there was one — the shards on disk
    /// then hold a salvageable prefix of the run.
    pub fn finish(mut self) -> io::Result<ShardSummary> {
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
            let line = format!("{} {} {}", shard.name, shard.frames, shard.bytes);
            let sum = fnv1a_bytes(FNV_OFFSET, line.as_bytes());
            manifest.push_str(&line);
            manifest.push_str(&format!(" ~{sum:016x}\n"));
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

/// The salvaged contents of one shard file: its verifying byte prefix
/// and where each frame in it starts. Frames are decoded in place, on
/// demand, by the same decoder that validated them at load.
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

    /// `seq` of frame `i`, if the shard has that many frames.
    #[inline]
    fn seq(&self, i: usize) -> Option<u64> {
        let at = self.index.get(i)? + FRAME_HEADER_BYTES;
        Some(u64::from_le_bytes(
            self.image[at..at + 8].try_into().unwrap(),
        ))
    }

    /// Frame `i`, decoded in place.
    #[inline]
    fn frame(&self, i: usize) -> ShardFrame<'_> {
        let body = self.index[i] + FRAME_HEADER_BYTES;
        let end = self.index.get(i + 1).copied().unwrap_or(self.image.len());
        let (seq, payload) =
            decode_frame(&self.image[body..end]).expect("load indexes only frames that decode");
        ShardFrame {
            seq,
            thread: self.thread,
            payload,
        }
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
    let named = u32::from_le_bytes(image[8..12].try_into().unwrap());
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
fn index_frames(image: &[u8], index: &mut Vec<usize>) -> (usize, Option<&'static str>) {
    let mut pos = FILE_HEADER_BYTES;
    let mut last_seq = None;
    while pos < image.len() {
        let Some(header) = image.get(pos..pos + FRAME_HEADER_BYTES) else {
            return (pos, Some("torn frame header"));
        };
        let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        let sum = u64::from_le_bytes(header[4..].try_into().unwrap());
        if len > MAX_PAYLOAD_BYTES {
            return (pos, Some("frame length out of range"));
        }
        let body = pos + FRAME_HEADER_BYTES;
        let Some(payload) = image.get(body..body + len) else {
            return (pos, Some("torn frame"));
        };
        if frame_checksum(payload) != sum {
            return (pos, Some("checksum mismatch"));
        }
        let Some((seq, _)) = decode_frame(payload) else {
            return (pos, Some("malformed frame"));
        };
        // `None < Some(_)`: the first frame's seq is free.
        if last_seq >= Some(seq) {
            return (pos, Some("seq does not rise"));
        }
        last_seq = Some(seq);
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
            let (end, why) = index_frames(&image, &mut index);
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
        let (body, sum) = line.rsplit_once(" ~")?;
        let sum = u64::from_str_radix(sum, 16).ok()?;
        if fnv1a_bytes(FNV_OFFSET, body.as_bytes()) != sum {
            return None;
        }
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
    /// Loads every `shard-*.bin` under `dir`, parsing up to `jobs`
    /// shards in parallel (the sweep's worker-pool idiom: scoped
    /// threads racing over an atomic cursor).
    pub fn load(dir: &Path, jobs: usize) -> io::Result<ShardSet> {
        let mut names: Vec<(ThreadId, String)> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(thread) = thread_of_name(&name) {
                names.push((thread, name));
            }
        }
        names.sort();

        let mut warnings = Vec::new();
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

    /// Every salvaged frame, decoded in place and merged across shards
    /// back into the global record order: `seq` is global and rises
    /// within each shard, so a k-way merge by `seq` *is* the live
    /// delivery order.
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

    /// Replays the salvaged frames, in global order, into `sink` —
    /// batch frames are unrolled entry-by-entry (observably equivalent
    /// to native batch delivery) — then finishes the sink.
    pub fn replay<S: EventSink + ?Sized>(&self, sink: &mut S) {
        for frame in self.frames_in_order() {
            deliver_frame(frame, sink);
        }
        sink.on_finish();
    }
}

/// The k-way merge of a set's shards by `seq`.
struct Merge<'a> {
    shards: &'a [SalvagedShard],
    /// `(seq, shard, frame)` of every shard's next frame.
    heads: BinaryHeap<Reverse<(u64, usize, usize)>>,
}

impl<'a> Iterator for Merge<'a> {
    type Item = ShardFrame<'a>;

    // Inlined into the replay loops of other crates, which call it once
    // per frame.
    #[inline]
    fn next(&mut self) -> Option<ShardFrame<'a>> {
        let Reverse((_, s, i)) = self.heads.pop()?;
        if let Some(seq) = self.shards[s].seq(i + 1) {
            self.heads.push(Reverse((seq, s, i + 1)));
        }
        Some(self.shards[s].frame(i))
    }
}

/// Delivers one frame to an [`EventSink`], batch entries unrolled.
pub fn deliver_frame<S: EventSink + ?Sized>(frame: ShardFrame<'_>, sink: &mut S) {
    let t = frame.thread;
    match frame.payload {
        ShardPayload::Event(event) => match event {
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
        },
        ShardPayload::Batch(batch) => {
            for (kind, addr, len) in batch.entries() {
                match kind {
                    ShardBatchKind::Read => sink.on_read(t, addr, len),
                    ShardBatchKind::Write => sink.on_write(t, addr, len),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("drms-shard-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

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

    #[test]
    fn write_load_replay_roundtrip_in_global_order() {
        let dir = tmp_dir("roundtrip");
        let io = HostIo::real();
        let mut w = ShardWriter::create(&io, &dir, 16).unwrap();
        for &(t, e) in &sample_events() {
            w.record_event(t, e);
        }
        w.record_batch(
            ThreadId::new(1),
            [ShardBatchKind::Read, ShardBatchKind::Write].into_iter(),
            &[Addr::new(0x200), Addr::new(0x208)],
            &[1, 8],
        );
        let summary = w.finish().unwrap();
        assert_eq!(summary.frames, 9);
        assert_eq!(summary.shards, 2);

        let set = ShardSet::load(&dir, 4).unwrap();
        assert!(set.had_manifest);
        assert_eq!(set.salvaged, 9);
        assert_eq!(set.dropped, 0);
        assert_eq!(set.total, 9);
        let frames: Vec<ShardFrame<'_>> = set.frames_in_order().collect();
        assert_eq!(frames.len(), 9);
        // seq is strictly increasing across the merged shards.
        assert!(frames.windows(2).all(|w| w[0].seq < w[1].seq));
        // The events come back in record order, not per-file order.
        for (i, &(t, e)) in sample_events().iter().enumerate() {
            assert_eq!(
                (frames[i].thread, frames[i].payload),
                (t, ShardPayload::Event(e)),
                "frame {i}"
            );
        }
        let ShardPayload::Batch(batch) = frames[8].payload else {
            panic!("frame 8 is the batch");
        };
        assert_eq!(frames[8].thread, ThreadId::new(1));
        assert_eq!(
            batch.entries().collect::<Vec<_>>(),
            [
                (ShardBatchKind::Read, Addr::new(0x200), 1),
                (ShardBatchKind::Write, Addr::new(0x208), 8),
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_salvages_prefix_and_accounts_against_manifest() {
        let dir = tmp_dir("torn");
        let io = HostIo::real();
        let mut w = ShardWriter::create(&io, &dir, usize::MAX).unwrap();
        for &(t, e) in &sample_events() {
            w.record_event(t, e);
        }
        w.finish().unwrap();

        // Tear the larger shard three bytes before its end.
        let victim = dir.join("shard-0.bin");
        let bytes = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &bytes[..bytes.len() - 3]).unwrap();

        let set = ShardSet::load(&dir, 2).unwrap();
        assert!(set.had_manifest);
        assert_eq!(set.salvaged + set.dropped, set.total);
        assert_eq!(set.dropped, 1, "exactly the torn frame is lost");
        assert_eq!(set.total, 8);
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
            w.record_event(t, e);
        }
        w.finish().unwrap();
        std::fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();

        let intact = ShardSet::load(&dir, 1).unwrap();
        assert!(!intact.had_manifest);
        assert_eq!(intact.salvaged, 8);
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
            w.record_event(t, e);
        }
        w.finish().unwrap();
        std::fs::remove_file(dir.join("shard-1.bin")).unwrap();

        let set = ShardSet::load(&dir, 2).unwrap();
        assert_eq!(set.total, 8);
        assert_eq!(set.salvaged + set.dropped, set.total);
        assert!(set.warnings.iter().any(|w| w.contains("missing")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulted_writer_latches_and_finish_surfaces_the_error() {
        let dir = tmp_dir("faulted");
        let io = HostIo::from_spec("write:enospc:once=1").unwrap();
        let mut w = ShardWriter::create(&io, &dir, 1).unwrap();
        for &(t, e) in &sample_events() {
            w.record_event(t, e);
        }
        assert!(w.error().is_some(), "first write faults and latches");
        let err = w.finish().unwrap_err();
        assert!(crate::hostio::is_injected(&err));
        // Whatever reached the disk is still a loadable prefix.
        let set = ShardSet::load(&dir, 2).unwrap();
        assert_eq!(set.salvaged + set.dropped, set.total);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Writes `sample_events` (thread 0: five frames, thread 1: three)
    /// into a fresh directory.
    fn write_sample(name: &str) -> PathBuf {
        let dir = tmp_dir(name);
        let mut w = ShardWriter::create(&HostIo::real(), &dir, usize::MAX).unwrap();
        for &(t, e) in &sample_events() {
            w.record_event(t, e);
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
        assert_eq!((set.salvaged, set.dropped, set.total), (3, 5, 8));
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
    /// 4-entry `BATCH` frame (its addrs' top bytes, say) must tear it.
    #[test]
    fn flipping_the_top_bit_of_two_words_tears_the_frame() {
        let dir = tmp_dir("top-bits");
        let mut w = ShardWriter::create(&HostIo::real(), &dir, 64).unwrap();
        let addrs = [0x10, 0x20, 0x30, 0x40].map(Addr::new);
        w.record_batch(
            ThreadId::new(0),
            [ShardBatchKind::Read; 4].into_iter(),
            &addrs,
            &[1, 2, 4, 8],
        );
        w.finish().unwrap();
        let victim = dir.join("shard-0.bin");
        let pristine = std::fs::read(&victim).unwrap();
        let body = FILE_HEADER_BYTES + FRAME_HEADER_BYTES;
        let words = (pristine.len() - body) / 8;
        assert_eq!(words, 8);
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

    /// Rewrites frame `k`'s `seq` and fixes up its checksum, so only the
    /// rising-`seq` rule can reject it.
    fn set_seq(image: &mut [u8], k: usize, seq: u64) {
        let mut index = Vec::new();
        assert_eq!(index_frames(image, &mut index).1, None);
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
        // Thread 0 holds seqs 1, 2, 3, 7, 8. Frame 3 (seq 7) first
        // repeats seq 3, then goes back to seq 2.
        for seq in [3, 2] {
            let mut bytes = pristine.clone();
            set_seq(&mut bytes, 3, seq);
            std::fs::write(&victim, &bytes).unwrap();
            let set = ShardSet::load(&dir, 1).unwrap();
            assert_eq!(set.shards[0].frame_count(), 3, "seq {seq}");
            assert_eq!((set.salvaged, set.dropped, set.total), (6, 2, 8));
            assert!(
                set.warnings[0].contains("seq does not rise"),
                "{:?}",
                set.warnings
            );
            let mut m = Metrics::new();
            set.observe_metrics(&mut m);
            assert!(m.audit().is_ok());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Records (thread, addr) for every read, batch entries included.
    #[derive(Default)]
    struct Reads(Vec<(ThreadId, u64)>);

    impl EventSink for Reads {
        fn on_read(&mut self, thread: ThreadId, addr: Addr, _: u32) {
            self.0.push((thread, addr.raw()));
        }
    }

    #[test]
    fn four_interleaved_shards_merge_back_into_global_seq_order() {
        let dir = tmp_dir("merge");
        let mut w = ShardWriter::create(&HostIo::real(), &dir, 64).unwrap();
        let mut expected = Vec::new();
        // Runs of one to four frames per thread, in an irregular thread
        // order, with every fifth frame a two-entry batch.
        let mut x = 7u32;
        let mut n = 0u64;
        for _ in 0..60 {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            let t = ThreadId::new((x >> 16) % 4);
            for _ in 0..=(x >> 8) % 4 {
                n += 1;
                let addr = Addr::new(n * 10);
                if n.is_multiple_of(5) {
                    let next = Addr::new(n * 10 + 1);
                    let kinds = [ShardBatchKind::Read, ShardBatchKind::Read].into_iter();
                    w.record_batch(t, kinds, &[addr, next], &[1, 1]);
                    expected.extend([(t, addr.raw()), (t, next.raw())]);
                } else {
                    w.record_event(t, ShardEvent::Read { addr, len: 1 });
                    expected.push((t, addr.raw()));
                }
            }
        }
        assert!(n > 100);
        let summary = w.finish().unwrap();
        assert_eq!((summary.frames, summary.shards), (n, 4));

        let set = ShardSet::load(&dir, 3).unwrap();
        let seqs: Vec<u64> = set.frames_in_order().map(|f| f.seq).collect();
        assert_eq!(seqs, (1..=n).collect::<Vec<_>>());
        let mut reads = Reads::default();
        set.replay(&mut reads);
        assert_eq!(reads.0, expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_older_format_shard_is_unsupported_and_its_frames_dropped() {
        let dir = write_sample("old-format");
        let victim = dir.join("shard-1.bin");
        let mut bytes = std::fs::read(&victim).unwrap();
        bytes[..8].copy_from_slice(b"DRMSSHD1");
        std::fs::write(&victim, &bytes).unwrap();

        let set = ShardSet::load(&dir, 2).unwrap();
        assert_eq!((set.salvaged, set.dropped, set.total), (5, 3, 8));
        assert_eq!(set.shards[1].frame_count(), 0);
        assert!(
            set.warnings
                .iter()
                .any(|w| w.contains("shard-1.bin")
                    && w.contains("unsupported shard format DRMSSHD1")),
            "{:?}",
            set.warnings
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
