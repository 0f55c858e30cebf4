//! Exhaustive shard-salvage suite: the binary trace format's answer to
//! the text codecs' lossy-prefix guarantee.
//!
//! A shard file is truncated at **every byte offset** — inside the
//! magic, inside a frame header, inside a checksummed payload, exactly
//! on a frame boundary — and, separately, has **every bit** flipped one
//! at a time. Every damaged file must salvage a clean prefix of the
//! original frame sequence while the accounting law
//! `trace.shard.salvaged + trace.shard.dropped == trace.shard.total`
//! holds (enforced independently by [`Metrics::audit`] through
//! `observe_metrics`). A seeded random suite then builds shards from
//! whole frames, written from the documented format alone, mixing valid
//! runs with checksummed frames whose structure is wrong.

use drms_trace::obs::Metrics;
use drms_trace::shard::{
    deliver_event, ShardEvent, ShardFrame, ShardRecord, ShardSet, ShardWriter, SHARD_MAGIC,
};
use drms_trace::{Addr, BatchKind, BlockId, HostIo, RoutineId, SyncOp, ThreadId};
use std::path::{Path, PathBuf};

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("drms-shard-salvage-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Writes a two-shard directory around thread 0's mixed stream (events
/// of every size class plus columnar batches, with operands that need
/// every column width). Single deliveries of thread 1 break that stream
/// into runs, so `shard-0.bin` spans many frames whose boundaries come
/// from the data. Returns the frame count of both shards and of shard 0.
fn write_sample(dir: &Path) -> (u64, u64) {
    let io = HostIo::real();
    // A tiny spill threshold exercises mid-run flushes; the torn tail
    // of a truncation can then land in any frame, not just the last.
    let mut w = ShardWriter::create(&io, dir, 32).expect("create writer");
    let t = ThreadId::MAIN;
    let other = ThreadId::new(1);
    deliver_event(t, ShardEvent::ThreadStart { parent: None }, &mut w);
    deliver_event(other, ShardEvent::ThreadStart { parent: Some(t) }, &mut w);
    for i in 0..6u32 {
        deliver_event(
            t,
            ShardEvent::Call {
                routine: RoutineId::new(i % 3),
                cost: (u64::from(i) * 11) << (8 * i),
            },
            &mut w,
        );
        deliver_event(
            t,
            ShardEvent::Read {
                addr: Addr::new(0x1000 + u64::from(i) * 8),
                len: 8,
            },
            &mut w,
        );
        deliver_event(other, ShardEvent::ThreadSwitch { from: Some(t) }, &mut w);
        let kinds = [BatchKind::Read, BatchKind::Write].repeat(2);
        let addrs: Vec<Addr> = (0..4u32)
            .map(|j| Addr::new(0x2000 + u64::from(i * 4 + j)))
            .collect();
        w.record_batch(t, &kinds, &addrs, &[4 << (4 * i); 4]);
        deliver_event(
            t,
            ShardEvent::Return {
                routine: RoutineId::new(i % 3),
                cost: u64::from(i) * 13,
            },
            &mut w,
        );
        deliver_event(other, ShardEvent::ThreadSwitch { from: Some(t) }, &mut w);
    }
    deliver_event(t, ShardEvent::ThreadExit { cost: 99 }, &mut w);
    let summary = w.finish().expect("finish");
    let set = ShardSet::load(dir, 1).expect("load the sample");
    let own = set.shards[0].frame_count() as u64;
    assert!(own >= 10, "shard 0 must span many frames");
    (summary.frames, own)
}

/// Shard 0's frames, in order.
fn main_frames(set: &ShardSet) -> Vec<ShardFrame<'_>> {
    set.frames_in_order()
        .filter(|f| f.thread == ThreadId::MAIN)
        .collect()
}

/// Audits the accounting law through the metrics registry, the same
/// path `aprof --metrics` and the daemon take.
fn assert_law(set: &ShardSet) {
    assert_eq!(
        set.salvaged + set.dropped,
        set.total,
        "salvage law violated: {} + {} != {}",
        set.salvaged,
        set.dropped,
        set.total
    );
    let mut m = Metrics::new();
    set.observe_metrics(&mut m);
    assert_eq!(m.counter("trace.shard.salvaged"), set.salvaged);
    assert_eq!(m.counter("trace.shard.dropped"), set.dropped);
    m.audit().expect("metrics self-consistency audit");
}

/// Copies `dir`'s manifest and intact `shard-1.bin` into a fresh work
/// directory, where `shard-0.bin` is then damaged.
fn work_dir(dir: &Path, name: &str) -> PathBuf {
    let work = scratch(name);
    std::fs::create_dir_all(&work).expect("work dir");
    for file in ["MANIFEST", "shard-1.bin"] {
        std::fs::copy(dir.join(file), work.join(file)).expect("copy");
    }
    work
}

/// Truncating the shard at every byte offset: each prefix salvages an
/// exact frame-sequence prefix, accounts for every expected frame, and
/// never fabricates data past the cut.
#[test]
fn every_truncation_offset_salvages_a_clean_prefix() {
    let dir = scratch("every-offset");
    let (total, own) = write_sample(&dir);

    let bytes = std::fs::read(dir.join("shard-0.bin")).expect("read shard");
    let baseline = ShardSet::load(&dir, 1).expect("baseline load");
    assert_eq!(baseline.dropped, 0);
    assert_eq!(baseline.salvaged, total);
    let full_frames = main_frames(&baseline);
    assert_eq!(full_frames.len() as u64, own);

    let work = work_dir(&dir, "every-offset-work");
    let mut seen_partial = false;
    for cut in 0..=bytes.len() {
        std::fs::write(work.join("shard-0.bin"), &bytes[..cut]).expect("truncate");
        let set = ShardSet::load(&work, 1).expect("salvage load never errors");
        assert_eq!(set.total, total, "manifest pins the expected frame count");
        assert_law(&set);
        let frames = main_frames(&set);
        let kept = set.shards[0].frame_count();
        assert_eq!(frames.len(), kept);
        assert_eq!(set.dropped, own - kept as u64, "cut {cut}");
        assert!(
            frames.len() <= full_frames.len(),
            "cut {cut}: salvage fabricated frames"
        );
        assert_eq!(
            frames[..],
            full_frames[..kept],
            "cut {cut}: salvaged frames must be a prefix"
        );
        if set.dropped > 0 && kept > 0 {
            seen_partial = true;
        }
    }
    assert!(
        seen_partial,
        "some offset must salvage a non-empty strict prefix"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&work);
}

/// Start offset of every frame in a shard image, walked through the
/// documented framing: a 12-byte file header, then frames of a `u32`
/// payload length, a `u64` checksum and the payload.
fn frame_starts(bytes: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut pos = 12;
    while pos < bytes.len() {
        starts.push(pos);
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        pos += 12 + len as usize;
    }
    assert_eq!(pos, bytes.len(), "the sample shard is well framed");
    starts
}

/// Flipping every bit of the shard, one at a time: the load never
/// panics, salvages an exact prefix of the original frames (thread, seq
/// and columns), keeps the accounting law, and — because the word-wise
/// frame checksum catches any single-word change and the header must
/// agree with the file name — keeps exactly the frames before the one
/// the flip landed in, and none for a flip in the file header.
#[test]
fn every_single_bit_flip_salvages_the_frames_before_it() {
    let dir = scratch("bit-flip");
    let (total, own) = write_sample(&dir);
    let bytes = std::fs::read(dir.join("shard-0.bin")).expect("read shard");
    let starts = frame_starts(&bytes);
    assert_eq!(starts.len() as u64, own);
    let baseline = ShardSet::load(&dir, 1).expect("baseline load");
    let full_frames = main_frames(&baseline);

    let work = work_dir(&dir, "bit-flip-work");
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(work.join("shard-0.bin"), &flipped).expect("write flipped shard");
        let set = ShardSet::load(&work, 1).expect("salvage load never errors");
        assert_eq!(set.total, total, "bit {bit}: manifest pins the total");
        assert_law(&set);
        let frames = main_frames(&set);
        assert_eq!(frames.len(), set.shards[0].frame_count());
        // Frames wholly before the flip: k for a flip inside frame k,
        // none for one in the file header.
        let before = starts
            .iter()
            .filter(|&&s| s <= bit / 8)
            .count()
            .saturating_sub(1);
        assert!(
            frames.len() <= before,
            "bit {bit}: salvaged {} frames, at most {before} may survive",
            frames.len()
        );
        assert_eq!(
            frames[..],
            full_frames[..before],
            "bit {bit}: the salvage is the frames before the flip"
        );
        assert!(set.shards[0].torn, "bit {bit}: the flip went unnoticed");
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&work);
}

/// Without a manifest (crash before finalize) the torn tail is still
/// detected and accounted, just without the expected-total baseline:
/// the law holds against the observed count.
#[test]
fn truncation_without_a_manifest_still_accounts_the_tear() {
    let dir = scratch("no-manifest");
    write_sample(&dir);
    let shard_path = dir.join("shard-0.bin");
    let bytes = std::fs::read(&shard_path).expect("read shard");
    std::fs::remove_file(dir.join("MANIFEST")).expect("drop manifest");

    // Cut inside the last frame's payload: a torn tail, one dropped.
    std::fs::write(&shard_path, &bytes[..bytes.len() - 3]).expect("truncate");
    let set = ShardSet::load(&dir, 1).expect("load");
    assert!(!set.had_manifest);
    assert_eq!(set.dropped, 1, "a torn tail is one lost frame");
    assert!(set.shards[0].frame_count() > 0);
    assert_law(&set);
    assert!(
        !set.warnings.is_empty(),
        "a tear without a manifest still warns"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A manifest that names a missing shard file drops that file's whole
/// frame count — absence is data loss, not silence.
#[test]
fn missing_shard_files_drop_their_manifest_frames() {
    let dir = scratch("missing-file");
    let (total, own) = write_sample(&dir);
    std::fs::remove_file(dir.join("shard-0.bin")).expect("remove shard");
    let set = ShardSet::load(&dir, 1).expect("load");
    assert!(set.had_manifest);
    assert_eq!(set.salvaged, total - own);
    assert_eq!(set.dropped, own);
    assert_law(&set);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A tiny xorshift64* step: seeded, dependency-free randomness for the
/// random-frame suite below.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// A random value of a random bit length up to `bits`, so every column
/// width turns up.
fn sized(rng: &mut u64, bits: u64) -> u64 {
    let len = xorshift(rng) % (bits + 1);
    if len == 0 {
        0
    } else {
        xorshift(rng) >> (64 - len)
    }
}

/// One delivery as replay must hand it back.
#[derive(Clone, Debug, PartialEq)]
enum Delivery {
    Event(ShardEvent),
    Batch(Vec<(BatchKind, Addr, u32)>),
}

fn random_event(rng: &mut u64) -> ShardEvent {
    let word = |rng: &mut u64| sized(rng, 32) as u32;
    // The format stores a thread as its index + 1: index u32::MAX is
    // not a thread.
    let thread = |rng: &mut u64| ThreadId::new(word(rng).min(u32::MAX - 1));
    let maybe = |rng: &mut u64| xorshift(rng).is_multiple_of(2).then(|| thread(rng));
    let addr = |rng: &mut u64| Addr::new(sized(rng, 64));
    match xorshift(rng) % 19 {
        0 => ShardEvent::ThreadStart { parent: maybe(rng) },
        1 => ShardEvent::ThreadExit {
            cost: sized(rng, 64),
        },
        2 => ShardEvent::ThreadSwitch { from: maybe(rng) },
        3 => ShardEvent::Call {
            routine: RoutineId::new(word(rng)),
            cost: sized(rng, 64),
        },
        4 => ShardEvent::Return {
            routine: RoutineId::new(word(rng)),
            cost: sized(rng, 64),
        },
        5 => ShardEvent::Read {
            addr: addr(rng),
            len: word(rng),
        },
        6 => ShardEvent::Write {
            addr: addr(rng),
            len: word(rng),
        },
        7 => ShardEvent::UserToKernel {
            addr: addr(rng),
            len: word(rng),
        },
        8 => ShardEvent::KernelToUser {
            addr: addr(rng),
            len: word(rng),
        },
        9 => ShardEvent::Block {
            routine: RoutineId::new(word(rng)),
            block: BlockId::new(word(rng)),
        },
        k => ShardEvent::Sync {
            op: match k {
                10 => SyncOp::SemWait(word(rng)),
                11 => SyncOp::SemSignal(word(rng)),
                12 => SyncOp::MutexLock(word(rng)),
                13 => SyncOp::MutexUnlock(word(rng)),
                14 => SyncOp::CondWait {
                    cond: word(rng),
                    mutex: word(rng),
                },
                15 => SyncOp::CondSignal(word(rng)),
                16 => SyncOp::CondBroadcast(word(rng)),
                17 => SyncOp::Spawn { child: thread(rng) },
                _ => SyncOp::Join { child: thread(rng) },
            },
        },
    }
}

fn random_delivery(rng: &mut u64) -> Delivery {
    if !xorshift(rng).is_multiple_of(4) {
        return Delivery::Event(random_event(rng));
    }
    let n = xorshift(rng) % 7;
    Delivery::Batch(
        (0..n)
            .map(|_| {
                let kind = if xorshift(rng).is_multiple_of(2) {
                    BatchKind::Read
                } else {
                    BatchKind::Write
                };
                (kind, Addr::new(sized(rng, 64)), sized(rng, 32) as u32)
            })
            .collect(),
    )
}

/// One record: kind byte, optional `a` operand, `b` operand.
type Record = (u8, Option<u64>, u32);

/// The documented record table, written out independently of the
/// writer: an event's kind, `a` and `b`.
fn event_record(event: ShardEvent) -> Record {
    let thread = |t: Option<ThreadId>| t.map_or(0, |t| t.index() + 1);
    match event {
        ShardEvent::ThreadStart { parent } => (3, None, thread(parent)),
        ShardEvent::ThreadExit { cost } => (4, Some(cost), 0),
        ShardEvent::ThreadSwitch { from } => (5, None, thread(from)),
        ShardEvent::Call { routine, cost } => (6, Some(cost), routine.index()),
        ShardEvent::Return { routine, cost } => (7, Some(cost), routine.index()),
        ShardEvent::Read { addr, len } => (8, Some(addr.raw()), len),
        ShardEvent::Write { addr, len } => (9, Some(addr.raw()), len),
        ShardEvent::UserToKernel { addr, len } => (10, Some(addr.raw()), len),
        ShardEvent::KernelToUser { addr, len } => (11, Some(addr.raw()), len),
        ShardEvent::Block { routine, block } => {
            (12, Some(u64::from(block.index())), routine.index())
        }
        ShardEvent::Sync { op } => match op {
            SyncOp::SemWait(s) => (13, None, s),
            SyncOp::SemSignal(s) => (14, None, s),
            SyncOp::MutexLock(m) => (15, None, m),
            SyncOp::MutexUnlock(m) => (16, None, m),
            SyncOp::CondWait { cond, mutex } => (17, Some(u64::from(mutex)), cond),
            SyncOp::CondSignal(c) => (18, None, c),
            SyncOp::CondBroadcast(c) => (19, None, c),
            SyncOp::Spawn { child } => (20, None, child.index()),
            SyncOp::Join { child } => (21, None, child.index()),
        },
    }
}

fn delivery_records(delivery: &Delivery, out: &mut Vec<Record>) {
    match delivery {
        Delivery::Event(e) => out.push(event_record(*e)),
        Delivery::Batch(entries) => {
            out.push((2, None, entries.len() as u32));
            out.extend(entries.iter().map(|&(k, a, l)| (k as u8, Some(a.raw()), l)));
        }
    }
}

/// The narrowest of 1, 2, 4 or 8 bytes that holds `max`.
fn width_of(max: u64) -> usize {
    [1, 2, 4, 8]
        .into_iter()
        .find(|&w| w == 8 || max < 1 << (8 * w))
        .unwrap()
}

/// A run's payload as the module docs lay it out.
fn payload(base_seq: u64, records: &[Record]) -> Vec<u8> {
    let a: Vec<u64> = records.iter().filter_map(|r| r.1).collect();
    let a_width = width_of(a.iter().copied().max().unwrap_or(0));
    let b_width = width_of(records.iter().map(|r| u64::from(r.2)).max().unwrap_or(0));
    let mut p = Vec::new();
    p.extend_from_slice(&base_seq.to_le_bytes());
    p.extend_from_slice(&(records.len() as u32).to_le_bytes());
    p.extend_from_slice(&(a.len() as u32).to_le_bytes());
    p.extend_from_slice(&[a_width as u8, b_width as u8]);
    p.extend(records.iter().map(|r| r.0));
    for v in a {
        p.extend_from_slice(&v.to_le_bytes()[..a_width]);
    }
    for r in records {
        p.extend_from_slice(&r.2.to_le_bytes()[..b_width]);
    }
    p
}

/// The documented frame checksum, written out independently of the
/// reader: FNV-1a over the little-endian `u64` words, each step followed
/// by `h ^= h >> 32`, then FNV-1a over the tail bytes.
fn checksum(payload: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let words = payload.chunks_exact(8);
    let tail = words.remainder();
    let h = words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        let h = (h ^ u64::from_le_bytes(w.try_into().unwrap())).wrapping_mul(PRIME);
        h ^ (h >> 32)
    });
    tail.iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut f = (payload.len() as u32).to_le_bytes().to_vec();
    f.extend_from_slice(&checksum(payload).to_le_bytes());
    f.extend_from_slice(payload);
    f
}

/// The structural damage a checksummed frame can carry, with the reason
/// load gives for it.
const DAMAGE: [(&str, &str); 6] = [
    ("kind out of range", "kind out of range"),
    ("batch count past the end", "batch overruns its frame"),
    ("entry outside a batch", "batch entry outside a batch"),
    ("width 3", "bad column width"),
    (
        "column-length mismatch",
        "column lengths do not match the header",
    ),
    ("falling seq", "seq does not rise"),
];

/// Builds one frame with damage `d` (an index into [`DAMAGE`]) from a
/// valid run, its checksum recomputed so only the structure is wrong.
/// `prev_end` is one past the previous frame's last `seq`.
fn damaged(rng: &mut u64, d: usize, base: u64, records: &[Record], prev_end: u64) -> Vec<u8> {
    let mut records = records.to_vec();
    // Top-level record positions: delivery starts, and the end.
    let mut starts = vec![0];
    let mut i = 0;
    while i < records.len() {
        i += 1 + if records[i].0 == 2 {
            records[i].2 as usize
        } else {
            0
        };
        starts.push(i);
    }
    let at = starts[xorshift(rng) as usize % starts.len()];
    let mut base = base;
    match d {
        0 => records.insert(at, (22 + (xorshift(rng) % 234) as u8, None, 0)),
        1 => {
            let past = 1 + sized(rng, 32).min(u64::from(u32::MAX - 1)) as u32;
            records.push((2, None, past));
        }
        2 => records.insert(at, ((xorshift(rng) % 2) as u8, Some(sized(rng, 64)), 1)),
        5 => base = xorshift(rng) % prev_end,
        _ => {}
    }
    let mut p = payload(base, &records);
    match d {
        3 => p[16 + (xorshift(rng) % 2) as usize] = 3,
        4 => match xorshift(rng) % 3 {
            // Junk after the b column.
            0 => p.extend((0..1 + xorshift(rng) % 7).map(|x| x as u8)),
            // A header that claims one `a` operand more than the kinds
            // take, with or without the bytes for it.
            1 => bump_a_count(&mut p, false),
            _ => bump_a_count(&mut p, true),
        },
        _ => {}
    }
    frame(&p)
}

fn bump_a_count(p: &mut Vec<u8>, with_bytes: bool) {
    let records = u32::from_le_bytes(p[8..12].try_into().unwrap()) as usize;
    let count = u32::from_le_bytes(p[12..16].try_into().unwrap());
    p[12..16].copy_from_slice(&(count + 1).to_le_bytes());
    if with_bytes {
        // One more operand at the end of the `a` column, so the `b`
        // column stays where it was.
        let width = usize::from(p[16]);
        let a_end = 18 + records + count as usize * width;
        p.splice(a_end..a_end, vec![0; width]);
    }
}

/// The manifest line format: `name frames bytes ~checksum`, the
/// checksum FNV-1a over the line's bytes.
fn manifest(frames: usize, bytes: usize) -> String {
    let line = format!("shard-0.bin {frames} {bytes}");
    let sum = line.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("drms shard manifest v1\n{line} ~{sum:016x}\n")
}

fn loaded(set: &ShardSet) -> Vec<(u64, Delivery)> {
    set.frames_in_order()
        .flat_map(|f| (f.seq..).zip(f.records()))
        .map(|(seq, record)| match record {
            ShardRecord::Event(e) => (seq, Delivery::Event(e)),
            ShardRecord::Batch(b) => {
                let mut entries = Vec::new();
                b.for_each_entry(|k, a, l| entries.push((k, a, l)));
                (seq, Delivery::Batch(entries))
            }
        })
        .collect()
}

/// Shards built from whole random frames: valid runs (random events and
/// batches, every column width, gaps between runs' `seq`s) mixed with
/// checksummed frames whose structure is wrong in one of the
/// [`DAMAGE`] ways. Load must never panic, must salvage exactly the
/// frames before the first damaged one and decode them to the written
/// deliveries, must give that frame's reason, and must audit clean,
/// with and without a manifest.
#[test]
fn seeded_random_whole_frames_salvage_the_runs_before_the_first_bad_one() {
    let dir = scratch("random-frames");
    std::fs::create_dir_all(&dir).expect("dir");
    let mut rng = 0x5DEE_CE66_D1CE_4E5Bu64;
    let mut hits = [0; DAMAGE.len()];
    for case in 0..600 {
        let frames = 1 + xorshift(&mut rng) as usize % 8;
        let mut image = SHARD_MAGIC.to_vec();
        image.extend_from_slice(&0u32.to_le_bytes());
        let (mut expected, mut first_bad, mut next_seq) = (Vec::new(), None, 0);
        for k in 0..frames {
            let base = next_seq + xorshift(&mut rng) % 3;
            let n = 1 + xorshift(&mut rng) as usize % 10;
            let deliveries: Vec<Delivery> = (0..n).map(|_| random_delivery(&mut rng)).collect();
            let mut records = Vec::new();
            for d in &deliveries {
                delivery_records(d, &mut records);
            }
            let d = xorshift(&mut rng) as usize % (4 * DAMAGE.len());
            // A falling seq needs a valid run before it.
            if d < DAMAGE.len() && !(d == 5 && next_seq == 0) {
                image.extend(damaged(&mut rng, d, base, &records, next_seq));
                if first_bad.is_none() {
                    first_bad = Some((k, d));
                    hits[d] += 1;
                }
                continue;
            }
            image.extend(frame(&payload(base, &records)));
            if first_bad.is_none() {
                expected.extend((base..).zip(deliveries));
            }
            next_seq = base + n as u64;
        }
        let with_manifest = case % 2 == 0;
        let _ = std::fs::remove_file(dir.join("MANIFEST"));
        if with_manifest {
            std::fs::write(dir.join("MANIFEST"), manifest(frames, image.len())).expect("manifest");
        }
        std::fs::write(dir.join("shard-0.bin"), &image).expect("shard");

        let label = format!("case {case}: first bad frame {first_bad:?} of {frames}");
        let set = std::panic::catch_unwind(|| ShardSet::load(&dir, 1).expect("load"))
            .unwrap_or_else(|_| panic!("{label}: load panicked"));
        assert_law(&set);
        let good = first_bad.map_or(frames, |(k, _)| k);
        assert_eq!(set.salvaged, good as u64, "{label}");
        assert_eq!(set.had_manifest, with_manifest, "{label}");
        let lost = if with_manifest {
            frames - good
        } else {
            usize::from(good < frames)
        };
        assert_eq!(set.dropped, lost as u64, "{label}");
        assert_eq!(loaded(&set), expected, "{label}");
        match first_bad {
            Some((k, d)) => {
                let why = format!("shard-0.bin: torn after {k} frames ({})", DAMAGE[d].1);
                assert_eq!(set.warnings, [why], "{label}: {}", DAMAGE[d].0);
            }
            None => assert!(set.warnings.is_empty(), "{label}: {:?}", set.warnings),
        }
    }
    for (hit, (what, _)) in hits.iter().zip(DAMAGE) {
        assert!(*hit >= 20, "only {hit} cases tore first at a {what}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
