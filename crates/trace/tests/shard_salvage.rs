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
//! `observe_metrics`).

use drms_trace::obs::Metrics;
use drms_trace::shard::{ShardBatchKind, ShardEvent, ShardFrame, ShardSet, ShardWriter};
use drms_trace::{Addr, HostIo, RoutineId, ThreadId};
use std::path::{Path, PathBuf};

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("drms-shard-salvage-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Writes one single-thread shard directory with a mixed frame stream
/// (events of every size class plus columnar batches) and returns the
/// frame count.
fn write_sample(dir: &Path) -> u64 {
    let io = HostIo::real();
    // A tiny spill threshold exercises mid-run flushes; the torn tail
    // of a truncation can then land in any frame, not just the last.
    let mut w = ShardWriter::create(&io, dir, 32).expect("create writer");
    let t = ThreadId::MAIN;
    w.record_event(t, ShardEvent::ThreadStart { parent: None });
    for i in 0..6u32 {
        w.record_event(
            t,
            ShardEvent::Call {
                routine: RoutineId::new(i % 3),
                cost: u64::from(i) * 11,
            },
        );
        w.record_event(
            t,
            ShardEvent::Read {
                addr: Addr::new(0x1000 + u64::from(i) * 8),
                len: 8,
            },
        );
        let kinds = (0..4).map(|j| {
            if j % 2 == 0 {
                ShardBatchKind::Read
            } else {
                ShardBatchKind::Write
            }
        });
        let addrs: Vec<Addr> = (0..4u32)
            .map(|j| Addr::new(0x2000 + u64::from(i * 4 + j)))
            .collect();
        w.record_batch(t, kinds, &addrs, &[4; 4]);
        w.record_event(
            t,
            ShardEvent::Return {
                routine: RoutineId::new(i % 3),
                cost: u64::from(i) * 13,
            },
        );
    }
    w.record_event(t, ShardEvent::ThreadExit { cost: 99 });
    let summary = w.finish().expect("finish");
    assert!(summary.frames > 10, "sample must span many frames");
    summary.frames
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

/// Truncating the shard at every byte offset: each prefix salvages an
/// exact frame-sequence prefix, accounts for every expected frame, and
/// never fabricates data past the cut.
#[test]
fn every_truncation_offset_salvages_a_clean_prefix() {
    let dir = scratch("every-offset");
    let total = write_sample(&dir);

    let shard_path = dir.join("shard-0.bin");
    let bytes = std::fs::read(&shard_path).expect("read shard");
    let baseline = ShardSet::load(&dir, 1).expect("baseline load");
    assert_eq!(baseline.dropped, 0);
    assert_eq!(baseline.salvaged, total);
    let full_frames: Vec<ShardFrame<'_>> = baseline.frames_in_order().collect();

    let work = scratch("every-offset-work");
    std::fs::create_dir_all(&work).expect("work dir");
    std::fs::copy(dir.join("MANIFEST"), work.join("MANIFEST")).expect("copy manifest");

    let mut seen_partial = false;
    for cut in 0..=bytes.len() {
        std::fs::write(work.join("shard-0.bin"), &bytes[..cut]).expect("truncate");
        let set = ShardSet::load(&work, 1).expect("salvage load never errors");
        assert_eq!(set.total, total, "manifest pins the expected frame count");
        assert_law(&set);
        let frames: Vec<ShardFrame<'_>> = set.frames_in_order().collect();
        assert_eq!(frames.len() as u64, set.salvaged);
        assert!(
            frames.len() <= full_frames.len(),
            "cut {cut}: salvage fabricated frames"
        );
        for (a, b) in frames.iter().zip(&full_frames) {
            assert_eq!(*a, *b, "cut {cut}: salvaged frames must be a prefix");
        }
        if set.dropped > 0 && set.salvaged > 0 {
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
/// and payload), keeps the accounting law, and — because the word-wise
/// frame checksum catches any single-word change and the header must
/// agree with the file name — keeps exactly the frames before the one
/// the flip landed in, and none for a flip in the file header.
#[test]
fn every_single_bit_flip_salvages_the_frames_before_it() {
    let dir = scratch("bit-flip");
    let total = write_sample(&dir);
    let bytes = std::fs::read(dir.join("shard-0.bin")).expect("read shard");
    let starts = frame_starts(&bytes);
    assert_eq!(starts.len() as u64, total);
    let baseline = ShardSet::load(&dir, 1).expect("baseline load");
    let full_frames: Vec<ShardFrame<'_>> = baseline.frames_in_order().collect();

    let work = scratch("bit-flip-work");
    std::fs::create_dir_all(&work).expect("work dir");
    std::fs::copy(dir.join("MANIFEST"), work.join("MANIFEST")).expect("copy manifest");
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(work.join("shard-0.bin"), &flipped).expect("write flipped shard");
        let set = ShardSet::load(&work, 1).expect("salvage load never errors");
        assert_eq!(set.total, total, "bit {bit}: manifest pins the total");
        assert_law(&set);
        let frames: Vec<ShardFrame<'_>> = set.frames_in_order().collect();
        assert_eq!(frames.len() as u64, set.salvaged);
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
    assert!(set.salvaged > 0);
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
    let total = write_sample(&dir);
    std::fs::remove_file(dir.join("shard-0.bin")).expect("remove shard");
    let set = ShardSet::load(&dir, 1).expect("load");
    assert!(set.had_manifest);
    assert_eq!(set.salvaged, 0);
    assert_eq!(set.dropped, total);
    assert_law(&set);
    let _ = std::fs::remove_dir_all(&dir);
}
