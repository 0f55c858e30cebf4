//! Spilling the live event stream to on-disk shards, and replaying
//! shards back into tools with native batch delivery.
//!
//! [`ShardWriter`] is a [`Tool`] itself: attach it next to a profiler
//! (via [`MultiTool`](crate::MultiTool); the `drms` facade's
//! `ProfileSession::trace_dir` does) and every callback — including
//! whole struct-of-arrays [`EventBatch`] flushes, persisted columnar
//! without unrolling — is appended to the per-thread shard files.
//! [`replay_shards_into`] is the offline other half and the one shard
//! replay: it walks a loaded [`ShardSet`]'s runs in global record order,
//! decoding each in place, and delivers every stored batch through
//! [`Tool::observe_batch`] exactly as the VM did live, so a
//! write-then-replay run reproduces the in-memory run byte-for-byte.

use crate::batch::EventBatch;
use crate::tool::Tool;
use drms_trace::shard::{deliver_event, ShardRecord, ShardSet, ShardWriter};

/// Recording is infallible (the writer latches its first host-I/O
/// error); call [`ShardWriter::finish`] after the run to flush, publish
/// the manifest, and surface any latched fault.
impl Tool for ShardWriter {
    fn name(&self) -> &str {
        "shard-writer"
    }

    fn shadow_bytes(&self) -> u64 {
        // The writer's state is bounded I/O buffering, not shadow
        // memory; it does not count against a tool's shadow budget.
        0
    }

    /// Native batch path: the whole batch is staged columnar into the
    /// open run, preserving the struct-of-arrays layout end to end.
    fn observe_batch(&mut self, batch: &EventBatch) {
        let (kinds, addrs, lens) = batch.arrays();
        self.record_batch(batch.thread(), kinds, addrs, lens);
    }
}

/// Replays a loaded shard set into `tool` with the live run's delivery
/// shape: single events arrive through their
/// [`EventSink`](drms_trace::EventSink) callbacks, stored batches arrive
/// through [`Tool::observe_batch`] as one [`EventBatch`] each, reused
/// and filled straight from the run's columns. Finishes the tool at the
/// end.
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
    use crate::builder::ProgramBuilder;
    use crate::interp::run_program;
    use crate::ir::Program;
    use crate::recorder::TraceRecorder;
    use crate::stats::{DecodeMode, RunConfig};
    use crate::tool::MultiTool;
    use drms_trace::hostio::HostIo;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("drms-shard-tool-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn two_thread_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let g = pb.global(16);
        let worker = pb.function("worker", 0, |f| {
            f.for_range(0, 16, |f, i| {
                f.store(g.raw() as i64, i, 7);
            });
            f.ret(None);
        });
        let main = pb.function("main", 0, |f| {
            let t = f.spawn(worker, &[]);
            f.for_range(0, 16, |f, i| {
                let _ = f.load(g.raw() as i64, i);
            });
            f.join(t);
            f.ret(None);
        });
        pb.finish(main).unwrap()
    }

    /// Live record through the batched decoded pipeline, then offline
    /// native-batch replay: the replayed tool must observe the exact
    /// event stream the live tool did.
    #[test]
    fn spill_and_replay_reproduces_the_live_stream() {
        let dir = tmp_dir("equiv");
        let program = two_thread_program();
        let config = RunConfig {
            decode: DecodeMode::Fused,
            event_batch: 8,
            ..RunConfig::default()
        };

        let mut shard = ShardWriter::create(&HostIo::real(), &dir, 64).unwrap();
        let mut live = TraceRecorder::new();
        let mut fan = MultiTool::new();
        fan.push(&mut shard);
        fan.push(&mut live);
        run_program(&program, config, &mut fan).unwrap();
        let summary = shard.finish().unwrap();
        assert!(summary.frames > 0);

        let set = ShardSet::load(&dir, 4).unwrap();
        assert_eq!(set.dropped, 0);
        let mut replayed = TraceRecorder::new();
        replay_shards_into(&set, &mut replayed);

        let live: Vec<_> = live.into_traces();
        let replayed: Vec<_> = replayed.into_traces();
        assert_eq!(live.len(), replayed.len());
        for (a, b) in live.iter().zip(&replayed) {
            assert_eq!(a.events(), b.events(), "identical per-thread streams");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
