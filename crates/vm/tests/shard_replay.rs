//! The shard spill against its replay, on a live VM run: what the
//! batched decoded pipeline delivers to the writer must come back out of
//! `replay_shards_into` as the same per-thread event stream.

use drms_trace::hostio::HostIo;
use drms_trace::{ShardSet, ShardWriter};
use drms_vm::{
    replay_shards_into, run_program, DecodeMode, MultiTool, Program, ProgramBuilder, RunConfig,
    TraceRecorder,
};
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("drms-shard-tool-{name}-{}", std::process::id()));
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
