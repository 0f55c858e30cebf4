#!/usr/bin/env bash
# Offline CI gate for the drms workspace: build, tests, lints, formatting.
# The build must never touch the network — everything resolves in-tree.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all -- --check
# perfbench is its own package (its manifest has its own [workspace]), so
# the two steps above never reach it, yet it compiles against the
# workspace's API: lint and format-check it on its own.
cargo fmt --manifest-path perfbench/Cargo.toml -- --check
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings
# Doc links must resolve, and public docs must not link private items:
# deleting or renaming a documented item fails here, not in a reader's
# browser. A link target the link text already names is refused too, so
# the doc build stays free of warnings.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links -D rustdoc::redundant_explicit_links" \
    cargo doc --no-deps --workspace

# Schedule-fuzz smoke gate: chaos-scan the fuzz workloads, replay every
# failure strictly and shrink it. Exits non-zero on any panic, any
# non-reproducible failure, or any unshrinkable failure.
cargo run --release -q -p drms-bench --bin repro -- sched-fuzz --seeds 16 --quick

# Schedule-file gate: record a chaos schedule, replay it strictly to a
# byte-identical report, and require a copy cut inside its last checksum
# token to fail the replay with an error naming that line.
sched_dir=target/repro/sched
rm -rf "$sched_dir"
mkdir -p "$sched_dir"
target/release/aprof --workload producer_consumer --scale 1 --sched chaos,seed=3 \
    --record-sched "$sched_dir/rec.sched" --report "$sched_dir/rec.report" > /dev/null
target/release/aprof --workload producer_consumer --scale 1 \
    --replay-sched "$sched_dir/rec.sched" --report "$sched_dir/replayed.report" > /dev/null
cmp "$sched_dir/rec.report" "$sched_dir/replayed.report" \
    || { echo "ci: replaying a recorded schedule changed the report" >&2; exit 1; }
sched_lines=$(( $(wc -l < "$sched_dir/rec.sched") ))
head -c -6 "$sched_dir/rec.sched" > "$sched_dir/torn.sched"
torn_rc=0
target/release/aprof --workload producer_consumer --scale 1 \
    --replay-sched "$sched_dir/torn.sched" > /dev/null 2> "$sched_dir/torn.err" || torn_rc=$?
[ "$torn_rc" -ne 0 ] \
    || { echo "ci: replaying a torn schedule should exit nonzero" >&2; exit 1; }
grep -q "line $sched_lines: " "$sched_dir/torn.err" \
    || { echo "ci: the torn schedule's error does not name line $sched_lines" >&2; exit 1; }

# Bench smoke gate: a tiny parallel sweep. The binary validates its own
# BENCH_sweep.json against the drms-sweep-v2 schema (accounting:
# completed + retries + quarantined == attempts) and exits non-zero
# if the serial and parallel sweeps diverge, the serial and parallel
# merged metrics diverge, the metrics audit fails, or the schema check
# fails.
cargo run --release -q -p drms-bench --bin repro -- sweep --quick --jobs 2 \
    --bench-out target/repro/BENCH_sweep.json

# Reproduction gate: the full default grid must regenerate the committed
# BENCH_sweep.json and BENCH_sweep.metrics.json byte for byte. They are
# the yardstick that every change to the sweep, the supervisor, the VM
# or the profiler is held to.
mkdir -p target/repro/full
target/release/repro sweep --jobs 2 \
    --bench-out target/repro/full/BENCH_sweep.json > /dev/null
cmp BENCH_sweep.json target/repro/full/BENCH_sweep.json \
    || { echo "ci: repro sweep no longer reproduces the committed BENCH_sweep.json" >&2; exit 1; }
cmp BENCH_sweep.metrics.json target/repro/full/BENCH_sweep.metrics.json \
    || { echo "ci: repro sweep no longer reproduces the committed BENCH_sweep.metrics.json" >&2; exit 1; }

# Perf gate: the fast interpreter core must stay fast and observably
# equivalent. The quick sweep runs once decoded (the default: fused
# dispatch, batched delivery) and once legacy (--decode off --batch 1);
# the two deterministic bench artifacts must be byte-identical, and the
# decoded run must clear the sustained instructions/sec floor (the
# pre-decode baseline was ~34.5M/s; the floor is set conservatively
# below the ~180M/s this grid sustains, to ride out container timing
# noise). The jobs=4 speedup floor only applies on multi-core hosts: a
# single core caps the parallel pass at ~1.0x by construction (see
# EXPERIMENTS.md "Parallel sweep benchmark").
mkdir -p target/repro/perf
repro=target/release/repro
"$repro" sweep --quick --jobs 4 \
    --bench-out target/repro/perf/BENCH_decoded.json > /dev/null
"$repro" sweep --quick --jobs 4 --decode off --batch 1 \
    --bench-out target/repro/perf/BENCH_legacy.json > /dev/null
cmp target/repro/perf/BENCH_decoded.json target/repro/perf/BENCH_legacy.json \
    || { echo "ci: decoded and legacy sweeps are not byte-identical" >&2; exit 1; }
cmp target/repro/perf/BENCH_decoded.metrics.json target/repro/perf/BENCH_legacy.metrics.json \
    || { echo "ci: decoded and legacy sweep metrics are not byte-identical" >&2; exit 1; }
ips=$(grep -o '"instructions_per_sec": [0-9.]*' target/repro/perf/BENCH_decoded.timings.json \
    | awk '{print $2}')
awk -v v="$ips" 'BEGIN { exit !(v >= 100000000) }' \
    || { echo "ci: decoded sweep sustained only $ips instr/sec (floor 100M)" >&2; exit 1; }
if [ "$(nproc)" -ge 2 ]; then
    sp=$(grep -o '"speedup": [0-9.]*' target/repro/perf/BENCH_decoded.timings.json \
        | head -1 | awk '{print $2}')
    awk -v v="$sp" 'BEGIN { exit !(v >= 1.5) }' \
        || { echo "ci: jobs=4 sweep speedup $sp below the 1.5x floor" >&2; exit 1; }
fi

# Crash-safety gate: journal a sweep, SIGKILL it mid-grid, resume from
# the salvaged journal, and require the resumed BENCH_sweep.json and
# audited .metrics.json to be byte-identical to an uninterrupted run of
# the same grid (the v2 bench artifact is deterministic by design; only
# the .timings.json sibling may differ). If the victim finishes before
# the kill lands, the resume degrades to a pure journal replay — the
# byte-identity requirement is the same either way.
mkdir -p target/repro/crash
repro=target/release/repro
"$repro" sweep --quick --jobs 2 \
    --bench-out target/repro/crash/BENCH_base.json > /dev/null
rm -f target/repro/crash/sweep.journal
"$repro" sweep --quick --jobs 2 \
    --journal target/repro/crash/sweep.journal \
    --bench-out target/repro/crash/BENCH_killed.json > /dev/null &
victim=$!
for _ in $(seq 1 500); do
    cells=$(grep -c '^@rec cell' target/repro/crash/sweep.journal 2>/dev/null) || cells=0
    [ "$cells" -ge 2 ] && break
    kill -0 "$victim" 2>/dev/null || break
    sleep 0.01
done
kill -KILL "$victim" 2>/dev/null || true
wait "$victim" 2>/dev/null || true
"$repro" sweep --quick --jobs 2 \
    --resume target/repro/crash/sweep.journal \
    --bench-out target/repro/crash/BENCH_resumed.json > /dev/null
cmp target/repro/crash/BENCH_base.json target/repro/crash/BENCH_resumed.json \
    || { echo "ci: resumed sweep bench JSON differs from uninterrupted run" >&2; exit 1; }
cmp target/repro/crash/BENCH_base.metrics.json target/repro/crash/BENCH_resumed.metrics.json \
    || { echo "ci: resumed sweep metrics differ from uninterrupted run" >&2; exit 1; }

# Service crash-safety gate: run one sweep job through the aprofd
# daemon uninterrupted, then the same submission against a fresh state
# dir with the daemon SIGKILLed mid-grid and restarted. Deterministic
# job IDs line the two state dirs up by path, and the resumed
# .bench.json / .metrics.json must be byte-identical to the
# uninterrupted run's.
aprofd=target/release/aprofd
aprofctl=target/release/aprofctl
rm -rf target/repro/aprofd
mkdir -p target/repro/aprofd/state-a target/repro/aprofd/state-b
spec=target/repro/aprofd/job.spec
printf 'family stream\nsizes 6,10,14\nseeds 1,2\njobs 2\n' > "$spec"

"$aprofd" --state-dir target/repro/aprofd/state-a \
    --addr-file target/repro/aprofd/addr-a --workers 2 > /dev/null &
daemon_a=$!
for _ in $(seq 1 500); do [ -s target/repro/aprofd/addr-a ] && break; sleep 0.01; done
job=$("$aprofctl" --addr-file target/repro/aprofd/addr-a submit "$spec")
"$aprofctl" --addr-file target/repro/aprofd/addr-a wait "$job" > /dev/null
"$aprofctl" --addr-file target/repro/aprofd/addr-a shutdown > /dev/null
wait "$daemon_a"

"$aprofd" --state-dir target/repro/aprofd/state-b \
    --addr-file target/repro/aprofd/addr-b --workers 2 > /dev/null &
daemon_b=$!
for _ in $(seq 1 500); do [ -s target/repro/aprofd/addr-b ] && break; sleep 0.01; done
job_b=$("$aprofctl" --addr-file target/repro/aprofd/addr-b submit "$spec")
[ "$job" = "$job_b" ] \
    || { echo "ci: aprofd job ids are not deterministic ($job vs $job_b)" >&2; exit 1; }
for _ in $(seq 1 500); do
    cells=$(grep -c '^@rec cell' "target/repro/aprofd/state-b/job-$job_b.journal" 2>/dev/null) || cells=0
    [ "$cells" -ge 2 ] && break
    kill -0 "$daemon_b" 2>/dev/null || break
    sleep 0.01
done
kill -KILL "$daemon_b" 2>/dev/null || true
wait "$daemon_b" 2>/dev/null || true
"$aprofd" --state-dir target/repro/aprofd/state-b \
    --addr-file target/repro/aprofd/addr-b2 --workers 2 > /dev/null &
daemon_b2=$!
for _ in $(seq 1 500); do [ -s target/repro/aprofd/addr-b2 ] && break; sleep 0.01; done
"$aprofctl" --addr-file target/repro/aprofd/addr-b2 wait "$job_b" > /dev/null
"$aprofctl" --addr-file target/repro/aprofd/addr-b2 shutdown > /dev/null
wait "$daemon_b2"
cmp "target/repro/aprofd/state-a/job-$job.bench.json" \
    "target/repro/aprofd/state-b/job-$job_b.bench.json" \
    || { echo "ci: daemon-resumed bench JSON differs from uninterrupted run" >&2; exit 1; }
cmp "target/repro/aprofd/state-a/job-$job.metrics.json" \
    "target/repro/aprofd/state-b/job-$job_b.metrics.json" \
    || { echo "ci: daemon-resumed metrics differ from uninterrupted run" >&2; exit 1; }

# Load-shedding gate: an admit-only daemon (no workers) with a 2-slot
# queue takes two submissions, then sheds the third with the typed
# retry-after refusal (aprofctl exit code 3), and stays healthy.
rm -rf target/repro/aprofd/state-shed
"$aprofd" --state-dir target/repro/aprofd/state-shed \
    --addr-file target/repro/aprofd/addr-shed --workers 0 --queue-cap 2 > /dev/null &
daemon_shed=$!
for _ in $(seq 1 500); do [ -s target/repro/aprofd/addr-shed ] && break; sleep 0.01; done
ctl_shed="$aprofctl --addr-file target/repro/aprofd/addr-shed"
$ctl_shed submit "$spec" > /dev/null
$ctl_shed submit "$spec" > /dev/null
shed_rc=0
shed_msg=$($ctl_shed --retries 1 submit "$spec" 2>&1) || shed_rc=$?
[ "$shed_rc" -eq 3 ] \
    || { echo "ci: full-queue submission should shed with exit 3, got $shed_rc" >&2; exit 1; }
echo "$shed_msg" | grep -q "queue full" \
    || { echo "ci: shed refusal lacks the typed reason: $shed_msg" >&2; exit 1; }
$ctl_shed health | grep -q "queued 2" \
    || { echo "ci: shed submission perturbed the queue" >&2; exit 1; }
$ctl_shed shutdown > /dev/null
wait "$daemon_shed"

# Host-fault chaos gate: a journaled sweep with a seeded ENOSPC landing
# mid-journal (write op 5 is a cell checkpoint) must degrade gracefully
# — journaling disables with an attributed warning, the run still exits
# clean — and a resume of the salvaged journal on healthy I/O must be
# byte-identical to the fault-free BENCH_base.json from the crash gate
# above (same grid flags, same deterministic artifact).
rm -f target/repro/crash/chaos.journal
"$repro" sweep --quick --jobs 2 \
    --journal target/repro/crash/chaos.journal \
    --bench-out target/repro/crash/BENCH_chaos.json \
    --host-faults write:enospc:once=5 > /dev/null 2> target/repro/crash/chaos.err || true
grep -q "injected host fault" target/repro/crash/chaos.err \
    || { echo "ci: chaos sweep never attributed the injected fault" >&2; exit 1; }
[ -s target/repro/crash/chaos.journal ] \
    || { echo "ci: chaos sweep left no journal to salvage" >&2; exit 1; }
"$repro" sweep --quick --jobs 2 \
    --resume target/repro/crash/chaos.journal \
    --bench-out target/repro/crash/BENCH_chaos_resumed.json > /dev/null
cmp target/repro/crash/BENCH_base.json target/repro/crash/BENCH_chaos_resumed.json \
    || { echo "ci: ENOSPC-resumed sweep bench JSON differs from fault-free run" >&2; exit 1; }

# A fault on the artifact rename itself must fail *typed* (nonzero exit,
# the injection named on stderr) and must never leave a corrupt or
# partial bench artifact behind.
denied_rc=0
"$repro" sweep --quick --jobs 2 \
    --bench-out target/repro/crash/BENCH_denied.json \
    --host-faults rename:eio:once=1 > /dev/null 2> target/repro/crash/denied.err || denied_rc=$?
[ "$denied_rc" -ne 0 ] \
    || { echo "ci: faulted artifact rename should exit nonzero" >&2; exit 1; }
grep -q "injected host fault" target/repro/crash/denied.err \
    || { echo "ci: faulted rename did not fail typed" >&2; exit 1; }
[ ! -e target/repro/crash/BENCH_denied.json ] \
    || { echo "ci: faulted rename left an artifact behind" >&2; exit 1; }

# Slow-loris gate: a client that opens a connection, sends half a
# request line, and stalls must not wedge the daemon — /healthz keeps
# answering throughout, and the loris itself is answered with a typed
# 408 when the read deadline expires.
rm -rf target/repro/aprofd/state-loris
"$aprofd" --state-dir target/repro/aprofd/state-loris \
    --addr-file target/repro/aprofd/addr-loris --workers 0 \
    --read-timeout-ms 500 > /dev/null &
daemon_loris=$!
for _ in $(seq 1 500); do [ -s target/repro/aprofd/addr-loris ] && break; sleep 0.01; done
IFS=: read -r loris_host loris_port < target/repro/aprofd/addr-loris
(
    exec 3<>"/dev/tcp/${loris_host}/${loris_port}"
    printf 'GET /heal' >&3
    sleep 2
    cat <&3 > target/repro/aprofd/loris.out
) &
loris=$!
sleep 0.1
"$aprofctl" --addr-file target/repro/aprofd/addr-loris --timeout-ms 2000 health \
    | grep -q "^ok" \
    || { echo "ci: daemon unresponsive while a slow loris holds a socket" >&2; exit 1; }
wait "$loris"
grep -q "408" target/repro/aprofd/loris.out \
    || { echo "ci: slow loris was not answered with a typed 408" >&2; exit 1; }
"$aprofctl" --addr-file target/repro/aprofd/addr-loris shutdown > /dev/null
wait "$daemon_loris"

# Out-of-core trace gate: a run that spills its event stream to binary
# shards must (a) produce the same report as the in-memory run —
# attaching the shard recorder cannot perturb the profile — and (b)
# replay offline (repro replay-shards) to a byte-identical report.
aprof=target/release/aprof
rm -rf target/repro/shards
mkdir -p target/repro/shards
"$aprof" --workload minidb --scale 1 \
    --report target/repro/shards/live.report > /dev/null
"$aprof" --workload minidb --scale 1 --trace-out target/repro/shards/spill \
    --report target/repro/shards/spill.report > /dev/null
cmp target/repro/shards/live.report target/repro/shards/spill.report \
    || { echo "ci: spilling trace shards perturbed the profile report" >&2; exit 1; }
"$repro" replay-shards target/repro/shards/spill --jobs 2 \
    --report target/repro/shards/replayed.report \
    --metrics target/repro/shards/replayed.metrics.json > /dev/null
cmp target/repro/shards/live.report target/repro/shards/replayed.report \
    || { echo "ci: offline shard replay differs from the in-memory report" >&2; exit 1; }

# The same round trip across shards: producer_consumer runs two threads,
# so its spill writes two shard files and the replay must merge their
# runs back into the live delivery order.
"$aprof" --workload producer_consumer --scale 1 \
    --report target/repro/shards/pc-live.report > /dev/null
"$aprof" --workload producer_consumer --scale 1 --trace-out target/repro/shards/pc-spill \
    --report target/repro/shards/pc-spill.report > /dev/null
[ "$(ls target/repro/shards/pc-spill/shard-*.bin | wc -l)" -ge 2 ] \
    || { echo "ci: producer_consumer spilled fewer than two shards" >&2; exit 1; }
cmp target/repro/shards/pc-live.report target/repro/shards/pc-spill.report \
    || { echo "ci: spilling two shards perturbed the profile report" >&2; exit 1; }
"$repro" replay-shards target/repro/shards/pc-spill --jobs 2 \
    --report target/repro/shards/pc-replayed.report > /dev/null
cmp target/repro/shards/pc-live.report target/repro/shards/pc-replayed.report \
    || { echo "ci: merging two shards differs from the in-memory report" >&2; exit 1; }
# The spill is the run's event stream, whatever tool profiles it: the
# shards of an rms-profiled run replay to the drms run's report.
"$aprof" --workload producer_consumer --scale 1 --tool aprof \
    --trace-out target/repro/shards/pc-rms > /dev/null
"$repro" replay-shards target/repro/shards/pc-rms --jobs 2 \
    --report target/repro/shards/pc-rms.report > /dev/null
cmp target/repro/shards/pc-live.report target/repro/shards/pc-rms.report \
    || { echo "ci: an rms-profiled run's spill does not replay to the live report" >&2; exit 1; }

# Corrupt shard: invert one byte in the middle of the spilled shard-0.bin.
# The frame checksum must catch it, so replay-shards still exits 0, warns
# that the shard is torn, and writes audited metrics (it refuses to
# export a registry that fails its audit) that count the lost frames.
rm -rf target/repro/shards/corrupt
cp -r target/repro/shards/spill target/repro/shards/corrupt
victim=target/repro/shards/corrupt/shard-0.bin
mid=$(( $(wc -c < "$victim") / 2 ))
byte=$(od -An -tu1 -j "$mid" -N1 "$victim" | tr -d ' ')
printf "\\$(printf '%03o' $(( 255 - byte )))" \
    | dd of="$victim" bs=1 seek="$mid" conv=notrunc status=none
"$repro" replay-shards target/repro/shards/corrupt --jobs 2 \
    --metrics target/repro/shards/corrupt.metrics.json \
    > /dev/null 2> target/repro/shards/corrupt.err \
    || { echo "ci: replaying a corrupt shard failed instead of salvaging" >&2; exit 1; }
grep -q '\[salvage\] .* torn' target/repro/shards/corrupt.err \
    || { echo "ci: the corrupt shard was not reported torn" >&2; exit 1; }
corrupt_dropped=$(sed -n 's/.*"trace\.shard\.dropped": \([0-9]*\).*/\1/p' \
    target/repro/shards/corrupt.metrics.json)
[ "${corrupt_dropped:-0}" -gt 0 ] \
    || { echo "ci: the corrupt shard's lost frames were not counted" >&2; exit 1; }

# ENOSPC mid-shard: the run must fail typed (nonzero exit, the injected
# fault attributed on stderr), and the flushed shard prefix must stay
# salvageable — replay-shards loads it, accounts the loss under the
# salvaged + dropped == total law (its metrics audit runs before the
# export), and exits clean. minidb at scale 4 spills about 20 runs in
# six 64 KiB flushes, so the third write lands mid-shard: the salvaged
# prefix must hold some of the clean spill's frames, but not all.
clean_frames=$("$aprof" --workload minidb --scale 4 --trace-out target/repro/shards/clean4 \
    | sed -n 's/^trace shards written to .* (\([0-9]*\) frames.*/\1/p')
shard_rc=0
"$aprof" --workload minidb --scale 4 --trace-out target/repro/shards/faulted \
    --host-faults write:enospc:once=3 \
    > /dev/null 2> target/repro/shards/fault.err || shard_rc=$?
[ "$shard_rc" -ne 0 ] \
    || { echo "ci: ENOSPC mid-shard should exit nonzero" >&2; exit 1; }
grep -q "injected host fault" target/repro/shards/fault.err \
    || { echo "ci: mid-shard fault was not attributed on stderr" >&2; exit 1; }
"$repro" replay-shards target/repro/shards/faulted --jobs 2 \
    --metrics target/repro/shards/faulted.metrics.json > /dev/null \
    || { echo "ci: salvaging the faulted shard prefix failed" >&2; exit 1; }
grep -q '"trace.shard.lines.total"' target/repro/shards/faulted.metrics.json \
    || { echo "ci: salvage accounting missing from the replayed metrics" >&2; exit 1; }
faulted_frames=$(sed -n 's/.*"trace\.shard\.salvaged": \([0-9]*\).*/\1/p' \
    target/repro/shards/faulted.metrics.json)
[ "${faulted_frames:-0}" -gt 0 ] && [ "$faulted_frames" -lt "${clean_frames:-0}" ] \
    || { echo "ci: ENOSPC salvaged ${faulted_frames:-no} of ${clean_frames:-?} frames, not a mid-shard prefix" >&2; exit 1; }

# Metrics smoke gate: the same workload + seed twice must render a
# byte-identical metrics export (aprof exits non-zero if the registry
# fails its self-consistency audit).
mkdir -p target/repro
cargo run --release -q -p drms-bench --bin aprof -- --workload producer_consumer \
    --sched random:7 --metrics target/repro/metrics_a.json > /dev/null
cargo run --release -q -p drms-bench --bin aprof -- --workload producer_consumer \
    --sched random:7 --metrics target/repro/metrics_b.json > /dev/null
cmp target/repro/metrics_a.json target/repro/metrics_b.json \
    || { echo "ci: metrics export is not deterministic" >&2; exit 1; }

# Priority-preemption gate: a one-worker daemon mid-way through a
# low-priority sweep takes a high-priority quick job. The running sweep
# must yield at its next grid-cell boundary (observable in the
# preemption counters), the high job must finish while the preempted
# one is still unfinished, and the preempted job — resumed from its own
# journal checkpoint — must publish artifacts byte-identical to the
# same spec run solo on an undisturbed daemon.
rm -rf target/repro/aprofd/state-solo target/repro/aprofd/state-pre
low_spec=target/repro/aprofd/low.spec
high_spec=target/repro/aprofd/high.spec
printf 'family stream\nsizes 200000,400000\nseeds 1,2,3,4,5,6,7,8,9,10\njobs 1\npriority 0\n' \
    > "$low_spec"
printf 'tenant fastlane\nfamily stream\nsizes 4\nseeds 1\njobs 1\npriority 9\n' > "$high_spec"

"$aprofd" --state-dir target/repro/aprofd/state-solo \
    --addr-file target/repro/aprofd/addr-solo --workers 1 > /dev/null &
daemon_solo=$!
for _ in $(seq 1 500); do [ -s target/repro/aprofd/addr-solo ] && break; sleep 0.01; done
low_solo=$("$aprofctl" --addr-file target/repro/aprofd/addr-solo submit "$low_spec")
"$aprofctl" --addr-file target/repro/aprofd/addr-solo wait "$low_solo" > /dev/null
"$aprofctl" --addr-file target/repro/aprofd/addr-solo shutdown > /dev/null
wait "$daemon_solo"

"$aprofd" --state-dir target/repro/aprofd/state-pre \
    --addr-file target/repro/aprofd/addr-pre --workers 1 > /dev/null &
daemon_pre=$!
for _ in $(seq 1 500); do [ -s target/repro/aprofd/addr-pre ] && break; sleep 0.01; done
ctl_pre="$aprofctl --addr-file target/repro/aprofd/addr-pre"
low_job=$($ctl_pre submit "$low_spec")
[ "$low_job" = "$low_solo" ] \
    || { echo "ci: the preemption gate's job ids diverged ($low_solo vs $low_job)" >&2; exit 1; }
for _ in $(seq 1 500); do
    $ctl_pre status "$low_job" | grep -q "^state running" && break
    sleep 0.01
done
high_job=$($ctl_pre submit "$high_spec")
$ctl_pre wait "$high_job" > /dev/null
if $ctl_pre status "$low_job" | grep -q "^state done"; then
    echo "ci: the high-priority job did not finish first" >&2
    exit 1
fi
$ctl_pre wait "$low_job" | grep -q "^resumed 1" \
    || { echo "ci: the preempted job did not resume from its journal" >&2; exit 1; }
$ctl_pre metrics | grep -q "drms_aprofd_jobs_preempted 1" \
    || { echo "ci: the preemption was not counted" >&2; exit 1; }
$ctl_pre shutdown > /dev/null
wait "$daemon_pre"
cmp "target/repro/aprofd/state-solo/job-$low_job.bench.json" \
    "target/repro/aprofd/state-pre/job-$low_job.bench.json" \
    || { echo "ci: preempted bench JSON differs from the solo run" >&2; exit 1; }
cmp "target/repro/aprofd/state-solo/job-$low_job.metrics.json" \
    "target/repro/aprofd/state-pre/job-$low_job.metrics.json" \
    || { echo "ci: preempted metrics differ from the solo run" >&2; exit 1; }

# Keep-alive soak gate: one raw connection, pipelined sequential
# requests, a connection cap of one — the daemon must answer every
# /healthz on that single persistent socket (the cap leaves no room for
# per-request connections) and still serve a fresh client afterwards.
rm -rf target/repro/aprofd/state-ka
"$aprofd" --state-dir target/repro/aprofd/state-ka \
    --addr-file target/repro/aprofd/addr-ka --workers 0 --max-conns 1 > /dev/null &
daemon_ka=$!
for _ in $(seq 1 500); do [ -s target/repro/aprofd/addr-ka ] && break; sleep 0.01; done
IFS=: read -r ka_host ka_port < target/repro/aprofd/addr-ka
(
    exec 3<>"/dev/tcp/${ka_host}/${ka_port}"
    for _ in $(seq 1 19); do
        printf 'GET /healthz HTTP/1.1\r\n\r\n' >&3
    done
    printf 'GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n' >&3
    cat <&3 > target/repro/aprofd/ka.out
)
ka_ok=$(grep -c "HTTP/1.1 200" target/repro/aprofd/ka.out) || ka_ok=0
[ "$ka_ok" -eq 20 ] \
    || { echo "ci: keep-alive soak got $ka_ok/20 responses on one connection" >&2; exit 1; }
"$aprofctl" --addr-file target/repro/aprofd/addr-ka health | grep -q "^ok" \
    || { echo "ci: daemon unhealthy after the keep-alive soak" >&2; exit 1; }
"$aprofctl" --addr-file target/repro/aprofd/addr-ka shutdown > /dev/null
wait "$daemon_ka"

# Benchmark smoke gate: perfbench is a separate package that calls the
# supervisor, journal and decoder APIs, so nothing else compiles it.
# One short traced out-of-core run must build and fail no operation;
# its ladder checks the daemon's bench.json against a direct
# run_supervised_with of the same spec.
perfbench_last=$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
    --workload out_of_core --seed 1 --seconds 1 --trace 1 | tail -n 1)
echo "$perfbench_last" | grep -q '"failed": 0,' \
    || { echo "ci: perfbench smoke run failed: ${perfbench_last:0:200}" >&2; exit 1; }

echo "ci: all green"
