//! The unified profiling entry point.
//!
//! [`ProfileSession`] is a builder over one configurable pipeline: pick
//! a program, layer on run configuration, drms settings, fault plans,
//! scheduling and extra tools, then [`run`](ProfileSession::run) it
//! under the drms profiler, or [`run_with`](ProfileSession::run_with)
//! any other tool. Every run uses the partial-profile contract — a
//! guest abort never discards the data collected before it.
//!
//! When no extra tools are attached, the session drives the VM through
//! the monomorphized fast path (the tool's event handlers compile to
//! direct calls); attaching tools switches to a [`MultiTool`] fan-out.

use crate::{Error, ProfileOutcome};
use drms_core::{DrmsConfig, DrmsProfiler, ProfileReport};
use drms_trace::shard::{ShardWriter, DEFAULT_SPILL_THRESHOLD};
use drms_trace::HostIo;
use drms_vm::{
    DecodeMode, DecodedProgram, EventBatch, FaultPlan, MultiTool, Program, RunConfig, SchedPolicy,
    Schedule, Tool, Vm,
};
use drms_workloads::Workload;
use std::path::PathBuf;
use std::sync::Arc;

/// A configurable profiling run over one guest program.
///
/// # Example
/// ```
/// use drms::prelude::*;
///
/// let w = drms::workloads::patterns::stream_reader(16);
/// let outcome = ProfileSession::new(&w.program)
///     .config(w.run_config())
///     .drms(DrmsConfig::full())
///     .run()
///     .unwrap();
/// assert!(!outcome.is_partial());
/// let p = outcome.report.merged_routine(w.focus.unwrap());
/// assert_eq!(p.drms_plot().last().unwrap().0, 16);
/// ```
pub struct ProfileSession<'p, 't> {
    program: &'p Program,
    config: RunConfig,
    drms: DrmsConfig,
    extra: Vec<&'t mut dyn Tool>,
    decoded: Option<Arc<DecodedProgram>>,
    batch_buf: Option<&'t mut EventBatch>,
    trace_dir: Option<PathBuf>,
    spill_threshold: usize,
    trace_io: HostIo,
}

impl<'p, 't> ProfileSession<'p, 't> {
    /// Starts a session over `program` with default run configuration
    /// and the full drms metric.
    pub fn new(program: &'p Program) -> Self {
        ProfileSession {
            program,
            config: RunConfig::default(),
            drms: DrmsConfig::full(),
            extra: Vec::new(),
            decoded: None,
            batch_buf: None,
            trace_dir: None,
            spill_threshold: DEFAULT_SPILL_THRESHOLD,
            trace_io: HostIo::real(),
        }
    }

    /// Starts a session over a prebuilt [`Workload`], adopting its
    /// program, devices and run defaults.
    pub fn workload(w: &'p Workload) -> Self {
        ProfileSession::new(&w.program).config(w.run_config())
    }

    /// Replaces the whole [`RunConfig`] (devices, quantum, budgets, …).
    ///
    /// Call this *before* the targeted setters ([`faults`](Self::faults),
    /// [`sched`](Self::sched), …); it overwrites all of them.
    pub fn config(mut self, config: RunConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the drms profiler configuration (full, external-only,
    /// static-only, renumbering limits) of [`run`](Self::run).
    pub fn drms(mut self, drms: DrmsConfig) -> Self {
        self.drms = drms;
        self
    }

    /// Attaches a kernel fault-injection plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.config.faults = Some(plan);
        self
    }

    /// Sets the scheduling policy.
    pub fn sched(mut self, policy: SchedPolicy) -> Self {
        self.config.policy = policy;
        self
    }

    /// Sets the guest `Rand` seed (per-thread streams derive from it).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Caps the run's wall-clock time. Exceeding it aborts with
    /// [`RunError`](drms_vm::RunError)`::DeadlineExceeded` — a partial
    /// outcome like any other guest abort, with a deterministic message
    /// (the configured budget, not the elapsed time).
    pub fn deadline(mut self, budget: std::time::Duration) -> Self {
        self.config.deadline = Some(budget);
        self
    }

    /// Caps the run's executed instructions (the VM watchdog budget).
    pub fn max_instructions(mut self, limit: u64) -> Self {
        self.config.max_instructions = limit;
        self
    }

    /// Records the schedule of this run; it lands in
    /// [`ProfileOutcome::schedule`].
    pub fn record_sched(mut self) -> Self {
        self.config.record_sched = true;
        self
    }

    /// Replays a previously recorded schedule. Strict mode
    /// (`relaxed = false`) aborts on divergence.
    pub fn replay(mut self, schedule: Arc<Schedule>, relaxed: bool) -> Self {
        self.config.policy = SchedPolicy::Replay { relaxed };
        self.config.replay = Some(schedule);
        self
    }

    /// Sets the dispatch mode of the interpreter core: classic
    /// tree-walking ([`DecodeMode::Off`]) or pre-decoded blocks with
    /// superinstruction fusion ([`DecodeMode::Fused`], the default).
    ///
    /// Both modes produce identical profiles, statistics and traces; they
    /// differ only in speed.
    pub fn decode(mut self, mode: DecodeMode) -> Self {
        self.config.decode = mode;
        self
    }

    /// Sets the capacity of the tool event batch: memory events are
    /// buffered and delivered to tools in groups of up to `n` via
    /// [`Tool::observe_batch`]. `1` degenerates to per-event delivery.
    /// Must be non-zero.
    pub fn event_batch(mut self, n: usize) -> Self {
        self.config.event_batch = n;
        self
    }

    /// Dispatches from a shared pre-decoded image instead of decoding
    /// the program again, so many sessions over one program (a sweep
    /// grid, repeated attempts) pay the decode cost once.
    ///
    /// The image must come from [`DecodedProgram::decode`] over the same
    /// program this session profiles; the run keeps the image's fusion
    /// mode. Ignored when [`decode`](Self::decode) is [`DecodeMode::Off`].
    ///
    /// # Panics
    /// [`run`](Self::run) panics if `decoded` does not structurally
    /// match the session's program.
    pub fn decoded(mut self, decoded: Arc<DecodedProgram>) -> Self {
        self.decoded = Some(decoded);
        self
    }

    /// Lends `buf` to the VM as its event-batch storage for this run;
    /// its (possibly grown) buffers are handed back through the same
    /// reference when the run finishes. A loop of sessions sharing one
    /// buffer this way performs a single batch allocation in total.
    pub fn batch_buffer(mut self, buf: &'t mut EventBatch) -> Self {
        self.batch_buf = Some(buf);
        self
    }

    /// Attaches an extra tool; it observes the identical event stream as
    /// the session's primary tool, in insertion order after it.
    pub fn tool(mut self, tool: &'t mut dyn Tool) -> Self {
        self.extra.push(tool);
        self
    }

    /// Spills the instrumentation event stream to per-thread binary
    /// shard files under `dir` (see [`drms_trace::shard`]) while the
    /// run executes. The shards replay offline into any tool —
    /// `repro replay-shards DIR` — reproducing this run's report
    /// byte-for-byte; writer-side `trace.shard.*` counters land in
    /// [`ProfileOutcome::metrics`].
    pub fn trace_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.trace_dir = Some(dir.into());
        self
    }

    /// Buffered bytes per shard before the writer flushes to the host
    /// (default [`DEFAULT_SPILL_THRESHOLD`]). Smaller thresholds bound
    /// memory tighter; larger ones batch host writes harder. Only
    /// meaningful together with [`trace_dir`](Self::trace_dir).
    pub fn spill_threshold(mut self, bytes: usize) -> Self {
        self.spill_threshold = bytes;
        self
    }

    /// Routes shard-trace writes through `io` instead of the real host
    /// — the chaos seam: a seeded fault plan makes ENOSPC / EIO land
    /// mid-shard exactly like on a failing disk.
    pub fn trace_io(mut self, io: HostIo) -> Self {
        self.trace_io = io;
        self
    }

    /// Runs the session under the drms profiler configured by
    /// [`drms`](Self::drms).
    ///
    /// A guest abort (watchdog, deadlock, injected fault escalation)
    /// does not discard the profile: data gathered before the failure is
    /// flushed into [`ProfileOutcome::report`] and the abort reason lands
    /// in [`ProfileOutcome::error`].
    ///
    /// # Errors
    /// Only setup failures — program validation, a replay policy without
    /// a schedule, an unusable [`trace_dir`](Self::trace_dir) — and a
    /// shard-trace finalize failure (`Error::Io`: the host faulted while
    /// persisting the spill; the shards keep a salvageable prefix) are
    /// returned as `Err`.
    pub fn run(self) -> Result<ProfileOutcome, Error> {
        let mut profiler = DrmsProfiler::new(self.drms);
        let mut outcome = self.run_with(&mut profiler)?;
        outcome.report = profiler.into_report();
        Ok(outcome)
    }

    /// Runs the session with `tool` in the drms profiler's place: any
    /// analysis (rms, nulgrind, context-sensitive drms, …) gets the
    /// session's spill, extra tools, metrics and schedule recording.
    ///
    /// The outcome's `report` is empty — the tool keeps its own results
    /// — and the [`drms`](Self::drms) setter does not apply. Everything
    /// else is filled exactly as by [`run`](Self::run), abort and
    /// errors included. With no extra tools and no spill the run stays
    /// monomorphized over `T`; otherwise `tool` leads the [`MultiTool`]
    /// fan-out, ahead of the shard writer and the extra tools.
    ///
    /// # Errors
    /// As for [`run`](Self::run).
    pub fn run_with<T: Tool>(mut self, tool: &mut T) -> Result<ProfileOutcome, Error> {
        let mut shards = self
            .trace_dir
            .take()
            .map(|dir| ShardWriter::create(&self.trace_io, &dir, self.spill_threshold))
            .transpose()?;
        let mut vm = match self.decoded.take() {
            Some(d) => Vm::with_decoded(self.program, self.config, d)?,
            None => Vm::new(self.program, self.config)?,
        };
        if let Some(buf) = self.batch_buf.as_mut() {
            vm.install_batch(std::mem::take(*buf));
        }
        let (error, shadow_bytes, mut metrics) = if self.extra.is_empty() && shards.is_none() {
            // Single-tool runs stay monomorphized over `T`, so per-event
            // dispatch is direct calls, not a vtable.
            let error = vm.run(tool).err();
            let mut metrics = vm.metrics();
            tool.observe_metrics(&mut metrics);
            (error, tool.shadow_bytes(), metrics)
        } else {
            let mut fan = MultiTool::new();
            fan.push(tool);
            if let Some(writer) = shards.as_mut() {
                fan.push(writer);
            }
            for t in self.extra {
                fan.push(t);
            }
            let error = vm.run(&mut fan).err();
            let mut metrics = vm.metrics();
            fan.observe_metrics(&mut metrics);
            (error, fan.shadow_bytes(), metrics)
        };
        if let Some(writer) = shards {
            writer.finish()?.observe_metrics(&mut metrics);
        }
        if error.is_some() {
            metrics.inc("run.aborts");
        }
        if let Some(buf) = self.batch_buf {
            *buf = vm.take_batch();
        }
        let stats = vm.stats().clone();
        let schedule = vm.take_recorded_schedule();
        Ok(ProfileOutcome {
            report: ProfileReport::new(),
            stats,
            error,
            schedule,
            shadow_bytes,
            metrics,
        })
    }
}

impl std::fmt::Debug for ProfileSession<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfileSession")
            .field("config", &self.config)
            .field("extra_tools", &self.extra.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms_vm::{NullTool, RunError};

    #[test]
    fn extra_tools_observe_the_same_run() {
        let w = drms_workloads::patterns::stream_reader(8);
        let solo = ProfileSession::workload(&w).run().unwrap();
        let mut null = NullTool;
        let fan = ProfileSession::workload(&w).tool(&mut null).run().unwrap();
        assert_eq!(
            solo.report, fan.report,
            "fan-out must not perturb the profile"
        );
        assert_eq!(solo.metrics.audit(), Ok(()));
        assert_eq!(fan.metrics.audit(), Ok(()));
        assert_eq!(
            solo.metrics.counter("vm.events.total"),
            fan.metrics.counter("vm.events.total"),
            "both paths deliver the identical event stream"
        );
        assert_eq!(
            fan.metrics.gauge("tool.nulgrind.shadow_bytes"),
            0,
            "extra tools report under their own names"
        );
        assert!(fan.metrics.gauge("tool.aprof-drms.shadow_bytes") > 0);
    }

    #[test]
    fn run_with_is_run_without_the_report() {
        let w = drms_workloads::patterns::producer_consumer(12);
        let session = || {
            ProfileSession::workload(&w)
                .sched(SchedPolicy::Chaos { seed: 3 })
                .record_sched()
        };
        let run = session().run().unwrap();
        let mut drms = DrmsProfiler::new(DrmsConfig::full());
        let with = session().run_with(&mut drms).unwrap();
        assert!(with.report.is_empty(), "the tool keeps its own results");
        assert_eq!(drms.into_report(), run.report);
        assert_eq!(with.stats, run.stats);
        assert_eq!(with.schedule, run.schedule);
        assert!(with.schedule.is_some());
        assert_eq!(with.metrics.to_json(), run.metrics.to_json());

        let null = session().run_with(&mut NullTool).unwrap();
        assert!(null.report.is_empty());
        assert_eq!(null.metrics.audit(), Ok(()));
        assert_eq!(null.metrics.gauge("tool.nulgrind.shadow_bytes"), 0);
        assert!(null
            .metrics
            .to_json()
            .contains("tool.nulgrind.shadow_bytes"));
        assert_eq!(null.metrics.counter("vm.events.total"), null.stats.events);
    }

    #[test]
    fn outcome_metrics_are_deterministic_and_audited() {
        let w = drms_workloads::patterns::producer_consumer(12);
        let run = || {
            ProfileSession::workload(&w)
                .sched(SchedPolicy::Random { seed: 9 })
                .run()
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.metrics.audit(), Ok(()), "{:?}", a.metrics.audit());
        assert_eq!(a.metrics.to_json(), b.metrics.to_json());
        assert_eq!(a.metrics.counter("vm.events.total"), a.stats.events);
        assert_eq!(
            a.metrics.gauge("shadow.bytes"),
            a.shadow_bytes,
            "profiler shadow gauge matches the outcome field"
        );
        assert!(a.metrics.counter("shadow.cache.lookups") > 0);
        assert_eq!(a.metrics.counter("run.aborts"), 0);
    }

    #[test]
    fn aborts_yield_partial_outcomes_not_errors() {
        let w = drms_workloads::minidb::minidb_scaling(&[64, 128, 256]);
        let outcome = ProfileSession::workload(&w)
            .config(RunConfig {
                max_instructions: 20_000,
                ..w.run_config()
            })
            .run()
            .unwrap();
        assert!(outcome.is_partial());
        assert!(matches!(
            outcome.error,
            Some(RunError::InstructionLimit { .. })
        ));
        assert!(!outcome.report.is_empty());
    }

    #[test]
    fn zero_deadline_yields_a_partial_outcome() {
        let w = drms_workloads::patterns::stream_reader(8);
        let outcome = ProfileSession::workload(&w)
            .deadline(std::time::Duration::ZERO)
            .run()
            .unwrap();
        assert!(matches!(
            outcome.error,
            Some(RunError::DeadlineExceeded { millis: 0 })
        ));
    }

    #[test]
    fn max_instructions_setter_arms_the_watchdog() {
        let w = drms_workloads::patterns::stream_reader(64);
        let outcome = ProfileSession::workload(&w)
            .max_instructions(50)
            .run()
            .unwrap();
        assert!(matches!(
            outcome.error,
            Some(RunError::InstructionLimit { limit: 50 })
        ));
    }

    #[test]
    fn record_then_replay_reproduces_the_profile() {
        let w = drms_workloads::patterns::producer_consumer(12);
        let recorded = ProfileSession::workload(&w)
            .sched(SchedPolicy::Chaos { seed: 7 })
            .record_sched()
            .run()
            .unwrap();
        let schedule = Arc::new(recorded.schedule.clone().expect("recorded"));
        let replayed = ProfileSession::workload(&w)
            .replay(schedule, false)
            .run()
            .unwrap();
        assert!(replayed.error.is_none(), "{:?}", replayed.error);
        assert_eq!(replayed.report, recorded.report);
    }

    #[test]
    fn dispatch_and_batching_knobs_do_not_perturb_the_profile() {
        let w = drms_workloads::minidb::minidb_scaling(&[32, 64, 128]);
        let reference = ProfileSession::workload(&w)
            .decode(DecodeMode::Off)
            .event_batch(1)
            .run()
            .unwrap();
        for mode in [DecodeMode::Off, DecodeMode::Fused] {
            for batch in [1, 64] {
                let got = ProfileSession::workload(&w)
                    .decode(mode)
                    .event_batch(batch)
                    .run()
                    .unwrap();
                assert_eq!(got.report, reference.report, "{mode:?} batch={batch}");
                assert_eq!(got.stats, reference.stats, "{mode:?} batch={batch}");
            }
        }
    }

    #[test]
    fn shared_decoded_image_and_batch_buffer_are_reused() {
        let w = drms_workloads::patterns::stream_reader(32);
        let image = DecodedProgram::decode(&w.program, DecodeMode::Fused);
        assert!(image.stats().fused() > 0, "fusion finds pairs here");
        let fresh = ProfileSession::workload(&w).run().unwrap();
        let mut buf = EventBatch::default();
        for _ in 0..3 {
            let shared = ProfileSession::workload(&w)
                .decoded(Arc::clone(&image))
                .batch_buffer(&mut buf)
                .run()
                .unwrap();
            assert_eq!(shared.report, fresh.report);
            assert_eq!(shared.stats, fresh.stats);
        }
        assert!(buf.capacity() > 0, "grown storage is handed back");
        assert_eq!(buf.allocations(), 1, "one allocation across three runs");
    }

    #[test]
    fn trace_dir_spill_and_replay_reproduce_the_run() {
        let w = drms_workloads::patterns::producer_consumer(12);
        let dir = std::env::temp_dir().join(format!("drms-session-shards-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let live = ProfileSession::workload(&w).run().unwrap();
        let spilled = ProfileSession::workload(&w)
            .trace_dir(&dir)
            .spill_threshold(128)
            .run()
            .unwrap();
        assert_eq!(spilled.report, live.report, "spilling must not perturb");
        assert!(spilled.metrics.counter("trace.shard.frames") > 0);
        assert_eq!(spilled.metrics.audit(), Ok(()));

        let set = drms_trace::shard::ShardSet::load(&dir, 2).unwrap();
        assert_eq!(set.dropped, 0);
        let mut prof = DrmsProfiler::new(DrmsConfig::full());
        drms_vm::replay_shards_into(&set, &mut prof);
        assert_eq!(
            prof.into_report(),
            live.report,
            "offline replay reproduces the in-memory run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulted_shard_spill_is_a_typed_io_error() {
        let w = drms_workloads::patterns::stream_reader(8);
        let dir = std::env::temp_dir().join(format!("drms-session-chaos-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let err = ProfileSession::workload(&w)
            .trace_dir(&dir)
            .spill_threshold(64)
            .trace_io(HostIo::from_spec("write:enospc:once=2").unwrap())
            .run()
            .unwrap_err();
        assert!(matches!(err, Error::Io(_)), "{err:?}");
        // Whatever reached the disk is still a salvageable prefix.
        let set = drms_trace::shard::ShardSet::load(&dir, 1).unwrap();
        assert_eq!(set.salvaged + set.dropped, set.total);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_without_schedule_is_a_setup_error() {
        let w = drms_workloads::patterns::stream_reader(4);
        let err = ProfileSession::workload(&w)
            .sched(SchedPolicy::Replay { relaxed: false })
            .run()
            .unwrap_err();
        assert!(matches!(err, Error::Run(RunError::ScheduleMissing)));
    }
}
