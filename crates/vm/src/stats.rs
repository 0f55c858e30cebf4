//! Run configuration and execution statistics.

use crate::fault::{FaultCounters, FaultPlan};
use crate::kernel::Device;
use drms_trace::Schedule;
use std::sync::Arc;

/// How thread cost is accumulated.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum CostKind {
    /// One unit per executed basic block — the paper's default measure,
    /// which "yields the same trends compared to running time measurements,
    /// but is faster and produces neater charts with much lower variance".
    #[default]
    BasicBlocks,
    /// Simulated nanoseconds: per-instruction latencies plus seeded jitter
    /// modelling cache/timer noise. Used to reproduce the noisy
    /// running-time plot of Figure 10.
    SimNanos {
        /// Seed of the jitter generator.
        jitter_seed: u64,
    },
}

/// Dispatch strategy of the interpreter's hot loop.
///
/// Both modes are observably equivalent: same event stream, same
/// [`RunStats`], same metrics, same recorded schedules. They differ only
/// in how fast the VM gets there, which is what the differential
/// property suite (and the CI byte-identity gate on sweep artifacts)
/// asserts.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum DecodeMode {
    /// Interpret the [`Program`](crate::Program) IR directly, one
    /// instruction per dispatch — the reference stepper.
    Off,
    /// Pre-decode every routine into flat
    /// [`DecodedProgram`](crate::DecodedProgram) blocks (operands
    /// resolved, jump targets as block indices, the hottest adjacent
    /// opcode pairs `Bin;Bin`, `Bin;Load`, `Load;Bin` fused into
    /// superinstructions) and run the tight block-dispatch loop over
    /// them. The default.
    #[default]
    Fused,
}

impl DecodeMode {
    /// The mode's CLI spelling (`--decode off|fused`).
    pub fn as_str(self) -> &'static str {
        match self {
            DecodeMode::Off => "off",
            DecodeMode::Fused => "fused",
        }
    }
}

impl std::fmt::Display for DecodeMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for DecodeMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(DecodeMode::Off),
            "fused" => Ok(DecodeMode::Fused),
            other => Err(format!("unknown decode mode `{other}` (off | fused)")),
        }
    }
}

/// Thread-scheduling policy of the serializing scheduler.
///
/// Like Valgrind, the VM runs one guest thread at a time; the policy picks
/// which runnable thread owns the next quantum. Different policies produce
/// different interleavings, backing the paper's scheduler-sensitivity
/// study (§4.2).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Cycle through runnable threads in id order.
    #[default]
    RoundRobin,
    /// Pick a uniformly random runnable thread (seeded, reproducible).
    Random { seed: u64 },
    /// Seeded fuzzing policy: random thread pick, random per-slice
    /// quantum in `[1, quantum]`, and probabilistic preemption right
    /// after sync operations and kernel transfers — the decision points
    /// where interleaving changes drms.
    Chaos { seed: u64 },
    /// Drive the scheduler from the recorded [`Schedule`] in
    /// [`RunConfig::replay`]. Strict mode (`relaxed: false`) verifies
    /// every slice against the recording and fails with
    /// [`RunError::ScheduleDiverged`](crate::RunError::ScheduleDiverged)
    /// on any mismatch; relaxed mode follows a mutated schedule as
    /// closely as the program allows (used by the shrinker).
    Replay { relaxed: bool },
}

/// Configuration of one guest execution.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Scheduling policy.
    pub policy: SchedPolicy,
    /// Scheduling quantum, in basic blocks.
    pub quantum: u32,
    /// Safety cap on total executed instructions.
    ///
    /// Exceeding it aborts the run with
    /// [`RunError::InstructionLimit`](crate::RunError::InstructionLimit).
    pub max_instructions: u64,
    /// Optional wall-clock budget for the whole run, checked once per
    /// scheduler slice. Exceeding it aborts the run with
    /// [`RunError::DeadlineExceeded`](crate::RunError::DeadlineExceeded);
    /// the error reports the *configured* budget, never the elapsed
    /// time, so aborts stay byte-deterministic. `None` (the default)
    /// runs without a deadline.
    pub deadline: Option<std::time::Duration>,
    /// Devices pre-opened as file descriptors `0..n`.
    pub devices: Vec<Device>,
    /// Cost measure reported to tools.
    pub cost: CostKind,
    /// Whether to deliver per-basic-block events to the tool.
    pub trace_blocks: bool,
    /// Seed of the guest `Rand` instruction (per-thread streams are
    /// derived from it).
    pub seed: u64,
    /// Optional kernel fault-injection plan (see
    /// [`FaultPlan::parse`] for the spec grammar). `None` runs
    /// fault-free.
    pub faults: Option<FaultPlan>,
    /// Record every scheduling decision into a [`Schedule`], retrievable
    /// via [`Vm::take_recorded_schedule`](crate::Vm::take_recorded_schedule)
    /// after the run. Works under any policy.
    pub record_sched: bool,
    /// The schedule to follow when the policy is
    /// [`SchedPolicy::Replay`]. Required for that policy
    /// ([`RunError::ScheduleMissing`](crate::RunError::ScheduleMissing)
    /// otherwise); ignored by the others.
    pub replay: Option<Arc<Schedule>>,
    /// Interpreter dispatch strategy (see [`DecodeMode`]). Replay runs
    /// always use the reference interpreter regardless of this setting —
    /// replay is a correctness mode, never a hot path.
    pub decode: DecodeMode,
    /// Capacity of the struct-of-arrays [`EventBatch`](crate::EventBatch)
    /// that the decoded dispatch loop fills with read/write events before
    /// flushing it to the tool at block boundaries (or when full).
    /// `1` delivers every event immediately (per-event mode); `0` is
    /// invalid and treated as `1` by the VM, but rejected at admission
    /// by front ends (`--batch`, `aprofd`). Ignored under
    /// [`DecodeMode::Off`], which always delivers per-event.
    pub event_batch: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            policy: SchedPolicy::RoundRobin,
            quantum: 50,
            max_instructions: 500_000_000,
            deadline: None,
            devices: Vec::new(),
            cost: CostKind::BasicBlocks,
            trace_blocks: false,
            seed: 0xD125_5EED,
            faults: None,
            record_sched: false,
            replay: None,
            decode: DecodeMode::default(),
            event_batch: 512,
        }
    }
}

impl RunConfig {
    /// A config with the given devices and defaults elsewhere.
    pub fn with_devices(devices: Vec<Device>) -> Self {
        RunConfig {
            devices,
            ..Self::default()
        }
    }
}

/// Per-kind tallies of the instrumentation events delivered to the
/// tool. Kept as plain fields (not a map) so the hot loop pays one
/// integer increment per event; [`Vm::metrics`](crate::Vm::metrics)
/// folds them into the observability registry after the run, where
/// `Metrics::audit` cross-checks their sum against
/// [`RunStats::events`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct EventCounters {
    /// `on_thread_start` deliveries.
    pub thread_start: u64,
    /// `on_thread_exit` deliveries.
    pub thread_exit: u64,
    /// `on_thread_switch` deliveries.
    pub thread_switch: u64,
    /// `on_call` deliveries.
    pub call: u64,
    /// `on_return` deliveries.
    pub ret: u64,
    /// `on_read` deliveries.
    pub read: u64,
    /// `on_write` deliveries.
    pub write: u64,
    /// `on_sync` deliveries.
    pub sync: u64,
    /// `on_block` deliveries (only under `trace_blocks`).
    pub block: u64,
    /// `on_kernel_to_user` deliveries.
    pub kernel_to_user: u64,
    /// `on_user_to_kernel` deliveries.
    pub user_to_kernel: u64,
}

impl EventCounters {
    /// Sum over every kind — must equal [`RunStats::events`].
    pub fn total(&self) -> u64 {
        self.thread_start
            + self.thread_exit
            + self.thread_switch
            + self.call
            + self.ret
            + self.read
            + self.write
            + self.sync
            + self.block
            + self.kernel_to_user
            + self.user_to_kernel
    }

    /// `(name, count)` pairs in metric-name order, for registry export.
    pub fn by_kind(&self) -> [(&'static str, u64); 11] {
        [
            ("thread_start", self.thread_start),
            ("thread_exit", self.thread_exit),
            ("thread_switch", self.thread_switch),
            ("call", self.call),
            ("return", self.ret),
            ("read", self.read),
            ("write", self.write),
            ("sync", self.sync),
            ("block", self.block),
            ("kernel_to_user", self.kernel_to_user),
            ("user_to_kernel", self.user_to_kernel),
        ]
    }
}

/// Statistics of a completed guest execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Total executed instructions (terminators included).
    pub instructions: u64,
    /// Total entered basic blocks across all threads.
    pub basic_blocks: u64,
    /// Entered basic blocks per thread, indexed by thread id.
    pub per_thread_blocks: Vec<u64>,
    /// Simulated nanoseconds per thread, indexed by thread id.
    pub per_thread_nanos: Vec<u64>,
    /// Number of thread context switches performed by the scheduler.
    pub thread_switches: u64,
    /// Number of system calls serviced.
    pub syscalls: u64,
    /// Total threads ever created (main included).
    pub threads: u32,
    /// Guest memory pages mapped at exit.
    pub guest_pages: u64,
    /// Host bytes backing guest memory at exit.
    pub guest_bytes: u64,
    /// Instrumentation events delivered to the tool.
    pub events: u64,
    /// The same events, tallied per callback kind.
    pub events_by_kind: EventCounters,
    /// Injected-fault and errno-delivery counters (all zero on
    /// fault-free runs).
    pub faults: FaultCounters,
}

impl RunStats {
    /// Cost of thread `t` under the given cost kind.
    pub fn thread_cost(&self, t: usize, kind: CostKind) -> u64 {
        match kind {
            CostKind::BasicBlocks => self.per_thread_blocks.get(t).copied().unwrap_or(0),
            CostKind::SimNanos { .. } => self.per_thread_nanos.get(t).copied().unwrap_or(0),
        }
    }

    /// Sum of all threads' basic-block counts (equals `basic_blocks`).
    pub fn total_blocks(&self) -> u64 {
        self.per_thread_blocks.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = RunConfig::default();
        assert!(c.quantum > 0);
        assert!(c.max_instructions > 1_000_000);
        assert_eq!(c.policy, SchedPolicy::RoundRobin);
        assert_eq!(c.cost, CostKind::BasicBlocks);
        assert!(!c.trace_blocks);
    }

    #[test]
    fn with_devices_sets_devices() {
        let c = RunConfig::with_devices(vec![Device::Sink]);
        assert_eq!(c.devices.len(), 1);
    }

    #[test]
    fn event_counters_total_matches_by_kind_sum() {
        let c = EventCounters {
            thread_start: 1,
            thread_exit: 2,
            thread_switch: 3,
            call: 4,
            ret: 5,
            read: 6,
            write: 7,
            sync: 8,
            block: 9,
            kernel_to_user: 10,
            user_to_kernel: 11,
        };
        let by_kind_sum: u64 = c.by_kind().iter().map(|(_, v)| v).sum();
        assert_eq!(c.total(), by_kind_sum);
        assert_eq!(c.total(), 66);
        assert_eq!(c.by_kind().len(), 11, "one entry per Tool callback");
    }

    #[test]
    fn thread_cost_selection() {
        let s = RunStats {
            per_thread_blocks: vec![10, 20],
            per_thread_nanos: vec![100, 200],
            basic_blocks: 30,
            ..Default::default()
        };
        assert_eq!(s.thread_cost(1, CostKind::BasicBlocks), 20);
        assert_eq!(s.thread_cost(1, CostKind::SimNanos { jitter_seed: 0 }), 200);
        assert_eq!(s.thread_cost(9, CostKind::BasicBlocks), 0);
        assert_eq!(s.total_blocks(), 30);
    }
}
