//! `drms` — input-sensitive profiling with dynamic workloads.
//!
//! A from-scratch Rust reproduction of the CGO 2014 paper *Estimating the
//! Empirical Cost Function of Routines with Dynamic Workloads*: the
//! **dynamic read memory size (drms)** metric, the read/write
//! timestamping profiling algorithm that computes it, and everything the
//! paper's evaluation rests on — an instrumented guest VM standing in for
//! the Valgrind substrate, comparison tools, benchmark workloads, and
//! analysis/fit machinery for empirical cost functions.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`trace`] | event model, per-thread traces, merging, replay |
//! | [`vm`] | guest IR, program builder, interpreter, kernel model, tools |
//! | [`core`] | [`core::DrmsProfiler`], [`core::RmsProfiler`], [`core::NaiveProfiler`], profiles |
//! | [`tools`] | memcheck-, callgrind-, helgrind-like comparison tools |
//! | [`workloads`] | producer/consumer, stream reader, sorting, minidb, imgpipe, PARSEC/OMP-like suites |
//! | [`analysis`] | cost plots, model fitting, paper metrics, renderers |
//!
//! # Quick start
//!
//! ```
//! use drms::prelude::*;
//!
//! // The paper's Figure 3 pattern: a routine that streams data through
//! // a two-cell buffer. rms sees 1 input cell; drms sees all of them.
//! let w = drms::workloads::patterns::stream_reader(16);
//! let outcome = ProfileSession::workload(&w).run().unwrap();
//! assert!(!outcome.is_partial());
//! let p = outcome.report.merged_routine(w.focus.unwrap());
//! assert_eq!(p.rms_plot().last().unwrap().0, 1);
//! assert_eq!(p.drms_plot().last().unwrap().0, 16);
//! ```

pub mod error;
pub mod sched;
pub mod session;

pub use drms_analysis as analysis;
pub use drms_core as core;
pub use drms_tools as tools;
pub use drms_trace as trace;
pub use drms_vm as vm;
pub use drms_workloads as workloads;

pub use error::Error;
pub use session::ProfileSession;

use drms_core::ProfileReport;
use drms_trace::{Metrics, Schedule};
use drms_vm::{RunError, RunStats};

/// Commonly used items in one import.
pub mod prelude {
    pub use crate::error::Error;
    pub use crate::session::ProfileSession;
    pub use crate::ProfileOutcome;
    pub use drms_analysis::{
        best_fit, CostPlot, FitResult, InputMetric, Measurement, Model, OverheadTable,
    };
    pub use drms_core::{
        DrmsConfig, DrmsProfiler, InputBreakdown, NaiveProfiler, ProfileReport, RmsProfiler,
        RoutineProfile,
    };
    pub use drms_trace::{
        Addr, Event, HostFaultPlan, HostIo, Metrics, RoutineId, Schedule, ShardSet, ShardWriter,
        ThreadId, TimedEvent,
    };
    pub use drms_vm::{
        replay_shards_into, run_program, run_program_with, BatchKind, DecodeMode, DecodeStats,
        DecodedProgram, Device, EventBatch, FaultPlan, NullTool, Operand, Program, ProgramBuilder,
        RunConfig, RunStats, SchedPolicy, SyscallNo, Tool, Vm,
    };
    pub use drms_workloads::Workload;
}

/// Outcome of a guest run that is allowed to abort: whatever profile
/// data was collected up to the failure point, plus the failure itself.
///
/// Produced by [`ProfileSession::run`] (and, with an empty report, by
/// [`ProfileSession::run_with`]). When `error` is `Some`, the
/// report covers every activation observed before the abort (in-flight
/// activations are flushed at their last observed cost) and `stats`
/// reflect the work actually executed — including any injected-fault
/// counters.
#[derive(Clone, Debug)]
pub struct ProfileOutcome {
    /// The (possibly partial) profile report; empty after
    /// [`ProfileSession::run_with`], whose tool keeps its own results.
    pub report: ProfileReport,
    /// Finalized statistics of the run, complete or not.
    pub stats: RunStats,
    /// The abort reason, or `None` if the guest ran to completion.
    pub error: Option<RunError>,
    /// The recorded schedule, when the session asked for one
    /// ([`ProfileSession::record_sched`]); `None` otherwise.
    pub schedule: Option<Schedule>,
    /// Host bytes of analysis metadata (shadow memories, profile tables)
    /// held by the profiler and any extra tools, sampled after the run.
    pub shadow_bytes: u64,
    /// The run's observability registry: VM event tallies, scheduler
    /// and kernel counters, shadow-memory cache pressure and per-tool
    /// gauges ([`Tool::observe_metrics`](drms_vm::Tool::observe_metrics)).
    /// Deterministic — same program + seed + schedule gives a
    /// byte-identical [`Metrics::to_json`](drms_trace::Metrics::to_json).
    pub metrics: Metrics,
}

impl ProfileOutcome {
    /// Whether the guest aborted and the report is a partial profile.
    pub fn is_partial(&self) -> bool {
        self.error.is_some()
    }

    /// Splits the outcome into its `(report, stats)` pair, surfacing a
    /// guest abort as the error it is — the legacy all-or-nothing
    /// contract, for callers that have no use for partial profiles.
    ///
    /// # Errors
    /// The abort reason, when the guest did not run to completion.
    pub fn into_parts(self) -> Result<(ProfileReport, RunStats), RunError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok((self.report, self.stats)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drms_analysis::{CostPlot, InputMetric, Model};
    use drms_core::DrmsConfig;
    use drms_vm::RunConfig;

    #[test]
    fn end_to_end_minidb_fit() {
        let sizes = [16, 32, 64, 128, 256, 512];
        let w = drms_workloads::minidb::minidb_scaling(&sizes);
        let report = ProfileSession::workload(&w).run().unwrap().report;
        let p = report.merged_routine(w.focus.unwrap());
        let drms_fit = CostPlot::of(&p, InputMetric::Drms).fit(0.02);
        assert_eq!(
            drms_fit.model,
            Model::Linear,
            "drms reveals mysql_select's linear cost: {drms_fit}"
        );
    }

    #[test]
    fn watchdog_abort_yields_a_partial_profile() {
        let w = drms_workloads::minidb::minidb_scaling(&[64, 128, 256]);
        let config = RunConfig {
            max_instructions: 20_000,
            ..w.run_config()
        };
        let outcome = ProfileSession::new(&w.program)
            .config(config)
            .run()
            .unwrap();
        assert!(outcome.is_partial(), "the budget is too small to finish");
        assert!(matches!(
            outcome.error,
            Some(RunError::InstructionLimit { .. })
        ));
        assert!(
            !outcome.report.is_empty(),
            "activations before the abort are flushed into the report"
        );
        assert!(outcome.stats.instructions >= 20_000);
        // The partial profile serializes and parses like a complete one.
        let text = drms_core::report_io::to_text(&outcome.report);
        let back = drms_core::report_io::from_text(&text).unwrap();
        assert_eq!(back, outcome.report);
    }

    #[test]
    fn profile_with_static_config_equals_rms() {
        let w = drms_workloads::patterns::stream_reader(10);
        let full = ProfileSession::workload(&w).run().unwrap().report;
        let stat = ProfileSession::workload(&w)
            .drms(DrmsConfig::static_only())
            .run()
            .unwrap()
            .report;
        let f = w.focus.unwrap();
        assert_eq!(
            stat.merged_routine(f).drms_plot(),
            full.merged_routine(f).rms_plot()
        );
    }
}
