//! Input-sensitive profiling algorithms: the core contribution of the
//! CGO'14 paper *Estimating the Empirical Cost Function of Routines with
//! Dynamic Workloads*, reimplemented over the `drms-vm` instrumentation
//! substrate.
//!
//! Three interchangeable profilers consume the same event stream:
//!
//! * [`DrmsProfiler`] — the paper's read/write timestamping algorithm
//!   (Figures 8–9): computes the **dynamic read memory size** (first-reads
//!   plus induced first-reads from other threads and from the kernel) and
//!   the classical rms in one fused pass, with periodic timestamp
//!   renumbering against counter overflow;
//! * [`RmsProfiler`] — the `aprof` baseline (PLDI'12), blind to dynamic
//!   workloads;
//! * [`NaiveProfiler`] — the explicit set-based formulation (Figure 7),
//!   used as a differential-testing oracle.
//!
//! All three produce a [`ProfileReport`]: per (routine, thread), the set
//! of distinct observed input sizes with worst-case cost statistics, plus
//! the first-read provenance counters backing the paper's workload
//! characterization metrics.
//!
//! # Example
//!
//! ```
//! use drms_core::{DrmsProfiler, DrmsConfig};
//! use drms_vm::{ProgramBuilder, run_program, RunConfig};
//!
//! // consumer repeatedly reads a cell the producer rewrites: rms = 1,
//! // drms = number of handoffs (paper Figure 2).
//! let mut pb = ProgramBuilder::new();
//! let cell = pb.global(1);
//! let full = pb.semaphore(0);
//! let empty = pb.semaphore(1);
//! let consumer = pb.function("consumer", 0, |f| {
//!     f.for_range(0, 5, |f, _| {
//!         f.sem_wait(full);
//!         let _ = f.load(cell.raw() as i64, 0);
//!         f.sem_signal(empty);
//!     });
//! });
//! let main = pb.function("main", 0, |f| {
//!     let t = f.spawn(consumer, &[]);
//!     f.for_range(0, 5, |f, i| {
//!         f.sem_wait(empty);
//!         f.store(cell.raw() as i64, 0, i);
//!         f.sem_signal(full);
//!     });
//!     f.join(t);
//! });
//! let program = pb.finish(main).unwrap();
//! let mut prof = DrmsProfiler::new(DrmsConfig::full());
//! run_program(&program, RunConfig::default(), &mut prof).unwrap();
//! let p = prof.into_report().merged_routine(consumer);
//! assert_eq!(p.drms_plot().last().unwrap().0, 5);
//! assert_eq!(p.rms_plot().last().unwrap().0, 1);
//! ```

pub mod context;
pub mod diff;
pub mod drms;
pub mod fnv;
pub mod naive;
pub mod profile;
pub mod report_io;
pub mod rms;
pub mod variance;

pub use context::{CctProfiler, ContextId, ContextTree};
pub use diff::{diff_reports, regressions, RoutineChange, RoutineDelta};
pub use drms::{DrmsConfig, DrmsProfiler};
pub use naive::NaiveProfiler;
pub use profile::{CostStats, InputBreakdown, ProfileReport, RoutineProfile};
pub use rms::RmsProfiler;
pub use variance::{drms_variance, RoutineVariance, VarianceReport};
