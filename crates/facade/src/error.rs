//! The workspace-wide error type.
//!
//! CLI and sweep code used to match on crate-specific error enums
//! (`RunError` here, `KernelError` there, a parse error per format).
//! [`Error`] wraps them all behind one type with proper
//! [`source`](std::error::Error::source) chains, so callers can `?` any
//! workspace result and still drill down to the original failure when
//! they need to.

use drms_trace::faultspec::FaultSpecError;
use drms_trace::journal::ParseJournalError;
use drms_trace::lines::ParseLineError;
use drms_trace::obs::MergeError;
use drms_vm::{KernelError, RunError};
use std::fmt;

/// Any failure a `drms` profiling session, sweep, or tool run can hit.
///
/// Each variant wraps the underlying crate-specific error and exposes it
/// via [`std::error::Error::source`], so `anyhow`-style chain printers
/// and plain `{}`/`{:#}` formatting both work.
///
/// # Example
/// ```
/// use std::error::Error as _;
/// let inner = drms::vm::RunError::BadAddress { value: -1 };
/// let err = drms::Error::from(inner);
/// assert!(err.to_string().contains("guest run failed"));
/// assert!(err.source().unwrap().to_string().contains("address"));
/// ```
#[derive(Debug)]
pub enum Error {
    /// The guest aborted (deadlock, bad address, watchdog, …).
    Run(RunError),
    /// A kernel/device operation failed outside a guest context.
    Kernel(KernelError),
    /// A serialized event trace, schedule or profile report failed to
    /// parse.
    Parse(ParseLineError),
    /// A kernel (`--faults`) or host (`--host-faults`) fault spec string
    /// was malformed.
    Faults(FaultSpecError),
    /// A checkpoint journal was unusable (unreadable header, spec
    /// mismatch against the resuming sweep, …). Damaged *records* are
    /// not errors — the lossy salvage drops them and the supervisor
    /// re-runs the lost cells.
    Journal(ParseJournalError),
    /// Two metrics registries disagreed on a histogram's bucket layout
    /// while being merged (e.g. aggregating jobs produced by different
    /// builds in a long-lived service).
    Metrics(MergeError),
    /// Reading or writing an artifact (report, schedule, JSON) failed.
    Io(std::io::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Run(_) => write!(f, "guest run failed"),
            Error::Kernel(_) => write!(f, "kernel operation failed"),
            Error::Parse(_) => write!(f, "malformed trace, schedule or report text"),
            Error::Faults(_) => write!(f, "malformed fault plan"),
            Error::Journal(_) => write!(f, "unusable checkpoint journal"),
            Error::Metrics(_) => write!(f, "metrics merge failed"),
            Error::Io(_) => write!(f, "artifact I/O failed"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Run(e) => Some(e),
            Error::Kernel(e) => Some(e),
            Error::Parse(e) => Some(e),
            Error::Faults(e) => Some(e),
            Error::Journal(e) => Some(e),
            Error::Metrics(e) => Some(e),
            Error::Io(e) => Some(e),
        }
    }
}

impl From<RunError> for Error {
    fn from(e: RunError) -> Self {
        Error::Run(e)
    }
}

impl From<KernelError> for Error {
    fn from(e: KernelError) -> Self {
        Error::Kernel(e)
    }
}

impl From<ParseLineError> for Error {
    fn from(e: ParseLineError) -> Self {
        Error::Parse(e)
    }
}

impl From<FaultSpecError> for Error {
    fn from(e: FaultSpecError) -> Self {
        Error::Faults(e)
    }
}

impl From<ParseJournalError> for Error {
    fn from(e: ParseJournalError) -> Self {
        Error::Journal(e)
    }
}

impl From<MergeError> for Error {
    fn from(e: MergeError) -> Self {
        Error::Metrics(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn source_chains_reach_the_original_error() {
        let err: Error = RunError::BadAddress { value: -7 }.into();
        let src = err.source().expect("wrapped error is the source");
        assert!(src.to_string().contains("-7"), "{src}");
        assert!(src.downcast_ref::<RunError>().is_some());
    }

    #[test]
    fn metrics_merge_errors_chain_to_the_bucket_layouts() {
        let mut a = drms_trace::Metrics::new();
        a.observe("h", &[1, 2], 1);
        let mut b = drms_trace::Metrics::new();
        b.observe("h", &[1, 3], 1);
        let err: Error = a.merge(&b).unwrap_err().into();
        assert_eq!(err.to_string(), "metrics merge failed");
        let src = err.source().expect("merge error is the source");
        assert!(
            src.to_string().contains("mismatched bucket bounds"),
            "{src}"
        );
        assert!(src.downcast_ref::<MergeError>().is_some());
    }

    #[test]
    fn io_errors_convert() {
        let err: Error = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert_eq!(err.to_string(), "artifact I/O failed");
        assert!(matches!(err, Error::Io(_)));
    }

    #[test]
    fn every_variant_displays_distinctly() {
        let msgs = [
            Error::from(RunError::BadAddress { value: 0 }).to_string(),
            Error::from(KernelError::BadFd { fd: 1 }).to_string(),
            Error::from(std::io::Error::other("x")).to_string(),
        ];
        for (i, a) in msgs.iter().enumerate() {
            for b in &msgs[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
