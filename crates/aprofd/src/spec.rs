//! Job specifications: the canonical, line-oriented description of one
//! supervised sweep a tenant submits to the daemon.
//!
//! A spec is `key value` lines (`#` comments and blank lines ignored).
//! [`JobSpec::canonical_text`] renders a spec with fixed key order and
//! normalized values, so the same job always serializes to the same
//! bytes — that canonical form (plus the daemon's submission counter)
//! is what [`job_id`] hashes, making job IDs, journal paths, and
//! artifacts reproducible across restarts with no wall clock or RNG
//! anywhere in the derivation.
//!
//! Validation happens at admission, mirroring the CLI rule in `repro`
//! and `aprof`: a zero deadline (always expired) or zero attempt
//! budget (never runs) is rejected with a clear error instead of being
//! silently clamped downstream.

use drms::sched::fnv1a;
use drms_bench::supervisor::SupervisorOptions;
use drms_bench::sweep::{SweepSpec, FAMILIES};
use std::fmt::Write as _;
use std::time::Duration;

/// Largest admissible grid (`sizes × seeds`); a bounded service must
/// refuse a pathological submission instead of queueing months of work.
pub const MAX_GRID: usize = 4096;

/// One sweep job as submitted by a tenant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Submitting tenant (fairness and quota key).
    pub tenant: String,
    /// Workload family (must be one of [`FAMILIES`]).
    pub family: String,
    /// Workload sizes of the grid.
    pub sizes: Vec<i64>,
    /// Guest seeds of the grid.
    pub seeds: Vec<u64>,
    /// Worker threads the sweep itself may use.
    pub jobs: usize,
    /// Scheduling priority, `0..=9` (higher dispatches first; default
    /// 0). When every daemon worker is busy, a queued job with a
    /// strictly higher priority preempts the lowest-priority running
    /// job at its next grid-cell boundary.
    pub priority: u8,
    /// Supervisor attempts per cell before quarantine (≥ 1).
    pub max_attempts: u32,
    /// Per-attempt wall-clock budget in milliseconds (≥ 1 when set).
    pub deadline_ms: Option<u64>,
    /// Per-attempt instruction budget (the VM watchdog; ≥ 1 when set).
    pub max_instructions: Option<u64>,
    /// Whether the job spills its event stream into per-thread binary
    /// trace shards (`on` / `-`). The daemon maps this to a
    /// `job-<id>.shards` directory under its state dir, retained as a
    /// job artifact and garbage-collected with the rest.
    pub trace_dir: bool,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            tenant: "default".to_string(),
            family: String::new(),
            sizes: Vec::new(),
            seeds: vec![1],
            jobs: 1,
            priority: 0,
            max_attempts: 3,
            deadline_ms: None,
            max_instructions: None,
            trace_dir: false,
        }
    }
}

/// A malformed or inadmissible job spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError {
    /// The offending spec field.
    pub field: &'static str,
    /// What is wrong with it.
    pub message: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job spec field `{}`: {}", self.field, self.message)
    }
}

impl std::error::Error for SpecError {}

fn err(field: &'static str, message: impl Into<String>) -> SpecError {
    SpecError {
        field,
        message: message.into(),
    }
}

fn parse_list<T: std::str::FromStr>(field: &'static str, v: &str) -> Result<Vec<T>, SpecError> {
    v.split(',')
        .map(|s| s.trim().parse::<T>())
        .collect::<Result<Vec<T>, _>>()
        .map_err(|_| err(field, format!("bad list `{v}` (comma-separated integers)")))
}

fn parse_num<T: std::str::FromStr>(field: &'static str, v: &str) -> Result<T, SpecError> {
    v.parse::<T>()
        .map_err(|_| err(field, format!("bad number `{v}`")))
}

fn parse_opt_num<T: std::str::FromStr>(
    field: &'static str,
    v: &str,
) -> Result<Option<T>, SpecError> {
    if v == "-" {
        return Ok(None);
    }
    parse_num(field, v).map(Some)
}

impl JobSpec {
    /// Parses a spec from `key value` lines and validates it.
    ///
    /// # Errors
    /// [`SpecError`] names the offending field: unknown keys, malformed
    /// values, and every admission rule of [`validate`](Self::validate).
    pub fn parse(text: &str) -> Result<JobSpec, SpecError> {
        let mut spec = JobSpec::default();
        let mut have_family = false;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| err("spec", format!("line without value: `{line}`")))?;
            let value = value.trim();
            match key {
                "tenant" => spec.tenant = value.to_string(),
                "family" => {
                    spec.family = value.to_string();
                    have_family = true;
                }
                "sizes" => spec.sizes = parse_list("sizes", value)?,
                "seeds" => spec.seeds = parse_list("seeds", value)?,
                "jobs" => spec.jobs = parse_num("jobs", value)?,
                "priority" => spec.priority = parse_num("priority", value)?,
                "max_attempts" => spec.max_attempts = parse_num("max_attempts", value)?,
                "deadline_ms" => spec.deadline_ms = parse_opt_num("deadline_ms", value)?,
                "max_instructions" => {
                    spec.max_instructions = parse_opt_num("max_instructions", value)?
                }
                "trace_dir" => {
                    spec.trace_dir = match value {
                        "on" => true,
                        "-" | "off" => false,
                        other => {
                            return Err(err(
                                "trace_dir",
                                format!("bad value `{other}` (on | off | -)"),
                            ))
                        }
                    }
                }
                other => return Err(err("spec", format!("unknown key `{other}`"))),
            }
        }
        if !have_family {
            return Err(err("family", "missing (required)"));
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Applies the admission rules. Called by [`parse`](Self::parse);
    /// public so programmatically-built specs get the same screening.
    pub fn validate(&self) -> Result<(), SpecError> {
        if !FAMILIES.contains(&self.family.as_str()) {
            return Err(err(
                "family",
                format!(
                    "unknown `{}` (one of: {})",
                    self.family,
                    FAMILIES.join(", ")
                ),
            ));
        }
        if self.tenant.is_empty() || self.tenant.len() > 64 {
            return Err(err("tenant", "must be 1..=64 characters"));
        }
        if !self
            .tenant
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(err("tenant", "only [A-Za-z0-9_-] allowed"));
        }
        if self.sizes.is_empty() {
            return Err(err("sizes", "missing (required)"));
        }
        if self.sizes.iter().any(|&s| s < 1) {
            return Err(err("sizes", "every size must be >= 1"));
        }
        if self.seeds.is_empty() {
            return Err(err("seeds", "must name at least one seed"));
        }
        if self.sizes.len().saturating_mul(self.seeds.len()) > MAX_GRID {
            return Err(err(
                "sizes",
                format!("grid larger than {MAX_GRID} cells is not admissible"),
            ));
        }
        if self.jobs == 0 {
            return Err(err("jobs", "must be >= 1"));
        }
        if self.priority > 9 {
            return Err(err("priority", "must be in 0..=9"));
        }
        if self.max_attempts == 0 {
            return Err(err(
                "max_attempts",
                "must be >= 1 (0 would never run a cell)",
            ));
        }
        if self.deadline_ms == Some(0) {
            return Err(err(
                "deadline_ms",
                "must be >= 1 (0 expires before the run starts)",
            ));
        }
        if self.max_instructions == Some(0) {
            return Err(err(
                "max_instructions",
                "must be >= 1 (0 aborts before the first instruction)",
            ));
        }
        Ok(())
    }

    /// The canonical rendering: fixed key order, normalized values.
    /// Identical specs — however the submission was formatted — render
    /// to identical bytes; [`job_id`] hashes exactly this.
    pub fn canonical_text(&self) -> String {
        fn opt(v: &Option<u64>) -> String {
            v.map_or("-".to_string(), |n| n.to_string())
        }
        let mut out = String::new();
        let _ = writeln!(out, "tenant {}", self.tenant);
        let _ = writeln!(out, "family {}", self.family);
        let _ = writeln!(out, "sizes {}", csv(&self.sizes));
        let _ = writeln!(out, "seeds {}", csv(&self.seeds));
        let _ = writeln!(out, "jobs {}", self.jobs);
        let _ = writeln!(out, "priority {}", self.priority);
        let _ = writeln!(out, "max_attempts {}", self.max_attempts);
        let _ = writeln!(out, "deadline_ms {}", opt(&self.deadline_ms));
        let _ = writeln!(out, "max_instructions {}", opt(&self.max_instructions));
        let _ = writeln!(out, "trace_dir {}", if self.trace_dir { "on" } else { "-" });
        out
    }

    /// The sweep grid this job runs.
    pub fn sweep_spec(&self) -> SweepSpec {
        SweepSpec::new(&self.family, &self.sizes, self.jobs).seeds(&self.seeds)
    }

    /// The supervisor failure policy this job inherits: attempts,
    /// per-attempt deadline and instruction budget from the spec,
    /// default deterministic backoff.
    pub fn supervisor_options(&self) -> SupervisorOptions {
        SupervisorOptions {
            max_attempts: self.max_attempts,
            deadline: self.deadline_ms.map(Duration::from_millis),
            max_instructions: self.max_instructions,
            ..SupervisorOptions::default()
        }
    }

    /// Number of cells in the grid.
    pub fn grid_len(&self) -> usize {
        self.sizes.len() * self.seeds.len()
    }
}

fn csv<T: std::fmt::Display>(v: &[T]) -> String {
    v.iter().map(T::to_string).collect::<Vec<_>>().join(",")
}

/// Derives the job ID: FNV-1a over the canonical spec text plus the
/// daemon's submission counter. Never wall clock, never randomness —
/// restarting the daemon and replaying the same submissions yields the
/// same IDs, which is what lets the CI kill-and-resume gate `cmp`
/// artifacts across daemon generations by path.
pub fn job_id(spec: &JobSpec, submitted: u64) -> String {
    let keyed = format!("{}submitted {submitted}\n", spec.canonical_text());
    format!("{:016x}", fnv1a(keyed.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> JobSpec {
        JobSpec {
            family: "stream".to_string(),
            sizes: vec![4, 8],
            ..JobSpec::default()
        }
    }

    #[test]
    fn parse_roundtrips_through_canonical_text() {
        let spec = JobSpec::parse("family stream\nsizes 8, 4\nseeds 2,1\njobs 2\n").unwrap();
        let reparsed = JobSpec::parse(&spec.canonical_text()).unwrap();
        assert_eq!(spec, reparsed);
        assert_eq!(spec.canonical_text(), reparsed.canonical_text());
    }

    #[test]
    fn ids_are_deterministic_and_counter_keyed() {
        let spec = minimal();
        assert_eq!(job_id(&spec, 1), job_id(&spec, 1));
        assert_ne!(
            job_id(&spec, 1),
            job_id(&spec, 2),
            "counter is part of the key"
        );
        let other = JobSpec {
            seeds: vec![2],
            ..minimal()
        };
        assert_ne!(
            job_id(&spec, 1),
            job_id(&other, 1),
            "spec is part of the key"
        );
        assert_eq!(job_id(&spec, 1).len(), 16, "fixed-width hex");
    }

    #[test]
    fn zero_budgets_are_rejected_at_parse_time() {
        let e = JobSpec::parse("family stream\nsizes 4\ndeadline_ms 0\n").unwrap_err();
        assert_eq!(e.field, "deadline_ms");
        assert!(e.to_string().contains("expires before"), "{e}");
        let e = JobSpec::parse("family stream\nsizes 4\nmax_attempts 0\n").unwrap_err();
        assert_eq!(e.field, "max_attempts");
        let e = JobSpec::parse("family stream\nsizes 4\nmax_instructions 0\n").unwrap_err();
        assert_eq!(e.field, "max_instructions");
        let e = JobSpec::parse("family stream\nsizes 4\njobs 0\n").unwrap_err();
        assert_eq!(e.field, "jobs");
    }

    #[test]
    fn admission_rules_screen_bad_specs() {
        assert!(JobSpec::parse("family nope\nsizes 4\n").is_err());
        assert!(JobSpec::parse("sizes 4\n").is_err(), "family required");
        assert!(JobSpec::parse("family stream\n").is_err(), "sizes required");
        assert!(JobSpec::parse("family stream\nsizes 0\n").is_err());
        assert!(JobSpec::parse("family stream\nsizes 4\ntenant a b\n").is_err());
        assert!(JobSpec::parse("family stream\nsizes 4\nbogus 1\n").is_err());
        let huge = (1..=100)
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let text = format!("family stream\nsizes {huge}\nseeds {huge}\n");
        let e = JobSpec::parse(&text).unwrap_err();
        assert!(e.message.contains("grid larger"), "{e}");
    }

    #[test]
    fn retired_dispatch_keys_are_unknown_keys() {
        // Dispatch mode and batch size never change a job's result, so
        // a spec cannot carry them: they would only fork its ID.
        for line in [
            "decode fused",
            "decode -",
            "event_batch 256",
            "event_batch -",
        ] {
            let e = JobSpec::parse(&format!("family stream\nsizes 4\n{line}\n")).unwrap_err();
            assert_eq!(e.field, "spec", "{line}");
            assert!(e.message.contains("unknown key"), "{line}: {e}");
        }
        let text = JobSpec::parse("family stream\nsizes 4\n")
            .unwrap()
            .canonical_text();
        assert!(
            !text.contains("decode") && !text.contains("event_batch"),
            "{text}"
        );
    }

    #[test]
    fn trace_dir_parses_roundtrips_and_keys_the_id() {
        let spec = JobSpec::parse("family stream\nsizes 4\ntrace_dir on\n").unwrap();
        assert!(spec.trace_dir);
        let reparsed = JobSpec::parse(&spec.canonical_text()).unwrap();
        assert_eq!(spec, reparsed);
        let off = JobSpec::parse("family stream\nsizes 4\ntrace_dir off\n").unwrap();
        assert!(!off.trace_dir);
        let dash = JobSpec::parse("family stream\nsizes 4\ntrace_dir -\n").unwrap();
        assert!(!dash.trace_dir);
        // Spilling shards keys the job ID: the artifact set differs.
        assert_ne!(job_id(&spec, 1), job_id(&off, 1));
        let e = JobSpec::parse("family stream\nsizes 4\ntrace_dir maybe\n").unwrap_err();
        assert_eq!(e.field, "trace_dir");
    }

    #[test]
    fn priority_parses_validates_and_keys_the_id() {
        let spec = JobSpec::parse("family stream\nsizes 4\npriority 7\n").unwrap();
        assert_eq!(spec.priority, 7);
        let reparsed = JobSpec::parse(&spec.canonical_text()).unwrap();
        assert_eq!(spec, reparsed);
        let plain = JobSpec::parse("family stream\nsizes 4\n").unwrap();
        assert_eq!(plain.priority, 0, "default is the lowest band");
        // Priority keys the job ID like every other spec field; only the
        // journal-binding payload (grid + failure policy) excludes it.
        assert_ne!(job_id(&spec, 1), job_id(&plain, 1));
        let e = JobSpec::parse("family stream\nsizes 4\npriority 10\n").unwrap_err();
        assert_eq!(e.field, "priority");
        assert!(e.message.contains("0..=9"), "{e}");
        let e = JobSpec::parse("family stream\nsizes 4\npriority -1\n").unwrap_err();
        assert_eq!(e.field, "priority");
    }

    #[test]
    fn supervisor_options_inherit_the_budgets() {
        let spec = JobSpec {
            max_attempts: 5,
            deadline_ms: Some(1500),
            max_instructions: Some(9_000),
            ..minimal()
        };
        let opts = spec.supervisor_options();
        assert_eq!(opts.max_attempts, 5);
        assert_eq!(opts.deadline, Some(Duration::from_millis(1500)));
        assert_eq!(opts.max_instructions, Some(9_000));
        let defaults = SupervisorOptions::default();
        assert_eq!(opts.backoff_base_ms, defaults.backoff_base_ms);
    }
}
