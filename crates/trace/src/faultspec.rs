//! The fault-spec grammar shared by the kernel fault plan
//! (`drms_vm::fault::FaultPlan`) and the host fault plan
//! ([`HostFaultPlan`](crate::hostio::HostFaultPlan)).
//!
//! Both plans are written as comma- or semicolon-separated elements:
//!
//! ```text
//! spec    := element ( (","|";") element )*
//! element := "seed=" INT | rule
//! rule    := <the plan's selectors and kind> [ ":" trigger ]
//! trigger := "once=" INT                 (the Nth matching op, 1-based)
//!          | "every=" INT [ "+" INT ]    (period, optional phase)
//!          | "after=" INT                (once ≥ INT bytes were written)
//!          | "p=" INT "/" INT            (probability num/den, u32 operands)
//! ```
//!
//! A rule without a trigger means `every=1`: it fires on every matching
//! operation. `every=N` fires on ops `N, 2N, 3N, …` and `every=N+P`
//! shifts that schedule by `P`. Only the host plan counts bytes, so the
//! kernel plan rejects `after=`. Each plan draws `p=` triggers from its
//! own seeded generator, so a plan plus a seed reproduces the exact
//! same fault sequence on every run.

use std::fmt;
use std::str::FromStr;

/// When a matching fault rule actually fires.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultTrigger {
    /// Fires exactly once, on the `at`-th matching op (1-based).
    Once {
        /// 1-based matching-op index.
        at: u64,
    },
    /// Fires on every `period`-th matching op, shifted by `phase`.
    Every {
        /// Period in matching ops.
        period: u64,
        /// Phase shift of the schedule.
        phase: u64,
    },
    /// Fires on every matching op once at least `bytes` bytes have been
    /// written — the slowly-filling-disk shape (host plan only).
    After {
        /// Total-bytes-written threshold.
        bytes: u64,
    },
    /// Fires with probability `num/den`, drawn from the plan's seeded
    /// generator.
    Prob {
        /// Numerator.
        num: u32,
        /// Denominator.
        den: u32,
    },
}

fn number<T: FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad {what} `{s}`"))
}

impl FaultTrigger {
    /// What a rule without a trigger means: every matching operation.
    pub const ALWAYS: FaultTrigger = FaultTrigger::Every {
        period: 1,
        phase: 0,
    };

    /// Parses one trigger token (see the module grammar).
    ///
    /// # Errors
    /// A description of what is wrong with the token.
    pub fn parse(token: &str) -> Result<FaultTrigger, String> {
        if let Some(v) = token.strip_prefix("once=") {
            let at = number(v, "once= index")?;
            if at == 0 {
                return Err("once= is 1-based; 0 never fires".to_owned());
            }
            return Ok(FaultTrigger::Once { at });
        }
        if let Some(v) = token.strip_prefix("every=") {
            let (period, phase) = match v.split_once('+') {
                Some((p, ph)) => (number(p, "every= period")?, number(ph, "every= phase")?),
                None => (number(v, "every= period")?, 0),
            };
            if period == 0 {
                return Err("every=0 never fires".to_owned());
            }
            return Ok(FaultTrigger::Every { period, phase });
        }
        if let Some(v) = token.strip_prefix("after=") {
            let bytes = number(v, "after= value")?;
            return Ok(FaultTrigger::After { bytes });
        }
        if let Some(v) = token.strip_prefix("p=") {
            let (num, den) = v.split_once('/').ok_or("p= needs num/den")?;
            let num = number(num, "p= num")?;
            let den = number(den, "p= den")?;
            if den == 0 || num > den {
                return Err("p= needs 0 <= num <= den, den > 0".to_owned());
            }
            return Ok(FaultTrigger::Prob { num, den });
        }
        Err(format!("unknown trigger `{token}`"))
    }

    /// Whether the trigger fires for the `op`-th matching operation
    /// (1-based), after `bytes_written` bytes. A `Prob` trigger takes one
    /// `draw(num, den)` from its plan's seeded generator.
    pub fn fires(self, op: u64, bytes_written: u64, draw: impl FnOnce(u32, u32) -> bool) -> bool {
        match self {
            FaultTrigger::Once { at } => op == at,
            FaultTrigger::Every { period, phase } => period > 0 && op % period == phase % period,
            FaultTrigger::After { bytes } => bytes_written >= bytes,
            FaultTrigger::Prob { num, den } => den > 0 && draw(num, den),
        }
    }
}

impl fmt::Display for FaultTrigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultTrigger::Once { at } => write!(f, "once={at}"),
            FaultTrigger::Every { period, phase: 0 } => write!(f, "every={period}"),
            FaultTrigger::Every { period, phase } => write!(f, "every={period}+{phase}"),
            FaultTrigger::After { bytes } => write!(f, "after={bytes}"),
            FaultTrigger::Prob { num, den } => write!(f, "p={num}/{den}"),
        }
    }
}

/// A malformed fault spec: the offending element and what is wrong
/// with it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSpecError {
    /// The offending spec element (the whole spec when it has no rules).
    pub element: String,
    /// What is wrong with it.
    pub message: String,
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault spec element `{}`: {}", self.element, self.message)
    }
}

impl std::error::Error for FaultSpecError {}

/// Splits `spec` into its elements, reads the optional `seed=` element,
/// and parses every other element with `rule`, which also sees the rules
/// parsed before it. Returns the seed, if one was given, and the rules.
///
/// # Errors
/// [`FaultSpecError`] naming the first bad element: a malformed or
/// repeated seed, a rule `rule` rejects, or a spec without rules.
pub fn parse_spec<R>(
    spec: &str,
    mut rule: impl FnMut(&str, &[R]) -> Result<R, String>,
) -> Result<(Option<u64>, Vec<R>), FaultSpecError> {
    let err = |element: &str, message: String| FaultSpecError {
        element: element.to_owned(),
        message,
    };
    let mut seed = None;
    let mut rules = Vec::new();
    for element in spec
        .split([',', ';'])
        .map(str::trim)
        .filter(|e| !e.is_empty())
    {
        if let Some(value) = element.strip_prefix("seed=") {
            if let Some(prev) = seed {
                let message = format!("duplicate seed element (seed already set to {prev})");
                return Err(err(element, message));
            }
            let value = value
                .parse()
                .map_err(|_| err(element, "seed must be an unsigned integer".to_owned()))?;
            seed = Some(value);
            continue;
        }
        let parsed = rule(element, &rules).map_err(|message| err(element, message))?;
        rules.push(parsed);
    }
    if rules.is_empty() {
        return Err(err(spec.trim(), "plan has no rules".to_owned()));
    }
    Ok((seed, rules))
}

/// Writes a plan in the canonical form both plans print: `seed=N`, then
/// `,<rule>` for each rule.
pub fn write_spec<R: fmt::Display>(
    f: &mut fmt::Formatter<'_>,
    seed: u64,
    rules: &[R],
) -> fmt::Result {
    write!(f, "seed={seed}")?;
    for rule in rules {
        write!(f, ",{rule}")?;
    }
    Ok(())
}
