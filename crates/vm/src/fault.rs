//! Deterministic kernel fault injection.
//!
//! A [`FaultPlan`] is a seeded, reproducible schedule of I/O faults —
//! short reads/writes, transient errors (EINTR/EAGAIN) and hard device
//! failures (EIO) — evaluated by the kernel model on every syscall
//! transfer. Because the VM serializes guest threads, the sequence of
//! transfer attempts per run configuration is fixed, so a plan plus a
//! seed reproduces the exact same fault sequence on every run: fault
//! experiments are as replayable as fault-free ones.
//!
//! # Spec grammar
//!
//! A plan is written in the fault-spec grammar it shares with the host
//! fault plan ([`drms_trace::faultspec`]): comma- or semicolon-separated
//! elements, an optional `seed=N`, and rules of the form
//!
//! ```text
//! rule    := selector* kind [ ":" trigger ]
//! selector:= ("fd" INT | "in" | "out") ":"
//! kind    := "shortread" | "shortwrite" | "eintr" | "eagain" | "eio"
//! trigger := "every=" INT [ "+" INT ] | "p=" INT "/" INT | "once=" INT
//! ```
//!
//! Examples: `fd0:shortread:every=3`, `in:eintr:p=1/8`,
//! `seed=42,fd1:eio:once=100`. A rule with no trigger means `every=1`:
//! it fires on every matching operation. Transfer operations are
//! numbered from 1 per file descriptor. The kernel counts no bytes, so
//! the host plan's `after=` trigger is rejected here.

use crate::kernel::Direction;
use crate::rng::SmallRng;
use drms_trace::faultspec::{parse_spec, write_spec};
pub use drms_trace::faultspec::{FaultSpecError, FaultTrigger};
use std::fmt;

/// What kind of fault to inject on a matching operation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Deliver only part of the requested length (≥ 1 cell).
    ShortRead,
    /// Accept only part of the provided data (≥ 1 cell).
    ShortWrite,
    /// Fail the call with EINTR; retrying succeeds.
    Eintr,
    /// Fail the call with EAGAIN; retrying succeeds.
    Eagain,
    /// Fail the device permanently with EIO; all later operations on
    /// the same descriptor fail too.
    Eio,
}

impl FaultKind {
    /// The spec-grammar token for this kind.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::ShortRead => "shortread",
            FaultKind::ShortWrite => "shortwrite",
            FaultKind::Eintr => "eintr",
            FaultKind::Eagain => "eagain",
            FaultKind::Eio => "eio",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One fault-injection rule: which operations it matches and what it
/// injects when its trigger fires.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FaultRule {
    /// Restrict to one file descriptor (`None` = any).
    pub fd: Option<i64>,
    /// Restrict to one transfer direction (`None` = any).
    pub class: Option<Direction>,
    /// The fault to inject.
    pub kind: FaultKind,
    /// When to inject it.
    pub trigger: FaultTrigger,
}

impl FaultRule {
    fn matches(&self, fd: i64, dir: Direction) -> bool {
        self.fd.is_none_or(|want| want == fd) && self.class.is_none_or(|want| want == dir)
    }
}

impl fmt::Display for FaultRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(fd) = self.fd {
            write!(f, "fd{fd}:")?;
        }
        match self.class {
            Some(Direction::Input) => f.write_str("in:")?,
            Some(Direction::Output) => f.write_str("out:")?,
            None => {}
        }
        write!(f, "{}:{}", self.kind, self.trigger)
    }
}

/// A seeded, reproducible fault-injection schedule.
///
/// Rules are evaluated in order; the first matching rule whose trigger
/// fires decides the fault for an operation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for probabilistic triggers.
    pub seed: u64,
    /// Rules in priority order.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Parses a spec string (see the module docs for the grammar).
    ///
    /// # Errors
    /// Returns [`FaultSpecError`] naming the malformed element.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultSpecError> {
        let (seed, rules) = parse_spec(spec, |element, earlier| {
            let rule = parse_rule(element)?;
            check_rule_consistency(&rule, earlier)?;
            Ok(rule)
        })?;
        Ok(FaultPlan {
            seed: seed.unwrap_or_default(),
            rules,
        })
    }
}

/// Whether the trigger fires on every matching operation.
fn always_fires(t: FaultTrigger) -> bool {
    match t {
        FaultTrigger::Every { period: 1, .. } => true,
        FaultTrigger::Prob { num, den } => den > 0 && num >= den,
        _ => false,
    }
}

/// Whether every operation matched by `b`'s selectors is also matched
/// by `a`'s (i.e. `a` is equally or more general).
fn covers(a: &FaultRule, b: &FaultRule) -> bool {
    (a.fd.is_none() || a.fd == b.fd) && (a.class.is_none() || a.class == b.class)
}

/// Rejects a rule that duplicates or is shadowed by an earlier one:
/// since the first matching rule that fires wins, a later rule shadowed
/// by an equally-general, always-firing earlier rule is dead
/// configuration — almost certainly a typo in the spec — and an exact
/// duplicate can only ever lose the race to its first copy.
fn check_rule_consistency(rule: &FaultRule, earlier: &[FaultRule]) -> Result<(), String> {
    for prev in earlier {
        if prev == rule {
            return Err(format!(
                "duplicate rule `{rule}`: an identical earlier rule already decides \
                 these operations"
            ));
        }
        if covers(prev, rule) && always_fires(prev.trigger) {
            return Err(format!(
                "rule `{rule}` can never fire: earlier rule `{prev}` matches the \
                 same operations and always fires first"
            ));
        }
    }
    Ok(())
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_spec(f, self.seed, &self.rules)
    }
}

fn parse_rule(element: &str) -> Result<FaultRule, String> {
    let mut fd = None;
    let mut class = None;
    let mut kind = None;
    let mut trigger = None;
    for token in element.split(':').map(str::trim) {
        let selector = token.starts_with("fd") || token == "in" || token == "out";
        if selector && kind.is_some() {
            return Err("selector after kind".to_owned());
        }
        if let Some(n) = token.strip_prefix("fd") {
            fd = Some(n.parse().map_err(|_| format!("bad fd number `{token}`"))?);
        } else if selector {
            class = Some(if token == "in" {
                Direction::Input
            } else {
                Direction::Output
            });
        } else if let Some(k) = parse_kind(token) {
            if kind.is_some() {
                return Err("more than one fault kind".to_owned());
            }
            kind = Some(k);
        } else if kind.is_some() && trigger.is_none() {
            trigger = Some(match FaultTrigger::parse(token)? {
                FaultTrigger::After { .. } => {
                    return Err(format!(
                        "`{token}` is a host-fault trigger; kernel rules take every=, p= or once="
                    ))
                }
                t => t,
            });
        } else {
            return Err(format!(
                "unknown token `{token}` (expected fd<N>, in, out, a fault kind, or a trigger)"
            ));
        }
    }
    Ok(FaultRule {
        fd,
        class,
        kind: kind.ok_or("missing fault kind")?,
        trigger: trigger.unwrap_or(FaultTrigger::ALWAYS),
    })
}

fn parse_kind(token: &str) -> Option<FaultKind> {
    match token {
        "shortread" | "short_read" => Some(FaultKind::ShortRead),
        "shortwrite" | "short_write" => Some(FaultKind::ShortWrite),
        "eintr" => Some(FaultKind::Eintr),
        "eagain" => Some(FaultKind::Eagain),
        "eio" => Some(FaultKind::Eio),
        _ => None,
    }
}

/// Runtime evaluation state for a [`FaultPlan`]: the plan plus the
/// seeded generator behind its probabilistic triggers.
#[derive(Clone, Debug)]
pub struct FaultState {
    plan: FaultPlan,
    rng: SmallRng,
}

impl FaultState {
    /// Creates fresh evaluation state for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = SmallRng::seed_from_u64(plan.seed);
        FaultState { plan, rng }
    }

    /// Decides the fault (if any) for the `op`-th transfer (1-based) on
    /// `fd` in direction `dir`. First matching rule that fires wins.
    pub fn decide(&mut self, fd: i64, dir: Direction, op: u64) -> Option<FaultKind> {
        let rng = &mut self.rng;
        for rule in &self.plan.rules {
            if rule.matches(fd, dir) && rule.trigger.fires(op, 0, |n, d| rng.gen_ratio(n, d)) {
                return Some(rule.kind);
            }
        }
        None
    }
}

/// Counts of injected faults and errno deliveries over one run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Input transfers truncated below the requested length.
    pub short_reads: u64,
    /// Output transfers that accepted fewer cells than offered.
    pub short_writes: u64,
    /// EINTR/EAGAIN failures injected.
    pub transient_errors: u64,
    /// EIO failures delivered (first injection and every retry).
    pub device_failures: u64,
    /// Negative-errno returns delivered to guest registers, from any
    /// cause (injected faults, bad descriptors, closed devices).
    pub errno_returns: u64,
}

impl FaultCounters {
    /// Total injected faults (excluding the errno-delivery tally, which
    /// overlaps the error categories).
    pub fn injected(&self) -> u64 {
        self.short_reads + self.short_writes + self.transient_errors + self.device_failures
    }
}

impl fmt::Display for FaultCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "short reads {}, short writes {}, transient {}, device failures {}, errno returns {}",
            self.short_reads,
            self.short_writes,
            self.transient_errors,
            self.device_failures,
            self.errno_returns
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_issue_examples() {
        let plan = FaultPlan::parse("fd0:shortread:every=3").unwrap();
        assert_eq!(
            plan.rules,
            vec![FaultRule {
                fd: Some(0),
                class: None,
                kind: FaultKind::ShortRead,
                trigger: FaultTrigger::Every {
                    period: 3,
                    phase: 0
                },
            }]
        );
        let plan = FaultPlan::parse("in:eintr:p=1/8").unwrap();
        assert_eq!(plan.rules[0].class, Some(Direction::Input));
        assert_eq!(plan.rules[0].trigger, FaultTrigger::Prob { num: 1, den: 8 });
        let plan = FaultPlan::parse("seed=42, fd1:eio:once=100").unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.rules[0].fd, Some(1));
        assert_eq!(plan.rules[0].trigger, FaultTrigger::Once { at: 100 });
    }

    #[test]
    fn display_roundtrips_through_parse() {
        let spec = "seed=7,fd0:in:shortread:every=3+1,out:shortwrite:p=1/4,eio:once=9";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.to_string(), spec);
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }

    #[test]
    fn default_trigger_is_always() {
        let plan = FaultPlan::parse("fd2:eagain").unwrap();
        assert_eq!(
            plan.rules[0].trigger,
            FaultTrigger::Every {
                period: 1,
                phase: 0
            }
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "seed=9",
            "fd0",
            "fdx:eio",
            "shortread:bogus=3",
            "eintr:p=3/2",
            "eintr:p=1/0",
            "shortread:every=0",
            "eio:once=0",
            "shortread:eintr",
            "shortread:fd0",
            "fd0:eio:after=4096",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    /// Pins the canonical form: every journal's spec record binds it, so
    /// a journal written before the grammar was shared must still resume.
    #[test]
    fn display_keeps_its_bytes() {
        let plan = FaultPlan::parse(
            "seed=7,fd0:in:shortread:every=3+1,out:shortwrite:p=1/4,eio:once=9,fd1:eagain",
        )
        .unwrap();
        assert_eq!(
            plan.to_string(),
            "seed=7,fd0:in:shortread:every=3+1,out:shortwrite:p=1/4,eio:once=9,fd1:eagain:every=1"
        );
    }

    /// Regression: `p=` operands were truncated to `u32`, so the first
    /// spec was accepted as `p=1/2` and the second rejected as an
    /// out-of-range probability.
    #[test]
    fn p_operands_past_u32_are_rejected_by_name() {
        let e = FaultPlan::parse("eintr:p=4294967297/4294967298").unwrap_err();
        assert!(e.message.starts_with("bad p= num"), "{e}");
        let e = FaultPlan::parse("eintr:p=1/4294967296").unwrap_err();
        assert!(e.message.starts_with("bad p= den"), "{e}");
    }

    #[test]
    fn duplicate_rules_are_rejected_with_a_precise_message() {
        let e = FaultPlan::parse("fd0:eio:once=2,fd0:eio:once=2").unwrap_err();
        assert!(e.message.contains("duplicate rule"), "{e}");
        assert!(e.message.contains("fd0:eio:once=2"), "{e}");
    }

    #[test]
    fn shadowed_rules_are_rejected_with_a_precise_message() {
        // `eio` (no trigger) fires on every operation of every fd, so
        // the later eintr rule can never win.
        let e = FaultPlan::parse("eio,fd0:eintr:once=3").unwrap_err();
        assert!(e.message.contains("can never fire"), "{e}");
        assert!(e.message.contains("eio"), "{e}");
        // An always-true probability shadows the same way.
        let e = FaultPlan::parse("in:eagain:p=4/4,in:eio:every=5").unwrap_err();
        assert!(e.message.contains("can never fire"), "{e}");
    }

    #[test]
    fn narrower_always_firing_rules_do_not_shadow_broader_ones() {
        // fd0:eio always fires but only on fd 0; the eintr rule still
        // applies to every other descriptor.
        let plan = FaultPlan::parse("fd0:eio,eintr:once=3").unwrap();
        assert_eq!(plan.rules.len(), 2);
        let mut s = FaultState::new(plan);
        assert_eq!(s.decide(1, Direction::Input, 3), Some(FaultKind::Eintr));
    }

    #[test]
    fn duplicate_seed_elements_are_rejected() {
        let e = FaultPlan::parse("seed=1,seed=2,eio").unwrap_err();
        assert!(e.message.contains("duplicate seed"), "{e}");
        assert!(e.message.contains("already set to 1"), "{e}");
    }

    /// Seeded-loop property: `parse(plan.to_string()) == plan` for any
    /// plan the grammar accepts, so `--faults` strings round-trip and
    /// are self-documenting.
    #[test]
    fn display_parse_roundtrip_property() {
        let mut rng = SmallRng::seed_from_u64(0xFA017);
        let kinds = [
            FaultKind::ShortRead,
            FaultKind::ShortWrite,
            FaultKind::Eintr,
            FaultKind::Eagain,
            FaultKind::Eio,
        ];
        let mut valid = 0u32;
        for _ in 0..256 {
            let n_rules = 1 + rng.gen_range(0usize..4);
            let rules: Vec<FaultRule> = (0..n_rules)
                .map(|_| FaultRule {
                    fd: rng.gen_ratio(1, 2).then(|| rng.gen_range(0i64..4)),
                    class: match rng.gen_range(0u32..3) {
                        0 => None,
                        1 => Some(Direction::Input),
                        _ => Some(Direction::Output),
                    },
                    kind: kinds[rng.gen_range(0usize..kinds.len())],
                    trigger: match rng.gen_range(0u32..3) {
                        0 => FaultTrigger::Every {
                            period: 1 + rng.gen_range(0u64..5),
                            phase: rng.gen_range(0u64..3),
                        },
                        1 => {
                            let den = 1 + rng.gen_range(0u64..8) as u32;
                            FaultTrigger::Prob {
                                num: rng.gen_range(0u64..=den as u64) as u32,
                                den,
                            }
                        }
                        _ => FaultTrigger::Once {
                            at: 1 + rng.gen_range(0u64..100),
                        },
                    },
                })
                .collect();
            let plan = FaultPlan {
                seed: rng.gen_range(0u64..1_000_000),
                rules,
            };
            match FaultPlan::parse(&plan.to_string()) {
                Ok(parsed) => {
                    assert_eq!(parsed, plan, "roundtrip of `{plan}`");
                    valid += 1;
                }
                Err(e) => {
                    // Randomly generated plans may contain duplicate or
                    // shadowed rules; the parser must say so precisely.
                    assert!(
                        e.message.contains("duplicate") || e.message.contains("can never fire"),
                        "unexpected rejection of `{plan}`: {e}"
                    );
                }
            }
        }
        assert!(valid > 128, "most generated plans are valid ({valid}/256)");
    }

    #[test]
    fn every_trigger_fires_on_schedule() {
        let mut rng = SmallRng::seed_from_u64(0);
        let t = FaultTrigger::Every {
            period: 3,
            phase: 0,
        };
        let fired: Vec<u64> = (1..=9)
            .filter(|&op| t.fires(op, 0, |n, d| rng.gen_ratio(n, d)))
            .collect();
        assert_eq!(fired, vec![3, 6, 9]);
        let t = FaultTrigger::Every {
            period: 3,
            phase: 1,
        };
        let fired: Vec<u64> = (1..=9)
            .filter(|&op| t.fires(op, 0, |n, d| rng.gen_ratio(n, d)))
            .collect();
        assert_eq!(fired, vec![1, 4, 7]);
    }

    #[test]
    fn once_trigger_fires_exactly_once() {
        let mut rng = SmallRng::seed_from_u64(0);
        let t = FaultTrigger::Once { at: 4 };
        let fired: Vec<u64> = (1..=8)
            .filter(|&op| t.fires(op, 0, |n, d| rng.gen_ratio(n, d)))
            .collect();
        assert_eq!(fired, vec![4]);
    }

    #[test]
    fn prob_trigger_is_seed_deterministic() {
        let plan = FaultPlan::parse("seed=5,in:eintr:p=1/3").unwrap();
        let run = |mut s: FaultState| -> Vec<bool> {
            (1..=32)
                .map(|op| s.decide(0, Direction::Input, op).is_some())
                .collect()
        };
        let a = run(FaultState::new(plan.clone()));
        let b = run(FaultState::new(plan.clone()));
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x));
        let other = FaultPlan::parse("seed=6,in:eintr:p=1/3").unwrap();
        assert_ne!(run(FaultState::new(other)), a, "different seed diverges");
    }

    #[test]
    fn first_matching_rule_wins() {
        let plan = FaultPlan::parse("fd0:eintr:once=2,eio").unwrap();
        let mut s = FaultState::new(plan);
        assert_eq!(s.decide(0, Direction::Input, 2), Some(FaultKind::Eintr));
        assert_eq!(s.decide(0, Direction::Input, 3), Some(FaultKind::Eio));
        assert_eq!(s.decide(1, Direction::Output, 1), Some(FaultKind::Eio));
    }

    #[test]
    fn selectors_restrict_matching() {
        let plan = FaultPlan::parse("fd1:out:shortwrite").unwrap();
        let mut s = FaultState::new(plan);
        assert_eq!(
            s.decide(1, Direction::Output, 1),
            Some(FaultKind::ShortWrite)
        );
        assert_eq!(s.decide(1, Direction::Input, 1), None);
        assert_eq!(s.decide(0, Direction::Output, 1), None);
    }
}
