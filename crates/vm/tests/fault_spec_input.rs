//! Seeded random-input suite for the two fault-spec parsers,
//! `FaultPlan::parse` (kernel faults, `--faults`) and
//! `HostFaultPlan::parse` (storage faults, `--host-faults`), which share
//! one grammar. Random specs mix both plans' selectors, ops and kinds,
//! all four trigger forms, both separators, `seed=` elements, numbers at
//! 0, `u32::MAX`, 2³² and past `u64::MAX`, and random characters.
//! Neither parser may panic, every refusal must name an element of its
//! input, and every accepted plan must round-trip through its canonical
//! text, which must be a fixed point.

use drms_trace::faultspec::FaultSpecError;
use drms_trace::hostio::HostFaultPlan;
use drms_vm::{FaultPlan, SmallRng};
use std::fmt::{Debug, Display};

const CASES: u64 = 3000;

const NUMBERS: &[&str] = &[
    "0",
    "1",
    "2",
    "3",
    "7",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "+2",
    "x",
    "",
];

const WORDS: &[&str] = &[
    "in",
    "out",
    "shortread",
    "shortwrite",
    "short_read",
    "eintr",
    "eagain",
    "eio",
    "create",
    "write",
    "fsync",
    "rename",
    "syncdir",
    "any",
    "enospc",
    "torn",
    "bogus",
];

fn pick<'a>(rng: &mut SmallRng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len() as u64) as usize]
}

fn number(rng: &mut SmallRng) -> &'static str {
    // Small valid numbers most of the time, so that many specs parse.
    if rng.gen_ratio(1, 2) {
        pick(rng, &NUMBERS[1..5])
    } else {
        pick(rng, NUMBERS)
    }
}

fn trigger(rng: &mut SmallRng) -> String {
    match rng.gen_range(0..5u64) {
        0 => format!("once={}", number(rng)),
        1 => format!("every={}", number(rng)),
        2 => format!("every={}+{}", number(rng), number(rng)),
        3 => format!("after={}", number(rng)),
        _ => format!("p={}/{}", number(rng), number(rng)),
    }
}

/// One grammar token: a selector, op, kind or trigger.
fn token(rng: &mut SmallRng) -> String {
    match rng.gen_range(0..4u64) {
        0 => format!("fd{}", number(rng)),
        1 => trigger(rng),
        _ => pick(rng, WORDS).to_owned(),
    }
}

/// One rule element: shaped like a kernel rule, like a host rule, or a
/// random run of tokens.
fn rule(rng: &mut SmallRng) -> String {
    let mut tokens = Vec::new();
    match rng.gen_range(0..3u64) {
        0 => {
            if rng.gen_ratio(1, 2) {
                tokens.push(format!("fd{}", number(rng)));
            }
            if rng.gen_ratio(1, 2) {
                tokens.push(pick(rng, &["in", "out"]).to_owned());
            }
            let kinds = &["shortread", "shortwrite", "eintr", "eagain", "eio"];
            tokens.push(pick(rng, kinds).to_owned());
        }
        1 => {
            let ops = &["create", "write", "fsync", "rename", "syncdir", "any"];
            tokens.push(pick(rng, ops).to_owned());
            tokens.push(pick(rng, &["enospc", "eio", "torn"]).to_owned());
        }
        _ => tokens.extend((0..rng.gen_range(1..4u64)).map(|_| token(rng))),
    }
    if rng.gen_ratio(2, 3) {
        tokens.push(trigger(rng));
    }
    tokens.join(":")
}

/// A short string over an alphabet that covers the grammar's
/// punctuation, whitespace, control and non-ASCII characters.
fn junk(rng: &mut SmallRng) -> String {
    const ALPHABET: &[char] = &[
        'a', 'e', 'i', 'o', 'p', 'f', 'd', '0', '1', '9', '=', ':', ',', ';', '/', '+', '-', ' ',
        '\t', 'é', '∞', '\u{0}',
    ];
    let len = rng.gen_range(0..16u64);
    (0..len)
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len() as u64) as usize])
        .collect()
}

fn random_spec(rng: &mut SmallRng) -> String {
    if rng.gen_ratio(1, 8) {
        return junk(rng);
    }
    let mut spec = String::new();
    for i in 0..rng.gen_range(0..5u64) {
        if i > 0 {
            spec.push_str(pick(rng, &[",", ";", ", ", ",,"]));
        }
        if rng.gen_ratio(1, 6) {
            spec.push_str(&format!("seed={}", number(rng)));
            continue;
        }
        spec.push_str(&rule(rng));
    }
    spec
}

/// Whether `element` is one element of `spec`, or the whole spec (a
/// spec without rules).
fn names_an_element(spec: &str, element: &str) -> bool {
    element == spec.trim() || spec.split([',', ';']).any(|e| e.trim() == element)
}

/// Parses `spec` with `parse` and checks the suite's laws; returns
/// whether the spec was accepted.
fn check<P>(spec: &str, parse: fn(&str) -> Result<P, FaultSpecError>, case: u64) -> bool
where
    P: PartialEq + Debug + Display,
{
    let parsed = std::panic::catch_unwind(|| parse(spec))
        .unwrap_or_else(|_| panic!("case {case}: parse panicked on {spec:?}"));
    match parsed {
        Ok(plan) => {
            let text = plan.to_string();
            let again = parse(&text)
                .unwrap_or_else(|e| panic!("case {case}: `{text}` (from {spec:?}) fails: {e}"));
            assert_eq!(again, plan, "case {case}: {spec:?} round trip");
            assert_eq!(again.to_string(), text, "case {case}: fixed point");
            true
        }
        Err(e) => {
            assert!(
                names_an_element(spec, &e.element),
                "case {case}: error for {spec:?} names no element: {e}"
            );
            assert!(!e.message.is_empty(), "case {case}: {e}");
            false
        }
    }
}

#[test]
fn random_fault_specs_parse_to_a_named_error_or_a_canonical_plan() {
    let (mut kernel_ok, mut host_ok) = (0, 0);
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xFA_5EC ^ case);
        let spec = random_spec(&mut rng);
        kernel_ok += u32::from(check(&spec, FaultPlan::parse, case));
        host_ok += u32::from(check(&spec, HostFaultPlan::parse, case));
    }
    // Both sides of each parser are exercised.
    assert!(kernel_ok > 100, "kernel plans accepted: {kernel_ok}");
    assert!(host_ok > 100, "host plans accepted: {host_ok}");
}

#[test]
fn random_bytes_never_panic_either_parser() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xB17E5 ^ case);
        let bytes: Vec<u8> = (0..rng.gen_range(0..24u64))
            .map(|_| rng.next_u64() as u8)
            .collect();
        let spec = String::from_utf8_lossy(&bytes);
        check(&spec, FaultPlan::parse, case);
        check(&spec, HostFaultPlan::parse, case);
    }
}

#[test]
fn numbers_at_the_edges_of_their_widths() {
    // `once=`, `every=` and `after=` take u64; `p=` operands take u32.
    for spec in [
        "eio:once=18446744073709551615",
        "eio:every=18446744073709551615+1",
    ] {
        assert!(FaultPlan::parse(spec).is_ok(), "{spec}");
    }
    for spec in [
        "eio:once=18446744073709551616",
        "eio:p=4294967296/4294967296",
        "eio:p=1/4294967296",
    ] {
        let e = FaultPlan::parse(spec).unwrap_err();
        assert_eq!(e.element, spec);
        let host = format!("write:{spec}");
        let e = HostFaultPlan::parse(&host).unwrap_err();
        assert_eq!(e.element, host);
    }
    let host = HostFaultPlan::parse("write:eio:after=18446744073709551615").unwrap();
    assert_eq!(
        host.to_string(),
        "seed=1,write:eio:after=18446744073709551615"
    );
}
