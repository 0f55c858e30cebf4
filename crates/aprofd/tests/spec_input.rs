//! Seeded random-input suite for `JobSpec::parse`, the parser every
//! tenant submission goes through. Random specs mix the ten known keys,
//! the retired `decode`/`event_batch` keys, junk keys and junk values.
//! Parsing must never panic, every refusal must be a `SpecError` naming
//! a known field, and every accepted spec must round-trip through its
//! canonical text.

use drms::vm::SmallRng;
use drms_aprofd::spec::JobSpec;

const CASES: u64 = 2000;

/// Every `SpecError::field` the parser may report.
const FIELDS: &[&str] = &[
    "spec",
    "tenant",
    "family",
    "sizes",
    "seeds",
    "jobs",
    "priority",
    "max_attempts",
    "deadline_ms",
    "max_instructions",
    "trace_dir",
];

const KEYS: &[&str] = &[
    "tenant",
    "family",
    "sizes",
    "seeds",
    "jobs",
    "priority",
    "max_attempts",
    "deadline_ms",
    "max_instructions",
    "trace_dir",
];

const RETIRED_KEYS: &[&str] = &["decode", "event_batch"];

fn pick<'a>(rng: &mut SmallRng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len() as u64) as usize]
}

/// A short string over an alphabet that covers separators, signs,
/// comment markers, control and non-ASCII characters.
fn junk(rng: &mut SmallRng) -> String {
    const ALPHABET: &[char] = &[
        'a', 'z', 'Q', '0', '1', '9', '-', '_', ',', ' ', '#', '\t', '\r', '.', '+', 'é', '∞',
        '\u{0}',
    ];
    let len = rng.gen_range(0..12u64);
    (0..len)
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len() as u64) as usize])
        .collect()
}

/// A value that is often admissible for `key`, sometimes at the edge of
/// its range, sometimes junk.
fn value_for(rng: &mut SmallRng, key: &str) -> String {
    if rng.gen_ratio(1, 5) {
        return junk(rng);
    }
    match key {
        "tenant" if rng.gen_ratio(1, 8) => "t".repeat(65),
        "tenant" => pick(rng, &["alice", "bob_2", "t-3", "a b", "ü"]).into(),
        "family" => pick(rng, &["stream", "minidb", "sort", "imgpipe", "nope"]).into(),
        "sizes" | "seeds" => {
            let n = rng.gen_range(1..5u64);
            let sep = pick(rng, &[",", ", ", ",,"]);
            (0..n)
                .map(|_| rng.gen_range(-2..40i64).to_string())
                .collect::<Vec<_>>()
                .join(sep)
        }
        "trace_dir" => pick(rng, &["on", "off", "-", "yes"]).into(),
        "decode" => pick(rng, &["off", "fused", "blocks", "-"]).into(),
        _ => pick(
            rng,
            &[
                "0",
                "1",
                "2",
                "9",
                "10",
                "-1",
                "-",
                "4294967296",
                "18446744073709551616",
            ],
        )
        .into(),
    }
}

/// One random spec line — a known, retired or junk key with a value,
/// or a comment, a blank line, or a key with no value — and whether it
/// names a retired key.
fn random_line(rng: &mut SmallRng) -> (String, bool) {
    match rng.gen_range(0..20u64) {
        0 => (format!("# {}", junk(rng)), false),
        1 => (String::new(), false),
        2 => (pick(rng, KEYS).to_string(), false),
        3 => {
            let key = pick(rng, RETIRED_KEYS);
            (format!("{key} {}", value_for(rng, key)), true)
        }
        4..=5 => (format!("{} {}", junk(rng), junk(rng)), false),
        _ => {
            let key = pick(rng, KEYS);
            (format!("{key} {}", value_for(rng, key)), false)
        }
    }
}

#[test]
fn random_specs_parse_to_a_typed_error_or_a_canonical_spec() {
    let (mut accepted, mut refused) = (0, 0);
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5EC ^ case);
        // Start most specs from an admissible core so that random lines
        // land on both sides of the admission rules.
        let mut text = String::new();
        if rng.gen_ratio(3, 4) {
            text.push_str("family stream\nsizes 4,8\n");
        }
        let mut retired = false;
        for _ in 0..rng.gen_range(0..6u64) {
            let (line, is_retired) = random_line(&mut rng);
            retired |= is_retired;
            text.push_str(&line);
            text.push('\n');
        }
        let parsed = std::panic::catch_unwind(|| JobSpec::parse(&text))
            .unwrap_or_else(|_| panic!("case {case}: parse panicked on {text:?}"));
        match parsed {
            Ok(spec) => {
                accepted += 1;
                assert!(
                    !retired,
                    "case {case}: a retired key was accepted: {text:?}"
                );
                let canonical = spec.canonical_text();
                let again = JobSpec::parse(&canonical).unwrap_or_else(|e| {
                    panic!("case {case}: canonical text {canonical:?} of {text:?} refused: {e}")
                });
                assert_eq!(again, spec, "case {case}: {text:?}");
                assert_eq!(again.canonical_text(), canonical, "case {case}");
            }
            Err(e) => {
                refused += 1;
                assert!(
                    FIELDS.contains(&e.field),
                    "case {case}: unknown field `{}` for {text:?}",
                    e.field
                );
                assert!(e.to_string().contains(e.field), "case {case}: {e}");
            }
        }
    }
    assert!(
        accepted > CASES / 10 && refused > CASES / 10,
        "the generator must exercise both outcomes: {accepted} accepted, {refused} refused"
    );
}
