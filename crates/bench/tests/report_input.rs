//! Seeded random-input suite for `report_io::from_text`, the reader of
//! saved profile reports (`aprof --diff OLD NEW`, aprofd's report
//! artifacts). Random bytes, byte flips and every prefix of a real
//! report, and random soups of the format's record lines with junk
//! mixed in. Parsing must never panic; every refusal is a
//! `ParseLineError` naming a line that exists in the input; a real
//! report round-trips exactly; and re-rendering any accepted input is a
//! fixed point: its canonical text parses back to the same report and
//! renders to the same bytes.

use drms::core::report_io::{from_text, to_text};
use drms::core::ProfileReport;
use drms::vm::SmallRng;
use drms::ProfileSession;

const CASES: u64 = 2000;

/// Bytes that steer the reader into its record and number paths far
/// more often than uniform noise does.
const REPORTISH: &[u8] =
    b"profile routine= thread= calls breakdown rms drms #0123456789-\n\r\t \xc3\xa9";

/// The drms report of a two-thread run: kernel input, thread input and
/// several routines.
fn real_report() -> ProfileReport {
    let w = drms::workloads::patterns::producer_consumer(8);
    ProfileSession::workload(&w).run().unwrap().report
}

/// Parses `text` and checks the parser's contract; the report, when the
/// text was accepted.
fn check(text: &str, case: u64) -> Option<ProfileReport> {
    let parsed = std::panic::catch_unwind(|| from_text(text))
        .unwrap_or_else(|_| panic!("case {case}: from_text panicked on {text:?}"));
    match parsed {
        Ok(report) => {
            let canonical = to_text(&report);
            let again = from_text(&canonical).unwrap_or_else(|e| {
                panic!("case {case}: canonical text {canonical:?} of {text:?} refused: {e}")
            });
            assert_eq!(again, report, "case {case}: {text:?}");
            assert_eq!(to_text(&again), canonical, "case {case}: {text:?}");
            Some(report)
        }
        Err(e) => {
            let lines = text.lines().count();
            assert!(
                (1..=lines).contains(&e.line),
                "case {case}: line {} of a {lines}-line input {text:?}",
                e.line
            );
            assert!(
                e.to_string().starts_with(&format!("line {}: ", e.line)),
                "case {case}: {e}"
            );
            None
        }
    }
}

fn number(rng: &mut SmallRng) -> String {
    match rng.gen_range(0..10u32) {
        0 => "-1".into(),
        1 => "18446744073709551616".into(),
        2 => "x".into(),
        3 => u64::MAX.to_string(),
        _ => rng.gen_range(0..1000u64).to_string(),
    }
}

fn numbers(rng: &mut SmallRng, usual: usize) -> String {
    let n = if rng.gen_ratio(1, 6) {
        rng.gen_range(0..7usize)
    } else {
        usual
    };
    (0..n).map(|_| number(rng)).collect::<Vec<_>>().join(" ")
}

/// One random line: mostly a record of the format, sometimes a comment,
/// a blank line, a misspelled field or junk.
fn random_line(rng: &mut SmallRng) -> String {
    let line = match rng.gen_range(0..16u32) {
        0 => "# drms profile report v1".to_owned(),
        1 => String::new(),
        2 => format!("profile routine={} thread={}", number(rng), number(rng)),
        3 => format!(
            "profile thread={} routine={} junk=1",
            number(rng),
            number(rng)
        ),
        4 => format!("bogus {}", numbers(rng, 2)),
        5..=7 => format!(
            "profile routine={} thread={}",
            rng.gen_range(0..4u32),
            rng.gen_range(0..3u32)
        ),
        8 => format!("calls {}", numbers(rng, 3)),
        9 => format!("breakdown {}", numbers(rng, 3)),
        10..=12 => format!("rms {}", numbers(rng, 5)),
        _ => format!("drms {}", numbers(rng, 5)),
    };
    match rng.gen_range(0..8u32) {
        0 => format!("  {line}\t"),
        1 => format!("{line}\r"),
        _ => line,
    }
}

#[test]
fn a_real_report_round_trips_and_every_prefix_is_handled() {
    let report = real_report();
    assert!(!report.is_empty());
    let text = to_text(&report);
    assert_eq!(check(&text, 0), Some(report));
    for end in (0..text.len()).filter(|&end| text.is_char_boundary(end)) {
        check(&text[..end], end as u64);
    }
}

#[test]
fn random_record_soups_parse_to_a_fixed_point_or_a_named_line() {
    let mut rng = SmallRng::seed_from_u64(0x7e9);
    let (mut accepted, mut refused) = (0, 0);
    for case in 0..CASES {
        let mut text = String::new();
        // Most soups open with a header so that records land on both
        // sides of the parser's rules.
        if rng.gen_ratio(3, 4) {
            text.push_str("profile routine=1 thread=0\n");
        }
        for _ in 0..rng.gen_range(0..8usize) {
            text.push_str(&random_line(&mut rng));
            text.push('\n');
        }
        if rng.gen_ratio(1, 4) {
            text.pop();
        }
        match check(&text, case) {
            Some(_) => accepted += 1,
            None => refused += 1,
        }
    }
    assert!(
        accepted > CASES / 10 && refused > CASES / 10,
        "the generator must exercise both outcomes: {accepted} accepted, {refused} refused"
    );
}

#[test]
fn random_bytes_and_byte_flips_never_panic() {
    let real = to_text(&real_report()).into_bytes();
    let mut rng = SmallRng::seed_from_u64(0xf1a9);
    for case in 0..CASES {
        let bytes: Vec<u8> = match case % 3 {
            0 => (0..rng.gen_range(0..256usize))
                .map(|_| rng.next_u64() as u8)
                .collect(),
            1 => (0..rng.gen_range(0..256usize))
                .map(|_| REPORTISH[rng.gen_range(0..REPORTISH.len())])
                .collect(),
            _ => {
                let mut bytes = real.clone();
                for _ in 0..rng.gen_range(1..4usize) {
                    let at = rng.gen_range(0..bytes.len());
                    bytes[at] = match rng.gen_range(0..2u32) {
                        0 => bytes[at] ^ (1 << rng.gen_range(0..8u32)),
                        _ => REPORTISH[rng.gen_range(0..REPORTISH.len())],
                    };
                }
                bytes
            }
        };
        check(&String::from_utf8_lossy(&bytes), case);
    }
}
