//! Seeded random-input suite for `validate_bench_json`, the hand-rolled
//! JSON reader behind the `BENCH_sweep.json` schema gate. Random bytes,
//! byte flips of the committed artifact and deep nesting must come back
//! as an `Err`, never a panic or a stack overflow; the committed
//! artifact validates, and every prefix of it that stops short of its
//! closing brace is rejected.

use drms::vm::SmallRng;
use drms_bench::sweep::validate_bench_json;

const COMMITTED: &str = include_str!("../../../BENCH_sweep.json");

const CASES: u64 = 2000;

/// Bytes that steer the parser into its structural paths far more often
/// than uniform noise does.
const JSONISH: &[u8] = b"{}[]\":,-+.eE0123456789tfnrul\\ \n\t";

#[test]
fn the_committed_artifact_validates() {
    validate_bench_json(COMMITTED).expect("the committed BENCH_sweep.json validates");
}

#[test]
fn every_prefix_short_of_the_closing_brace_is_rejected() {
    let last = COMMITTED
        .rfind('}')
        .expect("the artifact is one JSON object");
    for end in (0..=last).filter(|&end| COMMITTED.is_char_boundary(end)) {
        assert!(
            validate_bench_json(&COMMITTED[..end]).is_err(),
            "a {end}-byte prefix validated"
        );
    }
}

#[test]
fn random_bytes_never_panic() {
    let mut rng = SmallRng::seed_from_u64(0x150d);
    for case in 0..CASES {
        let len = rng.gen_range(0..256usize);
        let bytes: Vec<u8> = (0..len)
            .map(|_| match case % 2 {
                0 => rng.next_u64() as u8,
                _ => JSONISH[rng.gen_range(0..JSONISH.len())],
            })
            .collect();
        let _ = validate_bench_json(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn byte_flips_of_the_committed_artifact_never_panic() {
    let mut rng = SmallRng::seed_from_u64(0xf11b);
    for _ in 0..CASES {
        let mut bytes = COMMITTED.as_bytes().to_vec();
        for _ in 0..rng.gen_range(1..4usize) {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = match rng.gen_range(0..2u32) {
                0 => bytes[at] ^ (1 << rng.gen_range(0..8u32)),
                _ => JSONISH[rng.gen_range(0..JSONISH.len())],
            };
        }
        let _ = validate_bench_json(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    for open in ["[", "{\"a\": ", "[{\"cells\": "] {
        let err = validate_bench_json(&open.repeat(1 << 20)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{open}: {err}");
    }
}
