//! Seeded random-input suite for `http::read_request`, the parser every
//! byte a client sends goes through. Random bytes, byte flips and every
//! prefix of well-formed requests, and requests at each protocol bound
//! (`MAX_REQUEST_LINE`, `MAX_HEADER_LINE`, `MAX_HEADERS`, `MAX_BODY`)
//! and one past it. Reading must never panic; every refusal of in-memory
//! bytes must be a typed `RequestError` that names what was wrong (too
//! large, malformed, or a torn connection; a reader that cannot block
//! never times out); and a well-formed request must parse back to its
//! method, path, query, body and `close` flag.

use drms::vm::SmallRng;
use drms_aprofd::http::{
    read_request, Request, RequestError, MAX_BODY, MAX_HEADERS, MAX_HEADER_LINE, MAX_REQUEST_LINE,
};
use std::io::Cursor;

const CASES: u64 = 2000;

/// Bytes that steer the reader into its line, header and length paths
/// far more often than uniform noise does.
const HTTPISH: &[u8] =
    b"GET POST/?=&:\r\n Content-Length: 0123456789 Connection: close,\xc3\xa9\xff";

fn pick<'a>(rng: &mut SmallRng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len())]
}

/// A short string over `alphabet`.
fn word(rng: &mut SmallRng, alphabet: &[char], max: usize) -> String {
    let len = rng.gen_range(0..max);
    (0..len)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
        .collect()
}

/// A well-formed request and the fields it must parse back to.
struct Sample {
    bytes: Vec<u8>,
    method: String,
    path: String,
    query: String,
    body: String,
    close: bool,
}

fn random_request(rng: &mut SmallRng) -> Sample {
    const PATH: &[char] = &['a', 'z', '0', '9', '-', '_', '.', '/', '%', 'é'];
    const QUERY: &[char] = &['a', 'k', '1', '=', '&', '-', '/', '%', '?'];
    const BODY: &[char] = &[
        'a', 'z', ' ', '\n', '\r', '\t', ':', '0', '#', 'é', '∞', '\u{0}',
    ];
    let method = pick(rng, &["GET", "POST", "PUT", "DELETE"]).to_owned();
    let path = format!("/{}", word(rng, PATH, 24));
    let query = if rng.gen_ratio(1, 2) {
        word(rng, QUERY, 16)
    } else {
        String::new()
    };
    let body = if rng.gen_ratio(1, 2) {
        word(rng, BODY, 64)
    } else {
        String::new()
    };
    let eol = pick(rng, &["\r\n", "\n"]);
    let target = if query.is_empty() && rng.gen_ratio(1, 2) {
        path.clone()
    } else {
        format!("{path}?{query}")
    };
    let mut text = format!("{method} {target} HTTP/1.1{eol}");
    let mut headers = vec![format!("Host: localhost{eol}")];
    if !body.is_empty() || rng.gen_ratio(1, 2) {
        let name = pick(rng, &["Content-Length", "content-length", "CONTENT-LENGTH"]);
        headers.push(format!("{name}: {}{eol}", body.len()));
    }
    let close = match rng.gen_range(0..4u32) {
        0 => {
            let value = pick(rng, &["close", "Close", "keep-alive, close", "x,CLOSE"]);
            headers.push(format!("Connection: {value}{eol}"));
            true
        }
        1 => {
            headers.push(format!("connection: keep-alive{eol}"));
            false
        }
        _ => false,
    };
    for _ in 0..rng.gen_range(0..4usize) {
        let junk = word(rng, &['a', '-', ' ', ':', '1', 'é'], 20);
        headers.push(format!("X-Junk-{}: {junk}{eol}", headers.len()));
    }
    // Header order is free; shuffle so every header lands last sometimes.
    for i in (1..headers.len()).rev() {
        headers.swap(i, rng.gen_range(0..i + 1));
    }
    for h in headers {
        text.push_str(&h);
    }
    text.push_str(eol);
    text.push_str(&body);
    Sample {
        bytes: text.into_bytes(),
        method,
        path,
        query,
        body,
        close,
    }
}

fn read(bytes: &[u8]) -> Result<Request, RequestError> {
    std::panic::catch_unwind(|| read_request(&mut Cursor::new(bytes)))
        .unwrap_or_else(|_| panic!("read_request panicked on {:?}", bytes.escape_ascii()))
}

/// An in-memory refusal is one of the typed reasons a client can cause,
/// and says what it is.
fn assert_typed(e: &RequestError, case: u64) {
    assert!(
        matches!(
            e,
            RequestError::TooLarge(_) | RequestError::Malformed(_) | RequestError::Closed
        ),
        "case {case}: {e:?}"
    );
    assert!(!e.to_string().is_empty(), "case {case}");
}

#[test]
fn well_formed_requests_parse_back_to_their_fields() {
    let mut rng = SmallRng::seed_from_u64(0x4177);
    for case in 0..CASES {
        let s = random_request(&mut rng);
        let req = read(&s.bytes).unwrap_or_else(|e| {
            panic!(
                "case {case}: {e} for {:?}",
                String::from_utf8_lossy(&s.bytes)
            )
        });
        assert_eq!(
            (req.method, req.path, req.query, req.body, req.close),
            (s.method, s.path, s.query, s.body, s.close),
            "case {case}"
        );
    }
}

#[test]
fn every_strict_prefix_of_a_request_is_a_torn_connection() {
    let mut rng = SmallRng::seed_from_u64(0x9ef1);
    for case in 0..CASES / 20 {
        let s = random_request(&mut rng);
        for end in 0..s.bytes.len() {
            match read(&s.bytes[..end]) {
                Err(RequestError::Closed) => {}
                other => panic!("case {case}: {end}-byte prefix read as {other:?}"),
            }
        }
    }
}

#[test]
fn random_bytes_and_byte_flips_never_panic() {
    let mut rng = SmallRng::seed_from_u64(0xb17e);
    let (mut accepted, mut refused) = (0, 0);
    for case in 0..CASES {
        let bytes: Vec<u8> = match case % 3 {
            0 => (0..rng.gen_range(0..256usize))
                .map(|_| rng.next_u64() as u8)
                .collect(),
            1 => (0..rng.gen_range(0..256usize))
                .map(|_| HTTPISH[rng.gen_range(0..HTTPISH.len())])
                .collect(),
            _ => {
                let mut bytes = random_request(&mut rng).bytes;
                for _ in 0..rng.gen_range(1..4usize) {
                    let at = rng.gen_range(0..bytes.len());
                    bytes[at] = match rng.gen_range(0..2u32) {
                        0 => bytes[at] ^ (1 << rng.gen_range(0..8u32)),
                        _ => HTTPISH[rng.gen_range(0..HTTPISH.len())],
                    };
                }
                bytes
            }
        };
        match read(&bytes) {
            Ok(_) => accepted += 1,
            Err(e) => {
                refused += 1;
                assert_typed(&e, case);
            }
        }
    }
    assert!(
        accepted > CASES / 20 && refused > CASES / 20,
        "the generator must exercise both outcomes: {accepted} accepted, {refused} refused"
    );
}

/// `GET /<pad> HTTP/1.1` padded so that the line, with its `\r`, is
/// `len` bytes.
fn request_line(len: usize) -> String {
    let pad = len - "GET / HTTP/1.1\r".len();
    format!("GET /{} HTTP/1.1\r\n", "a".repeat(pad))
}

/// A header line that is `len` bytes with its `\r`.
fn header_line(len: usize) -> String {
    let pad = len - "X-Pad: \r".len();
    format!("X-Pad: {}\r\n", "b".repeat(pad))
}

fn too_large(bytes: &[u8]) -> bool {
    matches!(read(bytes), Err(RequestError::TooLarge(_)))
}

#[test]
fn each_bound_admits_its_limit_and_refuses_one_more() {
    let at = format!("{}\r\n", request_line(MAX_REQUEST_LINE));
    assert_eq!(
        read(at.as_bytes()).unwrap().path.len(),
        MAX_REQUEST_LINE - 14
    );
    let past = format!("{}\r\n", request_line(MAX_REQUEST_LINE + 1));
    assert!(too_large(past.as_bytes()));

    let head = request_line(32);
    let at = format!("{head}{}\r\n", header_line(MAX_HEADER_LINE));
    assert!(read(at.as_bytes()).is_ok());
    let past = format!("{head}{}\r\n", header_line(MAX_HEADER_LINE + 1));
    assert!(too_large(past.as_bytes()));

    let headers = |n: usize| format!("{head}{}\r\n", header_line(16).repeat(n));
    assert!(read(headers(MAX_HEADERS).as_bytes()).is_ok());
    assert!(too_large(headers(MAX_HEADERS + 1).as_bytes()));

    let body = "é".repeat(MAX_BODY / 2);
    let at = format!("{head}Content-Length: {MAX_BODY}\r\n\r\n{body}");
    assert_eq!(read(at.as_bytes()).unwrap().body, body);
    let past = format!("{head}Content-Length: {}\r\n\r\n{body}x", MAX_BODY + 1);
    assert!(too_large(past.as_bytes()));
}
