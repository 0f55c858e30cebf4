//! A deliberately tiny HTTP/1.1 subset over `std::net`.
//!
//! The workspace is dependency-free by design, so the daemon speaks
//! just enough HTTP for line tools and `curl`: plain-text bodies and a
//! `Content-Length` requirement both ways. Connections are persistent
//! by HTTP/1.1 default — a client that sends `Connection: close` (or a
//! server answering under brownout) gets the one-shot behavior back,
//! and the server caps requests per connection at
//! [`MAX_REQUESTS_PER_CONN`] so a single socket cannot hold an
//! io-thread forever. Responses that shed load carry the deterministic
//! back-pressure hint in both the standard `Retry-After` (whole
//! seconds, rounded up) and the millisecond `X-Retry-After-Ms` header
//! the `aprofctl` client honors.

use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Largest accepted request body: job specs are a few hundred bytes,
/// so anything near this bound is abuse, not a job.
pub const MAX_BODY: usize = 64 * 1024;

/// Largest accepted request line (method + target + version).
pub const MAX_REQUEST_LINE: usize = 4 * 1024;

/// Largest accepted single header line.
pub const MAX_HEADER_LINE: usize = 4 * 1024;

/// Most header lines accepted in one request.
pub const MAX_HEADERS: usize = 64;

/// Requests served on one keep-alive connection before the server
/// closes it — bounds how long a single client can monopolize an
/// io-thread, and recycles per-connection buffers.
pub const MAX_REQUESTS_PER_CONN: usize = 100;

/// Why reading a request off a connection failed — typed so the
/// connection handler can answer 400/408/413 (or stay silent) instead
/// of guessing from an [`std::io::ErrorKind`].
#[derive(Debug)]
pub enum RequestError {
    /// The request exceeds a protocol bound (body, request line, header
    /// line, or header count) — answered with 413 and closed before the
    /// oversized data is buffered.
    TooLarge(String),
    /// The bytes are not a well-formed request — answered with 400.
    Malformed(String),
    /// The socket's read deadline expired mid-request (slow-loris or a
    /// wedged client) — answered with 408, best-effort.
    Timeout,
    /// The peer closed (or tore) the connection; nothing to answer.
    Closed,
    /// Any other transport failure; nothing to answer.
    Io(std::io::Error),
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::TooLarge(what) => write!(f, "request too large: {what}"),
            RequestError::Malformed(what) => write!(f, "malformed request: {what}"),
            RequestError::Timeout => write!(f, "read deadline expired"),
            RequestError::Closed => write!(f, "connection closed"),
            RequestError::Io(e) => write!(f, "transport failed: {e}"),
        }
    }
}

impl std::error::Error for RequestError {}

/// Classifies a raw socket error: a blown read deadline (reported as
/// `WouldBlock` or `TimedOut` depending on platform) becomes
/// [`RequestError::Timeout`]; a torn stream becomes
/// [`RequestError::Closed`].
fn classify(e: std::io::Error) -> RequestError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => RequestError::Timeout,
        std::io::ErrorKind::UnexpectedEof
        | std::io::ErrorKind::ConnectionReset
        | std::io::ErrorKind::BrokenPipe => RequestError::Closed,
        _ => RequestError::Io(e),
    }
}

/// One parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Raw query string (empty when absent).
    pub query: String,
    /// Request body (empty when absent).
    pub body: String,
    /// Whether the client asked for the connection to be closed after
    /// this response (`Connection: close`). HTTP/1.1 connections are
    /// persistent by default, so this is `false` unless sent.
    pub close: bool,
}

impl Request {
    /// The integer value of query parameter `key`, if present and valid.
    pub fn query_u64(&self, key: &str) -> Option<u64> {
        self.query.split('&').find_map(|kv| {
            let (k, v) = kv.split_once('=')?;
            (k == key).then(|| v.parse().ok())?
        })
    }
}

/// One response to serialize.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Deterministic back-pressure hint for 429/503 responses.
    pub retry_after_ms: Option<u64>,
    /// Plain-text body.
    pub body: String,
}

impl Response {
    /// A 200 with the given body.
    pub fn ok(body: impl Into<String>) -> Response {
        Response::text(200, body)
    }

    /// An arbitrary-status plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            retry_after_ms: None,
            body: body.into(),
        }
    }

    /// A load-shedding response carrying the retry-after hint.
    pub fn shed(status: u16, retry_after_ms: u64, body: impl Into<String>) -> Response {
        Response {
            status,
            retry_after_ms: Some(retry_after_ms),
            body: body.into(),
        }
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        507 => "Insufficient Storage",
        _ => "Unknown",
    }
}

fn invalid(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

/// Reads one `\n`-terminated line, buffering at most `cap` bytes — a
/// slow-loris client dribbling an endless header line hits the cap
/// instead of growing the buffer without bound. The trailing `\r\n` (or
/// `\n`) is stripped. Returns `None` on clean EOF before any byte.
fn read_line_capped<R: BufRead>(
    reader: &mut R,
    cap: usize,
    what: &str,
) -> Result<Option<String>, RequestError> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let available = match reader.fill_buf() {
            Ok(b) => b,
            Err(e) => return Err(classify(e)),
        };
        if available.is_empty() {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(RequestError::Closed);
        }
        let (chunk, found) = match available.iter().position(|&b| b == b'\n') {
            Some(pos) => (&available[..pos], true),
            None => (available, false),
        };
        if buf.len() + chunk.len() > cap {
            return Err(RequestError::TooLarge(format!(
                "{what} exceeds {cap} bytes"
            )));
        }
        buf.extend_from_slice(chunk);
        let consumed = chunk.len() + usize::from(found);
        reader.consume(consumed);
        if found {
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return String::from_utf8(buf)
                .map(Some)
                .map_err(|_| RequestError::Malformed(format!("{what} is not UTF-8")));
        }
    }
}

/// Reads one request from `reader` (a buffered wrapper of the accepted
/// stream), enforcing the protocol bounds: [`MAX_REQUEST_LINE`],
/// [`MAX_HEADER_LINE`], [`MAX_HEADERS`], [`MAX_BODY`].
///
/// # Errors
/// [`RequestError`] — typed so the connection handler can answer
/// 413 (too large), 400 (malformed), 408 (read deadline blown), or
/// close silently (peer gone).
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Request, RequestError> {
    let line =
        read_line_capped(reader, MAX_REQUEST_LINE, "request line")?.ok_or(RequestError::Closed)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("missing method".into()))?;
    let target = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("missing path".into()))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let mut content_length = 0usize;
    let mut headers = 0usize;
    let mut close = false;
    loop {
        let header = read_line_capped(reader, MAX_HEADER_LINE, "header line")?
            .ok_or(RequestError::Closed)?;
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(RequestError::TooLarge(format!(
                "more than {MAX_HEADERS} headers"
            )));
        }
        if let Some((k, v)) = header.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                content_length = v
                    .trim()
                    .parse()
                    .map_err(|_| RequestError::Malformed("bad content-length".into()))?;
            } else if k.eq_ignore_ascii_case("connection") {
                close = v.split(',').any(|t| t.trim().eq_ignore_ascii_case("close"));
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(RequestError::TooLarge(format!(
            "body of {content_length} bytes exceeds {MAX_BODY}"
        )));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(classify)?;
    let body =
        String::from_utf8(body).map_err(|_| RequestError::Malformed("body is not UTF-8".into()))?;
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        query: query.to_string(),
        body,
        close,
    })
}

/// Serializes `resp` onto `stream` and flushes it. `keep_alive` picks
/// the `Connection` header: the server passes `false` when the client
/// asked to close, the per-connection request cap is reached, the
/// daemon is draining, or the brownout ladder has disabled keep-alive.
///
/// Head and body go out in one `write`: with a second, small `write`
/// the kernel holds it back until the peer ACKs the first, and the
/// peer delays that ACK, stalling every keep-alive reply.
pub fn write_response<W: Write>(
    stream: &mut W,
    resp: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut message = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    if let Some(ms) = resp.retry_after_ms {
        message.push_str(&format!("Retry-After: {}\r\n", ms.div_ceil(1000)));
        message.push_str(&format!("X-Retry-After-Ms: {ms}\r\n"));
    }
    message.push_str("\r\n");
    message.push_str(&resp.body);
    stream.write_all(message.as_bytes())?;
    stream.flush()
}

/// A client-side view of one response.
#[derive(Clone, Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// The `X-Retry-After-Ms` hint, when the server sent one.
    pub retry_after_ms: Option<u64>,
    /// Response body.
    pub body: String,
}

impl Reply {
    /// Whether the server shed the request (retry may help): queue
    /// pressure (429), draining or at the connection cap (503), or the
    /// state disk is full (507).
    pub fn is_shed(&self) -> bool {
        matches!(self.status, 429 | 503 | 507)
    }
}

/// Performs one request against `addr` and reads the full response.
///
/// # Errors
/// Connection, timeout, and framing failures — the retrying client
/// treats all of them as transient.
pub fn roundtrip(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> std::io::Result<Reply> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut writer = stream.try_clone()?;
    write_request(&mut writer, addr, method, path, body, true)?;
    let mut reader = BufReader::new(stream);
    let (reply, _) = read_reply(&mut reader)?;
    Ok(reply)
}

/// Writes one serialized request, head and body in one `write` (see
/// [`write_response`]). `close` adds `Connection: close`; otherwise the
/// HTTP/1.1 default (persistent) applies.
fn write_request<W: Write>(
    writer: &mut W,
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    close: bool,
) -> std::io::Result<()> {
    let connection = if close { "Connection: close\r\n" } else { "" };
    let message = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n{connection}\r\n{body}",
        body.len()
    );
    writer.write_all(message.as_bytes())?;
    writer.flush()
}

/// Reads one response off `reader`. Returns the reply plus whether the
/// server signaled `Connection: close` (the caller must not reuse the
/// connection in that case).
fn read_reply<R: BufRead>(reader: &mut R) -> std::io::Result<(Reply, bool)> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let mut content_length: Option<usize> = None;
    let mut retry_after_ms = None;
    let mut close = false;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(invalid("truncated response headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((k, v)) = header.split_once(':') {
            let v = v.trim();
            if k.eq_ignore_ascii_case("content-length") {
                content_length = v.parse().ok();
            } else if k.eq_ignore_ascii_case("x-retry-after-ms") {
                retry_after_ms = v.parse().ok();
            } else if k.eq_ignore_ascii_case("connection") {
                close = v.split(',').any(|t| t.trim().eq_ignore_ascii_case("close"));
            }
        }
    }
    let body = match content_length {
        Some(n) => {
            let mut buf = vec![0u8; n];
            reader.read_exact(&mut buf)?;
            String::from_utf8(buf).map_err(|_| invalid("response body is not UTF-8"))?
        }
        None => {
            // No framing: the body runs to EOF, so the connection is
            // spent whatever the Connection header said.
            close = true;
            let mut buf = String::new();
            reader.read_to_string(&mut buf)?;
            buf
        }
    };
    Ok((
        Reply {
            status,
            retry_after_ms,
            body,
        },
        close,
    ))
}

/// A persistent keep-alive client connection: one TCP stream reused
/// across sequential requests, reconnecting transparently when the
/// server closes it (request cap, idle deadline, brownout, restart).
///
/// The reconnect-and-retry happens at most once per request and only
/// when a *reused* stream failed — a stale keep-alive connection dies
/// on first use, before the server has processed anything, so the
/// retry cannot double-apply a request. A fresh connection's failure
/// is reported to the caller unchanged.
#[derive(Debug)]
pub struct Conn {
    addr: String,
    timeout: Duration,
    stream: Option<BufReader<TcpStream>>,
}

impl Conn {
    /// A lazily-connected persistent client for `addr`.
    pub fn new(addr: impl Into<String>, timeout: Duration) -> Conn {
        Conn {
            addr: addr.into(),
            timeout,
            stream: None,
        }
    }

    fn connect(&mut self) -> std::io::Result<()> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        self.stream = Some(BufReader::new(stream));
        Ok(())
    }

    fn try_request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
        let addr = self.addr.clone();
        let reader = self.stream.as_mut().expect("connected before try_request");
        write_request(reader.get_mut(), &addr, method, path, body, false)?;
        let (reply, close) = read_reply(reader)?;
        if close {
            self.stream = None;
        }
        Ok(reply)
    }

    /// Performs one request, reusing the open connection when possible.
    ///
    /// # Errors
    /// Connection, timeout, and framing failures, after the one
    /// stale-stream retry described on the type.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
        let reused = self.stream.is_some();
        if !reused {
            self.connect()?;
        }
        match self.try_request(method, path, body) {
            Ok(reply) => Ok(reply),
            Err(first) => {
                self.stream = None;
                if !reused {
                    return Err(first);
                }
                self.connect()?;
                match self.try_request(method, path, body) {
                    Ok(reply) => Ok(reply),
                    Err(e) => {
                        self.stream = None;
                        Err(e)
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_a_post_with_body_and_query() {
        let raw = b"POST /jobs?since=3 HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let req = read_request(&mut Cursor::new(&raw[..])).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.query_u64("since"), Some(3));
        assert_eq!(req.query_u64("missing"), None);
        assert_eq!(req.body, "hello");
        assert!(!req.close, "HTTP/1.1 default is keep-alive");
    }

    #[test]
    fn connection_close_is_parsed_case_insensitively() {
        for header in [
            "Connection: close",
            "connection: Close",
            "Connection: x, close",
        ] {
            let raw = format!("GET / HTTP/1.1\r\n{header}\r\n\r\n");
            let req = read_request(&mut Cursor::new(raw.as_bytes())).unwrap();
            assert!(req.close, "{header}");
        }
        let raw = b"GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n";
        assert!(!read_request(&mut Cursor::new(&raw[..])).unwrap().close);
    }

    #[test]
    fn read_reply_reports_the_connection_verdict() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nok";
        let (reply, close) = read_reply(&mut Cursor::new(&raw[..])).unwrap();
        assert_eq!(
            (reply.status, reply.body.as_str(), close),
            (200, "ok", false)
        );
        let raw = b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\nX-Retry-After-Ms: 250\r\nConnection: close\r\n\r\n";
        let (reply, close) = read_reply(&mut Cursor::new(&raw[..])).unwrap();
        assert_eq!((reply.retry_after_ms, close), (Some(250), true));
        // Unframed bodies spend the connection even without the header.
        let raw = b"HTTP/1.1 200 OK\r\n\r\ntail";
        let (reply, close) = read_reply(&mut Cursor::new(&raw[..])).unwrap();
        assert_eq!((reply.body.as_str(), close), ("tail", true));
    }

    #[test]
    fn oversized_bodies_are_refused_up_front() {
        let raw = format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let err = read_request(&mut Cursor::new(raw.as_bytes())).unwrap_err();
        assert!(matches!(err, RequestError::TooLarge(_)), "{err}");
    }

    #[test]
    fn truncated_framing_is_invalid_not_a_hang() {
        let raw = b"GET /healthz HTTP/1.1\r\nHost: x\r\n";
        assert!(matches!(
            read_request(&mut Cursor::new(&raw[..])),
            Err(RequestError::Closed)
        ));
        assert!(matches!(
            read_request(&mut Cursor::new(&b""[..])),
            Err(RequestError::Closed)
        ));
    }

    #[test]
    fn giant_request_line_is_too_large_without_buffering_it() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE));
        let err = read_request(&mut Cursor::new(raw.as_bytes())).unwrap_err();
        assert!(matches!(err, RequestError::TooLarge(_)), "{err}");
    }

    #[test]
    fn giant_header_line_is_too_large() {
        let raw = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "b".repeat(MAX_HEADER_LINE)
        );
        let err = read_request(&mut Cursor::new(raw.as_bytes())).unwrap_err();
        assert!(matches!(err, RequestError::TooLarge(_)), "{err}");
    }

    #[test]
    fn too_many_headers_are_refused() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            raw.push_str(&format!("X-H{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        let err = read_request(&mut Cursor::new(raw.as_bytes())).unwrap_err();
        assert!(matches!(err, RequestError::TooLarge(_)), "{err}");
    }

    /// Counts the `write` calls a message takes.
    #[derive(Default)]
    struct Writes {
        calls: usize,
        bytes: Vec<u8>,
    }

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_message_is_exactly_one_write() {
        for resp in [
            Response::ok("done\n"),
            Response::shed(429, 1500, "queue full\n"),
            Response::text(404, ""),
        ] {
            let mut w = Writes::default();
            write_response(&mut w, &resp, true).unwrap();
            assert_eq!(w.calls, 1, "response {}", resp.status);
            let (reply, close) = read_reply(&mut Cursor::new(&w.bytes[..])).unwrap();
            assert_eq!(
                (reply.status, reply.body, close),
                (resp.status, resp.body, false)
            );
        }
        for body in ["", "family minidb\nsizes 16\n"] {
            let mut w = Writes::default();
            write_request(&mut w, "127.0.0.1:1", "POST", "/jobs", body, true).unwrap();
            assert_eq!(w.calls, 1, "request with body {body:?}");
            let req = read_request(&mut Cursor::new(&w.bytes[..])).unwrap();
            assert_eq!(
                (req.path.as_str(), req.body.as_str(), req.close),
                ("/jobs", body, true)
            );
        }
    }

    #[test]
    fn shed_covers_disk_full() {
        for status in [429, 503, 507] {
            let r = Reply {
                status,
                retry_after_ms: Some(1),
                body: String::new(),
            };
            assert!(r.is_shed(), "{status}");
        }
        assert!(!Reply {
            status: 500,
            retry_after_ms: None,
            body: String::new()
        }
        .is_shed());
    }
}
