//! The retrying client `aprofctl` is built on.
//!
//! Retry discipline is the supervisor's own
//! [`backoff_ms`](drms_bench::supervisor::backoff_ms): exponential
//! backoff with **seeded FNV-1a jitter** — deterministic for a given
//! (address, request, attempt), so a fleet of clients spreads out
//! without any wall-clock or RNG seed, and a replayed script sleeps the
//! same milliseconds every time. When the server sheds with an
//! `X-Retry-After-Ms` hint, the client honors the hint (plus its own
//! jitter) instead of its blind schedule — back-pressure is
//! server-shaped, thundering-herd-avoidance is client-shaped.

use crate::http::{roundtrip, Reply};
use drms_bench::supervisor;
use std::time::Duration;

/// A retrying client for one daemon address.
#[derive(Clone, Debug)]
pub struct Client {
    /// Daemon address (`host:port`).
    pub addr: String,
    /// Total attempts per request (minimum 1).
    pub attempts: u32,
    /// Base backoff before the second attempt, in milliseconds.
    pub backoff_base_ms: u64,
    /// Upper bound on any single backoff sleep, in milliseconds.
    pub backoff_cap_ms: u64,
    /// Per-request I/O timeout.
    pub timeout: Duration,
}

/// Terminal outcome of a retried request.
#[derive(Clone, Debug)]
pub enum ClientError {
    /// Every attempt was shed; the last reply carries the final hint.
    Shed(Reply),
    /// Every attempt blew the per-request socket deadline — the daemon
    /// is hung or unreachable-but-accepting; distinct from [`Io`] so
    /// `aprofctl` can exit with the timeout code instead of wedging.
    ///
    /// [`Io`]: ClientError::Io
    Timeout(String),
    /// Every attempt failed at the transport (connect/framing).
    Io(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Shed(r) => {
                write!(
                    f,
                    "shed after retries (status {}): {}",
                    r.status,
                    r.body.trim_end()
                )
            }
            ClientError::Timeout(e) => {
                write!(f, "request deadline expired after retries: {e}")
            }
            ClientError::Io(e) => write!(f, "transport failed after retries: {e}"),
        }
    }
}

/// Whether a transport error is the socket deadline expiring (reported
/// as `WouldBlock` or `TimedOut` depending on platform).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

impl std::error::Error for ClientError {}

impl Client {
    /// A client with the supervisor-flavored defaults: 5 attempts,
    /// 50 ms base, 2 s cap.
    pub fn new(addr: impl Into<String>) -> Client {
        Client {
            addr: addr.into(),
            attempts: 5,
            backoff_base_ms: 50,
            backoff_cap_ms: 2_000,
            timeout: Duration::from_secs(10),
        }
    }

    /// The deterministic backoff before attempt `attempt + 1`, in
    /// milliseconds: the supervisor's
    /// [`backoff_ms`](supervisor::backoff_ms), keyed by address and
    /// request.
    pub fn backoff_ms(&self, what: &str, attempt: u32) -> u64 {
        supervisor::backoff_ms(
            self.backoff_base_ms,
            self.backoff_cap_ms,
            &format!("{}:{what}", self.addr),
            attempt,
        )
    }

    /// Performs `method path` with retries: transport failures and shed
    /// responses back off and retry; any other reply (including 4xx) is
    /// returned as-is on first sight — retrying a rejected spec cannot
    /// help.
    ///
    /// # Errors
    /// [`ClientError::Shed`] when every attempt was shed,
    /// [`ClientError::Io`] when every attempt failed at the transport.
    pub fn request(&self, method: &str, path: &str, body: &str) -> Result<Reply, ClientError> {
        let attempts = self.attempts.max(1);
        let mut last_shed: Option<Reply> = None;
        let mut last_io = String::new();
        let mut last_was_timeout = false;
        for attempt in 1..=attempts {
            match roundtrip(&self.addr, method, path, body, self.timeout) {
                Ok(reply) if reply.is_shed() => {
                    let blind = self.backoff_ms(path, attempt);
                    // Server hint wins the base; client jitter still
                    // de-synchronizes the herd around it.
                    let ms = match reply.retry_after_ms {
                        Some(hint) => hint + blind / 2,
                        None => blind,
                    };
                    last_shed = Some(reply);
                    if attempt < attempts && ms > 0 {
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                }
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    last_was_timeout = is_timeout(&e);
                    last_io = e.to_string();
                    last_shed = None;
                    let ms = self.backoff_ms(path, attempt);
                    if attempt < attempts && ms > 0 {
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                }
            }
        }
        match last_shed {
            Some(reply) => Err(ClientError::Shed(reply)),
            None if last_was_timeout => Err(ClientError::Timeout(last_io)),
            None => Err(ClientError::Io(last_io)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_capped() {
        let c = Client::new("127.0.0.1:1");
        for attempt in 1..=10 {
            let a = c.backoff_ms("/jobs", attempt);
            let b = c.backoff_ms("/jobs", attempt);
            assert_eq!(a, b, "same key, same sleep");
            assert!(a <= c.backoff_cap_ms, "attempt {attempt} slept {a} ms");
        }
        assert_ne!(
            c.backoff_ms("/jobs", 3),
            c.backoff_ms("/healthz", 3),
            "jitter is keyed by the request"
        );
        // The exact sleeps under the default policy, pinned: a change
        // to the shared formula or to the client's key shows here.
        for (what, pinned) in [
            ("/jobs", [46, 80, 183, 216, 610, 1174, 1331, 1279]),
            ("/healthz", [38, 78, 154, 267, 679, 1021, 1499, 1479]),
        ] {
            let slept: Vec<u64> = (1..=8).map(|a| c.backoff_ms(what, a)).collect();
            assert_eq!(slept, pinned, "{what}");
        }
    }

    #[test]
    fn zero_base_disables_sleeping() {
        let mut c = Client::new("127.0.0.1:1");
        c.backoff_base_ms = 0;
        assert_eq!(c.backoff_ms("/jobs", 7), 0);
    }

    #[test]
    fn hung_server_surfaces_the_typed_timeout() {
        // Accepts connections but never answers — the wedged-daemon
        // shape the socket deadline exists for.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let mut held = Vec::new();
            while let Ok((s, _)) = listener.accept() {
                held.push(s);
            }
        });
        let mut c = Client::new(addr);
        c.attempts = 2;
        c.backoff_base_ms = 0;
        c.timeout = Duration::from_millis(100);
        match c.request("GET", "/healthz", "") {
            Err(ClientError::Timeout(_)) => {}
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn transport_failure_surfaces_after_retries() {
        // Reserved port with nothing listening; connect fails fast.
        let mut c = Client::new("127.0.0.1:1");
        c.attempts = 2;
        c.backoff_base_ms = 0;
        c.timeout = Duration::from_millis(200);
        match c.request("GET", "/healthz", "") {
            Err(ClientError::Io(_)) => {}
            other => panic!("expected Io, got {other:?}"),
        }
    }
}
