//! Spans recorded by the benchmark around each public call it makes,
//! plus the order statistics the metrics are built from.
//!
//! A span carries its name, start, end, parent span and the id of the
//! cell (or job) it belongs to. Spans stay in memory and are written out
//! once, when the run ends. With tracing off, [`Tracer`] still times
//! every call — the end-to-end metrics need the durations — but keeps
//! no span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub cell: u32,
}

/// An open span, returned by [`Tracer::open`] and consumed by
/// [`Tracer::close`].
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, cell: u32) -> Open {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            let start_ns = self.now_ns();
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().copied(),
                cell,
            });
            let i = self.spans.len() - 1;
            self.stack.push(i);
            i
        });
        Open { index, start }
    }

    /// Closes `open` and returns its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let secs = open.start.elapsed().as_secs_f64();
        if let Some(i) = open.index {
            self.spans[i].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(i), "spans close innermost first");
        }
        secs
    }

    /// Records an already measured interval `[start, start + secs)`
    /// (used for waits observed from outside, such as queue time).
    pub fn record(&mut self, name: &'static str, cell: u32, start: Instant, secs: f64) {
        if !self.enabled {
            return;
        }
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + (secs * 1e9) as u64,
            parent: self.stack.last().copied(),
            cell,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// the part its child spans cover.
    pub fn self_secs(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `id parent cell name start_ns end_ns` (`-` for no parent).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("id\tparent\tcell\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.cell, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// Seconds one open/close pair costs a traced run, measured on a
/// throwaway tracer: the tracing overhead per span.
pub fn span_cost_secs() -> f64 {
    const N: u32 = 20_000;
    let mut t = Tracer::new(true);
    let start = Instant::now();
    for i in 0..N {
        let o = t.open("overhead", i);
        t.close(o);
    }
    start.elapsed().as_secs_f64() / f64::from(N)
}

/// Linear-interpolated quantile `q` of `values` (sorted in place).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The tail quantile reported as `job_p90_s`: p90 when at least ten
/// samples lie beyond it, else the highest quantile that keeps ten
/// beyond it, never below the median.
pub fn tail_quantile(n: usize) -> f64 {
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.9)
}
