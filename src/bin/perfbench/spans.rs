//! In-memory span recording for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer's public
//! functions (`System::new`, `Workload::trace`, `System::run`,
//! `MemoryController::read_block`, ...); nothing inside the program is
//! instrumented. Phase spans keep name, start, end and parent. Per-call
//! spans around controller requests are kept as durations only, one
//! `u32` per call, so a run of a million requests stays small; they are
//! summarised (count, total, p50, p99) when written out.
// lint:allow-file(DET-002): spans record host wall-clock time by design; no reading enters a simulated statistic

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One phase span. Times are nanoseconds since the log was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span wraps, e.g. `sim.run`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// A span log. Disabled logs record nothing and cost one branch.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    calls: BTreeMap<&'static str, Vec<u32>>,
}

impl SpanLog {
    /// Creates a log; `enabled = false` makes every method a no-op.
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            calls: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name`, returning its result and its
    /// wall-clock duration in seconds (measured whether or not the log is
    /// enabled, so the untraced run times its phases the same way).
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.enter(name);
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.exit();
        (out, secs)
    }

    /// Runs one controller request inside a per-call span.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let ns = u32::try_from(start.elapsed().as_nanos()).unwrap_or(u32::MAX);
        self.calls.entry(name).or_default().push(ns);
        out
    }

    /// Nearest-rank percentile `p` (0..=100) of a call's durations, ns;
    /// 0 when the call was never made.
    pub fn call_percentile_ns(&self, name: &str, p: u32) -> f64 {
        let Some(durations) = self.calls.get(name) else {
            return 0.0;
        };
        let mut sorted = durations.clone();
        sorted.sort_unstable();
        percentile_sorted(&sorted, p)
    }

    /// Renders the log: every phase span as a CSV row, then one summary
    /// row per call name.
    pub fn render(&self) -> String {
        let mut out =
            String::from("kind,id,parent,name,start_ns,end_ns,count,total_ns,p50_ns,p99_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            let _ = writeln!(
                out,
                "span,{id},{parent},{},{},{},,,,",
                s.name, s.start_ns, s.end_ns
            );
        }
        for (name, durations) in &self.calls {
            let mut sorted = durations.clone();
            sorted.sort_unstable();
            let total: u64 = sorted.iter().map(|&d| u64::from(d)).sum();
            let _ = writeln!(
                out,
                "calls,,,{name},,,{},{total},{},{}",
                sorted.len(),
                percentile_sorted(&sorted, 50),
                percentile_sorted(&sorted, 99)
            );
        }
        out
    }
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile_sorted<T: Copy + Into<f64>>(sorted: &[T], p: u32) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = (p.min(100) as usize * n).div_ceil(100).max(1);
    sorted[rank - 1].into()
}

/// Median of unsorted samples (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents() {
        let mut log = SpanLog::new(true);
        log.enter("outer");
        let (v, secs) = log.time("inner", || 7);
        log.exit();
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert_eq!(log.spans[1].parent, Some(0));
        assert!(log.render().contains("span,1,0,inner"));
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false);
        log.enter("outer");
        log.call("read_block", || ());
        log.exit();
        assert!(log.spans.is_empty());
        assert_eq!(log.call_percentile_ns("read_block", 50), 0.0);
    }

    #[test]
    fn percentiles_and_medians() {
        assert_eq!(percentile_sorted(&[1.0, 2.0, 3.0, 4.0], 50), 2.0);
        assert_eq!(percentile_sorted(&[1.0, 2.0, 3.0, 4.0], 99), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
