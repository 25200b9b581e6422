//! Turns a run into named metrics with units, the human-readable table
//! and the one-line JSON result.

use std::fmt::Write as _;

use ss_trace::{MetricsRegistry, Stage};

use crate::stats::{get, hit_rate, ratio, LEVELS};
use crate::{Measured, Pair, RunData};

/// End-to-end metrics: name, unit, which direction is better. Every
/// workload reports all of them, with tracing off.
pub const END_TO_END: [(&str, &str, &str); 11] = [
    ("setup_s", "s", "lower"),
    ("mem_ops_per_s", "1/s", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
    ("sim_cycles", "cycles", "lower"),
    ("nvm_writes", "count", "lower"),
    ("read_lat_p50_cyc", "cycles", "lower"),
    ("read_lat_p99_cyc", "cycles", "lower"),
    ("write_savings_pct", "%", "higher"),
    ("read_savings_pct", "%", "higher"),
    ("read_speedup", "x", "higher"),
    ("cycle_speedup", "x", "higher"),
];

/// Per-configuration layer counts (reported as `base.<name>` and
/// `shredder.<name>`), without the stage cycles.
const CONFIG_COUNTS: [(&str, &str, &str); 26] = [
    ("cpu.instructions", "count", "lower"),
    ("cpu.mem_ops", "count", "lower"),
    ("cpu.tlb_miss_rate", "ratio", "lower"),
    ("os.major_faults", "count", "lower"),
    ("os.pages_shredded", "count", "lower"),
    ("os.fault_cycles", "cycles", "lower"),
    ("os.zeroing_cycles", "cycles", "lower"),
    ("cache.lookups", "count", "lower"),
    ("cache.l1.hit_rate", "ratio", "higher"),
    ("cache.l2.hit_rate", "ratio", "higher"),
    ("cache.l3.hit_rate", "ratio", "higher"),
    ("cache.l4.hit_rate", "ratio", "higher"),
    ("core.reads", "count", "lower"),
    ("core.writes", "count", "lower"),
    ("core.zero_fill_reads", "count", "higher"),
    ("core.zeroing_writes", "count", "lower"),
    ("core.shreds", "count", "lower"),
    ("core.counter_cache.hit_rate", "ratio", "higher"),
    ("core.read_lat_samples", "count", "higher"),
    ("crypto.aes_ctr.ops", "count", "lower"),
    ("crypto.merkle_verify.ops", "count", "lower"),
    ("crypto.merkle_update.ops", "count", "lower"),
    ("nvm.reads", "count", "lower"),
    ("nvm.writes", "count", "lower"),
    ("nvm.bits_written", "bits", "lower"),
    ("nvm.energy_pj", "pJ", "lower"),
];

/// Host-time layer metrics of the traced run (no configuration prefix).
const HOST_LAYER: [(&str, &str, &str); 21] = [
    ("workloads.gen_s", "s", "lower"),
    ("sim.new_s", "s", "lower"),
    ("sim.run_s", "s", "lower"),
    ("sim.drain_s", "s", "lower"),
    ("sim.unattributed_s", "s", "lower"),
    ("cache.access.ns_per_op", "ns", "lower"),
    ("cache.est_s", "s", "lower"),
    ("core.read_block.ns_p50", "ns", "lower"),
    ("core.read_block.ns_p99", "ns", "lower"),
    ("core.write_block.ns_p50", "ns", "lower"),
    ("core.write_block.ns_p99", "ns", "lower"),
    ("core.shred_page.ns_p50", "ns", "lower"),
    ("core.shred_page.ns_p99", "ns", "lower"),
    ("crypto.aes_ctr.ns_per_op", "ns", "lower"),
    ("crypto.merkle_verify.ns_per_op", "ns", "lower"),
    ("crypto.merkle_update.ns_per_op", "ns", "lower"),
    ("crypto.est_s", "s", "lower"),
    ("nvm.read.ns_per_op", "ns", "lower"),
    ("nvm.write.ns_per_op", "ns", "lower"),
    ("nvm.est_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
];

/// Configuration prefixes of per-layer counts.
const CONFIGS: [&str; 2] = ["base", "shredder"];

/// Every per-layer metric as (name, unit, better), in report order.
pub fn per_layer_catalog() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<_> = HOST_LAYER
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u, b))
        .collect();
    for config in CONFIGS {
        for (n, u, b) in CONFIG_COUNTS {
            out.push((format!("{config}.{n}"), u, b));
        }
        for stage in Stage::ALL {
            out.push((
                format!("{config}.core.stage.{}.cycles", stage.label()),
                "cycles",
                "lower",
            ));
        }
    }
    out
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The result of one benchmark invocation.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every check passed and every metric could be computed.
    pub correct: bool,
    /// Checks made.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// The metrics, in catalog order.
    pub metrics: Vec<Metric>,
    /// Extra context lines for the human-readable table.
    pub notes: Vec<String>,
}

impl Report {
    /// Failed checks over attempted checks.
    pub fn failed_op_ratio(&self) -> f64 {
        ratio(self.failed, self.attempted)
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The human-readable table: every metric with its unit, then notes.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<44} {:>18.6} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(
            out,
            "  {:<44} {:>18.6} ratio ({} of {} checks failed)",
            "failed_op_ratio",
            self.failed_op_ratio(),
            self.failed,
            self.attempted
        );
        for note in &self.notes {
            let _ = writeln!(out, "  {note}");
        }
        out
    }
}

/// Peak resident memory of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Upper edge of the power-of-two latency bucket holding a percentile.
/// The controller reports a percentile as that edge clamped to the
/// largest latency seen; undoing the clamp keeps the figure from
/// following the single slowest read.
fn bucket_edge(percentile: u64) -> u64 {
    (percentile + 1).next_power_of_two() - 1
}

fn mean_read_latency(reg: &MetricsRegistry) -> f64 {
    ratio(
        get(reg, "ctrl.read_latency.total"),
        get(reg, "ctrl.read_latency.count"),
    )
}

/// The end-to-end metrics of an untraced measurement.
fn end_to_end(m: &Measured, stats: &[MetricsRegistry; 2], peak_rss_mib: f64) -> Vec<f64> {
    let [b, s] = stats;
    let demand = get(s, "ctrl.reads") + get(s, "ctrl.zero_fill_reads");
    vec![
        m.median(|p| p.setup_s()),
        m.best_mem_ops_per_s(),
        peak_rss_mib,
        get(s, "sim.cycles") as f64,
        get(s, "nvm.writes") as f64,
        bucket_edge(get(s, "ctrl.read_latency.p50")) as f64,
        bucket_edge(get(s, "ctrl.read_latency.p99")) as f64,
        100.0 * (1.0 - ratio(get(s, "ctrl.writes"), get(b, "ctrl.writes"))),
        100.0 * ratio(get(s, "ctrl.zero_fill_reads"), demand),
        mean_read_latency(b) / mean_read_latency(s),
        ratio(get(b, "sim.cycles"), get(s, "sim.cycles")),
    ]
}

/// One configuration's layer counts, in `CONFIG_COUNTS` order, then the
/// stage cycles.
fn config_counts(r: &MetricsRegistry) -> Vec<f64> {
    let mut v = vec![
        get(r, "cpu.instructions") as f64,
        hierarchy_accesses(r) as f64,
        miss_rate(r, "tlb"),
        get(r, "os.major_faults") as f64,
        get(r, "os.pages_shredded") as f64,
        get(r, "os.fault_cycles") as f64,
        get(r, "os.zeroing_cycles") as f64,
        lookups(r) as f64,
    ];
    v.extend(
        LEVELS
            .iter()
            .map(|(label, _)| hit_rate(r, &format!("cache.{label}"))),
    );
    v.extend([
        get(r, "ctrl.reads") as f64,
        get(r, "ctrl.writes") as f64,
        get(r, "ctrl.zero_fill_reads") as f64,
        get(r, "ctrl.zeroing_writes") as f64,
        get(r, "ctrl.shreds") as f64,
        hit_rate(r, "ccache"),
        get(r, "ctrl.read_latency.count") as f64,
        get(r, "profile.aes_ctr.ops") as f64,
        get(r, "profile.merkle_verify.ops") as f64,
        get(r, "ctrl.counter_writes") as f64,
        get(r, "nvm.reads") as f64,
        get(r, "nvm.writes") as f64,
        get(r, "nvm.bits_written") as f64,
        get(r, "nvm.energy_pj") as f64,
    ]);
    v.extend(
        Stage::ALL
            .iter()
            .map(|s| get(r, &format!("profile.{}.cycles", s.label())) as f64),
    );
    v
}

/// Miss rate of a `<prefix>.hits` / `<prefix>.misses` pair.
fn miss_rate(r: &MetricsRegistry, prefix: &str) -> f64 {
    let misses = get(r, &format!("{prefix}.misses"));
    ratio(misses, misses + get(r, &format!("{prefix}.hits")))
}

/// Lookups that probed L1: loads and partial stores (a full-line store
/// installs its line without a lookup).
fn lookups(r: &MetricsRegistry) -> u64 {
    get(r, "cache.l1.hits") + get(r, "cache.l1.misses")
}

/// Core memory operations, each one `Hierarchy::access` call (the mix
/// the cache probe replays).
fn hierarchy_accesses(r: &MetricsRegistry) -> u64 {
    get(r, "cpu.loads") + get(r, "cpu.stores")
}

/// Sum over both configurations of `f`.
fn both(stats: &[MetricsRegistry; 2], f: impl Fn(&MetricsRegistry) -> f64) -> f64 {
    stats.iter().map(f).sum()
}

/// The per-layer metrics, in `per_layer_catalog` order. Counts come from
/// the untraced run's statistics; the layer estimates count only the
/// operations made before the drain, like `sim.run_s`. Host times are
/// the fastest traced iteration's and the fastest probe samples, taken
/// under the same host conditions, so the layer shares of `sim.run_s`
/// are comparable.
fn per_layer(data: &RunData, first: &Pair) -> Result<Vec<f64>, String> {
    let traced = data.traced.as_ref().ok_or("no traced run")?;
    if traced.pairs.is_empty() {
        return Err("no traced iteration succeeded".into());
    }
    let p = data.probes.ok_or("the layer probes did not run")?;
    let ns = 1e-9;
    let (stats, run_stats) = (&first.stats, &first.run_stats);
    let cache_est = both(run_stats, |r| hierarchy_accesses(r) as f64) * p.cache_access_ns * ns;
    let crypto_est = both(run_stats, |r| {
        get(r, "profile.aes_ctr.ops") as f64 * p.aes_pad_ns
            + get(r, "profile.merkle_verify.ops") as f64 * p.merkle_verify_ns
            + get(r, "ctrl.counter_writes") as f64 * p.merkle_update_ns
    }) * ns;
    let nvm_est = both(run_stats, |r| {
        get(r, "nvm.reads") as f64 * p.nvm_read_ns + get(r, "nvm.writes") as f64 * p.nvm_write_ns
    }) * ns;
    let run_s = traced.min(|p| p.run_s);
    let log = &data.log;
    let untraced = data.untraced.best_mem_ops_per_s();
    let mut v = vec![
        traced.min(|p| p.gen_s),
        traced.min(|p| p.new_s),
        run_s,
        traced.min(|p| p.drain_s),
        run_s - cache_est - crypto_est - nvm_est,
        p.cache_access_ns,
        cache_est,
    ];
    for call in ["core.read_block", "core.write_block", "core.shred_page"] {
        v.push(log.call_percentile_ns(call, 50));
        v.push(log.call_percentile_ns(call, 99));
    }
    v.extend([
        p.aes_pad_ns,
        p.merkle_verify_ns,
        p.merkle_update_ns,
        crypto_est,
        p.nvm_read_ns,
        p.nvm_write_ns,
        nvm_est,
        100.0 * (untraced / traced.best_mem_ops_per_s() - 1.0),
    ]);
    for r in stats {
        v.extend(config_counts(r));
    }
    Ok(v)
}

/// Builds the report of a run: end-to-end metrics for an untraced run,
/// per-layer metrics for a traced one.
pub fn build(data: &RunData, trace: bool) -> Report {
    let mut notes = Vec::new();
    let mut checks = data.untraced.checks;
    if let Some(t) = &data.traced {
        checks.add(t.checks);
    }
    let Some(first) = data.untraced.pairs.first() else {
        notes.push("no iteration succeeded".into());
        return Report {
            correct: false,
            attempted: checks.attempted.max(1),
            failed: checks.failed.max(1),
            metrics: Vec::new(),
            notes,
        };
    };
    let stats = &first.stats;
    let catalog: Vec<(String, &'static str)> = if trace {
        per_layer_catalog()
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u, _)| (n.to_string(), u))
            .collect()
    };
    let values = if trace {
        per_layer(data, first)
    } else {
        peak_rss_mib()
            .ok_or_else(|| "peak RSS unavailable".to_string())
            .map(|rss| end_to_end(&data.untraced, stats, rss))
    };
    let mut correct = checks.failed == 0;
    let mut metrics: Vec<Metric> = match values {
        Ok(values) => catalog
            .into_iter()
            .zip(values)
            .map(|((name, unit), value)| Metric { name, unit, value })
            .collect(),
        Err(e) => {
            notes.push(format!("metrics unavailable: {e}"));
            correct = false;
            Vec::new()
        }
    };
    for m in metrics.iter_mut().filter(|m| !m.value.is_finite()) {
        notes.push(format!(
            "{} is not a finite number ({}); reported as 0",
            m.name, m.value
        ));
        m.value = 0.0;
        correct = false;
    }
    let t = data.untraced.timed();
    notes.push(format!(
        "iterations: {} untraced ({} timed){}; read latency samples (shredder): {}",
        data.untraced.pairs.len(),
        t.len(),
        data.traced
            .as_ref()
            .map_or(String::new(), |m| format!(", {} traced", m.pairs.len())),
        get(&stats[1], "ctrl.read_latency.count")
    ));
    notes.push(format!(
        "measured seconds per iteration: {}",
        data.untraced
            .pairs
            .iter()
            .map(|p| format!("{:.3}", p.measured_s()))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    if let Some(d) = data.digest {
        notes.push(format!("simulated-statistics digest: {d:016x}"));
    }
    Report {
        correct,
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
        notes,
    }
}
