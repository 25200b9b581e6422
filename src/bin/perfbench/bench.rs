//! The measurement loop: a closed loop on one thread. Each iteration
//! draws the input from the seed, builds both configurations (set-up),
//! runs them one after the other (measured phase), checks the outputs
//! and repeats until the time budget is spent. Throughput comes from
//! the fastest time of each segment of the measured phases; other
//! host-clock metrics are medians over iterations. Simulated-clock metrics are
//! exact and must repeat in every iteration (their digest is checked).
// lint:allow-file(DET-002): the benchmark measures host wall-clock time by design; no clock reading enters a simulated statistic

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ss_trace::MetricsRegistry;

use crate::input::{Size, Workload};
use crate::probes::{ProbeInputs, ProbeResults, Probes};
use crate::spans::{self, SpanLog};
use crate::{churn, input, segments, stats, system};

/// Iterations every measurement makes, whatever the budget; the first
/// is a warm-up and is left out of the host-clock medians.
const MIN_ITERATIONS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget, seconds (split in half between the untraced
    /// and the traced run when `trace` is set).
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Input size.
    pub size: Size,
}

/// Correctness checks: how many were made and how many failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checks {
    /// Checks made (requests checked, invariants tested).
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checks {
    /// Records one check.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts `n` checks that could not run (after an error) as failed.
    pub fn fail_remaining(&mut self, n: u64) {
        self.attempted += n;
        self.failed += n;
    }

    /// Adds another set of checks.
    pub fn add(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One iteration: both configurations on the same input.
#[derive(Debug, Clone)]
pub struct Pair {
    /// Host seconds generating the input (`ss-workloads`).
    pub gen_s: f64,
    /// Host seconds building both configurations (`ss-sim`).
    pub new_s: f64,
    /// Host seconds running both configurations.
    pub run_s: f64,
    /// Host seconds draining both configurations' caches.
    pub drain_s: f64,
    /// Host seconds of each segment of each configuration's measured
    /// phase (running plus draining), baseline then Silent Shredder.
    pub segments: [Vec<f64>; 2],
    /// Memory operations in the input, summed over both configurations.
    pub mem_ops: u64,
    /// Simulated statistics, baseline then Silent Shredder.
    pub stats: [MetricsRegistry; 2],
    /// The same statistics at the end of the run, before the caches
    /// drain. The layer estimates count these operations, because
    /// `sim.run_s` leaves the drain out.
    pub run_stats: [MetricsRegistry; 2],
    /// Output checks of this iteration.
    pub checks: Checks,
    /// What the layer probes need (first iteration, traced runs only).
    pub probe: Option<ProbeInputs>,
}

impl Pair {
    /// Set-up seconds: input generation plus system construction.
    pub fn setup_s(&self) -> f64 {
        self.gen_s + self.new_s
    }

    /// Measured seconds: running plus draining, both configurations.
    pub fn measured_s(&self) -> f64 {
        self.segments.iter().flatten().sum()
    }
}

/// Everything one measurement loop produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Successful iterations, in order.
    pub pairs: Vec<Pair>,
    /// All checks, including the per-iteration digest check and the
    /// checks of failed iterations.
    pub checks: Checks,
}

impl Measured {
    /// Iterations used for host-clock medians (all but the warm-up).
    pub fn timed(&self) -> &[Pair] {
        if self.pairs.len() >= MIN_ITERATIONS {
            &self.pairs[1..]
        } else {
            &self.pairs
        }
    }

    /// Median over timed iterations of `f`.
    pub fn median(&self, f: impl Fn(&Pair) -> f64) -> f64 {
        spans::median(&self.timed().iter().map(f).collect::<Vec<_>>())
    }

    /// Smallest value of `f` over all iterations.
    pub fn min(&self, f: impl Fn(&Pair) -> f64) -> f64 {
        self.pairs.iter().map(f).fold(f64::INFINITY, f64::min)
    }

    /// Best throughput: the input's memory operations per second of the
    /// fastest measured phases. Each segment of each configuration's
    /// phase counts with its fastest time over all iterations. On a
    /// shared machine the host's speed switches between levels, for
    /// moments or for minutes, so the fastest segments estimate the
    /// code's own cost far more steadily than a median does.
    pub fn best_mem_ops_per_s(&self) -> f64 {
        let Some(first) = self.pairs.first() else {
            return 0.0;
        };
        let fastest: f64 = (0..2)
            .map(|c| segments::fastest_total(self.pairs.iter().map(|p| &p.segments[c][..])))
            .sum();
        first.mem_ops as f64 / fastest
    }
}

/// Checks one iteration makes when it fails before reporting its own:
/// every request of both configurations, or every system invariant,
/// plus the digest check.
fn planned_checks(opts: &Options) -> u64 {
    1 + match opts.workload {
        Workload::TenantChurn => 2 * input::tenant_churn(opts.seed, opts.size).ops.len() as u64,
        _ => system::SYSTEM_CHECKS,
    }
}

/// One iteration of `opts.workload`.
fn iteration(opts: &Options, log: &mut SpanLog, want_probe: bool) -> Result<Pair, String> {
    log.enter("iteration");
    let result = match opts.workload {
        Workload::TenantChurn => {
            let (input, gen_s) = log.time("workloads.gen", || {
                input::tenant_churn(opts.seed, opts.size)
            });
            churn::run_pair(&input, opts.size, log, want_probe).map(|p| Pair { gen_s, ..p })
        }
        w => {
            let draw = if w == Workload::SpecMix {
                input::spec_mix
            } else {
                input::counter_pressure
            };
            let (input, draw_s) = log.time("workloads.gen", || draw(opts.seed, opts.size));
            system::run_pair(&input, opts.size, log, want_probe).map(|p| Pair {
                gen_s: p.gen_s + draw_s,
                ..p
            })
        }
    };
    log.exit();
    result
}

/// Runs at least `MIN_ITERATIONS` iterations, then more while another
/// one (as long as the last) still fits in `budget_s` of wall-clock
/// time, calling `after_each` after every iteration. Every iteration's
/// statistics digest must equal `reference` (set by the first
/// successful iteration).
fn measure(
    opts: &Options,
    log: &mut SpanLog,
    budget_s: f64,
    reference: &mut Option<u64>,
    want_probe: bool,
    mut after_each: impl FnMut(&mut SpanLog),
) -> Measured {
    let start = Instant::now();
    let mut out = Measured::default();
    let mut tried = 0;
    let mut last_s = 0.0;
    while tried < MIN_ITERATIONS || start.elapsed().as_secs_f64() + last_s <= budget_s {
        let first = want_probe && out.pairs.is_empty();
        tried += 1;
        let iteration_start = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| iteration(opts, log, first))) {
            Ok(Ok(pair)) => {
                let digest = stats::digest(&pair.stats);
                out.checks
                    .record(*reference.get_or_insert(digest) == digest);
                out.checks.add(pair.checks);
                out.pairs.push(pair);
            }
            Ok(Err(e)) => {
                eprintln!("{}: iteration failed: {e}", opts.workload.name());
                out.checks.fail_remaining(planned_checks(opts));
            }
            Err(_) => {
                eprintln!("{}: iteration panicked", opts.workload.name());
                out.checks.fail_remaining(planned_checks(opts));
            }
        }
        after_each(log);
        last_s = iteration_start.elapsed().as_secs_f64();
    }
    out
}

/// Everything a run produced, before it is turned into metrics.
#[derive(Debug)]
pub struct RunData {
    /// The untraced measurement.
    pub untraced: Measured,
    /// The traced measurement (traced runs only).
    pub traced: Option<Measured>,
    /// Probe results (traced runs only).
    pub probes: Option<ProbeResults>,
    /// The span log (empty unless traced).
    pub log: SpanLog,
    /// Simulated-statistics digest every iteration reproduced.
    pub digest: Option<u64>,
}

/// Runs the benchmark: an untraced measurement, and for a traced run a
/// traced measurement that samples the layer probes after every
/// iteration. Every iteration, traced or not and probes or not, must
/// reproduce the first one's statistics digest.
pub fn run(opts: &Options) -> RunData {
    let mut reference = None;
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut untraced = measure(
        opts,
        &mut SpanLog::new(false),
        budget,
        &mut reference,
        opts.trace,
        |_| {},
    );
    let mut log = SpanLog::new(opts.trace);
    let mut traced = None;
    let mut probes = None;
    let probe_inputs = untraced.pairs.first_mut().and_then(|p| p.probe.take());
    if let Some(inputs) = probe_inputs {
        let mut p = Probes::new(inputs);
        traced = Some(measure(
            opts,
            &mut log,
            budget,
            &mut reference,
            false,
            |log| p.sample(log),
        ));
        probes = p.results();
        untraced
            .checks
            .record(probes.is_some_and(|r| r.failures == 0));
    }
    RunData {
        untraced,
        traced,
        probes,
        log,
        digest: reference,
    }
}
