//! The shape every sweep shares: a matrix of labelled configurations,
//! each run for seeds `0..N`, every run classified into a tally whose
//! failing outcomes must stay at zero.
//!
//! The fault plan ([`HarnessConfig`](crate::HarnessConfig)), the
//! adversary ([`AttackConfig`](crate::AttackConfig)) and the crash
//! matrix ([`CrashConfig`](crate::CrashConfig)) implement [`Campaign`];
//! one generic driver in `crates/bench` turns each into its CLI
//! (`faultsweep`, `attacksweep`, `crashsweep`). The per-kind wording of
//! the reports lives here as constants, so the three CLIs differ only in
//! which type they drive.

use std::fmt;

use ss_trace::{MetricsRegistry, TraceRecord};

/// Outcome counts of one campaign kind, summed across seeds and configs.
pub trait CampaignTally: Copy + Default + fmt::Display {
    /// Adds every count of `other`.
    fn merge(&mut self, other: Self);

    /// Total outcomes tallied.
    fn total(&self) -> u64;

    /// Outcomes that fail the campaign (corrupted, leaked or silent).
    fn failed(&self) -> u64;

    /// Renders as a JSON object with a fixed key order — byte-stable so
    /// two sweep files from the same seeds `cmp` equal.
    fn to_json(&self) -> String;
}

/// The full, deterministic record of one `(config, seed)` run.
pub trait CampaignReport: fmt::Display {
    /// The outcome counts this report classifies into.
    type Tally: CampaignTally;

    /// Outcome counts for this report.
    fn tally(&self) -> Self::Tally;

    /// True when nothing failed.
    fn clean(&self) -> bool;

    /// Renders the full report as one JSON object on a single line with
    /// a fixed key order; sweep JSON files embed it verbatim.
    fn to_json(&self) -> String;

    /// The run's unified metrics registry, for kinds that collect one.
    fn metrics(&self) -> Option<&MetricsRegistry> {
        None
    }

    /// Retained trace records, oldest first; empty unless the run was
    /// traced.
    fn trace(&self) -> &[TraceRecord] {
        &[]
    }
}

/// One kind of deterministic sweep: its configuration matrices, how one
/// `(config, seed)` runs, and how its CLI words the results.
pub trait Campaign: Sized {
    /// What one run produces.
    type Report: CampaignReport;

    /// Name of the sweep binary: the report header and every printed
    /// `replay with:` hint start with it.
    const BIN: &'static str;
    /// Seeds a campaign runs when none are given.
    const DEFAULT_SEEDS: u64;
    /// Column width of the config labels in the campaign table.
    const LABEL_WIDTH: usize;
    /// What the grand total counts (`faults injected`); with spaces as
    /// underscores it is also the JSON key of that count.
    const COUNTED: &'static str;
    /// Why a clean campaign is clean (`zero undetected corruptions`).
    const CLEAN: &'static str;
    /// What a failed campaign counts (`corrupted`).
    const FAILED: &'static str;
    /// Whether runs carry a metrics registry and an event trace, which
    /// the CLI exposes as `--metrics-json` and `--trace`.
    const OBSERVABLE: bool = false;

    /// Stable label used in reports.
    fn label(&self) -> &str;

    /// The default sweep matrix.
    fn matrix() -> Vec<Self>;

    /// The scattered two-share protection rows (`--scattered`).
    fn scattered_matrix() -> Vec<Self>;

    /// A deliberately broken configuration the campaign must fail on,
    /// proving its gate fires (`--weakened`); `None` when the kind has
    /// none.
    fn weakened() -> Option<Self> {
        None
    }

    /// Runs one seed against this configuration.
    fn run(&self, seed: u64) -> Self::Report;

    /// [`Campaign::run`] with the last `depth` trace events retained;
    /// the report is byte-identical to the untraced one. Only called
    /// when [`Campaign::OBSERVABLE`] is set.
    fn run_traced(&self, seed: u64, _depth: usize) -> Self::Report {
        self.run(seed)
    }
}
