//! The one command-line driver behind `faultsweep`, `attacksweep` and
//! `crashsweep`.
//!
//! ```text
//! faultsweep  [--seeds N] [--seed S] [--config LABEL] [--json FILE]
//!             [--metrics-json FILE] [--scattered] [--trace] [--list]
//! attacksweep [--seeds N] [--seed S] [--config LABEL] [--json FILE]
//!             [--scattered] [--weakened] [--list]
//! crashsweep  [--seeds N] [--seed S] [--config LABEL] [--json FILE]
//!             [--scattered] [--weakened] [--list]
//! ```
//!
//! Each binary is [`main`] over one [`Campaign`] kind, so the binary
//! name selects the kind; the kind's constants supply the wording, the
//! default seed count, and which kind-only flags exist.
//!
//! The default campaign runs seeds `0..N` against every configuration in
//! [`Campaign::matrix`] and prints one tally line per configuration. The
//! report is a pure function of the seed set — no wall-clock, no
//! environment — so the same invocation is always byte-identical. Exit
//! status is nonzero iff some `(config, seed)` run was not clean, and
//! each such run prints a `replay with:` line.
//!
//! * `--seed S` replays a single seed with the full per-run report, so a
//!   failing campaign cell can be rerun alone.
//! * `--config LABEL` keeps only that row of the matrix; `--list` prints
//!   the labels of the rows that would run.
//! * `--json FILE` also writes the results to `FILE` as JSON (campaign:
//!   per-config tallies; replay: every report's `to_json` verbatim). The
//!   JSON is hand-rolled with a fixed key order, so it is exactly as
//!   deterministic as the text report, which stays byte-identical
//!   whether or not `--json` is given.
//! * `--scattered` swaps the matrix for [`Campaign::scattered_matrix`],
//!   the `ScatteredTwoShare` protection rows.
//! * `--weakened` (kinds with a [`Campaign::weakened`] row) swaps the
//!   matrix for that deliberately broken configuration, on which the
//!   sweep must exit red.
//! * `--metrics-json FILE` ([`Campaign::OBSERVABLE`] kinds) writes the
//!   unified metrics registry (DESIGN.md §10) per config: summed over
//!   every campaign seed, or of the single replayed seed. Collecting it
//!   never changes the text or `--json` reports.
//! * `--trace` (observable kinds, replay only) enables the controller's
//!   event trace and prints the retained records after each report.
//!   Event timestamps are simulated cycles, so the stream is as
//!   deterministic as everything else.

use std::process::ExitCode;

use ss_harness::{json_escape, Campaign, CampaignReport, CampaignTally};
use ss_trace::MetricsRegistry;

/// Events retained per run under `--trace`. Large enough to keep every
/// event of a typical fault-plan run; older events are dropped (and
/// counted) past this depth.
const TRACE_DEPTH: usize = 65536;

type TallyOf<C> = <<C as Campaign>::Report as CampaignReport>::Tally;

/// A checked command line: the matrix rows to run and what to do with
/// them.
struct Options<C> {
    matrix: Vec<C>,
    seeds: u64,
    replay: Option<u64>,
    json: Option<String>,
    metrics_json: Option<String>,
    trace: bool,
    list: bool,
}

/// Runs the sweep of kind `C` on the process arguments.
pub fn main<C: Campaign>() -> ExitCode {
    parse_args::<C>(std::env::args().skip(1))
        .and_then(|opts| run(&opts))
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            ExitCode::FAILURE
        })
}

fn usage<C: Campaign>() -> String {
    let (metrics, trace) = if C::OBSERVABLE {
        ("[--metrics-json FILE] ", "[--trace] ")
    } else {
        ("", "")
    };
    let weakened = if C::weakened().is_some() {
        "[--weakened] "
    } else {
        ""
    };
    format!(
        "usage: {} [--seeds N] [--seed S] [--config LABEL] [--json FILE] \
         {metrics}[--scattered] {trace}{weakened}[--list]",
        C::BIN
    )
}

/// Parses `args` (without the program name) and selects the matrix rows.
fn parse_args<C: Campaign>(args: impl IntoIterator<Item = String>) -> Result<Options<C>, String> {
    let mut opts = Options {
        matrix: Vec::new(),
        seeds: C::DEFAULT_SEEDS,
        replay: None,
        json: None,
        metrics_json: None,
        trace: false,
        list: false,
    };
    let (mut config, mut scattered, mut weakened) = (None, false, false);
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{arg} needs {what}"));
        let number = |s: String| s.parse::<u64>().map_err(|e| format!("{arg}: {e}"));
        match arg.as_str() {
            "--seeds" => opts.seeds = number(value("a number")?)?,
            "--seed" => opts.replay = Some(number(value("a number")?)?),
            "--config" => config = Some(value("a label")?),
            "--json" => opts.json = Some(value("a file path")?),
            "--metrics-json" if C::OBSERVABLE => opts.metrics_json = Some(value("a file path")?),
            "--scattered" => scattered = true,
            "--weakened" if C::weakened().is_some() => weakened = true,
            "--trace" if C::OBSERVABLE => opts.trace = true,
            "--list" => opts.list = true,
            "--help" | "-h" => return Err(usage::<C>()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.seeds == 0 {
        return Err("--seeds must be at least 1".to_string());
    }
    if opts.trace && opts.replay.is_none() {
        return Err("--trace needs --seed S (replay mode)".to_string());
    }
    if scattered && weakened {
        return Err("--scattered and --weakened are mutually exclusive".to_string());
    }
    let pool = if weakened {
        C::weakened().into_iter().collect()
    } else if scattered {
        C::scattered_matrix()
    } else {
        C::matrix()
    };
    opts.matrix = pool
        .into_iter()
        .filter(|c| config.as_deref().is_none_or(|l| c.label() == l))
        .collect();
    if opts.matrix.is_empty() {
        return Err(format!(
            "no config labelled {:?}; try --list",
            config.as_deref().unwrap_or("")
        ));
    }
    Ok(opts)
}

fn run<C: Campaign>(opts: &Options<C>) -> Result<ExitCode, String> {
    if opts.list {
        for cfg in &opts.matrix {
            println!("{}", cfg.label());
        }
        return Ok(ExitCode::SUCCESS);
    }
    match opts.replay {
        Some(seed) => replay(opts, seed),
        None => campaign(opts),
    }
}

/// Replay mode: one seed, full per-run reports.
fn replay<C: Campaign>(opts: &Options<C>, seed: u64) -> Result<ExitCode, String> {
    let mut reports = Vec::with_capacity(opts.matrix.len());
    for cfg in &opts.matrix {
        let report = if opts.trace {
            cfg.run_traced(seed, TRACE_DEPTH)
        } else {
            cfg.run(seed)
        };
        print!("{report}");
        if opts.trace {
            let dropped = report.metrics().and_then(|m| m.get("trace.dropped"));
            let trace = report.trace();
            println!(
                "  trace: {} event(s), {} dropped",
                trace.len(),
                dropped.unwrap_or(0)
            );
            for rec in trace {
                println!("    {rec}");
            }
        }
        reports.push(report);
    }
    if let Some(path) = &opts.json {
        write_json(path, &replay_json(seed, &reports))?;
    }
    if let Some(path) = &opts.metrics_json {
        let metrics = (opts.matrix.iter().zip(&reports))
            .filter_map(|(cfg, r)| Some((cfg.label(), r.metrics()?)));
        write_json(path, &metrics_json(&format!("\"seed\": {seed}"), metrics))?;
    }
    Ok(exit_code(reports.iter().all(|r| r.clean())))
}

/// Campaign mode: seeds `0..N` against every config.
fn campaign<C: Campaign>(opts: &Options<C>) -> Result<ExitCode, String> {
    println!(
        "{}: {} seed(s) x {} config(s)",
        C::BIN,
        opts.seeds,
        opts.matrix.len()
    );
    let width = C::LABEL_WIDTH;
    let mut grand = TallyOf::<C>::default();
    let mut failures: Vec<(&str, u64)> = Vec::new();
    let mut per_config = Vec::with_capacity(opts.matrix.len());
    let mut per_config_metrics = Vec::with_capacity(opts.matrix.len());
    for cfg in &opts.matrix {
        let mut tally = TallyOf::<C>::default();
        let mut summed = MetricsRegistry::new();
        for seed in 0..opts.seeds {
            let report = cfg.run(seed);
            tally.merge(report.tally());
            if !report.clean() {
                failures.push((cfg.label(), seed));
            }
            if let (Some(_), Some(m)) = (&opts.metrics_json, report.metrics()) {
                summed.merge(m);
            }
        }
        println!("  {:<width$} {tally}", cfg.label());
        per_config.push((cfg.label(), tally));
        per_config_metrics.push(summed);
        grand.merge(tally);
    }
    println!("  {:<width$} {grand}", "total");
    println!("{}: {}", C::COUNTED, grand.total());
    if let Some(path) = &opts.json {
        let json = campaign_json::<C>(opts.seeds, &per_config, &grand, &failures);
        write_json(path, &json)?;
    }
    if let Some(path) = &opts.metrics_json {
        let metrics = per_config
            .iter()
            .map(|(label, _)| *label)
            .zip(&per_config_metrics);
        let doc = metrics_json(&format!("\"seeds\": {}", opts.seeds), metrics);
        write_json(path, &doc)?;
    }
    if failures.is_empty() {
        println!("result: CLEAN ({})", C::CLEAN);
    } else {
        for (label, seed) in &failures {
            println!("replay with: {} --config {label} --seed {seed}", C::BIN);
        }
        println!("result: FAILED ({} {})", grand.failed(), C::FAILED);
    }
    Ok(exit_code(failures.is_empty()))
}

fn exit_code(clean: bool) -> ExitCode {
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A JSON document: the `head` lines, the `"configs"` array with one
/// element per line, then `tail`, which brings its own leading comma.
fn json_doc(head: &str, rows: impl Iterator<Item = String>, tail: &str) -> String {
    let rows: Vec<String> = rows.map(|row| format!("    {row}")).collect();
    format!(
        "{{\n{head}  \"configs\": [\n{}\n  ]{tail}\n}}\n",
        rows.join(",\n")
    )
}

/// Campaign results as a JSON document.
fn campaign_json<C: Campaign>(
    seeds: u64,
    per_config: &[(&str, TallyOf<C>)],
    grand: &TallyOf<C>,
    failures: &[(&str, u64)],
) -> String {
    let rows = per_config.iter().map(|(label, tally)| {
        format!(
            "{{\"label\":\"{}\",\"tally\":{}}}",
            json_escape(label),
            tally.to_json()
        )
    });
    let failed: Vec<String> = failures
        .iter()
        .map(|(label, seed)| format!("{{\"config\":\"{}\",\"seed\":{seed}}}", json_escape(label)))
        .collect();
    let tail = format!(
        ",\n  \"total\": {},\n  \"{}\": {},\n  \"failures\": [{}],\n  \"clean\": {}",
        grand.to_json(),
        C::COUNTED.replace(' ', "_"),
        grand.total(),
        failed.join(","),
        failures.is_empty()
    );
    json_doc(&format!("  \"seeds\": {seeds},\n"), rows, &tail)
}

/// Replay results as a JSON document. Each config object is the report's
/// `to_json` verbatim, so the replay file and the determinism tests
/// compare the exact same bytes.
fn replay_json<R: CampaignReport>(seed: u64, reports: &[R]) -> String {
    let clean = reports.iter().all(R::clean);
    json_doc(
        &format!("  \"seed\": {seed},\n"),
        reports.iter().map(R::to_json),
        &format!(",\n  \"clean\": {clean}"),
    )
}

/// Per-config metrics as a JSON document (`header` is the leading
/// `"key": value` line — seed count or replayed seed).
fn metrics_json<'a>(
    header: &str,
    per_config: impl Iterator<Item = (&'a str, &'a MetricsRegistry)>,
) -> String {
    let rows = per_config.map(|(label, reg)| {
        format!(
            "{{\"label\":\"{}\",\"metrics\":{}}}",
            json_escape(label),
            reg.to_json()
        )
    });
    json_doc(&format!("  {header},\n"), rows, "")
}

/// Writes `json` to `path`, naming the file in the error.
fn write_json(path: &str, json: &str) -> Result<(), String> {
    std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_harness::{AttackConfig, CrashConfig, HarnessConfig};

    /// The parse error for `argv` under kind `C`, or `None` if accepted.
    fn rejection<C: Campaign>(argv: &[&str]) -> Option<String> {
        parse_args::<C>(argv.iter().map(|a| a.to_string())).err()
    }

    #[test]
    fn parser_rejects_exactly_the_malformed_command_lines() {
        type Probe = fn(&[&str]) -> Option<String>;
        let fault: Probe = rejection::<HarnessConfig>;
        let attack: Probe = rejection::<AttackConfig>;
        let crash: Probe = rejection::<CrashConfig>;
        // (kind, argv, expected error fragment or None when accepted)
        let cases: &[(Probe, &[&str], Option<&str>)] = &[
            (fault, &["--seeds", "0"], Some("--seeds must be at least 1")),
            (attack, &["--seeds", "abc"], Some("--seeds: invalid digit")),
            (crash, &["--seeds"], Some("--seeds needs a number")),
            (fault, &["--seed"], Some("--seed needs a number")),
            (attack, &["--config"], Some("--config needs a label")),
            (crash, &["--json"], Some("--json needs a file path")),
            (
                fault,
                &["--metrics-json"],
                Some("--metrics-json needs a file path"),
            ),
            (
                fault,
                &["--seeds", "8", "--bogus"],
                Some("unknown argument \"--bogus\""),
            ),
            (fault, &["--trace"], Some("--trace needs --seed S")),
            (
                attack,
                &["--scattered", "--weakened"],
                Some("mutually exclusive"),
            ),
            (
                crash,
                &["--weakened", "--scattered"],
                Some("mutually exclusive"),
            ),
            (
                fault,
                &["--weakened"],
                Some("unknown argument \"--weakened\""),
            ),
            (
                attack,
                &["--seed", "1", "--trace"],
                Some("unknown argument \"--trace\""),
            ),
            (
                attack,
                &["--metrics-json", "m.json"],
                Some("unknown argument \"--metrics-json\""),
            ),
            (
                crash,
                &["--seed", "1", "--trace"],
                Some("unknown argument \"--trace\""),
            ),
            (
                crash,
                &["--config", "ctr-bat-mt"],
                Some("no config labelled \"ctr-bat-mt\""),
            ),
            (attack, &["--help"], Some("usage: attacksweep")),
            (
                fault,
                &["--seed", "3", "--trace", "--metrics-json", "m.json"],
                None,
            ),
            (
                fault,
                &["--scattered", "--config", "scat-bat-mt", "--list"],
                None,
            ),
            (
                attack,
                &["--weakened", "--config", "weak-nomt", "--json", "a.json"],
                None,
            ),
            (crash, &["--seeds", "2", "--scattered"], None),
        ];
        for (probe, argv, want) in cases {
            match (probe(argv), want) {
                (Some(got), Some(want)) => {
                    assert!(got.contains(want), "{argv:?}: {got:?} lacks {want:?}");
                }
                (got, want) => assert_eq!(got.is_some(), want.is_some(), "{argv:?}: {got:?}"),
            }
        }
    }
}
