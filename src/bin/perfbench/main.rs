//! The repository benchmark: the §5 baseline against Silent Shredder on
//! identical seeded inputs, measured on the host clock and the simulated
//! clock. See `README.md` in this directory for the workloads, the
//! metrics and which layer metric moves which end-to-end metric.
//!
//! ```text
//! cargo run --release --bin perfbench -- \
//!     --workload spec_mix|counter_pressure|tenant_churn
//!     [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! Prints every metric with its unit, then, as the last line of standard
//! output, one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Writes both configurations' simulated
//! statistics with their digest, and with `--trace 1` the span log, to
//! `DIR` (default `perfbench-out`). Exits 0 when every check passed.
// lint:allow-file(DET-002): command-line arguments select the workload, seed and budget; they do not enter simulated state

#![forbid(unsafe_code)]

mod bench;
mod churn;
mod input;
mod probes;
mod report;
mod segments;
#[cfg(test)]
mod selftest;
mod spans;
mod stats;
mod system;

use std::path::PathBuf;
use std::process::ExitCode;

use bench::{Checks, Measured, Options, Pair, RunData};
use input::{Size, Workload, DEFAULT_SEED};

struct Cli {
    opts: Options,
    out: PathBuf,
}

fn parse_args() -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out = PathBuf::from("perfbench-out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Cli {
        opts: Options {
            workload,
            seed,
            seconds,
            trace,
            size: Size::Bench,
        },
        out,
    })
}

fn write_outputs(cli: &Cli, data: &RunData) -> std::io::Result<()> {
    std::fs::create_dir_all(&cli.out)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        cli.opts.workload.name(),
        cli.opts.seed,
        u8::from(cli.opts.trace)
    );
    if let Some(first) = data.untraced.pairs.first() {
        std::fs::write(
            cli.out.join(format!("{stem}-stats.json")),
            stats::render(&first.stats),
        )?;
    }
    if cli.opts.trace {
        std::fs::write(cli.out.join(format!("{stem}-spans.csv")), data.log.render())?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let data = bench::run(&cli.opts);
    let mut report = report::build(&data, cli.opts.trace);
    if let Err(e) = write_outputs(&cli, &data) {
        report.notes.push(format!(
            "could not write outputs to {}: {e}",
            cli.out.display()
        ));
        report.correct = false;
    }
    println!(
        "perfbench {} seed {} ({}):",
        cli.opts.workload.name(),
        cli.opts.seed,
        if cli.opts.trace {
            "traced, per-layer"
        } else {
            "untraced, end-to-end"
        }
    );
    print!("{}", report.table());
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
