//! Byte-identity and red-exit gates for the sweep and bench binaries.
//!
//! Every `ci/*.golden.*` file is the output of one 8-seed sweep run.
//! The sweeps are pure functions of their seed sets: no wall-clock, no
//! environment, DetRng-only randomness, no floating point in cycle or
//! energy accounting. [`RUNS`] names the run behind each golden;
//! `every_ci_golden_is_byte_identical` reruns them and compares bytes,
//! and fails if `ci/` holds a golden no run produces. Any intentional
//! behaviour change must regenerate the affected goldens in the same
//! commit, for example:
//!
//! ```text
//! cargo run --release -p ss-bench --bin faultsweep -- --scattered --seeds 8 \
//!     --json ci/faultsweep-scattered-seeds8.golden.json \
//!     --metrics-json ci/faultsweep-metrics-scattered-seeds8.golden.json \
//!     > ci/faultsweep-scattered-seeds8.golden.txt
//! ```
//!
//! [`BENCH_REPORTS`] does the same for the committed `BENCH_*.json`
//! reports at the repository root (regenerate with, e.g.,
//! `cargo run --release -p ss-bench --bin shardbench -- --json
//! BENCH_sharding.json`); both benches also exit red when their own
//! gate fails.
//!
//! The red-exit tests prove each sweep gate can fire by running a
//! deliberately weakened configuration and demanding a nonzero exit.
//! CI runs this file against release binaries
//! (`cargo test --release -p ss-bench --test goldens`).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

/// One sweep invocation and the goldens its outputs must match.
struct Run {
    exe: &'static str,
    args: &'static [&'static str],
    text: &'static str,
    json: &'static str,
    metrics: Option<&'static str>,
}

const RUNS: &[Run] = &[
    Run {
        exe: env!("CARGO_BIN_EXE_faultsweep"),
        args: &[],
        text: "faultsweep-seeds8.golden.txt",
        json: "faultsweep-seeds8.golden.json",
        metrics: Some("faultsweep-metrics-seeds8.golden.json"),
    },
    Run {
        exe: env!("CARGO_BIN_EXE_faultsweep"),
        args: &["--scattered"],
        text: "faultsweep-scattered-seeds8.golden.txt",
        json: "faultsweep-scattered-seeds8.golden.json",
        metrics: Some("faultsweep-metrics-scattered-seeds8.golden.json"),
    },
    Run {
        exe: env!("CARGO_BIN_EXE_attacksweep"),
        args: &[],
        text: "attacksweep-seeds8.golden.txt",
        json: "attacksweep-seeds8.golden.json",
        metrics: None,
    },
    Run {
        exe: env!("CARGO_BIN_EXE_attacksweep"),
        args: &["--scattered"],
        text: "attacksweep-scattered-seeds8.golden.txt",
        json: "attacksweep-scattered-seeds8.golden.json",
        metrics: None,
    },
    Run {
        exe: env!("CARGO_BIN_EXE_crashsweep"),
        args: &[],
        text: "crashsweep-seeds8.golden.txt",
        json: "crashsweep-seeds8.golden.json",
        metrics: None,
    },
    Run {
        exe: env!("CARGO_BIN_EXE_crashsweep"),
        args: &["--scattered"],
        text: "crashsweep-scattered-seeds8.golden.txt",
        json: "crashsweep-scattered-seeds8.golden.json",
        metrics: None,
    },
];

/// Each bench binary and its committed `--json` report at the
/// repository root. Kept apart from [`RUNS`], which covers `ci/`
/// exactly.
const BENCH_REPORTS: &[(&str, &str)] = &[
    (env!("CARGO_BIN_EXE_protbench"), "BENCH_protection.json"),
    (env!("CARGO_BIN_EXE_shardbench"), "BENCH_sharding.json"),
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn ci_dir() -> PathBuf {
    repo_root().join("ci")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Runs one sweep, writing its JSON outputs next to the test binary
/// under the golden's own name, and returns the goldens it diverged
/// from.
fn drifted(run: &Run) -> Vec<&'static str> {
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let json_out = scratch.join(run.json);
    let mut cmd = Command::new(run.exe);
    cmd.args(run.args)
        .args(["--seeds", "8", "--json"])
        .arg(&json_out);
    if let Some(metrics) = run.metrics {
        cmd.arg("--metrics-json").arg(scratch.join(metrics));
    }
    let output = cmd.output().expect("running sweep");
    assert!(
        output.status.success(),
        "{} {:?} failed:\n{}",
        run.exe,
        run.args,
        String::from_utf8_lossy(&output.stderr)
    );
    let text = String::from_utf8(output.stdout).expect("utf8 report");
    let mut outputs = vec![(run.text, text), (run.json, read(&json_out))];
    if let Some(metrics) = run.metrics {
        outputs.push((metrics, read(&scratch.join(metrics))));
    }
    outputs
        .into_iter()
        .filter(|(golden, got)| *got != read(&ci_dir().join(golden)))
        .map(|(golden, _)| golden)
        .collect()
}

#[test]
fn every_ci_golden_is_byte_identical() {
    let on_disk: BTreeSet<String> = std::fs::read_dir(ci_dir())
        .expect("listing ci/")
        .map(|e| {
            e.expect("ci/ entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| name.contains(".golden."))
        .collect();
    let covered: BTreeSet<String> = RUNS
        .iter()
        .flat_map(|r| [Some(r.text), Some(r.json), r.metrics])
        .flatten()
        .map(str::to_owned)
        .collect();
    assert_eq!(on_disk, covered, "every ci/ golden needs a run in RUNS");

    let drift: Vec<&str> = std::thread::scope(|s| {
        let handles: Vec<_> = RUNS.iter().map(|r| s.spawn(|| drifted(r))).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep thread"))
            .collect()
    });
    assert!(drift.is_empty(), "reports drifted from ci/: {drift:?}");
}

#[test]
fn every_bench_report_is_byte_identical() {
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let drift: Vec<&str> = std::thread::scope(|s| {
        let handles: Vec<_> = BENCH_REPORTS
            .iter()
            .map(|&(exe, report)| {
                s.spawn(move || {
                    let fresh = scratch.join(report);
                    let output = Command::new(exe)
                        .arg("--json")
                        .arg(&fresh)
                        .output()
                        .expect("running bench");
                    assert!(
                        output.status.success(),
                        "{exe} failed:\n{}",
                        String::from_utf8_lossy(&output.stdout)
                    );
                    (read(&fresh) != read(&repo_root().join(report))).then_some(report)
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("bench thread"))
            .collect()
    });
    assert!(
        drift.is_empty(),
        "reports drifted from the repository root: {drift:?}"
    );
}

/// Runs a sweep and returns whether it exited green, plus its report.
fn run_sweep(exe: &str, args: &[&str]) -> (bool, String) {
    let output = Command::new(exe)
        .args(args)
        .output()
        .expect("running sweep");
    let text = String::from_utf8(output.stdout).expect("utf8 report");
    (output.status.success(), text)
}

#[test]
fn attacksweep_weakened_config_exits_red() {
    let (green, text) = run_sweep(
        env!("CARGO_BIN_EXE_attacksweep"),
        &["--weakened", "--seeds", "2"],
    );
    assert!(
        !green,
        "the weakened (no-Merkle) config must turn the sweep red"
    );
    assert!(
        text.contains("result: FAILED"),
        "weakened sweep must report FAILED:\n{text}"
    );
    assert!(
        text.contains("replay with: attacksweep --config weak-nomt --seed 0"),
        "failures must print a replay line:\n{text}"
    );
}

#[test]
fn attacksweep_replay_of_campaign_seed_is_clean() {
    let (green, text) = run_sweep(env!("CARGO_BIN_EXE_attacksweep"), &["--seed", "0"]);
    assert!(
        green,
        "replay of a clean campaign seed must stay clean:\n{text}"
    );
    // Replay shows the full step scripts, including per-shard scans.
    assert!(text.contains("adversary: cold scan"));
    assert!(text.contains("config=ctr-bat-mt-x8"));
}

#[test]
fn crashsweep_weakened_config_exits_red() {
    let (green, text) = run_sweep(
        env!("CARGO_BIN_EXE_crashsweep"),
        &["--weakened", "--seeds", "2"],
    );
    assert!(
        !green,
        "the weakened (no-recovery) config must turn the sweep red"
    );
    assert!(
        text.contains("result: FAILED"),
        "weakened sweep must report FAILED:\n{text}"
    );
    assert!(
        text.contains("replay with: crashsweep --config weakened-norecovery --seed 0"),
        "failures must print a replay line:\n{text}"
    );
}

#[test]
fn crashsweep_replay_of_campaign_seed_is_clean() {
    let (green, text) = run_sweep(env!("CARGO_BIN_EXE_crashsweep"), &["--seed", "0"]);
    assert!(
        green,
        "replay of a clean campaign seed must stay clean:\n{text}"
    );
    // Replay shows full per-crash-point records, including the torn
    // variants and the sharded drain.
    assert!(text.contains("torn 32"));
    assert!(text.contains("config=adr-wt-x8"));
    assert!(text.contains("shred-drain"));
}
