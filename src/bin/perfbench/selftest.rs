//! Self-test of the benchmark at the tiny input size: every metric named
//! in `BENCHMARK.json` is reported with its unit, simulated-clock metrics
//! repeat exactly, the traced run reproduces the untraced statistics,
//! and the layer estimates plus the unattributed rest add up to
//! `sim.run_s`, with no estimate negative and none of them together
//! larger than `sim.run_s`.

use crate::bench::{run, Options};
use crate::input::{Size, Workload};
use crate::report::{self, Report};

/// `BENCHMARK.json` at the repository root.
fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// `(name, unit)` of every entry of one metric list of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let json = benchmark_json();
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|entry| {
            let (name, rest) = entry.split_once('"').expect("name closes");
            let unit = rest
                .split_once("\"unit\": \"")
                .and_then(|(_, u)| u.split_once('"'))
                .map(|(u, _)| u)
                .expect("unit present");
            (name.to_string(), unit.to_string())
        })
        .collect()
}

fn tiny(workload: Workload, trace: bool) -> Report {
    let data = run(&Options {
        workload,
        seed: 7,
        seconds: 0.01,
        trace,
        size: Size::Tiny,
    });
    report::build(&data, trace)
}

fn sim_metrics(r: &Report) -> Vec<(String, f64)> {
    let host = ["setup_s", "mem_ops_per_s", "peak_rss_mib"];
    r.metrics
        .iter()
        .filter(|m| !host.contains(&m.name.as_str()))
        .map(|m| (m.name.clone(), m.value))
        .collect()
}

fn assert_reports(r: &Report, section: &str) {
    assert!(r.correct, "checks failed: {:?}", r.notes);
    assert_eq!(r.failed, 0);
    assert!(r.attempted > 0);
    let got: Vec<(String, String)> = r
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    assert_eq!(
        got,
        declared(section),
        "{section} metrics differ from BENCHMARK.json"
    );
    let line = r.json();
    for m in &r.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        assert!(
            line.contains(&format!("\"{}\": {{\"value\": ", m.name))
                && line.contains(&format!("\"unit\": \"{}\"", m.unit)),
            "{} missing from the result line",
            m.name
        );
    }
}

#[test]
fn end_to_end_metrics_print_and_simulated_ones_repeat() {
    for w in Workload::ALL {
        let first = tiny(w, false);
        assert_reports(&first, "end_to_end");
        for m in &first.metrics {
            assert!(m.value > 0.0, "{}: {} is 0", w.name(), m.name);
        }
        let second = tiny(w, false);
        assert_eq!(sim_metrics(&first), sim_metrics(&second), "{}", w.name());
    }
}

#[test]
fn per_layer_metrics_print_and_add_up() {
    for w in Workload::ALL {
        let r = tiny(w, true);
        assert_reports(&r, "per_layer");
        let v = |name: &str| {
            r.metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect(name)
        };
        let known = v("cache.est_s") + v("crypto.est_s") + v("nvm.est_s");
        let parts = known + v("sim.unattributed_s");
        assert!(
            (parts - v("sim.run_s")).abs() <= 1e-9 * v("sim.run_s").max(1.0),
            "{}: layer estimates {parts} != sim.run_s {}",
            w.name(),
            v("sim.run_s")
        );
        // The identity holds by construction; the estimates must also be
        // plausible: none negative, and together no more than the run.
        for est in ["cache.est_s", "crypto.est_s", "nvm.est_s"] {
            assert!(v(est) >= 0.0, "{}: {est} = {}", w.name(), v(est));
        }
        assert!(
            known <= v("sim.run_s"),
            "{}: layer estimates {known} exceed sim.run_s {}",
            w.name(),
            v("sim.run_s")
        );
        if w == Workload::TenantChurn {
            for m in [
                "base.cache.lookups",
                "shredder.cache.lookups",
                "cache.est_s",
                "shredder.os.major_faults",
            ] {
                assert_eq!(v(m), 0.0, "{m} on tenant_churn");
            }
            assert!(v("core.read_block.ns_p50") > 0.0);
        } else {
            assert!(v("shredder.cache.lookups") > 0.0);
            assert_eq!(v("shredder.core.zeroing_writes"), 0.0);
            assert_eq!(v("base.core.shreds"), 0.0);
        }
    }
}

#[test]
fn declared_lists_are_complete() {
    assert_eq!(declared("end_to_end").len(), report::END_TO_END.len());
    assert_eq!(
        declared("per_layer").len(),
        report::per_layer_catalog().len()
    );
}
