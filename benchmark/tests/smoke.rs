//! Small-size smoke runs of every workload: outputs pass their checks,
//! every metric `BENCHMARK.json` names is emitted, counts repeat for a
//! seed, and different seeds draw different inputs.
//!
//! Run with `cargo test --release` (the debug build works, slowly).

use ssync_perfbench::{city, joint, run, rx, Args, Report, Size, Workload};
use std::collections::BTreeSet;

/// Metric names listed under `section` in the repository's BENCHMARK.json.
fn listed(section: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = doc
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &doc[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn smoke(workload: Workload, seed: u64, trace: bool) -> Report {
    let args = Args {
        workload,
        seed,
        seconds: 0.0,
        trace,
    };
    run(&args, Size::Smoke)
}

fn names(report: &Report) -> BTreeSet<String> {
    report.metrics.iter().map(|m| m.name.clone()).collect()
}

fn assert_clean(report: &Report) {
    assert!(report.attempted >= 1);
    assert_eq!(report.failed, 0, "{report:?}");
    assert!(report.json().starts_with("{\"correct\": true,"));
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let expected = listed("end_to_end");
    assert_eq!(expected.len(), 5);
    for w in Workload::ALL {
        let report = smoke(w, 1, false);
        assert_clean(&report);
        assert_eq!(names(&report), expected, "{}", w.name());
        for m in &report.metrics {
            assert!(m.value > 0.0, "{} {} is {}", w.name(), m.name, m.value);
        }
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric_and_counts_repeat() {
    let first = smoke(Workload::Rx, 5, true);
    assert_clean(&first);
    assert_eq!(names(&first), listed("per_layer"));
    let again = smoke(Workload::City, 5, true);
    assert_clean(&again);
    // Counts, and the ratios of counts, repeat exactly for a seed.
    let count_ratios = [
        "phy.rx.decoded_ratio",
        "core.join.joined_ratio",
        "core.decode.ok_ratio",
        "testbed.delivered_ratio",
    ];
    let counts = |r: &Report| -> Vec<(String, f64)> {
        r.metrics
            .iter()
            .filter(|m| m.unit == "count" || count_ratios.contains(&m.name.as_str()))
            .map(|m| (m.name.clone(), m.value))
            .collect()
    };
    assert!(counts(&first).len() >= 24);
    assert_eq!(
        counts(&first),
        counts(&again),
        "counts differ between runs of one seed"
    );
    let decoded = first.metrics.iter().find(|m| m.name == "phy.rx.decoded");
    assert!(decoded.is_some_and(|m| m.value > 0.0));
}

#[test]
fn seeds_draw_different_inputs() {
    let (a, b) = (rx::setup(1, Size::Smoke), rx::setup(2, Size::Smoke));
    assert_eq!(a.pool.len(), b.pool.len());
    assert!(a
        .pool
        .iter()
        .zip(&b.pool)
        .all(|(x, y)| x.samples != y.samples));
    let again = rx::setup(1, Size::Smoke);
    assert!(a
        .pool
        .iter()
        .zip(&again.pool)
        .all(|(x, y)| x.samples == y.samples));

    let (a, b) = (joint::setup(1, Size::Smoke), joint::setup(2, Size::Smoke));
    assert!(a
        .placements
        .iter()
        .zip(&b.placements)
        .any(|(x, y)| x.payload() != y.payload()));

    let (a, b) = (
        city::setup(1, Size::Smoke, 2),
        city::setup(2, Size::Smoke, 2),
    );
    let position = |i: &city::Inputs| i.cities[0].city.net.nodes[0].position;
    assert_ne!(position(&a), position(&b));
}
