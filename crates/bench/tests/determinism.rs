//! The harness determinism contract, end to end: a nontrivial sweep must
//! serialize to byte-identical output at 1, 2, and 8 worker threads, in
//! both formats. Completion order under contention is effectively random,
//! so any order-dependence in collection or aggregation shows up here.

use ssync_bench::scenarios;
use ssync_exp::{run_rendered, Format, RunConfig};

fn render(name: &str, threads: usize, format: Format) -> String {
    let scenario = scenarios::find(name).expect("scenario registered");
    run_rendered(
        scenario,
        &RunConfig {
            threads,
            trials_scale: 1,
            format,
        },
    )
}

/// 18 grid points × 100 trials on one flat `par_map` — enough jobs that
/// workers genuinely interleave.
#[test]
fn sweep_scenario_is_byte_identical_across_thread_counts() {
    for format in [Format::Tsv, Format::Json] {
        let serial = render("sweep_wait_residual", 1, format);
        assert!(!serial.is_empty());
        for threads in [2, 8] {
            assert_eq!(
                serial,
                render("sweep_wait_residual", threads, format),
                "sweep_wait_residual diverged at {threads} threads ({format:?})"
            );
        }
    }
}

/// The event-driven testbed: one full protocol run per fault class
/// through `ssync_testbed::run_transfer_observed`. Identical seeds must give
/// byte-identical output across two renders and across 1/8 workers —
/// the event loop, the per-exchange RNG draws, and the fault seams all
/// sit behind the harness determinism contract.
#[test]
fn testbed_scenario_is_byte_identical_across_runs_and_thread_counts() {
    let first = render("testbed_fault", 1, Format::Tsv);
    assert!(!first.is_empty());
    let again = render("testbed_fault", 1, Format::Tsv);
    assert_eq!(first, again, "testbed_fault diverged between two runs");
    assert_eq!(
        first,
        render("testbed_fault", 8, Format::Tsv),
        "testbed_fault diverged at 8 threads"
    );
}

/// The serial-draw + parallel-solve split of fig08 (1200 LP jobs).
#[test]
fn fig08_is_byte_identical_across_thread_counts() {
    let serial = render("fig08_wait_lp", 1, Format::Tsv);
    for threads in [2, 8] {
        assert_eq!(
            serial,
            render("fig08_wait_lp", threads, Format::Tsv),
            "fig08_wait_lp diverged at {threads} threads"
        );
    }
}
