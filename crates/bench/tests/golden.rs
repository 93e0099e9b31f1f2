//! Golden-output regression tests: ported scenarios must reproduce the
//! pre-harness figure binaries' stdout byte-for-byte.
//!
//! The files under `tests/golden/` are verbatim captures of the original
//! (pre-`ssync_exp`) binaries at default settings (`SSYNC_TRIALS=1`). The
//! ones that touch the waveform medium were re-pinned once, on purpose,
//! when the channel noise became counter-based and the CFO mixer
//! block-anchored; `tests/fidelity.rs` checks that what they show still
//! meets the paper.
//! Each scenario is rendered at one and at several worker threads — the
//! harness promises both match the serial legacy bytes exactly.

use ssync_bench::scenarios;
use ssync_exp::{golden, run_rendered, RunConfig};

fn check(name: &str, expected: &str) {
    let scenario = scenarios::find(name).expect("scenario registered");
    for threads in [1, 4] {
        let cfg = RunConfig {
            threads,
            ..Default::default()
        };
        golden::assert_matches(
            &format!("{name} (threads={threads})"),
            expected,
            &run_rendered(scenario, &cfg),
        );
    }
}

#[test]
fn fig05_phase_slope_matches_prerefactor_output() {
    check(
        "fig05_phase_slope",
        include_str!("golden/fig05_phase_slope.tsv"),
    );
}

#[test]
fn fig08_wait_lp_matches_prerefactor_output() {
    check("fig08_wait_lp", include_str!("golden/fig08_wait_lp.tsv"));
}

#[test]
fn fig14_delay_spread_matches_prerefactor_output() {
    check(
        "fig14_delay_spread",
        include_str!("golden/fig14_delay_spread.tsv"),
    );
}

#[test]
fn table_overhead_matches_prerefactor_output() {
    check("table_overhead", include_str!("golden/table_overhead.tsv"));
}

/// The two scenarios that drive the most joint transmissions, pinned when
/// the monolithic joint driver was replaced by the staged `JointSession`. They are checked at one multi-threaded worker count
/// here (they are the suite's slowest scenarios in the debug profile;
/// thread-count determinism is covered by `determinism.rs`), and CI's
/// `ssync-lab --check` step re-verifies both in release on every push.
#[test]
fn fig12_sync_error_matches_presession_output() {
    let scenario = scenarios::find("fig12_sync_error").expect("scenario registered");
    let cfg = RunConfig {
        threads: 4,
        ..Default::default()
    };
    golden::assert_matches(
        "fig12_sync_error (threads=4)",
        include_str!("golden/fig12_sync_error.tsv"),
        &run_rendered(scenario, &cfg),
    );
}

#[test]
fn fig13_cp_sweep_matches_presession_output() {
    let scenario = scenarios::find("fig13_cp_sweep").expect("scenario registered");
    let cfg = RunConfig {
        threads: 4,
        ..Default::default()
    };
    golden::assert_matches(
        "fig13_cp_sweep (threads=4)",
        include_str!("golden/fig13_cp_sweep.tsv"),
        &run_rendered(scenario, &cfg),
    );
}

/// Two further joint-transmission-heavy scenarios, pinned when the modem
/// grew its zero-allocation workspaces: the workspace paths promise
/// bit-identical signal processing, and these captures (taken immediately
/// before the refactor) enforce it end to end. Checked at one
/// multi-threaded worker count for the same reason as fig12/fig13 above.
#[test]
fn fig16_subcarrier_snr_matches_preworkspace_output() {
    let scenario = scenarios::find("fig16_subcarrier_snr").expect("scenario registered");
    let cfg = RunConfig {
        threads: 4,
        ..Default::default()
    };
    golden::assert_matches(
        "fig16_subcarrier_snr (threads=4)",
        include_str!("golden/fig16_subcarrier_snr.tsv"),
        &run_rendered(scenario, &cfg),
    );
}

/// The event-driven testbed's fault-injection sweep, pinned when the
/// testbed landed: the whole protocol stack (CSMA/CA contention, ARQ,
/// ExOR batch maps, joint frames, fault seams) must keep producing these
/// exact typed outcomes. Its siblings `testbed_multihop` and
/// `fig18_opportunistic` are pinned in `tests/golden/` too but replayed
/// only by CI's release-mode `ssync-lab --check` steps — their
/// measured-delivery link shaping makes a debug-profile render too slow
/// for the unit suite.
#[test]
fn testbed_fault_matches_pinned_output() {
    let scenario = scenarios::find("testbed_fault").expect("scenario registered");
    let cfg = RunConfig {
        threads: 4,
        ..Default::default()
    };
    golden::assert_matches(
        "testbed_fault (threads=4)",
        include_str!("golden/testbed_fault.tsv"),
        &run_rendered(scenario, &cfg),
    );
}

#[test]
fn ablation_combiner_matches_preworkspace_output() {
    let scenario = scenarios::find("ablation_combiner").expect("scenario registered");
    let cfg = RunConfig {
        threads: 4,
        ..Default::default()
    };
    golden::assert_matches(
        "ablation_combiner (threads=4)",
        include_str!("golden/ablation_combiner.tsv"),
        &run_rendered(scenario, &cfg),
    );
}

/// The §4.5 tracking ablation: one `JointSession` per frame under drifting
/// link delays, each co-sender header capture holding only the start of
/// the lead's data section. Fast enough to replay at one and at several
/// worker counts.
#[test]
fn ablation_tracking_matches_pinned_output() {
    check(
        "ablation_tracking",
        include_str!("golden/ablation_tracking.tsv"),
    );
}

/// N co-senders × 2 receivers with typed join-failure accounting: every
/// co-sender's header capture overlaps the start of the lead's data
/// section. Checked at one multi-threaded worker count for the same
/// reason as fig12/fig13 above; CI's `ssync-lab --check` step replays it
/// in release.
#[test]
fn session_matrix_matches_pinned_output() {
    let scenario = scenarios::find("session_matrix").expect("scenario registered");
    let cfg = RunConfig {
        threads: 4,
        ..Default::default()
    };
    golden::assert_matches(
        "session_matrix (threads=4)",
        include_str!("golden/session_matrix.tsv"),
        &run_rendered(scenario, &cfg),
    );
}

/// The LP residual-misalignment sweep over receivers × co-senders: 18
/// grid points × 100 seeded trials, pinned so that its per-point seeds and
/// row order stay fixed.
#[test]
fn sweep_wait_residual_matches_pinned_output() {
    check(
        "sweep_wait_residual",
        include_str!("golden/sweep_wait_residual.tsv"),
    );
}
