//! The observability determinism contract, end to end: running a
//! scenario observed must (1) leave its rendered output byte-identical
//! to the unobserved run, (2) produce byte-identical trace and metric
//! artifacts at every thread count, and (3) produce the *same bytes* on
//! the simd and scalar builds — enforced by a pinned FNV-1a hash that
//! compiles in every feature mode, so both CI jobs must reproduce it
//! (the same cross-build differential trick as
//! `ssync_phy`'s pinned receive-chain hash).
//!
//! `testbed_fault` is the vehicle: it drives every protocol seam (DCF
//! contention, ARQ, ExOR maps, joint frames, fault injectors) and is the
//! cheap member of the testbed pair (`testbed_multihop`'s link shaping
//! is release-only; CI's trace-smoke step covers it).

use ssync_bench::scenarios;
use ssync_exp::{run_rendered, Format, RunConfig};
use ssync_obs::run_observed_rendered;

/// Rendered output, Chrome trace JSON, and metrics TSV of an observed
/// `testbed_fault` run at `threads` workers.
fn observed_fault(threads: usize) -> (String, String, String) {
    let scenario = scenarios::find_observable("testbed_fault").expect("testbed_fault observable");
    let cfg = RunConfig {
        threads,
        trials_scale: 1,
        format: Format::Tsv,
    };
    let (rendered, obs) = run_observed_rendered(scenario, &cfg);
    let metrics = ssync_exp::sink::render_tsv(&obs.metrics_snapshot());
    (rendered, obs.chrome_trace_json(), metrics)
}

/// FNV-1a over a byte stream (the same constants as
/// `ssync_phy`'s pinned diagnostic hash).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

#[test]
fn observed_run_matches_unobserved_and_is_thread_count_invariant() {
    let plain = run_rendered(
        scenarios::find("testbed_fault").expect("registered"),
        &RunConfig {
            threads: 1,
            trials_scale: 1,
            format: Format::Tsv,
        },
    );
    let (out1, trace1, metrics1) = observed_fault(1);
    let (out8, trace8, metrics8) = observed_fault(8);

    // Tracing never perturbs the scenario's own bytes.
    assert_eq!(plain, out1, "observing testbed_fault changed its output");
    assert_eq!(out1, out8, "observed output diverged at 8 threads");

    // The artifacts themselves are part of the determinism contract.
    assert_eq!(trace1, trace8, "chrome trace diverged at 8 threads");
    assert_eq!(metrics1, metrics8, "metrics snapshot diverged at 8 threads");

    // Structural sanity: the trace is a Chrome trace-event JSON object
    // with one named process per (case, trial) track and real protocol
    // events on node lanes.
    assert!(trace1.starts_with("{\"traceEvents\": [\n"));
    assert!(trace1.ends_with("]}\n"));
    assert!(trace1.contains("\"name\": \"process_name\""));
    assert!(trace1.contains("\"args\": {\"name\": \"baseline/t0\"}"));
    assert!(trace1.contains("\"args\": {\"name\": \"sp_ack_drop/t0\"}"));
    for event in [
        "dcf_attempt",
        "frame_tx",
        "frame_rx",
        "joint_lead",
        "join_outcome",
    ] {
        assert!(
            trace1.contains(&format!("\"name\": \"{event}\"")),
            "trace is missing {event} events"
        );
    }
    // The metrics snapshot carries the run counters and rx diagnostics.
    assert!(metrics1.contains("delivered"));
    assert!(metrics1.contains("rx_snr_db"));
    assert!(metrics1.contains("lookup_miss_exchange_empty"));
}

/// The artifact bytes pinned across builds: this test compiles in every
/// feature mode, so the `simd` and scalar builds must both reproduce
/// these hashes for the suite to pass in both CI jobs. Any divergence in
/// the signal-processing kernels, the event timestamps, or the renderers
/// moves a hash.
#[test]
fn trace_and_metric_bytes_are_build_invariant() {
    let (_, trace, metrics) = observed_fault(1);
    assert_eq!(
        fnv1a(trace.as_bytes()),
        PINNED_TRACE_HASH,
        "chrome trace bytes diverged from the pinned capture ({} bytes)",
        trace.len()
    );
    assert_eq!(
        fnv1a(metrics.as_bytes()),
        PINNED_METRICS_HASH,
        "metrics snapshot bytes diverged from the pinned capture:\n{metrics}"
    );
}

/// Pinned by running the seeded `testbed_fault` capture on the simd
/// build; the scalar build must reproduce them exactly.
const PINNED_TRACE_HASH: u64 = 15384758421313271441;
const PINNED_METRICS_HASH: u64 = 852482210097652790;
