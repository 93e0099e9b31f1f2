//! The city determinism contract, end to end: a sharded city run must
//! produce (1) identical outcomes and artifact bytes at every thread
//! count, and (2) the *same bytes* on the simd and scalar builds —
//! enforced by a pinned FNV-1a hash that compiles in every feature mode,
//! so both CI jobs must reproduce it (the same cross-build differential
//! trick as `ssync_bench`'s `trace_determinism` and `ssync_phy`'s pinned
//! receive-chain hash).
//!
//! The vehicle is a debug-fast 16-node city (2×2 blocks): big enough that
//! every region runs the full stack and the backhaul chain crosses three
//! hops, small enough for the unit-test profile. The 504-node scenario is
//! covered by its release-mode golden (`testbed_city`, CI `--check`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use ssync_channel::CityPlan;
use ssync_phy::{OfdmParams, RateId};
use ssync_sim::ChannelModels;
use ssync_testbed::{run_city_observed, CityConfig, CityNetwork, RoutingMode, TestbedConfig};

fn small_city() -> CityNetwork {
    let params = OfdmParams::dot11a();
    let plan = CityPlan {
        blocks_x: 2,
        blocks_y: 2,
        block_m: 20.0,
        street_m: 100.0,
        nodes_per_block: 4,
    };
    let mut rng = StdRng::seed_from_u64(41);
    CityNetwork::build(
        &mut rng,
        &params,
        &plan,
        &ChannelModels::testbed(&params),
        40.0,
    )
}

/// One observed city run rendered to canonical bytes: the typed outcome's
/// debug form, every region's merged trace events, and every region's
/// metrics snapshot through the shared sink IR.
fn canonical_city_bytes(threads: usize) -> (String, String) {
    let city = small_city();
    let cfg = CityConfig {
        threads,
        ..CityConfig::new(TestbedConfig {
            batch_size: 4,
            payload_len: 64,
            ..TestbedConfig::new(RateId::R12, RoutingMode::ExorSourceSync)
        })
    };
    let (outcome, artifacts) = run_city_observed(&city, 23, &cfg, true);
    let mut trace = String::new();
    let mut metrics = String::new();
    for (k, (rec, reg)) in artifacts.iter().enumerate() {
        trace.push_str(&format!("region{k}: {:?}\n", rec.merged()));
        metrics.push_str(&format!("region{k}:\n"));
        metrics.push_str(&ssync_exp::sink::render_tsv(&reg.snapshot()));
    }
    (format!("{outcome:?}\n{trace}"), metrics)
}

/// FNV-1a over a byte stream (the same constants as `ssync_phy`'s pinned
/// diagnostic hash and `ssync_bench`'s trace hashes).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

#[test]
fn city_bytes_are_thread_count_invariant() {
    let (out1, metrics1) = canonical_city_bytes(1);
    let (out8, metrics8) = canonical_city_bytes(8);
    assert_eq!(out1, out8, "city outcome/trace diverged at 8 threads");
    assert_eq!(metrics1, metrics8, "city metrics diverged at 8 threads");
}

/// The city bytes pinned across builds: this test compiles in every
/// feature mode, so the `simd` and scalar CI jobs must both reproduce
/// these hashes. Any divergence in the ranged builder, the region
/// partition, the per-region protocol run, or the analytic backhaul moves
/// a hash.
#[test]
fn city_bytes_are_build_invariant() {
    let (out, metrics) = canonical_city_bytes(2);
    assert_eq!(
        fnv1a(out.as_bytes()),
        PINNED_CITY_HASH,
        "city outcome/trace bytes diverged from the pinned capture ({} bytes)",
        out.len()
    );
    assert_eq!(
        fnv1a(metrics.as_bytes()),
        PINNED_CITY_METRICS_HASH,
        "city metrics bytes diverged from the pinned capture:\n{metrics}"
    );
}

/// Pinned by running the seeded 16-node city on the simd build; the
/// scalar build must reproduce them exactly.
const PINNED_CITY_HASH: u64 = 14060060812904722502;
const PINNED_CITY_METRICS_HASH: u64 = 18115434992190928052;
