//! Domain-side experiment plumbing for the SourceSync evaluation: network
//! construction, SNR pinning, converged joint transmissions — plus the
//! [`scenarios`] module holding every figure reproduction as a declarative
//! `ssync_exp` scenario.
//!
//! Each scenario prints TSV to stdout (comment lines start with `#`),
//! scales its iteration counts with the `SSYNC_TRIALS` env var (e.g.
//! `SSYNC_TRIALS=4` for 4× the default sample counts), parallelises
//! across `SSYNC_THREADS` workers (default: all cores) without changing a
//! byte of output, and derives all randomness from fixed seeds so output
//! is reproducible byte-for-byte. The generic machinery (parallel
//! executor, sweeps, aggregation, sinks) lives in `ssync_exp`; this crate
//! contributes the physics.

// No unsafe anywhere in this crate: the determinism contract is easier
// to audit when all of the workspace's unsafe code sits in the fenced
// kernel tiers that `ssync_dsp::simd::tier()` dispatches: ssync_dsp's AVX2
// FFT and CFO-mixer kernels and its AVX2 and AVX-512 compiled twins, and
// ssync_phy's AVX2 and AVX-512 Viterbi kernels and AVX2 demap kernel (see
// DESIGN.md, "The SIMD layer and kernel tiers", and ssync_lint's
// `undocumented-unsafe` rule).
#![forbid(unsafe_code)]

pub mod scenarios;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssync_channel::{FloorPlan, Position};
use ssync_core::{
    CosenderPlan, DelayDatabase, JointConfig, JointOutcome, JointSession, SessionWorkspace,
};
use ssync_phy::Params;
use ssync_sim::{ChannelModels, Network, NodeId};

/// A two-sender + one-receiver placement with every link pinned to a
/// target mean SNR (the controlled sweep used by Figs. 12–13): geometry
/// (and hence true propagation delays) is random, link gains are
/// overridden after the draw.
pub fn pinned_snr_network(
    params: &Params,
    models: &ChannelModels,
    snr_db: f64,
    seed: u64,
) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let plan = FloorPlan::testbed();
    let positions: Vec<Position> = (0..3).map(|_| plan.random_position(&mut rng)).collect();
    let mut net = Network::build(&mut rng, params, &positions, models);
    pin_all_snrs(&mut net, snr_db);
    net
}

/// Overrides every link's amplitude gain so its mean SNR (including the
/// multipath realisation's unit power) equals `snr_db`.
pub fn pin_all_snrs(net: &mut Network, snr_db: f64) {
    let n = net.len();
    for i in 0..n {
        for j in 0..n {
            if i != j {
                pin_link(net, NodeId(i), NodeId(j), snr_db);
            }
        }
    }
}

/// Overrides one directed link's gain to a target mean SNR (delegates to
/// [`Network::pin_snr_db`], the shared pinning primitive).
pub fn pin_link(net: &mut Network, a: NodeId, b: NodeId, snr_db: f64) {
    net.pin_snr_db(a, b, snr_db);
}

/// The standard three-node cast of the synchronization experiments.
pub const LEAD: NodeId = NodeId(0);
/// The co-sender node.
pub const COSENDER: NodeId = NodeId(1);
/// The receiver node.
pub const RECEIVER: NodeId = NodeId(2);

/// One converged SourceSync joint transmission: probes the pairs, solves
/// waits, runs `warmup` tracking frames (§4.5 feedback), then returns the
/// final outcome and the converged wait.
pub fn converged_joint(
    net: &mut Network,
    rng: &mut StdRng,
    payload: &[u8],
    cfg: &JointConfig,
    n_probes: usize,
    warmup: usize,
) -> Option<(JointOutcome, f64)> {
    let mut db = DelayDatabase::new();
    if !db.measure_all(net, rng, &[LEAD, COSENDER, RECEIVER], n_probes) {
        return None;
    }
    let sol = db.wait_solution(LEAD, &[COSENDER], &[RECEIVER])?;
    let mut wait = sol.waits[0];
    for _ in 0..warmup {
        let out = run_once(net, rng, payload, cfg, &db, wait);
        if let Some(m) = out.reports[0].measured_misalign_s[0] {
            wait = ssync_core::tracking_update(wait, m);
        }
    }
    let out = run_once(net, rng, payload, cfg, &db, wait);
    Some((out, wait))
}

/// Runs one joint transmission with an explicit wait, through the staged
/// [`JointSession`] (identical in every byte to the historical monolithic
/// driver — the golden tests pin this).
pub fn run_once(
    net: &mut Network,
    rng: &mut StdRng,
    payload: &[u8],
    cfg: &JointConfig,
    db: &DelayDatabase,
    wait_s: f64,
) -> JointOutcome {
    let mut ws = SessionWorkspace::new(net.params.clone());
    JointSession::new(LEAD)
        .cosender(CosenderPlan {
            node: COSENDER,
            wait_s,
        })
        .receiver(RECEIVER)
        .payload(payload)
        .config(*cfg)
        .run_with(net, rng, db, &mut ws)
}

/// A random payload of `len` bytes.
pub fn random_payload(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssync_phy::OfdmParams;

    #[test]
    fn pinned_network_hits_target_snr() {
        let params = OfdmParams::dot11a();
        let models = ChannelModels::testbed(&params);
        let net = pinned_snr_network(&params, &models, 15.0, 1);
        for (a, b) in [(LEAD, COSENDER), (LEAD, RECEIVER), (COSENDER, RECEIVER)] {
            let snr = net.snr_db(a, b);
            assert!((snr - 15.0).abs() < 0.01, "{a}->{b}: {snr}");
        }
    }

    #[test]
    fn converged_joint_succeeds_at_high_snr() {
        let params = OfdmParams::dot11a();
        let models = ChannelModels::clean(&params);
        let mut net = pinned_snr_network(&params, &models, 25.0, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let payload = random_payload(&mut rng, 100);
        let cfg = JointConfig::default();
        let (out, _wait) =
            converged_joint(&mut net, &mut rng, &payload, &cfg, 2, 2).expect("converged");
        assert!(out.reports[0].header_ok);
        assert_eq!(out.reports[0].payload.as_deref(), Some(&payload[..]));
    }
}
