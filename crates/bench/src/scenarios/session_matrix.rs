//! `session_matrix`: the N-co-sender × M-receiver protocol scan the
//! monolithic driver could never express.
//!
//! For each (co-sender count, SNR) cell, random testbed placements run a
//! full staged [`JointSession`]: probe-based delay measurement, the
//! multi-receiver min-max LP, then one joint frame decoded at *two*
//! receivers. Reported per cell: how many co-senders joined, the decode
//! rate across both receivers, and the typed join-failure breakdown that
//! the staged API surfaces (the monolithic driver's silent `continue`s
//! made these counts unmeasurable).
//!
//! Output: TSV
//! `n_cosenders  snr_db  placements  joined_mean  decode_rate  no_detect  missing_delay  other_failure`.

use crate::random_payload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ssync_channel::{FloorPlan, Position};
use ssync_core::{
    CosenderPlan, DelayDatabase, JoinFailure, JointConfig, JointSession, SessionWorkspace,
};
use ssync_dsp::stats::mean;
use ssync_exp::{Ctx, Output, Scenario, Value};
use ssync_phy::{OfdmParams, RateId};
use ssync_sim::{ChannelModels, Network, NodeId};

/// See the module docs.
pub struct SessionMatrix;

/// Receivers per session (both the placement builder and the decode-rate
/// denominator key off this).
const N_RX: usize = 2;

/// Per-placement result: joined count, decodes (of [`N_RX`] receivers),
/// and the failure tally `(no_detect, missing_delay, other)`.
type Cell = (usize, usize, (usize, usize, usize));

fn one_placement(params: &ssync_phy::Params, n_co: usize, snr_db: f64, seed: u64) -> Option<Cell> {
    let models = ChannelModels::testbed(params);
    let mut rng = StdRng::seed_from_u64(seed);
    let plan = FloorPlan::testbed();
    let n_nodes = 1 + n_co + N_RX;
    let positions: Vec<Position> = (0..n_nodes)
        .map(|_| plan.random_position(&mut rng))
        .collect();
    let mut net = Network::build(&mut rng, params, &positions, &models);
    crate::pin_all_snrs(&mut net, snr_db);

    let nodes: Vec<NodeId> = (0..n_nodes).map(NodeId).collect();
    let mut db = DelayDatabase::new();
    if !db.measure_all(&mut net, &mut rng, &nodes, 2) {
        return None;
    }
    let cos: Vec<NodeId> = (1..=n_co).map(NodeId).collect();
    let receivers: Vec<NodeId> = (1 + n_co..n_nodes).map(NodeId).collect();
    let sol = db.wait_solution(NodeId(0), &cos, &receivers)?;

    let payload = random_payload(&mut rng, 120);
    let mut ws = SessionWorkspace::new(net.params.clone());
    let out = JointSession::new(NodeId(0))
        .cosenders(
            cos.iter()
                .zip(&sol.waits)
                .map(|(&node, &wait_s)| CosenderPlan { node, wait_s }),
        )
        .receivers(receivers.iter().copied())
        .payload(payload.clone())
        .config(JointConfig {
            rate: RateId::R6,
            cp_extension: 32,
            ..Default::default()
        })
        .run_with(&mut net, &mut rng, &db, &mut ws);

    let decodes = out
        .reports
        .iter()
        .filter(|r| r.payload.as_deref() == Some(&payload[..]))
        .count();
    let mut fails = (0usize, 0usize, 0usize);
    for (_, failure) in out.join_failures() {
        match failure {
            JoinFailure::NoDetect => fails.0 += 1,
            JoinFailure::MissingDelay { .. } => fails.1 += 1,
            _ => fails.2 += 1,
        }
    }
    Some((out.joined_count(), decodes, fails))
}

impl Scenario for SessionMatrix {
    fn name(&self) -> &'static str {
        "session_matrix"
    }

    fn title(&self) -> &'static str {
        "Staged JointSession scan: co-sender count x SNR, two receivers"
    }

    fn paper_ref(&self) -> &'static str {
        "§4.4/§6"
    }

    fn run(&self, ctx: &Ctx, out: &mut Output) {
        let params = OfdmParams::wiglan();
        let placements = ctx.trials(8);
        let co_counts = [1usize, 2, 3];
        let snrs = [9.0f64, 14.0, 20.0];

        out.comment("session_matrix: staged N-co-sender x 2-receiver joint sessions");
        out.comment("numerology: wiglan; all links pinned; LP waits over both receivers");
        out.columns(&[
            "n_cosenders",
            "snr_db",
            "placements",
            "joined_mean",
            "decode_rate",
            "no_detect",
            "missing_delay",
            "other_failure",
        ]);

        let cells = co_counts.len() * snrs.len();
        let results = ctx.par_map(cells * placements, |i| {
            let (cell, p) = (i / placements, i % placements);
            let (ci, si) = (cell / snrs.len(), cell % snrs.len());
            let seed = ssync_exp::trial_seed(310_000, cell as u64, p as u64);
            one_placement(&params, co_counts[ci], snrs[si], seed)
        });

        for (cell, chunk) in results.chunks(placements).enumerate() {
            let (ci, si) = (cell / snrs.len(), cell % snrs.len());
            let ok: Vec<&Cell> = chunk.iter().flatten().collect();
            if ok.is_empty() {
                out.row(vec![
                    Value::Int(co_counts[ci] as i64),
                    Value::F(snrs[si], 1),
                    Value::Int(0),
                    Value::s("NA"),
                    Value::s("NA"),
                    Value::Int(0),
                    Value::Int(0),
                    Value::Int(0),
                ]);
                continue;
            }
            let joined = mean(&ok.iter().map(|c| c.0 as f64).collect::<Vec<_>>());
            let decode = ok.iter().map(|c| c.1).sum::<usize>() as f64 / ((N_RX * ok.len()) as f64);
            let no_detect: usize = ok.iter().map(|c| c.2 .0).sum();
            let missing: usize = ok.iter().map(|c| c.2 .1).sum();
            let other: usize = ok.iter().map(|c| c.2 .2).sum();
            out.row(vec![
                Value::Int(co_counts[ci] as i64),
                Value::F(snrs[si], 1),
                Value::Int(ok.len() as i64),
                Value::F(joined, 2),
                Value::F(decode, 2),
                Value::Int(no_detect as i64),
                Value::Int(missing as i64),
                Value::Int(other as i64),
            ]);
        }
    }
}
