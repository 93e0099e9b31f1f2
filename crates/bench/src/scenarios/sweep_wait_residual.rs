//! Residual misalignment left by the §4.6 minimax LP as the receiver and
//! co-sender counts grow.
//!
//! A grid of receiver counts × co-sender counts, 100 seeded trials per
//! point, run as one flat [`Ctx::par_map`] over `point × trial`: trial
//! `t` of point `p` draws its delays from `trial_seed(0x0A15_C0DE, p, t)`,
//! so the output is the same at any thread count.
//!
//! Output: TSV `n_receivers  n_cosenders  mean_residual_ns  p95_residual_ns
//! ci95_lo_ns  ci95_hi_ns`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssync_exp::agg::{mean_ci_normal, percentile, Summary};
use ssync_exp::{trial_seed, Ctx, Output, Scenario, Value};
use ssync_linprog::MisalignmentProblem;

/// Receiver counts, the slow axis of the grid.
const N_RECEIVERS: [usize; 6] = [1, 2, 3, 4, 5, 6];
/// Co-sender counts, the fast axis of the grid.
const N_COSENDERS: [usize; 3] = [1, 2, 3];

/// See the module docs.
pub struct SweepWaitResidual;

impl Scenario for SweepWaitResidual {
    fn name(&self) -> &'static str {
        "sweep_wait_residual"
    }

    fn title(&self) -> &'static str {
        "LP residual misalignment over receivers x co-senders"
    }

    fn paper_ref(&self) -> &'static str {
        "§4.6 (extended)"
    }

    fn run(&self, ctx: &Ctx, out: &mut Output) {
        let trials = ctx.trials(100);
        let point = |p: usize| {
            (
                N_RECEIVERS[p / N_COSENDERS.len()],
                N_COSENDERS[p % N_COSENDERS.len()],
            )
        };
        out.comment("Sweep: residual misalignment of the minimax wait-time LP");
        out.comment(format!(
            "grid: n_receivers x n_cosenders, {trials} trials/point, indoor delays 10-300 ns"
        ));
        out.columns(&[
            "n_receivers",
            "n_cosenders",
            "mean_residual_ns",
            "p95_residual_ns",
            "ci95_lo_ns",
            "ci95_hi_ns",
        ]);
        let n_points = N_RECEIVERS.len() * N_COSENDERS.len();
        let residuals = ctx.par_map(n_points * trials, |i| {
            let (p, t) = (i / trials, i % trials);
            let mut rng = StdRng::seed_from_u64(trial_seed(0x0A15_C0DE, p as u64, t as u64));
            let (n_rx, n_co) = point(p);
            let draw = |rng: &mut StdRng| rng.gen_range(10e-9..300e-9);
            let problem = MisalignmentProblem {
                lead_delays: (0..n_rx).map(|_| draw(&mut rng)).collect(),
                cosender_delays: (0..n_co)
                    .map(|_| (0..n_rx).map(|_| draw(&mut rng)).collect())
                    .collect(),
            };
            problem.solve().max_misalignment * 1e9
        });
        for (p, residuals) in residuals.chunks(trials).enumerate() {
            let (n_rx, n_co) = point(p);
            let s = Summary::of(residuals);
            let ci = mean_ci_normal(residuals, 0.95);
            out.row(vec![
                Value::Int(n_rx as i64),
                Value::Int(n_co as i64),
                Value::F(s.mean, 3),
                Value::F(percentile(residuals, 95.0), 3),
                Value::F(ci.lo, 3),
                Value::F(ci.hi, 3),
            ]);
        }
    }
}
