//! Every evaluation artefact of the paper as a declarative `ssync_exp`
//! scenario, plus the registry the `ssync-lab` runner and the thin figure
//! binaries resolve scenarios from.
//!
//! Porting contract: each scenario's TSV rendering is byte-identical to
//! the stdout of the pre-harness binary of the same name, at every thread
//! count (enforced by golden and determinism tests). Trials parallelise
//! across workers; anything that historically consumed one sequential RNG
//! stream across trials (e.g. [`Fig08WaitLp`]'s placement draws) keeps a
//! serial generation phase and parallelises only the per-trial compute.

mod ablation_combiner;
mod ablation_tracking;
mod fig05_phase_slope;
mod fig08_wait_lp;
mod fig12_sync_error;
mod fig13_cp_sweep;
mod fig14_delay_spread;
mod fig15_power_gains;
mod fig16_subcarrier_snr;
mod fig17_lasthop_cdf;
mod fig18_opportunistic;
mod session_matrix;
mod sweep_wait_residual;
mod table_overhead;
mod testbed_city;
mod testbed_fault;
mod testbed_multihop;

pub use ablation_combiner::AblationCombiner;
pub use ablation_tracking::AblationTracking;
pub use fig05_phase_slope::Fig05PhaseSlope;
pub use fig08_wait_lp::Fig08WaitLp;
pub use fig12_sync_error::Fig12SyncError;
pub use fig13_cp_sweep::Fig13CpSweep;
pub use fig14_delay_spread::Fig14DelaySpread;
pub use fig15_power_gains::Fig15PowerGains;
pub use fig16_subcarrier_snr::Fig16SubcarrierSnr;
pub use fig17_lasthop_cdf::Fig17LasthopCdf;
pub use fig18_opportunistic::Fig18Opportunistic;
pub use session_matrix::SessionMatrix;
pub use sweep_wait_residual::SweepWaitResidual;
pub use table_overhead::TableOverhead;
pub use testbed_city::TestbedCity;
pub use testbed_fault::TestbedFault;
pub use testbed_multihop::TestbedMultihop;

use rand::rngs::StdRng;
use rand::Rng;
use ssync_channel::Position;
use ssync_exp::Scenario;
use ssync_obs::Observable;

/// The testbed scenarios' five-node diamond placement — source, three
/// clustered relays, destination — with ±2 m of per-trial jitter so the
/// §4.3 propagation-delay compensation sees realistic geometry. One
/// definition, shared by `testbed_multihop` and `testbed_fault`, so "the
/// diamond" cannot silently diverge between them.
pub(crate) fn jittered_diamond(rng: &mut StdRng) -> Vec<Position> {
    let mut jitter = |base: (f64, f64)| {
        Position::new(
            base.0 + rng.gen_range(-2.0..2.0),
            base.1 + rng.gen_range(-2.0..2.0),
        )
    };
    vec![
        Position::new(0.0, 0.0),
        jitter((14.0, -8.0)),
        jitter((14.0, 0.0)),
        jitter((14.0, 8.0)),
        jitter((28.0, 0.0)),
    ]
}

/// Every registered scenario, in paper order.
pub fn all() -> &'static [&'static dyn Scenario] {
    &[
        &Fig05PhaseSlope,
        &Fig08WaitLp,
        &Fig12SyncError,
        &Fig13CpSweep,
        &Fig14DelaySpread,
        &Fig15PowerGains,
        &Fig16SubcarrierSnr,
        &Fig17LasthopCdf,
        &Fig18Opportunistic,
        &AblationCombiner,
        &AblationTracking,
        &TableOverhead,
        &SweepWaitResidual,
        &SessionMatrix,
        &TestbedMultihop,
        &TestbedFault,
        &TestbedCity,
    ]
}

/// Looks a scenario up by its stable name.
pub fn find(name: &str) -> Option<&'static dyn Scenario> {
    all().iter().copied().find(|s| s.name() == name)
}

/// The scenarios that can additionally run with observability attached
/// (`ssync-lab run <name> --trace/--metrics`): the event-driven testbed
/// family, whose engine threads an [`ssync_obs::TraceRecorder`] and
/// [`ssync_obs::MetricRegistry`] through the whole protocol stack.
pub fn observable() -> &'static [&'static dyn Observable] {
    &[&TestbedMultihop, &TestbedFault, &TestbedCity]
}

/// Looks an observable scenario up by its stable name.
pub fn find_observable(name: &str) -> Option<&'static dyn Observable> {
    observable().iter().copied().find(|s| s.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let names: Vec<&str> = all().iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate scenario names");
        assert_eq!(all().len(), 17);
        for name in names {
            assert!(find(name).is_some());
            assert!(!find(name).unwrap().title().is_empty());
        }
        assert!(find("no_such_scenario").is_none());
    }

    #[test]
    fn observable_registry_is_a_subset_of_the_main_registry() {
        for s in observable() {
            assert!(
                find(s.name()).is_some(),
                "observable scenario {:?} missing from all()",
                s.name()
            );
            assert!(find_observable(s.name()).is_some());
        }
        assert!(find_observable("testbed_multihop").is_some());
        assert!(find_observable("testbed_fault").is_some());
        assert!(find_observable("testbed_city").is_some());
        assert!(find_observable("fig08_wait_lp").is_none());
    }
}
