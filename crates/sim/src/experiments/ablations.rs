//! Ablations of the design choices DESIGN.md calls out.
//!
//! These are not paper figures; they quantify why the system is built
//! the way it is:
//!
//! * [`ablate_beta`] — is the EM-fitted AR coefficient worth having, or
//!   would a white model (β = 0) or a near-random-walk (β = 0.99) do?
//! * [`ablate_reprieve`] — what does the first-time-peer reprieve buy a
//!   system with churn (joining nodes being mistaken for attackers)?
//! * [`ablate_filter_source`] — own-trace calibration vs the closest
//!   Surveyor's parameters vs a random Surveyor's (the paper's Figs 6–8
//!   in detection terms).
//! * [`ablate_recalibration`] — how much does a stale filter (calibrated
//!   before a network-condition change) degrade detection, and does the
//!   refresh rule recover it?

use super::{isolation_attack, Scale};
use crate::scenario::{ScenarioConfig, SurveyorPlacement, TopologyKind};
use crate::vivaldi_driver::VivaldiSimulation;
use ices_core::{calibrate, EmConfig, StateSpaceParams};
use ices_stats::Confusion;
use serde::{Deserialize, Serialize};

/// Outcome of one ablation arm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationArm {
    /// Which variant ran.
    pub label: String,
    /// Detection quality under the standard attack workload.
    pub confusion: Confusion,
}

/// A complete ablation: several arms over the same workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationResult {
    /// What is being ablated.
    pub name: String,
    /// The arms, in presentation order.
    pub arms: Vec<AblationArm>,
}

fn scenario(scale: &Scale) -> ScenarioConfig {
    ScenarioConfig {
        seed: scale.seed,
        topology: TopologyKind::small_planetlab(scale.planetlab_nodes),
        surveyors: SurveyorPlacement::Random { fraction: 0.08 },
        malicious_fraction: 0.2,
        alpha: 0.05,
        detection: true,
        clean_cycles: scale.clean_passes,
        attack_cycles: scale.measure_passes,
        embed_against_surveyors_only: false,
    }
}

/// Shared workload: clean phase, calibrate, arm (with a parameter
/// transformation applied to every Surveyor filter), attack, report.
fn run_with_params(
    scale: &Scale,
    reprieve: bool,
    mut transform: impl FnMut(StateSpaceParams) -> StateSpaceParams,
) -> Confusion {
    let mut sim = VivaldiSimulation::new(scenario(scale));
    sim.run_clean(scale.clean_passes);
    sim.calibrate_surveyors(&EmConfig::default());
    if let Err(e) = sim.transform_registry_params(&mut transform) {
        panic!("every ablation transform keeps the parameters valid: {e}");
    }
    if !reprieve {
        sim.set_reprieve_enabled(false);
    }
    sim.arm_detection();
    let attack = isolation_attack(&sim, scale.seed ^ 0xAB1);
    sim.run(scale.measure_passes, &attack, false);
    sim.report().confusion
}

/// Ablate the AR coefficient β.
pub fn ablate_beta(scale: &Scale) -> AblationResult {
    let arms = vec![
        AblationArm {
            label: "EM-fitted β (the paper)".into(),
            confusion: run_with_params(scale, true, |p| p),
        },
        AblationArm {
            label: "β = 0 (white model)".into(),
            confusion: run_with_params(scale, true, |mut p| {
                // Keep the stationary mean fixed while removing memory.
                p.w_bar = p.stationary_mean();
                p.v_w = p.stationary_variance().max(1e-8);
                p.beta = 0.0;
                p
            }),
        },
        AblationArm {
            label: "β = 0.99 (near random walk)".into(),
            confusion: run_with_params(scale, true, |mut p| {
                let mean = p.stationary_mean();
                p.beta = 0.99;
                p.w_bar = mean * (1.0 - 0.99);
                p
            }),
        },
    ];
    AblationResult {
        name: "state-model AR coefficient".into(),
        arms,
    }
}

/// Ablate the first-time-peer reprieve.
pub fn ablate_reprieve(scale: &Scale) -> AblationResult {
    let arms = vec![
        AblationArm {
            label: "reprieve on (the paper)".into(),
            confusion: run_with_params(scale, true, |p| p),
        },
        AblationArm {
            label: "reprieve off".into(),
            confusion: run_with_params(scale, false, |p| p),
        },
    ];
    AblationResult {
        name: "first-time-peer reprieve".into(),
        arms,
    }
}

/// Ablate where the filter parameters come from.
///
/// The "closest Surveyor" arm is the paper's protocol (what
/// `arm_detection` does); "random Surveyor" replaces every node's
/// parameter source with a randomly drawn Surveyor.
pub fn ablate_filter_source(scale: &Scale) -> AblationResult {
    // Closest (paper).
    let closest = run_with_params(scale, true, |p| p);

    // Random surveyor: emulate by shuffling the registry parameters so
    // the "closest" lookup yields an unrelated Surveyor's filter.
    let mut sim = VivaldiSimulation::new(scenario(scale));
    sim.run_clean(scale.clean_passes);
    sim.calibrate_surveyors(&EmConfig::default());
    if let Err(e) = sim.shuffle_registry_params() {
        panic!("rotating checked parameters keeps them valid: {e}");
    }
    sim.arm_detection();
    let attack = isolation_attack(&sim, scale.seed ^ 0xAB1);
    sim.run(scale.measure_passes, &attack, false);
    let random = sim.report().confusion;

    AblationResult {
        name: "filter parameter source".into(),
        arms: vec![
            AblationArm {
                label: "closest Surveyor (the paper)".into(),
                confusion: closest,
            },
            AblationArm {
                label: "random Surveyor".into(),
                confusion: random,
            },
        ],
    }
}

/// Ablate filter freshness: parameters calibrated on an *unrelated*
/// system (different seed → different topology and noise realization)
/// stand in for a stale filter.
pub fn ablate_recalibration(scale: &Scale) -> AblationResult {
    // Fresh (paper).
    let fresh = run_with_params(scale, true, |p| p);

    // Stale: calibrate on a different world, then run here.
    let stale_params: Vec<StateSpaceParams> = {
        let mut other = scenario(scale);
        other.seed ^= 0x5EED;
        let mut sim = VivaldiSimulation::new(other);
        sim.run_clean(scale.clean_passes);
        sim.traces()
            .iter()
            .filter(|t| t.len() >= 10)
            .take(8)
            .map(|t| {
                calibrate(
                    t,
                    StateSpaceParams::em_initial_guess(),
                    &EmConfig::default(),
                )
                .params
            })
            .collect()
    };
    let mut idx = 0;
    let stale = run_with_params(scale, true, move |_| {
        let p = stale_params[idx % stale_params.len()];
        idx += 1;
        p
    });

    AblationResult {
        name: "filter freshness".into(),
        arms: vec![
            AblationArm {
                label: "freshly calibrated (the paper)".into(),
                confusion: fresh,
            },
            AblationArm {
                label: "stale (calibrated on another network)".into(),
                confusion: stale,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beta_ablation_produces_three_comparable_arms() {
        let r = ablate_beta(&Scale::test());
        assert_eq!(r.arms.len(), 3);
        for arm in &r.arms {
            assert!(arm.confusion.positives() > 0, "{}", arm.label);
            assert!(arm.confusion.negatives() > 0, "{}", arm.label);
        }
    }

    #[test]
    fn reprieve_off_does_not_reduce_detection() {
        let r = ablate_reprieve(&Scale::test());
        let on = &r.arms[0].confusion;
        let off = &r.arms[1].confusion;
        // Without reprieves every suspicious first-timer is rejected, so
        // TPR cannot drop.
        assert!(
            off.tpr() >= on.tpr() - 0.02,
            "off {} vs on {}",
            off.tpr(),
            on.tpr()
        );
    }

    #[test]
    fn filter_source_ablation_runs() {
        let r = ablate_filter_source(&Scale::test());
        assert_eq!(r.arms.len(), 2);
        for arm in &r.arms {
            assert!(arm.confusion.total() > 0);
        }
    }

    #[test]
    fn recalibration_ablation_runs() {
        let r = ablate_recalibration(&Scale::test());
        assert_eq!(r.arms.len(), 2);
        for arm in &r.arms {
            assert!(arm.confusion.total() > 0);
        }
    }
}
