//! §5.2.2 / §5.3.2 embedding-system performance under attack: Fig 13
//! (Vivaldi) and Fig 15 (NPS) — CDFs of relative estimation errors
//! across all normal nodes after convergence, with and without the
//! detection protocol, plus the §6 "dedicated Surveyors for embedding"
//! variant.

use super::{collusion_attack, isolation_attack, Curve, Scale};
use crate::nps_driver::NpsSimulation;
use crate::scenario::{ScenarioConfig, SurveyorPlacement, TopologyKind};
use crate::vivaldi_driver::VivaldiSimulation;
use ices_attack::HonestWorld;
use ices_core::EmConfig;
use serde::{Deserialize, Serialize};

/// Result of a system-performance experiment: one labelled CDF per
/// configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemPerfResult {
    /// Relative-error CDFs.
    pub curves: Vec<Curve>,
    /// `(label, median relative error)` summaries.
    pub medians: Vec<(String, f64)>,
}

impl SystemPerfResult {
    /// Median for a labelled curve.
    pub fn median_of(&self, label: &str) -> Option<f64> {
        self.medians
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, m)| *m)
    }
}

fn scenario(scale: &Scale, fraction: f64, detection: bool, dedicated: bool) -> ScenarioConfig {
    ScenarioConfig {
        seed: scale.seed,
        topology: TopologyKind::small_planetlab(scale.planetlab_nodes),
        surveyors: if dedicated {
            // The paper's §6 variant uses the 1% k-means deployment.
            SurveyorPlacement::KMeansHeads { fraction: 0.04 }
        } else {
            SurveyorPlacement::Random { fraction: 0.08 }
        },
        malicious_fraction: fraction,
        alpha: 0.05,
        detection,
        clean_cycles: scale.clean_passes,
        attack_cycles: scale.measure_passes,
        embed_against_surveyors_only: dedicated,
    }
}

fn vivaldi_errors(scale: &Scale, fraction: f64, detection: bool, dedicated: bool) -> Vec<f64> {
    let mut sim = VivaldiSimulation::new(scenario(scale, fraction, detection, dedicated));
    sim.run_clean(scale.clean_passes);
    if fraction > 0.0 {
        if detection {
            sim.calibrate_surveyors(&EmConfig::default());
            sim.arm_detection();
        }
        let attack = isolation_attack(&sim, scale.seed ^ 0xA77AC4);
        sim.run(scale.measure_passes, &attack, false);
    } else {
        let honest = HonestWorld;
        sim.run(scale.measure_passes, &honest, false);
    }
    sim.accuracy_report(scale.pairs_per_node).relative_errors
}

/// Fig 13: Vivaldi relative-error CDFs for the paper's configurations.
///
/// `fractions` are the attack intensities to sweep (the paper shows 10%,
/// 30%, 50%); for each, curves with detection on and off are produced,
/// plus a clean baseline and the dedicated-Surveyors variant.
pub fn fig13_vivaldi(scale: &Scale, fractions: &[f64]) -> SystemPerfResult {
    let mut curves = Vec::new();
    let mut medians = Vec::new();
    let mut push = |label: String, errors: Vec<f64>| {
        let median = ices_stats::Ecdf::new(errors.clone()).median();
        curves.push(Curve::from_samples(label.clone(), errors, 200));
        medians.push((label, median));
    };

    push(
        "clean (no attack)".into(),
        vivaldi_errors(scale, 0.0, false, false),
    );
    for &f in fractions {
        let pct = (f * 100.0).round() as u32;
        push(
            format!("{pct}% malicious, detection on"),
            vivaldi_errors(scale, f, true, false),
        );
        push(
            format!("{pct}% malicious, detection off"),
            vivaldi_errors(scale, f, false, false),
        );
    }
    push(
        "using dedicated Surveyors for embedding".into(),
        vivaldi_errors(scale, fractions.last().copied().unwrap_or(0.3), false, true),
    );
    SystemPerfResult { curves, medians }
}

fn nps_errors(scale: &Scale, fraction: f64, detection: bool, dedicated: bool) -> Vec<f64> {
    let mut sim = NpsSimulation::new(scenario(scale, fraction, detection, dedicated));
    sim.run_clean(scale.nps_clean_rounds);
    if fraction > 0.0 {
        if detection {
            sim.calibrate_surveyors(&EmConfig::default());
            sim.arm_detection();
        }
        let attack = collusion_attack(&sim, 3.0, scale.seed ^ 0x4E5053);
        sim.run(scale.nps_measure_rounds, &attack, false);
    } else {
        let honest = HonestWorld;
        sim.run(scale.nps_measure_rounds, &honest, false);
    }
    sim.accuracy_report(scale.pairs_per_node).relative_errors
}

/// Fig 15: NPS relative-error CDFs. "Detection off" still leaves NPS's
/// built-in sensitivity filter on, exactly as in the paper.
pub fn fig15_nps(scale: &Scale, fractions: &[f64]) -> SystemPerfResult {
    let mut curves = Vec::new();
    let mut medians = Vec::new();
    let mut push = |label: String, errors: Vec<f64>| {
        let median = ices_stats::Ecdf::new(errors.clone()).median();
        curves.push(Curve::from_samples(label.clone(), errors, 200));
        medians.push((label, median));
    };

    push(
        "clean (no attack)".into(),
        nps_errors(scale, 0.0, false, false),
    );
    for &f in fractions {
        let pct = (f * 100.0).round() as u32;
        push(
            format!("{pct}% malicious, detection on"),
            nps_errors(scale, f, true, false),
        );
        push(
            format!("{pct}% malicious, detection off"),
            nps_errors(scale, f, false, false),
        );
    }
    SystemPerfResult { curves, medians }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig13_detection_restores_accuracy() {
        let r = fig13_vivaldi(&Scale::test(), &[0.3]);
        let clean = r.median_of("clean (no attack)").expect("clean curve");
        let on = r
            .median_of("30% malicious, detection on")
            .expect("detection-on curve");
        let off = r
            .median_of("30% malicious, detection off")
            .expect("detection-off curve");
        assert!(
            on < off,
            "detection should improve accuracy under attack: on {on} vs off {off}"
        );
        assert!(
            on < clean * 3.0 + 0.2,
            "with detection the system should stay near clean accuracy: {on} vs clean {clean}"
        );
    }

    #[test]
    fn fig13_has_dedicated_surveyor_curve() {
        let r = fig13_vivaldi(&Scale::test(), &[0.1]);
        assert!(r
            .median_of("using dedicated Surveyors for embedding")
            .is_some());
        // 1 clean + 2 per fraction + 1 dedicated.
        assert_eq!(r.curves.len(), 4);
    }

    #[test]
    fn fig15_runs_for_nps() {
        let mut scale = Scale::test();
        scale.planetlab_nodes = 90;
        let r = fig15_nps(&scale, &[0.3]);
        assert_eq!(r.curves.len(), 3);
        let on = r
            .median_of("30% malicious, detection on")
            .expect("detection-on");
        let off = r
            .median_of("30% malicious, detection off")
            .expect("detection-off");
        // Under the anti-detection collusion the protected system should
        // be no worse than the unprotected one.
        assert!(on <= off * 1.25 + 0.05, "on {on} vs off {off}");
    }
}
