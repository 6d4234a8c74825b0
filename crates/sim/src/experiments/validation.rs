//! §3.1–3.2 validation experiments: Fig 1 (innovation gaussianity),
//! Fig 2 (tracking), Fig 3 + Table 1 (prediction-error distribution).

use super::{Curve, Scale};
use crate::nps_driver::NpsSimulation;
use crate::replay::{prediction_errors, standardized_innovations};
use crate::scenario::{ScenarioConfig, SurveyorPlacement, TopologyKind};
use crate::vivaldi_driver::VivaldiSimulation;
use ices_core::EmConfig;
use ices_stats::histogram::IntervalBin;
use ices_stats::lilliefors::Significance;
use ices_stats::qq::{qq_normal, QqPoint};
use ices_stats::{lilliefors_test, IntervalHistogram};
use serde::{Deserialize, Serialize};

/// Transient samples skipped before applying statistics to innovations.
const BURN_IN: usize = 20;

/// The four system × substrate combinations of the validation section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Combo {
    /// Vivaldi on the King-like simulation topology.
    VivaldiKing,
    /// Vivaldi on the PlanetLab-like deployment.
    VivaldiPlanetLab,
    /// NPS on the King-like simulation topology.
    NpsKing,
    /// NPS on the PlanetLab-like deployment.
    NpsPlanetLab,
}

impl Combo {
    /// Human-readable label matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            Combo::VivaldiKing => "Simulations, Vivaldi",
            Combo::VivaldiPlanetLab => "PlanetLab, Vivaldi",
            Combo::NpsKing => "Simulations, NPS",
            Combo::NpsPlanetLab => "PlanetLab, NPS",
        }
    }

    /// All four combos, in the paper's order.
    pub fn all() -> [Combo; 4] {
        [
            Combo::VivaldiKing,
            Combo::NpsKing,
            Combo::VivaldiPlanetLab,
            Combo::NpsPlanetLab,
        ]
    }
}

fn clean_scenario(scale: &Scale, topology: TopologyKind) -> ScenarioConfig {
    ScenarioConfig {
        seed: scale.seed,
        topology,
        surveyors: SurveyorPlacement::Random { fraction: 0.08 },
        malicious_fraction: 0.0,
        alpha: 0.05,
        detection: false,
        clean_cycles: scale.clean_passes,
        attack_cycles: scale.measure_passes,
        embed_against_surveyors_only: false,
    }
}

fn king(scale: &Scale) -> TopologyKind {
    TopologyKind::small_king(scale.king_nodes)
}

fn planetlab(scale: &Scale) -> TopologyKind {
    TopologyKind::small_planetlab(scale.planetlab_nodes)
}

/// Collect per-node clean traces for a combo: run the system clean,
/// calibrate every node's own filter, forget coordinates, re-embed, and
/// return `(phase-2 traces, per-node params)`.
fn traces_and_params(
    scale: &Scale,
    combo: Combo,
) -> (Vec<Vec<f64>>, Vec<ices_core::StateSpaceParams>) {
    let em = EmConfig::default();
    match combo {
        Combo::VivaldiKing | Combo::VivaldiPlanetLab => {
            let topo = if combo == Combo::VivaldiKing {
                king(scale)
            } else {
                planetlab(scale)
            };
            let mut sim = VivaldiSimulation::new(clean_scenario(scale, topo));
            sim.run_clean(scale.clean_passes);
            let params: Vec<_> = sim
                .calibrate_all(&em)
                .into_iter()
                .map(|o| o.params)
                .collect();
            sim.clear_traces();
            sim.forget_coordinates();
            // The paper's §3.2 second embedding runs as long as the
            // first: symmetric phases, so the filter sees the same mix
            // of transient and stationary behavior it was calibrated on.
            sim.run_clean(scale.clean_passes);
            (sim.traces().iter().map(|t| t.to_vec()).collect(), params)
        }
        Combo::NpsKing | Combo::NpsPlanetLab => {
            let topo = if combo == Combo::NpsKing {
                king(scale)
            } else {
                planetlab(scale)
            };
            let mut sim = NpsSimulation::new(clean_scenario(scale, topo));
            sim.run_clean(scale.nps_clean_rounds);
            let params: Vec<_> = sim
                .calibrate_all(&em)
                .into_iter()
                .map(|o| o.params)
                .collect();
            sim.clear_traces();
            sim.forget_coordinates();
            sim.run_clean(scale.nps_clean_rounds);
            (sim.traces().iter().map(|t| t.to_vec()).collect(), params)
        }
    }
}

/// Fig 1 result: QQ data of representative innovation processes plus the
/// Lilliefors rejection census of §3.1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig1Result {
    /// QQ points of one representative Vivaldi (PlanetLab) node.
    pub qq_vivaldi: Vec<QqPoint>,
    /// QQ points of one representative NPS (PlanetLab) node.
    pub qq_nps: Vec<QqPoint>,
    /// Per-combo `(rejections, nodes tested)` at the 5% level.
    pub lilliefors: Vec<(Combo, usize, usize)>,
}

/// Run the Fig 1 experiment.
pub fn fig1_innovation_gaussianity(scale: &Scale) -> Fig1Result {
    let mut lilliefors = Vec::new();
    let mut qq_vivaldi = Vec::new();
    let mut qq_nps = Vec::new();
    for combo in Combo::all() {
        let (traces, params) = traces_and_params(scale, combo);
        let mut rejections = 0usize;
        let mut tested = 0usize;
        let mut candidates: Vec<(f64, Vec<f64>)> = Vec::new();
        for (trace, p) in traces.iter().zip(&params) {
            if trace.len() <= BURN_IN + 20 {
                continue;
            }
            let z = standardized_innovations(*p, trace);
            let z = &z[BURN_IN..];
            // A constant trace cannot be tested.
            // audit:allow(PANIC02): the burn-in length check above keeps z non-empty
            if z.iter().all(|&v| (v - z[0]).abs() < 1e-12) {
                continue;
            }
            tested += 1;
            let outcome = lilliefors_test(z, Significance::FivePercent);
            if outcome.rejected {
                rejections += 1;
            }
            candidates.push((outcome.statistic, z.to_vec()));
        }
        // The representative node for the QQ plot is the one with the
        // median test statistic — a typical innovation process, not a
        // cherry-picked best or a pathological worst.
        candidates.sort_by(|a, b| a.0.total_cmp(&b.0));
        if let Some((_, z)) = candidates.get(candidates.len() / 2) {
            match combo {
                Combo::VivaldiPlanetLab => qq_vivaldi = qq_normal(z),
                Combo::NpsPlanetLab => qq_nps = qq_normal(z),
                _ => {}
            }
        }
        lilliefors.push((combo, rejections, tested));
    }
    Fig1Result {
        qq_vivaldi,
        qq_nps,
        lilliefors,
    }
}

/// Fig 2 result: the time series of measured vs predicted relative
/// errors of one node, plus the prediction error (their difference).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig2Result {
    /// Node whose trace is shown.
    pub node: usize,
    /// Per-step rows `(step, measured D_n, predicted Δ̂, |difference|)`.
    pub series: Vec<(usize, f64, f64, f64)>,
}

/// Run the Fig 2 experiment (Vivaldi, PlanetLab-like).
pub fn fig2_tracking(scale: &Scale) -> Fig2Result {
    let mut sim = VivaldiSimulation::new(clean_scenario(scale, planetlab(scale)));
    sim.run_clean(scale.clean_passes);
    let em = EmConfig::default();
    let outcomes = sim.calibrate_all(&em);
    sim.clear_traces();
    sim.forget_coordinates();
    sim.run_clean(scale.clean_passes);
    // A representative normal node: the one whose trace mean is the
    // median over normal nodes (neither a best case nor a pathological
    // host).
    let mut by_mean: Vec<(f64, usize)> = sim
        .normal_nodes()
        .iter()
        .map(|&n| {
            let t = &sim.traces()[n];
            (t.iter().sum::<f64>() / t.len().max(1) as f64, n)
        })
        .collect();
    by_mean.sort_by(|a, b| a.0.total_cmp(&b.0));
    let node = by_mean[by_mean.len() / 2].1;
    let trace = &sim.traces()[node];
    let params = outcomes[node].params;
    let replayed = crate::replay::replay_filter(params, trace);
    let series = replayed
        .into_iter()
        .enumerate()
        .map(|(i, (pred, innovation))| {
            let measured = pred.predicted + innovation;
            (i, measured, pred.predicted, innovation.abs())
        })
        .collect();
    Fig2Result { node, series }
}

/// Fig 3 + Table 1 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig3Result {
    /// One prediction-error CDF per combo.
    pub curves: Vec<Curve>,
    /// Table 1 rows for Vivaldi (PlanetLab).
    pub table_vivaldi: Vec<IntervalBin>,
    /// Table 1 rows for NPS (PlanetLab).
    pub table_nps: Vec<IntervalBin>,
}

/// Run the Fig 3 / Table 1 experiment: calibrate every node on its own
/// embedding, restart the embedding, and measure |predicted − measured|.
pub fn fig3_prediction_cdf(scale: &Scale) -> Fig3Result {
    let mut curves = Vec::new();
    let mut table_vivaldi = Vec::new();
    let mut table_nps = Vec::new();
    for combo in Combo::all() {
        let (traces, params) = traces_and_params(scale, combo);
        let mut all_errors = Vec::new();
        let mut hist = IntervalHistogram::new(0.05, 13);
        for (node, (trace, p)) in traces.iter().zip(&params).enumerate() {
            if trace.len() <= BURN_IN {
                continue;
            }
            let errors = prediction_errors(*p, trace);
            for &e in &errors[BURN_IN..] {
                all_errors.push(e);
                hist.record(node, e); // values past the last interval land in the overflow bin
            }
        }
        curves.push(Curve::from_samples(combo.label(), all_errors, 200));
        match combo {
            Combo::VivaldiPlanetLab => table_vivaldi = hist.table(),
            Combo::NpsPlanetLab => table_nps = hist.table(),
            _ => {}
        }
    }
    Fig3Result {
        curves,
        table_vivaldi,
        table_nps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_census_runs_and_qq_bulk_is_linear() {
        let r = fig1_innovation_gaussianity(&Scale::test());
        assert_eq!(r.lilliefors.len(), 4);
        for &(combo, rejections, tested) in &r.lilliefors {
            assert!(tested > 0, "{combo:?} tested no nodes");
            assert!(rejections <= tested);
        }
        assert!(!r.qq_vivaldi.is_empty());
        assert!(!r.qq_nps.is_empty());
        // The innovation bulk should hug the gaussian line even though
        // the synthetic substrate has heavier tails than the paper''s
        // measurements: trim 5% on each side before correlating.
        for (label, qq) in [("vivaldi", &r.qq_vivaldi), ("nps", &r.qq_nps)] {
            let n = qq.len();
            let bulk = &qq[n / 20..n - n / 20];
            let r2 = ices_stats::qq::qq_correlation(bulk);
            // The synthetic substrate's innovations are heavier-tailed
            // than the paper's measurements (see EXPERIMENTS.md); the
            // bulk must still be recognizably linear.
            assert!(r2 > 0.7, "{label} QQ bulk r² = {r2}");
        }
    }

    #[test]
    fn fig2_prediction_tracks_measurement() {
        let r = fig2_tracking(&Scale::test());
        assert!(r.series.len() > 50);
        // The filter must beat both trivial baselines: predicting zero
        // and predicting the trace mean.
        let n = r.series.len() as f64;
        let mean_measured: f64 = r.series.iter().map(|(_, m, _, _)| *m).sum::<f64>() / n;
        let mean_err: f64 = r.series.iter().map(|(_, _, _, e)| *e).sum::<f64>() / n;
        let zero_baseline: f64 = r.series.iter().map(|(_, m, _, _)| m.abs()).sum::<f64>() / n;
        let mean_baseline: f64 = r
            .series
            .iter()
            .map(|(_, m, _, _)| (m - mean_measured).abs())
            .sum::<f64>()
            / n;
        assert!(
            mean_err < zero_baseline,
            "filter ({mean_err}) must beat the zero predictor ({zero_baseline})"
        );
        assert!(
            mean_err < 1.05 * mean_baseline,
            "filter ({mean_err}) must match or beat the constant-mean predictor ({mean_baseline})"
        );
    }

    #[test]
    fn fig3_most_predictions_excellent() {
        let r = fig3_prediction_cdf(&Scale::test());
        assert_eq!(r.curves.len(), 4);
        for c in &r.curves {
            // The paper: the vast majority of prediction errors are tiny.
            // At toy scale (short, unconverged phases) the bar is looser.
            let x80 = c.quantile_x(0.8);
            assert!(
                x80 < 0.5,
                "{}: 80th-percentile prediction error {x80}",
                c.label
            );
        }
        assert!(!r.table_vivaldi.is_empty());
        assert!(!r.table_nps.is_empty());
        // The first interval should dominate, as in Table 1.
        // The low-error region must dominate the tail: compare the mass
        // of the first three intervals with the mass of the last three.
        let rows = &r.table_vivaldi;
        let low: usize = rows.iter().take(3).map(|b| b.total).sum();
        let high: usize = rows.iter().rev().take(3).map(|b| b.total).sum();
        assert!(
            low > 3 * high,
            "low-error mass {low} should dwarf tail mass {high}"
        );
    }
}
