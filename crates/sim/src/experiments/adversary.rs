//! Adversary sweep: the post-2007 attack taxonomy against the paper's
//! detector, with and without cross-verification.
//!
//! The paper evaluates its Kalman innovation test against two blatant
//! colluding attacks. This experiment runs the three scenarios the test
//! was never evaluated against — Sybil swarms, eclipse translations,
//! and calibrated slow drift — across an intensity axis, each with the
//! VerLoc-style cross-verification defense off *and* on, and records
//! TPR/FPR, accuracy degradation, and the adversary/defense counters
//! per cell.
//!
//! The cells are built to surface three qualitatively different
//! stories:
//!
//! * **Sybil** is blatant: remote-cluster lies trip the innovation test
//!   at once, and the interesting axis is how far the swarm's candidate
//!   takeover degrades the *embedding* even while detection holds.
//! * **Eclipse** is structural: the victim converges into the
//!   translated frame before detection is armed (the plan steers its
//!   referrals from the first tick), so innovations look healthy and
//!   the detector is near-blind until witnesses outside the eclipse
//!   contradict the claims.
//! * **Slow drift** is temporal: sub-threshold per-tick displacement is
//!   accepted sample by sample, so at low drift rates the detector's
//!   TPR collapses — *that collapse is the headline result*, reported,
//!   not asserted away — and only drift fast enough to outrun the
//!   tolerance margin becomes visible to either layer.

use super::Scale;
use crate::metrics::AdversaryReport;
use crate::scenario::{ScenarioConfig, SurveyorPlacement, TopologyKind};
use crate::vivaldi_driver::VivaldiSimulation;
use ices_attack::{DefenseConfig, EclipseAttack, SlowDriftAttack, SybilSwarmAttack};
use ices_core::EmConfig;
use ices_netsim::EclipsePlan;
use ices_obs::Journal;
use ices_stats::Confusion;
use serde::{Deserialize, Serialize};

/// Sybil intensities: the swarm's share of identities *and* of each
/// victim's steered candidate slots (the takeover fraction).
pub const DEFAULT_SYBIL_INTENSITIES: [f64; 3] = [0.10, 0.25, 0.40];

/// Eclipse intensities: the fraction of a victim's referrals the
/// poisoned registrar steers to attackers.
pub const DEFAULT_ECLIPSE_INTENSITIES: [f64; 3] = [0.25, 0.50, 0.90];

/// Slow-drift intensities: claimed-coordinate displacement per tick, in
/// ms. The low end sits far under the innovation threshold; the high
/// end outruns it within a few ticks.
pub const DEFAULT_DRIFT_INTENSITIES: [f64; 3] = [0.05, 0.50, 5.00];

/// Malicious population share for the eclipse and slow-drift cells
/// (Sybil cells use their intensity as the share — identity count *is*
/// the Sybil knob).
const BASE_MALICIOUS_FRACTION: f64 = 0.2;

/// Seed salts so each attack family draws from its own stream.
const SYBIL_SALT: u64 = 0x5B11;
const ECLIPSE_SALT: u64 = 0xEC11;
const DRIFT_SALT: u64 = 0xD217;
const DEFENSE_SALT: u64 = 0xDEF3;

/// The three swept attack scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// One adversary, many identities, one remote cluster story.
    Sybil,
    /// Rigid per-victim translation behind steered referrals.
    Eclipse,
    /// Sub-threshold per-tick displacement ("frog boiling").
    SlowDrift,
}

impl AttackKind {
    /// All swept kinds, in sweep order.
    pub const ALL: [AttackKind; 3] = [
        AttackKind::Sybil,
        AttackKind::Eclipse,
        AttackKind::SlowDrift,
    ];

    /// The default intensity axis for this attack.
    pub fn default_intensities(self) -> &'static [f64] {
        match self {
            AttackKind::Sybil => &DEFAULT_SYBIL_INTENSITIES,
            AttackKind::Eclipse => &DEFAULT_ECLIPSE_INTENSITIES,
            AttackKind::SlowDrift => &DEFAULT_DRIFT_INTENSITIES,
        }
    }

    /// The snake_case tag used in sweep JSON.
    pub fn tag(self) -> &'static str {
        match self {
            AttackKind::Sybil => "sybil",
            AttackKind::Eclipse => "eclipse",
            AttackKind::SlowDrift => "slow_drift",
        }
    }
}

// The vendored serde shim has no `rename_all` helper attribute, so the
// snake_case wire tags are hand-rolled.
impl Serialize for AttackKind {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.tag().to_owned())
    }
}

impl Deserialize for AttackKind {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::Str(s) => match s.as_str() {
                "sybil" => Ok(AttackKind::Sybil),
                "eclipse" => Ok(AttackKind::Eclipse),
                "slow_drift" => Ok(AttackKind::SlowDrift),
                other => Err(serde::DeError::new(format!(
                    "unknown attack kind `{other}`"
                ))),
            },
            other => Err(serde::DeError::new(format!(
                "expected attack tag, got {other:?}"
            ))),
        }
    }
}

/// One `(attack, intensity, defense)` operating point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdversaryCell {
    /// Which attack ran.
    pub attack: AttackKind,
    /// The attack's intensity knob (meaning depends on the attack; see
    /// the `DEFAULT_*_INTENSITIES` docs).
    pub intensity: f64,
    /// Whether cross-verification was armed.
    pub defense: bool,
    /// Confusion counts over all vetted steps of the attack phase.
    pub confusion: Confusion,
    /// Adversary/defense counters accumulated over the run.
    pub adversary: AdversaryReport,
    /// Peer replacements honest nodes performed.
    pub replacements: u64,
    /// Median relative embedding error of honest nodes after the run;
    /// `None` when zero honest pairs were sampled.
    pub accuracy_median: Option<f64>,
    /// 95th-percentile relative embedding error.
    pub accuracy_p95: Option<f64>,
    /// `accuracy_median` over the honest-world baseline median at the
    /// same scale — the accuracy-degradation factor. Filled in by
    /// [`adversary_sweep`]; `None` for standalone cells.
    pub accuracy_degradation: Option<f64>,
}

impl AdversaryCell {
    /// True-positive rate over the vetted attack-phase steps.
    pub fn tpr(&self) -> f64 {
        self.confusion.tpr()
    }

    /// False-positive rate over the vetted attack-phase steps.
    pub fn fpr(&self) -> f64 {
        self.confusion.fpr()
    }
}

/// A full adversary sweep: attack × intensity × defense.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdversarySweep {
    /// Honest-world baseline accuracy median at the same scale (the
    /// denominator of every cell's degradation factor).
    pub honest_accuracy_median: Option<f64>,
    /// All cells, ordered attack-major, then intensity, then defense
    /// off before on.
    pub cells: Vec<AdversaryCell>,
}

impl AdversarySweep {
    /// The cell at an exact operating point.
    pub fn cell(
        &self,
        attack: AttackKind,
        intensity: f64,
        defense: bool,
    ) -> Option<&AdversaryCell> {
        self.cells.iter().find(|c| {
            c.attack == attack && (c.intensity - intensity).abs() < 1e-9 && c.defense == defense
        })
    }

    /// Defense-off/defense-on cell pairs for one attack, sorted by
    /// intensity.
    pub fn pairs(&self, attack: AttackKind) -> Vec<(&AdversaryCell, &AdversaryCell)> {
        let mut intensities: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| c.attack == attack && !c.defense)
            .map(|c| c.intensity)
            .collect();
        intensities.sort_by(f64::total_cmp);
        intensities
            .into_iter()
            .filter_map(|i| Some((self.cell(attack, i, false)?, self.cell(attack, i, true)?)))
            .collect()
    }
}

fn scenario(scale: &Scale, malicious_fraction: f64) -> ScenarioConfig {
    ScenarioConfig {
        seed: scale.seed,
        topology: TopologyKind::small_planetlab(scale.planetlab_nodes),
        surveyors: SurveyorPlacement::Random { fraction: 0.08 },
        malicious_fraction,
        alpha: 0.05,
        detection: true,
        clean_cycles: scale.clean_passes,
        attack_cycles: scale.measure_passes,
        embed_against_surveyors_only: false,
    }
}

/// Run one operating point of the adversary sweep.
///
/// # Panics
/// Panics when `intensity` is outside its attack's meaningful range
/// (a fraction in `(0, 1]` for Sybil/eclipse, a positive rate for
/// slow drift).
pub fn adversary_cell(
    scale: &Scale,
    attack: AttackKind,
    intensity: f64,
    defense: bool,
) -> AdversaryCell {
    run_cell(scale, attack, intensity, defense, false).0
}

/// [`adversary_cell`] with an in-memory run journal attached: returns
/// the cell plus the journal's JSONL bytes. The obs layer's
/// bit-identity contract means the cell itself is unchanged.
pub fn adversary_cell_journaled(
    scale: &Scale,
    attack: AttackKind,
    intensity: f64,
    defense: bool,
) -> (AdversaryCell, Vec<u8>) {
    let (cell, journal) = run_cell(scale, attack, intensity, defense, true);
    (cell, journal.unwrap_or_default())
}

fn defense_config(scale: &Scale, on: bool) -> DefenseConfig {
    if on {
        DefenseConfig::cross_verification(scale.seed ^ DEFENSE_SALT)
    } else {
        DefenseConfig::off()
    }
}

fn run_cell(
    scale: &Scale,
    attack: AttackKind,
    intensity: f64,
    defense: bool,
    journaled: bool,
) -> (AdversaryCell, Option<Vec<u8>>) {
    match attack {
        AttackKind::Sybil => sybil_cell(scale, intensity, defense, journaled),
        AttackKind::Eclipse => eclipse_cell(scale, intensity, defense, journaled),
        AttackKind::SlowDrift => drift_cell(scale, intensity, defense, journaled),
    }
}

fn new_sim(scale: &Scale, malicious_fraction: f64, journaled: bool) -> VivaldiSimulation {
    let mut sim = VivaldiSimulation::new(scenario(scale, malicious_fraction));
    if journaled {
        sim.enable_journal(Journal::in_memory());
    }
    sim
}

/// Sybil swarm: `intensity` of the population are swarm identities, and
/// the same fraction of every honest normal node's candidate slots is
/// steered to them. The lies are blatant remote-cluster claims, so the
/// attack phase starts from a converged, armed system (the paper's
/// threat timing).
fn sybil_cell(
    scale: &Scale,
    intensity: f64,
    defense: bool,
    journaled: bool,
) -> (AdversaryCell, Option<Vec<u8>>) {
    assert!(
        intensity > 0.0 && intensity <= 1.0,
        "sybil takeover fraction must be in (0, 1], got {intensity}"
    );
    let mut sim = new_sim(scale, intensity, journaled);
    sim.run_clean(scale.clean_passes);
    sim.calibrate_surveyors(&EmConfig::default());
    sim.arm_detection();
    sim.set_defense(defense_config(scale, defense));
    let median_rtt = sim.network().median_base_rtt();
    let swarm = SybilSwarmAttack::new(
        sim.malicious().iter().copied(),
        (median_rtt * 4.0).max(500.0),
        10.0,
        sim.coordinate(0).dims(),
        scale.seed ^ SYBIL_SALT,
    );
    sim.set_eclipse(EclipsePlan::new(
        sim.normal_nodes(),
        sim.malicious().iter().copied(),
        intensity,
        scale.seed ^ SYBIL_SALT,
    ));
    sim.run(scale.measure_passes, &swarm, false);
    harvest(sim, scale, AttackKind::Sybil, intensity, defense)
}

/// Eclipse: the registrar steers `intensity` of every honest normal
/// node's referrals to the attackers *from the first tick*, and the
/// attackers report the rigid translation throughout — so victims
/// converge into the translated frame before detection is armed, and
/// the armed detector inherits a filter primed on translated-but-
/// consistent history. That pre-positioning is the whole attack.
fn eclipse_cell(
    scale: &Scale,
    intensity: f64,
    defense: bool,
    journaled: bool,
) -> (AdversaryCell, Option<Vec<u8>>) {
    assert!(
        intensity > 0.0 && intensity <= 1.0,
        "eclipse steering strength must be in (0, 1], got {intensity}"
    );
    let mut sim = new_sim(scale, BASE_MALICIOUS_FRACTION, journaled);
    let offset_ms = (sim.network().median_base_rtt() * 2.0).max(150.0);
    let attack = EclipseAttack::new(
        sim.malicious().iter().copied(),
        sim.normal_nodes(),
        offset_ms,
        scale.seed ^ ECLIPSE_SALT,
    );
    sim.set_eclipse(EclipsePlan::new(
        sim.normal_nodes(),
        sim.malicious().iter().copied(),
        intensity,
        scale.seed ^ ECLIPSE_SALT,
    ));
    // The adversary is active during convergence: victims embed inside
    // the translated frame and their traces (which prime the armed
    // filters) already reflect it.
    sim.run(scale.clean_passes, &attack, true);
    sim.calibrate_surveyors(&EmConfig::default());
    sim.arm_detection();
    sim.set_defense(defense_config(scale, defense));
    sim.run(scale.measure_passes, &attack, false);
    harvest(sim, scale, AttackKind::Eclipse, intensity, defense)
}

/// Slow drift: attackers drift their claims `intensity` ms per tick,
/// anchored at the attack phase's first tick so the opening sample is
/// honest. No steering — the attack needs nothing but patience.
fn drift_cell(
    scale: &Scale,
    intensity: f64,
    defense: bool,
    journaled: bool,
) -> (AdversaryCell, Option<Vec<u8>>) {
    assert!(
        intensity > 0.0,
        "drift rate must be positive, got {intensity}"
    );
    let mut sim = new_sim(scale, BASE_MALICIOUS_FRACTION, journaled);
    sim.run_clean(scale.clean_passes);
    sim.calibrate_surveyors(&EmConfig::default());
    sim.arm_detection();
    sim.set_defense(defense_config(scale, defense));
    let attack = SlowDriftAttack::new(
        sim.malicious().iter().copied(),
        intensity,
        scale.seed ^ DRIFT_SALT,
    )
    .starting_at(sim.ticks());
    sim.run(scale.measure_passes, &attack, false);
    harvest(sim, scale, AttackKind::SlowDrift, intensity, defense)
}

fn harvest(
    mut sim: VivaldiSimulation,
    scale: &Scale,
    attack: AttackKind,
    intensity: f64,
    defense: bool,
) -> (AdversaryCell, Option<Vec<u8>>) {
    let accuracy = sim.accuracy_report(scale.pairs_per_node);
    let report = sim.report();
    let journal = sim.finish_journal();
    let cell = AdversaryCell {
        attack,
        intensity,
        defense,
        confusion: report.confusion,
        adversary: report.adversary,
        replacements: report.replacements,
        accuracy_median: accuracy.ecdf().map(|e| e.median()),
        accuracy_p95: accuracy.ecdf().map(|e| e.quantile(0.95)),
        accuracy_degradation: None,
    };
    (cell, journal)
}

/// The honest-world baseline at this scale: same pipeline, no attack,
/// defense off. Its accuracy median is every cell's degradation
/// denominator.
pub fn honest_baseline_accuracy(scale: &Scale) -> Option<f64> {
    let mut sim = new_sim(scale, BASE_MALICIOUS_FRACTION, false);
    sim.run_clean(scale.clean_passes);
    sim.calibrate_surveyors(&EmConfig::default());
    sim.arm_detection();
    sim.run(scale.measure_passes, &ices_attack::HonestWorld, false);
    sim.accuracy_report(scale.pairs_per_node)
        .ecdf()
        .map(|e| e.median())
}

/// The full sweep: every attack kind × its intensity axis × defense
/// {off, on}, plus the honest baseline. Cells are independent
/// deterministic simulations and fan out over [`ices_par`].
pub fn adversary_sweep(scale: &Scale) -> AdversarySweep {
    let mut points: Vec<(AttackKind, f64, bool)> = Vec::new();
    for kind in AttackKind::ALL {
        for &intensity in kind.default_intensities() {
            points.push((kind, intensity, false));
            points.push((kind, intensity, true));
        }
    }
    adversary_sweep_over(scale, &points)
}

/// [`adversary_sweep`] over an explicit cell list (smoke runs shrink
/// the matrix; the harness uses the default one).
pub fn adversary_sweep_over(scale: &Scale, points: &[(AttackKind, f64, bool)]) -> AdversarySweep {
    let honest = honest_baseline_accuracy(scale);
    let mut cells = ices_par::par_map(points, |_, &(kind, intensity, defense)| {
        adversary_cell(scale, kind, intensity, defense)
    });
    if let Some(h) = honest {
        if h > 0.0 {
            for cell in &mut cells {
                cell.accuracy_degradation = cell.accuracy_median.map(|m| m / h);
            }
        }
    }
    AdversarySweep {
        honest_accuracy_median: honest,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_drift_under_threshold_evades_the_detector() {
        // The headline negative result: at a drift rate far below the
        // innovation threshold, nearly every tampered sample is
        // accepted. TPR < 0.2 is the acceptance criterion — the
        // detector is *supposed* to lose here.
        let cell = adversary_cell(&Scale::test(), AttackKind::SlowDrift, 0.05, false);
        assert!(
            cell.confusion.positives() > 0,
            "the drift must actually inject lies"
        );
        assert!(cell.adversary.active_lies > 0);
        assert!(
            cell.adversary.drift_accumulated_ms > 0.0,
            "the drift gauge must move"
        );
        assert!(
            cell.tpr() < 0.2,
            "sub-threshold drift should evade the innovation test, tpr {}",
            cell.tpr()
        );
        assert!(
            cell.fpr() < 0.15,
            "evasion must not come from a broken detector"
        );
    }

    #[test]
    fn eclipse_blinds_the_detector_until_cross_verification() {
        // Defense off: the victim converged inside the translated frame,
        // so innovations look healthy and TPR collapses. Defense on:
        // witnesses outside the eclipse contradict the claims and
        // detection recovers — the sweep's recovery criterion.
        let off = adversary_cell(&Scale::test(), AttackKind::Eclipse, 0.50, false);
        let on = adversary_cell(&Scale::test(), AttackKind::Eclipse, 0.50, true);
        assert!(off.confusion.positives() > 0, "lies must flow");
        assert!(on.adversary.cross_checks > 0, "defense must actually probe");
        assert!(on.adversary.rejections > 0, "defense must actually reject");
        assert!(
            on.tpr() > off.tpr() + 0.2,
            "cross-verification must measurably recover detection: off {} vs on {}",
            off.tpr(),
            on.tpr()
        );
    }

    #[test]
    fn sybil_swarm_is_blatant_to_the_innovation_test() {
        let cell = adversary_cell(&Scale::test(), AttackKind::Sybil, 0.25, false);
        assert!(cell.confusion.positives() > 0, "sybil lies must flow");
        assert!(
            cell.tpr() > 0.5,
            "remote-cluster claims should trip the detector, tpr {}",
            cell.tpr()
        );
        assert!(cell.fpr() < 0.15, "honest steps must not be collateral");
    }

    #[test]
    fn sweep_covers_the_matrix_and_fills_degradation() {
        // A shrunken matrix keeps the tier-1 budget: one intensity per
        // attack, both defense arms.
        let points = [
            (AttackKind::Sybil, 0.25, false),
            (AttackKind::Sybil, 0.25, true),
            (AttackKind::Eclipse, 0.50, false),
            (AttackKind::Eclipse, 0.50, true),
            (AttackKind::SlowDrift, 0.05, false),
            (AttackKind::SlowDrift, 0.05, true),
        ];
        let sweep = adversary_sweep_over(&Scale::test(), &points);
        assert_eq!(sweep.cells.len(), 6);
        let honest = sweep
            .honest_accuracy_median
            .expect("baseline samples pairs");
        assert!(honest > 0.0);
        for cell in &sweep.cells {
            assert!(
                cell.accuracy_degradation.is_some(),
                "degradation must be filled for {:?}",
                cell.attack
            );
        }
        let pairs = sweep.pairs(AttackKind::Eclipse);
        assert_eq!(pairs.len(), 1);
        let (off, on) = pairs[0];
        assert!(!off.defense && on.defense);
        // Defense-off cells never cross-check; armed cells always do.
        assert_eq!(off.adversary.cross_checks, 0);
        assert!(on.adversary.cross_checks > 0);
    }

    #[test]
    fn journaled_cell_matches_plain_cell() {
        let scale = Scale::test();
        let plain = adversary_cell(&scale, AttackKind::SlowDrift, 0.5, true);
        let (journaled, bytes) = adversary_cell_journaled(&scale, AttackKind::SlowDrift, 0.5, true);
        assert_eq!(plain, journaled, "journaling must not perturb the run");
        let text = String::from_utf8(bytes).expect("utf8 journal");
        let (run, errors) = ices_obs::report::parse(&text);
        assert!(errors.is_empty(), "journal must validate: {errors:?}");
        assert!(!run.ticks.is_empty(), "journal must carry tick deltas");
    }
}
