//! The Surveyor infrastructure (§3.3 and §4.2 of the paper).
//!
//! Surveyors are trusted, honest nodes that position themselves **using
//! each other exclusively**, so their coordinates — and the relative-error
//! dynamics they observe — are immune to malicious behavior in the rest
//! of the system. Each Surveyor calibrates a Kalman filter on its own
//! clean embedding and shares the resulting [`StateSpaceParams`] as a
//! "representation of normal system behavior".
//!
//! The registry models the infrastructure server the paper describes
//! (NPS's membership server, or a Vivaldi bootstrap server): joining
//! nodes ask it for a handful of random Surveyors, measure their RTT to
//! each, and adopt the filter of the closest — §3.3 shows prediction
//! accuracy improves with node–Surveyor locality. On refresh, a node
//! instead picks the Surveyor closest in *estimated* (coordinate)
//! distance.

use crate::model::StateSpaceParams;
use ices_coord::Coordinate;
use ices_stats::sample::sample_indices;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// What a Surveyor publishes: its identity, coordinate, and calibrated
/// filter parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurveyorInfo {
    /// Node id of the Surveyor.
    pub id: usize,
    /// The Surveyor's current coordinate (kept fresh as it re-embeds).
    pub coordinate: Coordinate,
    /// Parameters of the filter the Surveyor calibrated on its own clean
    /// embedding.
    pub params: StateSpaceParams,
}

/// The registrar all Surveyors register with.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SurveyorRegistry {
    surveyors: Vec<SurveyorInfo>,
}

impl SurveyorRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a Surveyor (or update it if the id is already present).
    pub fn register(&mut self, info: SurveyorInfo) {
        info.params.validate();
        if let Some(existing) = self.surveyors.iter_mut().find(|s| s.id == info.id) {
            *existing = info;
        } else {
            self.surveyors.push(info);
        }
    }

    /// Rewrite every registered Surveyor's entry in place, in
    /// registration order: `rewrite(i, info)` gets the `i`-th entry and
    /// must keep its id.
    ///
    /// # Panics
    /// Panics if a rewritten entry's parameters are invalid.
    pub fn update_each(&mut self, mut rewrite: impl FnMut(usize, &mut SurveyorInfo)) {
        for (i, info) in self.surveyors.iter_mut().enumerate() {
            let id = info.id;
            rewrite(i, info);
            debug_assert_eq!(info.id, id, "a rewrite must keep the Surveyor's id");
            info.params.validate();
        }
    }

    /// Number of registered Surveyors.
    pub fn len(&self) -> usize {
        self.surveyors.len()
    }

    /// Whether no Surveyor has registered yet.
    pub fn is_empty(&self) -> bool {
        self.surveyors.is_empty()
    }

    /// All registered Surveyors.
    pub fn all(&self) -> &[SurveyorInfo] {
        &self.surveyors
    }

    /// Look up a Surveyor by id.
    pub fn get(&self, id: usize) -> Option<&SurveyorInfo> {
        self.surveyors.iter().find(|s| s.id == id)
    }

    /// The join-time query: `k` randomly chosen Surveyors (fewer if the
    /// registry is smaller). The joining node then measures its RTT to
    /// each and adopts the closest one's filter.
    ///
    /// An empty registry yields an empty sample (and draws nothing from
    /// `rng`, so a later non-empty query sees an unperturbed stream) —
    /// callers must treat "no Surveyor available" as a deferred join,
    /// not an error.
    pub fn sample<R: Rng + ?Sized>(&self, k: usize, rng: &mut R) -> Vec<&SurveyorInfo> {
        if self.surveyors.is_empty() {
            return Vec::new();
        }
        let take = k.min(self.surveyors.len());
        sample_indices(rng, self.surveyors.len(), take)
            .into_iter()
            .map(|i| &self.surveyors[i])
            .collect()
    }

    /// The refresh-time query: the Surveyor closest to `coord` in
    /// estimated (coordinate-space) distance.
    ///
    /// Returns `None` on an empty registry — a node refreshing while no
    /// Surveyor is registered must keep its stale filter rather than
    /// panic.
    pub fn closest_by_coordinate(&self, coord: &Coordinate) -> Option<&SurveyorInfo> {
        self.surveyors.iter().min_by(|a, b| {
            coord
                .distance(&a.coordinate)
                .total_cmp(&coord.distance(&b.coordinate))
        })
    }

    /// [`SurveyorRegistry::closest_by_coordinate`] restricted to
    /// Surveyors the caller can currently reach: `is_available` gates
    /// each candidate (typically on the network's churn schedule).
    ///
    /// Returns `None` when the registry is empty **or every Surveyor is
    /// down** — the all-Surveyors-down case, where the caller falls back
    /// to its stale-but-bounded calibration until one rejoins.
    pub fn closest_available_by_coordinate<F: Fn(&SurveyorInfo) -> bool>(
        &self,
        coord: &Coordinate,
        is_available: F,
    ) -> Option<&SurveyorInfo> {
        self.surveyors
            .iter()
            .filter(|s| is_available(s))
            .min_by(|a, b| {
                coord
                    .distance(&a.coordinate)
                    .total_cmp(&coord.distance(&b.coordinate))
            })
    }

    /// The Surveyor minimizing a caller-supplied cost (e.g. a *measured*
    /// RTT, which is how joining nodes pick their representative).
    pub fn closest_by<F: FnMut(&SurveyorInfo) -> f64>(
        &self,
        candidates: &[&SurveyorInfo],
        mut cost: F,
    ) -> Option<usize> {
        candidates
            .iter()
            .min_by(|a, b| cost(a).total_cmp(&cost(b)))
            .map(|s| s.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ices_coord::Space;
    use ices_stats::rng::stream_rng;

    fn info(id: usize, x: f64) -> SurveyorInfo {
        SurveyorInfo {
            id,
            coordinate: Coordinate::new(vec![x, 0.0], 0.0),
            params: StateSpaceParams::em_initial_guess(),
        }
    }

    #[test]
    fn register_and_lookup() {
        let mut reg = SurveyorRegistry::new();
        assert!(reg.is_empty());
        reg.register(info(7, 10.0));
        reg.register(info(9, 20.0));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.get(7).expect("exists").id, 7);
        assert!(reg.get(8).is_none());
    }

    #[test]
    fn register_updates_in_place() {
        let mut reg = SurveyorRegistry::new();
        reg.register(info(7, 10.0));
        reg.register(info(7, 99.0));
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.get(7).expect("exists").coordinate.position()[0], 99.0);
    }

    #[test]
    fn sample_returns_distinct_surveyors() {
        let mut reg = SurveyorRegistry::new();
        for i in 0..20 {
            reg.register(info(i, i as f64));
        }
        let mut rng = stream_rng(1, 0);
        let picked = reg.sample(8, &mut rng);
        assert_eq!(picked.len(), 8);
        let mut ids: Vec<usize> = picked.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8);
    }

    #[test]
    fn sample_caps_at_registry_size() {
        let mut reg = SurveyorRegistry::new();
        reg.register(info(1, 0.0));
        reg.register(info(2, 5.0));
        let mut rng = stream_rng(2, 0);
        assert_eq!(reg.sample(10, &mut rng).len(), 2);
    }

    #[test]
    fn closest_by_coordinate_picks_the_nearest() {
        let mut reg = SurveyorRegistry::new();
        reg.register(info(1, 0.0));
        reg.register(info(2, 50.0));
        reg.register(info(3, 200.0));
        let me = Coordinate::new(vec![60.0, 0.0], 0.0);
        assert_eq!(reg.closest_by_coordinate(&me).expect("non-empty").id, 2);
    }

    #[test]
    fn closest_by_cost_uses_measured_rtt() {
        let mut reg = SurveyorRegistry::new();
        reg.register(info(1, 0.0));
        reg.register(info(2, 50.0));
        let mut rng = stream_rng(3, 0);
        let candidates = reg.sample(2, &mut rng);
        // Pretend measured RTT says surveyor 1 is far, 2 near.
        let chosen = reg.closest_by(&candidates, |s| if s.id == 1 { 100.0 } else { 3.0 });
        assert_eq!(chosen, Some(2));
    }

    #[test]
    fn empty_registry_yields_nothing() {
        let reg = SurveyorRegistry::new();
        assert!(reg
            .closest_by_coordinate(&Coordinate::origin(Space::with_height(2)))
            .is_none());
        let mut rng = stream_rng(4, 0);
        assert!(reg.sample(3, &mut rng).is_empty());
        assert!(reg
            .closest_available_by_coordinate(&Coordinate::origin(Space::with_height(2)), |_| true)
            .is_none());
    }

    #[test]
    fn empty_sample_leaves_rng_untouched() {
        use rand::RngExt;
        let reg = SurveyorRegistry::new();
        let mut probed = stream_rng(5, 0);
        reg.sample(3, &mut probed);
        let mut fresh = stream_rng(5, 0);
        assert_eq!(
            probed.random::<u64>(),
            fresh.random::<u64>(),
            "an empty sample must not advance the caller's rng"
        );
    }

    #[test]
    fn availability_filter_skips_down_surveyors() {
        let mut reg = SurveyorRegistry::new();
        reg.register(info(1, 0.0));
        reg.register(info(2, 50.0));
        reg.register(info(3, 200.0));
        let me = Coordinate::new(vec![60.0, 0.0], 0.0);
        // Nearest (id 2) is down: the next-nearest live one is chosen.
        let chosen = reg.closest_available_by_coordinate(&me, |s| s.id != 2);
        assert_eq!(chosen.expect("live surveyor").id, 1);
    }

    #[test]
    fn all_surveyors_down_returns_none() {
        let mut reg = SurveyorRegistry::new();
        reg.register(info(1, 0.0));
        reg.register(info(2, 50.0));
        let me = Coordinate::new(vec![60.0, 0.0], 0.0);
        assert!(
            reg.closest_available_by_coordinate(&me, |_| false)
                .is_none(),
            "a total Surveyor outage must surface as None, not a panic"
        );
    }

    #[test]
    fn serde_roundtrip() {
        let mut reg = SurveyorRegistry::new();
        reg.register(info(4, 12.0));
        let json = serde_json::to_string(&reg).expect("serialize");
        let back: SurveyorRegistry = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(reg, back);
    }
}
