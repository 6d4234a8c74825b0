//! Network coordinates with optional height vectors.
//!
//! Implements the height-vector algebra of the Vivaldi paper:
//!
//! ```text
//! [x₁, h₁] − [x₂, h₂] = [x₁ − x₂, h₁ + h₂]
//! ‖[x, h]‖            = ‖x‖ + h
//! α · [x, h]          = [α·x, α·h]
//! ```
//!
//! With `height = 0` everywhere these reduce to ordinary Euclidean
//! algebra, so the same type serves NPS's 8-d space.

use crate::space::Space;
use crate::vector;
use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};

/// A coordinate in an embedding space: a Euclidean position plus a
/// non-negative height.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Coordinate {
    position: Vec<f64>,
    height: f64,
}

impl Coordinate {
    /// The origin of the given space (zero position, zero height).
    pub fn origin(space: Space) -> Self {
        Self {
            position: vec![0.0; space.dims()],
            height: 0.0,
        }
    }

    /// Construct from an explicit position and height.
    ///
    /// # Panics
    /// Panics if the position is empty, any component is non-finite, or
    /// the height is negative or non-finite.
    pub fn new(position: Vec<f64>, height: f64) -> Self {
        assert!(
            !position.is_empty(),
            "coordinate needs at least one dimension"
        );
        assert!(
            position.iter().all(|x| x.is_finite()),
            "coordinate components must be finite"
        );
        assert!(
            height.is_finite() && height >= 0.0,
            "height must be finite and non-negative, got {height}"
        );
        Self { position, height }
    }

    /// Construct a pure-Euclidean coordinate (zero height).
    pub fn euclidean(position: Vec<f64>) -> Self {
        Self::new(position, 0.0)
    }

    /// A random coordinate with components in `[-radius, radius)` and, if
    /// the space uses heights, a height in `[0, radius/10)`. Used to break
    /// symmetry when all nodes start at the origin.
    pub fn random<R: Rng + ?Sized>(space: Space, radius: f64, rng: &mut R) -> Self {
        let position = (0..space.dims())
            .map(|_| rng.random::<f64>() * 2.0 * radius - radius)
            .collect();
        let height = if space.uses_height() {
            rng.random::<f64>() * radius / 10.0
        } else {
            0.0
        };
        Self { position, height }
    }

    /// Euclidean position (without the height component).
    pub fn position(&self) -> &[f64] {
        &self.position
    }

    /// Height component (0 in pure Euclidean spaces).
    pub fn height(&self) -> f64 {
        self.height
    }

    /// Number of Euclidean dimensions.
    pub fn dims(&self) -> usize {
        self.position.len()
    }

    /// Vivaldi vector magnitude: `‖x‖ + h`.
    pub fn magnitude(&self) -> f64 {
        vector::norm(&self.position) + self.height
    }

    /// Estimated RTT between two coordinates:
    /// `‖x_a − x_b‖ + h_a + h_b` (plain Euclidean distance when heights
    /// are zero).
    ///
    /// # Panics
    /// Panics on dimensionality mismatch.
    pub fn distance(&self, other: &Coordinate) -> f64 {
        vector::distance(&self.position, &other.position) + self.height + other.height
    }

    /// The displacement `self − other` under height-vector algebra: the
    /// positional difference with the heights *added* (a displacement
    /// "through the core", per the Vivaldi paper).
    pub fn displacement(&self, other: &Coordinate) -> Coordinate {
        Coordinate {
            position: vector::sub(&self.position, &other.position),
            height: self.height + other.height,
        }
    }

    /// Unit displacement from `other` toward `self`, i.e. the direction a
    /// spring between the two nodes pushes `self`. When the two positions
    /// coincide a random direction is drawn (Vivaldi's rule for colocated
    /// nodes).
    pub fn direction_from<R: Rng + ?Sized>(&self, other: &Coordinate, rng: &mut R) -> Coordinate {
        let diff = self.displacement(other);
        let mag = diff.magnitude();
        if mag > 0.0 && vector::norm(&diff.position) > 0.0 {
            diff.scaled(1.0 / mag)
        } else {
            // Colocated: pick a uniformly random unit direction.
            loop {
                let v: Vec<f64> = (0..self.position.len())
                    .map(|_| rng.random::<f64>() * 2.0 - 1.0)
                    .collect();
                let n = vector::norm(&v);
                if n > 1e-6 && n <= 1.0 {
                    return Coordinate {
                        position: vector::scale(&v, 1.0 / n),
                        height: 0.0,
                    };
                }
            }
        }
    }

    /// Scale position and height by `s` (heights are clamped at zero if
    /// the scale is negative, since heights cannot go negative).
    pub fn scaled(&self, s: f64) -> Coordinate {
        let out = Coordinate {
            position: vector::scale(&self.position, s),
            height: (self.height * s).max(0.0),
        };
        debug_assert!(
            out.is_finite(),
            "scaling by {s} produced a non-finite coordinate"
        );
        out
    }

    /// Move this coordinate by `delta = s · direction` (Vivaldi's update
    /// `x_i ← x_i + δ · u`). The height moves with the delta's height
    /// component and is clamped to stay non-negative.
    pub fn apply_force(&mut self, s: f64, direction: &Coordinate) {
        assert_eq!(
            self.position.len(),
            direction.position.len(),
            "dimensionality mismatch"
        );
        vector::axpy(&mut self.position, s, &direction.position);
        self.height = (self.height + s * direction.height).max(0.0);
        debug_assert!(
            self.is_finite(),
            "coordinate went non-finite under force {s} (direction magnitude {})",
            direction.magnitude()
        );
        debug_assert!(self.height >= 0.0, "height clamped below zero");
    }

    /// One spring move away from (or toward) `other`: `self ← self +
    /// s·u` with `u` = [`Coordinate::direction_from`]`(other)`, computed
    /// in place. Bit-identical to `apply_force(s, &direction_from(other,
    /// rng))`: the same f64 op sequence per component, and the same
    /// random draws on the colocated branch (the only one that
    /// allocates).
    ///
    /// # Panics
    /// Panics on dimensionality mismatch.
    pub fn spring_step<R: Rng + ?Sized>(&mut self, other: &Coordinate, s: f64, rng: &mut R) {
        // `distance` sums `(x − y)²` exactly as `norm(sub(x, y))` does.
        let norm = vector::distance(&self.position, &other.position);
        let height = self.height + other.height;
        let mag = norm + height;
        if !(mag > 0.0 && norm > 0.0) {
            let direction = self.direction_from(other, rng);
            self.apply_force(s, &direction);
            return;
        }
        let inv = 1.0 / mag;
        for (x, &y) in self.position.iter_mut().zip(&other.position) {
            *x += s * ((*x - y) * inv);
        }
        self.height = (self.height + s * (height * inv).max(0.0)).max(0.0);
        debug_assert!(
            self.is_finite(),
            "coordinate went non-finite under spring force {s}"
        );
    }

    /// Replace the coordinate wholesale (used when a solver like NPS's
    /// downhill simplex produces a new position).
    pub fn set_position(&mut self, position: Vec<f64>) {
        assert_eq!(
            self.position.len(),
            position.len(),
            "dimensionality mismatch"
        );
        assert!(
            position.iter().all(|x| x.is_finite()),
            "coordinate components must be finite"
        );
        self.position = position;
    }

    /// Raise the height to at least `min` (Vivaldi keeps a small positive
    /// height floor so the height dimension can always recover — zero is
    /// otherwise nearly absorbing under the clamped force updates).
    ///
    /// # Panics
    /// Panics if `min` is negative or non-finite.
    pub fn clamp_height_min(&mut self, min: f64) {
        assert!(
            min.is_finite() && min >= 0.0,
            "height floor must be finite and non-negative, got {min}"
        );
        if self.height < min {
            self.height = min;
        }
    }

    /// Whether every component (and the height) is finite.
    pub fn is_finite(&self) -> bool {
        self.position.iter().all(|x| x.is_finite()) && self.height.is_finite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(7)
    }

    #[test]
    fn origin_is_zero() {
        let c = Coordinate::origin(Space::with_height(2));
        assert_eq!(c.position(), &[0.0, 0.0]);
        assert_eq!(c.height(), 0.0);
        assert_eq!(c.magnitude(), 0.0);
    }

    #[test]
    fn distance_includes_heights() {
        let a = Coordinate::new(vec![0.0, 0.0], 10.0);
        let b = Coordinate::new(vec![3.0, 4.0], 20.0);
        assert_eq!(a.distance(&b), 5.0 + 10.0 + 20.0);
    }

    #[test]
    fn euclidean_distance_without_heights() {
        let a = Coordinate::euclidean(vec![1.0, 0.0, 0.0]);
        let b = Coordinate::euclidean(vec![0.0, 0.0, 0.0]);
        assert_eq!(a.distance(&b), 1.0);
    }

    #[test]
    fn displacement_adds_heights() {
        let a = Coordinate::new(vec![5.0, 0.0], 2.0);
        let b = Coordinate::new(vec![1.0, 0.0], 3.0);
        let d = a.displacement(&b);
        assert_eq!(d.position(), &[4.0, 0.0]);
        assert_eq!(d.height(), 5.0);
        assert_eq!(d.magnitude(), 9.0);
    }

    #[test]
    fn direction_is_unit_magnitude() {
        let a = Coordinate::new(vec![5.0, 1.0], 2.0);
        let b = Coordinate::new(vec![1.0, -2.0], 1.0);
        let u = a.direction_from(&b, &mut rng());
        assert!((u.magnitude() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn colocated_direction_is_random_unit() {
        let a = Coordinate::new(vec![1.0, 1.0], 0.5);
        let mut r = rng();
        let u1 = a.direction_from(&a.clone(), &mut r);
        let u2 = a.direction_from(&a.clone(), &mut r);
        assert!((u1.magnitude() - 1.0).abs() < 1e-12);
        assert_ne!(u1.position(), u2.position(), "directions should differ");
    }

    #[test]
    fn apply_force_moves_toward_direction() {
        let mut a = Coordinate::new(vec![0.0, 0.0], 1.0);
        let dir = Coordinate::new(vec![1.0, 0.0], 0.5);
        a.apply_force(2.0, &dir);
        assert_eq!(a.position(), &[2.0, 0.0]);
        assert_eq!(a.height(), 2.0);
    }

    #[test]
    fn apply_negative_force_clamps_height() {
        let mut a = Coordinate::new(vec![0.0, 0.0], 0.1);
        let dir = Coordinate::new(vec![1.0, 0.0], 1.0);
        a.apply_force(-5.0, &dir);
        assert_eq!(a.height(), 0.0, "height must not go negative");
    }

    #[test]
    fn random_respects_space() {
        let mut r = rng();
        let c = Coordinate::random(Space::euclidean(8), 100.0, &mut r);
        assert_eq!(c.dims(), 8);
        assert_eq!(c.height(), 0.0);
        let ch = Coordinate::random(Space::with_height(2), 100.0, &mut r);
        assert!(ch.height() >= 0.0);
    }

    #[test]
    #[should_panic(expected = "height must be finite and non-negative")]
    fn rejects_negative_height() {
        Coordinate::new(vec![0.0], -1.0);
    }

    #[test]
    fn serde_roundtrip() {
        let c = Coordinate::new(vec![1.5, -2.5], 3.25);
        let json = serde_json::to_string(&c).expect("serialize");
        let back: Coordinate = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(c, back);
    }

    proptest! {
        #[test]
        fn distance_symmetric(
            pa in proptest::collection::vec(-100f64..100.0, 2),
            pb in proptest::collection::vec(-100f64..100.0, 2),
            ha in 0f64..50.0,
            hb in 0f64..50.0,
        ) {
            let a = Coordinate::new(pa, ha);
            let b = Coordinate::new(pb, hb);
            prop_assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-12);
            prop_assert!(a.distance(&b) >= 0.0);
        }

        #[test]
        fn self_distance_is_twice_height(
            p in proptest::collection::vec(-100f64..100.0, 3),
            h in 0f64..50.0,
        ) {
            // Height models the access link: even to "itself" in the space,
            // distance counts both heights — matching Vivaldi's semantics
            // where distance(a, a) = 2h, not 0.
            let a = Coordinate::new(p, h);
            prop_assert!((a.distance(&a.clone()) - 2.0 * h).abs() < 1e-12);
        }

        #[test]
        fn triangle_inequality_with_heights(
            pa in proptest::collection::vec(-100f64..100.0, 2),
            pb in proptest::collection::vec(-100f64..100.0, 2),
            pc in proptest::collection::vec(-100f64..100.0, 2),
            ha in 0f64..20.0, hb in 0f64..20.0, hc in 0f64..20.0,
        ) {
            // Height vectors preserve the triangle inequality (the
            // intermediate node's height is counted twice on the two-hop
            // path, only helping the inequality).
            let a = Coordinate::new(pa, ha);
            let b = Coordinate::new(pb, hb);
            let c = Coordinate::new(pc, hc);
            prop_assert!(a.distance(&c) <= a.distance(&b) + b.distance(&c) + 1e-9);
        }

        /// Heights on or off, positions apart or colocated, forces of
        /// either sign: the in-place spring move leaves exactly the
        /// bits — and the rng state — of the two-step reference.
        #[test]
        fn spring_step_matches_direction_then_force(
            pa in proptest::collection::vec(-100f64..100.0, 3),
            pb in proptest::collection::vec(-100f64..100.0, 3),
            ha in 0f64..20.0, hb in 0f64..20.0,
            shape in 0u8..4,
            s in -50f64..50.0,
        ) {
            // Bit 0: zero heights (a pure Euclidean space); bit 1: the
            // two positions coincide (the random-direction branch).
            let (ha, hb) = if shape & 1 == 1 { (0.0, 0.0) } else { (ha, hb) };
            let a = Coordinate::new(pa, ha);
            let pb = if shape & 2 == 2 { a.position().to_vec() } else { pb };
            let b = Coordinate::new(pb, hb);
            let (mut r1, mut r2) = (rng(), rng());
            let mut reference = a.clone();
            let direction = reference.direction_from(&b, &mut r1);
            reference.apply_force(s, &direction);
            let mut stepped = a;
            stepped.spring_step(&b, s, &mut r2);
            let bits = |c: &Coordinate| {
                (c.position().iter().map(|x| x.to_bits()).collect::<Vec<_>>(), c.height().to_bits())
            };
            prop_assert_eq!(bits(&stepped), bits(&reference));
            prop_assert_eq!(r1.random::<u64>(), r2.random::<u64>());
        }

        #[test]
        fn direction_always_unit(
            pa in proptest::collection::vec(-100f64..100.0, 2),
            pb in proptest::collection::vec(-100f64..100.0, 2),
            ha in 0f64..20.0, hb in 0f64..20.0,
        ) {
            let a = Coordinate::new(pa, ha);
            let b = Coordinate::new(pb, hb);
            let mut r = rng();
            let u = a.direction_from(&b, &mut r);
            prop_assert!((u.magnitude() - 1.0).abs() < 1e-9);
        }
    }
}
