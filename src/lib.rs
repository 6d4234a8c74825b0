//! # ices — securing Internet coordinate embedding systems
//!
//! A from-scratch Rust reproduction of Kaafar, Mathy, Barakat,
//! Salamatian, Turletti & Dabbous, *Securing Internet Coordinate
//! Embedding Systems* (SIGCOMM 2007): Kalman-filter-based detection of
//! malicious behavior during coordinate embedding, calibrated by a
//! trusted **Surveyor** infrastructure, evaluated on full
//! implementations of Vivaldi and NPS over a synthetic Internet delay
//! substrate.
//!
//! This facade crate re-exports the workspace members under stable
//! paths:
//!
//! * [`stats`] — statistics substrate (normal kernels, Lilliefors test,
//!   ECDF, k-means, ROC, seeded samplers).
//! * [`coord`] — coordinate geometry (Euclidean + height vectors) and
//!   the [`coord::Embedding`] step abstraction.
//! * [`netsim`] — synthetic King/PlanetLab topologies and the
//!   stationary RTT fluctuation model.
//! * [`vivaldi`] / [`nps`] — the two embedding systems the paper
//!   evaluates.
//! * [`core`] — the paper's contribution: state-space model, Kalman
//!   filter, EM calibration, innovation test, Surveyors, and the
//!   generic detection protocol.
//! * [`attack`] — the colluding isolation (Vivaldi) and colluding
//!   reference-point (NPS, with anti-detection) adversaries.
//! * [`sim`] — the full experiment harness reproducing every table and
//!   figure of the paper's evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use ices::core::{calibrate, Detector, EmConfig, StateSpaceParams};
//!
//! // A clean trace of measured relative errors (here: simulated from a
//! // known model; in the system it comes from a Surveyor's embedding).
//! let truth = StateSpaceParams { beta: 0.8, v_w: 0.004, v_u: 0.002,
//!                                w_bar: 0.03, w0: 0.5, p0: 0.05 };
//! let mut rng = ices::stats::rng::stream_rng(1, 0);
//! let trace = truth.simulate(2000, &mut rng);
//!
//! // Calibrate by EM and arm the α = 5% innovation test.
//! let calibrated = calibrate(&trace, StateSpaceParams::em_initial_guess(),
//!                            &EmConfig::default());
//! // Arming and testing return a typed `DetectorError` on invalid input.
//! let mut detector = Detector::new(calibrated.params, 0.05)?;
//!
//! // Nominal steps pass, blatant manipulation is flagged.
//! assert!(!detector.assess(truth.stationary_mean())?.suspicious);
//! assert!(detector.assess(5.0)?.suspicious);
//! # Ok::<(), ices::core::DetectorError>(())
//! ```
//!
//! See `examples/` for full-system walkthroughs and `crates/bench` for
//! the per-figure reproduction harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ices_attack as attack;
pub use ices_coord as coord;
pub use ices_core as core;
pub use ices_netsim as netsim;
pub use ices_nps as nps;
pub use ices_sim as sim;
pub use ices_stats as stats;
pub use ices_vivaldi as vivaldi;
