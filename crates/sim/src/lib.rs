//! Experiment harness for the SIGCOMM'07 evaluation.
//!
//! Ties the workspace together: builds a synthetic topology
//! (`ices-netsim`), runs a full Vivaldi or NPS system over it
//! (`ices-vivaldi` / `ices-nps`), deploys Surveyors and the detection
//! protocol (`ices-core`), unleashes an adversary (`ices-attack`), and
//! collects the metrics every table and figure of the paper reports.
//!
//! Both simulations are one generic type, [`SecuredSim`] (module
//! [`secured`]), as the paper's claim that one detector secures any
//! embedding system suggests: [`VivaldiSimulation`] is
//! `SecuredSim<Vivaldi>` ([`vivaldi_driver`]) and [`NpsSimulation`] is
//! `SecuredSim<Nps>` ([`nps_driver`]). The shared core holds the
//! population, the Surveyors, the traces, arming, the round-boundary
//! filter refresh, the fault bookkeeping and the metrics; a backend adds
//! its peer sets and its probe schedule.
//!
//! The simulations are deliberately phase-structured, mirroring the
//! paper's method:
//!
//! 1. **Clean embedding** — the system converges without malicious nodes;
//!    every node's measured-relative-error trace is recorded.
//! 2. **Calibration** — Surveyors (or, for the §3.2 validation, every
//!    node) run EM over their traces to obtain filter parameters.
//! 3. **Re-embedding / attack** — nodes forget their coordinates and
//!    rejoin (validation experiments), or an adversary activates
//!    (detection experiments) while normal nodes vet every embedding
//!    step through the Kalman innovation test.
//!
//! Offline replay: because the filter consumes only the scalar trace of
//! measured relative errors, collected traces can be replayed through
//! any number of filters after the fact — this is how the
//! (node × Surveyor) prediction-error matrices of Figs 6–8 are produced
//! without rerunning the system.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod metrics;
pub mod nps_driver;
pub mod obs;
pub mod replay;
pub mod scenario;
pub mod secured;
pub mod snapshot;
pub mod trace;
pub mod vivaldi_driver;

pub use metrics::{AccuracyReport, DetectionReport};
pub use nps_driver::NpsSimulation;
pub use obs::SimObs;
pub use replay::{prediction_errors, replay_filter};
pub use scenario::{ScenarioConfig, SurveyorPlacement, TopologyKind};
pub use secured::SecuredSim;
pub use vivaldi_driver::VivaldiSimulation;
