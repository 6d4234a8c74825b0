//! Deterministic network-simulation substrate.
//!
//! The paper's experiments run on two substrates we cannot download: the
//! **King dataset** (a 1740×1740 matrix of pairwise RTTs between Internet
//! DNS servers) and a **280-node PlanetLab deployment**. This crate
//! replaces both with synthetic equivalents that preserve the properties
//! the embedding — and therefore the detection model — actually depends
//! on:
//!
//! * clustered RTT structure (continental regions, fast intra-region
//!   paths, slow inter-region paths) — [`kinggen`];
//! * per-node access-link delays ("heights") that no Euclidean embedding
//!   can represent, motivating Vivaldi's height vectors;
//! * triangle-inequality violations at King-like rates, via multiplicative
//!   lognormal route distortion;
//! * stationary measurement noise (§2 assumes RTT statistics stable at
//!   the scale of minutes, per Zhang et al.) with gaussian jitter, a
//!   lognormal congestion factor, and rare heavy-tailed spikes —
//!   [`fluctuation`];
//! * a handful of pathologically noisy hosts (the paper's "3 nodes in
//!   India" that dominate the prediction-error tail) — [`planetlab`];
//! * optional deterministic fault injection — per-link probe loss and
//!   timeouts, epoch-based node crash/rejoin churn — [`faults`]. The
//!   default is no faults: under an empty [`FaultPlan`] every node is up
//!   and every probe gets through;
//! * optional eclipse-biased referral steering (registrar poisoning) for
//!   the adversary suite — [`eclipse`]. The empty [`EclipsePlan`] is
//!   likewise a byte-identical no-op.
//!
//! Everything is driven by a single `u64` seed: a probe between nodes
//! `(a, b)` at probe-nonce `n` is keyed, gated and measured as a pure
//! function of `(seed, a, b, n)` ([`network`]), so experiments are
//! exactly reproducible and independent of iteration order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eclipse;
pub mod faults;
pub mod fluctuation;
pub mod kinggen;
pub mod network;
pub mod planetlab;
pub mod rtt;
pub mod topology;

pub use eclipse::EclipsePlan;
pub use faults::{ChurnModel, FaultPlan, LinkFaults, ProbeFate};
pub use fluctuation::{FluctuationModel, NoiseDraw, NoiseProfile};
pub use kinggen::{KingConfig, Placement, RegionLayout};
pub use network::{Network, ProbeBatch, ProbeKey, ProbeRequest};
pub use planetlab::PlanetLabConfig;
pub use rtt::{RttSource, RttStore, SynthRtt};
pub use topology::RttMatrix;
