//! Securing Internet coordinate embedding systems — the paper's core.
//!
//! This crate implements the primary contribution of Kaafar et al.
//! (SIGCOMM 2007): a **generic malicious-behavior detector** for the
//! embedding phase of Internet coordinate systems, built from four
//! pieces:
//!
//! 1. [`model`] — the linear state-space model of a node's nominal
//!    relative error: `Δ_{n+1} = β·Δ_n + W_n`, observed through
//!    `D_n = Δ_n + U_n` (paper §2, Eqs. 1–2).
//! 2. [`kalman`] — the scalar Kalman filter tracking that model and
//!    exposing the *innovation process* `η_n = D_n − Δ̂_{n|n−1}` with its
//!    variance `v_η,n = v_U + P_{n|n−1}` (§2.1).
//! 3. [`em`] — maximum-likelihood calibration of the model parameters
//!    `θ = (β, v_W, v_U, w̄, w₀, p₀)` by Expectation–Maximization over a
//!    clean measurement trace (§2.2), using a Rauch–Tung–Striebel
//!    smoother with the lag-one covariance recursion for the E-step.
//! 4. [`detector`] + [`protocol`] + [`surveyor`] — the hypothesis test
//!    `|η_n| ≥ √v_η,n · Q⁻¹(α/2)` flagging suspicious embedding steps
//!    (§4.1), the trusted **Surveyor** infrastructure that calibrates
//!    filters in attack-free conditions and shares them with nearby
//!    nodes (§3.3), and the generic detection protocol with its
//!    first-time-peer reprieve and filter-refresh rules (§4.2).
//!
//! The detector never looks at coordinates or geometry — only at the
//! dimensionless relative error every embedding method already computes —
//! which is what makes one implementation secure both Vivaldi and NPS.
//!
//! As an extension, [`certify`] implements the usage-phase protection the
//! paper's §6 sketches as future work: Surveyor-issued coordinate
//! certificates with validity periods.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod certify;
pub mod detector;
pub mod em;
pub mod kalman;
mod ledger;
pub mod model;
pub mod protocol;
pub mod surveyor;
pub mod wire;

pub use batch::DetectorBank;
pub use certify::{Certifier, CertificateError, CoordinateCertificate};
pub use detector::{Detector, DetectorError, Outlook, Verdict, SAMPLE_STARVATION_LIMIT};
pub use em::{calibrate, CalibrationOutcome, EmConfig};
pub use kalman::KalmanFilter;
pub use model::{ModelError, StateSpaceParams};
pub use protocol::{
    vet_sequences, vet_single, ConfigError, SecureNode, SecureStep, SecurityConfig, VetEvent,
};
pub use surveyor::{SurveyorInfo, SurveyorRegistry};
pub use wire::{Disposition, Message, WireError, MAX_DATAGRAM, WIRE_VERSION};
