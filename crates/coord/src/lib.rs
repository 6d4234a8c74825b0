//! Coordinate-space geometry for Internet coordinate embedding systems.
//!
//! Both embedding systems the paper evaluates live here as geometry:
//!
//! * Vivaldi uses a **2-dimensional Euclidean space augmented with a height
//!   vector** (Dabek et al., SIGCOMM 2004): the height models the access
//!   link a packet must traverse regardless of direction, so distances are
//!   `‖x_a − x_b‖ + h_a + h_b`.
//! * NPS uses a plain **8-dimensional Euclidean space**.
//!
//! [`Coordinate`] implements the height-vector algebra of the Vivaldi
//! paper (subtraction adds heights, norm adds the height, scaling scales
//! it) and degenerates to ordinary Euclidean algebra when heights are
//! zero, so a single type serves both systems.
//!
//! The crate also defines the [`embedding`] abstractions shared by the
//! workspace: the *measured relative error* `D_n = |‖x_i − x_j‖ − RTT| /
//! RTT` that is "at the very core of any embedding method" (§2 of the
//! paper), and the [`embedding::Embedding`] trait through which the
//! detection protocol of `ices-core` drives any embedding system.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinate;
pub mod embedding;
pub mod space;
pub mod vector;

pub use coordinate::Coordinate;
pub use embedding::{relative_error, relative_error_of, Embedding, PeerSample, StepOutcome};
pub use space::Space;
