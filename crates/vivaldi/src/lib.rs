//! Vivaldi: a decentralized network coordinate system.
//!
//! From-scratch implementation of Vivaldi (Dabek, Cox, Kaashoek, Morris —
//! SIGCOMM 2004) in the configuration the paper's evaluation uses:
//! adaptive timestep with `C_c = 0.25`, a 2-dimensional Euclidean space
//! augmented with a height vector, and 64 neighbors per node of which 32
//! are chosen closer than 50 ms.
//!
//! Vivaldi models the system as a physical spring network: for each
//! neighbor interaction the node moves along the spring force
//!
//! ```text
//! w   = e_i / (e_i + e_j)                 (sample-confidence balance)
//! e_s = |‖x_i − x_j‖ − rtt| / rtt         (measured relative error)
//! e_i ← e_s·C_e·w + e_i·(1 − C_e·w)       (local error EWMA)
//! δ   = C_c · w                           (adaptive timestep)
//! x_i ← x_i + δ·(rtt − ‖x_i − x_j‖)·u(x_i − x_j)
//! ```
//!
//! Each such interaction is one *embedding step* in the sense of the
//! paper's §2 model, which is exactly the granularity the Kalman-filter
//! detector of `ices-core` operates at: [`VivaldiNode`] implements
//! [`ices_coord::Embedding`], so the secure protocol can veto individual
//! steps without Vivaldi knowing anything about detection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod neighbors;
pub mod node;

pub use config::VivaldiConfig;
pub use neighbors::{select_neighbors, ClosePeers};
pub use node::VivaldiNode;
