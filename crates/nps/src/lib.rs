//! NPS: a hierarchical network positioning system.
//!
//! From-scratch implementation of NPS (Ng & Zhang, USENIX ATC 2004) in
//! the configuration the paper's evaluation uses: an 8-dimensional
//! Euclidean space, a 4-layer positioning hierarchy whose top layer holds
//! 20 permanent landmarks, 20% of the nodes of each layer serving as
//! reference points for the layer below, and NPS's built-in security
//! test with sensitivity 4.
//!
//! An NPS node positions itself by measuring RTTs to a set of reference
//! points from the layer above and minimizing the sum of squared relative
//! errors with a Nelder–Mead downhill simplex ([`simplex`]) — the solver
//! NPS inherited from GNP. Landmarks position against each other only
//! (distributed landmark coordinate computation), which is exactly the
//! property the paper's Surveyor concept generalizes.
//!
//! For the purposes of the SIGCOMM'07 paper's model, each RTT sample
//! toward a reference point is one *embedding step* (§2: "when the
//! embedding protocol requires that a node uses several peer nodes
//! simultaneously ... each peer node corresponds to a distinct embedding
//! step"). [`NpsNode`] therefore implements [`ices_coord::Embedding`] by
//! buffering accepted samples and repositioning when its round completes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod hierarchy;
mod lanes;
pub mod node;
pub mod simplex;

pub use config::NpsConfig;
pub use hierarchy::{Hierarchy, Role};
pub use node::NpsNode;
pub use simplex::{NelderMeadScratch, NelderMeadStats};
