//! Attack models against coordinate embedding systems.
//!
//! Implements the two strongest attacks of Kaafar et al.'s earlier study
//! (*Virtual networks under attack*, CoNEXT 2006 — reference \[11\] of the
//! paper), which the SIGCOMM'07 evaluation uses to stress the detector:
//!
//! * [`vivaldi_isolation`] — the **colluding isolation attack** on
//!   Vivaldi (§5.2): attackers agree on an exclusion zone around a
//!   target and consistently lie about their own coordinates (always the
//!   same lie to a given victim) to attract honest nodes out of the
//!   zone.
//! * [`nps_collusion`] — the **colluding reference-point attack** on NPS
//!   (§5.3): conspirators behave honestly until at least five of them
//!   are reference points in a layer, then pretend to be clustered in a
//!   remote part of the space and push half the normal nodes they serve
//!   toward the opposite side — tampering probe RTTs so their lies stay
//!   mutually consistent and evade NPS's built-in fit-error test
//!   (the anti-detection technique of \[11\]).
//!
//! On top of the paper's pair, the crate carries the post-2007 adversary
//! taxonomy of ROADMAP item 3 — three scenarios the Kalman innovation
//! test was never evaluated against:
//!
//! * [`sybil_swarm`] — one adversary, many cheap identities claiming a
//!   single tight remote cluster from one seed (blatant; the question is
//!   how detection degrades as the swarm outnumbers honest candidates).
//! * [`eclipse`] — surrounding attackers report a rigid per-victim
//!   translation of their true coordinates, keeping the victim's world
//!   internally consistent and the detector structurally blind.
//! * [`slow_drift`] — per-tick displacement calibrated to stay under the
//!   innovation threshold while accumulating without bound
//!   ("frog-boiling").
//!
//! [`defense`] adds the opt-in VerLoc-style cross-verification knob:
//! claims are cross-probed through seeded witnesses and rejected on
//! geometric inconsistency — the countermeasure that recovers detection
//! against the internally-consistent attacks above.
//!
//! All adversaries implement the [`Adversary`] interface the simulation
//! driver consults on every embedding interaction; an honest interaction
//! passes through untouched, a malicious one is replaced by the
//! attacker's tampered view (coordinate lie, confidence lie, and/or
//! probe delay). Every `intercept` answers purely from
//! `(seed, tick, victim, peer)`-derived streams (`&self + Sync`), so
//! results are bit-for-bit identical at any `ICES_THREADS`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod defense;
pub mod eclipse;
pub mod node_set;
pub mod nps_collusion;
pub mod slow_drift;
pub mod sybil_swarm;
pub mod vivaldi_isolation;

pub use adversary::{Adversary, HonestWorld, TamperedSample};
pub use defense::DefenseConfig;
pub use eclipse::EclipseAttack;
pub use node_set::NodeSet;
pub use nps_collusion::NpsCollusionAttack;
pub use slow_drift::SlowDriftAttack;
pub use sybil_swarm::SybilSwarmAttack;
pub use vivaldi_isolation::VivaldiIsolationAttack;
