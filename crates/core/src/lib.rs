//! Butterfly Effect Attack (DATE 2023) — the paper's core contribution.
//!
//! This crate implements the multi-objective black-box adversarial attack
//! of *"Butterfly Effect Attack: Tiny and Seemingly Unrelated Perturbations
//! for Object Detection"* (Doan, Yüksel, Cheng — DATE 2023): an NSGA-II
//! search over pixel-space filter masks that simultaneously
//!
//! 1. **minimises** the perturbation intensity
//!    ([`objectives::intensity`], `obj_intensity(δ) = ‖δ‖₂`),
//! 2. **minimises** the prediction-overlap score against the clean
//!    prediction ([`objectives::degradation`], the paper's Algorithm 1 —
//!    lower means more degradation), and
//! 3. **maximises** the distance between the perturbation and the detected
//!    objects ([`objectives::distance`], the paper's Algorithm 2 — the
//!    formal definition of a "seemingly unrelated" perturbation).
//!
//! The attack driver lives in [`attack`]; Section IV-B's extensions to
//! ensembles (Eqs. 1–3) and temporally stable predictions are
//! [`ButterflyAttack::attack_ensemble`] and
//! [`ButterflyAttack::attack_sequence`]. The qualitative error taxonomy of
//! Section V-B (TP→FN, TN→FP, FN→TP, FP→TN, box deformation) is
//! implemented in [`errors`], and [`baseline`] provides the GenAttack-style
//! single-objective GA and a random-noise baseline the evaluation harness
//! compares against.
//!
//! # Examples
//!
//! ```no_run
//! use bea_core::attack::{AttackConfig, ButterflyAttack};
//! use bea_detect::{ModelZoo, Architecture};
//! use bea_scene::SyntheticKitti;
//!
//! let zoo = ModelZoo::with_defaults();
//! let detr = zoo.model(Architecture::Detr, 1);
//! let img = SyntheticKitti::evaluation_set().image(10);
//! let outcome = ButterflyAttack::new(AttackConfig::default()).attack(detr.as_ref(), &img);
//! for point in outcome.pareto_points() {
//!     println!(
//!         "intensity {:.1}  degrad {:.3}  dist {:.3}",
//!         point[0], point[1], point[2]
//!     );
//! }
//! ```
//!
//! [`ButterflyAttack::attack_ensemble`]: attack::ButterflyAttack::attack_ensemble
//! [`ButterflyAttack::attack_sequence`]: attack::ButterflyAttack::attack_sequence

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod baseline;
pub mod campaign;
pub mod errors;
pub mod grid;
pub mod init;
pub mod job;
pub mod objectives;
pub mod operators;
pub mod problem;
pub mod queue;
pub mod report;
pub mod sweep;
pub mod telemetry;
pub mod transfer;
pub(crate) mod whitebox;

#[cfg(test)]
pub(crate) mod test_fixtures;

pub use attack::{AttackConfig, AttackOutcome, AttackStrategy, ButterflyAttack};
pub use campaign::{Campaign, CampaignConfig, CampaignResult, CellSpec};
pub use errors::{ErrorTransition, TransitionReport};
pub use job::{AttackJob, ImageSpec, JobStatus};
pub use problem::ButterflyProblem;
pub use queue::{FairQueue, PushError};
pub use transfer::{TargetPath, TransferCellSpec, TransferConfig, TransferGrid, TransferMatrix};
