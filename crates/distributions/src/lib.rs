//! Discrete distribution toolkit for distributed uniformity testing.
//!
//! This crate provides the probability-theoretic substrate used throughout
//! the reproduction of *Distributed Uniformity Testing* (Fischer, Meir,
//! Oshman; PODC 2018):
//!
//! * [`DiscreteDistribution`] — an exact probability mass function over the
//!   domain `{0, .., n-1}` with O(1) sampling via the Walker alias method.
//! * [`families`] — the extremal "ε-far from uniform" distribution families
//!   used to exercise uniformity testers (Paninski pair perturbation,
//!   two-level heavy sets, point-mass mixtures, bucketed step
//!   distributions).
//! * [`distance`] — L1 / L2 / total-variation distances and distance to the
//!   uniform distribution.
//! * [`collision`] — collision probability χ(μ) = Σ μ(x)², Lemma 3.2 of the
//!   paper, and the Wiener birthday bound (the paper's Lemma 3.3).
//! * [`counts`] — per-symbol occupancy counts, the shared state behind
//!   the mergeable streaming sketches in `dut-stream`.
//! * [`info`] — Shannon entropy, collision (Rényi-2) entropy, KL
//!   divergence, and the Bernoulli-KL lower bound of the paper's Lemma 2.1.
//! * [`oracle`] — sample oracles: the interface testers use to draw iid
//!   samples.
//! * [`batch`] — the counter-based [`batch::BatchRng`] generator and the
//!   [`batch::LANES`] block width behind the batched sampling kernels
//!   ([`DiscreteDistribution::sample_batch`]).
//!
//! # Example
//!
//! ```rust
//! use dut_distributions::{DiscreteDistribution, families};
//! use dut_distributions::collision::collision_probability;
//! use rand::SeedableRng;
//! use rand::rngs::StdRng;
//!
//! # fn main() -> Result<(), dut_distributions::DistributionError> {
//! let n = 1024;
//! let uniform = DiscreteDistribution::uniform(n);
//! let far = families::paninski_far(n, 0.5)?;
//!
//! // The Paninski family meets Lemma 3.2 with equality:
//! let chi = collision_probability(&far);
//! assert!((chi - (1.0 + 0.25) / n as f64).abs() < 1e-12);
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let samples = far.sample_many(&mut rng, 100);
//! assert_eq!(samples.len(), 100);
//! # let _ = uniform;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod collision;
pub mod counts;
pub mod distance;
pub mod error;
pub mod exact;
pub mod families;
pub mod histogram;
pub mod info;
pub mod oracle;
pub mod quantized;

mod alias;
mod dist;

pub use dist::DiscreteDistribution;
pub use error::DistributionError;
pub use oracle::{DistributionOracle, SampleOracle};
