//! Distributed uniformity testing — the core algorithms of Fischer, Meir
//! and Oshman, *Distributed Uniformity Testing* (PODC 2018).
//!
//! In the distributed ε-uniformity testing problem, a network of `k`
//! nodes each holds `s` iid samples from an unknown distribution μ on
//! `{0, .., n-1}`, and the network must decide whether μ is the uniform
//! distribution or ε-far from it in L1 distance — using as few samples
//! per node as possible, in the paper's three models (0-round with the
//! AND decision rule, 0-round with a threshold rule, and as a building
//! block inside LOCAL/CONGEST protocols).
//!
//! # Module map
//!
//! * [`gap`] — the single-collision (δ, 1+Θ(ε²))-gap tester `A_δ`
//!   (Theorem 3.1 / Lemma 3.4): `s = √(2δn)` samples, accept iff all
//!   distinct.
//! * [`amplify`] — the m-repetition amplifier (tester `B` of §3.2.1).
//! * [`params`] — every parameter formula the proofs use, in one place:
//!   sample counts, the γ slack of Eq. (1), `C_p`, AND-rule plans
//!   (Theorem 1.1), threshold plans (Theorem 1.2), and Chernoff/normal
//!   threshold windows.
//! * [`zero_round`] — the distributed 0-round testers: network-of-k
//!   simulation under the AND rule and the threshold rule.
//! * [`asymmetric`] — the asymmetric-cost generalization of §4: per-node
//!   sample budgets `s_i = C·T_i` minimizing the maximum individual cost,
//!   for both decision rules, plus the Lemma 4.1 extremal-point check.
//! * [`baselines`] — centralized testers for comparison: the classic
//!   collision-counting tester (Paninski-style) and the single-collision
//!   tester run centrally.
//! * [`identity`] — the filter reduction from testing identity to a known
//!   distribution η down to uniformity testing, which "continues to work
//!   in the distributed setting" (§1).
//! * [`montecarlo`] — parallel Monte-Carlo error estimation with Wilson
//!   score intervals (how every experiment measures error probabilities),
//!   built on the deterministic chunk-parallel [`executor`] with
//!   JSONL [`checkpoint`]/resume — results are bit-identical at any
//!   thread count.
//! * [`decision`] — accept/reject decision types and network decision
//!   rules.
//!
//! # Quickstart
//!
//! ```rust
//! use dut_core::zero_round::ThresholdNetworkTester;
//! use dut_core::decision::Decision;
//! use dut_distributions::{families, DiscreteDistribution};
//! use rand::SeedableRng;
//! use rand::rngs::StdRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let n = 1 << 20; // domain size
//! let k = 150_000; // network size
//! let epsilon = 0.5;
//!
//! let tester = ThresholdNetworkTester::plan(n, k, epsilon, 1.0 / 3.0)?;
//! let mut rng = StdRng::seed_from_u64(42);
//!
//! let uniform = DiscreteDistribution::uniform(n);
//! let outcome = tester.run(&uniform, &mut rng);
//! assert_eq!(outcome.decision, Decision::Accept);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod amplify;
pub mod asymmetric;
pub mod baselines;
pub mod checkpoint;
pub mod decision;
pub mod error;
pub mod executor;
pub mod gap;
pub mod identity;
pub mod montecarlo;
pub mod params;
pub mod scratch;
pub mod zero_round;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use decision::Decision;
pub use error::PlanError;
pub use executor::MonteCarloConfig;
pub use gap::GapTester;
pub use montecarlo::{MonteCarlo, MonteCarloError};
pub use scratch::TesterScratch;
