//! Lower-bound machinery for distributed uniformity testing (§7).
//!
//! The paper's lower bound (Theorem 1.3) routes through simultaneous
//! communication complexity: a `q`-sample uniformity tester with error
//! `(δ₀, δ₁)` yields an SMP Equality protocol of cost `q·log n`
//! (Theorem 7.1, from Blais–Canonne–Gur), and Equality in the
//! asymmetric-error regime needs `Ω(√(f(τ)δn))` bits (Theorem 7.2), so
//! gap uniformity testers need `Ω(√(f(α)δn)/log n)` samples
//! (Corollary 7.4) and anonymous 0-round testers need `Ω(√(n/k))`
//! samples per node.
//!
//! This crate provides:
//!
//! * [`bounds`] — the closed-form bound functions of §7.
//! * [`reduction`] — the Theorem 7.1 reduction made executable: an SMP
//!   Equality protocol built from the collision gap tester, whose
//!   acceptance gap is exactly the tester's (δ, α) gap.
//! * [`experiments`] — empirical lower-bound probes: sweeping the
//!   per-node sample count `s` around `√(n/k)` and watching the 0-round
//!   testers lose their distinguishing power (Experiment E12).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bounds;
pub mod experiments;
pub mod reduction;

pub use bounds::{corollary_7_4_bound, theorem_1_3_bound, theorem_7_2_bound};
pub use reduction::EqFromCollisionTester;
