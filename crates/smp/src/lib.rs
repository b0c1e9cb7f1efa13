//! Simultaneous message passing (SMP) with private coins, and the
//! asymmetric-error Equality protocol of the paper's Lemma 7.3.
//!
//! In the SMP model, Alice holds `X`, Bob holds `Y`, each sends **one**
//! message to a referee using only private randomness, and the referee
//! outputs a bit. The cost is the worst-case maximum message length.
//! The paper studies Equality in an unusual error regime: YES instances
//! (`X = Y`) must be accepted with probability ≥ 1−δ, while NO
//! instances need only be rejected with the tiny-but-noticeable
//! probability `τδ`. Lemma 7.3 shows `O(√(τδn))` bits suffice — tight
//! against Theorem 7.2's `Ω(√(f(τ)δn))` lower bound.
//!
//! * [`framework`] — protocol/message/cost types and a generic runner.
//! * [`equality`] — the Lemma 7.3 protocol: encode the input with a
//!   constant-distance code, view the codeword as a `(6m₀)×(6m₀)`
//!   torus, have Alice send a random vertical chunk of `t` bits and Bob
//!   a random horizontal chunk; the referee compares the (at most one)
//!   intersection cell.
//! * [`public_coin`] — the shared-randomness contrast: with public
//!   coins, Equality costs O(log 1/δ) bits; the √n-type private-coin
//!   costs are the price of keeping coins private.
//! * [`referee`] — the \[ACT18\] referee model the paper's related work
//!   contrasts against: one sample per player, ℓ bits to a referee,
//!   k = Θ(n/(2^{ℓ/2}ε²)) players.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod equality;
pub mod framework;
pub mod public_coin;
pub mod referee;

pub use equality::EqualityProtocol;
pub use framework::{SmpCost, SmpProtocol};
pub use public_coin::PublicCoinEquality;
pub use referee::RefereeUniformityProtocol;
