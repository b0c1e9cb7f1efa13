//! Error-correcting codes for the asymmetric-error Equality protocol.
//!
//! The paper's Lemma 7.3 protocol needs an explicit code
//! `C : {0,1}^{m/3} → {0,1}^m` with relative distance ≥ 1/6 (any pair of
//! distinct codewords differs in at least `m/6` positions); it names the
//! *Justesen code*. This crate provides:
//!
//! * [`gf`] — `GF(2^m)` arithmetic via log/antilog tables (m ≤ 16).
//! * [`rs`] — Reed–Solomon codes over `GF(2^m)` (MDS: distance
//!   `N−K+1`).
//! * [`justesen`] — the Justesen-style concatenation: RS outer code,
//!   Wozencraft-ensemble inner codes `x ↦ (x, αᵢx)`.
//! * [`linear`] — seeded random linear codes, which meet the
//!   Gilbert–Varshamov bound w.h.p. — at rate 1/3 that gives relative
//!   distance ≈ 0.174 > 1/6, matching the parameters Lemma 7.3 quotes.
//! * [`distance`] — Hamming distance/weight utilities, exact
//!   minimum-distance computation for small codes, and sampled distance
//!   estimation for large ones.
//!
//! **Which code does the protocol use?** The Justesen construction is
//! implemented faithfully, but its *guaranteed* distance at rate 1/3 is
//! below 1/6 (the Justesen bound gives `(1−2R)·H⁻¹(1/2) ≈ 0.037` at
//! `R = 1/3`); the paper's quoted parameters match the GV bound, which
//! random linear codes achieve. The SMP crate therefore defaults to
//! [`linear::RandomLinearCode`] and offers Justesen as an alternative —
//! the substitution is recorded in DESIGN.md and is immaterial to the
//! protocol, which uses the code only through its distance property.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod distance;
pub mod gf;
pub mod justesen;
pub mod linear;
pub mod rs;
pub mod rs_decode;

pub use gf::GaloisField;
pub use justesen::JustesenCode;
pub use linear::RandomLinearCode;

/// A binary block code: a deterministic injective map from `input_bits`
/// to `output_bits`.
pub trait BinaryCode {
    /// Input (message) length in bits.
    fn input_bits(&self) -> usize;

    /// Output (codeword) length in bits.
    fn output_bits(&self) -> usize;

    /// Encodes `message` (little-endian bit order, `input_bits` bits,
    /// packed in `u64` words) into a codeword (same packing).
    ///
    /// # Panics
    ///
    /// Panics if `message` has fewer than `⌈input_bits/64⌉` words.
    fn encode(&self, message: &[u64]) -> Vec<u64>;

    /// The code rate `input_bits / output_bits`.
    fn rate(&self) -> f64 {
        self.input_bits() as f64 / self.output_bits() as f64
    }
}
