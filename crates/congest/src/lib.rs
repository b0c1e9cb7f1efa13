//! Uniformity testing in the CONGEST model (§5 of the paper).
//!
//! The paper's CONGEST tester (Theorem 1.4) runs in
//! `O(D + n/(kε⁴))` rounds by *concentrating* samples: the network
//! solves the τ-token-packaging problem (Definition 2) to gather the
//! scattered samples into "packages" of exactly τ samples each, treats
//! every package as a **virtual node** of the 0-round threshold tester
//! (Theorem 1.2), and then aggregates the virtual nodes' votes up a BFS
//! tree against the threshold `T`.
//!
//! * [`packaging`] — the τ-token-packaging protocol (Theorem 5.1):
//!   leader election → BFS tree → bottom-up residue computation
//!   `c(v) = (tokens(v) + Σ c(child)) mod τ` → τ rounds of pipelined
//!   token forwarding. `O(D + τ)` rounds, `O(log n)` bits per edge per
//!   round (enforced by the simulator).
//! * [`tester`] — the full CONGEST uniformity tester: planning (choosing
//!   τ so the packages support the threshold tester), the protocol
//!   composition, and round/bit accounting.
//! * [`conductance`] — a second property-testing workload on the same
//!   substrate: the Fichtenberger–Vasudev distributed conductance
//!   tester (lazy random walks + collision convergecast), plain and
//!   fault-hardened.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod conductance;
pub mod packaging;
pub mod robust;
pub mod tester;

pub use codec::{CodedWord, JustesenCodec};
pub use conductance::{
    ConductanceError, ConductanceRunResult, ConductanceStage, ConductanceTester, ConductanceVerdict,
};
pub use packaging::{solve_token_packaging, PackagingError, PackagingResult, RobustStage};
pub use robust::{robust_bandwidth_model, solve_token_packaging_robust, RobustStats};
pub use tester::{CongestError, CongestRunResult, CongestUniformityTester, RobustRunResult};
