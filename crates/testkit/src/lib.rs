//! Cross-crate correctness tooling for the distributed-uniformity-testing
//! workspace.
//!
//! Every `dut-*` crate tests the same three kinds of objects — discrete
//! distributions, network/fault configurations, and coded wire words —
//! and before this crate each test tree grew its own ad-hoc generators
//! and its own half-reference implementations to check against. This
//! crate centralizes that machinery:
//!
//! * [`strategies`] — proptest strategies shared by every crate's test
//!   tree: valid probability mass functions, *hostile* weight vectors
//!   (NaN/±inf/denormal/negative entries, overflowing sums),
//!   far-from-uniform family instances, graph topologies, and seeded
//!   [`dut_netsim::fault::FaultPlan`]s.
//! * [`oracles`] — exact small-`n` reference oracles, implemented
//!   independently of the production closed forms: brute-force and
//!   elementary-symmetric all-distinct probabilities (the failure law
//!   of the single-collision gap tester), reference L1 distance and
//!   collision probability χ. Agreement tests pit these against
//!   `dut_distributions::exact` and `dut_core::montecarlo`.
//! * [`fuzz`] — seeded differential fuzz drivers: Reed–Solomon and
//!   Justesen codec round-trips under random corruption at, below, and
//!   beyond the certified radius, and token packaging under randomized
//!   fault plans. Drivers run decode paths under `catch_unwind` and
//!   report — the typed-error contract of the decoders means a panic is
//!   always a bug.
//! * [`chaos`] — adversarial fault search: bracketing binary search on
//!   drop/flip rates to the failure frontier of the robust packaging
//!   pipeline, plus delta-debugging of crash schedules down to a
//!   1-minimal witness plan. Produces a typed `FaultBoundaryReport`
//!   that is bit-identical at 1, 2, and 8 search threads.
//! * [`parallel`] — the serial ↔ parallel differential harness for the
//!   Monte-Carlo executor: one trial closure run serial, 2-thread, and
//!   8-thread/ragged-chunk, asserting bit-identical estimates and
//!   merged metrics. Backs the `parallel_differential` integration
//!   suites in `dut-core` and `dut-congest`.
//!
//! The crate is a *dev-dependency* of the crates it exercises (Cargo
//! permits the cycle: `dut-testkit` depends on `dut-ecc`, and `dut-ecc`
//! dev-depends on `dut-testkit`), so the same strategies and oracles are
//! usable from every test tree without duplication.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod fuzz;
pub mod oracles;
pub mod parallel;
pub mod strategies;
