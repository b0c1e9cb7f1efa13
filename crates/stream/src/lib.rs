//! Streaming uniformity testing: mergeable sketches and a sharded
//! ingest service.
//!
//! The paper's distributed rules work because per-node collision and
//! singleton statistics are *mergeable* — the coordinator only ever sees
//! associative combinations of local counts. This crate makes that
//! structure first-class:
//!
//! * [`Sketch`] — the incremental tester contract: `push` one sample,
//!   `merge` another sketch associatively, read an anytime [`Verdict`]
//!   at any point. Implementations are *exact*: a sketch fed any
//!   interleaving, split, or merge order of a sample multiset reaches
//!   bit-identical state, and its verdict equals the corresponding batch
//!   tester in `dut_core` run on the full multiset (enforced by the
//!   merge-differential suite in `tests/`).
//! * [`CollisionSketch`] — collision pair counting via the pairwise
//!   decomposition `C(a∪b) = C(a) + C(b) + Σ_x c_a(x)·c_b(x)`; verdicts
//!   match [`dut_core::baselines::CollisionCountTester`].
//! * [`SingletonSketch`] — Paninski's singleton count with O(1)
//!   per-symbol occupancy updates; verdicts match
//!   [`dut_core::baselines::SingletonCountTester`].
//! * [`GapSketch`] / [`ThresholdSketch`] — the paper's single-collision
//!   bit and the Theorem 1.2 threshold rule over virtual per-node
//!   blocks; verdicts match [`dut_core::gap::GapTester`] votes combined
//!   by [`dut_core::zero_round::ThresholdNetworkTester::outcome_from_votes`].
//! * [`SlidingWindow`] — per-stream windowing over any [`Retire`]-capable
//!   sketch: the verdict always equals the batch tester on the window's
//!   current contents.
//! * [`StreamService`] — many concurrent labeled streams, sharded by the
//!   stateless seed discipline of `dut_core::executor::derive_trial_seed`
//!   so placement (and therefore every verdict) is bit-identical at any
//!   shard count, with anytime verdicts priced by the union-bound Wilson
//!   schedule (`sequence_z`) and `stream.*` observability keys.
//! * `DgkSketch` (feature `dgk`) — a Diakonikolas–Gouleakis–Kane-style
//!   domain-compressed collision sketch whose memory is O(√n) instead of
//!   O(n), for shards that cannot afford a full count table.
//!
//! # Example
//!
//! ```rust
//! use dut_stream::{CollisionSketch, Sketch, Verdict};
//!
//! let n = 256;
//! let mut left = CollisionSketch::new(n, 1.0);
//! let mut right = CollisionSketch::new(n, 1.0);
//! // A heavily repeated symbol lands in both halves of the stream.
//! for x in 0..64 {
//!     left.push(x % 8);
//!     right.push(x % 8);
//! }
//! left.merge(&right);
//! assert_eq!(left.verdict().value, Verdict::Far);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod collision;
pub mod error;
pub mod gap;
pub mod service;
pub mod singleton;
pub mod sketch;
pub mod window;

#[cfg(feature = "dgk")]
pub mod dgk;

pub use collision::CollisionSketch;
pub use error::StreamError;
pub use gap::{GapSketch, ThresholdSketch};
pub use service::{StreamConfig, StreamService};
pub use singleton::SingletonSketch;
pub use sketch::{Anytime, Sketch, Verdict};
pub use window::{Retire, SlidingWindow};

#[cfg(feature = "dgk")]
pub use dgk::DgkSketch;
