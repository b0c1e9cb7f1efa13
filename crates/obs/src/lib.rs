//! Zero-dependency observability for the simulators and testers.
//!
//! The paper's theorems are statements about *measurable costs* —
//! samples per node (Theorems 1.1/1.2), rounds and bits on the wire
//! (Theorems 5.1/1.4, Lemma 7.3). This crate is the shared substrate
//! every layer reports those costs through, so experiments and
//! benchmarks emit comparable numbers instead of bespoke printouts.
//! The full key registry, units, and the theorem each metric checks
//! against are documented in [`keys`] and in `docs/METRICS.md` at the
//! repository root.
//!
//! # Design
//!
//! * [`Sink`] — the recording interface instrumented code writes to:
//!   monotone counters ([`Sink::add`]) and histogram observations
//!   ([`Sink::observe`]). All values are `u64` (bits, rounds, counts,
//!   nanoseconds) so accumulation is exact and deterministic.
//! * [`NoopSink`] — the default sink. It reports
//!   [`Sink::enabled`]` == false`, which instrumented hot paths use to
//!   skip *measurement itself* (clock reads, per-round deltas), so
//!   instrumentation costs nothing when observability is off.
//! * [`MemorySink`] — an in-memory accumulator (sorted maps of counters
//!   and [`Histogram`]s) that snapshots into the JSONL record format.
//! * [`Span`] — a timer that respects the enabled gate: started on a
//!   disabled sink it never reads the clock.
//! * [`RunRecord`] + [`JsonlWriter`] — one JSON object per run in the
//!   stable `dut-metrics/1` schema (`docs/METRICS.md`), hand-serialized
//!   by [`json`] so the crate stays dependency-free.
//!
//! # Example
//!
//! ```rust
//! use dut_obs::{keys, MemorySink, RunRecord, Sink, Span};
//!
//! let mut sink = MemorySink::new();
//! let span = Span::start(&sink);
//! sink.add(keys::NETSIM_BITS, 96);
//! sink.observe(keys::NETSIM_ROUND_BITS, 96);
//! span.finish(&mut sink, keys::NETSIM_ROUND_NANOS);
//!
//! assert_eq!(sink.counter(keys::NETSIM_BITS), 96);
//! let line = RunRecord::new("e6", "star/uniform")
//!     .param("n", 4096u64)
//!     .to_jsonl(&sink);
//! assert!(line.starts_with("{\"schema\":\"dut-metrics/1\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod hist;
pub mod json;
pub mod keys;
pub mod record;
pub mod sink;
pub mod span;

pub use hist::Histogram;
pub use record::{JsonlWriter, ParamValue, RunRecord, SCHEMA};
pub use sink::{MemorySink, NoopSink, Sink};
pub use span::Span;
