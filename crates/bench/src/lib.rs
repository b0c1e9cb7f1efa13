//! Experiment harness for the *Distributed Uniformity Testing*
//! reproduction.
//!
//! The paper has no tables or figures — its quantitative claims are
//! theorems. Each module here regenerates one claim as a table:
//! measured error probabilities / sample counts / round counts /
//! communication bits next to the theorem's prediction. The
//! `experiments` binary prints any subset:
//!
//! ```text
//! cargo run -p dut-bench --release --bin experiments -- all
//! cargo run -p dut-bench --release --bin experiments -- e4 e6
//! cargo run -p dut-bench --release --bin experiments -- --quick all
//! ```
//!
//! See `DESIGN.md` §4 for the experiment-to-theorem index and
//! `EXPERIMENTS.md` for recorded outputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod e01_gap;
pub mod e02_scaling;
pub mod e03_and_rule;
pub mod e04_threshold;
pub mod e05_asymmetric;
pub mod e06_congest;
pub mod e07_local;
pub mod e08_smp;
pub mod e09_lemma21;
pub mod e10_baselines;
pub mod e11_identity;
pub mod e12_lowerbound;
pub mod e13_faults;
pub mod e14_streaming;
pub mod e15_soak;
pub mod e16_conductance;
pub mod metrics;
pub mod table;
pub mod verdict;

pub use metrics::MetricsLog;
pub use table::{tables_to_json, Table};

/// Global scale knob: `Quick` shrinks trial counts and sweep ranges so
/// the full suite finishes in a couple of minutes; `Full` is the
/// EXPERIMENTS.md configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced trials/sweeps for smoke runs.
    Quick,
    /// The recorded-results configuration.
    Full,
}

impl Scale {
    /// Picks `quick` or `full` by variant.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// All experiment ids, in order.
pub const ALL_EXPERIMENTS: [&str; 16] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16",
];

/// Canonicalizes a user-typed experiment id: strips leading zeros
/// after the `e`, so `e06` and `E6` both name `e6`. Ids that don't
/// look like `e<number>` pass through unchanged (and fail lookup).
pub fn normalize_id(id: &str) -> String {
    let lower = id.to_ascii_lowercase();
    match lower.strip_prefix('e').and_then(|d| d.parse::<u64>().ok()) {
        Some(n) => format!("e{n}"),
        None => lower,
    }
}

/// Everything an experiment run can be handed besides its id: the
/// scale, the optional metrics log, and an optional Monte-Carlo
/// checkpoint file (threaded into the executor-driven experiments so
/// long sweeps survive interruption and resume bit-identically).
#[derive(Debug)]
pub struct ExperimentCtx<'a> {
    /// Quick/Full scale knob.
    pub scale: Scale,
    /// Per-run `dut-metrics/1` records for experiments that emit them.
    pub log: &'a mut MetricsLog,
    /// Chunk-level Monte-Carlo checkpoint (`--checkpoint`); currently
    /// consumed by E1, whose 400k-trial grids dominate full-scale
    /// wall-clock time.
    pub checkpoint: Option<&'a mut dut_core::Checkpoint>,
    /// Confidence-sequence early stopping (`--adaptive`): the interval
    /// half-width tolerance handed to
    /// [`dut_core::executor::MonteCarloConfig::adaptive`]. `None` keeps
    /// the fixed-budget runs whose outputs EXPERIMENTS.md records
    /// bit-for-bit; `Some(tol)` lets the Monte-Carlo experiments (E1,
    /// E2, E5) stop each cell as soon as its decision is resolved,
    /// trading interval tightness for wall-clock time without changing
    /// any verdict.
    pub adaptive: Option<f64>,
    /// Wall-clock soak horizon (`--soak SECS`): `Some(d)` keeps the E15
    /// soak loop ticking until `d` elapses instead of running the fixed
    /// per-scale tick budget. Tick contents are seed-pure either way;
    /// every other experiment ignores it.
    pub soak: Option<std::time::Duration>,
}

/// Runs one experiment by (canonical) id, returning its rendered
/// tables. Experiments that support `--metrics` append one
/// `dut-metrics/1` record per tester run to `ctx.log`; the rest ignore
/// it.
///
/// # Panics
///
/// Panics on an unknown id, or if `ctx.checkpoint` names an unusable
/// checkpoint file (plan mismatch against a stale file — delete it).
pub fn run_experiment_ctx(id: &str, ctx: ExperimentCtx<'_>) -> Vec<Table> {
    match id {
        "e1" => e01_gap::run_ctx(ctx.scale, ctx.checkpoint, ctx.adaptive, ctx.log),
        "e2" => e02_scaling::run_ctx(ctx.scale, ctx.adaptive),
        "e3" => e03_and_rule::run(ctx.scale),
        "e4" => e04_threshold::run(ctx.scale),
        "e5" => e05_asymmetric::run_ctx(ctx.scale, ctx.adaptive),
        "e6" => e06_congest::run(ctx.scale, ctx.log),
        "e7" => e07_local::run(ctx.scale),
        "e8" => e08_smp::run(ctx.scale),
        "e9" => e09_lemma21::run(ctx.scale),
        "e10" => e10_baselines::run(ctx.scale),
        "e11" => e11_identity::run(ctx.scale),
        "e12" => e12_lowerbound::run(ctx.scale),
        "e13" => e13_faults::run(ctx.scale, ctx.log),
        "e14" => e14_streaming::run(ctx.scale, ctx.log),
        "e15" => e15_soak::run_soak(ctx.scale, ctx.log, ctx.soak),
        "e16" => e16_conductance::run(ctx.scale, ctx.log),
        other => panic!("unknown experiment id: {other}"),
    }
}

/// [`run_experiment_ctx`] without a checkpoint — the stable entry
/// point tests and examples use.
///
/// # Panics
///
/// Panics on an unknown id.
pub fn run_experiment(id: &str, scale: Scale, log: &mut MetricsLog) -> Vec<Table> {
    run_experiment_ctx(
        id,
        ExperimentCtx {
            scale,
            log,
            checkpoint: None,
            adaptive: None,
            soak: None,
        },
    )
}
