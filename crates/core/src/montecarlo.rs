//! Parallel Monte-Carlo error estimation.
//!
//! The paper's error regimes are delicate — completeness `1−δ` vs
//! soundness `1−(1+Θ(ε²))δ` differ by a Θ(ε²δ) sliver — so every
//! experiment estimates error probabilities with enough trials to
//! resolve the gap, and reports Wilson score intervals rather than bare
//! point estimates. Trials run on the deterministic chunk-parallel
//! executor ([`crate::executor`]): per-trial seeds are a pure function
//! of `(base_seed, trial_index)` and the reduction is chunk-ordered, so
//! failure counts, Wilson intervals, and merged metrics reproduce
//! exactly at any thread count — and runs can checkpoint/resume
//! ([`crate::checkpoint`]) without changing a single bit of the result.
//!
//! The one entry point is the [`MonteCarlo`] builder:
//! `MonteCarlo::new(trials, base_seed)` runs stateless trials
//! ([`MonteCarlo::run`]), trials with per-worker scratch
//! ([`MonteCarlo::run_with_state`]) or metrics-observing trials
//! ([`MonteCarlo::run_observed`]), with an optional explicit
//! [`MonteCarloConfig`] and chunk-level checkpointing.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::error::Error;
use std::fmt;

use dut_obs::{MemorySink, Sink};

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::executor::{run_chunked, sequence_z, MonteCarloConfig, StopRule};

pub use crate::executor::{default_threads, derive_trial_seed, set_default_threads};

/// Why a Monte-Carlo estimate could not be produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MonteCarloError {
    /// `trials == 0`: an estimate over no trials has no defined rate or
    /// interval.
    ZeroTrials,
    /// The attached checkpoint file could not be used (plan mismatch,
    /// corruption, or I/O failure).
    Checkpoint(CheckpointError),
}

impl fmt::Display for MonteCarloError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonteCarloError::ZeroTrials => {
                write!(f, "monte-carlo estimation needs at least one trial")
            }
            MonteCarloError::Checkpoint(e) => write!(f, "monte-carlo checkpoint failed: {e}"),
        }
    }
}

impl Error for MonteCarloError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MonteCarloError::ZeroTrials => None,
            MonteCarloError::Checkpoint(e) => Some(e),
        }
    }
}

impl From<CheckpointError> for MonteCarloError {
    fn from(e: CheckpointError) -> Self {
        MonteCarloError::Checkpoint(e)
    }
}

/// A Monte-Carlo estimate of a failure probability, with a Wilson score
/// confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorEstimate {
    /// Number of trials run.
    pub trials: usize,
    /// Number of trials that failed.
    pub failures: usize,
    /// Point estimate `failures / trials`.
    pub rate: f64,
    /// Lower end of the Wilson score interval.
    pub lower: f64,
    /// Upper end of the Wilson score interval.
    pub upper: f64,
    /// The z-score the interval was computed at.
    pub z: f64,
}

impl ErrorEstimate {
    /// Computes the estimate from raw counts at confidence z-score `z`
    /// (1.96 ≈ 95%).
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0` or `failures > trials`.
    pub fn from_counts(trials: usize, failures: usize, z: f64) -> Self {
        assert!(trials > 0, "need at least one trial");
        assert!(failures <= trials, "failures cannot exceed trials");
        let n = trials as f64;
        let p = failures as f64 / n;
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = (p + z2 / (2.0 * n)) / denom;
        let half = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / denom;
        // At the degenerate counts the Wilson endpoints are exactly 0
        // and 1 (the sqrt term collapses to z/2n and cancels); pin them
        // so rounding noise cannot make `certified_*` claim a strict
        // bound the data does not support.
        let lower = if failures == 0 {
            0.0
        } else {
            (center - half).max(0.0)
        };
        let upper = if failures == trials {
            1.0
        } else {
            (center + half).min(1.0)
        };
        ErrorEstimate {
            trials,
            failures,
            rate: p,
            lower,
            upper,
            z,
        }
    }

    /// Whether the interval certifies the rate is below `bound`.
    ///
    /// The comparison is **strict** at the endpoint: an interval whose
    /// `upper` equals `bound` exactly is *not* certified below it. In
    /// particular `certified_below(1.0)` is false for an all-failure
    /// estimate (`upper == 1.0`), and `certified_below(0.0)` is always
    /// false. Certification is one-sided: `!certified_below(b)` does
    /// not imply `certified_above(b)` — the interval may straddle `b`.
    pub fn certified_below(&self, bound: f64) -> bool {
        self.upper < bound
    }

    /// Whether the interval certifies the rate is above `bound`.
    ///
    /// Strict at the endpoint, mirroring
    /// [`certified_below`](Self::certified_below): an interval whose
    /// `lower` equals `bound` exactly is *not* certified above it, so
    /// `certified_above(0.0)` is false for a zero-failure estimate
    /// (`lower == 0.0`) and `certified_above(1.0)` is always false.
    pub fn certified_above(&self, bound: f64) -> bool {
        self.lower > bound
    }
}

/// Builder for one Monte-Carlo estimate: trial count and base seed
/// (the identity of the estimate — these determine the result), plus
/// execution knobs (thread count, chunk size, checkpoint — these never
/// change the result).
///
/// ```rust
/// use dut_core::montecarlo::{MonteCarlo, trial_rng};
/// use dut_core::executor::MonteCarloConfig;
/// use rand::Rng;
///
/// let parallel = MonteCarlo::new(10_000, 7)
///     .run(|seed| trial_rng(seed).gen::<f64>() < 0.25)
///     .unwrap();
/// let serial = MonteCarlo::new(10_000, 7)
///     .config(MonteCarloConfig::serial())
///     .run(|seed| trial_rng(seed).gen::<f64>() < 0.25)
///     .unwrap();
/// assert_eq!(parallel, serial); // bit-identical, interval included
/// ```
#[derive(Debug)]
pub struct MonteCarlo<'a> {
    trials: usize,
    base_seed: u64,
    config: MonteCarloConfig,
    checkpoint: Option<(&'a mut Checkpoint, String)>,
}

impl<'a> MonteCarlo<'a> {
    /// Starts an estimate over `trials` trials seeded from `base_seed`,
    /// with auto (thread-count-adaptive, result-invariant) execution.
    pub fn new(trials: usize, base_seed: u64) -> Self {
        MonteCarlo {
            trials,
            base_seed,
            config: MonteCarloConfig::auto(),
            checkpoint: None,
        }
    }

    /// Sets the execution config (threads, chunk size).
    pub fn config(mut self, config: MonteCarloConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a checkpoint: completed chunks append to `ck` under
    /// `label`, and chunks already recorded there are skipped. The
    /// label identifies this estimate within the (shared) file — one
    /// label per grid cell, e.g. `"e1a/n=65536,delta=0.050"`.
    pub fn checkpoint(mut self, ck: &'a mut Checkpoint, label: impl Into<String>) -> Self {
        self.checkpoint = Some((ck, label.into()));
        self
    }

    /// Runs stateless trials: `trial(seed)` returns `true` iff the
    /// trial **failed**.
    ///
    /// # Errors
    ///
    /// [`MonteCarloError::ZeroTrials`] if `trials == 0`;
    /// [`MonteCarloError::Checkpoint`] if an attached checkpoint is
    /// unusable.
    ///
    /// # Panics
    ///
    /// If a trial closure panics, the **original panic payload** is
    /// re-raised on the calling thread (not a generic "worker
    /// panicked" message), so `catch_unwind`-based harnesses and test
    /// assertions see the trial's own message.
    pub fn run<F>(self, trial: F) -> Result<ErrorEstimate, MonteCarloError>
    where
        F: Fn(u64) -> bool + Sync,
    {
        self.run_with_state(|| (), move |seed, ()| trial(seed))
    }

    /// Runs trials with per-worker mutable state: each worker thread
    /// calls `init()` once and passes the resulting value to every
    /// trial it runs. This is how scratch buffers
    /// ([`crate::scratch::TesterScratch`]) thread through the
    /// Monte-Carlo loop — trials reuse their worker's buffers instead
    /// of allocating.
    ///
    /// Trial seeds are assigned by trial *index*, not by worker, so the
    /// estimate is identical to [`MonteCarlo::run`]'s for the same
    /// `base_seed` — state only carries buffers, never statistics.
    ///
    /// # Errors
    ///
    /// As for [`MonteCarlo::run`].
    ///
    /// # Panics
    ///
    /// As for [`MonteCarlo::run`].
    pub fn run_with_state<S, I, F>(
        self,
        init: I,
        trial: F,
    ) -> Result<ErrorEstimate, MonteCarloError>
    where
        I: Fn() -> S + Sync,
        F: Fn(u64, &mut S) -> bool + Sync,
    {
        self.dispatch(false, init, |seed, state, _sink| trial(seed, state))
            .map(|(estimate, _)| estimate)
    }

    /// Runs metrics-observing trials: each trial additionally records
    /// into a [`Sink`], and the per-chunk sinks are merged in chunk
    /// order into one [`MemorySink`] returned beside the estimate. The
    /// merged metrics are bit-identical at any thread count (counter
    /// sums and histogram merges are element-wise), so observed runs
    /// serialize to byte-identical `dut-metrics/1` records.
    ///
    /// # Errors
    ///
    /// As for [`MonteCarlo::run`].
    ///
    /// # Panics
    ///
    /// As for [`MonteCarlo::run`].
    pub fn run_observed<S, I, F>(
        self,
        init: I,
        trial: F,
    ) -> Result<(ErrorEstimate, MemorySink), MonteCarloError>
    where
        I: Fn() -> S + Sync,
        F: Fn(u64, &mut S, &mut dyn Sink) -> bool + Sync,
    {
        self.dispatch(true, init, trial)
    }

    fn dispatch<S, I, F>(
        self,
        observe: bool,
        init: I,
        trial: F,
    ) -> Result<(ErrorEstimate, MemorySink), MonteCarloError>
    where
        I: Fn() -> S + Sync,
        F: Fn(u64, &mut S, &mut dyn Sink) -> bool + Sync,
    {
        let MonteCarlo {
            trials,
            base_seed,
            config,
            checkpoint,
        } = self;
        if trials == 0 {
            return Err(MonteCarloError::ZeroTrials);
        }
        let mut checkpoint = checkpoint;
        let ck = checkpoint
            .as_mut()
            .map(|(ck, label)| (&mut **ck, label.as_str()));
        let reduction = run_chunked(config, trials, base_seed, observe, ck, init, trial)?;
        // Fixed-budget runs keep the historical fixed-z interval (bit
        // identical to pre-adaptive builds). Adaptive runs report the
        // confidence-sequence interval of their final look — wider per
        // look, but simultaneously valid over every stop decision the
        // run peeked at.
        let z = match config.stop {
            StopRule::FixedBudget => 1.96,
            StopRule::Adaptive { .. } => sequence_z(reduction.chunks_counted - 1),
        };
        let estimate = ErrorEstimate::from_counts(reduction.trials, reduction.failures, z);
        let mut sink = reduction.sink;
        if observe && config.is_adaptive() {
            sink.add(
                dut_obs::keys::MC_ADAPTIVE_TRIALS_SPENT,
                reduction.trials as u64,
            );
            sink.add(dut_obs::keys::MC_ADAPTIVE_BUDGET, trials as u64);
        }
        Ok((estimate, sink))
    }
}

/// Convenience: a seeded [`StdRng`] for use inside trial closures.
pub fn trial_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// The generator [`sampling_rng`] returns: [`StdRng`] on the default
/// path, swapped for the counter-based
/// [`dut_distributions::batch::BatchRng`] under the `fast-sampling`
/// cargo feature.
#[cfg(not(feature = "fast-sampling"))]
pub type SamplingRng = StdRng;

/// The generator [`sampling_rng`] returns under `fast-sampling`: the
/// counter-based [`dut_distributions::batch::BatchRng`], whose batch
/// fills autovectorize.
#[cfg(feature = "fast-sampling")]
pub type SamplingRng = dut_distributions::batch::BatchRng;

/// A seeded generator for the *sampling* hot path of a trial (the
/// draws a tester feeds through `SampleOracle::draw_into`).
///
/// On the default build this is [`trial_rng`] — the documented
/// `StdRng` streams, bit-identical to every recorded experiment. With
/// the `fast-sampling` cargo feature it returns a
/// [`dut_distributions::batch::BatchRng`] instead, which changes the
/// RNG stream: the differential contract for that split is **verdict
/// identity** (same accept/reject decisions, same statistics within
/// exact-oracle checks), enforced by the testkit suites — never bit
/// identity.
pub fn sampling_rng(seed: u64) -> SamplingRng {
    SamplingRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::MonteCarloConfig;
    use rand::Rng;

    #[test]
    fn from_counts_basic() {
        let e = ErrorEstimate::from_counts(1000, 100, 1.96);
        assert!((e.rate - 0.1).abs() < 1e-12);
        assert!(e.lower < 0.1 && 0.1 < e.upper);
        assert!(e.lower > 0.07 && e.upper < 0.13);
    }

    #[test]
    fn zero_failures_interval() {
        let e = ErrorEstimate::from_counts(1000, 0, 1.96);
        assert_eq!(e.rate, 0.0);
        assert_eq!(e.lower, 0.0);
        assert!(e.upper > 0.0 && e.upper < 0.01);
    }

    #[test]
    fn all_failures_interval() {
        let e = ErrorEstimate::from_counts(100, 100, 1.96);
        assert_eq!(e.rate, 1.0);
        assert!(e.upper > 0.999);
        assert!(e.lower < 1.0 && e.lower > 0.95);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_panics() {
        let _ = ErrorEstimate::from_counts(0, 0, 1.96);
    }

    #[test]
    fn certification_helpers() {
        let e = ErrorEstimate::from_counts(10_000, 100, 1.96);
        assert!(e.certified_below(0.05));
        assert!(e.certified_above(0.005));
        assert!(!e.certified_below(0.01));
    }

    #[test]
    fn estimate_is_deterministic() {
        let f = |seed: u64| trial_rng(seed).gen::<f64>() < 0.25;
        let a = MonteCarlo::new(10_000, 7).run(f).unwrap();
        let b = MonteCarlo::new(10_000, 7).run(f).unwrap();
        assert_eq!(a.failures, b.failures);
    }

    #[test]
    fn estimate_converges_to_truth() {
        let f = |seed: u64| trial_rng(seed).gen::<f64>() < 0.3;
        let e = MonteCarlo::new(100_000, 11).run(f).unwrap();
        assert!((e.rate - 0.3).abs() < 0.01, "rate {} far from 0.3", e.rate);
        assert!(e.lower <= 0.3 && 0.3 <= e.upper);
    }

    #[test]
    fn with_state_matches_stateless() {
        let f = |seed: u64| trial_rng(seed).gen::<f64>() < 0.25;
        let a = MonteCarlo::new(10_000, 7).run(f).unwrap();
        // Per-worker counters must not perturb seeding or counting.
        let b = MonteCarlo::new(10_000, 7)
            .run_with_state(
                || 0u64,
                |seed, calls| {
                    *calls += 1;
                    f(seed)
                },
            )
            .unwrap();
        assert_eq!(a.failures, b.failures);
    }

    #[test]
    fn observed_matches_stateless_and_counts_metrics() {
        let f = |seed: u64| trial_rng(seed).gen::<f64>() < 0.25;
        let a = MonteCarlo::new(10_000, 7).run(f).unwrap();
        let (b, sink) = MonteCarlo::new(10_000, 7)
            .run_observed(
                || (),
                |seed, (), sink: &mut dyn Sink| {
                    sink.add(dut_obs::keys::CORE_GAP_RUNS, 1);
                    sink.observe(dut_obs::keys::NETSIM_ROUND_BITS, seed % 128);
                    f(seed)
                },
            )
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(sink.counter(dut_obs::keys::CORE_GAP_RUNS), 10_000);
        assert_eq!(
            sink.histogram(dut_obs::keys::NETSIM_ROUND_BITS)
                .unwrap()
                .count(),
            10_000
        );
    }

    #[test]
    fn builder_configs_are_result_invariant() {
        let f = |seed: u64| trial_rng(seed).gen::<f64>() < 0.25;
        let auto = MonteCarlo::new(4_096, 9).run(f).unwrap();
        for cfg in [
            MonteCarloConfig::serial(),
            MonteCarloConfig::with_threads(2),
            MonteCarloConfig::with_threads(8).chunk_size(37),
        ] {
            let e = MonteCarlo::new(4_096, 9).config(cfg).run(f).unwrap();
            assert_eq!(e, auto, "config {cfg:?} changed the estimate");
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let f = |seed: u64| trial_rng(seed).gen::<f64>() < 0.5;
        let a = MonteCarlo::new(10_000, 1).run(f).unwrap();
        let b = MonteCarlo::new(10_000, 2).run(f).unwrap();
        assert_ne!(a.failures, b.failures);
    }

    #[test]
    fn zero_trials_is_typed_error() {
        // The seed code panicked here via `assert!`.
        let err = MonteCarlo::new(0, 7).run(|_| false).unwrap_err();
        assert_eq!(err, MonteCarloError::ZeroTrials);
        let err = MonteCarlo::new(0, 7)
            .run_with_state(|| (), |_, ()| false)
            .unwrap_err();
        assert_eq!(err, MonteCarloError::ZeroTrials);
    }

    #[test]
    fn worker_panic_payload_is_propagated() {
        // The seed code joined workers through the scoped-thread shim,
        // which replaces the payload with "a scoped thread panicked".
        let caught = std::panic::catch_unwind(|| {
            let _ = MonteCarlo::new(100, 7).run(|seed| {
                if seed % 3 == 0 {
                    panic!("distinctive trial failure 0xBEEF");
                }
                false
            });
        })
        .expect_err("a trial panicked");
        let msg = caught
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| caught.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("distinctive trial failure 0xBEEF"),
            "payload was not preserved: {msg:?}"
        );
    }

    #[test]
    fn certification_is_strict_at_endpoints() {
        let all = ErrorEstimate::from_counts(100, 100, 1.96);
        assert!(!all.certified_below(1.0));
        let none = ErrorEstimate::from_counts(100, 0, 1.96);
        assert!(!none.certified_above(0.0));
        assert!(!none.certified_below(0.0));
    }

    #[test]
    fn checkpointed_run_resumes_bit_identically() {
        let dir = std::env::temp_dir().join("dut_core_mc_ck_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.jsonl");
        let _ = std::fs::remove_file(&path);
        let f = |seed: u64| trial_rng(seed).gen::<f64>() < 0.25;
        let plain = MonteCarlo::new(2_000, 5).run(f).unwrap();

        let mut ck = Checkpoint::open(&path).unwrap();
        let first = MonteCarlo::new(2_000, 5)
            .config(MonteCarloConfig::auto().chunk_size(128))
            .checkpoint(&mut ck, "cell")
            .run(f)
            .unwrap();
        assert_eq!(first, plain);
        drop(ck);

        // Truncate the file to the plan + 3 chunk lines ("kill after
        // k chunks"), then resume against it.
        let text = std::fs::read_to_string(&path).unwrap();
        let kept: Vec<&str> = text.lines().take(4).collect();
        std::fs::write(&path, format!("{}\n", kept.join("\n"))).unwrap();
        let mut ck = Checkpoint::open(&path).unwrap();
        assert_eq!(ck.completed_chunks("cell"), 3);
        let resumed = MonteCarlo::new(2_000, 5)
            .config(MonteCarloConfig::auto().chunk_size(128))
            .checkpoint(&mut ck, "cell")
            .run(f)
            .unwrap();
        assert_eq!(resumed, plain);
        assert_eq!(ck.completed_chunks("cell"), 2_000usize.div_ceil(128));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn adaptive_spends_fewer_trials_and_agrees_on_the_decision() {
        let f = |seed: u64| trial_rng(seed).gen::<f64>() < 0.02;
        let fixed = MonteCarlo::new(100_000, 7).run(f).unwrap();
        let adaptive = MonteCarlo::new(100_000, 7)
            .config(MonteCarloConfig::adaptive(0.01).stop_threshold(0.5))
            .run(f)
            .unwrap();
        assert!(
            adaptive.trials < 100_000,
            "spent the whole budget: {adaptive:?}"
        );
        // Both certify the same side of the decision threshold, and
        // the adaptive interval still covers the true rate.
        assert!(fixed.certified_below(0.5) && adaptive.certified_below(0.5));
        assert!(adaptive.lower <= 0.02 && 0.02 <= adaptive.upper);
        assert!(adaptive.z > 1.96, "sequence z must price the peeking");
    }

    #[test]
    fn adaptive_estimates_are_thread_invariant() {
        // Threshold close enough to the rate that several looks are
        // needed — the stop lands mid-run, where racing workers could
        // disagree if stopping were not prefix-ordered.
        let f = |seed: u64| trial_rng(seed).gen::<f64>() < 0.25;
        let base = MonteCarloConfig::adaptive(1e-6)
            .stop_threshold(0.3)
            .chunk_size(37);
        let first = MonteCarlo::new(10_000, 3)
            .config(MonteCarloConfig { threads: 1, ..base })
            .run(f)
            .unwrap();
        assert!(first.trials < 10_000 && first.trials > 37, "{first:?}");
        for threads in [2, 8] {
            let est = MonteCarlo::new(10_000, 3)
                .config(MonteCarloConfig { threads, ..base })
                .run(f)
                .unwrap();
            assert_eq!(est, first, "{threads} threads changed the stop");
        }
    }

    #[test]
    fn adaptive_checkpointed_run_resumes_bit_identically() {
        let dir = std::env::temp_dir().join("dut_core_mc_adaptive_ck_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("adaptive_resume.jsonl");
        let _ = std::fs::remove_file(&path);
        let f = |seed: u64| trial_rng(seed).gen::<f64>() < 0.25;
        let cfg = MonteCarloConfig::adaptive(1e-6)
            .stop_threshold(0.3)
            .chunk_size(64);

        let mut ck = Checkpoint::open(&path).unwrap();
        let full = MonteCarlo::new(50_000, 3)
            .config(MonteCarloConfig { threads: 1, ..cfg })
            .checkpoint(&mut ck, "cell")
            .run(f)
            .unwrap();
        assert!(full.trials < 50_000, "must stop early: {full:?}");
        drop(ck);

        // Kill after 2 chunks, resume at a different thread count: the
        // stop decision and the estimate must not move.
        let text = std::fs::read_to_string(&path).unwrap();
        let kept: Vec<&str> = text.lines().take(3).collect();
        std::fs::write(&path, format!("{}\n", kept.join("\n"))).unwrap();
        let mut ck = Checkpoint::open(&path).unwrap();
        let resumed = MonteCarlo::new(50_000, 3)
            .config(MonteCarloConfig { threads: 4, ..cfg })
            .checkpoint(&mut ck, "cell")
            .run(f)
            .unwrap();
        assert_eq!(resumed, full);

        // Resuming a *fully recorded* adaptive run recomputes nothing
        // and reproduces the estimate from the file alone.
        let again = MonteCarlo::new(50_000, 3)
            .config(cfg)
            .checkpoint(&mut ck, "cell")
            .run(f)
            .unwrap();
        assert_eq!(again, full);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn adaptive_observed_records_spend_and_budget() {
        let (est, sink) = MonteCarlo::new(10_000, 5)
            .config(MonteCarloConfig::adaptive(0.5))
            .run_observed(
                || (),
                |seed, (), _sink: &mut dyn Sink| trial_rng(seed).gen::<f64>() < 0.1,
            )
            .unwrap();
        assert_eq!(
            sink.counter(dut_obs::keys::MC_ADAPTIVE_TRIALS_SPENT),
            est.trials as u64
        );
        assert_eq!(sink.counter(dut_obs::keys::MC_ADAPTIVE_BUDGET), 10_000);
    }

    #[test]
    fn checkpoint_plan_mismatch_is_typed() {
        let dir = std::env::temp_dir().join("dut_core_mc_ck_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mismatch.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut ck = Checkpoint::open(&path).unwrap();
        MonteCarlo::new(100, 1)
            .checkpoint(&mut ck, "x")
            .run(|_| false)
            .unwrap();
        let err = MonteCarlo::new(100, 2)
            .checkpoint(&mut ck, "x")
            .run(|_| false)
            .unwrap_err();
        assert!(matches!(
            err,
            MonteCarloError::Checkpoint(CheckpointError::PlanMismatch { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }
}
