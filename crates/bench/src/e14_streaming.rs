//! E14 — streaming service: mergeable-sketch throughput and
//! shard-count invariance.
//!
//! The `dut-stream` service turns the batch collision tester into an
//! anytime streaming one: per-stream sliding windows over mergeable
//! sketches, shard-local state, coordinator verdicts. Two claims are
//! measured. First, throughput: ingest is O(1) per sample (one
//! label-index probe, a window rotation, and an integer pair-count
//! update), so
//! samples/sec/core should be flat in the shard count — sharding is a
//! concurrency knob, not a work knob. Second, exactness: because the
//! sketch merge law is exact integer arithmetic and shard placement is
//! a pure function of the stream label, verdicts must be bit-identical
//! at every shard count, and uniform/far traffic must separate exactly
//! as the batch tester separates it (the merge-differential suite
//! proves the per-sketch law; this experiment exercises it end to end).

use std::time::Instant;

use crate::metrics::MetricsLog;
use crate::table::{fmt_f, Table};
use crate::Scale;
use dut_distributions::families::paninski_far;
use dut_distributions::DiscreteDistribution;
use dut_obs::{MemorySink, RunRecord};
use dut_stream::{StreamConfig, StreamService, Verdict};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn verdict_name(v: Verdict) -> &'static str {
    match v {
        Verdict::Uniform => "Uniform",
        Verdict::Far => "Far",
        Verdict::Pending => "Pending",
    }
}

/// Generates `per_stream` samples for each of `streams` labeled
/// streams, round-robin interleaved, each stream drawing from `dist`
/// with its own RNG seeded by `derive_trial_seed(base_seed, label)` —
/// the PR 5 stateless-seed discipline, so traffic is reproducible per
/// stream regardless of interleaving.
fn traffic(
    dist: &DiscreteDistribution,
    streams: u64,
    per_stream: usize,
    base_seed: u64,
) -> Vec<(u64, usize)> {
    let mut rngs: Vec<StdRng> = (0..streams)
        .map(|label| StdRng::seed_from_u64(dut_core::executor::derive_trial_seed(base_seed, label)))
        .collect();
    let mut out = Vec::with_capacity(streams as usize * per_stream);
    for _ in 0..per_stream {
        for (label, rng) in rngs.iter_mut().enumerate() {
            out.push((label as u64, dist.sample(rng)));
        }
    }
    out
}

/// Runs E14, appending one `dut-metrics/1` record per correctness-table
/// service run to `log` (params: input, shards, streams; the `stream.*`
/// counters carry ingest/window/coordinator totals).
pub fn run(scale: Scale, log: &mut MetricsLog) -> Vec<Table> {
    let n = 4096usize;
    let eps = 1.0;
    let streams = 24u64;
    let window = 512usize;
    let reject_threshold = streams as usize / 2;
    let base_seed = 0xE14;

    // ---------------------------------------------------- throughput
    // One pass at quick scale takes about 2 ms, so single passes swing
    // by a third between runs; the median of several steadies the row.
    const PASSES: usize = 5;
    let per_stream = scale.pick(2_000usize, 40_000);
    let uniform = DiscreteDistribution::uniform(n);
    let feed = traffic(&uniform, streams, per_stream, base_seed);

    let mut t_perf = Table::new(
        "E14: streaming ingest throughput (single core)",
        format!(
            "n = 2^12, ε = 1, {streams} streams x {per_stream} samples round-robin, \
             window = {window}. One thread drives every shard, so samples/sec/core is \
             the raw per-sample cost: shard hash + window rotation + O(1) pair-count \
             update. Sharding only partitions state — the rate must be flat in the \
             shard count. Each row is the median of {PASSES} passes, each on a fresh \
             service.",
        ),
        &["shards", "samples", "wall ms", "samples/sec/core"],
    );
    for shards in [1usize, 4, 8] {
        let mut passes: Vec<f64> = (0..PASSES)
            .map(|_| {
                let mut svc = StreamService::new(StreamConfig {
                    domain: n,
                    epsilon: eps,
                    window,
                    shards,
                    reject_threshold,
                    base_seed,
                })
                .expect("valid config");
                let start = Instant::now();
                for &(label, sample) in &feed {
                    svc.ingest(label, sample).expect("in-domain sample");
                }
                start.elapsed().as_secs_f64()
            })
            .collect();
        passes.sort_by(f64::total_cmp);
        let secs = passes[PASSES / 2];
        let rate = feed.len() as f64 / secs;
        t_perf.push_row(vec![
            shards.to_string(),
            feed.len().to_string(),
            fmt_f(secs * 1e3),
            format!("{:.0}", rate),
        ]);
    }

    // --------------------------------- correctness + shard invariance
    let far = paninski_far(n, eps).expect("valid far instance");
    let mut t_sep = Table::new(
        "E14: verdict separation and shard-count invariance",
        format!(
            "Same service, window-filling traffic ({window} samples per stream). The \
             coordinator verdict (threshold rule, T = {reject_threshold} of {streams} \
             streams) must accept uniform traffic, reject Paninski-far traffic, and be \
             bit-identical at 1 vs 4 shards — shard placement is a pure function of \
             the stream label and sketch merging is exact integer arithmetic.",
        ),
        &[
            "input",
            "streams",
            "verdict (1 shard)",
            "verdict (4 shards)",
            "identical",
            "pooled pairs",
        ],
    );
    for (input, dist) in [("uniform", &uniform), ("far", &far)] {
        let feed = traffic(dist, streams, window, base_seed ^ 0x5EED);
        let mut results = Vec::new();
        for shards in [1usize, 4] {
            let mut svc = StreamService::new(StreamConfig {
                domain: n,
                epsilon: eps,
                window,
                shards,
                reject_threshold,
                base_seed,
            })
            .expect("valid config");
            let mut sink = MemorySink::new();
            for &(label, sample) in &feed {
                svc.ingest_observed(label, sample, &mut sink)
                    .expect("in-domain sample");
            }
            let verdict = svc.verdict_observed(&mut sink);
            let pooled = svc.global_verdict_observed(&mut sink);
            let pairs = svc.merged_sketch().pairs();
            if log.enabled() {
                let rec = RunRecord::new("e14", &format!("{input}/shards{shards}"))
                    .param("n", n)
                    .param("input", input)
                    .param("shards", shards)
                    .param("streams", streams)
                    .param("outcome", verdict_name(verdict.value));
                log.write(&rec, &sink).expect("metrics write");
            }
            results.push((verdict, pooled, pairs));
        }
        let identical = results[0] == results[1];
        t_sep.push_row(vec![
            input.to_string(),
            streams.to_string(),
            verdict_name(results[0].0.value).to_string(),
            verdict_name(results[1].0.value).to_string(),
            identical.to_string(),
            results[0].2.to_string(),
        ]);
    }

    vec![t_perf, t_sep]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_separates_and_is_shard_invariant() {
        let tables = run(Scale::Quick, &mut MetricsLog::disabled());
        assert_eq!(tables.len(), 2);
        crate::verdict::check("e14", &tables).unwrap();
    }

    #[test]
    fn metrics_log_one_record_per_service_run() {
        let mut log = MetricsLog::buffer();
        let tables = run(Scale::Quick, &mut log);
        // 2 inputs x 2 shard counts.
        assert_eq!(log.records(), 4);
        for line in log.lines() {
            assert!(line.starts_with("{\"schema\":\"dut-metrics/1\""));
            assert!(line.contains("\"experiment\":\"e14\""));
            assert!(line.contains("stream.pushes"));
        }
        // Logging must not perturb the run (timing column excluded).
        let plain = run(Scale::Quick, &mut MetricsLog::disabled());
        assert_eq!(plain[1], tables[1]);
    }
}
