//! The merge-differential suite: sharded/windowed sketch verdicts must
//! be bit-identical to the batch testers for every (split, merge-order,
//! shard-count) case generated by the testkit `merge_split` strategy.

use std::collections::BTreeMap;

use dut_core::baselines::{CollisionCountTester, SingletonCountTester};
use dut_core::decision::DecisionRule;
use dut_core::executor::sequence_z;
use dut_core::montecarlo::ErrorEstimate;
use dut_core::zero_round::ThresholdNetworkTester;
use dut_core::Decision;
use dut_distributions::collision::{collision_pair_count, has_collision};
use dut_stream::{
    Anytime, CollisionSketch, GapSketch, SingletonSketch, Sketch, SlidingWindow, StreamConfig,
    StreamService, ThresholdSketch, Verdict,
};
use dut_testkit::strategies::{fault_plan, merge_split, MergeSplit};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-sample survival mask for faulted ingest: one coin per stream
/// position, derived from the fault plan's seed and drop rate. The
/// mask depends only on the position — never on which shard the sample
/// lands in — so sharded and whole-stream ingest lose *the same*
/// samples, which is exactly the adversary the merge law must survive.
fn drop_mask(len: usize, seed: u64, drop_prob: f64) -> Vec<bool> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| !rng.gen_bool(drop_prob)).collect()
}

/// Builds one sketch per shard from the *surviving* samples of `ms`,
/// merges them in `ms.merge_order`, and returns the merged sketch plus
/// the whole-stream sketch over the same survivors and the survivor
/// list itself.
fn sharded_faulted<S: Sketch + Clone>(
    ms: &MergeSplit,
    survives: &[bool],
    fresh: impl Fn() -> S,
) -> (S, S, Vec<usize>) {
    let mut per_shard: Vec<S> = (0..ms.shards).map(|_| fresh()).collect();
    let mut whole = fresh();
    let mut survivors = Vec::new();
    for ((&x, &shard), &ok) in ms.samples.iter().zip(&ms.shard_of).zip(survives) {
        if ok {
            per_shard[shard].push(x);
            whole.push(x);
            survivors.push(x);
        }
    }
    let mut merged = per_shard[ms.merge_order[0]].clone();
    for &shard in &ms.merge_order[1..] {
        merged.merge(&per_shard[shard]);
    }
    (merged, whole, survivors)
}

/// Builds one sketch per shard from `ms`, then folds them in
/// `ms.merge_order` into the first shard of the order.
fn sharded<S: Sketch + Clone>(ms: &MergeSplit, fresh: impl Fn() -> S) -> S {
    let mut per_shard: Vec<S> = (0..ms.shards).map(|_| fresh()).collect();
    for (&x, &shard) in ms.samples.iter().zip(&ms.shard_of) {
        per_shard[shard].push(x);
    }
    let mut merged = per_shard[ms.merge_order[0]].clone();
    for &shard in &ms.merge_order[1..] {
        merged.merge(&per_shard[shard]);
    }
    merged
}

/// Stream labels aimed at the service's label index, added to the plain
/// `0..streams` labels: nothing, the extremes `0` and `u64::MAX`,
/// labels that differ only in bits 48–63, or more than 1000 distinct
/// labels (enough to grow the index at least three times).
fn adversarial_labels() -> impl Strategy<Value = Vec<u64>> {
    (0u8..4, any::<u64>(), 2u64..64).prop_map(|(shape, seed, k)| match shape {
        0 => Vec::new(),
        1 => vec![0, u64::MAX],
        // t ↦ 0x9E37·t is a bijection mod 2^16, so the top 16 bits are
        // distinct and reach bit 63.
        2 => (0..k)
            .map(|t| (seed & 0xFFFF_FFFF_FFFF) | (t.wrapping_mul(0x9E37) & 0xFFFF) << 48)
            .collect(),
        // i ↦ seed + i·odd is injective, so all 1000 + k are distinct.
        _ => (0..1000 + k)
            .map(|i| seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect(),
    })
}

/// The service restated naively: one window per label in a `BTreeMap`,
/// the threshold rule and its look schedule written out from their
/// definitions.
struct ModelService {
    cfg: StreamConfig,
    windows: BTreeMap<u64, SlidingWindow<CollisionSketch>>,
    looks: usize,
    pushes: u64,
}

impl ModelService {
    fn new(cfg: StreamConfig) -> Self {
        ModelService {
            cfg,
            windows: BTreeMap::new(),
            looks: 0,
            pushes: 0,
        }
    }

    fn ingest(&mut self, label: u64, sample: usize) {
        let cfg = self.cfg;
        self.windows
            .entry(label)
            .or_insert_with(|| {
                SlidingWindow::new(cfg.window, CollisionSketch::new(cfg.domain, cfg.epsilon))
            })
            .push(sample);
        self.pushes += 1;
    }

    fn merged_sketch(&self) -> CollisionSketch {
        let mut pooled = CollisionSketch::new(self.cfg.domain, self.cfg.epsilon);
        for window in self.windows.values() {
            pooled.merge(window.sketch());
        }
        pooled
    }

    fn verdict(&mut self) -> Anytime<Verdict> {
        let votes: Vec<Verdict> = self
            .windows
            .values()
            .map(|w| w.verdict().value)
            .filter(|&v| v != Verdict::Pending)
            .collect();
        let rejecting = votes.iter().filter(|&&v| v == Verdict::Far).count();
        let look = self.looks;
        self.looks += 1;
        if votes.is_empty() {
            return Anytime::at_look(Verdict::Pending, self.pushes, look, false);
        }
        let threshold = self.cfg.reject_threshold;
        let est = ErrorEstimate::from_counts(votes.len(), rejecting, sequence_z(look));
        let frac = threshold as f64 / votes.len() as f64;
        let (value, certified) = if rejecting >= threshold {
            let all = rejecting == votes.len();
            (Verdict::Far, est.certified_above(frac) || all)
        } else {
            (Verdict::Uniform, est.certified_below(frac))
        };
        Anytime::at_look(value, self.pushes, look, certified)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Collision sketch: any partition + merge order reproduces the
    /// batch pair count and the batch tester's decision bit-identically.
    #[test]
    fn collision_sketch_matches_batch_under_any_split(ms in merge_split(64, 48, 6)) {
        let eps = 1.0;
        let merged = sharded(&ms, || CollisionSketch::new(ms.domain, eps));
        prop_assert_eq!(merged.pairs(), collision_pair_count(&ms.samples));
        prop_assert_eq!(merged.samples(), ms.samples.len() as u64);
        let batch = CollisionCountTester::with_samples(ms.domain, ms.samples.len(), eps)
            .expect("strategy guarantees >= 2 samples");
        let expect = Verdict::from_decision(batch.run_on_samples(&ms.samples));
        let got = merged.verdict();
        prop_assert_eq!(got.value, expect);
        prop_assert!(got.certified);
    }

    /// Singleton sketch: same contract against the Paninski batch tester.
    #[test]
    fn singleton_sketch_matches_batch_under_any_split(ms in merge_split(64, 48, 6)) {
        let eps = 1.0;
        let merged = sharded(&ms, || SingletonSketch::new(ms.domain, eps));
        let batch = SingletonCountTester::with_samples(ms.domain, ms.samples.len(), eps)
            .expect("strategy guarantees >= 2 samples");
        let expect = Verdict::from_decision(batch.run_on_samples(&ms.samples));
        prop_assert_eq!(merged.verdict().value, expect);
    }

    /// Gap sketch: the collision bit across any split equals the batch
    /// `has_collision` on the union.
    #[test]
    fn gap_sketch_matches_batch_collision_bit(ms in merge_split(64, 48, 6)) {
        let merged = sharded(&ms, || GapSketch::new(ms.domain));
        prop_assert_eq!(merged.has_collision(), has_collision(&ms.samples));
        let expect = Verdict::from_decision(
            Decision::from_accept(!has_collision(&ms.samples)),
        );
        prop_assert_eq!(merged.verdict().value, expect);
    }

    /// Threshold sketch: block-aligned contiguous splits merged in
    /// order reproduce the per-block gap votes and the threshold rule.
    #[test]
    fn threshold_sketch_matches_blockwise_votes(
        ms in merge_split(64, 48, 4),
        node_samples in 2usize..5,
        threshold in 1usize..4,
    ) {
        let nodes = ms.samples.len() / node_samples;
        prop_assume!(nodes >= 1);
        let threshold = threshold.min(nodes);
        let used = &ms.samples[..nodes * node_samples];

        // Batch comparator: one gap vote per block, threshold rule on top.
        let rejecting = used
            .chunks_exact(node_samples)
            .filter(|block| has_collision(block))
            .count();
        let expect = if rejecting >= threshold { Verdict::Far } else { Verdict::Uniform };
        prop_assert_eq!(
            Verdict::from_decision(DecisionRule::Threshold(threshold).decide(rejecting)),
            expect
        );

        // Streaming: split the stream at block-aligned cut points into
        // contiguous chunks (one per shard), push, merge in order.
        let cuts: Vec<usize> = (0..=ms.shards)
            .map(|i| (nodes * i / ms.shards) * node_samples)
            .collect();
        let mut merged = ThresholdSketch::new(ms.domain, node_samples, nodes, threshold);
        let mut chunks = cuts.windows(2);
        // First chunk is pushed directly, the rest arrive as merges.
        if let Some(w) = chunks.next() {
            for &x in &used[w[0]..w[1]] {
                merged.push(x);
            }
        }
        for w in chunks {
            let mut part = ThresholdSketch::new(ms.domain, node_samples, nodes, threshold);
            for &x in &used[w[0]..w[1]] {
                part.push(x);
            }
            prop_assert!(part.is_block_aligned());
            merged.merge(&part);
        }
        prop_assert_eq!(merged.votes(), nodes);
        prop_assert_eq!(merged.rejecting(), rejecting);
        prop_assert_eq!(merged.verdict().value, expect);
    }

    /// Faulted ingest: shard sketches fed only the drop-surviving
    /// samples merge to exactly the single-stream sketch over those
    /// same survivors — drops thin the stream, they never bend the
    /// merge law. The batch tester on the survivor list closes the
    /// loop: the sharded faulted verdict is still the exact verdict on
    /// what actually arrived.
    #[test]
    fn collision_merge_law_holds_under_faulted_ingest(
        ms in merge_split(64, 48, 6),
        plan in fault_plan(8, 20, 0.5, 0.0),
    ) {
        let eps = 1.0;
        let survives = drop_mask(ms.samples.len(), plan.seed, plan.drop_prob);
        let (merged, whole, survivors) =
            sharded_faulted(&ms, &survives, || CollisionSketch::new(ms.domain, eps));
        prop_assert_eq!(merged.pairs(), whole.pairs());
        prop_assert_eq!(merged.pairs(), collision_pair_count(&survivors));
        prop_assert_eq!(merged.samples(), survivors.len() as u64);
        prop_assert_eq!(merged.verdict(), whole.verdict());
        if survivors.len() >= 2 {
            let batch = CollisionCountTester::with_samples(ms.domain, survivors.len(), eps)
                .expect(">= 2 survivors");
            prop_assert_eq!(
                merged.verdict().value,
                Verdict::from_decision(batch.run_on_samples(&survivors))
            );
        }
    }

    /// Same faulted-ingest law for the singleton sketch and the
    /// Paninski batch tester.
    #[test]
    fn singleton_merge_law_holds_under_faulted_ingest(
        ms in merge_split(64, 48, 6),
        plan in fault_plan(8, 20, 0.5, 0.0),
    ) {
        let eps = 1.0;
        let survives = drop_mask(ms.samples.len(), plan.seed, plan.drop_prob);
        let (merged, whole, survivors) =
            sharded_faulted(&ms, &survives, || SingletonSketch::new(ms.domain, eps));
        prop_assert_eq!(merged.verdict(), whole.verdict());
        if survivors.len() >= 2 {
            let batch = SingletonCountTester::with_samples(ms.domain, survivors.len(), eps)
                .expect(">= 2 survivors");
            prop_assert_eq!(
                merged.verdict().value,
                Verdict::from_decision(batch.run_on_samples(&survivors))
            );
        }
    }

    /// And the gap sketch's collision bit over survivors.
    #[test]
    fn gap_merge_law_holds_under_faulted_ingest(
        ms in merge_split(64, 48, 6),
        plan in fault_plan(8, 20, 0.5, 0.0),
    ) {
        let survives = drop_mask(ms.samples.len(), plan.seed, plan.drop_prob);
        let (merged, whole, survivors) =
            sharded_faulted(&ms, &survives, || GapSketch::new(ms.domain));
        prop_assert_eq!(merged.has_collision(), whole.has_collision());
        prop_assert_eq!(merged.has_collision(), has_collision(&survivors));
    }

    /// Sliding window: at every point of the stream the windowed sketch
    /// verdict equals the batch tester on the window's current contents.
    #[test]
    fn windowed_sketch_matches_batch_on_window_suffix(
        ms in merge_split(32, 48, 1),
        cap in 2usize..16,
    ) {
        let eps = 1.0;
        let mut w = SlidingWindow::new(cap, CollisionSketch::new(ms.domain, eps));
        for (i, &x) in ms.samples.iter().enumerate() {
            w.push(x);
            let start = (i + 1).saturating_sub(cap);
            let live = &ms.samples[start..=i];
            prop_assert_eq!(w.sketch().pairs(), collision_pair_count(live));
            if live.len() >= 2 {
                let batch = CollisionCountTester::with_samples(ms.domain, live.len(), eps)
                    .expect("live.len() >= 2");
                prop_assert_eq!(
                    w.verdict().value,
                    Verdict::from_decision(batch.run_on_samples(live))
                );
            }
        }
    }

    /// The sharded service: identical traffic through 1, 2, and 8
    /// shards yields bit-identical coordinator and pooled verdicts —
    /// also on labels chosen to stress the label index.
    #[test]
    fn service_verdicts_are_shard_count_invariant(
        ms in merge_split(64, 64, 1),
        streams in 1u64..6,
        extra in adversarial_labels(),
    ) {
        let labels: Vec<u64> = (0..streams).chain(extra).collect();
        // Cycle the samples so that every label arrives.
        let pushes = ms.samples.len().max(labels.len());
        let mut services: Vec<StreamService> = [1usize, 2, 8]
            .iter()
            .map(|&shards| {
                let mut svc = StreamService::new(StreamConfig {
                    domain: ms.domain,
                    epsilon: 1.0,
                    window: 16,
                    shards,
                    reject_threshold: 1,
                    base_seed: 99,
                })
                .expect("valid config");
                for i in 0..pushes {
                    let x = ms.samples[i % ms.samples.len()];
                    svc.ingest(labels[i % labels.len()], x).expect("in-domain sample");
                }
                svc
            })
            .collect();
        let looks: Vec<_> = services.iter_mut().map(|svc| svc.verdict()).collect();
        let [a, b, c] = &services[..] else { unreachable!() };
        prop_assert_eq!(b.global_verdict(), c.global_verdict());
        prop_assert_eq!(a.global_verdict(), b.global_verdict());
        prop_assert_eq!(b.merged_sketch().pairs(), c.merged_sketch().pairs());
        prop_assert_eq!(looks[0], looks[1]);
        prop_assert_eq!(looks[1], looks[2]);
        prop_assert_eq!(a.stream_count(), c.stream_count());
    }

    /// The indexed service against the naive `BTreeMap` model: after
    /// every batch of mixed traffic the coordinator verdict, the pooled
    /// verdict and pair count, the stream count and the push count all
    /// agree.
    #[test]
    fn service_matches_btreemap_model(
        streams in 1u64..6,
        extra in adversarial_labels(),
        seed in any::<u64>(),
        batches in 1usize..6,
    ) {
        let cfg = StreamConfig {
            domain: 32,
            epsilon: 1.0,
            window: 8,
            shards: 3,
            reject_threshold: 2,
            base_seed: seed,
        };
        let mut svc = StreamService::new(cfg).expect("valid config");
        let mut model = ModelService::new(cfg);
        let labels: Vec<u64> = (0..streams).chain(extra).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..batches {
            // Every label once, from a seeded offset, then random repeats.
            let offset = rng.gen_range(0..labels.len());
            let repeats = labels.len() / 2 + 16;
            for i in 0..labels.len() + repeats {
                let label = if i < labels.len() {
                    labels[(offset + i) % labels.len()]
                } else {
                    labels[rng.gen_range(0..labels.len())]
                };
                // Labels of odd weight send concentrated traffic.
                let sample = if label.count_ones() % 2 == 1 {
                    rng.gen_range(0..2)
                } else {
                    rng.gen_range(0..cfg.domain)
                };
                svc.ingest(label, sample).expect("in-domain sample");
                model.ingest(label, sample);
            }
            prop_assert_eq!(svc.verdict(), model.verdict());
            let pooled = model.merged_sketch();
            prop_assert_eq!(svc.global_verdict(), pooled.verdict());
            prop_assert_eq!(svc.merged_sketch().pairs(), pooled.pairs());
            prop_assert_eq!(svc.stream_count(), model.windows.len());
            prop_assert_eq!(svc.pushes(), model.pushes);
        }
    }
}

/// Coordinator threshold verdicts (which consume a look) are also
/// shard-count invariant — checked outside proptest so each service's
/// look counter sees the same call sequence.
#[test]
fn coordinator_verdicts_are_shard_count_invariant() {
    for seed in 0..20u64 {
        let mut verdicts = Vec::new();
        for shards in [1usize, 2, 8] {
            let mut svc = StreamService::new(StreamConfig {
                domain: 32,
                epsilon: 1.0,
                window: 8,
                shards,
                reject_threshold: 2,
                base_seed: seed,
            })
            .unwrap();
            for i in 0..400u64 {
                let label = i % 5;
                // Odd streams send concentrated traffic.
                let sample = if label % 2 == 1 {
                    (label as usize) % 32
                } else {
                    ((i.wrapping_mul(2654435761).wrapping_add(seed)) % 32) as usize
                };
                svc.ingest(label, sample).unwrap();
            }
            // Two looks: the schedule must advance identically.
            let first = svc.verdict();
            let second = svc.verdict();
            verdicts.push((first, second));
        }
        assert_eq!(verdicts[0], verdicts[1], "seed {seed}: 1 vs 2 shards");
        assert_eq!(verdicts[1], verdicts[2], "seed {seed}: 2 vs 8 shards");
    }
}

/// The streaming threshold sketch agrees bit-for-bit with a *planned*
/// Theorem 1.2 network: per-node votes from the batch gap statistic,
/// network outcome from `outcome_from_votes`.
#[test]
fn threshold_sketch_matches_planned_network_outcome() {
    let (n, k, eps, p) = (1 << 12, 30_000, 1.0, 1.0 / 3.0);
    let tester = ThresholdNetworkTester::plan(n, k, eps, p).expect("plannable at E4 scale");
    let plan = tester.plan_details();
    let s = plan.samples_per_node;

    for seed in [3u64, 17, 2024] {
        // A deterministic synthetic stream: k nodes x s samples.
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % n as u64) as usize
        };
        let samples: Vec<usize> = (0..k * s).map(|_| next()).collect();

        let mut sketch = ThresholdSketch::from_plan(plan);
        for &x in &samples {
            sketch.push(x);
        }

        let rejecting = samples
            .chunks_exact(s)
            .filter(|block| has_collision(block))
            .count();
        let outcome = tester.outcome_from_votes(rejecting);
        assert_eq!(sketch.votes(), k);
        assert_eq!(sketch.rejecting(), rejecting);
        assert_eq!(
            sketch.verdict().value.decision(),
            Some(outcome.decision),
            "seed {seed}"
        );
    }
}

#[cfg(feature = "dgk")]
mod dgk {
    use super::*;
    use dut_stream::DgkSketch;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The DGK sketch keeps the exact merge law: any partition and
        /// merge order reaches bit-identical hashed-domain state.
        #[test]
        fn dgk_merge_law_is_exact(ms in merge_split(4096, 48, 6)) {
            let merged = sharded(&ms, || DgkSketch::new(ms.domain, 1.0, 7));
            let mut whole = DgkSketch::new(ms.domain, 1.0, 7);
            for &x in &ms.samples {
                whole.push(x);
            }
            prop_assert_eq!(merged.pairs(), whole.pairs());
            prop_assert_eq!(merged.verdict(), whole.verdict());
        }
    }
}
