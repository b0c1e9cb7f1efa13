//! The sharded streaming service: many concurrent labeled streams,
//! per-stream sliding windows, shard-local state, coordinator verdicts.

use dut_core::executor::{derive_trial_seed, sequence_z};
use dut_core::montecarlo::ErrorEstimate;
use dut_obs::keys;
use dut_obs::Sink;

use crate::collision::CollisionSketch;
use crate::error::StreamError;
use crate::sketch::{Anytime, Sketch, Verdict};
use crate::window::SlidingWindow;

/// Configuration for a [`StreamService`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Domain size `n` of the tested distributions.
    pub domain: usize,
    /// Distance parameter ε each per-stream tester uses.
    pub epsilon: f64,
    /// Per-stream sliding-window capacity (each stream's verdict is on
    /// its last `window` samples).
    pub window: usize,
    /// Number of shards stream state is partitioned across. A pure
    /// performance knob: every verdict is bit-identical at any value.
    pub shards: usize,
    /// Coordinator threshold `T`: the service verdict is `Far` iff at
    /// least `T` decided streams currently reject.
    pub reject_threshold: usize,
    /// Base seed of the stateless shard-placement function.
    pub base_seed: u64,
}

/// Per-stream state: a windowed collision sketch.
type StreamState = SlidingWindow<CollisionSketch>;

/// Where a stream's window lives: `shards[shard][slot]`.
#[derive(Debug, Clone, Copy)]
struct Entry {
    label: u64,
    shard: u32,
    slot: u32,
}

/// Buckets of a fresh [`LabelIndex`]; a power of two.
const INDEX_START: usize = 16;

/// An open-addressed label → (shard, slot) index: a power-of-two
/// bucket table, linear probing, load kept at most ½.
///
/// A bucket is the low bits of [`derive_trial_seed`] of the label, a
/// splitmix64 mix in which every output bit depends on every input
/// bit. A bare multiply would not do: labels that differ only in their
/// top bits would share their low product bits and pile into one probe
/// chain. The seed is fixed because only the spread matters here.
#[derive(Debug)]
struct LabelIndex {
    buckets: Vec<Option<Entry>>,
    len: usize,
}

impl LabelIndex {
    fn new() -> Self {
        LabelIndex {
            buckets: vec![None; INDEX_START],
            len: 0,
        }
    }

    /// The bucket an entry for `label` either occupies or would take.
    fn probe(&self, label: u64) -> usize {
        let mask = self.buckets.len() - 1;
        let mut i = derive_trial_seed(0, label) as usize & mask;
        while let Some(entry) = &self.buckets[i] {
            if entry.label == label {
                break;
            }
            i = (i + 1) & mask;
        }
        i
    }

    fn get(&self, label: u64) -> Option<Entry> {
        self.buckets[self.probe(label)]
    }

    /// Adds an entry whose label is not yet indexed, doubling the table
    /// first if the load would pass ½.
    fn insert(&mut self, entry: Entry) {
        if 2 * (self.len + 1) > self.buckets.len() {
            let grown = vec![None; 2 * self.buckets.len()];
            let old = std::mem::replace(&mut self.buckets, grown);
            for moved in old.into_iter().flatten() {
                let i = self.probe(moved.label);
                self.buckets[i] = Some(moved);
            }
        }
        let i = self.probe(entry.label);
        self.buckets[i] = Some(entry);
        self.len += 1;
    }
}

/// A sharded streaming uniformity-testing service.
///
/// Samples arrive tagged with a `u64` stream label; each stream gets a
/// sliding-window [`CollisionSketch`] living on the shard selected by
/// the stateless placement function
/// `derive_trial_seed(base_seed, label) % shards` — a pure function of
/// the label, never of arrival order or shard load. A shard keeps its
/// streams in first-arrival order, and one open-addressed label index
/// maps each label to its (shard, slot), so an ingest costs one index
/// probe. Per-stream state depends only on that stream's own sample
/// order, and every coordinator aggregate is an integer sum over
/// streams, free of the order they are visited in, so **all verdicts
/// are bit-identical at any shard count** (enforced by the
/// merge-differential suite).
///
/// Two verdict surfaces:
///
/// * [`verdict`](StreamService::verdict) — the threshold rule over
///   per-stream votes (a stream votes once its window verdict is
///   decidable; `Far` iff at least `reject_threshold` reject). Each
///   call is one *look* in the `sequence_z` union-bound Wilson
///   schedule; the returned [`Anytime`] carries the schedule-priced
///   interval check, so callers may poll as often as they like without
///   silently spending their confidence budget.
/// * [`global_verdict`](StreamService::global_verdict) — merges every
///   stream's window sketch into one collision sketch (the mergeable
///   decomposition at coordinator scale) and reads the pooled verdict.
#[derive(Debug)]
pub struct StreamService {
    cfg: StreamConfig,
    /// Each shard's streams, in first-arrival order.
    shards: Vec<Vec<StreamState>>,
    index: LabelIndex,
    looks: usize,
    pushes: u64,
    /// Window evictions over every stream, kept by `ingest`.
    evictions: u64,
    /// The part of `evictions` already recorded to a sink.
    evictions_recorded: u64,
}

impl StreamService {
    /// Creates an empty service.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] if any of `domain`,
    /// `window`, `shards`, or `reject_threshold` is zero, or ε is not
    /// in `(0, 1]`.
    pub fn new(cfg: StreamConfig) -> Result<Self, StreamError> {
        fn invalid(name: &'static str, value: f64, expected: &'static str) -> StreamError {
            StreamError::InvalidConfig {
                name,
                value,
                expected,
            }
        }
        if cfg.domain == 0 {
            return Err(invalid("domain", 0.0, "domain >= 1"));
        }
        if !(cfg.epsilon > 0.0 && cfg.epsilon <= 1.0) {
            return Err(invalid("epsilon", cfg.epsilon, "0 < epsilon <= 1"));
        }
        if cfg.window == 0 {
            return Err(invalid("window", 0.0, "window >= 1"));
        }
        if cfg.shards == 0 {
            return Err(invalid("shards", 0.0, "shards >= 1"));
        }
        if cfg.reject_threshold == 0 {
            return Err(invalid("reject_threshold", 0.0, "reject_threshold >= 1"));
        }
        let mut shards = Vec::with_capacity(cfg.shards);
        shards.resize_with(cfg.shards, Vec::new);
        Ok(StreamService {
            cfg,
            shards,
            index: LabelIndex::new(),
            looks: 0,
            pushes: 0,
            evictions: 0,
            evictions_recorded: 0,
        })
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// The shard that owns `label`: a pure function of
    /// `(base_seed, label)`, independent of arrival order and shard
    /// count changes elsewhere in the config.
    pub fn shard_of(&self, label: u64) -> usize {
        (derive_trial_seed(self.cfg.base_seed, label) % self.cfg.shards as u64) as usize
    }

    /// Total samples ingested across all streams.
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Number of distinct streams seen so far.
    pub fn stream_count(&self) -> usize {
        self.index.len
    }

    /// Every stream's window, shard by shard, each in first-arrival
    /// order.
    fn windows(&self) -> impl Iterator<Item = &StreamState> {
        self.shards.iter().flatten()
    }

    /// Ingests one sample on stream `label`.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::OutOfDomain`] if `sample` is outside the
    /// configured domain; the service state is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if a new stream would put more than 2³² streams on its
    /// shard, or its shard index does not fit in `u32`.
    pub fn ingest(&mut self, label: u64, sample: usize) -> Result<(), StreamError> {
        if sample >= self.cfg.domain {
            return Err(StreamError::OutOfDomain {
                sample,
                domain: self.cfg.domain,
            });
        }
        let Entry { shard, slot, .. } = match self.index.get(label) {
            Some(entry) => entry,
            None => self.open_stream(label),
        };
        let window = &mut self.shards[shard as usize][slot as usize];
        let before = window.evictions();
        window.push(sample);
        self.evictions += window.evictions() - before;
        self.pushes += 1;
        Ok(())
    }

    /// Places a new stream's empty window at the end of its shard and
    /// indexes it.
    fn open_stream(&mut self, label: u64) -> Entry {
        let shard = self.shard_of(label);
        let streams = &mut self.shards[shard];
        let entry = Entry {
            label,
            shard: u32::try_from(shard).expect("shard index fits in u32"),
            slot: u32::try_from(streams.len()).expect("fewer than 2^32 streams per shard"),
        };
        streams.push(SlidingWindow::new(
            self.cfg.window,
            CollisionSketch::new(self.cfg.domain, self.cfg.epsilon),
        ));
        self.index.insert(entry);
        entry
    }

    /// [`ingest`](Self::ingest) with `stream.*` metrics recorded to
    /// `sink`. Sinks never touch sketch state, so an observed ingest is
    /// bit-identical to the plain one.
    pub fn ingest_observed(
        &mut self,
        label: u64,
        sample: usize,
        sink: &mut dyn Sink,
    ) -> Result<(), StreamError> {
        if !sink.enabled() {
            return self.ingest(label, sample);
        }
        let streams = self.stream_count();
        self.ingest(label, sample)?;
        sink.add(keys::STREAM_PUSHES, 1);
        if self.stream_count() > streams {
            sink.add(keys::STREAM_STREAMS, 1);
        }
        if self.evictions > self.evictions_recorded {
            sink.add(
                keys::STREAM_WINDOW_EVICTIONS,
                self.evictions - self.evictions_recorded,
            );
            self.evictions_recorded = self.evictions;
        }
        Ok(())
    }

    /// The coordinator's anytime threshold-rule verdict.
    ///
    /// Streams whose window verdict is decidable (≥ 2 samples) each
    /// cast one vote; the verdict is `Far` iff at least
    /// `reject_threshold` votes reject, `Pending` while no stream has
    /// voted. Each call advances the look counter of the union-bound
    /// Wilson schedule; `certified` reports whether the vote-rate
    /// interval at this look clears `reject_threshold / votes`.
    pub fn verdict(&mut self) -> Anytime<Verdict> {
        let (votes, rejecting) = self.tally();
        self.decide(votes, rejecting)
    }

    /// Applies the threshold rule to one tally, spending one look.
    fn decide(&mut self, votes: usize, rejecting: usize) -> Anytime<Verdict> {
        let look = self.looks;
        self.looks += 1;
        if votes == 0 {
            return Anytime::at_look(Verdict::Pending, self.pushes, look, false);
        }
        let value = if rejecting >= self.cfg.reject_threshold {
            Verdict::Far
        } else {
            Verdict::Uniform
        };
        let est = ErrorEstimate::from_counts(votes, rejecting, sequence_z(look));
        let frac = self.cfg.reject_threshold as f64 / votes as f64;
        let certified = match value {
            Verdict::Far => est.certified_above(frac) || rejecting == votes,
            Verdict::Uniform => est.certified_below(frac),
            Verdict::Pending => false,
        };
        Anytime::at_look(value, self.pushes, look, certified)
    }

    /// [`verdict`](Self::verdict) with `stream.*` metrics recorded to
    /// `sink`.
    pub fn verdict_observed(&mut self, sink: &mut dyn Sink) -> Anytime<Verdict> {
        let (votes, rejecting) = self.tally();
        let result = self.decide(votes, rejecting);
        if sink.enabled() {
            sink.add(keys::STREAM_COORDINATOR_LOOKS, 1);
            sink.add(keys::STREAM_COORDINATOR_REJECTING_VOTES, rejecting as u64);
        }
        result
    }

    /// Counts (decided votes, rejecting votes) over every stream.
    /// Integer sums, so the result is independent of the iteration
    /// order — and of the shard count.
    fn tally(&self) -> (usize, usize) {
        let mut votes = 0usize;
        let mut rejecting = 0usize;
        for window in self.windows() {
            match window.verdict().value {
                Verdict::Far => {
                    votes += 1;
                    rejecting += 1;
                }
                Verdict::Uniform => votes += 1,
                Verdict::Pending => {}
            }
        }
        (votes, rejecting)
    }

    /// Merges every stream's window sketch into one pooled
    /// [`CollisionSketch`]. Sketch merging is exact integer arithmetic,
    /// so the result is identical in any fold order and at any shard
    /// count.
    pub fn merged_sketch(&self) -> CollisionSketch {
        let mut pooled = CollisionSketch::new(self.cfg.domain, self.cfg.epsilon);
        for window in self.windows() {
            pooled.merge(window.sketch());
        }
        pooled
    }

    /// The pooled verdict: the collision tester over the union of every
    /// stream's current window contents.
    pub fn global_verdict(&self) -> Anytime<Verdict> {
        self.merged_sketch().verdict()
    }

    /// [`global_verdict`](Self::global_verdict) with the coordinator
    /// merge count recorded to `sink`.
    pub fn global_verdict_observed(&mut self, sink: &mut dyn Sink) -> Anytime<Verdict> {
        if sink.enabled() {
            let merges = self.stream_count() as u64;
            sink.add(keys::STREAM_COORDINATOR_MERGES, merges);
        }
        self.global_verdict()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dut_obs::{MemorySink, NoopSink};

    fn cfg(shards: usize) -> StreamConfig {
        StreamConfig {
            domain: 64,
            epsilon: 1.0,
            window: 32,
            shards,
            reject_threshold: 2,
            base_seed: 7,
        }
    }

    #[test]
    fn config_validation_is_typed() {
        let mut bad = cfg(1);
        bad.shards = 0;
        assert!(matches!(
            StreamService::new(bad),
            Err(StreamError::InvalidConfig { name: "shards", .. })
        ));
        let mut bad = cfg(1);
        bad.epsilon = 0.0;
        assert!(StreamService::new(bad).is_err());
    }

    #[test]
    fn out_of_domain_sample_is_a_typed_error() {
        let mut svc = StreamService::new(cfg(2)).unwrap();
        let err = svc.ingest(1, 64).unwrap_err();
        assert_eq!(
            err,
            StreamError::OutOfDomain {
                sample: 64,
                domain: 64
            }
        );
        assert_eq!(svc.pushes(), 0);
    }

    #[test]
    fn shard_placement_is_stateless() {
        let svc = StreamService::new(cfg(4)).unwrap();
        for label in 0..100 {
            assert_eq!(svc.shard_of(label), svc.shard_of(label));
            assert!(svc.shard_of(label) < 4);
        }
    }

    #[test]
    fn verdicts_are_shard_count_invariant() {
        // Mixed traffic: even streams uniform-ish, odd streams constant.
        let feed = |svc: &mut StreamService| {
            for i in 0..600u64 {
                let label = i % 6;
                let sample = if label % 2 == 0 {
                    ((i * 37 + 11) % 64) as usize
                } else {
                    5
                };
                svc.ingest(label, sample).unwrap();
            }
        };
        let mut one = StreamService::new(cfg(1)).unwrap();
        let mut many = StreamService::new(cfg(5)).unwrap();
        feed(&mut one);
        feed(&mut many);
        assert_eq!(one.verdict(), many.verdict());
        assert_eq!(one.global_verdict(), many.global_verdict());
        assert_eq!(one.merged_sketch().pairs(), many.merged_sketch().pairs());
    }

    #[test]
    fn threshold_rule_fires_on_enough_rejecting_streams() {
        let mut svc = StreamService::new(cfg(3)).unwrap();
        // Three constant streams: each window fills with one symbol.
        for label in 0..3u64 {
            for _ in 0..32 {
                svc.ingest(label, label as usize).unwrap();
            }
        }
        let v = svc.verdict();
        assert_eq!(v.value, Verdict::Far);
        assert_eq!(v.look, 0);
        // The look counter advances per call.
        assert_eq!(svc.verdict().look, 1);
    }

    #[test]
    fn observed_paths_record_and_do_not_perturb() {
        let mut plain = StreamService::new(cfg(2)).unwrap();
        let mut observed = StreamService::new(cfg(2)).unwrap();
        let mut sink = MemorySink::new();
        let mut noop = NoopSink;
        for i in 0..200u64 {
            let label = i % 4;
            let sample = ((i * 13 + 1) % 64) as usize;
            plain.ingest_observed(label, sample, &mut noop).unwrap();
            observed.ingest_observed(label, sample, &mut sink).unwrap();
        }
        assert_eq!(plain.verdict(), observed.verdict_observed(&mut sink));
        assert_eq!(sink.counter(keys::STREAM_PUSHES), 200);
        assert_eq!(sink.counter(keys::STREAM_STREAMS), 4);
        // 4 streams x 50 samples into 32-capacity windows -> evictions.
        assert_eq!(sink.counter(keys::STREAM_WINDOW_EVICTIONS), 4 * 18);
        assert_eq!(sink.counter(keys::STREAM_COORDINATOR_LOOKS), 1);
        observed.global_verdict_observed(&mut sink);
        assert_eq!(sink.counter(keys::STREAM_COORDINATOR_MERGES), 4);
    }
}
