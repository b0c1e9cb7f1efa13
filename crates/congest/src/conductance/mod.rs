//! Distributed conductance testing on the CONGEST substrate
//! (Fichtenberger–Vasudev, *Distributed Testing of Conductance*).
//!
//! A second property-testing workload on the same machinery as the
//! uniformity tester: the network decides whether its **own topology**
//! is a Φ-expander or ε-far from every Φ*-expander, using
//! O(log n / (εΦ²)) rounds of seeded lazy random walks
//! ([`walk`]) plus the leader-election / BFS-tree / convergecast /
//! broadcast pipeline the Theorem 5.1 tester already uses.
//!
//! # Protocol
//!
//! 1. **Leader + tree** — max-id flooding elects a root, a BFS tree is
//!    built from it (the same phases as token packaging).
//! 2. **Degree census** — convergecasts of `Σ deg(v)` and `Σ deg(v)²`
//!    give the root the stationary distribution's collision norm
//!    `‖π‖₂² = Σ deg²/(2m)²` — the mixed-walk baseline.
//! 3. **Walk phase** — every node launches ℓ source-labeled lazy walk
//!    tokens; after L = Θ(log k / Φ) rounds the per-source endpoint
//!    census is frozen ([`walk::WalkOutcome`]).
//! 4. **Collision statistic** — each node counts same-source resting
//!    pairs `Σ_src C(c_{v,src}, 2)`; a convergecast sums them into
//!    `S = Σ_u C(ℓ,2)·‖p_u^L‖₂²` in expectation.
//! 5. **Verdict** — on a Φ-expander every source distribution has
//!    mixed, so `E[S] ≈ k·C(ℓ,2)·‖π‖₂²`; on a graph ε-far from a
//!    Φ*-expander a constant fraction of walks stay trapped in a
//!    low-conductance part, at least doubling the endpoint collision
//!    mass. The root accepts iff `2·S·(2m)² ≤ 3·k·C(ℓ,2)·Σdeg²`
//!    (exact integer arithmetic — the 3/2 factor splits the gap) and
//!    broadcasts the [`ConductanceVerdict`].
//!
//! [`ConductanceTester::run_robust`] composes the same pipeline with
//! the coded/ARQ layer: tree phases run Justesen-coded, the degree /
//! collision aggregations use the reliable (ack/retry) convergecast
//! with outage-widened deadlines, the walk phase sends codewords, and
//! a token-conservation check converts any walk-phase loss into a
//! typed [`ConductanceError::FaultOverwhelmed`] instead of a silently
//! skewed statistic — the same honesty contract as robust packaging.
//!
//! Everything downstream of the seed is deterministic: the walk coins
//! come from a counter-keyed splitmix64 stream, so the flat and the
//! reference engines produce bit-identical walk statistics, clean or
//! faulted — see [`walk`]. Each node keeps a sparse census of the
//! sources resting on it, so the statistic and the token-conservation
//! check cost O(tokens), never O(k²).

pub mod walk;

use crate::codec::JustesenCodec;
use crate::robust::{robust_bandwidth_model, RobustStats};
use crate::tester::check_node_count;
use dut_netsim::algorithms::{
    broadcast_value_observed, build_bfs_tree, build_bfs_tree_coded, convergecast_sum_observed,
    elect_leader, elect_leader_coded, reliable_broadcast_value_coded,
    reliable_convergecast_sums_coded, BfsTree, RelMsg, RetryPolicy,
};
use dut_netsim::engine::{BandwidthModel, EngineError};
use dut_netsim::fault::FaultPlan;
use dut_netsim::graph::{ImplicitTopology, NodeId};
use dut_obs::{keys, Sink};
use walk::{run_walks, run_walks_coded, walk_bandwidth_model, WalkMsg, WalkOutcome};

/// Why a conductance plan could not be built.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConductancePlanError {
    /// The network needs at least two nodes to walk on.
    TooFewNodes {
        /// The offending node count.
        k: usize,
    },
    /// Φ must be in (0, 1).
    BadPhi {
        /// The offending conductance parameter.
        phi: f64,
    },
    /// ε must be in (0, 2].
    BadEpsilon {
        /// The offending distance parameter.
        epsilon: f64,
    },
    /// Walks per node must be at least 2 (the statistic counts pairs).
    TooFewWalks {
        /// The offending walk count.
        walks: u64,
    },
}

impl std::fmt::Display for ConductancePlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConductancePlanError::TooFewNodes { k } => {
                write!(f, "conductance testing needs k >= 2 nodes, got {k}")
            }
            ConductancePlanError::BadPhi { phi } => {
                write!(f, "conductance parameter must be in (0, 1), got {phi}")
            }
            ConductancePlanError::BadEpsilon { epsilon } => {
                write!(f, "distance parameter must be in (0, 2], got {epsilon}")
            }
            ConductancePlanError::TooFewWalks { walks } => {
                write!(f, "need at least 2 walks per node for pairs, got {walks}")
            }
        }
    }
}

impl std::error::Error for ConductancePlanError {}

/// The pipeline stage a fault overwhelmed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConductanceStage {
    /// The retry-free walk phase lost tokens (dropped or undecodable
    /// walk messages, or messages in flight to a crashed node).
    Walk,
    /// A reliable aggregation phase exhausted its retry budget.
    Collect,
}

impl std::fmt::Display for ConductanceStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConductanceStage::Walk => write!(f, "walk"),
            ConductanceStage::Collect => write!(f, "collect"),
        }
    }
}

/// A conductance run that could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConductanceError {
    /// The engine failed (round limit, bandwidth violation, unreached
    /// node, …).
    Engine(EngineError),
    /// Faults exceeded what the pipeline absorbs: the run is abandoned
    /// with a typed report instead of a silently wrong verdict.
    FaultOverwhelmed {
        /// Which stage broke.
        stage: ConductanceStage,
        /// Cumulative pipeline round the failure was detected at.
        round: usize,
        /// Units expected (walk tokens, or subtree reports).
        expected: u64,
        /// Units that survived.
        observed: u64,
    },
}

impl std::fmt::Display for ConductanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConductanceError::Engine(e) => write!(f, "engine error: {e}"),
            ConductanceError::FaultOverwhelmed {
                stage,
                round,
                expected,
                observed,
            } => write!(
                f,
                "faults overwhelmed the {stage} stage at pipeline round {round}: \
                 {observed} of {expected} survived"
            ),
        }
    }
}

impl std::error::Error for ConductanceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConductanceError::Engine(e) => Some(e),
            ConductanceError::FaultOverwhelmed { .. } => None,
        }
    }
}

impl From<EngineError> for ConductanceError {
    fn from(e: EngineError) -> Self {
        ConductanceError::Engine(e)
    }
}

/// The typed verdict of a conductance run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConductanceVerdict {
    /// The walk statistic is consistent with a Φ-expander: accepted.
    Expander,
    /// The endpoint collision mass is too high: the graph is far from
    /// every Φ*-expander: rejected.
    FarFromExpander,
}

impl ConductanceVerdict {
    /// Whether the verdict accepts (the graph looked like an expander).
    pub fn accepts(self) -> bool {
        matches!(self, ConductanceVerdict::Expander)
    }
}

/// The outcome of one conductance run.
#[derive(Debug, Clone, PartialEq)]
pub struct ConductanceRunResult {
    /// The root's (broadcast) verdict.
    pub verdict: ConductanceVerdict,
    /// The endpoint collision statistic `S` the root aggregated.
    pub collisions: u64,
    /// The acceptance threshold `1.5·k·C(ℓ,2)·Σdeg²/(2m)²` the root
    /// compared `S` against (derived value; the decision itself is
    /// exact integer arithmetic).
    pub threshold: f64,
    /// Total pipeline rounds (all phases).
    pub rounds: usize,
    /// Rounds of the walk phase alone.
    pub walk_rounds: usize,
    /// Total payload bits across all phases.
    pub bits: u64,
    /// Max bits over any directed edge in any walk round (realized
    /// congestion; the budget is the worst-case envelope).
    pub max_edge_bits: usize,
    /// Surviving walk tokens (equals `k·ℓ` on every successful run —
    /// the conservation check errors out otherwise).
    pub tokens: u64,
    /// The elected root.
    pub leader: NodeId,
    /// Height of the BFS tree (diameter proxy for the round bound).
    pub tree_height: usize,
    /// Convergecast `Σ deg(v)` (= 2·edges).
    pub sum_deg: u64,
    /// Convergecast `Σ deg(v)²`.
    pub sum_deg_sq: u64,
}

/// A planned two-sided conductance tester for a `k`-node network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConductanceTester {
    /// Network size the plan is for.
    pub k: usize,
    /// Conductance the completeness side promises (Φ).
    pub phi: f64,
    /// Distance the soundness side rejects at (ε).
    pub epsilon: f64,
    /// Walk tokens launched per node (ℓ).
    pub walks_per_node: u64,
    /// Lazy-walk length in rounds (L).
    pub walk_len: usize,
}

impl ConductanceTester {
    /// Plans the tester: ℓ = max(8, ⌈12/ε⌉) source-labeled walks per
    /// node and walk length L = max(4, ⌈ln k / Φ⌉) — the spectral-gap
    /// mixing heuristic, always inside the paper's O(log n / (εΦ²))
    /// round envelope (see [`ConductanceTester::round_bound`]).
    ///
    /// # Errors
    ///
    /// Returns a [`ConductancePlanError`] when a parameter is outside
    /// its domain.
    pub fn plan(k: usize, phi: f64, epsilon: f64) -> Result<Self, ConductancePlanError> {
        if k < 2 {
            return Err(ConductancePlanError::TooFewNodes { k });
        }
        if !(phi > 0.0 && phi < 1.0 && phi.is_finite()) {
            return Err(ConductancePlanError::BadPhi { phi });
        }
        if !(epsilon > 0.0 && epsilon <= 2.0 && epsilon.is_finite()) {
            return Err(ConductancePlanError::BadEpsilon { epsilon });
        }
        let walks_per_node = (12.0 / epsilon).ceil().max(8.0) as u64;
        let walk_len = ((k as f64).ln() / phi).ceil().max(4.0) as usize;
        Ok(ConductanceTester {
            k,
            phi,
            epsilon,
            walks_per_node,
            walk_len,
        })
    }

    /// Overrides the walk count (ℓ ≥ 2).
    ///
    /// # Errors
    ///
    /// Returns [`ConductancePlanError::TooFewWalks`] for ℓ < 2.
    pub fn with_walks(mut self, walks: u64) -> Result<Self, ConductancePlanError> {
        if walks < 2 {
            return Err(ConductancePlanError::TooFewWalks { walks });
        }
        self.walks_per_node = walks;
        Ok(self)
    }

    /// Overrides the walk length (clamped to ≥ 1).
    pub fn with_walk_len(mut self, walk_len: usize) -> Self {
        self.walk_len = walk_len.max(1);
        self
    }

    /// The paper's round envelope with Θ-constants 1:
    /// `D + ln k / (ε·Φ²)`, taking the BFS-tree height as the diameter
    /// proxy. Every successful run's `rounds` stays within a small
    /// constant of this (E16's verdict checks the ratio).
    pub fn round_bound(&self, tree_height: usize) -> f64 {
        tree_height as f64 + (self.k as f64).ln() / (self.epsilon * self.phi * self.phi)
    }

    /// Runs the plain (unfaulted) pipeline, recording metrics under the
    /// `congest.conductance.*` keys into `sink`. Observing a run never
    /// changes its result.
    ///
    /// # Errors
    ///
    /// [`ConductanceError::Engine`] on engine failures, including
    /// [`EngineError::NodeCountMismatch`] when `g` does not have exactly
    /// `k` nodes.
    pub fn run<T: ImplicitTopology>(
        &self,
        g: &T,
        seed: u64,
        sink: &mut dyn Sink,
    ) -> Result<ConductanceRunResult, ConductanceError> {
        check_node_count(g, self.k)?;
        let tree_model = self.aggregation_model();
        let ids: Vec<u64> = (0..self.k as u64).collect();

        // Phase 1: leader election + BFS tree.
        let (leader, rounds_leader) = elect_leader(g, &ids, tree_model)?;
        let (tree, rounds_bfs) = build_bfs_tree(g, leader, tree_model)?;

        // Phase 2: degree census — the root learns ‖π‖₂²'s numerator
        // and denominator exactly.
        let degs = degree_values(g);
        let deg_sqs: Vec<u64> = degs.iter().map(|&d| d * d).collect();
        let (sum_deg, cost_deg) = convergecast_sum_observed(g, &tree, &degs, tree_model, sink)?;
        let (sum_deg_sq, cost_deg_sq) =
            convergecast_sum_observed(g, &tree, &deg_sqs, tree_model, sink)?;

        // Phase 3: the walk phase.
        let walk_model = walk_bandwidth_model(self.k, self.walks_per_node);
        let outcome = run_walks(
            g,
            seed,
            self.walks_per_node,
            self.walk_len,
            walk_model,
            &FaultPlan::none(),
            sink,
        )?;
        let pre_walk_rounds = rounds_leader + rounds_bfs + cost_deg.rounds + cost_deg_sq.rounds;
        self.check_conservation(&outcome, pre_walk_rounds)?;

        // Phase 4: collision convergecast.
        let collision_values = outcome.node_collisions();
        let (collisions, cost_coll) =
            convergecast_sum_observed(g, &tree, &collision_values, tree_model, sink)?;

        // Phase 5: decide and broadcast.
        let accept = accepts(collisions, self.k, self.walks_per_node, sum_deg, sum_deg_sq);
        let (_, cost_bcast) =
            broadcast_value_observed(g, &tree, u64::from(accept), tree_model, sink)?;

        let result = self.assemble(
            accept,
            collisions,
            pre_walk_rounds + outcome.rounds + cost_coll.rounds + cost_bcast.rounds,
            &outcome,
            (cost_deg.bits + cost_deg_sq.bits + cost_coll.bits + cost_bcast.bits) as u64
                + outcome.bits,
            leader,
            &tree,
            sum_deg,
            sum_deg_sq,
        );
        record(sink, &result, false);
        Ok(result)
    }

    /// Runs the fault-hardened pipeline under `plan`: coded leader/BFS
    /// phases, reliable (ack/retry, outage-widened) aggregations with
    /// `max_retries` retransmits, Justesen codewords on every walk
    /// message, and a token-conservation check that converts walk-phase
    /// losses into a typed error. Flips below the codec radius leave the
    /// result identical to the fault-free run; crash/rejoin outages
    /// during the aggregation phases are absorbed by the widened retry
    /// deadlines. Metrics go to `sink`.
    ///
    /// # Errors
    ///
    /// [`ConductanceError::Engine`] on engine failures, including
    /// [`EngineError::NodeCountMismatch`] when `g` does not have exactly
    /// `k` nodes; [`ConductanceError::FaultOverwhelmed`] when drops (or
    /// flips beyond the codec radius, or an outage intersecting token
    /// traffic) cost the walk phase tokens, or when a reliable
    /// aggregation exhausted its retry budget.
    pub fn run_robust<T: ImplicitTopology>(
        &self,
        g: &T,
        seed: u64,
        plan: &FaultPlan,
        max_retries: usize,
        sink: &mut dyn Sink,
    ) -> Result<(ConductanceRunResult, RobustStats), ConductanceError> {
        check_node_count(g, self.k)?;
        let tree_model = robust_bandwidth_model();
        let ids: Vec<u64> = (0..self.k as u64).collect();
        let mut stats = RobustStats::default();
        let compact_codec = JustesenCodec::<dut_netsim::engine::Compact>::new();

        // Phase 1: coded leader election + BFS tree.
        let (leader, rounds_leader, leader_stats) =
            elect_leader_coded(g, &ids, tree_model, plan, compact_codec.clone())?;
        stats.absorb_codec(leader_stats);
        let (tree, rounds_bfs, bfs_stats) =
            build_bfs_tree_coded(g, leader, tree_model, plan, compact_codec)?;
        stats.absorb_codec(bfs_stats);
        let policy =
            RetryPolicy::for_tree(&tree, max_retries).allowing_outage(plan.max_outage_rounds());

        // Phase 2: reliable degree census.
        let degs = degree_values(g);
        let deg_sqs: Vec<u64> = degs.iter().map(|&d| d * d).collect();
        let mut pipeline_round = rounds_leader + rounds_bfs;
        let (sum_deg, sum_deg_sq);
        let mut agg_bits = 0u64;
        {
            let (sums, cost, cstats) = reliable_convergecast_sums_coded(
                g,
                &tree,
                &degs,
                tree_model,
                plan,
                policy,
                JustesenCodec::<RelMsg>::new(),
                sink,
            )?;
            stats.absorb_codec(cstats);
            stats.retransmits += cost.retransmits;
            stats.failures += cost.failures;
            pipeline_round += cost.rounds;
            agg_bits += cost.bits as u64;
            check_collect(cost.failures, self.k, pipeline_round)?;
            sum_deg = sums[tree.root];
        }
        {
            let (sums, cost, cstats) = reliable_convergecast_sums_coded(
                g,
                &tree,
                &deg_sqs,
                tree_model,
                plan,
                policy,
                JustesenCodec::<RelMsg>::new(),
                sink,
            )?;
            stats.absorb_codec(cstats);
            stats.retransmits += cost.retransmits;
            stats.failures += cost.failures;
            pipeline_round += cost.rounds;
            agg_bits += cost.bits as u64;
            check_collect(cost.failures, self.k, pipeline_round)?;
            sum_deg_sq = sums[tree.root];
        }

        // Phase 3: the coded walk phase. Retry-free — losses surface in
        // the conservation check, never in a skewed statistic.
        let walk_codec = JustesenCodec::<WalkMsg>::new();
        let walk_model = walk::walk_coded_bandwidth_model(self.k, walk_codec.output_bits());
        let (outcome, walk_stats) = run_walks_coded(
            g,
            seed,
            self.walks_per_node,
            self.walk_len,
            walk_model,
            plan,
            walk_codec,
            sink,
        )?;
        stats.absorb_codec(walk_stats);
        self.check_conservation(&outcome, pipeline_round)?;
        pipeline_round += outcome.rounds;

        // Phase 4: reliable collision convergecast.
        let collision_values = outcome.node_collisions();
        let collisions;
        {
            let (sums, cost, cstats) = reliable_convergecast_sums_coded(
                g,
                &tree,
                &collision_values,
                tree_model,
                plan,
                policy,
                JustesenCodec::<RelMsg>::new(),
                sink,
            )?;
            stats.absorb_codec(cstats);
            stats.retransmits += cost.retransmits;
            stats.failures += cost.failures;
            pipeline_round += cost.rounds;
            agg_bits += cost.bits as u64;
            check_collect(cost.failures, self.k, pipeline_round)?;
            collisions = sums[tree.root];
        }

        // Phase 5: decide; reliable verdict broadcast.
        let accept = accepts(collisions, self.k, self.walks_per_node, sum_deg, sum_deg_sq);
        let (_, cost_bcast, bstats) = reliable_broadcast_value_coded(
            g,
            &tree,
            u64::from(accept),
            tree_model,
            plan,
            policy,
            JustesenCodec::<RelMsg>::new(),
            sink,
        )?;
        stats.absorb_codec(bstats);
        stats.retransmits += cost_bcast.retransmits;
        stats.failures += cost_bcast.failures;
        pipeline_round += cost_bcast.rounds;
        agg_bits += cost_bcast.bits as u64;

        let result = self.assemble(
            accept,
            collisions,
            pipeline_round,
            &outcome,
            agg_bits + outcome.bits,
            leader,
            &tree,
            sum_deg,
            sum_deg_sq,
        );
        record(sink, &result, true);
        if sink.enabled() {
            sink.add(keys::CONGEST_ECC_CORRECTED_BITS, stats.corrected_bits);
            sink.add(keys::CONGEST_ECC_DECODE_FAILURES, stats.decode_failures);
            sink.add(keys::CONGEST_ROBUST_RETRANSMITS, stats.retransmits);
            sink.add(keys::CONGEST_ROBUST_FAILURES, stats.failures);
        }
        Ok((result, stats))
    }

    /// The per-edge budget of the tree phases. The largest aggregate on
    /// the wire is a partial sum of either `Σ deg²` (≤ k³) or collision
    /// counts (≤ C(k·ℓ, 2) < (k·ℓ)²), so `2·bitlen(max(k³, (k·ℓ)²))` =
    /// O(log k + log ℓ) bits per edge — the same Θ(log n) envelope as
    /// [`BandwidthModel::congest_for`], with the doubling as slack for
    /// the protocols' control fields.
    fn aggregation_model(&self) -> BandwidthModel {
        let k = self.k as u128;
        let kl = k * u128::from(self.walks_per_node);
        let bound = (k * k * k).max(kl * kl);
        let bits = 2 * (128 - bound.leading_zeros()) as usize;
        BandwidthModel::Congest {
            bits_per_edge: bits.max(2),
        }
    }

    fn check_conservation(
        &self,
        outcome: &WalkOutcome,
        pipeline_round: usize,
    ) -> Result<(), ConductanceError> {
        let expected = self.k as u64 * self.walks_per_node;
        let observed = outcome.total_tokens();
        if observed != expected {
            return Err(ConductanceError::FaultOverwhelmed {
                stage: ConductanceStage::Walk,
                round: pipeline_round + outcome.rounds,
                expected,
                observed: observed.min(expected),
            });
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        &self,
        accept: bool,
        collisions: u64,
        rounds: usize,
        outcome: &WalkOutcome,
        bits: u64,
        leader: NodeId,
        tree: &BfsTree,
        sum_deg: u64,
        sum_deg_sq: u64,
    ) -> ConductanceRunResult {
        let pairs = self.walks_per_node * (self.walks_per_node - 1) / 2;
        let two_m = sum_deg as f64;
        let threshold = if two_m > 0.0 {
            1.5 * self.k as f64 * pairs as f64 * sum_deg_sq as f64 / (two_m * two_m)
        } else {
            0.0
        };
        ConductanceRunResult {
            verdict: if accept {
                ConductanceVerdict::Expander
            } else {
                ConductanceVerdict::FarFromExpander
            },
            collisions,
            threshold,
            rounds,
            walk_rounds: outcome.rounds,
            bits,
            max_edge_bits: outcome.max_edge_bits,
            tokens: outcome.total_tokens(),
            leader,
            tree_height: tree.height,
            sum_deg,
            sum_deg_sq,
        }
    }
}

/// The root's decision rule in exact integer arithmetic:
/// accept iff `S ≤ 1.5·k·C(ℓ,2)·Σdeg²/(2m)²`, cross-multiplied so no
/// float ever enters the verdict.
fn accepts(collisions: u64, k: usize, walks_per_node: u64, sum_deg: u64, sum_deg_sq: u64) -> bool {
    let pairs = u128::from(walks_per_node) * u128::from(walks_per_node - 1) / 2;
    let lhs = 2 * u128::from(collisions) * u128::from(sum_deg) * u128::from(sum_deg);
    let rhs = 3 * (k as u128) * pairs * u128::from(sum_deg_sq);
    lhs <= rhs
}

fn degree_values<T: ImplicitTopology>(g: &T) -> Vec<u64> {
    let mut buf = Vec::new();
    (0..g.node_count())
        .map(|v| g.neighbors(v, &mut buf).len() as u64)
        .collect()
}

fn check_collect(failures: u64, k: usize, round: usize) -> Result<(), ConductanceError> {
    if failures > 0 {
        let expected = (k - 1) as u64;
        return Err(ConductanceError::FaultOverwhelmed {
            stage: ConductanceStage::Collect,
            round,
            expected,
            observed: expected.saturating_sub(failures),
        });
    }
    Ok(())
}

fn record(sink: &mut dyn Sink, result: &ConductanceRunResult, robust: bool) {
    if !sink.enabled() {
        return;
    }
    sink.add(keys::CONGEST_CONDUCTANCE_RUNS, 1);
    if robust {
        sink.add(keys::CONGEST_CONDUCTANCE_ROBUST_RUNS, 1);
    }
    sink.add(keys::CONGEST_CONDUCTANCE_ROUNDS, result.rounds as u64);
    sink.add(
        keys::CONGEST_CONDUCTANCE_WALK_ROUNDS,
        result.walk_rounds as u64,
    );
    sink.add(keys::CONGEST_CONDUCTANCE_BITS, result.bits);
    sink.add(keys::CONGEST_CONDUCTANCE_TOKENS, result.tokens);
    sink.add(keys::CONGEST_CONDUCTANCE_COLLISIONS, result.collisions);
    sink.add(
        keys::CONGEST_CONDUCTANCE_ACCEPTS,
        u64::from(result.verdict.accepts()),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use dut_netsim::topology::{bridged_cliques, complete, MargulisExpander};
    use dut_obs::NoopSink;

    #[test]
    fn plan_rejects_bad_parameters() {
        assert_eq!(
            ConductanceTester::plan(1, 0.1, 0.5),
            Err(ConductancePlanError::TooFewNodes { k: 1 })
        );
        assert!(matches!(
            ConductanceTester::plan(8, 0.0, 0.5),
            Err(ConductancePlanError::BadPhi { .. })
        ));
        assert!(matches!(
            ConductanceTester::plan(8, 1.5, 0.5),
            Err(ConductancePlanError::BadPhi { .. })
        ));
        assert!(matches!(
            ConductanceTester::plan(8, 0.1, 0.0),
            Err(ConductancePlanError::BadEpsilon { .. })
        ));
        assert!(matches!(
            ConductanceTester::plan(8, 0.1, 3.0),
            Err(ConductancePlanError::BadEpsilon { .. })
        ));
        let t = ConductanceTester::plan(8, 0.1, 0.5).unwrap();
        assert!(matches!(
            t.with_walks(1),
            Err(ConductancePlanError::TooFewWalks { walks: 1 })
        ));
    }

    #[test]
    fn plan_heuristics_scale_as_documented() {
        let t = ConductanceTester::plan(64, 0.05, 0.5).unwrap();
        assert_eq!(t.walks_per_node, 24); // ceil(12 / 0.5)
        assert_eq!(t.walk_len, 84); // ceil(ln 64 / 0.05)
        let loose = ConductanceTester::plan(4, 0.9, 2.0).unwrap();
        assert_eq!(loose.walks_per_node, 8); // floor of the max()
        assert_eq!(loose.walk_len, 4);
    }

    #[test]
    fn integer_decision_rule_matches_float_threshold() {
        // S = 100, k = 10, l = 5 (pairs = 10), sum_deg = 40,
        // sum_deg_sq = 180: threshold = 1.5*10*10*180/1600 = 16.875.
        assert!(!accepts(100, 10, 5, 40, 180));
        assert!(accepts(16, 10, 5, 40, 180));
        // Exactly at the threshold accepts (<=): 2*S*1600 == 3*10*10*180
        // when S = 54000/3200 = 16.875 -- not integral, so probe the
        // boundary on a cleaner instance: k=2, l=2 (pairs 1),
        // sum_deg=2, sum_deg_sq=2 -> accept iff 8*S <= 12, S <= 1.
        assert!(accepts(1, 2, 2, 2, 2));
        assert!(!accepts(2, 2, 2, 2, 2));
    }

    #[test]
    fn accepts_margulis_expander() {
        let g = MargulisExpander::new(6).materialize();
        let t = ConductanceTester::plan(36, 0.1, 0.5).unwrap();
        let r = t.run(&g, 0xE16, &mut NoopSink).unwrap();
        assert!(r.verdict.accepts(), "expander rejected: {r:?}");
        assert_eq!(r.tokens, 36 * t.walks_per_node);
        assert!((r.collisions as f64) < r.threshold);
        assert!(r.rounds as f64 <= 1.5 * t.round_bound(r.tree_height));
    }

    #[test]
    fn rejects_bridged_cliques() {
        let g = bridged_cliques(36);
        let t = ConductanceTester::plan(36, 0.1, 0.5).unwrap();
        let r = t.run(&g, 0xE16, &mut NoopSink).unwrap();
        assert!(!r.verdict.accepts(), "far instance accepted: {r:?}");
        assert!((r.collisions as f64) > r.threshold);
    }

    #[test]
    fn accepts_complete_graph() {
        // The best-conductance graph there is.
        let g = complete(24);
        let t = ConductanceTester::plan(24, 0.2, 0.5).unwrap();
        let r = t.run(&g, 7, &mut NoopSink).unwrap();
        assert!(r.verdict.accepts(), "clique rejected: {r:?}");
    }

    #[test]
    fn verdict_is_seed_stable_across_nearby_seeds() {
        let exp = MargulisExpander::new(6).materialize();
        let far = bridged_cliques(36);
        let t = ConductanceTester::plan(36, 0.1, 0.5).unwrap();
        for seed in 0..8u64 {
            assert!(
                t.run(&exp, seed, &mut NoopSink).unwrap().verdict.accepts(),
                "seed {seed}"
            );
            assert!(
                !t.run(&far, seed, &mut NoopSink).unwrap().verdict.accepts(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn robust_fault_free_matches_plain() {
        let g = MargulisExpander::new(6).materialize();
        let t = ConductanceTester::plan(36, 0.1, 0.5).unwrap();
        let plain = t.run(&g, 3, &mut NoopSink).unwrap();
        let (robust, stats) = t
            .run_robust(&g, 3, &FaultPlan::none(), 3, &mut NoopSink)
            .unwrap();
        assert_eq!(robust.verdict, plain.verdict);
        assert_eq!(robust.collisions, plain.collisions);
        assert_eq!(robust.tokens, plain.tokens);
        assert_eq!(robust.sum_deg, plain.sum_deg);
        assert_eq!(robust.sum_deg_sq, plain.sum_deg_sq);
        assert_eq!(stats.decode_failures, 0);
        assert_eq!(stats.failures, 0);
    }

    #[test]
    fn walk_phase_drops_surface_as_typed_error() {
        let g = bridged_cliques(16);
        let t = ConductanceTester::plan(16, 0.1, 0.5).unwrap();
        // A heavy drop plan on the plain walk phase: tokens vanish, and
        // the conservation check must refuse to produce a verdict.
        let plan = FaultPlan::seeded(11).with_drops(0.05);
        let model = walk_bandwidth_model(16, t.walks_per_node);
        let outcome = run_walks(
            &g,
            5,
            t.walks_per_node,
            t.walk_len,
            model,
            &plan,
            &mut NoopSink,
        )
        .unwrap();
        let err = t
            .check_conservation(&outcome, 0)
            .expect_err("token loss must not yield a verdict");
        match err {
            ConductanceError::FaultOverwhelmed {
                stage,
                expected,
                observed,
                ..
            } => {
                assert_eq!(stage, ConductanceStage::Walk);
                assert_eq!(expected, 16 * t.walks_per_node);
                assert!(observed < expected);
            }
            other => panic!("wrong error: {other}"),
        }
        let msg = format!(
            "{}",
            ConductanceError::FaultOverwhelmed {
                stage: ConductanceStage::Walk,
                round: 9,
                expected: 4,
                observed: 3,
            }
        );
        assert!(msg.contains("walk stage"), "{msg}");
    }

    #[test]
    fn graph_size_mismatch_is_typed_error() {
        let g = complete(8);
        let t = ConductanceTester::plan(9, 0.1, 0.5).unwrap();
        let want = ConductanceError::Engine(EngineError::NodeCountMismatch {
            graph_nodes: 8,
            states: 9,
        });
        assert_eq!(t.run(&g, 0, &mut NoopSink).unwrap_err(), want);
        assert_eq!(
            t.run_robust(&g, 0, &FaultPlan::none(), 4, &mut NoopSink)
                .unwrap_err(),
            want
        );
    }
}
