//! The τ-token-packaging problem (Definition 2, Theorem 5.1).
//!
//! Every node starts with one or more tokens (its samples). The network
//! must output multisets ("packages") of exactly τ tokens, with every
//! token in at most one package and at most τ−1 tokens left unpackaged.
//!
//! The paper's algorithm: build a BFS tree from the max-id leader;
//! compute, bottom-up, the residue `c(v) = (tokens(v) + Σ c(child)) mod τ`
//! each node must forward; then pipeline tokens up the tree — each node
//! forwards the first `c(v)` tokens it handles and keeps the rest, so
//! after `O(D + τ)` rounds every node holds a multiple of τ tokens. The
//! root discards its own residue `c(root) < τ`.

use dut_netsim::algorithms::bfs::{build_bfs_tree, BfsTree};
use dut_netsim::algorithms::leader::elect_leader;
use dut_netsim::engine::{BandwidthModel, Compact, EngineError, Network, NodeProtocol, Outbox};
use dut_netsim::fault::FaultPlan;
use dut_netsim::graph::{ImplicitTopology, NodeId};
use dut_obs::NoopSink;
use std::collections::VecDeque;

/// Bottom-up residue computation: like a convergecast, but each node
/// retains `c(v) = (own_tokens + Σ c(child)) mod τ` and forwards `c(v)`.
#[derive(Debug, Clone, PartialEq)]
struct ResidueNode {
    parent: Option<NodeId>,
    expected_children: usize,
    received: usize,
    own_tokens: u64,
    tau: u64,
    c: Option<u64>,
    acc: u64,
}

impl NodeProtocol for ResidueNode {
    type Msg = Compact;

    fn on_round(
        &mut self,
        _node: NodeId,
        _round: usize,
        inbox: &[(NodeId, Compact)],
        out: &mut Outbox<'_, Compact>,
    ) {
        for &(_, Compact(v)) in inbox {
            self.acc += v;
            self.received += 1;
        }
        if self.c.is_none() && self.received == self.expected_children {
            let c = (self.own_tokens + self.acc) % self.tau;
            self.c = Some(c);
            if let Some(p) = self.parent {
                out.send(p, Compact(c));
            }
        }
    }

    fn is_done(&self) -> bool {
        self.c.is_some()
    }

    fn wants_round(&self) -> bool {
        // The residue is sent once, on the step the last child report
        // arrives (round 0 for a leaf).
        false
    }
}

/// The pipelined token-forwarding phase: each node forwards one token per
/// round toward its parent until it has forwarded `c(v)` tokens, keeping
/// everything else. The root "forwards" by discarding.
///
/// `pub(crate)` so the robust pipeline can re-run this phase through an
/// error-correcting codec.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ForwardNode {
    parent: Option<NodeId>,
    /// Tokens to forward up (the residue `c(v)`).
    quota: u64,
    sent: u64,
    buffer: VecDeque<u64>,
    /// Tokens this node keeps (its packages are cut from these).
    kept: Vec<u64>,
    /// Tokens the root discarded (root only; for accounting).
    discarded: u64,
    /// Whether the quota has been fully sent *and* the keep-decision for
    /// buffered tokens has been flushed.
    flushed: bool,
}

impl NodeProtocol for ForwardNode {
    type Msg = Compact;

    fn on_round(
        &mut self,
        _node: NodeId,
        _round: usize,
        inbox: &[(NodeId, Compact)],
        out: &mut Outbox<'_, Compact>,
    ) {
        for &(_, Compact(t)) in inbox {
            self.buffer.push_back(t);
        }
        if self.sent < self.quota {
            if let Some(t) = self.buffer.pop_front() {
                match self.parent {
                    Some(p) => out.send(p, Compact(t)),
                    None => self.discarded += 1,
                }
                self.sent += 1;
            }
        }
        if self.sent == self.quota {
            // Quota met: everything still buffered is kept.
            self.kept
                .append(&mut Vec::from(std::mem::take(&mut self.buffer)));
            self.flushed = true;
        }
    }

    fn is_done(&self) -> bool {
        self.flushed
    }

    fn wants_round(&self) -> bool {
        // A token still owed to the parent goes up next round; an empty
        // buffer waits for mail, and a flushed node keeps what arrives.
        !self.flushed && !self.buffer.is_empty()
    }
}

/// Round budget for the forwarding phase: `O(τ + height)` with slack.
pub(crate) fn forward_round_limit(tau: usize, tree: &BfsTree) -> usize {
    2 * (tau + tree.height + 4) + 8
}

/// Initial forwarding states for quota vector `quotas` (shared between
/// the plain and the coded/robust pipelines).
pub(crate) fn forward_states(
    tree: &BfsTree,
    tokens: &[Vec<u64>],
    quotas: &[u64],
) -> Vec<ForwardNode> {
    (0..tokens.len())
        .map(|v| ForwardNode {
            parent: tree.parent[v],
            quota: quotas[v],
            sent: 0,
            buffer: tokens[v].iter().copied().collect(),
            kept: Vec::new(),
            discarded: 0,
            flushed: false,
        })
        .collect()
}

/// Token-conservation check for the fault-injected forwarding phase:
/// every token must end up either kept at some node or discarded at the
/// root. A dropped forwarding message loses its token in flight — the
/// starved node can still flush (its own quota is met) and the network
/// quiesces with a partial group somewhere, so the robust pipeline must
/// count losses *before* cutting packages. A fault-free run never loses
/// tokens. Returns the number of tokens lost; `total` is the token
/// count the network started with.
pub(crate) fn tokens_lost<'a>(nodes: impl Iterator<Item = &'a ForwardNode>, total: usize) -> usize {
    let accounted: usize = nodes.map(|n| n.kept.len() + n.discarded as usize).sum();
    total - accounted
}

/// Cuts each node's kept tokens into packages of exactly `tau` and sums
/// the root's discards (shared between the plain and robust pipelines).
pub(crate) fn cut_packages<'a>(
    nodes: impl Iterator<Item = &'a ForwardNode>,
    tau: usize,
) -> (Vec<(NodeId, Vec<u64>)>, usize) {
    let mut packages = Vec::new();
    let mut discarded = 0usize;
    for (v, node) in nodes.enumerate() {
        discarded += node.discarded as usize;
        debug_assert_eq!(
            node.kept.len() % tau,
            0,
            "node {v} kept {} tokens, not a multiple of tau={tau}",
            node.kept.len()
        );
        for chunk in node.kept.chunks_exact(tau) {
            packages.push((v, chunk.to_vec()));
        }
    }
    (packages, discarded)
}

/// Why a token-packaging run could not be performed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackagingError {
    /// `tau == 0`: packages of size zero are not meaningful (Definition 2
    /// requires multisets of exactly τ ≥ 1 tokens).
    ZeroTau,
    /// `tokens` or `ids` does not provide exactly one entry per node.
    LengthMismatch {
        /// Nodes in the graph.
        nodes: usize,
        /// Entries in `tokens`.
        tokens: usize,
        /// Entries in `ids`.
        ids: usize,
    },
    /// The underlying protocol run failed (empty or disconnected graph,
    /// CONGEST budget violation, round-limit exhaustion).
    Engine(EngineError),
    /// Faults exceeded what the robust pipeline can absorb: either the
    /// reliable residue phase gave up on `failures` subtree reports
    /// despite retries (quotas would be inconsistent), or the
    /// forwarding phase lost `failures` tokens in flight (packages
    /// would come out short). The context fields locate the frontier:
    /// which stage broke, how deep into the pipeline, and how much of
    /// the stage's conserved quantity survived.
    FaultOverwhelmed {
        /// Deliveries lost for good: subtree reports the retry budget
        /// could not recover, or tokens dropped during forwarding.
        failures: u64,
        /// The pipeline stage whose conservation check failed.
        stage: RobustStage,
        /// Cumulative pipeline round (across all phases) at which the
        /// failing stage finished.
        round: usize,
        /// Units the stage had to deliver: subtree reports
        /// ([`RobustStage::Residue`]) or tokens
        /// ([`RobustStage::Forwarding`]).
        expected: u64,
        /// Units that actually survived the stage.
        observed: u64,
    },
}

/// The robust-pipeline stage a [`PackagingError::FaultOverwhelmed`]
/// report points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RobustStage {
    /// The reliable (ack/retry) residue convergecast: the retry budget
    /// gave up on one or more subtree token-count reports.
    Residue,
    /// Pipelined token forwarding: tokens were dropped in flight and
    /// the conservation check caught the shortfall.
    Forwarding,
}

impl std::fmt::Display for RobustStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RobustStage::Residue => write!(f, "residue"),
            RobustStage::Forwarding => write!(f, "forwarding"),
        }
    }
}

impl std::fmt::Display for PackagingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackagingError::ZeroTau => write!(f, "package size tau must be at least 1"),
            PackagingError::LengthMismatch { nodes, tokens, ids } => write!(
                f,
                "input lengths mismatch: {nodes} nodes but {tokens} token lists and {ids} ids"
            ),
            PackagingError::Engine(e) => write!(f, "packaging protocol failed: {e}"),
            PackagingError::FaultOverwhelmed {
                failures,
                stage,
                round,
                expected,
                observed,
            } => write!(
                f,
                "faults overwhelmed the robust pipeline at the {stage} stage \
                 (pipeline round {round}): {failures} deliveries lost for good, \
                 {observed}/{expected} units survived"
            ),
        }
    }
}

impl std::error::Error for PackagingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PackagingError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for PackagingError {
    fn from(e: EngineError) -> Self {
        PackagingError::Engine(e)
    }
}

/// The output of token packaging.
#[derive(Debug, Clone)]
pub struct PackagingResult {
    /// The packages: `(owner node, tokens)`, each of size exactly τ.
    pub packages: Vec<(NodeId, Vec<u64>)>,
    /// Tokens discarded at the root (≤ τ−1 by Theorem 5.1).
    pub discarded: usize,
    /// Total rounds used across all phases (leader election, BFS,
    /// residue computation, forwarding).
    pub rounds: usize,
    /// Total bits sent across all phases.
    pub bits: usize,
    /// The BFS tree used (for reuse by the tester's aggregation phase).
    pub tree: BfsTree,
    /// The elected leader (BFS root).
    pub leader: NodeId,
}

/// Solves τ-token packaging on `g`, where node `v` starts with
/// `tokens[v]` tokens (sample values in `[0, n)`).
///
/// `ids[v]` are the node identifiers used for leader election (random
/// from a large namespace in an anonymous network; must have a unique
/// maximum).
///
/// # Errors
///
/// Returns [`PackagingError::ZeroTau`] if `tau == 0`,
/// [`PackagingError::LengthMismatch`] if `tokens` or `ids` does not
/// match the node count, and [`PackagingError::Engine`] for protocol
/// failures (empty or disconnected graph, CONGEST violations).
pub fn solve_token_packaging<T: ImplicitTopology>(
    g: &T,
    tokens: &[Vec<u64>],
    ids: &[u64],
    tau: usize,
    model: BandwidthModel,
) -> Result<PackagingResult, PackagingError> {
    if tau == 0 {
        return Err(PackagingError::ZeroTau);
    }
    let k = g.node_count();
    if tokens.len() != k || ids.len() != k {
        return Err(PackagingError::LengthMismatch {
            nodes: k,
            tokens: tokens.len(),
            ids: ids.len(),
        });
    }

    // Phase 1: leader election (max id).
    let (leader, rounds_leader) = elect_leader(g, ids, model)?;
    // Phase 2: BFS tree from the leader.
    let (tree, rounds_bfs) = build_bfs_tree(g, leader, model)?;

    // Phase 3: residue computation up the tree.
    let residue_states: Vec<ResidueNode> = (0..k)
        .map(|v| ResidueNode {
            parent: tree.parent[v],
            expected_children: tree.children[v].len(),
            received: 0,
            own_tokens: tokens[v].len() as u64,
            tau: tau as u64,
            c: None,
            acc: 0,
        })
        .collect();
    let residue_report =
        Network::new(g, model).run(residue_states, 2 * k + 4, &FaultPlan::none(), &mut NoopSink)?;
    // Unreachable expect: `ResidueNode::is_done` is `c.is_some()`, and the
    // engine only returns a successful report once every node is done.
    let quotas: Vec<u64> = residue_report
        .nodes
        .iter()
        .map(|n| n.c.expect("residue computed at every node"))
        .collect();

    // Phase 4: pipelined forwarding for ~τ + height rounds.
    let states = forward_states(&tree, tokens, &quotas);
    let max_rounds = forward_round_limit(tau, &tree);
    let forward_report =
        Network::new(g, model).run(states, max_rounds, &FaultPlan::none(), &mut NoopSink)?;

    // Cut each node's kept tokens into packages of exactly τ.
    let (packages, discarded) = cut_packages(forward_report.nodes.iter(), tau);

    Ok(PackagingResult {
        packages,
        discarded,
        rounds: rounds_leader + rounds_bfs + residue_report.rounds + forward_report.rounds,
        bits: residue_report.total_bits + forward_report.total_bits,
        tree,
        leader,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dut_netsim::algorithms::reference_check;
    use dut_netsim::graph::Graph;
    use dut_netsim::topology;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    fn run_packaging(g: &Graph, tau: usize, tokens_per_node: usize, seed: u64) -> PackagingResult {
        let k = g.node_count();
        let mut rng = StdRng::seed_from_u64(seed);
        // Unique token values so we can check the "at most one package"
        // requirement exactly.
        let mut next = 0u64;
        let tokens: Vec<Vec<u64>> = (0..k)
            .map(|_| {
                (0..tokens_per_node)
                    .map(|_| {
                        next += 1;
                        next
                    })
                    .collect()
            })
            .collect();
        let ids: Vec<u64> = {
            let mut ids: Vec<u64> = (0..k as u64).collect();
            // shuffle so the leader is not always node k-1
            for i in (1..k).rev() {
                let j = rng.gen_range(0..=i);
                ids.swap(i, j);
            }
            ids
        };
        solve_token_packaging(g, &tokens, &ids, tau, BandwidthModel::Local).unwrap()
    }

    fn check_definition_2(result: &PackagingResult, total_tokens: usize, tau: usize) {
        // (1) every package has size exactly tau
        for (_, p) in &result.packages {
            assert_eq!(p.len(), tau);
        }
        // (2) each token in at most one package
        let mut seen = HashMap::new();
        for (_, p) in &result.packages {
            for &t in p {
                *seen.entry(t).or_insert(0) += 1;
            }
        }
        assert!(seen.values().all(|&c| c == 1), "token duplicated");
        // (3) all but at most tau-1 tokens packaged
        let packaged = result.packages.len() * tau;
        assert!(
            total_tokens - packaged < tau,
            "{} of {} tokens unpackaged (tau = {tau})",
            total_tokens - packaged,
            total_tokens
        );
        assert_eq!(total_tokens - packaged, result.discarded);
    }

    #[test]
    fn packaging_on_line() {
        let g = topology::line(20);
        let r = run_packaging(&g, 4, 1, 1);
        check_definition_2(&r, 20, 4);
        assert_eq!(r.packages.len(), 5);
    }

    #[test]
    fn packaging_on_star() {
        let g = topology::star(33);
        let r = run_packaging(&g, 8, 1, 2);
        check_definition_2(&r, 33, 8);
        assert_eq!(r.packages.len(), 4);
    }

    #[test]
    fn packaging_all_topologies_and_taus() {
        let mut rng = StdRng::seed_from_u64(3);
        for t in topology::Topology::ALL {
            let g = t.instantiate(40, &mut rng);
            let k = g.node_count();
            for tau in [1usize, 2, 3, 7, 13] {
                let r = run_packaging(&g, tau, 1, 17);
                check_definition_2(&r, k, tau);
            }
        }
    }

    #[test]
    fn packaging_with_multiple_tokens_per_node() {
        let g = topology::grid(5, 5);
        let r = run_packaging(&g, 6, 3, 4);
        check_definition_2(&r, 75, 6);
    }

    #[test]
    fn packaging_tau_one_packages_everything() {
        let g = topology::ring(11);
        let r = run_packaging(&g, 1, 1, 5);
        check_definition_2(&r, 11, 1);
        assert_eq!(r.packages.len(), 11);
        assert_eq!(r.discarded, 0);
    }

    #[test]
    fn packaging_tau_larger_than_network() {
        // With tau > total tokens, nothing can be packaged; everything
        // funnels to the root and is discarded (c(root) = k mod tau = k).
        let g = topology::line(5);
        let r = run_packaging(&g, 9, 1, 6);
        assert_eq!(r.packages.len(), 0);
        assert_eq!(r.discarded, 5);
    }

    #[test]
    fn packaging_rounds_scale_with_d_plus_tau() {
        // Theorem 5.1: O(D + tau) rounds. Measure both regimes.
        let g_line = topology::line(60); // D = 59, tau small
        let r1 = run_packaging(&g_line, 3, 1, 7);
        assert!(
            r1.rounds <= 6 * (59 + 3) + 20,
            "line rounds {} too large",
            r1.rounds
        );
        let g_star = topology::star(60); // D = 2, tau large
        let r2 = run_packaging(&g_star, 30, 1, 8);
        assert!(
            r2.rounds <= 6 * (2 + 30) + 20,
            "star rounds {} too large",
            r2.rounds
        );
    }

    #[test]
    fn packaging_fits_congest_budget() {
        let g = topology::grid(6, 6);
        let k = g.node_count();
        let tokens: Vec<Vec<u64>> = (0..k as u64).map(|v| vec![v]).collect();
        let ids: Vec<u64> = (0..k as u64).collect();
        // Tokens are sample values < 2^20; ids < k. Budget for a 2^20
        // domain comfortably holds one token per round.
        let model = BandwidthModel::Congest { bits_per_edge: 64 };
        let r = solve_token_packaging(&g, &tokens, &ids, 5, model).unwrap();
        for (_, p) in &r.packages {
            assert_eq!(p.len(), 5);
        }
    }

    #[test]
    fn packaging_tau_zero_is_a_typed_error() {
        let g = topology::line(4);
        let tokens: Vec<Vec<u64>> = (0..4).map(|v| vec![v as u64]).collect();
        let ids: Vec<u64> = (0..4).collect();
        let err = solve_token_packaging(&g, &tokens, &ids, 0, BandwidthModel::Local).unwrap_err();
        assert_eq!(err, PackagingError::ZeroTau);
    }

    #[test]
    fn packaging_length_mismatch_is_a_typed_error() {
        let g = topology::line(4);
        let tokens: Vec<Vec<u64>> = (0..3).map(|v| vec![v as u64]).collect();
        let ids: Vec<u64> = (0..4).collect();
        let err = solve_token_packaging(&g, &tokens, &ids, 2, BandwidthModel::Local).unwrap_err();
        assert_eq!(
            err,
            PackagingError::LengthMismatch {
                nodes: 4,
                tokens: 3,
                ids: 4,
            }
        );
    }

    #[test]
    fn packaging_on_disconnected_graph_is_a_typed_error() {
        // Two components: the leader's BFS flood stabilizes without
        // reaching the far side, so packaging reports the unreached node
        // instead of timing out or panicking.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let tokens: Vec<Vec<u64>> = (0..6).map(|v| vec![v as u64]).collect();
        let ids: Vec<u64> = vec![9, 1, 2, 3, 4, 5]; // leader in component {0,1,2}
        let err = solve_token_packaging(&g, &tokens, &ids, 2, BandwidthModel::Local).unwrap_err();
        assert_eq!(
            err,
            PackagingError::Engine(EngineError::Unreached { node: 3 })
        );
    }

    #[test]
    fn packaging_on_empty_graph_is_a_typed_error() {
        let g = Graph::from_edges(0, &[]);
        let err = solve_token_packaging(&g, &[], &[], 2, BandwidthModel::Local).unwrap_err();
        assert_eq!(err, PackagingError::Engine(EngineError::EmptyNetwork));
    }

    #[test]
    fn packaging_on_single_node_graph_works() {
        // K_1: the node is its own leader and root; its c = tokens mod τ
        // is discarded and the rest packaged locally.
        let g = Graph::from_edges(1, &[]);
        let tokens = vec![vec![10u64, 11, 12, 13, 14]];
        let ids = vec![7u64];
        let r = solve_token_packaging(&g, &tokens, &ids, 2, BandwidthModel::Local).unwrap();
        check_definition_2(&r, 5, 2);
        assert_eq!(r.packages.len(), 2);
        assert_eq!(r.discarded, 1);
        assert_eq!(r.leader, 0);
    }

    #[test]
    fn leader_is_max_id() {
        let g = topology::line(9);
        let tokens: Vec<Vec<u64>> = (0..9).map(|v| vec![v as u64]).collect();
        let mut ids: Vec<u64> = (0..9).collect();
        ids[4] = 1000;
        let r = solve_token_packaging(&g, &tokens, &ids, 3, BandwidthModel::Local).unwrap();
        assert_eq!(r.leader, 4);
        assert_eq!(r.tree.root, 4);
    }

    /// The residue phase never asks to wake; this pins that the rule
    /// is true, plain and through `CodedProtocol`, on the `dut-netsim`
    /// differential topologies plus the implicit 12×12 torus.
    #[test]
    fn residue_matches_reference_engine() {
        reference_check::assert_matches_reference("residue", |g| {
            let tree = build_bfs_tree(g, 0, BandwidthModel::Local).unwrap().0;
            (0..g.node_count())
                .map(|v| ResidueNode {
                    parent: tree.parent[v],
                    expected_children: tree.children[v].len(),
                    received: 0,
                    own_tokens: v as u64 % 5,
                    tau: 3,
                    c: None,
                    acc: 0,
                })
                .collect()
        });
    }

    /// Forwarding wakes while it owes its parent a buffered token; this
    /// pins that rule against the reference engine the same way. Node
    /// `v` starts with `v % 7` tokens and the quota its residue for
    /// τ = 8 on the BFS tree from node 0, so tokens queue and pipeline
    /// up several levels.
    #[test]
    fn forward_matches_reference_engine() {
        reference_check::assert_matches_reference("forward", |g| {
            let tree = build_bfs_tree(g, 0, BandwidthModel::Local).unwrap().0;
            let tokens: Vec<Vec<u64>> = (0..g.node_count() as u64)
                .map(|v| (0..v % 7).map(|t| 8 * v + t).collect())
                .collect();
            let mut quotas = vec![0u64; g.node_count()];
            for v in tree.bottom_up_order() {
                let below: u64 = tree.children[v].iter().map(|&c| quotas[c]).sum();
                quotas[v] = (tokens[v].len() as u64 + below) % 8;
            }
            forward_states(&tree, &tokens, &quotas)
        });
    }
}
