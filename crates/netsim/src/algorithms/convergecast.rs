//! Convergecast (aggregate up a tree) and broadcast (push down a tree).
//!
//! The CONGEST tester's final step — "summing up the tree the number of
//! virtual nodes that want to reject" — is a convergecast; announcing the
//! verdict is a broadcast. Both run in `height(T) + O(1)` rounds with
//! `O(log k)`-bit messages.

use super::bfs::BfsTree;
use crate::engine::{BandwidthModel, Compact, EngineError, Network, NodeProtocol, Outbox};
use crate::fault::FaultPlan;
use crate::graph::{ImplicitTopology, NodeId};
use dut_obs::{keys, NoopSink, Sink};

/// Wire cost of one tree operation (convergecast or broadcast), taken
/// from the underlying engine report so callers can account for the
/// bits these primitives actually put on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeOpCost {
    /// Rounds used.
    pub rounds: usize,
    /// Messages delivered.
    pub messages: usize,
    /// Payload bits delivered.
    pub bits: usize,
}

/// Per-node convergecast state.
#[derive(Debug, Clone, PartialEq)]
struct ConvNode {
    parent: Option<NodeId>,
    expected_children: usize,
    received: usize,
    acc: u64,
    sent: bool,
}

impl NodeProtocol for ConvNode {
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
        if !self.sent && self.received == self.expected_children {
            if let Some(p) = self.parent {
                out.send(p, Compact(self.acc));
            }
            self.sent = true;
        }
    }

    fn is_done(&self) -> bool {
        self.sent
    }

    fn wants_round(&self) -> bool {
        // The partial sum is sent once, on the step the last child
        // report arrives (round 0 for a leaf).
        false
    }
}

/// Sums `values` up the tree; returns the total (as computed at the
/// root) and the number of rounds used.
///
/// # Errors
///
/// Returns [`EngineError::NodeCountMismatch`] if `values` does not hold
/// one value per node, and propagates engine errors (round limit on a
/// malformed tree, CONGEST budget violations).
pub fn convergecast_sum<T: ImplicitTopology>(
    g: &T,
    tree: &BfsTree,
    values: &[u64],
    model: BandwidthModel,
) -> Result<(u64, usize), EngineError> {
    let (total, cost) = convergecast_sum_observed(g, tree, values, model, &mut NoopSink)?;
    Ok((total, cost.rounds))
}

/// [`convergecast_sum`] that also returns the operation's wire cost and
/// records it into `sink` under the `netsim.convergecast.*` keys (the
/// underlying engine run records `netsim.*` as well).
///
/// # Errors
///
/// Same conditions as [`convergecast_sum`].
pub fn convergecast_sum_observed<T: ImplicitTopology>(
    g: &T,
    tree: &BfsTree,
    values: &[u64],
    model: BandwidthModel,
    sink: &mut dyn Sink,
) -> Result<(u64, TreeOpCost), EngineError> {
    if values.len() != g.node_count() {
        return Err(EngineError::NodeCountMismatch {
            graph_nodes: g.node_count(),
            states: values.len(),
        });
    }
    let states: Vec<ConvNode> = (0..g.node_count())
        .map(|v| ConvNode {
            parent: tree.parent[v],
            expected_children: tree.children[v].len(),
            received: 0,
            acc: values[v],
            sent: false,
        })
        .collect();
    let report =
        Network::new(g, model).run(states, 2 * g.node_count() + 4, &FaultPlan::none(), sink)?;
    let cost = TreeOpCost {
        rounds: report.rounds,
        messages: report.total_messages,
        bits: report.total_bits,
    };
    if sink.enabled() {
        sink.add(keys::CONVERGECAST_RUNS, 1);
        sink.add(keys::CONVERGECAST_ROUNDS, cost.rounds as u64);
        sink.add(keys::CONVERGECAST_BITS, cost.bits as u64);
    }
    Ok((report.nodes[tree.root].acc, cost))
}

/// Per-node broadcast state.
#[derive(Debug, Clone, PartialEq)]
struct BcastNode {
    children: Vec<NodeId>,
    value: Option<u64>,
    sent: bool,
}

impl NodeProtocol for BcastNode {
    type Msg = Compact;

    fn on_round(
        &mut self,
        _node: NodeId,
        _round: usize,
        inbox: &[(NodeId, Compact)],
        out: &mut Outbox<'_, Compact>,
    ) {
        if self.value.is_none() {
            if let Some(&(_, Compact(v))) = inbox.first() {
                self.value = Some(v);
            }
        }
        if let (Some(v), false) = (self.value, self.sent) {
            for &c in &self.children {
                out.send(c, Compact(v));
            }
            self.sent = true;
        }
    }

    fn is_done(&self) -> bool {
        self.sent
    }

    fn wants_round(&self) -> bool {
        // A node forwards once, on the step its value arrives (round 0
        // at the root).
        false
    }
}

/// Pushes `value` from the root down the tree; returns each node's
/// received value and the number of rounds used.
///
/// # Errors
///
/// Propagates engine errors.
pub fn broadcast_value<T: ImplicitTopology>(
    g: &T,
    tree: &BfsTree,
    value: u64,
    model: BandwidthModel,
) -> Result<(Vec<u64>, usize), EngineError> {
    let (values, cost) = broadcast_value_observed(g, tree, value, model, &mut NoopSink)?;
    Ok((values, cost.rounds))
}

/// [`broadcast_value`] that also returns the operation's wire cost and
/// records it into `sink` under the `netsim.broadcast.*` keys (the
/// underlying engine run records `netsim.*` as well).
///
/// # Errors
///
/// Same conditions as [`broadcast_value`].
pub fn broadcast_value_observed<T: ImplicitTopology>(
    g: &T,
    tree: &BfsTree,
    value: u64,
    model: BandwidthModel,
    sink: &mut dyn Sink,
) -> Result<(Vec<u64>, TreeOpCost), EngineError> {
    let states: Vec<BcastNode> = (0..g.node_count())
        .map(|v| BcastNode {
            children: tree.children[v].clone(),
            value: if v == tree.root { Some(value) } else { None },
            sent: false,
        })
        .collect();
    let report =
        Network::new(g, model).run(states, 2 * g.node_count() + 4, &FaultPlan::none(), sink)?;
    let cost = TreeOpCost {
        rounds: report.rounds,
        messages: report.total_messages,
        bits: report.total_bits,
    };
    if sink.enabled() {
        sink.add(keys::BROADCAST_RUNS, 1);
        sink.add(keys::BROADCAST_ROUNDS, cost.rounds as u64);
        sink.add(keys::BROADCAST_BITS, cost.bits as u64);
    }
    // Unreachable expect: `BcastNode::is_done` requires `value.is_some()`,
    // and the engine only returns a successful report once every node is
    // done, so a value is set everywhere.
    let values = report
        .nodes
        .iter()
        .map(|n| n.value.expect("broadcast reached all nodes"))
        .collect();
    Ok((values, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::bfs::build_bfs_tree;
    use crate::algorithms::reference_check;
    use crate::topology;

    fn tree_of(g: &crate::graph::Graph, root: NodeId) -> BfsTree {
        build_bfs_tree(g, root, BandwidthModel::Local).unwrap().0
    }

    #[test]
    fn sum_on_a_line() {
        let g = topology::line(5);
        let tree = tree_of(&g, 0);
        let values = [1u64, 2, 3, 4, 5];
        let (total, rounds) = convergecast_sum(&g, &tree, &values, BandwidthModel::Local).unwrap();
        assert_eq!(total, 15);
        // height 4: leaf's value takes 4 hops + quiescence overhead
        assert!((4..=8).contains(&rounds), "rounds = {rounds}");
    }

    #[test]
    fn sum_on_a_star_is_fast() {
        let g = topology::star(64);
        let tree = tree_of(&g, 0);
        let values = vec![1u64; 64];
        let (total, rounds) = convergecast_sum(&g, &tree, &values, BandwidthModel::Local).unwrap();
        assert_eq!(total, 64);
        assert!(rounds <= 4, "star convergecast took {rounds} rounds");
    }

    #[test]
    fn sum_fits_congest() {
        let g = topology::grid(6, 6);
        let tree = tree_of(&g, 0);
        let values = vec![3u64; 36];
        let model = BandwidthModel::Congest { bits_per_edge: 64 };
        let (total, _) = convergecast_sum(&g, &tree, &values, model).unwrap();
        assert_eq!(total, 108);
    }

    #[test]
    fn sum_with_zero_values() {
        let g = topology::ring(7);
        let tree = tree_of(&g, 3);
        let values = vec![0u64; 7];
        let (total, _) = convergecast_sum(&g, &tree, &values, BandwidthModel::Local).unwrap();
        assert_eq!(total, 0);
    }

    #[test]
    fn convergecast_matches_reference_engine() {
        reference_check::assert_matches_reference("convergecast", |g| {
            let tree = tree_of(g, 0);
            (0..g.node_count())
                .map(|v| ConvNode {
                    parent: tree.parent[v],
                    expected_children: tree.children[v].len(),
                    received: 0,
                    acc: v as u64 + 1,
                    sent: false,
                })
                .collect()
        });
    }

    #[test]
    fn broadcast_matches_reference_engine() {
        reference_check::assert_matches_reference("broadcast", |g| {
            let tree = tree_of(g, 1);
            (0..g.node_count())
                .map(|v| BcastNode {
                    children: tree.children[v].clone(),
                    value: (v == tree.root).then_some(42),
                    sent: false,
                })
                .collect()
        });
    }

    #[test]
    fn wrong_value_count_is_a_typed_error() {
        let g = topology::line(4);
        let tree = tree_of(&g, 0);
        let err = convergecast_sum(&g, &tree, &[1, 2, 3], BandwidthModel::Local).unwrap_err();
        assert_eq!(
            err,
            EngineError::NodeCountMismatch {
                graph_nodes: 4,
                states: 3
            }
        );
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let g = topology::balanced_binary_tree(31);
        let tree = tree_of(&g, 0);
        let (values, rounds) = broadcast_value(&g, &tree, 42, BandwidthModel::Local).unwrap();
        assert!(values.iter().all(|&v| v == 42));
        assert!(rounds <= tree.height + 3);
    }

    #[test]
    fn broadcast_round_count_scales_with_height() {
        let g = topology::line(20);
        let tree = tree_of(&g, 0);
        let (_, rounds_line) = broadcast_value(&g, &tree, 7, BandwidthModel::Local).unwrap();
        let g2 = topology::star(20);
        let tree2 = tree_of(&g2, 0);
        let (_, rounds_star) = broadcast_value(&g2, &tree2, 7, BandwidthModel::Local).unwrap();
        assert!(rounds_line > rounds_star);
    }
}
