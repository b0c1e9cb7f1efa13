//! Distributed BFS-tree construction.
//!
//! The classic flooding algorithm: the root announces depth 0; every
//! other node adopts the first (lowest-depth, then lowest-id) announcer
//! as its parent and re-announces. Terminates in `ecc(root) + O(1)`
//! rounds and fits CONGEST (messages are one depth value of
//! `O(log k)` bits).

use crate::algorithms::coded::{codec_stats, CodecStats, CodedProtocol, MessageCodec};
use crate::engine::{BandwidthModel, Compact, EngineError, Network, NodeProtocol, Outbox};
use crate::fault::FaultPlan;
use crate::graph::{ImplicitTopology, NodeId};
use dut_obs::NoopSink;

/// Per-node state of the BFS protocol.
#[derive(Debug, Clone, PartialEq)]
struct BfsNode {
    root: NodeId,
    parent: Option<NodeId>,
    depth: Option<u64>,
}

impl NodeProtocol for BfsNode {
    type Msg = Compact;

    fn on_round(
        &mut self,
        node: NodeId,
        round: usize,
        inbox: &[(NodeId, Compact)],
        out: &mut Outbox<'_, Compact>,
    ) {
        if self.depth.is_some() {
            return;
        }
        if node == self.root && round == 0 {
            self.depth = Some(0);
            out.broadcast(Compact(0));
            return;
        }
        if let Some(&(from, Compact(d))) = inbox.iter().min_by_key(|&&(from, Compact(d))| (d, from))
        {
            self.parent = Some(from);
            self.depth = Some(d + 1);
            out.broadcast(Compact(d + 1));
        }
    }

    fn is_done(&self) -> bool {
        // Always done: quiescence then means "the flood stabilized", not
        // "every node was reached". On a connected graph this ends at the
        // same round as waiting for all depths (the last adopters'
        // broadcasts are still in flight); on a disconnected graph it
        // ends promptly instead of spinning to the round limit, and the
        // unreached component is reported as a typed error below.
        true
    }

    fn wants_round(&self) -> bool {
        // Only the root in round 0 and the first announcement heard send.
        false
    }
}

/// A rooted BFS tree over a connected graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsTree {
    /// The root node.
    pub root: NodeId,
    /// Parent of each node (`None` for the root).
    pub parent: Vec<Option<NodeId>>,
    /// Depth of each node (root = 0).
    pub depth: Vec<usize>,
    /// Children lists.
    pub children: Vec<Vec<NodeId>>,
    /// Height of the tree (max depth).
    pub height: usize,
}

impl BfsTree {
    /// Nodes in leaves-first (deepest-first) order — the order
    /// convergecast completes in.
    pub fn bottom_up_order(&self) -> Vec<NodeId> {
        let mut order: Vec<NodeId> = (0..self.parent.len()).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(self.depth[v]));
        order
    }

    /// Number of nodes in the subtree rooted at each node.
    pub fn subtree_sizes(&self) -> Vec<usize> {
        let mut size = vec![1usize; self.parent.len()];
        for v in self.bottom_up_order() {
            if let Some(p) = self.parent[v] {
                size[p] += size[v];
            }
        }
        size
    }
}

/// Builds a BFS tree rooted at `root` by running the distributed flooding
/// protocol, returning the tree and the number of rounds used.
///
/// # Errors
///
/// Returns [`EngineError::EmptyNetwork`] on a zero-node graph,
/// [`EngineError::Unreached`] if the graph is disconnected (the flood
/// stabilizes without reaching the far component), or a bandwidth
/// violation under an unreasonably tight CONGEST budget.
#[allow(clippy::needless_range_loop)]
pub fn build_bfs_tree<T: ImplicitTopology>(
    g: &T,
    root: NodeId,
    model: BandwidthModel,
) -> Result<(BfsTree, usize), EngineError> {
    let k = g.node_count();
    if k == 0 {
        return Err(EngineError::EmptyNetwork);
    }
    let states = (0..k)
        .map(|_| BfsNode {
            root,
            parent: None,
            depth: None,
        })
        .collect();
    let report =
        Network::new(g, model).run(states, 2 * k + 4, &FaultPlan::none(), &mut NoopSink)?;

    let mut parent = vec![None; k];
    let mut depth = vec![0usize; k];
    let mut children = vec![Vec::new(); k];
    let mut height = 0usize;
    for (v, st) in report.nodes.iter().enumerate() {
        parent[v] = st.parent;
        depth[v] = st.depth.ok_or(EngineError::Unreached { node: v })? as usize;
        height = height.max(depth[v]);
        if let Some(p) = st.parent {
            children[p].push(v);
        }
    }
    Ok((
        BfsTree {
            root,
            parent,
            depth,
            children,
            height,
        },
        report.rounds,
    ))
}

/// [`build_bfs_tree`] with messages travelling through `codec` under a
/// [`FaultPlan`]. Flips below the codec's correction radius are fixed
/// transparently, so the tree is identical to the fault-free one;
/// dropped or undecodable announcements can make a node adopt a
/// non-shortest parent (the result is still a valid rooted tree with
/// consistent depths) or, if a node never hears any announcement,
/// surface as [`EngineError::Unreached`]. Flips the codec does not
/// correct can corrupt an announced depth; the returned tree is checked
/// to have `depth[v] = depth[parent] + 1` at every non-root node.
///
/// # Errors
///
/// Same conditions as [`build_bfs_tree`], plus
/// [`EngineError::InconsistentDepth`] when a corrupted announcement left
/// a node's depth different from its parent's depth plus one.
#[allow(clippy::needless_range_loop)]
pub fn build_bfs_tree_coded<T, C>(
    g: &T,
    root: NodeId,
    model: BandwidthModel,
    plan: &FaultPlan,
    codec: C,
) -> Result<(BfsTree, usize, CodecStats), EngineError>
where
    T: ImplicitTopology,
    C: MessageCodec<Plain = Compact> + Clone,
{
    let k = g.node_count();
    if k == 0 {
        return Err(EngineError::EmptyNetwork);
    }
    let states: Vec<CodedProtocol<BfsNode, C>> = (0..k)
        .map(|_| {
            CodedProtocol::new(
                BfsNode {
                    root,
                    parent: None,
                    depth: None,
                },
                codec.clone(),
            )
        })
        .collect();
    let report = Network::new(g, model).run(states, 2 * k + 4, plan, &mut NoopSink)?;
    let stats = codec_stats(&report.nodes);

    let mut parent = vec![None; k];
    let mut depth = vec![0usize; k];
    let mut children = vec![Vec::new(); k];
    let mut height = 0usize;
    for (v, st) in report.nodes.iter().enumerate() {
        let st = st.inner();
        parent[v] = st.parent;
        depth[v] = st.depth.ok_or(EngineError::Unreached { node: v })? as usize;
        height = height.max(depth[v]);
        if let Some(p) = st.parent {
            children[p].push(v);
        }
    }
    if let Some(node) = (0..k).find(|&v| parent[v].is_some_and(|p| depth[v] != depth[p] + 1)) {
        return Err(EngineError::InconsistentDepth { node });
    }
    Ok((
        BfsTree {
            root,
            parent,
            depth,
            children,
            height,
        },
        report.rounds,
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::reference_check;
    use crate::graph::Graph;
    use crate::topology;

    #[test]
    fn bfs_tree_on_line() {
        let g = topology::line(6);
        let (tree, rounds) = build_bfs_tree(&g, 0, BandwidthModel::Local).unwrap();
        assert_eq!(tree.root, 0);
        assert_eq!(tree.depth, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(tree.parent[3], Some(2));
        assert_eq!(tree.height, 5);
        assert!(rounds <= 2 * 6 + 2);
    }

    #[test]
    fn bfs_tree_depths_match_graph_distances() {
        let g = topology::grid(5, 7);
        let (tree, _) = build_bfs_tree(&g, 12, BandwidthModel::Local).unwrap();
        let dist = g.bfs_distances(12);
        for (v, d) in dist.iter().enumerate() {
            assert_eq!(tree.depth[v], d.unwrap(), "node {v}");
        }
    }

    #[test]
    fn bfs_parent_is_one_closer() {
        let g = topology::ring(9);
        let (tree, _) = build_bfs_tree(&g, 4, BandwidthModel::Local).unwrap();
        for v in 0..9 {
            if let Some(p) = tree.parent[v] {
                assert_eq!(tree.depth[p] + 1, tree.depth[v]);
                assert!(g.has_edge(p, v));
            } else {
                assert_eq!(v, 4);
            }
        }
    }

    #[test]
    fn bfs_fits_congest() {
        let g = topology::grid(8, 8);
        let model = BandwidthModel::congest_for(64);
        let (tree, _) = build_bfs_tree(&g, 0, model).unwrap();
        assert_eq!(tree.depth[63], 14);
    }

    #[test]
    fn children_lists_are_consistent() {
        let g = topology::balanced_binary_tree(15);
        let (tree, _) = build_bfs_tree(&g, 0, BandwidthModel::Local).unwrap();
        let mut count = 0;
        for (p, kids) in tree.children.iter().enumerate() {
            for &c in kids {
                assert_eq!(tree.parent[c], Some(p));
                count += 1;
            }
        }
        assert_eq!(count, 14); // every non-root has exactly one parent
    }

    #[test]
    fn subtree_sizes_sum_correctly() {
        let g = topology::balanced_binary_tree(7);
        let (tree, _) = build_bfs_tree(&g, 0, BandwidthModel::Local).unwrap();
        let sizes = tree.subtree_sizes();
        assert_eq!(sizes[0], 7);
        assert_eq!(sizes[1], 3);
        assert_eq!(sizes[2], 3);
        assert_eq!(sizes[3], 1);
    }

    #[test]
    fn bfs_matches_reference_engine() {
        reference_check::assert_matches_reference("bfs", |g| {
            let root = g.node_count() / 2;
            (0..g.node_count())
                .map(|_| BfsNode {
                    root,
                    parent: None,
                    depth: None,
                })
                .collect()
        });
    }

    #[test]
    fn disconnected_graph_errors() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let err = build_bfs_tree(&g, 0, BandwidthModel::Local).unwrap_err();
        assert_eq!(err, EngineError::Unreached { node: 2 });
    }

    #[test]
    fn empty_graph_errors() {
        let g = Graph::from_edges(0, &[]);
        let err = build_bfs_tree(&g, 0, BandwidthModel::Local).unwrap_err();
        assert_eq!(err, EngineError::EmptyNetwork);
    }

    #[test]
    fn single_node_graph_is_a_trivial_tree() {
        let g = Graph::from_edges(1, &[]);
        let (tree, _) = build_bfs_tree(&g, 0, BandwidthModel::Local).unwrap();
        assert_eq!(tree.depth, vec![0]);
        assert_eq!(tree.parent, vec![None]);
        assert_eq!(tree.height, 0);
    }

    /// Uncorrected flips can corrupt an announced depth: the coded build
    /// then reports the inconsistency, and every tree it does return has
    /// consistent depths.
    #[test]
    fn corrupted_depths_are_a_typed_error() {
        use crate::algorithms::coded::IdentityCodec;
        let g = topology::grid(10, 25);
        let model = BandwidthModel::Congest { bits_per_edge: 64 };
        let mut inconsistent = 0;
        for seed in 0..20 {
            let plan = FaultPlan::seeded(seed).with_flips(3e-3);
            let codec = IdentityCodec::<Compact>::new();
            match build_bfs_tree_coded(&g, 0, model, &plan, codec) {
                Ok((tree, ..)) => {
                    for v in 1..g.node_count() {
                        let p = tree.parent[v].expect("non-root nodes have parents");
                        assert_eq!(tree.depth[v], tree.depth[p] + 1, "seed {seed}, node {v}");
                    }
                }
                Err(EngineError::InconsistentDepth { .. }) => inconsistent += 1,
                Err(other) => panic!("seed {seed}: {other}"),
            }
        }
        assert!(inconsistent > 0, "no seed corrupted a depth");
    }
}
