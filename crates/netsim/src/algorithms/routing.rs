//! Multi-hop payload routing to assigned centers.
//!
//! The LOCAL tester's gathering step — "node u selects some MIS node
//! v ∈ S ∩ N^r(u), and routes its sample to v, by asking the nodes in
//! its r-neighborhood to forward the sample" (§6) — is a real
//! message-passing protocol, implemented here on the round engine:
//!
//! 1. Per-center BFS computes each node's next hop toward its assigned
//!    center (shortest paths in `G`).
//! 2. Every round, each node forwards all payloads it holds one hop
//!    closer; payloads arriving at their destination are collected.
//!
//! Total rounds = the maximum assignment distance (≤ r for MIS
//! assignments within `N^r`), plus quiescence detection.

use crate::engine::{BandwidthModel, EngineError, MessageSize, Network, NodeProtocol, Outbox};
use crate::fault::{bit_len, flip_in_field, FaultInjectable, FaultPlan};
use crate::graph::{Graph, NodeId};
use dut_obs::NoopSink;
use std::collections::VecDeque;

/// A payload in flight: destination plus an opaque value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parcel {
    /// Final destination node.
    pub dest: NodeId,
    /// Payload value (e.g. a sample).
    pub value: u64,
}

impl MessageSize for Parcel {
    fn size_bits(&self) -> usize {
        // destination id + value, both at their natural bit lengths
        bit_len(self.dest as u64) + bit_len(self.value)
    }
}

/// Flips act on the metered encoding, destination bits first, then the
/// value's. A flip that would change a field's bit length (the leading
/// one of a multi-bit field) is a no-op, so every flip is its own
/// inverse.
impl FaultInjectable for Parcel {
    fn flip_bit(&mut self, bit: usize) {
        let id_bits = bit_len(self.dest as u64);
        if bit < id_bits {
            self.dest = flip_in_field(self.dest as u64, bit) as NodeId;
        } else {
            self.value = flip_in_field(self.value, bit - id_bits);
        }
    }
}

/// Per-node routing state.
#[derive(Debug, Clone, PartialEq)]
struct RouteNode {
    /// Next hop toward each node's own center (None at the center).
    next_hop: Option<NodeId>,
    /// Parcels waiting to be forwarded.
    queue: VecDeque<Parcel>,
    /// Parcels that terminated here.
    delivered: Vec<u64>,
    /// This node's id (to detect deliveries).
    me: NodeId,
    /// Parcels forwarded per round (usize::MAX in LOCAL).
    batch: usize,
}

impl NodeProtocol for RouteNode {
    type Msg = Parcel;

    fn on_round(
        &mut self,
        _node: NodeId,
        _round: usize,
        inbox: &[(NodeId, Parcel)],
        out: &mut Outbox<'_, Parcel>,
    ) {
        for &(_, parcel) in inbox {
            if parcel.dest == self.me {
                self.delivered.push(parcel.value);
            } else {
                self.queue.push_back(parcel);
            }
        }
        let forward = self.queue.len().min(self.batch);
        for _ in 0..forward {
            // Unreachable expect: `forward <= queue.len()` by construction.
            let parcel = self.queue.pop_front().expect("checked length");
            // Unreachable expect from `route_to_centers`: it rejects
            // path-inconsistent assignments and runs fault-free, so
            // every parcel queued here is bound for this node's own
            // center, which is not this node, and such a node has a
            // next hop. A bit flip in a parcel's destination can reach
            // it, which is why the reference harness leaves flips out.
            let hop = self
                .next_hop
                .expect("non-center nodes have a next hop while parcels remain");
            out.send(hop, parcel);
        }
    }

    fn is_done(&self) -> bool {
        self.queue.is_empty()
    }

    fn wants_round(&self) -> bool {
        // Queued parcels leave at up to `batch` per round.
        !self.queue.is_empty()
    }
}

/// Routes `payloads[v]` from every node `v` to `center_of[v]`, over
/// shortest paths, using the round engine. Returns per-node delivered
/// values and the number of rounds used.
///
/// All parcels from `v` travel toward the *same* center, so one
/// next-hop pointer per node suffices; next hops are derived from a BFS
/// per distinct center.
///
/// `batch` limits parcels forwarded per node per round (use
/// `usize::MAX` under LOCAL; small values model CONGEST-style
/// pipelining).
///
/// # Errors
///
/// Every input check runs before the routing run:
///
/// * [`EngineError::NodeCountMismatch`] if `center_of` or `payloads`
///   does not have one entry per node;
/// * [`EngineError::ZeroBatch`] if `batch == 0`;
/// * [`EngineError::NodeOutOfRange`] for a center that is not a node;
/// * [`EngineError::Unreached`] when a node's assigned center is in
///   another component;
/// * [`EngineError::InconsistentCenters`] when a node's next hop toward
///   its center is neither that center nor assigned to it (a node on a
///   shortest path to a center must itself be assigned to that center).
///
/// Engine errors from the routing run itself are propagated.
pub fn route_to_centers(
    g: &Graph,
    center_of: &[NodeId],
    payloads: &[Vec<u64>],
    model: BandwidthModel,
    batch: usize,
) -> Result<(Vec<Vec<u64>>, usize), EngineError> {
    let states = route_states(g, center_of, payloads, batch)?;
    let max_payloads: usize = payloads.iter().map(Vec::len).sum::<usize>().max(1);
    let max_rounds = 2 * (g.node_count() + max_payloads) + 8;
    let report =
        Network::new(g, model).run(states, max_rounds, &FaultPlan::none(), &mut NoopSink)?;
    let delivered = report.nodes.into_iter().map(|n| n.delivered).collect();
    Ok((delivered, report.rounds))
}

/// Checks the inputs of [`route_to_centers`] (its errors, bar those of
/// the run) and builds the routing states.
#[allow(clippy::needless_range_loop)]
fn route_states(
    g: &Graph,
    center_of: &[NodeId],
    payloads: &[Vec<u64>],
    batch: usize,
) -> Result<Vec<RouteNode>, EngineError> {
    let k = g.node_count();
    for len in [center_of.len(), payloads.len()] {
        if len != k {
            return Err(EngineError::NodeCountMismatch {
                graph_nodes: k,
                states: len,
            });
        }
    }
    if batch == 0 {
        return Err(EngineError::ZeroBatch);
    }
    if let Some(&node) = center_of.iter().find(|&&c| c >= k) {
        return Err(EngineError::NodeOutOfRange { node, nodes: k });
    }

    // BFS from each distinct center; next_hop[v] = neighbor one step
    // closer to center_of[v].
    let mut centers: Vec<NodeId> = center_of.to_vec();
    centers.sort_unstable();
    centers.dedup();
    let mut next_hop: Vec<Option<NodeId>> = vec![None; k];
    for &c in &centers {
        let dist = g.bfs_distances(c);
        for v in 0..k {
            if center_of[v] != c || v == c {
                continue;
            }
            let dv = dist[v].ok_or(EngineError::Unreached { node: v })?;
            // Unreachable expect: `dv >= 1` here (v != c), so BFS
            // guarantees a neighbor at distance `dv - 1`.
            let hop = g
                .neighbors(v)
                .iter()
                .copied()
                .find(|&w| dist[w] == Some(dv - 1))
                .expect("some neighbor is closer on a shortest path");
            next_hop[v] = Some(hop);
        }
    }
    for v in 0..k {
        if let Some(hop) = next_hop[v] {
            if hop != center_of[v] && center_of[hop] != center_of[v] {
                return Err(EngineError::InconsistentCenters { node: v, hop });
            }
        }
    }

    Ok((0..k)
        .map(|v| {
            let mut queue = VecDeque::new();
            let mut delivered = Vec::new();
            for &value in &payloads[v] {
                if center_of[v] == v {
                    delivered.push(value);
                } else {
                    queue.push_back(Parcel {
                        dest: center_of[v],
                        value,
                    });
                }
            }
            RouteNode {
                next_hop: next_hop[v],
                queue,
                delivered,
                me: v,
                batch,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    #[test]
    fn parcel_flips_round_trip() {
        let cases = [
            (0, 0),
            (1, 1),
            (5, 0),
            (6, 0x8000_0000_0000_0001),
            (1023, 77),
        ];
        for (dest, value) in cases {
            let parcel = Parcel { dest, value };
            let bits = parcel.size_bits();
            for b in 0..bits {
                let mut p = parcel;
                p.flip_bit(b);
                assert_eq!(p.size_bits(), bits, "{parcel:?} bit {b} keeps its width");
                p.flip_bit(b);
                assert_eq!(p, parcel, "{parcel:?} bit {b}");
            }
        }
        // Bit 3 of (dest 5, value 6) is the value's low bit.
        let mut p = Parcel { dest: 5, value: 6 };
        p.flip_bit(3);
        assert_eq!(p, Parcel { dest: 5, value: 7 });
    }

    #[test]
    fn routes_to_single_center_on_line() {
        let g = topology::line(6);
        let center_of = vec![0; 6];
        let payloads: Vec<Vec<u64>> = (0..6).map(|v| vec![v as u64 + 10]).collect();
        let (delivered, rounds) =
            route_to_centers(&g, &center_of, &payloads, BandwidthModel::Local, usize::MAX).unwrap();
        let mut at_center = delivered[0].clone();
        at_center.sort_unstable();
        assert_eq!(at_center, vec![10, 11, 12, 13, 14, 15]);
        assert!(delivered[1..].iter().all(Vec::is_empty));
        // farthest node is 5 hops away
        assert!((5..=8).contains(&rounds), "rounds = {rounds}");
    }

    #[test]
    fn routes_to_two_centers() {
        let g = topology::line(8);
        // left half -> 0, right half -> 7
        let center_of = vec![0, 0, 0, 0, 7, 7, 7, 7];
        let payloads: Vec<Vec<u64>> = (0..8).map(|v| vec![v as u64]).collect();
        let (delivered, _) =
            route_to_centers(&g, &center_of, &payloads, BandwidthModel::Local, usize::MAX).unwrap();
        let mut left = delivered[0].clone();
        left.sort_unstable();
        let mut right = delivered[7].clone();
        right.sort_unstable();
        assert_eq!(left, vec![0, 1, 2, 3]);
        assert_eq!(right, vec![4, 5, 6, 7]);
    }

    #[test]
    fn multiple_payloads_per_node() {
        let g = topology::star(5);
        let center_of = vec![0; 5];
        let payloads: Vec<Vec<u64>> = (0..5).map(|v| vec![v as u64, v as u64 + 100]).collect();
        let (delivered, rounds) =
            route_to_centers(&g, &center_of, &payloads, BandwidthModel::Local, usize::MAX).unwrap();
        assert_eq!(delivered[0].len(), 10);
        assert!(rounds <= 4);
    }

    #[test]
    fn batched_forwarding_pipelines() {
        // batch = 1 on a line: parcels flow one per round per node, so a
        // stream of 4 from the end of a 4-line takes ~hops + queue time.
        let g = topology::line(4);
        let center_of = vec![0; 4];
        let payloads = vec![vec![], vec![], vec![], vec![1, 2, 3, 4]];
        let (delivered, rounds) =
            route_to_centers(&g, &center_of, &payloads, BandwidthModel::Local, 1).unwrap();
        assert_eq!(delivered[0].len(), 4);
        // 3 hops for the first + 3 more behind it + quiescence
        assert!((6..=10).contains(&rounds), "rounds = {rounds}");
    }

    #[test]
    fn batched_congest_fits_budget() {
        let g = topology::grid(4, 4);
        let center_of = vec![0; 16];
        let payloads: Vec<Vec<u64>> = (0..16).map(|v| vec![v as u64]).collect();
        // one parcel per edge per round: ids < 16 (4+ bits), values < 16
        let model = BandwidthModel::Congest { bits_per_edge: 16 };
        let (delivered, _) = route_to_centers(&g, &center_of, &payloads, model, 1).unwrap();
        assert_eq!(delivered[0].len(), 16);
    }

    #[test]
    fn unreachable_center_is_a_typed_error() {
        // Node 2 (in the far component) is assigned to center 0.
        let g = crate::graph::Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let center_of = vec![0, 0, 0, 2];
        let payloads: Vec<Vec<u64>> = (0..4).map(|v| vec![v as u64]).collect();
        let err = route_to_centers(&g, &center_of, &payloads, BandwidthModel::Local, usize::MAX)
            .unwrap_err();
        assert_eq!(err, EngineError::Unreached { node: 2 });
    }

    #[test]
    fn length_mismatch_is_a_typed_error() {
        let g = topology::line(4);
        let payloads: Vec<Vec<u64>> = vec![vec![1]; 4];
        let err = route_to_centers(&g, &[0; 3], &payloads, BandwidthModel::Local, 1).unwrap_err();
        assert_eq!(
            err,
            EngineError::NodeCountMismatch {
                graph_nodes: 4,
                states: 3
            }
        );
        let err =
            route_to_centers(&g, &[0; 4], &payloads[..2], BandwidthModel::Local, 1).unwrap_err();
        assert_eq!(
            err,
            EngineError::NodeCountMismatch {
                graph_nodes: 4,
                states: 2
            }
        );
    }

    #[test]
    fn zero_batch_is_a_typed_error() {
        let g = topology::line(4);
        let payloads: Vec<Vec<u64>> = vec![vec![1]; 4];
        let err = route_to_centers(&g, &[0; 4], &payloads, BandwidthModel::Local, 0).unwrap_err();
        assert_eq!(err, EngineError::ZeroBatch);
    }

    #[test]
    fn out_of_range_center_is_a_typed_error() {
        let g = topology::line(4);
        let payloads: Vec<Vec<u64>> = vec![vec![1]; 4];
        let err =
            route_to_centers(&g, &[0, 0, 9, 0], &payloads, BandwidthModel::Local, 1).unwrap_err();
        assert_eq!(err, EngineError::NodeOutOfRange { node: 9, nodes: 4 });
    }

    #[test]
    fn path_inconsistent_centers_are_a_typed_error() {
        // Node 1's shortest path to center 3 runs through node 2, which
        // is assigned to center 0.
        let g = topology::line(4);
        let payloads: Vec<Vec<u64>> = vec![vec![1]; 4];
        let err =
            route_to_centers(&g, &[0, 3, 0, 3], &payloads, BandwidthModel::Local, 1).unwrap_err();
        assert_eq!(err, EngineError::InconsistentCenters { node: 1, hop: 2 });
        // Two nodes that are each other's center route in one hop: a
        // hop onto the center itself is consistent.
        let g = topology::line(2);
        let payloads = vec![vec![5], vec![6]];
        let (delivered, _) =
            route_to_centers(&g, &[1, 0], &payloads, BandwidthModel::Local, 1).unwrap();
        assert_eq!(delivered, vec![vec![6], vec![5]]);
    }

    /// Each node is assigned its nearest of centers 0 and `k/2` (ties
    /// to the lower id, which keeps assignments path-consistent) and
    /// holds `v % 3` parcels, forwarded one per round, so queues wait
    /// across rounds with empty inboxes. A flipped destination can
    /// strand a parcel at a center it is not bound for, so the flip
    /// plan stays out.
    #[test]
    fn route_matches_reference_engine() {
        use crate::algorithms::reference_check;
        reference_check::assert_matches_reference_without_flips("route", |g| {
            let k = g.node_count();
            let (near, far) = (g.bfs_distances(0), g.bfs_distances(k / 2));
            let center_of: Vec<NodeId> = (0..k)
                .map(|v| if far[v] < near[v] { k / 2 } else { 0 })
                .collect();
            let payloads: Vec<Vec<u64>> = (0..k as u64)
                .map(|v| (0..v % 3).map(|i| 10 * v + i).collect())
                .collect();
            route_states(g, &center_of, &payloads, 1).unwrap()
        });
    }

    #[test]
    fn self_assigned_nodes_keep_payloads() {
        let g = topology::ring(4);
        let center_of = vec![0, 1, 2, 3]; // everyone is their own center
        let payloads: Vec<Vec<u64>> = (0..4).map(|v| vec![v as u64 * 7]).collect();
        let (delivered, rounds) =
            route_to_centers(&g, &center_of, &payloads, BandwidthModel::Local, usize::MAX).unwrap();
        for (v, d) in delivered.iter().enumerate() {
            assert_eq!(d, &vec![v as u64 * 7]);
        }
        assert!(rounds <= 2);
    }

    #[test]
    fn parcel_size_accounting() {
        let p = Parcel { dest: 5, value: 1 };
        assert_eq!(p.size_bits(), 3 + 1);
        let p = Parcel {
            dest: 0,
            value: u64::MAX,
        };
        assert_eq!(p.size_bits(), 1 + 64);
    }
}
