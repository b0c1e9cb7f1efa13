//! Leader election by max-identifier flooding.
//!
//! The paper's token-packaging protocol starts by identifying "the vertex
//! with the largest identifier" (§5). Nodes flood the largest identifier
//! they have heard; after `D + O(1)` rounds the flood stabilizes and the
//! node holding the global maximum knows it is the leader.

use crate::algorithms::coded::{codec_stats, CodecStats, CodedProtocol, MessageCodec};
use crate::engine::{BandwidthModel, Compact, EngineError, Network, NodeProtocol, Outbox};
use crate::fault::FaultPlan;
use crate::graph::{ImplicitTopology, NodeId};
use dut_obs::NoopSink;

/// Per-node max-flood state.
#[derive(Debug, Clone, PartialEq)]
struct LeaderNode {
    my_id: u64,
    best: u64,
    pending: bool,
}

impl NodeProtocol for LeaderNode {
    type Msg = Compact;

    fn on_round(
        &mut self,
        _node: NodeId,
        round: usize,
        inbox: &[(NodeId, Compact)],
        out: &mut Outbox<'_, Compact>,
    ) {
        if round == 0 {
            self.pending = true;
        }
        for &(_, Compact(id)) in inbox {
            if id > self.best {
                self.best = id;
                self.pending = true;
            }
        }
        if self.pending {
            out.broadcast(Compact(self.best));
            self.pending = false;
        }
    }

    fn is_done(&self) -> bool {
        true // quiescence (no improving floods) ends the run
    }

    fn wants_round(&self) -> bool {
        false // only an improving id (or round 0) triggers a broadcast
    }
}

/// The maximum of `ids`, checked to be one id per node and held by
/// exactly one node.
fn unique_max<T: ImplicitTopology>(g: &T, ids: &[u64]) -> Result<u64, EngineError> {
    if ids.len() != g.node_count() {
        return Err(EngineError::NodeCountMismatch {
            graph_nodes: g.node_count(),
            states: ids.len(),
        });
    }
    let Some(&max) = ids.iter().max() else {
        return Err(EngineError::EmptyNetwork);
    };
    let holders = ids.iter().filter(|&&i| i == max).count();
    if holders > 1 {
        return Err(EngineError::DuplicateMaxId { id: max, holders });
    }
    Ok(max)
}

/// Elects the node with the largest identifier by flooding. Returns
/// `(leader, rounds)`.
///
/// `ids[v]` is node `v`'s identifier; in an anonymous network these are
/// random values from a large namespace (unique w.h.p.), as the paper's
/// lower-bound section notes. Duplicated maximum ids are rejected.
///
/// # Errors
///
/// Returns [`EngineError::NodeCountMismatch`] if `ids` does not hold one
/// id per node, [`EngineError::EmptyNetwork`] on a zero-node graph,
/// [`EngineError::DuplicateMaxId`] if the maximum id is not unique, and
/// propagates engine errors from the flood itself.
pub fn elect_leader<T: ImplicitTopology>(
    g: &T,
    ids: &[u64],
    model: BandwidthModel,
) -> Result<(NodeId, usize), EngineError> {
    let max = unique_max(g, ids)?;
    let states: Vec<LeaderNode> = ids
        .iter()
        .map(|&my_id| LeaderNode {
            my_id,
            best: my_id,
            pending: false,
        })
        .collect();
    let report = Network::new(g, model).run(
        states,
        2 * g.node_count() + 4,
        &FaultPlan::none(),
        &mut NoopSink,
    )?;
    // Unreachable expect: the unique maximum checked above never loses a
    // comparison, so the node holding it still has `best == my_id == max`
    // once the flood quiesces.
    let leader = report
        .nodes
        .iter()
        .position(|n| n.my_id == n.best && n.my_id == max)
        .expect("exactly one node holds the maximum");
    Ok((leader, report.rounds))
}

/// [`elect_leader`] with messages travelling through `codec` under a
/// [`FaultPlan`]: bit flips below the codec's correction radius are
/// fixed transparently; undecodable or dropped floods simply re-trigger
/// on the next improving id, and other nodes may terminate without
/// having heard the maximum. Flips the codec does not correct can
/// displace the maximum: a corrupted id above it floods the network,
/// and its holder stops holding its own id.
///
/// # Errors
///
/// Same conditions as [`elect_leader`], plus
/// [`EngineError::MaxIdDisplaced`] when a corrupted id displaced the
/// maximum at its holder.
pub fn elect_leader_coded<T, C>(
    g: &T,
    ids: &[u64],
    model: BandwidthModel,
    plan: &FaultPlan,
    codec: C,
) -> Result<(NodeId, usize, CodecStats), EngineError>
where
    T: ImplicitTopology,
    C: MessageCodec<Plain = Compact> + Clone,
{
    let max = unique_max(g, ids)?;
    let states: Vec<CodedProtocol<LeaderNode, C>> = ids
        .iter()
        .map(|&my_id| {
            CodedProtocol::new(
                LeaderNode {
                    my_id,
                    best: my_id,
                    pending: false,
                },
                codec.clone(),
            )
        })
        .collect();
    let report = Network::new(g, model).run(states, 2 * g.node_count() + 4, plan, &mut NoopSink)?;
    let stats = codec_stats(&report.nodes);
    let leader = ids
        .iter()
        .position(|&id| id == max)
        .expect("unique_max returned an id of some node");
    match report.nodes[leader].inner().best {
        best if best == max => Ok((leader, report.rounds, stats)),
        by => Err(EngineError::MaxIdDisplaced { id: max, by }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::coded::IdentityCodec;
    use crate::algorithms::reference_check;
    use crate::topology;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn leader_on_line() {
        let g = topology::line(8);
        let ids = [3u64, 9, 1, 4, 1, 5, 92, 6];
        let (leader, rounds) = elect_leader(&g, &ids, BandwidthModel::Local).unwrap();
        assert_eq!(leader, 6);
        assert!(rounds <= 2 * 8);
    }

    #[test]
    fn leader_rounds_scale_with_diameter() {
        let g1 = topology::line(32);
        let mut ids: Vec<u64> = (0..32).collect();
        ids[0] = 1000; // worst case: max at one end
        let (_, rounds_line) = elect_leader(&g1, &ids, BandwidthModel::Local).unwrap();
        let g2 = topology::star(32);
        let (_, rounds_star) = elect_leader(&g2, &ids, BandwidthModel::Local).unwrap();
        assert!(rounds_line > rounds_star);
        assert!(rounds_line >= 31, "flood must cross the whole line");
    }

    #[test]
    fn leader_with_random_ids_fits_congest() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = topology::grid(6, 6);
        let ids: Vec<u64> = (0..36).map(|_| rng.gen()).collect();
        let model = BandwidthModel::Congest { bits_per_edge: 64 };
        let (leader, _) = elect_leader(&g, &ids, model).unwrap();
        let max = *ids.iter().max().unwrap();
        assert_eq!(ids[leader], max);
    }

    #[test]
    fn leader_flood_matches_reference_engine() {
        reference_check::assert_matches_reference("leader", |g| {
            (0..g.node_count() as u64)
                .map(|v| {
                    // Scrambled ids so the maximum travels far.
                    let my_id = v.wrapping_mul(0x9E37) % 251 + 1;
                    LeaderNode {
                        my_id,
                        best: my_id,
                        pending: false,
                    }
                })
                .collect()
        });
    }

    #[test]
    fn duplicate_max_rejected() {
        let g = topology::line(3);
        assert_eq!(
            elect_leader(&g, &[5, 5, 1], BandwidthModel::Local),
            Err(EngineError::DuplicateMaxId { id: 5, holders: 2 })
        );
        let plan = FaultPlan::none();
        let codec = IdentityCodec::<Compact>::new();
        assert_eq!(
            elect_leader_coded(&g, &[1, 9, 9], BandwidthModel::Local, &plan, codec).unwrap_err(),
            EngineError::DuplicateMaxId { id: 9, holders: 2 }
        );
    }

    /// Uncorrected flips can raise an id above the maximum: the election
    /// then reports the displacement instead of panicking, and otherwise
    /// elects the maximum's holder.
    #[test]
    fn displaced_maximum_is_a_typed_error() {
        let g = topology::grid(10, 25);
        let ids: Vec<u64> = (0..250u64).map(|v| v * 7919 % 62_500).collect();
        let max = *ids.iter().max().unwrap();
        let model = BandwidthModel::Congest { bits_per_edge: 64 };
        let mut displaced = 0;
        for seed in 0..20 {
            let plan = FaultPlan::seeded(seed).with_flips(3e-3);
            let codec = IdentityCodec::<Compact>::new();
            match elect_leader_coded(&g, &ids, model, &plan, codec) {
                Ok((leader, ..)) => assert_eq!(ids[leader], max),
                Err(EngineError::MaxIdDisplaced { id, by }) => {
                    assert_eq!(id, max);
                    assert!(by > max, "seed {seed}: displaced by {by}");
                    displaced += 1;
                }
                Err(other) => panic!("seed {seed}: {other}"),
            }
        }
        assert!(displaced > 0, "no seed displaced the maximum");
    }

    #[test]
    fn wrong_id_count_rejected() {
        let g = topology::line(3);
        let mismatch = EngineError::NodeCountMismatch {
            graph_nodes: 3,
            states: 2,
        };
        assert_eq!(
            elect_leader(&g, &[5, 1], BandwidthModel::Local),
            Err(mismatch.clone())
        );
        let plan = FaultPlan::none();
        let codec = IdentityCodec::<Compact>::new();
        assert_eq!(
            elect_leader_coded(&g, &[5, 1], BandwidthModel::Local, &plan, codec).unwrap_err(),
            mismatch
        );
    }
}
