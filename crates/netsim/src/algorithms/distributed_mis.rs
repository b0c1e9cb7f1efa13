//! Luby's MIS as a message-passing protocol on the round engine.
//!
//! [`super::mis::luby_mis`] computes the MIS with direct access to the
//! graph — the right tool when simulating an MIS on the power graph
//! `G^r` (where one logical phase costs `O(r)` rounds of `G`). This
//! module implements the *fully distributed* version on the
//! communication graph itself, paying its real rounds on the engine:
//!
//! Each phase takes three rounds — (1) undecided nodes broadcast a
//! random priority, (2) local maxima join the MIS and announce it,
//! (3) their neighbors retire and announce that. Messages are
//! `O(log k)` bits, so the protocol runs in CONGEST.

use crate::engine::{BandwidthModel, EngineError, Network, NodeProtocol, Outbox};
use crate::fault::{FaultInjectable, FaultPlan};
use crate::graph::{Graph, NodeId};
use dut_obs::NoopSink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Node status in the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Undecided,
    InMis,
    Retired,
}

/// Per-node state of the distributed Luby protocol.
#[derive(Debug, Clone, PartialEq)]
struct LubyNode {
    status: Status,
    rng: StdRng,
    my_priority: u64,
    /// Priorities heard from undecided neighbors this phase.
    best_neighbor: u64,
    /// Neighbors known to still be undecided.
    undecided_neighbors: usize,
    phases: usize,
}

/// Message: tagged value. Low bit encodes the kind, the rest the
/// payload — priorities are drawn from 2^48 so the packing stays within
/// the CONGEST budget for any realistic k.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LubyMsg {
    Priority(u64),
    JoinedMis,
    Retired,
}

impl crate::engine::MessageSize for LubyMsg {
    fn size_bits(&self) -> usize {
        match self {
            // kind tag + 48-bit priority
            LubyMsg::Priority(_) => 2 + 48,
            LubyMsg::JoinedMis | LubyMsg::Retired => 2,
        }
    }
}

/// Flips act on the metered encoding: a 2-bit kind tag (`00` priority,
/// `01` joined, `11` retired), then the 48-bit priority. A flip that
/// would not leave a message of the same metered width — a priority's
/// tag, or a control tag turned into `00` or the unused `10` — is a
/// no-op, so every flip is its own inverse.
impl FaultInjectable for LubyMsg {
    fn flip_bit(&mut self, bit: usize) {
        *self = match (*self, bit) {
            (LubyMsg::Priority(p), 2..50) => LubyMsg::Priority(p ^ (1 << (bit - 2))),
            (LubyMsg::JoinedMis, 1) => LubyMsg::Retired,
            (LubyMsg::Retired, 1) => LubyMsg::JoinedMis,
            (msg, _) => msg,
        };
    }
}

impl NodeProtocol for LubyNode {
    type Msg = LubyMsg;

    fn on_round(
        &mut self,
        _node: NodeId,
        round: usize,
        inbox: &[(NodeId, LubyMsg)],
        out: &mut Outbox<'_, LubyMsg>,
    ) {
        // Process announcements first (phase step 2/3 of the senders).
        for &(_, msg) in inbox {
            match msg {
                LubyMsg::JoinedMis => {
                    if self.status == Status::Undecided {
                        self.status = Status::Retired;
                        out.broadcast(LubyMsg::Retired);
                    }
                    self.undecided_neighbors = self.undecided_neighbors.saturating_sub(1);
                }
                LubyMsg::Retired => {
                    self.undecided_neighbors = self.undecided_neighbors.saturating_sub(1);
                }
                LubyMsg::Priority(p) => {
                    self.best_neighbor = self.best_neighbor.max(p);
                }
            }
        }
        if self.status != Status::Undecided {
            return;
        }
        // Three-round phase schedule, offset by round % 3.
        match round % 3 {
            0 => {
                // Draw and broadcast a fresh priority.
                self.my_priority = self.rng.gen_range(0..(1u64 << 48));
                self.best_neighbor = 0;
                self.phases += 1;
                out.broadcast(LubyMsg::Priority(self.my_priority));
            }
            1
                // Local maximum (strict, by priority then implicit since
                // collisions at 48 bits are negligible and resolved next
                // phase) joins the MIS.
                if (self.undecided_neighbors == 0 || self.my_priority > self.best_neighbor) => {
                    self.status = Status::InMis;
                    out.broadcast(LubyMsg::JoinedMis);
                }
            _ => {
                // Round 2 of the phase: retirement notices propagate
                // (handled in the inbox loop above).
            }
        }
    }

    fn is_done(&self) -> bool {
        self.status != Status::Undecided
    }

    fn wants_round(&self) -> bool {
        // An undecided node follows the three-round phase clock; a
        // decided one only reacts to announcements.
        self.status == Status::Undecided
    }
}

/// The result of a distributed MIS run.
#[derive(Debug, Clone)]
pub struct DistributedMisResult {
    /// MIS membership per node.
    pub in_mis: Vec<bool>,
    /// Engine rounds consumed.
    pub rounds: usize,
    /// Total bits sent.
    pub bits: usize,
}

/// Initial states on `g`: every node undecided, with its private
/// randomness derived from `seed`.
fn luby_states(g: &Graph, seed: u64) -> Vec<LubyNode> {
    (0..g.node_count())
        .map(|v| LubyNode {
            status: Status::Undecided,
            rng: StdRng::seed_from_u64(seed ^ (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            my_priority: 0,
            best_neighbor: 0,
            undecided_neighbors: g.degree(v),
            phases: 0,
        })
        .collect()
}

/// Runs the distributed Luby protocol on `g` under `model`; `seed`
/// derives each node's private randomness.
///
/// # Errors
///
/// Propagates engine errors ([`EngineError::RoundLimit`] is
/// astronomically unlikely before `O(log k)` phases complete).
pub fn distributed_luby_mis(
    g: &Graph,
    model: BandwidthModel,
    seed: u64,
) -> Result<DistributedMisResult, EngineError> {
    let k = g.node_count();
    let states = luby_states(g, seed);
    let max_rounds = 90 * (k.max(2).ilog2() as usize + 2);
    let report =
        Network::new(g, model).run(states, max_rounds, &FaultPlan::none(), &mut NoopSink)?;
    let in_mis = report
        .nodes
        .iter()
        .map(|n| n.status == Status::InMis)
        .collect();
    Ok(DistributedMisResult {
        in_mis,
        rounds: report.rounds,
        bits: report.total_bits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::mis::verify_mis;
    use crate::topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn valid_mis_on_line() {
        let g = topology::line(20);
        let r = distributed_luby_mis(&g, BandwidthModel::Local, 1).unwrap();
        assert!(verify_mis(&g, &r.in_mis));
    }

    #[test]
    fn valid_mis_on_all_topologies_and_seeds() {
        let mut rng = StdRng::seed_from_u64(2);
        for t in topology::Topology::ALL {
            let g = t.instantiate(48, &mut rng);
            for seed in 0..5u64 {
                let r = distributed_luby_mis(&g, BandwidthModel::Local, seed).unwrap();
                assert!(
                    verify_mis(&g, &r.in_mis),
                    "invalid MIS on {} seed {seed}",
                    t.name()
                );
            }
        }
    }

    #[test]
    fn runs_in_congest() {
        let g = topology::grid(8, 8);
        let model = BandwidthModel::Congest { bits_per_edge: 64 };
        let r = distributed_luby_mis(&g, model, 3).unwrap();
        assert!(verify_mis(&g, &r.in_mis));
    }

    #[test]
    fn rounds_are_logarithmic() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = topology::connected_erdos_renyi(400, 0.02, &mut rng);
        let r = distributed_luby_mis(&g, BandwidthModel::Local, 5).unwrap();
        // 3 rounds/phase, O(log k) phases w.h.p.
        assert!(
            r.rounds <= 3 * 40,
            "distributed Luby took {} rounds on 400 nodes",
            r.rounds
        );
    }

    #[test]
    fn agrees_with_centralized_on_edgeless_graph() {
        let g = Graph::new(9);
        let r = distributed_luby_mis(&g, BandwidthModel::Local, 6).unwrap();
        assert!(r.in_mis.iter().all(|&m| m), "all isolated nodes join");
    }

    #[test]
    fn luby_msg_flips_round_trip() {
        use crate::engine::MessageSize;
        for msg in [
            LubyMsg::Priority(0),
            LubyMsg::Priority((1 << 48) - 1),
            LubyMsg::Priority(0x1234_5678_9ABC),
            LubyMsg::JoinedMis,
            LubyMsg::Retired,
        ] {
            let bits = msg.size_bits();
            for b in 0..bits {
                let mut m = msg;
                m.flip_bit(b);
                assert_eq!(m.size_bits(), bits, "{msg:?} bit {b} keeps its width");
                m.flip_bit(b);
                assert_eq!(m, msg, "{msg:?} bit {b}");
            }
        }
        let mut p = LubyMsg::Priority(1);
        p.flip_bit(2);
        assert_eq!(p, LubyMsg::Priority(0), "bit 2 is the priority's low bit");
    }

    /// Undecided nodes follow the phase clock with an empty inbox;
    /// decided ones sleep until an announcement arrives.
    #[test]
    fn luby_matches_reference_engine() {
        use crate::algorithms::reference_check;
        reference_check::assert_matches_reference("luby", |g| luby_states(g, 11));
    }

    #[test]
    fn complete_graph_elects_exactly_one() {
        let g = topology::complete(15);
        let r = distributed_luby_mis(&g, BandwidthModel::Local, 7).unwrap();
        assert_eq!(r.in_mis.iter().filter(|&&m| m).count(), 1);
    }
}
