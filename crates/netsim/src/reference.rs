//! The retained naive round engine, for differential testing and
//! benchmarking.
//!
//! This is the engine the crate shipped with before the flat-buffer
//! rewrite in [`crate::engine`]: per-node `Vec<Vec<(NodeId, Msg)>>`
//! inboxes reallocated every round, a fresh outbox per node per round,
//! and per-send linear scans for CONGEST accounting. It is kept —
//! semantics frozen — as the executable specification the optimized
//! engine is differentially tested against (`tests/differential.rs`)
//! and as the "before" side of the `netsim` benchmarks.
//!
//! Use [`crate::engine::Network`] for real work.

use crate::engine::{BandwidthModel, EngineError, MessageSize, NodeProtocol, Outbox, RunReport};
use crate::fault::{FaultInjectable, FaultPlan};
use crate::graph::{Graph, NodeId};
use dut_obs::{keys, Sink, Span};

/// Runs `states` on `graph` under `model` with the naive engine,
/// recording metrics into `sink` under the `reference.*` keys (see
/// [`dut_obs::keys`]) — the same shape the flat engine records under
/// `netsim.*`, so a differential harness can compare the two engines'
/// per-round cost profiles, not just their final reports. An active
/// `plan` adds the `reference.fault.*` fault totals.
///
/// Semantics (decisions, metrics, error values) match
/// [`crate::engine::Network::run`] with the same plan exactly; only the
/// implementation strategy — and therefore the allocation profile —
/// differs. Like the engine, a [`FaultPlan::none`] plan takes the clean
/// body.
///
/// # Errors
///
/// Same conditions as [`crate::engine::Network::run`].
pub fn run_reference<P>(
    graph: &Graph,
    model: BandwidthModel,
    states: Vec<P>,
    max_rounds: usize,
    plan: &FaultPlan,
    sink: &mut dyn Sink,
) -> Result<RunReport<P>, EngineError>
where
    P: NodeProtocol,
    P::Msg: FaultInjectable,
{
    let k = graph.node_count();
    if k == 0 {
        // Mirrors the flat engine: an empty network is a typed error,
        // not a vacuous 1-round success.
        return Err(EngineError::EmptyNetwork);
    }
    if states.len() != k {
        return Err(EngineError::NodeCountMismatch {
            graph_nodes: k,
            states: states.len(),
        });
    }
    if plan.is_none() {
        run_clean(graph, model, states, max_rounds, sink)
    } else {
        run_faulted(graph, model, states, max_rounds, plan, sink)
    }
}

/// The unfaulted executable specification, for a non-empty graph with
/// one state per node.
fn run_clean<P: NodeProtocol>(
    graph: &Graph,
    model: BandwidthModel,
    states: Vec<P>,
    max_rounds: usize,
    sink: &mut dyn Sink,
) -> Result<RunReport<P>, EngineError> {
    let k = graph.node_count();
    let mut states = states;
    let mut inboxes: Vec<Vec<(NodeId, P::Msg)>> = vec![Vec::new(); k];
    let mut next_inboxes: Vec<Vec<(NodeId, P::Msg)>> = vec![Vec::new(); k];
    // Dense neighbor-position index required by the shared `Outbox`;
    // filled and cleared per node, all-zero in between.
    let mut neighbor_pos: Vec<u32> = vec![0; k];
    let mut total_messages = 0usize;
    let mut total_bits = 0usize;
    let mut max_edge_bits = 0usize;

    for round in 0..max_rounds {
        // Quiescence check: nothing in flight and everyone done.
        let in_flight = inboxes.iter().any(|b| !b.is_empty());
        if round > 0 && !in_flight && states.iter().all(NodeProtocol::is_done) {
            if sink.enabled() {
                sink.add(keys::REFERENCE_RUNS, 1);
                sink.add(keys::REFERENCE_ROUNDS, round as u64);
                sink.add(keys::REFERENCE_MESSAGES, total_messages as u64);
                sink.add(keys::REFERENCE_BITS, total_bits as u64);
            }
            return Ok(RunReport {
                rounds: round,
                total_messages,
                total_bits,
                max_edge_bits_per_round: max_edge_bits,
                dropped_messages: 0,
                flipped_bits: 0,
                nodes: states,
            });
        }
        let span = Span::start(&*sink);
        let (prev_messages, prev_bits) = (total_messages, total_bits);
        let mut round_max = 0usize;

        for (node, state) in states.iter_mut().enumerate() {
            let neighbors = graph.neighbors(node);
            let mut sends: Vec<(NodeId, NodeId, P::Msg)> = Vec::new();
            let mut out = Outbox::new(node, neighbors, &mut neighbor_pos, &mut sends);
            state.on_round(node, round, &inboxes[node], &mut out);
            if let Some(to) = out.bad_send() {
                return Err(EngineError::NotANeighbor {
                    from: node,
                    to,
                    round,
                });
            }
            for &nb in neighbors {
                neighbor_pos[nb] = 0;
            }

            // Deliver (and meter) this node's sends.
            // Per-destination bit accounting for CONGEST.
            let mut sent_bits_to: Vec<(NodeId, usize)> = Vec::new();
            for (to, _, msg) in sends {
                let bits = msg.size_bits();
                let entry = match sent_bits_to.iter_mut().find(|(d, _)| *d == to) {
                    Some(e) => {
                        e.1 += bits;
                        e.1
                    }
                    None => {
                        sent_bits_to.push((to, bits));
                        bits
                    }
                };
                if let BandwidthModel::Congest { bits_per_edge } = model {
                    if entry > bits_per_edge {
                        return Err(EngineError::BandwidthExceeded {
                            from: node,
                            to,
                            round,
                            bits: entry,
                            budget: bits_per_edge,
                        });
                    }
                }
                round_max = round_max.max(entry);
                total_messages += 1;
                total_bits += bits;
                next_inboxes[to].push((node, msg));
            }
        }

        for b in inboxes.iter_mut() {
            b.clear();
        }
        std::mem::swap(&mut inboxes, &mut next_inboxes);
        max_edge_bits = max_edge_bits.max(round_max);
        if sink.enabled() {
            sink.observe(
                keys::REFERENCE_ROUND_MESSAGES,
                (total_messages - prev_messages) as u64,
            );
            sink.observe(keys::REFERENCE_ROUND_BITS, (total_bits - prev_bits) as u64);
            sink.observe(keys::REFERENCE_ROUND_MAX_EDGE_BITS, round_max as u64);
            span.finish(sink, keys::REFERENCE_ROUND_NANOS);
        }
    }
    Err(EngineError::RoundLimit { max_rounds })
}

/// The faulted executable specification, for a non-empty graph with
/// one state per node, in the naive style:
/// per-send linear scans for CONGEST accounting *and* for the per-edge
/// message index that keys the fault stream. The flat engine's fault
/// paths are differentially tested against it.
///
/// Semantics mirror the flat engine exactly: crashed nodes are skipped
/// and count as done for quiescence; every send is metered at its
/// original size (the sender pays even for dropped messages); the plan
/// then drops or bit-flips the message before delivery.
fn run_faulted<P>(
    graph: &Graph,
    model: BandwidthModel,
    states: Vec<P>,
    max_rounds: usize,
    plan: &FaultPlan,
    sink: &mut dyn Sink,
) -> Result<RunReport<P>, EngineError>
where
    P: NodeProtocol,
    P::Msg: FaultInjectable,
{
    let k = graph.node_count();
    let mut states = states;
    let mut inboxes: Vec<Vec<(NodeId, P::Msg)>> = vec![Vec::new(); k];
    let mut next_inboxes: Vec<Vec<(NodeId, P::Msg)>> = vec![Vec::new(); k];
    let mut neighbor_pos: Vec<u32> = vec![0; k];
    let mut total_messages = 0usize;
    let mut total_bits = 0usize;
    let mut max_edge_bits = 0usize;
    let mut dropped_messages = 0usize;
    let mut flipped_bits = 0usize;

    for round in 0..max_rounds {
        let in_flight = inboxes.iter().any(|b| !b.is_empty());
        let quiescent = round > 0
            && !in_flight
            && states.iter().enumerate().all(|(v, s)| {
                s.is_done() || (plan.crashed(v, round) && !plan.will_rejoin(v, round))
            });
        if quiescent {
            if sink.enabled() {
                sink.add(keys::REFERENCE_RUNS, 1);
                sink.add(keys::REFERENCE_ROUNDS, round as u64);
                sink.add(keys::REFERENCE_MESSAGES, total_messages as u64);
                sink.add(keys::REFERENCE_BITS, total_bits as u64);
                sink.add(
                    keys::REFERENCE_FAULT_DROPPED_MESSAGES,
                    dropped_messages as u64,
                );
                sink.add(keys::REFERENCE_FAULT_FLIPPED_BITS, flipped_bits as u64);
            }
            return Ok(RunReport {
                rounds: round,
                total_messages,
                total_bits,
                max_edge_bits_per_round: max_edge_bits,
                dropped_messages,
                flipped_bits,
                nodes: states,
            });
        }
        let span = Span::start(&*sink);
        let (prev_messages, prev_bits) = (total_messages, total_bits);
        let mut round_max = 0usize;

        for (node, state) in states.iter_mut().enumerate() {
            if plan.crashed(node, round) {
                continue;
            }
            if plan.rejoins_at(node, round) {
                state.on_rejoin(node, round);
            }
            let neighbors = graph.neighbors(node);
            let mut sends: Vec<(NodeId, NodeId, P::Msg)> = Vec::new();
            let mut out = Outbox::new(node, neighbors, &mut neighbor_pos, &mut sends);
            state.on_round(node, round, &inboxes[node], &mut out);
            if let Some(to) = out.bad_send() {
                return Err(EngineError::NotANeighbor {
                    from: node,
                    to,
                    round,
                });
            }
            for &nb in neighbors {
                neighbor_pos[nb] = 0;
            }

            // Per-destination bit totals and message counts; the count
            // is the fault stream's per-edge message index.
            let mut sent_to: Vec<(NodeId, usize, usize)> = Vec::new();
            for (to, _, mut msg) in sends {
                let bits = msg.size_bits();
                let (entry, idx) = match sent_to.iter_mut().find(|(d, _, _)| *d == to) {
                    Some(e) => {
                        e.1 += bits;
                        e.2 += 1;
                        (e.1, e.2 - 1)
                    }
                    None => {
                        sent_to.push((to, bits, 1));
                        (bits, 0)
                    }
                };
                if let BandwidthModel::Congest { bits_per_edge } = model {
                    if entry > bits_per_edge {
                        return Err(EngineError::BandwidthExceeded {
                            from: node,
                            to,
                            round,
                            bits: entry,
                            budget: bits_per_edge,
                        });
                    }
                }
                round_max = round_max.max(entry);
                total_messages += 1;
                total_bits += bits;
                match plan.apply(round, node, to, idx, &mut msg) {
                    None => dropped_messages += 1,
                    Some(flips) => {
                        flipped_bits += flips as usize;
                        next_inboxes[to].push((node, msg));
                    }
                }
            }
        }

        for b in inboxes.iter_mut() {
            b.clear();
        }
        std::mem::swap(&mut inboxes, &mut next_inboxes);
        max_edge_bits = max_edge_bits.max(round_max);
        if sink.enabled() {
            sink.observe(
                keys::REFERENCE_ROUND_MESSAGES,
                (total_messages - prev_messages) as u64,
            );
            sink.observe(keys::REFERENCE_ROUND_BITS, (total_bits - prev_bits) as u64);
            sink.observe(keys::REFERENCE_ROUND_MAX_EDGE_BITS, round_max as u64);
            span.finish(sink, keys::REFERENCE_ROUND_NANOS);
        }
    }
    Err(EngineError::RoundLimit { max_rounds })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;
    use dut_obs::NoopSink;

    #[derive(Clone, Debug)]
    struct Flood {
        seen: bool,
    }

    impl NodeProtocol for Flood {
        type Msg = ();
        fn on_round(
            &mut self,
            node: NodeId,
            round: usize,
            inbox: &[(NodeId, ())],
            out: &mut Outbox<'_, ()>,
        ) {
            let newly = (node == 0 && round == 0) || (!self.seen && !inbox.is_empty());
            if newly {
                self.seen = true;
                out.broadcast(());
            }
        }
        fn is_done(&self) -> bool {
            self.seen
        }
    }

    #[test]
    fn reference_preserves_seed_behavior() {
        let g = topology::line(8);
        let report = run_reference(
            &g,
            BandwidthModel::Local,
            vec![Flood { seen: false }; 8],
            32,
            &FaultPlan::none(),
            &mut NoopSink,
        )
        .unwrap();
        assert!(report.nodes.iter().all(|n| n.seen));
        assert_eq!(report.rounds, 9);

        let g3 = topology::line(3);
        let r3 = run_reference(
            &g3,
            BandwidthModel::Local,
            vec![Flood { seen: false }; 3],
            32,
            &FaultPlan::none(),
            &mut NoopSink,
        )
        .unwrap();
        assert_eq!(r3.total_messages, 4);
        assert_eq!(r3.total_bits, 4);
        assert_eq!(r3.max_edge_bits_per_round, 1);
    }

    #[test]
    fn reference_detects_node_count_mismatch() {
        let g = topology::line(3);
        let err = run_reference(
            &g,
            BandwidthModel::Local,
            vec![Flood { seen: false }; 2],
            8,
            &FaultPlan::none(),
            &mut NoopSink,
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::NodeCountMismatch { .. }));
    }
}
