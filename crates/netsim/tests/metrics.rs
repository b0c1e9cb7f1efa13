//! Metrics-layer consistency: what a [`Sink`] accumulates must agree
//! with the engine's own [`RunReport`], and observing a run must never
//! change its outcome.

use dut_netsim::algorithms::{broadcast_value_observed, build_bfs_tree, convergecast_sum_observed};
use dut_netsim::engine::{BandwidthModel, Network, NodeProtocol, Outbox};
use dut_netsim::graph::{Graph, NodeId};
use dut_netsim::reference::run_reference;
use dut_netsim::{topology, FaultPlan};
use dut_obs::{keys, MemorySink, NoopSink};

/// Flood with a 32-bit payload so bit totals are non-trivial.
#[derive(Clone, Debug)]
struct Flood {
    seen: bool,
}

impl NodeProtocol for Flood {
    type Msg = u32;
    fn on_round(
        &mut self,
        node: NodeId,
        round: usize,
        inbox: &[(NodeId, u32)],
        out: &mut Outbox<'_, u32>,
    ) {
        let newly = (node == 0 && round == 0) || (!self.seen && !inbox.is_empty());
        if newly {
            self.seen = true;
            out.broadcast(7);
        }
    }
    fn is_done(&self) -> bool {
        self.seen
    }
}

fn flood_states(n: usize) -> Vec<Flood> {
    vec![Flood { seen: false }; n]
}

fn topologies() -> Vec<(&'static str, Graph)> {
    vec![
        ("clique", topology::complete(16)),
        ("line", topology::line(16)),
        ("tree", topology::balanced_binary_tree(15)),
    ]
}

#[test]
fn sink_bits_match_report_on_clique_line_tree() {
    for (name, g) in topologies() {
        let n = g.node_count();
        let mut net = Network::new(&g, BandwidthModel::Local);
        let mut sink = MemorySink::new();
        let report = net
            .run(flood_states(n), 64, &FaultPlan::none(), &mut sink)
            .unwrap();

        assert_eq!(
            sink.counter(keys::NETSIM_BITS),
            report.total_bits as u64,
            "{name}: sink bits != report bits"
        );
        assert_eq!(
            sink.counter(keys::NETSIM_MESSAGES),
            report.total_messages as u64
        );
        assert_eq!(sink.counter(keys::NETSIM_ROUNDS), report.rounds as u64);
        assert_eq!(sink.counter(keys::NETSIM_RUNS), 1);

        // Per-round histograms must sum back to the run totals, with
        // one observation per executed round.
        let round_bits = sink.histogram(keys::NETSIM_ROUND_BITS).unwrap();
        assert_eq!(round_bits.sum(), report.total_bits as u64, "{name}");
        assert_eq!(round_bits.count(), report.rounds as u64, "{name}");
        let round_msgs = sink.histogram(keys::NETSIM_ROUND_MESSAGES).unwrap();
        assert_eq!(round_msgs.sum(), report.total_messages as u64, "{name}");

        // The per-run edge max is the max over per-round edge maxima.
        let run_max = sink.histogram(keys::NETSIM_RUN_MAX_EDGE_BITS).unwrap();
        assert_eq!(
            run_max.max(),
            report.max_edge_bits_per_round as u64,
            "{name}"
        );
        let round_max = sink.histogram(keys::NETSIM_ROUND_MAX_EDGE_BITS).unwrap();
        assert_eq!(
            round_max.max(),
            report.max_edge_bits_per_round as u64,
            "{name}"
        );
    }
}

#[test]
fn noop_sink_is_bit_identical_to_unobserved_runs() {
    for (name, g) in topologies() {
        let n = g.node_count();
        let mut net = Network::new(&g, BandwidthModel::Congest { bits_per_edge: 64 });
        let plain = net
            .run(flood_states(n), 64, &FaultPlan::none(), &mut NoopSink)
            .unwrap();
        let noop = net
            .run(flood_states(n), 64, &FaultPlan::none(), &mut NoopSink)
            .unwrap();
        let mut mem = MemorySink::new();
        let observed = net
            .run(flood_states(n), 64, &FaultPlan::none(), &mut mem)
            .unwrap();

        for (label, r) in [("noop", &noop), ("memory", &observed)] {
            assert_eq!(r.rounds, plain.rounds, "{name}/{label}");
            assert_eq!(r.total_messages, plain.total_messages, "{name}/{label}");
            assert_eq!(r.total_bits, plain.total_bits, "{name}/{label}");
            assert_eq!(
                r.max_edge_bits_per_round, plain.max_edge_bits_per_round,
                "{name}/{label}"
            );
        }

        // Differential check against the reference engine, both ways.
        let reference = run_reference(
            &g,
            net.model(),
            flood_states(n),
            64,
            &FaultPlan::none(),
            &mut NoopSink,
        )
        .unwrap();
        let mut ref_sink = MemorySink::new();
        let reference_obs = run_reference(
            &g,
            net.model(),
            flood_states(n),
            64,
            &FaultPlan::none(),
            &mut ref_sink,
        )
        .unwrap();
        assert_eq!(reference.rounds, plain.rounds, "{name}");
        assert_eq!(reference.total_bits, plain.total_bits, "{name}");
        assert_eq!(reference_obs.total_bits, plain.total_bits, "{name}");
        assert_eq!(
            ref_sink.counter(keys::REFERENCE_BITS),
            mem.counter(keys::NETSIM_BITS),
            "{name}: the two engines' sinks disagree"
        );
    }
}

#[test]
fn tree_primitives_report_their_wire_cost() {
    let g = topology::balanced_binary_tree(15);
    let model = BandwidthModel::congest_for(64);
    let (tree, _) = build_bfs_tree(&g, 0, model).unwrap();
    let mut sink = MemorySink::new();

    let values = vec![1u64; g.node_count()];
    let (total, conv_cost) =
        convergecast_sum_observed(&g, &tree, &values, model, &mut sink).unwrap();
    assert_eq!(total, 15);
    assert_eq!(sink.counter(keys::CONVERGECAST_RUNS), 1);
    assert_eq!(sink.counter(keys::CONVERGECAST_BITS), conv_cost.bits as u64);
    assert_eq!(
        sink.counter(keys::CONVERGECAST_ROUNDS),
        conv_cost.rounds as u64
    );
    // Every non-root node sends exactly one message up the tree.
    assert_eq!(conv_cost.messages, g.node_count() - 1);

    let (vals, bcast_cost) = broadcast_value_observed(&g, &tree, 9, model, &mut sink).unwrap();
    assert!(vals.iter().all(|&v| v == 9));
    assert_eq!(sink.counter(keys::BROADCAST_BITS), bcast_cost.bits as u64);
    assert_eq!(bcast_cost.messages, g.node_count() - 1);

    // The engine-layer counters saw both runs.
    assert_eq!(
        sink.counter(keys::NETSIM_BITS),
        (conv_cost.bits + bcast_cost.bits) as u64
    );
    assert_eq!(sink.counter(keys::NETSIM_RUNS), 2);
}
