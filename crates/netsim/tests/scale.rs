//! Million-node smoke tests for implicit topologies, stepping every
//! node on them, and stepping only the nodes with mail.
//!
//! These run on 10⁶-node graphs and are `#[ignore]`d so the ordinary
//! debug test lane stays fast; the `netsim-scale` CI lane runs them in
//! release mode with `-- --ignored`.

use dut_netsim::algorithms::{broadcast_value, build_bfs_tree, convergecast_sum};
use dut_netsim::engine::{BandwidthModel, Network, NodeProtocol, Outbox, RunReport};
use dut_netsim::fault::FaultPlan;
use dut_netsim::graph::{ImplicitTopology, NodeId};
use dut_netsim::topology::Torus2d;
use dut_obs::NoopSink;

/// 1000×1000 torus: one million nodes, two million edges, never
/// materialized.
fn million_node_torus() -> Torus2d {
    Torus2d::new(1000, 1000)
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Bfs {
    dist: Option<u64>,
}

impl NodeProtocol for Bfs {
    type Msg = u64;
    fn on_round(
        &mut self,
        node: NodeId,
        round: usize,
        inbox: &[(NodeId, u64)],
        out: &mut Outbox<'_, u64>,
    ) {
        if self.dist.is_some() {
            return;
        }
        if node == 0 && round == 0 {
            self.dist = Some(0);
            out.broadcast(1);
        } else if let Some(&d) = inbox.iter().map(|(_, d)| d).min() {
            self.dist = Some(d);
            out.broadcast(d + 1);
        }
    }
    fn is_done(&self) -> bool {
        self.dist.is_some()
    }
    fn wants_round(&self) -> bool {
        false
    }
}

/// Bounded gossip: every node broadcasts for a few rounds, folding its
/// inbox into an accumulator — a delivery-heavy load whose final state
/// is sensitive to delivery order, so it pins bit-identity hard.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Gossip {
    rounds_left: u64,
    acc: u64,
}

impl NodeProtocol for Gossip {
    type Msg = u64;
    fn on_round(
        &mut self,
        node: NodeId,
        _round: usize,
        inbox: &[(NodeId, u64)],
        out: &mut Outbox<'_, u64>,
    ) {
        for &(from, v) in inbox {
            self.acc = self.acc.wrapping_mul(31).wrapping_add(v ^ from as u64);
        }
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            out.broadcast(self.acc.wrapping_add(node as u64));
        }
    }
    fn is_done(&self) -> bool {
        self.rounds_left == 0
    }
}

fn assert_reports_equal<P: PartialEq + std::fmt::Debug>(
    label: &str,
    a: &RunReport<P>,
    b: &RunReport<P>,
) {
    assert_eq!(a.rounds, b.rounds, "{label}: rounds");
    assert_eq!(a.total_messages, b.total_messages, "{label}: messages");
    assert_eq!(a.total_bits, b.total_bits, "{label}: bits");
    assert_eq!(
        a.max_edge_bits_per_round, b.max_edge_bits_per_round,
        "{label}: max_edge_bits_per_round"
    );
    assert_eq!(a.dropped_messages, b.dropped_messages, "{label}: drops");
    assert_eq!(a.flipped_bits, b.flipped_bits, "{label}: flips");
    assert!(a.nodes == b.nodes, "{label}: final states diverge");
}

/// The headline smoke: BFS over a 10⁶-node implicit torus completes
/// within the round budget and visits every node. The protocol never
/// asks to wake, so the engine keeps the settled interior off the
/// per-round hot path.
#[test]
#[ignore = "million-node smoke; run via the netsim-scale lane (release, --ignored)"]
fn million_node_torus_bfs_completes() {
    let torus = million_node_torus();
    let k = torus.node_count();
    let mut net = Network::new(&torus, BandwidthModel::Local);
    let report = net
        .run(
            vec![Bfs { dist: None }; k],
            1100,
            &FaultPlan::none(),
            &mut NoopSink,
        )
        .expect("BFS on the 1000x1000 torus must quiesce");
    // Torus eccentricity of node 0 is 500 + 500; one extra round drains
    // the frontier's last broadcasts, one more observes quiescence.
    assert_eq!(report.rounds, 1002);
    assert!(report.nodes.iter().all(|n| n.dist.is_some()));
    let far = report.nodes.iter().filter_map(|n| n.dist).max().unwrap();
    assert_eq!(far, 1000);
}

/// The tree phases of the CONGEST tester through their public entry
/// points on the 10⁶-node torus: BFS tree, convergecast of one per node,
/// broadcast of the total. Stepping every node every round would cost
/// about 3·10⁹ node visits over the three ~1000-round phases; the
/// default path steps only nodes with mail, so this finishes as a
/// smoke test.
#[test]
#[ignore = "million-node smoke; run via the netsim-scale lane (release, --ignored)"]
fn million_node_tree_phases_complete() {
    let torus = million_node_torus();
    let k = torus.node_count();
    let model = BandwidthModel::congest_for(k);
    let (tree, bfs_rounds) = build_bfs_tree(&torus, 0, model).expect("BFS tree");
    assert_eq!(tree.height, 1000);
    assert_eq!(bfs_rounds, 1002);
    let (sum, _) = convergecast_sum(&torus, &tree, &vec![1; k], model).expect("convergecast");
    assert_eq!(sum, k as u64);
    let (values, _) = broadcast_value(&torus, &tree, sum, model).expect("broadcast");
    assert_eq!(values.len(), k);
    assert!(values.iter().all(|&v| v == k as u64));
}

/// A million-node gossip burst on the implicit torus and on its
/// materialized graph: reports and all 10⁶ final states must be
/// bit-identical.
#[test]
#[ignore = "million-node smoke; run via the netsim-scale lane (release, --ignored)"]
fn million_node_gossip_matches_materialized() {
    let torus = million_node_torus();
    let g = torus.materialize();
    let k = torus.node_count();
    let states = || {
        (0..k)
            .map(|v| Gossip {
                rounds_left: 3,
                acc: v as u64,
            })
            .collect::<Vec<_>>()
    };
    let implicit = Network::new(&torus, BandwidthModel::Local)
        .run(states(), 16, &FaultPlan::none(), &mut NoopSink)
        .unwrap();
    let materialized = Network::new(&g, BandwidthModel::Local)
        .run(states(), 16, &FaultPlan::none(), &mut NoopSink)
        .unwrap();
    assert_reports_equal("million-gossip", &materialized, &implicit);
}

/// Same bit-identity demand with a nonzero fault plan: drops, flips,
/// and a crash schedule on both forms of the torus.
#[test]
#[ignore = "million-node smoke; run via the netsim-scale lane (release, --ignored)"]
fn million_node_gossip_matches_materialized_under_faults() {
    let torus = million_node_torus();
    let g = torus.materialize();
    let k = torus.node_count();
    let plan = FaultPlan::seeded(0x5CA1E)
        .with_drops(0.02)
        .with_flips(0.0005)
        .with_crash(7, 1);
    let states = || {
        (0..k)
            .map(|v| Gossip {
                rounds_left: 2,
                acc: v as u64,
            })
            .collect::<Vec<_>>()
    };
    let implicit = Network::new(&torus, BandwidthModel::Local)
        .run(states(), 16, &plan, &mut NoopSink)
        .unwrap();
    let materialized = Network::new(&g, BandwidthModel::Local)
        .run(states(), 16, &plan, &mut NoopSink)
        .unwrap();
    assert_reports_equal("million-gossip-faulted", &materialized, &implicit);
}
