//! Differential tests for the million-node scaling features:
//!
//! * implicit topologies vs their materialized [`Graph`]s —
//!   neighbor-for-neighbor equivalence (proptest over `k ≤ 512`, all
//!   families) and bit-identical engine runs;
//! * stepping a protocol only on mail (a wake rule that never asks for
//!   a round) vs stepping it every round, and vs the reference engine;
//! * dense stepping on an implicit topology vs the reference engine on
//!   its materialized graph, with and without fault plans.

use dut_netsim::engine::{BandwidthModel, EngineError, Network, NodeProtocol, Outbox, RunReport};
use dut_netsim::fault::FaultPlan;
use dut_netsim::graph::{Graph, ImplicitTopology, NodeId};
use dut_netsim::reference::run_reference;
use dut_netsim::topology::{
    Hypercube, ImplicitLine, ImplicitRing, ImplicitTree, MargulisExpander, Torus2d,
};
use dut_obs::NoopSink;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Protocols (same shapes as tests/differential.rs)
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
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
}

/// Gossip that keeps every node sending for a fixed number of rounds —
/// a delivery-heavy load that keeps every node stepping every round.
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

/// `P` with a wake rule that never asks for a round: after round 0 the
/// engine steps it only on mail (or a rejoin). `P` itself keeps the
/// default rule and is stepped every round, so every such run here has
/// an always-awake twin to match.
#[derive(Debug, Clone, PartialEq, Eq)]
struct NeverWakes<P>(P);

impl<P: NodeProtocol> NodeProtocol for NeverWakes<P> {
    type Msg = P::Msg;
    fn on_round(
        &mut self,
        node: NodeId,
        round: usize,
        inbox: &[(NodeId, P::Msg)],
        out: &mut Outbox<'_, P::Msg>,
    ) {
        self.0.on_round(node, round, inbox, out);
    }
    fn is_done(&self) -> bool {
        self.0.is_done()
    }
    fn wants_round(&self) -> bool {
        false
    }
    fn on_rejoin(&mut self, node: NodeId, round: usize) {
        self.0.on_rejoin(node, round);
    }
}

fn never_wakes<P>(states: Vec<P>) -> Vec<NeverWakes<P>> {
    states.into_iter().map(NeverWakes).collect()
}

/// Strips the [`NeverWakes`] wrapper from a report's node states.
fn unwrap_report<P>(
    outcome: Result<RunReport<NeverWakes<P>>, EngineError>,
) -> Result<RunReport<P>, EngineError> {
    outcome.map(|r| RunReport {
        rounds: r.rounds,
        total_messages: r.total_messages,
        total_bits: r.total_bits,
        max_edge_bits_per_round: r.max_edge_bits_per_round,
        dropped_messages: r.dropped_messages,
        flipped_bits: r.flipped_bits,
        nodes: r.nodes.into_iter().map(|n| n.0).collect(),
    })
}

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

fn assert_reports_equal<P: PartialEq + std::fmt::Debug>(
    label: &str,
    reference: &RunReport<P>,
    candidate: &RunReport<P>,
) {
    assert_eq!(reference.rounds, candidate.rounds, "{label}: rounds");
    assert_eq!(
        reference.total_messages, candidate.total_messages,
        "{label}: total_messages"
    );
    assert_eq!(
        reference.total_bits, candidate.total_bits,
        "{label}: total_bits"
    );
    assert_eq!(
        reference.max_edge_bits_per_round, candidate.max_edge_bits_per_round,
        "{label}: max_edge_bits_per_round"
    );
    assert_eq!(
        reference.dropped_messages, candidate.dropped_messages,
        "{label}: dropped_messages"
    );
    assert_eq!(
        reference.flipped_bits, candidate.flipped_bits,
        "{label}: flipped_bits"
    );
    assert_eq!(reference.nodes, candidate.nodes, "{label}: final states");
}

fn assert_outcomes_equal<P: PartialEq + std::fmt::Debug>(
    label: &str,
    reference: &Result<RunReport<P>, EngineError>,
    candidate: &Result<RunReport<P>, EngineError>,
) {
    match (reference, candidate) {
        (Ok(r), Ok(c)) => assert_reports_equal(label, r, c),
        (Err(r), Err(c)) => assert_eq!(r, c, "{label}: error values"),
        (r, c) => panic!(
            "{label}: outcomes diverge: reference ok={} vs candidate ok={}",
            r.is_ok(),
            c.is_ok()
        ),
    }
}

/// Asserts every node's implicit neighbor list equals the materialized
/// graph's, in order, and that the degree bound holds.
fn assert_neighbors_match<T: ImplicitTopology>(label: &str, topo: &T) {
    let g = topo.materialize();
    assert_eq!(g.node_count(), topo.node_count(), "{label}: node_count");
    let mut buf = Vec::new();
    for v in 0..topo.node_count() {
        assert_eq!(
            topo.neighbors(v, &mut buf),
            g.neighbors(v),
            "{label}: neighbors of {v}"
        );
        assert!(
            g.degree(v) <= topo.max_degree(),
            "{label}: degree bound at {v}"
        );
    }
}

/// Runs BFS + Flood on the implicit topology and on its materialized
/// graph (BFS twice on the implicit network, so the second run reuses
/// its buffers), asserting bit-identical reports.
fn assert_runs_match<T: ImplicitTopology>(label: &str, topo: &T) {
    let g = topo.materialize();
    let k = g.node_count();
    if k == 0 {
        return;
    }
    let model = BandwidthModel::Local;
    let max_rounds = 4 * k + 8;

    let mut mat_net = Network::new(&g, model);
    let mut imp_net = Network::new(topo, model);

    let mat = mat_net
        .run(
            vec![Bfs { dist: None }; k],
            max_rounds,
            &FaultPlan::none(),
            &mut NoopSink,
        )
        .unwrap();
    let imp = imp_net
        .run(
            vec![Bfs { dist: None }; k],
            max_rounds,
            &FaultPlan::none(),
            &mut NoopSink,
        )
        .unwrap();
    assert_reports_equal(&format!("{label}/bfs"), &mat, &imp);

    let imp_reused = imp_net
        .run(
            vec![Bfs { dist: None }; k],
            max_rounds,
            &FaultPlan::none(),
            &mut NoopSink,
        )
        .unwrap();
    assert_reports_equal(&format!("{label}/bfs-reused"), &mat, &imp_reused);

    // A network is typed by its message type: Flood gets its own pair.
    let mut mat_net = Network::new(&g, model);
    let mut imp_net = Network::new(topo, model);
    let mat = mat_net
        .run(
            vec![Flood { seen: false }; k],
            max_rounds,
            &FaultPlan::none(),
            &mut NoopSink,
        )
        .unwrap();
    let imp = imp_net
        .run(
            vec![Flood { seen: false }; k],
            max_rounds,
            &FaultPlan::none(),
            &mut NoopSink,
        )
        .unwrap();
    assert_reports_equal(&format!("{label}/flood"), &mat, &imp);
}

/// The documented `Torus2d` neighbor rule, written independently of the
/// implementation: up, down, left, right by `(r ± 1) mod rows` and
/// `(c ± 1) mod cols`, skipping self-edges and repeats.
fn torus_oracle(rows: usize, cols: usize, v: NodeId) -> Vec<NodeId> {
    let (r, c) = (v / cols, v % cols);
    let mut out = Vec::new();
    for (nr, nc) in [
        ((r + rows - 1) % rows, c),
        ((r + 1) % rows, c),
        (r, (c + cols - 1) % cols),
        (r, (c + 1) % cols),
    ] {
        let u = nr * cols + nc;
        if u != v && !out.contains(&u) {
            out.push(u);
        }
    }
    out
}

fn assert_torus_matches_oracle(rows: usize, cols: usize) {
    let t = Torus2d::new(rows, cols);
    let mut buf = Vec::new();
    for v in 0..rows * cols {
        assert_eq!(
            t.neighbors(v, &mut buf),
            torus_oracle(rows, cols, v).as_slice(),
            "{rows}x{cols} torus: neighbors of {v}"
        );
    }
}

#[test]
fn torus_matches_modulo_oracle() {
    // Every small shape, including the degenerate dimensions 1 and 2
    // (self-edges and duplicates collapse), plus the benchmark's torus.
    for rows in 1..=8 {
        for cols in 1..=8 {
            assert_torus_matches_oracle(rows, cols);
        }
    }
    assert_torus_matches_oracle(110, 110);
}

// ---------------------------------------------------------------------
// Implicit-vs-materialized equivalence (proptest, k ≤ 512, all families)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn torus_matches_materialized(rows in 1usize..23, cols in 1usize..23) {
        let t = Torus2d::new(rows, cols);
        assert_neighbors_match("torus", &t);
    }

    #[test]
    fn hypercube_matches_materialized(dim in 0u32..10) {
        let h = Hypercube::new(dim);
        assert_neighbors_match("hypercube", &h);
    }

    #[test]
    fn expander_matches_materialized(side in 1usize..23) {
        let e = MargulisExpander::new(side);
        assert_neighbors_match("expander", &e);
    }

    #[test]
    fn line_matches_materialized(k in 0usize..513) {
        assert_neighbors_match("line", &ImplicitLine { k });
    }

    #[test]
    fn ring_matches_materialized(k in 3usize..513) {
        assert_neighbors_match("ring", &ImplicitRing::new(k));
    }

    #[test]
    fn tree_matches_materialized(k in 0usize..513) {
        assert_neighbors_match("tree", &ImplicitTree { k });
    }

    #[test]
    fn engine_runs_match_on_implicit_torus(rows in 2usize..9, cols in 2usize..9) {
        assert_runs_match("torus", &Torus2d::new(rows, cols));
    }

    #[test]
    fn engine_runs_match_on_implicit_expander(side in 2usize..8) {
        assert_runs_match("expander", &MargulisExpander::new(side));
    }
}

#[test]
fn engine_runs_match_on_fixed_families() {
    assert_runs_match("torus-4x4", &Torus2d::new(4, 4));
    assert_runs_match("hypercube-5", &Hypercube::new(5));
    assert_runs_match("expander-5", &MargulisExpander::new(5));
    assert_runs_match("line-33", &ImplicitLine { k: 33 });
    assert_runs_match("ring-32", &ImplicitRing::new(32));
    assert_runs_match("tree-31", &ImplicitTree { k: 31 });
}

// ---------------------------------------------------------------------
// Stepping on mail only vs every round
// ---------------------------------------------------------------------

#[test]
fn sparse_matches_dense_on_wavefront_protocols() {
    let torus = Torus2d::new(8, 8).materialize();
    let graphs: Vec<(&str, Graph)> = vec![
        ("line", dut_netsim::topology::line(40)),
        ("torus", torus),
        ("tree", dut_netsim::topology::balanced_binary_tree(31)),
    ];
    for (name, g) in &graphs {
        let k = g.node_count();
        let mut net = Network::new(g, BandwidthModel::Local);
        let bfs = vec![Bfs { dist: None }; k];
        let dense = net.run(bfs.clone(), 4 * k, &FaultPlan::none(), &mut NoopSink);
        let sparse = unwrap_report(net.run(
            never_wakes(bfs.clone()),
            4 * k,
            &FaultPlan::none(),
            &mut NoopSink,
        ));
        assert_outcomes_equal(&format!("sparse-bfs/{name}"), &dense, &sparse);
        let reference = run_reference(
            g,
            BandwidthModel::Local,
            bfs,
            4 * k,
            &FaultPlan::none(),
            &mut NoopSink,
        );
        assert_outcomes_equal(&format!("sparse-bfs-ref/{name}"), &reference, &sparse);

        let flood = vec![Flood { seen: false }; k];
        let mut net = Network::new(g, BandwidthModel::Local);
        let dense = net.run(flood.clone(), 4 * k, &FaultPlan::none(), &mut NoopSink);
        let sparse = unwrap_report(net.run(
            never_wakes(flood.clone()),
            4 * k,
            &FaultPlan::none(),
            &mut NoopSink,
        ));
        assert_outcomes_equal(&format!("sparse-flood/{name}"), &dense, &sparse);
        let reference = run_reference(
            g,
            BandwidthModel::Local,
            flood,
            4 * k,
            &FaultPlan::none(),
            &mut NoopSink,
        );
        assert_outcomes_equal(&format!("sparse-flood-ref/{name}"), &reference, &sparse);
    }
}

#[test]
fn sparse_matches_dense_under_faults() {
    let g = dut_netsim::topology::grid(6, 7);
    let k = g.node_count();
    let plans = [
        FaultPlan::seeded(0xAB01).with_drops(0.12),
        FaultPlan::seeded(0xAB02).with_flips(0.01).with_crash(1, 2),
        // Crash-only plans: stepping on mail only must keep the run
        // alive while a silent network waits out a crash schedule (it
        // used to misreport RoundLimit as soon as the arena went quiet).
        FaultPlan::seeded(0xAB03).with_crash(1, 2).with_crash(7, 0),
        FaultPlan::seeded(0xAB04)
            .with_crash(1, 2)
            .with_rejoin(1, 10)
            .with_crash(9, 1),
    ];
    let model = BandwidthModel::Congest { bits_per_edge: 64 };
    let bfs = vec![Bfs { dist: None }; k];
    for (i, plan) in plans.iter().enumerate() {
        let mut net = Network::new(&g, model);
        let dense = net.run(bfs.clone(), 4 * k, plan, &mut NoopSink);
        let sparse = unwrap_report(net.run(never_wakes(bfs.clone()), 4 * k, plan, &mut NoopSink));
        assert_outcomes_equal(&format!("sparse-faulted/{i}"), &dense, &sparse);
        let reference = run_reference(&g, model, bfs.clone(), 4 * k, plan, &mut NoopSink);
        assert_outcomes_equal(&format!("sparse-faulted-ref/{i}"), &reference, &sparse);
    }
}

#[test]
fn sparse_round_limit_error_matches_dense() {
    // A flood that can never reach quiescence because node 0 never
    // starts: every inbox stays empty, nodes stay not-done, and both
    // modes must report the same RoundLimit error.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct NeverDone;
    impl NodeProtocol for NeverDone {
        type Msg = ();
        fn on_round(
            &mut self,
            _node: NodeId,
            _round: usize,
            _inbox: &[(NodeId, ())],
            _out: &mut Outbox<'_, ()>,
        ) {
        }
        fn is_done(&self) -> bool {
            false
        }
    }
    let g = dut_netsim::topology::line(6);
    let mut net = Network::new(&g, BandwidthModel::Local);
    let dense = net
        .run(vec![NeverDone; 6], 12, &FaultPlan::none(), &mut NoopSink)
        .unwrap_err();
    let sparse = net
        .run(
            never_wakes(vec![NeverDone; 6]),
            12,
            &FaultPlan::none(),
            &mut NoopSink,
        )
        .unwrap_err();
    assert_eq!(dense, sparse);
    assert_eq!(dense, EngineError::RoundLimit { max_rounds: 12 });
}

/// A flood whose rejoined nodes ask their neighbors for the value they
/// slept through: `on_rejoin` schedules a request broadcast, any seen
/// neighbor answers a request with the data, and the flood resumes into
/// the subtree the outage had cut off. It never needs to wake: a node
/// with an empty inbox and no pending announce does nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RecoverFlood {
    seen: bool,
    announce: bool,
}

impl NodeProtocol for RecoverFlood {
    type Msg = u32; // 0 = data, 1 = request
    fn on_round(
        &mut self,
        node: NodeId,
        round: usize,
        inbox: &[(NodeId, u32)],
        out: &mut Outbox<'_, u32>,
    ) {
        if self.announce {
            self.announce = false;
            out.broadcast(1);
        }
        let got_data = inbox.iter().any(|&(_, m)| m == 0);
        if !self.seen && ((node == 0 && round == 0) || got_data) {
            self.seen = true;
            out.broadcast(0);
        }
        if self.seen && inbox.iter().any(|&(_, m)| m == 1) {
            out.broadcast(0);
        }
    }
    fn is_done(&self) -> bool {
        self.seen && !self.announce
    }
    fn on_rejoin(&mut self, _node: NodeId, _round: usize) {
        self.announce = true;
    }
}

#[test]
fn sparse_fast_forwards_over_quiet_outages() {
    // Node 3 goes down at round 1, cutting the line's flood off from
    // nodes 4..7; the network then goes completely quiet with a rejoin
    // still pending at round 40. Stepped every round, it spins through
    // the silent rounds; never waking, it jumps straight to the rejoin
    // event. Both must wake
    // node 3 (its rejoin announcement re-triggers the flood into the
    // cut-off tail) and report bit-identical results, including the
    // round count.
    let g = dut_netsim::topology::line(8);
    let k = g.node_count();
    let fresh = || {
        vec![
            RecoverFlood {
                seen: false,
                announce: false
            };
            k
        ]
    };
    let plan = FaultPlan::seeded(0xFF01)
        .with_crash(3, 1)
        .with_rejoin(3, 40);
    let mut net = Network::new(&g, BandwidthModel::Local);
    let dense = net.run(fresh(), 128, &plan, &mut NoopSink).unwrap();
    let sparse = unwrap_report(net.run(never_wakes(fresh()), 128, &plan, &mut NoopSink)).unwrap();
    assert_reports_equal("sparse-rejoin-wakeup", &dense, &sparse);
    let reference = run_reference(
        &g,
        BandwidthModel::Local,
        fresh(),
        128,
        &plan,
        &mut NoopSink,
    )
    .unwrap();
    assert_reports_equal("sparse-rejoin-wakeup-ref", &reference, &sparse);
    assert!(
        dense.rounds > 40,
        "run must extend past the rejoin: {}",
        dense.rounds
    );
    assert!(
        dense.nodes.iter().all(|n| n.seen),
        "flood must recover into the cut-off tail: {:?}",
        dense.nodes
    );

    // Same shape, but the node never rejoins: both runs must report
    // the identical RoundLimit (the never-waking run fast-forwards to
    // it).
    let stuck = FaultPlan::seeded(0xFF02).with_crash(3, 1);
    let dense = net.run(fresh(), 64, &stuck, &mut NoopSink).map(|_| ());
    let sparse = net
        .run(never_wakes(fresh()), 64, &stuck, &mut NoopSink)
        .map(|_| ());
    assert_eq!(dense, sparse);
}

// ---------------------------------------------------------------------
// Dense stepping on an implicit topology
// ---------------------------------------------------------------------

fn gossip_states(k: usize) -> Vec<Gossip> {
    (0..k)
        .map(|v| Gossip {
            rounds_left: 5 + (v as u64 % 3),
            acc: v as u64,
        })
        .collect()
}

/// Gossip steps every node every round and folds its inbox in order,
/// so any divergence in stepping or inbox order on the implicit torus
/// shows up in the final states. The network runs twice, so the second
/// run reuses its buffers.
#[test]
fn gossip_on_implicit_torus_matches_reference() {
    let torus = Torus2d::new(16, 16);
    let g = torus.materialize();
    let k = torus.node_count();
    let reference = run_reference(
        &g,
        BandwidthModel::Local,
        gossip_states(k),
        64,
        &FaultPlan::none(),
        &mut NoopSink,
    )
    .unwrap();
    let mut net = Network::new(&torus, BandwidthModel::Local);
    for pass in 0..2 {
        let flat = net
            .run(gossip_states(k), 64, &FaultPlan::none(), &mut NoopSink)
            .unwrap();
        assert_reports_equal(&format!("gossip-implicit/pass-{pass}"), &reference, &flat);
    }
}

/// The same gossip load under drop, flip, crash and rejoin plans.
#[test]
fn gossip_on_implicit_torus_matches_reference_under_fault_plans() {
    let torus = Torus2d::new(12, 12);
    let g = torus.materialize();
    let k = torus.node_count();
    let plans = [
        FaultPlan::seeded(0xC001).with_drops(0.1),
        FaultPlan::seeded(0xC002).with_flips(0.02),
        FaultPlan::seeded(0xC003)
            .with_drops(0.05)
            .with_flips(0.01)
            .with_crash(3, 2),
        FaultPlan::seeded(0xC004)
            .with_drops(0.05)
            .with_crash(3, 2)
            .with_rejoin(3, 6),
    ];
    let mut net = Network::new(&torus, BandwidthModel::Local);
    for (i, plan) in plans.iter().enumerate() {
        let flat = net.run(gossip_states(k), 64, plan, &mut NoopSink);
        let reference = run_reference(
            &g,
            BandwidthModel::Local,
            gossip_states(k),
            64,
            plan,
            &mut NoopSink,
        );
        assert_outcomes_equal(&format!("gossip-implicit-faulted/{i}"), &reference, &flat);
    }
}

// ---------------------------------------------------------------------
// Degenerate inputs
// ---------------------------------------------------------------------

#[test]
fn empty_network_is_a_typed_error() {
    let g = dut_netsim::topology::line(0);
    let mut net = Network::new(&g, BandwidthModel::Local);
    assert_eq!(
        net.run(Vec::<Flood>::new(), 8, &FaultPlan::none(), &mut NoopSink)
            .unwrap_err(),
        EngineError::EmptyNetwork
    );
    assert_eq!(
        dut_netsim::reference::run_reference(
            &g,
            BandwidthModel::Local,
            Vec::<Flood>::new(),
            8,
            &FaultPlan::none(),
            &mut NoopSink
        )
        .unwrap_err(),
        EngineError::EmptyNetwork
    );
}

#[test]
fn singleton_networks_run() {
    for g in [
        dut_netsim::topology::line(1),
        dut_netsim::topology::star(1),
        dut_netsim::topology::complete(1),
        Torus2d::new(1, 1).materialize(),
    ] {
        let mut net = Network::new(&g, BandwidthModel::Local);
        let report = net
            .run(
                vec![Flood { seen: false }; 1],
                8,
                &FaultPlan::none(),
                &mut NoopSink,
            )
            .unwrap();
        // Node 0 marks itself seen in round 0 and has no one to tell.
        assert!(report.nodes[0].seen);
        assert_eq!(report.total_messages, 0);
    }
}
