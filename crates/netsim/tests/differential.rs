//! Differential tests: the flat-buffer round engine against the
//! retained naive reference engine
//! ([`dut_netsim::reference::run_reference`]).
//!
//! For every protocol × topology pair we assert the engines produce
//! *identical* `RunReport`s — rounds, message and bit totals, the
//! per-edge maximum — and identical final node states. Error paths
//! (CONGEST budget violations, round-limit exhaustion) must also agree
//! exactly, including the offending edge and bit counts.

use dut_netsim::engine::{BandwidthModel, EngineError, Network, NodeProtocol, Outbox, RunReport};
use dut_netsim::fault::{FaultInjectable, FaultPlan};
use dut_netsim::graph::{Graph, NodeId};
use dut_netsim::reference::run_reference;
use dut_netsim::topology;
use dut_obs::NoopSink;
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------------------------
// Protocols
// ---------------------------------------------------------------------

/// Token flooding from node 0 (unit messages).
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

/// BFS distance computation from node 0 (u64 distance messages).
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

/// Max-id leader election by gossip (u64 id messages).
#[derive(Debug, Clone, PartialEq, Eq)]
struct MaxId {
    id: u64,
    best: u64,
}

impl MaxId {
    fn new(id: u64) -> Self {
        MaxId { id, best: id }
    }
}

impl NodeProtocol for MaxId {
    type Msg = u64;
    fn on_round(
        &mut self,
        _node: NodeId,
        round: usize,
        inbox: &[(NodeId, u64)],
        out: &mut Outbox<'_, u64>,
    ) {
        let incoming = inbox.iter().map(|&(_, id)| id).max().unwrap_or(0);
        if round == 0 {
            out.broadcast(self.best);
        } else if incoming > self.best {
            self.best = incoming;
            out.broadcast(self.best);
        }
    }
    fn is_done(&self) -> bool {
        true
    }
}

/// Sends an over-budget message from a chosen node at a chosen round —
/// used to check error-path equality under CONGEST.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FatSender {
    trigger_node: NodeId,
    trigger_round: usize,
}

impl NodeProtocol for FatSender {
    type Msg = Vec<u64>;
    fn on_round(
        &mut self,
        node: NodeId,
        round: usize,
        _inbox: &[(NodeId, Vec<u64>)],
        out: &mut Outbox<'_, Vec<u64>>,
    ) {
        if node == self.trigger_node && round == self.trigger_round {
            out.broadcast(vec![0u64; 16]); // 1024 bits per edge
        } else if round == 0 {
            out.broadcast(vec![node as u64]); // keep the run alive
        }
    }
    fn is_done(&self) -> bool {
        true
    }
}

/// Never quiesces — used to check round-limit error equality.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Chatter;

impl NodeProtocol for Chatter {
    type Msg = ();
    fn on_round(
        &mut self,
        _node: NodeId,
        _round: usize,
        _inbox: &[(NodeId, ())],
        out: &mut Outbox<'_, ()>,
    ) {
        out.broadcast(());
    }
    fn is_done(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

fn topologies() -> Vec<(&'static str, Graph)> {
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    vec![
        ("line", topology::line(9)),
        ("star", topology::star(10)),
        ("clique", topology::complete(8)),
        ("grid", topology::grid(3, 4)),
        (
            "erdos-renyi",
            topology::connected_erdos_renyi(16, 0.25, &mut rng),
        ),
    ]
}

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
    assert_eq!(reference.nodes, candidate.nodes, "{label}: final states");
}

/// Runs `states` on `g` three ways — reference, flat engine on a fresh
/// network, flat engine again on the same (reused) network — and
/// asserts all three reports and final states are identical.
fn differential<P>(label: &str, g: &Graph, model: BandwidthModel, states: Vec<P>, max_rounds: usize)
where
    P: NodeProtocol + Clone + PartialEq + std::fmt::Debug,
    P::Msg: FaultInjectable,
{
    let reference = run_reference(
        g,
        model,
        states.clone(),
        max_rounds,
        &FaultPlan::none(),
        &mut NoopSink,
    )
    .unwrap_or_else(|e| panic!("{label}: reference failed: {e}"));

    let mut net = Network::new(g, model);
    let fresh = net
        .run(
            states.clone(),
            max_rounds,
            &FaultPlan::none(),
            &mut NoopSink,
        )
        .unwrap_or_else(|e| panic!("{label}: flat engine failed: {e}"));
    assert_reports_equal(&format!("{label} (fresh)"), &reference, &fresh);

    let reused = net
        .run(states, max_rounds, &FaultPlan::none(), &mut NoopSink)
        .unwrap_or_else(|e| panic!("{label}: reused flat engine failed: {e}"));
    assert_reports_equal(&format!("{label} (reused)"), &reference, &reused);
}

// ---------------------------------------------------------------------
// Success-path equivalence
// ---------------------------------------------------------------------

#[test]
fn flood_matches_reference_on_all_topologies() {
    for (name, g) in topologies() {
        let k = g.node_count();
        differential(
            &format!("flood/{name}"),
            &g,
            BandwidthModel::Local,
            vec![Flood { seen: false }; k],
            4 * k,
        );
    }
}

#[test]
fn bfs_matches_reference_on_all_topologies() {
    for (name, g) in topologies() {
        let k = g.node_count();
        differential(
            &format!("bfs/{name}"),
            &g,
            BandwidthModel::Local,
            vec![Bfs { dist: None }; k],
            4 * k,
        );
    }
}

#[test]
fn max_id_matches_reference_on_all_topologies() {
    for (name, g) in topologies() {
        let k = g.node_count();
        // Scrambled ids so the max travels a non-trivial path.
        let states: Vec<MaxId> = (0..k)
            .map(|v| MaxId::new(((v as u64).wrapping_mul(0x9E37) % 251) + 1))
            .collect();
        differential(
            &format!("max-id/{name}"),
            &g,
            BandwidthModel::Local,
            states,
            4 * k,
        );
    }
}

#[test]
fn congest_metering_matches_reference() {
    // Under a CONGEST budget wide enough for the 64-bit BFS messages,
    // the metered bit totals must agree exactly on every topology.
    for (name, g) in topologies() {
        let k = g.node_count();
        differential(
            &format!("bfs-congest/{name}"),
            &g,
            BandwidthModel::Congest { bits_per_edge: 64 },
            vec![Bfs { dist: None }; k],
            4 * k,
        );
    }
}

// ---------------------------------------------------------------------
// Error-path equivalence
// ---------------------------------------------------------------------

#[test]
fn bandwidth_errors_match_reference() {
    // The violation fires at round 1 on node 3 (round 0's keep-alive
    // broadcasts hold the run open); all engines must report the same
    // offending edge, round, bit count, and budget.
    for (name, g) in topologies() {
        let k = g.node_count();
        let states: Vec<FatSender> = (0..k)
            .map(|_| FatSender {
                trigger_node: 3,
                trigger_round: 1,
            })
            .collect();
        let model = BandwidthModel::Congest { bits_per_edge: 512 };

        let ref_err = run_reference(
            &g,
            model,
            states.clone(),
            16,
            &FaultPlan::none(),
            &mut NoopSink,
        )
        .unwrap_err();
        assert!(
            matches!(ref_err, EngineError::BandwidthExceeded { .. }),
            "{name}: reference produced {ref_err:?}"
        );

        let mut net = Network::new(&g, model);
        let fresh_err = net
            .run(states.clone(), 16, &FaultPlan::none(), &mut NoopSink)
            .unwrap_err();
        assert_eq!(ref_err, fresh_err, "{name}: fresh error");

        let reused_err = net
            .run(states, 16, &FaultPlan::none(), &mut NoopSink)
            .unwrap_err();
        assert_eq!(ref_err, reused_err, "{name}: reused error");
    }
}

#[test]
fn round_limit_errors_match_reference() {
    for (name, g) in topologies() {
        let k = g.node_count();
        let states = vec![Chatter; k];

        let ref_err = run_reference(
            &g,
            BandwidthModel::Local,
            states.clone(),
            7,
            &FaultPlan::none(),
            &mut NoopSink,
        )
        .unwrap_err();
        assert_eq!(ref_err, EngineError::RoundLimit { max_rounds: 7 });

        let mut net = Network::new(&g, BandwidthModel::Local);
        let fresh_err = net
            .run(states.clone(), 7, &FaultPlan::none(), &mut NoopSink)
            .unwrap_err();
        assert_eq!(ref_err, fresh_err, "{name}: fresh error");

        let reused_err = net
            .run(states, 7, &FaultPlan::none(), &mut NoopSink)
            .unwrap_err();
        assert_eq!(ref_err, reused_err, "{name}: reused error");
    }
}

// ---------------------------------------------------------------------
// Fault-injection equivalence
// ---------------------------------------------------------------------

/// The fault plans the matrix runs under: drops only, flips only, a
/// crash schedule, crash/rejoin cycles, and everything together.
fn fault_plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("drops", FaultPlan::seeded(0xFA01).with_drops(0.15)),
        ("flips", FaultPlan::seeded(0xFA02).with_flips(0.01)),
        ("crash", FaultPlan::seeded(0xFA03).with_crash(1, 2)),
        (
            "mixed",
            FaultPlan::seeded(0xFA04)
                .with_drops(0.1)
                .with_flips(0.005)
                .with_crash(2, 3),
        ),
        (
            "crash-rejoin",
            FaultPlan::seeded(0xFA05).with_crash(1, 2).with_rejoin(1, 7),
        ),
        (
            "mixed-rejoin",
            FaultPlan::seeded(0xFA06)
                .with_drops(0.1)
                .with_flips(0.005)
                .with_crash(2, 3)
                .with_rejoin(2, 8)
                .with_crash(2, 11)
                .with_rejoin(2, 13),
        ),
    ]
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

/// Runs `states` under `plan` three ways — faulted reference, flat
/// engine on a fresh network, flat engine again on the same network —
/// and asserts the three outcomes
/// are bit-identical: same reports and final states on success, same
/// error values on failure. Faults can legitimately push a protocol
/// into an error (an unreached flood hits the round limit), so both
/// paths are compared.
fn fault_differential<P>(
    label: &str,
    g: &Graph,
    model: BandwidthModel,
    states: Vec<P>,
    max_rounds: usize,
    plan: &FaultPlan,
) where
    P: NodeProtocol + Clone + PartialEq + std::fmt::Debug,
    P::Msg: FaultInjectable,
{
    let reference = run_reference(g, model, states.clone(), max_rounds, plan, &mut NoopSink);

    let mut net = Network::new(g, model);
    let fresh = net.run(states.clone(), max_rounds, plan, &mut NoopSink);
    assert_outcomes_equal(&format!("{label} (fresh)"), &reference, &fresh);

    let reused = net.run(states, max_rounds, plan, &mut NoopSink);
    assert_outcomes_equal(&format!("{label} (reused)"), &reference, &reused);
}

#[test]
fn faulted_flood_matches_reference_on_full_matrix() {
    for (plan_name, plan) in fault_plans() {
        for (name, g) in topologies() {
            let k = g.node_count();
            fault_differential(
                &format!("flood/{plan_name}/{name}"),
                &g,
                BandwidthModel::Local,
                vec![Flood { seen: false }; k],
                4 * k,
                &plan,
            );
        }
    }
}

#[test]
fn faulted_bfs_matches_reference_on_full_matrix() {
    for (plan_name, plan) in fault_plans() {
        for (name, g) in topologies() {
            let k = g.node_count();
            fault_differential(
                &format!("bfs/{plan_name}/{name}"),
                &g,
                BandwidthModel::Congest { bits_per_edge: 64 },
                vec![Bfs { dist: None }; k],
                4 * k,
                &plan,
            );
        }
    }
}

#[test]
fn faulted_max_id_matches_reference_on_full_matrix() {
    for (plan_name, plan) in fault_plans() {
        for (name, g) in topologies() {
            let k = g.node_count();
            let states: Vec<MaxId> = (0..k)
                .map(|v| MaxId::new(((v as u64).wrapping_mul(0x9E37) % 251) + 1))
                .collect();
            fault_differential(
                &format!("max-id/{plan_name}/{name}"),
                &g,
                BandwidthModel::Local,
                states,
                4 * k,
                &plan,
            );
        }
    }
}

#[test]
fn faulted_bandwidth_errors_match_reference_on_full_matrix() {
    // Senders pay for dropped messages, so the metering — and the exact
    // offending edge/round/bits of the violation — must agree under
    // faults too.
    for (plan_name, plan) in fault_plans() {
        for (name, g) in topologies() {
            let k = g.node_count();
            let states: Vec<FatSender> = (0..k)
                .map(|_| FatSender {
                    trigger_node: 3,
                    trigger_round: 1,
                })
                .collect();
            fault_differential(
                &format!("fat-sender/{plan_name}/{name}"),
                &g,
                BandwidthModel::Congest { bits_per_edge: 512 },
                states,
                16,
                &plan,
            );
        }
    }
}

#[test]
fn faulted_round_limit_errors_match_reference_on_full_matrix() {
    for (plan_name, plan) in fault_plans() {
        for (name, g) in topologies() {
            let k = g.node_count();
            fault_differential(
                &format!("chatter/{plan_name}/{name}"),
                &g,
                BandwidthModel::Local,
                vec![Chatter; k],
                7,
                &plan,
            );
        }
    }
}

#[test]
fn zero_fault_plan_matches_unfaulted_run() {
    // FaultPlan::none() and a seeded-but-all-zero plan must both take
    // the plain path: identical reports to a run without any options.
    for plan in [FaultPlan::none(), FaultPlan::seeded(0x5EED)] {
        for (name, g) in topologies() {
            let k = g.node_count();
            let plain = {
                let mut net = Network::new(&g, BandwidthModel::Local);
                net.run(
                    vec![Bfs { dist: None }; k],
                    4 * k,
                    &FaultPlan::none(),
                    &mut NoopSink,
                )
                .unwrap()
            };
            let mut net = Network::new(&g, BandwidthModel::Local);
            let faulted = net
                .run(vec![Bfs { dist: None }; k], 4 * k, &plan, &mut NoopSink)
                .unwrap();
            assert_reports_equal(&format!("bfs-zero-fault/{name}"), &plain, &faulted);
        }
    }
}

// ---------------------------------------------------------------------
// Network reuse across heterogeneous runs
// ---------------------------------------------------------------------

#[test]
fn one_network_reused_across_runs_matches_reference() {
    // One network serving a sequence of runs (the Monte-Carlo usage
    // pattern), clean and faulted, must not leak its buffers' state
    // between runs.
    let plan = FaultPlan::seeded(0x5C7A).with_drops(0.1);
    let runs = [
        FaultPlan::none(),
        FaultPlan::none(),
        plan.clone(),
        plan,
        FaultPlan::none(),
    ];
    for (name, g) in topologies() {
        let k = g.node_count();
        let mut net = Network::new(&g, BandwidthModel::Local);
        for (i, plan) in runs.iter().enumerate() {
            let reference = run_reference(
                &g,
                BandwidthModel::Local,
                vec![Bfs { dist: None }; k],
                4 * k,
                plan,
                &mut NoopSink,
            );
            let report = net.run(vec![Bfs { dist: None }; k], 4 * k, plan, &mut NoopSink);
            match (reference, report) {
                (Ok(reference), Ok(report)) => assert_reports_equal(
                    &format!("bfs-reused-network/{name}/run {i}"),
                    &reference,
                    &report,
                ),
                (reference, report) => assert_eq!(
                    reference.err(),
                    report.err(),
                    "bfs-reused-network/{name}/run {i}"
                ),
            }
        }
    }
}
