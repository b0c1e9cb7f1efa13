//! Differential harness for the engine's wake rules.
//!
//! The flat engine steps a node after round 0 only when it has mail,
//! asked to wake ([`NodeProtocol::wants_round`]) or rejoins after a
//! crash; the frozen reference engine steps every node every round.
//! Equal outcomes on every topology, clean and under faults, are the
//! check that a protocol's wake rule is true: a node that would have
//! acted while the engine let it sleep shows up as a divergence.
//!
//! Test support, not API: public (and hidden from the docs) only so
//! that crates with private protocols of their own, such as
//! `dut-congest`'s packaging residue and forwarding, can check them
//! with the same harness.

use crate::algorithms::coded::{CodedProtocol, IdentityCodec};
use crate::engine::{BandwidthModel, EngineError, Network, NodeProtocol, RunReport};
use crate::fault::{FaultInjectable, FaultPlan};
use crate::graph::{Graph, ImplicitTopology};
use crate::reference::run_reference;
use crate::topology::{self, Torus2d};
use dut_obs::NoopSink;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Debug;

/// The five `tests/differential.rs` topologies.
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

/// The clean plan, then two fault plans: bit flips only (runs
/// complete, on corrupted values), and drops with node 3 down in round
/// 0 and back in round 2 (so the engine must wake it).
fn plans() -> [FaultPlan; 3] {
    [
        FaultPlan::none(),
        FaultPlan::seeded(0x51E7).with_flips(0.02),
        FaultPlan::seeded(0x51E8)
            .with_drops(0.05)
            .with_crash(3, 0)
            .with_rejoin(3, 2),
    ]
}

/// Everything a run reports, with node states projected through `view`.
type Outcome<V> = Result<(usize, usize, usize, usize, usize, usize, Vec<V>), EngineError>;

fn outcome<P, V>(run: Result<RunReport<P>, EngineError>, view: impl Fn(&P) -> V) -> Outcome<V> {
    run.map(|r| {
        (
            r.rounds,
            r.total_messages,
            r.total_bits,
            r.max_edge_bits_per_round,
            r.dropped_messages,
            r.flipped_bits,
            r.nodes.iter().map(view).collect(),
        )
    })
}

/// Runs `states` on `topo` with the flat engine and on its
/// materialized graph with the reference engine, once per plan, and
/// asserts equal rounds, messages, bits, fault counts and final states
/// (through `view`). The round limit, `16k + 64`, outlasts every
/// deadline of the protocols under test, so their timers fire.
fn compare_engines<T, P, V>(
    label: &str,
    topo: &T,
    model: BandwidthModel,
    plans: &[FaultPlan],
    states: Vec<P>,
    view: impl Fn(&P) -> V + Copy,
) where
    T: ImplicitTopology,
    P: NodeProtocol + Clone,
    P::Msg: FaultInjectable,
    V: PartialEq + Debug,
{
    let g = topo.materialize();
    let max_rounds = 16 * g.node_count() + 64;
    let mut net = Network::new(topo, model);
    for (i, plan) in plans.iter().enumerate() {
        let reference = run_reference(&g, model, states.clone(), max_rounds, plan, &mut NoopSink);
        let flat = net.run(states.clone(), max_rounds, plan, &mut NoopSink);
        assert_eq!(
            outcome(flat, view),
            outcome(reference, view),
            "{label}: plan {i}"
        );
    }
}

/// Checks a protocol's wake rule, plain and wrapped in
/// [`CodedProtocol`] with the identity codec, on the five differential
/// topologies and the implicit 12×12 [`Torus2d`] (whose states `build`
/// gets from its materialized graph), clean, under bit flips, and under
/// drops with a crash and a rejoin. `build` makes the initial states
/// for a graph.
///
/// # Panics
///
/// On any divergence between the engines.
pub fn assert_matches_reference<P>(label: &str, build: impl Fn(&Graph) -> Vec<P>)
where
    P: NodeProtocol + Clone + PartialEq + Debug,
    P::Msg: PartialEq + FaultInjectable,
{
    check_topologies(label, &plans(), build);
}

/// [`assert_matches_reference`] without the bit-flip plan, for a
/// protocol whose messages cannot take flips: a flipped routing
/// destination strands a parcel at a node with no next hop, which
/// panics in both engines.
///
/// # Panics
///
/// On any divergence between the engines.
pub fn assert_matches_reference_without_flips<P>(label: &str, build: impl Fn(&Graph) -> Vec<P>)
where
    P: NodeProtocol + Clone + PartialEq + Debug,
    P::Msg: PartialEq + FaultInjectable,
{
    let [clean, _flips, drops_and_crash] = plans();
    check_topologies(label, &[clean, drops_and_crash], build);
}

fn check_topologies<P>(label: &str, plans: &[FaultPlan], build: impl Fn(&Graph) -> Vec<P>)
where
    P: NodeProtocol + Clone + PartialEq + Debug,
    P::Msg: PartialEq + FaultInjectable,
{
    for (name, g) in topologies() {
        check_plain_and_coded(&format!("{label}/{name}"), &g, plans, build(&g));
    }
    let torus = Torus2d::new(12, 12);
    check_plain_and_coded(
        &format!("{label}/torus-12x12"),
        &torus,
        plans,
        build(&torus.materialize()),
    );
}

fn check_plain_and_coded<T, P>(label: &str, topo: &T, plans: &[FaultPlan], states: Vec<P>)
where
    T: ImplicitTopology,
    P: NodeProtocol + Clone + PartialEq + Debug,
    P::Msg: PartialEq + FaultInjectable,
{
    let model = BandwidthModel::Congest { bits_per_edge: 256 };
    let coded = states
        .iter()
        .map(|s| CodedProtocol::new(s.clone(), IdentityCodec::<P::Msg>::new()))
        .collect();
    compare_engines(label, topo, model, plans, states, P::clone);
    compare_engines(&format!("{label}/coded"), topo, model, plans, coded, |n| {
        (n.inner().clone(), n.corrected_bits(), n.decode_failures())
    });
}
