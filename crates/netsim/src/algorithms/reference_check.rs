//! Differential harness for the silent-stable tree protocols.
//!
//! A protocol that declares [`NodeProtocol::SILENT_STABLE`] is stepped
//! through the engine's active list; the frozen reference engine steps
//! every node every round. Equal outcomes on every topology, clean and
//! under faults, are the check that the declaration is true: a node
//! that would have acted on an empty inbox shows up as a divergence.
//!
//! Test support, not API: public (and hidden from the docs) only so
//! that crates with private silent-stable protocols of their own, such
//! as `dut-congest`'s packaging residue, can check them with the same
//! harness.

use crate::algorithms::coded::{CodedProtocol, IdentityCodec};
use crate::engine::{BandwidthModel, Compact, EngineError, Network, NodeProtocol, RunReport};
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
/// 0 and back in round 2 (so the active list must wake it).
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
/// (through `view`). The round limit is the tree primitives' `2k + 4`.
fn assert_matches_reference<T, P, V>(
    label: &str,
    topo: &T,
    model: BandwidthModel,
    states: Vec<P>,
    view: impl Fn(&P) -> V + Copy,
) where
    T: ImplicitTopology,
    P: NodeProtocol + Clone,
    P::Msg: FaultInjectable,
    V: PartialEq + Debug,
{
    let g = topo.materialize();
    let max_rounds = 2 * g.node_count() + 4;
    let mut net = Network::new(topo, model);
    for (i, plan) in plans().into_iter().enumerate() {
        let reference = run_reference(&g, model, states.clone(), max_rounds, &plan, &mut NoopSink);
        let flat = net.run(states.clone(), max_rounds, &plan, &mut NoopSink);
        assert_eq!(
            outcome(flat, view),
            outcome(reference, view),
            "{label}: plan {i}"
        );
    }
}

/// Checks a silent-stable protocol over `Compact` messages, plain and
/// wrapped in [`CodedProtocol`] with the identity codec, on the five
/// differential topologies and the implicit 12×12 [`Torus2d`] (whose
/// states `build` gets from its materialized graph). `build` makes the
/// initial states for a graph.
///
/// # Panics
///
/// On any divergence between the engines, or if `P` does not declare
/// [`NodeProtocol::SILENT_STABLE`].
pub fn assert_silent_stable_matches_reference<P>(label: &str, build: impl Fn(&Graph) -> Vec<P>)
where
    P: NodeProtocol<Msg = Compact> + Clone + PartialEq + Debug,
{
    assert!(P::SILENT_STABLE, "{label} must declare SILENT_STABLE");
    assert!(CodedProtocol::<P, IdentityCodec<Compact>>::SILENT_STABLE);
    for (name, g) in topologies() {
        check_plain_and_coded(&format!("{label}/{name}"), &g, build(&g));
    }
    let torus = Torus2d::new(12, 12);
    check_plain_and_coded(
        &format!("{label}/torus-12x12"),
        &torus,
        build(&torus.materialize()),
    );
}

fn check_plain_and_coded<T, P>(label: &str, topo: &T, states: Vec<P>)
where
    T: ImplicitTopology,
    P: NodeProtocol<Msg = Compact> + Clone + PartialEq + Debug,
{
    let model = BandwidthModel::Congest { bits_per_edge: 64 };
    let coded = states
        .iter()
        .map(|s| CodedProtocol::new(s.clone(), IdentityCodec::<Compact>::new()))
        .collect();
    assert_matches_reference(label, topo, model, states, P::clone);
    assert_matches_reference(&format!("{label}/coded"), topo, model, coded, |n| {
        (n.inner().clone(), n.corrected_bits(), n.decode_failures())
    });
}
