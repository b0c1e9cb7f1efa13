//! A synchronous round-based message-passing network simulator with
//! LOCAL and CONGEST semantics.
//!
//! The distributed models of *Distributed Uniformity Testing* (Fischer,
//! Meir, Oshman; PODC 2018) are the textbook synchronous models:
//!
//! * **LOCAL** — in each round every node may send an arbitrarily large
//!   message to each neighbor; complexity is measured in rounds only.
//! * **CONGEST** — messages are limited to `O(log n)` bits per edge per
//!   round; the simulator *enforces* the budget and fails loudly on
//!   violation, and reports rounds, messages, and bits as first-class
//!   metrics.
//!
//! The crate provides:
//!
//! * [`graph`] — undirected graphs, BFS, eccentricity/diameter,
//!   connectivity.
//! * [`topology`] — generators for the standard experiment topologies
//!   (line, ring, star, complete, balanced tree, 2D grid, connected
//!   Erdős–Rényi) plus implicit million-node families (torus,
//!   hypercube, Margulis expander, line/ring/tree) that compute
//!   neighbors on the fly via [`graph::ImplicitTopology`] instead of
//!   materializing an edge list.
//! * [`engine`] — the synchronous round engine: implement
//!   [`engine::NodeProtocol`] and run it on any graph under either
//!   bandwidth model through [`Network::run`], the one entry point.
//! * [`algorithms`] — the building blocks the paper's protocols assume:
//!   distributed BFS-tree construction, max-id leader election,
//!   convergecast aggregation and broadcast, and Luby's MIS (on power
//!   graphs `G^r`, as the LOCAL tester requires).
//! * [`fault`] — deterministic, seeded fault injection (message drops,
//!   bit flips, node crashes) applied identically by every engine path.
//! * [`power`] — power-graph construction `G^r`.
//!
//! # Example: flooding a token
//!
//! ```rust
//! use dut_netsim::engine::{BandwidthModel, Network, NodeProtocol, Outbox};
//! use dut_netsim::fault::FaultPlan;
//! use dut_netsim::graph::NodeId;
//! use dut_netsim::topology;
//!
//! #[derive(Clone)]
//! struct Flood { seen: bool }
//!
//! impl NodeProtocol for Flood {
//!     type Msg = ();
//!     fn on_round(
//!         &mut self,
//!         node: NodeId,
//!         round: usize,
//!         inbox: &[(NodeId, ())],
//!         out: &mut Outbox<'_, ()>,
//!     ) {
//!         let newly = (node == 0 && round == 0) || (!self.seen && !inbox.is_empty());
//!         if newly {
//!             self.seen = true;
//!             out.broadcast(());
//!         }
//!     }
//!     fn is_done(&self) -> bool { self.seen }
//! }
//!
//! let g = topology::line(8);
//! let mut net = Network::new(&g, BandwidthModel::Local);
//! let states = vec![Flood { seen: false }; 8];
//! let report = net.run(states, 32, &FaultPlan::none(), &mut dut_obs::NoopSink).unwrap();
//! // 7 hops, one round draining the last broadcast, one quiescent round.
//! assert_eq!(report.rounds, 9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod algorithms;
pub mod engine;
pub mod fault;
pub mod graph;
pub mod power;
pub mod recover;
pub mod reference;
pub mod topology;

pub use engine::{BandwidthModel, Network, RunReport};
pub use fault::{FaultInjectable, FaultPlan};
pub use graph::{Csr, DegreeStats, Graph, GraphError, ImplicitTopology, NodeId};
pub use topology::{
    Hypercube, ImplicitLine, ImplicitRing, ImplicitTree, MargulisExpander, Torus2d,
};
