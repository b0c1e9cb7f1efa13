//! The synchronous round engine.
//!
//! Executes a [`NodeProtocol`] at every node of a [`Graph`] in lockstep
//! rounds: messages sent in round `r` are delivered at the start of round
//! `r+1`. Under [`BandwidthModel::Congest`] the engine *enforces* the
//! per-edge-per-round bit budget — a protocol that violates CONGEST fails
//! loudly instead of silently cheating — and every run returns a
//! [`RunReport`] with rounds, message and bit counts.
//!
//! # Performance architecture
//!
//! The engine is built for Monte-Carlo workloads where the same network
//! is run thousands of times. All per-round and per-run buffers live in
//! a private `EngineScratch` that each [`Network`] owns and reuses
//! across its runs, so the steady state performs **no heap allocation**:
//!
//! * The graph is flattened into a [`Csr`] (flat neighbor + offset
//!   arrays) once per run, reusing capacity.
//! * Instead of per-node `Vec<Vec<..>>` inboxes, all messages of a round
//!   live in one flat arena. Delivery is a count-then-fill stable
//!   counting sort: count per-destination messages, prefix-sum into
//!   per-node offsets, then place each staged send in its slot. Message
//!   types without drop glue (`Compact`, `u64`, tuples of them) are
//!   scattered into a prefilled arena in one pass; types with drop glue
//!   are permuted in place by cycle-chasing. A node's inbox is a slice
//!   of the arena.
//! * `Outbox::send` validates neighbor-ship and finds the CONGEST
//!   accounting slot in O(1) through a dense per-node neighbor-position
//!   index, instead of scanning the neighbor list per send.
//! * Each round after round 0 visits only the nodes it must: those
//!   that received mail, those whose last step asked for another round
//!   ([`NodeProtocol::wants_round`]), and those rejoining after a
//!   crash. They are marked in one bitmap that a round walks by runs
//!   of consecutive marked nodes, in node-id order with no sort: a
//!   wavefront phase costs O(active + nodes/64) per round instead of
//!   O(nodes), and a round in which every node stays awake costs a
//!   plain loop over the nodes.
//!
//! [`Network::run`] is the one entry point; it steps every node inline
//! on the calling thread, under the [`FaultPlan`] it is given
//! ([`FaultPlan::none`] for a clean run). The pre-existing nested-`Vec`
//! engine is retained as [`crate::reference`] for differential testing
//! and benchmarking.
//!
//! # Invariants
//!
//! The flat representation rests on four invariants (DESIGN.md §7 gives
//! the performance rationale; this is the normative statement):
//!
//! 1. **CSR layout.** The graph view is a compressed-sparse-row pair
//!    `(offsets, neighbors)`: node `v`'s neighbor list is
//!    `neighbors[offsets[v]..offsets[v+1]]`, in the same order as
//!    [`Graph::neighbors`]. The CSR is rebuilt (reusing capacity) at
//!    the start of every run, so mid-run graph mutation is unsupported
//!    by construction. The message arena is sliced the same way: the
//!    nodes marked for a round own consecutive inboxes in node order,
//!    node `v`'s `counts[v]` long, read back with a running cursor.
//!
//! 2. **Double-buffer handoff.** Each round reads inboxes from the
//!    `arena` filled by the *previous* round while staging new sends
//!    into `staged`; `deliver` then turns `staged` into the next
//!    round's `arena` in place. Messages sent in round `r` are
//!    therefore visible exactly in round `r+1`, never earlier.
//!
//! 3. **Counting-sort stability.** Delivery groups `staged` (global
//!    send order: node order, then send order within a node) by
//!    destination with a *stable* counting sort, so each inbox sees
//!    messages in the exact order naive per-inbox pushes would produce.
//!    One slot rule serves every delivery path: each message lands at
//!    its destination's fill cursor, which starts at the inbox start
//!    and advances by one. Whether a message type is scattered or
//!    cycle-chased changes only how it reaches its slot, never the
//!    slot. Marked nodes are stepped in node-id order, the order in
//!    which [`crate::reference`] steps every node; an unmarked node is
//!    one whose step would have had no effect, by the
//!    [`NodeProtocol::wants_round`] contract.
//!    Differential tests against [`crate::reference`] depend on this.
//!
//! 4. **Scratch reuse contract.** Between runs a [`Network`]'s scratch
//!    holds only capacity, never state: every run begins by re-sizing
//!    and re-zeroing (see `EngineScratch::prepare_for`). `counts` is
//!    zero for every node a round does not visit, and the transient
//!    buffers `neighbor_pos`/`edge_bits` are all-zero outside the
//!    windows in which a single node is stepped or metered — restored
//!    even on early error returns by `prepare_for` of the *next* run.
//!    Hence a network may be reused across protocols, fault plans and
//!    failed runs, and a run's results never depend on what the network
//!    ran before.

use crate::fault::{bit_len, FaultInjectable, FaultPlan};
use crate::graph::{Csr, Graph, ImplicitTopology, NodeId};
use dut_obs::{keys, Sink, Span};
use std::error::Error;
use std::fmt;
use std::ops::Range;

/// Bit-size accounting for protocol messages.
///
/// CONGEST budgets are measured in bits; every message type must say how
/// many bits it occupies on the wire. Implementations for the common
/// payload types are provided.
pub trait MessageSize {
    /// Size of this message in bits. Every message costs at least 1 bit.
    fn size_bits(&self) -> usize;
}

impl MessageSize for () {
    fn size_bits(&self) -> usize {
        1
    }
}

impl MessageSize for bool {
    fn size_bits(&self) -> usize {
        1
    }
}

impl MessageSize for u32 {
    fn size_bits(&self) -> usize {
        32
    }
}

impl MessageSize for u64 {
    fn size_bits(&self) -> usize {
        64
    }
}

impl<T: MessageSize> MessageSize for Vec<T> {
    fn size_bits(&self) -> usize {
        self.iter()
            .map(MessageSize::size_bits)
            .sum::<usize>()
            .max(1)
    }
}

impl<A: MessageSize, B: MessageSize> MessageSize for (A, B) {
    fn size_bits(&self) -> usize {
        self.0.size_bits() + self.1.size_bits()
    }
}

/// A bounded counter metered at its actual bit length
/// (`⌈log₂(v+1)⌉`, minimum 1) — the natural CONGEST cost of sending a
/// value known to lie in a small range, such as a BFS depth or a
/// partial count. A fixed-width `u64` would be charged 64 bits even
/// when the protocol only ever sends values below `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Compact(pub u64);

impl MessageSize for Compact {
    fn size_bits(&self) -> usize {
        bit_len(self.0)
    }
}

/// The bandwidth model a run is executed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BandwidthModel {
    /// LOCAL: unbounded message sizes; only rounds are counted.
    Local,
    /// CONGEST: at most `bits_per_edge` bits per *directed* edge per
    /// round.
    Congest {
        /// The per-edge-per-round budget in bits.
        bits_per_edge: usize,
    },
}

impl BandwidthModel {
    /// The standard CONGEST budget for a parameter space of size `n`
    /// (domain size or network size, whichever is larger):
    /// `c · ⌈log₂(n+1)⌉` bits with the conventional `c = 2` (one value
    /// plus header room).
    pub fn congest_for(n: usize) -> Self {
        // ⌈log₂(n+1)⌉ is exactly the bit length of n; integer
        // arithmetic avoids f64 rounding for n near 2^53 and above.
        let bits = 2 * (usize::BITS - n.leading_zeros()) as usize;
        BandwidthModel::Congest {
            bits_per_edge: bits.max(2),
        }
    }
}

/// Errors surfaced by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A node exceeded the CONGEST per-edge-per-round budget.
    BandwidthExceeded {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Round in which the violation occurred.
        round: usize,
        /// Bits the sender tried to push over the edge this round.
        bits: usize,
        /// The enforced budget.
        budget: usize,
    },
    /// A node sent to a node it is not adjacent to — protocols may
    /// only talk over edges. The first such send of the run, in node
    /// order.
    NotANeighbor {
        /// Sending node.
        from: NodeId,
        /// The non-neighbor it addressed.
        to: NodeId,
        /// Round in which the send was attempted.
        round: usize,
    },
    /// The protocol did not terminate within the round limit.
    RoundLimit {
        /// The limit that was hit.
        max_rounds: usize,
    },
    /// The number of protocol states, or of entries in another
    /// per-node input, did not match the node count.
    NodeCountMismatch {
        /// Nodes in the graph.
        graph_nodes: usize,
        /// Entries supplied.
        states: usize,
    },
    /// An input named a node the network does not have.
    NodeOutOfRange {
        /// The named node.
        node: NodeId,
        /// Nodes in the network.
        nodes: usize,
    },
    /// A per-round batch limit of zero, under which nothing could
    /// ever be forwarded.
    ZeroBatch,
    /// A routing assignment is not path-consistent: `node`'s next hop
    /// toward its center is `hop`, which is neither that center nor
    /// assigned to it.
    InconsistentCenters {
        /// The node whose route leaves its center's region.
        node: NodeId,
        /// Its next hop on a shortest path to its center.
        hop: NodeId,
    },
    /// The operation requires at least one node.
    EmptyNetwork,
    /// Leader election needs a unique maximum identifier, but `holders`
    /// nodes share the maximum `id`.
    DuplicateMaxId {
        /// The shared maximum identifier.
        id: u64,
        /// How many nodes hold it.
        holders: usize,
    },
    /// A protocol that must reach every node failed to reach `node` —
    /// a disconnected input, or (under fault injection) a retry budget
    /// exhausted before the node was reached.
    Unreached {
        /// The node that was never reached.
        node: NodeId,
    },
    /// Under fault injection, an identifier corrupted above the true
    /// maximum `id` flooded the election and displaced it: the maximum's
    /// holder ended holding `by` instead.
    MaxIdDisplaced {
        /// The true maximum identifier.
        id: u64,
        /// The corrupted identifier that displaced it.
        by: u64,
    },
    /// Under fault injection, a corrupted depth left `node`'s depth
    /// different from its parent's depth plus one.
    InconsistentDepth {
        /// The node whose depth does not follow its parent's.
        node: NodeId,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::BandwidthExceeded {
                from,
                to,
                round,
                bits,
                budget,
            } => write!(
                f,
                "congest violation on edge {from}->{to} in round {round}: {bits} bits > budget {budget}"
            ),
            EngineError::NotANeighbor { from, to, round } => {
                write!(f, "node {from} tried to send to non-neighbor {to} in round {round}")
            }
            EngineError::RoundLimit { max_rounds } => {
                write!(f, "protocol did not terminate within {max_rounds} rounds")
            }
            EngineError::NodeCountMismatch {
                graph_nodes,
                states,
            } => write!(
                f,
                "graph has {graph_nodes} nodes but {states} protocol states were supplied"
            ),
            EngineError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} does not exist in a {nodes}-node network")
            }
            EngineError::ZeroBatch => write!(f, "batch limit must be positive"),
            EngineError::InconsistentCenters { node, hop } => write!(
                f,
                "node {node}'s next hop {hop} is neither its center nor assigned to it"
            ),
            EngineError::EmptyNetwork => {
                write!(f, "operation requires a non-empty network")
            }
            EngineError::DuplicateMaxId { id, holders } => {
                write!(f, "maximum id {id} is held by {holders} nodes, not one")
            }
            EngineError::Unreached { node } => {
                write!(f, "protocol failed to reach node {node}")
            }
            EngineError::MaxIdDisplaced { id, by } => {
                write!(f, "maximum id {id} was displaced by corrupted id {by}")
            }
            EngineError::InconsistentDepth { node } => {
                write!(f, "node {node}'s depth is not its parent's depth plus one")
            }
        }
    }
}

impl Error for EngineError {}

/// The interface a distributed algorithm implements to run on the
/// engine. One value of the implementing type is the local state of one
/// node.
pub trait NodeProtocol {
    /// The message type exchanged by the protocol.
    type Msg: Clone + MessageSize;

    /// Called once per round at every node. `inbox` holds the messages
    /// delivered this round (sent by neighbors last round), each tagged
    /// with its sender. Messages for the next round are queued through
    /// `out`.
    fn on_round(
        &mut self,
        node: NodeId,
        round: usize,
        inbox: &[(NodeId, Self::Msg)],
        out: &mut Outbox<'_, Self::Msg>,
    );

    /// Whether this node has produced its final output. The run ends
    /// when all nodes are done and no messages are in flight.
    fn is_done(&self) -> bool;

    /// Whether this node must be stepped next round even if its inbox
    /// is empty. The engine asks after every step of the node.
    ///
    /// `false` is a promise: a step with an empty inbox would send
    /// nothing, change no state and leave
    /// [`is_done`](NodeProtocol::is_done) as it is (so the answer stays
    /// `false`). The engine then skips the node until it receives mail
    /// or rejoins after a crash, so a wavefront phase costs O(active)
    /// per round instead of O(nodes), with results bit-identical to
    /// stepping every node every round as [`crate::reference`] does. A
    /// node that acts with an empty inbox — sends from a buffer, or
    /// reads a round clock such as a retransmission timer or a walk's
    /// length — must return `true` while it does; a wrong `false` makes
    /// those steps silently vanish. The default `true` is always
    /// correct.
    fn wants_round(&self) -> bool {
        true
    }

    /// Called once when this node rejoins after a crash
    /// ([`FaultPlan::rejoins_at`]), at the rejoin round, before that
    /// round's [`on_round`](NodeProtocol::on_round). The node's state is
    /// exactly what it was when it crashed (stable storage); messages
    /// delivered while it was down are gone. Protocols that keep
    /// round-derived timers (retry deadlines, backoff) should reset
    /// them here so recovery does not stall; the default does nothing,
    /// which is correct for stateless-in-time protocols.
    fn on_rejoin(&mut self, _node: NodeId, _round: usize) {}
}

/// Queues outgoing messages for one node during one round.
///
/// Sends are staged into a shared flat buffer as `(to, from, msg)`
/// triples; neighbor validation is O(1) through a dense
/// neighbor-position index maintained by the engine.
#[derive(Debug)]
pub struct Outbox<'a, M> {
    node: NodeId,
    neighbors: &'a [NodeId],
    neighbor_pos: &'a mut [u32],
    staged: &'a mut Vec<(NodeId, NodeId, M)>,
    /// Whether this node's entries are present in `neighbor_pos`. The
    /// index fills lazily on the first staged message, so silent nodes
    /// (the common case in wavefront-style protocols) never touch it —
    /// and the engine only needs to clear it when this is set.
    filled: bool,
    /// The target of this node's first send to a non-neighbor, if any;
    /// the engine ends the run with [`EngineError::NotANeighbor`].
    bad_send: Option<NodeId>,
}

impl<'a, M> Outbox<'a, M> {
    pub(crate) fn new(
        node: NodeId,
        neighbors: &'a [NodeId],
        neighbor_pos: &'a mut [u32],
        staged: &'a mut Vec<(NodeId, NodeId, M)>,
    ) -> Self {
        Outbox {
            node,
            neighbors,
            neighbor_pos,
            staged,
            filled: false,
            bad_send: None,
        }
    }

    /// Whether any message was staged (and `neighbor_pos` written).
    pub(crate) fn index_filled(&self) -> bool {
        self.filled
    }

    fn fill_index(&mut self) {
        for (p, &nb) in self.neighbors.iter().enumerate() {
            self.neighbor_pos[nb] = p as u32 + 1;
        }
        self.filled = true;
    }

    /// The target of the first send to a non-neighbor, if any.
    pub(crate) fn bad_send(&self) -> Option<NodeId> {
        self.bad_send
    }

    /// Records a send to the non-neighbor `to`; only the first counts.
    /// Fills the position index like any send, so a node with a bad
    /// send always reports [`Outbox::index_filled`]. Cold and out of
    /// line, so [`Outbox::send`] stays one branch around its push.
    #[cold]
    #[inline(never)]
    fn reject(&mut self, to: NodeId) {
        if !self.filled {
            self.fill_index();
        }
        self.bad_send.get_or_insert(to);
    }

    /// Sends `msg` to neighbor `to`.
    ///
    /// Protocols may only talk over edges: a send to a non-neighbor is
    /// discarded, and the run ends with [`EngineError::NotANeighbor`]
    /// once this node's round is over.
    pub fn send(&mut self, to: NodeId, msg: M) {
        if !self.filled {
            self.fill_index();
        }
        if to < self.neighbor_pos.len() && self.neighbor_pos[to] != 0 {
            self.staged.push((to, self.node, msg));
        } else {
            self.reject(to);
        }
    }

    /// Sends a copy of `msg` to every neighbor.
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        if !self.filled {
            // Targets are neighbors by construction, but the metering
            // pass needs the position index for any staged message.
            self.fill_index();
        }
        for &to in self.neighbors {
            self.staged.push((to, self.node, msg.clone()));
        }
    }

    /// Runs `f` with an outbox for the same node that stages into
    /// `staged` instead, sharing this outbox's neighbor-position index.
    /// A wrapper protocol hands the inner outbox to the protocol it
    /// wraps, then re-sends what was staged in its own message type.
    ///
    /// The inner outbox's index fill and first rejected send carry over
    /// to this one, so the engine clears the shared index and reports
    /// [`EngineError::NotANeighbor`] exactly as for a direct send.
    pub(crate) fn restaged<N, R>(
        &mut self,
        staged: &mut Vec<(NodeId, NodeId, N)>,
        f: impl FnOnce(&mut Outbox<'_, N>) -> R,
    ) -> R {
        let mut inner = Outbox {
            node: self.node,
            neighbors: self.neighbors,
            neighbor_pos: &mut *self.neighbor_pos,
            staged,
            filled: self.filled,
            bad_send: self.bad_send,
        };
        let result = f(&mut inner);
        (self.filled, self.bad_send) = (inner.filled, inner.bad_send);
        result
    }

    /// Neighbors of the sending node (so protocols need not carry the
    /// graph around). The slice borrows from the engine, not from the
    /// outbox, so it can be held across [`Outbox::send`] calls.
    pub fn neighbors(&self) -> &'a [NodeId] {
        self.neighbors
    }
}

/// Metrics and final node states from a completed run.
#[derive(Debug, Clone)]
pub struct RunReport<P> {
    /// Rounds executed (including the final quiescent round, if any
    /// messages were still in flight when all nodes finished).
    pub rounds: usize,
    /// Total messages delivered.
    pub total_messages: usize,
    /// Total bits delivered.
    pub total_bits: usize,
    /// The maximum bits pushed over any directed edge in any single
    /// round — must be ≤ the CONGEST budget when one is enforced.
    pub max_edge_bits_per_round: usize,
    /// Messages lost in transit under fault injection (always 0 in an
    /// unfaulted run). Dropped messages are still metered: the sender
    /// paid for them, so `total_messages`/`total_bits` include them.
    pub dropped_messages: usize,
    /// Wire bits flipped in transit under fault injection (always 0 in
    /// an unfaulted run).
    pub flipped_bits: usize,
    /// Final per-node protocol states (outputs live here).
    pub nodes: Vec<P>,
}

/// The reusable buffers a [`Network`] keeps across its runs.
///
/// Holds every allocation the round engine needs: the CSR graph view,
/// the double-buffered flat message arena, per-destination counts and
/// offsets, the dense neighbor-position index, and per-neighbor CONGEST
/// bit accounting. After the first run, subsequent runs of the same
/// network perform no heap allocation (message payloads that themselves
/// allocate, e.g. `Vec<u64>`, are the protocol's business).
#[derive(Debug)]
struct EngineScratch<M> {
    csr: Csr,
    /// Messages delivered this round, grouped by destination: the nodes
    /// marked in `active` own consecutive inboxes in node order, node
    /// `v`'s `counts[v]` long.
    arena: Vec<(NodeId, M)>,
    /// Per-destination placement cursor of [`deliver`]: set to the
    /// node's inbox start, it ends at the inbox end. Written for the
    /// marked nodes only; other entries are stale.
    fill: Vec<usize>,
    /// Messages sent this round, in global send order, as
    /// `(to, from, msg)`.
    staged: Vec<(NodeId, NodeId, M)>,
    /// Per-node inbox lengths, set by [`deliver`] and zeroed as the
    /// round visits each node, so every node not marked in `active`
    /// has 0.
    counts: Vec<usize>,
    /// Permutation scratch for the cycle-chasing placement of message
    /// types with drop glue; unused by the one-pass scatter placement.
    perm: Vec<usize>,
    /// Dense index: `neighbor_pos[u] == p+1` iff `u` is the `p`-th
    /// neighbor of the node currently stepping, 0 otherwise. Zeroed
    /// outside each fill/clear window.
    neighbor_pos: Vec<u32>,
    /// Cumulative bits sent to each neighbor position this round by the
    /// node currently being metered. Zeroed outside each window.
    edge_bits: Vec<usize>,
    /// Per-neighbor-position message counters used by the fault paths
    /// to number a node's messages per directed edge (the fault
    /// stream's message index). Zeroed outside each window, like
    /// `edge_bits`.
    edge_msgs: Vec<usize>,
    /// Neighbor scratch for implicit topologies (unused — empty — when
    /// the topology primes the CSR).
    nbr_buf: Vec<NodeId>,
    /// One bit per node, `⌈nodes/64⌉` words: the nodes the current
    /// round visits. Stepping a node clears its bit unless it asks to
    /// wake ([`NodeProtocol::wants_round`]); [`deliver`] then marks the
    /// receivers, which leaves the next round's visits.
    active: Vec<u64>,
}

impl<M> Default for EngineScratch<M> {
    fn default() -> Self {
        EngineScratch {
            csr: Csr::new(),
            arena: Vec::new(),
            fill: Vec::new(),
            staged: Vec::new(),
            counts: Vec::new(),
            perm: Vec::new(),
            neighbor_pos: Vec::new(),
            edge_bits: Vec::new(),
            edge_msgs: Vec::new(),
            nbr_buf: Vec::new(),
            active: Vec::new(),
        }
    }
}

impl<M> EngineScratch<M> {
    /// Sizes every buffer for `topo` and resets per-run state. Reuses
    /// existing capacity; also re-establishes the all-zero invariants of
    /// `counts` / `neighbor_pos` / `edge_bits` that an error return may
    /// have left dirty, and clears `active`, which a finished run leaves
    /// holding its last wake bits.
    ///
    /// Returns whether the topology primed the CSR ([`Graph`] does;
    /// implicit families do not) — the engine reads neighbors from the
    /// CSR when it did and calls [`ImplicitTopology::neighbors`]
    /// otherwise.
    fn prepare_for<T: ImplicitTopology>(&mut self, topo: &T) -> bool {
        let use_csr = topo.prime_csr(&mut self.csr);
        let k = topo.node_count();
        let max_degree = if use_csr {
            self.csr.max_degree()
        } else {
            topo.max_degree()
        };
        self.arena.clear();
        self.staged.clear();
        self.fill.clear();
        self.fill.resize(k, 0);
        self.counts.clear();
        self.counts.resize(k, 0);
        self.perm.clear();
        self.neighbor_pos.clear();
        self.neighbor_pos.resize(k, 0);
        self.edge_bits.clear();
        self.edge_bits.resize(max_degree, 0);
        self.edge_msgs.clear();
        self.edge_msgs.resize(max_degree, 0);
        self.nbr_buf.clear();
        self.active.clear();
        self.active.resize(k.div_ceil(64), 0);
        use_csr
    }
}

/// Running message/bit totals of a run.
struct Metrics {
    total_messages: usize,
    total_bits: usize,
    /// Max single-edge bits over all *completed* rounds.
    max_edge_bits: usize,
    /// Max single-edge bits within the round currently being metered;
    /// folded into `max_edge_bits` by [`Metrics::end_round`]. Keeping
    /// the in-round max separate costs nothing per message and lets an
    /// observed run report per-round slot congestion.
    round_max_edge_bits: usize,
    /// Messages lost to fault injection (0 on the unfaulted paths).
    dropped_messages: usize,
    /// Wire bits flipped by fault injection (0 on the unfaulted paths).
    flipped_bits: usize,
}

impl Metrics {
    fn new() -> Self {
        Metrics {
            total_messages: 0,
            total_bits: 0,
            max_edge_bits: 0,
            round_max_edge_bits: 0,
            dropped_messages: 0,
            flipped_bits: 0,
        }
    }

    /// Closes the current round: folds the in-round edge max into the
    /// run-wide max and returns it.
    fn end_round(&mut self) -> usize {
        let round_max = self.round_max_edge_bits;
        self.round_max_edge_bits = 0;
        self.max_edge_bits = self.max_edge_bits.max(round_max);
        round_max
    }

    /// Meters one sender's contiguous run `staged[run]` and passes it
    /// through `channel`. Every message is metered at its original size
    /// (the sender paid for it) before the channel drops or corrupts it;
    /// survivors are compacted to `staged[w..]` in send order and the
    /// advanced cursor is returned. A clean channel keeps every message
    /// in place, so its cursor just skips the run.
    ///
    /// `neighbor_pos` must index `nbrs`, the sender's neighbors, and
    /// `edge_bits`/`edge_msgs` must be zero; on `Ok` all three are
    /// cleared again. An error leaves them dirty for the next run's
    /// `prepare_for`.
    ///
    /// Always inlined: the round loop calls it once per sending node,
    /// and as an out-of-line call it made dense inline stepping on a
    /// 110×110 torus about 10% slower (2-core host).
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn meter_sender<M: MessageSize, C: Channel<M>>(
        &mut self,
        model: BandwidthModel,
        round: usize,
        channel: &C,
        staged: &mut [(NodeId, NodeId, M)],
        run: Range<usize>,
        mut w: usize,
        nbrs: &[NodeId],
        neighbor_pos: &mut [u32],
        edge_bits: &mut [usize],
        edge_msgs: &mut [usize],
    ) -> Result<usize, EngineError> {
        for (to, from, msg) in &staged[run.clone()] {
            let bits = msg.size_bits();
            let pos = (neighbor_pos[*to] - 1) as usize;
            edge_bits[pos] += bits;
            let entry = edge_bits[pos];
            if let BandwidthModel::Congest { bits_per_edge } = model {
                if entry > bits_per_edge {
                    return Err(EngineError::BandwidthExceeded {
                        from: *from,
                        to: *to,
                        round,
                        bits: entry,
                        budget: bits_per_edge,
                    });
                }
            }
            self.round_max_edge_bits = self.round_max_edge_bits.max(entry);
            self.total_messages += 1;
            self.total_bits += bits;
        }
        for b in edge_bits.iter_mut().take(nbrs.len()) {
            *b = 0;
        }
        if channel.plan().is_some() {
            for r in run {
                let (to, from, _) = staged[r];
                let pos = (neighbor_pos[to] - 1) as usize;
                let idx = edge_msgs[pos];
                edge_msgs[pos] += 1;
                match channel.apply(round, from, to, idx, &mut staged[r].2) {
                    None => self.dropped_messages += 1,
                    Some(flips) => {
                        self.flipped_bits += flips as usize;
                        staged.swap(w, r);
                        w += 1;
                    }
                }
            }
            for b in edge_msgs.iter_mut().take(nbrs.len()) {
                *b = 0;
            }
        } else {
            w += run.len();
        }
        for &nb in nbrs {
            neighbor_pos[nb] = 0;
        }
        Ok(w)
    }
}

/// Per-round observation state for an instrumented run.
///
/// One `enabled()` check per round is the whole cost against a
/// disabled sink: the message/bit deltas, the edge-max fold, and the
/// clock reads are all skipped (the fold still happens, but it is two
/// integer ops). No per-message work is ever added.
struct RoundObs {
    prev_messages: usize,
    prev_bits: usize,
}

impl RoundObs {
    fn new() -> Self {
        RoundObs {
            prev_messages: 0,
            prev_bits: 0,
        }
    }

    /// Closes one round: folds the in-round edge max into the run max
    /// and, when the sink is enabled, records the round's message and
    /// bit deltas, its max single-edge bits, and its wall time.
    fn end_round(&mut self, sink: &mut dyn Sink, metrics: &mut Metrics, span: Span) {
        let round_max = metrics.end_round();
        if sink.enabled() {
            sink.observe(
                keys::NETSIM_ROUND_MESSAGES,
                (metrics.total_messages - self.prev_messages) as u64,
            );
            sink.observe(
                keys::NETSIM_ROUND_BITS,
                (metrics.total_bits - self.prev_bits) as u64,
            );
            sink.observe(keys::NETSIM_ROUND_MAX_EDGE_BITS, round_max as u64);
            self.prev_messages = metrics.total_messages;
            self.prev_bits = metrics.total_bits;
            span.finish(sink, keys::NETSIM_ROUND_NANOS);
        }
    }
}

/// Records the run-total counters of a successfully completed run.
fn record_run(sink: &mut dyn Sink, rounds: usize, metrics: &Metrics) {
    if sink.enabled() {
        sink.add(keys::NETSIM_RUNS, 1);
        sink.add(keys::NETSIM_ROUNDS, rounds as u64);
        sink.add(keys::NETSIM_MESSAGES, metrics.total_messages as u64);
        sink.add(keys::NETSIM_BITS, metrics.total_bits as u64);
        sink.observe(keys::NETSIM_RUN_MAX_EDGE_BITS, metrics.max_edge_bits as u64);
    }
}

/// Records fault-injection totals. Called only on the faulted code
/// paths, so unfaulted observed runs emit byte-identical metric streams
/// to what they emitted before fault injection existed.
fn record_faults(sink: &mut dyn Sink, rounds: usize, metrics: &Metrics, plan: &FaultPlan) {
    if sink.enabled() {
        sink.add(
            keys::NETSIM_FAULT_DROPPED_MESSAGES,
            metrics.dropped_messages as u64,
        );
        sink.add(keys::NETSIM_FAULT_FLIPPED_BITS, metrics.flipped_bits as u64);
        sink.add(
            keys::NETSIM_FAULT_CRASHED_NODES,
            plan.effective_crashes(rounds) as u64,
        );
        let rejoins = plan.effective_rejoins(rounds);
        if rejoins > 0 {
            sink.add(keys::NETSIM_REJOIN_NODES, rejoins as u64);
            sink.add(
                keys::NETSIM_REJOIN_DOWNTIME_ROUNDS,
                plan.downtime_rounds(rounds) as u64,
            );
        }
    }
}

/// The channel a run sends through. [`Clean`] delivers every
/// message untouched; a [`FaultPlan`] crashes nodes and drops or
/// corrupts messages. The round loop is generic over it, so clean runs
/// compile with every fault branch folded away.
trait Channel<M> {
    /// The fault plan, or `None` on the clean channel.
    fn plan(&self) -> Option<&FaultPlan>;
    /// [`FaultPlan::apply`]; only called when [`Channel::plan`] is set.
    fn apply(&self, round: usize, from: NodeId, to: NodeId, idx: usize, msg: &mut M)
        -> Option<u32>;
}

/// The fault-free channel.
struct Clean;

impl<M> Channel<M> for Clean {
    fn plan(&self) -> Option<&FaultPlan> {
        None
    }
    fn apply(&self, _: usize, _: NodeId, _: NodeId, _: usize, _: &mut M) -> Option<u32> {
        Some(0)
    }
}

impl<M: MessageSize + FaultInjectable> Channel<M> for FaultPlan {
    fn plan(&self) -> Option<&FaultPlan> {
        Some(self)
    }
    fn apply(
        &self,
        round: usize,
        from: NodeId,
        to: NodeId,
        idx: usize,
        msg: &mut M,
    ) -> Option<u32> {
        FaultPlan::apply(self, round, from, to, idx, msg)
    }
}

/// Delivers this round's staged sends into the arena and marks their
/// receivers in `active`; returns how many nodes `active` then marks.
///
/// On entry `active` holds this round's visits that asked to wake.
/// Counting marks each destination in it too; one in-order walk of its
/// runs of marked nodes ([`take_run`]) then lays the marked nodes'
/// inboxes out consecutively in node order, node `v`'s `counts[v]`
/// long (0 for a node that only asked to wake), in O(marked +
/// nodes/64) with no sort. The next round walks the same bits in the
/// same order and reads each inbox back with a running cursor.
///
/// Placement follows one slot rule: each message lands at its
/// destination's `fill` cursor, which starts at the inbox start and
/// advances by one, so global send order is preserved within each
/// destination and inbox ordering matches naive per-inbox pushes.
/// Message types without drop glue (`Compact`, `u64`, tuples of them)
/// are scattered in one pass into an arena prefilled with copies of the
/// first message. Types with drop glue (`Vec<u64>`, codewords) would
/// clone a heap buffer per prefilled slot, so they are permuted in
/// place by cycle-chasing instead and then moved over.
fn deliver<M: Clone>(
    staged: &mut Vec<(NodeId, NodeId, M)>,
    arena: &mut Vec<(NodeId, M)>,
    fill: &mut [usize],
    counts: &mut [usize],
    perm: &mut Vec<usize>,
    active: &mut [u64],
) -> usize {
    for &(to, _, _) in staged.iter() {
        counts[to] += 1;
        active[to / 64] |= 1 << (to % 64);
    }
    let mut marked = 0;
    let mut off = 0;
    for (w, &word) in active.iter().enumerate() {
        marked += word.count_ones() as usize;
        let mut bits = word;
        while bits != 0 {
            for v in take_run(&mut bits, w) {
                fill[v] = off;
                off += counts[v];
            }
        }
    }
    arena.clear();
    if !std::mem::needs_drop::<M>() {
        if let Some((_, from, msg)) = staged.first() {
            arena.resize(staged.len(), (*from, msg.clone()));
        }
        for (to, from, msg) in staged.drain(..) {
            arena[fill[to]] = (from, msg);
            fill[to] += 1;
        }
        return marked;
    }
    perm.clear();
    for &(to, _, _) in staged.iter() {
        perm.push(fill[to]);
        fill[to] += 1;
    }
    for i in 0..staged.len() {
        while perm[i] != i {
            let j = perm[i];
            staged.swap(i, j);
            perm.swap(i, j);
        }
    }
    arena.extend(staged.drain(..).map(|(_, from, msg)| (from, msg)));
    marked
}

/// Takes the lowest run of consecutive set bits out of `bits`, word
/// `w` of a node bitmap, and returns its nodes. Walking a bitmap by
/// runs keeps a round in which every node is marked about as cheap as a
/// plain loop over the nodes, and a sparse round at O(runs + nodes/64).
#[inline]
fn take_run(bits: &mut u64, w: usize) -> Range<usize> {
    let start = bits.trailing_zeros();
    let len = (!(*bits >> start)).trailing_zeros();
    // Adding the lowest set bit carries through the run and clears it.
    *bits &= bits.wrapping_add(*bits & bits.wrapping_neg());
    let base = w * 64 + start as usize;
    base..base + len as usize
}

/// A synchronous network: a topology plus a bandwidth model, and the
/// buffers its runs reuse.
///
/// The topology parameter defaults to [`Graph`] (stored adjacency,
/// flattened into a CSR per run). Implicit families
/// ([`crate::topology::Torus2d`] and friends) plug in through the same
/// parameter and compute neighbors on the fly, so a 10⁷-node run never
/// materializes an edge list; engine results are bit-identical to a run
/// on `topology.materialize()`.
///
/// `M` is the message type of the protocols the network runs, inferred
/// from the first [`Network::run`]. Holding one network across many
/// runs reuses its buffers, so repeated runs do not allocate.
#[derive(Debug)]
pub struct Network<'g, M, T: ImplicitTopology = Graph> {
    graph: &'g T,
    model: BandwidthModel,
    scratch: EngineScratch<M>,
}

impl<'g, M, T: ImplicitTopology> Network<'g, M, T> {
    /// Creates a network over `graph` with the given bandwidth model.
    pub fn new(graph: &'g T, model: BandwidthModel) -> Self {
        Network {
            graph,
            model,
            scratch: EngineScratch::default(),
        }
    }

    /// The underlying topology.
    pub fn graph(&self) -> &T {
        self.graph
    }

    /// The bandwidth model.
    pub fn model(&self) -> BandwidthModel {
        self.model
    }

    /// Runs the protocol to quiescence (all nodes done, no messages in
    /// flight) or up to `max_rounds` under `faults`, recording metrics
    /// into `sink`.
    ///
    /// [`FaultPlan::none`] runs the unfaulted code path; any other plan
    /// is applied exactly as [`crate::reference::run_reference`] applies
    /// it (see [`crate::fault`]). Nodes step inline on the calling
    /// thread, in node order.
    ///
    /// The sink sees run-total counters plus per-round histograms of
    /// messages, bits, max single-edge bits and wall-clock nanoseconds
    /// (`netsim.*` in [`dut_obs::keys`]), and fault totals
    /// (`netsim.fault.*`) only when a plan is active. Sinks never
    /// influence execution.
    ///
    /// # Errors
    ///
    /// * [`EngineError::EmptyNetwork`] on a graph with no nodes.
    /// * [`EngineError::NodeCountMismatch`] if `states` has the wrong
    ///   length.
    /// * [`EngineError::BandwidthExceeded`] on a CONGEST violation.
    /// * [`EngineError::NotANeighbor`] if a node sends over a non-edge.
    /// * [`EngineError::RoundLimit`] if quiescence is not reached.
    ///
    /// After an error the network stays usable.
    pub fn run<P>(
        &mut self,
        states: Vec<P>,
        max_rounds: usize,
        faults: &FaultPlan,
        sink: &mut dyn Sink,
    ) -> Result<RunReport<P>, EngineError>
    where
        P: NodeProtocol<Msg = M>,
        M: Clone + MessageSize + FaultInjectable,
    {
        if faults.is_none() {
            // The fault-free plan routes to the clean channel, whose
            // fault branches compile away.
            self.run_rounds(states, max_rounds, &Clean, sink)
        } else {
            self.run_rounds(states, max_rounds, faults, sink)
        }
    }

    /// The round loop — the only one — over a clean or a faulted
    /// [`Channel`]. With a plan, crashed nodes are skipped (and count as
    /// done), and every staged message is metered at its original size
    /// before the plan drops or corrupts it.
    ///
    /// Round 0 visits every node. A later round visits the nodes
    /// [`deliver`] marked — those with mail and those whose last step
    /// asked to wake ([`NodeProtocol::wants_round`]) — plus the nodes
    /// rejoining that round, in node order by runs of the `active`
    /// bitmap ([`take_run`]): bit-identical to stepping every node, by
    /// the `wants_round` contract. Each node's sends are metered right
    /// after it steps, so a violation surfaces before any later node
    /// steps, exactly as the naive engine did.
    fn run_rounds<P, C>(
        &mut self,
        states: Vec<P>,
        max_rounds: usize,
        channel: &C,
        sink: &mut dyn Sink,
    ) -> Result<RunReport<P>, EngineError>
    where
        P: NodeProtocol<Msg = M>,
        M: Clone + MessageSize,
        C: Channel<M>,
    {
        let plan = channel.plan();
        let model = self.model;
        let mut states = self.check_states(states)?;
        let topo = self.graph;
        let scratch = &mut self.scratch;
        // Neighbor lists come from the CSR when the topology primed it,
        // from the topology itself otherwise.
        let use_csr = scratch.prepare_for(topo);
        let EngineScratch {
            csr,
            arena,
            fill,
            staged,
            counts,
            perm,
            neighbor_pos,
            edge_bits,
            edge_msgs,
            nbr_buf,
            active,
        } = scratch;
        let mut metrics = Metrics::new();
        let mut obs = RoundObs::new();

        // Round 0 visits every node, each with an empty inbox.
        let mut marked = states.len();
        active.fill(u64::MAX);
        if marked % 64 != 0 {
            active[marked / 64] = (1 << (marked % 64)) - 1;
        }
        let mut round = 0;
        while round < max_rounds {
            // Rejoining nodes wake up with an empty inbox; they must
            // still be visited (on_rejoin + on_round).
            let wakes_now = round > 0
                && plan.is_some_and(|p| {
                    p.rejoins
                        .iter()
                        .any(|&(v, j)| j == round && p.rejoins_at(v, round))
                });
            if round > 0 && arena.is_empty() {
                // A down node with a pending rejoin is a future
                // wake-up, never a terminated one.
                let quiescent = states.iter().enumerate().all(|(v, s)| {
                    s.is_done()
                        || plan.is_some_and(|p| p.crashed(v, round) && !p.will_rejoin(v, round))
                });
                if quiescent {
                    record_run(sink, round, &metrics);
                    if let Some(p) = plan {
                        record_faults(sink, round, &metrics, p);
                    }
                    return Ok(finish(round, metrics, states));
                }
                if marked == 0 && !wakes_now {
                    // Nothing in flight and no node asked to wake: the
                    // only future done-set changes are crash/rejoin
                    // schedule events. Jump straight to the next one
                    // (the skipped rounds are observationally empty),
                    // or fail with the exact error value stepping out
                    // the remaining rounds would reach.
                    match plan.and_then(|p| p.next_event_after(round)) {
                        Some(next) if next < max_rounds => {
                            round = next;
                            continue;
                        }
                        _ => return Err(EngineError::RoundLimit { max_rounds }),
                    }
                }
            }
            let span = Span::start(&*sink);
            if wakes_now {
                if let Some(p) = plan {
                    for &(v, j) in &p.rejoins {
                        if j == round
                            && p.rejoins_at(v, round)
                            && active[v / 64] & (1 << (v % 64)) == 0
                        {
                            active[v / 64] |= 1 << (v % 64);
                            marked += 1;
                        }
                    }
                }
            }
            if round > 0 && sink.enabled() {
                sink.add(keys::NETSIM_SPARSE_ROUNDS, 1);
                sink.observe(keys::NETSIM_SPARSE_ACTIVE_NODES, marked as u64);
            }

            // Inboxes are consecutive in node order, so a cursor plus
            // each node's count (zeroed as it is read) bounds them; a
            // rejoining node marked after delivery has count 0. Each word
            // is read before its nodes step, so clearing their bits does
            // not change this round's set.
            let mut lo = 0;
            for (w, word) in active.iter_mut().enumerate() {
                let mut bits = *word;
                while bits != 0 {
                    for node in take_run(&mut bits, w) {
                        let hi = lo + std::mem::take(&mut counts[node]);
                        let inbox = &arena[lo..hi];
                        lo = hi;
                        if plan.is_some_and(|p| p.crashed(node, round)) {
                            *word &= !(1 << (node % 64));
                            continue;
                        }
                        if plan.is_some_and(|p| p.rejoins_at(node, round)) {
                            states[node].on_rejoin(node, round);
                        }
                        let nbrs = if use_csr {
                            csr.neighbors(node)
                        } else {
                            topo.neighbors(node, nbr_buf)
                        };
                        let start = staged.len();
                        let mut out = Outbox::new(node, nbrs, neighbor_pos, staged);
                        states[node].on_round(node, round, inbox, &mut out);
                        // A silent node never filled the position index —
                        // there is nothing to meter, clear or reject.
                        if out.index_filled() {
                            if let Some(to) = out.bad_send() {
                                return Err(EngineError::NotANeighbor {
                                    from: node,
                                    to,
                                    round,
                                });
                            }
                            let end = staged.len();
                            let kept = metrics.meter_sender(
                                model,
                                round,
                                channel,
                                staged,
                                start..end,
                                start,
                                nbrs,
                                neighbor_pos,
                                edge_bits,
                                edge_msgs,
                            )?;
                            staged.truncate(kept);
                        }
                        if !states[node].wants_round() {
                            *word &= !(1 << (node % 64));
                        }
                    }
                }
            }

            marked = deliver(staged, arena, fill, counts, perm, active);
            obs.end_round(sink, &mut metrics, span);
            round += 1;
        }
        Err(EngineError::RoundLimit { max_rounds })
    }

    fn check_states<P>(&self, states: Vec<P>) -> Result<Vec<P>, EngineError> {
        if self.graph.node_count() == 0 {
            // A 0-node run used to "succeed" vacuously in 1 round; at
            // scale that silently masks sizing bugs (e.g. grid(r, 0)),
            // so it is now a typed error, mirrored by the reference
            // engine.
            return Err(EngineError::EmptyNetwork);
        }
        if states.len() != self.graph.node_count() {
            return Err(EngineError::NodeCountMismatch {
                graph_nodes: self.graph.node_count(),
                states: states.len(),
            });
        }
        Ok(states)
    }
}

fn finish<P>(rounds: usize, metrics: Metrics, states: Vec<P>) -> RunReport<P> {
    RunReport {
        rounds,
        total_messages: metrics.total_messages,
        total_bits: metrics.total_bits,
        max_edge_bits_per_round: metrics.max_edge_bits,
        dropped_messages: metrics.dropped_messages,
        flipped_bits: metrics.flipped_bits,
        nodes: states,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;
    use dut_obs::NoopSink;

    /// A fault-free run with no sink.
    fn run_clean<M, P, T>(
        net: &mut Network<'_, M, T>,
        states: Vec<P>,
        max_rounds: usize,
    ) -> Result<RunReport<P>, EngineError>
    where
        P: NodeProtocol<Msg = M>,
        M: Clone + MessageSize + FaultInjectable,
        T: ImplicitTopology,
    {
        net.run(states, max_rounds, &FaultPlan::none(), &mut NoopSink)
    }

    /// Flood protocol used across the tests.
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

    /// A staged send, `(to, from, msg)`.
    type Staged<M> = (NodeId, NodeId, M);

    /// Checks `deliver` against naive stable per-destination pushes of
    /// `sends` (in staged order) on `k` nodes, with the nodes in `wake`
    /// marked awake beforehand: the mask must then mark the receivers
    /// and the wakers, and reading the marked nodes' inboxes back in
    /// node order, `counts[v]` each, must give every node its messages
    /// and the wakers without mail an empty inbox.
    fn assert_delivery_matches_naive<M>(k: usize, sends: &[Staged<M>], wake: &[NodeId])
    where
        M: Clone + PartialEq + fmt::Debug,
    {
        let mut want: Vec<Vec<(NodeId, M)>> = vec![Vec::new(); k];
        for (to, from, msg) in sends {
            want[*to].push((*from, msg.clone()));
        }
        let mut arena = Vec::new();
        let mut fill = vec![0; k];
        let mut counts = vec![0; k];
        let mut perm = Vec::new();
        let mut active = vec![0u64; k.div_ceil(64)];
        for &v in wake {
            active[v / 64] |= 1 << (v % 64);
        }

        let mut staged = sends.to_vec();
        let marked = deliver(
            &mut staged,
            &mut arena,
            &mut fill,
            &mut counts,
            &mut perm,
            &mut active,
        );
        assert!(staged.is_empty());
        assert_eq!(arena.len(), sends.len());
        let visited: Vec<NodeId> = (0..k)
            .filter(|&v| !want[v].is_empty() || wake.contains(&v))
            .collect();
        let listed: Vec<NodeId> = (0..k)
            .filter(|&v| active[v / 64] >> (v % 64) & 1 == 1)
            .collect();
        assert_eq!(listed, visited, "mask must mark the receivers and wakers");
        assert_eq!(marked, visited.len());
        let mut lo = 0;
        for v in 0..k {
            if listed.contains(&v) {
                assert_eq!(&arena[lo..lo + counts[v]], want[v].as_slice());
                lo += counts[v];
            } else {
                assert_eq!(counts[v], 0, "unmarked node {v} has a count");
            }
        }
    }

    #[test]
    fn take_run_splits_a_word_into_maximal_runs() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let words = [0, 1, u64::MAX, u64::MAX - 1, 1 << 63, 0b1011_0111 << 20]
            .into_iter()
            .chain((0..64).map(|_| rng.gen::<u64>() & rng.gen::<u64>()));
        for word in words {
            let mut bits = word;
            let mut runs = Vec::new();
            while bits != 0 {
                runs.push(take_run(&mut bits, 3));
            }
            let marked: Vec<usize> = (0..64)
                .filter(|&b| word >> b & 1 == 1)
                .map(|b| 3 * 64 + b)
                .collect();
            assert_eq!(runs.iter().cloned().flatten().collect::<Vec<_>>(), marked);
            // Runs are maximal: a gap separates consecutive ones.
            for pair in runs.windows(2) {
                assert!(pair[0].end < pair[1].start, "{word:#x}: {runs:?}");
            }
        }
    }

    /// A dense round (every node sends to several random destinations,
    /// many shared) and a sparse round whose few receivers span several
    /// bitmap words, both with repeated destinations, as
    /// `(to, from, tag)` on `k` nodes. The tag is unique per message.
    fn delivery_rounds() -> [(usize, Vec<Staged<u64>>); 2] {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let k = 300;
        let mut dense = Vec::new();
        for from in 0..k {
            for _ in 0..rng.gen_range(1..5) {
                let tag = dense.len() as u64;
                dense.push((rng.gen_range(0..k), from, tag));
            }
        }
        let sparse: Vec<Staged<u64>> = [
            (999, 5),
            (3, 5),
            (700, 9),
            (63, 9),
            (3, 64),
            (64, 64),
            (999, 128),
            (700, 700),
            (130, 998),
        ]
        .iter()
        .enumerate()
        .map(|(i, &(to, from))| (to, from, i as u64))
        .collect();
        [(k, dense), (1000, sparse)]
    }

    /// Wake bits for a `k`-node round: some nodes that receive mail in
    /// [`delivery_rounds`] and some that do not, across bitmap words.
    fn wakers(k: usize) -> Vec<NodeId> {
        [0, 3, 4, 63, 64, 129, 299, 998, 999]
            .into_iter()
            .filter(|&v| v < k)
            .collect()
    }

    #[test]
    fn scatter_delivery_matches_naive_pushes() {
        // `Compact` has no drop glue: the one-pass scatter placement.
        assert!(!std::mem::needs_drop::<Compact>());
        for (k, sends) in delivery_rounds() {
            let sends: Vec<_> = sends
                .into_iter()
                .map(|(to, from, tag)| (to, from, Compact(tag)))
                .collect();
            assert_delivery_matches_naive(k, &sends, &[]);
            assert_delivery_matches_naive(k, &sends, &wakers(k));
        }
    }

    #[test]
    fn chase_delivery_matches_naive_pushes() {
        // `Vec<u64>` has drop glue: the cycle-chasing placement.
        assert!(std::mem::needs_drop::<Vec<u64>>());
        for (k, sends) in delivery_rounds() {
            let sends: Vec<_> = sends
                .into_iter()
                .map(|(to, from, tag)| (to, from, vec![tag, from as u64]))
                .collect();
            assert_delivery_matches_naive(k, &sends, &[]);
            assert_delivery_matches_naive(k, &sends, &wakers(k));
        }
    }

    #[test]
    fn flood_reaches_everyone_on_a_line() {
        let g = topology::line(8);
        let mut net = Network::new(&g, BandwidthModel::Local);
        let report = run_clean(&mut net, vec![Flood { seen: false }; 8], 32).unwrap();
        assert!(report.nodes.iter().all(|n| n.seen));
        // 0 announces in round 0; node 7 hears in round 7 and re-broadcasts;
        // round 8 drains node 7's broadcast; round 9 detects quiescence.
        assert_eq!(report.rounds, 9);
    }

    #[test]
    fn flood_rounds_scale_with_diameter() {
        let g_star = topology::star(16);
        let mut net = Network::new(&g_star, BandwidthModel::Local);
        let report = run_clean(&mut net, vec![Flood { seen: false }; 16], 32).unwrap();
        assert!(
            report.rounds <= 4,
            "star flood took {} rounds",
            report.rounds
        );
    }

    #[test]
    fn message_metrics_are_counted() {
        let g = topology::line(3);
        let mut net = Network::new(&g, BandwidthModel::Local);
        let report = run_clean(&mut net, vec![Flood { seen: false }; 3], 32).unwrap();
        // round 0: 0->1. round 1: 1->0, 1->2. round 2: 2->1.
        assert_eq!(report.total_messages, 4);
        assert_eq!(report.total_bits, 4); // unit messages cost 1 bit each
        assert_eq!(report.max_edge_bits_per_round, 1);
    }

    /// Relays a hop count outward from node 0. When `armed`, node 0
    /// instead sends two 64-bit messages to node 1 in round 0, which
    /// breaks a 64-bit CONGEST budget.
    #[derive(Clone, Debug, PartialEq)]
    struct Relay {
        armed: bool,
        hops: Option<u64>,
    }

    impl NodeProtocol for Relay {
        type Msg = Compact;
        fn on_round(
            &mut self,
            node: NodeId,
            round: usize,
            inbox: &[(NodeId, Compact)],
            out: &mut Outbox<'_, Compact>,
        ) {
            if node == 0 && round == 0 {
                self.hops = Some(0);
                if self.armed {
                    out.send(1, Compact(u64::MAX));
                    out.send(1, Compact(u64::MAX));
                } else {
                    out.broadcast(Compact(1));
                }
            } else if let (None, Some((_, m))) = (self.hops, inbox.first()) {
                self.hops = Some(m.0);
                out.broadcast(Compact(m.0.wrapping_add(1)));
            }
        }
        fn is_done(&self) -> bool {
            self.hops.is_some()
        }
    }

    /// Every field of a run's result, comparable across runs.
    type Outcome<P> = Result<(usize, usize, usize, usize, usize, usize, Vec<P>), EngineError>;

    fn outcome<P>(run: Result<RunReport<P>, EngineError>) -> Outcome<P> {
        run.map(|r| {
            (
                r.rounds,
                r.total_messages,
                r.total_bits,
                r.max_edge_bits_per_round,
                r.dropped_messages,
                r.flipped_bits,
                r.nodes,
            )
        })
    }

    #[test]
    fn scratch_reuse_gives_identical_reports() {
        let g = topology::grid(4, 5);
        let model = BandwidthModel::Congest { bits_per_edge: 64 };
        let states = |armed| vec![Relay { armed, hops: None }; 20];
        let clean = FaultPlan::none();
        let flips = FaultPlan::seeded(0xF11B).with_flips(0.05);
        let runs = [
            (false, &clean),
            (false, &clean),
            (true, &clean),
            (false, &clean),
            (false, &flips),
            (true, &flips),
            (false, &flips),
            (false, &clean),
            (true, &clean),
            (false, &clean),
        ];
        let mut net = Network::new(&g, model);
        for (i, (armed, plan)) in runs.iter().enumerate() {
            let reused = outcome(net.run(states(*armed), 64, plan, &mut NoopSink));
            let fresh =
                outcome(Network::new(&g, model).run(states(*armed), 64, plan, &mut NoopSink));
            assert_eq!(
                reused.as_ref().err().is_some(),
                *armed,
                "run {i}: only armed runs fail"
            );
            assert_eq!(reused, fresh, "run {i}");
        }
    }

    #[test]
    fn congest_budget_violation_detected() {
        /// Sends a fat message over one edge in round 0.
        #[derive(Debug)]
        struct Fat;
        impl NodeProtocol for Fat {
            type Msg = Vec<u64>;
            fn on_round(
                &mut self,
                node: NodeId,
                round: usize,
                _inbox: &[(NodeId, Vec<u64>)],
                out: &mut Outbox<'_, Vec<u64>>,
            ) {
                if node == 0 && round == 0 {
                    out.send(1, vec![0u64; 100]); // 6400 bits
                }
            }
            fn is_done(&self) -> bool {
                true
            }
        }
        let g = topology::line(2);
        let mut net = Network::new(&g, BandwidthModel::Congest { bits_per_edge: 64 });
        let err = run_clean(&mut net, vec![Fat, Fat], 8).unwrap_err();
        assert!(matches!(err, EngineError::BandwidthExceeded { .. }));
    }

    #[test]
    fn congest_budget_split_across_messages() {
        /// Sends two messages over one edge whose *sum* exceeds the budget.
        #[derive(Debug)]
        struct TwoMsgs;
        impl NodeProtocol for TwoMsgs {
            type Msg = u64;
            fn on_round(
                &mut self,
                node: NodeId,
                round: usize,
                _inbox: &[(NodeId, u64)],
                out: &mut Outbox<'_, u64>,
            ) {
                if node == 0 && round == 0 {
                    out.send(1, 1);
                    out.send(1, 2);
                }
            }
            fn is_done(&self) -> bool {
                true
            }
        }
        let g = topology::line(2);
        let mut net = Network::new(&g, BandwidthModel::Congest { bits_per_edge: 100 });
        let err = run_clean(&mut net, vec![TwoMsgs, TwoMsgs], 8).unwrap_err();
        assert!(matches!(
            err,
            EngineError::BandwidthExceeded { bits: 128, .. }
        ));
    }

    #[test]
    fn congest_within_budget_succeeds() {
        let g = topology::line(4);
        let mut net = Network::new(&g, BandwidthModel::Congest { bits_per_edge: 8 });
        let report = run_clean(&mut net, vec![Flood { seen: false }; 4], 32).unwrap();
        assert!(report.nodes.iter().all(|n| n.seen));
    }

    #[test]
    fn scratch_usable_after_engine_error() {
        /// Over budget in round 0 when armed; silent otherwise.
        #[derive(Debug, Clone)]
        struct MaybeFat {
            armed: bool,
        }
        impl NodeProtocol for MaybeFat {
            type Msg = u64;
            fn on_round(
                &mut self,
                node: NodeId,
                round: usize,
                _inbox: &[(NodeId, u64)],
                out: &mut Outbox<'_, u64>,
            ) {
                if self.armed && node == 0 && round == 0 {
                    out.send(1, 7);
                }
            }
            fn is_done(&self) -> bool {
                true
            }
        }
        let g = topology::line(2);
        let mut net = Network::new(&g, BandwidthModel::Congest { bits_per_edge: 8 });
        let err = run_clean(&mut net, vec![MaybeFat { armed: true }; 2], 8).unwrap_err();
        assert!(matches!(err, EngineError::BandwidthExceeded { .. }));
        // The network's own scratch must run clean afterwards.
        let ok = run_clean(&mut net, vec![MaybeFat { armed: false }; 2], 8).unwrap();
        assert_eq!(ok.total_messages, 0);
        assert_eq!(ok.rounds, 1);
    }

    #[test]
    fn round_limit_enforced() {
        /// Never terminates: ping-pongs forever.
        #[derive(Debug)]
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
        let g = topology::line(2);
        let mut net = Network::new(&g, BandwidthModel::Local);
        let err = run_clean(&mut net, vec![Chatter, Chatter], 10).unwrap_err();
        assert_eq!(err, EngineError::RoundLimit { max_rounds: 10 });
    }

    #[test]
    fn node_count_mismatch_detected() {
        let g = topology::line(3);
        let mut net = Network::new(&g, BandwidthModel::Local);
        let err = run_clean(&mut net, vec![Flood { seen: false }; 2], 8).unwrap_err();
        assert!(matches!(err, EngineError::NodeCountMismatch { .. }));
    }

    #[test]
    fn send_to_non_neighbor_is_an_error() {
        /// In round 1, node 1 sends to its neighbor 0 and then to the
        /// non-neighbor 4; node 3 sends to the non-neighbor 0. Node 2
        /// breaks the bandwidth budget after node 1 — too late.
        #[derive(Debug, Clone)]
        struct Bad;
        impl NodeProtocol for Bad {
            type Msg = u64;
            fn on_round(
                &mut self,
                node: NodeId,
                round: usize,
                _inbox: &[(NodeId, u64)],
                out: &mut Outbox<'_, u64>,
            ) {
                match (round, node) {
                    (0, _) => out.broadcast(1),
                    (1, 1) => {
                        out.send(0, 2);
                        out.send(4, 3);
                        out.send(2, 4);
                    }
                    (1, 2) => {
                        out.send(3, 5);
                        out.send(3, 6);
                    }
                    (1, 3) => out.send(0, 7),
                    _ => {}
                }
            }
            fn is_done(&self) -> bool {
                false
            }
        }
        let g = topology::line(5); // 0-1-2-3-4
        let model = BandwidthModel::Congest { bits_per_edge: 64 };
        let want = Err(EngineError::NotANeighbor {
            from: 1,
            to: 4,
            round: 1,
        });
        let reference = crate::reference::run_reference(
            &g,
            model,
            vec![Bad; 5],
            8,
            &FaultPlan::none(),
            &mut NoopSink,
        );
        assert_eq!(reference.map(|r| r.rounds), want);
        let coded = || {
            vec![Bad; 5]
                .into_iter()
                .map(|b| {
                    crate::algorithms::CodedProtocol::new(
                        b,
                        crate::algorithms::IdentityCodec::<u64>::new(),
                    )
                })
                .collect::<Vec<_>>()
        };
        let mut net = Network::new(&g, model);
        let flat = run_clean(&mut net, vec![Bad; 5], 8);
        assert_eq!(flat.map(|r| r.rounds), want);
        let mut net = Network::new(&g, model);
        let flat = run_clean(&mut net, coded(), 8);
        assert_eq!(flat.map(|r| r.rounds), want, "coded");
    }

    #[test]
    fn congest_for_scales_logarithmically() {
        let m1 = BandwidthModel::congest_for(1 << 10);
        let m2 = BandwidthModel::congest_for(1 << 20);
        match (m1, m2) {
            (
                BandwidthModel::Congest { bits_per_edge: b1 },
                BandwidthModel::Congest { bits_per_edge: b2 },
            ) => {
                assert_eq!(b1, 22);
                assert_eq!(b2, 42);
            }
            _ => panic!("expected congest models"),
        }
    }

    #[test]
    fn congest_for_exact_bit_lengths() {
        let budget = |n: usize| match BandwidthModel::congest_for(n) {
            BandwidthModel::Congest { bits_per_edge } => bits_per_edge,
            BandwidthModel::Local => unreachable!(),
        };
        assert_eq!(budget(0), 2);
        assert_eq!(budget(1), 2);
        assert_eq!(budget(2), 4); // ⌈log₂ 3⌉ = 2
        assert_eq!(budget(3), 4);
        assert_eq!(budget(4), 6);
        assert_eq!(budget((1 << 10) - 1), 20);
        assert_eq!(budget(1 << 10), 22);
        // f64 log2 rounding must not perturb large powers of two; the
        // integer form is exact everywhere.
        assert_eq!(budget(1 << 52), 106);
        assert_eq!(budget((1 << 53) + 1), 108);
    }

    #[test]
    fn message_size_impls() {
        assert_eq!(().size_bits(), 1);
        assert_eq!(true.size_bits(), 1);
        assert_eq!(7u32.size_bits(), 32);
        assert_eq!(7u64.size_bits(), 64);
        assert_eq!(vec![1u64, 2, 3].size_bits(), 192);
        assert_eq!(Vec::<u64>::new().size_bits(), 1);
        assert_eq!((1u32, 2u64).size_bits(), 96);
    }
}
