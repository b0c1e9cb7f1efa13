//! Seeded lazy random walks as a CONGEST protocol.
//!
//! Every node launches `walks_per_node` walk tokens labeled with their
//! *source* node; each round every token independently stays put with
//! probability 1/2 or moves to a uniformly chosen neighbor. Tokens with
//! the same (node, source) coordinates are indistinguishable, so the
//! wire carries **counts** — one [`WalkMsg`] `(source, count)` per
//! (edge, source) pair per round — and a node's state is the per-source
//! token census [`WalkNode::counts`].
//!
//! # The counter-keyed coin discipline
//!
//! Walk coins come from [`walk_word`], a stateless splitmix64 chain
//! over the coordinates `(seed, round, node, source, slot)` — the same
//! discipline [`dut_netsim::fault::FaultPlan`] uses for drop/flip
//! coins. No mutable RNG is ever consulted, so a token's trajectory is
//! a pure function of the run seed and the (order-independent,
//! commutatively aggregated) token census. That makes the final census
//! bit-identical across the serial engine, the parallel engine at any
//! thread count, and the naive reference engine — clean or under
//! any [`FaultPlan`] — which the conductance pipeline's differential
//! suites assert.
//!
//! # Congestion envelope
//!
//! At most one [`WalkMsg`] per source crosses a directed edge per
//! round, so [`walk_bandwidth_model`] budgets `k` messages per edge.
//! That is the worst case (every source's tokens funneling through one
//! edge); the realized per-round maximum is reported in
//! [`WalkOutcome::max_edge_bits`] and is far smaller on expanders —
//! the paper's O(ℓ·log n) congestion claim, observable per run.

use dut_netsim::algorithms::coded::{codec_stats, CodecStats, CodedProtocol, MessageCodec};
use dut_netsim::engine::{
    BandwidthModel, Compact, EngineError, MessageSize, Network, NodeProtocol, Outbox, RunOptions,
    RunReport,
};
use dut_netsim::fault::{FaultInjectable, FaultPlan};
use dut_netsim::graph::{Graph, ImplicitTopology, NodeId};
use dut_netsim::reference::run_reference;
use dut_obs::{NoopSink, Sink};

/// Lane constant separating walk coins from every other counter-keyed
/// stream in the workspace (the fault plan's drop/flip lanes use their
/// own odd constants).
pub const LANE_WALK: u64 = 0xA5A5_1D0C_9E37_79B9;

/// The splitmix64 finalizer (same mixer as the fault-plan streams).
#[inline]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The walk coin for token slot `slot` of source `src` at `node` in
/// `round`: bit 0 is the lazy coin (0 = stay), the remaining bits pick
/// the neighbor index on a move. Stateless and order-independent —
/// see the module docs for why this is the bit-identity keystone.
#[inline]
pub fn walk_word(seed: u64, round: u64, node: u64, src: u64, slot: u64) -> u64 {
    let mut h = mix(seed ^ LANE_WALK);
    h = mix(h.wrapping_add(round));
    h = mix(h ^ node);
    h = mix(h ^ src);
    mix(h ^ slot)
}

/// One wire message of the walk phase: `cnt` tokens of source `src`
/// crossing an edge this round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkMsg {
    /// Source node the tokens were launched from.
    pub src: u64,
    /// Number of tokens crossing together.
    pub cnt: u64,
}

impl MessageSize for WalkMsg {
    fn size_bits(&self) -> usize {
        Compact(self.src).size_bits() + Compact(self.cnt).size_bits()
    }
}

impl FaultInjectable for WalkMsg {
    fn flip_bit(&mut self, bit: usize) {
        // Flip within the 128-bit packed representation, mirroring
        // `CodecMessage`: low word = src, high word = cnt.
        let bit = bit % 128;
        if bit < 64 {
            self.src ^= 1u64 << bit;
        } else {
            self.cnt ^= 1u64 << (bit - 64);
        }
    }
}

impl dut_netsim::algorithms::coded::CodecMessage for WalkMsg {
    const PACKED_BITS: usize = 128;

    fn to_bits(&self) -> u128 {
        u128::from(self.src) | (u128::from(self.cnt) << 64)
    }

    fn from_bits(bits: u128) -> Self {
        WalkMsg {
            src: bits as u64,
            cnt: (bits >> 64) as u64,
        }
    }
}

/// Per-node state of the walk protocol: the per-source token census.
#[derive(Debug, Clone)]
pub struct WalkNode {
    seed: u64,
    walk_len: usize,
    counts: Vec<u64>,
    move_buf: Vec<u64>,
    done: bool,
}

impl WalkNode {
    /// A node of a `k`-node network holding `walks_per_node` freshly
    /// launched tokens of its own source `own`.
    pub fn new(k: usize, own: NodeId, walks_per_node: u64, seed: u64, walk_len: usize) -> Self {
        let mut counts = vec![0u64; k];
        counts[own] = walks_per_node;
        WalkNode {
            seed,
            walk_len,
            counts,
            move_buf: Vec::new(),
            done: false,
        }
    }

    /// The final census: tokens of each source currently at this node.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total tokens at this node (for conservation checks).
    pub fn total_tokens(&self) -> u64 {
        self.counts.iter().sum()
    }
}

impl NodeProtocol for WalkNode {
    type Msg = WalkMsg;

    fn on_round(
        &mut self,
        node: NodeId,
        round: usize,
        inbox: &[(NodeId, WalkMsg)],
        out: &mut Outbox<'_, WalkMsg>,
    ) {
        // Absorb arrivals. Addition commutes, so inbox order — the one
        // thing that varies in *intermediate* buffers across engines —
        // cannot influence the census.
        for (_, msg) in inbox {
            if let Some(slot) = self.counts.get_mut(msg.src as usize) {
                *slot += msg.cnt;
            }
            // An out-of-range source can only come from an uncorrected
            // bit flip on a plain (uncoded) faulted run; dropping it is
            // a token loss the conservation check downstream reports.
        }
        if round >= self.walk_len {
            self.done = true;
            return;
        }
        let nbrs = out.neighbors();
        if nbrs.is_empty() {
            return;
        }
        let deg = nbrs.len() as u64;
        let seed = self.seed;
        self.move_buf.clear();
        self.move_buf.resize(nbrs.len(), 0);
        for (src, count) in self.counts.iter_mut().enumerate() {
            let c = *count;
            if c == 0 {
                continue;
            }
            self.move_buf.iter_mut().for_each(|m| *m = 0);
            let mut stay = 0u64;
            for slot in 0..c {
                let w = walk_word(seed, round as u64, node as u64, src as u64, slot);
                if w & 1 == 0 {
                    stay += 1;
                } else {
                    self.move_buf[((w >> 1) % deg) as usize] += 1;
                }
            }
            *count = stay;
            for (j, &moved) in self.move_buf.iter().enumerate() {
                if moved > 0 {
                    out.send(
                        nbrs[j],
                        WalkMsg {
                            src: src as u64,
                            cnt: moved,
                        },
                    );
                }
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

/// Initial states for a `k`-node walk run.
pub fn walk_states(k: usize, walks_per_node: u64, seed: u64, walk_len: usize) -> Vec<WalkNode> {
    (0..k)
        .map(|v| WalkNode::new(k, v, walks_per_node, seed, walk_len))
        .collect()
}

/// The CONGEST budget of the walk phase: at most one `(src, cnt)`
/// message per source per directed edge per round, each at most
/// `bitlen(k) + bitlen(k·ℓ)` bits.
pub fn walk_bandwidth_model(k: usize, walks_per_node: u64) -> BandwidthModel {
    let bitlen = |x: u64| 64 - x.max(1).leading_zeros() as usize;
    let total = (k as u64).saturating_mul(walks_per_node);
    let per_msg = bitlen(k as u64) + bitlen(total);
    BandwidthModel::Congest {
        bits_per_edge: (k * per_msg).max(2),
    }
}

/// The CONGEST budget of the *coded* walk phase: one codeword
/// (`codeword_bits` wire bits) per source per directed edge per round.
pub fn walk_coded_bandwidth_model(k: usize, codeword_bits: usize) -> BandwidthModel {
    BandwidthModel::Congest {
        bits_per_edge: (k * codeword_bits).max(2),
    }
}

/// The walk phase's outcome: the full census plus engine cost totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkOutcome {
    /// `counts[v][src]` = tokens of source `src` resting at node `v`.
    pub counts: Vec<Vec<u64>>,
    /// Rounds the walk run used (walk length + the quiescence round).
    pub rounds: usize,
    /// Messages delivered.
    pub messages: u64,
    /// Payload bits metered by the bandwidth model.
    pub bits: u64,
    /// Max bits that crossed any single directed edge in any round —
    /// the *realized* congestion under the worst-case budget.
    pub max_edge_bits: usize,
    /// Messages dropped by fault injection (token losses).
    pub dropped_messages: u64,
    /// Wire bits flipped by fault injection.
    pub flipped_bits: u64,
}

impl WalkOutcome {
    /// Total surviving tokens across all nodes.
    pub fn total_tokens(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// The endpoint collision statistic: `Σ_v Σ_src C(counts[v][src], 2)`
    /// — unordered same-source token pairs resting on the same node.
    pub fn collision_statistic(&self) -> u64 {
        self.counts
            .iter()
            .flatten()
            .map(|&c| c * c.saturating_sub(1) / 2)
            .sum()
    }
}

fn outcome_from_report(report: RunReport<WalkNode>) -> WalkOutcome {
    WalkOutcome {
        counts: report.nodes.iter().map(|n| n.counts.to_vec()).collect(),
        rounds: report.rounds,
        messages: report.total_messages as u64,
        bits: report.total_bits as u64,
        max_edge_bits: report.max_edge_bits_per_round,
        dropped_messages: report.dropped_messages as u64,
        flipped_bits: report.flipped_bits as u64,
    }
}

/// Runs the walk phase on the flat-buffer engine with `options`
/// (thread count, fault plan), recording metrics into `sink`. The
/// census is the same at any thread count.
///
/// # Errors
///
/// Same conditions as [`Network::run`]; in particular a budget below
/// [`walk_bandwidth_model`]'s envelope can surface as
/// [`EngineError::BandwidthExceeded`].
pub fn run_walks<T: ImplicitTopology>(
    g: &T,
    seed: u64,
    walks_per_node: u64,
    walk_len: usize,
    model: BandwidthModel,
    options: &RunOptions,
    sink: &mut dyn Sink,
) -> Result<WalkOutcome, EngineError> {
    let states = walk_states(g.node_count(), walks_per_node, seed, walk_len);
    let report = Network::new(g, model).run(states, walk_len + 4, options, sink)?;
    Ok(outcome_from_report(report))
}

/// Runs the walk phase under `plan` on the naive reference engine —
/// the executable specification the differential suites compare the
/// flat engine against.
///
/// # Errors
///
/// Same conditions as [`Network::run`].
pub fn run_walks_reference(
    g: &Graph,
    seed: u64,
    walks_per_node: u64,
    walk_len: usize,
    model: BandwidthModel,
    plan: &FaultPlan,
) -> Result<WalkOutcome, EngineError> {
    let states = walk_states(g.node_count(), walks_per_node, seed, walk_len);
    let report = run_reference(g, model, states, walk_len + 4, plan, &mut NoopSink)?;
    Ok(outcome_from_report(report))
}

/// Runs the walk phase with every message travelling through `codec`
/// under a [`FaultPlan`]: flips below the codec's correction radius
/// are corrected transparently (the census matches the fault-free
/// run exactly), while drops and undecodable words lose their tokens —
/// which the pipeline's conservation check converts into a typed
/// error rather than a silently skewed statistic.
///
/// # Errors
///
/// Same conditions as [`Network::run`].
#[allow(clippy::too_many_arguments)]
pub fn run_walks_coded<T, C>(
    g: &T,
    seed: u64,
    walks_per_node: u64,
    walk_len: usize,
    model: BandwidthModel,
    plan: &FaultPlan,
    codec: C,
    options: &RunOptions,
    sink: &mut dyn Sink,
) -> Result<(WalkOutcome, CodecStats), EngineError>
where
    T: ImplicitTopology,
    C: MessageCodec<Plain = WalkMsg> + Clone + Send,
    C::Wire: Send + Sync,
{
    let k = g.node_count();
    let states: Vec<CodedProtocol<WalkNode, C>> = (0..k)
        .map(|v| {
            CodedProtocol::new(
                WalkNode::new(k, v, walks_per_node, seed, walk_len),
                codec.clone(),
            )
        })
        .collect();
    let opts = options.clone().with_faults(plan.clone());
    let report = Network::new(g, model).run(states, walk_len + 4, &opts, sink)?;
    let stats = codec_stats(&report.nodes);
    let outcome = WalkOutcome {
        counts: report
            .nodes
            .iter()
            .map(|n| n.inner().counts.to_vec())
            .collect(),
        rounds: report.rounds,
        messages: report.total_messages as u64,
        bits: report.total_bits as u64,
        max_edge_bits: report.max_edge_bits_per_round,
        dropped_messages: report.dropped_messages as u64,
        flipped_bits: report.flipped_bits as u64,
    };
    Ok((outcome, stats))
}
