//! Seeded lazy random walks as a CONGEST protocol.
//!
//! Every node launches `walks_per_node` walk tokens labeled with their
//! *source* node; each round every token independently stays put with
//! probability 1/2 or moves to a uniformly chosen neighbor. Tokens with
//! the same (node, source) coordinates are indistinguishable, so the
//! wire carries **counts** — one [`WalkMsg`] `(source, count)` per
//! (edge, source) pair per round — and a node's state is the per-source
//! token census [`WalkNode::census`]. The census is sparse: a node lists
//! only the sources whose tokens rest on it, in ascending source order,
//! so it holds O(min(k, tokens)) entries and a round costs it O(tokens
//! held), whatever the network size.
//!
//! # The counter-keyed coin discipline
//!
//! Walk coins come from [`walk_word`], a stateless splitmix64 chain
//! over the coordinates `(seed, round, node, source, slot)` — the same
//! discipline [`dut_netsim::fault::FaultPlan`] uses for drop/flip
//! coins. No mutable RNG is ever consulted, so a token's trajectory is
//! a pure function of the run seed and the (order-independent,
//! commutatively aggregated) token census. That makes the final census
//! bit-identical across the flat engine (on a materialized or an
//! implicit topology) and the naive reference engine — clean or under
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
    BandwidthModel, EngineError, MessageSize, Network, NodeProtocol, Outbox, RunReport,
};
use dut_netsim::fault::{bit_len, flip_in_field, FaultInjectable, FaultPlan};
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
        bit_len(self.src) + bit_len(self.cnt)
    }
}

/// Flips act on the metered encoding, as for
/// [`Parcel`](dut_netsim::algorithms::routing::Parcel): the first
/// `bit_len(src)` wire bits are `src`'s, the rest `cnt`'s. A flip that
/// would change a field's bit length (its leading one) is a no-op, so a
/// flipped source stays below the next power of two.
impl FaultInjectable for WalkMsg {
    fn flip_bit(&mut self, bit: usize) {
        let src_bits = bit_len(self.src);
        if bit < src_bits {
            self.src = flip_in_field(self.src, bit);
        } else {
            self.cnt = flip_in_field(self.cnt, bit - src_bits);
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
    /// Network size; valid sources are `0..k`.
    k: u64,
    /// `(src, count)` for every source with tokens here: ascending by
    /// `src`, every count nonzero.
    census: Vec<(u64, u64)>,
    move_buf: Vec<u64>,
    done: bool,
}

impl WalkNode {
    /// A node of a `k`-node network holding `walks_per_node` freshly
    /// launched tokens of its own source `own`.
    pub fn new(k: usize, own: NodeId, walks_per_node: u64, seed: u64, walk_len: usize) -> Self {
        let mut census = Vec::new();
        if walks_per_node > 0 {
            census.push((own as u64, walks_per_node));
        }
        WalkNode {
            seed,
            walk_len,
            k: k as u64,
            census,
            move_buf: Vec::new(),
            done: false,
        }
    }

    /// The census: `(src, count)` for every source with tokens resting
    /// at this node, ascending by `src`. Sources with no tokens here are
    /// not listed.
    pub fn census(&self) -> &[(u64, u64)] {
        &self.census
    }

    /// Total tokens at this node (for conservation checks).
    pub fn total_tokens(&self) -> u64 {
        self.census.iter().map(|&(_, c)| c).sum()
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
        // Absorb arrivals: append, sort by source, merge equal sources.
        // Addition commutes, so inbox order — the one thing that varies
        // in *intermediate* buffers across engines — cannot influence
        // the census. An out-of-range source can only come from an
        // uncorrected bit flip on a plain (uncoded) faulted run;
        // dropping it is a token loss the conservation check downstream
        // reports.
        if !inbox.is_empty() {
            let k = self.k;
            self.census.extend(
                inbox
                    .iter()
                    .map(|&(_, msg)| (msg.src, msg.cnt))
                    .filter(|&(src, cnt)| src < k && cnt > 0),
            );
            self.census.sort_unstable_by_key(|&(src, _)| src);
            self.census.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    kept.1 += later.1;
                }
                same
            });
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
        // Ascending source order: send order fixes the fault stream's
        // message indices, and the recorded E16 results and the
        // dense-census oracle in the tests assume this order.
        for (src, count) in &mut self.census {
            self.move_buf.iter_mut().for_each(|m| *m = 0);
            let mut stay = 0u64;
            for slot in 0..*count {
                let w = walk_word(seed, round as u64, node as u64, *src, slot);
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
                            src: *src,
                            cnt: moved,
                        },
                    );
                }
            }
        }
        self.census.retain(|&(_, c)| c > 0);
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn wants_round(&self) -> bool {
        // Every node steps until round `walk_len`, where it sets `done`;
        // a tokenless node left asleep would never set it.
        !self.done
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
    /// `census[v]` is node `v`'s final [`WalkNode::census`]: `(src,
    /// count)` for the tokens of each source resting at `v`, ascending
    /// by `src`, zero counts omitted.
    pub census: Vec<Vec<(u64, u64)>>,
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
    /// The outcome of a finished walk run whose node states `walker`
    /// turns into walk nodes.
    fn from_report<P>(report: RunReport<P>, walker: impl FnMut(P) -> WalkNode) -> Self {
        WalkOutcome {
            rounds: report.rounds,
            messages: report.total_messages as u64,
            bits: report.total_bits as u64,
            max_edge_bits: report.max_edge_bits_per_round,
            dropped_messages: report.dropped_messages as u64,
            flipped_bits: report.flipped_bits as u64,
            census: report
                .nodes
                .into_iter()
                .map(walker)
                .map(|n| n.census)
                .collect(),
        }
    }

    /// Tokens of source `src` resting at node `v`.
    pub fn count(&self, v: NodeId, src: u64) -> u64 {
        let row = &self.census[v];
        row.binary_search_by_key(&src, |&(s, _)| s)
            .map_or(0, |i| row[i].1)
    }

    /// Total surviving tokens across all nodes.
    pub fn total_tokens(&self) -> u64 {
        self.census.iter().flatten().map(|&(_, c)| c).sum()
    }

    /// Each node's share of the collision statistic,
    /// `Σ_src C(count, 2)` over its census — the values the tester
    /// convergecasts.
    pub fn node_collisions(&self) -> Vec<u64> {
        self.census
            .iter()
            .map(|row| row.iter().map(|&(_, c)| c * c.saturating_sub(1) / 2).sum())
            .collect()
    }

    /// The endpoint collision statistic: `Σ_v Σ_src C(count, 2)` —
    /// unordered same-source token pairs resting on the same node.
    pub fn collision_statistic(&self) -> u64 {
        self.node_collisions().iter().sum()
    }
}

/// Runs the walk phase on the flat-buffer engine under `faults`
/// ([`FaultPlan::none`] for a clean run), recording metrics into
/// `sink`.
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
    faults: &FaultPlan,
    sink: &mut dyn Sink,
) -> Result<WalkOutcome, EngineError> {
    let states = walk_states(g.node_count(), walks_per_node, seed, walk_len);
    let report = Network::new(g, model).run(states, walk_len + 4, faults, sink)?;
    Ok(WalkOutcome::from_report(report, |n| n))
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
    Ok(WalkOutcome::from_report(report, |n| n))
}

/// Runs the walk phase with every message travelling through `codec`
/// under `plan`: flips below the codec's correction radius are
/// corrected transparently (the census matches the fault-free run
/// exactly), while drops and undecodable words lose their tokens —
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
    sink: &mut dyn Sink,
) -> Result<(WalkOutcome, CodecStats), EngineError>
where
    T: ImplicitTopology,
    C: MessageCodec<Plain = WalkMsg> + Clone,
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
    let report = Network::new(g, model).run(states, walk_len + 4, plan, sink)?;
    let stats = codec_stats(&report.nodes);
    Ok((
        WalkOutcome::from_report(report, CodedProtocol::into_inner),
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dut_netsim::topology::{bridged_cliques, MargulisExpander};

    const SEED: u64 = 0xE16;

    /// A frozen copy of the dense-census walk node the sparse census
    /// replaced: a `k`-entry count vector per node, scanned in full
    /// every round. It is the oracle for [`WalkNode`]; the differential
    /// suites run one node type on every engine and cannot catch a
    /// census bug.
    #[derive(Debug, Clone)]
    struct DenseWalkNode {
        seed: u64,
        walk_len: usize,
        counts: Vec<u64>,
        move_buf: Vec<u64>,
        done: bool,
    }

    impl DenseWalkNode {
        fn new(k: usize, own: NodeId, walks_per_node: u64, seed: u64, walk_len: usize) -> Self {
            let mut counts = vec![0u64; k];
            counts[own] = walks_per_node;
            DenseWalkNode {
                seed,
                walk_len,
                counts,
                move_buf: Vec::new(),
                done: false,
            }
        }

        /// The census in [`WalkNode::census`] form.
        fn census(&self) -> Vec<(u64, u64)> {
            self.counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(src, &c)| (src as u64, c))
                .collect()
        }
    }

    impl NodeProtocol for DenseWalkNode {
        type Msg = WalkMsg;

        fn on_round(
            &mut self,
            node: NodeId,
            round: usize,
            inbox: &[(NodeId, WalkMsg)],
            out: &mut Outbox<'_, WalkMsg>,
        ) {
            for (_, msg) in inbox {
                if let Some(slot) = self.counts.get_mut(msg.src as usize) {
                    *slot += msg.cnt;
                }
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

    /// A walk node that first sends `inject` in round 0: crafted
    /// messages no walk node would send.
    #[derive(Debug, Clone)]
    struct Injected<N> {
        inner: N,
        inject: Vec<(NodeId, WalkMsg)>,
    }

    impl<N: NodeProtocol<Msg = WalkMsg>> NodeProtocol for Injected<N> {
        type Msg = WalkMsg;

        fn on_round(
            &mut self,
            node: NodeId,
            round: usize,
            inbox: &[(NodeId, WalkMsg)],
            out: &mut Outbox<'_, WalkMsg>,
        ) {
            if round == 0 {
                for (to, msg) in self.inject.drain(..) {
                    out.send(to, msg);
                }
            }
            self.inner.on_round(node, round, inbox, out);
        }

        fn is_done(&self) -> bool {
            self.inner.is_done()
        }
    }

    /// Every `RunReport` field, node states as censuses.
    type Outcome = Result<
        (
            usize,
            usize,
            usize,
            usize,
            usize,
            usize,
            Vec<Vec<(u64, u64)>>,
        ),
        EngineError,
    >;

    fn outcome<P>(
        run: Result<RunReport<Injected<P>>, EngineError>,
        census: impl Fn(&P) -> Vec<(u64, u64)>,
    ) -> Outcome {
        run.map(|r| {
            (
                r.rounds,
                r.total_messages,
                r.total_bits,
                r.max_edge_bits_per_round,
                r.dropped_messages,
                r.flipped_bits,
                r.nodes.iter().map(|n| census(&n.inner)).collect(),
            )
        })
    }

    /// Runs the sparse and the dense node through the reference engine
    /// on `g` under `plan`, node `v` first sending `inject[v]`, and
    /// asserts equal outcomes. Returns the sparse outcome.
    fn assert_sparse_matches_dense(
        label: &str,
        g: &Graph,
        (walks, walk_len): (u64, usize),
        plan: &FaultPlan,
        inject: &[Vec<(NodeId, WalkMsg)>],
    ) -> Outcome {
        let k = g.node_count();
        let model = walk_bandwidth_model(k, walks);
        let injected = |v: NodeId| inject.get(v).cloned().unwrap_or_default();
        let sparse: Vec<_> = (0..k)
            .map(|v| Injected {
                inner: WalkNode::new(k, v, walks, SEED, walk_len),
                inject: injected(v),
            })
            .collect();
        let dense: Vec<_> = (0..k)
            .map(|v| Injected {
                inner: DenseWalkNode::new(k, v, walks, SEED, walk_len),
                inject: injected(v),
            })
            .collect();
        let max_rounds = walk_len + 4;
        let sparse = outcome(
            run_reference(g, model, sparse, max_rounds, plan, &mut NoopSink),
            |n: &WalkNode| n.census().to_vec(),
        );
        let dense = outcome(
            run_reference(g, model, dense, max_rounds, plan, &mut NoopSink),
            DenseWalkNode::census,
        );
        assert_eq!(sparse, dense, "{label}");
        sparse
    }

    /// The E16 instances, with the walk parameters the tester plans for
    /// them at Φ = 0.1, ε = 0.5 (ℓ = 24, L = ⌈ln k / Φ⌉), plus the E16
    /// bit-identity row's (ℓ = 8, L = 16).
    fn e16_cases() -> Vec<(&'static str, Graph, (u64, usize))> {
        vec![
            (
                "margulis-6",
                MargulisExpander::new(6).materialize(),
                (24, 36),
            ),
            ("bridged-36", bridged_cliques(36), (24, 36)),
            (
                "margulis-8",
                MargulisExpander::new(8).materialize(),
                (24, 42),
            ),
            ("bridged-64", bridged_cliques(64), (24, 42)),
            (
                "margulis-6-ident",
                MargulisExpander::new(6).materialize(),
                (8, 16),
            ),
        ]
    }

    #[test]
    fn sparse_census_matches_dense_census_on_e16_graphs() {
        let plans = [
            ("clean", FaultPlan::none()),
            ("flips", FaultPlan::seeded(0xE16_F11D).with_flips(3e-4)),
            // Heavy enough that flipped sources leave `0..k`.
            ("heavy-flips", FaultPlan::seeded(0xF11B).with_flips(0.02)),
            (
                "drops+crash",
                FaultPlan::seeded(0xD20B)
                    .with_drops(0.01)
                    .with_crash(3, 5)
                    .with_rejoin(3, 12),
            ),
        ];
        for (name, g, params) in e16_cases() {
            for (plan_name, plan) in &plans {
                let label = format!("{name}/{plan_name}");
                let run = assert_sparse_matches_dense(&label, &g, params, plan, &[]);
                let (.., census) = run.unwrap_or_else(|e| panic!("{label}: {e}"));
                for row in &census {
                    assert!(row.windows(2).all(|w| w[0].0 < w[1].0), "{label}: unsorted");
                    assert!(row.iter().all(|&(_, c)| c > 0), "{label}: zero count");
                }
                let total: u64 = census.iter().flatten().map(|&(_, c)| c).sum();
                let launched = g.node_count() as u64 * params.0;
                if *plan_name == "heavy-flips" {
                    assert!(total < launched, "{label}: no source left 0..k");
                }
            }
        }
    }

    #[test]
    fn walk_flips_land_in_the_metered_fields() {
        // src = 0b1101 (4 wire bits), cnt = 0b110 (3): 7 wire bits.
        let msg = WalkMsg { src: 13, cnt: 6 };
        assert_eq!(msg.size_bits(), 7);
        let flipped = |bit| {
            let mut m = msg;
            m.flip_bit(bit);
            m
        };
        // Bits 0..3 are src's low bits; bit 3 is its leading one.
        assert_eq!(flipped(0), WalkMsg { src: 12, cnt: 6 });
        assert_eq!(flipped(2), WalkMsg { src: 9, cnt: 6 });
        assert_eq!(flipped(3), msg);
        // Bits 4..7 are cnt's; bit 6 is its leading one.
        assert_eq!(flipped(4), WalkMsg { src: 13, cnt: 7 });
        assert_eq!(flipped(5), WalkMsg { src: 13, cnt: 4 });
        assert_eq!(flipped(6), msg);
        // A one-token batch is one wire bit, which a flip empties.
        let one = WalkMsg { src: 0, cnt: 1 };
        assert_eq!(one.size_bits(), 2);
        let mut m = one;
        m.flip_bit(0);
        assert_eq!(m, WalkMsg { src: 1, cnt: 1 });
        let mut m = one;
        m.flip_bit(1);
        assert_eq!(m, WalkMsg { src: 0, cnt: 0 });
        // Every flip is its own inverse.
        for bit in 0..msg.size_bits() {
            let mut m = flipped(bit);
            m.flip_bit(bit);
            assert_eq!(m, msg, "bit {bit}");
        }
    }

    #[test]
    fn out_of_range_source_and_empty_count_are_absorbed_like_dense() {
        // Node 0 sends its first neighbor, in one round-0 batch, three
        // tokens of a source that does not exist and a zero count of a
        // real one; both land in one inbox next to ordinary walk traffic.
        let g = MargulisExpander::new(6).materialize();
        let k = g.node_count();
        let to = g.neighbors(0)[0];
        let inject = vec![vec![
            (
                to,
                WalkMsg {
                    src: k as u64 + 5,
                    cnt: 3,
                },
            ),
            (to, WalkMsg { src: 1, cnt: 0 }),
        ]];
        let walks = 8;
        let run =
            assert_sparse_matches_dense("injected", &g, (walks, 16), &FaultPlan::none(), &inject);
        let (.., census) = run.expect("clean run");
        // The stray tokens are dropped, the empty count adds nothing.
        let total: u64 = census.iter().flatten().map(|&(_, c)| c).sum();
        assert_eq!(total, k as u64 * walks);
        assert!(census
            .iter()
            .flatten()
            .all(|&(src, c)| src < k as u64 && c > 0));
    }
}
