//! Generic message codecs: run any [`NodeProtocol`] with its messages
//! encoded on the wire.
//!
//! [`CodedProtocol`] wraps an inner protocol and a [`MessageCodec`]:
//! every outgoing message is encoded into the codec's wire type (what
//! fault injection sees and flips), and every incoming wire word is
//! decoded back before the inner protocol runs. A wire word the codec
//! cannot decode (corruption beyond its correction radius) is treated
//! exactly like a dropped message — the inner protocol never sees it —
//! which composes with the retry layer in
//! [`crate::algorithms::reliable`]: flips below the radius are corrected
//! transparently, flips above it degrade into drops, and drops are
//! recovered by acknowledgment and retransmission.
//!
//! The concrete error-correcting codec (Justesen-coded words from
//! `dut-ecc`) lives in the `dut-congest` crate; this module provides the
//! protocol plumbing and the trivial [`IdentityCodec`].

use crate::engine::{MessageSize, NodeProtocol, Outbox};
use crate::fault::FaultInjectable;
use crate::graph::NodeId;
use std::error::Error;
use std::fmt;
use std::marker::PhantomData;

/// A wire word could not be decoded: the corruption exceeded the
/// codec's correction capability. The carrying message is discarded
/// (equivalent to a drop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodecError;

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "wire word corrupted beyond the codec's correction radius"
        )
    }
}

impl Error for CodecError {}

/// Fixed-width binary serialization for messages a block codec can
/// encode.
///
/// A codec that operates on bit blocks (such as the Justesen codec)
/// needs its plain messages as bits; implementors pack into the low
/// bits of a `u128` (128 bits is enough for every protocol message in
/// this crate) and invert the packing exactly.
pub trait CodecMessage: Clone {
    /// The number of low bits of `to_bits` the packing uses. Constant
    /// per type — a block codec sizes its code to this.
    const PACKED_BITS: usize;

    /// Packs the message into the low [`CodecMessage::PACKED_BITS`]
    /// bits; higher bits must be zero.
    fn to_bits(&self) -> u128;

    /// Inverts [`CodecMessage::to_bits`]. Bits above
    /// [`CodecMessage::PACKED_BITS`] must be ignored.
    fn from_bits(bits: u128) -> Self;
}

impl CodecMessage for crate::engine::Compact {
    const PACKED_BITS: usize = 64;

    fn to_bits(&self) -> u128 {
        u128::from(self.0)
    }

    fn from_bits(bits: u128) -> Self {
        crate::engine::Compact(bits as u64)
    }
}

/// Encodes plain protocol messages into a wire representation and
/// decodes (possibly corrupted) wire words back.
pub trait MessageCodec {
    /// The plain message type the wrapped protocol exchanges.
    type Plain: Clone + MessageSize;
    /// The on-wire message type — what the engine meters and fault
    /// injection corrupts.
    type Wire: Clone + MessageSize + FaultInjectable;

    /// Encodes a plain message for the wire.
    fn encode(&self, msg: &Self::Plain) -> Self::Wire;

    /// Decodes a wire word. On success returns the plain message and
    /// the number of wire bits the codec corrected (0 on a clean word).
    ///
    /// # Errors
    ///
    /// [`CodecError`] when the word is corrupted beyond the codec's
    /// correction capability; the caller discards the message.
    fn decode(&self, wire: &Self::Wire) -> Result<(Self::Plain, usize), CodecError>;
}

/// The trivial codec: the wire type *is* the plain type.
///
/// Corrects nothing and detects nothing — bit flips pass straight
/// through to the protocol. Useful as the uncoded baseline when
/// measuring what an error-correcting codec buys, and for running the
/// reliable (ack/retry) primitives against drops only.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityCodec<M>(PhantomData<M>);

impl<M> IdentityCodec<M> {
    /// Creates the identity codec.
    pub fn new() -> Self {
        IdentityCodec(PhantomData)
    }
}

impl<M: Clone + MessageSize + FaultInjectable> MessageCodec for IdentityCodec<M> {
    type Plain = M;
    type Wire = M;

    fn encode(&self, msg: &M) -> M {
        msg.clone()
    }

    fn decode(&self, wire: &M) -> Result<(M, usize), CodecError> {
        Ok((wire.clone(), 0))
    }
}

/// Codec totals aggregated over a run's final node states.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodecStats {
    /// Wire bits corrected across all nodes (flips below the radius,
    /// fixed transparently).
    pub corrected_bits: u64,
    /// Wire words discarded as undecodable (corruption beyond the
    /// radius; each behaves like a dropped message).
    pub decode_failures: u64,
}

/// Wraps an inner [`NodeProtocol`] so its messages travel encoded.
///
/// The wrapper is itself a `NodeProtocol` whose message type is the
/// codec's wire type; run it on any engine path. Decode failures are
/// silently discarded (the inner protocol sees a drop) and counted in
/// [`CodedProtocol::decode_failures`].
pub struct CodedProtocol<P, C: MessageCodec> {
    inner: P,
    codec: C,
    corrected_bits: u64,
    decode_failures: u64,
    /// Reused per-round buffer of decoded inbox messages.
    plain_inbox: Vec<(NodeId, C::Plain)>,
    /// Reused staging buffer backing the inner protocol's outbox.
    stage: Vec<(NodeId, NodeId, C::Plain)>,
}

impl<P, C: MessageCodec> CodedProtocol<P, C> {
    /// Wraps `inner` with `codec`.
    pub fn new(inner: P, codec: C) -> Self {
        CodedProtocol {
            inner,
            codec,
            corrected_bits: 0,
            decode_failures: 0,
            plain_inbox: Vec::new(),
            stage: Vec::new(),
        }
    }

    /// The wrapped protocol state (outputs live here).
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Unwraps into the inner protocol state.
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// Wire bits this node's codec corrected over the run.
    pub fn corrected_bits(&self) -> u64 {
        self.corrected_bits
    }

    /// Wire words this node discarded as undecodable.
    pub fn decode_failures(&self) -> u64 {
        self.decode_failures
    }
}

impl<P: Clone, C: MessageCodec + Clone> Clone for CodedProtocol<P, C> {
    fn clone(&self) -> Self {
        // Scratch buffers hold no cross-round state; a clone starts
        // with fresh (empty) ones.
        CodedProtocol {
            inner: self.inner.clone(),
            codec: self.codec.clone(),
            corrected_bits: self.corrected_bits,
            decode_failures: self.decode_failures,
            plain_inbox: Vec::new(),
            stage: Vec::new(),
        }
    }
}

impl<P: fmt::Debug, C: MessageCodec> fmt::Debug for CodedProtocol<P, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CodedProtocol")
            .field("inner", &self.inner)
            .field("corrected_bits", &self.corrected_bits)
            .field("decode_failures", &self.decode_failures)
            .finish_non_exhaustive()
    }
}

impl<P, C> NodeProtocol for CodedProtocol<P, C>
where
    P: NodeProtocol,
    C: MessageCodec<Plain = P::Msg>,
{
    type Msg = C::Wire;

    fn on_round(
        &mut self,
        node: NodeId,
        round: usize,
        inbox: &[(NodeId, C::Wire)],
        out: &mut Outbox<'_, C::Wire>,
    ) {
        self.plain_inbox.clear();
        for (from, wire) in inbox {
            match self.codec.decode(wire) {
                Ok((plain, corrected)) => {
                    self.corrected_bits += corrected as u64;
                    self.plain_inbox.push((*from, plain));
                }
                // Undecodable = dropped: the inner protocol never
                // sees it; the reliable layer's retries recover it.
                Err(CodecError) => self.decode_failures += 1,
            }
        }
        // The inner protocol stages plain messages through an outbox
        // that shares the engine's neighbor index.
        debug_assert!(self.stage.is_empty());
        let (inner, plain_inbox) = (&mut self.inner, &self.plain_inbox);
        out.restaged(&mut self.stage, |inner_out| {
            inner.on_round(node, round, plain_inbox, inner_out)
        });
        for (to, _, msg) in self.stage.drain(..) {
            out.send(to, self.codec.encode(&msg));
        }
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn wants_round(&self) -> bool {
        // An empty wire inbox is an empty plain inbox for the inner
        // protocol, so the wrapper wakes exactly when `P` does.
        self.inner.wants_round()
    }

    fn on_rejoin(&mut self, node: NodeId, round: usize) {
        // Codec state (correction totals) is pure accounting; only the
        // wrapped protocol has timers to restart.
        self.inner.on_rejoin(node, round);
    }
}

impl<P, C> crate::recover::Recoverable for CodedProtocol<P, C>
where
    P: crate::recover::Recoverable,
    C: MessageCodec,
{
    fn snapshot(&self) -> Vec<u64> {
        // Correction totals travel with the snapshot so a restored run
        // keeps honest codec accounting.
        let mut words = vec![self.corrected_bits, self.decode_failures];
        words.extend(self.inner.snapshot());
        words
    }

    fn restore(&mut self, words: &[u64]) -> Result<(), crate::recover::RecoverError> {
        let (head, rest) = words
            .split_first_chunk::<2>()
            .ok_or(crate::recover::RecoverError::Truncated)?;
        self.corrected_bits = head[0];
        self.decode_failures = head[1];
        self.inner.restore(rest)
    }
}

/// Sums the per-node codec counters of a completed run.
pub fn codec_stats<P, C: MessageCodec>(nodes: &[CodedProtocol<P, C>]) -> CodecStats {
    let mut stats = CodecStats::default();
    for n in nodes {
        stats.corrected_bits += n.corrected_bits;
        stats.decode_failures += n.decode_failures;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BandwidthModel, Compact, EngineError, Network};
    use crate::fault::FaultPlan;
    use crate::topology;
    use dut_obs::NoopSink;

    /// Max-id flood used as the inner protocol under test.
    #[derive(Debug, Clone, PartialEq)]
    struct MaxFlood {
        best: u64,
        pending: bool,
    }

    impl NodeProtocol for MaxFlood {
        type Msg = Compact;

        fn on_round(
            &mut self,
            _node: NodeId,
            round: usize,
            inbox: &[(NodeId, Compact)],
            out: &mut Outbox<'_, Compact>,
        ) {
            if round == 0 {
                self.pending = true;
            }
            for &(_, Compact(v)) in inbox {
                if v > self.best {
                    self.best = v;
                    self.pending = true;
                }
            }
            if self.pending {
                out.broadcast(Compact(self.best));
                self.pending = false;
            }
        }

        fn is_done(&self) -> bool {
            true
        }
    }

    fn flood_states(n: usize) -> Vec<MaxFlood> {
        (0..n)
            .map(|v| MaxFlood {
                best: (v as u64 * 37) % 101,
                pending: false,
            })
            .collect()
    }

    /// Test codec: triple modular redundancy over one `u64`, majority
    /// vote per bit. Corrects any flips that leave a per-bit majority.
    #[derive(Debug, Clone, Copy)]
    struct Rep3;

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Rep3Word([u64; 3]);

    impl MessageSize for Rep3Word {
        fn size_bits(&self) -> usize {
            192
        }
    }

    impl FaultInjectable for Rep3Word {
        fn flip_bit(&mut self, bit: usize) {
            let bit = bit % 192;
            self.0[bit / 64] ^= 1u64 << (bit % 64);
        }
    }

    impl MessageCodec for Rep3 {
        type Plain = Compact;
        type Wire = Rep3Word;

        fn encode(&self, msg: &Compact) -> Rep3Word {
            Rep3Word([msg.0; 3])
        }

        fn decode(&self, wire: &Rep3Word) -> Result<(Compact, usize), CodecError> {
            let [a, b, c] = wire.0;
            let voted = (a & b) | (a & c) | (b & c);
            let corrected = ((a ^ voted).count_ones()
                + (b ^ voted).count_ones()
                + (c ^ voted).count_ones()) as usize;
            Ok((Compact(voted), corrected))
        }
    }

    #[test]
    fn identity_codec_matches_plain_run() {
        let g = topology::grid(4, 5);
        let n = g.node_count();
        let plain = Network::new(&g, BandwidthModel::Local)
            .run(flood_states(n), 64, &FaultPlan::none(), &mut NoopSink)
            .unwrap();
        let coded_states: Vec<_> = flood_states(n)
            .into_iter()
            .map(|s| CodedProtocol::new(s, IdentityCodec::<Compact>::new()))
            .collect();
        let coded = Network::new(&g, BandwidthModel::Local)
            .run(coded_states, 64, &FaultPlan::none(), &mut NoopSink)
            .unwrap();
        assert_eq!(plain.rounds, coded.rounds);
        assert_eq!(plain.total_messages, coded.total_messages);
        assert_eq!(plain.total_bits, coded.total_bits);
        for (p, c) in plain.nodes.iter().zip(&coded.nodes) {
            assert_eq!(p, c.inner());
        }
        assert_eq!(codec_stats(&coded.nodes), CodecStats::default());
    }

    #[test]
    fn rep3_corrects_flips_transparently() {
        let g = topology::complete(8);
        let n = g.node_count();
        let mk = || -> Vec<_> {
            flood_states(n)
                .into_iter()
                .map(|s| CodedProtocol::new(s, Rep3))
                .collect()
        };
        let clean = Network::new(&g, BandwidthModel::Local)
            .run(mk(), 64, &FaultPlan::none(), &mut NoopSink)
            .unwrap();
        // Flip rate low enough that (at this fixed seed) no bit
        // position of a word is hit in two copies: majority vote fixes
        // everything, so every flipped bit is a corrected bit.
        let plan = FaultPlan::seeded(0xC0DE).with_flips(0.0005);
        let faulted = Network::new(&g, BandwidthModel::Local)
            .run(mk(), 64, &plan, &mut NoopSink)
            .unwrap();
        assert!(faulted.flipped_bits > 0, "fault plan must actually flip");
        let stats = codec_stats(&faulted.nodes);
        assert_eq!(stats.corrected_bits, faulted.flipped_bits as u64);
        assert_eq!(stats.decode_failures, 0);
        for (a, b) in clean.nodes.iter().zip(&faulted.nodes) {
            assert_eq!(a.inner(), b.inner(), "correction must be transparent");
        }
    }

    #[test]
    fn coded_send_to_non_neighbor_is_an_error_and_leaves_the_index_clean() {
        /// Node 2's only send is to the non-neighbor 4, in round 0.
        #[derive(Debug, Clone, PartialEq)]
        struct Stray;
        impl NodeProtocol for Stray {
            type Msg = Compact;
            fn on_round(
                &mut self,
                node: NodeId,
                _round: usize,
                _inbox: &[(NodeId, Compact)],
                out: &mut Outbox<'_, Compact>,
            ) {
                if node == 2 {
                    out.send(4, Compact(1));
                }
            }
            fn is_done(&self) -> bool {
                true
            }
        }
        let g = topology::line(6);
        let stray = || -> Vec<_> { (0..6).map(|_| CodedProtocol::new(Stray, Rep3)).collect() };
        let want = EngineError::NotANeighbor {
            from: 2,
            to: 4,
            round: 0,
        };
        let reference = crate::reference::run_reference(
            &g,
            BandwidthModel::Local,
            stray(),
            8,
            &FaultPlan::none(),
            &mut NoopSink,
        );
        assert_eq!(reference.err(), Some(want.clone()));
        let mut net = Network::new(&g, BandwidthModel::Local);
        let run = net.run(stray(), 8, &FaultPlan::none(), &mut NoopSink);
        assert_eq!(run.err(), Some(want));
        // The failed run's network still runs a coded flood exactly
        // like a fresh one.
        let flood = || -> Vec<_> {
            flood_states(6)
                .into_iter()
                .map(|s| CodedProtocol::new(s, Rep3))
                .collect()
        };
        let reused = net.run(flood(), 64, &FaultPlan::none(), &mut NoopSink);
        let fresh = Network::new(&g, BandwidthModel::Local).run(
            flood(),
            64,
            &FaultPlan::none(),
            &mut NoopSink,
        );
        let (reused, fresh) = (reused.unwrap(), fresh.unwrap());
        assert_eq!(
            (reused.rounds, reused.total_messages, reused.total_bits),
            (fresh.rounds, fresh.total_messages, fresh.total_bits)
        );
        for (a, b) in reused.nodes.iter().zip(&fresh.nodes) {
            assert_eq!(a.inner(), b.inner());
        }
    }

    #[test]
    fn compact_codec_message_round_trips() {
        for v in [0u64, 1, 42, u64::MAX] {
            let c = Compact(v);
            assert_eq!(Compact::from_bits(c.to_bits()), c);
        }
    }
}
