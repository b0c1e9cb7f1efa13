//! Deterministic, seeded fault injection for the round engine.
//!
//! A [`FaultPlan`] describes a stochastic channel/process fault model —
//! per-message drop probability, per-bit flip probability (a binary
//! symmetric channel), and an optional node-crash schedule — that the
//! engine applies while delivering messages. Every run takes one
//! ([`crate::engine::Network::run`], [`crate::reference::run_reference`]),
//! so the same protocol code runs faulted or fault-free without
//! modification.
//!
//! # Determinism
//!
//! Every fault decision is drawn from a dedicated keyed counter stream:
//! a 64-bit block derived by a splitmix64-style mixer from
//! `(seed, lane, round, from, to, message-index, bit-index)`, where
//! `message-index` numbers the messages a node pushes over one directed
//! edge within one round, in send order. The stream is *stateless* —
//! no generator advances — so the decisions for a given message depend
//! only on its coordinates, never on evaluation order. That is what
//! lets the flat engine (stepping only the nodes it must, on a
//! materialized or implicit topology) and the naive reference engine,
//! which steps every node, agree bit-for-bit on the same plan, and what
//! makes faulted runs resumable: re-running any prefix of rounds
//! reproduces the same faults.
//!
//! # The flip kernel
//!
//! With flip probability `0 < p < 1`, `q = 1 − p` and a message `w` wire
//! bits wide (read once, before any flip), [`FaultPlan::apply`] skips
//! from flip to flip. A cursor `b` starts at 0; each step draws
//! `x = u01(mix(prefix ^ b))`, where `prefix` absorbs the message's
//! `(seed, lane, round, from, to, idx)` once. If `x < q^(w−b)`, no
//! further bit flips. Otherwise bit `b + k` flips for the smallest `k`
//! with `x ≥ q^(k+1)`, and the cursor moves to `b + k + 1`. For uniform
//! `x` the next flip lands at offset `k` with probability
//! `q^k − q^(k+1) = q^k·p`, and none follows with probability
//! `q^(w−b)`: exactly the gaps between the flips of independent
//! Bernoulli(`p`) bits. So each bit flips independently with
//! probability `p` (up to the 2⁻⁵³ grid of `u01`), flips arrive in
//! ascending order, and a message costs its prefix plus one draw per
//! flip plus one. `p = 0` draws nothing and `p = 1` flips every bit.
//! `q^n` takes IEEE products only: every build realizes the same flips.
//!
//! Protocol RNGs are untouched: fault randomness is keyed by
//! [`FaultPlan::seed`] alone, so a faulted run with `drop_prob = 0`,
//! `flip_prob = 0` and no crashes is bit-identical to an unfaulted run
//! (the engine routes [`FaultPlan::none`] to the unfaulted code paths
//! outright).
//!
//! # Semantics
//!
//! * The *sender* pays for every message it stages: metering, CONGEST
//!   budget enforcement, and `total_bits` all see the original message.
//!   Faults act on delivery only, mirroring a physical channel.
//! * A dropped message simply never arrives; `dropped_messages` on the
//!   [`crate::engine::RunReport`] counts it.
//! * Bit flips are i.i.d. per wire bit ([`MessageSize::size_bits`] bits
//!   per message); each flip calls [`FaultInjectable::flip_bit`] on the
//!   in-flight copy. `flipped_bits` counts them.
//! * A node crashed at round `c` executes no round ≥ `c` while it is
//!   down: it is skipped by the scheduler, counts as done for
//!   quiescence (unless a rejoin is still pending), and messages that
//!   would be delivered to it while down are dropped (and counted).
//! * A rejoin scheduled at round `j > c` brings the node back with
//!   *stable-storage* semantics: its local protocol state is exactly
//!   what it was when it crashed (the engine never clears it), it
//!   missed every message delivered while it was down, and starting at
//!   round `j` it executes again and can receive. The engine calls
//!   [`crate::engine::NodeProtocol::on_rejoin`] once, at round `j`
//!   before that round's `on_round`, so protocols can restart timers or
//!   re-announce state. Crash/rejoin pairs may repeat (crash again
//!   after a rejoin); the liveness query [`FaultPlan::crashed`] resolves
//!   the latest event at or before the queried round.

use crate::engine::{Compact, MessageSize};
use crate::graph::NodeId;

/// Lane constants separating the drop and flip decision streams, so a
/// message's drop draw never correlates with its bit-flip draws.
const LANE_DROP: u64 = 0x9E37_79B9_7F4A_7C15;
const LANE_FLIP: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// The splitmix64 finalizer: an invertible 64-bit mixer with full
/// avalanche, used here as the block function of the keyed counter
/// stream.
#[inline]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Maps a 64-bit word to a uniform `f64` in `[0, 1)` using the top 53
/// bits (the standard exact construction).
#[inline]
fn u01(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// `sq[i] = q^(2^i)` by repeated squaring, for every `2^i ≤ w`.
fn squares(q: f64, w: usize) -> [f64; usize::BITS as usize] {
    let mut sq = [q; usize::BITS as usize];
    for i in 1..(usize::BITS - w.leading_zeros()) as usize {
        sq[i] = sq[i - 1] * sq[i - 1];
    }
    sq
}

/// The flip law's `q^n`: `1.0` times `sq[i]` for each set bit `i` of
/// `n`, highest first. IEEE multiplication rounds exactly, so every
/// build computes the same value.
fn pow(sq: &[f64], n: usize) -> f64 {
    (0..usize::BITS - n.leading_zeros())
        .rev()
        .filter(|&i| n >> i & 1 == 1)
        .fold(1.0, |acc, i| acc * sq[i as usize])
}

/// The offset of the next flip among `m` remaining bits: the smallest
/// `k` with `x ≥ pow(k + 1)`, given `x ≥ pow(m)`.
///
/// If `1 − q > m·2⁻⁵²` and `pow(m) ≥ 2⁻¹⁰⁰⁰`, `pow` strictly decreases on
/// `0..=m` (DESIGN.md §7), so `k` is the largest `n < m` with
/// `x < pow(n)`, found bit by bit from the top: `pow(n | 2^i)` is
/// `pow(n)·sq[i]` while `n` has no bit at or below `i`. Otherwise the
/// offsets are scanned in order.
fn next_flip(sq: &[f64], m: usize, x: f64) -> usize {
    let floor = f64::from_bits((1023 - 1000) << 52);
    if 1.0 - sq[0] <= m as f64 * f64::EPSILON || pow(sq, m) < floor {
        return (0..m).find(|&k| x >= pow(sq, k + 1)).expect("x >= pow(m)");
    }
    let (mut n, mut acc) = (0, 1.0);
    for i in (0..(usize::BITS - m.leading_zeros()) as usize).rev() {
        let (cand, value) = (n | 1 << i, acc * sq[i]);
        if cand < m && x < value {
            (n, acc) = (cand, value);
        }
    }
    n
}

/// A deterministic fault model for one run. See the [module
/// docs](self) for semantics and the determinism argument.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Keys the fault stream. Two runs with equal seeds (and equal
    /// protocol behavior) suffer identical faults; the seed is
    /// independent of any protocol RNG.
    pub seed: u64,
    /// Probability that a message is dropped in transit, per message.
    pub drop_prob: f64,
    /// Probability that each wire bit of a delivered message is
    /// flipped, independently (binary symmetric channel).
    pub flip_prob: f64,
    /// Crash schedule: `(node, round)` pairs; the node executes no
    /// round ≥ `round` while down (see `rejoins`).
    pub crashes: Vec<(NodeId, usize)>,
    /// Rejoin schedule: `(node, round)` pairs; a node down because of
    /// an earlier crash comes back at `round` with its pre-crash local
    /// state (stable storage) and executes every round ≥ `round` until
    /// a later crash, if any. A rejoin with no earlier crash is inert.
    pub rejoins: Vec<(NodeId, usize)>,
}

impl FaultPlan {
    /// The fault-free plan. The engine recognizes it and runs the
    /// plain, unfaulted code paths, so results are bit-identical to a
    /// run without any plan.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop_prob: 0.0,
            flip_prob: 0.0,
            crashes: Vec::new(),
            rejoins: Vec::new(),
        }
    }

    /// A plan keyed by `seed` with no faults enabled yet; combine with
    /// the `with_*` builders.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::none()
        }
    }

    /// Sets the per-message drop probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn with_drops(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability {p} not in [0, 1]"
        );
        self.drop_prob = p;
        self
    }

    /// Sets the per-bit flip probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn with_flips(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "flip probability {p} not in [0, 1]"
        );
        self.flip_prob = p;
        self
    }

    /// Schedules `node` to crash at `round` (it executes no round ≥
    /// `round` until a later rejoin, if any).
    pub fn with_crash(mut self, node: NodeId, round: usize) -> Self {
        self.crashes.push((node, round));
        self
    }

    /// Schedules `node` to rejoin at `round` after an earlier crash: it
    /// resumes execution at `round` with its pre-crash local state.
    ///
    /// # Panics
    ///
    /// Panics if the plan has no crash of `node` strictly before
    /// `round` that this rejoin could answer — a dangling rejoin is a
    /// schedule bug, not a fault model.
    pub fn with_rejoin(mut self, node: NodeId, round: usize) -> Self {
        assert!(
            self.crashes.iter().any(|&(v, c)| v == node && c < round),
            "rejoin of node {node} at round {round} has no earlier crash"
        );
        self.rejoins.push((node, round));
        self
    }

    /// Whether the plan injects no faults at all (the seed is ignored:
    /// a seeded but all-zero plan is still fault-free).
    pub fn is_none(&self) -> bool {
        self.drop_prob == 0.0
            && self.flip_prob == 0.0
            && self.crashes.is_empty()
            && self.rejoins.is_empty()
    }

    /// Whether `node` is down at `round`: its latest crash/rejoin event
    /// at or before `round` is a crash (a rejoin at the same round as a
    /// crash wins — the node never misses a round). With an empty
    /// rejoin schedule this is exactly the old permanent-crash query.
    pub fn crashed(&self, node: NodeId, round: usize) -> bool {
        let last_crash = self
            .crashes
            .iter()
            .filter(|&&(v, c)| v == node && c <= round)
            .map(|&(_, c)| c)
            .max();
        match last_crash {
            None => false,
            Some(c) => !self
                .rejoins
                .iter()
                .any(|&(v, j)| v == node && j >= c && j <= round),
        }
    }

    /// Whether `node` comes back to life exactly at `round`: a
    /// scheduled rejoin that ends a real outage. The engines call the
    /// [`crate::engine::NodeProtocol::on_rejoin`] hook at these
    /// coordinates, once per rejoin, in every execution mode.
    pub fn rejoins_at(&self, node: NodeId, round: usize) -> bool {
        round > 0
            && self.rejoins.iter().any(|&(v, j)| v == node && j == round)
            && self.crashed(node, round - 1)
            && !self.crashed(node, round)
    }

    /// Whether a rejoin of `node` is scheduled strictly after `round`.
    /// The quiescence checks use this: a down node with a pending
    /// rejoin is a future wake-up, not a terminated one.
    pub fn will_rejoin(&self, node: NodeId, round: usize) -> bool {
        self.rejoins.iter().any(|&(v, j)| v == node && j > round)
    }

    /// The earliest crash or rejoin round strictly after `round`, if
    /// any. The engine fast-forwards to this round when nothing is in
    /// flight and no node asked to wake
    /// ([`crate::engine::NodeProtocol::wants_round`]): between schedule
    /// events such a network cannot change its done-set.
    pub fn next_event_after(&self, round: usize) -> Option<usize> {
        self.crashes
            .iter()
            .chain(self.rejoins.iter())
            .map(|&(_, r)| r)
            .filter(|&r| r > round)
            .min()
    }

    /// Crash entries that took effect within a run of `rounds` rounds.
    pub(crate) fn effective_crashes(&self, rounds: usize) -> usize {
        self.crashes.iter().filter(|&&(_, r)| r < rounds).count()
    }

    /// Rejoin entries that took effect within a run of `rounds` rounds.
    pub(crate) fn effective_rejoins(&self, rounds: usize) -> usize {
        self.rejoins
            .iter()
            .filter(|&&(v, j)| j < rounds && self.rejoins_at(v, j))
            .count()
    }

    /// Total rounds spent down by nodes whose outage ended in a rejoin
    /// within a run of `rounds` rounds — the run's aggregate recovery
    /// time (each rejoin contributes `rejoin_round - crash_round`).
    pub(crate) fn downtime_rounds(&self, rounds: usize) -> usize {
        self.rejoins
            .iter()
            .filter(|&&(v, j)| j < rounds && self.rejoins_at(v, j))
            .map(|&(v, j)| {
                let c = self
                    .crashes
                    .iter()
                    .filter(|&&(u, c)| u == v && c < j)
                    .map(|&(_, c)| c)
                    .max()
                    .expect("rejoins_at implies an earlier crash");
                j - c
            })
            .sum()
    }

    /// Longest contiguous outage any node recovers from: the maximum
    /// `rejoin_round - crash_round` gap over the plan's rejoin
    /// schedule. Permanent crashes (no rejoin) are not counted — no
    /// finite retry budget outlasts them, and the reliable primitives
    /// already account them as failures. Retry policies can be widened
    /// to survive every scheduled outage with
    /// [`RetryPolicy::allowing_outage`](crate::algorithms::reliable::RetryPolicy::allowing_outage).
    pub fn max_outage_rounds(&self) -> usize {
        self.rejoins
            .iter()
            .filter(|&&(v, j)| self.rejoins_at(v, j))
            .map(|&(v, j)| {
                let c = self
                    .crashes
                    .iter()
                    .filter(|&&(u, c)| u == v && c < j)
                    .map(|&(_, c)| c)
                    .max()
                    .expect("rejoins_at implies an earlier crash");
                j - c
            })
            .max()
            .unwrap_or(0)
    }

    /// One block of the keyed counter stream. Absorption is positional
    /// (each coordinate passes through the mixer before the next is
    /// folded in), so permuted coordinates produce unrelated blocks.
    #[inline]
    fn word(
        &self,
        lane: u64,
        round: usize,
        from: NodeId,
        to: NodeId,
        idx: usize,
        extra: u64,
    ) -> u64 {
        mix(self.prefix(lane, round, from, to, idx) ^ extra)
    }

    /// The absorbed `(seed, lane, round, from, to, idx)` state of
    /// [`FaultPlan::word`], before its last coordinate: a message's
    /// per-bit blocks all share it.
    #[inline]
    fn prefix(&self, lane: u64, round: usize, from: NodeId, to: NodeId, idx: usize) -> u64 {
        let mut h = mix(self.seed ^ lane);
        h = mix(h.wrapping_add(round as u64));
        h = mix(h ^ (from as u64));
        h = mix(h ^ (to as u64));
        mix(h ^ (idx as u64))
    }

    /// Applies channel faults to the `idx`-th message node `from` sends
    /// to `to` in `round`. Returns `None` if the message is dropped
    /// (including delivery to a crashed node), otherwise the number of
    /// bits flipped in place.
    ///
    /// Metering happens *before* this call: the sender is charged for
    /// the original message whether or not it survives the channel.
    pub fn apply<M: MessageSize + FaultInjectable>(
        &self,
        round: usize,
        from: NodeId,
        to: NodeId,
        idx: usize,
        msg: &mut M,
    ) -> Option<u32> {
        // Messages sent in `round` are delivered at `round + 1`; a
        // receiver crashed by then never processes them.
        if self.crashed(to, round + 1) {
            return None;
        }
        if self.drop_prob > 0.0
            && u01(self.word(LANE_DROP, round, from, to, idx, 0)) < self.drop_prob
        {
            return None;
        }
        let mut flips = 0u32;
        if self.flip_prob > 0.0 {
            // Width fixed up front: flips must not change which draws
            // this message consumes (variable-width encodings can shrink
            // under flips).
            let bits = msg.size_bits();
            let prefix = self.prefix(LANE_FLIP, round, from, to, idx);
            let sq = squares(1.0 - self.flip_prob, bits);
            let mut b = 0;
            while b < bits {
                let x = u01(mix(prefix ^ b as u64));
                if x < pow(&sq, bits - b) {
                    break;
                }
                b += next_flip(&sq, bits - b, x);
                msg.flip_bit(b);
                flips += 1;
                b += 1;
            }
        }
        Some(flips)
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Messages that can be corrupted bit-wise by the fault layer.
///
/// [`crate::engine::Network::run`] and
/// [`crate::reference::run_reference`] require the protocol's message
/// type to implement this, since their options may carry a
/// [`FaultPlan`].
///
/// `flip_bit(b)` flips wire bit `b`, where `b` is drawn below
/// [`MessageSize::size_bits`] *as measured before any flip of this
/// message*. Implementations must be deterministic; when earlier flips
/// shrink a variable-width encoding, out-of-range `b` may be treated as
/// a no-op or flipped at the raw position — either is fine as long as
/// it is a pure function of `(message value, b)`.
pub trait FaultInjectable {
    /// Flips wire bit `bit` of this message in place.
    fn flip_bit(&mut self, bit: usize);
}

/// The natural bit length of `x` (at least 1): the wire width of a
/// field metered like [`Compact`].
pub fn bit_len(x: u64) -> usize {
    (64 - x.leading_zeros() as usize).max(1)
}

/// Flips bit `b` of a field metered at its bit length, unless that would
/// change the length: the leading one of a multi-bit field (and any bit
/// past the field) stays put, so every flip is its own inverse. Messages
/// made of such fields route wire bit `b` to the field it falls in and
/// flip it with this.
pub fn flip_in_field(x: u64, b: usize) -> u64 {
    let len = bit_len(x);
    if b + 1 < len || (len == 1 && b == 0) {
        x ^ (1 << b)
    } else {
        x
    }
}

impl FaultInjectable for () {
    fn flip_bit(&mut self, _bit: usize) {
        // The unit message carries no information; its 1 wire bit is
        // pure framing.
    }
}

impl FaultInjectable for bool {
    fn flip_bit(&mut self, _bit: usize) {
        *self = !*self;
    }
}

impl FaultInjectable for u32 {
    fn flip_bit(&mut self, bit: usize) {
        *self ^= 1u32 << (bit % 32);
    }
}

impl FaultInjectable for u64 {
    fn flip_bit(&mut self, bit: usize) {
        *self ^= 1u64 << (bit % 64);
    }
}

impl FaultInjectable for Compact {
    fn flip_bit(&mut self, bit: usize) {
        self.0 ^= 1u64 << (bit % 64);
    }
}

impl<T: MessageSize + FaultInjectable> FaultInjectable for Vec<T> {
    fn flip_bit(&mut self, mut bit: usize) {
        for item in self.iter_mut() {
            let s = item.size_bits();
            if bit < s {
                item.flip_bit(bit);
                return;
            }
            bit -= s;
        }
        // Empty vectors meter as 1 framing bit; nothing to corrupt.
    }
}

impl<A, B> FaultInjectable for (A, B)
where
    A: MessageSize + FaultInjectable,
    B: FaultInjectable,
{
    fn flip_bit(&mut self, bit: usize) {
        let a_bits = self.0.size_bits();
        if bit < a_bits {
            self.0.flip_bit(bit);
        } else {
            self.1.flip_bit(bit - a_bits);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_none() {
        assert!(FaultPlan::none().is_none());
        // The seed alone does not make a plan faulty.
        assert!(FaultPlan::seeded(42).is_none());
        assert!(!FaultPlan::seeded(42).with_drops(0.1).is_none());
        assert!(!FaultPlan::seeded(42).with_flips(0.1).is_none());
        assert!(!FaultPlan::seeded(42).with_crash(0, 3).is_none());
    }

    #[test]
    fn stream_is_stateless_and_order_independent() {
        let plan = FaultPlan::seeded(7).with_drops(0.5);
        let a: Vec<u64> = (0..32)
            .map(|i| plan.word(LANE_DROP, 3, 1, 2, i, 0))
            .collect();
        // Re-evaluating in any order reproduces the same blocks.
        let b: Vec<u64> = (0..32)
            .rev()
            .map(|i| plan.word(LANE_DROP, 3, 1, 2, i, 0))
            .collect();
        let b_rev: Vec<u64> = b.into_iter().rev().collect();
        assert_eq!(a, b_rev);
    }

    #[test]
    fn coordinates_decorrelate() {
        let plan = FaultPlan::seeded(7);
        // Swapping from/to, or shifting the same delta between round
        // and idx, must not collide.
        assert_ne!(
            plan.word(LANE_DROP, 0, 1, 2, 0, 0),
            plan.word(LANE_DROP, 0, 2, 1, 0, 0)
        );
        assert_ne!(
            plan.word(LANE_DROP, 1, 1, 2, 0, 0),
            plan.word(LANE_DROP, 0, 1, 2, 1, 0)
        );
        assert_ne!(
            plan.word(LANE_DROP, 0, 1, 2, 0, 0),
            plan.word(LANE_FLIP, 0, 1, 2, 0, 0)
        );
    }

    #[test]
    fn u01_stays_in_unit_interval() {
        let plan = FaultPlan::seeded(0xABCD);
        for i in 0..1000 {
            let x = u01(plan.word(LANE_FLIP, i, 0, 1, 0, 0));
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let plan = FaultPlan::seeded(11).with_drops(0.25);
        let mut dropped = 0;
        let trials = 20_000;
        for i in 0..trials {
            let mut msg = 0u64;
            if plan.apply(i, 0, 1, 0, &mut msg).is_none() {
                dropped += 1;
            }
        }
        let rate = dropped as f64 / trials as f64;
        assert!((rate - 0.25).abs() < 0.02, "drop rate {rate}");
    }

    #[test]
    fn flips_are_reported_accurately() {
        let plan = FaultPlan::seeded(13).with_flips(0.2);
        for i in 0..200 {
            let original = 0xDEAD_BEEFu64;
            let mut msg = original;
            let flips = plan.apply(i, 2, 3, 1, &mut msg).unwrap();
            assert_eq!((msg ^ original).count_ones(), flips);
        }
    }

    #[test]
    fn crash_schedule_is_inclusive() {
        let plan = FaultPlan::seeded(1).with_crash(4, 10);
        assert!(!plan.crashed(4, 9));
        assert!(plan.crashed(4, 10));
        assert!(plan.crashed(4, 11));
        assert!(!plan.crashed(3, 11));
        // Messages delivered at the crash round are dropped.
        let mut msg = 1u64;
        assert_eq!(plan.apply(9, 0, 4, 0, &mut msg), None);
        assert!(plan.apply(8, 0, 4, 0, &mut msg).is_some());
        assert_eq!(plan.effective_crashes(11), 1);
        assert_eq!(plan.effective_crashes(10), 0);
    }

    #[test]
    fn rejoin_ends_the_outage() {
        let plan = FaultPlan::seeded(2).with_crash(4, 10).with_rejoin(4, 14);
        assert!(!plan.crashed(4, 9));
        assert!(plan.crashed(4, 10));
        assert!(plan.crashed(4, 13));
        assert!(!plan.crashed(4, 14));
        assert!(!plan.crashed(4, 20));
        assert!(plan.rejoins_at(4, 14));
        assert!(!plan.rejoins_at(4, 13));
        assert!(!plan.rejoins_at(3, 14));
        assert!(plan.will_rejoin(4, 10));
        assert!(!plan.will_rejoin(4, 14));
        // Delivery resumes at the rejoin round: messages sent at 13
        // arrive at 14, when the node is back.
        let mut msg = 1u64;
        assert_eq!(plan.apply(12, 0, 4, 0, &mut msg), None);
        assert!(plan.apply(13, 0, 4, 0, &mut msg).is_some());
        assert_eq!(plan.effective_rejoins(15), 1);
        assert_eq!(plan.effective_rejoins(14), 0);
        assert_eq!(plan.downtime_rounds(15), 4);
    }

    #[test]
    fn crash_rejoin_cycles_resolve_latest_event() {
        let plan = FaultPlan::seeded(3)
            .with_crash(1, 2)
            .with_rejoin(1, 5)
            .with_crash(1, 8)
            .with_rejoin(1, 12);
        assert!(!plan.crashed(1, 1));
        assert!(plan.crashed(1, 3));
        assert!(!plan.crashed(1, 6));
        assert!(plan.crashed(1, 9));
        assert!(!plan.crashed(1, 12));
        assert!(plan.rejoins_at(1, 5));
        assert!(plan.rejoins_at(1, 12));
        assert_eq!(plan.next_event_after(0), Some(2));
        assert_eq!(plan.next_event_after(5), Some(8));
        assert_eq!(plan.next_event_after(12), None);
        assert_eq!(plan.effective_rejoins(13), 2);
        assert_eq!(plan.downtime_rounds(13), 3 + 4);
        assert_eq!(plan.max_outage_rounds(), 4);
        assert_eq!(FaultPlan::none().max_outage_rounds(), 0);
    }

    #[test]
    #[should_panic(expected = "no earlier crash")]
    fn dangling_rejoin_is_rejected() {
        let _ = FaultPlan::seeded(4).with_rejoin(0, 5);
    }

    #[test]
    fn rejoin_only_difference_still_counts_as_faulted() {
        let plan = FaultPlan::seeded(5).with_crash(0, 1).with_rejoin(0, 2);
        assert!(!plan.is_none());
    }

    #[test]
    fn compound_messages_route_flips() {
        // Vec<u64>: bit 70 lands in the second element, bit 6.
        let mut v = vec![0u64, 0u64];
        v.flip_bit(70);
        assert_eq!(v, vec![0, 1 << 6]);

        // (Compact, u64): Compact(5) is 3 wire bits, so bit 3 is the
        // second component's bit 0.
        let mut pair = (Compact(5), 0u64);
        pair.flip_bit(3);
        assert_eq!(pair, (Compact(5), 1));
        pair.flip_bit(1);
        assert_eq!(pair, (Compact(7), 1));
    }

    /// A message of `.0` wire bits that logs the flips it receives, in
    /// arrival order.
    struct Log(usize, Vec<usize>);

    impl MessageSize for Log {
        fn size_bits(&self) -> usize {
            self.0
        }
    }

    impl FaultInjectable for Log {
        fn flip_bit(&mut self, bit: usize) {
            self.1.push(bit);
        }
    }

    /// The flip law written out plainly: `q^n` multiplies freshly squared
    /// `q^(2^i)` over the set bits of `n`, highest first, and each gap
    /// is a linear scan for the smallest `k` with `x ≥ q^(k+1)`.
    fn naive_flips(plan: &FaultPlan, at: [usize; 4], len: usize) -> Vec<usize> {
        let q = 1.0 - plan.flip_prob;
        let square = |i| (0..i).fold(q, |sq, _| sq * sq);
        let power = |n: usize| {
            (0..64)
                .rev()
                .filter(|i| n >> i & 1 == 1)
                .fold(1.0, |acc, i| acc * square(i))
        };
        let (mut flips, mut b) = (Vec::new(), 0);
        loop {
            let x = u01(plan.word(LANE_FLIP, at[0], at[1], at[2], at[3], b as u64));
            if x < power(len - b) {
                break;
            }
            let k = (0..).find(|&k| x >= power(k + 1)).unwrap();
            flips.push(b + k);
            b += k + 1;
        }
        flips
    }

    /// The flip probabilities of the kernel oracle: zero, tiny, the E13
    /// rate, one half, one, and `1234567·2⁻⁵³`.
    const ORACLE_PROBS: [f64; 6] = [0.0, 1e-9, 3e-4, 0.5, 1.0, 1_234_567.0 / (1u64 << 53) as f64];

    /// Wire widths around a 64-bit word, the Compact Justesen word (310)
    /// and the widest message codeword (756).
    const ORACLE_BITS: [usize; 6] = [1, 63, 64, 65, 310, 756];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// `apply` flips exactly the bits, in exactly the order, that the
        /// plainly written definition selects.
        #[test]
        fn flip_kernel_matches_geometric_definition(
            seed in proptest::prelude::any::<u64>(),
            round in 0usize..1 << 20,
            from in 0usize..1 << 20,
            to in 0usize..1 << 20,
            idx in 0usize..64,
            p_at in 0usize..ORACLE_PROBS.len(),
            bits_at in 0usize..ORACLE_BITS.len(),
        ) {
            let (p, len) = (ORACLE_PROBS[p_at], ORACLE_BITS[bits_at]);
            let plan = FaultPlan::seeded(seed).with_flips(p);
            let expected = naive_flips(&plan, [round, from, to, idx], len);
            let mut msg = Log(len, Vec::new());
            let flips = plan.apply(round, from, to, idx, &mut msg);
            proptest::prop_assert_eq!(flips, Some(expected.len() as u32));
            proptest::prop_assert_eq!(msg.1, expected);
        }

        /// Where the search descends bit by bit, the powers are strictly
        /// decreasing, and it returns what a scan returns at and beside
        /// every power.
        #[test]
        fn flip_search_matches_a_scan(p_log2 in -60.0f64..-1.0, m in 1usize..=800) {
            let sq = squares(1.0 - p_log2.exp2(), m);
            let descends = 1.0 - sq[0] > m as f64 * f64::EPSILON;
            for n in 1..=m {
                let at = pow(&sq, n);
                proptest::prop_assert!(!descends || at < pow(&sq, n - 1), "n = {n}");
                for x in [at.next_down(), at, at.next_up()] {
                    if x < 1.0 && x >= pow(&sq, m) {
                        let scan = (0..m).find(|&k| x >= pow(&sq, k + 1));
                        proptest::prop_assert_eq!(Some(next_flip(&sq, m, x)), scan);
                    }
                }
            }
        }
    }

    #[test]
    fn flips_arrive_in_ascending_order() {
        for (round, &p) in (0..2500).zip([3e-4, 0.05, 0.5, 0.9, 1.0].iter().cycle()) {
            let mut msg = Log(310, Vec::new());
            let plan = FaultPlan::seeded(21).with_flips(p);
            let flips = plan.apply(round, 4, 5, 0, &mut msg);
            assert!(msg.1.windows(2).all(|w| w[0] < w[1]) && msg.1.last() < Some(&310));
            assert_eq!(flips, Some(msg.1.len() as u32));
        }
    }

    /// The realized channel is binary symmetric: each position of a
    /// 310-bit word flips at rate `p`, each adjacent pair at `p²`, and a
    /// word at the E13 rate stays clean at `(1 − p)^310`, each within
    /// both one-sided Wilson bounds at `z = 6`. Summed over the 620
    /// checks, the exact binomial tails beyond those bounds give a
    /// false-failure rate of `6.1·10⁻⁶` (union bound).
    #[test]
    fn flip_rate_tracks_probability_per_bit() {
        let check = |what: &str, hits: usize, n: usize, rate: f64| {
            let (z2, phat, n) = (36.0, hits as f64 / n as f64, n as f64);
            let half = (z2 * phat * (1.0 - phat) / n + z2 * z2 / (4.0 * n * n)).sqrt();
            let gap = (rate * (1.0 + z2 / n) - phat - z2 / (2.0 * n)).abs();
            assert!(gap <= half, "{what}: {hits} of {n}");
        };
        let plan = FaultPlan::seeded(31).with_flips(0.1);
        let mut hits = [0; 619]; // bit b at b, the pair (b, b + 1) at 310 + b
        for i in 0..10_000 {
            let mut msg = Log(310, Vec::new());
            plan.apply(i, 1, 2, i % 3, &mut msg).unwrap();
            msg.1.iter().for_each(|&b| hits[b] += 1);
            for w in msg.1.windows(2).filter(|w| w[1] == w[0] + 1) {
                hits[310 + w[0]] += 1;
            }
        }
        for (at, &h) in hits.iter().enumerate() {
            let rate = if at < 310 { 0.1 } else { 0.01 };
            check(&format!("count {at}"), h, 10_000, rate);
        }
        let plan = FaultPlan::seeded(32).with_flips(3e-4);
        let clean = (0..20_000)
            .filter(|&i| plan.apply(i, 7, 8, 0, &mut Log(310, Vec::new())) == Some(0))
            .count();
        check("clean words", clean, 20_000, (1.0 - 3e-4f64).powi(310));
    }

    #[test]
    fn same_seed_same_faults_different_seed_different_faults() {
        let a = FaultPlan::seeded(5).with_drops(0.3);
        let b = FaultPlan::seeded(5).with_drops(0.3);
        let c = FaultPlan::seeded(6).with_drops(0.3);
        let pattern = |p: &FaultPlan| -> Vec<bool> {
            (0..256)
                .map(|i| {
                    let mut m = 0u64;
                    p.apply(0, 0, 1, i, &mut m).is_none()
                })
                .collect()
        };
        assert_eq!(pattern(&a), pattern(&b));
        assert_ne!(pattern(&a), pattern(&c));
    }
}
