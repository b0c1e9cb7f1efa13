//! The Justesen message codec: error-corrected wire words for CONGEST
//! protocols.
//!
//! [`JustesenCodec`] bridges `dut-ecc`'s concatenated [`JustesenCode`]
//! into the simulator's [`MessageCodec`] plumbing: a plain protocol
//! message is packed into its [`CodecMessage`] bit representation,
//! encoded into a [`CodedWord`] that travels (and is metered, and is
//! fault-injected) on the wire, and decoded on arrival — any pattern of
//! at most [`JustesenCode::certified_correction_radius`] bit flips per
//! word is corrected transparently; worse corruption is discarded like a
//! dropped message, which the ack/retry layer in
//! `dut_netsim::algorithms::reliable` then recovers.
//!
//! A phase sends the same few messages over and over (the max-id flood
//! re-sends ids, BFS re-sends depths, the ARQ layer re-sends acks), so
//! each codec keeps a small codebook of exact `(message, codeword)`
//! pairs, and codewords are shared buffers: a broadcast's copies and the
//! engine's clones point at one allocation until a fault flips a bit.

use dut_ecc::{BinaryCode, JustesenCode};
use dut_netsim::algorithms::coded::{CodecError, CodecMessage, MessageCodec};
use dut_netsim::engine::MessageSize;
use dut_netsim::fault::FaultInjectable;
use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;
use std::rc::Rc;

/// A Justesen codeword on the wire.
///
/// [`MessageSize`] reports the full codeword length, so a CONGEST
/// bandwidth budget must be sized to [`BinaryCode::output_bits`] of the
/// code (see [`JustesenCodec::output_bits`]), and fault injection flips
/// real codeword bits.
///
/// Clones share one buffer; [`FaultInjectable::flip_bit`] copies it
/// first when it is shared, so a flip never reaches another copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodedWord {
    /// Codeword length in bits.
    bits: usize,
    /// The codeword, packed little-endian into 64-bit words. Bits past
    /// `bits` are zero: only [`JustesenCodec::encode`] builds a word,
    /// and `flip_bit` wraps.
    words: Rc<[u64]>,
}

impl MessageSize for CodedWord {
    fn size_bits(&self) -> usize {
        self.bits
    }
}

impl FaultInjectable for CodedWord {
    fn flip_bit(&mut self, bit: usize) {
        let bit = bit % self.bits;
        Rc::make_mut(&mut self.words)[bit / 64] ^= 1u64 << (bit % 64);
    }
}

/// Slots in each of a codebook's two direct-mapped tables.
const CODEBOOK_SLOTS: usize = 1024;

/// A packed message and its codeword, `(bits, encode(bits))`.
type Entry = (u128, Rc<[u64]>);

/// A codec's memo of exact `(message, codeword)` pairs, direct-mapped
/// twice: by packed message for `encode`, and by codeword for `decode`.
/// A newer pair evicts the one in its slot. The tables are allocated on
/// the first insert, so a codec built only to read its sizes costs none.
///
/// Only pairs `(p, encode(p))` are inserted, so a lookup returns what
/// the code itself would: `encode(p)`, or, for a received word equal bit
/// for bit to a stored codeword, its message with 0 corrected bits.
struct Codebook {
    by_message: Box<[Option<Entry>]>,
    by_word: Box<[Option<Entry>]>,
}

impl Codebook {
    fn new() -> Self {
        Codebook {
            by_message: Box::default(),
            by_word: Box::default(),
        }
    }

    /// The stored codeword of `bits`, if any.
    fn word(&self, bits: u128) -> Option<Rc<[u64]>> {
        match self.by_message.get(Self::message_slot(bits)) {
            Some(Some((b, words))) if *b == bits => Some(Rc::clone(words)),
            _ => None,
        }
    }

    /// The stored message whose codeword equals `words` bit for bit.
    fn message(&self, words: &[u64]) -> Option<u128> {
        match self.by_word.get(Self::word_slot(words)) {
            Some(Some((bits, w))) if **w == *words => Some(*bits),
            _ => None,
        }
    }

    /// Stores `words` as the codeword of `bits`; the caller guarantees
    /// `words == encode(bits)`.
    fn insert(&mut self, bits: u128, words: &Rc<[u64]>) {
        if self.by_word.is_empty() {
            self.by_message = vec![None; CODEBOOK_SLOTS].into();
            self.by_word = vec![None; CODEBOOK_SLOTS].into();
        }
        let entry = Some((bits, Rc::clone(words)));
        self.by_word[Self::word_slot(words)] = entry.clone();
        self.by_message[Self::message_slot(bits)] = entry;
    }

    fn message_slot(bits: u128) -> usize {
        Self::slot(bits as u64 ^ (bits >> 64) as u64)
    }

    fn word_slot(words: &[u64]) -> usize {
        Self::slot(words.iter().fold(0, |h, &w| (h ^ w).wrapping_mul(FIB)))
    }

    /// Fibonacci hashing: the top bits of `h · 2⁶⁴/φ`.
    fn slot(h: u64) -> usize {
        const SHIFT: u32 = 64 - CODEBOOK_SLOTS.trailing_zeros();
        (h.wrapping_mul(FIB) >> SHIFT) as usize
    }
}

/// ⌊2⁶⁴/φ⌋, odd.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// A [`MessageCodec`] that sends `M` as Justesen codewords.
///
/// The code is sized at construction to the message type's
/// [`CodecMessage::PACKED_BITS`]: the smallest rate-1/3 instance whose
/// input capacity holds the packed message.
///
/// Each codec built by [`JustesenCodec::new`] owns a small codebook of
/// the `(message, codeword)` pairs it has encoded or cleanly decoded,
/// and its clones share it (one phase hands clones to all its nodes).
/// `encode` returns a stored codeword when one exists, and `decode`
/// returns a stored message when the received word equals its codeword
/// bit for bit; every result is the code's own.
#[derive(Clone)]
pub struct JustesenCodec<M> {
    code: JustesenCode,
    book: Rc<RefCell<Codebook>>,
    _marker: PhantomData<M>,
}

impl<M> fmt::Debug for JustesenCodec<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JustesenCodec")
            .field("code", &self.code)
            .finish_non_exhaustive()
    }
}

impl<M: CodecMessage> JustesenCodec<M> {
    /// Creates the codec with the smallest rate-1/3 Justesen instance
    /// holding `M::PACKED_BITS` message bits.
    ///
    /// # Panics
    ///
    /// Panics if `M::PACKED_BITS` exceeds 128, the [`CodecMessage`]
    /// limit: the `m = 6` instance holds 252 message bits, which the
    /// four-word message buffer of [`MessageCodec::encode`] covers.
    pub fn new() -> Self {
        let code = (2..=6u32)
            .map(JustesenCode::rate_one_third)
            .find(|c| c.input_bits() >= M::PACKED_BITS)
            .expect("the m = 6 instance holds a 128-bit message");
        JustesenCodec {
            code,
            book: Rc::new(RefCell::new(Codebook::new())),
            _marker: PhantomData,
        }
    }

    /// The codeword length in wire bits — size CONGEST budgets to this.
    pub fn output_bits(&self) -> usize {
        self.code.output_bits()
    }

    /// Bit flips per word the codec is certified to correct.
    pub fn correction_radius(&self) -> usize {
        self.code.certified_correction_radius()
    }
}

impl<M: CodecMessage> Default for JustesenCodec<M> {
    fn default() -> Self {
        JustesenCodec::new()
    }
}

impl<M: CodecMessage + PartialEq + MessageSize> MessageCodec for JustesenCodec<M> {
    type Plain = M;
    type Wire = CodedWord;

    fn encode(&self, msg: &M) -> CodedWord {
        let bits = msg.to_bits();
        let stored = self.book.borrow().word(bits);
        let words = stored.unwrap_or_else(|| {
            // PACKED_BITS ≤ input_bits by construction, and `to_bits`
            // zeroes everything above PACKED_BITS, so padding words
            // with zeros keeps the message exact. Four words hold the
            // m = 6 instance's 252 message bits.
            let mut message = [0u64; 4];
            message[..2].copy_from_slice(&[bits as u64, (bits >> 64) as u64]);
            let words: Rc<[u64]> = self.code.encode(&message).into();
            self.book.borrow_mut().insert(bits, &words);
            words
        });
        CodedWord {
            bits: self.code.output_bits(),
            words,
        }
    }

    fn decode(&self, wire: &CodedWord) -> Result<(M, usize), CodecError> {
        let stored = self.book.borrow().message(&wire.words);
        if let Some(bits) = stored {
            return Ok((M::from_bits(bits), 0));
        }
        // The decoder counts corrected bits within `output_bits`, which
        // is the whole word: `flip_bit` wraps, so padding stays zero.
        let (message, corrected) = self.code.decode(&wire.words).map_err(|_| CodecError)?;
        let mut bits = u128::from(message[0]);
        if let Some(&hi) = message.get(1) {
            bits |= u128::from(hi) << 64;
        }
        // With no bit corrected, the wire word is the codeword of
        // `message`; it is `encode(bits)` when `bits` holds all of it.
        if corrected == 0 && message.iter().skip(2).all(|&w| w == 0) {
            self.book.borrow_mut().insert(bits, &wire.words);
        }
        Ok((M::from_bits(bits), corrected))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conductance::walk::WalkMsg;
    use dut_netsim::algorithms::RelMsg;
    use dut_netsim::engine::Compact;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    #[test]
    fn compact_round_trips_clean() {
        let codec = JustesenCodec::<Compact>::new();
        for v in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF_CAFE_F00D] {
            let wire = codec.encode(&Compact(v));
            assert_eq!(wire.size_bits(), codec.output_bits());
            let (decoded, corrected) = codec.decode(&wire).unwrap();
            assert_eq!(decoded, Compact(v));
            assert_eq!(corrected, 0);
        }
    }

    #[test]
    fn relmsg_round_trips_clean() {
        let codec = JustesenCodec::<RelMsg>::new();
        for msg in [
            RelMsg::Data { seq: 7, value: 123 },
            RelMsg::Data {
                seq: u32::MAX,
                value: u64::MAX,
            },
            RelMsg::Ack { seq: 0 },
            RelMsg::Ack { seq: 99 },
        ] {
            let (decoded, corrected) = codec.decode(&codec.encode(&msg)).unwrap();
            assert_eq!(decoded, msg);
            assert_eq!(corrected, 0);
        }
    }

    #[test]
    fn corrects_flips_up_to_radius() {
        let codec = JustesenCodec::<Compact>::new();
        let radius = codec.correction_radius();
        assert!(radius >= 1);
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..25 {
            let msg = Compact(rng.gen());
            let mut wire = codec.encode(&msg);
            let t = rng.gen_range(1..=radius);
            let mut flipped = HashSet::new();
            while flipped.len() < t {
                flipped.insert(rng.gen_range(0..codec.output_bits()));
            }
            for &bit in &flipped {
                wire.flip_bit(bit);
            }
            let (decoded, corrected) = codec.decode(&wire).unwrap();
            assert_eq!(decoded, msg);
            assert_eq!(corrected, t);
        }
    }

    /// Flips up to twice the radius: every successful decode's count is
    /// the Hamming distance from the wire word to the re-encoded result.
    fn assert_counts_are_distances<M>(codec: &JustesenCodec<M>, draw: impl Fn(&mut StdRng) -> M)
    where
        M: CodecMessage + MessageSize + PartialEq + std::fmt::Debug,
    {
        let radius = codec.correction_radius();
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..200 {
            let msg = draw(&mut rng);
            let mut wire = codec.encode(&msg);
            let t = rng.gen_range(0..=2 * radius);
            let mut flipped = HashSet::new();
            while flipped.len() < t {
                flipped.insert(rng.gen_range(0..codec.output_bits()));
            }
            for &bit in &flipped {
                wire.flip_bit(bit);
            }
            if let Ok((decoded, corrected)) = codec.decode(&wire) {
                let clean = codec.encode(&decoded);
                let distance: u32 = clean
                    .words
                    .iter()
                    .zip(wire.words.iter())
                    .map(|(&a, &b)| (a ^ b).count_ones())
                    .sum();
                assert_eq!(corrected, distance as usize);
                if t <= radius {
                    assert_eq!((decoded, corrected), (msg, t));
                }
            }
        }
    }

    #[test]
    fn corrected_counts_are_distances_to_the_decoded_word() {
        assert_counts_are_distances(&JustesenCodec::<Compact>::new(), |rng| Compact(rng.gen()));
        let walk = JustesenCodec::<WalkMsg>::new();
        assert_eq!(walk.output_bits(), 2 * 63 * 6);
        assert_counts_are_distances(&walk, |rng| WalkMsg {
            src: rng.gen(),
            cnt: rng.gen(),
        });
    }

    #[test]
    fn overwhelming_corruption_is_a_codec_error_or_wrong_word() {
        // Beyond the radius the decoder must never silently return the
        // original message as a "clean" decode.
        let codec = JustesenCodec::<Compact>::new();
        let msg = Compact(0x1234_5678_9ABC_DEF0);
        let mut wire = codec.encode(&msg);
        for bit in (0..codec.output_bits()).step_by(2) {
            wire.flip_bit(bit);
        }
        match codec.decode(&wire) {
            Err(CodecError) => {}
            Ok((decoded, _)) => assert_ne!(decoded, msg),
        }
    }

    #[test]
    fn flips_wrap_modulo_word_length() {
        let codec = JustesenCodec::<Compact>::new();
        let msg = Compact(5);
        let mut a = codec.encode(&msg);
        let mut b = codec.encode(&msg);
        a.flip_bit(3);
        b.flip_bit(3 + codec.output_bits());
        assert_eq!(a, b);
    }

    /// `encode` without a codebook: the bare code.
    fn direct_encode(code: &JustesenCode, bits: u128) -> Vec<u64> {
        code.encode(&[bits as u64, (bits >> 64) as u64, 0, 0])
    }

    /// `decode` without a codebook: the bare code.
    fn direct_decode<M: CodecMessage>(
        code: &JustesenCode,
        words: &[u64],
    ) -> Result<(M, usize), CodecError> {
        let (message, corrected) = code.decode(words).map_err(|_| CodecError)?;
        let hi = message.get(1).map_or(0, |&hi| u128::from(hi) << 64);
        Ok((M::from_bits(u128::from(message[0]) | hi), corrected))
    }

    /// `words` with `t` distinct bits among the first `n` flipped.
    fn flip_distinct(words: &[u64], t: usize, n: usize, rng: &mut StdRng) -> Vec<u64> {
        let mut bits = HashSet::new();
        while bits.len() < t {
            bits.insert(rng.gen_range(0..n));
        }
        let mut out = words.to_vec();
        for bit in bits {
            out[bit / 64] ^= 1 << (bit % 64);
        }
        out
    }

    enum Step<M> {
        Encode(M),
        Decode(Vec<u64>),
    }

    /// Runs the same encodes and decodes through `codec`, whose
    /// codebook fills as it goes, and through the bare code: every
    /// codeword and every decode result (message, corrected bits or
    /// error) must be equal. The received words are clean, flipped
    /// within the radius, flipped beyond it, and flipped onto another
    /// codeword: of a sent message, of an unsent one (which a clean
    /// decode records), and of a message with bits the type does not
    /// carry (which must not be recorded). The steps run twice, so the
    /// second pass hits the codebook.
    fn assert_codebook_matches_code<M>(codec: &JustesenCodec<M>, draw: impl Fn(&mut StdRng) -> M)
    where
        M: CodecMessage + MessageSize + PartialEq + std::fmt::Debug,
    {
        let code = &codec.code;
        let (n, radius) = (codec.output_bits(), codec.correction_radius());
        let mut rng = StdRng::seed_from_u64(26);
        let mut steps = Vec::new();
        for _ in 0..200 {
            let msg = draw(&mut rng);
            let clean = direct_encode(code, msg.to_bits());
            let within = flip_distinct(&clean, rng.gen_range(1..=radius), n, &mut rng);
            let beyond = flip_distinct(&clean, rng.gen_range(radius + 1..=3 * radius), n, &mut rng);
            let unsent = draw(&mut rng);
            let mut raw = [rng.gen(), rng.gen(), rng.gen(), rng.gen()];
            if let Some(top) = raw.get_mut(code.input_bits() / 64) {
                *top &= (1 << (code.input_bits() % 64)) - 1;
            }
            let uncarried = M::from_bits(u128::from(raw[0]) | (u128::from(raw[1]) << 64));
            steps.extend([
                Step::Encode(msg),
                Step::Decode(clean),
                Step::Decode(within),
                Step::Decode(beyond),
                Step::Decode(direct_encode(code, unsent.to_bits())),
                Step::Encode(unsent),
                Step::Decode(code.encode(&raw)),
                Step::Encode(uncarried),
            ]);
        }
        // Words flipped onto the codeword of a message sent earlier.
        let sent: Vec<u128> = steps
            .iter()
            .filter_map(|s| match s {
                Step::Encode(m) => Some(m.to_bits()),
                Step::Decode(_) => None,
            })
            .collect();
        for _ in 0..200 {
            let bits = sent[rng.gen_range(0..sent.len())];
            steps.push(Step::Decode(direct_encode(code, bits)));
        }
        for _pass in 0..2 {
            for step in &steps {
                match step {
                    Step::Encode(msg) => {
                        let wire = codec.encode(msg);
                        assert_eq!(wire.size_bits(), n);
                        assert_eq!(*wire.words, *direct_encode(code, msg.to_bits()));
                    }
                    Step::Decode(words) => {
                        let wire = CodedWord {
                            bits: n,
                            words: words.as_slice().into(),
                        };
                        assert_eq!(codec.decode(&wire), direct_decode::<M>(code, words));
                    }
                }
            }
        }
    }

    #[test]
    fn codebook_matches_the_bare_code() {
        let compact = JustesenCodec::<Compact>::new();
        assert_eq!(compact.code.symbol_bits(), 5);
        assert_codebook_matches_code(&compact, |rng| Compact(rng.gen()));
        let rel = JustesenCodec::<RelMsg>::new();
        assert_eq!(rel.code.symbol_bits(), 5);
        assert_codebook_matches_code(&rel, |rng| {
            if rng.gen() {
                RelMsg::Data {
                    seq: rng.gen(),
                    value: rng.gen(),
                }
            } else {
                RelMsg::Ack { seq: rng.gen() }
            }
        });
        let walk = JustesenCodec::<WalkMsg>::new();
        assert_eq!(walk.code.symbol_bits(), 6);
        assert_codebook_matches_code(&walk, |rng| WalkMsg {
            src: rng.gen(),
            cnt: rng.gen(),
        });
    }

    #[test]
    fn flipping_a_shared_word_leaves_its_copies_and_the_codebook_alone() {
        let codec = JustesenCodec::<Compact>::new();
        let msg = Compact(0xC0DE);
        let sent = codec.encode(&msg);
        let (mut flipped, sibling) = (sent.clone(), sent.clone());
        assert!(Rc::ptr_eq(&flipped.words, &sibling.words));
        flipped.flip_bit(7);
        assert_ne!(flipped, sent);
        assert_eq!(sibling, sent);
        assert_eq!(*sent.words, *direct_encode(&codec.code, msg.to_bits()));
        // The stored entry is still the unflipped buffer, and a clone of
        // the codec shares the codebook.
        let again = codec.clone().encode(&msg);
        assert!(Rc::ptr_eq(&again.words, &sent.words));
        assert_eq!(codec.decode(&sibling), Ok((msg, 0)));
        assert_eq!(codec.decode(&flipped), Ok((msg, 1)));
        flipped.flip_bit(7);
        assert_eq!(flipped, sent);
    }
}
