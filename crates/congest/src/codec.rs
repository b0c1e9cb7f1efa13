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

use dut_ecc::{BinaryCode, JustesenCode};
use dut_netsim::algorithms::coded::{CodecError, CodecMessage, MessageCodec};
use dut_netsim::engine::MessageSize;
use dut_netsim::fault::FaultInjectable;
use std::marker::PhantomData;

/// A Justesen codeword on the wire.
///
/// [`MessageSize`] reports the full codeword length, so a CONGEST
/// bandwidth budget must be sized to [`BinaryCode::output_bits`] of the
/// code (see [`JustesenCodec::output_bits`]), and fault injection flips
/// real codeword bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodedWord {
    /// Codeword length in bits.
    bits: usize,
    /// The codeword, packed little-endian into 64-bit words.
    words: Vec<u64>,
}

impl MessageSize for CodedWord {
    fn size_bits(&self) -> usize {
        self.bits
    }
}

impl FaultInjectable for CodedWord {
    fn flip_bit(&mut self, bit: usize) {
        let bit = bit % self.bits;
        self.words[bit / 64] ^= 1u64 << (bit % 64);
    }
}

/// A [`MessageCodec`] that sends `M` as Justesen codewords.
///
/// The code is sized at construction to the message type's
/// [`CodecMessage::PACKED_BITS`]: the smallest rate-1/3 instance whose
/// input capacity holds the packed message.
#[derive(Debug, Clone)]
pub struct JustesenCodec<M> {
    code: JustesenCode,
    _marker: PhantomData<M>,
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
        // PACKED_BITS ≤ input_bits by construction, and `to_bits`
        // zeroes everything above PACKED_BITS, so padding words with
        // zeros keeps the message exact. Four words hold the m = 6
        // instance's 252 message bits.
        let mut message = [0u64; 4];
        message[..2].copy_from_slice(&[bits as u64, (bits >> 64) as u64]);
        CodedWord {
            bits: self.code.output_bits(),
            words: self.code.encode(&message),
        }
    }

    fn decode(&self, wire: &CodedWord) -> Result<(M, usize), CodecError> {
        // The decoder counts corrected bits within `output_bits`, which
        // is the whole word: `flip_bit` wraps, so padding stays zero.
        let (message, corrected) = self.code.decode(&wire.words).map_err(|_| CodecError)?;
        let mut bits = u128::from(message[0]);
        if let Some(&hi) = message.get(1) {
            bits |= u128::from(hi) << 64;
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
            let mut flipped = std::collections::HashSet::new();
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
            let mut flipped = std::collections::HashSet::new();
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
                    .zip(&wire.words)
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
}
