//! The Justesen-style concatenated code.
//!
//! Outer code: Reed–Solomon `[N, K]` over `GF(2^m)` with `N = 2^m − 1`.
//! Inner codes: the *Wozencraft ensemble* — position `i` of the RS
//! codeword is encoded by the rate-1/2 map `x ↦ (x, αⁱ·x)`, a different
//! linear map for every position. Justesen's insight is that most
//! members of the ensemble meet the GV bound, so the concatenation has
//! constant relative distance with no search or decoding machinery.
//!
//! Guarantees implemented here:
//!
//! * every pair of distinct messages differs in ≥ `N−K+1` outer symbols
//!   (MDS), and each differing symbol contributes ≥ 1 output bit, so the
//!   *certified* minimum distance is `N−K+1` bits;
//! * the ensemble argument (and our empirical measurements — see the
//!   tests and Experiment E8) put the actual relative distance far
//!   higher; the crate-level docs discuss why the rate-1/3 protocol
//!   defaults to [`crate::linear::RandomLinearCode`] instead.

use crate::gf::GaloisField;
use crate::rs_decode::{berlekamp_welch, DecodeError, ErrorUnit};
use crate::BinaryCode;
use std::sync::OnceLock;

/// Largest symbol size `m` whose instances get a [`Kernel`]. It covers
/// every instance the message codecs use (`m = 5, 6`); larger codes keep
/// the table-free paths and their construction cost.
const KERNEL_MAX_M: u32 = 6;

/// Index of the first kernel slot of symbol size `m`: each smaller
/// `j ≥ 2` holds one slot per outer dimension `K ∈ 1..=2^j − 1`.
const fn kernel_offset(m: u32) -> usize {
    (1usize << m) - m as usize - 2
}

/// One lazily built kernel per `(m, K)` with `m ≤ KERNEL_MAX_M`, shared
/// process-wide: clones and fresh constructions of the same instance
/// never rebuild or copy the tables.
static KERNELS: [OnceLock<Kernel>; kernel_offset(KERNEL_MAX_M + 1)] =
    [const { OnceLock::new() }; kernel_offset(KERNEL_MAX_M + 1)];

/// The code's GF(2)-linear maps as XOR-able tables of `u64` rows.
///
/// Encoding, the inverse DFT `f_l = Σᵢ cᵢ·α^{−il}` (no scaling: `N` is
/// odd, so `N⁻¹ = 1` in characteristic 2) and the RS syndromes
/// `S_j = Σᵢ rᵢ·α^{ij}` are all GF(2)-linear, so each is the XOR of one
/// precomputed row per input symbol, indexed by its position and value.
struct Kernel {
    /// Row `(l, s)` is the codeword of the message whose only nonzero
    /// symbol is `s` at position `l`.
    codeword_table: Vec<u64>,
    /// Row `(i, s)` is, for the outer word whose only nonzero symbol is
    /// `s` at position `i`: `f_0 … f_{K−1}` packed as a message in the
    /// first `message_words` words, then `S_1 … S_{N−K}`.
    decode_table: Vec<u64>,
    codeword_words: usize,
    message_words: usize,
    decode_words: usize,
}

impl Kernel {
    fn build(code: &JustesenCode) -> Kernel {
        let (field, n, k, m) = (&code.field, code.n_outer, code.k_outer, code.symbol_bits());
        let codeword_words = code.output_bits().div_ceil(64);
        let message_words = code.input_bits().div_ceil(64);
        let decode_words = message_words + ((n - k) * m).div_ceil(64);
        let mut codeword_rows = Vec::with_capacity(code.input_bits() * codeword_words);
        let mut unit = vec![0u64; message_words];
        for b in 0..code.input_bits() {
            unit[b / 64] = 1 << (b % 64);
            codeword_rows.extend(code.encode_horner(&unit));
            unit[b / 64] = 0;
        }
        let mut decode_rows = vec![0u64; n * m * decode_words];
        for (row, out) in decode_rows.chunks_exact_mut(decode_words).enumerate() {
            let (i, symbol) = (row / m, 1u16 << (row % m));
            let (message, syndrome) = out.split_at_mut(message_words);
            for l in 0..k {
                // α^{−il} = α^{N² − il}, as i·l < N².
                let value = field.mul(symbol, field.alpha_pow(n * n - i * l));
                set_bits(message, l * m, m, value);
            }
            for j in 1..=n - k {
                let value = field.mul(symbol, field.alpha_pow(i * j));
                set_bits(syndrome, (j - 1) * m, m, value);
            }
        }
        Kernel {
            codeword_table: by_symbol(&codeword_rows, m, codeword_words),
            decode_table: by_symbol(&decode_rows, m, decode_words),
            codeword_words,
            message_words,
            decode_words,
        }
    }

    /// Encodes the `K` symbols in the low `K·m` bits of `message`.
    fn encode(&self, message: &[u64], k: usize, m: usize) -> Vec<u64> {
        let mut out = vec![0u64; self.codeword_words];
        for l in 0..k {
            let row = (l << m) | usize::from(get_bits(message, l * m, m));
            xor_row(&mut out, &self.codeword_table, row);
        }
        out
    }

    /// The packed message of `symbols` if they form an RS codeword (all
    /// syndromes zero), `None` otherwise.
    fn codeword_message(&self, symbols: &[u16], m: usize) -> Option<Vec<u64>> {
        let mut acc = vec![0u64; self.decode_words];
        for (i, &symbol) in symbols.iter().enumerate() {
            xor_row(&mut acc, &self.decode_table, (i << m) | usize::from(symbol));
        }
        if acc[self.message_words..].iter().any(|&w| w != 0) {
            return None;
        }
        acc.truncate(self.message_words);
        Some(acc)
    }
}

/// Expands rows per input bit (`m` per symbol, `width` words each) into
/// rows per symbol value: row `(g, s)` is the XOR of the rows of the set
/// bits of `s` in symbol `g`.
fn by_symbol(bit_rows: &[u64], m: usize, width: usize) -> Vec<u64> {
    let symbols = bit_rows.len() / (m * width);
    let mut table = vec![0u64; (symbols << m) * width];
    for g in 0..symbols {
        for s in 1..1usize << m {
            let (prev, bit) = (
                (g << m) | (s & (s - 1)),
                g * m + s.trailing_zeros() as usize,
            );
            for w in 0..width {
                table[((g << m) | s) * width + w] =
                    table[prev * width + w] ^ bit_rows[bit * width + w];
            }
        }
    }
    table
}

/// XORs row `row` of the row-major table `rows` (rows `acc.len()` words
/// wide) into `acc`.
#[inline]
fn xor_row(acc: &mut [u64], rows: &[u64], row: usize) {
    let width = acc.len();
    for (a, &r) in acc.iter_mut().zip(&rows[row * width..(row + 1) * width]) {
        *a ^= r;
    }
}

/// A Justesen-style concatenated code.
#[derive(Debug, Clone)]
pub struct JustesenCode {
    field: GaloisField,
    /// Outer length `N = 2^m − 1`.
    n_outer: usize,
    /// Outer dimension `K`.
    k_outer: usize,
}

impl JustesenCode {
    /// Creates the code with outer RS `[2^m − 1, k_outer]` over
    /// `GF(2^m)`.
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ m ≤ 16` and `1 ≤ k_outer ≤ 2^m − 1`.
    pub fn new(m: u32, k_outer: usize) -> Self {
        let field = GaloisField::new(m);
        let n_outer = field.size() - 1;
        assert!(
            (1..=n_outer).contains(&k_outer),
            "outer dimension must be in [1, {n_outer}]"
        );
        JustesenCode {
            field,
            n_outer,
            k_outer,
        }
    }

    /// Creates the rate-1/3 instance: `K = ⌊2N/3⌋` so
    /// `K·m / (2·N·m) ≈ 1/3`.
    pub fn rate_one_third(m: u32) -> Self {
        let n = (1usize << m) - 1;
        JustesenCode::new(m, (2 * n / 3).max(1))
    }

    /// Outer code length `N` (symbols).
    pub fn outer_length(&self) -> usize {
        self.n_outer
    }

    /// Outer code dimension `K` (symbols).
    pub fn outer_dimension(&self) -> usize {
        self.k_outer
    }

    /// The certified minimum distance in bits: `N − K + 1` (each
    /// differing outer symbol contributes at least one bit).
    pub fn certified_min_distance(&self) -> usize {
        self.n_outer - self.k_outer + 1
    }

    /// Symbol size `m` in bits.
    pub fn symbol_bits(&self) -> usize {
        self.field.degree() as usize
    }

    /// This instance's shared kernel, built on first use; `None` above
    /// [`KERNEL_MAX_M`].
    fn kernel(&self) -> Option<&'static Kernel> {
        let m = self.field.degree();
        (m <= KERNEL_MAX_M).then(|| {
            KERNELS[kernel_offset(m) + self.k_outer - 1].get_or_init(|| Kernel::build(self))
        })
    }

    /// RS evaluation (Horner) of the message polynomial at `x`.
    fn eval(&self, message: &[u16], x: u16) -> u16 {
        let mut acc = 0u16;
        for &c in message.iter().rev() {
            acc = self.field.add(self.field.mul(acc, x), c);
        }
        acc
    }

    /// Encodes symbol by symbol: outer RS evaluation at `α^0 … α^{N−1}`,
    /// inner Wozencraft map `x ↦ (x, αⁱ·x)` at position `i`.
    fn encode_horner(&self, message: &[u64]) -> Vec<u64> {
        let m = self.symbol_bits();
        let symbols: Vec<u16> = (0..self.k_outer)
            .map(|i| get_bits(message, i * m, m))
            .collect();
        let mut out = vec![0u64; self.output_bits().div_ceil(64)];
        for i in 0..self.n_outer {
            let point = self.field.alpha_pow(i);
            let c = self.eval(&symbols, point);
            set_bits(&mut out, 2 * i * m, m, c);
            set_bits(&mut out, (2 * i + 1) * m, m, self.field.mul(point, c));
        }
        out
    }

    /// The certified correction radius in wire *bits*: `⌊(N−K)/2⌋`.
    ///
    /// Any pattern of at most this many bit flips is corrected by
    /// [`JustesenCode::decode`]: each flip lands in exactly one inner
    /// block, so `t` flips corrupt at most `t` inner blocks; each
    /// corrupted block yields at most one wrong outer symbol after
    /// nearest-codeword inner decoding; and the outer Berlekamp–Welch
    /// decoder corrects up to `⌊(N−K)/2⌋` outer symbol errors.
    pub fn certified_correction_radius(&self) -> usize {
        (self.n_outer - self.k_outer) / 2
    }

    /// Decodes a received word of [`BinaryCode::output_bits`] bits,
    /// correcting any pattern of at most
    /// [`JustesenCode::certified_correction_radius`] bit flips, and
    /// returns the message repacked into `⌈input_bits/64⌉` words. Bits
    /// past `output_bits` are ignored.
    ///
    /// Inner decoding picks the nearest Wozencraft codeword `(x, αⁱ·x)`
    /// per position (Hamming cost; ties break to the smallest `x`); a
    /// block that already is one is its own unique nearest, so only
    /// corrupted blocks are searched. Outer decoding then goes through
    /// two tiers:
    ///
    /// 1. for `m ≤ 6`, if the symbols already form an RS codeword (all
    ///    syndromes zero), the message is their inverse DFT;
    /// 2. otherwise Berlekamp–Welch at the evaluation points
    ///    `α⁰ … α^{N−1}`.
    ///
    /// Berlekamp–Welch returns the message of the unique codeword within
    /// `⌊(N−K)/2⌋` symbols, so at symbol distance 0 it returns what tier
    /// 1 does: the result is the same function of `received` either way.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::WrongLength`] if `received` carries fewer
    /// than `output_bits` bits, and [`DecodeError::BeyondCapacity`]
    /// when the inner-decoded symbols are not within the outer code's
    /// error capacity of any codeword.
    pub fn decode(&self, received: &[u64]) -> Result<Vec<u64>, DecodeError> {
        let m = self.symbol_bits();
        if received.len() * 64 < self.output_bits() {
            return Err(DecodeError::WrongLength {
                expected: self.output_bits(),
                actual: received.len() * 64,
            });
        }
        let symbols = self.inner_decode(received);
        if let Some(message) = self
            .kernel()
            .and_then(|kernel| kernel.codeword_message(&symbols, m))
        {
            return Ok(message);
        }
        let points: Vec<u16> = (0..self.n_outer).map(|i| self.field.alpha_pow(i)).collect();
        let message = berlekamp_welch(&self.field, &points, &symbols, self.k_outer).ok_or(
            DecodeError::BeyondCapacity {
                capacity: self.certified_correction_radius(),
                unit: ErrorUnit::Bits,
            },
        )?;
        let mut out = vec![0u64; self.input_bits().div_ceil(64)];
        for (i, &s) in message.iter().enumerate() {
            set_bits(&mut out, i * m, m, s);
        }
        Ok(out)
    }

    /// The nearest Wozencraft codeword's `x` at every outer position.
    fn inner_decode(&self, received: &[u64]) -> Vec<u16> {
        let m = self.symbol_bits();
        (0..self.n_outer)
            .map(|i| {
                let y1 = get_bits(received, 2 * i * m, m);
                let y2 = get_bits(received, (2 * i + 1) * m, m);
                if self.field.mul_alpha_pow(y1, i) == y2 {
                    return y1;
                }
                let mult = self.field.alpha_pow(i);
                (0..self.field.size())
                    .map(|x| x as u16)
                    .min_by_key(|&x| {
                        (x ^ y1).count_ones() + (self.field.mul(mult, x) ^ y2).count_ones()
                    })
                    .expect("a field is non-empty")
            })
            .collect()
    }
}

/// Reads `count ≤ 16` little-endian bits starting at bit `start`.
fn get_bits(words: &[u64], start: usize, count: usize) -> u16 {
    let (w, off) = (start / 64, start % 64);
    let mut v = words[w] >> off;
    if off + count > 64 {
        v |= words[w + 1] << (64 - off);
    }
    (v & ((1 << count) - 1)) as u16
}

/// ORs the low `count ≤ 16` bits of `value` in at bit `start`.
fn set_bits(words: &mut [u64], start: usize, count: usize, value: u16) {
    let (w, off) = (start / 64, start % 64);
    let v = u64::from(value) & ((1 << count) - 1);
    words[w] |= v << off;
    if off + count > 64 {
        words[w + 1] |= v >> (64 - off);
    }
}

impl BinaryCode for JustesenCode {
    fn input_bits(&self) -> usize {
        self.k_outer * self.symbol_bits()
    }

    fn output_bits(&self) -> usize {
        2 * self.n_outer * self.symbol_bits()
    }

    /// Encodes by XOR-ing one precomputed codeword row per message
    /// symbol for `m ≤ 6` (the code is GF(2)-linear), and with Horner's
    /// rule per outer position above. Bits past `input_bits` are ignored.
    fn encode(&self, message: &[u64]) -> Vec<u64> {
        assert!(
            message.len() * 64 >= self.input_bits(),
            "message too short for {} bits",
            self.input_bits()
        );
        match self.kernel() {
            Some(kernel) => kernel.encode(message, self.k_outer, self.symbol_bits()),
            None => self.encode_horner(message),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{hamming_distance, sampled_min_distance};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn shapes() {
        let c = JustesenCode::new(8, 170);
        assert_eq!(c.outer_length(), 255);
        assert_eq!(c.input_bits(), 170 * 8);
        assert_eq!(c.output_bits(), 2 * 255 * 8);
        assert_eq!(c.certified_min_distance(), 86);
    }

    #[test]
    fn rate_one_third_is_close() {
        let c = JustesenCode::rate_one_third(8);
        assert!((c.rate() - 1.0 / 3.0).abs() < 0.01, "rate {}", c.rate());
    }

    #[test]
    fn zero_encodes_to_zero() {
        let c = JustesenCode::new(6, 20);
        let cw = c.encode(&vec![0u64; c.input_bits().div_ceil(64)]);
        assert!(cw.iter().all(|&w| w == 0));
    }

    #[test]
    fn encoding_is_linear() {
        let c = JustesenCode::new(6, 10);
        let words = c.input_bits().div_ceil(64);
        let mut rng = StdRng::seed_from_u64(1);
        let a: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
        let b: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
        let ab: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x ^ y).collect();
        let ca = c.encode(&a);
        let cb = c.encode(&b);
        let cab = c.encode(&ab);
        for i in 0..ca.len() {
            assert_eq!(cab[i], ca[i] ^ cb[i]);
        }
    }

    #[test]
    fn certified_distance_holds_on_random_pairs() {
        let c = JustesenCode::new(6, 21); // N=63, certified distance 43
        let words = c.input_bits().div_ceil(64);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let a: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
            let mut b = a.clone();
            b[0] ^= 1u64 << rng.gen_range(0..64u32);
            let d = hamming_distance(&c.encode(&a), &c.encode(&b), c.output_bits());
            assert!(
                d >= c.certified_min_distance(),
                "distance {d} below certified {}",
                c.certified_min_distance()
            );
        }
    }

    #[test]
    fn measured_distance_beats_certified() {
        // The ensemble argument: real distance is far above N-K+1 bits.
        let c = JustesenCode::rate_one_third(8);
        let mut rng = StdRng::seed_from_u64(3);
        let d = sampled_min_distance(&c, 200, &mut rng);
        assert!(
            d > 2 * c.certified_min_distance(),
            "sampled distance {d} not well above certified {}",
            c.certified_min_distance()
        );
    }

    #[test]
    fn wozencraft_pairing_structure() {
        // For a constant polynomial, position i holds (c, α^i·c): the
        // first half-symbol is constant, the second varies.
        let c = JustesenCode::new(4, 1);
        let msg = [0b0101u64]; // single symbol 5
        let cw = c.encode(&msg);
        let m = c.symbol_bits();
        let first = super::get_bits(&cw, 0, m);
        assert_eq!(first, 5);
        let mut paired_values = std::collections::HashSet::new();
        for i in 0..c.outer_length() {
            paired_values.insert(super::get_bits(&cw, (2 * i + 1) * m, m));
        }
        // α^i·5 takes every nonzero value exactly once over the period.
        assert_eq!(paired_values.len(), c.outer_length());
    }

    #[test]
    #[should_panic(expected = "outer dimension")]
    fn oversized_dimension_panics() {
        let _ = JustesenCode::new(4, 16);
    }

    #[test]
    fn decode_clean_round_trip() {
        let c = JustesenCode::rate_one_third(5); // N=31, K=20, radius 5
        assert_eq!(c.certified_correction_radius(), 5);
        let words = c.input_bits().div_ceil(64);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let mut msg: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
            // Mask bits past input_bits so the round trip is exact.
            let extra = words * 64 - c.input_bits();
            if extra > 0 {
                *msg.last_mut().unwrap() &= u64::MAX >> extra;
            }
            let cw = c.encode(&msg);
            assert_eq!(c.decode(&cw).expect("clean decode"), msg);
        }
    }

    #[test]
    fn decode_corrects_up_to_radius() {
        let c = JustesenCode::rate_one_third(5);
        let words = c.input_bits().div_ceil(64);
        let out_bits = c.output_bits();
        let mut rng = StdRng::seed_from_u64(12);
        for trial in 0..50 {
            let mut msg: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
            let extra = words * 64 - c.input_bits();
            if extra > 0 {
                *msg.last_mut().unwrap() &= u64::MAX >> extra;
            }
            let mut cw = c.encode(&msg);
            let t = rng.gen_range(1..=c.certified_correction_radius());
            let mut flipped = std::collections::HashSet::new();
            while flipped.len() < t {
                flipped.insert(rng.gen_range(0..out_bits));
            }
            for &bit in &flipped {
                cw[bit / 64] ^= 1u64 << (bit % 64);
            }
            assert_eq!(
                c.decode(&cw).unwrap_or_else(|e| panic!(
                    "trial {trial}: {t} flips within radius failed: {e}"
                )),
                msg
            );
        }
    }

    #[test]
    fn decode_rejects_overwhelming_corruption() {
        // Far beyond the radius the decoder must not silently return
        // the original message: it either fails or lands on a
        // different (nearer) codeword.
        let c = JustesenCode::rate_one_third(5);
        let words = c.input_bits().div_ceil(64);
        let mut rng = StdRng::seed_from_u64(13);
        let mut msg: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
        let extra = words * 64 - c.input_bits();
        if extra > 0 {
            *msg.last_mut().unwrap() &= u64::MAX >> extra;
        }
        let mut cw = c.encode(&msg);
        // Flip roughly half of all wire bits.
        for bit in (0..c.output_bits()).step_by(2) {
            cw[bit / 64] ^= 1u64 << (bit % 64);
        }
        match c.decode(&cw) {
            Err(e) => assert_eq!(e.capacity(), Some(c.certified_correction_radius())),
            Ok(decoded) => assert_ne!(decoded, msg),
        }
    }

    /// The decoder without the kernel or the inner-codeword shortcut:
    /// bit-by-bit reads, a brute-force inner search at every position and
    /// Berlekamp–Welch on every word. `decode` must agree with it on
    /// every input.
    fn reference_decode(c: &JustesenCode, received: &[u64]) -> Result<Vec<u64>, DecodeError> {
        let m = c.symbol_bits();
        if received.len() * 64 < c.output_bits() {
            return Err(DecodeError::WrongLength {
                expected: c.output_bits(),
                actual: received.len() * 64,
            });
        }
        let read = |start: usize| {
            (0..m).fold(0u16, |v, b| {
                let idx = start + b;
                v | (((received[idx / 64] >> (idx % 64)) & 1) as u16) << b
            })
        };
        let mut symbols = Vec::with_capacity(c.n_outer);
        for i in 0..c.n_outer {
            let (y1, y2) = (read(2 * i * m), read((2 * i + 1) * m));
            let mult = c.field.alpha_pow(i);
            let mut best = 0u16;
            let mut best_cost = usize::MAX;
            for x in 0..c.field.size() {
                let x = x as u16;
                let cost = (x ^ y1).count_ones() as usize
                    + (c.field.mul(mult, x) ^ y2).count_ones() as usize;
                if cost < best_cost {
                    best = x;
                    best_cost = cost;
                }
            }
            symbols.push(best);
        }
        let points: Vec<u16> = (0..c.n_outer).map(|i| c.field.alpha_pow(i)).collect();
        let message = berlekamp_welch(&c.field, &points, &symbols, c.k_outer).ok_or(
            DecodeError::BeyondCapacity {
                capacity: c.certified_correction_radius(),
                unit: ErrorUnit::Bits,
            },
        )?;
        let mut out = vec![0u64; c.input_bits().div_ceil(64)];
        for (i, &s) in message.iter().enumerate() {
            for b in 0..m {
                if (s >> b) & 1 == 1 {
                    let idx = i * m + b;
                    out[idx / 64] |= 1 << (idx % 64);
                }
            }
        }
        Ok(out)
    }

    /// Flips `t` distinct bits among the first `bits` of `word`.
    fn flip_distinct(word: &mut [u64], bits: usize, t: usize, rng: &mut StdRng) {
        let mut flipped = std::collections::HashSet::new();
        while flipped.len() < t.min(bits) {
            flipped.insert(rng.gen_range(0..bits));
        }
        for &bit in &flipped {
            word[bit / 64] ^= 1u64 << (bit % 64);
        }
    }

    /// A received word for `c` of one of six kinds: 0 clean, 1 within
    /// the certified radius, 2 between radius + 1 and 2·radius flips,
    /// 3 uniformly random, 4 garbage past `output_bits`, 5 an over-long
    /// slice. The encoded message carries garbage above `input_bits`.
    fn received_word(c: &JustesenCode, kind: u32, rng: &mut StdRng) -> Vec<u64> {
        let out_bits = c.output_bits();
        let radius = c.certified_correction_radius();
        let message: Vec<u64> = (0..c.input_bits().div_ceil(64))
            .map(|_| rng.gen())
            .collect();
        let mut word = c.encode(&message);
        match kind {
            0 => {}
            1 => flip_distinct(&mut word, out_bits, rng.gen_range(1..=radius.max(1)), rng),
            2 => {
                let t = rng.gen_range(radius + 1..=(2 * radius).max(radius + 1));
                flip_distinct(&mut word, out_bits, t, rng);
            }
            3 => word.iter_mut().for_each(|w| *w = rng.gen()),
            4 => {
                flip_distinct(&mut word, out_bits, rng.gen_range(0..=radius), rng);
                let live = out_bits % 64;
                if live != 0 {
                    *word.last_mut().expect("non-empty codeword") |= rng.gen::<u64>() << live;
                }
            }
            _ => {
                flip_distinct(&mut word, out_bits, rng.gen_range(0..=2 * radius), rng);
                let extra = rng.gen_range(1..=2);
                word.extend((0..extra).map(|_| rng.gen::<u64>()));
            }
        }
        word
    }

    /// The rate-1/3 instance or, half the time, a random dimension.
    fn instance(m: u32, k_pick: u64) -> JustesenCode {
        let n = (1usize << m) - 1;
        if k_pick & 1 == 0 {
            JustesenCode::rate_one_third(m)
        } else {
            JustesenCode::new(m, 1 + (k_pick / 2) as usize % n)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn decode_matches_reference(
            m in 2u32..=6,
            k_pick in any::<u64>(),
            kind in 0u32..6,
            seed in any::<u64>(),
        ) {
            let c = instance(m, k_pick);
            let word = received_word(&c, kind, &mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(c.decode(&word), reference_decode(&c, &word));
        }

        #[test]
        fn row_encode_matches_horner(
            m in 2u32..=6,
            k_pick in any::<u64>(),
            extra_words in 0usize..3,
            seed in any::<u64>(),
        ) {
            let c = instance(m, k_pick);
            let mut rng = StdRng::seed_from_u64(seed);
            let words = c.input_bits().div_ceil(64) + extra_words;
            let message: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
            prop_assert_eq!(c.encode(&message), c.encode_horner(&message));
        }
    }

    #[test]
    fn decode_matches_reference_exhaustively_on_tiny_words() {
        // m = 2: every 12-bit word, at every dimension.
        for k in 1..=3 {
            let c = JustesenCode::new(2, k);
            for word in 0..1u64 << c.output_bits() {
                assert_eq!(
                    c.decode(&[word]),
                    reference_decode(&c, &[word]),
                    "k={k} word={word:#x}"
                );
            }
        }
    }

    #[test]
    fn decode_matches_reference_without_kernel() {
        // m = 7 has no kernel: inner shortcut + Berlekamp–Welch only.
        let c = JustesenCode::rate_one_third(7);
        assert!(c.kernel().is_none());
        let mut rng = StdRng::seed_from_u64(14);
        for kind in 0..6 {
            let word = received_word(&c, kind, &mut rng);
            assert_eq!(c.decode(&word), reference_decode(&c, &word), "kind {kind}");
        }
    }

    #[test]
    fn kernels_are_shared_and_slots_distinct() {
        let a = JustesenCode::rate_one_third(5);
        let (ka, kb) = (a.kernel().unwrap(), a.clone().kernel().unwrap());
        assert!(std::ptr::eq(ka, kb));
        assert!(std::ptr::eq(
            ka,
            JustesenCode::rate_one_third(5).kernel().unwrap()
        ));
        assert!(!std::ptr::eq(
            ka,
            JustesenCode::new(5, 19).kernel().unwrap()
        ));
        let mut slots: Vec<usize> = (2..=KERNEL_MAX_M)
            .flat_map(|m| (1..1usize << m).map(move |k| kernel_offset(m) + k - 1))
            .collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..KERNELS.len()).collect::<Vec<_>>());
    }
}
