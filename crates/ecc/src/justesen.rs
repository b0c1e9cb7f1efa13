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
use crate::rs_decode::{DecodeError, ErrorUnit};
use crate::BinaryCode;
use std::sync::OnceLock;

/// Largest symbol size `m` whose instances get a [`Kernel`]. It covers
/// every instance the message codecs use (`m = 5, 6`); larger codes keep
/// the table-free paths and their construction cost.
const KERNEL_MAX_M: u32 = 6;

/// Words of the longest codeword with a kernel: `2·(2^m − 1)·m` bits at
/// `m = KERNEL_MAX_M`.
const KERNEL_CODEWORD_WORDS: usize =
    (2 * ((1 << KERNEL_MAX_M) - 1) * KERNEL_MAX_M as usize).div_ceil(64);

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
    /// Row `(i, s)` is [`JustesenCode::xor_decode_row`] of `s` at
    /// position `i`.
    decode_table: Vec<u64>,
    codeword_words: usize,
}

impl Kernel {
    fn build(code: &JustesenCode) -> Kernel {
        let (n, m) = (code.n_outer, code.symbol_bits());
        let codeword_words = code.output_bits().div_ceil(64);
        let decode_words = code.decode_words();
        let mut codeword_rows = Vec::with_capacity(code.input_bits() * codeword_words);
        let mut unit = vec![0u64; code.message_words()];
        for b in 0..code.input_bits() {
            unit[b / 64] = 1 << (b % 64);
            codeword_rows.extend(code.encode_horner(&unit));
            unit[b / 64] = 0;
        }
        let mut decode_rows = vec![0u64; n * m * decode_words];
        for (row, out) in decode_rows.chunks_exact_mut(decode_words).enumerate() {
            code.xor_decode_row(out, row / m, 1 << (row % m));
        }
        Kernel {
            codeword_table: by_symbol(&codeword_rows, m, codeword_words),
            decode_table: by_symbol(&decode_rows, m, decode_words),
            codeword_words,
        }
    }

    /// Encodes the `K` symbols in the low `K·m` bits of `message` into
    /// `out`, [`Kernel::codeword_words`] words long and zeroed.
    fn encode_into(&self, message: &[u64], k: usize, m: usize, out: &mut [u64]) {
        for l in 0..k {
            let row = (l << m) | get_bits(message, l * m, m) as usize;
            xor_row(out, &self.codeword_table, row);
        }
    }

    /// Whether `received` is exactly a codeword of `code`; if so its
    /// message is left in `message` (`⌈input_bits/64⌉` words, zeroed on
    /// entry).
    ///
    /// The `x`-halves of a codeword's inner blocks are its outer RS
    /// symbols, whose inverse DFT (the message part of the decode rows)
    /// is the message. So the word is a codeword iff re-encoding that
    /// candidate message reproduces its first `output_bits` bits.
    fn clean_message(&self, code: &JustesenCode, received: &[u64], message: &mut [u64]) -> bool {
        let m = code.symbol_bits();
        let width = code.decode_words();
        for i in 0..code.n_outer {
            let row = ((i << m) | get_bits(received, 2 * i * m, m) as usize) * width;
            let row = &self.decode_table[row..row + message.len()];
            for (a, &r) in message.iter_mut().zip(row) {
                *a ^= r;
            }
        }
        let mut codeword = [0u64; KERNEL_CODEWORD_WORDS];
        let codeword = &mut codeword[..self.codeword_words];
        self.encode_into(message, code.k_outer, m, codeword);
        let bits = code.output_bits();
        let (full, tail) = (bits / 64, bits % 64);
        codeword[..full] == received[..full]
            && (tail == 0 || (codeword[full] ^ received[full]) & ((1 << tail) - 1) == 0)
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

    /// Horner evaluation at `x` of the polynomial with coefficients
    /// `coeffs`, low order first.
    fn eval(&self, coeffs: &[u16], x: u16) -> u16 {
        let mut acc = 0u16;
        for &c in coeffs.iter().rev() {
            acc = self.field.add(self.field.mul(acc, x), c);
        }
        acc
    }

    /// Encodes symbol by symbol: outer RS evaluation at `α^0 … α^{N−1}`,
    /// inner Wozencraft map `x ↦ (x, αⁱ·x)` at position `i`.
    fn encode_horner(&self, message: &[u64]) -> Vec<u64> {
        let m = self.symbol_bits();
        let symbols: Vec<u16> = (0..self.k_outer)
            .map(|i| get_bits(message, i * m, m) as u16)
            .collect();
        let mut out = vec![0u64; self.output_bits().div_ceil(64)];
        for i in 0..self.n_outer {
            let point = self.field.alpha_pow(i);
            let c = self.eval(&symbols, point);
            xor_bits(&mut out, 2 * i * m, m, c);
            xor_bits(&mut out, (2 * i + 1) * m, m, self.field.mul(point, c));
        }
        out
    }

    /// The certified correction radius in wire *bits*: `⌊(N−K)/2⌋`.
    ///
    /// Any pattern of at most this many bit flips is corrected by
    /// [`JustesenCode::decode`]: each flip lands in exactly one inner
    /// block, so `t` flips corrupt at most `t` inner blocks; each
    /// corrupted block yields at most one wrong outer symbol after
    /// nearest-codeword inner decoding; and the outer syndrome decoder
    /// corrects up to `⌊(N−K)/2⌋` outer symbol errors.
    pub fn certified_correction_radius(&self) -> usize {
        (self.n_outer - self.k_outer) / 2
    }

    /// Decodes a received word of [`BinaryCode::output_bits`] bits,
    /// correcting any pattern of at most
    /// [`JustesenCode::certified_correction_radius`] bit flips. Returns
    /// the message repacked into `⌈input_bits/64⌉` words, and the number
    /// of bits among the first `output_bits` of `received` that differ
    /// from the decoded codeword (the corrected bits). Bits past
    /// `output_bits` are ignored.
    ///
    /// Inner decoding picks the nearest Wozencraft codeword `(x, αⁱ·x)`
    /// per position (Hamming cost; ties break to the smallest `x`); a
    /// block that already is one is its own unique nearest, so only
    /// corrupted blocks are searched. Outer decoding works on the
    /// syndromes `S_1 … S_{N−K}`, computed together with the inverse DFT
    /// of the symbols (from the kernel table for `m ≤ 6`, row by row
    /// above):
    ///
    /// 1. if every syndrome is zero, the symbols are an RS codeword and
    ///    the message is their inverse DFT;
    /// 2. otherwise Berlekamp–Massey over `S_1 … S_{2t}` gives the error
    ///    locator `Λ`, a Chien search over `α⁰ … α^{N−1}` its roots and
    ///    Forney's formula the error values. The corrections are XOR-ed
    ///    into the syndromes and the inverse DFT, and the word is
    ///    accepted only if `deg Λ ≤ t` equals its number of distinct
    ///    roots, every error value is nonzero and all `N−K` syndromes of
    ///    the corrected symbols are zero.
    ///
    /// The result is the unique RS codeword within `t = ⌊(N−K)/2⌋`
    /// symbols of the inner-decoded word, or an error if there is none:
    /// the same function of `received` as any other bounded-distance
    /// decoder of that radius, Berlekamp–Welch included.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::WrongLength`] if `received` carries fewer
    /// than `output_bits` bits, and [`DecodeError::BeyondCapacity`]
    /// when the inner-decoded symbols are not within the outer code's
    /// error capacity of any codeword.
    ///
    /// For `m ≤ 6` the decoder first tries the clean-word path: the
    /// inverse DFT of the blocks' `x`-halves is the message if the word
    /// is a codeword, which re-encoding checks. A clean word returns with
    /// 0 corrected bits, which is what the syndrome decoder returns for
    /// it.
    pub fn decode(&self, received: &[u64]) -> Result<(Vec<u64>, usize), DecodeError> {
        if received.len() * 64 < self.output_bits() {
            return Err(DecodeError::WrongLength {
                expected: self.output_bits(),
                actual: received.len() * 64,
            });
        }
        let kernel = self.kernel();
        let message_words = self.message_words();
        let mut acc = vec![0u64; self.decode_words()];
        if kernel.is_some_and(|k| k.clean_message(self, received, &mut acc[..message_words])) {
            acc.truncate(message_words);
            return Ok((acc, 0));
        }
        acc[..message_words].fill(0);
        let mut corrected = 0;
        for i in 0..self.n_outer {
            let (symbol, cost) = self.inner_decode(self.block(received, i), i);
            corrected += cost;
            self.xor_row_of(kernel, &mut acc, i, symbol);
        }
        if acc[message_words..].iter().any(|&w| w != 0) {
            let m = self.symbol_bits();
            let syndromes: Vec<u16> = (0..self.n_outer - self.k_outer)
                .map(|j| get_bits(&acc[message_words..], j * m, m) as u16)
                .collect();
            let beyond = DecodeError::BeyondCapacity {
                capacity: self.certified_correction_radius(),
                unit: ErrorUnit::Bits,
            };
            let Some(errors) = self.locate_errors(&syndromes) else {
                return Err(beyond);
            };
            for (i, value) in errors {
                // Re-price block i against the corrected symbol.
                let block = self.block(received, i);
                let (symbol, cost) = self.inner_decode(block, i);
                corrected = corrected + self.block_cost(block, i, symbol ^ value) - cost;
                self.xor_row_of(kernel, &mut acc, i, value);
            }
            if acc[message_words..].iter().any(|&w| w != 0) {
                return Err(beyond);
            }
        }
        acc.truncate(message_words);
        Ok((acc, corrected))
    }

    /// The nearest Wozencraft codeword's `x` to inner block `i`, and its
    /// Hamming cost.
    fn inner_decode(&self, block: (u16, u16), i: usize) -> (u16, usize) {
        if self.field.mul_alpha_pow(block.0, i) == block.1 {
            return (block.0, 0);
        }
        let (cost, x) = (0..self.field.size())
            .map(|x| (self.block_cost(block, i, x as u16), x as u16))
            .min()
            .expect("a field is non-empty");
        (x, cost)
    }

    /// The two `m`-bit halves of inner block `i` of `received`.
    fn block(&self, received: &[u64], i: usize) -> (u16, u16) {
        let m = self.symbol_bits();
        // One read of both halves: 2m ≤ 32 bits.
        let pair = get_bits(received, 2 * i * m, 2 * m);
        ((pair & ((1 << m) - 1)) as u16, (pair >> m) as u16)
    }

    /// Hamming distance from `block` to the inner codeword `(x, αⁱ·x)`.
    fn block_cost(&self, (y1, y2): (u16, u16), i: usize, x: u16) -> usize {
        ((x ^ y1).count_ones() + (self.field.mul_alpha_pow(x, i) ^ y2).count_ones()) as usize
    }

    /// Words of a packed message: `⌈input_bits/64⌉`.
    fn message_words(&self) -> usize {
        self.input_bits().div_ceil(64)
    }

    /// Words of a decode row: the packed message, then the `N−K`
    /// syndromes of `m` bits each.
    fn decode_words(&self) -> usize {
        self.message_words() + ((self.n_outer - self.k_outer) * self.symbol_bits()).div_ceil(64)
    }

    /// XORs into `acc` the decode row of the outer word whose only
    /// nonzero symbol is `value` at position `i`: its inverse DFT
    /// `f_0 … f_{K−1}` packed as a message in the first
    /// [`JustesenCode::message_words`] words, then `S_1 … S_{N−K}`.
    fn xor_decode_row(&self, acc: &mut [u64], i: usize, value: u16) {
        let (field, n, m) = (&self.field, self.n_outer, self.symbol_bits());
        let (message, syndromes) = acc.split_at_mut(self.message_words());
        for l in 0..self.k_outer {
            // α^{−il} = α^{N² − il}, as i·l < N².
            let v = field.mul(value, field.alpha_pow(n * n - i * l));
            xor_bits(message, l * m, m, v);
        }
        for j in 1..=n - self.k_outer {
            xor_bits(
                syndromes,
                (j - 1) * m,
                m,
                field.mul(value, field.alpha_pow(i * j)),
            );
        }
    }

    /// [`JustesenCode::xor_decode_row`], read from the kernel table when
    /// there is one.
    fn xor_row_of(&self, kernel: Option<&Kernel>, acc: &mut [u64], i: usize, value: u16) {
        match kernel {
            Some(kernel) => xor_row(
                acc,
                &kernel.decode_table,
                (i << self.symbol_bits()) | usize::from(value),
            ),
            None if value != 0 => self.xor_decode_row(acc, i, value),
            None => {}
        }
    }

    /// The error pattern of at most `t = ⌊(N−K)/2⌋` symbols whose
    /// syndromes begin with `syndromes[..2t]`, as `(position, value)`
    /// pairs; `None` if Berlekamp–Massey's locator has degree above `t`
    /// or fewer distinct roots than its degree, or an error value is
    /// zero. The caller checks the remaining syndromes.
    fn locate_errors(&self, syndromes: &[u16]) -> Option<Vec<(usize, u16)>> {
        let (field, n, t) = (
            &self.field,
            self.n_outer,
            self.certified_correction_radius(),
        );
        let s = &syndromes[..2 * t];
        // Berlekamp–Massey: the shortest Λ (Λ_0 = 1, degree ≤ len) with
        // Σ_{j ≤ len} Λ_j·S_{r+1−j} = 0 for len ≤ r < 2t.
        let mut lambda = vec![0u16; 2 * t + 1];
        lambda[0] = 1;
        let mut prev = lambda.clone();
        let (mut len, mut shift, mut prev_d) = (0, 1, 1);
        for r in 0..2 * t {
            let d = (0..=len).fold(0, |d, j| d ^ field.mul(lambda[j], s[r - j]));
            if d == 0 {
                shift += 1;
                continue;
            }
            let coef = field.div(d, prev_d);
            let before = (2 * len <= r).then(|| lambda.clone());
            for (j, &p) in prev[..=2 * t - shift].iter().enumerate() {
                lambda[j + shift] ^= field.mul(coef, p);
            }
            match before {
                Some(before) => {
                    (len, prev, prev_d, shift) = (r + 1 - len, before, d, 1);
                }
                None => shift += 1,
            }
        }
        if len > t {
            return None;
        }
        let lambda = &lambda[..=len];
        // Chien search: position i is in error iff Λ(α^{−i}) = 0.
        let roots: Vec<usize> = (0..n)
            .filter(|&i| self.eval(lambda, field.alpha_pow(n - i)) == 0)
            .collect();
        // With `len` distinct roots Λ is squarefree, so Λ' is nonzero at
        // every root and Forney's division below is defined.
        if roots.len() != len {
            return None;
        }
        // Forney (first syndrome exponent 1): Yᵢ = Ω(X⁻¹)/Λ'(X⁻¹) with
        // Ω = S·Λ mod x^{2t} and Λ' the formal derivative, whose
        // even-degree terms vanish in characteristic 2.
        let omega: Vec<u16> = (0..2 * t)
            .map(|r| (0..=r.min(len)).fold(0, |o, j| o ^ field.mul(lambda[j], s[r - j])))
            .collect();
        let derivative: Vec<u16> = (1..=len)
            .map(|j| if j % 2 == 1 { lambda[j] } else { 0 })
            .collect();
        roots
            .into_iter()
            .map(|i| {
                let x = field.alpha_pow(n - i);
                let value = field.div(self.eval(&omega, x), self.eval(&derivative, x));
                (value != 0).then_some((i, value))
            })
            .collect()
    }
}

/// Reads `count ≤ 32` little-endian bits starting at bit `start`.
fn get_bits(words: &[u64], start: usize, count: usize) -> u32 {
    let (w, off) = (start / 64, start % 64);
    let mut v = words[w] >> off;
    if off + count > 64 {
        v |= words[w + 1] << (64 - off);
    }
    (v & ((1 << count) - 1)) as u32
}

/// XORs the low `count ≤ 16` bits of `value` in at bit `start`.
fn xor_bits(words: &mut [u64], start: usize, count: usize, value: u16) {
    let (w, off) = (start / 64, start % 64);
    let v = u64::from(value) & ((1 << count) - 1);
    words[w] ^= v << off;
    if off + count > 64 {
        words[w + 1] ^= v >> (64 - off);
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
            Some(kernel) => {
                let mut out = vec![0u64; kernel.codeword_words];
                kernel.encode_into(message, self.k_outer, self.symbol_bits(), &mut out);
                out
            }
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
            assert_eq!(c.decode(&cw).expect("clean decode"), (msg, 0));
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
                (msg, t)
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
            Ok((decoded, _)) => assert_ne!(decoded, msg),
        }
    }

    /// The decoder without the kernel or the inner-codeword shortcut:
    /// bit-by-bit reads, a brute-force inner search at every position,
    /// Berlekamp–Welch on every word, and the corrected-bit count as the
    /// Hamming distance to the Horner re-encoding of the message.
    /// `decode` must agree with it on every input.
    fn reference_decode(
        c: &JustesenCode,
        received: &[u64],
    ) -> Result<(Vec<u64>, usize), DecodeError> {
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
        let message = crate::rs_decode::berlekamp_welch(&c.field, &points, &symbols, c.k_outer)
            .ok_or(DecodeError::BeyondCapacity {
                capacity: c.certified_correction_radius(),
                unit: ErrorUnit::Bits,
            })?;
        let mut out = vec![0u64; c.input_bits().div_ceil(64)];
        for (i, &s) in message.iter().enumerate() {
            for b in 0..m {
                if (s >> b) & 1 == 1 {
                    let idx = i * m + b;
                    out[idx / 64] |= 1 << (idx % 64);
                }
            }
        }
        let distance = hamming_distance(received, &c.encode_horner(&out), c.output_bits());
        Ok((out, distance))
    }

    /// `decode(received)` equals the reference, and a decoded word's
    /// count is the distance from `received[..output_bits]` to the
    /// encoding of its message.
    fn check_decode(c: &JustesenCode, received: &[u64]) -> Result<(), String> {
        let decoded = c.decode(received);
        if let Ok((message, count)) = &decoded {
            let distance = hamming_distance(received, &c.encode(message), c.output_bits());
            if *count != distance {
                return Err(format!("count {count} != distance {distance}"));
            }
        }
        let reference = reference_decode(c, received);
        if decoded != reference {
            return Err(format!("decode {decoded:?} != reference {reference:?}"));
        }
        Ok(())
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
            prop_assert_eq!(check_decode(&c, &word), Ok(()));
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
                assert_eq!(check_decode(&c, &[word]), Ok(()), "k={k} word={word:#x}");
            }
        }
    }

    #[test]
    fn decode_matches_reference_without_kernel() {
        // m > 6 has no kernel: the decode rows are computed per symbol.
        // At m = 9 an inner block is 18 bits wide.
        for m in [7, 9] {
            let c = JustesenCode::rate_one_third(m);
            assert!(c.kernel().is_none());
            let mut rng = StdRng::seed_from_u64(14);
            for kind in 0..6 {
                let word = received_word(&c, kind, &mut rng);
                assert_eq!(check_decode(&c, &word), Ok(()), "m={m} kind {kind}");
            }
        }
    }

    #[test]
    fn decode_matches_reference_on_random_small_words() {
        // Uniformly random words at m = 3, 4 and every dimension: most
        // lie beyond the radius, where the locator's degree, its roots
        // and the syndromes decide between a codeword and a failure.
        let mut rng = StdRng::seed_from_u64(17);
        for m in 3..=4 {
            for k in 1..1usize << m {
                let c = JustesenCode::new(m, k);
                for _ in 0..2_000 {
                    let word = [rng.gen::<u64>()];
                    assert_eq!(
                        check_decode(&c, &word),
                        Ok(()),
                        "m={m} k={k} word={word:x?}"
                    );
                }
            }
        }
    }

    #[test]
    fn decode_matches_reference_on_every_one_and_two_bit_flip() {
        // m = 5 at rate 1/3: 310 one-bit and 47,895 two-bit patterns.
        let c = JustesenCode::rate_one_third(5);
        let bits = c.output_bits();
        let mut rng = StdRng::seed_from_u64(15);
        let mut message: Vec<u64> = (0..c.message_words()).map(|_| rng.gen()).collect();
        message[1] &= (1u64 << (c.input_bits() - 64)) - 1;
        let clean = c.encode(&message);
        let flip = |word: &mut [u64], bit: usize| word[bit / 64] ^= 1u64 << (bit % 64);
        let mut words = 0;
        for a in 0..bits {
            let mut word = clean.clone();
            flip(&mut word, a);
            for b in a..bits {
                if b != a {
                    flip(&mut word, b);
                }
                let flips = 1 + usize::from(b != a);
                assert_eq!(check_decode(&c, &word), Ok(()), "flips at {a} and {b}");
                assert_eq!(c.decode(&word), Ok((message.clone(), flips)));
                if b != a {
                    flip(&mut word, b);
                }
                words += 1;
            }
        }
        assert_eq!(words, 48_205);
    }

    #[test]
    fn decode_checks_every_syndrome_at_odd_redundancy() {
        // At m = 5, K = 20, N − K = 11 is odd and Berlekamp–Massey reads
        // only S_1 … S_10. A codeword of the K = 21 code has those ten
        // syndromes zero but S_11 nonzero, and lies at least 11 symbols
        // from every K = 20 codeword: with up to 5 flips on top, the
        // locator finds the flips, and only the check of S_11 rejects.
        let (c, wider) = (JustesenCode::new(5, 20), JustesenCode::new(5, 21));
        let mut rng = StdRng::seed_from_u64(16);
        for flips in 0..=c.certified_correction_radius() {
            for _ in 0..8 {
                let mut message: Vec<u64> = (0..wider.message_words()).map(|_| rng.gen()).collect();
                message[1] |= 1 << (20 * 5 - 64); // symbol 20 is nonzero
                let mut word = wider.encode(&message);
                flip_distinct(&mut word, c.output_bits(), flips, &mut rng);
                let beyond = Err(DecodeError::BeyondCapacity {
                    capacity: 5,
                    unit: ErrorUnit::Bits,
                });
                assert_eq!(c.decode(&word), beyond, "{flips} flips");
                assert_eq!(reference_decode(&c, &word), beyond, "{flips} flips");
            }
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
