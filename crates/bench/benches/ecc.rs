//! Criterion bench: code construction and encoding (E8 substrate).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dut_ecc::{BinaryCode, JustesenCode, RandomLinearCode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_encoding(c: &mut Criterion) {
    let mut group = c.benchmark_group("ecc_encode");
    for &k in &[256usize, 4096] {
        let linear = RandomLinearCode::rate_one_third(k, 15);
        let words = k.div_ceil(64);
        let mut rng = StdRng::seed_from_u64(16);
        let msg: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
        group.bench_with_input(BenchmarkId::new("random_linear", k), &k, |b, _| {
            b.iter(|| black_box(linear.encode(&msg)))
        });
    }
    let justesen = JustesenCode::rate_one_third(8);
    let words = justesen.input_bits().div_ceil(64);
    let mut rng = StdRng::seed_from_u64(17);
    let msg: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
    group.bench_function("justesen_m8", |b| {
        b.iter(|| black_box(justesen.encode(&msg)))
    });
    group.finish();
}

fn bench_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("ecc_construct");
    group.bench_function("random_linear_4096", |b| {
        b.iter(|| black_box(RandomLinearCode::rate_one_third(4096, 18)))
    });
    group.bench_function("justesen_m10", |b| {
        b.iter(|| black_box(JustesenCode::rate_one_third(10)))
    });
    group.finish();
}

/// The CONGEST message codec's instance (`m = 5`, rate 1/3): encode,
/// and decode of a clean word, a 1-flip word and a word flipped at the
/// certified radius (5 bits, spread over distinct inner blocks).
fn bench_codec_m5(c: &mut Criterion) {
    let mut group = c.benchmark_group("justesen_codec_m5");
    let code = JustesenCode::rate_one_third(5);
    let mut rng = StdRng::seed_from_u64(19);
    let mut msg: Vec<u64> = (0..code.input_bits().div_ceil(64))
        .map(|_| rng.gen())
        .collect();
    let live = code.input_bits() % 64;
    if live != 0 {
        *msg.last_mut().expect("non-empty message") &= (1u64 << live) - 1;
    }
    let clean = code.encode(&msg);
    let flipped = |bits: &[usize]| {
        let mut word = clean.clone();
        for &bit in bits {
            word[bit / 64] ^= 1u64 << (bit % 64);
        }
        assert_eq!(
            code.decode(&word).expect("within radius"),
            (msg.clone(), bits.len())
        );
        word
    };
    let one_flip = flipped(&[37]);
    let radius = code.certified_correction_radius();
    let at_radius = flipped(&(0..radius).map(|i| 61 * i + 3).collect::<Vec<_>>());
    group.bench_function("encode", |b| b.iter(|| black_box(code.encode(&msg))));
    for (name, word) in [
        ("decode_clean", &clean),
        ("decode_1_flip", &one_flip),
        ("decode_at_radius", &at_radius),
    ] {
        group.bench_function(name, |b| b.iter(|| black_box(code.decode(word))));
    }
    group.finish();
}

criterion_group!(benches, bench_encoding, bench_construction, bench_codec_m5);
criterion_main!(benches);
