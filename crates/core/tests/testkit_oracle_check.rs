//! Monte-Carlo estimates from `dut-core` cross-checked against the
//! exact combinatorial oracles in `dut-testkit`.

use dut_core::montecarlo::MonteCarlo;
use dut_distributions::DiscreteDistribution;
use dut_testkit::oracles::all_distinct_probability;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The 95% Wilson interval from a large simulated run must cover the
/// exact collision probability computed by the elementary-symmetric
/// oracle (with a small slack for the 1-in-20 interval miss).
#[test]
fn wilson_interval_covers_exact_collision_probability() {
    let masses = vec![0.4, 0.3, 0.2, 0.1];
    let s = 3;
    let exact_fail = 1.0 - all_distinct_probability(&masses, s);
    let dist = DiscreteDistribution::from_pmf(masses).expect("valid pmf");

    let trials = 20_000;
    let est = MonteCarlo::new(trials, 0x0C0D_E001)
        .run(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut seen = [false; 4];
            (0..s).any(|_| {
                let x = dist.sample(&mut rng);
                std::mem::replace(&mut seen[x], true)
            })
        })
        .expect("trials > 0");

    let slack = 3.0 * (exact_fail * (1.0 - exact_fail) / trials as f64).sqrt();
    assert!(
        est.lower - slack <= exact_fail && exact_fail <= est.upper + slack,
        "exact rate {exact_fail} outside widened interval [{}, {}]",
        est.lower,
        est.upper
    );
}

/// Estimates are a pure function of `(trials, base_seed)` — worker
/// scheduling must not leak into the statistics.
#[test]
fn estimates_are_deterministic_in_the_base_seed() {
    let run = || {
        MonteCarlo::new(4_096, 0x0C0D_E002)
            .run(|seed| seed.wrapping_mul(2_654_435_761) % 5 == 0)
            .expect("trials > 0")
    };
    let a = run();
    let b = run();
    assert_eq!(a.rate, b.rate);
    assert_eq!(a.lower, b.lower);
    assert_eq!(a.upper, b.upper);
}
