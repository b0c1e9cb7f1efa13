//! Regression tests for the panic-safety sweep: one test per bug fixed
//! in the sweep, written against public APIs so each fails (panics)
//! against the seed code and passes against the typed-error fixes.

use dut_core::montecarlo::{MonteCarlo, MonteCarloError};
use dut_distributions::exact::{paninski_all_distinct_probability, paninski_rejection_probability};
use dut_distributions::{DiscreteDistribution, DistributionError};
use dut_ecc::rs_decode::DecodeError;
use dut_ecc::{BinaryCode, GaloisField, JustesenCode};

/// Seed bug: `RsCode::decode` asserted the received length with
/// `assert_eq!` — adversarial wire input could panic the decoder.
#[test]
fn rs_decode_wrong_length_is_typed() {
    let field = GaloisField::new(6);
    let rs = dut_ecc::rs::RsCode::new(&field, 24, 8);
    let cw = rs.encode(&[1, 2, 3, 4, 5, 6, 7, 8]);
    let short = &cw[..cw.len() - 1];
    assert_eq!(
        rs.decode(short),
        Err(DecodeError::WrongLength {
            expected: 24,
            actual: 23,
        })
    );
}

/// Seed bug: `JustesenCode::decode` panicked (via the same assert
/// path) on truncated wire words.
#[test]
fn justesen_decode_wrong_length_is_typed() {
    let code = JustesenCode::rate_one_third(4);
    let message = vec![0xABu64; code.input_bits().div_ceil(64)];
    let mut word = code.encode(&message);
    word.pop();
    match code.decode(&word) {
        Err(DecodeError::WrongLength { expected, .. }) => {
            assert_eq!(expected, code.output_bits());
        }
        other => panic!("expected WrongLength, got {other:?}"),
    }
}

/// Seed bug: `poly_div` panicked on a zero divisor polynomial, which a
/// degenerate Berlekamp–Welch solution can produce on garbage input.
/// Externally: heavily corrupted words must decode to a typed error,
/// never panic, for every corruption pattern.
#[test]
fn rs_decode_is_total_on_garbage() {
    let field = GaloisField::new(5);
    let rs = dut_ecc::rs::RsCode::new(&field, 20, 4);
    // All-same-symbol words and high-weight patterns drive the solver
    // into its degenerate corners.
    for s in 0..32u16 {
        let word = vec![s; 20];
        let _ = rs.decode(&word); // must return, Ok or Err
    }
}

/// Seed bug: `DiscreteDistribution::from_weights` accepted weight
/// vectors whose *sum* overflows to `+inf` (each entry individually
/// finite), then panicked inside the alias-table constructor.
#[test]
fn from_weights_overflowing_sum_is_typed() {
    let err = DiscreteDistribution::from_weights(vec![f64::MAX, f64::MAX]).unwrap_err();
    match err {
        DistributionError::NotNormalized { sum } => assert!(sum.is_infinite()),
        other => panic!("expected NotNormalized, got {other:?}"),
    }
}

/// Companion: individually non-finite weights were already typed in the
/// seed; the fix must not regress them.
#[test]
fn from_weights_non_finite_entries_stay_typed() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
        let err = DiscreteDistribution::from_weights(vec![1.0, bad]).unwrap_err();
        assert!(
            matches!(err, DistributionError::InvalidMass { index: 1, .. }),
            "weight {bad}: got {err:?}"
        );
    }
}

/// Seed bug: the Monte-Carlo estimator panicked (`assert!`) on
/// `trials == 0` instead of returning a typed error.
#[test]
fn zero_trials_is_typed() {
    assert_eq!(
        MonteCarlo::new(0, 7).run(|_| false).unwrap_err(),
        MonteCarloError::ZeroTrials
    );
}

/// Seed bug: a panicking trial closure unwound through the scoped
/// thread shim, which replaced the payload with a generic "a scoped
/// thread panicked" — the original diagnostic was lost.
#[test]
fn trial_panic_payload_survives() {
    let caught = std::panic::catch_unwind(|| {
        let _ = MonteCarlo::new(64, 3).run(|_| panic!("testkit payload 0xCAFE"));
    })
    .expect_err("trials panic");
    let msg = caught
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| caught.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("testkit payload 0xCAFE"),
        "payload lost: {msg:?}"
    );
}

/// Seed bug: `paninski_all_distinct_probability` panicked on `s == 0`
/// (vacuously all-distinct) and on ε a few ulps outside `[0, 1]` — the
/// kind of value `1/⌈1/ε⌉`-style experiment planning produces.
#[test]
fn paninski_edges_are_total() {
    assert_eq!(paninski_all_distinct_probability(100, 0.5, 0), 1.0);
    assert_eq!(paninski_rejection_probability(100, 0.5, 0), 0.0);
    // Endpoint rounding slop snaps instead of panicking.
    let snapped = paninski_all_distinct_probability(20, 1.0 + 1e-12, 5);
    assert_eq!(snapped, paninski_all_distinct_probability(20, 1.0, 5));
    let snapped = paninski_all_distinct_probability(20, -1e-13, 5);
    assert_eq!(snapped, paninski_all_distinct_probability(20, 0.0, 5));
}

/// The snap is slop-tolerance, not a clamp: genuinely out-of-range ε is
/// still a caller bug and still panics.
#[test]
fn paninski_rejects_real_out_of_range_epsilon() {
    let caught = std::panic::catch_unwind(|| paninski_all_distinct_probability(20, 1.5, 5));
    assert!(caught.is_err());
}
