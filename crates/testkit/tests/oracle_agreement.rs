//! Oracle-agreement suite: the testkit's independent reference oracles
//! against the production closed forms and Monte-Carlo estimators.
//!
//! Three independent implementations of the single-collision failure
//! law are triangulated: the exhaustive tuple enumeration (tiny cases),
//! the elementary-symmetric DP on explicit pmfs, and the log-space
//! binomial closed form in `dut_distributions::exact` (pair families
//! only). On top, `MonteCarlo`'s Wilson intervals are
//! checked against the exact rates they estimate.

use dut_core::decision::Decision;
use dut_core::gap::GapTester;
use dut_core::montecarlo::{trial_rng, MonteCarlo};
use dut_distributions::collision::collision_probability;
use dut_distributions::distance::l1_to_uniform;
use dut_distributions::exact::paninski_all_distinct_probability;
use dut_distributions::families::paninski_far;
use dut_distributions::DiscreteDistribution;
use dut_testkit::oracles;
use dut_testkit::strategies;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// DP oracle == exhaustive enumeration on tiny random pmfs.
    #[test]
    fn dp_matches_exhaustive(p in strategies::pmf(2, 7), s in 0usize..6) {
        let dp = oracles::all_distinct_probability(&p, s);
        let brute = oracles::all_distinct_probability_exhaustive(&p, s);
        prop_assert!((dp - brute).abs() < 1e-10, "dp {dp} vs brute {brute}");
    }

    /// DP oracle on the explicit Paninski pmf == the production
    /// log-space closed form (which never sees the pmf).
    #[test]
    fn dp_matches_paninski_closed_form(
        half in 4usize..100,
        eps in 0.0f64..=1.0,
        s in 0usize..30,
    ) {
        let n = 2 * half;
        let closed = paninski_all_distinct_probability(n, eps, s);
        let d = paninski_far(n, eps).unwrap();
        let dp = oracles::all_distinct_probability(d.pmf_slice(), s);
        prop_assert!(
            (closed - dp).abs() < 1e-9,
            "n={n} eps={eps} s={s}: closed {closed} vs dp {dp}"
        );
    }

    /// Reference L1/χ agree with the production implementations on
    /// arbitrary valid pmfs.
    #[test]
    fn reference_distances_agree(p in strategies::pmf(1, 64)) {
        let d = DiscreteDistribution::from_pmf(p.clone()).unwrap();
        let l1 = oracles::l1_to_uniform(&p);
        prop_assert!((l1 - l1_to_uniform(&d)).abs() < 1e-12);
        let chi = oracles::collision_chi(&p);
        prop_assert!((chi - collision_probability(&d)).abs() < 1e-12);
    }

    /// Far-family instances drawn from the shared strategy really are
    /// far: their exact collision probability χ meets the paper's
    /// Lemma 3.2 bound χ ≥ (1 + ε²)/n within tolerance.
    #[test]
    fn far_family_chi_meets_lemma_3_2(fi in strategies::far_instance(64)) {
        let (family, n, eps) = fi;
        let d = family.instantiate(n, eps).unwrap();
        let chi = oracles::collision_chi(d.pmf_slice());
        let bound = (1.0 + eps * eps) / n as f64;
        prop_assert!(chi >= bound - 1e-12, "{}: chi {chi} < bound {bound}", family.name());
    }
}

/// The gap tester's Monte-Carlo failure rate, as reported by
/// `MonteCarlo`, sits on the exact oracle rate — on both the
/// uniform (completeness) and far (soundness) side. A 5σ + 1e-2 window
/// around a deterministic seeded estimate never flakes while still
/// catching systematic estimator or oracle bias.
#[test]
fn wilson_estimates_cover_exact_oracle_rates() {
    let n = 512;
    let eps = 0.8;
    let trials = 4_000;
    let tester = GapTester::new(n, 0.05).unwrap();
    let s = tester.samples();

    let uniform = DiscreteDistribution::uniform(n);
    let exact_reject = oracles::rejection_probability(uniform.pmf_slice(), s);
    let est = MonteCarlo::new(trials, 11)
        .run(|seed| tester.run(&uniform, &mut trial_rng(seed)) == Decision::Reject)
        .unwrap();
    let sigma = (exact_reject * (1.0 - exact_reject) / trials as f64).sqrt();
    assert!(
        (est.rate - exact_reject).abs() < 5.0 * sigma + 1e-2,
        "uniform: MC {} vs exact {exact_reject}",
        est.rate
    );

    let far = paninski_far(n, eps).unwrap();
    let exact_accept = oracles::all_distinct_probability(far.pmf_slice(), s);
    let est = MonteCarlo::new(trials, 13)
        .run(|seed| tester.run(&far, &mut trial_rng(seed)) == Decision::Accept)
        .unwrap();
    let sigma = (exact_accept * (1.0 - exact_accept) / trials as f64).sqrt();
    assert!(
        (est.rate - exact_accept).abs() < 5.0 * sigma + 1e-2,
        "far: MC {} vs exact {exact_accept}",
        est.rate
    );
}
