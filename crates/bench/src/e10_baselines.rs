//! E10 — centralized baselines: samples-to-error curves for the
//! collision-counting tester (Paninski-style) vs the single-collision
//! gap tester, at the `Θ(√n/ε²)` scale.
//!
//! Shows (a) the collision-counting tester reaches error 1/3 at
//! `s ≈ c·√n/ε²`, and (b) the single-collision tester, designed for
//! the distributed small-`s` regime, is *not* competitive centrally —
//! context for why the distributed algorithms count a single collision
//! but a centralized tester counts all of them.

use crate::table::{fmt_f, Table};
use crate::Scale;
use dut_core::baselines::{
    centralized_sample_complexity, CollisionCountTester, SingletonCountTester,
};
use dut_core::decision::Decision;
use dut_core::gap::GapTester;
use dut_core::montecarlo::{trial_rng, MonteCarlo};
use dut_distributions::families::paninski_far;
use dut_distributions::DiscreteDistribution;

/// Runs E10.
pub fn run(scale: Scale) -> Vec<Table> {
    let n = 1 << 14;
    let eps = 0.5;
    let trials = scale.pick(2_000, 10_000);
    let sqrt_n_eps = centralized_sample_complexity(n, eps); // √n/ε² = 512

    let multipliers: Vec<f64> = scale.pick(
        vec![0.5, 2.0, 4.0],
        vec![0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0],
    );

    let mut t = Table::new(
        "E10: centralized baselines at n = 2^14, ε = 0.5 (√n/ε² = 512)",
        "max-side error (worse of false-alarm on uniform / missed detection on \
         Paninski-far) vs samples. Collision counting and Paninski's singleton count \
         cross 1/3 within a small multiple of √n/ε²; the single-collision tester is \
         degenerate centrally (its regime is the distributed small-s world).",
        &[
            "s",
            "s/(√n/ε²)",
            "collision-count err",
            "singleton-count err",
            "single-collision err",
        ],
    );

    let uniform = DiscreteDistribution::uniform(n);
    let far = paninski_far(n, eps).expect("valid far instance");

    for &mult in &multipliers {
        let s = (mult * sqrt_n_eps) as usize;
        let counting = CollisionCountTester::with_samples(n, s, eps).expect("valid");
        let cc_u = {
            let u = uniform.clone();
            MonteCarlo::new(trials, 1001)
                .run(move |seed| counting.run(&u, &mut trial_rng(seed)) == Decision::Reject)
                .expect("trials > 0")
                .rate
        };
        let cc_f = {
            let f = far.clone();
            MonteCarlo::new(trials, 1002)
                .run(move |seed| counting.run(&f, &mut trial_rng(seed)) == Decision::Accept)
                .expect("trials > 0")
                .rate
        };
        let singleton = SingletonCountTester::with_samples(n, s, eps).expect("valid");
        let sc_u = {
            let u = uniform.clone();
            MonteCarlo::new(trials, 1005)
                .run(move |seed| singleton.run(&u, &mut trial_rng(seed)) == Decision::Reject)
                .expect("trials > 0")
                .rate
        };
        let sc_f = {
            let f = far.clone();
            MonteCarlo::new(trials, 1006)
                .run(move |seed| singleton.run(&f, &mut trial_rng(seed)) == Decision::Accept)
                .expect("trials > 0")
                .rate
        };
        // Single-collision tester at the same s (δ saturates near 1 for
        // large s; skip when the plan is degenerate).
        let single_err = match GapTester::with_samples(n, s) {
            Ok(g) => {
                let u = uniform.clone();
                let su = MonteCarlo::new(trials, 1003)
                    .run(move |seed| g.run(&u, &mut trial_rng(seed)) == Decision::Reject)
                    .expect("trials > 0")
                    .rate;
                let f = far.clone();
                let sf = MonteCarlo::new(trials, 1004)
                    .run(move |seed| g.run(&f, &mut trial_rng(seed)) == Decision::Accept)
                    .expect("trials > 0")
                    .rate;
                fmt_f(su.max(sf))
            }
            Err(_) => "degenerate".to_string(),
        };
        t.push_row(vec![
            s.to_string(),
            fmt_f(mult),
            fmt_f(cc_u.max(cc_f)),
            fmt_f(sc_u.max(sc_f)),
            single_err,
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_tester_improves_with_samples() {
        let tables = run(Scale::Quick);
        assert!(tables[0].rows.len() >= 2);
        crate::verdict::check("e10", &tables).unwrap();
    }
}
