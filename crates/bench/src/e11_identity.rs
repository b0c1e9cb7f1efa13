//! E11 — identity testing via the filter reduction (§1).
//!
//! Tests equality to a known non-uniform reference η (a Zipf law) by
//! filtering samples into the slot domain and running (a) the
//! centralized collision-counting tester and (b) the distributed
//! threshold tester on the filtered stream — demonstrating that the
//! reduction "continues to work in the distributed setting" because
//! each node applies the filter locally with private randomness.

use crate::table::{fmt_f, Table};
use crate::Scale;
use dut_core::baselines::CollisionCountTester;
use dut_core::decision::Decision;
use dut_core::identity::{FilteredOracle, IdentityFilter};
use dut_core::montecarlo::{trial_rng, MonteCarlo};
use dut_core::zero_round::ThresholdNetworkTester;
use dut_distributions::distance::l1_distance;
use dut_distributions::DiscreteDistribution;

fn zipf(n: usize) -> DiscreteDistribution {
    DiscreteDistribution::from_weights((1..=n).map(|i| 1.0 / i as f64).collect())
        .expect("valid weights")
}

/// Mixes η with a permuted copy to get a μ at the requested L1 distance
/// from η.
fn perturbed(eta: &DiscreteDistribution, epsilon: f64) -> DiscreteDistribution {
    let n = eta.domain_size();
    // Reverse-permute η and mix: distance grows linearly in the weight.
    let perm: Vec<usize> = (0..n).rev().collect();
    let reversed = eta.permute(&perm);
    let full = l1_distance(eta, &reversed).expect("same domain");
    let beta = (epsilon / full).min(1.0);
    eta.mix(&reversed, beta).expect("same domain")
}

/// Runs E11.
pub fn run(scale: Scale) -> Vec<Table> {
    let n = 1 << 10;
    let slots_per_element = 64;
    let eps = 0.6;
    let trials = scale.pick(600, 3_000);

    let eta = zipf(n);
    let filter = IdentityFilter::new(&eta, slots_per_element).expect("valid filter");
    let g = filter.output_domain_size();
    let mu_far = perturbed(&eta, eps);

    let mut t = Table::new(
        "E11: identity testing to a Zipf reference via the filter reduction (§1)",
        format!(
            "η = Zipf(2^10), slot domain g = {g}, rounding L1 error = {:.4}. Rows test \
             μ = η (expect accept) and μ with ‖μ−η‖₁ = {eps} (expect reject), through \
             the filter + a uniformity tester. Centralized = collision counting with \
             3√g/ε'² samples; distributed = threshold network (exact plan).",
            filter.rounding_l1_error()
        ),
        &["tester", "input", "expected", "error rate"],
    );

    let eps_eff = eps - filter.rounding_l1_error() - 0.05;
    let central = CollisionCountTester::plan(g, eps_eff, 3.0).expect("plannable");

    for (label, mu, expect) in [
        ("centralized", &eta, Decision::Accept),
        ("centralized", &mu_far, Decision::Reject),
    ] {
        let filter_c = filter.clone();
        let mu_c = mu.clone();
        let err = MonteCarlo::new(trials, 1101)
            .run(move |seed| {
                let mut rng = trial_rng(seed);
                let oracle = FilteredOracle::new(&filter_c, &mu_c);
                central.run(&oracle, &mut rng) != expect
            })
            .expect("trials > 0");
        t.push_row(vec![
            label.to_string(),
            if expect == Decision::Accept {
                "η".into()
            } else {
                "ε-far μ".into()
            },
            expect.to_string(),
            format!(
                "{} [{}, {}]",
                fmt_f(err.rate),
                fmt_f(err.lower),
                fmt_f(err.upper)
            ),
        ]);
    }

    // Distributed: threshold network over the slot domain.
    let k = scale.pick(60_000, 120_000);
    let dist_trials = scale.pick(12, 25);
    if let Ok(network) = ThresholdNetworkTester::plan(g, k, eps_eff, 1.0 / 3.0) {
        for (mu, expect) in [(&eta, Decision::Accept), (&mu_far, Decision::Reject)] {
            let mut rng = trial_rng(1102);
            let oracle = FilteredOracle::new(&filter, mu);
            let errors = (0..dist_trials)
                .filter(|_| network.run(&oracle, &mut rng).decision != expect)
                .count();
            t.push_row(vec![
                format!("distributed (k={k})"),
                if expect == Decision::Accept {
                    "η".into()
                } else {
                    "ε-far μ".into()
                },
                expect.to_string(),
                format!("{errors}/{dist_trials}"),
            ]);
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_all_error_rates_low() {
        let tables = run(Scale::Quick);
        assert!(tables[0].rows.len() >= 2);
        crate::verdict::check("e11", &tables).unwrap();
    }
}
