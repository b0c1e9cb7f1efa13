//! E4 — the 0-round threshold tester (Theorem 1.2), and the
//! threshold-vs-AND-vs-centralized comparison the paper's introduction
//! promises.
//!
//! Per-node rejection probabilities are Monte-Carlo estimated; network
//! errors follow exactly as binomial tails over `k` iid nodes.

use crate::table::{fmt_f, Table};
use crate::Scale;
use dut_core::baselines::centralized_sample_complexity;
use dut_core::decision::Decision;
use dut_core::montecarlo::{trial_rng, MonteCarlo};
use dut_core::params::{
    binomial_cdf, binomial_tail_ge, plan_threshold, theorem_1_2_samples, WindowMethod,
};
use dut_core::zero_round::{AndNetworkTester, ThresholdNetworkTester};
use dut_distributions::exact::paninski_rejection_probability;
use dut_distributions::families::paninski_far;

/// Runs E4.
pub fn run(scale: Scale) -> Vec<Table> {
    let n = 1 << 18;
    let eps = 0.5;
    let p = 1.0 / 3.0;
    let ks: Vec<usize> = scale.pick(
        vec![60_000, 240_000],
        vec![30_000, 60_000, 120_000, 240_000, 480_000, 960_000],
    );
    let mc_trials = scale.pick(150_000, 400_000);

    let mut t = Table::new(
        "E4a: 0-round threshold tester (Theorem 1.2)",
        "n = 2^18, ε = 0.5, p = 1/3. `theory s` = √(n/k)/ε². Per-node rejection rates are \
         exact (generating-function formula, cross-checked by the MC column); network \
         errors are binomial tails over k iid nodes — both sides must be ≤ 1/3, with \
         s tracking the √(n/k) law.",
        &[
            "k",
            "s/node",
            "theory s",
            "T",
            "p_reject(U)",
            "p_reject(far)",
            "MC check (far)",
            "net comp err",
            "net sound err",
        ],
    );

    let mut comparison = Table::new(
        "E4b: samples per node — threshold vs AND vs centralized",
        "The paper's headline: with the threshold rule the per-node burden drops like \
         √(n/k); the AND rule saves only a k^{Θ(ε²)} factor; a centralized tester needs \
         √n/ε² at one node.",
        &["k", "threshold s", "AND s", "centralized s"],
    );

    for &k in &ks {
        let tester = match ThresholdNetworkTester::plan(n, k, eps, p) {
            Ok(t) => t,
            Err(e) => {
                t.push_row(vec![
                    k.to_string(),
                    format!("plan failed: {e}"),
                    fmt_f(theorem_1_2_samples(n, k, eps)),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
                continue;
            }
        };
        let plan = tester.plan_details().clone();
        let s_node = plan.samples_per_node;
        let p_u = paninski_rejection_probability(n, 0.0, s_node);
        let p_f = paninski_rejection_probability(n, eps, s_node);

        // Monte-Carlo cross-check of the per-node far rejection rate.
        let node = *tester.node_tester();
        let far = paninski_far(n, eps).expect("valid far instance");
        let mc = MonteCarlo::new(mc_trials, 403 + k as u64)
            .run(move |seed| node.run(&far, &mut trial_rng(seed)) == Decision::Reject)
            .expect("trials > 0");

        let comp_err = binomial_tail_ge(k, p_u, plan.threshold);
        let sound_err = binomial_cdf(k, p_f, plan.threshold.saturating_sub(1));
        t.push_row(vec![
            k.to_string(),
            plan.samples_per_node.to_string(),
            fmt_f(theorem_1_2_samples(n, k, eps)),
            plan.threshold.to_string(),
            fmt_f(p_u),
            fmt_f(p_f),
            format!(
                "{} [{}, {}]",
                fmt_f(mc.rate),
                fmt_f(mc.lower),
                fmt_f(mc.upper)
            ),
            fmt_f(comp_err),
            fmt_f(sound_err),
        ]);

        let and_s = AndNetworkTester::plan(n, k, eps, p)
            .map(|a| a.samples_per_node().to_string())
            .unwrap_or_else(|_| "-".into());
        comparison.push_row(vec![
            k.to_string(),
            plan.samples_per_node.to_string(),
            and_s,
            fmt_f(centralized_sample_complexity(n, eps)),
        ]);
    }

    // Ablation: how much does the concentration bound used to place the
    // threshold T cost in per-node samples?
    let mut ablation = Table::new(
        "E4c: ablation — threshold window method (Chernoff vs Normal vs Exact)",
        "The paper's Eq. (5) Chernoff window is provable but loose; the exact binomial \
         plan is what a simulation can honestly run. Cells show samples per node \
         (— = the method finds no feasible plan at this k).",
        &["k", "Chernoff s", "Normal s", "Exact s"],
    );
    for &k in &ks {
        let cell = |m: WindowMethod| -> String {
            plan_threshold(n, k, eps, p, m)
                .map(|pl| pl.samples_per_node.to_string())
                .unwrap_or_else(|_| "—".into())
        };
        ablation.push_row(vec![
            k.to_string(),
            cell(WindowMethod::Chernoff),
            cell(WindowMethod::Normal),
            cell(WindowMethod::Exact),
        ]);
    }
    vec![t, comparison, ablation]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_meets_error_targets_and_beats_baselines() {
        let tables = run(Scale::Quick);
        assert!(!tables[0].rows.is_empty());
        assert!(!tables[1].rows.is_empty());
        crate::verdict::check("e4", &tables).unwrap();
    }
}
