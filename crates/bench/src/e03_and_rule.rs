//! E3 — the 0-round AND-rule tester (Theorem 1.1).
//!
//! For a sweep of network sizes `k`, plans the AND-rule tester and
//! computes the per-node rejection probabilities **exactly** via the
//! generating-function formula for the paired family
//! ([`dut_distributions::exact`]); because nodes are iid, the network
//! errors follow in closed form: completeness error `1 − (1−p_u)^k`,
//! soundness error `(1−p_f)^k`. A Monte-Carlo column cross-checks the
//! analytic pipeline at every row.
//!
//! The table shows the paper's honest story: completeness is protected,
//! per-node samples shrink with `k^{1/(2m)}`, and at simulatable `k` the
//! provable soundness is the weak "1/2 + Θ(ε²)" signal (the `feasible`
//! column).

use crate::table::{fmt_f, Table};
use crate::Scale;
use dut_core::decision::Decision;
use dut_core::montecarlo::{trial_rng, MonteCarlo};
use dut_core::params::theorem_1_1_samples;
use dut_core::zero_round::AndNetworkTester;
use dut_distributions::exact::paninski_rejection_probability;
use dut_distributions::families::paninski_far;

/// Runs E3.
pub fn run(scale: Scale) -> Vec<Table> {
    let n = 1 << 20;
    let eps = 0.75;
    let p = 1.0 / 3.0;
    let ks: Vec<usize> = scale.pick(
        vec![256, 4096],
        vec![64, 256, 1024, 4096, 16_384, 65_536, 262_144],
    );
    let mc_trials = scale.pick(150_000, 400_000);

    let mut t = Table::new(
        "E3: 0-round AND-rule tester (Theorem 1.1)",
        "n = 2^20, ε = 0.75, p = 1/3. Per-run rejection probabilities are exact \
         (generating-function formula); `MC check` re-measures the far case by \
         simulation. Network errors follow from node iid-ness. `theory s` is the \
         Theorem 1.1 formula with Θ-constants 1; `feasible` = the provable gap C_p \
         is reached (needs k ≳ (64/ε⁴)^m).",
        &[
            "k",
            "m",
            "s/node",
            "theory s",
            "p_reject(U)",
            "p_reject(far)",
            "MC check (far)",
            "net comp err",
            "net sound err",
            "feasible",
        ],
    );

    for &k in &ks {
        let tester = match AndNetworkTester::plan(n, k, eps, p) {
            Ok(t) => t,
            Err(e) => {
                t.push_row(vec![
                    k.to_string(),
                    "-".into(),
                    "-".into(),
                    fmt_f(theorem_1_1_samples(n, k, eps, p)),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!("plan failed: {e}"),
                ]);
                continue;
            }
        };
        let plan = tester.plan_details().clone();
        let s_run = plan.samples_per_run;

        // Exact per-run probabilities; node rejects iff all m runs do.
        let p_run_u = paninski_rejection_probability(n, 0.0, s_run);
        let p_run_f = paninski_rejection_probability(n, eps, s_run);
        let p_u = p_run_u.powi(plan.m as i32);
        let p_f = p_run_f.powi(plan.m as i32);

        // Monte-Carlo cross-check of the per-node far rejection rate.
        let node = *tester.node_tester();
        let far = paninski_far(n, eps).expect("valid far instance");
        let mc = MonteCarlo::new(mc_trials, 303 + k as u64)
            .run(move |seed| node.run(&far, &mut trial_rng(seed)) == Decision::Reject)
            .expect("trials > 0");

        let comp_err = 1.0 - (1.0 - p_u).powi(k as i32);
        let sound_err = (1.0 - p_f).powi(k as i32);
        t.push_row(vec![
            k.to_string(),
            plan.m.to_string(),
            plan.samples_per_node.to_string(),
            fmt_f(theorem_1_1_samples(n, k, eps, p)),
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
            plan.feasible.to_string(),
        ]);
        t.set_exact(4, p_u);
        t.set_exact(5, p_f);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_protects_completeness_and_validates_mc() {
        let tables = run(Scale::Quick);
        assert!(!tables[0].rows.is_empty());
        crate::verdict::check("e3", &tables).unwrap();
    }
}
