//! Planning CLI: given `(n, k, ε, p)`, print the derived parameters for
//! every model's tester — what a deployment would need to configure.
//!
//! ```text
//! plan --n 262144 --k 120000 --eps 0.5 [--p 0.3333] [--cost-ratio 4]
//! ```

#![forbid(unsafe_code)]

use dut_congest::CongestUniformityTester;
use dut_core::asymmetric::{theory_max_cost_threshold, AsymmetricThresholdTester, CostVector};
use dut_core::baselines::centralized_sample_complexity;
use dut_core::params::{plan_and_rule, plan_threshold, WindowMethod};
use dut_local::LocalUniformityTester;

struct Args {
    n: usize,
    k: usize,
    eps: f64,
    p: f64,
    cost_ratio: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        n: 1 << 18,
        k: 120_000,
        eps: 0.5,
        p: 1.0 / 3.0,
        cost_ratio: 0.0,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let key = argv[i].as_str();
        let val = argv
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {key}"))?;
        match key {
            "--n" => args.n = val.parse().map_err(|e| format!("--n: {e}"))?,
            "--k" => args.k = val.parse().map_err(|e| format!("--k: {e}"))?,
            "--eps" => args.eps = val.parse().map_err(|e| format!("--eps: {e}"))?,
            "--p" => args.p = val.parse().map_err(|e| format!("--p: {e}"))?,
            "--cost-ratio" => {
                args.cost_ratio = val.parse().map_err(|e| format!("--cost-ratio: {e}"))?
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: plan --n <domain> --k <nodes> --eps <distance> [--p <error>] [--cost-ratio <r>]"
            );
            std::process::exit(2);
        }
    };
    let Args {
        n,
        k,
        eps,
        p,
        cost_ratio,
    } = args;

    println!("distributed uniformity testing plans");
    println!("  domain n = {n}, network k = {k}, distance eps = {eps}, error p = {p:.4}");
    println!(
        "  centralized baseline: one node would need ~{:.0} samples\n",
        centralized_sample_complexity(n, eps)
    );

    println!("0-round, threshold rule (Theorem 1.2):");
    match plan_threshold(n, k, eps, p, WindowMethod::Exact) {
        Ok(plan) => {
            println!("  samples per node  : {}", plan.samples_per_node);
            println!("  alarm threshold T : {}", plan.threshold);
            println!(
                "  predicted errors  : {:.4} (uniform) / {:.4} (far)",
                plan.predicted_completeness_error, plan.predicted_soundness_error
            );
            println!(
                "  expected alarms   : {:.1} (uniform) vs >= {:.1} (far)",
                plan.eta_uniform, plan.eta_far
            );
        }
        Err(e) => println!("  infeasible: {e}"),
    }

    println!("\n0-round, AND rule (Theorem 1.1):");
    match plan_and_rule(n, k, eps, p) {
        Ok(plan) => {
            println!(
                "  samples per node  : {} ({} repetitions x {} samples)",
                plan.samples_per_node, plan.m, plan.samples_per_run
            );
            println!(
                "  provable gap      : {:.3} achieved vs {:.3} required -> feasible: {}",
                plan.achieved_gap, plan.required_gap, plan.feasible
            );
            println!(
                "  predicted errors  : {:.4} (uniform) / {:.4} (far)",
                plan.predicted_completeness_error, plan.predicted_soundness_error
            );
        }
        Err(e) => println!("  infeasible: {e}"),
    }

    println!("\nCONGEST (Theorem 1.4, one sample per node):");
    match CongestUniformityTester::plan(n, k, eps, p, 1) {
        Ok(t) => {
            println!("  package size tau  : {}", t.tau());
            println!(
                "  virtual nodes     : ~{} packages, threshold {}",
                k / t.tau(),
                t.virtual_plan().threshold
            );
            println!("  rounds            : O(D + {}) per run", t.tau());
        }
        Err(e) => println!("  infeasible: {e}"),
    }

    println!("\nLOCAL (section 6, one sample per node):");
    match LocalUniformityTester::plan(n, k, eps, p) {
        Ok(t) => {
            println!("  gathering radius r: {}", t.radius());
            println!(
                "  centers           : <= {} MIS nodes, {} samples used each",
                2 * k / t.radius(),
                t.plan_details().samples_per_node
            );
            println!(
                "  theory rounds     : ~{:.0}",
                LocalUniformityTester::theory_rounds(n, k, eps, p)
            );
        }
        Err(e) => println!("  infeasible: {e}"),
    }

    if cost_ratio > 1.0 {
        println!("\nasymmetric costs (section 4.2, half the nodes {cost_ratio}x per-sample cost):");
        let costs: Vec<f64> = (0..k)
            .map(|i| if i < k / 2 { cost_ratio } else { 1.0 })
            .collect();
        match CostVector::new(costs) {
            Ok(costs) => match AsymmetricThresholdTester::plan(n, &costs, eps, p) {
                Ok(t) => {
                    let s = t.sample_counts();
                    println!("  expensive nodes   : {} samples", s[0]);
                    println!("  cheap nodes       : {} samples", s[k - 1]);
                    println!(
                        "  max cost          : {:.1} (theory {:.1})",
                        t.max_cost(),
                        theory_max_cost_threshold(n, &costs, eps)
                    );
                }
                Err(e) => println!("  infeasible: {e}"),
            },
            Err(e) => println!("  invalid costs: {e}"),
        }
    }
}
