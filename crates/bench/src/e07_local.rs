//! E7 — the LOCAL tester (§6): MIS-based gathering.
//!
//! Measures gathering radius, MIS size (≤ 2k/r), samples per center
//! (≥ r/2), rounds, and decisions across topologies, next to the §6
//! round formula.

use crate::table::{fmt_f, Table};
use crate::Scale;
use dut_core::decision::Decision;
use dut_distributions::families::paninski_far;
use dut_distributions::DiscreteDistribution;
use dut_local::LocalUniformityTester;
use dut_netsim::topology::Topology;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs E7.
pub fn run(scale: Scale) -> Vec<Table> {
    let n = 1 << 16;
    let k = 4_096;
    let eps = 1.0;
    let p = 1.0 / 3.0;
    let trials = scale.pick(10, 30);
    let topologies: Vec<Topology> = scale.pick(
        vec![Topology::Grid, Topology::Line],
        vec![
            Topology::Grid,
            Topology::Line,
            Topology::Ring,
            Topology::ErdosRenyi,
        ],
    );

    let uniform = DiscreteDistribution::uniform(n);
    let far = paninski_far(n, eps).expect("valid far instance");

    let mut t = Table::new(
        "E7: LOCAL tester via MIS on G^r (§6)",
        format!(
            "n = 2^16, k = 4096, ε = 1. Plans are topology-aware (plan_for_graph: the \
             per-center AND budget is sized for the actual MIS of G^r, not the 2k/r \
             worst case). §6 guarantees ≥ r/2 samples per center and ≤ 2k/r centers; \
             the §6 theory-rounds formula gives {:.0} (Θ-constants 1). The AND rule's \
             soundness at this scale is the paper's weak \"1/2 + Θ(ε²)\" signal: expect \
             rejects(far) > rejects(U) with rejects(U) ≲ trials/3, not a clean 2/3 split.",
            LocalUniformityTester::theory_rounds(n, k, eps, p),
        ),
        &[
            "topology",
            "radius r",
            "MIS size",
            "2k/r bound",
            "min gathered",
            "r/2 bound",
            "rounds",
            "rejects(U)",
            "rejects(far)",
        ],
    );

    let mut rng = StdRng::seed_from_u64(701);
    for topo in topologies {
        let g = topo.instantiate(k, &mut rng);
        let kk = g.node_count();
        let tester_g = match LocalUniformityTester::plan_for_graph(n, &g, eps, p, &mut rng) {
            Ok(t) => t,
            Err(e) => {
                // Honest failure mode: on very-low-diameter graphs the
                // MIS of G^r collapses to a handful of centers, and a
                // single-collision AND tester cannot reach constant
                // error with so few voters (the paper's k→small regime).
                t.push_row(vec![
                    topo.name().to_string(),
                    "—".into(),
                    "—".into(),
                    "—".into(),
                    "—".into(),
                    "—".into(),
                    "—".into(),
                    format!("infeasible: {e}"),
                    "—".into(),
                ]);
                continue;
            }
        };
        let mut mis_size = 0usize;
        let mut min_gathered = usize::MAX;
        let mut rounds = 0usize;
        let mut rej_u = 0usize;
        let mut rej_f = 0usize;
        for _ in 0..trials {
            let ru = tester_g
                .run(&g, &uniform, &mut rng)
                .expect("the planning graph is connected and has k nodes");
            mis_size = ru.mis_size;
            min_gathered = min_gathered.min(ru.min_gathered);
            rounds += ru.rounds;
            rej_u += usize::from(ru.outcome.decision == Decision::Reject);
            let rf = tester_g
                .run(&g, &far, &mut rng)
                .expect("the planning graph is connected and has k nodes");
            rej_f += usize::from(rf.outcome.decision == Decision::Reject);
            rounds += rf.rounds;
        }
        t.push_row(vec![
            topo.name().to_string(),
            tester_g.radius().to_string(),
            mis_size.to_string(),
            (2 * kk / tester_g.radius()).to_string(),
            min_gathered.to_string(),
            (tester_g.radius() / 2).to_string(),
            fmt_f(rounds as f64 / (2 * trials) as f64),
            format!("{rej_u}/{trials}"),
            format!("{rej_f}/{trials}"),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_respects_section_6_invariants() {
        let tables = run(Scale::Quick);
        assert!(!tables[0].rows.is_empty());
        crate::verdict::check("e7", &tables).unwrap();
    }
}
