//! Exact small-`n` reference oracles.
//!
//! These are *independent* implementations of quantities the production
//! crates compute with optimized closed forms, so the two sides can be
//! pitted against each other:
//!
//! * `dut_distributions::exact::paninski_all_distinct_probability`
//!   evaluates a binomial-sum closed form in log space, specialized to
//!   pair-perturbation families. [`all_distinct_probability`] here runs
//!   the elementary-symmetric DP on the *explicit pmf* — any pmf, no
//!   logs, no binomials — and
//!   [`all_distinct_probability_exhaustive`] literally enumerates
//!   ordered sample tuples for tiny instances.
//! * `dut_core::montecarlo::MonteCarlo` reports Wilson
//!   intervals around a Monte-Carlo rate; the oracles give the exact
//!   rate those intervals must cover.
//!
//! Agreement tests live in this crate's `tests/` tree and in the
//! downstream crates' test trees.

use dut_netsim::graph::Graph;

/// Elementary symmetric polynomial `e_s(p_0, …, p_{n−1})` by the
/// standard O(n·s) dynamic program (`e[j] += e[j−1]·p` per item).
///
/// # Panics
///
/// Panics if any mass is not finite.
pub fn elementary_symmetric(pmf: &[f64], s: usize) -> f64 {
    assert!(
        pmf.iter().all(|p| p.is_finite()),
        "oracle needs finite masses"
    );
    if s > pmf.len() {
        return 0.0;
    }
    let mut e = vec![0.0f64; s + 1];
    e[0] = 1.0;
    for &p in pmf {
        for j in (1..=s).rev() {
            e[j] += e[j - 1] * p;
        }
    }
    e[s]
}

/// Exact probability that `s` iid samples from the distribution with
/// masses `pmf` are **all distinct**: `s! · e_s(pmf)` (each unordered
/// distinct support set is realized by `s!` orderings).
///
/// This is the failure law of the single-collision gap tester: on the
/// uniform distribution the tester errs (rejects) with probability
/// `1 − all_distinct`, and on an ε-far distribution it errs (accepts)
/// with probability `all_distinct`.
///
/// # Panics
///
/// Panics if a mass is not finite, or if `s > 170` (where `s!`
/// overflows `f64`; the oracle targets small-`n` cross-checks).
pub fn all_distinct_probability(pmf: &[f64], s: usize) -> f64 {
    assert!(s <= 170, "s! overflows f64 beyond 170; use the closed form");
    let mut factorial = 1.0f64;
    for j in 2..=s {
        factorial *= j as f64;
    }
    (factorial * elementary_symmetric(pmf, s)).clamp(0.0, 1.0)
}

/// Exact all-distinct probability by brute-force enumeration of every
/// ordered `s`-tuple of **distinct** indices (summing `Π pmf[iⱼ]`).
/// Exponential — the guard keeps it to genuinely tiny instances, where
/// it serves as ground truth for [`all_distinct_probability`] itself.
///
/// # Panics
///
/// Panics if `n^s` exceeds `10^7` tuples.
pub fn all_distinct_probability_exhaustive(pmf: &[f64], s: usize) -> f64 {
    let n = pmf.len();
    let budget = (n as f64).powi(s as i32);
    assert!(
        budget <= 1e7,
        "exhaustive oracle limited to n^s <= 1e7, got {budget}"
    );
    if s > n {
        return 0.0;
    }
    fn recurse(pmf: &[f64], used: &mut [bool], remaining: usize, acc: f64) -> f64 {
        if remaining == 0 {
            return acc;
        }
        let mut total = 0.0;
        for i in 0..pmf.len() {
            if !used[i] {
                used[i] = true;
                total += recurse(pmf, used, remaining - 1, acc * pmf[i]);
                used[i] = false;
            }
        }
        total
    }
    let mut used = vec![false; n];
    recurse(pmf, &mut used, s, 1.0).clamp(0.0, 1.0)
}

/// Exact rejection probability of the single-collision gap tester with
/// `s` samples on `pmf`: `1 − all_distinct_probability`.
pub fn rejection_probability(pmf: &[f64], s: usize) -> f64 {
    1.0 - all_distinct_probability(pmf, s)
}

/// Reference L1 distance to the uniform distribution on the pmf's
/// domain: `Σ |pmf(x) − 1/n|`.
pub fn l1_to_uniform(pmf: &[f64]) -> f64 {
    let u = 1.0 / pmf.len() as f64;
    pmf.iter().map(|&p| (p - u).abs()).sum()
}

/// Exact graph conductance by subset enumeration:
/// `Φ(G) = min over ∅ ⊂ S ⊂ V of cut(S) / min(vol(S), vol(V∖S))`
/// with `vol(S) = Σ_{v∈S} deg(v)` — the quantity the distributed
/// conductance tester (`dut_congest::conductance`) decides about.
/// Ground truth for the generator strategies: Margulis expanders must
/// score high, bridged cliques near zero.
///
/// Complement symmetry lets node 0 be pinned outside `S`, so the scan
/// is over `2^(k−1) − 1` proper subsets.
///
/// # Panics
///
/// Panics if the graph has fewer than 2 nodes, more than 20 nodes
/// (the enumeration is exponential — this oracle targets small-`k`
/// cross-checks), or no edges (conductance is undefined at volume 0).
pub fn exact_conductance(g: &Graph) -> f64 {
    let k = g.node_count();
    assert!(k >= 2, "conductance needs at least 2 nodes (got {k})");
    assert!(
        k <= 20,
        "exact_conductance is exponential; k <= 20 (got {k})"
    );
    assert!(g.edge_count() > 0, "conductance is undefined without edges");
    let degs: Vec<u64> = (0..k).map(|v| g.degree(v) as u64).collect();
    let total_vol: u64 = degs.iter().sum();
    let mut best = f64::INFINITY;
    // Node 0 stays outside S; mask bit i selects node i+1.
    for mask in 1u32..(1u32 << (k - 1)) {
        let in_s = |v: usize| v > 0 && mask >> (v - 1) & 1 == 1;
        let mut cut = 0u64;
        let mut vol = 0u64;
        for (v, &deg) in degs.iter().enumerate() {
            if !in_s(v) {
                continue;
            }
            vol += deg;
            cut += g.neighbors(v).iter().filter(|&&u| !in_s(u)).count() as u64;
        }
        let denom = vol.min(total_vol - vol);
        if denom == 0 {
            // S (or its complement) is all isolated vertices; the cut
            // is 0 too, and the ratio is taken as no constraint.
            continue;
        }
        let phi = cut as f64 / denom as f64;
        if phi < best {
            best = phi;
        }
    }
    best
}

/// Reference collision probability `χ(μ) = Σ μ(x)²` (the quantity of
/// the paper's Lemma 3.2: χ ≥ (1 + ε²)/n for ε-far μ).
pub fn collision_chi(pmf: &[f64]) -> f64 {
    pmf.iter().map(|&p| p * p).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dut_netsim::graph::ImplicitTopology;
    use dut_netsim::topology::{bridged_cliques, complete, ring, star, MargulisExpander};

    #[test]
    fn conductance_of_complete_graph() {
        // K4: the minimizing cut is 1-vs-3 (cut 3, vol 3) or 2-vs-2
        // (cut 4, vol 6) -> Φ = min(1, 2/3) = 2/3.
        let phi = exact_conductance(&complete(4));
        assert!((phi - 2.0 / 3.0).abs() < 1e-12, "phi {phi}");
    }

    #[test]
    fn conductance_of_ring_halves() {
        // C8: the best cut is 4 contiguous nodes — cut 2, vol 8.
        let phi = exact_conductance(&ring(8));
        assert!((phi - 0.25).abs() < 1e-12, "phi {phi}");
    }

    #[test]
    fn conductance_of_star_leaf() {
        // A single leaf: cut 1, vol 1 -> Φ = 1.
        let phi = exact_conductance(&star(5));
        assert!((phi - 1.0).abs() < 1e-12, "phi {phi}");
    }

    #[test]
    fn conductance_separates_expander_from_bridged_cliques() {
        // The generator pair the conductance tester's suites lean on:
        // ground truth that the gap is real on oracle-sized instances.
        let exp = MargulisExpander::new(4).materialize(); // k = 16
        let far = bridged_cliques(16);
        let phi_exp = exact_conductance(&exp);
        let phi_far = exact_conductance(&far);
        // Bridged K8s: cut 1, vol(side) = 8·7 + 1 = 57 -> Φ = 1/57.
        assert!((phi_far - 1.0 / 57.0).abs() < 1e-12, "phi_far {phi_far}");
        assert!(phi_exp > 0.2, "phi_exp {phi_exp}");
        assert!(phi_exp > 10.0 * phi_far);
    }

    #[test]
    #[should_panic(expected = "k <= 20")]
    fn conductance_oracle_rejects_large_graphs() {
        let _ = exact_conductance(&complete(21));
    }

    #[test]
    fn elementary_symmetric_small_cases() {
        // e_0 = 1, e_1 = sum, e_2(a,b,c) = ab + ac + bc.
        let p = [0.2, 0.3, 0.5];
        assert_eq!(elementary_symmetric(&p, 0), 1.0);
        assert!((elementary_symmetric(&p, 1) - 1.0).abs() < 1e-12);
        let e2 = 0.2 * 0.3 + 0.2 * 0.5 + 0.3 * 0.5;
        assert!((elementary_symmetric(&p, 2) - e2).abs() < 1e-12);
        assert!((elementary_symmetric(&p, 3) - 0.2 * 0.3 * 0.5).abs() < 1e-12);
        assert_eq!(elementary_symmetric(&p, 4), 0.0);
    }

    #[test]
    fn dp_matches_exhaustive_enumeration() {
        let pmf = [0.1, 0.15, 0.2, 0.25, 0.3];
        for s in 0..=5 {
            let dp = all_distinct_probability(&pmf, s);
            let brute = all_distinct_probability_exhaustive(&pmf, s);
            assert!((dp - brute).abs() < 1e-12, "s={s}: {dp} vs {brute}");
        }
    }

    #[test]
    fn uniform_two_samples_collide_with_one_over_n() {
        let n = 8;
        let pmf = vec![1.0 / n as f64; n];
        let reject = rejection_probability(&pmf, 2);
        assert!((reject - 1.0 / n as f64).abs() < 1e-12);
    }

    #[test]
    fn oversampling_always_collides() {
        let pmf = [0.25; 4];
        assert_eq!(all_distinct_probability(&pmf, 5), 0.0);
        assert_eq!(all_distinct_probability_exhaustive(&pmf, 5), 0.0);
    }

    #[test]
    fn reference_distances() {
        let pmf = [0.5, 0.5, 0.0, 0.0];
        assert!((l1_to_uniform(&pmf) - 1.0).abs() < 1e-12);
        assert!((collision_chi(&pmf) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_mass_is_rejected() {
        let _ = elementary_symmetric(&[0.5, f64::NAN], 1);
    }
}
