//! Cross-crate integration: the same testing problem solved in every
//! model the paper considers, on the same instances.

use dut_congest::CongestUniformityTester;
use dut_core::decision::Decision;
use dut_core::zero_round::ThresholdNetworkTester;
use dut_distributions::families::paninski_far;
use dut_distributions::DiscreteDistribution;
use dut_local::LocalUniformityTester;
use dut_netsim::topology;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The same (n, ε) instance must be solvable 0-round, in CONGEST, and
/// in LOCAL — each with its own resource profile.
#[test]
fn all_three_models_agree_on_verdicts() {
    let eps = 1.0;
    let p = 1.0 / 3.0;
    let mut rng = StdRng::seed_from_u64(42);

    // 0-round: n = 2^12, k = 12000 nodes with private samples.
    let n = 1 << 12;
    let k = 12_000;
    let uniform = DiscreteDistribution::uniform(n);
    let far = paninski_far(n, eps).unwrap();

    // Per-run errors are only guaranteed ≤ 1/3, so decide by majority
    // of 5 independent runs.
    let majority = |mut f: Box<dyn FnMut() -> Decision>| -> Decision {
        let rejects = (0..5).filter(|_| f() == Decision::Reject).count();
        Decision::from_accept(rejects < 3)
    };

    let zero_round = ThresholdNetworkTester::plan(n, k, eps, p).unwrap();
    let zr_u = {
        let (t, u, mut r) = (zero_round.clone(), uniform.clone(), rng.clone());
        majority(Box::new(move || t.run(&u, &mut r).decision))
    };
    let zr_f = {
        let (t, d, mut r) = (zero_round.clone(), far.clone(), rng.clone());
        majority(Box::new(move || t.run(&d, &mut r).decision))
    };

    // CONGEST on a tree of the same size.
    let congest = CongestUniformityTester::plan(n, k, eps, p, 1).unwrap();
    let g = topology::balanced_binary_tree(k);
    let cg_u = {
        let (t, u, gg, mut r) = (congest.clone(), uniform.clone(), g.clone(), rng.clone());
        majority(Box::new(move || t.run(&gg, &u, &mut r).unwrap().decision))
    };
    let cg_f = {
        let (t, d, gg, mut r) = (congest.clone(), far.clone(), g.clone(), rng.clone());
        majority(Box::new(move || t.run(&gg, &d, &mut r).unwrap().decision))
    };

    // LOCAL on a grid (smaller k is fine — LOCAL gathers aggressively).
    let local_k = 4096;
    let local_n = 1 << 16;
    let local_uniform = DiscreteDistribution::uniform(local_n);
    let local_far = paninski_far(local_n, 0.75).unwrap();
    let local = LocalUniformityTester::plan(local_n, local_k, 0.75, p).unwrap();
    let lg = topology::grid(64, 64);
    // The LOCAL tester uses the AND rule, whose provable soundness at
    // this scale is the weak "1/2 + Θ(ε²)" signal — compare rejection
    // counts rather than asserting a single verdict.
    let lc_u_rejects = (0..5)
        .filter(|_| {
            local
                .run(&lg, &local_uniform, &mut rng)
                .unwrap()
                .outcome
                .decision
                == Decision::Reject
        })
        .count();
    let lc_f_rejects = (0..5)
        .filter(|_| {
            local
                .run(&lg, &local_far, &mut rng)
                .unwrap()
                .outcome
                .decision
                == Decision::Reject
        })
        .count();

    assert_eq!(zr_u, Decision::Accept, "0-round false alarm");
    assert_eq!(zr_f, Decision::Reject, "0-round missed detection");
    assert_eq!(cg_u, Decision::Accept, "CONGEST false alarm");
    assert_eq!(cg_f, Decision::Reject, "CONGEST missed detection");
    assert!(lc_u_rejects <= 2, "LOCAL false alarms: {lc_u_rejects}/5");
    assert!(
        lc_f_rejects >= lc_u_rejects,
        "LOCAL shows no separation: far {lc_f_rejects} vs uniform {lc_u_rejects}"
    );
}

/// Sample-per-node requirements must be ordered as the theory predicts:
/// threshold 0-round ≤ CONGEST package size ≤ centralized.
#[test]
fn resource_profiles_are_ordered() {
    let n = 1 << 12;
    let k = 12_000;
    let eps = 1.0;
    let p = 1.0 / 3.0;

    let zero_round = ThresholdNetworkTester::plan(n, k, eps, p).unwrap();
    let congest = CongestUniformityTester::plan(n, k, eps, p, 1).unwrap();
    let centralized = (n as f64).sqrt() / (eps * eps);

    // 0-round: few samples per node (all k nodes sample).
    assert!(zero_round.samples_per_node() <= congest.tau());
    // CONGEST virtual nodes hold tau samples each, still below the
    // single-node centralized requirement.
    assert!((congest.tau() as f64) < centralized);
}

/// Round complexity: CONGEST on a star (D = 2) must use far fewer
/// rounds than on a line (D = k − 1) at the same parameters.
#[test]
fn congest_rounds_dominated_by_diameter() {
    let n = 1 << 12;
    let k = 2_000;
    // k = 2000 holds enough samples at eps = 1 for a coarse test; if
    // planning fails at this k the test is vacuous, so use a size that
    // plans.
    let k = if CongestUniformityTester::plan(n, k, 1.0, 1.0 / 3.0, 1).is_ok() {
        k
    } else {
        12_000
    };
    let tester = CongestUniformityTester::plan(n, k, 1.0, 1.0 / 3.0, 1).unwrap();
    let uniform = DiscreteDistribution::uniform(n);
    let mut rng = StdRng::seed_from_u64(7);

    let star = topology::star(k);
    let line = topology::line(k);
    let star_rounds = tester.run(&star, &uniform, &mut rng).unwrap().rounds;
    let line_rounds = tester.run(&line, &uniform, &mut rng).unwrap().rounds;
    assert!(
        line_rounds > star_rounds + k / 2,
        "line ({line_rounds}) should dwarf star ({star_rounds})"
    );
}

/// The identity filter composes with every tester: filtered η looks
/// uniform to the CONGEST tester too.
#[test]
fn identity_filter_composes_with_congest() {
    use dut_core::identity::{FilteredOracle, IdentityFilter};

    let n = 1 << 8;
    let eta =
        DiscreteDistribution::from_weights((1..=n).map(|i| 1.0 / i as f64).collect()).unwrap();
    let filter = IdentityFilter::new(&eta, 16).unwrap();
    let g_domain = filter.output_domain_size();

    let k = 12_000;
    let tester = CongestUniformityTester::plan(g_domain, k, 1.0, 1.0 / 3.0, 1).unwrap();
    let g = topology::star(k);
    let mut rng = StdRng::seed_from_u64(3);
    let oracle = FilteredOracle::new(&filter, &eta);
    let result = tester.run(&g, &oracle, &mut rng).unwrap();
    assert_eq!(result.decision, Decision::Accept);
}
