//! Property-based coverage for the walk primitive itself: the token
//! census must be invariant under engine choice on arbitrary
//! topologies and fault plans, and the lazy walk's
//! stationary distribution on a clique must be uniform within Wilson
//! bounds.

use dut_congest::conductance::walk::{run_walks, run_walks_reference, walk_bandwidth_model};
use dut_core::montecarlo::ErrorEstimate;
use dut_netsim::fault::FaultPlan;
use dut_netsim::topology::complete;
use dut_obs::NoopSink;
use dut_testkit::strategies::{fault_plan, topology_graph};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn walk_census_is_engine_and_thread_invariant(
        g in topology_graph(2, 24),
        plan in fault_plan(24, 12, 0.05, 0.002),
        seed in any::<u64>(),
        walks in 2u64..8,
        walk_len in 1usize..10,
    ) {
        let k = g.node_count();
        let model = walk_bandwidth_model(k, walks);
        let flat = run_walks(&g, seed, walks, walk_len, model, &plan, &mut NoopSink).unwrap();
        let reference =
            run_walks_reference(&g, seed, walks, walk_len, model, &plan).unwrap();
        prop_assert_eq!(&flat, &reference);
        // The multiset is conserved per source on fault-free plans.
        if plan.drop_prob == 0.0 && plan.flip_prob == 0.0 && plan.crashes.is_empty() {
            prop_assert_eq!(flat.total_tokens(), k as u64 * walks);
        }
    }
}

#[test]
fn lazy_walk_on_clique_is_uniform_within_wilson_bounds() {
    // On K16 the lazy walk's stationary distribution is uniform, and
    // the clique mixes in O(1) rounds — after 16 rounds every token is
    // (essentially) a fresh uniform draw. Pool the endpoint censuses
    // of many seeds and check each node's share of tokens against a
    // z = 3.5 Wilson interval around 1/k.
    let k = 16usize;
    let walks = 8u64;
    let g = complete(k);
    let model = walk_bandwidth_model(k, walks);
    let mut per_node = vec![0u64; k];
    let mut total = 0u64;
    for seed in 0..40u64 {
        let outcome = run_walks(
            &g,
            0x5EED ^ (seed * 0x9E37_79B9),
            walks,
            16,
            model,
            &FaultPlan::none(),
            &mut NoopSink,
        )
        .expect("clean run");
        assert_eq!(outcome.total_tokens(), k as u64 * walks);
        for (v, row) in outcome.census.iter().enumerate() {
            let here: u64 = row.iter().map(|&(_, c)| c).sum();
            per_node[v] += here;
            total += here;
        }
    }
    let uniform = 1.0 / k as f64;
    for (v, &count) in per_node.iter().enumerate() {
        let est = ErrorEstimate::from_counts(total as usize, count as usize, 3.5);
        assert!(
            est.lower <= uniform && uniform <= est.upper,
            "node {v}: share {:.4} outside Wilson [{:.4}, {:.4}] around 1/k = {:.4}",
            est.rate,
            est.lower,
            est.upper,
            uniform
        );
    }
}

#[test]
fn walk_words_are_decorrelated_across_coordinates() {
    // The counter-keyed stream must not repeat across neighboring
    // coordinates (a cheap sanity net against keying bugs that would
    // silently correlate token trajectories).
    use dut_congest::conductance::walk::walk_word;
    use std::collections::HashSet;
    let mut seen = HashSet::new();
    for round in 0..8u64 {
        for node in 0..8u64 {
            for src in 0..8u64 {
                for slot in 0..4u64 {
                    assert!(seen.insert(walk_word(7, round, node, src, slot)));
                }
            }
        }
    }
    assert_eq!(seen.len(), 8 * 8 * 8 * 4);
}
