//! Differential suite for the conductance tester (CI's `conductance`
//! lane): the walk phase must be bit-identical on the flat and the
//! naive reference engine, and the full pipeline on a materialized and
//! an implicit topology — clean and under E13-style fault plans — and
//! the robust variant must keep its honesty contract (flips absorbed,
//! losses typed, never a skewed verdict).

use dut_congest::conductance::walk::{run_walks, run_walks_reference, walk_bandwidth_model};
use dut_congest::{ConductanceError, ConductanceStage, ConductanceTester};
use dut_netsim::fault::FaultPlan;
use dut_netsim::graph::ImplicitTopology;
use dut_netsim::topology::{bridged_cliques, MargulisExpander};
use dut_obs::NoopSink;
use std::time::Instant;

const SEED: u64 = 0xC0DA;

fn e13_style_plan() -> FaultPlan {
    // Flip-only at the E13 sweep's light rate: the coded pipeline must
    // absorb every flip below the Justesen radius.
    FaultPlan::seeded(0xE13).with_flips(3e-4)
}

#[test]
fn full_pipeline_is_engine_invariant() {
    // The engine reads a materialized graph through its CSR and an
    // implicit one through `ImplicitTopology::neighbors`: both paths
    // must give the same result, run after run.
    let implicit = MargulisExpander::new(6);
    let g = implicit.materialize();
    let t = ConductanceTester::plan(36, 0.1, 0.5).expect("plannable");
    let materialized = t.run(&g, SEED, &mut NoopSink).expect("materialized run");
    for _ in 0..2 {
        let other = t.run(&implicit, SEED, &mut NoopSink).expect("implicit run");
        assert_eq!(materialized, other);
    }
}

#[test]
fn walk_census_matches_reference_clean_and_faulted() {
    let g = bridged_cliques(24);
    let model = walk_bandwidth_model(24, 8);
    let plans = [
        FaultPlan::none(),
        FaultPlan::seeded(5).with_flips(2e-3),
        FaultPlan::seeded(6).with_drops(0.01),
        FaultPlan::seeded(7)
            .with_drops(0.005)
            .with_flips(1e-3)
            .with_crash(3, 6)
            .with_rejoin(3, 11),
    ];
    for plan in plans {
        let flat = run_walks(&g, SEED, 8, 16, model, &plan, &mut NoopSink).expect("flat engine");
        let reference =
            run_walks_reference(&g, SEED, 8, 16, model, &plan).expect("reference engine");
        assert_eq!(flat, reference, "flat vs reference under {plan:?}");
    }
}

#[test]
fn clean_walks_conserve_tokens_exactly() {
    let g = MargulisExpander::new(5).materialize();
    let model = walk_bandwidth_model(25, 6);
    let outcome = run_walks_reference(&g.clone(), SEED, 6, 12, model, &FaultPlan::none())
        .expect("reference run");
    assert_eq!(outcome.total_tokens(), 25 * 6);
    // Every source keeps its 6 tokens somewhere.
    for src in 0..25 {
        let alive: u64 = (0..25).map(|v| outcome.count(v, src)).sum();
        assert_eq!(alive, 6, "source {src}");
    }
}

#[test]
fn robust_pipeline_absorbs_e13_flip_plan_bit_identically() {
    let g = MargulisExpander::new(6).materialize();
    let t = ConductanceTester::plan(36, 0.1, 0.5).expect("plannable");
    let (clean, _) = t
        .run_robust(&g, SEED, &FaultPlan::none(), 3, &mut NoopSink)
        .expect("fault-free robust run");
    let (faulted, stats) = t
        .run_robust(&g, SEED, &e13_style_plan(), 3, &mut NoopSink)
        .expect("flips below the codec radius must be absorbed");
    assert_eq!(clean.verdict, faulted.verdict);
    assert_eq!(clean.collisions, faulted.collisions);
    assert_eq!(clean.tokens, faulted.tokens);
    assert_eq!(clean.sum_deg, faulted.sum_deg);
    assert_eq!(clean.sum_deg_sq, faulted.sum_deg_sq);
    assert!(stats.corrected_bits > 0, "plan never flipped anything");
    assert_eq!(stats.failures, 0);
}

#[test]
fn robust_pipeline_is_engine_invariant_under_faults() {
    let implicit = MargulisExpander::new(4);
    let g = implicit.materialize();
    let t = ConductanceTester::plan(16, 0.1, 0.5)
        .expect("plannable")
        .with_walk_len(10);
    let plan = e13_style_plan();
    let materialized = t
        .run_robust(&g, SEED, &plan, 3, &mut NoopSink)
        .expect("materialized robust run");
    let other = t
        .run_robust(&implicit, SEED, &plan, 3, &mut NoopSink)
        .expect("implicit robust run");
    assert_eq!(materialized, other);
}

#[test]
fn robust_pipeline_survives_crash_rejoin_in_collect_phase() {
    // Fault-plan rounds are local to each engine sub-run. On line(8)
    // the BFS tree is a depth-7 chain, so the bottom-up reliable
    // collect keeps node 6 (the last hop before the root) busy well
    // past round 4 — the crash window [4, 12) lands inside the ARQ
    // chain and the outage-widened deadlines absorb it. A walk_len=2
    // walk quiesces before round 4, so no tokens are in flight when
    // the node goes dark: the verdict and statistic must match the
    // fault-free run exactly.
    let g = dut_netsim::topology::line(8);
    let t = ConductanceTester::plan(8, 0.1, 0.5)
        .expect("plannable")
        .with_walk_len(2);
    let (clean, _) = t
        .run_robust(&g, SEED, &FaultPlan::none(), 4, &mut NoopSink)
        .expect("fault-free robust run");
    let plan = FaultPlan::seeded(0x2E16)
        .with_crash(6, 4)
        .with_rejoin(6, 12);
    let (survived, stats) = t
        .run_robust(&g, SEED, &plan, 4, &mut NoopSink)
        .expect("outage-widened retries must absorb the crash window");
    assert_eq!(clean.verdict, survived.verdict);
    assert_eq!(clean.collisions, survived.collisions);
    assert_eq!(clean.tokens, survived.tokens);
    assert!(
        stats.retransmits > 0,
        "crash window never forced a retransmit: {stats:?}"
    );
}

#[test]
fn robust_pipeline_reports_walk_losses_as_typed_error() {
    let g = bridged_cliques(16);
    let t = ConductanceTester::plan(16, 0.1, 0.5).expect("plannable");
    // Heavy drops: the retry-free walk phase must lose tokens, and the
    // conservation check must refuse to manufacture a verdict.
    let plan = FaultPlan::seeded(21).with_drops(0.05);
    match t.run_robust(&g, SEED, &plan, 3, &mut NoopSink) {
        Err(ConductanceError::FaultOverwhelmed { stage, .. }) => {
            assert_eq!(stage, ConductanceStage::Walk);
        }
        other => panic!("expected FaultOverwhelmed(Walk), got {other:?}"),
    }
}

#[test]
fn observed_runs_record_conductance_metrics() {
    use dut_obs::{keys, MemorySink};
    let g = MargulisExpander::new(4).materialize();
    let t = ConductanceTester::plan(16, 0.1, 0.5).expect("plannable");
    let mut sink = MemorySink::new();
    let r = t.run(&g, SEED, &mut sink).expect("observed run");
    assert_eq!(sink.counter(keys::CONGEST_CONDUCTANCE_RUNS), 1);
    assert_eq!(sink.counter(keys::CONGEST_CONDUCTANCE_ROBUST_RUNS), 0);
    assert_eq!(
        sink.counter(keys::CONGEST_CONDUCTANCE_ROUNDS),
        r.rounds as u64
    );
    assert_eq!(sink.counter(keys::CONGEST_CONDUCTANCE_TOKENS), r.tokens);
    assert_eq!(
        sink.counter(keys::CONGEST_CONDUCTANCE_ACCEPTS),
        u64::from(r.verdict.accepts())
    );
    let (rr, _) = t
        .run_robust(&g, SEED, &FaultPlan::none(), 3, &mut sink)
        .expect("robust observed run");
    assert_eq!(sink.counter(keys::CONGEST_CONDUCTANCE_RUNS), 2);
    assert_eq!(sink.counter(keys::CONGEST_CONDUCTANCE_ROBUST_RUNS), 1);
    assert_eq!(rr.verdict, r.verdict);
    // Sinks never touch RNG: the observed runs must equal unobserved.
    let plain = t.run(&g, SEED, &mut NoopSink).expect("unobserved run");
    assert_eq!(plain, r);
}

/// The tester at E16's full parameters (Φ = 0.1, ε = 0.5, seed 0xE16)
/// on the 4096-node Margulis expander: 98,304 walk tokens over 84
/// rounds, single-threaded. The collision count is pinned to the value
/// the dense-census tester measured, so the sparse census stays
/// bit-identical at scale. Run in release by the `conductance` CI lane.
#[test]
#[ignore = "4096-node run; the conductance lane runs it in release with --ignored"]
fn margulis_4096_conductance_smoke() {
    let g = MargulisExpander::new(64).materialize();
    let t = ConductanceTester::plan(4096, 0.1, 0.5).expect("plannable");
    let start = Instant::now();
    let r = t.run(&g, 0xE16, &mut NoopSink).expect("clean run");
    eprintln!("margulis k = 4096 tester run: {:?}", start.elapsed());
    assert!(r.verdict.accepts(), "expander rejected: {r:?}");
    assert_eq!(r.tokens, 4096 * t.walks_per_node);
    assert_eq!(r.collisions, 274);
}
