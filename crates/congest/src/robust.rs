//! Fault-tolerant τ-token packaging: the Theorem 5.1 pipeline hardened
//! against bit flips and message drops.
//!
//! Every phase travels through the [`JustesenCodec`], so any pattern of
//! at most [`JustesenCodec::correction_radius`] flips per wire word is
//! corrected transparently — below the radius a faulted run produces
//! **the same packages** as a fault-free one. Drops (and flips beyond
//! the radius, which decode failures degrade into drops) are handled
//! per phase:
//!
//! * leader election — max-id flooding is self-stabilizing: a lost flood
//!   is re-triggered by the next improving id. A Justesen miscorrection
//!   beyond the radius can raise an id above the maximum and displace
//!   it; that surfaces as
//!   [`EngineError::MaxIdDisplaced`](dut_netsim::engine::EngineError);
//! * BFS — a dropped announcement can cost a node its shortest parent,
//!   but the tree stays valid; a node that never hears any announcement
//!   surfaces as [`EngineError::Unreached`](dut_netsim::engine::EngineError),
//!   and a miscorrected depth as
//!   [`EngineError::InconsistentDepth`](dut_netsim::engine::EngineError);
//! * residue — recomputed as `c(v) = (Σ tokens in subtree(v)) mod τ`
//!   from a **reliable** (ack/retry) convergecast of subtree token
//!   counts, identical to the paper's bottom-up residue by the mod-τ
//!   telescoping identity `own + Σ c(child) ≡ Σ subtree (mod τ)`;
//! * forwarding — pipelined token forwarding has no retry layer, so an
//!   uncorrected loss either starves a node short of its quota (a
//!   round-limit error) or fails the token-conservation check after the
//!   run — never silently wrong packages.

use crate::codec::JustesenCodec;
use crate::packaging::{
    cut_packages, forward_round_limit, forward_states, tokens_lost, PackagingError,
    PackagingResult, RobustStage,
};
use dut_netsim::algorithms::coded::{codec_stats, CodedProtocol};
use dut_netsim::algorithms::{
    build_bfs_tree_coded, elect_leader_coded, reliable_convergecast_sums_coded, RelMsg, RetryPolicy,
};
use dut_netsim::engine::{BandwidthModel, Compact, Network};
use dut_netsim::fault::FaultPlan;
use dut_netsim::graph::ImplicitTopology;
use dut_obs::{NoopSink, Sink};

/// Fault-handling totals of one robust packaging (or tester) run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RobustStats {
    /// Wire bits the codec corrected across all phases.
    pub corrected_bits: u64,
    /// Wire words discarded as undecodable (degraded into drops).
    pub decode_failures: u64,
    /// ARQ retransmissions across the reliable phases.
    pub retransmits: u64,
    /// Deliveries the ARQ layer gave up on for good.
    pub failures: u64,
}

impl RobustStats {
    pub(crate) fn absorb_codec(&mut self, stats: dut_netsim::algorithms::CodecStats) {
        self.corrected_bits += stats.corrected_bits;
        self.decode_failures += stats.decode_failures;
    }
}

/// The CONGEST bandwidth budget a robust run needs: one Justesen
/// codeword per directed edge per round, sized for the widest message
/// type in the pipeline.
pub fn robust_bandwidth_model() -> BandwidthModel {
    let compact = JustesenCodec::<Compact>::new().output_bits();
    let relmsg = JustesenCodec::<RelMsg>::new().output_bits();
    BandwidthModel::Congest {
        bits_per_edge: compact.max(relmsg),
    }
}

/// Solves τ-token packaging under a [`FaultPlan`], with every message
/// Justesen-encoded and the residue phase running over the ack/retry
/// convergecast. `max_retries` bounds per-message retransmissions in
/// the reliable phase.
///
/// `model` must budget at least one codeword per edge per round — use
/// [`robust_bandwidth_model`].
///
/// # Errors
///
/// Same conditions as
/// [`solve_token_packaging`](crate::packaging::solve_token_packaging),
/// plus [`PackagingError::FaultOverwhelmed`] when the retry budget was
/// not enough to recover every subtree report.
#[allow(clippy::too_many_arguments)]
pub fn solve_token_packaging_robust<T: ImplicitTopology>(
    g: &T,
    tokens: &[Vec<u64>],
    ids: &[u64],
    tau: usize,
    model: BandwidthModel,
    plan: &FaultPlan,
    max_retries: usize,
    sink: &mut dyn Sink,
) -> Result<(PackagingResult, RobustStats), PackagingError> {
    if tau == 0 {
        return Err(PackagingError::ZeroTau);
    }
    let k = g.node_count();
    if tokens.len() != k || ids.len() != k {
        return Err(PackagingError::LengthMismatch {
            nodes: k,
            tokens: tokens.len(),
            ids: ids.len(),
        });
    }
    let mut stats = RobustStats::default();
    let compact_codec = JustesenCodec::<Compact>::new();

    // Phase 1: leader election (max id), coded.
    let (leader, rounds_leader, leader_stats) =
        elect_leader_coded(g, ids, model, plan, compact_codec.clone())?;
    stats.absorb_codec(leader_stats);

    // Phase 2: BFS tree from the leader, coded.
    let (tree, rounds_bfs, bfs_stats) =
        build_bfs_tree_coded(g, leader, model, plan, compact_codec.clone())?;
    stats.absorb_codec(bfs_stats);

    // Phase 3: residues from a reliable convergecast of subtree token
    // counts — c(v) = subtree_count(v) mod τ, which telescopes to the
    // paper's bottom-up residue.
    let counts: Vec<u64> = tokens.iter().map(|t| t.len() as u64).collect();
    // Size the retry policy for the worst scheduled outage: a node that
    // crashes and rejoins must find its ARQ peers still retrying, so a
    // recoverable outage never surfaces as FaultOverwhelmed.
    let policy =
        RetryPolicy::for_tree(&tree, max_retries).allowing_outage(plan.max_outage_rounds());
    let (sums, residue_cost, residue_stats) = reliable_convergecast_sums_coded(
        g,
        &tree,
        &counts,
        model,
        plan,
        policy,
        JustesenCodec::<RelMsg>::new(),
        sink,
    )?;
    stats.absorb_codec(residue_stats);
    stats.retransmits += residue_cost.retransmits;
    stats.failures += residue_cost.failures;
    if residue_cost.failures > 0 {
        // One report expected per non-root node; every failure is a
        // report (or its ack chain) the retry budget could not land.
        let expected = (k - 1) as u64;
        return Err(PackagingError::FaultOverwhelmed {
            failures: residue_cost.failures,
            stage: RobustStage::Residue,
            round: rounds_leader + rounds_bfs + residue_cost.rounds,
            expected,
            observed: expected.saturating_sub(residue_cost.failures),
        });
    }
    let quotas: Vec<u64> = sums.iter().map(|&s| s % tau as u64).collect();

    // Phase 4: pipelined forwarding, coded. No retry layer here: an
    // uncorrected loss hits the round limit (quota starved) or the
    // conservation check below (quota met, group short).
    let states: Vec<_> = forward_states(&tree, tokens, &quotas)
        .into_iter()
        .map(|s| CodedProtocol::new(s, compact_codec.clone()))
        .collect();
    let max_rounds = forward_round_limit(tau, &tree);
    let forward_report = Network::new(g, model).run(states, max_rounds, plan, &mut NoopSink)?;
    stats.absorb_codec(codec_stats(&forward_report.nodes));

    // Token conservation: a dropped forwarding message loses its token
    // in flight, and the starved node downstream may still quiesce with
    // a partial group — count losses before cutting so a lossy run errs
    // out instead of packaging short.
    let total: usize = tokens.iter().map(Vec::len).sum();
    let lost = tokens_lost(forward_report.nodes.iter().map(|n| n.inner()), total);
    if lost > 0 {
        return Err(PackagingError::FaultOverwhelmed {
            failures: lost as u64,
            stage: RobustStage::Forwarding,
            round: rounds_leader + rounds_bfs + residue_cost.rounds + forward_report.rounds,
            expected: total as u64,
            observed: (total - lost) as u64,
        });
    }

    let (packages, discarded) = cut_packages(forward_report.nodes.iter().map(|n| n.inner()), tau);
    Ok((
        PackagingResult {
            packages,
            discarded,
            rounds: rounds_leader + rounds_bfs + residue_cost.rounds + forward_report.rounds,
            bits: residue_cost.bits + forward_report.total_bits,
            tree,
            leader,
        },
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packaging::solve_token_packaging;
    use dut_netsim::topology;
    use dut_obs::NoopSink;

    fn unique_tokens(k: usize, per_node: usize) -> Vec<Vec<u64>> {
        let mut next = 0u64;
        (0..k)
            .map(|_| {
                (0..per_node)
                    .map(|_| {
                        next += 1;
                        next
                    })
                    .collect()
            })
            .collect()
    }

    fn shuffled_ids(k: usize, seed: u64) -> Vec<u64> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids: Vec<u64> = (0..k as u64).collect();
        for i in (1..k).rev() {
            let j = rng.gen_range(0..=i);
            ids.swap(i, j);
        }
        ids
    }

    #[test]
    fn fault_free_robust_matches_plain_packaging() {
        let g = topology::grid(4, 5);
        let k = g.node_count();
        let tokens = unique_tokens(k, 2);
        let ids = shuffled_ids(k, 9);
        let model = robust_bandwidth_model();
        let plain = solve_token_packaging(&g, &tokens, &ids, 3, model).unwrap();
        let (robust, stats) = solve_token_packaging_robust(
            &g,
            &tokens,
            &ids,
            3,
            model,
            &FaultPlan::none(),
            4,
            &mut NoopSink,
        )
        .unwrap();
        assert_eq!(robust.packages, plain.packages);
        assert_eq!(robust.discarded, plain.discarded);
        assert_eq!(robust.leader, plain.leader);
        assert_eq!(robust.tree, plain.tree);
        assert_eq!(stats, RobustStats::default());
    }

    #[test]
    fn flips_below_radius_leave_packages_identical() {
        // 310-bit codewords (m = 5) at flip rate 3e-4 average ~0.093
        // flips per word; the odds of any word collecting > 5 (the
        // certified radius) are negligible at this fixed seed, so every
        // flip is corrected and the packages match the fault-free run
        // exactly.
        let g = topology::grid(4, 5);
        let k = g.node_count();
        let tokens = unique_tokens(k, 2);
        let ids = shuffled_ids(k, 9);
        let model = robust_bandwidth_model();
        let clean = solve_token_packaging(&g, &tokens, &ids, 3, model).unwrap();
        let plan = FaultPlan::seeded(0xEC0).with_flips(3e-4);
        let (robust, stats) =
            solve_token_packaging_robust(&g, &tokens, &ids, 3, model, &plan, 4, &mut NoopSink)
                .unwrap();
        assert_eq!(robust.packages, clean.packages);
        assert_eq!(robust.discarded, clean.discarded);
        assert_eq!(robust.tree, clean.tree);
        assert!(stats.corrected_bits > 0, "plan must actually flip bits");
        assert_eq!(stats.decode_failures, 0);
        assert_eq!(stats.failures, 0);
    }

    #[test]
    fn drops_in_residue_phase_are_retried() {
        // A grid, not a line: BFS announcements go out once per adopter,
        // so a node survives drops only if *some* neighbor's announcement
        // lands. The reliable residue phase retries; the flood phases
        // rely on redundancy.
        let g = topology::grid(3, 4);
        let k = g.node_count();
        let tokens = unique_tokens(k, 1);
        let ids = shuffled_ids(k, 5);
        let model = robust_bandwidth_model();
        let plan = FaultPlan::seeded(0x0D20).with_drops(0.1);
        let result =
            solve_token_packaging_robust(&g, &tokens, &ids, 3, model, &plan, 8, &mut NoopSink);
        match result {
            Ok((r, stats)) => {
                // Whenever the run survives, Definition 2 must hold
                // exactly: the retries made the residue phase lossless.
                assert!(stats.failures == 0);
                let packaged: usize = r.packages.len() * 3;
                assert!(k - packaged < 3);
                assert_eq!(k - packaged, r.discarded);
            }
            Err(e) => panic!("seed chosen to survive 10% drops: {e}"),
        }
    }

    #[test]
    fn crash_rejoin_outage_is_absorbed_by_widened_policy() {
        // With ids 1..=8 on a line the leader is node 7 and the BFS
        // tree is the chain 7→6→…→0. Node 6 sleeps through rounds
        // 4..11 of each phase: the floods have already passed it (it
        // adopts at round 1, its last inbound flood message lands at
        // round 3), the forwarding phase sends all quota tokens in the
        // first two rounds, but node 5's residue report — sent at round
        // 5 — lands squarely in the outage. The outage-widened retry
        // policy keeps node 5 retrying until node 6 is back, so the run
        // completes with exact packages instead of FaultOverwhelmed.
        let g = topology::line(8);
        let k = g.node_count();
        let tokens = unique_tokens(k, 2);
        let ids: Vec<u64> = (1..=k as u64).collect();
        let model = robust_bandwidth_model();
        let clean = solve_token_packaging(&g, &tokens, &ids, 3, model).unwrap();
        let plan = FaultPlan::seeded(0x2E10)
            .with_crash(6, 4)
            .with_rejoin(6, 12);
        let (robust, stats) =
            solve_token_packaging_robust(&g, &tokens, &ids, 3, model, &plan, 2, &mut NoopSink)
                .unwrap();
        assert_eq!(stats.failures, 0, "outage must be absorbed, not fatal");
        assert!(
            stats.retransmits > 0,
            "the outage must actually force retries"
        );
        assert_eq!(robust.packages, clean.packages);
        assert_eq!(robust.discarded, clean.discarded);
    }

    #[test]
    fn fault_overwhelmed_reports_stage_round_and_counts() {
        // Same line, but node 6 never comes back: node 5's report can
        // never land (retry budget exhausted) and the root's deadline
        // fires with child 6 unreported. The error must say which stage
        // broke, how deep into the pipeline, and how many reports
        // survived. Fully deterministic — no drops, no flips.
        let g = topology::line(8);
        let k = g.node_count();
        let tokens = unique_tokens(k, 1);
        let ids: Vec<u64> = (1..=k as u64).collect();
        let model = robust_bandwidth_model();
        let plan = FaultPlan::seeded(0xDEAD).with_crash(6, 4);
        let err =
            solve_token_packaging_robust(&g, &tokens, &ids, 3, model, &plan, 1, &mut NoopSink)
                .unwrap_err();
        match err {
            PackagingError::FaultOverwhelmed {
                failures,
                stage,
                round,
                expected,
                observed,
            } => {
                assert_eq!(stage, RobustStage::Residue);
                // Node 5's give-up plus the root's unreported child.
                assert_eq!(failures, 2);
                assert!(round > 0, "round must locate the failure in the pipeline");
                assert_eq!(expected, (k - 1) as u64);
                assert_eq!(observed, expected - failures);
                let msg = format!(
                    "{}",
                    PackagingError::FaultOverwhelmed {
                        failures,
                        stage,
                        round,
                        expected,
                        observed,
                    }
                );
                assert!(msg.contains("residue"), "display names the stage: {msg}");
            }
            other => panic!("expected FaultOverwhelmed, got: {other:?}"),
        }
    }

    #[test]
    fn overwhelming_drops_error_rather_than_mispackage() {
        let g = topology::line(10);
        let k = g.node_count();
        let tokens = unique_tokens(k, 1);
        let ids = shuffled_ids(k, 5);
        let model = robust_bandwidth_model();
        let plan = FaultPlan::seeded(0xBAD).with_drops(0.95);
        let err =
            solve_token_packaging_robust(&g, &tokens, &ids, 3, model, &plan, 1, &mut NoopSink)
                .unwrap_err();
        // Depending on where the drops land this surfaces as an
        // unreached BFS node, an exhausted retry budget, or a starved
        // forwarding pipeline — never as silently wrong packages.
        match err {
            PackagingError::Engine(_) | PackagingError::FaultOverwhelmed { .. } => {}
            other => panic!("unexpected error: {other:?}"),
        }
    }
}
