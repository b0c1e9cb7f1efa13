//! Uniformity testing in the LOCAL model (§6 of the paper).
//!
//! In LOCAL there is no bandwidth limit, so in `r` rounds any node can
//! ship its sample to any node within distance `r`. The paper's
//! strategy:
//!
//! 1. Compute a maximal independent set `S` on the power graph `G^r`
//!    (Luby's algorithm; each Luby phase costs `O(r)` rounds of `G`
//!    because neighbors in `G^r` are `r` hops apart).
//! 2. Every non-MIS node picks an MIS node in its `r`-neighborhood and
//!    routes its sample there (`r` rounds).
//! 3. Each MIS node `v` has gathered all samples of `N^{r/2}(v)` — at
//!    least `r/2` of them, because a connected graph has
//!    `|N^{t}(v)| ≥ t+1` — and there are at most `⌊2k/r⌋` MIS nodes.
//! 4. The MIS nodes act as the virtual nodes of the 0-round AND-rule
//!    tester (Theorem 1.1); non-MIS nodes always accept.
//!
//! The round complexity is governed by the radius `r` needed for each
//! center to hold enough samples; as ε → 0 it degrades to gathering
//! `Θ(√n/ε²)` samples at one node, as the paper notes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use dut_core::amplify::RepeatedGapTester;
use dut_core::decision::{Decision, DecisionRule, NetworkOutcome};
use dut_core::error::PlanError;
use dut_core::gap::GapTester;
use dut_core::params::{plan_and_rule, AndPlan};
use dut_distributions::collision::CollisionScratch;
use dut_distributions::SampleOracle;
use dut_netsim::algorithms::mis::{luby_mis, verify_mis};
use dut_netsim::algorithms::routing::route_to_centers;
use dut_netsim::engine::{BandwidthModel, EngineError};
use dut_netsim::graph::Graph;
use dut_netsim::power::{neighborhood, power_graph};
use dut_obs::{keys, NoopSink, Sink};
use rand::Rng;

/// A planned LOCAL-model uniformity tester.
///
/// # Example
///
/// ```rust
/// use dut_local::LocalUniformityTester;
/// use dut_core::decision::Decision;
/// use dut_distributions::DiscreteDistribution;
/// use dut_netsim::topology;
/// use rand::SeedableRng;
/// use rand::rngs::StdRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let n = 1 << 16;
/// let k = 4_096;
/// let tester = LocalUniformityTester::plan(n, k, 0.75, 1.0 / 3.0)?;
///
/// let g = topology::grid(64, 64);
/// let uniform = DiscreteDistribution::uniform(n);
/// let mut rng = StdRng::seed_from_u64(1);
/// let result = tester.run(&g, &uniform, &mut rng)?;
/// assert_eq!(result.outcome.decision, Decision::Accept);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LocalUniformityTester {
    k: usize,
    radius: usize,
    virtual_plan: AndPlan,
    node_tester: RepeatedGapTester,
}

/// The outcome of one LOCAL tester run.
#[derive(Debug, Clone)]
pub struct LocalRunResult {
    /// The network verdict and vote counts (over the MIS virtual nodes).
    pub outcome: NetworkOutcome,
    /// Number of MIS nodes (gathering centers).
    pub mis_size: usize,
    /// Minimum samples gathered at any MIS node.
    pub min_gathered: usize,
    /// LOCAL rounds consumed: `r · (Luby phases)` for the MIS on `G^r`
    /// plus `r` rounds of sample routing.
    pub rounds: usize,
    /// The gathering radius `r`.
    pub radius: usize,
}

impl LocalUniformityTester {
    /// Plans the tester: finds the smallest radius `r` such that
    /// `⌊2k/r⌋` virtual nodes with `r/2` samples each support the
    /// AND-rule tester of Theorem 1.1.
    ///
    /// Like [`plan_and_rule`], the plan *protects completeness* (uniform
    /// is accepted w.p. ≥ 1−p) and reports honestly — via
    /// `plan_details().feasible` — whether the provable soundness
    /// reaches `p` at this scale or only the weaker
    /// "1/2 + Θ(ε²)" separation.
    ///
    /// # Errors
    ///
    /// Fails when even `r = 2k` (one center holding half the network's
    /// samples) cannot support the gap tester — the network simply has
    /// too few samples for this `n, ε`.
    pub fn plan(n: usize, k: usize, epsilon: f64, p: f64) -> Result<Self, PlanError> {
        let mut r = 2usize;
        let mut best: Option<(usize, AndPlan)> = None;
        while r <= 2 * k {
            let ell = (2 * k / r).max(1);
            let samples_available = r / 2;
            if let Ok(plan) = plan_and_rule(n, ell, epsilon, p) {
                if plan.samples_per_node <= samples_available {
                    best = Some((r, plan));
                    break; // smallest radius wins (fewest rounds)
                }
            }
            r = (r + 2).max(r * 21 / 20);
        }
        let (radius, virtual_plan) = best.ok_or(PlanError::NetworkTooSmall {
            k,
            required: ((n as f64).sqrt() / epsilon.powi(2)).ceil() as usize,
        })?;
        let inner = GapTester::with_samples(n, virtual_plan.samples_per_run)?;
        let node_tester = RepeatedGapTester::new(inner, virtual_plan.m)?;
        Ok(LocalUniformityTester {
            k,
            radius,
            virtual_plan,
            node_tester,
        })
    }

    /// Plans the tester *for a concrete graph*: instead of the
    /// worst-case `⌊2k/r⌋` bound on the number of centers, it computes
    /// the actual MIS of `G^r` (one pilot run per candidate radius) and
    /// sizes the per-center AND plan for that center count and the
    /// samples the *least-supplied* center actually gathers. On
    /// low-diameter graphs the MIS is far smaller than `2k/r`, and a
    /// worst-case plan would leave the alarm budget (δ per center)
    /// badly underused.
    ///
    /// # Errors
    ///
    /// [`PlanError::Infeasible`] with condition `"connected graph"`
    /// (naming the lowest-numbered node that node 0 cannot reach) if `g`
    /// is disconnected, checked before any draw from `rng`; otherwise
    /// fails when no radius yields a feasible per-center plan.
    #[allow(clippy::needless_range_loop)]
    pub fn plan_for_graph<R: Rng + ?Sized>(
        n: usize,
        g: &Graph,
        epsilon: f64,
        p: f64,
        rng: &mut R,
    ) -> Result<Self, PlanError> {
        let k = g.node_count();
        let unreached = (k > 0)
            .then(|| g.bfs_distances(0).iter().position(Option::is_none))
            .flatten();
        if let Some(node) = unreached {
            return Err(PlanError::Infeasible {
                condition: "connected graph",
                detail: format!("node {node} is unreachable from node 0"),
            });
        }
        let mut r = 2usize;
        while r <= 2 * k {
            let gr = power_graph(g, r);
            let mis = luby_mis(&gr, rng);
            let centers: Vec<usize> = (0..k).filter(|&v| mis.in_mis[v]).collect();
            let ell = centers.len().max(1);
            // Pilot assignment to find the least-supplied center.
            let mut load = vec![0usize; k];
            for v in 0..k {
                let c = if mis.in_mis[v] {
                    v
                } else {
                    neighborhood(g, v, r)
                        .into_iter()
                        .find(|&u| mis.in_mis[u])
                        .expect("MIS maximality guarantees a center within r hops")
                };
                load[c] += 1;
            }
            let min_gathered = centers.iter().map(|&c| load[c]).min().unwrap_or(0);
            if let Ok(plan) = plan_and_rule(n, ell, epsilon, p) {
                if plan.samples_per_node <= min_gathered {
                    let inner = GapTester::with_samples(n, plan.samples_per_run)?;
                    let node_tester = RepeatedGapTester::new(inner, plan.m)?;
                    return Ok(LocalUniformityTester {
                        k,
                        radius: r,
                        virtual_plan: plan,
                        node_tester,
                    });
                }
            }
            r = (r + 2).max(r * 3 / 2);
        }
        Err(PlanError::NetworkTooSmall {
            k,
            required: ((n as f64).sqrt() / epsilon.powi(2)).ceil() as usize,
        })
    }

    /// The gathering radius `r`.
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// The AND-rule plan applied to the MIS virtual nodes.
    pub fn plan_details(&self) -> &AndPlan {
        &self.virtual_plan
    }

    /// The paper's §6 round formula with Θ-constants set to 1:
    /// `((C_p/ε²)·√(n/k^{ε²/C_p}))^{1/(1−ε²/C_p)}`.
    pub fn theory_rounds(n: usize, k: usize, epsilon: f64, p: f64) -> f64 {
        let cp = dut_core::params::c_p(p);
        let e2 = epsilon * epsilon;
        let inner = (cp / e2) * (n as f64 / (k as f64).powf(e2 / cp)).sqrt();
        inner.powf(1.0 / (1.0 - e2 / cp))
    }

    /// Runs the full LOCAL protocol on `g` with per-node samples drawn
    /// from `oracle`.
    ///
    /// # Errors
    ///
    /// Checked before any sample is drawn:
    /// [`EngineError::NodeCountMismatch`] if `g`'s node count differs
    /// from the planned `k`, and [`EngineError::Unreached`] (naming the
    /// lowest-numbered node that node 0 cannot reach) if `g` is
    /// disconnected.
    pub fn run<O, R>(
        &self,
        g: &Graph,
        oracle: &O,
        rng: &mut R,
    ) -> Result<LocalRunResult, EngineError>
    where
        O: SampleOracle + ?Sized,
        R: Rng + ?Sized,
    {
        self.run_observed(g, oracle, rng, &mut NoopSink)
    }

    /// [`LocalUniformityTester::run`] recording `local.*` counters (and
    /// the per-center `core.gap.*` / `core.amplify.*` metrics) into
    /// `sink`. The sink never touches the RNG, so decisions are
    /// bit-identical to the unobserved run on the same seed.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LocalUniformityTester::run`].
    #[allow(clippy::needless_range_loop)]
    pub fn run_observed<O, R>(
        &self,
        g: &Graph,
        oracle: &O,
        rng: &mut R,
        sink: &mut dyn Sink,
    ) -> Result<LocalRunResult, EngineError>
    where
        O: SampleOracle + ?Sized,
        R: Rng + ?Sized,
    {
        if g.node_count() != self.k {
            return Err(EngineError::NodeCountMismatch {
                graph_nodes: g.node_count(),
                states: self.k,
            });
        }
        if let Some(node) = g.bfs_distances(0).iter().position(Option::is_none) {
            return Err(EngineError::Unreached { node });
        }

        // Each node draws one sample.
        let samples: Vec<usize> = (0..self.k).map(|_| oracle.draw(rng)).collect();

        // Step 1: MIS on G^r. Each Luby phase costs O(r) rounds of G
        // (a G^r-neighbor is r hops away).
        let gr = power_graph(g, self.radius);
        let mis = luby_mis(&gr, rng);
        debug_assert!(verify_mis(&gr, &mis.in_mis));
        let mis_rounds = self.radius * mis.phases;

        // Step 2: every non-MIS node picks the nearest MIS node in its
        // r-neighborhood (ties by id) ...
        let mut center_of = vec![usize::MAX; self.k];
        for v in 0..self.k {
            if mis.in_mis[v] {
                center_of[v] = v;
                continue;
            }
            // Nearest MIS node within N^r(v): scan the BFS order.
            let center = neighborhood(g, v, self.radius)
                .into_iter()
                .find(|&u| mis.in_mis[u])
                .expect("MIS maximality guarantees a center within r hops");
            center_of[v] = center;
        }
        // ... and routes its sample there over the actual graph, as a
        // message-passing protocol on the round engine (LOCAL model:
        // unbounded messages, so one parcel batch per round suffices).
        let payloads: Vec<Vec<u64>> = samples.iter().map(|&s| vec![s as u64]).collect();
        let (delivered, routing_rounds) =
            route_to_centers(g, &center_of, &payloads, BandwidthModel::Local, usize::MAX)?;
        let gathered: Vec<Vec<usize>> = delivered
            .into_iter()
            .map(|values| values.into_iter().map(|v| v as usize).collect())
            .collect();
        let rounds = mis_rounds + routing_rounds;

        // Step 3: MIS nodes vote with the planned AND-rule tester;
        // everyone else accepts. One collision scratch serves all votes.
        let mut collision = CollisionScratch::with_domain(self.virtual_plan.n);
        let mut rejecting = 0usize;
        let mut mis_size = 0usize;
        let mut min_gathered = usize::MAX;
        for v in 0..self.k {
            if !mis.in_mis[v] {
                continue;
            }
            mis_size += 1;
            min_gathered = min_gathered.min(gathered[v].len());
            if gathered[v].len() < self.node_tester.samples() {
                // An under-supplied center (possible when this run's MIS
                // differs from the planning pilot's) cannot run its
                // tester and accepts — completeness is unaffected.
                continue;
            }
            if self
                .node_tester
                .run_on_samples_observed(&gathered[v], &mut collision, sink)
                == Decision::Reject
            {
                rejecting += 1;
            }
        }

        if sink.enabled() {
            sink.add(keys::LOCAL_RUNS, 1);
            sink.add(keys::LOCAL_ROUNDS, rounds as u64);
            sink.add(keys::LOCAL_MIS_SIZE, mis_size as u64);
            sink.add(keys::LOCAL_MIN_GATHERED, min_gathered as u64);
        }

        Ok(LocalRunResult {
            outcome: NetworkOutcome {
                decision: DecisionRule::And.decide(rejecting),
                rejecting_nodes: rejecting,
                nodes: mis_size,
            },
            mis_size,
            min_gathered,
            rounds,
            radius: self.radius,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dut_distributions::families::paninski_far;
    use dut_distributions::DiscreteDistribution;
    use dut_netsim::topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const N: usize = 1 << 16;
    const K: usize = 4_096;
    const EPS: f64 = 0.75;

    #[test]
    fn plan_radius_supports_sample_need() {
        let t = LocalUniformityTester::plan(N, K, EPS, 1.0 / 3.0).unwrap();
        assert!(t.plan_details().samples_per_node <= t.radius() / 2);
    }

    #[test]
    fn plan_fails_when_network_too_small() {
        let err = LocalUniformityTester::plan(1 << 24, 8, 0.3, 1.0 / 3.0).unwrap_err();
        assert!(matches!(err, PlanError::NetworkTooSmall { .. }));
    }

    #[test]
    fn centers_gather_at_least_r_over_2() {
        // §6: each MIS node receives all samples in its r/2-neighborhood,
        // and a connected graph has |N^t(v)| >= t+1.
        let t = LocalUniformityTester::plan(N, K, EPS, 1.0 / 3.0).unwrap();
        let g = topology::grid(64, 64);
        let uniform = DiscreteDistribution::uniform(N);
        let mut rng = StdRng::seed_from_u64(1);
        let r = t.run(&g, &uniform, &mut rng).unwrap();
        assert!(
            r.min_gathered >= t.radius() / 2,
            "min gathered {} below r/2 = {}",
            r.min_gathered,
            t.radius() / 2
        );
    }

    #[test]
    fn mis_size_bounded_by_2k_over_r() {
        let t = LocalUniformityTester::plan(N, K, EPS, 1.0 / 3.0).unwrap();
        let g = topology::grid(64, 64);
        let uniform = DiscreteDistribution::uniform(N);
        let mut rng = StdRng::seed_from_u64(2);
        let r = t.run(&g, &uniform, &mut rng).unwrap();
        assert!(
            r.mis_size <= 2 * K / t.radius(),
            "MIS size {} above 2k/r = {}",
            r.mis_size,
            2 * K / t.radius()
        );
    }

    #[test]
    fn accepts_uniform_on_grid() {
        let t = LocalUniformityTester::plan(N, K, EPS, 1.0 / 3.0).unwrap();
        let g = topology::grid(64, 64);
        let uniform = DiscreteDistribution::uniform(N);
        let mut rng = StdRng::seed_from_u64(3);
        let trials = 15;
        let errors = (0..trials)
            .filter(|_| t.run(&g, &uniform, &mut rng).unwrap().outcome.decision == Decision::Reject)
            .count();
        // Completeness is protected by construction.
        assert!(errors <= trials / 3 + 1, "false alarms {errors}/{trials}");
    }

    #[test]
    fn separates_far_from_uniform_on_line() {
        let t = LocalUniformityTester::plan(N, K, EPS, 1.0 / 3.0).unwrap();
        let g = topology::line(K);
        let uniform = DiscreteDistribution::uniform(N);
        let far = paninski_far(N, EPS).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let trials = 30;
        // The AND rule's soundness signal is weak at simulatable scale
        // (the paper's "1/2 + Θ(ε²)" regime), so aggregate per-center
        // alarms across trials rather than comparing network verdicts.
        let alarms = |d: &DiscreteDistribution, rng: &mut StdRng| -> usize {
            (0..trials)
                .map(|_| t.run(&g, d, rng).unwrap().outcome.rejecting_nodes)
                .sum()
        };
        let au = alarms(&uniform, &mut rng);
        let af = alarms(&far, &mut rng);
        assert!(
            af > au,
            "no separation on line: far alarms {af} vs uniform alarms {au}"
        );
    }

    #[test]
    fn rounds_scale_with_radius() {
        let t = LocalUniformityTester::plan(N, K, EPS, 1.0 / 3.0).unwrap();
        let g = topology::grid(64, 64);
        let uniform = DiscreteDistribution::uniform(N);
        let mut rng = StdRng::seed_from_u64(5);
        let r = t.run(&g, &uniform, &mut rng).unwrap();
        // rounds = r * (phases + 1); Luby phases are O(log k).
        assert!(r.rounds >= t.radius());
        assert!(
            r.rounds <= t.radius() * 40,
            "rounds {} >> r * O(log k)",
            r.rounds
        );
    }

    #[test]
    fn observed_run_matches_and_records() {
        let t = LocalUniformityTester::plan(N, K, EPS, 1.0 / 3.0).unwrap();
        let g = topology::grid(64, 64);
        let uniform = DiscreteDistribution::uniform(N);

        let mut rng = StdRng::seed_from_u64(7);
        let plain = t.run(&g, &uniform, &mut rng).unwrap();

        let mut rng = StdRng::seed_from_u64(7);
        let mut sink = dut_obs::MemorySink::new();
        let observed = t.run_observed(&g, &uniform, &mut rng, &mut sink).unwrap();

        assert_eq!(plain.outcome.decision, observed.outcome.decision);
        assert_eq!(plain.mis_size, observed.mis_size);
        assert_eq!(plain.rounds, observed.rounds);

        assert_eq!(sink.counter(keys::LOCAL_RUNS), 1);
        assert_eq!(sink.counter(keys::LOCAL_ROUNDS), observed.rounds as u64);
        assert_eq!(sink.counter(keys::LOCAL_MIS_SIZE), observed.mis_size as u64);
        assert_eq!(
            sink.counter(keys::LOCAL_MIN_GATHERED),
            observed.min_gathered as u64
        );
        // Every sufficiently-supplied MIS center ran its amplified tester.
        assert!(sink.counter(keys::CORE_AMPLIFY_RUNS) >= 1);
        assert!(sink.counter(keys::CORE_AMPLIFY_RUNS) <= observed.mis_size as u64);
        assert!(sink.counter(keys::CORE_GAP_SAMPLES) > 0);
    }

    #[test]
    fn wrong_graph_size_is_a_typed_error() {
        let t = LocalUniformityTester::plan(N, K, EPS, 1.0 / 3.0).unwrap();
        let g = topology::grid(32, 32);
        let uniform = DiscreteDistribution::uniform(N);
        let mut rng = StdRng::seed_from_u64(8);
        let err = t.run(&g, &uniform, &mut rng).unwrap_err();
        assert_eq!(
            err,
            EngineError::NodeCountMismatch {
                graph_nodes: 1024,
                states: K
            }
        );
        // Checked before any sample is drawn.
        assert_eq!(rng.gen::<u64>(), StdRng::seed_from_u64(8).gen::<u64>());
    }

    #[test]
    fn plan_for_graph_rejects_a_disconnected_graph() {
        // Two disjoint 4-node paths.
        let mut g = Graph::new(8);
        for v in [0, 1, 2, 4, 5, 6] {
            g.add_edge(v, v + 1);
        }
        let mut rng = StdRng::seed_from_u64(10);
        let err =
            LocalUniformityTester::plan_for_graph(N, &g, EPS, 1.0 / 3.0, &mut rng).unwrap_err();
        assert_eq!(
            err,
            PlanError::Infeasible {
                condition: "connected graph",
                detail: "node 4 is unreachable from node 0".into(),
            }
        );
        // Checked before any draw.
        assert_eq!(rng.gen::<u64>(), StdRng::seed_from_u64(10).gen::<u64>());
    }

    #[test]
    fn disconnected_graph_is_a_typed_error() {
        let t = LocalUniformityTester::plan(N, K, EPS, 1.0 / 3.0).unwrap();
        // The 64x64 grid cut into two halves: nodes 0..2048 and the rest.
        let mut g = Graph::new(K);
        for (u, v) in topology::grid(64, 64).edges() {
            if (u < K / 2) == (v < K / 2) {
                g.add_edge(u, v);
            }
        }
        let uniform = DiscreteDistribution::uniform(N);
        let mut rng = StdRng::seed_from_u64(9);
        let err = t.run(&g, &uniform, &mut rng).unwrap_err();
        assert_eq!(err, EngineError::Unreached { node: K / 2 });
        assert_eq!(rng.gen::<u64>(), StdRng::seed_from_u64(9).gen::<u64>());
    }

    #[test]
    fn theory_rounds_formula_behaves() {
        // Tends to the centralized √n/ε² gathering cost as ε shrinks;
        // larger ε means fewer rounds.
        let small_eps = LocalUniformityTester::theory_rounds(1 << 16, 4096, 0.3, 1.0 / 3.0);
        let large_eps = LocalUniformityTester::theory_rounds(1 << 16, 4096, 0.9, 1.0 / 3.0);
        assert!(small_eps > large_eps);
    }
}
