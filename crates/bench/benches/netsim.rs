//! Criterion bench: the network-simulator substrate.
//!
//! The `netsim_engine` and `netsim_montecarlo` groups compare the
//! retained naive reference engine (`before`) against the flat-buffer
//! engine (`after` on a fresh network, plus a reused-network variant);
//! their
//! numbers are recorded in `BENCH_netsim.json` at the repo root.
//!
//! `--metrics out.jsonl` skips Criterion and instead runs each engine
//! scenario once with a recording sink, appending one `dut-metrics/1`
//! record per scenario (see `docs/METRICS.md`):
//!
//! ```text
//! cargo bench -p dut-bench --bench netsim -- --metrics netsim.jsonl
//! ```

use criterion::{criterion_group, BenchmarkId, Criterion};
use dut_core::decision::Decision;
use dut_core::gap::GapTester;
use dut_core::montecarlo::{trial_rng, MonteCarlo};
use dut_core::scratch::TesterScratch;
use dut_distributions::DiscreteDistribution;
use dut_netsim::algorithms::bfs::build_bfs_tree;
use dut_netsim::algorithms::convergecast::convergecast_sum;
use dut_netsim::algorithms::distributed_mis::distributed_luby_mis;
use dut_netsim::algorithms::leader::elect_leader;
use dut_netsim::algorithms::routing::route_to_centers;
use dut_netsim::engine::{BandwidthModel, Network, NodeProtocol, Outbox};
use dut_netsim::fault::FaultPlan;
use dut_netsim::graph::{ImplicitTopology, NodeId};
use dut_netsim::reference::run_reference;
use dut_netsim::topology::{self, Torus2d};
use dut_obs::{JsonlWriter, MemorySink, NoopSink, RunRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::Path;

/// All-to-all gossip: every node broadcasts its running maximum for a
/// fixed number of rounds. On a clique this is the densest message load
/// the engine can see (k·(k−1) messages per round).
#[derive(Clone)]
struct Gossip {
    best: u64,
    rounds_left: u32,
}

impl NodeProtocol for Gossip {
    type Msg = u64;
    fn on_round(
        &mut self,
        _node: NodeId,
        _round: usize,
        inbox: &[(NodeId, u64)],
        out: &mut Outbox<'_, u64>,
    ) {
        for &(_, v) in inbox {
            self.best = self.best.max(v);
        }
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            out.broadcast(self.best);
        }
    }
    fn is_done(&self) -> bool {
        self.rounds_left == 0
    }
}

/// BFS distance wavefront from node 0 — on a long line this stresses
/// per-round fixed costs (thousands of rounds, few messages each).
#[derive(Clone)]
struct Bfs {
    dist: Option<u64>,
}

impl NodeProtocol for Bfs {
    type Msg = u64;
    fn on_round(
        &mut self,
        node: NodeId,
        round: usize,
        inbox: &[(NodeId, u64)],
        out: &mut Outbox<'_, u64>,
    ) {
        if self.dist.is_some() {
            return;
        }
        if node == 0 && round == 0 {
            self.dist = Some(0);
            out.broadcast(1);
        } else if let Some(&d) = inbox.iter().map(|(_, d)| d).min() {
            self.dist = Some(d);
            out.broadcast(d + 1);
        }
    }
    fn is_done(&self) -> bool {
        self.dist.is_some()
    }
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("netsim_engine");
    group.sample_size(10);

    // 256-node clique, 8 rounds of all-to-all gossip (~522k messages).
    let clique = topology::complete(256);
    let gossip_states = |k: usize| -> Vec<Gossip> {
        (0..k)
            .map(|v| Gossip {
                best: v as u64,
                rounds_left: 8,
            })
            .collect()
    };
    let none = FaultPlan::none();
    group.bench_function("clique256_broadcast/before_reference", |b| {
        b.iter(|| {
            let states = gossip_states(256);
            let model = BandwidthModel::Local;
            black_box(run_reference(&clique, model, states, 32, &none, &mut NoopSink).unwrap())
        })
    });
    group.bench_function("clique256_broadcast/after_flat", |b| {
        // A fresh network per run: a cold run, buffers allocated anew.
        b.iter(|| {
            let mut net = Network::new(&clique, BandwidthModel::Local);
            black_box(
                net.run(gossip_states(256), 32, &none, &mut NoopSink)
                    .unwrap(),
            )
        })
    });
    group.bench_function("clique256_broadcast/after_flat_scratch", |b| {
        let mut net = Network::new(&clique, BandwidthModel::Local);
        b.iter(|| {
            black_box(
                net.run(gossip_states(256), 32, &none, &mut NoopSink)
                    .unwrap(),
            )
        })
    });

    // 4096-node line BFS: ~4k rounds of a 1-node wavefront, dominated
    // by per-round fixed costs and inbox bookkeeping.
    let line = topology::line(4096);
    let bfs_states = |k: usize| vec![Bfs { dist: None }; k];
    group.bench_function("line4096_bfs/before_reference", |b| {
        b.iter(|| {
            let states = bfs_states(4096);
            let model = BandwidthModel::Local;
            black_box(run_reference(&line, model, states, 8192, &none, &mut NoopSink).unwrap())
        })
    });
    group.bench_function("line4096_bfs/after_flat_scratch", |b| {
        let mut net = Network::new(&line, BandwidthModel::Local);
        b.iter(|| {
            black_box(
                net.run(bfs_states(4096), 8192, &none, &mut NoopSink)
                    .unwrap(),
            )
        })
    });

    group.finish();
}

fn bench_montecarlo(c: &mut Criterion) {
    let mut group = c.benchmark_group("netsim_montecarlo");
    group.sample_size(10);

    // Monte-Carlo failure-rate estimation end to end: the allocating
    // tester (per-trial sample Vec + sort) vs the scratch-reusing one.
    let n = 1 << 16;
    let tester = GapTester::new(n, 0.05).unwrap();
    let uniform = DiscreteDistribution::uniform(n);
    let trials = 20_000;
    group.bench_function("mc_gap_20k/before_alloc", |b| {
        b.iter(|| {
            black_box(
                MonteCarlo::new(trials, 7)
                    .run(|seed| {
                        let mut rng = trial_rng(seed);
                        tester.run(&uniform, &mut rng) == Decision::Reject
                    })
                    .expect("trials > 0"),
            )
        })
    });
    group.bench_function("mc_gap_20k/after_scratch", |b| {
        b.iter(|| {
            black_box(
                MonteCarlo::new(trials, 7)
                    .run_with_state(TesterScratch::new, |seed, scratch| {
                        let mut rng = trial_rng(seed);
                        tester.run_with_scratch(&uniform, &mut rng, scratch) == Decision::Reject
                    })
                    .expect("trials > 0"),
            )
        })
    });

    group.finish();
}

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("netsim_primitives");
    group.sample_size(20);
    for &k in &[1_000usize, 10_000] {
        let g = topology::balanced_binary_tree(k);
        group.bench_with_input(BenchmarkId::new("bfs_tree", k), &k, |b, _| {
            b.iter(|| black_box(build_bfs_tree(&g, 0, BandwidthModel::Local).unwrap()))
        });
        let (tree, _) = build_bfs_tree(&g, 0, BandwidthModel::Local).unwrap();
        let values = vec![1u64; k];
        group.bench_with_input(BenchmarkId::new("convergecast", k), &k, |b, _| {
            b.iter(|| {
                black_box(convergecast_sum(&g, &tree, &values, BandwidthModel::Local).unwrap())
            })
        });
        let ids: Vec<u64> = (0..k as u64).collect();
        group.bench_with_input(BenchmarkId::new("leader_election", k), &k, |b, _| {
            b.iter(|| black_box(elect_leader(&g, &ids, BandwidthModel::Local).unwrap()))
        });
    }
    // The CONGEST tester's leader flood on the benchmark torus: seeded
    // ids from the k² namespace, redrawn until the maximum is unique.
    let torus = Torus2d::new(110, 110);
    let k = torus.node_count();
    let mut rng = StdRng::seed_from_u64(1);
    let ids = loop {
        let ids: Vec<u64> = (0..k).map(|_| rng.gen_range(0..(k * k) as u64)).collect();
        let max = *ids.iter().max().expect("the torus has nodes");
        if ids.iter().filter(|&&i| i == max).count() == 1 {
            break ids;
        }
    };
    let model = BandwidthModel::congest_for(k);
    group.bench_function("torus110_leader_flood", |b| {
        b.iter(|| black_box(elect_leader(&torus, &ids, model).unwrap()))
    });
    group.finish();
}

fn bench_mis_and_routing(c: &mut Criterion) {
    let mut group = c.benchmark_group("netsim_mis_routing");
    group.sample_size(10);
    let g = topology::grid(40, 40);
    group.bench_function("distributed_luby_1600", |b| {
        b.iter(|| black_box(distributed_luby_mis(&g, BandwidthModel::Local, 1).unwrap()))
    });
    let k = g.node_count();
    let center_of = vec![0usize; k];
    let payloads: Vec<Vec<u64>> = (0..k as u64).map(|v| vec![v]).collect();
    group.bench_function("route_all_to_corner_1600", |b| {
        b.iter(|| {
            black_box(
                route_to_centers(&g, &center_of, &payloads, BandwidthModel::Local, usize::MAX)
                    .unwrap(),
            )
        })
    });
    group.finish();
}

/// The `--metrics` mode: one observed execution per engine scenario,
/// one `dut-metrics/1` record each, pairing the engine's `RunReport`
/// totals with the sink's `netsim.*` / `reference.*` counters and
/// per-round histograms. The scenarios mirror the `netsim_engine`
/// Criterion group so a record can be read next to `BENCH_netsim.json`.
fn run_metrics(path: &Path) -> std::io::Result<()> {
    let mut w = JsonlWriter::create(path)?;
    let gossip_states = |k: usize| -> Vec<Gossip> {
        (0..k)
            .map(|v| Gossip {
                best: v as u64,
                rounds_left: 8,
            })
            .collect()
    };
    let bfs_states = |k: usize| vec![Bfs { dist: None }; k];
    let mut sink = MemorySink::new();
    let record = |w: &mut JsonlWriter,
                  sink: &MemorySink,
                  case: &str,
                  k: usize,
                  rounds: usize,
                  messages: usize,
                  bits: usize|
     -> std::io::Result<()> {
        let rec = RunRecord::new("bench.netsim", case)
            .param("k", k)
            .param("rounds", rounds)
            .param("messages", messages)
            .param("bits", bits);
        w.write(&rec, sink)
    };

    // 256-node clique, 8 rounds of all-to-all gossip.
    let clique = topology::complete(256);
    let none = FaultPlan::none();
    let r = run_reference(
        &clique,
        BandwidthModel::Local,
        gossip_states(256),
        32,
        &none,
        &mut sink,
    )
    .unwrap();
    record(
        &mut w,
        &sink,
        "clique256_broadcast/before_reference",
        256,
        r.rounds,
        r.total_messages,
        r.total_bits,
    )?;
    sink.reset();
    let mut net = Network::new(&clique, BandwidthModel::Local);
    let r = net
        .run(gossip_states(256), 32, &FaultPlan::none(), &mut sink)
        .unwrap();
    record(
        &mut w,
        &sink,
        "clique256_broadcast/after_flat",
        256,
        r.rounds,
        r.total_messages,
        r.total_bits,
    )?;

    // 4096-node line BFS wavefront.
    let line = topology::line(4096);
    sink.reset();
    let r = run_reference(
        &line,
        BandwidthModel::Local,
        bfs_states(4096),
        8192,
        &none,
        &mut sink,
    )
    .unwrap();
    record(
        &mut w,
        &sink,
        "line4096_bfs/before_reference",
        4096,
        r.rounds,
        r.total_messages,
        r.total_bits,
    )?;
    sink.reset();
    let mut net = Network::new(&line, BandwidthModel::Local);
    let r = net
        .run(bfs_states(4096), 8192, &FaultPlan::none(), &mut sink)
        .unwrap();
    record(
        &mut w,
        &sink,
        "line4096_bfs/after_flat_scratch",
        4096,
        r.rounds,
        r.total_messages,
        r.total_bits,
    )?;

    w.flush()
}

criterion_group!(
    benches,
    bench_engine,
    bench_montecarlo,
    bench_primitives,
    bench_mis_and_routing
);

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(at) = args.iter().position(|a| a == "--metrics") {
        let path = args.get(at + 1).expect("--metrics needs a path");
        run_metrics(Path::new(path)).expect("failed to write metrics");
        eprintln!("wrote {path}");
        return;
    }
    let mut c = Criterion::default().configure_from_args();
    benches(&mut c);
    c.final_summary();
}
