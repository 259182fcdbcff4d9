//! Criterion micro-benchmarks of the suite's hot paths: token-set
//! algebra, schedule replay/pruning, bounds, one planning step of each
//! heuristic, and the exact solvers on small instances.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use ocd_core::knowledge::AggregateKnowledge;
use ocd_core::rlnc::RlncInstance;
use ocd_core::scenario::{figure_one, single_file};
use ocd_core::{bounds, prune, Token, TokenSet};
use ocd_graph::generate::{classic, paper_random};
use ocd_heuristics::{simulate, SimConfig, StrategyKind, WorldView};
use ocd_lp::MipOptions;
use ocd_net::{run_coded_swarm, run_swarm, FaultPlan, NetConfig, NetPolicy};
use ocd_solver::bnb::{solve_focd, BnbOptions};
use ocd_solver::ip::min_bandwidth_for_horizon;
use rand::prelude::*;

fn bench_tokenset(c: &mut Criterion) {
    let mut group = c.benchmark_group("tokenset");
    // 128 is the largest universe stored inline, 129 the smallest boxed.
    for &m in &[64usize, 128, 129, 512, 4096] {
        let a = TokenSet::from_tokens(m, (0..m).step_by(3).map(Token::new));
        let b = TokenSet::from_tokens(m, (0..m).step_by(5).map(Token::new));
        group.bench_with_input(BenchmarkId::new("clone", m), &m, |bench, _| {
            bench.iter(|| std::hint::black_box(a.clone()));
        });
        group.bench_with_input(BenchmarkId::new("difference_len", m), &m, |bench, _| {
            bench.iter(|| std::hint::black_box(a.difference_len(&b)));
        });
        group.bench_with_input(BenchmarkId::new("union", m), &m, |bench, _| {
            bench.iter(|| std::hint::black_box(a.union(&b)));
        });
        group.bench_with_input(BenchmarkId::new("iterate", m), &m, |bench, _| {
            bench.iter(|| a.iter().map(Token::index).sum::<usize>());
        });
    }
    group.finish();
}

fn medium_report() -> (ocd_core::Instance, ocd_core::Schedule) {
    let mut rng = StdRng::seed_from_u64(5);
    let topology = paper_random(60, &mut rng);
    let instance = single_file(topology, 60, 0);
    let mut strategy = StrategyKind::Random.build();
    let report = simulate(
        &instance,
        strategy.as_mut(),
        &SimConfig::default(),
        &mut rng,
    );
    assert!(report.success);
    (instance, report.schedule)
}

fn bench_schedule_ops(c: &mut Criterion) {
    let (instance, schedule) = medium_report();
    let mut group = c.benchmark_group("schedule");
    group.bench_function("replay_validate", |b| {
        b.iter(|| ocd_core::validate::replay(&instance, &schedule).unwrap());
    });
    group.bench_function("prune", |b| {
        b.iter(|| prune::prune(&instance, &schedule));
    });
    group.bench_function("bandwidth_lower_bound", |b| {
        b.iter(|| bounds::bandwidth_lower_bound(&instance));
    });
    group.bench_function("makespan_lower_bound", |b| {
        b.iter(|| bounds::makespan_lower_bound(&instance));
    });
    group.finish();
}

fn bench_strategy_step(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    let topology = paper_random(100, &mut rng);
    let instance = single_file(topology, 100, 0);
    let possession: Vec<TokenSet> = instance.have_all().to_vec();
    let aggregates = AggregateKnowledge::compute(100, &possession, instance.want_all());
    let g = instance.graph();
    let caps: Vec<u32> = g.edge_ids().map(|e| g.capacity(e)).collect();
    let mut group = c.benchmark_group("strategy_first_step_n100_m100");
    for kind in StrategyKind::paper_five() {
        group.bench_function(kind.name(), |b| {
            b.iter_batched(
                || {
                    let mut s = kind.build();
                    s.reset(&instance);
                    (s, StdRng::seed_from_u64(1))
                },
                |(mut s, mut step_rng)| {
                    let view = WorldView {
                        instance: &instance,
                        possession: &possession,
                        aggregates: &aggregates,
                        step: 0,
                        capacities: &caps,
                    };
                    std::hint::black_box(s.plan_step(&view, &mut step_rng))
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// Sends exactly one token from the seeder to one neighbour per step,
/// cycling through (arc, token) pairs. Planning is O(1), so a run's
/// cost is almost entirely the engine's own step-loop bookkeeping —
/// exactly what the incremental-aggregates rework targets.
struct DripFeed {
    source: usize,
    out_edges: Vec<ocd_graph::EdgeId>,
}

impl DripFeed {
    fn new() -> Self {
        DripFeed {
            source: 0,
            out_edges: Vec::new(),
        }
    }
}

impl ocd_heuristics::Strategy for DripFeed {
    fn name(&self) -> &'static str {
        "drip-feed"
    }
    fn tier(&self) -> ocd_heuristics::KnowledgeTier {
        ocd_heuristics::KnowledgeTier::Global
    }
    fn reset(&mut self, instance: &ocd_core::Instance) {
        self.source = instance
            .have_all()
            .iter()
            .position(|h| !h.is_empty())
            .expect("instance has a seeder");
        let g = instance.graph();
        self.out_edges = g
            .edge_ids()
            .filter(|&e| g.edge(e).src.index() == self.source)
            .collect();
    }
    fn plan_step(
        &mut self,
        view: &WorldView<'_>,
        _rng: &mut dyn rand::RngCore,
    ) -> Vec<(ocd_graph::EdgeId, TokenSet)> {
        let m = view.instance.num_tokens();
        let edge = self.out_edges[view.step % self.out_edges.len()];
        let token = Token::new((view.step / self.out_edges.len()) % m);
        vec![(edge, TokenSet::from_tokens(m, [token]))]
    }
}

/// Wraps a strategy and redoes, in every `plan_step`, the three full
/// O(n·m) rescans the engine performed per step before the incremental
/// aggregates landed: `AggregateKnowledge::compute`, the
/// `remaining_need` sum, and the per-vertex completion check.
/// Benchmarking `simulate` with and without this wrapper isolates the
/// cost the incremental counters removed.
struct RecomputeEveryStep<S>(S);

impl<S: ocd_heuristics::Strategy> ocd_heuristics::Strategy for RecomputeEveryStep<S> {
    fn name(&self) -> &'static str {
        "recompute-every-step"
    }
    fn tier(&self) -> ocd_heuristics::KnowledgeTier {
        self.0.tier()
    }
    fn reset(&mut self, instance: &ocd_core::Instance) {
        self.0.reset(instance);
    }
    fn plan_step(
        &mut self,
        view: &WorldView<'_>,
        rng: &mut dyn rand::RngCore,
    ) -> Vec<(ocd_graph::EdgeId, TokenSet)> {
        let want = view.instance.want_all();
        std::hint::black_box(AggregateKnowledge::compute(
            view.instance.num_tokens(),
            view.possession,
            want,
        ));
        std::hint::black_box(
            want.iter()
                .zip(view.possession)
                .map(|(w, p)| w.difference_len(p) as u64)
                .sum::<u64>(),
        );
        std::hint::black_box(
            want.iter()
                .zip(view.possession)
                .filter(|(w, p)| w.is_subset(p))
                .count(),
        );
        self.0.plan_step(view, rng)
    }
    fn may_idle(&self, step: usize) -> bool {
        self.0.may_idle(step)
    }
}

fn bench_engine_step_loop(c: &mut Criterion) {
    // The ISSUE's acceptance workload: 200 vertices, 256 tokens. The
    // drip-feed strategy keeps planning and delivery cost negligible, so
    // the two arms differ only in the engine-side per-step work.
    let mut rng = StdRng::seed_from_u64(11);
    let topology = paper_random(200, &mut rng);
    let instance = single_file(topology, 256, 0);
    let config = SimConfig {
        max_steps: 256,
        ..SimConfig::default()
    };
    let mut group = c.benchmark_group("engine_step_loop_n200_m256");
    group.sample_size(10);
    group.bench_function("incremental", |b| {
        b.iter_batched(
            || (DripFeed::new(), StdRng::seed_from_u64(1)),
            |(mut s, mut run_rng)| {
                let report = simulate(&instance, &mut s, &config, &mut run_rng);
                assert_eq!(report.steps, 256);
                report.bandwidth
            },
            BatchSize::SmallInput,
        );
    });
    group.bench_function("recompute_reference", |b| {
        b.iter_batched(
            || {
                (
                    RecomputeEveryStep(DripFeed::new()),
                    StdRng::seed_from_u64(1),
                )
            },
            |(mut s, mut run_rng)| {
                let report = simulate(&instance, &mut s, &config, &mut run_rng);
                assert_eq!(report.steps, 256);
                report.bandwidth
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

/// The three transmission media on the same n=200/m=256 drip-feed
/// workload as `engine_step_loop`: the run cost is dominated by the
/// engine's per-step bookkeeping, so the arms expose how much each
/// medium adds on top of the ideal (static-capacity) loop. The
/// physical-underlay arm uses an identity mapping (every overlay arc
/// rides its own dedicated physical arc), so admission control runs at
/// full tilt without changing the schedule.
fn bench_engine_mediums(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    let topology = paper_random(200, &mut rng);
    let instance = single_file(topology.clone(), 256, 0);
    let config = SimConfig {
        max_steps: 256,
        ..SimConfig::default()
    };
    let hosts: Vec<ocd_graph::NodeId> = topology.nodes().collect();
    let underlay = ocd_graph::underlay::Underlay::new(topology.clone(), hosts).unwrap();
    let mapping = underlay.map_overlay(&topology).unwrap();

    let mut group = c.benchmark_group("engine_mediums_n200_m256");
    group.sample_size(10);
    group.bench_function("ideal", |b| {
        b.iter_batched(
            || (DripFeed::new(), StdRng::seed_from_u64(1)),
            |(mut s, mut run_rng)| {
                let report = simulate(&instance, &mut s, &config, &mut run_rng);
                assert_eq!(report.steps, 256);
                report.bandwidth
            },
            BatchSize::SmallInput,
        );
    });
    group.bench_function("dynamic_cross_traffic", |b| {
        b.iter_batched(
            || {
                (
                    DripFeed::new(),
                    ocd_heuristics::dynamics::CrossTraffic::new(0.5),
                    StdRng::seed_from_u64(1),
                )
            },
            |(mut s, mut d, mut run_rng)| {
                let mut medium = ocd_heuristics::Dynamic::new(&mut d);
                let outcome = ocd_heuristics::simulate_with(
                    &instance,
                    &mut s,
                    &mut medium,
                    &config,
                    &mut run_rng,
                );
                assert_eq!(outcome.report.steps, 256);
                outcome.report.bandwidth
            },
            BatchSize::SmallInput,
        );
    });
    group.bench_function("physical_underlay", |b| {
        b.iter_batched(
            || (DripFeed::new(), StdRng::seed_from_u64(1)),
            |(mut s, mut run_rng)| {
                let mut medium = ocd_heuristics::PhysicalUnderlay::new(&topology, &mapping);
                let outcome = ocd_heuristics::simulate_with(
                    &instance,
                    &mut s,
                    &mut medium,
                    &config,
                    &mut run_rng,
                );
                assert_eq!(outcome.report.steps, 256);
                outcome.report.bandwidth
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

/// The asynchronous swarm runtime end to end: one ideal-mode run and
/// one degraded run (latency, loss, retries) on the same n=60/m=64
/// instance. The spread between the arms is the cost of the
/// retry/timeout machinery; the `net.tick` span phases break the same
/// runs down further under `ocd trace`-style profiling.
fn bench_net_swarm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let topology = paper_random(60, &mut rng);
    let instance = single_file(topology, 64, 0);
    let mut group = c.benchmark_group("net_swarm_n60_m64");
    group.sample_size(10);
    let ideal = NetConfig::default();
    group.bench_function("ideal", |b| {
        b.iter_batched(
            || StdRng::seed_from_u64(1),
            |mut run_rng| {
                let report = run_swarm(&instance, &ideal, &FaultPlan::none(), &mut run_rng);
                assert!(report.success);
                report.ticks
            },
            BatchSize::SmallInput,
        );
    });
    let degraded = NetConfig {
        policy: NetPolicy::Local,
        latency: 2,
        loss: 0.05,
        ..NetConfig::default()
    };
    group.bench_function("degraded_lossy", |b| {
        b.iter_batched(
            || StdRng::seed_from_u64(1),
            |mut run_rng| {
                let report = run_swarm(&instance, &degraded, &FaultPlan::none(), &mut run_rng);
                assert!(report.success);
                report.ticks
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

/// The RLNC coded swarm: GF(2^8) row reduction dominates, so this
/// group tracks the coding hot path (`coded.deliver_data` in span
/// terms) rather than protocol bookkeeping.
fn bench_coded_swarm(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let topology = paper_random(24, &mut rng);
    let instance = RlncInstance::single_source(topology, 16, 64, 0);
    let mut group = c.benchmark_group("coded_swarm_n24_k16");
    group.sample_size(10);
    let config = NetConfig {
        policy: NetPolicy::Local,
        ..NetConfig::default()
    };
    group.bench_function("pull_ideal", |b| {
        b.iter_batched(
            || StdRng::seed_from_u64(1),
            |mut run_rng| {
                let report = run_coded_swarm(&instance, &config, 1.0, &mut run_rng);
                assert!(report.success);
                report.ticks
            },
            BatchSize::SmallInput,
        );
    });
    let lossy = NetConfig {
        policy: NetPolicy::Local,
        loss: 0.05,
        ..NetConfig::default()
    };
    group.bench_function("pull_lossy_redundancy", |b| {
        b.iter_batched(
            || StdRng::seed_from_u64(1),
            |mut run_rng| {
                let report = run_coded_swarm(&instance, &lossy, 1.5, &mut run_rng);
                assert!(report.success);
                report.ticks
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_exact_solvers(c: &mut Criterion) {
    let instance = figure_one();
    let mut group = c.benchmark_group("exact_small");
    group.sample_size(20);
    group.bench_function("bnb_focd_figure1", |b| {
        b.iter(|| solve_focd(&instance, &BnbOptions::default()).unwrap());
    });
    group.bench_function("ip_eocd_figure1_h3", |b| {
        b.iter(|| {
            min_bandwidth_for_horizon(&instance, 3, &MipOptions::default())
                .unwrap()
                .unwrap()
        });
    });
    group.finish();
}

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("generate");
    group.bench_function("paper_random_200", |b| {
        b.iter_batched(
            || StdRng::seed_from_u64(3),
            |mut rng| paper_random(200, &mut rng),
            BatchSize::SmallInput,
        );
    });
    group.bench_function("steiner_star_200", |b| {
        let g = classic::star(200, 3, false);
        let sources = [g.node(0)];
        let terminals: Vec<_> = (1..200).map(|i| g.node(i)).collect();
        b.iter(|| ocd_graph::algo::steiner_tree_approx(&g, &sources, &terminals).unwrap());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_tokenset,
    bench_schedule_ops,
    bench_strategy_step,
    bench_engine_step_loop,
    bench_engine_mediums,
    bench_net_swarm,
    bench_coded_swarm,
    bench_exact_solvers,
    bench_generators
);
criterion_main!(benches);
