//! `exact`: the IP makespan path in feasibility mode, plus the
//! combinatorial FOCD solver as a cross-check. The only load on
//! `ocd-lp` and `ocd-solver`, using the LP layer two opposite ways:
//!
//! - `g8_uplink1`: `table_exact`'s G(8, p) instance under unit uplinks —
//!   about a thousand branch-and-bound nodes of small warm-started LPs;
//! - `g32_free`: its G(32, p) instance without budgets — a few nodes of
//!   large LPs;
//! - a batch of seed-drawn G(6, p) unit-uplink instances, small
//!   branch-and-bound searches like the first.
//!
//! The two anchors are `table_exact`'s instances at its seed 2005 for
//! every `--seed`, so their optima are checked against
//! `results/table_exact.csv` on every run. Drawing them from `--seed`
//! instead would make the workload unmeasurable: across seeds their
//! solve time ranges over 20–50×, and some G(8, p) draws exhaust
//! `table_exact`'s node cap. `--seed` draws the batch, whose solve
//! times average out over its many instances.

use crate::timing::span_total;
use crate::{ensure, ratio, stream_seed, timed, Layers, Objective, Size, Tally, Workload, THREADS};
use ocd_core::bounds::{counting_makespan_lower_bound, makespan_lower_bound};
use ocd_core::{validate, FlightRecorder, Instance, NodeBudgets, Schedule, SpanRecorder, TokenSet};
use ocd_graph::generate::{gnp, GnpConfig};
use ocd_heuristics::{simulate_with, Ideal, NodeCapacity, SimConfig, StrategyKind};
use ocd_lp::MipOptions;
use ocd_solver::bnb::{solve_focd_with_spans, BnbOptions};
use ocd_solver::ip::{ip_problem, makespan_via_ip_with_spans, MakespanOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `table_exact`'s seed, which the anchor instances are drawn from.
const TABLE_SEED: u64 = 2005;

/// Parts broadcast from vertex 0, as in `table_exact`.
const PARTS: usize = 2;

/// One exact instance with the bounds its optimum must lie between.
struct Case {
    instance: Instance,
    /// Seed of the graph draw and of the heuristic bound's run.
    seed: u64,
    /// Combinatorial lower bound.
    lb: usize,
    /// Optimum `results/table_exact.csv` records, for the anchors.
    expected: Option<usize>,
}

/// The `exact` workload's inputs.
pub struct Exact {
    uplink: Case,
    free: Case,
    batch: Vec<Case>,
}

/// A connected G(n, 2 ln n / n) with unit arc capacities broadcasting
/// [`PARTS`] parts from vertex 0, optionally under unit uplinks, drawn
/// from `seed` — the construction of `table_exact`.
fn case(n: usize, uplink: bool, seed: u64, expected: Option<usize>) -> Case {
    let config = GnpConfig {
        capacity: 1..=1,
        ..GnpConfig::paper(n)
    };
    let graph = gnp(&config, &mut StdRng::seed_from_u64(seed));
    let mut builder = Instance::builder(graph, PARTS)
        .have_set(0, TokenSet::full(PARTS))
        .want_all_everywhere();
    if uplink {
        builder = builder.node_budgets(NodeBudgets::uplink_only(n, 1));
    }
    let instance = builder.build().expect("vertex 0 holds every part");
    let lb = makespan_lower_bound(&instance).max(counting_makespan_lower_bound(&instance));
    Case {
        instance,
        seed,
        lb,
        expected,
    }
}

/// `table_exact`'s node caps: pure functions of `(n, regime)`.
fn mip_options(case: &Case) -> MipOptions {
    let n = case.instance.num_vertices();
    MipOptions {
        threads: THREADS,
        absolute_gap: 1e12,
        node_limit: if case.instance.node_budgets().is_some() {
            (10_000 / n).clamp(150, 1_250)
        } else {
            (40_000 / n).clamp(500, 2_500)
        },
        ..MipOptions::default()
    }
}

/// `table_exact`'s deterministic heuristic upper bound: per-neighbor
/// queue under the budgets when they bind, Local otherwise.
fn heuristic_steps(case: &Case) -> Option<usize> {
    let instance = &case.instance;
    let config = SimConfig {
        max_steps: 16 * instance.num_vertices() + 64,
        ..SimConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(case.seed);
    let report = match instance.node_budgets() {
        Some(b) => {
            let mut strategy = StrategyKind::PerNeighborQueue.build();
            let mut medium = NodeCapacity::new(Ideal, b.clone());
            simulate_with(instance, strategy.as_mut(), &mut medium, &config, &mut rng).report
        }
        None => {
            let mut strategy = StrategyKind::Local.build();
            simulate_with(instance, strategy.as_mut(), &mut Ideal, &config, &mut rng).report
        }
    };
    report.success.then_some(report.steps)
}

/// A solved case: optimum, witness schedule and search counts.
struct Solved {
    makespan: usize,
    schedule: Schedule,
    nodes: usize,
    lp_iterations: u64,
}

/// Solves `case` by the IP sweep and checks the result: certified, between
/// the lower bound and the heuristic, equal to the recorded optimum
/// where there is one, and witnessed by a schedule that replays under
/// the instance's budgets within that many steps.
fn solve<S: SpanRecorder>(case: &Case, spans: &mut S) -> Result<Solved, String> {
    let heur = heuristic_steps(case).ok_or("heuristic bound did not finish")?;
    let outcome = makespan_via_ip_with_spans(&case.instance, heur, &mip_options(case), spans)
        .map_err(|e| e.to_string())?;
    let MakespanOutcome::Certified(cert) = outcome else {
        return Err(format!("no certified optimum: {outcome:?}"));
    };
    let opt = cert.makespan;
    ensure(case.lb <= opt && opt <= heur, || {
        format!("optimum {opt} outside [lb {}, heuristic {heur}]", case.lb)
    })?;
    if let Some(expected) = case.expected {
        ensure(opt == expected, || {
            format!("optimum {opt}, results/table_exact.csv records {expected}")
        })?;
    }
    let schedule = cert.result.schedule;
    let replay = validate::replay(&case.instance, &schedule).map_err(|e| e.to_string())?;
    ensure(replay.is_successful() && schedule.makespan() <= opt, || {
        "witness does not replay to success within the optimum".into()
    })?;
    Ok(Solved {
        makespan: opt,
        schedule,
        nodes: cert.result.mip_nodes,
        lp_iterations: cert.result.lp_iterations,
    })
}

/// Runs `solve` as one op, adding its optimum and witness to `objective`.
fn solve_op<S: SpanRecorder>(
    tally: &mut Tally,
    objective: &mut Objective,
    name: &str,
    case: &Case,
    spans: &mut S,
) -> Option<Solved> {
    let solved = solve(case, spans);
    if let Ok(s) = &solved {
        objective.add(s.makespan as u64, s.schedule.bandwidth());
    }
    tally.op(name, solved.as_ref().map(|_| ()).map_err(Clone::clone));
    solved.ok()
}

/// `solve_focd` on the free anchor: its optimum must equal the IP's and
/// its schedule must replay to success.
fn focd_op<S: SpanRecorder>(
    tally: &mut Tally,
    objective: &mut Objective,
    free: &Case,
    ip_opt: Option<usize>,
    spans: &mut S,
) {
    let checked = solve_focd_with_spans(&free.instance, &BnbOptions::default(), spans)
        .map_err(|e| e.to_string())
        .and_then(|result| {
            ensure(ip_opt == Some(result.makespan), || {
                format!("solve_focd gives {}, the IP {ip_opt:?}", result.makespan)
            })?;
            let replay =
                validate::replay(&free.instance, &result.schedule).map_err(|e| e.to_string())?;
            ensure(replay.is_successful(), || {
                "focd schedule does not replay to success".into()
            })?;
            objective.add(result.makespan as u64, result.schedule.bandwidth());
            Ok(())
        });
    tally.op("focd", checked);
}

impl Workload for Exact {
    const ATTRIBUTED: &'static [&'static str] = &[
        "solver.g8_uplink1_s",
        "solver.g32_free_s",
        "solver.batch_s",
        "solver.focd_s",
    ];

    fn setup(seed: u64, size: Size) -> Self {
        let (batch, batch_n) = match size {
            Size::Full => (40, 6),
            Size::Toy => (2, 5),
        };
        let table_seed = |n: usize| TABLE_SEED ^ n as u64;
        let (uplink, free) = match size {
            Size::Full => (
                case(8, true, table_seed(8), Some(4)),
                case(32, false, table_seed(32), Some(3)),
            ),
            Size::Toy => (
                case(5, true, table_seed(5), None),
                case(8, false, table_seed(8), Some(2)),
            ),
        };
        Exact {
            uplink,
            free,
            batch: (0..batch)
                .map(|i| case(batch_n, true, stream_seed(seed, 0x100 + i), None))
                .collect(),
        }
    }

    fn run(&self, tally: &mut Tally) -> Objective {
        let mut objective = Objective::default();
        let o = &mut objective;
        let spans = &mut ocd_core::NoopSpans;
        solve_op(tally, o, "ip-g8-uplink1", &self.uplink, spans);
        let free = solve_op(tally, o, "ip-g32-free", &self.free, spans);
        for case in &self.batch {
            solve_op(tally, o, "ip-batch", case, spans);
        }
        focd_op(tally, o, &self.free, free.map(|s| s.makespan), spans);
        objective
    }

    fn run_traced(&self, tally: &mut Tally, layers: &mut Layers) -> Objective {
        let mut objective = Objective::default();
        let o = &mut objective;
        let mut horizons = 0;

        let mut spans = FlightRecorder::wall();
        let (uplink, secs) =
            timed(|| solve_op(tally, o, "ip-g8-uplink1", &self.uplink, &mut spans));
        layers.insert("solver.g8_uplink1_s", secs);
        layers.insert("bnb.nodes", uplink.map_or(0.0, |s| s.nodes as f64));
        layers.insert("bnb.round_s", span_total(&spans, "bnb.round"));
        horizons += spans.count("solver.ip.horizon");

        let mut spans = FlightRecorder::wall();
        let (free, secs) = timed(|| solve_op(tally, o, "ip-g32-free", &self.free, &mut spans));
        layers.insert("solver.g32_free_s", secs);
        let rounds = span_total(&spans, "bnb.round");
        let iterations = free.as_ref().map_or(0.0, |s| s.lp_iterations as f64);
        layers.insert("lp.iterations", iterations);
        layers.insert("lp.pivots_per_s", ratio(iterations, rounds));
        layers.insert(
            "lp.root_s",
            span_total(&spans, "solver.ip.horizon") - rounds,
        );
        horizons += spans.count("solver.ip.horizon");

        let mut spans = FlightRecorder::wall();
        let ((), secs) = timed(|| {
            for case in &self.batch {
                solve_op(tally, o, "ip-batch", case, &mut spans);
            }
        });
        layers.insert("solver.batch_s", secs);
        horizons += spans.count("solver.ip.horizon");
        layers.insert("solver.horizons", horizons as f64);

        let mut spans = FlightRecorder::wall();
        let ((), secs) = timed(|| {
            focd_op(tally, o, &self.free, free.map(|s| s.makespan), &mut spans);
        });
        layers.insert("solver.focd_s", secs);
        objective
    }

    fn extras(&self, tally: &mut Tally, layers: &mut Layers) {
        let checked = self
            .free
            .expected
            .and_then(|horizon| ip_problem(&self.free.instance, horizon))
            .ok_or_else(|| "no IP model at the recorded optimum".to_string())
            .and_then(|problem| {
                let (lp, secs) = timed(|| problem.solve_lp());
                layers.insert("lp.cold_solve_s", secs);
                lp.map(|_| ()).map_err(|e| e.to_string())
            });
        tally.op("lp-cold", checked);
    }
}
