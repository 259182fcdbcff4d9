//! Exact anchors at n ≈ 50–100: certified optimal makespans from the
//! sparse-simplex / warm-started-B&B stack on `G(n, p)` broadcasts.
//!
//! For each size the binary generates a connected `G(n, 2 ln n / n)`
//! overlay with unit arc capacities, broadcasts 2 parts from vertex 0,
//! and solves the exact makespan two ways per row: unconstrained
//! ("free") and under unit uplink budgets ("uplink-1", the
//! Mundinger–Weber–Weiss regime on a sparse overlay, where no closed
//! form exists). The exact path is [`makespan_via_ip`]: sweep horizons
//! upward from the combinatorial lower bound, certify each infeasible
//! horizon (LP-relaxation prefilter, then MILP), stop at the first
//! feasible one. A deterministic heuristic run bounds the sweep from
//! above; if the MILP exhausts its node budget the row degrades to a
//! `gap[lo,hi]` status instead of a certificate.
//!
//! The `lp_ms` / `dense_lp_ms` columns time the LP relaxation of the
//! final model through the sparse revised simplex and the retained
//! dense tableau: the dense path is only attempted while its working
//! tableau stays under [`DENSE_CELL_LIMIT`] cells (beyond that it is
//! reported `dnf` — the n ≤ 6 ceiling the old stack imposed on this
//! table's ancestors).
//!
//! `--emit <file>` writes a JSON artifact **without wall times** —
//! instance fingerprints, bounds, certified makespans, node/iteration
//! counts, and witness schedules — so CI can byte-compare runs at
//! `--threads 1` and `--threads 4` to pin search determinism.
//!
//! Usage: `table_exact [--quick | --full] [--seed <u64>] [--out <dir>]
//! [--threads <t>] [--emit <file>]`

use ocd_bench::args::{create_or_exit, ExpArgs};
use ocd_bench::table::Table;
use ocd_core::bounds::{counting_makespan_lower_bound, makespan_lower_bound};
use ocd_core::{Instance, NodeBudgets, Schedule, TokenSet};
use ocd_graph::generate::{gnp, GnpConfig};
use ocd_heuristics::{simulate, simulate_with, Ideal, NodeCapacity, SimConfig, StrategyKind};
use ocd_lp::MipOptions;
use ocd_solver::ip::{ip_problem, makespan_via_ip, MakespanOutcome};
use rand::prelude::*;
use serde::Serialize;
use std::io::Write;

/// Dense tableau cell budget: `(rows + vars) · (vars + 2 rows)` beyond
/// this means the dense reference would thrash memory and minutes — the
/// cell is honestly `dnf` rather than waited out.
const DENSE_CELL_LIMIT: usize = 2_000_000;

/// Tokens broadcast from vertex 0 in every instance.
const PARTS: usize = 2;

/// One entry of the determinism artifact: everything the solve decided,
/// nothing the clock measured.
#[derive(Serialize)]
struct ExactRecord {
    n: usize,
    arcs: usize,
    budgets: String,
    seed: u64,
    lb: usize,
    heur_steps: usize,
    status: String,
    makespan: Option<usize>,
    mip_nodes: Option<usize>,
    lp_iterations: Option<u64>,
    schedule: Option<Schedule>,
}

/// Deterministic heuristic upper bound: the budget-aware
/// per-neighbor-queue policy under admission control when budgets bind,
/// plain Local otherwise.
fn heuristic_upper_bound(instance: &Instance, seed: u64) -> (String, usize) {
    let config = SimConfig {
        max_steps: 16 * instance.num_vertices() + 64,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    match instance.node_budgets() {
        Some(b) => {
            let mut strategy = StrategyKind::PerNeighborQueue.build();
            let mut medium = NodeCapacity::new(Ideal, b.clone());
            let outcome =
                simulate_with(instance, strategy.as_mut(), &mut medium, &config, &mut rng);
            assert!(outcome.report.success, "per-neighbor-queue must finish");
            ("per-neighbor-queue".to_string(), outcome.report.steps)
        }
        None => {
            let mut strategy = StrategyKind::Local.build();
            let report = simulate(instance, strategy.as_mut(), &config, &mut rng);
            assert!(report.success, "local heuristic must finish");
            ("local".to_string(), report.steps)
        }
    }
}

/// Times one closure in milliseconds.
fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

fn main() {
    let usage = " [--full] [--threads <t>] [--emit <file>]";
    let (args, (full, threads, emit)) = ExpArgs::from_env_with(usage, |f| {
        let threads: usize = f.opt("threads", 1)?;
        if threads == 0 {
            return Err("--threads must be at least 1".to_string());
        }
        Ok((f.switch("full")?, threads, f.value("emit")?))
    });
    let emit = emit.map(|path| {
        let file = create_or_exit("--emit file", &path, std::fs::File::create(&path));
        (path, file)
    });
    let sizes: &[usize] = match (args.quick, full) {
        (true, _) => &[8, 16],
        (false, false) => &[8, 16, 32, 50, 64],
        (false, true) => &[8, 16, 32, 50, 64, 80, 100],
    };
    // Feasibility mode: the makespan certificate only needs *a* feasible
    // integer point per horizon, not the bandwidth optimum. The node cap
    // shrinks with n (per-node LP cost grows with the model) so an
    // infeasibility proof the counting bound cannot shortcut degrades to
    // an honest `gap[lo,hi]` row in bounded wall time instead of
    // stalling the sweep for hours. Budgeted rows cap much harder:
    // uplink-1 refutations at the lower bound are exponential past
    // n ≈ 8 (n = 16 already needs > 20 000 nodes) while feasible
    // horizons fall to the dive in a handful of nodes, so a generous
    // cap converts to the same gap row, only slower. `--quick` caps
    // hardest because it is the CI smoke. Caps are pure functions of
    // `(n, regime)` — never of the clock — so the emitted artifact
    // stays byte-identical across thread counts.
    let mip_for = |n: usize, budgeted: bool| MipOptions {
        threads,
        absolute_gap: 1e12,
        node_limit: match (args.quick, budgeted) {
            (true, _) => (8_000 / n).clamp(200, 1_000),
            (false, false) => (40_000 / n).clamp(500, 2_500),
            (false, true) => (10_000 / n).clamp(150, 1_250),
        },
    };
    println!(
        "exact anchors: G(n, 2 ln n / n), {PARTS} parts, threads = {}, sizes = {sizes:?}\n",
        threads
    );
    let mut table = Table::new([
        "topology",
        "n",
        "arcs",
        "budgets",
        "lb",
        "heur",
        "heur_steps",
        "makespan",
        "status",
        "mip_nodes",
        "lp_iters",
        "ip_ms",
        "lp_ms",
        "dense_lp_ms",
    ]);
    let mut records: Vec<ExactRecord> = Vec::new();

    for &n in sizes {
        let seed = args.seed ^ n as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let config = GnpConfig {
            capacity: 1..=1,
            ..GnpConfig::paper(n)
        };
        let g = gnp(&config, &mut rng);
        let arcs = g.edge_count();
        for budgets in [None, Some(NodeBudgets::uplink_only(n, 1))] {
            let budget_name = match &budgets {
                None => "free",
                Some(_) => "uplink-1",
            };
            let mut builder = Instance::builder(g.clone(), PARTS)
                .have_set(0, TokenSet::full(PARTS))
                .want_all_everywhere();
            if let Some(b) = budgets {
                builder = builder.node_budgets(b);
            }
            let instance = builder.build().expect("vertex 0 holds every part");
            assert!(instance.is_satisfiable(), "G(n,p) overlay is connected");

            let lb = makespan_lower_bound(&instance).max(counting_makespan_lower_bound(&instance));
            let (heur_name, heur_steps) = heuristic_upper_bound(&instance, seed);
            let (outcome, ip_ms) = time_ms(|| {
                makespan_via_ip(
                    &instance,
                    heur_steps,
                    &mip_for(n, instance.node_budgets().is_some()),
                )
                .expect("simplex healthy")
            });
            let (status, makespan, nodes, iters, schedule) = match outcome {
                MakespanOutcome::Certified(cert) => {
                    assert!(cert.makespan >= lb && cert.makespan <= heur_steps);
                    (
                        "optimal".to_string(),
                        Some(cert.makespan),
                        Some(cert.result.mip_nodes),
                        Some(cert.result.lp_iterations),
                        Some(cert.result.schedule),
                    )
                }
                MakespanOutcome::ResourceLimit { stalled_at } => (
                    format!("gap[{stalled_at},{heur_steps}]"),
                    None,
                    None,
                    None,
                    None,
                ),
                other => panic!("heuristic horizon must be feasible, got {other:?}"),
            };

            // LP-relaxation timing at the decided horizon: sparse always,
            // dense only while its tableau fits the cell budget.
            let horizon = makespan.unwrap_or(heur_steps);
            let problem = ip_problem(&instance, horizon).expect("horizon ≥ 1");
            let (rows, cols) = (problem.num_constraints(), problem.num_vars());
            let (lp, lp_ms) = time_ms(|| problem.solve_lp());
            lp.expect("relaxation feasible at a feasible horizon");
            let dense_cells = (rows + cols).saturating_mul(cols + 2 * rows);
            let dense_ms = if dense_cells <= DENSE_CELL_LIMIT {
                let (dense, ms) = time_ms(|| problem.solve_lp_dense());
                dense.expect("dense agrees on feasibility");
                format!("{ms:.1}")
            } else {
                "dnf".to_string()
            };

            println!(
                "n = {n:>3} {budget_name:<8} lb = {lb} heur = {heur_steps} -> {status} \
                 ({ip_ms:.0} ms)"
            );
            table.row([
                "gnp".to_string(),
                n.to_string(),
                arcs.to_string(),
                budget_name.to_string(),
                lb.to_string(),
                heur_name.clone(),
                heur_steps.to_string(),
                makespan.map_or_else(|| "-".to_string(), |m| m.to_string()),
                status.clone(),
                nodes.map_or_else(|| "-".to_string(), |v| v.to_string()),
                iters.map_or_else(|| "-".to_string(), |v| v.to_string()),
                format!("{ip_ms:.1}"),
                format!("{lp_ms:.1}"),
                dense_ms,
            ]);
            records.push(ExactRecord {
                n,
                arcs,
                budgets: budget_name.to_string(),
                seed,
                lb,
                heur_steps,
                status,
                makespan,
                mip_nodes: nodes,
                lp_iterations: iters,
                schedule,
            });
        }
    }

    println!("\n{}", table.render());
    table
        .write_csv(format!("{}/table_exact.csv", args.out_dir))
        .expect("write csv");
    if let Some((path, mut file)) = emit {
        let json = serde_json::to_string_pretty(&records).expect("serialize records");
        file.write_all(json.as_bytes())
            .expect("write determinism artifact");
        println!("wrote determinism artifact to {path}");
    }
}
