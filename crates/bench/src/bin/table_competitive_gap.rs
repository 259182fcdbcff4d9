//! Competitive-ratio scoring against certified optima.
//!
//! Four sections, one CSV (`table_competitive_gap.csv`):
//!
//! 1. **theorem4** — the paper's Theorem 4 adversarial family: two
//!    maximally separated vertices where the sender holds many decoy
//!    tokens the receiver does not want. A prescient algorithm ships
//!    exactly the one wanted token along the path (makespan =
//!    distance); local-knowledge tiers pay a factor that grows with the
//!    decoy count, so no constant c bounds their competitive ratio.
//! 2. **broadcast-exact** — uplink-constrained broadcast on tiny
//!    complete overlays, scored against the *exact* optimum of
//!    [`broadcast_instance`] from the budget-aware branch-and-bound
//!    state search ([`solve_focd`]), which the workspace's cross-check
//!    tests certify equal to the Mundinger–Weber–Weiss closed form at
//!    unit uplinks. The oracle column keeps its `brute-force` label:
//!    the search is exhaustive over possession states.
//! 3. **broadcast-scaled** — the same regime at `n` far beyond
//!    exhaustive-search reach (peers ∈ {100, 1000}; `--full` adds 2000,
//!    `--quick` keeps only 100), scored against the closed form
//!    ([`mww_makespan`]) at unit uplinks and the certified lower bound
//!    ([`uplink_makespan_lower_bound`]) when the server uplink differs.
//! 4. **broadcast-ip** — heterogeneous-uplink broadcasts larger than
//!    section 2's, certified by the exact IP stack
//!    ([`makespan_via_ip`]): the oracle is a *certificate*, not a lower
//!    bound, so every heuristic ratio in this section — including the
//!    budget-aware per-neighbor-queue — is a true competitive ratio in
//!    a regime where no closed form exists. The unit-uplink member of
//!    the grid cross-checks the IP certificate against [`mww_makespan`].
//!
//! Every broadcast run goes through [`NodeCapacity<Ideal>`]: the five
//! paper heuristics are budget-oblivious and get clipped by admission
//! (a run that exceeds `64 × oracle` steps reports `dnf`), while the
//! budget-aware [`PerNeighborQueue`](ocd_heuristics::PerNeighborQueue)
//! plans within the uplinks — the binary asserts it never loses to a
//! paper heuristic at unit uplinks.
//!
//! Usage: `table_competitive_gap [--quick | --full] [--seed <u64>]
//! [--out <dir>]`

use ocd_bench::args::ExpArgs;
use ocd_bench::table::Table;
use ocd_core::bounds::makespan_lower_bound;
use ocd_core::{Instance, Token, TokenSet};
use ocd_graph::generate::classic;
use ocd_heuristics::optimal::{broadcast_instance, mww_makespan, uplink_makespan_lower_bound};
use ocd_heuristics::{simulate, simulate_with, Ideal, NodeCapacity, SimConfig, StrategyKind};
use ocd_lp::MipOptions;
use ocd_solver::bnb::{solve_focd, BnbOptions};
use ocd_solver::ip::{makespan_via_ip, MakespanOutcome};
use rand::prelude::*;

/// Path of `path_len + 1` vertices; the head holds `decoys + 1` tokens;
/// only the tail wants only the last token.
fn adversarial_instance(path_len: usize, decoys: usize) -> Instance {
    let g = classic::path(path_len + 1, 1, true);
    let m = decoys + 1;
    Instance::builder(g, m)
        .have_set(0, TokenSet::full(m))
        .want(path_len, [Token::new(m - 1)])
        .build()
        .expect("head holds every token")
}

const COLUMNS: [&str; 11] = [
    "section",
    "topology",
    "n",
    "parts",
    "server_up",
    "peer_up",
    "oracle",
    "opt_steps",
    "strategy",
    "steps",
    "ratio",
];

/// One broadcast cell: runs `kind` under `NodeCapacity<Ideal>` on the
/// MWW instance and returns `(steps, ratio)` as strings (`dnf`/`inf`
/// when the budget-oblivious strategy exceeds the step cap).
#[allow(clippy::too_many_arguments)]
fn broadcast_row(
    table: &mut Table,
    section: &str,
    oracle_name: &str,
    oracle: usize,
    parts: usize,
    peers: usize,
    server_up: u32,
    peer_up: u32,
    kind: StrategyKind,
    seed: u64,
) -> Option<usize> {
    let instance = broadcast_instance(parts, peers, server_up, peer_up);
    let budgets = instance.node_budgets().expect("budgeted").clone();
    let config = SimConfig {
        max_steps: 64 * oracle,
        ..Default::default()
    };
    let mut strategy = kind.build();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut medium = NodeCapacity::new(Ideal, budgets);
    let outcome = simulate_with(&instance, strategy.as_mut(), &mut medium, &config, &mut rng);
    let report = &outcome.report;
    let (steps, ratio) = if report.success {
        (
            report.steps.to_string(),
            format!("{:.3}", report.steps as f64 / oracle as f64),
        )
    } else {
        ("dnf".to_string(), "inf".to_string())
    };
    table.row([
        section.to_string(),
        "complete".to_string(),
        (peers + 1).to_string(),
        parts.to_string(),
        server_up.to_string(),
        peer_up.to_string(),
        oracle_name.to_string(),
        oracle.to_string(),
        kind.name().to_string(),
        steps,
        ratio,
    ]);
    report.success.then_some(report.steps)
}

fn main() {
    let (args, full) = ExpArgs::from_env_with(" [--full]", |f| f.switch("full"));
    let mut table = Table::new(COLUMNS);

    // ---- section 1: Theorem 4 adversarial family -------------------
    let (path_lens, decoy_counts): (&[usize], &[usize]) = if args.quick {
        (&[4, 8], &[4, 16])
    } else {
        (&[4, 8, 16], &[4, 16, 64, 128])
    };
    let config = SimConfig {
        max_steps: 200_000,
        ..Default::default()
    };
    for &path_len in path_lens {
        for &decoys in decoy_counts {
            let instance = adversarial_instance(path_len, decoys);
            // The offline optimum ships the one token straight down the
            // path; the admissible bound certifies it.
            let opt = path_len;
            assert_eq!(makespan_lower_bound(&instance), opt);
            for kind in StrategyKind::all() {
                let mut strategy = kind.build();
                let mut rng = StdRng::seed_from_u64(args.seed);
                let report = simulate(&instance, strategy.as_mut(), &config, &mut rng);
                assert!(report.success, "{kind} did not finish");
                table.row([
                    "theorem4".to_string(),
                    "path".to_string(),
                    (path_len + 1).to_string(),
                    (decoys + 1).to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "path-distance".to_string(),
                    opt.to_string(),
                    kind.name().to_string(),
                    report.steps.to_string(),
                    format!("{:.3}", report.steps as f64 / opt as f64),
                ]);
            }
        }
    }

    // ---- section 2: search-certified tiny broadcasts ---------------
    let exact_grid: &[(usize, usize, u32, u32)] = if args.quick {
        &[(2, 3, 1, 1), (2, 3, 2, 1)]
    } else {
        &[(2, 3, 1, 1), (3, 4, 1, 1), (2, 3, 2, 1), (3, 4, 2, 1)]
    };
    for &(parts, peers, server_up, peer_up) in exact_grid {
        let instance = broadcast_instance(parts, peers, server_up, peer_up);
        let exact = solve_focd(&instance, &BnbOptions::default())
            .expect("small broadcasts fit the search")
            .makespan;
        if server_up == 1 && peer_up == 1 {
            assert_eq!(exact, mww_makespan(parts, peers), "closed form certified");
        }
        let mut pnq_steps = None;
        let mut best_paper = usize::MAX;
        for kind in StrategyKind::all() {
            let steps = broadcast_row(
                &mut table,
                "broadcast-exact",
                "brute-force",
                exact,
                parts,
                peers,
                server_up,
                peer_up,
                kind,
                args.seed,
            );
            if kind == StrategyKind::PerNeighborQueue {
                pnq_steps = steps;
            } else if StrategyKind::paper_five().contains(&kind) {
                best_paper = best_paper.min(steps.unwrap_or(usize::MAX));
            }
        }
        let pnq = pnq_steps.expect("per-neighbor-queue always completes");
        assert!(
            pnq <= best_paper,
            "per-neighbor-queue ({pnq}) lost to a paper heuristic ({best_paper})"
        );
    }

    // ---- section 3: scaled closed-form ratios ----------------------
    // Uncoordinated tiers need ~n steps on budgeted broadcasts (visible
    // in the n = 101 rows) and a step over a complete overlay touches
    // all n^2 arcs, so at n = 10^3+ only the coordinated tiers — which
    // track the oracle within ~2x — stay within sane wall time.
    let mut scaled: Vec<(usize, usize, u32, u32, Vec<StrategyKind>)> = Vec::new();
    let everyone: Vec<StrategyKind> = StrategyKind::all().to_vec();
    let big: Vec<StrategyKind> = vec![
        StrategyKind::Global,
        StrategyKind::GatherThenPlan,
        StrategyKind::PerNeighborQueue,
    ];
    scaled.push((1, 100, 1, 1, everyone.clone()));
    scaled.push((8, 100, 1, 1, everyone.clone()));
    scaled.push((8, 100, 4, 1, everyone));
    if !args.quick {
        scaled.push((1, 1000, 1, 1, big.clone()));
        scaled.push((8, 1000, 1, 1, big.clone()));
        scaled.push((8, 1000, 4, 1, big.clone()));
    }
    if full {
        scaled.push((8, 2000, 1, 1, big));
    }
    for (parts, peers, server_up, peer_up, kinds) in scaled {
        let unit = server_up == 1 && peer_up == 1;
        let (oracle_name, oracle) = if unit {
            ("closed-form", mww_makespan(parts, peers))
        } else {
            (
                "lower-bound",
                uplink_makespan_lower_bound(parts, peers, server_up, peer_up),
            )
        };
        let mut pnq_steps = None;
        let mut best_paper = usize::MAX;
        for kind in kinds {
            let steps = broadcast_row(
                &mut table,
                "broadcast-scaled",
                oracle_name,
                oracle,
                parts,
                peers,
                server_up,
                peer_up,
                kind,
                args.seed,
            );
            if kind == StrategyKind::PerNeighborQueue {
                pnq_steps = steps;
            } else if StrategyKind::paper_five().contains(&kind) {
                best_paper = best_paper.min(steps.unwrap_or(usize::MAX));
            }
        }
        let pnq = pnq_steps.expect("per-neighbor-queue always completes");
        if unit {
            assert!(
                pnq <= best_paper,
                "per-neighbor-queue ({pnq}) lost to a paper heuristic ({best_paper}) \
                 at parts = {parts}, peers = {peers}"
            );
        }
    }

    // ---- section 4: IP-certified heterogeneous anchors -------------
    // Exact optima from the sparse-simplex / warm-started-B&B stack on
    // broadcasts larger than section 2's. The unit-uplink member
    // cross-checks the IP certificate against the MWW closed form; the
    // heterogeneous members have no closed form at all — the
    // certificate is the only exact anchor available.
    let ip_grid: &[(usize, usize, u32, u32)] = if args.quick {
        &[(2, 6, 2, 1)]
    } else {
        &[(2, 6, 1, 1), (2, 6, 2, 1), (4, 6, 2, 1)]
    };
    let ip_options = MipOptions {
        // Feasibility mode: each horizon only needs a witness schedule.
        absolute_gap: 1e12,
        node_limit: 30_000,
        ..MipOptions::default()
    };
    for &(parts, peers, server_up, peer_up) in ip_grid {
        let instance = broadcast_instance(parts, peers, server_up, peer_up);
        // Deterministic upper bound for the sweep from the budget-aware
        // policy (the same run later lands in this section's rows).
        let config = SimConfig {
            max_steps: 64 * (parts + peers),
            ..Default::default()
        };
        let mut planner = StrategyKind::PerNeighborQueue.build();
        let mut rng = StdRng::seed_from_u64(args.seed);
        let mut medium =
            NodeCapacity::new(Ideal, instance.node_budgets().expect("budgeted").clone());
        let outcome = simulate_with(&instance, planner.as_mut(), &mut medium, &config, &mut rng);
        assert!(outcome.report.success, "per-neighbor-queue must finish");
        let MakespanOutcome::Certified(cert) =
            makespan_via_ip(&instance, outcome.report.steps, &ip_options).expect("simplex healthy")
        else {
            panic!(
                "broadcast-ip anchor failed to certify at parts = {parts}, peers = {peers}, \
                 uplinks = {server_up}/{peer_up}"
            );
        };
        let oracle = cert.makespan;
        if server_up == 1 && peer_up == 1 {
            assert_eq!(
                oracle,
                mww_makespan(parts, peers),
                "IP certificate must equal the MWW closed form at unit uplinks"
            );
        }
        let mut pnq_steps = None;
        let mut best_paper = usize::MAX;
        for kind in StrategyKind::all() {
            let steps = broadcast_row(
                &mut table,
                "broadcast-ip",
                "ip-certified",
                oracle,
                parts,
                peers,
                server_up,
                peer_up,
                kind,
                args.seed,
            );
            if kind == StrategyKind::PerNeighborQueue {
                pnq_steps = steps;
            } else if StrategyKind::paper_five().contains(&kind) {
                best_paper = best_paper.min(steps.unwrap_or(usize::MAX));
            }
        }
        let pnq = pnq_steps.expect("per-neighbor-queue always completes");
        if server_up == 1 && peer_up == 1 {
            assert!(
                pnq <= best_paper,
                "per-neighbor-queue ({pnq}) lost to a paper heuristic ({best_paper}) \
                 on the certified broadcast"
            );
        }
    }

    println!("{}", table.render());
    println!(
        "Reading: theorem4 ratios grow with the decoy count for local tiers (no\n\
         constant c bounds them); broadcast ratios are against certified optima —\n\
         the budget-aware per-neighbor-queue policy stays at 1.000 on unit uplinks\n\
         while budget-oblivious heuristics pay for every clipped move (dnf = did\n\
         not finish within 64x the oracle); broadcast-ip ratios are against IP\n\
         *certificates* in the heterogeneous-uplink regime, where neither a closed\n\
         form nor a brute-force optimum exists."
    );
    table
        .write_csv(format!("{}/table_competitive_gap.csv", args.out_dir))
        .expect("write csv");
}
