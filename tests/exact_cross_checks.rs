//! Cross-checks between the two exact solvers, the bounds, the
//! Mundinger–Weber–Weiss closed form and the heuristics: everything
//! must sandwich consistently, with and without node budgets.

use ocd::core::{bounds, prune, validate, NodeBudgets, TokenSet};
use ocd::heuristics::optimal::{broadcast_instance, mww_makespan, uplink_makespan_lower_bound};
use ocd::prelude::*;
use ocd::solver::bnb::decide_focd;
use ocd::solver::ip::{makespan_via_ip, pareto_frontier, MakespanOutcome};
use ocd::solver::steiner::serial_steiner_schedule;
use ocd::solver::SolveError;
use proptest::prelude::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use proptest::strategy::Strategy as _;
use rand::prelude::*;

/// Small random instances with full-universe wants at random vertices.
fn random_small_instance(rng: &mut StdRng) -> Option<Instance> {
    let n = rng.random_range(2..5usize);
    let m = rng.random_range(1..4usize);
    let mut g = DiGraph::with_nodes(n);
    for u in 0..n {
        for v in 0..n {
            if u != v && rng.random_bool(0.6) {
                g.add_edge(g.node(u), g.node(v), rng.random_range(1..3))
                    .unwrap();
            }
        }
    }
    let mut builder = Instance::builder(g, m).have_set(0, TokenSet::full(m));
    let mut any = false;
    for v in 1..n {
        if rng.random_bool(0.7) {
            builder = builder.want_set(v, TokenSet::full(m));
            any = true;
        }
    }
    let instance = builder.build().unwrap();
    (any && instance.is_satisfiable()).then_some(instance)
}

#[test]
fn bnb_ip_bounds_and_heuristics_sandwich() {
    let mut rng = StdRng::seed_from_u64(31337);
    let mut checked = 0;
    while checked < 12 {
        let Some(instance) = random_small_instance(&mut rng) else {
            continue;
        };
        checked += 1;

        // Exact makespan from branch and bound.
        let exact = solve_focd(&instance, &BnbOptions::default()).expect("satisfiable");
        // Admissible bound below it.
        assert!(bounds::makespan_lower_bound(&instance) <= exact.makespan);
        // The IP agrees on the exact feasibility threshold.
        if exact.makespan > 0 {
            assert!(
                min_bandwidth_for_horizon(&instance, exact.makespan - 1, &Default::default())
                    .unwrap()
                    .is_none(),
                "IP found a schedule faster than the B&B optimum"
            );
        }
        let at_opt = min_bandwidth_for_horizon(&instance, exact.makespan, &Default::default())
            .unwrap()
            .expect("IP must agree the optimum horizon is feasible");

        // Bandwidth sandwich: deficiency ≤ IP optimum ≤ Steiner schedule
        // (at a relaxed horizon where the serial schedule fits).
        let steiner = serial_steiner_schedule(&instance).expect("satisfiable");
        let relaxed = min_bandwidth_for_horizon(
            &instance,
            steiner.schedule.makespan().max(exact.makespan),
            &Default::default(),
        )
        .unwrap()
        .expect("feasible at the Steiner horizon");
        let lb = bounds::bandwidth_lower_bound(&instance);
        assert!(lb <= relaxed.bandwidth);
        assert!(relaxed.bandwidth <= steiner.bandwidth);
        assert!(
            relaxed.bandwidth <= at_opt.bandwidth,
            "longer horizon can't cost more"
        );

        // Every heuristic is sandwiched too.
        for kind in StrategyKind::paper_five() {
            let mut strategy = kind.build();
            let mut run_rng = StdRng::seed_from_u64(9);
            let report = simulate(
                &instance,
                strategy.as_mut(),
                &SimConfig::default(),
                &mut run_rng,
            );
            assert!(report.success, "{kind}");
            assert!(
                report.steps >= exact.makespan,
                "{kind} beat the exact optimum"
            );
            let (pruned, _) = prune::prune(&instance, &report.schedule);
            assert!(
                pruned.bandwidth() >= relaxed.bandwidth,
                "{kind} beat exact bandwidth"
            );
        }
    }
}

#[test]
fn pareto_frontier_is_monotone_nonincreasing() {
    let mut rng = StdRng::seed_from_u64(99);
    let mut checked = 0;
    while checked < 6 {
        let Some(instance) = random_small_instance(&mut rng) else {
            continue;
        };
        checked += 1;
        let frontier = pareto_frontier(&instance, 0..=5, &Default::default()).unwrap();
        for pair in frontier.windows(2) {
            assert!(pair[0].0 < pair[1].0, "horizons ascend");
            assert!(
                pair[0].1 >= pair[1].1,
                "more time can never require more bandwidth: {frontier:?}"
            );
        }
    }
}

#[test]
fn figure_one_exactly_matches_paper_caption() {
    let instance = ocd::core::scenario::figure_one();
    let exact = solve_focd(&instance, &BnbOptions::default()).unwrap();
    assert_eq!(exact.makespan, 2);
    let frontier = pareto_frontier(&instance, 1..=4, &Default::default()).unwrap();
    assert_eq!(frontier, vec![(2, 6), (3, 4), (4, 4)]);
}

#[test]
fn gather_then_plan_pays_additive_diameter() {
    // Theorem-4-adjacent sanity: the §4.2 scheme's makespan is the inner
    // plan's plus the (symmetrized) diameter, never multiplicative.
    let mut rng = StdRng::seed_from_u64(5);
    let topology = ocd::graph::generate::paper_random(24, &mut rng);
    let diameter = ocd::graph::algo::diameter(&topology).expect("connected") as usize;
    let instance = ocd::core::scenario::single_file(topology, 12, 0);
    let run = |kind: StrategyKind| {
        let mut strategy = kind.build();
        let mut run_rng = StdRng::seed_from_u64(77);
        simulate(
            &instance,
            strategy.as_mut(),
            &SimConfig::default(),
            &mut run_rng,
        )
    };
    let inner = run(StrategyKind::Global);
    let gathered = run(StrategyKind::GatherThenPlan);
    assert!(inner.success && gathered.success);
    assert_eq!(gathered.steps, inner.steps + diameter);
    assert_eq!(gathered.bandwidth, inner.bandwidth);
}

/// The exact optimum of the MWW broadcast from the state search, with
/// its witness replayed under the broadcast's uplink budgets.
fn broadcast_optimum(parts: usize, peers: usize, server_up: u32, peer_up: u32) -> usize {
    let instance = broadcast_instance(parts, peers, server_up, peer_up);
    let exact = solve_focd(&instance, &BnbOptions::default()).expect("small broadcast");
    let replay = validate::replay(&instance, &exact.schedule).expect("witness within budgets");
    assert!(replay.is_successful());
    exact.makespan
}

#[test]
fn closed_form_equals_the_search_at_unit_uplinks() {
    // The oracle is certified before anything is scored against it:
    // every (M ≤ 3, N ≤ 4) optimum from exhaustive search equals the
    // closed form.
    for parts in 1..=3 {
        for peers in 1..=4 {
            assert_eq!(
                broadcast_optimum(parts, peers, 1, 1),
                mww_makespan(parts, peers),
                "closed form wrong at M = {parts}, N = {peers}"
            );
        }
    }
}

#[test]
fn uplink_lower_bound_never_exceeds_the_search_optimum() {
    for parts in 1..=3 {
        for peers in 1..=4 {
            for server_up in 1..=3 {
                for peer_up in 0..=2 {
                    let exact = broadcast_optimum(parts, peers, server_up, peer_up);
                    let bound = uplink_makespan_lower_bound(parts, peers, server_up, peer_up);
                    assert!(
                        bound <= exact,
                        "bound {bound} > optimum {exact} at M = {parts}, N = {peers}, \
                         s = {server_up}, p = {peer_up}"
                    );
                }
            }
        }
    }
}

#[test]
fn search_unequal_uplink_spot_values() {
    // Fat server, unit peers: both parts leave the server in step 1,
    // and the 4 remaining deliveries fit in step 2.
    assert_eq!(broadcast_optimum(2, 3, 2, 1), 2);
    // Silent peers: the server alone delivers N·M transfers at
    // `server_up` per step.
    assert_eq!(broadcast_optimum(2, 2, 1, 0), 4);
    assert_eq!(broadcast_optimum(2, 2, 2, 0), 2);
}

/// A random instance of at most 16 possession bits (`n·m ≤ 16`) on a
/// ring plus random chords, with arc capacities 1–2 and per-vertex
/// uplinks and downlinks each drawn from 0, 1, 2 and unlimited (0 the
/// rarest, so that most draws stay satisfiable).
fn budgeted_instance() -> impl proptest::strategy::Strategy<Value = Instance> {
    (2usize..6, 1usize..4, 0u64..100_000).prop_map(|(n, m, seed)| {
        let m = m.min(16 / n);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = DiGraph::with_nodes(n);
        for u in 0..n {
            for v in 0..n {
                if u != v && (v == (u + 1) % n || rng.random_bool(0.4)) {
                    g.add_edge(g.node(u), g.node(v), rng.random_range(1..3))
                        .unwrap();
                }
            }
        }
        let unlimited = NodeBudgets::UNLIMITED;
        let limits = [0, 1, 1, 1, 2, 2, unlimited, unlimited];
        let mut budget = || limits[rng.random_range(0..limits.len())];
        let uplink: Vec<u32> = (0..n).map(|_| budget()).collect();
        let downlink: Vec<u32> = (0..n).map(|_| budget()).collect();
        let mut builder = Instance::builder(g, m)
            .node_budgets(NodeBudgets::new(uplink, downlink).expect("equal lengths"));
        for t in 0..m {
            builder = builder.have(rng.random_range(0..n), [Token::new(t)]);
        }
        for v in 0..n {
            let wants: Vec<Token> = (0..m)
                .filter(|_| rng.random_bool(0.6))
                .map(Token::new)
                .collect();
            builder = builder.want(v, wants);
        }
        builder.build().unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn state_search_and_ip_agree_under_node_budgets(instance in budgeted_instance()) {
        let horizon = 12;
        let options = BnbOptions { max_makespan: horizon, ..BnbOptions::default() };
        let search = match solve_focd(&instance, &options) {
            Ok(exact) => Some(exact),
            Err(SolveError::Unsatisfiable | SolveError::HorizonExceeded { .. }) => None,
            Err(e) => panic!("search failed: {e}"),
        };
        let ip = match makespan_via_ip(&instance, horizon, &Default::default()).unwrap() {
            MakespanOutcome::Certified(cert) => Some(cert),
            MakespanOutcome::Unsatisfiable | MakespanOutcome::InfeasibleUpTo(_) => None,
            other => panic!("IP gave up: {other:?}"),
        };
        prop_assert_eq!(
            search.as_ref().map(|s| s.makespan),
            ip.as_ref().map(|c| c.makespan)
        );
        if let (Some(exact), Some(cert)) = (search, ip) {
            prop_assert_eq!(cert.searched_from, None);
            for schedule in [&exact.schedule, &cert.result.schedule] {
                let replay = validate::replay(&instance, schedule).unwrap();
                prop_assert!(replay.is_successful());
            }
            prop_assert_eq!(exact.schedule.makespan(), exact.makespan);
            if exact.makespan > 0 {
                let shorter = decide_focd(&instance, exact.makespan - 1, &options).unwrap();
                prop_assert!(shorter.is_none());
            }
        }
    }
}
