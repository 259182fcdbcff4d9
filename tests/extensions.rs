//! Integration tests for the §6 "open problems" extensions: changing
//! network conditions, churn, physical underlays, and the hybrid
//! time/bandwidth objective. Content encoding (RLNC) is tested with the
//! coded engine in `ocd_heuristics::coded`.

use ocd::core::scenario::single_file;
use ocd::core::validate;
use ocd::graph::generate::{classic, paper_random, transit_stub, TransitStubConfig};
use ocd::graph::underlay::Underlay;
use ocd::graph::NodeId;
use ocd::heuristics::dynamics::{Churn, CrossTraffic, LinkOutages};
use ocd::heuristics::{
    simulate, simulate_with, Dynamic, PhysicalUnderlay, SimConfig, StrategyKind,
};
use ocd::solver::ip::min_bandwidth_within_factor;
use rand::prelude::*;

#[test]
fn dynamics_runs_validate_against_their_traces() {
    let mut rng = StdRng::seed_from_u64(1);
    let instance = single_file(paper_random(20, &mut rng), 16, 0);
    let models: Vec<Box<dyn ocd::heuristics::NetworkDynamics>> = vec![
        Box::new(CrossTraffic::new(0.3)),
        Box::new(LinkOutages::new(0.15, 0.5)),
        Box::new(Churn::new(0.1, 0.4, vec![0])),
    ];
    for mut model in models {
        for kind in [
            StrategyKind::Random,
            StrategyKind::Local,
            StrategyKind::Global,
        ] {
            let mut strategy = kind.build();
            let mut run_rng = StdRng::seed_from_u64(11);
            let config = SimConfig {
                max_steps: 5_000,
                ..Default::default()
            };
            let mut medium = Dynamic::new(model.as_mut());
            let outcome = simulate_with(
                &instance,
                strategy.as_mut(),
                &mut medium,
                &config,
                &mut run_rng,
            );
            assert!(outcome.report.success, "{kind} under {}", model.name());
            let replay = validate::replay_with_capacities(
                &instance,
                &outcome.report.schedule,
                &outcome.capacity_trace,
            )
            .unwrap_or_else(|e| panic!("{kind}/{}: {e}", model.name()));
            assert!(replay.is_successful());
            // The static replay may legitimately *reject* this schedule
            // if cross-traffic briefly raised a capacity; what must hold
            // is the dynamic validation above.
        }
    }
}

#[test]
fn underlay_inflation_end_to_end() {
    let mut rng = StdRng::seed_from_u64(3);
    let ts = TransitStubConfig::paper_sized(40);
    let physical = transit_stub(&ts, &mut rng);
    let backbone = ts.transit_domains * ts.transit_nodes;
    let hosts: Vec<NodeId> = (backbone..backbone + 10).map(NodeId::new).collect();
    let overlay = classic::complete(10, 4);
    let underlay = Underlay::new(physical.clone(), hosts).unwrap();
    let mapping = underlay.map_overlay(&overlay).unwrap();
    let instance = single_file(overlay, 20, 0);

    let mut s = StrategyKind::Global.build();
    let mut rng1 = StdRng::seed_from_u64(5);
    let pure = simulate(&instance, s.as_mut(), &SimConfig::default(), &mut rng1);
    let mut s2 = StrategyKind::Global.build();
    let mut rng2 = StdRng::seed_from_u64(5);
    let mut medium = PhysicalUnderlay::new(&physical, &mapping);
    let constrained = simulate_with(
        &instance,
        s2.as_mut(),
        &mut medium,
        &SimConfig::default(),
        &mut rng2,
    );
    assert!(pure.success && constrained.report.success);
    assert!(constrained.report.steps >= pure.steps);
    // The physically admitted schedule is a valid overlay schedule too.
    assert!(validate::replay(&instance, &constrained.report.schedule)
        .unwrap()
        .is_successful());
    // Stress must reflect sharing: a complete overlay over a tree-ish
    // physical net always multiplexes some physical link.
    assert!(mapping.max_stress(physical.edge_count()) > 1);
}

#[test]
fn hybrid_objective_bridges_both_exact_solvers() {
    let instance = ocd::core::scenario::figure_one();
    let mut points = Vec::new();
    for alpha in [1.0, 1.5, 2.0] {
        let (tau, result) =
            min_bandwidth_within_factor(&instance, alpha, &Default::default(), &Default::default())
                .unwrap();
        assert_eq!(tau, 2);
        assert!(validate::replay(&instance, &result.schedule)
            .unwrap()
            .is_successful());
        points.push(result.bandwidth);
    }
    assert_eq!(points, vec![6, 4, 4], "bandwidth relaxes as α grows");
}

#[test]
fn hybrid_objective_honors_node_budgets() {
    // 3 parts to 4 peers at unit uplinks: τ* = 5 (the MWW closed
    // form), and the α = 1.5 horizon of 7 steps admits the 12 transfers
    // the deficiency bound demands.
    let instance = ocd::heuristics::optimal::broadcast_instance(3, 4, 1, 1);
    let (tau, result) =
        min_bandwidth_within_factor(&instance, 1.5, &Default::default(), &Default::default())
            .unwrap();
    assert_eq!((tau, result.bandwidth), (5, 12));
    assert!(result.schedule.makespan() <= 7);
    assert!(validate::replay(&instance, &result.schedule)
        .unwrap()
        .is_successful());
}

#[test]
fn tree_stripe_baseline_integrates() {
    let mut rng = StdRng::seed_from_u64(6);
    let instance = single_file(paper_random(24, &mut rng), 18, 0);
    let mut tree = ocd::heuristics::TreeStripe::new(3);
    let mut run_rng = StdRng::seed_from_u64(1);
    let report = simulate(&instance, &mut tree, &SimConfig::default(), &mut run_rng);
    assert!(report.success);
    let (pruned, _) = ocd::core::prune::prune(&instance, &report.schedule);
    // Tree push never delivers a token twice to the same vertex, so
    // pruning should remove little-to-nothing beyond unused deliveries.
    assert!(pruned.bandwidth() <= report.bandwidth);
    assert!(validate::replay(&instance, &pruned)
        .unwrap()
        .is_successful());
}
