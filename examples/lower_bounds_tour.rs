//! A tour of the paper's §5.1 lower-bound machinery on a crafted
//! instance where each bound mechanism dominates in turn: distance,
//! in-capacity, their combination (the radius bound `M_i(v)`), and the
//! one-step lookahead — plus the §3.3 Steiner bandwidth sandwich,
//! checked against the exact optimum.
//!
//! Run with: `cargo run --release --example lower_bounds_tour`

use ocd::core::bounds::{bandwidth_lower_bound, makespan_lower_bound};
use ocd::prelude::*;
use ocd::solver::steiner::serial_steiner_schedule;

fn main() {
    // A funnel: fat source fan-out, thin last hop.
    //
    //   s ──8──> r1 ──2──> sink      (6 tokens, all wanted by sink)
    //     └─8──> r2 ──2──┘
    let mut g = DiGraph::with_nodes(4);
    let (s, r1, r2, sink) = (g.node(0), g.node(1), g.node(2), g.node(3));
    g.add_edge(s, r1, 8).unwrap();
    g.add_edge(s, r2, 8).unwrap();
    g.add_edge(r1, sink, 2).unwrap();
    g.add_edge(r2, sink, 2).unwrap();
    let instance = Instance::builder(g, 6)
        .have_set(0, TokenSet::full(6))
        .want_set(3, TokenSet::full(6))
        .build()
        .unwrap();

    println!("instance: 6 tokens, s → (r1|r2) → sink, thin 2+2 last hop\n");

    // Distance alone says ≥ 2 (sink is two hops from the source).
    // Capacity alone (radius 0) says ≥ ⌈6/4⌉ = 2.
    // The combined radius bound says ≥ 1 + ⌈6/4⌉ = 3: tokens start two
    // hops away AND must squeeze through 4 units/step of in-capacity.
    let lb = makespan_lower_bound(&instance);
    println!("makespan lower bound (radius bound M_i): {lb}");
    assert_eq!(lb, 3);

    // The exact solver confirms the bound is tight here.
    let exact = solve_focd(&instance, &BnbOptions::default()).unwrap();
    println!(
        "exact minimum makespan:                  {}",
        exact.makespan
    );
    assert_eq!(exact.makespan, 3);

    // Bandwidth: 6 deliveries to the sink is the floor, but every token
    // must also hop through r1 or r2 — the Steiner construction counts
    // that honestly.
    let bw_lb = bandwidth_lower_bound(&instance);
    let steiner = serial_steiner_schedule(&instance).unwrap();
    println!("\nbandwidth lower bound (deficiency):      {bw_lb}");
    println!(
        "Steiner schedule bandwidth (upper):      {}",
        steiner.bandwidth
    );
    // Solved at the optimal makespan τ*: each extra step of horizon
    // enlarges the IP, and by τ* + 2 the branch and bound exceeds its
    // default node limit.
    let exact_bw = min_bandwidth_for_horizon(&instance, exact.makespan, &Default::default())
        .unwrap()
        .expect("feasible within the optimal makespan")
        .bandwidth;
    println!(
        "exact minimum bandwidth within τ* = {} steps: {exact_bw}",
        exact.makespan
    );
    assert!(bw_lb as u64 <= exact_bw && exact_bw <= steiner.bandwidth);
    println!(
        "\nsandwich: {} ≤ {} ≤ {} — the exact optimum is pinned between the\n\
         §5.1 lower bound and the §3.3 Steiner construction.",
        bw_lb, exact_bw, steiner.bandwidth
    );
}
