//! Differential tests: the asynchronous runtime in ideal mode (latency
//! 1, no jitter, no loss, same-tick control) must reproduce the
//! lockstep engine *exactly* — same makespan, same bandwidth, and in
//! fact the same schedule, because both worlds share the decision code
//! in `ocd_heuristics::policy` and consume the RNG identically.
//!
//! Plus: every degraded-mode schedule still replays as a certified
//! sequence of legal moves, and the fault-injection run recovers and
//! accounts for every token it put on the wire.

use ocd_core::validate;
use ocd_core::{scenario, Instance};
use ocd_graph::generate::{classic, paper_random};
use ocd_heuristics::{simulate_with, Ideal, SimConfig, StrategyKind};
use ocd_net::{run_swarm, EventKind, FaultPlan, NetConfig, NetPolicy};
use rand::prelude::*;

/// Builds a seeded single-file G(n, p) instance (the paper's random
/// topology, everyone wants everything, vertex 0 is the source).
fn gnp_instance(n: usize, tokens: usize, graph_seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(graph_seed);
    scenario::single_file(paper_random(n, &mut rng), tokens, 0)
}

fn lockstep_pair(kind: StrategyKind, policy: NetPolicy) -> (StrategyKind, NetPolicy) {
    (kind, policy)
}

/// The core differential assertion: on `instance`, the async runtime
/// with the given policy and the lockstep engine with the matching
/// strategy, run from the same seed, produce the *same* schedule.
fn assert_lockstep_equivalence(instance: &Instance, policy: NetPolicy, seed: u64) {
    let kind = match policy {
        NetPolicy::Random => StrategyKind::Random,
        NetPolicy::Local => StrategyKind::Local,
        // The lockstep PerNeighborQueue coordinates across senders
        // (global planned-set dedup), which the per-actor runtime
        // cannot reproduce, so it has no lockstep-equivalence pair.
        NetPolicy::PerNeighborQueue => {
            unreachable!("per-neighbor-queue has no lockstep-equivalent differential")
        }
    };
    let (kind, policy) = lockstep_pair(kind, policy);

    // The baseline targets the generic step loop directly under the
    // ideal medium — the exact path `crate::simulate` wraps — so this
    // differential also pins `simulate_with::<Ideal>`.
    let mut lock_rng = StdRng::seed_from_u64(seed);
    let lock = simulate_with(
        instance,
        kind.build().as_mut(),
        &mut Ideal,
        &SimConfig::default(),
        &mut lock_rng,
    )
    .report;
    assert!(lock.success, "lockstep baseline must complete");

    let config = NetConfig {
        policy,
        ..NetConfig::default()
    };
    assert!(config.is_ideal());
    let mut net_rng = StdRng::seed_from_u64(seed);
    let report = run_swarm(instance, &config, &FaultPlan::none(), &mut net_rng);

    assert!(report.success, "{policy}: async ideal run must complete");
    assert_eq!(
        report.schedule, lock.schedule,
        "{policy}: ideal-mode schedule must equal the lockstep schedule"
    );
    assert_eq!(report.makespan(), lock.steps, "{policy}: makespan");
    assert_eq!(
        report.bandwidth(),
        lock.schedule.bandwidth(),
        "{policy}: bandwidth"
    );
    let lock_completions: Vec<Option<u64>> = lock
        .completion_steps
        .iter()
        .map(|c| c.map(|s| s as u64))
        .collect();
    assert_eq!(
        report.completion_ticks, lock_completions,
        "{policy}: per-vertex completion times"
    );
    // The extracted schedule is certified by the §3.1 validator.
    let replay =
        validate::replay(instance, &report.schedule).expect("extracted schedule must be legal");
    assert!(replay.is_successful());
}

#[test]
fn ideal_mode_matches_lockstep_on_seeded_gnp_instances() {
    for (graph_seed, run_seed) in [(11u64, 1u64), (22, 2), (33, 3)] {
        let instance = gnp_instance(16, 12, graph_seed);
        assert_lockstep_equivalence(&instance, NetPolicy::Random, run_seed);
        assert_lockstep_equivalence(&instance, NetPolicy::Local, run_seed);
    }
}

#[test]
fn ideal_mode_matches_lockstep_on_classic_topologies() {
    for g in [
        classic::cycle(7, 2, true),
        classic::star(6, 1, true),
        classic::complete(5, 1),
    ] {
        let instance = scenario::single_file(g, 9, 0);
        assert_lockstep_equivalence(&instance, NetPolicy::Random, 17);
        assert_lockstep_equivalence(&instance, NetPolicy::Local, 17);
    }
}

#[test]
fn degraded_schedules_always_replay() {
    // Whatever the link conditions, the recorded departures are legal
    // moves: sent tokens are possessed (store-and-forward) and per-arc
    // capacity is respected at every tick.
    let instance = gnp_instance(12, 8, 5);
    for policy in [NetPolicy::Random, NetPolicy::Local] {
        for (latency, jitter, loss) in [(1, 0, 0.1), (3, 0, 0.0), (2, 3, 0.2), (4, 2, 0.3)] {
            let config = NetConfig {
                policy,
                latency,
                jitter,
                loss,
                control_latency: 1,
                control_loss: loss / 2.0,
                have_refresh: 6,
                ..NetConfig::default()
            };
            let mut rng = StdRng::seed_from_u64(99);
            let report = run_swarm(&instance, &config, &FaultPlan::none(), &mut rng);
            let replay = validate::replay(&instance, &report.schedule).unwrap_or_else(|e| {
                panic!("{policy} latency={latency} jitter={jitter} loss={loss}: {e}")
            });
            assert!(
                report.success && replay.is_successful(),
                "{policy} latency={latency} jitter={jitter} loss={loss}: must recover"
            );
            assert!(report.accounts_for_every_token());
        }
    }
}

#[test]
fn fault_injection_recovers_and_accounts_for_every_token() {
    // 10% loss on both planes plus a mid-run crash/restart: the swarm
    // must still complete, and the trace must account for every data
    // token put on the wire.
    let instance = gnp_instance(10, 10, 7);
    let crashed = instance.graph().node(4);
    let faults = FaultPlan::none().crash_between(crashed, 6, 30);
    let config = NetConfig {
        policy: NetPolicy::Local,
        latency: 2,
        jitter: 1,
        loss: 0.10,
        control_latency: 1,
        control_loss: 0.10,
        have_refresh: 5,
        ..NetConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(2026);
    let report = run_swarm(&instance, &config, &faults, &mut rng);

    assert!(report.success, "swarm must recover from loss + crash");
    assert!(
        report.completion_ticks.iter().all(Option::is_some),
        "every wanter (including the restarted vertex) completes"
    );
    assert_eq!(report.vertex_counters[crashed.index()].crashes, 1);
    assert!(report.tokens_lost > 0, "10% loss drops something");
    assert!(report.retransmits > 0, "recovery implies retransmission");

    // Conservation: sent = delivered + lost + dropped-at-crashed +
    // still-in-flight, globally and per the (untruncated) event log.
    assert!(report.accounts_for_every_token());
    assert!(!report.trace.truncated(), "trace must be complete here");
    let sum_by = |kind: EventKind| -> u64 {
        report
            .trace
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| u64::from(e.tokens))
            .sum()
    };
    assert_eq!(sum_by(EventKind::DataSend), report.bandwidth());
    assert_eq!(sum_by(EventKind::DataDeliver), report.tokens_delivered);
    assert_eq!(sum_by(EventKind::DataLost), report.tokens_lost);
    assert_eq!(
        sum_by(EventKind::DataDroppedCrashed),
        report.tokens_dropped_crashed
    );
    assert_eq!(
        report.bandwidth(),
        report.tokens_delivered
            + report.tokens_lost
            + report.tokens_dropped_crashed
            + report.tokens_unresolved
    );

    // The crash visibly disturbed the run and is in the log.
    assert!(report.trace.iter().any(|e| e.kind == EventKind::Crash));
    assert!(report.trace.iter().any(|e| e.kind == EventKind::Restart));

    // And the extracted schedule is still a certified legal sequence.
    let replay = validate::replay(&instance, &report.schedule).unwrap();
    assert!(replay.is_successful());
}

#[test]
fn determinism_same_seed_identical_run() {
    let instance = gnp_instance(12, 8, 3);
    let config = NetConfig {
        policy: NetPolicy::Local,
        latency: 2,
        jitter: 2,
        loss: 0.15,
        control_loss: 0.05,
        have_refresh: 4,
        ..NetConfig::default()
    };
    let run = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        run_swarm(&instance, &config, &FaultPlan::none(), &mut rng)
    };
    let a = run(12345);
    let b = run(12345);
    assert_eq!(a.schedule, b.schedule);
    assert_eq!(a.ticks, b.ticks);
    assert_eq!(a.completion_ticks, b.completion_ticks);
    assert_eq!(
        a.trace.iter().collect::<Vec<_>>(),
        b.trace.iter().collect::<Vec<_>>(),
        "same seed ⇒ identical event order"
    );
    let c = run(54321);
    assert_ne!(a.schedule, c.schedule, "different seed ⇒ different run");
}
