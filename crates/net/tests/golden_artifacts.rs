//! Byte-for-byte pins of everything `ocd-net` writes out at fixed seeds:
//! for the uncoded swarm the metrics snapshot, the event trace (JSON and
//! CSV), the extracted schedule and the provenance trace of a degraded
//! Local run with a crash and of an ideal Random run; for the coded
//! swarm the metrics snapshot and the per-vertex completion ticks of a
//! push and a pull run over lossy, jittery links.
//!
//! Each artifact is a pure function of the seed and of the order in
//! which the runtime draws loss, jitter and control-plane fates, so the
//! golden files in `tests/golden/` catch any change to that order as
//! well as to the protocols. They are committed artifacts, not
//! regenerated by the test.

use ocd_core::rlnc::RlncInstance;
use ocd_core::scenario::single_file;
use ocd_core::Instance;
use ocd_graph::generate::paper_random;
use ocd_net::{run_coded_swarm, run_swarm, FaultPlan, NetConfig, NetPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Asserts that `actual` equals the golden file `tests/golden/{name}`.
fn check(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert!(actual == golden, "artifact differs from {path}");
}

fn gnp_instance(n: usize, tokens: usize, graph_seed: u64) -> Instance {
    single_file(
        paper_random(n, &mut StdRng::seed_from_u64(graph_seed)),
        tokens,
        0,
    )
}

/// Runs the uncoded swarm with provenance on and pins all five of its
/// artifacts under `{name}.*`.
fn check_swarm(name: &str, instance: &Instance, config: NetConfig, faults: &FaultPlan, seed: u64) {
    let config = NetConfig {
        record_provenance: true,
        ..config
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let report = run_swarm(instance, &config, faults, &mut rng);
    assert!(report.success, "{name}: the swarm must complete");
    assert!(!report.trace.truncated(), "{name}: the trace must be whole");
    let schedule = serde_json::to_string(&report.schedule).unwrap();
    let provenance = report.provenance.as_ref().unwrap().to_json();
    for (kind, actual) in [
        ("metrics.json", report.metrics_snapshot().to_json()),
        ("trace.json", report.trace.to_json()),
        ("trace.csv", report.trace.to_csv()),
        ("schedule.json", schedule),
        ("provenance.json", provenance),
    ] {
        check(&format!("{name}.{kind}"), &actual);
    }
}

#[test]
fn degraded_local_swarm_with_a_crash_matches_golden_files() {
    let instance = gnp_instance(10, 8, 21);
    let faults = FaultPlan::none().crash_between(instance.graph().node(3), 4, 15);
    let config = NetConfig {
        policy: NetPolicy::Local,
        latency: 3,
        jitter: 2,
        loss: 0.2,
        control_latency: 1,
        control_loss: 0.1,
        have_refresh: 5,
        ..NetConfig::default()
    };
    check_swarm("local_lossy_crash", &instance, config, &faults, 8);
}

#[test]
fn ideal_random_swarm_matches_golden_files() {
    let instance = gnp_instance(12, 10, 4);
    let config = NetConfig::default();
    assert!(config.is_ideal());
    check_swarm("random_ideal", &instance, config, &FaultPlan::none(), 5);
}

#[test]
fn coded_push_and_pull_match_golden_files() {
    let graph = paper_random(10, &mut StdRng::seed_from_u64(6));
    let instance = RlncInstance::single_source(graph, 8, 16, 0);
    for (name, policy) in [
        ("coded_push", NetPolicy::Random),
        ("coded_pull", NetPolicy::Local),
    ] {
        let config = NetConfig {
            policy,
            loss: 0.25,
            jitter: 2,
            control_latency: 1,
            control_loss: 0.1,
            ..NetConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(12);
        let report = run_coded_swarm(&instance, &config, 1.25, &mut rng);
        assert!(report.success && report.decode_ok, "{name}: {report:?}");
        assert!(report.packets_lost > 0, "{name}: loss must fire");
        check(
            &format!("{name}.metrics.json"),
            &report.metrics_snapshot().to_json(),
        );
        check(
            &format!("{name}.completion.json"),
            &serde_json::to_string(&report.completion_ticks).unwrap(),
        );
    }
}
