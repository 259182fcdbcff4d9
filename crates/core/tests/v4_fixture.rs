//! Schema-version tolerance, fourth rung: a committed version-4
//! `RunRecord` artifact with every optional section present — an
//! instance carrying `NodeBudgets`, per-step rejection counts from the
//! node-capacity medium, an embedded metrics snapshot and the
//! provenance digest. It was written by a Random run (seed 13) on
//! `optimal::broadcast_instance(3, 4, 1, 1)` under
//! `NodeCapacity<Ideal>`. Besides certifying, it must re-encode byte
//! for byte, which pins the record encoder's exact output. The CI
//! metrics smoke step certifies the same file through the CLI.

use ocd_core::record::RUN_RECORD_VERSION;
use ocd_core::RunRecord;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/run_record_v4.json"
);

#[test]
fn committed_v4_artifact_certifies_and_round_trips() {
    let text = std::fs::read_to_string(FIXTURE).expect("fixture exists");
    let record = RunRecord::from_json(&text).expect("v4 artifact parses");
    assert_eq!(record.version, 4);
    assert_eq!(
        record.version, RUN_RECORD_VERSION,
        "fixture is current-schema"
    );
    assert!(
        record.instance.node_budgets().is_some(),
        "v4 fixture embeds node budgets"
    );
    assert!(record.provenance.is_some(), "v4 fixture embeds provenance");
    let metrics = record.metrics.as_ref().expect("v4 fixture embeds metrics");
    for name in [
        "engine.plan_nanos",
        "engine.admit_nanos",
        "engine.apply_nanos",
    ] {
        let histogram = metrics.histogram(name).expect("histogram registered");
        assert_eq!(histogram.count, 0, "{name} is always empty");
    }
    assert!(
        !record.rejected_per_step.is_empty(),
        "node-capacity runs record rejections per step"
    );
    let replay = record.certify().expect("v4 artifact certifies");
    assert!(replay.is_successful());
    assert_eq!(
        RunRecord::from_json(&text).unwrap().to_json().unwrap(),
        text,
        "re-encoding must reproduce the committed bytes"
    );
}
