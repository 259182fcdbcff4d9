//! The benchmark's own checks: every workload prints every metric with
//! its unit, the traced layer times add up, a bad output costs exactly
//! one failed op, and `BENCHMARK.json` lists the metrics printed here.

use perfbench::coded::Coded;
use perfbench::exact::Exact;
use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::run::{result_json, run, Options, Report};
use perfbench::scale::Scale;
use perfbench::swarm::Swarm;
use perfbench::{Size, Tally, Workload};
use serde::Deserialize;

fn toy<W: Workload>(trace: bool) -> Report {
    run::<W>(&Options {
        seed: 7,
        seconds: 0.0,
        trace,
        size: Size::Toy,
        calibration_s: 0.01,
    })
}

fn assert_complete<W: Workload>(workload: &str) {
    let untraced = toy::<W>(false);
    let names: Vec<(&str, &str)> = untraced.metrics.iter().map(|m| (m.0, m.2)).collect();
    let expected: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(names, expected, "{workload} end-to-end metrics");

    let traced = toy::<W>(true);
    let names: Vec<(&str, &str)> = traced.metrics.iter().map(|m| (m.0, m.2)).collect();
    let expected: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(names, expected, "{workload} per-layer metrics");
    // Counts a toy input may leave at zero; every other metric of the
    // workload must be measured.
    let may_be_zero = [
        "engine.duplicate_ratio",
        "net.retransmits",
        "net.request_timeouts",
    ];
    for m in PER_LAYER.iter().filter(|m| m.workload.contains(workload)) {
        let value = traced
            .metrics
            .iter()
            .find(|t| t.0 == m.name)
            .map_or(0.0, |t| t.1);
        assert!(
            value > 0.0 || may_be_zero.contains(&m.name),
            "{workload} measures no {}",
            m.name
        );
    }

    let (total, attributed) = traced.attribution.as_ref().expect("traced run attributes");
    let unattributed = traced
        .metrics
        .iter()
        .find(|m| m.0 == "unattributed_s")
        .map(|m| m.1)
        .expect("unattributed_s");
    let sum: f64 = attributed.iter().map(|(_, v)| v).sum::<f64>() + unattributed;
    assert!((sum - total).abs() < 1e-9, "{workload}: {sum} != {total}");

    for report in [&untraced, &traced] {
        assert!(report.tally.attempted >= 1);
        assert_eq!(
            report.tally.failed, 0,
            "{workload}: {:?}",
            report.tally.failures
        );
        assert!(result_json(report).starts_with("{\"correct\": true, "));
    }
}

#[test]
fn scale_emits_every_metric_with_its_unit() {
    assert_complete::<Scale>("scale");
}

#[test]
fn swarm_emits_every_metric_with_its_unit() {
    assert_complete::<Swarm>("swarm");
}

#[test]
fn coded_emits_every_metric_with_its_unit() {
    assert_complete::<Coded>("coded");
}

#[test]
fn exact_emits_every_metric_with_its_unit() {
    assert_complete::<Exact>("exact");
}

#[test]
fn tampered_schedule_is_one_failed_op() {
    let scale = Scale::setup(3, Size::Toy);
    let mut out = scale.produce(0);
    let mut steps = out.report.schedule.steps().to_vec();
    steps.pop();
    out.report.schedule = ocd_core::Schedule::new();
    for step in steps {
        out.report.schedule.push_timestep(step);
    }
    let mut tally = Tally::default();
    scale.check(&mut tally, 0, &out);
    assert_eq!(
        (tally.attempted, tally.failed),
        (2, 1),
        "{:?}",
        tally.failures
    );
    assert!(tally.failures[0].starts_with("simulate:"));
}

#[test]
fn corrupted_record_is_one_failed_op() {
    let scale = Scale::setup(3, Size::Toy);
    let mut out = scale.produce(0);
    let json = out.json.as_ref().expect("record encodes");
    let claimed = format!("\"bandwidth\": {}", out.record.bandwidth);
    assert!(json.contains(&claimed));
    out.json = Ok(json.replacen(
        &claimed,
        &format!("\"bandwidth\": {}", out.record.bandwidth + 1),
        1,
    ));
    let mut tally = Tally::default();
    scale.check(&mut tally, 0, &out);
    assert_eq!(
        (tally.attempted, tally.failed),
        (2, 1),
        "{:?}",
        tally.failures
    );
    assert!(tally.failures[0].starts_with("record:"));
}

#[derive(Deserialize)]
struct Metric {
    name: String,
    unit: String,
    better: String,
}

#[derive(Deserialize)]
struct Workloads {
    name: String,
}

#[derive(Deserialize)]
struct BenchmarkJson {
    workloads: Vec<Workloads>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let spec: BenchmarkJson =
        serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let workloads: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(workloads, ["scale", "swarm", "coded", "exact"]);
    let listed: Vec<(&str, &str, &str)> = spec
        .end_to_end
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str()))
        .collect();
    let printed: Vec<(&str, &str, &str)> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, "lower"))
        .collect();
    assert_eq!(listed, printed);
    let listed: Vec<(&str, &str, &str)> = spec
        .per_layer
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str()))
        .collect();
    let printed: Vec<(&str, &str, &str)> = PER_LAYER
        .iter()
        .map(|m| {
            (
                m.name,
                m.unit,
                if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                },
            )
        })
        .collect();
    assert_eq!(listed, printed);
}
