//! Runs one workload for a time budget: untraced passes (end-to-end
//! metrics) or alternating untraced and traced passes (per-layer
//! metrics), each pass on a fresh set-up of the seeded inputs.

use crate::host::peak_rss_mib;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::{ensure, median, timed, Layers, Objective, Size, Tally, Workload};
use std::collections::BTreeMap;
use std::time::Instant;

/// Before every pass, set-up runs back to back for this many seconds
/// (at least once, at most [`MAX_SETUPS_PER_PASS`] times), and the pass
/// uses the last build. `setup_s` is the median over every build of the
/// run, so its samples are spread over the whole run rather than taken
/// in one burst that a slow moment of the host could cover.
const SETUP_SLICE_S: f64 = 0.1;
/// Cap on set-up repetitions before one pass.
const MAX_SETUPS_PER_PASS: usize = 100;
/// An untraced run makes at least this many passes, and `run_s` is
/// their median.
const MIN_PASSES: usize = 3;

/// How to run a workload.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Time budget for the measured passes, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Seconds of the host's calibration kernel, reported with the
    /// per-layer metrics.
    pub calibration_s: f64,
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    /// Ops attempted, failed, and why.
    pub tally: Tally,
    /// Wall seconds of every untraced pass, in run order.
    pub passes: Vec<f64>,
    /// `(name, value, unit)` for every end-to-end metric, or for every
    /// per-layer metric when tracing.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// When tracing: the traced total and the attributed layer times
    /// that, with `unattributed_s`, add up to it.
    pub attribution: Option<(f64, Vec<(&'static str, f64)>)>,
}

/// Runs workload `W` under `opts`.
#[must_use]
pub fn run<W: Workload>(opts: &Options) -> Report {
    let mut setups = Vec::new();
    let mut tally = Tally::default();
    let mut first: Option<Objective> = None;
    let mut same_objective = |tally: &mut Tally, got: Objective| {
        let expected = *first.get_or_insert(got);
        tally.op(
            "repeat",
            ensure(got == expected, || {
                format!("pass gave {got:?}, the first pass {expected:?}")
            }),
        );
    };
    let start = Instant::now();
    let budget_left = |last: f64| start.elapsed().as_secs_f64() + last <= opts.seconds;

    if !opts.trace {
        let mut times = Vec::new();
        loop {
            let workload = set_up::<W>(opts, &mut setups);
            let (objective, secs) = timed(|| workload.run(&mut tally));
            same_objective(&mut tally, objective);
            times.push(secs);
            if times.len() >= MIN_PASSES && !budget_left(secs) {
                break;
            }
        }
        let objective = first.expect("at least one pass");
        let values = [
            median(&setups),
            median(&times),
            peak_rss_mib(),
            objective.makespan as f64,
            objective.bandwidth as f64,
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, v, m.unit))
            .collect();
        return Report {
            tally,
            passes: times,
            metrics,
            attribution: None,
        };
    }

    let mut untraced = Vec::new();
    let mut traced: Vec<(f64, Layers)> = Vec::new();
    let workload = loop {
        let workload = set_up::<W>(opts, &mut setups);
        let (objective, untraced_s) = timed(|| workload.run(&mut tally));
        same_objective(&mut tally, objective);
        untraced.push(untraced_s);
        let mut layers = Layers::new();
        let (objective, traced_s) = timed(|| workload.run_traced(&mut tally, &mut layers));
        same_objective(&mut tally, objective);
        traced.push((traced_s, layers));
        if !budget_left(untraced_s + traced_s) {
            break workload;
        }
    };
    // Report the traced pass with the median total, whole, so its layer
    // times and `unattributed_s` add up to exactly that total.
    traced.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (total, mut values) = traced.swap_remove((traced.len() - 1) / 2);
    let traced_totals: Vec<f64> = traced.iter().map(|t| t.0).chain([total]).collect();
    let attributed: Vec<(&'static str, f64)> = W::ATTRIBUTED
        .iter()
        .map(|&name| (name, values.get(name).copied().unwrap_or(0.0)))
        .collect();
    let unattributed = total - attributed.iter().map(|(_, v)| v).sum::<f64>();
    workload.extras(&mut tally, &mut values);
    values.insert("unattributed_s", unattributed);
    values.insert(
        "trace_overhead",
        median(&traced_totals) / median(&untraced) - 1.0,
    );
    values.insert("host.calibration_s", opts.calibration_s);
    Report {
        tally,
        passes: untraced,
        metrics: per_layer_metrics(&values),
        attribution: Some((total, attributed)),
    }
}

/// Builds the workload back to back for [`SETUP_SLICE_S`], recording
/// each build's seconds in `times`, and returns the last build. Each
/// build is dropped before the next starts, so repeating set-up does
/// not raise peak memory.
fn set_up<W: Workload>(opts: &Options, times: &mut Vec<f64>) -> W {
    let start = Instant::now();
    let mut built = None;
    for _ in 0..MAX_SETUPS_PER_PASS {
        drop(built.take());
        let (workload, secs) = timed(|| W::setup(opts.seed, opts.size));
        times.push(secs);
        built = Some(workload);
        if start.elapsed().as_secs_f64() >= SETUP_SLICE_S {
            break;
        }
    }
    built.expect("at least one set-up")
}

/// Every per-layer metric, in [`PER_LAYER`] order; layers the workload
/// does not exercise read 0.
fn per_layer_metrics(
    values: &BTreeMap<&'static str, f64>,
) -> Vec<(&'static str, f64, &'static str)> {
    for name in values.keys() {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "workload recorded undefined per-layer metric `{name}`"
        );
    }
    PER_LAYER
        .iter()
        .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0), m.unit))
        .collect()
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
///
/// # Panics
///
/// Panics on a non-finite metric value, which JSON cannot carry.
#[must_use]
pub fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is {value}");
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                crate::json_str(name),
                crate::json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.failed == 0,
        report.tally.attempted,
        report.tally.failed,
        metrics.join(", ")
    )
}
