//! `scale`: the ROADMAP's generate → simulate → certify path on large
//! `G(n, p)` overlays.
//!
//! Planning is about a third of a pass and the `RunRecord` round trip
//! more than half; records of ~70 MiB and the schedules put the working
//! set far beyond the caches. A pass runs two seeded overlays of 10^4
//! vertices rather than the ROADMAP's one of 10^5: at 10^5 one pass
//! takes ~45 s and several GB, too much to repeat, and the bandwidth of
//! a single overlay varies by ±12 % across seeds, which two halve.

use crate::timing::{span_total, CountingMedium, TimedStrategy};
use crate::{ensure, ratio, stream_rng, timed, Layers, Objective, Size, Tally, Workload, THREADS};
use ocd_core::scenario::single_file;
use ocd_core::{validate, FlightRecorder, Instance, RunRecord};
use ocd_graph::generate::{gnp, GnpConfig};
use ocd_heuristics::{
    simulate_with, simulate_with_spans, Ideal, Sharded, ShardedLocal, SimConfig, SimOutcome,
    SimReport, Strategy,
};

const MEDIUM: &str = "ideal";

/// Overlays per pass.
const OVERLAYS: u64 = 2;

/// The `scale` workload's inputs: one instance per overlay.
pub struct Scale {
    instances: Vec<Instance>,
    seed: u64,
    generate_s: f64,
    bytes_per_vertex: f64,
}

/// What the ops of one overlay produced, before any of it is checked.
pub struct ScaleOutputs {
    /// The simulation report, schedule included.
    pub report: SimReport,
    /// The run artifact built from the outcome.
    pub record: RunRecord,
    /// `record` encoded as JSON.
    pub json: Result<String, String>,
}

impl Scale {
    /// Overlays in a pass.
    fn overlays(&self) -> usize {
        self.instances.len()
    }

    fn simulate(&self, i: usize, strategy: &mut dyn Strategy) -> SimOutcome {
        let mut rng = stream_rng(self.seed, 2 * i as u64 + 1);
        simulate_with(
            &self.instances[i],
            strategy,
            &mut Ideal,
            &SimConfig::default(),
            &mut rng,
        )
    }

    fn to_record(&self, i: usize, outcome: &SimOutcome, strategy: &str) -> RunRecord {
        outcome.to_record(&self.instances[i], strategy, MEDIUM, self.seed)
    }

    /// Runs the ops of overlay `i`: simulate, then build and encode the
    /// record.
    #[must_use]
    pub fn produce(&self, i: usize) -> ScaleOutputs {
        let mut strategy = Sharded::new(ShardedLocal::new(), THREADS);
        let outcome = self.simulate(i, &mut strategy);
        let record = self.to_record(i, &outcome, strategy.name());
        let json = record.to_json().map_err(|e| e.to_string());
        ScaleOutputs {
            report: outcome.report,
            record,
            json,
        }
    }

    /// Checks the outputs of overlay `i`: the schedule replays to
    /// success, and the record decodes to the encoded one and certifies.
    /// Each is one op.
    pub fn check(&self, tally: &mut Tally, i: usize, out: &ScaleOutputs) -> Objective {
        tally.op("simulate", check_schedule(&self.instances[i], &out.report));
        let decoded = out
            .json
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|json| RunRecord::from_json(json).map_err(|e| e.to_string()));
        tally.op("record", check_record(&out.record, decoded));
        let mut objective = Objective::default();
        objective.add(out.report.steps as u64, out.report.bandwidth);
        objective
    }

    /// One traced pass over overlay `i`, adding its layer times and
    /// counts to `layers`. Returns the objective, the seconds the
    /// simulation took, and its duplicate deliveries.
    fn trace_overlay(
        &self,
        tally: &mut Tally,
        i: usize,
        layers: &mut Layers,
    ) -> (Objective, f64, u64) {
        let instance = &self.instances[i];
        let mut add = |name: &'static str, value: f64| *layers.entry(name).or_insert(0.0) += value;
        let mut spans = FlightRecorder::wall();
        let mut sharded = Sharded::new(ShardedLocal::new(), THREADS);
        let mut strategy = TimedStrategy::new(&mut sharded);
        let mut medium = CountingMedium::new(Ideal);
        let mut rng = stream_rng(self.seed, 2 * i as u64 + 1);
        let (outcome, sim_s) = timed(|| {
            simulate_with_spans(
                instance,
                &mut strategy,
                &mut medium,
                &SimConfig::default(),
                &mut rng,
                &mut spans,
            )
        });
        let report = &outcome.report;
        add("engine.plan_s", strategy.plan_s);
        add("engine.admit_s", span_total(&spans, "engine.admit"));
        add("engine.apply_s", span_total(&spans, "engine.apply"));
        let duplicates = report.duplicate_deliveries;
        let (checked, replay_s) = timed(|| check_schedule(instance, report));
        add("core.replay_s", replay_s);
        tally.op(
            "simulate",
            checked.and_then(|()| {
                ensure(medium.admitted == report.bandwidth, || {
                    format!(
                        "medium admitted {} moves, schedule has {}",
                        medium.admitted, report.bandwidth
                    )
                })
            }),
        );
        let mut objective = Objective::default();
        objective.add(report.steps as u64, report.bandwidth);

        let ((record, json), encode_s) = timed(|| {
            let record = self.to_record(i, &outcome, sharded.name());
            let json = record.to_json().map_err(|e| e.to_string());
            (record, json)
        });
        drop(outcome);
        add("record.encode_s", encode_s);
        add(
            "record.mib",
            json.as_ref()
                .map_or(0.0, |j| j.len() as f64 / f64::from(1 << 20)),
        );
        let (decoded, decode_s) =
            timed(|| json.and_then(|j| RunRecord::from_json(&j).map_err(|e| e.to_string())));
        add("record.decode_s", decode_s);
        let (checked, certify_s) = timed(|| check_record(&record, decoded));
        add("record.certify_s", certify_s);
        tally.op("record", checked);
        (objective, sim_s, duplicates)
    }
}

/// The simulation succeeded and its schedule replays to success with
/// the reported makespan and bandwidth.
fn check_schedule(instance: &Instance, report: &SimReport) -> Result<(), String> {
    ensure(report.success, || "run did not satisfy every want".into())?;
    let replay = validate::replay(instance, &report.schedule).map_err(|e| e.to_string())?;
    ensure(replay.is_successful(), || {
        "replay leaves wants unsatisfied".into()
    })?;
    ensure(
        report.schedule.makespan() == report.steps
            && report.schedule.bandwidth() == report.bandwidth,
        || "schedule disagrees with the reported steps or bandwidth".into(),
    )
}

/// The decoded record equals the encoded one and certifies to success.
fn check_record(record: &RunRecord, decoded: Result<RunRecord, String>) -> Result<(), String> {
    let decoded = decoded.map_err(|e| format!("decode: {e}"))?;
    ensure(same_record(record, &decoded), || {
        "decoded record differs from the encoded one".into()
    })?;
    let replay = decoded.certify().map_err(|e| format!("certify: {e}"))?;
    ensure(replay.is_successful(), || {
        "certified run is unsuccessful".into()
    })
}

fn same_record(a: &RunRecord, b: &RunRecord) -> bool {
    a.version == b.version
        && a.strategy == b.strategy
        && a.medium == b.medium
        && a.seed == b.seed
        && a.instance == b.instance
        && a.schedule == b.schedule
        && a.success == b.success
        && a.steps == b.steps
        && a.bandwidth == b.bandwidth
        && a.duplicate_deliveries == b.duplicate_deliveries
        && a.wall_nanos == b.wall_nanos
        && a.completion_steps == b.completion_steps
        && a.trace == b.trace
        && a.capacity_trace == b.capacity_trace
        && a.rejected_per_step == b.rejected_per_step
        && a.metrics == b.metrics
        && a.provenance == b.provenance
}

/// One planning run of overlay 0 at `shards` shards: the schedule and
/// the seconds spent in `plan_step`.
fn timed_plan(scale: &Scale, shards: usize) -> (SimOutcome, f64) {
    let mut sharded = Sharded::new(ShardedLocal::new(), shards);
    let mut strategy = TimedStrategy::new(&mut sharded);
    let outcome = scale.simulate(0, &mut strategy);
    (outcome, strategy.plan_s)
}

impl Workload for Scale {
    const ATTRIBUTED: &'static [&'static str] = &[
        "engine.plan_s",
        "engine.admit_s",
        "engine.apply_s",
        "core.replay_s",
        "record.encode_s",
        "record.decode_s",
        "record.certify_s",
    ];

    fn setup(seed: u64, size: Size) -> Self {
        let (n, m) = match size {
            Size::Full => (10_000, 32),
            Size::Toy => (150, 8),
        };
        let (mut generate_s, mut bytes) = (0.0, 0);
        let instances: Vec<Instance> = (0..OVERLAYS)
            .map(|i| {
                let (graph, secs) =
                    timed(|| gnp(&GnpConfig::fast(n), &mut stream_rng(seed, 2 * i)));
                generate_s += secs;
                // Build the lazily indexed CSR adjacency now, so no pass
                // pays for it.
                let _ = graph.out_edges(graph.node(0));
                bytes += graph.memory_bytes();
                single_file(graph, m, 0)
            })
            .collect();
        let vertices: usize = instances.iter().map(Instance::num_vertices).sum();
        Scale {
            instances,
            seed,
            generate_s,
            bytes_per_vertex: bytes as f64 / vertices as f64,
        }
    }

    fn run(&self, tally: &mut Tally) -> Objective {
        let mut objective = Objective::default();
        for i in 0..self.overlays() {
            let out = self.produce(i);
            let o = self.check(tally, i, &out);
            objective.add(o.makespan, o.bandwidth);
        }
        objective
    }

    fn run_traced(&self, tally: &mut Tally, layers: &mut Layers) -> Objective {
        let (mut objective, mut sim_s, mut duplicates) = (Objective::default(), 0.0, 0);
        for i in 0..self.overlays() {
            let (o, secs, dups) = self.trace_overlay(tally, i, layers);
            objective.add(o.makespan, o.bandwidth);
            sim_s += secs;
            duplicates += dups;
        }
        let moves = objective.bandwidth as f64;
        layers.insert("engine.moves_per_s", ratio(moves, sim_s));
        layers.insert("engine.duplicate_ratio", ratio(duplicates as f64, moves));
        objective
    }

    fn extras(&self, tally: &mut Tally, layers: &mut Layers) {
        layers.insert("graph.generate_s", self.generate_s);
        layers.insert("graph.bytes_per_vertex", self.bytes_per_vertex);
        let (one, plan_one) = timed_plan(self, 1);
        let (two, plan_two) = timed_plan(self, THREADS);
        layers.insert("engine.plan_speedup", ratio(plan_one, plan_two));
        tally.op(
            "shard-determinism",
            ensure(one.report.schedule == two.report.schedule, || {
                format!("1-shard and {THREADS}-shard schedules differ")
            }),
        );
    }
}
