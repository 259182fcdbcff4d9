//! `swarm`: the uncoded swarm runtime on a sparse transit-stub overlay
//! with lossy data links and a lossy control plane; the extracted
//! schedule is then replayed.
//!
//! Only about a tenth of vertex-ticks send data, yet deciding takes
//! most of each tick: this is where an event-driven swarm core would
//! show, and `net.active_vertex_share` says how much it could skip.
//!
//! A pass runs two seeded overlays of 5 000 vertices rather than one of
//! 10 000: the same work, but the tick count of a single overlay varies
//! by about ±8 % across seeds, and two halve that variance.

use crate::timing::{span_secs, span_total};
use crate::{ensure, ratio, stream_rng, timed, Layers, Objective, Size, Tally, Workload};
use ocd_core::scenario::single_file;
use ocd_core::{validate, FlightRecorder, Instance, NoopSpans, SpanRecorder};
use ocd_graph::generate::{transit_stub, TransitStubConfig};
use ocd_net::{run_swarm_with_spans, FaultPlan, MsgKind, NetConfig, NetPolicy, NetReport};

/// Overlays per pass.
const OVERLAYS: u64 = 2;

/// The `swarm` workload's inputs: one instance per overlay.
pub struct Swarm {
    instances: Vec<Instance>,
    seed: u64,
}

fn config() -> NetConfig {
    NetConfig {
        policy: NetPolicy::Local,
        latency: 3,
        jitter: 2,
        loss: 0.1,
        control_loss: 0.1,
        ..NetConfig::default()
    }
}

/// The run completed, conserved every token, and its extracted schedule
/// replays to success.
fn check_swarm(instance: &Instance, report: &NetReport) -> Result<(), String> {
    ensure(report.success, || "swarm did not satisfy every want".into())?;
    ensure(report.accounts_for_every_token(), || {
        "sent != delivered + lost + dropped + in flight".into()
    })?;
    let replay = validate::replay(instance, &report.schedule).map_err(|e| e.to_string())?;
    ensure(replay.is_successful(), || {
        "replay leaves wants unsatisfied".into()
    })
}

/// The tick time at the highest percentile that still has at least ten
/// ticks beyond it (the slowest tick when there are ten or fewer).
fn tail(sorted: &[f64]) -> f64 {
    sorted
        .len()
        .checked_sub(11)
        .map_or_else(|| sorted.last().copied().unwrap_or(0.0), |i| sorted[i])
}

/// Vertex-ticks with at least one data departure.
fn active_vertex_ticks(instance: &Instance, report: &NetReport) -> u64 {
    let g = instance.graph();
    let mut sender_tick = vec![usize::MAX; g.node_count()];
    let mut active = 0;
    for (tick, step) in report.schedule.steps().iter().enumerate() {
        for (edge, _) in step.sends() {
            let src = g.edge(edge).src.index();
            if sender_tick[src] != tick {
                sender_tick[src] = tick;
                active += 1;
            }
        }
    }
    active
}

impl Swarm {
    /// The swarm run of overlay `i`, with spans recorded into `spans`.
    fn swarm<S: SpanRecorder>(&self, i: usize, spans: &mut S) -> NetReport {
        let mut rng = stream_rng(self.seed, 2 * i as u64 + 1);
        run_swarm_with_spans(
            &self.instances[i],
            &config(),
            &FaultPlan::none(),
            &mut rng,
            spans,
        )
    }
}

impl Workload for Swarm {
    const ATTRIBUTED: &'static [&'static str] = &[
        "net.decide_s",
        "net.deliver_data_s",
        "net.refresh_haves_s",
        "core.replay_s",
    ];

    fn setup(seed: u64, size: Size) -> Self {
        let (n, m) = match size {
            Size::Full => (5_000, 64),
            Size::Toy => (150, 8),
        };
        let instances = (0..OVERLAYS)
            .map(|i| {
                let config = TransitStubConfig::paper_sized(n);
                let graph = transit_stub(&config, &mut stream_rng(seed, 2 * i));
                let _ = graph.out_edges(graph.node(0));
                single_file(graph, m, 0)
            })
            .collect();
        Swarm { instances, seed }
    }

    fn run(&self, tally: &mut Tally) -> Objective {
        let mut objective = Objective::default();
        for (i, instance) in self.instances.iter().enumerate() {
            let report = self.swarm(i, &mut NoopSpans);
            tally.op("swarm", check_swarm(instance, &report));
            objective.add(report.ticks, report.bandwidth());
        }
        objective
    }

    fn run_traced(&self, tally: &mut Tally, layers: &mut Layers) -> Objective {
        let mut objective = Objective::default();
        let mut spans = FlightRecorder::wall();
        let (mut replay_s, mut active, mut vertex_ticks) = (0.0, 0, 0);
        let (mut useful, mut timeouts, mut ctrl, mut max_queue) = (0, 0, 0, 0);
        let mut retransmits = 0;
        for (i, instance) in self.instances.iter().enumerate() {
            let report = self.swarm(i, &mut spans);
            let (checked, secs) = timed(|| check_swarm(instance, &report));
            tally.op("swarm", checked);
            replay_s += secs;
            objective.add(report.ticks, report.bandwidth());
            active += active_vertex_ticks(instance, &report);
            vertex_ticks += instance.num_vertices() as u64 * report.ticks;
            useful += report
                .tokens_delivered
                .saturating_sub(report.duplicate_deliveries);
            retransmits += report.retransmits;
            timeouts += report
                .vertex_counters
                .iter()
                .map(|v| v.request_timeouts)
                .sum::<u64>();
            ctrl += MsgKind::ALL
                .iter()
                .filter(|k| **k != MsgKind::Token)
                .map(|k| report.messages_sent[k.index()])
                .sum::<u64>();
            let queue = report.link_counters.iter().map(|l| l.max_queue_depth).max();
            max_queue = max_queue.max(queue.unwrap_or(0));
        }
        layers.insert("core.replay_s", replay_s);
        for (metric, span) in [
            ("net.decide_s", "net.decide"),
            ("net.deliver_data_s", "net.deliver_data"),
            ("net.refresh_haves_s", "net.refresh_haves"),
        ] {
            layers.insert(metric, span_total(&spans, span));
        }
        let mut ticks = span_secs(&spans, "net.tick");
        ticks.sort_by(f64::total_cmp);
        layers.insert("net.tick_p50_ms", crate::median(&ticks) * 1e3);
        layers.insert("net.tick_tail_ms", tail(&ticks) * 1e3);
        layers.insert("net.ticks", ticks.len() as f64);
        layers.insert(
            "net.active_vertex_share",
            ratio(active as f64, vertex_ticks as f64),
        );
        layers.insert(
            "net.useful_ratio",
            ratio(useful as f64, objective.bandwidth as f64),
        );
        layers.insert("net.retransmits", retransmits as f64);
        layers.insert("net.request_timeouts", timeouts as f64);
        layers.insert("net.ctrl_msgs", ctrl as f64);
        layers.insert("net.max_queue_depth", max_queue as f64);
        objective
    }

    fn extras(&self, _tally: &mut Tally, _layers: &mut Layers) {}
}
