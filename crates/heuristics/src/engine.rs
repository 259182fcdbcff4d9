//! The step-by-step simulation engine.
//!
//! There is exactly **one** step loop — [`simulate_with`], generic over
//! the transmission [`Medium`] — shared by the ideal §3.1 model
//! ([`crate::simulate`]), changing network conditions
//! ([`crate::Dynamic`]), physical-underlay admission control
//! ([`crate::PhysicalUnderlay`]) and node budgets
//! ([`crate::NodeCapacity`]).
//!
//! The loop takes one instrumentation probe, a [`SpanRecorder`]
//! ([`simulate_with_spans`]). Metrics and provenance are not recorded
//! inside it: both are derived from the finished run, which already
//! holds everything they report ([`SimOutcome::metrics_snapshot`] and
//! [`ProvenanceTrace::from_schedule`](ocd_core::ProvenanceTrace::from_schedule)).
//!
//! The loop is written to be **incremental and allocation-free in
//! steady state**: aggregate knowledge is maintained by counter updates
//! from each delivery (never recomputed from scratch), per-vertex
//! outstanding need is tracked as a scalar, duplicate-arc detection uses
//! a stamped array instead of a fresh `Vec<bool>`, and the knowledge
//! delay pipeline recycles its buffers. The only per-step heap traffic
//! is recording the outputs the caller asked for (the schedule, the
//! trace, and — when the medium requests them — the capacity trace and
//! rejection counts) and whatever the strategy allocates for its own
//! sends. A [`TokenSet`] over at most 128 tokens stores its words
//! inline, so for such universes the sets themselves (the sends a
//! strategy plans, the copies the schedule keeps) never allocate.

use crate::medium::{Ideal, Medium};
use crate::{Strategy, WorldView};
use ocd_core::knowledge::{AggregateKnowledge, DelayedAggregates};
use ocd_core::metrics::{HistogramSnapshot, MetricsSnapshot, SeriesSnapshot};
use ocd_core::record::{RunRecord, StepTrace, RUN_RECORD_VERSION};
use ocd_core::span::{NoopSpans, SpanRecorder};
use ocd_core::{Instance, Schedule, Timestep, TokenSet};
use rand::RngCore;
use std::time::Instant;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Hard cap on timesteps; a run that has not satisfied every want by
    /// then reports failure. Guards against non-terminating strategies.
    pub max_steps: usize,
    /// Propagation delay (in steps) applied to the aggregate knowledge
    /// strategies see — the paper's "state `k` turns ago" relaxation
    /// (§5.1). 0 = fresh aggregates, the paper's default assumption.
    pub knowledge_delay: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_steps: 10_000,
            knowledge_delay: 0,
        }
    }
}

/// Result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// The schedule the strategy produced (always valid for the
    /// instance; the engine enforces the §3.1 restrictions).
    pub schedule: Schedule,
    /// Whether every want was satisfied within the step budget.
    pub success: bool,
    /// Steps actually executed (= `schedule.makespan()`).
    pub steps: usize,
    /// Total tokens transferred (= `schedule.bandwidth()`).
    pub bandwidth: u64,
    /// For each vertex, the step after which its want set was complete
    /// (0 = already satisfied initially); `None` if never satisfied.
    pub completion_steps: Vec<Option<usize>>,
    /// Per-step counters, as [`RunRecord::trace`] stores them.
    pub trace: Vec<StepTrace>,
    /// Tokens delivered to a vertex that already held them — waste from
    /// simultaneous duplicate sends (the only duplicates the lockstep
    /// model permits). Comparable with the asynchronous runtime's
    /// duplicate-token counter, which additionally counts retransmission
    /// overshoot.
    pub duplicate_deliveries: u64,
    /// Wall-clock nanoseconds for the whole run (setup + step loop).
    pub wall_nanos: u64,
}

impl SimReport {
    /// Mean completion step over vertices that started unsatisfied.
    /// `None` if nothing needed distributing or some vertex never
    /// finished.
    #[must_use]
    pub fn mean_completion(&self) -> Option<f64> {
        let finishers: Vec<usize> = self
            .completion_steps
            .iter()
            .map(|c| c.ok_or(()))
            .collect::<Result<Vec<_>, ()>>()
            .ok()?;
        let late: Vec<usize> = finishers.into_iter().filter(|&s| s > 0).collect();
        if late.is_empty() {
            None
        } else {
            Some(late.iter().sum::<usize>() as f64 / late.len() as f64)
        }
    }

    /// Mean wall-clock nanoseconds per executed step (`None` for a
    /// zero-step run).
    #[must_use]
    pub fn mean_step_nanos(&self) -> Option<f64> {
        if self.trace.is_empty() {
            None
        } else {
            Some(self.trace.iter().map(|r| r.nanos as f64).sum::<f64>() / self.trace.len() as f64)
        }
    }
}

/// Everything one [`simulate_with`] run produced: the usual report plus
/// the medium-specific extras (empty unless the medium records them).
///
/// Convert to the shared machine-readable artifact with
/// [`SimOutcome::to_record`].
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// The simulation report (schedule, metrics, trace).
    pub report: SimReport,
    /// `capacity_trace[i][e]` = effective capacity of arc `e` at step
    /// `i`; empty unless the medium
    /// [records it](Medium::records_capacity_trace).
    pub capacity_trace: Vec<Vec<u32>>,
    /// Token-moves rejected by admission control, per step; empty
    /// unless the medium [records it](Medium::records_rejections).
    pub rejected_per_step: Vec<u64>,
}

impl SimOutcome {
    /// Builds the shared [`RunRecord`] artifact: the instance, the
    /// schedule, the per-step trace, and the medium extras, in the JSON
    /// schema every layer of the suite emits and consumes.
    /// [`RunRecord::certify`] can re-validate the run from the artifact
    /// alone. The derived `metrics` and `provenance` fields are left
    /// empty for the caller to fill: from [`SimOutcome::metrics_snapshot`]
    /// and [`ProvenanceTrace::from_schedule`](ocd_core::ProvenanceTrace::from_schedule).
    #[must_use]
    pub fn to_record(
        &self,
        instance: &Instance,
        strategy: &str,
        medium: &str,
        seed: u64,
    ) -> RunRecord {
        RunRecord {
            version: RUN_RECORD_VERSION,
            strategy: strategy.to_string(),
            medium: medium.to_string(),
            seed,
            instance: instance.clone(),
            schedule: self.report.schedule.clone(),
            success: self.report.success,
            steps: self.report.steps,
            bandwidth: self.report.bandwidth,
            duplicate_deliveries: self.report.duplicate_deliveries,
            wall_nanos: self.report.wall_nanos,
            completion_steps: self.report.completion_steps.clone(),
            trace: self.report.trace.clone(),
            capacity_trace: self.capacity_trace.clone(),
            rejected_per_step: self.rejected_per_step.clone(),
            metrics: None,
            provenance: None,
        }
    }

    /// The `engine.*` metrics of the run, read off the outcome and the
    /// instance: headline counters, the per-step move histogram,
    /// per-arc and per-vertex utilization series and instance-shape
    /// gauges. Deterministic: equal-seed runs snapshot
    /// byte-identically. `engine.rejected_moves` sums
    /// `rejected_per_step`, so it relies on every rejecting medium
    /// [recording rejections](Medium::records_rejections).
    #[must_use]
    pub fn metrics_snapshot(&self, instance: &Instance) -> MetricsSnapshot {
        let g = instance.graph();
        let report = &self.report;
        let mut arc_tokens = vec![0; g.edge_count()];
        let mut uplink_tokens = vec![0; g.node_count()];
        for (edge, tokens) in report.schedule.steps().iter().flat_map(Timestep::sends) {
            arc_tokens[edge.index()] += tokens.len() as u64;
            uplink_tokens[g.edge(edge).src.index()] += tokens.len() as u64;
        }
        let remaining = report
            .trace
            .last()
            .map_or_else(|| instance.total_deficiency(), |r| r.remaining_need);
        MetricsSnapshot::new(
            [
                ("engine.steps", report.steps as u64),
                ("engine.moves", report.bandwidth),
                ("engine.duplicate_deliveries", report.duplicate_deliveries),
                ("engine.rejected_moves", self.rejected_per_step.iter().sum()),
            ],
            [
                ("engine.vertices", g.node_count() as i64),
                ("engine.arcs", g.edge_count() as i64),
                ("engine.tokens", instance.num_tokens() as i64),
                ("engine.remaining_need", remaining as i64),
            ],
            [
                HistogramSnapshot::of("engine.step_moves", report.trace.iter().map(|r| r.moves)),
                // Phase timings come from wall-clock spans, not metrics.
                // These three histograms stay, and empty, because every
                // snapshot since RunRecord schema v2 carries them:
                // dropping them would change every artifact that embeds
                // one.
                HistogramSnapshot::of("engine.plan_nanos", []),
                HistogramSnapshot::of("engine.admit_nanos", []),
                HistogramSnapshot::of("engine.apply_nanos", []),
            ],
            [
                SeriesSnapshot::new("engine.arc_tokens", arc_tokens),
                SeriesSnapshot::new("engine.vertex_uplink_tokens", uplink_tokens),
            ],
        )
    }
}

/// Runs `strategy` on `instance` under the ideal §3.1 medium (static
/// capacities, every proposal admitted) until success, stall, or the
/// step cap. Equivalent to `simulate_with(.., &mut Ideal, ..)`.
///
/// # Panics
///
/// Panics if the strategy violates capacity or possession, sends on a
/// non-existent arc, or duplicates an arc within a step.
pub fn simulate(
    instance: &Instance,
    strategy: &mut dyn Strategy,
    config: &SimConfig,
    rng: &mut dyn RngCore,
) -> SimReport {
    simulate_with(instance, strategy, &mut Ideal, config, rng).report
}

/// The one step loop: runs `strategy` on `instance` over `medium`.
///
/// Each step the engine:
///
/// 1. feeds the incrementally-maintained aggregates through the
///    configured knowledge delay (with delay 0 the fresh aggregates are
///    borrowed directly);
/// 2. asks the medium for this step's effective capacities (the ideal
///    medium borrows the static capacities without copying);
/// 3. hands the strategy a [`WorldView`];
/// 4. checks the returned sends against the §3.1 restrictions
///    (possession, capacity) — violations are strategy bugs and panic;
/// 5. passes the proposal through the medium's admission control;
/// 6. applies the admitted sends to the possession state (received
///    tokens become usable next step, per the store-and-forward model),
///    updating the aggregates and per-vertex outstanding-need counters
///    from the deliveries alone.
///
/// A step with zero admitted moves and zero rejections aborts the run
/// as a stall if the medium says [stalls abort](Medium::stall_aborts)
/// and the strategy does not claim the right to idle.
///
/// # Panics
///
/// Panics if the strategy violates capacity or possession, sends on a
/// non-existent arc, or duplicates an arc within a step; also on a
/// medium that produces a malformed capacity vector.
pub fn simulate_with<M: Medium>(
    instance: &Instance,
    strategy: &mut dyn Strategy,
    medium: &mut M,
    config: &SimConfig,
    rng: &mut dyn RngCore,
) -> SimOutcome {
    simulate_with_spans(instance, strategy, medium, config, rng, &mut NoopSpans)
}

/// [`simulate_with`], recording the step loop's phase spans
/// (`engine.step` ⊃ `engine.plan` / `engine.admit` / `engine.apply`,
/// plus `engine.vertex_complete` events) into a caller-supplied
/// [`SpanRecorder`] — the loop's one instrumentation probe.
///
/// Span counters are deterministic quantities (moves admitted,
/// remaining need), so a [`FlightRecorder::logical`] recorder produces
/// byte-identical artifacts across equal-seed runs. Pass
/// [`FlightRecorder::wall`] to time each phase instead. With
/// [`NoopSpans`] the inlined no-ops make this the uninstrumented loop.
///
/// [`FlightRecorder::logical`]: ocd_core::FlightRecorder::logical
/// [`FlightRecorder::wall`]: ocd_core::FlightRecorder::wall
pub fn simulate_with_spans<M: Medium, S: SpanRecorder>(
    instance: &Instance,
    strategy: &mut dyn Strategy,
    medium: &mut M,
    config: &SimConfig,
    rng: &mut dyn RngCore,
    spans: &mut S,
) -> SimOutcome {
    let run_start = Instant::now();
    let g = instance.graph();
    let n = g.node_count();
    let m = instance.num_tokens();
    strategy.reset(instance);
    medium.reset(g);
    let record_capacity_trace = medium.records_capacity_trace();
    let record_rejections = medium.records_rejections();
    let stall_aborts = medium.stall_aborts();

    let mut possession: Vec<TokenSet> = instance.have_all().to_vec();
    let mut schedule = Schedule::new();
    let mut trace = Vec::new();
    let mut capacity_trace: Vec<Vec<u32>> = Vec::new();
    let mut rejected_per_step: Vec<u64> = Vec::new();

    // Per-vertex outstanding need and its total, maintained from
    // deliveries instead of re-scanned each step.
    let mut missing: Vec<usize> = (0..n)
        .map(|v| {
            let v = g.node(v);
            instance.want(v).difference_len(&possession[v.index()])
        })
        .collect();
    let mut remaining: u64 = missing.iter().map(|&c| c as u64).sum();
    let mut completion_steps: Vec<Option<usize>> =
        missing.iter().map(|&c| (c == 0).then_some(0)).collect();

    // Fresh aggregates are computed once by the reference implementation
    // and then maintained incrementally; the delay pipeline only exists
    // when a delay is configured, so the common delay-0 path borrows
    // `fresh` without any copying.
    let mut fresh = AggregateKnowledge::compute(m, &possession, instance.want_all());
    let mut delayed = (config.knowledge_delay > 0)
        .then(|| DelayedAggregates::new(config.knowledge_delay, fresh.clone()));
    let static_caps: Vec<u32> = g.edge_ids().map(|e| g.capacity(e)).collect();

    // Scratch arena reused across steps: a stamped duplicate-arc
    // detector (bumping `stamp` invalidates the whole array in O(1))
    // and a delivery buffer for the newly-received tokens of one send.
    let mut seen_stamp: Vec<u64> = vec![0; g.edge_count()];
    let mut stamp = 0u64;
    let mut delta = TokenSet::new(m);
    let mut duplicate_deliveries = 0u64;

    let mut step = 0usize;
    let mut success = remaining == 0;
    while !success && step < config.max_steps {
        let step_start = Instant::now();
        let step_span = spans.open("engine.step");
        let plan_span = spans.open("engine.plan");
        let visible: &AggregateKnowledge = match delayed.as_mut() {
            Some(d) => d.advance_from(&fresh),
            None => &fresh,
        };
        medium.observe(&possession);
        let caps: &[u32] = medium.capacities(g, &static_caps, step, rng);
        assert_eq!(
            caps.len(),
            g.edge_count(),
            "medium produced a malformed capacity vector"
        );
        let mut sends = {
            let view = WorldView {
                instance,
                possession: &possession,
                aggregates: visible,
                step,
                capacities: caps,
            };
            strategy.plan_step(&view, rng)
        };

        // Enforce the §3.1 restrictions; violations are strategy bugs.
        stamp += 1;
        for (edge, tokens) in &sends {
            assert!(
                edge.index() < g.edge_count(),
                "strategy {} sent on unknown arc {edge} at step {step}",
                strategy.name()
            );
            assert!(
                std::mem::replace(&mut seen_stamp[edge.index()], stamp) != stamp,
                "strategy {} duplicated arc {edge} at step {step}",
                strategy.name()
            );
            let arc = g.edge(*edge);
            assert!(
                tokens.len() <= caps[edge.index()] as usize,
                "strategy {} overfilled arc {edge} ({} > {}) at step {step}",
                strategy.name(),
                tokens.len(),
                caps[edge.index()]
            );
            assert!(
                tokens.is_subset(&possession[arc.src.index()]),
                "strategy {} sent unpossessed tokens on arc {edge} at step {step}",
                strategy.name()
            );
        }

        if record_capacity_trace {
            capacity_trace.push(caps.to_vec());
        }
        spans.close(plan_span);
        let admit_span = spans.open("engine.admit");
        let rejected = medium.admit(&mut sends);
        let timestep = Timestep::from_sends(sends);
        let moves = timestep.bandwidth();
        spans.close(admit_span);
        if moves == 0 && rejected == 0 && stall_aborts && !strategy.may_idle(step) {
            spans.close(step_span);
            break; // stall
        }
        if record_rejections {
            rejected_per_step.push(rejected);
        }
        let apply_span = spans.open("engine.apply");
        // Apply: receipts land after all sends are read (store &
        // forward; validation above used the pre-step possession). Each
        // send's *newly received* tokens — `delta` — are the only
        // events that change the aggregates and need counters.
        for (edge, tokens) in timestep.sends() {
            let arc = g.edge(edge);
            let dst = arc.dst;
            delta.copy_from(tokens);
            delta.subtract(&possession[dst.index()]);
            duplicate_deliveries += (tokens.len() - delta.len()) as u64;
            if delta.is_empty() {
                continue;
            }
            possession[dst.index()].union_with(&delta);
            let satisfied = fresh.apply_delivery(&delta, instance.want(dst));
            remaining -= satisfied;
            let missing_dst = &mut missing[dst.index()];
            *missing_dst -= satisfied as usize;
            if *missing_dst == 0 && completion_steps[dst.index()].is_none() {
                completion_steps[dst.index()] = Some(step + 1);
                spans.event("engine.vertex_complete", dst.index() as u64);
            }
        }
        schedule.push_timestep(timestep);
        spans.close(apply_span);
        spans.attach(step_span, "moves", moves);
        spans.attach(step_span, "rejected", rejected);
        spans.attach(step_span, "remaining_need", remaining);
        spans.close(step_span);
        step += 1;
        trace.push(StepTrace {
            step: step - 1,
            moves,
            remaining_need: remaining,
            nanos: step_start.elapsed().as_nanos() as u64,
        });
        success = remaining == 0;
    }

    debug_assert_eq!(
        fresh,
        AggregateKnowledge::compute(m, &possession, instance.want_all()),
        "incremental aggregates diverged from the reference implementation"
    );
    debug_assert_eq!(remaining, remaining_need(instance, &possession));

    SimOutcome {
        report: SimReport {
            steps: schedule.makespan(),
            bandwidth: schedule.bandwidth(),
            schedule,
            success,
            completion_steps,
            trace,
            duplicate_deliveries,
            wall_nanos: run_start.elapsed().as_nanos() as u64,
        },
        capacity_trace,
        rejected_per_step,
    }
}

fn remaining_need(instance: &Instance, possession: &[TokenSet]) -> u64 {
    instance
        .want_all()
        .iter()
        .zip(possession)
        .map(|(w, p)| w.difference_len(p) as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KnowledgeTier, Strategy};
    use ocd_core::provenance::ProvenanceTrace;
    use ocd_core::scenario::single_file;
    use ocd_core::span::FlightRecorder;
    use ocd_core::validate;
    use ocd_graph::generate::classic;
    use ocd_graph::EdgeId;
    use rand::prelude::*;

    /// Floods everything allowed on every arc each step.
    struct Flood;

    impl Strategy for Flood {
        fn name(&self) -> &'static str {
            "flood"
        }
        fn tier(&self) -> KnowledgeTier {
            KnowledgeTier::PeerState
        }
        fn reset(&mut self, _: &Instance) {}
        fn plan_step(
            &mut self,
            view: &WorldView<'_>,
            _rng: &mut dyn RngCore,
        ) -> Vec<(EdgeId, TokenSet)> {
            let g = view.graph();
            let mut out = Vec::new();
            for e in g.edge_ids() {
                let arc = g.edge(e);
                let mut send =
                    view.possession[arc.src.index()].difference(&view.possession[arc.dst.index()]);
                send.truncate(arc.capacity as usize);
                if !send.is_empty() {
                    out.push((e, send));
                }
            }
            out
        }
    }

    /// Never sends anything.
    struct Lazy;

    impl Strategy for Lazy {
        fn name(&self) -> &'static str {
            "lazy"
        }
        fn tier(&self) -> KnowledgeTier {
            KnowledgeTier::LocalOnly
        }
        fn reset(&mut self, _: &Instance) {}
        fn plan_step(
            &mut self,
            _view: &WorldView<'_>,
            _rng: &mut dyn RngCore,
        ) -> Vec<(EdgeId, TokenSet)> {
            Vec::new()
        }
    }

    #[test]
    fn flood_succeeds_and_schedule_validates() {
        let instance = single_file(classic::cycle(5, 3, true), 6, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let report = simulate(&instance, &mut Flood, &SimConfig::default(), &mut rng);
        assert!(report.success);
        assert_eq!(report.steps, report.schedule.makespan());
        assert_eq!(report.bandwidth, report.schedule.bandwidth());
        let replay = validate::replay(&instance, &report.schedule).unwrap();
        assert!(replay.is_successful());
        // Trace is monotone in remaining need and ends at zero.
        for w in report.trace.windows(2) {
            assert!(w[1].remaining_need <= w[0].remaining_need);
        }
        assert_eq!(report.trace.last().unwrap().remaining_need, 0);
    }

    #[test]
    fn completion_steps_recorded() {
        let instance = single_file(classic::path(3, 5, true), 2, 0);
        let mut rng = StdRng::seed_from_u64(2);
        let report = simulate(&instance, &mut Flood, &SimConfig::default(), &mut rng);
        assert_eq!(
            report.completion_steps[0],
            Some(0),
            "source starts satisfied"
        );
        assert_eq!(report.completion_steps[1], Some(1));
        assert_eq!(report.completion_steps[2], Some(2));
        assert_eq!(report.mean_completion(), Some(1.5));
    }

    #[test]
    fn stalled_strategy_aborts_without_panic() {
        let instance = single_file(classic::path(3, 1, true), 2, 0);
        let mut rng = StdRng::seed_from_u64(3);
        let report = simulate(&instance, &mut Lazy, &SimConfig::default(), &mut rng);
        assert!(!report.success);
        assert_eq!(report.steps, 0);
        assert_eq!(report.completion_steps[1], None);
        assert_eq!(report.mean_completion(), None);
        assert_eq!(report.mean_step_nanos(), None);
    }

    #[test]
    fn trivially_satisfied_instance_takes_zero_steps() {
        let g = classic::path(2, 1, true);
        let instance = ocd_core::Instance::builder(g, 1)
            .have(0, [ocd_core::Token::new(0)])
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let report = simulate(&instance, &mut Flood, &SimConfig::default(), &mut rng);
        assert!(report.success);
        assert_eq!(report.steps, 0);
        assert_eq!(report.bandwidth, 0);
    }

    #[test]
    fn max_steps_caps_runaway() {
        let instance = single_file(classic::path(4, 1, true), 8, 0);
        let config = SimConfig {
            max_steps: 2,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(5);
        let report = simulate(&instance, &mut Flood, &config, &mut rng);
        assert!(!report.success);
        assert_eq!(report.steps, 2);
    }

    #[test]
    fn knowledge_delay_runs_match_zero_delay_outcome_for_flood() {
        // Flood ignores the aggregates entirely, so any delay must give
        // the identical schedule — this exercises the delayed
        // (`advance_from`) pipeline against the borrow-fresh fast path.
        let instance = single_file(classic::cycle(6, 2, true), 8, 0);
        let baseline = {
            let mut rng = StdRng::seed_from_u64(11);
            simulate(&instance, &mut Flood, &SimConfig::default(), &mut rng)
        };
        for delay in [1usize, 3, 5] {
            let config = SimConfig {
                knowledge_delay: delay,
                ..Default::default()
            };
            let mut rng = StdRng::seed_from_u64(11);
            let report = simulate(&instance, &mut Flood, &config, &mut rng);
            assert!(report.success, "delay {delay}");
            assert_eq!(report.schedule, baseline.schedule, "delay {delay}");
        }
    }

    #[test]
    fn wall_clock_fields_are_recorded() {
        let instance = single_file(classic::cycle(5, 3, true), 6, 0);
        let mut rng = StdRng::seed_from_u64(12);
        let report = simulate(&instance, &mut Flood, &SimConfig::default(), &mut rng);
        assert!(report.wall_nanos > 0);
        assert_eq!(report.trace.len(), report.steps);
        let step_total: u64 = report.trace.iter().map(|r| r.nanos).sum();
        assert!(step_total <= report.wall_nanos, "steps are part of the run");
        assert!(report.mean_step_nanos().is_some());
    }

    #[test]
    fn metrics_snapshot_matches_report() {
        let instance = single_file(classic::cycle(5, 3, true), 6, 0);
        let mut rng = StdRng::seed_from_u64(21);
        let outcome = simulate_with(
            &instance,
            &mut Flood,
            &mut crate::medium::Ideal,
            &SimConfig::default(),
            &mut rng,
        );
        let snap = &outcome.metrics_snapshot(&instance);
        assert_eq!(
            snap.counter("engine.steps"),
            Some(outcome.report.steps as u64)
        );
        assert_eq!(snap.counter("engine.moves"), Some(outcome.report.bandwidth));
        assert_eq!(
            snap.counter("engine.duplicate_deliveries"),
            Some(outcome.report.duplicate_deliveries)
        );
        assert_eq!(snap.counter("engine.rejected_moves"), Some(0));
        assert_eq!(snap.gauge("engine.vertices"), Some(5));
        assert_eq!(snap.gauge("engine.remaining_need"), Some(0));
        let arc_tokens = snap.series("engine.arc_tokens").expect("per-arc series");
        assert_eq!(
            arc_tokens.len(),
            instance.graph().edge_count(),
            "one slot per arc"
        );
        assert_eq!(
            arc_tokens.iter().sum::<u64>(),
            outcome.report.bandwidth,
            "arc utilization sums to total bandwidth"
        );
        let uplink = snap
            .series("engine.vertex_uplink_tokens")
            .expect("per-vertex uplink series");
        assert_eq!(uplink.len(), instance.num_vertices(), "one slot per vertex");
        assert_eq!(
            uplink.iter().sum::<u64>(),
            outcome.report.bandwidth,
            "uplink utilization sums to total bandwidth"
        );
        let hist = snap.histogram("engine.step_moves").expect("move histogram");
        assert_eq!(hist.count, outcome.report.steps as u64);
        assert_eq!(hist.sum, outcome.report.bandwidth);
        // The phase-timing histograms exist but stay empty, keeping the
        // snapshot deterministic.
        assert_eq!(snap.histogram("engine.plan_nanos").unwrap().count, 0);
        // Embedding survives the record round trip.
        let mut record = outcome.to_record(&instance, "flood", "ideal", 21);
        record.metrics = Some(snap.clone());
        record.certify().unwrap();
        let back = ocd_core::RunRecord::from_json(&record.to_json().unwrap()).unwrap();
        assert_eq!(back.metrics.as_ref(), Some(snap));
    }

    #[test]
    fn same_seed_snapshots_are_byte_identical() {
        let instance = single_file(classic::cycle(6, 2, true), 8, 0);
        let run = || {
            let mut rng = StdRng::seed_from_u64(33);
            let mut strategy = crate::StrategyKind::Random.build();
            simulate_with(
                &instance,
                strategy.as_mut(),
                &mut crate::medium::Ideal,
                &SimConfig::default(),
                &mut rng,
            )
            .metrics_snapshot(&instance)
            .to_json()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn span_recording_captures_phases_per_step() {
        let instance = single_file(classic::cycle(5, 3, true), 6, 0);
        let mut rng = StdRng::seed_from_u64(24);
        let mut spans = FlightRecorder::logical();
        let outcome = simulate_with_spans(
            &instance,
            &mut Flood,
            &mut crate::medium::Ideal,
            &SimConfig::default(),
            &mut rng,
            &mut spans,
        );
        assert!(outcome.report.success);
        assert!(spans.is_balanced(), "every span closed");
        let steps = outcome.report.steps;
        assert_eq!(spans.count("engine.step"), steps);
        assert_eq!(spans.count("engine.plan"), steps);
        assert_eq!(spans.count("engine.admit"), steps);
        assert_eq!(spans.count("engine.apply"), steps);
        // Phases nest under their step span, and the step span carries
        // the deterministic move/need counters.
        let step_spans: Vec<_> = spans
            .spans()
            .iter()
            .filter(|s| s.name == "engine.step")
            .collect();
        assert!(step_spans.iter().all(|s| s.depth == 0));
        assert!(spans
            .spans()
            .iter()
            .filter(|s| s.name != "engine.step")
            .all(|s| s.depth == 1));
        let moves: u64 = step_spans
            .iter()
            .map(|s| {
                s.counters
                    .iter()
                    .find(|(k, _)| *k == "moves")
                    .expect("moves counter attached")
                    .1
            })
            .sum();
        assert_eq!(moves, outcome.report.bandwidth);
        // One completion event per initially-unsatisfied vertex.
        let completions = spans
            .events()
            .iter()
            .filter(|e| e.name == "engine.vertex_complete")
            .count();
        assert_eq!(completions, 4, "4 non-source vertices complete");
        // Logical clock: no wall time recorded.
        assert!(spans.spans().iter().all(|s| s.wall_ns == 0));
    }

    #[test]
    fn same_seed_span_artifacts_are_byte_identical() {
        let instance = single_file(classic::cycle(6, 2, true), 8, 0);
        let run = || {
            let mut rng = StdRng::seed_from_u64(25);
            let mut strategy = crate::StrategyKind::Random.build();
            let mut spans = FlightRecorder::logical();
            simulate_with_spans(
                &instance,
                strategy.as_mut(),
                &mut crate::medium::Ideal,
                &SimConfig::default(),
                &mut rng,
                &mut spans,
            );
            (
                spans.to_chrome_json("engine"),
                spans.to_json(),
                spans.to_csv(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stalled_run_still_balances_spans() {
        let instance = single_file(classic::path(3, 1, true), 2, 0);
        let mut rng = StdRng::seed_from_u64(26);
        let mut spans = FlightRecorder::logical();
        let outcome = simulate_with_spans(
            &instance,
            &mut Lazy,
            &mut crate::medium::Ideal,
            &SimConfig::default(),
            &mut rng,
            &mut spans,
        );
        assert!(!outcome.report.success);
        assert!(spans.is_balanced(), "stall break closes the step span");
        assert_eq!(spans.count("engine.step"), 1, "the stalled step");
    }

    #[test]
    fn provenance_trace_of_the_schedule_embeds_and_certifies() {
        let instance = single_file(classic::cycle(6, 2, true), 8, 0);
        let mut rng = StdRng::seed_from_u64(41);
        let mut strategy = crate::StrategyKind::Random.build();
        let outcome = simulate_with(
            &instance,
            strategy.as_mut(),
            &mut crate::medium::Ideal,
            &SimConfig::default(),
            &mut rng,
        );
        let trace = ProvenanceTrace::from_schedule(&instance, &outcome.report.schedule);
        // Every unsatisfied (vertex, token) need that got satisfied has
        // a recorded parent delivery.
        assert!(outcome.report.success);
        assert!(trace.critical_path(&instance).is_some());
        // Embedding survives the record round trip and certifies.
        let mut record = outcome.to_record(&instance, "random", "ideal", 41);
        record.provenance = Some(trace.to_record());
        record.certify().unwrap();
        let back = ocd_core::RunRecord::from_json(&record.to_json().unwrap()).unwrap();
        assert_eq!(back.provenance, Some(trace.to_record()));
    }

    #[test]
    fn same_seed_provenance_artifacts_are_byte_identical() {
        let instance = single_file(classic::cycle(6, 2, true), 8, 0);
        let run = || {
            let mut rng = StdRng::seed_from_u64(43);
            let mut strategy = crate::StrategyKind::Random.build();
            let outcome = simulate_with(
                &instance,
                strategy.as_mut(),
                &mut crate::medium::Ideal,
                &SimConfig::default(),
                &mut rng,
            );
            let trace = ProvenanceTrace::from_schedule(&instance, &outcome.report.schedule);
            (
                trace.to_json(),
                trace.to_csv(),
                trace.to_chrome_json(&instance),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn mean_completion_and_step_nanos_on_empty_report() {
        // A trivially satisfied instance runs zero steps: no trace, no
        // late finishers — both means are undefined.
        let g = classic::path(2, 1, true);
        let instance = ocd_core::Instance::builder(g, 1)
            .have(0, [ocd_core::Token::new(0)])
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(44);
        let report = simulate(&instance, &mut Flood, &SimConfig::default(), &mut rng);
        assert!(report.success);
        assert!(report.trace.is_empty());
        assert_eq!(report.mean_completion(), None);
        assert_eq!(report.mean_step_nanos(), None);
    }

    #[test]
    fn mean_completion_and_step_nanos_on_single_step_run() {
        let instance = single_file(classic::path(2, 5, true), 2, 0);
        let mut rng = StdRng::seed_from_u64(45);
        let report = simulate(&instance, &mut Flood, &SimConfig::default(), &mut rng);
        assert!(report.success);
        assert_eq!(report.steps, 1);
        assert_eq!(report.mean_completion(), Some(1.0));
        let mean = report.mean_step_nanos().expect("one step recorded");
        assert!((mean - report.trace[0].nanos as f64).abs() < 1e-9);
    }

    #[test]
    fn to_record_certifies_for_every_extras_combination() {
        let instance = single_file(classic::cycle(5, 3, true), 6, 0);
        let mut rng = StdRng::seed_from_u64(46);
        let outcome = simulate_with(
            &instance,
            &mut Flood,
            &mut crate::medium::Ideal,
            &SimConfig::default(),
            &mut rng,
        );
        let plain = outcome.to_record(&instance, "flood", "ideal", 46);
        assert!(plain.metrics.is_none() && plain.provenance.is_none());
        for (metrics, provenance) in [(false, false), (true, false), (false, true), (true, true)] {
            let mut record = plain.clone();
            if metrics {
                record.metrics = Some(outcome.metrics_snapshot(&instance));
            }
            if provenance {
                let trace = ProvenanceTrace::from_schedule(&instance, &outcome.report.schedule);
                record.provenance = Some(trace.to_record());
            }
            assert_eq!(record.metrics.is_some(), metrics);
            assert_eq!(record.provenance.is_some(), provenance);
            record.certify().unwrap();
            // And the JSON round trip stays certifiable.
            let back = ocd_core::RunRecord::from_json(&record.to_json().unwrap()).unwrap();
            back.certify().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "overfilled")]
    fn capacity_violation_panics() {
        struct Overfill;
        impl Strategy for Overfill {
            fn name(&self) -> &'static str {
                "overfill"
            }
            fn tier(&self) -> KnowledgeTier {
                KnowledgeTier::Global
            }
            fn reset(&mut self, _: &Instance) {}
            fn plan_step(
                &mut self,
                view: &WorldView<'_>,
                _rng: &mut dyn RngCore,
            ) -> Vec<(EdgeId, TokenSet)> {
                // Send everything the source has, ignoring capacity 1.
                vec![(EdgeId::new(0), view.possession[0].clone())]
            }
        }
        let instance = single_file(classic::path(2, 1, false), 5, 0);
        let mut rng = StdRng::seed_from_u64(6);
        let _ = simulate(&instance, &mut Overfill, &SimConfig::default(), &mut rng);
    }

    #[test]
    #[should_panic(expected = "duplicated arc")]
    fn duplicate_arc_panics() {
        struct Duplicate;
        impl Strategy for Duplicate {
            fn name(&self) -> &'static str {
                "duplicate"
            }
            fn tier(&self) -> KnowledgeTier {
                KnowledgeTier::Global
            }
            fn reset(&mut self, _: &Instance) {}
            fn plan_step(
                &mut self,
                view: &WorldView<'_>,
                _rng: &mut dyn RngCore,
            ) -> Vec<(EdgeId, TokenSet)> {
                let t =
                    TokenSet::from_tokens(view.instance.num_tokens(), [ocd_core::Token::new(0)]);
                vec![(EdgeId::new(0), t.clone()), (EdgeId::new(0), t)]
            }
        }
        let instance = single_file(classic::path(2, 2, false), 2, 0);
        let mut rng = StdRng::seed_from_u64(8);
        let _ = simulate(&instance, &mut Duplicate, &SimConfig::default(), &mut rng);
    }

    #[test]
    #[should_panic(expected = "unpossessed")]
    fn possession_violation_panics() {
        struct Fabricate;
        impl Strategy for Fabricate {
            fn name(&self) -> &'static str {
                "fabricate"
            }
            fn tier(&self) -> KnowledgeTier {
                KnowledgeTier::Global
            }
            fn reset(&mut self, _: &Instance) {}
            fn plan_step(
                &mut self,
                view: &WorldView<'_>,
                _rng: &mut dyn RngCore,
            ) -> Vec<(EdgeId, TokenSet)> {
                // Edge 1 goes 1 -> 2 but vertex 1 has nothing yet.
                vec![(
                    EdgeId::new(1),
                    TokenSet::from_tokens(view.instance.num_tokens(), [ocd_core::Token::new(0)]),
                )]
            }
        }
        let instance = single_file(classic::path(3, 1, false), 1, 0);
        let mut rng = StdRng::seed_from_u64(7);
        let _ = simulate(&instance, &mut Fabricate, &SimConfig::default(), &mut rng);
    }
}
