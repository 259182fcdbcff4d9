//! Timing and counting shims around the library's extension traits,
//! used only by traced passes. Each forwards every call to the wrapped
//! value unchanged, so a wrapped run makes the same decisions (and
//! draws the same random numbers) as an unwrapped one.

use ocd_core::rlnc::RlncInstance;
use ocd_core::{FlightRecorder, Instance, TokenSet};
use ocd_graph::{DiGraph, EdgeId};
use ocd_heuristics::{
    CodedMedium, CodedStrategy, CodedView, KnowledgeTier, Medium, Strategy, WorldView,
};
use rand::RngCore;
use std::time::Instant;

/// A [`Strategy`] that times every `plan_step` of the one it wraps.
pub struct TimedStrategy<'a> {
    inner: &'a mut dyn Strategy,
    /// Seconds spent inside `plan_step`.
    pub plan_s: f64,
}

impl<'a> TimedStrategy<'a> {
    /// Wraps `inner` with a zeroed clock.
    pub fn new(inner: &'a mut dyn Strategy) -> Self {
        TimedStrategy { inner, plan_s: 0.0 }
    }
}

impl Strategy for TimedStrategy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn tier(&self) -> KnowledgeTier {
        self.inner.tier()
    }
    fn reset(&mut self, instance: &Instance) {
        self.inner.reset(instance);
    }
    fn plan_step(
        &mut self,
        view: &WorldView<'_>,
        rng: &mut dyn RngCore,
    ) -> Vec<(EdgeId, TokenSet)> {
        let start = Instant::now();
        let sends = self.inner.plan_step(view, rng);
        self.plan_s += start.elapsed().as_secs_f64();
        sends
    }
    fn may_idle(&self, step: usize) -> bool {
        self.inner.may_idle(step)
    }
}

/// A [`Medium`] that counts the token-moves the wrapped one admits, an
/// outside count to hold against the schedule's bandwidth.
pub struct CountingMedium<M> {
    inner: M,
    /// Token-moves left in proposals after admission.
    pub admitted: u64,
}

impl<M> CountingMedium<M> {
    /// Wraps `inner` with a zeroed count.
    pub fn new(inner: M) -> Self {
        CountingMedium { inner, admitted: 0 }
    }
}

impl<M: Medium> Medium for CountingMedium<M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn reset(&mut self, graph: &DiGraph) {
        self.inner.reset(graph);
    }
    fn observe(&mut self, possession: &[TokenSet]) {
        self.inner.observe(possession);
    }
    fn capacities<'a>(
        &'a mut self,
        graph: &DiGraph,
        static_caps: &'a [u32],
        step: usize,
        rng: &mut dyn RngCore,
    ) -> &'a [u32] {
        self.inner.capacities(graph, static_caps, step, rng)
    }
    fn admit(&mut self, proposed: &mut Vec<(EdgeId, TokenSet)>) -> u64 {
        let rejected = self.inner.admit(proposed);
        self.admitted += proposed.iter().map(|(_, t)| t.len() as u64).sum::<u64>();
        rejected
    }
    fn records_capacity_trace(&self) -> bool {
        self.inner.records_capacity_trace()
    }
    fn records_rejections(&self) -> bool {
        self.inner.records_rejections()
    }
    fn stall_aborts(&self) -> bool {
        self.inner.stall_aborts()
    }
}

/// A [`CodedStrategy`] that times every `plan_step` of the one it wraps.
pub struct TimedCodedStrategy<'a> {
    inner: &'a mut dyn CodedStrategy,
    /// Seconds spent inside `plan_step`.
    pub plan_s: f64,
}

impl<'a> TimedCodedStrategy<'a> {
    /// Wraps `inner` with a zeroed clock.
    pub fn new(inner: &'a mut dyn CodedStrategy) -> Self {
        TimedCodedStrategy { inner, plan_s: 0.0 }
    }
}

impl CodedStrategy for TimedCodedStrategy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn reset(&mut self, instance: &RlncInstance) {
        self.inner.reset(instance);
    }
    fn plan_step(&mut self, view: &CodedView<'_>, rng: &mut dyn RngCore) -> Vec<(EdgeId, u32)> {
        let start = Instant::now();
        let sends = self.inner.plan_step(view, rng);
        self.plan_s += start.elapsed().as_secs_f64();
        sends
    }
}

/// A [`CodedMedium`] that counts delivery verdicts of the wrapped one,
/// an outside count of packets sent and lost.
pub struct CountingCodedMedium<M> {
    inner: M,
    /// Packets the medium let through.
    pub delivered: u64,
    /// Packets the medium dropped.
    pub dropped: u64,
}

impl<M> CountingCodedMedium<M> {
    /// Wraps `inner` with zeroed counts.
    pub fn new(inner: M) -> Self {
        CountingCodedMedium {
            inner,
            delivered: 0,
            dropped: 0,
        }
    }
}

impl<M: CodedMedium> CodedMedium for CountingCodedMedium<M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn reset(&mut self, graph: &DiGraph) {
        self.inner.reset(graph);
    }
    fn capacities<'a>(
        &'a mut self,
        graph: &DiGraph,
        static_caps: &'a [u32],
        step: usize,
        rng: &mut dyn RngCore,
    ) -> &'a [u32] {
        self.inner.capacities(graph, static_caps, step, rng)
    }
    fn deliver(&mut self, edge: EdgeId, rng: &mut dyn RngCore) -> bool {
        let delivered = self.inner.deliver(edge, rng);
        if delivered {
            self.delivered += 1;
        } else {
            self.dropped += 1;
        }
        delivered
    }
}

/// Wall seconds of every span named exactly `name`, in open order.
#[must_use]
pub fn span_secs(spans: &FlightRecorder, name: &str) -> Vec<f64> {
    spans
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.wall_ns as f64 / 1e9)
        .collect()
}

/// Total wall seconds of the spans named exactly `name`.
#[must_use]
pub fn span_total(spans: &FlightRecorder, name: &str) -> f64 {
    span_secs(spans, name).iter().sum()
}
