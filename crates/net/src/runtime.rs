//! The discrete-event swarm runtime.
//!
//! Each vertex is an actor: it holds its durable token store
//! (possession), volatile *beliefs* about each neighbor's possession
//! (fed by `Have` announcements), an outstanding-request table with
//! timeouts and exponential backoff, and one FIFO send queue per
//! out-neighbor. Links carry typed messages with per-arc latency,
//! optional jitter (reordering) and probabilistic loss; data messages
//! are metered by the arc capacity, control messages model out-of-band
//! coordination traffic and are unmetered.
//!
//! # Tick phases
//!
//! Time advances in ticks; each tick runs fixed phases so that equal
//! seeds give identical event orders (the determinism guarantee):
//!
//! 1. **Faults** — scripted crashes/restarts fire.
//! 2. **Data delivery** — `Token` messages scheduled for this tick are
//!    applied in send order: possession grows, duplicates are counted,
//!    completions detected, `Have` deltas and cross-arc `Cancel`s go
//!    out.
//! 3. **Control delivery** — delayed `Have`/`Request`/`Cancel` messages
//!    are applied (with a zero-latency control plane they were applied
//!    the moment they were sent).
//! 4. **Receiver decisions** (Local policy) — expired request timers
//!    re-arm with backoff, then each vertex subdivides its outstanding
//!    need over its in-arcs and sends `Request`s, via the same
//!    [`policy`](ocd_heuristics::policy) code the lockstep strategy
//!    runs.
//! 5. **Sender decisions** — each arc (ascending id) drains its queue
//!    up to capacity, flood-fills the remainder from believed-missing
//!    tokens (minus in-flight and queued), transmits at most one data
//!    message, and records the departure in the extracted [`Schedule`].
//! 6. **Belief refresh** — periodically each vertex re-announces its
//!    full possession, repairing beliefs after lost messages.
//!
//! With the default ("ideal") configuration — latency 1, no jitter, no
//! loss, same-tick control — the phases collapse to exactly the
//! lockstep engine's synchronized rounds, and the runtime consumes the
//! RNG identically to [`ocd_heuristics::simulate`] running the matching
//! strategy: the differential test checks schedules for equality, not
//! mere similarity.

use crate::config::{NetConfig, NetPolicy};
use crate::fault::{FaultEvent, FaultPlan};
use crate::link::{Calendar, CtrlRoute};
use crate::msg::{CtrlMsg, CtrlPayload, DataMsg, MsgKind};
use crate::trace::{EventKind, EventTrace, LinkCounters, TraceEvent, VertexCounters, NO_FIELD};
use ocd_core::knowledge::AggregateKnowledge;
use ocd_core::provenance::ProvenanceTrace;
use ocd_core::span::{NoopSpans, SpanRecorder};
use ocd_core::{Instance, NodeBudgets, Schedule, ScheduleRecorder, Token, TokenSet};
use ocd_graph::{EdgeId, NodeId};
use ocd_heuristics::policy::{
    deterministic_rarest_fill, random_fill, rarest_flood_fill, subdivide_requests,
};
use rand::RngCore;
use std::collections::VecDeque;

/// Events the ring-buffered log retains; older ones are overwritten.
const TRACE_CAPACITY: usize = 1 << 16;

/// Result of an asynchronous run.
#[derive(Debug, Clone)]
pub struct NetReport {
    /// Whether every want was satisfied within the tick budget.
    pub success: bool,
    /// Ticks simulated (the completion tick on success).
    pub ticks: u64,
    /// The extracted schedule: every data departure, recorded at its
    /// departure tick. Valid by construction — certify it with
    /// [`ocd_core::validate::replay`].
    pub schedule: Schedule,
    /// For each vertex, the tick its want set completed (0 = satisfied
    /// from the start); `None` if never.
    pub completion_ticks: Vec<Option<u64>>,
    /// Tokens delivered to vertices that already held them.
    pub duplicate_deliveries: u64,
    /// Data tokens delivered in total (including duplicates).
    pub tokens_delivered: u64,
    /// Data tokens dropped by link loss.
    pub tokens_lost: u64,
    /// Data tokens dropped at crashed destinations.
    pub tokens_dropped_crashed: u64,
    /// Data tokens still in flight when the run ended.
    pub tokens_unresolved: u64,
    /// Data tokens re-sent on an arc that had already carried them.
    pub retransmits: u64,
    /// Messages sent over the whole run, indexed by [`MsgKind::index`].
    pub messages_sent: [u64; 4],
    /// Per-vertex counters.
    pub vertex_counters: Vec<VertexCounters>,
    /// Per-arc counters.
    pub link_counters: Vec<LinkCounters>,
    /// The ring-buffered event log, holding the last 65,536 events.
    pub trace: EventTrace,
    /// Causal token-provenance trace; `None` unless
    /// [`NetConfig::record_provenance`] was set. Acquisition steps are
    /// the *departure* ticks of the delivering messages, so in ideal
    /// mode the trace equals the one
    /// [`ProvenanceTrace::from_schedule`] derives from the extracted
    /// schedule; under jitter the applied-delivery order may differ
    /// from the departure order, and the runtime-recorded trace is the
    /// causal truth.
    pub provenance: Option<ProvenanceTrace>,
}

impl NetReport {
    /// Makespan of the extracted schedule (= last departure tick + 1).
    #[must_use]
    pub fn makespan(&self) -> usize {
        self.schedule.makespan()
    }

    /// Total data tokens put on the wire (= `schedule.bandwidth()`).
    #[must_use]
    pub fn bandwidth(&self) -> u64 {
        self.schedule.bandwidth()
    }

    /// The conservation check the fault-injection tests rely on: every
    /// token put on the wire is delivered, lost, dropped at a crashed
    /// vertex, or still in flight — nothing vanishes unaccounted.
    #[must_use]
    pub fn accounts_for_every_token(&self) -> bool {
        self.bandwidth()
            == self.tokens_delivered
                + self.tokens_lost
                + self.tokens_dropped_crashed
                + self.tokens_unresolved
    }

    /// Feeds the report's vertex/link counters and token accounting
    /// into the suite-wide metrics registry and returns the snapshot —
    /// the `net.*` counterpart of the engine's `engine.*` metrics, in
    /// the same [`MetricsSnapshot`](ocd_core::MetricsSnapshot) schema
    /// the bench rollups and `RunRecord` artifacts consume.
    ///
    /// Everything here derives from the deterministic run state, so
    /// equal-seed runs snapshot byte-identically.
    #[must_use]
    pub fn metrics_snapshot(&self) -> ocd_core::MetricsSnapshot {
        use ocd_core::MetricsRegistry;
        let mut reg = MetricsRegistry::new();
        for (name, value) in [
            ("net.ticks", self.ticks),
            ("net.tokens_delivered", self.tokens_delivered),
            ("net.tokens_lost", self.tokens_lost),
            ("net.tokens_dropped_crashed", self.tokens_dropped_crashed),
            ("net.tokens_unresolved", self.tokens_unresolved),
            ("net.duplicate_deliveries", self.duplicate_deliveries),
            ("net.retransmits", self.retransmits),
        ] {
            let c = reg.counter(name);
            reg.add(c, value);
        }
        for kind in MsgKind::ALL {
            let c = reg.counter(&format!("net.msgs_sent.{}", kind.name()));
            reg.add(c, self.messages_sent[kind.index()]);
        }
        let timeouts = reg.counter("net.request_timeouts");
        let crashes = reg.counter("net.crashes");
        let vertex_timeouts = reg.series("net.vertex_request_timeouts", self.vertex_counters.len());
        for (v, vc) in self.vertex_counters.iter().enumerate() {
            reg.add(timeouts, vc.request_timeouts);
            reg.add(crashes, vc.crashes);
            reg.series_add(vertex_timeouts, v, vc.request_timeouts);
        }
        let arcs = self.link_counters.len();
        let sent = reg.series("net.arc_tokens_sent", arcs);
        let delivered = reg.series("net.arc_tokens_delivered", arcs);
        let lost = reg.series("net.arc_tokens_lost", arcs);
        let retrans = reg.series("net.arc_retransmits", arcs);
        let depth = reg.series("net.arc_max_queue_depth", arcs);
        for (e, lc) in self.link_counters.iter().enumerate() {
            reg.series_add(sent, e, lc.tokens_sent);
            reg.series_add(delivered, e, lc.tokens_delivered);
            reg.series_add(lost, e, lc.tokens_lost);
            reg.series_add(retrans, e, lc.retransmits);
            reg.series_add(depth, e, lc.max_queue_depth as u64);
        }
        let completion = reg.histogram("net.completion_ticks");
        let mut unfinished = 0i64;
        for c in &self.completion_ticks {
            match c {
                Some(tick) => reg.observe(completion, *tick),
                None => unfinished += 1,
            }
        }
        let g = reg.gauge("net.unfinished_vertices");
        reg.set(g, unfinished);
        reg.snapshot()
    }
}

/// An entry in a receiver's outstanding-request table.
#[derive(Debug, Clone, Copy)]
struct Outstanding {
    /// The in-arc the request went out on.
    edge: EdgeId,
    /// Tick at which the request expires and is retried with backoff.
    expiry: u64,
}

struct Runtime<'a> {
    instance: &'a Instance,
    config: &'a NetConfig,
    /// The uplink budgets embedded in the instance, if any.
    budgets: Option<&'a NodeBudgets>,
    timeout: u32,
    n: usize,
    m: usize,
    // --- actor state ---
    alive: Vec<bool>,
    possession: Vec<TokenSet>,
    /// Sorted undirected neighbor list per vertex.
    neighbors: Vec<Vec<NodeId>>,
    /// `belief[v][i]` = what `v` believes `neighbors[v][i]` possesses.
    belief: Vec<Vec<TokenSet>>,
    outstanding: Vec<Vec<Option<Outstanding>>>,
    outstanding_set: Vec<TokenSet>,
    attempts: Vec<Vec<u32>>,
    // --- per-arc link state ---
    queue: Vec<VecDeque<Token>>,
    queued_set: Vec<TokenSet>,
    inflight_expiry: Vec<Vec<Option<u64>>>,
    inflight_set: Vec<TokenSet>,
    sent_ever: Vec<TokenSet>,
    // --- links ---
    data_cal: Calendar<DataMsg>,
    ctrl_cal: Calendar<CtrlMsg>,
    // --- progress tracking ---
    aggregates: AggregateKnowledge,
    missing: Vec<usize>,
    remaining: u64,
    completion_ticks: Vec<Option<u64>>,
    // --- instrumentation ---
    recorder: ScheduleRecorder,
    trace: EventTrace,
    vcount: Vec<VertexCounters>,
    lcount: Vec<LinkCounters>,
    provenance: Option<ProvenanceTrace>,
}

/// Runs the asynchronous swarm on `instance` under `config` and the
/// scripted `faults`, drawing all randomness (policy tie-breaks, loss,
/// jitter) from `rng`. Same instance + config + faults + seed ⇒
/// identical event order, trace, and schedule. Uplink budgets embedded
/// in the instance are enforced at sender-decision time: a vertex
/// transmits at most its uplink worth of tokens per tick, shared across
/// all of its out-arcs (downlinks are not metered by the runtime).
pub fn run_swarm(
    instance: &Instance,
    config: &NetConfig,
    faults: &FaultPlan,
    rng: &mut dyn RngCore,
) -> NetReport {
    run_swarm_with_spans(instance, config, faults, rng, &mut NoopSpans)
}

/// [`run_swarm`] with a [`SpanRecorder`] attached: every simulated tick
/// opens a `net.tick` span with one child per phase (`net.faults`,
/// `net.deliver_data`, `net.deliver_ctrl`, `net.decide`,
/// `net.refresh_haves`), carrying `sent` / `remaining` counters. The
/// span stream is a pure function of the run state, so equal seeds give
/// byte-identical logical exports.
pub fn run_swarm_with_spans<S: SpanRecorder>(
    instance: &Instance,
    config: &NetConfig,
    faults: &FaultPlan,
    rng: &mut dyn RngCore,
    spans: &mut S,
) -> NetReport {
    config.validate().expect("invalid net config");
    let g = instance.graph();
    let n = g.node_count();
    let budgets = instance.node_budgets();
    if let Some(b) = budgets {
        assert_eq!(b.len(), n, "node budgets must cover every vertex");
    }
    let m = instance.num_tokens();

    let possession: Vec<TokenSet> = instance.have_all().to_vec();
    let neighbors: Vec<Vec<NodeId>> = g.nodes().map(|v| g.neighbors_undirected(v)).collect();
    let belief: Vec<Vec<TokenSet>> = neighbors
        .iter()
        .map(|peers| vec![TokenSet::new(m); peers.len()])
        .collect();
    let missing: Vec<usize> = g
        .nodes()
        .map(|v| instance.want(v).difference_len(&possession[v.index()]))
        .collect();
    let remaining: u64 = missing.iter().map(|&c| c as u64).sum();
    let completion_ticks: Vec<Option<u64>> =
        missing.iter().map(|&c| (c == 0).then_some(0)).collect();
    let aggregates = AggregateKnowledge::compute(m, &possession, instance.want_all());

    let rt = Runtime {
        instance,
        config,
        budgets,
        timeout: config.effective_timeout(),
        n,
        m,
        alive: vec![true; n],
        possession,
        neighbors,
        belief,
        outstanding: vec![vec![None; m]; n],
        outstanding_set: vec![TokenSet::new(m); n],
        attempts: vec![vec![0; m]; n],
        queue: vec![VecDeque::new(); g.edge_count()],
        queued_set: vec![TokenSet::new(m); g.edge_count()],
        inflight_expiry: vec![vec![None; m]; g.edge_count()],
        inflight_set: vec![TokenSet::new(m); g.edge_count()],
        sent_ever: vec![TokenSet::new(m); g.edge_count()],
        data_cal: Calendar::new(),
        ctrl_cal: Calendar::new(),
        aggregates,
        missing,
        remaining,
        completion_ticks,
        recorder: ScheduleRecorder::new(),
        trace: EventTrace::new(TRACE_CAPACITY),
        vcount: vec![VertexCounters::default(); n],
        lcount: vec![LinkCounters::default(); g.edge_count()],
        provenance: config.record_provenance.then(|| ProvenanceTrace::new(n, m)),
    };
    rt.run(faults, rng, spans)
}

impl Runtime<'_> {
    fn run<S: SpanRecorder>(
        mut self,
        faults: &FaultPlan,
        rng: &mut dyn RngCore,
        spans: &mut S,
    ) -> NetReport {
        let mut success = self.remaining == 0;
        let mut now: u64 = 0;
        if !success {
            // Bootstrap: every vertex announces its initial possession.
            for v in 0..self.n {
                self.announce_have(NodeId::new(v), now, rng);
            }
        }
        while !success && now < self.config.max_ticks {
            let tick_span = spans.open("net.tick");
            let phase = spans.open("net.faults");
            self.apply_faults(faults, now, rng);
            spans.close(phase);
            let phase = spans.open("net.deliver_data");
            self.deliver_data(now, rng);
            spans.close(phase);
            let phase = spans.open("net.deliver_ctrl");
            self.deliver_ctrl(now);
            spans.close(phase);
            if self.remaining == 0 {
                success = true;
                spans.attach(tick_span, "sent", 0);
                spans.attach(tick_span, "remaining", 0);
                spans.close(tick_span);
                break;
            }
            let phase = spans.open("net.decide");
            let sent = self.decide(now, rng);
            spans.close(phase);
            let phase = spans.open("net.refresh_haves");
            self.refresh_haves(now, rng);
            spans.close(phase);
            spans.attach(tick_span, "sent", sent);
            spans.attach(tick_span, "remaining", self.remaining);
            spans.close(tick_span);
            if sent == 0 && self.quiescent(faults, now) {
                break; // nothing in flight, queued, pending, or scripted
            }
            now += 1;
        }

        let mut messages_sent = [0u64; 4];
        for vc in &self.vcount {
            for (total, sent) in messages_sent.iter_mut().zip(vc.sent) {
                *total += sent;
            }
        }
        // The run-wide totals are sums of the per-vertex and per-arc
        // counters.
        let links = &self.lcount;
        NetReport {
            success,
            ticks: now,
            schedule: self.recorder.finish(),
            completion_ticks: self.completion_ticks,
            duplicate_deliveries: self.vcount.iter().map(|v| v.duplicate_tokens).sum(),
            tokens_delivered: links.iter().map(|l| l.tokens_delivered).sum(),
            tokens_lost: links.iter().map(|l| l.tokens_lost).sum(),
            tokens_dropped_crashed: links.iter().map(|l| l.tokens_dropped_crashed).sum(),
            tokens_unresolved: self.data_cal.iter().map(|m| m.tokens.len() as u64).sum(),
            retransmits: links.iter().map(|l| l.retransmits).sum(),
            messages_sent,
            vertex_counters: self.vcount,
            link_counters: self.lcount,
            trace: self.trace,
            provenance: self.provenance,
        }
    }

    /// True when no future event can ever fire: the run is stuck.
    fn quiescent(&self, faults: &FaultPlan, now: u64) -> bool {
        self.data_cal.is_empty()
            && self.ctrl_cal.is_empty()
            && !faults.pending_after(now + 1)
            && self.queued_set.iter().all(TokenSet::is_empty)
            && self.inflight_set.iter().all(TokenSet::is_empty)
            && self.outstanding_set.iter().all(TokenSet::is_empty)
    }

    /// Appends one record to the event log; `peer` and `edge` are
    /// `None` for events that involve `vertex` alone.
    fn event(
        &mut self,
        tick: u64,
        kind: EventKind,
        vertex: NodeId,
        peer: Option<NodeId>,
        edge: Option<EdgeId>,
        tokens: usize,
    ) {
        self.trace.push(TraceEvent {
            tick,
            kind,
            vertex: vertex.index() as u32,
            peer: peer.map_or(NO_FIELD, |p| p.index() as u32),
            edge: edge.map_or(NO_FIELD, |e| e.index() as u32),
            tokens: tokens as u32,
        });
    }

    // ---------- phase 1: faults ----------

    fn apply_faults(&mut self, faults: &FaultPlan, now: u64, rng: &mut dyn RngCore) {
        let fired: Vec<FaultEvent> = faults.at(now).collect();
        for f in fired {
            match f {
                FaultEvent::Crash(v) => self.crash(v, now),
                FaultEvent::Restart(v) => self.restart(v, now, rng),
            }
        }
    }

    fn crash(&mut self, v: NodeId, now: u64) {
        if !self.alive[v.index()] {
            return;
        }
        self.alive[v.index()] = false;
        self.vcount[v.index()].crashes += 1;
        // Volatile state is lost; the durable token store survives.
        for b in &mut self.belief[v.index()] {
            b.clear();
        }
        self.outstanding[v.index()].fill(None);
        self.outstanding_set[v.index()].clear();
        self.attempts[v.index()].fill(0);
        for e in self.instance.graph().out_edges(v) {
            self.queue[e.index()].clear();
            self.queued_set[e.index()].clear();
            self.inflight_expiry[e.index()].fill(None);
            self.inflight_set[e.index()].clear();
        }
        self.event(now, EventKind::Crash, v, None, None, 0);
    }

    fn restart(&mut self, v: NodeId, now: u64, rng: &mut dyn RngCore) {
        if self.alive[v.index()] {
            return;
        }
        self.alive[v.index()] = true;
        self.event(now, EventKind::Restart, v, None, None, 0);
        // Rejoin: tell the neighborhood what survived on disk.
        self.announce_have(v, now, rng);
    }

    // ---------- phase 2: data delivery ----------

    fn deliver_data(&mut self, now: u64, rng: &mut dyn RngCore) {
        let g = self.instance.graph();
        for msg in self.data_cal.take(now) {
            let arc = g.edge(msg.edge);
            let dst = arc.dst;
            let len = msg.tokens.len();
            if !self.alive[dst.index()] {
                self.lcount[msg.edge.index()].tokens_dropped_crashed += len as u64;
                let kind = EventKind::DataDroppedCrashed;
                self.event(now, kind, dst, Some(arc.src), Some(msg.edge), len);
                continue;
            }
            let new = msg.tokens.difference(&self.possession[dst.index()]);
            self.vcount[dst.index()].duplicate_tokens += (len - new.len()) as u64;
            self.vcount[dst.index()].received[MsgKind::Token.index()] += 1;
            self.lcount[msg.edge.index()].tokens_delivered += len as u64;
            let kind = EventKind::DataDeliver;
            self.event(now, kind, dst, Some(arc.src), Some(msg.edge), len);

            // Clear satisfied requests; cancel duplicates ordered
            // elsewhere so the other sender can reuse the slot.
            let mut cancels: Vec<(EdgeId, Token)> = Vec::new();
            for t in msg.tokens.iter() {
                if let Some(req) = self.outstanding[dst.index()][t.index()].take() {
                    self.outstanding_set[dst.index()].remove(t);
                    if req.edge != msg.edge {
                        cancels.push((req.edge, t));
                    }
                }
                self.attempts[dst.index()][t.index()] = 0;
            }

            if !new.is_empty() {
                self.possession[dst.index()].union_with(&new);
                // The message's departure tick (`sent_at`) is the
                // provenance step, so the parent edge survives loss,
                // crash drops, and retransmission: only the applied
                // delivery gets here.
                if let Some(prov) = &mut self.provenance {
                    prov.record_delivery(msg.sent_at, msg.edge, arc.src, dst, &new);
                }
                let satisfied = self
                    .aggregates
                    .apply_delivery(&new, self.instance.want(dst));
                self.remaining -= satisfied;
                self.missing[dst.index()] -= satisfied as usize;
                if self.missing[dst.index()] == 0 && self.completion_ticks[dst.index()].is_none() {
                    self.completion_ticks[dst.index()] = Some(now);
                    self.event(now, EventKind::Complete, dst, None, None, 0);
                }
                // Announce the enlarged possession to the neighborhood.
                self.announce_have(dst, now, rng);
            }

            for (edge, t) in cancels {
                let peer = g.edge(edge).src;
                let set = TokenSet::from_tokens(self.m, [t]);
                self.send_ctrl(dst, peer, CtrlPayload::Cancel(set), now, rng);
            }
        }
    }

    // ---------- phase 3: control delivery ----------

    fn deliver_ctrl(&mut self, now: u64) {
        for msg in self.ctrl_cal.take(now) {
            self.apply_ctrl(msg, now);
        }
    }

    fn apply_ctrl(&mut self, msg: CtrlMsg, now: u64) {
        let to = msg.to;
        if !self.alive[to.index()] {
            let kind = EventKind::CtrlDroppedCrashed;
            self.event(now, kind, to, Some(msg.from), None, 0);
            return;
        }
        self.vcount[to.index()].received[msg.payload.kind().index()] += 1;
        let len = payload_len(&msg.payload);
        self.event(now, EventKind::CtrlDeliver, to, Some(msg.from), None, len);
        let g = self.instance.graph();
        match msg.payload {
            CtrlPayload::Have(snapshot) => {
                // Beliefs merge by union: possession only grows, so a
                // reordered stale snapshot can never regress a belief.
                if let Some(slot) = self.neighbor_slot(to, msg.from) {
                    self.belief[to.index()][slot].union_with(&snapshot);
                }
                // The snapshot also acknowledges data on the arc to → from.
                if let Some(e) = g.find_edge(to, msg.from) {
                    let acked = self.inflight_set[e.index()].intersection(&snapshot);
                    for t in acked.iter() {
                        self.inflight_expiry[e.index()][t.index()] = None;
                    }
                    self.inflight_set[e.index()].subtract(&acked);
                }
            }
            CtrlPayload::Request(wanted) => {
                // Requests address the data arc to → from.
                let Some(e) = g.find_edge(to, msg.from) else {
                    return;
                };
                for t in wanted.iter() {
                    if !self.possession[to.index()].contains(t) {
                        continue; // stale belief: the requester will retry
                    }
                    if self.queued_set[e.index()].contains(t) {
                        continue; // already queued
                    }
                    if self.inflight_expiry[e.index()][t.index()].is_some_and(|exp| exp > now) {
                        continue; // already on the wire
                    }
                    self.queue[e.index()].push_back(t);
                    self.queued_set[e.index()].insert(t);
                    let depth = self.queue[e.index()].len();
                    let lc = &mut self.lcount[e.index()];
                    lc.max_queue_depth = lc.max_queue_depth.max(depth);
                }
            }
            CtrlPayload::Cancel(stale) => {
                if let Some(e) = g.find_edge(to, msg.from) {
                    // Lazy deletion: stale deque entries are skipped at
                    // drain time because they left the membership set.
                    self.queued_set[e.index()].subtract(&stale);
                }
            }
        }
    }

    // ---------- phase 4+5: decisions ----------

    /// Receiver then sender decisions; returns data tokens transmitted.
    fn decide(&mut self, now: u64, rng: &mut dyn RngCore) -> u64 {
        if self.config.policy == NetPolicy::Local {
            self.receiver_decisions(now, rng);
        }
        self.sender_decisions(now, rng)
    }

    fn receiver_decisions(&mut self, now: u64, rng: &mut dyn RngCore) {
        let g = self.instance.graph();
        for vi in 0..self.n {
            let v = NodeId::new(vi);
            if !self.alive[vi] {
                continue;
            }
            // Expire overdue requests: the token becomes requestable
            // again right now, with a longer (backed-off) patience.
            let overdue: Vec<Token> = self.outstanding_set[vi]
                .iter()
                .filter(|t| self.outstanding[vi][t.index()].is_some_and(|o| o.expiry <= now))
                .collect();
            for t in overdue {
                self.outstanding[vi][t.index()] = None;
                self.outstanding_set[vi].remove(t);
                self.vcount[vi].request_timeouts += 1;
                self.event(now, EventKind::RequestTimeout, v, None, None, 1);
            }

            let mut need = self.instance.want(v).difference(&self.possession[vi]);
            need.subtract(&self.outstanding_set[vi]);
            if need.is_empty() {
                continue;
            }
            let in_edges: Vec<EdgeId> = g.in_edges(v).collect();
            if in_edges.is_empty() {
                continue;
            }
            let assigned = {
                let belief = &self.belief;
                let neighbors = &self.neighbors;
                let peer_has = |e: EdgeId, t: Token| {
                    let src = g.edge(e).src;
                    match neighbors[vi].binary_search(&src) {
                        Ok(slot) => belief[vi][slot].contains(t),
                        Err(_) => false,
                    }
                };
                subdivide_requests(
                    &need,
                    &in_edges,
                    &peer_has,
                    &|e| g.capacity(e),
                    &self.aggregates,
                    rng,
                )
            };
            for (&e, req) in in_edges.iter().zip(assigned) {
                if req.is_empty() {
                    continue;
                }
                for t in req.iter() {
                    let patience = self.config.backoff_timeout(self.attempts[vi][t.index()]);
                    self.attempts[vi][t.index()] = self.attempts[vi][t.index()].saturating_add(1);
                    self.outstanding[vi][t.index()] = Some(Outstanding {
                        edge: e,
                        expiry: now + patience,
                    });
                    self.outstanding_set[vi].insert(t);
                }
                let peer = g.edge(e).src;
                self.send_ctrl(v, peer, CtrlPayload::Request(req), now, rng);
            }
        }
    }

    fn sender_decisions(&mut self, now: u64, rng: &mut dyn RngCore) -> u64 {
        let g = self.instance.graph();
        let mut transmitted = 0u64;
        // Per-tick uplink accounting: every arc of the same sender draws
        // from one shared budget, so arcs visited later in id order see
        // whatever their siblings left over.
        let mut uplink_left: Vec<u64> = match self.budgets {
            Some(b) => (0..self.n).map(|v| u64::from(b.uplink(v))).collect(),
            None => Vec::new(),
        };
        for e in g.edge_ids() {
            let arc = g.edge(e);
            let (src, dst) = (arc.src, arc.dst);
            if !self.alive[src.index()] {
                continue;
            }
            let mut cap = arc.capacity as usize;
            if self.budgets.is_some() {
                cap = cap.min(usize::try_from(uplink_left[src.index()]).unwrap_or(usize::MAX));
            }

            // Expire in-flight markers: unacknowledged tokens become
            // floodable again (the data or its Have ack was lost).
            let expired: Vec<Token> = self.inflight_set[e.index()]
                .iter()
                .filter(|t| {
                    self.inflight_expiry[e.index()][t.index()].is_some_and(|exp| exp <= now)
                })
                .collect();
            for t in expired {
                self.inflight_expiry[e.index()][t.index()] = None;
                self.inflight_set[e.index()].remove(t);
            }

            // Serve the per-neighbor queue first (FIFO), then flood.
            let mut send = TokenSet::new(self.m);
            let mut budget = cap;
            while budget > 0 {
                let Some(t) = self.queue[e.index()].pop_front() else {
                    break;
                };
                if !self.queued_set[e.index()].contains(t) {
                    continue; // canceled while queued
                }
                self.queued_set[e.index()].remove(t);
                debug_assert!(self.possession[src.index()].contains(t));
                send.insert(t);
                budget -= 1;
            }
            if budget > 0 {
                let believed = match self.neighbor_slot(src, dst) {
                    Some(slot) => &self.belief[src.index()][slot],
                    None => unreachable!("arc endpoints are neighbors"),
                };
                let mut candidates = self.possession[src.index()].difference(believed);
                candidates.subtract(&send);
                candidates.subtract(&self.inflight_set[e.index()]);
                candidates.subtract(&self.queued_set[e.index()]);
                match self.config.policy {
                    NetPolicy::Random => {
                        if !candidates.is_empty() {
                            send.union_with(&random_fill(candidates, budget, rng));
                        }
                    }
                    NetPolicy::Local => {
                        rarest_flood_fill(&mut send, &candidates, budget, &self.aggregates, rng);
                    }
                    NetPolicy::PerNeighborQueue => {
                        deterministic_rarest_fill(&mut send, &candidates, budget, &self.aggregates);
                    }
                }
            }
            if send.is_empty() {
                continue;
            }

            // One data message per arc per tick, metered by capacity
            // (and, when budgets apply, by the sender's remaining
            // uplink — consumed whether or not the message survives
            // the link).
            debug_assert!(send.len() <= cap);
            if self.budgets.is_some() {
                uplink_left[src.index()] -= send.len() as u64;
            }
            let retrans = send.intersection(&self.sent_ever[e.index()]).len() as u64;
            self.lcount[e.index()].retransmits += retrans;
            self.sent_ever[e.index()].union_with(&send);
            for t in send.iter() {
                self.inflight_expiry[e.index()][t.index()] = Some(now + u64::from(self.timeout));
            }
            self.inflight_set[e.index()].union_with(&send);
            self.recorder.record(now as usize, e, &send);
            transmitted += send.len() as u64;
            self.lcount[e.index()].tokens_sent += send.len() as u64;
            self.vcount[src.index()].sent[MsgKind::Token.index()] += 1;
            let len = send.len();
            self.event(now, EventKind::DataSend, src, Some(dst), Some(e), len);

            // A lost message draws no jitter.
            if self.config.data_lost(rng) {
                self.lcount[e.index()].tokens_lost += len as u64;
                self.event(now, EventKind::DataLost, src, Some(dst), Some(e), len);
                continue;
            }
            let msg = DataMsg {
                edge: e,
                tokens: send,
                sent_at: now,
            };
            self.data_cal.push(self.config.data_arrival(now, rng), msg);
        }
        transmitted
    }

    // ---------- phase 6: belief refresh ----------

    fn refresh_haves(&mut self, now: u64, rng: &mut dyn RngCore) {
        let period = self.config.have_refresh;
        if period == 0 || !(now + 1).is_multiple_of(period) {
            return;
        }
        for v in 0..self.n {
            if self.alive[v] {
                self.announce_have(NodeId::new(v), now, rng);
            }
        }
    }

    // ---------- messaging ----------

    fn neighbor_slot(&self, v: NodeId, peer: NodeId) -> Option<usize> {
        self.neighbors[v.index()].binary_search(&peer).ok()
    }

    /// Sends `v`'s full possession snapshot to every neighbor.
    fn announce_have(&mut self, v: NodeId, now: u64, rng: &mut dyn RngCore) {
        let peers = self.neighbors[v.index()].clone();
        let snapshot = self.possession[v.index()].clone();
        for peer in peers {
            self.send_ctrl(v, peer, CtrlPayload::Have(snapshot.clone()), now, rng);
        }
    }

    fn send_ctrl(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: CtrlPayload,
        now: u64,
        rng: &mut dyn RngCore,
    ) {
        self.vcount[from.index()].sent[payload.kind().index()] += 1;
        let len = payload_len(&payload);
        self.event(now, EventKind::CtrlSend, from, Some(to), None, len);
        let msg = CtrlMsg { from, to, payload };
        match self.config.ctrl_route(now, rng) {
            CtrlRoute::Lost => self.event(now, EventKind::CtrlLost, from, Some(to), None, 0),
            // Same-tick control plane: apply immediately, preserving the
            // lockstep engine's synchronized-knowledge semantics.
            CtrlRoute::Now => self.apply_ctrl(msg, now),
            CtrlRoute::At(tick) => self.ctrl_cal.push(tick, msg),
        }
    }
}

/// Tokens a control message names.
fn payload_len(payload: &CtrlPayload) -> usize {
    match payload {
        CtrlPayload::Have(s) | CtrlPayload::Request(s) | CtrlPayload::Cancel(s) => s.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocd_core::scenario::single_file;
    use ocd_core::validate;
    use ocd_graph::generate::classic;
    use rand::prelude::*;

    fn run(config: &NetConfig, seed: u64) -> NetReport {
        let instance = single_file(classic::cycle(6, 2, true), 8, 0);
        let mut rng = StdRng::seed_from_u64(seed);
        run_swarm(&instance, config, &FaultPlan::none(), &mut rng)
    }

    #[test]
    fn ideal_run_completes_and_validates() {
        let report = run(&NetConfig::default(), 7);
        assert!(report.success);
        assert!(report.completion_ticks.iter().all(Option::is_some));
        assert_eq!(report.bandwidth(), report.tokens_delivered);
        assert!(report.accounts_for_every_token());
        assert_eq!(report.retransmits, 0, "nothing lost, nothing re-sent");
        let instance = single_file(classic::cycle(6, 2, true), 8, 0);
        let replay = validate::replay(&instance, &report.schedule).unwrap();
        assert!(replay.is_successful());
    }

    #[test]
    fn local_policy_completes_with_latency_and_loss() {
        let config = NetConfig {
            policy: NetPolicy::Local,
            latency: 3,
            jitter: 2,
            loss: 0.15,
            control_latency: 1,
            control_loss: 0.05,
            have_refresh: 8,
            ..NetConfig::default()
        };
        let report = run(&config, 11);
        assert!(report.success, "ARQ must recover from loss");
        assert!(report.accounts_for_every_token());
        assert!(
            report.tokens_lost > 0,
            "15% loss over a whole run drops something"
        );
        let instance = single_file(classic::cycle(6, 2, true), 8, 0);
        assert!(validate::replay(&instance, &report.schedule).is_ok());
    }

    #[test]
    fn per_neighbor_queue_policy_is_deterministic_and_completes() {
        let config = NetConfig {
            policy: NetPolicy::PerNeighborQueue,
            ..NetConfig::default()
        };
        let a = run(&config, 3);
        let b = run(&config, 4040);
        assert!(a.success);
        assert_eq!(
            a.schedule, b.schedule,
            "the policy draws no RNG, so seeds cannot matter in ideal mode"
        );
        let instance = single_file(classic::cycle(6, 2, true), 8, 0);
        assert!(validate::replay(&instance, &a.schedule)
            .unwrap()
            .is_successful());
    }

    #[test]
    fn embedded_budgets_meter_the_uplink() {
        // The MWW broadcast instance carries its budgets; the runtime
        // picks them up, and the extracted schedule certifies under the
        // budget-enforcing replay.
        let instance = ocd_heuristics::optimal::broadcast_instance(2, 3, 1, 1);
        let config = NetConfig {
            policy: NetPolicy::PerNeighborQueue,
            ..NetConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(5);
        let report = run_swarm(&instance, &config, &FaultPlan::none(), &mut rng);
        assert!(report.success);
        let replay = validate::replay(&instance, &report.schedule).unwrap();
        assert!(replay.is_successful());
        for step in report.schedule.steps() {
            let mut per_src = vec![0u64; instance.num_vertices()];
            for (e, tokens) in step.sends() {
                per_src[instance.graph().edge(e).src.index()] += tokens.len() as u64;
            }
            assert!(
                per_src.iter().all(|&sent| sent <= 1),
                "unit uplinks allow one token per sender per tick"
            );
        }
    }

    #[test]
    fn budget_embedded_in_the_ring_binds() {
        // The ring instance with a unit uplink budget embedded: every
        // tick's per-sender total respects the budget.
        let instance = Instance::builder(classic::cycle(6, 2, true), 8)
            .have_set(0, TokenSet::full(8))
            .want_all_everywhere()
            .node_budgets(NodeBudgets::uplink_only(6, 1))
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let report = run_swarm(
            &instance,
            &NetConfig::default(),
            &FaultPlan::none(),
            &mut rng,
        );
        assert!(report.success);
        assert!(validate::replay(&instance, &report.schedule)
            .unwrap()
            .is_successful());
        for step in report.schedule.steps() {
            let mut per_src = [0u64; 6];
            for (e, tokens) in step.sends() {
                per_src[instance.graph().edge(e).src.index()] += tokens.len() as u64;
            }
            assert!(per_src.iter().all(|&sent| sent <= 1));
        }
        // The cycle has out-degree 2 at capacity 2: without the budget
        // some tick would push more than one token from one sender.
        let unbudgeted = run(&NetConfig::default(), 6);
        assert!(unbudgeted.schedule.steps().iter().any(|step| {
            let mut per_src = [0u64; 6];
            for (e, tokens) in step.sends() {
                per_src[instance.graph().edge(e).src.index()] += tokens.len() as u64;
            }
            per_src.iter().any(|&sent| sent > 1)
        }));
    }

    #[test]
    fn metrics_snapshot_mirrors_report_counters() {
        let config = NetConfig {
            policy: NetPolicy::Local,
            latency: 3,
            jitter: 2,
            loss: 0.15,
            control_latency: 1,
            ..NetConfig::default()
        };
        let report = run(&config, 11);
        let snap = report.metrics_snapshot();
        assert_eq!(snap.counter("net.ticks"), Some(report.ticks));
        assert_eq!(
            snap.counter("net.tokens_delivered"),
            Some(report.tokens_delivered)
        );
        assert_eq!(snap.counter("net.tokens_lost"), Some(report.tokens_lost));
        assert_eq!(snap.counter("net.retransmits"), Some(report.retransmits));
        assert_eq!(
            snap.counter("net.msgs_sent.token"),
            Some(report.messages_sent[MsgKind::Token.index()])
        );
        let timeouts: u64 = report
            .vertex_counters
            .iter()
            .map(|v| v.request_timeouts)
            .sum();
        assert_eq!(snap.counter("net.request_timeouts"), Some(timeouts));
        assert_eq!(
            snap.series("net.vertex_request_timeouts")
                .unwrap()
                .iter()
                .sum::<u64>(),
            timeouts,
            "per-vertex series sums to the total"
        );
        let sent = snap.series("net.arc_tokens_sent").unwrap();
        assert_eq!(sent.len(), report.link_counters.len());
        assert_eq!(
            sent.iter().sum::<u64>(),
            report.bandwidth(),
            "per-arc sends sum to total bandwidth"
        );
        let completion = snap.histogram("net.completion_ticks").unwrap();
        assert_eq!(completion.count, 6, "every vertex completed");
        assert_eq!(snap.gauge("net.unfinished_vertices"), Some(0));
        // Derived deterministically from the report: same seed,
        // byte-identical snapshot.
        assert_eq!(
            run(&config, 11).metrics_snapshot().to_json(),
            snap.to_json()
        );
    }

    #[test]
    #[should_panic(expected = "invalid net config")]
    fn run_swarm_rejects_invalid_config() {
        let config = NetConfig {
            loss: 2.0,
            ..NetConfig::default()
        };
        let _ = run(&config, 1);
    }

    #[test]
    fn same_seed_same_event_order_different_seed_differs() {
        let config = NetConfig {
            policy: NetPolicy::Local,
            latency: 2,
            jitter: 1,
            loss: 0.2,
            ..NetConfig::default()
        };
        let a = run(&config, 5);
        let b = run(&config, 5);
        assert_eq!(a.schedule, b.schedule);
        let ea: Vec<_> = a.trace.iter().collect();
        let eb: Vec<_> = b.trace.iter().collect();
        assert_eq!(ea, eb, "same seed ⇒ identical event order");
        let c = run(&config, 6);
        assert_ne!(a.schedule, c.schedule, "different seed ⇒ different run");
    }

    #[test]
    fn trivially_satisfied_instance_sends_nothing() {
        let g = classic::path(2, 1, true);
        let instance = ocd_core::Instance::builder(g, 1)
            .have(0, [Token::new(0)])
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let report = run_swarm(
            &instance,
            &NetConfig::default(),
            &FaultPlan::none(),
            &mut rng,
        );
        assert!(report.success);
        assert_eq!(report.ticks, 0);
        assert_eq!(report.bandwidth(), 0);
        assert!(report.trace.is_empty());
    }

    #[test]
    fn unsatisfiable_run_goes_quiescent_not_forever() {
        // Vertex 0 wants token 1, held only downstream of the one-way
        // arc 0 → 1: the run must detect quiescence and stop well
        // before max_ticks.
        let g = classic::path(2, 1, false);
        let instance = ocd_core::Instance::builder(g, 2)
            .have(0, [Token::new(0)])
            .have(1, [Token::new(1)])
            .want(0, [Token::new(1)])
            .want(1, [Token::new(0)])
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let config = NetConfig {
            max_ticks: 50_000,
            ..NetConfig::default()
        };
        let report = run_swarm(&instance, &config, &FaultPlan::none(), &mut rng);
        assert!(!report.success);
        assert!(
            report.ticks < 1_000,
            "quiescence detection stopped the run at tick {}",
            report.ticks
        );
        assert_eq!(report.tokens_delivered, 1, "token 0 still arrives");
    }

    #[test]
    fn provenance_disabled_by_default() {
        let report = run(&NetConfig::default(), 7);
        assert!(report.provenance.is_none());
    }

    #[test]
    fn ideal_provenance_matches_schedule_derivation() {
        // In ideal mode (latency 1, no jitter/loss) delivery order is
        // departure order, so the live trace must equal the one derived
        // by replaying the extracted schedule.
        let config = NetConfig {
            record_provenance: true,
            ..NetConfig::default()
        };
        let report = run(&config, 7);
        assert!(report.success);
        let live = report.provenance.as_ref().expect("provenance enabled");
        let instance = single_file(classic::cycle(6, 2, true), 8, 0);
        let derived = ProvenanceTrace::from_schedule(&instance, &report.schedule);
        assert_eq!(*live, derived);
        assert!(live.critical_path(&instance).is_some());
    }

    #[test]
    fn provenance_survives_loss_and_crashes_deterministically() {
        let instance = single_file(classic::cycle(5, 2, true), 6, 0);
        let faults = FaultPlan::none().crash_between(instance.graph().node(2), 1, 6);
        let config = NetConfig {
            policy: NetPolicy::Local,
            latency: 2,
            jitter: 1,
            loss: 0.2,
            have_refresh: 4,
            record_provenance: true,
            ..NetConfig::default()
        };
        let run_once = || {
            let mut rng = StdRng::seed_from_u64(9);
            run_swarm(&instance, &config, &faults, &mut rng)
        };
        let report = run_once();
        assert!(report.success, "ARQ recovers despite loss and a crash");
        let live = report.provenance.as_ref().unwrap();
        // Every vertex's satisfied wants trace back to a recorded
        // parent (or a seed), even though some deliveries were lost or
        // dropped at the crashed vertex: only applied deliveries are
        // parents.
        for v in instance.graph().nodes() {
            for t in instance.want(v).iter() {
                assert!(
                    live.parent(v, t).is_some() || instance.have(v).contains(t),
                    "vertex {v:?} token {t:?} has no provenance"
                );
            }
        }
        // Same seed ⇒ byte-identical artifacts in every export format.
        let again = run_once();
        let other = again.provenance.as_ref().unwrap();
        assert_eq!(live.to_json(), other.to_json());
        assert_eq!(live.to_csv(), other.to_csv());
        assert_eq!(
            live.to_chrome_json(&instance),
            other.to_chrome_json(&instance)
        );
    }

    #[test]
    fn crash_drops_messages_and_restart_recovers() {
        let instance = single_file(classic::cycle(5, 2, true), 6, 0);
        let faults = FaultPlan::none().crash_between(instance.graph().node(2), 1, 6);
        let config = NetConfig {
            policy: NetPolicy::Local,
            have_refresh: 4,
            ..NetConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let report = run_swarm(&instance, &config, &faults, &mut rng);
        assert!(report.success, "restarted vertex still completes");
        assert!(report.completion_ticks[2].is_some());
        assert_eq!(report.vertex_counters[2].crashes, 1);
        assert!(report.accounts_for_every_token());
        assert!(
            report.trace.iter().any(|e| e.kind == EventKind::Crash),
            "crash recorded in the trace"
        );
        let replay = validate::replay(&instance, &report.schedule).unwrap();
        assert!(replay.is_successful());
    }

    #[test]
    fn spans_cover_every_tick_with_all_phases() {
        let instance = single_file(classic::cycle(6, 2, true), 8, 0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut spans = ocd_core::FlightRecorder::logical();
        let report = run_swarm_with_spans(
            &instance,
            &NetConfig::default(),
            &FaultPlan::none(),
            &mut rng,
            &mut spans,
        );
        assert!(report.success);
        assert!(spans.is_balanced());
        let ticks = spans.count("net.tick");
        assert!(ticks > 0 && ticks as u64 <= report.ticks + 1);
        // Every tick ran the delivery phases; the final (completion)
        // tick skips decide/refresh.
        assert_eq!(spans.count("net.deliver_data"), ticks);
        assert_eq!(spans.count("net.deliver_ctrl"), ticks);
        assert_eq!(spans.count("net.faults"), ticks);
        assert!(spans.count("net.decide") >= ticks - 1);
        // Phase spans nest under their tick span.
        for s in spans.spans() {
            match s.name {
                "net.tick" => assert_eq!(s.depth, 0),
                _ => assert_eq!(s.depth, 1, "{} should nest under net.tick", s.name),
            }
        }
        // The `sent` counters on tick spans sum to the wire total.
        let sent: u64 = spans
            .spans()
            .iter()
            .filter(|s| s.name == "net.tick")
            .flat_map(|s| s.counters.iter())
            .filter(|(k, _)| *k == "sent")
            .map(|(_, v)| v)
            .sum();
        assert_eq!(sent, report.bandwidth());
    }

    #[test]
    fn span_recording_leaves_report_and_rng_stream_unchanged() {
        let instance = single_file(classic::cycle(6, 2, true), 8, 0);
        let config = NetConfig {
            policy: NetPolicy::Local,
            latency: 2,
            loss: 0.1,
            ..NetConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(13);
        let plain = run_swarm(&instance, &config, &FaultPlan::none(), &mut rng);
        let mut rng = StdRng::seed_from_u64(13);
        let mut spans = ocd_core::FlightRecorder::logical();
        let instrumented =
            run_swarm_with_spans(&instance, &config, &FaultPlan::none(), &mut rng, &mut spans);
        assert_eq!(plain.schedule, instrumented.schedule);
        assert_eq!(plain.ticks, instrumented.ticks);
        assert_eq!(plain.messages_sent, instrumented.messages_sent);
    }

    #[test]
    fn equal_seed_span_exports_are_byte_identical() {
        let instance = single_file(classic::cycle(6, 2, true), 8, 0);
        let config = NetConfig {
            loss: 0.2,
            jitter: 1,
            latency: 2,
            ..NetConfig::default()
        };
        let export = || {
            let mut rng = StdRng::seed_from_u64(99);
            let mut spans = ocd_core::FlightRecorder::logical();
            run_swarm_with_spans(&instance, &config, &FaultPlan::none(), &mut rng, &mut spans);
            spans.to_chrome_json("net")
        };
        assert_eq!(export(), export());
    }
}
