//! The coded swarm: RLNC over the asynchronous runtime's link model.
//!
//! Where [`run_swarm`](crate::run_swarm) moves named tokens and must
//! chase each individual loss with a targeted retransmission, the coded
//! swarm moves GF(2^8) combinations: `TOKEN` payloads carry coefficient
//! vectors, receivers absorb a packet iff it is innovative for their
//! [`CodedBasis`], and *any* lost or redundantly delivered packet is
//! repaired by a retransmit of **any** innovative combination — no
//! per-token bookkeeping, no duplicate-request races.
//!
//! Both swarm policies translate:
//!
//! - [`NetPolicy::Random`] becomes rank-window *push*: each arc keeps
//!   enough combinations in flight to cover the receiver's believed
//!   rank deficit (scaled by a proactive-redundancy factor).
//! - [`NetPolicy::Local`] becomes rank-credit *pull*: each receiver
//!   subdivides its deficit into per-arc `REQUEST` credits over the
//!   in-arcs whose senders are believed useful, re-arming expired
//!   credits with the runtime's exponential backoff.
//!
//! Belief is scalar: vertices announce their basis *rank* (`HAVE`
//! messages shrink from a token bitmap to one integer). Rank beliefs
//! can overestimate usefulness — two vertices of equal rank may span
//! different subspaces — which is exactly the price the paper's §4.1
//! knowledge hierarchy charges for local state; redundant deliveries
//! book that price.
//!
//! The coded swarm and the uncoded runtime are two protocols on one
//! link layer: the same per-tick FIFO calendars and the same loss,
//! jitter and control-plane draws, so both see identically degraded
//! links. The loop is the same deterministic discrete-event design:
//! fixed tick phases, index-sorted iteration, every probabilistic
//! choice from the caller's RNG. Same instance + config + redundancy +
//! seed ⇒ identical counters and completion ticks.

use crate::config::{NetConfig, NetPolicy};
use crate::link::{Calendar, CtrlRoute};
use ocd_core::rlnc::{CodedBasis, CodedPacket, RlncInstance};
use ocd_core::span::{NoopSpans, SpanRecorder};
use ocd_graph::{EdgeId, NodeId};
use rand::RngCore;

/// Per-arc counters of a coded swarm run — the coded analogue of
/// [`LinkCounters`](crate::trace::LinkCounters), with token identity
/// replaced by innovation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodedLinkCounters {
    /// Coded packets put on this arc (including lost ones).
    pub packets_sent: u64,
    /// Deliveries on this arc that increased the receiver's rank.
    pub innovative: u64,
    /// Deliveries on this arc inside the receiver's span.
    pub redundant: u64,
    /// Packets dropped by loss on this arc.
    pub lost: u64,
}

/// Result of a coded swarm run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CodedNetReport {
    /// Whether every receiver reached full rank within the tick budget.
    pub success: bool,
    /// Ticks simulated (the completion tick on success).
    pub ticks: u64,
    /// Coded packets put on the wire (including lost ones).
    pub packets_sent: u64,
    /// Packets that increased their receiver's rank.
    pub innovative_deliveries: u64,
    /// Packets that arrived inside the receiver's span (the coded
    /// analogue of duplicate deliveries).
    pub redundant_deliveries: u64,
    /// Packets dropped by link loss.
    pub packets_lost: u64,
    /// Packets still in flight when the run ended (completion can be
    /// detected while proactive redundancy is still on the wire).
    pub packets_unresolved: u64,
    /// Wire bytes: packets × (payload length + coefficient header).
    pub bytes_sent: u64,
    /// `HAVE` rank beacons sent.
    pub have_messages: u64,
    /// `REQUEST` credit grants sent (pull mode only).
    pub request_messages: u64,
    /// Pull-mode request credits that expired and were re-armed with
    /// backoff.
    pub request_timeouts: u64,
    /// Per-vertex tick at which the vertex reached full rank (0 = the
    /// source); `None` if never.
    pub completion_ticks: Vec<Option<u64>>,
    /// Per-arc counters, indexed by [`EdgeId`].
    pub link_counters: Vec<CodedLinkCounters>,
    /// Whether every completed receiver decoded the exact generation.
    pub decode_ok: bool,
}

impl CodedNetReport {
    /// The conservation check: every packet put on the wire was
    /// delivered (innovatively or redundantly), lost, or still in
    /// flight at exit — nothing vanishes unaccounted.
    #[must_use]
    pub fn accounts_for_every_packet(&self) -> bool {
        self.packets_sent
            == self.innovative_deliveries
                + self.redundant_deliveries
                + self.packets_lost
                + self.packets_unresolved
    }

    /// The report's counters as a metrics snapshot — the `coded.*`
    /// counterpart of
    /// [`NetReport::metrics_snapshot`](crate::NetReport::metrics_snapshot),
    /// in the same schema: per-kind message counters
    /// (`coded.msgs_sent.{have,request,token}`), innovation/loss
    /// accounting, per-arc series, and the rank-completion-tick
    /// histogram.
    ///
    /// Everything here derives from the deterministic run state, so
    /// equal-seed runs snapshot byte-identically.
    #[must_use]
    pub fn metrics_snapshot(&self) -> ocd_core::MetricsSnapshot {
        use crate::msg::MsgKind;
        use ocd_core::metrics::{HistogramSnapshot, MetricsSnapshot, SeriesSnapshot};
        let arcs = |value: fn(&CodedLinkCounters) -> u64| -> Vec<u64> {
            self.link_counters.iter().map(value).collect()
        };
        // Per-kind wire counters, named like the uncoded runtime's
        // `net.msgs_sent.{kind}` (the coded protocol has no `cancel`).
        let per_kind = [
            (MsgKind::Have, self.have_messages),
            (MsgKind::Request, self.request_messages),
            (MsgKind::Token, self.packets_sent),
        ]
        .map(|(kind, value)| (format!("coded.msgs_sent.{}", kind.name()), value));
        let counters = [
            ("coded.ticks", self.ticks),
            ("coded.packets_sent", self.packets_sent),
            ("coded.innovative_deliveries", self.innovative_deliveries),
            ("coded.redundant_deliveries", self.redundant_deliveries),
            ("coded.packets_lost", self.packets_lost),
            ("coded.packets_unresolved", self.packets_unresolved),
            ("coded.bytes_sent", self.bytes_sent),
            ("coded.request_timeouts", self.request_timeouts),
        ]
        .map(|(name, value)| (name.to_string(), value))
        .into_iter()
        .chain(per_kind);
        let unfinished = self.completion_ticks.iter().filter(|c| c.is_none()).count();
        MetricsSnapshot::new(
            counters,
            [("coded.unfinished_vertices".to_string(), unfinished as i64)],
            [HistogramSnapshot::of(
                "coded.rank_completion_ticks",
                self.completion_ticks.iter().flatten().copied(),
            )],
            [
                SeriesSnapshot::new("coded.arc_packets_sent", arcs(|lc| lc.packets_sent)),
                SeriesSnapshot::new("coded.arc_innovative", arcs(|lc| lc.innovative)),
                SeriesSnapshot::new("coded.arc_redundant", arcs(|lc| lc.redundant)),
                SeriesSnapshot::new("coded.arc_lost", arcs(|lc| lc.lost)),
            ],
        )
    }
}

/// An in-flight coded data packet. Loss is decided at send time (drawn
/// before jitter, in send order) but booked at the scheduled arrival
/// tick, so a lost packet counts against its arc's push window until
/// then.
struct DataInFlight {
    edge: EdgeId,
    packet: CodedPacket,
    lost: bool,
}

/// An in-flight control message.
enum CtrlInFlight {
    /// A basis rank for vertex `to`'s belief about its neighbor in
    /// `slot`.
    Have { to: usize, slot: usize, rank: usize },
    /// `count` packet credits for the sender of arc `edge`.
    Request { edge: EdgeId, count: u32 },
}

/// Applies a delivered control message: a rank belief only ever grows,
/// and credits add up at the arc's sender.
fn apply_ctrl(msg: CtrlInFlight, belief: &mut [Vec<usize>], serve_credits: &mut [u32]) {
    match msg {
        CtrlInFlight::Have { to, slot, rank } => {
            let cell = &mut belief[to][slot];
            *cell = (*cell).max(rank);
        }
        CtrlInFlight::Request { edge, count } => serve_credits[edge.index()] += count,
    }
}

/// Position of `peer` in `v`'s neighbor list.
fn slot(neighbors: &[Vec<NodeId>], v: usize, peer: NodeId) -> usize {
    neighbors[v]
        .binary_search(&peer)
        .expect("arc endpoints are neighbors")
}

/// Outstanding pull-mode credits on one in-arc.
#[derive(Clone, Copy, Default)]
struct Pending {
    /// Credits granted but not yet seen back as deliveries.
    credits: u32,
    /// Tick at which the credits expire and re-arm.
    deadline: u64,
    /// Consecutive expiries, for backoff scaling.
    attempts: u32,
}

/// Runs the coded swarm and reports its counters.
///
/// `redundancy ≥ 1` is the proactive-redundancy factor: how many
/// combinations to keep in flight (push) or request (pull) per unit of
/// believed rank deficit, to ride through loss without waiting for
/// timeout feedback. [`NetPolicy::PerNeighborQueue`] has no coded
/// variant and runs as [`NetPolicy::Local`] (credit pull *is* its
/// queue discipline once tokens lose their identity).
///
/// # Panics
///
/// Panics if `config` fails [`NetConfig::validate`], or if
/// `redundancy < 1` or is not finite.
pub fn run_coded_swarm(
    instance: &RlncInstance,
    config: &NetConfig,
    redundancy: f64,
    rng: &mut dyn RngCore,
) -> CodedNetReport {
    run_coded_swarm_with_spans(instance, config, redundancy, rng, &mut NoopSpans)
}

/// [`run_coded_swarm`] with a [`SpanRecorder`] attached: every tick
/// opens a `coded.tick` span with one child per phase
/// (`coded.deliver_data`, `coded.deliver_ctrl`,
/// `coded.receiver_decisions`, `coded.sender_decisions`,
/// `coded.beacons`), carrying `sent` / `innovative` counters. The span
/// stream is a pure function of the run state, so equal seeds give
/// byte-identical logical exports.
pub fn run_coded_swarm_with_spans<S: SpanRecorder>(
    instance: &RlncInstance,
    config: &NetConfig,
    redundancy: f64,
    rng: &mut dyn RngCore,
    spans: &mut S,
) -> CodedNetReport {
    config.validate().expect("invalid net config");
    assert!(redundancy >= 1.0, "redundancy is a multiplier ≥ 1");
    assert!(redundancy.is_finite(), "redundancy is a finite multiplier");
    let g = instance.graph();
    let n = g.node_count();
    let k = instance.generation();
    let pull = !matches!(config.policy, NetPolicy::Random);

    let mut bases: Vec<CodedBasis> = instance.initial_bases();
    let neighbors: Vec<Vec<NodeId>> = g.nodes().map(|v| g.neighbors_undirected(v)).collect();
    // `belief[v][i]` = the rank `v` believes `neighbors[v][i]` holds.
    // Common-knowledge start: beliefs begin at the true initial ranks
    // (the uncoded runtime's instance-wide have/want bootstrap).
    let mut belief: Vec<Vec<usize>> = neighbors
        .iter()
        .map(|peers| peers.iter().map(|u| bases[u.index()].rank()).collect())
        .collect();
    let mut completion: Vec<Option<u64>> =
        bases.iter().map(|b| b.is_complete().then_some(0)).collect();
    let receiver: Vec<bool> = g.nodes().map(|v| instance.is_receiver(v)).collect();

    let mut data_cal: Calendar<DataInFlight> = Calendar::new();
    let mut ctrl_cal: Calendar<CtrlInFlight> = Calendar::new();
    // Packets currently in flight per arc (push-mode window control).
    let mut in_flight = vec![0u32; g.edge_count()];
    // Pull-mode sender-side serve queues and receiver-side credit state.
    let mut serve_credits = vec![0u32; g.edge_count()];
    let mut pending = vec![Pending::default(); g.edge_count()];

    let mut report = CodedNetReport {
        link_counters: vec![CodedLinkCounters::default(); g.edge_count()],
        ..CodedNetReport::default()
    };

    let all_done = |bases: &[CodedBasis]| (0..n).all(|v| !receiver[v] || bases[v].is_complete());

    let mut now = 0u64;
    while now < config.max_ticks {
        if all_done(&bases) {
            break;
        }
        let mut activity = false;
        let tick_span = spans.open("coded.tick");
        let (sent_before, innovative_before) = (report.packets_sent, report.innovative_deliveries);

        // Phase 1: data delivery (send order within the tick).
        let phase = spans.open("coded.deliver_data");
        for msg in data_cal.take(now) {
            let arc = g.edge(msg.edge);
            in_flight[msg.edge.index()] = in_flight[msg.edge.index()].saturating_sub(1);
            activity = true;
            if msg.lost {
                report.packets_lost += 1;
                report.link_counters[msg.edge.index()].lost += 1;
                continue;
            }
            let dst = arc.dst.index();
            let p = &mut pending[msg.edge.index()];
            if p.credits > 0 {
                // A delivery retires one credit regardless of novelty:
                // the arc did its work, innovation is the field's job.
                // The arc proving alive also resets its backoff.
                p.credits -= 1;
                p.attempts = 0;
            }
            if bases[dst].absorb(msg.packet) {
                report.innovative_deliveries += 1;
                report.link_counters[msg.edge.index()].innovative += 1;
                if bases[dst].is_complete() && completion[dst].is_none() {
                    completion[dst] = Some(now);
                    spans.event("coded.rank_complete", dst as u64);
                }
            } else {
                report.redundant_deliveries += 1;
                report.link_counters[msg.edge.index()].redundant += 1;
            }
        }
        spans.close(phase);

        // Phase 2: control delivery.
        let phase = spans.open("coded.deliver_ctrl");
        for msg in ctrl_cal.take(now) {
            activity = true;
            apply_ctrl(msg, &mut belief, &mut serve_credits);
        }
        spans.close(phase);

        // Phase 3: receiver decisions (pull mode): expire stale
        // credits, then spread the uncovered deficit over useful
        // in-arcs, least-granted first.
        let phase = spans.open("coded.receiver_decisions");
        if pull {
            for v in g.nodes() {
                let vi = v.index();
                if !receiver[vi] || bases[vi].is_complete() {
                    continue;
                }
                for e in g.in_edges(v) {
                    let p = &mut pending[e.index()];
                    if p.credits > 0 && p.deadline <= now {
                        report.request_timeouts += 1;
                        p.credits = 0;
                        p.attempts += 1;
                        activity = true;
                    }
                }
                let my_rank = bases[vi].rank();
                let outstanding: u32 = g.in_edges(v).map(|e| pending[e.index()].credits).sum();
                let want = ((bases[vi].deficit() as f64 * redundancy).ceil() as u32)
                    .saturating_sub(outstanding);
                if want == 0 {
                    continue;
                }
                // Useful in-arcs under scalar belief: the sender's
                // believed rank exceeds mine.
                let arcs: Vec<EdgeId> = g
                    .in_edges(v)
                    .filter(|&e| belief[vi][slot(&neighbors, vi, g.edge(e).src)] > my_rank)
                    .collect();
                if arcs.is_empty() {
                    continue;
                }
                let mut grant = vec![0u32; arcs.len()];
                for _ in 0..want {
                    let slot = (0..arcs.len())
                        .min_by_key(|&i| (pending[arcs[i].index()].credits + grant[i], i))
                        .expect("non-empty");
                    grant[slot] += 1;
                }
                for (&e, &c) in arcs.iter().zip(&grant) {
                    if c == 0 {
                        continue;
                    }
                    let p = &mut pending[e.index()];
                    p.credits += c;
                    p.deadline = now + config.backoff_timeout(p.attempts);
                    report.request_messages += 1;
                    activity = true;
                    let msg = CtrlInFlight::Request { edge: e, count: c };
                    match config.ctrl_route(now, rng) {
                        CtrlRoute::Lost => {}
                        // Same-tick control plane: credits are
                        // servable this very tick (phase 4 follows).
                        CtrlRoute::Now => apply_ctrl(msg, &mut belief, &mut serve_credits),
                        CtrlRoute::At(tick) => ctrl_cal.push(tick, msg),
                    }
                }
            }
        }

        spans.close(phase);

        // Phase 4: sender decisions, ascending arc id. Every packet is
        // a fresh random combination of the sender's current basis.
        // Push mode shares one rank-deficit window per destination
        // across all of its in-arcs (in-flight packets count against
        // it), so parallel senders do not each re-cover the full
        // deficit — the coded analogue of the uncoded runtime's
        // cross-arc `Cancel` dedup.
        let phase = spans.open("coded.sender_decisions");
        let mut claimed = vec![0u32; n];
        let in_flight_to: Vec<u32> = if pull {
            Vec::new()
        } else {
            let mut acc = vec![0u32; n];
            for e in g.edge_ids() {
                acc[g.edge(e).dst.index()] += in_flight[e.index()];
            }
            acc
        };
        for e in g.edge_ids() {
            let arc = g.edge(e);
            let src = arc.src.index();
            if bases[src].rank() == 0 {
                continue;
            }
            let cap = g.capacity(e);
            let count = if pull {
                let served = serve_credits[e.index()].min(cap);
                serve_credits[e.index()] -= served;
                served
            } else {
                let dst = arc.dst.index();
                // A sender of rank r can contribute at most r
                // innovative packets no matter the deficit, so the
                // window is the believed deficit capped by own rank.
                let believed_deficit = k
                    .saturating_sub(belief[src][slot(&neighbors, src, arc.dst)])
                    .min(bases[src].rank());
                let window = (believed_deficit as f64 * redundancy).ceil() as u32;
                let budget = window
                    .saturating_sub(in_flight_to[dst] + claimed[dst])
                    .min(cap);
                claimed[dst] += budget;
                budget
            };
            for _ in 0..count {
                let packet = bases[src].random_packet(rng);
                report.packets_sent += 1;
                report.link_counters[e.index()].packets_sent += 1;
                report.bytes_sent += packet.wire_bytes();
                activity = true;
                let lost = config.data_lost(rng);
                in_flight[e.index()] += 1;
                let msg = DataInFlight {
                    edge: e,
                    packet,
                    lost,
                };
                data_cal.push(config.data_arrival(now, rng), msg);
            }
        }

        spans.close(phase);

        // Phase 5: belief beacons. A rank is a single integer, so —
        // unlike the uncoded runtime's possession bitmaps — every
        // vertex re-announces it every tick (the piggyback feedback of
        // real RLNC transports). A lost beacon leaves a sender
        // over-pushing for one tick, not until the next bitmap
        // refresh.
        let phase = spans.open("coded.beacons");
        for v in g.nodes() {
            let rank = bases[v.index()].rank();
            // Announce to every graph neighbor (in- and out-), in
            // ascending id order for determinism.
            for &to in &neighbors[v.index()] {
                report.have_messages += 1;
                let to = to.index();
                let msg = CtrlInFlight::Have {
                    to,
                    slot: slot(&neighbors, to, v),
                    rank,
                };
                match config.ctrl_route(now, rng) {
                    CtrlRoute::Lost => {}
                    // Same-tick control plane: the belief lands before
                    // next tick's decisions.
                    CtrlRoute::Now => apply_ctrl(msg, &mut belief, &mut serve_credits),
                    CtrlRoute::At(tick) => ctrl_cal.push(tick, msg),
                }
            }
        }

        spans.close(phase);

        spans.attach(tick_span, "sent", report.packets_sent - sent_before);
        spans.attach(
            tick_span,
            "innovative",
            report.innovative_deliveries - innovative_before,
        );
        spans.close(tick_span);

        now += 1;
        report.ticks = now;
        // Fixpoint: nothing moved, nothing in flight, nothing pending —
        // further ticks are identical (unreachable receivers).
        let credits_pending = pull && pending.iter().any(|p| p.credits > 0);
        if !activity && data_cal.is_empty() && ctrl_cal.is_empty() && !credits_pending {
            break;
        }
    }

    report.packets_unresolved = data_cal.iter().count() as u64;
    report.success = all_done(&bases);
    report.decode_ok =
        report.success && (0..n).all(|v| !receiver[v] || instance.decodes_correctly(&bases[v]));
    report.completion_ticks = completion;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultPlan;
    use ocd_core::scenario::single_file;
    use ocd_graph::generate::classic;
    use rand::prelude::*;

    fn ring_instance(k: usize, len: usize) -> RlncInstance {
        RlncInstance::single_source(classic::cycle(6, 2, true), k, len, 0)
    }

    #[test]
    fn ideal_push_completes_and_decodes() {
        let inst = ring_instance(8, 16);
        let mut rng = StdRng::seed_from_u64(3);
        let report = run_coded_swarm(&inst, &NetConfig::default(), 1.0, &mut rng);
        assert!(report.success && report.decode_ok);
        assert!(report.accounts_for_every_packet());
        assert_eq!(report.packets_lost, 0);
        assert_eq!(report.bytes_sent, report.packets_sent * inst.packet_bytes());
        assert!(report.innovative_deliveries >= 8 * 5);
    }

    /// An infinite factor would ask pull mode for `u32::MAX` grants per
    /// receiver per tick; it is refused at entry instead.
    #[test]
    #[should_panic(expected = "redundancy is a finite multiplier")]
    fn infinite_redundancy_is_rejected() {
        let config = NetConfig {
            policy: crate::NetPolicy::Local,
            ..NetConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let _ = run_coded_swarm(&ring_instance(8, 16), &config, f64::INFINITY, &mut rng);
    }

    #[test]
    fn ideal_pull_completes_and_decodes() {
        let inst = ring_instance(8, 16);
        let config = NetConfig {
            policy: crate::NetPolicy::Local,
            ..NetConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let report = run_coded_swarm(&inst, &config, 1.0, &mut rng);
        assert!(report.success && report.decode_ok, "{report:?}");
        assert!(report.accounts_for_every_packet());
    }

    #[test]
    fn loss_costs_only_retransmits_of_innovative_combinations() {
        // The coded claim: under loss the swarm still completes, and
        // every repair packet is just *another* random combination —
        // no token identity is ever chased.
        let inst = ring_instance(10, 32);
        for policy in [crate::NetPolicy::Random, crate::NetPolicy::Local] {
            let config = NetConfig {
                policy,
                loss: 0.25,
                latency: 2,
                control_latency: 1,
                ..NetConfig::default()
            };
            let mut rng = StdRng::seed_from_u64(17);
            let report = run_coded_swarm(&inst, &config, 1.0, &mut rng);
            assert!(report.success && report.decode_ok, "{policy:?}: {report:?}");
            assert!(report.packets_lost > 0, "{policy:?}: loss must have fired");
            assert!(report.accounts_for_every_packet());
        }
    }

    #[test]
    fn metrics_snapshot_mirrors_report_counters() {
        let inst = ring_instance(8, 16);
        let config = NetConfig {
            policy: crate::NetPolicy::Local,
            loss: 0.2,
            latency: 2,
            control_latency: 1,
            ..NetConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(5);
        let report = run_coded_swarm(&inst, &config, 1.0, &mut rng);
        assert!(report.success);
        let per_arc_sent: u64 = report.link_counters.iter().map(|l| l.packets_sent).sum();
        assert_eq!(per_arc_sent, report.packets_sent);
        let per_arc_lost: u64 = report.link_counters.iter().map(|l| l.lost).sum();
        assert_eq!(per_arc_lost, report.packets_lost);

        let snap = report.metrics_snapshot();
        assert_eq!(
            snap.counter("coded.packets_sent"),
            Some(report.packets_sent)
        );
        assert_eq!(
            snap.counter("coded.innovative_deliveries"),
            Some(report.innovative_deliveries)
        );
        assert_eq!(
            snap.counter("coded.packets_lost"),
            Some(report.packets_lost)
        );
        assert_eq!(
            snap.counter("coded.msgs_sent.have"),
            Some(report.have_messages)
        );
        assert_eq!(
            snap.counter("coded.msgs_sent.request"),
            Some(report.request_messages)
        );
        assert_eq!(
            snap.counter("coded.msgs_sent.token"),
            Some(report.packets_sent)
        );
        let arc_sent = snap.series("coded.arc_packets_sent").unwrap();
        assert_eq!(arc_sent.len(), report.link_counters.len());
        assert_eq!(arc_sent.iter().sum::<u64>(), report.packets_sent);
        let completion = snap.histogram("coded.rank_completion_ticks").unwrap();
        assert_eq!(completion.count, 6, "every vertex completed");
        assert_eq!(snap.gauge("coded.unfinished_vertices"), Some(0));
        // Derived deterministically from the report: same seed,
        // byte-identical snapshot.
        let mut rng = StdRng::seed_from_u64(5);
        let again = run_coded_swarm(&inst, &config, 1.0, &mut rng);
        assert_eq!(again.metrics_snapshot().to_json(), snap.to_json());
    }

    #[test]
    fn spans_cover_every_tick_with_all_phases() {
        let inst = ring_instance(8, 16);
        let mut rng = StdRng::seed_from_u64(3);
        let mut spans = ocd_core::FlightRecorder::logical();
        let report =
            run_coded_swarm_with_spans(&inst, &NetConfig::default(), 1.0, &mut rng, &mut spans);
        assert!(report.success);
        assert!(spans.is_balanced());
        let ticks = spans.count("coded.tick");
        assert_eq!(ticks as u64, report.ticks);
        for name in [
            "coded.deliver_data",
            "coded.deliver_ctrl",
            "coded.receiver_decisions",
            "coded.sender_decisions",
            "coded.beacons",
        ] {
            assert_eq!(spans.count(name), ticks, "{name} runs once per tick");
        }
        for s in spans.spans() {
            match s.name {
                "coded.tick" => assert_eq!(s.depth, 0),
                _ => assert_eq!(s.depth, 1, "{} should nest under coded.tick", s.name),
            }
        }
        // Tick-span `sent` counters sum to the wire total, and every
        // receiver that completed fired a rank_complete event.
        let sent: u64 = spans
            .spans()
            .iter()
            .filter(|s| s.name == "coded.tick")
            .flat_map(|s| s.counters.iter())
            .filter(|(k, _)| *k == "sent")
            .map(|(_, v)| v)
            .sum();
        assert_eq!(sent, report.packets_sent);
        let completions = spans
            .events()
            .iter()
            .filter(|e| e.name == "coded.rank_complete")
            .count();
        assert_eq!(completions, 5, "five non-source receivers complete");
        // Recording spans must not perturb the simulation.
        let mut rng = StdRng::seed_from_u64(3);
        let plain = run_coded_swarm(&inst, &NetConfig::default(), 1.0, &mut rng);
        assert_eq!(plain, report);
    }

    #[test]
    fn equal_seed_span_exports_are_byte_identical() {
        let inst = ring_instance(7, 8);
        let config = NetConfig {
            loss: 0.2,
            jitter: 2,
            latency: 3,
            ..NetConfig::default()
        };
        let export = || {
            let mut rng = StdRng::seed_from_u64(41);
            let mut spans = ocd_core::FlightRecorder::logical();
            run_coded_swarm_with_spans(&inst, &config, 1.25, &mut rng, &mut spans);
            spans.to_chrome_json("coded")
        };
        assert_eq!(export(), export());
    }

    #[test]
    fn equal_seeds_are_bit_identical() {
        let inst = ring_instance(7, 8);
        let config = NetConfig {
            loss: 0.2,
            jitter: 2,
            latency: 3,
            control_latency: 1,
            control_loss: 0.1,
            ..NetConfig::default()
        };
        let run = || {
            let mut rng = StdRng::seed_from_u64(99);
            run_coded_swarm(&inst, &config, 1.25, &mut rng)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn unreachable_receiver_fails_at_fixpoint_not_max_ticks() {
        let mut g = ocd_graph::DiGraph::with_nodes(3);
        g.add_edge(g.node(0), g.node(1), 1).unwrap();
        let inst = RlncInstance::single_source(g, 4, 8, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let report = run_coded_swarm(&inst, &NetConfig::default(), 1.0, &mut rng);
        assert!(!report.success);
        assert!(report.ticks < 100, "fixpoint exit");
        assert_eq!(report.completion_ticks[2], None);
    }

    #[test]
    fn coded_beats_uncoded_random_under_heavy_loss_and_jitter() {
        // A small in-crate pre-run of the frontier claim: on long
        // lossy jittery links, RLNC beats uncoded Random on BOTH
        // makespan and wire bytes — the uncoded swarm's per-token
        // timeout/retransmit machinery stalls and duplicates, while
        // any coded combination repairs any loss.
        let k = 8;
        let len = 64usize;
        let g = classic::cycle(6, 2, true);
        let config = NetConfig {
            loss: 0.5,
            control_loss: 0.3,
            latency: 3,
            jitter: 3,
            ..NetConfig::default()
        };
        let (mut coded_bytes, mut coded_ticks) = (0u64, 0u64);
        let (mut uncoded_bytes, mut uncoded_ticks) = (0u64, 0u64);
        for seed in 0..5u64 {
            let coded_inst = RlncInstance::single_source(g.clone(), k, len, 0);
            let mut rng = StdRng::seed_from_u64(seed);
            let coded = run_coded_swarm(&coded_inst, &config, 1.0, &mut rng);
            assert!(coded.success && coded.decode_ok, "seed {seed}");
            coded_bytes += coded.bytes_sent;
            coded_ticks += coded.ticks;

            let uncoded_inst = single_file(g.clone(), k, 0);
            let mut rng = StdRng::seed_from_u64(seed);
            let uncoded = crate::run_swarm(&uncoded_inst, &config, &FaultPlan::none(), &mut rng);
            assert!(uncoded.success, "seed {seed}");
            uncoded_bytes += uncoded.bandwidth() * len as u64;
            uncoded_ticks += uncoded.ticks;
        }
        assert!(
            coded_bytes < uncoded_bytes,
            "coded {coded_bytes} >= uncoded {uncoded_bytes} bytes"
        );
        assert!(
            coded_ticks < uncoded_ticks,
            "coded {coded_ticks} >= uncoded {uncoded_ticks} ticks"
        );
    }
}
