//! Structured run instrumentation: a ring-buffered event log and
//! per-vertex and per-link counters. The time-to-completion histogram
//! is `net.completion_ticks` in
//! [`NetReport::metrics_snapshot`](crate::NetReport::metrics_snapshot).
//!
//! The event log is the runtime's flight recorder: bounded memory
//! (oldest events overwritten), every record tagged with its tick, so a
//! failing fault-injection run can be reconstructed post mortem. The
//! counters are the cheap always-on aggregates the `table_async`
//! experiment reports.

use std::fmt::Write as _;

/// What happened, as recorded in the event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A data message departed on an arc.
    DataSend,
    /// A data message arrived and was applied.
    DataDeliver,
    /// A data message was dropped by link loss.
    DataLost,
    /// A data message arrived at a crashed vertex and was discarded.
    DataDroppedCrashed,
    /// A control message departed.
    CtrlSend,
    /// A control message arrived and was applied.
    CtrlDeliver,
    /// A control message was dropped by link loss.
    CtrlLost,
    /// A control message arrived at a crashed vertex and was discarded.
    CtrlDroppedCrashed,
    /// A receiver's request timer expired; the token will be
    /// re-requested with backoff.
    RequestTimeout,
    /// A vertex crashed.
    Crash,
    /// A vertex restarted.
    Restart,
    /// A vertex received the last token of its want set.
    Complete,
}

impl EventKind {
    /// Stable lower-case name used in serialized output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::DataSend => "data_send",
            EventKind::DataDeliver => "data_deliver",
            EventKind::DataLost => "data_lost",
            EventKind::DataDroppedCrashed => "data_dropped_crashed",
            EventKind::CtrlSend => "ctrl_send",
            EventKind::CtrlDeliver => "ctrl_deliver",
            EventKind::CtrlLost => "ctrl_lost",
            EventKind::CtrlDroppedCrashed => "ctrl_dropped_crashed",
            EventKind::RequestTimeout => "request_timeout",
            EventKind::Crash => "crash",
            EventKind::Restart => "restart",
            EventKind::Complete => "complete",
        }
    }
}

/// One record of the event log. `vertex` is the acting vertex (receiver
/// for deliveries, sender for sends); `peer`/`edge` are `u32::MAX` when
/// not applicable; `tokens` is the payload size (0 for pure control
/// events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation tick.
    pub tick: u64,
    /// What happened.
    pub kind: EventKind,
    /// Acting vertex index.
    pub vertex: u32,
    /// The other endpoint, or `u32::MAX`.
    pub peer: u32,
    /// The arc involved, or `u32::MAX`.
    pub edge: u32,
    /// Tokens carried.
    pub tokens: u32,
}

/// Sentinel for "no peer / no arc" in a [`TraceEvent`].
pub const NO_FIELD: u32 = u32::MAX;

/// Fixed-capacity ring buffer of [`TraceEvent`]s.
#[derive(Debug, Clone)]
pub struct EventTrace {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the oldest retained event (once the buffer wrapped).
    head: usize,
    /// Total events ever recorded (≥ `buf.len()`).
    recorded: u64,
}

impl EventTrace {
    /// Creates a trace retaining at most `capacity` events (min 1).
    ///
    /// Memory is allocated **lazily**: only the first
    /// `min(capacity, 4096)` slots are reserved up front, and the
    /// buffer grows on demand as events beyond that are pushed — a
    /// huge configured capacity costs nothing until a run actually
    /// records that many events. The retention bound is always the
    /// full `capacity`, independent of the initial reservation.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        EventTrace {
            buf: Vec::with_capacity(capacity.min(4096)),
            capacity,
            head: 0,
            recorded: 0,
        }
    }

    /// Appends an event, evicting the oldest once full.
    pub fn push(&mut self, event: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
        }
        self.recorded += 1;
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf[self.head..].iter().chain(&self.buf[..self.head])
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever recorded, including evicted ones.
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.recorded
    }

    /// Whether older events were evicted.
    #[must_use]
    pub fn truncated(&self) -> bool {
        self.recorded > self.buf.len() as u64
    }

    /// Events evicted by the ring buffer (`recorded - retained`).
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        self.recorded - self.buf.len() as u64
    }

    /// Serializes the trace as a JSON object: the retained events
    /// (oldest first) plus explicit `recorded` / `retained` /
    /// `events_dropped` counts, so truncation by the ring buffer is
    /// never silent.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"recorded\":{},\"retained\":{},\"events_dropped\":{},\"events\":[",
            self.recorded,
            self.buf.len(),
            self.events_dropped()
        );
        for (i, e) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"tick\":{},\"kind\":\"{}\",\"vertex\":{},\"peer\":{},\"edge\":{},\"tokens\":{}}}",
                e.tick,
                e.kind.name(),
                e.vertex,
                json_opt(e.peer),
                json_opt(e.edge),
                e.tokens
            );
        }
        out.push_str("]}");
        out
    }

    /// Serializes the retained events as CSV with a header row, plus a
    /// trailing `#`-comment line carrying the `recorded` / `retained` /
    /// `events_dropped` counts, so truncation is visible in this
    /// format too.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("tick,kind,vertex,peer,edge,tokens\n");
        for e in self.iter() {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{}",
                e.tick,
                e.kind.name(),
                e.vertex,
                csv_opt(e.peer),
                csv_opt(e.edge),
                e.tokens
            );
        }
        let _ = writeln!(
            out,
            "# recorded={} retained={} events_dropped={}",
            self.recorded,
            self.buf.len(),
            self.events_dropped()
        );
        out
    }
}

fn json_opt(v: u32) -> String {
    if v == NO_FIELD {
        "null".to_string()
    } else {
        v.to_string()
    }
}

fn csv_opt(v: u32) -> String {
    if v == NO_FIELD {
        String::new()
    } else {
        v.to_string()
    }
}

/// Per-vertex message and fault counters.
#[derive(Debug, Clone, Default)]
pub struct VertexCounters {
    /// Messages sent, indexed by [`MsgKind::index`](crate::msg::MsgKind::index).
    pub sent: [u64; 4],
    /// Tokens delivered that the vertex already held.
    pub duplicate_tokens: u64,
    /// Request timers that expired (each triggers a backed-off retry).
    pub request_timeouts: u64,
    /// Times the vertex crashed.
    pub crashes: u64,
}

/// Per-arc link counters.
#[derive(Debug, Clone, Default)]
pub struct LinkCounters {
    /// Data tokens put on the wire.
    pub tokens_sent: u64,
    /// Data tokens delivered (including duplicates).
    pub tokens_delivered: u64,
    /// Data tokens dropped by loss.
    pub tokens_lost: u64,
    /// Data tokens dropped because the destination was crashed.
    pub tokens_dropped_crashed: u64,
    /// Data tokens sent on this arc that had already been sent on it
    /// before (retransmission overhead).
    pub retransmits: u64,
    /// High-water mark of the per-neighbor send queue.
    pub max_queue_depth: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::MsgKind;

    fn ev(tick: u64) -> TraceEvent {
        TraceEvent {
            tick,
            kind: EventKind::DataSend,
            vertex: 0,
            peer: 1,
            edge: 2,
            tokens: 3,
        }
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut trace = EventTrace::new(3);
        for t in 0..5 {
            trace.push(ev(t));
        }
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.total_recorded(), 5);
        assert!(trace.truncated());
        let ticks: Vec<u64> = trace.iter().map(|e| e.tick).collect();
        assert_eq!(ticks, vec![2, 3, 4], "oldest first, earliest evicted");
    }

    #[test]
    fn json_and_csv_shapes() {
        let mut trace = EventTrace::new(8);
        trace.push(ev(1));
        trace.push(TraceEvent {
            tick: 2,
            kind: EventKind::Crash,
            vertex: 4,
            peer: NO_FIELD,
            edge: NO_FIELD,
            tokens: 0,
        });
        let json = trace.to_json();
        assert!(json.starts_with("{\"recorded\":2,\"retained\":2,\"events_dropped\":0,"));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"kind\":\"data_send\""));
        assert!(json.contains("\"peer\":null"));
        let csv = trace.to_csv();
        assert!(csv.starts_with("tick,kind,vertex,peer,edge,tokens\n"));
        assert_eq!(csv.lines().count(), 4);
        assert!(csv.lines().nth(2).unwrap().starts_with("2,crash,4,,,"));
        assert_eq!(
            csv.lines().last().unwrap(),
            "# recorded=2 retained=2 events_dropped=0"
        );
    }

    #[test]
    fn serialized_truncation_counts_are_explicit() {
        let mut trace = EventTrace::new(2);
        for t in 0..5 {
            trace.push(ev(t));
        }
        assert_eq!(trace.events_dropped(), 3);
        let json = trace.to_json();
        assert!(json.starts_with("{\"recorded\":5,\"retained\":2,\"events_dropped\":3,"));
        assert_eq!(
            trace.to_csv().lines().last().unwrap(),
            "# recorded=5 retained=2 events_dropped=3"
        );
    }

    #[test]
    fn wraparound_keeps_exact_window_in_oldest_first_order() {
        // Regression for the lazy-growth ring: push well past capacity
        // and check both the retained window and the iteration order.
        let capacity = 100;
        let pushes = 250u64;
        let mut trace = EventTrace::new(capacity);
        assert!(trace.is_empty());
        for t in 0..pushes {
            trace.push(ev(t));
        }
        assert_eq!(trace.len(), capacity);
        assert_eq!(trace.total_recorded(), pushes);
        assert_eq!(trace.events_dropped(), pushes - capacity as u64);
        assert!(trace.truncated());
        let ticks: Vec<u64> = trace.iter().map(|e| e.tick).collect();
        let expected: Vec<u64> = (pushes - capacity as u64..pushes).collect();
        assert_eq!(ticks, expected, "exact window, oldest first");
    }

    #[test]
    fn counters_default_to_zero() {
        let v = VertexCounters::default();
        assert_eq!(v.sent[MsgKind::Token.index()], 0);
        let l = LinkCounters::default();
        assert_eq!(l.retransmits, 0);
    }
}
