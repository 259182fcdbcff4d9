//! The suite-wide **flight recorder**: named, nested, timed spans with
//! attached counters and an instantaneous event stream, shared by the
//! lockstep engine (`ocd-heuristics`), the asynchronous swarm runtime
//! (`ocd-net`), and the exact solvers (`ocd-lp`/`ocd-solver`).
//!
//! # Design
//!
//! Instrumented code records through the [`SpanRecorder`] trait — the
//! one probe a hot loop is generic over; metrics and provenance are
//! derived from the run after it ends ([`crate::metrics`],
//! [`crate::provenance`]). It has two implementations:
//!
//! - [`NoopSpans`]: every method is an empty `#[inline(always)]` body
//!   and [`SpanRecorder::enabled`] is a constant `false`. Code
//!   monomorphized over it compiles down to the uninstrumented loop —
//!   spans cost **nothing when disabled** (the `engine_step_loop`
//!   microbench is the regression guard).
//! - [`FlightRecorder`]: the real store. Spans nest by open/close
//!   order (strictly LIFO), carry `(key, value)` counters attached
//!   while open, and share a run-wide sequence clock with the
//!   instantaneous [`SpanRecorder::event`] stream.
//!
//! # Two clocks
//!
//! Every open/close/event advances a deterministic **sequence clock**;
//! a [`FlightRecorder::wall`] recorder *additionally* measures each
//! span's wall-clock duration with [`std::time::Instant`]. Exported
//! artifacts (`to_chrome_json`, `to_json`, `to_csv`) place spans on
//! the sequence clock only, so a [`FlightRecorder::logical`] recorder
//! driven by a deterministic system serializes to **byte-identical**
//! artifacts across equal-seed runs — the same contract as
//! [`MetricsSnapshot`](crate::metrics::MetricsSnapshot). Wall-clock
//! durations are opt-in at the construction site
//! ([`FlightRecorder::wall`]) precisely because they break that
//! guarantee.
//!
//! # Examples
//!
//! ```
//! use ocd_core::span::{FlightRecorder, SpanRecorder};
//!
//! let mut rec = FlightRecorder::logical();
//! let step = rec.open("engine.step");
//! let plan = rec.open("engine.plan");
//! rec.attach(plan, "moves", 3);
//! rec.close(plan);
//! rec.event("engine.complete", 7);
//! rec.close(step);
//! assert_eq!(rec.spans().len(), 2);
//! assert_eq!(rec.count("engine."), 2);
//! let chrome = rec.to_chrome_json("demo");
//! assert!(chrome.starts_with("{\"traceEvents\":["));
//! ```

use std::time::Instant;

/// Handle to an open (or closed) span inside one recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// One finished span: where it sat in the nesting, its interval on the
/// run's sequence clock, its wall-clock duration (zero under a
/// [`FlightRecorder::logical`] recorder), and the counters attached
/// while it was open.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (a static label like `"bnb.node.branched"`).
    pub name: &'static str,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Nesting depth (root spans sit at 0).
    pub depth: u16,
    /// Sequence-clock tick at which the span opened.
    pub start_seq: u64,
    /// Sequence-clock tick at which the span closed (`> start_seq`
    /// once closed; equal to `start_seq` while still open).
    pub end_seq: u64,
    /// Wall-clock nanoseconds between open and close; 0 under the
    /// logical clock.
    pub wall_ns: u64,
    /// Counters attached via [`SpanRecorder::attach`], in attach order.
    pub counters: Vec<(&'static str, u64)>,
}

/// One instantaneous event on the run's sequence clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Event name (a static label like `"bnb.incumbent"`).
    pub name: &'static str,
    /// Sequence-clock tick at which the event fired.
    pub seq: u64,
    /// The event's payload value.
    pub value: u64,
}

/// The span-recording interface instrumented code is generic over.
///
/// Spans are strictly nested: [`SpanRecorder::close`] must receive the
/// innermost open span (LIFO). Counters are deterministic metadata —
/// attach quantities derived from the computation (moves admitted, LP
/// iterations, bounds in milli-units), never clock readings, so that
/// logical-clock artifacts stay byte-identical across equal seeds.
///
/// [`NoopSpans`] implements everything as empty `#[inline(always)]`
/// bodies; monomorphizing over it erases the instrumentation entirely.
/// Hot paths that must *compute* something before recording it should
/// guard on [`SpanRecorder::enabled`], which is a constant after
/// monomorphization.
pub trait SpanRecorder {
    /// Whether recordings are kept. `false` for [`NoopSpans`], and
    /// constant-foldable after monomorphization.
    fn enabled(&self) -> bool;

    /// Opens a named span nested under the innermost open span.
    fn open(&mut self, name: &'static str) -> SpanId;

    /// Closes a span. Must be the innermost open span.
    fn close(&mut self, id: SpanId);

    /// Attaches a `(key, value)` counter to an open span.
    fn attach(&mut self, id: SpanId, key: &'static str, value: u64);

    /// Records an instantaneous named event.
    fn event(&mut self, name: &'static str, value: u64);
}

/// The do-nothing recorder: disabled spans at zero cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSpans;

impl SpanRecorder for NoopSpans {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
    #[inline(always)]
    fn open(&mut self, _name: &'static str) -> SpanId {
        SpanId(0)
    }
    #[inline(always)]
    fn close(&mut self, _id: SpanId) {}
    #[inline(always)]
    fn attach(&mut self, _id: SpanId, _key: &'static str, _value: u64) {}
    #[inline(always)]
    fn event(&mut self, _name: &'static str, _value: u64) {}
}

/// Which clock a [`FlightRecorder`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpanClock {
    /// Sequence clock only: byte-identical artifacts across equal
    /// seeds.
    Logical,
    /// Sequence clock plus wall-clock span durations.
    Wall,
}

/// The real span store: nested spans on a deterministic sequence
/// clock, optionally wall-timed.
#[derive(Debug)]
pub struct FlightRecorder {
    clock: SpanClock,
    spans: Vec<SpanRecord>,
    events: Vec<SpanEvent>,
    /// Innermost-last stack of open spans, with their wall-clock open
    /// instants (unused under the logical clock).
    stack: Vec<(u32, Instant)>,
    seq: u64,
}

impl FlightRecorder {
    /// A recorder on the sequence clock only: equal-seed runs of a
    /// deterministic system produce byte-identical artifacts.
    #[must_use]
    pub fn logical() -> Self {
        FlightRecorder {
            clock: SpanClock::Logical,
            spans: Vec::new(),
            events: Vec::new(),
            stack: Vec::new(),
            seq: 0,
        }
    }

    /// A recorder that additionally measures each span's wall-clock
    /// duration (breaks byte-identical artifacts; exports still place
    /// spans on the sequence clock).
    #[must_use]
    pub fn wall() -> Self {
        FlightRecorder {
            clock: SpanClock::Wall,
            ..FlightRecorder::logical()
        }
    }

    fn tick(&mut self) -> u64 {
        let now = self.seq;
        self.seq += 1;
        now
    }

    /// All spans, in open order.
    #[must_use]
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// All instantaneous events, in firing order.
    #[must_use]
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Number of spans whose name starts with `prefix`.
    #[must_use]
    pub fn count(&self, prefix: &str) -> usize {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .count()
    }

    /// Whether every opened span has been closed.
    #[must_use]
    pub fn is_balanced(&self) -> bool {
        self.stack.is_empty()
    }

    /// Renders the timeline as Chrome/Perfetto `trace_event` JSON
    /// (load via `chrome://tracing` or <https://ui.perfetto.dev>).
    ///
    /// Spans become complete (`"ph": "X"`) slices and events become
    /// instant (`"ph": "i"`) marks, both timestamped on the sequence
    /// clock (1 tick = 1µs in trace units), interleaved in sequence
    /// order. Wall-clock durations, when recorded, ride along as a
    /// `wall_ns` arg. The output is a pure function of the recorded
    /// spans, so logical-clock recorders export byte-identically
    /// across equal-seed runs.
    #[must_use]
    pub fn to_chrome_json(&self, process_name: &str) -> String {
        let mut lines = Vec::with_capacity(self.spans.len() + self.events.len() + 1);
        lines.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(process_name)
        ));
        // Merge the two seq-sorted streams into one timeline.
        let mut si = 0;
        let mut ei = 0;
        while si < self.spans.len() || ei < self.events.len() {
            let span_next = self
                .spans
                .get(si)
                .is_some_and(|s| self.events.get(ei).is_none_or(|e| s.start_seq <= e.seq));
            if span_next {
                let s = &self.spans[si];
                si += 1;
                let mut args = format!("\"depth\":{}", s.depth);
                if self.clock == SpanClock::Wall {
                    let _ = std::fmt::Write::write_fmt(
                        &mut args,
                        format_args!(",\"wall_ns\":{}", s.wall_ns),
                    );
                }
                for (key, value) in &s.counters {
                    let _ = std::fmt::Write::write_fmt(
                        &mut args,
                        format_args!(",\"{}\":{value}", escape(key)),
                    );
                }
                lines.push(format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                     \"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
                    escape(s.name),
                    s.start_seq,
                    s.end_seq.saturating_sub(s.start_seq).max(1),
                ));
            } else {
                let e = &self.events[ei];
                ei += 1;
                lines.push(format!(
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"pid\":1,\"tid\":1,\
                     \"ts\":{},\"s\":\"p\",\"args\":{{\"value\":{}}}}}",
                    escape(e.name),
                    e.seq,
                    e.value,
                ));
            }
        }
        format!(
            "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
            lines.join(",\n")
        )
    }

    /// Renders the raw span/event records as JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let counters: Vec<String> = s
                    .counters
                    .iter()
                    .map(|(k, v)| format!("\"{}\":{v}", escape(k)))
                    .collect();
                format!(
                    "{{\"name\":\"{}\",\"depth\":{},\"start\":{},\"end\":{},\
                     \"wall_ns\":{},\"counters\":{{{}}}}}",
                    escape(s.name),
                    s.depth,
                    s.start_seq,
                    s.end_seq,
                    s.wall_ns,
                    counters.join(",")
                )
            })
            .collect();
        let events: Vec<String> = self
            .events
            .iter()
            .map(|e| {
                format!(
                    "{{\"name\":\"{}\",\"seq\":{},\"value\":{}}}",
                    escape(e.name),
                    e.seq,
                    e.value
                )
            })
            .collect();
        format!(
            "{{\"spans\":[{}],\"events\":[{}]}}\n",
            spans.join(","),
            events.join(",")
        )
    }

    /// Renders the records as CSV
    /// (`kind,name,depth,start,end,wall_ns,counters`), counters packed
    /// as `key=value` pairs separated by `;`.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,depth,start,end,wall_ns,counters\n");
        for s in &self.spans {
            let counters: Vec<String> =
                s.counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    "span,{},{},{},{},{},{}\n",
                    s.name,
                    s.depth,
                    s.start_seq,
                    s.end_seq,
                    s.wall_ns,
                    counters.join(";")
                ),
            );
        }
        for e in &self.events {
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    "event,{},0,{},{},0,value={}\n",
                    e.name, e.seq, e.seq, e.value
                ),
            );
        }
        out
    }
}

impl SpanRecorder for FlightRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn open(&mut self, name: &'static str) -> SpanId {
        let start_seq = self.tick();
        let parent = self.stack.last().map(|&(i, _)| SpanId(i));
        let depth = self.stack.len() as u16;
        let index = self.spans.len() as u32;
        self.spans.push(SpanRecord {
            name,
            parent,
            depth,
            start_seq,
            end_seq: start_seq,
            wall_ns: 0,
            counters: Vec::new(),
        });
        self.stack.push((index, Instant::now()));
        SpanId(index)
    }

    fn close(&mut self, id: SpanId) {
        let (index, opened) = self.stack.pop().expect("close called with no span open");
        assert_eq!(index, id.0, "spans must close innermost-first (LIFO)");
        let end_seq = self.tick();
        let span = &mut self.spans[index as usize];
        span.end_seq = end_seq;
        if self.clock == SpanClock::Wall {
            span.wall_ns = u64::try_from(opened.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
    }

    fn attach(&mut self, id: SpanId, key: &'static str, value: u64) {
        self.spans[id.0 as usize].counters.push((key, value));
    }

    fn event(&mut self, name: &'static str, value: u64) {
        let seq = self.tick();
        self.events.push(SpanEvent { name, seq, value });
    }
}

/// Escapes a name for embedding in a JSON string (names are static
/// identifiers, but quotes and backslashes are handled defensively).
fn escape(raw: &str) -> String {
    raw.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_inert() {
        let mut noop = NoopSpans;
        assert!(!noop.enabled());
        let id = noop.open("anything");
        noop.attach(id, "k", 1);
        noop.event("e", 2);
        noop.close(id);
    }

    #[test]
    fn spans_nest_and_interleave_with_events() {
        let mut rec = FlightRecorder::logical();
        assert!(rec.enabled());
        let outer = rec.open("outer");
        let inner = rec.open("inner");
        rec.attach(inner, "moves", 5);
        rec.event("mark", 9);
        rec.close(inner);
        rec.close(outer);
        assert!(rec.is_balanced());

        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].depth, 0);
        assert!(spans[0].parent.is_none());
        assert_eq!(spans[1].name, "inner");
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[1].parent, Some(SpanId(0)));
        assert_eq!(spans[1].counters, vec![("moves", 5)]);
        // Sequence clock: outer=[0,4), inner=[1,3), event at 2.
        assert_eq!((spans[0].start_seq, spans[0].end_seq), (0, 4));
        assert_eq!((spans[1].start_seq, spans[1].end_seq), (1, 3));
        assert_eq!(
            rec.events(),
            &[SpanEvent {
                name: "mark",
                seq: 2,
                value: 9
            }]
        );
        // Logical clock records no wall time.
        assert_eq!(spans[0].wall_ns, 0);
        assert_eq!(rec.count("inn"), 1);
        assert_eq!(rec.count(""), 2);
    }

    #[test]
    fn wall_clock_measures_durations() {
        let mut rec = FlightRecorder::wall();
        let id = rec.open("timed");
        std::hint::black_box((0..1000).sum::<u64>());
        rec.close(id);
        // Wall duration is nonzero (Instant is monotonic and the body
        // did work), but the sequence interval is still deterministic.
        assert_eq!((rec.spans()[0].start_seq, rec.spans()[0].end_seq), (0, 1));
    }

    #[test]
    #[should_panic(expected = "LIFO")]
    fn out_of_order_close_panics() {
        let mut rec = FlightRecorder::logical();
        let outer = rec.open("outer");
        let _inner = rec.open("inner");
        rec.close(outer);
    }

    #[test]
    fn chrome_export_is_deterministic_and_ordered() {
        let render = || {
            let mut rec = FlightRecorder::logical();
            let a = rec.open("phase.a");
            rec.attach(a, "n", 3);
            rec.close(a);
            rec.event("incumbent", 41);
            let b = rec.open("phase.b");
            rec.close(b);
            rec.to_chrome_json("ocd test")
        };
        let json = render();
        assert_eq!(json, render(), "equal recordings render identically");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("],\"displayTimeUnit\":\"ms\"}"));
        // Timeline order: metadata, phase.a, incumbent, phase.b.
        let a_pos = json.find("phase.a").unwrap();
        let inc_pos = json.find("incumbent").unwrap();
        let b_pos = json.find("phase.b").unwrap();
        assert!(a_pos < inc_pos && inc_pos < b_pos, "{json}");
        assert!(json.contains("\"n\":3"), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ph\":\"i\""), "{json}");
        // Logical clock omits wall_ns from chrome args.
        assert!(!json.contains("wall_ns"), "{json}");
    }

    #[test]
    fn wall_export_carries_wall_ns_arg() {
        let mut rec = FlightRecorder::wall();
        let id = rec.open("timed");
        rec.close(id);
        assert!(rec.to_chrome_json("t").contains("\"wall_ns\":"));
    }

    #[test]
    fn json_and_csv_exports_roundtrip_shape() {
        let mut rec = FlightRecorder::logical();
        let id = rec.open("s");
        rec.attach(id, "k", 7);
        rec.close(id);
        rec.event("e", 1);
        let json = rec.to_json();
        assert!(json.contains("\"spans\":[{\"name\":\"s\""), "{json}");
        assert!(json.contains("\"counters\":{\"k\":7}"), "{json}");
        assert!(json.contains("\"events\":[{\"name\":\"e\""), "{json}");
        let csv = rec.to_csv();
        assert!(csv.starts_with("kind,name,depth,start,end,wall_ns,counters\n"));
        assert!(csv.contains("span,s,0,0,1,0,k=7\n"), "{csv}");
        assert!(csv.contains("event,e,0,2,2,0,value=1\n"), "{csv}");
    }
}
