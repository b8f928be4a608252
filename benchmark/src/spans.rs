//! Benchmark-side spans: one per call into a layer's public functions.
//!
//! Spans live in memory and are written once, when the run ends, as a
//! Chrome `trace_event` file. Nothing inside the program under test is
//! instrumented; every span is opened and closed by the benchmark around
//! a public call.

use std::time::{Duration, Instant};

use skymr_mapreduce::telemetry::export::chrome_trace;
use skymr_mapreduce::telemetry::{ArgValue, EventKind, TraceDocument, TraceEvent};

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span. Times are offsets from the recorder's start.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.bitstring.job`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Operation number; spans of one operation share it.
    pub op: u64,
    /// Start offset.
    pub start: Duration,
    /// End offset (`>= start`).
    pub end: Duration,
}

impl Span {
    /// The span's duration.
    pub fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span store for one benchmark process.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Offset of the present moment from the recorder's start.
    pub fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Stores a span with explicit bounds.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        start: Duration,
        end: Duration,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            op,
            start,
            end: end.max(start),
        });
        self.spans.len() - 1
    }

    /// Opens a span now; [`close`](Self::close) sets its end.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
        let now = self.now();
        self.record(name, parent, op, now, now)
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: SpanId) {
        let now = self.now();
        if let Some(span) = self.spans.get_mut(id) {
            span.end = now.max(span.start);
        }
    }

    /// Runs `f` inside a new span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let id = self.open(name, parent, op);
        let value = f();
        self.close(id);
        (value, id)
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `id` (zero for an unknown id).
    pub fn dur(&self, id: SpanId) -> Duration {
        self.spans.get(id).map_or(Duration::ZERO, Span::dur)
    }

    /// The part of span `id`'s interval that its direct children cover:
    /// child intervals are clipped to the parent and overlapping children
    /// are counted once, so the result never exceeds the parent's duration.
    pub fn covered_by_children(&self, id: SpanId) -> Duration {
        let Some(parent) = self.spans.get(id) else {
            return Duration::ZERO;
        };
        let mut intervals: Vec<(Duration, Duration)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
            .filter(|(start, end)| end > start)
            .collect();
        intervals.sort();
        let mut covered = Duration::ZERO;
        let mut reach = parent.start;
        for (start, end) in intervals {
            let from = start.max(reach);
            if end > from {
                covered += end - from;
                reach = end;
            }
        }
        covered
    }

    /// A span's self time: its duration minus the part of that interval its
    /// child spans cover.
    pub fn self_time(&self, id: SpanId) -> Duration {
        self.dur(id).saturating_sub(self.covered_by_children(id))
    }

    /// The spans as a Chrome `trace_event` document, through the telemetry
    /// crate's exporter (open it at `chrome://tracing` or
    /// <https://ui.perfetto.dev>). Times are whole microseconds; each
    /// event carries its span id, its operation number and, unless it is a
    /// root, its parent's id in `args`.
    pub fn chrome_trace(&self) -> String {
        let micros = |d: Duration| u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, span)| {
                let mut args = vec![
                    ("id".to_owned(), ArgValue::U64(id as u64)),
                    ("op".to_owned(), ArgValue::U64(span.op)),
                ];
                if let Some(parent) = span.parent {
                    args.push(("parent".to_owned(), ArgValue::U64(parent as u64)));
                }
                TraceEvent {
                    kind: EventKind::Complete,
                    name: span.name.to_owned(),
                    cat: "bench".to_owned(),
                    pid: 1,
                    tid: 1,
                    ts: micros(span.start),
                    dur: micros(span.dur()),
                    args,
                }
            })
            .collect();
        chrome_trace(&TraceDocument {
            events,
            registries: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skymr_mapreduce::telemetry::json;

    const fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn self_time_is_span_minus_interval_covered_by_children() {
        let mut r = Recorder::new();
        let root = r.record("root", None, 0, ms(0), ms(100));
        r.record("a", Some(root), 0, ms(10), ms(30));
        r.record("b", Some(root), 0, ms(50), ms(90));
        assert_eq!(r.covered_by_children(root), ms(60));
        assert_eq!(r.self_time(root), ms(40));
        // Parts account for the whole.
        assert_eq!(r.self_time(root) + r.covered_by_children(root), r.dur(root));
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let mut r = Recorder::new();
        let root = r.record("root", None, 0, ms(0), ms(100));
        r.record("a", Some(root), 0, ms(10), ms(60));
        r.record("b", Some(root), 0, ms(40), ms(80));
        r.record("inside-a", Some(root), 0, ms(20), ms(30));
        assert_eq!(r.covered_by_children(root), ms(70));
        assert_eq!(r.self_time(root), ms(30));
    }

    #[test]
    fn children_never_exceed_the_parent() {
        let mut r = Recorder::new();
        let root = r.record("root", None, 0, ms(20), ms(50));
        // Starts before and ends after the parent: clipped to it.
        r.record("wide", Some(root), 0, ms(0), ms(500));
        // Entirely outside: contributes nothing.
        r.record("late", Some(root), 0, ms(60), ms(70));
        assert_eq!(r.covered_by_children(root), ms(30));
        assert_eq!(r.self_time(root), Duration::ZERO);
    }

    #[test]
    fn grandchildren_do_not_count_against_the_grandparent() {
        let mut r = Recorder::new();
        let root = r.record("root", None, 0, ms(0), ms(100));
        let child = r.record("child", Some(root), 0, ms(0), ms(40));
        r.record("grandchild", Some(child), 0, ms(10), ms(20));
        assert_eq!(r.self_time(root), ms(60));
        assert_eq!(r.self_time(child), ms(30));
    }

    #[test]
    fn timed_spans_nest_and_export_as_chrome_trace() {
        let mut r = Recorder::new();
        let root = r.open("bench.pipeline", None, 7);
        let ((), child) = r.time("layer.call", Some(root), 7, || {
            std::hint::black_box(());
        });
        r.close(root);
        assert!(r.spans()[child].start >= r.spans()[root].start);
        assert!(r.spans()[child].end <= r.spans()[root].end);

        let doc = json::parse(&r.chrome_trace()).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(json::Value::as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").expect("args");
        assert_eq!(args.get("parent").and_then(json::Value::as_u64), Some(0));
        assert_eq!(args.get("op").and_then(json::Value::as_u64), Some(7));
        assert_eq!(
            events[0].get("name").and_then(json::Value::as_str),
            Some("bench.pipeline")
        );
    }
}
