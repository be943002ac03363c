//! The harness's own spans: one per call across a layer boundary, kept in
//! memory and written as Chrome-trace JSON when the traced run ends. Spans
//! inside `crates/` are a later issue; everything here is recorded from
//! outside, around public calls.

use crate::stats::quote;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Index of a recorded span (what children name as their parent).
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Spans of one request share this id; set-up spans carry none.
    pub request_id: Option<u64>,
    /// `true` when the interval is a duration the callee returned (or a
    /// sibling re-timing of an opaque parent's child), placed inside its
    /// parent by the harness rather than observed at that position.
    pub placed: bool,
}

/// Span recorder. Disabled (the untraced run) it records nothing and costs
/// one branch per call.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    fn push(&self, span: Span) -> Option<SpanId> {
        let spans = self.spans.as_ref()?;
        let mut spans = spans.lock().expect("no span recorder panics mid-push");
        spans.push(span);
        Some(spans.len() - 1)
    }

    fn offset(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records an observed interval `[start, start + dur]`.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        dur: Duration,
        parent: Option<SpanId>,
        request_id: Option<u64>,
    ) -> Option<SpanId> {
        self.push(Span {
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(start + dur),
            parent,
            request_id,
            placed: false,
        })
    }

    /// Records a child known only by its duration, laid `offset` into its
    /// parent's interval (nothing for a zero duration: the child did not run).
    pub fn place(
        &self,
        name: &'static str,
        parent_start: Instant,
        offset: Duration,
        dur: Duration,
        parent: Option<SpanId>,
        request_id: Option<u64>,
    ) {
        if dur.is_zero() {
            return;
        }
        let start = parent_start + offset;
        self.push(Span {
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(start + dur),
            parent,
            request_id,
            placed: true,
        });
    }

    /// Opens a span whose end is not known yet, so that children recorded
    /// meanwhile can name it; [`Tracer::close`] ends it.
    pub fn open(&self, name: &'static str, start: Instant) -> Option<SpanId> {
        self.record(name, start, Duration::ZERO, None, None)
    }

    pub fn close(&self, id: Option<SpanId>, end: Instant) {
        if let (Some(spans), Some(id)) = (&self.spans, id) {
            spans.lock().expect("span recorder lock")[id].end_ns = self.offset(end);
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .as_ref()
            .map(|s| s.lock().expect("span recorder lock").clone())
            .unwrap_or_default()
    }
}

/// A span's self time: its duration minus the part of it that its direct
/// children cover (children overlapping each other are counted once).
pub fn self_time_ns(spans: &[Span], id: SpanId) -> u64 {
    let parent = &spans[id];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(start, end)| end > start)
        .collect();
    children.sort_unstable();
    let (mut covered, mut cursor) = (0u64, parent.start_ns);
    for (start, end) in children {
        let start = start.max(cursor);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    (parent.end_ns - parent.start_ns).saturating_sub(covered)
}

/// Chrome-trace JSON (`chrome://tracing`, <https://ui.perfetto.dev>): one
/// complete (`ph: "X"`) event per span, set-up on track 0 and each request
/// on track `1 + request_id % 8`.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let tid = s.request_id.map_or(0, |r| 1 + r % 8);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s.request_id.map_or("null".to_string(), |r| r.to_string());
            format!(
                "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {tid}, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"id\": {id}, \"parent\": {parent}, \"request_id\": {request}, \
                 \"self_ns\": {}, \"placed\": {}}}}}",
                quote(s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                self_time_ns(spans, id),
                s.placed,
            )
        })
        .collect();
    format!(
        "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n{}\n]}}\n",
        events.join(",\n")
    )
}
