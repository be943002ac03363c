//! The telemetry engine: structured spans, Chrome-trace export, latency
//! histograms and a unified metrics registry.
//!
//! A fact is counted once, by the layer that observes it, in one of this
//! module's cells; a stats struct is a snapshot of cells, never a second
//! accumulator (`DESIGN.md` §1, "Who counts what"):
//!
//! - **Spans** ([`SpanEvent`] / [`TraceSink`]): a view drawn from records
//!   the layers keep anyway. The executor records nothing but its
//!   [`TimingBreakdown`](crate::TimingBreakdown) — per instruction the
//!   worker, the start (as an offset from the run's barrier), the span, the
//!   queue wait and the steal victim — and a caller that opts in with a
//!   [`TraceSink`] draws one instruction span per entry of that report, on
//!   one track per worker, after the run. Tracing is **off by default**,
//!   and the executor's hot path is the same either way.
//! - **Chrome trace export** ([`Trace::to_chrome_json`]): a finished trace
//!   serializes to the Chrome/Perfetto `traceEvents` JSON format (`ph:"X"`
//!   duration events, one track per worker), loadable in `chrome://tracing`
//!   or <https://ui.perfetto.dev>.
//! - **Latency histograms** ([`Histogram`]): fixed-footprint log-bucketed
//!   histograms with mergeable buckets and p50/p95/p99/max readouts; the
//!   serving engine records per-request wall and queue-wait latency, and
//!   per-batch linger and lane occupancy, into the ones of its one
//!   accumulator, a [`ServingStats`](crate::ServingStats) that
//!   `ServingEngine::stats` clones.
//! - **Metrics registry** ([`MetricsRegistry`] / [`Counter`] / [`Gauge`]):
//!   named handles with a Prometheus-style text exposition
//!   ([`MetricsRegistry::render_text`]): the one export surface of a
//!   session's counters (requests, encryptions, dataflow steals, arena
//!   fresh/reuse, NTT transforms, Galois keys) and the one count of each
//!   request outcome: the [`ResilienceStats`](crate::ResilienceStats) cells
//!   every engine of the session bumps.
//!
//! Trace capture never perturbs results: spans only *observe* timings, and
//! the executors' outputs are bit-identical at every worker count and steal
//! order by construction, so a traced run decrypts to exactly the bytes an
//! untraced run does.

use crate::exec::lock;
use serde_json::Value;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Linear sub-buckets per power of two: 2^5 = 32, bounding the relative
/// quantization error of a recorded value at 1/32 (about 3%).
const SUB_BITS: u32 = 5;
/// Number of linear sub-buckets per power of two.
const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` nanosecond range.
const BUCKET_COUNT: usize = ((64 - SUB_BITS as usize) + 1) << SUB_BITS;

/// The bucket index of a nanosecond value (log-linear: values below
/// [`SUB_BUCKETS`] map exactly, larger values keep [`SUB_BITS`] bits of
/// mantissa).
fn bucket_of(value: u64) -> usize {
    if value < SUB_BUCKETS {
        value as usize
    } else {
        let top = 63 - value.leading_zeros();
        let shift = top - SUB_BITS;
        let sub = (value >> shift) as usize & (SUB_BUCKETS as usize - 1);
        ((shift as usize + 1) << SUB_BITS) + sub
    }
}

/// The smallest nanosecond value a bucket covers (the representative value
/// reported by [`Histogram::percentile`] — percentiles therefore
/// under-report by at most the 1/32 bucket width).
fn bucket_floor(index: usize) -> u64 {
    if index < SUB_BUCKETS as usize {
        index as u64
    } else {
        let shift = (index >> SUB_BITS) as u32 - 1;
        let sub = (index & (SUB_BUCKETS as usize - 1)) as u64;
        (SUB_BUCKETS + sub) << shift
    }
}

/// A fixed-footprint log-bucketed latency histogram.
///
/// Values (durations, recorded at nanosecond resolution) land in log-linear
/// buckets: 32 linear sub-buckets per power of two, so any recorded value is
/// represented with at most ~3% quantization error while the whole structure
/// stays a flat 15 KiB regardless of sample count. Histograms merge by
/// bucket-wise addition ([`Histogram::merge`]), so per-worker instances can
/// be combined without losing percentile fidelity.
///
/// All readouts are guarded: an empty histogram reports `None` percentiles
/// and max rather than `NaN` or garbage.
///
/// ```
/// use chehab_runtime::Histogram;
/// use std::time::Duration;
///
/// let mut h = Histogram::new();
/// for ms in 1..=100u64 {
///     h.record(Duration::from_millis(ms));
/// }
/// assert_eq!(h.count(), 100);
/// let p50 = h.percentile(0.50).unwrap();
/// assert!(p50 >= Duration::from_millis(48) && p50 <= Duration::from_millis(52));
/// assert_eq!(h.max(), Some(Duration::from_millis(100)));
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u128,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; BUCKET_COUNT],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one duration sample.
    pub fn record(&mut self, sample: Duration) {
        self.record_nanos(u64::try_from(sample.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records one raw nanosecond sample.
    pub fn record_nanos(&mut self, nanos: u64) {
        self.buckets[bucket_of(nanos)] += 1;
        self.count += 1;
        self.sum_ns += u128::from(nanos);
        self.max_ns = self.max_ns.max(nanos);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The exact maximum recorded sample, `None` when empty.
    pub fn max(&self) -> Option<Duration> {
        (self.count > 0).then(|| Duration::from_nanos(self.max_ns))
    }

    /// The mean of the recorded samples, `None` when empty (never `NaN`).
    pub fn mean(&self) -> Option<Duration> {
        (self.count > 0).then(|| {
            let mean = self.sum_ns / u128::from(self.count);
            Duration::from_nanos(u64::try_from(mean).unwrap_or(u64::MAX))
        })
    }

    /// The `pct`-percentile (`0.0..=1.0`, clamped) of the recorded samples,
    /// `None` when empty. The returned value is the lower bound of the
    /// bucket holding the ranked sample, capped at the exact recorded
    /// maximum — so `percentile(1.0)` never exceeds [`Histogram::max`].
    pub fn percentile(&self, pct: f64) -> Option<Duration> {
        if self.count == 0 {
            return None;
        }
        let pct = pct.clamp(0.0, 1.0);
        // Nearest-rank on the ranked sample index.
        let rank = ((self.count - 1) as f64 * pct).round() as u64;
        let mut seen = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if bucket > 0 && seen > rank {
                return Some(Duration::from_nanos(bucket_floor(index).min(self.max_ns)));
            }
        }
        // Unreachable while `count` equals the bucket sum; stay safe anyway.
        Some(Duration::from_nanos(self.max_ns))
    }

    /// Median latency (`percentile(0.50)`).
    pub fn p50(&self) -> Option<Duration> {
        self.percentile(0.50)
    }

    /// 95th-percentile latency.
    pub fn p95(&self) -> Option<Duration> {
        self.percentile(0.95)
    }

    /// 99th-percentile latency.
    pub fn p99(&self) -> Option<Duration> {
        self.percentile(0.99)
    }

    /// Adds every sample of `other` into this histogram (bucket-wise, so
    /// merged percentiles are exactly what a single histogram recording both
    /// sample streams would report).
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// A monotonically increasing metric handle (cloned handles share one
/// underlying cell). Obtained from [`MetricsRegistry::counter`]; the
/// `Default` counter is a private cell no registry exports.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: std::sync::Arc<AtomicU64>,
}

impl Counter {
    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Overwrites the value — for counters that *mirror* a source of truth
    /// below this crate (the arena-pool and NTT counts of `chehab-fhe`,
    /// synced into the registry when it is read) rather than being
    /// incremented directly.
    pub fn store(&self, value: u64) {
        self.cell.store(value, Ordering::Relaxed);
    }
}

/// A named metric handle for values that go up and down (stored as `f64`).
/// Obtained from [`MetricsRegistry::gauge`].
#[derive(Debug, Clone)]
pub struct Gauge {
    bits: std::sync::Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// The kind of a registered metric, driving the `# TYPE` exposition line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricKind {
    Counter,
    Gauge,
}

#[derive(Debug)]
struct MetricEntry {
    name: String,
    help: String,
    kind: MetricKind,
    cell: std::sync::Arc<AtomicU64>,
}

/// A registry of named [`Counter`]/[`Gauge`] handles with a Prometheus-style
/// text exposition.
///
/// Registration is idempotent: asking for an already-registered name returns
/// a handle onto the same cell, so independent layers can share a metric by
/// name without threading handles through every signature.
///
/// ```
/// use chehab_runtime::MetricsRegistry;
///
/// let registry = MetricsRegistry::new();
/// let served = registry.counter("requests_served_total", "Requests served");
/// served.add(3);
/// let text = registry.render_text();
/// assert!(text.contains("# TYPE requests_served_total counter"));
/// assert!(text.contains("requests_served_total 3"));
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<MetricEntry>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn cell_of(&self, name: &str, help: &str, kind: MetricKind) -> std::sync::Arc<AtomicU64> {
        let mut entries = lock(&self.entries);
        if let Some(entry) = entries.iter().find(|e| e.name == name) {
            assert_eq!(
                entry.kind, kind,
                "metric {name:?} registered with conflicting kinds"
            );
            return std::sync::Arc::clone(&entry.cell);
        }
        let cell = std::sync::Arc::new(AtomicU64::new(0));
        entries.push(MetricEntry {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            cell: std::sync::Arc::clone(&cell),
        });
        cell
    }

    /// Registers (or re-fetches) a counter by name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a gauge.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        Counter {
            cell: self.cell_of(name, help, MetricKind::Counter),
        }
    }

    /// Registers (or re-fetches) a gauge by name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a counter.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let gauge = Gauge {
            bits: self.cell_of(name, help, MetricKind::Gauge),
        };
        // A fresh cell holds integer 0, which is also `f64::from_bits(0)` =
        // 0.0 — no fix-up needed.
        gauge
    }

    /// The current value of a registered series (a counter's count as
    /// `f64`), `None` for a name nobody registered. Unlike
    /// [`MetricsRegistry::counter`] / [`MetricsRegistry::gauge`], reading
    /// never registers: a misspelt name cannot conjure a zero series.
    pub fn value(&self, name: &str) -> Option<f64> {
        let entries = lock(&self.entries);
        let entry = entries.iter().find(|e| e.name == name)?;
        let raw = entry.cell.load(Ordering::Relaxed);
        Some(match entry.kind {
            MetricKind::Counter => raw as f64,
            MetricKind::Gauge => f64::from_bits(raw),
        })
    }

    /// Renders every registered metric in the Prometheus text exposition
    /// format (`# HELP` / `# TYPE` preamble plus one `name value` sample
    /// line), sorted by metric name for deterministic output.
    pub fn render_text(&self) -> String {
        let entries = lock(&self.entries);
        let mut sorted: Vec<&MetricEntry> = entries.iter().collect();
        sorted.sort_by(|a, b| a.name.cmp(&b.name));
        let mut out = String::new();
        for entry in sorted {
            out.push_str("# HELP ");
            out.push_str(&entry.name);
            out.push(' ');
            out.push_str(&entry.help);
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(&entry.name);
            out.push(' ');
            out.push_str(match entry.kind {
                MetricKind::Counter => "counter",
                MetricKind::Gauge => "gauge",
            });
            out.push('\n');
            out.push_str(&entry.name);
            out.push(' ');
            match entry.kind {
                MetricKind::Counter => {
                    out.push_str(&entry.cell.load(Ordering::Relaxed).to_string());
                }
                MetricKind::Gauge => {
                    let value = f64::from_bits(entry.cell.load(Ordering::Relaxed));
                    out.push_str(&format!("{value}"));
                }
            }
            out.push('\n');
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Spans and traces
// ---------------------------------------------------------------------------

/// One recorded duration span: an instruction, a session phase, or a served
/// request, stamped with its track and scheduler context.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Short operation label (e.g. `"mul"`, `"rot"`, `"bind"`, `"request"`).
    pub name: &'static str,
    /// Event category (`"instr"`, `"session"`, `"request"`), exported as the
    /// Chrome-trace `cat` field.
    pub cat: &'static str,
    /// The track (Chrome-trace `tid`) the span belongs to — one per worker,
    /// allocated by [`TraceSink::allocate_track`], so spans on one track are
    /// what one thread ran, one after the other, and never overlap.
    pub track: usize,
    /// Span start, in nanoseconds since the sink's epoch.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Index into the schedule's instruction list, for instruction spans.
    pub instr: Option<usize>,
    /// Time the work item waited between becoming ready and starting.
    pub queue_wait_ns: Option<u64>,
    /// For dataflow instruction spans that were stolen: the scheduler-local
    /// index of the worker whose deque the instruction was taken from.
    pub stolen_from: Option<usize>,
}

/// The shared collection point of a traced capture: spans are pushed into
/// it, and [`TraceSink::into_trace`] yields the finished [`Trace`].
///
/// A sink carries the capture's epoch (the zero point of every span
/// timestamp) and allocates one track per timeline: a session's phases, an
/// executor worker's instructions, a serving worker's requests.
#[derive(Debug)]
pub struct TraceSink {
    epoch: Instant,
    next_track: AtomicUsize,
    shared: Mutex<TraceShared>,
}

#[derive(Debug, Default)]
struct TraceShared {
    events: Vec<SpanEvent>,
    /// Track labels indexed by track id (exported as Chrome-trace thread
    /// names).
    tracks: Vec<String>,
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::new()
    }
}

impl TraceSink {
    /// A fresh sink whose epoch is *now*.
    pub fn new() -> Self {
        TraceSink {
            epoch: Instant::now(),
            next_track: AtomicUsize::new(0),
            shared: Mutex::new(TraceShared::default()),
        }
    }

    /// Nanoseconds from the sink's epoch to `at` (zero for instants that
    /// precede the epoch).
    pub fn offset_ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Allocates the next track id and registers its display label.
    pub fn allocate_track(&self, label: impl Into<String>) -> usize {
        let track = self.next_track.fetch_add(1, Ordering::Relaxed);
        let mut shared = lock(&self.shared);
        if shared.tracks.len() <= track {
            shared.tracks.resize(track + 1, String::new());
        }
        shared.tracks[track] = label.into();
        track
    }

    /// Appends one span.
    pub fn push(&self, event: SpanEvent) {
        lock(&self.shared).events.push(event);
    }

    /// Finishes the capture: returns the collected spans sorted by track and
    /// start time.
    pub fn into_trace(self) -> Trace {
        let shared = self
            .shared
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut events = shared.events;
        events.sort_by_key(|e| (e.track, e.start_ns));
        Trace {
            events,
            tracks: shared.tracks,
        }
    }
}

/// A finished span capture, ready for inspection or Chrome-trace export.
#[derive(Debug, Clone)]
pub struct Trace {
    events: Vec<SpanEvent>,
    tracks: Vec<String>,
}

impl Trace {
    /// The recorded spans, sorted by `(track, start_ns)`.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// The registered track labels, indexed by track id.
    pub fn track_labels(&self) -> &[String] {
        &self.tracks
    }

    /// Serializes the trace to the Chrome/Perfetto JSON event format: a
    /// `traceEvents` array of `ph:"X"` (complete duration) events with one
    /// `tid` (track) per worker, timestamps in microseconds since the
    /// capture epoch, plus `ph:"M"` metadata events naming each track. The
    /// output loads directly in `chrome://tracing` and
    /// <https://ui.perfetto.dev>.
    pub fn to_chrome_json(&self) -> String {
        let mut events: Vec<Value> = Vec::with_capacity(self.events.len() + self.tracks.len());
        for (track, label) in self.tracks.iter().enumerate() {
            events.push(Value::Object(vec![
                ("name".into(), Value::Str("thread_name".into())),
                ("ph".into(), Value::Str("M".into())),
                ("pid".into(), Value::UInt(1)),
                ("tid".into(), Value::UInt(track as u64)),
                (
                    "args".into(),
                    Value::Object(vec![("name".into(), Value::Str(label.clone()))]),
                ),
            ]));
        }
        for event in &self.events {
            let mut args: Vec<(String, Value)> = Vec::new();
            if let Some(instr) = event.instr {
                args.push(("instr".into(), Value::UInt(instr as u64)));
            }
            if let Some(wait) = event.queue_wait_ns {
                args.push(("queue_wait_us".into(), Value::Float(wait as f64 / 1_000.0)));
            }
            if let Some(victim) = event.stolen_from {
                args.push(("stolen_from".into(), Value::UInt(victim as u64)));
            }
            events.push(Value::Object(vec![
                ("name".into(), Value::Str(event.name.into())),
                ("cat".into(), Value::Str(event.cat.into())),
                ("ph".into(), Value::Str("X".into())),
                ("pid".into(), Value::UInt(1)),
                ("tid".into(), Value::UInt(event.track as u64)),
                ("ts".into(), Value::Float(event.start_ns as f64 / 1_000.0)),
                ("dur".into(), Value::Float(event.dur_ns as f64 / 1_000.0)),
                ("args".into(), Value::Object(args)),
            ]));
        }
        let document = Value::Object(vec![
            ("traceEvents".into(), Value::Array(events)),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
        ]);
        serde_json::to_string_pretty(&document)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_boundaries_are_exact_below_the_linear_range() {
        // Values below 32ns map to their own bucket: floor(bucket(v)) == v.
        for v in 0..SUB_BUCKETS {
            assert_eq!(bucket_floor(bucket_of(v)), v, "value {v}");
        }
        // Larger values land in a bucket whose floor is within 1/32 below.
        for v in [
            32u64,
            33,
            63,
            64,
            1_000,
            1_000_000,
            123_456_789,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let floor = bucket_floor(bucket_of(v));
            assert!(floor <= v, "floor {floor} above value {v}");
            assert!(
                v - floor <= v / SUB_BUCKETS,
                "value {v} quantized too coarsely (floor {floor})"
            );
        }
        // Bucket floors are monotone, so cumulative ranking is well ordered.
        let floors: Vec<u64> = (0..BUCKET_COUNT).map(bucket_floor).collect();
        assert!(floors.windows(2).all(|w| w[0] < w[1] || w[0] == 0));
    }

    #[test]
    fn histogram_percentiles_are_guarded_and_accurate() {
        let empty = Histogram::new();
        assert_eq!(empty.percentile(0.5), None);
        assert_eq!(empty.max(), None);
        assert_eq!(empty.mean(), None);
        assert!(empty.is_empty());

        let mut h = Histogram::new();
        for ms in 1..=1000u64 {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), Some(Duration::from_millis(1000)));
        let expect_within = |got: Duration, want_ms: u64| {
            let want = Duration::from_millis(want_ms);
            let slack = want / 16; // two bucket widths of headroom
            assert!(
                got >= want.saturating_sub(slack) && got <= want + slack,
                "got {got:?}, wanted ~{want:?}"
            );
        };
        expect_within(h.p50().unwrap(), 500);
        expect_within(h.p95().unwrap(), 950);
        expect_within(h.p99().unwrap(), 990);
        // Clamped percentile arguments and the extremes stay in range.
        assert!(h.percentile(-1.0).unwrap() >= Duration::from_micros(990));
        assert_eq!(h.percentile(2.0), h.percentile(1.0));
        assert!(h.percentile(1.0).unwrap() <= h.max().unwrap());
        expect_within(h.mean().unwrap(), 500);
    }

    #[test]
    fn histogram_merge_matches_recording_both_streams() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut combined = Histogram::new();
        for i in 0..500u64 {
            let short = Duration::from_micros(10 + i);
            let long = Duration::from_millis(5 + i);
            a.record(short);
            b.record(long);
            combined.record(short);
            combined.record(long);
        }
        a.merge(&b);
        assert_eq!(a.count(), combined.count());
        assert_eq!(a.max(), combined.max());
        for pct in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(a.percentile(pct), combined.percentile(pct), "pct {pct}");
        }
    }

    #[test]
    fn registry_renders_prometheus_text_and_dedupes_names() {
        let registry = MetricsRegistry::new();
        let steals = registry.counter("steals_total", "Work-stealing pops");
        steals.add(7);
        // Re-registering returns a handle onto the same cell.
        let again = registry.counter("steals_total", "ignored duplicate help");
        again.inc();
        assert_eq!(steals.get(), 8);
        let depth = registry.gauge("queue_depth", "Requests queued");
        depth.set(2.5);
        assert!((depth.get() - 2.5).abs() < f64::EPSILON);

        let text = registry.render_text();
        assert!(text.contains("# HELP steals_total Work-stealing pops"));
        assert!(text.contains("# TYPE steals_total counter"));
        assert!(text.contains("steals_total 8"));
        assert!(text.contains("# TYPE queue_depth gauge"));
        assert!(text.contains("queue_depth 2.5"));
        // Deterministic ordering: gauge name sorts before the counter.
        assert!(text.find("queue_depth").unwrap() < text.find("steals_total").unwrap());
    }

    #[test]
    fn reading_a_value_never_registers_a_series() {
        let registry = MetricsRegistry::new();
        registry
            .counter("steals_total", "Work-stealing pops")
            .add(3);
        registry.gauge("queue_depth", "Requests queued").set(2.5);
        let before = registry.render_text();
        assert_eq!(registry.value("steals_total"), Some(3.0));
        assert_eq!(registry.value("queue_depth"), Some(2.5));
        assert_eq!(registry.value("nope"), None);
        assert_eq!(registry.render_text(), before);
    }

    #[test]
    #[should_panic(expected = "conflicting kinds")]
    fn registry_rejects_kind_conflicts() {
        let registry = MetricsRegistry::new();
        registry.counter("x", "a counter");
        registry.gauge("x", "now a gauge");
    }

    #[test]
    fn trace_sink_collects_sorted_spans_and_exports_chrome_json() {
        let sink = TraceSink::new();
        let track = sink.allocate_track("worker-0");
        // Pushed out of order: the finished trace sorts by start.
        for (name, start_ns, dur_ns, instr) in [("add", 200_000, 10_000, 4), ("mul", 0, 120_000, 3)]
        {
            sink.push(SpanEvent {
                name,
                cat: "instr",
                track,
                start_ns,
                dur_ns,
                instr: Some(instr),
                queue_wait_ns: Some(4_000),
                stolen_from: (instr == 3).then_some(1),
            });
        }
        let trace = sink.into_trace();
        assert_eq!(trace.events().len(), 2);
        assert_eq!(trace.track_labels(), &["worker-0".to_string()]);
        assert_eq!(trace.events()[0].name, "mul");

        let json = trace.to_chrome_json();
        let value: Value = serde_json::from_str(&json).expect("export is valid JSON");
        let events = value
            .field("traceEvents")
            .expect("traceEvents array present");
        let Value::Array(events) = events else {
            panic!("traceEvents is an array")
        };
        // One metadata event plus the two spans.
        assert_eq!(events.len(), 3);
        let phases: Vec<String> = events
            .iter()
            .map(|e| match e.field("ph") {
                Ok(Value::Str(s)) => s.clone(),
                other => panic!("ph field missing: {other:?}"),
            })
            .collect();
        assert_eq!(phases, ["M", "X", "X"]);
    }
}
