//! Causal per-event tracing: bounded ring of sampled stage-span trees.
//!
//! A [`Tracer`] decides — from the fleet-global sequence number alone —
//! whether an event is sampled (`seq % sample_every == 0`), hands out a
//! [`TraceBuilder`] for sampled events, and keeps the most recent completed
//! [`Trace`]s in a bounded ring. The sampling gate never takes a lock: an
//! unsampled event costs one `Option` branch plus one modulo. Only trace
//! *completion* (one per `sample_every` events) touches the ring mutex.
//!
//! Because the sampling decision is a pure function of the sequence number,
//! the *set* of sampled events — and, by the workspace determinism
//! contract, each sampled event's stage-span structure — is identical
//! across thread and shard counts. [`TraceSnapshot::deterministic_view`]
//! extracts exactly that scheduling-independent subset (stages, causal
//! parents, annotations; no timing), and `tests/trace_determinism.rs`
//! enforces it. Span timestamps are monotonic nanoseconds since the
//! tracer's epoch and are exempt, as all timing is.
//!
//! [`TraceSnapshot::chrome_trace_json`] exports the ring in the Chrome
//! trace-event format, loadable in `chrome://tracing` / Perfetto.

use crate::journal::FieldValue;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Environment variable holding the sampling period: `DLACEP_TRACE_SAMPLE=N`
/// samples one trace per `N` fleet-global sequence numbers. Unset, `0`, or
/// unparsable disables tracing entirely.
pub const TRACE_SAMPLE_ENV: &str = "DLACEP_TRACE_SAMPLE";

/// Default capacity of the completed-trace ring.
pub const DEFAULT_TRACE_CAPACITY: usize = 512;

/// One completed stage span within a trace: a named pipeline stage with
/// monotonic start/end nanoseconds, an optional causal parent (an index
/// into the owning trace's span list), and ordered annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Stage name, e.g. `"ingest"`, `"mark"`, `"cep"`, `"emit"`.
    pub stage: String,
    /// Index of the parent span within the same trace (`None` for roots).
    pub parent: Option<u32>,
    /// Nanoseconds since the tracer epoch (timing — determinism-exempt).
    pub start_nanos: u64,
    /// End of the span; equals `start_nanos` for instant events.
    pub end_nanos: u64,
    /// Ordered key/value annotations (part of the deterministic view).
    pub fields: Vec<(String, FieldValue)>,
}

impl TraceSpan {
    /// Span duration in nanoseconds (0 for instants / unfinished spans).
    pub fn duration_nanos(&self) -> u64 {
        self.end_nanos.saturating_sub(self.start_nanos)
    }
}

/// A completed trace: every stage span one sampled event passed through,
/// in span-creation order (parents always precede children).
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The fleet-global sequence number of the traced event.
    pub trace_id: u64,
    pub spans: Vec<TraceSpan>,
}

struct Ring {
    traces: VecDeque<Trace>,
    capacity: usize,
    dropped: u64,
}

struct TracerCore {
    epoch: Instant,
    sample_every: u64,
    ring: Mutex<Ring>,
}

/// Cheap cloneable handle on the trace ring; `Tracer::disabled()` handles
/// make every operation a single branch. Share one tracer across the
/// registries of a fleet so trace ids (fleet-global seqs) land in one ring.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<TracerCore>>);

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("sample_every", &self.sample_every())
            .finish()
    }
}

impl Tracer {
    /// A tracer that samples nothing (what disabled registries hold).
    pub fn disabled() -> Self {
        Tracer(None)
    }

    /// A tracer sampling one trace per `sample_every` sequence numbers,
    /// retaining the most recent `capacity` completed traces.
    /// `sample_every == 0` yields a disabled tracer.
    pub fn new(sample_every: u64, capacity: usize) -> Self {
        if sample_every == 0 {
            return Tracer(None);
        }
        Tracer(Some(Arc::new(TracerCore {
            epoch: Instant::now(),
            sample_every,
            ring: Mutex::new(Ring {
                traces: VecDeque::with_capacity(capacity.clamp(1, 4096)),
                capacity: capacity.max(1),
                dropped: 0,
            }),
        })))
    }

    /// Build from [`TRACE_SAMPLE_ENV`]: unset, `0`, or unparsable disables.
    pub fn from_env(capacity: usize) -> Self {
        let sample_every = std::env::var(TRACE_SAMPLE_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(0);
        Tracer::new(sample_every, capacity)
    }

    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The sampling period (0 when disabled).
    pub fn sample_every(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.sample_every)
    }

    /// Whether the event with fleet-global sequence `seq` is sampled. Pure
    /// function of `seq` and the period — identical across threads/shards.
    #[inline]
    pub fn sampled(&self, seq: u64) -> bool {
        match &self.0 {
            Some(core) => seq.is_multiple_of(core.sample_every),
            None => false,
        }
    }

    /// Start a trace for `seq` if it is sampled.
    #[inline]
    pub fn begin(&self, seq: u64) -> Option<TraceBuilder> {
        match &self.0 {
            Some(core) if seq.is_multiple_of(core.sample_every) => Some(TraceBuilder {
                core: Arc::clone(core),
                trace: Trace {
                    trace_id: seq,
                    spans: Vec::with_capacity(8),
                },
            }),
            _ => None,
        }
    }

    /// Monotonic nanoseconds since the tracer epoch (0 when disabled).
    /// Useful for measuring work on pool threads and recording it later
    /// via [`TraceBuilder::span_at`].
    pub fn now_nanos(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| {
            u64::try_from(c.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
    }

    fn push(&self, trace: Trace) {
        if let Some(core) = &self.0 {
            let mut ring = core.ring.lock().unwrap();
            if ring.traces.len() == ring.capacity {
                ring.traces.pop_front();
                ring.dropped += 1;
            }
            ring.traces.push_back(trace);
        }
    }

    /// Copy out the ring of completed traces.
    pub fn snapshot(&self) -> TraceSnapshot {
        match &self.0 {
            None => TraceSnapshot::default(),
            Some(core) => {
                let ring = core.ring.lock().unwrap();
                TraceSnapshot {
                    sample_every: core.sample_every,
                    dropped: ring.dropped,
                    traces: ring.traces.iter().cloned().collect(),
                }
            }
        }
    }
}

/// In-flight trace for one sampled event. Owned single-threaded by the
/// runtime driving the event; spans are appended in creation order and the
/// whole tree lands in the ring atomically on [`TraceBuilder::finish`].
pub struct TraceBuilder {
    core: Arc<TracerCore>,
    trace: Trace,
}

impl TraceBuilder {
    /// The fleet-global sequence number this trace follows.
    pub fn trace_id(&self) -> u64 {
        self.trace.trace_id
    }

    /// Monotonic nanoseconds since the tracer epoch.
    pub fn now_nanos(&self) -> u64 {
        u64::try_from(self.core.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a stage span starting now; returns its index for
    /// [`end`](Self::end) / [`annotate`](Self::annotate) / child linkage.
    pub fn start(&mut self, stage: &str, parent: Option<u32>) -> u32 {
        let now = self.now_nanos();
        self.push_span(stage, parent, now, now)
    }

    /// Close span `idx` now. Idempotent enough for the single-threaded
    /// owner: the last call wins.
    pub fn end(&mut self, idx: u32) {
        let now = self.now_nanos();
        if let Some(span) = self.trace.spans.get_mut(idx as usize) {
            span.end_nanos = now;
        }
    }

    /// Record a completed span with explicit bounds (for work measured on
    /// pool threads via [`Tracer::now_nanos`] and attached after the join).
    pub fn span_at(
        &mut self,
        stage: &str,
        parent: Option<u32>,
        start_nanos: u64,
        end_nanos: u64,
    ) -> u32 {
        self.push_span(stage, parent, start_nanos, end_nanos)
    }

    /// Record a zero-duration instant event (mode flips, retrain verdicts).
    pub fn instant(&mut self, stage: &str, parent: Option<u32>) -> u32 {
        let now = self.now_nanos();
        self.push_span(stage, parent, now, now)
    }

    /// Attach an annotation to span `idx`. Annotations are part of the
    /// deterministic view — only record values that are pure functions of
    /// workload and config.
    pub fn annotate(&mut self, idx: u32, key: &str, value: FieldValue) {
        if let Some(span) = self.trace.spans.get_mut(idx as usize) {
            span.fields.push((key.to_string(), value));
        }
    }

    /// Complete the trace and publish it to the tracer ring.
    pub fn finish(self) {
        let core = Arc::clone(&self.core);
        Tracer(Some(core)).push(self.trace);
    }

    fn push_span(
        &mut self,
        stage: &str,
        parent: Option<u32>,
        start_nanos: u64,
        end_nanos: u64,
    ) -> u32 {
        let idx = self.trace.spans.len() as u32;
        self.trace.spans.push(TraceSpan {
            stage: stage.to_string(),
            parent,
            start_nanos,
            end_nanos,
            fields: Vec::new(),
        });
        idx
    }
}

/// Point-in-time copy of the completed-trace ring.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceSnapshot {
    /// The sampling period the tracer ran with (0 when disabled).
    pub sample_every: u64,
    /// Traces evicted by ring wraparound.
    pub dropped: u64,
    /// Surviving traces, completion order (oldest first).
    pub traces: Vec<Trace>,
}

impl TraceSnapshot {
    /// The scheduling-independent projection: one line per span, traces
    /// sorted by id, spans in creation order, timing stripped. Two runs of
    /// the same workload under different thread / shard counts
    /// must produce byte-identical views (ring eviction aside — size the
    /// ring to the workload when comparing).
    pub fn deterministic_view(&self) -> Vec<String> {
        let mut traces: Vec<&Trace> = self.traces.iter().collect();
        traces.sort_by_key(|t| t.trace_id);
        let mut out = Vec::new();
        for t in traces {
            for span in &t.spans {
                let mut line = format!("{} {}", t.trace_id, span.stage);
                match span.parent {
                    Some(p) => line.push_str(&format!(" parent={p}")),
                    None => line.push_str(" parent=-"),
                }
                for (k, v) in &span.fields {
                    line.push_str(&format!(" {k}={v}"));
                }
                out.push(line);
            }
        }
        out
    }

    /// Export as Chrome trace-event JSON (the `{"traceEvents": [...]}`
    /// object form), loadable in `chrome://tracing` and Perfetto. Each
    /// trace renders as one `tid` row of complete (`ph:"X"`) events;
    /// timestamps are microseconds since the tracer epoch.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for t in &self.traces {
            for (idx, span) in t.spans.iter().enumerate() {
                if !first {
                    out.push(',');
                }
                first = false;
                let ts = span.start_nanos as f64 / 1_000.0;
                let dur = span.duration_nanos() as f64 / 1_000.0;
                out.push_str(&format!(
                    "{{\"name\":{},\"cat\":\"dlacep\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\
                     \"pid\":0,\"tid\":{},\"args\":{{\"span\":{idx}",
                    json_string(&span.stage),
                    t.trace_id,
                ));
                if let Some(p) = span.parent {
                    out.push_str(&format!(",\"parent\":{p}"));
                }
                for (k, v) in &span.fields {
                    out.push_str(&format!(",{}:{}", json_string(k), json_field(v)));
                }
                out.push_str("}}");
            }
        }
        out.push_str("]}");
        out
    }
}

/// Escape a string into a JSON string literal (quotes included). Public so
/// downstream telemetry endpoints can hand-roll JSON without a serializer
/// dependency.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render one journal [`FieldValue`] as a JSON value.
pub fn json_field(v: &FieldValue) -> String {
    match v {
        FieldValue::U64(n) => n.to_string(),
        FieldValue::I64(n) => n.to_string(),
        FieldValue::F64(f) if f.is_finite() => f.to_string(),
        FieldValue::F64(f) => json_string(&f.to_string()),
        FieldValue::Bool(b) => b.to_string(),
        FieldValue::Str(s) => json_string(s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_a_pure_function_of_seq() {
        let t = Tracer::new(10, 16);
        assert!(t.sampled(0));
        assert!(t.sampled(10));
        assert!(!t.sampled(7));
        assert!(t.begin(7).is_none());
        assert!(t.begin(20).is_some());
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        assert!(!t.sampled(0));
        assert!(t.begin(0).is_none());
        assert_eq!(t.now_nanos(), 0);
        assert_eq!(t.snapshot(), TraceSnapshot::default());
        assert!(!Tracer::new(0, 16).is_enabled(), "period 0 disables");
    }

    #[test]
    fn builder_links_spans_and_publishes_on_finish() {
        let t = Tracer::new(1, 16);
        let mut b = t.begin(5).unwrap();
        let root = b.start("ingest", None);
        let mark = b.start("mark", Some(root));
        b.annotate(mark, "path", "f32".into());
        b.end(mark);
        b.end(root);
        assert!(t.snapshot().traces.is_empty(), "unpublished until finish");
        b.finish();
        let snap = t.snapshot();
        assert_eq!(snap.traces.len(), 1);
        let trace = &snap.traces[0];
        assert_eq!(trace.trace_id, 5);
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.spans[1].fields[0].1, FieldValue::Str("f32".into()));
        assert!(trace.spans[0].end_nanos >= trace.spans[0].start_nanos);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_dropped() {
        let t = Tracer::new(1, 2);
        for seq in 0..5u64 {
            t.begin(seq).unwrap().finish();
        }
        let snap = t.snapshot();
        assert_eq!(snap.dropped, 3);
        assert_eq!(
            snap.traces.iter().map(|t| t.trace_id).collect::<Vec<_>>(),
            vec![3, 4]
        );
    }

    #[test]
    fn deterministic_view_sorts_by_id_and_strips_timing() {
        let t = Tracer::new(1, 16);
        for seq in [9u64, 3u64] {
            let mut b = t.begin(seq).unwrap();
            let root = b.start("ingest", None);
            b.annotate(root, "window", 2u64.into());
            b.end(root);
            b.finish();
        }
        assert_eq!(
            t.snapshot().deterministic_view(),
            vec![
                "3 ingest parent=- window=2".to_string(),
                "9 ingest parent=- window=2".to_string(),
            ]
        );
    }

    #[test]
    fn chrome_export_is_wellformed_json() {
        let t = Tracer::new(1, 16);
        let mut b = t.begin(0).unwrap();
        let root = b.start("ingest", None);
        let child = b.start("cep\"quoted", Some(root));
        b.annotate(child, "note", "a\\b\nc".into());
        b.end(child);
        b.end(root);
        b.finish();
        let json = t.snapshot().chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"cep\\\"quoted\""));
        assert!(json.contains("\"a\\\\b\\nc\""));
        // Balanced braces/brackets outside string literals ⇒ parseable
        // shape; exactness is covered by serde_json round-trip in the
        // workspace tests.
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for ch in json.chars() {
            if esc {
                esc = false;
                continue;
            }
            match ch {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }

    #[test]
    fn env_parse_rejects_garbage() {
        // from_env reads the process environment; exercise the parse path
        // through Tracer::new semantics instead of mutating global env.
        assert!(!Tracer::new(0, 8).is_enabled());
        assert!(Tracer::new(1, 8).is_enabled());
        assert_eq!(Tracer::new(3, 8).sample_every(), 3);
    }
}
