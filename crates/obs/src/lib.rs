//! # feam-obs — structured tracing and metrics for the FEAM pipeline
//!
//! The paper's operational claims — target phases under five minutes
//! (§VI.C), accuracy decomposing per determinant (Tables III–IV) — are
//! only auditable with a per-step evidence trail. This crate provides one
//! with zero external dependencies:
//!
//! * **Spans** — nested, monotonically timed regions (`source_phase` →
//!   `bdc` → `bdc.collect_libraries`, …) with parent/child links.
//! * **Traces** — every root span mints a request-scoped trace id; child
//!   spans and events inherit it through the thread-local context, and a
//!   [`TraceCtx`] carries it explicitly across thread hops (worker pools,
//!   coalesced requests) where thread-locals would orphan the tree.
//! * **Events** — point-in-time records (a determinant verdict, a launch
//!   attempt, a library resolution outcome) attached to the current span.
//! * **Metrics** — every enabled recorder writes each counter, gauge,
//!   histogram observation and span duration once into one
//!   [`WindowedRegistry`]. [`Recorder::snapshot`] reads its exact
//!   lifetime totals as a [`TelemetrySnapshot`];
//!   [`Recorder::metrics_snapshot`] reads its sliding windows. A serving
//!   recorder additionally keeps a bounded [`ExemplarStore`] of span
//!   trees for tail-latency outliers.
//! * **Sinks** — where events go: nowhere ([`Recorder::disabled`], the
//!   no-op default threaded through the pipeline at ~zero cost), an
//!   in-memory buffer ([`MemorySink`], for tests and aggregation), or a
//!   JSON-lines file ([`JsonlSink`], the `feam demo --trace` /
//!   `FEAM_TRACE=` output).
//!
//! ## JSONL schema
//!
//! One JSON object per line, in emission order:
//!
//! ```json
//! {"ts_us":12,"kind":"span_start","name":"target_phase","span":1,"parent":null,"trace":1}
//! {"ts_us":90,"kind":"event","name":"determinant","span":2,"parent":2,"trace":1,"fields":{"determinant":"Isa","compatible":true}}
//! {"ts_us":151,"kind":"span_end","name":"target_phase","span":1,"parent":null,"trace":1,"dur_us":139}
//! ```
//!
//! `ts_us` is microseconds since the recorder was created (monotonic).
//! `span` is the event's own span id for span records, or the enclosing
//! span id for instant events. `dur_us` is present on `span_end` only.
//! `trace` groups all records of one request (0 = untraced; readers must
//! treat a missing key as 0 for traces written before the field existed).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub mod exemplar;
pub mod expo;
mod sink;
pub mod slo;
pub mod trace;
pub mod window;

pub use exemplar::{Exemplar, ExemplarStore, ExemplarSummary};
pub use sink::{JsonlSink, MemorySink, NullSink, Sink};
pub use slo::{SloEvaluation, SloKind, SloSpec, SloState};
pub use window::{
    HistStat, MetricsSnapshot, SpanStat, TelemetrySnapshot, WindowSpec, WindowedRegistry,
};

use exemplar::TraceBufs;

/// A field value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    Str(String),
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
}

impl FieldValue {
    pub fn to_json(&self) -> serde_json::Value {
        match self {
            FieldValue::Str(s) => serde::Serialize::to_value(s),
            FieldValue::U64(v) => serde::Serialize::to_value(v),
            FieldValue::I64(v) => serde::Serialize::to_value(v),
            FieldValue::F64(v) => serde::Serialize::to_value(v),
            FieldValue::Bool(v) => serde::Serialize::to_value(v),
        }
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

/// What kind of record an [`Event`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    SpanStart,
    SpanEnd,
    Instant,
}

impl EventKind {
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
            EventKind::Instant => "event",
        }
    }
}

/// One structured record, as delivered to sinks.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Microseconds since the recorder was created (monotonic clock).
    pub ts_us: u64,
    pub kind: EventKind,
    pub name: String,
    /// The event's span id (span records) or enclosing span id (instant
    /// events; 0 when emitted outside any span).
    pub span: u64,
    /// Parent span id, when inside a span.
    pub parent: Option<u64>,
    /// Trace id grouping all records of one request (0 = untraced).
    pub trace: u64,
    /// Span duration in microseconds; `span_end` only.
    pub dur_us: Option<u64>,
    pub fields: Vec<(String, FieldValue)>,
}

impl Event {
    /// The JSONL representation of this event.
    pub fn to_json(&self) -> serde_json::Value {
        let mut fields = serde_json::Map::new();
        for (k, v) in &self.fields {
            fields.insert(k.clone(), v.to_json());
        }
        serde_json::json!({
            "ts_us": self.ts_us,
            "kind": self.kind.as_str(),
            "name": self.name,
            "span": self.span,
            "parent": self.parent,
            "trace": self.trace,
            "dur_us": self.dur_us,
            "fields": serde_json::Value::Object(fields),
        })
    }
}

/// Explicit trace context for crossing thread boundaries.
///
/// The thread-local context makes same-thread nesting automatic; a
/// `TraceCtx` is the hand-off token for everywhere that model breaks:
/// a request enqueued for a worker pool, a waiter coalesced onto another
/// request's evaluation, a phase driven on behalf of a remote caller.
/// `span_id` is the span that children should parent on; `trace_id` is
/// the request-scoped correlation key shared by every record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    pub trace_id: u64,
    pub span_id: u64,
}

impl TraceCtx {
    /// The absent context: no trace, no parent.
    pub const NONE: TraceCtx = TraceCtx {
        trace_id: 0,
        span_id: 0,
    };

    pub fn is_none(&self) -> bool {
        self.trace_id == 0 && self.span_id == 0
    }
}

impl Default for TraceCtx {
    fn default() -> Self {
        TraceCtx::NONE
    }
}

/// The serving-grade telemetry layer: per-trace event buffers and the
/// bounded tail-exemplar store.
struct Serving {
    exemplars: Arc<ExemplarStore>,
    bufs: TraceBufs,
}

struct Inner {
    start: Instant,
    next_id: AtomicU64,
    sink: Box<dyn Sink>,
    registry: Arc<WindowedRegistry>,
    serving: Option<Serving>,
}

thread_local! {
    /// The innermost live (span, trace) pair on this thread (0 = none).
    /// Guards restore the previous pair on drop, so independent recorders
    /// interleave correctly.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Handle to the tracing/metrics layer. Cheap to clone; a disabled
/// recorder (the default) costs one branch per instrumentation point.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .field("serving", &self.exemplars().is_some())
            .finish()
    }
}

impl Recorder {
    /// The no-op recorder: every operation is a cheap early return.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// A recorder delivering events to `sink`, with metrics windowed per
    /// [`WindowSpec::default`].
    pub fn with_sink(sink: Box<dyn Sink>) -> Self {
        Self::build(sink, WindowSpec::default(), None)
    }

    /// A serving-grade recorder: events go to `sink` as usual, metrics
    /// are windowed per `spec`, and the recorder additionally buffers
    /// events per live trace and captures tail exemplars (at most
    /// `exemplar_cap`) via [`Recorder::observe_tail`].
    pub fn serving(sink: Box<dyn Sink>, spec: WindowSpec, exemplar_cap: usize) -> Self {
        Self::build(
            sink,
            spec,
            Some(Serving {
                exemplars: Arc::new(ExemplarStore::new(exemplar_cap)),
                bufs: TraceBufs::default(),
            }),
        )
    }

    fn build(sink: Box<dyn Sink>, spec: WindowSpec, serving: Option<Serving>) -> Self {
        Recorder {
            inner: Some(Arc::new(Inner {
                start: Instant::now(),
                next_id: AtomicU64::new(1),
                sink,
                registry: Arc::new(WindowedRegistry::new(spec)),
                serving,
            })),
        }
    }

    /// A recorder buffering events in memory; returns the buffer handle.
    pub fn memory() -> (Self, Arc<MemorySink>) {
        let sink = Arc::new(MemorySink::default());
        (Self::with_sink(Box::new(sink.clone())), sink)
    }

    /// A recorder appending JSON lines to the file at `path`.
    pub fn jsonl_file(path: &str) -> std::io::Result<Self> {
        Ok(Self::with_sink(Box::new(JsonlSink::create(path)?)))
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The recorder's metrics store (`None` when disabled).
    pub fn registry(&self) -> Option<Arc<WindowedRegistry>> {
        self.inner.as_ref().map(|i| i.registry.clone())
    }

    /// The tail-exemplar store (serving recorders only).
    pub fn exemplars(&self) -> Option<Arc<ExemplarStore>> {
        self.inner
            .as_ref()
            .and_then(|i| i.serving.as_ref())
            .map(|s| s.exemplars.clone())
    }

    fn now_us(inner: &Inner) -> u64 {
        inner.start.elapsed().as_micros() as u64
    }

    /// Milliseconds since the recorder was created (the clock the
    /// windowed registry rotates on).
    pub fn now_ms(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.start.elapsed().as_millis() as u64,
            None => 0,
        }
    }

    fn emit(inner: &Inner, event: Event) {
        inner.sink.record(&event);
        if let Some(s) = &inner.serving {
            if event.trace != 0 {
                s.bufs.push(event);
            }
        }
    }

    /// Mint a fresh trace context (a new trace id whose root span id is
    /// not yet bound to any emitted span). Emits nothing — the fast path
    /// for requests that may never open a span (e.g. cache hits).
    pub fn mint_ctx(&self) -> TraceCtx {
        let Some(inner) = &self.inner else {
            return TraceCtx::NONE;
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        TraceCtx {
            trace_id: id,
            span_id: id,
        }
    }

    /// Open a span; it closes (and is timed) when the guard drops.
    ///
    /// Parent and trace come from the thread-local context. A root span
    /// (no live enclosing span) mints a fresh trace id, so every span
    /// tree belongs to some trace.
    pub fn span(&self, name: &str) -> Span {
        self.span_in(name, None)
    }

    /// Open a span under an explicit [`TraceCtx`] (parent = `ctx.span_id`,
    /// trace = `ctx.trace_id`), or under the thread-local context when
    /// `ctx` is `None`. This is the worker-pool entry point: the first
    /// span a pool thread opens for a request passes the request's
    /// context here, and everything nested below inherits it through the
    /// thread-local.
    pub fn span_in(&self, name: &str, ctx: Option<TraceCtx>) -> Span {
        let Some(inner) = &self.inner else {
            return Span {
                rec: None,
                id: 0,
                trace: 0,
                prev: (0, 0),
                name: String::new(),
                started: None,
            };
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let (cur_span, cur_trace) = CURRENT.with(|c| c.get());
        let (parent, trace) = match ctx {
            Some(c) if !c.is_none() => (
                if c.span_id == 0 {
                    None
                } else {
                    Some(c.span_id)
                },
                c.trace_id,
            ),
            _ => (if cur_span == 0 { None } else { Some(cur_span) }, cur_trace),
        };
        // Root spans start a trace of their own.
        let trace = if trace == 0 { id } else { trace };
        let prev = CURRENT.with(|c| c.replace((id, trace)));
        Self::emit(
            inner,
            Event {
                ts_us: Self::now_us(inner),
                kind: EventKind::SpanStart,
                name: name.to_string(),
                span: id,
                parent,
                trace,
                dur_us: None,
                fields: Vec::new(),
            },
        );
        Span {
            rec: Some(self.clone()),
            id,
            trace,
            prev,
            name: name.to_string(),
            started: Some(Instant::now()),
        }
    }

    /// Emit a `span_start` for `ctx` without touching the thread-local
    /// context. This is for spans whose begin and end happen on different
    /// threads (a service request begins on the caller thread and ends on
    /// the worker that delivers the response); pair with
    /// [`Recorder::span_end_at`].
    pub fn span_begin_at(&self, name: &str, ctx: TraceCtx, parent: Option<TraceCtx>) {
        let Some(inner) = &self.inner else { return };
        if ctx.is_none() {
            return;
        }
        Self::emit(
            inner,
            Event {
                ts_us: Self::now_us(inner),
                kind: EventKind::SpanStart,
                name: name.to_string(),
                span: ctx.span_id,
                parent: parent.filter(|p| !p.is_none()).map(|p| p.span_id),
                trace: ctx.trace_id,
                dur_us: None,
                fields: Vec::new(),
            },
        );
    }

    /// Emit the matching `span_end` for a [`Recorder::span_begin_at`],
    /// folding `dur_us` into the span statistics.
    pub fn span_end_at(&self, name: &str, ctx: TraceCtx, dur_us: u64) {
        let Some(inner) = &self.inner else { return };
        if ctx.is_none() {
            return;
        }
        inner.registry.span(name, dur_us);
        Self::emit(
            inner,
            Event {
                ts_us: Self::now_us(inner),
                kind: EventKind::SpanEnd,
                name: name.to_string(),
                span: ctx.span_id,
                parent: None,
                trace: ctx.trace_id,
                dur_us: Some(dur_us),
                fields: Vec::new(),
            },
        );
    }

    /// Emit an instant event attached to the current span.
    pub fn event(&self, name: &str, fields: &[(&str, FieldValue)]) {
        let Some(inner) = &self.inner else { return };
        let (current, trace) = CURRENT.with(|c| c.get());
        Self::emit(
            inner,
            Event {
                ts_us: Self::now_us(inner),
                kind: EventKind::Instant,
                name: name.to_string(),
                span: current,
                parent: if current == 0 { None } else { Some(current) },
                trace,
                dur_us: None,
                fields: fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            },
        );
    }

    /// Emit an instant event attached to an explicit [`TraceCtx`]
    /// (ignores the thread-local context; safe from any thread).
    pub fn event_at(&self, name: &str, ctx: TraceCtx, fields: &[(&str, FieldValue)]) {
        let Some(inner) = &self.inner else { return };
        Self::emit(
            inner,
            Event {
                ts_us: Self::now_us(inner),
                kind: EventKind::Instant,
                name: name.to_string(),
                span: ctx.span_id,
                parent: if ctx.span_id == 0 {
                    None
                } else {
                    Some(ctx.span_id)
                },
                trace: ctx.trace_id,
                dur_us: None,
                fields: fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            },
        );
    }

    /// Add `delta` to the named counter.
    pub fn count(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            inner
                .registry
                .count(name, delta, Self::now_us(inner) / 1000);
        }
    }

    /// Record one observation into the named histogram.
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner
                .registry
                .observe(name, value, Self::now_us(inner) / 1000);
        }
    }

    /// Set the named gauge to `value`. Gauges appear in
    /// [`Recorder::metrics_snapshot`], not in the lifetime
    /// [`Recorder::snapshot`].
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner
                .registry
                .gauge(name, value, Self::now_us(inner) / 1000);
        }
    }

    /// Record one observation into the named histogram; on a serving
    /// recorder it may also capture a tail exemplar: when the value lands
    /// in the top bucket region of the metric's window (within one log2
    /// bucket of the window max), the trace's buffered span tree is moved
    /// into the exemplar store. Consumes the trace buffer either way on
    /// capture; call [`Recorder::finish_trace`] afterwards to drop the
    /// buffer for non-captured traces.
    pub fn observe_tail(&self, name: &str, value: f64, ctx: TraceCtx) {
        let Some(inner) = &self.inner else { return };
        let now_ms = Self::now_us(inner) / 1000;
        let Some(s) = &inner.serving else {
            inner.registry.observe(name, value, now_ms);
            return;
        };
        let is_tail = inner.registry.observe_tail(name, value, now_ms);
        if is_tail && ctx.trace_id != 0 {
            if let Some(events) = s.bufs.take(ctx.trace_id) {
                if !events.is_empty() {
                    s.exemplars.offer(Exemplar {
                        trace_id: ctx.trace_id,
                        metric: name.to_string(),
                        value,
                        at_ms: now_ms,
                        events,
                    });
                }
            }
        }
    }

    /// Declare a trace finished: its buffered events (if any remain) are
    /// discarded. Idempotent; call after the last [`Recorder::observe_tail`]
    /// for the request.
    pub fn finish_trace(&self, ctx: TraceCtx) {
        if let Some(inner) = &self.inner {
            if let Some(s) = &inner.serving {
                s.bufs.remove(ctx.trace_id);
            }
        }
    }

    /// The lifetime view of the metrics store (span stats, counter
    /// totals, histograms). Empty for a disabled recorder.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        match &self.inner {
            Some(inner) => inner.registry.lifetime(),
            None => TelemetrySnapshot::default(),
        }
    }

    /// A windowed [`MetricsSnapshot`] over the last `window_ms`
    /// milliseconds, with exemplar summaries on a serving recorder.
    /// `None` for a disabled recorder. SLO evaluations are left empty —
    /// callers fill them via [`slo::evaluate_all`].
    pub fn metrics_snapshot(&self, window_ms: u64) -> Option<MetricsSnapshot> {
        let inner = self.inner.as_ref()?;
        let mut snap = inner
            .registry
            .snapshot(Self::now_us(inner) / 1000, window_ms);
        if let Some(s) = &inner.serving {
            snap.exemplars = s
                .exemplars
                .snapshot()
                .iter()
                .map(Exemplar::summary)
                .collect();
        }
        Some(snap)
    }

    /// Flush the sink (meaningful for file sinks).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.sink.flush();
        }
    }
}

/// RAII guard for an open span. Dropping it emits `span_end` with the
/// measured duration and folds the duration into the span statistics.
pub struct Span {
    rec: Option<Recorder>,
    id: u64,
    trace: u64,
    prev: (u64, u64),
    name: String,
    started: Option<Instant>,
}

impl Span {
    /// The span id (0 for a disabled recorder's no-op span).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// This span's context, for handing work to another thread that
    /// should parent on it.
    pub fn ctx(&self) -> TraceCtx {
        TraceCtx {
            trace_id: self.trace,
            span_id: self.id,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(rec) = &self.rec else { return };
        let Some(inner) = &rec.inner else { return };
        CURRENT.with(|c| c.set(self.prev));
        let dur_us = self
            .started
            .map(|t| t.elapsed().as_micros() as u64)
            .unwrap_or(0);
        inner.registry.span(&self.name, dur_us);
        Recorder::emit(
            inner,
            Event {
                ts_us: Recorder::now_us(inner),
                kind: EventKind::SpanEnd,
                name: std::mem::take(&mut self.name),
                span: self.id,
                parent: if self.prev.0 == 0 {
                    None
                } else {
                    Some(self.prev.0)
                },
                trace: self.trace,
                dur_us: Some(dur_us),
                fields: Vec::new(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        {
            let _outer = rec.span("outer");
            rec.event("ev", &[("k", 1u64.into())]);
            rec.count("c", 3);
            rec.observe("h", 1.0);
            rec.gauge("g", 2.0);
        }
        assert!(!rec.is_enabled());
        assert!(rec.snapshot().is_empty());
        assert!(rec.mint_ctx().is_none());
        assert!(rec.registry().is_none());
    }

    #[test]
    fn spans_nest_and_time() {
        let (rec, sink) = Recorder::memory();
        {
            let _outer = rec.span("outer");
            rec.event("marker", &[("x", true.into())]);
            {
                let _inner = rec.span("inner");
            }
        }
        let events = sink.events();
        assert_eq!(events.len(), 5); // start, event, start, end, end
        assert_eq!(events[0].kind, EventKind::SpanStart);
        assert_eq!(events[0].name, "outer");
        assert_eq!(events[0].parent, None);
        assert_eq!(events[1].kind, EventKind::Instant);
        assert_eq!(events[1].span, events[0].span);
        assert_eq!(events[2].name, "inner");
        assert_eq!(events[2].parent, Some(events[0].span));
        assert_eq!(events[3].kind, EventKind::SpanEnd);
        assert_eq!(events[3].name, "inner");
        assert_eq!(events[4].name, "outer");
        // Durations are present and non-negative by type; outer ⊇ inner.
        assert!(events[4].dur_us.unwrap() >= events[3].dur_us.unwrap());

        let snap = rec.snapshot();
        assert_eq!(snap.spans["outer"].count, 1);
        assert_eq!(snap.spans["inner"].count, 1);
    }

    #[test]
    fn root_spans_mint_traces_and_children_inherit() {
        let (rec, sink) = Recorder::memory();
        {
            let _outer = rec.span("outer");
            rec.event("marker", &[]);
            let _inner = rec.span("inner");
        }
        {
            let _second = rec.span("second");
        }
        let events = sink.events();
        let outer_trace = events[0].trace;
        assert_ne!(outer_trace, 0);
        // Everything inside `outer` shares its trace.
        for ev in &events[..5] {
            assert_eq!(ev.trace, outer_trace, "{}", ev.name);
        }
        // A fresh root span gets a fresh trace.
        let second = events.iter().find(|e| e.name == "second").unwrap();
        assert_ne!(second.trace, outer_trace);
        assert_ne!(second.trace, 0);
    }

    #[test]
    fn explicit_ctx_crosses_threads() {
        let (rec, sink) = Recorder::memory();
        let ctx = rec.mint_ctx();
        rec.span_begin_at("request", ctx, None);
        let rec2 = rec.clone();
        std::thread::spawn(move || {
            let eval = rec2.span_in("eval", Some(ctx));
            rec2.event("step", &[]);
            drop(eval);
        })
        .join()
        .unwrap();
        rec.span_end_at("request", ctx, 42);
        let events = sink.events();
        assert_eq!(events.len(), 5);
        for ev in &events {
            assert_eq!(ev.trace, ctx.trace_id, "{}", ev.name);
        }
        let eval_start = events
            .iter()
            .find(|e| e.name == "eval" && e.kind == EventKind::SpanStart)
            .unwrap();
        assert_eq!(eval_start.parent, Some(ctx.span_id));
        let step = events.iter().find(|e| e.name == "step").unwrap();
        assert_eq!(step.span, eval_start.span);
        let end = events
            .iter()
            .find(|e| e.name == "request" && e.kind == EventKind::SpanEnd)
            .unwrap();
        assert_eq!(end.dur_us, Some(42));
        assert_eq!(rec.snapshot().spans["request"].count, 1);
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let (rec, sink) = Recorder::memory();
        {
            let _outer = rec.span("outer");
            {
                let _a = rec.span("a");
            }
            {
                let _b = rec.span("b");
            }
        }
        let events = sink.events();
        let outer_id = events[0].span;
        let a_start = events.iter().find(|e| e.name == "a").unwrap();
        let b_start = events
            .iter()
            .find(|e| e.name == "b" && e.kind == EventKind::SpanStart)
            .unwrap();
        assert_eq!(a_start.parent, Some(outer_id));
        assert_eq!(b_start.parent, Some(outer_id));
    }

    #[test]
    fn counters_and_histograms_snapshot() {
        let (rec, _sink) = Recorder::memory();
        rec.count("attempts", 2);
        rec.count("attempts", 3);
        rec.observe("wait", 1.0);
        rec.observe("wait", 9.0);
        let snap = rec.snapshot();
        assert_eq!(snap.counters["attempts"], 5);
        let h = &snap.histograms["wait"];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 10.0);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 9.0);
    }

    #[test]
    fn serving_recorder_collects_windows_and_exemplars() {
        let rec = Recorder::serving(Box::new(NullSink), WindowSpec::default(), 4);
        let ctx = rec.mint_ctx();
        rec.span_begin_at("svc.request", ctx, None);
        rec.event_at("svc.cache_miss", ctx, &[("layer", "bdc".into())]);
        rec.span_end_at("svc.request", ctx, 1000);
        rec.observe_tail("svc.latency_us", 1000.0, ctx);
        rec.finish_trace(ctx);

        let reg = rec.registry().expect("serving registry");
        let snap = reg.snapshot(rec.now_ms(), 60_000);
        assert_eq!(snap.histograms["svc.latency_us"].count, 1);
        let store = rec.exemplars().expect("exemplar store");
        let exemplars = store.snapshot();
        assert_eq!(exemplars.len(), 1, "first observation is the window max");
        assert_eq!(exemplars[0].trace_id, ctx.trace_id);
        assert!(exemplars[0]
            .events
            .iter()
            .any(|e| e.name == "svc.cache_miss"));
    }

    #[test]
    fn events_serialize_to_jsonl_schema() {
        let (rec, sink) = Recorder::memory();
        {
            let _s = rec.span("phase");
            rec.event(
                "verdict",
                &[("compatible", true.into()), ("n", 4u32.into())],
            );
        }
        let lines: Vec<String> = sink
            .events()
            .iter()
            .map(|e| serde_json::to_string(&e.to_json()).unwrap())
            .collect();
        for line in &lines {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            assert!(v["ts_us"].as_u64().is_some());
            assert!(v["kind"].as_str().is_some());
            assert!(v["trace"].as_u64().is_some());
        }
        let v: serde_json::Value = serde_json::from_str(&lines[1]).unwrap();
        assert_eq!(v["kind"], "event");
        assert_eq!(v["fields"]["compatible"], true);
        assert_eq!(v["fields"]["n"], 4u64);
    }
}
