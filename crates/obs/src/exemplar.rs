//! Tail exemplars: bounded capture of full span trees for requests that
//! land in a histogram's top bucket region.
//!
//! While a trace is live, the serving recorder buffers its events in
//! `TraceBufs` (bounded in both trace count and events per trace).
//! When [`crate::Recorder::observe_tail`] decides an observation is a
//! tail, the buffer is moved into the [`ExemplarStore`] keyed by
//! trace id; otherwise [`crate::Recorder::finish_trace`] discards it.
//! The store itself is bounded: when full, the *smallest-valued*
//! exemplar is evicted first (ties: oldest), so the store converges on
//! the worst outliers seen rather than the most recent ones.

use std::collections::HashMap;
use std::sync::Mutex;

use serde::Serialize;

use crate::trace::span_tree;
use crate::{Event, EventKind, FieldValue};

/// Per-trace event buffers for live requests. Bounded: at most
/// `max_traces` concurrent traces are buffered (later traces are simply
/// not captured — they can still complete, just without exemplar
/// eligibility) and at most `max_events` events are kept per trace.
pub(crate) struct TraceBufs {
    max_traces: usize,
    max_events: usize,
    inner: Mutex<HashMap<u64, Vec<Event>>>,
}

impl Default for TraceBufs {
    fn default() -> Self {
        TraceBufs {
            max_traces: 64,
            max_events: 256,
            inner: Mutex::new(HashMap::new()),
        }
    }
}

impl TraceBufs {
    pub(crate) fn push(&self, event: Event) {
        let mut map = self.inner.lock().unwrap();
        if let Some(buf) = map.get_mut(&event.trace) {
            if buf.len() < self.max_events {
                buf.push(event);
            }
        } else if map.len() < self.max_traces {
            map.insert(event.trace, vec![event]);
        }
    }

    pub(crate) fn take(&self, trace_id: u64) -> Option<Vec<Event>> {
        self.inner.lock().unwrap().remove(&trace_id)
    }

    pub(crate) fn remove(&self, trace_id: u64) {
        self.inner.lock().unwrap().remove(&trace_id);
    }
}

/// One captured tail request: the observed value plus the trace's full
/// event buffer (span tree + instant events).
#[derive(Debug, Clone)]
pub struct Exemplar {
    pub trace_id: u64,
    /// The histogram the tail observation landed in.
    pub metric: String,
    pub value: f64,
    /// Capture time, ms since the recorder was created.
    pub at_ms: u64,
    pub events: Vec<Event>,
}

impl Exemplar {
    /// Span names in start order.
    pub fn span_names(&self) -> Vec<String> {
        span_tree(&self.events)
            .into_iter()
            .map(|s| s.name)
            .collect()
    }

    /// Values of field `key` across all instant events named `name`
    /// (e.g. the chokepoints of `fault_injected` events).
    pub fn event_field_values(&self, name: &str, key: &str) -> Vec<String> {
        self.events
            .iter()
            .filter(|e| e.kind == EventKind::Instant && e.name == name)
            .filter_map(|e| {
                e.fields
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| match v {
                        FieldValue::Str(s) => s.clone(),
                        FieldValue::U64(u) => u.to_string(),
                        FieldValue::I64(i) => i.to_string(),
                        FieldValue::F64(f) => f.to_string(),
                        FieldValue::Bool(b) => b.to_string(),
                    })
            })
            .collect()
    }

    /// The flat summary embedded in a [`crate::MetricsSnapshot`].
    pub fn summary(&self) -> ExemplarSummary {
        ExemplarSummary {
            trace_id: self.trace_id,
            metric: self.metric.clone(),
            value: self.value,
            at_ms: self.at_ms,
            events: self.events.len(),
            spans: self.span_names(),
            faults: self.event_field_values("fault_injected", "chokepoint"),
        }
    }
}

/// Snapshot-friendly exemplar digest: the span tree by name plus any
/// injected-fault chokepoints, without the raw event payload.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExemplarSummary {
    pub trace_id: u64,
    pub metric: String,
    pub value: f64,
    pub at_ms: u64,
    pub events: usize,
    pub spans: Vec<String>,
    pub faults: Vec<String>,
}

struct Stored {
    seq: u64,
    exemplar: Exemplar,
}

struct StoreInner {
    next_seq: u64,
    items: Vec<Stored>,
}

/// Bounded store of the worst tail exemplars observed.
pub struct ExemplarStore {
    cap: usize,
    inner: Mutex<StoreInner>,
}

impl ExemplarStore {
    pub fn new(cap: usize) -> Self {
        ExemplarStore {
            cap: cap.max(1),
            inner: Mutex::new(StoreInner {
                next_seq: 0,
                items: Vec::new(),
            }),
        }
    }

    /// Offer a captured exemplar. A re-capture of a trace already stored
    /// keeps whichever value is larger. When the store is full the
    /// smallest-valued entry (ties: oldest) is evicted, but only if the
    /// newcomer beats it — otherwise the newcomer is dropped.
    pub fn offer(&self, exemplar: Exemplar) {
        let mut s = self.inner.lock().unwrap();
        let seq = s.next_seq;
        s.next_seq += 1;
        if let Some(existing) = s
            .items
            .iter_mut()
            .find(|it| it.exemplar.trace_id == exemplar.trace_id)
        {
            if exemplar.value > existing.exemplar.value {
                existing.exemplar = exemplar;
                existing.seq = seq;
            }
            return;
        }
        if s.items.len() < self.cap {
            s.items.push(Stored { seq, exemplar });
            return;
        }
        let weakest = s
            .items
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.exemplar
                    .value
                    .partial_cmp(&b.exemplar.value)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.seq.cmp(&b.seq))
            })
            .map(|(i, _)| i);
        if let Some(i) = weakest {
            if exemplar.value > s.items[i].exemplar.value {
                s.items[i] = Stored { seq, exemplar };
            }
        }
    }

    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All stored exemplars, largest value first (ties: newest first).
    pub fn snapshot(&self) -> Vec<Exemplar> {
        let s = self.inner.lock().unwrap();
        let mut order: Vec<&Stored> = s.items.iter().collect();
        order.sort_by(|a, b| {
            b.exemplar
                .value
                .partial_cmp(&a.exemplar.value)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.seq.cmp(&a.seq))
        });
        order.into_iter().map(|it| it.exemplar.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ex(trace_id: u64, value: f64) -> Exemplar {
        Exemplar {
            trace_id,
            metric: "svc.latency_us".to_string(),
            value,
            at_ms: 0,
            events: Vec::new(),
        }
    }

    #[test]
    fn eviction_drops_smallest_value_first() {
        let store = ExemplarStore::new(3);
        store.offer(ex(1, 50.0));
        store.offer(ex(2, 10.0));
        store.offer(ex(3, 30.0));
        // Full. 40 > min(10) → trace 2 evicted.
        store.offer(ex(4, 40.0));
        let ids: Vec<u64> = store.snapshot().iter().map(|e| e.trace_id).collect();
        assert_eq!(ids, vec![1, 4, 3]);
        // 5 < every stored value → dropped, store unchanged.
        store.offer(ex(5, 5.0));
        assert_eq!(store.len(), 3);
        assert!(!store.snapshot().iter().any(|e| e.trace_id == 5));
    }

    #[test]
    fn eviction_ties_break_oldest_first() {
        let store = ExemplarStore::new(2);
        store.offer(ex(1, 20.0));
        store.offer(ex(2, 20.0));
        store.offer(ex(3, 25.0));
        let ids: Vec<u64> = store.snapshot().iter().map(|e| e.trace_id).collect();
        // Trace 1 (older of the tied pair) was evicted.
        assert_eq!(ids, vec![3, 2]);
    }

    #[test]
    fn recapture_keeps_larger_value() {
        let store = ExemplarStore::new(2);
        store.offer(ex(1, 20.0));
        store.offer(ex(1, 50.0));
        store.offer(ex(1, 30.0));
        assert_eq!(store.len(), 1);
        assert_eq!(store.snapshot()[0].value, 50.0);
    }

    #[test]
    fn trace_bufs_are_bounded() {
        let bufs = TraceBufs {
            max_traces: 2,
            max_events: 3,
            inner: Mutex::new(HashMap::new()),
        };
        let mk = |trace: u64| Event {
            ts_us: 0,
            kind: EventKind::Instant,
            name: "e".to_string(),
            span: 0,
            parent: None,
            trace,
            dur_us: None,
            fields: Vec::new(),
        };
        for _ in 0..5 {
            bufs.push(mk(1));
        }
        bufs.push(mk(2));
        bufs.push(mk(3)); // over max_traces: not buffered
        assert_eq!(bufs.take(1).unwrap().len(), 3);
        assert_eq!(bufs.take(2).unwrap().len(), 1);
        assert!(bufs.take(3).is_none());
        bufs.remove(99); // idempotent
    }
}
