//! The one metrics store: lock-cheap counters, gauges, and log2-bucketed
//! histograms over ring-buffer time slots, plus exact lifetime totals.
//!
//! Every metric divides time into fixed slots (default 60 × 1s). A slot
//! is a set of atomics tagged with the epoch (`now_ms / slot_ms`) it
//! belongs to; writers lazily reclaim stale slots by CAS-ing the epoch
//! tag forward and zeroing the values, so there is no rotation thread and
//! no lock on the hot path. Readers sum only slots whose epoch falls in
//! the requested horizon. Under concurrent writes a rotation may drop a
//! handful of racing increments into a freshly-zeroed slot — windowed
//! values are approximate at slot boundaries, which is the standard
//! trade; single-threaded (and therefore test) behavior is exact. All
//! operations take an explicit `now_ms`, so tests drive a logical clock.
//!
//! Lifetime totals — counter totals, histogram count/sum/min/max/buckets
//! and per-span-name duration statistics — bypass the slots: they are
//! plain atomics that never age out and never race a slot reclaim, so
//! they are exact under concurrency. [`WindowedRegistry::lifetime`]
//! reads them as the [`TelemetrySnapshot`] the migration report carries.
//!
//! Histogram buckets are powers of two: bucket *i* covers
//! `(2^(i-1), 2^i]` (bucket 0 is `<= 1`), with the final bucket absorbing
//! everything larger. Quantiles are nearest-rank over bucket counts and
//! report the bucket's inclusive upper bound, so they are exact to one
//! log2 bucket — plenty for latency work where the interesting question
//! is "µs, ms, or s?".

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use serde::{Deserialize, Serialize};

use crate::exemplar::ExemplarSummary;
use crate::slo::SloEvaluation;

/// Number of log2 histogram buckets. Bucket 39 covers everything above
/// `2^38` µs (≈ 76 hours when observing microseconds).
pub const N_BUCKETS: usize = 40;

/// Number of counter shards; writers spread across them to keep a hot
/// counter from serializing on one cache line.
const N_SHARDS: usize = 8;

/// The log2 bucket index for `value`: 0 for values <= 1, else
/// `ceil(log2(value))`, clamped to the overflow bucket.
pub fn log2_bucket(value: f64) -> usize {
    if value.is_nan() || value <= 1.0 {
        return 0;
    }
    let u = value.ceil() as u64;
    let idx = (64 - (u - 1).leading_zeros()) as usize;
    idx.min(N_BUCKETS - 1)
}

/// The inclusive upper bound of bucket `idx` (`2^idx`).
pub fn bucket_upper(idx: usize) -> u64 {
    1u64 << idx.min(63)
}

/// Window geometry: `slots` ring slots of `slot_ms` milliseconds each.
/// The default (60 × 1000ms) answers "over the last minute" at
/// one-second resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    pub slots: usize,
    pub slot_ms: u64,
}

impl Default for WindowSpec {
    fn default() -> Self {
        WindowSpec {
            slots: 60,
            slot_ms: 1000,
        }
    }
}

impl WindowSpec {
    pub fn window_ms(&self) -> u64 {
        self.slots as u64 * self.slot_ms
    }

    fn epoch(&self, now_ms: u64) -> u64 {
        now_ms / self.slot_ms
    }

    /// Slot epochs included in a lookback of `horizon_ms` ending at
    /// `now_ms`: `(cur - horizon_slots, cur]`, clamped to the ring size.
    fn horizon_slots(&self, horizon_ms: u64) -> u64 {
        (horizon_ms / self.slot_ms).clamp(1, self.slots as u64)
    }
}

thread_local! {
    static SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

fn my_shard() -> usize {
    SHARD.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            return v;
        }
        let v = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % N_SHARDS;
        s.set(v);
        v
    })
}

/// Claim a slot for `epoch` if its tag is stale, running `reset` only on
/// the winning CAS. Racing losers and writers that find the tag already
/// current write into the slot as it stands.
fn claim(epoch_tag: &AtomicU64, epoch: u64, reset: impl FnOnce()) {
    let cur = epoch_tag.load(Ordering::Acquire);
    if cur == epoch {
        return;
    }
    if epoch_tag
        .compare_exchange(cur, epoch, Ordering::AcqRel, Ordering::Acquire)
        .is_ok()
    {
        reset();
    }
}

struct CounterSlot {
    epoch: AtomicU64,
    value: AtomicU64,
}

/// A monotonically increasing counter with a per-slot window and sharded
/// grand total.
pub struct WindowedCounter {
    spec: WindowSpec,
    shards: Vec<AtomicU64>,
    slots: Vec<CounterSlot>,
}

impl WindowedCounter {
    pub fn new(spec: WindowSpec) -> Self {
        WindowedCounter {
            spec,
            shards: (0..N_SHARDS).map(|_| AtomicU64::new(0)).collect(),
            slots: (0..spec.slots)
                .map(|_| CounterSlot {
                    epoch: AtomicU64::new(u64::MAX),
                    value: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    pub fn add(&self, delta: u64, now_ms: u64) {
        self.shards[my_shard()].fetch_add(delta, Ordering::Relaxed);
        let epoch = self.spec.epoch(now_ms);
        let slot = &self.slots[(epoch % self.spec.slots as u64) as usize];
        claim(&slot.epoch, epoch, || {
            slot.value.store(0, Ordering::Relaxed)
        });
        slot.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// The since-creation total.
    pub fn total(&self) -> u64 {
        self.shards.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }

    /// The sum over the last `horizon_ms` milliseconds.
    pub fn windowed(&self, now_ms: u64, horizon_ms: u64) -> u64 {
        let cur = self.spec.epoch(now_ms);
        let horizon = self.spec.horizon_slots(horizon_ms);
        self.slots
            .iter()
            .filter(|s| {
                let e = s.epoch.load(Ordering::Acquire);
                e <= cur && e + horizon > cur
            })
            .map(|s| s.value.load(Ordering::Relaxed))
            .sum()
    }
}

struct GaugeSlot {
    epoch: AtomicU64,
    /// f64 bit patterns; written under the claim protocol.
    min: AtomicU64,
    max: AtomicU64,
}

/// A last-value gauge with per-window min/max.
pub struct WindowedGauge {
    spec: WindowSpec,
    last: AtomicU64,
    slots: Vec<GaugeSlot>,
}

impl WindowedGauge {
    pub fn new(spec: WindowSpec) -> Self {
        WindowedGauge {
            spec,
            last: AtomicU64::new(0f64.to_bits()),
            slots: (0..spec.slots)
                .map(|_| GaugeSlot {
                    epoch: AtomicU64::new(u64::MAX),
                    min: AtomicU64::new(f64::INFINITY.to_bits()),
                    max: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
                })
                .collect(),
        }
    }

    pub fn set(&self, value: f64, now_ms: u64) {
        self.last.store(value.to_bits(), Ordering::Relaxed);
        let epoch = self.spec.epoch(now_ms);
        let slot = &self.slots[(epoch % self.spec.slots as u64) as usize];
        claim(&slot.epoch, epoch, || {
            slot.min.store(f64::INFINITY.to_bits(), Ordering::Relaxed);
            slot.max
                .store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
        });
        fold_f64(&slot.min, value, f64::min);
        fold_f64(&slot.max, value, f64::max);
    }

    pub fn last(&self) -> f64 {
        f64::from_bits(self.last.load(Ordering::Relaxed))
    }

    /// `(min, max)` over the last `horizon_ms`, or `None` if no samples.
    pub fn window_minmax(&self, now_ms: u64, horizon_ms: u64) -> Option<(f64, f64)> {
        let cur = self.spec.epoch(now_ms);
        let horizon = self.spec.horizon_slots(horizon_ms);
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for s in &self.slots {
            let e = s.epoch.load(Ordering::Acquire);
            if e <= cur && e + horizon > cur {
                min = min.min(f64::from_bits(s.min.load(Ordering::Relaxed)));
                max = max.max(f64::from_bits(s.max.load(Ordering::Relaxed)));
            }
        }
        (min <= max).then_some((min, max))
    }
}

fn fold_f64(cell: &AtomicU64, value: f64, op: impl Fn(f64, f64) -> f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let folded = op(f64::from_bits(cur), value);
        if folded.to_bits() == cur {
            return;
        }
        match cell.compare_exchange_weak(
            cur,
            folded.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

struct HistSlot {
    epoch: AtomicU64,
    count: AtomicU64,
    /// Sum of observed values rounded to integer units (µs for latency
    /// metrics).
    sum: AtomicU64,
    max: AtomicU64,
    buckets: Vec<AtomicU64>,
}

/// Since-creation histogram totals, written outside the slot `claim`.
struct HistLifetime {
    count: AtomicU64,
    /// f64 bit patterns, folded with [`fold_f64`]; the sum stays `f64`
    /// so fractional observations (seconds) keep their fraction.
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: Vec<AtomicU64>,
}

/// A log2-bucketed histogram over the sliding window, with exact
/// lifetime totals beside it.
pub struct WindowedHistogram {
    spec: WindowSpec,
    slots: Vec<HistSlot>,
    life: HistLifetime,
}

impl WindowedHistogram {
    pub fn new(spec: WindowSpec) -> Self {
        WindowedHistogram {
            spec,
            slots: (0..spec.slots)
                .map(|_| HistSlot {
                    epoch: AtomicU64::new(u64::MAX),
                    count: AtomicU64::new(0),
                    sum: AtomicU64::new(0),
                    max: AtomicU64::new(0),
                    buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
                })
                .collect(),
            life: HistLifetime {
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0f64.to_bits()),
                min: AtomicU64::new(f64::INFINITY.to_bits()),
                max: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
                buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            },
        }
    }

    /// Record `value`, returning the bucket it landed in.
    pub fn observe(&self, value: f64, now_ms: u64) -> usize {
        let idx = log2_bucket(value);
        let life = &self.life;
        life.count.fetch_add(1, Ordering::Relaxed);
        fold_f64(&life.sum, value, |a, b| a + b);
        fold_f64(&life.min, value, f64::min);
        fold_f64(&life.max, value, f64::max);
        life.buckets[idx].fetch_add(1, Ordering::Relaxed);
        let epoch = self.spec.epoch(now_ms);
        let slot = &self.slots[(epoch % self.spec.slots as u64) as usize];
        claim(&slot.epoch, epoch, || {
            slot.count.store(0, Ordering::Relaxed);
            slot.sum.store(0, Ordering::Relaxed);
            slot.max.store(0, Ordering::Relaxed);
            for b in &slot.buckets {
                b.store(0, Ordering::Relaxed);
            }
        });
        slot.count.fetch_add(1, Ordering::Relaxed);
        slot.sum
            .fetch_add(value.max(0.0).round() as u64, Ordering::Relaxed);
        slot.max
            .fetch_max(value.max(0.0).round() as u64, Ordering::Relaxed);
        slot.buckets[idx].fetch_add(1, Ordering::Relaxed);
        idx
    }

    /// Aggregate bucket counts (plus count/sum/max) over the horizon.
    pub fn window(&self, now_ms: u64, horizon_ms: u64) -> HistWindowRaw {
        let cur = self.spec.epoch(now_ms);
        let horizon = self.spec.horizon_slots(horizon_ms);
        let mut out = HistWindowRaw::default();
        for s in &self.slots {
            let e = s.epoch.load(Ordering::Acquire);
            if e <= cur && e + horizon > cur {
                out.count += s.count.load(Ordering::Relaxed);
                out.sum += s.sum.load(Ordering::Relaxed);
                out.max = out.max.max(s.max.load(Ordering::Relaxed));
                for (i, b) in s.buckets.iter().enumerate() {
                    out.buckets[i] += b.load(Ordering::Relaxed);
                }
            }
        }
        out
    }

    /// The since-creation totals; exact once writers have finished.
    pub fn lifetime(&self) -> HistStat {
        let life = &self.life;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let buckets: Vec<u64> = life.buckets.iter().map(load).collect();
        HistStat {
            count: load(&life.count),
            sum: f64::from_bits(load(&life.sum)),
            min: f64::from_bits(load(&life.min)),
            max: f64::from_bits(load(&life.max)),
            buckets: occupied_buckets(&buckets),
        }
    }

    /// The highest occupied bucket index in the horizon, if any.
    pub fn max_bucket(&self, now_ms: u64, horizon_ms: u64) -> Option<usize> {
        self.window_max(now_ms, horizon_ms)
            .map(|m| log2_bucket(m as f64))
    }

    /// The largest value observed in the horizon, if any — O(slots),
    /// cheap enough for the per-observation tail predicate.
    pub fn window_max(&self, now_ms: u64, horizon_ms: u64) -> Option<u64> {
        let cur = self.spec.epoch(now_ms);
        let horizon = self.spec.horizon_slots(horizon_ms);
        let mut max = None;
        for s in &self.slots {
            let e = s.epoch.load(Ordering::Acquire);
            if e <= cur && e + horizon > cur && s.count.load(Ordering::Relaxed) > 0 {
                let m = s.max.load(Ordering::Relaxed);
                max = Some(max.map_or(m, |cur: u64| cur.max(m)));
            }
        }
        max
    }
}

/// Raw windowed histogram totals; see [`HistWindowRaw::quantile`].
#[derive(Debug, Clone)]
pub struct HistWindowRaw {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub buckets: [u64; N_BUCKETS],
}

impl Default for HistWindowRaw {
    fn default() -> Self {
        HistWindowRaw {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; N_BUCKETS],
        }
    }
}

impl HistWindowRaw {
    /// Nearest-rank quantile, reported as the inclusive upper bound of
    /// the bucket containing the ranked observation (0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(N_BUCKETS - 1)
    }

    /// Observations strictly above `threshold`, at bucket resolution:
    /// the threshold rounds up to its bucket's upper bound, so values in
    /// the threshold's own bucket are not counted.
    pub fn count_over(&self, threshold: u64) -> u64 {
        let cut = log2_bucket(threshold as f64);
        self.buckets[cut + 1..].iter().sum()
    }
}

/// Windowed view of one counter in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterWindow {
    pub total: u64,
    pub windowed: u64,
    pub rate_per_s: f64,
}

/// Windowed view of one gauge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeWindow {
    pub last: f64,
    pub min: f64,
    pub max: f64,
}

/// One occupied histogram bucket (`le` = inclusive upper bound).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketCount {
    pub le: u64,
    pub count: u64,
}

/// The occupied entries of a log2 bucket array, ascending by bound.
fn occupied_buckets(counts: &[u64]) -> Vec<BucketCount> {
    counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| BucketCount {
            le: bucket_upper(i),
            count: c,
        })
        .collect()
}

/// Windowed view of one histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistWindow {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    /// Occupied buckets only, ascending by bound.
    pub buckets: Vec<BucketCount>,
}

/// Lifetime duration statistics for one span name.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SpanStat {
    pub count: u64,
    pub total_us: u64,
    pub max_us: u64,
}

/// Lifetime view of one histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistStat {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    /// Occupied log2 buckets only, ascending by bound.
    pub buckets: Vec<BucketCount>,
}

impl HistStat {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// The lifetime view of a [`WindowedRegistry`]: span statistics, counter
/// totals and histogram totals since the recorder was created. This is
/// the object that lands under the `"telemetry"` key of the migration
/// report.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    pub spans: BTreeMap<String, SpanStat>,
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistStat>,
}

impl TelemetrySnapshot {
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.histograms.is_empty()
    }

    pub fn to_json(&self) -> serde_json::Value {
        serde_json::to_value(self).expect("telemetry snapshot serializes")
    }
}

/// Lifetime duration totals for one span name.
#[derive(Default)]
struct SpanTotals {
    count: AtomicU64,
    total_us: AtomicU64,
    max_us: AtomicU64,
}

/// A point-in-time windowed view of the whole registry, renderable as
/// JSON or Prometheus text via [`crate::expo`]. `exemplars` and `slos`
/// are filled by the serving layer / SLO evaluator respectively.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub at_ms: u64,
    pub window_ms: u64,
    pub counters: BTreeMap<String, CounterWindow>,
    pub gauges: BTreeMap<String, GaugeWindow>,
    pub histograms: BTreeMap<String, HistWindow>,
    pub exemplars: Vec<ExemplarSummary>,
    pub slos: Vec<SloEvaluation>,
}

/// Name → metric maps. The `RwLock` only guards map shape (first use of
/// a name); recording into an existing metric is read-locked and atomic.
pub struct WindowedRegistry {
    spec: WindowSpec,
    counters: RwLock<BTreeMap<String, Arc<WindowedCounter>>>,
    gauges: RwLock<BTreeMap<String, Arc<WindowedGauge>>>,
    hists: RwLock<BTreeMap<String, Arc<WindowedHistogram>>>,
    spans: RwLock<BTreeMap<String, Arc<SpanTotals>>>,
}

impl WindowedRegistry {
    pub fn new(spec: WindowSpec) -> Self {
        WindowedRegistry {
            spec,
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            hists: RwLock::new(BTreeMap::new()),
            spans: RwLock::new(BTreeMap::new()),
        }
    }

    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    fn get_or_insert<T>(
        map: &RwLock<BTreeMap<String, Arc<T>>>,
        name: &str,
        make: impl FnOnce() -> T,
    ) -> Arc<T> {
        if let Some(m) = map.read().unwrap().get(name) {
            return m.clone();
        }
        map.write()
            .unwrap()
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(make()))
            .clone()
    }

    pub fn count(&self, name: &str, delta: u64, now_ms: u64) {
        Self::get_or_insert(&self.counters, name, || WindowedCounter::new(self.spec))
            .add(delta, now_ms);
    }

    pub fn gauge(&self, name: &str, value: f64, now_ms: u64) {
        Self::get_or_insert(&self.gauges, name, || WindowedGauge::new(self.spec))
            .set(value, now_ms);
    }

    pub fn observe(&self, name: &str, value: f64, now_ms: u64) -> usize {
        Self::get_or_insert(&self.hists, name, || WindowedHistogram::new(self.spec))
            .observe(value, now_ms)
    }

    /// Fold one finished span's duration into its name's lifetime totals.
    pub fn span(&self, name: &str, dur_us: u64) {
        let s = Self::get_or_insert(&self.spans, name, SpanTotals::default);
        s.count.fetch_add(1, Ordering::Relaxed);
        s.total_us.fetch_add(dur_us, Ordering::Relaxed);
        s.max_us.fetch_max(dur_us, Ordering::Relaxed);
    }

    /// Observe and report whether the value landed in the window's top
    /// bucket region (within one log2 bucket of the occupied maximum) —
    /// the exemplar-capture predicate.
    pub fn observe_tail(&self, name: &str, value: f64, now_ms: u64) -> bool {
        let h = Self::get_or_insert(&self.hists, name, || WindowedHistogram::new(self.spec));
        let idx = h.observe(value, now_ms);
        let max = h.max_bucket(now_ms, self.spec.window_ms()).unwrap_or(idx);
        idx + 1 >= max
    }

    /// The windowed totals of the named counter (`(total, windowed)`),
    /// or `None` if never written.
    pub fn counter(&self, name: &str, now_ms: u64, horizon_ms: u64) -> Option<(u64, u64)> {
        let c = self.counters.read().unwrap().get(name)?.clone();
        Some((c.total(), c.windowed(now_ms, horizon_ms)))
    }

    /// The raw windowed histogram for `name`, or `None` if never written.
    pub fn histogram(&self, name: &str, now_ms: u64, horizon_ms: u64) -> Option<HistWindowRaw> {
        let h = self.hists.read().unwrap().get(name)?.clone();
        Some(h.window(now_ms, horizon_ms))
    }

    /// `f` applied to every metric in `map`, keyed by name.
    fn each<T, V>(
        map: &RwLock<BTreeMap<String, Arc<T>>>,
        f: impl Fn(&T) -> V,
    ) -> BTreeMap<String, V> {
        let map = map.read().unwrap();
        map.iter().map(|(name, m)| (name.clone(), f(m))).collect()
    }

    /// The lifetime view: span statistics, counter totals and histogram
    /// totals since creation. Gauges are windowed-only.
    pub fn lifetime(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            spans: Self::each(&self.spans, |s| SpanStat {
                count: s.count.load(Ordering::Relaxed),
                total_us: s.total_us.load(Ordering::Relaxed),
                max_us: s.max_us.load(Ordering::Relaxed),
            }),
            counters: Self::each(&self.counters, WindowedCounter::total),
            histograms: Self::each(&self.hists, WindowedHistogram::lifetime),
        }
    }

    /// Snapshot every metric over the last `horizon_ms` milliseconds.
    pub fn snapshot(&self, now_ms: u64, horizon_ms: u64) -> MetricsSnapshot {
        let horizon_s = (horizon_ms as f64 / 1000.0).max(1e-9);
        let counters = Self::each(&self.counters, |c| {
            let windowed = c.windowed(now_ms, horizon_ms);
            CounterWindow {
                total: c.total(),
                windowed,
                rate_per_s: windowed as f64 / horizon_s,
            }
        });
        let gauges = Self::each(&self.gauges, |g| {
            let (min, max) = g
                .window_minmax(now_ms, horizon_ms)
                .unwrap_or((g.last(), g.last()));
            GaugeWindow {
                last: g.last(),
                min,
                max,
            }
        });
        let histograms = Self::each(&self.hists, |h| {
            let raw = h.window(now_ms, horizon_ms);
            HistWindow {
                count: raw.count,
                sum: raw.sum,
                max: raw.max,
                p50: raw.quantile(0.50),
                p95: raw.quantile(0.95),
                p99: raw.quantile(0.99),
                buckets: occupied_buckets(&raw.buckets),
            }
        });
        MetricsSnapshot {
            at_ms: now_ms,
            window_ms: horizon_ms,
            counters,
            gauges,
            histograms,
            exemplars: Vec::new(),
            slos: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_bucket_boundaries() {
        assert_eq!(log2_bucket(0.0), 0);
        assert_eq!(log2_bucket(1.0), 0);
        assert_eq!(log2_bucket(2.0), 1);
        assert_eq!(log2_bucket(3.0), 2);
        assert_eq!(log2_bucket(4.0), 2);
        assert_eq!(log2_bucket(5.0), 3);
        assert_eq!(log2_bucket(1024.0), 10);
        assert_eq!(log2_bucket(1025.0), 11);
        assert_eq!(log2_bucket(1e30), N_BUCKETS - 1);
        assert_eq!(bucket_upper(10), 1024);
    }

    #[test]
    fn counter_window_rotates() {
        let spec = WindowSpec {
            slots: 4,
            slot_ms: 1000,
        };
        let c = WindowedCounter::new(spec);
        c.add(5, 0);
        c.add(3, 1500);
        assert_eq!(c.total(), 8);
        assert_eq!(c.windowed(1500, 4000), 8);
        // Slot 0 ages out of a 2s horizon...
        assert_eq!(c.windowed(2500, 2000), 3);
        // ...and its ring slot is reclaimed one full revolution later.
        c.add(1, 4200);
        assert_eq!(c.windowed(4200, 4000), 4);
        assert_eq!(c.total(), 9);
    }

    #[test]
    fn gauge_tracks_last_and_window_extremes() {
        let spec = WindowSpec {
            slots: 4,
            slot_ms: 1000,
        };
        let g = WindowedGauge::new(spec);
        g.set(5.0, 100);
        g.set(9.0, 200);
        g.set(2.0, 1100);
        assert_eq!(g.last(), 2.0);
        assert_eq!(g.window_minmax(1100, 4000), Some((2.0, 9.0)));
        assert_eq!(g.window_minmax(1100, 1000), Some((2.0, 2.0)));
    }

    #[test]
    fn histogram_quantiles_and_overflow() {
        let spec = WindowSpec::default();
        let h = WindowedHistogram::new(spec);
        for v in [10.0, 20.0, 30.0, 1000.0] {
            h.observe(v, 0);
        }
        let w = h.window(0, 60_000);
        assert_eq!(w.count, 4);
        assert_eq!(w.sum, 1060);
        assert_eq!(w.max, 1000);
        assert_eq!(w.quantile(0.5), 32); // 20 lands in (16,32]
        assert_eq!(w.quantile(0.99), 1024);
        assert_eq!(w.count_over(32), 1); // only 1000 is above bucket(32)
        assert_eq!(w.count_over(8), 4);
    }

    #[test]
    fn registry_snapshot_is_window_scoped() {
        let spec = WindowSpec {
            slots: 10,
            slot_ms: 1000,
        };
        let reg = WindowedRegistry::new(spec);
        reg.count("req", 10, 500);
        reg.count("req", 2, 9500);
        reg.gauge("depth", 3.0, 9500);
        reg.observe("lat", 100.0, 9500);
        let snap = reg.snapshot(9999, 2000);
        assert_eq!(snap.counters["req"].total, 12);
        assert_eq!(snap.counters["req"].windowed, 2);
        assert_eq!(snap.counters["req"].rate_per_s, 1.0);
        assert_eq!(snap.gauges["depth"].last, 3.0);
        assert_eq!(snap.histograms["lat"].count, 1);
        assert_eq!(snap.histograms["lat"].p99, 128);
        assert_eq!(snap.histograms["lat"].buckets.len(), 1);
    }

    #[test]
    fn observe_tail_flags_top_bucket_region() {
        let reg = WindowedRegistry::new(WindowSpec::default());
        // First observation is trivially the max.
        assert!(reg.observe_tail("lat", 50.0, 0));
        // A much larger value raises the max bucket...
        assert!(reg.observe_tail("lat", 100_000.0, 10));
        // ...so small values stop qualifying...
        assert!(!reg.observe_tail("lat", 60.0, 20));
        // ...but within-one-bucket of the max still does.
        assert!(reg.observe_tail("lat", 70_000.0, 30));
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let reg = WindowedRegistry::new(WindowSpec::default());
        reg.count("req", 3, 100);
        reg.gauge("depth", 1.5, 100);
        reg.observe("lat", 250.0, 100);
        reg.observe("queue.wait_s", 2.5, 100);
        reg.span("target_phase", 1234);
        let snap = reg.snapshot(500, 60_000);
        let text = serde_json::to_string(&serde_json::to_value(&snap).unwrap()).unwrap();
        let back: MetricsSnapshot =
            serde_json::from_value(serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(snap, back);
        let life = reg.lifetime();
        let text = serde_json::to_string(&life.to_json()).unwrap();
        let back: TelemetrySnapshot =
            serde_json::from_value(serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(life, back);
    }

    #[test]
    fn lifetime_totals_are_exact_across_slot_reclaims() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        let spec = WindowSpec {
            slots: 4,
            slot_ms: 10,
        };
        let reg = Arc::new(WindowedRegistry::new(spec));
        reg.count("req", 1, 0);
        reg.observe("lat", 1.0, 0);
        // Thread t writes values t*PER_THREAD+1 ..= (t+1)*PER_THREAD on a
        // logical clock sweeping 0..100ms: 2.5 ring revolutions, so every
        // slot is reclaimed while other threads are writing into it.
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let reg = &reg;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        let now_ms = i * 100 / PER_THREAD;
                        reg.count("req", 1, now_ms);
                        reg.observe("lat", (t * PER_THREAD + i + 1) as f64, now_ms);
                    }
                });
            }
        });
        let n = THREADS * PER_THREAD;
        let life = reg.lifetime();
        assert_eq!(life.counters["req"], n + 1);
        let h = &life.histograms["lat"];
        assert_eq!(h.count, n + 1);
        assert_eq!(h.sum, (n * (n + 1) / 2 + 1) as f64);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, n as f64);
        assert_eq!(h.buckets.iter().map(|b| b.count).sum::<u64>(), n + 1);
        // The t=0 observations' slot has been reclaimed; the window no
        // longer sees them, the lifetime view still does.
        let window = reg.histogram("lat", 100, spec.window_ms()).unwrap();
        assert!(window.count < n + 1);
        assert_eq!(h.buckets[0], BucketCount { le: 1, count: 2 });
    }
}
