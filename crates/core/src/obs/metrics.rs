//! Metrics registry with static handles.
//!
//! The registry is one key → metric map behind one mutex. Lookups are
//! not the hot path: call sites resolve a
//! [`Counter`]/[`Gauge`]/[`HistogramHandle`] **once** (at trainer or
//! engine construction) and then record through the handle — an atomic
//! add for counters/gauges, an uncontended mutex around a fixed-size
//! [`Histogram`] for distributions — without touching the registry. Handles stay live after a
//! [`MetricsRegistry::reset`]; they just no longer appear in snapshots.
//!
//! Snapshots ([`MetricsSnapshot`]) are plain data, sorted by
//! `(name, labels)` so their rendered form is deterministic, and they
//! merge with the same semantics as live metrics: counters add,
//! histograms bucket-merge, gauges take the incoming value. The
//! `snapshot ∘ merge = merge ∘ snapshot` equivalence is property-tested.

use crate::timing::Histogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A metric's identity: name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (Prometheus-compatible: `[a-zA-Z_][a-zA-Z0-9_]*`).
    pub name: String,
    /// Label pairs, sorted by label name.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Build a key; labels are sorted so `[("a","1"),("b","2")]` and
    /// `[("b","2"),("a","1")]` identify the same metric.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

impl serde::Serialize for MetricKey {
    fn to_value(&self) -> serde::value::Value {
        use serde::value::{Map, Value};
        let mut labels = Map::new();
        for (k, v) in &self.labels {
            labels.insert(k.clone(), Value::String(v.clone()));
        }
        let mut m = Map::new();
        m.insert("name".into(), Value::String(self.name.clone()));
        m.insert("labels".into(), Value::Object(labels));
        Value::Object(m)
    }
}

/// Monotonically increasing counter. Cloning shares the underlying cell.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A detached counter (not registered anywhere); useful in tests.
    pub fn detached() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-value gauge holding an `f64`. Cloning shares the cell.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A detached gauge (not registered anywhere).
    pub fn detached() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Handle to a registered [`Histogram`]. Cloning shares the histogram.
#[derive(Debug, Clone)]
pub struct HistogramHandle(Arc<Mutex<Histogram>>);

impl HistogramHandle {
    /// A detached histogram handle (not registered anywhere).
    pub fn detached() -> Self {
        HistogramHandle(Arc::new(Mutex::new(Histogram::new())))
    }

    fn lock(&self) -> MutexGuard<'_, Histogram> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.lock().record(value);
    }

    /// Record a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.lock().record_duration(d);
    }

    /// Copy of the current histogram state.
    pub fn read(&self) -> Histogram {
        self.lock().clone()
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(HistogramHandle),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }

    fn value(&self) -> MetricValue {
        match self {
            Metric::Counter(c) => MetricValue::Counter(c.get()),
            Metric::Gauge(g) => MetricValue::Gauge(g.get()),
            Metric::Histogram(h) => MetricValue::Histogram(Box::new(h.read())),
        }
    }
}

/// One metric's exported value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter reading.
    Counter(u64),
    /// Last-set gauge reading.
    Gauge(f64),
    /// Histogram state (boxed: it is 552 bytes against the others' 8).
    Histogram(Box<Histogram>),
}

impl MetricValue {
    fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }

    /// Counter reading, if this is a counter.
    pub fn as_counter(&self) -> Option<u64> {
        match self {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Gauge reading, if this is a gauge.
    pub fn as_gauge(&self) -> Option<f64> {
        match self {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Histogram state, if this is a histogram.
    pub fn as_histogram(&self) -> Option<&Histogram> {
        match self {
            MetricValue::Histogram(h) => Some(h.as_ref()),
            _ => None,
        }
    }
}

impl serde::Serialize for MetricValue {
    fn to_value(&self) -> serde::value::Value {
        use serde::value::{Map, Value};
        let mut m = Map::new();
        m.insert("type".into(), Value::String(self.kind().to_string()));
        match self {
            MetricValue::Counter(v) => {
                m.insert("value".into(), Value::UInt(*v));
            }
            MetricValue::Gauge(v) => {
                m.insert("value".into(), Value::Float(*v));
            }
            MetricValue::Histogram(h) => {
                m.insert(
                    "buckets".into(),
                    Value::Array(h.bucket_counts().iter().map(|&b| Value::UInt(b)).collect()),
                );
                m.insert("count".into(), Value::UInt(h.count()));
                m.insert("sum".into(), Value::UInt(h.sum()));
                m.insert("min".into(), Value::UInt(h.min()));
                m.insert("max".into(), Value::UInt(h.max()));
            }
        }
        Value::Object(m)
    }
}

/// One `(key, value)` pair in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricEntry {
    /// The metric's identity.
    pub key: MetricKey,
    /// Its value at snapshot time.
    pub value: MetricValue,
}

impl serde::Serialize for MetricEntry {
    fn to_value(&self) -> serde::value::Value {
        use serde::value::{Map, Value};
        let key = self.key.to_value();
        let val = self.value.to_value();
        let mut m = Map::new();
        if let (Value::Object(k), Value::Object(v)) = (key, val) {
            for (kk, vv) in k.iter() {
                m.insert(kk.clone(), vv.clone());
            }
            for (kk, vv) in v.iter() {
                m.insert(kk.clone(), vv.clone());
            }
        }
        Value::Object(m)
    }
}

/// A point-in-time copy of every registered metric, sorted by
/// `(name, labels)` so exports are deterministic.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct MetricsSnapshot {
    /// The metrics, sorted by key.
    pub metrics: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    /// Look up a metric by name and labels.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        let key = MetricKey::new(name, labels);
        self.metrics
            .binary_search_by(|e| e.key.cmp(&key))
            .ok()
            .map(|i| &self.metrics[i].value)
    }

    /// Merge another snapshot: counters add, histograms bucket-merge,
    /// gauges take `other`'s value; keys only in `other` are inserted.
    ///
    /// # Panics
    ///
    /// When the same key carries different metric kinds in the two
    /// snapshots — that is a naming bug, not a runtime condition.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for entry in &other.metrics {
            match self.metrics.binary_search_by(|e| e.key.cmp(&entry.key)) {
                Ok(i) => {
                    let mine = &mut self.metrics[i].value;
                    match (mine, &entry.value) {
                        (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += *b,
                        (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = *b,
                        (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
                        (mine, theirs) => panic!(
                            "metric {:?} kind mismatch: {} vs {}",
                            entry.key,
                            mine.kind(),
                            theirs.kind()
                        ),
                    }
                }
                Err(i) => self.metrics.insert(i, entry.clone()),
            }
        }
    }
}

/// The registry. See the module docs for the design.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<MetricKey, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn map(&self) -> MutexGuard<'_, BTreeMap<MetricKey, Metric>> {
        self.metrics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Resolve (or register) a counter. Cache the handle; don't call
    /// this on a hot path.
    ///
    /// # Panics
    ///
    /// When the key is already registered with a different kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.counter_keyed(&MetricKey::new(name, labels))
    }

    /// Resolve (or register) a gauge.
    ///
    /// # Panics
    ///
    /// When the key is already registered with a different kind.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.gauge_keyed(&MetricKey::new(name, labels))
    }

    /// Resolve (or register) a histogram.
    ///
    /// # Panics
    ///
    /// When the key is already registered with a different kind.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> HistogramHandle {
        self.histogram_keyed(&MetricKey::new(name, labels))
    }

    /// Snapshot every registered metric, sorted by key.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self
            .map()
            .iter()
            .map(|(key, metric)| MetricEntry {
                key: key.clone(),
                value: metric.value(),
            })
            .collect();
        MetricsSnapshot { metrics }
    }

    /// Fold a snapshot into the live metrics (counters add, histograms
    /// merge, gauges set) — registering any keys not yet present. Dual
    /// of [`MetricsSnapshot::merge`]: `snapshot ∘ merge = merge ∘
    /// snapshot`, which the proptests pin.
    ///
    /// # Panics
    ///
    /// When a key is live with a different kind than the snapshot's.
    pub fn merge_snapshot(&self, snap: &MetricsSnapshot) {
        for entry in &snap.metrics {
            match &entry.value {
                MetricValue::Counter(v) => {
                    self.counter_keyed(&entry.key).add(*v);
                }
                MetricValue::Gauge(v) => {
                    self.gauge_keyed(&entry.key).set(*v);
                }
                MetricValue::Histogram(h) => {
                    self.histogram_keyed(&entry.key).lock().merge(h);
                }
            }
        }
    }

    fn counter_keyed(&self, key: &MetricKey) -> Counter {
        match self
            .map()
            .entry(key.clone())
            .or_insert_with(|| Metric::Counter(Counter::detached()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric {key:?} already registered as {}", other.kind()),
        }
    }

    fn gauge_keyed(&self, key: &MetricKey) -> Gauge {
        match self
            .map()
            .entry(key.clone())
            .or_insert_with(|| Metric::Gauge(Gauge::detached()))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric {key:?} already registered as {}", other.kind()),
        }
    }

    fn histogram_keyed(&self, key: &MetricKey) -> HistogramHandle {
        match self
            .map()
            .entry(key.clone())
            .or_insert_with(|| Metric::Histogram(HistogramHandle::detached()))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric {key:?} already registered as {}", other.kind()),
        }
    }

    /// Drop every registered metric. Existing handles keep working but
    /// are no longer reachable from snapshots — used by tests and by the
    /// CLI between commands in one process.
    pub fn reset(&self) {
        self.map().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_record_and_snapshot_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter("b_total", &[]).add(3);
        reg.counter("a_total", &[("env", "1")]).inc();
        reg.counter("a_total", &[("env", "0")]).inc();
        reg.gauge("g", &[]).set(2.5);
        reg.histogram("h_ns", &[]).record(100);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.metrics.iter().map(|e| e.key.name.as_str()).collect();
        assert_eq!(names, ["a_total", "a_total", "b_total", "g", "h_ns"]);
        assert_eq!(snap.metrics[0].key.labels, [("env".into(), "0".into())]);
        assert_eq!(
            snap.get("b_total", &[]).and_then(MetricValue::as_counter),
            Some(3)
        );
        assert_eq!(
            snap.get("g", &[]).and_then(MetricValue::as_gauge),
            Some(2.5)
        );
        let h = snap.get("h_ns", &[]).and_then(MetricValue::as_histogram);
        assert_eq!(h.map(Histogram::count), Some(1));
    }

    #[test]
    fn same_key_shares_the_cell() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x", &[("k", "v")]);
        let b = reg.counter("x", &[("k", "v")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
    }

    #[test]
    fn label_order_is_normalized() {
        let reg = MetricsRegistry::new();
        reg.counter("x", &[("b", "2"), ("a", "1")]).inc();
        reg.counter("x", &[("a", "1"), ("b", "2")]).inc();
        assert_eq!(reg.snapshot().metrics.len(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflicts_panic() {
        let reg = MetricsRegistry::new();
        reg.counter("x", &[]).inc();
        let _ = reg.gauge("x", &[]);
    }

    #[test]
    fn snapshot_merge_semantics() {
        let mut a = MetricsSnapshot::default();
        let reg = MetricsRegistry::new();
        reg.counter("c", &[]).add(2);
        reg.gauge("g", &[]).set(1.0);
        reg.histogram("h", &[]).record(8);
        a.merge(&reg.snapshot());
        reg.reset();
        reg.counter("c", &[]).add(5);
        reg.gauge("g", &[]).set(9.0);
        reg.histogram("h", &[]).record(16);
        a.merge(&reg.snapshot());
        assert_eq!(a.get("c", &[]).and_then(MetricValue::as_counter), Some(7));
        assert_eq!(a.get("g", &[]).and_then(MetricValue::as_gauge), Some(9.0));
        let h = a.get("h", &[]).and_then(MetricValue::as_histogram).unwrap();
        assert_eq!((h.count(), h.min(), h.max()), (2, 8, 16));
    }
}
