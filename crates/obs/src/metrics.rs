//! Unified metrics registry: counters, gauges, and histograms keyed by
//! dotted name plus sorted labels.
//!
//! Naming scheme (see ARCHITECTURE.md § Observability):
//! `<subsystem>.<noun>[_<unit>]`, e.g. `wal.commits`,
//! `io.bytes_read`, `server.commit_latency_p99_ns{table="orders"}`.
//! Labels are `(key, value)` pairs; the registry sorts them so label
//! order never creates duplicate series.
//!
//! [`MetricsSnapshot`] is the frozen form with two expositions:
//! [`MetricsSnapshot::to_text`] (Prometheus-style) and
//! [`MetricsSnapshot::to_json`].

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, RwLock};

/// Histogram buckets: values are binned by bit width, so bucket `i`
/// holds values whose `floor(log2(v)) + 1 == i` (bucket 0 holds 0).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Monotonically increasing counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Last-write-wins gauge.
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the current value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Lock-free log2-bucketed histogram (65 buckets covering all of
/// `u64`), tracking count and sum exactly alongside the buckets.
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [ZERO; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Upper bound (inclusive) of bucket `i`: 0, 1, 3, 7, ... `u64::MAX`.
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one observation.
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
    }

    /// Freeze the current buckets/count/sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Relaxed)).collect(),
            count: self.count.load(Relaxed),
            sum: self.sum.load(Relaxed),
        }
    }
}

/// Frozen histogram state. Merging snapshots ([`HistogramSnapshot::merge`])
/// is associative and commutative: buckets, count, and sum all add.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts ([`HISTOGRAM_BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Exact sum of all observed values (wrapping on overflow).
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Combine two snapshots (element-wise bucket addition).
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let n = self.buckets.len().max(other.buckets.len());
        let get = |v: &Vec<u64>, i: usize| v.get(i).copied().unwrap_or(0);
        HistogramSnapshot {
            buckets: (0..n)
                .map(|i| get(&self.buckets, i) + get(&other.buckets, i))
                .collect(),
            count: self.count + other.count,
            sum: self.sum.wrapping_add(other.sum),
        }
    }

    /// Upper bound of the bucket holding the `q`-quantile observation
    /// (`q` in `[0, 1]`); `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_upper(i));
            }
        }
        Some(u64::MAX)
    }

    /// Mean observed value; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

#[derive(Clone)]
enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    name: String,
    labels: Vec<(String, String)>,
}

fn key_of(name: &str, labels: &[(&str, &str)]) -> Key {
    let mut labels: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    labels.sort();
    Key {
        name: name.to_string(),
        labels,
    }
}

/// Live metric store. Instruments are registered (get-or-create) by
/// dotted name + labels and shared via `Arc`, so hot paths hold the
/// instrument and never touch the registry map again.
#[derive(Default)]
pub struct Registry {
    metrics: RwLock<BTreeMap<Key, Handle>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or<T, F>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        pick: fn(&Handle) -> Option<Arc<T>>,
        make: F,
    ) -> Arc<T>
    where
        F: Fn() -> (Arc<T>, Handle),
    {
        let key = key_of(name, labels);
        if let Some(h) = self.metrics.read().unwrap().get(&key) {
            if let Some(t) = pick(h) {
                return t;
            }
        }
        let mut w = self.metrics.write().unwrap();
        if let Some(t) = w.get(&key).and_then(pick) {
            return t;
        }
        // Absent, or registered earlier as a different instrument kind
        // (a caller bug): replace so both callers keep working.
        let (t, h) = make();
        w.insert(key, h);
        t
    }

    /// Get-or-create a counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.get_or(
            name,
            labels,
            |h| match h {
                Handle::Counter(c) => Some(c.clone()),
                _ => None,
            },
            || {
                let c = Arc::new(Counter::default());
                (c.clone(), Handle::Counter(c))
            },
        )
    }

    /// Get-or-create a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.get_or(
            name,
            labels,
            |h| match h {
                Handle::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            || {
                let g = Arc::new(Gauge::default());
                (g.clone(), Handle::Gauge(g))
            },
        )
    }

    /// Get-or-create a histogram.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.get_or(
            name,
            labels,
            |h| match h {
                Handle::Histogram(x) => Some(x.clone()),
                _ => None,
            },
            || {
                let x = Arc::new(Histogram::new());
                (x.clone(), Handle::Histogram(x))
            },
        )
    }

    /// Register every instrument of `other` here as well. The handles
    /// are shared, not copied: whoever updates `other`'s instruments
    /// updates these, so both registries read the same values.
    pub fn include(&self, other: &Registry) {
        let theirs = other.metrics.read().unwrap();
        let mut ours = self.metrics.write().unwrap();
        for (k, h) in theirs.iter() {
            ours.insert(k.clone(), h.clone());
        }
    }

    /// Freeze every registered metric, sorted by name then labels.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = self.metrics.read().unwrap();
        MetricsSnapshot {
            metrics: m
                .iter()
                .map(|(k, h)| MetricEntry {
                    name: k.name.clone(),
                    labels: k.labels.clone(),
                    value: match h {
                        Handle::Counter(c) => MetricValue::Counter(c.get()),
                        Handle::Gauge(g) => MetricValue::Gauge(g.get()),
                        Handle::Histogram(x) => MetricValue::Histogram(x.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

/// One frozen metric's value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    /// Scalar value of a counter or gauge (`None` for histograms).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => Some(*v),
            MetricValue::Histogram(_) => None,
        }
    }
}

/// One frozen metric: name, sorted labels, value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricEntry {
    /// Dotted metric name.
    pub name: String,
    /// Sorted `(key, value)` label pairs.
    pub labels: Vec<(String, String)>,
    /// The frozen value.
    pub value: MetricValue,
}

/// Everything a [`Registry`] held, frozen at one instant, with
/// Prometheus-style text and JSON expositions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// All metrics, sorted by name then labels.
    pub metrics: Vec<MetricEntry>,
}

fn sanitize(name: &str) -> String {
    name.replace('.', "_")
}

fn label_text(labels: &[(String, String)], extra: Option<(&str, String)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", k, v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

impl MetricsSnapshot {
    /// First entry named `name` (any labels).
    pub fn get(&self, name: &str) -> Option<&MetricEntry> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Entry with exactly `name` and `labels` (order-insensitive).
    pub fn get_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricEntry> {
        let key = key_of(name, labels);
        self.metrics
            .iter()
            .find(|m| m.name == key.name && m.labels == key.labels)
    }

    /// Value of a counter/gauge named `name` (first match), if present.
    pub fn value(&self, name: &str) -> Option<u64> {
        match &self.get(name)?.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => Some(*v),
            MetricValue::Histogram(_) => None,
        }
    }

    /// Prometheus-style text exposition. Dots in names become
    /// underscores; histograms expand to `_count`, `_sum`, and
    /// cumulative `_bucket{le="..."}` series.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let name = sanitize(&m.name);
            match &m.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                    out.push_str(&format!("{name}{} {v}\n", label_text(&m.labels, None)));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{name}_count{} {}\n",
                        label_text(&m.labels, None),
                        h.count
                    ));
                    out.push_str(&format!(
                        "{name}_sum{} {}\n",
                        label_text(&m.labels, None),
                        h.sum
                    ));
                    let mut cum = 0;
                    for (i, &c) in h.buckets.iter().enumerate() {
                        if c == 0 && i + 1 != h.buckets.len() {
                            continue; // keep the exposition readable
                        }
                        cum += c;
                        let le = if i + 1 == h.buckets.len() {
                            "+Inf".to_string()
                        } else {
                            bucket_upper(i).to_string()
                        };
                        out.push_str(&format!(
                            "{name}_bucket{} {cum}\n",
                            label_text(&m.labels, Some(("le", le)))
                        ));
                    }
                }
            }
        }
        out
    }

    /// JSON exposition: an array of `{name, labels, type, value}`
    /// objects (histograms carry `count`, `sum`, `buckets`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"name\":{}", json_str(&m.name)));
            out.push_str(",\"labels\":{");
            for (j, (k, v)) in m.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{}:{}", json_str(k), json_str(v)));
            }
            out.push('}');
            match &m.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!(",\"type\":\"counter\",\"value\":{v}}}"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!(",\"type\":\"gauge\",\"value\":{v}}}"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        ",\"type\":\"histogram\",\"count\":{},\"sum\":{},\"buckets\":[",
                        h.count, h.sum
                    ));
                    // Sparse: [bucket_index, count] pairs.
                    let mut first = true;
                    for (bi, &c) in h.buckets.iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        if !first {
                            out.push(',');
                        }
                        first = false;
                        out.push_str(&format!("[{bi},{c}]"));
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push(']');
        out
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_lookup() {
        let r = Registry::new();
        r.counter("wal.commits", &[]).add(3);
        r.counter("wal.commits", &[]).inc();
        r.gauge("table.delta_bytes", &[("table", "orders")])
            .set(512);
        // Label order must not create a second series.
        r.counter("x", &[("a", "1"), ("b", "2")]).inc();
        r.counter("x", &[("b", "2"), ("a", "1")]).inc();
        let snap = r.snapshot();
        assert_eq!(snap.value("wal.commits"), Some(4));
        assert_eq!(
            snap.get_labeled("table.delta_bytes", &[("table", "orders")])
                .map(|m| m.value.clone()),
            Some(MetricValue::Gauge(512))
        );
        assert_eq!(
            snap.get_labeled("x", &[("a", "1"), ("b", "2")])
                .map(|m| m.value.clone()),
            Some(MetricValue::Counter(2))
        );
    }

    #[test]
    fn histogram_merge_is_associative_and_commutative() {
        let mk = |vals: &[u64]| {
            let h = Histogram::new();
            for &v in vals {
                h.observe(v);
            }
            h.snapshot()
        };
        let a = mk(&[0, 1, 5, 1000]);
        let b = mk(&[2, 2, 900_000]);
        let c = mk(&[u64::MAX, 7]);
        let left = a.merge(&b).merge(&c);
        let right = a.merge(&b.merge(&c));
        assert_eq!(left, right, "associative");
        assert_eq!(a.merge(&b), b.merge(&a), "commutative");
        assert_eq!(left.count, 9);
        assert_eq!(
            left.sum,
            0u64.wrapping_add(1 + 5 + 1000 + 2 + 2 + 900_000 + 7)
                .wrapping_add(u64::MAX)
        );
    }

    #[test]
    fn histogram_quantiles_bound_observations() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        let p50 = s.quantile(0.5).unwrap();
        let p99 = s.quantile(0.99).unwrap();
        assert!((500..=1023).contains(&p50), "p50 bucket bound: {p50}");
        assert!((990..=1023).contains(&p99), "p99 bucket bound: {p99}");
        assert!(p50 <= p99);
        assert_eq!(s.mean(), Some(500.5));
        assert_eq!(HistogramSnapshot::default().quantile(0.5), None);
    }

    #[test]
    fn concurrent_histogram_and_counter_updates() {
        let r = Arc::new(Registry::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    let c = r.counter("ops", &[]);
                    let h = r.histogram("lat", &[]);
                    for i in 0..10_000u64 {
                        c.inc();
                        h.observe(i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = r.snapshot();
        assert_eq!(snap.value("ops"), Some(40_000));
        match &snap.get("lat").unwrap().value {
            MetricValue::Histogram(h) => {
                assert_eq!(h.count, 40_000);
                assert_eq!(h.sum, 4 * (0..10_000u64).sum::<u64>());
                assert_eq!(h.buckets.iter().sum::<u64>(), 40_000);
            }
            v => panic!("expected histogram, got {v:?}"),
        }
    }

    #[test]
    fn text_and_json_expositions() {
        let r = Registry::new();
        r.counter("wal.commits", &[("table", "t\"1")]).add(7);
        r.histogram("commit.latency_ns", &[]).observe(3);
        let snap = r.snapshot();
        let text = snap.to_text();
        assert!(text.contains("wal_commits{table=\"t\\\"1\"} 7"), "{text}");
        assert!(text.contains("commit_latency_ns_count 1"), "{text}");
        assert!(text.contains("commit_latency_ns_sum 3"), "{text}");
        assert!(
            text.contains("commit_latency_ns_bucket{le=\"3\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("commit_latency_ns_bucket{le=\"+Inf\"} 1"),
            "{text}"
        );
        let json = snap.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(json.contains("\"name\":\"wal.commits\""), "{json}");
        assert!(json.contains("\"type\":\"histogram\""), "{json}");
        assert!(json.contains("\"count\":1"), "{json}");
    }
}
