//! The metric registry: counters, gauges, and histograms with
//! deterministic snapshots.
//!
//! Metrics are keyed by `(name, scope)` in a [`BTreeMap`], so a snapshot
//! iterates in one canonical order no matter what order the metrics were
//! registered in. Handles ([`Counter`], [`Gauge`], [`Histogram`]) are
//! cheap clones of shared interiors, so an engine can register once and
//! bump from its hot loop without re-hashing names.
//!
//! Thread-count determinism comes from the same rule the trace layer
//! uses: each parallel trial fills its *own* registry, and the scenario
//! folds them with [`MetricRegistry::merge`] in trial-index order —
//! counters sum (order-free), gauges last-write-wins (trial order), and
//! histograms concatenate samples (trial order), so the folded snapshot
//! is byte-identical at any thread count.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ssync_dsp::stats;
use ssync_exp::record::{Output, Value};

/// What a metric is attached to. The `Ord` derive fixes the snapshot
/// order: global first, then per-node, then per-link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scope {
    /// Whole-run metric.
    Global,
    /// Attached to one node.
    Node(u32),
    /// Attached to a directed link `from → to`.
    Link(u32, u32),
}

impl Scope {
    /// Stable label used in snapshots (`-`, `n3`, `l1>2`).
    pub fn label(&self) -> String {
        match self {
            Scope::Global => "-".to_string(),
            Scope::Node(n) => format!("n{n}"),
            Scope::Link(a, b) => format!("l{a}>{b}"),
        }
    }
}

/// A monotone event counter. Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. Relaxed ordering is enough: counters are sums, and every
    /// handle that writes is folded before anything reads.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value. Stored as `f64` bits in an
/// atomic so the handle stays `Send + Sync` without a lock.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A sample collector summarised at snapshot time via
/// [`ssync_dsp::stats`] (count / mean / min / p50 / p95 / max).
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<Mutex<Vec<f64>>>);

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: f64) {
        self.0.lock().expect("histogram poisoned").push(v);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.0.lock().expect("histogram poisoned").len()
    }

    /// A copy of the samples in recording order.
    pub fn values(&self) -> Vec<f64> {
        self.0.lock().expect("histogram poisoned").clone()
    }

    fn extend(&self, more: &[f64]) {
        self.0
            .lock()
            .expect("histogram poisoned")
            .extend_from_slice(more);
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A registry of `(name, scope)`-keyed metrics with a canonical-order
/// snapshot. See the module docs for the merge/determinism rules.
#[derive(Debug, Clone, Default)]
pub struct MetricRegistry {
    metrics: BTreeMap<(String, Scope), Metric>,
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricRegistry::default()
    }

    /// Returns the counter for `(name, scope)`, registering it at zero on
    /// first use.
    ///
    /// # Panics
    /// Panics if the key is already registered as a different metric kind.
    pub fn counter(&mut self, name: &str, scope: Scope) -> Counter {
        match self
            .metrics
            .entry((name.to_string(), scope))
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?}/{scope:?} already registered with another kind"),
        }
    }

    /// Returns the gauge for `(name, scope)`, registering it at zero on
    /// first use.
    ///
    /// # Panics
    /// Panics if the key is already registered as a different metric kind.
    pub fn gauge(&mut self, name: &str, scope: Scope) -> Gauge {
        match self
            .metrics
            .entry((name.to_string(), scope))
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?}/{scope:?} already registered with another kind"),
        }
    }

    /// Returns the histogram for `(name, scope)`, registering it empty on
    /// first use.
    ///
    /// # Panics
    /// Panics if the key is already registered as a different metric kind.
    pub fn histogram(&mut self, name: &str, scope: Scope) -> Histogram {
        match self
            .metrics
            .entry((name.to_string(), scope))
            .or_insert_with(|| Metric::Histogram(Histogram::default()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?}/{scope:?} already registered with another kind"),
        }
    }

    /// Reads a counter without registering it: `None` if the key is
    /// absent or holds another kind.
    pub fn counter_value(&self, name: &str, scope: Scope) -> Option<u64> {
        match self.metrics.get(&(name.to_string(), scope)) {
            Some(Metric::Counter(c)) => Some(c.get()),
            _ => None,
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Folds `other` into `self`: counters sum, gauges take `other`'s
    /// value (last write wins — call in trial-index order), histograms
    /// append `other`'s samples.
    ///
    /// # Panics
    /// Panics if a shared key has different metric kinds on each side.
    pub fn merge(&mut self, other: &MetricRegistry) {
        for (key, theirs) in &other.metrics {
            match self.metrics.get(key) {
                None => {
                    self.metrics.insert(key.clone(), theirs.clone());
                }
                Some(ours) => match (ours, theirs) {
                    (Metric::Counter(a), Metric::Counter(b)) => a.add(b.get()),
                    (Metric::Gauge(a), Metric::Gauge(b)) => a.set(b.get()),
                    (Metric::Histogram(a), Metric::Histogram(b)) => a.extend(&b.values()),
                    _ => panic!("metric {key:?} merged across different kinds"),
                },
            }
        }
    }

    /// Serialises every metric as one table through the shared
    /// [`ssync_exp::record`] IR, in canonical `(name, scope)` order.
    /// Counters render their count; gauges their value; histograms a
    /// six-number summary. Missing cells are `"NA"`, matching the golden
    /// TSV convention.
    pub fn snapshot(&self) -> Output {
        let mut out = Output::new();
        out.columns(&[
            "metric", "scope", "kind", "count", "value", "mean", "min", "p50", "p95", "max",
        ]);
        let na = || Value::s("NA");
        for ((name, scope), metric) in &self.metrics {
            let mut row = vec![Value::s(name.clone()), Value::s(scope.label())];
            match metric {
                Metric::Counter(c) => {
                    row.push(Value::s("counter"));
                    row.push(Value::Int(c.get() as i64));
                    row.extend([na(), na(), na(), na(), na(), na()]);
                }
                Metric::Gauge(g) => {
                    row.push(Value::s("gauge"));
                    row.push(na());
                    row.push(Value::F(g.get(), 6));
                    row.extend([na(), na(), na(), na(), na()]);
                }
                Metric::Histogram(h) => {
                    let xs = h.values();
                    row.push(Value::s("histogram"));
                    row.push(Value::Int(xs.len() as i64));
                    row.push(na());
                    if xs.is_empty() {
                        row.extend([na(), na(), na(), na(), na()]);
                    } else {
                        row.push(Value::F(stats::mean(&xs), 6));
                        row.push(Value::F(stats::min_or(&xs, f64::INFINITY), 6));
                        row.push(Value::F(stats::percentile(&xs, 50.0), 6));
                        row.push(Value::F(stats::percentile(&xs, 95.0), 6));
                        row.push(Value::F(stats::max_or(&xs, f64::NEG_INFINITY), 6));
                    }
                }
            }
            out.row(row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssync_exp::sink::render_tsv;

    #[test]
    fn counter_handles_share_one_cell() {
        let mut reg = MetricRegistry::new();
        let a = reg.counter("frames", Scope::Node(1));
        let b = reg.counter("frames", Scope::Node(1));
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn scopes_are_distinct_keys() {
        let mut reg = MetricRegistry::new();
        reg.counter("frames", Scope::Global).inc();
        reg.counter("frames", Scope::Node(0)).add(5);
        reg.counter("frames", Scope::Link(0, 1)).add(7);
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.counter("frames", Scope::Node(0)).get(), 5);
    }

    #[test]
    #[should_panic(expected = "another kind")]
    fn kind_conflicts_panic() {
        let mut reg = MetricRegistry::new();
        reg.counter("x", Scope::Global);
        reg.gauge("x", Scope::Global);
    }

    #[test]
    fn merge_sums_counters_and_concats_histograms() {
        let mut a = MetricRegistry::new();
        a.counter("frames", Scope::Global).add(2);
        a.histogram("snr", Scope::Node(0)).record(10.0);
        a.gauge("progress", Scope::Global).set(0.25);

        let mut b = MetricRegistry::new();
        b.counter("frames", Scope::Global).add(3);
        b.counter("drops", Scope::Global).inc();
        b.histogram("snr", Scope::Node(0)).record(20.0);
        b.gauge("progress", Scope::Global).set(0.75);

        a.merge(&b);
        assert_eq!(a.counter("frames", Scope::Global).get(), 5);
        assert_eq!(a.counter("drops", Scope::Global).get(), 1);
        assert_eq!(
            a.histogram("snr", Scope::Node(0)).values(),
            vec![10.0, 20.0]
        );
        assert_eq!(a.gauge("progress", Scope::Global).get(), 0.75);
    }

    #[test]
    fn snapshot_is_canonically_ordered_and_renders() {
        let mut reg = MetricRegistry::new();
        // Register deliberately out of canonical order.
        reg.counter("z_last", Scope::Global).inc();
        reg.counter("a_first", Scope::Link(1, 2)).add(4);
        reg.counter("a_first", Scope::Global).add(9);
        let h = reg.histogram("lat", Scope::Global);
        h.record(1.0);
        h.record(3.0);

        let tsv = render_tsv(&reg.snapshot());
        let lines: Vec<&str> = tsv.lines().collect();
        assert!(lines[0].starts_with("# metric\tscope\tkind"));
        // BTreeMap order: a_first/Global, a_first/Link, lat, z_last.
        assert!(lines[1].starts_with("a_first\t-\tcounter\t9"));
        assert!(lines[2].starts_with("a_first\tl1>2\tcounter\t4"));
        assert!(lines[3].starts_with("lat\t-\thistogram\t2\tNA\t2.000000\t1.000000"));
        assert!(lines[4].starts_with("z_last\t-\tcounter\t1"));
    }

    #[test]
    fn empty_histogram_snapshot_uses_na() {
        let mut reg = MetricRegistry::new();
        reg.histogram("lat", Scope::Global);
        let tsv = render_tsv(&reg.snapshot());
        assert!(tsv.contains("lat\t-\thistogram\t0\tNA\tNA\tNA\tNA\tNA\tNA"));
    }
}
