//! The [`Registry`]: named, labeled metric handles plus point-in-time
//! [`Snapshot`]s.
//!
//! Registration takes a short mutex (idempotent lookup by name + label
//! sequence); *recording* never does — callers hold `Arc` handles to the
//! metric primitives and update them lock-free, so instrumenting a hot
//! path costs one atomic op, not a registry lookup. A [`Snapshot`] copies
//! every metric's current value in registration order, which is what the
//! exposition formats and the snapshot-derived reports consume.

use crate::metrics::{
    Counter, FloatCounter, Gauge, Histogram, HistogramSnapshot, Series, SeriesSnapshot,
};
use std::sync::{Arc, Mutex};

/// One registered metric's handle.
#[derive(Debug, Clone)]
enum Handle {
    Counter(Arc<Counter>),
    FloatCounter(Arc<FloatCounter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    Series(Arc<Series>),
}

impl Handle {
    fn kind(&self) -> &'static str {
        match self {
            Handle::Counter(_) => "counter",
            Handle::FloatCounter(_) => "float counter",
            Handle::Gauge(_) => "gauge",
            Handle::Histogram(_) => "histogram",
            Handle::Series(_) => "series",
        }
    }
}

#[derive(Debug)]
struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    help: String,
    handle: Handle,
}

/// A metric registry: the one place a subsystem's counters, gauges,
/// histograms, and series are declared, and the source of [`Snapshot`]s.
///
/// Registration is idempotent on `(name, labels)` — registering the same
/// metric twice returns the existing handle (and panics if the second
/// registration asks for a different metric type, which is always a
/// programming error). The label *sequence* is the identity: callers must
/// pass labels in a consistent order.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// A fresh, empty registry behind an `Arc` (the shape every
    /// instrumented subsystem takes it in).
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    fn register(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        build: impl FnOnce() -> Handle,
    ) -> Handle {
        let mut entries = self.entries.lock().expect("registry poisoned");
        if let Some(entry) = entries
            .iter()
            .find(|e| e.name == name && labels_match(&e.labels, labels))
        {
            return entry.handle.clone();
        }
        let handle = build();
        entries.push(Entry {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            help: help.to_string(),
            handle: handle.clone(),
        });
        handle
    }

    /// Registers (or looks up) a [`Counter`].
    pub fn counter(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Counter> {
        match self.register(name, labels, help, || Handle::Counter(Arc::default())) {
            Handle::Counter(c) => c,
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    /// Registers (or looks up) a [`FloatCounter`].
    pub fn float_counter(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
    ) -> Arc<FloatCounter> {
        match self.register(name, labels, help, || Handle::FloatCounter(Arc::default())) {
            Handle::FloatCounter(c) => c,
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    /// Registers (or looks up) a [`Gauge`].
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Gauge> {
        match self.register(name, labels, help, || Handle::Gauge(Arc::default())) {
            Handle::Gauge(g) => g,
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    /// Registers (or looks up) a [`Histogram`] over `boundaries_us`.
    pub fn histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        boundaries_us: &[u64],
    ) -> Arc<Histogram> {
        match self.register(name, labels, help, || {
            Handle::Histogram(Arc::new(Histogram::new(boundaries_us)))
        }) {
            Handle::Histogram(h) => h,
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    /// Registers (or looks up) a [`Series`].
    pub fn series(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Series> {
        match self.register(name, labels, help, || Handle::Series(Arc::default())) {
            Handle::Series(s) => s,
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    /// Copies every registered metric's current value, in registration
    /// order.
    pub fn snapshot(&self) -> Snapshot {
        let entries = self.entries.lock().expect("registry poisoned");
        Snapshot {
            metrics: entries
                .iter()
                .map(|entry| MetricSnapshot {
                    name: entry.name.clone(),
                    labels: entry.labels.clone(),
                    help: entry.help.clone(),
                    value: match &entry.handle {
                        Handle::Counter(c) => MetricValue::Counter(c.get()),
                        Handle::FloatCounter(c) => MetricValue::FloatCounter(c.get()),
                        Handle::Gauge(g) => MetricValue::Gauge(g.get()),
                        Handle::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                        Handle::Series(s) => MetricValue::Series(s.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

fn labels_match(have: &[(String, String)], want: &[(&str, &str)]) -> bool {
    have.len() == want.len()
        && have
            .iter()
            .zip(want)
            .all(|((hk, hv), (wk, wv))| hk == wk && hv == wv)
}

/// One metric's value inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A [`Counter`]'s current count.
    Counter(u64),
    /// A [`FloatCounter`]'s current sum.
    FloatCounter(f64),
    /// A [`Gauge`]'s current level.
    Gauge(u64),
    /// A [`Histogram`]'s buckets and summary stats.
    Histogram(HistogramSnapshot),
    /// A [`Series`]'s retained reservoir.
    Series(SeriesSnapshot),
}

/// One metric inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// The metric's registered name.
    pub name: String,
    /// Its label pairs, in registration order.
    pub labels: Vec<(String, String)>,
    /// Its help text.
    pub help: String,
    /// Its value at snapshot time.
    pub value: MetricValue,
}

impl MetricSnapshot {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A point-in-time copy of a whole [`Registry`], in registration order —
/// what the exposition formats render and snapshot-derived reports read.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Every registered metric's value.
    pub metrics: Vec<MetricSnapshot>,
}

impl Snapshot {
    /// The metric named `name` carrying exactly `labels` (order-sensitive,
    /// like registration).
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricSnapshot> {
        self.metrics.iter().find(|m| {
            m.name == name
                && m.labels.len() == labels.len()
                && m.labels
                    .iter()
                    .zip(labels)
                    .all(|((hk, hv), (wk, wv))| hk == wk && hv == wv)
        })
    }

    /// A counter's value (0 when absent — an unregistered counter never
    /// counted anything).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.get(name, labels).map(|m| &m.value) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// A float counter's sum (0.0 when absent).
    pub fn float_counter(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        match self.get(name, labels).map(|m| &m.value) {
            Some(MetricValue::FloatCounter(v)) => *v,
            _ => 0.0,
        }
    }

    /// A gauge's level (0 when absent).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.get(name, labels).map(|m| &m.value) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// A series' reservoir, if registered.
    pub fn series(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SeriesSnapshot> {
        match self.get(name, labels).map(|m| &m.value) {
            Some(MetricValue::Series(s)) => Some(s),
            _ => None,
        }
    }

    /// A histogram's snapshot, if registered.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        match self.get(name, labels).map(|m| &m.value) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Every metric named `name` whose label `key` parses as an index,
    /// sorted by that index — how per-lane / per-level / per-size counter
    /// families are read back as dense vectors.
    pub fn family_by(&self, name: &str, key: &str) -> Vec<(usize, &MetricSnapshot)> {
        let mut rows: Vec<(usize, &MetricSnapshot)> = self
            .metrics
            .iter()
            .filter(|m| m.name == name)
            .filter_map(|m| m.label(key).and_then(|v| v.parse().ok()).map(|i| (i, m)))
            .collect();
        rows.sort_by_key(|(i, _)| *i);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_per_name_and_labels() {
        let registry = Registry::new();
        let a = registry.counter("hits", &[("lane", "0")], "hits per lane");
        let b = registry.counter("hits", &[("lane", "0")], "hits per lane");
        let other = registry.counter("hits", &[("lane", "1")], "hits per lane");
        a.inc();
        b.inc();
        other.add(5);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("hits", &[("lane", "0")]), 2);
        assert_eq!(snap.counter("hits", &[("lane", "1")]), 5);
        assert_eq!(snap.metrics.len(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn re_registering_under_a_different_type_panics() {
        let registry = Registry::new();
        let _ = registry.counter("x", &[], "");
        let _ = registry.gauge("x", &[], "");
    }

    #[test]
    fn snapshot_reads_every_metric_kind() {
        let registry = Registry::new();
        registry.counter("c", &[], "a counter").add(3);
        registry.float_counter("f", &[], "a float sum").add(0.25);
        registry.gauge("g", &[], "a gauge").set(9);
        registry
            .histogram("h", &[], "a histogram", &[10, 100])
            .observe(7);
        registry.series("s", &[], "a series").record(42);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("c", &[]), 3);
        assert_eq!(snap.float_counter("f", &[]), 0.25);
        assert_eq!(snap.gauge("g", &[]), 9);
        assert_eq!(snap.histogram("h", &[]).unwrap().count, 1);
        assert_eq!(snap.series("s", &[]).unwrap().samples_us, vec![42]);
        // Absent metrics read as zero, not a panic.
        assert_eq!(snap.counter("missing", &[]), 0);
        assert!(snap.series("missing", &[]).is_none());
    }

    #[test]
    fn family_by_sorts_on_the_parsed_label() {
        let registry = Registry::new();
        registry.counter("served", &[("lane", "2")], "").add(20);
        registry.counter("served", &[("lane", "0")], "").add(5);
        registry.counter("served", &[("lane", "1")], "").add(10);
        let snap = registry.snapshot();
        let family = snap.family_by("served", "lane");
        let values: Vec<(usize, u64)> = family
            .iter()
            .map(|(i, m)| match m.value {
                MetricValue::Counter(v) => (*i, v),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(values, vec![(0, 5), (1, 10), (2, 20)]);
    }

    #[test]
    fn handles_record_lock_free_across_threads() {
        let registry = Registry::new();
        let counter = registry.counter("total", &[], "");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let counter = Arc::clone(&counter);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        counter.inc();
                    }
                });
            }
        });
        assert_eq!(registry.snapshot().counter("total", &[]), 4000);
    }
}
