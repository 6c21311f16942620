//! The unified metrics registry with Prometheus-style text exposition.
//!
//! Three metric shapes cover the workspace: monotonic [`Counter`]s,
//! point-in-time [`Gauge`]s, and the existing log-bucket
//! [`LatencyHistogram`] (exposed as a Prometheus summary with p50/p90/p99
//! quantiles). Values that only exist behind a lock (pipeline counters,
//! WAL stats, queue depth) are contributed at scrape time by registered
//! *collector* closures writing into a [`Sink`].
//!
//! Locking contract: [`Registry::render`] never holds a registry lock
//! while running collectors, so a collector may take any state or
//! storage lock without ordering against the registry.

use crate::histogram::LatencyHistogram;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter. Cloning shares the underlying
/// value; the registry hands out clones of the registered handle.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        // ordering: pure statistic; readers only want an eventual count,
        // no data is published through this atomic.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ordering: statistic read; staleness is acceptable by contract.
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable point-in-time value. Cloning shares the underlying value.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: u64) {
        // ordering: last-writer-wins point-in-time value; no other data
        // is ordered against it.
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ordering: statistic read; staleness is acceptable by contract.
        self.0.load(Ordering::Relaxed)
    }
}

/// Owned label pairs, normalised for identity comparison.
type Labels = Vec<(String, String)>;

fn to_labels(labels: &[(&str, &str)]) -> Labels {
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// The scrape-time output accumulator collectors write into.
///
/// Samples are grouped into families by metric name; the first kind
/// registered for a name wins its `# TYPE` line.
#[derive(Debug, Default)]
pub struct Sink {
    families: BTreeMap<String, Family>,
}

#[derive(Debug)]
struct Family {
    kind: &'static str,
    lines: Vec<String>,
}

/// Renders `{k="v",…}` with minimal escaping, empty string for no labels.
fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

impl Sink {
    fn push(&mut self, name: &str, kind: &'static str, line: String) {
        self.families
            .entry(name.to_string())
            .or_insert_with(|| Family {
                kind,
                lines: Vec::new(),
            })
            .lines
            .push(line);
    }

    /// Emits one counter sample.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        let line = format!("{name}{} {value}", render_labels(labels));
        self.push(name, "counter", line);
    }

    /// Emits one gauge sample.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        let line = format!("{name}{} {value}", render_labels(labels));
        self.push(name, "gauge", line);
    }

    /// Emits a latency histogram as a Prometheus summary: p50/p90/p99
    /// quantiles plus `_sum`, `_count`, and `_max` series.
    pub fn summary(&mut self, name: &str, labels: &[(&str, &str)], h: &LatencyHistogram) {
        for (q, tag) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
            let mut with_q: Vec<(&str, &str)> = labels.to_vec();
            with_q.push(("quantile", tag));
            let line = format!("{name}{} {}", render_labels(&with_q), h.quantile_us(q));
            self.push(name, "summary", line);
        }
        let ls = render_labels(labels);
        let sum = format!("{name}_sum{ls} {}", h.sum_us());
        let count = format!("{name}_count{ls} {}", h.count());
        let max = format!("{name}_max{ls} {}", h.max_us());
        self.push(name, "summary", sum);
        self.push(name, "summary", count);
        self.push(name, "summary", max);
    }

    /// Renders the accumulated families as Prometheus text exposition.
    fn render(&self) -> String {
        let mut out = String::new();
        for (name, fam) in &self.families {
            let _ = writeln!(out, "# TYPE {name} {}", fam.kind);
            for line in &fam.lines {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }
}

/// One registry for the whole process: counters, gauges, shared
/// histograms, and scrape-time collectors, rendered together by
/// [`Registry::render`].
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
    #[allow(clippy::type_complexity)]
    collectors: Mutex<Vec<Arc<dyn Fn(&mut Sink) + Send + Sync>>>,
}

#[derive(Default)]
struct Inner {
    counters: Vec<(String, Labels, Counter)>,
    gauges: Vec<(String, Labels, Gauge)>,
    histograms: Vec<(String, Labels, Arc<LatencyHistogram>)>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The two locks are taken one after the other, never nested.
        let (counters, gauges, histograms) = {
            let inner = self.inner.lock();
            (
                inner.counters.len(),
                inner.gauges.len(),
                inner.histograms.len(),
            )
        };
        let collectors = self.collectors.lock().len();
        f.debug_struct("Registry")
            .field("counters", &counters)
            .field("gauges", &gauges)
            .field("histograms", &histograms)
            .field("collectors", &collectors)
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter registered under `name` + `labels`, creating
    /// it on first call (idempotent: later calls share the same value).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let labels = to_labels(labels);
        let mut inner = self.inner.lock();
        if let Some((_, _, c)) = inner
            .counters
            .iter()
            .find(|(n, l, _)| n == name && *l == labels)
        {
            return c.clone();
        }
        let c = Counter::default();
        inner.counters.push((name.to_string(), labels, c.clone()));
        c
    }

    /// Returns the gauge registered under `name` + `labels`, creating it
    /// on first call.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let labels = to_labels(labels);
        let mut inner = self.inner.lock();
        if let Some((_, _, g)) = inner
            .gauges
            .iter()
            .find(|(n, l, _)| n == name && *l == labels)
        {
            return g.clone();
        }
        let g = Gauge::default();
        inner.gauges.push((name.to_string(), labels, g.clone()));
        g
    }

    /// Creates and registers a fresh shared histogram under `name` +
    /// `labels` (or returns the existing one).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<LatencyHistogram> {
        let labels = to_labels(labels);
        let mut inner = self.inner.lock();
        if let Some((_, _, h)) = inner
            .histograms
            .iter()
            .find(|(n, l, _)| n == name && *l == labels)
        {
            return Arc::clone(h);
        }
        let h = Arc::new(LatencyHistogram::new());
        inner
            .histograms
            .push((name.to_string(), labels, Arc::clone(&h)));
        h
    }

    /// Registers an *existing* shared histogram (e.g. a pipeline stage's
    /// or the WAL's fsync histogram) under `name` + `labels`. Replaces
    /// any histogram previously registered under the same identity.
    pub fn register_histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        h: Arc<LatencyHistogram>,
    ) {
        let labels = to_labels(labels);
        let mut inner = self.inner.lock();
        if let Some(slot) = inner
            .histograms
            .iter_mut()
            .find(|(n, l, _)| n == name && *l == labels)
        {
            slot.2 = h;
            return;
        }
        inner.histograms.push((name.to_string(), labels, h));
    }

    /// Registers a scrape-time collector. Collectors run on every
    /// [`Registry::render`] with no registry lock held, so they may take
    /// whatever locks guard the values they report.
    pub fn collector(&self, f: impl Fn(&mut Sink) + Send + Sync + 'static) {
        self.collectors.lock().push(Arc::new(f));
    }

    /// Renders every registered metric plus every collector's samples as
    /// Prometheus text exposition, families sorted by name.
    pub fn render(&self) -> String {
        let mut sink = Sink::default();
        {
            let inner = self.inner.lock();
            for (name, labels, c) in &inner.counters {
                let borrowed: Vec<(&str, &str)> = labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                sink.counter(name, &borrowed, c.get());
            }
            for (name, labels, g) in &inner.gauges {
                let borrowed: Vec<(&str, &str)> = labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                sink.gauge(name, &borrowed, g.get());
            }
            for (name, labels, h) in &inner.histograms {
                let borrowed: Vec<(&str, &str)> = labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                sink.summary(name, &borrowed, h);
            }
        }
        let collectors: Vec<_> = self.collectors.lock().clone();
        for f in &collectors {
            f(&mut sink);
        }
        sink.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("requests_total", &[("type", "ingest")]);
        c.inc();
        c.add(2);
        assert_eq!(c.get(), 3);
        // Idempotent registration shares the value.
        let c2 = r.counter("requests_total", &[("type", "ingest")]);
        c2.inc();
        assert_eq!(c.get(), 4);
        // Different labels get a different value.
        let other = r.counter("requests_total", &[("type", "sparql")]);
        assert_eq!(other.get(), 0);

        let g = r.gauge("queue_depth", &[]);
        g.set(7);
        assert_eq!(r.gauge("queue_depth", &[]).get(), 7);
    }

    #[test]
    fn render_emits_type_headers_and_samples() {
        let r = Registry::new();
        r.counter("a_total", &[("k", "v")]).add(5);
        r.gauge("b_depth", &[]).set(9);
        let h = r.histogram("c_latency_us", &[("stage", "exec")]);
        h.record_us(100);
        h.record_us(200);
        let text = r.render();
        assert!(text.contains("# TYPE a_total counter\n"), "{text}");
        assert!(text.contains("a_total{k=\"v\"} 5\n"), "{text}");
        assert!(text.contains("# TYPE b_depth gauge\n"), "{text}");
        assert!(text.contains("b_depth 9\n"), "{text}");
        assert!(text.contains("# TYPE c_latency_us summary\n"), "{text}");
        assert!(
            text.contains("c_latency_us{stage=\"exec\",quantile=\"0.99\"}"),
            "{text}"
        );
        assert!(
            text.contains("c_latency_us_count{stage=\"exec\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("c_latency_us_sum{stage=\"exec\"} 300\n"),
            "{text}"
        );
        assert!(
            text.contains("c_latency_us_max{stage=\"exec\"} 200\n"),
            "{text}"
        );
    }

    #[test]
    fn register_existing_histogram_shares_samples() {
        let r = Registry::new();
        let h = Arc::new(LatencyHistogram::new());
        r.register_histogram("fsync_us", &[], Arc::clone(&h));
        h.record_us(42);
        assert!(r.render().contains("fsync_us_count 1\n"));
    }

    #[test]
    fn collectors_run_at_render_time() {
        let r = Registry::new();
        let v = Arc::new(AtomicU64::new(1));
        let vc = Arc::clone(&v);
        r.collector(move |sink| {
            sink.gauge("live_value", &[], vc.load(Ordering::Relaxed));
        });
        assert!(r.render().contains("live_value 1\n"));
        v.store(5, Ordering::Relaxed);
        assert!(r.render().contains("live_value 5\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter("weird_total", &[("q", "say \"hi\"\\\n")]).inc();
        let text = r.render();
        assert!(
            text.contains("weird_total{q=\"say \\\"hi\\\"\\\\\\n\"} 1\n"),
            "{text}"
        );
    }

    #[test]
    fn families_sorted_by_name() {
        let r = Registry::new();
        r.counter("zz_total", &[]).inc();
        r.counter("aa_total", &[]).inc();
        let text = r.render();
        let a = text.find("aa_total").unwrap_or(usize::MAX);
        let z = text.find("zz_total").unwrap_or(0);
        assert!(a < z, "{text}");
    }
}
