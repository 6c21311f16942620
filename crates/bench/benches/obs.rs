//! E17 timing: observability overhead on the serving hot path.
//!
//! Measures the per-operation cost of everything the server adds to a
//! request for observability: a histogram record, a counter increment,
//! opening/closing a trace span, a slow-log offer below the admission
//! floor, and a full registry render (the `metrics` request itself).

use criterion::{criterion_group, criterion_main, Criterion};
use datacron_obs::{ClockSource, MonotonicClock, Registry, SlowLog, Trace};
use datacron_obs::{LatencyHistogram, Stopwatch};
use std::hint::black_box;
use std::sync::Arc;

fn bench_obs(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs");

    group.bench_function("histogram_observe", |b| {
        let h = LatencyHistogram::new();
        b.iter(|| {
            let t = Stopwatch::start();
            h.observe(black_box(&t));
        })
    });

    group.bench_function("counter_inc", |b| {
        let registry = Registry::new();
        let counter = registry.counter("bench_total", &[("k", "v")]);
        b.iter(|| counter.inc())
    });

    group.bench_function("trace_span", |b| {
        let clock: Arc<dyn ClockSource> = Arc::new(MonotonicClock::new());
        b.iter(|| {
            let mut trace = Trace::start(Arc::clone(&clock));
            let begin = trace.begin();
            trace.end_span("exec", begin);
            black_box(trace.total_us())
        })
    });

    group.bench_function("slowlog_fast_reject", |b| {
        // A full log with a high floor: the record call must stay on the
        // lock-free fast path, which is what every sub-floor request pays.
        let log = SlowLog::new(4);
        for us in [1_000_000, 1_000_001, 1_000_002, 1_000_003] {
            log.record("warm", us, Vec::new(), String::new);
        }
        assert!(log.threshold_us() > 0);
        b.iter(|| log.record(black_box("sparql"), black_box(5), Vec::new(), String::new))
    });

    group.bench_function("registry_render", |b| {
        let registry = Registry::new();
        for tag in ["ingest", "sparql", "heatmap", "stats"] {
            let h = registry.histogram("bench_latency_us", &[("type", tag)]);
            for i in 0..1_000u64 {
                h.record_us(1 + i % 512);
            }
        }
        for i in 0..8u64 {
            registry
                .counter("bench_events_total", &[("kind", &format!("k{i}"))])
                .add(i);
        }
        registry.collector(|sink| sink.gauge("bench_queue_depth", &[], 3));
        b.iter(|| black_box(registry.render().len()))
    });

    group.finish();
}

criterion_group!(benches, bench_obs);
criterion_main!(benches);
