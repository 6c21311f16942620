//! Every metric the benchmark prints, with its unit: the one table that
//! `BENCHMARK.json` (`--manifest`), the result line and `--smoke` share.

const LOWER: &str = "lower";
const HIGHER: &str = "higher";

/// `(name, unit, better, bound)`: what a client of the server sees. Every
/// workload reports every one; `throughput_per_s` and the latencies describe
/// the workload's own request class (README.md says which). `bound` is the
/// share of the parent's median by which the metric may worsen: the most the
/// contract allows, because the two shared cores this runs on drift in
/// speed by more than a tenth from one run to the next.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", LOWER, 0.25),
    ("throughput_per_s", "1/s", HIGHER, 0.25),
    ("latency_p50_ms", "ms", LOWER, 0.25),
    ("server_rss_mb", "MiB", LOWER, 0.25),
];

/// `(name, unit, better)`, by layer (crate) name.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // server: traced calls, then the server's own numbers.
    ("server.json_parse_us_per_batch", "us", LOWER),
    ("server.codec_encode_us_per_batch", "us", LOWER),
    ("server.json_serialize_us_per_resp", "us", LOWER),
    ("server.state_ingest_us_per_batch", "us", LOWER),
    ("server.requests_total", "count", HIGHER),
    ("server.busy_total", "count", LOWER),
    ("server.exec_p50_us.ingest", "us", LOWER),
    ("server.exec_p50_us.sparql", "us", LOWER),
    ("server.exec_p50_us.heatmap", "us", LOWER),
    ("server.exec_p50_us.hotspots", "us", LOWER),
    ("server.exec_p50_us.flows", "us", LOWER),
    ("server.exec_p50_us.events", "us", LOWER),
    ("server.slow_queue_wait_us", "us", LOWER),
    ("server.slow_exec_us", "us", LOWER),
    ("server.cpu_share", "ratio", LOWER),
    ("net.loop_latency_p50_us", "us", LOWER),
    ("net.loop_iterations_per_req", "count", LOWER),
    ("net.wakeups_per_req", "count", LOWER),
    ("core.ingest_batch_us", "us", LOWER),
    ("core.self_us_per_batch", "us", LOWER),
    ("synopses.cleanse_ns_per_report", "ns", LOWER),
    ("synopses.compress_ns_per_report", "ns", LOWER),
    ("synopses.critical_ns_per_report", "ns", LOWER),
    ("synopses.dropped_ratio", "ratio", LOWER),
    ("synopses.kept_ratio", "ratio", LOWER),
    ("cep.detect_ns_per_report", "ns", LOWER),
    ("cep.events_per_kreport", "count", LOWER),
    ("transform.map_ns_per_kept_report", "ns", LOWER),
    ("transform.triples_per_kept_report", "count", LOWER),
    ("rdf.commit_us_first_quarter", "us", LOWER),
    ("rdf.commit_us_last_quarter", "us", LOWER),
    ("rdf.mirror_sync_us_per_batch", "us", LOWER),
    ("rdf.bytes_per_triple", "B", LOWER),
    ("rdf.graph_triples", "count", LOWER),
    ("rdf.parse_us.lookup", "us", LOWER),
    ("rdf.parse_us.star3", "us", LOWER),
    ("rdf.parse_us.spatial", "us", LOWER),
    ("rdf.parse_us.temporal", "us", LOWER),
    ("rdf.plan_us.lookup", "us", LOWER),
    ("rdf.plan_us.star3", "us", LOWER),
    ("rdf.plan_us.spatial", "us", LOWER),
    ("rdf.plan_us.temporal", "us", LOWER),
    ("rdf.exec_us.lookup", "us", LOWER),
    ("rdf.exec_us.star3", "us", LOWER),
    ("rdf.exec_us.spatial", "us", LOWER),
    ("rdf.exec_us.temporal", "us", LOWER),
    ("rdf.probes_per_row.lookup", "count", LOWER),
    ("rdf.probes_per_row.star3", "count", LOWER),
    ("rdf.probes_per_row.spatial", "count", LOWER),
    ("rdf.probes_per_row.temporal", "count", LOWER),
    ("rdf.morsels_per_query", "count", LOWER),
    ("rdf.steals_per_query", "count", LOWER),
    ("rdf.workers_used", "count", HIGHER),
    ("rdf.morsels_total", "count", HIGHER),
    ("viz.update_ns_per_report", "ns", LOWER),
    ("viz.heatmap_us", "us", LOWER),
    ("viz.hotspots_us", "us", LOWER),
    ("viz.flows_us", "us", LOWER),
    ("storage.fsyncs_per_kbatch", "count", LOWER),
    ("storage.fsync_p50_us", "us", LOWER),
    ("storage.avg_group_size", "count", HIGHER),
    ("storage.disk_bytes_per_report", "B", LOWER),
    ("storage.wal_bytes", "B", LOWER),
    ("storage.snapshots_installed", "count", HIGHER),
    ("storage.replayed_records", "count", LOWER),
    // The generator itself, the tracer, and diagnostics that do not
    // repeat within a tenth on a shared two-core box.
    ("gen.late_p99_ms", "ms", LOWER),
    ("gen.cpu_share", "ratio", LOWER),
    ("trace.overhead_ratio", "ratio", LOWER),
    ("diag.latency_p95_ms", "ms", LOWER),
    ("diag.latency_p99_ms", "ms", LOWER),
    ("diag.latency_max_ms", "ms", LOWER),
    ("diag.tail_percentile", "%", HIGHER),
    ("diag.latency_tail_ms", "ms", LOWER),
    ("diag.samples", "count", HIGHER),
    ("diag.p50_ms.lookup", "ms", LOWER),
    ("diag.p50_ms.star3", "ms", LOWER),
    ("diag.p50_ms.spatial", "ms", LOWER),
    ("diag.p50_ms.temporal", "ms", LOWER),
    ("diag.p50_ms.heatmap", "ms", LOWER),
    ("diag.p50_ms.hotspots", "ms", LOWER),
    ("diag.p50_ms.flows", "ms", LOWER),
    ("diag.p50_ms.events", "ms", LOWER),
    ("diag.p50_ms.ingest", "ms", LOWER),
    ("diag.p95_ms.ingest", "ms", LOWER),
    ("ingest.first_quarter_reports_per_s", "1/s", HIGHER),
    ("ingest.last_quarter_reports_per_s", "1/s", HIGHER),
    ("mixed.slo_miss_ratio", "ratio", LOWER),
];

/// The metrics a run with `--trace` set so prints, with their units.
pub fn expected(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.0, m.1)).collect()
    }
}
