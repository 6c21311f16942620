//! Loopback tests for the observability surface: the unified `metrics`
//! registry exposition and the `slowlog` span breakdowns, plus `stats`
//! scrapes racing live workers.

use datacron_core::PipelineConfig;
use datacron_geo::BoundingBox;
use datacron_server::client::is_ok;
use datacron_server::{start, Client, Json, ServerConfig};
use datacron_storage::test_util::TempDir;
use std::net::SocketAddr;
use std::thread;
use std::time::Duration;

fn test_config() -> ServerConfig {
    ServerConfig {
        pipeline: PipelineConfig {
            region: BoundingBox::new(19.0, 33.0, 30.0, 41.0),
            ..PipelineConfig::default()
        },
        heat_cell_deg: 0.25,
        ..ServerConfig::default()
    }
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect_timeout(addr, Duration::from_secs(10)).expect("connect")
}

fn ingest_request(object: u64, t0_s: i64, n: usize, lon0: f64, lat: f64) -> Json {
    let reports: Vec<Json> = (0..n)
        .map(|i| {
            Json::obj()
                .field("object", object)
                .field("t_ms", (t0_s + i as i64 * 10) * 1000)
                .field("lon", lon0 + i as f64 * 0.01)
                .field("lat", lat)
                .field("speed_mps", 6.0)
                .field("heading_deg", 90.0)
                .build()
        })
        .collect();
    Json::obj()
        .field("type", "ingest")
        .field("reports", Json::Arr(reports))
        .build()
}

fn sparql_request(object: u64) -> Json {
    Json::obj()
        .field("type", "sparql")
        .field(
            "query",
            format!("SELECT ?n WHERE {{ ?n da:ofMovingObject da:obj/{object} }}"),
        )
        .build()
}

#[test]
fn metrics_exposition_covers_every_subsystem() {
    let dir = TempDir::new("obs-metrics");
    let handle = start(ServerConfig {
        data_dir: Some(dir.path().to_path_buf()),
        ..test_config()
    })
    .expect("server start");
    let mut c = connect(handle.local_addr);

    // Exercise the write path (pipeline stages + WAL) and the read path.
    let resp = c.call(&ingest_request(1, 0, 40, 21.0, 37.0)).unwrap();
    assert!(is_ok(&resp), "{resp}");
    let resp = c.call(&sparql_request(1)).unwrap();
    assert!(is_ok(&resp), "{resp}");

    let resp = c
        .call(&Json::obj().field("type", "metrics").build())
        .unwrap();
    assert!(is_ok(&resp), "{resp}");
    let text = resp
        .get("exposition")
        .and_then(Json::as_str)
        .expect("exposition string")
        .to_string();

    // One snapshot covers request types, pipeline stages, queue depth,
    // and WAL durability — the whole serving path in one scrape.
    for family in [
        "# TYPE datacron_request_latency_us summary",
        "# TYPE datacron_pipeline_stage_latency_us summary",
        "# TYPE datacron_wal_fsync_latency_us summary",
        "# TYPE datacron_queue_depth gauge",
        "# TYPE datacron_queue_capacity gauge",
        "# TYPE datacron_requests_total counter",
        "# TYPE datacron_connections_total counter",
        "# TYPE datacron_pipeline_reports_total counter",
        "# TYPE datacron_graph_triples gauge",
        "# TYPE datacron_wal_bytes gauge",
        "# TYPE datacron_wal_fsyncs_total counter",
        "# TYPE datacron_wal_acks_parked_total counter",
        "# TYPE datacron_storage_snapshot_in_flight gauge",
        "# TYPE datacron_storage_snapshot_serialize_latency_us summary",
        "# TYPE datacron_storage_snapshot_write_latency_us summary",
    ] {
        assert!(text.contains(family), "missing {family:?} in:\n{text}");
    }
    // The durable write path times its own stages: one record written,
    // one ack released by the watermark — parked for the fsync thread or
    // fired inline, so at most one parked.
    for series in [
        "datacron_wal_append_latency_us_count 1\n",
        "datacron_ingest_durable_wait_latency_us_count 1\n",
    ] {
        assert!(text.contains(series), "missing {series:?} in:\n{text}");
    }
    let counter = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse::<u64>().ok())
            .unwrap_or_else(|| panic!("no {name} sample in:\n{text}"))
    };
    assert!(counter("datacron_wal_acks_parked_total") <= 1);
    assert!(
        text.contains(r#"datacron_request_latency_us{type="ingest",quantile="0.5"}"#),
        "missing ingest latency quantile:\n{text}"
    );
    assert!(
        text.contains(r#"datacron_pipeline_stage_latency_us{stage="cleanse""#),
        "missing cleanse stage:\n{text}"
    );
    // The store commit is a stage of its own: one sample per ingest batch.
    assert!(
        text.contains("datacron_pipeline_stage_latency_us_count{stage=\"commit\"} 1\n"),
        "missing commit stage:\n{text}"
    );

    // Counter values reflect the work just done.
    let reports_in = text
        .lines()
        .find_map(|l| l.strip_prefix(r#"datacron_pipeline_reports_total{stage="in"} "#))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("reports_total{stage=in} sample");
    assert!(reports_in >= 40, "reports_in = {reports_in}");

    // Every sample line is well-formed exposition: `name[{labels}] value`.
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("sample has a value");
        assert!(!name.is_empty(), "bad line {line:?}");
        assert!(value.parse::<u64>().is_ok(), "bad value in {line:?}");
    }

    handle.shutdown();
}

#[test]
fn pair_candidates_are_a_scrapeable_count() {
    let handle = start(test_config()).expect("server start");
    let mut c = connect(handle.local_addr);

    // Two vessels 200 m apart, three plausible fixes each (6 m/s east),
    // interleaved in one batch. Every report but the very first finds the
    // other vessel's latest fix in both pair detectors' cell indexes:
    // 5 reports x 2 detectors.
    let reports: Vec<Json> = (0..6)
        .map(|i| {
            let (vessel, step) = (i % 2, i / 2);
            Json::obj()
                .field("object", 7 + vessel as u64)
                .field("t_ms", step as i64 * 10_000 + vessel as i64 * 1_000)
                .field("lon", 25.0 + step as f64 * 0.000_68)
                .field("lat", 36.0 + vessel as f64 * 0.001_8)
                .field("speed_mps", 6.0)
                .field("heading_deg", 90.0)
                .build()
        })
        .collect();
    let ingest = Json::obj()
        .field("type", "ingest")
        .field("reports", Json::Arr(reports))
        .build();
    let resp = c.call(&ingest).unwrap();
    assert!(is_ok(&resp), "{resp}");
    assert_eq!(resp.get("clean").and_then(Json::as_u64), Some(6), "{resp}");

    let resp = c
        .call(&Json::obj().field("type", "metrics").build())
        .unwrap();
    let text = resp
        .get("exposition")
        .and_then(Json::as_str)
        .expect("exposition string");
    assert!(
        text.contains("# TYPE datacron_cep_pair_candidates_total counter"),
        "{text}"
    );
    assert!(
        text.contains("datacron_cep_pair_candidates_total 10\n"),
        "{text}"
    );
    let resp = c.call(&Json::obj().field("type", "stats").build()).unwrap();
    let stats = resp.get("pipeline").expect("stats.pipeline");
    assert_eq!(
        stats.get("pair_candidates").and_then(Json::as_u64),
        Some(10),
        "{resp}"
    );
    handle.shutdown();
}

#[test]
fn slowlog_reports_span_breakdowns() {
    let dir = TempDir::new("obs-slowlog");
    let handle = start(ServerConfig {
        data_dir: Some(dir.path().to_path_buf()),
        ..test_config()
    })
    .expect("server start");
    let mut c = connect(handle.local_addr);

    // First request on the connection: ingest (gets the queue_wait span).
    let resp = c.call(&ingest_request(7, 0, 40, 21.0, 37.0)).unwrap();
    assert!(is_ok(&resp), "{resp}");
    let resp = c.call(&sparql_request(7)).unwrap();
    assert!(is_ok(&resp), "{resp}");
    // A guaranteed-slow request so ordering is observable: a read that
    // waits out this thread's hold of the state write lock.
    let hold = handle.state.write();
    c.send(&Json::obj().field("type", "heatmap").build())
        .unwrap();
    std::thread::sleep(Duration::from_millis(80));
    drop(hold);
    let resp = c.recv().unwrap();
    assert!(is_ok(&resp), "{resp}");

    let resp = c
        .call(
            &Json::obj()
                .field("type", "slowlog")
                .field("limit", 10u64)
                .build(),
        )
        .unwrap();
    assert!(is_ok(&resp), "{resp}");
    let entries = resp
        .get("entries")
        .and_then(Json::as_array)
        .expect("entries array")
        .to_vec();
    assert!(entries.len() >= 3, "expected >= 3 entries: {resp}");
    assert!(resp.get("capacity").and_then(Json::as_u64).unwrap() >= 1);

    // Slowest-first ordering.
    let totals: Vec<u64> = entries
        .iter()
        .map(|e| e.get("total_us").and_then(Json::as_u64).unwrap())
        .collect();
    assert!(totals.windows(2).all(|w| w[0] >= w[1]), "{totals:?}");

    let span_names = |e: &Json| -> Vec<String> {
        e.get("spans")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|s| s.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    };
    let find = |tag: &str| -> &Json {
        entries
            .iter()
            .find(|e| e.get("type").and_then(Json::as_str) == Some(tag))
            .unwrap_or_else(|| panic!("no {tag} entry in {entries:?}"))
    };

    // The held read really took >= 50 ms end to end.
    let held = find("heatmap");
    assert!(held.get("total_us").and_then(Json::as_u64).unwrap() >= 50_000);
    let names = span_names(held);
    assert!(names.contains(&"exec".to_string()), "{names:?}");
    assert!(names.contains(&"serialize".to_string()), "{names:?}");

    // The ingest breakdown includes the WAL append and (as the first
    // request of this connection) the admission-queue wait.
    let ingest = find("ingest");
    let names = span_names(ingest);
    assert!(names.contains(&"wal_append".to_string()), "{names:?}");
    assert!(names.contains(&"queue_wait".to_string()), "{names:?}");
    assert_eq!(
        ingest.get("detail").and_then(Json::as_str),
        Some("batch of 40")
    );

    // The sparql breakdown carries the engine's own planning number.
    let sparql = find("sparql");
    let names = span_names(sparql);
    assert!(names.contains(&"planning".to_string()), "{names:?}");
    assert!(
        sparql
            .get("detail")
            .and_then(Json::as_str)
            .unwrap()
            .starts_with("SELECT"),
        "{sparql}"
    );

    handle.shutdown();
}

#[test]
fn concurrent_stats_and_metrics_while_workers_record() {
    let handle = start(test_config()).expect("server start");
    let addr = handle.local_addr;

    let mut threads = Vec::new();
    // Writers keep the pipeline-stage and request histograms hot...
    for w in 0..2u64 {
        threads.push(thread::spawn(move || {
            let mut c = connect(addr);
            for round in 0..8 {
                let resp = c
                    .call(&ingest_request(30 + w, round * 500, 20, 21.0, 36.5))
                    .unwrap();
                assert!(is_ok(&resp), "{resp}");
            }
        }));
    }
    // ...while scrapers hammer stats + metrics, racing the observers.
    for _ in 0..3u64 {
        threads.push(thread::spawn(move || {
            let mut c = connect(addr);
            for _ in 0..8 {
                let resp = c.call(&Json::obj().field("type", "stats").build()).unwrap();
                assert!(is_ok(&resp), "{resp}");
                let resp = c
                    .call(&Json::obj().field("type", "metrics").build())
                    .unwrap();
                assert!(is_ok(&resp), "{resp}");
                assert!(resp
                    .get("exposition")
                    .and_then(Json::as_str)
                    .unwrap()
                    .contains("# TYPE"));
            }
        }));
    }
    for t in threads {
        t.join().expect("client thread panicked");
    }

    // After the dust settles the registry agrees with the counters.
    let mut c = connect(addr);
    let resp = c
        .call(&Json::obj().field("type", "metrics").build())
        .unwrap();
    let text = resp.get("exposition").and_then(Json::as_str).unwrap();
    let ok_total = text
        .lines()
        .find_map(|l| l.strip_prefix(r#"datacron_requests_total{outcome="ok"} "#))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap();
    // 2 writers * 8 ingests + 3 scrapers * 16 calls = 64, plus this one.
    assert!(ok_total >= 64, "ok_total = {ok_total}");

    handle.shutdown();
}
