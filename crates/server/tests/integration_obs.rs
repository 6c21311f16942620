//! Loopback tests for the observability surface: the unified `metrics`
//! registry exposition, `stats` as the same samples under one rule, and
//! the `slowlog` span breakdowns, plus scrapes racing live workers.

use datacron_core::{Pipeline, PipelineConfig};
use datacron_geo::{BoundingBox, GeoPoint, TimeMs};
use datacron_model::{NavStatus, ObjectId, PositionReport, SourceId};
use datacron_server::client::is_ok;
use datacron_server::protocol::report_to_json;
use datacron_server::{start, Client, Json, ServerConfig};
use datacron_storage::test_util::TempDir;
use datacron_storage::StorageConfig;
use std::collections::HashSet;
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

/// `n` fixes of one vessel 10 s and 0.01° apart, heading east at 6 m/s.
fn reports(object: u64, t0_s: i64, n: usize, lon0: f64, lat: f64) -> Vec<PositionReport> {
    (0..n)
        .map(|i| {
            PositionReport::maritime(
                ObjectId(object),
                TimeMs((t0_s + i as i64 * 10) * 1000),
                GeoPoint::new(lon0 + i as f64 * 0.01, lat),
                6.0,
                90.0,
                SourceId::AIS_TERRESTRIAL,
                NavStatus::UnderWay,
            )
        })
        .collect()
}

fn ingest_request(object: u64, t0_s: i64, n: usize, lon0: f64, lat: f64) -> Json {
    let reports = reports(object, t0_s, n, lon0, lat);
    Json::obj()
        .field("type", "ingest")
        .field(
            "reports",
            Json::Arr(reports.iter().map(report_to_json).collect()),
        )
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
        "# TYPE datacron_pipeline_reports_in_total counter",
        "# TYPE datacron_graph_triples gauge",
        "# TYPE datacron_graph_terms gauge",
        "# TYPE datacron_graph_folds_total counter",
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
        .find_map(|l| l.strip_prefix("datacron_pipeline_reports_in_total "))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("reports_in_total sample");
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
    let cep = resp.get("cep").expect("stats.cep");
    assert_eq!(
        cep.get("pair_candidates").and_then(Json::as_u64),
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

/// Parses `k="v",…` (the inside of an exposition label set), undoing the
/// `\\`, `\"` and `\n` escapes.
fn parse_labels(s: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut chars = s.chars();
    loop {
        let key: String = chars.by_ref().take_while(|&c| c != '=').collect();
        if key.is_empty() {
            return out;
        }
        assert_eq!(chars.next(), Some('"'), "label {key} in {s}");
        let mut value = String::new();
        while let Some(c) = chars.next() {
            match c {
                '"' => break,
                '\\' => match chars.next() {
                    Some('n') => value.push('\n'),
                    Some(c) => value.push(c),
                    None => panic!("dangling escape in {s}"),
                },
                c => value.push(c),
            }
        }
        out.push((key, value));
        chars.next(); // the ',' between pairs, or nothing
    }
}

/// Where the `stats` rule puts one exposition sample line, with its
/// value: `datacron_<section>_<name>[_total]{k="v",…}` → `section`,
/// `name`, then each label value; a summary's `quantile` label and its
/// `_sum`/`_count`/`_max` series become the last key instead.
fn rule_path(line: &str, summaries: &HashSet<&str>) -> (Vec<String>, u64) {
    let (series, value) = line.rsplit_once(' ').expect("sample has a value");
    let value = value.parse().expect("integral sample value");
    let (name, mut labels) = match series.split_once('{') {
        Some((name, rest)) => (name, parse_labels(rest.strip_suffix('}').unwrap())),
        None => (series, Vec::new()),
    };
    let mut field = None;
    let mut family = name;
    if !summaries.contains(name) {
        for (suffix, f) in [("_sum", "sum"), ("_count", "count"), ("_max", "max")] {
            match name.strip_suffix(suffix) {
                Some(base) if summaries.contains(base) => (family, field) = (base, Some(f)),
                _ => {}
            }
        }
    }
    if let Some(i) = labels.iter().position(|(k, _)| k == "quantile") {
        let (_, q) = labels.remove(i);
        field = Some(match q.as_str() {
            "0.5" => "p50",
            "0.9" => "p90",
            "0.99" => "p99",
            other => panic!("unexpected quantile {other}"),
        });
    }
    let base = family.strip_prefix("datacron_").expect("datacron_ prefix");
    let base = base.strip_suffix("_total").unwrap_or(base);
    let mut path: Vec<String> = match base.split_once('_') {
        Some((section, name)) => vec![section.into(), name.into()],
        None => vec![base.into()],
    };
    path.extend(labels.into_iter().map(|(_, v)| v));
    path.extend(field.map(String::from));
    (path, value)
}

/// Every numeric leaf of a `stats` reply with its path.
fn leaves(v: &Json, path: &mut Vec<String>, out: &mut Vec<(Vec<String>, u64)>) {
    match v {
        Json::Obj(fields) => {
            for (k, child) in fields {
                path.push(k.clone());
                leaves(child, path, out);
                path.pop();
            }
        }
        leaf => out.push((
            path.clone(),
            leaf.as_u64()
                .unwrap_or_else(|| panic!("{} = {leaf}", path.join("."))),
        )),
    }
}

/// Scrapes `stats` then `metrics` on a quiet server and checks they are
/// one sample list: the same series under the rule, and the same values
/// wherever the two scrapes themselves cannot move them. Returns the
/// `stats` reply.
fn assert_one_surface(c: &mut Client) -> Json {
    let stats = c.call(&Json::obj().field("type", "stats").build()).unwrap();
    assert!(is_ok(&stats), "{stats}");
    let resp = c
        .call(&Json::obj().field("type", "metrics").build())
        .unwrap();
    let text = resp.get("exposition").and_then(Json::as_str).unwrap();
    let summaries: HashSet<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE ")?.strip_suffix(" summary"))
        .collect();
    let mut from_metrics: Vec<(Vec<String>, u64)> = text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|l| rule_path(l, &summaries))
        .collect();
    let Json::Obj(fields) = &stats else {
        panic!("{stats}")
    };
    let mut from_stats = Vec::new();
    for (k, v) in fields {
        if !["id", "ok", "uptime_ms"].contains(&k.as_str()) {
            leaves(v, &mut vec![k.clone()], &mut from_stats);
        }
    }
    from_metrics.sort();
    from_stats.sort();
    let paths =
        |v: &[(Vec<String>, u64)]| -> Vec<String> { v.iter().map(|(p, _)| p.join(".")).collect() };
    assert_eq!(paths(&from_stats), paths(&from_metrics));

    // Requests, their latencies, the reactor's loop and the slow log
    // count the scrapes themselves; a snapshot's age is a clock reading.
    let moved = |p: &[String]| {
        ["requests", "request", "net", "slowlog"].contains(&p[0].as_str())
            || p.join(".") == "storage.snapshot_age_us"
    };
    let mut compared = 0;
    for ((path, a), (_, b)) in from_stats.iter().zip(&from_metrics) {
        if !moved(path) {
            assert_eq!(a, b, "{}", path.join("."));
            compared += 1;
        }
    }
    assert!(compared >= 20, "only {compared} series compared");
    stats
}

#[test]
fn stats_and_metrics_are_one_surface() {
    // A durable leader after an ingest and a snapshot.
    let dir = TempDir::new("obs-one-surface");
    let handle = start(ServerConfig {
        data_dir: Some(dir.path().to_path_buf()),
        storage: StorageConfig {
            snapshot_every_records: 1,
            ..StorageConfig::default()
        },
        ..test_config()
    })
    .expect("server start");
    let mut c = connect(handle.local_addr);
    let resp = c.call(&ingest_request(3, 0, 40, 21.0, 37.0)).unwrap();
    assert!(is_ok(&resp), "{resp}");
    // The threshold snapshot is written off the serving path.
    let u64_at = |v: &Json, section: &str, key: &str| {
        v.get(section)
            .and_then(|s| s.get(key))
            .and_then(Json::as_u64)
    };
    for _ in 0..1000 {
        let s = c.call(&Json::obj().field("type", "stats").build()).unwrap();
        if u64_at(&s, "storage", "last_snapshot_seq") == Some(1)
            && u64_at(&s, "storage", "snapshot_in_flight") == Some(0)
        {
            break;
        }
        thread::sleep(Duration::from_millis(5));
    }
    let stats = assert_one_surface(&mut c);
    assert_eq!(u64_at(&stats, "storage", "last_snapshot_seq"), Some(1));
    assert_eq!(u64_at(&stats, "wal", "next_seq"), Some(1));
    assert_eq!(u64_at(&stats, "pipeline", "reports_in"), Some(40));
    assert!(u64_at(&stats, "graph", "triples").unwrap() > 0);
    // One commit into an empty graph lands in the base: no fold.
    assert_eq!(u64_at(&stats, "graph", "folds"), Some(0));
    let recovery = stats.get("storage").and_then(|s| s.get("recovery_us"));
    for phase in ["wal_open", "snapshot_load", "wal_read", "restore", "replay"] {
        assert!(recovery.and_then(|r| r.get(phase)).is_some(), "{stats}");
    }
    assert_eq!(
        stats.get("repl").and_then(|r| r.get("role")),
        Some(&Json::obj().field("leader", 1u64).build())
    );
    drop(c);
    handle.shutdown();

    // An in-memory server.
    let handle = start(test_config()).expect("server start");
    let mut c = connect(handle.local_addr);
    let resp = c.call(&ingest_request(4, 0, 40, 21.0, 37.0)).unwrap();
    assert!(is_ok(&resp), "{resp}");
    // A second batch as large as the first outgrows the delta's share of
    // the base, so its commit folds.
    let resp = c.call(&ingest_request(5, 0, 40, 21.5, 37.5)).unwrap();
    assert!(is_ok(&resp), "{resp}");
    let stats = assert_one_surface(&mut c);
    assert!(stats.get("storage").is_none() && stats.get("wal").is_none());
    assert_eq!(u64_at(&stats, "pipeline", "reports_in"), Some(80));
    assert_eq!(u64_at(&stats, "graph", "folds"), Some(1));
    // The dictionary's size, against the same batches run in process.
    let mut reference = Pipeline::new(test_config().pipeline);
    reference.ingest_batch(&reports(4, 0, 40, 21.0, 37.0));
    reference.ingest_batch(&reports(5, 0, 40, 21.5, 37.5));
    let terms = reference.graph().dict().len() as u64;
    assert!(terms > 0);
    assert_eq!(u64_at(&stats, "graph", "terms"), Some(terms));
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
