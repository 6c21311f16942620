//! Loopback integration tests for datacron-server: concurrent clients,
//! admission-control backpressure, and protocol error handling.

use datacron_core::{Pipeline, PipelineConfig, PolygonSpec};
use datacron_geo::BoundingBox;
use datacron_rdf::{execute_reference, parse_query};
use datacron_server::client::{error_code, is_ok};
use datacron_server::protocol::parse_request;
use datacron_server::{start, Client, Json, Request, ServerConfig};
use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

fn test_config() -> ServerConfig {
    ServerConfig {
        pipeline: PipelineConfig {
            region: BoundingBox::new(19.0, 33.0, 30.0, 41.0),
            zones: vec![
                (
                    "west".to_string(),
                    PolygonSpec(vec![(20.0, 34.0), (23.0, 34.0), (23.0, 40.0), (20.0, 40.0)]),
                ),
                (
                    "east".to_string(),
                    PolygonSpec(vec![(26.0, 34.0), (29.0, 34.0), (29.0, 40.0), (26.0, 40.0)]),
                ),
            ],
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

#[test]
fn concurrent_clients_ingest_and_query() {
    let handle = start(test_config()).expect("server start");
    let addr = handle.local_addr;

    // Seed some data so the query threads have something to read.
    let mut seed = connect(addr);
    let resp = seed.call(&ingest_request(1, 0, 50, 21.0, 37.0)).unwrap();
    assert!(is_ok(&resp), "seed ingest failed: {resp}");
    assert_eq!(resp.get("accepted").and_then(Json::as_u64), Some(50));

    // Five concurrent connections: two ingest writers, three query readers.
    let mut threads = Vec::new();
    for w in 0..2u64 {
        threads.push(thread::spawn(move || {
            let mut c = connect(addr);
            for round in 0..5 {
                let resp = c
                    .call(&ingest_request(
                        10 + w,
                        round * 1000,
                        20,
                        21.0 + w as f64,
                        36.0,
                    ))
                    .unwrap();
                assert!(is_ok(&resp), "ingest failed: {resp}");
            }
        }));
    }
    for r in 0..3u64 {
        threads.push(thread::spawn(move || {
            let mut c = connect(addr);
            for _ in 0..5 {
                let req = match r {
                    0 => Json::obj()
                        .field("type", "sparql")
                        .field("query", "SELECT ?n WHERE { ?n da:ofMovingObject da:obj/1 }")
                        .build(),
                    1 => Json::obj()
                        .field("type", "heatmap")
                        .field("top_k", 5u64)
                        .build(),
                    _ => Json::obj()
                        .field("type", "events")
                        .field("limit", 10u64)
                        .build(),
                };
                let resp = c.call(&req).unwrap();
                assert!(is_ok(&resp), "query failed: {resp}");
            }
        }));
    }
    for t in threads {
        t.join().expect("client thread panicked");
    }

    // The sparql path sees the committed triples.
    let resp = seed
        .call(
            &Json::obj()
                .field("type", "sparql")
                .field("query", "SELECT ?n WHERE { ?n da:ofMovingObject da:obj/1 }")
                .build(),
        )
        .unwrap();
    assert!(is_ok(&resp));
    let rows = resp
        .get("result")
        .and_then(|r| r.get("row_count"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(rows > 0, "expected rows for seeded object");

    // Stats reflect the work: 6 connections, ingest + query latencies.
    let resp = seed
        .call(
            &Json::obj()
                .field("id", 99u64)
                .field("type", "stats")
                .build(),
        )
        .unwrap();
    assert!(is_ok(&resp));
    assert_eq!(resp.get("id").and_then(Json::as_u64), Some(99));
    let server = resp.get("server").unwrap();
    assert!(
        server
            .get("connections_accepted")
            .and_then(Json::as_u64)
            .unwrap()
            >= 6
    );
    assert!(server.get("requests_ok").and_then(Json::as_u64).unwrap() >= 26);
    let lat = server.get("request_latency").unwrap();
    assert!(
        lat.get("ingest").is_some(),
        "missing ingest latency: {server}"
    );
    assert!(
        lat.get("sparql").is_some(),
        "missing sparql latency: {server}"
    );
    let pipeline = resp.get("pipeline").unwrap();
    assert!(pipeline.get("reports_in").and_then(Json::as_u64).unwrap() >= 250);

    handle.shutdown();
}

#[test]
fn queue_full_returns_busy_instead_of_hanging() {
    let handle = start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..test_config()
    })
    .expect("server start");
    let addr = handle.local_addr;

    // A occupies the single worker: prove the worker owns the connection
    // (response received), then park it on a read that cannot get the
    // state lock while this thread holds it for writing.
    let mut a = connect(addr);
    let resp = a.call(&Json::obj().field("type", "stats").build()).unwrap();
    assert!(is_ok(&resp));
    let hold = handle.state.write();
    a.send(&Json::obj().field("type", "heatmap").build())
        .unwrap();
    thread::sleep(Duration::from_millis(100));

    // B fills the one queue slot (no worker free to drain it).
    let _b = connect(addr);
    thread::sleep(Duration::from_millis(100));

    // C must be rejected immediately with `busy`, not left waiting.
    let started = Instant::now();
    let mut c = connect(addr);
    let resp = c.recv().expect("busy response");
    let waited = started.elapsed();
    assert!(!is_ok(&resp), "expected rejection, got {resp}");
    assert_eq!(error_code(&resp), Some("busy"));
    assert!(
        waited < Duration::from_millis(1000),
        "busy rejection took {waited:?}, should be immediate"
    );

    // Released, A's read completes; the rejection was counted.
    drop(hold);
    let resp = a.recv().unwrap();
    assert!(is_ok(&resp));
    let resp = a.call(&Json::obj().field("type", "stats").build()).unwrap();
    let server = resp.get("server").unwrap();
    assert!(
        server
            .get("connections_rejected")
            .and_then(Json::as_u64)
            .unwrap()
            >= 1
    );

    handle.shutdown();
}

#[test]
fn malformed_requests_get_errors_and_connection_survives() {
    let handle = start(test_config()).expect("server start");
    let mut c = connect(handle.local_addr);

    c.send_raw("this is not json").unwrap();
    let resp = c.recv().unwrap();
    assert_eq!(error_code(&resp), Some("bad_request"));

    c.send_raw(r#"{"id":7,"type":"teleport"}"#).unwrap();
    let resp = c.recv().unwrap();
    assert_eq!(error_code(&resp), Some("bad_request"));
    assert_eq!(resp.get("id").and_then(Json::as_u64), Some(7));

    c.send_raw(r#"{"type":"sparql","query":"SELECT garbage FROM nowhere"}"#)
        .unwrap();
    let resp = c.recv().unwrap();
    assert_eq!(error_code(&resp), Some("query_error"));

    // The retired worker-holding diagnostic is just another unknown type.
    c.send_raw(r#"{"type":"sleep","ms":10}"#).unwrap();
    let resp = c.recv().unwrap();
    assert_eq!(error_code(&resp), Some("bad_request"));

    // The connection is still serviceable after every error.
    let resp = c.call(&Json::obj().field("type", "stats").build()).unwrap();
    assert!(is_ok(&resp));

    handle.shutdown();
}

#[test]
fn zone_transitions_feed_flows_and_events() {
    let handle = start(test_config()).expect("server start");
    let mut c = connect(handle.local_addr);

    // Sail object 5 west → gap → east: exit "west", later enter "east".
    let resp = c.call(&ingest_request(5, 0, 40, 20.5, 37.0)).unwrap();
    assert!(is_ok(&resp), "{resp}");
    let resp = c.call(&ingest_request(5, 2000, 40, 26.5, 37.0)).unwrap();
    assert!(is_ok(&resp), "{resp}");

    let resp = c
        .call(
            &Json::obj()
                .field("type", "events")
                .field("limit", 200u64)
                .build(),
        )
        .unwrap();
    assert!(is_ok(&resp));
    let events = resp
        .get("result")
        .and_then(|r| r.get("events"))
        .and_then(Json::as_array)
        .unwrap();
    assert!(!events.is_empty(), "expected CEP detections");

    let resp = c
        .call(
            &Json::obj()
                .field("type", "flows")
                .field("top_k", 10u64)
                .build(),
        )
        .unwrap();
    assert!(is_ok(&resp));
    // Flows require both an exit and a later entry; tolerate zero if the
    // detector coalesced them, but the endpoint must answer coherently.
    let total = resp
        .get("result")
        .and_then(|r| r.get("total"))
        .and_then(Json::as_u64)
        .unwrap();
    let listed = resp
        .get("result")
        .and_then(|r| r.get("flows"))
        .and_then(Json::as_array)
        .unwrap();
    assert_eq!(listed.is_empty(), total == 0);

    let resp = c
        .call(
            &Json::obj()
                .field("type", "hotspots")
                .field("top_k", 3u64)
                .build(),
        )
        .unwrap();
    assert!(is_ok(&resp));

    handle.shutdown();
}

/// One vessel's zig-zag leg: the latitude alternates every fix, so the
/// synopsis keeps each one and every report becomes a semantic node.
fn zigzag_request(object: u64, t0_s: i64, n: usize) -> Json {
    let reports: Vec<Json> = (0..n)
        .map(|i| {
            Json::obj()
                .field("object", object)
                .field("t_ms", (t0_s + i as i64 * 60) * 1000)
                .field("lon", 24.0 + 0.01 * (t0_s / 60 + i as i64) as f64)
                .field("lat", if i % 2 == 0 { 37.0 } else { 37.02 })
                .field("speed_mps", 6.0)
                .field("heading_deg", if i % 2 == 0 { 45.0 } else { 135.0 })
                .build()
        })
        .collect();
    Json::obj()
        .field("type", "ingest")
        .field("reports", Json::Arr(reports))
        .build()
}

/// Joins that cross subjects (node → object → class) answer in full at
/// every graph size. The server once switched to a hash-by-subject
/// partitioned copy at 10 000 triples, whose partition-local joins
/// silently dropped most of these rows.
#[test]
fn cross_subject_joins_match_reference_at_every_graph_size() {
    const OLD_ROUTE_THRESHOLD: u64 = 10_000;
    const QUERIES: [&str; 2] = [
        "SELECT ?n ?o WHERE { ?n da:ofMovingObject ?o . ?o rdf:type da:Vessel }",
        "SELECT ?n ?c ?g WHERE { ?n da:ofMovingObject ?o . ?o rdf:type ?c . ?n da:hasGeometry ?g }",
    ];
    let cfg = test_config();
    // The oracle: the same batches, in the same order, through an
    // in-process pipeline, queried with the unoptimised reference engine.
    let mut oracle = Pipeline::new(cfg.pipeline.clone());
    let handle = start(cfg).expect("server start");
    let mut c = connect(handle.local_addr);

    let check = |c: &mut Client, oracle: &Pipeline| -> u64 {
        let graph_len = oracle.graph().len() as u64;
        let resp = c.call(&Json::obj().field("type", "stats").build()).unwrap();
        let served = resp.get("pipeline").and_then(|p| p.get("graph_len"));
        assert_eq!(served.and_then(Json::as_u64), Some(graph_len));
        for query in QUERIES {
            let want = execute_reference(oracle.graph(), &parse_query(query).unwrap())
                .0
                .len() as u64;
            assert!(want > 0, "{query}");
            let resp = c
                .call(
                    &Json::obj()
                        .field("type", "sparql")
                        .field("query", query)
                        .field("limit", 5u64)
                        .build(),
                )
                .unwrap();
            assert!(is_ok(&resp), "{resp}");
            let got = resp.get("result").and_then(|r| r.get("row_count"));
            assert_eq!(
                got.and_then(Json::as_u64),
                Some(want),
                "{query} at {graph_len} triples"
            );
        }
        graph_len
    };

    // Check after every round of batches until the graph has passed the
    // old threshold; the first check must fall below it.
    let mut checked_below = false;
    for round in 0..40i64 {
        for vessel in 1..=20u64 {
            let req = zigzag_request(vessel, round * 600, 10);
            let parsed = parse_request(&req.to_string()).expect("own request parses");
            match parsed.req {
                Request::Ingest { reports } => oracle.ingest_batch(&reports),
                other => panic!("not an ingest request: {}", other.tag()),
            };
            let resp = c.call(&req).unwrap();
            assert!(is_ok(&resp), "{resp}");
        }
        if check(&mut c, &oracle) >= OLD_ROUTE_THRESHOLD {
            assert!(checked_below, "first check must be below the threshold");
            handle.shutdown();
            return;
        }
        checked_below = true;
    }
    panic!("graph never passed {OLD_ROUTE_THRESHOLD} triples");
}
