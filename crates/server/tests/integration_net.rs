//! Event-loop (datacron-net) integration tests: the reactor-backed
//! server on loopback under connection-heavy workloads no thread-per-
//! connection design could survive at test speed.
//!
//! Covers the E13 acceptance scenarios: a four-digit count of mostly
//! idle connections served by a handful of threads while an active
//! minority runs real sparql/ingest traffic, slowloris reaping of
//! partial-line stallers (observable via `conns_reaped_total`), abrupt
//! client disconnects mid-request, disconnects under pending response
//! bytes, pipelined request ordering, and request-level (not
//! connection-level) busy shedding.

use datacron_core::{PipelineConfig, PolygonSpec};
use datacron_geo::BoundingBox;
use datacron_server::client::{error_code, is_ok};
use datacron_server::{start, Client, Json, ServerConfig, ServerHandle};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
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

fn start_server(cfg: ServerConfig) -> ServerHandle {
    start(cfg).expect("server starts")
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect_timeout(addr, Duration::from_secs(10)).expect("connect")
}

fn ingest_request(object: u64, t0_s: i64, n: usize) -> Json {
    let reports: Vec<Json> = (0..n)
        .map(|i| {
            Json::obj()
                .field("object", object)
                .field("t_ms", (t0_s + i as i64 * 10) * 1000)
                .field("lon", 21.0 + i as f64 * 0.01)
                .field("lat", 36.0)
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

fn stats(addr: SocketAddr) -> Json {
    let mut c = connect(addr);
    let resp = c
        .call(&Json::obj().field("type", "stats").build())
        .expect("stats");
    assert!(is_ok(&resp), "stats failed: {resp:?}");
    resp
}

fn net_counter(stats: &Json, name: &str) -> u64 {
    stats
        .get("net")
        .and_then(|n| n.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats missing net.{name}"))
}

/// The tentpole scenario: ~1.5k idle connections held open by a server
/// with 4 worker threads, while a minority of clients does real work.
/// Every idle connection must still be servable afterwards.
#[test]
fn thousand_idle_connections_with_active_minority() {
    let handle = start_server(ServerConfig {
        workers: 4,
        max_connections: 4096,
        ..test_config()
    });
    let addr = handle.local_addr;

    const IDLE: usize = 1500;
    let mut idle: Vec<TcpStream> = Vec::with_capacity(IDLE);
    for _ in 0..IDLE {
        let s = TcpStream::connect(addr).expect("idle connect");
        s.set_nodelay(true).ok();
        idle.push(s);
    }

    // Active minority: concurrent ingest + query clients doing real work
    // while the idle majority sits on the reactor.
    let workers: Vec<_> = (0..6)
        .map(|w| {
            std::thread::spawn(move || {
                let mut c = connect(addr);
                for round in 0..5 {
                    let req = if w % 2 == 0 {
                        ingest_request(100 + w as u64, 1000 + round * 100, 20)
                    } else {
                        Json::obj()
                            .field("type", "sparql")
                            .field(
                                "query",
                                "SELECT ?n WHERE { ?n da:ofMovingObject da:obj/101 }",
                            )
                            .field("limit", 10u64)
                            .build()
                    };
                    let resp = c.call(&req).expect("active request");
                    assert!(is_ok(&resp), "active request failed: {resp:?}");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("active client");
    }

    let s = stats(addr);
    let open = net_counter(&s, "open_connections");
    assert!(
        open >= IDLE as u64,
        "expected >= {IDLE} open connections, saw {open}"
    );
    assert_eq!(net_counter(&s, "conns_reaped_total"), 0);

    // Every sampled idle connection must still be served: the reactor
    // holds them, no worker was ever pinned by one.
    for conn in idle.iter().step_by(100) {
        let probe = conn.try_clone().expect("clone");
        probe
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut c = Client::from_stream(probe).expect("wrap");
        let resp = c
            .call(
                &Json::obj()
                    .field("type", "hotspots")
                    .field("top_k", 3u64)
                    .build(),
            )
            .expect("idle conn still serves");
        assert!(is_ok(&resp), "idle conn response: {resp:?}");
    }

    drop(idle);
    handle.shutdown();
}

/// A slowloris client — bytes trickling in with no newline — is reaped
/// after the idle timeout, while a fully idle connection on the same
/// server is left alone.
#[test]
fn slowloris_is_reaped_idle_connection_survives() {
    let handle = start_server(ServerConfig {
        idle_timeout: Some(Duration::from_millis(300)),
        ..test_config()
    });
    let addr = handle.local_addr;

    // Fully idle: no bytes at all. Not a slowloris suspect.
    let idle = TcpStream::connect(addr).expect("idle connect");

    // Slowloris: a partial line, then silence.
    let mut slow = TcpStream::connect(addr).expect("slow connect");
    slow.write_all(b"{\"type\":\"sta").expect("partial write");

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = stats(addr);
        if net_counter(&s, "conns_reaped_total") >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "slowloris connection was never reaped"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // The idle connection survived the reap sweep and still serves.
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut c = Client::from_stream(idle.try_clone().expect("clone")).expect("wrap");
    let resp = c
        .call(&Json::obj().field("type", "stats").build())
        .expect("idle conn serves after sweep");
    assert!(is_ok(&resp));

    drop(slow);
    handle.shutdown();
}

/// Clients that vanish abruptly — mid-request and mid-response — must
/// not wedge the reactor or leak connection slots.
#[test]
fn abrupt_disconnects_do_not_wedge_the_server() {
    let handle = start_server(ServerConfig {
        workers: 2,
        ..test_config()
    });
    let addr = handle.local_addr;

    // Disconnect with a request in flight: the worker's completion for a
    // dead (generation-bumped) connection must be dropped safely. The
    // reads cannot finish while this thread holds the state for writing.
    let hold = handle.state.write();
    for _ in 0..8 {
        let mut c = connect(addr);
        c.send(&Json::obj().field("type", "heatmap").build())
            .expect("send");
        drop(c); // gone before the response exists
    }
    std::thread::sleep(Duration::from_millis(50));
    drop(hold);

    // Disconnect mid-write: ask for a big response, close without reading.
    for round in 0..4 {
        let mut c = connect(addr);
        let resp = c
            .call(&ingest_request(200 + round, 2000, 50))
            .expect("ingest");
        assert!(is_ok(&resp));
        c.send(
            &Json::obj()
                .field("type", "heatmap")
                .field("top_k", 500u64)
                .build(),
        )
        .expect("send heatmap");
        drop(c); // response bytes pending in the reactor's write buffer
    }

    // Let the reactor observe the hangups, then prove it still serves.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = stats(addr);
        // stats() itself opens+closes a connection per call; the 12
        // abandoned ones must all be closed out eventually.
        if net_counter(&s, "conns_closed_total") >= 12 && net_counter(&s, "open_connections") <= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "abandoned connections not closed: {s:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    let mut c = connect(addr);
    let resp = c
        .call(
            &Json::obj()
                .field("type", "hotspots")
                .field("top_k", 3u64)
                .build(),
        )
        .expect("server alive");
    assert!(is_ok(&resp));
    handle.shutdown();
}

/// Several requests written back-to-back on one connection come back in
/// order, even though execution is handed to a worker pool.
#[test]
fn pipelined_requests_answer_in_order() {
    let handle = start_server(ServerConfig {
        workers: 4,
        ..test_config()
    });
    let addr = handle.local_addr;

    let mut c = connect(addr);
    let mut batch = String::new();
    for id in 0..10u64 {
        let req = Json::obj()
            .field("id", id)
            .field("type", "hotspots")
            .field("top_k", 2u64)
            .build();
        req.write(&mut batch);
        batch.push('\n');
    }
    c.send_raw(batch.trim_end()).expect("pipelined send");

    for expect in 0..10u64 {
        let resp = c.recv().expect("pipelined recv");
        assert!(is_ok(&resp));
        assert_eq!(
            resp.get("id").and_then(Json::as_u64),
            Some(expect),
            "responses out of order"
        );
    }
    handle.shutdown();
}

/// Backpressure is per request: a saturated queue sheds the *request*
/// with `busy` and the connection stays usable, rather than the old
/// behaviour of rejecting the whole connection.
#[test]
fn saturated_queue_sheds_requests_not_connections() {
    let handle = start_server(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..test_config()
    });
    let addr = handle.local_addr;

    // All three connect before saturation, so accept-time admission
    // lets them in; the squeeze happens at the request level.
    let mut sleeper = connect(addr);
    let mut queued = connect(addr);
    let mut shed = connect(addr);

    // Occupy the single worker with a read that cannot get the state
    // lock while this thread holds it for writing...
    let hold = handle.state.write();
    sleeper
        .send(&Json::obj().field("type", "heatmap").build())
        .expect("send blocked read");
    std::thread::sleep(Duration::from_millis(150));
    // ...fill the single queue slot from a second connection...
    queued
        .send(
            &Json::obj()
                .field("type", "hotspots")
                .field("top_k", 1u64)
                .build(),
        )
        .expect("send queued");
    std::thread::sleep(Duration::from_millis(100));
    // ...so the third connection's request is shed with `busy`.
    shed.send(
        &Json::obj()
            .field("type", "hotspots")
            .field("top_k", 1u64)
            .build(),
    )
    .expect("send shed");
    let resp = shed.recv().expect("busy response");
    assert_eq!(error_code(&resp), Some("busy"), "expected busy: {resp:?}");

    // Everyone queued or executing still completes normally.
    drop(hold);
    let resp = sleeper.recv().expect("blocked read's response");
    assert!(is_ok(&resp));
    let resp = queued.recv().expect("queued response");
    assert!(is_ok(&resp));

    // And the shed connection survived to retry successfully.
    let resp = shed
        .call(
            &Json::obj()
                .field("type", "hotspots")
                .field("top_k", 1u64)
                .build(),
        )
        .expect("connection survives busy");
    assert!(is_ok(&resp));
    handle.shutdown();
}

/// The connection cap turns extra connections away with `busy` at
/// accept time instead of letting them starve.
#[test]
fn connection_cap_rejects_overflow_with_busy() {
    let handle = start_server(ServerConfig {
        max_connections: 2,
        ..test_config()
    });
    let addr = handle.local_addr;

    let _a = connect(addr);
    let _b = connect(addr);
    // The reactor counts its open set; the third connection is over cap.
    let mut c = connect(addr);
    let resp = c.recv().expect("rejection line");
    assert_eq!(error_code(&resp), Some("busy"), "expected busy: {resp:?}");
    handle.shutdown();
}
