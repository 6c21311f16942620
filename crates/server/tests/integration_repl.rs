//! Replication integration tests: a real leader and real followers on
//! loopback, exchanging the newline-delimited protocol end to end.
//!
//! Covers the acceptance scenarios for the replication subsystem:
//! follower bootstrap (WAL tail and snapshot paths), crash/restart
//! catch-up, reads surviving a dead leader with a frozen epoch,
//! `not_leader` write redirection, and bounded-staleness shedding under
//! an injected clock.

use datacron_core::{PipelineConfig, PolygonSpec};
use datacron_geo::BoundingBox;
use datacron_obs::ManualClock;
use datacron_repl::StalenessPolicy;
use datacron_server::client::{error_code, is_ok};
use datacron_server::{
    start, start_with_clock, Client, Json, ReplicationConfig, ServerConfig, ServerHandle,
};
use datacron_storage::test_util::TempDir;
use datacron_storage::{FsyncPolicy, StorageConfig};
use std::net::SocketAddr;
use std::sync::Arc;
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

fn leader_config(dir: &std::path::Path, snapshot_every: u64) -> ServerConfig {
    ServerConfig {
        data_dir: Some(dir.to_path_buf()),
        storage: StorageConfig {
            segment_bytes: 4096,
            fsync: FsyncPolicy::Always,
            snapshot_every_records: snapshot_every,
        },
        ..test_config()
    }
}

fn follower_config(leader: SocketAddr, id: &str) -> ServerConfig {
    ServerConfig {
        replication: ReplicationConfig {
            follow: Some(leader.to_string()),
            follower_id: id.to_string(),
            poll_interval: Duration::from_millis(5),
            ..ReplicationConfig::default()
        },
        ..test_config()
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

/// The deterministic batch sequence shared with the storage identity
/// tests: three objects, including a west→east zone migration.
fn feed(c: &mut Client) {
    for (obj, t0, lon, lat) in [
        (1u64, 0i64, 20.5, 37.0),
        (2, 0, 21.0, 36.0),
        (1, 2000, 26.5, 37.0),
        (3, 0, 27.0, 38.5),
        (2, 3000, 21.5, 36.0),
    ] {
        let resp = c.call(&ingest_request(obj, t0, 30, lon, lat)).unwrap();
        assert!(is_ok(&resp), "ingest failed: {resp}");
    }
}

/// Ten vessels on zig-zag tracks (the synopsis keeps every fix): enough
/// semantic nodes to take the graph past 10 000 triples, where the server
/// once switched to a partitioned copy with partition-local joins.
fn feed_fleet(c: &mut Client) {
    for vessel in 100..110u64 {
        let reports: Vec<Json> = (0..100i64)
            .map(|i| {
                Json::obj()
                    .field("object", vessel)
                    .field("t_ms", i * 60_000)
                    .field("lon", 24.0 + 0.01 * i as f64)
                    .field("lat", if i % 2 == 0 { 37.0 } else { 37.02 })
                    .field("speed_mps", 6.0)
                    .field("heading_deg", if i % 2 == 0 { 45.0 } else { 135.0 })
                    .build()
            })
            .collect();
        let req = Json::obj()
            .field("type", "ingest")
            .field("reports", Json::Arr(reports))
            .build();
        let resp = c.call(&req).unwrap();
        assert!(is_ok(&resp), "ingest failed: {resp}");
    }
    let resp = c.call(&Json::obj().field("type", "stats").build()).unwrap();
    let graph_len = resp.get("pipeline").and_then(|p| p.get("graph_len"));
    assert!(graph_len.and_then(Json::as_u64).unwrap() > 10_000, "{resp}");
}

fn repl_status(c: &mut Client) -> Json {
    let resp = c
        .call(&Json::obj().field("type", "repl_status").build())
        .unwrap();
    assert!(is_ok(&resp), "repl_status failed: {resp}");
    resp.get("replication")
        .expect("replication section")
        .clone()
}

/// The leader's durable LSN: count of WAL records appended.
fn leader_head(c: &mut Client) -> u64 {
    let status = repl_status(c);
    status
        .get("next_seq")
        .and_then(Json::as_u64)
        .expect("leader next_seq")
}

/// Polls the follower until its applied LSN reaches `target`; panics on
/// timeout. Replication is asynchronous, so every convergence assertion
/// goes through here.
fn await_applied(follower: SocketAddr, target: u64) {
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut last = 0;
    while Instant::now() < deadline {
        let mut c = connect(follower);
        let status = repl_status(&mut c);
        last = status
            .get("applied_lsn")
            .and_then(Json::as_u64)
            .expect("follower applied_lsn");
        if last >= target {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("follower never reached lsn {target} (stuck at {last})");
}

/// Everything query-visible, normalised exactly like the storage
/// identity tests: a follower must be indistinguishable from the leader
/// it replicates once caught up.
fn fingerprint(c: &mut Client) -> Vec<String> {
    let mut out = Vec::new();
    // Every node belongs to a typed vessel, so the two-hop join must
    // return exactly the rows of the single pattern.
    for query in [
        "SELECT ?n ?o WHERE { ?n da:ofMovingObject ?o }",
        "SELECT ?n ?o WHERE { ?n da:ofMovingObject ?o . ?o rdf:type da:Vessel }",
    ] {
        let resp = c
            .call(
                &Json::obj()
                    .field("type", "sparql")
                    .field("query", query)
                    .field("limit", 10_000u64)
                    .build(),
            )
            .unwrap();
        assert!(is_ok(&resp), "{resp}");
        let result = resp.get("result").unwrap();
        let mut rows: Vec<String> = result
            .get("rows")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|r| r.to_string())
            .collect();
        rows.sort_unstable();
        let line = format!(
            "sparql rows={} {:?}",
            result.get("row_count").and_then(Json::as_u64).unwrap(),
            rows
        );
        if let Some(single_pattern) = out.last() {
            assert_eq!(single_pattern, &line, "{query}");
        }
        out.push(line);
    }
    for (ep, list_key) in [("heatmap", "cells"), ("flows", "flows")] {
        let resp = c
            .call(
                &Json::obj()
                    .field("type", ep)
                    .field("top_k", 1000u64)
                    .build(),
            )
            .unwrap();
        assert!(is_ok(&resp), "{resp}");
        let result = resp.get("result").unwrap();
        let mut items: Vec<String> = result
            .get(list_key)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|x| x.to_string())
            .collect();
        items.sort_unstable();
        out.push(format!("{ep} {items:?}"));
    }
    let resp = c
        .call(
            &Json::obj()
                .field("type", "events")
                .field("limit", 1000u64)
                .build(),
        )
        .unwrap();
    assert!(is_ok(&resp), "{resp}");
    out.push(format!("events {}", resp.get("result").unwrap()));
    let resp = c.call(&Json::obj().field("type", "stats").build()).unwrap();
    assert!(is_ok(&resp), "{resp}");
    let pipeline = resp.get("pipeline").unwrap();
    for key in [
        "reports_in",
        "reports_clean",
        "reports_kept",
        "events",
        "triples",
        "graph_len",
    ] {
        out.push(format!(
            "pipeline.{key}={}",
            pipeline.get(key).and_then(Json::as_u64).unwrap()
        ));
    }
    out
}

fn object_rows(c: &mut Client, object: u64) -> u64 {
    let resp = c
        .call(
            &Json::obj()
                .field("type", "sparql")
                .field(
                    "query",
                    &*format!("SELECT ?n WHERE {{ ?n da:ofMovingObject da:obj/{object} }}"),
                )
                .build(),
        )
        .unwrap();
    assert!(is_ok(&resp), "{resp}");
    resp.get("result")
        .and_then(|r| r.get("row_count"))
        .and_then(Json::as_u64)
        .unwrap()
}

fn start_follower(leader: SocketAddr, id: &str) -> ServerHandle {
    start(follower_config(leader, id)).expect("follower start")
}

/// One leader, two followers: both replicas converge to the leader's
/// query-visible state, reads are stamped with the replica position,
/// lag gauges appear in the metrics exposition, and writes at a
/// follower are redirected with `not_leader`.
#[test]
fn two_followers_serve_identical_reads_and_redirect_writes() {
    let dir = TempDir::new("repl-fanout");
    let leader = start(leader_config(dir.path(), 0)).expect("leader start");
    feed(&mut connect(leader.local_addr));
    let head = leader_head(&mut connect(leader.local_addr));
    assert_eq!(head, 5, "five batches, five WAL records");

    let f1 = start_follower(leader.local_addr, "follower-1");
    let f2 = start_follower(leader.local_addr, "follower-2");
    await_applied(f1.local_addr, head);
    await_applied(f2.local_addr, head);

    let want = fingerprint(&mut connect(leader.local_addr));
    for f in [&f1, &f2] {
        let got = fingerprint(&mut connect(f.local_addr));
        assert_eq!(got, want, "follower state must match the leader");
    }

    // Reads carry the replica position they were served at.
    let mut c = connect(f1.local_addr);
    let resp = c
        .call(
            &Json::obj()
                .field("type", "heatmap")
                .field("top_k", 1u64)
                .build(),
        )
        .unwrap();
    assert!(is_ok(&resp), "{resp}");
    assert!(resp.get("leader_epoch").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(resp.get("applied_lsn").and_then(Json::as_u64), Some(head));

    // Writes at a replica are refused and point back at the leader.
    let resp = c.call(&ingest_request(9, 0, 5, 21.0, 37.5)).unwrap();
    assert_eq!(error_code(&resp), Some("not_leader"));
    assert_eq!(
        resp.get("leader").and_then(Json::as_str),
        Some(leader.local_addr.to_string().as_str())
    );
    drop(c);

    // Follower-side gauges are in the unified registry.
    let mut c = connect(f1.local_addr);
    let resp = c
        .call(&Json::obj().field("type", "metrics").build())
        .unwrap();
    let text = resp.get("exposition").and_then(Json::as_str).unwrap();
    for gauge in [
        "datacron_repl_epoch",
        "datacron_repl_applied_lsn",
        "datacron_repl_lag_records",
        "datacron_repl_frames_applied_total",
    ] {
        assert!(text.contains(gauge), "missing {gauge} in exposition");
    }
    drop(c);

    // Leader-side gauges name both followers.
    let mut c = connect(leader.local_addr);
    let resp = c
        .call(&Json::obj().field("type", "metrics").build())
        .unwrap();
    let text = resp.get("exposition").and_then(Json::as_str).unwrap();
    assert!(text.contains("datacron_repl_followers"));
    assert!(text.contains("follower=\"follower-1\""));
    assert!(text.contains("follower=\"follower-2\""));
    // And the stats section reports the fleet.
    let status = repl_status(&mut c);
    assert_eq!(status.get("role").and_then(Json::as_str), Some("leader"));
    let fleet = status.get("followers").and_then(Json::as_array).unwrap();
    assert_eq!(fleet.len(), 2, "{status}");
    drop(c);

    f1.shutdown();
    f2.shutdown();
    leader.shutdown();
}

/// A follower joining after the leader has snapshotted and retired WAL
/// segments must bootstrap from the snapshot, then tail the live log.
#[test]
fn late_follower_bootstraps_from_snapshot_then_tails() {
    let dir = TempDir::new("repl-snap");
    // Snapshot after every batch: tiny segments retire aggressively, so
    // seq 1 is gone from the log by the time the follower subscribes.
    let leader = start(leader_config(dir.path(), 1)).expect("leader start");
    {
        let mut c = connect(leader.local_addr);
        feed(&mut c);
        feed_fleet(&mut c);
        let resp = c.call(&Json::obj().field("type", "stats").build()).unwrap();
        let storage = resp.get("storage").expect("storage stats");
        assert!(
            storage
                .get("last_snapshot_seq")
                .and_then(Json::as_u64)
                .unwrap()
                >= 5,
            "leader must have snapshotted: {resp}"
        );
    }

    let head = leader_head(&mut connect(leader.local_addr));
    let follower = start_follower(leader.local_addr, "late-follower");
    await_applied(follower.local_addr, head);

    let want = fingerprint(&mut connect(leader.local_addr));
    let got = fingerprint(&mut connect(follower.local_addr));
    assert_eq!(got, want, "snapshot-bootstrapped follower must match");

    // New writes at the leader still flow through as WAL frames.
    let mut c = connect(leader.local_addr);
    let resp = c.call(&ingest_request(7, 0, 20, 26.8, 38.0)).unwrap();
    assert!(is_ok(&resp), "{resp}");
    let head = leader_head(&mut c);
    drop(c);
    await_applied(follower.local_addr, head);
    assert!(object_rows(&mut connect(follower.local_addr), 7) > 0);

    follower.shutdown();
    leader.shutdown();
}

/// Kill a follower, keep writing at the leader, restart the follower:
/// it re-bootstraps from scratch (replicas are memory-only) and
/// converges on everything it missed.
#[test]
fn killed_follower_catches_up_after_restart() {
    let dir = TempDir::new("repl-catchup");
    let leader = start(leader_config(dir.path(), 0)).expect("leader start");
    feed(&mut connect(leader.local_addr));

    let follower = start_follower(leader.local_addr, "phoenix");
    await_applied(
        follower.local_addr,
        leader_head(&mut connect(leader.local_addr)),
    );
    follower.abort();

    // Writes the dead follower never saw.
    let mut c = connect(leader.local_addr);
    let resp = c.call(&ingest_request(42, 0, 25, 21.8, 36.5)).unwrap();
    assert!(is_ok(&resp), "{resp}");
    let head = leader_head(&mut c);
    drop(c);

    let reborn = start_follower(leader.local_addr, "phoenix");
    await_applied(reborn.local_addr, head);
    assert!(object_rows(&mut connect(reborn.local_addr), 42) > 0);
    let want = fingerprint(&mut connect(leader.local_addr));
    let got = fingerprint(&mut connect(reborn.local_addr));
    assert_eq!(got, want, "restarted follower must reconverge");

    reborn.shutdown();
    leader.shutdown();
}

/// When the leader dies, an unbounded follower keeps serving reads at
/// its frozen position: same epoch, same applied LSN, correct answers.
#[test]
fn follower_serves_frozen_reads_after_leader_crash() {
    let dir = TempDir::new("repl-leaderless");
    let leader = start(leader_config(dir.path(), 0)).expect("leader start");
    feed(&mut connect(leader.local_addr));
    let head = leader_head(&mut connect(leader.local_addr));

    let follower = start_follower(leader.local_addr, "survivor");
    await_applied(follower.local_addr, head);
    let want = fingerprint(&mut connect(follower.local_addr));
    let status = repl_status(&mut connect(follower.local_addr));
    let epoch = status.get("epoch").and_then(Json::as_u64).unwrap();
    assert!(epoch >= 1);

    leader.abort();
    // Give the sync loop time to hit the dead leader and start retrying.
    std::thread::sleep(Duration::from_millis(100));

    let got = fingerprint(&mut connect(follower.local_addr));
    assert_eq!(got, want, "reads must not change after the leader dies");
    let mut c = connect(follower.local_addr);
    let resp = c
        .call(
            &Json::obj()
                .field("type", "heatmap")
                .field("top_k", 1u64)
                .build(),
        )
        .unwrap();
    assert!(is_ok(&resp), "{resp}");
    assert_eq!(resp.get("leader_epoch").and_then(Json::as_u64), Some(epoch));
    assert_eq!(resp.get("applied_lsn").and_then(Json::as_u64), Some(head));
    drop(c);

    follower.shutdown();
}

/// Bounded staleness under an injected clock: a follower whose leader
/// has gone silent past `--max-lag-ms` sheds reads with `stale` and
/// reports how far behind it is; diagnostics stay reachable.
#[test]
fn silent_leader_triggers_stale_shedding_under_injected_clock() {
    let dir = TempDir::new("repl-stale");
    let clock = Arc::new(ManualClock::new());
    // last_contact == 0 means "never heard from the leader yet", so the
    // injected clock must start past zero for silence to be measurable.
    clock.set_us(1_000_000);

    let leader = start_with_clock(
        leader_config(dir.path(), 0),
        Arc::clone(&clock) as Arc<dyn datacron_obs::ClockSource>,
    )
    .expect("leader start");
    feed(&mut connect(leader.local_addr));
    let head = leader_head(&mut connect(leader.local_addr));

    let mut cfg = follower_config(leader.local_addr, "bounded");
    cfg.replication.policy = StalenessPolicy {
        max_lag_records: None,
        max_lag_us: Some(500_000),
    };
    let follower = start_with_clock(
        cfg,
        Arc::clone(&clock) as Arc<dyn datacron_obs::ClockSource>,
    )
    .expect("follower start");
    await_applied(follower.local_addr, head);

    // Caught up and the leader is chatty: reads flow.
    let mut c = connect(follower.local_addr);
    let resp = c
        .call(
            &Json::obj()
                .field("type", "heatmap")
                .field("top_k", 1u64)
                .build(),
        )
        .unwrap();
    assert!(is_ok(&resp), "fresh replica must serve reads: {resp}");
    drop(c);

    // Kill the leader and let injected time pass far beyond the bound.
    // Real time barely moves; only the manual clock says "too long".
    leader.abort();
    std::thread::sleep(Duration::from_millis(100));
    clock.advance_us(10_000_000);

    let mut c = connect(follower.local_addr);
    let resp = c
        .call(
            &Json::obj()
                .field("type", "heatmap")
                .field("top_k", 1u64)
                .build(),
        )
        .unwrap();
    assert_eq!(error_code(&resp), Some("stale"), "{resp}");
    assert!(resp.get("silence_us").and_then(Json::as_u64).unwrap() > 500_000);
    assert!(resp.get("leader").and_then(Json::as_str).is_some());

    // Diagnostics are not reads: stats and repl_status stay reachable
    // so the operator can see why the replica is shedding.
    let status = repl_status(&mut c);
    assert!(status.get("silence_us").and_then(Json::as_u64).unwrap() > 500_000);
    assert_eq!(
        status.get("max_lag_us").and_then(Json::as_u64),
        Some(500_000)
    );
    drop(c);

    follower.shutdown();
}

/// Config validation and leader-side protocol guards.
#[test]
fn follower_rejects_durable_config_and_memory_leader_rejects_subscribe() {
    // A replica cannot also be durable.
    let dir = TempDir::new("repl-invalid");
    let mut cfg = follower_config("127.0.0.1:1".parse().unwrap(), "bad");
    cfg.data_dir = Some(dir.path().to_path_buf());
    assert!(start(cfg).is_err(), "--follow plus --data-dir must refuse");

    // A memory-only server has no WAL to ship.
    let memory = start(test_config()).expect("memory start");
    let mut c = connect(memory.local_addr);
    let resp = c
        .call(
            &Json::obj()
                .field("type", "repl_subscribe")
                .field("follower", "f")
                .field("from_seq", 1u64)
                .build(),
        )
        .unwrap();
    assert!(!is_ok(&resp), "{resp}");
    drop(c);
    memory.shutdown();
}

/// Regression: the metrics collector must hand `registry.snapshot` the
/// same LSN `replication_json` does. `head` is already one past the last
/// appended sequence; adding one again overstated every follower's
/// record lag by exactly one, so a fully caught-up follower never read
/// as caught up on the dashboard.
#[test]
fn caught_up_follower_reports_zero_lag_in_metrics() {
    let dir = TempDir::new("repl-lag-gauge");
    let leader = start(leader_config(dir.path(), 0)).expect("leader start");
    let mut c = connect(leader.local_addr);
    feed(&mut c);
    let head = leader_head(&mut c);
    assert_eq!(head, 5);

    // Poll exactly at the head: this follower wants nothing, so its
    // acked position equals the leader's next_seq.
    let resp = c
        .call(
            &Json::obj()
                .field("type", "repl_frame")
                .field("follower", "gauge-probe")
                .field("from_seq", head)
                .build(),
        )
        .unwrap();
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
    let lag_line = text
        .lines()
        .find(|l| l.starts_with("datacron_repl_follower_lag_records") && l.contains("gauge-probe"))
        .expect("follower lag gauge present");
    let lag: u64 = lag_line
        .rsplit(' ')
        .next()
        .and_then(|v| v.parse().ok())
        .expect("gauge value");
    assert_eq!(lag, 0, "caught-up follower must show zero lag: {lag_line}");
}

/// Regression for the `head` publication ordering: `ingest_durable`
/// Release-stores the head only after the WAL append, and every status
/// read Acquire-loads it, so an advertised head is a promise that
/// records `0..head` are pullable. Concurrent writers plus a status
/// poller check the promise — a relaxed store hoisted above the append
/// (or a stale monotonicity violation) shows up as an empty pull at
/// `head - 1` or a head that moves backwards.
#[test]
fn advertised_head_is_always_pullable_under_concurrent_ingest() {
    let dir = TempDir::new("repl-head-order");
    let leader = start(leader_config(dir.path(), 0)).expect("leader start");
    let addr = leader.local_addr;

    let writers: Vec<_> = (0..2u64)
        .map(|w| {
            std::thread::spawn(move || {
                let mut c = connect(addr);
                for i in 0..10 {
                    let resp = c
                        .call(&ingest_request(100 + w, i * 1000, 3, 20.5, 37.0))
                        .unwrap();
                    assert!(is_ok(&resp), "ingest failed: {resp}");
                }
            })
        })
        .collect();

    let mut c = connect(addr);
    let mut last_head = 0u64;
    loop {
        let head = leader_head(&mut c);
        assert!(
            head >= last_head,
            "head moved backwards: {last_head} -> {head}"
        );
        last_head = head;
        if head > 0 {
            let resp = c
                .call(
                    &Json::obj()
                        .field("type", "repl_frame")
                        .field("follower", "order-probe")
                        .field("from_seq", head - 1)
                        .field("max", 1u64)
                        .build(),
                )
                .unwrap();
            assert!(is_ok(&resp), "{resp}");
            let frames = resp.get("frames").and_then(Json::as_array).expect("frames");
            let first_seq = frames
                .first()
                .and_then(|f| f.get("seq"))
                .and_then(Json::as_u64);
            assert_eq!(
                first_seq,
                Some(head - 1),
                "advertised head {head} but record {} not pullable",
                head - 1
            );
        }
        if head >= 20 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    for w in writers {
        w.join().expect("writer thread");
    }
    assert_eq!(leader_head(&mut connect(addr)), 20);
}
