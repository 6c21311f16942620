//! Replication integration tests: a real leader and real followers on
//! loopback, exchanging the newline-delimited protocol end to end.
//!
//! Covers the acceptance scenarios for the replication subsystem:
//! follower bootstrap (WAL tail and snapshot paths), crash/restart
//! catch-up, reads surviving a dead leader with a frozen epoch,
//! `not_leader` write redirection, bounded-staleness shedding under an
//! injected clock, read stamps that match their answers, a scripted
//! leader whose replies would move a follower anywhere but forward, and
//! leaders power-cut under a live follower: the follower never holds a
//! record the leader can lose, and a new epoch rebuilds it.

use datacron_core::{PipelineConfig, PolygonSpec};
use datacron_geo::BoundingBox;
use datacron_obs::{ClockSource, ManualClock, MonotonicClock};
use datacron_repl::{b64, StalenessPolicy};
use datacron_server::client::{error_code, is_ok};
use datacron_server::codec::encode_batch;
use datacron_server::protocol::{parse_request, Request, MAX_FOLLOWERS};
use datacron_server::{
    start, start_with_clock, Client, Json, ReplicationConfig, ServerConfig, ServerHandle,
};
use datacron_storage::test_util::{FaultDisk, Op, TempDir};
use datacron_storage::{FsyncPolicy, StdDisk, StorageConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
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
    let graph_len = resp.get("graph").and_then(|g| g.get("triples"));
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
    for (section, key) in [
        ("pipeline", "reports_in"),
        ("pipeline", "reports_clean"),
        ("pipeline", "reports_kept"),
        ("pipeline", "events"),
        ("pipeline", "triples"),
        ("graph", "triples"),
    ] {
        let value = resp.get(section).and_then(|s| s.get(key));
        out.push(format!(
            "{section}.{key}={}",
            value.and_then(Json::as_u64).unwrap()
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
    // And `repl_status` lists the fleet.
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
        let storage = resp.get("storage").expect("stats.storage");
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
    follower.shutdown();

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
    let disk = FaultDisk::new();
    let leader = start_with_clock(
        leader_config(dir.path(), 0),
        Arc::new(MonotonicClock::new()),
        disk.clone(),
    )
    .expect("leader start");
    feed(&mut connect(leader.local_addr));
    let head = leader_head(&mut connect(leader.local_addr));

    let follower = start_follower(leader.local_addr, "survivor");
    await_applied(follower.local_addr, head);
    let want = fingerprint(&mut connect(follower.local_addr));
    let status = repl_status(&mut connect(follower.local_addr));
    let epoch = status.get("epoch").and_then(Json::as_u64).unwrap();
    assert!(epoch >= 1);

    disk.crash();
    leader.shutdown();
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

    let disk = FaultDisk::new();
    let leader = start_with_clock(
        leader_config(dir.path(), 0),
        Arc::clone(&clock) as Arc<dyn ClockSource>,
        disk.clone(),
    )
    .expect("leader start");
    feed(&mut connect(leader.local_addr));
    let head = leader_head(&mut connect(leader.local_addr));

    let mut cfg = follower_config(leader.local_addr, "bounded");
    cfg.replication.policy = StalenessPolicy {
        max_lag_records: None,
        max_lag_us: Some(500_000),
    };
    let follower =
        start_with_clock(cfg, Arc::clone(&clock) as _, Arc::new(StdDisk)).expect("follower start");
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
    disk.crash();
    leader.shutdown();
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

/// The largest follower lag reads the same on all three surfaces that
/// carry it: `repl_status`, the exposition gauge and `stats` under the
/// rule. One follower is caught up, the other three records behind.
#[test]
fn max_follower_lag_agrees_across_surfaces() {
    let dir = TempDir::new("repl-max-lag");
    let leader = start(leader_config(dir.path(), 0)).expect("leader start");
    let mut c = connect(leader.local_addr);
    feed(&mut c);
    for (id, from_seq) in [("fast", 5u64), ("slow", 2)] {
        let poll = Json::obj()
            .field("type", "repl_frame")
            .field("follower", id)
            .field("from_seq", from_seq)
            .build();
        let resp = c.call(&poll).unwrap();
        assert!(is_ok(&resp), "{resp}");
    }

    let status = repl_status(&mut c);
    let from_status = status
        .get("max_follower_lag_records")
        .and_then(Json::as_u64);
    assert_eq!(from_status, Some(3), "{status}");

    let resp = c
        .call(&Json::obj().field("type", "metrics").build())
        .unwrap();
    let text = resp.get("exposition").and_then(Json::as_str).unwrap();
    let gauge = text
        .lines()
        .find_map(|l| l.strip_prefix("datacron_repl_max_follower_lag_records "));
    assert_eq!(gauge, Some("3"), "{text}");

    let stats = c.call(&Json::obj().field("type", "stats").build()).unwrap();
    let from_stats = stats
        .get("repl")
        .and_then(|r| r.get("max_follower_lag_records"))
        .and_then(Json::as_u64);
    assert_eq!(from_stats, Some(3), "{stats}");
    drop(c);
    leader.shutdown();
}

/// Follower ids are client-supplied: a client that polls under a new id
/// every time must not grow the leader's fleet — its memory, the scan
/// every poll and every durable ingest pays under the registry mutex,
/// and the per-follower exposition lines — past `MAX_FOLLOWERS`.
#[test]
fn rotating_follower_ids_stay_within_the_cap() {
    let dir = TempDir::new("repl-rotating-ids");
    let leader = start(leader_config(dir.path(), 0)).expect("leader start");
    let mut c = connect(leader.local_addr);
    feed(&mut c);
    for i in 0..10_000u64 {
        let resp = c
            .call(
                &Json::obj()
                    .field("type", "repl_frame")
                    .field("follower", format!("rotating-{i}"))
                    .field("from_seq", 5u64)
                    .build(),
            )
            .unwrap();
        assert!(is_ok(&resp), "{resp}");
    }
    let status = repl_status(&mut c);
    let fleet = status.get("followers").and_then(Json::as_array).unwrap();
    assert_eq!(fleet.len(), MAX_FOLLOWERS);
    // The survivors are the most recently seen ids.
    let newest = fleet.iter().filter_map(|f| f.get("id")?.as_str());
    assert!(newest.eq((10_000 - MAX_FOLLOWERS..10_000).map(|i| format!("rotating-{i}"))));

    let resp = c
        .call(&Json::obj().field("type", "metrics").build())
        .unwrap();
    let text = resp.get("exposition").and_then(Json::as_str).unwrap();
    let lag_lines = text
        .lines()
        .filter(|l| l.starts_with("datacron_repl_follower_lag_records{"))
        .count();
    assert_eq!(lag_lines, MAX_FOLLOWERS);
    drop(c);
    leader.shutdown();
}

/// An advertised head is a promise that records `0..head` are pullable
/// and durable: the `next_seq` of a `repl_frame` reply never exceeds the
/// commit watermark (`wal.durable_lsn`, read after the reply), never
/// moves backwards, and record `head - 1` comes back from a pull.
/// Concurrent writers plus a polling prober check the promise.
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
        let (head, _) = pull(&mut c, 0, 1);
        let stats = c.call(&Json::obj().field("type", "stats").build()).unwrap();
        let durable = stats.get("wal").and_then(|w| w.get("durable_lsn"));
        let durable = durable.and_then(Json::as_u64).expect("wal.durable_lsn");
        assert!(
            head <= durable,
            "advertised head {head} past the watermark {durable}"
        );
        assert!(
            head >= last_head,
            "head moved backwards: {last_head} -> {head}"
        );
        last_head = head;
        if head > 0 {
            let (_, seqs) = pull(&mut c, head - 1, 1);
            assert_eq!(
                seqs.first(),
                Some(&(head - 1)),
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

/// One `repl_frame` poll under a probe id: the advertised head and the
/// seqs of the frames served from `from_seq`.
fn pull(c: &mut Client, from_seq: u64, max: u64) -> (u64, Vec<u64>) {
    let resp = c
        .call(
            &Json::obj()
                .field("type", "repl_frame")
                .field("follower", "order-probe")
                .field("from_seq", from_seq)
                .field("max", max)
                .build(),
        )
        .unwrap();
    assert!(is_ok(&resp), "{resp}");
    let frames = resp.get("frames").and_then(Json::as_array).expect("frames");
    let seqs = frames.iter().filter_map(|f| f.get("seq")?.as_u64());
    let head = resp
        .get("next_seq")
        .and_then(Json::as_u64)
        .expect("next_seq");
    (head, seqs.collect())
}

/// Stamp = answer: a read's `applied_lsn` is the position of the very
/// state that produced it. One thread ingests batches of `K` in-region
/// reports from empty while readers issue `heatmap` against the leader
/// and against a follower of it; every report lands in the heat grid, so
/// every reply's total weight must be exactly `K` per applied record.
#[test]
fn read_stamps_are_the_position_of_the_answer() {
    const K: usize = 4;
    const READS: usize = 2_000;
    let dir = TempDir::new("repl-stamp");
    let leader = start(leader_config(dir.path(), 0)).expect("leader start");
    let follower = start_follower(leader.local_addr, "stamp-probe");

    let stop = Arc::new(AtomicBool::new(false));
    let writer = std::thread::spawn({
        let stop = Arc::clone(&stop);
        let addr = leader.local_addr;
        move || {
            let mut c = connect(addr);
            let mut batches = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let resp = c
                    .call(&ingest_request(1_000 + batches, 0, K, 21.0, 36.0))
                    .unwrap();
                assert!(is_ok(&resp), "ingest failed: {resp}");
                batches += 1;
            }
            batches
        }
    });
    let readers = [leader.local_addr, follower.local_addr].map(|addr| {
        std::thread::spawn(move || {
            let mut c = connect(addr);
            let read = Json::obj()
                .field("type", "heatmap")
                .field("top_k", 1u64)
                .build();
            // At least READS replies, and enough of them while the
            // writer moves the position that the check means something.
            let mut stamps = std::collections::BTreeSet::new();
            let deadline = Instant::now() + Duration::from_secs(60);
            for n in 0.. {
                if n >= READS && stamps.len() >= 10 {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "{addr}: the position never moved"
                );
                let resp = c.call(&read).unwrap();
                assert!(is_ok(&resp), "{addr}: {resp}");
                let lsn = resp.get("applied_lsn").and_then(Json::as_u64).unwrap();
                let weight = resp
                    .get("result")
                    .and_then(|r| r.get("total_weight"))
                    .and_then(Json::as_f64)
                    .unwrap();
                assert_eq!(weight, (K as u64 * lsn) as f64, "{addr}: {resp}");
                stamps.insert(lsn);
            }
        })
    });
    for r in readers {
        r.join().expect("reader thread");
    }
    stop.store(true, Ordering::Relaxed);
    assert!(writer.join().expect("writer thread") >= 10);
    follower.shutdown();
    leader.shutdown();
}

/// What the scripted leader answers a `repl_frame` poll with.
#[derive(Clone, Debug)]
enum Script {
    /// These frame seqs, whatever the poll asked for.
    Frames(Vec<u64>),
    /// An honest log of this many records: the frames from the poll's
    /// `from_seq` to its end.
    Log(u64),
    /// `reset`; the re-subscribe that follows gets no snapshot.
    Reset,
    /// The honest log of this many records that the leader regrew after
    /// a restart into epoch 2: other records under the same seqs. Every
    /// other script answers in epoch 1 with a head of 3.
    Restarted(u64),
}

/// A leader that is only a `TcpListener` answering canned lines. Its
/// threads are left detached: a follower that fails an assertion keeps
/// polling, and joining them would turn that failure into a hang.
struct ScriptedLeader {
    addr: SocketAddr,
    /// The script, plus how many requests were answered under it.
    script: Arc<Mutex<(Script, u64)>>,
}

/// The canned record at `seq` in `epoch`: `K` in-region reports of one
/// object, `900 + seq` in epoch 1 and `950 + seq` in epoch 2.
fn scripted_frame(seq: u64, epoch: u64) -> Json {
    let object = 850 + 50 * epoch + seq;
    let line = ingest_request(object, 0, ScriptedLeader::K, 21.0, 36.0).to_string();
    let Request::Ingest { reports } = parse_request(&line).unwrap().req else {
        unreachable!("an ingest request parses as one");
    };
    Json::obj()
        .field("seq", seq)
        .field("payload", b64::encode(&encode_batch(&reports)))
        .build()
}

impl ScriptedLeader {
    const K: usize = 3;

    fn start(script: Script) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let script = Arc::new(Mutex::new((script, 0)));
        let shared = Arc::clone(&script);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(conn) = conn else { return };
                let script = Arc::clone(&shared);
                std::thread::spawn(move || Self::serve(conn, &script));
            }
        });
        Self { addr, script }
    }

    fn serve(conn: TcpStream, script: &Mutex<(Script, u64)>) {
        let mut out = conn.try_clone().unwrap();
        for line in BufReader::new(conn).lines() {
            let Ok(line) = line else { return };
            let req = Json::parse(&line).unwrap();
            let from_seq = req.get("from_seq").and_then(Json::as_u64).unwrap_or(0);
            // Read the script and count the request in one step, so a
            // count under a new script only ever covers its own replies.
            let current = {
                let mut s = script.lock().unwrap();
                s.1 += 1;
                s.0.clone()
            };
            let (epoch, head) = match current {
                Script::Restarted(len) => (2, len),
                _ => (1, 3),
            };
            let frames = |seqs: Vec<u64>| {
                Json::Arr(seqs.into_iter().map(|q| scripted_frame(q, epoch)).collect())
            };
            let reply = Json::obj()
                .field("ok", true)
                .field("epoch", epoch)
                .field("next_seq", head);
            let reply = match (req.get("type").and_then(Json::as_str), current) {
                (Some("repl_subscribe"), _) => reply.field("first_retained_seq", 0u64),
                (Some("repl_frame"), Script::Reset) => reply.field("reset", true),
                (Some("repl_frame"), Script::Frames(seqs)) => reply.field("frames", frames(seqs)),
                (Some("repl_frame"), Script::Log(len) | Script::Restarted(len)) => {
                    reply.field("frames", frames((from_seq..len).collect()))
                }
                _ => Json::obj().field("ok", false),
            };
            if writeln!(out, "{}", reply.build()).is_err() {
                return;
            }
        }
    }

    /// Switches the script, then waits until the follower has sent four
    /// requests under it — its sync loop is one thread, so the replies
    /// to the first three have been acted on by then.
    fn play(&self, script: Script) {
        *self.script.lock().unwrap() = (script, 0);
        let deadline = Instant::now() + Duration::from_secs(20);
        while self.script.lock().unwrap().1 < 4 {
            assert!(Instant::now() < deadline, "the follower stopped polling");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// The follower's position and its pipeline's report count.
fn position_and_reports(follower: SocketAddr) -> (u64, u64) {
    let mut c = connect(follower);
    let lsn = repl_status(&mut c)
        .get("applied_lsn")
        .and_then(Json::as_u64)
        .unwrap();
    let stats = c.call(&Json::obj().field("type", "stats").build()).unwrap();
    let reports = stats
        .get("pipeline")
        .and_then(|p| p.get("reports_in"))
        .and_then(Json::as_u64)
        .unwrap();
    (lsn, reports)
}

/// A follower applies only the unbroken run of frames that starts at its
/// own position. Frames that start elsewhere or skip a sequence, and a
/// reset whose re-subscribe brings no snapshot, must move neither its
/// position nor its state; a contiguous reply afterwards still applies.
#[test]
fn hostile_leader_cannot_move_a_follower() {
    let k = ScriptedLeader::K as u64;
    let leader = ScriptedLeader::start(Script::Frames(vec![1, 2]));
    let follower = start_follower(leader.addr, "hostile-probe");

    // Frames [1, 2] for from_seq 0, then [0, 2]: nothing applies.
    leader.play(Script::Frames(vec![1, 2]));
    assert_eq!(position_and_reports(follower.local_addr), (0, 0));
    leader.play(Script::Frames(vec![0, 2]));
    assert_eq!(position_and_reports(follower.local_addr), (0, 0));

    // An honest reply applies.
    leader.play(Script::Log(2));
    await_applied(follower.local_addr, 2);
    assert_eq!(position_and_reports(follower.local_addr), (2, 2 * k));

    // A reset with no snapshot behind it would wipe the state back to 0.
    leader.play(Script::Reset);
    assert_eq!(position_and_reports(follower.local_addr), (2, 2 * k));

    // And the follower still moves forward from where it is.
    leader.play(Script::Log(3));
    await_applied(follower.local_addr, 3);
    assert_eq!(position_and_reports(follower.local_addr), (3, 3 * k));
    follower.shutdown();
}

/// A leader that comes back in a new epoch with a shorter log holds other
/// records under positions the follower has applied. The follower
/// rebuilds from the new epoch's log, and no read while it does pairs a
/// position with the other epoch: every reply is the old state at 3 in
/// epoch 1, or a state of the new log in epoch 2.
#[test]
fn new_epoch_with_a_shorter_log_rebuilds_the_follower() {
    let k = ScriptedLeader::K as u64;
    let leader = ScriptedLeader::start(Script::Log(3));
    let follower = start_follower(leader.addr, "epoch-probe");
    await_applied(follower.local_addr, 3);

    let stop = Arc::new(AtomicBool::new(false));
    let reader = std::thread::spawn({
        let (stop, addr) = (Arc::clone(&stop), follower.local_addr);
        move || {
            let mut c = connect(addr);
            let read = Json::obj()
                .field("type", "heatmap")
                .field("top_k", 1u64)
                .build();
            while !stop.load(Ordering::Relaxed) {
                let resp = c.call(&read).unwrap();
                assert!(is_ok(&resp), "{resp}");
                let stamp = |key| resp.get(key).and_then(Json::as_u64).unwrap();
                let (epoch, lsn) = (stamp("leader_epoch"), stamp("applied_lsn"));
                let weight = resp.get("result").and_then(|r| r.get("total_weight"));
                assert_eq!(weight.and_then(Json::as_f64), Some((k * lsn) as f64));
                assert!(
                    (epoch, lsn) == (1, 3) || (epoch == 2 && lsn <= 2),
                    "a read paired position {lsn} with epoch {epoch}"
                );
            }
        }
    });
    leader.play(Script::Restarted(2));
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let status = repl_status(&mut connect(follower.local_addr));
        let at = |key| status.get(key).and_then(Json::as_u64);
        if (at("epoch"), at("applied_lsn")) == (Some(2), Some(2)) {
            break;
        }
        assert!(Instant::now() < deadline, "never rebuilt: {status}");
        std::thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, Ordering::Relaxed);
    reader.join().expect("reader thread");
    assert_eq!(position_and_reports(follower.local_addr), (2, 2 * k));
    let mut c = connect(follower.local_addr);
    assert_eq!(object_rows(&mut c, 900), 0, "epoch 1's record 0 is gone");
    assert!(object_rows(&mut c, 950) > 0, "epoch 2's record 0 is in");
    drop(c);
    follower.shutdown();
}

/// A loopback address nothing listens on, for a leader that must come
/// back on the address its follower follows.
fn free_addr() -> String {
    let probe = TcpListener::bind("127.0.0.1:0").unwrap();
    probe.local_addr().unwrap().to_string()
}

/// A durable leader at `addr` under `fsync`, snapshotting every
/// `snapshot_every` records into small WAL segments.
fn leader_at(
    dir: &std::path::Path,
    addr: &str,
    fsync: FsyncPolicy,
    snapshot_every: u64,
) -> ServerConfig {
    let mut cfg = leader_config(dir, snapshot_every);
    cfg.addr = addr.to_string();
    cfg.workers = 2;
    cfg.storage.fsync = fsync;
    cfg.storage.segment_bytes = 1024;
    cfg
}

fn field(json: &Json, key: &str) -> u64 {
    json.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("{key} in {json}"))
}

/// The check behind "zero lag means the same answers": at a quiet leader,
/// a follower in the leader's epoch that heard the leader's current head
/// and reports no lag against it must answer every read exactly as the
/// leader does. (Until it hears the new epoch a follower keeps its old
/// state; the rebuild then empties it, with lag, between two reads.)
fn assert_zero_lag_means_same_answers(leader: SocketAddr, follower: SocketAddr) {
    let leader_status = repl_status(&mut connect(leader));
    let (epoch, head) = (
        field(&leader_status, "epoch"),
        field(&leader_status, "next_seq"),
    );
    let status = repl_status(&mut connect(follower));
    let heard = (field(&status, "epoch"), field(&status, "leader_next_seq"));
    if field(&status, "lag_records") == 0 && heard == (epoch, head) {
        let want = fingerprint(&mut connect(leader));
        let got = fingerprint(&mut connect(follower));
        assert_eq!(
            got, want,
            "zero lag at head {head}, other answers: {status}"
        );
    }
}

/// Waits until the follower is in the leader's epoch at the leader's
/// head — checking on the way that zero lag always means the same
/// answers — then that it answers exactly as the leader does.
fn await_converged(leader: SocketAddr, follower: SocketAddr, what: &str) {
    let epoch = field(&repl_status(&mut connect(leader)), "epoch");
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        assert_zero_lag_means_same_answers(leader, follower);
        let head = leader_head(&mut connect(leader));
        let status = repl_status(&mut connect(follower));
        if field(&status, "epoch") == epoch && field(&status, "applied_lsn") == head {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{what}: never converged: {status}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let want = fingerprint(&mut connect(leader));
    assert_eq!(fingerprint(&mut connect(follower)), want, "{what}");
}

/// One batch of three reports of `object`.
fn batch(object: u64) -> Json {
    ingest_request(object, 0, 3, 20.5 + 0.05 * (object % 40) as f64, 37.0)
}

/// The leader's flush is held while the follower polls, so
/// four batches sit in the leader's WAL and state but not on its disk;
/// then the power goes. The restarted leader has lost them, serves a new
/// epoch and takes different batches under the same positions. The
/// follower must never have applied what was lost, must rebuild in the
/// new epoch, and must answer as the leader does once it reaches the
/// advertised head — and zero lag must never hide other answers.
fn power_cut_leader_rebuilds_its_follower(tag: &str, fsync: FsyncPolicy) {
    let dir = TempDir::new(tag);
    let mut cfg = leader_at(dir.path(), &free_addr(), fsync, 0);
    // One segment: a roll would wait for the held flush under the locks.
    cfg.storage.segment_bytes = 1 << 20;
    let disk = FaultDisk::new();
    let clock = Arc::new(MonotonicClock::new());
    let leader = start_with_clock(cfg.clone(), clock, disk.clone()).expect("leader start");
    let addr = leader.local_addr;
    let follower = start_follower(addr, "fenced");
    let mut c = connect(addr);
    for object in 0..4 {
        assert!(is_ok(&c.call(&batch(object)).unwrap()));
    }
    drop(c);
    await_applied(follower.local_addr, 4);

    // Four more batches, one connection each: under `always` each ack
    // waits for the held flush, and a connection runs one request at a
    // time.
    disk.hold(Op::SyncData);
    let writers: Vec<_> = (4..8)
        .map(|object| std::thread::spawn(move || drop(connect(addr).call(&batch(object)))))
        .collect();
    disk.wait_held();
    while leader_head(&mut connect(addr)) < 8 {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Let the follower poll a few times while nothing past 4 is durable.
    let seen = |c: &mut Client| {
        let status = repl_status(c);
        let fleet = status.get("followers").and_then(Json::as_array).unwrap();
        fleet
            .iter()
            .map(|f| field(f, "last_seen_us"))
            .max()
            .unwrap()
    };
    let mut c = connect(addr);
    let first = seen(&mut c);
    while seen(&mut c) < first + 2 * 5_000 {
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(c);
    let status = repl_status(&mut connect(follower.local_addr));
    assert_eq!(
        field(&status, "applied_lsn"),
        4,
        "applied what a power cut can take back"
    );

    disk.power_cut();
    leader.shutdown();
    for w in writers {
        w.join().expect("writer thread");
    }
    let leader = start(cfg).expect("leader restart");
    assert_eq!(
        leader_head(&mut connect(addr)),
        4,
        "the four unsynced batches are gone"
    );
    await_converged(addr, follower.local_addr, "after the restart");

    let mut c = connect(addr);
    for object in 20..26 {
        assert!(is_ok(&c.call(&batch(object)).unwrap()));
    }
    drop(c);
    await_converged(addr, follower.local_addr, "after new batches");
    assert_eq!(
        field(&repl_status(&mut connect(follower.local_addr)), "epoch"),
        2
    );
    follower.shutdown();
    leader.shutdown();
}

#[test]
fn power_cut_leader_rebuilds_its_follower_under_always() {
    power_cut_leader_rebuilds_its_follower("repl-cut-always", FsyncPolicy::Always);
}

#[test]
fn power_cut_leader_rebuilds_its_follower_under_every_4() {
    power_cut_leader_rebuilds_its_follower("repl-cut-every4", FsyncPolicy::EveryN(4));
}

/// A short ingest stream into a leader with a follower attached; the
/// leader's disk power-cuts at its `k`-th op (`None`: never), the leader
/// is shut down, restarted on the same directory and address, and takes
/// two more batches. The follower must end in the restarted leader's
/// epoch with its answers. Returns the ops the first leader's disk saw.
fn crash_with_follower(tag: &str, fsync: FsyncPolicy, k: Option<usize>) -> usize {
    let what = format!("{fsync:?}, power cut at op {k:?}");
    let dir = TempDir::new(tag);
    let cfg = leader_at(dir.path(), &free_addr(), fsync, 3);
    let disk = FaultDisk::new();
    if let Some(k) = k {
        disk.crash_at(k, true);
    }
    let clock = Arc::new(MonotonicClock::new());
    let first = start_with_clock(cfg.clone(), clock, disk.clone()).ok();
    let follower = first
        .as_ref()
        .map(|l| start_follower(l.local_addr, "attached"));
    if let Some(leader) = first {
        let mut c = connect(leader.local_addr);
        for object in 0..6 {
            // Ingests after the cut fail; what was acknowledged is the
            // WAL's business (crash_steps), not this test's.
            let _ = c.call(&batch(object));
        }
        drop(c);
        leader.shutdown();
    }
    let leader = start(cfg).unwrap_or_else(|e| panic!("{what}: restart failed: {e}"));
    let follower = follower.unwrap_or_else(|| start_follower(leader.local_addr, "attached"));
    let mut c = connect(leader.local_addr);
    for object in 10..12 {
        let resp = c.call(&batch(object)).unwrap();
        assert!(is_ok(&resp), "{what}: {resp}");
    }
    drop(c);
    await_converged(leader.local_addr, follower.local_addr, &what);
    follower.shutdown();
    leader.shutdown();
    disk.history().len()
}

/// Power-cuts a whole leader at each of its disk ops in turn, with a
/// follower attached, under `fsync`.
fn crash_schedule_with_a_follower(tag: &str, fsync: FsyncPolicy) {
    let ops = crash_with_follower(tag, fsync, None);
    assert!(ops > 20, "{ops} ops");
    for k in 0..ops {
        crash_with_follower(tag, fsync, Some(k));
    }
}

#[test]
fn crash_schedule_with_a_follower_under_always() {
    crash_schedule_with_a_follower("repl-steps-always", FsyncPolicy::Always);
}

#[test]
fn crash_schedule_with_a_follower_under_every_4() {
    crash_schedule_with_a_follower("repl-steps-every4", FsyncPolicy::EveryN(4));
}
