//! Crash-recovery integration tests for the durable server: kill and
//! restart on the same data directory, WAL-only replay, clean-shutdown
//! snapshots, a crash with a snapshot between begin and publish,
//! corrupted/truncated WAL tails, and the damage recovery must refuse
//! to start from (a gap behind a fallback snapshot, a record that does
//! not decode).
//!
//! A crash is something the disk does: the server runs on a
//! [`FaultDisk`], the test crashes it (every later file operation fails
//! and writes nothing, optionally after a power cut), and a
//! `shutdown()` then leaves on disk what a `kill -9` would.
//!
//! The identity tests compare a restarted durable server against a
//! never-restarted in-memory control fed the exact same batches: the
//! query-visible state (SPARQL answers, heatmap, flows, events, pipeline
//! counters) must be indistinguishable.

use datacron_core::{PipelineConfig, PolygonSpec};
use datacron_geo::BoundingBox;
use datacron_obs::MonotonicClock;
use datacron_server::client::{error_code, is_ok};
use datacron_server::codec::{decode_batch, encode_batch};
use datacron_server::protocol::{parse_request, Request};
use datacron_server::{start, start_with_clock, Client, Json, ServerConfig, ServerHandle};
use datacron_storage::test_util::{FaultDisk, Op, TempDir};
use datacron_storage::{FsyncPolicy, Storage, StorageConfig};
use std::net::SocketAddr;
use std::path::Path;
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

fn durable_config(dir: &Path, snapshot_every: u64) -> ServerConfig {
    durable_config_with(dir, snapshot_every, FsyncPolicy::Always)
}

fn durable_config_with(dir: &Path, snapshot_every: u64, fsync: FsyncPolicy) -> ServerConfig {
    ServerConfig {
        data_dir: Some(dir.to_path_buf()),
        storage: StorageConfig {
            segment_bytes: 4096,
            fsync,
            snapshot_every_records: snapshot_every,
        },
        ..test_config()
    }
}

/// Starts a server whose file layer the test can fail, hold and crash.
fn start_on(cfg: ServerConfig, disk: &Arc<FaultDisk>) -> ServerHandle {
    start_with_clock(cfg, Arc::new(MonotonicClock::new()), disk.clone()).expect("durable start")
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

/// Feeds the deterministic batch sequence used by the identity tests:
/// three objects on distinct tracks, including a west→east zone
/// migration so flows and zone events exist.
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

/// Everything query-visible, normalised so legitimate nondeterminism
/// (timings, top-k tie order) can't cause false mismatches.
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
        let mut scalars: Vec<String> = Vec::new();
        if let Json::Obj(fields) = result {
            for (k, v) in fields {
                if k != list_key {
                    scalars.push(format!("{k}={v}"));
                }
            }
        }
        out.push(format!("{ep} {scalars:?} {items:?}"));
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
    for path in [
        "pipeline.reports_in",
        "pipeline.reports_clean",
        "pipeline.reports_kept",
        "pipeline.events",
        "pipeline.triples",
        "graph.triples",
    ] {
        out.push(format!("{path}={}", at(&resp, path).as_u64().unwrap()));
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

/// The newest WAL segment file under the data dir.
fn newest_segment(dir: &Path) -> std::path::PathBuf {
    let mut segs: Vec<_> = std::fs::read_dir(dir.join("wal"))
        .expect("wal dir")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .collect();
    segs.sort();
    segs.pop().expect("at least one segment")
}

#[test]
fn kill_and_restart_replays_wal_to_identical_state() {
    let dir = TempDir::new("itest-replay");
    // Snapshots off: recovery is a pure WAL replay from birth, so the
    // CEP detectors see the identical report stream as the control.
    let control = start(test_config()).expect("control start");
    let disk = FaultDisk::new();
    let durable = start_on(durable_config(dir.path(), 0), &disk);

    feed(&mut connect(control.local_addr));
    feed(&mut connect(durable.local_addr));

    // Unclean stop: no final fsync, no shutdown snapshot.
    disk.crash();
    durable.shutdown();

    let restarted = start(durable_config(dir.path(), 0)).expect("restart");
    let want = fingerprint(&mut connect(control.local_addr));
    let got = fingerprint(&mut connect(restarted.local_addr));
    assert_eq!(got, want, "restarted state must match the control");

    restarted.shutdown();
    control.shutdown();
}

#[test]
fn snapshot_recovery_matches_control_and_retires_segments() {
    let dir = TempDir::new("itest-snap");
    // Snapshot after every batch: recovery is snapshot-only (empty WAL
    // tail), exercising the full state codec instead of replay.
    let control = start(test_config()).expect("control start");
    let disk = FaultDisk::new();
    let durable = start_on(durable_config(dir.path(), 1), &disk);

    for server in [&control, &durable] {
        let mut c = connect(server.local_addr);
        feed(&mut c);
        feed_fleet(&mut c);
    }
    // Snapshots are written in the background and a threshold crossing
    // during one is skipped, so the last one may trail the log. With no
    // snapshot in flight, one more batch begins a snapshot that covers
    // everything.
    let mut c = connect(durable.local_addr);
    await_no_snapshot_in_flight(&mut c);
    for server in [&control, &durable] {
        let resp = connect(server.local_addr)
            .call(&ingest_request(4, 0, 30, 22.0, 39.0))
            .unwrap();
        assert!(is_ok(&resp), "ingest failed: {resp}");
    }
    await_no_snapshot_in_flight(&mut c);

    // Snapshots bound the log: covered segments are retired.
    let resp = c.call(&Json::obj().field("type", "stats").build()).unwrap();
    assert!(is_ok(&resp), "{resp}");
    assert!(resp.get("uptime_ms").and_then(Json::as_u64).is_some());
    let u64_at = |path: &str| at(&resp, path).as_u64();
    assert_eq!(u64_at("storage.records_since_snapshot"), Some(0));
    assert_eq!(u64_at("wal.segments"), Some(1));
    assert!(u64_at("wal.fsyncs").unwrap() >= 5);
    assert!(u64_at("wal.fsync_latency_us.p99").is_some());
    drop(c);

    disk.crash();
    durable.shutdown();
    let restarted = start(durable_config(dir.path(), 1)).expect("restart");
    let want = fingerprint(&mut connect(control.local_addr));
    let got = fingerprint(&mut connect(restarted.local_addr));
    assert_eq!(got, want, "snapshot-recovered state must match the control");

    restarted.shutdown();
    control.shutdown();
}

/// The value at a dotted `stats` path, e.g. `storage.last_snapshot_seq`.
fn at(stats: &Json, path: &str) -> Json {
    path.split('.')
        .try_fold(stats, |v, key| v.get(key))
        .cloned()
        .unwrap_or_else(|| panic!("stats.{path} missing: {stats}"))
}

fn stat(c: &mut Client, path: &str) -> Json {
    let resp = c.call(&Json::obj().field("type", "stats").build()).unwrap();
    assert!(is_ok(&resp), "{resp}");
    at(&resp, path)
}

/// Polls `stats` until no snapshot is between begin and publish. A
/// threshold snapshot is begun before the ack of the batch that crossed
/// the threshold, so after that ack this waits for its publish.
fn await_no_snapshot_in_flight(c: &mut Client) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while stat(c, "storage.snapshot_in_flight").as_u64() != Some(0) {
        assert!(Instant::now() < deadline, "snapshot still in flight");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn files_with_ext(dir: &Path, sub: &str, ext: &str) -> usize {
    std::fs::read_dir(dir.join(sub))
        .expect("data subdirectory")
        .filter(|e| {
            let path = e.as_ref().unwrap().path();
            path.extension().is_some_and(|x| x == ext)
        })
        .count()
}

/// A crash with a snapshot written but not yet renamed: recovery must
/// come from the previous snapshot plus the *whole* tail after it — no
/// segment may have been retired on the strength of a snapshot that
/// never became visible — and match a never-restarted control.
#[test]
fn abort_between_begin_and_publish_recovers_previous_snapshot_and_full_tail() {
    let dir = TempDir::new("itest-inflight");
    let control = start(test_config()).expect("control start");
    // Threshold 5 = the five batches of `feed`: one snapshot installs.
    let disk = FaultDisk::new();
    let durable = start_on(durable_config(dir.path(), 5), &disk);

    let mut c = connect(durable.local_addr);
    feed(&mut connect(control.local_addr));
    feed(&mut c);
    await_no_snapshot_in_flight(&mut c);
    assert_eq!(stat(&mut c, "storage.last_snapshot_seq").as_u64(), Some(5));
    assert_eq!(stat(&mut c, "storage.snapshot_in_flight").as_u64(), Some(0));

    // The second crossing is held between its temp-file fsync and its
    // rename; ingest keeps being acknowledged meanwhile, and further
    // crossings are skipped rather than queued behind it.
    disk.hold(Op::Rename);
    for (i, server) in [&control, &durable].into_iter().enumerate() {
        let mut c = connect(server.local_addr);
        for batch in 0..12u64 {
            let resp = c
                .call(&ingest_request(
                    300 + batch,
                    0,
                    20,
                    21.0,
                    35.0 + batch as f64 * 0.1,
                ))
                .unwrap();
            assert!(is_ok(&resp), "ingest failed: {resp}");
            if i == 1 && batch == 4 {
                disk.wait_held();
            }
        }
    }
    assert_eq!(stat(&mut c, "storage.snapshot_in_flight").as_u64(), Some(1));
    assert_eq!(stat(&mut c, "storage.last_snapshot_seq").as_u64(), Some(5));
    assert_eq!(
        stat(&mut c, "storage.records_since_snapshot").as_u64(),
        Some(12)
    );
    let segments = stat(&mut c, "wal.segments").as_u64().unwrap();
    assert!(
        segments > 1,
        "the tail must span segments to prove none retired"
    );
    assert_eq!(files_with_ext(dir.path(), "snapshots", "tmp"), 1);
    drop(c);

    // The crash fails the held rename.
    disk.crash();
    durable.shutdown();
    assert_eq!(
        files_with_ext(dir.path(), "wal", "log") as u64,
        segments,
        "no segment retired"
    );
    assert_eq!(files_with_ext(dir.path(), "snapshots", "snap"), 1);

    let restarted = start(durable_config(dir.path(), 0)).expect("restart");
    assert_eq!(
        files_with_ext(dir.path(), "snapshots", "tmp"),
        0,
        "start-up sweeps the abandoned temp file"
    );
    let mut c = connect(restarted.local_addr);
    assert_eq!(stat(&mut c, "storage.last_snapshot_seq").as_u64(), Some(5));
    assert_eq!(
        stat(&mut c, "storage.records_since_snapshot").as_u64(),
        Some(12)
    );
    let recovery = stat(&mut c, "storage.recovery_us");
    for phase in ["wal_open", "snapshot_load", "wal_read", "restore", "replay"] {
        assert!(
            recovery.get(phase).and_then(Json::as_u64).is_some(),
            "{recovery}"
        );
    }
    drop(c);
    let want = fingerprint(&mut connect(control.local_addr));
    let got = fingerprint(&mut connect(restarted.local_addr));
    assert_eq!(got, want, "recovered state must match the control");

    restarted.shutdown();
    control.shutdown();
}

/// The snapshot thread publishes on its own: no later ingest is needed
/// for `last_snapshot_seq` to move, and a clean shutdown that finds a
/// snapshot in flight waits for it before installing the final one.
#[test]
fn threshold_snapshot_installs_in_background_and_shutdown_drains_it() {
    let dir = TempDir::new("itest-background");
    let disk = FaultDisk::new();
    let durable = start_on(durable_config(dir.path(), 5), &disk);
    let mut c = connect(durable.local_addr);
    feed(&mut c);
    await_no_snapshot_in_flight(&mut c);
    assert_eq!(stat(&mut c, "storage.last_snapshot_seq").as_u64(), Some(5));
    assert_eq!(
        stat(&mut c, "storage.records_since_snapshot").as_u64(),
        Some(0)
    );

    disk.hold(Op::Rename);
    feed(&mut c);
    disk.wait_held();
    assert_eq!(stat(&mut c, "storage.snapshot_in_flight").as_u64(), Some(1));
    drop(c);
    // Released from another thread once shutdown is already waiting or
    // about to: either order must end with both snapshots installed.
    let release = std::thread::spawn({
        let disk = Arc::clone(&disk);
        move || disk.release()
    });
    durable.shutdown();
    release.join().unwrap();

    let (_, recovery) = Storage::open(
        dir.path(),
        StorageConfig {
            segment_bytes: 4096,
            fsync: FsyncPolicy::Always,
            snapshot_every_records: 0,
        },
    )
    .expect("reopen");
    assert_eq!(recovery.snapshot.map(|(seq, _)| seq), Some(10));
    assert!(recovery.wal_tail.is_empty());
}

#[test]
fn clean_shutdown_installs_final_snapshot_with_empty_tail() {
    let dir = TempDir::new("itest-clean");
    let handle = start(durable_config(dir.path(), 0)).expect("start");
    feed(&mut connect(handle.local_addr));
    handle.shutdown();

    // The directory holds a snapshot covering everything: no tail to
    // replay, nothing truncated.
    let (_, recovery) = Storage::open(
        dir.path(),
        StorageConfig {
            segment_bytes: 4096,
            fsync: FsyncPolicy::Always,
            snapshot_every_records: 0,
        },
    )
    .expect("reopen");
    let (_, payload) = recovery.snapshot.expect("clean-shutdown snapshot");
    assert!(!payload.is_empty());
    assert!(
        recovery.wal_tail.is_empty(),
        "tail: {}",
        recovery.wal_tail.len()
    );
    assert!(recovery.truncation.is_none());

    // And the restarted server serves from it.
    let restarted = start(durable_config(dir.path(), 0)).expect("restart");
    let mut c = connect(restarted.local_addr);
    assert!(object_rows(&mut c, 1) > 0);
    assert!(object_rows(&mut c, 3) > 0);
    drop(c);
    restarted.shutdown();
}

/// Appends one batch per object so WAL records map 1:1 to objects, kills
/// the server, damages the log tail, and asserts recovery keeps every
/// record before the damage and drops everything after — no panics.
fn corrupt_tail_case(tag: &str, damage: impl FnOnce(&Path)) {
    let dir = TempDir::new(tag);
    let disk = FaultDisk::new();
    let handle = start_on(durable_config(dir.path(), 0), &disk);
    let mut c = connect(handle.local_addr);
    for obj in 0..6u64 {
        let resp = c
            .call(&ingest_request(100 + obj, 0, 10, 20.5 + obj as f64, 37.0))
            .unwrap();
        assert!(is_ok(&resp), "{resp}");
    }
    drop(c);
    disk.crash();
    handle.shutdown();

    damage(dir.path());

    let restarted = start(durable_config(dir.path(), 0)).expect("restart after damage");
    let mut c = connect(restarted.local_addr);
    // Damage hit the newest record(s): the first objects must have
    // survived, the last must be gone.
    for obj in 0..4u64 {
        assert!(
            object_rows(&mut c, 100 + obj) > 0,
            "object {} lost before the damaged tail",
            100 + obj
        );
    }
    assert_eq!(
        object_rows(&mut c, 105),
        0,
        "damaged final record must not replay"
    );
    // The recovered server keeps accepting writes.
    let resp = c.call(&ingest_request(200, 0, 10, 22.0, 37.0)).unwrap();
    assert!(is_ok(&resp), "{resp}");
    assert!(object_rows(&mut c, 200) > 0);
    drop(c);
    restarted.shutdown();
}

#[test]
fn bit_flipped_tail_recovers_to_last_valid_record() {
    corrupt_tail_case("itest-bitflip", |dir| {
        let seg = newest_segment(dir);
        let mut bytes = std::fs::read(&seg).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0x80;
        std::fs::write(&seg, &bytes).unwrap();
    });
}

/// The positions named by the files `<prefix><hex seq><ext>` in one
/// data subdirectory, ascending.
fn positions(dir: &Path, sub: &str, prefix: &str, ext: &str) -> Vec<u64> {
    let mut seqs: Vec<u64> = std::fs::read_dir(dir.join(sub))
        .expect("data subdirectory")
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            let hex = name.strip_prefix(prefix)?.strip_suffix(ext)?;
            u64::from_str_radix(hex, 16).ok()
        })
        .collect();
    seqs.sort_unstable();
    seqs
}

/// Starting must fail; a server that comes up anyway is shut down and
/// reported with how many reports it holds.
fn start_err(cfg: ServerConfig) -> String {
    match start(cfg) {
        Ok(handle) => {
            let reports_in = stat(&mut connect(handle.local_addr), "pipeline.reports_in");
            handle.shutdown();
            panic!("the server started (pipeline.reports_in = {reports_in})");
        }
        Err(e) => e.to_string(),
    }
}

/// A corrupt newest snapshot makes recovery fall back to the previous
/// one. When the WAL no longer holds every record after that snapshot —
/// a clean shutdown retired it up to the newest — the state would come
/// up without acknowledged batches, so startup fails naming the
/// snapshot's position and the first record the log still has.
#[test]
fn recovery_refuses_a_gap_behind_the_fallback_snapshot() {
    let dir = TempDir::new("itest-gap");
    let cfg = || {
        let mut cfg = durable_config(dir.path(), 3);
        // One record per segment: retiring below a position removes
        // every record before it.
        cfg.storage.segment_bytes = 1;
        cfg
    };
    let handle = start(cfg()).expect("start");
    let mut c = connect(handle.local_addr);
    for batch in 0..8u64 {
        let lat = 35.0 + 0.1 * batch as f64;
        let resp = c
            .call(&ingest_request(600 + batch, 0, 10, 21.0, lat))
            .unwrap();
        assert!(is_ok(&resp), "{resp}");
        // Each threshold snapshot publishes before the next batch, so
        // none is skipped: they land at 3 and 6.
        await_no_snapshot_in_flight(&mut c);
    }
    assert_eq!(stat(&mut c, "storage.last_snapshot_seq").as_u64(), Some(6));
    assert!(
        positions(dir.path(), "wal", "wal-", ".log")[0] > 0,
        "no segment retired"
    );
    drop(c);
    // Clean shutdown: a final snapshot at 8 retires the WAL below it,
    // and the one at 6 stays as the fallback.
    handle.shutdown();
    assert_eq!(positions(dir.path(), "snapshots", "snap-", ".snap"), [6, 8]);
    let first_retained = positions(dir.path(), "wal", "wal-", ".log")[0];
    assert_eq!(
        first_retained, 7,
        "record 6 lives only in the newest snapshot"
    );

    let newest = dir.path().join("snapshots/snap-0000000000000008.snap");
    let mut bytes = std::fs::read(&newest).unwrap();
    let n = bytes.len();
    bytes[n - 1] ^= 0x80;
    std::fs::write(&newest, &bytes).unwrap();

    let msg = start_err(cfg());
    assert!(
        msg.contains("position 6") && msg.contains(&format!("seq {first_retained}")),
        "{msg}"
    );
}

/// A record that passes its checksum but does not decode is not a torn
/// tail: every later append would land behind it, where no restart or
/// follower can get past it, and those acknowledged writes would be lost
/// on the next restart. Startup refuses it.
#[test]
fn undecodable_wal_record_aborts_startup() {
    let dir = TempDir::new("itest-undecodable");
    let cfg = durable_config(dir.path(), 0);
    {
        let (mut storage, _) = Storage::open(dir.path(), cfg.storage.clone()).expect("open");
        for obj in 0..3u64 {
            let line = ingest_request(700 + obj, 0, 5, 21.0, 36.0).to_string();
            let Request::Ingest { reports } = parse_request(&line).unwrap().req else {
                unreachable!("an ingest request parses as one");
            };
            storage.append(&encode_batch(&reports)).expect("append");
        }
        assert_eq!(storage.append(b"not a batch").expect("append"), 3);
    }
    let msg = start_err(cfg);
    assert!(msg.contains("WAL record 3"), "{msg}");
}

/// Crash-torture for group commit: concurrent clients hammer durable
/// ingest, each recording exactly the batches the server acknowledged,
/// and the disk crashes mid-stream. After a process crash recovery must
/// contain every acknowledged batch (a process crash loses nothing
/// written). After a power cut — every file cut back to what was synced,
/// unsynced directory entries lost — what is missing of the acknowledged
/// batches is at most the policy's slack: none under `always`, three
/// under `every=4`. Durable-but-unacked extras are allowed: the
/// invariant under test is ack ⟹ durable (within the slack), never the
/// converse.
///
/// Each batch uses a unique object id encoding (client, batch), so "batch
/// replayed" reduces to "object present in the decoded WAL".
#[test]
fn crash_torture_every_acked_batch_survives_abort() {
    crash_torture("itest-torture", FsyncPolicy::Always);
}

#[test]
fn crash_torture_every_4_leaves_at_most_three_acked_batches_undurable() {
    crash_torture("itest-torture-every4", FsyncPolicy::EveryN(4));
}

fn crash_torture(tag: &str, fsync: FsyncPolicy) {
    for power_cut in [false, true] {
        crash_torture_once(tag, fsync, power_cut);
    }
}

fn crash_torture_once(tag: &str, fsync: FsyncPolicy, power_cut: bool) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    const CLIENTS: u64 = 8;
    let dir = TempDir::new(tag);
    let disk = FaultDisk::new();
    let handle = start_on(durable_config_with(dir.path(), 0, fsync), &disk);
    let addr = handle.local_addr;

    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(CLIENTS as usize + 1));
    let mut threads = Vec::new();
    for client in 0..CLIENTS {
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        threads.push(std::thread::spawn(move || {
            let mut c = connect(addr);
            let mut acked: Vec<u64> = Vec::new();
            barrier.wait();
            for batch in 0.. {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let object = 10_000 + client * 10_000 + batch;
                // An errored or unread response simply isn't recorded:
                // losing an unacked batch is legal, losing an acked one
                // is the bug this test exists to catch.
                match c.call(&ingest_request(object, 0, 2, 20.0 + client as f64, 36.0)) {
                    Ok(resp) if is_ok(&resp) => acked.push(object),
                    _ => break,
                }
            }
            acked
        }));
    }

    barrier.wait();
    std::thread::sleep(Duration::from_millis(300));
    stop.store(true, Ordering::SeqCst);
    // Mid-stream crash: every file operation from here on fails, so
    // in-flight acks fail rather than fire; shutdown then closes every
    // connection, unblocking any client still waiting on a response.
    if power_cut {
        disk.power_cut();
    } else {
        disk.crash();
    }
    handle.shutdown();
    let acked: Vec<u64> = threads
        .into_iter()
        .flat_map(|t| t.join().expect("client thread"))
        .collect();
    assert!(
        acked.len() as u64 >= CLIENTS,
        "torture run acked too little ({} batches) to be meaningful",
        acked.len()
    );

    // Recover the directory and decode what actually hit the log.
    let (_, recovery) = Storage::open(
        dir.path(),
        StorageConfig {
            segment_bytes: 4096,
            fsync: FsyncPolicy::Always,
            snapshot_every_records: 0,
        },
    )
    .expect("reopen");
    assert!(recovery.snapshot.is_none(), "snapshots were disabled");
    let recovered: std::collections::HashSet<u64> = recovery
        .wal_tail
        .iter()
        .flat_map(|(_, payload)| {
            let batch = decode_batch(payload).expect("decode recovered batch");
            batch.into_iter().map(|r| r.object.raw())
        })
        .collect();
    let lost: Vec<u64> = acked
        .iter()
        .copied()
        .filter(|o| !recovered.contains(o))
        .collect();
    let allowed = if power_cut { fsync.slack() } else { 0 };
    assert!(
        lost.len() as u64 <= allowed,
        "{} acked batches lost after a {} under {fsync:?} (of {} acked, {} recovered): {:?}",
        lost.len(),
        if power_cut { "power cut" } else { "crash" },
        acked.len(),
        recovered.len(),
        &lost[..lost.len().min(16)]
    );

    // And a restarted server replays them into query-visible state.
    let restarted = start(durable_config(dir.path(), 0)).expect("restart");
    let mut c = connect(restarted.local_addr);
    for &object in acked
        .iter()
        .take(3)
        .chain(acked.iter().rev().take(3))
        .filter(|o| !lost.contains(o))
    {
        assert!(
            object_rows(&mut c, object) > 0,
            "acked object {object} missing after replay"
        );
    }
    drop(c);
    restarted.shutdown();
}

/// A failed flush under `every=4`: the ack that was waiting on it
/// carries `storage_error`, the WAL stays poisoned for every later
/// ingest, and the fsync is never tried again.
#[test]
fn failed_flush_under_every_4_fails_the_waiting_ack_and_poisons_for_good() {
    let dir = TempDir::new("itest-poison-every4");
    let cfg = durable_config_with(dir.path(), 0, FsyncPolicy::EveryN(4));
    let disk = FaultDisk::new();
    let handle = start_on(cfg, &disk);
    let mut c = connect(handle.local_addr);

    // Three batches fit in the slack: acknowledged, no flush asked for.
    for obj in 0..3u64 {
        let resp = c
            .call(&ingest_request(500 + obj, 0, 2, 21.0, 36.0))
            .unwrap();
        assert!(is_ok(&resp), "{resp}");
    }
    assert_eq!(stat(&mut c, "wal.fsyncs").as_u64(), Some(0));

    // The fourth asks for the flush and its ack waits on it.
    disk.fail(Op::SyncData, 1);
    let resp = c.call(&ingest_request(503, 0, 2, 21.0, 36.0)).unwrap();
    assert_eq!(error_code(&resp), Some("storage_error"), "{resp}");
    let msg = resp.get("error").and_then(Json::as_str).unwrap();
    assert!(msg.contains("injected fsync failure"), "{msg}");

    // Only one failure was armed: a retried fsync would succeed, count,
    // and move the watermark.
    for obj in 4..8u64 {
        let resp = c
            .call(&ingest_request(500 + obj, 0, 2, 21.0, 36.0))
            .unwrap();
        assert_eq!(error_code(&resp), Some("storage_error"), "{resp}");
    }
    assert_eq!(stat(&mut c, "wal.fsyncs").as_u64(), Some(0));
    assert_eq!(stat(&mut c, "wal.durable_lsn").as_u64(), Some(0));
    assert_eq!(stat(&mut c, "wal.next_seq").as_u64(), Some(4));
    // Reads are unaffected.
    assert!(object_rows(&mut c, 500) > 0);
    drop(c);
    disk.crash();
    handle.shutdown();
}

#[test]
fn truncated_tail_recovers_without_panic() {
    corrupt_tail_case("itest-truncate", |dir| {
        let seg = newest_segment(dir);
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 5]).unwrap();
    });
}
