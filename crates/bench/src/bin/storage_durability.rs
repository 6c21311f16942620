//! E15 — durable-ingest throughput vs. fsync policy, and recovery time
//! vs. WAL length.
//!
//! ```sh
//! cargo run --release -p datacron-bench --bin storage_durability           # full
//! cargo run --release -p datacron-bench --bin storage_durability -- quick  # CI-sized
//! ```
//!
//! Part 1 sweeps the WAL's group-commit fsync policy (`always`,
//! `every=8`, `every=64`, `never`) over a fixed stream of encoded ingest
//! batches and reports append throughput plus fsync p99 — the durability
//! price list. Part 3 re-runs `always` with 1/4/8/32 concurrent
//! appenders through the group-commit fsync thread: each client blocks
//! on the shared `durable_lsn` watermark instead of its own fsync, so
//! one `sync_data` covers the whole group and throughput scales with
//! client count. Part 2 grows the WAL, then measures a cold recovery the
//! way `datacron-server` performs it: read + verify + decode the log,
//! replay it through a fresh analytics state, and — for comparison — a
//! snapshot-only restart of the same state. Replay is measured both
//! ways: one `ingest` call per WAL record (a graph commit per record,
//! the pre-replication behaviour) and the
//! batch path (`ingest_many`, one commit for the whole log) the server
//! and follower catch-up now use. Results land in `BENCH_storage.json`
//! at the repo root.

use datacron_core::PipelineConfig;
use datacron_geo::{BoundingBox, GeoPoint, TimeMs};
use datacron_model::{NavStatus, ObjectId, PositionReport, SourceId};
use datacron_server::codec::{decode_batch, encode_batch};
use datacron_server::AnalyticsState;
use datacron_storage::test_util::TempDir;
use datacron_storage::{FsyncPolicy, Storage, StorageConfig};
use std::fmt::Write as _;
use std::time::Instant;

/// Deterministic xorshift64* so every run streams the same batches.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const REGION: BoundingBox = BoundingBox {
    min_lon: 19.0,
    min_lat: 33.0,
    max_lon: 30.0,
    max_lat: 41.0,
};

const REPORTS_PER_BATCH: usize = 20;

/// One encoded ingest batch: `REPORTS_PER_BATCH` in-region fixes from a
/// rotating fleet, timestamps advancing so the pipeline keeps them.
fn make_batch(rng: &mut Rng, batch_no: u64) -> Vec<u8> {
    let reports: Vec<PositionReport> = (0..REPORTS_PER_BATCH as u64)
        .map(|i| {
            let obj = 1 + (batch_no * 7 + i) % 50;
            PositionReport::maritime(
                ObjectId(obj),
                TimeMs(((batch_no * REPORTS_PER_BATCH as u64 + i) * 10_000) as i64),
                GeoPoint::new(
                    20.0 + rng.below(9_000) as f64 / 1000.0,
                    34.0 + rng.below(6_000) as f64 / 1000.0,
                ),
                2.0 + rng.below(100) as f64 / 10.0,
                rng.below(360) as f64,
                SourceId::AIS_TERRESTRIAL,
                NavStatus::UnderWay,
            )
        })
        .collect();
    encode_batch(&reports)
}

fn storage_cfg(fsync: FsyncPolicy) -> StorageConfig {
    StorageConfig {
        segment_bytes: 8 * 1024 * 1024,
        fsync,
        snapshot_every_records: 0,
    }
}

struct SweepResult {
    policy: String,
    records_per_s: u64,
    mib_per_s: f64,
    fsync_p99_us: u64,
    fsyncs: u64,
}

/// Appends `batches` pre-encoded records under one fsync policy.
fn fsync_sweep(policy: FsyncPolicy, name: &str, batches: &[Vec<u8>]) -> SweepResult {
    let dir = TempDir::new("bench-fsync");
    let (mut storage, _) = Storage::open(dir.path(), storage_cfg(policy)).expect("open");
    let bytes: usize = batches.iter().map(Vec::len).sum();
    let t = Instant::now();
    for payload in batches {
        storage.append(payload).expect("append");
    }
    storage.sync().expect("final sync");
    let elapsed = t.elapsed();
    let stats = storage.stats();
    SweepResult {
        policy: name.to_string(),
        records_per_s: (batches.len() as f64 / elapsed.as_secs_f64()) as u64,
        mib_per_s: bytes as f64 / (1024.0 * 1024.0) / elapsed.as_secs_f64(),
        fsync_p99_us: stats.fsync_p99_us,
        fsyncs: stats.fsyncs,
    }
}

struct ConcurrentResult {
    clients: usize,
    records_per_s: u64,
    fsyncs: u64,
    commit_batches: u64,
    avg_group: f64,
    speedup_vs_serial: f64,
}

/// Part 3: concurrent durable ingest at `fsync=always` through the
/// group-commit path. N appender threads share the storage lock only
/// for the (short) buffered write, then block on the durable watermark
/// — the same discipline the server's deferred acks follow. The fsync
/// thread amortises one `sync_data` over every record written since the
/// previous one, so throughput scales with client count instead of
/// paying one fsync per record.
fn concurrent_always(
    clients: usize,
    total_batches: usize,
    batches: &[Vec<u8>],
    serial_rps: u64,
) -> ConcurrentResult {
    use std::sync::{Arc, Mutex};
    let dir = TempDir::new("bench-group");
    let (storage, _) = Storage::open(dir.path(), storage_cfg(FsyncPolicy::Always)).expect("open");
    let commit = storage.commit();
    let storage = Arc::new(Mutex::new(storage));
    let per_thread = total_batches / clients;

    let t = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            let storage = Arc::clone(&storage);
            let commit = Arc::clone(&commit);
            let my: Vec<Vec<u8>> = (0..per_thread)
                .map(|i| batches[(c * per_thread + i) % batches.len()].clone())
                .collect();
            std::thread::spawn(move || {
                for payload in &my {
                    let (_, ack_lsn) = storage
                        .lock()
                        .expect("storage lock")
                        .append_async(payload)
                        .expect("append");
                    commit.wait_durable(ack_lsn).expect("durable");
                }
            })
        })
        .collect();
    for th in threads {
        th.join().expect("appender thread");
    }
    let elapsed = t.elapsed();

    let appended = per_thread * clients;
    let rps = appended as f64 / elapsed.as_secs_f64();
    let stats = storage.lock().expect("storage lock").stats();
    assert!(
        stats.durable_lsn >= appended as u64,
        "every appended record must be durable before its waiter returns"
    );
    ConcurrentResult {
        clients,
        records_per_s: rps as u64,
        fsyncs: stats.fsyncs,
        commit_batches: stats.commit_batches,
        avg_group: appended as f64 / stats.fsyncs.max(1) as f64,
        speedup_vs_serial: rps / serial_rps.max(1) as f64,
    }
}

fn fresh_state() -> AnalyticsState {
    AnalyticsState::new(
        PipelineConfig {
            region: REGION,
            ..PipelineConfig::default()
        },
        0.25,
    )
}

struct RecoveryResult {
    wal_records: usize,
    wal_bytes: u64,
    read_ms: f64,
    replay_ms: f64,
    replay_batch_ms: f64,
    snapshot_bytes: usize,
    snapshot_restore_ms: f64,
}

/// Builds a WAL of `n_batches` records, then measures a cold restart
/// both ways: WAL read+replay, and snapshot-only restore.
fn recovery_run(n_batches: usize, batches: &[Vec<u8>]) -> RecoveryResult {
    let dir = TempDir::new("bench-recovery");
    let wal_bytes;
    {
        let (mut storage, _) =
            Storage::open(dir.path(), storage_cfg(FsyncPolicy::Never)).expect("open");
        for payload in &batches[..n_batches] {
            storage.append(payload).expect("append");
        }
        storage.sync().expect("sync");
        wal_bytes = storage.stats().wal_bytes;
    }

    // Cold recovery, exactly the server's sequence: open (verifies CRCs
    // and collects the tail), decode every record, replay through a
    // fresh analytics state.
    let t = Instant::now();
    let (_, recovery) = Storage::open(dir.path(), storage_cfg(FsyncPolicy::Never)).expect("reopen");
    let decoded: Vec<Vec<PositionReport>> = recovery
        .wal_tail
        .iter()
        .map(|(_, payload)| decode_batch(payload).expect("decode"))
        .collect();
    let read_ms = t.elapsed().as_secs_f64() * 1000.0;
    assert_eq!(decoded.len(), n_batches);

    let mut state = fresh_state();
    let t = Instant::now();
    for batch in &decoded {
        state.ingest(batch);
    }
    let replay_ms = t.elapsed().as_secs_f64() * 1000.0;

    // Batch replay: the whole decoded log through `ingest_many`, one
    // graph commit total. This is the path recovery and follower
    // catch-up actually take.
    let mut batch_state = fresh_state();
    let t = Instant::now();
    batch_state.ingest_many(&decoded);
    let replay_batch_ms = t.elapsed().as_secs_f64() * 1000.0;
    drop(batch_state);

    // The alternative: restore the same end state from a snapshot.
    let snapshot = state.to_snapshot_bytes();
    let t = Instant::now();
    let restored = AnalyticsState::from_snapshot_bytes(
        PipelineConfig {
            region: REGION,
            ..PipelineConfig::default()
        },
        0.25,
        &snapshot,
    )
    .expect("snapshot restore");
    let snapshot_restore_ms = t.elapsed().as_secs_f64() * 1000.0;
    drop(restored);

    RecoveryResult {
        wal_records: n_batches,
        wal_bytes,
        read_ms,
        replay_ms,
        replay_batch_ms,
        snapshot_bytes: snapshot.len(),
        snapshot_restore_ms,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "quick" || a == "--quick");
    let sweep_batches = if quick { 500 } else { 2_000 };
    let recovery_sizes: &[usize] = if quick {
        &[250, 1_000]
    } else {
        &[500, 2_000, 8_000]
    };

    let mut rng = Rng(0xE15_5EED);
    let max_batches = sweep_batches.max(*recovery_sizes.iter().max().unwrap());
    eprintln!("encoding {max_batches} batches of {REPORTS_PER_BATCH} reports");
    let batches: Vec<Vec<u8>> = (0..max_batches as u64)
        .map(|i| make_batch(&mut rng, i))
        .collect();

    let policies = [
        (FsyncPolicy::Always, "always"),
        (FsyncPolicy::EveryN(8), "every=8"),
        (FsyncPolicy::EveryN(64), "every=64"),
        (FsyncPolicy::Never, "never"),
    ];
    let mut sweep = Vec::new();
    for (policy, name) in policies {
        let r = fsync_sweep(policy, name, &batches[..sweep_batches]);
        eprintln!(
            "fsync {:8} {:>8} rec/s {:>8.1} MiB/s (fsyncs {}, p99 {}us)",
            r.policy, r.records_per_s, r.mib_per_s, r.fsyncs, r.fsync_p99_us
        );
        sweep.push(r);
    }

    // Part 3: the group-commit sweep. Speedup is against this run's own
    // serial `always` result so the comparison shares hardware and page
    // cache state.
    let serial_rps = sweep
        .iter()
        .find(|r| r.policy == "always")
        .map(|r| r.records_per_s)
        .unwrap_or(1);
    let concurrent_batches = if quick { 2_000 } else { 8_000 };
    let mut concurrent = Vec::new();
    for clients in [1usize, 4, 8, 32] {
        let r = concurrent_always(clients, concurrent_batches, &batches, serial_rps);
        eprintln!(
            "group-commit {:>2} clients: {:>8} rec/s ({:.1}x serial always, {} fsyncs, avg group {:.1})",
            r.clients, r.records_per_s, r.speedup_vs_serial, r.fsyncs, r.avg_group
        );
        concurrent.push(r);
    }

    let mut recoveries = Vec::new();
    for &n in recovery_sizes {
        let r = recovery_run(n, &batches);
        eprintln!(
            "recovery {:>6} records: read {:.1}ms replay {:.1}ms batch-replay {:.1}ms ({:.0}x) | snapshot restore {:.1}ms ({} bytes)",
            r.wal_records,
            r.read_ms,
            r.replay_ms,
            r.replay_batch_ms,
            r.replay_ms / r.replay_batch_ms.max(0.001),
            r.snapshot_restore_ms,
            r.snapshot_bytes
        );
        recoveries.push(r);
    }

    let mut out = String::from("{\n  \"experiment\": \"E15\",\n");
    let _ = writeln!(
        out,
        "  \"reports_per_batch\": {REPORTS_PER_BATCH},\n  \"fsync_sweep_batches\": {sweep_batches},"
    );
    out.push_str("  \"fsync_sweep\": [\n");
    for (i, r) in sweep.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"policy\": \"{}\", \"records_per_s\": {}, \"mib_per_s\": {:.2}, \"fsync_p99_us\": {}, \"fsyncs\": {}}}{}",
            r.policy,
            r.records_per_s,
            r.mib_per_s,
            r.fsync_p99_us,
            r.fsyncs,
            if i + 1 < sweep.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n");
    let _ = writeln!(out, "  \"concurrent_batches\": {concurrent_batches},");
    out.push_str("  \"concurrent_always\": [\n");
    for (i, r) in concurrent.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"clients\": {}, \"records_per_s\": {}, \"fsyncs\": {}, \"commit_batches\": {}, \"avg_group_size\": {:.1}, \"speedup_vs_serial\": {:.1}}}{}",
            r.clients,
            r.records_per_s,
            r.fsyncs,
            r.commit_batches,
            r.avg_group,
            r.speedup_vs_serial,
            if i + 1 < concurrent.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"recovery\": [\n");
    for (i, r) in recoveries.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"wal_records\": {}, \"wal_bytes\": {}, \"wal_read_ms\": {:.2}, \"replay_ms\": {:.2}, \"replay_batch_ms\": {:.2}, \"replay_speedup\": {:.1}, \"snapshot_bytes\": {}, \"snapshot_restore_ms\": {:.2}}}{}",
            r.wal_records,
            r.wal_bytes,
            r.read_ms,
            r.replay_ms,
            r.replay_batch_ms,
            r.replay_ms / r.replay_batch_ms.max(0.001),
            r.snapshot_bytes,
            r.snapshot_restore_ms,
            if i + 1 < recoveries.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");

    // The repo root, resolved from this crate's manifest.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_storage.json");
    std::fs::write(path, &out).expect("write BENCH_storage.json");
    eprintln!("wrote {path}");
}
