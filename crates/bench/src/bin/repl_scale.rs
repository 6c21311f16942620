//! E18 — read scale-out across replicas and follower catch-up.
//!
//! ```sh
//! cargo run --release -p datacron-bench --bin repl_scale           # full
//! cargo run --release -p datacron-bench --bin repl_scale -- quick  # CI-sized
//! ```
//!
//! Starts one durable leader and two memory-only followers in-process
//! (real TCP on loopback — the same wire path `scripts/bench_repl.sh`
//! exercises with the standalone binaries), preloads the leader and
//! waits for full convergence, then drives a closed-loop read mix
//! (sparql / heatmap / flows / events) against 1, 2, and 3 endpoints
//! with a fixed client-thread pool. The curve is the read scale-out
//! story: identical offered work, more replicas sharing it. A final
//! write burst at the leader measures follower catch-up time. Results
//! land in `BENCH_repl.json` at the repo root.

use datacron_core::{PipelineConfig, PolygonSpec};
use datacron_geo::BoundingBox;
use datacron_obs::{LatencyHistogram, Stopwatch};
use datacron_server::client::is_ok;
use datacron_server::{start, Client, Json, ReplicationConfig, ServerConfig};
use datacron_storage::{FsyncPolicy, StorageConfig};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const REPORTS_PER_BATCH: usize = 20;

fn rect(lon0: f64, lat0: f64, lon1: f64, lat1: f64) -> PolygonSpec {
    PolygonSpec(vec![(lon0, lat0), (lon1, lat0), (lon1, lat1), (lon0, lat1)])
}

fn base_config() -> ServerConfig {
    ServerConfig {
        pipeline: PipelineConfig {
            region: BoundingBox::new(19.0, 33.0, 30.0, 41.0),
            zones: vec![
                ("west".to_string(), rect(20.0, 34.0, 23.0, 40.0)),
                ("east".to_string(), rect(26.0, 34.0, 29.0, 40.0)),
            ],
            ..PipelineConfig::default()
        },
        heat_cell_deg: 0.25,
        ..ServerConfig::default()
    }
}

/// Deterministic xorshift64* so every run offers the same stream.
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

fn ingest_request(rng: &mut Rng, batch_no: u64) -> Json {
    let reports: Vec<Json> = (0..REPORTS_PER_BATCH as u64)
        .map(|i| {
            Json::obj()
                .field("object", 1 + (batch_no * 7 + i) % 50)
                .field(
                    "t_ms",
                    ((batch_no * REPORTS_PER_BATCH as u64 + i) * 10_000) as i64,
                )
                .field("lon", 20.0 + rng.below(9_000) as f64 / 1000.0)
                .field("lat", 34.0 + rng.below(6_000) as f64 / 1000.0)
                .field("speed_mps", 2.0 + rng.below(100) as f64 / 10.0)
                .field("heading_deg", rng.below(360) as f64)
                .build()
        })
        .collect();
    Json::obj()
        .field("type", "ingest")
        .field("reports", Json::Arr(reports))
        .build()
}

fn read_request(seq: u64, rng: &mut Rng) -> Json {
    match seq % 4 {
        0 => Json::obj()
            .field("type", "sparql")
            .field(
                "query",
                format!(
                    "SELECT ?n WHERE {{ ?n da:ofMovingObject da:obj/{} }}",
                    1 + rng.below(50)
                ),
            )
            .field("limit", 20u64)
            .build(),
        1 => Json::obj()
            .field("type", "heatmap")
            .field("top_k", 10u64)
            .build(),
        2 => Json::obj()
            .field("type", "flows")
            .field("top_k", 10u64)
            .build(),
        _ => Json::obj()
            .field("type", "events")
            .field("limit", 20u64)
            .build(),
    }
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect_timeout(addr, Duration::from_secs(10)).expect("connect")
}

fn applied_lsn(addr: SocketAddr) -> u64 {
    let mut c = connect(addr);
    let resp = c
        .call(&Json::obj().field("type", "repl_status").build())
        .expect("repl_status");
    resp.get("replication")
        .and_then(|r| r.get("applied_lsn"))
        .and_then(Json::as_u64)
        .expect("applied_lsn")
}

/// Blocks until `addr` reports an applied LSN of at least `target`;
/// returns how long it took.
fn await_applied(addr: SocketAddr, target: u64) -> Duration {
    let t = Instant::now();
    loop {
        if applied_lsn(addr) >= target {
            return t.elapsed();
        }
        if t.elapsed() > Duration::from_secs(60) {
            panic!("follower at {addr} never reached lsn {target}");
        }
        thread::sleep(Duration::from_millis(2));
    }
}

struct StepResult {
    replicas: usize,
    ops: u64,
    ops_per_s: u64,
    p50_us: u64,
    p99_us: u64,
}

/// Closed-loop read throughput: `threads` clients split round-robin
/// over `endpoints`, each issuing reads back to back for `dur`.
fn read_step(endpoints: &[SocketAddr], threads: usize, dur: Duration) -> StepResult {
    let latency = Arc::new(LatencyHistogram::new());
    let ops = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|i| {
            let addr = endpoints[i % endpoints.len()];
            let latency = Arc::clone(&latency);
            let ops = Arc::clone(&ops);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut c = connect(addr);
                let mut rng = Rng(0xE18_5EED ^ (i as u64 + 1));
                let mut seq = i as u64;
                while !stop.load(Ordering::Relaxed) {
                    let req = read_request(seq, &mut rng);
                    let t = Stopwatch::start();
                    let resp = c.call(&req).expect("read");
                    assert!(is_ok(&resp), "read failed: {resp}");
                    latency.observe(&t);
                    ops.fetch_add(1, Ordering::Relaxed);
                    seq += 1;
                }
            })
        })
        .collect();
    thread::sleep(dur);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("client thread");
    }
    let elapsed = started.elapsed().as_secs_f64();
    let total = ops.load(Ordering::Relaxed);
    StepResult {
        replicas: endpoints.len(),
        ops: total,
        ops_per_s: (total as f64 / elapsed) as u64,
        p50_us: latency.quantile_us(0.5),
        p99_us: latency.quantile_us(0.99),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "quick" || a == "--quick");
    let preload_batches: u64 = if quick { 50 } else { 300 };
    let burst_batches: u64 = if quick { 25 } else { 150 };
    let step_dur = Duration::from_secs_f64(if quick { 1.0 } else { 4.0 });
    let threads = 6;

    let dir = datacron_storage::test_util::TempDir::new("bench-repl");
    let leader = start(ServerConfig {
        data_dir: Some(dir.path().to_path_buf()),
        storage: StorageConfig {
            segment_bytes: 8 * 1024 * 1024,
            fsync: FsyncPolicy::EveryN(8),
            snapshot_every_records: 0,
        },
        ..base_config()
    })
    .expect("leader start");
    let followers: Vec<_> = (1..=2)
        .map(|i| {
            start(ServerConfig {
                replication: ReplicationConfig {
                    follow: Some(leader.local_addr.to_string()),
                    follower_id: format!("bench-follower-{i}"),
                    poll_interval: Duration::from_millis(2),
                    ..ReplicationConfig::default()
                },
                ..base_config()
            })
            .expect("follower start")
        })
        .collect();

    eprintln!("preloading {preload_batches} batches of {REPORTS_PER_BATCH} reports");
    let mut rng = Rng(0xE18_5EED);
    let mut c = connect(leader.local_addr);
    for b in 0..preload_batches {
        let resp = c.call(&ingest_request(&mut rng, b)).expect("ingest");
        assert!(is_ok(&resp), "ingest failed: {resp}");
    }
    drop(c);
    for f in &followers {
        await_applied(f.local_addr, preload_batches);
    }

    let endpoints: Vec<SocketAddr> = std::iter::once(leader.local_addr)
        .chain(followers.iter().map(|f| f.local_addr))
        .collect();
    let mut steps = Vec::new();
    for n in 1..=endpoints.len() {
        let r = read_step(&endpoints[..n], threads, step_dur);
        eprintln!(
            "replicas {}: {:>7} ops/s  p50 {:>5}us  p99 {:>6}us ({} ops)",
            r.replicas, r.ops_per_s, r.p50_us, r.p99_us, r.ops
        );
        steps.push(r);
    }

    // Catch-up: a write burst at the leader while followers tail it.
    eprintln!("write burst of {burst_batches} batches");
    let mut c = connect(leader.local_addr);
    for b in 0..burst_batches {
        let resp = c
            .call(&ingest_request(&mut rng, preload_batches + b))
            .expect("ingest");
        assert!(is_ok(&resp), "ingest failed: {resp}");
    }
    drop(c);
    let target = preload_batches + burst_batches;
    let catch_up: Vec<Duration> = followers
        .iter()
        .map(|f| await_applied(f.local_addr, target))
        .collect();
    for (i, d) in catch_up.iter().enumerate() {
        eprintln!(
            "follower {} caught up {} records in {:.1}ms",
            i + 1,
            burst_batches,
            d.as_secs_f64() * 1000.0
        );
    }

    let mut out = String::from("{\n  \"experiment\": \"E18\",\n");
    let _ = writeln!(
        out,
        "  \"reports_per_batch\": {REPORTS_PER_BATCH},\n  \"preload_batches\": {preload_batches},\n  \"client_threads\": {threads},"
    );
    out.push_str("  \"read_scaling\": [\n");
    for (i, r) in steps.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"replicas\": {}, \"ops\": {}, \"ops_per_s\": {}, \"p50_us\": {}, \"p99_us\": {}}}{}",
            r.replicas,
            r.ops,
            r.ops_per_s,
            r.p50_us,
            r.p99_us,
            if i + 1 < steps.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"catch_up\": [\n");
    for (i, d) in catch_up.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"follower\": {}, \"burst_batches\": {}, \"catch_up_ms\": {:.2}}}{}",
            i + 1,
            burst_batches,
            d.as_secs_f64() * 1000.0,
            if i + 1 < catch_up.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");

    for f in followers {
        f.shutdown();
    }
    leader.shutdown();

    // The repo root, resolved from this crate's manifest.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_repl.json");
    std::fs::write(path, &out).expect("write BENCH_repl.json");
    eprintln!("wrote {path}");
}
