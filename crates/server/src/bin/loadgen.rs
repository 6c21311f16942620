//! Open-loop load generator for datacron-server (experiment E13).
//!
//! ```text
//! loadgen [--addr 127.0.0.1:7878] [--rps 200] [--duration-s 10] [--conns 4]
//!         [--batch 32] [--sweep 50,100,200,400,800] [--connections N]
//!         [--targets HOST:PORT,HOST:PORT,...] [--read-only]
//! ```
//!
//! Open-loop means send times follow the target schedule regardless of
//! response times, so queueing delay shows up as latency instead of being
//! hidden by coordinated omission. Each connection runs a writer thread
//! (paced sends, id-stamped) and a reader thread (matches ids back to
//! send timestamps); per-request latency lands in a shared histogram.
//! With `--sweep`, one line per target rate prints the requests/s vs
//! p50/p99 curve.
//!
//! `--connections N` (experiment E13) additionally opens N *idle*
//! connections before the paced load starts and holds them for the whole
//! run — the event-loop server should carry them at a few kilobytes each
//! with no latency impact on the active minority. After each step a
//! sample of the idle pool is probed with a request to prove the server
//! still serves them; the tallies print as `idle_opened=..` /
//! `idle_alive=..` for `scripts/bench_server.sh` to scrape.
//!
//! `--targets` spreads connections round-robin over several endpoints —
//! the read scale-out experiment (E18) points it at one leader plus its
//! replicas. Combine with `--read-only` so the mix stays servable by
//! followers (a replica answers ingest with `not_leader`).

use datacron_core::sync::TrackedMutex;
use datacron_obs::{LatencyHistogram, Stopwatch};
use datacron_server::json::Json;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn arg<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Tiny deterministic generator (xorshift64*), so loadgen needs no RNG dep.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The per-run accumulators shared by all connections.
struct RunStats {
    latency: LatencyHistogram,
    sent: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    busy: AtomicU64,
    /// Requests still unanswered when the drain deadline passed. These
    /// are slow, not failed — at saturation lumping them into `errors`
    /// made the server look broken when it was merely queueing.
    timeouts: AtomicU64,
}

fn build_request(seq: u64, id: u64, batch: usize, read_only: bool, rng: &mut XorShift) -> Json {
    // 2 ingests : 3 sparql : 1 heatmap : 1 flows : 1 events per 8 requests.
    // Read-only swaps the ingest slots for hotspots, keeping the request
    // cadence identical so sweeps with and without writes compare.
    match seq % 8 {
        0 | 4 if read_only => Json::obj()
            .field("id", id)
            .field("type", "hotspots")
            .field("top_k", 10u64)
            .build(),
        0 | 4 => {
            let object = 1 + rng.next() % 50;
            let reports: Vec<Json> = (0..batch)
                .map(|i| {
                    Json::obj()
                        .field("object", object)
                        .field("t_ms", (seq as i64) * 10_000 + (i as i64) * 100)
                        .field("lon", 20.0 + rng.unit() * 8.0)
                        .field("lat", 34.0 + rng.unit() * 6.0)
                        .field("speed_mps", 2.0 + rng.unit() * 10.0)
                        .field("heading_deg", rng.unit() * 360.0)
                        .build()
                })
                .collect();
            Json::obj()
                .field("id", id)
                .field("type", "ingest")
                .field("reports", Json::Arr(reports))
                .build()
        }
        1 | 3 | 5 => {
            let object = 1 + rng.next() % 50;
            Json::obj()
                .field("id", id)
                .field("type", "sparql")
                .field(
                    "query",
                    format!("SELECT ?n WHERE {{ ?n da:ofMovingObject da:obj/{object} }}"),
                )
                .field("limit", 20u64)
                .build()
        }
        2 => Json::obj()
            .field("id", id)
            .field("type", "heatmap")
            .field("top_k", 10u64)
            .build(),
        6 => Json::obj()
            .field("id", id)
            .field("type", "flows")
            .field("top_k", 10u64)
            .build(),
        _ => Json::obj()
            .field("id", id)
            .field("type", "events")
            .field("limit", 20u64)
            .build(),
    }
}

/// One connection's open-loop writer (this thread) + reader (spawned).
fn run_connection(
    addr: SocketAddr,
    conn_idx: usize,
    rps: f64,
    duration: Duration,
    batch: usize,
    read_only: bool,
    stats: Arc<RunStats>,
) -> std::io::Result<()> {
    let stream = std::net::TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut writer = stream.try_clone()?;
    let inflight: Arc<TrackedMutex<HashMap<u64, Stopwatch>>> =
        Arc::new(TrackedMutex::new("inflight", HashMap::new()));
    let stop = Arc::new(AtomicBool::new(false));

    // Reader: match response ids back to send timestamps until the writer
    // is done AND every in-flight request is answered (or the drain
    // deadline inside the loop passes).
    let reader_inflight = Arc::clone(&inflight);
    let reader_stats = Arc::clone(&stats);
    let reader_stop = Arc::clone(&stop);
    let reader = thread::spawn(move || {
        use std::io::BufRead;
        let mut lines = std::io::BufReader::new(stream);
        let mut line = String::new();
        loop {
            // NB: `line` is NOT cleared here. A read timeout can fire
            // mid-response with a partial line already appended; clearing
            // at the loop top discarded that prefix, so the next read
            // picked up the rest of a torn line and counted a perfectly
            // good (just slow) response as a parse error.
            match lines.read_line(&mut line) {
                Ok(0) => break, // server closed
                Ok(_) => {
                    let parsed = Json::parse(line.trim_end());
                    line.clear();
                    let Ok(resp) = parsed else {
                        reader_stats.errors.fetch_add(1, Ordering::Relaxed);
                        continue;
                    };
                    let id = resp.get("id").and_then(Json::as_u64);
                    if let Some(start) = id.and_then(|id| reader_inflight.lock().remove(&id)) {
                        reader_stats.latency.observe(&start);
                    }
                    if resp.get("ok").and_then(Json::as_bool) == Some(true) {
                        reader_stats.ok.fetch_add(1, Ordering::Relaxed);
                    } else {
                        reader_stats.errors.fetch_add(1, Ordering::Relaxed);
                        if resp.get("code").and_then(Json::as_str) == Some("busy") {
                            reader_stats.busy.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                // Read timeout: check whether we are finished.
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if reader_stop.load(Ordering::SeqCst) && reader_inflight.lock().is_empty() {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
    });

    // Writer: paced open-loop sends. Falling behind schedule bursts to
    // catch up instead of silently lowering the offered rate.
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15 ^ (conn_idx as u64 + 1));
    let interval = Duration::from_secs_f64(1.0 / rps.max(0.001));
    let started = Instant::now();
    let mut next_send = started;
    let mut seq: u64 = 0;
    while started.elapsed() < duration {
        let now = Instant::now();
        if now < next_send {
            thread::sleep(next_send - now);
        }
        next_send += interval;
        let id = seq;
        let req = build_request(seq, id, batch, read_only, &mut rng);
        let mut line = String::new();
        req.write(&mut line);
        line.push('\n');
        let sent_at = Stopwatch::start();
        inflight.lock().insert(id, sent_at);
        if std::io::Write::write_all(&mut writer, line.as_bytes()).is_err() {
            inflight.lock().remove(&id);
            stats.errors.fetch_add(1, Ordering::Relaxed);
            break;
        }
        stats.sent.fetch_add(1, Ordering::Relaxed);
        seq += 1;
    }
    // Give stragglers up to 2 s, then let the reader exit on its timeout.
    let drain_deadline = Instant::now() + Duration::from_secs(2);
    while Instant::now() < drain_deadline && !inflight.lock().is_empty() {
        thread::sleep(Duration::from_millis(5));
    }
    {
        // Whatever is still unanswered is a client-side timeout, counted
        // separately from errors (len + clear under one lock, so a late
        // response can't be double-counted).
        let mut inflight = inflight.lock();
        stats
            .timeouts
            .fetch_add(inflight.len() as u64, Ordering::Relaxed);
        inflight.clear();
    }
    stop.store(true, Ordering::SeqCst);
    let _ = reader.join();
    Ok(())
}

/// Opens `n` idle connections round-robin over `targets`. They send
/// nothing — the point is to occupy the server's connection table, not
/// its workers. Sockets that fail to connect are simply not held.
fn open_idle_pool(targets: &[SocketAddr], n: usize) -> Vec<std::net::TcpStream> {
    let mut pool = Vec::with_capacity(n);
    for i in 0..n {
        match std::net::TcpStream::connect(targets[i % targets.len()]) {
            Ok(s) => {
                s.set_nodelay(true).ok();
                pool.push(s);
            }
            Err(_) => break,
        }
    }
    pool
}

/// Probes up to `sample` connections from the idle pool with a cheap
/// request and counts how many answer — proof the server still serves
/// the idle majority after a loaded run (and that none were reaped:
/// fully idle connections are not slowloris suspects).
fn probe_idle_pool(pool: &mut [std::net::TcpStream], sample: usize) -> usize {
    use std::io::{BufRead, BufReader, Write};
    let step = (pool.len() / sample.max(1)).max(1);
    let mut alive = 0;
    for conn in pool.iter_mut().step_by(step).take(sample) {
        conn.set_read_timeout(Some(Duration::from_secs(5))).ok();
        if conn
            .write_all(b"{\"id\":0,\"type\":\"hotspots\",\"top_k\":1}\n")
            .is_err()
        {
            continue;
        }
        let mut line = String::new();
        let mut reader = BufReader::new(&mut *conn);
        if reader.read_line(&mut line).unwrap_or(0) > 0 && Json::parse(line.trim_end()).is_ok() {
            alive += 1;
        }
    }
    alive
}

fn run_step(
    targets: &[SocketAddr],
    rps: f64,
    duration: Duration,
    conns: usize,
    batch: usize,
    read_only: bool,
) {
    let stats = Arc::new(RunStats {
        latency: LatencyHistogram::new(),
        sent: AtomicU64::new(0),
        ok: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        busy: AtomicU64::new(0),
        timeouts: AtomicU64::new(0),
    });
    let per_conn_rps = rps / conns as f64;
    let started = Instant::now();
    let handles: Vec<_> = (0..conns)
        .map(|i| {
            let stats = Arc::clone(&stats);
            // Round-robin endpoints: with 3 targets and 6 connections,
            // each endpoint carries exactly a third of the offered load.
            let addr = targets[i % targets.len()];
            thread::spawn(move || {
                run_connection(addr, i, per_conn_rps, duration, batch, read_only, stats)
            })
        })
        .collect();
    let mut conn_errors = 0;
    for h in handles {
        if !matches!(h.join(), Ok(Ok(()))) {
            conn_errors += 1;
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let sent = stats.sent.load(Ordering::Relaxed);
    let ok = stats.ok.load(Ordering::Relaxed);
    let errors = stats.errors.load(Ordering::Relaxed);
    let busy = stats.busy.load(Ordering::Relaxed);
    let timeouts = stats.timeouts.load(Ordering::Relaxed);
    println!(
        "{:>8.0} {:>9.1} {:>8} {:>8} {:>6} {:>6} {:>9} {:>9} {:>9} {:>5}",
        rps,
        ok as f64 / elapsed,
        ok,
        errors,
        busy,
        timeouts,
        stats.latency.quantile_us(0.5),
        stats.latency.quantile_us(0.99),
        stats.latency.max_us(),
        conn_errors,
    );
    if sent == 0 {
        eprintln!(
            "warning: no requests sent — is the server reachable at {}?",
            targets[0]
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: loadgen [--addr HOST:PORT] [--rps N] [--duration-s N] \
             [--conns N] [--batch N] [--sweep R1,R2,...] \
             [--connections N (idle pool held for the whole run)] \
             [--targets HOST:PORT,HOST:PORT,...] [--read-only]"
        );
        return;
    }
    let target_list = args
        .iter()
        .position(|a| a == "--targets")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| arg(&args, "--addr", "127.0.0.1:7878".to_string()));
    let targets: Vec<SocketAddr> = match target_list
        .split(',')
        .map(|s| s.trim().parse())
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(t) if !t.is_empty() => t,
        Ok(_) => {
            eprintln!("--targets needs at least one HOST:PORT");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("bad endpoint in {target_list:?}: {e}");
            std::process::exit(1);
        }
    };
    let read_only = args.iter().any(|a| a == "--read-only");
    let duration = Duration::from_secs_f64(arg(&args, "--duration-s", 10.0_f64).max(0.1));
    let conns = arg(&args, "--conns", 4usize).max(1);
    let batch = arg(&args, "--batch", 32usize).max(1);
    let sweep = args
        .iter()
        .position(|a| a == "--sweep")
        .and_then(|i| args.get(i + 1))
        .map(|list| {
            list.split(',')
                .filter_map(|s| s.trim().parse::<f64>().ok())
                .collect::<Vec<_>>()
        })
        .unwrap_or_default();
    let rates = if sweep.is_empty() {
        vec![arg(&args, "--rps", 200.0_f64)]
    } else {
        sweep
    };
    let idle_connections = arg(&args, "--connections", 0usize);
    let mut idle_pool = if idle_connections > 0 {
        let pool = open_idle_pool(&targets, idle_connections);
        eprintln!(
            "idle pool: opened {}/{} connections",
            pool.len(),
            idle_connections
        );
        pool
    } else {
        Vec::new()
    };
    println!(
        "{:>8} {:>9} {:>8} {:>8} {:>6} {:>6} {:>9} {:>9} {:>9} {:>5}",
        "target", "ach_rps", "ok", "err", "busy", "tmo", "p50_us", "p99_us", "max_us", "cerr"
    );
    for rps in rates {
        run_step(&targets, rps, duration, conns, batch, read_only);
    }
    if idle_connections > 0 {
        let sample = idle_pool.len().min(64);
        let alive = probe_idle_pool(&mut idle_pool, sample);
        println!(
            "idle_opened={} idle_alive={}/{}",
            idle_pool.len(),
            alive,
            sample
        );
    }
}
