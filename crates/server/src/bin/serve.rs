//! Standalone datacron-server binary.
//!
//! ```text
//! datacron-serve [--addr HOST:PORT] [--workers N] [--queue N]
//!                [--max-connections N] [--idle-timeout-ms MS (0 = never reap)]
//!                [--query-workers N (0 = one per core)]
//!                [--data-dir DIR] [--fsync always|never|every=N]
//!                [--snapshot-every N] [--segment-bytes N]
//!                [--follow HOST:PORT] [--follower-id ID]
//!                [--max-lag RECORDS] [--max-lag-ms MS] [--repl-poll-ms MS]
//! ```
//!
//! Every flag takes one value; an unknown flag or an unparsable value
//! prints the usage and exits with code 2. Defaults: `--addr
//! 127.0.0.1:7878 --workers 4 --queue 64`.
//!
//! Serves the newline-delimited JSON protocol until killed. The pipeline
//! is configured for the Aegean region used across the experiments, with
//! two zones of interest so `flows` has something to aggregate.
//!
//! With `--data-dir`, every ingest batch is write-ahead logged before it
//! is acknowledged and state is snapshotted on the configured threshold;
//! restarting on the same directory recovers the pre-crash state. SIGINT
//! and SIGTERM trigger a graceful shutdown: the WAL is fsynced and a
//! final clean snapshot installed before the process exits.
//!
//! With `--follow`, the process is a memory-only read replica of the
//! given durable leader: it bootstraps over the wire, tails the
//! leader's WAL, serves every read (stamped with `leader_epoch` /
//! `applied_lsn`), and redirects writes with `not_leader`. `--max-lag`
//! (records) and `--max-lag-ms` (leader silence) bound staleness: once
//! either is exceeded, reads are shed with `stale` until the replica
//! catches back up.

use datacron_core::{PipelineConfig, PolygonSpec};
use datacron_geo::BoundingBox;
use datacron_repl::StalenessPolicy;
use datacron_server::{start, ReplicationConfig, ServerConfig};
use datacron_storage::{FsyncPolicy, StorageConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const USAGE: &str = "usage: datacron-serve [--addr HOST:PORT] [--workers N] [--queue N] \
     [--max-connections N] [--idle-timeout-ms MS (0 = never reap)] \
     [--query-workers N (0 = one per core)] \
     [--data-dir DIR] [--fsync always|never|every=N] \
     [--snapshot-every N] [--segment-bytes N] \
     [--follow HOST:PORT] [--follower-id ID] \
     [--max-lag RECORDS] [--max-lag-ms MS] [--repl-poll-ms MS]";

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

/// Rejects anything that is not a `--flag VALUE` pair of a flag `USAGE`
/// lists (as `[--flag`), so a retired or misspelt flag fails loudly
/// instead of silently doing nothing.
fn check_flags(args: &[String]) {
    for pair in args.chunks(2) {
        let known = USAGE
            .split_whitespace()
            .any(|w| w.strip_prefix('[') == Some(pair[0].as_str()));
        if !known || pair.len() < 2 {
            usage_error(&format!("unknown flag or missing value: {:?}", pair[0]));
        }
    }
}

/// The parsed value of `flag` when given; an unparsable value is an error.
fn opt<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    // `check_flags` ran first: `args` is whole `[flag, value]` pairs.
    let pair = args.chunks(2).find(|pair| pair[0] == flag)?;
    let parsed = pair[1].parse();
    Some(parsed.unwrap_or_else(|_| usage_error(&format!("invalid {flag} {:?}", pair[1]))))
}

fn arg<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    opt(args, flag).unwrap_or(default)
}

fn rect(lon0: f64, lat0: f64, lon1: f64, lat1: f64) -> PolygonSpec {
    PolygonSpec(vec![(lon0, lat0), (lon1, lat0), (lon1, lat1), (lon0, lat1)])
}

/// Set by the signal handler; polled by the main loop.
static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    // Only async-signal-safe work here: flip the flag, nothing else.
    STOP.store(true, Ordering::SeqCst);
}

/// Installs `on_signal` for SIGINT and SIGTERM via the libc `signal`
/// symbol std already links — no signal-handling crate in the tree.
fn install_signal_handlers() {
    // SAFETY: the declaration must match the C symbol. `signal` from the
    // C runtime std already links takes `(int, void (*)(int))` and
    // returns the previous handler as a pointer-sized value; the
    // argument/return types here are ABI-compatible with that signature
    // on every Linux/macOS target the server supports.
    unsafe extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `on_signal` is async-signal-safe — it only stores to an
    // atomic (see its comment); installing it cannot race with anything
    // because it happens once, before the server threads start. The
    // returned previous-handler value is deliberately ignored.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return;
    }
    check_flags(&args);
    let fsync_arg = arg(&args, "--fsync", "always".to_string());
    let Some(fsync) = FsyncPolicy::parse(&fsync_arg) else {
        usage_error(&format!(
            "invalid --fsync {fsync_arg:?}: expected always, never, or every=N"
        ));
    };
    let cfg = ServerConfig {
        addr: arg(&args, "--addr", "127.0.0.1:7878".to_string()),
        workers: arg(&args, "--workers", 4usize),
        queue_capacity: arg(&args, "--queue", 64usize),
        max_connections: arg(&args, "--max-connections", 10_240usize),
        // Slowloris guard: connections stalled mid-line (or mid-write)
        // longer than this are reaped. 0 disables reaping entirely.
        idle_timeout: match arg(&args, "--idle-timeout-ms", 30_000u64) {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        },
        pipeline: PipelineConfig {
            region: BoundingBox::new(19.0, 33.0, 30.0, 41.0),
            zones: vec![
                ("piraeus".to_string(), rect(23.4, 37.8, 23.8, 38.1)),
                ("heraklion".to_string(), rect(24.9, 35.2, 25.4, 35.5)),
            ],
            ..PipelineConfig::default()
        },
        heat_cell_deg: 0.1,
        query_workers: arg(&args, "--query-workers", 0usize),
        data_dir: opt(&args, "--data-dir"),
        storage: StorageConfig {
            segment_bytes: arg(&args, "--segment-bytes", 8 * 1024 * 1024u64),
            fsync,
            snapshot_every_records: arg(&args, "--snapshot-every", 1024u64),
        },
        replication: ReplicationConfig {
            follow: opt(&args, "--follow"),
            follower_id: arg(&args, "--follower-id", "follower-1".to_string()),
            poll_interval: Duration::from_millis(arg(&args, "--repl-poll-ms", 50u64)),
            policy: StalenessPolicy {
                max_lag_records: opt(&args, "--max-lag"),
                max_lag_us: opt::<u64>(&args, "--max-lag-ms").map(|ms| ms.saturating_mul(1000)),
            },
        },
    };
    let workers = cfg.workers;
    let queue = cfg.queue_capacity;
    let durable = cfg.data_dir.clone();
    let following = cfg.replication.follow.clone();
    match start(cfg) {
        Ok(handle) => {
            match (&durable, &following) {
                (Some(dir), _) => println!(
                    "datacron-server listening on {} ({} workers, queue {}, leader, data dir {})",
                    handle.local_addr,
                    workers,
                    queue,
                    dir.display()
                ),
                (None, Some(leader)) => println!(
                    "datacron-server listening on {} ({} workers, queue {}, following {})",
                    handle.local_addr, workers, queue, leader
                ),
                (None, None) => println!(
                    "datacron-server listening on {} ({} workers, queue {}, in-memory)",
                    handle.local_addr, workers, queue
                ),
            }
            install_signal_handlers();
            while !STOP.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(100));
            }
            println!("datacron-server: signal received, shutting down");
            handle.shutdown();
            println!("datacron-server: clean shutdown complete");
        }
        Err(e) => {
            eprintln!("failed to start server: {e}");
            std::process::exit(1);
        }
    }
}
