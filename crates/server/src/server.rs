//! The TCP server: one epoll reactor thread (datacron-net) owning every
//! connection, feeding a bounded work queue of *requests* drained by a
//! fixed worker pool.
//!
//! A connection costs one fd plus buffer state in the event loop — it
//! never pins a worker, which is what lets one box hold 10k+ mostly-idle
//! consumers. Admission control is two-level: a new connection is turned
//! away with `busy` while the request queue is saturated (cheap, at
//! accept), and an individual request gets a `busy` line when the queue
//! is full at dispatch — the connection itself survives. Workers execute
//! requests only; finished responses travel back to the reactor through
//! its wakeup pipe. A request ends in one place, `Completion::finish`:
//! on the worker for reads and in-memory ingest, off the WAL's commit
//! watermark for a durable ingest under every fsync policy (see
//! `handle_line`), so no worker and no lock waits on a flush. Per
//! connection, requests run one at a time in
//! arrival order (pipelined lines queue in the loop), so responses are
//! always ordered. Ingest takes the state write lock, every query takes
//! a read lock, so queries proceed concurrently with each other and only
//! serialise behind ingest.

use crate::codec;
use crate::json::Json;
use crate::protocol::{
    error_response, error_response_with, ok_response, parse_request, Envelope, ErrorCode,
    ProtocolError, Request, MAX_REPL_BYTES,
};
use crate::repl::{self, ReplRuntime, ReplicationConfig};
use crate::state::AnalyticsState;
use datacron_core::sync::{TrackedMutex, TrackedRwLock};
use datacron_core::PipelineConfig;
use datacron_geo::BoundingBox;
use datacron_net::{ConnId, LineAction, Open, Reactor, ReactorConfig, ReactorHandle};
use datacron_obs::{
    ClockSource, LatencyHistogram, MonotonicClock, Registry, Sample, SlowLog, Stopwatch, Trace,
    Value,
};
use datacron_repl::{
    b64, epoch, max_lag_records, FollowerProgress, FollowerRegistry, StalenessVerdict,
};
use datacron_storage::{Disk, GroupCommit, StdDisk, Storage, StorageConfig};
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Largest accepted request line, bytes.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Upper bound on one reactor `epoll_wait` sleep (bounds shutdown
/// latency and reaper staleness).
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Write-stall deadline: a connection whose pending response bytes make
/// no progress for this long is reaped by the reactor, so a stalled
/// reader cannot hold buffer memory indefinitely. (Workers never touch
/// sockets, so no thread is ever pinned either way.)
const WRITE_TIMEOUT: Duration = Duration::from_millis(500);

/// Slow-query log capacity: the N slowest requests kept with their span
/// breakdowns (served by the `slowlog` request).
const SLOWLOG_CAPACITY: usize = 32;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick one.
    pub addr: String,
    /// Worker threads draining the request queue.
    pub workers: usize,
    /// Bounded request-queue capacity. While `queued + executing`
    /// requests are at this bound, new connections get `busy` at accept
    /// and a request that finds the queue full gets a `busy` line (its
    /// connection survives).
    pub queue_capacity: usize,
    /// Hard cap on concurrently open connections; beyond it, `busy`.
    pub max_connections: usize,
    /// Slowloris guard: a connection holding a *partial* request line
    /// (or a stalled unflushed response) past this deadline is reaped by
    /// the reactor. Fully idle connections are free and never reaped.
    /// `None` disables reaping.
    pub idle_timeout: Option<Duration>,
    /// Pipeline configuration for the owned analytics state.
    pub pipeline: PipelineConfig,
    /// Density-grid cell size for the heatmap aggregate, degrees.
    pub heat_cell_deg: f64,
    /// Morsel-executor worker pool size for SPARQL queries; `0` = one
    /// worker per available core.
    pub query_workers: usize,
    /// Durable-storage directory. `Some(dir)` makes ingest write-ahead
    /// log every batch before acknowledging it, snapshots state on the
    /// configured threshold, and recovers the pre-crash state on start.
    /// `None` keeps the server purely in-memory.
    pub data_dir: Option<PathBuf>,
    /// Storage tuning (segment size, fsync policy, snapshot threshold);
    /// ignored unless `data_dir` is set.
    pub storage: StorageConfig,
    /// Replication role and knobs; default is a standalone leader.
    pub replication: ReplicationConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            max_connections: 10_240,
            idle_timeout: Some(Duration::from_secs(30)),
            pipeline: PipelineConfig {
                region: BoundingBox::new(-180.0, -90.0, 180.0, 90.0),
                ..PipelineConfig::default()
            },
            heat_cell_deg: 0.25,
            query_workers: 0,
            data_dir: None,
            storage: StorageConfig::default(),
            replication: ReplicationConfig::default(),
        }
    }
}

/// Atomic counters plus per-request-type latency histograms; the
/// registry reads them (a collector for the counters, shared handles for
/// the histograms), nothing else does.
#[derive(Debug)]
struct ServerMetrics {
    /// Connections handed to the worker pool.
    connections_accepted: AtomicU64,
    /// Connections rejected with `busy` (queue full).
    connections_rejected: AtomicU64,
    /// Requests answered with `"ok": true`.
    requests_ok: AtomicU64,
    /// Requests answered with an error response.
    requests_err: AtomicU64,
    /// Requests in the queue that no worker has taken yet: the queue's
    /// depth, which the channel itself does not report.
    queued: AtomicU64,
    /// Per-type request latency, indexed like [`Request::TAGS`].
    latency: Vec<Arc<LatencyHistogram>>,
    /// Durable ingest: batch applied → ack fired (the `durable_wait`
    /// span; near zero when the watermark already covered the ack).
    durable_wait: Arc<LatencyHistogram>,
    /// `to_snapshot_bytes` for a threshold snapshot, under the state
    /// read lock.
    snapshot_serialize: Arc<LatencyHistogram>,
}

impl ServerMetrics {
    fn new() -> Self {
        Self {
            connections_accepted: AtomicU64::new(0),
            connections_rejected: AtomicU64::new(0),
            requests_ok: AtomicU64::new(0),
            requests_err: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            latency: Request::TAGS
                .iter()
                .map(|_| Arc::new(LatencyHistogram::new()))
                .collect(),
            durable_wait: Arc::new(LatencyHistogram::new()),
            snapshot_serialize: Arc::new(LatencyHistogram::new()),
        }
    }

    /// Shares every per-type latency histogram with `registry` as
    /// `datacron_request_latency_us{type=…}`, and on a durable server
    /// the two write-path stages the server itself times.
    fn register_into(&self, registry: &Registry, durable: bool) {
        for (tag, h) in Request::TAGS.iter().zip(self.latency.iter()) {
            registry.register_histogram(
                "datacron_request_latency_us",
                &[("type", tag)],
                Arc::clone(h),
            );
        }
        if durable {
            registry.register_histogram(
                "datacron_ingest_durable_wait_latency_us",
                &[],
                Arc::clone(&self.durable_wait),
            );
            registry.register_histogram(
                "datacron_storage_snapshot_serialize_latency_us",
                &[],
                Arc::clone(&self.snapshot_serialize),
            );
        }
    }
}

/// A running server; dropping the handle does NOT stop it — call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    /// The bound address (resolves port 0).
    pub local_addr: SocketAddr,
    /// The shared analytics state (exposed for in-process embedding).
    pub state: Arc<TrackedRwLock<AnalyticsState>>,
    shutdown: Arc<AtomicBool>,
    net: ReactorHandle,
    threads: Vec<JoinHandle<()>>,
    storage: Option<DurableStore>,
}

/// The durable store as the server holds it.
#[derive(Clone)]
struct DurableStore {
    /// Lock order: state lock first, then storage — ingest, snapshots
    /// and shutdown all follow it, so they can never deadlock.
    storage: Arc<TrackedMutex<Storage>>,
    /// The store's commit core, captured once at startup so an ack is
    /// registered and fired without the storage lock.
    commit: Arc<GroupCommit>,
}

impl ServerHandle {
    /// Graceful stop: signals every thread, joins them, then — when the
    /// server is durable — flushes and fsyncs the WAL and installs a
    /// final clean snapshot, so the next start recovers instantly with no
    /// tail to replay.
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // The reactor wakes from epoll_wait, closes every connection and
        // exits, dropping the handler and with it the queue sender —
        // workers drain whatever was queued, then see the disconnect.
        self.net.shutdown();
        for t in self.threads {
            let _ = t.join();
        }
        if let Some(store) = &self.storage {
            // A threshold snapshot may still be on the snapshot thread; it
            // publishes under the storage lock, so wait without it.
            let snapshots = { store.storage.lock().snapshots() };
            snapshots.wait_idle();
            let state = self.state.read();
            let mut storage = store.storage.lock();
            if let Err(e) = storage.sync() {
                eprintln!("datacron-server: shutdown WAL sync failed: {e}");
            }
            if let Err(e) = storage.install_snapshot(&state.to_snapshot_bytes()) {
                eprintln!("datacron-server: shutdown snapshot failed: {e}");
            }
        }
    }
}

struct Shared {
    state: Arc<TrackedRwLock<AnalyticsState>>,
    metrics: Arc<ServerMetrics>,
    registry: Arc<Registry>,
    slowlog: Arc<SlowLog>,
    /// The clock every trace and queue-wait measurement runs against.
    clock: Arc<dyn ClockSource>,
    shutdown: Arc<AtomicBool>,
    /// Parsed request lines awaiting a worker; each carries the clock
    /// reading at reactor enqueue time so the dequeuing worker can
    /// attribute queue wait truthfully. The workers share the one
    /// receiver: whichever holds the mutex waits in `recv`, the others
    /// wait for the mutex. A `recv` leaves nothing half-done, so
    /// poisoning is absorbed.
    queue: Mutex<Receiver<Job>>,
    /// Requests admitted but not yet answered (queued + executing);
    /// accept-time admission control reads it.
    jobs_in_flight: Arc<AtomicU64>,
    cfg: ServerConfig,
    storage: Option<DurableStore>,
    /// Replication role plus its shared trackers.
    repl: ReplRuntime,
    started: Stopwatch,
}

/// Start-up recovery time by phase, µs, measured once by [`recover`]:
/// `(phase, µs)` for the log open (the newest segment scanned for a torn
/// tail); the snapshot file read and verify; the WAL tail read and
/// verify; the state restored from the snapshot payload; and the tail
/// replayed through the pipeline. Together they cover the restart apart
/// from the data directory's syncs and the snapshot thread's start.
type RecoveryTimes = [(&'static str, u64); 5];

/// Binds, spawns the acceptor and worker pool, and returns immediately.
pub fn start(cfg: ServerConfig) -> io::Result<ServerHandle> {
    start_with_clock(cfg, Arc::new(MonotonicClock::new()), Arc::new(StdDisk))
}

/// [`start`] with an injected clock, so tests can drive staleness and
/// lag accounting deterministically, and an injected [`Disk`] that every
/// file the durable store and the leader epoch write goes through, so
/// crash tests can crash it (a crashed disk then a
/// [`ServerHandle::shutdown`] leaves what a `kill -9` would). When
/// following a leader, the initial bootstrap (subscribe + snapshot
/// fetch) happens synchronously here: a follower that cannot reach its
/// leader has nothing correct to serve, so startup fails instead.
pub fn start_with_clock(
    cfg: ServerConfig,
    clock: Arc<dyn ClockSource>,
    disk: Arc<dyn Disk>,
) -> io::Result<ServerHandle> {
    if cfg.replication.follow.is_some() && cfg.data_dir.is_some() {
        return Err(io::Error::new(
            ErrorKind::InvalidInput,
            "a follower is a memory-only replica: --follow and --data-dir are mutually exclusive",
        ));
    }
    let listener = TcpListener::bind(&cfg.addr)?;
    let local_addr = listener.local_addr()?;
    let registry = Arc::new(Registry::new());
    let (storage, mut recovered, repl) = match (&cfg.replication.follow, &cfg.data_dir) {
        (Some(leader), _) => {
            let (state, leader_next_seq) = repl::bootstrap(&cfg, leader)?;
            let progress = Arc::new(FollowerProgress::new());
            progress.observe_leader(leader_next_seq, clock.now_us());
            let repl = ReplRuntime::Follower {
                leader: leader.clone(),
                progress,
                policy: cfg.replication.policy,
            };
            (None, state, repl)
        }
        (None, Some(dir)) => {
            let (storage, state, times) = recover(dir, &cfg, &clock, Arc::clone(&disk))?;
            storage.register_metrics(&registry);
            registry.collector(move |sink| {
                for (phase, us) in times {
                    sink.gauge("datacron_storage_recovery_us", &[("phase", phase)], us);
                }
            });
            let repl = ReplRuntime::Leader {
                // A durable epoch: every leader start gets a larger one,
                // so followers can tell restarts from silence.
                epoch: epoch::next_epoch(&*disk, dir)?,
                registry: Arc::new(FollowerRegistry::new()),
            };
            let store = DurableStore {
                commit: storage.commit(),
                storage: Arc::new(TrackedMutex::new("storage", storage)),
            };
            (Some(store), state, repl)
        }
        (None, None) => (
            None,
            AnalyticsState::new(cfg.pipeline.clone(), cfg.heat_cell_deg),
            ReplRuntime::Leader {
                epoch: epoch::MEMORY_EPOCH,
                registry: Arc::new(FollowerRegistry::new()),
            },
        ),
    };
    // Register the stage histograms on the plain state before it goes
    // behind the lock: registration never orders against the state lock.
    recovered.set_query_workers(cfg.query_workers);
    recovered.register_metrics(&registry);
    let state = Arc::new(TrackedRwLock::new("state", recovered));
    let metrics = Arc::new(ServerMetrics::new());
    metrics.register_into(&registry, storage.is_some());
    let slowlog = Arc::new(SlowLog::new(SLOWLOG_CAPACITY));
    let shutdown = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::sync_channel::<Job>(cfg.queue_capacity.max(1));
    let jobs_in_flight = Arc::new(AtomicU64::new(0));
    install_collectors(
        &registry,
        &state,
        storage.as_ref().map(|s| &s.storage),
        &metrics,
        &slowlog,
        &cfg,
        &repl,
        &clock,
    );

    // Holding many sockets needs headroom over the usual 1024-fd soft
    // limit; failure is advisory (the kernel grants what it grants).
    let want_fds = u64::try_from(cfg.max_connections)
        .unwrap_or(u64::MAX)
        .saturating_add(64);
    let _ = datacron_net::sys::raise_nofile_limit(want_fds);

    let shared = Arc::new(Shared {
        state: Arc::clone(&state),
        metrics: Arc::clone(&metrics),
        registry: Arc::clone(&registry),
        slowlog: Arc::clone(&slowlog),
        clock,
        shutdown: Arc::clone(&shutdown),
        queue: Mutex::new(rx),
        jobs_in_flight: Arc::clone(&jobs_in_flight),
        cfg,
        storage: storage.clone(),
        repl,
        started: Stopwatch::start(),
    });

    let reactor_cfg = ReactorConfig {
        max_line_bytes: MAX_LINE_BYTES,
        idle_timeout: shared.cfg.idle_timeout,
        write_stall_timeout: Some(WRITE_TIMEOUT),
        poll_interval: POLL_INTERVAL,
        ..ReactorConfig::default()
    };
    let handler = ServerHandler {
        shared: Arc::clone(&shared),
        jobs: tx,
    };
    let mut reactor = Reactor::new(listener, reactor_cfg, handler)?;
    let net = reactor.handle();
    install_net_collectors(&registry, &net);

    let mut threads = Vec::with_capacity(shared.cfg.workers + 2);
    if let ReplRuntime::Follower {
        leader, progress, ..
    } = &shared.repl
    {
        let sync = repl::FollowerSync {
            cfg: shared.cfg.clone(),
            leader: leader.clone(),
            progress: Arc::clone(progress),
            state: Arc::clone(&state),
            registry: Arc::clone(&shared.registry),
            clock: Arc::clone(&shared.clock),
            slowlog: Arc::clone(&shared.slowlog),
            shutdown: Arc::clone(&shutdown),
        };
        threads.push(
            thread::Builder::new()
                .name("datacron-repl-sync".to_string())
                .spawn(move || repl::sync_loop(&sync))?,
        );
    }
    for i in 0..shared.cfg.workers.max(1) {
        let shared = Arc::clone(&shared);
        let net = net.clone();
        threads.push(
            thread::Builder::new()
                .name(format!("datacron-worker-{i}"))
                .spawn(move || worker_loop(&shared, &net))?,
        );
    }
    threads.push(
        thread::Builder::new()
            .name("datacron-reactor".to_string())
            .spawn(move || {
                if let Err(e) = reactor.run() {
                    eprintln!("datacron-server: reactor exited with error: {e}");
                }
            })?,
    );

    Ok(ServerHandle {
        local_addr,
        state,
        shutdown,
        net,
        threads,
        storage,
    })
}

/// Installs the scrape-time collectors: everything that lives behind a
/// lock or an atomic and must be read fresh per scrape (`metrics` or
/// `stats`); a string fact is a label on a gauge of value 1. The
/// closures capture individual `Arc`s (never `Shared`) so the registry
/// does not cycle back to itself, and they run with no registry lock
/// held, so taking the state or storage lock here is unordered.
#[allow(clippy::too_many_arguments)]
fn install_collectors(
    registry: &Registry,
    state: &Arc<TrackedRwLock<AnalyticsState>>,
    storage: Option<&Arc<TrackedMutex<Storage>>>,
    metrics: &Arc<ServerMetrics>,
    slowlog: &Arc<SlowLog>,
    cfg: &ServerConfig,
    repl: &ReplRuntime,
    clock: &Arc<dyn ClockSource>,
) {
    let state = Arc::clone(state);
    let storage = storage.map(Arc::clone);
    let metrics = Arc::clone(metrics);
    let slowlog = Arc::clone(slowlog);
    let queue_capacity = cfg.queue_capacity as u64;
    let workers = cfg.workers as u64;
    let repl = repl.clone();
    let clock = Arc::clone(clock);
    registry.collector(move |sink| {
        sink.gauge("datacron_repl_role", &[("role", repl.role().name())], 1);
        // The state's log position; on a durable leader the WAL head,
        // since appends happen only under the state write lock.
        let (applied_lsn, state_epoch) = {
            let state = state.read();
            (state.applied_lsn(), state.epoch())
        };
        match &repl {
            ReplRuntime::Leader { epoch, registry } => {
                sink.gauge("datacron_repl_epoch", &[], *epoch);
                let followers = registry.snapshot(applied_lsn, clock.now_us());
                sink.gauge("datacron_repl_followers", &[], followers.len() as u64);
                let max_lag = max_lag_records(&followers);
                sink.gauge("datacron_repl_max_follower_lag_records", &[], max_lag);
                for f in &followers {
                    let labels = [("follower", f.id.as_str())];
                    sink.gauge("datacron_repl_follower_lag_records", &labels, f.lag_records);
                    sink.gauge("datacron_repl_follower_lag_us", &labels, f.lag_us);
                }
            }
            ReplRuntime::Follower {
                leader, progress, ..
            } => {
                sink.gauge("datacron_repl_leader", &[("addr", leader)], 1);
                let silence_us = progress.silence_us(clock.now_us());
                for (name, v) in [
                    ("datacron_repl_epoch", state_epoch),
                    ("datacron_repl_applied_lsn", applied_lsn),
                    (
                        "datacron_repl_lag_records",
                        progress.lag_records(applied_lsn),
                    ),
                    ("datacron_repl_silence_us", silence_us),
                ] {
                    sink.gauge(name, &[], v);
                }
                let frames = progress.frames_applied();
                sink.counter("datacron_repl_frames_applied_total", &[], frames);
                let records = progress.records_applied();
                sink.counter("datacron_repl_records_applied_total", &[], records);
            }
        }
        let m = &metrics;
        for (name, outcome, reported) in [
            (
                "datacron_connections_total",
                "accepted",
                &m.connections_accepted,
            ),
            (
                "datacron_connections_total",
                "rejected",
                &m.connections_rejected,
            ),
            ("datacron_requests_total", "ok", &m.requests_ok),
            ("datacron_requests_total", "err", &m.requests_err),
        ] {
            let v = reported.load(Ordering::Relaxed);
            sink.counter(name, &[("outcome", outcome)], v);
        }
        for (name, v) in [
            ("datacron_queue_depth", m.queued.load(Ordering::Relaxed)),
            ("datacron_queue_capacity", queue_capacity),
            ("datacron_workers", workers),
            ("datacron_slowlog_threshold_us", slowlog.threshold_us()),
        ] {
            sink.gauge(name, &[], v);
        }
        // State read lock and storage lock are taken one after the
        // other, never nested (and state -> storage is the vetted order).
        state.read().scrape_into(sink);
        if let Some(storage) = &storage {
            let s = storage.lock().stats();
            for (name, v) in [
                ("datacron_wal_bytes", s.wal_bytes),
                ("datacron_wal_segments", s.segments as u64),
                ("datacron_wal_next_seq", s.next_seq),
                ("datacron_wal_durable_lsn", s.durable_lsn),
                (
                    "datacron_storage_snapshot_in_flight",
                    u64::from(s.snapshot_in_flight),
                ),
                ("datacron_storage_last_snapshot_seq", s.last_snapshot_seq),
                (
                    "datacron_storage_records_since_snapshot",
                    s.records_since_snapshot,
                ),
            ] {
                sink.gauge(name, &[], v);
            }
            // Every durable ack lands in
            // `datacron_ingest_durable_wait_latency_us`, so that
            // histogram's count minus `acks_parked` is the acks that fired
            // inline.
            for (name, v) in [
                ("datacron_wal_fsyncs_total", s.fsyncs),
                ("datacron_wal_commit_batches_total", s.commit_batches),
                ("datacron_wal_acks_parked_total", s.commit_waiters),
                (
                    "datacron_storage_snapshot_failures_total",
                    s.snapshot_failures,
                ),
            ] {
                sink.counter(name, &[], v);
            }
            if let Some(age) = s.snapshot_age_us {
                sink.gauge("datacron_storage_snapshot_age_us", &[], age);
            }
            if let Some(error) = &s.last_snapshot_error {
                let labels = [("error", error.as_str())];
                sink.gauge("datacron_storage_last_snapshot_error", &labels, 1);
            }
        }
    });
}

/// Exposes the reactor's connection gauges and loop counters as
/// `datacron_net_*`, plus the epoll iteration latency histogram. Kept
/// separate from [`install_collectors`] because the reactor (and its
/// stats) only exists once `Shared` does.
fn install_net_collectors(registry: &Registry, net: &ReactorHandle) {
    let loop_latency = Arc::clone(&net.stats().loop_latency);
    registry.register_histogram("datacron_net_loop_latency_us", &[], loop_latency);
    let net = net.clone();
    registry.collector(move |sink| {
        let s = net.stats();
        for (name, reported) in [
            ("datacron_net_open_connections", &s.open_connections),
            ("datacron_net_read_buffer_bytes", &s.read_buffer_bytes),
            ("datacron_net_write_buffer_bytes", &s.write_buffer_bytes),
        ] {
            sink.gauge(name, &[], reported.load(Ordering::Relaxed));
        }
        for (name, reported) in [
            ("datacron_net_accepts_total", &s.accepts_total),
            ("datacron_net_conns_closed_total", &s.conns_closed_total),
            ("datacron_net_conns_reaped_total", &s.conns_reaped_total),
            ("datacron_net_wakeups_total", &s.wakeups_total),
            (
                "datacron_net_loop_iterations_total",
                &s.loop_iterations_total,
            ),
        ] {
            sink.counter(name, &[], reported.load(Ordering::Relaxed));
        }
    });
}

/// Opens the data directory and rebuilds the analytics state from the
/// newest valid snapshot plus the verified WAL tail after it. Startup
/// fails rather than serve a state missing acknowledged records: when a
/// snapshot payload or a tail record passed its CRC but does not decode
/// (later appends would land behind a record nothing can get past), and
/// when the state does not reach the WAL head (the fallback snapshot is
/// older than the first record the log still holds).
fn recover(
    dir: &PathBuf,
    cfg: &ServerConfig,
    clock: &Arc<dyn ClockSource>,
    disk: Arc<dyn Disk>,
) -> io::Result<(Storage, AnalyticsState, RecoveryTimes)> {
    let (storage, recovery) =
        Storage::open_with_clock(dir, cfg.storage.clone(), Arc::clone(clock), disk)?;
    let restore_begin = clock.now_us();
    let (pipeline, deg) = (cfg.pipeline.clone(), cfg.heat_cell_deg);
    let context = |e: io::Error| io::Error::new(e.kind(), format!("recovery: {e}"));
    let mut state =
        AnalyticsState::rebuild(pipeline, deg, 0, recovery.snapshot.as_ref()).map_err(context)?;
    let replay_begin = clock.now_us();
    if !recovery.wal_tail.is_empty() {
        state.apply_records(&recovery.wal_tail).map_err(context)?;
    }
    if state.applied_lsn() != storage.next_seq() {
        let (head, at) = (storage.next_seq(), state.applied_lsn());
        let msg =
            format!("recovery: the WAL ends at seq {head}, but the state is at position {at}");
        return Err(io::Error::new(ErrorKind::InvalidData, msg));
    }
    if let Some(note) = &recovery.truncation {
        eprintln!("datacron-server: WAL tail dropped during recovery: {note}");
    }
    let times = [
        ("wal_open", recovery.wal_open_us),
        ("snapshot_load", recovery.snapshot_load_us),
        ("wal_read", recovery.wal_read_us),
        ("restore", replay_begin.saturating_sub(restore_begin)),
        ("replay", clock.now_us().saturating_sub(replay_begin)),
    ];
    Ok((storage, state, times))
}

/// One parsed request line in the bounded queue, stamped with the clock
/// reading at reactor enqueue so queue wait is measured from there.
struct Job {
    conn: ConnId,
    line: String,
    enqueued_us: u64,
}

/// The reactor-side application logic: admission control at accept,
/// request-level enqueueing at each framed line. Runs on the reactor
/// thread; everything here must stay non-blocking (`try_send`, atomics).
struct ServerHandler {
    shared: Arc<Shared>,
    jobs: SyncSender<Job>,
}

/// An error line plus newline, ready for the reactor's write buffer.
fn error_line(code: ErrorCode, msg: &str) -> Vec<u8> {
    let mut s = error_response(&Json::Null, code, msg);
    s.push('\n');
    s.into_bytes()
}

impl datacron_net::Handler for ServerHandler {
    fn on_open(&mut self, _conn: ConnId, open: usize) -> Open {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Open::Reject(error_line(
                ErrorCode::ShuttingDown,
                "server is shutting down",
            ));
        }
        if open > self.shared.cfg.max_connections {
            self.shared
                .metrics
                .connections_rejected
                .fetch_add(1, Ordering::Relaxed);
            return Open::Reject(error_line(
                ErrorCode::Busy,
                "connection limit reached, retry later",
            ));
        }
        // Accept-time admission: while the request queue is saturated the
        // server is not keeping up, so new connections are turned away
        // immediately instead of being left to time out on their first
        // request.
        let in_flight = self.shared.jobs_in_flight.load(Ordering::Relaxed);
        let cap = u64::try_from(self.shared.cfg.queue_capacity.max(1)).unwrap_or(u64::MAX);
        if in_flight >= cap {
            self.shared
                .metrics
                .connections_rejected
                .fetch_add(1, Ordering::Relaxed);
            return Open::Reject(error_line(
                ErrorCode::Busy,
                "connection queue full, retry later",
            ));
        }
        self.shared
            .metrics
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        Open::Accept
    }

    fn on_line(&mut self, conn: ConnId, line: String) -> LineAction {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return LineAction::Close(error_line(
                ErrorCode::ShuttingDown,
                "server is shutting down",
            ));
        }
        if line.trim().is_empty() {
            return LineAction::Ignore;
        }
        // Both counts rise before the send and fall back if it fails, so
        // a worker that takes the job at once never sees them below it.
        self.shared.jobs_in_flight.fetch_add(1, Ordering::Relaxed);
        self.shared.metrics.queued.fetch_add(1, Ordering::Relaxed);
        let job = Job {
            conn,
            line,
            enqueued_us: self.shared.clock.now_us(),
        };
        match self.jobs.try_send(job) {
            Ok(()) => LineAction::Dispatch,
            Err(TrySendError::Full(_)) => {
                // Request-level backpressure: this request is shed, the
                // connection survives to retry.
                self.shared.jobs_in_flight.fetch_sub(1, Ordering::Relaxed);
                self.shared.metrics.queued.fetch_sub(1, Ordering::Relaxed);
                self.shared
                    .metrics
                    .requests_err
                    .fetch_add(1, Ordering::Relaxed);
                LineAction::Respond(error_line(
                    ErrorCode::Busy,
                    "request queue full, retry later",
                ))
            }
            Err(TrySendError::Disconnected(_)) => {
                self.shared.jobs_in_flight.fetch_sub(1, Ordering::Relaxed);
                self.shared.metrics.queued.fetch_sub(1, Ordering::Relaxed);
                LineAction::Close(error_line(
                    ErrorCode::ShuttingDown,
                    "server is shutting down",
                ))
            }
        }
    }

    fn on_overflow(&mut self, _conn: ConnId) -> LineAction {
        self.shared
            .metrics
            .requests_err
            .fetch_add(1, Ordering::Relaxed);
        LineAction::Respond(error_line(
            ErrorCode::TooLarge,
            &format!("line exceeds {MAX_LINE_BYTES} bytes"),
        ))
    }
}

/// Pure request execution: take a job and run it; [`handle_line`] sees
/// the reply off. recv() errors only when the reactor exits and drops
/// the sender; queued jobs are still drained first (channel semantics),
/// their completions harmlessly dropped by the dead loop.
fn worker_loop(shared: &Shared, net: &ReactorHandle) {
    loop {
        // The queue guard is a temporary of this statement: it drops
        // before the job runs, so the next worker can wait meanwhile.
        let next = shared
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .recv();
        let Ok(job) = next else { return };
        shared.metrics.queued.fetch_sub(1, Ordering::Relaxed);
        handle_line(job, shared, net);
    }
}

/// Where a request's reply goes and the bookkeeping that goes with it.
/// Built once per request line by [`handle_line`] and consumed exactly
/// once by [`Completion::finish`], on whichever thread the request ends.
struct Completion {
    net: ReactorHandle,
    conn: ConnId,
    metrics: Arc<ServerMetrics>,
    slowlog: Arc<SlowLog>,
    jobs_in_flight: Arc<AtomicU64>,
    start: Stopwatch,
}

impl Completion {
    /// The one place a request ends: per-type latency, ok/err count,
    /// slow log, admission count, reply handed back to the reactor.
    /// `traced` is `None` for a line that did not parse — it is counted
    /// and answered, but has no type to be timed under.
    fn finish(self, traced: Option<(Request, Trace)>, mut response: String, ok: bool) {
        if let Some((req, trace)) = traced {
            self.metrics.latency[req.index()].observe(&self.start);
            self.slowlog
                .record(req.tag(), trace.total_us(), trace.into_spans(), || {
                    detail_for(&req)
                });
        }
        let counter = if ok {
            &self.metrics.requests_ok
        } else {
            &self.metrics.requests_err
        };
        counter.fetch_add(1, Ordering::Relaxed);
        response.push('\n');
        self.jobs_in_flight.fetch_sub(1, Ordering::Relaxed);
        self.net.complete(self.conn, response.into_bytes());
    }
}

/// Executes one request line and finishes it: at once for reads,
/// in-memory ingest and errors; for a durable ingest, when the commit
/// watermark reaches the LSN the fsync policy makes its ack wait for —
/// which is also at once when the watermark is already there, and on
/// the flusher thread (or whoever poisons the WAL) otherwise, so a
/// worker never parks on a flush.
fn handle_line(job: Job, shared: &Shared, net: &ReactorHandle) {
    let queue_wait_us = shared.clock.now_us().saturating_sub(job.enqueued_us);
    let done = Completion {
        net: net.clone(),
        conn: job.conn,
        metrics: Arc::clone(&shared.metrics),
        slowlog: Arc::clone(&shared.slowlog),
        jobs_in_flight: Arc::clone(&shared.jobs_in_flight),
        start: Stopwatch::start(),
    };
    let env = match parse_request(&job.line) {
        Ok(env) => env,
        Err(e) => {
            // Best-effort id echo even when the body failed to parse.
            let id = Json::parse(&job.line)
                .ok()
                .and_then(|v| v.get("id").cloned())
                .unwrap_or(Json::Null);
            return done.finish(None, error_response(&id, e.code, &e.msg), false);
        }
    };
    let mut trace = Trace::start(Arc::clone(&shared.clock));
    trace.add_span_us("queue_wait", queue_wait_us);
    let Reply {
        response,
        ok,
        ack_lsn,
    } = dispatch(&env, shared, &mut trace);
    let Envelope { id, req } = env;
    let Some((store, lsn)) = shared.storage.as_ref().zip(ack_lsn) else {
        return done.finish(Some((req, trace)), response, ok);
    };
    let wait_begin = trace.begin();
    store.commit.ack_when(
        lsn,
        Box::new(move |flushed| {
            let waited_us = trace.end_span("durable_wait", wait_begin);
            done.metrics.durable_wait.record_us(waited_us);
            let (response, ok) = match flushed {
                Ok(_) => (response, ok),
                Err(msg) => (
                    error_response(&id, ErrorCode::StorageError, &format!("wal fsync: {msg}")),
                    false,
                ),
            };
            done.finish(Some((req, trace)), response, ok)
        }),
    );
}

/// Free-form slow-log detail for a request: enough to identify the work
/// without storing the whole line.
fn detail_for(req: &Request) -> String {
    match req {
        Request::Ingest { reports } => format!("batch of {}", reports.len()),
        Request::Sparql { query, .. } => truncate_chars(query, 120),
        _ => String::new(),
    }
}

/// First `max` bytes of `s`, cut back to a char boundary, with an
/// ellipsis when anything was dropped.
fn truncate_chars(s: &str, max: usize) -> String {
    if s.len() <= max {
        return s.to_string();
    }
    let mut end = max;
    while end > 0 && !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", &s[..end])
}

/// `not_leader` error, carrying the leader address when this replica
/// knows one (a follower always does).
fn not_leader(repl: &ReplRuntime) -> ProtocolError {
    let e = ProtocolError::new(
        ErrorCode::NotLeader,
        "writes and replication requests must go to the leader",
    );
    match repl {
        ReplRuntime::Follower { leader, .. } => e.with_field("leader", leader.as_str()),
        ReplRuntime::Leader { .. } => e,
    }
}

/// What [`dispatch`] produced: the reply line, whether it is a success,
/// and — for a durable ingest — the LSN the durable watermark must reach
/// before the client may see it (the ack may not outrun the fsync policy).
struct Reply {
    response: String,
    ok: bool,
    ack_lsn: Option<u64>,
}

fn dispatch(env: &Envelope, shared: &Shared, trace: &mut Trace) -> Reply {
    let id = &env.id;
    let mut ack_lsn: Option<u64> = None;
    let exec_begin = trace.begin();
    let result: Result<Vec<(String, Json)>, ProtocolError> = match &env.req {
        Request::Ingest { reports } => {
            if matches!(&shared.repl, ReplRuntime::Follower { .. }) {
                Err(not_leader(&shared.repl))
            } else {
                ingest_durable(reports, shared, trace).map(|(out, lsn)| {
                    ack_lsn = lsn;
                    vec![
                        ("accepted".into(), Json::from(out.accepted)),
                        ("clean".into(), Json::from(out.clean)),
                        ("kept".into(), Json::from(out.kept)),
                        ("events".into(), Json::from(out.events.len() as u64)),
                        ("triples".into(), Json::from(out.triples)),
                    ]
                })
            }
        }
        Request::Sparql { query, limit } => serve_read(shared, |state| {
            let res = state.sparql(query, *limit)?;
            // The engine already measured planning/exec; lift its
            // numbers into the trace instead of re-timing.
            if let Some(us) = res.get("planning_us").and_then(Json::as_u64) {
                trace.add_span_us("planning", us);
            }
            if let Some(us) = res.get("exec_us").and_then(Json::as_u64) {
                trace.add_span_us("sparql_exec", us);
            }
            Ok(res)
        }),
        Request::Heatmap { top_k } => serve_read(shared, |state| Ok(state.heatmap(*top_k))),
        Request::Flows { top_k } => serve_read(shared, |state| Ok(state.flows(*top_k))),
        Request::Hotspots { top_k } => serve_read(shared, |state| Ok(state.hotspots(*top_k))),
        Request::Events { limit, kind } => {
            serve_read(shared, |state| Ok(state.events(*limit, kind.as_deref())))
        }
        Request::Stats => Ok(stats_fields(
            shared.started.elapsed_ms(),
            &shared.registry.samples(),
        )),
        Request::Metrics => Ok(vec![(
            "exposition".into(),
            Json::from(shared.registry.render()),
        )]),
        Request::Slowlog { limit } => Ok(slowlog_fields(&shared.slowlog, *limit)),
        Request::ReplSubscribe { follower, from_seq } => {
            repl_subscribe(shared, follower, *from_seq, trace)
        }
        Request::ReplFrame {
            follower,
            from_seq,
            max,
        } => repl_frame(shared, follower, *from_seq, *max, trace),
        Request::ReplStatus => Ok(vec![("replication".into(), replication_json(shared))]),
    };
    trace.end_span("exec", exec_begin);
    let ser_begin = trace.begin();
    let (response, ok) = match result {
        Ok(fields) => (ok_response(id, fields), true),
        Err(e) => (error_response_with(id, e.code, &e.msg, e.extra), false),
    };
    trace.end_span("serialize", ser_begin);
    Reply {
        response,
        ok,
        ack_lsn,
    }
}

/// Serves a read under one state read guard. The follower's staleness
/// verdict, the answer and the `leader_epoch` / `applied_lsn` stamp all
/// come from the state that guard holds, so a stamp is the position —
/// and on a follower the epoch — of the state that produced the answer,
/// never one a concurrent apply or rebuild reached after it. A
/// memory-only server's state never moves off 0.
fn serve_read(
    shared: &Shared,
    answer: impl FnOnce(&AnalyticsState) -> Result<Json, ProtocolError>,
) -> Result<Vec<(String, Json)>, ProtocolError> {
    let state = shared.state.read();
    let applied_lsn = state.applied_lsn();
    let leader_epoch = match &shared.repl {
        ReplRuntime::Leader { epoch, .. } => *epoch,
        ReplRuntime::Follower {
            leader,
            progress,
            policy,
        } => {
            if let StalenessVerdict::Stale {
                lag_records,
                silence_us,
            } = policy.check(progress, applied_lsn, shared.clock.now_us())
            {
                return Err(ProtocolError::new(
                    ErrorCode::Stale,
                    "replica lag exceeds the configured bound",
                )
                .with_field("leader", leader.as_str())
                .with_field("lag_records", lag_records)
                .with_field("silence_us", silence_us));
            }
            state.epoch()
        }
    };
    Ok(vec![
        ("result".into(), answer(&state)?),
        ("leader_epoch".into(), Json::from(leader_epoch)),
        ("applied_lsn".into(), Json::from(applied_lsn)),
    ])
}

/// Leader-side `repl_subscribe`: registers the follower and returns the
/// epoch and durable WAL head, plus — when `from_seq` has been retired
/// from the log — the newest snapshot file, the one recovery would start
/// from. The snapshot thread writes a file only once the WAL is durable
/// through its position, so a follower sees nothing a power cut can take
/// back. The file is read holding no lock, so a subscribe never stalls
/// ingest.
fn repl_subscribe(
    shared: &Shared,
    follower: &str,
    from_seq: u64,
    trace: &mut Trace,
) -> Result<Vec<(String, Json)>, ProtocolError> {
    let (epoch, store) = repl_leader(shared, follower, from_seq)?;
    let (mut floor, snapshots) = {
        let storage = store.storage.lock();
        (storage.first_retained_seq(), storage.snapshots())
    };
    let mut fields = vec![
        ("epoch".to_string(), Json::from(epoch)),
        ("first_retained_seq".to_string(), Json::from(floor)),
    ];
    if from_seq < floor {
        let snap_begin = trace.begin();
        let (at, bytes) = loop {
            let loaded = snapshots.load_latest();
            // The floor only rises, past a snapshot already installed: a
            // rise during the read may have pruned the file it listed.
            let now = { store.storage.lock().first_retained_seq() };
            match loaded.map_err(|e| storage_error("snapshot read", e))? {
                Some((at, bytes)) if at >= now => break (at, bytes),
                _ if now > floor => floor = now,
                _ => {
                    let msg = format!("no snapshot reaches the WAL, which starts at seq {now}");
                    return Err(ProtocolError::new(ErrorCode::StorageError, msg));
                }
            }
        };
        fields.push(("snapshot".to_string(), Json::from(b64::encode(&bytes))));
        fields.push(("snapshot_lsn".to_string(), Json::from(at)));
        trace.end_span("snapshot", snap_begin);
    }
    // Read last, so it covers the snapshot.
    fields.push(("next_seq".to_string(), store.commit.durable_lsn().into()));
    Ok(fields)
}

/// Leader-side `repl_frame`: serves a bounded window of durable WAL
/// records from `from_seq`, or a `reset` marker when that position fell
/// off the retained log (the follower must re-subscribe for a snapshot).
/// The poll itself is the ack: everything below `from_seq` is confirmed.
/// The advertised `next_seq` is the durable head, read after the frames,
/// so it covers them.
fn repl_frame(
    shared: &Shared,
    follower: &str,
    from_seq: u64,
    max: usize,
    trace: &mut Trace,
) -> Result<Vec<(String, Json)>, ProtocolError> {
    let (epoch, store) = repl_leader(shared, follower, from_seq)?;
    let mut storage = store.storage.lock();
    let floor = storage.first_retained_seq();
    let frames = if from_seq < floor {
        None
    } else {
        let read_begin = trace.begin();
        let frames = storage
            .read_from(from_seq, max, MAX_REPL_BYTES)
            .map_err(|e| storage_error("wal read", e))?;
        trace.end_span("wal_read", read_begin);
        Some(frames)
    };
    drop(storage);
    let mut fields = vec![
        ("epoch".to_string(), Json::from(epoch)),
        (
            "next_seq".to_string(),
            Json::from(store.commit.durable_lsn()),
        ),
    ];
    let Some(frames) = frames else {
        fields.push(("reset".to_string(), Json::Bool(true)));
        fields.push(("first_retained_seq".to_string(), Json::from(floor)));
        return Ok(fields);
    };
    let arr: Vec<Json> = frames
        .iter()
        .map(|(seq, payload)| {
            Json::obj()
                .field("seq", *seq)
                .field("payload", b64::encode(payload))
                .build()
        })
        .collect();
    fields.push(("frames".to_string(), Json::Arr(arr)));
    Ok(fields)
}

/// The leader's epoch and durable store for a replication request, with
/// the poll recorded in the follower registry; `not_leader` on a
/// follower and a storage error on a memory-only leader.
fn repl_leader<'a>(
    shared: &'a Shared,
    follower: &str,
    from_seq: u64,
) -> Result<(u64, &'a DurableStore), ProtocolError> {
    let ReplRuntime::Leader { epoch, registry } = &shared.repl else {
        return Err(not_leader(&shared.repl));
    };
    let Some(store) = &shared.storage else {
        return Err(ProtocolError::new(
            ErrorCode::StorageError,
            "replication needs a durable leader (start it with --data-dir)",
        ));
    };
    registry.observe_poll(follower, from_seq, shared.clock.now_us());
    Ok((*epoch, store))
}

fn storage_error(what: &str, e: io::Error) -> ProtocolError {
    ProtocolError::new(ErrorCode::StorageError, format!("{what}: {e}"))
}

/// The fields of the `stats` reply: `uptime_ms`, then `samples` — the
/// registry's list, the one `metrics` renders as text — under one rule.
/// A family `datacron_<section>_<name>[_total]` lands at
/// `<section>.<name>`, one level deeper per label value in label order
/// (`datacron_requests_total{outcome="ok"}` → `requests.ok`; a family
/// with no `_` after the prefix is a top-level key). A counter or gauge
/// is a number, a summary the object `{p50,p90,p99,sum,count,max}`.
pub fn stats_fields(uptime_ms: u64, samples: &[Sample]) -> Vec<(String, Json)> {
    let mut fields = vec![("uptime_ms".to_string(), Json::from(uptime_ms))];
    for s in samples {
        let name = s.name.strip_prefix("datacron_").unwrap_or(&s.name);
        let name = name.strip_suffix("_total").unwrap_or(name);
        let mut path: Vec<&str> = match name.split_once('_') {
            Some((section, rest)) => vec![section, rest],
            None => vec![name],
        };
        path.extend(s.labels.iter().map(|(_, v)| v.as_str()));
        let leaf = match s.value {
            Value::Counter(v) | Value::Gauge(v) => Json::from(v),
            Value::Summary(sum) => Json::Obj(
                sum.fields()
                    .iter()
                    .map(|&(k, v)| (k.to_string(), Json::from(v)))
                    .collect(),
            ),
        };
        insert_at(&mut fields, &path, leaf);
    }
    fields
}

/// Puts `leaf` at `path` below `obj`, making the objects on the way.
fn insert_at(obj: &mut Vec<(String, Json)>, path: &[&str], leaf: Json) {
    let Some((key, rest)) = path.split_first() else {
        return;
    };
    if rest.is_empty() {
        obj.push((key.to_string(), leaf));
        return;
    }
    let i = match obj.iter().position(|(k, _)| k == key) {
        Some(i) => i,
        None => {
            obj.push((key.to_string(), Json::Obj(Vec::new())));
            obj.len() - 1
        }
    };
    if let Json::Obj(child) = &mut obj[i].1 {
        insert_at(child, rest, leaf);
    }
}

/// The whole `repl_status` response: role, epoch, and position, plus
/// per-follower lag on a leader and the staleness policy on a follower.
fn replication_json(shared: &Shared) -> Json {
    let now = shared.clock.now_us();
    // On a leader the state's position is the WAL head: appends happen
    // only under the state write lock. A follower's epoch is its state's.
    let (applied_lsn, state_epoch) = {
        let state = shared.state.read();
        (state.applied_lsn(), state.epoch())
    };
    match &shared.repl {
        ReplRuntime::Leader { epoch, registry } => {
            let fleet = registry.snapshot(applied_lsn, now);
            let followers: Vec<Json> = fleet
                .iter()
                .map(|f| {
                    Json::obj()
                        .field("id", f.id.as_str())
                        .field("acked_lsn", f.acked_lsn)
                        .field("lag_records", f.lag_records)
                        .field("lag_us", f.lag_us)
                        .field("last_seen_us", f.last_seen_us)
                        .build()
                })
                .collect();
            Json::obj()
                .field("role", "leader")
                .field("epoch", *epoch)
                .field("durable", shared.storage.is_some())
                .field("next_seq", applied_lsn)
                .field("max_follower_lag_records", max_lag_records(&fleet))
                .field("followers", Json::Arr(followers))
                .build()
        }
        ReplRuntime::Follower {
            leader,
            progress,
            policy,
        } => Json::obj()
            .field("role", "follower")
            .field("leader", leader.as_str())
            .field("epoch", state_epoch)
            .field("applied_lsn", applied_lsn)
            .field("leader_next_seq", progress.leader_next_seq())
            .field("lag_records", progress.lag_records(applied_lsn))
            .field("silence_us", progress.silence_us(now))
            .field("frames_applied", progress.frames_applied())
            .field("records_applied", progress.records_applied())
            .field(
                "max_lag_records",
                policy.max_lag_records.map(Json::from).unwrap_or(Json::Null),
            )
            .field(
                "max_lag_us",
                policy.max_lag_us.map(Json::from).unwrap_or(Json::Null),
            )
            .build(),
    }
}

/// Renders the slow-query log for the `slowlog` response: entries
/// slowest-first, each with its span breakdown.
fn slowlog_fields(log: &SlowLog, limit: usize) -> Vec<(String, Json)> {
    let entries: Vec<Json> = log
        .snapshot(limit)
        .into_iter()
        .map(|e| {
            let spans: Vec<Json> = e
                .spans
                .iter()
                .map(|s| {
                    Json::obj()
                        .field("name", s.name)
                        .field("start_us", s.start_us)
                        .field("dur_us", s.dur_us)
                        .build()
                })
                .collect();
            Json::obj()
                .field("type", e.tag)
                .field("total_us", e.total_us)
                .field("seq", e.seq)
                .field("detail", e.detail)
                .field("spans", Json::Arr(spans))
                .build()
        })
        .collect();
    vec![
        ("entries".into(), Json::Arr(entries)),
        ("capacity".into(), Json::from(log.capacity() as u64)),
        ("threshold_us".into(), Json::from(log.threshold_us())),
    ]
}

/// Write-ahead order: the batch is appended to the WAL *before* it
/// touches the in-memory state, so an acknowledged batch is always
/// recoverable; an append failure rejects the batch without applying
/// it.
///
/// The append only *writes* the record and returns the LSN the fsync
/// policy makes the ack wait for (`None` on a memory-only server): the
/// caller must withhold the client's ack until the durable watermark
/// reaches it. No lock taken here is ever held across an fsync — every
/// flush happens on the WAL's flusher thread, and concurrent batches
/// share it. The one wait under the locks is a segment seal, once per
/// `--segment-bytes` of log.
///
/// A snapshot the append made due starts once the state write lock is
/// released: [`start_snapshot`] begins and serializes it under the state
/// *read* lock and the snapshot thread writes it, so no lock taken here
/// is held across `to_snapshot_bytes` or the snapshot file write either.
fn ingest_durable(
    reports: &[datacron_model::PositionReport],
    shared: &Shared,
    trace: &mut Trace,
) -> Result<(datacron_core::IngestOutcome, Option<u64>), ProtocolError> {
    let Some(store) = &shared.storage else {
        let mut state = shared.state.write();
        return Ok((state.ingest(reports), None));
    };
    let payload = codec::encode_batch(reports);
    let mut state = shared.state.write();
    // Short storage critical section: write the record, read the
    // snapshot threshold (it counts WAL records, so it is already final
    // for this batch) and return.
    let (seq, ack_lsn, snapshot_due) = {
        let mut guard = store.storage.lock();
        let wal_begin = trace.begin();
        let appended = guard.append_async(&payload);
        trace.end_span("wal_append", wal_begin);
        let (seq, ack_lsn) = appended
            .map_err(|e| ProtocolError::new(ErrorCode::StorageError, format!("wal append: {e}")))?;
        (seq, ack_lsn, guard.should_snapshot())
    };
    if let ReplRuntime::Leader { registry, .. } = &shared.repl {
        registry.observe_append(seq, shared.clock.now_us());
    }
    // Appends happen only under the state write lock, so the record just
    // appended is the one the state takes next.
    debug_assert_eq!(seq, state.applied_lsn(), "WAL and state positions diverged");
    let out = state
        .apply_log(seq, &[reports])
        .map_err(|e| ProtocolError::new(ErrorCode::StorageError, format!("wal apply: {e}")))?;
    drop(state);
    if snapshot_due {
        start_snapshot(shared, &store.storage);
    }
    Ok((out, Some(ack_lsn)))
}

/// Begins a threshold snapshot and hands it to the snapshot thread.
///
/// *Begin* and the serialization run under the state read lock: appends
/// only happen under the state write lock, so the position `begin`
/// notes is exactly what the bytes cover, while queries keep running.
/// The storage lock is held for *begin* alone (state read lock first,
/// then storage: the vetted order), which only requests the flush. The
/// *write* — wait until the WAL is durable through that position, then
/// the file — runs on the snapshot thread with no lock, and *publish*
/// takes the storage lock there.
fn start_snapshot(shared: &Shared, storage: &Arc<TrackedMutex<Storage>>) {
    let state = shared.state.read();
    let (seq, snapshots) = {
        let mut guard = storage.lock();
        // Another worker may have begun this snapshot since the check.
        if !guard.should_snapshot() {
            return;
        }
        match guard.begin_snapshot() {
            Ok(seq) => (seq, guard.snapshots()),
            Err(e) => return snapshot_failed(&e),
        }
    };
    let begin = shared.clock.now_us();
    let payload = state.to_snapshot_bytes();
    drop(state);
    shared
        .metrics
        .snapshot_serialize
        .record_us(shared.clock.now_us().saturating_sub(begin));
    // Weak: the thread belongs to the store, so a strong handle in its
    // job would keep the store alive from inside itself.
    let storage = Arc::downgrade(storage);
    snapshots.submit(
        seq,
        payload,
        Box::new(move |written| {
            if let Some(storage) = storage.upgrade() {
                if let Err(e) = storage.lock().publish_snapshot(seq, written) {
                    snapshot_failed(&e);
                }
            }
        }),
    );
}

/// Durability is unharmed by a failed snapshot (the WAL has everything)
/// and the next threshold crossing retries; the failure is also counted
/// in the storage metrics for operators.
fn snapshot_failed(e: &io::Error) {
    eprintln!("datacron-server: snapshot failed: {e}");
}
