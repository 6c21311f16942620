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
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use datacron_core::sync::{TrackedMutex, TrackedRwLock};
use datacron_core::PipelineConfig;
use datacron_geo::BoundingBox;
use datacron_net::{ConnId, LineAction, Open, Reactor, ReactorConfig, ReactorHandle};
use datacron_obs::{
    ClockSource, LatencyHistogram, MonotonicClock, Registry, SlowLog, Stopwatch, Trace,
};
use datacron_repl::{b64, epoch, FollowerProgress, FollowerRegistry, StalenessVerdict};
use datacron_storage::{GroupCommit, SnapshotWorker, Storage, StorageConfig};
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
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

/// Atomic counters plus per-request-type latency histograms.
#[derive(Debug)]
pub struct ServerMetrics {
    /// Connections handed to the worker pool.
    pub connections_accepted: AtomicU64,
    /// Connections rejected with `busy` (queue full).
    pub connections_rejected: AtomicU64,
    /// Requests answered with `"ok": true`.
    pub requests_ok: AtomicU64,
    /// Requests answered with an error response.
    pub requests_err: AtomicU64,
    /// Per-type request latency, indexed like [`Request::TAGS`].
    /// `Arc`-shared so each histogram can also live in the registry.
    pub latency: Vec<Arc<LatencyHistogram>>,
    /// Durable ingest: batch applied → ack fired (the `durable_wait`
    /// span; near zero when the watermark already covered the ack).
    pub durable_wait: Arc<LatencyHistogram>,
    /// `to_snapshot_bytes` for a threshold snapshot, under the state
    /// read lock.
    pub snapshot_serialize: Arc<LatencyHistogram>,
}

impl ServerMetrics {
    fn new() -> Self {
        Self {
            connections_accepted: AtomicU64::new(0),
            connections_rejected: AtomicU64::new(0),
            requests_ok: AtomicU64::new(0),
            requests_err: AtomicU64::new(0),
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

    /// Renders the server-side counters and latency percentiles.
    pub fn to_json(&self, queue_depth: usize, queue_capacity: usize, workers: usize) -> Json {
        let per_type: Vec<(String, Json)> = Request::TAGS
            .iter()
            .zip(self.latency.iter())
            .filter(|(_, h)| h.count() > 0)
            .map(|(tag, h)| {
                (
                    tag.to_string(),
                    Json::obj()
                        .field("count", h.count())
                        .field("p50_us", h.quantile_us(0.5))
                        .field("p99_us", h.quantile_us(0.99))
                        .field("max_us", h.max_us())
                        .build(),
                )
            })
            .collect();
        Json::obj()
            .field(
                "connections_accepted",
                self.connections_accepted.load(Ordering::Relaxed),
            )
            .field(
                "connections_rejected",
                self.connections_rejected.load(Ordering::Relaxed),
            )
            .field("requests_ok", self.requests_ok.load(Ordering::Relaxed))
            .field("requests_err", self.requests_err.load(Ordering::Relaxed))
            .field("queue_depth", queue_depth as u64)
            .field("queue_capacity", queue_capacity as u64)
            .field("workers", workers as u64)
            .field("request_latency", Json::Obj(per_type))
            .build()
    }
}

/// A running server; dropping the handle does NOT stop it — call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    /// The bound address (resolves port 0).
    pub local_addr: SocketAddr,
    /// Server-side counters and latency histograms.
    pub metrics: Arc<ServerMetrics>,
    /// The unified metrics registry behind the `metrics` request.
    pub registry: Arc<Registry>,
    /// The slow-query log behind the `slowlog` request.
    pub slowlog: Arc<SlowLog>,
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
    pub fn shutdown(mut self) {
        self.stop_threads();
        // A threshold snapshot may still be on the snapshot thread; it
        // publishes under the storage lock, so wait without it.
        if let Some(snapshots) = self.snapshots() {
            snapshots.wait_idle();
        }
        if let Some(store) = &self.storage {
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

    /// Unclean stop for crash-recovery tests: threads are joined so the
    /// process can proceed, but the WAL gets no final fsync and no
    /// shutdown snapshot is taken — exactly what a `kill -9` after the
    /// last append would leave on disk. The group-commit and snapshot
    /// threads are told to abandon (not flush, rename or publish) pending
    /// work for the same reason.
    pub fn abort(mut self) {
        self.stop_threads();
        if let Some(store) = &self.storage {
            store.storage.lock().abandon();
        }
        // Returns once the snapshot thread has let go of the store, so
        // the caller may reopen the directory.
        if let Some(snapshots) = self.snapshots() {
            snapshots.wait_idle();
        }
    }

    /// The durable store's snapshot thread, for crash tests that hold a
    /// snapshot between begin and publish.
    #[doc(hidden)]
    pub fn snapshots(&self) -> Option<Arc<SnapshotWorker>> {
        self.storage.as_ref().map(|s| s.storage.lock().snapshots())
    }

    /// The durable store's commit core, for fault-injection tests.
    #[doc(hidden)]
    pub fn commit(&self) -> Option<Arc<GroupCommit>> {
        self.storage.as_ref().map(|s| Arc::clone(&s.commit))
    }

    fn stop_threads(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // The reactor wakes from epoll_wait, closes every connection and
        // exits, dropping the handler and with it the queue sender —
        // workers drain whatever was queued, then see the disconnect.
        self.net.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
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
    /// attribute queue wait truthfully.
    queue: Receiver<Job>,
    /// Requests admitted but not yet answered (queued + executing);
    /// accept-time admission control reads it.
    jobs_in_flight: Arc<AtomicU64>,
    /// The reactor handle, set once the event loop exists (it is built
    /// after `Shared`); gives `stats` access to connection gauges.
    net: OnceLock<ReactorHandle>,
    cfg: ServerConfig,
    storage: Option<DurableStore>,
    /// Replication role plus its shared trackers.
    repl: ReplRuntime,
    /// What start-up recovery took, per phase (durable servers only).
    recovery: Option<RecoveryTimes>,
    started: Stopwatch,
}

/// Start-up recovery time by phase, µs, measured once by [`recover`].
#[derive(Debug, Clone, Copy)]
struct RecoveryTimes {
    /// Snapshot file read + verify, and decoding it into the state.
    snapshot_load_us: u64,
    /// WAL tail read + verify.
    wal_read_us: u64,
    /// Decoding the tail's batches and applying them to the state.
    replay_us: u64,
}

/// Binds, spawns the acceptor and worker pool, and returns immediately.
pub fn start(cfg: ServerConfig) -> io::Result<ServerHandle> {
    start_with_clock(cfg, Arc::new(MonotonicClock::new()))
}

/// [`start`] with an injected clock, so tests can drive staleness and
/// lag accounting deterministically. When following a leader, the
/// initial bootstrap (subscribe + snapshot fetch) happens synchronously
/// here: a follower that cannot reach its leader has nothing correct to
/// serve, so startup fails instead.
pub fn start_with_clock(
    cfg: ServerConfig,
    clock: Arc<dyn ClockSource>,
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
    let mut recovery = None;
    let (storage, mut recovered, repl) = match (&cfg.replication.follow, &cfg.data_dir) {
        (Some(leader), _) => {
            // From position 0: a fresh replica wants the log from its
            // first record (the leader sends a snapshot instead when 0
            // has been retired).
            let b = repl::bootstrap(&cfg, leader, 0)?;
            let progress = Arc::new(FollowerProgress::new());
            if b.applied_lsn > 0 {
                progress.observe_apply(b.applied_lsn, 0);
            }
            progress.observe_leader(b.epoch, b.leader_next_seq, clock.now_us());
            let repl = ReplRuntime::Follower {
                leader: leader.clone(),
                progress,
                policy: cfg.replication.policy,
            };
            (None, b.state, repl)
        }
        (None, Some(dir)) => {
            let (storage, state, times) = recover(dir, &cfg, &clock)?;
            recovery = Some(times);
            storage.register_metrics(&registry);
            let repl = ReplRuntime::Leader {
                // A durable epoch: every leader start gets a larger one,
                // so followers can tell restarts from silence.
                epoch: epoch::next_epoch(dir)?,
                registry: Arc::new(FollowerRegistry::new()),
                // The durable LSN: count of records in the WAL, which
                // is exactly `next_seq` in its 0-based sequence space.
                head: Arc::new(AtomicU64::new(storage.next_seq())),
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
                head: Arc::new(AtomicU64::new(0)),
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
    let (tx, rx) = channel::bounded::<Job>(cfg.queue_capacity.max(1));
    let jobs_in_flight = Arc::new(AtomicU64::new(0));
    install_collectors(
        &registry,
        &state,
        storage.as_ref().map(|s| &s.storage),
        &metrics,
        &slowlog,
        rx.clone(),
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
        queue: rx,
        jobs_in_flight: Arc::clone(&jobs_in_flight),
        net: OnceLock::new(),
        cfg,
        storage: storage.clone(),
        repl,
        recovery,
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
    let _ = shared.net.set(net.clone());
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
        metrics,
        registry,
        slowlog,
        state,
        shutdown,
        net,
        threads,
        storage,
    })
}

/// Installs the scrape-time collectors: everything that lives behind a
/// lock or an atomic and must be read fresh per `metrics` request. The
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
    queue: Receiver<Job>,
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
        match &repl {
            ReplRuntime::Leader {
                epoch,
                registry,
                head,
            } => {
                let labels = [("role", "leader")];
                sink.gauge("datacron_repl_epoch", &labels, *epoch);
                // ordering: Acquire pairs with the Release publish in
                // `ingest_durable` — lag gauges computed from this head
                // must not run ahead of the append it covers. `head` is
                // already an LSN (one past the last appended seq), the
                // same value `replication_json` hands to `snapshot`.
                let next_seq = head.load(Ordering::Acquire);
                sink.gauge(
                    "datacron_repl_followers",
                    &labels,
                    registry.follower_count() as u64,
                );
                for f in registry.snapshot(next_seq, clock.now_us()) {
                    let labels = [("follower", f.id.as_str())];
                    sink.gauge("datacron_repl_follower_lag_records", &labels, f.lag_records);
                    sink.gauge("datacron_repl_follower_lag_us", &labels, f.lag_us);
                }
            }
            ReplRuntime::Follower { progress, .. } => {
                let labels = [("role", "follower")];
                sink.gauge("datacron_repl_epoch", &labels, progress.leader_epoch());
                sink.gauge("datacron_repl_applied_lsn", &labels, progress.applied_lsn());
                sink.gauge("datacron_repl_lag_records", &labels, progress.lag_records());
                let last = progress.last_contact_us();
                let silence = if last == 0 {
                    0
                } else {
                    clock.now_us().saturating_sub(last)
                };
                sink.gauge("datacron_repl_silence_us", &labels, silence);
                sink.counter(
                    "datacron_repl_frames_applied_total",
                    &labels,
                    progress.frames_applied(),
                );
                sink.counter(
                    "datacron_repl_records_applied_total",
                    &labels,
                    progress.records_applied(),
                );
            }
        }
        sink.counter(
            "datacron_connections_total",
            &[("outcome", "accepted")],
            metrics.connections_accepted.load(Ordering::Relaxed),
        );
        sink.counter(
            "datacron_connections_total",
            &[("outcome", "rejected")],
            metrics.connections_rejected.load(Ordering::Relaxed),
        );
        sink.counter(
            "datacron_requests_total",
            &[("outcome", "ok")],
            metrics.requests_ok.load(Ordering::Relaxed),
        );
        sink.counter(
            "datacron_requests_total",
            &[("outcome", "err")],
            metrics.requests_err.load(Ordering::Relaxed),
        );
        sink.gauge("datacron_queue_depth", &[], queue.len() as u64);
        sink.gauge("datacron_queue_capacity", &[], queue_capacity);
        sink.gauge("datacron_workers", &[], workers);
        sink.gauge("datacron_slowlog_threshold_us", &[], slowlog.threshold_us());
        // State read lock and storage lock are taken one after the
        // other, never nested (and state -> storage is the vetted order).
        let c = state.read().counters();
        sink.counter(
            "datacron_pipeline_reports_total",
            &[("stage", "in")],
            c.reports_in,
        );
        sink.counter(
            "datacron_pipeline_reports_total",
            &[("stage", "clean")],
            c.reports_clean,
        );
        sink.counter(
            "datacron_pipeline_reports_total",
            &[("stage", "kept")],
            c.reports_kept,
        );
        sink.counter("datacron_pipeline_events_total", &[], c.events);
        sink.counter("datacron_pipeline_triples_total", &[], c.triples);
        sink.counter("datacron_cep_pair_candidates_total", &[], c.pair_candidates);
        sink.gauge("datacron_graph_triples", &[], c.graph_len);
        sink.counter("datacron_query_morsels_total", &[], c.query_morsels);
        sink.counter("datacron_query_steals_total", &[], c.query_steals);
        if let Some(storage) = &storage {
            let s = storage.lock().stats();
            sink.gauge("datacron_wal_bytes", &[], s.wal_bytes);
            sink.gauge("datacron_wal_segments", &[], s.segments as u64);
            sink.gauge(
                "datacron_wal_records_since_snapshot",
                &[],
                s.records_since_snapshot,
            );
            sink.gauge("datacron_wal_next_seq", &[], s.next_seq);
            sink.gauge("datacron_wal_durable_lsn", &[], s.durable_lsn);
            sink.counter("datacron_wal_fsyncs_total", &[], s.fsyncs);
            sink.counter("datacron_wal_commit_batches_total", &[], s.commit_batches);
            // Every durable ack lands in
            // `datacron_ingest_durable_wait_latency_us`, so that
            // histogram's count minus this is the acks that fired inline.
            sink.counter("datacron_wal_acks_parked_total", &[], s.commit_waiters);
            sink.gauge(
                "datacron_storage_snapshot_in_flight",
                &[],
                u64::from(s.snapshot_in_flight),
            );
            sink.counter(
                "datacron_storage_snapshot_failures_total",
                &[],
                s.snapshot_failures,
            );
            if let Some(age) = s.snapshot_age_us {
                sink.gauge("datacron_snapshot_age_us", &[], age);
            }
        }
    });
}

/// Exposes the reactor's connection gauges and loop counters as
/// `datacron_net_*`, plus the epoll iteration latency histogram. Kept
/// separate from [`install_collectors`] because the reactor (and its
/// stats) only exists once `Shared` does.
fn install_net_collectors(registry: &Registry, net: &ReactorHandle) {
    registry.register_histogram(
        "datacron_net_loop_latency_us",
        &[],
        Arc::clone(&net.stats().loop_latency),
    );
    let net = net.clone();
    registry.collector(move |sink| {
        let s = net.stats();
        sink.gauge(
            "datacron_net_open_connections",
            &[],
            s.open_connections.load(Ordering::Relaxed),
        );
        sink.gauge(
            "datacron_net_read_buffer_bytes",
            &[],
            s.read_buffer_bytes.load(Ordering::Relaxed),
        );
        sink.gauge(
            "datacron_net_write_buffer_bytes",
            &[],
            s.write_buffer_bytes.load(Ordering::Relaxed),
        );
        sink.counter(
            "datacron_net_accepts_total",
            &[],
            s.accepts_total.load(Ordering::Relaxed),
        );
        sink.counter(
            "datacron_net_conns_closed_total",
            &[],
            s.conns_closed_total.load(Ordering::Relaxed),
        );
        sink.counter(
            "datacron_net_conns_reaped_total",
            &[],
            s.conns_reaped_total.load(Ordering::Relaxed),
        );
        sink.counter(
            "datacron_net_wakeups_total",
            &[],
            s.wakeups_total.load(Ordering::Relaxed),
        );
        sink.counter(
            "datacron_net_loop_iterations_total",
            &[],
            s.loop_iterations_total.load(Ordering::Relaxed),
        );
    });
}

/// Opens the data directory and rebuilds the analytics state from the
/// newest valid snapshot plus the verified WAL tail after it. A snapshot
/// whose payload fails to decode aborts startup (it passed its CRC, so
/// this is a format mismatch, not disk corruption); a WAL record that
/// fails to decode stops the replay at the last good record, mirroring
/// the storage layer's stop-at-first-bad-record contract.
fn recover(
    dir: &PathBuf,
    cfg: &ServerConfig,
    clock: &Arc<dyn ClockSource>,
) -> io::Result<(Storage, AnalyticsState, RecoveryTimes)> {
    let (storage, recovery) =
        Storage::open_with_clock(dir, cfg.storage.clone(), Arc::clone(clock))?;
    let decode_begin = clock.now_us();
    let mut state = match &recovery.snapshot {
        Some((wal_seq, payload)) => {
            AnalyticsState::from_snapshot_bytes(cfg.pipeline.clone(), cfg.heat_cell_deg, payload)
                .map_err(|e| {
                    io::Error::new(
                        ErrorKind::InvalidData,
                        format!("snapshot at wal seq {wal_seq}: {e}"),
                    )
                })?
        }
        None => AnalyticsState::new(cfg.pipeline.clone(), cfg.heat_cell_deg),
    };
    let replay_begin = clock.now_us();
    // Decode every tail record first, then apply them all through the
    // batch path: one graph commit for the whole tail instead of one per
    // record. A record that fails to decode stops the replay at the
    // last good one, mirroring the storage layer's contract.
    let mut batches = Vec::with_capacity(recovery.wal_tail.len());
    for (seq, payload) in &recovery.wal_tail {
        match codec::decode_batch(payload) {
            Ok(batch) => batches.push(batch),
            Err(e) => {
                eprintln!(
                    "datacron-server: WAL replay stopped at seq {seq}: {e} \
                     ({} of {} records applied)",
                    batches.len(),
                    recovery.wal_tail.len()
                );
                break;
            }
        }
    }
    if !batches.is_empty() {
        state.ingest_many(&batches);
    }
    if let Some(note) = &recovery.truncation {
        eprintln!("datacron-server: WAL tail dropped during recovery: {note}");
    }
    let times = RecoveryTimes {
        snapshot_load_us: recovery.snapshot_load_us + replay_begin.saturating_sub(decode_begin),
        wal_read_us: recovery.wal_read_us,
        replay_us: clock.now_us().saturating_sub(replay_begin),
    };
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
    jobs: Sender<Job>,
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
        self.shared.jobs_in_flight.fetch_add(1, Ordering::Relaxed);
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
    while let Ok(job) = shared.queue.recv() {
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
    // Follower read path: bounded staleness is enforced before touching
    // state, so a shed read costs no locks.
    if let ReplRuntime::Follower {
        leader,
        progress,
        policy,
    } = &shared.repl
    {
        if env.req.is_read() {
            if let StalenessVerdict::Stale {
                lag_records,
                silence_us,
            } = policy.check(progress, shared.clock.now_us())
            {
                let extra = vec![
                    ("leader".to_string(), Json::Str(leader.clone())),
                    ("lag_records".to_string(), Json::from(lag_records)),
                    ("silence_us".to_string(), Json::from(silence_us)),
                ];
                return Reply {
                    response: error_response_with(
                        id,
                        ErrorCode::Stale,
                        "replica lag exceeds the configured bound",
                        extra,
                    ),
                    ok: false,
                    ack_lsn: None,
                };
            }
        }
    }
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
        Request::Sparql { query, limit } => {
            let res = shared.state.read().sparql(query, *limit);
            if let Ok(j) = &res {
                // The engine already measured planning/exec; lift its
                // numbers into the trace instead of re-timing.
                if let Some(us) = j.get("planning_us").and_then(Json::as_u64) {
                    trace.add_span_us("planning", us);
                }
                if let Some(us) = j.get("exec_us").and_then(Json::as_u64) {
                    trace.add_span_us("sparql_exec", us);
                }
            }
            res.map(|j| vec![("result".into(), j)])
        }
        Request::Heatmap { top_k } => {
            Ok(vec![("result".into(), shared.state.read().heatmap(*top_k))])
        }
        Request::Flows { top_k } => Ok(vec![("result".into(), shared.state.read().flows(*top_k))]),
        Request::Hotspots { top_k } => Ok(vec![(
            "result".into(),
            shared.state.read().hotspots(*top_k),
        )]),
        Request::Events { limit, kind } => Ok(vec![(
            "result".into(),
            shared.state.read().events(*limit, kind.as_deref()),
        )]),
        Request::Stats => {
            let pipeline = shared.state.read().pipeline_stats();
            let server = shared.metrics.to_json(
                shared.queue.len(),
                shared.cfg.queue_capacity,
                shared.cfg.workers,
            );
            let mut fields = vec![
                (
                    "uptime_ms".to_string(),
                    Json::from(shared.started.elapsed_ms()),
                ),
                ("server".to_string(), server),
                ("pipeline".to_string(), pipeline),
                ("replication".to_string(), replication_json(shared)),
            ];
            if let Some(net) = shared.net.get() {
                let s = net.stats();
                fields.push((
                    "net".to_string(),
                    Json::obj()
                        .field(
                            "open_connections",
                            s.open_connections.load(Ordering::Relaxed),
                        )
                        .field(
                            "read_buffer_bytes",
                            s.read_buffer_bytes.load(Ordering::Relaxed),
                        )
                        .field(
                            "write_buffer_bytes",
                            s.write_buffer_bytes.load(Ordering::Relaxed),
                        )
                        .field("accepts_total", s.accepts_total.load(Ordering::Relaxed))
                        .field(
                            "conns_closed_total",
                            s.conns_closed_total.load(Ordering::Relaxed),
                        )
                        .field(
                            "conns_reaped_total",
                            s.conns_reaped_total.load(Ordering::Relaxed),
                        )
                        .field(
                            "loop_iterations_total",
                            s.loop_iterations_total.load(Ordering::Relaxed),
                        )
                        .build(),
                ));
            }
            if let Some(store) = &shared.storage {
                let s = store.storage.lock().stats();
                fields.push((
                    "storage".to_string(),
                    Json::obj()
                        .field("wal_bytes", s.wal_bytes)
                        .field("segments", s.segments as u64)
                        .field("records_since_snapshot", s.records_since_snapshot)
                        .field("next_seq", s.next_seq)
                        .field("durable_lsn", s.durable_lsn)
                        .field("last_snapshot_seq", s.last_snapshot_seq)
                        .field("fsync_p99_us", s.fsync_p99_us)
                        .field("fsyncs", s.fsyncs)
                        .field("commit_batches", s.commit_batches)
                        .field("commit_waiters", s.commit_waiters)
                        .field("snapshot_in_flight", s.snapshot_in_flight)
                        .field("snapshot_failures", s.snapshot_failures)
                        .field(
                            "last_snapshot_error",
                            s.last_snapshot_error.map(Json::Str).unwrap_or(Json::Null),
                        )
                        .field(
                            "recovery",
                            shared.recovery.map_or(Json::Null, |r| {
                                Json::obj()
                                    .field("snapshot_load_us", r.snapshot_load_us)
                                    .field("wal_read_us", r.wal_read_us)
                                    .field("replay_us", r.replay_us)
                                    .build()
                            }),
                        )
                        .build(),
                ));
            }
            Ok(fields)
        }
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
        Ok(mut fields) => {
            // Reads carry the replica position they were served at, so
            // clients can reason about staleness end to end.
            if env.req.is_read() {
                let (leader_epoch, applied_lsn) = match &shared.repl {
                    ReplRuntime::Leader { epoch, head, .. } => {
                        // ordering: Acquire pairs with the Release
                        // publish in `ingest_durable`; responses stamped
                        // with this LSN promise the records exist.
                        (*epoch, head.load(Ordering::Acquire))
                    }
                    ReplRuntime::Follower { progress, .. } => {
                        (progress.leader_epoch(), progress.applied_lsn())
                    }
                };
                fields.push(("leader_epoch".into(), Json::from(leader_epoch)));
                fields.push(("applied_lsn".into(), Json::from(applied_lsn)));
            }
            (ok_response(id, fields), true)
        }
        Err(e) => (error_response_with(id, e.code, &e.msg, e.extra), false),
    };
    trace.end_span("serialize", ser_begin);
    Reply {
        response,
        ok,
        ack_lsn,
    }
}

/// Leader-side `repl_subscribe`: registers the follower and returns the
/// epoch and WAL head, plus a full serialized state snapshot when
/// `from_seq` has already been retired from the log. The state read
/// lock excludes ingest (which appends under the write lock), so the
/// snapshot is exactly the state as of `next_seq`.
fn repl_subscribe(
    shared: &Shared,
    follower: &str,
    from_seq: u64,
    trace: &mut Trace,
) -> Result<Vec<(String, Json)>, ProtocolError> {
    let ReplRuntime::Leader {
        epoch, registry, ..
    } = &shared.repl
    else {
        return Err(not_leader(&shared.repl));
    };
    let Some(store) = &shared.storage else {
        return Err(ProtocolError::new(
            ErrorCode::StorageError,
            "replication needs a durable leader (start it with --data-dir)",
        ));
    };
    // State read lock first, then storage: the vetted order.
    let state = shared.state.read();
    let storage = store.storage.lock();
    let next_seq = storage.next_seq();
    let floor = storage.first_retained_seq();
    registry.observe_poll(follower, from_seq, shared.clock.now_us());
    let mut fields = vec![
        ("epoch".to_string(), Json::from(*epoch)),
        ("next_seq".to_string(), Json::from(next_seq)),
        ("first_retained_seq".to_string(), Json::from(floor)),
    ];
    if from_seq < floor {
        let snap_begin = trace.begin();
        let bytes = state.to_snapshot_bytes();
        fields.push(("snapshot".to_string(), Json::from(b64::encode(&bytes))));
        // The snapshot covers every record below `next_seq`, so the
        // follower's position after installing it is `next_seq` itself.
        fields.push(("snapshot_lsn".to_string(), Json::from(next_seq)));
        trace.end_span("snapshot", snap_begin);
    }
    Ok(fields)
}

/// Leader-side `repl_frame`: serves a bounded window of WAL records
/// from `from_seq`, or a `reset` marker when that position fell off the
/// retained log (the follower must re-subscribe for a snapshot). The
/// poll itself is the ack: everything below `from_seq` is confirmed.
fn repl_frame(
    shared: &Shared,
    follower: &str,
    from_seq: u64,
    max: usize,
    trace: &mut Trace,
) -> Result<Vec<(String, Json)>, ProtocolError> {
    let ReplRuntime::Leader {
        epoch, registry, ..
    } = &shared.repl
    else {
        return Err(not_leader(&shared.repl));
    };
    let Some(store) = &shared.storage else {
        return Err(ProtocolError::new(
            ErrorCode::StorageError,
            "replication needs a durable leader (start it with --data-dir)",
        ));
    };
    let storage = store.storage.lock();
    let next_seq = storage.next_seq();
    let floor = storage.first_retained_seq();
    registry.observe_poll(follower, from_seq, shared.clock.now_us());
    let mut fields = vec![
        ("epoch".to_string(), Json::from(*epoch)),
        ("next_seq".to_string(), Json::from(next_seq)),
    ];
    if from_seq < floor {
        fields.push(("reset".to_string(), Json::Bool(true)));
        fields.push(("first_retained_seq".to_string(), Json::from(floor)));
        return Ok(fields);
    }
    let read_begin = trace.begin();
    let frames = storage
        .read_from(from_seq, max, MAX_REPL_BYTES)
        .map_err(|e| ProtocolError::new(ErrorCode::StorageError, format!("wal read: {e}")))?;
    trace.end_span("wal_read", read_begin);
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

/// The `replication` section of `stats` (and the whole `repl_status`
/// response): role, epoch, and position, plus per-follower lag on a
/// leader and the staleness policy on a follower.
fn replication_json(shared: &Shared) -> Json {
    let now = shared.clock.now_us();
    match &shared.repl {
        ReplRuntime::Leader {
            epoch,
            registry,
            head,
        } => {
            // ordering: Acquire pairs with the Release publish in
            // `ingest_durable` — followers treat this `next_seq` as a
            // promise that records `0..next_seq` are pullable.
            let next_seq = head.load(Ordering::Acquire);
            let followers: Vec<Json> = registry
                .snapshot(next_seq, now)
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
                .field("next_seq", next_seq)
                .field(
                    "max_follower_lag_records",
                    registry.max_lag_records(next_seq),
                )
                .field("followers", Json::Arr(followers))
                .build()
        }
        ReplRuntime::Follower {
            leader,
            progress,
            policy,
        } => {
            let last = progress.last_contact_us();
            let silence_us = if last == 0 {
                0
            } else {
                now.saturating_sub(last)
            };
            Json::obj()
                .field("role", "follower")
                .field("leader", leader.as_str())
                .field("epoch", progress.leader_epoch())
                .field("applied_lsn", progress.applied_lsn())
                .field("leader_next_seq", progress.leader_next_seq())
                .field("lag_records", progress.lag_records())
                .field("silence_us", silence_us)
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
                .build()
        }
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
    if let ReplRuntime::Leader { registry, head, .. } = &shared.repl {
        // `head` is an LSN: one past the sequence just appended.
        // ordering: Release publishes the WAL append — a reader that
        // Acquire-loads this head may serve/stamp records `0..head`
        // without re-taking the storage lock, so the store must not be
        // reorderable before the append it advertises.
        head.store(seq.saturating_add(1), Ordering::Release);
        registry.observe_append(seq, shared.clock.now_us());
    }
    let out = state.ingest(reports);
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
/// in storage stats/metrics for operators.
fn snapshot_failed(e: &io::Error) {
    eprintln!("datacron-server: snapshot failed: {e}");
}
