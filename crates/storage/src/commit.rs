//! Group commit: a shared durable-LSN watermark plus the one flusher
//! thread that advances it.
//!
//! # One way to make a write durable
//!
//! `Wal::append` only *writes* a record. Durability is the flusher's
//! job under every [`FsyncPolicy`](crate::FsyncPolicy): the thread
//! flushes the active segment once per batch, and every request at or
//! below the new watermark completes with that single fsync — the only
//! `sync_data` a segment ever sees is the one in [`GroupCommit::run`],
//! and no caller's lock is held across it. The policy is one number,
//! the *slack*: how many acknowledged records may be ahead of the
//! watermark (`always` 0, `every=N` N − 1, `never` unbounded). It
//! decides when an append asks for a flush and which LSN its ack waits
//! for; it selects no code.
//!
//! # Flush on return
//!
//! The thread starts the next fsync the moment the previous one
//! returns, if anything was requested meanwhile, and sleeps on a condvar
//! otherwise. A group is therefore whatever was requested during the
//! previous device flush: one record for a lone `always` writer (it
//! pays one flush per ack and nothing else), many under concurrency.
//! There is no window, settle time or other pacing constant to tune.
//!
//! # LSN semantics
//!
//! Positions are counts, matching the replication code: `durable_lsn ==
//! n` means records `0..n` are durable. An append that got sequence
//! `seq` is durable once `durable_lsn >= seq + 1`.
//!
//! # The segment-roll invariant
//!
//! The thread only ever fsyncs the *current* active segment (a cloned
//! fd handed over by the WAL). That is sufficient because sealing a
//! segment waits for the watermark to cover it before the new file
//! becomes active — so at the instant the thread samples `(requested,
//! file)` under the lock, every record below `requested` is either
//! already durable (sealed segments) or sits in `file`.
//!
//! # Poisoning (fsyncgate)
//!
//! After a failed fsync the kernel may have dropped the dirty pages
//! while clearing the error, so a retried fsync can "succeed" without
//! the data ever reaching disk. The first fsync failure therefore
//! poisons the log permanently: pending and future waiters fail with
//! the original error, appends and syncs refuse to run, and no fsync is
//! ever retried.

use datacron_obs::{LatencyHistogram, Stopwatch};
use std::fs::File;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Completion callback for a deferred durability request: `Ok(lsn)`
/// once the watermark covers the request, `Err(reason)` if the log was
/// poisoned first. Fired exactly once, never under the commit lock.
pub type AckCallback = Box<dyn FnOnce(Result<u64, String>) + Send>;

/// Mutable state behind the commit lock.
struct CommitState {
    /// Highest LSN anyone has asked to make durable.
    requested: u64,
    /// Cloned fd of the active segment — what the thread fsyncs.
    file: Option<Arc<File>>,
    /// Deferred acks, each waiting for `durable >= lsn`.
    waiters: Vec<(u64, AckCallback)>,
    /// First fsync failure, verbatim; set once, never cleared.
    poisoned: Option<String>,
    /// Thread exit requested (pending work is drained first).
    shutdown: bool,
    /// Crash-simulation exit: the thread returns immediately, flushing
    /// nothing — what a `kill -9` would leave behind.
    abandon: bool,
    /// Test hook: fail this many upcoming fsyncs.
    fail_fsyncs: u32,
}

/// Shared group-commit core: the durable watermark, the waiter list,
/// and the poison flag. One per [`Wal`](crate::Wal); its flusher thread
/// and every appender hold an `Arc` to it.
pub struct GroupCommit {
    state: Mutex<CommitState>,
    /// Wakes the fsync thread when `requested` advances or on shutdown.
    work_cv: Condvar,
    /// Wakes blocking [`GroupCommit::wait_durable`] callers.
    durable_cv: Condvar,
    /// The watermark: records `0..durable` are on disk. Written under
    /// the state lock; read lock-free.
    durable: AtomicU64,
    /// Records made durable per fsync batch (the group size); its count
    /// is the number of batches.
    group_size: Arc<LatencyHistogram>,
    waiters_total: AtomicU64,
    /// Shared with the WAL, which serves it to stats and the registry.
    fsync_lat: Arc<LatencyHistogram>,
}

impl std::fmt::Debug for GroupCommit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupCommit")
            .field("durable", &self.durable_lsn())
            .field("batches", &self.batches())
            .finish_non_exhaustive()
    }
}

impl GroupCommit {
    /// A fresh core whose watermark starts at `durable`: everything
    /// recovered from disk counts as durable.
    pub(crate) fn new(fsync_lat: Arc<LatencyHistogram>, durable: u64) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(CommitState {
                requested: durable,
                file: None,
                waiters: Vec::new(),
                poisoned: None,
                shutdown: false,
                abandon: false,
                fail_fsyncs: 0,
            }),
            work_cv: Condvar::new(),
            durable_cv: Condvar::new(),
            durable: AtomicU64::new(durable),
            group_size: Arc::new(LatencyHistogram::new()),
            waiters_total: AtomicU64::new(0),
            fsync_lat,
        })
    }

    /// Locks the state, absorbing poisoning from a panicked peer — the
    /// state stays coherent because every mutation completes before the
    /// guard drops.
    fn lock(&self) -> MutexGuard<'_, CommitState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The durability watermark: records `0..lsn` are on disk.
    pub fn durable_lsn(&self) -> u64 {
        self.durable.load(Ordering::Acquire)
    }

    /// fsync batches completed.
    pub fn batches(&self) -> u64 {
        self.group_size.count()
    }

    /// Deferred acks that had to be parked for the flusher: the LSN
    /// they wait for was not yet durable when [`GroupCommit::ack_when`]
    /// ran.
    pub fn waiters_registered(&self) -> u64 {
        // ordering: pure statistic; readers only want an eventual count.
        self.waiters_total.load(Ordering::Relaxed)
    }

    /// Waiters currently parked (a point-in-time gauge).
    pub fn pending_waiters(&self) -> usize {
        self.lock().waiters.len()
    }

    /// Shared handle to the group-size histogram (records per fsync
    /// batch), the form a metrics registry registers.
    pub fn group_size_shared(&self) -> Arc<LatencyHistogram> {
        Arc::clone(&self.group_size)
    }

    /// `Err` with the original fsync error once the log is poisoned.
    pub fn check_poison(&self) -> io::Result<()> {
        match &self.lock().poisoned {
            Some(msg) => Err(io::Error::other(msg.clone())),
            None => Ok(()),
        }
    }

    /// Hands the thread a cloned fd for the (new) active segment. Must
    /// be called under the same serialization that orders appends (the
    /// caller's storage lock), before any append to the new file asks
    /// for durability.
    pub(crate) fn set_active_file(&self, file: File) {
        self.lock().file = Some(Arc::new(file));
    }

    /// Asks the thread to make records `0..lsn` durable. Returns
    /// immediately; pair with [`GroupCommit::ack_when`] or
    /// [`GroupCommit::wait_durable`].
    pub fn request(&self, lsn: u64) {
        self.request_locked(&mut self.lock(), lsn);
    }

    fn request_locked(&self, g: &mut CommitState, lsn: u64) {
        if lsn > g.requested {
            // Only signal when the thread could be idle: if `requested`
            // was already ahead of the watermark the thread is fsyncing
            // (or about to sample) and will observe the new value when
            // that flush returns — waking it per append just churns the
            // hot commit lock.
            let idle = g.requested == self.durable.load(Ordering::Acquire);
            g.requested = lsn;
            if idle {
                self.work_cv.notify_one();
            }
        }
    }

    /// Registers `cb` to fire once `durable_lsn >= lsn` (or fail on
    /// poison). Fires inline — outside the lock — when the condition
    /// already holds.
    pub fn ack_when(&self, lsn: u64, cb: AckCallback) {
        let mut g = self.lock();
        if let Some(msg) = g.poisoned.clone() {
            drop(g);
            cb(Err(msg));
            return;
        }
        if self.durable.load(Ordering::Acquire) >= lsn {
            drop(g);
            cb(Ok(lsn));
            return;
        }
        // ordering: pure statistic; readers only want an eventual count.
        self.waiters_total.fetch_add(1, Ordering::Relaxed);
        g.waiters.push((lsn, cb));
    }

    /// Blocks until records `0..lsn` are durable (requesting the work
    /// if nobody has yet): blocking appends, explicit syncs, the segment
    /// seal and the snapshot write's gate. Fails on poison, and on
    /// abandon — the thread that would have flushed is gone.
    pub fn wait_durable(&self, lsn: u64) -> io::Result<u64> {
        let mut g = self.lock();
        self.request_locked(&mut g, lsn);
        loop {
            if let Some(msg) = &g.poisoned {
                return Err(io::Error::other(msg.clone()));
            }
            let d = self.durable.load(Ordering::Acquire);
            if d >= lsn {
                return Ok(d);
            }
            if g.abandon {
                return Err(io::Error::other("group commit abandoned"));
            }
            g = self.durable_cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Advances the watermark to `lsn` (monotonically) after a
    /// successful fsync covering it, waking and completing every waiter
    /// the new watermark covers. Callbacks fire after the lock drops.
    fn complete_through(&self, lsn: u64) {
        let mut due: Vec<(u64, AckCallback)> = Vec::new();
        {
            let mut g = self.lock();
            let prev = self.durable.load(Ordering::Acquire);
            if lsn <= prev {
                return;
            }
            self.durable.store(lsn, Ordering::Release);
            self.group_size.record_us(lsn - prev);
            let mut i = 0;
            while i < g.waiters.len() {
                if g.waiters[i].0 <= lsn {
                    due.push(g.waiters.swap_remove(i));
                } else {
                    i += 1;
                }
            }
        }
        // Notify after the lock drops so woken waiters can take it
        // immediately instead of piling up behind the notifier. Safe:
        // the watermark was published under the same lock the waiters'
        // predicate check holds.
        self.durable_cv.notify_all();
        for (w_lsn, cb) in due {
            cb(Ok(w_lsn));
        }
    }

    /// Poisons the log with the first failure's message (later calls
    /// keep the original), failing every pending waiter. Callbacks fire
    /// after the lock drops.
    fn poison(&self, msg: String) {
        let (msg, waiters) = {
            let mut g = self.lock();
            let msg = g.poisoned.get_or_insert(msg).clone();
            let waiters = std::mem::take(&mut g.waiters);
            self.work_cv.notify_all();
            self.durable_cv.notify_all();
            (msg, waiters)
        };
        for (_, cb) in waiters {
            cb(Err(msg.clone()));
        }
    }

    /// Asks the thread to exit once pending requests are flushed.
    pub(crate) fn shutdown(&self) {
        let mut g = self.lock();
        g.shutdown = true;
        self.work_cv.notify_all();
    }

    /// Crash-simulation hook: the thread exits without flushing pending
    /// work, so an `abort()`ed server leaves exactly what a `kill -9`
    /// would — unfsynced (hence unacknowledged) records stay that way.
    #[doc(hidden)]
    pub fn abandon(&self) {
        let mut g = self.lock();
        g.abandon = true;
        self.work_cv.notify_all();
        self.durable_cv.notify_all();
    }

    /// Test hook: the next `n` fsyncs fail with an injected I/O error,
    /// exercising the poison path without a real device failure.
    #[doc(hidden)]
    pub fn inject_fsync_failures(&self, n: u32) {
        self.lock().fail_fsyncs = n;
    }

    /// The flusher-thread body, flush on return: wait until something is
    /// requested beyond the watermark, fsync the active segment
    /// *outside* the lock, advance the watermark, look again. A group is
    /// whatever was appended while the previous fsync ran, so the device
    /// sets the cadence and no clock does. Exits on shutdown (after
    /// draining pending work), on abandon, and immediately after
    /// poisoning on its own fsync failure — a failed fsync is never
    /// retried.
    pub(crate) fn run(self: Arc<Self>) {
        loop {
            let (file, target, inject) = {
                let mut g = self.lock();
                loop {
                    if g.poisoned.is_some() || g.abandon {
                        return;
                    }
                    if g.requested > self.durable.load(Ordering::Acquire) {
                        if let Some(f) = &g.file {
                            let file = Arc::clone(f);
                            let target = g.requested;
                            let inject = g.fail_fsyncs > 0;
                            if inject {
                                g.fail_fsyncs -= 1;
                            }
                            break (file, target, inject);
                        }
                    }
                    if g.shutdown {
                        return;
                    }
                    g = self.work_cv.wait(g).unwrap_or_else(|e| e.into_inner());
                }
            };
            let t = Stopwatch::start();
            let res = if inject {
                Err(io::Error::other("injected fsync failure"))
            } else {
                file.sync_data()
            };
            match res {
                Ok(()) => {
                    self.fsync_lat.observe(&t);
                    self.complete_through(target);
                }
                Err(e) => {
                    self.poison(format!("wal fsync failed: {e}"));
                    return;
                }
            }
        }
    }
}
