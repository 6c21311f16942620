//! datAcron reproduction: durable WAL + snapshot persistence with crash
//! recovery for the serving pipeline.
//!
//! The EDBT 2017 architecture assumes its distributed storage keeps the
//! integrated archive safe; this crate is that substrate for the
//! single-machine reproduction, in the classic WAL + checkpoint shape
//! (the same one etcd-style stores use):
//!
//! * [`wal`] — a segmented append-only log of ingest batches with
//!   CRC-checksummed records; it writes, and owns the one flusher;
//! * [`commit`] — the group-commit core: the flusher thread behind
//!   every fsync policy, a shared `durable_lsn` watermark, deferred-ack
//!   callbacks, and permanent poisoning on fsync failure;
//! * [`snapshot`] — atomic point-in-time snapshots of pipeline state,
//!   CRC-verified with fallback to older snapshots on corruption, and
//!   the snapshot thread that writes them off the serving path;
//! * [`disk`] — the file layer: every create, write, truncate, sync,
//!   rename and remove the WAL, the flusher and the snapshot store make
//!   goes through one [`Disk`], and [`disk::install_file`] is the one
//!   atomic-install rule (snapshots and the leader epoch use it);
//! * [`binser`] — the compact binary codec both use for payloads;
//! * [`crc`] — the CRC-32 implementation behind every checksum;
//! * [`Storage`] — the façade the server drives: append on ingest,
//!   checkpoint on threshold, recover on start.
//!
//! # Recovery contract
//!
//! [`Storage::open`] returns the newest **valid** snapshot (corrupt ones
//! are skipped) plus the verified WAL records after it, stopping at the
//! first torn or corrupted record — never panicking. Applying the
//! snapshot and replaying the tail reproduces the pre-crash
//! query-visible state; a snapshot also retires fully-covered WAL
//! segments, bounding disk use.
//!
//! # Faults
//!
//! Production code carries no test state. A crash or an I/O fault is
//! something the [`Disk`] does: [`test_util::FaultDisk`] fails, tears
//! or holds the n-th operation of a kind, and crashes — every later
//! operation fails and writes nothing, optionally after a power cut
//! that cuts each file back to its last synced length and drops the
//! entries of directories not synced since they were made.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod binser;
pub mod commit;
pub mod crc;
pub mod disk;
pub mod snapshot;
#[doc(hidden)]
pub mod test_util;
pub mod wal;

pub use binser::{BinError, Reader, Writer};
pub use commit::{AckCallback, GroupCommit};
pub use crc::{crc32, Crc32};
pub use disk::{Disk, StdDisk};
pub use snapshot::{PublishFn, SnapshotWorker};
pub use wal::{FsyncPolicy, WalConfig};

use snapshot::SnapshotStore;
use wal::{ReplayEnd, Wal};

use datacron_obs::{ClockSource, MonotonicClock, Registry};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Storage tuning knobs.
#[derive(Debug, Clone)]
pub struct StorageConfig {
    /// WAL segment roll threshold, bytes.
    pub segment_bytes: u64,
    /// Durability policy for WAL appends.
    pub fsync: FsyncPolicy,
    /// Take a snapshot after this many WAL records since the last one
    /// (`0` disables threshold-driven snapshotting; an explicit
    /// [`Storage::install_snapshot`] still works).
    pub snapshot_every_records: u64,
}

impl Default for StorageConfig {
    fn default() -> Self {
        Self {
            segment_bytes: 8 * 1024 * 1024,
            fsync: FsyncPolicy::Always,
            snapshot_every_records: 1024,
        }
    }
}

/// What [`Storage::open`] recovered from disk.
#[derive(Debug)]
pub struct Recovery {
    /// The newest valid snapshot, as `(wal_seq, payload)` — apply it
    /// first. `None` on a fresh directory (or when every snapshot failed
    /// verification): replay starts from the log's beginning.
    pub snapshot: Option<(u64, Vec<u8>)>,
    /// Verified WAL records after the snapshot position, in order —
    /// replay these through the pipeline.
    pub wal_tail: Vec<(u64, Vec<u8>)>,
    /// `Some(description)` when the log ended in a torn or corrupted
    /// record that was dropped (expected after a crash mid-append).
    pub truncation: Option<String>,
    /// Time spent opening the log, µs: listing the segments and reading
    /// the newest one once, which cuts a torn tail and keeps its records
    /// after the snapshot.
    pub wal_open_us: u64,
    /// Time spent clearing stale snapshot temporaries and reading and
    /// verifying the newest snapshot file, µs. Runs before the log opens.
    pub snapshot_load_us: u64,
    /// Time spent reading and verifying the sealed WAL segments' records
    /// after the snapshot, µs.
    pub wal_read_us: u64,
}

/// Point-in-time storage counters, read by the server's metrics collector.
#[derive(Debug, Clone)]
pub struct StorageStats {
    /// Total bytes across WAL segment files.
    pub wal_bytes: u64,
    /// Number of WAL segment files.
    pub segments: usize,
    /// WAL records appended since the last snapshot.
    pub records_since_snapshot: u64,
    /// Sequence number the next WAL append will get.
    pub next_seq: u64,
    /// WAL position of the newest installed snapshot.
    pub last_snapshot_seq: u64,
    /// p99 fsync latency, µs (0 before the first fsync).
    pub fsync_p99_us: u64,
    /// fsync calls issued.
    pub fsyncs: u64,
    /// Microseconds since this handle last installed a snapshot, against
    /// the injected clock. `None` until the first install (a snapshot
    /// recovered from disk predates the clock, so its age is unknown).
    pub snapshot_age_us: Option<u64>,
    /// Durability watermark: records `0..durable_lsn` are on disk.
    pub durable_lsn: u64,
    /// Group-commit fsync batches completed.
    pub commit_batches: u64,
    /// Deferred acks parked for the fsync thread (their record was not
    /// yet durable when the batch had been applied).
    pub commit_waiters: u64,
    /// A snapshot is between *begin* and *publish* right now.
    pub snapshot_in_flight: bool,
    /// Snapshot installations that failed.
    pub snapshot_failures: u64,
    /// The most recent snapshot-installation error, if the last attempt
    /// failed — or, after an install that succeeded, the failure to
    /// retire the WAL segments it covers. Cleared by the next clean
    /// install.
    pub last_snapshot_error: Option<String>,
}

/// The durable-state façade: one WAL plus one snapshot store in a data
/// directory.
#[derive(Debug)]
pub struct Storage {
    wal: Wal,
    /// The snapshot directory plus the thread that writes into it.
    snapshots: Arc<SnapshotWorker>,
    cfg: StorageConfig,
    /// WAL position of the newest *installed* (published) snapshot.
    last_snapshot_seq: u64,
    /// A snapshot has begun and not been published: the threshold does
    /// not fire again and a second begin is refused until it is.
    snapshot_in_flight: bool,
    /// The injected time source (L4 `wallclock`: library code never
    /// reads the wall clock directly).
    clock: Arc<dyn ClockSource>,
    /// Clock reading when this handle last installed a snapshot.
    last_snapshot_at_us: Option<u64>,
    /// The snapshot thread; drained and joined on drop.
    snapshot_thread: Option<std::thread::JoinHandle<()>>,
    /// Snapshot installations that failed (surfaced in stats/metrics;
    /// the old path only `eprintln!`ed at the call site).
    snapshot_failures: u64,
    /// Most recent snapshot-installation error, cleared on success.
    last_snapshot_error: Option<String>,
}

impl Storage {
    /// Opens the data directory, recovering whatever it holds: the newest
    /// valid snapshot and the verified WAL records after it. Timestamps
    /// (snapshot age) run against a fresh monotonic clock and files are
    /// plain `std::fs` ([`StdDisk`]); use [`Storage::open_with_clock`] to
    /// inject either.
    pub fn open(dir: impl AsRef<Path>, cfg: StorageConfig) -> io::Result<(Self, Recovery)> {
        Self::open_with_clock(dir, cfg, Arc::new(MonotonicClock::new()), Arc::new(StdDisk))
    }

    /// Like [`Storage::open`], with an injected [`ClockSource`] — the
    /// server shares its clock; tests inject a manual one — and an
    /// injected [`Disk`] that every file mutation and sync goes through
    /// (tests inject a [`test_util::FaultDisk`]).
    pub fn open_with_clock(
        dir: impl AsRef<Path>,
        cfg: StorageConfig,
        clock: Arc<dyn ClockSource>,
        disk: Arc<dyn Disk>,
    ) -> io::Result<(Self, Recovery)> {
        let dir: PathBuf = dir.as_ref().into();
        // A directory is an entry of its parent: until the parent is
        // synced, a power cut can drop it with everything in it.
        for sub in ["wal", "snapshots"] {
            disk.create_dir_all(&dir.join(sub))?;
        }
        let parent = dir.parent().filter(|p| !p.as_os_str().is_empty());
        for synced in [dir.as_path(), parent.unwrap_or(Path::new("."))] {
            disk.sync_dir(synced)?;
        }
        // The snapshot first: its position is where replay starts, so the
        // log's open-time read of the newest segment keeps what replay
        // needs of it.
        let load_begin = clock.now_us();
        let snaps = SnapshotStore::open(dir.join("snapshots"), Arc::clone(&disk))?;
        let snapshot = snaps.load_latest()?;
        let open_begin = clock.now_us();
        let from_seq = snapshot.as_ref().map_or(0, |(seq, _)| *seq);
        let (wal, newest) = Wal::open(
            dir.join("wal"),
            WalConfig {
                segment_bytes: cfg.segment_bytes,
                fsync: cfg.fsync,
            },
            disk,
            from_seq,
        )?;
        let read_begin = clock.now_us();
        let replay = wal.replay(newest)?;
        let read_end = clock.now_us();
        // Open-time recovery already cut a torn/corrupt newest-segment
        // tail; corruption deeper in the log surfaces from replay.
        let truncation = wal
            .truncation_note()
            .map(str::to_string)
            .or(match replay.end {
                ReplayEnd::Clean => None,
                ReplayEnd::Corrupt {
                    segment,
                    offset,
                    reason,
                } => Some(format!("{} at byte {offset}: {reason}", segment.display())),
            });
        let snapshots = SnapshotWorker::new(snaps, wal.commit_handle(), Arc::clone(&clock));
        let worker = Arc::clone(&snapshots);
        let snapshot_thread = std::thread::Builder::new()
            .name("datacron-snapshot".into())
            .spawn(move || worker.run())?;
        let storage = Self {
            last_snapshot_seq: from_seq,
            snapshot_in_flight: false,
            wal,
            snapshots,
            cfg,
            clock,
            last_snapshot_at_us: None,
            snapshot_thread: Some(snapshot_thread),
            snapshot_failures: 0,
            last_snapshot_error: None,
        };
        Ok((
            storage,
            Recovery {
                snapshot,
                wal_tail: replay.records,
                truncation,
                wal_open_us: read_begin.saturating_sub(open_begin),
                snapshot_load_us: open_begin.saturating_sub(load_begin),
                wal_read_us: read_end.saturating_sub(read_begin),
            },
        ))
    }

    /// Appends one record (an encoded ingest batch) and blocks until the
    /// fsync policy allows its ack — under [`FsyncPolicy::Always`] until
    /// the record is on disk, sharing the flush with concurrent appends.
    /// Callers who can defer the ack should use
    /// [`Storage::append_async`] instead and not block at all.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        self.wal.append(payload)
    }

    /// Appends one record without waiting for any flush. Returns the
    /// record's sequence number and the LSN its ack must wait for on the
    /// commit core — [`Storage::commit`], via `ack_when` or
    /// `wait_durable` — with the policy's slack already taken off: the
    /// record's LSN less [`FsyncPolicy::slack`], 0 when there is no wait.
    pub fn append_async(&mut self, payload: &[u8]) -> io::Result<(u64, u64)> {
        self.wal.append_async(payload)
    }

    /// The shared group-commit core: durable watermark, deferred acks,
    /// poison state.
    pub fn commit(&self) -> Arc<GroupCommit> {
        self.wal.commit_handle()
    }

    /// Flushes and fsyncs the WAL regardless of policy (shutdown path).
    pub fn sync(&mut self) -> io::Result<()> {
        self.wal.sync()
    }

    /// WAL records appended since the last installed snapshot.
    pub fn records_since_snapshot(&self) -> u64 {
        self.wal.next_seq().saturating_sub(self.last_snapshot_seq)
    }

    /// True when the snapshot threshold has been reached and no snapshot
    /// is already in flight (a crossing during one is skipped, not
    /// queued: the first append after its publish re-checks).
    pub fn should_snapshot(&self) -> bool {
        self.cfg.snapshot_every_records > 0
            && !self.snapshot_in_flight
            && self.records_since_snapshot() >= self.cfg.snapshot_every_records
    }

    /// Installs a snapshot of the *current* state (the caller must have
    /// applied every appended record before serializing it) at the
    /// current WAL position and retires the segments it made redundant:
    /// [`Storage::begin_snapshot`], [`SnapshotWorker::write`] and
    /// [`Storage::publish_snapshot`] run back to back on this thread.
    /// The synchronous form for shutdown, tests and benches; a server
    /// gives the middle step to the snapshot thread instead.
    pub fn install_snapshot(&mut self, payload: &[u8]) -> io::Result<u64> {
        let seq = self.begin_snapshot()?;
        let written = self.snapshots.write(seq, payload);
        self.publish_snapshot(seq, written)
    }

    /// Step 1 of an installation, under the storage lock: fixes the
    /// position the snapshot will cover — the caller serializes the
    /// state that has applied exactly records `0..seq` — makes sure
    /// durability through it is on its way, and marks the snapshot in
    /// flight. Refused while another one is. The flush is only
    /// *requested* here; the write step waits for it, holding no lock.
    pub fn begin_snapshot(&mut self) -> io::Result<u64> {
        if self.snapshot_in_flight {
            return Err(io::Error::other("a snapshot is already in flight"));
        }
        self.snapshot_in_flight = true;
        Ok(self.wal.request_flush())
    }

    /// Step 3, under the storage lock, with the result of the write
    /// step: on success the snapshot counts as installed and the WAL
    /// segments below `seq` are retired; on failure it is counted and
    /// the next threshold crossing retries. Either way nothing is in
    /// flight afterwards.
    pub fn publish_snapshot(&mut self, seq: u64, written: io::Result<()>) -> io::Result<u64> {
        debug_assert!(self.snapshot_in_flight, "publish without begin");
        self.snapshot_in_flight = false;
        if let Err(e) = written {
            self.note_snapshot_failure(&e);
            return Err(e);
        }
        self.last_snapshot_seq = seq;
        self.last_snapshot_at_us = Some(self.clock.now_us());
        // The snapshot is installed whatever happens to the old
        // segments: one that cannot be unlinked stays listed and the
        // next publish tries it again, so that is not a snapshot
        // failure — but the operator still gets to see why the WAL is
        // not shrinking.
        self.last_snapshot_error = self
            .wal
            .retire_through(seq)
            .err()
            .map(|e| format!("snapshot {seq} installed, WAL retire failed: {e}"));
        Ok(seq)
    }

    fn note_snapshot_failure(&mut self, e: &io::Error) {
        self.snapshot_failures += 1;
        self.last_snapshot_error = Some(e.to_string());
    }

    /// The snapshot thread's handle: submit a begun snapshot's bytes,
    /// wait for it to go idle.
    pub fn snapshots(&self) -> Arc<SnapshotWorker> {
        Arc::clone(&self.snapshots)
    }

    /// Sequence number the next WAL append will get (the leader's
    /// log head, one past the last appended record).
    pub fn next_seq(&self) -> u64 {
        self.wal.next_seq()
    }

    /// First sequence still present in the WAL; a replica wanting
    /// anything older must bootstrap from a snapshot.
    pub fn first_retained_seq(&self) -> u64 {
        self.wal.first_retained_seq()
    }

    /// Bounded verified read of *durable* WAL records with `seq >=
    /// from_seq` — the leader-side feed for replication frames, which
    /// therefore never shows a follower a record a power cut can take
    /// back: in order, below the commit watermark, at most `max_records`
    /// records or about `max_bytes` of payload (at least one record when
    /// one is due), stopping quietly at the first torn or corrupt record.
    /// A reader at the watermark gets nothing, and asks the flusher for
    /// whatever has been appended past it, so a lenient fsync policy does
    /// not strand its last records. `from_seq` below
    /// [`Storage::first_retained_seq`] starts at the first retained
    /// record; callers check and fall back to a snapshot.
    pub fn read_from(
        &mut self,
        from_seq: u64,
        max_records: usize,
        max_bytes: usize,
    ) -> io::Result<Vec<(u64, Vec<u8>)>> {
        let durable = self.wal.commit_handle().durable_lsn();
        if from_seq >= durable {
            self.wal.request_flush();
            return Ok(Vec::new());
        }
        let due = usize::try_from(durable - from_seq).unwrap_or(usize::MAX);
        self.wal
            .tail_from(from_seq, max_records.min(due), max_bytes)
    }

    /// Storage counters for the server's scrape-time collector.
    pub fn stats(&self) -> StorageStats {
        let fsync = self.wal.fsync_latency();
        let commit = self.wal.commit_handle();
        StorageStats {
            wal_bytes: self.wal.wal_bytes(),
            segments: self.wal.segment_count(),
            records_since_snapshot: self.records_since_snapshot(),
            next_seq: self.wal.next_seq(),
            last_snapshot_seq: self.last_snapshot_seq,
            fsync_p99_us: fsync.quantile_us(0.99),
            fsyncs: fsync.count(),
            snapshot_age_us: self
                .last_snapshot_at_us
                .map(|at| self.clock.now_us().saturating_sub(at)),
            durable_lsn: commit.durable_lsn(),
            commit_batches: commit.batches(),
            commit_waiters: commit.waiters_registered(),
            snapshot_in_flight: self.snapshot_in_flight,
            snapshot_failures: self.snapshot_failures,
            last_snapshot_error: self.last_snapshot_error.clone(),
        }
    }

    /// Registers this store's durability metrics into `registry`:
    /// the shared fsync latency histogram as
    /// `datacron_wal_fsync_latency_us`, the records-per-fsync-batch
    /// histogram as `datacron_wal_group_size`, the record-write time as
    /// `datacron_wal_append_latency_us` and the snapshot file write as
    /// `datacron_storage_snapshot_write_latency_us`. Point-in-time gauges
    /// (WAL bytes, segment count, durable LSN, snapshot age) need
    /// `&self` at scrape time, so the owner installs a collector for
    /// those — see the server crate.
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_histogram(
            "datacron_wal_fsync_latency_us",
            &[],
            self.wal.fsync_latency_shared(),
        );
        registry.register_histogram(
            "datacron_wal_group_size",
            &[],
            self.wal.commit_handle().group_size_shared(),
        );
        registry.register_histogram(
            "datacron_wal_append_latency_us",
            &[],
            self.wal.append_latency_shared(),
        );
        registry.register_histogram(
            "datacron_storage_snapshot_write_latency_us",
            &[],
            self.snapshots.write_latency_shared(),
        );
    }
}

impl Drop for Storage {
    fn drop(&mut self) {
        // The snapshot thread first: a submitted snapshot is still
        // written (its durability gate needs the WAL's flusher, which
        // the `wal` field joins when it drops after this body).
        if let Some(handle) = self.snapshot_thread.take() {
            self.snapshots.stop();
            // A publish callback that held the last reference drops the
            // store on the snapshot thread itself, which cannot join.
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use test_util::{FaultDisk, Op, TempDir};

    /// Opens `dir` on a fresh [`FaultDisk`] the test can arm.
    fn open_faulty(dir: &TempDir, cfg: StorageConfig) -> (Storage, Arc<FaultDisk>) {
        let disk = FaultDisk::new();
        let (st, _) = Storage::open_with_clock(
            dir.path(),
            cfg,
            Arc::new(MonotonicClock::new()),
            disk.clone(),
        )
        .unwrap();
        (st, disk)
    }

    fn cfg(snapshot_every: u64) -> StorageConfig {
        StorageConfig {
            segment_bytes: 512,
            fsync: FsyncPolicy::EveryN(4),
            snapshot_every_records: snapshot_every,
        }
    }

    #[test]
    fn fresh_directory_recovers_empty() {
        let dir = TempDir::new("storage-fresh");
        let (st, rec) = Storage::open(dir.path(), cfg(0)).unwrap();
        assert!(rec.snapshot.is_none());
        assert!(rec.wal_tail.is_empty());
        assert!(rec.truncation.is_none());
        assert_eq!(st.stats().next_seq, 0);
    }

    #[test]
    fn snapshot_plus_tail_recovery() {
        let dir = TempDir::new("storage-tail");
        {
            let (mut st, _) = Storage::open(dir.path(), cfg(0)).unwrap();
            for i in 0..10u64 {
                st.append(format!("batch-{i}").as_bytes()).unwrap();
            }
            st.install_snapshot(b"state-after-10").unwrap();
            for i in 10..13u64 {
                st.append(format!("batch-{i}").as_bytes()).unwrap();
            }
            st.sync().unwrap();
        }
        let (st, rec) = Storage::open(dir.path(), cfg(0)).unwrap();
        let (snap_seq, snap) = rec.snapshot.expect("snapshot present");
        assert_eq!(snap_seq, 10);
        assert_eq!(snap, b"state-after-10");
        let seqs: Vec<u64> = rec.wal_tail.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![10, 11, 12]);
        assert_eq!(rec.wal_tail[0].1, b"batch-10");
        assert!(rec.truncation.is_none());
        assert_eq!(st.stats().records_since_snapshot, 3);
    }

    /// The tail after a snapshot comes from the sealed segments, read by
    /// replay, and the newest one, read once by the log's open.
    #[test]
    fn recovery_tail_spans_sealed_segments_and_the_newest() {
        let dir = TempDir::new("storage-tail-segments");
        {
            let (mut st, _) = Storage::open(dir.path(), cfg(0)).unwrap();
            for _ in 0..20 {
                st.append(&[0x11; 64]).unwrap();
            }
            st.install_snapshot(b"state-after-20").unwrap();
            for i in 20..50u64 {
                st.append(format!("batch-{i:02}-{}", "x".repeat(48)).as_bytes())
                    .unwrap();
            }
            assert!(st.stats().segments > 2, "{} segments", st.stats().segments);
            st.sync().unwrap();
        }
        let (st, rec) = Storage::open(dir.path(), cfg(0)).unwrap();
        assert_eq!(rec.snapshot.map(|(seq, _)| seq), Some(20));
        let seqs: Vec<u64> = rec.wal_tail.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, (20..50).collect::<Vec<_>>());
        assert!(rec.wal_tail[29].1.starts_with(b"batch-49-"));
        assert!(rec.truncation.is_none());
        assert_eq!(st.stats().next_seq, 50);
    }

    #[test]
    fn snapshot_retires_segments() {
        let dir = TempDir::new("storage-retire");
        let (mut st, _) = Storage::open(dir.path(), cfg(0)).unwrap();
        for _ in 0..100 {
            st.append(&[0x5A; 64]).unwrap();
        }
        let before = st.stats();
        assert!(before.segments > 2, "{} segments", before.segments);
        st.install_snapshot(b"checkpoint").unwrap();
        let after = st.stats();
        assert_eq!(after.segments, 1, "snapshot must retire covered segments");
        assert!(after.wal_bytes < before.wal_bytes);
        assert_eq!(after.records_since_snapshot, 0);
    }

    #[test]
    fn threshold_triggers() {
        let dir = TempDir::new("storage-threshold");
        let (mut st, _) = Storage::open(dir.path(), cfg(5)).unwrap();
        for _ in 0..4 {
            st.append(b"r").unwrap();
            assert!(!st.should_snapshot());
        }
        st.append(b"r").unwrap();
        assert!(st.should_snapshot());
        st.install_snapshot(b"s").unwrap();
        assert!(!st.should_snapshot());
    }

    #[test]
    fn corrupt_tail_is_reported_not_fatal() {
        let dir = TempDir::new("storage-corrupt");
        {
            let (mut st, _) = Storage::open(dir.path(), cfg(0)).unwrap();
            for i in 0..5u64 {
                st.append(format!("good-{i}").as_bytes()).unwrap();
            }
        }
        // Bit-flip the last record's payload.
        let wal_dir = dir.path().join("wal");
        let seg = std::fs::read_dir(&wal_dir)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let mut bytes = std::fs::read(&seg).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0x80;
        std::fs::write(&seg, &bytes).unwrap();

        let (_, rec) = Storage::open(dir.path(), cfg(0)).unwrap();
        assert_eq!(rec.wal_tail.len(), 4, "recover to the last valid record");
        assert!(rec.truncation.is_some());
    }

    #[test]
    fn snapshot_age_tracks_injected_clock() {
        let dir = TempDir::new("storage-snap-age");
        let clock = Arc::new(datacron_obs::ManualClock::new());
        let (mut st, _) = Storage::open_with_clock(
            dir.path(),
            cfg(0),
            Arc::clone(&clock) as _,
            Arc::new(StdDisk),
        )
        .unwrap();
        assert_eq!(st.stats().snapshot_age_us, None, "no snapshot yet");
        st.append(b"r").unwrap();
        st.install_snapshot(b"s").unwrap();
        assert_eq!(st.stats().snapshot_age_us, Some(0));
        clock.advance_us(2_500);
        assert_eq!(st.stats().snapshot_age_us, Some(2_500));
        // A snapshot recovered from disk has unknown age.
        drop(st);
        let (st, _) = Storage::open(dir.path(), cfg(0)).unwrap();
        assert_eq!(st.stats().snapshot_age_us, None);
    }

    #[test]
    fn read_from_is_bounded_and_ordered() {
        let dir = TempDir::new("storage-readfrom");
        let (mut st, _) = Storage::open(dir.path(), cfg(0)).unwrap();
        for i in 0..20u64 {
            st.append(format!("frame-{i}").as_bytes()).unwrap();
        }
        assert_eq!(st.next_seq(), 20);
        assert_eq!(st.first_retained_seq(), 0);

        // Record bound.
        let got = st.read_from(5, 4, usize::MAX).unwrap();
        let seqs: Vec<u64> = got.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![5, 6, 7, 8]);
        assert_eq!(got[0].1, b"frame-5");

        // Byte bound: each payload is ~8 bytes, so 20 bytes stops
        // after the record that crosses it.
        let got = st.read_from(0, usize::MAX, 20).unwrap();
        assert!(got.len() >= 2 && got.len() < 20, "{} records", got.len());

        // At least one record is served even under a tiny byte cap.
        let got = st.read_from(3, usize::MAX, 1).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 3);

        // Reading past the head is empty, not an error.
        assert!(st.read_from(20, 100, usize::MAX).unwrap().is_empty());
    }

    #[test]
    fn read_from_spans_segments_and_snapshot_raises_floor() {
        let dir = TempDir::new("storage-readfrom-seg");
        let (mut st, _) = Storage::open(dir.path(), cfg(0)).unwrap();
        for _ in 0..100 {
            st.append(&[0x5A; 64]).unwrap();
        }
        assert!(st.stats().segments > 2);
        let got = st.read_from(10, 50, usize::MAX).unwrap();
        assert_eq!(got.len(), 50);
        assert_eq!(got.first().map(|r| r.0), Some(10));
        assert_eq!(got.last().map(|r| r.0), Some(59));

        // A snapshot retires covered segments, raising the floor (only
        // the active segment survives); a tailer parked below the new
        // floor must re-bootstrap from the snapshot.
        let floor_before = st.first_retained_seq();
        st.install_snapshot(b"checkpoint").unwrap();
        assert!(st.first_retained_seq() > floor_before);
        assert_eq!(st.stats().segments, 1);
        assert!(st.read_from(100, 10, usize::MAX).unwrap().is_empty());
        st.append(b"after-snap").unwrap();
        st.sync().unwrap();
        let got = st.read_from(100, 10, usize::MAX).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 100);
        assert_eq!(got[0].1, b"after-snap");
    }

    #[test]
    fn read_from_stops_at_the_durable_watermark() {
        // `every=4`: four blocking appends end in one flush through 4.
        let dir = TempDir::new("storage-readfrom-durable");
        let (mut st, disk) = open_faulty(&dir, cfg(0));
        for i in 0..4u64 {
            st.append(format!("synced-{i}").as_bytes()).unwrap();
        }
        assert_eq!(st.commit().durable_lsn(), 4);
        // Three more inside the slack, with the next flush held: they are
        // in the file, and a power cut could still take them.
        disk.hold(Op::SyncData);
        for i in 4..7u64 {
            st.append_async(format!("unsynced-{i}").as_bytes()).unwrap();
        }
        let seqs = |got: Vec<(u64, Vec<u8>)>| got.into_iter().map(|r| r.0).collect::<Vec<_>>();
        assert_eq!(
            seqs(st.read_from(0, 100, usize::MAX).unwrap()),
            [0, 1, 2, 3]
        );
        // A read at the watermark asks for the flush the slack withheld.
        assert!(st.read_from(4, 100, usize::MAX).unwrap().is_empty());
        let (tx, rx) = std::sync::mpsc::channel();
        let flushing = disk.clone();
        std::thread::spawn(move || {
            flushing.wait_held();
            tx.send(())
        });
        let asked = rx.recv_timeout(std::time::Duration::from_secs(10));
        assert!(
            asked.is_ok(),
            "the read at the watermark asked for no flush"
        );
        assert!(st.read_from(4, 100, usize::MAX).unwrap().is_empty());
        assert_eq!(st.commit().durable_lsn(), 4);
        disk.release();
        st.commit().wait_durable(7).unwrap();
        let got = st.read_from(4, 100, usize::MAX).unwrap();
        assert_eq!(seqs(got.clone()), [4, 5, 6]);
        assert_eq!(got[0].1, b"unsynced-4");
    }

    fn always_cfg() -> StorageConfig {
        StorageConfig {
            segment_bytes: 8 * 1024 * 1024,
            fsync: FsyncPolicy::Always,
            snapshot_every_records: 0,
        }
    }

    #[test]
    fn group_commit_blocking_append_is_durable() {
        let dir = TempDir::new("storage-group-append");
        let (mut st, _) = Storage::open(dir.path(), always_cfg()).unwrap();
        for i in 0..10u64 {
            assert_eq!(st.append(format!("r{i}").as_bytes()).unwrap(), i);
            assert!(
                st.commit().durable_lsn() > i,
                "blocking append must not return before its record is durable"
            );
        }
        let stats = st.stats();
        assert_eq!(stats.durable_lsn, 10);
        assert!(stats.commit_batches >= 1);
        assert!(stats.fsyncs >= 1);
    }

    #[test]
    fn serial_appends_flush_once_each_with_no_pacing() {
        let dir = TempDir::new("storage-group-serial");
        let (mut st, _) = Storage::open(dir.path(), always_cfg()).unwrap();
        const N: u64 = 50;
        for i in 0..N {
            assert_eq!(st.append(b"serial").unwrap(), i);
        }
        // A lone writer's group is its one record: a flush starts the
        // moment the record is requested and the writer waits for it.
        assert_eq!(st.stats().durable_lsn, N);
        assert_eq!(st.stats().commit_batches, N);
        // The cadence is the device's: nothing in the commit core may
        // sleep against a clock.
        let src = include_str!("commit.rs");
        for banned in ["wait_timeout", "COMMIT_WINDOW", "Duration"] {
            assert!(!src.contains(banned), "commit.rs mentions {banned}");
        }
    }

    #[test]
    fn deferred_acks_fire_on_watermark() {
        let dir = TempDir::new("storage-group-acks");
        let (mut st, _) = Storage::open(dir.path(), always_cfg()).unwrap();
        let commit = st.commit();
        let (tx, rx) = std::sync::mpsc::channel();
        let mut expected = Vec::new();
        for i in 0..8u64 {
            let (seq, ack_lsn) = st.append_async(format!("r{i}").as_bytes()).unwrap();
            assert_eq!((seq, ack_lsn), (i, i + 1));
            let tx = tx.clone();
            commit.ack_when(
                ack_lsn,
                Box::new(move |r| {
                    let _ = tx.send(r);
                }),
            );
            expected.push(seq + 1);
        }
        let mut got: Vec<u64> = (0..8)
            .map(|_| {
                rx.recv_timeout(std::time::Duration::from_secs(10))
                    .expect("ack within 10s")
                    .expect("durable, not poisoned")
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, expected);
        assert!(commit.durable_lsn() >= 8);
        assert_eq!(commit.pending_waiters(), 0);
        assert_eq!(st.stats().commit_waiters, 8);
    }

    #[test]
    fn thread_fsync_failure_poisons_storage() {
        let dir = TempDir::new("storage-group-poison");
        let (mut st, disk) = open_faulty(&dir, always_cfg());
        st.append(b"fine").unwrap();
        disk.fail(Op::SyncData, 1);
        let err = st
            .append(b"doomed")
            .expect_err("fsync failure must surface");
        assert!(err.to_string().contains("injected fsync failure"), "{err}");
        // Poison is permanent: later appends fail with the original
        // error without touching the device again.
        let fsyncs = st.stats().fsyncs;
        for _ in 0..3 {
            assert!(st.append(b"after").is_err());
        }
        assert!(st.sync().is_err());
        assert_eq!(st.stats().fsyncs, fsyncs, "no fsync retried after poison");
        // Dropping joins the (already exited) fsync thread cleanly.
        drop(st);
    }

    #[test]
    fn snapshot_failure_is_counted_and_reported() {
        let dir = TempDir::new("storage-snap-fail");
        let (mut st, _) = Storage::open(dir.path(), cfg(0)).unwrap();
        st.append(b"r").unwrap();
        // Sabotage the snapshot directory: replace it with a plain file
        // so the tempfile write inside save() fails.
        let snap_dir = dir.path().join("snapshots");
        std::fs::remove_dir_all(&snap_dir).unwrap();
        std::fs::write(&snap_dir, b"not a directory").unwrap();
        assert!(st.install_snapshot(b"state").is_err());
        let stats = st.stats();
        assert_eq!(stats.snapshot_failures, 1);
        assert!(stats.last_snapshot_error.is_some());
        // A later success clears the sticky error but not the counter.
        std::fs::remove_file(&snap_dir).unwrap();
        std::fs::create_dir_all(&snap_dir).unwrap();
        st.install_snapshot(b"state").unwrap();
        let stats = st.stats();
        assert_eq!(stats.snapshot_failures, 1);
        assert!(stats.last_snapshot_error.is_none());
    }

    /// Snapshot positions on disk, newest first.
    fn snap_seqs(dir: &Path) -> Vec<u64> {
        let mut seqs: Vec<u64> = std::fs::read_dir(dir.join("snapshots"))
            .unwrap()
            .filter_map(|e| {
                let name = e.unwrap().file_name().into_string().unwrap();
                let hex = name.strip_prefix("snap-")?.strip_suffix(".snap")?;
                u64::from_str_radix(hex, 16).ok()
            })
            .collect();
        seqs.sort_unstable_by(|a, b| b.cmp(a));
        seqs
    }

    fn snap_files(dir: &std::path::Path, ext: &str) -> usize {
        std::fs::read_dir(dir.join("snapshots"))
            .unwrap()
            .filter(|e| {
                let name = e.as_ref().unwrap().file_name();
                name.to_str().unwrap().ends_with(ext)
            })
            .count()
    }

    /// Shares a store the way the server does and submits one snapshot
    /// to the thread, publishing through the shared handle.
    fn submit(st: &Arc<Mutex<Storage>>, seq: u64, payload: &[u8]) {
        let weak = Arc::downgrade(st);
        let worker = st.lock().unwrap().snapshots();
        worker.submit(
            seq,
            payload.to_vec(),
            Box::new(move |written| {
                if let Some(st) = weak.upgrade() {
                    let _ = st.lock().unwrap().publish_snapshot(seq, written);
                }
            }),
        );
    }

    #[test]
    fn failed_dir_sync_fails_the_save_before_anything_retires() {
        let dir = TempDir::new("storage-dirsync");
        let (mut st, disk) = open_faulty(&dir, cfg(0));
        for _ in 0..40 {
            st.append(&[0x5A; 64]).unwrap();
        }
        st.install_snapshot(b"first").unwrap();
        for _ in 0..40 {
            st.append(&[0x5A; 64]).unwrap();
        }
        let before = st.stats();
        assert!(before.segments > 2, "{} segments", before.segments);

        disk.fail(Op::SyncDir, 1);
        let err = st.install_snapshot(b"second").expect_err("dir sync failed");
        assert!(err.to_string().contains("directory sync"), "{err}");
        let after = st.stats();
        assert_eq!(after.last_snapshot_seq, before.last_snapshot_seq);
        assert_eq!(after.segments, before.segments, "nothing retired");
        assert_eq!(after.snapshot_failures, 1);
        assert!(!after.snapshot_in_flight);
        let listed = snap_seqs(dir.path());
        assert!(listed.contains(&40), "previous snapshot kept: {listed:?}");

        // The next attempt goes through and retires what it covers.
        st.install_snapshot(b"second").unwrap();
        assert_eq!(st.stats().last_snapshot_seq, 80);
        assert_eq!(st.stats().segments, 1);
    }

    #[test]
    fn failed_dir_sync_on_a_reinstall_loses_no_records() {
        // What a clean shutdown does right after a threshold snapshot:
        // install again at an unchanged position. The WAL below it is
        // long retired, so the snapshot already there must survive a
        // failed directory sync.
        let dir = TempDir::new("storage-dirsync-reinstall");
        {
            let (mut st, disk) = open_faulty(&dir, cfg(0));
            for _ in 0..20 {
                st.append(&[0x5A; 64]).unwrap();
            }
            st.install_snapshot(b"state-at-20").unwrap();
            for _ in 0..20 {
                st.append(&[0x5A; 64]).unwrap();
            }
            st.install_snapshot(b"state-at-40").unwrap();
            let first_retained = st.first_retained_seq();
            assert!(first_retained > 20, "records 20.. partly retired");

            disk.fail(Op::SyncDir, 1);
            assert!(st.install_snapshot(b"state-at-40").is_err());
            assert_eq!(st.stats().last_snapshot_seq, 40);
            assert_eq!(st.stats().snapshot_failures, 1);
            assert_eq!(snap_seqs(dir.path()), vec![40, 20]);
        }
        let (_, rec) = Storage::open(dir.path(), cfg(0)).unwrap();
        assert_eq!(rec.snapshot, Some((40, b"state-at-40".to_vec())));
        assert!(rec.wal_tail.is_empty());
    }

    #[test]
    fn retire_failure_after_install_is_reported_but_not_a_snapshot_failure() {
        let dir = TempDir::new("storage-retire-fail");
        let (mut st, _) = Storage::open(dir.path(), cfg(0)).unwrap();
        for _ in 0..40 {
            st.append(&[0x5A; 64]).unwrap();
        }
        let segments = st.stats().segments;
        assert!(segments > 2, "{segments} segments");
        // The oldest segment becomes something `remove_file` refuses.
        let oldest = std::fs::read_dir(dir.path().join("wal"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .min()
            .unwrap();
        std::fs::remove_file(&oldest).unwrap();
        std::fs::create_dir(&oldest).unwrap();

        assert_eq!(st.install_snapshot(b"state").unwrap(), 40);
        let stats = st.stats();
        assert_eq!(stats.last_snapshot_seq, 40, "installed all the same");
        assert_eq!(stats.snapshot_failures, 0);
        assert_eq!(stats.segments, segments, "nothing could be retired");
        let err = stats.last_snapshot_error.expect("operator signal");
        assert!(err.contains("WAL retire failed"), "{err}");

        // Once the obstacle is gone the next publish retires everything
        // and clears the note.
        std::fs::remove_dir(&oldest).unwrap();
        st.install_snapshot(b"state").unwrap();
        assert_eq!(st.stats().segments, 1);
        assert!(st.stats().last_snapshot_error.is_none());
    }

    #[test]
    fn threshold_is_skipped_while_a_snapshot_is_in_flight() {
        let dir = TempDir::new("storage-inflight");
        let (mut st, _) = Storage::open(dir.path(), cfg(5)).unwrap();
        for _ in 0..5 {
            st.append(b"r").unwrap();
        }
        assert!(st.should_snapshot());
        let seq = st.begin_snapshot().unwrap();
        assert_eq!(seq, 5);
        assert!(st.stats().snapshot_in_flight);
        // Crossings during the flight are skipped, not queued, and a
        // second begin is refused.
        for _ in 0..7 {
            st.append(b"r").unwrap();
            assert!(!st.should_snapshot());
        }
        assert!(st.begin_snapshot().is_err());
        assert_eq!(st.stats().last_snapshot_seq, 0, "not installed yet");
        assert_eq!(st.stats().records_since_snapshot, 12);

        let written = st.snapshots().write(seq, b"state-at-5");
        st.publish_snapshot(seq, written).unwrap();
        let stats = st.stats();
        assert!(!stats.snapshot_in_flight);
        assert_eq!(stats.last_snapshot_seq, 5);
        assert_eq!(stats.records_since_snapshot, 7);
        // Seven records since position 5: the check after publish fires.
        assert!(st.should_snapshot());
    }

    #[test]
    fn snapshot_thread_writes_and_publishes_then_drains_on_drop() {
        let dir = TempDir::new("storage-snap-thread");
        let (st, disk) = open_faulty(&dir, always_cfg());
        let st = Arc::new(Mutex::new(st));
        let worker = st.lock().unwrap().snapshots();
        for _ in 0..3 {
            st.lock().unwrap().append(b"r").unwrap();
        }
        let seq = st.lock().unwrap().begin_snapshot().unwrap();
        submit(&st, seq, b"state-at-3");
        worker.wait_idle();
        let stats = st.lock().unwrap().stats();
        assert_eq!(stats.last_snapshot_seq, 3);
        assert!(!stats.snapshot_in_flight);
        assert_eq!(worker.write_latency_shared().count(), 1);

        // A snapshot still on the thread when the store drops is written
        // (drop drains the slot), though nobody is left to publish it.
        st.lock().unwrap().append(b"r").unwrap();
        let seq = st.lock().unwrap().begin_snapshot().unwrap();
        disk.hold(Op::Rename);
        submit(&st, seq, b"state-at-4");
        disk.wait_held();
        assert_eq!(snap_files(dir.path(), ".tmp"), 1);
        disk.release();
        drop(worker);
        drop(
            Arc::try_unwrap(st)
                .expect("sole owner")
                .into_inner()
                .unwrap(),
        );
        let (_, rec) = Storage::open(dir.path(), always_cfg()).unwrap();
        assert_eq!(rec.snapshot, Some((4, b"state-at-4".to_vec())));
        assert!(rec.wal_tail.is_empty());
    }

    #[test]
    fn snapshot_never_becomes_visible_ahead_of_the_wal() {
        let dir = TempDir::new("storage-snap-gate");
        let (st, disk) = open_faulty(&dir, always_cfg());
        let st = Arc::new(Mutex::new(st));
        let worker = st.lock().unwrap().snapshots();
        st.lock().unwrap().append(b"durable").unwrap();
        // The next fsync fails: the record below stays ahead of the
        // watermark for good, and so does any snapshot covering it.
        let (seq, ack_lsn) = {
            let mut g = st.lock().unwrap();
            disk.fail(Op::SyncData, 1);
            g.append_async(b"never durable").unwrap()
        };
        assert_eq!(ack_lsn, seq + 1);
        let begun = st.lock().unwrap().begin_snapshot().unwrap();
        assert_eq!(begun, ack_lsn);
        submit(&st, begun, b"state-at-2");
        worker.wait_idle();

        let g = st.lock().unwrap();
        assert!(g.commit().durable_lsn() < begun);
        assert_eq!(snap_files(dir.path(), ".snap"), 0, "nothing renamed");
        assert_eq!(snap_files(dir.path(), ".tmp"), 0, "nothing written");
        let stats = g.stats();
        assert!(!stats.snapshot_in_flight);
        assert_eq!(stats.snapshot_failures, 1);
        assert_eq!(stats.last_snapshot_seq, 0);
        let err = stats.last_snapshot_error.expect("sticky error");
        assert!(err.contains("injected fsync failure"), "{err}");
    }

    #[test]
    fn crash_mid_snapshot_leaves_previous_snapshot_and_full_tail() {
        let dir = TempDir::new("storage-snap-crash");
        {
            let (mut st, disk) = open_faulty(&dir, always_cfg());
            for i in 0..4u64 {
                st.append(format!("r{i}").as_bytes()).unwrap();
            }
            st.install_snapshot(b"state-at-4").unwrap();
            for i in 4..9u64 {
                st.append(format!("r{i}").as_bytes()).unwrap();
            }
            let segments = st.stats().segments;
            let st = Arc::new(Mutex::new(st));
            let worker = st.lock().unwrap().snapshots();
            disk.hold(Op::Rename);
            let seq = st.lock().unwrap().begin_snapshot().unwrap();
            submit(&st, seq, b"state-at-9");
            disk.wait_held();
            // The crash: between begin and publish, temp file on disk.
            disk.crash();
            worker.wait_idle();
            let stats = st.lock().unwrap().stats();
            assert_eq!(stats.last_snapshot_seq, 4, "never published");
            assert_eq!(stats.segments, segments, "no segment retired");
            assert_eq!(snap_files(dir.path(), ".tmp"), 1);
        }
        let (_, rec) = Storage::open(dir.path(), always_cfg()).unwrap();
        assert_eq!(rec.snapshot, Some((4, b"state-at-4".to_vec())));
        let tail: Vec<u64> = rec.wal_tail.iter().map(|(s, _)| *s).collect();
        assert_eq!(tail, vec![4, 5, 6, 7, 8]);
        assert_eq!(snap_files(dir.path(), ".tmp"), 0, "open swept the temp");
    }

    #[test]
    fn fsync_policy_parse() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(
            FsyncPolicy::parse("every=16"),
            Some(FsyncPolicy::EveryN(16))
        );
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
    }
}
