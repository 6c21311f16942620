//! Point-in-time snapshot files with atomic installation and corruption
//! fallback.
//!
//! A snapshot is the serialized query-visible state of the pipeline as of
//! a WAL position. Files are named `snap-<wal_seq:016x>.snap`, where
//! `wal_seq` is the sequence number of the first WAL record **not**
//! included — recovery loads the newest valid snapshot and replays the
//! log from exactly that seq. Format:
//!
//! ```text
//! [magic "DSNP"][version: u32 LE][wal_seq: u64 LE][len: u64 LE][crc: u32 LE][payload]
//! ```
//!
//! Installation is atomic — [`install_file`]: write to a temp file,
//! fsync it, rename into place, fsync the directory. A crash
//! mid-snapshot therefore leaves the previous snapshot intact (and a
//! `snap-*.tmp` that the next open deletes); a bit-flipped snapshot fails
//! its CRC at load and the store silently falls back to the next-newest
//! one.
//!
//! # The snapshot thread
//!
//! Writing a multi-megabyte file and fsyncing it takes tens of
//! milliseconds, so the serving path hands that step to the
//! [`SnapshotWorker`] thread and holds no lock across it. The worker
//! also keeps the ordering rule: a snapshot at position `seq` is written
//! only once `durable_lsn >= seq`, so no visible snapshot ever claims to
//! cover WAL records that a crash could still lose.

use crate::binser;
use crate::commit::GroupCommit;
use crate::crc::crc32;
use crate::disk::{install_file, Disk};
use datacron_obs::ClockSource;
use datacron_obs::LatencyHistogram;
use std::fs::{self, File};
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

const MAGIC: &[u8; 4] = b"DSNP";
const VERSION: u32 = 1;
/// Snapshots kept after a successful save (newest plus one fallback).
const KEEP: usize = 2;

/// A directory of snapshot files.
#[derive(Debug)]
pub(crate) struct SnapshotStore {
    dir: PathBuf,
    /// Every write, sync, rename and remove goes through here.
    disk: Arc<dyn Disk>,
}

fn snap_name(wal_seq: u64) -> String {
    format!("snap-{wal_seq:016x}.snap")
}

fn snap_path(dir: &Path, wal_seq: u64) -> PathBuf {
    dir.join(snap_name(wal_seq))
}

fn parse_snap_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("snap-")?.strip_suffix(".snap")?;
    u64::from_str_radix(hex, 16).ok()
}

impl SnapshotStore {
    /// Opens the existing snapshot directory and deletes the
    /// `snap-*.tmp` files a crash between write and rename left behind:
    /// nothing ever reads them, and each is as large as a snapshot. The
    /// sweep is best effort — a file that cannot be removed wastes disk
    /// but must not keep the server from starting.
    pub(crate) fn open(dir: impl Into<PathBuf>, disk: Arc<dyn Disk>) -> io::Result<Self> {
        let dir = dir.into();
        for entry in fs::read_dir(&dir)?.filter_map(|e| e.ok()) {
            let name = entry.file_name();
            let stale = name
                .to_str()
                .is_some_and(|n| n.starts_with("snap-") && n.ends_with(".tmp"));
            if stale {
                let _ = disk.remove_file(&entry.path());
            }
        }
        Ok(Self { dir, disk })
    }

    /// All snapshot positions on disk, newest first.
    pub(crate) fn list(&self) -> io::Result<Vec<u64>> {
        let mut seqs: Vec<u64> = fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| parse_snap_name(e.file_name().to_str()?))
            .collect();
        seqs.sort_unstable_by(|a, b| b.cmp(a));
        Ok(seqs)
    }

    /// Atomically installs a snapshot taken at WAL position `wal_seq`,
    /// then prunes all but the newest [`KEEP`] snapshots. `Ok` means the
    /// file *and* its directory entry are on disk, and only then may the
    /// caller retire the WAL the snapshot replaces: power loss could keep
    /// the unlinks and lose an unsynced rename. A failed directory sync
    /// therefore fails the save, and the renamed file stays — it is a
    /// valid snapshot over WAL that is all still there, and the rename
    /// may have replaced the durable copy at the same position, the only
    /// one covering WAL already retired.
    pub(crate) fn save(&self, wal_seq: u64, payload: &[u8]) -> io::Result<()> {
        let header = [
            MAGIC.as_slice(),
            &VERSION.to_le_bytes(),
            &wal_seq.to_le_bytes(),
            &(payload.len() as u64).to_le_bytes(),
            &crc32(payload).to_le_bytes(),
        ]
        .concat();
        install_file(
            &*self.disk,
            &self.dir,
            &snap_name(wal_seq),
            &[&header, payload],
        )?;
        self.prune()
    }

    fn prune(&self) -> io::Result<()> {
        for seq in self.list()?.into_iter().skip(KEEP) {
            let _ = self.disk.remove_file(&snap_path(&self.dir, seq));
        }
        Ok(())
    }

    /// Loads one snapshot, verifying magic, version, declared length, and
    /// checksum. `Err` here means "this file is unusable", not "abort".
    fn load(&self, wal_seq: u64) -> io::Result<Vec<u8>> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let mut f = File::open(snap_path(&self.dir, wal_seq))?;
        let mut header = [0u8; 4 + 4 + 8 + 8 + 4];
        f.read_exact(&mut header)
            .map_err(|e| bad(format!("short snapshot header: {e}")))?;
        if &header[0..4] != MAGIC {
            return Err(bad("bad snapshot magic".into()));
        }
        let version = u32::from_le_bytes(binser::field(&header, 4));
        if version != VERSION {
            return Err(bad(format!("unsupported snapshot version {version}")));
        }
        let stored_seq = u64::from_le_bytes(binser::field(&header, 8));
        if stored_seq != wal_seq {
            return Err(bad(format!(
                "snapshot seq mismatch: file says {stored_seq}, name says {wal_seq}"
            )));
        }
        let len = u64::from_le_bytes(binser::field(&header, 16));
        let crc = u32::from_le_bytes(binser::field(&header, 24));
        let mut payload = Vec::new();
        f.read_to_end(&mut payload)?;
        if payload.len() as u64 != len {
            return Err(bad(format!(
                "snapshot length mismatch: declared {len}, found {}",
                payload.len()
            )));
        }
        if crc32(&payload) != crc {
            return Err(bad("snapshot checksum mismatch".into()));
        }
        Ok(payload)
    }

    /// The newest snapshot that verifies, as `(wal_seq, payload)`; corrupt
    /// or torn snapshot files are skipped (never a panic), and `None`
    /// means recovery must replay the WAL from its start.
    pub(crate) fn load_latest(&self) -> io::Result<Option<(u64, Vec<u8>)>> {
        for seq in self.list()? {
            match self.load(seq) {
                Ok(payload) => return Ok(Some((seq, payload))),
                Err(_) => continue, // fall back to the next-newest
            }
        }
        Ok(None)
    }
}

/// What runs on the snapshot thread after a write: the caller's
/// *publish* step, given the write's result.
pub type PublishFn = Box<dyn FnOnce(io::Result<()>) + Send>;

struct Job {
    seq: u64,
    payload: Vec<u8>,
    publish: PublishFn,
}

/// The one-slot handoff to the snapshot thread.
#[derive(Default)]
struct Slot {
    job: Option<Job>,
    /// The thread took a job and has not finished publishing it.
    busy: bool,
    /// Exit once the slot is empty (drop path).
    stop: bool,
}

/// The *write* step of a snapshot installation, and the thread that
/// runs it off the serving path. Shared by the owning
/// [`Storage`](crate::Storage), which runs [`SnapshotWorker::write`]
/// inline for a synchronous install, and by the server, which submits
/// the serialized state and a publish callback.
pub struct SnapshotWorker {
    store: SnapshotStore,
    /// The gate: a snapshot at `seq` waits for `durable_lsn >= seq`.
    commit: Arc<GroupCommit>,
    clock: Arc<dyn ClockSource>,
    /// Time in [`SnapshotStore::save`] (file write, two fsyncs, rename).
    write_lat: Arc<LatencyHistogram>,
    slot: Mutex<Slot>,
    slot_cv: Condvar,
}

impl std::fmt::Debug for SnapshotWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotWorker")
            .field("store", &self.store)
            .finish_non_exhaustive()
    }
}

impl SnapshotWorker {
    pub(crate) fn new(
        store: SnapshotStore,
        commit: Arc<GroupCommit>,
        clock: Arc<dyn ClockSource>,
    ) -> Arc<Self> {
        Arc::new(Self {
            store,
            commit,
            clock,
            write_lat: Arc::new(LatencyHistogram::new()),
            slot: Mutex::new(Slot::default()),
            slot_cv: Condvar::new(),
        })
    }

    /// Locks the slot, absorbing poisoning: every update completes
    /// before the guard drops.
    fn slot(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Shared handle to the snapshot-write latency histogram, the form a
    /// metrics registry registers.
    pub fn write_latency_shared(&self) -> Arc<LatencyHistogram> {
        Arc::clone(&self.write_lat)
    }

    /// The newest snapshot file that verifies, as `(wal_seq, payload)`:
    /// what recovery starts from, read with no lock held.
    pub fn load_latest(&self) -> io::Result<Option<(u64, Vec<u8>)>> {
        self.store.load_latest()
    }

    /// The write step, holding no lock: waits until the WAL is durable
    /// through `seq`, then saves the snapshot. Fails without touching
    /// the directory when the WAL is poisoned first.
    pub(crate) fn write(&self, seq: u64, payload: &[u8]) -> io::Result<()> {
        self.commit.wait_durable(seq)?;
        let begin = self.clock.now_us();
        let saved = self.store.save(seq, payload);
        self.write_lat
            .record_us(self.clock.now_us().saturating_sub(begin));
        saved
    }

    /// Hands a begun snapshot (see
    /// [`Storage::begin_snapshot`](crate::Storage::begin_snapshot)) to
    /// the thread: it runs [`SnapshotWorker::write`], then `publish`
    /// with the result — which must end in
    /// [`Storage::publish_snapshot`](crate::Storage::publish_snapshot)
    /// under the storage lock. At most one snapshot is in flight, so the
    /// slot is empty here (the thread may still be finishing the
    /// previous job's publish, whose lock release admitted this one).
    pub fn submit(&self, seq: u64, payload: Vec<u8>, publish: PublishFn) {
        let mut slot = self.slot();
        debug_assert!(
            slot.job.is_none(),
            "begin_snapshot admits one snapshot at a time"
        );
        slot.job = Some(Job {
            seq,
            payload,
            publish,
        });
        self.slot_cv.notify_all();
    }

    /// Blocks until the thread holds no snapshot (written *and*
    /// published). Call without the storage lock: publishing takes it.
    pub fn wait_idle(&self) {
        let mut slot = self.slot();
        while slot.job.is_some() || slot.busy {
            slot = self.slot_cv.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Asks the thread to exit once the submitted snapshot, if any, is
    /// written and published.
    pub(crate) fn stop(&self) {
        self.slot().stop = true;
        self.slot_cv.notify_all();
    }

    /// The snapshot-thread body.
    pub(crate) fn run(self: Arc<Self>) {
        loop {
            let job = {
                let mut slot = self.slot();
                loop {
                    if let Some(job) = slot.job.take() {
                        slot.busy = true;
                        break job;
                    }
                    if slot.stop {
                        return;
                    }
                    slot = self.slot_cv.wait(slot).unwrap_or_else(|e| e.into_inner());
                }
            };
            let written = self.write(job.seq, &job.payload);
            drop(job.payload);
            (job.publish)(written);
            self.slot().busy = false;
            self.slot_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::StdDisk;
    use crate::test_util::{FaultDisk, Op, TempDir};

    fn open(dir: &TempDir) -> SnapshotStore {
        SnapshotStore::open(dir.path(), Arc::new(StdDisk)).unwrap()
    }

    #[test]
    fn save_load_round_trips() {
        let dir = TempDir::new("snap-roundtrip");
        let s = open(&dir);
        assert_eq!(s.load_latest().unwrap(), None);
        s.save(42, b"state-at-42").unwrap();
        let (seq, payload) = s.load_latest().unwrap().expect("snapshot");
        assert_eq!(seq, 42);
        assert_eq!(payload, b"state-at-42");
    }

    #[test]
    fn header_bytes_are_pinned() {
        // The on-disk format, byte for byte: magic, version 1, wal_seq 42,
        // length 8, and the CRC-32 of the payload (0x1E2AF8B7). A checksum
        // or header change fails here before it strands a file on disk.
        let dir = TempDir::new("snap-pinned");
        open(&dir).save(42, b"datacron").unwrap();
        let file = fs::read(snap_path(dir.path(), 42)).unwrap();
        let header: [u8; 28] = [
            b'D', b'S', b'N', b'P', 1, 0, 0, 0, 42, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0,
            0xB7, 0xF8, 0x2A, 0x1E,
        ];
        assert_eq!(file[..28], header);
        assert_eq!(&file[28..], b"datacron");
    }

    #[test]
    fn newest_wins_and_pruning_bounds_disk() {
        let dir = TempDir::new("snap-prune");
        let s = open(&dir);
        for seq in [10u64, 20, 30, 40] {
            s.save(seq, format!("state-{seq}").as_bytes()).unwrap();
        }
        let (seq, payload) = s.load_latest().unwrap().unwrap();
        assert_eq!(seq, 40);
        assert_eq!(payload, b"state-40");
        assert_eq!(s.list().unwrap(), vec![40, 30], "older snapshots pruned");
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous() {
        let dir = TempDir::new("snap-fallback");
        let s = open(&dir);
        s.save(10, b"good-old").unwrap();
        s.save(20, b"good-new").unwrap();
        // Flip a payload bit in the newest.
        let path = snap_path(dir.path(), 20);
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0x10;
        fs::write(&path, &bytes).unwrap();

        let (seq, payload) = s.load_latest().unwrap().expect("fallback");
        assert_eq!(seq, 10);
        assert_eq!(payload, b"good-old");
    }

    #[test]
    fn truncated_snapshot_is_skipped() {
        let dir = TempDir::new("snap-truncated");
        let s = open(&dir);
        s.save(5, b"intact").unwrap();
        s.save(9, &vec![7u8; 256]).unwrap();
        let path = snap_path(dir.path(), 9);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let (seq, _) = s.load_latest().unwrap().expect("older survives");
        assert_eq!(seq, 5);
    }

    #[test]
    fn garbage_magic_is_skipped() {
        let dir = TempDir::new("snap-magic");
        let s = open(&dir);
        fs::write(snap_path(dir.path(), 99), b"not a snapshot at all").unwrap();
        assert_eq!(s.load_latest().unwrap(), None);
        s.save(100, b"real").unwrap();
        assert_eq!(s.load_latest().unwrap().unwrap().0, 100);
    }

    #[test]
    fn open_sweeps_stale_temp_files() {
        let dir = TempDir::new("snap-stale-tmp");
        let s = open(&dir);
        s.save(7, b"installed").unwrap();
        drop(s);
        // A crash between write and rename leaves this behind.
        let stale = dir.path().join("snap-0000000000000009.tmp");
        fs::write(&stale, vec![0u8; 4096]).unwrap();
        let s = open(&dir);
        assert!(!stale.exists(), "stale temp file must be deleted");
        assert_eq!(s.list().unwrap(), vec![7]);
        assert_eq!(s.load_latest().unwrap().unwrap().1, b"installed");
    }

    #[test]
    fn failed_dir_sync_fails_the_save_and_deletes_nothing() {
        let dir = TempDir::new("snap-dirsync");
        let disk = FaultDisk::new();
        let s = SnapshotStore::open(dir.path(), disk.clone()).unwrap();
        s.save(10, b"older").unwrap();
        s.save(20, b"old").unwrap();
        disk.fail(Op::SyncDir, 1);
        assert!(s.save(30, b"new").is_err());
        // Nothing pruned, nothing taken back: the previous snapshots
        // still load, whichever way a power cut settles the rename.
        assert_eq!(s.list().unwrap(), vec![30, 20, 10]);
        assert_eq!(s.load(20).unwrap(), b"old");
        s.save(30, b"new").unwrap();
        assert_eq!(s.list().unwrap(), vec![30, 20]);
        assert_eq!(s.load_latest().unwrap().unwrap().0, 30);
    }

    #[test]
    fn failed_dir_sync_on_a_reinstall_keeps_the_snapshot_at_that_position() {
        let dir = TempDir::new("snap-dirsync-reinstall");
        let disk = FaultDisk::new();
        let s = SnapshotStore::open(dir.path(), disk.clone()).unwrap();
        s.save(20, b"state-20").unwrap();
        s.save(40, b"state-40").unwrap();
        // Shutdown re-saves at an unchanged position; the rename replaces
        // the copy that covers WAL retired long ago.
        disk.fail(Op::SyncDir, 1);
        assert!(s.save(40, b"state-40").is_err());
        assert_eq!(s.list().unwrap(), vec![40, 20]);
        assert_eq!(
            s.load_latest().unwrap(),
            Some((40, b"state-40".to_vec())),
            "the only snapshot covering records 20..40 must survive"
        );
    }
}
