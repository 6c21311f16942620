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
//! Installation is atomic: write to a temp file, fsync it, rename into
//! place, fsync the directory. A crash mid-snapshot therefore leaves the
//! previous snapshot intact (and a `snap-*.tmp` that the next open
//! deletes); a bit-flipped snapshot fails its CRC at load and the store
//! silently falls back to the next-newest one.
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
use datacron_obs::ClockSource;
use datacron_obs::LatencyHistogram;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

const MAGIC: &[u8; 4] = b"DSNP";
const VERSION: u32 = 1;
/// Snapshots kept after a successful save (newest plus one fallback).
const KEEP: usize = 2;

/// Crash-test hooks of a [`SnapshotStore`], all off by default.
#[derive(Debug, Default)]
struct Hooks {
    /// Fail this many upcoming directory syncs.
    fail_dir_syncs: u32,
    /// Hold every save between its temp-file fsync and its rename.
    park: bool,
    /// A save is being held there right now.
    parked: bool,
    /// Crash simulation: saves stop before the rename, as a `kill -9`
    /// at that point would.
    abandoned: bool,
}

/// A directory of snapshot files.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    hooks: Mutex<Hooks>,
    hooks_cv: Condvar,
}

fn snap_path(dir: &Path, wal_seq: u64) -> PathBuf {
    dir.join(format!("snap-{wal_seq:016x}.snap"))
}

fn parse_snap_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("snap-")?.strip_suffix(".snap")?;
    u64::from_str_radix(hex, 16).ok()
}

impl SnapshotStore {
    /// Opens (creating if needed) the snapshot directory and deletes the
    /// `snap-*.tmp` files a crash between write and rename left behind:
    /// nothing ever reads them, and each is as large as a snapshot. The
    /// sweep is best effort — a file that cannot be removed wastes disk
    /// but must not keep the server from starting.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        for entry in fs::read_dir(&dir)?.filter_map(|e| e.ok()) {
            let name = entry.file_name();
            let stale = name
                .to_str()
                .is_some_and(|n| n.starts_with("snap-") && n.ends_with(".tmp"));
            if stale {
                let _ = fs::remove_file(entry.path());
            }
        }
        Ok(Self {
            dir,
            hooks: Mutex::new(Hooks::default()),
            hooks_cv: Condvar::new(),
        })
    }

    /// Locks the hooks, absorbing poisoning: every update is one field
    /// store, so the state is valid at every step.
    fn hooks(&self) -> MutexGuard<'_, Hooks> {
        self.hooks.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// All snapshot positions on disk, newest first.
    pub fn list(&self) -> io::Result<Vec<u64>> {
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
    /// caller retire the WAL the snapshot replaces.
    pub fn save(&self, wal_seq: u64, payload: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join(format!("snap-{wal_seq:016x}.tmp"));
        {
            let mut f = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(&tmp)?;
            f.write_all(MAGIC)?;
            f.write_all(&VERSION.to_le_bytes())?;
            f.write_all(&wal_seq.to_le_bytes())?;
            f.write_all(&(payload.len() as u64).to_le_bytes())?;
            f.write_all(&crc32(payload).to_le_bytes())?;
            f.write_all(payload)?;
            f.sync_data()?;
        }
        self.before_rename()?;
        let path = snap_path(&self.dir, wal_seq);
        fs::rename(&tmp, &path)?;
        // fsync the directory so the rename itself is durable. Until it
        // is, the caller must not retire the WAL this snapshot replaces
        // (power loss could keep the unlinks and lose the rename), so a
        // failure here fails the save. The renamed file stays: it is a
        // valid snapshot over WAL that is all still there, and the rename
        // may have replaced the durable copy at the same position — the
        // only one covering WAL already retired.
        self.sync_dir()?;
        self.prune()?;
        Ok(())
    }

    fn sync_dir(&self) -> io::Result<()> {
        let mut hooks = self.hooks();
        if hooks.fail_dir_syncs > 0 {
            hooks.fail_dir_syncs -= 1;
            return Err(io::Error::other("injected directory sync failure"));
        }
        drop(hooks);
        File::open(&self.dir)?.sync_all()
    }

    /// The point between temp-file fsync and rename where the crash
    /// hooks act: held while `park` is set, refused once abandoned.
    fn before_rename(&self) -> io::Result<()> {
        let mut hooks = self.hooks();
        while hooks.park && !hooks.abandoned {
            hooks.parked = true;
            self.hooks_cv.notify_all();
            hooks = self.hooks_cv.wait(hooks).unwrap_or_else(|e| e.into_inner());
        }
        hooks.parked = false;
        if hooks.abandoned {
            return Err(io::Error::other("snapshot abandoned before rename"));
        }
        Ok(())
    }

    /// Test hook: the next `n` directory syncs fail with an injected
    /// I/O error.
    #[doc(hidden)]
    pub fn inject_dir_sync_failures(&self, n: u32) {
        self.hooks().fail_dir_syncs = n;
    }

    /// Test hook: while set, every save stops between its temp-file
    /// fsync and its rename; clearing it lets a held save finish.
    #[doc(hidden)]
    pub fn park_before_rename(&self, park: bool) {
        self.hooks().park = park;
        self.hooks_cv.notify_all();
    }

    /// Test hook: blocks until a save is held at the parking point.
    #[doc(hidden)]
    pub fn wait_parked(&self) {
        let mut hooks = self.hooks();
        while !hooks.parked {
            hooks = self.hooks_cv.wait(hooks).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Crash-simulation hook: a save in progress (held or not) fails
    /// before its rename, leaving its temp file as a `kill -9` would.
    #[doc(hidden)]
    pub fn abandon(&self) {
        self.hooks().abandoned = true;
        self.hooks_cv.notify_all();
    }

    fn prune(&self) -> io::Result<()> {
        for seq in self.list()?.into_iter().skip(KEEP) {
            let _ = fs::remove_file(snap_path(&self.dir, seq));
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
    pub fn load_latest(&self) -> io::Result<Option<(u64, Vec<u8>)>> {
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
    /// Exit now, publishing nothing (crash simulation).
    abandon: bool,
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

    /// The snapshot directory (and its crash-test hooks).
    pub fn directory(&self) -> &SnapshotStore {
        &self.store
    }

    /// Shared handle to the snapshot-write latency histogram, the form a
    /// metrics registry registers.
    pub fn write_latency_shared(&self) -> Arc<LatencyHistogram> {
        Arc::clone(&self.write_lat)
    }

    /// The write step, holding no lock: waits until the WAL is durable
    /// through `seq`, then saves the snapshot. Fails without touching
    /// the directory when the WAL is poisoned or abandoned first.
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
    /// slot is empty here.
    pub fn submit(&self, seq: u64, payload: Vec<u8>, publish: PublishFn) {
        let mut slot = self.slot();
        debug_assert!(
            slot.job.is_none() && !slot.busy,
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

    /// Crash-simulation hook: the thread exits without renaming or
    /// publishing anything more, so an `abort()`ed server leaves what a
    /// `kill -9` would.
    pub(crate) fn abandon(&self) {
        self.slot().abandon = true;
        self.slot_cv.notify_all();
        self.store.abandon();
    }

    /// The snapshot-thread body.
    pub(crate) fn run(self: Arc<Self>) {
        loop {
            let job = {
                let mut slot = self.slot();
                loop {
                    if slot.abandon {
                        slot.job = None;
                        self.slot_cv.notify_all();
                        return;
                    }
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
            // Abandoned meanwhile: a killed process publishes nothing.
            if !self.slot().abandon {
                (job.publish)(written);
            }
            self.slot().busy = false;
            self.slot_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::TempDir;

    #[test]
    fn save_load_round_trips() {
        let dir = TempDir::new("snap-roundtrip");
        let s = SnapshotStore::open(dir.path()).unwrap();
        assert_eq!(s.load_latest().unwrap(), None);
        s.save(42, b"state-at-42").unwrap();
        let (seq, payload) = s.load_latest().unwrap().expect("snapshot");
        assert_eq!(seq, 42);
        assert_eq!(payload, b"state-at-42");
    }

    #[test]
    fn newest_wins_and_pruning_bounds_disk() {
        let dir = TempDir::new("snap-prune");
        let s = SnapshotStore::open(dir.path()).unwrap();
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
        let s = SnapshotStore::open(dir.path()).unwrap();
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
        let s = SnapshotStore::open(dir.path()).unwrap();
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
        let s = SnapshotStore::open(dir.path()).unwrap();
        fs::write(snap_path(dir.path(), 99), b"not a snapshot at all").unwrap();
        assert_eq!(s.load_latest().unwrap(), None);
        s.save(100, b"real").unwrap();
        assert_eq!(s.load_latest().unwrap().unwrap().0, 100);
    }

    #[test]
    fn open_sweeps_stale_temp_files() {
        let dir = TempDir::new("snap-stale-tmp");
        let s = SnapshotStore::open(dir.path()).unwrap();
        s.save(7, b"installed").unwrap();
        drop(s);
        // A crash between write and rename leaves this behind.
        let stale = dir.path().join("snap-0000000000000009.tmp");
        fs::write(&stale, vec![0u8; 4096]).unwrap();
        let s = SnapshotStore::open(dir.path()).unwrap();
        assert!(!stale.exists(), "stale temp file must be deleted");
        assert_eq!(s.list().unwrap(), vec![7]);
        assert_eq!(s.load_latest().unwrap().unwrap().1, b"installed");
    }

    #[test]
    fn failed_dir_sync_fails_the_save_and_deletes_nothing() {
        let dir = TempDir::new("snap-dirsync");
        let s = SnapshotStore::open(dir.path()).unwrap();
        s.save(10, b"older").unwrap();
        s.save(20, b"old").unwrap();
        s.inject_dir_sync_failures(1);
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
        let s = SnapshotStore::open(dir.path()).unwrap();
        s.save(20, b"state-20").unwrap();
        s.save(40, b"state-40").unwrap();
        // Shutdown re-saves at an unchanged position; the rename replaces
        // the copy that covers WAL retired long ago.
        s.inject_dir_sync_failures(1);
        assert!(s.save(40, b"state-40").is_err());
        assert_eq!(s.list().unwrap(), vec![40, 20]);
        assert_eq!(
            s.load_latest().unwrap(),
            Some((40, b"state-40".to_vec())),
            "the only snapshot covering records 20..40 must survive"
        );
    }
}
