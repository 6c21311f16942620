//! Test/bench support: a self-deleting temp directory, and
//! [`FaultDisk`], the file layer crash and fault tests substitute for
//! [`StdDisk`](crate::StdDisk). Public because the workspace's
//! integration tests and benches need them and the repository
//! deliberately avoids external crates.

use crate::disk::{Disk, DiskFile};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// A unique directory under the system temp dir, removed on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `<tmp>/datacron-<tag>-<pid>-<n>`.
    pub fn new(tag: &str) -> Self {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("datacron-{tag}-{}-{n}", std::process::id()));
        // lint:allow(no_panic) test-support only: integration suites
        // cannot proceed without a scratch directory.
        std::fs::create_dir_all(&path).expect("create temp dir");
        Self { path }
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A [`Disk`] operation, as [`FaultDisk`] records, fails and holds them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// [`Disk::create_dir_all`].
    CreateDir,
    /// [`Disk::open_append`].
    OpenAppend,
    /// [`Disk::create`].
    Create,
    /// [`DiskFile::write_all`]; a failing one writes half its bytes
    /// first (a short write: a torn record or snapshot).
    Write,
    /// [`DiskFile::set_len`].
    SetLen,
    /// [`DiskFile::sync_data`].
    SyncData,
    /// [`Disk::rename`].
    Rename,
    /// [`Disk::remove_file`].
    Remove,
    /// [`Disk::sync_dir`].
    SyncDir,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::CreateDir => "create directory",
            Op::OpenAppend => "open",
            Op::Create => "create",
            Op::Write => "write",
            Op::SetLen => "set_len",
            Op::SyncData => "fsync",
            Op::Rename => "rename",
            Op::Remove => "remove",
            Op::SyncDir => "directory sync",
        }
    }
}

/// A directory-entry change its directory has not been synced since.
#[derive(Debug)]
enum Entry {
    /// A file or a directory; a power cut removes a directory with
    /// everything in it.
    Created(PathBuf),
    /// `replaced` is what `to` held before, for a power cut to put back.
    Renamed {
        from: PathBuf,
        to: PathBuf,
        replaced: Option<Vec<u8>>,
    },
}

impl Entry {
    fn dir(&self) -> Option<&Path> {
        match self {
            Entry::Created(path) | Entry::Renamed { to: path, .. } => path.parent(),
        }
    }
}

#[derive(Debug, Default)]
struct State {
    /// Every op issued, in order: kind, path, success.
    history: Vec<(Op, PathBuf, bool)>,
    /// Armed failures: the op, and how many calls of it pass first.
    failures: Vec<(Op, u64)>,
    /// The history index the disk crashes at, and whether as a power cut.
    crash_at: Option<(usize, bool)>,
    crashed: bool,
    /// The op kind whose next call is to be held.
    hold: Option<Op>,
    /// A call is being held right now.
    held: bool,
    /// Length known durable of every file this disk opened or created
    /// (files it never touched count as durable whole).
    synced: HashMap<PathBuf, u64>,
    /// Entry changes not yet made durable, oldest first.
    unsynced: Vec<Entry>,
}

impl State {
    fn crash(&mut self, power_cut: bool) {
        self.crashed = true;
        if !power_cut {
            return;
        }
        // Unlinks count as durable at once — the adversarial choice for a
        // store that only deletes what a synced snapshot covers.
        while let Some(entry) = self.unsynced.pop() {
            match entry {
                Entry::Created(path) if path.is_dir() => {
                    let _ = fs::remove_dir_all(&path);
                }
                Entry::Created(path) => {
                    let _ = fs::remove_file(&path);
                    self.synced.remove(&path);
                }
                Entry::Renamed { from, to, replaced } => {
                    let _ = fs::rename(&to, &from);
                    if let Some(len) = self.synced.remove(&to) {
                        self.synced.insert(from, len);
                    }
                    if let Some(bytes) = replaced {
                        let _ = fs::write(&to, bytes);
                    }
                }
            }
        }
        for (path, len) in &self.synced {
            if let Ok(f) = OpenOptions::new().write(true).open(path) {
                let _ = f.set_len(*len);
            }
        }
    }
}

#[derive(Debug, Default)]
struct Shared {
    state: Mutex<State>,
    /// Signals hold/release/crash transitions.
    cv: Condvar,
}

impl Shared {
    /// Locks the state, absorbing poisoning from a panicked test thread.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait_held(&self) {
        let mut s = self.lock();
        while !s.held {
            s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Runs one op under the state lock, so a crash never lands halfway
    /// through one. A call armed to be held waits first. After a crash
    /// the op fails and does nothing. An op a failure or the crash is
    /// armed for fails after doing a prefix of its work — `body` is run
    /// with `torn` set for a write (half its bytes), not at all for any
    /// other op — and the crash, with its power cut, follows it.
    fn run<T>(
        &self,
        op: Op,
        path: &Path,
        body: impl FnOnce(&mut State, bool) -> io::Result<T>,
    ) -> io::Result<T> {
        let mut s = self.lock();
        if s.hold == Some(op) {
            s.hold = None;
            s.held = true;
            self.cv.notify_all();
            while s.held && !s.crashed {
                s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
            }
            s.held = false;
        }
        let index = s.history.len();
        if s.crashed {
            s.history.push((op, path.into(), false));
            return Err(io::Error::other("disk crashed"));
        }
        let crash = s
            .crash_at
            .filter(|&(at, _)| at == index)
            .map(|(_, cut)| cut);
        let mut fail = false;
        s.failures.retain_mut(|(o, pass)| {
            if *o != op {
                return true;
            }
            if *pass == 0 {
                fail = true;
                return false;
            }
            *pass -= 1;
            true
        });
        if !fail && crash.is_none() {
            let r = body(&mut s, false);
            s.history.push((op, path.into(), r.is_ok()));
            return r;
        }
        if op == Op::Write {
            let _ = body(&mut s, true);
        }
        s.history.push((op, path.into(), false));
        match crash {
            Some(power_cut) => {
                s.crash(power_cut);
                self.cv.notify_all();
                Err(io::Error::other("disk crashed"))
            }
            None => Err(io::Error::other(format!("injected {} failure", op.name()))),
        }
    }
}

/// A [`Disk`] over the real file system that fails, tears, holds and
/// crashes operations on command. Syncs are bookkept, not issued: the
/// disk remembers each file's synced length and which directory entries
/// are unsynced, and a power cut applies exactly that.
#[derive(Debug)]
pub struct FaultDisk {
    shared: Arc<Shared>,
}

#[derive(Debug)]
struct FaultFile {
    file: File,
    /// Where the file was opened (never renamed while open here).
    path: PathBuf,
    shared: Arc<Shared>,
}

impl FaultDisk {
    /// A disk with nothing armed.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            shared: Arc::default(),
        })
    }

    /// Fails the `nth` call of `op` from now on (1 = the next one): it
    /// does nothing — a write keeps half its bytes — and returns an
    /// `injected <op> failure` error (`fsync`, `directory sync`, …).
    pub fn fail(&self, op: Op, nth: u64) {
        self.shared
            .lock()
            .failures
            .push((op, nth.saturating_sub(1)));
    }

    /// Holds the next call of `op` before it runs, until
    /// [`FaultDisk::release`] — or a crash, which fails it.
    pub fn hold(&self, op: Op) {
        self.shared.lock().hold = Some(op);
    }

    /// Blocks until a call is being held.
    pub fn wait_held(&self) {
        self.shared.wait_held();
    }

    /// Lets a held call run, and disarms a hold not reached yet.
    pub fn release(&self) {
        let mut s = self.shared.lock();
        s.hold = None;
        s.held = false;
        self.shared.cv.notify_all();
    }

    /// A process crash (`kill -9`): every later op fails and writes
    /// nothing, and a held op is released with an error. Bytes already
    /// written stay, as they would in the page cache.
    pub fn crash(&self) {
        self.shared.lock().crash(false);
        self.shared.cv.notify_all();
    }

    /// A power cut: [`FaultDisk::crash`], then every file this disk
    /// wrote is cut back to its last synced length, and creations (of
    /// files and of directories) and renames in a directory not synced
    /// since are undone.
    pub fn power_cut(&self) {
        self.shared.lock().crash(true);
        self.shared.cv.notify_all();
    }

    /// Crashes the disk at the op with this [`FaultDisk::history`]
    /// index — a write there keeps half its bytes first — as a power
    /// cut when `power_cut` is set.
    pub fn crash_at(&self, index: usize, power_cut: bool) {
        self.shared.lock().crash_at = Some((index, power_cut));
    }

    /// Every op issued so far, in order: kind, path, success.
    pub fn history(&self) -> Vec<(Op, PathBuf, bool)> {
        self.shared.lock().history.clone()
    }

    fn file(&self, file: File, path: &Path) -> Arc<dyn DiskFile> {
        Arc::new(FaultFile {
            file,
            path: path.into(),
            shared: Arc::clone(&self.shared),
        })
    }
}

impl Disk for FaultDisk {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.shared.run(Op::CreateDir, dir, |s, _| {
            // Each directory made here is an entry of its parent, unsynced
            // until that parent is: outermost first, like the creations.
            let mut made: Vec<PathBuf> = dir
                .ancestors()
                .take_while(|p| !p.as_os_str().is_empty() && !p.exists())
                .map(Path::to_path_buf)
                .collect();
            fs::create_dir_all(dir)?;
            made.reverse();
            s.unsynced.extend(made.into_iter().map(Entry::Created));
            Ok(())
        })
    }

    fn open_append(&self, path: &Path) -> io::Result<Arc<dyn DiskFile>> {
        let file = self.shared.run(Op::OpenAppend, path, |s, _| {
            let existed = path.exists();
            let file = OpenOptions::new().create(true).append(true).open(path)?;
            if !existed {
                s.unsynced.push(Entry::Created(path.into()));
                s.synced.insert(path.into(), 0);
            } else if !s.synced.contains_key(path) {
                s.synced.insert(path.into(), file.metadata()?.len());
            }
            Ok(file)
        })?;
        Ok(self.file(file, path))
    }

    fn create(&self, path: &Path) -> io::Result<Arc<dyn DiskFile>> {
        let file = self.shared.run(Op::Create, path, |s, _| {
            if !path.exists() {
                s.unsynced.push(Entry::Created(path.into()));
            }
            let file = File::create(path)?;
            s.synced.insert(path.into(), 0);
            Ok(file)
        })?;
        Ok(self.file(file, path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.shared.run(Op::Rename, from, |s, _| {
            let replaced = match fs::read(to) {
                Ok(bytes) => Some(bytes),
                Err(e) if e.kind() == io::ErrorKind::NotFound => None,
                Err(e) => return Err(e),
            };
            fs::rename(from, to)?;
            s.synced.remove(to);
            if let Some(len) = s.synced.remove(from) {
                s.synced.insert(to.into(), len);
            }
            s.unsynced.push(Entry::Renamed {
                from: from.into(),
                to: to.into(),
                replaced,
            });
            Ok(())
        })
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.shared.run(Op::Remove, path, |s, _| {
            fs::remove_file(path)?;
            s.synced.remove(path);
            Ok(())
        })
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.shared.run(Op::SyncDir, dir, |s, _| {
            fs::metadata(dir)?;
            s.unsynced.retain(|e| e.dir() != Some(dir));
            Ok(())
        })
    }
}

impl DiskFile for FaultFile {
    fn write_all(&self, buf: &[u8]) -> io::Result<()> {
        self.shared.run(Op::Write, &self.path, |_, torn| {
            let n = if torn { buf.len() / 2 } else { buf.len() };
            (&self.file).write_all(&buf[..n])
        })
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.shared.run(Op::SetLen, &self.path, |s, _| {
            self.file.set_len(len)?;
            if let Some(synced) = s.synced.get_mut(&self.path) {
                *synced = (*synced).min(len);
            }
            Ok(())
        })
    }

    fn sync_data(&self) -> io::Result<()> {
        self.shared.run(Op::SyncData, &self.path, |s, _| {
            let len = self.file.metadata()?.len();
            s.synced.insert(self.path.clone(), len);
            Ok(())
        })
    }
}
