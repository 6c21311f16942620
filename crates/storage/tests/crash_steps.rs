//! Crash at every step: one blocking writer appends across segment
//! rolls with a synchronous snapshot every few records, on a
//! [`FaultDisk`] that crashes at file operation `k` — for every `k` the
//! run issues, as a process crash and as a power cut, under `always` and
//! `every=4`. Each crashed directory is reopened with the `std` disk and
//! must hold a snapshot plus a contiguous prefix of the log, every
//! acknowledged record (less at most the policy's slack after a power
//! cut), a WAL that issued no `sync_data` after its first failed one,
//! and no panic anywhere. No randomness, no sleeps: the writer waits
//! for every flush it needs, so the op sequence is the same every run.
//! One more schedule opens a data directory that does not exist yet: the
//! directory is an entry of its parent, which a power cut drops unless
//! the parent was synced after it was made.

use datacron_obs::MonotonicClock;
use datacron_storage::test_util::{FaultDisk, Op, TempDir};
use datacron_storage::{FsyncPolicy, Storage, StorageConfig};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Once};

const RECORDS: u64 = 24;
const SNAPSHOT_EVERY: u64 = 7;

static PANICS: AtomicUsize = AtomicUsize::new(0);

/// Counts panics on every thread, the storage threads included.
fn count_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            PANICS.fetch_add(1, Ordering::SeqCst);
            default(info);
        }));
    });
}

fn cfg(fsync: FsyncPolicy) -> StorageConfig {
    StorageConfig {
        // ~6 records a segment: 24 records roll at least twice.
        segment_bytes: 160,
        fsync,
        snapshot_every_records: 0,
    }
}

fn record(seq: u64) -> Vec<u8> {
    format!("record-{seq:04}").into_bytes()
}

fn state(seq: u64) -> Vec<u8> {
    format!("state-through-{seq:04}").into_bytes()
}

/// Runs the writer on `disk` until its first error; returns how many
/// records were acknowledged (appends that returned `Ok`, in order).
fn drive(dir: &Path, fsync: FsyncPolicy, disk: &Arc<FaultDisk>) -> u64 {
    let clock = Arc::new(MonotonicClock::new());
    let Ok((mut st, _)) = Storage::open_with_clock(dir, cfg(fsync), clock, disk.clone()) else {
        return 0;
    };
    let mut acked = 0;
    for seq in 0..RECORDS {
        match st.append(&record(seq)) {
            Ok(got) => assert_eq!(got, seq),
            Err(_) => break,
        }
        acked = seq + 1;
        if acked % SNAPSHOT_EVERY == 0 {
            // A failed snapshot is not fatal: the WAL still has it all.
            let _ = st.install_snapshot(&state(acked));
        }
    }
    acked
}

/// Reopens `dir` on the std disk and checks what survived.
fn check(dir: &Path, acked: u64, allowed_loss: u64, what: &str) {
    let (_, rec) = Storage::open(dir, cfg(FsyncPolicy::Always)).expect("reopen");
    let base = match &rec.snapshot {
        Some((seq, payload)) => {
            assert_eq!(payload, &state(*seq), "{what}: snapshot {seq} content");
            *seq
        }
        None => 0,
    };
    for (i, (seq, payload)) in rec.wal_tail.iter().enumerate() {
        assert_eq!(*seq, base + i as u64, "{what}: tail not contiguous");
        assert_eq!(payload, &record(*seq), "{what}: record {seq} content");
    }
    let end = base + rec.wal_tail.len() as u64;
    assert!(end <= RECORDS, "{what}: recovered {end} records");
    let lost = acked.saturating_sub(end);
    assert!(
        lost <= allowed_loss,
        "{what}: {lost} acknowledged records lost (acked {acked}, recovered through {end})"
    );
}

/// Poison once: the segments' `sync_data` fails at most once, and none
/// is issued after the failure.
fn check_poison_once(disk: &FaultDisk, what: &str) {
    let segment_syncs: Vec<bool> = disk
        .history()
        .into_iter()
        .filter(|(op, path, _)| {
            *op == Op::SyncData && path.parent().is_some_and(|p| p.ends_with("wal"))
        })
        .map(|(_, _, ok)| ok)
        .collect();
    if let Some(first) = segment_syncs.iter().position(|ok| !ok) {
        assert_eq!(
            first + 1,
            segment_syncs.len(),
            "{what}: segment sync issued after a failed one: {segment_syncs:?}"
        );
    }
}

/// Runs the schedule with the data directory at `data` below a fresh
/// temp directory (`""` for the temp directory itself).
fn crash_at_every_step(tag: &str, data: &str, fsync: FsyncPolicy) {
    count_panics();
    // A clean run: how many ops a whole run issues, and what it covers.
    let clean = FaultDisk::new();
    let dir = TempDir::new(tag);
    let path = dir.path().join(data);
    assert_eq!(drive(&path, fsync, &clean), RECORDS);
    let ops = clean.history();
    let count = |op| ops.iter().filter(|(o, _, _)| *o == op).count();
    assert!(count(Op::OpenAppend) >= 3, "at least two segment rolls");
    assert!(count(Op::Rename) >= 3, "three snapshots");
    check(&path, RECORDS, 0, "clean run");

    for (k, (op, _, _)) in ops.iter().enumerate() {
        for power_cut in [false, true] {
            let what = format!(
                "{fsync:?}, {} at op {k} ({op:?})",
                if power_cut { "power cut" } else { "crash" },
            );
            let dir = TempDir::new(tag);
            let path = dir.path().join(data);
            let disk = FaultDisk::new();
            disk.crash_at(k, power_cut);
            let acked = drive(&path, fsync, &disk);
            check_poison_once(&disk, &what);
            let allowed = if power_cut { fsync.slack() } else { 0 };
            check(&path, acked, allowed, &what);
        }
    }
    assert_eq!(PANICS.load(Ordering::SeqCst), 0, "a thread panicked");
}

#[test]
fn crash_at_every_step_under_always() {
    crash_at_every_step("steps-always", "", FsyncPolicy::Always);
}

#[test]
fn crash_at_every_step_under_every_4() {
    crash_at_every_step("steps-every4", "", FsyncPolicy::EveryN(4));
}

#[test]
fn crash_at_every_step_in_a_new_data_dir() {
    crash_at_every_step("steps-new-dir", "data", FsyncPolicy::Always);
}
