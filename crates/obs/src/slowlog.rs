//! The slow-query log: a fixed-capacity record of the N slowest requests
//! with their span breakdowns.
//!
//! Unlike a "last N requests" ring, this keeps the N *slowest* seen so
//! far: a new entry evicts the current minimum once the log is full. A
//! lock-free floor check keeps the fast path cheap — requests faster
//! than the slowest-kept minimum skip the lock entirely once the log
//! has filled.

use crate::trace::Span;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// One slow-request record.
#[derive(Debug, Clone)]
pub struct SlowLogEntry {
    /// Request type tag (e.g. `"sparql"`).
    pub tag: &'static str,
    /// End-to-end request latency, µs.
    pub total_us: u64,
    /// Span breakdown from the request's trace.
    pub spans: Vec<Span>,
    /// Admission order: the n-th request offered to the log (over *all*
    /// requests, not just kept ones), so readers can tell old entries
    /// from recent ones.
    pub seq: u64,
    /// Free-form detail (query text, batch size, …). May be empty.
    pub detail: String,
}

#[derive(Debug, Default)]
struct LogInner {
    entries: Vec<SlowLogEntry>,
    seq: u64,
}

/// The fixed-capacity slowest-N log.
#[derive(Debug)]
pub struct SlowLog {
    capacity: usize,
    /// Once full: the smallest `total_us` still kept. Requests at or
    /// below it cannot enter the log and skip the lock.
    floor_us: AtomicU64,
    inner: Mutex<LogInner>,
}

impl SlowLog {
    /// A log keeping the `capacity` slowest requests (min capacity 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            floor_us: AtomicU64::new(0),
            inner: Mutex::new(LogInner::default()),
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The current admission floor, µs (0 until the log fills).
    pub fn threshold_us(&self) -> u64 {
        self.floor_us.load(Ordering::Relaxed)
    }

    /// Offers one finished request. Kept only when it is slower than the
    /// current minimum (or the log is not yet full). `detail` is called
    /// only for a request that beats the floor, so the fast path formats
    /// nothing.
    pub fn record(
        &self,
        tag: &'static str,
        total_us: u64,
        spans: Vec<Span>,
        detail: impl FnOnce() -> String,
    ) {
        let floor = self.floor_us.load(Ordering::Relaxed);
        if floor > 0 && total_us <= floor {
            // Sequence numbers only matter for kept entries; fast-path
            // rejects are not worth a lock to number precisely.
            return;
        }
        let detail = detail();
        let mut inner = self.inner.lock();
        inner.seq += 1;
        let entry = SlowLogEntry {
            tag,
            total_us,
            spans,
            seq: inner.seq,
            detail,
        };
        if inner.entries.len() < self.capacity {
            inner.entries.push(entry);
        } else {
            // Replace the current minimum; the floor re-check under the
            // lock closes the race with a concurrent eviction.
            let min_idx = inner
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.total_us)
                .map(|(i, _)| i);
            let Some(i) = min_idx else { return };
            if inner.entries[i].total_us >= total_us {
                return;
            }
            inner.entries[i] = entry;
        }
        if inner.entries.len() == self.capacity {
            let floor = inner.entries.iter().map(|e| e.total_us).min().unwrap_or(0);
            self.floor_us.store(floor, Ordering::Relaxed);
        }
    }

    /// Number of entries currently kept.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// True when nothing has been kept yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The kept entries, slowest first, truncated to `limit`.
    pub fn snapshot(&self, limit: usize) -> Vec<SlowLogEntry> {
        let mut entries = self.inner.lock().entries.clone();
        entries.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.seq.cmp(&b.seq)));
        entries.truncate(limit);
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spanless(log: &SlowLog, tag: &'static str, total_us: u64) {
        log.record(tag, total_us, Vec::new(), String::new);
    }

    #[test]
    fn keeps_the_slowest_n() {
        let log = SlowLog::new(3);
        for us in [10, 50, 20, 90, 5, 60] {
            spanless(&log, "sparql", us);
        }
        let snap = log.snapshot(10);
        let kept: Vec<u64> = snap.iter().map(|e| e.total_us).collect();
        assert_eq!(kept, vec![90, 60, 50]);
        assert_eq!(log.threshold_us(), 50);
    }

    #[test]
    fn fast_requests_skip_once_full() {
        let log = SlowLog::new(2);
        spanless(&log, "a", 100);
        spanless(&log, "a", 200);
        assert_eq!(log.threshold_us(), 100);
        spanless(&log, "a", 50); // below floor: ignored
        assert_eq!(log.len(), 2);
        spanless(&log, "a", 150); // evicts the 100
        assert_eq!(log.threshold_us(), 150);
    }

    #[test]
    fn snapshot_limit_and_order() {
        let log = SlowLog::new(5);
        for us in [3, 1, 4, 1, 5] {
            spanless(&log, "x", us);
        }
        let snap = log.snapshot(2);
        assert_eq!(snap.len(), 2);
        assert!(snap[0].total_us >= snap[1].total_us);
    }

    #[test]
    fn entries_keep_spans_and_detail() {
        let log = SlowLog::new(1);
        log.record(
            "sparql",
            500,
            vec![Span {
                name: "exec",
                start_us: 0,
                dur_us: 400,
            }],
            || "SELECT ?n".to_string(),
        );
        let snap = log.snapshot(1);
        assert_eq!(snap[0].tag, "sparql");
        assert_eq!(snap[0].spans[0].name, "exec");
        assert_eq!(snap[0].detail, "SELECT ?n");
    }

    #[test]
    fn detail_is_built_only_for_requests_that_beat_the_floor() {
        let log = SlowLog::new(2);
        let calls = std::cell::Cell::new(0u32);
        let offer = |total_us| {
            log.record("x", total_us, Vec::new(), || {
                calls.set(calls.get() + 1);
                format!("took {total_us}")
            })
        };
        offer(100);
        offer(200);
        assert_eq!(calls.get(), 2, "a log that is not full keeps everything");
        offer(50);
        offer(100);
        assert_eq!(calls.get(), 2, "at or below the floor: nothing formatted");
        offer(150);
        assert_eq!(calls.get(), 3);
        assert_eq!(log.snapshot(1)[0].detail, "took 200");
    }

    #[test]
    fn concurrent_records_keep_invariants() {
        let log = std::sync::Arc::new(SlowLog::new(8));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let log = std::sync::Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    log.record("x", t * 1_000 + i, Vec::new(), String::new);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = log.snapshot(100);
        assert_eq!(snap.len(), 8);
        // The global slowest request must have been kept.
        assert_eq!(snap[0].total_us, 3 * 1_000 + 499);
    }
}
