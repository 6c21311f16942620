//! Follower-side leader tracking and bounded-staleness gating.
//!
//! The sync loop (one thread in the serving process) updates a shared
//! [`FollowerProgress`] as it polls the leader and applies frames. The
//! follower's log position and the leader epoch it counts in are not
//! here: both belong to the replicated state, so a read stamps
//! `leader_epoch` / `applied_lsn` from the state that answered it.
//! Read-path workers combine that position with this progress to decide
//! — via [`StalenessPolicy`] — whether the replica is too stale to serve.
//!
//! Staleness has two independent triggers, either of which sheds
//! reads: the follower knows it is behind by more than
//! `max_lag_records` (it heard the leader's `next_seq` and has not
//! caught up), or it has not heard from the leader at all for longer
//! than `max_lag_us` (leader dead or partitioned — record lag alone
//! cannot detect this, since a silent leader stops advancing
//! `next_seq` too).

use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free view of what a follower last heard from its leader, plus
/// throughput counters.
///
/// LSNs are exclusive positions in the WAL's 0-based sequence space:
/// a position `N` means records `0..N` are applied and `N` is the next
/// sequence wanted. That makes `0` unambiguously "nothing applied" and
/// lag a plain subtraction from the leader's `next_seq`.
#[derive(Debug, Default)]
pub struct FollowerProgress {
    /// Leader's `next_seq` (its durable head) from the most recent
    /// successful poll.
    leader_next_seq: AtomicU64,
    /// Local clock reading at the most recent successful poll.
    last_contact_us: AtomicU64,
    /// Total frames applied since start (monotonic counter).
    frames_applied: AtomicU64,
    /// Total records applied since start (monotonic counter).
    records_applied: AtomicU64,
}

impl FollowerProgress {
    /// Creates zeroed progress (nothing applied, no leader contact).
    pub fn new() -> Self {
        FollowerProgress::default()
    }

    /// Records a successful poll: the leader reported `next_seq`,
    /// observed at local time `now_us`.
    pub fn observe_leader(&self, next_seq: u64, now_us: u64) {
        self.leader_next_seq.store(next_seq, Ordering::Release);
        self.last_contact_us.store(now_us, Ordering::Release);
    }

    /// Counts `frames` frames carrying `records` records in total as
    /// applied.
    pub fn observe_apply(&self, frames: u64, records: u64) {
        self.frames_applied.fetch_add(frames, Ordering::Relaxed);
        self.records_applied.fetch_add(records, Ordering::Relaxed);
    }

    /// Leader's `next_seq` at last contact.
    pub fn leader_next_seq(&self) -> u64 {
        self.leader_next_seq.load(Ordering::Acquire)
    }

    /// Microseconds from the last successful leader contact to local
    /// time `now_us`; 0 before the first contact.
    pub fn silence_us(&self, now_us: u64) -> u64 {
        match self.last_contact_us.load(Ordering::Acquire) {
            0 => 0,
            last => now_us.saturating_sub(last),
        }
    }

    /// Frames applied since start.
    pub fn frames_applied(&self) -> u64 {
        self.frames_applied.load(Ordering::Relaxed)
    }

    /// Records applied since start.
    pub fn records_applied(&self) -> u64 {
        self.records_applied.load(Ordering::Relaxed)
    }

    /// Records known appended on the leader but not in a state at
    /// position `applied_lsn`.
    pub fn lag_records(&self, applied_lsn: u64) -> u64 {
        self.leader_next_seq().saturating_sub(applied_lsn)
    }
}

/// Bounded-staleness configuration for a follower's read path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StalenessPolicy {
    /// Shed reads when record lag exceeds this (None = unbounded).
    pub max_lag_records: Option<u64>,
    /// Shed reads when the leader has been silent this long
    /// (None = unbounded).
    pub max_lag_us: Option<u64>,
}

/// Outcome of a staleness check on the follower read path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StalenessVerdict {
    /// Within bounds; serve the read.
    Fresh,
    /// Out of bounds; reject with `stale`.
    Stale {
        /// Record lag at check time.
        lag_records: u64,
        /// Microseconds since last leader contact at check time.
        silence_us: u64,
    },
}

impl StalenessPolicy {
    /// Checks a state at position `applied_lsn` against the policy,
    /// given `progress` heard from the leader, at local time `now_us`.
    /// Before the first leader contact the silence bound does not
    /// apply (the follower is still bootstrapping; bootstrap itself
    /// blocks serving).
    pub fn check(
        &self,
        progress: &FollowerProgress,
        applied_lsn: u64,
        now_us: u64,
    ) -> StalenessVerdict {
        let lag_records = progress.lag_records(applied_lsn);
        let silence_us = progress.silence_us(now_us);
        let over_records = self.max_lag_records.is_some_and(|max| lag_records > max);
        let over_silence = self.max_lag_us.is_some_and(|max| silence_us > max);
        if over_records || over_silence {
            StalenessVerdict::Stale {
                lag_records,
                silence_us,
            }
        } else {
            StalenessVerdict::Fresh
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_tracks_apply_and_contact() {
        let p = FollowerProgress::new();
        p.observe_leader(11, 1000);
        p.observe_apply(5, 20);
        p.observe_apply(6, 20);
        assert_eq!(p.leader_next_seq(), 11);
        assert_eq!(p.silence_us(1500), 500);
        assert_eq!(p.lag_records(11), 0); // next=11, applied=11
        assert_eq!(p.frames_applied(), 11);
        assert_eq!(p.records_applied(), 40);
    }

    #[test]
    fn lag_records_counts_unapplied() {
        let p = FollowerProgress::new();
        p.observe_leader(101, 0);
        assert_eq!(p.lag_records(61), 40);
        // A state ahead of the last poll is not behind at all.
        assert_eq!(p.lag_records(102), 0);
    }

    #[test]
    fn fresh_follower_lags_by_the_whole_log() {
        // LSN 0 means "nothing applied" — against a leader with 5
        // records the lag is all 5, including WAL sequence 0.
        let p = FollowerProgress::new();
        p.observe_leader(5, 100);
        assert_eq!(p.lag_records(0), 5);
    }

    #[test]
    fn unbounded_policy_never_sheds() {
        let policy = StalenessPolicy::default();
        let p = FollowerProgress::new();
        p.observe_leader(1_000_000, 0);
        assert_eq!(policy.check(&p, 0, u64::MAX), StalenessVerdict::Fresh);
    }

    #[test]
    fn record_bound_sheds() {
        let policy = StalenessPolicy {
            max_lag_records: Some(10),
            max_lag_us: None,
        };
        let p = FollowerProgress::new();
        p.observe_leader(12, 500);
        // State at 2: lag = 10, at the bound.
        assert_eq!(policy.check(&p, 2, 500), StalenessVerdict::Fresh);
        p.observe_leader(13, 600); // lag = 11, over
        assert_eq!(
            policy.check(&p, 2, 600),
            StalenessVerdict::Stale {
                lag_records: 11,
                silence_us: 0
            }
        );
    }

    #[test]
    fn silence_bound_sheds_dead_leader() {
        let policy = StalenessPolicy {
            max_lag_records: None,
            max_lag_us: Some(1_000_000),
        };
        let p = FollowerProgress::new();
        p.observe_leader(5, 1_000_000);
        // Caught up and fresh contact: serve.
        assert_eq!(policy.check(&p, 5, 1_500_000), StalenessVerdict::Fresh);
        // Leader silent for 2s: shed even with zero record lag.
        assert_eq!(
            policy.check(&p, 5, 3_000_001),
            StalenessVerdict::Stale {
                lag_records: 0,
                silence_us: 2_000_001
            }
        );
    }

    #[test]
    fn silence_bound_ignored_before_first_contact() {
        let policy = StalenessPolicy {
            max_lag_records: None,
            max_lag_us: Some(1),
        };
        let p = FollowerProgress::new();
        assert_eq!(policy.check(&p, 0, u64::MAX), StalenessVerdict::Fresh);
    }
}
