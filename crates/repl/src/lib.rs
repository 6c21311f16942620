//! Replication substrate for the datAcron serving layer.
//!
//! This crate holds the transport-agnostic half of leader/follower
//! replication: the leader's view of its followers
//! ([`FollowerRegistry`]), the follower's view of its leader and
//! staleness gating ([`FollowerProgress`], [`StalenessPolicy`]), the durable
//! leader-epoch counter ([`epoch::next_epoch`]), the append-time lag
//! ring ([`LagTracker`]) and the base64 codec used to carry binary WAL
//! payloads and snapshot files inside the newline-delimited JSON
//! protocol ([`b64`]).
//!
//! The wire protocol itself (the `repl_subscribe` / `repl_frame` /
//! `repl_status` requests) lives in `datacron-server`, which depends on
//! this crate; nothing here knows about sockets or JSON. That split
//! keeps the replication invariants unit-testable with injected clocks
//! and lets the lint gates (no panics, no truncating casts in codec
//! paths) cover the logic without dragging in the serving stack.
//!
//! Replication model in one paragraph: a follower is built from exactly
//! what the leader's own recovery would read. The leader appends every
//! ingest batch to its WAL (sequence numbers are the LSNs); followers
//! pull frames — `(seq, payload)` pairs — from the *durable* part of that
//! log, below the commit watermark, and apply them through the same
//! batch-apply path recovery uses; the applying state records the
//! position it has reached, and the leader epoch that position counts
//! in, and takes only the record at that position next. A follower that
//! starts (or falls) behind the leader's retained log bootstraps from
//! the leader's newest snapshot file first, then tails; a reply in a new
//! epoch (the leader restarted, and may have lost unsynced records and
//! regrown its log) rebuilds it the same way. Staleness is observable
//! (lag in records and microseconds, exported as gauges) and
//! enforceable (a follower sheds reads with `stale` once lag crosses the
//! configured bound).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod b64;
pub mod epoch;
pub mod follower;
pub mod lag;
pub mod leader;

pub use follower::{FollowerProgress, StalenessPolicy, StalenessVerdict};
pub use lag::LagTracker;
pub use leader::{max_lag_records, FollowerLag, FollowerRegistry, MAX_FOLLOWERS};

/// Role a serving process plays in the replication topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepts writes, appends to the WAL, serves frames to followers.
    Leader,
    /// Applies frames pulled from a leader; serves reads only.
    Follower,
}

impl Role {
    /// Stable lowercase name used in `stats` output and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            Role::Leader => "leader",
            Role::Follower => "follower",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_names_are_stable() {
        assert_eq!(Role::Leader.name(), "leader");
        assert_eq!(Role::Follower.name(), "follower");
    }
}
