//! Server-side replication runtime: the role a process plays, follower
//! bootstrap, and the pull loop that tails the leader's WAL.
//!
//! The leader half is passive — serving `repl_subscribe` / `repl_frame`
//! happens in the dispatcher — so this module is mostly the follower:
//! [`bootstrap`] fetches a consistent starting state over the line
//! protocol, and [`sync_loop`] (one thread per follower process) polls
//! the leader for WAL frames and applies them through the same
//! batch-apply path crash recovery uses. Replication invariants (lag
//! accounting, staleness verdicts, epochs) live in `datacron-repl`;
//! this module only moves bytes and takes locks.

use crate::client::{self, Client};
use crate::codec;
use crate::json::Json;
use crate::server::ServerConfig;
use crate::state::AnalyticsState;
use datacron_core::sync::TrackedRwLock;
use datacron_model::PositionReport;
use datacron_obs::{ClockSource, Registry, SlowLog, Trace};
use datacron_repl::{b64, FollowerProgress, FollowerRegistry, Role, StalenessPolicy};
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// How long the one-shot bootstrap call may take end to end; snapshots
/// can be large, so this is far above the steady-state poll timeout.
const BOOTSTRAP_TIMEOUT: Duration = Duration::from_secs(30);

/// How long the pull loop waits for the leader to accept a connection.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Most frames requested per poll (the protocol caps it anyway).
const MAX_FRAMES_PER_POLL: u64 = 256;

/// Replication knobs on [`ServerConfig`].
#[derive(Debug, Clone)]
pub struct ReplicationConfig {
    /// Leader address to follow (`host:port`). `Some` turns this server
    /// into a memory-only read replica that rejects writes.
    pub follow: Option<String>,
    /// Identity this follower reports to the leader; shows up in the
    /// leader's `repl_status` and per-follower gauges.
    pub follower_id: String,
    /// Steady-state poll interval when the follower is caught up.
    pub poll_interval: Duration,
    /// Bounded-staleness policy for the follower's read path.
    pub policy: StalenessPolicy,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        Self {
            follow: None,
            follower_id: "follower-1".to_string(),
            poll_interval: Duration::from_millis(50),
            policy: StalenessPolicy::default(),
        }
    }
}

/// The process's replication role plus the live tracking that goes with
/// it. Cloning shares the underlying trackers (they are all `Arc`s).
#[derive(Clone)]
pub enum ReplRuntime {
    /// Accepts writes; serves WAL frames and snapshots to followers.
    Leader {
        /// This leader's epoch (durable counter, or 1 when memory-only).
        epoch: u64,
        /// Follower fleet as learned from their polls.
        registry: Arc<FollowerRegistry>,
        /// The leader's durable LSN — count of WAL records appended,
        /// one past the highest sequence (0 when nothing written) —
        /// kept out of the storage lock so read stamping stays
        /// lock-free.
        head: Arc<AtomicU64>,
    },
    /// Read replica applying frames pulled from a leader.
    Follower {
        /// The leader's address, echoed in `not_leader` redirects.
        leader: String,
        /// Shared progress the sync loop writes and readers consult.
        progress: Arc<FollowerProgress>,
        /// Staleness bounds for the read path.
        policy: StalenessPolicy,
    },
}

impl ReplRuntime {
    /// The role this runtime plays.
    pub fn role(&self) -> Role {
        match self {
            ReplRuntime::Leader { .. } => Role::Leader,
            ReplRuntime::Follower { .. } => Role::Follower,
        }
    }
}

/// Resolves a `host:port` leader address.
fn leader_sockaddr(addr: &str) -> io::Result<SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(
            ErrorKind::AddrNotAvailable,
            format!("leader address {addr:?} resolved to nothing"),
        )
    })
}

fn proto_err(context: &str, resp: &Json) -> io::Error {
    io::Error::new(
        ErrorKind::InvalidData,
        format!("{context}: unexpected leader response {resp}"),
    )
}

/// What [`bootstrap`] brings back from the leader.
pub(crate) struct Bootstrap {
    /// The starting state: decoded snapshot, or fresh when the leader
    /// still retains its whole WAL (the tail replays through frames).
    pub state: AnalyticsState,
    /// Leader epoch at subscribe time.
    pub epoch: u64,
    /// Position the starting state covers: WAL records `0..applied_lsn`
    /// are in it, `applied_lsn` is the next sequence to pull.
    pub applied_lsn: u64,
    /// Leader's WAL head (`next_seq`) at subscribe time.
    pub leader_next_seq: u64,
}

/// Subscribes to `leader` and builds the follower's starting state.
///
/// Asks for the WAL from `from_seq`; the leader includes a full state
/// snapshot only when that position has already been retired from its
/// log. Fails fast (rather than serving empty state) when the leader is
/// unreachable or refuses — a follower with no leader has nothing
/// correct to serve.
pub(crate) fn bootstrap(cfg: &ServerConfig, leader: &str, from_seq: u64) -> io::Result<Bootstrap> {
    let mut c = Client::connect_timeout(leader_sockaddr(leader)?, BOOTSTRAP_TIMEOUT)?;
    let req = Json::obj()
        .field("type", "repl_subscribe")
        .field("follower", cfg.replication.follower_id.as_str())
        .field("from_seq", from_seq)
        .build();
    let resp = c.call(&req)?;
    if !client::is_ok(&resp) {
        return Err(io::Error::new(
            ErrorKind::ConnectionRefused,
            format!("leader {leader} refused subscribe: {resp}"),
        ));
    }
    let epoch = resp
        .get("epoch")
        .and_then(Json::as_u64)
        .ok_or_else(|| proto_err("subscribe", &resp))?;
    let leader_next_seq = resp
        .get("next_seq")
        .and_then(Json::as_u64)
        .ok_or_else(|| proto_err("subscribe", &resp))?;
    let (state, applied_lsn) = match resp.get("snapshot").and_then(Json::as_str) {
        Some(encoded) => {
            let bytes = b64::decode(encoded)
                .map_err(|e| io::Error::new(ErrorKind::InvalidData, format!("snapshot: {e}")))?;
            let state = AnalyticsState::from_snapshot_bytes(
                cfg.pipeline.clone(),
                cfg.heat_cell_deg,
                &bytes,
            )
            .map_err(|e| io::Error::new(ErrorKind::InvalidData, format!("snapshot decode: {e}")))?;
            let lsn = resp
                .get("snapshot_lsn")
                .and_then(Json::as_u64)
                .unwrap_or(leader_next_seq);
            (state, lsn)
        }
        None => (
            AnalyticsState::new(cfg.pipeline.clone(), cfg.heat_cell_deg),
            from_seq,
        ),
    };
    Ok(Bootstrap {
        state,
        epoch,
        applied_lsn,
        leader_next_seq,
    })
}

/// Everything the follower's pull loop needs, bundled for the thread.
pub(crate) struct FollowerSync {
    pub cfg: ServerConfig,
    pub leader: String,
    pub progress: Arc<FollowerProgress>,
    pub state: Arc<TrackedRwLock<AnalyticsState>>,
    pub registry: Arc<Registry>,
    pub clock: Arc<dyn ClockSource>,
    pub slowlog: Arc<SlowLog>,
    pub shutdown: Arc<AtomicBool>,
}

/// The follower's pull loop: poll the leader for WAL frames from
/// `applied_lsn` (the next unapplied sequence), apply them through the
/// batch path, repeat.
/// Connection failures degrade to retries — progress freezes (epoch and
/// all) and the staleness policy decides whether reads keep flowing.
pub(crate) fn sync_loop(s: &FollowerSync) {
    let mut conn: Option<Client> = None;
    while !s.shutdown.load(Ordering::SeqCst) {
        if conn.is_none() {
            conn = leader_sockaddr(&s.leader)
                .and_then(|a| Client::connect_timeout(a, CONNECT_TIMEOUT))
                .ok();
        }
        let Some(c) = conn.as_mut() else {
            thread::sleep(s.cfg.replication.poll_interval);
            continue;
        };
        match poll_once(s, c) {
            Ok(applied_any) => {
                // Caught up: pace down. Still behind: drain immediately.
                if !applied_any {
                    thread::sleep(s.cfg.replication.poll_interval);
                }
            }
            Err(e) => {
                if !s.shutdown.load(Ordering::SeqCst) {
                    eprintln!("datacron-server: replication poll failed: {e}");
                }
                conn = None;
                thread::sleep(s.cfg.replication.poll_interval);
            }
        }
    }
}

/// One poll/apply round. Returns whether any frame was applied.
fn poll_once(s: &FollowerSync, conn: &mut Client) -> io::Result<bool> {
    let from_seq = s.progress.applied_lsn();
    let req = Json::obj()
        .field("type", "repl_frame")
        .field("follower", s.cfg.replication.follower_id.as_str())
        .field("from_seq", from_seq)
        .field("max", MAX_FRAMES_PER_POLL)
        .build();
    let resp = conn.call(&req)?;
    if !client::is_ok(&resp) {
        return Err(io::Error::other(format!("leader rejected poll: {resp}")));
    }
    let epoch = resp
        .get("epoch")
        .and_then(Json::as_u64)
        .ok_or_else(|| proto_err("poll", &resp))?;
    let next_seq = resp
        .get("next_seq")
        .and_then(Json::as_u64)
        .ok_or_else(|| proto_err("poll", &resp))?;
    s.progress.observe_leader(epoch, next_seq, s.clock.now_us());
    if resp.get("reset").and_then(Json::as_bool) == Some(true) {
        // Our position fell off the leader's retained log (it snapshotted
        // and retired past us). Re-bootstrap and swap in the fresh state.
        let b = bootstrap(&s.cfg, &s.leader, from_seq)?;
        {
            let mut state = s.state.write();
            *state = b.state;
            // Same histogram identities: re-registration replaces the old
            // pipeline's stage histograms in the registry.
            state.register_metrics(&s.registry);
        }
        if b.applied_lsn > 0 {
            s.progress.observe_apply(b.applied_lsn, 0);
        }
        s.progress
            .observe_leader(b.epoch, b.leader_next_seq, s.clock.now_us());
        return Ok(true);
    }
    let Some(frames) = resp.get("frames").and_then(Json::as_array) else {
        return Err(proto_err("poll", &resp));
    };
    if frames.is_empty() {
        return Ok(false);
    }

    // Decode, then apply every frame's batch in one shot — same
    // single-commit path recovery uses, traced for the slowlog.
    let mut trace = Trace::start(Arc::clone(&s.clock));
    let decode_begin = trace.begin();
    let mut decoded: Vec<(u64, Vec<PositionReport>)> = Vec::with_capacity(frames.len());
    for f in frames {
        let seq = f
            .get("seq")
            .and_then(Json::as_u64)
            .ok_or_else(|| proto_err("frame", f))?;
        let payload = f
            .get("payload")
            .and_then(Json::as_str)
            .ok_or_else(|| proto_err("frame", f))?;
        let bytes = b64::decode(payload)
            .map_err(|e| io::Error::new(ErrorKind::InvalidData, format!("frame {seq}: {e}")))?;
        let batch = codec::decode_batch(&bytes)
            .map_err(|e| io::Error::new(ErrorKind::InvalidData, format!("frame {seq}: {e}")))?;
        decoded.push((seq, batch));
    }
    trace.end_span("decode", decode_begin);
    let apply_begin = trace.begin();
    let last_seq = decoded.last().map(|(seq, _)| *seq).unwrap_or(from_seq);
    let batches: Vec<&[PositionReport]> = decoded.iter().map(|(_, b)| b.as_slice()).collect();
    {
        let mut state = s.state.write();
        state.ingest_many(&batches);
    }
    for (seq, batch) in &decoded {
        s.progress
            .observe_apply(seq.saturating_add(1), batch.len() as u64);
    }
    trace.end_span("apply", apply_begin);
    s.slowlog
        .record("repl_apply", trace.total_us(), trace.into_spans(), || {
            format!("{} frames through seq {last_seq}", decoded.len())
        });
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_roles() {
        let leader = ReplRuntime::Leader {
            epoch: 1,
            registry: Arc::new(FollowerRegistry::new()),
            head: Arc::new(AtomicU64::new(0)),
        };
        assert_eq!(leader.role(), Role::Leader);
        let f = ReplRuntime::Follower {
            leader: "127.0.0.1:1".into(),
            progress: Arc::new(FollowerProgress::new()),
            policy: StalenessPolicy::default(),
        };
        assert_eq!(f.role(), Role::Follower);
    }

    #[test]
    fn bootstrap_fails_fast_without_leader() {
        // Port 1 on loopback is essentially never listening.
        let cfg = ServerConfig::default();
        assert!(bootstrap(&cfg, "127.0.0.1:1", 1).is_err());
    }

    #[test]
    fn leader_addr_resolution() {
        assert!(leader_sockaddr("127.0.0.1:7000").is_ok());
        assert!(leader_sockaddr("not an address").is_err());
    }
}
