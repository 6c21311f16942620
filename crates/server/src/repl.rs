//! Server-side replication runtime: the role a process plays, follower
//! bootstrap, and the pull loop that tails the leader's WAL.
//!
//! The leader half is passive — serving `repl_subscribe` / `repl_frame`
//! happens in the dispatcher — so this module is mostly the follower. It
//! is built the way recovery builds a leader: [`bootstrap`] fetches the
//! leader's newest snapshot file (if its log no longer starts at 0) and
//! [`sync_loop`] (one thread per follower process) pulls the durable WAL
//! after it, both through [`AnalyticsState::rebuild`]'s path. The state
//! carries the leader epoch its position counts in; a reply in another
//! epoch means a rebuild. Lag accounting and staleness verdicts live in
//! `datacron-repl`; this module only moves bytes and takes locks.

use crate::client::{self, Client};
use crate::json::Json;
use crate::server::ServerConfig;
use crate::state::AnalyticsState;
use datacron_core::sync::TrackedRwLock;
use datacron_obs::{ClockSource, Registry, SlowLog, Trace};
use datacron_repl::{b64, FollowerProgress, FollowerRegistry, Role, StalenessPolicy};
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
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
    },
    /// Read replica applying frames pulled from a leader.
    Follower {
        /// The leader's address, echoed in `not_leader` redirects.
        leader: String,
        /// What the sync loop last heard from the leader.
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

/// Subscribes to `leader` from position 0 and builds the follower's
/// starting state the way recovery builds a leader's: in the leader's
/// epoch, from its newest snapshot file — sent only once position 0 has
/// been retired from its log — or fresh at 0. Returns the state and the
/// leader's durable head. Fails fast (rather than serving empty state)
/// when the leader is unreachable or refuses — a follower with no leader
/// has nothing correct to serve.
pub(crate) fn bootstrap(cfg: &ServerConfig, leader: &str) -> io::Result<(AnalyticsState, u64)> {
    let mut c = Client::connect_timeout(leader_sockaddr(leader)?, BOOTSTRAP_TIMEOUT)?;
    let req = Json::obj()
        .field("type", "repl_subscribe")
        .field("follower", cfg.replication.follower_id.as_str())
        .field("from_seq", 0u64)
        .build();
    let resp = c.call(&req)?;
    if !client::is_ok(&resp) {
        return Err(io::Error::new(
            ErrorKind::ConnectionRefused,
            format!("leader {leader} refused subscribe: {resp}"),
        ));
    }
    let field = |key| resp.get(key).and_then(Json::as_u64);
    let (Some(epoch), Some(next_seq)) = (field("epoch"), field("next_seq")) else {
        return Err(proto_err("subscribe", &resp));
    };
    let snapshot = match (
        resp.get("snapshot").and_then(Json::as_str),
        field("snapshot_lsn"),
    ) {
        (None, _) => None,
        (Some(encoded), Some(lsn)) => Some((lsn, b64::decode(encoded).map_err(invalid_snapshot)?)),
        (Some(_), None) => return Err(proto_err("subscribe", &resp)),
    };
    let (pipeline, deg) = (cfg.pipeline.clone(), cfg.heat_cell_deg);
    let state = AnalyticsState::rebuild(pipeline, deg, epoch, snapshot.as_ref())?;
    Ok((state, next_seq))
}

fn invalid_snapshot(e: String) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, format!("snapshot: {e}"))
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

/// The follower's pull loop: poll the leader for WAL frames from the
/// state's position (the next unapplied sequence), apply them through
/// the batch path, repeat.
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

/// One poll/apply round. Returns whether the state moved. A reply in
/// another epoch than the state's, and a `reset`, rebuild the state the
/// way startup built it; in the same epoch the rebuilt state must lie past
/// the old one. Frames that do not run on from the state's position are
/// an error and leave the state as it was.
fn poll_once(s: &FollowerSync, conn: &mut Client) -> io::Result<bool> {
    // The sync loop is the follower state's only writer, so the position
    // cannot move between this read and the apply below.
    let (from_seq, held_epoch) = {
        let state = s.state.read();
        (state.applied_lsn(), state.epoch())
    };
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
    let field = |key| resp.get(key).and_then(Json::as_u64);
    let (Some(epoch), Some(next_seq)) = (field("epoch"), field("next_seq")) else {
        return Err(proto_err("poll", &resp));
    };
    if epoch != held_epoch || resp.get("reset").and_then(Json::as_bool) == Some(true) {
        // A new epoch may have rewritten any position (a restarted leader
        // regrows its log from its durable head), and a reset means ours
        // fell off the retained log: either way, start over.
        let (rebuilt, leader_next_seq) = bootstrap(&s.cfg, &s.leader)?;
        let (at, rebuilt_epoch) = (rebuilt.applied_lsn(), rebuilt.epoch());
        if rebuilt_epoch == held_epoch && at <= from_seq {
            let msg = format!("reset from position {from_seq} brought a state at position {at}");
            return Err(io::Error::new(ErrorKind::InvalidData, msg));
        }
        {
            let mut state = s.state.write();
            *state = rebuilt;
            // Same histogram identities: re-registration replaces the old
            // pipeline's stage histograms in the registry.
            state.register_metrics(&s.registry);
        }
        s.progress.observe_leader(leader_next_seq, s.clock.now_us());
        return Ok(true);
    }
    s.progress.observe_leader(next_seq, s.clock.now_us());
    let Some(frames) = resp.get("frames").and_then(Json::as_array) else {
        return Err(proto_err("poll", &resp));
    };
    if frames.is_empty() {
        return Ok(false);
    }

    // Decode, then apply every frame in one shot — the batch path
    // recovery uses, traced for the slowlog.
    let mut trace = Trace::start(Arc::clone(&s.clock));
    let decode_begin = trace.begin();
    let mut log = Vec::with_capacity(frames.len());
    for f in frames {
        let (Some(seq), Some(payload)) = (
            f.get("seq").and_then(Json::as_u64),
            f.get("payload").and_then(Json::as_str),
        ) else {
            return Err(proto_err("frame", f));
        };
        let bytes = b64::decode(payload)
            .map_err(|e| io::Error::new(ErrorKind::InvalidData, format!("frame {seq}: {e}")))?;
        log.push((seq, bytes));
    }
    trace.end_span("decode", decode_begin);
    let apply_begin = trace.begin();
    let out = s.state.write().apply_records(&log)?;
    s.progress.observe_apply(log.len() as u64, out.accepted);
    trace.end_span("apply", apply_begin);
    s.slowlog
        .record("repl_apply", trace.total_us(), trace.into_spans(), || {
            format!("{} frames from seq {from_seq}", log.len())
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
        assert!(bootstrap(&cfg, "127.0.0.1:1").is_err());
    }

    #[test]
    fn leader_addr_resolution() {
        assert!(leader_sockaddr("127.0.0.1:7000").is_ok());
        assert!(leader_sockaddr("not an address").is_err());
    }
}
