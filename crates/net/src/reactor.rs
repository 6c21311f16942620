//! The event loop: one thread, one epoll instance, every connection.
//!
//! The [`Reactor`] owns the listener and all per-connection state
//! (interest set, read accumulator, pending-write buffer). Application
//! behaviour is injected through [`Handler`]: the loop frames lines and
//! asks the handler what to do with each one; the handler either answers
//! inline ([`LineAction::Respond`]) or takes ownership of the request
//! ([`LineAction::Dispatch`]) and later hands the response bytes back
//! from any thread through [`ReactorHandle::complete`], which nudges the
//! sleeping `epoll_wait` via the wakeup pipe.
//!
//! Concurrency discipline: the reactor holds at most one lock at a time
//! (the completion mailbox, taken in a tight scope and swapped empty);
//! handler callbacks run on the loop thread with no reactor lock held.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use datacron_obs::{LatencyHistogram, Stopwatch};
use parking_lot::Mutex;

use crate::buf::{Frame, LineBuffer};
use crate::sys::{Epoll, EpollEvent, WakePipe, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// epoll token for the listening socket.
const TOKEN_LISTENER: u64 = u64::MAX;
/// epoll token for the wakeup pipe's read end.
const TOKEN_WAKE: u64 = u64::MAX - 1;
/// How often the reaper sweep runs, independent of poll cadence.
const SWEEP_EVERY_MS: u64 = 200;
/// One kernel-readiness read per event, sized for a few typical requests.
const READ_CHUNK: usize = 16 * 1024;
/// Flushed-prefix size beyond which the write buffer is compacted.
const COMPACT_AT: usize = 4 * 1024;

/// Tuning knobs for the loop. `Default` values suit the line protocol.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Longest accepted line in bytes (excluding the newline); longer
    /// input frames as an overflow and is discarded.
    pub max_line_bytes: usize,
    /// Reap a connection holding a *partial* line longer than this.
    /// Fully idle connections (empty buffers) are never reaped. `None`
    /// disables the slowloris guard.
    pub idle_timeout: Option<Duration>,
    /// Reap a connection whose pending response has made no write
    /// progress for this long. `None` waits forever.
    pub write_stall_timeout: Option<Duration>,
    /// Close a connection (slow consumer) once its unflushed response
    /// bytes exceed this.
    pub max_write_buffer_bytes: usize,
    /// Upper bound on one `epoll_wait` sleep; also bounds how stale the
    /// sweep and shutdown checks can be.
    pub poll_interval: Duration,
    /// Per-connection cap on parsed-but-unserved pipelined lines; past
    /// it the loop stops reading that socket (TCP backpressure) until
    /// responses drain.
    pub pending_line_cap: usize,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            max_line_bytes: 1 << 20,
            idle_timeout: Some(Duration::from_secs(30)),
            write_stall_timeout: Some(Duration::from_secs(30)),
            max_write_buffer_bytes: 64 << 20,
            poll_interval: Duration::from_millis(50),
            pending_line_cap: 16,
        }
    }
}

/// Live counters and gauges exported by the loop, shared with whoever
/// scrapes them (the server registers these into the obs registry).
#[derive(Debug)]
pub struct NetStats {
    /// Currently open connections (slab occupancy).
    pub open_connections: AtomicU64,
    /// Partial-line bytes buffered across all connections (sampled each
    /// sweep).
    pub read_buffer_bytes: AtomicU64,
    /// Unflushed response bytes across all connections (sampled each
    /// sweep).
    pub write_buffer_bytes: AtomicU64,
    /// Connections accepted by the loop (before handler admission).
    pub accepts_total: AtomicU64,
    /// Connections closed for any reason (includes reaped).
    pub conns_closed_total: AtomicU64,
    /// Connections reaped by the idle/write-stall guard.
    pub conns_reaped_total: AtomicU64,
    /// Wakeup-pipe nudges observed.
    pub wakeups_total: AtomicU64,
    /// Loop iterations completed.
    pub loop_iterations_total: AtomicU64,
    /// Time spent processing each iteration (excludes the `epoll_wait`
    /// sleep itself).
    pub loop_latency: Arc<LatencyHistogram>,
}

impl NetStats {
    fn new() -> NetStats {
        NetStats {
            open_connections: AtomicU64::new(0),
            read_buffer_bytes: AtomicU64::new(0),
            write_buffer_bytes: AtomicU64::new(0),
            accepts_total: AtomicU64::new(0),
            conns_closed_total: AtomicU64::new(0),
            conns_reaped_total: AtomicU64::new(0),
            wakeups_total: AtomicU64::new(0),
            loop_iterations_total: AtomicU64::new(0),
            loop_latency: Arc::new(LatencyHistogram::new()),
        }
    }
}

/// Opaque connection identity: a slab index plus a generation stamp so a
/// completion for a connection that died (and whose slot was reused)
/// is dropped instead of answering the wrong client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnId {
    idx: u32,
    gen: u32,
}

impl ConnId {
    /// Stable-ish numeric form for logs.
    pub fn raw(&self) -> u64 {
        (u64::from(self.gen) << 32) | u64::from(self.idx)
    }
}

/// Admission decision for a freshly accepted connection.
#[derive(Debug)]
pub enum Open {
    /// Keep it: register for reads, serve lines.
    Accept,
    /// Turn it away: flush these bytes (e.g. a `busy` error line), then
    /// close. The socket never enters read service.
    Reject(Vec<u8>),
}

/// What to do with one framed line (or an overflow).
#[derive(Debug)]
pub enum LineAction {
    /// Nothing; keep reading.
    Ignore,
    /// Write these bytes on the connection; keep reading.
    Respond(Vec<u8>),
    /// The handler took ownership (queued the request elsewhere) and
    /// will deliver the response via [`ReactorHandle::complete`]. The
    /// connection serves one dispatched request at a time; further
    /// pipelined lines queue in arrival order.
    Dispatch,
    /// Write these bytes, then close the connection.
    Close(Vec<u8>),
}

/// Application behaviour plugged into the loop. All callbacks run on
/// the reactor thread; they must not block.
pub trait Handler: Send {
    /// A connection was accepted; `open` is the number of connections
    /// currently held (including this one). Decide admission.
    fn on_open(&mut self, conn: ConnId, open: usize) -> Open;
    /// A complete line arrived (newline stripped, `\r` preserved).
    fn on_line(&mut self, conn: ConnId, line: String) -> LineAction;
    /// An oversized or non-UTF-8 line was discarded.
    fn on_overflow(&mut self, conn: ConnId) -> LineAction;
    /// The connection is gone (peer close, error, reap, or shutdown).
    /// Any in-flight dispatch for it will have its completion dropped.
    fn on_close(&mut self, _conn: ConnId) {}
}

struct HandleInner {
    completions: Mutex<Vec<(ConnId, Vec<u8>)>>,
    pipe: WakePipe,
    shutdown: AtomicBool,
    stats: NetStats,
}

/// Cloneable, thread-safe handle into a running [`Reactor`]: workers
/// deliver responses through it and anyone can request shutdown or read
/// stats. Handles keep the wakeup pipe alive, so completing against a
/// stopped reactor is safe (the bytes are simply never flushed).
#[derive(Clone)]
pub struct ReactorHandle {
    inner: Arc<HandleInner>,
}

impl ReactorHandle {
    /// Delivers the response bytes for a dispatched line. Call exactly
    /// once per [`LineAction::Dispatch`]. Safe from any thread; wakes
    /// the loop.
    pub fn complete(&self, conn: ConnId, response: Vec<u8>) {
        {
            self.inner.completions.lock().push((conn, response));
        }
        self.inner.pipe.wake();
    }

    /// Asks the loop to exit; it closes every connection and returns.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.pipe.wake();
    }

    /// True once shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Live loop counters/gauges.
    pub fn stats(&self) -> &NetStats {
        &self.inner.stats
    }
}

struct Conn {
    stream: std::net::TcpStream,
    buf: LineBuffer,
    /// Parsed lines waiting because a dispatched request is in flight.
    pending: VecDeque<Frame>,
    /// A [`LineAction::Dispatch`] is outstanding.
    inflight: bool,
    out: Vec<u8>,
    out_pos: usize,
    interest: u32,
    /// Last read or write progress, ms on the reactor epoch clock.
    last_activity_ms: u64,
    /// Peer closed its write half (or EOF was read).
    read_closed: bool,
    /// Close once `out` fully flushes.
    close_after_flush: bool,
}

impl Conn {
    fn out_len(&self) -> usize {
        self.out.len() - self.out_pos
    }
}

struct Slot {
    gen: u32,
    conn: Option<Conn>,
}

/// The event loop. Construct with [`Reactor::new`], clone a
/// [`ReactorHandle`] out, then move the reactor onto its thread and
/// call [`Reactor::run`].
pub struct Reactor<H: Handler> {
    epoll: Epoll,
    listener: TcpListener,
    handle: ReactorHandle,
    handler: H,
    cfg: ReactorConfig,
    slots: Vec<Slot>,
    free: Vec<u32>,
    open: usize,
    epoch: Stopwatch,
    scratch: Vec<u8>,
    frames: Vec<Frame>,
}

impl<H: Handler> Reactor<H> {
    /// Wraps `listener` (switched to nonblocking) in a new loop.
    pub fn new(listener: TcpListener, cfg: ReactorConfig, handler: H) -> io::Result<Reactor<H>> {
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        let pipe = WakePipe::new()?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        epoll.add(pipe.read_fd(), EPOLLIN, TOKEN_WAKE)?;
        let handle = ReactorHandle {
            inner: Arc::new(HandleInner {
                completions: Mutex::new(Vec::new()),
                pipe,
                shutdown: AtomicBool::new(false),
                stats: NetStats::new(),
            }),
        };
        Ok(Reactor {
            epoll,
            listener,
            handle,
            handler,
            cfg,
            slots: Vec::new(),
            free: Vec::new(),
            open: 0,
            epoch: Stopwatch::start(),
            scratch: vec![0u8; READ_CHUNK],
            frames: Vec::new(),
        })
    }

    /// A handle for workers / the owner; clone freely.
    pub fn handle(&self) -> ReactorHandle {
        self.handle.clone()
    }

    fn stats(&self) -> &NetStats {
        &self.handle.inner.stats
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed_ms()
    }

    /// Runs the loop until [`ReactorHandle::shutdown`]; closes every
    /// connection on the way out.
    pub fn run(&mut self) -> io::Result<()> {
        let mut events = vec![EpollEvent::default(); 1024];
        let timeout_ms = i32::try_from(self.cfg.poll_interval.as_millis().max(1)).unwrap_or(50);
        let mut sweep_sw = Stopwatch::start();
        loop {
            // lint:allow(reactor_blocking) the epoll wait IS the loop's
            // one sanctioned block: it parks until readiness or timeout.
            let n = self.epoll.wait(&mut events, timeout_ms)?;
            let iter_sw = Stopwatch::start();
            if self.handle.is_shutdown() {
                break;
            }
            for ev in events.iter().take(n) {
                // Copy out of the (packed) kernel struct before use.
                let token = { ev.data };
                let revents = { ev.events };
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => {
                        self.handle.inner.pipe.drain();
                        self.stats().wakeups_total.fetch_add(1, Ordering::Relaxed);
                    }
                    t => {
                        if let Ok(idx) = u32::try_from(t) {
                            self.conn_ready(idx, revents);
                        }
                    }
                }
            }
            self.drain_completions();
            if sweep_sw.elapsed_ms() >= SWEEP_EVERY_MS {
                sweep_sw.restart();
                self.sweep();
            }
            let open = u64::try_from(self.open).unwrap_or(u64::MAX);
            self.stats().open_connections.store(open, Ordering::Relaxed);
            self.stats()
                .loop_iterations_total
                .fetch_add(1, Ordering::Relaxed);
            self.stats().loop_latency.observe(&iter_sw);
        }
        // Shutdown: tear every connection down so peers see EOF.
        for i in 0..self.slots.len() {
            if let Ok(idx) = u32::try_from(i) {
                if self.slot_occupied(idx) {
                    self.close_conn(idx);
                }
            }
        }
        self.stats().open_connections.store(0, Ordering::Relaxed);
        Ok(())
    }

    fn slot_occupied(&self, idx: u32) -> bool {
        let i = usize::try_from(idx).unwrap_or(usize::MAX);
        self.slots.get(i).is_some_and(|s| s.conn.is_some())
    }

    fn conn_mut(&mut self, idx: u32) -> Option<&mut Conn> {
        let i = usize::try_from(idx).unwrap_or(usize::MAX);
        self.slots.get_mut(i).and_then(|s| s.conn.as_mut())
    }

    fn conn_id(&self, idx: u32) -> ConnId {
        let i = usize::try_from(idx).unwrap_or(usize::MAX);
        let gen = self.slots.get(i).map(|s| s.gen).unwrap_or(0);
        ConnId { idx, gen }
    }

    // -- accept ------------------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _addr)) => self.admit(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept errors (per-conn resets, fd pressure):
                // drop this readiness edge; the listener stays registered.
                Err(_) => return,
            }
        }
    }

    fn admit(&mut self, stream: std::net::TcpStream) {
        self.stats().accepts_total.fetch_add(1, Ordering::Relaxed);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // Line-oriented request/response: never let Nagle hold a reply.
        let _ = stream.set_nodelay(true);
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                let Ok(idx) = u32::try_from(self.slots.len()) else {
                    return; // slab exhausted (4B connections): drop
                };
                if u64::from(idx) >= TOKEN_WAKE {
                    return;
                }
                self.slots.push(Slot { gen: 0, conn: None });
                idx
            }
        };
        let now = self.now_ms();
        let conn = Conn {
            stream,
            buf: LineBuffer::new(self.cfg.max_line_bytes),
            pending: VecDeque::new(),
            inflight: false,
            out: Vec::new(),
            out_pos: 0,
            interest: 0,
            last_activity_ms: now,
            read_closed: false,
            close_after_flush: false,
        };
        let i = usize::try_from(idx).unwrap_or(usize::MAX);
        let Some(slot) = self.slots.get_mut(i) else {
            return;
        };
        slot.conn = Some(conn);
        self.open += 1;
        let id = self.conn_id(idx);
        let open = self.open;
        match self.handler.on_open(id, open) {
            Open::Accept => {}
            Open::Reject(bytes) => {
                if let Some(conn) = self.conn_mut(idx) {
                    conn.out = bytes;
                    conn.read_closed = true;
                    conn.close_after_flush = true;
                }
            }
        }
        let want = self.desired_interest(idx);
        let fd = match self.conn_mut(idx) {
            Some(c) => {
                c.interest = want;
                c.stream.as_raw_fd()
            }
            None => return,
        };
        if self
            .epoll
            .add(fd, want | EPOLLRDHUP, u64::from(idx))
            .is_err()
        {
            self.close_conn(idx);
            return;
        }
        // Opportunistic flush for rejects (and a no-op for accepts).
        self.flush_out(idx);
    }

    // -- interest management ----------------------------------------------

    fn desired_interest(&mut self, idx: u32) -> u32 {
        let cap = self.cfg.pending_line_cap;
        let Some(conn) = self.conn_mut(idx) else {
            return 0;
        };
        let mut want = 0;
        if !conn.read_closed && conn.pending.len() < cap {
            want |= EPOLLIN;
        }
        if conn.out_len() > 0 {
            want |= EPOLLOUT;
        }
        want
    }

    fn update_interest(&mut self, idx: u32) {
        let want = self.desired_interest(idx);
        let Some(conn) = self.conn_mut(idx) else {
            return;
        };
        if conn.interest == want {
            return;
        }
        conn.interest = want;
        let fd = conn.stream.as_raw_fd();
        if self
            .epoll
            .modify(fd, want | EPOLLRDHUP, u64::from(idx))
            .is_err()
        {
            self.close_conn(idx);
        }
    }

    // -- readiness dispatch ------------------------------------------------

    fn conn_ready(&mut self, idx: u32, revents: u32) {
        if !self.slot_occupied(idx) {
            return; // stale event for a closed connection
        }
        if revents & (EPOLLERR | EPOLLHUP) != 0 {
            self.close_conn(idx);
            return;
        }
        if revents & (EPOLLIN | EPOLLRDHUP) != 0 {
            self.handle_read(idx);
            if !self.slot_occupied(idx) {
                return;
            }
        }
        if revents & EPOLLOUT != 0 {
            self.flush_out(idx);
        }
    }

    fn handle_read(&mut self, idx: u32) {
        let now = self.now_ms();
        let (nread, eof) = {
            let scratch = &mut self.scratch;
            let i = usize::try_from(idx).unwrap_or(usize::MAX);
            let Some(conn) = self.slots.get_mut(i).and_then(|s| s.conn.as_mut()) else {
                return;
            };
            if conn.read_closed {
                return;
            }
            match conn.stream.read(scratch) {
                Ok(0) => (0, true),
                Ok(n) => {
                    conn.last_activity_ms = now;
                    (n, false)
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => return,
                Err(_) => {
                    self.close_conn(idx);
                    return;
                }
            }
        };
        if eof {
            if let Some(conn) = self.conn_mut(idx) {
                conn.read_closed = true;
            }
            self.maybe_finish(idx);
            if self.slot_occupied(idx) {
                self.update_interest(idx);
            }
            return;
        }
        // Frame the chunk, then feed frames through the handler.
        let mut frames = std::mem::take(&mut self.frames);
        frames.clear();
        {
            let i = usize::try_from(idx).unwrap_or(usize::MAX);
            if let Some(conn) = self.slots.get_mut(i).and_then(|s| s.conn.as_mut()) {
                let chunk = &self.scratch[..nread];
                conn.buf.push(chunk, &mut frames);
            }
        }
        for frame in frames.drain(..) {
            if !self.slot_occupied(idx) {
                break;
            }
            let busy = self
                .conn_mut(idx)
                .map(|c| c.inflight || !c.pending.is_empty())
                .unwrap_or(true);
            if busy {
                if let Some(conn) = self.conn_mut(idx) {
                    conn.pending.push_back(frame);
                }
            } else {
                self.process_frame(idx, frame);
            }
        }
        self.frames = frames;
        if self.slot_occupied(idx) {
            self.update_interest(idx);
        }
    }

    fn process_frame(&mut self, idx: u32, frame: Frame) {
        let id = self.conn_id(idx);
        let action = match frame {
            Frame::Line(line) => self.handler.on_line(id, line),
            Frame::Overflow => self.handler.on_overflow(id),
        };
        match action {
            LineAction::Ignore => {}
            LineAction::Respond(bytes) => self.queue_write(idx, bytes),
            LineAction::Dispatch => {
                if let Some(conn) = self.conn_mut(idx) {
                    conn.inflight = true;
                }
            }
            LineAction::Close(bytes) => {
                if let Some(conn) = self.conn_mut(idx) {
                    conn.close_after_flush = true;
                }
                self.queue_write(idx, bytes);
            }
        }
    }

    // -- writes ------------------------------------------------------------

    fn queue_write(&mut self, idx: u32, bytes: Vec<u8>) {
        let cap = self.cfg.max_write_buffer_bytes;
        let overflow = match self.conn_mut(idx) {
            Some(conn) => {
                conn.out.extend_from_slice(&bytes);
                conn.out_len() > cap
            }
            None => return,
        };
        if overflow {
            // Slow consumer: the peer is not draining responses.
            self.close_conn(idx);
            return;
        }
        self.flush_out(idx);
    }

    /// Writes as much of `out` as the socket accepts right now.
    fn flush_out(&mut self, idx: u32) {
        let now = self.now_ms();
        loop {
            let Some(conn) = self.conn_mut(idx) else {
                return;
            };
            if conn.out_pos >= conn.out.len() {
                conn.out.clear();
                conn.out_pos = 0;
                break;
            }
            let res = {
                let span = &conn.out[conn.out_pos..];
                conn.stream.write(span)
            };
            match res {
                Ok(0) => {
                    self.close_conn(idx);
                    return;
                }
                Ok(n) => {
                    conn.out_pos += n;
                    conn.last_activity_ms = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(idx);
                    return;
                }
            }
        }
        let done = {
            let Some(conn) = self.conn_mut(idx) else {
                return;
            };
            if conn.out_pos >= COMPACT_AT && conn.out_pos < conn.out.len() {
                conn.out.drain(..conn.out_pos);
                conn.out_pos = 0;
            }
            conn.out_len() == 0 && conn.close_after_flush
        };
        if done {
            self.close_conn(idx);
            return;
        }
        self.maybe_finish(idx);
        if self.slot_occupied(idx) {
            self.update_interest(idx);
        }
    }

    // -- completions from workers -------------------------------------------

    fn drain_completions(&mut self) {
        let done = {
            let mut g = self.handle.inner.completions.lock();
            std::mem::take(&mut *g)
        };
        for (id, bytes) in done {
            if self.conn_id(id.idx) != id {
                continue; // connection died and/or slot was reused
            }
            if let Some(conn) = self.conn_mut(id.idx) {
                conn.inflight = false;
            }
            self.queue_write(id.idx, bytes);
            self.pump_pending(id.idx);
        }
    }

    /// Serves queued pipelined lines until one dispatches (or none left).
    fn pump_pending(&mut self, idx: u32) {
        loop {
            let frame = {
                let Some(conn) = self.conn_mut(idx) else {
                    return;
                };
                if conn.inflight {
                    break;
                }
                match conn.pending.pop_front() {
                    Some(f) => f,
                    None => break,
                }
            };
            self.process_frame(idx, frame);
        }
        self.maybe_finish(idx);
        if self.slot_occupied(idx) {
            self.update_interest(idx);
        }
    }

    /// Closes a drained connection whose peer has already gone away.
    fn maybe_finish(&mut self, idx: u32) {
        let finished = self
            .conn_mut(idx)
            .map(|c| c.read_closed && !c.inflight && c.pending.is_empty() && c.out_len() == 0)
            .unwrap_or(false);
        if finished {
            self.close_conn(idx);
        }
    }

    // -- reaper --------------------------------------------------------------

    fn sweep(&mut self) {
        let now = self.now_ms();
        let idle_ms = self.cfg.idle_timeout.map(|d| {
            let ms = d.as_millis();
            u64::try_from(ms).unwrap_or(u64::MAX)
        });
        let stall_ms = self.cfg.write_stall_timeout.map(|d| {
            let ms = d.as_millis();
            u64::try_from(ms).unwrap_or(u64::MAX)
        });
        let mut reap = Vec::new();
        let mut read_bytes: u64 = 0;
        let mut write_bytes: u64 = 0;
        for (i, slot) in self.slots.iter().enumerate() {
            let Some(conn) = slot.conn.as_ref() else {
                continue;
            };
            read_bytes += u64::try_from(conn.buf.pending_bytes()).unwrap_or(0);
            write_bytes += u64::try_from(conn.out_len()).unwrap_or(0);
            let idle_for = now.saturating_sub(conn.last_activity_ms);
            let partial_stalled = conn.buf.has_partial() && idle_ms.is_some_and(|t| idle_for > t);
            let write_stalled = conn.out_len() > 0 && stall_ms.is_some_and(|t| idle_for > t);
            if partial_stalled || write_stalled {
                if let Ok(idx) = u32::try_from(i) {
                    reap.push(idx);
                }
            }
        }
        self.stats()
            .read_buffer_bytes
            .store(read_bytes, Ordering::Relaxed);
        self.stats()
            .write_buffer_bytes
            .store(write_bytes, Ordering::Relaxed);
        for idx in reap {
            self.stats()
                .conns_reaped_total
                .fetch_add(1, Ordering::Relaxed);
            self.close_conn(idx);
        }
    }

    // -- teardown ------------------------------------------------------------

    fn close_conn(&mut self, idx: u32) {
        let i = usize::try_from(idx).unwrap_or(usize::MAX);
        let Some(slot) = self.slots.get_mut(i) else {
            return;
        };
        let Some(conn) = slot.conn.take() else {
            return;
        };
        let id = ConnId { idx, gen: slot.gen };
        slot.gen = slot.gen.wrapping_add(1);
        let _ = self.epoll.del(conn.stream.as_raw_fd());
        drop(conn); // closes the socket
        self.free.push(idx);
        self.open = self.open.saturating_sub(1);
        self.stats()
            .conns_closed_total
            .fetch_add(1, Ordering::Relaxed);
        self.handler.on_close(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;
    use std::sync::mpsc;

    /// Echoes every line back prefixed with `+`; dispatches lines that
    /// start with `@` to a worker channel; closes on `quit`.
    struct EchoHandler {
        jobs: Option<mpsc::Sender<(ConnId, String)>>,
        max_open: usize,
    }

    impl Handler for EchoHandler {
        fn on_open(&mut self, _conn: ConnId, open: usize) -> Open {
            if open > self.max_open {
                Open::Reject(b"-full\n".to_vec())
            } else {
                Open::Accept
            }
        }
        fn on_line(&mut self, conn: ConnId, line: String) -> LineAction {
            if line == "quit" {
                return LineAction::Close(b"-bye\n".to_vec());
            }
            if let Some(rest) = line.strip_prefix('@') {
                if let Some(tx) = &self.jobs {
                    if tx.send((conn, rest.to_string())).is_ok() {
                        return LineAction::Dispatch;
                    }
                }
                return LineAction::Respond(b"-nojobs\n".to_vec());
            }
            LineAction::Respond(format!("+{line}\n").into_bytes())
        }
        fn on_overflow(&mut self, _conn: ConnId) -> LineAction {
            LineAction::Respond(b"-too_large\n".to_vec())
        }
    }

    struct Rig {
        addr: std::net::SocketAddr,
        handle: ReactorHandle,
        thread: Option<std::thread::JoinHandle<()>>,
        worker: Option<std::thread::JoinHandle<()>>,
    }

    impl Rig {
        fn start(cfg: ReactorConfig, max_open: usize) -> Rig {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let (tx, rx) = mpsc::channel::<(ConnId, String)>();
            let handler = EchoHandler {
                jobs: Some(tx),
                max_open,
            };
            let mut reactor = Reactor::new(listener, cfg, handler).unwrap();
            let handle = reactor.handle();
            let wh = handle.clone();
            let worker = std::thread::spawn(move || {
                while let Ok((conn, payload)) = rx.recv() {
                    wh.complete(conn, format!("={payload}\n").into_bytes());
                }
            });
            let thread = std::thread::spawn(move || {
                reactor.run().unwrap();
            });
            Rig {
                addr,
                handle,
                thread: Some(thread),
                worker: Some(worker),
            }
        }

        fn stop(&mut self) {
            self.handle.shutdown();
            if let Some(t) = self.thread.take() {
                t.join().unwrap();
            }
            if let Some(w) = self.worker.take() {
                w.join().unwrap();
            }
        }
    }

    impl Drop for Rig {
        fn drop(&mut self) {
            if self.thread.is_some() {
                self.stop();
            }
        }
    }

    fn fast_cfg() -> ReactorConfig {
        ReactorConfig {
            poll_interval: Duration::from_millis(5),
            max_line_bytes: 64,
            ..ReactorConfig::default()
        }
    }

    fn send_recv(stream: &mut TcpStream, line: &str) -> String {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut out = String::new();
        reader.read_line(&mut out).unwrap();
        out
    }

    #[test]
    fn echo_and_dispatch_roundtrip() {
        let mut rig = Rig::start(fast_cfg(), 64);
        let mut s = TcpStream::connect(rig.addr).unwrap();
        assert_eq!(send_recv(&mut s, "hello"), "+hello\n");
        assert_eq!(send_recv(&mut s, "@work"), "=work\n");
        assert_eq!(send_recv(&mut s, "after"), "+after\n");
        rig.stop();
    }

    #[test]
    fn pipelined_lines_answer_in_order() {
        let mut rig = Rig::start(fast_cfg(), 64);
        let mut s = TcpStream::connect(rig.addr).unwrap();
        s.write_all(b"@a\nb\n@c\nd\n").unwrap();
        let mut reader = BufReader::new(s.try_clone().unwrap());
        let mut got = Vec::new();
        for _ in 0..4 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            got.push(line);
        }
        assert_eq!(got, vec!["=a\n", "+b\n", "=c\n", "+d\n"]);
        rig.stop();
    }

    #[test]
    fn oversized_line_rejected_and_connection_survives() {
        let mut rig = Rig::start(fast_cfg(), 64);
        let mut s = TcpStream::connect(rig.addr).unwrap();
        let long = "x".repeat(200);
        assert_eq!(send_recv(&mut s, &long), "-too_large\n");
        assert_eq!(send_recv(&mut s, "ok"), "+ok\n");
        rig.stop();
    }

    #[test]
    fn admission_rejection_is_flushed_then_closed() {
        let mut rig = Rig::start(fast_cfg(), 1);
        let _held = TcpStream::connect(rig.addr).unwrap();
        // Give the loop a beat to register the first connection.
        std::thread::sleep(Duration::from_millis(50));
        let s = TcpStream::connect(rig.addr).unwrap();
        let mut reader = BufReader::new(s);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "-full\n");
        // EOF follows the rejection line.
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "");
        rig.stop();
    }

    #[test]
    fn partial_line_staller_is_reaped_but_idle_conn_survives() {
        let cfg = ReactorConfig {
            idle_timeout: Some(Duration::from_millis(100)),
            poll_interval: Duration::from_millis(5),
            ..ReactorConfig::default()
        };
        let mut rig = Rig::start(cfg, 64);
        let mut idle = TcpStream::connect(rig.addr).unwrap();
        let mut staller = TcpStream::connect(rig.addr).unwrap();
        staller.write_all(b"no newline here").unwrap();
        // Wait past the deadline plus a sweep period.
        std::thread::sleep(Duration::from_millis(450));
        assert_eq!(
            rig.handle
                .stats()
                .conns_reaped_total
                .load(Ordering::Relaxed),
            1
        );
        // The staller sees EOF; the idle connection still works.
        let mut reader = BufReader::new(staller.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "");
        assert_eq!(send_recv(&mut idle, "alive"), "+alive\n");
        rig.stop();
    }

    #[test]
    fn abrupt_close_mid_dispatch_drops_completion_safely() {
        let mut rig = Rig::start(fast_cfg(), 64);
        {
            let mut s = TcpStream::connect(rig.addr).unwrap();
            s.write_all(b"@slow\n").unwrap();
            // Drop without reading: completion arrives for a dead conn.
        }
        std::thread::sleep(Duration::from_millis(100));
        // A fresh connection (likely reusing the slot) still behaves.
        let mut s2 = TcpStream::connect(rig.addr).unwrap();
        assert_eq!(send_recv(&mut s2, "ping"), "+ping\n");
        rig.stop();
    }

    #[test]
    fn shutdown_closes_connections_and_joins() {
        let mut rig = Rig::start(fast_cfg(), 64);
        let s = TcpStream::connect(rig.addr).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        rig.stop();
        let mut reader = BufReader::new(s);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "");
    }
}
