//! datAcron reproduction: a network-facing query & ingest server over the
//! pipeline.
//!
//! The datAcron architecture (EDBT 2017, §6) exposes the integrated
//! processing chain — in-situ trajectory compression, complex event
//! recognition, and the RDF knowledge graph — to downstream consumers.
//! This crate is that serving layer for the reproduction: a dependency-light
//! TCP server (one epoll reactor from `datacron-net`, a fixed worker pool
//! behind a crossbeam queue, no async runtime) speaking newline-delimited
//! JSON.
//!
//! # Protocol
//!
//! One JSON object per line in each direction; see [`protocol`] for the
//! request grammar. Supported types: `ingest`, `sparql`, `heatmap`,
//! `flows`, `hotspots`, `events`, `stats`, `metrics`, `slowlog`, and
//! the replication trio `repl_subscribe` / `repl_frame` / `repl_status`
//! (see [`repl`]: a durable server is a leader shipping WAL frames;
//! `--follow` turns a process into a read replica).
//!
//! # Architecture
//!
//! ```text
//!            ┌────────────── reactor thread (all socket I/O) ──────────────┐
//! clients ──▶│ accept · read · frame lines        write replies ◀── handback │
//!            └──────┬───────────────────────────────────────────────▲───────┘
//!                   │ request lines                                 │ replies
//!                   ▼                                               │
//!             bounded queue ──▶ worker pool ──▶ RwLock<AnalyticsState>
//!                   │ full?                         │write: ingest ─▶ WAL, group commit
//!                   └──▶ immediate "busy" reply     │read : queries
//! ```
//!
//! The reactor owns every connection; workers only execute requests, and
//! every reply goes back through the reactor's completion queue from one
//! place, `Completion::finish` — called by the worker, or for a durable
//! ingest off the WAL's commit watermark (by the flusher thread when the
//! ack has to wait for a flush, under every `--fsync` policy). Admission
//! control is explicit: a full queue answers that one
//! request with an immediate `busy` error (the HTTP-429 analogue) and the
//! connection survives, so p99 latency stays bounded under overload —
//! measured end to end by the companion `loadgen` binary (experiment E13).

#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod json;
pub mod protocol;
pub mod repl;
pub mod server;
pub mod state;

pub use client::Client;
pub use json::Json;
pub use protocol::{Envelope, ErrorCode, ProtocolError, Request};
pub use repl::{ReplRuntime, ReplicationConfig};
pub use server::{start, start_with_clock, ServerConfig, ServerHandle, ServerMetrics};
pub use state::AnalyticsState;
