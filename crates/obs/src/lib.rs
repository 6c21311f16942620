//! datAcron reproduction: the observability substrate for the serving
//! path — one metrics registry, per-request trace spans, and a
//! slow-query log.
//!
//! The paper's C8 requires operational latencies "in ms", and the
//! visual-analytics layer (C7) presumes the system can explain its own
//! behaviour. This crate is the single scrape surface those requirements
//! need:
//!
//! * [`clock`] — the workspace's one [`Stopwatch`] and the injected
//!   [`ClockSource`] abstraction (the L4 `wallclock` lint forbids raw
//!   `Instant::now` in any other library file);
//! * [`histogram`] — the workspace's one log-bucket
//!   [`LatencyHistogram`];
//! * [`registry`] — named counters, gauges and histograms behind one
//!   [`Registry`] with label support and Prometheus-style text
//!   exposition;
//! * [`trace`] — lightweight per-request spans (queue wait, planning,
//!   exec, WAL append, serialize) that feed the slow-query log;
//! * [`slowlog`] — a fixed-capacity log of the N slowest requests with
//!   their span breakdowns.
//!
//! Dependency direction: `obs` depends on no workspace crate and sits
//! below everything that measures or reports — `net`, `rdf`, `core`,
//! `storage`, `stream` and `server` time through its [`Stopwatch`], and
//! the serving layers register into one [`Registry`] owned by the
//! embedding layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod histogram;
pub mod registry;
pub mod slowlog;
pub mod trace;

pub use clock::{ClockSource, ManualClock, MonotonicClock, Stopwatch};
pub use histogram::LatencyHistogram;
pub use registry::{Counter, Gauge, Registry, Sink};
pub use slowlog::{SlowLog, SlowLogEntry};
pub use trace::{Span, Trace};
