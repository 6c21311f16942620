//! An event-time stream-processing engine.
//!
//! datAcron runs its in-situ processing and event recognition on a
//! distributed streaming platform. This crate is the laptop-scale substitute
//! that preserves the semantics that matter to the analytics:
//!
//! * **event time & watermarks** — records carry event timestamps; sources
//!   are out-of-order; [`BoundedOutOfOrderness`] tracks progress and emits
//!   watermarks that drive window firing ([`message`], [`watermark`]);
//! * **operators** — map / filter / flat-map / keyed stateful process
//!   composed through the [`Operator`] trait ([`operator`]);
//! * **windows** — tumbling and sliding event-time windows with keyed
//!   aggregation and late-record accounting ([`window`]);
//! * **sharded parallel execution** — operators run on threads connected by
//!   bounded crossbeam channels (backpressure), with hash partitioning by
//!   key and watermark-aligned merging ([`runtime`]);
//! * **metrics** — per-stage throughput counters ([`metrics`]) beside
//!   `datacron-obs` latency histograms ([`InstrumentOp`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod message;
pub mod metrics;
pub mod operator;
pub mod runtime;
pub mod watermark;
pub mod window;

pub use message::{Message, Record};
pub use metrics::Throughput;
pub use operator::{Chain, FilterOp, FlatMapOp, InstrumentOp, KeyedProcessOp, MapOp, Operator};
pub use runtime::{
    collect_messages, merge_shards, run_source, shard_by_key, spawn_operator, StageHandle,
};
pub use watermark::{with_watermarks, BoundedOutOfOrderness};
pub use window::{
    Aggregator, CollectAgg, CountAgg, CountAny, KeyedWindowOp, WindowOutput, WindowSpec,
};
