//! The end-to-end datAcron pipeline.
//!
//! This crate wires the architecture of the paper together, stage by stage:
//!
//! ```text
//! data sources ──► in-situ processing ──► transformation ──► RDF store
//!   (sim)           (cleanse, synopses,     (ontology          (query
//!                    compression)            mapping)           answering)
//!                        │
//!                        └─► event recognition & forecasting ──► visual
//!                            (CEP detectors, CPA, hotspots)       analytics
//! ```
//!
//! [`Pipeline`] is the single-process façade: feed it observed reports in
//! delivery order, get recognised events out, with every stage's latency
//! measured (the paper's "operational latency requirements (i.e. in ms)").
//! `tests/integration_pipeline.rs` runs the same façade as one stage of
//! the `datacron-stream` runtime (`FlatMapOp` over [`Pipeline::process`]),
//! the threaded deployment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod pipeline;
pub mod sync;

pub use datacron_transform::MapperState;
pub use pipeline::{
    IngestOutcome, Pipeline, PipelineConfig, PipelineMetrics, PipelineState, PolygonSpec,
    StageLatency,
};
pub use sync::{TrackedMutex, TrackedRwLock};
