//! A spatiotemporal RDF store with partitioning and parallel querying.
//!
//! datAcron's query-answering component "provides parallel query processing
//! techniques for spatio-temporal query languages over interlinked data
//! stored in parallel RDF stores, using sophisticated RDF partitioning
//! algorithms". This crate is that component, scaled to a multi-core
//! machine:
//!
//! * [`term`] / [`dict`] — RDF terms (IRIs, plain/typed literals including
//!   **point** and **time** literals) and dictionary encoding onto dense
//!   `u32` ids;
//! * [`store`] — a triple store with SPO/POS/OSP sorted indexes, bulk load
//!   and incremental insert (each index is a sorted base plus a small
//!   delta: a commit merges its sorted batch into the delta, which folds
//!   into the base once it grows past a fixed share of it);
//! * [`index`] — secondary **spatial** (R-tree) and **temporal** (sorted
//!   run) indexes over typed literals, powering filter pushdown;
//! * [`query`] / [`parser`] — a SPARQL-subset AST and text syntax:
//!   `SELECT ?v … WHERE { basic graph pattern }` plus `FILTER` comparisons
//!   and the spatiotemporal builtins `st_within`, `st_near`, `t_between`;
//! * [`engine`] — result and statistics types, the single-threaded
//!   [`execute`] entry point (the morsel executor with one inline worker)
//!   and [`execute_reference`], the unoptimised oracle the suites compare
//!   against;
//! * [`morsel`] — the one optimised BGP engine: greedy join ordering from
//!   index statistics, spatial/temporal pushdown, index nested loops over
//!   fixed-size seed-scan morsels on a work-stealing pool, reusable flat
//!   binding buffers, eager filters and hinted probes;
//! * [`partition`] — the partitioning algorithms under evaluation: hash by
//!   subject, spatial grid by subject home location, temporal range;
//! * [`parallel`] — a partitioned store that answers subject-star queries
//!   exactly, one partition after another on the morsel pool (pruned by
//!   each partition's own spatial and temporal indexes), and
//!   refuses every other query shape ([`NotAStar`]);
//! * [`ntriples`] / [`binary`] — text and compact binary serialization of
//!   a whole graph (dictionary included), the formats the storage layer
//!   snapshots and the durability tests round-trip.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod binary;
pub mod dict;
pub mod engine;
pub mod index;
mod merge;
pub mod morsel;
pub mod ntriples;
pub mod parallel;
pub mod parser;
pub mod partition;
pub mod query;
pub mod store;
pub mod term;

pub use binary::{from_binary, to_binary};
pub use dict::{Dictionary, TermId};
pub use engine::{execute, execute_reference, Bindings, QueryStats};
pub use morsel::{execute_morsel, MorselConfig, MorselStats, DEFAULT_MORSEL_TRIPLES};
pub use ntriples::{from_ntriples, to_ntriples};
pub use parallel::{DecodedBindings, NotAStar, PartitionedStats, PartitionedStore};
pub use parser::parse_query;
pub use partition::{HashPartitioner, Partitioner, SpatialGridPartitioner, TemporalPartitioner};
pub use query::{FilterExpr, PatternTerm, SelectQuery, TriplePattern};
pub use store::{Graph, PatternSlice, PredicateStats, ProbeHint, Triple};
pub use term::{Literal, Term};
