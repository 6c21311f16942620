//! In-situ stream processing: the paper's data-compression component.
//!
//! datAcron's in-situ processing "compresses and integrates data at high
//! rates of data compression without affecting the quality of analytics,
//! capitalizing on primitive operators that are applied directly on the data
//! streams". This crate implements those primitive operators:
//!
//! * **noise filtering** ([`filter`]) — implausible-coordinate rejection,
//!   duplicate suppression and speed-jump outlier removal, applied per
//!   object directly on the raw stream;
//! * **critical-point detection** ([`critical`]) — the synopsis proper:
//!   track start/end, stop start/end, turning points, speed changes,
//!   communication gaps and (aviation) takeoff/landing/level-off;
//! * **threshold compression** ([`compress`]) — dead-reckoning compression
//!   that keeps a report only when it deviates from the kinematic
//!   prediction, plus offline Douglas–Peucker as the classical baseline;
//! * **quality metrics** ([`quality`]) — compression ratio and synchronized
//!   Euclidean distance (SED) error between original and reconstructed
//!   trajectories, the measures behind experiment E1/E2.
//!
//! Everything is a plain per-report method plus a batch form over slices.
//! `crates/bench/tests/claims.rs` pins what they keep and the error they
//! cost on a seeded world (E1, E2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod compress;
pub mod critical;
pub mod filter;
pub mod quality;

pub use compress::{douglas_peucker, DeadReckoningCompressor};
pub use critical::{CriticalKind, CriticalPoint, CriticalPointDetector, SynopsisConfig};
pub use filter::{CleanseStats, Cleanser};
pub use quality::{compression_ratio, sed_error, SedStats};
