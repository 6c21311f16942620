//! Spatiotemporal geometry substrate for the datAcron reproduction.
//!
//! Every other crate in the workspace builds on the primitives defined here:
//!
//! * [`GeoPoint`] / [`GeoPoint3`] — positions on a spherical Earth, with
//!   great-circle distance, bearing and destination-point math.
//! * [`BoundingBox`] — axis-aligned spatial envelopes.
//! * [`Polygon`] — simple polygons with point-in-polygon tests (used for
//!   zones of interest: ports, sectors, protected areas).
//! * [`Grid`] / [`CellId`] — equi-angular space tiling used for blocking in
//!   link discovery, Markov-grid forecasting, the CEP pair detectors' cell
//!   indexes and heatmap aggregation.
//! * [`TimeMs`] / [`TimeInterval`] — millisecond timestamps and intervals
//!   with the Allen interval relations.
//!
//! Two utilities every crate above shares live here too, because this is
//! the one crate they all depend on: the seeded generator [`Rng`] and the
//! fast non-keyed hasher behind [`FxHashMap`] / [`FxHashSet`].
//!
//! The Earth model is a sphere of radius [`EARTH_RADIUS_M`]; at the accuracy
//! relevant to surveillance analytics (tens of metres) the difference from an
//! ellipsoid is immaterial and the math stays transparent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bbox;
pub mod grid;
pub mod hash;
pub mod interp;
pub mod point;
pub mod polygon;
pub mod rng;
pub mod time;
pub mod units;

pub use bbox::BoundingBox;
pub use grid::{CellId, Grid};
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use interp::{lerp, point_along, position3_at_time, position_at_time};
pub use point::{GeoPoint, GeoPoint3, EARTH_RADIUS_M};
pub use polygon::Polygon;
pub use rng::Rng;
pub use time::{AllenRelation, TimeInterval, TimeMs};
