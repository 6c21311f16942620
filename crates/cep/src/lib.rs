//! Complex event recognition and forecasting.
//!
//! datAcron's analytics must recognise and *forecast* "complex events and
//! patterns due to the movement of entities (e.g. prediction of potential
//! collision, capacity demand, hot spots / paths)". This crate provides:
//!
//! * [`nfa`] — a generic NFA pattern engine (sequence, Kleene, negation,
//!   `WITHIN` windows) with skip-till-next-match semantics;
//! * [`derive`] — low-level event derivation: critical points become
//!   [`datacron_model::EventRecord`]s, plus zone entry/exit detection;
//! * [`maritime`] — the maritime recognisers: loitering, rendezvous, dark
//!   activity, drifting and CPA/TCPA collision risk;
//! * [`aviation`] — the aviation recognisers: holding patterns, sector
//!   hotspots (capacity demand) and loss-of-separation risk;
//! * [`forecast`] — event *forecasting*: a pattern Markov chain estimating
//!   the probability that a partially-matched pattern completes within a
//!   bounded number of steps (experiment E9).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aviation;
pub mod derive;
mod fleet;
pub mod forecast;
mod horizon;
pub mod maritime;
pub mod nfa;
pub mod patterns;

pub use aviation::{HoldingDetector, SectorHotspotDetector, SeparationRiskDetector};
pub use derive::{critical_to_event, ZoneTracker};
pub use forecast::PatternMarkovChain;
pub use maritime::{
    CpaDetector, DarkActivityDetector, DriftingDetector, LoiteringDetector, RendezvousDetector,
};
pub use nfa::{Pattern, PatternElem, PatternMatch, Runs};
pub use patterns::{evasive_manoeuvre, missed_approach, suspicious_stop, KeyedPatterns};
