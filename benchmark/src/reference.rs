//! The in-process reference the server's answers are checked against:
//! the same pipeline configuration as `datacron-serve`, fed the same
//! request lines.

use crate::gen::Batch;
use datacron_core::{Pipeline, PipelineConfig, PolygonSpec};
use datacron_geo::BoundingBox;
use datacron_model::PositionReport;
use datacron_server::protocol::{parse_request, Request};
use datacron_server::AnalyticsState;

// What `crates/server/src/bin/serve.rs` configures; the counter checks
// against the live server fail if the two drift apart.
pub const HEAT_CELL_DEG: f64 = 0.1;
pub const SPARQL_PARTITIONS: usize = 4;
pub const PARTITION_MIN_TRIPLES: usize = 10_000;
pub const QUERY_WORKERS: usize = 2;

pub fn serve_config() -> PipelineConfig {
    let rect = |lon0: f64, lat0: f64, lon1: f64, lat1: f64| {
        PolygonSpec(vec![(lon0, lat0), (lon1, lat0), (lon1, lat1), (lon0, lat1)])
    };
    PipelineConfig {
        region: BoundingBox::new(19.0, 33.0, 30.0, 41.0),
        zones: vec![
            ("piraeus".to_string(), rect(23.4, 37.8, 23.8, 38.1)),
            ("heraklion".to_string(), rect(24.9, 35.2, 25.4, 35.5)),
        ],
        ..PipelineConfig::default()
    }
}

pub fn new_state() -> AnalyticsState {
    let mut state = AnalyticsState::with_sparql_partitions(
        serve_config(),
        HEAT_CELL_DEG,
        SPARQL_PARTITIONS,
        PARTITION_MIN_TRIPLES,
    );
    state.set_query_workers(QUERY_WORKERS);
    state
}

/// The reports of an ingest line exactly as the server parses them.
pub fn parse_batch(line: &str) -> Vec<PositionReport> {
    match parse_request(line.trim_end()) {
        Ok(envelope) => match envelope.req {
            Request::Ingest { reports } => reports,
            other => panic!("generated line is not an ingest request: {}", other.tag()),
        },
        Err(e) => panic!("generated line does not parse: {}", e.msg),
    }
}

/// Lifetime pipeline counters, as `stats.pipeline` reports them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    pub reports_in: u64,
    pub clean: u64,
    pub kept: u64,
    pub events: u64,
    pub triples: u64,
}

impl Counters {
    pub fn of(p: &Pipeline) -> Counters {
        let m = p.metrics();
        Counters {
            reports_in: m.reports_in,
            clean: m.reports_clean,
            kept: m.reports_kept,
            events: m.events,
            triples: m.triples,
        }
    }

    /// `reports_in`, `clean` and `kept` depend on each vessel's own order
    /// only, which the lanes preserve, so they must match exactly. Events
    /// between vessels, and the triples mapped from them, depend on how the
    /// two connections interleaved; the reference replays the batches in
    /// the order they were acknowledged, which can differ from the order
    /// they were applied in by a batch here and there: within 1 %.
    pub fn mismatches(&self, server: &Counters) -> Vec<String> {
        let mut out = Vec::new();
        for (name, want, got) in [
            ("reports_in", self.reports_in, server.reports_in),
            ("clean", self.clean, server.clean),
            ("kept", self.kept, server.kept),
        ] {
            if want != got {
                out.push(format!("{name}: reference {want}, server {got}"));
            }
        }
        for (name, want, got) in [
            ("events", self.events, server.events),
            ("triples", self.triples, server.triples),
        ] {
            if want.abs_diff(got) as f64 > 0.01 * want.max(1) as f64 {
                out.push(format!(
                    "{name}: reference {want}, server {got} (more than 1 % apart)"
                ));
            }
        }
        out
    }
}

/// Feeds `batches` through a reference pipeline, committing once: the
/// counters do not depend on when the graph commits.
pub fn replay<'a>(batches: impl IntoIterator<Item = &'a Batch>) -> Pipeline {
    let mut pipeline = Pipeline::new(serve_config());
    let parsed: Vec<Vec<PositionReport>> =
        batches.into_iter().map(|b| parse_batch(&b.line)).collect();
    pipeline.ingest_batches(&parsed);
    pipeline
}
