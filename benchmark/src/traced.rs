//! The traced run's in-process half: the same seeded request lines go
//! through each layer's public functions, single-threaded, with a span
//! around every call. The order of calls is `Pipeline::process`'s and
//! `AnalyticsState::ingest`'s; the counters are checked against the real
//! `Pipeline` so the replay cannot drift from the work the server does.

use crate::gen::{Batch, Query, QueryKind};
use crate::reference::{self, Counters};
use crate::trace::{Total, Tracer};
use datacron_cep::{
    critical_to_event, CpaDetector, DarkActivityDetector, DriftingDetector, LoiteringDetector,
    RendezvousDetector, ZoneTracker,
};
use datacron_core::{Pipeline, PipelineConfig};
use datacron_geo::{GeoPoint, Grid, Polygon};
use datacron_model::{EventRecord, PositionReport};
use datacron_rdf::{parse_query, Graph, HashPartitioner, PartitionedStore};
use datacron_server::protocol::ok_response;
use datacron_server::{codec, AnalyticsState, Json};
use datacron_synopses::{
    Cleanser, CriticalKind, CriticalPoint, CriticalPointDetector, DeadReckoningCompressor,
};
use datacron_transform::RdfMapper;
use datacron_viz::DensityGrid;
use std::collections::BTreeMap;
use std::time::Instant;

/// Spans per report (five stages) plus per-batch ones, with headroom.
pub fn span_capacity(batches: usize, batch_reports: usize) -> usize {
    batches * (batch_reports * 6 + 16)
}

/// The ingest path, layer by layer.
struct Layers {
    config: PipelineConfig,
    cleanser: Cleanser,
    compressor: DeadReckoningCompressor,
    critical: CriticalPointDetector,
    zones: ZoneTracker,
    loitering: LoiteringDetector,
    drifting: DriftingDetector,
    dark: DarkActivityDetector,
    rendezvous: RendezvousDetector,
    cpa: CpaDetector,
    mapper: RdfMapper,
    graph: Graph,
    mirror: PartitionedStore,
    heat: DensityGrid,
    points: Vec<CriticalPoint>,
    counters: Counters,
}

impl Layers {
    fn new() -> Layers {
        let config = reference::serve_config();
        let zones = config
            .zones
            .iter()
            .filter_map(|(name, spec)| {
                let ring = spec
                    .0
                    .iter()
                    .map(|&(lon, lat)| GeoPoint::new(lon, lat))
                    .collect();
                Polygon::new(ring).map(|p| (name.clone(), p))
            })
            .collect();
        let mut graph = Graph::new();
        graph.track_new_triples(true);
        let grid = Grid::new(config.region, reference::HEAT_CELL_DEG)
            .expect("the serve region is not degenerate");
        Layers {
            cleanser: Cleanser::new(config.max_speed_mps),
            compressor: DeadReckoningCompressor::new(config.dr_threshold_m),
            critical: CriticalPointDetector::new(config.synopsis),
            zones: ZoneTracker::new(zones),
            loitering: LoiteringDetector::default(),
            drifting: DriftingDetector::default(),
            dark: DarkActivityDetector::new(config.dark_gap_ms),
            rendezvous: RendezvousDetector::new(config.region),
            cpa: CpaDetector::default(),
            mapper: RdfMapper::new(),
            graph,
            mirror: PartitionedStore::empty(Box::new(HashPartitioner::new(
                reference::SPARQL_PARTITIONS,
            ))),
            heat: DensityGrid::new(grid),
            points: Vec::new(),
            counters: Counters::default(),
            config,
        }
    }

    /// One ingest request, from the line to the reply.
    fn request(&mut self, t: &mut Tracer, line: &str) {
        t.next_request();
        t.enter("server.request");
        t.enter("server.json_parse");
        let reports = reference::parse_batch(line);
        t.exit();
        t.enter("server.codec_encode");
        std::hint::black_box(codec::encode_batch(&reports));
        t.exit();

        t.enter("server.state_ingest");
        t.enter("core.ingest_batch");
        let before = self.counters;
        for r in &reports {
            self.report(t, r);
        }
        t.enter("rdf.commit");
        self.graph.commit();
        t.exit();
        let new_triples = self.graph.take_new_triples();
        t.exit();
        t.enter("rdf.mirror_sync");
        self.mirror.ingest(&self.graph, &new_triples);
        t.exit();
        t.enter("viz.update");
        for r in &reports {
            self.heat.add(&r.position());
        }
        t.exit();
        t.exit();

        t.enter("server.json_serialize");
        let after = self.counters;
        std::hint::black_box(ok_response(
            &Json::Null,
            vec![
                ("accepted".into(), Json::from(reports.len() as u64)),
                ("clean".into(), Json::from(after.clean - before.clean)),
                ("kept".into(), Json::from(after.kept - before.kept)),
                ("events".into(), Json::from(after.events - before.events)),
                ("triples".into(), Json::from(after.triples - before.triples)),
            ],
        ));
        t.exit();
        t.exit();
    }

    /// `Pipeline::process`, stage by stage.
    fn report(&mut self, t: &mut Tracer, r: &PositionReport) {
        self.counters.reports_in += 1;
        t.enter("synopses.cleanse");
        let clean = self.cleanser.check(r);
        t.exit();
        if !clean {
            return;
        }
        self.counters.clean += 1;

        t.enter("synopses.compress");
        let kept = self.compressor.check(r);
        t.exit();
        t.enter("synopses.critical");
        self.points.clear();
        self.critical.update(r, &mut self.points);
        t.exit();
        self.counters.kept += u64::from(kept);

        t.enter("cep.detect");
        let mut events: Vec<EventRecord> = self.zones.update(r);
        events.extend(self.loitering.update(r));
        events.extend(self.drifting.update(r));
        events.extend(self.rendezvous.update(r));
        events.extend(self.cpa.update(r));
        for point in &self.points {
            if let Some(low) = critical_to_event(point) {
                events.extend(self.dark.update(&low));
                events.push(low);
            }
        }
        t.exit();
        self.counters.events += events.len() as u64;

        if self.config.enable_rdf {
            t.enter("transform.map");
            if kept {
                let annotation = self.points.first().map(|point| match point.kind {
                    CriticalKind::Turn => "turn",
                    CriticalKind::StopStart => "stop_start",
                    CriticalKind::StopEnd => "stop_end",
                    CriticalKind::SpeedChange => "speed_change",
                    CriticalKind::GapStart => "gap_start",
                    CriticalKind::GapEnd => "gap_end",
                    _ => "sample",
                });
                self.mapper.map_report(&mut self.graph, r, annotation);
            }
            if self.config.rdf_events {
                for e in &events {
                    self.mapper.map_event(&mut self.graph, e);
                }
            }
            self.counters.triples = self.mapper.triples_emitted();
            t.exit();
        }
    }
}

pub struct LayerMetrics {
    /// Metric name to value; units are the benchmark's (`BENCHMARK.json`).
    pub values: BTreeMap<String, f64>,
    /// The layer-by-layer replay counted differently from `Pipeline`.
    pub mismatch: Option<String>,
    pub tracer: Tracer,
}

/// A span's total time per `divisor` things, in units of `unit_ns`.
fn per(total: Option<&Total>, divisor: u64, unit_ns: f64) -> f64 {
    match total {
        Some(t) if divisor > 0 => t.ns as f64 / unit_ns / divisor as f64,
        _ => 0.0,
    }
}

/// A span's mean duration, microseconds.
fn span_mean_us(total: Option<&Total>) -> f64 {
    per(total, total.map_or(0, |t| t.count), 1e3)
}

/// Replays `batches` traced and untraced, then traces `queries` against
/// the state the batches built.
pub fn run(batches: &[Batch], queries: &[Query]) -> LayerMetrics {
    let mut t = Tracer::with_capacity(
        span_capacity(batches.len(), crate::gen::BATCH_REPORTS) + queries.len() * 4,
    );
    let mut layers = Layers::new();
    for b in batches {
        layers.request(&mut t, &b.line);
    }

    // The same batches through the real pipeline, untraced: the reference
    // for the counters and for what tracing costs.
    let parsed: Vec<Vec<PositionReport>> = batches
        .iter()
        .map(|b| reference::parse_batch(&b.line))
        .collect();
    let mut pipeline = Pipeline::new(reference::serve_config());
    pipeline.track_new_triples(true);
    let untraced = Instant::now();
    for reports in &parsed {
        std::hint::black_box(pipeline.ingest_batch(reports));
    }
    let untraced_ns = untraced.elapsed().as_nanos() as u64;
    let want = Counters::of(&pipeline);
    let mismatch = (want != layers.counters).then(|| {
        format!(
            "traced replay counted {:?}, Pipeline counted {want:?}",
            layers.counters
        )
    });

    let mut state = reference::new_state();
    for reports in &parsed {
        state.ingest(reports);
    }
    trace_queries(&mut t, &state, queries);

    let totals = t.totals();
    let n_batches = batches.len() as u64;
    let c = layers.counters;
    let mut values = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        values.insert(name.to_string(), v);
    };
    put(
        "server.json_parse_us_per_batch",
        per(totals.get("server.json_parse"), n_batches, 1e3),
    );
    put(
        "server.codec_encode_us_per_batch",
        per(totals.get("server.codec_encode"), n_batches, 1e3),
    );
    put(
        "server.json_serialize_us_per_resp",
        span_mean_us(totals.get("server.json_serialize")),
    );
    put(
        "server.state_ingest_us_per_batch",
        per(totals.get("server.state_ingest"), n_batches, 1e3),
    );
    put(
        "core.ingest_batch_us",
        per(totals.get("core.ingest_batch"), n_batches, 1e3),
    );
    put(
        "core.self_us_per_batch",
        totals
            .get("core.ingest_batch")
            .map_or(0.0, |s| s.self_ns as f64 / 1e3 / n_batches.max(1) as f64),
    );
    put(
        "synopses.cleanse_ns_per_report",
        per(totals.get("synopses.cleanse"), c.reports_in, 1.0),
    );
    put(
        "synopses.compress_ns_per_report",
        per(totals.get("synopses.compress"), c.clean, 1.0),
    );
    put(
        "synopses.critical_ns_per_report",
        per(totals.get("synopses.critical"), c.clean, 1.0),
    );
    put(
        "cep.detect_ns_per_report",
        per(totals.get("cep.detect"), c.clean, 1.0),
    );
    put(
        "transform.map_ns_per_kept_report",
        per(totals.get("transform.map"), c.kept, 1.0),
    );
    put(
        "transform.triples_per_kept_report",
        c.triples as f64 / c.kept.max(1) as f64,
    );
    put(
        "rdf.mirror_sync_us_per_batch",
        per(totals.get("rdf.mirror_sync"), n_batches, 1e3),
    );
    put(
        "viz.update_ns_per_report",
        per(totals.get("viz.update"), c.reports_in, 1.0),
    );
    let commits: Vec<u64> = t
        .spans()
        .iter()
        .filter(|s| s.name == "rdf.commit")
        .map(|s| s.end_ns - s.start_ns)
        .collect();
    let quarter = (commits.len() / 4).max(1).min(commits.len());
    let mean_us = |v: &[u64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<u64>() as f64 / 1e3 / v.len() as f64
        }
    };
    put("rdf.commit_us_first_quarter", mean_us(&commits[..quarter]));
    put(
        "rdf.commit_us_last_quarter",
        mean_us(&commits[commits.len() - quarter..]),
    );
    put(
        "rdf.bytes_per_triple",
        datacron_rdf::to_binary(&layers.graph).len() as f64 / layers.graph.len().max(1) as f64,
    );
    for shape in [
        QueryKind::Lookup,
        QueryKind::Star3,
        QueryKind::Spatial,
        QueryKind::Temporal,
    ] {
        let name: &'static str = parse_span(shape);
        put(
            &format!("rdf.parse_us.{}", shape.name()),
            span_mean_us(totals.get(name)),
        );
    }
    for (metric, span) in [
        ("viz.heatmap_us", "viz.heatmap"),
        ("viz.hotspots_us", "viz.hotspots"),
        ("viz.flows_us", "viz.flows"),
    ] {
        put(metric, span_mean_us(totals.get(span)));
    }
    let traced_ns = totals.get("core.ingest_batch").map_or(0, |s| s.ns);
    put(
        "trace.overhead_ratio",
        traced_ns as f64 / untraced_ns.max(1) as f64,
    );
    LayerMetrics {
        values,
        mismatch,
        tracer: t,
    }
}

fn parse_span(shape: QueryKind) -> &'static str {
    match shape {
        QueryKind::Lookup => "rdf.parse.lookup",
        QueryKind::Star3 => "rdf.parse.star3",
        QueryKind::Spatial => "rdf.parse.spatial",
        _ => "rdf.parse.temporal",
    }
}

/// The read path's layers: the query parser, the state's handlers (which
/// plan and execute inside one call; the server reports that split itself
/// in each reply), and the reply serialisation.
fn trace_queries(t: &mut Tracer, state: &AnalyticsState, queries: &[Query]) {
    for q in queries {
        t.next_request();
        t.enter("server.request");
        let result = match q.kind {
            QueryKind::Heatmap => {
                t.enter("viz.heatmap");
                let r = state.heatmap(crate::gen::VIZ_TOP_K as usize);
                t.exit();
                r
            }
            QueryKind::Hotspots => {
                t.enter("viz.hotspots");
                let r = state.hotspots(crate::gen::VIZ_TOP_K as usize);
                t.exit();
                r
            }
            QueryKind::Flows => {
                t.enter("viz.flows");
                let r = state.flows(crate::gen::FLOWS_TOP_K as usize);
                t.exit();
                r
            }
            QueryKind::Events => {
                t.enter("server.state_events");
                let r = state.events(crate::gen::EVENTS_LIMIT as usize, None);
                t.exit();
                r
            }
            shape => {
                t.enter(parse_span(shape));
                std::hint::black_box(parse_query(&q.sparql).expect("generated query parses"));
                t.exit();
                t.enter("server.state_sparql");
                let r = state
                    .sparql(&q.sparql, crate::gen::ROW_LIMIT as usize)
                    .expect("generated query runs");
                t.exit();
                r
            }
        };
        t.enter("server.json_serialize");
        std::hint::black_box(ok_response(&Json::Null, vec![("result".into(), result)]));
        t.exit();
        t.exit();
    }
}
