//! The single-process pipeline with per-stage latency accounting.

use datacron_cep::{
    critical_to_event, CpaDetector, DarkActivityDetector, DriftingDetector, LoiteringDetector,
    RendezvousDetector, ZoneTracker,
};
use datacron_geo::{BoundingBox, GeoPoint, Polygon};
use datacron_model::{EventRecord, PositionReport};
use datacron_obs::{LatencyHistogram, Stopwatch};
use datacron_rdf::{Graph, Triple};
use datacron_synopses::{Cleanser, CriticalPointDetector, DeadReckoningCompressor, SynopsisConfig};
use datacron_transform::{MapperState, RdfMapper};

/// The pipeline's durable state besides its graph, exported for
/// persistence snapshots and restored on crash recovery.
///
/// With the RDF graph (which the snapshot writer encodes straight from
/// [`Pipeline::graph`] with [`datacron_rdf::write_binary`], dictionary
/// included) this covers everything query-visible: the mapper's
/// exactly-once typing and event numbering, and the lifetime counters.
/// Detector state and latency histograms are deliberately **not**
/// captured — detectors restart cold (per-object windows refill as the
/// replayed/new stream arrives) and latency observations describe the
/// dead process, not this one.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineState {
    /// Reports fed in.
    pub reports_in: u64,
    /// Reports surviving the cleanser.
    pub reports_clean: u64,
    /// Reports kept by the compressor.
    pub reports_kept: u64,
    /// Critical points emitted.
    pub critical_points: u64,
    /// Events recognised.
    pub events: u64,
    /// Triples inserted.
    pub triples: u64,
    /// Mapper state (typed objects, event numbering).
    pub mapper: MapperState,
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Region of interest (drives pair detection grids).
    pub region: BoundingBox,
    /// In-situ synopsis thresholds.
    pub synopsis: SynopsisConfig,
    /// Dead-reckoning compression threshold, metres.
    pub dr_threshold_m: f64,
    /// Maximum plausible speed for the cleanser, m/s.
    pub max_speed_mps: f64,
    /// Minimum gap duration that counts as dark activity, ms.
    pub dark_gap_ms: i64,
    /// Map every *kept* report into the RDF store (set `false` to measure
    /// the analytics path alone).
    pub enable_rdf: bool,
    /// Map recognised events into the RDF store.
    pub rdf_events: bool,
    /// Named zones of interest for entry/exit events.
    pub zones: Vec<(String, PolygonSpec)>,
    /// Rendezvous exclusion circles (ports), `(lon, lat, radius_m)`.
    pub exclusions: Vec<(f64, f64, f64)>,
}

/// A serialisable polygon spec (ring of `(lon, lat)` pairs).
#[derive(Debug, Clone)]
pub struct PolygonSpec(pub Vec<(f64, f64)>);

impl PolygonSpec {
    fn to_polygon(&self) -> Option<Polygon> {
        Polygon::new(
            self.0
                .iter()
                .map(|&(lon, lat)| GeoPoint::new(lon, lat))
                .collect(),
        )
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            region: BoundingBox::new(22.0, 34.5, 29.5, 41.2),
            synopsis: SynopsisConfig::default(),
            dr_threshold_m: 100.0,
            max_speed_mps: 60.0,
            dark_gap_ms: 15 * 60_000,
            enable_rdf: true,
            rdf_events: true,
            zones: Vec::new(),
            exclusions: Vec::new(),
        }
    }
}

/// Counters and per-stage latency histograms.
///
/// The stage histograms are `Arc`-shared so the embedding layer can
/// register them into a metrics registry (`datacron-obs`) while the
/// pipeline keeps recording into the same storage.
#[derive(Debug, Default)]
pub struct PipelineMetrics {
    /// Reports fed in.
    pub reports_in: u64,
    /// Reports surviving the cleanser.
    pub reports_clean: u64,
    /// Reports kept by the compressor.
    pub reports_kept: u64,
    /// Critical points emitted.
    pub critical_points: u64,
    /// Events recognised (all detectors).
    pub events: u64,
    /// Triples inserted.
    pub triples: u64,
    /// Other vessels' fixes the two pair detectors (rendezvous, CPA) read
    /// from their cell indexes: per report, the size of the neighbourhood
    /// event recognition paid for. Counts this process's detectors, which
    /// start cold after a restore, so it restarts at zero with them.
    pub pair_candidates: u64,
    /// Cleansing stage latency.
    pub lat_cleanse: std::sync::Arc<LatencyHistogram>,
    /// Compression + synopsis stage latency.
    pub lat_synopsis: std::sync::Arc<LatencyHistogram>,
    /// Event-recognition stage latency.
    pub lat_cep: std::sync::Arc<LatencyHistogram>,
    /// RDF mapping stage latency.
    pub lat_rdf: std::sync::Arc<LatencyHistogram>,
    /// RDF store commit latency — one sample per ingested batch (or per
    /// replayed run of batches), where every other row is per report.
    pub lat_commit: std::sync::Arc<LatencyHistogram>,
    /// End-to-end per-report latency.
    pub lat_total: std::sync::Arc<LatencyHistogram>,
}

impl PipelineMetrics {
    /// Compression ratio achieved by the in-situ stage.
    pub fn compression_ratio(&self) -> f64 {
        if self.reports_clean == 0 {
            0.0
        } else {
            1.0 - self.reports_kept as f64 / self.reports_clean as f64
        }
    }

    /// `(stage name, shared histogram)` rows, in processing order; the
    /// per-report `total` is last. [`LatencyHistogram::summary_us`] reads
    /// a row's `(p50, p99, max)`.
    pub fn stage_histograms(&self) -> [(&'static str, &std::sync::Arc<LatencyHistogram>); 6] {
        [
            ("cleanse", &self.lat_cleanse),
            ("synopsis", &self.lat_synopsis),
            ("cep", &self.lat_cep),
            ("rdf", &self.lat_rdf),
            ("commit", &self.lat_commit),
            ("total", &self.lat_total),
        ]
    }

    /// Registers every stage histogram into `registry` as
    /// `datacron_pipeline_stage_latency_us{stage=…}`.
    pub fn register_into(&self, registry: &datacron_obs::Registry) {
        for (stage, h) in self.stage_histograms() {
            registry.register_histogram(
                "datacron_pipeline_stage_latency_us",
                &[("stage", stage)],
                std::sync::Arc::clone(h),
            );
        }
    }
}

/// Counters for one [`Pipeline::ingest_batch`] call, plus the events it
/// recognised. The counters are per-batch deltas, not lifetime totals.
#[derive(Debug, Clone, Default)]
pub struct IngestOutcome {
    /// Reports fed in (batch size).
    pub accepted: u64,
    /// Reports surviving the cleanser.
    pub clean: u64,
    /// Reports kept by the compressor.
    pub kept: u64,
    /// Triples added to the RDF store.
    pub triples: u64,
    /// Events recognised while processing the batch.
    pub events: Vec<EventRecord>,
    /// The encoded triples this batch committed, in commit order. Empty
    /// unless [`Pipeline::track_new_triples`] is on, which only the
    /// benchmark harness's traced replay turns on, to keep its partition
    /// copy in sync without re-scanning the graph.
    pub new_triples: Vec<Triple>,
}

/// The single-process pipeline.
pub struct Pipeline {
    config: PipelineConfig,
    cleanser: Cleanser,
    compressor: DeadReckoningCompressor,
    synopsis: CriticalPointDetector,
    zones: ZoneTracker,
    loitering: LoiteringDetector,
    drifting: DriftingDetector,
    dark: DarkActivityDetector,
    rendezvous: RendezvousDetector,
    cpa: CpaDetector,
    mapper: RdfMapper,
    graph: Graph,
    metrics: PipelineMetrics,
    scratch_points: Vec<datacron_synopses::CriticalPoint>,
}

impl Pipeline {
    /// Builds a pipeline from a config.
    pub fn new(config: PipelineConfig) -> Self {
        let zones = ZoneTracker::new(
            config
                .zones
                .iter()
                .filter_map(|(name, spec)| spec.to_polygon().map(|p| (name.clone(), p)))
                .collect(),
        );
        let mut rendezvous = RendezvousDetector::new(config.region);
        for &(lon, lat, r) in &config.exclusions {
            rendezvous.exclude(GeoPoint::new(lon, lat), r);
        }
        Self {
            cleanser: Cleanser::new(config.max_speed_mps),
            compressor: DeadReckoningCompressor::new(config.dr_threshold_m),
            synopsis: CriticalPointDetector::new(config.synopsis),
            zones,
            loitering: LoiteringDetector::default(),
            drifting: DriftingDetector::default(),
            dark: DarkActivityDetector::new(config.dark_gap_ms),
            rendezvous,
            cpa: CpaDetector::default(),
            mapper: RdfMapper::new(),
            graph: Graph::new(),
            metrics: PipelineMetrics::default(),
            scratch_points: Vec::new(),
            config,
        }
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Processes one observed report through every stage, returning the
    /// events recognised *now*.
    pub fn process(&mut self, report: &PositionReport) -> Vec<EventRecord> {
        let t_start = Stopwatch::start();
        self.metrics.reports_in += 1;

        // Stage 1 — in-situ cleansing.
        let t = Stopwatch::start();
        let clean = self.cleanser.check(report);
        self.metrics.lat_cleanse.observe(&t);
        if !clean {
            self.metrics.lat_total.observe(&t_start);
            return Vec::new();
        }
        self.metrics.reports_clean += 1;

        // Stage 2 — synopsis: compression decision + critical points.
        let t = Stopwatch::start();
        let kept = self.compressor.check(report);
        self.scratch_points.clear();
        self.synopsis.update(report, &mut self.scratch_points);
        self.metrics.lat_synopsis.observe(&t);
        self.metrics.critical_points += self.scratch_points.len() as u64;
        if kept {
            self.metrics.reports_kept += 1;
        }

        // Stage 3 — event recognition over the *full* cleansed stream (the
        // quality experiments compare against running it on the compressed
        // stream instead).
        let t = Stopwatch::start();
        let mut events: Vec<EventRecord> = Vec::new();
        events.extend(self.zones.update(report));
        if let Some(e) = self.loitering.update(report) {
            events.push(e);
        }
        if let Some(e) = self.drifting.update(report) {
            events.push(e);
        }
        events.extend(self.rendezvous.update(report));
        events.extend(self.cpa.update(report));
        for cp in &self.scratch_points {
            if let Some(low) = critical_to_event(cp) {
                if let Some(e) = self.dark.update(&low) {
                    events.push(e);
                }
                events.push(low);
            }
        }
        self.metrics.lat_cep.observe(&t);
        self.metrics.events += events.len() as u64;
        self.metrics.pair_candidates =
            self.rendezvous.candidates_examined() + self.cpa.candidates_examined();

        // Stage 4 — transformation to the common RDF representation.
        if self.config.enable_rdf {
            let t = Stopwatch::start();
            if kept {
                let annotation = self.scratch_points.first().map(|cp| {
                    // Borrow a static tag for the annotation.
                    match cp.kind {
                        datacron_synopses::CriticalKind::Turn => "turn",
                        datacron_synopses::CriticalKind::StopStart => "stop_start",
                        datacron_synopses::CriticalKind::StopEnd => "stop_end",
                        datacron_synopses::CriticalKind::SpeedChange => "speed_change",
                        datacron_synopses::CriticalKind::GapStart => "gap_start",
                        datacron_synopses::CriticalKind::GapEnd => "gap_end",
                        _ => "sample",
                    }
                });
                self.mapper.map_report(&mut self.graph, report, annotation);
            }
            if self.config.rdf_events {
                for e in &events {
                    self.mapper.map_event(&mut self.graph, e);
                }
            }
            self.metrics.triples = self.mapper.triples_emitted();
            self.metrics.lat_rdf.observe(&t);
        }

        self.metrics.lat_total.observe(&t_start);
        events
    }

    /// Processes a batch in order, collecting all events.
    pub fn process_batch(&mut self, reports: &[PositionReport]) -> Vec<EventRecord> {
        let mut out = Vec::new();
        for r in reports {
            out.extend(self.process(r));
        }
        out
    }

    /// Incremental ingest for long-lived deployments (the serving path):
    /// processes the batch through every stage with all detector state
    /// retained, commits the RDF store, and returns per-batch counters
    /// alongside the recognised events. After this returns, [`Pipeline::graph`]
    /// sees every triple the batch produced — no further commit call needed.
    pub fn ingest_batch(&mut self, reports: &[PositionReport]) -> IngestOutcome {
        self.ingest_batches(&[reports])
    }

    /// Replay-oriented ingest: processes many batches through every
    /// stage but commits the RDF store **once**, at the end. A commit
    /// merges its batch into each index's small delta level, shifting the
    /// delta's keys, not the store's, and now and then folds the delta
    /// into the base at a cost that follows the store (see
    /// `datacron_rdf::Graph`). N record-at-a-time
    /// [`Pipeline::ingest_batch`] calls would pay N small merges where
    /// this pays one larger one — a constant factor, no longer a cliff.
    /// Detector state advances identically to feeding the batches one by
    /// one; the only observable difference is that triples become
    /// visible at the end of the replay instead of after each batch,
    /// which is exactly what recovery and replication catch-up want.
    /// Returns the summed counters; per-batch deltas are not broken out.
    pub fn ingest_batches<B: AsRef<[PositionReport]>>(&mut self, batches: &[B]) -> IngestOutcome {
        let clean_before = self.metrics.reports_clean;
        let kept_before = self.metrics.reports_kept;
        let triples_before = self.metrics.triples;
        let mut events = Vec::new();
        let mut accepted = 0u64;
        for batch in batches {
            let reports = batch.as_ref();
            accepted += reports.len() as u64;
            events.extend(self.process_batch(reports));
        }
        let t = Stopwatch::start();
        self.graph.commit();
        self.metrics.lat_commit.observe(&t);
        IngestOutcome {
            accepted,
            clean: self.metrics.reports_clean - clean_before,
            kept: self.metrics.reports_kept - kept_before,
            triples: self.metrics.triples - triples_before,
            events,
            new_triples: self.graph.take_new_triples(),
        }
    }

    /// Turns the commit log on or off. While on, every commit appends the
    /// newly merged triples to a log that the next [`Pipeline::ingest_batch`]
    /// drains into [`IngestOutcome::new_triples`]. Off by default (the
    /// server leaves it off); the benchmark harness's traced replay turns
    /// it on.
    pub fn track_new_triples(&mut self, on: bool) {
        self.graph.track_new_triples(on);
    }

    /// Read-only view of the RDF store as of its last commit: every
    /// [`Pipeline::ingest_batch`] commits, while the triples of raw
    /// [`Pipeline::process`] calls stay invisible to every read until the
    /// next commit ([`Pipeline::graph_mut`] or an ingest). Cheap: no work
    /// is done here, so concurrent readers behind a read lock can query
    /// while no ingest is applying.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Commits, so reads see every triple processed so far, and exposes
    /// the RDF store.
    pub fn graph_mut(&mut self) -> &mut Graph {
        self.graph.commit();
        &mut self.graph
    }

    /// The metrics collected so far.
    pub fn metrics(&self) -> &PipelineMetrics {
        &self.metrics
    }

    /// Exports the pipeline's durable state besides the graph (see
    /// [`PipelineState`] for what is and isn't captured).
    pub fn export_state(&self) -> PipelineState {
        PipelineState {
            reports_in: self.metrics.reports_in,
            reports_clean: self.metrics.reports_clean,
            reports_kept: self.metrics.reports_kept,
            critical_points: self.metrics.critical_points,
            events: self.metrics.events,
            triples: self.metrics.triples,
            mapper: self.mapper.export_state(),
        }
    }

    /// Rebuilds a pipeline from a config, exported state and the restored
    /// graph. Detectors start cold; the graph, mapper and counters are
    /// restored exactly.
    pub fn from_state(config: PipelineConfig, state: PipelineState, graph: Graph) -> Self {
        let mut p = Self::new(config);
        p.graph = graph;
        p.mapper = RdfMapper::from_state(state.mapper);
        p.metrics.reports_in = state.reports_in;
        p.metrics.reports_clean = state.reports_clean;
        p.metrics.reports_kept = state.reports_kept;
        p.metrics.critical_points = state.critical_points;
        p.metrics.events = state.events;
        p.metrics.triples = state.triples;
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacron_geo::TimeMs;
    use datacron_model::{EventKind, NavStatus, ObjectId, SourceId};
    use datacron_rdf::{execute, parse_query};

    fn cruise_report(obj: u64, t_s: i64, lon: f64) -> PositionReport {
        PositionReport::maritime(
            ObjectId(obj),
            TimeMs(t_s * 1000),
            GeoPoint::new(lon, 37.0),
            6.0,
            90.0,
            SourceId::AIS_TERRESTRIAL,
            NavStatus::UnderWay,
        )
    }

    #[test]
    fn pipeline_counts_flow_through_stages() {
        let mut p = Pipeline::new(PipelineConfig::default());
        for i in 0..50 {
            // Straight, perfectly predictable track.
            let pos = GeoPoint::new(24.0, 37.0).destination(90.0, 6.0 * 30.0 * i as f64);
            let r = PositionReport::maritime(
                ObjectId(1),
                TimeMs(i * 30_000),
                pos,
                6.0,
                90.0,
                SourceId::AIS_TERRESTRIAL,
                NavStatus::UnderWay,
            );
            p.process(&r);
        }
        let m = p.metrics();
        assert_eq!(m.reports_in, 50);
        assert_eq!(m.reports_clean, 50);
        assert!(m.reports_kept < 10, "predictable track compresses hard");
        assert!(m.compression_ratio() > 0.8);
        assert!(m.lat_total.count() == 50);
    }

    #[test]
    fn dirty_reports_are_dropped_early() {
        let mut p = Pipeline::new(PipelineConfig::default());
        let mut bad = cruise_report(1, 0, 24.0);
        bad.lat = 99.0;
        let events = p.process(&bad);
        assert!(events.is_empty());
        assert_eq!(p.metrics().reports_in, 1);
        assert_eq!(p.metrics().reports_clean, 0);
    }

    #[test]
    fn zone_events_emitted() {
        let zone = PolygonSpec(vec![(24.5, 36.5), (25.5, 36.5), (25.5, 37.5), (24.5, 37.5)]);
        let mut p = Pipeline::new(PipelineConfig {
            zones: vec![("test-zone".into(), zone)],
            ..PipelineConfig::default()
        });
        let mut all = Vec::new();
        for i in 0..10 {
            all.extend(p.process(&cruise_report(1, i * 600, 24.0 + 0.2 * i as f64)));
        }
        assert!(all.iter().any(|e| e.kind == EventKind::ZoneEntry));
        assert!(all.iter().any(|e| e.kind == EventKind::ZoneExit));
    }

    #[test]
    fn rdf_store_is_queryable_after_processing() {
        let mut p = Pipeline::new(PipelineConfig::default());
        for i in 0..20 {
            // A zig-zag so several reports are kept.
            let lat = if i % 2 == 0 { 37.0 } else { 37.02 };
            let r = PositionReport::maritime(
                ObjectId(5),
                TimeMs(i * 60_000),
                GeoPoint::new(24.0 + 0.01 * i as f64, lat),
                6.0,
                if i % 2 == 0 { 45.0 } else { 135.0 },
                SourceId::AIS_TERRESTRIAL,
                NavStatus::UnderWay,
            );
            p.process(&r);
        }
        assert!(p.metrics().triples > 0);
        let g = p.graph_mut();
        let q = parse_query("SELECT ?n WHERE { ?n da:ofMovingObject da:obj/5 }").unwrap();
        let (b, _) = execute(g, &q);
        assert!(!b.is_empty(), "semantic nodes must be queryable");
    }

    #[test]
    fn ingest_batch_commits_and_reports_deltas() {
        let mut p = Pipeline::new(PipelineConfig::default());
        let mk = |i: i64| {
            // Zig-zag so reports survive compression and produce triples.
            let lat = if i % 2 == 0 { 37.0 } else { 37.02 };
            PositionReport::maritime(
                ObjectId(9),
                TimeMs(i * 60_000),
                GeoPoint::new(24.0 + 0.01 * i as f64, lat),
                6.0,
                if i % 2 == 0 { 45.0 } else { 135.0 },
                SourceId::AIS_TERRESTRIAL,
                NavStatus::UnderWay,
            )
        };
        let batch1: Vec<_> = (0..10).map(mk).collect();
        let batch2: Vec<_> = (10..20).map(mk).collect();
        let out1 = p.ingest_batch(&batch1);
        assert_eq!(out1.accepted, 10);
        assert_eq!(out1.clean, 10);
        assert!(out1.kept >= 1);
        assert!(out1.triples > 0);
        // The read-only accessor sees the committed triples without any
        // further commit call.
        let len_after_1 = p.graph().len();
        assert!(len_after_1 > 0);
        let q = parse_query("SELECT ?n WHERE { ?n da:ofMovingObject da:obj/9 }").unwrap();
        let (b, _) = execute(p.graph(), &q);
        assert!(!b.is_empty(), "graph() must serve queries after ingest");

        let out2 = p.ingest_batch(&batch2);
        assert_eq!(out2.accepted, 10, "deltas are per batch, not cumulative");
        assert!(p.graph().len() >= len_after_1);
        // Lifetime metrics keep accumulating across batches.
        assert_eq!(p.metrics().reports_in, 20);
        // One commit sample per batch, where the stage rows are per report.
        assert_eq!(p.metrics().lat_commit.count(), 2);
        assert_eq!(p.metrics().lat_total.count(), 20);
    }

    #[test]
    fn ingest_batches_matches_sequential_ingest() {
        let mk = |i: i64| {
            let lat = if i % 2 == 0 { 37.0 } else { 37.02 };
            PositionReport::maritime(
                ObjectId(11),
                TimeMs(i * 60_000),
                GeoPoint::new(24.0 + 0.01 * i as f64, lat),
                6.0,
                if i % 2 == 0 { 45.0 } else { 135.0 },
                SourceId::AIS_TERRESTRIAL,
                NavStatus::UnderWay,
            )
        };
        let batches: Vec<Vec<_>> = (0..8)
            .map(|b| ((b * 5)..(b * 5 + 5)).map(mk).collect())
            .collect();

        // One pipeline applies batch-at-a-time (N commits), the other
        // replays them all with a single commit.
        let mut seq = Pipeline::new(PipelineConfig::default());
        let mut seq_events = 0usize;
        for b in &batches {
            seq_events += seq.ingest_batch(b).events.len();
        }
        let mut replay = Pipeline::new(PipelineConfig::default());
        let out = replay.ingest_batches(&batches);

        assert_eq!(out.accepted, 40);
        assert_eq!(out.events.len(), seq_events);
        assert_eq!(replay.metrics().reports_in, seq.metrics().reports_in);
        assert_eq!(replay.metrics().reports_kept, seq.metrics().reports_kept);
        assert_eq!(replay.metrics().triples, seq.metrics().triples);
        assert_eq!(replay.graph().len(), seq.graph().len());

        // And the replayed graph serves the same query.
        let q = parse_query("SELECT ?n WHERE { ?n da:ofMovingObject da:obj/11 }").unwrap();
        let (b_seq, _) = execute(seq.graph(), &q);
        let (b_rep, _) = execute(replay.graph(), &q);
        assert_eq!(b_seq.len(), b_rep.len());
        assert!(!b_rep.is_empty());
    }

    #[test]
    fn ingest_batches_tracks_new_triples_once() {
        let mk = |i: i64| {
            let lat = if i % 2 == 0 { 37.0 } else { 37.02 };
            PositionReport::maritime(
                ObjectId(12),
                TimeMs(i * 60_000),
                GeoPoint::new(24.0 + 0.01 * i as f64, lat),
                6.0,
                if i % 2 == 0 { 45.0 } else { 135.0 },
                SourceId::AIS_TERRESTRIAL,
                NavStatus::UnderWay,
            )
        };
        let batches: Vec<Vec<_>> = (0..4)
            .map(|b| ((b * 5)..(b * 5 + 5)).map(mk).collect())
            .collect();
        let mut p = Pipeline::new(PipelineConfig::default());
        p.track_new_triples(true);
        let out = p.ingest_batches(&batches);
        assert_eq!(out.new_triples.len() as u64, out.triples);
    }

    #[test]
    fn disabling_rdf_skips_mapping() {
        let mut p = Pipeline::new(PipelineConfig {
            enable_rdf: false,
            ..PipelineConfig::default()
        });
        for i in 0..10 {
            p.process(&cruise_report(1, i * 60, 24.0 + 0.01 * i as f64));
        }
        assert_eq!(p.metrics().triples, 0);
        assert_eq!(p.metrics().lat_rdf.count(), 0);
    }

    #[test]
    fn stage_histograms_have_all_stages() {
        let mut p = Pipeline::new(PipelineConfig::default());
        p.process(&cruise_report(1, 0, 24.0));
        let table = p.metrics().stage_histograms();
        let names: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec!["cleanse", "synopsis", "cep", "rdf", "commit", "total"]
        );
        // Per-report latency must be well under a millisecond in this
        // trivial case — the paper's ms budget holds with huge margin.
        let (_, _, max_us) = table.last().unwrap().1.summary_us();
        assert!(max_us < 100_000, "total {}us", max_us);
    }

    #[test]
    fn state_round_trip_restores_query_visible_state() {
        let mut p = Pipeline::new(PipelineConfig::default());
        let mk = |i: i64| {
            let lat = if i % 2 == 0 { 37.0 } else { 37.02 };
            PositionReport::maritime(
                ObjectId(3),
                TimeMs(i * 60_000),
                GeoPoint::new(24.0 + 0.01 * i as f64, lat),
                6.0,
                if i % 2 == 0 { 45.0 } else { 135.0 },
                SourceId::AIS_TERRESTRIAL,
                NavStatus::UnderWay,
            )
        };
        let batch: Vec<_> = (0..20).map(mk).collect();
        p.ingest_batch(&batch);

        let state = p.export_state();
        let graph = datacron_rdf::from_binary(&datacron_rdf::to_binary(p.graph())).unwrap();
        let mut p2 = Pipeline::from_state(PipelineConfig::default(), state, graph);

        // Counters and graph content carry over exactly.
        assert_eq!(p2.metrics().reports_in, p.metrics().reports_in);
        assert_eq!(p2.metrics().triples, p.metrics().triples);
        assert_eq!(p2.graph().len(), p.graph().len());
        assert_eq!(p2.graph().dict().len(), p.graph().dict().len());
        let q = parse_query("SELECT ?n WHERE { ?n da:ofMovingObject da:obj/3 }").unwrap();
        let (b1, _) = execute(p.graph(), &q);
        let (b2, _) = execute(p2.graph(), &q);
        assert_eq!(b1.len(), b2.len());

        // Continued ingest must not re-type the known object.
        let more: Vec<_> = (20..25).map(mk).collect();
        p2.ingest_batch(&more);
        let q = parse_query("SELECT ?o WHERE { ?o rdf:type da:Vessel }").unwrap();
        let (b, _) = execute(p2.graph_mut(), &q);
        assert_eq!(b.len(), 1, "object 3 typed exactly once across restore");
    }

    #[test]
    fn low_level_events_surface() {
        let mut p = Pipeline::new(PipelineConfig::default());
        let mut all = Vec::new();
        // Cruise then hard turn.
        for i in 0..5 {
            all.extend(p.process(&cruise_report(1, i * 60, 24.0 + 0.005 * i as f64)));
        }
        let r = PositionReport::maritime(
            ObjectId(1),
            TimeMs(5 * 60_000),
            GeoPoint::new(24.025, 37.005),
            6.0,
            0.0, // 90-degree course change
            SourceId::AIS_TERRESTRIAL,
            NavStatus::UnderWay,
        );
        all.extend(p.process(&r));
        assert!(
            all.iter().any(|e| e.kind == EventKind::TurningPoint),
            "turn not surfaced: {:?}",
            all.iter().map(|e| e.kind).collect::<Vec<_>>()
        );
    }

    /// Every `da:event/…` IRI in the store with the objects it involves.
    fn event_iris(p: &Pipeline) -> Vec<String> {
        let q = parse_query("SELECT ?e ?o WHERE { ?e da:involves ?o }").unwrap();
        let (b, _) = execute(p.graph(), &q);
        let mut rows: Vec<String> = b
            .rows
            .iter()
            .map(|row| format!("{:?}", b.decode_row(p.graph(), row)))
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn event_numbering_does_not_depend_on_detector_history() {
        // Five vessels converge on a sixth, so one report raises several
        // collision risks at once; the order they come out in is the order
        // the mapper numbers them (`da:event/<kind>/N`). Three pipelines see
        // the same scene after the same two hundred other vessels — the
        // third met those in the opposite order, which leaves its
        // detectors' hash maps laid out differently.
        let centre = GeoPoint::new(24.7, 37.3);
        let ghosts: Vec<PositionReport> = (0..200)
            .map(|g| {
                let pos = centre.destination(g as f64 * 1.8, 2_000.0 + 40.0 * g as f64);
                PositionReport::maritime(
                    ObjectId(1_000 + g),
                    TimeMs(0),
                    pos,
                    0.0,
                    0.0,
                    SourceId::AIS_TERRESTRIAL,
                    NavStatus::Moored,
                )
            })
            .collect();
        let backwards: Vec<PositionReport> = ghosts.iter().rev().copied().collect();
        let mut scene = Vec::new();
        for step in 0..6i64 {
            let t = TimeMs(3_600_000 + step * 10_000);
            for (k, id) in [7u64, 3, 19, 11, 2].into_iter().enumerate() {
                let bearing = 30.0 + 70.0 * k as f64;
                let pos = centre.destination(bearing, 9_000.0 - 80.0 * step as f64);
                scene.push(PositionReport::maritime(
                    ObjectId(id),
                    t,
                    pos,
                    8.0,
                    (bearing + 180.0) % 360.0,
                    SourceId::AIS_TERRESTRIAL,
                    NavStatus::UnderWay,
                ));
            }
            scene.push(PositionReport::maritime(
                ObjectId(1),
                t + 1_000,
                centre,
                0.0,
                0.0,
                SourceId::AIS_TERRESTRIAL,
                NavStatus::UnderWay,
            ));
        }
        let run = |ghosts: &[PositionReport]| {
            let mut p = Pipeline::new(PipelineConfig::default());
            p.ingest_batch(ghosts);
            let mut events = Vec::new();
            for batch in scene.chunks(4) {
                events.extend(p.ingest_batch(batch).events);
            }
            (events, event_iris(&p))
        };
        let (events, iris) = run(&ghosts);
        assert_eq!(run(&ghosts), (events.clone(), iris.clone()), "same batches");
        let (events_b, iris_b) = run(&backwards);
        assert_eq!(events_b, events, "ghosts met in the opposite order");
        assert_eq!(iris_b, iris);
        // The scene did raise several risks from one report, in partner order.
        let risks: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == EventKind::CollisionRisk)
            .map(|e| e.objects[1].raw())
            .collect();
        assert!(risks.len() >= 5, "{risks:?}");
        assert!(
            risks.windows(5).any(|w| w == [2, 3, 7, 11, 19]),
            "{risks:?}"
        );
    }
}
