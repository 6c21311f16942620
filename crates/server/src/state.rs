//! The server's shared analytics state: the pipeline plus the derived
//! visualisation aggregates, wrapped by the server in an `RwLock` so
//! queries (read) proceed concurrently while ingest (write) applies.

use crate::codec::{decode_batch, read_event, write_event};
use crate::json::Json;
use crate::protocol::{ErrorCode, ProtocolError};
use datacron_core::{IngestOutcome, MapperState, Pipeline, PipelineConfig, PipelineState};
use datacron_geo::FxHashMap;
use datacron_geo::Grid;
use datacron_model::{EventKind, EventRecord, ObjectId, PositionReport};
use datacron_obs::Sink;
use datacron_rdf::{execute_morsel, parse_query, MorselConfig};
use datacron_storage::binser::{BinError, Reader, Writer};
use datacron_viz::{DensityGrid, FlowMatrix};
use std::collections::VecDeque;
use std::io::{self, ErrorKind};
use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bound on the in-memory recent-events ring.
const MAX_RECENT_EVENTS: usize = 10_000;

/// Snapshot payload format version, bumped on any wire change.
const SNAPSHOT_VERSION: u32 = 1;

/// The heat grid over the pipeline region, falling back to a 1° global
/// grid when the region is degenerate.
fn heat_grid(cfg: &PipelineConfig, heat_cell_deg: f64) -> Grid {
    // A degenerate configured region falls back to the whole-earth grid
    // rather than panicking the server at construction time.
    Grid::new(cfg.region, heat_cell_deg).unwrap_or_else(Grid::global)
}

/// The pipeline plus everything the query handlers read.
///
/// Writes go through [`AnalyticsState::apply_log`] (logged records) or
/// [`AnalyticsState::ingest`] (memory-only); every other method takes
/// `&self` so the server can hold a read lock while answering queries.
pub struct AnalyticsState {
    pipeline: Pipeline,
    /// The process's one log position: WAL records `0..applied_lsn` are
    /// in this state. Moved only by [`AnalyticsState::apply_log`].
    applied_lsn: u64,
    /// On a follower, the leader epoch `applied_lsn` counts in: the same
    /// position in another epoch may be another history. Set by
    /// [`AnalyticsState::rebuild`]; 0 on a leader, which keeps its own.
    epoch: u64,
    heat: DensityGrid,
    flows: FlowMatrix,
    /// Zone the object most recently *exited* — the pending flow origin.
    last_exit: FxHashMap<ObjectId, String>,
    /// Newest-last ring of CEP detections.
    recent: VecDeque<EventRecord>,
    /// Detections evicted from the ring (so `events` can report loss).
    evicted: u64,
    /// Morsel-executor pool size for SPARQL; `0` = one worker per core.
    query_workers: usize,
    /// Morsels executed by queries since start (metrics counter; atomic
    /// because `sparql` runs under the server's *read* lock).
    query_morsels: AtomicU64,
    /// Deque steals during query execution since start.
    query_steals: AtomicU64,
}

impl AnalyticsState {
    /// Builds the state. `heat_cell_deg` sizes the density-grid cells over
    /// the pipeline's region of interest.
    pub fn new(cfg: PipelineConfig, heat_cell_deg: f64) -> Self {
        let grid = heat_grid(&cfg, heat_cell_deg);
        Self {
            pipeline: Pipeline::new(cfg),
            applied_lsn: 0,
            epoch: 0,
            heat: DensityGrid::new(grid),
            flows: FlowMatrix::new(),
            last_exit: FxHashMap::default(),
            recent: VecDeque::new(),
            evicted: 0,
            query_workers: 0,
            query_morsels: AtomicU64::new(0),
            query_steals: AtomicU64::new(0),
        }
    }

    /// Alias of [`AnalyticsState::new`]. The benchmark harness
    /// (`benchmark/src/reference.rs`) is the only caller: it still passes
    /// the retired partition-mirror arguments, and a PR may not edit
    /// `benchmark/` together with other code.
    #[doc(hidden)]
    pub fn with_sparql_partitions(cfg: PipelineConfig, deg: f64, _: usize, _: usize) -> Self {
        Self::new(cfg, deg)
    }

    /// Sets the morsel-executor worker pool size for SPARQL queries
    /// (`0` = one worker per available core, the default).
    pub fn set_query_workers(&mut self, workers: usize) {
        self.query_workers = workers;
    }

    /// The count of WAL records applied, i.e. the seq of the next one.
    pub fn applied_lsn(&self) -> u64 {
        self.applied_lsn
    }

    /// The leader epoch [`AnalyticsState::applied_lsn`] counts in (0 on a
    /// leader).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The one state builder, behind recovery and every follower
    /// (re)bootstrap: the snapshot `(position, payload)` — or an empty
    /// state at 0 — in `epoch`. The log records after it go through
    /// [`AnalyticsState::apply_records`].
    pub fn rebuild(
        cfg: PipelineConfig,
        heat_cell_deg: f64,
        epoch: u64,
        snapshot: Option<&(u64, Vec<u8>)>,
    ) -> io::Result<Self> {
        let mut state = match snapshot {
            Some((at, bytes)) => Self::from_snapshot_bytes(cfg, heat_cell_deg, bytes, *at)
                .map_err(|e| invalid(format!("snapshot at wal seq {at}: {e}")))?,
            None => Self::new(cfg, heat_cell_deg),
        };
        state.epoch = epoch;
        Ok(state)
    }

    /// Decodes log records `(seq, payload)` and applies them through
    /// [`AnalyticsState::apply_log`]. The seqs must run on one by one, and
    /// every payload must decode, or nothing is applied.
    pub fn apply_records(&mut self, log: &[(u64, Vec<u8>)]) -> io::Result<IngestOutcome> {
        let first_seq = log.first().map_or(self.applied_lsn, |r| r.0);
        let mut batches = Vec::with_capacity(log.len());
        for ((seq, payload), want) in log.iter().zip(first_seq..) {
            if *seq != want {
                return Err(invalid(format!("WAL record {seq} where {want} was due")));
            }
            let batch = decode_batch(payload)
                .map_err(|e| invalid(format!("WAL record {seq} does not decode: {e}")))?;
            batches.push(batch);
        }
        self.apply_log(first_seq, &batches)
    }

    /// Applies logged records `first_seq, first_seq + 1, …` — one batch
    /// each — through [`AnalyticsState::ingest_many`] and advances the
    /// position past them. Applies nothing and fails unless `first_seq`
    /// is the position, so a gap or a replay never reaches the state.
    pub fn apply_log<B: AsRef<[PositionReport]>>(
        &mut self,
        first_seq: u64,
        batches: &[B],
    ) -> io::Result<IngestOutcome> {
        let at = self.applied_lsn;
        if first_seq != at {
            let msg =
                format!("log records start at seq {first_seq}, but the state is at position {at}");
            return Err(invalid(msg));
        }
        let outcome = self.ingest_many(batches);
        self.applied_lsn += batches.len() as u64;
        Ok(outcome)
    }

    /// Runs an unlogged batch (memory-only servers) through the pipeline
    /// and folds the outcome into the server-side aggregates (heatmap, OD
    /// flows, recent events).
    pub fn ingest(&mut self, reports: &[PositionReport]) -> IngestOutcome {
        self.ingest_many(&[reports])
    }

    /// Applies many batches in one shot, without moving the log position:
    /// every batch runs through the pipeline but the graph commits
    /// **once** and the aggregates fold as usual. This is the replay path
    /// (recovery and follower catch-up, via `apply_log`): one merge of
    /// the whole run into the sorted indexes instead of one small merge
    /// per batch — a constant-factor saving, since a commit shifts the
    /// keys of each index's small delta level and only a fold, once per
    /// `1/32` of growth, touches the whole graph. Live ingest passes one
    /// batch at a time — queries between the batches of one call would
    /// see uncommitted triples as missing.
    pub fn ingest_many<B: AsRef<[PositionReport]>>(&mut self, batches: &[B]) -> IngestOutcome {
        let outcome = self.pipeline.ingest_batches(batches);
        for batch in batches {
            for r in batch.as_ref() {
                self.heat.add(&r.position());
            }
        }
        for ev in &outcome.events {
            self.fold_event(ev);
            if self.recent.len() == MAX_RECENT_EVENTS {
                self.recent.pop_front();
                self.evicted += 1;
            }
            self.recent.push_back(ev.clone());
        }
        outcome
    }

    /// Updates the origin–destination flow matrix from zone transitions:
    /// an exit remembers the origin, the next entry (into a different
    /// zone) records one `origin → destination` flow.
    fn fold_event(&mut self, ev: &EventRecord) {
        let zone = ev
            .attrs
            .iter()
            .find(|(k, _)| k == "zone")
            .map(|(_, v)| v.clone());
        let (Some(zone), Some(&object)) = (zone, ev.objects.first()) else {
            return;
        };
        match ev.kind {
            EventKind::ZoneExit => {
                self.last_exit.insert(object, zone);
            }
            EventKind::ZoneEntry => {
                if let Some(from) = self.last_exit.remove(&object) {
                    if from != zone {
                        self.flows.record(&from, &zone);
                    }
                }
            }
            _ => {}
        }
    }

    /// Evaluates a SPARQL-subset query on the pipeline's graph with the
    /// morsel-driven work-stealing executor and renders the first `limit`
    /// rows as strings. The response carries per-query engine statistics
    /// (probes, intermediate rows, planning/exec µs) and the executor's
    /// parallelism (`workers_used`, `morsels`, `steals`).
    pub fn sparql(&self, query: &str, limit: usize) -> Result<Json, ProtocolError> {
        let q = parse_query(query)
            .map_err(|e| ProtocolError::new(ErrorCode::QueryError, format!("parse: {e}")))?;
        let cfg = MorselConfig::with_workers(self.query_workers);
        let graph = self.pipeline.graph();
        let (b, engine, morsel) = execute_morsel(graph, &q, &cfg);
        self.query_morsels
            .fetch_add(morsel.morsels, Ordering::Relaxed);
        self.query_steals
            .fetch_add(morsel.steals, Ordering::Relaxed);
        let total = b.len();
        let rows = b.rows.iter().take(limit).map(|row| {
            let terms = b.decode_row(graph, row);
            Json::Arr(terms.iter().map(|t| Json::Str(t.to_string())).collect())
        });
        let rows = Json::Arr(rows.collect());
        Ok(Json::obj()
            .field(
                "vars",
                Json::Arr(b.vars.into_iter().map(Json::Str).collect()),
            )
            .field("rows", rows)
            .field("row_count", total)
            .field("truncated", total > limit)
            .field("probes", engine.probes as u64)
            .field("intermediate", engine.intermediate as u64)
            .field("planning_us", engine.planning_us)
            .field("exec_us", engine.exec_us)
            .field("workers_used", morsel.workers_used)
            .field("morsels", morsel.morsels)
            .field("steals", morsel.steals)
            .build())
    }

    /// Density-grid summary plus the `top_k` heaviest cells.
    pub fn heatmap(&self, top_k: usize) -> Json {
        let cells: Vec<Json> = self
            .heat
            .top_k(top_k)
            .iter()
            .map(|h| {
                Json::obj()
                    .field("lon", h.center.lon)
                    .field("lat", h.center.lat)
                    .field("weight", h.weight)
                    .build()
            })
            .collect();
        Json::obj()
            .field("total_weight", self.heat.total())
            .field("occupied_cells", self.heat.occupied_cells() as u64)
            .field("dropped_outside", self.heat.dropped_outside())
            .field("cells", Json::Arr(cells))
            .build()
    }

    /// The `top_k` largest origin–destination flows.
    pub fn flows(&self, top_k: usize) -> Json {
        let top: Vec<Json> = self
            .flows
            .top_k(top_k)
            .iter()
            .map(|(from, to, n)| {
                Json::obj()
                    .field("from", *from)
                    .field("to", *to)
                    .field("count", *n)
                    .build()
            })
            .collect();
        Json::obj()
            .field("total", self.flows.total())
            .field("places", self.flows.place_count() as u64)
            .field("flows", Json::Arr(top))
            .build()
    }

    /// Hotspot centres and weights only (lighter than `heatmap`).
    pub fn hotspots(&self, top_k: usize) -> Json {
        let spots: Vec<Json> = self
            .heat
            .top_k(top_k)
            .iter()
            .map(|h| {
                Json::Arr(vec![
                    Json::Num(h.center.lon),
                    Json::Num(h.center.lat),
                    Json::Num(h.weight),
                ])
            })
            .collect();
        Json::obj()
            .field("max_weight", self.heat.max_weight())
            .field("hotspots", Json::Arr(spots))
            .build()
    }

    /// The most recent detections, newest first, optionally filtered by
    /// [`EventKind::tag`].
    pub fn events(&self, limit: usize, kind: Option<&str>) -> Json {
        let mut out = Vec::new();
        for ev in self.recent.iter().rev() {
            // Limit check first: once full, stop scanning the ring instead
            // of tag-matching every remaining event.
            if out.len() == limit {
                break;
            }
            if let Some(k) = kind {
                if ev.kind.tag() != k {
                    continue;
                }
            }
            out.push(event_json(ev));
        }
        Json::obj()
            .field("events", Json::Arr(out))
            .field("retained", self.recent.len() as u64)
            .field("evicted", self.evicted)
            .build()
    }

    /// Serializes everything a restarted server needs to answer queries
    /// identically: the pipeline state (graph + mapper + counters), the
    /// visual-analytics aggregates, the pending flow origins, and the
    /// recent-events ring. Detector state and latency histograms are
    /// deliberately *not* captured — detectors restart cold and
    /// histograms describe the old process.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let ps = self.pipeline.export_state();
        let graph = self.pipeline.graph();
        let mut w = Writer::with_capacity(4096 + 16 * graph.dict().len() + 12 * graph.len());
        w.u32(SNAPSHOT_VERSION);
        // Pipeline counters + mapper + graph.
        w.u64(ps.reports_in);
        w.u64(ps.reports_clean);
        w.u64(ps.reports_kept);
        w.u64(ps.critical_points);
        w.u64(ps.events);
        w.u64(ps.triples);
        w.seq_len(ps.mapper.typed_objects.len());
        for o in &ps.mapper.typed_objects {
            w.u64(o.0);
        }
        w.u64(ps.mapper.event_seq);
        w.u64(ps.mapper.triples_emitted);
        w.nested(|w| datacron_rdf::write_binary(graph, w));
        // Heatmap cells.
        let (cells, dropped) = self.heat.export_state();
        w.seq_len(cells.len());
        for (cell, weight) in &cells {
            w.u64(*cell);
            w.f64(*weight);
        }
        w.u64(dropped);
        // OD flows.
        let (places, flows) = self.flows.export_state();
        w.seq_len(places.len());
        for p in &places {
            w.str(p);
        }
        w.seq_len(flows.len());
        for (from, to, n) in &flows {
            w.usize(*from);
            w.usize(*to);
            w.u64(*n);
        }
        // Pending flow origins, sorted for a deterministic payload.
        let mut exits: Vec<(u64, &str)> = self
            .last_exit
            .iter()
            .map(|(o, z)| (o.0, z.as_str()))
            .collect();
        exits.sort_unstable();
        w.seq_len(exits.len());
        for (o, zone) in exits {
            w.u64(o);
            w.str(zone);
        }
        // Recent-events ring, oldest first.
        w.seq_len(self.recent.len());
        for ev in &self.recent {
            write_event(&mut w, ev);
        }
        w.u64(self.evicted);
        w.into_bytes()
    }

    /// Rebuilds the state from [`AnalyticsState::to_snapshot_bytes`]
    /// output taken at log position `applied_lsn`. The position and the
    /// runtime configuration (`cfg`, grid resolution) come from the
    /// caller; only the data travels in the snapshot.
    pub fn from_snapshot_bytes(
        cfg: PipelineConfig,
        heat_cell_deg: f64,
        bytes: &[u8],
        applied_lsn: u64,
    ) -> Result<Self, BinError> {
        let mut r = Reader::new(bytes);
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(BinError::msg(format!(
                "unsupported snapshot version {version}"
            )));
        }
        let reports_in = r.u64()?;
        let reports_clean = r.u64()?;
        let reports_kept = r.u64()?;
        let critical_points = r.u64()?;
        let events = r.u64()?;
        let triples = r.u64()?;
        let n_typed = r.seq_len()?;
        let mut typed_objects = Vec::with_capacity(n_typed);
        for _ in 0..n_typed {
            typed_objects.push(ObjectId(r.u64()?));
        }
        let event_seq = r.u64()?;
        let triples_emitted = r.u64()?;
        // Decoded in place from the snapshot bytes, not copied out first.
        let graph = datacron_rdf::from_binary(r.bytes()?)?;
        let n_cells = r.seq_len()?;
        let mut cells = Vec::with_capacity(n_cells);
        for _ in 0..n_cells {
            let cell = r.u64()?;
            let weight = r.f64()?;
            cells.push((cell, weight));
        }
        let dropped = r.u64()?;
        let n_places = r.seq_len()?;
        let mut places = Vec::with_capacity(n_places);
        for _ in 0..n_places {
            places.push(r.string()?);
        }
        let n_flows = r.seq_len()?;
        let mut flows = Vec::with_capacity(n_flows);
        for _ in 0..n_flows {
            let from = r.usize()?;
            let to = r.usize()?;
            let n = r.u64()?;
            flows.push((from, to, n));
        }
        let n_exits = r.seq_len()?;
        let mut last_exit = FxHashMap::default();
        for _ in 0..n_exits {
            let o = ObjectId(r.u64()?);
            let zone = r.string()?;
            last_exit.insert(o, zone);
        }
        let n_recent = r.seq_len()?;
        let mut recent = VecDeque::with_capacity(n_recent.min(MAX_RECENT_EVENTS));
        for _ in 0..n_recent {
            recent.push_back(read_event(&mut r)?);
        }
        let evicted = r.u64()?;
        r.finish()?;

        let grid = heat_grid(&cfg, heat_cell_deg);
        let pipeline = Pipeline::from_state(
            cfg,
            PipelineState {
                reports_in,
                reports_clean,
                reports_kept,
                critical_points,
                events,
                triples,
                mapper: MapperState {
                    typed_objects,
                    event_seq,
                    triples_emitted,
                },
            },
            graph,
        );
        Ok(Self {
            pipeline,
            applied_lsn,
            epoch: 0,
            heat: DensityGrid::from_state(grid, cells, dropped),
            flows: FlowMatrix::from_state(places, flows),
            last_exit,
            recent,
            evicted,
            query_workers: 0,
            query_morsels: AtomicU64::new(0),
            query_steals: AtomicU64::new(0),
        })
    }

    /// Registers the pipeline's per-stage latency histograms into
    /// `registry`. The server calls this on the plain state *before*
    /// wrapping it in its lock, so registration never orders against
    /// the state lock.
    pub fn register_metrics(&self, registry: &datacron_obs::Registry) {
        self.pipeline.metrics().register_into(registry);
    }

    /// Writes the state's counters into a scrape: the pipeline's lifetime
    /// counts, the graph's triples, terms and folds, and the query
    /// executor's totals.
    pub fn scrape_into(&self, sink: &mut Sink) {
        let m = self.pipeline.metrics();
        let graph = self.pipeline.graph();
        for (name, v) in [
            ("datacron_pipeline_reports_in_total", m.reports_in),
            ("datacron_pipeline_reports_clean_total", m.reports_clean),
            ("datacron_pipeline_reports_kept_total", m.reports_kept),
            ("datacron_pipeline_events_total", m.events),
            ("datacron_pipeline_triples_total", m.triples),
            ("datacron_cep_pair_candidates_total", m.pair_candidates),
            ("datacron_graph_folds_total", graph.folds()),
            (
                "datacron_query_morsels_total",
                self.query_morsels.load(Ordering::Relaxed),
            ),
            (
                "datacron_query_steals_total",
                self.query_steals.load(Ordering::Relaxed),
            ),
        ] {
            sink.counter(name, &[], v);
        }
        sink.gauge("datacron_graph_triples", &[], graph.len() as u64);
        sink.gauge("datacron_graph_terms", &[], graph.dict().len() as u64);
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg)
}

fn event_json(ev: &EventRecord) -> Json {
    // Render attrs straight from the borrowed keys/values into one
    // pre-escaped fragment — this is the hottest response path, and the
    // old `Json::Obj` built here cloned two `String`s per attribute.
    let mut attrs = String::with_capacity(2 + 16 * ev.attrs.len());
    attrs.push('{');
    for (i, (k, v)) in ev.attrs.iter().enumerate() {
        if i > 0 {
            attrs.push(',');
        }
        crate::json::write_str(k, &mut attrs);
        attrs.push(':');
        crate::json::write_str(v, &mut attrs);
    }
    attrs.push('}');
    Json::obj()
        .field("kind", ev.kind.tag())
        .field(
            "objects",
            Json::Arr(ev.objects.iter().map(|o| Json::from(o.raw())).collect()),
        )
        .field("t_start_ms", ev.interval.start.millis())
        .field("t_end_ms", ev.interval.end.millis())
        .field("lon", ev.location.lon)
        .field("lat", ev.location.lat)
        .field("confidence", ev.confidence)
        .field("attrs", Json::Raw(attrs))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacron_geo::{BoundingBox, GeoPoint, TimeMs};
    use datacron_model::{NavStatus, SourceId};
    use datacron_rdf::execute;

    fn state() -> AnalyticsState {
        let cfg = PipelineConfig {
            region: BoundingBox::new(20.0, 34.0, 28.0, 40.0),
            ..PipelineConfig::default()
        };
        AnalyticsState::new(cfg, 0.25)
    }

    fn report(obj: u64, t_s: i64, lon: f64, lat: f64) -> PositionReport {
        PositionReport::maritime(
            ObjectId(obj),
            TimeMs(t_s * 1000),
            GeoPoint::new(lon, lat),
            6.0,
            90.0,
            SourceId::AIS_TERRESTRIAL,
            NavStatus::UnderWay,
        )
    }

    #[test]
    fn ingest_populates_heatmap_and_graph() {
        let mut s = state();
        let reports: Vec<_> = (0..20)
            .map(|i| report(1, i * 10, 24.0 + i as f64 * 0.01, 37.0))
            .collect();
        let out = s.ingest(&reports);
        assert_eq!(out.accepted, 20);
        assert!(out.triples > 0);
        let heat = s.heatmap(5);
        assert!(heat.get("total_weight").and_then(Json::as_f64).unwrap() > 0.0);
        let m = s.pipeline.metrics();
        assert_eq!(m.reports_in, 20);
        assert!(!s.pipeline.graph().is_empty());
        assert!(
            m.stage_histograms()
                .iter()
                .any(|(stage, _)| *stage == "commit"),
            "the store commit is a stage"
        );
    }

    #[test]
    fn sparql_reads_committed_triples() {
        let mut s = state();
        let reports: Vec<_> = (0..10)
            .map(|i| report(9, i * 10, 24.0 + i as f64 * 0.02, 37.0))
            .collect();
        s.ingest(&reports);
        let res = s
            .sparql("SELECT ?n WHERE { ?n da:ofMovingObject da:obj/9 }", 100)
            .unwrap();
        assert!(res.get("row_count").and_then(Json::as_u64).unwrap() > 0);
        let err = s.sparql("SELECT nonsense", 100).unwrap_err();
        assert_eq!(err.code, ErrorCode::QueryError);
    }

    #[test]
    fn sparql_single_route_matches_execute_on_star_and_path() {
        let mut s = state();
        // Many objects on zig-zag tracks so the path joins cross subjects.
        let mut reports = Vec::new();
        for obj in 1..=16u64 {
            for i in 0..10i64 {
                let lat = if i % 2 == 0 { 37.0 } else { 37.02 };
                reports.push(report(obj, i * 60, 24.0 + 0.01 * i as f64, lat));
            }
        }
        s.ingest(&reports);
        let morsels = |s: &AnalyticsState| s.query_morsels.load(Ordering::Relaxed);
        let before = morsels(&s);
        for query in [
            "SELECT ?n ?o ?g WHERE { ?n da:ofMovingObject ?o . ?n da:hasGeometry ?g }",
            "SELECT ?n ?o WHERE { ?n da:ofMovingObject ?o . ?o rdf:type da:Vessel }",
        ] {
            let res = s.sparql(query, 10_000).unwrap();
            assert!(res.get("planning_us").and_then(Json::as_u64).is_some());
            assert!(res.get("exec_us").and_then(Json::as_u64).is_some());
            assert!(res.get("workers_used").and_then(Json::as_u64).unwrap() >= 1);
            assert!(res.get("morsels").and_then(Json::as_u64).unwrap() >= 1);
            assert!(res.get("steals").and_then(Json::as_u64).is_some());
            let single = execute(s.pipeline.graph(), &parse_query(query).unwrap())
                .0
                .len() as u64;
            assert!(single > 0, "{query}");
            assert_eq!(
                res.get("row_count").and_then(Json::as_u64),
                Some(single),
                "{query}"
            );
        }
        assert!(morsels(&s) >= before + 2);
    }

    /// `st_near` on the serving path returns exactly the point literals
    /// a brute-force `haversine_m` scan finds in range. At 60° N the
    /// circle is wider in longitude than 1.5× its radius in degrees of
    /// latitude: here the one vessel in range is 9 km due east of the
    /// centre, in a graph of 9 001 committed points.
    #[test]
    fn sparql_st_near_matches_haversine_at_60_degrees_north() {
        let cfg = PipelineConfig {
            region: BoundingBox::new(0.0, 45.0, 50.0, 70.0),
            ..PipelineConfig::default()
        };
        let mut s = AnalyticsState::new(cfg, 0.25);
        let center = GeoPoint::new(10.0, 60.0);
        let east = center.destination(90.0, 9_000.0);
        let mut reports = vec![report(1, 0, east.lon, east.lat)];
        // 9 000 vessels on a 0.3° × 0.2° lattice, hundreds of km away.
        reports.extend((0..9_000u64).map(|i| {
            let (col, row) = ((i % 100) as f64, (i / 100) as f64);
            report(i + 2, 0, 20.0 + col * 0.3, 50.0 + row * 0.2)
        }));
        s.ingest(&reports);
        let graph = s.pipeline.graph();
        assert_eq!(graph.spatial().len(), 9_001);
        let all = parse_query("SELECT ?n ?g WHERE { ?n da:hasGeometry ?g }").unwrap();
        let (points, _) = execute(graph, &all);
        let want: Vec<String> = points
            .rows
            .iter()
            .map(|r| points.decode_row(graph, r))
            .filter(|r| r[1].as_point().unwrap().haversine_m(&center) <= 10_000.0)
            .map(|r| r[0].to_string())
            .collect();
        assert_eq!(want.len(), 1);
        let query = "SELECT ?n WHERE { ?n da:hasGeometry ?g . FILTER st_near(?g, 10, 60, 10000) }";
        let res = s.sparql(query, 100).unwrap();
        let got: Vec<&str> = res
            .get("rows")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|row| row.as_array().unwrap()[0].as_str().unwrap())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn apply_log_takes_only_the_next_record() {
        let mut s = state();
        let batch = |obj: u64| vec![report(obj, 0, 24.0, 37.0), report(obj, 10, 24.01, 37.0)];
        let (b0, b1, b2) = (batch(1), batch(2), batch(3));
        let weight = |s: &AnalyticsState| s.heatmap(1).get("total_weight").and_then(Json::as_f64);

        // A gap and a replay are refused whole: nothing applied, no move.
        for first_seq in [1, 5] {
            let err = s.apply_log(first_seq, &[&b0, &b1]).unwrap_err();
            assert!(err.to_string().contains("position 0"), "{err}");
            assert_eq!(s.applied_lsn(), 0);
            assert_eq!(weight(&s), Some(0.0));
        }
        assert_eq!(s.apply_log(0, &[&b0, &b1]).unwrap().accepted, 4);
        assert_eq!(s.applied_lsn(), 2);
        assert!(s.apply_log(0, &[&b2]).is_err(), "a replayed record");
        assert_eq!(weight(&s), Some(4.0));

        // Unlogged ingest changes the answer, never the position.
        s.ingest(&b2);
        assert_eq!(s.applied_lsn(), 2);
        assert_eq!(weight(&s), Some(6.0));
        s.apply_log(2, &[&b2]).unwrap();
        assert_eq!(s.applied_lsn(), 3);
    }

    #[test]
    fn zone_exit_then_entry_records_flow() {
        let mut s = state();
        let mk = |kind, zone: &str, t: i64| {
            let mut ev =
                EventRecord::instant(kind, ObjectId(5), TimeMs(t), GeoPoint::new(24.0, 37.0));
            ev.attrs.push(("zone".to_string(), zone.to_string()));
            ev
        };
        s.fold_event(&mk(EventKind::ZoneExit, "piraeus", 0));
        s.fold_event(&mk(EventKind::ZoneEntry, "heraklion", 1000));
        let flows = s.flows(10);
        assert_eq!(flows.get("total").and_then(Json::as_u64), Some(1));
        // Re-entering the same zone is not a flow.
        s.fold_event(&mk(EventKind::ZoneExit, "heraklion", 2000));
        s.fold_event(&mk(EventKind::ZoneEntry, "heraklion", 3000));
        let flows = s.flows(10);
        assert_eq!(flows.get("total").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn snapshot_round_trip_restores_query_visible_state() {
        let mut s = state();
        let mut reports = Vec::new();
        for obj in 1..=8u64 {
            for i in 0..12i64 {
                let lat = if i % 2 == 0 { 37.0 } else { 37.02 };
                reports.push(report(obj, i * 60, 24.0 + 0.01 * i as f64, lat));
            }
        }
        s.ingest(&reports);
        let mk = |kind, zone: &str, t: i64| {
            let mut ev =
                EventRecord::instant(kind, ObjectId(5), TimeMs(t), GeoPoint::new(24.0, 37.0));
            ev.attrs.push(("zone".to_string(), zone.to_string()));
            ev
        };
        s.fold_event(&mk(EventKind::ZoneExit, "piraeus", 0));
        s.fold_event(&mk(EventKind::ZoneEntry, "heraklion", 1000));
        s.fold_event(&mk(EventKind::ZoneExit, "heraklion", 2000));

        let bytes = s.to_snapshot_bytes();
        let cfg = PipelineConfig {
            region: BoundingBox::new(20.0, 34.0, 28.0, 40.0),
            ..PipelineConfig::default()
        };
        let s2 = AnalyticsState::from_snapshot_bytes(cfg, 0.25, &bytes, 7).unwrap();
        // The position is the caller's, not the payload's.
        assert_eq!(s2.applied_lsn(), 7);

        let q = "SELECT ?n ?o WHERE { ?n da:ofMovingObject ?o }";
        // Timing fields differ run to run; compare the answer itself.
        let answer = |res: &Json| {
            let mut rows: Vec<String> = res
                .get("rows")
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|r| r.to_string())
                .collect();
            rows.sort_unstable();
            (
                res.get("vars").unwrap().to_string(),
                res.get("row_count").and_then(Json::as_u64),
                rows,
            )
        };
        assert_eq!(
            answer(&s.sparql(q, 10_000).unwrap()),
            answer(&s2.sparql(q, 10_000).unwrap())
        );
        assert_eq!(s.heatmap(16), s2.heatmap(16));
        assert_eq!(s.flows(16), s2.flows(16));
        assert_eq!(s.events(100, None), s2.events(100, None));
        assert_eq!(s.last_exit, s2.last_exit);
        // Counters survive (latency histograms intentionally don't).
        let counts = |s: &AnalyticsState| {
            let m = s.pipeline.metrics();
            [
                m.reports_in,
                m.reports_kept,
                m.events,
                m.triples,
                s.pipeline.graph().len() as u64,
            ]
        };
        assert_eq!(counts(&s), counts(&s2));

        // Truncated snapshots error, never panic.
        for cut in (0..bytes.len()).step_by(7) {
            let cfg = PipelineConfig {
                region: BoundingBox::new(20.0, 34.0, 28.0, 40.0),
                ..PipelineConfig::default()
            };
            assert!(AnalyticsState::from_snapshot_bytes(cfg, 0.25, &bytes[..cut], 7).is_err());
        }
    }

    #[test]
    fn events_filter_and_limit() {
        let mut s = state();
        for i in 0..5 {
            let ev = EventRecord::instant(
                EventKind::TurningPoint,
                ObjectId(i),
                TimeMs(i as i64 * 1000),
                GeoPoint::new(24.0, 37.0),
            );
            s.recent.push_back(ev);
        }
        let res = s.events(3, None);
        assert_eq!(res.get("events").and_then(Json::as_array).unwrap().len(), 3);
        let res = s.events(10, Some("zone_entry"));
        assert_eq!(res.get("events").and_then(Json::as_array).unwrap().len(), 0);
    }
}
