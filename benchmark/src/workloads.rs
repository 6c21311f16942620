//! The four workloads: what each sets up, what it sends during the timed
//! window, and how its answers are checked. Sizes are frozen constants;
//! only `--seed` and `--seconds` vary a run.

use crate::child::{self, Server, WorkDir};
use crate::gen::{self, Batch, FleetSize, Query, QueryKind, QueryMix, BATCH_REPORTS, LANES};
use crate::openloop::{self, Clock, WallClock};
use crate::reference::{self, Counters};
use crate::stats::{self, ns_to_ms, percentile};
use crate::traced;
use crate::wire::{self, Conn};
use datacron_rdf::{execute_reference, parse_query};
use datacron_server::{AnalyticsState, Json};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    IngestStream,
    QueryMix,
    ServeMixed,
    DurableRecover,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::IngestStream,
        Workload::QueryMix,
        Workload::ServeMixed,
        Workload::DurableRecover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestStream => "ingest_stream",
            Workload::QueryMix => "query_mix",
            Workload::ServeMixed => "serve_mixed",
            Workload::DurableRecover => "durable_recover",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for BENCHMARK.json: why the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::IngestStream => {
                "preloaded in-memory server, 2 closed-loop connections of 64-report batches, fixed work: core/synopses/cep/transform, rdf commit and mirror sync at store size do the work; storage and query engine none"
            }
            Workload::QueryMix => {
                "preloaded store past partition_min_triples, 2 closed-loop connections of the seeded read mix: rdf parse/plan/morsel exec, viz and serialisation do the work; ingest and storage are idle"
            }
            Workload::ServeMixed => {
                "same preload; ingest open loop at a fixed rate (timed from due time) beside one closed-loop connection of the read mix: the state write lock and mirror sync against concurrent morsel queries"
            }
            Workload::DurableRecover => {
                "ingest_stream's work on a server with --data-dir and --fsync always, then SIGKILL and timed restarts: wal append, group commit, snapshots and recovery do work they do in no other workload"
            }
        }
    }
}

// ---- frozen sizes -------------------------------------------------------

/// The simulated fleet: about 217k reports. Set-up loads its first
/// `PRELOAD_REPORTS` into the server (about 110k triples, eleven times the
/// server's `--partition-min-triples`, so reads take the mirror and morsel
/// path and an ingest batch pays the store's size); the rest is the stream
/// the windows ingest from.
const FLEET: FleetSize = FleetSize {
    vessels: 100,
    hours: 6,
};
const PRELOAD_REPORTS: usize = 140_000;
/// Reports per preload request: few, large batches, because the store's
/// commit cost per batch grows with the graph.
const PRELOAD_BATCH: usize = 5_000;
/// `serve_mixed`'s background ingest rate. At the seed commit a 64-report
/// batch holds the preloaded store's write lock for 15-60 ms, depending on
/// how fast the shared box is running, so the lock is busy 6-25 % of the
/// time: enough to cost the reader beside it, never enough to back up.
const MIXED_INGEST_BATCHES_PER_S: u64 = 4;
/// The two ingest workloads are fixed work, so that the state the server
/// ends in (and with it memory, disk and recovery) is the same every run
/// and does not grow when the server gets faster: this many 64-report
/// batches per second of `--seconds`, which the seed commit takes about
/// `--seconds` to ingest into the preloaded store.
const INGEST_BATCHES_PER_S: u64 = 40;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Restarts on the killed server's directory in `durable_recover`; its
/// latency metrics are over these recoveries.
const RECOVERIES: usize = 11;
/// Read replies per connection compared with the reference engine.
const CHECKED_PER_CONN: usize = 150;
/// What the in-process traced replay covers.
const TRACE_BATCHES: usize = 400;
const TRACE_QUERIES: usize = 400;
/// `serve_mixed` latency limits, from the due time.
const READ_SLO_NS: u64 = 20_000_000;
const ACK_SLO_NS: u64 = 100_000_000;
/// A run whose generator sent later than this at the 99th percentile did
/// not offer the load it reports on.
const LATE_LIMIT_NS: u64 = 5_000_000;

pub fn frozen_sizes() -> Json {
    Json::obj()
        .field("fleet", format!("{FLEET:?}"))
        .field("preload_reports", PRELOAD_REPORTS)
        .field("preload_batch", PRELOAD_BATCH)
        .field("batch_reports", BATCH_REPORTS)
        .field("mixed_ingest_batches_per_s", MIXED_INGEST_BATCHES_PER_S)
        .field("ingest_batches_per_s", INGEST_BATCHES_PER_S)
        .field("setups", SETUPS)
        .field("recoveries", RECOVERIES)
        .build()
}

// ---- samples ------------------------------------------------------------

/// Request kind of a sample: a `QueryKind` index, or `INGEST`.
const INGEST: u8 = QueryKind::ALL.len() as u8;

#[derive(Clone, Copy)]
struct Sample {
    /// When it was sent (closed loop) or due (open loop), from window start.
    at: u64,
    latency: u64,
    kind: u8,
}

const OK_PREFIX: &str = "{\"id\":null,\"ok\":true";

/// Unsigned field of a reply, searched from the end: the engine's numbers
/// follow the rows.
fn reply_u64(reply: &str, key: &str) -> Option<u64> {
    let rest = &reply[reply.rfind(key)? + key.len()..];
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    rest[..digits].parse().ok()
}

/// What the engine said about the SPARQL queries of one shape.
#[derive(Default, Clone, Copy)]
struct EngineSums {
    queries: u64,
    planning_us: u64,
    exec_us: u64,
    probes: u64,
    rows: u64,
    morsels: u64,
    steals: u64,
    workers_used: u64,
}

impl EngineSums {
    /// The numbers in one `sparql` reply.
    fn of_reply(reply: &str) -> EngineSums {
        let get = |key| reply_u64(reply, key).unwrap_or(0);
        EngineSums {
            queries: 1,
            planning_us: get("\"planning_us\":"),
            exec_us: get("\"exec_us\":"),
            probes: get("\"probes\":"),
            rows: get("\"row_count\":"),
            morsels: get("\"morsels\":"),
            steals: get("\"steals\":"),
            workers_used: get("\"workers_used\":"),
        }
    }

    fn add(&mut self, other: &EngineSums) {
        self.queries += other.queries;
        self.planning_us += other.planning_us;
        self.exec_us += other.exec_us;
        self.probes += other.probes;
        self.rows += other.rows;
        self.morsels += other.morsels;
        self.steals += other.steals;
        self.workers_used += other.workers_used;
    }
}

/// One read connection: draws the mix, sends, keeps what checking needs.
struct Reader {
    conn: Conn,
    mix: QueryMix,
    failed: u64,
    /// The first replies, kept whole for the reference check.
    checked: Vec<(Query, String)>,
    /// Per SPARQL shape, filled in traced runs only.
    engine: Option<[EngineSums; 4]>,
}

impl Reader {
    fn connect(addr: SocketAddr, mix: QueryMix, trace: bool) -> Result<Reader, String> {
        let conn = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(Reader {
            conn,
            mix,
            failed: 0,
            checked: Vec::new(),
            engine: trace.then(Default::default),
        })
    }

    /// Sends the next request of the mix; returns its kind.
    fn one(&mut self) -> u8 {
        let q = self.mix.next_query();
        let kind = q.kind as u8;
        match self.conn.call_raw(&q.line) {
            Ok(reply) if reply.starts_with(OK_PREFIX) => {
                if let (Some(engine), true) = (self.engine.as_mut(), (q.kind as usize) < 4) {
                    engine[q.kind as usize].add(&EngineSums::of_reply(reply));
                }
                if self.checked.len() < CHECKED_PER_CONN {
                    let reply = reply.to_string();
                    self.checked.push((q, reply));
                }
            }
            Ok(reply) => {
                eprintln!(
                    "refused {}: {}",
                    q.kind.name(),
                    &reply[..reply.len().min(200)]
                );
                self.failed += 1;
            }
            Err(e) => {
                eprintln!("failed {}: {e}", q.kind.name());
                self.failed += 1;
            }
        }
        kind
    }
}

/// One ingest connection sending its lane in order.
struct Writer<'a> {
    conn: Conn,
    lane: &'a [Batch],
    acked: usize,
    failed: u64,
}

impl<'a> Writer<'a> {
    fn connect(addr: SocketAddr, lane: &'a [Batch]) -> Result<Writer<'a>, String> {
        let conn = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(Writer {
            conn,
            lane,
            acked: 0,
            failed: 0,
        })
    }

    fn exhausted(&self) -> bool {
        self.acked + self.failed as usize >= self.lane.len()
    }

    /// Sends the next batch. A refused batch is not retried: later
    /// batches would then be out of order for the reference.
    fn one(&mut self) {
        let batch = &self.lane[self.acked + self.failed as usize];
        match self.conn.call_raw(&batch.line) {
            Ok(reply) if reply.starts_with(OK_PREFIX) && self.failed == 0 => self.acked += 1,
            Ok(reply) => {
                eprintln!("ingest refused: {}", &reply[..reply.len().min(200)]);
                self.failed += 1;
            }
            Err(e) => {
                eprintln!("ingest failed: {e}");
                self.failed += 1;
            }
        }
    }
}

/// Calls `one` back to back until `end` (ns from `clock`'s origin) or
/// until it returns `None`; one sample per call, of the kind it returns.
fn closed_loop(clock: &WallClock, end: u64, mut one: impl FnMut() -> Option<u8>) -> Vec<Sample> {
    let mut samples = Vec::new();
    loop {
        let at = clock.now();
        if at >= end {
            return samples;
        }
        let Some(kind) = one() else {
            return samples;
        };
        samples.push(Sample {
            at,
            latency: clock.now() - at,
            kind,
        });
    }
}

// ---- set-up -------------------------------------------------------------

/// Everything one set-up produces: the server, ready, and the window's input.
struct Stage {
    server: Server,
    flags: Vec<String>,
    data_dir: Option<WorkDir>,
    /// Ingest batches per connection for the window.
    lanes: Vec<Vec<Batch>>,
    /// What set-up already loaded, in order.
    preload: Vec<Batch>,
    /// 64-report batches for the in-process traced replay (traced runs).
    trace_batches: Vec<Batch>,
    vessels: usize,
    span_ms: i64,
}

/// `--snapshot-every` of `durable_recover`: three snapshots install and
/// half a cadence of WAL records is left to replay, whatever `--seconds` is.
fn snapshot_every(seconds: u64) -> u64 {
    ((ingest_batches(seconds) as f64 / 3.5) as u64).max(1)
}

/// Batches an ingest workload sends in all, over its lanes.
fn ingest_batches(seconds: u64) -> usize {
    (INGEST_BATCHES_PER_S * seconds) as usize
}

fn set_up(
    w: Workload,
    seed: u64,
    seconds: u64,
    binary: &Path,
    trace: bool,
) -> Result<Stage, String> {
    let (reports, vessels) = gen::fleet_reports(seed, FLEET);
    if reports.len() <= PRELOAD_REPORTS {
        return Err(format!(
            "the fleet gave {} reports, fewer than the preload",
            reports.len()
        ));
    }
    let trace_batches = if trace {
        gen::encode_batches(&reports[..TRACE_BATCHES * BATCH_REPORTS], BATCH_REPORTS)
    } else {
        Vec::new()
    };
    let (loaded, stream) = reports.split_at(PRELOAD_REPORTS);
    let preload = gen::encode_batches(loaded, PRELOAD_BATCH);
    let lanes = match w {
        Workload::QueryMix => Vec::new(),
        Workload::ServeMixed => vec![gen::encode_batches(stream, BATCH_REPORTS)],
        Workload::IngestStream | Workload::DurableRecover => gen::split_lanes(stream)
            .iter()
            .map(|lane| gen::encode_batches(lane, BATCH_REPORTS))
            .collect(),
    };

    let mut flags = Vec::new();
    let mut data_dir = None;
    if w == Workload::DurableRecover {
        let dir = WorkDir::create("data")?;
        flags = [
            "--data-dir",
            &dir.path().to_string_lossy(),
            "--fsync",
            "always",
            "--snapshot-every",
            &snapshot_every(seconds).to_string(),
        ]
        .map(String::from)
        .to_vec();
        data_dir = Some(dir);
    }
    let server = Server::spawn(binary, &flags)?;
    // One connection, so the loaded state is the same every run.
    let mut writer = Writer::connect(server.addr, &preload)?;
    while !writer.exhausted() {
        writer.one();
    }
    if writer.failed > 0 {
        return Err("the server refused a preload batch".into());
    }
    Ok(Stage {
        server,
        flags,
        data_dir,
        lanes,
        preload,
        trace_batches,
        vessels,
        span_ms: FLEET.span_ms(),
    })
}

// ---- the timed window ---------------------------------------------------

struct Window {
    wall_ns: u64,
    /// Samples of the request class the end-to-end metrics describe.
    primary: Vec<Sample>,
    /// Work items those requests completed: reports or queries.
    ops: u64,
    /// `serve_mixed` only: the ingest acknowledgements beside the reads.
    acks: Vec<Sample>,
    /// `(acknowledged at, lane, index in lane)` of the acknowledged ingest
    /// batches, in that order: ingest is serialised by the state's write
    /// lock, so this is the order the server applied them in.
    applied: Vec<(u64, usize, usize)>,
    readers: Vec<Reader>,
    attempted: u64,
    failed: u64,
    /// Open loop only: how late the generator sent each request.
    late: Vec<u64>,
}

fn query_mix_for(stage: &Stage, seed: u64, conn: u64) -> QueryMix {
    QueryMix::new(
        seed.wrapping_mul(LANES as u64).wrapping_add(conn),
        stage.vessels,
        stage.span_ms,
    )
}

fn join<T>(handle: std::thread::ScopedJoinHandle<'_, Result<T, String>>) -> Result<T, String> {
    handle
        .join()
        .map_err(|_| "a generator thread panicked".to_string())?
}

/// Closed loop, one connection per lane, each sending the first
/// `per_lane` batches of its lane in order.
fn ingest_window(stage: &Stage, per_lane: usize) -> Result<Window, String> {
    let addr = stage.server.addr;
    let clock = WallClock(Instant::now());
    let results: Vec<(Vec<Sample>, usize, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = stage
            .lanes
            .iter()
            .map(|lane| {
                let clock = &clock;
                s.spawn(move || {
                    let lane = lane
                        .get(..per_lane)
                        .ok_or("the fleet is too small for --seconds")?;
                    let mut writer = Writer::connect(addr, lane)?;
                    let samples = closed_loop(clock, u64::MAX, || {
                        (!writer.exhausted()).then(|| {
                            writer.one();
                            INGEST
                        })
                    });
                    Ok((samples, writer.acked, writer.failed))
                })
            })
            .collect();
        handles.into_iter().map(join).collect::<Result<_, _>>()
    })?;
    let wall_ns = clock.now();
    let mut window = Window {
        wall_ns: results
            .iter()
            .flat_map(|r| &r.0)
            .map(|s| s.at + s.latency)
            .max()
            .unwrap_or(wall_ns),
        primary: Vec::new(),
        ops: 0,
        acks: Vec::new(),
        applied: Vec::new(),
        readers: Vec::new(),
        attempted: 0,
        failed: 0,
        late: Vec::new(),
    };
    for (lane_index, ((samples, acked, failed), lane)) in
        results.into_iter().zip(&stage.lanes).enumerate()
    {
        let done = samples[..acked].iter().enumerate();
        window
            .applied
            .extend(done.map(|(i, s)| (s.at + s.latency, lane_index, i)));
        window.attempted += samples.len() as u64;
        window.failed += failed;
        window.ops += lane[..acked]
            .iter()
            .map(|b| u64::from(b.reports))
            .sum::<u64>();
        window.primary.extend(samples);
    }
    window.applied.sort_unstable();
    Ok(window)
}

/// Closed loop, two connections, each drawing its own seeded mix.
fn query_window(stage: &Stage, seed: u64, end: u64, trace: bool) -> Result<Window, String> {
    let addr = stage.server.addr;
    let mut readers = (0..LANES as u64)
        .map(|c| Reader::connect(addr, query_mix_for(stage, seed, c), trace))
        .collect::<Result<Vec<_>, _>>()?;
    let clock = WallClock(Instant::now());
    let samples: Vec<Vec<Sample>> = std::thread::scope(|s| {
        let handles: Vec<_> = readers
            .iter_mut()
            .map(|reader| {
                let clock = &clock;
                s.spawn(move || Ok(closed_loop(clock, end, || Some(reader.one()))))
            })
            .collect();
        handles.into_iter().map(join).collect::<Result<_, _>>()
    })?;
    let primary: Vec<Sample> = samples.into_iter().flatten().collect();
    let failed: u64 = readers.iter().map(|r| r.failed).sum();
    Ok(Window {
        wall_ns: primary.iter().map(|s| s.at + s.latency).max().unwrap_or(1),
        ops: primary.len() as u64 - failed,
        attempted: primary.len() as u64,
        failed,
        primary,
        acks: Vec::new(),
        applied: Vec::new(),
        readers,
        late: Vec::new(),
    })
}

/// Connection A continues the ingest stream open loop, at its fixed rate
/// and timed from the due time; connection B issues the read mix closed
/// loop beside it.
fn mixed_window(stage: &Stage, seed: u64, end: u64, trace: bool) -> Result<Window, String> {
    let addr = stage.server.addr;
    let mut reader = Reader::connect(addr, query_mix_for(stage, seed, 0), trace)?;
    let mut writer = Writer::connect(addr, &stage.lanes[0])?;
    let needed = (MIXED_INGEST_BATCHES_PER_S * end / 1_000_000_000) as usize + 1;
    if writer.lane.len() < needed {
        return Err(format!(
            "the stream after the preload has {} batches, {needed} needed",
            writer.lane.len()
        ));
    }
    let clock = WallClock(Instant::now());
    let (ack_timings, primary) = std::thread::scope(|s| {
        let (clock, writer, reader) = (&clock, &mut writer, &mut reader);
        let interval = 1_000_000_000 / MIXED_INGEST_BATCHES_PER_S;
        let acks = s.spawn(move || openloop::run(clock, interval, end, |_| writer.one()));
        let reads = s.spawn(move || closed_loop(clock, end, || Some(reader.one())));
        (acks.join(), reads.join())
    });
    let ack_timings = ack_timings.map_err(|_| "the ingest generator panicked".to_string())?;
    let primary = primary.map_err(|_| "the read generator panicked".to_string())?;
    let acks: Vec<Sample> = ack_timings
        .iter()
        .map(|t| Sample {
            at: t.due,
            latency: t.latency(),
            kind: INGEST,
        })
        .collect();
    let last_read = primary.iter().map(|s| s.at + s.latency).max();
    Ok(Window {
        wall_ns: last_read.unwrap_or(1),
        ops: primary.len() as u64 - reader.failed,
        attempted: (primary.len() + acks.len()) as u64,
        failed: reader.failed + writer.failed,
        primary,
        acks,
        applied: (0..writer.acked).map(|i| (0, 0, i)).collect(),
        late: openloop::generator_lateness(&ack_timings),
        readers: vec![reader],
    })
}

// ---- checking -----------------------------------------------------------

fn server_counters(stats: &Json) -> Result<Counters, String> {
    let get = |name: &str| {
        wire::u64_at(stats, &format!("pipeline.{name}"))
            .ok_or_else(|| format!("stats has no pipeline.{name}"))
    };
    Ok(Counters {
        reports_in: get("reports_in")?,
        clean: get("reports_clean")?,
        kept: get("reports_kept")?,
        events: get("events")?,
        triples: get("triples")?,
    })
}

fn call(conn: &mut Conn, request: &str) -> Result<Json, String> {
    let reply = conn
        .call(request)
        .map_err(|e| format!("{}: {e}", request.trim_end()))?;
    if wire::is_ok(&reply) {
        Ok(reply)
    } else {
        Err(format!("{} was refused", request.trim_end()))
    }
}

const STATS: &str = "{\"type\":\"stats\"}\n";

/// Compares the kept read replies with the reference: SPARQL `row_count`
/// with `execute_reference` over the reference graph, every other reply
/// with the in-process state's answer, field for field.
fn check_reads(
    readers: &[Reader],
    graph: &datacron_rdf::Graph,
    state: &AnalyticsState,
) -> Vec<String> {
    let mut mismatches = Vec::new();
    for (q, reply) in readers.iter().flat_map(|r| &r.checked) {
        let Ok(reply) = Json::parse(reply) else {
            mismatches.push(format!("{}: reply is not JSON", q.kind.name()));
            continue;
        };
        let Some(result) = reply.get("result") else {
            mismatches.push(format!("{}: reply has no result", q.kind.name()));
            continue;
        };
        let want = match q.kind {
            QueryKind::Heatmap => state.heatmap(gen::VIZ_TOP_K as usize),
            QueryKind::Hotspots => state.hotspots(gen::VIZ_TOP_K as usize),
            QueryKind::Flows => state.flows(gen::FLOWS_TOP_K as usize),
            QueryKind::Events => state.events(gen::EVENTS_LIMIT as usize, None),
            _ => {
                let parsed = parse_query(&q.sparql).expect("generated query parses");
                let want = execute_reference(graph, &parsed).0.len() as u64;
                let got = result.get("row_count").and_then(Json::as_u64);
                if got != Some(want) {
                    mismatches.push(format!(
                        "{}: reference {want} rows, server {got:?}: {}",
                        q.kind.name(),
                        q.sparql
                    ));
                }
                continue;
            }
        };
        // Compare as the wire carries them: the reply was parsed from text.
        let mut want_text = String::new();
        want.write(&mut want_text);
        if Json::parse(&want_text).as_ref() != Ok(result) {
            mismatches.push(format!(
                "{}: reply differs from the in-process state's",
                q.kind.name()
            ));
        }
    }
    mismatches
}

// ---- one run ------------------------------------------------------------

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
    pub metrics: BTreeMap<String, f64>,
    pub trace_file: Option<PathBuf>,
}

fn metric_of(expo: &str, series: &str) -> f64 {
    expo.lines()
        .find_map(|l| {
            l.strip_prefix(series)?
                .strip_prefix(' ')?
                .trim()
                .parse::<f64>()
                .ok()
        })
        .unwrap_or(0.0)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn sorted_latencies(samples: &[Sample], kind: Option<u8>) -> Vec<u64> {
    let mut v: Vec<u64> = samples
        .iter()
        .filter(|s| kind.is_none_or(|k| s.kind == k))
        .map(|s| s.latency)
        .collect();
    v.sort_unstable();
    v
}

fn p_ms(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        ns_to_ms(percentile(sorted, p))
    }
}

/// Spawns the server on the state the run left behind and times spawn to
/// first ok `stats`; returns the time and that reply.
fn timed_restart(binary: &Path, flags: &[String]) -> Result<(Duration, Server, Json), String> {
    let started = Instant::now();
    let server = Server::spawn(binary, flags)?;
    let mut conn = Conn::connect(server.addr).map_err(|e| format!("connect after restart: {e}"))?;
    let stats = call(&mut conn, STATS)?;
    Ok((started.elapsed(), server, stats))
}

pub fn run(w: Workload, seed: u64, seconds: u64, trace: bool) -> Result<RunResult, String> {
    let binary = child::server_binary()?;
    let mut mismatches: Vec<String> = Vec::new();

    // Set-up, several times over: the metric is the median, the run uses
    // the last. A traced run reports no set-up time and sets up once.
    let mut setup_s = Vec::new();
    let mut stage = None;
    for _ in 0..if trace { 1 } else { SETUPS } {
        drop(stage.take());
        let started = Instant::now();
        stage = Some(set_up(w, seed, seconds, &binary, trace)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let stage = stage.expect("at least one set-up");

    let self_cpu_before = child::process_cpu_seconds("/proc/self/stat")?;
    let server_cpu_before = stage.server.cpu_seconds()?;
    let end = seconds * 1_000_000_000;
    let window = match w {
        // Fixed work: no deadline but the driver's.
        Workload::IngestStream | Workload::DurableRecover => {
            ingest_window(&stage, ingest_batches(seconds) / LANES)?
        }
        Workload::QueryMix => query_window(&stage, seed, end, trace)?,
        Workload::ServeMixed => mixed_window(&stage, seed, end, trace)?,
    };
    let gen_cpu_s = child::process_cpu_seconds("/proc/self/stat")? - self_cpu_before;
    let server_cpu_s = stage.server.cpu_seconds()? - server_cpu_before;

    // After the window: what the server says about itself.
    let mut admin = Conn::connect(stage.server.addr).map_err(|e| format!("connect: {e}"))?;
    let stats = call(&mut admin, STATS)?;
    let rss_mb = stage.server.peak_rss_mb()?;
    let before_kill = server_counters(&stats)?;
    let scrape = if trace {
        let metrics = call(&mut admin, "{\"type\":\"metrics\"}\n")?;
        let slowlog = call(&mut admin, "{\"type\":\"slowlog\",\"limit\":32}\n")?;
        Some((
            metrics
                .get("exposition")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            slowlog,
        ))
    } else {
        None
    };

    // The reference: the same lines through an in-process pipeline.
    let acked_batches = window
        .applied
        .iter()
        .map(|&(_, lane, i)| &stage.lanes[lane][i]);
    let pipeline = reference::replay(stage.preload.iter().chain(acked_batches));
    let want = Counters::of(&pipeline);
    mismatches.extend(want.mismatches(&before_kill));
    if w == Workload::QueryMix {
        // One connection loaded the store and nothing wrote since.
        if want != before_kill {
            mismatches.push(format!(
                "one-connection preload must match exactly: reference {want:?}, server {before_kill:?}"
            ));
        }
        let mut state = reference::new_state();
        for b in &stage.preload {
            state.ingest(&reference::parse_batch(&b.line));
        }
        mismatches.extend(check_reads(&window.readers, pipeline.graph(), &state));
    }

    // A fixed query for the recovery check: the trajectory nodes of the
    // first preload batch. Recovery restarts the detectors cold at the
    // last snapshot, so what they emit while the WAL tail replays may
    // differ, events with early timestamps included; the nodes the
    // snapshots cover must come back identical.
    let early = stage.data_dir.as_ref().map(|_| {
        let reports = reference::parse_batch(&stage.preload[0].line);
        let until = reports.iter().map(|r| r.time.millis()).max().unwrap_or(0);
        format!(
            "{{\"type\":\"sparql\",\"limit\":1,\"query\":\"SELECT ?n WHERE {{ \
             ?n rdf:type da:SemanticNode . ?n da:hasTemporalFeature ?t . \
             FILTER t_between(?t, 0, {until}) }}\"}}\n"
        )
    });
    let early_rows = |conn: &mut Conn| -> Result<Option<u64>, String> {
        match &early {
            Some(query) => Ok(wire::u64_at(&call(conn, query)?, "result.row_count")),
            None => Ok(None),
        }
    };
    let rows_before_kill = early_rows(&mut admin)?;
    let disk_bytes = stage
        .data_dir
        .as_ref()
        .map_or(0, |d| child::dir_bytes(d.path()));
    drop(admin);

    // Kill as a crash would. The durable server is then restarted on its
    // directory several times over, each restart a recovery of the same
    // bytes, timed from spawn to the first ok `stats`.
    let Stage {
        server,
        flags,
        data_dir,
        trace_batches,
        vessels,
        span_ms,
        ..
    } = stage;
    server.kill();
    let mut recoveries = Vec::new();
    let mut recovered_stats = None;
    for _ in 0..if data_dir.is_some() { RECOVERIES } else { 0 } {
        let (took, server, stats) = timed_restart(&binary, &flags)?;
        recoveries.push(took.as_nanos() as u64);
        let recovered = server_counters(&stats)?;
        if recovered.reports_in != before_kill.reports_in {
            mismatches.push(format!(
                "recovered {} reports, {} were acknowledged",
                recovered.reports_in, before_kill.reports_in
            ));
        }
        let mut conn = Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
        let rows = early_rows(&mut conn)?;
        if rows != rows_before_kill {
            mismatches.push(format!(
                "fixed query: {rows_before_kill:?} rows before the kill, {rows:?} after recovery"
            ));
        }
        recovered_stats = Some(stats);
        server.kill();
    }
    drop(data_dir);
    recoveries.sort_unstable();

    // The latencies the end-to-end metrics describe: the window's requests,
    // or for `durable_recover` its recoveries (in a closed loop the
    // acknowledgement latency says what the throughput says already).
    let latencies = if w == Workload::DurableRecover {
        recoveries
    } else {
        sorted_latencies(&window.primary, None)
    };
    if latencies.is_empty() {
        return Err("the window completed no request".into());
    }
    let mut late = window.late.clone();
    late.sort_unstable();
    let mut metrics = BTreeMap::new();
    let mut trace_file = None;
    if !trace {
        let wall_s = window.wall_ns as f64 / 1e9;
        metrics.extend([
            ("setup_s".to_string(), stats::median(&setup_s)),
            ("throughput_per_s".to_string(), window.ops as f64 / wall_s),
            ("latency_p50_ms".to_string(), p_ms(&latencies, 50.0)),
            ("server_rss_mb".to_string(), rss_mb),
        ]);
    } else {
        let (expo, slowlog) = scrape.expect("traced runs scrape");
        let observed = Observed {
            workload: w,
            seconds,
            window: &window,
            latencies: &latencies,
            late: &late,
            counters: before_kill,
            expo: &expo,
            slowlog: &slowlog,
            stats: &stats,
            recovered_stats: recovered_stats.as_ref(),
            disk_bytes,
            gen_cpu_s,
            server_cpu_s,
        };
        let layer = traced::run(&trace_batches, &trace_queries(seed, vessels, span_ms));
        mismatches.extend(layer.mismatch);
        metrics = layer.values;
        per_layer(&observed, &mut metrics);
        let path = child::build_dir()?
            .join("benchmark-trace")
            .join(format!("trace-{}.json", w.name()));
        layer
            .tracer
            .write_json(&path, w.name())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        trace_file = Some(path);
    }

    for m in &mismatches {
        eprintln!("MISMATCH {}: {m}", w.name());
    }
    if late.last().is_some() && percentile(&late, 99.0) > LATE_LIMIT_NS {
        eprintln!(
            "INVALID {}: the generator ran late (p99 {:.2} ms, worst {:.2} ms); the box was too busy to offer the load",
            w.name(),
            p_ms(&late, 99.0),
            p_ms(&late, 100.0)
        );
    }
    Ok(RunResult {
        correct: mismatches.is_empty(),
        attempted: window.attempted,
        failed: window.failed + mismatches.len() as u64,
        metrics,
        trace_file,
    })
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// What a traced run saw from outside the server.
struct Observed<'a> {
    workload: Workload,
    seconds: u64,
    window: &'a Window,
    /// The end-to-end latencies, ascending.
    latencies: &'a [u64],
    /// The generator's lateness samples, ascending.
    late: &'a [u64],
    /// The server's pipeline counters after the window.
    counters: Counters,
    expo: &'a str,
    slowlog: &'a Json,
    stats: &'a Json,
    recovered_stats: Option<&'a Json>,
    disk_bytes: u64,
    gen_cpu_s: f64,
    server_cpu_s: f64,
}

/// The queries the in-process traced replay runs.
fn trace_queries(seed: u64, vessels: usize, span_ms: i64) -> Vec<Query> {
    let mut mix = QueryMix::new(seed, vessels, span_ms);
    (0..TRACE_QUERIES).map(|_| mix.next_query()).collect()
}

/// The per-layer metrics that come from the scrape and from the window's
/// own samples (the traced replay's are in `traced.rs`).
fn per_layer(o: &Observed<'_>, metrics: &mut BTreeMap<String, f64>) {
    let Observed {
        window,
        expo,
        slowlog,
        stats,
        latencies,
        ..
    } = *o;
    let w = o.workload;
    let wall_s = window.wall_ns as f64 / 1e9;
    let n_requests = window.attempted as f64;
    let mut put = |name: &str, value: f64| {
        metrics.insert(name.to_string(), value);
    };
    // server, net: scraped.
    put(
        "server.requests_total",
        metric_of(expo, "datacron_requests_total{outcome=\"ok\"}"),
    );
    put(
        "server.busy_total",
        metric_of(expo, "datacron_requests_total{outcome=\"err\"}")
            + metric_of(expo, "datacron_connections_total{outcome=\"rejected\"}"),
    );
    for ty in ["ingest", "sparql", "heatmap", "hotspots", "flows", "events"] {
        let series = format!("datacron_request_latency_us{{type=\"{ty}\",quantile=\"0.5\"}}");
        put(
            &format!("server.exec_p50_us.{ty}"),
            metric_of(expo, &series),
        );
    }
    let slow_spans = |name: &str| -> Vec<f64> {
        let entries = slowlog
            .get("entries")
            .and_then(Json::as_array)
            .unwrap_or(&[]);
        entries
            .iter()
            .filter_map(|e| {
                e.get("spans")?
                    .as_array()?
                    .iter()
                    .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
            })
            .filter_map(|s| s.get("dur_us")?.as_f64())
            .collect()
    };
    let median_or_zero = |v: Vec<f64>| if v.is_empty() { 0.0 } else { stats::median(&v) };
    put(
        "server.slow_queue_wait_us",
        median_or_zero(slow_spans("queue_wait")),
    );
    put("server.slow_exec_us", median_or_zero(slow_spans("exec")));
    put("server.cpu_share", o.server_cpu_s / wall_s / nproc() as f64);
    put(
        "net.loop_latency_p50_us",
        metric_of(expo, "datacron_net_loop_latency_us{quantile=\"0.5\"}"),
    );
    put(
        "net.loop_iterations_per_req",
        ratio(
            metric_of(expo, "datacron_net_loop_iterations_total"),
            n_requests,
        ),
    );
    put(
        "net.wakeups_per_req",
        ratio(metric_of(expo, "datacron_net_wakeups_total"), n_requests),
    );

    // synopses, cep, rdf: counters the server keeps.
    let c = o.counters;
    put(
        "synopses.dropped_ratio",
        1.0 - ratio(c.clean as f64, c.reports_in as f64),
    );
    put("synopses.kept_ratio", ratio(c.kept as f64, c.clean as f64));
    put(
        "cep.events_per_kreport",
        1e3 * ratio(c.events as f64, c.reports_in as f64),
    );
    put(
        "rdf.graph_triples",
        metric_of(expo, "datacron_graph_triples"),
    );
    let engine: Vec<[EngineSums; 4]> = window.readers.iter().filter_map(|r| r.engine).collect();
    let mut all = EngineSums::default();
    for (i, shape) in ["lookup", "star3", "spatial", "temporal"]
        .into_iter()
        .enumerate()
    {
        let mut sum = EngineSums::default();
        for e in &engine {
            sum.add(&e[i]);
        }
        put(
            &format!("rdf.plan_us.{shape}"),
            ratio(sum.planning_us as f64, sum.queries as f64),
        );
        put(
            &format!("rdf.exec_us.{shape}"),
            ratio(sum.exec_us as f64, sum.queries as f64),
        );
        put(
            &format!("rdf.probes_per_row.{shape}"),
            ratio(sum.probes as f64, sum.rows as f64),
        );
        all.add(&sum);
    }
    put(
        "rdf.morsels_per_query",
        ratio(all.morsels as f64, all.queries as f64),
    );
    put(
        "rdf.steals_per_query",
        ratio(all.steals as f64, all.queries as f64),
    );
    put(
        "rdf.workers_used",
        ratio(all.workers_used as f64, all.queries as f64),
    );
    put(
        "rdf.morsels_total",
        metric_of(expo, "datacron_query_morsels_total"),
    );

    // storage: zero without a data directory.
    let batches = window.applied.len() as f64;
    let reports = c.reports_in as f64;
    put(
        "storage.fsyncs_per_kbatch",
        1e3 * ratio(metric_of(expo, "datacron_wal_fsyncs_total"), batches),
    );
    put(
        "storage.fsync_p50_us",
        metric_of(expo, "datacron_wal_fsync_latency_us{quantile=\"0.5\"}"),
    );
    put(
        "storage.avg_group_size",
        ratio(
            metric_of(expo, "datacron_wal_group_size_sum"),
            metric_of(expo, "datacron_wal_group_size_count"),
        ),
    );
    // Retired segments no longer count in the gauge; what is on disk does.
    put(
        "storage.disk_bytes_per_report",
        ratio(o.disk_bytes as f64, reports),
    );
    put("storage.wal_bytes", metric_of(expo, "datacron_wal_bytes"));
    let last_snapshot = wire::u64_at(stats, "storage.last_snapshot_seq").unwrap_or(0);
    put(
        "storage.snapshots_installed",
        (last_snapshot / snapshot_every(o.seconds)) as f64,
    );
    put(
        "storage.replayed_records",
        o.recovered_stats
            .and_then(|s| wire::u64_at(s, "storage.records_since_snapshot"))
            .unwrap_or(0) as f64,
    );

    // generator and diagnostics.
    put("gen.late_p99_ms", p_ms(o.late, 99.0));
    put("gen.cpu_share", o.gen_cpu_s / wall_s / nproc() as f64);
    put("diag.latency_p95_ms", p_ms(latencies, 95.0));
    put("diag.latency_p99_ms", p_ms(latencies, 99.0));
    put("diag.latency_max_ms", p_ms(latencies, 100.0));
    let tail = stats::highest_supported_percentile(latencies.len()).unwrap_or(50.0);
    put("diag.tail_percentile", tail);
    put("diag.latency_tail_ms", p_ms(latencies, tail));
    put("diag.samples", latencies.len() as f64);
    for kind in QueryKind::ALL {
        put(
            &format!("diag.p50_ms.{}", kind.name()),
            p_ms(&sorted_latencies(&window.primary, Some(kind as u8)), 50.0),
        );
    }
    let acks = if window.acks.is_empty() {
        &window.primary
    } else {
        &window.acks
    };
    let acks = sorted_latencies(acks, Some(INGEST));
    put("diag.p50_ms.ingest", p_ms(&acks, 50.0));
    put("diag.p95_ms.ingest", p_ms(&acks, 95.0));
    let quarter = window.wall_ns / 4;
    let reports_between = |from: u64, to: u64| {
        window
            .primary
            .iter()
            .filter(|s| s.kind == INGEST && (from..to).contains(&(s.at + s.latency)))
            .count() as f64
            * BATCH_REPORTS as f64
    };
    put(
        "ingest.first_quarter_reports_per_s",
        reports_between(0, quarter) / (quarter as f64 / 1e9),
    );
    put(
        "ingest.last_quarter_reports_per_s",
        reports_between(3 * quarter, u64::MAX) / (quarter as f64 / 1e9),
    );
    let misses = window
        .primary
        .iter()
        .filter(|s| s.latency > READ_SLO_NS)
        .count()
        + window
            .acks
            .iter()
            .filter(|s| s.latency > ACK_SLO_NS)
            .count();
    put(
        "mixed.slo_miss_ratio",
        if w == Workload::ServeMixed {
            ratio(misses as f64 + window.failed as f64, n_requests)
        } else {
            0.0
        },
    );
}
