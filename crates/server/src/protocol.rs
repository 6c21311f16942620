//! The newline-delimited JSON request/response protocol.
//!
//! One request object per line, one response object per line, over a plain
//! TCP stream. Every request may carry an `"id"` (number or string) that is
//! echoed verbatim in the response so pipelined clients can match
//! responses to in-flight requests. Error responses always have
//! `"ok": false`, a machine-readable `"code"`, and a human-readable
//! `"error"` message; the `busy` code is the 429-style backpressure signal.
//!
//! ```text
//! → {"id":1,"type":"ingest","reports":[{"object":9,"t_ms":0,"lon":24.0,"lat":37.0,"speed_mps":6.0,"heading_deg":90.0}]}
//! ← {"id":1,"ok":true,"accepted":1,"clean":1,"kept":1,"events":0,"triples":7}
//! → {"id":2,"type":"sparql","query":"SELECT ?n WHERE { ?n da:ofMovingObject da:obj/9 }"}
//! ← {"id":2,"ok":true,"vars":["n"],"rows":[["da:node/…"]],"row_count":1}
//! ```

use crate::json::Json;
use datacron_geo::{GeoPoint, TimeMs};
use datacron_model::{NavStatus, ObjectId, PositionReport, SourceId};
use std::fmt;

/// Largest accepted ingest batch; larger batches must be split by the
/// client (bounds worst-case write-lock hold time per request).
pub const MAX_BATCH: usize = 10_000;

/// Largest `top_k` / `limit` honoured by query requests.
pub const MAX_TOP_K: usize = 1_000;

/// Most WAL frames a single `repl_frame` response carries (bounds the
/// response line; followers poll again for the rest).
pub const MAX_REPL_FRAMES: usize = 512;

/// Byte budget for the WAL payloads in one `repl_frame` response,
/// pre-base64 (the line itself is ~4/3 of this plus framing).
pub const MAX_REPL_BYTES: usize = 4 << 20;

/// A machine-readable error category, the protocol's status-code analogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Admission control rejected the connection or request (HTTP 429
    /// analogue): the work queue is full. Retry later, ideally with backoff.
    Busy,
    /// The request line was not valid JSON or not a valid request object.
    BadRequest,
    /// The request was well-formed but the query inside it failed.
    QueryError,
    /// The request exceeded a protocol bound (line length, batch size).
    TooLarge,
    /// The server is shutting down.
    ShuttingDown,
    /// The durable log rejected the write; the batch was NOT applied and
    /// the client should retry (possibly against a recovered server).
    StorageError,
    /// A write (or replication request) reached a follower. The response
    /// carries a `"leader"` field with the address to redirect to.
    NotLeader,
    /// A follower shed a read because its replication lag exceeded the
    /// configured bound; the response carries the observed lag.
    Stale,
}

impl ErrorCode {
    /// The wire tag.
    pub fn tag(self) -> &'static str {
        match self {
            ErrorCode::Busy => "busy",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::QueryError => "query_error",
            ErrorCode::TooLarge => "too_large",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::StorageError => "storage_error",
            ErrorCode::NotLeader => "not_leader",
            ErrorCode::Stale => "stale",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// A parsed request body.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Push a batch of position reports through the pipeline (write path).
    Ingest {
        /// The reports, in delivery order.
        reports: Vec<PositionReport>,
    },
    /// Evaluate a SPARQL-subset query against the RDF store (read path).
    Sparql {
        /// Query text, e.g. `SELECT ?n WHERE { ?n da:ofMovingObject da:obj/9 }`.
        query: String,
        /// Maximum rows returned (defaults to [`MAX_TOP_K`]).
        limit: usize,
    },
    /// Density-grid summary plus the `top_k` heaviest cells.
    Heatmap {
        /// Number of cells to return.
        top_k: usize,
    },
    /// The `top_k` largest origin–destination zone flows.
    Flows {
        /// Number of flows to return.
        top_k: usize,
    },
    /// The `top_k` hotspot cells (centres + weights only).
    Hotspots {
        /// Number of hotspots to return.
        top_k: usize,
    },
    /// The most recent CEP detections, newest first.
    Events {
        /// Maximum events returned.
        limit: usize,
        /// Only events of this kind tag, when set (e.g. `"loitering"`).
        kind: Option<String>,
    },
    /// Server + pipeline statistics (latency percentiles, counters, queue).
    Stats,
    /// One Prometheus-style text snapshot of the unified metrics registry.
    Metrics,
    /// The slowest requests observed, with per-span latency breakdowns.
    Slowlog {
        /// Maximum entries returned (defaults to [`MAX_TOP_K`]).
        limit: usize,
    },
    /// Follower registration and bootstrap (replication). The leader
    /// answers with its epoch and WAL head, plus a full state snapshot
    /// when `from_seq` is below the retained WAL floor.
    ReplSubscribe {
        /// The follower's self-chosen identity (shows up in leader stats).
        follower: String,
        /// The next WAL sequence the follower needs.
        from_seq: u64,
    },
    /// Poll a window of WAL records starting at `from_seq` (replication).
    /// Polling for `from_seq` implicitly acknowledges everything below it.
    ReplFrame {
        /// The follower's identity.
        follower: String,
        /// The next WAL sequence the follower needs.
        from_seq: u64,
        /// Most frames wanted, capped at [`MAX_REPL_FRAMES`].
        max: usize,
    },
    /// Replication status: role, epoch, and per-follower lag on a leader;
    /// applied position and observed leader head on a follower.
    ReplStatus,
}

impl Request {
    /// Stable per-variant tag, used for routing and per-type latency
    /// metrics. Must match the `"type"` field on the wire.
    pub fn tag(&self) -> &'static str {
        match self {
            Request::Ingest { .. } => "ingest",
            Request::Sparql { .. } => "sparql",
            Request::Heatmap { .. } => "heatmap",
            Request::Flows { .. } => "flows",
            Request::Hotspots { .. } => "hotspots",
            Request::Events { .. } => "events",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Slowlog { .. } => "slowlog",
            Request::ReplSubscribe { .. } => "repl_subscribe",
            Request::ReplFrame { .. } => "repl_frame",
            Request::ReplStatus => "repl_status",
        }
    }

    /// All request tags, in metric-index order (see `request_index`).
    pub const TAGS: [&'static str; 12] = [
        "ingest",
        "sparql",
        "heatmap",
        "flows",
        "hotspots",
        "events",
        "stats",
        "metrics",
        "slowlog",
        "repl_subscribe",
        "repl_frame",
        "repl_status",
    ];

    /// Index of this request's tag within [`Request::TAGS`]. Exhaustive
    /// so a new request variant cannot compile without a metrics slot;
    /// `tags_match_indices` checks it against the table.
    pub fn index(&self) -> usize {
        match self {
            Request::Ingest { .. } => 0,
            Request::Sparql { .. } => 1,
            Request::Heatmap { .. } => 2,
            Request::Flows { .. } => 3,
            Request::Hotspots { .. } => 4,
            Request::Events { .. } => 5,
            Request::Stats => 6,
            Request::Metrics => 7,
            Request::Slowlog { .. } => 8,
            Request::ReplSubscribe { .. } => 9,
            Request::ReplFrame { .. } => 10,
            Request::ReplStatus => 11,
        }
    }

    /// True for the read-path requests a follower serves (and stamps with
    /// its replication position); writes and replication requests are not
    /// reads, and diagnostics (`stats`, `metrics`, …) are never shed.
    pub fn is_read(&self) -> bool {
        matches!(
            self,
            Request::Sparql { .. }
                | Request::Heatmap { .. }
                | Request::Flows { .. }
                | Request::Hotspots { .. }
                | Request::Events { .. }
        )
    }
}

/// A request envelope: the optional client-chosen id plus the body.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Echoed verbatim in the response (`Json::Null` when absent).
    pub id: Json,
    /// The request body.
    pub req: Request,
}

/// A protocol-level failure: what to report and under which code.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolError {
    /// The machine-readable category.
    pub code: ErrorCode,
    /// The human-readable detail.
    pub msg: String,
    /// Machine-readable fields carried alongside the error (e.g. the
    /// leader address on `not_leader`, the observed lag on `stale`).
    pub extra: Vec<(String, Json)>,
}

impl ProtocolError {
    /// Builds an error.
    pub fn new(code: ErrorCode, msg: impl Into<String>) -> Self {
        Self {
            code,
            msg: msg.into(),
            extra: Vec::new(),
        }
    }

    /// Attaches a machine-readable field to the error response.
    pub fn with_field(mut self, key: impl Into<String>, value: impl Into<Json>) -> Self {
        self.extra.push((key.into(), value.into()));
        self
    }
}

fn bad(msg: impl Into<String>) -> ProtocolError {
    ProtocolError::new(ErrorCode::BadRequest, msg)
}

/// Parses one request line into an envelope.
pub fn parse_request(line: &str) -> Result<Envelope, ProtocolError> {
    let v = Json::parse(line).map_err(|e| bad(format!("invalid JSON: {e}")))?;
    let id = match v.get("id") {
        None => Json::Null,
        Some(id @ (Json::Null | Json::Num(_) | Json::Str(_))) => id.clone(),
        Some(_) => return Err(bad("\"id\" must be a number or string")),
    };
    let ty = v
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing \"type\" field"))?;
    let req = match ty {
        "ingest" => {
            let reports = v
                .get("reports")
                .and_then(Json::as_array)
                .ok_or_else(|| bad("ingest needs a \"reports\" array"))?;
            if reports.len() > MAX_BATCH {
                return Err(ProtocolError::new(
                    ErrorCode::TooLarge,
                    format!("batch of {} exceeds max {}", reports.len(), MAX_BATCH),
                ));
            }
            let reports = reports
                .iter()
                .enumerate()
                .map(|(i, r)| parse_report(r).map_err(|msg| bad(format!("reports[{i}]: {msg}"))))
                .collect::<Result<Vec<_>, _>>()?;
            Request::Ingest { reports }
        }
        "sparql" => Request::Sparql {
            query: v
                .get("query")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("sparql needs a \"query\" string"))?
                .to_string(),
            limit: parse_k(&v, "limit", MAX_TOP_K)?,
        },
        "heatmap" => Request::Heatmap {
            top_k: parse_k(&v, "top_k", 10)?,
        },
        "flows" => Request::Flows {
            top_k: parse_k(&v, "top_k", 10)?,
        },
        "hotspots" => Request::Hotspots {
            top_k: parse_k(&v, "top_k", 10)?,
        },
        "events" => Request::Events {
            limit: parse_k(&v, "limit", 100)?,
            kind: match v.get("kind") {
                None | Some(Json::Null) => None,
                Some(k) => Some(
                    k.as_str()
                        .ok_or_else(|| bad("\"kind\" must be a string"))?
                        .to_string(),
                ),
            },
        },
        "stats" => Request::Stats,
        "metrics" => Request::Metrics,
        "slowlog" => Request::Slowlog {
            limit: parse_k(&v, "limit", MAX_TOP_K)?,
        },
        "repl_subscribe" => Request::ReplSubscribe {
            follower: parse_follower(&v)?,
            // WAL sequences are 0-based; 0 means "from the first record".
            from_seq: v.get("from_seq").and_then(Json::as_u64).unwrap_or(0),
        },
        "repl_frame" => Request::ReplFrame {
            follower: parse_follower(&v)?,
            from_seq: v
                .get("from_seq")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("repl_frame needs integer \"from_seq\""))?,
            max: match v.get("max") {
                None | Some(Json::Null) => MAX_REPL_FRAMES,
                Some(m) => {
                    let m = m
                        .as_u64()
                        .ok_or_else(|| bad("\"max\" must be a non-negative integer"))?;
                    usize::try_from(m)
                        .unwrap_or(MAX_REPL_FRAMES)
                        .min(MAX_REPL_FRAMES)
                }
            },
        },
        "repl_status" => Request::ReplStatus,
        other => return Err(bad(format!("unknown request type {other:?}"))),
    };
    Ok(Envelope { id, req })
}

fn parse_follower(v: &Json) -> Result<String, ProtocolError> {
    let f = v
        .get("follower")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("replication requests need a \"follower\" string"))?;
    if f.is_empty() || f.len() > 128 {
        return Err(bad("\"follower\" must be 1–128 bytes"));
    }
    Ok(f.to_string())
}

fn parse_k(v: &Json, field: &str, default: usize) -> Result<usize, ProtocolError> {
    match v.get(field) {
        None | Some(Json::Null) => Ok(default),
        Some(k) => {
            let k = k
                .as_u64()
                .ok_or_else(|| bad(format!("\"{field}\" must be a non-negative integer")))?;
            Ok((k as usize).min(MAX_TOP_K))
        }
    }
}

fn parse_report(r: &Json) -> Result<PositionReport, String> {
    let object = r
        .get("object")
        .and_then(Json::as_u64)
        .ok_or("missing integer \"object\"")?;
    let t_ms = r
        .get("t_ms")
        .and_then(Json::as_i64)
        .ok_or("missing integer \"t_ms\"")?;
    let lon = r
        .get("lon")
        .and_then(Json::as_f64)
        .ok_or("missing \"lon\"")?;
    let lat = r
        .get("lat")
        .and_then(Json::as_f64)
        .ok_or("missing \"lat\"")?;
    // Out-of-range coordinates are accepted on purpose: cleansing dirty
    // fixes is the pipeline's job, not the wire layer's.
    let speed_mps = r
        .get("speed_mps")
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN);
    let heading_deg = r
        .get("heading_deg")
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN);
    let nav_status = match r.get("nav_status").and_then(Json::as_str) {
        None => NavStatus::UnderWay,
        Some("under_way") => NavStatus::UnderWay,
        Some("at_anchor") => NavStatus::AtAnchor,
        Some("moored") => NavStatus::Moored,
        Some("fishing") => NavStatus::Fishing,
        Some("restricted") => NavStatus::Restricted,
        Some("unknown") => NavStatus::Unknown,
        Some(other) => return Err(format!("unknown nav_status {other:?}")),
    };
    Ok(PositionReport::maritime(
        ObjectId(object),
        TimeMs(t_ms),
        GeoPoint::new(lon, lat),
        speed_mps,
        heading_deg,
        SourceId::AIS_TERRESTRIAL,
        nav_status,
    ))
}

/// Serialises a report the way `parse_report` reads it (loadgen + tests).
pub fn report_to_json(r: &PositionReport) -> Json {
    Json::obj()
        .field("object", r.object.raw())
        .field("t_ms", r.time.millis())
        .field("lon", r.lon)
        .field("lat", r.lat)
        .field("speed_mps", r.speed_mps)
        .field("heading_deg", r.heading_deg)
        .build()
}

/// Builds a success response: `{"id":…,"ok":true, …fields}`.
pub fn ok_response(id: &Json, fields: Vec<(String, Json)>) -> String {
    let mut pairs = vec![
        ("id".to_string(), id.clone()),
        ("ok".to_string(), Json::Bool(true)),
    ];
    pairs.extend(fields);
    let mut out = String::new();
    Json::Obj(pairs).write(&mut out);
    out
}

/// Builds an error response: `{"id":…,"ok":false,"code":…,"error":…}`.
pub fn error_response(id: &Json, code: ErrorCode, msg: &str) -> String {
    error_response_with(id, code, msg, Vec::new())
}

/// Like [`error_response`], with machine-readable extra fields appended
/// (how `not_leader` carries the leader address and `stale` the lag).
pub fn error_response_with(
    id: &Json,
    code: ErrorCode,
    msg: &str,
    extra: Vec<(String, Json)>,
) -> String {
    let mut pairs = vec![
        ("id".to_string(), id.clone()),
        ("ok".to_string(), Json::Bool(false)),
        ("code".to_string(), Json::Str(code.tag().to_string())),
        ("error".to_string(), Json::Str(msg.to_string())),
    ];
    pairs.extend(extra);
    let mut out = String::new();
    Json::Obj(pairs).write(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_match_indices() {
        let all = [
            Request::Ingest {
                reports: Vec::new(),
            },
            Request::Sparql {
                query: String::new(),
                limit: 1,
            },
            Request::Heatmap { top_k: 1 },
            Request::Flows { top_k: 1 },
            Request::Hotspots { top_k: 1 },
            Request::Events {
                limit: 1,
                kind: None,
            },
            Request::Stats,
            Request::Metrics,
            Request::Slowlog { limit: 1 },
            Request::ReplSubscribe {
                follower: String::new(),
                from_seq: 1,
            },
            Request::ReplFrame {
                follower: String::new(),
                from_seq: 1,
                max: 1,
            },
            Request::ReplStatus,
        ];
        assert_eq!(all.len(), Request::TAGS.len());
        for r in &all {
            assert_eq!(Request::TAGS[r.index()], r.tag());
        }
    }

    #[test]
    fn parses_every_request_type() {
        let cases = [
            (
                r#"{"type":"ingest","reports":[{"object":1,"t_ms":0,"lon":24.0,"lat":37.0}]}"#,
                "ingest",
            ),
            (
                r#"{"type":"sparql","query":"SELECT ?s WHERE { ?s ?p ?o }"}"#,
                "sparql",
            ),
            (r#"{"type":"heatmap","top_k":5}"#, "heatmap"),
            (r#"{"type":"flows"}"#, "flows"),
            (r#"{"type":"hotspots","top_k":3}"#, "hotspots"),
            (
                r#"{"type":"events","limit":10,"kind":"loitering"}"#,
                "events",
            ),
            (r#"{"type":"stats"}"#, "stats"),
            (r#"{"type":"metrics"}"#, "metrics"),
            (r#"{"type":"slowlog","limit":5}"#, "slowlog"),
            (
                r#"{"type":"repl_subscribe","follower":"f1","from_seq":1}"#,
                "repl_subscribe",
            ),
            (
                r#"{"type":"repl_frame","follower":"f1","from_seq":7,"max":64}"#,
                "repl_frame",
            ),
            (r#"{"type":"repl_status"}"#, "repl_status"),
        ];
        for (line, tag) in cases {
            let env = parse_request(line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
            assert_eq!(env.req.tag(), tag);
            assert_eq!(env.id, Json::Null);
        }
    }

    #[test]
    fn id_is_preserved() {
        let env = parse_request(r#"{"id":42,"type":"stats"}"#).unwrap();
        assert_eq!(env.id, Json::Num(42.0));
        let env = parse_request(r#"{"id":"abc","type":"stats"}"#).unwrap();
        assert_eq!(env.id, Json::Str("abc".into()));
        assert!(parse_request(r#"{"id":[1],"type":"stats"}"#).is_err());
    }

    #[test]
    fn report_roundtrip() {
        let r = PositionReport::maritime(
            ObjectId(7),
            TimeMs(123_000),
            GeoPoint::new(24.5, 37.25),
            6.5,
            91.0,
            SourceId::AIS_TERRESTRIAL,
            NavStatus::UnderWay,
        );
        let mut line = String::new();
        Json::obj()
            .field("type", "ingest")
            .field("reports", Json::Arr(vec![report_to_json(&r)]))
            .build()
            .write(&mut line);
        let env = parse_request(&line).unwrap();
        match env.req {
            Request::Ingest { reports } => {
                assert_eq!(reports.len(), 1);
                assert_eq!(reports[0].object, ObjectId(7));
                assert_eq!(reports[0].time, TimeMs(123_000));
                assert!((reports[0].lon - 24.5).abs() < 1e-12);
                assert!((reports[0].speed_mps - 6.5).abs() < 1e-12);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn missing_fields_are_bad_requests() {
        for line in [
            r#"{"reports":[]}"#,
            r#"{"type":"ingest"}"#,
            r#"{"type":"ingest","reports":[{"object":1}]}"#,
            r#"{"type":"sparql"}"#,
            r#"{"type":"nonsense"}"#,
            r#"not json"#,
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{line}");
        }
    }

    #[test]
    fn oversize_limits_are_too_large() {
        let reports = vec!["{}"; MAX_BATCH + 1].join(",");
        let err =
            parse_request(&format!(r#"{{"type":"ingest","reports":[{reports}]}}"#)).unwrap_err();
        assert_eq!(err.code, ErrorCode::TooLarge);
    }

    /// The worker-holding `sleep` diagnostic is gone from the protocol:
    /// the name gets exactly what any other unknown type gets.
    #[test]
    fn retired_sleep_request_is_an_unknown_type() {
        let unknown = parse_request(r#"{"type":"teleport","ms":10}"#).unwrap_err();
        for line in [r#"{"type":"sleep"}"#, r#"{"type":"sleep","ms":10}"#] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{line}");
            assert_eq!(err.msg, unknown.msg.replace("teleport", "sleep"), "{line}");
        }
        assert!(!Request::TAGS.contains(&"sleep"));
    }

    #[test]
    fn top_k_defaults_and_caps() {
        match parse_request(r#"{"type":"hotspots"}"#).unwrap().req {
            Request::Hotspots { top_k } => assert_eq!(top_k, 10),
            _ => unreachable!(),
        }
        match parse_request(r#"{"type":"hotspots","top_k":999999}"#)
            .unwrap()
            .req
        {
            Request::Hotspots { top_k } => assert_eq!(top_k, MAX_TOP_K),
            _ => unreachable!(),
        }
    }

    #[test]
    fn error_response_shape() {
        let line = error_response(&Json::Num(3.0), ErrorCode::Busy, "queue full");
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("code").and_then(Json::as_str), Some("busy"));
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn error_response_carries_extra_fields() {
        let line = error_response_with(
            &Json::Null,
            ErrorCode::NotLeader,
            "writes go to the leader",
            vec![("leader".to_string(), Json::Str("127.0.0.1:7000".into()))],
        );
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("code").and_then(Json::as_str), Some("not_leader"));
        assert_eq!(
            v.get("leader").and_then(Json::as_str),
            Some("127.0.0.1:7000")
        );
    }

    #[test]
    fn repl_parse_rules() {
        // from_seq defaults to 0 on subscribe (the whole 0-based log).
        match parse_request(r#"{"type":"repl_subscribe","follower":"a"}"#)
            .unwrap()
            .req
        {
            Request::ReplSubscribe { from_seq, .. } => assert_eq!(from_seq, 0),
            _ => unreachable!(),
        }
        match parse_request(r#"{"type":"repl_frame","follower":"a","from_seq":0}"#)
            .unwrap()
            .req
        {
            Request::ReplFrame { from_seq, max, .. } => {
                assert_eq!(from_seq, 0);
                assert_eq!(max, MAX_REPL_FRAMES);
            }
            _ => unreachable!(),
        }
        // max is capped, follower is required and bounded.
        match parse_request(r#"{"type":"repl_frame","follower":"a","from_seq":5,"max":99999}"#)
            .unwrap()
            .req
        {
            Request::ReplFrame { max, .. } => assert_eq!(max, MAX_REPL_FRAMES),
            _ => unreachable!(),
        }
        for line in [
            r#"{"type":"repl_subscribe"}"#,
            r#"{"type":"repl_subscribe","follower":""}"#,
            r#"{"type":"repl_frame","follower":"a"}"#,
        ] {
            assert_eq!(
                parse_request(line).unwrap_err().code,
                ErrorCode::BadRequest,
                "{line}"
            );
        }
        // Reads are exactly the sheddable set.
        assert!(parse_request(r#"{"type":"heatmap"}"#)
            .unwrap()
            .req
            .is_read());
        assert!(!parse_request(r#"{"type":"stats"}"#).unwrap().req.is_read());
        assert!(!parse_request(r#"{"type":"repl_status"}"#)
            .unwrap()
            .req
            .is_read());
    }
}
