//! Seeded traffic: a maritime report stream split over two ingest
//! connections, and the read mix. The same seed gives the same bytes.

use datacron_model::PositionReport;
use datacron_server::protocol::report_to_json;
use datacron_server::Json;
use datacron_sim::{generate_maritime, MaritimeConfig};

/// Reports per ingest request (ISSUE 11: 64-report batches).
pub const BATCH_REPORTS: usize = 64;
/// Ingest connections; vessels are split over them by id parity.
pub const LANES: usize = 2;

/// splitmix64: small, seedable, and independent of the simulator's RNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[low, high)`.
    pub fn range(&mut self, low: f64, high: f64) -> f64 {
        low + (high - low) * self.unit()
    }
}

/// Ranks `0..n` with probability ∝ 1/(rank+1)^s, by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty set");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One encoded ingest request.
pub struct Batch {
    /// The request line, newline included.
    pub line: String,
    pub reports: u32,
}

/// Size of the simulated fleet and how long it sails.
#[derive(Clone, Copy, Debug)]
pub struct FleetSize {
    pub vessels: usize,
    pub hours: i64,
}

impl FleetSize {
    pub fn span_ms(self) -> i64 {
        self.hours * 3_600_000
    }
}

/// The fleet's observed reports in delivery order (event time plus the
/// noise model's transport delay), plus the number of vessels (ids `0..n`).
pub fn fleet_reports(seed: u64, size: FleetSize) -> (Vec<PositionReport>, usize) {
    let config = MaritimeConfig {
        seed,
        n_vessels: size.vessels,
        duration_ms: size.span_ms(),
        ..MaritimeConfig::default()
    };
    let data = generate_maritime(&config);
    let reports = data
        .reports_delivery_order()
        .into_iter()
        .map(|o| o.report)
        .collect();
    (reports, data.vessels.len())
}

/// The lane (ingest connection) a vessel's reports travel on: by id
/// parity, so each vessel's own order holds on one connection.
pub fn lane_of(object: u64) -> usize {
    (object % LANES as u64) as usize
}

pub fn split_lanes(reports: &[PositionReport]) -> [Vec<PositionReport>; LANES] {
    let mut lanes: [Vec<PositionReport>; LANES] = Default::default();
    for r in reports {
        lanes[lane_of(r.object.raw())].push(*r);
    }
    lanes
}

/// Encodes `reports` as ingest requests of `per_batch` reports, in order.
pub fn encode_batches(reports: &[PositionReport], per_batch: usize) -> Vec<Batch> {
    reports
        .chunks(per_batch)
        .map(|chunk| {
            let mut line = String::new();
            let body = Json::Arr(chunk.iter().map(report_to_json).collect());
            Json::obj()
                .field("type", "ingest")
                .field("reports", body)
                .build()
                .write(&mut line);
            line.push('\n');
            Batch {
                line,
                reports: chunk.len() as u32,
            }
        })
        .collect()
}

/// The read request types of the mix; `shape` names the SPARQL shapes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueryKind {
    Lookup,
    Star3,
    Spatial,
    Temporal,
    Heatmap,
    Hotspots,
    Flows,
    Events,
}

impl QueryKind {
    pub const ALL: [QueryKind; 8] = [
        QueryKind::Lookup,
        QueryKind::Star3,
        QueryKind::Spatial,
        QueryKind::Temporal,
        QueryKind::Heatmap,
        QueryKind::Hotspots,
        QueryKind::Flows,
        QueryKind::Events,
    ];

    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Lookup => "lookup",
            QueryKind::Star3 => "star3",
            QueryKind::Spatial => "spatial",
            QueryKind::Temporal => "temporal",
            QueryKind::Heatmap => "heatmap",
            QueryKind::Hotspots => "hotspots",
            QueryKind::Flows => "flows",
            QueryKind::Events => "events",
        }
    }

    /// Share of the mix, percent (ISSUE 11).
    fn percent(self) -> u64 {
        match self {
            QueryKind::Lookup => 40,
            QueryKind::Star3 => 15,
            QueryKind::Spatial => 10,
            QueryKind::Temporal => 5,
            QueryKind::Heatmap => 10,
            QueryKind::Hotspots => 10,
            QueryKind::Flows => 5,
            QueryKind::Events => 5,
        }
    }
}

/// One encoded read request.
pub struct Query {
    pub kind: QueryKind,
    /// The request line, newline included.
    pub line: String,
    /// SPARQL text, for the reference engine; empty for the other types.
    pub sparql: String,
}

/// Rows a SPARQL reply may carry; `row_count` is exact regardless.
pub const ROW_LIMIT: u64 = 100;
pub const VIZ_TOP_K: u64 = 20;
pub const FLOWS_TOP_K: u64 = 10;
pub const EVENTS_LIMIT: u64 = 50;
/// Zipf exponent at which a fifth of the vessels draws about 80 % of lookups.
const LOOKUP_SKEW: f64 = 1.3;

/// Draws read requests of the mix in order.
pub struct QueryMix {
    rng: Rng,
    zipf: Zipf,
    /// Vessel ids by popularity rank: a seeded shuffle, so the hot
    /// vessels are not simply the low ids.
    by_rank: Vec<u64>,
    span_ms: i64,
}

impl QueryMix {
    pub fn new(seed: u64, vessels: usize, span_ms: i64) -> QueryMix {
        let mut rng = Rng::new(seed ^ 0x51_7e_a5_ed);
        let mut by_rank: Vec<u64> = (0..vessels as u64).collect();
        for i in (1..by_rank.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            by_rank.swap(i, j);
        }
        QueryMix {
            rng,
            zipf: Zipf::new(vessels, LOOKUP_SKEW),
            by_rank,
            span_ms,
        }
    }

    pub fn next_query(&mut self) -> Query {
        let mut roll = self.rng.next_u64() % 100;
        let kind = QueryKind::ALL
            .into_iter()
            .find(|k| {
                let hit = roll < k.percent();
                roll = roll.saturating_sub(k.percent());
                hit
            })
            .expect("the shares sum to 100");
        let sparql = match kind {
            QueryKind::Lookup => {
                let vessel = self.by_rank[self.zipf.sample(&mut self.rng)];
                format!("SELECT ?n WHERE {{ ?n da:ofMovingObject da:obj/{vessel} }}")
            }
            QueryKind::Star3 => {
                let vessel = self.by_rank[self.zipf.sample(&mut self.rng)];
                let min_speed = self.rng.range(2.0, 8.0);
                format!(
                    "SELECT ?n ?s ?t WHERE {{ ?n da:ofMovingObject da:obj/{vessel} . ?n da:speed ?s . \
                     ?n da:hasTemporalFeature ?t . FILTER (?s >= {min_speed:.2}) }}"
                )
            }
            QueryKind::Spatial => {
                // A 0.5° box somewhere in the sailed part of the Aegean.
                let lon = self.rng.range(22.5, 28.0);
                let lat = self.rng.range(35.0, 40.0);
                format!(
                    "SELECT ?n WHERE {{ ?n da:hasGeometry ?g . FILTER st_within(?g, {lon:.3}, {lat:.3}, {:.3}, {:.3}) }}",
                    lon + 0.5,
                    lat + 0.5
                )
            }
            QueryKind::Temporal => {
                let width = 120_000;
                let start = (self.rng.unit() * (self.span_ms - width) as f64) as i64;
                format!(
                    "SELECT ?n WHERE {{ ?n da:hasTemporalFeature ?t . FILTER t_between(?t, {start}, {}) }}",
                    start + width
                )
            }
            _ => String::new(),
        };
        let request = match kind {
            QueryKind::Heatmap => Json::obj()
                .field("type", "heatmap")
                .field("top_k", VIZ_TOP_K),
            QueryKind::Hotspots => Json::obj()
                .field("type", "hotspots")
                .field("top_k", VIZ_TOP_K),
            QueryKind::Flows => Json::obj()
                .field("type", "flows")
                .field("top_k", FLOWS_TOP_K),
            QueryKind::Events => Json::obj()
                .field("type", "events")
                .field("limit", EVENTS_LIMIT),
            _ => Json::obj()
                .field("type", "sparql")
                .field("query", sparql.as_str())
                .field("limit", ROW_LIMIT),
        };
        let mut line = String::new();
        request.build().write(&mut line);
        line.push('\n');
        Query { kind, line, sparql }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::parse_batch;
    use std::collections::BTreeMap;

    const SMALL: FleetSize = FleetSize {
        vessels: 12,
        hours: 1,
    };

    #[test]
    fn zipf_is_deterministic_per_seed_and_skewed() {
        let zipf = Zipf::new(100, LOOKUP_SKEW);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..20_000)
                .map(|_| zipf.sample(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let ranks = draw(3);
        assert!(ranks.iter().all(|&r| r < 100));
        // About 80 % of the draws fall on the top fifth of the ranks.
        let top_fifth = ranks.iter().filter(|&&r| r < 20).count() as f64 / ranks.len() as f64;
        assert!(
            (0.75..0.88).contains(&top_fifth),
            "top fifth drew {top_fifth}"
        );
    }

    #[test]
    fn query_mix_is_deterministic_per_seed_and_keeps_its_shares() {
        let lines = |seed| {
            let mut mix = QueryMix::new(seed, 50, 3_600_000);
            (0..5_000)
                .map(|_| mix.next_query())
                .map(|q| (q.kind, q.line))
                .collect::<Vec<_>>()
        };
        assert_eq!(lines(9), lines(9));
        assert_ne!(lines(9), lines(10));
        let drawn = lines(9);
        for kind in QueryKind::ALL {
            let share =
                drawn.iter().filter(|(k, _)| *k == kind).count() as f64 / drawn.len() as f64;
            let want = kind.percent() as f64 / 100.0;
            assert!(
                (share - want).abs() < 0.02,
                "{}: {share} drawn, {want} wanted",
                kind.name()
            );
        }
        assert!(drawn
            .iter()
            .all(|(_, line)| line.ends_with('\n') && Json::parse(line.trim_end()).is_ok()));
    }

    #[test]
    fn batches_are_deterministic_per_seed_and_lose_nothing() {
        let encode = |seed| {
            let (reports, _) = fleet_reports(seed, SMALL);
            let lines: Vec<String> = encode_batches(&reports, BATCH_REPORTS)
                .into_iter()
                .map(|b| b.line)
                .collect();
            (reports, lines)
        };
        let (reports, lines) = encode(5);
        assert_eq!(lines, encode(5).1);
        assert_ne!(lines, encode(6).1);
        let batches = encode_batches(&reports, BATCH_REPORTS);
        assert!(batches[..batches.len() - 1]
            .iter()
            .all(|b| b.reports as usize == BATCH_REPORTS));
        assert_eq!(
            batches.iter().map(|b| b.reports as usize).sum::<usize>(),
            reports.len()
        );
        // The server parses back exactly the reports that were encoded, in order.
        let parsed: Vec<_> = batches.iter().flat_map(|b| parse_batch(&b.line)).collect();
        let sent: Vec<_> = reports.iter().map(|r| (r.object, r.time)).collect();
        assert_eq!(
            parsed
                .iter()
                .map(|r| (r.object, r.time))
                .collect::<Vec<_>>(),
            sent
        );
    }

    #[test]
    fn each_vessel_keeps_its_order_on_one_lane() {
        let (reports, vessels) = fleet_reports(11, SMALL);
        let lanes = split_lanes(&reports);
        assert_eq!(lanes.iter().map(Vec::len).sum::<usize>(), reports.len());
        let order_of = |stream: &[PositionReport]| {
            let mut by_vessel: BTreeMap<u64, Vec<i64>> = BTreeMap::new();
            for r in stream {
                by_vessel
                    .entry(r.object.raw())
                    .or_default()
                    .push(r.time.millis());
            }
            by_vessel
        };
        let whole = order_of(&reports);
        assert!(whole.len() <= vessels);
        for (lane, stream) in lanes.iter().enumerate() {
            for (vessel, times) in order_of(stream) {
                assert_eq!(
                    lane_of(vessel),
                    lane,
                    "vessel {vessel} is on the wrong lane"
                );
                assert_eq!(times, whole[&vessel], "vessel {vessel} was reordered");
            }
        }
    }
}
