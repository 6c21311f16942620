//! Differential test: the cell-indexed pair detectors and the
//! aggregate-carrying window detectors against the code they replaced.
//!
//! [`scan`] is that code, kept here as the reference: rendezvous and CPA
//! scan every vessel's latest fix on every report, loitering and drifting
//! re-read their whole window. The detectors under test must emit the same
//! events, report by report — as a multiset, since the scan's order within
//! one report was its hash map's. (The reference never forgets anything;
//! that the detectors may is part of what is checked.) Its loitering,
//! drifting and CPA alert once per episode by the detectors' rule,
//! written out here: a hold opens an episode only if the last one was
//! more than the window, or the staleness bound, before it.

use datacron_cep::{CpaDetector, DriftingDetector, LoiteringDetector, RendezvousDetector};
use datacron_geo::{BoundingBox, GeoPoint, TimeMs};
use datacron_model::{EventKind, EventRecord, NavStatus, ObjectId, PositionReport, SourceId};
use datacron_sim::{generate_maritime, MaritimeConfig};

/// The detectors as they were before the cell index: the reference.
mod scan {
    use datacron_cep::maritime::cpa;
    use datacron_geo::FxHashMap;
    use datacron_geo::{BoundingBox, GeoPoint, Grid, TimeInterval, TimeMs};
    use datacron_model::{EventKind, EventRecord, NavStatus, ObjectId, PositionReport};
    use std::collections::VecDeque;

    /// Shared helper: a per-object sliding buffer of recent fixes.
    #[derive(Debug, Default)]
    struct WindowBuf {
        buf: VecDeque<(TimeMs, GeoPoint, f64)>, // (time, pos, speed)
    }

    impl WindowBuf {
        fn push(&mut self, t: TimeMs, pos: GeoPoint, speed: f64, window_ms: i64) {
            self.buf.push_back((t, pos, speed));
            while let Some(&(t0, _, _)) = self.buf.front() {
                if t - t0 > window_ms {
                    self.buf.pop_front();
                } else {
                    break;
                }
            }
        }

        fn span_ms(&self) -> i64 {
            match (self.buf.front(), self.buf.back()) {
                (Some(&(a, _, _)), Some(&(b, _, _))) => b - a,
                _ => 0,
            }
        }

        /// Diameter of the position set (max pairwise bbox diagonal, metres).
        fn diameter_m(&self) -> f64 {
            let bbox = BoundingBox::from_points(self.buf.iter().map(|&(_, p, _)| p));
            match bbox {
                Some(b) => GeoPoint::new(b.min_lon, b.min_lat)
                    .haversine_m(&GeoPoint::new(b.max_lon, b.max_lat)),
                None => 0.0,
            }
        }

        fn mean_speed(&self) -> f64 {
            if self.buf.is_empty() {
                return 0.0;
            }
            self.buf.iter().map(|&(_, _, s)| s).sum::<f64>() / self.buf.len() as f64
        }

        /// Path length / net displacement (1 = dead straight; large = tangled).
        fn tortuosity(&self) -> f64 {
            if self.buf.len() < 2 {
                return 1.0;
            }
            let mut path = 0.0;
            let pts: Vec<GeoPoint> = self.buf.iter().map(|&(_, p, _)| p).collect();
            for w in pts.windows(2) {
                path += w[0].haversine_m(&w[1]);
            }
            let net = pts[0].haversine_m(&pts[pts.len() - 1]);
            if net < 1.0 {
                return f64::INFINITY;
            }
            path / net
        }

        fn centroid(&self) -> Option<GeoPoint> {
            if self.buf.is_empty() {
                return None;
            }
            let (sx, sy) = self
                .buf
                .iter()
                .fold((0.0, 0.0), |(sx, sy), &(_, p, _)| (sx + p.lon, sy + p.lat));
            let n = self.buf.len() as f64;
            Some(GeoPoint::new(sx / n, sy / n))
        }
    }

    /// Loitering: slow, tangled movement confined to a small area for a
    /// sustained period, while not moored.
    pub struct LoiteringDetector {
        /// Sliding window length, ms.
        pub window_ms: i64,
        /// Maximum confinement diameter, metres.
        pub max_diameter_m: f64,
        /// Mean speed band (moving but slowly), m/s.
        pub speed_band: (f64, f64),
        /// Minimum path/net ratio (rules out slow straight transits).
        pub min_tortuosity: f64,
        state: FxHashMap<ObjectId, WindowBuf>,
        /// When each object last loitered.
        last_held: FxHashMap<ObjectId, TimeMs>,
    }

    impl Default for LoiteringDetector {
        fn default() -> Self {
            Self {
                window_ms: 30 * 60_000,
                max_diameter_m: 2_000.0,
                speed_band: (0.15, 2.0),
                min_tortuosity: 2.0,
                state: FxHashMap::default(),
                last_held: FxHashMap::default(),
            }
        }
    }

    impl LoiteringDetector {
        /// Processes one report.
        pub fn update(&mut self, r: &PositionReport) -> Option<EventRecord> {
            if r.nav_status == NavStatus::Moored || r.nav_status == NavStatus::AtAnchor {
                self.state.remove(&r.object);
                return None;
            }
            let buf = self.state.entry(r.object).or_default();
            buf.push(r.time, r.position(), r.speed_mps.max(0.0), self.window_ms);
            if buf.span_ms() < self.window_ms * 3 / 4 {
                return None;
            }
            let mean_v = buf.mean_speed();
            if buf.diameter_m() <= self.max_diameter_m
                && mean_v >= self.speed_band.0
                && mean_v <= self.speed_band.1
                && buf.tortuosity() >= self.min_tortuosity
            {
                // A new episode, and an alert, only after a lapse longer
                // than the window.
                let since = self.last_held.insert(r.object, r.time);
                if since.is_none_or(|t| r.time - t > self.window_ms) {
                    let center = buf.centroid().unwrap_or(r.position());
                    let start = buf.buf.front().map(|&(t, _, _)| t).unwrap_or(r.time);
                    return Some(
                        EventRecord::durative(
                            EventKind::Loitering,
                            vec![r.object],
                            TimeInterval::new(start, r.time),
                            center,
                        )
                        .with_attr("diameter_m", format!("{:.0}", buf.diameter_m())),
                    );
                }
            }
            None
        }
    }

    /// Drifting: slow but *straight* sustained movement while under way —
    /// the complement of loitering in the slow-speed regime.
    pub struct DriftingDetector {
        /// Sliding window, ms.
        pub window_ms: i64,
        /// Speed band, m/s.
        pub speed_band: (f64, f64),
        /// Maximum path/net ratio (straightness requirement).
        pub max_tortuosity: f64,
        /// Minimum net displacement over the window, metres.
        pub min_net_m: f64,
        state: FxHashMap<ObjectId, WindowBuf>,
        /// When each object last drifted.
        last_held: FxHashMap<ObjectId, TimeMs>,
    }

    impl Default for DriftingDetector {
        fn default() -> Self {
            Self {
                window_ms: 20 * 60_000,
                speed_band: (0.25, 1.6),
                max_tortuosity: 1.25,
                min_net_m: 250.0,
                state: FxHashMap::default(),
                last_held: FxHashMap::default(),
            }
        }
    }

    impl DriftingDetector {
        /// Processes one report.
        pub fn update(&mut self, r: &PositionReport) -> Option<EventRecord> {
            if r.nav_status == NavStatus::Moored || r.nav_status == NavStatus::AtAnchor {
                self.state.remove(&r.object);
                return None;
            }
            let buf = self.state.entry(r.object).or_default();
            buf.push(r.time, r.position(), r.speed_mps.max(0.0), self.window_ms);
            if buf.span_ms() < self.window_ms * 3 / 4 {
                return None;
            }
            let mean_v = buf.mean_speed();
            let pts_net = buf
                .buf
                .front()
                .zip(buf.buf.back())
                .map(|(a, b)| a.1.haversine_m(&b.1))
                .unwrap_or(0.0);
            if mean_v >= self.speed_band.0
                && mean_v <= self.speed_band.1
                && buf.tortuosity() <= self.max_tortuosity
                && pts_net >= self.min_net_m
            {
                // A new episode, and an alert, only after a lapse longer
                // than the window.
                let since = self.last_held.insert(r.object, r.time);
                if since.is_none_or(|t| r.time - t > self.window_ms) {
                    let start = buf.buf.front().map(|&(t, _, _)| t).unwrap_or(r.time);
                    return Some(EventRecord::durative(
                        EventKind::Drifting,
                        vec![r.object],
                        TimeInterval::new(start, r.time),
                        r.position(),
                    ));
                }
            }
            None
        }
    }

    /// Rendezvous: two vessels within `max_dist_m` of each other, both slow,
    /// for at least `min_duration_ms`, away from anchorages.
    pub struct RendezvousDetector {
        /// Pair proximity threshold, metres.
        pub max_dist_m: f64,
        /// Both vessels must be slower than this, m/s.
        pub max_speed_mps: f64,
        /// Minimum sustained proximity, ms.
        pub min_duration_ms: i64,
        /// Spatial hashing grid for pair generation.
        grid: Grid,
        /// Latest fix per object.
        latest: FxHashMap<ObjectId, (TimeMs, GeoPoint, f64)>,
        /// Open proximity episodes per (a, b) with a < b:
        /// (episode start, last time the pair was observed close).
        episodes: FxHashMap<(ObjectId, ObjectId), (TimeMs, TimeMs)>,
        /// Pairs already alerted (suppress repeats per episode).
        alerted: FxHashMap<(ObjectId, ObjectId), bool>,
        /// Fixes older than this are ignored for pairing, ms.
        pub staleness_ms: i64,
        /// Exclusion zones (ports/anchorages) where rendezvous is normal.
        pub exclusion: Vec<(GeoPoint, f64)>,
    }

    impl RendezvousDetector {
        /// Creates a detector over the given region.
        pub fn new(region: BoundingBox) -> Self {
            Self {
                max_dist_m: 500.0,
                max_speed_mps: 1.5,
                min_duration_ms: 10 * 60_000,
                grid: Grid::new(region, 0.02).expect("valid region"),
                latest: FxHashMap::default(),
                episodes: FxHashMap::default(),
                alerted: FxHashMap::default(),
                staleness_ms: 5 * 60_000,
                exclusion: Vec::new(),
            }
        }

        /// Adds an exclusion circle (port/anchorage).
        pub fn exclude(&mut self, center: GeoPoint, radius_m: f64) {
            self.exclusion.push((center, radius_m));
        }

        fn excluded(&self, p: &GeoPoint) -> bool {
            self.exclusion.iter().any(|(c, r)| p.haversine_m(c) <= *r)
        }

        /// Processes one report; may emit rendezvous events.
        pub fn update(&mut self, r: &PositionReport) -> Vec<EventRecord> {
            let pos = r.position();
            let speed = if r.speed_mps.is_finite() {
                r.speed_mps
            } else {
                99.0
            };
            self.latest.insert(r.object, (r.time, pos, speed));
            let mut out = Vec::new();
            if self.grid.cell_of(&pos).is_none() {
                return out;
            }

            // Candidate partners: latest fixes in the same/adjacent cells.
            let cell = self.grid.cell_of_clamped(&pos);
            let mut cells = self.grid.neighbors(cell);
            cells.push(cell);
            // A scan over `latest` filtered by cell is simpler than maintaining
            // a cell index and is fine at fleet sizes (hundreds).
            let candidates: Vec<(ObjectId, TimeMs, GeoPoint, f64)> = self
                .latest
                .iter()
                .filter(|(obj, (t, p, _))| {
                    **obj != r.object
                        && r.time - *t <= self.staleness_ms
                        && cells.contains(&self.grid.cell_of_clamped(p))
                })
                .map(|(obj, (t, p, s))| (*obj, *t, *p, *s))
                .collect();

            for (other, _t2, p2, s2) in candidates {
                let key = if r.object < other {
                    (r.object, other)
                } else {
                    (other, r.object)
                };
                let close = pos.haversine_m(&p2) <= self.max_dist_m;
                let slow = speed <= self.max_speed_mps && s2 <= self.max_speed_mps;
                let in_port = self.excluded(&pos);
                if close && slow && !in_port {
                    let entry = self.episodes.entry(key).or_insert((r.time, r.time));
                    if r.time - entry.1 >= self.staleness_ms {
                        // The pair drifted out of observation since the episode
                        // was last confirmed: restart it.
                        *entry = (r.time, r.time);
                        self.alerted.remove(&key);
                    }
                    entry.1 = r.time;
                    let start = entry.0;
                    let already = self.alerted.get(&key).copied().unwrap_or(false);
                    if !already && r.time - start >= self.min_duration_ms {
                        self.alerted.insert(key, true);
                        out.push(
                            EventRecord::durative(
                                EventKind::Rendezvous,
                                vec![key.0, key.1],
                                TimeInterval::new(start, r.time),
                                pos.midpoint(&p2),
                            )
                            .with_attr("dist_m", format!("{:.0}", pos.haversine_m(&p2))),
                        );
                    }
                } else if !close {
                    self.episodes.remove(&key);
                    self.alerted.remove(&key);
                }
            }
            out
        }
    }

    /// Collision risk via closest point of approach: for vessel pairs on
    /// converging courses, alert when the projected CPA distance and time fall
    /// below thresholds. This is a *forecast* event (confidence < 1).
    pub struct CpaDetector {
        /// Alert when projected CPA distance is below this, metres.
        pub cpa_dist_m: f64,
        /// Alert when time to CPA is below this, ms.
        pub cpa_time_ms: i64,
        /// Only consider pairs currently within this range, metres.
        pub pair_range_m: f64,
        /// Fix staleness bound, ms.
        pub staleness_ms: i64,
        latest: FxHashMap<ObjectId, PositionReport>,
        /// When each pair was last on a collision course.
        last_held: FxHashMap<(ObjectId, ObjectId), TimeMs>,
    }

    impl Default for CpaDetector {
        fn default() -> Self {
            Self {
                cpa_dist_m: 500.0,
                cpa_time_ms: 20 * 60_000,
                pair_range_m: 20_000.0,
                staleness_ms: 3 * 60_000,
                latest: FxHashMap::default(),
                last_held: FxHashMap::default(),
            }
        }
    }

    impl CpaDetector {
        /// Processes one report; may emit collision-risk forecasts.
        pub fn update(&mut self, r: &PositionReport) -> Vec<EventRecord> {
            self.latest.insert(r.object, *r);
            let mut out = Vec::new();
            let pos = r.position();
            for (other, o) in self.latest.iter() {
                if *other == r.object || r.time - o.time > self.staleness_ms {
                    continue;
                }
                if pos.fast_dist2_m2(&o.position()).sqrt() > self.pair_range_m {
                    continue;
                }
                let (t_s, d_m) = cpa(r, o);
                if t_s > 0.0 && (t_s * 1000.0) as i64 <= self.cpa_time_ms && d_m <= self.cpa_dist_m
                {
                    let key = if r.object < *other {
                        (r.object, *other)
                    } else {
                        (*other, r.object)
                    };
                    // A new episode, and an alert, only after a lapse
                    // longer than the staleness bound.
                    let since = self.last_held.insert(key, r.time);
                    if since.is_none_or(|t| r.time - t > self.staleness_ms) {
                        // Confidence decays with time-to-CPA.
                        let conf = (1.0 - t_s * 1000.0 / self.cpa_time_ms as f64).clamp(0.05, 0.99);
                        out.push(
                            EventRecord::durative(
                                EventKind::CollisionRisk,
                                vec![key.0, key.1],
                                TimeInterval::new(r.time, r.time + (t_s * 1000.0) as i64),
                                pos.midpoint(&o.position()),
                            )
                            .as_forecast(conf)
                            .with_attr("cpa_m", format!("{d_m:.0}"))
                            .with_attr("tcpa_s", format!("{t_s:.0}")),
                        );
                    }
                }
            }
            out
        }
    }
}

/// Both generations of the four detectors, side by side.
struct Both {
    new: (
        LoiteringDetector,
        DriftingDetector,
        RendezvousDetector,
        CpaDetector,
    ),
    old: (
        scan::LoiteringDetector,
        scan::DriftingDetector,
        scan::RendezvousDetector,
        scan::CpaDetector,
    ),
    events: usize,
}

impl Both {
    fn new(region: BoundingBox) -> Self {
        Both {
            new: (
                LoiteringDetector::default(),
                DriftingDetector::default(),
                RendezvousDetector::new(region),
                CpaDetector::default(),
            ),
            old: (
                scan::LoiteringDetector::default(),
                scan::DriftingDetector::default(),
                scan::RendezvousDetector::new(region),
                scan::CpaDetector::default(),
            ),
            events: 0,
        }
    }

    /// Feeds `r` to all eight detectors and checks that each pair emitted
    /// the same events. Returns the new detectors' events.
    fn update(&mut self, r: &PositionReport) -> Vec<EventRecord> {
        let mut new: Vec<EventRecord> = Vec::new();
        new.extend(self.new.0.update(r));
        new.extend(self.new.1.update(r));
        new.extend(self.new.2.update(r));
        new.extend(self.new.3.update(r));
        let mut old: Vec<EventRecord> = Vec::new();
        old.extend(self.old.0.update(r));
        old.extend(self.old.1.update(r));
        old.extend(self.old.2.update(r));
        old.extend(self.old.3.update(r));
        // Kind, objects, interval, location, confidence and attributes.
        let multiset = |events: &[EventRecord]| {
            let mut keys: Vec<String> = events.iter().map(|e| format!("{e:?}")).collect();
            keys.sort();
            keys
        };
        assert_eq!(
            multiset(&new),
            multiset(&old),
            "index and scan disagree at {r:?}"
        );
        self.events += new.len();
        new
    }
}

fn count(events: &[EventRecord], kind: EventKind) -> usize {
    events.iter().filter(|e| e.kind == kind).count()
}

/// A generated fleet in delivery order — event time plus transport delay,
/// so reports arrive up to four seconds out of order, as the server gets them.
fn fleet(seed: u64, vessels: usize, minutes: i64) -> (BoundingBox, Vec<PositionReport>) {
    let data = generate_maritime(&MaritimeConfig {
        seed,
        n_vessels: vessels,
        duration_ms: minutes * 60_000,
        ..MaritimeConfig::default()
    });
    let reports = data
        .reports_delivery_order()
        .into_iter()
        .map(|o| o.report)
        .collect();
    (data.world.region, reports)
}

#[test]
fn fleets_of_100_match_the_scan_on_ten_seeds() {
    let mut by_kind = [0usize; 4];
    for seed in 1..=10 {
        let (region, reports) = fleet(seed, 100, 80);
        let mut both = Both::new(region);
        for r in &reports {
            let events = both.update(r);
            for (n, kind) in by_kind.iter_mut().zip([
                EventKind::Loitering,
                EventKind::Drifting,
                EventKind::Rendezvous,
                EventKind::CollisionRisk,
            ]) {
                *n += count(&events, kind);
            }
        }
    }
    // The comparison is not vacuous: every detector fired.
    assert!(by_kind.iter().all(|&n| n > 0), "events by kind {by_kind:?}");
}

#[test]
fn a_fleet_of_1000_matches_the_scan() {
    let (region, reports) = fleet(11, 1000, 11);
    let mut both = Both::new(region);
    for r in &reports {
        both.update(r);
    }
    assert!(both.events > 0);
}

fn report(obj: u64, t_ms: i64, pos: GeoPoint, speed: f64, heading: f64) -> PositionReport {
    PositionReport::maritime(
        ObjectId(obj),
        TimeMs(t_ms),
        pos,
        speed,
        heading,
        SourceId::AIS_TERRESTRIAL,
        NavStatus::UnderWay,
    )
}

fn region() -> BoundingBox {
    BoundingBox::new(22.0, 34.5, 29.5, 41.2)
}

/// Two slow vessels `gap_m` apart along `bearing` around `mid`, reporting
/// every minute for a quarter of an hour (the hour after hour `ids.0`, so
/// that time never runs backwards within a test): one rendezvous.
fn meet(both: &mut Both, ids: (u64, u64), mid: GeoPoint, bearing: f64, gap_m: f64) -> usize {
    let a = mid.destination(bearing, gap_m / 2.0);
    let b = mid.destination(bearing + 180.0, gap_m / 2.0);
    let mut fired = 0;
    for minute in (0..15).map(|m| m + 60 * ids.0 as i64) {
        fired += count(
            &both.update(&report(ids.0, minute * 60_000, a, 0.4, 0.0)),
            EventKind::Rendezvous,
        );
        fired += count(
            &both.update(&report(ids.1, minute * 60_000 + 1_000, b, 0.4, 0.0)),
            EventKind::Rendezvous,
        );
    }
    fired
}

#[test]
fn a_pair_across_a_cell_edge_or_corner_still_meets() {
    // The rendezvous grid has 0.02° cells from the region's south-west
    // corner: lon 24.0 and lat 37.0 are cell boundaries.
    let mut both = Both::new(region());
    // Across a north-south edge, across an east-west edge, across a corner.
    assert_eq!(
        meet(&mut both, (1, 2), GeoPoint::new(24.0, 37.01), 90.0, 200.0),
        1
    );
    assert_eq!(
        meet(&mut both, (3, 4), GeoPoint::new(24.11, 37.0), 0.0, 200.0),
        1
    );
    assert_eq!(
        meet(&mut both, (5, 6), GeoPoint::new(24.2, 37.2), 45.0, 200.0),
        1
    );
    // More than a cell's height apart, in adjacent cells.
    both.new.2.max_dist_m = 3_000.0;
    both.old.2.max_dist_m = 3_000.0;
    assert_eq!(
        meet(&mut both, (7, 8), GeoPoint::new(24.41, 37.4), 0.0, 2_500.0),
        1
    );
}

#[test]
fn a_vessel_outside_the_region_is_paired_from_its_border_cell() {
    let mut both = Both::new(region());
    // 100 m apart across the region's western border: the outside vessel
    // is filed in the border cell, so the inside one finds it (and the
    // outside one, reporting, pairs with nobody).
    let fired = meet(&mut both, (1, 2), GeoPoint::new(22.0, 37.0), 90.0, 100.0);
    assert_eq!(fired, 1);
    // Far outside, clamped to the same border cell: too far to meet.
    let fired = meet(&mut both, (3, 4), GeoPoint::new(21.0, 37.0), 90.0, 100.0);
    assert_eq!(fired, 0);
}

#[test]
fn a_partner_exactly_at_the_rendezvous_distance_is_close() {
    for bearing in [0.0, 37.0, 90.0, 180.0, 270.0] {
        let mut both = Both::new(region());
        let mid = GeoPoint::new(24.5, 37.5);
        let a = mid.destination(bearing, 250.0);
        let b = mid.destination(bearing + 180.0, 250.0);
        let exact = a.haversine_m(&b).max(b.haversine_m(&a));
        both.new.2.max_dist_m = exact;
        both.old.2.max_dist_m = exact;
        assert_eq!(meet(&mut both, (1, 2), mid, bearing, 500.0), 1, "{bearing}");
    }
}

/// A vessel at `centre` and a ring of partners steaming at it from every
/// fifteen degrees at `range_m × factor`; returns the collision risks the
/// centre vessel's report raised.
fn ring(both: &mut Both, centre: GeoPoint, range_m: f64, factors: &[f64]) -> usize {
    let mut id = 100;
    for &factor in factors {
        for step in 0..24 {
            let bearing = f64::from(step) * 15.0;
            let pos = centre.destination(bearing, range_m * factor);
            id += 1;
            both.update(&report(id, 0, pos, 10.0, (bearing + 180.0) % 360.0));
        }
    }
    count(
        &both.update(&report(1, 1_000, centre, 0.0, 0.0)),
        EventKind::CollisionRisk,
    )
}

#[test]
fn partners_around_the_cpa_range_match_at_mid_and_high_latitude() {
    for lat in [0.0, 37.3, 70.0, -70.0, 89.0] {
        let mut both = Both::new(region());
        for d in [&mut both.new.3.cpa_time_ms, &mut both.old.3.cpa_time_ms] {
            *d = 60 * 60_000;
        }
        let centre = GeoPoint::new(24.7, lat);
        let fired = ring(
            &mut both,
            centre,
            20_000.0,
            &[0.5, 0.99, 0.999, 1.001, 1.01],
        );
        // Three rings inside the range, two outside. (At 89° the flat-earth
        // distance and the great circle part ways; only agreement counts.)
        let want = if lat < 80.0 { 60..=80 } else { 1..=120 };
        assert!(want.contains(&fired), "lat {lat}: {fired} risks");
    }
}

#[test]
fn a_partner_exactly_at_the_cpa_range_is_in_range() {
    for (lat, bearing) in [
        (37.0, 0.0),
        (37.0, 90.0),
        (37.0, 225.0),
        (70.0, 90.0),
        (70.0, 180.0),
    ] {
        let mut both = Both::new(region());
        let centre = GeoPoint::new(24.7, lat);
        let partner = centre.destination(bearing, 20_000.0);
        // The distance the detector computes, both ways round.
        let exact = centre
            .fast_dist2_m2(&partner)
            .sqrt()
            .max(partner.fast_dist2_m2(&centre).sqrt());
        for d in [&mut both.new.3.pair_range_m, &mut both.old.3.pair_range_m] {
            *d = exact;
        }
        both.update(&report(2, 0, partner, 10.0, (bearing + 180.0) % 360.0));
        let events = both.update(&report(1, 1_000, centre, 10.0, bearing));
        assert_eq!(
            count(&events, EventKind::CollisionRisk),
            1,
            "{lat} {bearing}"
        );
    }
}

#[test]
fn a_fix_exactly_staleness_old_still_pairs_and_one_a_millisecond_older_does_not() {
    let centre = GeoPoint::new(24.7, 37.0);
    let partner = centre.destination(90.0, 8_000.0);
    for (age_ms, want) in [(3 * 60_000, 1), (3 * 60_000 + 1, 0)] {
        let mut both = Both::new(region());
        both.update(&report(2, 0, partner, 5.0, 270.0));
        let events = both.update(&report(1, age_ms, centre, 5.0, 90.0));
        assert_eq!(
            count(&events, EventKind::CollisionRisk),
            want,
            "cpa at {age_ms}"
        );
    }
    // Rendezvous: vessel 2 falls silent; vessel 1 keeps confirming the
    // pair against its ageing fix, up to five minutes exactly.
    let mid = GeoPoint::new(24.5, 37.5);
    let mut both = Both::new(region());
    for d in [
        &mut both.new.2.min_duration_ms,
        &mut both.old.2.min_duration_ms,
    ] {
        *d = 5 * 60_000;
    }
    both.update(&report(2, 0, mid, 0.3, 0.0));
    let near = mid.destination(0.0, 80.0);
    let mut fired = Vec::new();
    for t in [0, 60_000, 299_999, 300_000, 300_001] {
        let events = both.update(&report(1, t, near, 0.3, 0.0));
        fired.push(count(&events, EventKind::Rendezvous));
    }
    assert_eq!(fired, vec![0, 0, 0, 1, 0]);
}

#[test]
fn a_moored_report_empties_the_window() {
    let mut both = Both::new(region());
    let centre = GeoPoint::new(24.5, 37.2);
    let mut fired = Vec::new();
    for i in 0..120i64 {
        let angle = (i * 73 % 360) as f64;
        let pos = centre.destination(angle, 300.0 + (i % 5) as f64 * 60.0);
        let mut r = report(1, i * 60_000, pos, 0.8, angle);
        if i == 20 || (70..=78).contains(&i) {
            r.nav_status = if i == 20 {
                NavStatus::Moored
            } else {
                NavStatus::AtAnchor
            };
        }
        if count(&both.update(&r), EventKind::Loitering) > 0 {
            fired.push(i);
        }
    }
    // 22.5 minutes of window after each clearing report, not before (the
    // anchorage is long enough that loitering lapses for more than a
    // window, 69 to 102, so it alerts again).
    assert_eq!(fired, vec![44, 102]);
}

/// A deterministic generator for the churn below.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn unit(&mut self) -> f64 {
        self.next() as f64 / (1u64 << 31) as f64
    }
}

#[test]
fn a_crowded_patch_of_erratic_vessels_matches_the_scan() {
    // Forty vessels random-walking over a few cells around a cell corner
    // and the region's border, slow and fast, some moored, some without a
    // speed, reports a few seconds out of order, some vessels silent for
    // minutes, part of the patch an anchorage: every branch of every
    // detector, many times over.
    let mut rng = Lcg(17);
    let mut both = Both::new(region());
    for d in [&mut both.new.3.pair_range_m, &mut both.old.3.pair_range_m] {
        *d = 3_000.0;
    }
    let home = GeoPoint::new(22.01, 37.0);
    // An anchorage over the north-east of the patch: no rendezvous there.
    let anchorage = home.destination(45.0, 2_000.0);
    both.new.2.exclude(anchorage, 1_500.0);
    both.old.2.exclude(anchorage, 1_500.0);
    let mut at: Vec<GeoPoint> = (0..40)
        .map(|_| home.destination(rng.unit() * 360.0, rng.unit() * 2_500.0))
        .collect();
    let mut silent_until = vec![0i64; at.len()];
    for tick in 0..900i64 {
        let t = tick * 10_000;
        for v in 0..at.len() {
            if t < silent_until[v] {
                continue;
            }
            if rng.next().is_multiple_of(200) {
                silent_until[v] = t + (rng.next() % 12) as i64 * 60_000;
            }
            let slow = v % 3 != 0;
            let speed = if slow {
                rng.unit() * 1.4
            } else {
                rng.unit() * 9.0
            };
            let heading = rng.unit() * 360.0;
            at[v] = at[v].destination(heading, speed * 10.0);
            if at[v].haversine_m(&home) > 4_000.0 {
                at[v] = home.destination(rng.unit() * 360.0, rng.unit() * 500.0);
            }
            let jitter = (rng.next() % 4_000) as i64;
            let mut r = report(v as u64, (t - jitter).max(0), at[v], speed, heading);
            match rng.next() % 50 {
                0 => r.nav_status = NavStatus::Moored,
                1 => r.speed_mps = f64::NAN,
                _ => {}
            }
            both.update(&r);
        }
    }
    assert!(both.events > 50, "{} events", both.events);
}

#[test]
fn event_order_does_not_depend_on_what_the_detector_saw_before() {
    // Two detectors of each kind; one of each first sees five hundred
    // other vessels that have long gone stale by the time the scene
    // starts. The same reports must then give the same event *sequence*:
    // partners are visited in id order, not in hash-map order.
    let mut rendezvous = (
        RendezvousDetector::new(region()),
        RendezvousDetector::new(region()),
    );
    let mut cpa = (CpaDetector::default(), CpaDetector::default());
    cpa.0.cpa_time_ms = 60 * 60_000;
    cpa.1.cpa_time_ms = 60 * 60_000;
    let centre = GeoPoint::new(24.7, 37.3);
    let mut rng = Lcg(5);
    for ghost in 0..500 {
        let pos = centre.destination(rng.unit() * 360.0, rng.unit() * 15_000.0);
        let r = report(10_000 + ghost, 0, pos, 0.5, 0.0);
        rendezvous.1.update(&r);
        cpa.1.update(&r);
    }
    let t0 = 6 * 3_600_000;
    // Partners in a scrambled id order, all converging on the centre and
    // all drifting within 400 m of it.
    let ids = [7u64, 3, 19, 11, 2, 23, 5, 13, 17];
    let mut sequences = 0;
    for minute in 0..15i64 {
        let t = t0 + minute * 60_000;
        for (k, &id) in ids.iter().enumerate() {
            let bearing = k as f64 * 40.0;
            let far = report(
                id,
                t,
                centre.destination(bearing, 9_000.0),
                8.0,
                bearing + 180.0,
            );
            let near = report(100 + id, t, centre.destination(bearing, 300.0), 0.3, 0.0);
            for r in [far, near] {
                assert_eq!(rendezvous.0.update(&r), rendezvous.1.update(&r));
                assert_eq!(cpa.0.update(&r), cpa.1.update(&r));
            }
        }
        let own = report(1, t + 1_000, centre, 0.2, 0.0);
        for (a, b) in [
            (rendezvous.0.update(&own), rendezvous.1.update(&own)),
            (cpa.0.update(&own), cpa.1.update(&own)),
        ] {
            assert_eq!(a, b);
            if a.len() > 1 {
                sequences += 1;
                let partners: Vec<ObjectId> = a.iter().map(|e| e.objects[1]).collect();
                assert!(partners.windows(2).all(|w| w[0] < w[1]), "{partners:?}");
            }
        }
    }
    assert!(sequences >= 2, "no report raised several events at once");
}
