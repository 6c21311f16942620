//! Aviation complex-event recognisers: holding patterns, sector hotspots
//! (capacity demand) and loss-of-separation risk.
//!
//! Holding and separation risk alert once per episode: only when their
//! condition last held more than `window_ms` (separation: `staleness_ms`)
//! before (`opens_episode`), and forget by that horizon (`Pruner`).

use crate::horizon::{expired, opens_episode, Pruner};
use crate::maritime::cpa;
use datacron_geo::units::heading_delta_deg;
use datacron_geo::FxHashMap;
use datacron_geo::{GeoPoint, Polygon, TimeInterval, TimeMs};
use datacron_model::{EventKind, EventRecord, ObjectId, PositionReport};
use std::collections::VecDeque;

/// Holding pattern: sustained turning accumulating at least a full circle
/// within a window, at roughly constant altitude.
pub struct HoldingDetector {
    /// Sliding window, ms.
    pub window_ms: i64,
    /// Total accumulated |heading change| to alert, degrees.
    pub min_total_turn_deg: f64,
    /// Maximum altitude band within the window, metres.
    pub max_alt_band_m: f64,
    state: FxHashMap<ObjectId, VecDeque<(TimeMs, f64, f64, GeoPoint)>>, // (t, heading, alt, pos)
    /// When each aircraft was last holding.
    last_held: FxHashMap<ObjectId, TimeMs>,
    pruner: Pruner,
}

impl Default for HoldingDetector {
    fn default() -> Self {
        Self {
            window_ms: 12 * 60_000,
            min_total_turn_deg: 360.0,
            max_alt_band_m: 600.0,
            state: FxHashMap::default(),
            last_held: FxHashMap::default(),
            pruner: Pruner::default(),
        }
    }
}

impl HoldingDetector {
    /// Processes one report.
    pub fn update(&mut self, r: &PositionReport) -> Option<EventRecord> {
        let held = self.state.len() + self.last_held.len();
        if let Some(high) = self.pruner.due(r.time, held) {
            // A window this old would empty on the next push, and a hold
            // this old ended its episode.
            let window_ms = self.window_ms;
            self.state
                .retain(|_, buf| buf.back().is_some_and(|f| !expired(high, f.0, window_ms)));
            self.last_held.retain(|_, t| !expired(high, *t, window_ms));
        }
        if !r.heading_deg.is_finite() || r.alt_m < 500.0 {
            return None;
        }
        let buf = self.state.entry(r.object).or_default();
        buf.push_back((r.time, r.heading_deg, r.alt_m, r.position()));
        while let Some(&(t0, ..)) = buf.front() {
            if r.time - t0 > self.window_ms {
                buf.pop_front();
            } else {
                break;
            }
        }
        if buf.len() < 4 {
            return None;
        }
        let total_turn: f64 = buf
            .iter()
            .zip(buf.iter().skip(1))
            .map(|(a, b)| heading_delta_deg(b.1, a.1).abs())
            .sum();
        let (alt_min, alt_max) = buf
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &(_, _, a, _)| {
                (lo.min(a), hi.max(a))
            });
        if total_turn >= self.min_total_turn_deg && alt_max - alt_min <= self.max_alt_band_m {
            let last_held = self.last_held.insert(r.object, r.time);
            if opens_episode(last_held, r.time, self.window_ms) {
                let start = buf.front().map(|&(t, ..)| t).unwrap_or(r.time);
                // Centre of the hold: centroid of buffered positions.
                let n = buf.len() as f64;
                let (sx, sy) = buf.iter().fold((0.0, 0.0), |(sx, sy), &(_, _, _, p)| {
                    (sx + p.lon, sy + p.lat)
                });
                return Some(
                    EventRecord::durative(
                        EventKind::HoldingPattern,
                        vec![r.object],
                        TimeInterval::new(start, r.time),
                        GeoPoint::new(sx / n, sy / n),
                    )
                    .with_attr("turn_deg", format!("{total_turn:.0}")),
                );
            }
        }
        None
    }
}

/// Sector hotspot (capacity demand): the number of distinct aircraft inside
/// a sector within a time bucket exceeds its declared capacity.
pub struct SectorHotspotDetector {
    sectors: Vec<(String, Polygon, usize)>,
    /// Occupancy bucket length, ms.
    pub bucket_ms: i64,
    /// sector → (bucket start, set of objects seen in bucket).
    occupancy: Vec<(TimeMs, FxHashMap<ObjectId, ()>)>,
    /// sector → last alerted bucket (suppress repeats within a bucket).
    alerted_bucket: Vec<TimeMs>,
}

impl SectorHotspotDetector {
    /// Creates a detector for `(name, polygon, capacity)` sectors.
    pub fn new(sectors: Vec<(String, Polygon, usize)>, bucket_ms: i64) -> Self {
        let n = sectors.len();
        Self {
            sectors,
            bucket_ms: bucket_ms.max(1),
            occupancy: (0..n)
                .map(|_| (TimeMs::MIN, FxHashMap::default()))
                .collect(),
            alerted_bucket: vec![TimeMs::MIN; n],
        }
    }

    /// Processes one report; may emit hotspot events.
    pub fn update(&mut self, r: &PositionReport) -> Vec<EventRecord> {
        let mut out = Vec::new();
        if r.alt_m < 1000.0 {
            return out; // en-route sectors only
        }
        let pos = r.position();
        let bucket = TimeMs(r.time.millis() - r.time.millis().rem_euclid(self.bucket_ms));
        for (i, (name, poly, capacity)) in self.sectors.iter().enumerate() {
            if !poly.contains(&pos) {
                continue;
            }
            let (cur_bucket, seen) = &mut self.occupancy[i];
            if *cur_bucket != bucket {
                *cur_bucket = bucket;
                seen.clear();
            }
            seen.insert(r.object, ());
            if seen.len() > *capacity && self.alerted_bucket[i] != bucket {
                self.alerted_bucket[i] = bucket;
                out.push(
                    EventRecord::durative(
                        EventKind::SectorHotspot,
                        seen.keys().copied().collect(),
                        TimeInterval::new(bucket, bucket + self.bucket_ms),
                        poly.vertex_centroid(),
                    )
                    .with_attr("sector", name)
                    .with_attr("occupancy", seen.len())
                    .with_attr("capacity", *capacity),
                );
            }
        }
        out
    }

    /// Current occupancy of a sector (within its live bucket).
    pub fn occupancy(&self, sector: &str) -> usize {
        self.sectors
            .iter()
            .position(|(n, _, _)| n == sector)
            .map_or(0, |i| self.occupancy[i].1.len())
    }
}

/// Loss-of-separation risk: projected CPA violating both the horizontal
/// (5 NM ≈ 9260 m) and vertical (1000 ft ≈ 300 m) minima within a horizon.
pub struct SeparationRiskDetector {
    /// Horizontal separation minimum, metres.
    pub horizontal_m: f64,
    /// Vertical separation minimum, metres.
    pub vertical_m: f64,
    /// Look-ahead horizon, ms.
    pub horizon_ms: i64,
    /// Fix staleness bound, ms.
    pub staleness_ms: i64,
    latest: FxHashMap<ObjectId, PositionReport>,
    /// When each pair was last in conflict.
    last_held: FxHashMap<(ObjectId, ObjectId), TimeMs>,
    pruner: Pruner,
}

impl Default for SeparationRiskDetector {
    fn default() -> Self {
        Self {
            horizontal_m: 9_260.0,
            vertical_m: 300.0,
            horizon_ms: 10 * 60_000,
            staleness_ms: 60_000,
            latest: FxHashMap::default(),
            last_held: FxHashMap::default(),
            pruner: Pruner::default(),
        }
    }
}

impl SeparationRiskDetector {
    /// Processes one report; may emit separation-risk forecasts.
    pub fn update(&mut self, r: &PositionReport) -> Vec<EventRecord> {
        let held = self.latest.len() + self.last_held.len();
        if let Some(high) = self.pruner.due(r.time, held) {
            // A fix this old pairs with nothing, and a conflict this old
            // ended its episode.
            let staleness_ms = self.staleness_ms;
            self.latest
                .retain(|_, o| !expired(high, o.time, staleness_ms));
            self.last_held
                .retain(|_, t| !expired(high, *t, staleness_ms));
        }
        self.latest.insert(r.object, *r);
        let mut out = Vec::new();
        if r.alt_m < 1000.0 {
            return out;
        }
        for (other, o) in self.latest.iter() {
            if *other == r.object || r.time - o.time > self.staleness_ms || o.alt_m < 1000.0 {
                continue;
            }
            let (t_s, d_m) = cpa(r, o);
            if !(t_s > 0.0 && (t_s * 1000.0) as i64 <= self.horizon_ms) {
                continue;
            }
            // Vertical separation at CPA from current vertical rates.
            let alt_r = r.alt_m + r.vrate_mps * t_s;
            let alt_o = o.alt_m + o.vrate_mps * t_s;
            let dv = (alt_r - alt_o).abs();
            if d_m <= self.horizontal_m && dv <= self.vertical_m {
                let key = if r.object < *other {
                    (r.object, *other)
                } else {
                    (*other, r.object)
                };
                let last_held = self.last_held.insert(key, r.time);
                if opens_episode(last_held, r.time, self.staleness_ms) {
                    let conf = (1.0 - t_s * 1000.0 / self.horizon_ms as f64).clamp(0.05, 0.99);
                    out.push(
                        EventRecord::durative(
                            EventKind::SeparationRisk,
                            vec![key.0, key.1],
                            TimeInterval::new(r.time, r.time + (t_s * 1000.0) as i64),
                            r.position().midpoint(&o.position()),
                        )
                        .as_forecast(conf)
                        .with_attr("h_cpa_m", format!("{d_m:.0}"))
                        .with_attr("v_cpa_m", format!("{dv:.0}")),
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::horizon::tests::late_reports_see_the_unpruned_detector;
    use datacron_geo::{BoundingBox, GeoPoint3};
    use datacron_model::SourceId;

    fn rep3(
        obj: u64,
        t_min: f64,
        pos: GeoPoint,
        alt: f64,
        speed: f64,
        heading: f64,
        vrate: f64,
    ) -> PositionReport {
        PositionReport::aviation(
            ObjectId(obj),
            TimeMs((t_min * 60_000.0) as i64),
            GeoPoint3::new(pos.lon, pos.lat, alt),
            speed,
            heading,
            vrate,
            SourceId::ADSB,
        )
    }

    // --- holding ---

    #[test]
    fn circling_aircraft_detected() {
        let mut d = HoldingDetector::default();
        let center = GeoPoint::new(10.0, 45.0);
        let mut fired = false;
        // A full circle in ~10 minutes at constant altitude: 36 deg/min.
        for i in 0..20 {
            let bearing = (i * 36 % 360) as f64;
            let pos = center.destination(bearing, 7_000.0);
            let heading = datacron_geo::units::normalize_deg(bearing + 90.0);
            if d.update(&rep3(1, i as f64, pos, 5_000.0, 150.0, heading, 0.0))
                .is_some()
            {
                fired = true;
                break;
            }
        }
        assert!(fired, "holding not detected");
    }

    #[test]
    fn straight_flight_not_holding() {
        let mut d = HoldingDetector::default();
        let start = GeoPoint::new(10.0, 45.0);
        for i in 0..30 {
            let pos = start.destination(90.0, 220.0 * 60.0 * i as f64);
            assert!(d
                .update(&rep3(1, i as f64, pos, 10_000.0, 220.0, 90.0, 0.0))
                .is_none());
        }
    }

    #[test]
    fn spiral_descent_not_holding() {
        // Turning but altitude changing fast: the altitude band gate rejects.
        let mut d = HoldingDetector::default();
        let center = GeoPoint::new(10.0, 45.0);
        for i in 0..25 {
            let bearing = (i * 36 % 360) as f64;
            let pos = center.destination(bearing, 7_000.0);
            let heading = datacron_geo::units::normalize_deg(bearing + 90.0);
            let alt = 8_000.0 - 200.0 * i as f64;
            assert!(d
                .update(&rep3(1, i as f64, pos, alt, 150.0, heading, -4.0))
                .is_none());
        }
    }

    /// The seconds at which `stream` raised an event.
    fn alerts_at<D>(
        mut d: D,
        update: impl Fn(&mut D, &PositionReport) -> Vec<EventRecord>,
        stream: &[PositionReport],
    ) -> Vec<i64> {
        let mut at = Vec::new();
        for r in stream {
            at.extend(update(&mut d, r).iter().map(|_| r.time.millis() / 1_000));
        }
        at
    }

    /// An aircraft at 5 000 m, one report a minute for `minutes`, turning
    /// 36° a minute where `turning` says so and flying straight elsewhere.
    fn holding_track(minutes: i64, turning: impl Fn(i64) -> bool) -> Vec<PositionReport> {
        let center = GeoPoint::new(10.0, 45.0);
        let mut heading = 0.0;
        (0..minutes)
            .map(|i| {
                if i > 0 && turning(i) {
                    heading = datacron_geo::units::normalize_deg(heading + 36.0);
                }
                let pos = center.destination(heading - 90.0, 7_000.0);
                rep3(1, i as f64, pos, 5_000.0, 150.0, heading, 0.0)
            })
            .collect()
    }

    fn holdings(d: &mut HoldingDetector, r: &PositionReport) -> Vec<EventRecord> {
        d.update(r).into_iter().collect()
    }

    // The window is 12 min, and ten turns of 36° make a circle.
    #[test]
    fn holding_held_for_three_windows_alerts_once() {
        let stream = holding_track(50, |_| true);
        assert_eq!(
            alerts_at(HoldingDetector::default(), holdings, &stream),
            [600]
        );
    }

    #[test]
    fn holding_dip_shorter_than_the_window_does_not_realert() {
        // Straight 31–33: the circle in the window is short from minute 33
        // to 42 and whole again at 43, eleven minutes after it last held.
        let stream = holding_track(60, |i| !(31..=33).contains(&i));
        assert_eq!(
            alerts_at(HoldingDetector::default(), holdings, &stream),
            [600]
        );
    }

    #[test]
    fn holding_lapse_longer_than_the_window_alerts_again() {
        // Straight 31–40: whole again at 50, eighteen minutes after.
        let stream = holding_track(60, |i| !(31..=40).contains(&i));
        assert_eq!(
            alerts_at(HoldingDetector::default(), holdings, &stream),
            [600, 3_000]
        );
    }

    #[test]
    fn holding_reports_a_window_late_see_the_unpruned_detector() {
        let stream = holding_track(60, |i| !(31..=40).contains(&i));
        let filler = |object: ObjectId, t: TimeMs| {
            let mut r = rep3(0, 0.0, GeoPoint::new(20.0, 50.0), 5_000.0, 150.0, 0.0, 0.0);
            (r.object, r.time) = (object, t);
            r
        };
        let d = HoldingDetector::default();
        let events = late_reports_see_the_unpruned_detector(
            HoldingDetector::default,
            holdings,
            |d| &mut d.pruner,
            |d| d.state.len() + d.last_held.len(),
            filler,
            &stream,
            d.window_ms - 1_000,
        );
        assert_eq!(events.len(), 2);
    }

    // --- hotspot ---

    fn one_sector(capacity: usize) -> SectorHotspotDetector {
        SectorHotspotDetector::new(
            vec![(
                "S1".into(),
                Polygon::rectangle(&BoundingBox::new(9.0, 44.0, 11.0, 46.0)),
                capacity,
            )],
            10 * 60_000,
        )
    }

    #[test]
    fn hotspot_when_capacity_exceeded() {
        let mut d = one_sector(2);
        let inside = GeoPoint::new(10.0, 45.0);
        assert!(d
            .update(&rep3(1, 0.0, inside, 10_000.0, 220.0, 90.0, 0.0))
            .is_empty());
        assert!(d
            .update(&rep3(2, 1.0, inside, 10_500.0, 220.0, 90.0, 0.0))
            .is_empty());
        let evs = d.update(&rep3(3, 2.0, inside, 11_000.0, 220.0, 90.0, 0.0));
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, EventKind::SectorHotspot);
        assert_eq!(evs[0].attr("sector"), Some("S1"));
        assert_eq!(evs[0].attr("occupancy"), Some("3"));
        assert_eq!(evs[0].objects.len(), 3);
        // Fourth aircraft in the same bucket: suppressed.
        assert!(d
            .update(&rep3(4, 3.0, inside, 9_000.0, 220.0, 90.0, 0.0))
            .is_empty());
        assert_eq!(d.occupancy("S1"), 4);
    }

    #[test]
    fn bucket_rollover_resets_occupancy() {
        let mut d = one_sector(2);
        let inside = GeoPoint::new(10.0, 45.0);
        for obj in 1..=3u64 {
            d.update(&rep3(obj, 0.0, inside, 10_000.0, 220.0, 90.0, 0.0));
        }
        // Next bucket (>=10 min later): occupancy restarts.
        let evs = d.update(&rep3(9, 11.0, inside, 10_000.0, 220.0, 90.0, 0.0));
        assert!(evs.is_empty());
        assert_eq!(d.occupancy("S1"), 1);
    }

    #[test]
    fn ground_traffic_ignored() {
        let mut d = one_sector(0);
        let inside = GeoPoint::new(10.0, 45.0);
        assert!(d
            .update(&rep3(1, 0.0, inside, 50.0, 10.0, 90.0, 0.0))
            .is_empty());
    }

    #[test]
    fn outside_sector_ignored() {
        let mut d = one_sector(0);
        let outside = GeoPoint::new(20.0, 50.0);
        assert!(d
            .update(&rep3(1, 0.0, outside, 10_000.0, 220.0, 90.0, 0.0))
            .is_empty());
    }

    // --- separation risk ---

    #[test]
    fn converging_same_level_alerts() {
        let mut d = SeparationRiskDetector::default();
        let base = GeoPoint::new(10.0, 45.0);
        let a = rep3(1, 0.0, base, 10_000.0, 220.0, 90.0, 0.0);
        let b = rep3(
            2,
            0.0,
            base.destination(90.0, 100_000.0),
            10_100.0,
            220.0,
            270.0,
            0.0,
        );
        d.update(&a);
        let evs = d.update(&b);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, EventKind::SeparationRisk);
        assert!(evs[0].confidence < 1.0);
    }

    #[test]
    fn vertical_separation_prevents_alert() {
        let mut d = SeparationRiskDetector::default();
        let base = GeoPoint::new(10.0, 45.0);
        let a = rep3(1, 0.0, base, 10_000.0, 220.0, 90.0, 0.0);
        // 1 km above: vertically separated at CPA.
        let b = rep3(
            2,
            0.0,
            base.destination(90.0, 100_000.0),
            11_000.0,
            220.0,
            270.0,
            0.0,
        );
        d.update(&a);
        assert!(d.update(&b).is_empty());
    }

    #[test]
    fn climbing_into_conflict_detected() {
        let mut d = SeparationRiskDetector::default();
        let base = GeoPoint::new(10.0, 45.0);
        // Same level difference of 1 km, but b climbs 5 m/s: at CPA
        // (~227 s for 100 km closing at 440 m/s) b gained ~1.1 km.
        let a = rep3(1, 0.0, base, 10_000.0, 220.0, 90.0, 0.0);
        let b = rep3(
            2,
            0.0,
            base.destination(90.0, 100_000.0),
            9_000.0,
            220.0,
            270.0,
            5.0,
        );
        d.update(&a);
        let evs = d.update(&b);
        assert_eq!(evs.len(), 1, "climb not projected");
    }

    /// Two aircraft 100 km apart closing head-on at 220 m/s each, level
    /// 100 m apart, one report each every 10 s until they meet at 227 s;
    /// at the seconds `climbed` says so the second reports 1 km higher.
    fn converging(climbed: impl Fn(i64) -> bool) -> Vec<PositionReport> {
        let base = GeoPoint::new(10.0, 45.0);
        (0..23)
            .flat_map(|step| {
                let s = step * 10;
                let (t, flown) = (s as f64 / 60.0, 220.0 * s as f64);
                let alt = if climbed(s) { 11_100.0 } else { 10_100.0 };
                [
                    rep3(
                        1,
                        t,
                        base.destination(90.0, flown),
                        10_000.0,
                        220.0,
                        90.0,
                        0.0,
                    ),
                    rep3(
                        2,
                        t,
                        base.destination(90.0, 100_000.0 - flown),
                        alt,
                        220.0,
                        270.0,
                        0.0,
                    ),
                ]
            })
            .collect()
    }

    fn separation_risks(d: &mut SeparationRiskDetector, r: &PositionReport) -> Vec<EventRecord> {
        d.update(r)
    }

    // The staleness bound is 60 s; the pair is in conflict on every
    // report from the second on.
    #[test]
    fn separation_held_for_three_staleness_bounds_alerts_once() {
        let stream = converging(|_| false);
        let d = SeparationRiskDetector::default();
        assert_eq!(alerts_at(d, separation_risks, &stream), [0]);
    }

    #[test]
    fn separation_dip_shorter_than_the_staleness_bound_does_not_realert() {
        // Above at 80 and 90 s: in conflict again at 100 s, 20 s after the
        // first aircraft's report at 80 s last saw it.
        let stream = converging(|s| (80..=90).contains(&s));
        let d = SeparationRiskDetector::default();
        assert_eq!(alerts_at(d, separation_risks, &stream), [0]);
    }

    #[test]
    fn separation_lapse_longer_than_the_staleness_bound_alerts_again() {
        // Above 70–130 s: in conflict again at 140 s, 80 s after.
        let stream = converging(|s| (70..=130).contains(&s));
        let d = SeparationRiskDetector::default();
        assert_eq!(alerts_at(d, separation_risks, &stream), [0, 140]);
    }

    #[test]
    fn separation_reports_a_staleness_bound_late_see_the_unpruned_detector() {
        let stream = converging(|s| (70..=130).contains(&s));
        // Light aircraft low down, far off: filed, never in conflict.
        let filler = |object: ObjectId, t: TimeMs| {
            let mut r = rep3(0, 0.0, GeoPoint::new(20.0, 50.0), 300.0, 50.0, 0.0, 0.0);
            (r.object, r.time) = (object, t);
            r
        };
        let d = SeparationRiskDetector::default();
        let events = late_reports_see_the_unpruned_detector(
            SeparationRiskDetector::default,
            separation_risks,
            |d| &mut d.pruner,
            |d| d.latest.len() + d.last_held.len(),
            filler,
            &stream,
            d.staleness_ms - 1_000,
        );
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn churn_leaves_every_map_bounded_by_the_live_set() {
        // Ten thousand aircraft pass through, one every 10 s: each reports
        // every 10 s for five minutes and is never heard of again (every
        // hundredth stays twenty minutes, circling). They fly in pairs at
        // the same level, one of each pair west from 150 km east of the
        // other, so every pair is a conflict; the next pair flies 30 km
        // further north, forty pairs to a cycle. About 35 are live at any
        // time — so every map of both detectors gets entries all the time.
        const AIRCRAFT: i64 = 10_000;
        let base = GeoPoint::new(10.0, 40.0);
        let mut holding = HoldingDetector::default();
        let mut separation = SeparationRiskDetector::default();
        let mut events = [0usize; 2];
        let mut peak = [0usize; 4];
        for tick in 0..AIRCRAFT + 120 {
            let live = (tick - 120..=tick)
                .filter(|&k| (0..AIRCRAFT).contains(&k))
                .filter(|&k| tick - k <= if k % 100 == 0 { 120 } else { 30 });
            for k in live {
                let (age, lane) = (
                    (tick - k) as f64,
                    base.destination(0.0, 30_000.0 * (k / 2 % 20) as f64),
                );
                let (pos, heading) = if k % 100 == 0 {
                    let heading = (age * 6.0) % 360.0;
                    (lane.destination(heading - 90.0, 7_000.0), heading)
                } else if k % 2 == 0 {
                    (lane.destination(90.0, 2_200.0 * age), 90.0)
                } else {
                    (lane.destination(90.0, 150_000.0 - 2_200.0 * age), 270.0)
                };
                let r = rep3(
                    k as u64,
                    tick as f64 / 6.0,
                    pos,
                    10_000.0,
                    220.0,
                    heading,
                    0.0,
                );
                events[0] += usize::from(holding.update(&r).is_some());
                events[1] += separation.update(&r).len();
            }
            let held = [
                holding.state.len(),
                holding.last_held.len(),
                separation.latest.len(),
                separation.last_held.len(),
            ];
            for (p, h) in peak.iter_mut().zip(held) {
                *p = (*p).max(h);
            }
        }
        assert!(events[0] >= 100 && events[1] > 4_000, "events {events:?}");
        // Windows and holds live twice the 12 min window past their last
        // report (144 aircraft's worth), fixes and conflicts twice the
        // 60 s staleness, and a sweep comes after as many reports as
        // there are entries. Twice the peaks this scene reaches — against
        // the ten thousand aircraft and five thousand pairs that went
        // through.
        let bound = [360, 10, 100, 60];
        for ((what, p), b) in [
            "holding windows",
            "holding holds",
            "separation fixes",
            "separation conflicts",
        ]
        .iter()
        .zip(peak)
        .zip(bound)
        {
            assert!(p <= b, "{what}: {p} held at the peak, bound {b}");
        }
    }

    #[test]
    fn diverging_no_alert() {
        let mut d = SeparationRiskDetector::default();
        let base = GeoPoint::new(10.0, 45.0);
        let a = rep3(1, 0.0, base, 10_000.0, 220.0, 270.0, 0.0);
        let b = rep3(
            2,
            0.0,
            base.destination(90.0, 50_000.0),
            10_000.0,
            220.0,
            90.0,
            0.0,
        );
        d.update(&a);
        assert!(d.update(&b).is_empty());
    }
}
