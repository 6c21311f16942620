//! Maritime complex-event recognisers.
//!
//! Each detector consumes the (cleansed) report stream per object — or per
//! object *pair* for the multi-object patterns — and emits
//! [`EventRecord`]s. Detectors are deliberately streaming: bounded state,
//! one pass, event-time driven.
//!
//! A report costs its neighbourhood, not the fleet: the pair detectors
//! look their partners up in a cell index (`FleetIndex`) and the window
//! detectors gate on a running sum before they re-read a window. Every
//! map is swept as reports arrive (`Pruner`), so what a detector holds
//! follows the live fleet.
//!
//! Loitering, drifting and CPA alert once per episode: only when their
//! condition last held more than `window_ms` (CPA: `staleness_ms`) before
//! (`opens_episode`). Rendezvous ends its own episodes on separation.

use crate::fleet::FleetIndex;
use crate::horizon::{expired, opens_episode, Pruner};
use datacron_geo::FxHashMap;
use datacron_geo::{BoundingBox, CellId, GeoPoint, Grid, TimeInterval, TimeMs, EARTH_RADIUS_M};
use datacron_model::{EventKind, EventRecord, NavStatus, ObjectId, PositionReport};
use std::collections::VecDeque;

/// Add-or-subtract steps a window's running speed sum may take before it
/// is recomputed from the buffer (or the buffer's length, if larger, so
/// the recomputation stays O(1) per report).
const RESYNC_STEPS: usize = 256;

/// A running sum of non-negative terms that knows how far it may have
/// drifted from the in-order floating-point sum of the terms it holds.
/// It can therefore rule a threshold *out* but never in: what it does not
/// reject is decided by the exact sum.
#[derive(Debug, Default)]
struct RunningSum {
    sum: f64,
    /// Largest value `sum` took since the last reset.
    peak: f64,
    /// Additions and subtractions since the last reset.
    steps: usize,
}

impl RunningSum {
    fn add(&mut self, x: f64) {
        self.sum += x;
        self.peak = self.peak.max(self.sum);
        self.steps += 1;
    }

    fn sub(&mut self, x: f64) {
        self.sum -= x;
        self.steps += 1;
    }

    fn reset(&mut self, exact: f64) {
        *self = Self {
            sum: exact,
            peak: exact,
            steps: 0,
        };
    }

    /// An interval holding the in-order sum of the `n` terms now summed.
    /// Three things round, each addition by at most half an epsilon of a
    /// partial sum no larger than `peak`: the in-order sum taken at the
    /// last reset (over at most `n + steps` terms), the `steps` since, and
    /// the in-order sum of today's `n` terms that this one stands in for —
    /// `(n + steps) · ε · peak` in all; the bound allows twice that. A
    /// non-finite term makes both ends non-finite, which rejects nothing.
    fn bounds(&self, n: usize) -> (f64, f64) {
        let tol = 2.0 * (self.steps + n) as f64 * f64::EPSILON * self.peak;
        (self.sum - tol, self.sum + tol)
    }
}

/// One fix in a window.
#[derive(Debug, Clone, Copy)]
struct Fix {
    t: TimeMs,
    pos: GeoPoint,
    speed: f64,
    /// Great-circle distance from the fix pushed before this one, metres,
    /// once a path length has asked for it: the window's path is the
    /// in-order sum of these over all fixes but the front one, and a
    /// vessel whose speed never comes near a band never pays the trig.
    seg_m: Option<f64>,
}

/// Shared helper: a per-object sliding buffer of recent fixes, with the
/// running speed sum that lets most reports leave without re-reading it.
#[derive(Debug, Default)]
struct WindowBuf {
    buf: VecDeque<Fix>,
    speed_sum: RunningSum,
}

impl WindowBuf {
    fn push(&mut self, t: TimeMs, pos: GeoPoint, speed: f64, window_ms: i64) {
        self.buf.push_back(Fix {
            t,
            pos,
            speed,
            seg_m: None,
        });
        self.speed_sum.add(speed);
        while let Some(front) = self.buf.front() {
            if t - front.t > window_ms {
                self.speed_sum.sub(front.speed);
                self.buf.pop_front();
            } else {
                break;
            }
        }
        if self.speed_sum.steps >= RESYNC_STEPS.max(self.buf.len()) {
            self.speed_sum.reset(self.exact_speed_sum());
        }
    }

    fn clear(&mut self) {
        *self = Self::default();
    }

    fn span_ms(&self) -> i64 {
        match (self.buf.front(), self.buf.back()) {
            (Some(a), Some(b)) => b.t - a.t,
            _ => 0,
        }
    }

    /// Diameter of the position set (bounding-box diagonal, metres).
    fn diameter_m(&self) -> f64 {
        match BoundingBox::from_points(self.buf.iter().map(|f| f.pos)) {
            Some(b) => GeoPoint::new(b.min_lon, b.min_lat)
                .haversine_m(&GeoPoint::new(b.max_lon, b.max_lat)),
            None => 0.0,
        }
    }

    fn exact_speed_sum(&self) -> f64 {
        self.buf.iter().map(|f| f.speed).sum()
    }

    fn mean_speed(&self) -> f64 {
        if self.buf.is_empty() {
            return 0.0;
        }
        self.exact_speed_sum() / self.buf.len() as f64
    }

    /// True only when [`WindowBuf::mean_speed`] is certainly outside
    /// `band` — the O(1) gate that most reports stop at.
    fn mean_speed_outside(&self, band: (f64, f64)) -> bool {
        let n = self.buf.len();
        let (low, high) = self.speed_sum.bounds(n);
        high / (n as f64) < band.0 || low / (n as f64) > band.1
    }

    /// Net displacement, first fix to last, metres.
    fn net_m(&self) -> f64 {
        match (self.buf.front(), self.buf.back()) {
            (Some(a), Some(b)) => a.pos.haversine_m(&b.pos),
            _ => 0.0,
        }
    }

    /// Path length / net displacement (1 = dead straight; large = tangled).
    fn tortuosity(&mut self) -> f64 {
        if self.buf.len() < 2 {
            return 1.0;
        }
        let mut path = 0.0;
        let mut prev = self.buf[0].pos;
        for f in self.buf.iter_mut().skip(1) {
            path += *f.seg_m.get_or_insert_with(|| prev.haversine_m(&f.pos));
            prev = f.pos;
        }
        let net = self.net_m();
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
            .fold((0.0, 0.0), |(sx, sy), f| (sx + f.pos.lon, sy + f.pos.lat));
        let n = self.buf.len() as f64;
        Some(GeoPoint::new(sx / n, sy / n))
    }
}

fn within(band: (f64, f64), v: f64) -> bool {
    v >= band.0 && v <= band.1
}

/// What the slow-movement detectors keep per object.
#[derive(Debug, Default)]
struct Track {
    window: WindowBuf,
    last_held: Option<TimeMs>,
}

/// The per-object windows of one slow-movement detector, and the gates
/// loitering and drifting share.
#[derive(Debug, Default)]
struct Tracks {
    by_object: FxHashMap<ObjectId, Track>,
    pruner: Pruner,
}

impl Tracks {
    /// Files `r` in its object's window (a moored or anchored report
    /// empties it) and returns the track when the window is long enough
    /// to judge and its mean speed may lie inside `band`.
    fn admit(
        &mut self,
        r: &PositionReport,
        window_ms: i64,
        band: (f64, f64),
    ) -> Option<&mut Track> {
        if let Some(high) = self.pruner.due(r.time, self.by_object.len()) {
            // A track that saw nothing for a window is a fresh one: its
            // fixes would all leave on the next push and its next hold
            // opens an episode.
            self.by_object.retain(|_, track| {
                let newest = track.window.buf.back().map(|f| f.t);
                newest
                    .max(track.last_held)
                    .is_some_and(|t| !expired(high, t, window_ms))
            });
        }
        if r.nav_status == NavStatus::Moored || r.nav_status == NavStatus::AtAnchor {
            if let Some(track) = self.by_object.get_mut(&r.object) {
                track.window.clear();
            }
            return None;
        }
        let track = self.by_object.entry(r.object).or_default();
        let window = &mut track.window;
        window.push(r.time, r.position(), r.speed_mps.max(0.0), window_ms);
        if window.span_ms() < window_ms * 3 / 4 || window.mean_speed_outside(band) {
            return None;
        }
        Some(track)
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
    tracks: Tracks,
}

impl Default for LoiteringDetector {
    fn default() -> Self {
        Self {
            window_ms: 30 * 60_000,
            max_diameter_m: 2_000.0,
            speed_band: (0.15, 2.0),
            min_tortuosity: 2.0,
            tracks: Tracks::default(),
        }
    }
}

impl LoiteringDetector {
    /// Processes one report.
    pub fn update(&mut self, r: &PositionReport) -> Option<EventRecord> {
        let Track { window, last_held } = self.tracks.admit(r, self.window_ms, self.speed_band)?;
        // All three re-read the window; cheapest first (adds, then
        // compares, then — once per fix — trig).
        let loitering = within(self.speed_band, window.mean_speed())
            && window.diameter_m() <= self.max_diameter_m
            && window.tortuosity() >= self.min_tortuosity;
        if !loitering || !opens_episode(last_held.replace(r.time), r.time, self.window_ms) {
            return None;
        }
        let center = window.centroid().unwrap_or(r.position());
        let start = window.buf.front().map_or(r.time, |f| f.t);
        Some(
            EventRecord::durative(
                EventKind::Loitering,
                vec![r.object],
                TimeInterval::new(start, r.time),
                center,
            )
            .with_attr("diameter_m", format!("{:.0}", window.diameter_m())),
        )
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
    tracks: Tracks,
}

impl Default for DriftingDetector {
    fn default() -> Self {
        Self {
            window_ms: 20 * 60_000,
            speed_band: (0.25, 1.6),
            max_tortuosity: 1.25,
            min_net_m: 250.0,
            tracks: Tracks::default(),
        }
    }
}

impl DriftingDetector {
    /// Processes one report.
    pub fn update(&mut self, r: &PositionReport) -> Option<EventRecord> {
        let Track { window, last_held } = self.tracks.admit(r, self.window_ms, self.speed_band)?;
        let drifting = window.net_m() >= self.min_net_m
            && within(self.speed_band, window.mean_speed())
            && window.tortuosity() <= self.max_tortuosity;
        if !drifting || !opens_episode(last_held.replace(r.time), r.time, self.window_ms) {
            return None;
        }
        let start = window.buf.front().map_or(r.time, |f| f.t);
        Some(EventRecord::durative(
            EventKind::Drifting,
            vec![r.object],
            TimeInterval::new(start, r.time),
            r.position(),
        ))
    }
}

/// Dark activity: a communication gap longer than a threshold. Consumes
/// gap-start/gap-end low-level events (from the synopsis).
pub struct DarkActivityDetector {
    /// Minimum gap duration to alert, ms.
    pub min_gap_ms: i64,
    open_gaps: FxHashMap<ObjectId, (TimeMs, GeoPoint)>,
}

impl DarkActivityDetector {
    /// Creates the detector.
    pub fn new(min_gap_ms: i64) -> Self {
        Self {
            min_gap_ms,
            open_gaps: FxHashMap::default(),
        }
    }

    /// Feeds a low-level event; emits a dark-activity event when a long
    /// enough gap closes.
    pub fn update(&mut self, ev: &EventRecord) -> Option<EventRecord> {
        match ev.kind {
            EventKind::GapStart => {
                self.open_gaps
                    .insert(ev.objects[0], (ev.interval.start, ev.location));
                None
            }
            EventKind::GapEnd => {
                let (start, loc) = self.open_gaps.remove(&ev.objects[0])?;
                let dur = ev.interval.start - start;
                (dur >= self.min_gap_ms).then(|| {
                    EventRecord::durative(
                        EventKind::DarkActivity,
                        ev.objects.clone(),
                        TimeInterval::new(start, ev.interval.start),
                        loc,
                    )
                    .with_attr("gap_min", dur / 60_000)
                })
            }
            _ => None,
        }
    }
}

/// The key of an unordered pair: smaller id first.
fn pair_key(a: ObjectId, b: ObjectId) -> (ObjectId, ObjectId) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The speed rendezvous judges a fix by: one without a speed counts as fast.
fn pairing_speed(r: &PositionReport) -> f64 {
    if r.speed_mps.is_finite() {
        r.speed_mps
    } else {
        99.0
    }
}

/// An open proximity episode of one pair.
#[derive(Debug, Clone, Copy)]
struct Episode {
    start: TimeMs,
    /// Last time the pair was observed close.
    confirmed: TimeMs,
    /// Already alerted (suppress repeats per episode).
    alerted: bool,
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
    /// Latest fix per object by 0.02° cell: a vessel's partners are looked
    /// for in its own cell and the eight around it.
    fleet: FleetIndex<()>,
    /// Open proximity episodes per (a, b) with a < b.
    episodes: FxHashMap<(ObjectId, ObjectId), Episode>,
    /// Fixes older than this are ignored for pairing, ms.
    pub staleness_ms: i64,
    /// Exclusion zones (ports/anchorages) where rendezvous is normal.
    pub exclusion: Vec<(GeoPoint, f64)>,
    pruner: Pruner,
    /// Scratch: the fixes around the current report.
    nearby: Vec<(PositionReport, ())>,
}

impl RendezvousDetector {
    /// Creates a detector over the given region.
    pub fn new(region: BoundingBox) -> Self {
        Self {
            max_dist_m: 500.0,
            max_speed_mps: 1.5,
            min_duration_ms: 10 * 60_000,
            fleet: FleetIndex::new(Grid::new(region, 0.02).expect("valid region")),
            episodes: FxHashMap::default(),
            staleness_ms: 5 * 60_000,
            exclusion: Vec::new(),
            pruner: Pruner::default(),
            nearby: Vec::new(),
        }
    }

    /// Adds an exclusion circle (port/anchorage).
    pub fn exclude(&mut self, center: GeoPoint, radius_m: f64) {
        self.exclusion.push((center, radius_m));
    }

    /// Other vessels' fixes read from the cell index so far — the work the
    /// detector did, as a count.
    pub fn candidates_examined(&self) -> u64 {
        self.fleet.examined()
    }

    /// Processes one report; may emit rendezvous events.
    pub fn update(&mut self, r: &PositionReport) -> Vec<EventRecord> {
        let pos = r.position();
        let speed = pairing_speed(r);
        if let Some(high) = self
            .pruner
            .due(r.time, self.fleet.len() + self.episodes.len())
        {
            // A fix this old pairs with nothing, and an episode not
            // confirmed for this long restarts on its next confirmation.
            let staleness_ms = self.staleness_ms;
            self.fleet.prune(|t| expired(high, t, staleness_ms));
            self.episodes
                .retain(|_, e| !expired(high, e.confirmed, staleness_ms));
        }
        self.fleet.upsert(r, ());
        let mut out = Vec::new();
        let grid = self.fleet.grid();
        let Some(cell) = grid.cell_of(&pos) else {
            return out;
        };

        // Candidate partners: latest fixes in the same/adjacent cells.
        let lo = CellId {
            x: cell.x.saturating_sub(1),
            y: cell.y.saturating_sub(1),
        };
        let hi = CellId {
            x: (cell.x + 1).min(grid.cols() - 1),
            y: (cell.y + 1).min(grid.rows() - 1),
        };
        self.fleet.others_in(lo, hi, r.object, &mut self.nearby);

        // No great circle is shorter than its span in latitude: a partner
        // further north or south than this (a part in 10⁹ over
        // `max_dist_m`) is not close, whatever its longitude.
        let close_lat_deg = (self.max_dist_m / EARTH_RADIUS_M).to_degrees() * (1.0 + 1e-9);
        let mut in_port = None;
        for (other, ()) in &self.nearby {
            if r.time - other.time > self.staleness_ms {
                continue;
            }
            let key = pair_key(r.object, other.object);
            let p2 = other.position();
            let dist_m = if (p2.lat - pos.lat).abs() > close_lat_deg {
                f64::INFINITY
            } else {
                pos.haversine_m(&p2)
            };
            let close = dist_m <= self.max_dist_m;
            let slow = speed <= self.max_speed_mps && pairing_speed(other) <= self.max_speed_mps;
            if close
                && slow
                && !*in_port.get_or_insert_with(|| {
                    self.exclusion
                        .iter()
                        .any(|(center, radius_m)| pos.haversine_m(center) <= *radius_m)
                })
            {
                let fresh = Episode {
                    start: r.time,
                    confirmed: r.time,
                    alerted: false,
                };
                let episode = self.episodes.entry(key).or_insert(fresh);
                if r.time - episode.confirmed >= self.staleness_ms {
                    // The pair drifted out of observation since the episode
                    // was last confirmed: restart it.
                    *episode = fresh;
                }
                episode.confirmed = r.time;
                if !episode.alerted && r.time - episode.start >= self.min_duration_ms {
                    episode.alerted = true;
                    out.push(
                        EventRecord::durative(
                            EventKind::Rendezvous,
                            vec![key.0, key.1],
                            TimeInterval::new(episode.start, r.time),
                            pos.midpoint(&p2),
                        )
                        .with_attr("dist_m", format!("{dist_m:.0}")),
                    );
                }
            } else if !close {
                self.episodes.remove(&key);
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
    /// Latest fix per object, with its velocity, by cell of a whole-earth
    /// grid: a vessel's partners are looked for in the cells its range box
    /// touches.
    fleet: FleetIndex<(f64, f64)>,
    /// When each pair was last on a collision course.
    last_held: FxHashMap<(ObjectId, ObjectId), TimeMs>,
    pruner: Pruner,
    /// Scratch: the fixes around the current report.
    nearby: Vec<(PositionReport, (f64, f64))>,
}

/// Cell edge of the CPA detector's whole-earth grid, degrees: a little more
/// than the default range box is across (0.36° of latitude), so the box
/// touches one or two rows and, at mid latitudes, one or two columns.
const CPA_CELL_DEG: f64 = 0.5;

/// One vessel as the origin of its own local tangent plane (ENU): the
/// half of [`cpa`] that does not depend on the partner, worked out once per
/// report however many partners there are.
struct OwnShip {
    lon: f64,
    lat: f64,
    /// Metres per radian of longitude at the vessel's latitude.
    mx: f64,
    /// The vessel's own coordinates in its plane (zero, or NaN if it has
    /// no position).
    xy: (f64, f64),
    vel: (f64, f64),
}

/// East/north velocity; a missing speed or heading counts as zero.
fn velocity(r: &PositionReport) -> (f64, f64) {
    let s = if r.speed_mps.is_finite() {
        r.speed_mps
    } else {
        0.0
    };
    let h = if r.heading_deg.is_finite() {
        r.heading_deg.to_radians()
    } else {
        0.0
    };
    (s * h.sin(), s * h.cos())
}

impl OwnShip {
    fn of(a: &PositionReport) -> Self {
        let mut own = OwnShip {
            lon: a.lon,
            lat: a.lat,
            mx: EARTH_RADIUS_M * a.lat.to_radians().cos(),
            xy: (0.0, 0.0),
            vel: velocity(a),
        };
        own.xy = own.to_xy(a);
        own
    }

    fn to_xy(&self, r: &PositionReport) -> (f64, f64) {
        (
            (r.lon - self.lon).to_radians() * self.mx,
            (r.lat - self.lat).to_radians() * EARTH_RADIUS_M,
        )
    }

    /// `(t_cpa_s, d_cpa_m)` against `b`, whose [`velocity`] is `vel_b`; see
    /// [`cpa`].
    fn cpa_with(&self, b: &PositionReport, vel_b: (f64, f64)) -> (f64, f64) {
        let (xa, ya) = self.xy;
        let (xb, yb) = self.to_xy(b);
        let (vxa, vya) = self.vel;
        let (vxb, vyb) = vel_b;
        let (dx, dy) = (xb - xa, yb - ya);
        let (dvx, dvy) = (vxb - vxa, vyb - vya);
        let dv2 = dvx * dvx + dvy * dvy;
        if dv2 < 1e-9 {
            return (f64::INFINITY, (dx * dx + dy * dy).sqrt());
        }
        let t = -(dx * dvx + dy * dvy) / dv2;
        let cx = dx + dvx * t;
        let cy = dy + dvy * t;
        (t, (cx * cx + cy * cy).sqrt())
    }
}

/// Computes `(t_cpa_s, d_cpa_m)` for two kinematic states in a local
/// tangent plane around `a`. `t_cpa_s` may be negative (diverging).
pub fn cpa(a: &PositionReport, b: &PositionReport) -> (f64, f64) {
    OwnShip::of(a).cpa_with(b, velocity(b))
}

impl Default for CpaDetector {
    fn default() -> Self {
        let earth = BoundingBox::new(-180.0, -90.0, 180.0, 90.0);
        Self {
            cpa_dist_m: 500.0,
            cpa_time_ms: 20 * 60_000,
            pair_range_m: 20_000.0,
            staleness_ms: 3 * 60_000,
            fleet: FleetIndex::new(Grid::new(earth, CPA_CELL_DEG).expect("valid extent")),
            last_held: FxHashMap::default(),
            pruner: Pruner::default(),
            nearby: Vec::new(),
        }
    }
}

impl CpaDetector {
    /// Builder: sets the CPA distance and time thresholds.
    pub fn with_thresholds(mut self, cpa_dist_m: f64, cpa_time_ms: i64) -> Self {
        self.cpa_dist_m = cpa_dist_m;
        self.cpa_time_ms = cpa_time_ms;
        self
    }

    /// Other vessels' fixes read from the cell index so far — the work the
    /// detector did, as a count.
    pub fn candidates_examined(&self) -> u64 {
        self.fleet.examined()
    }

    /// Processes one report; may emit collision-risk forecasts.
    pub fn update(&mut self, r: &PositionReport) -> Vec<EventRecord> {
        if let Some(high) = self
            .pruner
            .due(r.time, self.fleet.len() + self.last_held.len())
        {
            // A fix this old pairs with nothing, and a course this old
            // ended its episode.
            let staleness_ms = self.staleness_ms;
            self.fleet.prune(|t| expired(high, t, staleness_ms));
            self.last_held
                .retain(|_, t| !expired(high, *t, staleness_ms));
        }
        let mut out = Vec::new();
        let own = OwnShip::of(r);
        if self.fleet.upsert(r, own.vel).is_none() {
            return out;
        }
        let pos = r.position();
        let reach = BoundingBox::around(&pos, self.pair_range_m);
        let grid = self.fleet.grid();
        let lo = grid.cell_of_clamped(&GeoPoint::new(reach.min_lon, reach.min_lat));
        let hi = grid.cell_of_clamped(&GeoPoint::new(reach.max_lon, reach.max_lat));
        self.fleet.others_in(lo, hi, r.object, &mut self.nearby);

        for (o, vel) in &self.nearby {
            // The cells cover more than the box and the box more than the
            // range: the cheap test first.
            if r.time - o.time > self.staleness_ms
                || !reach.contains(&o.position())
                || pos.fast_dist2_m2(&o.position()).sqrt() > self.pair_range_m
            {
                continue;
            }
            let (t_s, d_m) = own.cpa_with(o, *vel);
            if t_s > 0.0 && (t_s * 1000.0) as i64 <= self.cpa_time_ms && d_m <= self.cpa_dist_m {
                let key = pair_key(r.object, o.object);
                let last_held = self.last_held.insert(key, r.time);
                if opens_episode(last_held, r.time, self.staleness_ms) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::horizon::tests::late_reports_see_the_unpruned_detector;
    use datacron_model::SourceId;

    fn rep(obj: u64, t_min: f64, pos: GeoPoint, speed: f64, heading: f64) -> PositionReport {
        PositionReport::maritime(
            ObjectId(obj),
            TimeMs((t_min * 60_000.0) as i64),
            pos,
            speed,
            heading,
            SourceId::AIS_TERRESTRIAL,
            NavStatus::UnderWay,
        )
    }

    // --- loitering ---

    #[test]
    fn loitering_fires_on_confined_meander() {
        let mut d = LoiteringDetector::default();
        let center = GeoPoint::new(24.5, 37.2);
        let mut fired = false;
        for i in 0..60 {
            // Pseudo-random small offsets (deterministic).
            let angle = (i * 73 % 360) as f64;
            let pos = center.destination(angle, 300.0 + (i % 5) as f64 * 60.0);
            if d.update(&rep(1, i as f64, pos, 0.8, angle)).is_some() {
                fired = true;
                break;
            }
        }
        assert!(fired, "loitering not detected");
    }

    #[test]
    fn transit_does_not_loiter() {
        let mut d = LoiteringDetector::default();
        let start = GeoPoint::new(24.0, 37.0);
        for i in 0..120 {
            let pos = start.destination(90.0, 6.0 * 60.0 * i as f64);
            assert!(
                d.update(&rep(1, i as f64, pos, 6.0, 90.0)).is_none(),
                "transit misclassified at step {i}"
            );
        }
    }

    #[test]
    fn slow_straight_transit_is_not_loitering() {
        // Slow but straight: tortuosity gate must reject.
        let mut d = LoiteringDetector::default();
        let start = GeoPoint::new(24.0, 37.0);
        for i in 0..120 {
            let pos = start.destination(90.0, 1.0 * 60.0 * i as f64);
            assert!(d.update(&rep(1, i as f64, pos, 1.0, 90.0)).is_none());
        }
    }

    #[test]
    fn moored_vessel_never_loiters() {
        let mut d = LoiteringDetector::default();
        let pos = GeoPoint::new(24.0, 37.0);
        for i in 0..120 {
            let mut r = rep(1, i as f64, pos, 0.1, 0.0);
            r.nav_status = NavStatus::Moored;
            assert!(d.update(&r).is_none());
        }
    }

    /// Vessel 1's reports, one a minute for `minutes`: moored where
    /// `moored` says so, and otherwise `under_way` at that minute.
    fn schedule(
        minutes: i64,
        moored: impl Fn(i64) -> bool,
        under_way: impl Fn(i64) -> PositionReport,
    ) -> Vec<PositionReport> {
        (0..minutes)
            .map(|i| {
                let mut r = under_way(i);
                if moored(i) {
                    r.nav_status = NavStatus::Moored;
                }
                r
            })
            .collect()
    }

    /// The minutes at which `stream` raised an event.
    fn alerts_at<D>(
        mut d: D,
        update: impl Fn(&mut D, &PositionReport) -> Vec<EventRecord>,
        stream: &[PositionReport],
    ) -> Vec<i64> {
        let mut at = Vec::new();
        for r in stream {
            at.extend(update(&mut d, r).iter().map(|_| r.time.millis() / 60_000));
        }
        at
    }

    /// A vessel meandering 300 m around one spot at 0.8 m/s.
    fn meander(i: i64) -> PositionReport {
        let angle = (i * 73 % 360) as f64;
        let center = GeoPoint::new(24.5, 37.2);
        rep(1, i as f64, center.destination(angle, 300.0), 0.8, angle)
    }

    fn loitering(d: &mut LoiteringDetector, r: &PositionReport) -> Vec<EventRecord> {
        d.update(r).into_iter().collect()
    }

    // The window is 30 min, and a window three quarters full is judged.
    #[test]
    fn loitering_held_for_three_windows_alerts_once() {
        let stream = schedule(120, |_| false, meander);
        assert_eq!(
            alerts_at(LoiteringDetector::default(), loitering, &stream),
            [23]
        );
    }

    #[test]
    fn loitering_dip_shorter_than_the_window_does_not_realert() {
        // Moored at minute 60: the window empties and holds again at 84,
        // 25 minutes after it last held.
        let stream = schedule(130, |i| i == 60, meander);
        assert_eq!(
            alerts_at(LoiteringDetector::default(), loitering, &stream),
            [23]
        );
    }

    #[test]
    fn loitering_lapse_longer_than_the_window_alerts_again() {
        // Moored 60–70: holds again at 94, 35 minutes after it last held.
        let stream = schedule(130, |i| (60..=70).contains(&i), meander);
        assert_eq!(
            alerts_at(LoiteringDetector::default(), loitering, &stream),
            [23, 94]
        );
    }

    /// A vessel far from the others that reports once.
    fn filler(object: ObjectId, t: TimeMs) -> PositionReport {
        let mut r = rep(0, 0.0, GeoPoint::new(29.0, 40.0), 0.0, 0.0);
        (r.object, r.time) = (object, t);
        r
    }

    #[test]
    fn loitering_reports_a_window_late_see_the_unpruned_detector() {
        let stream = schedule(130, |i| (60..=70).contains(&i), meander);
        let d = LoiteringDetector::default();
        let events = late_reports_see_the_unpruned_detector(
            LoiteringDetector::default,
            loitering,
            |d| &mut d.tracks.pruner,
            |d| d.tracks.by_object.len(),
            filler,
            &stream,
            d.window_ms - 1_000,
        );
        assert_eq!(events.len(), 2);
    }

    // --- drifting ---

    #[test]
    fn drifting_fires_on_slow_straight_movement() {
        let mut d = DriftingDetector::default();
        let start = GeoPoint::new(24.0, 37.0);
        let mut fired = false;
        for i in 0..40 {
            let pos = start.destination(45.0, 0.7 * 60.0 * i as f64);
            if d.update(&rep(1, i as f64, pos, 0.7, 45.0)).is_some() {
                fired = true;
                break;
            }
        }
        assert!(fired, "drifting not detected");
    }

    /// A vessel drifting north-east at 0.7 m/s.
    fn drift(i: i64) -> PositionReport {
        let start = GeoPoint::new(24.0, 37.0);
        rep(
            1,
            i as f64,
            start.destination(45.0, 0.7 * 60.0 * i as f64),
            0.7,
            45.0,
        )
    }

    fn drifting(d: &mut DriftingDetector, r: &PositionReport) -> Vec<EventRecord> {
        d.update(r).into_iter().collect()
    }

    // The window is 20 min, and a window three quarters full is judged.
    #[test]
    fn drifting_held_for_three_windows_alerts_once() {
        let stream = schedule(80, |_| false, drift);
        assert_eq!(
            alerts_at(DriftingDetector::default(), drifting, &stream),
            [15]
        );
    }

    #[test]
    fn drifting_dip_shorter_than_the_window_does_not_realert() {
        // Moored at minute 40: holds again at 56, 17 minutes after it
        // last held.
        let stream = schedule(80, |i| i == 40, drift);
        assert_eq!(
            alerts_at(DriftingDetector::default(), drifting, &stream),
            [15]
        );
    }

    #[test]
    fn drifting_lapse_longer_than_the_window_alerts_again() {
        // Moored 40–45: holds again at 61, 22 minutes after it last held.
        let stream = schedule(80, |i| (40..=45).contains(&i), drift);
        assert_eq!(
            alerts_at(DriftingDetector::default(), drifting, &stream),
            [15, 61]
        );
    }

    #[test]
    fn drifting_reports_a_window_late_see_the_unpruned_detector() {
        let stream = schedule(80, |i| (40..=45).contains(&i), drift);
        let d = DriftingDetector::default();
        let events = late_reports_see_the_unpruned_detector(
            DriftingDetector::default,
            drifting,
            |d| &mut d.tracks.pruner,
            |d| d.tracks.by_object.len(),
            filler,
            &stream,
            d.window_ms - 1_000,
        );
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn normal_cruise_is_not_drifting() {
        let mut d = DriftingDetector::default();
        let start = GeoPoint::new(24.0, 37.0);
        for i in 0..60 {
            let pos = start.destination(45.0, 6.0 * 60.0 * i as f64);
            assert!(d.update(&rep(1, i as f64, pos, 6.0, 45.0)).is_none());
        }
    }

    // --- dark activity ---

    #[test]
    fn dark_activity_from_gap_events() {
        let mut d = DarkActivityDetector::new(15 * 60_000);
        let pos = GeoPoint::new(24.0, 37.0);
        let start = EventRecord::instant(EventKind::GapStart, ObjectId(1), TimeMs(0), pos);
        assert!(d.update(&start).is_none());
        // Gap end 30 minutes later.
        let end = EventRecord::instant(
            EventKind::GapEnd,
            ObjectId(1),
            TimeMs(30 * 60_000),
            GeoPoint::new(24.1, 37.0),
        );
        let ev = d.update(&end).unwrap();
        assert_eq!(ev.kind, EventKind::DarkActivity);
        assert_eq!(ev.interval.duration_ms(), 30 * 60_000);
        assert_eq!(ev.location, pos, "stamped where contact was lost");
        assert_eq!(ev.attr("gap_min"), Some("30"));
    }

    #[test]
    fn short_gap_not_dark() {
        let mut d = DarkActivityDetector::new(15 * 60_000);
        let pos = GeoPoint::new(24.0, 37.0);
        d.update(&EventRecord::instant(
            EventKind::GapStart,
            ObjectId(1),
            TimeMs(0),
            pos,
        ));
        let end = EventRecord::instant(EventKind::GapEnd, ObjectId(1), TimeMs(5 * 60_000), pos);
        assert!(d.update(&end).is_none());
    }

    #[test]
    fn gap_end_without_start_ignored() {
        let mut d = DarkActivityDetector::new(1000);
        let end = EventRecord::instant(
            EventKind::GapEnd,
            ObjectId(9),
            TimeMs(1000),
            GeoPoint::new(0.0, 0.0),
        );
        assert!(d.update(&end).is_none());
    }

    // --- rendezvous ---

    fn region() -> BoundingBox {
        BoundingBox::new(22.0, 34.5, 29.5, 41.2)
    }

    #[test]
    fn rendezvous_detected_after_sustained_proximity() {
        let mut d = RendezvousDetector::new(region());
        let meet = GeoPoint::new(24.5, 37.0);
        let mut events = Vec::new();
        for i in 0..15 {
            let t = i as f64;
            events.extend(d.update(&rep(1, t, meet.destination(0.0, 50.0), 0.5, 0.0)));
            events.extend(d.update(&rep(2, t, meet.destination(180.0, 50.0), 0.4, 0.0)));
        }
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].kind, EventKind::Rendezvous);
        assert_eq!(events[0].objects, vec![ObjectId(1), ObjectId(2)]);
        assert!(events[0].interval.duration_ms() >= 10 * 60_000);
    }

    #[test]
    fn passing_ships_no_rendezvous() {
        let mut d = RendezvousDetector::new(region());
        // Two fast ships crossing: close only briefly, and too fast.
        let a0 = GeoPoint::new(24.0, 37.0);
        let b0 = GeoPoint::new(24.2, 37.0);
        for i in 0..30 {
            let t = i as f64;
            let a = a0.destination(90.0, 7.0 * 60.0 * i as f64);
            let b = b0.destination(270.0, 7.0 * 60.0 * i as f64);
            assert!(d.update(&rep(1, t, a, 7.0, 90.0)).is_empty());
            assert!(d.update(&rep(2, t, b, 7.0, 270.0)).is_empty());
        }
    }

    #[test]
    fn rendezvous_in_exclusion_zone_suppressed() {
        let mut d = RendezvousDetector::new(region());
        let port = GeoPoint::new(23.6, 37.93);
        d.exclude(port, 5_000.0);
        for i in 0..20 {
            let t = i as f64;
            assert!(d
                .update(&rep(1, t, port.destination(0.0, 30.0), 0.3, 0.0))
                .is_empty());
            assert!(d
                .update(&rep(2, t, port.destination(90.0, 30.0), 0.3, 0.0))
                .is_empty());
        }
    }

    #[test]
    fn separation_resets_episode() {
        let mut d = RendezvousDetector::new(region());
        let meet = GeoPoint::new(24.5, 37.0);
        // 6 minutes close (below min duration)…
        for i in 0..6 {
            d.update(&rep(1, i as f64, meet, 0.5, 0.0));
            d.update(&rep(2, i as f64, meet.destination(0.0, 60.0), 0.5, 0.0));
        }
        // …then far apart…
        for i in 6..10 {
            d.update(&rep(
                1,
                i as f64,
                meet.destination(270.0, 5_000.0),
                5.0,
                270.0,
            ));
            d.update(&rep(
                2,
                i as f64,
                meet.destination(90.0, 5_000.0),
                5.0,
                90.0,
            ));
        }
        // …then close again for 6 minutes: still below min duration since
        // the episode restarted.
        let mut fired = false;
        for i in 10..16 {
            fired |= !d.update(&rep(1, i as f64, meet, 0.5, 0.0)).is_empty();
            fired |= !d
                .update(&rep(2, i as f64, meet.destination(0.0, 60.0), 0.5, 0.0))
                .is_empty();
        }
        assert!(!fired, "episode did not reset");
    }

    // --- CPA ---

    #[test]
    fn cpa_head_on_collision_course() {
        // Two vessels 10 km apart, head-on, 5 m/s each → CPA 0 m in 1000 s.
        let a = rep(1, 0.0, GeoPoint::new(24.0, 37.0), 5.0, 90.0);
        let b = rep(
            2,
            0.0,
            GeoPoint::new(24.0, 37.0).destination(90.0, 10_000.0),
            5.0,
            270.0,
        );
        let (t_s, d_m) = cpa(&a, &b);
        assert!((t_s - 1000.0).abs() < 20.0, "t = {t_s}");
        assert!(d_m < 50.0, "d = {d_m}");
    }

    #[test]
    fn cpa_parallel_courses_never_close() {
        let a = rep(1, 0.0, GeoPoint::new(24.0, 37.0), 5.0, 90.0);
        let b = rep(2, 0.0, GeoPoint::new(24.0, 37.02), 5.0, 90.0);
        let (t_s, d_m) = cpa(&a, &b);
        assert!(t_s.is_infinite());
        assert!((d_m - 2_224.0).abs() < 60.0);
    }

    #[test]
    fn cpa_detector_alerts_on_collision_course() {
        let mut d = CpaDetector::default();
        let a = rep(1, 0.0, GeoPoint::new(24.0, 37.0), 5.0, 90.0);
        let b = rep(
            2,
            0.0,
            GeoPoint::new(24.0, 37.0).destination(90.0, 8_000.0),
            5.0,
            270.0,
        );
        assert!(d.update(&a).is_empty(), "single vessel cannot alert");
        let evs = d.update(&b);
        assert_eq!(evs.len(), 1);
        let e = &evs[0];
        assert_eq!(e.kind, EventKind::CollisionRisk);
        assert!(e.confidence < 1.0, "collision risk is a forecast");
        assert!(e.attr("cpa_m").is_some());
        assert!(e.attr("tcpa_s").is_some());
    }

    #[test]
    fn cpa_detector_ignores_diverging() {
        let mut d = CpaDetector::default();
        let a = rep(1, 0.0, GeoPoint::new(24.0, 37.0), 5.0, 270.0);
        let b = rep(
            2,
            0.0,
            GeoPoint::new(24.0, 37.0).destination(90.0, 8_000.0),
            5.0,
            90.0,
        );
        d.update(&a);
        assert!(d.update(&b).is_empty());
    }

    /// Two vessels 8 km apart closing head-on at 5 m/s each, one report
    /// each a minute, until they meet at 13⅓ minutes; during `turned`
    /// minutes the second reports a heading away from the first.
    fn head_on(turned: impl Fn(i64) -> bool) -> Vec<PositionReport> {
        let base = GeoPoint::new(24.0, 37.0);
        (0..13)
            .flat_map(|i| {
                let sailed = 5.0 * 60.0 * i as f64;
                let heading = if turned(i) { 90.0 } else { 270.0 };
                [
                    rep(1, i as f64, base.destination(90.0, sailed), 5.0, 90.0),
                    rep(
                        2,
                        i as f64,
                        base.destination(90.0, 8_000.0 - sailed),
                        5.0,
                        heading,
                    ),
                ]
            })
            .collect()
    }

    fn collision_risks(d: &mut CpaDetector, r: &PositionReport) -> Vec<EventRecord> {
        d.update(r)
    }

    // The staleness bound is 3 min; the pair is on a collision course on
    // every report from the second on.
    #[test]
    fn cpa_held_for_three_staleness_bounds_alerts_once() {
        let stream = head_on(|_| false);
        assert_eq!(
            alerts_at(CpaDetector::default(), collision_risks, &stream),
            [0]
        );
    }

    #[test]
    fn cpa_dip_shorter_than_the_staleness_bound_does_not_realert() {
        // Turned away at 5 and 6: on course again at 7, two minutes after
        // the first vessel's report at 5 last saw it.
        let stream = head_on(|i| (5..=6).contains(&i));
        assert_eq!(
            alerts_at(CpaDetector::default(), collision_risks, &stream),
            [0]
        );
    }

    #[test]
    fn cpa_lapse_longer_than_the_staleness_bound_alerts_again() {
        // Turned away 5–8: on course again at 9, four minutes after.
        let stream = head_on(|i| (5..=8).contains(&i));
        assert_eq!(
            alerts_at(CpaDetector::default(), collision_risks, &stream),
            [0, 9]
        );
    }

    #[test]
    fn cpa_reports_a_staleness_bound_late_see_the_unpruned_detector() {
        let stream = head_on(|i| (5..=8).contains(&i));
        let d = CpaDetector::default();
        let events = late_reports_see_the_unpruned_detector(
            CpaDetector::default,
            collision_risks,
            |d| &mut d.pruner,
            |d| d.fleet.len() + d.last_held.len(),
            filler,
            &stream,
            d.staleness_ms - 1_000,
        );
        assert_eq!(events.len(), 2);
    }

    // --- aggregates and pruning ---

    /// A small deterministic generator.
    struct Lcg(u64);

    impl Lcg {
        fn unit(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) as f64 / (1u64 << 31) as f64
        }
    }

    #[test]
    fn running_sum_brackets_the_exact_sum_whatever_passed_through() {
        // Ordinary speeds with the odd absurd one: after a 10¹² term has
        // come and gone the running sum is off by far more than an ulp of
        // what is left, and the bracket must know it.
        let mut rng = Lcg(3);
        let mut terms: VecDeque<f64> = VecDeque::new();
        let mut sum = RunningSum::default();
        let mut widened = false;
        for step in 0..20_000 {
            let x = if step % 997 == 500 {
                1e12
            } else {
                rng.unit() * 12.0
            };
            terms.push_back(x);
            sum.add(x);
            while terms.len() > 150 {
                sum.sub(terms.pop_front().unwrap());
            }
            let exact: f64 = terms.iter().sum();
            let (low, high) = sum.bounds(terms.len());
            assert!(low <= exact && exact <= high, "{low} {exact} {high}");
            widened |= sum.sum != exact;
            if sum.steps >= RESYNC_STEPS.max(terms.len()) {
                sum.reset(exact);
            }
        }
        assert!(widened, "the running sum never drifted: nothing was tested");
    }

    #[test]
    fn window_aggregates_equal_a_fresh_read_of_the_buffer() {
        // Path and diameter after pushes and pops equal what the window
        // would compute from its positions alone — to the bit.
        let mut rng = Lcg(9);
        let mut w = WindowBuf::default();
        let mut pos = GeoPoint::new(24.0, 37.0);
        for i in 0..600i64 {
            pos = pos.destination(rng.unit() * 360.0, rng.unit() * 40.0);
            w.push(TimeMs(i * 10_000), pos, rng.unit() * 3.0, 20 * 60_000);
            if i % 7 != 1 {
                continue;
            }
            let pts: Vec<GeoPoint> = w.buf.iter().map(|f| f.pos).collect();
            let mut path = 0.0;
            for pair in pts.windows(2) {
                path += pair[0].haversine_m(&pair[1]);
            }
            let net = pts[0].haversine_m(&pts[pts.len() - 1]);
            assert_eq!(w.tortuosity().to_bits(), (path / net).to_bits());
            let speeds: f64 = w.buf.iter().map(|f| f.speed).sum();
            assert_eq!(
                w.mean_speed().to_bits(),
                (speeds / pts.len() as f64).to_bits()
            );
            let mean = w.mean_speed();
            assert!(
                !w.mean_speed_outside((mean, mean)),
                "the gate rejected the exact mean"
            );
            assert!(w.mean_speed_outside((mean + 0.01, 9.0)));
            assert!(w.mean_speed_outside((0.0, mean - 0.01)));
        }
        assert_eq!(w.buf.len(), 121, "a full twenty-minute window");
    }

    #[test]
    fn churn_leaves_every_map_bounded_by_the_live_set() {
        // Ten thousand vessels pass through, one after the other: each
        // reports every 30 s for ten minutes and is never heard of again
        // (every 400th stays 45 minutes, long enough to be caught
        // loitering on the spot or, every other one, drifting east). About 22 are live at any time, 150 m apart on a
        // line, slow, neighbours steaming at each other — so every map of
        // every detector gets entries all the time.
        const VESSELS: i64 = 10_000;
        let base = GeoPoint::new(24.0, 37.0);
        let mut loitering = LoiteringDetector::default();
        let mut drifting = DriftingDetector::default();
        let mut rendezvous = RendezvousDetector::new(region());
        let mut cpa = CpaDetector::default();
        let mut events = [0usize; 4];
        let mut peak = [0usize; 6];
        let mut pairs_ever = datacron_geo::FxHashSet::default();
        for tick in 0..VESSELS + 90 {
            let live = (tick - 90..=tick)
                .filter(|&k| (0..VESSELS).contains(&k))
                .filter(|&k| tick - k <= if k % 400 == 0 { 90 } else { 20 });
            for k in live {
                let adrift = if k % 800 == 400 { tick - k } else { 0 };
                let pos = base.destination(90.0, 150.0 * (k % 200) as f64 + 15.0 * adrift as f64);
                let heading = if k % 2 == 0 { 90.0 } else { 270.0 };
                let r = rep(k as u64, tick as f64 / 2.0, pos, 0.5, heading);
                events[0] += usize::from(loitering.update(&r).is_some());
                events[1] += usize::from(drifting.update(&r).is_some());
                let met = rendezvous.update(&r);
                let risks = cpa.update(&r);
                pairs_ever.extend(
                    met.iter()
                        .chain(&risks)
                        .map(|e| (e.objects[0], e.objects[1])),
                );
                events[2] += met.len();
                events[3] += risks.len();
            }
            let held = [
                loitering.tracks.by_object.len(),
                drifting.tracks.by_object.len(),
                rendezvous.fleet.len(),
                rendezvous.episodes.len(),
                cpa.fleet.len(),
                cpa.last_held.len(),
            ];
            for (p, h) in peak.iter_mut().zip(held) {
                *p = (*p).max(h);
            }
        }
        assert!(events.iter().all(|&n| n > 0), "events {events:?}");
        assert!(pairs_ever.len() > 20_000, "{} pairs", pairs_ever.len());
        // Tracks live twice their window past their last report (an hour
        // for loitering, 120 vessels' worth), fixes and collision courses
        // twice their staleness, and a sweep comes after as many reports
        // as there are entries. Twice the peaks this scene reaches —
        // against the ten thousand vessels and forty thousand pairs that
        // went through.
        let bound = [300, 220, 100, 320, 90, 160];
        for ((what, p), b) in [
            "loitering tracks",
            "drifting tracks",
            "rendezvous fixes",
            "rendezvous episodes",
            "cpa fixes",
            "cpa courses",
        ]
        .iter()
        .zip(peak)
        .zip(bound)
        {
            assert!(p <= b, "{what}: {p} held at the peak, bound {b}");
        }
    }
}
