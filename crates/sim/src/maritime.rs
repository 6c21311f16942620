//! The maritime traffic generator.
//!
//! Vessels sail shipping lanes between ports at cruise speed, dwell moored
//! in port between voyages, and a configurable share of them executes
//! scripted anomalous behaviours — loitering, pairwise rendezvous, AIS gaps
//! and drifting — each of which is recorded in the ground truth so the
//! analytics can be scored.

use crate::noise::{gaussian, NoiseModel};
use crate::world::{aegean_world, MaritimeWorld};
use datacron_geo::{GeoPoint, TimeInterval, TimeMs};
use datacron_model::{
    EventKind, GroundTruth, LabeledEvent, NavStatus, ObjectId, PositionReport, SourceId, TrajPoint,
    Trajectory, VesselInfo,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of a maritime scenario.
#[derive(Debug, Clone)]
pub struct MaritimeConfig {
    /// RNG seed; the scenario is fully determined by the config.
    pub seed: u64,
    /// Number of vessels in the normal fleet (rendezvous pairs are extra).
    pub n_vessels: usize,
    /// Scenario duration in milliseconds.
    pub duration_ms: i64,
    /// True-state sampling / AIS reporting interval in milliseconds.
    pub report_interval_ms: i64,
    /// Observation noise model.
    pub noise: NoiseModel,
    /// Fraction of the fleet that loiters once during the scenario.
    pub frac_loitering: f64,
    /// Fraction of the fleet that goes dark (AIS gap) once.
    pub frac_gap: f64,
    /// Fraction of the fleet that drifts once.
    pub frac_drifting: f64,
    /// Number of scripted rendezvous vessel pairs (adds `2 × pairs` vessels).
    pub n_rendezvous_pairs: usize,
}

impl Default for MaritimeConfig {
    fn default() -> Self {
        Self {
            seed: 7,
            n_vessels: 50,
            duration_ms: TimeMs::from_hours(6).millis(),
            report_interval_ms: 10_000,
            noise: NoiseModel::default(),
            frac_loitering: 0.1,
            frac_gap: 0.08,
            frac_drifting: 0.05,
            n_rendezvous_pairs: 2,
        }
    }
}

/// An observed report together with its delivery time (event time plus
/// transport delay). Sorting by `delivery_ms` reproduces the out-of-order
/// arrival the stream engine must handle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservedReport {
    /// The noisy report as received.
    pub report: PositionReport,
    /// Wall-clock arrival time at the processing system.
    pub delivery_ms: i64,
}

/// The output of a maritime scenario run.
#[derive(Debug, Clone)]
pub struct MaritimeData {
    /// Observed (noisy, lossy) reports, sorted by event time.
    pub reports: Vec<ObservedReport>,
    /// Noise-free true trajectories, one per vessel, at the tick resolution.
    pub true_trajectories: Vec<Trajectory>,
    /// Static registry info for every vessel.
    pub vessels: Vec<VesselInfo>,
    /// Planted behaviours.
    pub truth: GroundTruth,
    /// The world the scenario ran in.
    pub world: MaritimeWorld,
}

impl MaritimeData {
    /// Reports sorted by delivery time (out-of-order in event time).
    pub fn reports_delivery_order(&self) -> Vec<ObservedReport> {
        let mut v = self.reports.clone();
        v.sort_by_key(|r| (r.delivery_ms, r.report.time));
        v
    }
}

/// One scripted anomaly, scheduled before simulation starts.
#[derive(Debug, Clone, Copy)]
enum Script {
    None,
    Loiter { start: TimeMs, dur_ms: i64 },
    Gap { start: TimeMs, dur_ms: i64 },
    Drift { start: TimeMs, dur_ms: i64 },
}

/// What a vessel is currently doing.
#[derive(Debug, Clone)]
enum Activity {
    /// Following `path` towards waypoint `next_wp` at `speed_mps`.
    Sail {
        path: Vec<GeoPoint>,
        next_wp: usize,
        speed_mps: f64,
    },
    /// Moored in port until `until`.
    Moor { until: TimeMs },
    /// Loitering around `center` until `until`.
    Loiter { center: GeoPoint, until: TimeMs },
    /// Drifting on `bearing` until `until`.
    Drift { bearing: f64, until: TimeMs },
}

struct VesselState {
    id: ObjectId,
    pos: GeoPoint,
    heading: f64,
    speed: f64,
    nav: NavStatus,
    activity: Activity,
    script: Script,
    /// Set while a Gap script suppresses emission.
    dark: bool,
    /// Base cruise speed for this vessel.
    cruise_mps: f64,
    /// Current port index (for picking the next voyage).
    port: usize,
}

/// Draws a plausible two-word ship name.
pub fn random_ship_name(rng: &mut StdRng) -> String {
    const A: &[&str] = &[
        "AGIOS",
        "NISSOS",
        "BLUE",
        "AEGEAN",
        "POSEIDON",
        "KYMA",
        "ASTERIA",
        "THALASSA",
        "IONIAN",
        "OLYMPIC",
        "MYKONOS",
        "KRITI",
        "DELOS",
        "NAXOS",
        "PELAGOS",
        "ELEFTHERIA",
    ];
    const B: &[&str] = &[
        "STAR", "WAVE", "EXPRESS", "GLORY", "SPIRIT", "TRADER", "CARRIER", "PEARL", "QUEEN",
        "HORIZON", "WIND", "SUN", "DREAM", "LEGEND", "VOYAGER", "FORTUNE",
    ];
    format!(
        "{} {}",
        A[rng.gen_range(0..A.len())],
        B[rng.gen_range(0..B.len())]
    )
}

fn make_vessel_info(idx: usize, rng: &mut StdRng) -> VesselInfo {
    let ship_type = *[30u8, 52, 60, 70, 71, 72, 80, 81]
        .get(rng.gen_range(0..8))
        .unwrap();
    let length_m = match ship_type {
        30 => rng.gen_range(18.0..40.0),
        60 => rng.gen_range(80.0..200.0),
        80 | 81 => rng.gen_range(120.0..330.0),
        _ => rng.gen_range(90.0..300.0),
    };
    let flag = ["GR", "MT", "PA", "LR", "CY"][rng.gen_range(0..5)];
    VesselInfo {
        object: ObjectId(idx as u64),
        mmsi: 237_000_000 + idx as u32,
        name: random_ship_name(rng),
        ship_type,
        length_m: length_m as f32,
        flag: flag.to_string(),
    }
}

/// Picks a lane touching `port` and returns `(path, other_port)`.
fn pick_voyage(world: &MaritimeWorld, port: usize, rng: &mut StdRng) -> (Vec<GeoPoint>, usize) {
    let touching: Vec<(usize, bool)> = world
        .lanes
        .iter()
        .enumerate()
        .filter_map(|(i, l)| {
            if l.from == port {
                Some((i, false))
            } else if l.to == port {
                Some((i, true))
            } else {
                None
            }
        })
        .collect();
    if touching.is_empty() {
        // Isolated port (shouldn't happen with the default world): sail to
        // a random port directly.
        let dest = (port + 1) % world.ports.len();
        return (
            vec![world.ports[port].location, world.ports[dest].location],
            dest,
        );
    }
    let (lane_idx, reversed) = touching[rng.gen_range(0..touching.len())];
    let lane = &world.lanes[lane_idx];
    let dest = if reversed { lane.from } else { lane.to };
    (world.lane_path(lane_idx, reversed), dest)
}

/// Generates a maritime scenario. Deterministic in `config`.
pub fn generate_maritime(config: &MaritimeConfig) -> MaritimeData {
    let world = aegean_world();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let tick = config.report_interval_ms.max(1000);
    let n_ticks = (config.duration_ms / tick).max(1);

    let total_vessels = config.n_vessels + 2 * config.n_rendezvous_pairs;
    let mut vessels: Vec<VesselInfo> = (0..total_vessels)
        .map(|i| make_vessel_info(i, &mut rng))
        .collect();
    // Rendezvous actors look like fishing vessels.
    for p in 0..config.n_rendezvous_pairs {
        for k in 0..2 {
            let idx = config.n_vessels + 2 * p + k;
            vessels[idx].ship_type = 30;
        }
    }

    let mut truth = GroundTruth::default();
    let mut states: Vec<VesselState> = Vec::with_capacity(total_vessels);

    // --- normal fleet, with per-vessel anomaly scripts ---
    let n_loiter = (config.n_vessels as f64 * config.frac_loitering).round() as usize;
    let n_gap = (config.n_vessels as f64 * config.frac_gap).round() as usize;
    let n_drift = (config.n_vessels as f64 * config.frac_drifting).round() as usize;
    for i in 0..config.n_vessels {
        let port = rng.gen_range(0..world.ports.len());
        let cruise = rng.gen_range(4.0..9.5);
        let (path, dest) = pick_voyage(&world, port, &mut rng);
        // Stagger departures so traffic is spread through the scenario.
        let depart = TimeMs(rng.gen_range(0..(config.duration_ms / 4).max(1)));
        let script = {
            // Schedule anomalies in the middle half of the run so they fall
            // while the vessel is under way.
            let start = TimeMs(rng.gen_range(config.duration_ms / 4..config.duration_ms * 3 / 4));
            if i < n_loiter {
                Script::Loiter {
                    start,
                    dur_ms: rng.gen_range(30..90) * 60_000,
                }
            } else if i < n_loiter + n_gap {
                Script::Gap {
                    start,
                    dur_ms: rng.gen_range(20..60) * 60_000,
                }
            } else if i < n_loiter + n_gap + n_drift {
                Script::Drift {
                    start,
                    dur_ms: rng.gen_range(30..80) * 60_000,
                }
            } else {
                Script::None
            }
        };
        states.push(VesselState {
            id: ObjectId(i as u64),
            pos: world.ports[port].location,
            heading: 0.0,
            speed: 0.0,
            nav: NavStatus::Moored,
            activity: Activity::Moor { until: depart },
            script,
            dark: false,
            cruise_mps: cruise,
            port: dest,
        });
        // Arm the voyage: replace activity when depart passes (handled by
        // Moor expiry), so stash the first path by transitioning on expiry.
        // We pre-store the path inside the state via a trick: start sailing
        // immediately if depart is 0.
        if depart == TimeMs(0) {
            states.last_mut().unwrap().activity = Activity::Sail {
                path,
                next_wp: 1,
                speed_mps: cruise,
            };
            states.last_mut().unwrap().nav = NavStatus::UnderWay;
        }
    }

    // --- rendezvous pairs ---
    for p in 0..config.n_rendezvous_pairs {
        let meet = GeoPoint::new(rng.gen_range(24.0..26.5), rng.gen_range(36.0..38.5));
        let t_meet = TimeMs(rng.gen_range(config.duration_ms / 3..config.duration_ms / 2));
        let dwell_ms = rng.gen_range(20..40) * 60_000;
        for k in 0..2 {
            let idx = config.n_vessels + 2 * p + k;
            let speed = rng.gen_range(4.5..7.0);
            // Start far enough away to arrive roughly at t_meet.
            let travel_s = t_meet.millis() as f64 / 1000.0;
            let dist = (speed * travel_s).min(180_000.0);
            let bearing = rng.gen_range(0.0..360.0);
            let start = meet.destination(bearing, dist);
            states.push(VesselState {
                id: ObjectId(idx as u64),
                pos: start,
                heading: 0.0,
                speed,
                nav: NavStatus::UnderWay,
                activity: Activity::Sail {
                    path: vec![start, meet],
                    next_wp: 1,
                    speed_mps: speed,
                },
                script: Script::None,
                dark: false,
                cruise_mps: speed,
                port: 0,
            });
        }
        truth.events.push(LabeledEvent {
            kind: EventKind::Rendezvous,
            objects: vec![
                ObjectId((config.n_vessels + 2 * p) as u64),
                ObjectId((config.n_vessels + 2 * p + 1) as u64),
            ],
            // The true interval is refined below once both arrive; scripted
            // dwell gives a good approximation.
            interval: TimeInterval::new(t_meet, t_meet + dwell_ms),
            location: meet,
        });
        // Store dwell plan: encode via Loiter activity switch at arrival.
        // Arrival is handled in the tick loop: when a rendezvous vessel
        // exhausts its path it loiters at the meeting point until
        // t_meet + dwell, then sails off on a fresh bearing.
        let _ = dwell_ms;
    }
    let rendezvous_dwell_until: Vec<TimeMs> = truth.events.iter().map(|e| e.interval.end).collect();

    let mut trajectories: Vec<Trajectory> = states.iter().map(|s| Trajectory::new(s.id)).collect();
    let mut reports: Vec<ObservedReport> = Vec::new();
    let speed_phase: Vec<f64> = (0..total_vessels)
        .map(|_| rng.gen_range(0.0..std::f64::consts::TAU))
        .collect();

    for step in 0..n_ticks {
        let now = TimeMs(step * tick);
        let dt_s = tick as f64 / 1000.0;
        for (vi, st) in states.iter_mut().enumerate() {
            // --- scripted anomaly transitions ---
            match st.script {
                Script::Loiter { start, dur_ms } if now >= start => {
                    if matches!(st.activity, Activity::Sail { .. }) {
                        truth.events.push(LabeledEvent {
                            kind: EventKind::Loitering,
                            objects: vec![st.id],
                            interval: TimeInterval::new(now, now + dur_ms),
                            location: st.pos,
                        });
                        st.activity = Activity::Loiter {
                            center: st.pos,
                            until: now + dur_ms,
                        };
                        st.script = Script::None;
                    }
                }
                Script::Gap { start, dur_ms } if now >= start && !st.dark => {
                    if matches!(st.activity, Activity::Sail { .. }) {
                        truth.events.push(LabeledEvent {
                            kind: EventKind::DarkActivity,
                            objects: vec![st.id],
                            interval: TimeInterval::new(now, now + dur_ms),
                            location: st.pos,
                        });
                        st.dark = true;
                        st.script = Script::Drift {
                            // Reuse the script slot to remember when the gap
                            // ends; vessel keeps sailing while dark.
                            start: now + dur_ms,
                            dur_ms: 0,
                        };
                    }
                }
                Script::Drift { start, dur_ms } if dur_ms == 0 && now >= start && st.dark => {
                    st.dark = false;
                    st.script = Script::None;
                }
                Script::Drift { start, dur_ms } if dur_ms > 0 && now >= start => {
                    if matches!(st.activity, Activity::Sail { .. }) {
                        truth.events.push(LabeledEvent {
                            kind: EventKind::Drifting,
                            objects: vec![st.id],
                            interval: TimeInterval::new(now, now + dur_ms),
                            location: st.pos,
                        });
                        st.activity = Activity::Drift {
                            bearing: rng.gen_range(0.0..360.0),
                            until: now + dur_ms,
                        };
                        st.script = Script::None;
                    }
                }
                _ => {}
            }

            // --- kinematic update ---
            match &mut st.activity {
                Activity::Sail {
                    path,
                    next_wp,
                    speed_mps,
                } => {
                    let wobble = 1.0 + 0.06 * (now.as_secs_f64() / 600.0 + speed_phase[vi]).sin();
                    let mut remaining = *speed_mps * wobble * dt_s;
                    st.speed = *speed_mps * wobble;
                    st.nav = NavStatus::UnderWay;
                    while remaining > 0.0 && *next_wp < path.len() {
                        let target = path[*next_wp];
                        let d = st.pos.haversine_m(&target);
                        if d <= remaining {
                            st.pos = target;
                            remaining -= d;
                            *next_wp += 1;
                        } else {
                            st.heading = st.pos.bearing_deg(&target);
                            st.pos = st.pos.destination(st.heading, remaining);
                            remaining = 0.0;
                        }
                    }
                    if *next_wp >= path.len() {
                        // Arrived. Rendezvous actors dwell at the meeting
                        // point; fleet vessels moor in port.
                        let is_rdv = vi >= config.n_vessels;
                        if is_rdv {
                            let pair = (vi - config.n_vessels) / 2;
                            let until = rendezvous_dwell_until
                                .get(pair)
                                .copied()
                                .unwrap_or(now + 1_800_000);
                            if until > now {
                                st.activity = Activity::Loiter {
                                    center: st.pos,
                                    until,
                                };
                            } else {
                                // Dwell over: head off on a fresh bearing.
                                let away = st.pos.destination(rng.gen_range(0.0..360.0), 150_000.0);
                                st.activity = Activity::Sail {
                                    path: vec![st.pos, away],
                                    next_wp: 1,
                                    speed_mps: st.cruise_mps,
                                };
                            }
                        } else {
                            let dwell = rng.gen_range(20..90) * 60_000;
                            st.activity = Activity::Moor { until: now + dwell };
                            st.nav = NavStatus::Moored;
                            st.speed = 0.0;
                        }
                    }
                }
                Activity::Moor { until } => {
                    st.speed = 0.0;
                    st.nav = NavStatus::Moored;
                    if now >= *until {
                        let (path, dest) = pick_voyage(&world, st.port, &mut rng);
                        st.port = dest;
                        st.nav = NavStatus::UnderWay;
                        st.activity = Activity::Sail {
                            path,
                            next_wp: 1,
                            speed_mps: st.cruise_mps,
                        };
                    }
                }
                Activity::Loiter { center, until } => {
                    // Slow meander constrained to ~600 m around the centre.
                    let is_rdv = vi >= config.n_vessels;
                    st.speed = rng.gen_range(0.2..1.4);
                    st.nav = if is_rdv {
                        NavStatus::Fishing
                    } else {
                        NavStatus::UnderWay
                    };
                    let pull = st.pos.haversine_m(center) / 600.0;
                    let bearing = if pull > 1.0 {
                        st.pos.bearing_deg(center)
                    } else {
                        rng.gen_range(0.0..360.0)
                    };
                    st.heading = bearing;
                    st.pos = st.pos.destination(bearing, st.speed * dt_s);
                    if now >= *until {
                        let is_rdv = vi >= config.n_vessels;
                        let next = if is_rdv {
                            let away = st.pos.destination(rng.gen_range(0.0..360.0), 150_000.0);
                            Activity::Sail {
                                path: vec![st.pos, away],
                                next_wp: 1,
                                speed_mps: st.cruise_mps,
                            }
                        } else {
                            // Resume towards the destination port.
                            let dest = world.ports[st.port].location;
                            Activity::Sail {
                                path: vec![st.pos, dest],
                                next_wp: 1,
                                speed_mps: st.cruise_mps,
                            }
                        };
                        st.activity = next;
                        st.nav = NavStatus::UnderWay;
                    }
                }
                Activity::Drift { bearing, until } => {
                    st.speed = 0.6 + 0.2 * gaussian(&mut rng).abs();
                    st.heading = *bearing;
                    st.nav = NavStatus::UnderWay;
                    st.pos = st.pos.destination(*bearing, st.speed * dt_s);
                    if now >= *until {
                        let dest = world.ports[st.port].location;
                        st.activity = Activity::Sail {
                            path: vec![st.pos, dest],
                            next_wp: 1,
                            speed_mps: st.cruise_mps,
                        };
                    }
                }
            }

            // --- record truth & emit observation ---
            let true_report = PositionReport::maritime(
                st.id,
                now,
                st.pos,
                st.speed,
                datacron_geo::units::normalize_deg(st.heading),
                SourceId::AIS_TERRESTRIAL,
                st.nav,
            );
            trajectories[vi].push(TrajPoint::from(&true_report));
            if !st.dark {
                if let Some((obs, delivery)) = config.noise.observe(&true_report, &mut rng) {
                    reports.push(ObservedReport {
                        report: obs,
                        delivery_ms: delivery,
                    });
                }
            }
        }
    }

    reports.sort_by_key(|r| (r.report.time, r.report.object));
    MaritimeData {
        reports,
        true_trajectories: trajectories,
        vessels,
        truth,
        world,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> MaritimeConfig {
        MaritimeConfig {
            seed: 11,
            n_vessels: 12,
            duration_ms: TimeMs::from_hours(3).millis(),
            report_interval_ms: 30_000,
            noise: NoiseModel::none(),
            frac_loitering: 0.25,
            frac_gap: 0.17,
            frac_drifting: 0.09,
            n_rendezvous_pairs: 1,
        }
    }

    #[test]
    fn deterministic_generation() {
        let cfg = small_config();
        let a = generate_maritime(&cfg);
        let b = generate_maritime(&cfg);
        assert_eq!(a.reports, b.reports);
        assert_eq!(a.truth.events.len(), b.truth.events.len());
        assert_eq!(a.vessels, b.vessels);
    }

    #[test]
    fn reports_sorted_and_plausible() {
        let data = generate_maritime(&small_config());
        assert!(!data.reports.is_empty());
        for w in data.reports.windows(2) {
            assert!(w[0].report.time <= w[1].report.time);
        }
        for r in &data.reports {
            assert!(r.report.is_plausible(), "implausible report {:?}", r.report);
            assert!(r.delivery_ms >= r.report.time.millis());
        }
    }

    #[test]
    fn scripted_events_present() {
        let data = generate_maritime(&small_config());
        // 25% of 12 = 3 loiterers, 17% = 2 gaps, 9% = 1 drifter, 1 rendezvous.
        assert_eq!(data.truth.events_of(EventKind::Loitering).count(), 3);
        assert_eq!(data.truth.events_of(EventKind::DarkActivity).count(), 2);
        assert_eq!(data.truth.events_of(EventKind::Drifting).count(), 1);
        assert_eq!(data.truth.events_of(EventKind::Rendezvous).count(), 1);
    }

    #[test]
    fn gap_suppresses_reports() {
        let data = generate_maritime(&small_config());
        for gap in data.truth.events_of(EventKind::DarkActivity) {
            let obj = gap.objects[0];
            // Strictly inside the gap (one tick of slack at each edge).
            let inner = TimeInterval::new(gap.interval.start + 30_000, gap.interval.end - 30_000);
            let count = data
                .reports
                .iter()
                .filter(|r| r.report.object == obj && inner.contains(r.report.time))
                .count();
            assert_eq!(count, 0, "reports leaked during AIS gap");
        }
    }

    #[test]
    fn rendezvous_vessels_converge() {
        let data = generate_maritime(&small_config());
        let rdv = data
            .truth
            .events_of(EventKind::Rendezvous)
            .next()
            .unwrap()
            .clone();
        let [a, b] = [rdv.objects[0], rdv.objects[1]];
        let ta = &data.true_trajectories[a.raw() as usize];
        let tb = &data.true_trajectories[b.raw() as usize];
        // Mid-dwell the two vessels are within 1.5 km of each other.
        let mid = TimeMs((rdv.interval.start.millis() + rdv.interval.end.millis()) / 2);
        let pa = ta.position_at(mid);
        let pb = tb.position_at(mid);
        if let (Some(pa), Some(pb)) = (pa, pb) {
            let d = pa.haversine_m(&pb);
            assert!(d < 1_500.0, "rendezvous vessels {d} m apart");
        } else {
            panic!("rendezvous trajectories do not cover the dwell");
        }
    }

    #[test]
    fn loiterers_stay_confined() {
        let data = generate_maritime(&small_config());
        for ev in data.truth.events_of(EventKind::Loitering) {
            let tr = &data.true_trajectories[ev.objects[0].raw() as usize];
            let inside = tr.slice_time(&ev.interval);
            for p in inside.points() {
                let d = p.position().haversine_m(&ev.location);
                assert!(d < 2_500.0, "loiterer strayed {d} m");
            }
        }
    }

    #[test]
    fn trajectories_cover_duration() {
        let cfg = small_config();
        let data = generate_maritime(&cfg);
        let expected = (cfg.duration_ms / cfg.report_interval_ms) as usize;
        for tr in &data.true_trajectories {
            assert_eq!(tr.len(), expected);
        }
    }

    #[test]
    fn vessel_ids_match_indices() {
        let data = generate_maritime(&small_config());
        for (i, v) in data.vessels.iter().enumerate() {
            assert_eq!(v.object, ObjectId(i as u64));
            assert_eq!(v.mmsi, 237_000_000 + i as u32);
        }
    }
}
