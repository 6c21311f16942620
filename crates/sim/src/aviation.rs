//! The aviation traffic generator (3D).
//!
//! Flights depart through the scenario window, fly great-circle routes with
//! climb / cruise / descent profiles, and a configurable share performs a
//! holding pattern before descent (planted as ground truth).

use crate::noise::NoiseModel;
use crate::world::{european_airspace, AviationWorld};
use datacron_geo::{GeoPoint, GeoPoint3, TimeInterval, TimeMs};
use datacron_model::{
    EventKind, FlightInfo, GroundTruth, LabeledEvent, ObjectId, PositionReport, SourceId,
    TrajPoint, Trajectory,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::maritime::ObservedReport;

/// Configuration of an aviation scenario.
#[derive(Debug, Clone)]
pub struct AviationConfig {
    /// RNG seed.
    pub seed: u64,
    /// Number of flights departing during the window.
    pub n_flights: usize,
    /// Scenario duration in milliseconds.
    pub duration_ms: i64,
    /// Surveillance reporting interval in milliseconds (ADS-B ≈ 1–10 s).
    pub report_interval_ms: i64,
    /// Observation noise model.
    pub noise: NoiseModel,
    /// Fraction of flights that fly a holding pattern before descent.
    pub frac_holding: f64,
}

impl Default for AviationConfig {
    fn default() -> Self {
        Self {
            seed: 13,
            n_flights: 40,
            duration_ms: TimeMs::from_hours(4).millis(),
            report_interval_ms: 5_000,
            noise: NoiseModel {
                pos_sigma_m: 25.0,
                speed_sigma_mps: 1.0,
                heading_sigma_deg: 1.0,
                dropout_prob: 0.01,
                outlier_prob: 0.0005,
                outlier_offset_m: 10_000.0,
                max_delay_ms: 1_500,
            },
            frac_holding: 0.15,
        }
    }
}

/// The output of an aviation scenario run.
#[derive(Debug, Clone)]
pub struct AviationData {
    /// Observed reports, sorted by event time.
    pub reports: Vec<ObservedReport>,
    /// Noise-free true 3D trajectories (altitude in [`TrajPoint::alt_m`]).
    pub true_trajectories: Vec<Trajectory>,
    /// Flight metadata.
    pub flights: Vec<FlightInfo>,
    /// Planted behaviours (holding patterns).
    pub truth: GroundTruth,
    /// The airspace the scenario ran in.
    pub world: AviationWorld,
}

/// Flight phases of the vertical profile.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Climb,
    Cruise,
    Hold,
    Descent,
    Done,
}

struct FlightState {
    id: ObjectId,
    dest: GeoPoint,
    dest_elev: f64,
    depart: TimeMs,
    cruise_alt_m: f64,
    cruise_mps: f64,
    climb_mps: f64,
    /// Holding script: `(radius_m, duration_ms)` when scripted.
    holding: Option<(f64, i64)>,
    // --- dynamic ---
    phase: Phase,
    pos: GeoPoint3,
    heading: f64,
    hold_center: Option<GeoPoint>,
    hold_until: TimeMs,
    hold_angle: f64,
    hold_logged: bool,
}

/// Distance from destination at which descent begins, for the given cruise
/// altitude and a standard 3-degree descent path.
fn descent_distance_m(cruise_alt_m: f64, dest_elev: f64) -> f64 {
    (cruise_alt_m - dest_elev).max(0.0) / (3.0f64.to_radians().tan())
}

/// Generates an aviation scenario. Deterministic in `config`.
pub fn generate_aviation(config: &AviationConfig) -> AviationData {
    let world = european_airspace();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let tick = config.report_interval_ms.max(1000);
    let n_ticks = (config.duration_ms / tick).max(1);
    let n_holding = (config.n_flights as f64 * config.frac_holding).round() as usize;

    let mut flights = Vec::with_capacity(config.n_flights);
    let mut states: Vec<FlightState> = Vec::with_capacity(config.n_flights);
    for i in 0..config.n_flights {
        let o = rng.gen_range(0..world.airports.len());
        let mut d = rng.gen_range(0..world.airports.len());
        while d == o {
            d = rng.gen_range(0..world.airports.len());
        }
        let (orig, dest) = (&world.airports[o], &world.airports[d]);
        let callsign = format!(
            "{}{}",
            ["AEE", "DLH", "AFR", "BAW", "THY", "ITY"][rng.gen_range(0..6)],
            rng.gen_range(100..9999)
        );
        flights.push(FlightInfo {
            object: ObjectId(i as u64),
            icao24: 0x440000 + i as u32,
            callsign,
            origin: orig.icao.clone(),
            destination: dest.icao.clone(),
        });
        let depart = TimeMs(rng.gen_range(0..(config.duration_ms / 2).max(1)));
        let holding = (i < n_holding).then(|| {
            (
                rng.gen_range(6_000.0..12_000.0),
                rng.gen_range(8..20) * 60_000,
            )
        });
        states.push(FlightState {
            id: ObjectId(i as u64),
            dest: dest.location,
            dest_elev: dest.elevation_m,
            depart,
            cruise_alt_m: rng.gen_range(9_500.0..11_800.0),
            cruise_mps: rng.gen_range(210.0..255.0),
            climb_mps: rng.gen_range(8.0..14.0),
            holding,
            phase: Phase::Climb,
            pos: GeoPoint3::new(orig.location.lon, orig.location.lat, orig.elevation_m),
            heading: orig.location.bearing_deg(&dest.location),
            hold_center: None,
            hold_until: TimeMs(0),
            hold_angle: 0.0,
            hold_logged: false,
        });
    }

    let mut truth = GroundTruth::default();
    let mut trajectories: Vec<Trajectory> = states.iter().map(|s| Trajectory::new(s.id)).collect();
    let mut reports: Vec<ObservedReport> = Vec::new();

    for step in 0..n_ticks {
        let now = TimeMs(step * tick);
        let dt_s = tick as f64 / 1000.0;
        for st in states.iter_mut() {
            if now < st.depart || st.phase == Phase::Done {
                continue;
            }
            let dist_to_dest = st.pos.horiz.haversine_m(&st.dest);
            let descent_at = descent_distance_m(st.cruise_alt_m, st.dest_elev);

            // Phase transitions.
            match st.phase {
                Phase::Climb if st.pos.alt_m >= st.cruise_alt_m => st.phase = Phase::Cruise,
                Phase::Cruise | Phase::Climb
                    if dist_to_dest <= descent_at + st.cruise_mps * dt_s =>
                {
                    // Reached top of descent: hold first when scripted.
                    if let Some((radius, dur)) = st.holding.take() {
                        st.phase = Phase::Hold;
                        st.hold_center = Some(st.pos.horiz.destination(st.heading, radius));
                        st.hold_until = now + dur;
                        st.hold_angle = 0.0;
                        let _ = radius;
                    } else {
                        st.phase = Phase::Descent;
                    }
                }
                Phase::Hold if now >= st.hold_until => st.phase = Phase::Descent,
                Phase::Descent if st.pos.alt_m <= st.dest_elev + 5.0 && dist_to_dest < 3_000.0 => {
                    st.phase = Phase::Done
                }
                _ => {}
            }

            // Kinematics.
            let mut vspeed = 0.0;
            let mut gspeed = st.cruise_mps;
            match st.phase {
                Phase::Climb => {
                    vspeed = st.climb_mps;
                    gspeed = st.cruise_mps * 0.8;
                    st.heading = st.pos.horiz.bearing_deg(&st.dest);
                    st.pos.horiz = st.pos.horiz.destination(st.heading, gspeed * dt_s);
                    st.pos.alt_m = (st.pos.alt_m + vspeed * dt_s).min(st.cruise_alt_m);
                }
                Phase::Cruise => {
                    st.heading = st.pos.horiz.bearing_deg(&st.dest);
                    st.pos.horiz = st.pos.horiz.destination(st.heading, gspeed * dt_s);
                }
                Phase::Hold => {
                    if !st.hold_logged {
                        truth.events.push(LabeledEvent {
                            kind: EventKind::HoldingPattern,
                            objects: vec![st.id],
                            interval: TimeInterval::new(now, st.hold_until),
                            location: st.hold_center.unwrap_or(st.pos.horiz),
                        });
                        st.hold_logged = true;
                    }
                    // Fly a circle of ~7 km radius around the hold centre.
                    let center = st.hold_center.unwrap_or(st.pos.horiz);
                    let radius = 7_000.0;
                    gspeed = st.cruise_mps * 0.65;
                    let omega = gspeed / radius; // rad/s
                    st.hold_angle += omega * dt_s;
                    let bearing = st.hold_angle.to_degrees() % 360.0;
                    st.pos.horiz = center.destination(bearing, radius);
                    st.heading = datacron_geo::units::normalize_deg(bearing + 90.0);
                }
                Phase::Descent => {
                    vspeed = -(st.cruise_mps * 3.0f64.to_radians().tan());
                    gspeed = st.cruise_mps * 0.85;
                    st.heading = st.pos.horiz.bearing_deg(&st.dest);
                    let step_m = (gspeed * dt_s).min(dist_to_dest.max(1.0));
                    st.pos.horiz = st.pos.horiz.destination(st.heading, step_m);
                    st.pos.alt_m = (st.pos.alt_m + vspeed * dt_s).max(st.dest_elev);
                }
                Phase::Done => {}
            }
            if st.phase == Phase::Done {
                continue;
            }

            let true_report = PositionReport::aviation(
                st.id,
                now,
                st.pos,
                gspeed,
                st.heading,
                vspeed,
                SourceId::ADSB,
            );
            trajectories[st.id.raw() as usize].push(TrajPoint::from(&true_report));
            if let Some((obs, delivery)) = config.noise.observe(&true_report, &mut rng) {
                reports.push(ObservedReport {
                    report: obs,
                    delivery_ms: delivery,
                });
            }
        }
    }

    reports.sort_by_key(|r| (r.report.time, r.report.object));
    AviationData {
        reports,
        true_trajectories: trajectories,
        flights,
        truth,
        world,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> AviationConfig {
        AviationConfig {
            seed: 21,
            n_flights: 10,
            duration_ms: TimeMs::from_hours(3).millis(),
            report_interval_ms: 10_000,
            noise: NoiseModel::none(),
            frac_holding: 0.3,
        }
    }

    #[test]
    fn deterministic_generation() {
        let cfg = small_config();
        let a = generate_aviation(&cfg);
        let b = generate_aviation(&cfg);
        assert_eq!(a.reports, b.reports);
        assert_eq!(a.flights, b.flights);
    }

    #[test]
    fn flights_climb_then_descend() {
        let data = generate_aviation(&small_config());
        let mut any_full_profile = false;
        for tr in &data.true_trajectories {
            if tr.is_empty() {
                continue;
            }
            let max_alt = tr.points().iter().map(|p| p.alt_m).fold(f64::MIN, f64::max);
            let first_alt = tr.first().unwrap().alt_m;
            let last_alt = tr.last().unwrap().alt_m;
            assert!(max_alt <= 12_000.0, "altitude ceiling violated: {max_alt}");
            if max_alt > 9_000.0 && last_alt < 1_000.0 {
                any_full_profile = true;
                assert!(first_alt < 1_000.0, "takeoff from altitude");
            }
        }
        assert!(any_full_profile, "no flight completed a full profile");
    }

    #[test]
    fn holding_patterns_planted_and_flown() {
        let data = generate_aviation(&small_config());
        let holds: Vec<_> = data.truth.events_of(EventKind::HoldingPattern).collect();
        assert!(!holds.is_empty(), "no holding events planted");
        for h in &holds {
            let tr = &data.true_trajectories[h.objects[0].raw() as usize];
            let during = tr.slice_time(&h.interval);
            if during.len() < 3 {
                continue;
            }
            // During the hold the aircraft stays near the hold centre.
            for p in during.points() {
                let d = p.position().haversine_m(&h.location);
                assert!(d < 12_000.0, "holding aircraft strayed {d} m");
            }
        }
    }

    #[test]
    fn reports_are_3d_and_plausible() {
        let data = generate_aviation(&small_config());
        assert!(!data.reports.is_empty());
        let mut airborne = 0;
        for r in &data.reports {
            assert!(r.report.is_plausible(), "{:?}", r.report);
            if r.report.alt_m > 1000.0 {
                airborne += 1;
            }
        }
        assert!(airborne > data.reports.len() / 3, "mostly ground reports");
    }

    #[test]
    fn descent_distance_math() {
        // From 10 km altitude a 3-degree slope needs ~190 km.
        let d = descent_distance_m(10_000.0, 0.0);
        assert!((d - 190_811.0).abs() < 1_000.0, "d = {d}");
        assert_eq!(descent_distance_m(0.0, 100.0), 0.0);
    }

    #[test]
    fn flight_ids_sequential() {
        let data = generate_aviation(&small_config());
        for (i, f) in data.flights.iter().enumerate() {
            assert_eq!(f.object, ObjectId(i as u64));
            assert_ne!(f.origin, f.destination);
        }
    }
}
