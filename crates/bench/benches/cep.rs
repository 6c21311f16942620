//! E8 timing: event recognition throughput — detectors and the NFA engine.

use datacron_bench::{bench, maritime_small, print_median, reports_of};
use datacron_cep::{
    CpaDetector, DriftingDetector, LoiteringDetector, Pattern, PatternElem, RendezvousDetector,
    Runs, ZoneTracker,
};
use datacron_geo::{BoundingBox, GeoPoint, Polygon, TimeMs};
use datacron_model::{NavStatus, ObjectId, PositionReport, SourceId};
use datacron_obs::Stopwatch;
use datacron_sim::{generate_maritime, MaritimeConfig};
use std::hint::black_box;

/// The five per-report detectors of the serving path's `cep.detect` stage.
struct Detectors {
    zones: ZoneTracker,
    loitering: LoiteringDetector,
    drifting: DriftingDetector,
    rendezvous: RendezvousDetector,
    cpa: CpaDetector,
}

impl Detectors {
    fn new(region: BoundingBox) -> Self {
        // The two port boxes `datacron-serve` configures.
        let rect = |lon0: f64, lat0: f64, lon1: f64, lat1: f64| {
            let ring = [(lon0, lat0), (lon1, lat0), (lon1, lat1), (lon0, lat1)];
            Polygon::new(ring.iter().map(|&(x, y)| GeoPoint::new(x, y)).collect())
                .expect("a rectangle is a polygon")
        };
        Detectors {
            zones: ZoneTracker::new(vec![
                ("piraeus".to_string(), rect(23.4, 37.8, 23.8, 38.1)),
                ("heraklion".to_string(), rect(24.9, 35.2, 25.4, 35.5)),
            ]),
            loitering: LoiteringDetector::default(),
            drifting: DriftingDetector::default(),
            rendezvous: RendezvousDetector::new(region),
            cpa: CpaDetector::default(),
        }
    }

    /// Fixes the two pair detectors have read from their cell indexes.
    fn candidates(&self) -> u64 {
        self.rendezvous.candidates_examined() + self.cpa.candidates_examined()
    }

    /// One report through all five; the number of events it raised.
    fn update(&mut self, r: &PositionReport) -> usize {
        self.zones.update(r).len()
            + usize::from(self.loitering.update(r).is_some())
            + usize::from(self.drifting.update(r).is_some())
            + self.rendezvous.update(r).len()
            + self.cpa.update(r).len()
    }
}

/// A fleet whose density does not change with its size: vessels on a
/// 15 km lattice (so every vessel has the same handful of neighbours inside
/// the CPA range however many there are), each shuttling 2 km east and back
/// at 6 m/s — every tenth at 0.8 m/s, inside the slow-movement detectors'
/// speed bands — reporting every 10 s for 40 minutes, in time order.
fn spread_fleet(vessels: usize) -> (BoundingBox, Vec<PositionReport>) {
    let origin = GeoPoint::new(2.0, 28.0);
    let side = (vessels as f64).sqrt().ceil() as usize;
    let homes: Vec<GeoPoint> = (0..vessels)
        .map(|v| {
            origin
                .destination(0.0, 15_000.0 * (v / side) as f64)
                .destination(90.0, 15_000.0 * (v % side) as f64)
        })
        .collect();
    let mut reports = Vec::with_capacity(vessels * 240);
    for step in 0..240i64 {
        for (v, home) in homes.iter().enumerate() {
            let speed = if v % 10 == 0 { 0.8 } else { 6.0 };
            let sailed = speed * 10.0 * step as f64;
            let (legs, along) = ((sailed / 2_000.0) as u64, sailed % 2_000.0);
            let (east, heading) = if legs % 2 == 0 {
                (along, 90.0)
            } else {
                (2_000.0 - along, 270.0)
            };
            reports.push(PositionReport::maritime(
                ObjectId(v as u64),
                TimeMs(step * 10_000 + v as i64 % 10_000),
                home.destination(90.0, east),
                speed,
                heading,
                SourceId::AIS_TERRESTRIAL,
                NavStatus::UnderWay,
            ));
        }
    }
    (BoundingBox::new(0.0, 25.0, 30.0, 45.0), reports)
}

/// The scaling microscope: what one report costs the five detectors as the
/// fleet grows. Half an hour of the fleet warms the windows once, untimed;
/// the ten minutes after it are timed in five consecutive slices, and the
/// row is the median slice's time per report (an iteration is one report;
/// the rate printed is reports per second). Two kinds of fleet: the
/// simulator's (`sim/N`, delivery order, as the server receives it), where
/// every vessel sails between the same six ports so the neighbourhood
/// grows with the fleet, and a lattice (`spread/N`) where it does not. A
/// cost that follows the neighbourhood is flat on the second and grows
/// with the candidates per report (printed beside each fleet, with the
/// events it raised) on the first; one that scans the fleet grows on both.
fn bench_detect_per_report() {
    for vessels in [100usize, 1000, 4000] {
        let data = generate_maritime(&MaritimeConfig {
            seed: 1,
            n_vessels: vessels,
            duration_ms: 40 * 60_000,
            ..MaritimeConfig::default()
        });
        let sim: Vec<PositionReport> = data
            .reports_delivery_order()
            .into_iter()
            .map(|o| o.report)
            .collect();
        let (lattice, spread) = spread_fleet(vessels);
        let fleets = [("sim", data.world.region, sim), ("spread", lattice, spread)];
        for (kind, region, reports) in &fleets {
            let warm_until = TimeMs(30 * 60_000);
            let split = reports
                .iter()
                .position(|r| r.time >= warm_until)
                .unwrap_or(reports.len());
            let (warm, timed) = reports.split_at(split);
            let mut detectors = Detectors::new(*region);
            for r in warm {
                detectors.update(r);
            }
            let before = detectors.candidates();
            let (mut per_report_ns, mut events) = (Vec::new(), 0usize);
            for slice in timed.chunks(timed.len().div_ceil(5).max(1)) {
                let t = Stopwatch::start();
                for r in slice {
                    events += detectors.update(black_box(r));
                }
                per_report_ns.push(t.elapsed().as_nanos() as f64 / slice.len() as f64);
            }
            eprintln!(
                "detect_per_report/{kind}/{vessels}: {:.1} candidates per report, {events} events",
                (detectors.candidates() - before) as f64 / timed.len() as f64
            );
            print_median(
                &format!("detect_per_report/{kind}/{vessels}"),
                1,
                per_report_ns,
            );
        }
    }
}

fn bench_cep() {
    let data = maritime_small();
    let reports = reports_of(&data);
    let elements = reports.len() as u64;

    bench("cep/loitering", elements, || {
        let mut det = LoiteringDetector::default();
        let mut n = 0usize;
        for r in &reports {
            if det.update(black_box(r)).is_some() {
                n += 1;
            }
        }
        n
    });

    bench("cep/rendezvous", elements, || {
        let mut det = RendezvousDetector::new(data.world.region);
        let mut n = 0usize;
        for r in &reports {
            n += det.update(black_box(r)).len();
        }
        n
    });

    bench("cep/cpa", elements, || {
        let mut det = CpaDetector::default();
        let mut n = 0usize;
        for r in &reports {
            n += det.update(black_box(r)).len();
        }
        n
    });

    // NFA pattern-count sweep (A5).
    let events: Vec<u32> = (0..50_000u32).map(|i| i % 10).collect();
    for n_patterns in [1usize, 4, 8] {
        let name = format!("nfa/patterns/{n_patterns}");
        bench(&name, events.len() as u64, || {
            let mut runs: Vec<Runs<u32>> = (0..n_patterns)
                .map(|i| {
                    Runs::new(Pattern::new(
                        format!("p{i}"),
                        vec![
                            PatternElem::single(move |e: &u32| *e == i as u32),
                            PatternElem::single(move |e: &u32| *e == (i + 1) as u32),
                        ],
                        60_000,
                    ))
                })
                .collect();
            let mut matches = 0usize;
            for (i, e) in events.iter().enumerate() {
                for r in &mut runs {
                    matches += r.on_event(TimeMs(i as i64 * 10), black_box(e)).len();
                }
            }
            matches
        });
    }
}

fn main() {
    bench_cep();
    bench_detect_per_report();
}
