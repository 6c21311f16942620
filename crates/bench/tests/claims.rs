//! The paper's quality claims as exact, seeded checks.
//!
//! Each test rebuilds one experiment of EXPERIMENTS.md on its seeded world
//! and pins what it measures: counts with `assert_eq!`, floats as
//! fixed-digit strings. There are no thresholds. A change that moves one of
//! these numbers must say so here and in EXPERIMENTS.md. That covers a
//! compressor that keeps less, a detector that emits more junk and a link
//! rule that scores differently.
//!
//! - C1 (E1, E2): in-situ compression ratio, its reconstruction error, and
//!   what the detectors find on the raw vs the compressed stream.
//! - C2 (E3): the triples the mapper makes of the standard world, per kept
//!   report through the pipeline and per raw report alone.
//! - C3 (E4): link discovery across two registries.
//! - C5 (E6, E7): trajectory forecast error at the longest horizon.
//! - C6 (E9): close-encounter forecasting and pattern completion.

use datacron_bench::{aviation_workload, maritime_workload, reports_of};
use datacron_cep::{
    critical_to_event, CpaDetector, DarkActivityDetector, LoiteringDetector, PatternMarkovChain,
};
use datacron_core::{Pipeline, PipelineConfig};
use datacron_forecast::{
    evaluate_horizons, reconstruct_tracks, ConstantTurnPredictor, DeadReckoningPredictor,
    MarkovGridModel, Predictor, RouteModel, VerticalProfilePredictor,
};
use datacron_geo::{Grid, TimeInterval, TimeMs};
use datacron_link::{
    discover_links, discover_links_exhaustive, evaluate_links, LinkRecord, LinkRule, LinkScores,
};
use datacron_model::{labels::prf1, EventKind, ObjectId, PositionReport, Trajectory};
use datacron_rdf::Graph;
use datacron_sim::{
    generate_maritime, generate_registries, MaritimeConfig, MaritimeData, NoiseModel,
    RegistryConfig,
};
use datacron_synopses::{
    douglas_peucker, sed_error, Cleanser, CriticalPointDetector, DeadReckoningCompressor,
    SynopsisConfig,
};
use datacron_transform::RdfMapper;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// `v` with `digits` decimals: the form every float claim is pinned in.
fn fixed(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// The standard maritime world (E1, E2, E9), generated once per run.
fn maritime() -> &'static MaritimeData {
    static WORLD: OnceLock<MaritimeData> = OnceLock::new();
    WORLD.get_or_init(|| maritime_workload(1))
}

/// The world's reports after the default cleanser.
fn cleansed(data: &MaritimeData) -> Vec<PositionReport> {
    let mut cleanser = Cleanser::default();
    reports_of(data)
        .into_iter()
        .filter(|r| cleanser.check(r))
        .collect()
}

/// The reports a dead-reckoning compressor at `threshold_m` keeps, and
/// its compression ratio.
fn compress(clean: &[PositionReport], threshold_m: f64) -> (Vec<PositionReport>, f64) {
    let mut c = DeadReckoningCompressor::new(threshold_m);
    let kept = clean.iter().filter(|r| c.check(r)).copied().collect();
    (kept, c.ratio())
}

/// Synchronised Euclidean distance of `kept` against `clean`, pooled over
/// all objects: `(mean, max)` in metres.
fn pooled_sed(clean: &[PositionReport], kept: &[PositionReport]) -> (f64, f64) {
    let originals = reconstruct_tracks(clean, i64::MAX / 4);
    let compressed = reconstruct_tracks(kept, i64::MAX / 4);
    let (mut sum, mut max, mut n) = (0.0, 0.0f64, 0usize);
    for orig in &originals {
        if let Some(cmp) = compressed.iter().find(|t| t.object == orig.object) {
            let s = sed_error(orig.points(), cmp.points());
            sum += s.mean_m * s.n as f64;
            max = max.max(s.max_m);
            n += s.n;
        }
    }
    (sum / n.max(1) as f64, max)
}

type Detections = Vec<(Vec<ObjectId>, TimeInterval)>;

/// Runs the loitering and dark-activity detectors over `reports`.
fn detect(reports: &[PositionReport]) -> (Detections, Detections) {
    let mut loiter = LoiteringDetector::default();
    let mut synopsis = CriticalPointDetector::new(SynopsisConfig {
        gap_threshold_ms: 5 * 60_000,
        ..SynopsisConfig::default()
    });
    let mut dark = DarkActivityDetector::new(15 * 60_000);
    let (mut loiters, mut darks, mut pts) = (Vec::new(), Vec::new(), Vec::new());
    for r in reports {
        if let Some(e) = loiter.update(r) {
            loiters.push((e.objects.clone(), e.interval));
        }
        pts.clear();
        synopsis.update(r, &mut pts);
        for low in pts.iter().filter_map(critical_to_event) {
            if let Some(e) = dark.update(&low) {
                darks.push((e.objects.clone(), e.interval));
            }
        }
    }
    (loiters, darks)
}

#[test]
fn c1_e1_compression_ratio_and_reconstruction_error() {
    let data = maritime();
    let clean = cleansed(data);
    assert_eq!((data.reports.len(), clean.len()), (113_579, 113_342));
    // (threshold m, kept, ratio %, SED mean m, SED max m); 100 m is the
    // pipeline's own tolerance.
    for (threshold, kept, ratio, mean, max) in [
        (50.0, 6_741, "94.05", "16.980", "2201.5"),
        (100.0, 4_338, "96.17", "17.745", "2375.2"),
    ] {
        let (synopsis, r) = compress(&clean, threshold);
        let (m, x) = pooled_sed(&clean, &synopsis);
        assert_eq!(
            (
                synopsis.len(),
                fixed(r * 100.0, 2),
                fixed(m, 3),
                fixed(x, 1)
            ),
            (kept, ratio.to_string(), mean.to_string(), max.to_string()),
            "E1 at {threshold} m"
        );
    }
    // A1 ablation: offline Douglas–Peucker at 100 m sees whole tracks and
    // keeps far fewer fixes, but drops the kinematics: its synchronised
    // error is kilometres, not metres.
    let (mut kept, mut sum, mut n) = (0, 0.0, 0);
    for track in reconstruct_tracks(&clean, i64::MAX / 4) {
        let pts = track.points();
        let idx = douglas_peucker(pts, 100.0);
        let simplified: Vec<_> = idx.iter().map(|&i| pts[i]).collect();
        let s = sed_error(pts, &simplified);
        kept += idx.len();
        sum += s.mean_m * s.n as f64;
        n += s.n;
    }
    assert_eq!(
        (kept, fixed(sum / n as f64, 1)),
        (142, "6326.2".to_string())
    );
}

#[test]
fn c1_e2_detections_on_raw_and_compressed_streams() {
    let data = maritime();
    let clean = cleansed(data);
    let score = |kind, det: &Detections| {
        let (tp, fp, fn_) = data.truth.score_events(kind, det, 15 * 60_000);
        let (p, r, _) = prf1(tp, fp, fn_);
        ((tp, fp, fn_), fixed(p, 4), fixed(r, 4))
    };
    // (stream, loitering (tp, fp, fn) and precision, dark activity's).
    for (threshold, loiter, loiter_p, dark, dark_p) in [
        (None, (5, 6, 0), "0.4545", (4, 0, 0), "1.0000"),
        (Some(50.0), (5, 5, 0), "0.5000", (4, 0, 0), "1.0000"),
        (Some(100.0), (5, 4, 0), "0.5556", (4, 0, 0), "1.0000"),
    ] {
        let stream = match threshold {
            None => clean.clone(),
            Some(t) => compress(&clean, t).0,
        };
        let (loiters, darks) = detect(&stream);
        assert_eq!(
            score(EventKind::Loitering, &loiters),
            (loiter, loiter_p.to_string(), "1.0000".to_string()),
            "loitering at {threshold:?} m"
        );
        assert_eq!(
            score(EventKind::DarkActivity, &darks),
            (dark, dark_p.to_string(), "1.0000".to_string()),
            "dark activity at {threshold:?} m"
        );
    }
}

#[test]
fn c2_e3_triples_per_kept_and_per_raw_report() {
    let data = maritime();
    let reports = reports_of(data);
    // The serving path: the default pipeline maps each report the
    // compressor keeps and every event it recognises; the harness's
    // `transform.triples_per_kept_report` is the same ratio on its own
    // stream. An event is 5 triples plus one per object it involves.
    let mut pipeline = Pipeline::new(PipelineConfig::default());
    let out = pipeline.ingest_batch(&reports);
    let event_triples: usize = out.events.iter().map(|e| 5 + e.objects.len()).sum();
    assert_eq!(
        (
            out.clean,
            out.kept,
            out.events.len(),
            event_triples,
            out.triples,
            pipeline.graph().len()
        ),
        (113_342, 4_338, 7_052, 42_719, 69_160, 69_160)
    );
    assert_eq!(fixed(out.triples as f64 / out.kept as f64, 2), "15.94");
    // The mapper alone over every raw report, no compression and no
    // events; with the vessels' registry data, the store E5's templates
    // run on.
    let (mut graph, mut mapper) = (Graph::new(), RdfMapper::new());
    for r in &reports {
        mapper.map_report(&mut graph, r, None);
    }
    let per_report = mapper.triples_emitted();
    assert_eq!(
        (
            per_report,
            fixed(per_report as f64 / reports.len() as f64, 2)
        ),
        (681_528, "6.00".to_string())
    );
    for v in &data.vessels {
        mapper.map_vessel_info(&mut graph, v);
    }
    graph.commit();
    assert_eq!(graph.len(), 681_744);
}

#[test]
fn c3_e4_link_discovery_across_registries() {
    let fleet = generate_maritime(&MaritimeConfig {
        seed: 3,
        n_vessels: 400,
        duration_ms: TimeMs::from_hours(2).millis(),
        report_interval_ms: 60_000,
        noise: NoiseModel::none(),
        frac_loitering: 0.0,
        frac_gap: 0.0,
        frac_drifting: 0.0,
        n_rendezvous_pairs: 0,
    });
    let reg = generate_registries(
        &fleet,
        &RegistryConfig {
            n_distractors: 80,
            ..RegistryConfig::default()
        },
    );
    let a: Vec<LinkRecord> = reg.source_a.iter().map(LinkRecord::from).collect();
    let b: Vec<LinkRecord> = reg.source_b.iter().map(LinkRecord::from).collect();
    assert_eq!((a.len(), b.len(), reg.truth.links.len()), (400, 364, 284));

    let summary = |s: LinkScores| {
        (
            (s.tp, s.fp, s.fn_count),
            [fixed(s.precision, 4), fixed(s.recall, 4), fixed(s.f1, 4)],
        )
    };
    let expected = (
        (255, 0, 29),
        ["1.0000", "0.8979", "0.9462"].map(String::from),
    );
    let exhaustive = discover_links_exhaustive(&a, &b, &LinkRule::default());
    assert_eq!(summary(evaluate_links(&exhaustive, &reg.truth)), expected);
    // Every blocking tile scores fewer pairs and finds the same links.
    for (tile, pairs) in [(0.2, 12_597), (0.05, 2_191), (0.02, 938)] {
        let rule = LinkRule {
            tile_deg: tile,
            ..LinkRule::default()
        };
        let (links, stats) = discover_links(&a, &b, &rule);
        assert_eq!(
            (stats.cross_product, stats.candidates),
            (145_600, pairs),
            "pairs scored at {tile}°"
        );
        assert_eq!(
            summary(evaluate_links(&links, &reg.truth)),
            expected,
            "{tile}°"
        );
    }
}

/// Noise-free tracks of a 40-vessel, 8-hour fleet: E6's history (seed 100)
/// and test set (seed 200).
fn true_tracks(seed: u64) -> Vec<Trajectory> {
    generate_maritime(&MaritimeConfig {
        seed,
        n_vessels: 40,
        duration_ms: TimeMs::from_hours(8).millis(),
        report_interval_ms: 60_000,
        noise: NoiseModel::none(),
        frac_loitering: 0.0,
        frac_gap: 0.0,
        frac_drifting: 0.0,
        n_rendezvous_pairs: 0,
    })
    .true_trajectories
}

#[test]
fn c5_e6_maritime_forecast_error_at_60_min() {
    let history = true_tracks(100);
    let test = true_tracks(200);
    let region = datacron_sim::aegean_world().region;
    let mut markov = MarkovGridModel::new(Grid::new(region, 0.05).unwrap(), 60_000);
    markov.train_all(&history);
    let mut route = RouteModel::new(Grid::new(region, 0.02).unwrap());
    route.train_all(&history);

    // (model, cases, predicted, median m, p90 m). The route model's p90
    // against the memoryless baselines' is the A4 ablation's shape.
    let models: [(&dyn Predictor, _, _, _, _); 4] = [
        (&DeadReckoningPredictor, 560, 560, "1096.6", "12113.7"),
        (&ConstantTurnPredictor, 560, 560, "1106.7", "13266.7"),
        (&markov, 560, 362, "8055.8", "24229.0"),
        (&route, 560, 251, "1175.4", "2135.6"),
    ];
    for (model, cases, predicted, median, p90) in models {
        let r = &evaluate_horizons(model, &test, &[60], 30 * 60_000, 20 * 60_000)[0];
        assert_eq!(
            (
                r.stats.cases,
                r.stats.predicted,
                fixed(r.stats.median_m, 1),
                fixed(r.stats.p90_m, 1)
            ),
            (cases, predicted, median.to_string(), p90.to_string()),
            "{} at 60 min",
            r.model
        );
    }
}

#[test]
fn c5_e7_aviation_forecast_error_at_15_min() {
    let data = aviation_workload();
    let test: Vec<Trajectory> = data
        .true_trajectories
        .into_iter()
        .filter(|t| t.len() > 50)
        .collect();
    let horizon_ms = 15 * 60_000;
    let r = &evaluate_horizons(
        &DeadReckoningPredictor,
        &test,
        &[15],
        10 * 60_000,
        5 * 60_000,
    )[0];

    // Vertical error of the profile predictor on the same anchors.
    let vp = VerticalProfilePredictor::default();
    let mut v_errors: Vec<f64> = Vec::new();
    for traj in &test {
        let pts = traj.points();
        let t_end = pts[pts.len() - 1].time;
        let mut anchor = pts[0].time + 5 * 60_000;
        while anchor + horizon_ms <= t_end {
            let prefix_end = pts.partition_point(|p| p.time <= anchor);
            let target = anchor + horizon_ms;
            let truth_idx = pts.partition_point(|p| p.time <= target);
            if prefix_end >= 2 && truth_idx > 0 && truth_idx < pts.len() {
                if let Some(alt) = vp.predict_alt(&pts[..prefix_end], target) {
                    v_errors.push((alt - pts[truth_idx].alt_m).abs());
                }
            }
            anchor = anchor + 10 * 60_000;
        }
    }
    v_errors.sort_by(f64::total_cmp);

    assert_eq!(
        (
            r.stats.cases,
            r.stats.predicted,
            fixed(r.stats.median_m, 1),
            fixed(r.stats.p90_m, 1)
        ),
        (455, 455, "32.6".to_string(), "31815.6".to_string())
    );
    assert_eq!(
        (v_errors.len(), fixed(v_errors[v_errors.len() / 2], 1)),
        (455, "0.0".to_string())
    );
}

#[test]
fn c6_e9_close_encounter_forecasts() {
    // An alert is a predicted approach closer than ENCOUNTER_M within 30
    // min. It is confirmed when the true tracks come that close before
    // the predicted CPA time plus half the alert's span again.
    const ENCOUNTER_M: f64 = 800.0;
    let data = maritime();
    let reports = reports_of(data);
    let mut forecaster = CpaDetector::default().with_thresholds(ENCOUNTER_M, 30 * 60_000);
    let alerts: Vec<_> = reports.iter().flat_map(|r| forecaster.update(r)).collect();

    let track = |o: ObjectId| &data.true_trajectories[o.raw() as usize];
    let mut confirmed = 0usize;
    let mut lead_min: Vec<f64> = Vec::new();
    for a in &alerts {
        let (t1, t2) = (track(a.objects[0]), track(a.objects[1]));
        let start = a.interval.start;
        let deadline = a.interval.end + a.interval.duration_ms() / 2;
        let met = (0..)
            .map(|k| start + k * 60_000)
            .take_while(|t| *t <= deadline)
            .find(|t| match (t1.position_at(*t), t2.position_at(*t)) {
                (Some(p1), Some(p2)) => p1.haversine_m(&p2) <= ENCOUNTER_M,
                _ => false,
            });
        if let Some(tc) = met {
            confirmed += 1;
            // An alert raised during the encounter has no lead.
            if tc > start {
                lead_min.push((tc - start) as f64 / 60_000.0);
            }
        }
    }
    lead_min.sort_by(f64::total_cmp);

    // Planted rendezvous whose pair was alerted on before it began.
    let rendezvous: Vec<_> = data.truth.events_of(EventKind::Rendezvous).collect();
    let forecast = rendezvous
        .iter()
        .filter(|rv| {
            alerts.iter().any(|a| {
                let same_pair = (a.objects[0] == rv.objects[0] && a.objects[1] == rv.objects[1])
                    || (a.objects[0] == rv.objects[1] && a.objects[1] == rv.objects[0]);
                same_pair && a.interval.start <= rv.interval.start
            })
        })
        .count();

    assert_eq!((alerts.len(), confirmed), (246, 226));
    assert_eq!(
        (
            fixed(confirmed as f64 / alerts.len() as f64, 4),
            lead_min.len(),
            fixed(lead_min[lead_min.len() / 2], 2)
        ),
        ("0.9187".to_string(), 27, "21.00".to_string())
    );
    assert_eq!((forecast, rendezvous.len()), (2, 2));
}

#[test]
fn c6_e9_pattern_completion_probabilities() {
    let mut synopsis = CriticalPointDetector::new(SynopsisConfig::default());
    let mut per_object: BTreeMap<ObjectId, Vec<EventKind>> = BTreeMap::new();
    let mut pts = Vec::new();
    for r in &reports_of(maritime()) {
        pts.clear();
        synopsis.update(r, &mut pts);
        for ev in pts.iter().filter_map(critical_to_event) {
            per_object.entry(ev.objects[0]).or_default().push(ev.kind);
        }
    }
    let mut pmc = PatternMarkovChain::new();
    for seq in per_object.values() {
        pmc.train(seq);
    }
    let at_16 = |current, remaining: &[EventKind]| {
        fixed(pmc.completion_probability(current, remaining, 16), 4)
    };
    assert_eq!(per_object.len(), 54);
    assert_eq!(
        [
            at_16(EventKind::StopStart, &[EventKind::StopEnd]),
            at_16(EventKind::GapStart, &[EventKind::GapEnd]),
            at_16(
                EventKind::SpeedChange,
                &[EventKind::StopStart, EventKind::StopEnd]
            ),
        ],
        ["1.0000", "1.0000", "0.2368"].map(String::from)
    );
}
