//! Cross-crate integration: simulator → full pipeline → ground-truth
//! scoring, latency budget, and the compression-quality claim (C1/C8/E2).

use datacron_core::{Pipeline, PipelineConfig};
use datacron_geo::TimeMs;
use datacron_model::{labels::prf1, EventKind, PositionReport};
use datacron_sim::{generate_maritime, MaritimeConfig, NoiseModel};
use datacron_synopses::DeadReckoningCompressor;

fn scenario() -> datacron_sim::MaritimeData {
    generate_maritime(&MaritimeConfig {
        seed: 1234,
        n_vessels: 40,
        duration_ms: TimeMs::from_hours(6).millis(),
        report_interval_ms: 30_000,
        noise: NoiseModel {
            max_delay_ms: 0,
            outlier_prob: 0.002,
            ..NoiseModel::default()
        },
        frac_loitering: 0.15,
        frac_gap: 0.1,
        frac_drifting: 0.0,
        n_rendezvous_pairs: 2,
    })
}

fn run_pipeline(reports: &[PositionReport]) -> (Vec<datacron_model::EventRecord>, Pipeline) {
    let mut config = PipelineConfig::default();
    // Exclude ports so mooring together is not a rendezvous.
    for port in &datacron_sim::aegean_world().ports {
        config
            .exclusions
            .push((port.location.lon, port.location.lat, 4_000.0));
    }
    let mut p = Pipeline::new(config);
    let mut events = Vec::new();
    for r in reports {
        events.extend(p.process(r));
    }
    (events, p)
}

#[test]
fn end_to_end_recognition_meets_quality_bar() {
    let data = scenario();
    let reports: Vec<PositionReport> = data.reports.iter().map(|o| o.report).collect();
    let (events, pipeline) = run_pipeline(&reports);

    // The planted behaviours are found.
    for (kind, min_recall) in [
        (EventKind::Loitering, 0.6),
        (EventKind::Rendezvous, 0.5),
        (EventKind::DarkActivity, 0.6),
    ] {
        let detections: Vec<_> = events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| (e.objects.clone(), e.interval))
            .collect();
        let (tp, fp, fn_) = data.truth.score_events(kind, &detections, 10 * 60_000);
        let (_, r, _) = prf1(tp, fp, fn_);
        assert!(
            r >= min_recall,
            "{} recall {r:.2} below {min_recall}",
            kind.tag()
        );
    }

    // The in-situ stage achieved meaningful compression.
    let m = pipeline.metrics();
    assert!(
        m.compression_ratio() > 0.4,
        "compression ratio {:.2}",
        m.compression_ratio()
    );

    // The paper's latency requirement: per-report processing in
    // milliseconds. p99 must be under 10 ms even in debug builds.
    let table = m.stage_histograms();
    let (_, p99_us, _) = table.last().unwrap().1.summary_us();
    assert!(
        p99_us < 10_000,
        "per-report p99 {} µs breaks the ms budget",
        p99_us
    );
}

#[test]
fn compression_preserves_analytics_quality() {
    // Claim C1: high compression "without affecting the quality of
    // analytics". Run recognition on the raw cleansed stream and on the
    // compressed stream; neither recall of planted events nor precision
    // (a compressed stream that wins recall by emitting junk) may collapse.
    let data = scenario();
    let reports: Vec<PositionReport> = data.reports.iter().map(|o| o.report).collect();

    let mut compressor = DeadReckoningCompressor::new(100.0);
    let compressed: Vec<PositionReport> = reports
        .iter()
        .filter(|r| compressor.check(r))
        .copied()
        .collect();
    assert!(
        compressed.len() * 2 < reports.len(),
        "compression below 50% defeats the experiment"
    );

    let precision_recall = |evts: &[datacron_model::EventRecord], kind: EventKind| {
        let detections: Vec<_> = evts
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| (e.objects.clone(), e.interval))
            .collect();
        let (tp, fp, fn_) = data.truth.score_events(kind, &detections, 15 * 60_000);
        let (p, r, _) = prf1(tp, fp, fn_);
        (p, r)
    };

    let (raw_events, _) = run_pipeline(&reports);
    let (cmp_events, _) = run_pipeline(&compressed);

    for kind in [EventKind::Loitering, EventKind::DarkActivity] {
        let (raw_p, raw_r) = precision_recall(&raw_events, kind);
        let (cmp_p, cmp_r) = precision_recall(&cmp_events, kind);
        assert!(
            cmp_r >= raw_r - 0.25,
            "{}: recall degraded {:.2} → {:.2} under compression",
            kind.tag(),
            raw_r,
            cmp_r
        );
        assert!(
            cmp_p >= raw_p - 0.25,
            "{}: precision degraded {:.2} → {:.2} under compression",
            kind.tag(),
            raw_p,
            cmp_p
        );
    }
}

#[test]
fn threaded_deployment_handles_out_of_order_delivery() {
    let data = scenario();
    // Delivery order (out of order in event time), straight into the
    // pipeline as the server's ingest path feeds it.
    let mut pipeline = Pipeline::new(PipelineConfig::default());
    let events: Vec<_> = data
        .reports_delivery_order()
        .iter()
        .flat_map(|o| pipeline.process(&o.report))
        .collect();
    assert!(
        !events.is_empty(),
        "pipeline produced nothing on a 6-hour scenario delivered out of order"
    );
}
