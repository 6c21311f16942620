//! Cross-crate integration: simulator → full pipeline → ground-truth
//! scoring, latency budget, and the compression-quality claim (C1/C8/E2).

use datacron_core::{Pipeline, PipelineConfig};
use datacron_geo::{GeoPoint, TimeMs};
use datacron_model::{
    labels::prf1, EventKind, EventRecord, NavStatus, ObjectId, PositionReport, SourceId,
};
use datacron_sim::{generate_maritime, MaritimeConfig, NoiseModel};
use datacron_stream::{
    collect_messages, run_source, spawn_operator, with_watermarks, BoundedOutOfOrderness,
    FlatMapOp, Message,
};
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
        let (tp, _fp, fn_) = data.truth.score_events(kind, &detections, 10 * 60_000);
        let (_, r, _) = prf1(tp, 0, fn_);
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
    let table = m.latency_table();
    let total = table.last().unwrap().1;
    assert!(
        total.p99_us < 10_000,
        "per-report p99 {} µs breaks the ms budget",
        total.p99_us
    );
}

#[test]
fn compression_preserves_analytics_quality() {
    // Claim C1: high compression "without affecting the quality of
    // analytics". Run recognition on the raw cleansed stream and on the
    // compressed stream; recall of planted events must not collapse.
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

    let recall_of = |evts: &[datacron_model::EventRecord], kind: EventKind| {
        let detections: Vec<_> = evts
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| (e.objects.clone(), e.interval))
            .collect();
        let (tp, _fp, fn_) = data.truth.score_events(kind, &detections, 15 * 60_000);
        let (_, r, _) = prf1(tp, 0, fn_);
        r
    };

    let (raw_events, _) = run_pipeline(&reports);
    let (cmp_events, _) = run_pipeline(&compressed);

    for kind in [EventKind::Loitering, EventKind::DarkActivity] {
        let raw_r = recall_of(&raw_events, kind);
        let cmp_r = recall_of(&cmp_events, kind);
        assert!(
            cmp_r >= raw_r - 0.25,
            "{}: recall degraded {:.2} → {:.2} under compression",
            kind.tag(),
            raw_r,
            cmp_r
        );
    }
}

/// The threaded deployment: the whole [`Pipeline`] as one operator stage of
/// the sharded, backpressured `datacron-stream` runtime, the way the
/// datAcron stack runs on a distributed streaming platform. `reports` are
/// in delivery order; `disorder_ms` is the watermark slack. Returns the
/// recognised events in emission order.
fn run_threaded(
    config: PipelineConfig,
    reports: Vec<PositionReport>,
    disorder_ms: i64,
) -> Vec<EventRecord> {
    let source: Vec<_> = with_watermarks(
        reports.into_iter().map(|r| (r.time, r)),
        BoundedOutOfOrderness::new(disorder_ms, 64),
    )
    .collect();
    let mut pipeline = Pipeline::new(config);
    let (rx, h_src) = run_source(source, 1024);
    let stage = FlatMapOp(move |r: PositionReport| pipeline.process(&r));
    let (rx, h_op) = spawn_operator(rx, stage, 1024);
    let events = collect_messages(rx)
        .into_iter()
        .filter_map(|m| match m {
            Message::Record(r) => Some(r.payload),
            _ => None,
        })
        .collect();
    h_src.join();
    h_op.join();
    events
}

#[test]
fn threaded_run_matches_single_process() {
    // A track with a sharp turn: both deployments must see the same events.
    let reports: Vec<PositionReport> = (0..20i64)
        .map(|i| {
            let (lon, lat, heading) = if i < 10 {
                (24.0 + 0.01 * i as f64, 37.0, 90.0)
            } else {
                (24.1, 37.0 + 0.01 * (i - 10) as f64, 0.0)
            };
            PositionReport::maritime(
                ObjectId(1),
                TimeMs(i * 60_000),
                GeoPoint::new(lon, lat),
                6.0,
                heading,
                SourceId::AIS_TERRESTRIAL,
                NavStatus::UnderWay,
            )
        })
        .collect();
    let threaded = run_threaded(PipelineConfig::default(), reports.clone(), 0);
    let direct = Pipeline::new(PipelineConfig::default()).process_batch(&reports);
    let kinds = |evs: &[EventRecord]| {
        let mut v: Vec<&'static str> = evs.iter().map(|e| e.kind.tag()).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(kinds(&threaded), kinds(&direct));
    assert!(run_threaded(PipelineConfig::default(), Vec::new(), 1000).is_empty());
}

#[test]
fn threaded_deployment_handles_out_of_order_delivery() {
    let data = scenario();
    // Delivery order (out of order in event time) with watermark slack.
    let reports: Vec<PositionReport> = data
        .reports_delivery_order()
        .iter()
        .map(|o| o.report)
        .collect();
    let events = run_threaded(PipelineConfig::default(), reports, 5_000);
    assert!(
        !events.is_empty(),
        "threaded pipeline produced nothing on a 6-hour scenario"
    );
}
