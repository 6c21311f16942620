//! The experiment report generator.
//!
//! Regenerates every experiment table in EXPERIMENTS.md from scratch:
//!
//! ```sh
//! cargo run --release -p datacron-bench --bin report            # all
//! cargo run --release -p datacron-bench --bin report -- e1 e5  # a subset
//! ```
//!
//! Timing microbenchmarks live in `benches/` (`cargo bench`); this binary
//! reports the *quality* metrics plus coarse wall-clock rates.

use datacron_bench::{aviation_workload, maritime_workload, reports_of, table};
use datacron_cep::{
    CpaDetector, DarkActivityDetector, LoiteringDetector, PatternMarkovChain, RendezvousDetector,
};
use datacron_core::{Pipeline, PipelineConfig};
use datacron_forecast::{
    evaluate_horizons, reconstruct_tracks, ConstantTurnPredictor, DeadReckoningPredictor,
    HorizonReport, MarkovGridModel, Predictor, RouteModel, VerticalProfilePredictor,
};
use datacron_geo::{Grid, TimeMs};
use datacron_link::{
    discover_links, discover_links_exhaustive, evaluate_links, LinkRecord, LinkRule,
};
use datacron_model::{labels::prf1, EventKind, PositionReport};
use datacron_rdf::{
    execute, parse_query, Graph, HashPartitioner, PartitionedStore, SpatialGridPartitioner,
    TemporalPartitioner,
};
use datacron_server::Json;
use datacron_sim::{
    generate_maritime, generate_registries, MaritimeConfig, NoiseModel, RegistryConfig,
};
use datacron_synopses::{
    sed_error, Cleanser, CriticalPointDetector, DeadReckoningCompressor, SynopsisConfig,
};
use datacron_transform::{parse_ais_csv, report_to_ais_csv, RdfMapper};
use datacron_viz::{DensityGrid, FlowMatrix};
use std::time::Instant;

fn fmt(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

fn header(id: &str, title: &str) {
    println!("\n### {id} — {title}\n");
}

/// E1 — in-situ compression: ratio / error / throughput vs threshold.
fn e1() {
    header("E1", "in-situ trajectory compression (claim C1)");
    let data = maritime_workload(1);
    let raw = reports_of(&data);
    let mut cleanser = Cleanser::default();
    let clean: Vec<PositionReport> = raw.iter().filter(|r| cleanser.check(r)).copied().collect();
    println!(
        "workload: {} raw reports → {} cleansed ({} dropped)\n",
        raw.len(),
        clean.len(),
        cleanser.stats().dropped()
    );

    let mut rows = Vec::new();
    for threshold in [10.0, 50.0, 100.0, 250.0, 500.0] {
        let mut c = DeadReckoningCompressor::new(threshold);
        let t = Instant::now();
        let kept: Vec<PositionReport> = clean.iter().filter(|r| c.check(r)).copied().collect();
        let secs = t.elapsed().as_secs_f64();
        // SED per object, pooled.
        let originals = reconstruct_tracks(&clean, i64::MAX / 4);
        let compressed = reconstruct_tracks(&kept, i64::MAX / 4);
        let mut mean_acc = 0.0;
        let mut max_acc = 0.0f64;
        let mut n = 0usize;
        for orig in &originals {
            if let Some(cmp) = compressed.iter().find(|t| t.object == orig.object) {
                let s = sed_error(orig.points(), cmp.points());
                mean_acc += s.mean_m * s.n as f64;
                max_acc = max_acc.max(s.max_m);
                n += s.n;
            }
        }
        rows.push(vec![
            fmt(threshold, 0),
            format!("{}", kept.len()),
            fmt(c.ratio() * 100.0, 1),
            fmt(mean_acc / n.max(1) as f64, 1),
            fmt(max_acc, 0),
            fmt(clean.len() as f64 / secs / 1000.0, 0),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "threshold (m)",
                "kept",
                "ratio (%)",
                "SED mean (m)",
                "SED max (m)",
                "krep/s"
            ],
            &rows
        )
    );

    // A1 ablation: the offline Douglas–Peucker baseline at a matched
    // epsilon sweep. DP sees whole trajectories (not a stream), so it is
    // the quality upper bound for a given retention budget.
    let originals = reconstruct_tracks(&clean, i64::MAX / 4);
    let mut rows = Vec::new();
    for eps in [50.0, 100.0, 250.0] {
        let t = Instant::now();
        let mut kept_total = 0usize;
        let mut mean_acc = 0.0;
        let mut max_acc = 0.0f64;
        let mut n = 0usize;
        for orig in &originals {
            let kept_idx = datacron_synopses::douglas_peucker(orig.points(), eps);
            kept_total += kept_idx.len();
            let kept_pts: Vec<datacron_model::TrajPoint> =
                kept_idx.iter().map(|&i| orig.points()[i]).collect();
            let s = sed_error(orig.points(), &kept_pts);
            mean_acc += s.mean_m * s.n as f64;
            max_acc = max_acc.max(s.max_m);
            n += s.n;
        }
        let secs = t.elapsed().as_secs_f64();
        rows.push(vec![
            fmt(eps, 0),
            format!("{kept_total}"),
            fmt((1.0 - kept_total as f64 / clean.len() as f64) * 100.0, 1),
            fmt(mean_acc / n.max(1) as f64, 1),
            fmt(max_acc, 0),
            fmt(clean.len() as f64 / secs / 1000.0, 0),
        ]);
    }
    println!(
        "A1 ablation — offline Douglas–Peucker baseline (batch, whole-trajectory):\n{}",
        table(
            &[
                "epsilon (m)",
                "kept",
                "ratio (%)",
                "SED mean (m)",
                "SED max (m)",
                "krep/s"
            ],
            &rows
        )
    );
}

/// E2 — analytics quality on raw vs compressed streams.
fn e2() {
    header("E2", "compression does not hurt analytics (claim C1)");
    let data = maritime_workload(1);
    let raw = reports_of(&data);
    let mut cleanser = Cleanser::default();
    let clean: Vec<PositionReport> = raw.iter().filter(|r| cleanser.check(r)).copied().collect();

    let run_detectors = |reports: &[PositionReport]| {
        let mut loiter = LoiteringDetector::default();
        let mut synopsis = CriticalPointDetector::new(SynopsisConfig {
            gap_threshold_ms: 5 * 60_000,
            ..SynopsisConfig::default()
        });
        let mut dark = DarkActivityDetector::new(15 * 60_000);
        let mut loiters = Vec::new();
        let mut darks = Vec::new();
        let mut pts = Vec::new();
        for r in reports {
            if let Some(e) = loiter.update(r) {
                loiters.push((e.objects.clone(), e.interval));
            }
            pts.clear();
            synopsis.update(r, &mut pts);
            for cp in &pts {
                if let Some(low) = datacron_cep::critical_to_event(cp) {
                    if let Some(e) = dark.update(&low) {
                        darks.push((e.objects.clone(), e.interval));
                    }
                }
            }
        }
        (loiters, darks)
    };

    let mut rows = Vec::new();
    for threshold in [0.0, 50.0, 100.0, 250.0, 500.0] {
        let (stream, label, ratio) = if threshold == 0.0 {
            (clean.clone(), "raw".to_string(), 0.0)
        } else {
            let mut c = DeadReckoningCompressor::new(threshold);
            let kept: Vec<PositionReport> = clean.iter().filter(|r| c.check(r)).copied().collect();
            (kept, fmt(threshold, 0), c.ratio())
        };
        let (loiters, darks) = run_detectors(&stream);
        let score =
            |kind, det: &Vec<(Vec<datacron_model::ObjectId>, datacron_geo::TimeInterval)>| {
                let (tp, _fp, fn_) = data.truth.score_events(kind, det, 15 * 60_000);
                let (_, r, _) = prf1(tp, 0, fn_);
                r
            };
        rows.push(vec![
            label,
            fmt(ratio * 100.0, 1),
            fmt(score(EventKind::Loitering, &loiters), 2),
            fmt(score(EventKind::DarkActivity, &darks), 2),
        ]);
    }
    println!(
        "{}",
        table(
            &["threshold (m)", "ratio (%)", "loiter recall", "dark recall"],
            &rows
        )
    );
    println!("(threshold 'raw' = uncompressed baseline)");
}

/// E3 — transformation to the common RDF representation.
fn e3() {
    header("E3", "transformation to RDF (claim C2)");
    let data = maritime_workload(1);
    let reports = reports_of(&data);

    // CSV parse throughput.
    let csv: String = reports
        .iter()
        .map(report_to_ais_csv)
        .collect::<Vec<_>>()
        .join("\n");
    let t = Instant::now();
    let (parsed, errors) = parse_ais_csv(&csv);
    let parse_secs = t.elapsed().as_secs_f64();

    // RDF mapping throughput.
    let mut graph = Graph::new();
    let mut mapper = RdfMapper::new();
    let t = Instant::now();
    for v in &data.vessels {
        mapper.map_vessel_info(&mut graph, v);
    }
    for r in &parsed {
        mapper.map_report(&mut graph, r, None);
    }
    graph.commit();
    let map_secs = t.elapsed().as_secs_f64();

    let rows = vec![
        vec![
            "AIS CSV parse".into(),
            format!("{}", parsed.len()),
            fmt(parsed.len() as f64 / parse_secs / 1000.0, 0),
            format!("{} errors", errors.len()),
        ],
        vec![
            "RDF mapping".into(),
            format!("{} triples", graph.len()),
            fmt(parsed.len() as f64 / map_secs / 1000.0, 0),
            fmt(graph.len() as f64 / parsed.len() as f64, 2),
        ],
    ];
    println!(
        "{}",
        table(
            &["stage", "output", "krec/s", "notes (triples/report)"],
            &rows
        )
    );
}

/// E4 — link discovery: blocking vs exhaustive.
fn e4() {
    header("E4", "link discovery across registries (claim C3)");
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
    println!(
        "registries: |A| = {}, |B| = {}, true links = {}\n",
        a.len(),
        b.len(),
        reg.truth.links.len()
    );

    let mut rows = Vec::new();
    let t = Instant::now();
    let exhaustive = discover_links_exhaustive(&a, &b, &LinkRule::default());
    let ex_ms = t.elapsed().as_secs_f64() * 1000.0;
    let s = evaluate_links(&exhaustive, &reg.truth);
    rows.push(vec![
        "exhaustive".into(),
        format!("{}", a.len() * b.len()),
        "0.0".into(),
        fmt(s.precision, 3),
        fmt(s.recall, 3),
        fmt(s.f1, 3),
        fmt(ex_ms, 1),
    ]);
    for tile in [0.2, 0.05, 0.02] {
        let rule = LinkRule {
            tile_deg: tile,
            ..LinkRule::default()
        };
        let t = Instant::now();
        let (links, stats) = discover_links(&a, &b, &rule);
        let ms = t.elapsed().as_secs_f64() * 1000.0;
        let s = evaluate_links(&links, &reg.truth);
        rows.push(vec![
            format!("blocked {tile}°"),
            format!("{}", stats.candidates),
            fmt(stats.reduction * 100.0, 1),
            fmt(s.precision, 3),
            fmt(s.recall, 3),
            fmt(s.f1, 3),
            fmt(ms, 1),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "variant",
                "pairs scored",
                "reduction (%)",
                "P",
                "R",
                "F1",
                "ms"
            ],
            &rows
        )
    );
}

/// E5 — RDF store: load rate, query answering, partitioning & pruning.
fn e5() {
    header("E5", "spatiotemporal RDF query answering (claim C4)");
    let data = maritime_workload(1);
    let reports = reports_of(&data);
    let mut graph = Graph::new();
    let mut mapper = RdfMapper::new();
    let t = Instant::now();
    for v in &data.vessels {
        mapper.map_vessel_info(&mut graph, v);
    }
    for r in &reports {
        mapper.map_report(&mut graph, r, None);
    }
    graph.commit();
    let load_secs = t.elapsed().as_secs_f64();
    println!(
        "store: {} triples, bulk load {:.0} ktriples/s\n",
        graph.len(),
        graph.len() as f64 / load_secs / 1000.0
    );

    let queries = [
        ("Q1 lookup", "SELECT ?n WHERE { ?n da:ofMovingObject da:obj/7 }"),
        ("Q2 star", "SELECT ?v ?name ?flag WHERE { ?v da:name ?name . ?v da:flag ?flag . ?v rdf:type da:Vessel }"),
        ("Q3 filter", "SELECT ?n ?s WHERE { ?n da:speed ?s . FILTER (?s > 8.0) }"),
        ("Q4 spatial", "SELECT ?n WHERE { ?n da:hasGeometry ?g . FILTER st_within(?g, 23.2, 37.4, 24.2, 38.4) }"),
        ("Q5 temporal", "SELECT ?n WHERE { ?n da:hasTemporalFeature ?t . FILTER t_between(?t, 0, 3600000) }"),
        ("Q6 spatio-temporal", "SELECT ?n WHERE { ?n da:hasGeometry ?g . ?n da:hasTemporalFeature ?t . FILTER st_within(?g, 23.2, 37.4, 24.7, 38.9) FILTER t_between(?t, 0, 7200000) }"),
    ];

    // Single-store latencies.
    let mut rows = Vec::new();
    for (name, text) in &queries {
        let q = parse_query(text).expect("valid query");
        // Warm + measure best-of-3.
        let mut best = f64::MAX;
        let mut rows_out = 0;
        for _ in 0..3 {
            let t = Instant::now();
            let (b, _) = execute(&graph, &q);
            best = best.min(t.elapsed().as_secs_f64() * 1000.0);
            rows_out = b.len();
        }
        rows.push(vec![name.to_string(), format!("{rows_out}"), fmt(best, 2)]);
    }
    println!("single store:\n{}", table(&["query", "rows", "ms"], &rows));

    // Partitioning comparison on the pruning-sensitive queries.
    let region = data.world.region;
    type PartitionerBuilder = Box<dyn Fn() -> Box<dyn datacron_rdf::Partitioner>>;
    let builders: Vec<(&str, PartitionerBuilder)> = vec![
        ("hash", Box::new(|| Box::new(HashPartitioner::new(8)))),
        (
            "spatial-grid",
            Box::new(move || Box::new(SpatialGridPartitioner::new(8, region, 0.5))),
        ),
        (
            "temporal",
            Box::new(|| Box::new(TemporalPartitioner::new(8, TimeMs(0), 45 * 60_000))),
        ),
    ];
    let mut rows = Vec::new();
    for (pname, build) in &builders {
        let store = PartitionedStore::build(&graph, build());
        for (qname, text) in &queries[3..] {
            let q = parse_query(text).expect("valid query");
            let mut best = f64::MAX;
            let mut probed = 0;
            let mut count = 0;
            for _ in 0..3 {
                let t = Instant::now();
                let (b, stats) = store.execute(&q).expect("E5 queries are subject stars");
                best = best.min(t.elapsed().as_secs_f64() * 1000.0);
                probed = stats.partitions_probed;
                count = b.rows.len();
            }
            rows.push(vec![
                pname.to_string(),
                qname.to_string(),
                format!("{count}"),
                format!("{probed}/8"),
                fmt(best, 2),
            ]);
        }
    }
    println!(
        "partitioned (8 partitions, A2 ablation):\n{}",
        table(&["partitioner", "query", "rows", "probed", "ms"], &rows)
    );

    // Parallel speedup: the heavy filter query over increasing partition
    // counts (a fan-out-friendly scan; tiny queries cannot amortise thread
    // startup).
    let q = parse_query(queries[2].1).expect("valid query");
    let mut rows = Vec::new();
    let mut base = None;
    for n in [1usize, 2, 4, 8] {
        let store = PartitionedStore::build(&graph, Box::new(HashPartitioner::new(n)));
        let mut best = f64::MAX;
        for _ in 0..3 {
            let t = Instant::now();
            let _ = store.execute(&q).expect("E5 queries are subject stars");
            best = best.min(t.elapsed().as_secs_f64() * 1000.0);
        }
        let b = *base.get_or_insert(best);
        rows.push(vec![format!("{n}"), fmt(best, 2), fmt(b / best, 2)]);
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "parallel filter-query scaling (hash partitioning; host exposes {cores} core(s) — wall-clock speedup is bounded by that, so on a 1-core host the partitioning benefit shows as pruning, not speedup):\n{}",
        table(&["partitions/threads", "ms", "speedup"], &rows)
    );
}

/// Builds per-object trajectories from true (noise-free) simulator tracks.
fn true_tracks(seed: u64) -> Vec<datacron_model::Trajectory> {
    let data = generate_maritime(&MaritimeConfig {
        seed,
        n_vessels: 40,
        duration_ms: TimeMs::from_hours(8).millis(),
        report_interval_ms: 60_000,
        noise: NoiseModel::none(),
        frac_loitering: 0.0,
        frac_gap: 0.0,
        frac_drifting: 0.0,
        n_rendezvous_pairs: 0,
    });
    data.true_trajectories
}

/// E6 — maritime trajectory forecasting.
fn e6() {
    header("E6", "maritime trajectory forecasting (claim C5, 2D)");
    let history = true_tracks(100);
    let test = true_tracks(200);
    let region = datacron_sim::aegean_world().region;

    let mut markov = MarkovGridModel::new(Grid::new(region, 0.05).unwrap(), 60_000);
    markov.train_all(&history);
    let mut route = RouteModel::new(Grid::new(region, 0.02).unwrap());
    route.train_all(&history);

    let models: Vec<&dyn Predictor> = vec![
        &DeadReckoningPredictor,
        &ConstantTurnPredictor,
        &markov,
        &route,
    ];
    let horizons = [5i64, 10, 20, 30, 60];
    let mut rows = Vec::new();
    let mut all_reports = Vec::new();
    for model in models {
        let reports = evaluate_horizons(model, &test, &horizons, 30 * 60_000, 20 * 60_000);
        for r in &reports {
            rows.push(vec![
                r.model.clone(),
                format!("{}", r.horizon_min),
                format!("{}", r.stats.predicted),
                fmt(r.stats.median_m / 1000.0, 2),
                fmt(r.stats.p90_m / 1000.0, 2),
            ]);
        }
        all_reports.extend(reports);
    }
    // Machine-readable output for downstream plotting, when requested.
    if let Ok(dir) = std::env::var("DATACRON_JSON_DIR") {
        let path = std::path::Path::new(&dir).join("e6_forecast.json");
        match std::fs::write(&path, e6_json(&all_reports).to_string()) {
            Ok(()) => println!("(wrote machine-readable results to {})", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    println!(
        "{}",
        table(
            &["model", "horizon (min)", "cases", "median (km)", "p90 (km)"],
            &rows
        )
    );
    println!("(A4 ablation: route-network vs memoryless baselines as horizon grows)");
}

/// E6's machine-readable dump: one object per (model, horizon) row.
fn e6_json(reports: &[HorizonReport]) -> Json {
    let rows = reports.iter().map(|r| {
        let stats = Json::obj()
            .field("cases", r.stats.cases)
            .field("predicted", r.stats.predicted)
            .field("median_m", r.stats.median_m)
            .field("p90_m", r.stats.p90_m)
            .field("mean_m", r.stats.mean_m)
            .build();
        Json::obj()
            .field("model", r.model.as_str())
            .field("horizon_min", r.horizon_min)
            .field("stats", stats)
            .build()
    });
    Json::Arr(rows.collect())
}

/// E7 — aviation forecasting (3D).
fn e7() {
    header("E7", "aviation trajectory forecasting (claim C5, 3D)");
    let data = aviation_workload();
    let test: Vec<datacron_model::Trajectory> = data
        .true_trajectories
        .iter()
        .filter(|t| t.len() > 50)
        .cloned()
        .collect();

    let horizons = [2i64, 5, 10, 15];
    let mut rows = Vec::new();
    let dr = evaluate_horizons(
        &DeadReckoningPredictor,
        &test,
        &horizons,
        10 * 60_000,
        5 * 60_000,
    );
    for r in &dr {
        // Vertical error via the profile predictor on the same anchors.
        let vp = VerticalProfilePredictor::default();
        let mut v_errors: Vec<f64> = Vec::new();
        for traj in &test {
            let pts = traj.points();
            let t0 = pts[0].time;
            let t_end = pts[pts.len() - 1].time;
            let mut anchor = t0 + 5 * 60_000;
            while anchor + r.horizon_min * 60_000 <= t_end {
                let prefix_end = pts.partition_point(|p| p.time <= anchor);
                if prefix_end >= 2 {
                    let target = anchor + r.horizon_min * 60_000;
                    let truth_idx = pts.partition_point(|p| p.time <= target);
                    if truth_idx > 0 && truth_idx < pts.len() {
                        if let Some(alt) = vp.predict_alt(&pts[..prefix_end], target) {
                            v_errors.push((alt - pts[truth_idx].alt_m).abs());
                        }
                    }
                }
                anchor = anchor + 10 * 60_000;
            }
        }
        v_errors.sort_by(|a, b| a.total_cmp(b));
        let v_med = v_errors
            .get(v_errors.len() / 2)
            .copied()
            .unwrap_or(f64::NAN);
        rows.push(vec![
            format!("{}", r.horizon_min),
            format!("{}", r.stats.predicted),
            fmt(r.stats.median_m / 1000.0, 2),
            fmt(r.stats.p90_m / 1000.0, 2),
            fmt(v_med, 0),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "horizon (min)",
                "cases",
                "horiz median (km)",
                "horiz p90 (km)",
                "vert median (m)"
            ],
            &rows
        )
    );
}

/// E8 — CEP latency & throughput.
fn e8() {
    header(
        "E8",
        "event recognition latency & throughput (claims C6, C8)",
    );
    let data = maritime_workload(1);
    let reports = reports_of(&data);

    // Detector-suite throughput + per-report latency percentiles.
    let hist = datacron_obs::LatencyHistogram::new();
    let mut loiter = LoiteringDetector::default();
    let mut rendezvous = RendezvousDetector::new(data.world.region);
    let mut cpa = CpaDetector::default();
    let mut n_events = 0usize;
    let t = Instant::now();
    for r in &reports {
        let t0 = datacron_obs::Stopwatch::start();
        if loiter.update(r).is_some() {
            n_events += 1;
        }
        n_events += rendezvous.update(r).len();
        n_events += cpa.update(r).len();
        hist.observe(&t0);
    }
    let secs = t.elapsed().as_secs_f64();
    let (p50, p99, max) = hist.summary_us();
    let rows = vec![vec![
        format!("{}", reports.len()),
        format!("{n_events}"),
        fmt(reports.len() as f64 / secs / 1000.0, 0),
        format!("{p50}"),
        format!("{p99}"),
        format!("{max}"),
    ]];
    println!(
        "maritime detector suite (loitering + rendezvous + CPA):\n{}",
        table(
            &[
                "reports",
                "events",
                "kreports/s",
                "p50 (µs)",
                "p99 (µs)",
                "max (µs)"
            ],
            &rows
        )
    );

    // NFA pattern-count sweep (A5 ablation: shared evaluation cost model).
    let mut rows = Vec::new();
    for n_patterns in [1usize, 2, 4, 8] {
        let mut runs: Vec<datacron_cep::Runs<u32>> = (0..n_patterns)
            .map(|i| {
                datacron_cep::Runs::new(datacron_cep::Pattern::new(
                    format!("p{i}"),
                    vec![
                        datacron_cep::PatternElem::single(move |e: &u32| *e == i as u32),
                        datacron_cep::PatternElem::single(move |e: &u32| *e == (i + 1) as u32),
                    ],
                    60_000,
                ))
            })
            .collect();
        let events: Vec<u32> = (0..200_000u32).map(|i| i % 10).collect();
        let t = Instant::now();
        let mut matches = 0usize;
        for (i, e) in events.iter().enumerate() {
            for r in &mut runs {
                matches += r.on_event(TimeMs(i as i64 * 10), e).len();
            }
        }
        let secs = t.elapsed().as_secs_f64();
        rows.push(vec![
            format!("{n_patterns}"),
            format!("{matches}"),
            fmt(events.len() as f64 / secs / 1000.0, 0),
        ]);
    }
    println!(
        "NFA engine, pattern-count sweep (200k events):\n{}",
        table(&["patterns", "matches", "kevents/s"], &rows)
    );
}

/// E9 — complex-event forecasting.
fn e9() {
    header("E9", "complex-event forecasting (claim C6)");
    // (a) Rendezvous forecasting by CPA approach: how early does the
    // forecaster fire before a true rendezvous, and how precise is it?
    let data = maritime_workload(1);
    let reports = reports_of(&data);
    let mut forecaster = CpaDetector::default().with_thresholds(800.0, 30 * 60_000);
    let mut alerts: Vec<datacron_model::EventRecord> = Vec::new();
    for r in &reports {
        alerts.extend(forecaster.update(r));
    }
    // CPA forecasts *close encounters*; score each alert against what the
    // true trajectories subsequently did: did the pair actually come within
    // the forecast distance before the predicted CPA time (+50% slack)?
    let traj_of = |obj: datacron_model::ObjectId| &data.true_trajectories[obj.raw() as usize];
    let mut confirmed = 0usize;
    let mut lead_times: Vec<f64> = Vec::new();
    for a in &alerts {
        let (o1, o2) = (a.objects[0], a.objects[1]);
        let (t1, t2) = (traj_of(o1), traj_of(o2));
        let t_alert = a.interval.start;
        let deadline = a.interval.end + a.interval.duration_ms() / 2;
        let mut t = t_alert;
        let mut came_close_at = None;
        while t <= deadline {
            if let (Some(p1), Some(p2)) = (t1.position_at(t), t2.position_at(t)) {
                if p1.haversine_m(&p2) <= 800.0 {
                    came_close_at = Some(t);
                    break;
                }
            }
            t = t + 60_000;
        }
        if let Some(tc) = came_close_at {
            confirmed += 1;
            // Lead time only makes sense for alerts raised while the pair
            // was still apart (an alert during the encounter has lead 0).
            if tc > t_alert {
                lead_times.push((tc - t_alert) as f64 / 60_000.0);
            }
        }
    }
    // Recall over the planted rendezvous (whose vessels certainly met).
    let rendezvous: Vec<_> = data.truth.events_of(EventKind::Rendezvous).collect();
    let forecast_rendezvous = rendezvous
        .iter()
        .filter(|rv| {
            let p = (rv.objects[0], rv.objects[1]);
            alerts.iter().any(|a| {
                ((a.objects[0] == p.0 && a.objects[1] == p.1)
                    || (a.objects[0] == p.1 && a.objects[1] == p.0))
                    && a.interval.start <= rv.interval.start
            })
        })
        .count();
    lead_times.sort_by(|a, b| a.total_cmp(b));
    let med_lead = lead_times
        .get(lead_times.len() / 2)
        .copied()
        .unwrap_or(f64::NAN);
    let rows = vec![vec![
        format!("{}", alerts.len()),
        fmt(confirmed as f64 / alerts.len().max(1) as f64, 2),
        fmt(med_lead, 1),
        format!("{}/{}", forecast_rendezvous, rendezvous.len()),
    ]];
    println!(
        "close-encounter forecasting by CPA (alert = predicted approach < 800 m within 30 min):\n{}",
        table(
            &["alerts", "precision (pair met < 800 m)", "median lead (min)", "rendezvous forecast"],
            &rows
        )
    );

    // (b) Pattern Markov chain: completion probability of gap→dark given a
    // stop, as the event budget grows. Trained on the workload's low-level
    // event sequences.
    let mut synopsis = CriticalPointDetector::new(SynopsisConfig::default());
    let mut per_object: std::collections::BTreeMap<datacron_model::ObjectId, Vec<EventKind>> =
        std::collections::BTreeMap::new();
    let mut pts = Vec::new();
    for r in &reports {
        pts.clear();
        synopsis.update(r, &mut pts);
        for cp in &pts {
            if let Some(ev) = datacron_cep::critical_to_event(cp) {
                per_object.entry(ev.objects[0]).or_default().push(ev.kind);
            }
        }
    }
    let mut pmc = PatternMarkovChain::new();
    for seq in per_object.values() {
        pmc.train(seq);
    }
    let mut rows = Vec::new();
    for budget in [1usize, 2, 4, 8, 16] {
        rows.push(vec![
            format!("{budget}"),
            fmt(
                pmc.completion_probability(EventKind::StopStart, &[EventKind::StopEnd], budget),
                3,
            ),
            fmt(
                pmc.completion_probability(EventKind::GapStart, &[EventKind::GapEnd], budget),
                3,
            ),
            fmt(
                pmc.completion_probability(
                    EventKind::SpeedChange,
                    &[EventKind::StopStart, EventKind::StopEnd],
                    budget,
                ),
                3,
            ),
        ]);
    }
    println!(
        "pattern-Markov-chain completion probabilities (trained on {} objects):\n{}",
        per_object.len(),
        table(
            &[
                "event budget",
                "P(stop completes)",
                "P(gap closes)",
                "P(slow→stop→resume)"
            ],
            &rows
        )
    );
}

/// E10 — visual-analytics aggregation rates.
fn e10() {
    header("E10", "visual analytics aggregation (claim C7)");
    let data = maritime_workload(2);
    let reports = reports_of(&data);
    println!("workload: {} reports\n", reports.len());

    let mut rows = Vec::new();
    for cell_deg in [0.02, 0.05, 0.1] {
        let grid = Grid::new(data.world.region, cell_deg).unwrap();
        let mut density = DensityGrid::new(grid);
        let t = Instant::now();
        for r in &reports {
            density.add(&r.position());
        }
        let build_secs = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let top = density.top_k(10);
        let topk_us = t.elapsed().as_secs_f64() * 1e6;
        rows.push(vec![
            fmt(cell_deg, 2),
            format!("{}", density.occupied_cells()),
            fmt(reports.len() as f64 / build_secs / 1e6, 2),
            fmt(topk_us, 0),
            fmt(top.first().map(|h| h.weight).unwrap_or(0.0), 0),
        ]);
    }
    println!(
        "density grids:\n{}",
        table(
            &[
                "cell (deg)",
                "occupied cells",
                "Mreports/s",
                "top-10 (µs)",
                "max cell weight"
            ],
            &rows
        )
    );

    // Hot paths: segment density over true trajectories (the paper's
    // "hot spots / paths").
    let grid = Grid::new(data.world.region, 0.05).unwrap();
    let mut paths = DensityGrid::new(grid);
    let t = Instant::now();
    let mut segments = 0usize;
    for traj in &data.true_trajectories {
        for w in traj.points().windows(2) {
            paths.add_segment(&w[0].position(), &w[1].position());
            segments += 1;
        }
    }
    let secs = t.elapsed().as_secs_f64();
    println!(
        "hot paths: {} segments rasterised in {:.0} ms ({:.2} Mseg/s), {} cells; top corridor cell weight {:.0}",
        segments,
        secs * 1000.0,
        segments as f64 / secs / 1e6,
        paths.occupied_cells(),
        paths.top_k(1).first().map(|h| h.weight).unwrap_or(0.0)
    );

    // OD flows from voyage start/end ports (nearest port at track ends).
    let mut flows = FlowMatrix::new();
    let ports = &data.world.ports;
    let nearest = |p: datacron_geo::GeoPoint| {
        ports
            .iter()
            .min_by(|a, b| {
                a.location
                    .fast_dist2_m2(&p)
                    .total_cmp(&b.location.fast_dist2_m2(&p))
            })
            .map(|port| port.name.clone())
            .unwrap()
    };
    let t = Instant::now();
    for traj in &data.true_trajectories {
        if let (Some(first), Some(last)) = (traj.first(), traj.last()) {
            flows.record(&nearest(first.position()), &nearest(last.position()));
        }
    }
    let secs = t.elapsed().as_secs_f64();
    println!(
        "OD flow matrix built from {} trajectories in {:.1} ms; top flows:",
        data.true_trajectories.len(),
        secs * 1000.0
    );
    for (from, to, count) in flows.top_k(5) {
        println!("  {from} → {to}: {count}");
    }
}

/// E11 — end-to-end pipeline latency (the ms claim).
fn e11() {
    header("E11", "end-to-end pipeline latency (claim C8)");
    let data = maritime_workload(1);
    let reports = reports_of(&data);
    let mut rows = Vec::new();
    for (label, enable_rdf) in [("full (with RDF)", true), ("analytics only", false)] {
        let mut pipeline = Pipeline::new(PipelineConfig {
            enable_rdf,
            ..PipelineConfig::default()
        });
        let t = Instant::now();
        for r in &reports {
            pipeline.process(r);
        }
        let secs = t.elapsed().as_secs_f64();
        let m = pipeline.metrics();
        let (p50, p99, max) = m.lat_total.summary_us();
        rows.push(vec![
            label.into(),
            fmt(reports.len() as f64 / secs / 1000.0, 0),
            format!("{p50}"),
            format!("{p99}"),
            format!("{max}"),
            fmt(m.compression_ratio() * 100.0, 1),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "configuration",
                "kreports/s",
                "p50 (µs)",
                "p99 (µs)",
                "max (µs)",
                "compression (%)"
            ],
            &rows
        )
    );

    // Per-stage breakdown of the full configuration.
    let mut pipeline = Pipeline::new(PipelineConfig::default());
    for r in &reports {
        pipeline.process(r);
    }
    let mut rows = Vec::new();
    for (name, h) in pipeline.metrics().stage_histograms() {
        let (p50, p99, max) = h.summary_us();
        rows.push(vec![
            name.to_string(),
            format!("{p50}"),
            format!("{p99}"),
            format!("{max}"),
        ]);
    }
    println!(
        "per-stage latency (full configuration):\n{}",
        table(&["stage", "p50 (µs)", "p99 (µs)", "max (µs)"], &rows)
    );
}

/// E12 — stream-engine scaling.
fn e12() {
    header(
        "E12",
        "stream engine throughput & shard scaling (substrate)",
    );
    use datacron_stream::*;

    // Operator throughput, single thread.
    let n = 2_000_000i64;
    let msgs: Vec<Message<i64>> = (0..n)
        .map(|i| Message::record(TimeMs(i), i))
        .chain(std::iter::once(Message::End))
        .collect();
    let mut op = MapOp(|x: i64| x.wrapping_mul(31).wrapping_add(7));
    let t = Instant::now();
    let out = op.run(msgs);
    let secs = t.elapsed().as_secs_f64();
    println!(
        "map operator: {:.1} Mrec/s ({} records)\n",
        n as f64 / secs / 1e6,
        out.len() - 1
    );

    // Shard scaling with a CPU-heavy keyed operator.
    let work = |x: i64| {
        let mut acc = x as u64 | 1;
        for _ in 0..40_000 {
            acc = acc
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        acc as i64
    };
    let n = 20_000i64;
    let mut rows = Vec::new();
    let mut base = None;
    for shards in [1usize, 2, 4, 8] {
        let msgs: Vec<Message<i64>> = (0..n)
            .map(|i| Message::record(TimeMs(i), i))
            .chain(std::iter::once(Message::End))
            .collect();
        let t = Instant::now();
        let (rx, h0) = run_source(msgs, 4096);
        let (parts, h1) = shard_by_key(rx, shards, |x: &i64| *x, 4096);
        let mut handles = vec![h0, h1];
        let mut outs = Vec::new();
        for part in parts {
            let (rx, h) = spawn_operator(part, MapOp(work), 4096);
            outs.push(rx);
            handles.push(h);
        }
        let (rx, hm) = merge_shards(outs, 4096);
        handles.push(hm);
        let count = collect_messages(rx)
            .iter()
            .filter(|m| m.as_record().is_some())
            .count();
        for h in handles {
            h.join();
        }
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(count, n as usize);
        let b = *base.get_or_insert(secs);
        rows.push(vec![
            format!("{shards}"),
            fmt(n as f64 / secs / 1000.0, 0),
            fmt(b / secs, 2),
        ]);
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "shard scaling (CPU-bound keyed stage, 20k records × ~10 µs; host exposes {cores} core(s), which bounds achievable speedup):\n{}",
        table(&["shards", "krec/s", "speedup"], &rows)
    );

    // Window correctness under disorder.
    let data = datacron_bench::maritime_small();
    let delivery = data.reports_delivery_order();
    let src: Vec<(TimeMs, ())> = delivery.iter().map(|o| (o.report.time, ())).collect();
    let mut window: KeyedWindowOp<u8, CountAny<()>, _> =
        KeyedWindowOp::new(WindowSpec::tumbling(10 * 60_000), |_: &()| 0u8);
    let msgs: Vec<Message<()>> =
        with_watermarks(src, BoundedOutOfOrderness::new(5_000, 32)).collect();
    let out = window.run(msgs);
    let windows: u64 = out
        .iter()
        .filter_map(|m| m.as_record())
        .map(|r| r.payload.value)
        .sum();
    println!(
        "windowing under out-of-order delivery: {} reports counted across fired windows, {} late-dropped (watermark slack 5 s, delivery jitter ≤ 4 s)",
        windows,
        window.late_count()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a == id);
    println!("# datAcron reproduction — experiment report");
    println!("(regenerate with: cargo run --release -p datacron-bench --bin report)");
    let t = Instant::now();
    if want("e1") {
        e1();
    }
    if want("e2") {
        e2();
    }
    if want("e3") {
        e3();
    }
    if want("e4") {
        e4();
    }
    if want("e5") {
        e5();
    }
    if want("e6") {
        e6();
    }
    if want("e7") {
        e7();
    }
    if want("e8") {
        e8();
    }
    if want("e9") {
        e9();
    }
    if want("e10") {
        e10();
    }
    if want("e11") {
        e11();
    }
    if want("e12") {
        e12();
    }
    println!("\nreport generated in {:.1} s", t.elapsed().as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacron_forecast::ErrorStats;

    #[test]
    fn e6_json_pins_field_names() {
        let rows = [HorizonReport {
            model: "route".to_string(),
            horizon_min: 30,
            stats: ErrorStats {
                cases: 12,
                predicted: 10,
                median_m: 1500.5,
                p90_m: 4000.0,
                mean_m: f64::NAN,
            },
        }];
        assert_eq!(
            e6_json(&rows).to_string(),
            r#"[{"model":"route","horizon_min":30,"stats":{"cases":12,"predicted":10,"median_m":1500.5,"p90_m":4000,"mean_m":null}}]"#
        );
    }
}
