//! E5 timing: triple-store load, the six E5 query templates on the one
//! graph (the E5 store, one inline worker; each followed by the engine's
//! own `planning_us` / `exec_us` p50 at 1 and 2 workers), and the cost of
//! committing serving-sized batches into a store of a given size, folds
//! included (`commit_tail`), and of whole batches into a dictionary and a
//! spatial index growing to 1M point literals (`commit_tail/points_1M`).

use datacron_bench::{bench, maritime_small, maritime_workload, reports_of};
use datacron_geo::{GeoPoint, Rng, TimeMs};
use datacron_model::{NavStatus, ObjectId, PositionReport, SourceId};
use datacron_obs::Stopwatch;
use datacron_rdf::{execute, execute_morsel, parse_query, Graph, MorselConfig, Term};
use datacron_transform::RdfMapper;
use std::hint::black_box;
use std::time::Duration;

/// The E5 store: the standard maritime workload mapped to RDF (≈ 682k
/// triples).
fn build_graph() -> Graph {
    let data = maritime_workload(1);
    let reports = reports_of(&data);
    let mut graph = Graph::new();
    let mut mapper = RdfMapper::new();
    for v in &data.vessels {
        mapper.map_vessel_info(&mut graph, v);
    }
    for r in &reports {
        mapper.map_report(&mut graph, r, None);
    }
    graph.commit();
    graph
}

fn bench_rdf() {
    let graph = build_graph();

    let data = maritime_small();
    let reports = reports_of(&data);
    bench("rdf/bulk_load", reports.len() as u64, || {
        let mut g = Graph::new();
        let mut m = RdfMapper::new();
        for r in &reports {
            m.map_report(&mut g, black_box(r), None);
        }
        g.commit();
        g.len()
    });

    let queries = [
        ("q1_lookup", "SELECT ?n WHERE { ?n da:ofMovingObject da:obj/7 }"),
        ("q2_star", "SELECT ?v ?name ?flag WHERE { ?v da:name ?name . ?v da:flag ?flag . ?v rdf:type da:Vessel }"),
        ("q3_filter", "SELECT ?n ?s WHERE { ?n da:speed ?s . FILTER (?s > 8.0) }"),
        ("q4_spatial", "SELECT ?n WHERE { ?n da:hasGeometry ?g . FILTER st_within(?g, 23.2, 37.4, 24.2, 38.4) }"),
        ("q5_temporal", "SELECT ?n WHERE { ?n da:hasTemporalFeature ?t . FILTER t_between(?t, 0, 3600000) }"),
        ("q6_spatiotemporal", "SELECT ?n WHERE { ?n da:hasGeometry ?g . ?n da:hasTemporalFeature ?t . FILTER st_within(?g, 23.2, 37.4, 24.7, 38.9) FILTER t_between(?t, 0, 7200000) }"),
    ];
    for (name, text) in queries {
        let q = parse_query(text).unwrap();
        bench(&format!("rdf/{name}"), 0, || {
            execute(&graph, black_box(&q)).0.len()
        });
        for workers in [1, 2] {
            let cfg = MorselConfig::with_workers(workers);
            let (mut planning, mut exec): (Vec<u64>, Vec<u64>) = (0..SPLIT_RUNS)
                .map(|_| {
                    let stats = execute_morsel(&graph, &q, &cfg).1;
                    (stats.planning_us, stats.exec_us)
                })
                .unzip();
            planning.sort_unstable();
            exec.sort_unstable();
            println!(
                "{:<44} {:>10} us planning p50 {:>10} us exec p50",
                format!("rdf/{name}/split/{workers}w"),
                planning[SPLIT_RUNS / 2],
                exec[SPLIT_RUNS / 2],
            );
        }
    }
}

/// Runs per template and worker count behind the planning / exec split.
const SPLIT_RUNS: usize = 51;

/// Maps `nodes` synthetic reports, numbered from `from`, through the real
/// mapper (6 triples each): a fresh node subject — the highest id so far —
/// with the shared class, one of 100 moving objects, a fresh point and
/// instant, and a speed and a heading from small shared pools. So a tail
/// of them appends to SPO and lands inside every predicate's run of POS
/// and every shared object's run of OSP, as a serving batch does.
fn add_nodes(mapper: &mut RdfMapper, g: &mut Graph, from: u64, nodes: u64) {
    for k in from..from + nodes {
        let report = PositionReport::maritime(
            ObjectId(k % 100),
            TimeMs(k as i64 * 1_000),
            GeoPoint::new(
                20.0 + (k % 8_000) as f64 * 1e-3,
                35.0 + (k / 8_000) as f64 * 1e-3,
            ),
            (k % 40) as f64 * 0.5,
            (k % 72) as f64 * 5.0,
            SourceId::AIS_TERRESTRIAL,
            NavStatus::UnderWay,
        );
        mapper.map_report(g, &report, None);
    }
}

/// `Graph::commit` of ~100-triple tails (17 nodes, about what one
/// 64-report serving batch keeps) into a 100k- and a 1M-triple store, one
/// after another from an empty delta level until two folds into the base
/// have run. Only the commits are timed; filling the tails is not. Prints
/// the mean, which is what a serving commit costs with its share of the
/// folds, and the max, which is the fold stall.
fn bench_commit_tail() {
    const TAIL_NODES: u64 = 17;
    for (name, triples) in [("100k", 100_000u64), ("1M", 1_000_000)] {
        let base_nodes = triples / 6;
        let mut mapper = RdfMapper::new();
        let mut g = Graph::new();
        add_nodes(&mut mapper, &mut g, 0, base_nodes);
        g.commit();
        let start = g.folds();
        let (mut commits, mut total, mut max) = (0u32, Duration::ZERO, Duration::ZERO);
        let mut next = base_nodes;
        while g.folds() < start + 2 {
            add_nodes(&mut mapper, &mut g, next, TAIL_NODES);
            next += TAIL_NODES;
            let t = Stopwatch::start();
            g.commit();
            let spent = t.elapsed();
            commits += 1;
            total += spent;
            max = max.max(spent);
        }
        black_box(g.len());
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        println!(
            "{:<44} {:>10.1} us mean {:>10.1} us max  ({commits} commits, 2 folds)",
            format!("commit_tail/{name}"),
            us(total) / f64::from(commits),
            us(max),
        );
    }
}

/// 1M distinct point literals, encoded and committed 64 at a time (one
/// serving batch's reports) into an empty graph, so the dictionary and
/// the spatial index grow from nothing to 1M terms and keys. Each batch
/// is timed whole (its 64 encodes, then the commit that merges and folds
/// their keys), and its commit alone. Prints the mean and max commit, and
/// the max batch: the largest fold, or a stall inside `encode`.
fn bench_commit_points() {
    const BATCH: usize = 64;
    const POINTS: usize = 1_000_000;
    let mut rng = Rng::seed_from_u64(7);
    let mut g = Graph::new();
    let (mut total, mut max, mut max_batch) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    for _ in 0..POINTS / BATCH {
        let batch: Vec<Term> = (0..BATCH)
            .map(|_| {
                let (lon, lat) = (rng.gen_range(-180.0..180.0), rng.gen_range(-90.0..90.0));
                Term::point(GeoPoint::new(lon, lat))
            })
            .collect();
        let whole = Stopwatch::start();
        for p in &batch {
            g.encode(p);
        }
        let t = Stopwatch::start();
        g.commit();
        let spent = t.elapsed();
        total += spent;
        max = max.max(spent);
        max_batch = max_batch.max(whole.elapsed());
    }
    assert_eq!(g.spatial().len(), POINTS);
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    println!(
        "{:<44} {:>10.1} us mean {:>10.1} us max {:>10.1} us max batch  ({} batches of {BATCH})",
        "commit_tail/points_1M",
        us(total) / (POINTS / BATCH) as f64,
        us(max),
        us(max_batch),
        POINTS / BATCH,
    );
}

fn main() {
    bench_rdf();
    bench_commit_tail();
    bench_commit_points();
}
