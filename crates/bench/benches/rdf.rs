//! E5 timing: triple-store load and query answering, with the partitioning
//! ablation (A2), and the cost of committing one serving-sized batch into a
//! store of a given size (`commit_tail`).

use criterion::{criterion_group, criterion_main, Criterion};
use datacron_bench::{maritime_small, reports_of};
use datacron_geo::{GeoPoint, TimeMs};
use datacron_model::{NavStatus, ObjectId, PositionReport, SourceId};
use datacron_rdf::{
    execute, from_binary, parse_query, to_binary, Graph, HashPartitioner, PartitionedStore,
    SpatialGridPartitioner, TemporalPartitioner,
};
use datacron_transform::RdfMapper;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn build_graph() -> (Graph, datacron_geo::BoundingBox) {
    let data = maritime_small();
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
    (graph, data.world.region)
}

fn bench_rdf(c: &mut Criterion) {
    let (graph, region) = build_graph();
    let mut group = c.benchmark_group("rdf");

    group.bench_function("bulk_load", |b| {
        let data = maritime_small();
        let reports = reports_of(&data);
        b.iter(|| {
            let mut g = Graph::new();
            let mut m = RdfMapper::new();
            for r in &reports {
                m.map_report(&mut g, black_box(r), None);
            }
            g.commit();
            black_box(g.len())
        })
    });

    let queries = [
        ("q1_lookup", "SELECT ?n WHERE { ?n da:ofMovingObject da:obj/7 }"),
        ("q2_star", "SELECT ?v ?name WHERE { ?v da:name ?name . ?v rdf:type da:Vessel }"),
        ("q4_spatial", "SELECT ?n WHERE { ?n da:hasGeometry ?g . FILTER st_within(?g, 23.2, 37.4, 24.2, 38.4) }"),
        ("q5_temporal", "SELECT ?n WHERE { ?n da:hasTemporalFeature ?t . FILTER t_between(?t, 0, 3600000) }"),
        ("q6_spatiotemporal", "SELECT ?n WHERE { ?n da:hasGeometry ?g . ?n da:hasTemporalFeature ?t . FILTER st_within(?g, 23.2, 37.4, 24.7, 38.9) FILTER t_between(?t, 0, 3600000) }"),
    ];
    for (name, text) in queries {
        let q = parse_query(text).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| black_box(execute(&graph, black_box(&q)).0.len()))
        });
    }

    // Partitioning ablation on the spatial query.
    let q = parse_query(queries[2].1).unwrap();
    let stores = vec![
        (
            "hash",
            PartitionedStore::build(&graph, Box::new(HashPartitioner::new(4))),
        ),
        (
            "spatial",
            PartitionedStore::build(
                &graph,
                Box::new(SpatialGridPartitioner::new(4, region, 0.5)),
            ),
        ),
        (
            "temporal",
            PartitionedStore::build(
                &graph,
                Box::new(TemporalPartitioner::new(4, TimeMs(0), 30 * 60_000)),
            ),
        ),
    ];
    for (name, store) in &stores {
        group.bench_function(&format!("partitioned_spatial_query/{name}"), |b| {
            b.iter(|| black_box(store.execute(black_box(&q)).0.rows.len()))
        });
    }
    group.finish();
}

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

/// `Graph::commit` of a ~100-triple tail (17 nodes, about what one
/// 64-report serving batch keeps) into a 100k- and a 1M-triple store.
/// Only the commit is timed; filling the tail is not.
fn bench_commit_tail(c: &mut Criterion) {
    const TAIL_NODES: u64 = 17;
    let mut group = c.benchmark_group("commit_tail");
    for (name, triples) in [("100k", 100_000u64), ("1M", 1_000_000)] {
        let base_nodes = triples / 6;
        let mut mapper = RdfMapper::new();
        let mut g = Graph::new();
        add_nodes(&mut mapper, &mut g, 0, base_nodes);
        g.commit();
        let snapshot = to_binary(&g);
        let mut next = base_nodes;
        group.bench_function(name, |b| {
            b.iter_custom(|iters| {
                let mut spent = Duration::ZERO;
                for _ in 0..iters {
                    // Every commit grows the store: start over from the
                    // snapshot once it is 10 % past its nominal size.
                    if next > base_nodes + base_nodes / 10 {
                        g = from_binary(&snapshot).expect("snapshot restores");
                        next = base_nodes;
                    }
                    add_nodes(&mut mapper, &mut g, next, TAIL_NODES);
                    next += TAIL_NODES;
                    let t = Instant::now();
                    g.commit();
                    spent += t.elapsed();
                }
                black_box(g.len());
                spent
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rdf, bench_commit_tail);
criterion_main!(benches);
