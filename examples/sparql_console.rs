//! Spatiotemporal SPARQL over a partitioned store.
//!
//! Builds an RDF store from a simulated scenario, partitions it spatially,
//! and answers queries — either the built-in demo set or one passed on the
//! command line. The store answers subject-star queries (every pattern on
//! one subject) exactly and refuses any other shape, which the console
//! prints instead of rows:
//!
//! ```sh
//! cargo run --release --example sparql_console
//! cargo run --release --example sparql_console -- \
//!   'SELECT ?n WHERE { ?n da:hasGeometry ?g . FILTER st_within(?g, 23.0, 37.0, 25.0, 38.5) } LIMIT 5'
//! ```

use datacron_geo::TimeMs;
use datacron_rdf::{parse_query, Graph, PartitionedStore, SpatialGridPartitioner};
use datacron_sim::{generate_maritime, MaritimeConfig, NoiseModel};
use datacron_synopses::DeadReckoningCompressor;
use datacron_transform::RdfMapper;
use std::time::Instant;

fn main() {
    // Build the store: simulate, compress in-situ, map to RDF.
    let scenario = generate_maritime(&MaritimeConfig {
        seed: 11,
        n_vessels: 40,
        duration_ms: TimeMs::from_hours(3).millis(),
        report_interval_ms: 30_000,
        noise: NoiseModel::none(),
        ..MaritimeConfig::default()
    });
    let mut compressor = DeadReckoningCompressor::new(100.0);
    let mut graph = Graph::new();
    let mut mapper = RdfMapper::new();
    for v in &scenario.vessels {
        mapper.map_vessel_info(&mut graph, v);
    }
    for obs in &scenario.reports {
        if compressor.check(&obs.report) {
            mapper.map_report(&mut graph, &obs.report, None);
        }
    }
    graph.commit();
    println!(
        "store: {} triples from {} reports (compression kept {:.1}%)",
        graph.len(),
        scenario.reports.len(),
        (1.0 - compressor.ratio()) * 100.0
    );

    // Partition spatially over the Aegean.
    let store = PartitionedStore::build(
        &graph,
        Box::new(SpatialGridPartitioner::new(8, scenario.world.region, 0.5)),
    );
    println!(
        "partitioned into {} spatial partitions: sizes {:?}",
        store.partitions(),
        store.partition_sizes()
    );

    let queries: Vec<String> = {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.is_empty() {
            vec![
                "SELECT ?v ?name WHERE { ?v rdf:type da:Vessel . ?v da:name ?name } LIMIT 5"
                    .to_string(),
                "SELECT ?n WHERE { ?n da:hasGeometry ?g . FILTER st_within(?g, 23.0, 37.0, 24.5, 38.5) } LIMIT 10"
                    .to_string(),
                "SELECT ?n WHERE { ?n da:hasTemporalFeature ?t . FILTER t_between(?t, 0, 3600000) } LIMIT 10"
                    .to_string(),
                "SELECT ?n ?s WHERE { ?n da:speed ?s . FILTER (?s > 8.0) } LIMIT 5".to_string(),
            ]
        } else {
            args
        }
    };

    for q_text in queries {
        println!("\n>> {q_text}");
        let q = match parse_query(&q_text) {
            Ok(q) => q,
            Err(e) => {
                eprintln!("   {e}");
                continue;
            }
        };
        let t = Instant::now();
        let answer = store.execute(&q);
        let elapsed = t.elapsed();
        let (bindings, stats) = match answer {
            Ok(answer) => answer,
            Err(refusal) => {
                // Not a subject star: a partition-local answer could miss
                // rows, so the store gives none.
                println!("   refused: {refusal}");
                continue;
            }
        };
        println!(
            "   {} rows in {:?} ({} of {} partitions probed)",
            bindings.rows.len(),
            elapsed,
            stats.partitions_probed,
            stats.partitions_total
        );
        for row in bindings.rows.iter().take(5) {
            let rendered: Vec<String> = row.iter().map(|t| t.to_string()).collect();
            println!("   {}", rendered.join("  "));
        }
    }
}
