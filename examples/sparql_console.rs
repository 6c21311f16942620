//! Spatiotemporal SPARQL over the one graph.
//!
//! Builds an RDF store from a simulated scenario and answers queries on
//! the morsel executor, as the server does — either the built-in demo set
//! or one passed on the command line. Any basic graph pattern is answered
//! exactly; spatial and temporal filters are pushed down to the graph's
//! indexes:
//!
//! ```sh
//! cargo run --release --example sparql_console
//! cargo run --release --example sparql_console -- \
//!   'SELECT ?n WHERE { ?n da:hasGeometry ?g . FILTER st_within(?g, 23.0, 37.0, 25.0, 38.5) } LIMIT 5'
//! ```

use datacron_geo::TimeMs;
use datacron_rdf::{execute_morsel, parse_query, Graph, MorselConfig};
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
                "SELECT ?n ?name WHERE { ?n da:ofMovingObject ?v . ?v da:name ?name } LIMIT 5"
                    .to_string(),
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
        let (bindings, stats, morsels) = execute_morsel(&graph, &q, &MorselConfig::default());
        let elapsed = t.elapsed();
        println!(
            "   {} rows in {:?} ({} probes, {} morsels on {} workers)",
            bindings.len(),
            elapsed,
            stats.probes,
            morsels.morsels,
            morsels.workers_used
        );
        for row in bindings.rows.iter().take(5) {
            let rendered: Vec<String> = bindings
                .decode_row(&graph, row)
                .iter()
                .map(|t| t.to_string())
                .collect();
            println!("   {}", rendered.join("  "));
        }
    }
}
