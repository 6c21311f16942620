//! Quickstart: simulate an hour of Aegean vessel traffic, run the full
//! datAcron pipeline over it, and print what came out.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use datacron_core::{Pipeline, PipelineConfig};
use datacron_geo::TimeMs;
use datacron_sim::{generate_maritime, MaritimeConfig, NoiseModel};

fn main() {
    // 1. A small synthetic world: 20 vessels, 2 hours, AIS every 30 s.
    let scenario = generate_maritime(&MaritimeConfig {
        seed: 42,
        n_vessels: 20,
        duration_ms: TimeMs::from_hours(2).millis(),
        report_interval_ms: 30_000,
        noise: NoiseModel::default(),
        frac_loitering: 0.15,
        frac_gap: 0.1,
        frac_drifting: 0.05,
        n_rendezvous_pairs: 1,
    });
    println!(
        "scenario: {} vessels, {} observed reports, {} planted behaviours",
        scenario.vessels.len(),
        scenario.reports.len(),
        scenario.truth.events.len()
    );

    // 2. The pipeline: in-situ processing → event recognition → RDF.
    let mut pipeline = Pipeline::new(PipelineConfig::default());
    let mut events = Vec::new();
    for obs in &scenario.reports {
        events.extend(pipeline.process(&obs.report));
    }

    // 3. What happened?
    let m = pipeline.metrics();
    println!("\n== in-situ processing ==");
    println!("reports in        : {}", m.reports_in);
    println!("cleansed          : {}", m.reports_clean);
    println!("kept (compressed) : {}", m.reports_kept);
    println!("compression ratio : {:.1}%", m.compression_ratio() * 100.0);
    println!("triples emitted   : {}", m.triples);

    println!("\n== events recognised ==");
    let mut by_kind = std::collections::BTreeMap::new();
    for e in &events {
        *by_kind.entry(e.kind.tag()).or_insert(0u32) += 1;
    }
    for (kind, count) in by_kind {
        println!("{kind:<16} {count}");
    }

    println!("\n== per-stage latency (µs) ==");
    println!("{:<10} {:>8} {:>8} {:>8}", "stage", "p50", "p99", "max");
    for (name, lat) in m.latency_table() {
        println!(
            "{:<10} {:>8} {:>8} {:>8}",
            name, lat.p50_us, lat.p99_us, lat.max_us
        );
    }
    println!(
        "\nThe paper requires operational latency 'in ms' — end-to-end p99 here is {} µs.",
        m.lat_total.quantile_us(0.99)
    );

    // 4. Query the store like a datAcron component would.
    let graph = pipeline.graph_mut();
    let q = datacron_rdf::parse_query("SELECT ?v WHERE { ?v rdf:type da:Vessel } LIMIT 5")
        .expect("valid query");
    let (bindings, _) = datacron_rdf::execute(graph, &q);
    println!("\n== sample SPARQL over the store ==");
    for row in &bindings.rows {
        let terms = bindings.decode_row(graph, row);
        println!("vessel: {}", terms[0]);
    }
}
