//! Data interchange between datAcron components: AIS CSV files in,
//! N-Triples out, with `owl:sameAs` links joining the views of two sources
//! over the same fleet.
//!
//! ```sh
//! cargo run --release --example data_interchange
//! ```

use datacron_geo::TimeMs;
use datacron_link::{discover_links, evaluate_links, LinkRecord, LinkRule};
use datacron_rdf::{execute, from_ntriples, parse_query, to_ntriples, Graph};
use datacron_sim::{
    generate_maritime, generate_registries, MaritimeConfig, NoiseModel, RegistryConfig,
};
use datacron_transform::{parse_ais_csv, report_to_ais_csv, RdfMapper};

fn main() {
    // 1. Simulate and write the AIS feed to CSV — the wire format.
    let fleet = generate_maritime(&MaritimeConfig {
        seed: 8,
        n_vessels: 30,
        duration_ms: TimeMs::from_hours(1).millis(),
        report_interval_ms: 60_000,
        noise: NoiseModel::none(),
        frac_loitering: 0.0,
        frac_gap: 0.0,
        frac_drifting: 0.0,
        n_rendezvous_pairs: 0,
    });
    let csv: String = fleet
        .reports
        .iter()
        .map(|o| report_to_ais_csv(&o.report))
        .collect::<Vec<_>>()
        .join("\n");
    let dir = std::env::temp_dir().join("datacron_interchange");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let csv_path = dir.join("feed.ais.csv");
    std::fs::write(&csv_path, &csv).expect("write CSV");
    println!(
        "wrote {} AIS reports to {}",
        fleet.reports.len(),
        csv_path.display()
    );

    // 2. Read the feed back (as the transformation component would) and map
    //    it plus both registries into one graph.
    let feed = std::fs::read_to_string(&csv_path).expect("read CSV");
    let (reports, errors) = parse_ais_csv(&feed);
    println!(
        "parsed {} reports back ({} errors)",
        reports.len(),
        errors.len()
    );

    let registries = generate_registries(&fleet, &RegistryConfig::default());
    let mut graph = Graph::new();
    let mut mapper = RdfMapper::new();
    for rec in &registries.source_a {
        mapper.map_vessel_info(&mut graph, &rec.info);
    }
    for rec in &registries.source_b {
        mapper.map_vessel_info(&mut graph, &rec.info);
    }
    for r in reports.iter().take(2_000) {
        mapper.map_report(&mut graph, r, None);
    }

    // 3. Discover identity links and materialise them.
    let a: Vec<LinkRecord> = registries.source_a.iter().map(LinkRecord::from).collect();
    let b: Vec<LinkRecord> = registries.source_b.iter().map(LinkRecord::from).collect();
    let (links, _) = discover_links(&a, &b, &LinkRule::default());
    let scores = evaluate_links(&links, &registries.truth);
    for l in &links {
        mapper.map_same_as(&mut graph, l.pair.left, l.pair.right);
    }
    println!(
        "discovered {} links (F1 {:.3}); graph now {} triples",
        links.len(),
        scores.f1,
        {
            graph.commit();
            graph.len()
        }
    );

    // 4. Query across the links: source-B records carry no MMSI
    //    (externalId) of their own, so they answer an MMSI query through
    //    their A-side alias.
    let q = parse_query(
        "SELECT ?x ?m WHERE { ?x owl:sameAs ?a . ?a da:externalId ?m . FILTER (?m >= 237000000) } LIMIT 100000",
    )
    .unwrap();
    let (bindings, _) = execute(&graph, &q);
    println!(
        "identifiers answering an MMSI query through a sameAs link: {}",
        bindings.len()
    );

    // 5. Dump the linked knowledge graph as N-Triples, read it back, and
    //    ask the same question of the copy.
    let nt_path = dir.join("linked.nt");
    let dump = to_ntriples(&graph);
    std::fs::write(&nt_path, &dump).expect("write N-Triples");
    let text = std::fs::read_to_string(&nt_path).expect("read N-Triples");
    let copy = from_ntriples(&text).expect("parse N-Triples");
    assert_eq!(copy.len(), graph.len(), "round trip keeps every triple");
    assert_eq!(execute(&copy, &q).0.len(), bindings.len());
    println!(
        "wrote {} N-Triples lines to {} and read back {} triples",
        dump.lines().count(),
        nt_path.display(),
        copy.len()
    );
    println!("\nsample:");
    for line in dump.lines().take(5) {
        println!("  {line}");
    }
}
