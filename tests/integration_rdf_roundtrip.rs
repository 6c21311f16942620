//! Cross-crate integration: CSV → parse → RDF mapping → parallel query
//! answering on the one graph (C2 + C4 together).

use datacron_geo::TimeMs;
use datacron_rdf::{execute_morsel, execute_reference, parse_query, Graph, MorselConfig, Term};
use datacron_sim::{generate_maritime, MaritimeConfig, NoiseModel};
use datacron_transform::{parse_ais_csv, report_to_ais_csv, RdfMapper};

fn scenario() -> datacron_sim::MaritimeData {
    generate_maritime(&MaritimeConfig {
        seed: 55,
        n_vessels: 25,
        duration_ms: TimeMs::from_hours(2).millis(),
        report_interval_ms: 60_000,
        noise: NoiseModel::none(),
        frac_loitering: 0.0,
        frac_gap: 0.0,
        frac_drifting: 0.0,
        n_rendezvous_pairs: 0,
    })
}

#[test]
fn csv_round_trip_preserves_reports() {
    let data = scenario();
    let csv: String = data
        .reports
        .iter()
        .map(|o| report_to_ais_csv(&o.report))
        .collect::<Vec<_>>()
        .join("\n");
    let (parsed, errors) = parse_ais_csv(&csv);
    assert!(errors.is_empty(), "round trip produced errors: {errors:?}");
    assert_eq!(parsed.len(), data.reports.len());
    for (orig, round) in data.reports.iter().zip(&parsed) {
        assert_eq!(orig.report.time, round.time);
        assert!((orig.report.lon - round.lon).abs() < 1e-5);
        assert!((orig.report.lat - round.lat).abs() < 1e-5);
    }
}

/// The mapped scenario answers every query shape — stars, a spatial and
/// a temporal filter, and a path through the moving object — with the
/// reference engine's rows at 1, 2 and 4 workers.
#[test]
fn mapped_store_answers_like_the_reference_at_every_worker_count() {
    let data = scenario();
    let mut graph = Graph::new();
    let mut mapper = RdfMapper::new();
    for v in &data.vessels {
        mapper.map_vessel_info(&mut graph, v);
    }
    for obs in &data.reports {
        mapper.map_report(&mut graph, &obs.report, None);
    }
    graph.commit();
    assert_eq!(graph.len() as u64, mapper.triples_emitted());

    let queries = [
        "SELECT ?v WHERE { ?v rdf:type da:Vessel }",
        "SELECT ?n WHERE { ?n da:hasGeometry ?g . FILTER st_within(?g, 23.0, 36.5, 25.0, 38.5) }",
        "SELECT ?n WHERE { ?n da:hasTemporalFeature ?t . FILTER t_between(?t, 0, 1800000) }",
        "SELECT ?v ?s WHERE { ?n da:ofMovingObject ?v . ?n da:speed ?s . FILTER (?s > 9.0) }",
        "SELECT ?n ?name WHERE { ?n da:ofMovingObject ?v . ?v da:name ?name }",
    ];
    // Rows as sorted rendered strings: a lost row cannot hide behind an
    // invented one the way it could behind a row count.
    let rendered = |rows: Vec<Vec<&Term>>| {
        let mut out: Vec<String> = rows
            .iter()
            .map(|r| {
                r.iter()
                    .map(|t| t.to_string())
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        out.sort();
        out
    };
    for q_text in queries {
        let q = parse_query(q_text).unwrap();
        let (reference, _) = execute_reference(&graph, &q);
        let want = rendered(
            reference
                .rows
                .iter()
                .map(|r| reference.decode_row(&graph, r))
                .collect(),
        );
        assert!(!want.is_empty(), "{q_text}");
        for workers in [1, 2, 4] {
            let (b, _, _) = execute_morsel(&graph, &q, &MorselConfig::with_workers(workers));
            let got = rendered(b.rows.iter().map(|r| b.decode_row(&graph, r)).collect());
            assert_eq!(got, want, "{workers} workers disagree on: {q_text}");
        }
    }
}
