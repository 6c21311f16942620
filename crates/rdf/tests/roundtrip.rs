//! Serialization property suite: a graph dumped and reloaded through the
//! N-Triples text codec *and* through the binary snapshot codec must
//! answer the randomized executor query suite (`fastpath.rs`) identically to the
//! original — same rows, same statistics-bearing structure.
//!
//! Written as seeded randomized tests (deterministic xorshift64*, repo
//! idiom) so every failure reproduces from the seed alone.

use datacron_geo::{GeoPoint, TimeMs};
use datacron_rdf::{
    execute, from_binary, from_ntriples, parse_query, to_binary, to_ntriples, Graph, Term, Triple,
};

/// Deterministic xorshift64*.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A randomized entity graph exercising every term variant the codecs
/// carry: IRIs, strings, integers, doubles, booleans, times, and points.
fn random_graph(rng: &mut Rng, entities: u64, links: u64) -> Graph {
    let mut g = Graph::new();
    for i in 0..entities {
        let s = Term::iri(format!("s{i}"));
        let class = if rng.below(3) == 0 { "Buoy" } else { "Vessel" };
        g.insert(&s, &Term::iri("type"), &Term::iri(class));
        g.insert(
            &s,
            &Term::iri("speed"),
            &Term::double(rng.below(20) as f64 / 2.0),
        );
        g.insert(
            &s,
            &Term::iri("seen"),
            &Term::time(TimeMs(rng.below(1_000_000) as i64)),
        );
        g.insert(
            &s,
            &Term::iri("pos"),
            &Term::point(GeoPoint::new(
                rng.below(360) as f64 - 180.0 + 0.5,
                rng.below(180) as f64 - 90.0 + 0.25,
            )),
        );
        g.insert(&s, &Term::iri("active"), &Term::boolean(rng.below(2) == 0));
        g.insert(
            &s,
            &Term::iri("mmsi"),
            &Term::integer(200_000_000 + rng.below(99_999_999) as i64),
        );
        g.insert(
            &s,
            &Term::iri("name"),
            // Quotes and spaces stress the text codec's escaping; the
            // line-based format cannot carry raw newlines, so none here.
            &Term::string(format!("VESSEL \"{i}\" CLASS A")),
        );
    }
    for _ in 0..links {
        let a = Term::iri(format!("s{}", rng.below(entities)));
        let b = Term::iri(format!("s{}", rng.below(entities)));
        g.insert(&a, &Term::iri("link"), &b);
    }
    g
}

/// The `fastpath.rs` suite's query shapes, answerable on `random_graph`.
const QUERY_SHAPES: &[&str] = &[
    "SELECT ?v WHERE { ?v type Vessel }",
    "SELECT ?v ?s WHERE { ?v type Vessel . ?v speed ?s }",
    "SELECT ?a ?b WHERE { ?a link ?b . ?b type Buoy }",
    "SELECT ?a ?s WHERE { ?a link ?b . ?b speed ?s . ?a type Vessel }",
    "SELECT ?v ?s WHERE { ?v type Vessel . ?v speed ?s . FILTER (?s >= 4.0) }",
    "SELECT ?t WHERE { ?v type ?t }",
    "SELECT ?v ?n WHERE { ?v type Vessel . ?v name ?n }",
    "SELECT ?v ?m WHERE { ?v mmsi ?m . ?v active true }",
];

/// Rows rendered to decoded terms and sorted, so two graphs can be
/// compared even when their dictionaries assign different ids (the text
/// codec makes no id-stability promise; the binary codec does).
fn answers(g: &Graph, shape: &str) -> Vec<String> {
    let q = parse_query(shape).unwrap();
    let (bindings, _) = execute(g, &q);
    let mut rows: Vec<String> = bindings
        .rows
        .iter()
        .map(|row| {
            bindings
                .decode_row(g, row)
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    rows.sort_unstable();
    rows
}

#[test]
fn text_and_binary_round_trips_answer_queries_identically() {
    let mut rng = Rng(0x5EED_0107);
    for round in 0..8 {
        let entities = 5 + rng.below(40);
        let mut g = random_graph(&mut rng, entities, entities * 2);
        g.commit();

        let via_text = from_ntriples(&to_ntriples(&g)).expect("text round trip");
        let via_binary = from_binary(&to_binary(&g)).expect("binary round trip");
        assert_eq!(via_text.len(), g.len(), "round {round}: text triple count");
        assert_eq!(
            via_binary.len(),
            g.len(),
            "round {round}: binary triple count"
        );

        for shape in QUERY_SHAPES {
            let want = answers(&g, shape);
            assert_eq!(
                answers(&via_text, shape),
                want,
                "round {round}, text codec: {shape}"
            );
            assert_eq!(
                answers(&via_binary, shape),
                want,
                "round {round}, binary codec: {shape}"
            );
        }
    }
}

/// The binary codec additionally promises dictionary-id stability, which
/// the WAL+snapshot recovery path relies on, on randomized graphs with
/// inserts pending: the snapshot holds the graph as of its last commit,
/// every committed term at its id, and none of the pending inserts.
#[test]
fn binary_round_trip_is_id_stable_even_with_pending_tail() {
    let mut rng = Rng(0x5EED_0208);
    for round in 0..6 {
        let entities = 5 + rng.below(30);
        let mut g = random_graph(&mut rng, entities, entities);
        g.commit();
        let terms = g.dict().len();
        // Inserts not yet committed, one of them with a new term.
        let x = Term::iri("tail-entity");
        g.insert(&x, &Term::iri("type"), &Term::iri("Vessel"));
        g.insert(&x, &Term::iri("speed"), &Term::double(3.5));

        let back = from_binary(&to_binary(&g)).expect("binary round trip");
        assert_eq!(back.len(), g.len(), "round {round}");
        assert_eq!(back.dict().len(), terms, "round {round}");
        assert_eq!(back.dict().lookup(&x), None, "round {round}");
        for (id, term) in g.dict().iter().take(terms) {
            assert_eq!(
                back.decode(id),
                Some(term),
                "round {round}: id {} must decode to the same term",
                id.raw()
            );
        }
        let mut a: Vec<Triple> = g.iter_triples().collect();
        let mut b: Vec<Triple> = back.iter_triples().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "round {round}: triples by raw id");
    }
}

/// Double-encode/decode is a fixed point: the binary codec is id-stable,
/// so re-serializing a reloaded graph is byte-identical — snapshots of
/// recovered state can't drift. The text codec reassigns ids in line
/// order (dump order follows the SPO index), so its fixed point is the
/// line *set*, not the byte stream.
#[test]
fn round_trips_are_fixed_points() {
    let mut rng = Rng(0x5EED_0309);
    let mut g = random_graph(&mut rng, 25, 50);
    g.commit();

    let bin1 = to_binary(&g);
    let bin2 = to_binary(&from_binary(&bin1).unwrap());
    assert_eq!(bin1, bin2, "binary codec must be a byte-level fixed point");

    let sorted_lines = |dump: &str| {
        let mut lines: Vec<String> = dump.lines().map(str::to_string).collect();
        lines.sort_unstable();
        lines
    };
    let text1 = to_ntriples(&from_ntriples(&to_ntriples(&g)).unwrap());
    let text2 = to_ntriples(&from_ntriples(&text1).unwrap());
    assert_eq!(
        sorted_lines(&text1),
        sorted_lines(&text2),
        "text codec must be a line-set fixed point"
    );
    assert_eq!(sorted_lines(&to_ntriples(&g)), sorted_lines(&text1));
}
