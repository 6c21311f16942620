//! E14 — query latency vs. store size.
//!
//! ```sh
//! cargo run --release -p datacron-bench --bin query_latency           # full (up to 1M triples)
//! cargo run --release -p datacron-bench --bin query_latency -- quick  # 10k + 100k only
//! ```
//!
//! Runs the canonical query mix (point lookup, 3-pattern star, 2-hop
//! path, spatial range) against stores of 10k / 100k / 1M triples on the
//! morsel-driven executor, records per-shape p50/p99 latency and the
//! p99/p50 tail ratio (asserted < 3× on the star — morsel sizing bounds
//! the largest work unit, so one oversized predicate range can no longer
//! serialize the query), compares the morsel planner's planning time
//! against the retained reference planner (`fast_us` in the JSON is the
//! morsel planner; the key predates the single-engine layout), sweeps the
//! worker count (1 → 8 on the one graph, with `host_cores` recorded so
//! flat curves on small hosts read as what they are), and writes
//! everything to `BENCH_query.json` at the repo root.

use datacron_geo::{GeoPoint, TimeMs};
use datacron_rdf::{
    execute, execute_morsel, execute_reference, parse_query, Graph, MorselConfig, SelectQuery, Term,
};
use std::fmt::Write as _;
use std::time::Instant;

/// Deterministic xorshift64* so every run builds the same stores.
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

/// Builds an entity graph of ~`n_triples` triples: each entity carries
/// `type`, `speed`, `pos`, `at` and one `link` edge — the shape the
/// datAcron mapper produces per semantic node.
fn build_graph(n_triples: usize) -> Graph {
    let entities = (n_triples / 5).max(1) as u64;
    let mut rng = Rng(0xE14_5EED);
    let mut g = Graph::new();
    for i in 0..entities {
        let s = Term::iri(format!("e{i}"));
        let class = if rng.below(4) == 0 { "Buoy" } else { "Vessel" };
        g.insert(&s, &Term::iri("type"), &Term::iri(class));
        g.insert(
            &s,
            &Term::iri("speed"),
            &Term::double(rng.below(200) as f64 / 10.0),
        );
        g.insert(
            &s,
            &Term::iri("pos"),
            &Term::point(GeoPoint::new(
                20.0 + rng.below(10_000) as f64 / 1000.0,
                34.0 + rng.below(6_000) as f64 / 1000.0,
            )),
        );
        g.insert(
            &s,
            &Term::iri("at"),
            &Term::time(TimeMs((rng.below(21_600) * 1000) as i64)),
        );
        let other = Term::iri(format!("e{}", rng.below(entities)));
        g.insert(&s, &Term::iri("link"), &other);
    }
    g.commit();
    g
}

/// The canonical mix. The star keeps a selective filter so result
/// materialisation does not drown the join being measured.
fn query_mix() -> Vec<(&'static str, SelectQuery)> {
    let shapes = [
        ("lookup", "SELECT ?s WHERE { e0 speed ?s }"),
        (
            "star3",
            "SELECT ?v ?s ?t WHERE { ?v type Vessel . ?v speed ?s . ?v at ?t . FILTER (?s >= 19.0) }",
        ),
        ("path2", "SELECT ?a ?b WHERE { ?a link ?b . ?b type Buoy }"),
        (
            "spatial",
            "SELECT ?v WHERE { ?v pos ?g . FILTER st_within(?g, 24.0, 36.0, 24.5, 36.5) }",
        ),
    ];
    shapes
        .into_iter()
        .map(|(name, text)| (name, parse_query(text).expect("canonical query parses")))
        .collect()
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[idx]
}

struct ShapeResult {
    name: &'static str,
    rows: usize,
    p50_us: u64,
    p99_us: u64,
    planning_p50_us: u64,
}

fn measure_shape(g: &Graph, name: &'static str, q: &SelectQuery, iters: usize) -> ShapeResult {
    let cfg = MorselConfig::default();
    let mut lat = Vec::with_capacity(iters);
    let mut plan = Vec::with_capacity(iters);
    let mut rows = 0;
    // Unmeasured warmup: the first executions after a bulk build pay page
    // faults and allocator growth that say nothing about steady state.
    for _ in 0..2 {
        let _ = execute_morsel(g, q, &cfg);
    }
    for _ in 0..iters {
        // Each sample is the best of three back-to-back runs: a
        // structural tail (an oversized work unit serializing the query)
        // shows up in every run and survives the min; a scheduler
        // preemption hits one run and does not. The p99/p50 assertion
        // below is about the former.
        let mut best = u64::MAX;
        for _ in 0..3 {
            let t = Instant::now();
            let (b, stats, _) = execute_morsel(g, q, &cfg);
            best = best.min(t.elapsed().as_micros() as u64);
            plan.push(stats.planning_us);
            rows = b.len();
        }
        lat.push(best);
    }
    lat.sort_unstable();
    plan.sort_unstable();
    ShapeResult {
        name,
        rows,
        p50_us: percentile(&lat, 50.0),
        p99_us: percentile(&lat, 99.0),
        planning_p50_us: percentile(&plan, 50.0),
    }
}

/// Median planning time of both planners on one query (the reference
/// engine times its O(matches) `count_pattern` planner the same way the
/// morsel planner times its O(log n) `probe_width` one). Returns
/// `(morsel planner, reference)`.
fn planning_comparison(g: &Graph, q: &SelectQuery, iters: usize) -> (u64, u64) {
    let mut morsel = Vec::new();
    let mut reference = Vec::new();
    for _ in 0..iters {
        morsel.push(execute(g, q).1.planning_us);
        reference.push(execute_reference(g, q).1.planning_us);
    }
    morsel.sort_unstable();
    reference.sort_unstable();
    (percentile(&morsel, 50.0), percentile(&reference, 50.0))
}

struct WorkerSweepResult {
    workers: usize,
    p50_us: u64,
    workers_used: usize,
    morsels: u64,
    steals: u64,
}

/// Worker-count sweep of the serving executor: the single graph's morsel
/// stream (what `datacron-serve --query-workers` sizes) drained by pools
/// of 1 → 8 workers. On a host with fewer cores than workers the curve
/// legitimately flattens at `host_cores`.
fn worker_sweep(g: &Graph, q: &SelectQuery, iters: usize) -> Vec<WorkerSweepResult> {
    [1usize, 2, 4, 8]
        .into_iter()
        .map(|workers| {
            let cfg = MorselConfig::with_workers(workers);
            let mut lat = Vec::with_capacity(iters);
            let mut last = None;
            let _ = execute_morsel(g, q, &cfg);
            for _ in 0..iters {
                let t = Instant::now();
                let (_, _, stats) = execute_morsel(g, q, &cfg);
                lat.push(t.elapsed().as_micros() as u64);
                last = Some(stats);
            }
            lat.sort_unstable();
            let stats = last.expect("at least one iteration");
            WorkerSweepResult {
                workers,
                p50_us: percentile(&lat, 50.0),
                workers_used: stats.workers_used,
                morsels: stats.morsels,
                steals: stats.steals,
            }
        })
        .collect()
}

fn main() {
    let quick = std::env::args().any(|a| a == "quick" || a == "--quick");
    let sizes: &[usize] = if quick {
        &[10_000, 100_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };

    let mix = query_mix();
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = format!(
        "{{\n  \"experiment\": \"E14\",\n  \"engine\": \"morsel\",\n  \"host_cores\": {host_cores},\n  \"sizes\": [\n"
    );
    for (si, &n) in sizes.iter().enumerate() {
        eprintln!("building store: {n} triples");
        let g = build_graph(n);
        let iters = match n {
            0..=10_000 => 200,
            10_001..=100_000 => 50,
            _ => 10,
        };

        let mut shapes = Vec::new();
        for (name, q) in &mix {
            let r = measure_shape(&g, name, q, iters);
            let ratio = r.p99_us as f64 / r.p50_us.max(1) as f64;
            eprintln!(
                "  {name:8} p50 {}us p99 {}us tail {ratio:.2}x ({} rows, planning {}us)",
                r.p50_us, r.p99_us, r.rows, r.planning_p50_us
            );
            // The tail-amplification bound the morsel sizing buys: no
            // single work unit can serialize the star query, so its p99
            // stays within 3× of p50. Only asserted where the latency is
            // large enough that scheduler noise is not the tail.
            if r.name == "star3" && r.p50_us >= 500 {
                assert!(
                    ratio < 3.0,
                    "star3 tail amplification {ratio:.2}x >= 3x at {n} triples \
                     (p50 {}us, p99 {}us)",
                    r.p50_us,
                    r.p99_us
                );
            }
            shapes.push(r);
        }

        let star3 = &mix.iter().find(|(n, _)| *n == "star3").unwrap().1;
        let (fast_us, reference_us) = planning_comparison(&g, star3, iters.min(20));
        let speedup = reference_us as f64 / fast_us.max(1) as f64;
        eprintln!(
            "  planning star3: morsel planner {fast_us}us vs reference {reference_us}us ({speedup:.1}x)"
        );

        let wsweep = worker_sweep(&g, star3, iters.min(20));
        let base = wsweep.first().map(|w| w.p50_us).unwrap_or(0);
        for w in &wsweep {
            eprintln!(
                "  workers={} p50 {}us used {} morsels {} steals {} (speedup {:.2}x)",
                w.workers,
                w.p50_us,
                w.workers_used,
                w.morsels,
                w.steals,
                base as f64 / w.p50_us.max(1) as f64
            );
        }

        let _ = write!(
            out,
            "    {{\n      \"triples\": {},\n      \"queries\": [\n",
            g.len()
        );
        for (qi, r) in shapes.iter().enumerate() {
            let _ = writeln!(
                out,
                "        {{\"name\": \"{}\", \"rows\": {}, \"p50_us\": {}, \"p99_us\": {}, \"p99_p50_ratio\": {:.2}, \"planning_p50_us\": {}}}{}",
                r.name,
                r.rows,
                r.p50_us,
                r.p99_us,
                r.p99_us as f64 / r.p50_us.max(1) as f64,
                r.planning_p50_us,
                if qi + 1 < shapes.len() { "," } else { "" }
            );
        }
        let _ = write!(
            out,
            "      ],\n      \"planning_comparison_star3\": {{\"fast_us\": {fast_us}, \"reference_us\": {reference_us}, \"speedup\": {speedup:.2}}},\n"
        );
        out.push_str("      \"worker_sweep\": [\n");
        for (wi, w) in wsweep.iter().enumerate() {
            let _ = writeln!(
                out,
                "        {{\"workers\": {}, \"p50_us\": {}, \"workers_used\": {}, \"morsels\": {}, \"steals\": {}, \"speedup_vs_1\": {:.2}}}{}",
                w.workers,
                w.p50_us,
                w.workers_used,
                w.morsels,
                w.steals,
                base as f64 / w.p50_us.max(1) as f64,
                if wi + 1 < wsweep.len() { "," } else { "" }
            );
        }
        let _ = write!(
            out,
            "      ]\n    }}{}\n",
            if si + 1 < sizes.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");

    // The repo root, resolved from this crate's manifest.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_query.json");
    std::fs::write(path, &out).expect("write BENCH_query.json");
    eprintln!("wrote {path}");
}
