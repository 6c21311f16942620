//! Byte-mutation suite for `from_binary`: every single-byte flip of the
//! header, the term section (the dictionary's bulk restore) and the
//! triple section, and seeded random flips and truncations of the whole
//! payload, on a seeded graph.
//!
//! Each case must end in `Err` or in a graph that is whole: its ids a
//! bijection with its terms, every triple's ids decodable, and its own
//! bytes restoring to the same graph. None may panic, and none may
//! allocate more than a fixed multiple of the payload's size: a count the
//! bytes cannot back must be refused before anything is sized by it.
//!
//! The binary counts its heap with a global allocator, so it holds one
//! test: another running beside it would count in.

use datacron_geo::{GeoPoint, Rng, TimeMs};
use datacron_rdf::binary::BinError;
use datacron_rdf::{from_binary, to_binary, Graph, Term, Triple};
use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, with a count of the bytes live and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    // ordering: a statistic read by the one test thread; nothing is
    // published through it.
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed); // ordering: as above.
}

fn shrank(by: usize) {
    LIVE.fetch_sub(by, Relaxed); // ordering: as in `grew`.
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no memory
// the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout, as `GlobalAlloc::alloc` received it.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout, as received.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap bytes a restore may take per payload byte, beyond what restoring
/// an empty graph takes (the open dictionary chunk, the smallest table,
/// the empty indexes).
///
/// A term is at least 12 bytes on the wire once repeats are refused (a
/// variant tag and an integer; five-byte booleans repeat by the third),
/// and at most 96 in memory during a restore: 32 in the decoded `Vec`,
/// 32 in its chunk, and up to four 8-byte table slots. A string's heap
/// copy is no larger than its bytes. A triple is 12 bytes on the wire and
/// is held about five times over while the three indexes are built. A
/// term count the bytes could not back would size the decoded `Vec` at
/// 32 bytes per payload byte, which this bound refuses.
const BYTES_PER_PAYLOAD_BYTE: usize = 16;

/// A seeded graph over every term variant, with repeated objects so that
/// the dictionary holds fewer terms than the triples name.
fn seeded_graph(nodes: u32) -> Graph {
    let mut rng = Rng::seed_from_u64(41);
    let mut g = Graph::new();
    for i in 0..nodes {
        let s = Term::iri(format!("da:node/{i}"));
        let o = match rng.gen_range(0..7u32) {
            0 => Term::iri(format!("da:obj/{}", rng.gen_range(0..9u32))),
            1 => Term::string(format!("name {}", rng.gen_range(0..9u32))),
            2 => Term::integer(rng.gen_range(-50..50i64)),
            3 => Term::double(rng.gen_range(-1.0..1.0)),
            4 => Term::boolean(rng.gen_bool(0.5)),
            5 => Term::time(TimeMs(rng.gen_range(0..1_000_000i64))),
            _ => Term::point(GeoPoint::new(
                rng.gen_range(19.0..30.0),
                rng.gen_range(33.0..41.0),
            )),
        };
        g.insert(&s, &Term::iri("da:p"), &o);
        g.insert(&s, &Term::iri("rdf:type"), &Term::iri("da:Node"));
        if i % 4 == 0 {
            g.commit();
        }
    }
    g
}

/// Sorted triples and the terms in id order: what a restore must keep.
fn contents(g: &Graph) -> (Vec<Term>, Vec<Triple>) {
    let mut triples: Vec<Triple> = g.iter_triples().collect();
    triples.sort_unstable();
    (g.dict().iter().map(|(_, t)| t.clone()).collect(), triples)
}

/// Panics unless `g` is whole (see the module comment).
fn assert_whole(g: &Graph) {
    let dict = g.dict();
    for (id, term) in dict.iter() {
        assert_eq!(dict.lookup(term), Some(id), "{term:?} is not a bijection");
    }
    for t in g.iter_triples() {
        for id in [t.s, t.p, t.o] {
            assert!(
                dict.decode(id).is_some(),
                "triple id {} decodes to nothing",
                id.raw()
            );
        }
    }
    let again = from_binary(&to_binary(g)).expect("a restored graph serializes");
    assert_eq!(contents(&again), contents(g));
}

/// `from_binary(bytes)`, or `None` if it panicked, and the peak of the
/// heap bytes it held.
fn measured(bytes: &[u8]) -> (Option<Result<Graph, BinError>>, usize) {
    let before = LIVE.load(Relaxed); // ordering: as in `grew`.
    PEAK.store(before, Relaxed); // ordering: as in `grew`.
    let restored = catch_unwind(AssertUnwindSafe(|| from_binary(bytes))).ok();
    (restored, PEAK.load(Relaxed) - before) // ordering: as in `grew`.
}

/// Restores `bytes` and checks the outcome, allowing `fixed` heap bytes
/// plus [`BYTES_PER_PAYLOAD_BYTE`] per byte; `case` names it on failure.
/// Returns whether the restore succeeded.
fn restore(bytes: &[u8], fixed: usize, case: &str) -> bool {
    let (restored, peak) = measured(bytes);
    let Some(restored) = restored else {
        panic!("{case}: from_binary panicked");
    };
    let limit = fixed + BYTES_PER_PAYLOAD_BYTE * bytes.len();
    assert!(
        peak <= limit,
        "{case}: {peak} bytes allocated for a {}-byte payload (limit {limit})",
        bytes.len()
    );
    match restored {
        Ok(g) => {
            let whole = catch_unwind(AssertUnwindSafe(|| assert_whole(&g)));
            assert!(whole.is_ok(), "{case}: the restored graph is not whole");
            true
        }
        Err(_) => false,
    }
}

#[test]
fn mutated_payloads_end_in_an_error_or_a_whole_graph() {
    let (empty, fixed) = measured(&to_binary(&Graph::new()));
    assert!(matches!(empty, Some(Ok(_))));
    let g = seeded_graph(60);
    let bytes = to_binary(&g);
    assert!(restore(&bytes, fixed, "the payload itself"));
    // The layout: a u32 version and a u64 term count, the terms, then a
    // u64 triple count and 12 bytes per triple.
    let terms_end = bytes.len() - 8 - 12 * g.len();
    assert!(g.dict().len() > 60 && terms_end > 12 + 5 * g.dict().len());

    let (mut cases, mut restored) = (0usize, 0usize);
    let mut case = |b: &[u8], name: String| {
        cases += 1;
        restored += usize::from(restore(b, fixed, &name));
    };
    // Every byte, flipped three ways: its low bit (a length or id one
    // off), its high bit, and all of it.
    for at in 0..bytes.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut b = bytes.clone();
            b[at] ^= mask;
            case(&b, format!("byte {at} ^ {mask:#04x}"));
        }
    }
    // The term count rewritten to values no single flip reaches, up to
    // the largest the reader's own length check admits, in a payload
    // large enough that the bound's per-byte share outweighs its fixed
    // one.
    let large = to_binary(&seeded_graph(1_000));
    let rest = large.len() - 12;
    for n in [rest / 12, rest / 5, rest] {
        let mut b = large.clone();
        b[4..12].copy_from_slice(&u64::try_from(n).unwrap().to_le_bytes());
        case(&b, format!("term count {n}"));
    }
    // Random flips anywhere, one to four bytes at a time.
    let mut rng = Rng::seed_from_u64(7);
    for i in 0..3_000 {
        let mut b = bytes.clone();
        for _ in 0..rng.gen_range(1..=4u32) {
            let at = rng.gen_range(0..b.len());
            b[at] ^= rng.gen_range(1..=255u8);
        }
        case(&b, format!("random flips #{i}"));
    }
    // Truncations at every length, and a flip inside a truncated payload.
    for cut in 0..bytes.len() {
        case(&bytes[..cut], format!("cut at {cut}"));
        if cut > 0 {
            let mut b = bytes[..cut].to_vec();
            b[rng.gen_range(0..cut)] ^= 0x01;
            case(&b, format!("cut at {cut}, one flip"));
        }
    }
    // Some flips must have left a term distinct and the graph whole, and
    // most must have been refused: otherwise the suite tests nothing.
    assert!(
        restored > 0 && restored < cases / 2,
        "{restored} of {cases} restored"
    );
}
