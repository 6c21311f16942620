//! Rule identities, path scoping, the built-in allowlist, and the
//! lock-order manifest.
//!
//! Scoping policy (workspace mode):
//! - `no_panic` (L1) applies to non-test sources of the serving/durability
//!   crates: `server`, `storage`, `rdf`, `core`, `obs`, `repl`.
//! - `safety_comment` (L2) applies to every file, test code included —
//!   an `unsafe` block needs its justification no matter where it lives.
//! - `truncation` (L3) applies to the binary-format modules where a
//!   silent `as` truncation corrupts data on disk or on the wire.
//! - `wallclock` (L4) applies everywhere except `obs::clock` and the
//!   load-generation/bench tools that pace against real deadlines.
//! - `lock_order` (L5) applies to all non-test code.
//! - `reactor_blocking` (L6) and `lock_across_call` (L9) are call-graph
//!   rules over the item model; their scoping (reactor entry points,
//!   crate membership) lives in [`crate::model`].
//! - `ffi_retcheck` (L7) applies to the hand-declared FFI surface,
//!   `crates/net/src/sys.rs`.
//! - `atomic_audit` (L8) applies to all non-test code.
//!
//! When the binary is given explicit file arguments ("strict mode", used
//! for the lint fixtures), every rule applies to every file regardless of
//! this table.

use std::collections::BTreeSet;
use std::fmt;
use std::io::{self, Write as _};
use std::path::Path;

/// The nine repo-specific lint rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// L1: no `unwrap()`/`expect()`/`panic!`/`todo!` in non-test code of
    /// the serving/durability crates.
    NoPanic,
    /// L2: every `unsafe` block carries a `// SAFETY:` comment.
    SafetyComment,
    /// L3: no `as` integer casts in binary-format modules.
    Truncation,
    /// L4: no `Instant::now`/`SystemTime::now` outside clock modules.
    Wallclock,
    /// L5: nested lock acquisitions must appear in the lock-order manifest.
    LockOrder,
    /// L6: no blocking operation reachable from a reactor entry point
    /// (call-graph rule; vetted handbacks in `reactor-allow.manifest`).
    ReactorBlocking,
    /// L7: FFI/syscall call results must be checked, never discarded.
    FfiRetcheck,
    /// L8: `Ordering::Relaxed` requires an `// ordering:` justification
    /// or an `atomic-ordering.manifest` entry.
    AtomicAudit,
    /// L9: a lock guard live across a call into another workspace crate
    /// must be vetted (`lock -> crate:<name>`) in the lock-order manifest.
    LockAcrossCall,
}

impl Rule {
    /// All rules, in L1..L9 order.
    pub const ALL: [Rule; 9] = [
        Rule::NoPanic,
        Rule::SafetyComment,
        Rule::Truncation,
        Rule::Wallclock,
        Rule::LockOrder,
        Rule::ReactorBlocking,
        Rule::FfiRetcheck,
        Rule::AtomicAudit,
        Rule::LockAcrossCall,
    ];

    /// Short id, `L1`..`L9`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::NoPanic => "L1",
            Rule::SafetyComment => "L2",
            Rule::Truncation => "L3",
            Rule::Wallclock => "L4",
            Rule::LockOrder => "L5",
            Rule::ReactorBlocking => "L6",
            Rule::FfiRetcheck => "L7",
            Rule::AtomicAudit => "L8",
            Rule::LockAcrossCall => "L9",
        }
    }

    /// Name used in diagnostics and in `// lint:allow(<name>)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoPanic => "no_panic",
            Rule::SafetyComment => "safety_comment",
            Rule::Truncation => "truncation",
            Rule::Wallclock => "wallclock",
            Rule::LockOrder => "lock_order",
            Rule::ReactorBlocking => "reactor_blocking",
            Rule::FfiRetcheck => "ffi_retcheck",
            Rule::AtomicAudit => "atomic_audit",
            Rule::LockAcrossCall => "lock_across_call",
        }
    }

    /// Parses a rule name or id (`lock_order` or `L5`).
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL
            .iter()
            .copied()
            .find(|r| r.name() == name || r.id() == name)
    }

    /// Long-form description for `datacron-lint --explain <rule>`.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::NoPanic => {
                "L1 no_panic: `.unwrap()`, `.expect()`, `panic!`, `todo!` and \
                 `unimplemented!` are forbidden in non-test code of the serving and \
                 durability crates. A panic on the serving path takes the request \
                 (or, on the reactor thread, the whole box) down; return a typed \
                 error instead. Escape hatch: `// lint:allow(no_panic) <why>` when \
                 an invariant makes the panic unreachable."
            }
            Rule::SafetyComment => {
                "L2 safety_comment: every `unsafe` block must carry a `// SAFETY:` \
                 comment immediately above it (or as the first token inside it) \
                 stating the invariant that makes the block sound. Applies to test \
                 code too."
            }
            Rule::Truncation => {
                "L3 truncation: no `as <int>` casts in the binary-format modules \
                 (WAL, snapshot, RDF binary, codec, b64, net framing). A silent \
                 truncation there corrupts bytes on disk or on the wire; use \
                 From/TryFrom, or `// lint:allow(truncation)` with the \
                 widening/masking argument."
            }
            Rule::Wallclock => {
                "L4 wallclock: `Instant::now()`/`SystemTime::now()` only in \
                 `obs::clock` and the load/bench tools. Everything else \
                 takes time through the injectable clock so tests can control it."
            }
            Rule::LockOrder => {
                "L5 lock_order: acquiring lock B while holding lock A requires the \
                 edge `A -> B` in crates/analysis/lock-order.manifest. The manifest \
                 is the vetted partial order; the dynamic tracked-locks checker \
                 verifies it is acyclic at runtime. `--fix-manifest` appends \
                 unvetted pairs for review."
            }
            Rule::ReactorBlocking => {
                "L6 reactor_blocking: from every reactor entry point (methods of \
                 `impl Reactor`, impls of the `Handler` trait) no call chain may \
                 reach a blocking operation: file I/O, fsync, Condvar/Child wait, \
                 thread join, blocking channel recv, thread sleep. Handler \
                 callbacks run on the event-loop thread; one blocking call stalls \
                 every connection on the box. Hand the work to a worker and vet \
                 the handback function in crates/analysis/reactor-allow.manifest \
                 (`<fn> # why`). The call graph is name-resolved: same-crate \
                 definitions win, cross-crate edges only for unambiguous names — \
                 an over-approximation, so every vet entry records its reason."
            }
            Rule::FfiRetcheck => {
                "L7 ffi_retcheck: every call to a function declared in an \
                 `unsafe extern \"C\"` block must consume its return value — \
                 through `cvt()`, a binding, or a comparison. A discarded syscall \
                 result (statement position or `let _ =`) silently drops an errno; \
                 check it and surface the error."
            }
            Rule::AtomicAudit => {
                "L8 atomic_audit: an atomic access with `Ordering::Relaxed` needs \
                 either an `// ordering:` comment in the same statement (or \
                 trailing on the line) justifying why no happens-before edge is \
                 needed, or an entry `<atomic-name> # <why>` in \
                 crates/analysis/atomic-ordering.manifest. Relaxed is correct for \
                 monotonic counters and heuristics; it is wrong for \
                 publish/consume pairs (use Release/Acquire and say so in an \
                 `// ordering:` comment)."
            }
            Rule::LockAcrossCall => {
                "L9 lock_across_call: a lock guard live across a call that \
                 resolves into another workspace crate extends the critical \
                 section by an amount this crate cannot see (I/O, other locks). \
                 Vet the pair as `<lock> -> crate:<crate-name>` in \
                 lock-order.manifest, or release the guard before the call."
            }
        }
    }

    /// Short machine-readable fix hint attached to JSON diagnostics.
    pub fn fix_hint(self) -> &'static str {
        match self {
            Rule::NoPanic => "return a typed error; or lint:allow(no_panic) with the invariant",
            Rule::SafetyComment => "add a `// SAFETY:` comment stating the invariant",
            Rule::Truncation => "use From/TryFrom; or lint:allow(truncation) with the argument",
            Rule::Wallclock => "take time through the injectable clock",
            Rule::LockOrder => "vet the pair in lock-order.manifest (--fix-manifest)",
            Rule::ReactorBlocking => {
                "hand work to a worker; vet the handback in reactor-allow.manifest"
            }
            Rule::FfiRetcheck => "check the return value and surface errno",
            Rule::AtomicAudit => {
                "add an `// ordering:` comment or an atomic-ordering.manifest entry"
            }
            Rule::LockAcrossCall => "release the guard first, or vet `lock -> crate:<name>`",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Crate-source prefixes where `no_panic` is enforced. `obs` is in
/// scope because every metrics/trace call sits on the serving path — a
/// panic in an observer would take down the request it observes; `repl`
/// because a panic in follower apply or leader fan-out takes the
/// replica fleet with it; `net` because a panic on the reactor thread
/// takes every connection on the box down at once.
const NO_PANIC_SCOPE: [&str; 7] = [
    "crates/server/src/",
    "crates/storage/src/",
    "crates/rdf/src/",
    "crates/core/src/",
    "crates/obs/src/",
    "crates/repl/src/",
    "crates/net/src/",
];

/// Binary-format modules where `truncation` is enforced. The repl b64
/// codec is in scope: snapshot bytes cross the wire through it. The
/// net syscall layer and framing buffer are in scope: a silent `as`
/// truncation there corrupts epoll tokens or frame boundaries.
const TRUNCATION_SCOPE: [&str; 7] = [
    "crates/storage/src/binser.rs",
    "crates/storage/src/crc.rs",
    "crates/rdf/src/binary.rs",
    "crates/server/src/codec.rs",
    "crates/repl/src/b64.rs",
    "crates/net/src/sys.rs",
    "crates/net/src/buf.rs",
];

/// Files and trees allowed to read the wall clock. `obs::clock` is the
/// one designated abstraction; loadgen and the bench binaries pace an
/// open-loop workload against real deadlines.
const WALLCLOCK_ALLOW: [&str; 3] = [
    "crates/obs/src/clock.rs",
    "crates/server/src/bin/loadgen.rs",
    "crates/bench/",
];

/// True when `rule` should run on `path` (workspace-relative, `/`
/// separators) during a workspace walk.
pub fn rule_applies(rule: Rule, path: &str) -> bool {
    match rule {
        Rule::NoPanic => NO_PANIC_SCOPE.iter().any(|p| path.starts_with(p)),
        Rule::SafetyComment => true,
        Rule::Truncation => TRUNCATION_SCOPE.contains(&path),
        Rule::Wallclock => !WALLCLOCK_ALLOW.iter().any(|p| path.starts_with(p)),
        Rule::LockOrder => true,
        // Model rules: scoping is internal (entry points / crate
        // membership), the per-file walk never runs them.
        Rule::ReactorBlocking | Rule::LockAcrossCall => true,
        // The FFI surface is hand-declared in exactly one module.
        Rule::FfiRetcheck => path == "crates/net/src/sys.rs",
        Rule::AtomicAudit => true,
    }
}

/// True when `path` is test-only by location: integration tests, bench
/// harnesses, examples, and the lint engine's own fixtures.
pub fn path_is_test(path: &str) -> bool {
    path.starts_with("tests/")
        || path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
}

/// The checked lock-order manifest: the set of `held -> acquired`
/// pairs the repo has vetted as deadlock-free (the manifest is the
/// partial order; the dynamic `tracked-locks` checker verifies it has
/// no cycles at runtime).
#[derive(Debug, Default, Clone)]
pub struct Manifest {
    edges: BTreeSet<(String, String)>,
}

impl Manifest {
    /// Parses manifest text: one `held -> acquired` pair per line,
    /// `#` comments and blank lines ignored.
    pub fn parse(text: &str) -> Manifest {
        let mut edges = BTreeSet::new();
        for line in text.lines() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some((held, acq)) = line.split_once("->") {
                edges.insert((held.trim().to_string(), acq.trim().to_string()));
            }
        }
        Manifest { edges }
    }

    /// Loads a manifest file; a missing file is an empty manifest.
    pub fn load(path: &Path) -> io::Result<Manifest> {
        match std::fs::read_to_string(path) {
            Ok(text) => Ok(Manifest::parse(&text)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Manifest::default()),
            Err(e) => Err(e),
        }
    }

    /// True when acquiring `acquired` while holding `held` is vetted.
    pub fn allows(&self, held: &str, acquired: &str) -> bool {
        self.edges
            .contains(&(held.to_string(), acquired.to_string()))
    }

    /// Number of vetted pairs.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when no pairs are vetted.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Appends `pairs` (deduplicated against the current set) to the
    /// manifest file at `path`, creating it if needed. Returns the pairs
    /// actually added. Used by `datacron-lint --fix-manifest`.
    pub fn append_to_file(
        &mut self,
        path: &Path,
        pairs: &[(String, String)],
    ) -> io::Result<Vec<(String, String)>> {
        let fresh: Vec<(String, String)> = pairs
            .iter()
            .filter(|p| !self.edges.contains(*p))
            .cloned()
            .collect();
        if fresh.is_empty() {
            return Ok(fresh);
        }
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        for (held, acq) in &fresh {
            writeln!(f, "{held} -> {acq}")?;
            self.edges.insert((held.clone(), acq.clone()));
        }
        Ok(fresh)
    }
}

/// A manifest of vetted *names*, each required to carry a justification:
/// one `<name> # <why>` per line. Lines without a justification comment
/// do not vet anything — the why is the point. Used by L6
/// (`reactor-allow.manifest`: sanctioned worker-handback functions) and
/// L8 (`atomic-ordering.manifest`: atomics whose Relaxed accesses are
/// vetted, e.g. monotonic metrics counters).
#[derive(Debug, Default, Clone)]
pub struct NameManifest {
    entries: std::collections::BTreeMap<String, String>,
}

impl NameManifest {
    /// Parses manifest text. An entry counts only when the `# why` part
    /// is present and non-empty.
    pub fn parse(text: &str) -> NameManifest {
        let mut entries = std::collections::BTreeMap::new();
        for line in text.lines() {
            let Some((name, why)) = line.split_once('#') else {
                continue;
            };
            let (name, why) = (name.trim(), why.trim());
            if !name.is_empty() && !why.is_empty() {
                entries.insert(name.to_string(), why.to_string());
            }
        }
        NameManifest { entries }
    }

    /// Loads a manifest file; a missing file is an empty manifest.
    pub fn load(path: &Path) -> io::Result<NameManifest> {
        match std::fs::read_to_string(path) {
            Ok(text) => Ok(NameManifest::parse(&text)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(NameManifest::default()),
            Err(e) => Err(e),
        }
    }

    /// True when `name` is vetted (with a justification).
    pub fn vetted(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Number of vetted names.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is vetted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_manifest_requires_a_justification() {
        let m = NameManifest::parse(
            "wal_flush_worker # runs on the flush thread, not the loop\nbare_entry\n",
        );
        assert!(m.vetted("wal_flush_worker"));
        assert!(!m.vetted("bare_entry"), "no justification, no vet");
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn rule_names_and_ids_round_trip() {
        for rule in Rule::ALL {
            assert_eq!(Rule::from_name(rule.name()), Some(rule));
            assert_eq!(Rule::from_name(rule.id()), Some(rule));
            assert!(!rule.explain().is_empty());
            assert!(!rule.fix_hint().is_empty());
        }
        assert_eq!(Rule::from_name("L9"), Some(Rule::LockAcrossCall));
        assert_eq!(Rule::from_name("nope"), None);
    }

    #[test]
    fn new_rule_scoping() {
        assert!(rule_applies(Rule::FfiRetcheck, "crates/net/src/sys.rs"));
        assert!(!rule_applies(
            Rule::FfiRetcheck,
            "crates/net/src/reactor.rs"
        ));
        assert!(rule_applies(
            Rule::AtomicAudit,
            "crates/server/src/server.rs"
        ));
        assert!(rule_applies(
            Rule::AtomicAudit,
            "crates/obs/src/registry.rs"
        ));
    }

    #[test]
    fn manifest_parses_pairs_and_comments() {
        let m = Manifest::parse("# vetted orders\nstate -> storage\n\n  a->b  # inline\n");
        assert_eq!(m.len(), 2);
        assert!(m.allows("state", "storage"));
        assert!(m.allows("a", "b"));
        assert!(!m.allows("storage", "state"));
    }

    #[test]
    fn scoping_matches_policy() {
        assert!(rule_applies(Rule::NoPanic, "crates/server/src/server.rs"));
        // The morsel executor is on the serving path: L1 and L5 must
        // cover it (L5 covers all non-test code; the assertion pins the
        // executor module by name so a future scope change can't silently
        // drop it).
        assert!(rule_applies(Rule::NoPanic, "crates/rdf/src/morsel.rs"));
        assert!(rule_applies(Rule::LockOrder, "crates/rdf/src/morsel.rs"));
        assert!(rule_applies(Rule::Wallclock, "crates/rdf/src/morsel.rs"));
        // `engine::execute` is the executor's single-threaded entry
        // point, and its Relaxed sites (the `limit_hit` flag, the server's
        // per-query counters) must stay under the L8 audit.
        assert!(rule_applies(Rule::NoPanic, "crates/rdf/src/engine.rs"));
        assert!(rule_applies(Rule::AtomicAudit, "crates/rdf/src/morsel.rs"));
        assert!(rule_applies(
            Rule::AtomicAudit,
            "crates/server/src/state.rs"
        ));
        assert!(rule_applies(Rule::NoPanic, "crates/obs/src/registry.rs"));
        assert!(rule_applies(Rule::NoPanic, "crates/repl/src/follower.rs"));
        // The reactor runs every connection on one thread: L1, L4 and L5
        // must cover it (a panic there drops the whole box; wall-clock
        // reads there break injected-clock tests).
        assert!(rule_applies(Rule::NoPanic, "crates/net/src/reactor.rs"));
        assert!(rule_applies(Rule::LockOrder, "crates/net/src/reactor.rs"));
        assert!(rule_applies(Rule::Wallclock, "crates/net/src/reactor.rs"));
        assert!(rule_applies(Rule::Truncation, "crates/net/src/sys.rs"));
        assert!(rule_applies(Rule::Truncation, "crates/net/src/buf.rs"));
        assert!(!rule_applies(Rule::Truncation, "crates/net/src/reactor.rs"));
        assert!(!rule_applies(Rule::NoPanic, "crates/viz/src/heatmap.rs"));
        assert!(rule_applies(Rule::Truncation, "crates/storage/src/crc.rs"));
        assert!(rule_applies(Rule::Truncation, "crates/repl/src/b64.rs"));
        assert!(!rule_applies(Rule::Truncation, "crates/storage/src/wal.rs"));
        assert!(!rule_applies(Rule::Wallclock, "crates/obs/src/clock.rs"));
        assert!(rule_applies(Rule::Wallclock, "crates/obs/src/histogram.rs"));
        assert!(rule_applies(
            Rule::Wallclock,
            "crates/stream/src/metrics.rs"
        ));
        assert!(!rule_applies(
            Rule::Wallclock,
            "crates/bench/src/bin/report.rs"
        ));
        assert!(rule_applies(Rule::Wallclock, "crates/core/src/pipeline.rs"));
        assert!(rule_applies(
            Rule::SafetyComment,
            "tests/integration_server.rs"
        ));
    }

    #[test]
    fn test_paths_detected() {
        assert!(path_is_test("tests/integration_server.rs"));
        assert!(path_is_test("crates/link/tests/end_to_end.rs"));
        assert!(!path_is_test("crates/server/src/server.rs"));
    }
}
