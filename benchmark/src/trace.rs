//! Spans recorded from outside the program: the harness wraps each call
//! into a layer's public function, keeps the spans in a preallocated
//! buffer, and writes them out once the run is over.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Spans of one request share this.
    pub request: u32,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

/// Per span name: how often, how long, and how long outside child spans.
#[derive(Default, Clone, Copy)]
pub struct Total {
    pub count: u64,
    pub ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Later spans belong to a new request.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request: self.request,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let index = self.open.pop().expect("exit without enter");
        self.spans[index as usize].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals by name. Self time is a span's duration minus its direct
    /// children's; children never overlap, the tracer being single-threaded.
    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, Total> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let t = totals.entry(s.name).or_default();
            let ns = s.end_ns - s.start_ns;
            t.count += 1;
            t.ns += ns;
            t.self_ns += ns.saturating_sub(children);
        }
        totals
    }

    /// One JSON object: the names, then `[name, start_ns, end_ns, parent,
    /// request]` per span, parent −1 for a root.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let names: Vec<&'static str> = (self.spans.iter().map(|s| s.name))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let index: BTreeMap<&str, usize> = names.iter().enumerate().map(|(i, n)| (*n, i)).collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"names\":[{}],\"spans\":[",
            quoted.join(",")
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let comma = if i == 0 { "" } else { "," };
            write!(
                out,
                "{comma}[{},{},{},{parent},{}]",
                index[s.name], s.start_ns, s.end_ns, s.request
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::with_capacity(8);
        t.enter("outer");
        t.enter("inner");
        t.exit();
        t.enter("inner");
        t.enter("leaf");
        t.exit();
        t.exit();
        t.exit();
        // Fix the clock readings so the arithmetic is exact.
        let times = [(0, 100), (10, 30), (40, 90), (50, 70)];
        for (s, (start, end)) in t.spans.iter_mut().zip(times) {
            s.start_ns = start;
            s.end_ns = end;
        }
        let parents: Vec<u32> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NO_PARENT, 0, 0, 2]);
        let totals = t.totals();
        assert_eq!(
            (
                totals["outer"].count,
                totals["outer"].ns,
                totals["outer"].self_ns
            ),
            (1, 100, 30)
        );
        assert_eq!(
            (
                totals["inner"].count,
                totals["inner"].ns,
                totals["inner"].self_ns
            ),
            (2, 70, 50)
        );
        assert_eq!(
            (
                totals["leaf"].count,
                totals["leaf"].ns,
                totals["leaf"].self_ns
            ),
            (1, 20, 20)
        );
    }
}
