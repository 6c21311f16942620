//! Lightweight per-request trace spans.
//!
//! A [`Trace`] is created when a request starts and accumulates named
//! [`Span`]s (queue wait, planning, exec, WAL append, serialize, …) as
//! the request moves through the server. Spans may nest or overlap —
//! each is an independent `(name, start, duration)` measurement against
//! the trace's injected [`ClockSource`], not a strict tree. Finished
//! traces feed the slow-query log's breakdowns.

use crate::clock::ClockSource;
use std::sync::Arc;

/// One named measurement inside a trace, microseconds relative to the
/// trace start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span name, e.g. `"exec"` or `"wal_append"`.
    pub name: &'static str,
    /// Offset from the trace start, µs.
    pub start_us: u64,
    /// Span duration, µs.
    pub dur_us: u64,
}

/// A per-request span accumulator against an injected clock.
#[derive(Debug)]
pub struct Trace {
    clock: Arc<dyn ClockSource>,
    t0: u64,
    spans: Vec<Span>,
}

impl Trace {
    /// Starts a trace now.
    pub fn start(clock: Arc<dyn ClockSource>) -> Self {
        let t0 = clock.now_us();
        Self {
            clock,
            t0,
            spans: Vec::new(),
        }
    }

    /// A raw clock reading to pass to [`Trace::end_span`] later.
    pub fn begin(&self) -> u64 {
        self.clock.now_us()
    }

    /// Closes a span opened with [`Trace::begin`]; returns its
    /// duration, µs, for callers that also feed a histogram.
    pub fn end_span(&mut self, name: &'static str, begin_us: u64) -> u64 {
        let dur_us = self.clock.now_us().saturating_sub(begin_us);
        self.spans.push(Span {
            name,
            start_us: begin_us.saturating_sub(self.t0),
            dur_us,
        });
        dur_us
    }

    /// Records an externally measured span of `dur_us`, anchored at the
    /// current clock reading minus its duration (best effort).
    pub fn add_span_us(&mut self, name: &'static str, dur_us: u64) {
        let now = self.clock.now_us();
        self.spans.push(Span {
            name,
            start_us: now.saturating_sub(self.t0).saturating_sub(dur_us),
            dur_us,
        });
    }

    /// Microseconds since the trace started.
    pub fn total_us(&self) -> u64 {
        self.clock.now_us().saturating_sub(self.t0)
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consumes the trace, returning its spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn spans_measure_against_injected_clock() {
        let clock = Arc::new(ManualClock::new());
        clock.set_us(1_000);
        let mut trace = Trace::start(Arc::clone(&clock) as Arc<dyn ClockSource>);
        let b = trace.begin();
        clock.advance_us(250);
        trace.end_span("exec", b);
        clock.advance_us(50);
        assert_eq!(trace.total_us(), 300);
        assert_eq!(
            trace.spans(),
            &[Span {
                name: "exec",
                start_us: 0,
                dur_us: 250
            }]
        );
    }

    #[test]
    fn external_span_is_anchored_before_now() {
        let clock = Arc::new(ManualClock::new());
        let mut trace = Trace::start(Arc::clone(&clock) as Arc<dyn ClockSource>);
        clock.advance_us(500);
        trace.add_span_us("queue_wait", 200);
        let spans = trace.into_spans();
        assert_eq!(spans[0].dur_us, 200);
        assert_eq!(spans[0].start_us, 300);
    }

    #[test]
    fn overlapping_spans_coexist() {
        let clock = Arc::new(ManualClock::new());
        let mut trace = Trace::start(Arc::clone(&clock) as Arc<dyn ClockSource>);
        let outer = trace.begin();
        clock.advance_us(10);
        let inner = trace.begin();
        clock.advance_us(5);
        trace.end_span("inner", inner);
        trace.end_span("outer", outer);
        assert_eq!(trace.spans().len(), 2);
        assert_eq!(trace.spans()[0].dur_us, 5);
        assert_eq!(trace.spans()[1].dur_us, 15);
    }
}
