//! The operator abstraction and the stateless/stateful building blocks.

use crate::message::{Message, Record};
use crate::metrics::Throughput;
use datacron_geo::TimeMs;
use datacron_obs::{LatencyHistogram, Stopwatch};
use rustc_hash::FxHashMap;
use std::hash::Hash;
use std::sync::Arc;

/// A dataflow operator transforming an input stream into an output stream.
///
/// Operators receive records and watermarks and emit output messages through
/// the `out` callback. The runtime guarantees `on_watermark` values are
/// monotonically non-decreasing and forwards watermarks downstream itself —
/// operators only emit *records* unless they deliberately manipulate time.
pub trait Operator<I, O>: Send {
    /// Handles one input record.
    fn on_record(&mut self, rec: Record<I>, out: &mut dyn FnMut(Record<O>));

    /// Handles event-time progress. Default: no reaction (stateless ops).
    fn on_watermark(&mut self, _wm: TimeMs, _out: &mut dyn FnMut(Record<O>)) {}

    /// Called once when the input ends, to flush remaining state.
    fn on_end(&mut self, _out: &mut dyn FnMut(Record<O>)) {}

    /// Drives a whole message iterator through this operator, collecting the
    /// output messages (records interleaved with forwarded watermarks).
    /// Convenient for tests and single-threaded execution.
    fn run<It>(&mut self, input: It) -> Vec<Message<O>>
    where
        It: IntoIterator<Item = Message<I>>,
        Self: Sized,
    {
        let mut output = Vec::new();
        for msg in input {
            match msg {
                Message::Record(r) => {
                    self.on_record(r, &mut |o| output.push(Message::Record(o)));
                }
                Message::Watermark(wm) => {
                    self.on_watermark(wm, &mut |o| output.push(Message::Record(o)));
                    output.push(Message::Watermark(wm));
                }
                Message::End => {
                    self.on_end(&mut |o| output.push(Message::Record(o)));
                    output.push(Message::End);
                }
            }
        }
        output
    }
}

/// A stateless 1→1 transformation.
pub struct MapOp<F>(pub F);

impl<I, O, F> Operator<I, O> for MapOp<F>
where
    F: FnMut(I) -> O + Send,
{
    fn on_record(&mut self, rec: Record<I>, out: &mut dyn FnMut(Record<O>)) {
        let t = rec.event_time;
        out(Record::new(t, (self.0)(rec.payload)));
    }
}

/// A stateless filter.
pub struct FilterOp<F>(pub F);

impl<T, F> Operator<T, T> for FilterOp<F>
where
    T: Send,
    F: FnMut(&T) -> bool + Send,
{
    fn on_record(&mut self, rec: Record<T>, out: &mut dyn FnMut(Record<T>)) {
        if (self.0)(&rec.payload) {
            out(rec);
        }
    }
}

/// A stateless 1→N transformation.
pub struct FlatMapOp<F>(pub F);

impl<I, O, F, It> Operator<I, O> for FlatMapOp<F>
where
    F: FnMut(I) -> It + Send,
    It: IntoIterator<Item = O>,
{
    fn on_record(&mut self, rec: Record<I>, out: &mut dyn FnMut(Record<O>)) {
        let t = rec.event_time;
        for o in (self.0)(rec.payload) {
            out(Record::new(t, o));
        }
    }
}

/// A keyed stateful operator: per-key state `S`, user process function.
///
/// This is the workhorse under the in-situ compression and the CEP engine:
/// both keep per-object state and react to each report.
pub struct KeyedProcessOp<K, S, KF, PF> {
    key_fn: KF,
    process: PF,
    state: FxHashMap<K, S>,
}

impl<K, S, KF, PF> KeyedProcessOp<K, S, KF, PF> {
    /// Creates a keyed operator from a key extractor and a process function
    /// `fn(&key, &mut state, record, emit)`.
    pub fn new(key_fn: KF, process: PF) -> Self {
        Self {
            key_fn,
            process,
            state: FxHashMap::default(),
        }
    }

    /// Number of keys with live state.
    pub fn key_count(&self) -> usize {
        self.state.len()
    }
}

impl<I, O, K, S, KF, PF> Operator<I, O> for KeyedProcessOp<K, S, KF, PF>
where
    K: Eq + Hash + Clone + Send,
    S: Default + Send,
    KF: FnMut(&I) -> K + Send,
    PF: FnMut(&K, &mut S, Record<I>, &mut dyn FnMut(Record<O>)) + Send,
{
    fn on_record(&mut self, rec: Record<I>, out: &mut dyn FnMut(Record<O>)) {
        let key = (self.key_fn)(&rec.payload);
        let state = self.state.entry(key.clone()).or_default();
        (self.process)(&key, state, rec, out);
    }
}

/// Wraps any operator with per-record instrumentation: processing
/// latency lands in a shared histogram, input/output record counts in
/// shared [`Throughput`]s.
///
/// The `Arc` handles are the registration surface — the embedding layer
/// hands clones of them to a metrics registry (`datacron-obs` sits
/// *above* this crate, so the operator itself stays registry-agnostic)
/// while the wrapped operator keeps recording into the same storage.
pub struct InstrumentOp<Op> {
    inner: Op,
    latency: Arc<LatencyHistogram>,
    records_in: Arc<Throughput>,
    records_out: Arc<Throughput>,
}

impl<Op> InstrumentOp<Op> {
    /// Instruments `inner` with fresh metric storage.
    pub fn new(inner: Op) -> Self {
        Self {
            inner,
            latency: Arc::new(LatencyHistogram::new()),
            records_in: Arc::new(Throughput::new()),
            records_out: Arc::new(Throughput::new()),
        }
    }

    /// Per-record processing latency (shared handle).
    pub fn latency(&self) -> Arc<LatencyHistogram> {
        Arc::clone(&self.latency)
    }

    /// Input record counter (shared handle).
    pub fn records_in(&self) -> Arc<Throughput> {
        Arc::clone(&self.records_in)
    }

    /// Output record counter (shared handle).
    pub fn records_out(&self) -> Arc<Throughput> {
        Arc::clone(&self.records_out)
    }

    /// The wrapped operator.
    pub fn inner(&self) -> &Op {
        &self.inner
    }
}

impl<I, O, Op> Operator<I, O> for InstrumentOp<Op>
where
    Op: Operator<I, O>,
{
    fn on_record(&mut self, rec: Record<I>, out: &mut dyn FnMut(Record<O>)) {
        self.records_in.add(1);
        let outs = &self.records_out;
        let t = Stopwatch::start();
        self.inner.on_record(rec, &mut |o| {
            outs.add(1);
            out(o);
        });
        self.latency.observe(&t);
    }

    fn on_watermark(&mut self, wm: TimeMs, out: &mut dyn FnMut(Record<O>)) {
        let outs = &self.records_out;
        self.inner.on_watermark(wm, &mut |o| {
            outs.add(1);
            out(o);
        });
    }

    fn on_end(&mut self, out: &mut dyn FnMut(Record<O>)) {
        let outs = &self.records_out;
        self.inner.on_end(&mut |o| {
            outs.add(1);
            out(o);
        });
    }
}

/// Chains two operators into one.
pub struct Chain<A, B, M> {
    first: A,
    second: B,
    _mid: std::marker::PhantomData<fn() -> M>,
}

impl<A, B, M> Chain<A, B, M> {
    /// Composes `first` then `second`.
    pub fn new(first: A, second: B) -> Self {
        Self {
            first,
            second,
            _mid: std::marker::PhantomData,
        }
    }
}

impl<I, M, O, A, B> Operator<I, O> for Chain<A, B, M>
where
    A: Operator<I, M>,
    B: Operator<M, O>,
    M: Send,
{
    fn on_record(&mut self, rec: Record<I>, out: &mut dyn FnMut(Record<O>)) {
        let second = &mut self.second;
        self.first
            .on_record(rec, &mut |mid| second.on_record(mid, out));
    }

    fn on_watermark(&mut self, wm: TimeMs, out: &mut dyn FnMut(Record<O>)) {
        let second = &mut self.second;
        self.first
            .on_watermark(wm, &mut |mid| second.on_record(mid, out));
        second.on_watermark(wm, out);
    }

    fn on_end(&mut self, out: &mut dyn FnMut(Record<O>)) {
        let second = &mut self.second;
        self.first.on_end(&mut |mid| second.on_record(mid, out));
        second.on_end(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msgs(values: &[(i64, i32)]) -> Vec<Message<i32>> {
        let mut v: Vec<Message<i32>> = values
            .iter()
            .map(|&(t, x)| Message::record(TimeMs(t), x))
            .collect();
        v.push(Message::End);
        v
    }

    fn records<T: Copy>(out: &[Message<T>]) -> Vec<T> {
        out.iter()
            .filter_map(|m| m.as_record().map(|r| r.payload))
            .collect()
    }

    #[test]
    fn map_transforms_payloads() {
        let mut op = MapOp(|x: i32| x * 10);
        let out = op.run(msgs(&[(1, 1), (2, 2)]));
        assert_eq!(records(&out), vec![10, 20]);
        // Timestamps preserved; End forwarded.
        assert_eq!(out[0].as_record().unwrap().event_time, TimeMs(1));
        assert!(out.last().unwrap().is_end());
    }

    #[test]
    fn filter_drops() {
        let mut op = FilterOp(|x: &i32| *x % 2 == 0);
        let out = op.run(msgs(&[(1, 1), (2, 2), (3, 3), (4, 4)]));
        assert_eq!(records(&out), vec![2, 4]);
    }

    #[test]
    fn flat_map_expands() {
        let mut op = FlatMapOp(|x: i32| vec![x, -x]);
        let out = op.run(msgs(&[(1, 5)]));
        assert_eq!(records(&out), vec![5, -5]);
    }

    #[test]
    fn watermarks_forwarded() {
        let mut op = MapOp(|x: i32| x);
        let input = vec![
            Message::record(TimeMs(1), 7),
            Message::Watermark(TimeMs(1)),
            Message::End,
        ];
        let out = op.run(input);
        assert_eq!(out[1], Message::Watermark(TimeMs(1)));
    }

    #[test]
    fn keyed_process_keeps_per_key_state() {
        // Running count per key parity.
        let mut op = KeyedProcessOp::new(
            |x: &i32| x % 2,
            |_k: &i32,
             count: &mut i32,
             rec: Record<i32>,
             out: &mut dyn FnMut(Record<(i32, i32)>)| {
                *count += 1;
                out(Record::new(rec.event_time, (rec.payload, *count)));
            },
        );
        let out = op.run(msgs(&[(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)]));
        assert_eq!(records(&out), vec![(1, 1), (2, 1), (3, 2), (4, 2), (5, 3)]);
        assert_eq!(op.key_count(), 2);
    }

    #[test]
    fn instrument_counts_and_times() {
        let mut op = InstrumentOp::new(FlatMapOp(|x: i32| vec![x, -x]));
        let latency = op.latency();
        let ins = op.records_in();
        let outs = op.records_out();
        let out = op.run(msgs(&[(1, 5), (2, 7)]));
        assert_eq!(records(&out), vec![5, -5, 7, -7]);
        assert_eq!(ins.count(), 2);
        assert_eq!(outs.count(), 4);
        assert_eq!(latency.count(), 2);
        assert!(latency.quantile_us(1.0) <= latency.max_us());
    }

    #[test]
    fn chain_composes() {
        let mut op = Chain::new(MapOp(|x: i32| x + 1), FilterOp(|x: &i32| *x > 2));
        let out = op.run(msgs(&[(1, 0), (2, 2), (3, 9)]));
        assert_eq!(records(&out), vec![3, 10]);
    }
}
