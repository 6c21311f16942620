//! Complex-event *forecasting*: pattern Markov chains.
//!
//! Given a sequential pattern over an event-kind alphabet and historical
//! per-object event streams, a first-order Markov chain over event kinds
//! estimates the probability that a partially matched pattern completes
//! within the next `k` events. This is the "forecasting of complex events"
//! piece of the paper: instead of waiting for the final event, the engine
//! reports completion probabilities as prefixes materialise (experiment E9).

use datacron_model::EventKind;
use rustc_hash::FxHashMap;

/// A first-order Markov chain over [`EventKind`]s, with a pattern overlay.
#[derive(Debug, Clone, Default)]
pub struct PatternMarkovChain {
    /// Transition counts: kind → (next kind → count).
    counts: FxHashMap<EventKind, FxHashMap<EventKind, u64>>,
}

impl PatternMarkovChain {
    /// An untrained chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trains on one historical event-kind sequence (one object's low-level
    /// event stream in time order).
    pub fn train(&mut self, sequence: &[EventKind]) {
        for w in sequence.windows(2) {
            *self
                .counts
                .entry(w[0])
                .or_default()
                .entry(w[1])
                .or_insert(0) += 1;
        }
    }

    /// The transition probability `P(next | from)`; 0 when `from` unseen.
    pub fn transition_prob(&self, from: EventKind, next: EventKind) -> f64 {
        let Some(nexts) = self.counts.get(&from) else {
            return 0.0;
        };
        let total: u64 = nexts.values().sum();
        if total == 0 {
            return 0.0;
        }
        *nexts.get(&next).unwrap_or(&0) as f64 / total as f64
    }

    /// Probability that, starting from `current`, the remaining pattern
    /// suffix `remaining` completes within the next `budget` events.
    ///
    /// Dynamic programming over (suffix position, steps left): at each step
    /// the chain emits one event; an event matching the awaited suffix
    /// element advances the pattern, any other event consumes budget
    /// (skip-till-next-match semantics).
    pub fn completion_probability(
        &self,
        current: EventKind,
        remaining: &[EventKind],
        budget: usize,
    ) -> f64 {
        if remaining.is_empty() {
            return 1.0;
        }
        if budget == 0 {
            return 0.0;
        }
        // memo[(pos, steps, state)] — states are the (small) alphabet of
        // kinds seen in training plus `current`.
        let mut memo: FxHashMap<(usize, usize, EventKind), f64> = FxHashMap::default();
        self.complete_rec(current, remaining, 0, budget, &mut memo)
    }

    fn complete_rec(
        &self,
        state: EventKind,
        remaining: &[EventKind],
        pos: usize,
        budget: usize,
        memo: &mut FxHashMap<(usize, usize, EventKind), f64>,
    ) -> f64 {
        if pos == remaining.len() {
            return 1.0;
        }
        if budget == 0 {
            return 0.0;
        }
        if let Some(&v) = memo.get(&(pos, budget, state)) {
            return v;
        }
        let Some(nexts) = self.counts.get(&state) else {
            return 0.0;
        };
        let total: u64 = nexts.values().sum();
        if total == 0 {
            return 0.0;
        }
        let mut p = 0.0;
        // Clone keys to avoid borrowing issues with recursion.
        let options: Vec<(EventKind, u64)> = nexts.iter().map(|(k, c)| (*k, *c)).collect();
        for (kind, count) in options {
            let trans = count as f64 / total as f64;
            let advanced = if kind == remaining[pos] { pos + 1 } else { pos };
            p += trans * self.complete_rec(kind, remaining, advanced, budget - 1, memo);
        }
        memo.insert((pos, budget, state), p);
        p
    }

    /// Number of distinct kinds with outgoing transitions.
    pub fn state_count(&self) -> usize {
        self.counts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use EventKind::*;

    /// A deterministic world: Stop → Turn → SpeedChange → Stop → …
    fn cyclic_chain() -> PatternMarkovChain {
        let mut m = PatternMarkovChain::new();
        let seq = [
            StopStart,
            TurningPoint,
            SpeedChange,
            StopStart,
            TurningPoint,
            SpeedChange,
            StopStart,
        ];
        m.train(&seq);
        m
    }

    #[test]
    fn transition_probabilities_normalise() {
        let mut m = PatternMarkovChain::new();
        m.train(&[StopStart, TurningPoint, StopStart, SpeedChange]);
        let p_turn = m.transition_prob(StopStart, TurningPoint);
        let p_speed = m.transition_prob(StopStart, SpeedChange);
        assert!((p_turn - 0.5).abs() < 1e-9);
        assert!((p_speed - 0.5).abs() < 1e-9);
        assert_eq!(m.transition_prob(GapStart, GapEnd), 0.0);
    }

    #[test]
    fn deterministic_chain_completes_with_certainty() {
        let m = cyclic_chain();
        // From StopStart, the suffix [TurningPoint, SpeedChange] completes
        // in exactly 2 steps.
        let p = m.completion_probability(StopStart, &[TurningPoint, SpeedChange], 2);
        assert!((p - 1.0).abs() < 1e-9, "p = {p}");
        // With budget 1 it cannot.
        let p = m.completion_probability(StopStart, &[TurningPoint, SpeedChange], 1);
        assert_eq!(p, 0.0);
    }

    #[test]
    fn empty_suffix_is_already_complete() {
        let m = cyclic_chain();
        assert_eq!(m.completion_probability(StopStart, &[], 0), 1.0);
    }

    #[test]
    fn probability_monotone_in_budget() {
        let mut m = PatternMarkovChain::new();
        // A noisy chain: stop sometimes leads to gap, sometimes turn.
        m.train(&[
            StopStart,
            GapStart,
            GapEnd,
            StopStart,
            TurningPoint,
            StopStart,
            GapStart,
            GapEnd,
            TurningPoint,
            SpeedChange,
        ]);
        let suffix = [TurningPoint];
        let mut last = 0.0;
        for budget in 1..8 {
            let p = m.completion_probability(StopStart, &suffix, budget);
            assert!(p >= last - 1e-12, "not monotone at budget {budget}");
            assert!(p <= 1.0 + 1e-12);
            last = p;
        }
        assert!(last > 0.3, "plausible chain never completes: {last}");
    }

    #[test]
    fn impossible_suffix_probability_zero() {
        let m = cyclic_chain();
        // Landing never occurs in the training data.
        let p = m.completion_probability(StopStart, &[Landing], 10);
        assert_eq!(p, 0.0);
    }

    #[test]
    fn unseen_state_zero() {
        let m = cyclic_chain();
        assert_eq!(m.completion_probability(Takeoff, &[StopStart], 5), 0.0);
    }

    #[test]
    fn state_count() {
        let m = cyclic_chain();
        assert_eq!(m.state_count(), 3);
    }

    #[test]
    fn longer_budget_helps_skipping_noise() {
        let mut m = PatternMarkovChain::new();
        // stop → (noise turn)* → gap; the suffix [GapStart] needs budget to
        // skip the turns.
        m.train(&[
            StopStart,
            TurningPoint,
            TurningPoint,
            GapStart,
            StopStart,
            TurningPoint,
            GapStart,
        ]);
        let p1 = m.completion_probability(StopStart, &[GapStart], 1);
        let p3 = m.completion_probability(StopStart, &[GapStart], 3);
        assert!(p3 > p1);
    }
}
