//! Throughput instrumentation for operator stages.

use datacron_obs::Stopwatch;
use std::sync::atomic::{AtomicU64, Ordering};

/// A thread-safe event counter with elapsed-time rate reporting.
#[derive(Debug)]
pub struct Throughput {
    started: Stopwatch,
    count: AtomicU64,
}

impl Default for Throughput {
    fn default() -> Self {
        Self::new()
    }
}

impl Throughput {
    /// Starts counting now.
    pub fn new() -> Self {
        Self {
            started: Stopwatch::start(),
            count: AtomicU64::new(0),
        }
    }

    /// Records `n` events.
    pub fn add(&self, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    /// Total events recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Events per second since construction.
    pub fn rate_per_sec(&self) -> f64 {
        let secs = self.started.elapsed().as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.count() as f64 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_counts() {
        let t = Throughput::new();
        t.add(10);
        t.add(5);
        assert_eq!(t.count(), 15);
        assert!(t.rate_per_sec() > 0.0);
    }
}
