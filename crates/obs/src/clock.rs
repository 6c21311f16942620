//! The workspace's one clock module: the only library file that reads
//! the wall clock (lint rule L4, `wallclock`).
//!
//! Elapsed time is measured through [`Stopwatch`]; code whose timing
//! must be testable takes a [`ClockSource`] instead. Production code
//! injects [`MonotonicClock`] (a [`Stopwatch`] behind the trait); tests
//! inject [`ManualClock`] and advance time deterministically. Funnelling
//! `Instant::now()` through a single module keeps timing behaviour
//! auditable and gives a simulated-clock backend exactly one seam to
//! replace.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonic stopwatch, started at construction.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Self {
            started: Instant::now(),
        }
    }

    /// Elapsed time since start (or the last [`Self::restart`]).
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Elapsed whole microseconds, saturating at `u64::MAX`.
    pub fn elapsed_us(&self) -> u64 {
        u64::try_from(self.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Elapsed whole milliseconds, saturating at `u64::MAX`.
    pub fn elapsed_ms(&self) -> u64 {
        u64::try_from(self.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Restarts the stopwatch and returns the lap time.
    pub fn restart(&mut self) -> Duration {
        let lap = self.started.elapsed();
        self.started = Instant::now();
        lap
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

/// A monotonic microsecond clock with an arbitrary origin.
///
/// Only *differences* between readings are meaningful; the origin is
/// whenever the source was created (or wherever a [`ManualClock`] was
/// set). Implementations must be monotonic: a later call never returns
/// a smaller value.
pub trait ClockSource: Send + Sync + fmt::Debug {
    /// Microseconds elapsed since this source's origin.
    fn now_us(&self) -> u64;
}

/// The production clock: monotonic microseconds since construction,
/// read through a [`Stopwatch`].
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Stopwatch,
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl MonotonicClock {
    /// A clock whose origin is now.
    pub fn new() -> Self {
        Self {
            origin: Stopwatch::start(),
        }
    }
}

impl ClockSource for MonotonicClock {
    fn now_us(&self) -> u64 {
        self.origin.elapsed_us()
    }
}

/// A test clock that only moves when told to.
#[derive(Debug, Default)]
pub struct ManualClock {
    now_us: AtomicU64,
}

impl ManualClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `us` microseconds.
    pub fn advance_us(&self, us: u64) {
        self.now_us.fetch_add(us, Ordering::SeqCst);
    }

    /// Sets the absolute reading. Monotonicity is the caller's contract:
    /// setting the clock backwards violates [`ClockSource`].
    pub fn set_us(&self, us: u64) {
        self.now_us.store(us, Ordering::SeqCst);
    }
}

impl ClockSource for ManualClock {
    fn now_us(&self) -> u64 {
        self.now_us.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_advances() {
        let sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(2));
        assert!(sw.elapsed() >= Duration::from_millis(1));
        assert!(sw.elapsed_us() >= 1000);
    }

    #[test]
    fn restart_returns_lap() {
        let mut sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(2));
        let lap = sw.restart();
        assert!(lap >= Duration::from_millis(1));
        assert!(sw.elapsed() < lap);
    }

    #[test]
    fn monotonic_clock_is_monotonic() {
        let c = MonotonicClock::new();
        let a = c.now_us();
        let b = c.now_us();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_moves_only_when_told() {
        let c = ManualClock::new();
        assert_eq!(c.now_us(), 0);
        c.advance_us(150);
        assert_eq!(c.now_us(), 150);
        c.set_us(1_000);
        assert_eq!(c.now_us(), 1_000);
    }

    #[test]
    fn clock_source_is_object_safe() {
        let clocks: Vec<Box<dyn ClockSource>> = vec![
            Box::new(MonotonicClock::new()),
            Box::new(ManualClock::new()),
        ];
        for c in &clocks {
            let _ = c.now_us();
        }
    }
}
