//! The open-loop schedule: requests fall due at a fixed rate whatever the
//! server does, one in flight per connection, and each is timed from when
//! it was due, so a stalled reply charges the requests queued behind it.

use std::time::{Duration, Instant};

/// Nanoseconds since the start of the window.
pub trait Clock {
    fn now(&self) -> u64;
    fn wait_until(&self, t: u64);
}

pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, t: u64) {
        // Sleep most of the way, then spin: a sleep alone wakes late by
        // the scheduler's slack, which would count as generator lateness.
        const SPIN_NS: u64 = 100_000;
        loop {
            let now = self.now();
            if now >= t {
                return;
            }
            if t - now > SPIN_NS {
                std::thread::sleep(Duration::from_nanos(t - now - SPIN_NS));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    pub due: u64,
    pub sent: u64,
    pub done: u64,
}

impl Timing {
    /// What a user who wanted the answer at `due` waited.
    pub fn latency(&self) -> u64 {
        self.done - self.due
    }
}

/// Issues request `i` at `i * interval` for every due time before `end`,
/// calling `call(i)` and waiting for it to return before the next one.
pub fn run<C: Clock>(
    clock: &C,
    interval: u64,
    end: u64,
    mut call: impl FnMut(usize),
) -> Vec<Timing> {
    let mut timings = Vec::with_capacity((end / interval.max(1)) as usize + 1);
    for i in 0.. {
        let due = i as u64 * interval;
        if due >= end {
            break;
        }
        clock.wait_until(due);
        let sent = clock.now();
        call(i);
        timings.push(Timing {
            due,
            sent,
            done: clock.now(),
        });
    }
    timings
}

/// How late the generator itself sent each request: the delay past the
/// moment the request was due *and* the connection was free.
pub fn generator_lateness(timings: &[Timing]) -> Vec<u64> {
    let mut free_at = 0;
    timings
        .iter()
        .map(|t| {
            let could_send = t.due.max(free_at);
            free_at = t.done;
            t.sent - could_send
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Time moves only when the test moves it.
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now(&self) -> u64 {
            self.0.get()
        }
        fn wait_until(&self, t: u64) {
            self.0.set(self.0.get().max(t));
        }
    }

    #[test]
    fn a_stalled_reply_charges_the_requests_behind_it() {
        let clock = FakeClock(Cell::new(0));
        // Due every 10; request 1 stalls for 35, the others take 2.
        let timings = run(&clock, 10, 50, |i| {
            let service = if i == 1 { 35 } else { 2 };
            clock.0.set(clock.0.get() + service);
        });
        assert_eq!(
            timings,
            vec![
                Timing {
                    due: 0,
                    sent: 0,
                    done: 2
                },
                Timing {
                    due: 10,
                    sent: 10,
                    done: 45
                },
                // Due at 20 and 30 but the connection was busy until 45.
                Timing {
                    due: 20,
                    sent: 45,
                    done: 47
                },
                Timing {
                    due: 30,
                    sent: 47,
                    done: 49
                },
                Timing {
                    due: 40,
                    sent: 49,
                    done: 51
                },
            ]
        );
        let latencies: Vec<u64> = timings.iter().map(Timing::latency).collect();
        assert_eq!(latencies, vec![2, 35, 27, 19, 11]);
        // The waiting was the server's doing, not the generator's.
        assert_eq!(generator_lateness(&timings), vec![0, 0, 0, 0, 0]);
    }

    #[test]
    fn a_slow_generator_shows_as_lateness_and_as_latency() {
        let clock = FakeClock(Cell::new(0));
        let mut timings = run(&clock, 10, 30, |_| clock.0.set(clock.0.get() + 1));
        assert_eq!(generator_lateness(&timings), vec![0, 0, 0]);
        // Had the generator woken 4 late for request 1:
        timings[1].sent += 4;
        timings[1].done += 4;
        assert_eq!(generator_lateness(&timings), vec![0, 4, 0]);
        assert_eq!(timings[1].latency(), 5);
    }

    #[test]
    fn no_request_falls_due_at_or_after_the_end() {
        let clock = FakeClock(Cell::new(0));
        assert_eq!(run(&clock, 10, 30, |_| {}).len(), 3);
        assert_eq!(run(&clock, 10, 31, |_| {}).len(), 4);
    }
}
