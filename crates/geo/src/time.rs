//! Millisecond timestamps, intervals and Allen's interval algebra.

use std::fmt;
use std::ops::{Add, Sub};

/// A timestamp in milliseconds since the Unix epoch.
///
/// All surveillance data in the workspace is stamped with `TimeMs`; the paper
/// targets "operational latency requirements (i.e. in ms)", so milliseconds
/// are the native resolution throughout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeMs(pub i64);

impl TimeMs {
    /// The zero timestamp.
    pub const ZERO: TimeMs = TimeMs(0);
    /// The maximum representable timestamp.
    pub const MAX: TimeMs = TimeMs(i64::MAX);
    /// The minimum representable timestamp.
    pub const MIN: TimeMs = TimeMs(i64::MIN);

    /// Constructs a timestamp from whole seconds.
    pub const fn from_secs(secs: i64) -> Self {
        TimeMs(secs * 1000)
    }

    /// Constructs a timestamp from whole minutes.
    pub const fn from_mins(mins: i64) -> Self {
        TimeMs(mins * 60_000)
    }

    /// Constructs a timestamp from whole hours.
    pub const fn from_hours(hours: i64) -> Self {
        TimeMs(hours * 3_600_000)
    }

    /// The raw millisecond value.
    pub const fn millis(self) -> i64 {
        self.0
    }

    /// Fractional seconds represented by this timestamp.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Saturating addition of a millisecond delta.
    pub fn saturating_add(self, delta_ms: i64) -> Self {
        TimeMs(self.0.saturating_add(delta_ms))
    }

    /// The earlier of two timestamps.
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The later of two timestamps.
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add<i64> for TimeMs {
    type Output = TimeMs;
    fn add(self, rhs: i64) -> TimeMs {
        TimeMs(self.0 + rhs)
    }
}

impl Sub<i64> for TimeMs {
    type Output = TimeMs;
    fn sub(self, rhs: i64) -> TimeMs {
        TimeMs(self.0 - rhs)
    }
}

impl Sub<TimeMs> for TimeMs {
    /// Difference between two timestamps, in milliseconds.
    type Output = i64;
    fn sub(self, rhs: TimeMs) -> i64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for TimeMs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ms", self.0)
    }
}

/// A half-open time interval `[start, end)` in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeInterval {
    /// Inclusive start.
    pub start: TimeMs,
    /// Exclusive end.
    pub end: TimeMs,
}

impl TimeInterval {
    /// Creates an interval; callers must guarantee `start <= end`.
    pub fn new(start: TimeMs, end: TimeMs) -> Self {
        debug_assert!(start <= end, "interval start after end");
        Self { start, end }
    }

    /// An interval covering a single instant (zero length).
    pub fn instant(t: TimeMs) -> Self {
        Self { start: t, end: t }
    }

    /// Duration in milliseconds.
    pub fn duration_ms(&self) -> i64 {
        self.end - self.start
    }

    /// True when the interval has zero duration.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// True when the instant `t` falls inside `[start, end)`.
    pub fn contains(&self, t: TimeMs) -> bool {
        t >= self.start && t < self.end
    }

    /// True when the two half-open intervals share at least one instant.
    pub fn overlaps(&self, other: &TimeInterval) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// The intersection of two intervals, if non-empty.
    pub fn intersection(&self, other: &TimeInterval) -> Option<TimeInterval> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        (start < end).then(|| TimeInterval::new(start, end))
    }

    /// The smallest interval covering both inputs.
    pub fn hull(&self, other: &TimeInterval) -> TimeInterval {
        TimeInterval::new(self.start.min(other.start), self.end.max(other.end))
    }

    /// Classifies the relationship of `self` to `other` according to Allen's
    /// interval algebra (using half-open interval semantics, with `meets`
    /// meaning `self.end == other.start`).
    pub fn allen(&self, other: &TimeInterval) -> AllenRelation {
        use AllenRelation::*;
        let (s1, e1, s2, e2) = (self.start, self.end, other.start, other.end);
        if s1 == s2 && e1 == e2 {
            Equals
        } else if e1 < s2 {
            Before
        } else if e2 < s1 {
            After
        } else if e1 == s2 {
            Meets
        } else if e2 == s1 {
            MetBy
        } else if s1 == s2 {
            if e1 < e2 {
                Starts
            } else {
                StartedBy
            }
        } else if e1 == e2 {
            if s1 > s2 {
                Finishes
            } else {
                FinishedBy
            }
        } else if s1 > s2 && e1 < e2 {
            During
        } else if s2 > s1 && e2 < e1 {
            Contains
        } else if s1 < s2 {
            Overlaps
        } else {
            OverlappedBy
        }
    }
}

/// The thirteen Allen interval relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllenRelation {
    /// `self` ends before `other` starts.
    Before,
    /// `self` starts after `other` ends.
    After,
    /// `self` ends exactly where `other` starts.
    Meets,
    /// `self` starts exactly where `other` ends.
    MetBy,
    /// Proper overlap with `self` starting first.
    Overlaps,
    /// Proper overlap with `other` starting first.
    OverlappedBy,
    /// Same start, `self` ends first.
    Starts,
    /// Same start, `self` ends last.
    StartedBy,
    /// `self` strictly inside `other`.
    During,
    /// `other` strictly inside `self`.
    Contains,
    /// Same end, `self` starts last.
    Finishes,
    /// Same end, `self` starts first.
    FinishedBy,
    /// Identical intervals.
    Equals,
}

impl AllenRelation {
    /// The inverse relation (the relation of `other` to `self`).
    pub fn inverse(self) -> AllenRelation {
        use AllenRelation::*;
        match self {
            Before => After,
            After => Before,
            Meets => MetBy,
            MetBy => Meets,
            Overlaps => OverlappedBy,
            OverlappedBy => Overlaps,
            Starts => StartedBy,
            StartedBy => Starts,
            During => Contains,
            Contains => During,
            Finishes => FinishedBy,
            FinishedBy => Finishes,
            Equals => Equals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: i64, b: i64) -> TimeInterval {
        TimeInterval::new(TimeMs(a), TimeMs(b))
    }

    #[test]
    fn time_arithmetic() {
        let t = TimeMs::from_secs(3);
        assert_eq!(t.millis(), 3000);
        assert_eq!((t + 500).millis(), 3500);
        assert_eq!((t - 500).millis(), 2500);
        assert_eq!(TimeMs(5000) - TimeMs(2000), 3000);
        assert_eq!(TimeMs::from_mins(2).millis(), 120_000);
        assert_eq!(TimeMs::from_hours(1).millis(), 3_600_000);
        assert_eq!(TimeMs::MAX.saturating_add(1), TimeMs::MAX);
    }

    #[test]
    fn interval_contains_half_open() {
        let i = iv(10, 20);
        assert!(!i.contains(TimeMs(9)));
        assert!(i.contains(TimeMs(10)));
        assert!(i.contains(TimeMs(19)));
        assert!(!i.contains(TimeMs(20)));
        assert_eq!(i.duration_ms(), 10);
    }

    #[test]
    fn interval_overlap_and_intersection() {
        assert!(iv(0, 10).overlaps(&iv(5, 15)));
        assert!(!iv(0, 10).overlaps(&iv(10, 20)), "touching is not overlap");
        assert_eq!(iv(0, 10).intersection(&iv(5, 15)), Some(iv(5, 10)));
        assert_eq!(iv(0, 10).intersection(&iv(10, 20)), None);
        assert_eq!(iv(0, 10).hull(&iv(20, 30)), iv(0, 30));
    }

    #[test]
    fn allen_all_thirteen() {
        use AllenRelation::*;
        assert_eq!(iv(0, 5).allen(&iv(6, 10)), Before);
        assert_eq!(iv(6, 10).allen(&iv(0, 5)), After);
        assert_eq!(iv(0, 5).allen(&iv(5, 10)), Meets);
        assert_eq!(iv(5, 10).allen(&iv(0, 5)), MetBy);
        assert_eq!(iv(0, 6).allen(&iv(4, 10)), Overlaps);
        assert_eq!(iv(4, 10).allen(&iv(0, 6)), OverlappedBy);
        assert_eq!(iv(0, 5).allen(&iv(0, 10)), Starts);
        assert_eq!(iv(0, 10).allen(&iv(0, 5)), StartedBy);
        assert_eq!(iv(3, 7).allen(&iv(0, 10)), During);
        assert_eq!(iv(0, 10).allen(&iv(3, 7)), Contains);
        assert_eq!(iv(5, 10).allen(&iv(0, 10)), Finishes);
        assert_eq!(iv(0, 10).allen(&iv(5, 10)), FinishedBy);
        assert_eq!(iv(0, 10).allen(&iv(0, 10)), Equals);
    }

    #[test]
    fn allen_inverse_is_involution() {
        use AllenRelation::*;
        for r in [
            Before,
            After,
            Meets,
            MetBy,
            Overlaps,
            OverlappedBy,
            Starts,
            StartedBy,
            During,
            Contains,
            Finishes,
            FinishedBy,
            Equals,
        ] {
            assert_eq!(r.inverse().inverse(), r);
        }
    }

    #[test]
    fn allen_matches_inverse_of_swapped_args() {
        let pairs = [
            (iv(0, 5), iv(6, 10)),
            (iv(0, 6), iv(4, 10)),
            (iv(0, 5), iv(0, 10)),
            (iv(3, 7), iv(0, 10)),
            (iv(5, 10), iv(0, 10)),
            (iv(0, 10), iv(0, 10)),
            (iv(0, 5), iv(5, 10)),
        ];
        for (a, b) in pairs {
            assert_eq!(a.allen(&b).inverse(), b.allen(&a), "{a:?} vs {b:?}");
        }
    }
}
