//! Ground-truth labels emitted by the simulator.
//!
//! The real datAcron project evaluated against operational data it could not
//! publish. Our synthetic worlds emit, alongside the observable streams, the
//! labels needed to score the analytics: which events truly occurred, and
//! which records from different sources refer to the same real-world entity.

use crate::event::EventKind;
use crate::ids::ObjectId;
use datacron_geo::{GeoPoint, TimeInterval};

/// A true event planted by the simulator's behaviour scripts.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledEvent {
    /// The planted event kind.
    pub kind: EventKind,
    /// Objects involved.
    pub objects: Vec<ObjectId>,
    /// True temporal extent.
    pub interval: TimeInterval,
    /// Representative location.
    pub location: GeoPoint,
}

/// A true identity link between two records (for link-discovery scoring):
/// the record `left` in source A and `right` in source B denote the same
/// real-world entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkPair {
    /// Entity id as known to the first source.
    pub left: ObjectId,
    /// Entity id as known to the second source.
    pub right: ObjectId,
}

impl LinkPair {
    /// Canonical ordering so `(a,b)` and `(b,a)` compare equal after
    /// normalisation.
    pub fn normalized(self) -> LinkPair {
        if self.left.raw() <= self.right.raw() {
            self
        } else {
            LinkPair {
                left: self.right,
                right: self.left,
            }
        }
    }
}

/// The full ground truth bundle for one simulated scenario.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroundTruth {
    /// Planted events.
    pub events: Vec<LabeledEvent>,
    /// True identity links across sources.
    pub links: Vec<LinkPair>,
}

impl GroundTruth {
    /// Planted events of one kind.
    pub fn events_of(&self, kind: EventKind) -> impl Iterator<Item = &LabeledEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// True when `pair` (in either orientation) is a true link.
    pub fn is_true_link(&self, pair: LinkPair) -> bool {
        let n = pair.normalized();
        self.links.iter().any(|l| l.normalized() == n)
    }

    /// Scores a detected-event list against planted events of `kind`:
    /// a detection matches a planted event when they share an object and
    /// their intervals overlap (or touch within `slack_ms`).
    ///
    /// Returns `(true_positives, false_positives, false_negatives)`.
    pub fn score_events(
        &self,
        kind: EventKind,
        detections: &[(Vec<ObjectId>, TimeInterval)],
        slack_ms: i64,
    ) -> (usize, usize, usize) {
        let truths: Vec<&LabeledEvent> = self.events_of(kind).collect();
        let mut truth_matched = vec![false; truths.len()];
        let mut tp = 0usize;
        let mut fp = 0usize;
        for (objs, interval) in detections {
            let padded = TimeInterval::new(interval.start - slack_ms, interval.end + slack_ms);
            let hit = truths.iter().enumerate().find(|(i, t)| {
                !truth_matched[*i]
                    && t.interval.overlaps(&padded)
                    && t.objects.iter().any(|o| objs.contains(o))
            });
            match hit {
                Some((i, _)) => {
                    truth_matched[i] = true;
                    tp += 1;
                }
                None => fp += 1,
            }
        }
        let fn_count = truth_matched.iter().filter(|m| !**m).count();
        (tp, fp, fn_count)
    }
}

/// Precision, recall and F1 from TP/FP/FN counts. Empty denominators yield
/// 0.0 rather than NaN.
pub fn prf1(tp: usize, fp: usize, fn_count: usize) -> (f64, f64, f64) {
    let p = if tp + fp == 0 {
        0.0
    } else {
        tp as f64 / (tp + fp) as f64
    };
    let r = if tp + fn_count == 0 {
        0.0
    } else {
        tp as f64 / (tp + fn_count) as f64
    };
    let f1 = if p + r == 0.0 {
        0.0
    } else {
        2.0 * p * r / (p + r)
    };
    (p, r, f1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacron_geo::TimeMs;

    fn iv(a: i64, b: i64) -> TimeInterval {
        TimeInterval::new(TimeMs(a), TimeMs(b))
    }

    fn truth_with_two_events() -> GroundTruth {
        GroundTruth {
            events: vec![
                LabeledEvent {
                    kind: EventKind::Rendezvous,
                    objects: vec![ObjectId(1), ObjectId(2)],
                    interval: iv(1000, 2000),
                    location: GeoPoint::new(0.0, 0.0),
                },
                LabeledEvent {
                    kind: EventKind::Rendezvous,
                    objects: vec![ObjectId(3), ObjectId(4)],
                    interval: iv(5000, 6000),
                    location: GeoPoint::new(1.0, 1.0),
                },
                LabeledEvent {
                    kind: EventKind::Loitering,
                    objects: vec![ObjectId(5)],
                    interval: iv(0, 1000),
                    location: GeoPoint::new(2.0, 2.0),
                },
            ],
            links: vec![LinkPair {
                left: ObjectId(10),
                right: ObjectId(20),
            }],
        }
    }

    #[test]
    fn link_normalization() {
        let t = truth_with_two_events();
        assert!(t.is_true_link(LinkPair {
            left: ObjectId(10),
            right: ObjectId(20)
        }));
        assert!(t.is_true_link(LinkPair {
            left: ObjectId(20),
            right: ObjectId(10)
        }));
        assert!(!t.is_true_link(LinkPair {
            left: ObjectId(10),
            right: ObjectId(30)
        }));
    }

    #[test]
    fn score_perfect_detection() {
        let t = truth_with_two_events();
        let detections = vec![
            (vec![ObjectId(1), ObjectId(2)], iv(1100, 1900)),
            (vec![ObjectId(3)], iv(5500, 5600)),
        ];
        let (tp, fp, fn_count) = t.score_events(EventKind::Rendezvous, &detections, 0);
        assert_eq!((tp, fp, fn_count), (2, 0, 0));
        let (p, r, f1) = prf1(tp, fp, fn_count);
        assert_eq!((p, r, f1), (1.0, 1.0, 1.0));
    }

    #[test]
    fn score_counts_fp_and_fn() {
        let t = truth_with_two_events();
        let detections = vec![
            // Right objects, wrong time → FP.
            (vec![ObjectId(1)], iv(9000, 9100)),
            // Wrong objects, overlapping time → FP.
            (vec![ObjectId(99)], iv(1100, 1900)),
        ];
        let (tp, fp, fn_count) = t.score_events(EventKind::Rendezvous, &detections, 0);
        assert_eq!((tp, fp, fn_count), (0, 2, 2));
    }

    #[test]
    fn score_respects_slack() {
        let t = truth_with_two_events();
        // Detection ends 500 ms before the truth starts.
        let detections = vec![(vec![ObjectId(1)], iv(0, 500))];
        let (tp, _, _) = t.score_events(EventKind::Rendezvous, &detections, 0);
        assert_eq!(tp, 0);
        let (tp, _, _) = t.score_events(EventKind::Rendezvous, &detections, 600);
        assert_eq!(tp, 1);
    }

    #[test]
    fn score_does_not_double_match() {
        let t = truth_with_two_events();
        // Two detections of the same planted event: one TP, one FP.
        let detections = vec![
            (vec![ObjectId(1)], iv(1100, 1200)),
            (vec![ObjectId(2)], iv(1300, 1400)),
        ];
        let (tp, fp, fn_count) = t.score_events(EventKind::Rendezvous, &detections, 0);
        assert_eq!((tp, fp, fn_count), (1, 1, 1));
    }

    #[test]
    fn prf1_empty_denominators() {
        assert_eq!(prf1(0, 0, 0), (0.0, 0.0, 0.0));
        assert_eq!(prf1(0, 5, 0), (0.0, 0.0, 0.0));
        let (p, r, f1) = prf1(5, 0, 5);
        assert_eq!(p, 1.0);
        assert_eq!(r, 0.5);
        assert!((f1 - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn events_of_filters_kind() {
        let t = truth_with_two_events();
        assert_eq!(t.events_of(EventKind::Rendezvous).count(), 2);
        assert_eq!(t.events_of(EventKind::Loitering).count(), 1);
        assert_eq!(t.events_of(EventKind::Drifting).count(), 0);
    }
}
