//! Scoring discovered links against ground truth.

use crate::matcher::ScoredLink;
use datacron_model::{labels::prf1, GroundTruth, LinkPair};
use rustc_hash::FxHashSet;

/// Precision/recall/F1 of a link set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkScores {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// False negatives.
    pub fn_count: usize,
    /// Precision.
    pub precision: f64,
    /// Recall.
    pub recall: f64,
    /// F1 score.
    pub f1: f64,
}

/// Evaluates discovered links against the truth's link set.
pub fn evaluate_links(links: &[ScoredLink], truth: &GroundTruth) -> LinkScores {
    let truth_set: FxHashSet<LinkPair> = truth.links.iter().map(|l| l.normalized()).collect();
    let mut tp = 0;
    let mut fp = 0;
    let mut found: FxHashSet<LinkPair> = FxHashSet::default();
    for l in links {
        let n = l.pair.normalized();
        if truth_set.contains(&n) {
            if found.insert(n) {
                tp += 1;
            } else {
                fp += 1; // duplicate claim of the same truth pair
            }
        } else {
            fp += 1;
        }
    }
    let fn_count = truth_set.len() - tp;
    let (mut precision, recall, f1) = prf1(tp, fp, fn_count);
    // `prf1` maps an empty denominator to 0.0 to avoid NaN, but for link
    // discovery an empty claim set is *vacuously* precise: no claim is
    // false. Without this, precision is not monotone at thresholds above
    // the maximum achievable score.
    if links.is_empty() {
        precision = 1.0;
    }
    LinkScores {
        tp,
        fp,
        fn_count,
        precision,
        recall,
        f1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacron_model::ObjectId;

    fn truth(pairs: &[(u64, u64)]) -> GroundTruth {
        GroundTruth {
            events: Vec::new(),
            links: pairs
                .iter()
                .map(|&(a, b)| LinkPair {
                    left: ObjectId(a),
                    right: ObjectId(b),
                })
                .collect(),
        }
    }

    fn link(a: u64, b: u64) -> ScoredLink {
        ScoredLink {
            pair: LinkPair {
                left: ObjectId(a),
                right: ObjectId(b),
            },
            score: 0.9,
        }
    }

    #[test]
    fn perfect_links() {
        let t = truth(&[(1, 10), (2, 20)]);
        let s = evaluate_links(&[link(1, 10), link(2, 20)], &t);
        assert_eq!((s.tp, s.fp, s.fn_count), (2, 0, 0));
        assert_eq!((s.precision, s.recall, s.f1), (1.0, 1.0, 1.0));
    }

    #[test]
    fn orientation_does_not_matter() {
        let t = truth(&[(1, 10)]);
        let s = evaluate_links(&[link(10, 1)], &t);
        assert_eq!(s.tp, 1);
    }

    #[test]
    fn misses_and_spurious() {
        let t = truth(&[(1, 10), (2, 20), (3, 30)]);
        let s = evaluate_links(&[link(1, 10), link(4, 40)], &t);
        assert_eq!((s.tp, s.fp, s.fn_count), (1, 1, 2));
        assert!((s.precision - 0.5).abs() < 1e-9);
        assert!((s.recall - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn duplicate_claims_count_as_fp() {
        let t = truth(&[(1, 10)]);
        let s = evaluate_links(&[link(1, 10), link(10, 1)], &t);
        assert_eq!((s.tp, s.fp), (1, 1));
    }

    #[test]
    fn empty_everything() {
        let s = evaluate_links(&[], &truth(&[]));
        assert_eq!((s.tp, s.fp, s.fn_count), (0, 0, 0));
        assert_eq!(s.f1, 0.0);
    }
}
