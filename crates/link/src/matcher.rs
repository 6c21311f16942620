//! The rule-based matcher: score candidate pairs, assign one-to-one.

use crate::blocking::{block_candidates, BlockingStats};
use crate::similarity::{jaccard_tokens, name_similarity};
use datacron_geo::GeoPoint;
use datacron_model::{LinkPair, ObjectId};
use datacron_sim::registry::RegistryRecord;
use rustc_hash::FxHashSet;

/// The attribute view of a record that link discovery compares.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkRecord {
    /// Source-local object id.
    pub id: ObjectId,
    /// Registered name (noisy).
    pub name: String,
    /// Ship-type code.
    pub kind_code: u8,
    /// Flag state.
    pub flag: String,
    /// Last-known position.
    pub pos: GeoPoint,
}

impl From<&RegistryRecord> for LinkRecord {
    fn from(r: &RegistryRecord) -> Self {
        LinkRecord {
            id: r.info.object,
            name: r.info.name.clone(),
            kind_code: r.info.ship_type,
            flag: r.info.flag.clone(),
            pos: r.last_pos,
        }
    }
}

/// A weighted matching rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkRule {
    /// Weight of edit-distance name similarity.
    pub w_name: f64,
    /// Weight of token-set name similarity.
    pub w_tokens: f64,
    /// Weight of spatial proximity (exponential decay).
    pub w_space: f64,
    /// Decay scale of spatial proximity, metres.
    pub space_scale_m: f64,
    /// Bonus weight when ship types agree.
    pub w_kind: f64,
    /// Bonus weight when flags agree.
    pub w_flag: f64,
    /// Minimum combined score to accept a link.
    pub threshold: f64,
    /// Blocking tile size, degrees.
    pub tile_deg: f64,
}

impl Default for LinkRule {
    fn default() -> Self {
        Self {
            w_name: 0.45,
            w_tokens: 0.15,
            w_space: 0.25,
            space_scale_m: 1_500.0,
            w_kind: 0.08,
            w_flag: 0.07,
            threshold: 0.75,
            tile_deg: 0.05,
        }
    }
}

impl LinkRule {
    /// Scores one pair in `[0, 1]`.
    pub fn score(&self, a: &LinkRecord, b: &LinkRecord) -> f64 {
        let name = name_similarity(&a.name, &b.name);
        let tokens = jaccard_tokens(&a.name, &b.name);
        let dist = a.pos.haversine_m(&b.pos);
        let space = (-dist / self.space_scale_m).exp();
        let kind = f64::from(a.kind_code == b.kind_code);
        let flag = f64::from(a.flag == b.flag);
        let total_w = self.w_name + self.w_tokens + self.w_space + self.w_kind + self.w_flag;
        (self.w_name * name
            + self.w_tokens * tokens
            + self.w_space * space
            + self.w_kind * kind
            + self.w_flag * flag)
            / total_w
    }
}

/// An accepted link with its score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredLink {
    /// The linked pair (left = source A id, right = source B id).
    pub pair: LinkPair,
    /// Combined rule score.
    pub score: f64,
}

/// Runs the full link-discovery pipeline: blocking → scoring → greedy
/// one-to-one assignment. Returns the accepted links plus blocking stats.
pub fn discover_links(
    a: &[LinkRecord],
    b: &[LinkRecord],
    rule: &LinkRule,
) -> (Vec<ScoredLink>, BlockingStats) {
    let (candidates, stats) = block_candidates(a, b, rule.tile_deg);
    let mut scored: Vec<(f64, usize, usize)> = candidates
        .into_iter()
        .filter_map(|(i, j)| {
            let s = rule.score(&a[i], &b[j]);
            (s >= rule.threshold).then_some((s, i, j))
        })
        .collect();
    // Greedy one-to-one: best scores first, each side used once.
    scored.sort_by(|x, y| y.0.total_cmp(&x.0));
    let mut used_a: FxHashSet<usize> = FxHashSet::default();
    let mut used_b: FxHashSet<usize> = FxHashSet::default();
    let mut links = Vec::new();
    for (s, i, j) in scored {
        if used_a.contains(&i) || used_b.contains(&j) {
            continue;
        }
        used_a.insert(i);
        used_b.insert(j);
        links.push(ScoredLink {
            pair: LinkPair {
                left: a[i].id,
                right: b[j].id,
            },
            score: s,
        });
    }
    (links, stats)
}

/// Exhaustive (no-blocking) variant — the quadratic baseline for E4.
pub fn discover_links_exhaustive(
    a: &[LinkRecord],
    b: &[LinkRecord],
    rule: &LinkRule,
) -> Vec<ScoredLink> {
    let mut scored: Vec<(f64, usize, usize)> = Vec::new();
    for (i, ra) in a.iter().enumerate() {
        for (j, rb) in b.iter().enumerate() {
            let s = rule.score(ra, rb);
            if s >= rule.threshold {
                scored.push((s, i, j));
            }
        }
    }
    scored.sort_by(|x, y| y.0.total_cmp(&x.0));
    let mut used_a: FxHashSet<usize> = FxHashSet::default();
    let mut used_b: FxHashSet<usize> = FxHashSet::default();
    let mut links = Vec::new();
    for (s, i, j) in scored {
        if used_a.contains(&i) || used_b.contains(&j) {
            continue;
        }
        used_a.insert(i);
        used_b.insert(j);
        links.push(ScoredLink {
            pair: LinkPair {
                left: a[i].id,
                right: b[j].id,
            },
            score: s,
        });
    }
    links
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, name: &str, lon: f64, lat: f64) -> LinkRecord {
        LinkRecord {
            id: ObjectId(id),
            name: name.into(),
            kind_code: 70,
            flag: "GR".into(),
            pos: GeoPoint::new(lon, lat),
        }
    }

    #[test]
    fn identical_records_score_one() {
        let r = rec(1, "BLUE STAR", 24.0, 37.0);
        let s = LinkRule::default().score(&r, &r);
        assert!((s - 1.0).abs() < 1e-9, "s = {s}");
    }

    #[test]
    fn noisy_twin_scores_high_distractor_low() {
        let rule = LinkRule::default();
        let a = rec(1, "BLUE STAR", 24.0, 37.0);
        let twin = rec(2, "BLUE STAT", 24.002, 37.001);
        let distractor = rec(3, "POSEIDON QUEEN", 25.5, 38.0);
        assert!(rule.score(&a, &twin) > rule.threshold);
        assert!(rule.score(&a, &distractor) < rule.threshold);
    }

    #[test]
    fn one_to_one_assignment() {
        let rule = LinkRule {
            threshold: 0.5,
            ..LinkRule::default()
        };
        let a = vec![rec(1, "BLUE STAR", 24.0, 37.0)];
        // Two nearly identical B records; only one may link.
        let b = vec![
            rec(10, "BLUE STAR", 24.001, 37.0),
            rec(11, "BLUE STAR", 24.002, 37.0),
        ];
        let (links, _) = discover_links(&a, &b, &rule);
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].pair.right, ObjectId(10), "closer twin wins");
    }

    #[test]
    fn blocking_and_exhaustive_agree_on_easy_data() {
        let rule = LinkRule::default();
        let a: Vec<_> = (0..10)
            .map(|i| {
                rec(
                    i,
                    &format!("VESSEL NUMBER {i}"),
                    20.0 + 0.5 * i as f64,
                    36.0,
                )
            })
            .collect();
        let b: Vec<_> = (0..10)
            .map(|i| {
                rec(
                    100 + i as u64,
                    &format!("VESSEL NUMBER {i}"),
                    20.0 + 0.5 * i as f64 + 0.001,
                    36.0,
                )
            })
            .collect();
        let (blocked, stats) = discover_links(&a, &b, &rule);
        let exhaustive = discover_links_exhaustive(&a, &b, &rule);
        assert_eq!(blocked.len(), exhaustive.len());
        assert_eq!(blocked.len(), 10);
        assert!(stats.reduction > 0.8);
        let set_a: FxHashSet<_> = blocked.iter().map(|l| l.pair).collect();
        let set_b: FxHashSet<_> = exhaustive.iter().map(|l| l.pair).collect();
        assert_eq!(set_a, set_b);
    }

    #[test]
    fn scores_are_in_unit_range() {
        let rule = LinkRule::default();
        let a = rec(1, "X", 20.0, 36.0);
        let b = rec(2, "COMPLETELY DIFFERENT VESSEL NAME", 29.0, 41.0);
        let s = rule.score(&a, &b);
        assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn empty_inputs_no_links() {
        let rule = LinkRule::default();
        let (links, stats) = discover_links(&[], &[], &rule);
        assert!(links.is_empty());
        assert_eq!(stats.candidates, 0);
    }
}
