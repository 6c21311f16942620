//! Two overlapping, independently noisy vessel registries.
//!
//! Link discovery (the paper's data integration/interlinking component) is
//! evaluated on record pairs from heterogeneous sources. This module forges
//! the scenario: source A knows the fleet exactly; source B covers a subset
//! under different identifiers, with typographic noise in the names and
//! jittered last-known positions, plus distractor vessels that exist only
//! in B. The true `A↔B` identity pairs are returned as ground truth.

use crate::maritime::MaritimeData;
use crate::noise::gaussian;
use datacron_geo::GeoPoint;
use datacron_model::{GroundTruth, LinkPair, ObjectId, VesselInfo};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the registry forge.
#[derive(Debug, Clone, Copy)]
pub struct RegistryConfig {
    /// RNG seed.
    pub seed: u64,
    /// Fraction of fleet vessels that also appear in source B.
    pub overlap: f64,
    /// Number of distractor vessels existing only in B.
    pub n_distractors: usize,
    /// Standard deviation of the position jitter between the two sources'
    /// last-known positions, metres.
    pub pos_jitter_m: f64,
    /// Number of typographic edits applied to each B-side name.
    pub name_edits: usize,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        Self {
            seed: 99,
            overlap: 0.7,
            n_distractors: 15,
            pos_jitter_m: 400.0,
            name_edits: 1,
        }
    }
}

/// One registry record: static info plus a last-known position.
#[derive(Debug, Clone, PartialEq)]
pub struct RegistryRecord {
    /// Static vessel metadata (ids are source-local).
    pub info: VesselInfo,
    /// Last-known position reported to this source.
    pub last_pos: GeoPoint,
}

/// The two registries plus ground-truth links.
#[derive(Debug, Clone)]
pub struct RegistryData {
    /// Source A records (authoritative).
    pub source_a: Vec<RegistryRecord>,
    /// Source B records (noisy subset + distractors, different ids).
    pub source_b: Vec<RegistryRecord>,
    /// True identity links between A and B object ids.
    pub truth: GroundTruth,
}

/// Applies one random typographic edit to a name.
fn edit_name(name: &str, rng: &mut StdRng) -> String {
    let chars: Vec<char> = name.chars().collect();
    if chars.is_empty() {
        return name.to_string();
    }
    match rng.gen_range(0..4u8) {
        // Delete a character.
        0 => {
            let i = rng.gen_range(0..chars.len());
            chars
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, c)| c)
                .collect()
        }
        // Swap two adjacent characters.
        1 if chars.len() >= 2 => {
            let i = rng.gen_range(0..chars.len() - 1);
            let mut c = chars.clone();
            c.swap(i, i + 1);
            c.into_iter().collect()
        }
        // Duplicate a character.
        2 => {
            let i = rng.gen_range(0..chars.len());
            let mut c = chars.clone();
            c.insert(i, chars[i]);
            c.into_iter().collect()
        }
        // Replace a character with a neighbour letter.
        _ => {
            let i = rng.gen_range(0..chars.len());
            let mut c = chars.clone();
            let r = c[i];
            c[i] = if r.is_ascii_alphabetic() {
                (((r as u8 - b'A' + 1) % 26) + b'A') as char
            } else {
                'X'
            };
            c.into_iter().collect()
        }
    }
}

/// Forges the two registries from a maritime scenario's fleet.
///
/// Source-B object ids start at `100_000` so they never collide with fleet
/// ids; the ground truth maps them back.
pub fn generate_registries(data: &MaritimeData, config: &RegistryConfig) -> RegistryData {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let b_base: u64 = 100_000;

    let last_pos = |idx: usize| -> GeoPoint {
        data.true_trajectories[idx]
            .last()
            .map(|p| p.position())
            .unwrap_or(GeoPoint::new(24.0, 37.0))
    };

    let source_a: Vec<RegistryRecord> = data
        .vessels
        .iter()
        .enumerate()
        .map(|(i, v)| RegistryRecord {
            info: v.clone(),
            last_pos: last_pos(i),
        })
        .collect();

    let mut source_b = Vec::new();
    let mut truth = GroundTruth::default();
    let mut b_next = b_base;
    for (i, v) in data.vessels.iter().enumerate() {
        if rng.gen::<f64>() >= config.overlap {
            continue;
        }
        let mut name = v.name.clone();
        for _ in 0..config.name_edits {
            name = edit_name(&name, &mut rng);
        }
        let jitter_m = gaussian(&mut rng).abs() * config.pos_jitter_m;
        let pos = last_pos(i).destination(rng.gen_range(0.0..360.0), jitter_m);
        let b_id = ObjectId(b_next);
        b_next += 1;
        source_b.push(RegistryRecord {
            info: VesselInfo {
                object: b_id,
                // Source B lacks MMSI (different keying scheme) — model it
                // as 0 so joins cannot cheat on the shared key.
                mmsi: 0,
                name,
                ship_type: v.ship_type,
                length_m: v.length_m + (gaussian(&mut rng) * 2.0) as f32,
                flag: v.flag.clone(),
            },
            last_pos: pos,
        });
        truth.links.push(LinkPair {
            left: v.object,
            right: b_id,
        });
    }

    // Distractors: plausible vessels anywhere in the region, no A match.
    for d in 0..config.n_distractors {
        let pos = GeoPoint::new(rng.gen_range(22.5..29.0), rng.gen_range(35.0..41.0));
        source_b.push(RegistryRecord {
            info: VesselInfo {
                object: ObjectId(b_base + 50_000 + d as u64),
                mmsi: 0,
                name: crate::maritime::random_ship_name(&mut rng),
                ship_type: 70,
                length_m: rng.gen_range(60.0..250.0),
                flag: "PA".into(),
            },
            last_pos: pos,
        });
    }

    RegistryData {
        source_a,
        source_b,
        truth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maritime::{generate_maritime, MaritimeConfig};
    use crate::noise::NoiseModel;
    use datacron_geo::TimeMs;

    fn data() -> MaritimeData {
        generate_maritime(&MaritimeConfig {
            seed: 5,
            n_vessels: 30,
            duration_ms: TimeMs::from_hours(1).millis(),
            report_interval_ms: 60_000,
            noise: NoiseModel::none(),
            frac_loitering: 0.0,
            frac_gap: 0.0,
            frac_drifting: 0.0,
            n_rendezvous_pairs: 0,
        })
    }

    #[test]
    fn overlap_and_truth_consistent() {
        let reg = generate_registries(&data(), &RegistryConfig::default());
        assert_eq!(reg.source_a.len(), 30);
        // Each truth link joins an A id to a B id present in the registries.
        for link in &reg.truth.links {
            assert!(reg.source_a.iter().any(|r| r.info.object == link.left));
            assert!(reg.source_b.iter().any(|r| r.info.object == link.right));
        }
        // B contains links + distractors.
        assert_eq!(
            reg.source_b.len(),
            reg.truth.links.len() + RegistryConfig::default().n_distractors
        );
        // Overlap fraction roughly honoured.
        let frac = reg.truth.links.len() as f64 / 30.0;
        assert!((0.4..=0.95).contains(&frac), "overlap {frac}");
    }

    #[test]
    fn b_side_names_similar_but_perturbed() {
        let reg = generate_registries(&data(), &RegistryConfig::default());
        let mut identical = 0;
        for link in &reg.truth.links {
            let a = &reg
                .source_a
                .iter()
                .find(|r| r.info.object == link.left)
                .unwrap()
                .info
                .name;
            let b = &reg
                .source_b
                .iter()
                .find(|r| r.info.object == link.right)
                .unwrap()
                .info
                .name;
            // One edit keeps the lengths within 1.
            assert!((a.len() as i64 - b.len() as i64).abs() <= 1, "{a} vs {b}");
            if a == b {
                identical += 1;
            }
        }
        // Most names must actually differ (an edit can be a no-op swap of
        // equal characters, so allow a few).
        assert!(identical * 3 < reg.truth.links.len().max(1) * 2);
    }

    #[test]
    fn positions_jittered_not_teleported() {
        let cfg = RegistryConfig::default();
        let d = data();
        let reg = generate_registries(&d, &cfg);
        for link in &reg.truth.links {
            let a = reg
                .source_a
                .iter()
                .find(|r| r.info.object == link.left)
                .unwrap();
            let b = reg
                .source_b
                .iter()
                .find(|r| r.info.object == link.right)
                .unwrap();
            let dist = a.last_pos.haversine_m(&b.last_pos);
            assert!(dist < cfg.pos_jitter_m * 6.0, "jitter {dist} m");
        }
    }

    #[test]
    fn deterministic() {
        let d = data();
        let r1 = generate_registries(&d, &RegistryConfig::default());
        let r2 = generate_registries(&d, &RegistryConfig::default());
        assert_eq!(r1.source_b, r2.source_b);
        assert_eq!(r1.truth.links, r2.truth.links);
    }

    #[test]
    fn name_edit_changes_at_most_one_position() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let edited = edit_name("BLUE STAR", &mut rng);
            assert!((edited.len() as i64 - 9).abs() <= 1);
        }
    }
}
