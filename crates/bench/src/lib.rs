//! Shared workload builders for the experiment suite (EXPERIMENTS.md).
//!
//! Every experiment draws its data from these builders, so the timing
//! benches (`benches/`, timed by [`bench`]) and the claim tests
//! (`tests/claims.rs`, the quality numbers pinned exactly) measure the same
//! seeded workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use datacron_geo::TimeMs;
use datacron_model::PositionReport;
use datacron_obs::Stopwatch;
use datacron_sim::{
    generate_aviation, generate_maritime, AviationConfig, AviationData, MaritimeConfig,
    MaritimeData, NoiseModel,
};
use std::time::Duration;

/// The standard maritime workload: 6 hours, AIS every 10 s, scripted
/// anomalies. `scale` multiplies the fleet size (1 → 50 vessels ≈ 108k
/// reports).
pub fn maritime_workload(scale: usize) -> MaritimeData {
    generate_maritime(&MaritimeConfig {
        seed: 4242,
        n_vessels: 50 * scale,
        duration_ms: TimeMs::from_hours(6).millis(),
        report_interval_ms: 10_000,
        noise: NoiseModel {
            max_delay_ms: 2_000,
            ..NoiseModel::default()
        },
        frac_loitering: 0.1,
        frac_gap: 0.08,
        frac_drifting: 0.04,
        n_rendezvous_pairs: 2 * scale,
    })
}

/// A smaller maritime workload for per-iteration benches.
pub fn maritime_small() -> MaritimeData {
    generate_maritime(&MaritimeConfig {
        seed: 777,
        n_vessels: 20,
        duration_ms: TimeMs::from_hours(2).millis(),
        report_interval_ms: 10_000,
        noise: NoiseModel::default(),
        frac_loitering: 0.1,
        frac_gap: 0.1,
        frac_drifting: 0.05,
        n_rendezvous_pairs: 1,
    })
}

/// The standard aviation workload: 4 hours, ADS-B every 5 s.
pub fn aviation_workload() -> AviationData {
    generate_aviation(&AviationConfig {
        seed: 4343,
        n_flights: 60,
        duration_ms: TimeMs::from_hours(4).millis(),
        report_interval_ms: 5_000,
        frac_holding: 0.2,
        ..AviationConfig::default()
    })
}

/// Extracts the plain report vector (event-time order) from maritime data.
pub fn reports_of(data: &MaritimeData) -> Vec<PositionReport> {
    data.reports.iter().map(|o| o.report).collect()
}

/// Times one microbenchmark and prints its median time per iteration,
/// plus `elements` per second when `elements` (items one iteration
/// handles) is non-zero. `run(iters)` runs `iters` iterations and returns
/// the time spent on the part being measured, so setup can stay
/// untimed. The iteration count doubles until one sample takes 1 ms;
/// then at least 10 samples are taken, more while under 1 s in total.
pub fn bench_iters(name: &str, elements: u64, mut run: impl FnMut(u64) -> Duration) {
    const SAMPLE: Duration = Duration::from_millis(1);
    const BUDGET: Duration = Duration::from_secs(1);
    let mut iters = 1u64;
    while run(iters) < SAMPLE && iters < 1 << 30 {
        iters *= 2;
    }
    let total = Stopwatch::start();
    let mut per_iter_ns: Vec<f64> = Vec::new();
    while per_iter_ns.len() < 10 || (total.elapsed() < BUDGET && per_iter_ns.len() < 100) {
        per_iter_ns.push(run(iters).as_nanos() as f64 / iters as f64);
    }
    per_iter_ns.sort_by(f64::total_cmp);
    let median = per_iter_ns[per_iter_ns.len() / 2];
    let rate = if elements > 0 {
        format!("  {:>14.0} elements/s", elements as f64 * 1e9 / median)
    } else {
        String::new()
    };
    println!("{name:<44} {median:>14.1} ns/iter{rate}");
}

/// [`bench_iters`] for a routine timed whole; its result is kept opaque
/// to the optimiser.
pub fn bench<T>(name: &str, elements: u64, mut routine: impl FnMut() -> T) {
    bench_iters(name, elements, |iters| {
        let t = Stopwatch::start();
        for _ in 0..iters {
            std::hint::black_box(routine());
        }
        t.elapsed()
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic() {
        let a = maritime_small();
        let b = maritime_small();
        assert_eq!(a.reports.len(), b.reports.len());
    }
}
