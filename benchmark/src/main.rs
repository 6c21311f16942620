//! The repository's one benchmark: four workloads against the release
//! `datacron-serve` as a child process, driven over the wire protocol.
//! See README.md beside Cargo.toml, and BENCHMARK.json at the root.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run, one result line
//! benchmark --repeat N [--seconds S] [--seed N]             N seeds per workload, with spreads
//! benchmark --smoke                                         all four, tiny, output validated
//! benchmark --manifest                                      print BENCHMARK.json
//! ```

mod child;
mod gen;
mod metrics;
mod openloop;
mod reference;
mod stats;
mod trace;
mod traced;
mod wire;
mod workloads;

use datacron_server::Json;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use workloads::{RunResult, Workload};

/// `run_seconds` of BENCHMARK.json; the default of `--seconds`.
const RUN_SECONDS: u64 = 18;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn number(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} wants a whole number, got {v:?}")),
    }
}

fn result_line(result: &RunResult, trace: bool) -> String {
    let metrics: Vec<(String, Json)> = metrics::expected(trace)
        .into_iter()
        .map(|(name, unit)| {
            let value = result.metrics.get(name).copied().unwrap_or(f64::NAN);
            (
                name.to_string(),
                Json::obj()
                    .field("value", value)
                    .field("unit", unit)
                    .build(),
            )
        })
        .collect();
    let mut line = String::new();
    Json::obj()
        .field("correct", result.correct)
        .field("attempted", result.attempted)
        .field("failed", result.failed)
        .field("metrics", Json::Obj(metrics))
        .build()
        .write(&mut line);
    line
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Where and on what the numbers were taken.
fn stamp(seed: u64, seconds: u64) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")?
                    .split(':')
                    .nth(1)
                    .map(|m| m.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj()
        .field("nproc", workloads::nproc())
        .field("cpu", cpu)
        .field("kernel", command_output("uname", &["-sr"]))
        .field("rustc", command_output("rustc", &["-V"]))
        // "unknown" in a checkout that is not a git repository.
        .field("commit", command_output("git", &["rev-parse", "HEAD"]))
        .field("seed", seed)
        .field("seconds", seconds)
        .field("sizes", workloads::frozen_sizes())
        .build()
}

fn print_stamp(seed: u64, seconds: u64) {
    let mut line = String::new();
    stamp(seed, seconds).write(&mut line);
    println!("# stamp {line}");
}

/// BENCHMARK.json, from the same tables the result lines come from.
fn manifest() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    let end_to_end: Vec<String> = metrics::END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}")
        })
        .collect();
    let per_layer: Vec<String> = metrics::PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// Every named metric present, finite, with the right unit; nothing else.
fn validate(line: &str, trace: bool) -> Result<(), String> {
    let v = Json::parse(line).map_err(|e| format!("result line is not JSON: {e}"))?;
    let Json::Obj(pairs) = &v else {
        return Err("result line is not an object".into());
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    if v.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err("the run was not correct".into());
    }
    if v.get("attempted")
        .and_then(Json::as_u64)
        .is_none_or(|n| n == 0)
        || v.get("failed").and_then(Json::as_u64) != Some(0)
    {
        return Err("attempted must be at least 1 and failed 0".into());
    }
    let Some(Json::Obj(got)) = v.get("metrics") else {
        return Err("metrics is not an object".into());
    };
    let want = metrics::expected(trace);
    if got.len() != want.len() {
        return Err(format!(
            "{} metrics printed, {} named",
            got.len(),
            want.len()
        ));
    }
    for (name, unit) in want {
        let m = v
            .get("metrics")
            .and_then(|m| m.get(name))
            .ok_or_else(|| format!("{name} is missing"))?;
        if m.get("unit").and_then(Json::as_str) != Some(unit) {
            return Err(format!("{name} has the wrong unit"));
        }
        if !m
            .get("value")
            .and_then(Json::as_f64)
            .is_some_and(f64::is_finite)
        {
            return Err(format!("{name} is not a finite number"));
        }
    }
    Ok(())
}

/// All four workloads, one second each, traced and untraced, validated.
fn smoke() -> Result<(), String> {
    for w in Workload::ALL {
        for trace in [false, true] {
            let result = workloads::run(w, 1, 1, trace)?;
            let line = result_line(&result, trace);
            validate(&line, trace)
                .map_err(|e| format!("{} --trace {}: {e}", w.name(), u8::from(trace)))?;
            println!("ok {} --trace {}", w.name(), u8::from(trace));
        }
    }
    Ok(())
}

/// Each workload on `n` consecutive seeds; per metric the median and the
/// two spreads: interquartile (what the contract bounds) and full range.
fn repeat(n: u64, first_seed: u64, seconds: u64) -> Result<bool, String> {
    let mut all_correct = true;
    println!(
        "{:<16} {:<18} {:>12} {:>10} {:>10}",
        "workload", "metric", "median", "iqr/med", "range/med"
    );
    for w in Workload::ALL {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for seed in first_seed..first_seed + n {
            let result = workloads::run(w, seed, seconds, false)?;
            all_correct &= result.correct && result.failed == 0;
            for (name, v) in result.metrics {
                values.entry(name).or_default().push(v);
            }
        }
        for (name, ..) in metrics::END_TO_END {
            let v = &values[*name];
            let median = stats::median(v);
            let range = v.iter().copied().fold(f64::MIN, f64::max)
                - v.iter().copied().fold(f64::MAX, f64::min);
            let iqr = if v.len() >= 2 {
                stats::iqr_over_median(v)
            } else {
                0.0
            };
            println!(
                "{:<16} {:<18} {:>12.4} {:>10.4} {:>10.4}",
                w.name(),
                name,
                median,
                iqr,
                range / median
            );
        }
    }
    Ok(all_correct)
}

fn real_main(args: &[String]) -> Result<bool, String> {
    if cfg!(debug_assertions) {
        return Err("this is a debug build; the benchmark measures release builds only (use benchmark/run.sh)".into());
    }
    if args.iter().any(|a| a == "--manifest") {
        print!("{}", manifest());
        return Ok(true);
    }
    if args.iter().any(|a| a == "--smoke") {
        smoke()?;
        return Ok(true);
    }
    let seed = number(args, "--seed", 1)?;
    let seconds = number(args, "--seconds", RUN_SECONDS)?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be between 1 and 60".into());
    }
    if let Some(n) = flag(args, "--repeat") {
        let n: u64 = n
            .parse()
            .map_err(|_| "--repeat wants a whole number".to_string())?;
        print_stamp(seed, seconds);
        return repeat(n.max(1), seed, seconds);
    }
    let name = flag(args, "--workload")
        .ok_or("usage: benchmark --workload W --seed N --seconds S --trace 0|1")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        format!(
            "unknown workload {name:?}; one of {:?}",
            Workload::ALL.map(Workload::name)
        )
    })?;
    let trace = match number(args, "--trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, got {other}")),
    };
    let result = workloads::run(workload, seed, seconds, trace)?;
    print_stamp(seed, seconds);
    if let Some(path) = &result.trace_file {
        println!("# spans {}", path.display());
    }
    println!("{}", result_line(&result, trace));
    Ok(result.correct && result.failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(true) => ExitCode::SUCCESS,
        // The result line is out; the exit code says it is not a good one.
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
