//! Validate the harness's machine-readable artifacts. Five modes, all
//! exiting non-zero on any violation — CI runs them against the outputs
//! of instrumented smoke runs:
//!
//! * `obs_check <path> [min_kinds]` — an observability JSONL artifact:
//!   every known-kind line must round-trip through the
//!   [`dcl_metrics::obs::Event`] schema; unknown kinds are tolerated and counted
//!   (forward compatibility), but the file fails if it holds zero known
//!   events — empty and all-unknown artifacts do *not* pass — or fewer
//!   than `min_kinds` distinct known kinds.
//! * `obs_check --trace <path> [min_provenance]` — a Chrome-trace
//!   artifact from `explain --chrome`: structurally valid span tree (unique nonzero
//!   ids, children nested inside parents, at least one root) carrying at
//!   least `min_provenance` `verdict-provenance` instants.
//! * `obs_check --metrics <path>` — a `--metrics` snapshot: must parse as
//!   [`dcl_metrics::Snapshot`] at the current schema version, with every
//!   histogram internally consistent (bucket sums equal counts, maxima
//!   within range).
//! * `obs_check --perf <path>` — a `BENCH_perf.json` report: schema
//!   version pinned, required keys present, every rate and wall-clock
//!   value finite and non-negative, phases non-empty.
//! * `obs_check --checkpoint <path>` — a `--checkpoint` artifact: a
//!   fleet or engine checkpoint at the current
//!   [`dcl_core::CHECKPOINT_VERSION`] that round-trips byte-identically.
//!
//! Run: `cargo run -p dcl-bench --bin obs_check -- <path> [min_kinds]`
//!
//! The JSONL, trace, metrics and checkpoint validators live in
//! [`dcl_bench::check`] so their failure modes are pinned by unit tests.

use dcl_bench::check::{validate_checkpoint, validate_metrics, validate_obs, validate_trace};
use serde_json::Value;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A flag names the artifact kind and its path follows; a bare path is
    // an obs JSONL.
    let (kind, rest) = match args.first().and_then(|a| a.strip_prefix("--")) {
        Some(kind) => (kind, &args[1..]),
        None => ("obs", &args[..]),
    };
    let Some(path) = rest.first() else {
        return usage();
    };
    let min = |default| rest.get(1).and_then(|s| s.parse().ok()).unwrap_or(default);
    match kind {
        "obs" => check_with(path, |text| validate_obs(text, min(1))),
        "trace" => check_with(path, |text| validate_trace(text, min(0))),
        "metrics" => check_with(path, validate_metrics),
        "perf" => check_with(path, validate_perf),
        "checkpoint" => check_with(path, validate_checkpoint),
        _ => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: obs_check <path> [min_kinds] | --trace <path> [min_provenance] | \
         --metrics <path> | --perf <path> | --checkpoint <path>"
    );
    ExitCode::from(2)
}

/// Read `path` and run a validator over its text.
fn check_with(path: &str, validate: impl FnOnce(&str) -> Result<String, String>) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("obs_check: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match validate(&text) {
        Ok(summary) => {
            println!("obs_check: {path}: {summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("obs_check: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Required finite, non-negative numeric keys of a perf report.
const PERF_NUMBERS: &[&str] = &[
    "total_wall_ns",
    "probes_per_sec",
    "em_iterations_per_sec",
    "sweep_cells_per_sec",
    "windows_per_sec",
    "paths_per_sec",
];

/// Pinned perf report schema version (see `perf.rs`).
const PERF_SCHEMA_VERSION: u64 = 2;

/// Numeric field check shared by the report root and its phases: present,
/// a number, finite, non-negative.
fn check_number(ctx: &str, obj: &Value, key: &str, errors: &mut Vec<String>) {
    match obj.get(key).and_then(Value::as_f64) {
        None => errors.push(format!("{ctx}: missing or non-numeric {key:?}")),
        Some(x) if !x.is_finite() => errors.push(format!("{ctx}: {key:?} is not finite")),
        Some(x) if x < 0.0 => errors.push(format!("{ctx}: {key:?} is negative ({x})")),
        Some(_) => {}
    }
}

/// Validate a `BENCH_perf.json` performance report.
fn validate_perf(text: &str) -> Result<String, String> {
    let report: Value = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let mut errors = Vec::new();
    match report.get("schema_version").and_then(Value::as_u64) {
        Some(PERF_SCHEMA_VERSION) => {}
        Some(v) => errors.push(format!(
            "schema_version {v} != expected {PERF_SCHEMA_VERSION}"
        )),
        None => errors.push("missing schema_version".to_owned()),
    }
    if report.get("quick").and_then(Value::as_bool).is_none() {
        errors.push("missing or non-boolean \"quick\"".to_owned());
    }
    match report.get("git_rev").and_then(Value::as_str) {
        Some(rev) if !rev.is_empty() => {}
        _ => errors.push("missing or empty \"git_rev\"".to_owned()),
    }
    match report.get("threads").and_then(Value::as_u64) {
        Some(t) if t >= 1 => {}
        _ => errors.push("missing or zero \"threads\"".to_owned()),
    }
    for key in PERF_NUMBERS {
        check_number("report", &report, key, &mut errors);
    }
    // `peak_rss_bytes` is nullable: `null` means "measurement
    // unavailable" and is accepted with a warning; a number must still be
    // finite and non-negative; a missing key is an error.
    match report.get("peak_rss_bytes") {
        None => errors.push("missing \"peak_rss_bytes\" (number or null)".to_owned()),
        Some(Value::Null) => {
            eprintln!("obs_check: warning: peak_rss_bytes is null (RSS unavailable)");
        }
        Some(_) => check_number("report", &report, "peak_rss_bytes", &mut errors),
    }
    match report.get("phases").and_then(Value::as_array) {
        None => errors.push("missing \"phases\" array".to_owned()),
        Some(phases) if phases.is_empty() => errors.push("\"phases\" is empty".to_owned()),
        Some(phases) => {
            for (i, phase) in phases.iter().enumerate() {
                let ctx = format!("phases[{i}]");
                match phase.get("name").and_then(Value::as_str) {
                    Some(n) if !n.is_empty() => {}
                    _ => errors.push(format!("{ctx}: missing or empty name")),
                }
                for key in ["wall_ns", "items", "items_per_sec"] {
                    check_number(&ctx, phase, key, &mut errors);
                }
            }
        }
    }
    // The embedded metrics snapshot must itself be valid.
    match report.get("metrics") {
        None => errors.push("missing embedded \"metrics\" snapshot".to_owned()),
        Some(metrics) => match metrics.get("schema_version").and_then(Value::as_u64) {
            Some(v) if v == dcl_metrics::SCHEMA_VERSION as u64 => {}
            _ => errors.push("embedded metrics snapshot has wrong schema_version".to_owned()),
        },
    }
    joined(errors)?;
    let phases = report
        .get("phases")
        .and_then(Value::as_array)
        .map_or(0, Vec::len);
    Ok(format!("perf report ok ({phases} phases)"))
}

/// Every violation found, as one message.
fn joined(errors: Vec<String>) -> Result<(), String> {
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("; "))
    }
}
