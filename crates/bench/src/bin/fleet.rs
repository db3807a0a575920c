//! **Fleet scale** — many-path identification over a synthesized grid of
//! per-path scenarios.
//!
//! A grid of base scenarios (cycling the three regimes of §VI-A) is
//! carved into short per-path probe traces ([`dcl_bench::fleet_grid`]),
//! and the whole fleet is decided in one [`Fleet::identify_all`] call:
//! every path is one item of the deterministic parallel pool and runs
//! the single-path pipeline. The report prints the aggregate verdict
//! tally on stdout, which is the same at every thread count, and the
//! wall-clock timings (synthesis, fleet throughput in paths per second)
//! on stderr.
//!
//! Run: `cargo run --release -p dcl-bench --bin fleet \
//!       [paths] [probes_per_path] [--quick] [--obs <path>] [--metrics <path>]`
//!
//! With `--obs <path>` the artifact carries one `verdict-provenance`
//! record per usable path: `explain <obs.jsonl> <path_index>` renders why
//! any single path got its verdict, and `explain <obs.jsonl> --chrome
//! <out.json>` renders the run's causal span tree with those records as
//! a Chrome trace.

use dcl_bench::{fleet_grid, print_header, print_row};
use dcl_core::identify::Verdict;
use dcl_fleet::{Fleet, FleetConfig};
use serde_json::json;
use std::time::Instant;

fn main() {
    let cli = dcl_bench::cli::init();
    let quick = cli.quick();
    let paths = cli.pos_usize(0).unwrap_or(if quick { 120 } else { 1000 });
    let probes_per_path = cli.pos_usize(1).unwrap_or(if quick { 200 } else { 250 });
    let log = cli.log("fleet");

    print_header("Fleet", "many-path identification, one pool item per path");

    let synth_start = Instant::now();
    let grid = fleet_grid(paths, probes_per_path, 0xF1EE7);
    let synth_secs = synth_start.elapsed().as_secs_f64();
    println!("fleet: {paths} paths x {probes_per_path} probes\n");
    // Wall-clock figures go to stderr, so stdout is the same on every run.
    eprintln!("synthesized in {synth_secs:.1} s");

    let cfg = FleetConfig {
        identify: dcl_bench::light_identify(),
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::new(cfg);
    for (label, trace) in grid {
        fleet.push(label, trace);
    }

    let identify_start = Instant::now();
    let report = fleet.identify_all();
    let identify_secs = identify_start.elapsed().as_secs_f64();
    let paths_per_sec = report.summary.paths as f64 / identify_secs.max(1e-9);

    print_row("verdict", &["paths", "share"]);
    let s = &report.summary;
    for (name, count) in [
        ("strongly-dominant", s.strongly_dominant),
        ("weakly-dominant", s.weakly_dominant),
        ("no-dominant", s.no_dominant),
        ("unidentifiable", s.unidentifiable),
    ] {
        print_row(
            &format!("  {name}"),
            &[
                count.to_string(),
                format!("{:.1}%", 100.0 * count as f64 / s.paths.max(1) as f64),
            ],
        );
    }

    for v in &report.verdicts {
        log.record(&json!({
            "path": v.path,
            "label": v.label,
            "verdict": v.result.as_ref().map(|r| format!("{:?}", r.verdict)).ok(),
            "error": v.result.as_ref().err().map(|e| format!("{e:?}")),
            "loss_rate": v.result.as_ref().map(|r| r.loss_rate).ok(),
            "num_probes": v.result.as_ref().map(|r| r.num_probes).ok(),
        }));
    }

    println!("\npaths: {}", s.paths);
    eprintln!("identify: {identify_secs:.2} s  throughput: {paths_per_sec:.1} paths/s");
    println!("records: {log}");

    // A fleet where nothing is decidable (or everything lands in one
    // bucket) means the grid lost its regime mix — fail loudly.
    assert_eq!(s.paths, paths);
    let decided = s.strongly_dominant + s.weakly_dominant + s.no_dominant;
    assert!(decided > 0, "no path produced a verdict");
    assert!(
        report
            .verdicts
            .iter()
            .any(|v| matches!(&v.result, Ok(r) if r.verdict != Verdict::NoDominant)),
        "expected at least one dominant path in the grid"
    );
}
