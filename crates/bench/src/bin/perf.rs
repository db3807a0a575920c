//! **perf** — the performance-trajectory benchmark.
//!
//! Runs a fixed ladder of scenarios through the full pipeline — simulate,
//! identify, duration-sweep, streaming replay, fleet-scale many-path
//! identification — with the `dcl_metrics` registry enabled, and emits a
//! schema-versioned JSON report (`BENCH_perf.json` by default) capturing
//! the throughput of each phase: probes simulated per second, EM
//! iterations per second of the identify and sweep phases, sweep cells
//! per second, streaming windows per
//! second, fleet paths per second, wall time per phase, peak RSS, and
//! the full metrics snapshot. Committing the
//! artifact at the repo root gives the project a perf trajectory:
//! successive PRs regenerate it and the diff shows the drift.
//!
//! The ladder is deterministic (fixed seeds, fixed scenario settings), so
//! the *work counts* (probes, EM iterations, sweep cells) are identical
//! across machines; only the wall-clock rates vary.
//!
//! Run: `cargo run --release -p dcl-bench --bin perf -- [--quick] [--out <path>]`
//!
//! `--quick` shrinks the simulated measurement window and the sweep grid
//! for CI; the schema is identical and the report says `"quick": true`.

use std::time::Instant;

use dcl_bench::{
    fleet_grid, no_dcl_setting, strongly_setting, weakly_setting, NsSetting, WARMUP_SECS,
};
use dcl_core::identify::{identify, IdentifyConfig};
use dcl_core::sweep::{duration_sweep, SweepConfig};
use dcl_core::{StreamConfig, StreamingIdentifier, WindowSpec};
use dcl_fleet::{Fleet, FleetConfig};
use dcl_netsim::trace::ProbeTrace;
use serde::Serialize;

/// Version of the report layout. Bump on any breaking change to the JSON
/// shape; `obs_check --perf` pins it.
///
/// v2: added the `fleet` phase and `paths_per_sec`; `peak_rss_bytes`
/// became nullable (`null` where procfs is unavailable, instead of a
/// silent 0 masquerading as a measurement).
const PERF_SCHEMA_VERSION: u32 = 2;

#[derive(Serialize)]
struct PhaseReport {
    name: String,
    wall_ns: u64,
    /// Work items the phase processed (probes, identifications, cells).
    items: u64,
    items_per_sec: f64,
}

#[derive(Serialize)]
struct PerfReport {
    schema_version: u32,
    quick: bool,
    git_rev: String,
    threads: usize,
    /// `None` (JSON `null`) where the measurement is unavailable — the
    /// validator flags but accepts it.
    peak_rss_bytes: Option<u64>,
    total_wall_ns: u64,
    phases: Vec<PhaseReport>,
    probes_per_sec: f64,
    em_iterations_per_sec: f64,
    sweep_cells_per_sec: f64,
    windows_per_sec: f64,
    paths_per_sec: f64,
    metrics: dcl_metrics::Snapshot,
}

fn phase_report(name: &str, wall_ns: u64, items: u64) -> PhaseReport {
    let secs = wall_ns as f64 / 1e9;
    PhaseReport {
        name: name.to_owned(),
        wall_ns,
        items,
        items_per_sec: if secs > 0.0 { items as f64 / secs } else { 0.0 },
    }
}

/// Peak resident set size in bytes from `/proc/self/status` (`VmHWM`).
/// Returns `None` where the measurement is unavailable (non-Linux, or an
/// unparsable procfs) so the report says "unknown" instead of silently
/// claiming a 0-byte peak; `obs_check --perf` accepts but flags `null`.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Current commit hash, resolved by hand from `.git` (no git binary
/// needed). "unknown" outside a git checkout.
fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".to_owned()),
        None => head.to_owned(),
    }
}

fn main() {
    let cli = dcl_bench::cli::init();
    let quick = cli.quick();
    if cli.pos(0).is_some() {
        eprintln!("usage: perf [--quick] [--out <path>]");
        std::process::exit(2);
    }
    let out_path = cli
        .out_path()
        .map_or("BENCH_perf.json".into(), |p| p.display().to_string());

    // The registry drives the report's work counters regardless of the
    // shared `--metrics` flag; start from a clean slate so the counts are
    // exactly this ladder's.
    dcl_metrics::reset();
    dcl_metrics::set_enabled(true);

    let measure = if quick { 40.0 } else { 120.0 };
    let ladder: Vec<(&str, NsSetting)> = vec![
        ("strongly", strongly_setting(4_000_000, 0xBE7C)),
        ("weakly", weakly_setting(2_000_000, 7_000_000, 0xBE7C)),
        ("no-dominant", no_dcl_setting(1_000_000, 3_000_000, 0xBE7C)),
    ];

    let started = Instant::now();
    let mut phases = Vec::new();

    // Phase 1: simulate the ladder.
    eprintln!(
        "perf: simulating {} scenarios ({measure} s each)...",
        ladder.len()
    );
    let t = Instant::now();
    let traces: Vec<ProbeTrace> = ladder
        .iter()
        .map(|(_, s)| s.run(WARMUP_SECS, measure).0)
        .collect();
    let sim_wall = t.elapsed().as_nanos() as u64;
    let probes: u64 = traces.iter().map(|tr| tr.len() as u64).sum();
    phases.push(phase_report("simulate", sim_wall, probes));

    // Phase 2: identify each trace.
    eprintln!("perf: identifying...");
    let t = Instant::now();
    for ((label, _), trace) in ladder.iter().zip(&traces) {
        match identify(trace, &IdentifyConfig::default()) {
            Ok(r) => eprintln!("perf:   {label}: {:?}", r.verdict),
            Err(e) => eprintln!("perf:   {label}: unusable ({e})"),
        }
    }
    let identify_wall = t.elapsed().as_nanos() as u64;
    phases.push(phase_report("identify", identify_wall, ladder.len() as u64));

    // Phase 3: duration sweep on the strongly dominant trace.
    eprintln!("perf: sweeping...");
    let t = Instant::now();
    let sweep_cfg = SweepConfig {
        durations_secs: if quick {
            vec![10.0, 20.0]
        } else {
            vec![20.0, 40.0, 80.0]
        },
        repetitions: if quick { 8 } else { 16 },
        ..SweepConfig::default()
    };
    let _ = duration_sweep(&traces[0], &sweep_cfg);
    let sweep_wall = t.elapsed().as_nanos() as u64;
    // The EM iterations of the identify and sweep phases alone (simulate
    // runs no EM), so the rate below divides like work by like time.
    let fit_snapshot = dcl_metrics::snapshot();
    let fit_counter = |name: &str| fit_snapshot.counters.get(name).copied().unwrap_or(0);
    let em_iters = fit_counter("hmm.em.iterations") + fit_counter("mmhd.em.iterations");

    // Phase 4: streaming identification over the strongly dominant trace.
    eprintln!("perf: streaming...");
    let t = Instant::now();
    let stream_cfg = StreamConfig {
        window: WindowSpec::Count(if quick { 800 } else { 2000 }),
        hop: if quick { 400 } else { 1000 },
        warm_start: true,
        identify: dcl_bench::light_identify(),
    };
    let windows = StreamingIdentifier::run_trace(&traces[0], stream_cfg).len() as u64;
    let stream_wall = t.elapsed().as_nanos() as u64;

    // Phase 5: fleet-scale many-path identification.
    let (fleet_paths, fleet_probes) = if quick { (120, 200) } else { (1000, 250) };
    eprintln!("perf: synthesizing fleet grid ({fleet_paths} paths x {fleet_probes} probes)...");
    let grid = fleet_grid(fleet_paths, fleet_probes, 0xF1EE7);
    eprintln!("perf: fleet identify...");
    let mut fleet = Fleet::new(FleetConfig {
        identify: dcl_bench::light_identify(),
        ..FleetConfig::default()
    });
    for (label, trace) in grid {
        fleet.push(label, trace);
    }
    let t = Instant::now();
    let fleet_report = fleet.identify_all();
    let fleet_wall = t.elapsed().as_nanos() as u64;
    eprintln!(
        "perf:   fleet verdicts: {} strongly, {} weakly, {} none, {} unidentifiable",
        fleet_report.summary.strongly_dominant,
        fleet_report.summary.weakly_dominant,
        fleet_report.summary.no_dominant,
        fleet_report.summary.unidentifiable,
    );
    let total_wall = started.elapsed().as_nanos() as u64;

    let snapshot = dcl_metrics::snapshot();
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
    let sweep_cells = counter("sweep.cells");
    phases.push(phase_report("sweep", sweep_wall, sweep_cells));
    phases.push(phase_report("stream", stream_wall, windows));
    phases.push(phase_report("fleet", fleet_wall, fleet_paths as u64));

    let fit_secs = (identify_wall + sweep_wall) as f64 / 1e9;
    let report = PerfReport {
        schema_version: PERF_SCHEMA_VERSION,
        quick,
        git_rev: git_rev(),
        threads: dcl_parallel::effective_threads(None),
        peak_rss_bytes: peak_rss_bytes(),
        total_wall_ns: total_wall,
        probes_per_sec: probes as f64 / (sim_wall as f64 / 1e9).max(1e-9),
        em_iterations_per_sec: em_iters as f64 / fit_secs.max(1e-9),
        sweep_cells_per_sec: sweep_cells as f64 / (sweep_wall as f64 / 1e9).max(1e-9),
        windows_per_sec: windows as f64 / (stream_wall as f64 / 1e9).max(1e-9),
        paths_per_sec: fleet_paths as f64 / (fleet_wall as f64 / 1e9).max(1e-9),
        phases,
        metrics: snapshot,
    };

    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(&out_path, json + "\n").unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "perf: {:.1} s total, {:.0} probes/s, {:.0} EM iters/s, {:.1} cells/s, {:.2} windows/s, {:.1} paths/s",
        total_wall as f64 / 1e9,
        report.probes_per_sec,
        report.em_iterations_per_sec,
        report.sweep_cells_per_sec,
        report.windows_per_sec,
        report.paths_per_sec,
    );
    println!("{out_path}");
}
