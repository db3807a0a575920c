//! **Robustness sweep** — verdict stability under injected measurement
//! impairments.
//!
//! For each bundled scenario (strongly dominant, weakly dominant, no
//! dominant link) the clean simulator trace is impaired by seeded
//! `dcl-faults` stacks at increasing intensity, then pushed through the
//! full identification pipeline. The report counts, per (scenario,
//! intensity) cell, how often the verdict matches the clean-trace verdict,
//! how often it degrades gracefully (warnings or a typed error), and —
//! the invariant the no-panic property suite pins down — that nothing
//! panics and no reported statistic is NaN.
//!
//! Run: `cargo run --release -p dcl-bench --bin robustness \
//!       [measure_secs] [plans_per_cell] [--quick] [--obs <path>]`

use dcl_bench::{
    no_dcl_setting, print_header, print_row, strongly_setting, weakly_setting, WARMUP_SECS,
};
use dcl_core::identify::identify;
use dcl_faults::FaultPlan;
use dcl_netsim::trace::{ProbeTrace, TraceSanitation};
use serde_json::json;

struct Cell {
    scenario: &'static str,
    intensity: f64,
    plans: usize,
    stable: usize,
    degraded: usize,
    errors: usize,
}

fn scenario_traces(measure: f64) -> Vec<(&'static str, ProbeTrace)> {
    let scenarios = [
        ("strongly", strongly_setting(1_000_000, 0xB0B)),
        ("weakly", weakly_setting(1_000_000, 3_000_000, 0xB0B)),
        ("no-dcl", no_dcl_setting(1_000_000, 3_000_000, 0xB0B)),
    ];
    dcl_parallel::par_map(None, &scenarios, |(name, setting)| {
        (*name, setting.run(WARMUP_SECS, measure).0)
    })
}

fn main() {
    let cli = dcl_bench::cli::init();
    let quick = cli.quick();
    let measure: f64 = cli.pos_f64(0).unwrap_or(if quick { 40.0 } else { 120.0 });
    let plans_per_cell = cli.pos_usize(1).unwrap_or(if quick { 2 } else { 6 });
    let intensities: &[f64] = if quick {
        &[0.0, 0.5, 1.0]
    } else {
        &[0.0, 0.25, 0.5, 0.75, 1.0]
    };
    let log = cli.log("robustness");

    print_header(
        "Robustness",
        "verdict stability under seeded fault-injection stacks",
    );
    print_row(
        "cell",
        &["intensity", "plans", "stable", "degraded-ok", "typed-error"],
    );

    let traces = scenario_traces(measure);
    let cfg = dcl_bench::light_identify();

    let mut grid: Vec<(&'static str, &ProbeTrace, f64)> = Vec::new();
    for (name, trace) in &traces {
        for &intensity in intensities {
            grid.push((name, trace, intensity));
        }
    }

    let cells = dcl_parallel::par_map(None, &grid, |&(scenario, trace, intensity)| {
        // The clean-trace outcome is the stability reference; short quick
        // runs may legitimately end in a typed error (too few losses) and
        // an unimpaired trace must then reproduce that same error.
        let clean = identify(trace, &cfg).map(|r| r.verdict);
        let mut cell = Cell {
            scenario,
            intensity,
            plans: plans_per_cell,
            stable: 0,
            degraded: 0,
            errors: 0,
        };
        for p in 0..plans_per_cell {
            let plan = FaultPlan::sampled(0xC0DE + p as u64 * 131, intensity, 7);
            let (impaired, _report) = plan.apply(trace);
            match identify(&impaired, &cfg) {
                Ok(r) => {
                    assert!(
                        r.loss_rate.is_finite() && r.pmf.mass().iter().all(|x| x.is_finite()),
                        "NaN in report for {scenario}@{intensity}"
                    );
                    if Ok(r.verdict) == clean && r.sanitation == TraceSanitation::default() {
                        cell.stable += 1;
                    } else {
                        cell.degraded += 1;
                    }
                }
                Err(e) => {
                    if clean.as_ref().err() == Some(&e) {
                        cell.stable += 1;
                    } else {
                        cell.errors += 1;
                    }
                }
            }
        }
        cell
    });

    for cell in &cells {
        print_row(
            &format!("  {}", cell.scenario),
            &[
                format!("{:.2}", cell.intensity),
                cell.plans.to_string(),
                cell.stable.to_string(),
                cell.degraded.to_string(),
                cell.errors.to_string(),
            ],
        );
        log.record(&json!({
            "scenario": cell.scenario,
            "intensity": cell.intensity,
            "plans": cell.plans,
            "stable": cell.stable,
            "degraded": cell.degraded,
            "errors": cell.errors,
        }));
    }

    // At zero intensity every sampled fault is parameterised to a no-op,
    // so each plan must reproduce the clean-trace outcome exactly.
    for cell in cells.iter().filter(|c| c.intensity == 0.0) {
        assert_eq!(
            cell.stable, cell.plans,
            "{}: zero-intensity plans must match the clean outcome",
            cell.scenario
        );
    }

    println!("\nrecords: {log}");
}
