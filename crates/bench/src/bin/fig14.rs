//! **Fig. 14** — consistency ratio vs probing duration on the
//! USevilla-like ADSL path (the campaign's lossiest), with the propagation
//! delay treated as known (minimum delay of the *whole* trace) or unknown
//! (minimum of the segment). The paper finds the two indistinguishable and
//! full consistency above ~12 minutes.
//!
//! Run: `cargo run --release -p dcl-bench --bin fig14 [reps] [base_secs] [--obs <path>]`

use dcl_bench::settings::FIG14;
use dcl_bench::{print_header, print_row, WARMUP_SECS};
use dcl_core::identify::IdentifyConfig;
use dcl_core::sweep::{duration_sweep, SweepConfig};
use serde_json::json;

fn main() {
    let cli = dcl_bench::cli::init();
    let reps: usize = cli.pos_usize(0).unwrap_or(40);
    let base: f64 = cli.pos_f64(1).unwrap_or(1200.0);
    let log = cli.log("fig14");

    print_header(
        "Fig. 14",
        "consistency ratio vs probing duration (USevilla-like ADSL path)",
    );
    let (trace, _) = FIG14.setting().run(WARMUP_SECS, base);
    println!(
        "  base trace: {} probes, loss rate {:.3}%",
        trace.len(),
        trace.loss_rate() * 100.0
    );

    let base_cfg = IdentifyConfig {
        wdcl: dcl_core::hyptest::WdclParams::paper_internet(),
        ..dcl_bench::light_identify()
    };
    let known_floor = trace.min_owd().expect("delivered probes");

    // Sub-minute points added relative to the paper: this synthetic path is
    // ~3x lossier than the 2010 USevilla path, so the reliability
    // transition happens earlier.
    let durations_min = [0.5, 1.0, 2.0, 4.0, 8.0, 12.0];
    let header: Vec<String> = durations_min.iter().map(|d| format!("{d} min")).collect();
    print_row("duration", &header);

    for (label, floor) in [("unknown Dprop", None), ("known Dprop", Some(known_floor))] {
        let sweep_cfg = SweepConfig {
            durations_secs: durations_min.iter().map(|m| m * 60.0).collect(),
            repetitions: reps,
            seed: 0x914,
            identify: IdentifyConfig {
                known_floor: floor,
                ..base_cfg
            },
            parallelism: None,
        };
        let result = duration_sweep(&trace, &sweep_cfg).expect("usable trace");
        if floor.is_none() {
            println!(
                "  full-trace verdict: {}",
                if result.reference_dominant {
                    "dominant congested link"
                } else {
                    "no dominant congested link"
                }
            );
        }
        // The sweep skips durations not shorter than the trace.
        let ratios: Vec<Option<f64>> = sweep_cfg
            .durations_secs
            .iter()
            .map(|&d| {
                let point = result.points.iter().find(|p| p.duration_secs == d);
                point.map(|p| p.match_ratio)
            })
            .collect();
        print_row(
            label,
            &ratios
                .iter()
                .map(|r| r.map_or_else(|| "-".to_string(), |r| format!("{r:.2}")))
                .collect::<Vec<_>>(),
        );
        log.record(&json!({
            "series": label,
            "durations_min": durations_min,
            "ratios": ratios,
            "reps": reps,
        }));
    }
    println!("\nrecords: {log}");
}
