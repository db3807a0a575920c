//! **Fig. 13** — synthetic Internet experiments with an ADSL receiver and
//! three senders (UFPR, USevilla, SNU). The ADSL access link dominates the
//! first two paths (WDCL accepts); the SNU-like path has a second
//! congested hop mid-path, so the test rejects — matching the paper's
//! pchar cross-check.
//!
//! Run: `cargo run --release -p dcl-bench --bin fig13 [measure_secs] [--obs <path>]`

use dcl_bench::settings::FIG13;
use dcl_bench::{print_header, print_pmf_rows, ExperimentLog, NsSetting, WARMUP_SECS};
use dcl_core::discretize::Discretizer;
use dcl_core::estimators::{MmhdEnsemble, MmhdEstimator, VqdEstimator};
use dcl_core::hyptest::{wdcl_test, WdclParams};
use serde_json::json;

fn run_panel(panel: &str, setting: &NsSetting, measure: f64, log: &ExperimentLog) {
    let (trace, sc) = setting.run(WARMUP_SECS, measure);
    println!(
        "{panel}: {} hops, loss rate {:.3}%",
        sc.probe_route.len(),
        trace.loss_rate() * 100.0
    );
    if trace.loss_count() == 0 {
        println!("  no losses in this window; skipping");
        return;
    }
    let disc = match Discretizer::from_trace(&trace, 5, None) {
        Some(d) => d,
        None => {
            println!("  degenerate delays; skipping");
            return;
        }
    };
    for n in [1usize, 2, 4] {
        let pmf = MmhdEstimator {
            num_hidden: n,
            ..MmhdEstimator::default()
        }
        .estimate(&trace, &disc)
        .expect("losses");
        print_pmf_rows(&format!("mmhd (N={n})"), &pmf);
    }
    // Verdict from the N-ensemble (the paper checks that the per-N fits
    // agree; averaging them makes the test robust to one bad EM basin).
    let ens = MmhdEnsemble.estimate(&trace, &disc).expect("losses");
    let out = wdcl_test(&ens.cdf(), WdclParams::paper_internet(), 0.01);
    println!(
        "  WDCL-Test on N-ensemble (0.05, 0.05): d* = {:?}, F(2d*) = {:.3} -> {}",
        out.d_star,
        out.f_at_2d_star,
        if out.accepted { "accept" } else { "reject" }
    );
    log.record(&json!({
        "panel": panel,
        "accepted": out.accepted,
        "f_2dstar": out.f_at_2d_star,
        "loss_rate": trace.loss_rate(),
        "pmf": ens.mass(),
    }));
}

fn main() {
    let cli = dcl_bench::cli::init();
    let measure: f64 = cli.pos_f64(0).unwrap_or(1200.0);
    let log = cli.log("fig13");
    print_header(
        "Fig. 13",
        "Internet experiments (synthetic), ADSL receiver, three senders",
    );
    for (panel, setting) in ["(a)", "(b)", "(c)"].iter().zip(FIG13.settings()) {
        let panel = format!("{panel} {}", setting.label);
        run_panel(&panel, &setting, measure, log);
    }
    println!("\nrecords: {log}");
}
