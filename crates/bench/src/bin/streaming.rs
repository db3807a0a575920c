//! **Streaming replay** — online windowed identification over a scenario
//! whose dominant congested link migrates mid-run.
//!
//! Three calibrated phases are concatenated onto one continuous probe
//! clock: a strongly dominant link at 10 Mb/s (Q₁ ≈ 160 ms), the same
//! topology re-provisioned at 2 Mb/s (Q₁ ≈ 800 ms — the dominant link
//! "moves" to a different delay regime), then a balanced path with no
//! dominant link. The trace is pushed through a [`StreamingIdentifier`]
//! and the per-window verdicts plus the verdict *transitions*
//! (appeared / moved / cleared) are reported — the change signal a
//! long-running monitor alarms on.
//!
//! With `--obs <path>` each window's verdict provenance, EM restarts and
//! spans go to the event artifact, which `explain` renders per window
//! and `explain --chrome` as a Chrome trace; `--metrics <path>` writes
//! the end-of-run registry snapshot.
//!
//! With `--checkpoint <path>` the run ingests only the first half of the
//! trace, snapshots the engine as JSON, and exits (no tail flush); a
//! second invocation with `--restore <path>` resumes from the snapshot
//! and finishes the stream. The two runs' windows concatenated are
//! bitwise identical to one uninterrupted run.
//!
//! With `--seeds N` the run instead replays the migrating trace of `N`
//! consecutive seeds (the first is the single run's) and prints, per seed
//! and in total, how many usable windows agree with the ground-truth
//! verdict of their own records, the warm starts that fell back to the
//! cold schedule, and the E-steps spent.
//!
//! Run: `cargo run --release -p dcl-bench --bin streaming \
//!       [phase_secs] [--quick] [--seeds N] [--obs <path>] [--metrics <path>] \
//!       [--checkpoint <path>] [--restore <path>]`

use dcl_bench::{migrating_trace, print_header, print_row};
use dcl_core::{
    ground_truth_verdict, StreamConfig, StreamingCheckpoint, StreamingIdentifier, Transition,
    WindowSpec,
};
use dcl_probnum::em::EmModel;
use serde_json::json;

/// Seed of the single run's migrating trace, and the first of `--seeds`.
const SEED: u64 = 0xD1CE;

fn main() {
    let cli = dcl_bench::cli::init();
    let quick = cli.quick();
    let phase_secs: f64 = cli.pos_f64(0).unwrap_or(if quick { 40.0 } else { 120.0 });
    let (window, hop) = if quick { (1500, 750) } else { (3000, 1000) };
    let cfg = StreamConfig {
        window: WindowSpec::Count(window),
        hop,
        warm_start: true,
        identify: dcl_bench::light_identify(),
    };
    if let Some(seeds) = cli.seeds() {
        // Each seed's run is captured on its own, so an artifact would
        // hold none of it.
        if cli.has_path_flag() {
            eprintln!("--seeds writes no artifact and takes no checkpoint");
            std::process::exit(2);
        }
        seed_row(&cli, seeds, phase_secs, cfg);
        return;
    }
    let log = cli.log("streaming");

    print_header(
        "Streaming",
        "online windowed identification of a migrating dominant link",
    );
    print_row(
        "window",
        &["seqs", "len", "warm", "verdict", "transition", "loss-rate"],
    );

    let trace = migrating_trace(SEED, phase_secs);
    let mut engine = cli
        .restore(|ck: StreamingCheckpoint| StreamingIdentifier::restore(cfg, ck))
        .unwrap_or_else(|| StreamingIdentifier::new(cfg, trace.base_delay, trace.interval));
    // Resume after the records the checkpointed run already consumed;
    // with `--checkpoint` (and no `--restore`) stop halfway and snapshot
    // instead of flushing, so a second `--restore` run can finish the
    // stream bitwise identically to an uninterrupted one.
    let start = engine.ingested().min(trace.records.len());
    let partial = cli.checkpoint_path().is_some() && cli.restore_path().is_none();
    let end = if partial {
        trace.records.len() / 2
    } else {
        trace.records.len()
    };
    let end = end.max(start);
    let mut updates = Vec::new();
    for record in &trace.records[start..end] {
        updates.extend(engine.push(record.clone()));
    }
    cli.write_checkpoint(|| engine.checkpoint());
    if end == trace.records.len() {
        updates.extend(engine.flush());
    }

    let mut dominant = 0usize;
    let mut transitions = 0usize;
    for u in &updates {
        let (verdict, loss_rate) = match &u.result {
            Ok(r) => (format!("{:?}", r.verdict), format!("{:.4}", r.loss_rate)),
            Err(e) => (format!("unusable: {e:?}"), "-".into()),
        };
        // Is the verdict's fit the warm trajectory? An offered seed that
        // tripped or was refused reads cold.
        let warm = u.result.as_ref().map(|r| r.provenance.warm).ok();
        let transition = u.transition.map_or("-", |t| t.tag());
        if matches!(&u.result, Ok(r) if r.verdict != dcl_core::identify::Verdict::NoDominant) {
            dominant += 1;
        }
        if matches!(
            u.transition,
            Some(Transition::DclAppeared | Transition::DclMoved | Transition::DclCleared)
        ) {
            transitions += 1;
        }
        print_row(
            &format!("  {}", u.window_index),
            &[
                format!("{}..{}", u.first_seq, u.last_seq),
                u.window_len.to_string(),
                warm.map_or("-", |w| if w { "warm" } else { "cold" }).into(),
                verdict,
                transition.into(),
                loss_rate,
            ],
        );
        log.record(&json!({
            "window": u.window_index,
            "first_seq": u.first_seq,
            "last_seq": u.last_seq,
            "window_len": u.window_len,
            "warm": warm,
            "verdict": u.result.as_ref().map(|r| format!("{:?}", r.verdict)).ok(),
            "transition": u.transition.map(|t| t.tag()),
            "loss_rate": u.result.as_ref().map(|r| r.loss_rate).ok(),
        }));
    }

    println!(
        "\nwindows: {}  dominant: {}  change-transitions: {}",
        updates.len(),
        dominant,
        transitions
    );
    println!("records: {log}");

    // The scenario plants a dominant link for two of its three phases:
    // a run that never sees multiple windows or never identifies a
    // dominant link did not exercise the engine. Partial (checkpointing)
    // runs see only a prefix, so the workload gate applies to full runs.
    if !partial {
        assert!(!updates.is_empty(), "expected at least one window");
        assert!(dominant >= 1, "expected at least one dominant verdict");
    }
}

/// The `--seeds` row: each seed's migrating trace through the engine,
/// every usable window scored against the ground-truth verdict of the
/// records it covered.
fn seed_row(cli: &dcl_bench::cli::Cli, seeds: usize, phase_secs: f64, cfg: StreamConfig) {
    let names = <dcl_mmhd::Mmhd as EmModel>::NAMES;
    let log = cli.log("streaming_seeds");
    print_header(
        "Streaming over seeds",
        "per-window agreement with the ground-truth verdict",
    );
    print_row(
        "seed",
        &["windows", "usable", "gt-agree", "warm-fallbacks", "e-steps"],
    );
    let mut total = [0u64; 5];
    for seed in (SEED..).take(seeds) {
        let trace = migrating_trace(seed, phase_secs);
        let (updates, captured) =
            dcl_metrics::capture(|| StreamingIdentifier::run_trace(&trace, cfg));
        let mut usable = 0u64;
        let mut agree = 0u64;
        for u in &updates {
            let Ok(report) = &u.result else { continue };
            usable += 1;
            // The migrating trace numbers its records from 0.
            let window = trace.segment(u.first_seq as usize, u.window_len);
            if ground_truth_verdict(&window, &cfg.identify) == Some(report.verdict) {
                agree += 1;
            }
        }
        let row = [
            updates.len() as u64,
            usable,
            agree,
            captured.metrics.counter(names.warm_fallbacks),
            captured.metrics.counter(names.iterations),
        ];
        for (t, v) in total.iter_mut().zip(row) {
            *t += v;
        }
        print_row(
            &format!("  {seed:#x}"),
            &row.iter().map(u64::to_string).collect::<Vec<_>>(),
        );
        log.record(&json!({
            "seed": seed,
            "phase_secs": phase_secs,
            "windows": row[0],
            "usable": row[1],
            "gt_agree": row[2],
            "warm_fallbacks": row[3],
            "e_steps": row[4],
        }));
    }
    print_row(
        "total",
        &total.iter().map(u64::to_string).collect::<Vec<_>>(),
    );
    println!(
        "\ngt-agreement: {}/{} = {:.3}",
        total[2],
        total[1],
        total[2] as f64 / total[1].max(1) as f64
    );
    println!("records: {log}");
}
