//! **Recovery** — fault-storm supervision and kill/restore replay over a
//! supervised streaming fleet.
//!
//! Four paths share one supervised [`StreamingFleet`] (window-hop health
//! supervision, bounded-work [`EmBudget`]):
//!
//! * a *storm* path whose first windows are unusable (no losses), driving
//!   it `Healthy → Degraded → Quarantined`, through the deterministic
//!   backoff to `Probation`, and — once its windows carry a dominant
//!   congested link again — back to `Healthy`;
//! * two *steady* dominant-link paths that stay healthy throughout;
//! * a *panic* path whose first window evaluation panics (injected
//!   fault): the fleet contains the panic, force-quarantines the path,
//!   and walks it through the same probation cycle.
//!
//! Halfway through the storm the fleet is checkpointed, dropped ("kill"),
//! deserialised, and restored; the continuation's window updates are
//! asserted bitwise equal to an uninterrupted twin — quarantine schedules
//! included. `--checkpoint <path>` additionally writes the mid-run
//! [`FleetCheckpoint`] JSON for external inspection.
//!
//! Run: `cargo run --release -p dcl-bench --bin recovery \
//!       [--obs <path>] [--metrics <path>] [--checkpoint <path>]`

use dcl_bench::{print_header, print_row};
use dcl_core::identify::IdentifyConfig;
use dcl_core::{PathHealth, StreamConfig, StreamUpdate, WindowSpec};
use dcl_fleet::{FleetCheckpoint, StreamingFleet};
use dcl_netsim::packet::ProbeStamp;
use dcl_netsim::sim::ProbeRecord;
use dcl_netsim::time::{Dur, Time};
use dcl_probnum::em::EmBudget;
use serde_json::json;

/// What one window's worth of a path's record stream looks like.
#[derive(Clone, Copy, PartialEq)]
enum WindowKind {
    /// Losses only inside high-delay bursts: identifiable dominant link.
    Dominant,
    /// Every probe delivered with benign delays: `no-losses` error.
    Lossless,
}

/// One window of records on a continuous per-path probe clock
/// (`seq = i`, `sent = i * 20 ms` across the whole stream).
fn window_block(kind: WindowKind, start: usize, len: usize, offset: usize) -> Vec<ProbeRecord> {
    (start..start + len)
        .map(|i| {
            let sent = Time::from_secs(i as f64 * 0.02);
            let mut stamp = ProbeStamp::new(i as u64, None, sent);
            let arrival = match kind {
                WindowKind::Dominant => {
                    let phase = (i + offset) % 25;
                    if phase == 19 || phase == 21 {
                        stamp.loss_hop = Some(1);
                        None
                    } else if phase >= 17 {
                        Some(sent + Dur::from_millis(165.0 + (phase % 5) as f64 * 5.0))
                    } else {
                        Some(sent + Dur::from_millis(25.0 + ((i * 11) % 100) as f64))
                    }
                }
                WindowKind::Lossless => Some(sent + Dur::from_millis(25.0 + (i % 50) as f64)),
            };
            ProbeRecord { stamp, arrival }
        })
        .collect()
}

/// Per-path window schedule of the storm scenario.
fn schedule(path: usize, windows: usize) -> Vec<WindowKind> {
    (0..windows)
        .map(|w| match path {
            // Storm path: four unusable windows (degrade, then
            // quarantine), then dominant-link windows to recover on.
            0 if w < 4 => WindowKind::Lossless,
            _ => WindowKind::Dominant,
        })
        .collect()
}

fn build_fleet(cfg: StreamConfig, paths: usize, base: Dur, interval: Dur) -> StreamingFleet {
    let mut fleet = StreamingFleet::new(Some(2));
    for _ in 0..paths {
        fleet.add_path(cfg, base, interval);
    }
    // The panic path's first window evaluation dies mid-pipeline.
    fleet.engine_mut(3).inject_eval_panics(1);
    fleet
}

fn main() {
    let cli = dcl_bench::cli::init();
    // No `--quick` mode: the scenario is already small (4 paths x 8
    // windows, well under a second), and shrinking the windows below
    // 500 probes trips EM guards on every path, collapsing the
    // supervision premise the bin exists to assert.
    let window = 500usize;
    let windows = 8usize;
    let paths = 4usize;
    let log = cli.log("recovery");

    print_header(
        "Recovery",
        "fault-storm supervision with mid-storm kill/restore",
    );

    let base = Dur::from_millis(22.0);
    let interval = Dur::from_millis(20.0);
    let cfg = StreamConfig {
        window: WindowSpec::Count(window),
        hop: window,
        identify: IdentifyConfig {
            budget: Some(EmBudget::default()),
            ..dcl_bench::light_identify()
        },
        supervise: true,
        ..StreamConfig::default()
    };

    // Per-path record streams, one window per round.
    let rounds: Vec<Vec<Vec<ProbeRecord>>> = (0..windows)
        .map(|w| {
            (0..paths)
                .map(|p| window_block(schedule(p, windows)[w], w * window, window, 7 * p))
                .collect()
        })
        .collect();

    // The injected panic is expected; keep its hook output off the
    // report. (Restored before the summary prints.)
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    // Uninterrupted twin: the bitwise reference for the restored run.
    let mut twin = build_fleet(cfg, paths, base, interval);
    let mut want: Vec<Vec<StreamUpdate>> = vec![Vec::new(); paths];
    for round in &rounds {
        let chunks: Vec<&[ProbeRecord]> = round.iter().map(Vec::as_slice).collect();
        for (p, ups) in twin.ingest_round(&chunks).into_iter().enumerate() {
            want[p].extend(ups);
        }
    }

    // Storm run: half the rounds, checkpoint, kill, restore, finish.
    let mut fleet = build_fleet(cfg, paths, base, interval);
    let mut got: Vec<Vec<StreamUpdate>> = vec![Vec::new(); paths];
    let half = windows / 2;
    for round in &rounds[..half] {
        let chunks: Vec<&[ProbeRecord]> = round.iter().map(Vec::as_slice).collect();
        for (p, ups) in fleet.ingest_round(&chunks).into_iter().enumerate() {
            got[p].extend(ups);
        }
    }
    let ck = fleet.checkpoint_all();
    let ck_json = serde_json::to_string_pretty(&ck).expect("checkpoint serialises");
    drop(fleet); // the "kill"
    cli.write_checkpoint(|| &ck);
    let ck: FleetCheckpoint = serde_json::from_str(&ck_json).expect("checkpoint parses");
    let mut fleet = StreamingFleet::restore_all(Some(2), cfg, ck).expect("checkpoint restores");
    for round in &rounds[half..] {
        let chunks: Vec<&[ProbeRecord]> = round.iter().map(Vec::as_slice).collect();
        for (p, ups) in fleet.ingest_round(&chunks).into_iter().enumerate() {
            got[p].extend(ups);
        }
    }
    std::panic::set_hook(hook);

    print_row("path", &["role", "windows", "quarantines", "health"]);
    let roles = ["storm", "steady", "steady", "panic"];
    for p in 0..paths {
        let health = fleet.engine(p).health();
        print_row(
            &format!("  {p}"),
            &[
                roles[p].into(),
                got[p].len().to_string(),
                fleet.engine(p).quarantines().to_string(),
                health.tag().into(),
            ],
        );
        log.record(&json!({
            "path": p,
            "role": roles[p],
            "windows": got[p].len(),
            "quarantines": fleet.engine(p).quarantines(),
            "health": health.tag(),
        }));
    }
    println!("\nrecords: {log}");

    // The hard guarantees this bin exists to demonstrate.
    assert_eq!(
        want, got,
        "restored continuation diverged from the uninterrupted twin"
    );
    assert_eq!(
        fleet.engine(0).quarantines(),
        1,
        "storm path must quarantine once"
    );
    assert_eq!(
        fleet.engine(0).health(),
        PathHealth::Healthy,
        "storm path must recover through probation"
    );
    assert_eq!(
        fleet.engine(3).quarantines(),
        1,
        "panic path must quarantine once"
    );
    assert_eq!(
        fleet.engine(3).health(),
        PathHealth::Healthy,
        "panic path must recover through probation"
    );
    for p in [1usize, 2] {
        assert_eq!(
            fleet.engine(p).quarantines(),
            0,
            "steady path {p} must stay healthy"
        );
        assert_eq!(fleet.engine(p).health(), PathHealth::Healthy);
    }
    println!("kill/restore continuation bitwise identical; storm and panic paths recovered");
}
