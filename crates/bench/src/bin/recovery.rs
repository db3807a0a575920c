//! **Recovery** — kill/restore replay over a streaming fleet.
//!
//! Four paths share one [`StreamingFleet`]:
//!
//! * a *lossless* path whose middle windows carry no losses: they are
//!   unusable (`no-losses`), keep the last usable verdict, and straddle
//!   the checkpoint;
//! * two *steady* dominant-link paths;
//! * a *panic* path whose first window evaluation panics (injected
//!   fault): the fleet contains the panic, the window yields no update,
//!   and the path evaluates again at its next evaluation point.
//!
//! Halfway through, the fleet is checkpointed, dropped ("kill"),
//! deserialised, and restored; the continuation's window updates are
//! asserted bitwise equal to an uninterrupted twin. `--checkpoint <path>`
//! additionally writes the mid-run [`FleetCheckpoint`] JSON for external
//! inspection.
//!
//! Run: `cargo run --release -p dcl-bench --bin recovery \
//!       [--obs <path>] [--metrics <path>] [--checkpoint <path>]`

use dcl_bench::{print_header, print_row};
use dcl_core::identify::IdentifyError;
use dcl_core::{StreamConfig, StreamUpdate, WindowSpec};
use dcl_fleet::{FleetCheckpoint, StreamingFleet};
use dcl_netsim::packet::ProbeStamp;
use dcl_netsim::sim::ProbeRecord;
use dcl_netsim::time::{Dur, Time};
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

/// Per-path window schedule: the lossless path's windows 2-5 carry no
/// losses, every other window a dominant congested link.
fn schedule(path: usize, windows: usize) -> Vec<WindowKind> {
    (0..windows)
        .map(|w| match path {
            0 if (2..6).contains(&w) => WindowKind::Lossless,
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
    // windows, well under a second).
    let window = 500usize;
    let windows = 8usize;
    let paths = 4usize;
    let log = cli.log("recovery");

    print_header("Recovery", "streaming fleet with mid-run kill/restore");

    let base = Dur::from_millis(22.0);
    let interval = Dur::from_millis(20.0);
    let cfg = StreamConfig {
        window: WindowSpec::Count(window),
        hop: window,
        identify: dcl_bench::light_identify(),
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

    // Half the rounds, checkpoint, kill, restore, finish.
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

    print_row("path", &["role", "windows", "unusable", "last verdict"]);
    let roles = ["lossless", "steady", "steady", "panic"];
    let unusable = |p: usize| got[p].iter().filter(|u| u.result.is_err()).count();
    for p in 0..paths {
        let last = got[p]
            .iter()
            .rev()
            .find_map(|u| u.result.as_ref().ok())
            .map_or("none", |r| r.verdict.tag());
        print_row(
            &format!("  {p}"),
            &[
                roles[p].into(),
                got[p].len().to_string(),
                unusable(p).to_string(),
                last.into(),
            ],
        );
        log.record(&json!({
            "path": p,
            "role": roles[p],
            "windows": got[p].len(),
            "unusable": unusable(p),
            "last_verdict": last,
        }));
    }
    println!("\nrecords: {log}");

    // The hard guarantees this bin exists to demonstrate.
    assert_eq!(
        want, got,
        "restored continuation diverged from the uninterrupted twin"
    );
    let lossless: Vec<bool> = got[0]
        .iter()
        .map(|u| u.result == Err(IdentifyError::NoLosses))
        .collect();
    assert_eq!(
        lossless,
        schedule(0, windows)
            .iter()
            .map(|&k| k == WindowKind::Lossless)
            .collect::<Vec<_>>(),
        "exactly the lossless path's loss-free windows must be unusable"
    );
    assert_eq!(
        got[3].first().map(|u| u.window_index),
        Some(1),
        "the panicked window must yield no update, and the next one must"
    );
    assert_eq!(got[3].len(), windows - 1);
    for p in [1usize, 2] {
        assert_eq!(got[p].len(), windows, "steady path {p}");
    }
    println!("kill/restore continuation bitwise identical; the panic was contained");
}
