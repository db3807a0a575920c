//! Checkpoint wire-format pins: the exact JSON bytes of one engine
//! checkpoint and one fleet checkpoint, each taken mid-stream with a warm
//! model, a non-empty window buffer and two unusable windows behind the
//! last usable one, are committed under `tests/golden/`. A refactor of the
//! streaming runtime must serialise the same states to the same bytes,
//! and a checkpoint written by an earlier build must restore into a
//! continuation bitwise equal to the run that never stopped.
//!
//! Unlike the other golden fixtures these are not regenerated by
//! `DCL_REGEN_GOLDEN`: a changed byte is either a checkpoint format
//! change, which needs a new `CHECKPOINT_VERSION`, or a deliberate change
//! of the fitted numbers, re-blessed by hand and recorded as such. Floats
//! are written in upstream serde_json's notation (exponent form below
//! `1e-5` and from `1e16`), and read back to the same bits in either
//! notation, so a checkpoint written positionally by an earlier build
//! still restores.

mod common;

use dominant_congested_links::fleet::{FleetCheckpoint, StreamingFleet};
use dominant_congested_links::identification::identify::IdentifyConfig;
use dominant_congested_links::identification::{
    StreamConfig, StreamUpdate, StreamingCheckpoint, StreamingIdentifier, WindowSpec,
};
use dominant_congested_links::netsim::sim::ProbeRecord;
use dominant_congested_links::netsim::time::Dur;

/// Records per window, and the window hop.
const PER: usize = 100;
/// Checkpoint position: half-way into the fourth window, after one
/// usable window (warm model, verdict state) and two unusable ones.
const CUT: usize = 3 * PER + PER / 2;

const BASE: Dur = Dur::from_nanos(22_000_000);
const INTERVAL: Dur = Dur::from_nanos(20_000_000);

fn fixture(name: &str) -> String {
    let path = format!("tests/golden/{name}");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn cfg() -> StreamConfig {
    StreamConfig {
        window: WindowSpec::Count(PER),
        hop: PER,
        warm_start: true,
        identify: IdentifyConfig {
            estimate_bound: false,
            restarts: 2,
            parallelism: Some(1),
            ..IdentifyConfig::default()
        },
    }
}

#[test]
fn engine_checkpoint_bytes_and_continuation_are_pinned() {
    let records = common::blocks("DLLLLDDDDD", PER, 0).records;
    let mut engine = StreamingIdentifier::new(cfg(), BASE, INTERVAL);
    let before = engine.push_chunk(&records[..CUT]);
    assert_eq!(before.len(), 3);
    assert!(
        before[0].result.is_ok(),
        "the first window must warm the model"
    );
    assert!(before[1..].iter().all(|u| u.result.is_err()));

    let stored = fixture("checkpoint_engine.json");
    let json = serde_json::to_string(&engine.checkpoint()).expect("checkpoint serialises");
    assert_eq!(json + "\n", stored, "engine checkpoint bytes changed");

    // The uninterrupted run, and a run restored from the stored bytes.
    let mut want = engine.push_chunk(&records[CUT..]);
    want.extend(engine.flush());
    let ck: StreamingCheckpoint = serde_json::from_str(&stored).expect("fixture parses");
    assert_eq!(ck.window_len(), PER);
    let mut restored = StreamingIdentifier::restore(cfg(), ck).expect("fixture restores");
    let mut got = restored.push_chunk(&records[CUT..]);
    got.extend(restored.flush());

    assert!(want.len() >= 4, "the continuation must evaluate windows");
    assert_eq!(got, want, "restored continuation diverged");
    assert_eq!(
        serde_json::to_string(&restored.checkpoint()).unwrap(),
        serde_json::to_string(&engine.checkpoint()).unwrap(),
        "restored engine ended in a different state"
    );
}

#[test]
fn fleet_checkpoint_bytes_and_continuation_are_pinned() {
    let paths = [
        common::blocks("DLLLLDDDDD", PER, 0).records,
        common::blocks("DDDDDDDDDD", PER, 7).records,
    ];
    let build = || {
        let mut fleet = StreamingFleet::new(Some(1));
        for _ in &paths {
            fleet.add_path(cfg(), BASE, INTERVAL);
        }
        fleet
    };
    // Rounds of half a window per path from `from` to the end, then the
    // tail flush.
    let finish = |fleet: &mut StreamingFleet, from: usize| {
        let mut updates: Vec<Vec<StreamUpdate>> = vec![Vec::new(); paths.len()];
        for off in (from..paths[0].len()).step_by(PER / 2) {
            let chunks: Vec<&[ProbeRecord]> =
                paths.iter().map(|p| &p[off..off + PER / 2]).collect();
            for (p, ups) in fleet.ingest_round(&chunks).into_iter().enumerate() {
                updates[p].extend(ups);
            }
        }
        for (p, tail) in fleet.flush_all().into_iter().enumerate() {
            updates[p].extend(tail);
        }
        updates
    };

    let mut fleet = build();
    let mut before = Vec::new();
    for off in (0..CUT).step_by(PER / 2) {
        let chunks: Vec<&[ProbeRecord]> = paths.iter().map(|p| &p[off..off + PER / 2]).collect();
        before.extend(fleet.ingest_round(&chunks).swap_remove(0));
    }
    assert_eq!(before.len(), 3);
    assert!(before[1..].iter().all(|u| u.result.is_err()));
    let stored = fixture("checkpoint_fleet.json");
    let json = serde_json::to_string(&fleet.checkpoint_all()).expect("checkpoint serialises");
    assert_eq!(json + "\n", stored, "fleet checkpoint bytes changed");

    let want = finish(&mut fleet, CUT);
    let ck: FleetCheckpoint = serde_json::from_str(&stored).expect("fixture parses");
    let mut restored = StreamingFleet::restore_all(Some(2), cfg(), ck).expect("fixture restores");
    let got = finish(&mut restored, CUT);

    assert!(want[0].len() >= 3, "the continuation must evaluate windows");
    assert_eq!(got, want, "restored continuation diverged");
    assert_eq!(
        serde_json::to_string(&restored.checkpoint_all()).unwrap(),
        serde_json::to_string(&fleet.checkpoint_all()).unwrap(),
        "restored fleet ended in a different state"
    );
}

/// Floats outside `[1e-5, 1e16)` are written in exponent form, as
/// upstream serde_json writes them, and every float reads back to the same
/// bits from that form and from the positional one an earlier writer used.
#[test]
fn floats_round_trip_in_both_notations() {
    let subnormal: f64 = "2.737e-320".parse().unwrap();
    assert!(subnormal > 0.0 && !subnormal.is_normal());
    for (x, text) in [
        (subnormal, "2.737e-320"),
        (1e300, "1e300"),
        (-2.5e-7, "-2.5e-7"),
        (1e16, "1e16"),
        (1e-5, "0.00001"),
        (0.1, "0.1"),
        (10.0, "10"),
        (0.0, "0"),
    ] {
        assert_eq!(serde_json::to_string(&x).unwrap(), text);
        let parsed: f64 = serde_json::from_str(text).unwrap();
        assert_eq!(parsed.to_bits(), x.to_bits(), "{text}");
        let positional: f64 = serde_json::from_str(&format!("{x}")).unwrap();
        assert_eq!(positional.to_bits(), x.to_bits(), "{x}");
    }
    let nested: Vec<f64> = serde_json::from_str("[2.737e-320, 1e300, 0.1]").unwrap();
    assert_eq!(nested, [subnormal, 1e300, 0.1]);
}
