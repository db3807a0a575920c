//! Golden regression fixtures: canonical end-to-end outputs captured from
//! fixed seeds and committed under `tests/golden/`. Every run replays the
//! pipeline and compares against the stored JSON *exactly* — verdicts by
//! string, floats by round-tripped value — so any behavioural drift in the
//! simulator, the EM fitters, the hypothesis tests, or the parallel
//! execution layer shows up as a diff against a reviewed artefact.
//!
//! To regenerate after an intentional behaviour change:
//!
//! ```text
//! DCL_REGEN_GOLDEN=1 cargo test --test golden_regression
//! ```
//!
//! and commit the updated fixtures with the change that motivated them.

mod common;

use common::dominant_trace;
use dcl_bench::settings::TABLE2;
use dcl_bench::{light_identify, migrating_trace, verdict_label, WARMUP_SECS};
use dominant_congested_links::identification::identify::identify;
use dominant_congested_links::identification::sweep::{duration_sweep, SweepConfig};
use dominant_congested_links::identification::{
    StreamConfig, StreamingIdentifier, Transition, WindowSpec,
};
use serde_json::{json, Value};
use std::fs;
use std::path::{Path, PathBuf};

/// Fixture location, relative to the workspace root (both `cargo test`
/// and the offline driver run test binaries from there).
fn fixture_path(name: &str) -> PathBuf {
    Path::new("tests/golden").join(name)
}

fn regenerating() -> bool {
    std::env::var_os("DCL_REGEN_GOLDEN").is_some()
}

/// Map every JSON number onto its `f64` value, recursively. The JSON
/// text round-trip parses a serialised whole float (`1.0` → `1`) back as
/// an integer, so a structural comparison must not distinguish the two.
/// Every numeric field in the fixtures is exactly representable as `f64`,
/// so the mapping is lossless and the comparison stays exact.
fn canon(v: &Value) -> Value {
    match v {
        Value::Number(n) => json!(n.as_f64()),
        Value::Array(items) => Value::Array(items.iter().map(canon).collect()),
        Value::Object(map) => {
            Value::Object(map.iter().map(|(k, v)| (k.clone(), canon(v))).collect())
        }
        other => other.clone(),
    }
}

/// Compare `actual` against the committed fixture, or rewrite the fixture
/// when `DCL_REGEN_GOLDEN` is set.
fn check_fixture(name: &str, actual: &Value) {
    let path = fixture_path(name);
    if regenerating() {
        fs::write(&path, serde_json::to_string_pretty(actual).unwrap() + "\n")
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        eprintln!("regenerated {}", path.display());
        return;
    }
    let stored = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with DCL_REGEN_GOLDEN=1 to create it",
            path.display()
        )
    });
    let expected: Value = serde_json::from_str(&stored).expect("fixture is valid JSON");
    assert_eq!(
        canon(actual),
        canon(&expected),
        "golden fixture {name} drifted; if the change is intentional, \
         regenerate with DCL_REGEN_GOLDEN=1 and commit the diff"
    );
}

/// Table II at a reduced measurement length: the strongly-dominant
/// bandwidth grid must keep producing the committed verdict vector and
/// per-setting probe loss rates.
#[test]
fn table2_verdict_vector_matches_golden() {
    let measure = 40.0; // reduced from the paper's 300 s to keep CI fast
    let cfg = light_identify();
    let rows: Vec<Value> = TABLE2
        .settings()
        .iter()
        .map(|setting| {
            let (trace, _sc) = setting.run(WARMUP_SECS, measure);
            let verdict = identify(&trace, &cfg).map_or("unusable", |r| verdict_label(r.verdict));
            json!({
                "hop1_bps": setting.config.hops[0].bandwidth_bps,
                "probe_loss": trace.loss_rate(),
                "verdict": verdict,
            })
        })
        .collect();
    check_fixture(
        "table2_verdicts.json",
        &json!({ "measure_secs": measure, "rows": rows }),
    );
}

/// A full `SweepResult` from a fixed seed on a deterministic trace —
/// match ratios, Wilson intervals, unusable ratios and all.
#[test]
fn duration_sweep_matches_golden() {
    let trace = dominant_trace(9_000); // 180 s
    let cfg = SweepConfig {
        durations_secs: vec![10.0, 30.0, 60.0],
        repetitions: 8,
        seed: 0x601D,
        identify: light_identify(),
        parallelism: None,
    };
    let result = duration_sweep(&trace, &cfg).expect("usable trace");
    let actual = serde_json::to_value(&result).expect("SweepResult serialises");
    check_fixture("sweep_result.json", &actual);
}

/// The streaming engine's verdict-transition timeline over the
/// migrating-DCL scenario (strongly dominant → moved to a slower regime
/// → cleared): window positions, warm flags, verdicts, PMF modes,
/// loss rates and transition tags, all pinned exactly.
#[test]
fn streaming_transition_timeline_matches_golden() {
    let phase_secs = 40.0; // matches `streaming --quick`
    let trace = migrating_trace(0xD1CE, phase_secs);
    let cfg = StreamConfig {
        window: WindowSpec::Count(1_500),
        hop: 750,
        warm_start: true,
        identify: light_identify(),
    };
    let updates = StreamingIdentifier::run_trace(&trace, cfg);
    let rows: Vec<Value> = updates
        .iter()
        .map(|u| {
            let (verdict, mode, loss_rate) = match &u.result {
                Ok(r) => (
                    format!("{:?}", r.verdict),
                    Some(r.pmf.mode()),
                    Some(r.loss_rate),
                ),
                Err(_) => ("unusable".to_owned(), None, None),
            };
            json!({
                "window": u.window_index,
                "first_seq": u.first_seq,
                "last_seq": u.last_seq,
                "len": u.window_len,
                "warm": u.warm,
                "transition": u.transition.as_ref().map(Transition::tag),
                "verdict": verdict,
                "mode": mode,
                "loss_rate": loss_rate,
            })
        })
        .collect();
    check_fixture(
        "streaming_timeline.json",
        &json!({ "phase_secs": phase_secs, "probes": trace.len(), "rows": rows }),
    );
}
