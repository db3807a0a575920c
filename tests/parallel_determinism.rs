//! Determinism guarantees of the parallel execution layer: every parallel
//! entry point — HMM fit, MMHD fit, duration sweep, streaming windowed
//! identification, fleet — must produce *bitwise-identical* results at
//! parallelism 1, 2, and the machine default. Reports are compared with
//! `assert_eq!`, whose `==` on the report types compares every float by
//! `f64::to_bits`; model fits are compared through [`common::bits`]. The
//! parallel layer distributes work but must never change a single
//! floating-point operation.

mod common;

use common::{bits, dominant_trace, synth_obs, Pattern};
use dominant_congested_links::identification::identify::IdentifyConfig;
use dominant_congested_links::identification::sweep::{duration_sweep, SweepConfig};
use dominant_congested_links::netsim::ProbeTrace;
use dominant_congested_links::probnum::em::EmModel;
use dominant_congested_links::{hmm, mmhd};

/// Thread counts every guarantee is checked across: the exact serial
/// path, a fixed small pool, and whatever this machine resolves to.
const PARALLELISMS: [Option<usize>; 3] = [Some(1), Some(2), None];

#[test]
fn hmm_fit_is_bitwise_identical_at_every_thread_count() {
    let obs = synth_obs(2_000, 5, 0);
    let opts = |parallelism| hmm::EmOptions {
        num_hidden: 2,
        num_symbols: 5,
        tol: 1e-4,
        max_iters: 30,
        seed: 7,
        restarts: 4,
        parallelism,
        budget: None,
        settings: (),
    };
    // Every fact of the fit, each float by its bits.
    let facts = |fit: &hmm::FitResult| {
        (
            fit.log_likelihood.to_bits(),
            fit.iterations,
            fit.converged,
            fit.guard_trips,
            fit.degraded,
            fit.model.params().map(bits).collect::<Vec<_>>(),
        )
    };
    let reference = facts(&hmm::try_fit(&obs, &opts(Some(1))).unwrap());
    for p in PARALLELISMS {
        assert_eq!(
            facts(&hmm::try_fit(&obs, &opts(p)).unwrap()),
            reference,
            "at {p:?}"
        );
    }
}

#[test]
fn mmhd_fit_is_bitwise_identical_at_every_thread_count() {
    let obs = synth_obs(2_000, 5, 0);
    let opts = |parallelism| mmhd::EmOptions {
        num_hidden: 2,
        num_symbols: 5,
        tol: 1e-4,
        max_iters: 30,
        seed: 7,
        restarts: 4,
        parallelism,
        budget: None,
        settings: mmhd::MmhdSettings {
            empirical_init: false,
            tied_loss: false,
        },
    };
    let facts = |fit: &mmhd::FitResult| {
        (
            fit.log_likelihood.to_bits(),
            fit.iterations,
            fit.converged,
            fit.guard_trips,
            fit.degraded,
            fit.model.params().map(bits).collect::<Vec<_>>(),
        )
    };
    let reference = facts(&mmhd::try_fit(&obs, &opts(Some(1))).unwrap());
    for p in PARALLELISMS {
        assert_eq!(
            facts(&mmhd::try_fit(&obs, &opts(p)).unwrap()),
            reference,
            "at {p:?}"
        );
    }
}

#[test]
fn duration_sweep_is_bitwise_identical_at_every_thread_count() {
    let trace = dominant_trace(9_000); // 180 s
    let cfg = |parallelism| SweepConfig {
        durations_secs: vec![10.0, 30.0, 60.0],
        repetitions: 6,
        seed: 0x5EED,
        identify: IdentifyConfig {
            estimate_bound: false,
            restarts: 2,
            ..IdentifyConfig::default()
        },
        parallelism,
    };
    let reference = duration_sweep(&trace, &cfg(Some(1))).expect("usable trace");
    for p in PARALLELISMS {
        let result = duration_sweep(&trace, &cfg(p)).expect("usable trace");
        assert_eq!(result, reference, "sweep at parallelism {p:?}");
    }
}

use dominant_congested_links::identification::identify::identify;
use dominant_congested_links::metrics::{self, obs};

/// Run `f` uninstrumented. No capture is open on this thread, so it and
/// every worker it forks record nothing, whatever captures the tests
/// running beside it hold on their own threads.
fn uninstrumented<R>(f: impl FnOnce() -> R) -> R {
    assert!(
        !metrics::is_enabled() && !obs::is_enabled(),
        "the baseline run would record"
    );
    f()
}

/// The observability tentpole guarantee: with instrumentation on, both
/// the *numeric result* and the *merged event stream* of `identify` are
/// identical at every thread count (canonicalised to ignore wall-clock
/// timings, the schema's one intentionally nondeterministic field).
#[test]
fn instrumented_identify_stream_and_results_identical_at_every_thread_count() {
    let trace = dominant_trace(3_000);
    let cfg = |parallelism| IdentifyConfig {
        estimate_bound: false,
        restarts: 3,
        parallelism,
        ..IdentifyConfig::default()
    };

    let mut runs = Vec::new();
    for p in PARALLELISMS {
        let (result, metrics::Captured { events, .. }) =
            metrics::capture(|| identify(&trace, &cfg(p)).expect("usable trace"));
        let canonical: Vec<obs::Event> = events.iter().map(obs::Event::canonical).collect();
        runs.push((p, result, canonical));
    }

    let (_, ref_result, ref_stream) = &runs[0];
    assert!(!ref_stream.is_empty(), "instrumented run emitted no events");
    for kind in ["em-iteration", "em-restart", "verdict-provenance"] {
        assert!(
            ref_stream.iter().any(|e| e.kind() == kind),
            "no {kind} event in instrumented identify stream"
        );
    }
    for (p, result, stream) in &runs[1..] {
        assert_eq!(
            result, ref_result,
            "instrumented identify at parallelism {p:?}"
        );
        assert_eq!(
            stream.len(),
            ref_stream.len(),
            "event count differs at parallelism {p:?}"
        );
        for (i, (ev, ref_ev)) in stream.iter().zip(ref_stream).enumerate() {
            assert_eq!(ev, ref_ev, "event {i} differs at parallelism {p:?}");
        }
    }
}

/// Enabling instrumentation — events and metric folds, both on under one
/// capture — must not change a single bit of the numeric output (both
/// are a pure tap on the computation).
#[test]
fn enabling_instrumentation_changes_no_identify_bit() {
    let trace = dominant_trace(3_000);
    let cfg = IdentifyConfig {
        estimate_bound: false,
        restarts: 3,
        parallelism: Some(2),
        ..IdentifyConfig::default()
    };

    let off = uninstrumented(|| identify(&trace, &cfg).expect("usable trace"));
    let (on, metrics::Captured { events, metrics }) =
        metrics::capture(|| identify(&trace, &cfg).expect("usable trace"));

    assert!(!events.is_empty());
    assert!(
        !metrics.snapshot().is_empty(),
        "metrics-on run folded nothing"
    );
    assert_eq!(on, off, "obs on vs off");
}

/// The metrics tentpole guarantee: the registry snapshot of an
/// instrumented `identify` run is bit-identical at every thread count.
/// Counters, gauges, and histograms are compared exactly; span profiles
/// are canonicalised (wall-clock fields zeroed, counts kept), mirroring
/// the event-stream guarantee above.
#[test]
fn metrics_snapshot_bitwise_identical_at_every_thread_count() {
    let trace = dominant_trace(3_000);
    let cfg = |parallelism| IdentifyConfig {
        estimate_bound: false,
        restarts: 3,
        parallelism,
        ..IdentifyConfig::default()
    };

    let mut runs = Vec::new();
    for p in PARALLELISMS {
        let (result, captured) =
            metrics::capture(|| identify(&trace, &cfg(p)).expect("usable trace"));
        runs.push((p, result, captured.metrics.snapshot().canonical()));
    }

    let (_, ref_result, ref_snapshot) = &runs[0];
    assert!(
        !ref_snapshot.is_empty(),
        "instrumented run folded no metrics"
    );
    for key in ["identify.runs", "mmhd.em.restarts", "mmhd.em.iterations"] {
        assert!(
            ref_snapshot.counters.contains_key(key),
            "no {key:?} counter in instrumented identify snapshot"
        );
    }
    for (p, result, snapshot) in &runs[1..] {
        assert_eq!(
            result, ref_result,
            "metrics-instrumented identify at parallelism {p:?}"
        );
        assert_eq!(
            snapshot, ref_snapshot,
            "canonical metrics snapshot differs at parallelism {p:?}"
        );
    }
}

use dominant_congested_links::identification::{
    StreamConfig, StreamUpdate, StreamingIdentifier, WindowSpec,
};

/// Two-regime trace: losses ride ~165 ms delay bursts in the first half
/// and ~380 ms bursts in the second, so the loss-delay mode — and with
/// it the verdict-transition stream — moves mid-run.
fn shifting_trace(n: usize) -> ProbeTrace {
    common::trace(n, |i| Pattern::Dominant {
        burst_ms: if i < n / 2 { 165.0 } else { 380.0 },
        offset: 0,
    })
}

fn stream_cfg(parallelism: Option<usize>) -> StreamConfig {
    StreamConfig {
        window: WindowSpec::Count(1_000),
        hop: 500,
        warm_start: true,
        identify: IdentifyConfig {
            estimate_bound: false,
            restarts: 2,
            parallelism,
            ..IdentifyConfig::default()
        },
    }
}

/// The streaming determinism guarantee: per-window verdicts, the
/// transition sequence, and the merged canonical event stream of a
/// windowed run are identical at every thread count.
#[test]
fn streaming_transitions_and_events_identical_at_every_thread_count() {
    let trace = shifting_trace(3_000);

    let mut runs = Vec::new();
    for p in PARALLELISMS {
        let (updates, metrics::Captured { events, .. }) =
            metrics::capture(|| StreamingIdentifier::run_trace(&trace, stream_cfg(p)));
        let canonical: Vec<obs::Event> = events.iter().map(obs::Event::canonical).collect();
        runs.push((p, updates, canonical));
    }

    let (_, ref_updates, ref_stream) = &runs[0];
    assert!(ref_updates.len() >= 4, "expected several windows");
    assert!(
        ref_updates.iter().any(|u| u.transition.is_some()),
        "no usable window in the streaming run"
    );
    assert!(
        ref_stream.iter().any(|e| e.kind() == "verdict-transition"),
        "no verdict-transition event in the streaming run"
    );
    for (p, updates, stream) in &runs[1..] {
        assert_eq!(updates, ref_updates, "streaming at parallelism {p:?}");
        assert_eq!(
            stream.len(),
            ref_stream.len(),
            "event count differs at parallelism {p:?}"
        );
        for (i, (ev, ref_ev)) in stream.iter().zip(ref_stream).enumerate() {
            assert_eq!(ev, ref_ev, "event {i} differs at parallelism {p:?}");
        }
    }
}

/// The streaming metrics guarantee: the canonical registry snapshot of a
/// windowed run — window counters, warm-start counters, transition
/// counters, EM folds — is bit-identical at every thread count.
#[test]
fn streaming_metrics_snapshot_identical_at_every_thread_count() {
    let trace = shifting_trace(3_000);

    let mut runs = Vec::new();
    for p in PARALLELISMS {
        let (updates, captured) =
            metrics::capture(|| StreamingIdentifier::run_trace(&trace, stream_cfg(p)));
        runs.push((p, updates, captured.metrics.snapshot().canonical()));
    }

    let (_, ref_updates, ref_snapshot) = &runs[0];
    for key in ["stream.windows", "stream.windows.warm", "identify.runs"] {
        assert!(
            ref_snapshot.counters.contains_key(key),
            "no {key:?} counter in streaming snapshot"
        );
    }
    for (p, updates, snapshot) in &runs[1..] {
        assert_eq!(
            updates, ref_updates,
            "metrics-instrumented streaming at parallelism {p:?}"
        );
        assert_eq!(
            snapshot, ref_snapshot,
            "canonical metrics snapshot differs at parallelism {p:?}"
        );
    }
}

/// Each window's facts are in the stream, in order: its provenance, and
/// inside its `identify` span the EM trajectories (`em-restart`). Read
/// window by window the way `explain` reads them, they add up to the
/// run's registry totals, and a window offered a warm seed whose
/// provenance reads cold is exactly a counted warm fallback.
#[test]
fn streamed_window_facts_add_up_to_the_registry() {
    let trace = shifting_trace(3_000);
    let (updates, captured) =
        metrics::capture(|| StreamingIdentifier::run_trace(&trace, stream_cfg(Some(2))));

    let (mut trajectories, mut e_steps) = (0, 0);
    let (mut total_trajectories, mut total_e_steps, mut fallbacks) = (0, 0, 0);
    let mut windows = Vec::new();
    for ev in &captured.events {
        match ev {
            obs::Event::SpanOpen { name } if name == "identify" => (trajectories, e_steps) = (0, 0),
            obs::Event::EmRestart { iterations, .. } => {
                trajectories += 1;
                e_steps += *iterations as u64;
            }
            obs::Event::VerdictProvenance { window, warm, .. } => {
                let window = window.expect("a stream window's provenance names it");
                windows.push(window);
                total_trajectories += trajectories;
                total_e_steps += e_steps;
                if updates[window as usize].warm && !*warm {
                    fallbacks += 1;
                }
            }
            _ => {}
        }
    }

    let usable: Vec<u64> = updates
        .iter()
        .filter(|u| u.result.is_ok())
        .map(|u| u.window_index as u64)
        .collect();
    assert_eq!(usable.len(), updates.len(), "every window is usable");
    assert_eq!(windows, usable, "one provenance per window, in order");
    let counter = |name| captured.metrics.counter(name);
    assert_eq!(total_trajectories, counter("mmhd.em.restarts"));
    assert_eq!(total_e_steps, counter("mmhd.em.iterations"));
    assert_eq!(fallbacks, counter("mmhd.em.warm_fallbacks"));
    assert!(
        fallbacks > 0 && counter("mmhd.em.warm_starts") > 0,
        "the trace must have a window whose offered seed fell back and reads cold"
    );
}

/// Enabling instrumentation (events *and* metrics) must not change a
/// single bit of any streaming window's report, transition, or warm
/// state.
#[test]
fn enabling_instrumentation_changes_no_streaming_bit() {
    let trace = shifting_trace(2_000);
    let cfg = stream_cfg(Some(2));

    let off = uninstrumented(|| StreamingIdentifier::run_trace(&trace, cfg));

    let (on, metrics::Captured { events, metrics }) =
        metrics::capture(|| StreamingIdentifier::run_trace(&trace, cfg));
    let snapshot = metrics.snapshot();

    assert!(!events.is_empty(), "instrumented run emitted no events");
    assert!(!snapshot.is_empty(), "instrumented run folded no metrics");
    assert_eq!(on, off, "streaming obs+metrics on vs off");
}

use dominant_congested_links::fleet::{Fleet, FleetConfig};

/// A small mixed fleet: two dominant-link paths and one regime-shifting
/// path, each path one pool item.
fn build_fleet(parallelism: Option<usize>) -> Fleet {
    let cfg = FleetConfig {
        identify: IdentifyConfig {
            estimate_bound: false,
            restarts: 2,
            ..IdentifyConfig::default()
        },
        parallelism,
    };
    let mut fleet = Fleet::new(cfg);
    fleet.push("path-a", dominant_trace(1_200));
    fleet.push("path-b", shifting_trace(1_200));
    fleet.push("path-c", dominant_trace(900));
    fleet
}

/// The fleet determinism guarantee: per-path verdicts and the merged
/// canonical event stream of a parallel `Fleet::identify_all` run are
/// identical at every thread count.
#[test]
fn fleet_verdicts_and_events_identical_at_every_thread_count() {
    let mut runs = Vec::new();
    for p in PARALLELISMS {
        let fleet = build_fleet(p);
        let (report, metrics::Captured { events, .. }) = metrics::capture(|| fleet.identify_all());
        let canonical: Vec<obs::Event> = events.iter().map(obs::Event::canonical).collect();
        runs.push((p, report, canonical));
    }

    let (_, ref_report, ref_stream) = &runs[0];
    assert_eq!(ref_report.summary.paths, 3);
    assert!(
        ref_report.verdicts.iter().any(|v| v.result.is_ok()),
        "no usable path in the fleet run"
    );
    assert!(
        ref_stream.iter().any(|e| e.kind() == "verdict-provenance"),
        "no verdict-provenance event in the fleet stream"
    );
    for (p, report, stream) in &runs[1..] {
        assert_eq!(report, ref_report, "fleet at parallelism {p:?}");
        assert_eq!(
            stream.len(),
            ref_stream.len(),
            "event count differs at parallelism {p:?}"
        );
        for (i, (ev, ref_ev)) in stream.iter().zip(ref_stream).enumerate() {
            assert_eq!(ev, ref_ev, "event {i} differs at parallelism {p:?}");
        }
    }
}

/// The fleet metrics guarantee: the canonical registry snapshot of a
/// fleet run — path counters, verdict tallies, EM folds — is
/// bit-identical at every thread count.
#[test]
fn fleet_metrics_snapshot_identical_at_every_thread_count() {
    let mut runs = Vec::new();
    for p in PARALLELISMS {
        let (report, captured) = metrics::capture(|| build_fleet(p).identify_all());
        runs.push((p, report, captured.metrics.snapshot().canonical()));
    }

    let (_, ref_report, ref_snapshot) = &runs[0];
    for key in ["fleet.paths", "identify.runs"] {
        assert!(
            ref_snapshot.counters.contains_key(key),
            "no {key:?} counter in fleet snapshot"
        );
    }
    assert_eq!(
        ref_snapshot.counters.get("fleet.paths"),
        Some(&(ref_report.summary.paths as u64))
    );
    for (p, report, snapshot) in &runs[1..] {
        assert_eq!(
            report, ref_report,
            "metrics-instrumented fleet at parallelism {p:?}"
        );
        assert_eq!(
            snapshot, ref_snapshot,
            "canonical metrics snapshot differs at parallelism {p:?}"
        );
    }
}

/// The trace guarantee: the Chrome-trace export — span tree, stable span
/// ids, instant payloads (including `verdict-provenance`) — is
/// *byte-identical* at every thread count, because the canonical event
/// stream it is derived from is. It is also the same trace when rendered
/// from the stream written as JSONL lines and parsed back, which is how a
/// run's trace is made from its `--obs` artifact.
#[test]
fn chrome_trace_export_identical_at_every_thread_count() {
    let trace = dominant_trace(3_000);
    let cfg = |parallelism| IdentifyConfig {
        estimate_bound: false,
        restarts: 3,
        parallelism,
        ..IdentifyConfig::default()
    };

    let mut runs = Vec::new();
    for p in PARALLELISMS {
        let (result, metrics::Captured { events, .. }) =
            metrics::capture(|| identify(&trace, &cfg(p)).expect("usable trace"));
        // One JSON line per event, as the JSONL sink writes them.
        let jsonl: String = events
            .iter()
            .map(|ev| serde_json::to_string(ev).expect("event serialises") + "\n")
            .collect();
        let parsed: Vec<obs::Event> = jsonl
            .lines()
            .map(|line| serde_json::from_str(line).expect("line parses back"))
            .collect();
        assert_eq!(
            obs::export_chrome_trace(&parsed),
            obs::export_chrome_trace(&events),
            "the JSONL round trip changed the trace at parallelism {p:?}"
        );
        let canonical: Vec<obs::Event> = events.iter().map(obs::Event::canonical).collect();
        runs.push((p, result, obs::export_chrome_trace(&canonical)));
    }

    let (_, ref_result, ref_export) = &runs[0];
    let stats = obs::validate_chrome_trace(ref_export).expect("well-formed chrome trace");
    assert!(
        stats.spans >= 2,
        "expected identify + EM spans, got {stats:?}"
    );
    assert!(
        stats.roots >= 1 && stats.max_depth >= 2,
        "no span nesting: {stats:?}"
    );
    assert!(
        ref_export.contains("verdict-provenance"),
        "no verdict-provenance instant in the chrome trace"
    );
    for (p, result, export) in &runs[1..] {
        assert_eq!(result, ref_result, "traced identify at parallelism {p:?}");
        assert_eq!(
            export, ref_export,
            "chrome trace export differs at parallelism {p:?}"
        );
    }
}

/// Capturing a trace (events on, Chrome export consumed) must not change
/// a single bit of the identification — the trace layer is a pure
/// consumer of the event stream.
#[test]
fn trace_capture_changes_no_identification_bit() {
    let trace = dominant_trace(3_000);
    let cfg = IdentifyConfig {
        estimate_bound: false,
        restarts: 3,
        parallelism: Some(2),
        ..IdentifyConfig::default()
    };

    let off = uninstrumented(|| identify(&trace, &cfg).expect("usable trace"));
    let (on, metrics::Captured { events, .. }) =
        metrics::capture(|| identify(&trace, &cfg).expect("usable trace"));

    let canonical: Vec<obs::Event> = events.iter().map(obs::Event::canonical).collect();
    let export = obs::export_chrome_trace(&canonical);
    let stats = obs::validate_chrome_trace(&export).expect("well-formed chrome trace");
    assert!(stats.spans >= 1, "trace capture saw no spans");
    assert_eq!(on, off, "trace capture on vs off");
}

/// The environment default also pins the inner EM parallelism: an
/// `IdentifyConfig` with an explicit `parallelism` must thread it through
/// to the estimator and still match the serial verdict.
#[test]
fn identify_parallelism_setting_matches_serial_verdict() {
    use dominant_congested_links::identification::identify::identify;
    let trace = dominant_trace(3_000);
    let serial = IdentifyConfig {
        estimate_bound: false,
        restarts: 3,
        parallelism: Some(1),
        ..IdentifyConfig::default()
    };
    let parallel = IdentifyConfig {
        parallelism: Some(2),
        ..serial
    };
    let a = identify(&trace, &serial).expect("usable trace");
    let b = identify(&trace, &parallel).expect("usable trace");
    assert_eq!(a, b);
}

use dominant_congested_links::identification::StreamingCheckpoint;

/// Drive `trace` through a streaming engine with a mid-window
/// kill/restore at record `cut`: checkpoint, serialise to JSON, drop the
/// engine, deserialise, restore, continue, flush.
fn run_with_restore(trace: &ProbeTrace, cfg: StreamConfig, cut: usize) -> Vec<StreamUpdate> {
    let mut engine = StreamingIdentifier::new(cfg, trace.base_delay, trace.interval);
    let mut updates = engine.push_chunk(&trace.records[..cut]);
    let json = serde_json::to_string(&engine.checkpoint()).expect("checkpoint serialises");
    drop(engine); // the "kill"
    let ck: StreamingCheckpoint = serde_json::from_str(&json).expect("checkpoint parses");
    let mut engine = StreamingIdentifier::restore(cfg, ck).expect("checkpoint restores");
    updates.extend(engine.push_chunk(&trace.records[cut..]));
    updates.extend(engine.flush());
    updates
}

/// The checkpoint/restore determinism guarantee: killing the engine at a
/// mid-window cut, serialising its checkpoint through JSON, and
/// restoring must be *invisible* — per-window verdicts, the canonical
/// event stream (provenance included), and the canonical metrics
/// snapshot all match the uninterrupted run bit for bit, at every
/// thread count, and the restored runs agree across thread counts. Two
/// inputs: a regime shift, and a storm of unusable (loss-free) windows
/// before a dominant link, cut between two of them.
#[test]
fn checkpoint_restore_continuation_identical_at_every_thread_count() {
    // Past the second hop, mid-way into the third window.
    checkpoint_restore_case(&shifting_trace(3_000), 1_250);
    // After two `NoLosses` windows, inside the unusable run.
    checkpoint_restore_case(&common::blocks("LLLLDDDD", 500, 0), 1_750);
}

fn checkpoint_restore_case(trace: &ProbeTrace, cut: usize) {
    let mut runs = Vec::new();
    for p in PARALLELISMS {
        let cfg = stream_cfg(p);

        let (ref_updates, reference) =
            metrics::capture(|| StreamingIdentifier::run_trace(trace, cfg));
        let ref_events = reference.events;
        let ref_snapshot = reference.metrics.snapshot().canonical();

        let (updates, restored) = metrics::capture(|| run_with_restore(trace, cfg, cut));
        let events = restored.events;
        let snapshot = restored.metrics.snapshot().canonical();

        let at = format!("restored stream at parallelism {p:?}");
        assert_eq!(updates, ref_updates, "{at}");
        let ref_canonical: Vec<obs::Event> = ref_events.iter().map(obs::Event::canonical).collect();
        let canonical: Vec<obs::Event> = events.iter().map(obs::Event::canonical).collect();
        assert_eq!(
            canonical, ref_canonical,
            "{at}: event stream differs after restore"
        );
        assert_eq!(
            snapshot, ref_snapshot,
            "{at}: metrics snapshot differs after restore"
        );
        runs.push((p, updates, canonical, snapshot));
    }

    let (_, ref_updates, ref_events, ref_snapshot) = &runs[0];
    assert!(ref_updates.len() >= 4, "expected several windows");
    assert!(
        ref_events.iter().any(|e| e.kind() == "verdict-provenance"),
        "no verdict-provenance event in the restored run"
    );
    for (p, updates, events, snapshot) in &runs[1..] {
        assert_eq!(updates, ref_updates, "restored stream at parallelism {p:?}");
        assert_eq!(
            events, ref_events,
            "restored event stream differs at parallelism {p:?}"
        );
        assert_eq!(
            snapshot, ref_snapshot,
            "restored metrics snapshot differs at parallelism {p:?}"
        );
    }
}
