//! Determinism guarantees of the parallel execution layer: every parallel
//! entry point — HMM fit, MMHD fit, duration sweep, streaming windowed
//! identification — must produce *bitwise-identical* results at
//! parallelism 1, 2, and the machine default. Equality is checked on `f64::to_bits`, not with tolerances:
//! the parallel layer distributes work but must never change a single
//! floating-point operation.

use dominant_congested_links::identification::identify::IdentifyConfig;
use dominant_congested_links::identification::sweep::{duration_sweep, SweepConfig, SweepResult};
use dominant_congested_links::netsim::packet::ProbeStamp;
use dominant_congested_links::netsim::sim::ProbeRecord;
use dominant_congested_links::netsim::time::{Dur, Time};
use dominant_congested_links::netsim::ProbeTrace;
use dominant_congested_links::probnum::Obs;
use dominant_congested_links::{hmm, mmhd};

/// Thread counts every guarantee is checked across: the exact serial
/// path, a fixed small pool, and whatever this machine resolves to.
const PARALLELISMS: [Option<usize>; 3] = [Some(1), Some(2), None];

/// Synthetic observation sequence with bursty high-delay/loss episodes.
fn synth_obs(t: usize, m: usize) -> Vec<Obs> {
    (0..t)
        .map(|i| {
            let phase = i % 50;
            if phase == 40 {
                Obs::Loss
            } else if phase > 35 {
                Obs::Sym(m as u16)
            } else {
                Obs::Sym(1 + ((i * 7) % (m - 1)) as u16)
            }
        })
        .collect()
}

/// Deterministic trace with losses inside high-delay bursts (a dominant
/// congested link pattern).
fn dominant_trace(n: usize) -> ProbeTrace {
    let mut records = Vec::with_capacity(n);
    for i in 0..n {
        let sent = Time::from_secs(i as f64 * 0.02);
        let phase = i % 25;
        let mut stamp = ProbeStamp::new(i as u64, None, sent);
        let arrival = if phase == 19 || phase == 21 {
            stamp.loss_hop = Some(1);
            None
        } else if phase >= 17 {
            Some(sent + Dur::from_millis(165.0 + (phase % 5) as f64 * 5.0))
        } else {
            Some(sent + Dur::from_millis(25.0 + ((i * 11) % 100) as f64))
        };
        records.push(ProbeRecord { stamp, arrival });
    }
    ProbeTrace {
        records,
        base_delay: Dur::from_millis(22.0),
        interval: Dur::from_millis(20.0),
    }
}

fn assert_bits_eq(a: f64, b: f64, what: &str) {
    assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} vs {b}");
}

#[test]
fn hmm_fit_is_bitwise_identical_at_every_thread_count() {
    let obs = synth_obs(2_000, 5);
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
    let reference = hmm::fit(&obs, &opts(Some(1)));
    for p in PARALLELISMS {
        let fit = hmm::fit(&obs, &opts(p));
        assert_bits_eq(
            fit.log_likelihood,
            reference.log_likelihood,
            &format!("hmm log_likelihood at parallelism {p:?}"),
        );
        assert_eq!(fit.iterations, reference.iterations, "at {p:?}");
        assert_eq!(fit.converged, reference.converged, "at {p:?}");
        assert_eq!(fit.model.initial(), reference.model.initial(), "at {p:?}");
        assert_eq!(
            fit.model.transition().as_slice(),
            reference.model.transition().as_slice(),
            "at {p:?}"
        );
        assert_eq!(
            fit.model.emission().as_slice(),
            reference.model.emission().as_slice(),
            "at {p:?}"
        );
        assert_eq!(
            fit.model.loss_probs(),
            reference.model.loss_probs(),
            "at {p:?}"
        );
    }
}

#[test]
fn mmhd_fit_is_bitwise_identical_at_every_thread_count() {
    let obs = synth_obs(2_000, 5);
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
    let reference = mmhd::fit(&obs, &opts(Some(1)));
    for p in PARALLELISMS {
        let fit = mmhd::fit(&obs, &opts(p));
        assert_bits_eq(
            fit.log_likelihood,
            reference.log_likelihood,
            &format!("mmhd log_likelihood at parallelism {p:?}"),
        );
        assert_eq!(fit.iterations, reference.iterations, "at {p:?}");
        assert_eq!(fit.converged, reference.converged, "at {p:?}");
        assert_eq!(fit.model.initial(), reference.model.initial(), "at {p:?}");
        assert_eq!(
            fit.model.transition().as_slice(),
            reference.model.transition().as_slice(),
            "at {p:?}"
        );
        assert_eq!(
            fit.model.loss_probs(),
            reference.model.loss_probs(),
            "at {p:?}"
        );
    }
}

fn assert_sweeps_identical(a: &SweepResult, b: &SweepResult, what: &str) {
    assert_eq!(a.reference_dominant, b.reference_dominant, "{what}");
    assert_eq!(a.points.len(), b.points.len(), "{what}");
    for (pa, pb) in a.points.iter().zip(&b.points) {
        assert_bits_eq(pa.duration_secs, pb.duration_secs, what);
        assert_bits_eq(pa.match_ratio, pb.match_ratio, what);
        assert_bits_eq(pa.match_ci.0, pb.match_ci.0, what);
        assert_bits_eq(pa.match_ci.1, pb.match_ci.1, what);
        assert_bits_eq(pa.unusable_ratio, pb.unusable_ratio, what);
        assert_eq!(pa.repetitions, pb.repetitions, "{what}");
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
        assert_sweeps_identical(&result, &reference, &format!("sweep at parallelism {p:?}"));
    }
}

use dominant_congested_links::identification::identify::{identify, Identification};
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

fn assert_identifications_identical(a: &Identification, b: &Identification, what: &str) {
    assert_eq!(a.verdict, b.verdict, "{what}");
    assert_eq!(a.num_probes, b.num_probes, "{what}");
    assert_bits_eq(a.loss_rate, b.loss_rate, what);
    assert_eq!(a.bin_width, b.bin_width, "{what}");
    for (outcome_a, outcome_b) in [(&a.sdcl, &b.sdcl), (&a.wdcl, &b.wdcl)] {
        assert_eq!(outcome_a.accepted, outcome_b.accepted, "{what}");
        assert_eq!(outcome_a.d_star, outcome_b.d_star, "{what}");
        assert_bits_eq(outcome_a.f_at_2d_star, outcome_b.f_at_2d_star, what);
        assert_bits_eq(outcome_a.threshold, outcome_b.threshold, what);
    }
    assert_eq!(a.pmf.mass().len(), b.pmf.mass().len(), "{what}");
    for (ma, mb) in a.pmf.mass().iter().zip(b.pmf.mass()) {
        assert_bits_eq(*ma, *mb, what);
    }
    // Provenance is part of the deterministic contract too: the same
    // fit must be *explained* identically at every thread count.
    assert_eq!(
        a.provenance.model, b.provenance.model,
        "{what}: provenance model"
    );
    assert_eq!(
        (
            a.provenance.warm,
            a.provenance.restarts,
            a.provenance.iterations
        ),
        (
            b.provenance.warm,
            b.provenance.restarts,
            b.provenance.iterations
        ),
        "{what}: provenance fit shape"
    );
    assert_eq!(
        (a.provenance.converged, a.provenance.guard_trips),
        (b.provenance.converged, b.provenance.guard_trips),
        "{what}: provenance convergence"
    );
    assert_bits_eq(
        a.provenance.log_likelihood,
        b.provenance.log_likelihood,
        &format!("{what}: provenance log-likelihood"),
    );
    assert_bits_eq(a.provenance.sdcl_margin, b.provenance.sdcl_margin, what);
    assert_bits_eq(a.provenance.wdcl_margin, b.provenance.wdcl_margin, what);
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
        assert_identifications_identical(
            result,
            ref_result,
            &format!("instrumented identify at parallelism {p:?}"),
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
    assert_identifications_identical(&on, &off, "obs on vs off");
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
        assert_identifications_identical(
            result,
            ref_result,
            &format!("metrics-instrumented identify at parallelism {p:?}"),
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
    let mut records = Vec::with_capacity(n);
    for i in 0..n {
        let sent = Time::from_secs(i as f64 * 0.02);
        let phase = i % 25;
        let burst_ms = if i < n / 2 { 165.0 } else { 380.0 };
        let mut stamp = ProbeStamp::new(i as u64, None, sent);
        let arrival = if phase == 19 || phase == 21 {
            stamp.loss_hop = Some(1);
            None
        } else if phase >= 17 {
            Some(sent + Dur::from_millis(burst_ms + (phase % 5) as f64 * 5.0))
        } else {
            Some(sent + Dur::from_millis(25.0 + ((i * 11) % 100) as f64))
        };
        records.push(ProbeRecord { stamp, arrival });
    }
    ProbeTrace {
        records,
        base_delay: Dur::from_millis(22.0),
        interval: Dur::from_millis(20.0),
    }
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
        supervise: false,
    }
}

/// Window-by-window equality: positions, warm flags, transitions, and —
/// for usable windows — the full bitwise report comparison.
fn assert_updates_identical(a: &[StreamUpdate], b: &[StreamUpdate], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: window count");
    for (ua, ub) in a.iter().zip(b) {
        let at = format!("{what}: window {}", ua.window_index);
        assert_eq!(ua.window_index, ub.window_index, "{at}");
        assert_eq!(
            (ua.first_seq, ua.last_seq, ua.window_len, ua.warm),
            (ub.first_seq, ub.last_seq, ub.window_len, ub.warm),
            "{at}"
        );
        assert_eq!(ua.transition, ub.transition, "{at}: transition");
        match (&ua.result, &ub.result) {
            (Ok(ra), Ok(rb)) => assert_identifications_identical(ra, rb, &at),
            (Err(ea), Err(eb)) => assert_eq!(ea, eb, "{at}"),
            _ => panic!("{at}: window usability differs"),
        }
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
        assert_updates_identical(
            updates,
            ref_updates,
            &format!("streaming at parallelism {p:?}"),
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
        assert_updates_identical(
            updates,
            ref_updates,
            &format!("metrics-instrumented streaming at parallelism {p:?}"),
        );
        assert_eq!(
            snapshot, ref_snapshot,
            "canonical metrics snapshot differs at parallelism {p:?}"
        );
    }
}

/// Each window's facts are in the stream, in order: its provenance, and
/// inside its `identify` span the EM trajectories (`em-restart`) and
/// whether a warm trajectory ran (`mmhd.em.warm`) or tripped a guard
/// (`em-guard` attempt 0). Read window by window the way `explain`
/// reads them, they add up to the run's registry totals.
#[test]
fn streamed_window_facts_add_up_to_the_registry() {
    let trace = shifting_trace(3_000);
    let (updates, captured) =
        metrics::capture(|| StreamingIdentifier::run_trace(&trace, stream_cfg(Some(2))));

    let (mut trajectories, mut e_steps, mut warm_ran, mut warm_tripped) = (0, 0, false, false);
    let (mut total_trajectories, mut total_e_steps, mut fallbacks) = (0, 0, 0);
    let mut windows = Vec::new();
    for ev in &captured.events {
        match ev {
            obs::Event::SpanOpen { name, .. } if name == "identify" => {
                (trajectories, e_steps, warm_ran, warm_tripped) = (0, 0, false, false);
            }
            obs::Event::SpanOpen { name, .. } if name == "mmhd.em.warm" => warm_ran = true,
            obs::Event::EmRestart { iterations, .. } => {
                trajectories += 1;
                e_steps += *iterations as u64;
            }
            obs::Event::EmGuard { attempt: 0, .. } => warm_tripped = true,
            obs::Event::VerdictProvenance { window, warm, .. } => {
                windows.push(window.expect("a stream window's provenance names it"));
                total_trajectories += trajectories;
                total_e_steps += e_steps;
                if *warm && (!warm_ran || warm_tripped) {
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
    assert!(fallbacks > 0 && counter("mmhd.em.warm_starts") > 0);
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
    assert_updates_identical(&on, &off, "streaming obs+metrics on vs off");
}

use dominant_congested_links::fleet::{Fleet, FleetConfig, FleetReport};

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

fn assert_fleet_reports_identical(a: &FleetReport, b: &FleetReport, what: &str) {
    assert_eq!(a.summary, b.summary, "{what}: summary");
    assert_eq!(a.verdicts.len(), b.verdicts.len(), "{what}: path count");
    for (va, vb) in a.verdicts.iter().zip(&b.verdicts) {
        let at = format!("{what}: path {}", va.path);
        assert_eq!(va.path, vb.path, "{at}");
        assert_eq!(va.label, vb.label, "{at}");
        match (&va.result, &vb.result) {
            (Ok(ra), Ok(rb)) => assert_identifications_identical(ra, rb, &at),
            (Err(ea), Err(eb)) => assert_eq!(ea, eb, "{at}"),
            _ => panic!("{at}: path usability differs"),
        }
    }
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
        assert_fleet_reports_identical(report, ref_report, &format!("fleet at parallelism {p:?}"));
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
        assert_fleet_reports_identical(
            report,
            ref_report,
            &format!("metrics-instrumented fleet at parallelism {p:?}"),
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
        assert_identifications_identical(
            result,
            ref_result,
            &format!("traced identify at parallelism {p:?}"),
        );
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
    assert_identifications_identical(&on, &off, "trace capture on vs off");
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
    assert_eq!(a.verdict, b.verdict);
    assert_bits_eq(a.wdcl.f_at_2d_star, b.wdcl.f_at_2d_star, "WDCL statistic");
}

use dominant_congested_links::identification::PathHealth;
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
/// thread count, and the restored runs agree across thread counts.
#[test]
fn checkpoint_restore_continuation_identical_at_every_thread_count() {
    let trace = shifting_trace(3_000);
    let cut = 1_250; // past the second hop, mid-way into the third window

    let mut runs = Vec::new();
    for p in PARALLELISMS {
        let cfg = stream_cfg(p);

        let (ref_updates, reference) =
            metrics::capture(|| StreamingIdentifier::run_trace(&trace, cfg));
        let ref_events = reference.events;
        let ref_snapshot = reference.metrics.snapshot().canonical();

        let (updates, restored) = metrics::capture(|| run_with_restore(&trace, cfg, cut));
        let events = restored.events;
        let snapshot = restored.metrics.snapshot().canonical();

        let at = format!("restored stream at parallelism {p:?}");
        assert_updates_identical(&updates, &ref_updates, &at);
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
        assert_updates_identical(
            updates,
            ref_updates,
            &format!("restored stream at parallelism {p:?}"),
        );
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

/// Storm-then-recovery trace: the first `bad` windows of `per` records
/// are loss-free (every evaluation errors with `no-losses`), the rest
/// carry the dominant-link pattern.
fn storm_trace(windows: usize, bad: usize, per: usize) -> ProbeTrace {
    let mut records = Vec::with_capacity(windows * per);
    for i in 0..windows * per {
        let sent = Time::from_secs(i as f64 * 0.02);
        let mut stamp = ProbeStamp::new(i as u64, None, sent);
        let arrival = if i < bad * per {
            Some(sent + Dur::from_millis(25.0 + (i % 50) as f64))
        } else {
            let phase = i % 25;
            if phase == 19 || phase == 21 {
                stamp.loss_hop = Some(1);
                None
            } else if phase >= 17 {
                Some(sent + Dur::from_millis(165.0 + (phase % 5) as f64 * 5.0))
            } else {
                Some(sent + Dur::from_millis(25.0 + ((i * 11) % 100) as f64))
            }
        };
        records.push(ProbeRecord { stamp, arrival });
    }
    ProbeTrace {
        records,
        base_delay: Dur::from_millis(22.0),
        interval: Dur::from_millis(20.0),
    }
}

fn supervised_cfg(parallelism: Option<usize>) -> StreamConfig {
    StreamConfig {
        window: WindowSpec::Count(500),
        hop: 500,
        warm_start: true,
        identify: IdentifyConfig {
            estimate_bound: false,
            restarts: 2,
            parallelism,
            ..IdentifyConfig::default()
        },
        supervise: true,
    }
}

/// The `(from, to, reason, backoff_hops, window)` sequence of every
/// path-health-transition event, in emission order.
fn health_transitions(events: &[obs::Event]) -> Vec<(String, String, String, u64, u64)> {
    events
        .iter()
        .filter_map(|e| match e {
            obs::Event::PathHealthTransition {
                from,
                to,
                reason,
                backoff_hops,
                window,
                ..
            } => Some((
                from.clone(),
                to.clone(),
                reason.clone(),
                *backoff_hops,
                *window,
            )),
            _ => None,
        })
        .collect()
}

/// The supervision determinism guarantee, golden-pinned: a fault storm
/// (four unusable windows, then recovery) drives the path through the
/// exact transition sequence `Degraded → Quarantined → Probation →
/// Healthy` on the logical window clock, identically at every thread
/// count, and identically when the run is killed and restored from a
/// checkpoint taken while the path sits in quarantine.
#[test]
fn fault_storm_transition_sequence_is_golden_at_every_thread_count() {
    // 8 windows of 500: w0..w3 error (degrade at w1, quarantine at w3,
    // backoff 2 hops), the 2500- and 3000-record evaluation points are
    // skipped (probation surfaces on the second), then two clean
    // dominant windows clear probation.
    let trace = storm_trace(8, 4, 500);
    let golden: Vec<(String, String, String, u64, u64)> = [
        ("healthy", "degraded", "errors", 0u64, 1u64),
        ("degraded", "quarantined", "errors", 2, 3),
        ("quarantined", "probation", "backoff-elapsed", 0, 4),
        ("probation", "healthy", "probation-clean", 0, 5),
    ]
    .iter()
    .map(|(f, t, r, b, w)| (f.to_string(), t.to_string(), r.to_string(), *b, *w))
    .collect();

    let mut runs = Vec::new();
    for p in PARALLELISMS {
        let cfg = supervised_cfg(p);

        let (updates, metrics::Captured { events, .. }) =
            metrics::capture(|| StreamingIdentifier::run_trace(&trace, cfg));
        // Kill/restore with the checkpoint taken inside the quarantine
        // backoff (after the 2500-record skip): the supervisor's
        // schedule must survive the round trip.
        let (restored_updates, restored) =
            metrics::capture(|| run_with_restore(&trace, cfg, 2_750));

        let canonical: Vec<obs::Event> = events.iter().map(obs::Event::canonical).collect();
        let restored: Vec<obs::Event> = restored.events.iter().map(obs::Event::canonical).collect();

        let at = format!("fault storm at parallelism {p:?}");
        assert_eq!(
            health_transitions(&canonical),
            golden,
            "{at}: transition sequence"
        );
        assert_eq!(
            health_transitions(&restored),
            golden,
            "{at}: restored transition sequence"
        );
        assert_updates_identical(&restored_updates, &updates, &at);
        assert_eq!(
            restored, canonical,
            "{at}: event stream differs after restore"
        );
        runs.push((p, updates, canonical));
    }

    let (_, ref_updates, ref_events) = &runs[0];
    // Skipped evaluation points get no window index: 8 hops minus 2
    // quarantined skips leave 6 evaluated windows.
    assert_eq!(ref_updates.len(), 6, "evaluated-window count");
    for (p, updates, events) in &runs[1..] {
        assert_updates_identical(updates, ref_updates, &format!("storm at parallelism {p:?}"));
        assert_eq!(
            events, ref_events,
            "storm event stream differs at parallelism {p:?}"
        );
    }

    // End-state spot check through a fresh engine (run_trace consumed
    // the others): quarantined exactly once, healthy again at the end.
    let mut engine =
        StreamingIdentifier::new(supervised_cfg(Some(1)), trace.base_delay, trace.interval);
    let _ = engine.push_chunk(&trace.records);
    let _ = engine.flush();
    assert_eq!(
        engine.quarantines(),
        1,
        "storm path must quarantine exactly once"
    );
    assert_eq!(
        engine.health(),
        PathHealth::Healthy,
        "storm path must recover"
    );
}
