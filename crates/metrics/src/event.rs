//! The structured event schema.
//!
//! Every instrumented layer of the workspace reports its state as one of
//! these variants; the JSONL artifact is one serialised [`Event`] per
//! line, tagged by `kind`. The schema is part of the crate's public
//! contract (DESIGN.md §8): downstream tooling parses it with serde, and
//! the determinism tests compare whole streams structurally.
//!
//! **Determinism contract.** With instrumentation enabled, the sequence
//! of events — kinds, order, and every payload field except wall-clock
//! durations — is bitwise identical at every worker-thread count. The
//! only nondeterministic fields are the `wall_ns` of [`Event::SpanClose`]
//! (host timing can never be deterministic); [`Event::canonical`] zeroes
//! them so streams can be compared exactly. Spans carry no ids: their
//! opens and closes are properly nested (DESIGN.md §13), so the order of
//! the `span-open`/`span-close` events is the span tree, and it is part
//! of the deterministic stream.

use serde::{Deserialize, Serialize};

/// One observability event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "kebab-case")]
pub enum Event {
    /// One EM iteration of one restart: the log-likelihood under the
    /// model *entering* the iteration and the maximum parameter change it
    /// produced. Kind tag: `em-iteration`.
    EmIteration {
        /// Which fitter ("hmm" or "mmhd").
        model: String,
        /// Restart index within the fit.
        restart: usize,
        /// Iteration index within the restart (1-based, like
        /// `FitResult::iterations`).
        iteration: usize,
        /// Log-likelihood of the data under the iteration's input model.
        log_likelihood: f64,
        /// Maximum absolute parameter change of the M-step.
        max_param_delta: f64,
    },

    /// A restart finished: why it stopped and where it landed. Kind tag:
    /// `em-restart`.
    EmRestart {
        /// Which fitter ("hmm" or "mmhd").
        model: String,
        /// Restart index within the fit.
        restart: usize,
        /// Iterations used.
        iterations: usize,
        /// Did the parameter change fall below the tolerance?
        converged: bool,
        /// "tol" when converged, "max-iters" when the cap stopped it.
        reason: String,
        /// Log-likelihood of the data under the final model.
        log_likelihood: f64,
    },

    /// A restart tripped a numerical guard and is being retried with a
    /// deterministically escalated seed. Kind tag: `em-guard`.
    EmGuard {
        /// Which fitter ("hmm" or "mmhd").
        model: String,
        /// Restart index within the fit.
        restart: usize,
        /// Guard trips on this restart so far (1-based: the first trip
        /// reports `attempt: 1`).
        attempt: usize,
        /// Which guard tripped ("non-finite-likelihood",
        /// "likelihood-decrease", "non-finite-params",
        /// "degenerate-posterior").
        reason: String,
    },

    /// One fault model was applied to a probe trace. Kind tag:
    /// `fault-injection`.
    FaultInjection {
        /// Fault model name ("gilbert-elliott", "reorder", "duplicate",
        /// "clock-drift", "delay-spikes", "truncate", "corrupt").
        fault: String,
        /// The per-fault RNG seed (derived from the plan seed and the
        /// fault's position in the stack).
        seed: u64,
        /// Records the fault touched (lost, displaced, duplicated,
        /// re-stamped, spiked, dropped, or corrupted).
        affected: u64,
    },

    /// One streaming window's verdict relative to the previous usable
    /// window: the dominant congested link appeared, moved to a
    /// different delay regime, cleared, or persisted. Kind tag:
    /// `verdict-transition`.
    VerdictTransition {
        /// Transition tag ("dcl-appeared", "dcl-moved", "dcl-cleared",
        /// "dcl-unchanged").
        transition: String,
        /// Fleet path index, when the stream is one path of a fleet.
        path: Option<u64>,
        /// 0-based streaming window index.
        window: usize,
        /// This window's verdict ("strongly-dominant",
        /// "weakly-dominant", "no-dominant").
        verdict: String,
        /// The previous usable window's verdict, or "none" for the first
        /// usable window.
        prev_verdict: String,
        /// Mode (symbol index) of this window's loss-delay PMF — the
        /// dominant delay regime whose change defines "moved".
        mode: usize,
        /// Probes in the window.
        num_probes: usize,
        /// Probe loss rate in the window.
        loss_rate: f64,
    },

    /// Full provenance of one identification verdict: how the winning
    /// fit was obtained and how close each hypothesis test was to the
    /// other side of its threshold. Streaming windows carry their window
    /// bounds; fleet paths carry their path index; the plain batch
    /// pipeline leaves the context fields `null`. Kind tag:
    /// `verdict-provenance`.
    VerdictProvenance {
        /// Verdict tag ("strongly-dominant", "weakly-dominant",
        /// "no-dominant").
        verdict: String,
        /// Which fitter produced the distribution ("hmm" or "mmhd").
        model: String,
        /// Was the fit warm-started from a previous window's parameters?
        warm: bool,
        /// Configured EM restarts for the (cold) fit schedule.
        restarts: usize,
        /// Iterations of the winning EM trajectory.
        iterations: usize,
        /// Did the winning trajectory converge within tolerance?
        converged: bool,
        /// Numerical guard trips across the whole fit.
        guard_trips: usize,
        /// Final log-likelihood of the winning model.
        log_likelihood: f64,
        /// Was the fit clipped by a bounded-work EM budget? A degraded
        /// verdict is best-effort rather than fully converged.
        degraded: bool,
        /// Did the SDCL test accept?
        sdcl_accepted: bool,
        /// Signed SDCL margin `F(2d*) − threshold` (negative = losing).
        sdcl_margin: f64,
        /// The SDCL test's support point `d*`, if the CDF has mass above
        /// the numeric floor. `F(2d*)` is the margin plus the threshold
        /// `1 − floor`.
        sdcl_d_star: Option<usize>,
        /// Did the WDCL test accept?
        wdcl_accepted: bool,
        /// Signed WDCL margin `F(2d*) − threshold` (negative = losing).
        wdcl_margin: f64,
        /// The WDCL test's support point `d*`, if the CDF has mass above
        /// `max(ε₁, floor)`. `F(2d*)` is the margin plus the threshold
        /// `1 − ε₁ − ε₂ − floor`.
        wdcl_d_star: Option<usize>,
        /// Probes in the identified trace/window.
        num_probes: usize,
        /// Probe loss rate in the identified trace/window.
        loss_rate: f64,
        /// Identification bin width in microseconds.
        bin_width_us: u64,
        /// Fleet path index, when identified as part of a fleet.
        path: Option<u64>,
        /// Streaming window index, when identified as a stream window.
        window: Option<u64>,
        /// First sequence number of the streaming window.
        first_seq: Option<u64>,
        /// Last sequence number of the streaming window.
        last_seq: Option<u64>,
    },

    /// A scoped span opened: a node of the causal trace tree, nested in
    /// the innermost span still open before it (a root if none is). Kind
    /// tag: `span-open`.
    SpanOpen {
        /// Region name ("identify", "hmm.em.restart", ...).
        name: String,
    },

    /// The innermost open span closed, carrying its wall-clock duration.
    /// Kind tag: `span-close`.
    SpanClose {
        /// Region name (repeated so each line is self-contained).
        name: String,
        /// Elapsed wall-clock nanoseconds. The one nondeterministic
        /// field of the schema; zeroed by [`Event::canonical`].
        wall_ns: u64,
    },
}

impl Event {
    /// Every `kind` tag the schema currently defines, in serialisation
    /// order. Tooling (`obs_check`) uses this to distinguish "unknown
    /// future kind" (tolerated, counted) from "known kind with a bad
    /// payload" (hard error).
    pub const KNOWN_KINDS: &'static [&'static str] = &[
        "em-iteration",
        "em-restart",
        "em-guard",
        "fault-injection",
        "verdict-transition",
        "verdict-provenance",
        "span-open",
        "span-close",
    ];

    /// The `kind` tag this event serialises under.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::EmIteration { .. } => "em-iteration",
            Event::EmRestart { .. } => "em-restart",
            Event::EmGuard { .. } => "em-guard",
            Event::FaultInjection { .. } => "fault-injection",
            Event::VerdictTransition { .. } => "verdict-transition",
            Event::VerdictProvenance { .. } => "verdict-provenance",
            Event::SpanOpen { .. } => "span-open",
            Event::SpanClose { .. } => "span-close",
        }
    }

    /// The event with every wall-clock field zeroed: two instrumented
    /// runs of the same computation produce identical canonical streams
    /// regardless of thread count or host speed.
    pub fn canonical(&self) -> Event {
        match self {
            Event::SpanClose { name, .. } => Event::SpanClose {
                name: name.clone(),
                wall_ns: 0,
            },
            other => other.clone(),
        }
    }

    /// Are all floating-point payload fields finite? JSON cannot
    /// represent NaN/infinity (they serialise as `null` and then fail to
    /// parse back), so [`JsonlSink`](crate::JsonlSink) drops events for
    /// which this is false rather than poisoning the artifact.
    pub(crate) fn floats_finite(&self) -> bool {
        match self {
            Event::EmIteration {
                log_likelihood,
                max_param_delta,
                ..
            } => log_likelihood.is_finite() && max_param_delta.is_finite(),
            Event::EmRestart { log_likelihood, .. } => log_likelihood.is_finite(),
            Event::VerdictTransition { loss_rate, .. } => loss_rate.is_finite(),
            Event::VerdictProvenance {
                log_likelihood,
                sdcl_margin,
                wdcl_margin,
                loss_rate,
                ..
            } => {
                log_likelihood.is_finite()
                    && sdcl_margin.is_finite()
                    && wdcl_margin.is_finite()
                    && loss_rate.is_finite()
            }
            Event::EmGuard { .. }
            | Event::FaultInjection { .. }
            | Event::SpanOpen { .. }
            | Event::SpanClose { .. } => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Event> {
        vec![
            Event::EmIteration {
                model: "hmm".into(),
                restart: 2,
                iteration: 17,
                log_likelihood: -1234.5,
                max_param_delta: 3.5e-4,
            },
            Event::EmRestart {
                model: "mmhd".into(),
                restart: 0,
                iterations: 60,
                converged: true,
                reason: "tol".into(),
                log_likelihood: -10.25,
            },
            Event::EmGuard {
                model: "hmm".into(),
                restart: 3,
                attempt: 1,
                reason: "likelihood-decrease".into(),
            },
            Event::FaultInjection {
                fault: "gilbert-elliott".into(),
                seed: 0xFA17,
                affected: 42,
            },
            Event::VerdictTransition {
                transition: "dcl-moved".into(),
                path: Some(2),
                window: 7,
                verdict: "strongly-dominant".into(),
                prev_verdict: "weakly-dominant".into(),
                mode: 4,
                num_probes: 3000,
                loss_rate: 0.03125,
            },
            Event::VerdictProvenance {
                verdict: "strongly-dominant".into(),
                model: "mmhd".into(),
                warm: true,
                restarts: 6,
                iterations: 42,
                converged: true,
                guard_trips: 1,
                log_likelihood: -987.25,
                degraded: false,
                sdcl_accepted: true,
                sdcl_margin: 0.03125,
                sdcl_d_star: Some(4),
                wdcl_accepted: true,
                wdcl_margin: 0.0625,
                wdcl_d_star: Some(4),
                num_probes: 1500,
                loss_rate: 0.015625,
                bin_width_us: 32_000,
                path: Some(17),
                window: Some(3),
                first_seq: Some(4500),
                last_seq: Some(5999),
            },
            Event::VerdictProvenance {
                verdict: "no-dominant".into(),
                model: "hmm".into(),
                warm: false,
                restarts: 2,
                iterations: 200,
                converged: false,
                guard_trips: 0,
                log_likelihood: -12.5,
                degraded: true,
                sdcl_accepted: false,
                sdcl_margin: -0.25,
                sdcl_d_star: None,
                wdcl_accepted: false,
                wdcl_margin: -0.125,
                wdcl_d_star: Some(2),
                num_probes: 800,
                loss_rate: 0.00390625,
                bin_width_us: 4_000,
                path: None,
                window: None,
                first_seq: None,
                last_seq: None,
            },
            Event::SpanOpen {
                name: "identify".into(),
            },
            Event::SpanClose {
                name: "identify".into(),
                wall_ns: 123_456_789,
            },
        ]
    }

    /// The wire bytes of `samples()`: tag first, then the fields in
    /// declaration order, floats in shortest round-trip form.
    const SAMPLES_JSONL: &str = r#"{"kind":"em-iteration","model":"hmm","restart":2,"iteration":17,"log_likelihood":-1234.5,"max_param_delta":0.00035}
{"kind":"em-restart","model":"mmhd","restart":0,"iterations":60,"converged":true,"reason":"tol","log_likelihood":-10.25}
{"kind":"em-guard","model":"hmm","restart":3,"attempt":1,"reason":"likelihood-decrease"}
{"kind":"fault-injection","fault":"gilbert-elliott","seed":64023,"affected":42}
{"kind":"verdict-transition","transition":"dcl-moved","path":2,"window":7,"verdict":"strongly-dominant","prev_verdict":"weakly-dominant","mode":4,"num_probes":3000,"loss_rate":0.03125}
{"kind":"verdict-provenance","verdict":"strongly-dominant","model":"mmhd","warm":true,"restarts":6,"iterations":42,"converged":true,"guard_trips":1,"log_likelihood":-987.25,"degraded":false,"sdcl_accepted":true,"sdcl_margin":0.03125,"sdcl_d_star":4,"wdcl_accepted":true,"wdcl_margin":0.0625,"wdcl_d_star":4,"num_probes":1500,"loss_rate":0.015625,"bin_width_us":32000,"path":17,"window":3,"first_seq":4500,"last_seq":5999}
{"kind":"verdict-provenance","verdict":"no-dominant","model":"hmm","warm":false,"restarts":2,"iterations":200,"converged":false,"guard_trips":0,"log_likelihood":-12.5,"degraded":true,"sdcl_accepted":false,"sdcl_margin":-0.25,"sdcl_d_star":null,"wdcl_accepted":false,"wdcl_margin":-0.125,"wdcl_d_star":2,"num_probes":800,"loss_rate":0.00390625,"bin_width_us":4000,"path":null,"window":null,"first_seq":null,"last_seq":null}
{"kind":"span-open","name":"identify"}
{"kind":"span-close","name":"identify","wall_ns":123456789}"#;

    #[test]
    fn samples_serialise_to_the_pinned_wire_bytes() {
        let lines: Vec<String> = samples()
            .iter()
            .map(|ev| serde_json::to_string(ev).unwrap())
            .collect();
        assert_eq!(lines, SAMPLES_JSONL.lines().collect::<Vec<_>>());
    }

    #[test]
    fn serde_round_trips_every_variant() {
        for ev in samples() {
            let line = serde_json::to_string(&ev).unwrap();
            let back: Event = serde_json::from_str(&line).unwrap();
            assert_eq!(ev, back, "{line}");
            // The kind tag is the first thing tooling filters on.
            let v: serde_json::Value = serde_json::from_str(&line).unwrap();
            assert_eq!(v["kind"].as_str().unwrap(), ev.kind());
        }
    }

    #[test]
    fn non_finite_floats_are_flagged_and_fail_round_trip() {
        let ev = Event::VerdictTransition {
            transition: "dcl-appeared".into(),
            path: None,
            window: 0,
            verdict: "weakly-dominant".into(),
            prev_verdict: "none".into(),
            mode: 3,
            num_probes: 1500,
            loss_rate: f64::NAN,
        };
        assert!(!ev.floats_finite());
        // NaN serialises as `null`, which is not a valid number field.
        let line = serde_json::to_string(&ev).unwrap();
        assert!(serde_json::from_str::<Event>(&line).is_err());
        assert!(samples().iter().all(Event::floats_finite));
    }

    #[test]
    fn unknown_kind_and_missing_fields_are_rejected() {
        assert!(serde_json::from_str::<Event>(r#"{"kind":"nope"}"#).is_err());
        assert!(serde_json::from_str::<Event>(r#"{"kind":"span-close","name":"x"}"#).is_err());
        // Nullable fields are required keys too: `null` is explicit.
        let provenance = SAMPLES_JSONL
            .lines()
            .find(|l| l.contains(r#""sdcl_d_star":null"#))
            .unwrap();
        assert!(serde_json::from_str::<Event>(provenance).is_ok());
        for key in [r#""sdcl_d_star":null,"#, r#""path":null,"#] {
            assert!(serde_json::from_str::<Event>(&provenance.replace(key, "")).is_err());
        }
        assert!(serde_json::from_str::<Event>("[1,2]").is_err());
    }

    #[test]
    fn canonical_zeroes_only_wall_clock() {
        for ev in samples() {
            let canon = ev.canonical();
            match canon {
                Event::SpanClose { wall_ns, ref name } => {
                    assert_eq!(wall_ns, 0);
                    assert!(matches!(&ev, Event::SpanClose { name: n, .. } if n == name));
                }
                other => assert_eq!(other, ev),
            }
        }
    }

    #[test]
    fn known_kinds_is_exactly_the_sample_cover() {
        use std::collections::BTreeSet;
        let sampled: BTreeSet<&str> = samples().iter().map(Event::kind).collect();
        let known: BTreeSet<&str> = Event::KNOWN_KINDS.iter().copied().collect();
        assert_eq!(sampled, known, "samples() must cover every KNOWN_KINDS tag");
        assert_eq!(Event::KNOWN_KINDS.len(), known.len(), "no duplicate tags");
    }
}
