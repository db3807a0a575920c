//! Property-based round-trip tests for the event schema: every variant —
//! including `verdict-provenance` with its nullable context fields and
//! `span-open`/`span-close` pairs —
//! must serialise to a `kind`-tagged JSON line that parses back to the
//! identical event. This is the contract `obs_check` and the trace
//! exporter stand on.

use dcl_metrics::obs::Event;
use proptest::prelude::*;

/// Span/region names exercised by the generators.
const NAMES: &[&str] = &[
    "identify",
    "hmm.em.restart",
    "stream.window",
    "fleet.identify",
    "mmhd.em.warm",
    "a",
];

/// Verdict tags the pipeline emits.
const VERDICTS: &[&str] = &["strongly-dominant", "weakly-dominant", "no-dominant"];

/// Fitter tags.
const MODELS: &[&str] = &["hmm", "mmhd"];

fn pick(table: &'static [&'static str]) -> impl Strategy<Value = String> {
    (0usize..table.len()).prop_map(move |i| table[i].to_string())
}

/// `Option<u64>` over the full id width (the shim parses u64 exactly).
fn opt_u64() -> impl Strategy<Value = Option<u64>> {
    (any::<bool>(), any::<u64>()).prop_map(|(some, v)| if some { Some(v) } else { None })
}

fn opt_usize() -> impl Strategy<Value = Option<usize>> {
    (any::<bool>(), 0usize..64).prop_map(|(some, v)| if some { Some(v) } else { None })
}

/// Serialise, parse back, and check the tagged wire format.
fn assert_round_trips(ev: &Event) {
    let json = serde_json::to_string(ev).expect("serializable");
    let back: Event = serde_json::from_str(&json).expect("parseable");
    assert_eq!(&back, ev, "event does not round-trip: {json}");
    assert!(
        Event::KNOWN_KINDS.contains(&ev.kind()),
        "kind {:?} missing from Event::KNOWN_KINDS",
        ev.kind()
    );
    let v: serde_json::Value = serde_json::from_str(&json).expect("line is JSON");
    assert_eq!(
        v.get("kind").and_then(serde_json::Value::as_str),
        Some(ev.kind()),
        "wire format must be kind-tagged"
    );
}

proptest! {
    #[test]
    fn em_events_round_trip(
        parts in (
            (pick(MODELS), 0usize..16, 1usize..1_000),
            (-1e12f64..1e12, 0.0f64..10.0),
            (any::<bool>(), 0usize..8),
        )
    ) {
        let ((model, restart, iteration), (log_likelihood, max_param_delta), (converged, attempt)) =
            parts;
        assert_round_trips(&Event::EmIteration {
            model: model.clone(),
            restart,
            iteration,
            log_likelihood,
            max_param_delta,
        });
        assert_round_trips(&Event::EmRestart {
            model: model.clone(),
            restart,
            iterations: iteration,
            converged,
            reason: if converged { "tol".into() } else { "max-iters".into() },
            log_likelihood,
        });
        assert_round_trips(&Event::EmGuard {
            model,
            restart,
            attempt: attempt + 1,
            reason: "non-finite-likelihood".into(),
        });
    }

    #[test]
    fn fault_injection_round_trips(
        parts in (pick(NAMES), any::<u64>(), any::<u64>())
    ) {
        let (fault, seed, affected) = parts;
        assert_round_trips(&Event::FaultInjection {
            fault,
            seed,
            affected,
        });
    }

    #[test]
    fn verdict_transition_round_trips(
        parts in (
            (pick(VERDICTS), pick(VERDICTS), 1usize..100_000, 0.0f64..1.0),
            (opt_u64(), 0usize..512, 0usize..32),
        )
    ) {
        let ((verdict, prev_verdict, num_probes, loss_rate), (path, window, mode)) = parts;
        assert_round_trips(&Event::VerdictTransition {
            transition: "dcl-moved".into(),
            path,
            window,
            verdict,
            prev_verdict,
            mode,
            num_probes,
            loss_rate,
        });
    }

    /// The 22-field provenance record, nullable context fields included:
    /// every combination of batch (all `None`), fleet (`path` only) and
    /// streaming (`window`/`first_seq`/`last_seq`) context must survive
    /// the wire.
    #[test]
    fn verdict_provenance_round_trips(
        parts in (
            (pick(VERDICTS), pick(MODELS), any::<bool>(), 0usize..16, 1usize..1_000),
            (any::<bool>(), 0usize..32, -1e12f64..1e12, any::<bool>()),
            (
                (any::<bool>(), -1.0f64..1.0, opt_usize()),
                (any::<bool>(), -1.0f64..1.0, opt_usize()),
            ),
            (1usize..100_000, 0.0f64..1.0, any::<u64>()),
            (opt_u64(), opt_u64(), opt_u64(), opt_u64()),
        )
    ) {
        let (
            (verdict, model, warm, restarts, iterations),
            (converged, guard_trips, log_likelihood, degraded),
            ((sdcl_accepted, sdcl_margin, sdcl_d_star), (wdcl_accepted, wdcl_margin, wdcl_d_star)),
            (num_probes, loss_rate, bin_width_us),
            (path, window, first_seq, last_seq),
        ) = parts;
        assert_round_trips(&Event::VerdictProvenance {
            verdict,
            model,
            warm,
            restarts,
            iterations,
            converged,
            guard_trips,
            log_likelihood,
            degraded,
            sdcl_accepted,
            sdcl_margin,
            sdcl_d_star,
            wdcl_accepted,
            wdcl_margin,
            wdcl_d_star,
            num_probes,
            loss_rate,
            bin_width_us,
            path,
            window,
            first_seq,
            last_seq,
        });
    }

    /// Span opens and closes: a name, and the close's wall-clock time at
    /// full u64 width.
    #[test]
    fn spans_round_trip(parts in (pick(NAMES), any::<u64>())) {
        let (name, wall_ns) = parts;
        assert_round_trips(&Event::SpanOpen { name: name.clone() });
        assert_round_trips(&Event::SpanClose { name, wall_ns });
    }

    /// `canonical` zeroes exactly the wall-clock field: span closes lose
    /// their `wall_ns`, everything else is untouched — and canonicalising
    /// is idempotent.
    #[test]
    fn canonical_zeroes_only_wall_clock(parts in (pick(NAMES), any::<u64>())) {
        let (name, wall_ns) = parts;
        let close = Event::SpanClose {
            name: name.clone(),
            wall_ns,
        };
        let canon = close.canonical();
        assert_eq!(
            canon,
            Event::SpanClose {
                name: name.clone(),
                wall_ns: 0
            }
        );
        assert_eq!(canon.canonical(), canon, "canonical must be idempotent");
        let open = Event::SpanOpen { name };
        assert_eq!(open.canonical(), open, "span-open has no wall-clock field");
        assert_round_trips(&canon);
    }
}
