//! Artifact validation shared by the `obs_check` binary and its tests.
//!
//! Each validator takes the artifact *text* (the binary does the file
//! I/O) and returns `Ok(summary)` for a human-readable success line or
//! `Err(message)` describing the first violation. Keeping them here —
//! rather than inline in the binary — lets the unit tests pin the exact
//! failure modes CI depends on, in particular that an empty or
//! all-unknown-kind JSONL *fails* instead of passing vacuously.

use std::collections::BTreeSet;

use dcl_metrics::obs::Event;
use serde_json::Value;

/// Validate an observability JSONL artifact.
///
/// Every line must be a JSON object with a string `kind`. Lines whose
/// kind is in [`Event::KNOWN_KINDS`] must deserialise and
/// round-trip through the schema; unknown kinds are tolerated and
/// counted (forward compatibility: an old `obs_check` must not reject a
/// newer producer). Spans must nest: each `span-close` closes the
/// innermost open span, of the same name, which is how the Chrome view
/// reads the span tree off the stream. The artifact fails if it contains
/// *zero known* events — whether because it is empty or because every
/// line is an unknown kind — or fewer than `min_kinds` distinct known
/// kinds.
pub fn validate_obs(text: &str, min_kinds: usize) -> Result<String, String> {
    let mut events = 0usize;
    let mut unknown = 0usize;
    let mut kinds = BTreeSet::new();
    let mut unknown_kinds = BTreeSet::new();
    let mut open_spans = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value: Value =
            serde_json::from_str(line).map_err(|e| format!("line {}: not JSON: {e}", i + 1))?;
        let kind = value
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: missing string `kind`", i + 1))?;
        if !Event::KNOWN_KINDS.contains(&kind) {
            unknown_kinds.insert(kind.to_owned());
            unknown += 1;
            continue;
        }
        // A known kind with a bad payload is a hard error.
        let ev: Event = serde_json::from_str(line)
            .map_err(|e| format!("line {}: invalid {kind:?} event: {e}", i + 1))?;
        // Round-trip: re-serialising must yield a parseable, equal event.
        let back: Event = serde_json::from_str(&serde_json::to_string(&ev).expect("serializable"))
            .expect("round-trip");
        if back != ev {
            return Err(format!("line {}: event does not round-trip", i + 1));
        }
        match &ev {
            Event::SpanOpen { name } => open_spans.push(name.clone()),
            Event::SpanClose { name, .. } => match open_spans.pop() {
                Some(open) if open == *name => {}
                open => {
                    return Err(format!(
                        "line {}: span-close {name:?} does not close the innermost open span ({})",
                        i + 1,
                        open.map_or("none is open".to_owned(), |o| format!("{o:?}"))
                    ))
                }
            },
            _ => {}
        }
        kinds.insert(ev.kind());
        events += 1;
    }

    if events == 0 {
        return Err(if unknown == 0 {
            "contains no events".to_owned()
        } else {
            format!(
                "contains only {unknown} unknown-kind event(s) ({}); no known kinds — \
                 refusing to pass vacuously",
                unknown_kinds.iter().cloned().collect::<Vec<_>>().join(", ")
            )
        });
    }
    if kinds.len() < min_kinds {
        return Err(format!(
            "{} known event kind(s) {:?}, expected >= {min_kinds}",
            kinds.len(),
            kinds
        ));
    }
    let mut summary = format!(
        "{events} events, {} kinds: {}",
        kinds.len(),
        kinds.into_iter().collect::<Vec<_>>().join(", ")
    );
    if unknown > 0 {
        summary.push_str(&format!(
            " (+{unknown} unknown-kind event(s) tolerated: {})",
            unknown_kinds.iter().cloned().collect::<Vec<_>>().join(", ")
        ));
    }
    Ok(summary)
}

/// Validate a Chrome-trace artifact, as `explain --chrome` writes it.
///
/// Structural checks (well-formed JSON, unique nonzero span ids, child
/// intervals nested inside parents, at least one root) are delegated to
/// [`dcl_metrics::obs::validate_chrome_trace`]; on top of that the artifact
/// must carry at least `min_provenance` `verdict-provenance` instants,
/// so CI can assert that an identifying run actually explained its
/// verdicts.
pub fn validate_trace(text: &str, min_provenance: usize) -> Result<String, String> {
    let stats = dcl_metrics::obs::validate_chrome_trace(text)?;
    let v: Value = serde_json::from_str(text).expect("validated above");
    let provenance = v
        .get("traceEvents")
        .and_then(Value::as_array)
        .map(|rows| {
            rows.iter()
                .filter(|r| {
                    r.get("ph").and_then(Value::as_str) == Some("i")
                        && r.get("name").and_then(Value::as_str) == Some("verdict-provenance")
                })
                .count()
        })
        .unwrap_or(0);
    if provenance < min_provenance {
        return Err(format!(
            "{provenance} verdict-provenance instant(s), expected >= {min_provenance}"
        ));
    }
    Ok(format!(
        "chrome trace ok ({} spans, {} roots, depth {}, {} instants, {provenance} provenance)",
        stats.spans, stats.roots, stats.max_depth, stats.instants
    ))
}

/// Validate a `--metrics` snapshot artifact: a [`dcl_metrics::Snapshot`]
/// at the current schema version whose histograms are internally
/// consistent (bucket sums equal counts, an empty histogram has no sum or
/// maximum, a maximum never exceeds the sum) and whose span profiles are
/// non-empty with `p50 ≤ p95 ≤ max ≤ total`.
pub fn validate_metrics(text: &str) -> Result<String, String> {
    let snap: dcl_metrics::Snapshot =
        serde_json::from_str(text).map_err(|e| format!("not a metrics snapshot: {e}"))?;
    let mut errors = Vec::new();
    if snap.schema_version != dcl_metrics::SCHEMA_VERSION {
        errors.push(format!(
            "schema_version {} != expected {}",
            snap.schema_version,
            dcl_metrics::SCHEMA_VERSION
        ));
    }
    for (name, h) in &snap.histograms {
        let bucket_sum: u64 = h.buckets.iter().sum();
        if bucket_sum != h.count {
            errors.push(format!(
                "histogram {name:?}: bucket sum {bucket_sum} != count {}",
                h.count
            ));
        }
        if h.count == 0 && (h.sum != 0 || h.max != 0) {
            errors.push(format!(
                "histogram {name:?}: empty histogram with nonzero sum/max"
            ));
        }
        if h.count > 0 && h.max > h.sum {
            errors.push(format!(
                "histogram {name:?}: max {} exceeds sum {}",
                h.max, h.sum
            ));
        }
    }
    for (name, p) in &snap.spans {
        if p.count == 0 {
            errors.push(format!("span {name:?}: zero-count profile"));
        }
        if p.max_ns > p.total_ns {
            errors.push(format!(
                "span {name:?}: max {} ns exceeds total {} ns",
                p.max_ns, p.total_ns
            ));
        }
        if p.p50_ns > p.p95_ns {
            errors.push(format!(
                "span {name:?}: p50 {} ns exceeds p95 {} ns",
                p.p50_ns, p.p95_ns
            ));
        }
        if p.p95_ns > p.max_ns {
            errors.push(format!(
                "span {name:?}: p95 {} ns exceeds max {} ns",
                p.p95_ns, p.max_ns
            ));
        }
    }
    if !errors.is_empty() {
        return Err(errors.join("; "));
    }
    Ok(format!(
        "metrics snapshot ok ({} counters, {} gauges, {} histograms, {} spans)",
        snap.counters.len(),
        snap.gauges.len(),
        snap.histograms.len(),
        snap.spans.len()
    ))
}

/// Validate a `--checkpoint` artifact: a [`dcl_fleet::FleetCheckpoint`]
/// or a single-engine [`dcl_core::StreamingCheckpoint`] as JSON, at the
/// current [`dcl_core::CHECKPOINT_VERSION`], that survives a
/// serialise → parse → serialise round trip byte-for-byte (the restore
/// path depends on nothing less).
pub fn validate_checkpoint(text: &str) -> Result<String, String> {
    // Fleet checkpoints embed engine checkpoints; try the outer shape
    // first — the two cannot parse as each other (disjoint required
    // fields).
    if let Ok(ck) = serde_json::from_str::<dcl_fleet::FleetCheckpoint>(text) {
        if ck.version != dcl_core::CHECKPOINT_VERSION {
            return Err(format!(
                "fleet checkpoint version {} != expected {}",
                ck.version,
                dcl_core::CHECKPOINT_VERSION
            ));
        }
        for (i, p) in ck.paths.iter().enumerate() {
            if p.version != dcl_core::CHECKPOINT_VERSION {
                return Err(format!(
                    "paths[{i}]: engine checkpoint version {} != expected {}",
                    p.version,
                    dcl_core::CHECKPOINT_VERSION
                ));
            }
        }
        let wire = serde_json::to_string(&ck).map_err(|e| format!("re-serialise failed: {e}"))?;
        let back: dcl_fleet::FleetCheckpoint =
            serde_json::from_str(&wire).map_err(|e| format!("round-trip parse failed: {e}"))?;
        let wire2 =
            serde_json::to_string(&back).map_err(|e| format!("re-serialise failed: {e}"))?;
        if wire != wire2 {
            return Err("fleet checkpoint does not round-trip byte-identically".into());
        }
        let buffered: usize = ck.paths.iter().map(|p| p.window_len()).sum();
        Ok(format!(
            "fleet checkpoint ok (version {}, {} paths, {} records buffered)",
            ck.version,
            ck.num_paths(),
            buffered
        ))
    } else if let Ok(ck) = serde_json::from_str::<dcl_core::StreamingCheckpoint>(text) {
        if ck.version != dcl_core::CHECKPOINT_VERSION {
            return Err(format!(
                "engine checkpoint version {} != expected {}",
                ck.version,
                dcl_core::CHECKPOINT_VERSION
            ));
        }
        let wire = serde_json::to_string(&ck).map_err(|e| format!("re-serialise failed: {e}"))?;
        let back: dcl_core::StreamingCheckpoint =
            serde_json::from_str(&wire).map_err(|e| format!("round-trip parse failed: {e}"))?;
        let wire2 =
            serde_json::to_string(&back).map_err(|e| format!("re-serialise failed: {e}"))?;
        if wire != wire2 {
            return Err("engine checkpoint does not round-trip byte-identically".into());
        }
        Ok(format!(
            "engine checkpoint ok (version {}, {} ingested, {} windows, {} buffered)",
            ck.version,
            ck.ingested(),
            ck.windows_evaluated(),
            ck.window_len()
        ))
    } else {
        Err("not a fleet or engine checkpoint (neither shape parses)".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(ev: &Event) -> String {
        serde_json::to_string(ev).unwrap()
    }

    fn fault() -> Event {
        Event::FaultInjection {
            fault: "reorder".into(),
            seed: 1,
            affected: 1,
        }
    }

    #[test]
    fn empty_artifact_fails_instead_of_passing_vacuously() {
        let err = validate_obs("", 1).unwrap_err();
        assert!(err.contains("no events"), "{err}");
        let err = validate_obs("\n  \n", 1).unwrap_err();
        assert!(err.contains("no events"), "{err}");
    }

    #[test]
    fn all_unknown_kinds_fail_instead_of_passing_vacuously() {
        let text = "{\"kind\":\"from-the-future\",\"x\":1}\n{\"kind\":\"also-new\"}\n";
        let err = validate_obs(text, 1).unwrap_err();
        assert!(err.contains("unknown-kind"), "{err}");
        assert!(err.contains("from-the-future"), "{err}");
        assert!(err.contains("vacuously"), "{err}");
    }

    #[test]
    fn a_crossed_or_stray_span_close_fails() {
        let open = |name: &str| Event::SpanOpen { name: name.into() };
        let close = |name: &str| Event::SpanClose {
            name: name.into(),
            wall_ns: 1,
        };
        let artifact = |events: &[Event]| events.iter().map(|e| line(e) + "\n").collect::<String>();
        let nested = artifact(&[open("a"), open("b"), close("b"), close("a")]);
        assert!(validate_obs(&nested, 1).is_ok());
        let crossed = artifact(&[open("a"), open("b"), close("a"), close("b")]);
        let err = validate_obs(&crossed, 1).unwrap_err();
        assert!(err.starts_with("line 3: span-close \"a\""), "{err}");
        assert!(err.contains("(\"b\")"), "{err}");
        let stray = artifact(&[fault(), close("a")]);
        let err = validate_obs(&stray, 1).unwrap_err();
        assert!(
            err.contains("line 2") && err.contains("none is open"),
            "{err}"
        );
    }

    #[test]
    fn unknown_kinds_are_tolerated_alongside_known_events() {
        let text = format!("{}\n{{\"kind\":\"from-the-future\"}}\n", line(&fault()));
        let summary = validate_obs(&text, 1).unwrap();
        assert!(summary.contains("1 events"), "{summary}");
        assert!(summary.contains("+1 unknown-kind"), "{summary}");
    }

    #[test]
    fn known_kind_with_bad_payload_is_a_hard_error() {
        // `fault-injection` without its `seed` and `affected` fields: known
        // kind, broken payload.
        let text = "{\"kind\":\"fault-injection\",\"fault\":\"reorder\"}\n";
        let err = validate_obs(text, 1).unwrap_err();
        assert!(err.contains("invalid \"fault-injection\" event"), "{err}");
    }

    #[test]
    fn min_kinds_counts_only_known_kinds() {
        let text = format!(
            "{}\n{{\"kind\":\"novel-a\"}}\n{{\"kind\":\"novel-b\"}}\n",
            line(&fault())
        );
        let err = validate_obs(&text, 2).unwrap_err();
        assert!(err.contains("expected >= 2"), "{err}");
    }

    #[test]
    fn non_json_and_kindless_lines_are_hard_errors() {
        assert!(validate_obs("not json\n", 1)
            .unwrap_err()
            .contains("not JSON"));
        assert!(validate_obs("{\"no_kind\":true}\n", 1)
            .unwrap_err()
            .contains("missing string `kind`"));
    }

    #[test]
    fn trace_validator_requires_provenance_instants() {
        let events = vec![
            Event::SpanOpen {
                name: "identify".into(),
            },
            Event::SpanClose {
                name: "identify".into(),
                wall_ns: 10,
            },
        ];
        let text = dcl_metrics::obs::export_chrome_trace(&events);
        assert!(validate_trace(&text, 0).is_ok());
        let err = validate_trace(&text, 1).unwrap_err();
        assert!(err.contains("verdict-provenance"), "{err}");
    }

    #[test]
    fn metrics_validator_checks_histogram_consistency() {
        let ((), captured) = dcl_metrics::capture(|| {
            let mut depth = dcl_metrics::Log2Hist::default();
            [0, 1, 5].into_iter().for_each(|v| depth.observe(v));
            dcl_metrics::histogram_with(|| ("netsim.link.hop1.occupancy".into(), depth));
        });
        let good = serde_json::to_string_pretty(&captured.metrics.snapshot()).unwrap();
        let summary = validate_metrics(&good).unwrap();
        assert!(summary.contains("1 histograms"), "{summary}");

        // A lost bucket no longer sums to the count.
        let mut snap = captured.metrics.snapshot();
        snap.histograms
            .get_mut("netsim.link.hop1.occupancy")
            .unwrap()
            .buckets[0] = 0;
        let err = validate_metrics(&serde_json::to_string(&snap).unwrap()).unwrap_err();
        assert!(err.contains("bucket sum 2 != count 3"), "{err}");
        snap.schema_version += 1;
        let err = validate_metrics(&serde_json::to_string(&snap).unwrap()).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
        assert!(validate_metrics("{}").is_err());
    }

    #[test]
    fn queue_stats_histograms_must_have_the_registry_bucket_count() {
        // A link's queue statistics are registry histograms; a snapshot
        // whose histogram has the pre-widening 16 buckets is refused.
        let ((), captured) = dcl_metrics::capture(|| {
            let mut depth = dcl_metrics::Log2Hist::default();
            depth.observe(3);
            dcl_metrics::histogram_with(|| ("netsim.link.hop1.occupancy".into(), depth));
        });
        let good = serde_json::to_string(&captured.metrics.snapshot()).unwrap();
        assert!(validate_metrics(&good).is_ok());

        let start = good.find("\"buckets\":[").unwrap() + "\"buckets\":[".len();
        let end = start + good[start..].find(']').unwrap();
        let buckets: Vec<&str> = good[start..end].split(',').collect();
        assert_eq!(buckets.len(), dcl_metrics::NUM_BUCKETS);
        let narrow = format!(
            "{}{}{}",
            &good[..start],
            buckets[..16].join(","),
            &good[end..]
        );
        let err = validate_metrics(&narrow).unwrap_err();
        assert!(err.contains("not a metrics snapshot"), "{err}");
    }

    #[test]
    fn checkpoint_validator_accepts_both_shapes_and_pins_versions() {
        use dcl_core::{StreamConfig, StreamingIdentifier};
        use dcl_netsim::time::Dur;

        let engine = StreamingIdentifier::new(
            StreamConfig::default(),
            Dur::from_millis(20.0),
            Dur::from_millis(20.0),
        );
        let engine_json = serde_json::to_string(&engine.checkpoint()).unwrap();
        let summary = validate_checkpoint(&engine_json).unwrap();
        assert!(summary.contains("engine checkpoint ok"), "{summary}");

        let mut fleet = dcl_fleet::StreamingFleet::new(Some(1));
        fleet.add_path(
            StreamConfig::default(),
            Dur::from_millis(20.0),
            Dur::from_millis(20.0),
        );
        let fleet_json = serde_json::to_string(&fleet.checkpoint_all()).unwrap();
        let summary = validate_checkpoint(&fleet_json).unwrap();
        assert!(summary.contains("fleet checkpoint ok"), "{summary}");
        assert!(summary.contains("1 paths"), "{summary}");

        // Version drift is a hard error, not a silent accept.
        let drifted = engine_json.replacen(
            &format!("\"version\":{}", dcl_core::CHECKPOINT_VERSION),
            &format!("\"version\":{}", dcl_core::CHECKPOINT_VERSION + 1),
            1,
        );
        assert!(validate_checkpoint(&drifted)
            .unwrap_err()
            .contains("version"));
        assert!(validate_checkpoint("{}").is_err());
        assert!(validate_checkpoint("not json").is_err());
    }
}
