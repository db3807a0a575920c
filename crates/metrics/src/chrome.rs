//! Chrome-trace (Trace Event Format) export and validation.
//!
//! # Schema
//!
//! The artifact is one JSON object `{"traceEvents": [...]}`. Spans are
//! complete events (`"ph": "X"`) with `name`, `ts`, `dur`, `pid`/`tid`
//! pinned to 1, and `args: {id, parent, wall_ns}`, where `id` is the
//! span's 1-based position in the stream (`ts + 1`) and `parent` the
//! enclosing span's `id`, 0 at a root; point-in-time records
//! (`INSTANT_KINDS`: verdict provenance, verdict transitions, fault
//! injections) are instant events
//! (`"ph": "i"`, `"s": "t"`) whose `args` embed the full obs event. Any
//! other kind is left out and takes no position on the timeline.
//!
//! The trace is a view of the event stream, not a second record: it is
//! rendered after the run from the captured events or from the JSONL
//! artifact parsed back (`explain <obs.jsonl> --chrome <out.json>`).
//! Both give the same bytes, save for an event with a non-finite float,
//! which the JSONL artifact cannot hold.
//!
//! # Timestamps are causal order
//!
//! The deterministic merge replays worker events in item-index order, so
//! original wall-clock start times are gone by the time the stream is
//! observable — and would differ run to run anyway. Instead `ts` is the
//! event's position in the trace-relevant stream and a span's `dur` is
//! the number of positions it brackets. Span events carry no ids: the
//! stream is properly nested, so each close ends the innermost open span
//! of its name, and a span's parent is the span open around its open.
//! That makes the timeline a
//! faithful rendering of the *causal* tree (children strictly inside
//! parents, siblings in order), bitwise identical across runs and thread
//! counts; the measured duration of each span is preserved in
//! `args.wall_ns`.

use crate::obs::Event;
use crate::recorder::create_artifact;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;

/// Event kinds rendered as instant events on the timeline. High-volume
/// kinds (per-iteration EM telemetry) stay off it, so the trace grows
/// with the span count.
const INSTANT_KINDS: &[&str] = &[
    "verdict-transition",
    "verdict-provenance",
    "fault-injection",
];

/// Render a deterministic obs event stream as Chrome-trace JSON.
///
/// Unmatched opens (a run aborted mid-span) are closed at the end of the
/// stream with `wall_ns: 0`; unmatched closes are dropped. Both keep the
/// artifact well-formed instead of failing the export.
pub fn export_chrome_trace(events: &[Event]) -> String {
    let mut rows: Vec<Value> = Vec::new();
    // Innermost-last stack of open spans: (name, open position, parent id).
    let mut open: Vec<(&str, u64, u64)> = Vec::new();
    let mut pos = 0u64;
    let complete =
        |rows: &mut Vec<Value>, (name, from, parent): (&str, u64, u64), to: u64, wall_ns: u64| {
            rows.push(json!({
                "name": name,
                "ph": "X",
                "ts": from,
                "dur": to.saturating_sub(from).max(1),
                "pid": 1u64,
                "tid": 1u64,
                "args": {"id": from + 1, "parent": parent, "wall_ns": wall_ns},
            }));
        };
    for ev in events {
        match ev {
            Event::SpanOpen { name } => {
                let parent = open.last().map_or(0, |&(_, from, _)| from + 1);
                open.push((name, pos, parent));
                pos += 1;
            }
            Event::SpanClose { name, wall_ns } => {
                if let Some(i) = open.iter().rposition(|(open_name, _, _)| open_name == name) {
                    complete(&mut rows, open.remove(i), pos, *wall_ns);
                }
                pos += 1;
            }
            other if INSTANT_KINDS.contains(&other.kind()) => {
                rows.push(json!({
                    "name": other.kind(),
                    "ph": "i",
                    "ts": pos,
                    "pid": 1u64,
                    "tid": 1u64,
                    "s": "t",
                    "args": serde_json::to_value(other).unwrap_or(Value::Null),
                }));
                pos += 1;
            }
            _ => {}
        }
    }
    while let Some(span) = open.pop() {
        complete(&mut rows, span, pos, 0);
        pos += 1;
    }
    json!({ "traceEvents": rows }).to_string()
}

/// Write [`export_chrome_trace`] of `events` to `path` (one line),
/// creating parent directories as needed. A failed write, a full disk
/// included, is returned rather than leaving a truncated artifact
/// unreported.
pub fn write_chrome_trace(path: &Path, events: &[Event]) -> io::Result<()> {
    let mut out = create_artifact(path)?;
    writeln!(out, "{}", export_chrome_trace(events))?;
    out.flush()
}

/// What [`validate_chrome_trace`] measured about a well-formed artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Complete (`"X"`) span events.
    pub spans: usize,
    /// Instant (`"i"`) events.
    pub instants: usize,
    /// Spans with `parent: 0`.
    pub roots: usize,
    /// Longest parent chain (1 for a lone root span).
    pub max_depth: usize,
}

/// Validate a Chrome-trace artifact produced by [`export_chrome_trace`]:
/// well-formed JSON with a non-empty `traceEvents` array, every span
/// carrying a unique nonzero id, every nonzero parent resolving to a
/// known span whose `[ts, ts+dur)` interval encloses the child's, and
/// every instant carrying an embedded `args` payload.
pub fn validate_chrome_trace(text: &str) -> Result<TraceStats, String> {
    let v: Value = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let rows = v
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("missing `traceEvents` array")?;
    if rows.is_empty() {
        return Err("`traceEvents` is empty".into());
    }
    // id -> (ts, end, parent)
    let mut spans: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
    let mut instants = 0usize;
    for (i, row) in rows.iter().enumerate() {
        let ph = row
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("traceEvents[{i}]: missing `ph`"))?;
        if row
            .get("name")
            .and_then(Value::as_str)
            .is_none_or(str::is_empty)
        {
            return Err(format!("traceEvents[{i}]: missing or empty `name`"));
        }
        let ts = row
            .get("ts")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("traceEvents[{i}]: missing `ts`"))?;
        match ph {
            "X" => {
                let dur = row
                    .get("dur")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("traceEvents[{i}]: span missing `dur`"))?;
                let id = row
                    .get("args")
                    .and_then(|a| a.get("id"))
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("traceEvents[{i}]: span missing `args.id`"))?;
                let parent = row
                    .get("args")
                    .and_then(|a| a.get("parent"))
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("traceEvents[{i}]: span missing `args.parent`"))?;
                if id == 0 {
                    return Err(format!("traceEvents[{i}]: span id 0 is reserved"));
                }
                if spans.insert(id, (ts, ts + dur, parent)).is_some() {
                    return Err(format!("traceEvents[{i}]: duplicate span id {id}"));
                }
            }
            "i" => {
                if row.get("args").and_then(Value::as_object).is_none() {
                    return Err(format!("traceEvents[{i}]: instant missing `args`"));
                }
                instants += 1;
            }
            other => return Err(format!("traceEvents[{i}]: unsupported phase {other:?}")),
        }
    }
    if spans.is_empty() {
        return Err("trace contains no spans".into());
    }
    let mut roots = 0usize;
    let mut max_depth = 0usize;
    for (id, (ts, end, parent)) in &spans {
        if *parent == 0 {
            roots += 1;
        } else {
            let (pts, pend, _) = spans
                .get(parent)
                .ok_or_else(|| format!("span {id}: unknown parent {parent}"))?;
            if ts < pts || end > pend {
                return Err(format!(
                    "span {id} [{ts}, {end}) escapes parent {parent} [{pts}, {pend})"
                ));
            }
        }
        // Depth via the parent chain, cycle-bounded by the span count.
        let mut depth = 1usize;
        let mut cursor = *parent;
        while cursor != 0 {
            depth += 1;
            if depth > spans.len() + 1 {
                return Err(format!("span {id}: parent chain does not terminate"));
            }
            cursor = spans.get(&cursor).map(|(_, _, p)| *p).unwrap_or(0);
        }
        max_depth = max_depth.max(depth);
    }
    if roots == 0 {
        return Err("no root span (every span claims a parent)".into());
    }
    Ok(TraceStats {
        spans: spans.len(),
        instants,
        roots,
        max_depth,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{parse_jsonl, JsonlSink, Recorder};

    fn open(name: &str) -> Event {
        Event::SpanOpen { name: name.into() }
    }

    fn close(name: &str, wall_ns: u64) -> Event {
        Event::SpanClose {
            name: name.into(),
            wall_ns,
        }
    }

    fn nested_stream() -> Vec<Event> {
        vec![
            open("identify"),
            open("em"),
            close("em", 500),
            Event::VerdictTransition {
                transition: "dcl-appeared".into(),
                path: None,
                window: 0,
                verdict: "strongly-dominant".into(),
                prev_verdict: "none".into(),
                mode: 4,
                num_probes: 100,
                loss_rate: 0.01,
            },
            close("identify", 900),
        ]
    }

    #[test]
    fn export_validates_and_nests() {
        let text = export_chrome_trace(&nested_stream());
        let stats = validate_chrome_trace(&text).unwrap();
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.instants, 1);
        assert_eq!(stats.roots, 1);
        assert_eq!(stats.max_depth, 2);
    }

    /// The `(name, ts, id, parent, wall_ns)` of each span row of `text`.
    fn span_rows(text: &str) -> Vec<(String, u64, u64, u64, u64)> {
        let v: Value = serde_json::from_str(text).unwrap();
        let rows = v.get("traceEvents").and_then(Value::as_array).unwrap();
        rows.iter()
            .filter(|r| r.get("ph").and_then(Value::as_str) == Some("X"))
            .map(|r| {
                let num = |v: Option<&Value>| v.and_then(Value::as_u64).unwrap();
                let arg = |k| num(r.get("args").and_then(|a| a.get(k)));
                let name = r.get("name").and_then(Value::as_str).unwrap();
                let ts = num(r.get("ts"));
                (
                    name.to_owned(),
                    ts,
                    arg("id"),
                    arg("parent"),
                    arg("wall_ns"),
                )
            })
            .collect()
    }

    #[test]
    fn span_ids_are_stream_positions_and_parents_enclose() {
        // Rows come out in close order: `em` first.
        assert_eq!(
            span_rows(&export_chrome_trace(&nested_stream())),
            [
                ("em".to_owned(), 1, 2, 1, 500),
                ("identify".to_owned(), 0, 1, 0, 900)
            ]
        );
    }

    #[test]
    fn a_close_ends_the_innermost_open_span_of_its_name() {
        // Two `a`s nest; the first close ends the inner one.
        let text = export_chrome_trace(&[open("a"), open("a"), close("a", 7), close("a", 9)]);
        assert_eq!(
            span_rows(&text),
            [("a".to_owned(), 1, 2, 1, 7), ("a".to_owned(), 0, 1, 0, 9)]
        );
        assert_eq!(validate_chrome_trace(&text).unwrap().max_depth, 2);
    }

    #[test]
    fn export_is_deterministic() {
        assert_eq!(
            export_chrome_trace(&nested_stream()),
            export_chrome_trace(&nested_stream())
        );
    }

    #[test]
    fn unmatched_open_is_closed_at_stream_end() {
        let text = export_chrome_trace(&[open("aborted"), open("inner")]);
        let stats = validate_chrome_trace(&text).unwrap();
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.max_depth, 2);
    }

    #[test]
    fn stray_close_is_dropped() {
        let text = export_chrome_trace(&[open("a"), close("ghost", 5), close("a", 5)]);
        assert_eq!(validate_chrome_trace(&text).unwrap().spans, 1);
    }

    #[test]
    fn validation_rejects_malformed_artifacts() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace(r#"{"traceEvents":[]}"#).is_err());
        // Instants alone are not a trace.
        assert!(validate_chrome_trace(
            r#"{"traceEvents":[{"name":"verdict-transition","ph":"i","ts":0,"pid":1,"tid":1,"s":"t","args":{}}]}"#
        )
        .is_err());
        // Duplicate ids.
        assert!(validate_chrome_trace(concat!(
            r#"{"traceEvents":["#,
            r#"{"name":"a","ph":"X","ts":0,"dur":1,"pid":1,"tid":1,"args":{"id":5,"parent":0,"wall_ns":0}},"#,
            r#"{"name":"b","ph":"X","ts":1,"dur":1,"pid":1,"tid":1,"args":{"id":5,"parent":0,"wall_ns":0}}"#,
            r#"]}"#
        ))
        .is_err());
        // Unknown parent.
        assert!(validate_chrome_trace(
            r#"{"traceEvents":[{"name":"x","ph":"X","ts":0,"dur":1,"pid":1,"tid":1,"args":{"id":3,"parent":99,"wall_ns":0}}]}"#
        )
        .is_err());
        // Child escaping its parent's interval.
        assert!(validate_chrome_trace(concat!(
            r#"{"traceEvents":["#,
            r#"{"name":"p","ph":"X","ts":0,"dur":2,"pid":1,"tid":1,"args":{"id":1,"parent":0,"wall_ns":0}},"#,
            r#"{"name":"c","ph":"X","ts":1,"dur":5,"pid":1,"tid":1,"args":{"id":2,"parent":1,"wall_ns":0}}"#,
            r#"]}"#
        ))
        .is_err());
    }

    #[test]
    fn instant_kinds_are_known_point_in_time_kinds() {
        for kind in INSTANT_KINDS {
            assert!(
                Event::KNOWN_KINDS.contains(kind),
                "{kind} is not an event kind"
            );
            assert!(
                !kind.starts_with("span-"),
                "{kind} is a span, not an instant"
            );
        }
    }

    #[test]
    fn instant_args_embed_the_event() {
        let text = export_chrome_trace(&nested_stream());
        let v: Value = serde_json::from_str(&text).unwrap();
        let rows = v.get("traceEvents").and_then(Value::as_array).unwrap();
        let instant = rows
            .iter()
            .find(|r| r.get("ph").and_then(Value::as_str) == Some("i"))
            .unwrap();
        let args = instant.get("args").unwrap();
        assert_eq!(
            args.get("kind").and_then(Value::as_str),
            Some("verdict-transition")
        );
        assert_eq!(
            args.get("verdict").and_then(Value::as_str),
            Some("strongly-dominant")
        );
    }

    /// A run's stream with a high-volume kind the trace leaves out.
    fn noisy_stream() -> Vec<Event> {
        let mut events = nested_stream();
        events.insert(
            2,
            Event::EmIteration {
                model: "hmm".into(),
                restart: 0,
                iteration: 1,
                log_likelihood: -1.0,
                max_param_delta: 0.5,
            },
        );
        events
    }

    /// Write `events` through the `--obs` sink and return the artifact.
    fn jsonl_artifact(name: &str, events: &[Event]) -> String {
        let path = std::env::temp_dir().join(name);
        let mut sink = JsonlSink::create(&path).unwrap();
        for ev in events {
            sink.record(ev.clone());
        }
        sink.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        text
    }

    #[test]
    fn jsonl_artifact_renders_a_valid_trace_and_filters_noise() {
        let text = jsonl_artifact("dcl-metrics-chrome-noise.jsonl", &noisy_stream());
        let (events, skipped) = parse_jsonl(&text);
        assert_eq!(skipped, 0);
        let events: Vec<Event> = events.into_iter().map(|(_, ev)| ev).collect();
        let path = std::env::temp_dir().join("dcl-metrics-chrome-noise.json");
        write_chrome_trace(&path, &events).unwrap();
        let trace = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let stats = validate_chrome_trace(&trace).unwrap();
        assert_eq!((stats.spans, stats.instants), (2, 1));
        // The EM iteration takes no position: the trace is the quiet one.
        assert_eq!(trace.trim_end(), export_chrome_trace(&nested_stream()));
    }

    #[test]
    fn jsonl_artifact_keeps_every_event_and_gives_the_same_trace() {
        let mut text = jsonl_artifact("dcl-metrics-chrome-round-trip.jsonl", &noisy_stream());
        assert_eq!(text.lines().count(), noisy_stream().len());
        text.push_str("{\"kind\":\"no-such-kind\"}\n\nnot json\n");
        let (events, skipped) = parse_jsonl(&text);
        assert_eq!(skipped, 2, "foreign lines are counted, blank ones ignored");
        let lines: Vec<usize> = events.iter().map(|(line, _)| *line).collect();
        assert_eq!(lines, (1..=noisy_stream().len()).collect::<Vec<_>>());
        let events: Vec<Event> = events.into_iter().map(|(_, ev)| ev).collect();
        assert_eq!(
            export_chrome_trace(&events),
            export_chrome_trace(&noisy_stream())
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn chrome_trace_write_reports_a_full_disk() {
        let err = write_chrome_trace(Path::new("/dev/full"), &nested_stream())
            .expect_err("a full disk must fail the write");
        assert_eq!(err.raw_os_error(), Some(28), "ENOSPC: {err}");
    }
}
