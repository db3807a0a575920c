//! Event consumers: the [`Recorder`] trait and its implementations.
//!
//! A recorder is where a merged, deterministic event stream ends up. The
//! library never talks to a recorder directly — events flow through the
//! global facility in `obs.rs`, which serialises delivery and keeps the
//! per-run [`Summary`] — so implementations only need `Send`, not `Sync`.

use crate::event::Event;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Consumes the merged event stream.
pub trait Recorder: Send {
    /// Consume one event.
    fn record(&mut self, ev: Event);

    /// Flush any buffered output; called once at the end of a run.
    /// Returns the first error met writing the artifact, so a truncated
    /// artifact is reported instead of passing for a complete one.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Discards everything (the "enabled but headless" recorder: the global
/// [`Summary`] still counts).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn record(&mut self, _ev: Event) {}
}

/// Create (truncate) the artifact file at `path`, creating its parent
/// directories first.
pub(crate) fn create_artifact(path: &Path) -> io::Result<File> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    File::create(path)
}

/// Streams each event as one JSON line to a file.
#[derive(Debug)]
pub struct JsonlSink {
    out: BufWriter<File>,
    /// The first write error; once set, nothing more is written.
    error: Option<io::Error>,
}

impl JsonlSink {
    /// Create (truncate) the artifact at `path`, creating parent
    /// directories as needed.
    pub fn create(path: impl AsRef<Path>) -> io::Result<JsonlSink> {
        Ok(JsonlSink {
            out: BufWriter::new(create_artifact(path.as_ref())?),
            error: None,
        })
    }
}

impl Recorder for JsonlSink {
    fn record(&mut self, ev: Event) {
        // Non-finite floats are unrepresentable in JSON (they would
        // serialise as `null` and fail to parse back as events). Dropping
        // such a line is better than poisoning the artifact — the summary
        // still counts the event.
        if self.error.is_some() || !ev.floats_finite() {
            return;
        }
        if let Ok(line) = serde_json::to_string(&ev) {
            if let Err(e) = writeln!(self.out, "{line}") {
                self.error = Some(e);
            }
        }
    }

    fn finish(&mut self) -> io::Result<()> {
        match self.error.take() {
            Some(e) => Err(e),
            None => self.out.flush(),
        }
    }
}

/// Read a JSONL artifact back: each event with its 1-based line number,
/// and the count of non-blank lines that do not parse as an event (a
/// truncated or foreign line is counted, not fatal).
pub fn parse_jsonl(text: &str) -> (Vec<(usize, Event)>, usize) {
    let mut events = Vec::new();
    let mut skipped = 0;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<Event>(line) {
            Ok(ev) => events.push((i + 1, ev)),
            Err(_) => skipped += 1,
        }
    }
    (events, skipped)
}

/// End-of-run event counts per kind. Maintained by the global facility
/// for every event delivered, regardless of which [`Recorder`] consumes
/// the stream. Span timings and counters are the registry's
/// (`Snapshot::render`).
#[derive(Debug, Default)]
pub struct Summary {
    events: u64,
    kinds: BTreeMap<&'static str, u64>,
}

impl Summary {
    /// Count one event.
    pub(crate) fn observe(&mut self, ev: &Event) {
        self.events += 1;
        *self.kinds.entry(ev.kind()).or_insert(0) += 1;
    }

    /// Total events observed.
    pub fn total_events(&self) -> u64 {
        self.events
    }

    /// Events observed for one kind.
    pub fn count(&self, kind: &str) -> u64 {
        self.kinds.get(kind).copied().unwrap_or(0)
    }

    /// The human-readable end-of-run table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "-- observability summary ({} events)", self.events);
        let _ = writeln!(s, "{:<28} {:>12}", "event kind", "count");
        for (kind, n) in &self.kinds {
            let _ = writeln!(s, "{kind:<28} {n:>12}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, ns: u64) -> Event {
        Event::SpanClose {
            name: name.into(),
            wall_ns: ns,
        }
    }

    fn fault(name: &str) -> Event {
        Event::FaultInjection {
            fault: name.into(),
            seed: 1,
            affected: 5,
        }
    }

    #[test]
    fn summary_counts_events_by_kind() {
        let mut sum = Summary::default();
        sum.observe(&span("em", 10));
        sum.observe(&span("em", 30));
        sum.observe(&fault("gilbert-elliott"));
        assert_eq!(sum.total_events(), 3);
        assert_eq!(sum.count("span-close"), 2);
        assert_eq!(sum.count("fault-injection"), 1);
        assert_eq!(sum.count("em-iteration"), 0);
        let table = sum.render();
        assert!(table.contains("3 events"), "{table}");
        assert!(table.contains("span-close"), "{table}");
        assert!(table.contains("fault-injection"), "{table}");
    }

    #[test]
    fn jsonl_sink_streams_parseable_lines() {
        let path = std::env::temp_dir().join("dcl-metrics-sink-test.jsonl");
        let mut sink = JsonlSink::create(&path).unwrap();
        sink.record(span("x", 7));
        sink.record(fault("reorder"));
        sink.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let _: Event = serde_json::from_str(line).unwrap();
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn jsonl_sink_skips_non_finite_floats() {
        let path = std::env::temp_dir().join("dcl-metrics-sink-nan.jsonl");
        let mut sink = JsonlSink::create(&path).unwrap();
        sink.record(Event::EmRestart {
            model: "mmhd".into(),
            restart: 0,
            iterations: 3,
            converged: false,
            reason: "max-iters".into(),
            log_likelihood: f64::NAN,
        });
        sink.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "", "NaN lines must be dropped, not written");
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn jsonl_sink_reports_a_full_disk() {
        let mut sink = JsonlSink::create("/dev/full").unwrap();
        sink.record(span("x", 7));
        let err = sink.finish().expect_err("a full disk must fail the finish");
        assert_eq!(err.raw_os_error(), Some(28), "ENOSPC: {err}");
    }
}
