//! `dcl-metrics`: the workspace's telemetry, with one gate, one capture
//! frame and one routing rule, and a deterministic parallel merge.
//!
//! Two facilities share the crate. The **registry** keeps aggregates:
//! monotonic counters, last-write gauges, log2 histograms and per-span
//! wall-clock profiles. The EM fitters count iterations, restarts and
//! guard trips; the simulator folds per-link packet and drop totals and
//! queue-depth histograms; the pipeline tracks identification and
//! sweep-cell throughput. A [`Snapshot`] of the registry is the raw
//! material for the `perf` bench binary's `BENCH_perf.json` trajectory
//! and the bins' end-of-run `--metrics` artifact. The **events** half
//! ([`obs`]) streams what happened, in order: structured events to a
//! recorder (the JSONL artifact) plus an end-of-run count per kind. A
//! Chrome trace is a view of that stream, rendered from it after the run
//! ([`obs::export_chrome_trace`]). [`span`] feeds both halves: an
//! open/close event pair, whose place in the stream is its place in the
//! span tree, and a wall-clock profile in the registry. Each fact is
//! recorded once: aggregates live in the registry, the ordered record in
//! the stream.
//!
//! # Zero overhead when disabled
//!
//! Both facilities are off by default. One gate word holds the events
//! switch ([`obs::set_enabled`]), the registry switch ([`set_enabled`])
//! and a count of the captures open on any thread. Every recording call
//! — [`counter`], [`gauge`], [`observe`], [`obs::record_with`], [`span`]
//! — starts with one relaxed load of that word and a mask; names are
//! `&'static str` and values plain integers, so the disabled path
//! constructs nothing. Dynamic payloads ([`counter_with`],
//! [`histogram_with`], [`obs::record_with`]) are closures that only run
//! once there is somewhere to send the result. The parallel-determinism
//! suite pins that identification outputs are bit-identical with
//! telemetry on and off.
//!
//! # One capture frame, one routing rule
//!
//! [`capture`] runs a closure with a frame open on the calling thread and
//! returns what it recorded as one [`Captured`]: its events and its
//! metric folds. Each thread keeps one stack of frames; a frame records
//! whatever the global switches say, and only on its own thread, so a
//! thread with no frame open records exactly what the switches say. A
//! record goes to the innermost frame on its thread, else to the global
//! sink or registry whose switch is on, else nowhere, and is then never
//! built. The frame is an RAII scope: a panic inside it still pops the
//! frame and lowers the count.
//!
//! # Deterministic parallel merge
//!
//! Parallel regions (`dcl-parallel`) must not let the schedule leak into
//! the stream or the registry. The forking thread reads what it records
//! once ([`Recording::current`]); a worker runs each work item under
//! [`Recording::capture`], which records the same, and the fork-join
//! scope then hands each [`Captured`] to [`replay`] **in item-index
//! order** after the join. Each item's spans close inside its capture, so
//! the replayed stream nests as a serial run's does. Counter and
//! histogram folds are commutative and gauge writes resolve by index
//! order, so the stream and
//! a [`snapshot()`] are identical to a serial run at any thread count
//! (wall-clock span timings excepted — compare with
//! [`obs::Event::canonical`] and [`Snapshot::canonical`]). A capture
//! opened inside another capture replays into its parent, so the
//! outermost join still sees one ordered stream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod event;
mod gate;
mod hist;
pub mod obs;
mod recorder;
mod snapshot;
mod span;

pub use hist::{log2_bucket, Log2Hist, NUM_BUCKETS};
pub use snapshot::{Snapshot, SpanProfile, SCHEMA_VERSION};
pub use span::{span, Span};

use gate::{Capture, Live, Switch};
use obs::Event;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// The registry tables. Also the shard type: a capture frame is just a
/// private registry folded into its parent at merge time.
#[derive(Debug, Default, Clone)]
pub struct Shard {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Log2Hist>,
    spans: BTreeMap<String, Log2Hist>,
}

impl Shard {
    /// The value of counter `name` folded into this shard (0 if never
    /// bumped) — how a test reads what one captured call counted.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }

    /// Fold `other` into `self`. Counters and histograms add (commutative);
    /// gauges are last-write-wins, so calling this in item-index order
    /// makes the merged gauge the highest-index write — a pure function of
    /// the items, never of the schedule.
    fn fold(&mut self, other: Shard) {
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.gauges {
            self.gauges.insert(k, v);
        }
        for (k, h) in other.histograms {
            self.histograms.entry(k).or_default().merge(&h);
        }
        for (k, h) in other.spans {
            self.spans.entry(k).or_default().merge(&h);
        }
    }

    /// This shard's tables as a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            schema_version: SCHEMA_VERSION,
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
            spans: self
                .spans
                .iter()
                .map(|(name, h)| {
                    (
                        name.clone(),
                        SpanProfile {
                            count: h.count,
                            total_ns: h.sum,
                            max_ns: h.max,
                            p50_ns: h.quantile(0.50),
                            p95_ns: h.quantile(0.95),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Apply `f` to the value under `name`, inserting a default first if the
/// name is new. The key is allocated only on that first insert.
fn upsert<V: Default>(table: &mut BTreeMap<String, V>, name: &str, f: impl FnOnce(&mut V)) {
    match table.get_mut(name) {
        Some(v) => f(v),
        None => f(table.entry(name.to_owned()).or_default()),
    }
}

static GLOBAL: Mutex<Option<Shard>> = Mutex::new(None);

/// Does this thread fold metrics? True inside a capture that records
/// them, and on a thread with no capture open while the registry is on.
/// With the registry off and no capture open anywhere this is one relaxed
/// load and a mask.
#[inline(always)]
pub fn is_enabled() -> bool {
    gate::is_on(Switch::Registry)
}

/// Turn the global registry on or off. Enabling creates the global tables
/// if absent; disabling leaves them in place (snapshot/finish still work).
/// Events stay off: this is the registry's switch alone.
pub fn set_enabled(on: bool) {
    if on {
        let mut global = GLOBAL.lock().unwrap();
        if global.is_none() {
            *global = Some(Shard::default());
        }
    }
    gate::set(Switch::Registry, on);
}

/// Read the `DCL_METRICS` environment variable and enable the registry if
/// it is on. Unset, `""`, `"0"`, `"false"` and `"off"` mean off; any
/// other value means on. Returns whether it is.
pub fn init_from_env() -> bool {
    let on = gate::env_flag("DCL_METRICS");
    if on {
        set_enabled(true);
    }
    on
}

/// Apply `f` where this thread's folds go: the innermost capture frame,
/// else the global registry if it is on. With neither, `f` never runs.
fn with_shard(f: impl FnOnce(&mut Shard)) {
    gate::route(
        Switch::Registry,
        || f,
        |frame, f| f(&mut frame.shard),
        |f| f(GLOBAL.lock().unwrap().get_or_insert_with(Shard::default)),
    );
}

/// Add `delta` to the monotonic counter `name`. One relaxed load when
/// disabled.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if is_enabled() {
        counter_cold(name, delta);
    }
}

#[cold]
fn counter_cold(name: &str, delta: u64) {
    with_shard(|s| upsert(&mut s.counters, name, |c| *c += delta));
}

/// Add to a counter whose name is built by `f` — for cold paths with
/// dynamic keys (per-link totals). The closure only runs when enabled.
#[inline]
pub fn counter_with(f: impl FnOnce() -> (String, u64)) {
    if is_enabled() {
        let (name, delta) = f();
        with_shard(|s| *s.counters.entry(name).or_insert(0) += delta);
    }
}

/// Merge a whole histogram under a name built by `f` — for cold paths
/// with dynamic keys (per-link queue depths). The closure only runs when
/// enabled.
#[inline]
pub fn histogram_with(f: impl FnOnce() -> (String, Log2Hist)) {
    if is_enabled() {
        let (name, hist) = f();
        with_shard(|s| s.histograms.entry(name).or_default().merge(&hist));
    }
}

/// Set the gauge `name` to `value` (last write wins; parallel regions
/// resolve writes in item-index order).
#[inline]
pub fn gauge(name: &'static str, value: u64) {
    if is_enabled() {
        gauge_cold(name, value);
    }
}

#[cold]
fn gauge_cold(name: &str, value: u64) {
    with_shard(|s| upsert(&mut s.gauges, name, |g| *g = value));
}

/// Fold `value` into the log2 histogram `name`. Use only for
/// deterministic quantities (iteration counts, queue depths) — wall-clock
/// values belong in span profiles, which [`Snapshot::canonical`]
/// neutralises.
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if is_enabled() {
        observe_cold(name, value);
    }
}

#[cold]
fn observe_cold(name: &str, value: u64) {
    with_shard(|s| upsert(&mut s.histograms, name, |h| h.observe(value)));
}

/// Fold one completed wall-clock span into the profile `name`; a
/// [`Span`] calls this on drop.
#[inline]
pub(crate) fn observe_duration_ns(name: &'static str, ns: u64) {
    if is_enabled() {
        observe_duration_cold(name, ns);
    }
}

#[cold]
fn observe_duration_cold(name: &str, ns: u64) {
    with_shard(|s| upsert(&mut s.spans, name, |h| h.observe(ns)));
}

/// What one [`capture`] recorded on its thread.
#[derive(Debug)]
pub struct Captured {
    /// The events, in the order they were recorded.
    pub events: Vec<Event>,
    /// The metric folds.
    pub metrics: Shard,
}

/// Run `f` with a capture frame open on this thread: everything `f`
/// records on this thread, events and folds, is returned instead of
/// reaching the global sink or registry, whatever the global switches
/// say. Other threads are not affected.
///
/// The frame is an RAII scope: if `f` panics it is still popped and the
/// gate's capture count lowered, so the panic leaves no recording
/// switched on.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Captured) {
    capture_live(Live::ALL, f)
}

/// What a thread records: events, folds, both or neither. A fork-join
/// region reads it once on its calling thread and opens each item's
/// capture on the workers with it, so they record what that thread would.
#[derive(Debug, Clone, Copy)]
pub struct Recording(Live);

impl Recording {
    /// What this thread records now.
    pub fn current() -> Recording {
        Recording(gate::live())
    }

    /// Does it record anything? If not, work forked from the thread needs
    /// no capture.
    pub fn records(self) -> bool {
        !self.0.is_none()
    }

    /// Run `f` under a capture that records what this token does: events
    /// only if it records events, folds only if it records folds. The
    /// parallel layer calls this once per item on its workers and hands
    /// the results to [`replay`] in index order.
    pub fn capture<R>(self, f: impl FnOnce() -> R) -> (R, Captured) {
        capture_live(self.0, f)
    }
}

fn capture_live<R>(live: Live, f: impl FnOnce() -> R) -> (R, Captured) {
    let frame = Capture::open(live);
    let out = f();
    let (events, metrics) = frame.close();
    (out, Captured { events, metrics })
}

/// Send a [`Captured`] on, as if its events and folds were recorded
/// here now: into the enclosing capture if one is open (nested
/// parallelism), else to the global sink and registry whose switches are
/// on. Call in item-index order after a fork-join.
pub fn replay(captured: Captured) {
    if !captured.events.is_empty() {
        obs::route(|| captured.events);
    }
    if !captured.metrics.is_empty() {
        with_shard(|s| s.fold(captured.metrics));
    }
}

/// A point-in-time copy of what this thread folds into: the innermost
/// capture frame if one is open, else the global registry
/// ([`Snapshot::default`] when nothing was ever enabled).
pub fn snapshot() -> Snapshot {
    if let Some(framed) = gate::innermost(|frame| frame.shard.snapshot()) {
        return framed;
    }
    let global = GLOBAL.lock().unwrap();
    match global.as_ref() {
        Some(shard) => shard.snapshot(),
        None => Snapshot {
            schema_version: SCHEMA_VERSION,
            ..Snapshot::default()
        },
    }
}

/// Disable the registry, take its contents, and reset it. Returns `None`
/// if the registry was never enabled.
pub fn finish() -> Option<Snapshot> {
    gate::set(Switch::Registry, false);
    GLOBAL.lock().unwrap().take().map(|shard| shard.snapshot())
}

/// Clear every table without touching the enabled flag — multi-phase
/// binaries that want per-phase snapshots.
pub fn reset() {
    let mut global = GLOBAL.lock().unwrap();
    if let Some(shard) = global.as_mut() {
        *shard = Shard::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{record, record_with};

    /// A named event: a fault-injection record whose `fault` is `name`.
    fn mark(name: &str, seed: u64) -> Event {
        Event::FaultInjection {
            fault: name.into(),
            seed,
            affected: 0,
        }
    }

    /// The names of the marks in `events`, in order.
    fn names(events: &[Event]) -> Vec<&str> {
        events
            .iter()
            .map(|e| match e {
                Event::FaultInjection { fault, .. } => fault.as_str(),
                _ => "?",
            })
            .collect()
    }

    #[test]
    fn capture_records_events_and_folds_with_the_switches_off() {
        let ((), cap) = capture(|| {
            record(mark("a", 1));
            record_with(|| mark("b", 2));
            crate::counter("c", 2);
            crate::counter("c", 3);
            crate::gauge("g", 7);
            crate::gauge("g", 9);
            crate::observe("h", 4);
            crate::observe_duration_ns("s", 1000);
            crate::counter_with(|| ("link.drops".to_string(), 11));
            let mut depths = Log2Hist::default();
            [0, 3, 3].into_iter().for_each(|v| depths.observe(v));
            crate::histogram_with(|| ("link.depth".to_string(), depths));
            crate::histogram_with(|| ("link.depth".to_string(), depths));
        });
        assert_eq!(names(&cap.events), ["a", "b"]);
        let snap = cap.metrics.snapshot();
        assert_eq!(snap.counters["c"], 5);
        assert_eq!(snap.counters["link.drops"], 11);
        assert_eq!(snap.gauges["g"], 9);
        assert_eq!(snap.histograms["h"].count, 1);
        let depth = snap.histograms["link.depth"];
        assert_eq!((depth.count, depth.sum, depth.max), (6, 12, 3));
        assert_eq!(depth.buckets[2], 4);
        assert_eq!(snap.spans["s"].count, 1);
        assert_eq!(snap.spans["s"].total_ns, 1000);
        assert_eq!(snap.schema_version, SCHEMA_VERSION);
    }

    #[test]
    fn span_quantiles_resolve_across_microseconds_to_milliseconds() {
        // 200 spans log-spaced over 20 µs – 20 ms: the median must land
        // well below the longest span, not in a saturated top bucket.
        let ((), cap) = capture(|| {
            for i in 0..200u32 {
                let ns = 20_000.0 * 1000f64.powf(f64::from(i) / 199.0);
                observe_duration_ns("wide", ns as u64);
            }
        });
        let p = cap.metrics.snapshot().spans["wide"];
        assert_eq!(p.count, 200);
        assert!(p.p50_ns < p.max_ns, "p50 {} vs max {}", p.p50_ns, p.max_ns);
        assert!(p.p50_ns < p.p95_ns, "p50 {} vs p95 {}", p.p50_ns, p.p95_ns);
        // Log2 resolution: the true median is ~632 µs.
        assert!((632_000..1_300_000).contains(&p.p50_ns), "p50 {}", p.p50_ns);
    }

    #[test]
    fn replay_in_index_order_fixes_events_and_gauges() {
        // A 2-item fork-join: capture each item, then replay in index
        // order regardless of completion order.
        let ((), cap) = capture(|| {
            crate::counter("outer", 1);
            let ((), item1) = capture(|| {
                record(mark("item1", 1));
                crate::counter("inner", 5);
                crate::gauge("g", 20);
            });
            let ((), item0) = capture(|| {
                record(mark("item0", 0));
                crate::gauge("g", 10);
            });
            // Nothing captured reached the enclosing frame yet.
            assert!(!crate::snapshot().counters.contains_key("inner"));
            replay(item0);
            replay(item1);
        });
        assert_eq!(names(&cap.events), ["item0", "item1"]);
        let snap = cap.metrics.snapshot();
        assert_eq!(snap.counters["outer"], 1);
        assert_eq!(snap.counters["inner"], 5);
        // Last write wins in replay order: item 1's gauge.
        assert_eq!(snap.gauges["g"], 20);
    }

    #[test]
    fn nested_capture_drains_into_parent() {
        let ((), cap) = capture(|| {
            record(mark("before", 1));
            crate::counter("a", 1);
            let ((), inner) = capture(|| {
                record(mark("inner", 2));
                crate::counter("a", 2);
            });
            replay(inner);
            record(mark("after", 3));
        });
        assert_eq!(names(&cap.events), ["before", "inner", "after"]);
        assert_eq!(cap.metrics.counter("a"), 3);
    }

    #[test]
    fn replayed_shards_match_a_serial_fold_bitwise() {
        let values = [3u64, 0, 9, 77, 250_000, 1, 1];
        let fold = |v: u64| {
            crate::counter("c", v);
            crate::observe("h", v);
        };
        let ((), serial) = capture(|| values.iter().for_each(|&v| fold(v)));
        let ((), merged) = capture(|| {
            let items: Vec<Captured> = values.iter().map(|&v| capture(|| fold(v)).1).collect();
            items.into_iter().for_each(replay);
        });
        assert_eq!(serial.metrics.snapshot(), merged.metrics.snapshot());
    }

    #[test]
    fn a_panicking_capture_pops_its_frames() {
        let ((), cap) = capture(|| {
            let _outer = span("outer");
            let unwound = std::panic::catch_unwind(|| {
                capture(|| {
                    let _inner = span("inner");
                    record(mark("lost", 1));
                    crate::counter("lost", 1);
                    panic!("inside a capture");
                })
            });
            assert!(unwound.is_err());
            // The panicked frames are gone: these land in this capture,
            // and the next span nests inside `outer`.
            record(mark("kept", 1));
            crate::counter("kept", 1);
            let _next = span("next");
        });
        assert_eq!(cap.metrics.counter("kept"), 1);
        assert_eq!(cap.metrics.counter("lost"), 0);
        assert_eq!(
            span_rows(&cap.events),
            [
                ("open", "outer"),
                ("open", "next"),
                ("close", "next"),
                ("close", "outer")
            ]
        );
        assert!(cap.events.contains(&mark("kept", 1)));
        assert!(!cap.events.contains(&mark("lost", 1)));
    }

    #[test]
    fn captured_span_records_open_and_close() {
        let ((), cap) = capture(|| {
            let _s = span("live");
        });
        assert_eq!(
            span_rows(&cap.events),
            [("open", "live"), ("close", "live")]
        );
        assert_eq!(cap.events.len(), 2, "one open + one close");
        assert_eq!(cap.metrics.snapshot().spans["live"].count, 1);
    }

    /// The `(kind, name)` rows of the span events in `events`, in order.
    fn span_rows(events: &[Event]) -> Vec<(&'static str, &str)> {
        events
            .iter()
            .filter_map(|e| match e {
                Event::SpanOpen { name } => Some(("open", name.as_str())),
                Event::SpanClose { name, .. } => Some(("close", name.as_str())),
                _ => None,
            })
            .collect()
    }
}
