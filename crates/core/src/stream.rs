//! Streaming identification: the batch pipeline run online.
//!
//! [`StreamingIdentifier`] accepts probe records one at a time (or in
//! chunks), maintains a bounded sliding window, and re-runs the full
//! discretise → fit → SDCL/WDCL pipeline every window hop. Each window's
//! fit is warm-started from the previous window's model parameters
//! (`fit_warm` in `dcl-hmm` / `dcl-mmhd`), falling back to the cold
//! restart schedule when a numerical guard trips, so the per-window cost
//! is incremental rather than from-scratch.
//!
//! Two invariants are pinned by the top-level test suite:
//!
//! * **Batch equivalence** — a window covering the whole trace runs the
//!   exact batch `identify()` code path (it *is* `identify_fitted` with
//!   no warm state), so the result is bit-identical to batch.
//! * **Chunking invariance and determinism** — evaluation points are a
//!   pure function of the ingested record count, never of the chunk
//!   boundaries; window contents are a pure function of the ingested
//!   records; warm state is a pure function of previously completed
//!   windows; and the underlying fits are bitwise identical at every
//!   thread count. The per-window verdicts, transitions, events
//!   and metrics therefore depend only on `(records, StreamConfig)`.
//!
//! Besides per-window verdicts, the engine emits verdict *transitions*
//! (a dominant congested link appearing, moving to a different delay
//! regime, clearing, or persisting) as `dcl-metrics` events and
//! counters — the first-class change signal a long-running
//! monitor alarms on.

use crate::estimators::FittedModel;
use crate::identify::{
    identify_fitted, Identification, IdentifyConfig, IdentifyError, ProvCtx, Verdict,
};
use dcl_netsim::sim::ProbeRecord;
use dcl_netsim::time::Dur;
use dcl_netsim::trace::ProbeTrace;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::ops::Deref;

/// How the sliding window is bounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowSpec {
    /// Keep the most recent `n` probe records.
    Count(usize),
}

/// Configuration of a [`StreamingIdentifier`].
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Sliding-window bound.
    pub window: WindowSpec,
    /// Re-evaluate every `hop` ingested probes, the first time once the
    /// window fills.
    pub hop: usize,
    /// Warm-start each window's fit from the previous window's model
    /// parameters (guarded; trips fall back to the cold restart
    /// schedule). Disable to cold-start every window.
    pub warm_start: bool,
    /// Per-window pipeline configuration. The default disables the fine
    /// bound re-fit (`estimate_bound: false`): it is the most expensive
    /// stage of the batch pipeline and a monitor re-deciding every hop
    /// rarely needs per-window bounds.
    pub identify: IdentifyConfig,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            window: WindowSpec::Count(3000),
            hop: 500,
            warm_start: true,
            identify: IdentifyConfig {
                estimate_bound: false,
                ..IdentifyConfig::default()
            },
        }
    }
}

/// How the verdict changed relative to the previous *usable* window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// A dominant congested link is now identified where none was.
    DclAppeared,
    /// A dominant congested link persists but its delay regime (the mode
    /// of the loss-delay PMF) changed — the dominant link moved.
    DclMoved,
    /// The previously identified dominant congested link is gone.
    DclCleared,
    /// No change: same dominance state (and, if dominant, same regime).
    DclUnchanged,
}

impl Transition {
    /// Kebab-case tag used in events, metrics and fixtures.
    pub fn tag(&self) -> &'static str {
        match self {
            Transition::DclAppeared => "dcl-appeared",
            Transition::DclMoved => "dcl-moved",
            Transition::DclCleared => "dcl-cleared",
            Transition::DclUnchanged => "dcl-unchanged",
        }
    }
}

/// Outcome of one window evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamUpdate {
    /// 0-based index of this window among all evaluations.
    pub window_index: usize,
    /// Sequence number of the oldest record in the window.
    pub first_seq: u64,
    /// Sequence number of the newest record in the window.
    pub last_seq: u64,
    /// Records in the window when it was evaluated.
    pub window_len: usize,
    /// Was the previous window's model offered to this window's fit as a
    /// warm seed? Whether the fit is the warm trajectory is the report's
    /// [`Provenance::warm`](crate::identify::Provenance::warm): a seed
    /// that is refused or trips a guard leaves the fit to the cold
    /// schedule.
    pub warm: bool,
    /// Verdict transition relative to the previous usable window; `None`
    /// when this window was unusable (its `result` is an error).
    pub transition: Option<Transition>,
    /// The per-window identification report, or the typed reason this
    /// window could not support one (e.g. no losses in the window). An
    /// unusable window keeps the previous verdict state.
    pub result: Result<Identification, IdentifyError>,
}

/// Online windowed identification over a stream of probe records.
///
/// See the [module docs](self) for the windowing, warm-start and
/// determinism semantics. The engine's mutable state *is* a
/// [`StreamingCheckpoint`], and the engine dereferences to it for the
/// read-only accessors ([`StreamingCheckpoint::ingested`],
/// [`StreamingCheckpoint::windows_evaluated`], ...).
#[derive(Debug)]
pub struct StreamingIdentifier {
    cfg: StreamConfig,
    state: StreamingCheckpoint,
    /// Test/bench fault hook: evaluations left that will panic (see
    /// [`StreamingIdentifier::inject_eval_panics`]). Not part of the
    /// checkpointed state — it is a harness knob, not stream state.
    inject_panics: usize,
}

/// Checkpoint schema version carried by every [`StreamingCheckpoint`];
/// [`StreamingIdentifier::restore`] rejects any other value.
pub const CHECKPOINT_VERSION: u32 = 2;

/// Verdict and PMF mode of the last usable window.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct PrevVerdict {
    verdict: Verdict,
    mode: usize,
}

/// The complete mutable state of a [`StreamingIdentifier`]: window
/// buffer, warm-start model, verdict state and logical clocks. The
/// engine runs on one of these, so a checkpoint is a copy of it;
/// restoring it into a fresh engine with the same [`StreamConfig`] and
/// continuing the stream is bitwise identical — verdicts, provenance,
/// events and metrics — to a run that never stopped. The configuration itself is deliberately not captured: it is
/// code-like, not state-like, and callers re-supply it on restore.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamingCheckpoint {
    /// Schema version; must equal [`CHECKPOINT_VERSION`] to restore.
    pub version: u32,
    base_delay: Dur,
    interval: Dur,
    buf: VecDeque<ProbeRecord>,
    ingested: usize,
    evaluated_at: usize,
    windows: usize,
    prev: Option<PrevVerdict>,
    warm: Option<FittedModel>,
    /// Fleet path index stamped on the engine's `verdict-provenance`
    /// events; `None` for a standalone engine.
    path: Option<u64>,
}

impl StreamingCheckpoint {
    /// Records currently buffered in the window.
    pub fn window_len(&self) -> usize {
        self.buf.len()
    }

    /// Total records ingested so far.
    pub fn ingested(&self) -> usize {
        self.ingested
    }

    /// Windows evaluated so far.
    pub fn windows_evaluated(&self) -> usize {
        self.windows
    }

    /// Fleet path index stamped on the engine, if any.
    pub fn path(&self) -> Option<u64> {
        self.path
    }
}

/// Why a checkpoint could not be restored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointError {
    /// The checkpoint's schema version is not this library's
    /// [`CHECKPOINT_VERSION`].
    VersionMismatch {
        /// Version found in the checkpoint.
        found: u32,
        /// Version this library restores.
        expected: u32,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::VersionMismatch { found, expected } => {
                write!(
                    f,
                    "checkpoint version {found} (this library restores {expected})"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl Deref for StreamingIdentifier {
    type Target = StreamingCheckpoint;

    fn deref(&self) -> &StreamingCheckpoint {
        &self.state
    }
}

impl StreamingIdentifier {
    /// A new engine. `base_delay` and `interval` describe the probe
    /// stream exactly as on [`ProbeTrace`] (for traces, prefer
    /// [`StreamingIdentifier::run_trace`]).
    ///
    /// # Panics
    /// If the hop is zero or the window is empty.
    pub fn new(cfg: StreamConfig, base_delay: Dur, interval: Dur) -> StreamingIdentifier {
        let state = StreamingCheckpoint {
            version: CHECKPOINT_VERSION,
            base_delay,
            interval,
            buf: VecDeque::new(),
            ingested: 0,
            evaluated_at: 0,
            windows: 0,
            prev: None,
            warm: None,
            path: None,
        };
        StreamingIdentifier::with_state(cfg, state)
    }

    /// Rebuild an engine from a checkpoint. Pass the same `cfg` the
    /// checkpointed engine ran with to get the bitwise continuation
    /// guarantee. Silent, like [`StreamingIdentifier::checkpoint`].
    ///
    /// # Panics
    /// If the hop is zero or the window is empty (as in
    /// [`StreamingIdentifier::new`]).
    pub fn restore(
        cfg: StreamConfig,
        ck: StreamingCheckpoint,
    ) -> Result<StreamingIdentifier, CheckpointError> {
        if ck.version != CHECKPOINT_VERSION {
            return Err(CheckpointError::VersionMismatch {
                found: ck.version,
                expected: CHECKPOINT_VERSION,
            });
        }
        Ok(StreamingIdentifier::with_state(cfg, ck))
    }

    fn with_state(cfg: StreamConfig, state: StreamingCheckpoint) -> StreamingIdentifier {
        assert!(cfg.hop > 0, "hop must be at least 1");
        let WindowSpec::Count(w) = cfg.window;
        assert!(w > 0, "count window must be non-empty");
        StreamingIdentifier {
            cfg,
            state,
            inject_panics: 0,
        }
    }

    /// Fault hook for tests and the recovery bench: make the next `n`
    /// window evaluations panic (`"injected evaluation fault"`) where the
    /// pipeline would run, as a deterministic stand-in for in-pipeline
    /// bugs: the window has taken its index and produces no update. The
    /// fleet layer is expected to contain the panic and keep ingesting.
    pub fn inject_eval_panics(&mut self, n: usize) {
        self.inject_panics = n;
    }

    /// Snapshot the engine's complete mutable state. Deliberately silent
    /// (no events, no counters): a checkpoint/restore cycle must leave
    /// the canonical observability stream identical to a run that never
    /// stopped.
    pub fn checkpoint(&self) -> StreamingCheckpoint {
        self.state.clone()
    }

    /// Stamp a fleet path index on every `verdict-provenance` event this
    /// engine emits. Pure event context: updates and reports are bitwise
    /// unaffected.
    pub fn with_path(mut self, path: u64) -> StreamingIdentifier {
        self.state.path = Some(path);
        self
    }

    /// Ingest one probe record; returns the window evaluation when this
    /// record lands on an evaluation point.
    pub fn push(&mut self, record: ProbeRecord) -> Option<StreamUpdate> {
        let WindowSpec::Count(w) = self.cfg.window;
        let s = &mut self.state;
        s.buf.push_back(record);
        while s.buf.len() > w {
            s.buf.pop_front();
        }
        s.ingested += 1;
        // An evaluation point is a pure function of the ingested count,
        // so chunk boundaries cannot move it.
        let due = s.ingested >= w && (s.ingested - w).is_multiple_of(self.cfg.hop);
        due.then(|| self.evaluate())
    }

    /// Ingest a chunk of records; returns every window evaluation the
    /// chunk triggered, in order. Splitting a stream into different
    /// chunks cannot change the evaluations (chunking invariance).
    pub fn push_chunk(&mut self, records: &[ProbeRecord]) -> Vec<StreamUpdate> {
        records
            .iter()
            .filter_map(|r| self.push(r.clone()))
            .collect()
    }

    /// Evaluate the tail window if the stream did not end exactly on an
    /// evaluation point (e.g. a count window that never filled).
    pub fn flush(&mut self) -> Option<StreamUpdate> {
        if self.state.buf.is_empty() || self.state.evaluated_at == self.state.ingested {
            return None;
        }
        Some(self.evaluate())
    }

    /// Convenience: stream a whole trace through a fresh engine (chunked
    /// ingest plus a final [`StreamingIdentifier::flush`]) and collect
    /// every window evaluation.
    pub fn run_trace(trace: &ProbeTrace, cfg: StreamConfig) -> Vec<StreamUpdate> {
        let mut engine = StreamingIdentifier::new(cfg, trace.base_delay, trace.interval);
        let mut updates = engine.push_chunk(&trace.records);
        updates.extend(engine.flush());
        updates
    }

    /// Transition implied by a usable window's verdict and PMF mode.
    fn transition_for(&self, verdict: Verdict, mode: usize) -> Transition {
        let prev = self.state.prev;
        let was_dominant = prev.is_some_and(|p| p.verdict != Verdict::NoDominant);
        match (was_dominant, verdict != Verdict::NoDominant) {
            (false, true) => Transition::DclAppeared,
            (true, false) => Transition::DclCleared,
            (true, true) if prev.is_some_and(|p| p.mode != mode) => Transition::DclMoved,
            _ => Transition::DclUnchanged,
        }
    }

    /// Run the pipeline on the current window contents.
    fn evaluate(&mut self) -> StreamUpdate {
        let _span = dcl_metrics::span("stream.window");
        let records: Vec<ProbeRecord> = self.state.buf.iter().cloned().collect();
        let first_seq = records.first().map_or(0, |r| r.stamp.seq);
        let last_seq = records.last().map_or(0, |r| r.stamp.seq);
        let window_len = records.len();
        let wtrace = ProbeTrace {
            records,
            base_delay: self.state.base_delay,
            interval: self.state.interval,
        };
        let warm_in = if self.cfg.warm_start {
            self.state.warm.as_ref()
        } else {
            None
        };
        let used_warm = warm_in.is_some();
        let window_index = self.state.windows;
        self.state.windows += 1;
        self.state.evaluated_at = self.state.ingested;
        dcl_metrics::counter("stream.windows", 1);
        if used_warm {
            // Windows offered a seed, whether or not it survived.
            dcl_metrics::counter("stream.windows.warm", 1);
        }
        let ctx = ProvCtx {
            path: self.state.path,
            window: Some(window_index as u64),
            first_seq: Some(first_seq),
            last_seq: Some(last_seq),
        };
        if self.inject_panics > 0 {
            self.inject_panics -= 1;
            panic!("injected evaluation fault");
        }
        let (result, transition) = match identify_fitted(&wtrace, &self.cfg.identify, warm_in, ctx)
        {
            Ok((report, model)) => {
                if self.cfg.warm_start {
                    self.state.warm = Some(model);
                }
                if report.provenance.degraded {
                    dcl_metrics::counter("stream.budget.degraded_windows", 1);
                }
                let mode = report.pmf.mode();
                let transition = self.transition_for(report.verdict, mode);
                let prev_verdict = self.state.prev.map(|p| p.verdict);
                self.state.prev = Some(PrevVerdict {
                    verdict: report.verdict,
                    mode,
                });
                dcl_metrics::counter(
                    match transition {
                        Transition::DclAppeared => "stream.transitions.appeared",
                        Transition::DclMoved => "stream.transitions.moved",
                        Transition::DclCleared => "stream.transitions.cleared",
                        Transition::DclUnchanged => "stream.transitions.unchanged",
                    },
                    1,
                );
                dcl_metrics::obs::record_with(|| dcl_metrics::obs::Event::VerdictTransition {
                    transition: transition.tag().to_string(),
                    path: self.state.path,
                    window: window_index,
                    verdict: report.verdict.tag().to_string(),
                    prev_verdict: prev_verdict.map_or("none", Verdict::tag).to_string(),
                    mode,
                    num_probes: report.num_probes,
                    loss_rate: report.loss_rate,
                });
                (Ok(report), Some(transition))
            }
            Err(e) => {
                // An unusable window (e.g. no losses inside it) keeps the
                // previous verdict state and emits no transition.
                dcl_metrics::counter("stream.windows.unusable", 1);
                (Err(e), None)
            }
        };
        StreamUpdate {
            window_index,
            first_seq,
            last_seq,
            window_len,
            warm: used_warm,
            transition,
            result,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcl_netsim::packet::ProbeStamp;
    use dcl_netsim::time::Time;

    /// A loss-free trace: every window errors with `NoLosses` quickly,
    /// which makes the windowing mechanics cheap to exercise.
    fn lossless_trace(n: usize) -> ProbeTrace {
        let records = (0..n)
            .map(|i| {
                let sent = Time::from_secs(i as f64 * 0.02);
                let stamp = ProbeStamp::new(i as u64, None, sent);
                ProbeRecord {
                    stamp,
                    arrival: Some(sent + Dur::from_millis(25.0 + (i % 50) as f64)),
                }
            })
            .collect();
        ProbeTrace {
            records,
            base_delay: Dur::from_millis(20.0),
            interval: Dur::from_millis(20.0),
        }
    }

    fn count_cfg(window: usize, hop: usize) -> StreamConfig {
        StreamConfig {
            window: WindowSpec::Count(window),
            hop,
            ..StreamConfig::default()
        }
    }

    #[test]
    fn count_window_evaluates_on_fill_then_every_hop() {
        let trace = lossless_trace(100);
        let updates = StreamingIdentifier::run_trace(&trace, count_cfg(50, 10));
        // Evaluations at ingested = 50, 60, 70, 80, 90, 100; the stream
        // ends exactly on an evaluation point, so flush adds nothing.
        assert_eq!(updates.len(), 6);
        for (i, u) in updates.iter().enumerate() {
            assert_eq!(u.window_index, i);
            assert_eq!(u.window_len, 50);
            assert_eq!(u.last_seq, (49 + 10 * i) as u64);
            assert_eq!(u.first_seq, u.last_seq - 49);
            assert_eq!(u.result, Err(IdentifyError::NoLosses));
            assert_eq!(u.transition, None);
        }
    }

    #[test]
    fn flush_evaluates_a_tail_window_exactly_once() {
        let trace = lossless_trace(55);
        let mut engine =
            StreamingIdentifier::new(count_cfg(50, 10), trace.base_delay, trace.interval);
        let mut updates = engine.push_chunk(&trace.records);
        assert_eq!(updates.len(), 1); // at ingested = 50
        updates.extend(engine.flush());
        assert_eq!(updates.len(), 2); // tail at ingested = 55
        assert_eq!(updates[1].last_seq, 54);
        assert!(engine.flush().is_none(), "flush must be idempotent");
    }

    #[test]
    fn per_record_and_chunked_ingest_agree() {
        let trace = lossless_trace(120);
        let reference = StreamingIdentifier::run_trace(&trace, count_cfg(40, 20));
        let mut chunked =
            StreamingIdentifier::new(count_cfg(40, 20), trace.base_delay, trace.interval);
        let mut updates = Vec::new();
        for chunk in trace.records.chunks(7) {
            updates.extend(chunked.push_chunk(chunk));
        }
        updates.extend(chunked.flush());
        assert_eq!(reference.len(), updates.len());
        for (a, b) in reference.iter().zip(&updates) {
            assert_eq!(a.window_index, b.window_index);
            assert_eq!(
                (a.first_seq, a.last_seq, a.window_len),
                (b.first_seq, b.last_seq, b.window_len)
            );
            assert_eq!(a.result, b.result);
        }
    }

    #[test]
    fn loss_free_windows_never_stop_evaluation() {
        // A loss-free path is uncongested, not sick: every evaluation
        // point yields a `NoLosses` update, however long the run of them.
        let trace = lossless_trace(400);
        let (updates, cap) =
            dcl_metrics::capture(|| StreamingIdentifier::run_trace(&trace, count_cfg(20, 5)));
        // Evaluations at ingested = 20, 25, ..., 400.
        assert_eq!(updates.len(), 77);
        for (i, u) in updates.iter().enumerate() {
            assert_eq!(u.window_index, i);
            assert_eq!(u.last_seq, (19 + 5 * i) as u64);
            assert_eq!(u.result, Err(IdentifyError::NoLosses));
            assert_eq!(u.transition, None);
        }
        assert_eq!(cap.metrics.counter("stream.windows"), 77);
        assert_eq!(cap.metrics.counter("stream.windows.unusable"), 77);
        assert!(
            cap.events.iter().all(|e| e.kind().starts_with("span-")),
            "an unusable window emits only its span"
        );
    }

    #[test]
    fn count_window_keeps_only_the_newest_records() {
        let trace = lossless_trace(90);
        let mut engine =
            StreamingIdentifier::new(count_cfg(30, 10), trace.base_delay, trace.interval);
        for (i, r) in trace.records.iter().enumerate() {
            let update = engine.push(r.clone());
            assert_eq!(engine.ingested(), i + 1);
            assert_eq!(engine.window_len(), (i + 1).min(30));
            if let Some(u) = update {
                assert_eq!((u.first_seq, u.last_seq), (i as u64 - 29, i as u64));
            }
        }
    }

    #[test]
    fn hop_longer_than_the_window_skips_records_between_evaluations() {
        let trace = lossless_trace(130);
        let updates = StreamingIdentifier::run_trace(&trace, count_cfg(20, 50));
        // Evaluations at ingested = 20, 70, 120, then the tail at 130.
        let spans: Vec<(u64, u64)> = updates.iter().map(|u| (u.first_seq, u.last_seq)).collect();
        assert_eq!(spans, [(0, 19), (50, 69), (100, 119), (110, 129)]);
    }

    #[test]
    fn empty_window_and_zero_hop_are_rejected() {
        let (base, interval) = (Dur::from_millis(20.0), Dur::from_millis(20.0));
        for cfg in [count_cfg(0, 10), count_cfg(10, 0)] {
            let built = std::panic::catch_unwind(|| StreamingIdentifier::new(cfg, base, interval));
            assert!(built.is_err(), "{cfg:?} must be rejected");
        }
    }

    #[test]
    fn restore_rejects_other_checkpoint_versions() {
        let trace = lossless_trace(10);
        let mut engine =
            StreamingIdentifier::new(count_cfg(5, 5), trace.base_delay, trace.interval);
        engine.push_chunk(&trace.records);
        for version in [CHECKPOINT_VERSION - 1, CHECKPOINT_VERSION + 1] {
            let mut ck = engine.checkpoint();
            ck.version = version;
            let err = StreamingIdentifier::restore(count_cfg(5, 5), ck).unwrap_err();
            assert_eq!(
                err,
                CheckpointError::VersionMismatch {
                    found: version,
                    expected: CHECKPOINT_VERSION,
                }
            );
            assert_eq!(
                err.to_string(),
                format!(
                    "checkpoint version {version} (this library restores {CHECKPOINT_VERSION})"
                )
            );
        }
    }

    #[test]
    fn checkpoint_json_holds_exactly_the_engine_state() {
        let trace = lossless_trace(50);
        let mut engine =
            StreamingIdentifier::new(count_cfg(20, 10), trace.base_delay, trace.interval)
                .with_path(3);
        engine.push_chunk(&trace.records[..45]);
        let json: serde_json::Value = serde_json::to_value(&engine.checkpoint()).unwrap();
        let keys: Vec<&str> = json
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "version",
                "base_delay",
                "interval",
                "buf",
                "ingested",
                "evaluated_at",
                "windows",
                "prev",
                "warm",
                "path"
            ]
        );
        let field = |k: &str| json[k].as_u64();
        assert_eq!(field("version"), Some(u64::from(CHECKPOINT_VERSION)));
        assert_eq!(field("ingested"), Some(45));
        assert_eq!(field("evaluated_at"), Some(40));
        assert_eq!(field("windows"), Some(3));
        assert_eq!(field("path"), Some(3));
        assert_eq!(json["buf"].as_array().map(Vec::len), Some(20));
    }

    #[test]
    fn checkpoint_restore_at_any_cut_continues_identically() {
        let trace = lossless_trace(100);
        let cfg = count_cfg(30, 20);
        let want = StreamingIdentifier::run_trace(&trace, cfg);
        // Cuts before the window fills, on an evaluation point, just
        // after one, and mid-hop.
        for cut in [10, 30, 31, 65] {
            let mut engine = StreamingIdentifier::new(cfg, trace.base_delay, trace.interval);
            let mut got = engine.push_chunk(&trace.records[..cut]);
            let text = serde_json::to_string(&engine.checkpoint()).unwrap();
            drop(engine);
            let ck: StreamingCheckpoint = serde_json::from_str(&text).unwrap();
            let mut restored = StreamingIdentifier::restore(cfg, ck).unwrap();
            assert_eq!(restored.ingested(), cut);
            got.extend(restored.push_chunk(&trace.records[cut..]));
            got.extend(restored.flush());
            assert_eq!(got, want, "cut at {cut}");
        }
    }

    #[test]
    fn injected_panic_consumes_its_window_and_the_next_point_evaluates() {
        let trace = lossless_trace(60);
        let cfg = count_cfg(20, 20);
        let want = StreamingIdentifier::run_trace(&trace, cfg);
        let mut engine = StreamingIdentifier::new(cfg, trace.base_delay, trace.interval);
        engine.inject_eval_panics(1);
        engine.push_chunk(&trace.records[..19]);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let fired = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.push(trace.records[19].clone())
        }));
        std::panic::set_hook(hook);
        assert!(fired.is_err(), "the first evaluation panics");
        // The panicked window took its index and its evaluation point.
        assert_eq!((engine.ingested(), engine.windows_evaluated()), (20, 1));
        assert!(engine.flush().is_none());
        let mut rest = engine.push_chunk(&trace.records[20..]);
        rest.extend(engine.flush());
        assert_eq!(rest, want[1..]);
    }

    /// A bursty trace with a period of 50 records: delays rise for the
    /// last 8 of every 25 records, and where `lossy(i)` holds, two
    /// records inside each burst are lost.
    fn periodic_trace(len: usize, lossy: impl Fn(usize) -> bool) -> ProbeTrace {
        let records = (0..len)
            .map(|i| {
                let sent = Time::from_secs(i as f64 * 0.02);
                let mut stamp = ProbeStamp::new(i as u64, None, sent);
                let phase = i % 25;
                let arrival = if lossy(i) && (phase == 19 || phase == 21) {
                    stamp.loss_hop = Some(1);
                    None
                } else if phase >= 17 {
                    Some(sent + Dur::from_millis(165.0 + (phase % 5) as f64 * 5.0))
                } else {
                    Some(sent + Dur::from_millis(25.0 + (i % 50) as f64))
                };
                ProbeRecord { stamp, arrival }
            })
            .collect();
        ProbeTrace {
            records,
            base_delay: Dur::from_millis(22.0),
            interval: Dur::from_millis(20.0),
        }
    }

    #[test]
    fn unusable_windows_keep_the_previous_verdict_state() {
        // Lossy, then two loss-free windows, then the first window's
        // contents again (the delays repeat every 50 records).
        let trace = periodic_trace(1000, |i| !(250..750).contains(&i));
        let cfg = StreamConfig {
            window: WindowSpec::Count(250),
            hop: 250,
            warm_start: false,
            identify: IdentifyConfig {
                restarts: 2,
                estimate_bound: false,
                ..IdentifyConfig::default()
            },
        };
        let (updates, cap) = dcl_metrics::capture(|| StreamingIdentifier::run_trace(&trace, cfg));
        assert_eq!(updates.len(), 4);
        let (first, last) = (
            updates[0].result.as_ref().unwrap(),
            updates[3].result.as_ref().unwrap(),
        );
        for gap in &updates[1..3] {
            assert_eq!(gap.result, Err(IdentifyError::NoLosses));
            assert_eq!(gap.transition, None);
        }
        assert_ne!(first.verdict, Verdict::NoDominant);
        assert_eq!(updates[0].transition, Some(Transition::DclAppeared));
        assert_eq!((first.verdict, &first.pmf), (last.verdict, &last.pmf));
        // The last window is compared with the first, not with the gap.
        assert_eq!(updates[3].transition, Some(Transition::DclUnchanged));
        assert_eq!(cap.metrics.counter("stream.windows.unusable"), 2);
        assert_eq!(cap.metrics.counter("stream.transitions.unchanged"), 1);
    }

    #[test]
    fn transition_tags_are_stable() {
        assert_eq!(Transition::DclAppeared.tag(), "dcl-appeared");
        assert_eq!(Transition::DclMoved.tag(), "dcl-moved");
        assert_eq!(Transition::DclCleared.tag(), "dcl-cleared");
        assert_eq!(Transition::DclUnchanged.tag(), "dcl-unchanged");
    }
}
