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
//!   pure function of the ingested records (their count and, for
//!   duration windows, their send times), never of the chunk
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
use crate::health::{HealthTransition, PathHealth, PathSupervisor, WindowOutcome};
use crate::identify::{
    identify_fitted, Identification, IdentifyConfig, IdentifyError, ProvCtx, Verdict,
};
use dcl_netsim::sim::ProbeRecord;
use dcl_netsim::time::{Dur, Time};
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
    /// Keep the records sent within `d` of the newest record's send time.
    Duration(Dur),
}

/// Configuration of a [`StreamingIdentifier`].
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Sliding-window bound.
    pub window: WindowSpec,
    /// Re-evaluate every `hop` ingested probes. For [`WindowSpec::Count`]
    /// windows the first evaluation happens once the window fills; for
    /// [`WindowSpec::Duration`] windows it happens at the first hop
    /// boundary where the stream has covered the window's duration
    /// (elapsed send time since the first ingested record ≥ `d`), so a
    /// barely-started window is never evaluated early.
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
    /// Supervise the path's health (see [`PathHealth`]). Off (the
    /// default), no state machine runs and behaviour is exactly the
    /// unsupervised engine. On, two consecutive bad windows (errors,
    /// guard trips, budget-degraded fits) degrade the path and two more
    /// quarantine it: quarantined evaluation points are skipped at
    /// near-zero cost until a backoff of 2 window hops — doubling per
    /// re-quarantine, capped at 32, never wall-clock — elapses, and two
    /// clean windows on probation make the path healthy again.
    pub supervise: bool,
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
            supervise: false,
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
    /// Was this window's fit warm-started from the previous window?
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
/// [`StreamingCheckpoint::health`], ...).
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
pub const CHECKPOINT_VERSION: u32 = 1;

/// Verdict and PMF mode of the last usable window.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct PrevVerdict {
    verdict: Verdict,
    mode: usize,
}

/// The complete mutable state of a [`StreamingIdentifier`]: window
/// buffer, warm-start model, verdict state, logical clocks and health
/// supervisor. The engine runs on one of these, so a checkpoint is a
/// copy of it; restoring it into a fresh engine with the same
/// [`StreamConfig`] and continuing the stream is bitwise identical —
/// verdicts, provenance, events and metrics — to a run that never
/// stopped. The configuration itself is deliberately not captured: it is
/// code-like, not state-like, and callers re-supply it on restore.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamingCheckpoint {
    /// Schema version; must equal [`CHECKPOINT_VERSION`] to restore.
    pub version: u32,
    base_delay: Dur,
    interval: Dur,
    buf: VecDeque<ProbeRecord>,
    /// Send time of the very first ingested record; gates the first
    /// duration-window evaluation on actual duration coverage.
    first_sent: Option<Time>,
    ingested: usize,
    evaluated_at: usize,
    windows: usize,
    prev: Option<PrevVerdict>,
    warm: Option<FittedModel>,
    /// Fleet path index stamped on the engine's `verdict-provenance`
    /// events; `None` for a standalone engine.
    path: Option<u64>,
    /// Health state machine; only driven when supervision is on.
    supervisor: PathSupervisor,
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

    /// Health of the supervised path. Always [`PathHealth::Healthy`]
    /// when supervision is off.
    pub fn health(&self) -> PathHealth {
        self.supervisor.health()
    }

    /// Is the path quarantined (evaluation points being skipped)?
    pub fn is_quarantined(&self) -> bool {
        self.health() == PathHealth::Quarantined
    }

    /// Times the path has entered quarantine.
    pub fn quarantines(&self) -> u32 {
        self.supervisor.quarantines()
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
    /// If the hop is zero or a count window is empty.
    pub fn new(cfg: StreamConfig, base_delay: Dur, interval: Dur) -> StreamingIdentifier {
        let state = StreamingCheckpoint {
            version: CHECKPOINT_VERSION,
            base_delay,
            interval,
            buf: VecDeque::new(),
            first_sent: None,
            ingested: 0,
            evaluated_at: 0,
            windows: 0,
            prev: None,
            warm: None,
            path: None,
            supervisor: PathSupervisor::new(),
        };
        StreamingIdentifier::with_state(cfg, state)
    }

    /// Rebuild an engine from a checkpoint. Pass the same `cfg` the
    /// checkpointed engine ran with to get the bitwise continuation
    /// guarantee. Silent, like [`StreamingIdentifier::checkpoint`].
    ///
    /// # Panics
    /// If the hop is zero or a count window is empty (as in
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
        if let WindowSpec::Count(w) = cfg.window {
            assert!(w > 0, "count window must be non-empty");
        }
        StreamingIdentifier {
            cfg,
            state,
            inject_panics: 0,
        }
    }

    /// Fault hook for tests and the recovery bench: make the next `n`
    /// window evaluations panic (`"injected evaluation fault"`), as a
    /// deterministic stand-in for in-pipeline bugs. The fleet layer is
    /// expected to contain the panic and quarantine the path.
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

    /// Quarantine this path immediately from the outside — the fleet
    /// layer calls this when a window evaluation panics — emitting the
    /// transition event. No-op without supervision or when already
    /// quarantined.
    pub fn force_quarantine(&mut self, reason: &'static str) {
        if self.cfg.supervise {
            if let Some(t) = self.state.supervisor.force_quarantine(reason) {
                self.record_health_transition(&t, self.state.windows as u64);
            }
        }
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
        self.state.first_sent.get_or_insert(record.stamp.sent_at);
        self.state.buf.push_back(record);
        self.state.ingested += 1;
        self.trim();
        if self.due() {
            self.evaluate_or_skip()
        } else {
            None
        }
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
        self.evaluate_or_skip()
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

    /// A due evaluation point. While a supervised path is quarantined it
    /// is skipped entirely (no window clone, no fit): it burns one
    /// backoff hop on the supervisor's logical clock and surfaces the
    /// probation transition when the backoff elapses.
    fn evaluate_or_skip(&mut self) -> Option<StreamUpdate> {
        if self.cfg.supervise && self.state.is_quarantined() {
            self.state.evaluated_at = self.state.ingested;
            dcl_metrics::counter("stream.windows.skipped", 1);
            if let Some(t) = self.state.supervisor.tick_quarantine() {
                self.record_health_transition(&t, self.state.windows as u64);
            }
            return None;
        }
        Some(self.evaluate())
    }

    /// Emit the event and counters for one health transition. `window`
    /// is the engine's window-hop logical clock (the index the *next*
    /// evaluation would get, or the just-evaluated index when observed
    /// from inside an evaluation).
    fn record_health_transition(&self, t: &HealthTransition, window: u64) {
        dcl_metrics::counter("stream.health.transitions", 1);
        if t.to == PathHealth::Quarantined {
            dcl_metrics::counter("stream.health.quarantines", 1);
        }
        let path = self.state.path;
        let backoff = t.backoff_hops as u64;
        let (from, to, reason) = (t.from.tag(), t.to.tag(), t.reason);
        dcl_metrics::obs::record_with(|| dcl_metrics::obs::Event::PathHealthTransition {
            path,
            window,
            from: from.to_string(),
            to: to.to_string(),
            reason: reason.to_string(),
            backoff_hops: backoff,
        });
    }

    /// Is the current ingest an evaluation point? A pure function of the
    /// ingested records (count and, for duration windows, send times) —
    /// chunk boundaries cannot influence it.
    fn due(&self) -> bool {
        let s = &self.state;
        match self.cfg.window {
            WindowSpec::Count(w) => {
                s.ingested >= w && (s.ingested - w).is_multiple_of(self.cfg.hop)
            }
            WindowSpec::Duration(d) => {
                if !s.ingested.is_multiple_of(self.cfg.hop) {
                    return false;
                }
                // Mirror the count window's fill gate: the stream must
                // have covered the window's duration before the first
                // evaluation. The buffer's own span cannot witness this
                // (trim keeps it ≤ d by construction), so measure
                // elapsed send time from the first ingested record.
                match (s.first_sent, s.buf.back()) {
                    (Some(first), Some(newest)) => {
                        newest.stamp.sent_at.saturating_since(first) >= d
                    }
                    _ => false,
                }
            }
        }
    }

    /// Drop records that fell out of the window bound.
    fn trim(&mut self) {
        let buf = &mut self.state.buf;
        match self.cfg.window {
            WindowSpec::Count(w) => {
                while buf.len() > w {
                    buf.pop_front();
                }
            }
            WindowSpec::Duration(d) => {
                // Send times can be non-monotonic on faulted streams;
                // saturating age keeps such records instead of panicking.
                let newest = match buf.back() {
                    Some(r) => r.stamp.sent_at,
                    None => return,
                };
                while let Some(front) = buf.front() {
                    if newest.saturating_since(front.stamp.sent_at) > d {
                        buf.pop_front();
                    } else {
                        break;
                    }
                }
            }
        }
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
        if self.inject_panics > 0 {
            self.inject_panics -= 1;
            panic!("injected evaluation fault");
        }
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
            dcl_metrics::counter("stream.windows.warm", 1);
        }
        let ctx = ProvCtx {
            path: self.state.path,
            window: Some(window_index as u64),
            first_seq: Some(first_seq),
            last_seq: Some(last_seq),
        };
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
        if self.cfg.supervise {
            let outcome = match &result {
                Ok(report) if report.provenance.degraded => WindowOutcome::Degraded,
                Ok(report) if report.provenance.guard_trips > 0 => WindowOutcome::GuardTrips,
                Ok(_) => WindowOutcome::Clean,
                Err(_) => WindowOutcome::Error,
            };
            if let Some(t) = self.state.supervisor.observe(outcome) {
                self.record_health_transition(&t, window_index as u64);
            }
        }
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
    fn duration_window_drops_old_records() {
        let trace = lossless_trace(100);
        let cfg = StreamConfig {
            // 20 ms spacing: a 500 ms window holds ~26 records.
            window: WindowSpec::Duration(Dur::from_millis(500.0)),
            hop: 25,
            ..StreamConfig::default()
        };
        let updates = StreamingIdentifier::run_trace(&trace, cfg);
        // The hop boundary at ingested = 25 has only covered 480 ms of
        // send time — below the 500 ms window — so the first evaluation
        // waits for the boundary at 50. Evaluations at 50, 75, 100.
        assert_eq!(updates.len(), 3);
        for u in &updates {
            assert!(u.window_len <= 26, "window too large: {}", u.window_len);
        }
        assert_eq!(updates[2].last_seq, 99);
        assert!(updates[2].first_seq >= 74);
    }

    #[test]
    fn duration_window_first_evaluation_waits_for_coverage() {
        // 20 ms spacing and a 500 ms window: coverage is reached at
        // record index 25 (sent_at 500 ms). With hop = 10 the boundaries
        // at 10 and 20 records are early; the first evaluation must land
        // at 30 with a full-duration window behind it.
        let trace = lossless_trace(60);
        let cfg = StreamConfig {
            window: WindowSpec::Duration(Dur::from_millis(500.0)),
            hop: 10,
            ..StreamConfig::default()
        };
        let updates = StreamingIdentifier::run_trace(&trace, cfg);
        assert_eq!(updates.len(), 4); // at 30, 40, 50, 60
        assert_eq!(updates[0].last_seq, 29);
        // Every evaluated window spans (close to) the full duration —
        // no barely-started windows sneak through.
        for u in &updates {
            assert!(u.window_len >= 25, "undersized window: {}", u.window_len);
        }
        // Chunked ingest sees the identical evaluation points.
        let mut chunked = StreamingIdentifier::new(cfg, trace.base_delay, trace.interval);
        let mut chunk_updates = Vec::new();
        for chunk in trace.records.chunks(13) {
            chunk_updates.extend(chunked.push_chunk(chunk));
        }
        chunk_updates.extend(chunked.flush());
        assert_eq!(chunk_updates.len(), updates.len());
        for (a, b) in updates.iter().zip(&chunk_updates) {
            assert_eq!((a.first_seq, a.last_seq), (b.first_seq, b.last_seq));
        }
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
    fn transition_tags_are_stable() {
        assert_eq!(Transition::DclAppeared.tag(), "dcl-appeared");
        assert_eq!(Transition::DclMoved.tag(), "dcl-moved");
        assert_eq!(Transition::DclCleared.tag(), "dcl-cleared");
        assert_eq!(Transition::DclUnchanged.tag(), "dcl-unchanged");
    }
}
