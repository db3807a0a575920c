//! Fleet-scale identification: the single-path pipeline run over many
//! paths at once.
//!
//! An operator monitoring a mesh of probe streams — every branch office
//! to every data centre, say — has not one [`ProbeTrace`] but thousands.
//! [`Fleet`] owns the traces and decides all of them in one call:
//!
//! * every path is one item of the deterministic
//!   [`dcl_parallel::par_map_indexed`] pool, so per-path verdicts, the
//!   `dcl-metrics` event stream and registry are bitwise
//!   identical at any parallelism;
//! * each path runs the single-path pipeline
//!   ([`dcl_core::identify_path`]), so every path's report is bitwise
//!   identical to running [`dcl_core::identify()`] on that trace alone.
//!
//! [`StreamingFleet`] is the online variant: one
//! [`StreamingIdentifier`] per path, each path again one pool item.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dcl_core::identify::{identify_path, Identification, IdentifyConfig, IdentifyError, Verdict};
use dcl_core::stream::{
    CheckpointError, StreamConfig, StreamUpdate, StreamingCheckpoint, StreamingIdentifier,
    CHECKPOINT_VERSION,
};
use dcl_netsim::sim::ProbeRecord;
use dcl_netsim::time::Dur;
use dcl_netsim::trace::ProbeTrace;
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// Configuration of a [`Fleet`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetConfig {
    /// Per-path pipeline configuration. The fleet pins the *inner* EM
    /// parallelism to `Some(1)` (restart-level threads would fight the
    /// path-level pool); fits are bitwise identical at every thread
    /// setting, so this is invisible in the results.
    pub identify: IdentifyConfig,
    /// Worker threads for the path pool. `None` resolves from the
    /// environment exactly as [`dcl_parallel::effective_threads`].
    pub parallelism: Option<usize>,
}

/// One path's outcome in a [`FleetReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct PathVerdict {
    /// Index of the path in insertion order.
    pub path: usize,
    /// Caller-supplied label (e.g. the probe pair's endpoints).
    pub label: String,
    /// The per-path identification report, or the typed reason this
    /// path could not support one.
    pub result: Result<Identification, IdentifyError>,
}

/// Aggregate verdict counts over a fleet run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetSummary {
    /// Paths decided (including unidentifiable ones).
    pub paths: usize,
    /// Paths with a strongly dominant congested link.
    pub strongly_dominant: usize,
    /// Paths with a weakly dominant congested link.
    pub weakly_dominant: usize,
    /// Paths where both tests rejected.
    pub no_dominant: usize,
    /// Paths whose trace could not support a verdict (no losses, too
    /// few probes, inconsistent records, failed fit, ...).
    pub unidentifiable: usize,
}

/// Result of [`Fleet::identify_all`]: per-path verdicts in insertion
/// order plus the aggregate tally.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// One entry per path, in insertion order.
    pub verdicts: Vec<PathVerdict>,
    /// Aggregate verdict counts.
    pub summary: FleetSummary,
}

/// A set of probe traces decided together. See the [module docs](self).
#[derive(Debug)]
pub struct Fleet {
    cfg: FleetConfig,
    labels: Vec<String>,
    traces: Vec<ProbeTrace>,
}

impl Fleet {
    /// An empty fleet.
    pub fn new(cfg: FleetConfig) -> Fleet {
        Fleet {
            cfg,
            labels: Vec::new(),
            traces: Vec::new(),
        }
    }

    /// Add a path's trace; returns its index.
    pub fn push(&mut self, label: impl Into<String>, trace: ProbeTrace) -> usize {
        self.labels.push(label.into());
        self.traces.push(trace);
        self.traces.len() - 1
    }

    /// Paths in the fleet.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Is the fleet empty?
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// The configuration this fleet runs with.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Decide every path. Paths run in parallel (see
    /// [`FleetConfig::parallelism`]); results, events and metrics are
    /// bitwise identical at every thread count, and each path's report
    /// is bitwise identical to a scalar [`dcl_core::identify()`] call.
    pub fn identify_all(&self) -> FleetReport {
        let _span = dcl_metrics::span("fleet.identify");
        let inner = IdentifyConfig {
            parallelism: Some(1),
            ..self.cfg.identify
        };
        let results = dcl_parallel::par_map_indexed(self.cfg.parallelism, self.traces.len(), |p| {
            identify_path(&self.traces[p], &inner, p as u64)
        });
        let mut verdicts = Vec::with_capacity(results.len());
        let mut summary = FleetSummary::default();
        for (path, result) in results.into_iter().enumerate() {
            summary.paths += 1;
            match &result {
                Ok(r) => match r.verdict {
                    Verdict::StronglyDominant => summary.strongly_dominant += 1,
                    Verdict::WeaklyDominant => summary.weakly_dominant += 1,
                    Verdict::NoDominant => summary.no_dominant += 1,
                },
                Err(e) => {
                    summary.unidentifiable += 1;
                    count_error(e);
                }
            }
            verdicts.push(PathVerdict {
                path,
                label: self.labels[path].clone(),
                result,
            });
        }
        dcl_metrics::counter("fleet.paths", summary.paths as u64);
        dcl_metrics::counter(
            "fleet.verdicts.strongly_dominant",
            summary.strongly_dominant as u64,
        );
        dcl_metrics::counter(
            "fleet.verdicts.weakly_dominant",
            summary.weakly_dominant as u64,
        );
        dcl_metrics::counter("fleet.verdicts.no_dominant", summary.no_dominant as u64);
        dcl_metrics::counter(
            "fleet.verdicts.unidentifiable",
            summary.unidentifiable as u64,
        );
        FleetReport { verdicts, summary }
    }
}

/// Count one typed per-path failure in the `fleet.errors.*` family.
fn count_error(e: &IdentifyError) {
    dcl_metrics::counter_with(|| (format!("fleet.errors.{}", e.tag()), 1));
}

/// Many [`StreamingIdentifier`]s driven together: one engine per path,
/// each path one item of the deterministic pool. Updates, events and
/// metrics are bitwise identical at any thread count and identical to
/// driving each engine alone.
#[derive(Debug)]
pub struct StreamingFleet {
    parallelism: Option<usize>,
    engines: Vec<StreamingIdentifier>,
}

/// A path's engine configuration: the inner EM parallelism is pinned to
/// `Some(1)` (path-level threads own the parallelism; fits are bitwise
/// identical either way).
fn path_config(mut cfg: StreamConfig) -> StreamConfig {
    cfg.identify.parallelism = Some(1);
    cfg
}

impl StreamingFleet {
    /// An empty streaming fleet whose path pool runs on `parallelism`
    /// worker threads (resolved as [`dcl_parallel::effective_threads`]).
    pub fn new(parallelism: Option<usize>) -> StreamingFleet {
        StreamingFleet {
            parallelism,
            engines: Vec::new(),
        }
    }

    /// Add a path's streaming engine; returns its index.
    pub fn add_path(&mut self, cfg: StreamConfig, base_delay: Dur, interval: Dur) -> usize {
        let path = self.engines.len();
        self.engines.push(
            StreamingIdentifier::new(path_config(cfg), base_delay, interval).with_path(path as u64),
        );
        path
    }

    /// Paths in the fleet.
    pub fn num_paths(&self) -> usize {
        self.engines.len()
    }

    /// Ingest one round of per-path chunks — `chunks[p]` is appended to
    /// path `p`'s stream (empty slices are fine) — and return each
    /// path's window evaluations, in path order. Paths run in parallel;
    /// the outcome is identical to calling
    /// [`StreamingIdentifier::push_chunk`] per path in order.
    ///
    /// # Panics
    /// If `chunks.len()` differs from [`StreamingFleet::num_paths`].
    pub fn ingest_round(&mut self, chunks: &[&[ProbeRecord]]) -> Vec<Vec<StreamUpdate>> {
        assert_eq!(
            chunks.len(),
            self.engines.len(),
            "one chunk per path (use an empty slice for idle paths)"
        );
        if self.engines.is_empty() {
            return Vec::new();
        }
        let _span = dcl_metrics::span("fleet.stream.round");
        dcl_metrics::counter("fleet.stream.rounds", 1);
        self.each_path(|p, e| {
            chunks[p]
                .iter()
                .filter_map(|r| contained(|| e.push(r.clone())))
                .collect()
        })
    }

    /// Flush every path's tail window (see
    /// [`StreamingIdentifier::flush`]), paths in parallel.
    pub fn flush_all(&mut self) -> Vec<Option<StreamUpdate>> {
        self.each_path(|_, e| contained(|| e.flush()).into_iter().collect())
            .into_iter()
            .map(|updates| updates.into_iter().next())
            .collect()
    }

    /// The per-path step of [`StreamingFleet::ingest_round`] and
    /// [`StreamingFleet::flush_all`]: run `step` on every engine, one
    /// pool item per path, and tally the typed window failures.
    fn each_path(
        &mut self,
        step: impl Fn(usize, &mut StreamingIdentifier) -> Vec<StreamUpdate> + Sync,
    ) -> Vec<Vec<StreamUpdate>> {
        // Each pool item locks only its own path's cell, and a contained
        // panic unwinds no further than its record, so no cell is
        // poisoned.
        let cells: Vec<Mutex<StreamingIdentifier>> = std::mem::take(&mut self.engines)
            .into_iter()
            .map(Mutex::new)
            .collect();
        let out = dcl_parallel::par_map_indexed(self.parallelism, cells.len(), |p| {
            let mut engine = cells[p].lock().expect("path cell is never poisoned");
            let updates = step(p, &mut engine);
            for u in &updates {
                if let Err(err) = &u.result {
                    count_error(err);
                }
            }
            updates
        });
        self.engines = cells
            .into_iter()
            .map(|c| c.into_inner().expect("path cell is never poisoned"))
            .collect();
        out
    }

    /// Snapshot every path's engine. Checkpointing is silent (no events,
    /// no counters) and read-only: a fleet that checkpoints, then keeps
    /// running, behaves bitwise identically to one that never did.
    pub fn checkpoint_all(&self) -> FleetCheckpoint {
        FleetCheckpoint {
            version: CHECKPOINT_VERSION,
            paths: self.engines.iter().map(|e| e.checkpoint()).collect(),
        }
    }

    /// Rebuild a fleet from [`StreamingFleet::checkpoint_all`] output.
    ///
    /// `cfg` is re-supplied by the caller exactly as for
    /// [`StreamingIdentifier::restore`] (configuration is code, not
    /// state); the restored fleet, driven with the remaining chunks,
    /// produces updates, events and metrics bitwise identical to the
    /// uninterrupted run at any thread count.
    pub fn restore_all(
        parallelism: Option<usize>,
        cfg: StreamConfig,
        ck: FleetCheckpoint,
    ) -> Result<StreamingFleet, CheckpointError> {
        if ck.version != CHECKPOINT_VERSION {
            return Err(CheckpointError::VersionMismatch {
                found: ck.version,
                expected: CHECKPOINT_VERSION,
            });
        }
        let engines = ck
            .paths
            .into_iter()
            .map(|p| StreamingIdentifier::restore(path_config(cfg), p))
            .collect::<Result<_, _>>()?;
        Ok(StreamingFleet {
            parallelism,
            engines,
        })
    }

    /// Borrow one path's engine (counters, checkpoint inspection).
    ///
    /// # Panics
    /// If `path` is out of range.
    pub fn engine(&self, path: usize) -> &StreamingIdentifier {
        &self.engines[path]
    }

    /// Mutable engine access for the test/bench fault hooks.
    pub fn engine_mut(&mut self, path: usize) -> &mut StreamingIdentifier {
        &mut self.engines[path]
    }
}

/// One engine step (a record's ingest or the tail flush) with a panic
/// contained: the panic is counted and the step yields no update. The
/// engine takes the window's index before its pipeline runs, so it
/// evaluates again at its next evaluation point, and the rest of the
/// path's chunk is still ingested.
fn contained(step: impl FnOnce() -> Option<StreamUpdate>) -> Option<StreamUpdate> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(step)).unwrap_or_else(|_| {
        dcl_metrics::counter("fleet.stream.panics", 1);
        None
    })
}

/// Serializable snapshot of a whole [`StreamingFleet`]: one
/// [`StreamingCheckpoint`] per path, in path order. Produced by
/// [`StreamingFleet::checkpoint_all`], consumed by
/// [`StreamingFleet::restore_all`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetCheckpoint {
    /// Checkpoint schema version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Engine snapshots, in path order.
    pub paths: Vec<StreamingCheckpoint>,
}

impl FleetCheckpoint {
    /// Paths captured in this checkpoint.
    pub fn num_paths(&self) -> usize {
        self.paths.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcl_core::identify::identify;
    use dcl_core::stream::WindowSpec;
    use dcl_netsim::packet::ProbeStamp;
    use dcl_netsim::time::Time;

    /// Synthetic dominant-congested-link trace (losses only inside
    /// high-delay bursts), offset so distinct paths differ.
    fn dominant_trace(n: usize, offset: u64) -> ProbeTrace {
        let mut records = Vec::with_capacity(n);
        for i in 0..n {
            let sent = Time::from_secs(i as f64 * 0.02);
            let phase = (i + offset as usize) % 25;
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

    /// Loss-free trace: every window/path errors cheaply, which makes
    /// the per-path mechanics fast to exercise.
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

    fn quick_cfg() -> FleetConfig {
        FleetConfig {
            identify: IdentifyConfig {
                restarts: 2,
                estimate_bound: false,
                ..IdentifyConfig::default()
            },
            parallelism: Some(1),
        }
    }

    #[test]
    fn fleet_matches_scalar_identify_per_path() {
        let traces = [
            dominant_trace(900, 0),
            lossless_trace(300),
            dominant_trace(900, 7),
        ];
        let cfg = quick_cfg();
        let mut fleet = Fleet::new(cfg);
        for (i, t) in traces.iter().enumerate() {
            fleet.push(format!("path-{i}"), t.clone());
        }
        let report = fleet.identify_all();
        assert_eq!(report.verdicts.len(), 3);
        assert_eq!(report.summary.paths, 3);
        assert_eq!(report.summary.unidentifiable, 1);
        for (i, t) in traces.iter().enumerate() {
            let scalar = identify(t, &cfg.identify);
            assert_eq!(report.verdicts[i].result, scalar, "path {i}");
            assert_eq!(report.verdicts[i].path, i);
            assert_eq!(report.verdicts[i].label, format!("path-{i}"));
        }
        let tally = report.summary.strongly_dominant
            + report.summary.weakly_dominant
            + report.summary.no_dominant
            + report.summary.unidentifiable;
        assert_eq!(tally, report.summary.paths);
    }

    #[test]
    fn empty_fleet_reports_nothing() {
        let fleet = Fleet::new(FleetConfig::default());
        assert!(fleet.is_empty());
        let report = fleet.identify_all();
        assert!(report.verdicts.is_empty());
        assert_eq!(report.summary, FleetSummary::default());
    }

    #[test]
    fn fleet_checkpoint_restore_continues_identically() {
        let traces = [lossless_trace(100), lossless_trace(90), lossless_trace(80)];
        let stream_cfg = StreamConfig {
            window: WindowSpec::Count(40),
            hop: 20,
            ..StreamConfig::default()
        };
        let build = |par: Option<usize>| {
            let mut fleet = StreamingFleet::new(par);
            for t in &traces {
                fleet.add_path(stream_cfg, t.base_delay, t.interval);
            }
            fleet
        };
        let round = |off: usize| -> Vec<Vec<ProbeRecord>> {
            traces
                .iter()
                .map(|t| {
                    let lo = off.min(t.records.len());
                    let hi = (off + 30).min(t.records.len());
                    t.records[lo..hi].to_vec()
                })
                .collect()
        };
        let drive = |fleet: &mut StreamingFleet, from: usize| -> Vec<Vec<StreamUpdate>> {
            let mut collected = vec![Vec::new(); traces.len()];
            let mut off = from;
            while traces.iter().any(|t| off < t.records.len()) {
                let owned = round(off);
                let chunks: Vec<&[ProbeRecord]> = owned.iter().map(Vec::as_slice).collect();
                for (p, ups) in fleet.ingest_round(&chunks).into_iter().enumerate() {
                    collected[p].extend(ups);
                }
                off += 30;
            }
            for (p, tail) in fleet.flush_all().into_iter().enumerate() {
                collected[p].extend(tail);
            }
            collected
        };

        // Uninterrupted reference run.
        let mut solo = build(Some(1));
        let want = drive(&mut solo, 0);

        // Twin: two rounds, checkpoint, drop the fleet, restore, finish.
        let mut fleet = build(Some(2));
        let mut got: Vec<Vec<StreamUpdate>> = vec![Vec::new(); traces.len()];
        for off in [0usize, 30] {
            let owned = round(off);
            let chunks: Vec<&[ProbeRecord]> = owned.iter().map(Vec::as_slice).collect();
            for (p, ups) in fleet.ingest_round(&chunks).into_iter().enumerate() {
                got[p].extend(ups);
            }
        }
        let ck = fleet.checkpoint_all();
        assert_eq!(ck.num_paths(), traces.len());
        drop(fleet);
        let mut restored = StreamingFleet::restore_all(Some(2), stream_cfg, ck)
            .expect("current-version checkpoint restores");
        for (p, ups) in drive(&mut restored, 60).into_iter().enumerate() {
            got[p].extend(ups);
        }

        for (p, (w, g)) in want.iter().zip(&got).enumerate() {
            assert_eq!(w.len(), g.len(), "path {p}");
            for (a, b) in w.iter().zip(g) {
                assert_eq!(a.window_index, b.window_index, "path {p}");
                assert_eq!(a.result, b.result, "path {p}");
            }
        }
    }

    #[test]
    fn restore_all_rejects_foreign_checkpoint_versions() {
        let mut fleet = StreamingFleet::new(Some(1));
        fleet.add_path(
            StreamConfig::default(),
            Dur::from_millis(20.0),
            Dur::from_millis(20.0),
        );
        let mut ck = fleet.checkpoint_all();
        ck.version += 1;
        assert!(StreamingFleet::restore_all(Some(1), StreamConfig::default(), ck).is_err());
    }

    #[test]
    fn panicking_path_is_contained() {
        let traces = [lossless_trace(80), lossless_trace(80)];
        let stream_cfg = StreamConfig {
            window: WindowSpec::Count(40),
            hop: 20,
            ..StreamConfig::default()
        };
        let build = || {
            let mut fleet = StreamingFleet::new(Some(2));
            for t in &traces {
                fleet.add_path(stream_cfg, t.base_delay, t.interval);
            }
            fleet.engine_mut(0).inject_eval_panics(1);
            fleet
        };
        // Silence the default panic hook while the injected fault fires;
        // the panic is expected and contained.
        let quietly = |f: &mut dyn FnMut()| {
            let hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            f();
            std::panic::set_hook(hook);
        };

        // One 70-record round: evaluation points at 40 and 60, and path
        // 0's first evaluation panics mid-chunk.
        let mut fleet = build();
        let mut first = Vec::new();
        quietly(&mut || {
            let chunks: Vec<&[ProbeRecord]> = traces.iter().map(|t| &t.records[..70]).collect();
            first = fleet.ingest_round(&chunks);
        });
        // The rest of the chunk is still ingested, and the panicking
        // path's later updates are a lone engine's, less the panicked
        // window.
        assert_eq!(fleet.engine(0).ingested(), 70);
        assert_eq!(fleet.engine(1).ingested(), 70);
        let t = &traces[0];
        let lone = StreamingIdentifier::new(stream_cfg, t.base_delay, t.interval)
            .push_chunk(&t.records[..70]);
        assert_eq!(lone.len(), 2);
        assert_eq!(first[0], lone[1..]);
        assert_eq!(first[1], lone);

        // The next round evaluates both paths alike.
        let chunks: Vec<&[ProbeRecord]> = traces.iter().map(|t| &t.records[70..80]).collect();
        let second = fleet.ingest_round(&chunks);
        assert_eq!(second[0].len(), 1);
        assert_eq!(second[0], second[1]);

        // A path whose first evaluation is the tail flush: the flush
        // contains its panic just as a round does, and the path
        // evaluates again at its next evaluation point.
        let mut fleet = build();
        let chunks: Vec<&[ProbeRecord]> = traces.iter().map(|t| &t.records[..30]).collect();
        assert!(fleet.ingest_round(&chunks).iter().all(Vec::is_empty));
        let mut tails = Vec::new();
        quietly(&mut || tails = fleet.flush_all());
        assert!(tails[0].is_none(), "panicked flush must yield no update");
        assert!(tails[1].is_some(), "the other path must flush its tail");
        let chunks: Vec<&[ProbeRecord]> = traces.iter().map(|t| &t.records[30..40]).collect();
        let next = fleet.ingest_round(&chunks);
        assert_eq!(next[0].len(), 1);
        assert_eq!(next[0], next[1]);
    }

    #[test]
    fn contained_panic_is_counted_and_leaves_a_restorable_fleet() {
        let traces = [lossless_trace(100), lossless_trace(100)];
        let stream_cfg = StreamConfig {
            window: WindowSpec::Count(40),
            hop: 20,
            ..StreamConfig::default()
        };
        let mut fleet = StreamingFleet::new(Some(2));
        for t in &traces {
            fleet.add_path(stream_cfg, t.base_delay, t.interval);
        }
        fleet.engine_mut(1).inject_eval_panics(1);
        let chunks: Vec<&[ProbeRecord]> = traces.iter().map(|t| &t.records[..50]).collect();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let (first, cap) = dcl_metrics::capture(|| fleet.ingest_round(&chunks));
        std::panic::set_hook(hook);
        assert_eq!(cap.metrics.counter("fleet.stream.panics"), 1);
        assert_eq!(cap.metrics.counter("fleet.errors.no-losses"), 1);
        assert_eq!((first[0].len(), first[1].len()), (1, 0));

        // Checkpointing after the contained panic and restoring continues
        // exactly as the fleet that kept running.
        let ck = fleet.checkpoint_all();
        let mut restored = StreamingFleet::restore_all(Some(2), stream_cfg, ck)
            .expect("current-version checkpoint restores");
        let chunks: Vec<&[ProbeRecord]> = traces.iter().map(|t| &t.records[50..]).collect();
        let want = fleet.ingest_round(&chunks);
        assert_eq!(restored.ingest_round(&chunks), want);
        assert_eq!(want[0], want[1], "both paths evaluate alike again");
        assert_eq!(restored.engine(1).windows_evaluated(), 4);
    }

    #[test]
    fn streaming_fleet_matches_individual_engines() {
        let traces = [lossless_trace(100), lossless_trace(90), lossless_trace(80)];
        let stream_cfg = StreamConfig {
            window: WindowSpec::Count(40),
            hop: 20,
            ..StreamConfig::default()
        };
        let mut fleet = StreamingFleet::new(Some(2));
        for t in &traces {
            fleet.add_path(stream_cfg, t.base_delay, t.interval);
        }
        // Drive in uneven rounds of 30 records per path.
        let mut collected: Vec<Vec<StreamUpdate>> = vec![Vec::new(); traces.len()];
        let mut off = 0;
        while traces.iter().any(|t| off < t.records.len()) {
            let chunks: Vec<&[ProbeRecord]> = traces
                .iter()
                .map(|t| {
                    let lo = off.min(t.records.len());
                    let hi = (off + 30).min(t.records.len());
                    &t.records[lo..hi]
                })
                .collect();
            for (p, ups) in fleet.ingest_round(&chunks).into_iter().enumerate() {
                collected[p].extend(ups);
            }
            off += 30;
        }
        for (p, tail) in fleet.flush_all().into_iter().enumerate() {
            collected[p].extend(tail);
        }
        for (p, t) in traces.iter().enumerate() {
            let solo = StreamingIdentifier::run_trace(t, stream_cfg);
            assert_eq!(collected[p].len(), solo.len(), "path {p}");
            for (a, b) in collected[p].iter().zip(&solo) {
                assert_eq!(a.window_index, b.window_index);
                assert_eq!(
                    (a.first_seq, a.last_seq, a.window_len),
                    (b.first_seq, b.last_seq, b.window_len)
                );
                assert_eq!(a.result, b.result);
            }
        }
    }
}
