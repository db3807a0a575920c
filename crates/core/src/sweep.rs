//! Probing-duration sweeps (§VI-A4 / §VI-B3 of the paper).
//!
//! The paper studies how long the probing needs to run for reliable
//! identification by re-running the method on random sub-segments of a
//! long trace (Figs. 9 and 14). This module provides that protocol as a
//! reusable API: the experiment binaries and downstream users (e.g.
//! "how long must I probe this path?") share one implementation.

use crate::identify::{identify, IdentifyConfig, Verdict};
use dcl_netsim::trace::ProbeTrace;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of a duration sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Segment durations to evaluate, in seconds.
    pub durations_secs: Vec<f64>,
    /// Random segments per duration.
    pub repetitions: usize,
    /// RNG seed for segment selection. Every `(duration, repetition)` cell
    /// derives its own segment-start RNG from this seed and its cell
    /// index, so the sweep result does not depend on evaluation order.
    pub seed: u64,
    /// Identification configuration applied to every segment.
    pub identify: IdentifyConfig,
    /// Worker threads across the `(duration, repetition)` cells. `None`
    /// (the default) resolves from the `DCL_PARALLELISM` /
    /// `RAYON_NUM_THREADS` environment variables or the available cores;
    /// `Some(1)` pins the exact serial path. The sweep result is bitwise
    /// identical at every setting.
    pub parallelism: Option<usize>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            durations_secs: vec![20.0, 40.0, 80.0, 160.0, 250.0, 400.0],
            repetitions: 40,
            seed: 0x5EED,
            identify: IdentifyConfig {
                estimate_bound: false,
                ..IdentifyConfig::default()
            },
            parallelism: None,
        }
    }
}

/// Result for one duration. `==` compares the floats by their bits.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Segment duration in seconds.
    pub duration_secs: f64,
    /// Fraction of segments whose verdict matched the reference.
    pub match_ratio: f64,
    /// 95 % Wilson confidence interval on `match_ratio`.
    pub match_ci: (f64, f64),
    /// Fraction of segments that were unusable (no losses).
    pub unusable_ratio: f64,
    /// Segments evaluated.
    pub repetitions: usize,
}

impl PartialEq for SweepPoint {
    fn eq(&self, other: &Self) -> bool {
        let SweepPoint {
            duration_secs,
            match_ratio,
            match_ci,
            unusable_ratio,
            repetitions,
        } = self;
        duration_secs.to_bits() == other.duration_secs.to_bits()
            && match_ratio.to_bits() == other.match_ratio.to_bits()
            && match_ci.0.to_bits() == other.match_ci.0.to_bits()
            && match_ci.1.to_bits() == other.match_ci.1.to_bits()
            && unusable_ratio.to_bits() == other.unusable_ratio.to_bits()
            && *repetitions == other.repetitions
    }
}

/// Outcome of a sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepResult {
    /// Did the *reference* (full-trace) identification find a dominant
    /// congested link?
    pub reference_dominant: bool,
    /// One point per requested duration (skipping durations longer than
    /// the trace).
    pub points: Vec<SweepPoint>,
}

impl SweepResult {
    /// Per point, the fraction of segments whose verdict ("dominant" or
    /// not) equals `expect_dominant`, e.g. a scenario's ground truth:
    /// `match_ratio` where the reference verdict agrees with
    /// `expect_dominant`, `1 − match_ratio` where it does not. This is
    /// exact because every segment either matches the reference or says
    /// the opposite; an unusable segment says "no dominant link".
    pub fn agreement(&self, expect_dominant: bool) -> Vec<f64> {
        self.points
            .iter()
            .map(|p| {
                if expect_dominant == self.reference_dominant {
                    p.match_ratio
                } else {
                    1.0 - p.match_ratio
                }
            })
            .collect()
    }
}

/// Run the sub-segment protocol: identify the full trace as the reference,
/// then measure, for each duration, how often a random segment of that
/// length reproduces the reference verdict. Segments without losses count
/// as "no dominant link" (there is no evidence of one), exactly as an
/// operator would treat them.
///
/// Every `(duration, repetition)` cell is independent — it draws its
/// segment start from a per-cell RNG seeded by `cfg.seed` and the cell
/// index — so the cells run on [`SweepConfig::parallelism`] worker threads
/// and the result is bitwise identical at every thread count.
///
/// Returns `None` if the full trace itself is unusable.
pub fn duration_sweep(trace: &ProbeTrace, cfg: &SweepConfig) -> Option<SweepResult> {
    let reference = identify(trace, &cfg.identify).ok()?;
    let reference_dominant = reference.verdict != Verdict::NoDominant;

    // Durations that fit in the trace, with their segment lengths.
    let durations: Vec<(f64, usize)> = cfg
        .durations_secs
        .iter()
        .filter_map(|&dur| {
            let probes = (dur / trace.interval.as_secs()).round() as usize;
            (probes > 0 && probes < trace.len()).then_some((dur, probes))
        })
        .collect();

    // One work item per (duration, repetition) cell; `(dominant, unusable)`
    // outcomes come back in cell order.
    let cells = durations.len() * cfg.repetitions;
    let outcomes = dcl_parallel::par_map_indexed(cfg.parallelism, cells, |cell| {
        let _span = dcl_metrics::span("sweep.cell");
        dcl_metrics::counter("sweep.cells", 1);
        let (_, probes) = durations[cell / cfg.repetitions];
        let cell_seed = dcl_parallel::mix64(cfg.seed ^ dcl_parallel::mix64(cell as u64));
        let mut rng = SmallRng::seed_from_u64(cell_seed);
        let start = rng.gen_range(0..trace.len() - probes);
        let segment = trace.segment(start, probes);
        match identify(&segment, &cfg.identify) {
            Ok(r) => (r.verdict != Verdict::NoDominant, false),
            Err(_) => {
                dcl_metrics::counter("sweep.unusable", 1);
                (false, true)
            }
        }
    });

    let points = durations
        .iter()
        .enumerate()
        .map(|(d, &(dur, _))| {
            let slice = &outcomes[d * cfg.repetitions..(d + 1) * cfg.repetitions];
            let matches = slice
                .iter()
                .filter(|&&(dominant, _)| dominant == reference_dominant)
                .count();
            let unusable = slice.iter().filter(|&&(_, u)| u).count();
            SweepPoint {
                duration_secs: dur,
                match_ratio: matches as f64 / cfg.repetitions as f64,
                match_ci: dcl_probnum::stats::wilson_interval(
                    matches as u64,
                    cfg.repetitions as u64,
                ),
                unusable_ratio: unusable as f64 / cfg.repetitions as f64,
                repetitions: cfg.repetitions,
            }
        })
        .collect();
    Some(SweepResult {
        reference_dominant,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcl_netsim::packet::ProbeStamp;
    use dcl_netsim::sim::ProbeRecord;
    use dcl_netsim::time::{Dur, Time};

    /// Deterministic trace with a dominant congested link pattern (losses
    /// inside high-delay bursts).
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

    #[test]
    fn longer_segments_match_at_least_as_often() {
        let trace = dominant_trace(12_000); // 240 s
        let cfg = SweepConfig {
            durations_secs: vec![10.0, 60.0, 120.0],
            repetitions: 8,
            ..SweepConfig::default()
        };
        let result = duration_sweep(&trace, &cfg).expect("usable trace");
        assert!(result.reference_dominant);
        assert_eq!(result.points.len(), 3);
        let last = result.points.last().unwrap();
        assert!(
            last.match_ratio >= 0.9,
            "long segments must be reliable: {last:?}"
        );
    }

    #[test]
    fn oversized_durations_are_skipped() {
        let trace = dominant_trace(1_000); // 20 s
        let cfg = SweepConfig {
            durations_secs: vec![5.0, 500.0],
            repetitions: 4,
            ..SweepConfig::default()
        };
        let result = duration_sweep(&trace, &cfg).unwrap();
        assert_eq!(result.points.len(), 1);
        assert_eq!(result.points[0].duration_secs, 5.0);
    }

    #[test]
    fn agreement_flips_only_when_expectation_and_reference_differ() {
        let point = SweepPoint {
            duration_secs: 40.0,
            match_ratio: 0.75,
            match_ci: (0.5, 0.9),
            unusable_ratio: 0.0,
            repetitions: 8,
        };
        for reference_dominant in [false, true] {
            let result = SweepResult {
                reference_dominant,
                points: vec![point.clone()],
            };
            assert_eq!(result.agreement(reference_dominant), vec![0.75]);
            assert_eq!(result.agreement(!reference_dominant), vec![0.25]);
        }
    }

    #[test]
    fn unusable_full_trace_returns_none() {
        let mut trace = dominant_trace(500);
        trace.records.retain(|r| r.delivered());
        assert!(duration_sweep(&trace, &SweepConfig::default()).is_none());
    }
}
