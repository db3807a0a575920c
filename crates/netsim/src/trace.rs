//! Probe traces: the measurement data the identification method consumes.
//!
//! A [`ProbeTrace`] is the sequence of per-probe outcomes (one-way delay or
//! loss) in sending order, together with the path's delay floor. It also
//! retains the simulator's ground truth (per-link waits, loss hop, virtual
//! queuing delay) so estimators can be validated against the "ns virtual"
//! distribution exactly as the paper does.

use crate::sim::{ProbeRecord, Simulator};
use crate::time::{Dur, Time};
use serde::{Deserialize, Serialize};

/// Counts of the repairs [`ProbeTrace::sanitized`] applied. All zero on a
/// well-formed trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceSanitation {
    /// Records found out of sequence order (and re-sorted).
    pub out_of_order: usize,
    /// Duplicate sequence numbers dropped (the first occurrence in sorted
    /// order is kept).
    pub duplicates: usize,
    /// Corrupt records dropped: a delivered probe whose recorded arrival
    /// precedes its send time by more than can be explained as clock noise
    /// is inconsistent, not measurement.
    pub corrupt: usize,
}

impl TraceSanitation {
    /// Records removed from the trace (duplicates plus corrupt).
    pub fn dropped(&self) -> usize {
        self.duplicates + self.corrupt
    }
}

/// A probe trace in sending order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProbeTrace {
    /// Per-probe records, sorted by sequence number.
    pub records: Vec<ProbeRecord>,
    /// The known delay floor of the path (propagation plus probe
    /// transmission times). When treated as unknown, estimators use the
    /// minimum observed one-way delay instead (§V-A).
    pub base_delay: Dur,
    /// Probe spacing.
    pub interval: Dur,
}

impl ProbeTrace {
    /// Build a trace from externally measured one-way delays — the entry
    /// point for running the identification method on *real* measurement
    /// data rather than simulator output. `owds[i]` is the one-way delay of
    /// the `i`-th probe (sent at `i * interval`), or `None` if it was lost.
    /// Ground-truth fields (per-link waits, loss hops) are left empty; only
    /// estimators that need them (the simulator ground truth) will decline.
    pub fn from_owd_series(
        interval: Dur,
        base_delay: Dur,
        owds: impl IntoIterator<Item = Option<Dur>>,
    ) -> ProbeTrace {
        let records = owds
            .into_iter()
            .enumerate()
            .map(|(i, owd)| {
                let sent = Time::ZERO + interval * i as u64;
                let mut stamp = crate::packet::ProbeStamp::new(i as u64, None, sent);
                if owd.is_none() {
                    stamp.loss_hop = Some(crate::packet::LOSS_HOP_UNKNOWN);
                }
                ProbeRecord {
                    stamp,
                    arrival: owd.map(|d| sent + d),
                }
            })
            .collect();
        ProbeTrace {
            records,
            base_delay,
            interval,
        }
    }

    /// Extract the trace accumulated in `sim`'s probe log.
    pub fn from_sim(sim: &Simulator, base_delay: Dur, interval: Dur) -> Self {
        let mut records: Vec<ProbeRecord> = sim.network().probe_log().to_vec();
        records.sort_by_key(|r| r.stamp.seq);
        ProbeTrace {
            records,
            base_delay,
            interval,
        }
    }

    /// Repair a possibly malformed trace: drop corrupt records (arrival
    /// before sending), restore sequence order, and drop duplicate
    /// sequence numbers. Returns the repaired trace and the counts of what
    /// was fixed, so callers can surface the repairs as warnings. A
    /// well-formed trace comes back bitwise identical with a clean
    /// [`TraceSanitation`].
    pub fn sanitized(&self) -> (ProbeTrace, TraceSanitation) {
        let mut san = TraceSanitation::default();
        let mut records: Vec<ProbeRecord> = Vec::with_capacity(self.records.len());
        for r in &self.records {
            if matches!(r.arrival, Some(a) if a < r.stamp.sent_at) {
                san.corrupt += 1;
            } else {
                records.push(r.clone());
            }
        }
        let mut max_seq: Option<u64> = None;
        for r in &records {
            match max_seq {
                Some(m) if r.stamp.seq < m => san.out_of_order += 1,
                _ => max_seq = Some(r.stamp.seq),
            }
        }
        if san.out_of_order > 0 {
            // Stable, so equal sequence numbers keep their relative order
            // and the later duplicate pass keeps the earliest record.
            records.sort_by_key(|r| r.stamp.seq);
        }
        let before = records.len();
        records.dedup_by_key(|r| r.stamp.seq);
        san.duplicates = before - records.len();
        (
            ProbeTrace {
                records,
                base_delay: self.base_delay,
                interval: self.interval,
            },
            san,
        )
    }

    /// Number of probes.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Is the trace empty?
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of lost probes.
    pub fn loss_count(&self) -> usize {
        self.records.iter().filter(|r| !r.delivered()).count()
    }

    /// Fraction of probes lost.
    pub fn loss_rate(&self) -> f64 {
        if self.records.is_empty() {
            0.0
        } else {
            self.loss_count() as f64 / self.records.len() as f64
        }
    }

    /// Minimum observed one-way delay (the unknown-propagation-delay
    /// estimate of the paper), or `None` if everything was lost.
    pub fn min_owd(&self) -> Option<Dur> {
        self.records.iter().filter_map(|r| r.owd()).min()
    }

    /// Maximum observed one-way delay.
    pub fn max_owd(&self) -> Option<Dur> {
        self.records.iter().filter_map(|r| r.owd()).max()
    }

    /// Ground-truth virtual queuing delays of the *lost* probes (what the
    /// paper plots as "ns virtual").
    pub fn ground_truth_virtual_delays(&self) -> Vec<Dur> {
        self.records
            .iter()
            .filter(|r| !r.delivered())
            .map(|r| r.stamp.virtual_queuing_delay())
            .collect()
    }

    /// Observed queuing delays (one-way delay minus the delay floor) of
    /// delivered probes — the paper's "observed" distribution in Fig. 5.
    pub fn observed_queuing_delays(&self) -> Vec<Dur> {
        let floor = self.base_delay;
        self.records
            .iter()
            .filter_map(|r| r.owd())
            .map(|d| d.saturating_sub_floor(floor))
            .collect()
    }

    /// Sub-trace of `count` consecutive probes starting at index `start`
    /// (clamped to the trace end).
    pub fn segment(&self, start: usize, count: usize) -> ProbeTrace {
        let end = (start + count).min(self.records.len());
        ProbeTrace {
            records: self.records[start.min(end)..end].to_vec(),
            base_delay: self.base_delay,
            interval: self.interval,
        }
    }

    /// For each lost probe: the hop it was dropped at and the queue drain
    /// time it recorded there — the "actual maximum queuing delay" a full
    /// queue imposed at the loss instant (ground truth for Tables II-III).
    pub fn loss_drains(&self) -> Vec<(usize, Dur)> {
        self.records
            .iter()
            .filter_map(|r| {
                let hop = r.stamp.known_loss_hop()?;
                let drain = r.stamp.link_waits.get(hop).copied()?;
                Some((hop, drain))
            })
            .collect()
    }

    /// Per-hop loss share: for each hop index of the probe route, the
    /// fraction of lost probes that were dropped there (ground truth).
    pub fn loss_share_by_hop(&self, num_hops: usize) -> Vec<f64> {
        let mut counts = vec![0usize; num_hops];
        let mut total = 0usize;
        for r in &self.records {
            if r.stamp.lost() {
                // Losses at an unknown hop count toward the total but
                // cannot be attributed to any hop.
                if let Some(h) = r.stamp.known_loss_hop() {
                    if h < num_hops {
                        counts[h] += 1;
                    }
                }
                total += 1;
            }
        }
        if total == 0 {
            return vec![0.0; num_hops];
        }
        counts
            .into_iter()
            .map(|c| c as f64 / total as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::ProbeStamp;

    fn rec(
        seq: u64,
        sent_s: f64,
        owd_ms: Option<f64>,
        vqd_ms: f64,
        loss_hop: Option<usize>,
    ) -> ProbeRecord {
        let sent = Time::from_secs(sent_s);
        let mut stamp = ProbeStamp::new(seq, None, sent);
        stamp.loss_hop = loss_hop;
        stamp.link_waits = vec![Dur::from_millis(vqd_ms)];
        ProbeRecord {
            stamp,
            arrival: owd_ms.map(|ms| sent + Dur::from_millis(ms)),
        }
    }

    fn trace() -> ProbeTrace {
        ProbeTrace {
            records: vec![
                rec(0, 0.00, Some(30.0), 10.0, None),
                rec(1, 0.02, None, 160.0, Some(1)),
                rec(2, 0.04, Some(50.0), 30.0, None),
                rec(3, 0.06, None, 170.0, Some(2)),
                rec(4, 0.08, Some(25.0), 5.0, None),
            ],
            base_delay: Dur::from_millis(20.0),
            interval: Dur::from_millis(20.0),
        }
    }

    #[test]
    fn loss_accounting() {
        let t = trace();
        assert_eq!(t.len(), 5);
        assert_eq!(t.loss_count(), 2);
        assert!((t.loss_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn owd_extremes() {
        let t = trace();
        assert_eq!(t.min_owd(), Some(Dur::from_millis(25.0)));
        assert_eq!(t.max_owd(), Some(Dur::from_millis(50.0)));
    }

    #[test]
    fn ground_truth_virtual_delays_are_lost_probes_only() {
        let t = trace();
        assert_eq!(
            t.ground_truth_virtual_delays(),
            vec![Dur::from_millis(160.0), Dur::from_millis(170.0)]
        );
    }

    #[test]
    fn observed_queuing_subtracts_floor() {
        let t = trace();
        assert_eq!(
            t.observed_queuing_delays(),
            vec![
                Dur::from_millis(10.0),
                Dur::from_millis(30.0),
                Dur::from_millis(5.0)
            ]
        );
    }

    #[test]
    fn segment_clamps() {
        let t = trace();
        assert_eq!(t.segment(3, 100).len(), 2);
        assert_eq!(t.segment(10, 5).len(), 0);
    }

    #[test]
    fn from_owd_series_builds_importable_traces() {
        let t = ProbeTrace::from_owd_series(
            Dur::from_millis(20.0),
            Dur::from_millis(15.0),
            vec![
                Some(Dur::from_millis(25.0)),
                None,
                Some(Dur::from_millis(90.0)),
            ],
        );
        assert_eq!(t.len(), 3);
        assert_eq!(t.loss_count(), 1);
        assert_eq!(t.records[2].stamp.sent_at, Time::from_millis(40.0));
        assert_eq!(t.min_owd(), Some(Dur::from_millis(25.0)));
        // No ground truth: virtual delays of losses are empty sums.
        assert_eq!(t.ground_truth_virtual_delays(), vec![Dur::ZERO]);
    }

    #[test]
    fn sanitized_is_identity_on_clean_traces() {
        let t = trace();
        let (clean, san) = t.sanitized();
        assert_eq!(san, TraceSanitation::default());
        assert_eq!(san.dropped(), 0);
        assert_eq!(clean.len(), t.len());
        for (a, b) in clean.records.iter().zip(&t.records) {
            assert_eq!(a.stamp.seq, b.stamp.seq);
            assert_eq!(a.arrival, b.arrival);
        }
    }

    #[test]
    fn sanitized_repairs_reorder_duplicates_and_corruption() {
        let mut t = trace();
        // Swap two records out of order, duplicate one, and corrupt one
        // (arrival before sending).
        t.records.swap(0, 2);
        t.records.push(t.records[1].clone());
        let mut bad = rec(9, 1.0, Some(10.0), 0.0, None);
        bad.arrival = Some(Time::from_secs(0.5));
        t.records.push(bad);
        let (clean, san) = t.sanitized();
        assert_eq!(san.corrupt, 1);
        assert_eq!(san.duplicates, 1);
        assert!(san.out_of_order > 0);
        let seqs: Vec<u64> = clean.records.iter().map(|r| r.stamp.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn unknown_loss_hop_is_not_attributed() {
        let t = ProbeTrace::from_owd_series(
            Dur::from_millis(20.0),
            Dur::from_millis(15.0),
            vec![Some(Dur::from_millis(25.0)), None],
        );
        assert!(t.records[1].stamp.lost());
        assert_eq!(t.records[1].stamp.known_loss_hop(), None);
        assert!(t.loss_drains().is_empty());
        // The unknown-hop loss still counts toward the total, so no hop
        // reaches a positive share.
        assert_eq!(t.loss_share_by_hop(2), vec![0.0, 0.0]);
    }

    #[test]
    fn waits_and_drains_extract_ground_truth() {
        let t = trace();
        let drains = t.loss_drains();
        // Loss hops are 1 and 2 but link_waits only has index 0 -> none
        // resolvable in this synthetic trace.
        assert!(drains.is_empty());
    }

    #[test]
    fn loss_share_by_hop_sums_to_one() {
        let t = trace();
        let share = t.loss_share_by_hop(3);
        assert_eq!(share, vec![0.0, 0.5, 0.5]);
    }
}
