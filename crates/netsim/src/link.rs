//! A unidirectional link: FIFO queue + transmitter.
//!
//! Each link models a droptail (or adaptive-RED) queue draining at the link
//! bandwidth, followed by a fixed propagation delay — exactly the per-hop
//! model of Section III of the paper. Probe packets have their waiting time
//! recorded as they start service; [`Link::backlog_delay`] is what a ghost
//! (virtual) probe samples when it passes through without occupying the
//! queue.

use crate::packet::{Packet, Payload};
use crate::queue::{BufferLimit, Discipline, RedVerdict};
use crate::time::{Dur, Time};
use dcl_metrics::Log2Hist;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Static configuration of a link.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Transmission rate in bits per second.
    pub bandwidth_bps: u64,
    /// Propagation delay.
    pub prop_delay: Dur,
    /// Queue capacity.
    pub buffer: BufferLimit,
    /// Queue discipline.
    pub discipline: Discipline,
    /// Nominal data-packet size, used to convert packet-count buffers to a
    /// maximum queuing delay.
    pub ref_packet_bytes: u32,
    /// Human-readable name for reports.
    pub name: String,
}

impl LinkConfig {
    /// Droptail link with a byte buffer (the common case in the paper).
    pub fn droptail(name: &str, bandwidth_bps: u64, prop_delay: Dur, buffer_bytes: u64) -> Self {
        LinkConfig {
            bandwidth_bps,
            prop_delay,
            buffer: BufferLimit::Bytes(buffer_bytes),
            discipline: Discipline::DropTail,
            ref_packet_bytes: 1000,
            name: name.to_owned(),
        }
    }
}

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropCause {
    /// Buffer overflow (droptail).
    Overflow,
    /// RED early/forced drop.
    Red,
}

/// Counters kept per link.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct LinkStats {
    /// Packets offered to the queue.
    pub arrivals: u64,
    /// Bytes offered to the queue.
    pub arrival_bytes: u64,
    /// Packets dropped by buffer overflow.
    pub drops_overflow: u64,
    /// Packets dropped by RED.
    pub drops_red: u64,
    /// Packets fully transmitted.
    pub tx_packets: u64,
    /// Bytes fully transmitted.
    pub tx_bytes: u64,
    /// Probe packets offered.
    pub probe_arrivals: u64,
    /// Probe packets dropped.
    pub probe_drops: u64,
    /// Time the transmitter has spent busy.
    pub busy: Dur,
    /// Queue occupancy (packets, including the one in service) at
    /// arrival. Only kept while the metrics registry records.
    pub occupancy: Log2Hist,
    /// Backlog (queuing) delay at arrival, in microseconds of simulated
    /// time; its `max` is the largest backlog any arrival saw. Only kept
    /// while the metrics registry records.
    pub backlog_us: Log2Hist,
}

impl LinkStats {
    /// Fraction of offered packets that were dropped.
    pub fn loss_rate(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            (self.drops_overflow + self.drops_red) as f64 / self.arrivals as f64
        }
    }

    /// Fraction of offered probe packets that were dropped.
    pub fn probe_loss_rate(&self) -> f64 {
        if self.probe_arrivals == 0 {
            0.0
        } else {
            self.probe_drops as f64 / self.probe_arrivals as f64
        }
    }

    /// Link utilisation over an observation window of `elapsed`, as a
    /// fraction in `[0, 1]`.
    ///
    /// The ratio is taken in integer nanoseconds and clamped: a zero
    /// window yields 0 (not NaN), and a window shorter than the
    /// accumulated busy time — a boundary probe-window query, or an
    /// `elapsed` that excludes part of the measurement — yields 1 rather
    /// than a nonsensical >1 "utilisation".
    pub fn utilization(&self, elapsed: Dur) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        let ratio = self.busy.as_nanos() as f64 / elapsed.as_nanos() as f64;
        ratio.clamp(0.0, 1.0)
    }
}

#[derive(Debug)]
struct Queued {
    pkt: Packet,
    arrived: Time,
}

#[derive(Debug)]
struct InService {
    pkt: Packet,
    finish: Time,
}

/// Runtime state of a link.
#[derive(Debug)]
pub struct Link {
    cfg: LinkConfig,
    queue: VecDeque<Queued>,
    q_bytes: u64,
    in_service: Option<InService>,
    stats: LinkStats,
}

/// Outcome of offering a packet to a link.
#[derive(Debug)]
pub enum EnqueueOutcome {
    /// Packet accepted; if `start_tx` is set the caller must schedule a
    /// `TxComplete` for this link at that time (the link was idle).
    Accepted {
        /// Service completion time to schedule, when the link was idle.
        start_tx: Option<Time>,
    },
    /// Packet dropped; the packet is returned so the caller can spawn the
    /// ghost continuation for probes.
    Dropped {
        /// The rejected packet.
        pkt: Packet,
        /// Why it was rejected.
        cause: DropCause,
        /// The queue drain time the dropped packet observed — for a full
        /// droptail queue this is the maximum queuing delay `Q_k`.
        backlog: Dur,
    },
}

impl Link {
    /// Create a link from its configuration.
    pub fn new(cfg: LinkConfig) -> Self {
        Link {
            cfg,
            queue: VecDeque::new(),
            q_bytes: 0,
            in_service: None,
            stats: LinkStats::default(),
        }
    }

    /// Static configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.cfg
    }

    /// Counters.
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// Reset counters (used to discard a warm-up period).
    pub fn reset_stats(&mut self) {
        self.stats = LinkStats::default();
    }

    /// Propagation delay.
    pub fn prop_delay(&self) -> Dur {
        self.cfg.prop_delay
    }

    /// Transmission time of a packet of `bytes` on this link.
    pub fn tx_time(&self, bytes: u32) -> Dur {
        Dur::transmission(bytes, self.cfg.bandwidth_bps)
    }

    /// The maximum queuing delay `Q_k`: time to drain a full buffer.
    pub fn max_queuing_delay(&self) -> Dur {
        self.cfg
            .buffer
            .max_queuing_delay(self.cfg.bandwidth_bps, self.cfg.ref_packet_bytes)
    }

    /// Time for the current backlog (residual transmission plus queued
    /// bytes) to drain — what a virtual probe arriving at `now` records as
    /// its queuing delay here.
    pub fn backlog_delay(&self, now: Time) -> Dur {
        let residual = match &self.in_service {
            Some(s) => s.finish.saturating_since(now),
            None => Dur::ZERO,
        };
        residual + Dur::transmission_u64(self.q_bytes, self.cfg.bandwidth_bps)
    }

    /// Packets currently queued (excluding the one in service).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Is the transmitter busy?
    pub fn busy(&self) -> bool {
        self.in_service.is_some()
    }

    /// Offer a packet to the queue at `now`.
    pub fn enqueue(&mut self, mut pkt: Packet, now: Time) -> EnqueueOutcome {
        self.stats.arrivals += 1;
        self.stats.arrival_bytes += pkt.size as u64;
        let is_probe = matches!(pkt.payload, Payload::Probe(_));
        if is_probe {
            self.stats.probe_arrivals += 1;
        }
        if dcl_metrics::is_enabled() {
            let q_pkts = self.queue.len() + usize::from(self.in_service.is_some());
            self.stats.occupancy.observe(q_pkts as u64);
            let backlog = self.backlog_delay(now);
            self.stats.backlog_us.observe(backlog.as_nanos() / 1_000);
        }

        // RED test first (RED can reject even a fitting packet).
        if let Discipline::AdaptiveRed(red) = &mut self.cfg.discipline {
            let q_pkts = self.queue.len() + usize::from(self.in_service.is_some());
            match red.on_arrival(q_pkts, now) {
                RedVerdict::Accept => {}
                RedVerdict::EarlyDrop | RedVerdict::ForcedDrop => {
                    self.stats.drops_red += 1;
                    if is_probe {
                        self.stats.probe_drops += 1;
                    }
                    let backlog = self.backlog_delay(now);
                    return EnqueueOutcome::Dropped {
                        pkt,
                        cause: DropCause::Red,
                        backlog,
                    };
                }
            }
        }

        // Buffer check (queued bytes/packets; the packet in service has left
        // the buffer, matching ns-2's droptail accounting).
        if !self
            .cfg
            .buffer
            .fits(self.q_bytes, self.queue.len(), pkt.size)
        {
            self.stats.drops_overflow += 1;
            if is_probe {
                self.stats.probe_drops += 1;
            }
            let backlog = self.backlog_delay(now);
            return EnqueueOutcome::Dropped {
                pkt,
                cause: DropCause::Overflow,
                backlog,
            };
        }

        if self.in_service.is_none() {
            // Idle link: packet goes straight to service with zero wait.
            if let Payload::Probe(stamp) = &mut pkt.payload {
                stamp.link_waits.push(Dur::ZERO);
            }
            let finish = now + self.tx_time(pkt.size);
            self.in_service = Some(InService { pkt, finish });
            EnqueueOutcome::Accepted {
                start_tx: Some(finish),
            }
        } else {
            self.q_bytes += pkt.size as u64;
            self.queue.push_back(Queued { pkt, arrived: now });
            EnqueueOutcome::Accepted { start_tx: None }
        }
    }

    /// Complete the in-service transmission at `now` (the caller guarantees
    /// `now` is the scheduled finish time). Returns the transmitted packet
    /// and, if another packet started service, its completion time.
    pub fn complete_tx(&mut self, now: Time) -> (Packet, Option<Time>) {
        let done = self.in_service.take().expect("complete_tx on an idle link");
        debug_assert_eq!(done.finish, now, "TxComplete fired at the wrong time");
        self.stats.tx_packets += 1;
        self.stats.tx_bytes += done.pkt.size as u64;
        self.stats.busy += self.tx_time(done.pkt.size);

        let next_finish = if let Some(mut q) = self.queue.pop_front() {
            self.q_bytes -= q.pkt.size as u64;
            if let Payload::Probe(stamp) = &mut q.pkt.payload {
                stamp.link_waits.push(now.since(q.arrived));
            }
            let finish = now + self.tx_time(q.pkt.size);
            self.in_service = Some(InService { pkt: q.pkt, finish });
            Some(finish)
        } else {
            if let Discipline::AdaptiveRed(red) = &mut self.cfg.discipline {
                red.note_idle(now);
            }
            None
        };
        (done.pkt, next_finish)
    }

    /// Run the adaptive-RED `max_p` adaptation step, if this link uses RED.
    pub fn red_adapt(&mut self) {
        if let Discipline::AdaptiveRed(red) = &mut self.cfg.discipline {
            red.adapt();
        }
    }

    /// Is this link configured with adaptive RED?
    pub fn uses_red(&self) -> bool {
        matches!(self.cfg.discipline, Discipline::AdaptiveRed(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{AgentId, LinkId, Payload, ProbeStamp};

    fn pkt(id: u64, size: u32) -> Packet {
        Packet {
            id,
            size,
            src: AgentId(0),
            dst: AgentId(1),
            route: vec![LinkId(0)].into(),
            hop: 0,
            payload: Payload::Udp,
        }
    }

    fn probe(id: u64, seq: u64, at: Time) -> Packet {
        Packet {
            id,
            size: 10,
            src: AgentId(0),
            dst: AgentId(1),
            route: vec![LinkId(0)].into(),
            hop: 0,
            payload: Payload::Probe(Box::new(ProbeStamp::new(seq, None, at))),
        }
    }

    fn link(bw: u64, buffer: u64) -> Link {
        Link::new(LinkConfig::droptail("l", bw, Dur::from_millis(5.0), buffer))
    }

    #[test]
    fn idle_link_serves_immediately() {
        let mut l = link(1_000_000, 10_000);
        let t0 = Time::from_secs(1.0);
        match l.enqueue(pkt(1, 1000), t0) {
            EnqueueOutcome::Accepted { start_tx } => {
                assert_eq!(start_tx, Some(t0 + Dur::from_millis(8.0)));
            }
            _ => panic!("expected accept"),
        }
        assert!(l.busy());
        assert_eq!(l.queue_len(), 0);
    }

    #[test]
    fn fifo_order_and_queue_accounting() {
        let mut l = link(1_000_000, 10_000);
        let t0 = Time::ZERO;
        l.enqueue(pkt(1, 1000), t0);
        l.enqueue(pkt(2, 1000), t0);
        l.enqueue(pkt(3, 1000), t0);
        assert_eq!(l.queue_len(), 2);
        let (p, next) = l.complete_tx(t0 + Dur::from_millis(8.0));
        assert_eq!(p.id, 1);
        assert_eq!(next, Some(t0 + Dur::from_millis(16.0)));
        let (p, _) = l.complete_tx(t0 + Dur::from_millis(16.0));
        assert_eq!(p.id, 2);
    }

    #[test]
    fn droptail_overflow_reports_full_backlog() {
        // Buffer 2000 B: two queued 1000 B packets fill it (plus one in
        // service).
        let mut l = link(1_000_000, 2000);
        let t0 = Time::ZERO;
        l.enqueue(pkt(1, 1000), t0);
        l.enqueue(pkt(2, 1000), t0);
        l.enqueue(pkt(3, 1000), t0);
        match l.enqueue(pkt(4, 1000), t0) {
            EnqueueOutcome::Dropped { cause, backlog, .. } => {
                assert_eq!(cause, DropCause::Overflow);
                // Residual 8 ms of pkt 1 + 16 ms of queued bytes.
                assert_eq!(backlog, Dur::from_millis(24.0));
            }
            _ => panic!("expected drop"),
        }
        assert_eq!(l.stats().drops_overflow, 1);
        assert!((l.stats().loss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn small_probe_fits_where_large_packet_does_not() {
        let mut l = link(1_000_000, 2000);
        let t0 = Time::ZERO;
        l.enqueue(pkt(1, 1000), t0);
        l.enqueue(pkt(2, 1000), t0);
        // 990 queued bytes of headroom: a 1000 B packet is dropped, a 10 B
        // probe still fits.
        l.enqueue(pkt(3, 990), t0);
        assert!(matches!(
            l.enqueue(pkt(4, 1000), t0),
            EnqueueOutcome::Dropped { .. }
        ));
        assert!(matches!(
            l.enqueue(probe(5, 0, t0), t0),
            EnqueueOutcome::Accepted { .. }
        ));
    }

    #[test]
    fn probe_wait_is_recorded_at_service_start() {
        let mut l = link(1_000_000, 10_000);
        let t0 = Time::ZERO;
        l.enqueue(pkt(1, 1000), t0);
        l.enqueue(probe(2, 0, t0), t0);
        let (_, next) = l.complete_tx(t0 + Dur::from_millis(8.0));
        assert!(next.is_some());
        let (p, _) = l.complete_tx(next.unwrap());
        match p.payload {
            Payload::Probe(stamp) => {
                assert_eq!(stamp.link_waits, vec![Dur::from_millis(8.0)]);
            }
            _ => panic!("expected the probe"),
        }
    }

    #[test]
    fn backlog_delay_tracks_service_progress() {
        let mut l = link(1_000_000, 10_000);
        let t0 = Time::ZERO;
        l.enqueue(pkt(1, 1000), t0);
        l.enqueue(pkt(2, 1000), t0);
        // Mid-service: 4 ms residual + 8 ms queued.
        assert_eq!(
            l.backlog_delay(t0 + Dur::from_millis(4.0)),
            Dur::from_millis(12.0)
        );
        // Idle link: zero.
        let l2 = link(1_000_000, 10_000);
        assert_eq!(l2.backlog_delay(t0), Dur::ZERO);
    }

    #[test]
    fn max_queuing_delay_uses_buffer_and_bandwidth() {
        let l = link(1_000_000, 20_000);
        assert_eq!(l.max_queuing_delay(), Dur::from_millis(160.0));
    }

    #[test]
    fn arrival_depth_histograms_track_enqueues_when_enabled() {
        let mut l = link(1_000_000, 10_000);
        let t0 = Time::ZERO;
        dcl_metrics::capture(|| {
            l.enqueue(pkt(1, 1000), t0); // empty queue -> bucket 0
            l.enqueue(pkt(2, 1000), t0); // 1 in flight -> bucket 1
            l.enqueue(pkt(3, 1000), t0); // 2 in flight -> bucket 2
        });
        let s = *l.stats();
        assert_eq!(s.occupancy.buckets[0], 1);
        assert_eq!(s.occupancy.buckets[1], 1);
        assert_eq!(s.occupancy.buckets[2], 1);
        // Third arrival saw 8 ms residual + 8 ms queued = 16 ms backlog.
        assert_eq!(s.backlog_us.max, 16_000);
        assert_eq!(s.backlog_us.buckets.iter().sum::<u64>(), 3);
        // Disabled: fields stay at their defaults.
        let mut quiet = link(1_000_000, 10_000);
        quiet.enqueue(pkt(9, 1000), t0);
        assert_eq!(quiet.stats().occupancy, Log2Hist::default());
        assert_eq!(quiet.stats().backlog_us.max, 0);
    }

    #[test]
    fn zero_arrival_stats_report_zero_loss_rates() {
        // Regression pin: a link that never saw an arrival (e.g. a probe
        // window entirely inside a silent period, or stats reset right
        // before a query) must report 0.0 loss rates — defined and
        // finite, never NaN from a 0/0 division.
        let l = link(1_000_000, 10_000);
        let s = *l.stats();
        assert_eq!(s.arrivals, 0);
        assert_eq!(s.probe_arrivals, 0);
        assert_eq!(s.loss_rate(), 0.0);
        assert!(s.loss_rate().is_finite());
        assert_eq!(s.probe_loss_rate(), 0.0);
        assert!(s.probe_loss_rate().is_finite());

        // The same holds after traffic is discarded by `reset_stats`.
        let mut busy = link(1_000_000, 2000);
        let t0 = Time::ZERO;
        for id in 0..4 {
            busy.enqueue(pkt(id, 1000), t0);
        }
        assert!(busy.stats().loss_rate() > 0.0);
        busy.reset_stats();
        assert_eq!(busy.stats().loss_rate(), 0.0);
        assert_eq!(busy.stats().probe_loss_rate(), 0.0);

        // Mixed case: data drops must not leak into the probe loss rate
        // when no probe ever arrived.
        let mut data_only = link(1_000_000, 2000);
        for id in 0..4 {
            data_only.enqueue(pkt(id, 1000), t0);
        }
        assert_eq!(data_only.stats().probe_arrivals, 0);
        assert_eq!(data_only.stats().probe_loss_rate(), 0.0);
        assert!(data_only.stats().loss_rate() > 0.0);
    }

    #[test]
    fn utilization_accumulates_busy_time() {
        let mut l = link(1_000_000, 10_000);
        let t0 = Time::ZERO;
        l.enqueue(pkt(1, 1000), t0);
        l.complete_tx(t0 + Dur::from_millis(8.0));
        let u = l.stats().utilization(Dur::from_millis(80.0));
        assert!((u - 0.1).abs() < 1e-9);
    }

    #[test]
    fn utilization_boundary_windows_stay_in_unit_interval() {
        let mut l = link(1_000_000, 10_000);
        let t0 = Time::ZERO;
        l.enqueue(pkt(1, 1000), t0);
        l.complete_tx(t0 + Dur::from_millis(8.0));
        // Zero observation window: defined as 0, never NaN.
        let zero = l.stats().utilization(Dur::ZERO);
        assert_eq!(zero, 0.0);
        assert!(zero.is_finite());
        // Window shorter than the accumulated busy time (a boundary
        // query against a partial window): clamps to 1, never >1.
        let over = l.stats().utilization(Dur::from_millis(2.0));
        assert_eq!(over, 1.0);
        // Sub-millisecond window, still finite and clamped.
        let tiny = l.stats().utilization(Dur::from_micros(1.0));
        assert!(tiny.is_finite());
        assert_eq!(tiny, 1.0);
        // Exact window: full utilisation without floating-point excess.
        let exact = l.stats().utilization(Dur::from_millis(8.0));
        assert!((0.0..=1.0).contains(&exact));
        assert!((exact - 1.0).abs() < 1e-12);
    }
}
