//! Pre-built path scenarios reproducing the paper's ns topology (Fig. 4).
//!
//! A [`PathScenario`] is a chain of routers `r0 → r1 → ... → rK` with:
//!
//! * an access link from the probe source into `r0` and one from the last
//!   router to the probe sink (10 Mb/s, large buffers — never congested);
//! * `K` *hop* links whose bandwidth, buffer and queue discipline are the
//!   experiment's knobs;
//! * per-hop cross traffic (FTP/HTTP TCP flows plus optional on–off UDP)
//!   that enters just before a hop link and leaves right after it — this is
//!   how the experiments concentrate loss on chosen links;
//! * optional end–end traffic sharing the whole path with the probes;
//! * the periodic UDP prober.
//!
//! All randomness derives from a single scenario seed.

use crate::link::LinkConfig;
use crate::packet::{LinkId, Route};
use crate::probe::{ProbeConfig, ProbePattern, ProbeSender};
use crate::queue::{BufferLimit, Discipline, RedConfig, RedState};
use crate::sim::{NullAgent, Simulator};
use crate::time::{Dur, Time};
use crate::trace::ProbeTrace;
use crate::traffic::{OnOffConfig, OnOffUdp, TcpConfig, TcpSender, TcpSink};

/// On–off UDP cross-traffic knobs (route/dst/seed filled in by the builder).
#[derive(Debug, Clone, Copy)]
pub struct UdpCross {
    /// Peak rate while ON, bits per second.
    pub peak_bps: u64,
    /// Mean ON period.
    pub mean_on: Dur,
    /// Mean OFF period.
    pub mean_off: Dur,
    /// Packet size in bytes.
    pub pkt_size: u32,
}

/// Cross-traffic mix attached to one hop (or end–end).
#[derive(Debug, Clone, Copy, Default)]
pub struct TrafficMix {
    /// Number of persistent FTP flows.
    pub ftp_flows: usize,
    /// Number of HTTP-like session flows.
    pub http_sessions: usize,
    /// Optional on–off UDP source.
    pub udp: Option<UdpCross>,
}

impl TrafficMix {
    /// No traffic at all.
    pub fn none() -> Self {
        TrafficMix::default()
    }
}

/// One hop link of the path.
#[derive(Debug, Clone)]
pub struct HopSpec {
    /// Link bandwidth, bits per second.
    pub bandwidth_bps: u64,
    /// Queue capacity.
    pub buffer: BufferLimit,
    /// Propagation delay.
    pub prop_delay: Dur,
    /// Adaptive-RED minimum threshold in packets (`None` = droptail;
    /// `max_th = 3 * min_th`, gentle mode, as in §VI-A5).
    pub red_min_th: Option<f64>,
    /// Cross traffic local to this hop.
    pub cross: TrafficMix,
}

impl HopSpec {
    /// Droptail hop with the paper's 5 ms propagation delay.
    ///
    /// The buffer is given in bytes (as the paper specifies it) but is
    /// enforced in packets of the 1000-byte data MTU, matching ns-2's
    /// packet-count droptail — this is what makes a full queue reject the
    /// 10-byte probes too, which the paper's loss model depends on.
    pub fn droptail(bandwidth_bps: u64, buffer_bytes: u64, cross: TrafficMix) -> Self {
        let packets = ((buffer_bytes as f64 / 1000.0).round() as usize).max(2);
        HopSpec {
            bandwidth_bps,
            buffer: BufferLimit::Packets(packets),
            prop_delay: Dur::from_millis(5.0),
            red_min_th: None,
            cross,
        }
    }

    /// The maximum queuing delay `Q_k` this hop can impose.
    pub fn max_queuing_delay(&self) -> Dur {
        self.buffer.max_queuing_delay(self.bandwidth_bps, 1000)
    }
}

/// Full scenario configuration.
#[derive(Debug, Clone)]
pub struct PathScenarioConfig {
    /// The hop links, in path order.
    pub hops: Vec<HopSpec>,
    /// Access-link bandwidth (source→r0 and rK→sink), bits per second.
    pub access_bps: u64,
    /// Access-link propagation delay (the paper draws it from 1–2 ms).
    pub access_prop: Dur,
    /// Traffic sharing the whole path with the probes.
    pub end_to_end: TrafficMix,
    /// Probing pattern.
    pub probe_pattern: ProbePattern,
    /// Probe size in bytes.
    pub probe_size: u32,
    /// Master seed.
    pub seed: u64,
}

impl PathScenarioConfig {
    /// Paper-style defaults: 10 Mb/s access links, 20 ms single probes of
    /// 10 bytes.
    pub fn new(hops: Vec<HopSpec>, seed: u64) -> Self {
        PathScenarioConfig {
            hops,
            access_bps: 10_000_000,
            access_prop: Dur::from_millis(1.5),
            end_to_end: TrafficMix::none(),
            probe_pattern: ProbePattern::Single {
                interval: Dur::from_millis(20.0),
            },
            probe_size: 10,
            seed,
        }
    }
}

/// A built scenario: the simulator plus the handles experiments need.
pub struct PathScenario {
    /// The simulator (exposed for custom drives).
    pub sim: Simulator,
    /// Forward hop links, in path order.
    pub hop_links: Vec<LinkId>,
    /// The probe route (access + hops + access).
    pub probe_route: Route,
    /// Hop index (within the probe route) of `hop_links[0]`.
    pub first_hop_index: usize,
    /// The path's delay floor for probe-size packets.
    pub base_delay: Dur,
    /// Probe spacing.
    pub probe_interval: Dur,
}

impl PathScenario {
    /// Build the scenario.
    pub fn build(cfg: &PathScenarioConfig) -> Self {
        assert!(!cfg.hops.is_empty(), "a path needs at least one hop");
        let mut sim = Simulator::new();
        let mut seed_counter = cfg.seed;
        let mut next_seed = move || {
            // SplitMix64-style stream of per-agent seeds.
            seed_counter = seed_counter.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = seed_counter;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };

        // Forward path: access in, hops, access out.
        let access_in = sim.add_link(LinkConfig::droptail(
            "access-in",
            cfg.access_bps,
            cfg.access_prop,
            10_000_000,
        ));
        let mut hop_links = Vec::with_capacity(cfg.hops.len());
        for (i, hop) in cfg.hops.iter().enumerate() {
            let discipline = match hop.red_min_th {
                None => Discipline::DropTail,
                Some(min_th) => {
                    let mean_tx = Dur::transmission(1000, hop.bandwidth_bps);
                    Discipline::AdaptiveRed(RedState::new(
                        RedConfig::paper(min_th, mean_tx),
                        next_seed(),
                    ))
                }
            };
            let id = sim.add_link(LinkConfig {
                bandwidth_bps: hop.bandwidth_bps,
                prop_delay: hop.prop_delay,
                buffer: hop.buffer,
                discipline,
                ref_packet_bytes: 1000,
                name: format!("hop{}", i + 1),
            });
            hop_links.push(id);
        }
        let access_out = sim.add_link(LinkConfig::droptail(
            "access-out",
            cfg.access_bps,
            cfg.access_prop,
            10_000_000,
        ));

        // Reverse path for ACKs: ample capacity, never congested (the paper
        // probes one-way; only forward-path dynamics matter).
        let mut rev_links = Vec::with_capacity(cfg.hops.len() + 2);
        for i in 0..cfg.hops.len() + 2 {
            rev_links.push(sim.add_link(LinkConfig::droptail(
                &format!("rev{i}"),
                cfg.access_bps,
                Dur::from_millis(5.0),
                10_000_000,
            )));
        }
        let rev_route: Route = rev_links.iter().rev().copied().collect::<Vec<_>>().into();

        let probe_route: Route = std::iter::once(access_in)
            .chain(hop_links.iter().copied())
            .chain(std::iter::once(access_out))
            .collect::<Vec<_>>()
            .into();

        // Cross traffic per hop: enters right before the hop link, leaves
        // after it. ACKs return over the matching reverse link.
        for (i, hop) in cfg.hops.iter().enumerate() {
            let fwd: Route = vec![hop_links[i]].into();
            let rev: Route = vec![rev_links[i + 1]].into();
            add_mix(&mut sim, &hop.cross, &fwd, &rev, &mut next_seed);
        }
        // End–end traffic shares the probe route.
        add_mix(
            &mut sim,
            &cfg.end_to_end,
            &probe_route,
            &rev_route,
            &mut next_seed,
        );

        // The prober.
        let probe_sink = sim.add_agent(Box::new(NullAgent));
        sim.add_agent(Box::new(ProbeSender::new(ProbeConfig {
            pattern: cfg.probe_pattern,
            size: cfg.probe_size,
            route: probe_route.clone(),
            dst: probe_sink,
            start_delay: Dur::from_millis(3.0),
        })));

        // Delay floor of the probe path: propagation + per-link probe
        // transmission times.
        let mut base_delay = Dur::ZERO;
        for &l in probe_route.iter() {
            let link = sim.network().link(l);
            base_delay += link.prop_delay() + link.tx_time(cfg.probe_size);
        }

        PathScenario {
            sim,
            hop_links,
            probe_route,
            first_hop_index: 1,
            base_delay,
            probe_interval: cfg.probe_pattern.interval(),
        }
    }

    /// Run `warmup` of simulated time, discard all measurements, then run
    /// `measure` more and return the probe trace.
    ///
    /// Records a `netsim.run` span, and with the registry on folds the
    /// measurement window's per-link totals into it.
    pub fn run(&mut self, warmup: Dur, measure: Dur) -> ProbeTrace {
        let _span = dcl_metrics::span("netsim.run");
        self.sim.run_until(Time::ZERO + warmup);
        self.sim.reset_measurements();
        self.sim.run_until(Time::ZERO + warmup + measure);
        let trace = ProbeTrace::from_sim(&self.sim, self.base_delay, self.probe_interval);
        self.fold_metrics(&trace);
        trace
    }

    /// Fold end-of-run totals into the `dcl_metrics` registry: probe and
    /// event throughput counters, and under `netsim.link.<name>.` every
    /// link's arrival and drop counters and its `occupancy` and
    /// `backlog_us` arrival-depth histograms. All values are simulated
    /// state, so the folds are deterministic; the per-link names are
    /// built lazily, so a disabled registry pays nothing.
    fn fold_metrics(&self, trace: &ProbeTrace) {
        if !dcl_metrics::is_enabled() {
            return;
        }
        dcl_metrics::counter("netsim.runs", 1);
        dcl_metrics::counter("netsim.probes", trace.len() as u64);
        dcl_metrics::counter("netsim.events", self.sim.events_processed());
        let net = self.sim.network();
        for i in 0..net.num_links() {
            let link = net.link(LinkId(i));
            let name = &link.config().name;
            let s = *link.stats();
            for (counter, value) in [
                ("arrivals", s.arrivals),
                ("drops", s.drops_overflow + s.drops_red),
                ("drops_red", s.drops_red),
                ("probe_arrivals", s.probe_arrivals),
                ("probe_drops", s.probe_drops),
            ] {
                dcl_metrics::counter_with(|| (format!("netsim.link.{name}.{counter}"), value));
            }
            for (hist, value) in [("occupancy", s.occupancy), ("backlog_us", s.backlog_us)] {
                dcl_metrics::histogram_with(|| (format!("netsim.link.{name}.{hist}"), value));
            }
        }
    }

    /// Loss rate of each hop link (all packets, measurement window).
    pub fn hop_loss_rates(&self) -> Vec<f64> {
        self.hop_links
            .iter()
            .map(|&l| self.sim.network().link(l).stats().loss_rate())
            .collect()
    }

    /// Ground-truth maximum queuing delay `Q_k` of each hop link.
    pub fn hop_max_queuing_delays(&self) -> Vec<Dur> {
        self.hop_links
            .iter()
            .map(|&l| self.sim.network().link(l).max_queuing_delay())
            .collect()
    }

    /// Route-hop index of hop link `i` (for matching `loss_hop` in stamps).
    pub fn route_index_of_hop(&self, i: usize) -> usize {
        self.first_hop_index + i
    }
}

fn add_mix(
    sim: &mut Simulator,
    mix: &TrafficMix,
    fwd: &Route,
    rev: &Route,
    next_seed: &mut impl FnMut() -> u64,
) {
    for f in 0..mix.ftp_flows {
        let sink = sim.add_agent(Box::new(TcpSink::new(rev.clone(), 40)));
        let start = Dur::from_millis(50.0 * f as f64 + 10.0);
        let cfg = TcpConfig::ftp(fwd.clone(), sink, start, next_seed());
        sim.add_agent(Box::new(TcpSender::new(cfg)));
    }
    for h in 0..mix.http_sessions {
        let sink = sim.add_agent(Box::new(TcpSink::new(rev.clone(), 40)));
        let start = Dur::from_millis(35.0 * h as f64 + 20.0);
        let cfg = TcpConfig::http(fwd.clone(), sink, start, next_seed());
        sim.add_agent(Box::new(TcpSender::new(cfg)));
    }
    if let Some(u) = mix.udp {
        let sink = sim.add_agent(Box::new(NullAgent));
        sim.add_agent(Box::new(OnOffUdp::new(OnOffConfig {
            peak_bps: u.peak_bps,
            pkt_size: u.pkt_size,
            mean_on: u.mean_on,
            mean_off: u.mean_off,
            route: fwd.clone(),
            dst: sink,
            start_delay: Dur::from_millis(5.0),
            seed: next_seed(),
        })));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A strongly dominant congested hop: slow first link with heavy cross
    /// traffic, fast loss-free others.
    fn strongly_cfg(seed: u64) -> PathScenarioConfig {
        let hops = vec![
            HopSpec::droptail(
                1_000_000,
                20_000,
                TrafficMix {
                    ftp_flows: 3,
                    http_sessions: 3,
                    udp: Some(UdpCross {
                        peak_bps: 600_000,
                        mean_on: Dur::from_secs(1.0),
                        mean_off: Dur::from_secs(1.0),
                        pkt_size: 1000,
                    }),
                },
            ),
            HopSpec::droptail(
                10_000_000,
                80_000,
                TrafficMix {
                    ftp_flows: 0,
                    http_sessions: 2,
                    udp: Some(UdpCross {
                        peak_bps: 4_000_000,
                        mean_on: Dur::from_secs(0.5),
                        mean_off: Dur::from_secs(1.0),
                        pkt_size: 1000,
                    }),
                },
            ),
            HopSpec::droptail(10_000_000, 80_000, TrafficMix::none()),
        ];
        PathScenarioConfig::new(hops, seed)
    }

    #[test]
    fn builds_expected_topology() {
        let sc = PathScenario::build(&strongly_cfg(1));
        assert_eq!(sc.hop_links.len(), 3);
        assert_eq!(sc.probe_route.len(), 5);
        assert_eq!(sc.route_index_of_hop(0), 1);
        // Base delay: 2 access (1.5 ms) + 3 hops (5 ms) + tx times.
        assert!(sc.base_delay > Dur::from_millis(18.0));
        assert!(sc.base_delay < Dur::from_millis(19.0));
    }

    #[test]
    fn strongly_dominant_hop_attracts_all_losses() {
        let mut sc = PathScenario::build(&strongly_cfg(2));
        let trace = sc.run(Dur::from_secs(20.0), Dur::from_secs(60.0));
        assert!(trace.len() > 2500, "{} probes", trace.len());
        let lr = trace.loss_rate();
        assert!(lr > 0.003, "probe loss rate {lr}");
        // Every probe loss must be at hop 1 (route index 1).
        let share = trace.loss_share_by_hop(5);
        assert!(share[1] > 0.999, "loss share {share:?}");
        // Ground truth: lost probes' virtual delay concentrates just below
        // Q_1 = 160 ms. (In a packet-count droptail queue the ~Q_1/interval
        // probes sitting in the full queue are 10-byte packets, so the
        // drain time a dropped probe records is slightly less than the
        // all-data Q_k = B/C; the identification method only needs the
        // tight band, not the exact constant.)
        let q1 = sc.hop_max_queuing_delays()[0];
        assert_eq!(q1, Dur::from_millis(160.0));
        let lo = Dur::from_millis(0.55 * q1.as_millis());
        let hi = Dur::from_millis(1.40 * q1.as_millis());
        for d in trace.ground_truth_virtual_delays() {
            assert!(
                d >= lo && d <= hi,
                "virtual delay {d} outside the dominant band [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn scenario_is_deterministic_per_seed() {
        let run = |seed| {
            let mut sc = PathScenario::build(&strongly_cfg(seed));
            let t = sc.run(Dur::from_secs(5.0), Dur::from_secs(20.0));
            (t.len(), t.loss_count(), t.max_owd())
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn a_run_folds_every_link_into_the_registry_and_nothing_into_the_stream() {
        let mut sc = PathScenario::build(&strongly_cfg(5));
        let (_, captured) =
            dcl_metrics::capture(|| sc.run(Dur::from_secs(5.0), Dur::from_secs(20.0)));
        let snap = captured.metrics.snapshot();
        let net = sc.sim.network();
        assert_eq!(net.num_links(), 10, "access, 3 hops, access, 5 reverse");
        for i in 0..net.num_links() {
            let link = net.link(LinkId(i));
            let s = *link.stats();
            let key = |field: &str| format!("netsim.link.{}.{field}", link.config().name);
            for (field, value) in [
                ("arrivals", s.arrivals),
                ("drops", s.drops_overflow + s.drops_red),
                ("drops_red", s.drops_red),
                ("probe_arrivals", s.probe_arrivals),
                ("probe_drops", s.probe_drops),
            ] {
                assert_eq!(snap.counters[&key(field)], value, "{}", key(field));
            }
            for field in ["occupancy", "backlog_us"] {
                let h = snap.histograms[&key(field)];
                assert_eq!(h.count, s.arrivals, "one observation per arrival");
                assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
            }
        }
        // The dominant hop drops, and saw a full 160 ms buffer.
        let hop1 = snap.histograms["netsim.link.hop1.backlog_us"];
        assert!(snap.counters["netsim.link.hop1.drops"] > 0);
        assert!((150_000..=170_000).contains(&hop1.max), "{}", hop1.max);
        // The stream holds only the run's span.
        let kinds: Vec<&str> = captured.events.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, ["span-open", "span-close"]);
    }
}
