//! A Poisson packet source.
//!
//! Besides the paper's on–off UDP, [`PoissonUdp`] sends with exponential
//! inter-arrivals. It makes the simulator's queues analytically checkable
//! (an M/D/1 system), which the test suite uses to validate the queueing
//! core against the Pollaczek–Khinchine formula.

use crate::packet::{AgentId, Payload, Route};
use crate::sim::{Agent, Ctx};
use crate::time::Dur;
use crate::traffic::tcp::exp_sample;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const KIND_SEND: u64 = 0;

/// Poisson packet source: exponential inter-arrival times with the given
/// mean rate.
pub struct PoissonUdp {
    route: Route,
    dst: AgentId,
    pkt_size: u32,
    mean_gap: Dur,
    start_delay: Dur,
    rng: SmallRng,
    packets_sent: u64,
}

impl PoissonUdp {
    /// Create a Poisson source with mean `rate_pps` packets per second.
    pub fn new(
        route: Route,
        dst: AgentId,
        rate_pps: f64,
        pkt_size: u32,
        start_delay: Dur,
        seed: u64,
    ) -> Self {
        assert!(rate_pps > 0.0);
        PoissonUdp {
            route,
            dst,
            pkt_size,
            mean_gap: Dur::from_secs(1.0 / rate_pps),
            start_delay,
            rng: SmallRng::seed_from_u64(seed),
            packets_sent: 0,
        }
    }

    /// Packets sent so far.
    pub fn packets_sent(&self) -> u64 {
        self.packets_sent
    }
}

impl Agent for PoissonUdp {
    fn start(&mut self, ctx: &mut Ctx) {
        ctx.timer_in(self.start_delay, KIND_SEND);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, kind: u64) {
        if kind != KIND_SEND {
            return;
        }
        ctx.send(self.pkt_size, self.dst, self.route.clone(), Payload::Udp);
        self.packets_sent += 1;
        ctx.timer_in(exp_sample(&mut self.rng, self.mean_gap), KIND_SEND);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::packet::LinkId;
    use crate::sim::{NullAgent, Simulator};
    use crate::time::Time;

    fn sim_with_link(bw: u64) -> (Simulator, LinkId, AgentId) {
        let mut sim = Simulator::new();
        let l = sim.add_link(LinkConfig::droptail(
            "l",
            bw,
            Dur::from_millis(1.0),
            100_000_000,
        ));
        let sink = sim.add_agent(Box::new(NullAgent));
        (sim, l, sink)
    }

    #[test]
    fn poisson_rate_matches_mean() {
        let (mut sim, l, sink) = sim_with_link(100_000_000);
        sim.add_agent(Box::new(PoissonUdp::new(
            vec![l].into(),
            sink,
            500.0,
            1000,
            Dur::ZERO,
            5,
        )));
        sim.run_until(Time::from_secs(100.0));
        let n = sim.link_stats(l).tx_packets as f64;
        // Mean 50_000; Poisson sd ~224. Allow 5 sigma.
        assert!((n - 50_000.0).abs() < 1200.0, "sent {n}");
    }

    /// Validate the queueing core against M/D/1 theory: Poisson arrivals
    /// (rate lambda) into a deterministic server (rate mu). The
    /// Pollaczek-Khinchine mean waiting time is
    /// `W = rho / (2 mu (1 - rho))`.
    #[test]
    fn md1_mean_wait_matches_pollaczek_khinchine() {
        // Service: 1000 B at 10 Mb/s = 0.8 ms -> mu = 1250/s.
        // Arrivals: lambda = 875/s -> rho = 0.7.
        let (mut sim, l, sink) = sim_with_link(10_000_000);
        sim.add_agent(Box::new(PoissonUdp::new(
            vec![l].into(),
            sink,
            875.0,
            1000,
            Dur::ZERO,
            9,
        )));
        // Use probes... instead, measure waiting via busy-time decomposition:
        // by PASTA + Little's law, mean queue wait W = (mean backlog seen by
        // arrivals). We sample the backlog with a second, very slow Poisson
        // stream of tiny probes and use their recorded waits.
        let probe_sink = sim.add_agent(Box::new(NullAgent));
        sim.add_agent(Box::new(crate::probe::ProbeSender::new(
            crate::probe::ProbeConfig {
                pattern: crate::probe::ProbePattern::Single {
                    interval: Dur::from_millis(50.0),
                },
                size: 10,
                route: vec![l].into(),
                dst: probe_sink,
                start_delay: Dur::from_millis(1.0),
            },
        )));
        sim.run_until(Time::from_secs(400.0));
        let trace = crate::trace::ProbeTrace::from_sim(&sim, Dur::ZERO, Dur::from_millis(50.0));
        let waits: Vec<f64> = trace
            .records
            .iter()
            .filter_map(|r| r.stamp.link_waits.first())
            .map(|d| d.as_secs())
            .collect();
        assert!(waits.len() > 7000);
        let mean_wait = waits.iter().sum::<f64>() / waits.len() as f64;
        // Theory: rho = 0.7 (ignore the tiny probe load), mu = 1250/s:
        // W = 0.7 / (2 * 1250 * 0.3) = 0.933 ms.
        let theory = 0.7 / (2.0 * 1250.0 * 0.3);
        let rel_err = (mean_wait - theory).abs() / theory;
        assert!(
            rel_err < 0.12,
            "M/D/1 wait {mean_wait:.6}s vs theory {theory:.6}s (err {rel_err:.2})"
        );
    }
}
