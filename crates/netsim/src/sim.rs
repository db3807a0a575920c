//! The discrete-event simulator: network state, agents, and the event loop.
//!
//! The simulator wires three pieces together:
//!
//! * [`Network`] — the links, plus the probe log where every probe (lost or
//!   delivered) ends up with its ground-truth per-link delays;
//! * [`Agent`]s — traffic sources/sinks and probers, driven by timers and
//!   delivered packets through the [`Ctx`] handle;
//! * the event loop — a deterministic earliest-first queue.
//!
//! Lost probes become *ghost continuations* (the paper's virtual probes):
//! the ghost replays the rest of the route, reading each queue's backlog
//! without occupying it, so the completed [`ProbeRecord`] always carries one
//! waiting delay per link.

use crate::event::{EventKind, EventQueue};
use crate::link::{EnqueueOutcome, Link, LinkConfig, LinkStats};
use crate::packet::{AgentId, LinkId, Packet, Payload, ProbeStamp, Route};
use crate::time::{Dur, Time};
use serde::{Deserialize, Serialize};

/// A completed probe: its ground-truth stamp plus the delivery time (absent
/// when the probe was lost).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProbeRecord {
    /// Ground-truth measurement record.
    pub stamp: ProbeStamp,
    /// Arrival time at the destination, `None` for lost probes.
    pub arrival: Option<Time>,
}

impl ProbeRecord {
    /// One-way delay, when delivered. Saturates to zero if the recorded
    /// arrival precedes the send time — possible on imported traces whose
    /// clocks disagree (skew, drift); the simulator itself never produces
    /// such records.
    pub fn owd(&self) -> Option<Dur> {
        self.arrival.map(|a| a.saturating_since(self.stamp.sent_at))
    }

    /// Was the probe delivered?
    pub fn delivered(&self) -> bool {
        self.arrival.is_some()
    }
}

/// Links plus measurement logs — everything except the agents.
#[derive(Debug, Default)]
pub struct Network {
    links: Vec<Link>,
    probe_log: Vec<ProbeRecord>,
}

impl Network {
    /// Add a link and return its id.
    pub fn add_link(&mut self, cfg: LinkConfig) -> LinkId {
        self.links.push(Link::new(cfg));
        LinkId(self.links.len() - 1)
    }

    /// Immutable access to a link.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    /// Mutable access to a link.
    pub fn link_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.links[id.0]
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Completed probe records so far (sending order not guaranteed; the
    /// trace extractor sorts by sequence number).
    pub fn probe_log(&self) -> &[ProbeRecord] {
        &self.probe_log
    }

    /// Drop all completed probe records (end of a warm-up period).
    pub fn clear_probe_log(&mut self) {
        self.probe_log.clear();
    }

    /// Offer `pkt` to the link at its current hop; handles drops, including
    /// spawning the ghost continuation for probes.
    fn enqueue_at_current_hop(&mut self, pkt: Packet, now: Time, events: &mut EventQueue) {
        let link_id = pkt.current_link();
        match self.links[link_id.0].enqueue(pkt, now) {
            EnqueueOutcome::Accepted { start_tx } => {
                if let Some(finish) = start_tx {
                    events.schedule(finish, EventKind::TxComplete(link_id));
                }
            }
            EnqueueOutcome::Dropped { pkt, backlog, .. } => {
                self.handle_drop(pkt, backlog, now, events);
            }
        }
    }

    /// A packet was dropped at its current hop: probes continue as ghosts,
    /// everything else just disappears (TCP recovers via its own loss
    /// detection).
    fn handle_drop(&mut self, mut pkt: Packet, backlog: Dur, now: Time, events: &mut EventQueue) {
        let hop = pkt.hop;
        if let Payload::Probe(stamp) = &mut pkt.payload {
            // The virtual probe records the drain time of the queue it found
            // (for a full droptail queue: the maximum queuing delay Q_k) and
            // then continues down the path.
            stamp.loss_hop = Some(hop);
            stamp.link_waits.push(backlog);
            self.ghost_depart(pkt, backlog, now, events);
        }
    }

    /// Ghost continuation arrives at its current hop: sample the backlog and
    /// move on.
    fn ghost_arrival(&mut self, mut pkt: Packet, now: Time, events: &mut EventQueue) {
        let wait = self.links[pkt.current_link().0].backlog_delay(now);
        if let Payload::Probe(stamp) = &mut pkt.payload {
            stamp.link_waits.push(wait);
        }
        self.ghost_depart(pkt, wait, now, events);
    }

    /// A ghost leaves its current link after `wait` plus the link's
    /// transmission and propagation time: it arrives at the next hop, or
    /// is logged as lost once it has crossed the last link.
    fn ghost_depart(&mut self, mut pkt: Packet, wait: Dur, now: Time, events: &mut EventQueue) {
        let link = &self.links[pkt.current_link().0];
        let depart = now + wait + link.tx_time(pkt.size) + link.prop_delay();
        pkt.hop += 1;
        if pkt.hop >= pkt.route.len() {
            self.complete_lost_probe(pkt);
        } else {
            events.schedule(depart, EventKind::GhostArrival(pkt));
        }
    }

    /// Log a lost probe once its ghost has crossed the last link.
    fn complete_lost_probe(&mut self, pkt: Packet) {
        if let Payload::Probe(stamp) = pkt.payload {
            self.probe_log.push(ProbeRecord {
                stamp: *stamp,
                arrival: None,
            });
        }
    }
}

/// Handle agents use to interact with the simulation.
pub struct Ctx<'a> {
    now: Time,
    agent: AgentId,
    net: &'a mut Network,
    events: &'a mut EventQueue,
    next_packet_id: &'a mut u64,
}

impl Ctx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedule a timer for this agent `delay` from now; `kind` is returned
    /// verbatim to [`Agent::on_timer`].
    pub fn timer_in(&mut self, delay: Dur, kind: u64) {
        self.events.schedule(
            self.now + delay,
            EventKind::Timer {
                agent: self.agent,
                kind,
            },
        );
    }

    /// Send a packet along `route` to `dst`, entering the first link's queue
    /// immediately. Returns the packet id.
    pub fn send(&mut self, size: u32, dst: AgentId, route: Route, payload: Payload) -> u64 {
        let id = *self.next_packet_id;
        *self.next_packet_id += 1;
        let pkt = Packet {
            id,
            size,
            src: self.agent,
            dst,
            route,
            hop: 0,
            payload,
        };
        self.net.enqueue_at_current_hop(pkt, self.now, self.events);
        id
    }
}

/// A traffic source, sink, or prober.
///
/// Agents are driven exclusively through these callbacks; they must not keep
/// references into the simulator. Unhandled callbacks default to no-ops.
pub trait Agent {
    /// Called once when the simulation starts.
    fn start(&mut self, _ctx: &mut Ctx) {}

    /// A timer scheduled via [`Ctx::timer_in`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx, _kind: u64) {}

    /// A packet addressed to this agent was delivered.
    fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: Packet) {}
}

/// A sink that ignores everything (probe destinations: the network itself
/// logs probe deliveries).
#[derive(Debug, Default)]
pub struct NullAgent;

impl Agent for NullAgent {}

/// The simulator.
pub struct Simulator {
    net: Network,
    agents: Vec<Option<Box<dyn Agent>>>,
    events: EventQueue,
    now: Time,
    next_packet_id: u64,
    started: bool,
    red_adapt_interval: Dur,
    events_processed: u64,
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulator {
    /// Empty simulation at time zero.
    pub fn new() -> Self {
        Simulator {
            net: Network::default(),
            agents: Vec::new(),
            events: EventQueue::new(),
            now: Time::ZERO,
            next_packet_id: 0,
            started: false,
            red_adapt_interval: Dur::from_millis(500.0),
            events_processed: 0,
        }
    }

    /// Add a link.
    pub fn add_link(&mut self, cfg: LinkConfig) -> LinkId {
        self.net.add_link(cfg)
    }

    /// Add an agent.
    pub fn add_agent(&mut self, agent: Box<dyn Agent>) -> AgentId {
        self.agents.push(Some(agent));
        AgentId(self.agents.len() - 1)
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The network (links + probe log).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Per-link counters.
    pub fn link_stats(&self, id: LinkId) -> LinkStats {
        *self.net.link(id).stats()
    }

    /// Total events processed so far (for throughput benchmarks).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Reset all measurement state (probe log and link counters) without
    /// touching queues or agents — used to discard a warm-up period.
    pub fn reset_measurements(&mut self) {
        self.net.clear_probe_log();
        for i in 0..self.net.num_links() {
            self.net.link_mut(LinkId(i)).reset_stats();
        }
    }

    fn start_agents(&mut self) {
        for i in 0..self.agents.len() {
            self.with_agent(AgentId(i), |agent, ctx| agent.start(ctx));
        }
        // Kick off adaptive-RED housekeeping on RED links.
        for i in 0..self.net.num_links() {
            if self.net.link(LinkId(i)).uses_red() {
                self.events.schedule(
                    self.now + self.red_adapt_interval,
                    EventKind::RedAdapt(LinkId(i)),
                );
            }
        }
        self.started = true;
    }

    fn with_agent(&mut self, id: AgentId, f: impl FnOnce(&mut dyn Agent, &mut Ctx)) {
        let mut agent = self.agents[id.0]
            .take()
            .expect("agent re-entered (agents must not recurse into themselves)");
        {
            let mut ctx = Ctx {
                now: self.now,
                agent: id,
                net: &mut self.net,
                events: &mut self.events,
                next_packet_id: &mut self.next_packet_id,
            };
            f(agent.as_mut(), &mut ctx);
        }
        self.agents[id.0] = Some(agent);
    }

    /// Run the simulation until simulated time `until` (events at exactly
    /// `until` are processed).
    pub fn run_until(&mut self, until: Time) {
        if !self.started {
            self.start_agents();
        }
        while let Some(t) = self.events.peek_time() {
            if t > until {
                break;
            }
            let (t, kind) = self.events.pop().expect("peeked event vanished");
            debug_assert!(t >= self.now, "time ran backwards");
            self.now = t;
            self.events_processed += 1;
            match kind {
                EventKind::TxComplete(link_id) => {
                    let (mut pkt, next_finish) = self.net.link_mut(link_id).complete_tx(t);
                    if let Some(f) = next_finish {
                        self.events.schedule(f, EventKind::TxComplete(link_id));
                    }
                    let prop = self.net.link(link_id).prop_delay();
                    pkt.hop += 1;
                    self.events.schedule(t + prop, EventKind::HopArrival(pkt));
                }
                EventKind::HopArrival(pkt) => {
                    if pkt.hop >= pkt.route.len() {
                        self.deliver(pkt);
                    } else {
                        self.net.enqueue_at_current_hop(pkt, t, &mut self.events);
                    }
                }
                EventKind::GhostArrival(pkt) => {
                    self.net.ghost_arrival(pkt, t, &mut self.events);
                }
                EventKind::Timer { agent, kind } => {
                    self.with_agent(agent, |a, ctx| a.on_timer(ctx, kind));
                }
                EventKind::RedAdapt(link_id) => {
                    self.net.link_mut(link_id).red_adapt();
                    self.events
                        .schedule(t + self.red_adapt_interval, EventKind::RedAdapt(link_id));
                }
            }
        }
        self.now = until.max(self.now);
    }

    fn deliver(&mut self, pkt: Packet) {
        if let Payload::Probe(stamp) = &pkt.payload {
            // Log before handing to the agent: the network owns probe truth.
            self.net.probe_log.push(ProbeRecord {
                stamp: (**stamp).clone(),
                arrival: Some(self.now),
            });
        }
        let dst = pkt.dst;
        self.with_agent(dst, |a, ctx| a.on_packet(ctx, pkt));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use std::sync::{Arc, Mutex};

    /// Agent that sends one UDP packet at start and records deliveries.
    struct OneShot {
        route: Route,
        dst: AgentId,
    }

    impl Agent for OneShot {
        fn start(&mut self, ctx: &mut Ctx) {
            ctx.send(1000, self.dst, self.route.clone(), Payload::Udp);
        }
    }

    struct Recorder {
        log: Arc<Mutex<Vec<(u64, Time)>>>,
    }

    impl Agent for Recorder {
        fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
            self.log.lock().unwrap().push((pkt.id, ctx.now()));
        }
    }

    #[test]
    fn packet_crosses_two_links_with_correct_latency() {
        let mut sim = Simulator::new();
        let l1 = sim.add_link(LinkConfig::droptail(
            "l1",
            1_000_000,
            Dur::from_millis(5.0),
            10_000,
        ));
        let l2 = sim.add_link(LinkConfig::droptail(
            "l2",
            1_000_000,
            Dur::from_millis(5.0),
            10_000,
        ));
        let log = Arc::new(Mutex::new(Vec::new()));
        let sink = sim.add_agent(Box::new(Recorder { log: log.clone() }));
        let route: Route = vec![l1, l2].into();
        sim.add_agent(Box::new(OneShot { route, dst: sink }));
        sim.run_until(Time::from_secs(1.0));
        let got = log.lock().unwrap();
        assert_eq!(got.len(), 1);
        // 2 x (8 ms tx + 5 ms prop) = 26 ms.
        assert_eq!(got[0].1, Time::from_millis(26.0));
    }

    #[test]
    fn run_until_is_idempotent_and_monotonic() {
        let mut sim = Simulator::new();
        sim.run_until(Time::from_secs(1.0));
        assert_eq!(sim.now(), Time::from_secs(1.0));
        sim.run_until(Time::from_secs(0.5));
        assert_eq!(sim.now(), Time::from_secs(1.0), "time must not go back");
    }
}
