//! Network model: hops (links / switch queues) with bandwidth, propagation
//! delay, bounded queues and injectable background cross-traffic.
//!
//! Messages between hosts traverse a configured route (a sequence of
//! hops). Each hop is a FIFO queue served at a fixed rate; background
//! utilization inflates the effective service time and adds stochastic
//! queueing jitter. A hop drops a packet whose queueing delay would exceed
//! the hop's buffering, which is how an "unexpected load on a network
//! switch" (the paper's example fault) manifests to the application as
//! lost/late video frames — while the client's own CPU and socket buffer
//! stay healthy, the signature the buffer-length sensor heuristic of
//! Example 5 relies on.

use std::collections::HashMap;

use crate::event::Message;
use crate::fault::Window;
use crate::ids::{HopId, HostId};
use crate::rng::Rng;
use crate::time::{Dur, SimTime};

/// Latency of same-host IPC (message queues in the prototype).
pub const LOCAL_IPC_DELAY: Dur = Dur::from_micros(5);

/// Highest background utilization accepted; beyond this the hop is
/// effectively dead and service times diverge.
const MAX_BG_UTIL: f64 = 0.98;

/// One store-and-forward element: a link or a switch output queue.
#[derive(Debug)]
pub struct Hop {
    /// Service rate in bytes per second.
    rate: f64,
    /// Propagation delay added after service completes.
    prop_delay: Dur,
    /// Background (cross-traffic) utilization in `[0, MAX_BG_UTIL]`.
    bg_util: f64,
    /// Virtual-queue horizon: when the hop next becomes free.
    busy_until: SimTime,
    /// Maximum tolerated queueing delay; packets that would wait longer
    /// are dropped (models finite switch buffers).
    queue_cap: Dur,
    /// Time windows in which the hop is down and drops every packet
    /// (dead link or flapping switch port).
    outages: Vec<Window>,
    delivered: u64,
    dropped: u64,
    blackout_dropped: u64,
    bytes_forwarded: u64,
    busy: Dur,
}

/// Counters for one hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopStats {
    /// Packets forwarded by this hop.
    pub delivered: u64,
    /// Packets dropped at this hop (tail drop or outage).
    pub dropped: u64,
    /// Of `dropped`, those lost to blackout/flap outage windows.
    pub blackout_dropped: u64,
    /// Payload bytes carried by forwarded packets. Control messages are
    /// charged their encoded frame length, so this is the real
    /// control-plane load.
    pub bytes_forwarded: u64,
    /// Cumulative service time spent forwarding (occupancy). Divide by
    /// elapsed sim time for utilization.
    pub busy: Dur,
}

impl Hop {
    /// Current queueing delay a newly arriving packet would experience.
    fn backlog(&self, now: SimTime) -> Dur {
        self.busy_until.since(now)
    }
}

/// The network: a set of hops plus per-host-pair routes.
#[derive(Debug)]
pub struct Network {
    hops: Vec<Hop>,
    routes: HashMap<(HostId, HostId), Vec<HopId>>,
    rng: Rng,
    local_delivered: u64,
}

impl Network {
    pub(crate) fn new(rng: Rng) -> Self {
        Network {
            hops: Vec::new(),
            routes: HashMap::new(),
            rng,
            local_delivered: 0,
        }
    }

    /// Add a hop (link or switch queue). `rate_bytes_per_sec` is the
    /// service rate; `queue_cap` bounds queueing delay before tail drop.
    pub fn add_hop(&mut self, rate_bytes_per_sec: f64, prop_delay: Dur, queue_cap: Dur) -> HopId {
        assert!(rate_bytes_per_sec > 0.0, "hop rate must be positive");
        let id = HopId(self.hops.len() as u32);
        self.hops.push(Hop {
            rate: rate_bytes_per_sec,
            prop_delay,
            bg_util: 0.0,
            busy_until: SimTime::ZERO,
            queue_cap,
            outages: Vec::new(),
            delivered: 0,
            dropped: 0,
            blackout_dropped: 0,
            bytes_forwarded: 0,
            busy: Dur::ZERO,
        });
        id
    }

    /// Install the route used for traffic from `a` to `b`. Routes are
    /// directional; call twice for symmetric paths.
    pub fn set_route(&mut self, a: HostId, b: HostId, hops: Vec<HopId>) {
        for h in &hops {
            assert!(
                (h.0 as usize) < self.hops.len(),
                "unknown hop {h:?} in route"
            );
        }
        self.routes.insert((a, b), hops);
    }

    /// Install the same hop sequence in both directions.
    pub fn set_route_symmetric(&mut self, a: HostId, b: HostId, hops: Vec<HopId>) {
        self.set_route(a, b, hops.clone());
        self.set_route(b, a, hops);
    }

    /// Set background cross-traffic utilization on a hop (the fault
    /// injection knob for "unexpected load on a network switch").
    pub fn set_bg_util(&mut self, hop: HopId, util: f64) {
        self.hops[hop.0 as usize].bg_util = util.clamp(0.0, MAX_BG_UTIL);
    }

    /// Background utilization of a hop.
    pub fn bg_util(&self, hop: HopId) -> f64 {
        self.hops[hop.0 as usize].bg_util
    }

    /// Take the hop down for one time window: every packet reaching it
    /// inside `[window.from, window.until)` is dropped.
    pub fn add_blackout(&mut self, hop: HopId, window: Window) {
        self.hops[hop.0 as usize].outages.push(window);
    }

    /// Flap the hop: starting at `from`, alternate `down` of outage with
    /// `up` of service until `until`. Models a flapping switch port.
    pub fn add_flap(&mut self, hop: HopId, from: SimTime, until: SimTime, down: Dur, up: Dur) {
        assert!(!down.is_zero(), "flap down-time must be non-zero");
        let mut t = from;
        while t < until {
            let end = (t + down).min(until);
            self.hops[hop.0 as usize].outages.push(Window::new(t, end));
            t = end + up;
        }
    }

    /// Delivery/drop counters for a hop.
    pub fn hop_stats(&self, hop: HopId) -> HopStats {
        let h = &self.hops[hop.0 as usize];
        HopStats {
            delivered: h.delivered,
            dropped: h.dropped,
            blackout_dropped: h.blackout_dropped,
            bytes_forwarded: h.bytes_forwarded,
            busy: h.busy,
        }
    }

    /// Messages delivered host-locally (no network traversal).
    pub fn local_delivered(&self) -> u64 {
        self.local_delivered
    }

    /// Compute the arrival time of `msg` sent now, updating hop queues.
    /// Returns `None` if a hop dropped the packet.
    pub(crate) fn transit(&mut self, msg: &Message, now: SimTime) -> Option<SimTime> {
        if msg.src.host == msg.dst.host {
            self.local_delivered += 1;
            return Some(now + LOCAL_IPC_DELAY);
        }
        let route = self
            .routes
            .get(&(msg.src.host, msg.dst.host))
            .unwrap_or_else(|| {
                panic!(
                    "no route configured from h{} to h{}",
                    msg.src.host.0, msg.dst.host.0
                )
            })
            .clone();
        let mut t = now + LOCAL_IPC_DELAY; // protocol-stack cost at sender
        for hop_id in route {
            let jitter = {
                // Stochastic extra queueing behind cross traffic; zero when
                // the hop is idle of background load.
                let h = &self.hops[hop_id.0 as usize];
                let svc = msg.bytes as f64 / (h.rate * (1.0 - h.bg_util));
                if h.bg_util > 0.0 {
                    Dur::from_secs_f64(self.rng.exponential(svc * h.bg_util))
                } else {
                    Dur::ZERO
                }
            };
            let h = &mut self.hops[hop_id.0 as usize];
            if h.outages.iter().any(|w| w.contains(t)) {
                h.dropped += 1;
                h.blackout_dropped += 1;
                return None;
            }
            if h.backlog(t) > h.queue_cap {
                h.dropped += 1;
                return None;
            }
            let svc = Dur::from_secs_f64(msg.bytes as f64 / (h.rate * (1.0 - h.bg_util)));
            let start = if h.busy_until > t { h.busy_until } else { t };
            h.busy_until = start + svc + jitter;
            h.delivered += 1;
            h.bytes_forwarded += msg.bytes as u64;
            h.busy += svc + jitter;
            t = h.busy_until + h.prop_delay;
        }
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Payload;
    use crate::ids::Endpoint;

    fn msg(src: u32, dst: u32, bytes: u32, at: SimTime) -> Message {
        Message {
            src: Endpoint::new(HostId(src), 1),
            dst: Endpoint::new(HostId(dst), 2),
            bytes,
            sent_at: at,
            payload: Payload::empty(),
        }
    }

    fn net() -> Network {
        Network::new(Rng::new(1))
    }

    #[test]
    fn local_delivery_uses_ipc_delay() {
        let mut n = net();
        let t = SimTime::from_micros(100);
        let arrival = n.transit(&msg(0, 0, 1000, t), t).unwrap();
        assert_eq!(arrival, t + LOCAL_IPC_DELAY);
        assert_eq!(n.local_delivered(), 1);
    }

    #[test]
    fn single_hop_service_and_prop_delay() {
        let mut n = net();
        // 1 MB/s, 1 ms propagation.
        let h = n.add_hop(1_000_000.0, Dur::from_millis(1), Dur::from_secs(1));
        n.set_route(HostId(0), HostId(1), vec![h]);
        let t = SimTime::ZERO;
        let arrival = n.transit(&msg(0, 1, 10_000, t), t).unwrap();
        // service = 10ms, + 1ms prop + 5us stack.
        let expected = t + LOCAL_IPC_DELAY + Dur::from_millis(10) + Dur::from_millis(1);
        assert_eq!(arrival, expected);
    }

    #[test]
    fn back_to_back_packets_queue() {
        let mut n = net();
        let h = n.add_hop(1_000_000.0, Dur::ZERO, Dur::from_secs(10));
        n.set_route(HostId(0), HostId(1), vec![h]);
        let t = SimTime::ZERO;
        let a1 = n.transit(&msg(0, 1, 10_000, t), t).unwrap();
        let a2 = n.transit(&msg(0, 1, 10_000, t), t).unwrap();
        assert_eq!(a2.since(a1), Dur::from_millis(10), "second waits for first");
    }

    #[test]
    fn background_utilization_inflates_service() {
        let mut idle = net();
        let h1 = idle.add_hop(1_000_000.0, Dur::ZERO, Dur::from_secs(10));
        idle.set_route(HostId(0), HostId(1), vec![h1]);
        let base = idle
            .transit(&msg(0, 1, 10_000, SimTime::ZERO), SimTime::ZERO)
            .unwrap();

        let mut busy = net();
        let h2 = busy.add_hop(1_000_000.0, Dur::ZERO, Dur::from_secs(10));
        busy.set_route(HostId(0), HostId(1), vec![h2]);
        busy.set_bg_util(h2, 0.9);
        let loaded = busy
            .transit(&msg(0, 1, 10_000, SimTime::ZERO), SimTime::ZERO)
            .unwrap();
        // 10x inflation at 90% background utilization, plus jitter.
        assert!(
            loaded.since(SimTime::ZERO) >= base.since(SimTime::ZERO).mul_f64(8.0),
            "base {base:?} loaded {loaded:?}"
        );
    }

    #[test]
    fn overloaded_hop_drops() {
        let mut n = net();
        let h = n.add_hop(100_000.0, Dur::ZERO, Dur::from_millis(50));
        n.set_route(HostId(0), HostId(1), vec![h]);
        let t = SimTime::ZERO;
        // Each 10 KB packet takes 100 ms to serve; cap is 50 ms of backlog,
        // so the queue fills almost immediately.
        let mut dropped = 0;
        for _ in 0..20 {
            if n.transit(&msg(0, 1, 10_000, t), t).is_none() {
                dropped += 1;
            }
        }
        assert!(dropped >= 15, "dropped {dropped}");
        assert_eq!(n.hop_stats(h).dropped, dropped);
    }

    #[test]
    fn rerouting_switches_paths() {
        let mut n = net();
        let slow = n.add_hop(100_000.0, Dur::ZERO, Dur::from_secs(10));
        let fast = n.add_hop(10_000_000.0, Dur::ZERO, Dur::from_secs(10));
        n.set_route(HostId(0), HostId(1), vec![slow]);
        n.set_bg_util(slow, 0.9);
        let t = SimTime::ZERO;
        let before = n.transit(&msg(0, 1, 10_000, t), t).unwrap();
        n.set_route(HostId(0), HostId(1), vec![fast]);
        let after = n.transit(&msg(0, 1, 10_000, t), t).unwrap();
        assert!(after < before, "reroute must bypass congestion");
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn missing_route_panics() {
        let mut n = net();
        let m = msg(0, 1, 10, SimTime::ZERO);
        let _ = n.transit(&m, SimTime::ZERO);
    }

    #[test]
    fn blackout_window_drops_then_recovers() {
        let mut n = net();
        let h = n.add_hop(1_000_000.0, Dur::ZERO, Dur::from_secs(10));
        n.set_route(HostId(0), HostId(1), vec![h]);
        n.add_blackout(
            h,
            Window::new(SimTime::from_micros(1_000), SimTime::from_micros(2_000)),
        );
        let before = SimTime::ZERO;
        let during = SimTime::from_micros(1_500);
        let after = SimTime::from_micros(3_000);
        assert!(n.transit(&msg(0, 1, 100, before), before).is_some());
        assert!(n.transit(&msg(0, 1, 100, during), during).is_none());
        assert!(n.transit(&msg(0, 1, 100, after), after).is_some());
        let s = n.hop_stats(h);
        assert_eq!(s.blackout_dropped, 1);
        assert_eq!(s.dropped, 1);
        assert_eq!(s.delivered, 2);
    }

    #[test]
    fn flap_alternates_down_and_up() {
        let mut n = net();
        let h = n.add_hop(1_000_000_000.0, Dur::ZERO, Dur::from_secs(10));
        n.set_route(HostId(0), HostId(1), vec![h]);
        // Down 1ms / up 1ms from t=0 to t=10ms: sends at even ms fail,
        // odd ms succeed (stack delay of 5us keeps t inside the window).
        n.add_flap(
            h,
            SimTime::ZERO,
            SimTime::from_micros(10_000),
            Dur::from_millis(1),
            Dur::from_millis(1),
        );
        for k in 0..10u64 {
            let t = SimTime::from_micros(k * 1_000);
            let got = n.transit(&msg(0, 1, 10, t), t);
            if k % 2 == 0 {
                assert!(got.is_none(), "ms {k} should be down");
            } else {
                assert!(got.is_some(), "ms {k} should be up");
            }
        }
        assert_eq!(n.hop_stats(h).blackout_dropped, 5);
    }

    #[test]
    fn hop_accounts_bytes_and_occupancy() {
        let mut n = net();
        let h = n.add_hop(1_000_000.0, Dur::ZERO, Dur::from_secs(10));
        n.set_route(HostId(0), HostId(1), vec![h]);
        let t = SimTime::ZERO;
        n.transit(&msg(0, 1, 10_000, t), t).unwrap();
        n.transit(&msg(0, 1, 2_500, t), t).unwrap();
        let s = n.hop_stats(h);
        assert_eq!(s.bytes_forwarded, 12_500);
        // 10 ms + 2.5 ms of service at 1 MB/s, no background jitter.
        assert_eq!(s.busy, Dur::from_micros(12_500));
    }

    #[test]
    fn multi_hop_accumulates_delay() {
        let mut n = net();
        let a = n.add_hop(1_000_000.0, Dur::from_millis(2), Dur::from_secs(1));
        let b = n.add_hop(1_000_000.0, Dur::from_millis(3), Dur::from_secs(1));
        n.set_route(HostId(0), HostId(1), vec![a, b]);
        let t = SimTime::ZERO;
        let arrival = n.transit(&msg(0, 1, 1_000, t), t).unwrap();
        // 2 * 1ms service + 2ms + 3ms prop + stack.
        let expected = t + LOCAL_IPC_DELAY + Dur::from_millis(7);
        assert_eq!(arrival, expected);
    }
}
