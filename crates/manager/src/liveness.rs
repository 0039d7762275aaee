//! Process-liveness tracking for the QoS Host Manager.
//!
//! The paper's prototype assumed managed processes outlive the manager's
//! interest in them; a crashed video client would leave its CPU boost,
//! resident-set grant and working-memory facts behind forever. The
//! tracker closes that hole: a process that registers with a heartbeat
//! promise (see [`crate::messages::RegisterMsg::heartbeat`]) is expected
//! to re-register at least that often, and after [`GRACE_PERIODS`]
//! silent periods it is declared dead so the manager can retract its
//! facts and reclaim its allocations.
//!
//! Registration without a heartbeat promise is never reaped — a one-shot
//! registrant (a web server, a game session) must not be declared dead
//! just because it has nothing to say.

use std::collections::BTreeMap;

use qos_sim::{Dur, Pid, SimTime};

/// Missed heartbeat periods tolerated before a process is declared
/// dead. Must absorb transient control-message loss: under p message
/// loss, the false-positive probability per check is p^GRACE_PERIODS.
pub const GRACE_PERIODS: u32 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Expectation {
    period: Dur,
    last_beat: SimTime,
}

/// Tracks which processes owe heartbeats and when they last delivered.
/// Ordered and hashable: it is part of the [`crate::lifecycle::Lifecycle`]
/// state the model checker explores.
#[derive(Debug, Default, Clone, PartialEq, Eq, Hash)]
pub struct LivenessTracker {
    expected: BTreeMap<Pid, Expectation>,
}

impl LivenessTracker {
    /// Empty tracker.
    pub fn new() -> Self {
        LivenessTracker::default()
    }

    /// Start (or refresh) tracking of `pid`, which promised a beat every
    /// `period`. Counts as a beat.
    pub fn track(&mut self, pid: Pid, period: Dur, now: SimTime) {
        self.expected.insert(
            pid,
            Expectation {
                period,
                last_beat: now,
            },
        );
    }

    /// Record a heartbeat. Unknown pids are ignored (a beat is not a
    /// registration).
    pub fn beat(&mut self, pid: Pid, now: SimTime) {
        if let Some(e) = self.expected.get_mut(&pid) {
            e.last_beat = now;
        }
    }

    /// Stop tracking `pid` (clean deregistration or completed reap).
    pub fn forget(&mut self, pid: Pid) {
        self.expected.remove(&pid);
    }

    /// Is `pid` currently tracked?
    pub fn tracks(&self, pid: Pid) -> bool {
        self.expected.contains_key(&pid)
    }

    /// Number of tracked processes.
    pub fn len(&self) -> usize {
        self.expected.len()
    }

    /// Processes overdue by more than [`GRACE_PERIODS`] periods, in pid
    /// order.
    pub fn overdue(&self, now: SimTime) -> impl Iterator<Item = Pid> + '_ {
        self.expected
            .iter()
            .filter(move |(_, e)| now.since(e.last_beat) > e.period.mul_f64(GRACE_PERIODS as f64))
            .map(|(&pid, _)| pid)
    }

    /// The [`LivenessTracker::overdue`] processes, removed from tracking
    /// and returned for cleanup.
    pub fn reap(&mut self, now: SimTime) -> Vec<Pid> {
        let dead: Vec<Pid> = self.overdue(now).collect();
        for pid in &dead {
            self.expected.remove(pid);
        }
        dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qos_sim::HostId;

    fn pid(n: u32) -> Pid {
        Pid {
            host: HostId(0),
            local: n,
        }
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_micros(secs * 1_000_000)
    }

    #[test]
    fn silent_process_is_reaped_after_grace() {
        let mut lt = LivenessTracker::new();
        lt.track(pid(1), Dur::from_secs(1), t(0));
        assert!(lt.reap(t(GRACE_PERIODS as u64)).is_empty(), "at the limit");
        assert_eq!(lt.reap(t(GRACE_PERIODS as u64 + 1)), vec![pid(1)]);
        assert!(!lt.tracks(pid(1)), "reaped pid is forgotten");
        assert!(lt.reap(t(100)).is_empty(), "reap is one-shot");
    }

    #[test]
    fn beats_keep_a_process_alive() {
        let mut lt = LivenessTracker::new();
        lt.track(pid(1), Dur::from_secs(1), t(0));
        for s in 1..20 {
            lt.beat(pid(1), t(s));
            assert!(lt.reap(t(s)).is_empty());
        }
    }

    #[test]
    fn beat_for_unknown_pid_does_not_register() {
        let mut lt = LivenessTracker::new();
        lt.beat(pid(9), t(0));
        assert!(!lt.tracks(pid(9)));
        assert_eq!(lt.len(), 0);
    }

    #[test]
    fn forget_stops_tracking() {
        let mut lt = LivenessTracker::new();
        lt.track(pid(1), Dur::from_secs(1), t(0));
        lt.forget(pid(1));
        assert!(lt.reap(t(100)).is_empty());
    }

    #[test]
    fn reap_returns_only_overdue_in_order() {
        let mut lt = LivenessTracker::new();
        lt.track(pid(3), Dur::from_secs(1), t(0));
        lt.track(pid(1), Dur::from_secs(1), t(0));
        lt.track(pid(2), Dur::from_secs(60), t(0));
        assert_eq!(lt.reap(t(10)), vec![pid(1), pid(3)]);
        assert!(lt.tracks(pid(2)), "long-period process unaffected");
    }

    #[test]
    fn re_track_counts_as_beat() {
        let mut lt = LivenessTracker::new();
        lt.track(pid(1), Dur::from_secs(1), t(0));
        lt.track(pid(1), Dur::from_secs(1), t(10));
        assert!(lt.reap(t(11)).is_empty());
    }
}
