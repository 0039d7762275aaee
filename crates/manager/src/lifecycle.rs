//! The registration / heartbeat / reap lifecycle of a host manager's
//! processes: the small, hashable half of [`crate::host_core::HostCore`].
//!
//! [`Lifecycle`] decides who is registered, who owes a heartbeat, who has
//! been declared dead and not yet reclaimed, whose late reports are
//! stale, which report is a transport duplicate, and who holds a
//! resource grant the reap must release. It keeps one ordered record per
//! pid and is `Clone + Eq + Hash`, so `tests/model_check.rs` puts it
//! straight into the checker's state: the properties are proved of this
//! code, not of a model of it. The heavy half (rule engine, resource
//! managers) acts on what the methods here return.
//!
//! The paper's prototype assumed managed processes outlive the manager's
//! interest in them; a crashed video client would leave its CPU boost,
//! resident-set grant and working-memory facts behind forever. A process
//! that registers with a heartbeat promise (see
//! [`crate::messages::RegisterMsg::heartbeat`]) is expected to
//! re-register at least that often, and after [`GRACE_PERIODS`] silent
//! periods it is declared dead so the manager can retract its facts and
//! reclaim its allocations. A registration without a heartbeat promise is
//! never reaped: a one-shot registrant (a web server, a game session)
//! must not be declared dead just because it has nothing to say.

use std::collections::BTreeMap;

use qos_sim::{Dur, Pid, SimTime};

/// Missed heartbeat periods tolerated before a process is declared
/// dead. Must absorb transient control-message loss: under p message
/// loss, the false-positive probability per check is p^GRACE_PERIODS.
pub const GRACE_PERIODS: u32 = 4;

/// A violation bit-identical to the previous one from the same pid and
/// arriving within this window is a transport duplicate, not a fresh
/// report: coordinators renotify at a 1 s cadence, so genuine repeats
/// are at least that far apart, while fault-layer duplicates land
/// (near-)simultaneously.
pub const DUP_VIOLATION_WINDOW: Dur = Dur::from_millis(500);

/// Deliberately (re-)introducible defects, so the model checker can show
/// it would catch them. All `false` is the shipped behaviour; where
/// [`qos_buggify::COMPILED_IN`] is false the switches read as constant
/// `false`, like every buggify point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Bugs {
    /// Reclaim forgets to release the resource grant (the classic
    /// "retract facts, leak the allocation" slip).
    pub skip_release_on_reap: bool,
    /// Registration does not cancel a pending reap — the pre-fix
    /// reap/re-register race: the sweep's reclaim phase later destroys a
    /// process that just proved itself alive.
    pub register_ignores_pending: bool,
    /// No duplicate-violation suppression: a redelivered report adapts
    /// twice.
    pub no_violation_dedup: bool,
}

/// What the lifecycle makes of an arriving violation report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// The sender was reaped and has not re-registered: a reordered
    /// report outliving its process. Acting on it would grant a boost no
    /// sweep can reclaim (the pid is no longer tracked).
    Stale,
    /// Bit-identical to the sender's previous report and inside
    /// [`DUP_VIOLATION_WINDOW`]: one violation drives one adaptation.
    Duplicate,
    /// A report to diagnose.
    Fresh,
}

/// A heartbeat promise: a beat every `period`, the last one at
/// `last_beat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Heartbeat {
    period: Dur,
    last_beat: SimTime,
}

impl Heartbeat {
    /// Silent for more than [`GRACE_PERIODS`] periods at `now`?
    fn overdue(&self, now: SimTime) -> bool {
        now.since(self.last_beat) > self.period.mul_f64(GRACE_PERIODS as f64)
    }
}

/// What the lifecycle keeps per pid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
struct Proc {
    registered: bool,
    /// Tombstone: reaped and not re-registered since.
    reaped: bool,
    /// An adaptation has granted this pid a resource.
    grant: bool,
    /// The heartbeat owed, while the pid is tracked: set by a
    /// registration that promises one, cleared by one that does not and
    /// when the pid is declared dead.
    heartbeat: Option<Heartbeat>,
    /// Fingerprint and arrival time of the last admitted report.
    last_violation: Option<(u64, SimTime)>,
}

/// Lifecycle state of every process one host manager knows.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Lifecycle {
    /// Seeded defects (all off in production).
    pub bugs: Bugs,
    /// Ordered, so overdue pids are declared in pid order.
    procs: BTreeMap<Pid, Proc>,
    /// Declared dead, not yet reclaimed. The reap is two-phase so a
    /// heartbeat racing the sweep can cancel the reclamation instead of
    /// leaving a half-registered process; normally both phases run
    /// back-to-back and this is empty between events.
    pending_reap: Vec<Pid>,
}

impl Lifecycle {
    fn proc(&self, pid: Pid) -> Proc {
        self.procs.get(&pid).copied().unwrap_or_default()
    }

    /// A registration (or heartbeat re-registration) from `pid` arrives.
    /// Idempotent and keyed on the pid: returns `true` only when the pid
    /// was not registered before. It counts as a heartbeat, clears the
    /// pid's tombstone and cancels a pending reap — a process that
    /// proved itself alive between the sweep's two phases keeps its
    /// facts and allocations (the reap/re-register race).
    pub fn register(&mut self, now: SimTime, pid: Pid, heartbeat: Option<Dur>) -> bool {
        if !(qos_buggify::COMPILED_IN && self.bugs.register_ignores_pending) {
            self.pending_reap.retain(|&p| p != pid);
        }
        let p = self.procs.entry(pid).or_default();
        p.heartbeat = heartbeat.map(|period| Heartbeat {
            period,
            last_beat: now,
        });
        p.reaped = false;
        !std::mem::replace(&mut p.registered, true)
    }

    /// Classify a violation report from `pid` whose content hashes to
    /// `fingerprint`. A [`Admit::Fresh`] report becomes the pid's
    /// remembered one.
    pub fn admit_violation(&mut self, now: SimTime, pid: Pid, fingerprint: u64) -> Admit {
        let p = self.procs.entry(pid).or_default();
        if p.reaped {
            return Admit::Stale;
        }
        if let Some((prev, at)) = p.last_violation {
            if prev == fingerprint
                && now.since(at) < DUP_VIOLATION_WINDOW
                && !(qos_buggify::COMPILED_IN && self.bugs.no_violation_dedup)
            {
                return Admit::Duplicate;
            }
        }
        p.last_violation = Some((fingerprint, now));
        Admit::Fresh
    }

    /// An adaptation granted `pid` a resource the reap must release.
    pub fn grant(&mut self, pid: Pid) {
        self.procs.entry(pid).or_default().grant = true;
    }

    /// Reap phase A: every tracked pid silent past its grace stops being
    /// tracked and waits for [`Lifecycle::reclaim`].
    pub fn declare(&mut self, now: SimTime) {
        for (&pid, p) in &mut self.procs {
            if p.heartbeat.is_some_and(|h| h.overdue(now)) {
                p.heartbeat = None;
                self.pending_reap.push(pid);
            }
        }
    }

    /// Reap phase B: irrevocably forget every pending pid — registry
    /// entry, fingerprint and grant go, a tombstone stays. Returns the
    /// pids for the caller to clean up after; it releases the resources
    /// of each one that no longer [`Lifecycle::holds_grant`].
    pub fn reclaim(&mut self) -> Vec<Pid> {
        let dead = std::mem::take(&mut self.pending_reap);
        let leaked = qos_buggify::COMPILED_IN && self.bugs.skip_release_on_reap;
        for &pid in &dead {
            let p = self.procs.entry(pid).or_default();
            // A declared pid owes no heartbeat; one that re-registered
            // and stayed pending (the seeded race) keeps its new one.
            *p = Proc {
                reaped: true,
                grant: p.grant && leaked,
                heartbeat: p.heartbeat,
                ..Proc::default()
            };
        }
        dead
    }

    /// Is `pid` registered?
    pub fn is_registered(&self, pid: Pid) -> bool {
        self.proc(pid).registered
    }

    /// Is `pid` owed a liveness sweep (heartbeat promise active)?
    pub fn tracks(&self, pid: Pid) -> bool {
        self.proc(pid).heartbeat.is_some()
    }

    /// Would [`Lifecycle::declare`] at `now` declare anyone dead?
    pub fn any_overdue(&self, now: SimTime) -> bool {
        self.procs
            .values()
            .any(|p| p.heartbeat.is_some_and(|h| h.overdue(now)))
    }

    /// Pids declared dead whose reclamation is still pending.
    pub fn pending_reap(&self) -> &[Pid] {
        &self.pending_reap
    }

    /// Has `pid` been reaped and not re-registered since?
    pub fn is_tombstoned(&self, pid: Pid) -> bool {
        self.proc(pid).reaped
    }

    /// Does `pid` hold a resource grant?
    pub fn holds_grant(&self, pid: Pid) -> bool {
        self.proc(pid).grant
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

    const BEAT: Option<Dur> = Some(Dur::from_secs(1));

    #[test]
    fn silent_process_is_reaped_after_grace() {
        let mut l = Lifecycle::default();
        l.register(t(0), pid(1), BEAT);
        l.declare(t(GRACE_PERIODS as u64));
        assert!(l.pending_reap().is_empty(), "at the limit");
        assert!(!l.any_overdue(t(GRACE_PERIODS as u64)));
        assert!(l.any_overdue(t(GRACE_PERIODS as u64 + 1)));
        l.declare(t(GRACE_PERIODS as u64 + 1));
        assert_eq!(l.pending_reap(), [pid(1)]);
        assert!(!l.tracks(pid(1)), "a declared pid is no longer tracked");
        assert_eq!(l.reclaim(), [pid(1)]);
        l.declare(t(100));
        assert!(l.pending_reap().is_empty(), "declaration is one-shot");
    }

    #[test]
    fn beats_keep_a_process_alive() {
        let mut l = Lifecycle::default();
        l.register(t(0), pid(1), BEAT);
        for s in 1..20 {
            l.register(t(s), pid(1), BEAT);
            l.declare(t(s));
            assert!(l.pending_reap().is_empty());
        }
    }

    #[test]
    fn forget_stops_tracking() {
        let mut l = Lifecycle::default();
        l.register(t(0), pid(1), BEAT);
        l.register(t(0), pid(1), None);
        assert!(!l.tracks(pid(1)));
        l.declare(t(100));
        assert!(l.pending_reap().is_empty());
        assert!(l.is_registered(pid(1)), "a one-shot registrant stays");
    }

    #[test]
    fn reap_returns_only_overdue_in_order() {
        let mut l = Lifecycle::default();
        l.register(t(0), pid(3), BEAT);
        l.register(t(0), pid(1), BEAT);
        l.register(t(0), pid(2), Some(Dur::from_secs(60)));
        l.declare(t(10));
        assert_eq!(l.pending_reap(), [pid(1), pid(3)]);
        assert!(l.tracks(pid(2)), "long-period process unaffected");
    }

    #[test]
    fn re_track_counts_as_beat() {
        let mut l = Lifecycle::default();
        l.register(t(0), pid(1), BEAT);
        l.register(t(10), pid(1), BEAT);
        l.declare(t(11));
        assert!(l.pending_reap().is_empty());
    }
}
