//! The registration / heartbeat / reap lifecycle of a host manager's
//! processes: the small, hashable half of [`crate::host_core::HostCore`].
//!
//! [`Lifecycle`] decides who is registered, who owes a heartbeat, who has
//! been declared dead and not yet reclaimed, whose late reports are
//! stale, which report is a transport duplicate, and who holds a
//! resource grant the reap must release. It is `Clone + Eq + Hash` over
//! ordered maps, so `tests/model_check.rs` puts it straight into the
//! checker's state: the properties are proved of this code, not of a
//! model of it. The heavy half (rule engine, resource managers) acts on
//! what the methods here return.

use std::collections::BTreeMap;

use qos_sim::{Dur, Pid, SimTime};

use crate::liveness::LivenessTracker;

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

/// What the lifecycle keeps per pid, beside the heartbeat bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
struct Proc {
    registered: bool,
    /// Tombstone: reaped and not re-registered since.
    reaped: bool,
    /// An adaptation has granted this pid a resource.
    grant: bool,
    /// Fingerprint and arrival time of the last admitted report.
    last_violation: Option<(u64, SimTime)>,
}

/// Lifecycle state of every process one host manager knows.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Lifecycle {
    /// Seeded defects (all off in production).
    pub bugs: Bugs,
    procs: BTreeMap<Pid, Proc>,
    /// Heartbeat bookkeeping for registrants that promised one.
    liveness: LivenessTracker,
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
        match heartbeat {
            Some(period) => self.liveness.track(pid, period, now),
            None => self.liveness.forget(pid),
        }
        let p = self.procs.entry(pid).or_default();
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
        self.pending_reap.append(&mut self.liveness.reap(now));
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
            *p = Proc {
                reaped: true,
                grant: p.grant && leaked,
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
        self.liveness.tracks(pid)
    }

    /// Would [`Lifecycle::declare`] at `now` declare anyone dead?
    pub fn any_overdue(&self, now: SimTime) -> bool {
        self.liveness.overdue(now).next().is_some()
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
