//! Explicit-state model checking of the shipped protocol machines.
//!
//! Nothing here is a model of the code: the checker's state holds the
//! production types themselves — [`Lifecycle`], the registration /
//! heartbeat / reap half of the host manager's core (its real per-pid
//! records with their heartbeat deadlines, real [`GRACE_PERIODS`], real
//! [`DUP_VIOLATION_WINDOW`]), further down the discovery plane's
//! [`DiscClient`], the domain manager's [`Ledger`] of pending stats
//! queries, and at the end the reactor's [`PeerOutQueue`] with the
//! arming hand-off of `qos_net::handoff` — each embedded in an
//! adversarial environment.
//! For the lifecycle that is a control channel that loses and duplicates, a
//! process that may crash silently or reconnect, and a manager that may
//! crash and restart with empty volatile state — any [`FAULTS`] of those
//! per run. A breadth-first search over every reachable state proves
//! four properties the paper's enforcement architecture depends on:
//!
//! - **No lost resource** (quiescent): once the dust settles — budgets
//!   spent, messages drained, reaps done — every resource grant the
//!   manager holds belongs to a registered process. Nothing leaks.
//! - **No double adaptation** (safety): one violation report never
//!   triggers two adaptations within a grant epoch, however the
//!   transport duplicates it (given [`Protocol::dups_trail_closely`]).
//! - **Tracked implies registered** (safety): no half-registered zombie
//!   survives the reap / re-register race.
//! - **Reaped grants are released** (safety): a tombstoned pid holds
//!   nothing.
//!
//! Seeded-bug tests switch on one of the three [`Bugs`] the shipped
//! machine carries (inert wherever buggify is compiled out) and assert
//! the checker catches each with a shortest, printed counterexample.
//!
//! ## Channel fidelity
//!
//! The environment encodes what the real carriers actually guarantee,
//! not an arbitrarily hostile network: registrations travel as
//! connection greetings on a reliable FIFO stream (they are never lost
//! independently — only a manager crash or a reconnect kills them,
//! along with every other in-flight frame on the connection), and a
//! violation can only arrive after the current connection has delivered
//! its greeting (`LiveProcess` replays its greeting on every reconnect).
//! Violations themselves are fire-and-forget: they can be lost (full
//! queue, dead connection) and duplicated, in flight (the sim's fault
//! layer) or at the handler (`live.mgr.dup_frame`).

use qos_check::{check, CheckConfig, Invariant, Model, Outcome};
use qos_core::manager::domain_core::{Ledger, TAG_QUERY_BASE};
use qos_core::manager::lifecycle::{Admit, Bugs, Lifecycle};
use qos_core::prelude::*;
use qos_core::wire::messages::{DiscAssignMsg, DiscLeaseAckMsg};
use qos_net::handoff::{
    after_enqueue, after_inline, after_turn, write_queued, Arm, Bugs as ArmBugs, Drain, Handoff,
    Step,
};
use qos_net::{OutQueueConfig, PeerOutQueue, SendClass};

/// The one modelled process; it promises a heartbeat every [`PERIOD`].
const P: Pid = Pid {
    host: HostId(0),
    local: 1,
};
const PERIOD: Dur = Dur::from_secs(1);
/// One tick of the environment's clock: two heartbeat periods, the
/// coarsest grain that still lands on both sides of each threshold the
/// machine has — on the grace exactly (two ticks, [`GRACE_PERIODS`]
/// periods: alive), past it (three: overdue), past the duplicate window
/// (any tick). At one period per tick the same search is 82 890 states
/// and twice the `model-check` job's time budget.
const TICK: Dur = Dur::from_secs(2);
/// Ticks the environment may let elapse: enough to out-wait the grace,
/// with two to spare.
const TICKS: u8 = 5;
/// Faults the adversary may spend in one run, of any kind and in any
/// mix: a lost report, a duplicated frame (in flight or at the
/// handler), a manager crash, a connection reset.
const FAULTS: u8 = 3;
/// In-flight copies of any one message the channel can hold.
const MAX_INFLIGHT: u8 = 2;
/// Distinct violation reports the process sends.
const MAX_REPORTS: usize = 2;

/// The lifecycle protocol embedded in its adversarial environment.
struct Protocol {
    bugs: Bugs,
    /// When false, the "reaped-grants-are-released" safety net is
    /// removed so a release leak is caught only by the quiescent
    /// no-lost-resource invariant (used to demonstrate that the
    /// quiescent machinery finds leaks on its own).
    release_safety_net: bool,
    /// The one assumption the proof of no-double-adaptation makes about
    /// the carriers: **a transport duplicate trails its original
    /// closely** — the clock does not tick and no other report from the
    /// process is handled (or duplicated) while a duplicated report still
    /// has a copy in flight. It rests on how duplicates arise: the sim's
    /// fault layer queues the copy back to back with its original on the
    /// same FIFO route (`qos-sim`'s `Syscall::Send`), and
    /// `live.mgr.dup_frame` hands the frame to the handler twice in a
    /// row. The shipped filter needs it: it remembers one fingerprint
    /// per pid for `DUP_VIOLATION_WINDOW` (500 ms, half a heartbeat
    /// period). `duplicate_outliving_the_window_adapts_twice` switches
    /// it off and prints what then goes wrong.
    dups_trail_closely: bool,
}

impl Protocol {
    fn with_bugs(bugs: Bugs) -> Self {
        Protocol {
            bugs,
            release_safety_net: true,
            dups_trail_closely: true,
        }
    }

    fn nominal() -> Self {
        Protocol::with_bugs(Bugs::default())
    }

    /// A manager incarnation's empty volatile state.
    fn fresh_host(&self) -> Lifecycle {
        let mut host = Lifecycle::default();
        host.bugs = self.bugs;
        host
    }
}

#[derive(Clone, PartialEq, Eq)]
struct S {
    /// The shipped machine.
    host: Lifecycle,
    /// The instrumented process is alive (sends heartbeats/violations).
    proc_up: bool,
    /// The current connection has delivered its greeting to the current
    /// manager incarnation — the FIFO guarantee: no violation delivery
    /// before this.
    greeting_seen: bool,
    /// Registration/heartbeat frames in flight.
    reg_inflight: u8,
    /// Violation report copies in flight, per report id.
    vio_inflight: [u8; MAX_REPORTS],
    /// The channel duplicated this report and a copy is still in flight.
    duplicated: [bool; MAX_REPORTS],
    /// Next fresh violation report id.
    next_report: u8,
    /// Ghost: reports the manager adapted to in this grant epoch.
    adapted: [bool; MAX_REPORTS],
    /// Ghost: some report triggered two adaptations in one epoch.
    double_adapt: bool,
    /// Remaining nondeterminism budgets.
    ticks_left: u8,
    faults_left: u8,
}

/// One write for the environment's scalars: the derived impl's write per
/// field is a fifth of the run in a debug build. (Leaving a field out
/// would cost collisions, not correctness.)
impl std::hash::Hash for S {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        self.host.hash(h);
        h.write(&[
            self.proc_up as u8,
            self.greeting_seen as u8,
            self.reg_inflight,
            self.vio_inflight[0],
            self.vio_inflight[1],
            self.duplicated[0] as u8,
            self.duplicated[1] as u8,
            self.next_report,
            self.adapted[0] as u8,
            self.adapted[1] as u8,
            self.double_adapt as u8,
            self.ticks_left,
            self.faults_left,
        ]);
    }
}

impl S {
    fn now(&self) -> SimTime {
        SimTime::from_micros(u64::from(TICKS - self.ticks_left) * TICK.as_micros())
    }

    fn deliver_register(&mut self) {
        self.host.register(self.now(), P, Some(PERIOD));
        self.greeting_seen = true;
    }

    /// Hand report `r` to the manager. Every report it admits is
    /// diagnosed and lands a grant (the worst case for leaks).
    fn deliver_violation(&mut self, r: usize) {
        if self.host.admit_violation(self.now(), P, r as u64) == Admit::Fresh {
            self.host.grant(P);
            self.double_adapt |= self.adapted[r];
            self.adapted[r] = true;
        }
    }

    fn take_violation(&mut self, r: usize) {
        self.vio_inflight[r] -= 1;
        self.duplicated[r] &= self.vio_inflight[r] > 0;
    }

    /// Everything in flight dies with its connection.
    fn drop_connection(&mut self) {
        self.reg_inflight = 0;
        self.vio_inflight = [0; MAX_REPORTS];
        self.duplicated = [false; MAX_REPORTS];
        self.greeting_seen = false;
    }
}

impl std::fmt::Debug for S {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let h = &self.host;
        let flag = |b: bool, c: char| if b { c } else { '-' };
        write!(
            f,
            "host[{}{}{}{}{}] t={} proc={} greet={} reg>{} vio>{:?} sent={} adapted={:?}{} \
             budget[t={} faults={}]",
            flag(h.is_registered(P), 'R'),
            flag(h.tracks(P), 'T'),
            flag(!h.pending_reap().is_empty(), 'P'),
            flag(h.holds_grant(P), 'G'),
            flag(h.is_tombstoned(P), 'X'),
            self.now(),
            if self.proc_up { "up" } else { "dead" },
            if self.greeting_seen { "y" } else { "n" },
            self.reg_inflight,
            self.vio_inflight,
            self.next_report,
            self.adapted,
            if self.double_adapt { " DOUBLE" } else { "" },
            self.ticks_left,
            self.faults_left,
        )
    }
}

#[derive(Clone, Copy, Debug)]
enum A {
    /// The process sends a registration/heartbeat frame.
    SendRegister,
    /// The channel duplicates an in-flight registration.
    DupRegister,
    /// The manager receives a registration.
    DeliverRegister,
    /// The process sends a fresh violation report.
    SendViolation,
    /// The channel loses an in-flight violation copy.
    LoseViolation(usize),
    /// The channel duplicates an in-flight violation copy.
    DupViolation(usize),
    /// The manager receives a violation copy.
    DeliverViolation(usize),
    /// `live.mgr.dup_frame`: the manager handles one violation frame
    /// twice in a row.
    DeliverViolationTwice(usize),
    /// One [`TICK`] elapses with no registration processed.
    AdvancePeriod,
    /// A full liveness sweep: declare overdue dead, then reclaim.
    Sweep,
    /// A sweep interrupted between declare and reclaim.
    SweepPartial,
    /// The process dies silently.
    ProcCrash,
    /// The process's connection resets; it reconnects and replays its
    /// greeting. Whatever was in flight on the old connection is gone.
    Reconnect,
    /// The manager crashes and restarts empty; in-flight frames die
    /// with the connections.
    MgrCrash,
}

impl Model for Protocol {
    type State = S;
    type Action = A;

    fn init_states(&self) -> Vec<S> {
        vec![S {
            host: self.fresh_host(),
            proc_up: true,
            greeting_seen: false,
            reg_inflight: 0,
            vio_inflight: [0; MAX_REPORTS],
            duplicated: [false; MAX_REPORTS],
            next_report: 0,
            adapted: [false; MAX_REPORTS],
            double_adapt: false,
            ticks_left: TICKS,
            faults_left: FAULTS,
        }]
    }

    fn actions(&self, s: &S, out: &mut Vec<A>) {
        // The named guard: see `Protocol::dups_trail_closely`.
        let trailing = self
            .dups_trail_closely
            .then(|| s.duplicated.iter().position(|&d| d))
            .flatten();
        if s.proc_up && s.reg_inflight < MAX_INFLIGHT {
            out.push(A::SendRegister);
        }
        if s.faults_left > 0 && s.reg_inflight > 0 && s.reg_inflight < MAX_INFLIGHT {
            out.push(A::DupRegister);
        }
        // (`live.mgr.dup_frame` on a registration is no move of its own:
        // two deliveries in one instant leave the state of one.)
        if s.reg_inflight > 0 {
            out.push(A::DeliverRegister);
        }
        if s.proc_up && (s.next_report as usize) < MAX_REPORTS {
            out.push(A::SendViolation);
        }
        for r in 0..MAX_REPORTS {
            if s.vio_inflight[r] > 0 {
                if s.faults_left > 0 {
                    out.push(A::LoseViolation(r));
                }
                if s.faults_left > 0 && s.vio_inflight[r] < MAX_INFLIGHT && trailing.is_none() {
                    out.push(A::DupViolation(r));
                }
                if s.greeting_seen && trailing.is_none_or(|t| t == r) {
                    out.push(A::DeliverViolation(r));
                    if s.faults_left > 0 {
                        out.push(A::DeliverViolationTwice(r));
                    }
                }
            }
        }
        // Time matters to the machine only while it waits on a heartbeat.
        let overdue = s.host.any_overdue(s.now());
        if s.ticks_left > 0 && trailing.is_none() && s.host.tracks(P) && !overdue {
            out.push(A::AdvancePeriod);
        }
        if overdue || !s.host.pending_reap().is_empty() {
            out.push(A::Sweep);
        }
        if overdue {
            out.push(A::SweepPartial);
        }
        // A connection reset or a manager crash is a move only where
        // there is something for it to destroy (with nothing in flight a
        // reset is a `SendRegister` that allows less).
        let in_flight = s.reg_inflight > 0 || s.vio_inflight != [0; MAX_REPORTS];
        if s.proc_up {
            out.push(A::ProcCrash);
            if s.faults_left > 0 && in_flight {
                out.push(A::Reconnect);
            }
        }
        if s.faults_left > 0 && (in_flight || s.host != self.fresh_host()) {
            out.push(A::MgrCrash);
        }
    }

    fn next(&self, s: &S, a: &A) -> Option<S> {
        let mut n = s.clone();
        match *a {
            A::SendRegister => n.reg_inflight += 1,
            A::DupRegister => {
                n.reg_inflight += 1;
                n.faults_left -= 1;
            }
            A::DeliverRegister => {
                n.reg_inflight -= 1;
                n.deliver_register();
            }
            A::SendViolation => {
                n.vio_inflight[n.next_report as usize] += 1;
                n.next_report += 1;
            }
            A::LoseViolation(r) => {
                n.take_violation(r);
                n.faults_left -= 1;
            }
            A::DupViolation(r) => {
                n.vio_inflight[r] += 1;
                n.duplicated[r] = true;
                n.faults_left -= 1;
            }
            A::DeliverViolation(r) => {
                n.take_violation(r);
                n.deliver_violation(r);
            }
            A::DeliverViolationTwice(r) => {
                n.take_violation(r);
                n.faults_left -= 1;
                n.deliver_violation(r);
                n.deliver_violation(r);
            }
            A::AdvancePeriod => n.ticks_left -= 1,
            A::Sweep => {
                n.host.declare(n.now());
                if !n.host.reclaim().is_empty() {
                    // A reclaim ended the grant epoch: adapting again
                    // after a future re-registration is legitimate.
                    n.adapted = [false; MAX_REPORTS];
                }
            }
            A::SweepPartial => n.host.declare(n.now()),
            A::ProcCrash => n.proc_up = false,
            A::Reconnect => {
                n.faults_left -= 1;
                n.drop_connection();
                n.reg_inflight = 1;
            }
            A::MgrCrash => {
                n.faults_left -= 1;
                n.host = self.fresh_host();
                // Connections die with the manager process. The next
                // incarnation sees a greeting before any violation.
                n.drop_connection();
                n.adapted = [false; MAX_REPORTS];
            }
        }
        Some(n)
    }

    fn invariants(&self) -> Vec<Invariant<Self>> {
        let mut invs = vec![
            Invariant::new("tracked-implies-registered", |_: &Protocol, s: &S| {
                !s.host.tracks(P) || s.host.is_registered(P)
            }),
            Invariant::new("no-double-adaptation", |_: &Protocol, s: &S| {
                !s.double_adapt
            }),
        ];
        if self.release_safety_net {
            invs.push(Invariant::new(
                "reaped-grants-are-released",
                |_: &Protocol, s: &S| !s.host.is_tombstoned(P) || !s.host.holds_grant(P),
            ));
        }
        invs
    }

    fn quiescent_invariants(&self) -> Vec<Invariant<Self>> {
        vec![Invariant::new("no-lost-resource", |_: &Protocol, s: &S| {
            !s.host.holds_grant(P) || s.host.is_registered(P)
        })]
    }
}

// ---------------------------------------------------------------------
// Exhaustive checks
// ---------------------------------------------------------------------

#[test]
fn nominal_protocol_proves_both_invariants() {
    let out = check(&Protocol::nominal(), CheckConfig::default());
    let r = out.report();
    println!(
        "model check (nominal): {} states, {} transitions, depth {}, {} quiescent states",
        r.states, r.transitions, r.depth, r.quiescent
    );
    if let Some(trace) = out.trace_string() {
        panic!("nominal protocol violated an invariant:\n{trace}");
    }
    assert!(!r.truncated, "exploration must be exhaustive: {r:?}");
    assert!(
        r.states > 10_000,
        "suspiciously small state space ({} states): the environment \
         is not exercising the protocol",
        r.states
    );
    assert!(r.transitions > r.states, "{r:?}");
    assert!(
        r.quiescent > 0,
        "no quiescent states means no-lost-resource was never checked"
    );
    // The exact size of the explored space: a change to how `Lifecycle`
    // stores its state that changes what it distinguishes fails here.
    assert_eq!(
        (r.states, r.transitions, r.depth, r.quiescent),
        (40_854, 200_316, 20, 242),
        "the nominal state space moved: {r:?}"
    );
}

// ---------------------------------------------------------------------
// Seeded bugs: the checker must catch each, with a printed trace
// ---------------------------------------------------------------------

/// Expect a violation of `invariant` and return the printed trace.
fn expect_violation(model: &Protocol, invariant: &str) -> String {
    let out = check(model, CheckConfig::default());
    match &out {
        Outcome::Pass(r) => panic!("seeded bug went undetected: {r:?}"),
        Outcome::Violation { invariant: got, .. } => {
            let trace = out.trace_string().expect("violation has a trace");
            println!("{trace}");
            assert_eq!(
                *got, invariant,
                "wrong invariant tripped; counterexample:\n{trace}"
            );
            trace
        }
    }
}

#[test]
fn seeded_reap_register_race_is_caught() {
    if !qos_buggify::compiled_in() {
        return; // the switches are constant false in this build
    }
    let trace = expect_violation(
        &Protocol::with_bugs(Bugs {
            register_ignores_pending: true,
            ..Bugs::default()
        }),
        "tracked-implies-registered",
    );
    // The shortest counterexample must thread the needle: a partial
    // sweep, then a registration inside the reap window.
    assert!(trace.contains("SweepPartial"), "{trace}");
    assert!(trace.contains("DeliverRegister"), "{trace}");
}

#[test]
fn seeded_release_leak_is_caught_by_safety_net() {
    if !qos_buggify::compiled_in() {
        return;
    }
    let trace = expect_violation(
        &Protocol::with_bugs(Bugs {
            skip_release_on_reap: true,
            ..Bugs::default()
        }),
        "reaped-grants-are-released",
    );
    assert!(trace.contains("Sweep"), "{trace}");
}

#[test]
fn seeded_release_leak_is_caught_at_quiescence_without_the_net() {
    if !qos_buggify::compiled_in() {
        return;
    }
    // Remove the safety net: only the quiescent no-lost-resource
    // invariant is left to notice that a reaped process's grant is
    // still held when everything has run dry.
    let model = Protocol {
        release_safety_net: false,
        ..Protocol::with_bugs(Bugs {
            skip_release_on_reap: true,
            ..Bugs::default()
        })
    };
    let trace = expect_violation(&model, "no-lost-resource");
    assert!(trace.contains("DeliverViolation"), "{trace}");
}

/// What the guard stands for. Without it the adversary may hold a
/// duplicate back for a whole heartbeat period, and the shipped filter —
/// which forgets after [`DUP_VIOLATION_WINDOW`] — adapts to it again.
#[test]
fn duplicate_outliving_the_window_adapts_twice() {
    let model = Protocol {
        dups_trail_closely: false,
        ..Protocol::nominal()
    };
    let trace = expect_violation(&model, "no-double-adaptation");
    assert!(trace.contains("DupViolation"), "{trace}");
    assert!(trace.contains("AdvancePeriod"), "{trace}");
}

#[test]
fn seeded_missing_dedup_is_caught() {
    if !qos_buggify::compiled_in() {
        return;
    }
    let trace = expect_violation(
        &Protocol::with_bugs(Bugs {
            no_violation_dedup: true,
            ..Bugs::default()
        }),
        "no-double-adaptation",
    );
    assert!(trace.contains("DeliverViolationTwice"), "{trace}");
}

// ---------------------------------------------------------------------
// CI smoke entry point: a bounded run that stays fast no matter what
// ---------------------------------------------------------------------

#[test]
fn bounded_smoke_check_stays_fast() {
    let out = check(
        &Protocol::nominal(),
        CheckConfig {
            max_depth: 12,
            max_states: 100_000,
        },
    );
    assert!(out.passed(), "{}", out.trace_string().unwrap_or_default());
}

// =====================================================================
// Discovery plane: the federated binding protocol, model-checked
// =====================================================================
//
// The model under check here is the *production* [`DiscClient`] — the
// exact `Copy + Eq + Hash` state machine `host.rs` steps — embedded in
// an adversarial environment: an abstract discovery server whose shard
// decision may move between epochs, a lossy/duplicating channel with
// bounded budgets, and a lease that may be expired out from under the
// client. Two properties from the federation design are proved:
//
// - **No host unassigned** (quiescent): once budgets are spent and
//   every message drained, the host is bound and its binding agrees
//   with the server's — the host sits in exactly one shard.
// - **No double assignment** (safety): the client never *re*binds off
//   a stale-epoch assignment. Accepting one would put the host in two
//   registries at once: the stale manager it just bound to and the one
//   the server currently records.
//
// Channel fidelity, as above: timers are slow next to the control-path
// RTT (renewal fires at half a multi-second lease; an in-flight ack or
// assignment lands long before the next timer), so `RenewDue` is not
// interleaved ahead of a deliverable ack and `RetryDue` not ahead of a
// deliverable assignment. Loss and duplication remain fully
// adversarial within their budgets.

/// The modeled host and its manager endpoint.
fn disc_host() -> HostId {
    HostId(7)
}

fn disc_hm_ep() -> Endpoint {
    Endpoint::new(disc_host(), HOST_MANAGER_PORT)
}

/// The abstract server's shard decision: moves with the epoch, so a
/// stale assignment names a genuinely different domain manager.
fn shard_of(epoch: u64) -> u8 {
    (epoch % 2) as u8
}

fn dm_ep(shard: u8) -> Endpoint {
    Endpoint::new(HostId(100 + shard as u32), DOMAIN_MANAGER_PORT)
}

struct Discovery {
    bugs: DiscBugs,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct DS {
    client: DiscClient,
    /// The server's recorded binding: (epoch, shard).
    server: Option<(u64, u8)>,
    /// Latest announce in flight (epoch); retries overwrite.
    announce: Option<u64>,
    /// Assignment copies in flight: (epoch, shard).
    assigns: [Option<(u64, u8)>; 2],
    /// Renewal in flight (epoch).
    renew: Option<u64>,
    /// Ack in flight (epoch).
    ack: Option<u64>,
    /// Armed client timers.
    retry_armed: bool,
    renew_armed: bool,
    /// Ghost: the client bound off an assignment for an epoch other
    /// than its current one.
    stale_bind: bool,
    /// Nondeterminism budgets.
    losses_left: u8,
    dups_left: u8,
    expires_left: u8,
    /// Renewal-timer budget. The real timer fires forever; bounding it
    /// is what makes the bound steady state quiescent so the quiescent
    /// invariant gets checked at all. See the fairness gate on
    /// [`DA::LeaseExpire`].
    renews_left: u8,
}

impl std::fmt::Debug for DS {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let phase = match self.client.phase {
            DiscPhase::Unbound => "U".to_string(),
            DiscPhase::Announced => "A".to_string(),
            DiscPhase::Bound { domain, .. } => format!("B{}", domain.0),
        };
        write!(
            f,
            "client[{} e={} miss={}] srv={:?} ann>{:?} asg>{:?} rnw>{:?} ack>{:?} \
             timers[retry={} renew={}]{} budget[loss={} dup={} exp={} rnw={}]",
            phase,
            self.client.epoch,
            self.client.misses,
            self.server,
            self.announce,
            self.assigns,
            self.renew,
            self.ack,
            if self.retry_armed { "y" } else { "n" },
            if self.renew_armed { "y" } else { "n" },
            if self.stale_bind { " STALE-BIND" } else { "" },
            self.losses_left,
            self.dups_left,
            self.expires_left,
            self.renews_left,
        )
    }
}

#[derive(Clone, Copy, Debug)]
enum DA {
    /// The server processes the announce and replies with an
    /// assignment.
    DeliverAnnounce,
    /// The channel loses the in-flight announce.
    LoseAnnounce,
    /// The client receives assignment copy `i`.
    DeliverAssign(usize),
    /// The channel loses assignment copy `i`.
    LoseAssign(usize),
    /// The channel duplicates assignment copy `i`.
    DupAssign(usize),
    /// The announce-retry timer fires.
    RetryFires,
    /// The lease-renewal timer fires.
    RenewFires,
    /// The server processes the renewal (ack only if the epoch matches
    /// its recorded binding).
    DeliverRenew,
    /// The channel loses the in-flight renewal.
    LoseRenew,
    /// The client receives the ack.
    DeliverAck,
    /// The channel loses the in-flight ack.
    LoseAck,
    /// The server's lease sweep expires the binding.
    LeaseExpire,
}

impl DS {
    /// Execute the actions a client step returned, updating wires and
    /// timers. `Bind`/`Unbind` need no handling here: the binding
    /// itself lives inside the client state.
    fn run(&mut self, actions: Vec<DiscAction>) {
        for a in actions {
            match a {
                DiscAction::Announce(m) => self.announce = Some(m.epoch),
                DiscAction::Renew(m) => self.renew = Some(m.epoch),
                DiscAction::ScheduleRetry => self.retry_armed = true,
                DiscAction::ScheduleRenew(_) => self.renew_armed = true,
                DiscAction::Bind { .. } | DiscAction::Unbind => {}
            }
        }
    }

    fn bound(&self) -> bool {
        matches!(self.client.phase, DiscPhase::Bound { .. })
    }

    fn assign_slot_free(&self) -> Option<usize> {
        self.assigns.iter().position(Option::is_none)
    }
}

impl Model for Discovery {
    type State = DS;
    type Action = DA;

    fn init_states(&self) -> Vec<DS> {
        let mut client = DiscClient::new(disc_host(), disc_hm_ep());
        client.bugs = self.bugs;
        let mut s = DS {
            client,
            server: None,
            announce: None,
            assigns: [None; 2],
            renew: None,
            ack: None,
            retry_armed: false,
            renew_armed: false,
            stale_bind: false,
            losses_left: 2,
            dups_left: 1,
            expires_left: 1,
            // Enough for the worst case the LeaseExpire gate admits.
            renews_left: (MAX_RENEW_MISSES + 1) * (MAX_RENEW_MISSES + 2),
        };
        let kick = s.client.step(DiscEvent::Kick);
        s.run(kick);
        vec![s]
    }

    fn actions(&self, s: &DS, out: &mut Vec<DA>) {
        if s.announce.is_some() {
            if s.assign_slot_free().is_some() {
                out.push(DA::DeliverAnnounce);
            }
            if s.losses_left > 0 {
                out.push(DA::LoseAnnounce);
            }
        }
        for i in 0..s.assigns.len() {
            if s.assigns[i].is_some() {
                out.push(DA::DeliverAssign(i));
                if s.losses_left > 0 {
                    out.push(DA::LoseAssign(i));
                }
                if s.dups_left > 0 && s.assign_slot_free().is_some() {
                    out.push(DA::DupAssign(i));
                }
            }
        }
        // Timer fidelity: a retry fires only with nothing deliverable
        // in flight (both timers are long next to one RTT), and a
        // renewal only with no renewal or ack pending.
        if s.retry_armed
            && !s.bound()
            && s.announce.is_none()
            && s.assigns.iter().all(Option::is_none)
        {
            out.push(DA::RetryFires);
        }
        if s.renew_armed && s.bound() && s.renew.is_none() && s.ack.is_none() && s.renews_left > 0 {
            out.push(DA::RenewFires);
        }
        if s.renew.is_some() {
            out.push(DA::DeliverRenew);
            if s.losses_left > 0 {
                out.push(DA::LoseRenew);
            }
        }
        if s.ack.is_some() {
            out.push(DA::DeliverAck);
            if s.losses_left > 0 {
                out.push(DA::LoseAck);
            }
        }
        // Fairness gate: the real renewal timer fires forever, so a
        // client always *eventually* notices an expired lease (three
        // unacked renewals, then a rediscovery). The budgeted model may
        // only expire the lease while enough timer firings remain for
        // that observation — otherwise the expiry would wedge the model
        // in a state reality always escapes. Every same-epoch message
        // still deliverable afterwards (an assignment copy, a future
        // duplicate, an in-flight ack) can reset the miss counter once,
        // costing up to MAX_RENEW_MISSES extra firings each.
        if s.server.is_some() && s.expires_left > 0 {
            let resets =
                s.assigns.iter().flatten().count() as u8 + s.dups_left + u8::from(s.ack.is_some());
            let needed = (MAX_RENEW_MISSES + 1) + MAX_RENEW_MISSES * resets;
            if s.renews_left >= needed {
                out.push(DA::LeaseExpire);
            }
        }
    }

    fn next(&self, s: &DS, a: &DA) -> Option<DS> {
        let mut n = s.clone();
        match *a {
            DA::DeliverAnnounce => {
                let e = n.announce.take().expect("enabled");
                let shard = shard_of(e);
                n.server = Some((e, shard));
                let slot = n.assign_slot_free().expect("enabled");
                n.assigns[slot] = Some((e, shard));
            }
            DA::LoseAnnounce => {
                n.announce = None;
                n.losses_left -= 1;
            }
            DA::DeliverAssign(i) => {
                let (e, shard) = n.assigns[i].take().expect("enabled");
                let pre_epoch = n.client.epoch;
                let actions = n.client.step(DiscEvent::Assign(DiscAssignMsg {
                    host: disc_host(),
                    epoch: e,
                    domain: DomainId(shard as u32 + 1),
                    manager: dm_ep(shard),
                    lease: DISCOVERY_LEASE,
                }));
                let bound_it = actions.iter().any(|x| matches!(x, DiscAction::Bind { .. }));
                if bound_it && e != pre_epoch {
                    n.stale_bind = true;
                }
                n.run(actions);
            }
            DA::LoseAssign(i) => {
                n.assigns[i] = None;
                n.losses_left -= 1;
            }
            DA::DupAssign(i) => {
                let copy = n.assigns[i];
                let slot = n.assign_slot_free().expect("enabled");
                n.assigns[slot] = copy;
                n.dups_left -= 1;
            }
            DA::RetryFires => {
                n.retry_armed = false;
                let actions = n.client.step(DiscEvent::RetryDue);
                n.run(actions);
            }
            DA::RenewFires => {
                n.renew_armed = false;
                n.renews_left -= 1;
                let actions = n.client.step(DiscEvent::RenewDue);
                n.run(actions);
            }
            DA::DeliverRenew => {
                let e = n.renew.take().expect("enabled");
                if n.server.is_some_and(|(se, _)| se == e) {
                    n.ack = Some(e);
                }
            }
            DA::LoseRenew => {
                n.renew = None;
                n.losses_left -= 1;
            }
            DA::DeliverAck => {
                let e = n.ack.take().expect("enabled");
                let actions = n.client.step(DiscEvent::Ack(DiscLeaseAckMsg {
                    host: disc_host(),
                    epoch: e,
                    lease: DISCOVERY_LEASE,
                }));
                n.run(actions);
            }
            DA::LoseAck => {
                n.ack = None;
                n.losses_left -= 1;
            }
            DA::LeaseExpire => {
                n.server = None;
                n.expires_left -= 1;
            }
        }
        Some(n)
    }

    fn invariants(&self) -> Vec<Invariant<Self>> {
        vec![Invariant::new(
            "no-double-assignment",
            |_: &Discovery, s: &DS| !s.stale_bind,
        )]
    }

    fn quiescent_invariants(&self) -> Vec<Invariant<Self>> {
        vec![Invariant::new(
            "no-host-unassigned",
            |_: &Discovery, s: &DS| {
                // Budgets spent, wires drained: the host must be bound and
                // the server must agree — in exactly one shard.
                match s.client.phase {
                    DiscPhase::Bound { domain, .. } => s.server.is_some_and(|(e, shard)| {
                        e == s.client.epoch && DomainId(shard as u32 + 1) == domain
                    }),
                    _ => false,
                }
            },
        )]
    }
}

#[test]
fn discovery_protocol_proves_binding_invariants() {
    let out = check(
        &Discovery {
            bugs: DiscBugs::default(),
        },
        CheckConfig::default(),
    );
    let r = out.report();
    println!(
        "model check (discovery): {} states, {} transitions, depth {}, {} quiescent states",
        r.states, r.transitions, r.depth, r.quiescent
    );
    if let Some(trace) = out.trace_string() {
        panic!("discovery protocol violated an invariant:\n{trace}");
    }
    assert!(!r.truncated, "exploration must be exhaustive: {r:?}");
    assert!(
        r.states > 200,
        "suspiciously small state space ({} states)",
        r.states
    );
    assert!(
        r.quiescent > 0,
        "no quiescent states means no-host-unassigned was never checked"
    );
    assert_eq!(
        (r.states, r.transitions, r.depth, r.quiescent),
        (6_473, 14_529, 68, 30),
        "the discovery state space moved: {r:?}"
    );
}

/// Expect a violation from a buggy discovery client.
fn expect_disc_violation(bugs: DiscBugs, invariant: &str) -> String {
    let out = check(&Discovery { bugs }, CheckConfig::default());
    match &out {
        Outcome::Pass(r) => panic!("seeded discovery bug went undetected: {r:?}"),
        Outcome::Violation { invariant: got, .. } => {
            let trace = out.trace_string().expect("violation has a trace");
            println!("{trace}");
            assert_eq!(
                *got, invariant,
                "wrong invariant tripped; counterexample:\n{trace}"
            );
            trace
        }
    }
}

#[test]
fn seeded_stale_assign_acceptance_is_caught() {
    let trace = expect_disc_violation(
        DiscBugs {
            accept_stale_assign: true,
            ..DiscBugs::default()
        },
        "no-double-assignment",
    );
    // The counterexample needs a duplicated assignment surviving into
    // a later epoch: rediscovery, then the echo delivered.
    assert!(trace.contains("DupAssign"), "{trace}");
    assert!(trace.contains("DeliverAssign"), "{trace}");
}

#[test]
fn seeded_forgotten_retry_is_caught_at_quiescence() {
    let trace = expect_disc_violation(
        DiscBugs {
            forget_retry: true,
            ..DiscBugs::default()
        },
        "no-host-unassigned",
    );
    // One lost announce plus the forgotten timer wedges the host
    // outside the federation.
    assert!(
        trace.contains("LoseAnnounce") || trace.contains("RetryFires"),
        "{trace}"
    );
}

// =====================================================================
// Domain manager: the stats-query ledger, model-checked
// =====================================================================
//
// The model under check is the production [`Ledger`] — the pending
// stats queries, their deadlines and the route-version gate that
// `DomainCore` steps — parking a one-byte alert id where the shipped
// core parks a `DomainAlertMsg`. Its effects are read back from the
// buffer it writes: a query in flight per `StatsQuery`, an armed
// deadline per `SetTimer`. The environment loses, duplicates and
// delays replies past their deadline (a deadline may fire at any
// moment while armed), crashes the server-side host manager mid-query
// so no reply ever comes, and reorders and duplicates route pushes.
// Four properties are proved:
//
// 1. Every in-shard alert is diagnosed exactly once, by its reply or by
//    its deadline (safety: at most once; quiescent: exactly once).
// 2. A late or duplicate reply diagnoses nothing, and is counted in the
//    ledger's late replies (safety).
// 3. Nothing is pending at quiescence.
// 4. The applied route version never goes backwards (safety), and at
//    quiescence it equals the highest version delivered.

/// Alerts the client side raises, each about a host in the shard.
const DM_ALERTS: usize = 2;
/// Route-push versions the discovery server sends, `1..=DM_PUSHES`.
const DM_PUSHES: usize = 2;
/// Faults the adversary may spend: a lost or duplicated reply, a
/// duplicated push, a crash of the server-side host manager.
const DM_FAULTS: u8 = 3;
/// In-flight copies of any one reply or push.
const DM_COPIES: u8 = 2;

fn dm_server_hm() -> Endpoint {
    Endpoint::new(HostId(1), HOST_MANAGER_PORT)
}

fn dm_self() -> Endpoint {
    Endpoint::new(HostId(0), DOMAIN_MANAGER_PORT)
}

struct Domain;

#[derive(Clone, PartialEq, Eq, Hash)]
struct DmS {
    /// The shipped machine.
    ledger: Ledger<u8>,
    /// Alerts raised so far; the next one raised is this id.
    raised: u8,
    /// A stats query in flight, per correlation id.
    queries: [bool; DM_ALERTS],
    /// A deadline armed, per correlation id.
    armed: [bool; DM_ALERTS],
    /// Reply copies in flight, per correlation id.
    replies: [u8; DM_ALERTS],
    /// The server-side host manager answers queries.
    server_up: bool,
    /// Push copies in flight, per version (`v` at index `v - 1`).
    pushes: [u8; DM_PUSHES],
    /// Pushes the discovery server has sent.
    pushed: u8,
    /// Ghost: diagnoses per alert.
    diagnosed: [u8; DM_ALERTS],
    /// Ghost: query settled — its deadline fired or a reply landed —
    /// per correlation id; a reply landing after that is late.
    settled: [bool; DM_ALERTS],
    /// Ghost: late replies delivered.
    late: u64,
    /// Ghost: such a reply diagnosed.
    late_diagnosed: bool,
    /// Ghost: the highest push version delivered.
    highest: u64,
    /// Ghost: a delivered push moved the applied version back.
    went_back: bool,
    faults_left: u8,
}

impl std::fmt::Debug for DmS {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ledger[pending={} late={} v={}] raised={} q>{:?} armed={:?} rep>{:?} \
             server={} push>{:?} diagnosed={:?} late={}{} highest={}{} faults={}",
            self.ledger.pending(),
            self.ledger.late_replies(),
            self.ledger.version(),
            self.raised,
            self.queries,
            self.armed,
            self.replies,
            if self.server_up { "up" } else { "crashed" },
            self.pushes,
            self.diagnosed,
            self.late,
            if self.late_diagnosed {
                " LATE-DIAGNOSIS"
            } else {
                ""
            },
            self.highest,
            if self.went_back { " WENT-BACK" } else { "" },
            self.faults_left,
        )
    }
}

#[derive(Clone, Copy, Debug)]
enum DmA {
    /// A client-side host manager's alert reaches the domain manager,
    /// which parks it and queries the server side.
    Raise,
    /// The server-side host manager receives query `c` and, if up,
    /// replies.
    DeliverQuery(usize),
    /// The server-side host manager crashes: it never replies again.
    CrashServer,
    /// The channel loses a copy of reply `c`.
    LoseReply(usize),
    /// The channel duplicates a copy of reply `c`.
    DupReply(usize),
    /// The domain manager receives a copy of reply `c`.
    DeliverReply(usize),
    /// Query `c`'s deadline fires.
    Deadline(usize),
    /// The discovery server sends its next route push.
    SendPush,
    /// The channel duplicates a copy of push `v`.
    DupPush(usize),
    /// The domain manager receives a copy of push `v`, in any order.
    DeliverPush(usize),
}

impl DmS {
    /// Read the ledger's effects back into the environment.
    fn run(&mut self, effects: Vec<Effect>) {
        for e in effects {
            match e {
                Effect::SendCtrl(dst, WireMsg::StatsQuery(q)) if dst == dm_server_hm() => {
                    assert_eq!(q.reply_to, dm_self());
                    self.queries[q.correlation as usize] = true;
                }
                Effect::SetTimer(_, tag) => self.armed[(tag - TAG_QUERY_BASE) as usize] = true,
                other => panic!("the ledger does not decide {other:?}"),
            }
        }
    }

    fn diagnose(&mut self, alert: Option<u8>) {
        if let Some(a) = alert {
            self.diagnosed[a as usize] += 1;
        }
    }
}

impl Model for Domain {
    type State = DmS;
    type Action = DmA;

    fn init_states(&self) -> Vec<DmS> {
        vec![DmS {
            ledger: Ledger::default(),
            raised: 0,
            queries: [false; DM_ALERTS],
            armed: [false; DM_ALERTS],
            replies: [0; DM_ALERTS],
            server_up: true,
            pushes: [0; DM_PUSHES],
            pushed: 0,
            diagnosed: [0; DM_ALERTS],
            settled: [false; DM_ALERTS],
            late: 0,
            late_diagnosed: false,
            highest: 0,
            went_back: false,
            faults_left: DM_FAULTS,
        }]
    }

    fn actions(&self, s: &DmS, out: &mut Vec<DmA>) {
        let fault = s.faults_left > 0;
        if (s.raised as usize) < DM_ALERTS {
            out.push(DmA::Raise);
        }
        if fault && s.server_up && s.queries.contains(&true) {
            out.push(DmA::CrashServer);
        }
        for c in 0..DM_ALERTS {
            if s.queries[c] {
                out.push(DmA::DeliverQuery(c));
            }
            if s.replies[c] > 0 {
                out.push(DmA::DeliverReply(c));
                if fault {
                    out.push(DmA::LoseReply(c));
                }
                if fault && s.replies[c] < DM_COPIES {
                    out.push(DmA::DupReply(c));
                }
            }
            if s.armed[c] {
                out.push(DmA::Deadline(c));
            }
        }
        if (s.pushed as usize) < DM_PUSHES {
            out.push(DmA::SendPush);
        }
        for v in 0..DM_PUSHES {
            if s.pushes[v] > 0 {
                out.push(DmA::DeliverPush(v));
                if fault && s.pushes[v] < DM_COPIES {
                    out.push(DmA::DupPush(v));
                }
            }
        }
    }

    fn next(&self, s: &DmS, a: &DmA) -> Option<DmS> {
        let mut n = s.clone();
        match *a {
            DmA::Raise => {
                let mut effects = Vec::new();
                n.ledger
                    .open(n.raised, dm_server_hm(), dm_self(), &mut effects);
                n.raised += 1;
                n.run(effects);
            }
            DmA::DeliverQuery(c) => {
                n.queries[c] = false;
                if n.server_up {
                    n.replies[c] += 1;
                }
            }
            DmA::CrashServer => {
                n.server_up = false;
                n.faults_left -= 1;
            }
            DmA::LoseReply(c) => {
                n.replies[c] -= 1;
                n.faults_left -= 1;
            }
            DmA::DupReply(c) => {
                n.replies[c] += 1;
                n.faults_left -= 1;
            }
            DmA::DeliverReply(c) => {
                n.replies[c] -= 1;
                let alert = n.ledger.answer(c as u64);
                if std::mem::replace(&mut n.settled[c], true) {
                    n.late += 1;
                    n.late_diagnosed |= alert.is_some();
                }
                n.diagnose(alert);
            }
            DmA::Deadline(c) => {
                n.armed[c] = false;
                n.settled[c] = true;
                let alert = n.ledger.expire(c as u64);
                n.diagnose(alert);
            }
            DmA::SendPush => {
                n.pushes[n.pushed as usize] += 1;
                n.pushed += 1;
            }
            DmA::DupPush(v) => {
                n.pushes[v] += 1;
                n.faults_left -= 1;
            }
            DmA::DeliverPush(v) => {
                n.pushes[v] -= 1;
                let (before, version) = (n.ledger.version(), v as u64 + 1);
                n.ledger.admit_routes(version);
                n.went_back |= n.ledger.version() < before;
                n.highest = n.highest.max(version);
            }
        }
        Some(n)
    }

    fn invariants(&self) -> Vec<Invariant<Self>> {
        vec![
            Invariant::new("diagnosed-at-most-once", |_, s: &DmS| {
                s.diagnosed.iter().all(|&d| d <= 1)
            }),
            Invariant::new(
                "late-reply-diagnoses-nothing-and-is-counted",
                |_, s: &DmS| !s.late_diagnosed && s.ledger.late_replies() == s.late,
            ),
            Invariant::new("route-version-never-goes-back", |_, s: &DmS| !s.went_back),
        ]
    }

    fn quiescent_invariants(&self) -> Vec<Invariant<Self>> {
        vec![
            Invariant::new("nothing-pending", |_, s: &DmS| s.ledger.pending() == 0),
            Invariant::new("diagnosed-exactly-once", |_, s: &DmS| {
                s.diagnosed.iter().all(|&d| d == 1)
            }),
            Invariant::new("route-version-is-the-highest-delivered", |_, s: &DmS| {
                s.ledger.version() == s.highest
            }),
        ]
    }
}

#[test]
fn domain_ledger_proves_its_four_properties() {
    let out = check(&Domain, CheckConfig::default());
    let r = out.report();
    println!(
        "model check (domain ledger): {} states, {} transitions, depth {}, {} quiescent states",
        r.states, r.transitions, r.depth, r.quiescent
    );
    if let Some(trace) = out.trace_string() {
        panic!("the domain ledger violated a property:\n{trace}");
    }
    assert!(!r.truncated, "exploration must be exhaustive: {r:?}");
    assert!(
        r.quiescent > 0,
        "no quiescent states means the quiescent properties were never checked"
    );
    assert_eq!(
        (r.states, r.transitions, r.depth, r.quiescent),
        (14_022, 64_818, 18, 27),
        "the domain ledger state space moved: {r:?}"
    );
}

// =====================================================================
// The reactor's arming hand-off, model-checked
// =====================================================================
//
// One reactor thread owns the epoll set; a peer's fd is one-shot, so an
// event disarms it and only a MOD arms it again. Two senders (a reply
// written inline when the queue is empty, and one always left to a
// turn) race the reactor's turn for the peer. The state holds the
// shipped [`PeerOutQueue`], and every transition runs the shipped code
// at the point the reactor runs it: [`after_enqueue`] and
// [`after_inline`] under a sender's `out` lock, [`write_queued`] against
// a socket that may fill after any write, [`after_turn`] under the
// turn's `out` lock, and the lock-and-MOD order of [`Handoff::arm`],
// one step per action. The kernel side is epoll's: a MOD replaces the
// interest, and an armed fd reports while it has input or, armed for
// writing, room. One model action is one lock, one `try_lock` with
// what runs under it, one MOD or one unlock. Two properties are proved:
//
// 1. **Nothing stranded** (quiescent): no frame stays queued while its
//    fd is disarmed, or armed without EPOLLOUT, and no event is pending.
// 2. **In order** (safety): the socket receives frames in the order
//    they were enqueued.

/// Frames each sender sends.
const HANDOFF_FRAMES: u8 = 2;
/// Times the socket may fill up after a write (the peer then reads,
/// and it has room again).
const HANDOFF_FILLS: u8 = 1;
/// Times the peer may send the manager bytes, each giving the reactor
/// a turn that reads them.
const HANDOFF_ARRIVALS: u8 = 1;

/// The two senders: a reply sent with `send_control` (inline) and one
/// sent with `queue_control` (left to a turn).
const HANDOFF_INLINE: [bool; 2] = [true, false];

struct HandoffModel {
    handoff: Handoff,
}

/// Where a sender is in its current send.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum SPc {
    /// About to lock `out` and queue its next frame.
    Ready,
    /// Holds `out`; about to `try_lock` the socket and write.
    Inline,
    /// Holds `out` (until an `Unlock` step); the arm's steps left.
    Arming(Vec<Step>),
}

/// Where the reactor thread is.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum RPc {
    /// In `epoll_wait`.
    Wait,
    /// Its turn: about to lock `out` and the socket and drain.
    Drain,
    /// About to lock the socket and read.
    Read,
    /// Holds the socket, reading.
    Reading,
    /// About to lock `out` and decide the turn's arm.
    End,
    /// Holds `out` (until an `Unlock` step); the arm's steps left.
    Arming(Vec<Step>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Holder {
    Sender(usize),
    Reactor,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct HS {
    /// The shipped queue.
    out: PeerOutQueue,
    out_lock: Option<Holder>,
    /// What the fd is armed with (`None`: disarmed).
    armed: Option<Arm>,
    /// The peer sent bytes the reactor has not read.
    input: bool,
    /// The socket has room for a write.
    room: bool,
    senders: [(u8, SPc); 2],
    reactor: RPc,
    fills_left: u8,
    arrivals_left: u8,
    /// Ghost: bytes in enqueue order.
    enqueued: Vec<u8>,
    /// Ghost: bytes the socket took, in order.
    wire: Vec<u8>,
}

impl std::fmt::Debug for HS {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Frame `[s, k]` is sender `s`'s `k`-th, shown as `s.k`.
        let frames = |b: &[u8]| {
            b.chunks(2)
                .map(|c| format!("{}.{}", c[0], c[1]))
                .collect::<Vec<_>>()
                .join(" ")
        };
        write!(
            f,
            "queued={}B out_lock={:?} armed={:?} input={} room={} senders={:?} \
             reactor={:?} fills={} arrivals={} wire=[{}]",
            self.out.pending_bytes(),
            self.out_lock,
            self.armed,
            self.input,
            self.room,
            self.senders,
            self.reactor,
            self.fills_left,
            self.arrivals_left,
            frames(&self.wire),
        )
    }
}

#[derive(Debug, Clone)]
enum HA {
    /// Sender `s` locks `out`, queues its frame and decides.
    Enqueue(usize),
    /// Sender `s` tries the socket; a write fills it if `fill`.
    Inline(usize, bool),
    /// Sender `s` runs its arm's next step.
    SenderStep(usize),
    /// `epoll_wait` returns the peer's event, which disarms the fd.
    Event,
    /// The turn drains `out`; a write fills the socket if `fill`.
    Drain(bool),
    ReadStart,
    ReadEnd,
    /// The turn locks `out` and decides its arm.
    TurnEnd,
    /// The reactor runs its arm's next step.
    ReactorStep,
    /// The peer sends the manager bytes.
    Arrive,
    /// The peer reads what the socket holds: it has room again.
    PeerReads,
}

/// The model's socket: takes a whole chunk while it has room, and fills
/// after the write if told to.
struct ModelSock<'a> {
    room: &'a mut bool,
    wire: &'a mut Vec<u8>,
    fill: bool,
}

impl std::io::Write for ModelSock<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if !*self.room {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        self.wire.extend_from_slice(buf);
        if self.fill {
            *self.room = false;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl HS {
    /// Run `write_queued` against the model's socket.
    fn drain(&mut self, fill: bool) -> Drain {
        if fill {
            self.fills_left -= 1;
        }
        let mut sock = ModelSock {
            room: &mut self.room,
            wire: &mut self.wire,
            fill,
        };
        write_queued(&mut self.out, &mut sock).0
    }

    /// Run one arm step for `who`; the remaining steps, if any.
    fn step(&mut self, who: Holder, steps: &[Step]) -> Option<Vec<Step>> {
        match steps[0] {
            Step::Mod(arm) => self.armed = Some(arm),
            Step::Unlock => {
                debug_assert_eq!(self.out_lock, Some(who));
                self.out_lock = None;
            }
        }
        (steps.len() > 1).then(|| steps[1..].to_vec())
    }

    /// An armed fd with input, or with room while armed for writing,
    /// has an event pending.
    fn event_pending(&self) -> bool {
        match self.armed {
            None => false,
            Some(arm) => self.input || (arm == Arm::ReadWrite && self.room),
        }
    }
}

impl Model for HandoffModel {
    type State = HS;
    type Action = HA;

    fn init_states(&self) -> Vec<HS> {
        vec![HS {
            out: PeerOutQueue::new(OutQueueConfig::default()),
            out_lock: None,
            // Accepted peers are registered for input, one-shot.
            armed: Some(Arm::Read),
            input: false,
            room: true,
            senders: [(0, SPc::Ready), (0, SPc::Ready)],
            reactor: RPc::Wait,
            fills_left: HANDOFF_FILLS,
            arrivals_left: HANDOFF_ARRIVALS,
            enqueued: Vec::new(),
            wire: Vec::new(),
        }]
    }

    fn actions(&self, s: &HS, out: &mut Vec<HA>) {
        let fills: &[bool] = if s.fills_left > 0 {
            &[false, true]
        } else {
            &[false]
        };
        for (i, (sent, pc)) in s.senders.iter().enumerate() {
            match pc {
                SPc::Ready if *sent < HANDOFF_FRAMES && s.out_lock.is_none() => {
                    out.push(HA::Enqueue(i))
                }
                SPc::Ready => {}
                SPc::Inline => out.extend(fills.iter().map(|&f| HA::Inline(i, f))),
                SPc::Arming(_) => out.push(HA::SenderStep(i)),
            }
        }
        match &s.reactor {
            RPc::Wait if s.event_pending() => out.push(HA::Event),
            RPc::Wait => {}
            RPc::Drain if s.out_lock.is_none() => out.extend(fills.iter().map(|&f| HA::Drain(f))),
            RPc::Read => out.push(HA::ReadStart),
            RPc::Reading => out.push(HA::ReadEnd),
            RPc::End if s.out_lock.is_none() => out.push(HA::TurnEnd),
            RPc::Drain | RPc::End => {}
            RPc::Arming(_) => out.push(HA::ReactorStep),
        }
        if s.arrivals_left > 0 {
            out.push(HA::Arrive);
        }
        if !s.room {
            out.push(HA::PeerReads);
        }
    }

    fn next(&self, s: &HS, a: &HA) -> Option<HS> {
        let mut n = s.clone();
        match *a {
            HA::Enqueue(i) => {
                n.out_lock = Some(Holder::Sender(i));
                let idle = !n.out.has_pending();
                let frame = [i as u8, n.senders[i].0];
                n.out.enqueue(SendClass::Control, &frame);
                n.enqueued.extend_from_slice(&frame);
                n.senders[i].1 = match after_enqueue(idle, HANDOFF_INLINE[i]) {
                    None => SPc::Inline,
                    Some(arm) => SPc::Arming(self.handoff.arm(arm).to_vec()),
                };
            }
            HA::Inline(i, fill) => {
                // `try_lock` fails while the turn reads.
                let reading = n.reactor == RPc::Reading;
                let drain = (!reading).then(|| n.drain(fill));
                match after_inline(drain) {
                    None => {
                        n.out_lock = None;
                        n.senders[i] = (n.senders[i].0 + 1, SPc::Ready);
                    }
                    Some(arm) => n.senders[i].1 = SPc::Arming(self.handoff.arm(arm).to_vec()),
                }
            }
            HA::SenderStep(i) => {
                let SPc::Arming(steps) = &s.senders[i].1 else {
                    return None;
                };
                n.senders[i] = match n.step(Holder::Sender(i), steps) {
                    Some(rest) => (s.senders[i].0, SPc::Arming(rest)),
                    None => (s.senders[i].0 + 1, SPc::Ready),
                };
            }
            HA::Event => {
                n.armed = None;
                n.reactor = RPc::Drain;
            }
            HA::Drain(fill) => {
                n.drain(fill);
                n.reactor = RPc::Read;
            }
            HA::ReadStart => {
                n.input = false;
                n.reactor = RPc::Reading;
            }
            HA::ReadEnd => n.reactor = RPc::End,
            HA::TurnEnd => {
                n.out_lock = Some(Holder::Reactor);
                let arm = after_turn(n.out.has_pending());
                n.reactor = RPc::Arming(self.handoff.arm(arm).to_vec());
            }
            HA::ReactorStep => {
                let RPc::Arming(steps) = &s.reactor else {
                    return None;
                };
                n.reactor = match n.step(Holder::Reactor, steps) {
                    Some(rest) => RPc::Arming(rest),
                    None => RPc::Wait,
                };
            }
            HA::Arrive => {
                n.arrivals_left -= 1;
                n.input = true;
            }
            HA::PeerReads => n.room = true,
        }
        Some(n)
    }

    fn invariants(&self) -> Vec<Invariant<Self>> {
        vec![Invariant::new(
            "frames-leave-in-enqueue-order",
            |_, s: &HS| s.enqueued.starts_with(&s.wire),
        )]
    }

    fn quiescent_invariants(&self) -> Vec<Invariant<Self>> {
        vec![Invariant::new("no-frame-stranded", |_, s: &HS| {
            !s.out.has_pending() && s.wire == s.enqueued
        })]
    }
}

#[test]
fn reactor_handoff_strands_no_frame_and_keeps_order() {
    let out = check(
        &HandoffModel {
            handoff: Handoff::default(),
        },
        CheckConfig::default(),
    );
    let r = out.report();
    println!(
        "model check (reactor hand-off): {} states, {} transitions, depth {}, {} quiescent states",
        r.states, r.transitions, r.depth, r.quiescent
    );
    if let Some(trace) = out.trace_string() {
        panic!("the reactor hand-off violated a property:\n{trace}");
    }
    assert!(!r.truncated, "exploration must be exhaustive: {r:?}");
    assert!(
        r.quiescent > 0,
        "no quiescent states: nothing stranded was never checked"
    );
    assert_eq!(
        (r.states, r.transitions, r.depth, r.quiescent),
        (8_341, 17_366, 29, 12),
        "the reactor hand-off state space moved: {r:?}"
    );
}

#[test]
fn seeded_arm_after_unlock_strands_a_frame() {
    if !qos_buggify::compiled_in() {
        return; // the switch is constant false in this build
    }
    let model = HandoffModel {
        handoff: Handoff {
            bugs: ArmBugs {
                arm_after_unlock: true,
            },
        },
    };
    let out = check(&model, CheckConfig::default());
    let trace = match &out {
        Outcome::Pass(r) => panic!("seeded bug went undetected: {r:?}"),
        Outcome::Violation { invariant, .. } => {
            let trace = out.trace_string().expect("violation has a trace");
            println!("{trace}");
            assert_eq!(*invariant, "no-frame-stranded", "{trace}");
            trace
        }
    };
    // The turn releases `out` having seen it empty, a sender queues and
    // arms for writing, and the turn's late MOD overwrites that arm.
    assert!(trace.contains("TurnEnd"), "{trace}");
    assert!(trace.contains("Enqueue"), "{trace}");
}
