//! The QoS Host Manager's decisions (Section 5.3), free of the
//! environment they run in: violations in, inference, resource-manager
//! actions or domain escalation out.
//!
//! [`HostCore`] is sans-io. Its one entry point, [`HostCore::step`],
//! takes the time, the host, one [`HostInput`] and a read-only
//! [`HostView`] of the machine, and appends the [`Effect`]s it decided on
//! to a buffer the caller owns. A driver — [`crate::host::QosHostManager`]
//! for the simulator — decodes frames, feeds them in one message at a
//! time, and carries the effects out. Inside, the state is cut in two:
//! the small hashable [`Lifecycle`] (who is registered, alive, reaped,
//! duplicated, granted — what `tests/model_check.rs` explores) beside
//! the heavy `Diagnosis` (rule engine, and one record per pid of what
//! the resource managers granted).

use std::time::Duration;

use qos_discovery::{DiscAction, DiscClient, DiscEvent};
use qos_inference::hash::FxMap;
use qos_inference::prelude::*;
use qos_sim::memory::ProcMem;
use qos_sim::proc::HostSnapshot;
use qos_sim::{DomainId, Dur, Endpoint, HopId, HostId, Pid, PriocntlCmd, SchedClass, SimTime};
use qos_telemetry::{Counter, Histogram, Name, Stage, Telemetry};
use qos_wire::{ViolationMsgRef, WireMsgRef};

use crate::lifecycle::{Admit, Lifecycle};
use crate::messages::{
    AdaptMsg, DomainAlertMsg, RegisterMsg, RuleUpdateMsg, StatsReplyMsg, WireMsg,
    HOST_MANAGER_PORT, MANAGER_PROCESSING_COST,
};
use crate::resource::{plan_memory, CpuAllocation, CpuStrategy, Direction};
use crate::rules::{host_base_facts, host_rules_fair, HostVocabulary};
use crate::transport::Backoff;

/// Timer tag for the periodic liveness sweep.
pub const TAG_LIVENESS_SWEEP: u64 = 1;
/// Timer tag for the discovery announce-retry backoff.
pub const TAG_DISC_RETRY: u64 = 2;
/// Timer tag for the discovery lease renewal.
pub const TAG_DISC_RENEW: u64 = 3;

/// How often the host manager checks for silent (dead) processes.
const LIVENESS_SWEEP_PERIOD: Dur = Dur::from_secs(1);

/// Consecutive at-allocation-cap violations before the manager asks the
/// application itself to adapt.
pub const OVERLOAD_PATIENCE: u32 = 3;

/// Format a [`Pid`] the way rules see it.
pub fn pid_to_string(pid: Pid) -> String {
    format!("h{}:p{}", pid.host.0, pid.local)
}

/// [`pid_to_string`] as the component name of a telemetry event, built
/// in place.
pub fn pid_name(pid: Pid) -> Name {
    Name::from_fmt(format_args!("h{}:p{}", pid.host.0, pid.local))
}

/// Parse a rule-side pid string back into a [`Pid`].
pub fn pid_from_str(s: &str) -> Option<Pid> {
    let (h, p) = s.split_once(":p")?;
    let h = h.strip_prefix('h')?.parse().ok()?;
    let p = p.parse().ok()?;
    Some(Pid {
        host: HostId(h),
        local: p,
    })
}

/// Read a pid string out of a rule value.
pub(crate) fn value_pid(v: &Value) -> Option<Pid> {
    match v {
        Value::Str(s) | Value::Sym(s) => pid_from_str(s),
        _ => None,
    }
}

/// Counters exposed for experiments.
#[derive(Debug, Default, Clone, Copy)]
pub struct HostMgrStats {
    /// Violation notifications received.
    pub violations: u64,
    /// CPU adjustments issued (grow).
    pub cpu_boosts: u64,
    /// CPU relaxations issued (shrink).
    pub cpu_relaxations: u64,
    /// Memory adjustments issued.
    pub mem_adjustments: u64,
    /// Escalations to the domain manager.
    pub domain_alerts: u64,
    /// Rule updates applied.
    pub rule_updates: u64,
    /// Registrations received.
    pub registrations: u64,
    /// Proactive nudges issued (trend-policy violations).
    pub nudges: u64,
    /// Application-adaptation requests sent (overload handling).
    pub adaptations: u64,
    /// Processes declared dead by the liveness sweep (facts retracted,
    /// allocations reclaimed).
    pub deaths: u64,
    /// Violations no diagnosis rule matched (retracted by the
    /// catch-all rule so they cannot accumulate).
    pub unhandled: u64,
    /// Control frames that failed to decode (corrupt/truncated/unknown
    /// version). Counted, never fatal: a bad peer cannot panic the
    /// manager.
    pub decode_errors: u64,
    /// Violation notifications discarded as duplicates (same report
    /// redelivered within [`crate::lifecycle::DUP_VIOLATION_WINDOW`] —
    /// at-least-once transports may double-deliver, and one violation
    /// must not trigger two concurrent adaptations).
    pub dup_violations: u64,
    /// Times this host lost its domain manager and re-entered discovery
    /// (mirrored as `disc.rediscoveries`). Only moves when the manager
    /// was built `with_discovery`.
    pub rediscoveries: u64,
    /// Violations discarded because the sender had already been
    /// declared dead (a reordered report outliving its process). Acting
    /// on one would leak a CPU boost no liveness sweep can reclaim.
    pub stale_violations: u64,
    /// Batch frames received (each carrying N coalesced control
    /// messages). Mirrored as `wire.batch.frames`; per-frame message
    /// counts land in the `wire.batch.msgs_per_frame` histogram.
    pub batch_frames: u64,
    /// Rule updates refused whole because their `add` text did not
    /// parse: nothing removed, nothing added.
    pub rule_rejects: u64,
}

/// What [`HostCore::step`] is fed.
#[derive(Debug)]
pub enum HostInput<'a> {
    /// The manager process started.
    Start,
    /// One decoded control message: a violation as the view of the
    /// frame the driver holds (or of an owned message,
    /// [`WireMsgRef::Owned`]), every control-rate kind owned. Batches
    /// are the driver's to unpack; kinds the host manager does not serve
    /// are ignored (and charged — the manager did look).
    Msg(WireMsgRef<'a>),
    /// A timer armed through [`Effect::SetTimer`] fired.
    Timer(u64),
}

/// The two synchronous reads the host manager makes of its machine.
pub trait HostView {
    /// Memory accounting of a process on this host.
    fn proc_mem(&self, pid: Pid) -> Option<ProcMem>;
    /// Host statistics (load average, memory utilization).
    fn host_stats(&self) -> HostSnapshot;
}

/// What [`HostCore::step`] or `DomainCore::step` asks its driver to do, in order.
#[derive(Debug, PartialEq)]
pub enum Effect {
    /// Deliver [`HostInput::Timer`] with this tag after the delay.
    SetTimer(Dur, u64),
    /// Adjust the scheduling of a process on this host.
    Priocntl(Pid, PriocntlCmd),
    /// Adjust a process's resident set by this many pages.
    Memctl(Pid, i64),
    /// Send a control message from the manager's port.
    SendCtrl(Endpoint, WireMsg),
    /// Route traffic between two hosts over these hops.
    Reroute(HostId, HostId, Vec<HopId>),
    /// Account this much CPU time to the manager itself.
    Charge(Dur),
}

/// Discovery bookkeeping for a host manager that finds its domain
/// manager dynamically. The protocol logic is the pure
/// [`DiscClient`]; this adds where the discovery server is and the
/// retry backoff.
struct DiscState {
    /// The discovery server's control endpoint.
    server: Endpoint,
    /// The pure protocol machine. Created lazily at the first step,
    /// when the core learns which host it runs on.
    client: Option<DiscClient>,
    /// Announce-retry backoff — the same jittered doubling envelope the
    /// socket transport uses for reconnects.
    backoff: Backoff,
}

/// What the manager keeps of a registered process.
struct Registered {
    weight: f64,
    control_port: u16,
    /// The pid as rules see it, built once.
    name: Value,
}

/// What the diagnosis half keeps of one pid.
#[derive(Default)]
struct PidState {
    /// Set while the pid is registered.
    reg: Option<Registered>,
    /// What the CPU manager has granted it.
    cpu: CpuAllocation,
    /// Net resident pages the memory manager has granted it.
    mem_granted: i64,
    /// Consecutive at-cap violations (gates overload adaptation: a
    /// transient brush with the cap must not degrade the application).
    overload_streak: u32,
}

/// The heavy half of the core: what diagnosing one violation reads and
/// writes.
struct Diagnosis {
    engine: Engine,
    vocab: HostVocabulary,
    /// Per template of [`HostVocabulary::per_notification`], in its
    /// order: does a loaded rule have a condition element on it? Its
    /// facts are asserted and retracted only while one does — with no
    /// reader they cannot change what fires. Derived from the rule base
    /// whenever it changes ([`Diagnosis::rules_changed`]).
    read: [bool; 3],
    /// How the CPU manager adjusts allocations.
    cpu: CpuStrategy,
    /// Nothing iterates it, so the hasher cannot reorder any output.
    pids: FxMap<Pid, PidState>,
}

/// Series [`HostCore::mirror_stats`] mirrors [`HostMgrStats`] into.
const MIRRORED_SERIES: usize = 17;

/// What the core's telemetry names itself by and writes to, taken once
/// per core (the host it runs on arrives with its first step). A metric
/// handle is resolved the first time it has something to record, so the
/// registry holds no series that never moved.
struct Probe {
    host: HostId,
    /// `h<host>`: the label of the `hm.*` series.
    label: String,
    /// `hm:h<host>`: the component of the stage events.
    component: Name,
    /// One per row of [`HostCore::mirror_stats`]'s table, in its order.
    counters: [Option<Counter>; MIRRORED_SERIES],
    batch_msgs: Option<Histogram>,
}

impl Probe {
    fn new(host: HostId) -> Self {
        Probe {
            host,
            label: format!("h{}", host.0),
            component: Name::from_fmt(format_args!("hm:h{}", host.0)),
            counters: Default::default(),
            batch_msgs: None,
        }
    }
}

/// The probe of `host`, made on first use.
fn probe(slot: &mut Option<Probe>, host: HostId) -> &mut Probe {
    if slot.as_ref().is_none_or(|p| p.host != host) {
        *slot = Some(Probe::new(host));
    }
    slot.as_mut().expect("just filled")
}

// Field keys of the stage events.
const FIRED: Name = Name::from_static("fired");
const CYCLES: Name = Name::from_static("cycles");
const ACTIVATIONS: Name = Name::from_static("activations");
const PEAK_AGENDA: Name = Name::from_static("peak_agenda");
const FACTS: Name = Name::from_static("facts");
const VALUE: Name = Name::from_static("value");
const OBSERVED: Name = Name::from_static("observed");

/// The violation being handled: what its telemetry events carry.
#[derive(Clone, Copy)]
struct Trip {
    now: SimTime,
    host: HostId,
    corr: u64,
}

/// The host manager's state and decisions.
pub struct HostCore {
    lifecycle: Lifecycle,
    diagnosis: Diagnosis,
    /// Domain manager endpoint, if this host participates in a domain.
    /// Hand-wired by [`HostCore::new`]; under discovery it is written
    /// (and cleared) by the [`DiscClient`] bind/unbind actions.
    domain: Option<Endpoint>,
    /// Discovery state, when the domain manager is found dynamically
    /// instead of being configured.
    disc: Option<DiscState>,
    /// Counters for experiments.
    pub stats: HostMgrStats,
    /// Telemetry handle (inert by default): Diagnose/Adapt stage events
    /// plus `hm.*` registry mirrors of [`HostMgrStats`].
    telemetry: Telemetry,
    /// Stats values already mirrored into the registry (delta tracking).
    mirrored: HostMgrStats,
    /// Labels and metric handles for `telemetry`.
    probe: Option<Probe>,
}

impl HostCore {
    /// A core with the fair-share default rules and the prototype's
    /// TS-boost CPU strategy.
    pub fn new(domain: Option<Endpoint>) -> Self {
        let mut core = HostCore {
            lifecycle: Lifecycle::default(),
            diagnosis: Diagnosis {
                engine: Engine::new(),
                vocab: HostVocabulary::new(),
                read: [false; 3],
                cpu: CpuStrategy::default(),
                pids: FxMap::default(),
            },
            domain,
            disc: None,
            stats: HostMgrStats::default(),
            telemetry: Telemetry::disabled(),
            mirrored: HostMgrStats::default(),
            probe: None,
        };
        core.load_rules(&host_rules_fair());
        core.load_rules(&host_base_facts());
        core
    }

    /// See [`crate::host::QosHostManager::with_discovery`].
    pub(crate) fn set_discovery(&mut self, server: Endpoint, seed: u64) {
        self.disc = Some(DiscState {
            server,
            client: None,
            backoff: Backoff::new(Duration::from_millis(50), Duration::from_millis(800), seed),
        });
    }

    /// See [`crate::host::QosHostManager::with_cpu_strategy`].
    pub(crate) fn set_cpu_strategy(&mut self, cpu: CpuStrategy) {
        self.diagnosis.cpu = cpu;
    }

    /// See [`crate::host::QosHostManager::with_telemetry`].
    pub(crate) fn set_telemetry(&mut self, t: &Telemetry) {
        self.telemetry = t.clone();
        self.probe = None;
    }

    /// The discovered domain binding, if this manager runs discovery
    /// and currently holds a lease.
    pub fn discovered_domain(&self) -> Option<DomainId> {
        self.disc.as_ref()?.client.as_ref()?.bound().map(|(d, _)| d)
    }

    /// Replace/extend the rule base from CLIPS text. Rules with known
    /// names are replaced in place. `false` (and nothing loaded) when
    /// the text does not parse.
    pub fn load_rules(&mut self, text: &str) -> bool {
        parse_program(text).map(|p| self.diagnosis.load(p)).is_ok()
    }

    /// Remove a rule by name.
    pub fn remove_rule(&mut self, name: &str) -> bool {
        let removed = self.diagnosis.engine.remove_rule(name);
        self.diagnosis.rules_changed();
        removed
    }

    /// Names of loaded rules.
    pub fn rule_names(&self) -> Vec<String> {
        self.diagnosis
            .engine
            .rule_names()
            .map(str::to_string)
            .collect()
    }

    /// Drain the engine's retained firing trace (a bounded ring buffer —
    /// the most recent entries only).
    pub fn take_engine_trace(&mut self) -> Vec<String> {
        self.diagnosis.engine.take_trace()
    }

    /// Resize the engine's trace ring buffer (minimum 1).
    pub fn set_engine_trace_capacity(&mut self, capacity: usize) {
        self.diagnosis.engine.set_trace_capacity(capacity);
    }

    /// Switch the embedded engine between its incremental matcher
    /// (default) and the naive full-rematch oracle — the "before" arm of
    /// the scale benchmark; both produce identical firing sequences.
    pub fn use_naive_matcher(&mut self, on: bool) {
        self.diagnosis.engine.use_naive_matcher(on);
    }

    /// Lifetime join work performed by the embedded engine's matcher
    /// (candidate facts examined; see `RunStats::activations`).
    pub fn engine_join_work(&self) -> u64 {
        self.diagnosis.engine.join_work_total()
    }

    /// Diagnostic: the embedded engine's conflict-set bookkeeping.
    pub fn engine_conflict_set(&self) -> ConflictSet {
        self.diagnosis.engine.conflict_set()
    }

    /// Toggle per-phase wall-clock profiling (match / agenda / fire) in
    /// the embedded engine. Off by default; the benchmark turns it on to
    /// break a violation's budget down by phase.
    pub fn enable_engine_phase_profile(&mut self, on: bool) {
        self.diagnosis.engine.enable_phase_profile(on);
    }

    /// Drain the embedded engine's per-phase wall-clock counters.
    pub fn take_engine_phase_profile(&mut self) -> qos_inference::PhaseProfile {
        self.diagnosis.engine.take_phase_profile()
    }

    /// Diagnostic: live facts of one template.
    pub fn facts_of(&self, template: &str) -> usize {
        self.diagnosis.engine.facts().by_template(template).count()
    }

    /// Current CPU allocation of a managed process.
    pub fn cpu_allocation(&self, pid: Pid) -> CpuAllocation {
        self.diagnosis
            .pids
            .get(&pid)
            .map(|s| s.cpu)
            .unwrap_or_default()
    }

    /// Net resident pages granted to a managed process.
    pub fn mem_granted(&self, pid: Pid) -> i64 {
        self.diagnosis.pids.get(&pid).map_or(0, |s| s.mem_granted)
    }

    /// Consecutive at-cap violations counted against `pid`, while the
    /// core keeps a record of it.
    #[cfg(test)]
    pub(crate) fn overload_streak(&self, pid: Pid) -> Option<u32> {
        self.diagnosis.pids.get(&pid).map(|s| s.overload_streak)
    }

    /// The seeded defects, to switch on.
    #[cfg(test)]
    pub(crate) fn bugs_mut(&mut self) -> &mut crate::lifecycle::Bugs {
        &mut self.lifecycle.bugs
    }

    /// Is `pid` currently registered with this manager?
    pub fn is_registered(&self, pid: Pid) -> bool {
        self.lifecycle.is_registered(pid)
    }

    /// The lifecycle half, for reading.
    pub fn lifecycle(&self) -> &Lifecycle {
        &self.lifecycle
    }

    /// The one entry point: handle `input` at `now` on `host`, reading
    /// the machine through `view`, and append what must happen to `out`.
    pub fn step(
        &mut self,
        now: SimTime,
        host: HostId,
        input: HostInput<'_>,
        view: &impl HostView,
        out: &mut Vec<Effect>,
    ) {
        match input {
            HostInput::Start => {
                out.push(Effect::SetTimer(LIVENESS_SWEEP_PERIOD, TAG_LIVENESS_SWEEP));
                self.run_disc(host, DiscEvent::Kick, out);
            }
            HostInput::Msg(msg) => {
                self.handle_ctrl(now, host, msg, view, out);
                // Model the manager's own CPU consumption. Charged per
                // message, coalesced or not: batching saves wire bytes
                // and wake-ups, not rule-engine work.
                out.push(Effect::Charge(MANAGER_PROCESSING_COST));
            }
            HostInput::Timer(TAG_LIVENESS_SWEEP) => {
                self.reap_dead(now);
                out.push(Effect::SetTimer(LIVENESS_SWEEP_PERIOD, TAG_LIVENESS_SWEEP));
            }
            HostInput::Timer(TAG_DISC_RETRY) => self.run_disc(host, DiscEvent::RetryDue, out),
            HostInput::Timer(TAG_DISC_RENEW) => self.run_disc(host, DiscEvent::RenewDue, out),
            HostInput::Timer(_) => {}
        }
    }

    /// Count one received batch frame carrying `msgs` messages.
    pub fn note_batch_frame(&mut self, host: HostId, msgs: usize) {
        self.stats.batch_frames += 1;
        if self.telemetry.is_enabled() {
            let probe = probe(&mut self.probe, host);
            probe
                .batch_msgs
                .get_or_insert_with(|| {
                    self.telemetry
                        .histogram("wire.batch.msgs_per_frame", &probe.label)
                })
                .record(msgs as u64);
        }
    }

    fn handle_ctrl(
        &mut self,
        now: SimTime,
        host: HostId,
        msg: WireMsgRef<'_>,
        view: &impl HostView,
        out: &mut Vec<Effect>,
    ) {
        let msg = match msg {
            WireMsgRef::Violation(v) => return self.handle_violation(now, host, v, view, out),
            WireMsgRef::Owned(msg) => msg,
            WireMsgRef::LiveViolation(_) | WireMsgRef::Batch(_) => return,
        };
        match msg {
            WireMsg::Violation(v) => self.handle_violation(now, host, v.as_view(), view, out),
            WireMsg::Register(r) => {
                self.register(now, &r);
                if qos_buggify::buggify!("hm.register.duplicate") {
                    // Chaos: at-least-once delivery hands the
                    // manager the same registration twice;
                    // idempotency must hold.
                    self.register(now, &r);
                }
                // Re-sent with every heartbeat: only the first builds
                // the name.
                let reg = self
                    .diagnosis
                    .pids
                    .entry(r.pid)
                    .or_default()
                    .reg
                    .get_or_insert_with(|| Registered {
                        weight: r.weight,
                        control_port: r.control_port,
                        name: Value::str(pid_to_string(r.pid)),
                    });
                reg.weight = r.weight;
                reg.control_port = r.control_port;
            }
            WireMsg::StatsQuery(q) => {
                let snap = view.host_stats();
                out.push(Effect::SendCtrl(
                    q.reply_to,
                    WireMsg::StatsReply(StatsReplyMsg {
                        host,
                        load_avg: snap.load_avg,
                        mem_utilization: snap.mem_utilization,
                        correlation: q.correlation,
                    }),
                ));
            }
            WireMsg::AdjustRequest(a) => {
                // A domain-directed boost: the server is starved
                // on a host full of interactive work, so a TS
                // nudge cannot reliably help — promote it to the
                // real-time class (the `priocntl -c RT` move on
                // the prototype's Solaris host), falling back to
                // a TS boost for small steps.
                self.stats.cpu_boosts += 1;
                let trip = Trip {
                    now,
                    host,
                    corr: a.corr,
                };
                self.emit_adapt(trip, "adjust-request", a.steps as f64);
                let cmd = if a.steps >= 20 {
                    PriocntlCmd::SetClass(SchedClass::RealTime {
                        rtpri: 5,
                        budget: None,
                    })
                } else {
                    PriocntlCmd::AdjustUpri(a.steps)
                };
                out.push(Effect::Priocntl(a.pid, cmd));
            }
            WireMsg::DiscAssign(a) => self.run_disc(host, DiscEvent::Assign(a), out),
            WireMsg::DiscLeaseAck(k) => self.run_disc(host, DiscEvent::Ack(k), out),
            WireMsg::RuleUpdate(u) => self.update_rules(u),
            _ => {}
        }
    }

    /// Registration is idempotent and keyed on the process id: the
    /// heartbeat protocol re-sends [`RegisterMsg`] at-least-once, and a
    /// repeat must neither double-count [`HostMgrStats::registrations`]
    /// nor disturb existing allocations.
    fn register(&mut self, now: SimTime, r: &RegisterMsg) {
        if self.lifecycle.register(now, r.pid, r.heartbeat) {
            self.stats.registrations += 1;
        }
    }

    /// Apply a rule update whole or not at all: the added text is parsed
    /// before anything is removed, so an update that does not parse
    /// leaves the rule base as it was, and is counted.
    fn update_rules(&mut self, u: RuleUpdateMsg) {
        let Ok(add) = u.add.as_deref().map(parse_program).transpose() else {
            self.stats.rule_rejects += 1;
            return;
        };
        self.stats.rule_updates += 1;
        for name in &u.remove {
            self.diagnosis.engine.remove_rule(name);
        }
        match add {
            Some(p) => self.diagnosis.load(p),
            None => self.diagnosis.rules_changed(),
        }
    }

    /// Declare silent heartbeat-promising processes dead: retract their
    /// working-memory facts and reclaim every resource granted to them,
    /// so a crashed process cannot pin a CPU boost or memory grant
    /// forever. Two phases — declare (liveness decides who is overdue)
    /// and reclaim (facts retracted, allocations released, registry
    /// entry dropped) — with buggify able to lose the manager between
    /// them, modelling a crash or preemption mid-reap.
    fn reap_dead(&mut self, now: SimTime) {
        if qos_buggify::buggify!("hm.reap.defer") {
            // Chaos: the sweep timer fired but the manager was too busy
            // to act — the whole sweep slides to the next period.
            return;
        }
        self.lifecycle.declare(now);
        if !self.lifecycle.pending_reap().is_empty() && qos_buggify::buggify!("hm.reap.partial") {
            // Chaos: declared but not reclaimed. A racing heartbeat may
            // now legitimately cancel the reap; anything still pending
            // is reclaimed by the next sweep.
            return;
        }
        for pid in self.lifecycle.reclaim() {
            self.stats.deaths += 1;
            self.diagnosis.forget(pid, !self.lifecycle.holds_grant(pid));
        }
    }

    /// Feed one event through the discovery client and turn the actions
    /// it decides into effects: announces and renewals go to the
    /// discovery server, bind/unbind rewires [`Self::domain`], and the
    /// schedule actions arm the retry/renewal timers. A no-op when the
    /// manager was not built `with_discovery`.
    fn run_disc(&mut self, host: HostId, ev: DiscEvent, out: &mut Vec<Effect>) {
        let Some(disc) = self.disc.as_mut() else {
            return;
        };
        let client = disc
            .client
            .get_or_insert_with(|| DiscClient::new(host, Endpoint::new(host, HOST_MANAGER_PORT)));
        let actions = client.step(ev);
        self.stats.rediscoveries = client.rediscoveries;
        for act in actions {
            match act {
                DiscAction::Announce(a) => {
                    out.push(Effect::SendCtrl(disc.server, WireMsg::DiscAnnounce(a)));
                }
                DiscAction::Renew(r) => {
                    out.push(Effect::SendCtrl(disc.server, WireMsg::DiscLeaseRenew(r)));
                }
                DiscAction::Bind { manager, .. } => {
                    disc.backoff.reset();
                    self.domain = Some(manager);
                }
                DiscAction::Unbind => self.domain = None,
                DiscAction::ScheduleRetry => {
                    let d = disc.backoff.next_delay();
                    out.push(Effect::SetTimer(
                        Dur::from_micros(d.as_micros() as u64),
                        TAG_DISC_RETRY,
                    ));
                }
                DiscAction::ScheduleRenew(d) => out.push(Effect::SetTimer(d, TAG_DISC_RENEW)),
            }
        }
    }

    fn handle_violation(
        &mut self,
        now: SimTime,
        host: HostId,
        v: ViolationMsgRef<'_>,
        view: &impl HostView,
        out: &mut Vec<Effect>,
    ) {
        if qos_buggify::buggify!("hm.violation.drop") {
            // Chaos: the manager loses the notification after receipt
            // (queue overflow, preemption). The coordinator's renotify
            // cadence must re-deliver it.
            return;
        }
        match self
            .lifecycle
            .admit_violation(now, v.pid, violation_fingerprint(&v))
        {
            Admit::Stale => {
                self.stats.stale_violations += 1;
                return;
            }
            Admit::Duplicate => {
                self.stats.dup_violations += 1;
                return;
            }
            Admit::Fresh => self.stats.violations += 1,
        }
        let deficit = view.proc_mem(v.pid).map_or(0, |m| m.deficit());
        let run = self.diagnosis.assert_and_run(&v, deficit);
        if self.telemetry.is_enabled() {
            let facts = self.diagnosis.engine.facts().len();
            self.telemetry.stage(
                now.as_micros(),
                v.corr,
                Stage::Diagnose,
                &probe(&mut self.probe, host).component,
                v.policy,
                &[
                    (FIRED, run.fired as f64),
                    (CYCLES, run.cycles as f64),
                    // Delta join work since the previous run — see
                    // `RunStats::activations` for the semantics.
                    (ACTIVATIONS, run.activations as f64),
                    (PEAK_AGENDA, run.peak_agenda as f64),
                    (FACTS, facts as f64),
                ],
            );
        }
        let trip = Trip {
            now,
            host,
            corr: v.corr,
        };
        for inv in self.diagnosis.engine.take_invocations() {
            self.dispatch(trip, &inv, &v, out);
        }
    }

    /// Mirror [`HostMgrStats`] into the registry as `hm.*` counters
    /// labelled with the host, adding only what changed since the last
    /// mirror so counters stay exact under repeated calls.
    pub fn mirror_stats(&mut self, host: HostId) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let cur = self.stats;
        let prev = std::mem::replace(&mut self.mirrored, cur);
        // Values, not accessors: this runs once per violation, and a
        // table of `fn` pointers read 3 % slower on `sim_federation`.
        let deltas: [_; MIRRORED_SERIES] = [
            ("hm.violations", cur.violations, prev.violations),
            ("hm.cpu_boosts", cur.cpu_boosts, prev.cpu_boosts),
            (
                "hm.cpu_relaxations",
                cur.cpu_relaxations,
                prev.cpu_relaxations,
            ),
            (
                "hm.mem_adjustments",
                cur.mem_adjustments,
                prev.mem_adjustments,
            ),
            ("hm.domain_alerts", cur.domain_alerts, prev.domain_alerts),
            ("hm.rule_updates", cur.rule_updates, prev.rule_updates),
            ("hm.rule_rejects", cur.rule_rejects, prev.rule_rejects),
            ("hm.registrations", cur.registrations, prev.registrations),
            ("hm.nudges", cur.nudges, prev.nudges),
            ("hm.adaptations", cur.adaptations, prev.adaptations),
            ("hm.liveness_reaps", cur.deaths, prev.deaths),
            ("hm.unhandled", cur.unhandled, prev.unhandled),
            ("hm.decode_errors", cur.decode_errors, prev.decode_errors),
            ("hm.dup_violations", cur.dup_violations, prev.dup_violations),
            (
                "hm.stale_violations",
                cur.stale_violations,
                prev.stale_violations,
            ),
            ("wire.batch.frames", cur.batch_frames, prev.batch_frames),
            ("disc.rediscoveries", cur.rediscoveries, prev.rediscoveries),
        ];
        let probe = probe(&mut self.probe, host);
        for (counter, (family, now, before)) in probe.counters.iter_mut().zip(deltas) {
            if now > before {
                counter
                    .get_or_insert_with(|| self.telemetry.counter(family, &probe.label))
                    .add(now - before);
            }
        }
    }

    /// Emit an Adapt-stage event for an action that actually landed.
    fn emit_adapt(&mut self, trip: Trip, action: &'static str, value: f64) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry.stage(
            trip.now.as_micros(),
            trip.corr,
            Stage::Adapt,
            &probe(&mut self.probe, trip.host).component,
            Name::from_static(action),
            &[(VALUE, value)],
        );
    }

    /// Carry out the CPU manager's plan for `pid`, if it planned
    /// anything: `true` when a command landed.
    fn land_cpu(
        &mut self,
        trip: Trip,
        action: &'static str,
        value: f64,
        pid: Pid,
        cmd: Option<PriocntlCmd>,
        out: &mut Vec<Effect>,
    ) -> bool {
        let Some(cmd) = cmd else {
            return false;
        };
        self.emit_adapt(trip, action, value);
        self.lifecycle.grant(pid);
        out.push(Effect::Priocntl(pid, cmd));
        true
    }

    fn dispatch(
        &mut self,
        trip: Trip,
        inv: &Invocation,
        v: &ViolationMsgRef<'_>,
        out: &mut Vec<Effect>,
    ) {
        let arg_f64 = |i: usize| inv.args.get(i).and_then(Value::as_f64);
        match inv.command.as_str() {
            "adjust-cpu" => {
                let (Some(pid), Some(fps), Some(lo)) =
                    (inv.args.first().and_then(value_pid), arg_f64(1), arg_f64(2))
                else {
                    return;
                };
                let weight = arg_f64(3).unwrap_or(1.0);
                let severity = if lo > 0.0 {
                    ((lo - fps) / lo).clamp(0.0, 1.0)
                } else {
                    1.0
                };
                let cmd = self
                    .diagnosis
                    .plan_cpu(pid, Direction::Under, severity, weight);
                if self.land_cpu(trip, "adjust-cpu", severity, pid, cmd, out) {
                    self.stats.cpu_boosts += 1;
                }
            }
            "relax-cpu" => {
                let Some(pid) = inv.args.first().and_then(value_pid) else {
                    return;
                };
                let fps = arg_f64(1).unwrap_or(0.0);
                let hi = arg_f64(2).unwrap_or(f64::INFINITY);
                let severity = if hi > 0.0 && hi.is_finite() {
                    ((fps - hi) / hi).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                let cmd = self.diagnosis.plan_cpu(pid, Direction::Over, severity, 1.0);
                if self.land_cpu(trip, "relax-cpu", severity, pid, cmd, out) {
                    self.stats.cpu_relaxations += 1;
                }
            }
            "adjust-memory" => {
                let (Some(pid), Some(pages)) = (inv.args.first().and_then(value_pid), arg_f64(1))
                else {
                    return;
                };
                if let Some(delta) = plan_memory(pages as i64) {
                    self.diagnosis.pids.entry(pid).or_default().mem_granted += delta;
                    self.stats.mem_adjustments += 1;
                    self.emit_adapt(trip, "adjust-memory", delta as f64);
                    self.lifecycle.grant(pid);
                    out.push(Effect::Memctl(pid, delta));
                }
            }
            "nudge-cpu" => {
                // Proactive: a small, fixed-size allocation increase
                // before the user-visible requirement breaks.
                let Some(pid) = inv.args.first().and_then(value_pid) else {
                    return;
                };
                let weight = arg_f64(1).unwrap_or(1.0);
                let cmd = self.diagnosis.plan_cpu(pid, Direction::Under, 0.25, weight);
                if self.land_cpu(trip, "nudge-cpu", 0.25, pid, cmd, out) {
                    self.stats.nudges += 1;
                }
            }
            "adapt-app" => {
                // Overload: the allocation is maxed and the requirement
                // still fails; after OVERLOAD_PATIENCE consecutive such
                // reports, ask the application to degrade itself.
                let Some(pid) = inv.args.first().and_then(value_pid) else {
                    return;
                };
                let state = self.diagnosis.pids.entry(pid).or_default();
                state.overload_streak += 1;
                if state.overload_streak < OVERLOAD_PATIENCE {
                    return;
                }
                state.overload_streak = 0;
                let Some(reg) = &state.reg else {
                    return;
                };
                let dst = Endpoint::new(pid.host, reg.control_port);
                self.stats.adaptations += 1;
                self.emit_adapt(trip, "adapt-app", 1.0);
                out.push(Effect::SendCtrl(
                    dst,
                    WireMsg::Adapt(AdaptMsg {
                        actuator: "quality_actuator".into(),
                        command: "degrade".into(),
                        value: 1.0,
                    }),
                ));
            }
            "notify-domain" => {
                let (Some(domain), Some(up)) = (self.domain, v.upstream) else {
                    return;
                };
                let Some(fps) = arg_f64(1) else {
                    return;
                };
                self.stats.domain_alerts += 1;
                if self.telemetry.is_enabled() {
                    self.telemetry.stage(
                        trip.now.as_micros(),
                        v.corr,
                        Stage::Escalate,
                        &probe(&mut self.probe, trip.host).component,
                        v.policy,
                        &[(OBSERVED, fps)],
                    );
                }
                out.push(Effect::SendCtrl(
                    domain,
                    WireMsg::DomainAlert(DomainAlertMsg {
                        from_host: trip.host,
                        client: v.pid,
                        upstream: up,
                        observed: fps,
                        corr: v.corr,
                    }),
                ));
            }
            "unhandled-violation" => self.stats.unhandled += 1,
            _ => {}
        }
    }
}

/// Fingerprint a violation for duplicate detection: pid, corr, policy
/// and the full reading vector (bit-exact floats). Only ever compared
/// with the same pid's previous report, so a fast hasher will do:
/// collision resistance across processes would protect nothing.
fn violation_fingerprint(v: &ViolationMsgRef<'_>) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = qos_inference::hash::FxHasher::default();
    v.pid.hash(&mut h);
    v.corr.hash(&mut h);
    v.policy.hash(&mut h);
    for (name, val) in &v.readings {
        name.hash(&mut h);
        val.to_bits().hash(&mut h);
    }
    h.finish()
}

impl Diagnosis {
    /// Add a parsed program's rules and facts to the engine.
    fn load(&mut self, p: Program) {
        for r in p.rules {
            self.engine.add_rule(r);
        }
        for f in p.facts {
            self.engine.assert_fact(f);
        }
        self.rules_changed();
    }

    /// Re-derive which asserted templates a loaded rule reads. One that
    /// lost its last reader has its facts retracted here, once, instead
    /// of leaving them until each pid is reaped.
    fn rules_changed(&mut self) {
        for (t, read) in self
            .vocab
            .per_notification()
            .into_iter()
            .zip(&mut self.read)
        {
            let now = self.engine.reads(t.template);
            if *read && !now {
                self.engine.retract_template(t.template.name());
            }
            *read = now;
        }
    }

    /// Assert the facts of one admitted violation (`mem_deficit` pages
    /// short of its working set) and run the rules over them.
    fn assert_and_run(&mut self, v: &ViolationMsgRef<'_>, mem_deficit: u32) -> RunStats {
        let state = self.pids.get(&v.pid);
        let reg = state.and_then(|s| s.reg.as_ref());
        let unregistered;
        let pid_s = match reg {
            Some(r) => &r.name,
            None => {
                unregistered = Value::str(pid_to_string(v.pid));
                &unregistered
            }
        };
        let vocab = &self.vocab;
        // Fresh telemetry for this violation: stale facts for this
        // process are replaced, never accumulated (a lingering fact would
        // also suppress identical future reports via duplicate-fact
        // elimination). Another process's facts are not this one's to
        // touch.
        for (t, read) in vocab.per_notification().into_iter().zip(self.read) {
            if read {
                self.engine.retract_where(t.template, t.pid, pid_s);
            }
        }
        let [violation_read, alloc_read, deficit_read] = self.read;
        if violation_read {
            let (attr, fps) = v.readings.iter().next().unwrap_or(("unknown", 0.0));
            let (lo, hi) = v
                .bounds
                .map_or((0.0, f64::INFINITY), |(_, lo, hi)| (lo, hi));
            let buffer = v
                .readings
                .iter()
                .find(|&(a, _)| a == "buffer_size")
                .map_or(0.0, |(_, val)| val);
            self.engine.assert_fact(
                Fact::of(vocab.violation.template)
                    .with_slot(vocab.violation.pid, pid_s.clone())
                    .with_slot(vocab.attr, Value::sym(attr))
                    .with_slot(vocab.fps, fps)
                    .with_slot(vocab.lo, lo)
                    .with_slot(vocab.hi, hi)
                    .with_slot(vocab.buffer, buffer)
                    .with_slot(vocab.weight, reg.map_or(1.0, |r| r.weight))
                    .with_slot(vocab.has_upstream, v.upstream.is_some()),
            );
        }
        // Current CPU allocation, for overload rules.
        if alloc_read {
            self.engine.assert_fact(
                Fact::of(vocab.alloc.template)
                    .with_slot(vocab.alloc.pid, pid_s.clone())
                    .with_slot(vocab.boost, state.map_or(0, |s| s.cpu.boost) as i64),
            );
        }
        if deficit_read && mem_deficit > 0 {
            self.engine.assert_fact(
                Fact::of(vocab.mem_deficit.template)
                    .with_slot(vocab.mem_deficit.pid, pid_s.clone())
                    .with_slot(vocab.pages, mem_deficit as i64),
            );
        }
        self.engine.run(200)
    }

    /// The CPU manager's plan for `pid`, recorded in its allocation.
    fn plan_cpu(
        &mut self,
        pid: Pid,
        direction: Direction,
        severity: f64,
        weight: f64,
    ) -> Option<PriocntlCmd> {
        let alloc = &mut self.pids.entry(pid).or_default().cpu;
        self.cpu.plan(alloc, direction, severity, weight)
    }

    /// Drop everything kept for a reaped `pid`: its facts, registration
    /// and overload streak, and — when `release` — its CPU and memory
    /// allocations, which is the whole record.
    fn forget(&mut self, pid: Pid, release: bool) {
        let reg = if release {
            self.pids.remove(&pid).and_then(|s| s.reg)
        } else {
            self.pids.get_mut(&pid).and_then(|s| {
                s.overload_streak = 0;
                s.reg.take()
            })
        };
        let name = reg.map_or_else(|| Value::str(pid_to_string(pid)), |r| r.name);
        for t in self.vocab.per_notification() {
            self.engine.retract_where(t.template, t.pid, &name);
        }
    }
}
