//! The QoS Domain Manager's decisions (Section 5.3), sans-io: on an
//! alert from a client-side host manager it queries the server-side host
//! manager for CPU load and memory usage; its rules then discriminate a
//! server CPU problem (boost the server process), a server memory
//! problem (grow its resident set), or — by elimination — a network
//! problem (reroute traffic around the congested switch).
//!
//! [`DomainCore`] has [`crate::host_core::HostCore`]'s shape: one entry
//! point fed a [`HostInput`], appending [`Effect`]s for a driver to carry
//! out. `tests/model_check.rs` explores its small hashable [`Ledger`].

use std::collections::{BTreeMap, HashMap};

use qos_inference::prelude::*;
use qos_sim::{DomainId, Dur, Endpoint, HopId, HostId, Pid, SimTime};
use qos_telemetry::{Name, Stage, Telemetry};
use qos_wire::messages::{DiscDomainRegisterMsg, DiscRoutesMsg};
use qos_wire::WireMsgRef;

use crate::host_core::{pid_name, pid_to_string, value_pid, Effect, HostInput};
use crate::messages::{
    AdjustRequestMsg, DomainAlertMsg, StatsQueryMsg, StatsReplyMsg, WireMsg, DOMAIN_MANAGER_PORT,
    MANAGER_PROCESSING_COST, STATS_QUERY_DEADLINE,
};
use crate::rules::{domain_base_facts, domain_rules};

/// Timer tags at or above this value carry a stats-query correlation id
/// (`tag - TAG_QUERY_BASE`); tags below are free for other uses.
pub const TAG_QUERY_BASE: u64 = 1 << 32;

/// Timer tag for the periodic federation (re-)registration.
const TAG_FED_REGISTER: u64 = 1;

/// How often a federated domain manager re-registers with the discovery
/// server. Registration is idempotent, so this doubles as loss recovery
/// (a dropped register or route push heals within a period) and as the
/// federation's liveness heartbeat.
const FED_REGISTER_PERIOD: Dur = Dur::from_secs(1);

/// Why a cross-domain alert could not be forwarded. Surfaced (counted
/// in [`DomainStats::unroutable_alerts`], kept in
/// [`DomainStats::route_errors`], mirrored as `dm.unroutable_alerts`)
/// instead of silently dropping the alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// No route covers the upstream host: it is not in this domain's
    /// shard, no discovered route names it, and there is no parent.
    NoRoute {
        /// The upstream host nobody covers.
        host: HostId,
    },
}

/// A corrective action the domain manager decided on (kept for
/// experiment inspection).
#[derive(Debug, Clone, PartialEq)]
pub enum DomainAction {
    /// Server-side CPU boost sent to a host manager.
    BoostServer {
        /// The starved server process.
        pid: Pid,
    },
    /// Server-side resident-set boost.
    BoostServerMemory {
        /// The thrashing server process.
        pid: Pid,
    },
    /// Traffic rerouted between two hosts.
    Reroute {
        /// Client side.
        a: HostId,
        /// Server side.
        b: HostId,
    },
}

/// Counters and the action log, for experiments.
#[derive(Debug, Clone, Default)]
pub struct DomainStats {
    /// Alerts received from host managers.
    pub alerts: u64,
    /// Stats queries issued.
    pub queries: u64,
    /// Alerts forwarded to a peer domain manager (the problem's upstream
    /// lies outside this domain — the Section 9 "Interconnecting QoS
    /// Domain Managers" case).
    pub forwarded: u64,
    /// Stats queries that hit their deadline with no reply (diagnosed
    /// from partial information instead).
    pub query_timeouts: u64,
    /// Stats replies that arrived after their deadline had already fired
    /// (or were duplicates); dropped without re-running diagnosis.
    pub late_replies: u64,
    /// Cross-domain alerts no route covered (mirrored as
    /// `dm.unroutable_alerts`). Each one is a [`RouteError`] in
    /// [`DomainStats::route_errors`].
    pub unroutable_alerts: u64,
    /// The typed errors behind [`DomainStats::unroutable_alerts`].
    pub route_errors: Vec<RouteError>,
    /// Decisions that acted on nothing (mirrored as `dm.unactionable`):
    /// an unparsable pid, a host outside the shard, a pair with no
    /// backup route, or an unknown command.
    pub unactionable: u64,
    /// Actions decided (in order).
    pub actions: Vec<DomainAction>,
}

/// The domain manager's small hashable half: the alerts parked while
/// their stats query is out, by correlation id, and the version of the
/// last applied route push. Generic over what it parks, so the model
/// checker can park a hashable stand-in for a [`DomainAlertMsg`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ledger<T> {
    next_corr: u64,
    /// Parked alerts by correlation id, each with its deadline armed.
    pending: BTreeMap<u64, T>,
    /// Replies that found nothing pending: late or duplicated.
    late_replies: u64,
    /// Version of the last applied route push.
    version: u64,
}

impl<T> Default for Ledger<T> {
    fn default() -> Self {
        Ledger {
            next_corr: 0,
            pending: BTreeMap::new(),
            late_replies: 0,
            version: 0,
        }
    }
}

impl<T> Ledger<T> {
    /// Park `alert` under a fresh correlation id, ask the host manager
    /// `hm` for its statistics on behalf of `dm`, and arm the deadline
    /// that diagnoses the alert if no reply comes. Returns the id.
    pub fn open(&mut self, alert: T, hm: Endpoint, dm: Endpoint, out: &mut Vec<Effect>) -> u64 {
        let correlation = self.next_corr;
        self.next_corr += 1;
        let query = StatsQueryMsg {
            reply_to: dm,
            correlation,
        };
        let deadline = TAG_QUERY_BASE + correlation;
        out.push(Effect::SendCtrl(hm, WireMsg::StatsQuery(query)));
        out.push(Effect::SetTimer(STATS_QUERY_DEADLINE, deadline));
        self.pending.insert(correlation, alert);
        correlation
    }

    /// Query `corr`'s reply arrived: its alert, to diagnose, or — when
    /// the deadline already diagnosed it, or the reply is a duplicate —
    /// `None`, counted as a late reply.
    pub fn answer(&mut self, corr: u64) -> Option<T> {
        let alert = self.pending.remove(&corr);
        self.late_replies += u64::from(alert.is_none());
        alert
    }

    /// Query `corr`'s deadline fired: its alert, to diagnose from what
    /// is known, or `None` when the reply came first.
    pub fn expire(&mut self, corr: u64) -> Option<T> {
        self.pending.remove(&corr)
    }

    /// Should a route push of `version` be applied? Not when it is
    /// older than the last applied one: pushes can arrive reordered.
    pub fn admit_routes(&mut self, version: u64) -> bool {
        if version < self.version {
            return false;
        }
        self.version = version;
        true
    }

    /// Alerts parked on an unanswered query.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Replies that found nothing pending.
    pub fn late_replies(&self) -> u64 {
        self.late_replies
    }

    /// Version of the last applied route push.
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// The domain manager's state and decisions.
pub struct DomainCore {
    pub(crate) engine: Engine,
    /// The commands of the last run, drained from the engine; kept so
    /// its capacity is.
    calls: Invocations,
    /// Host-manager endpoints per host in this domain.
    host_managers: HashMap<HostId, Endpoint>,
    /// Alternate routes installed when a path is diagnosed congested:
    /// `(a, b)` → hop sequence.
    backup_routes: HashMap<(HostId, HostId), Vec<HopId>>,
    /// Federation membership — this domain, its parent (`None` at the
    /// root) and the discovery server — when this manager learns its
    /// shard and routes from route pushes instead of being hand-wired.
    pub(crate) federation: Option<(DomainId, Option<DomainId>, Endpoint)>,
    /// Discovered routes for hosts *below* this domain but outside its
    /// own shard: upstream host → covering domain manager.
    routes: HashMap<HostId, Endpoint>,
    /// The parent domain manager, from the last route push.
    parent_ep: Option<Endpoint>,
    ledger: Ledger<DomainAlertMsg>,
    /// Counters and decisions.
    pub stats: DomainStats,
    /// Telemetry handle (inert by default): Diagnose/Adapt stage events
    /// plus `dm.*` registry mirrors of [`DomainStats`].
    pub(crate) telemetry: Telemetry,
    /// Counter values already mirrored into the registry, in
    /// [`DomainCore::mirror_stats`]'s order.
    mirrored: [u64; 8],
}

impl DomainCore {
    /// A domain core over the given host-manager endpoints.
    pub fn new(host_managers: HashMap<HostId, Endpoint>) -> Self {
        let mut engine = Engine::new();
        for text in [domain_rules(), domain_base_facts()] {
            let program = parse_program(text).expect("built-in rules parse");
            program.rules.into_iter().for_each(|r| engine.add_rule(r));
            for f in program.facts {
                engine.assert_fact(f);
            }
        }
        DomainCore {
            engine,
            calls: Invocations::default(),
            host_managers,
            backup_routes: HashMap::new(),
            federation: None,
            routes: HashMap::new(),
            parent_ep: None,
            ledger: Ledger::default(),
            stats: DomainStats::default(),
            telemetry: Telemetry::disabled(),
            mirrored: [0; 8],
        }
    }

    /// Hosts currently in this manager's shard.
    pub fn shard_size(&self) -> usize {
        self.host_managers.len()
    }

    /// Register an alternate path to install when `a↔b` is congested.
    pub fn add_backup_route(&mut self, a: HostId, b: HostId, hops: Vec<HopId>) {
        self.backup_routes.insert(route_key(a, b), hops);
    }

    /// The one entry point: handle `input` at `now` on `host`, appending
    /// what must happen to `out`. A message or a query deadline charges
    /// the processing cost once; nothing else is charged.
    pub fn step(&mut self, now: SimTime, host: HostId, input: HostInput, out: &mut Vec<Effect>) {
        let at = At { now, host };
        match input {
            HostInput::Msg(msg) => {
                match msg {
                    WireMsgRef::Owned(WireMsg::DomainAlert(a)) => self.on_alert(host, a, out),
                    WireMsgRef::Owned(WireMsg::StatsReply(r)) => self.on_stats(at, r, out),
                    WireMsgRef::Owned(WireMsg::DiscRoutes(rt)) => self.on_routes(rt),
                    // Other kinds are not this process's business; the
                    // look is still charged.
                    _ => {}
                }
                out.push(Effect::Charge(MANAGER_PROCESSING_COST));
            }
            HostInput::Timer(tag) if tag >= TAG_QUERY_BASE => {
                self.on_query_timeout(at, tag - TAG_QUERY_BASE, out);
                out.push(Effect::Charge(MANAGER_PROCESSING_COST));
            }
            HostInput::Start | HostInput::Timer(TAG_FED_REGISTER) => self.fed_register(host, out),
            HostInput::Timer(_) => {}
        }
    }

    /// Apply a route push from the discovery server: entries for this
    /// domain's own shard become the host-manager registry, entries for
    /// descendant domains forwarding routes, and the domains table names
    /// the parent's manager. Stale (older-version) pushes are discarded.
    fn on_routes(&mut self, routes: DiscRoutesMsg) {
        let Some((domain, parent, _)) = self.federation else {
            return;
        };
        if routes.domain != domain || !self.ledger.admit_routes(routes.version) {
            return;
        }
        let parent = parent.and_then(|p| routes.domains.iter().find(|d| d.domain == p));
        self.parent_ep = parent.map(|d| d.manager);
        self.host_managers.clear();
        self.routes.clear();
        for h in &routes.hosts {
            let table = if h.domain == domain {
                &mut self.host_managers
            } else {
                &mut self.routes
            };
            table.insert(h.host, h.via);
        }
        if self.telemetry.is_enabled() {
            let (t, label) = (&self.telemetry, domain.to_string());
            let shard = self.host_managers.len() as f64;
            t.gauge("dm.shard.hosts", &label).set(shard);
            t.gauge("dm.routes", &label).set(self.routes.len() as f64);
        }
    }

    /// (Re-)register this domain with the discovery server, and arm the
    /// next re-registration. A no-op unless federated.
    fn fed_register(&self, host: HostId, out: &mut Vec<Effect>) {
        let Some((domain, parent, server)) = self.federation else {
            return;
        };
        let manager = Endpoint::new(host, DOMAIN_MANAGER_PORT);
        let register = DiscDomainRegisterMsg {
            domain,
            manager,
            parent,
        };
        out.push(Effect::SendCtrl(
            server,
            WireMsg::DiscDomainRegister(register),
        ));
        out.push(Effect::SetTimer(FED_REGISTER_PERIOD, TAG_FED_REGISTER));
    }

    /// Mirror [`DomainStats`] into the registry as `dm.*` counters,
    /// adding only what changed since the last mirror.
    pub fn mirror_stats(&mut self, host: HostId) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let label = format!("h{}", host.0);
        let s = &self.stats;
        let cur = [
            ("dm.alerts", s.alerts),
            ("dm.queries", s.queries),
            ("dm.forwarded", s.forwarded),
            ("dm.query_timeouts", s.query_timeouts),
            ("dm.late_replies", s.late_replies),
            ("dm.unroutable_alerts", s.unroutable_alerts),
            ("dm.unactionable", s.unactionable),
            ("dm.actions", s.actions.len() as u64),
        ];
        for ((family, now), before) in cur.into_iter().zip(&mut self.mirrored) {
            if now > *before {
                self.telemetry.counter(family, &label).add(now - *before);
            }
            *before = now;
        }
    }

    fn on_alert(&mut self, host: HostId, alert: DomainAlertMsg, out: &mut Vec<Effect>) {
        self.stats.alerts += 1;
        // Cross-domain: the upstream host is not in our shard — hand the
        // alert to whoever covers it (a discovered route, else the parent
        // domain). An upstream nobody covers is a typed, counted error,
        // never a silent drop.
        let up = alert.upstream.host;
        let Some(&hm) = self.host_managers.get(&up) else {
            match self.routes.get(&up).copied().or(self.parent_ep) {
                Some(dst) => {
                    self.stats.forwarded += 1;
                    out.push(Effect::SendCtrl(dst, WireMsg::DomainAlert(alert)));
                }
                None => {
                    self.stats.unroutable_alerts += 1;
                    self.stats
                        .route_errors
                        .push(RouteError::NoRoute { host: up });
                }
            }
            return;
        };
        self.stats.queries += 1;
        let dm = Endpoint::new(host, DOMAIN_MANAGER_PORT);
        let corr = self.ledger.open(alert.clone(), hm, dm, out);
        self.engine.assert_fact(
            Fact::new("alert")
                .with("corr", corr as i64)
                .with("client", Value::str(pid_to_string(alert.client)))
                .with("client-host", alert.from_host.0 as i64)
                .with("server", Value::str(pid_to_string(alert.upstream.pid)))
                .with("server-host", up.0 as i64)
                .with("fps", alert.observed),
        );
    }

    fn on_stats(&mut self, at: At, reply: StatsReplyMsg, out: &mut Vec<Effect>) {
        // Chaos: lose the reply on arrival — the deadline timer must
        // still diagnose from what we have (stats-timeout path).
        if qos_buggify::buggify!("dm.stats_reply.drop") {
            return;
        }
        // Late (the deadline already diagnosed without it) or duplicate
        // replies must not re-run diagnosis against a retracted alert.
        let alert = self.ledger.answer(reply.correlation);
        self.stats.late_replies = self.ledger.late_replies();
        let Some(alert) = alert else { return };
        self.engine.assert_fact(
            Fact::new("server-stats")
                .with("corr", reply.correlation as i64)
                .with("load", reply.load_avg)
                .with("mem", reply.mem_utilization),
        );
        let seen = [(LOAD, reply.load_avg), (MEM, reply.mem_utilization)];
        self.diagnose(at, &alert, &seen, out);
    }

    /// The stats query hit its deadline: the server-side host manager is
    /// unreachable, indistinguishable from here from a partition on the
    /// path. A `stats-timeout` fact joins the alert, and the rules (see
    /// `stats-timeout-reroute`) decide from what we have.
    fn on_query_timeout(&mut self, at: At, corr: u64, out: &mut Vec<Effect>) {
        let Some(alert) = self.ledger.expire(corr) else {
            return; // reply arrived in time; nothing to do
        };
        self.stats.query_timeouts += 1;
        self.engine
            .assert_fact(Fact::new("stats-timeout").with("corr", corr as i64));
        self.diagnose(at, &alert, &[(STATS_TIMEOUT, 1.0)], out);
    }

    /// Run the rules over what was just asserted about `alert`, and act
    /// on what they decide; `seen` joins the firings in the Diagnose
    /// event.
    fn diagnose(
        &mut self,
        at: At,
        alert: &DomainAlertMsg,
        seen: &[(Name, f64)],
        out: &mut Vec<Effect>,
    ) {
        let run = self.engine.run(200);
        if self.telemetry.is_enabled() {
            let fields = [&[(FIRED, run.fired as f64)], seen].concat();
            let (us, client) = (at.now.as_micros(), pid_name(alert.client));
            let component = component(at.host);
            self.telemetry
                .stage(us, alert.corr, Stage::Diagnose, component, client, &fields);
        }
        let mut calls = std::mem::take(&mut self.calls);
        self.engine.drain_invocations(&mut calls);
        for inv in calls.iter() {
            self.dispatch(at, inv, alert.corr, out);
        }
        self.calls = calls;
    }

    /// Carry out one decision: log it, trace it, emit its effect. A
    /// decision that acts on nothing is counted in
    /// [`DomainStats::unactionable`].
    fn dispatch(&mut self, at: At, inv: InvocationRef<'_>, corr: u64, out: &mut Vec<Effect>) {
        let server = || {
            let pid = inv.args.first().and_then(value_pid)?;
            Some((pid, *self.host_managers.get(&pid.host)?))
        };
        let arg_host = |i: usize| Some(HostId(inv.args.get(i)?.as_f64()? as u32));
        let decided = match inv.command.as_str() {
            "boost-server" => server().map(|(pid, hm)| {
                let adjust = AdjustRequestMsg {
                    pid,
                    steps: 20,
                    corr,
                };
                let boost = Effect::SendCtrl(hm, WireMsg::AdjustRequest(adjust));
                (DomainAction::BoostServer { pid }, boost)
            }),
            // The resident set is set on the remote pid directly, not
            // through its host manager: a shortcut only the simulator
            // allows.
            "boost-server-memory" => server().map(|(pid, _)| {
                let action = DomainAction::BoostServerMemory { pid };
                (action, Effect::Memctl(pid, 64))
            }),
            "reroute" => arg_host(0).zip(arg_host(1)).and_then(|(a, b)| {
                let hops = self.backup_routes.get(&route_key(a, b))?.clone();
                Some((DomainAction::Reroute { a, b }, Effect::Reroute(a, b, hops)))
            }),
            _ => None,
        };
        let Some((action, effect)) = decided else {
            self.stats.unactionable += 1;
            return;
        };
        self.stats.actions.push(action);
        if self.telemetry.is_enabled() {
            let (command, component) = (inv.command.as_str(), component(at.host));
            let us = at.now.as_micros();
            self.telemetry
                .stage(us, corr, Stage::Adapt, component, command, &[]);
        }
        out.push(effect);
    }
}

// Field keys of the stage events.
const FIRED: Name = Name::from_static("fired");
const LOAD: Name = Name::from_static("load");
const MEM: Name = Name::from_static("mem");
const STATS_TIMEOUT: Name = Name::from_static("stats_timeout");

/// When and where a step runs: what its stage events carry.
#[derive(Clone, Copy)]
struct At {
    now: SimTime,
    host: HostId,
}

/// `dm:h<host>`: the component of this manager's stage events.
fn component(host: HostId) -> Name {
    Name::from_fmt(format_args!("dm:h{}", host.0))
}

pub(crate) fn route_key(a: HostId, b: HostId) -> (HostId, HostId) {
    if a.0 <= b.0 {
        (a, b)
    } else {
        (b, a)
    }
}
