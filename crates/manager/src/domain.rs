//! The QoS Domain Manager (Section 5.3): assigned a collection of hosts,
//! it locates the source of problems spanning multiple hosts. On an alert
//! from a client-side host manager it queries the server-side host
//! manager for CPU load and memory usage; its rules then discriminate a
//! server CPU problem (boost the server process), a server memory
//! problem (grow its resident set), or — by elimination — a network
//! problem (reroute traffic around the congested switch).

use std::collections::HashMap;

use qos_inference::prelude::*;
use qos_sim::prelude::*;
use qos_telemetry::{Name, Stage, Telemetry};
use qos_wire::messages::{DiscDomainRegisterMsg, DiscRoutesMsg};

use crate::host::{pid_from_str, pid_name, pid_to_string};
use crate::messages::{
    AdjustRequestMsg, DomainAlertMsg, StatsQueryMsg, StatsReplyMsg, WireMsg, DOMAIN_MANAGER_PORT,
    MANAGER_PROCESSING_COST, STATS_QUERY_DEADLINE,
};
use crate::rules::{domain_base_facts, domain_rules};
use crate::transport::{decode_ctrl, send_ctrl};

/// Timer tags at or above this value carry a stats-query correlation id
/// (`tag - TAG_QUERY_BASE`); tags below are free for other uses.
const TAG_QUERY_BASE: u64 = 1 << 32;

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
    /// shard, no peer or discovered route names it, and there is no
    /// parent domain to escalate to.
    NoRoute {
        /// The upstream host nobody covers.
        host: HostId,
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::NoRoute { host } => {
                write!(f, "no route covers upstream host h{}", host.0)
            }
        }
    }
}

impl std::error::Error for RouteError {}

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
    /// Actions decided (in order).
    pub actions: Vec<DomainAction>,
}

/// Federation state for a domain manager that participates in
/// discovery: its identity in the domain tree plus the routing tables
/// the discovery server pushes.
struct FederationState {
    /// This domain's id.
    domain: DomainId,
    /// Parent domain (None = federation root).
    parent: Option<DomainId>,
    /// The discovery server's endpoint.
    server: Endpoint,
    /// Discovered routes for hosts *below* this domain but outside its
    /// own shard: upstream host → covering domain manager.
    routes: HashMap<HostId, Endpoint>,
    /// The parent domain manager's endpoint, learned from the domains
    /// table of the last route push.
    parent_ep: Option<Endpoint>,
    /// Version of the last applied route push (stale pushes are
    /// ignored — they can arrive reordered under chaos).
    version: u64,
}

/// The domain manager process.
pub struct QosDomainManager {
    engine: Engine,
    /// Host-manager endpoints per host in this domain.
    host_managers: HashMap<HostId, Endpoint>,
    /// Alternate routes installed when a path is diagnosed congested:
    /// `(a, b)` → hop sequence.
    backup_routes: HashMap<(HostId, HostId), Vec<HopId>>,
    /// Peer domain managers responsible for hosts outside this domain.
    /// The paper leaves the inter-domain topology open ("hierarchical or
    /// ... more arbitrary"); peers here form a flat federation keyed by
    /// the host they cover.
    peers: HashMap<HostId, Endpoint>,
    /// Federation membership, when this manager discovers its shard and
    /// routes instead of being hand-wired.
    federation: Option<FederationState>,
    next_correlation: u64,
    /// Pending alerts by correlation id.
    pending: HashMap<u64, DomainAlertMsg>,
    /// Counters and decisions.
    pub stats: DomainStats,
    /// Telemetry handle (inert by default): Diagnose/Adapt stage events
    /// plus `dm.*` registry mirrors of [`DomainStats`].
    telemetry: Telemetry,
    /// Counter values already mirrored into the registry: alerts,
    /// queries, forwarded, query_timeouts, late_replies, unroutable,
    /// actions.
    mirrored: [u64; 7],
}

impl QosDomainManager {
    /// A domain manager over the given host-manager endpoints.
    pub fn new(host_managers: HashMap<HostId, Endpoint>) -> Self {
        let mut engine = Engine::new();
        let prog = parse_program(domain_rules()).expect("built-in rules parse");
        for r in prog.rules {
            engine.add_rule(r);
        }
        for f in parse_program(domain_base_facts())
            .expect("built-in facts parse")
            .facts
        {
            engine.assert_fact(f);
        }
        QosDomainManager {
            engine,
            host_managers,
            backup_routes: HashMap::new(),
            peers: HashMap::new(),
            federation: None,
            next_correlation: 0,
            pending: HashMap::new(),
            stats: DomainStats::default(),
            telemetry: Telemetry::disabled(),
            mirrored: [0; 7],
        }
    }

    /// Join the federation as domain `domain` (child of `parent`; `None`
    /// makes this the root). The manager registers with the discovery
    /// server at `server` on start and keeps re-registering every
    /// [`FED_REGISTER_PERIOD`]; its shard membership and cross-domain
    /// routes then come entirely from the server's route pushes —
    /// nothing is hand-wired.
    pub fn with_federation(
        mut self,
        domain: DomainId,
        parent: Option<DomainId>,
        server: Endpoint,
    ) -> Self {
        self.federation = Some(FederationState {
            domain,
            parent,
            server,
            routes: HashMap::new(),
            parent_ep: None,
            version: 0,
        });
        self
    }

    /// This manager's domain id, when federated.
    pub fn domain_id(&self) -> Option<DomainId> {
        self.federation.as_ref().map(|f| f.domain)
    }

    /// Hosts currently in this manager's shard.
    pub fn shard_size(&self) -> usize {
        self.host_managers.len()
    }

    /// Number of discovered cross-domain routes (hosts in descendant
    /// domains reachable via their covering manager).
    pub fn route_count(&self) -> usize {
        self.federation.as_ref().map_or(0, |f| f.routes.len())
    }

    /// Where an alert for an upstream host outside this shard would be
    /// forwarded: hand-wired peers first (back-compat), then
    /// discovery-learned routes, then the parent domain. The typed
    /// error names the host nobody covers.
    pub fn forward_route(&self, host: HostId) -> Result<Endpoint, RouteError> {
        if let Some(&peer) = self.peers.get(&host) {
            return Ok(peer);
        }
        if let Some(fed) = &self.federation {
            if let Some(&via) = fed.routes.get(&host) {
                return Ok(via);
            }
            if let Some(parent) = fed.parent_ep {
                return Ok(parent);
            }
        }
        Err(RouteError::NoRoute { host })
    }

    /// Apply a route push from the discovery server: entries for this
    /// domain's own shard become the host-manager registry; entries for
    /// descendant domains become forwarding routes; the domains table
    /// names the parent's endpoint. Stale (older-version) pushes are
    /// discarded.
    fn on_routes(&mut self, routes: DiscRoutesMsg) {
        let Some(fed) = self.federation.as_mut() else {
            return;
        };
        if routes.domain != fed.domain || routes.version < fed.version {
            return;
        }
        fed.version = routes.version;
        fed.parent_ep = fed.parent.and_then(|p| {
            routes
                .domains
                .iter()
                .find(|d| d.domain == p)
                .map(|d| d.manager)
        });
        self.host_managers.clear();
        fed.routes.clear();
        for h in &routes.hosts {
            if h.domain == fed.domain {
                self.host_managers.insert(h.host, h.via);
            } else {
                fed.routes.insert(h.host, h.via);
            }
        }
        if self.telemetry.is_enabled() {
            let label = fed.domain.to_string();
            self.telemetry
                .gauge("dm.shard.hosts", &label)
                .set(self.host_managers.len() as f64);
            self.telemetry
                .gauge("dm.routes", &label)
                .set(fed.routes.len() as f64);
        }
    }

    /// (Re-)register this domain with the discovery server.
    fn fed_register(&self, ctx: &mut Ctx<'_>) {
        let Some(fed) = &self.federation else {
            return;
        };
        send_ctrl(
            ctx,
            fed.server,
            DOMAIN_MANAGER_PORT,
            WireMsg::DiscDomainRegister(DiscDomainRegisterMsg {
                domain: fed.domain,
                manager: Endpoint::new(ctx.host_id(), DOMAIN_MANAGER_PORT),
                parent: fed.parent,
            }),
        );
    }

    /// Attach a telemetry handle; the manager emits Diagnose/Adapt stage
    /// events for correlated alerts and mirrors its counters into the
    /// registry under `dm.*`.
    pub fn with_telemetry(mut self, t: &Telemetry) -> Self {
        self.telemetry = t.clone();
        self
    }

    /// Mirror [`DomainStats`] into the registry as `dm.*` counters,
    /// adding only what changed since the last mirror.
    fn mirror_stats(&mut self, host: HostId) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let label = format!("h{}", host.0);
        let cur = [
            self.stats.alerts,
            self.stats.queries,
            self.stats.forwarded,
            self.stats.query_timeouts,
            self.stats.late_replies,
            self.stats.unroutable_alerts,
            self.stats.actions.len() as u64,
        ];
        const FAMILIES: [&str; 7] = [
            "dm.alerts",
            "dm.queries",
            "dm.forwarded",
            "dm.query_timeouts",
            "dm.late_replies",
            "dm.unroutable_alerts",
            "dm.actions",
        ];
        for i in 0..7 {
            if cur[i] > self.mirrored[i] {
                self.telemetry
                    .counter(FAMILIES[i], &label)
                    .add(cur[i] - self.mirrored[i]);
            }
        }
        self.mirrored = cur;
    }

    /// Register an alternate path to install when `a↔b` is congested.
    pub fn add_backup_route(&mut self, a: HostId, b: HostId, hops: Vec<HopId>) {
        self.backup_routes.insert(route_key(a, b), hops);
    }

    /// Register the peer domain manager responsible for a host outside
    /// this domain. Alerts whose upstream lies there are forwarded to the
    /// peer, which owns the server-side diagnosis.
    pub fn add_peer(&mut self, host: HostId, peer: Endpoint) {
        self.peers.insert(host, peer);
    }

    /// Replace/extend the rule base at run time.
    pub fn load_rules(&mut self, text: &str) -> bool {
        match parse_program(text) {
            Ok(p) => {
                for r in p.rules {
                    self.engine.add_rule(r);
                }
                for f in p.facts {
                    self.engine.assert_fact(f);
                }
                true
            }
            Err(_) => false,
        }
    }

    fn on_alert(&mut self, ctx: &mut Ctx<'_>, alert: DomainAlertMsg) {
        self.stats.alerts += 1;
        // Cross-domain: the upstream host is not in our shard — hand the
        // alert to whoever covers it (hand-wired peer, discovered route,
        // or the parent domain). An upstream nobody covers is a typed,
        // counted error, never a silent drop.
        if !self.host_managers.contains_key(&alert.upstream.host) {
            match self.forward_route(alert.upstream.host) {
                Ok(dst) => {
                    self.stats.forwarded += 1;
                    send_ctrl(ctx, dst, DOMAIN_MANAGER_PORT, WireMsg::DomainAlert(alert));
                }
                Err(e) => {
                    self.stats.unroutable_alerts += 1;
                    self.stats.route_errors.push(e);
                }
            }
            return;
        }
        let corr = self.next_correlation;
        self.next_correlation += 1;
        self.engine.assert_fact(
            Fact::new("alert")
                .with("corr", corr as i64)
                .with("client", Value::str(pid_to_string(alert.client)))
                .with("client-host", alert.from_host.0 as i64)
                .with("server", Value::str(pid_to_string(alert.upstream.pid)))
                .with("server-host", alert.upstream.host.0 as i64)
                .with("fps", alert.observed),
        );
        // Ask the server-side host manager for its statistics, with a
        // deadline: a lost query or reply must not leave the alert parked
        // in `pending` forever.
        if let Some(&hm) = self.host_managers.get(&alert.upstream.host) {
            self.stats.queries += 1;
            send_ctrl(
                ctx,
                hm,
                DOMAIN_MANAGER_PORT,
                WireMsg::StatsQuery(StatsQueryMsg {
                    reply_to: Endpoint::new(ctx.host_id(), DOMAIN_MANAGER_PORT),
                    correlation: corr,
                }),
            );
        }
        ctx.set_timer(STATS_QUERY_DEADLINE, TAG_QUERY_BASE + corr);
        self.pending.insert(corr, alert);
    }

    fn on_stats(&mut self, ctx: &mut Ctx<'_>, reply: StatsReplyMsg) {
        // Chaos: lose the reply on arrival — the deadline timer must
        // still diagnose from what we have (stats-timeout path).
        if qos_buggify::buggify!("dm.stats_reply.drop") {
            return;
        }
        // Late (the deadline already diagnosed without it) or duplicate
        // replies must not re-run diagnosis against a retracted alert.
        let Some(alert) = self.pending.remove(&reply.correlation) else {
            self.stats.late_replies += 1;
            return;
        };
        self.engine.assert_fact(
            Fact::new("server-stats")
                .with("corr", reply.correlation as i64)
                .with("load", reply.load_avg)
                .with("mem", reply.mem_utilization),
        );
        let run = self.engine.run(200);
        if self.telemetry.is_enabled() {
            self.telemetry.stage(
                ctx.now().as_micros(),
                alert.corr,
                Stage::Diagnose,
                component(ctx),
                pid_name(alert.client),
                &[
                    (FIRED, run.fired as f64),
                    (LOAD, reply.load_avg),
                    (MEM, reply.mem_utilization),
                ],
            );
        }
        let invocations = self.engine.take_invocations();
        for inv in invocations {
            self.dispatch(ctx, &inv, alert.corr);
        }
    }

    /// The stats query hit its deadline: the server-side host manager is
    /// unreachable, which from here is indistinguishable from a network
    /// partition on the path — diagnose from what we have. A
    /// `stats-timeout` fact joins the alert in working memory and the
    /// rule base (see `stats-timeout-reroute`) decides the action.
    fn on_query_timeout(&mut self, ctx: &mut Ctx<'_>, corr: u64) {
        let Some(alert) = self.pending.remove(&corr) else {
            return; // reply arrived in time; nothing to do
        };
        self.stats.query_timeouts += 1;
        self.engine
            .assert_fact(Fact::new("stats-timeout").with("corr", corr as i64));
        let run = self.engine.run(200);
        if self.telemetry.is_enabled() {
            self.telemetry.stage(
                ctx.now().as_micros(),
                alert.corr,
                Stage::Diagnose,
                component(ctx),
                pid_name(alert.client),
                &[(FIRED, run.fired as f64), (STATS_TIMEOUT, 1.0)],
            );
        }
        let invocations = self.engine.take_invocations();
        for inv in invocations {
            self.dispatch(ctx, &inv, alert.corr);
        }
    }

    /// Emit an Adapt-stage event for a decided action.
    fn emit_adapt(&self, ctx: &Ctx<'_>, corr: u64, action: &str) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry.stage(
            ctx.now().as_micros(),
            corr,
            Stage::Adapt,
            component(ctx),
            action,
            &[],
        );
    }

    fn dispatch(&mut self, ctx: &mut Ctx<'_>, inv: &Invocation, corr: u64) {
        match inv.command.as_str() {
            "boost-server" | "boost-server-memory" => {
                let Some(pid) = inv.args.first().and_then(|v| match v {
                    Value::Str(s) | Value::Sym(s) => pid_from_str(s),
                    _ => None,
                }) else {
                    return;
                };
                let Some(&hm) = self.host_managers.get(&pid.host) else {
                    return;
                };
                if inv.command == "boost-server" {
                    self.stats.actions.push(DomainAction::BoostServer { pid });
                    self.emit_adapt(ctx, corr, "boost-server");
                    send_ctrl(
                        ctx,
                        hm,
                        DOMAIN_MANAGER_PORT,
                        WireMsg::AdjustRequest(AdjustRequestMsg {
                            pid,
                            steps: 20,
                            corr,
                        }),
                    );
                } else {
                    self.stats
                        .actions
                        .push(DomainAction::BoostServerMemory { pid });
                    self.emit_adapt(ctx, corr, "boost-server-memory");
                    // Memory boosts route through the same host-manager
                    // adjust interface with a small CPU nudge plus the
                    // host manager's own memory rules on the next local
                    // violation; the direct knob is the resident set.
                    ctx.memctl(pid, 64);
                }
            }
            "reroute" => {
                let (Some(a), Some(b)) = (
                    inv.args.first().and_then(Value::as_f64),
                    inv.args.get(1).and_then(Value::as_f64),
                ) else {
                    return;
                };
                let (a, b) = (HostId(a as u32), HostId(b as u32));
                if let Some(hops) = self.backup_routes.get(&route_key(a, b)) {
                    self.stats.actions.push(DomainAction::Reroute { a, b });
                    self.emit_adapt(ctx, corr, "reroute");
                    ctx.reroute(a, b, hops.clone());
                }
            }
            _ => {}
        }
    }
}

// Field keys of the stage events.
const FIRED: Name = Name::from_static("fired");
const LOAD: Name = Name::from_static("load");
const MEM: Name = Name::from_static("mem");
const STATS_TIMEOUT: Name = Name::from_static("stats_timeout");

/// `dm:h<host>`: the component of this manager's stage events.
fn component(ctx: &Ctx<'_>) -> Name {
    Name::from_fmt(format_args!("dm:h{}", ctx.host_id().0))
}

fn route_key(a: HostId, b: HostId) -> (HostId, HostId) {
    if a.0 <= b.0 {
        (a, b)
    } else {
        (b, a)
    }
}

impl ProcessLogic for QosDomainManager {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
        match ev {
            ProcEvent::Readable(port) => {
                let Some(msg) = ctx.recv(port) else { return };
                match decode_ctrl(&msg) {
                    Ok(Some(WireMsg::DomainAlert(a))) => self.on_alert(ctx, a),
                    Ok(Some(WireMsg::StatsReply(r))) => self.on_stats(ctx, r),
                    Ok(Some(WireMsg::DiscRoutes(rt))) => self.on_routes(rt),
                    // Other control kinds, app payloads, and corrupt
                    // frames: not this process's business; processing
                    // cost is still charged below.
                    Ok(_) | Err(_) => {}
                }
                ctx.run(MANAGER_PROCESSING_COST);
                self.mirror_stats(ctx.host_id());
            }
            ProcEvent::Timer(tag) if tag >= TAG_QUERY_BASE => {
                self.on_query_timeout(ctx, tag - TAG_QUERY_BASE);
                ctx.run(MANAGER_PROCESSING_COST);
                self.mirror_stats(ctx.host_id());
            }
            ProcEvent::Start => {
                if self.federation.is_some() {
                    self.fed_register(ctx);
                    ctx.set_timer(FED_REGISTER_PERIOD, TAG_FED_REGISTER);
                }
            }
            ProcEvent::Timer(TAG_FED_REGISTER) => {
                self.fed_register(ctx);
                ctx.set_timer(FED_REGISTER_PERIOD, TAG_FED_REGISTER);
            }
            ProcEvent::BurstDone | ProcEvent::Timer(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_key_symmetric() {
        assert_eq!(route_key(HostId(2), HostId(1)), (HostId(1), HostId(2)));
        assert_eq!(route_key(HostId(1), HostId(2)), (HostId(1), HostId(2)));
    }

    #[test]
    fn construction_loads_rules() {
        let dm = QosDomainManager::new(HashMap::new());
        assert!(dm.engine.rule_names().count() >= 3);
    }

    #[test]
    fn dynamic_rule_swap() {
        let mut dm = QosDomainManager::new(HashMap::new());
        assert!(dm.load_rules("(defrule custom (alert (corr ?c)) => (call custom-action ?c))"));
        assert!(dm.engine.rule_names().any(|n| n == "custom"));
        assert!(!dm.load_rules("(((broken"));
    }
}
