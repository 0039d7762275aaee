//! Management-plane message types and their wire encodings.
//!
//! These are the payloads of Section 5's control plane: instrumented
//! processes talk to their QoS Host Manager over local IPC; host managers
//! talk to the QoS Domain Manager over the network; the Policy Agent
//! handles registration. The structs used to live in `qos-manager`; they
//! moved here so one crate owns both the types and their byte layout,
//! and `qos-manager` re-exports them unchanged.
//!
//! [`WireMsg`] is the closed union of everything the protocol can carry;
//! each variant has a stable kind byte (see [`WireMsg::kind`]) recorded
//! in the frame header.

use qos_policy::ast::{ActionStmt, ArgExpr, CmpOp, PathExpr};
use qos_policy::compile::{BoolExpr, CompiledCondition, CompiledPolicy};
use qos_sim::{DomainId, Dur, Endpoint, HostId, Pid, Port};
use qos_telemetry::record::{self, RecError};
use qos_telemetry::{MetricSnapshot, TraceEvent};

use crate::borrowed::{LiveViolationMsgRef, ViolationMsgRef};
use crate::codec::{Wire, WireReader, WireWriter};
use crate::error::WireError;

/// Port the QoS Host Manager listens on (every managed host).
pub const HOST_MANAGER_PORT: Port = 10;
/// Port the QoS Domain Manager listens on (management host).
pub const DOMAIN_MANAGER_PORT: Port = 11;
/// Port the Policy Agent listens on (management host).
pub const POLICY_AGENT_PORT: Port = 12;
/// Port the Discovery Server listens on (management host).
pub const DISCOVERY_PORT: Port = 13;

/// Default lease a discovery assignment is valid for. A host manager
/// renews at half this period; the discovery server expires bindings
/// whose lease lapses and withdraws them from the routing tables.
pub const DISCOVERY_LEASE: Dur = Dur::from_secs(4);

/// CPU cost model for manager message handling (drives simulated manager
/// overhead).
pub const MANAGER_PROCESSING_COST: Dur = Dur::from_micros(400);

/// How often a heartbeat-promising client re-sends its [`RegisterMsg`].
/// Re-registration doubles as state repair: a restarted host manager
/// rebuilds its registry within one period.
pub const REGISTRATION_HEARTBEAT_PERIOD: Dur = Dur::from_secs(2);

/// How long the domain manager waits for a [`StatsReplyMsg`] before
/// diagnosing from partial information. Generous against LAN latencies
/// (a round trip is milliseconds) so only real loss or partitions
/// trigger it.
pub const STATS_QUERY_DEADLINE: Dur = Dur::from_millis(500);

/// A violation notification from a coordinator, with enough context for
/// the host manager's rules to judge "how close the policy is to being
/// satisfied".
#[derive(Debug, Clone, PartialEq)]
pub struct ViolationMsg {
    /// The violating process.
    pub pid: Pid,
    /// Process/executable name.
    pub proc_name: String,
    /// Violated policy name.
    pub policy: String,
    /// Telemetry correlation id of the violation episode (0 = none),
    /// propagated from the reporting coordinator so detection, diagnosis
    /// and adaptation share one causal chain.
    pub corr: u64,
    /// Attribute readings from the policy's sensor-read actions.
    pub readings: Vec<(String, f64)>,
    /// Requirement bounds on the primary attribute `(attr, lo, hi)`,
    /// extracted from the compiled policy's condition list.
    pub bounds: Option<(String, f64, f64)>,
    /// Where the process's stream originates, if it is a network client
    /// (lets diagnosis escalate to the right server).
    pub upstream: Option<Upstream>,
}

/// Identity of the remote peer feeding a client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Upstream {
    /// Server host.
    pub host: HostId,
    /// Server process.
    pub pid: Pid,
}

/// Registration of a starting process with its host manager (the
/// prototype's "instrumented processes communicate with the QoS Host
/// Manager ... at the initialisation of the processes").
#[derive(Debug, Clone, PartialEq)]
pub struct RegisterMsg {
    /// The registering process.
    pub pid: Pid,
    /// Port the process accepts control messages (e.g. [`AdaptMsg`]) on.
    pub control_port: Port,
    /// Executable name.
    pub executable: String,
    /// Application name.
    pub application: String,
    /// User role for this session.
    pub role: String,
    /// Relative importance for differentiated administrative policies
    /// (1.0 = default).
    pub weight: f64,
    /// If set, the process promises to re-register at least this often;
    /// the host manager treats a registration as a liveness heartbeat
    /// and, after several missed periods, declares the process dead and
    /// reclaims everything granted to it. `None` opts out (one-shot
    /// registrants are never reaped on silence).
    pub heartbeat: Option<Dur>,
}

/// Policy-distribution request to the Policy Agent.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentRequest {
    /// The registering process.
    pub pid: Pid,
    /// Port to deliver the resolution to.
    pub reply_port: Port,
    /// Registration details.
    pub registration: RegisterMsg,
}

/// Policies resolved by the Policy Agent for a process.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentReply {
    /// Compiled policies for the coordinator.
    pub policies: Vec<CompiledPolicy>,
}

/// Host manager → domain manager: a violation this host cannot explain
/// locally (small communication buffer ⇒ remote or network cause).
#[derive(Debug, Clone, PartialEq)]
pub struct DomainAlertMsg {
    /// Host raising the alert.
    pub from_host: HostId,
    /// The violating client process.
    pub client: Pid,
    /// The stream's server side.
    pub upstream: Upstream,
    /// Observed primary metric (e.g. frames per second).
    pub observed: f64,
    /// Telemetry correlation id of the violation episode being escalated
    /// (0 = none).
    pub corr: u64,
}

/// Domain manager → host manager: report your host statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsQueryMsg {
    /// Where to send the [`StatsReplyMsg`].
    pub reply_to: Endpoint,
    /// Correlation id assigned by the querier.
    pub correlation: u64,
}

/// Host manager → domain manager: host statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsReplyMsg {
    /// Reporting host.
    pub host: HostId,
    /// 1-minute load average.
    pub load_avg: f64,
    /// Memory utilization, `[0, 1]`.
    pub mem_utilization: f64,
    /// Correlation id from the query.
    pub correlation: u64,
}

/// Domain manager → server-side host manager: raise the CPU allocation of
/// a named server process ("tell a QoS Host Manager on a server machine
/// to increase the CPU priority of the server process").
#[derive(Debug, Clone, PartialEq)]
pub struct AdjustRequestMsg {
    /// The process to boost.
    pub pid: Pid,
    /// Boost size in TS user-priority steps.
    pub steps: i16,
    /// Telemetry correlation id of the violation episode this adjustment
    /// serves (0 = none).
    pub corr: u64,
}

/// Manager → instrumented process: invoke an actuator (the Section 5.1
/// control path — used for the Section 10 "overload" extension where the
/// application adapts its behaviour because no resource allocation can
/// satisfy the requirement).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptMsg {
    /// The actuator to invoke.
    pub actuator: String,
    /// Command understood by the actuator.
    pub command: String,
    /// Numeric argument.
    pub value: f64,
}

/// Dynamic rule distribution: add/remove rules in a running manager
/// without recompilation (Section 9).
#[derive(Debug, Clone, PartialEq)]
pub struct RuleUpdateMsg {
    /// CLIPS-format rule text to add (may contain several `defrule`s).
    pub add: Option<String>,
    /// Rule names to remove.
    pub remove: Vec<String>,
}

/// Live-mode registration handshake: a real OS process announcing itself
/// to a [`LiveHostManager`](../../qos_manager/live/index.html) over a
/// channel or socket transport.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveRegisterMsg {
    /// Process identity (the registration's process string).
    pub process: String,
}

/// Live-mode violation notification — the wire form of
/// `qos_instrument::ViolationReport` (that crate adds the conversions, so
/// the codec stays free of an instrument dependency).
#[derive(Debug, Clone, PartialEq)]
pub struct LiveViolationMsg {
    /// Violated policy name.
    pub policy: String,
    /// Reporting process (subject identity).
    pub process: String,
    /// Timestamp, microseconds.
    pub at_us: u64,
    /// Telemetry correlation id of the violation episode (0 = none).
    pub corr: u64,
    /// Attribute readings gathered by the policy's sensor-read actions.
    pub readings: Vec<(String, f64)>,
}

/// Subscriber → manager: start streaming telemetry to this connection.
/// The manager replies on the same connection with a stream of
/// [`TelemetryBatchMsg`] frames until the subscriber disconnects.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySubscribeMsg {
    /// Subscriber identity (for the manager's stats; e.g. `qosctl-tail`).
    pub subscriber: String,
    /// Stream trace events (violation lifecycles).
    pub want_events: bool,
    /// Stream periodic metrics-registry snapshots.
    pub want_metrics: bool,
}

/// Manager → subscriber: one batch of telemetry. Event batches are
/// published on a short interval (or sooner when a batch fills);
/// metrics snapshots ride along periodically.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryBatchMsg {
    /// Per-subscriber batch sequence number (gaps ⇒ batches were
    /// dropped by backpressure).
    pub seq: u64,
    /// Publishing component, e.g. `host-manager`.
    pub source: String,
    /// Trace events since the previous batch (empty for metrics-only
    /// batches).
    pub events: Vec<TraceEvent>,
    /// Periodic registry snapshot `(at_us, series)`, when due.
    pub metrics: Option<(u64, Vec<MetricSnapshot>)>,
}

/// Host manager → discovery server: "I manage host H, bind me to a
/// domain manager." Sent at start-up and re-sent with backoff until a
/// [`DiscAssignMsg`] for the current `epoch` arrives; re-discovery after
/// domain-manager loss bumps the epoch so stale assignments are
/// rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DiscAnnounceMsg {
    /// The announcing host.
    pub host: HostId,
    /// The host manager's control endpoint (where assignments and
    /// domain-manager traffic should be sent).
    pub manager: Endpoint,
    /// The announcer's binding epoch: incremented on every re-discovery,
    /// echoed in the assignment so the client can reject stale replies.
    pub epoch: u64,
}

/// Discovery server → host manager: your domain manager. The binding is
/// valid for `lease`; the client renews at half the lease period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DiscAssignMsg {
    /// The host being assigned.
    pub host: HostId,
    /// Epoch from the announce this assignment answers.
    pub epoch: u64,
    /// The domain shard the host now belongs to.
    pub domain: DomainId,
    /// The domain manager's control endpoint.
    pub manager: Endpoint,
    /// Lease duration for this binding.
    pub lease: Dur,
}

/// Host manager → discovery server: extend my lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DiscLeaseRenewMsg {
    /// The renewing host.
    pub host: HostId,
    /// The domain the host believes it is bound to.
    pub domain: DomainId,
    /// The binding epoch being renewed.
    pub epoch: u64,
}

/// Discovery server → host manager: lease extended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DiscLeaseAckMsg {
    /// The renewed host.
    pub host: HostId,
    /// Epoch from the matching renewal.
    pub epoch: u64,
    /// The fresh lease duration.
    pub lease: Dur,
}

/// Domain manager → discovery server: "domain D is managed at this
/// endpoint." `parent` links the domain into the federation hierarchy
/// (None ⇒ this is the root domain). Re-sent periodically as a
/// heartbeat so a restarted discovery server re-learns the federation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DiscDomainRegisterMsg {
    /// The registering domain.
    pub domain: DomainId,
    /// The domain manager's control endpoint.
    pub manager: Endpoint,
    /// The parent domain in the hierarchy (None ⇒ root).
    pub parent: Option<DomainId>,
}

/// One federation-topology entry in a [`DiscRoutesMsg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DomainInfoEntry {
    /// The domain.
    pub domain: DomainId,
    /// Its manager's control endpoint.
    pub manager: Endpoint,
    /// Its parent in the hierarchy (None ⇒ root).
    pub parent: Option<DomainId>,
}

/// One host-route entry in a [`DiscRoutesMsg`]: alerts about `host`
/// should be sent to `via` (the host manager itself for hosts in the
/// recipient's own shard; the covering domain manager otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HostRouteEntry {
    /// The routed host.
    pub host: HostId,
    /// The domain shard covering it.
    pub domain: DomainId,
    /// Next hop for traffic concerning this host.
    pub via: Endpoint,
}

/// Discovery server → domain manager: the routes you need. Pushed on
/// every topology change, scoped to the recipient's subtree: a leaf
/// domain learns its own shard, the root learns how to reach every
/// domain — this replaces hand-wired `add_peer` tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscRoutesMsg {
    /// The recipient domain.
    pub domain: DomainId,
    /// Monotonic topology version; stale pushes (reordered in flight)
    /// are ignored by the receiver.
    pub version: u64,
    /// The federation: every registered domain with its manager and
    /// parent.
    pub domains: Vec<DomainInfoEntry>,
    /// Host routes for the recipient's subtree.
    pub hosts: Vec<HostRouteEntry>,
}

/// A coalesced frame: one frame carrying several management-plane
/// messages, so a sensor burst pays one frame header, one transport
/// send and one manager wake-up instead of N. The payload is a `u32`
/// count followed by `count` items, each `(kind u8, len u32 LE, body)`.
/// Batches must not nest — a batch item with the batch kind byte is a
/// decode error, which keeps the format depth-1 and the decoder
/// stack-safe without recursion accounting.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchMsg {
    /// The coalesced messages, in send order.
    pub msgs: Vec<WireMsg>,
}

/// Frame-header kind byte of [`BatchMsg`] / [`WireMsg::Batch`].
pub const KIND_BATCH: u8 = 18;

/// Frame-header kind byte of [`ViolationMsg`] / [`WireMsg::Violation`].
pub(crate) const KIND_VIOLATION: u8 = 1;

/// The closed union of management-plane messages. The frame header's
/// kind byte selects the variant; unknown kinds are rejected with
/// [`WireError::UnknownKind`] so an old build fails loudly instead of
/// misparsing a newer peer.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// Coordinator → host manager (simulated plane).
    Violation(ViolationMsg),
    /// Process → host manager registration/heartbeat.
    Register(RegisterMsg),
    /// Process → Policy Agent.
    AgentRequest(AgentRequest),
    /// Policy Agent → process (policy push / fallback resolution).
    AgentReply(AgentReply),
    /// Host manager → domain manager escalation.
    DomainAlert(DomainAlertMsg),
    /// Domain manager → host manager statistics query.
    StatsQuery(StatsQueryMsg),
    /// Host manager → domain manager statistics reply.
    StatsReply(StatsReplyMsg),
    /// Domain manager → host manager CPU adjustment request.
    AdjustRequest(AdjustRequestMsg),
    /// Manager → process actuator invocation.
    Adapt(AdaptMsg),
    /// Dynamic rule distribution.
    RuleUpdate(RuleUpdateMsg),
    /// Live-mode registration handshake.
    LiveRegister(LiveRegisterMsg),
    /// Live-mode violation notification.
    LiveViolation(LiveViolationMsg),
    /// Barrier request: the receiver acks with [`WireMsg::SyncAck`]
    /// carrying the same token once everything queued before this frame
    /// has been processed (the wire form of the old in-proc
    /// `Sync { ack }` channel message, which cannot cross a socket).
    SyncReq {
        /// Caller-chosen token echoed in the ack.
        token: u64,
    },
    /// Barrier acknowledgement.
    SyncAck {
        /// Token from the matching [`WireMsg::SyncReq`].
        token: u64,
    },
    /// Graceful goodbye: the peer is disconnecting on purpose.
    Bye,
    /// Subscriber → manager telemetry subscription.
    TelemetrySubscribe(TelemetrySubscribeMsg),
    /// Manager → subscriber telemetry batch.
    TelemetryBatch(TelemetryBatchMsg),
    /// Several coalesced messages in one frame (report batching).
    Batch(BatchMsg),
    /// Host manager → discovery server: find me a domain manager.
    DiscAnnounce(DiscAnnounceMsg),
    /// Discovery server → host manager: your domain assignment.
    DiscAssign(DiscAssignMsg),
    /// Host manager → discovery server: lease renewal.
    DiscLeaseRenew(DiscLeaseRenewMsg),
    /// Discovery server → host manager: lease extended.
    DiscLeaseAck(DiscLeaseAckMsg),
    /// Domain manager → discovery server: federation registration.
    DiscDomainRegister(DiscDomainRegisterMsg),
    /// Discovery server → domain manager: learned routes push.
    DiscRoutes(DiscRoutesMsg),
}

impl WireMsg {
    /// The frame-header kind byte of this message.
    pub fn kind(&self) -> u8 {
        match self {
            WireMsg::Violation(_) => KIND_VIOLATION,
            WireMsg::Register(_) => 2,
            WireMsg::AgentRequest(_) => 3,
            WireMsg::AgentReply(_) => 4,
            WireMsg::DomainAlert(_) => 5,
            WireMsg::StatsQuery(_) => 6,
            WireMsg::StatsReply(_) => 7,
            WireMsg::AdjustRequest(_) => 8,
            WireMsg::Adapt(_) => 9,
            WireMsg::RuleUpdate(_) => 10,
            WireMsg::LiveRegister(_) => 11,
            WireMsg::LiveViolation(_) => 12,
            WireMsg::SyncReq { .. } => 13,
            WireMsg::SyncAck { .. } => 14,
            WireMsg::Bye => 15,
            WireMsg::TelemetrySubscribe(_) => 16,
            WireMsg::TelemetryBatch(_) => 17,
            WireMsg::Batch(_) => KIND_BATCH,
            WireMsg::DiscAnnounce(_) => 19,
            WireMsg::DiscAssign(_) => 20,
            WireMsg::DiscLeaseRenew(_) => 21,
            WireMsg::DiscLeaseAck(_) => 22,
            WireMsg::DiscDomainRegister(_) => 23,
            WireMsg::DiscRoutes(_) => 24,
        }
    }

    /// Encode the payload body (no frame header) into `w`.
    pub fn encode_body(&self, w: &mut WireWriter) {
        match self {
            WireMsg::Violation(m) => m.encode(w),
            WireMsg::Register(m) => m.encode(w),
            WireMsg::AgentRequest(m) => m.encode(w),
            WireMsg::AgentReply(m) => m.encode(w),
            WireMsg::DomainAlert(m) => m.encode(w),
            WireMsg::StatsQuery(m) => m.encode(w),
            WireMsg::StatsReply(m) => m.encode(w),
            WireMsg::AdjustRequest(m) => m.encode(w),
            WireMsg::Adapt(m) => m.encode(w),
            WireMsg::RuleUpdate(m) => m.encode(w),
            WireMsg::LiveRegister(m) => m.encode(w),
            WireMsg::LiveViolation(m) => m.encode(w),
            WireMsg::SyncReq { token } | WireMsg::SyncAck { token } => w.put_u64(*token),
            WireMsg::Bye => {}
            WireMsg::TelemetrySubscribe(m) => m.encode(w),
            WireMsg::TelemetryBatch(m) => m.encode(w),
            WireMsg::Batch(m) => m.encode(w),
            WireMsg::DiscAnnounce(m) => m.encode(w),
            WireMsg::DiscAssign(m) => m.encode(w),
            WireMsg::DiscLeaseRenew(m) => m.encode(w),
            WireMsg::DiscLeaseAck(m) => m.encode(w),
            WireMsg::DiscDomainRegister(m) => m.encode(w),
            WireMsg::DiscRoutes(m) => m.encode(w),
        }
    }

    /// Decode the payload body of the given `kind` from `r`. The caller
    /// (frame layer) checks that `r` is consumed exactly.
    pub fn decode_body(kind: u8, r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match kind {
            KIND_VIOLATION => WireMsg::Violation(r.get()?),
            2 => WireMsg::Register(r.get()?),
            3 => WireMsg::AgentRequest(r.get()?),
            4 => WireMsg::AgentReply(r.get()?),
            5 => WireMsg::DomainAlert(r.get()?),
            6 => WireMsg::StatsQuery(r.get()?),
            7 => WireMsg::StatsReply(r.get()?),
            8 => WireMsg::AdjustRequest(r.get()?),
            9 => WireMsg::Adapt(r.get()?),
            10 => WireMsg::RuleUpdate(r.get()?),
            11 => WireMsg::LiveRegister(r.get()?),
            12 => WireMsg::LiveViolation(r.get()?),
            13 => WireMsg::SyncReq {
                token: r.get_u64()?,
            },
            14 => WireMsg::SyncAck {
                token: r.get_u64()?,
            },
            15 => WireMsg::Bye,
            16 => WireMsg::TelemetrySubscribe(r.get()?),
            17 => WireMsg::TelemetryBatch(r.get()?),
            KIND_BATCH => WireMsg::Batch(BatchMsg::decode(r)?),
            19 => WireMsg::DiscAnnounce(r.get()?),
            20 => WireMsg::DiscAssign(r.get()?),
            21 => WireMsg::DiscLeaseRenew(r.get()?),
            22 => WireMsg::DiscLeaseAck(r.get()?),
            23 => WireMsg::DiscDomainRegister(r.get()?),
            24 => WireMsg::DiscRoutes(r.get()?),
            other => return Err(WireError::UnknownKind(other)),
        })
    }
}

impl BatchMsg {
    /// Encode: `u32` count, then each item as `(kind, len, body)`.
    pub fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.msgs.len() as u32);
        for m in &self.msgs {
            w.put_u8(m.kind());
            let len_at = w.len();
            w.put_u32(0); // item length, patched below
            let body_start = w.len();
            m.encode_body(w);
            w.patch_u32(len_at, (w.len() - body_start) as u32);
        }
    }

    /// Decode, validating every item eagerly (a batch is accepted whole
    /// or rejected whole). Nested batches are rejected.
    pub fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.get_u32()? as usize;
        // Each item costs at least 5 header bytes; cap the preallocation
        // so a corrupt count cannot drive a huge allocation.
        let mut msgs = Vec::with_capacity(n.min(r.remaining() / 5));
        for _ in 0..n {
            let kind = r.get_u8()?;
            if kind == KIND_BATCH {
                return Err(WireError::BadValue("nested batch"));
            }
            let len = r.get_u32()? as usize;
            let body = r.get_raw(len)?;
            let mut br = WireReader::new(body);
            let msg = WireMsg::decode_body(kind, &mut br)?;
            br.finish()?;
            msgs.push(msg);
        }
        Ok(BatchMsg { msgs })
    }
}

// ---------------------------------------------------------------------
// Wire impls: simulation identifiers
// ---------------------------------------------------------------------

impl Wire for HostId {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.0);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(HostId(r.get_u32()?))
    }
}

impl Wire for Pid {
    fn encode(&self, w: &mut WireWriter) {
        self.host.encode(w);
        w.put_u32(self.local);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Pid {
            host: HostId::decode(r)?,
            local: r.get_u32()?,
        })
    }
}

impl Wire for Endpoint {
    fn encode(&self, w: &mut WireWriter) {
        self.host.encode(w);
        w.put_u16(self.port);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Endpoint {
            host: HostId::decode(r)?,
            port: r.get_u16()?,
        })
    }
}

impl Wire for Dur {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.as_micros());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Dur::from_micros(r.get_u64()?))
    }
}

impl Wire for DomainId {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.0);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(DomainId(r.get_u32()?))
    }
}

// ---------------------------------------------------------------------
// Wire impls: discovery-plane messages
// ---------------------------------------------------------------------

impl Wire for DiscAnnounceMsg {
    fn encode(&self, w: &mut WireWriter) {
        self.host.encode(w);
        self.manager.encode(w);
        w.put_u64(self.epoch);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(DiscAnnounceMsg {
            host: r.get()?,
            manager: r.get()?,
            epoch: r.get_u64()?,
        })
    }
}

impl Wire for DiscAssignMsg {
    fn encode(&self, w: &mut WireWriter) {
        self.host.encode(w);
        w.put_u64(self.epoch);
        self.domain.encode(w);
        self.manager.encode(w);
        self.lease.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(DiscAssignMsg {
            host: r.get()?,
            epoch: r.get_u64()?,
            domain: r.get()?,
            manager: r.get()?,
            lease: r.get()?,
        })
    }
}

impl Wire for DiscLeaseRenewMsg {
    fn encode(&self, w: &mut WireWriter) {
        self.host.encode(w);
        self.domain.encode(w);
        w.put_u64(self.epoch);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(DiscLeaseRenewMsg {
            host: r.get()?,
            domain: r.get()?,
            epoch: r.get_u64()?,
        })
    }
}

impl Wire for DiscLeaseAckMsg {
    fn encode(&self, w: &mut WireWriter) {
        self.host.encode(w);
        w.put_u64(self.epoch);
        self.lease.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(DiscLeaseAckMsg {
            host: r.get()?,
            epoch: r.get_u64()?,
            lease: r.get()?,
        })
    }
}

impl Wire for DiscDomainRegisterMsg {
    fn encode(&self, w: &mut WireWriter) {
        self.domain.encode(w);
        self.manager.encode(w);
        self.parent.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(DiscDomainRegisterMsg {
            domain: r.get()?,
            manager: r.get()?,
            parent: r.get()?,
        })
    }
}

impl Wire for DomainInfoEntry {
    fn encode(&self, w: &mut WireWriter) {
        self.domain.encode(w);
        self.manager.encode(w);
        self.parent.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(DomainInfoEntry {
            domain: r.get()?,
            manager: r.get()?,
            parent: r.get()?,
        })
    }
}

impl Wire for HostRouteEntry {
    fn encode(&self, w: &mut WireWriter) {
        self.host.encode(w);
        self.domain.encode(w);
        self.via.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(HostRouteEntry {
            host: r.get()?,
            domain: r.get()?,
            via: r.get()?,
        })
    }
}

impl Wire for DiscRoutesMsg {
    fn encode(&self, w: &mut WireWriter) {
        self.domain.encode(w);
        w.put_u64(self.version);
        self.domains.encode(w);
        self.hosts.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(DiscRoutesMsg {
            domain: r.get()?,
            version: r.get_u64()?,
            domains: r.get()?,
            hosts: r.get()?,
        })
    }
}

// ---------------------------------------------------------------------
// Wire impls: compiled-policy types (the AgentReply payload)
// ---------------------------------------------------------------------

impl Wire for CmpOp {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(match self {
            CmpOp::Eq => 0,
            CmpOp::Ne => 1,
            CmpOp::Lt => 2,
            CmpOp::Le => 3,
            CmpOp::Gt => 4,
            CmpOp::Ge => 5,
        });
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.get_u8()? {
            0 => CmpOp::Eq,
            1 => CmpOp::Ne,
            2 => CmpOp::Lt,
            3 => CmpOp::Le,
            4 => CmpOp::Gt,
            5 => CmpOp::Ge,
            _ => return Err(WireError::BadValue("CmpOp tag")),
        })
    }
}

impl Wire for PathExpr {
    fn encode(&self, w: &mut WireWriter) {
        w.put_bool(self.elided_prefix);
        self.segments.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(PathExpr {
            elided_prefix: r.get_bool()?,
            segments: r.get()?,
        })
    }
}

impl Wire for ArgExpr {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            ArgExpr::Out(s) => {
                w.put_u8(0);
                w.put_str(s);
            }
            ArgExpr::Name(s) => {
                w.put_u8(1);
                w.put_str(s);
            }
            ArgExpr::Num(v) => {
                w.put_u8(2);
                w.put_f64(*v);
            }
            ArgExpr::Str(s) => {
                w.put_u8(3);
                w.put_str(s);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.get_u8()? {
            0 => ArgExpr::Out(r.get_str()?),
            1 => ArgExpr::Name(r.get_str()?),
            2 => ArgExpr::Num(r.get_f64()?),
            3 => ArgExpr::Str(r.get_str()?),
            _ => return Err(WireError::BadValue("ArgExpr tag")),
        })
    }
}

impl Wire for ActionStmt {
    fn encode(&self, w: &mut WireWriter) {
        self.target.encode(w);
        w.put_str(&self.method);
        self.args.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ActionStmt {
            target: r.get()?,
            method: r.get_str()?,
            args: r.get()?,
        })
    }
}

impl Wire for CompiledCondition {
    fn encode(&self, w: &mut WireWriter) {
        w.put_str(&self.attr);
        self.op.encode(w);
        w.put_f64(self.value);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(CompiledCondition {
            attr: r.get_str()?,
            op: r.get()?,
            value: r.get_f64()?,
        })
    }
}

impl Wire for BoolExpr {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            BoolExpr::Var(i) => {
                w.put_u8(0);
                w.put_u32(*i as u32);
            }
            BoolExpr::And(es) => {
                w.put_u8(1);
                es.encode(w);
            }
            BoolExpr::Or(es) => {
                w.put_u8(2);
                es.encode(w);
            }
            BoolExpr::Not(e) => {
                w.put_u8(3);
                e.encode(w);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        // Depth-bounded: a frame of nested Not bytes must exhaust
        // MAX_NESTING, not the thread's stack.
        r.descend()?;
        let out = match r.get_u8()? {
            0 => BoolExpr::Var(r.get_u32()? as usize),
            1 => BoolExpr::And(r.get()?),
            2 => BoolExpr::Or(r.get()?),
            3 => BoolExpr::Not(Box::new(BoolExpr::decode(r)?)),
            _ => return Err(WireError::BadValue("BoolExpr tag")),
        };
        r.ascend();
        Ok(out)
    }
}

impl Wire for CompiledPolicy {
    fn encode(&self, w: &mut WireWriter) {
        w.put_str(&self.name);
        self.subject.encode(w);
        self.targets.encode(w);
        self.conditions.encode(w);
        self.requirement.encode(w);
        self.actions.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(CompiledPolicy {
            name: r.get_str()?,
            subject: r.get()?,
            targets: r.get()?,
            conditions: r.get()?,
            requirement: r.get()?,
            actions: r.get()?,
        })
    }
}

// ---------------------------------------------------------------------
// Wire impls: the management messages themselves
// ---------------------------------------------------------------------

impl Wire for Upstream {
    fn encode(&self, w: &mut WireWriter) {
        self.host.encode(w);
        self.pid.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Upstream {
            host: r.get()?,
            pid: r.get()?,
        })
    }
}

impl Wire for ViolationMsg {
    fn encode(&self, w: &mut WireWriter) {
        self.as_view().encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ViolationMsgRef::decode(r)?.to_owned())
    }
}

impl Wire for RegisterMsg {
    fn encode(&self, w: &mut WireWriter) {
        self.pid.encode(w);
        w.put_u16(self.control_port);
        w.put_str(&self.executable);
        w.put_str(&self.application);
        w.put_str(&self.role);
        w.put_f64(self.weight);
        self.heartbeat.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(RegisterMsg {
            pid: r.get()?,
            control_port: r.get_u16()?,
            executable: r.get_str()?,
            application: r.get_str()?,
            role: r.get_str()?,
            weight: r.get_f64()?,
            heartbeat: r.get()?,
        })
    }
}

impl Wire for AgentRequest {
    fn encode(&self, w: &mut WireWriter) {
        self.pid.encode(w);
        w.put_u16(self.reply_port);
        self.registration.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(AgentRequest {
            pid: r.get()?,
            reply_port: r.get_u16()?,
            registration: r.get()?,
        })
    }
}

impl Wire for AgentReply {
    fn encode(&self, w: &mut WireWriter) {
        self.policies.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(AgentReply { policies: r.get()? })
    }
}

impl Wire for DomainAlertMsg {
    fn encode(&self, w: &mut WireWriter) {
        self.from_host.encode(w);
        self.client.encode(w);
        self.upstream.encode(w);
        w.put_f64(self.observed);
        w.put_u64(self.corr);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(DomainAlertMsg {
            from_host: r.get()?,
            client: r.get()?,
            upstream: r.get()?,
            observed: r.get_f64()?,
            corr: r.get_u64()?,
        })
    }
}

impl Wire for StatsQueryMsg {
    fn encode(&self, w: &mut WireWriter) {
        self.reply_to.encode(w);
        w.put_u64(self.correlation);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(StatsQueryMsg {
            reply_to: r.get()?,
            correlation: r.get_u64()?,
        })
    }
}

impl Wire for StatsReplyMsg {
    fn encode(&self, w: &mut WireWriter) {
        self.host.encode(w);
        w.put_f64(self.load_avg);
        w.put_f64(self.mem_utilization);
        w.put_u64(self.correlation);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(StatsReplyMsg {
            host: r.get()?,
            load_avg: r.get_f64()?,
            mem_utilization: r.get_f64()?,
            correlation: r.get_u64()?,
        })
    }
}

impl Wire for AdjustRequestMsg {
    fn encode(&self, w: &mut WireWriter) {
        self.pid.encode(w);
        w.put_i16(self.steps);
        w.put_u64(self.corr);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(AdjustRequestMsg {
            pid: r.get()?,
            steps: r.get_i16()?,
            corr: r.get_u64()?,
        })
    }
}

impl Wire for AdaptMsg {
    fn encode(&self, w: &mut WireWriter) {
        w.put_str(&self.actuator);
        w.put_str(&self.command);
        w.put_f64(self.value);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(AdaptMsg {
            actuator: r.get_str()?,
            command: r.get_str()?,
            value: r.get_f64()?,
        })
    }
}

impl Wire for RuleUpdateMsg {
    fn encode(&self, w: &mut WireWriter) {
        self.add.encode(w);
        self.remove.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(RuleUpdateMsg {
            add: r.get()?,
            remove: r.get()?,
        })
    }
}

impl Wire for LiveRegisterMsg {
    fn encode(&self, w: &mut WireWriter) {
        w.put_str(&self.process);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(LiveRegisterMsg {
            process: r.get_str()?,
        })
    }
}

impl Wire for TelemetrySubscribeMsg {
    fn encode(&self, w: &mut WireWriter) {
        w.put_str(&self.subscriber);
        w.put_bool(self.want_events);
        w.put_bool(self.want_metrics);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(TelemetrySubscribeMsg {
            subscriber: r.get_str()?,
            want_events: r.get_bool()?,
            want_metrics: r.get_bool()?,
        })
    }
}

/// Events and the snapshot travel in the flight recorder's record
/// bodies, laid out as `Vec<_>` and `Option<_>` would lay them out.
impl Wire for TelemetryBatchMsg {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.seq);
        w.put_str(&self.source);
        w.put_u32(self.events.len() as u32);
        for ev in &self.events {
            record::encode_event_body(ev, w.vec_mut());
        }
        match &self.metrics {
            None => w.put_u8(0),
            Some((at_us, series)) => {
                w.put_u8(1);
                record::encode_snapshot_body(*at_us, series, w.vec_mut());
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let seq = r.get_u64()?;
        let source = r.get_str()?;
        let n = r.get_u32()? as usize;
        let mut events = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            events.push(record_body(r, record::decode_event_body)?);
        }
        let metrics = match r.get_u8()? {
            0 => None,
            1 => {
                let s = record_body(r, record::decode_snapshot_body)?;
                Some((s.at_us, s.metrics))
            }
            _ => return Err(WireError::BadValue("Option tag not 0/1")),
        };
        Ok(TelemetryBatchMsg {
            seq,
            source,
            events,
            metrics,
        })
    }
}

/// Decode one flight-recorder body at the reader's position and step
/// past it.
fn record_body<T, F>(r: &mut WireReader<'_>, decode: F) -> Result<T, WireError>
where
    F: FnOnce(&[u8]) -> Result<(T, usize), RecError>,
{
    let (v, used) = decode(r.slice(r.pos(), r.pos() + r.remaining())).map_err(|e| match e {
        RecError::Truncated { needed, have } => WireError::Truncated { needed, have },
        RecError::BadUtf8 => WireError::BadUtf8,
        RecError::BadValue(what) => WireError::BadValue(what),
        _ => WireError::BadValue("telemetry record body"),
    })?;
    r.get_raw(used)?;
    Ok(v)
}

impl Wire for LiveViolationMsg {
    fn encode(&self, w: &mut WireWriter) {
        w.put_str(&self.policy);
        w.put_str(&self.process);
        w.put_u64(self.at_us);
        w.put_u64(self.corr);
        self.readings.encode(w);
    }
    // The one kind with a borrowed view has one decoder: the view's.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(LiveViolationMsgRef::decode(r)?.to_owned())
    }
}
