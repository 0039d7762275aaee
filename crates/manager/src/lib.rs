//! # qos-manager — the QoS management plane
//!
//! The manager half of the Section 5 enforcement architecture:
//!
//! * [`messages`] — the control messages between coordinators, host
//!   managers, the domain manager and the policy agent, plus well-known
//!   ports;
//! * [`resource`] — resource managers, "each managing a single system
//!   resource": CPU (time-sharing priority boosts or real-time CPU
//!   units) and memory (resident pages), each a stateless decision over
//!   the per-process record the host manager's core hands it;
//! * [`rules`] — the default CLIPS-format rule sets (Section 5.3),
//!   including the fair-share vs differentiated administrative variants
//!   and the domain manager's server/network discrimination rules;
//! * [`host_core`] — the QoS Host Manager's decisions, sans-io:
//!   violations in, inference, resource-manager actions or domain
//!   escalation out, as effects for a driver to carry;
//! * [`lifecycle`] — the registration/heartbeat/reap half of that core,
//!   one ordered record per process, small and hashable: the
//!   explicit-state checker explores this very type, so there is no
//!   separate model to keep in step;
//! * [`host`] — the simulator's driver of the core: the QoS Host
//!   Manager process;
//! * [`domain_core`] — the QoS Domain Manager's decisions in the same
//!   shape: cross-host fault localization, with a small hashable
//!   [`domain_core::Ledger`] the same checker explores;
//! * [`domain`] — its simulator driver: the QoS Domain Manager process;
//! * [`live`] — the same components on real threads with real clocks,
//!   used to reproduce the paper's instrumentation-overhead measurements;
//! * [`transport`] — the carriers moving `qos_wire` frames: simulated
//!   network, in-proc channel, and real sockets (TCP / Unix-domain).

#![warn(missing_docs)]
#![allow(clippy::len_without_is_empty)]

pub mod agent_proc;
pub mod domain;
pub mod domain_core;
pub mod host;
pub mod host_core;
pub mod lifecycle;
pub mod live;
pub mod messages;
pub mod resource;
pub mod rules;
pub mod transport;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::agent_proc::{AgentProcStats, PolicyAgentProcess};
    pub use crate::domain::QosDomainManager;
    pub use crate::domain_core::{DomainAction, DomainCore, DomainStats, RouteError};
    pub use crate::host::QosHostManager;
    pub use crate::host_core::{
        pid_from_str, pid_name, pid_to_string, Effect, HostCore, HostInput, HostMgrStats, HostView,
    };
    pub use crate::lifecycle::GRACE_PERIODS;
    pub use crate::live::{
        standard_live_repo, ListenSpec, LiveBuilder, LiveClock, LiveError, LiveHostManager,
        LiveManagerStats, LiveProcess, ReportBatchPolicy, SUBSCRIBER_QUEUE_CAPACITY,
        TELEMETRY_METRICS_INTERVAL, TELEMETRY_PUBLISH_INTERVAL,
    };
    pub use crate::messages::{
        AdaptMsg, AdjustRequestMsg, AgentReply, AgentRequest, DomainAlertMsg, RegisterMsg,
        RuleUpdateMsg, StatsQueryMsg, StatsReplyMsg, Upstream, ViolationMsg, WireMsg,
        DISCOVERY_LEASE, DISCOVERY_PORT, DOMAIN_MANAGER_PORT, HOST_MANAGER_PORT, POLICY_AGENT_PORT,
        REGISTRATION_HEARTBEAT_PERIOD, STATS_QUERY_DEADLINE,
    };
    pub use crate::resource::{CpuAllocation, CpuStrategy, Direction};
    pub use crate::rules::{
        domain_base_facts, domain_rules, host_base_facts, host_rules_differentiated,
        host_rules_fair, overload_rules, proactive_rules, BUFFER_CUTOFF,
    };
    pub use crate::transport::{
        decode_ctrl, send_ctrl, send_frame, ChannelTransport, ReconnectPolicy, SockAddr,
        SocketTransport, SocketTransportBuilder, TelemetryTap, WireTransport,
    };
}

pub use prelude::*;
