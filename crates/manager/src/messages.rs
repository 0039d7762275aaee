//! Management-plane message types and well-known ports.
//!
//! The types themselves now live in [`qos_wire::messages`] — one crate
//! owns both the structs and their byte layout — and are re-exported
//! here unchanged so existing `qos_manager::messages::*` imports keep
//! working.

pub use qos_wire::messages::{
    AdaptMsg, AdjustRequestMsg, AgentReply, AgentRequest, DomainAlertMsg, LiveRegisterMsg,
    LiveViolationMsg, RegisterMsg, RuleUpdateMsg, StatsQueryMsg, StatsReplyMsg, Upstream,
    ViolationMsg, DISCOVERY_LEASE, DISCOVERY_PORT, DOMAIN_MANAGER_PORT, HOST_MANAGER_PORT,
    MANAGER_PROCESSING_COST, POLICY_AGENT_PORT, REGISTRATION_HEARTBEAT_PERIOD,
    STATS_QUERY_DEADLINE,
};
pub use qos_wire::{BatchMsg, WireMsg};
