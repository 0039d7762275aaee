//! # qos-core — policy-based management of soft QoS requirements
//!
//! The facade crate of the `softqos` workspace: assembles the complete
//! system of *"Managing Soft QoS Requirements in Distributed Systems"*
//! (Molenkamp, Katchabaw, Lutfiyya, Bauer; ICPP 2000 workshops) and hosts
//! the experiment harnesses that regenerate the paper's evaluation.
//!
//! The stack, bottom to top:
//!
//! * [`qos_sim`] — deterministic discrete-event substrate (Solaris-style
//!   scheduler, memory, network);
//! * [`qos_inference`] — the CLIPS-style forward-chaining shell;
//! * [`qos_policy`] — the `oblig` policy language, compiler and
//!   information model;
//! * [`qos_repository`] — LDAP-like repository, LDIF, policy agent,
//!   management application;
//! * [`qos_instrument`] — sensors / actuators / probes / coordinator;
//! * [`qos_manager`] — QoS host managers, domain manager, resource
//!   managers, rule sets, live mode;
//! * [`qos_apps`] — instrumented workloads (video pipeline, load
//!   generators, web server, game loop);
//! * [`system`] (here) — the assembled testbed, with policy distribution
//!   from repository to coordinator;
//! * [`experiment`] (here) — harnesses for Figure 3, convergence,
//!   contention, fault localization;
//! * [`report`] (here) — table output for the experiment binaries.
//!
//! ## Quickstart
//!
//! ```
//! use qos_core::prelude::*;
//!
//! // Build the standard managed testbed and run it for a few seconds.
//! let cfg = TestbedConfig { seed: 7, ..TestbedConfig::default() };
//! let mut tb = Testbed::build(&cfg);
//! tb.world.run_for(Dur::from_secs(10));
//! let fps = tb.client_fps(0, SimTime::from_micros(5_000_000));
//! assert!(fps > 20.0);
//! ```

#![warn(missing_docs)]
#![allow(clippy::len_without_is_empty)]

pub mod experiment;
pub mod federation;
pub mod report;
pub mod system;

/// The README's Rust blocks, compiled and run as doctests so the
/// examples there cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
pub struct ReadmeDoctests;

pub use qos_apps as apps;
pub use qos_discovery as discovery;
pub use qos_inference as inference;
pub use qos_instrument as instrument;
pub use qos_manager as manager;
pub use qos_policy as policy;
pub use qos_repository as repository;
pub use qos_sim as sim;
pub use qos_telemetry as telemetry;
pub use qos_wire as wire;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::experiment::{
        contention, convergence, fig3_point, figure3, localization, overload, proactive,
        ContentionRow, ConvergenceTrace, Fault, Fig3Row, LocalizationResult, OverloadOutcome,
        ProactiveOutcome, RUN_LEN, WARMUP,
    };
    pub use crate::federation::{
        FedReporter, Federation, FederationConfig, FED_REPORTER_PORT_BASE,
    };
    pub use crate::report::{buggify_coverage, f, lifecycle_table, telemetry_summary, Table};
    pub use crate::system::{
        role_policy_source, AdminRules, CpuPolicy, Testbed, TestbedConfig, EXAMPLE1_SOURCE,
        PROACTIVE_SOURCE,
    };
    pub use qos_apps::prelude::*;
    pub use qos_discovery::{
        DiscAction, DiscBugs, DiscClient, DiscEvent, DiscPhase, DiscStats, DiscoveryCore,
        DiscoveryServer, MAX_RENEW_MISSES,
    };
    pub use qos_instrument::prelude::*;
    pub use qos_manager::prelude::*;
    pub use qos_sim::prelude::*;
    pub use qos_telemetry::prelude::*;
}

pub use prelude::*;
