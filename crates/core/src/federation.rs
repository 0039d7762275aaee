//! Federated multi-domain assembly: a discovery server, a tree of
//! domain managers and a fleet of managed hosts that find their domain
//! manager *dynamically*.
//!
//! Where [`crate::system::Testbed`] hand-wires two hosts to one domain
//! manager, [`Federation::build`] scales the Section 5 management plane
//! out: one management host runs the discovery server plus the **root**
//! domain manager; each leaf domain gets its own host running a
//! [`QosDomainManager`] federated under the root; every managed host
//! runs a [`QosHostManager`] that *announces* to the discovery server
//! and is assigned to a leaf shard. No host manager is told its domain
//! manager and no domain manager is told its registry — both are
//! learned from the discovery plane, and both survive loss (lease
//! renewal client-side, idempotent re-registration server-side).
//!
//! Cross-domain diagnosis rides the same learned state: an alert whose
//! upstream lives in a *sibling* domain climbs to the root (a leaf
//! knows only its own descendants), which forwards it down the covering
//! leaf's route — the Section 9 "interconnected domain managers" path
//! with zero hand-wired peers.

use std::collections::HashMap;

use qos_discovery::DiscoveryServer;
use qos_manager::prelude::*;
use qos_sim::prelude::*;
use qos_telemetry::prelude::*;
use qos_wire::{ViolationMsgRef, WireBytes};

/// First control port used by [`FedReporter`]s (unique per host:
/// reporter `p` on a host binds `FED_REPORTER_PORT_BASE + p`).
pub const FED_REPORTER_PORT_BASE: Port = 100;
const TAG_REPORT: u64 = 1;
/// The policy every [`FedReporter`] reports against.
const FED_REPORT: Name = Name::from_static("fed-report");
/// What every [`FedReporter`] reads: a low frame rate on a small buffer.
const FED_READINGS: [(&str, f64); 2] = [("frame_rate", 15.0), ("buffer_size", 100.0)];

/// Shape of the federation to assemble.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// World seed.
    pub seed: u64,
    /// Number of *leaf* domains (shards). The root domain `d0` sits
    /// above them; leaves are `d1..=dN`.
    pub domains: u32,
    /// Number of managed hosts. Each runs a host manager that enters
    /// discovery; host `i` is pinned to leaf `(i % domains) + 1` so
    /// shard membership is a function of the config alone.
    pub hosts: u32,
    /// Instrumented reporter processes per managed host.
    pub reporters_per_host: u32,
    /// Violation rounds each reporter fires (0 = reporters register but
    /// stay quiet).
    pub rounds: u32,
    /// Interval between violation rounds.
    pub interval: Dur,
    /// Give each reporter an upstream on the *next* managed host — a
    /// host in a different leaf domain (when `domains > 1`) — so every
    /// escalated alert must cross a federation boundary.
    pub cross_domain_upstreams: bool,
    /// Discovery lease length.
    pub lease: Dur,
    /// Shared telemetry handle (inert by default).
    pub telemetry: Telemetry,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            seed: 1,
            domains: 4,
            hosts: 8,
            reporters_per_host: 1,
            rounds: 0,
            interval: Dur::from_millis(200),
            cross_domain_upstreams: false,
            lease: DISCOVERY_LEASE,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// The assembled federation.
pub struct Federation {
    /// The simulation world.
    pub world: World,
    /// Management host: discovery server + root domain manager.
    pub mgmt_host: HostId,
    /// The discovery server process.
    pub disc: Pid,
    /// The root domain manager (domain `d0`).
    pub root_dm: Pid,
    /// One host per leaf domain, index `k` hosting leaf `d(k+1)`.
    pub leaf_dm_hosts: Vec<HostId>,
    /// Leaf domain manager processes, parallel to `leaf_dm_hosts`.
    pub leaf_dms: Vec<Pid>,
    /// The managed hosts, in pin order.
    pub managed_hosts: Vec<HostId>,
    /// Host manager processes, parallel to `managed_hosts`.
    pub hms: Vec<Pid>,
    /// Reporter processes (host-major order).
    pub reporters: Vec<Pid>,
    /// Per-host control hops, parallel to
    /// `[mgmt] + leaf_dm_hosts + managed_hosts`.
    pub ctrl_hops: Vec<HopId>,
    /// The configuration this federation was built from.
    pub cfg: FederationConfig,
}

impl Federation {
    /// Leaf domain that managed host `i` is pinned to.
    pub fn domain_of(&self, i: usize) -> DomainId {
        DomainId((i as u32 % self.cfg.domains) + 1)
    }

    /// Assemble the federation. Control traffic between any two hosts
    /// crosses the two endpoints' dedicated control hops; data paths
    /// for workload experiments are added by the caller (see
    /// [`Federation::add_data_path`]).
    pub fn build(cfg: &FederationConfig) -> Federation {
        assert!(cfg.domains >= 1, "need at least one leaf domain");
        let mut world = World::new(cfg.seed);
        world.set_telemetry(&cfg.telemetry);

        let mgmt_host = world.add_host("mgmt", 1 << 16);
        let leaf_dm_hosts: Vec<HostId> = (0..cfg.domains)
            .map(|k| world.add_host(format!("dm{}", k + 1), 1 << 16))
            .collect();
        let managed_hosts: Vec<HostId> = (0..cfg.hosts)
            .map(|i| world.add_host(format!("host{i}"), 1 << 16))
            .collect();

        // One control hop per host; the route between any two hosts is
        // the pair of their hops. Control stays off any data path the
        // caller later adds.
        let all: Vec<HostId> = std::iter::once(mgmt_host)
            .chain(leaf_dm_hosts.iter().copied())
            .chain(managed_hosts.iter().copied())
            .collect();
        let ctrl_hops: Vec<HopId> = all
            .iter()
            .map(|_| {
                world
                    .net_mut()
                    .add_hop(1_000_000.0, Dur::from_millis(1), Dur::from_secs(1))
            })
            .collect();
        for (i, &a) in all.iter().enumerate() {
            for (j, &b) in all.iter().enumerate().skip(i + 1) {
                world
                    .net_mut()
                    .set_route_symmetric(a, b, vec![ctrl_hops[i], ctrl_hops[j]]);
            }
        }

        let disc_ep = Endpoint::new(mgmt_host, DISCOVERY_PORT);
        let mgr_class = SchedClass::RealTime {
            rtpri: 50,
            budget: None,
        };

        // Discovery server, with every managed host pinned to its leaf.
        let mut server = DiscoveryServer::new(cfg.lease).with_telemetry(&cfg.telemetry);
        for (i, &h) in managed_hosts.iter().enumerate() {
            server.core.pin(h, DomainId((i as u32 % cfg.domains) + 1));
        }
        let disc = world.spawn(
            mgmt_host,
            ProcConfig::new("DiscoveryServer")
                .class(mgr_class)
                .port(DISCOVERY_PORT, 1 << 20),
            server,
        );

        // Root domain manager: no shard of its own; its routes cover
        // every descendant, so sibling-crossing alerts pivot here.
        let root_dm = world.spawn(
            mgmt_host,
            ProcConfig::new("QoSDomainManager-root")
                .class(mgr_class)
                .port(DOMAIN_MANAGER_PORT, 1 << 20),
            QosDomainManager::new(HashMap::new())
                .with_telemetry(&cfg.telemetry)
                .with_federation(DomainId(0), None, disc_ep),
        );

        // Leaf domain managers, children of the root. Their registries
        // start empty and fill from the server's route pushes.
        let leaf_dms: Vec<Pid> = leaf_dm_hosts
            .iter()
            .enumerate()
            .map(|(k, &h)| {
                world.spawn(
                    h,
                    ProcConfig::new(format!("QoSDomainManager-d{}", k + 1))
                        .class(mgr_class)
                        .port(DOMAIN_MANAGER_PORT, 1 << 20),
                    QosDomainManager::new(HashMap::new())
                        .with_telemetry(&cfg.telemetry)
                        .with_federation(DomainId(k as u32 + 1), Some(DomainId(0)), disc_ep),
                )
            })
            .collect();

        // Host managers: told only where discovery lives. Each becomes
        // local pid 0 on its host, so reporters are pids 1..
        let hms: Vec<Pid> = managed_hosts
            .iter()
            .enumerate()
            .map(|(i, &h)| {
                world.spawn(
                    h,
                    ProcConfig::new("QoSHostManager")
                        .class(mgr_class)
                        .port(HOST_MANAGER_PORT, 1 << 20),
                    QosHostManager::new(None)
                        .with_telemetry(&cfg.telemetry)
                        .with_discovery(disc_ep, cfg.seed ^ (i as u64).wrapping_mul(0x9e37)),
                )
            })
            .collect();

        // Reporters. With cross-domain upstreams, host i's reporters
        // name the first reporter on host i+1 (mod hosts) — a sibling
        // domain whenever `domains > 1` and `hosts % domains != 0`
        // pairs differ; with the round-robin pinning, i and i+1 always
        // land in different leaves when `domains > 1`.
        let mut reporters = Vec::new();
        for (i, &h) in managed_hosts.iter().enumerate() {
            let upstream = cfg.cross_domain_upstreams.then(|| {
                let up = managed_hosts[(i + 1) % managed_hosts.len()];
                Upstream {
                    host: up,
                    pid: Pid { host: up, local: 1 },
                }
            });
            for p in 0..cfg.reporters_per_host {
                reporters.push(
                    world.spawn(
                        h,
                        ProcConfig::new("FedReporter")
                            .port(FED_REPORTER_PORT_BASE + p as Port, 1 << 16),
                        FedReporter {
                            hm: Endpoint::new(h, HOST_MANAGER_PORT),
                            telemetry: cfg.telemetry.clone(),
                            rounds: cfg.rounds,
                            interval: cfg.interval,
                            upstream,
                            port: FED_REPORTER_PORT_BASE + p as Port,
                        },
                    ),
                );
            }
        }

        Federation {
            world,
            mgmt_host,
            disc,
            root_dm,
            leaf_dm_hosts,
            leaf_dms,
            managed_hosts,
            hms,
            reporters,
            ctrl_hops,
            cfg: cfg.clone(),
        }
    }

    /// Add a dedicated data path between managed hosts `a` and `b`
    /// (indices into `managed_hosts`): a primary hop plus an idle
    /// backup, with the backup registered on the leaf domain manager
    /// covering host `b` — the manager that diagnoses faults whose
    /// upstream is `b`. Returns `(primary, backup)`.
    pub fn add_data_path(&mut self, a: usize, b: usize) -> (HopId, HopId) {
        let (ha, hb) = (self.managed_hosts[a], self.managed_hosts[b]);
        let primary =
            self.world
                .net_mut()
                .add_hop(10_000_000.0, Dur::from_millis(1), Dur::from_millis(500));
        let backup =
            self.world
                .net_mut()
                .add_hop(10_000_000.0, Dur::from_millis(2), Dur::from_millis(500));
        self.world
            .net_mut()
            .set_route_symmetric(ha, hb, vec![primary]);
        let dm = self.leaf_dms[(self.domain_of(b).0 - 1) as usize];
        self.world
            .logic_mut::<QosDomainManager>(dm)
            .expect("leaf domain manager logic")
            .add_backup_route(ha, hb, vec![backup]);
        (primary, backup)
    }

    /// Number of host managers currently bound to a domain manager via
    /// discovery.
    pub fn bound_hosts(&self) -> usize {
        self.hms
            .iter()
            .filter(|&&pid| {
                self.world
                    .logic::<QosHostManager>(pid)
                    .is_some_and(|hm| hm.discovered_domain().is_some())
            })
            .count()
    }

    /// Shard sizes as seen by each *leaf domain manager* (learned from
    /// route pushes), in leaf order `d1..=dN`.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.leaf_dms
            .iter()
            .map(|&pid| {
                self.world
                    .logic::<QosDomainManager>(pid)
                    .map_or(0, |dm| dm.shard_size())
            })
            .collect()
    }

    /// The discovery server's counters.
    pub fn disc_stats(&self) -> qos_discovery::DiscStats {
        self.world
            .logic::<DiscoveryServer>(self.disc)
            .expect("discovery server logic")
            .core
            .stats
    }

    /// A domain manager's stats (root or leaf pid).
    pub fn dm_stats(&self, pid: Pid) -> DomainStats {
        self.world
            .logic::<QosDomainManager>(pid)
            .expect("domain manager logic")
            .stats
            .clone()
    }
}

/// A minimal instrumented process for federation experiments: registers
/// with its *local* host manager at start, then reports a
/// small-buffer violation every round. With an [`Upstream`] on a host
/// in a sibling domain, the host manager's remote-cause rule escalates
/// each violation to its discovered domain manager, which must route
/// the alert across the federation.
pub struct FedReporter {
    /// The local host manager.
    pub hm: Endpoint,
    /// Telemetry for violation correlation ids.
    pub telemetry: Telemetry,
    /// Violation rounds left.
    pub rounds: u32,
    /// Interval between rounds.
    pub interval: Dur,
    /// Claimed upstream producer, if any.
    pub upstream: Option<Upstream>,
    /// This reporter's control port.
    pub port: Port,
}

impl FedReporter {
    /// One round's violation report, encoded straight from borrowed
    /// fields: the frame of the owned `ViolationMsg`, byte for byte,
    /// without building one.
    fn report(&self, pid: Pid, corr: u64) -> WireBytes {
        WireBytes::encode_violation(&ViolationMsgRef {
            pid,
            proc_name: "FedReporter",
            policy: FED_REPORT.as_str(),
            corr,
            readings: FED_READINGS.as_slice().into(),
            bounds: Some(("frame_rate", 23.0, 27.0)),
            upstream: self.upstream,
        })
    }
}

impl ProcessLogic for FedReporter {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
        match ev {
            ProcEvent::Start => {
                send_ctrl(
                    ctx,
                    self.hm,
                    self.port,
                    WireMsg::Register(RegisterMsg {
                        pid: ctx.pid(),
                        control_port: self.port,
                        executable: "FedReporter".into(),
                        application: "Federation".into(),
                        role: "*".into(),
                        weight: 1.0,
                        heartbeat: None,
                    }),
                );
                if self.rounds > 0 {
                    ctx.set_timer(self.interval, TAG_REPORT);
                }
            }
            ProcEvent::Timer(TAG_REPORT) => {
                if self.rounds == 0 {
                    return;
                }
                self.rounds -= 1;
                let corr = if self.telemetry.is_enabled() {
                    let corr = self.telemetry.next_corr();
                    self.telemetry.stage(
                        ctx.now().as_micros(),
                        corr,
                        Stage::Detect,
                        pid_name(ctx.pid()),
                        FED_REPORT,
                        &[],
                    );
                    corr
                } else {
                    0
                };
                // Small buffer + an upstream ⇒ the remote-cause rule
                // fires and the violation escalates to the domain.
                let report = self.report(ctx.pid(), corr);
                send_frame(ctx, self.hm, self.port, report);
                if self.rounds > 0 {
                    ctx.set_timer(self.interval, TAG_REPORT);
                }
            }
            ProcEvent::Readable(port) => while ctx.recv(port).is_some() {},
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reporter's frame is the owned message's: its length is what
    /// the simulated socket buffers hold, so one byte more would move
    /// every pinned federation run.
    #[test]
    fn report_frame_is_the_owned_violation_frame() {
        let pid = Pid {
            host: HostId(2),
            local: 5,
        };
        for upstream in [
            None,
            Some(Upstream {
                host: HostId(9),
                pid,
            }),
        ] {
            let reporter = FedReporter {
                hm: Endpoint::new(HostId(2), HOST_MANAGER_PORT),
                telemetry: Telemetry::disabled(),
                rounds: 1,
                interval: Dur::from_millis(200),
                upstream,
                port: FED_REPORTER_PORT_BASE,
            };
            let owned = WireMsg::Violation(ViolationMsg {
                pid,
                proc_name: "FedReporter".into(),
                policy: FED_REPORT.to_string(),
                corr: 77,
                readings: vec![("frame_rate".into(), 15.0), ("buffer_size".into(), 100.0)],
                bounds: Some(("frame_rate".into(), 23.0, 27.0)),
                upstream,
            });
            assert_eq!(
                reporter.report(pid, 77).as_slice(),
                &owned.encode_frame()[..]
            );
        }
    }

    #[test]
    fn federation_binds_all_hosts_and_shards_registry() {
        let cfg = FederationConfig {
            seed: 11,
            domains: 3,
            hosts: 9,
            ..FederationConfig::default()
        };
        let mut fed = Federation::build(&cfg);
        fed.world.run_for(Dur::from_secs(3));
        assert_eq!(fed.bound_hosts(), 9, "every host manager discovers a DM");
        assert_eq!(
            fed.shard_sizes(),
            vec![3, 3, 3],
            "round-robin pins shard evenly"
        );
        let st = fed.disc_stats();
        assert_eq!(st.assignments, 9);
    }

    #[test]
    fn cross_domain_alert_climbs_to_root_and_down() {
        let cfg = FederationConfig {
            seed: 12,
            domains: 2,
            hosts: 4,
            rounds: 5,
            cross_domain_upstreams: true,
            ..FederationConfig::default()
        };
        let mut fed = Federation::build(&cfg);
        fed.world.run_for(Dur::from_secs(8));
        // Leaves forwarded sibling-bound alerts (via the root); the
        // root forwarded them down; nothing fell off the map.
        let root = fed.dm_stats(fed.root_dm);
        assert!(root.forwarded > 0, "root relayed cross-domain alerts");
        assert_eq!(root.unroutable_alerts, 0);
        let leaves: Vec<DomainStats> = fed.leaf_dms.iter().map(|&p| fed.dm_stats(p)).collect();
        assert!(leaves.iter().any(|s| s.forwarded > 0));
        assert!(leaves.iter().all(|s| s.unroutable_alerts == 0));
        // The covering leaf actually diagnosed: each alert triggers a
        // stats query against the upstream's host manager.
        assert!(leaves.iter().any(|s| s.alerts > 0));
    }
}
