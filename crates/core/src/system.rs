//! Assembly of the complete managed system: hosts, network, the video
//! pipeline, load generators, QoS host managers, the domain manager, and
//! policy distribution through the repository + policy agent — the whole
//! architecture of Figures 1 and 2 of the paper, wired together.

use std::collections::HashMap;

use qos_apps::prelude::*;
use qos_manager::prelude::*;
use qos_repository::prelude::*;
use qos_sim::prelude::*;
use qos_telemetry::Telemetry;

/// Which CPU resource-management strategy the host managers use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuPolicy {
    /// Time-sharing user-priority boosts (the prototype's default).
    TsBoost,
    /// Real-time CPU units.
    RtUnits,
}

/// Administrative rule variant (Section 2's constraints).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdminRules {
    /// Equal treatment: all applications degrade equally.
    FairShare,
    /// Weighted by user role: important applications win.
    Differentiated,
}

/// Configuration of the standard testbed.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Simulation seed.
    pub seed: u64,
    /// Deploy QoS host managers (and the CPU resource manager)?
    pub managed: bool,
    /// Deploy the QoS Domain Manager (needed for cross-host faults)?
    pub domain: bool,
    /// CPU strategy for host managers.
    pub cpu_policy: CpuPolicy,
    /// Administrative rule variant.
    pub admin: AdminRules,
    /// Stream rate offered by the server (fps).
    pub stream_fps: f64,
    /// Client decode cost per frame.
    pub decode_cost: Dur,
    /// Frame size on the wire.
    pub frame_bytes: u32,
    /// Number of video clients on the client host (they share one
    /// server each at `stream_fps`).
    pub clients: usize,
    /// Weights assigned to clients (cycled; all 1.0 if empty).
    pub client_weights: Vec<f64>,
    /// Role-scoped frame-rate targets per client (±2 tolerance). When
    /// non-empty, client `i` runs under role `role-i` and the repository
    /// holds a per-role policy — the paper's "different users have
    /// different QoS requirements for the same application". Empty: all
    /// clients share the standard Example 1 policy (25 ± 2).
    pub client_targets: Vec<f64>,
    /// Spawn the baseline background daemons (load ≈ 0.7)?
    pub baseline_daemons: bool,
    /// Disable the client's socket-buffer sensor (ablation for E6).
    pub disable_buffer_sensor: bool,
    /// Proactive QoS (Section 10): install the buffer-growth trend
    /// sensor, distribute the proactive policy and load the proactive
    /// rules into the host managers.
    pub proactive: bool,
    /// Overload handling (Section 10): load the overload rules so the
    /// managers direct application-level adaptation (quality actuator)
    /// when no allocation can satisfy the requirement.
    pub overload_adaptation: bool,
    /// Distribute policies through an in-simulation Policy Agent process
    /// on the management host (registration request + reply over the
    /// network) instead of resolving them at build time. The full
    /// Figure 2 path.
    pub in_sim_distribution: bool,
    /// Run the discovery plane: a Discovery Server on the management
    /// host assigns the client and server hosts to the domain manager
    /// (which joins the federation as `d1`). Host managers are built
    /// with *no* domain endpoint and must discover it; lease expiry and
    /// re-announce replace hand-wiring. Requires `domain`.
    pub discovery: bool,
    /// Telemetry handle shared by every component (inert by default):
    /// the world samples `sim.*` series, clients mint violation
    /// correlation ids and emit lifecycle stage events, managers emit
    /// Diagnose/Adapt events and mirror their counters.
    pub telemetry: Telemetry,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            seed: 1,
            managed: true,
            domain: false,
            cpu_policy: CpuPolicy::TsBoost,
            admin: AdminRules::FairShare,
            stream_fps: 30.0,
            decode_cost: Dur::from_micros(20_000),
            frame_bytes: 12_000,
            clients: 1,
            client_weights: Vec::new(),
            client_targets: Vec::new(),
            baseline_daemons: true,
            disable_buffer_sensor: false,
            proactive: false,
            overload_adaptation: false,
            in_sim_distribution: false,
            discovery: false,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// The assembled system.
pub struct Testbed {
    /// The simulation world.
    pub world: World,
    /// Host running the video client(s) and competing load.
    pub client_host: HostId,
    /// Host running the video server(s).
    pub server_host: HostId,
    /// Management host (domain manager).
    pub mgmt_host: HostId,
    /// Client process(es).
    pub clients: Vec<Pid>,
    /// Server process(es), parallel to `clients`.
    pub servers: Vec<Pid>,
    /// Client-side host manager (if managed).
    pub client_hm: Option<Pid>,
    /// Server-side host manager (if managed).
    pub server_hm: Option<Pid>,
    /// Domain manager (if enabled).
    pub domain_mgr: Option<Pid>,
    /// The shared data-path switch hop between client and server.
    pub primary_hop: HopId,
    /// The pre-provisioned backup path.
    pub backup_hop: HopId,
    /// The repository the policies were distributed from.
    pub repository: Repository,
    /// The configuration this testbed was built from (kept so crashed
    /// components can be rebuilt identically on restart).
    pub cfg: TestbedConfig,
}

/// Build one QoS Host Manager as configured (shared between initial
/// assembly and crash-restart).
fn make_host_manager(cfg: &TestbedConfig, domain_ep: Option<Endpoint>) -> QosHostManager {
    let mut hm = QosHostManager::new(domain_ep).with_cpu_strategy(match cfg.cpu_policy {
        CpuPolicy::TsBoost => CpuStrategy::default(),
        CpuPolicy::RtUnits => CpuStrategy::RtUnits {
            // 40 ms units (two decoded frames per second of budget):
            // fine enough that a ±2 fps band always contains a
            // reachable allocation.
            rtpri: 10,
            unit: Dur::from_millis(40),
            initial_units: 4,
            max_units: 22,
        },
    });
    if let AdminRules::Differentiated = cfg.admin {
        hm.load_rules(&host_rules_differentiated());
    }
    if cfg.proactive {
        hm.load_rules(proactive_rules());
    }
    if cfg.overload_adaptation {
        hm.load_rules(overload_rules());
    }
    hm.with_telemetry(&cfg.telemetry)
}

impl Testbed {
    /// Build the standard two-host-plus-management testbed.
    pub fn build(cfg: &TestbedConfig) -> Testbed {
        let mut world = World::new(cfg.seed);
        world.set_telemetry(&cfg.telemetry);
        let client_host = world.add_host("client", 1 << 16);
        let server_host = world.add_host("server", 1 << 16);
        let mgmt_host = world.add_host("mgmt", 1 << 16);

        // Data path: client <-> switch <-> server, with an idle backup
        // path the domain manager can fail over to. Management traffic
        // uses dedicated links so control survives data-path congestion.
        let primary_hop =
            world
                .net_mut()
                .add_hop(10_000_000.0, Dur::from_millis(1), Dur::from_millis(500));
        let backup_hop =
            world
                .net_mut()
                .add_hop(10_000_000.0, Dur::from_millis(2), Dur::from_millis(500));
        let mgmt_c = world
            .net_mut()
            .add_hop(1_000_000.0, Dur::from_millis(1), Dur::from_secs(1));
        let mgmt_s = world
            .net_mut()
            .add_hop(1_000_000.0, Dur::from_millis(1), Dur::from_secs(1));
        world
            .net_mut()
            .set_route_symmetric(client_host, server_host, vec![primary_hop]);
        world
            .net_mut()
            .set_route_symmetric(client_host, mgmt_host, vec![mgmt_c]);
        world
            .net_mut()
            .set_route_symmetric(server_host, mgmt_host, vec![mgmt_s]);

        // --- Policy distribution (Section 6): the repository holds the
        // information model and the Example 1 policy; the Policy Agent
        // resolves it for each registering client.
        let model = {
            let mut m = qos_policy::model::InfoModel::new();
            let fps = m.add_sensor("fps_sensor", &["frame_rate"]);
            let jitter = m.add_sensor("jitter_sensor", &["jitter_rate"]);
            let buffer = m.add_sensor("buffer_sensor", &["buffer_size"]);
            let mut sensors = vec![fps, jitter, buffer];
            if cfg.proactive {
                sensors.push(m.add_sensor("trend_sensor", &["buffer_growth"]));
            }
            let exec = m.add_executable("VideoApplication", &sensors);
            m.add_application("VideoPlayback", &[exec]);
            m
        };
        let mut repository = Repository::new();
        repository.store_model(&model).expect("fresh repository");
        if cfg.client_targets.is_empty() {
            repository
                .store_policy(&StoredPolicy {
                    name: "NotifyQoSViolation".into(),
                    application: "VideoPlayback".into(),
                    executable: "VideoApplication".into(),
                    role: "*".into(),
                    source: EXAMPLE1_SOURCE.into(),
                    enabled: true,
                })
                .expect("fresh repository");
        } else {
            // One role-scoped policy per client target.
            for (i, &target) in cfg.client_targets.iter().enumerate() {
                repository
                    .store_policy(&StoredPolicy {
                        name: format!("NotifyQoSViolation-role-{i}"),
                        application: "VideoPlayback".into(),
                        executable: "VideoApplication".into(),
                        role: format!("role-{i}"),
                        source: role_policy_source(&format!("NotifyQoSViolation_role_{i}"), target),
                        enabled: true,
                    })
                    .expect("fresh repository");
            }
        }
        if cfg.proactive {
            repository
                .store_policy(&StoredPolicy {
                    name: "ProactiveBufferPressure".into(),
                    application: "VideoPlayback".into(),
                    executable: "VideoApplication".into(),
                    role: "*".into(),
                    source: PROACTIVE_SOURCE.into(),
                    enabled: true,
                })
                .expect("fresh repository");
        }
        let mut agent = PolicyAgent::new();
        let agent_ep = cfg
            .in_sim_distribution
            .then(|| Endpoint::new(mgmt_host, POLICY_AGENT_PORT));

        // --- Management plane.
        let domain_ep = Endpoint::new(mgmt_host, DOMAIN_MANAGER_PORT);
        let mut client_hm = None;
        let mut server_hm = None;
        let mut domain_mgr = None;
        if cfg.managed {
            let disc_ep = Endpoint::new(mgmt_host, DISCOVERY_PORT);
            let mk_hm = |salt: u64| {
                let hm =
                    make_host_manager(cfg, (cfg.domain && !cfg.discovery).then_some(domain_ep));
                if cfg.discovery {
                    hm.with_discovery(disc_ep, cfg.seed ^ salt)
                } else {
                    hm
                }
            };
            // Managers run in the RT class above every managed workload
            // (the analogue of Solaris's SYS-class daemons): the
            // management plane must keep running even when the
            // allocations it granted saturate the CPU, or it could never
            // take an over-grant back.
            let mgr_class = SchedClass::RealTime {
                rtpri: 50,
                budget: None,
            };
            client_hm = Some(
                world.spawn(
                    client_host,
                    ProcConfig::new("QoSHostManager")
                        .class(mgr_class)
                        .port(HOST_MANAGER_PORT, 1 << 20),
                    mk_hm(1),
                ),
            );
            server_hm = Some(
                world.spawn(
                    server_host,
                    ProcConfig::new("QoSHostManager")
                        .class(mgr_class)
                        .port(HOST_MANAGER_PORT, 1 << 20),
                    mk_hm(2),
                ),
            );
            if cfg.domain {
                let mut hms = HashMap::new();
                if cfg.discovery {
                    // The registry stays empty here: the discovery
                    // server pins both managed hosts to domain `d1`
                    // and the domain manager learns its shard (and the
                    // host managers their domain manager) at run time.
                    let mut server = qos_discovery::DiscoveryServer::new(DISCOVERY_LEASE)
                        .with_telemetry(&cfg.telemetry);
                    server.core.pin(client_host, DomainId(1));
                    server.core.pin(server_host, DomainId(1));
                    world.spawn(
                        mgmt_host,
                        ProcConfig::new("DiscoveryServer")
                            .class(SchedClass::RealTime {
                                rtpri: 50,
                                budget: None,
                            })
                            .port(DISCOVERY_PORT, 1 << 20),
                        server,
                    );
                } else {
                    hms.insert(client_host, Endpoint::new(client_host, HOST_MANAGER_PORT));
                    hms.insert(server_host, Endpoint::new(server_host, HOST_MANAGER_PORT));
                }
                let mut dm = QosDomainManager::new(hms).with_telemetry(&cfg.telemetry);
                if cfg.discovery {
                    dm = dm.with_federation(DomainId(1), None, disc_ep);
                }
                dm.add_backup_route(client_host, server_host, vec![backup_hop]);
                domain_mgr = Some(
                    world.spawn(
                        mgmt_host,
                        ProcConfig::new("QoSDomainManager")
                            .class(SchedClass::RealTime {
                                rtpri: 50,
                                budget: None,
                            })
                            .port(DOMAIN_MANAGER_PORT, 1 << 20),
                        dm,
                    ),
                );
            }
        }

        if cfg.in_sim_distribution {
            // The Policy Agent as a process on the management host,
            // serving a replica of the repository (Figure 2).
            world.spawn(
                mgmt_host,
                ProcConfig::new("PolicyAgent")
                    .class(SchedClass::RealTime {
                        rtpri: 50,
                        budget: None,
                    })
                    .port(POLICY_AGENT_PORT, 1 << 20),
                PolicyAgentProcess::new(repository.clone()),
            );
        }

        // --- Workloads.
        if cfg.baseline_daemons {
            // The Figure 3 baseline of ~0.70 is the video session itself
            // (the decoding client contributes ~0.6 runnable) plus light
            // system daemons.
            for _ in 0..3 {
                world.spawn(
                    client_host,
                    ProcConfig::new("daemon"),
                    BackgroundDaemon { duty: 0.04 },
                );
            }
        }
        let mut clients = Vec::new();
        let mut servers = Vec::new();
        for i in 0..cfg.clients {
            let video_port = VIDEO_PORT + i as Port;
            let weight = if cfg.client_weights.is_empty() {
                1.0
            } else {
                cfg.client_weights[i % cfg.client_weights.len()]
            };
            let role = if cfg.client_targets.is_empty() {
                "*".to_string()
            } else {
                format!("role-{i}")
            };
            // The agent resolves the client's policies, exactly as a
            // process registration would (Section 6.2). With in-sim
            // distribution, the client instead registers over the
            // network at startup and starts with no policies.
            let policies = if cfg.in_sim_distribution {
                Vec::new()
            } else {
                let resolution = agent.register(
                    &repository,
                    &Registration {
                        process: format!("client-{i}"),
                        executable: "VideoApplication".into(),
                        application: "VideoPlayback".into(),
                        role: role.clone(),
                    },
                );
                assert!(resolution.errors.is_empty(), "policy delivery failed");
                resolution.policies
            };
            // Servers spawn first so clients can name them as upstream.
            let server_pid = Pid {
                host: server_host,
                local: world_proc_count(&world, server_host),
            };
            let client_cfg = VideoClientConfig {
                video_port,
                role,
                proactive: cfg.proactive,
                policy_agent: agent_ep,
                decode_cost: cfg.decode_cost,
                host_manager: cfg
                    .managed
                    .then_some(Endpoint::new(client_host, HOST_MANAGER_PORT)),
                upstream: Some(Upstream {
                    host: server_host,
                    pid: server_pid,
                }),
                weight,
                telemetry: cfg.telemetry.clone(),
                ..VideoClientConfig::default()
            };
            let client_logic = VideoClient::new(client_cfg, policies);
            if cfg.disable_buffer_sensor {
                client_logic
                    .sensors()
                    .buffer()
                    .expect("standard video sensors")
                    .sensor
                    .set_enabled(false);
            }
            // A period-accurate kernel socket buffer (~64 KB, five
            // frames): deep userspace backlogs did not exist in the
            // prototype, and bounding the backlog keeps catch-up bursts
            // from reading as over-achievement.
            let client = world.spawn(
                client_host,
                ProcConfig::new("VideoApplication").port(video_port, 1 << 16),
                client_logic,
            );
            let server = world.spawn(
                server_host,
                ProcConfig::new("VideoServer"),
                VideoServer::new(VideoServerConfig {
                    client: Endpoint::new(client_host, video_port),
                    fps: cfg.stream_fps,
                    frame_bytes: cfg.frame_bytes,
                    cpu_per_frame: Dur::from_micros(2_000),
                    burst: 1,
                }),
            );
            debug_assert_eq!(server, server_pid, "upstream pid prediction");
            clients.push(client);
            servers.push(server);
        }

        Testbed {
            world,
            client_host,
            server_host,
            mgmt_host,
            clients,
            servers,
            client_hm,
            server_hm,
            domain_mgr,
            primary_hop,
            backup_hop,
            repository,
            cfg: cfg.clone(),
        }
    }

    /// Crash-and-restart a QoS Host Manager mid-run: the old process dies
    /// (losing its registry, working-memory facts and allocation
    /// bookkeeping) and a fresh manager binds the same well-known port.
    /// Heartbeating clients repair the registry within one
    /// re-registration period. Returns the new manager pid, or `None` if
    /// `host` has no manager.
    pub fn restart_host_manager(&mut self, host: HostId) -> Option<Pid> {
        let old = if host == self.client_host {
            self.client_hm
        } else if host == self.server_host {
            self.server_hm
        } else {
            None
        }?;
        // Kill first: death releases the well-known port for the
        // replacement to bind.
        self.world.kill(old);
        let domain_ep = Endpoint::new(self.mgmt_host, DOMAIN_MANAGER_PORT);
        let hm = make_host_manager(
            &self.cfg,
            (self.cfg.domain && !self.cfg.discovery).then_some(domain_ep),
        );
        let hm = if self.cfg.discovery {
            // Fresh manager, fresh discovery epoch: it re-announces and
            // is re-assigned rather than inheriting stale bindings.
            hm.with_discovery(
                Endpoint::new(self.mgmt_host, DISCOVERY_PORT),
                self.cfg.seed ^ (0x10 + host.0 as u64),
            )
        } else {
            hm
        };
        let new = self.world.spawn(
            host,
            ProcConfig::new("QoSHostManager")
                .class(SchedClass::RealTime {
                    rtpri: 50,
                    budget: None,
                })
                .port(HOST_MANAGER_PORT, 1 << 20),
            hm,
        );
        if host == self.client_host {
            self.client_hm = Some(new);
        } else {
            self.server_hm = Some(new);
        }
        Some(new)
    }

    /// Mean displayed fps of client `i` from `from` onward, from the
    /// recorded per-poll series. Robust for steady playback; for bursty
    /// regimes prefer displayed-count deltas ([`Testbed::displayed`]).
    pub fn client_fps(&self, i: usize, from: SimTime) -> f64 {
        let c: &VideoClient = self
            .world
            .logic(self.clients[i])
            .expect("client logic type");
        c.stats.fps_series.mean_from(from)
    }

    /// Total frames client `i` has displayed so far. Deltas of this count
    /// give unbiased throughput over any window.
    pub fn displayed(&self, i: usize) -> u64 {
        self.client(i).stats.displayed
    }

    /// The client logic, for detailed inspection.
    pub fn client(&self, i: usize) -> &VideoClient {
        self.world
            .logic(self.clients[i])
            .expect("client logic type")
    }

    /// The client-side host manager's statistics.
    pub fn client_hm_stats(&self) -> Option<HostMgrStats> {
        let pid = self.client_hm?;
        self.world.logic::<QosHostManager>(pid).map(|h| h.stats)
    }

    /// The domain manager's decision log.
    pub fn domain_actions(&self) -> Vec<DomainAction> {
        self.domain_mgr
            .and_then(|pid| self.world.logic::<QosDomainManager>(pid))
            .map(|d| d.stats.actions.clone())
            .unwrap_or_default()
    }
}

/// Number of processes already spawned on `host` (to predict the next
/// pid).
fn world_proc_count(world: &World, host: HostId) -> u32 {
    // Probe pids upward until an unknown one is found.
    let mut n = 0;
    while world
        .host(host)
        .proc_state(Pid { host, local: n })
        .is_some()
    {
        n += 1;
    }
    n
}

/// The proactive policy (Section 10): violated while the communication
/// buffer sits more than half full — frames are accumulating faster than
/// they are consumed, a leading indicator that crosses *before* the
/// (3-second-windowed) frame rate leaves specification.
pub const PROACTIVE_SOURCE: &str = "oblig ProactiveBufferPressure {     subject (...)/VideoApplication/qosl_coordinator     target buffer_sensor, (...)QoSHostManager     on not (buffer_size < 36000)     do buffer_sensor->read(out buffer_size);        (...)/QoSHostManager->notify(buffer_size); }";

/// An Example-1-shaped policy with a role-specific frame-rate target.
pub fn role_policy_source(name: &str, target: f64) -> String {
    format!(
        "oblig {name} {{ \
         subject (...)/VideoApplication/qosl_coordinator \
         target fps_sensor, jitter_sensor, buffer_sensor, (...)QoSHostManager \
         on not (frame_rate = {target}(+2)(-2) AND jitter_rate < 1.25) \
         do fps_sensor->read(out frame_rate); \
            jitter_sensor->read(out jitter_rate); \
            buffer_sensor->read(out buffer_size); \
            (...)/QoSHostManager->notify(frame_rate, jitter_rate, buffer_size); }}"
    )
}

/// The paper's Example 1 policy, source form (stored in the repository
/// and distributed by the agent).
pub const EXAMPLE1_SOURCE: &str = "oblig NotifyQoSViolation { \
    subject (...)/VideoApplication/qosl_coordinator \
    target fps_sensor, jitter_sensor, buffer_sensor, (...)QoSHostManager \
    on not (frame_rate = 25(+2)(-2) AND jitter_rate < 1.25) \
    do fps_sensor->read(out frame_rate); \
       jitter_sensor->read(out jitter_rate); \
       buffer_sensor->read(out buffer_size); \
       (...)/QoSHostManager->notify(frame_rate, jitter_rate, buffer_size); }";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_assembles_and_streams() {
        let cfg = TestbedConfig {
            seed: 3,
            managed: true,
            ..TestbedConfig::default()
        };
        let mut tb = Testbed::build(&cfg);
        tb.world.run_for(Dur::from_secs(20));
        let fps = tb.client_fps(0, SimTime::from_micros(5_000_000));
        assert!(fps > 25.0, "baseline-loaded managed client: {fps}");
        assert!(tb.client(0).stats.received > 400);
    }

    #[test]
    fn unmanaged_testbed_has_no_managers() {
        let cfg = TestbedConfig {
            managed: false,
            ..TestbedConfig::default()
        };
        let tb = Testbed::build(&cfg);
        assert!(tb.client_hm.is_none());
        assert!(tb.server_hm.is_none());
        assert!(tb.domain_mgr.is_none());
        assert!(tb.client_hm_stats().is_none());
    }

    #[test]
    fn policy_distribution_reaches_coordinator() {
        // The coordinator loads its policies during process start-up, so
        // let the world run briefly before inspecting.
        let mut tb = Testbed::build(&TestbedConfig::default());
        tb.world.run_for(Dur::from_millis(10));
        assert_eq!(tb.client(0).coordinator().policy_count(), 1);
        assert_eq!(tb.client(0).coordinator().global_conditions().len(), 3);
    }
}
