//! Seeded runs pinned across commits. `chaos.rs` compares a run with
//! itself at one commit; this table compares it with the numbers of the
//! commit that last moved them: `world.events_processed()`, every host
//! manager's full [`HostMgrStats`], every domain manager's
//! [`DomainStats`], and a hash of every host manager's rule-firing
//! trace. A second table pins E6's six fault-localization runs, and a
//! third how the matcher and the discovery registry scale. A refactor of
//! either manager passes unchanged; a change that moves a number edits it
//! here and says why.

use qos_core::prelude::*;

/// [`HostMgrStats`] as a row, in declaration order.
fn row(s: &HostMgrStats) -> [u64; 17] {
    [
        s.violations,
        s.cpu_boosts,
        s.cpu_relaxations,
        s.mem_adjustments,
        s.domain_alerts,
        s.rule_updates,
        s.registrations,
        s.nudges,
        s.adaptations,
        s.deaths,
        s.unhandled,
        s.decode_errors,
        s.dup_violations,
        s.rediscoveries,
        s.stale_violations,
        s.batch_frames,
        s.rule_rejects,
    ]
}

/// [`DomainStats`] as a row: alerts, queries, forwarded,
/// query_timeouts, late_replies, unroutable_alerts, actions,
/// unactionable.
fn dm_row(s: &DomainStats) -> [u64; 8] {
    [
        s.alerts,
        s.queries,
        s.forwarded,
        s.query_timeouts,
        s.late_replies,
        s.unroutable_alerts,
        s.actions.len() as u64,
        s.unactionable,
    ]
}

/// What one run is pinned by.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    events: u64,
    /// One row per host manager alive at the end of the run.
    stats: Vec<[u64; 17]>,
    /// One row per domain manager, root first.
    domains: Vec<[u64; 8]>,
    /// FNV-1a over the managers' drained engine traces, concatenated.
    trace_hash: u64,
}

fn widen_traces(world: &mut World, hms: &[Pid]) {
    for &pid in hms {
        world
            .logic_mut::<QosHostManager>(pid)
            .expect("host manager logic")
            .set_engine_trace_capacity(1 << 20);
    }
}

fn pin(world: &mut World, hms: &[Pid], dms: &[Pid]) -> Pinned {
    let mut stats = Vec::new();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &pid in hms {
        let hm = world
            .logic_mut::<QosHostManager>(pid)
            .expect("host manager logic");
        stats.push(row(&hm.stats));
        for line in hm.take_engine_trace() {
            for b in line.bytes().chain(std::iter::once(b'\n')) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    let domains = dms
        .iter()
        .map(|&pid| dm_row(&world.logic::<QosDomainManager>(pid).expect("dm").stats))
        .collect();
    Pinned {
        events: world.events_processed(),
        stats,
        domains,
        trace_hash: h,
    }
}

fn six_hogs(tb: &mut Testbed) {
    spawn_mix(
        &mut tb.world,
        tb.client_host,
        LoadMix {
            hogs: 6,
            fraction: 0.0,
        },
    );
}

/// `end_to_end`'s Example 1 testbed: 80 s managed under six hogs.
fn example_1() -> Pinned {
    let mut tb = Testbed::build(&TestbedConfig {
        seed: 1001,
        managed: true,
        ..TestbedConfig::default()
    });
    let hms = [tb.client_hm.unwrap(), tb.server_hm.unwrap()];
    widen_traces(&mut tb.world, &hms);
    six_hogs(&mut tb);
    tb.world.run_for(Dur::from_secs(80));
    pin(&mut tb.world, &hms, &[])
}

/// `chaos.rs`'s `lossy_restart_run(2102)`: 30 % control loss for the
/// whole run, the client's host manager replaced three seconds in.
fn lossy_restart() -> Pinned {
    let mut tb = Testbed::build(&TestbedConfig {
        seed: 2102,
        managed: true,
        in_sim_distribution: true,
        stream_fps: 25.0,
        ..TestbedConfig::default()
    });
    tb.world.install_faults(FaultPlan::new().lose(
        Window::always(),
        MsgSelector::ports(vec![
            HOST_MANAGER_PORT,
            DOMAIN_MANAGER_PORT,
            POLICY_AGENT_PORT,
        ]),
        0.30,
    ));
    six_hogs(&mut tb);
    tb.world.run_for(Dur::from_secs(3));
    let server_hm = tb.server_hm.unwrap();
    let client_hm = tb.restart_host_manager(tb.client_host).unwrap();
    widen_traces(&mut tb.world, &[client_hm, server_hm]);
    tb.world.run_for(Dur::from_secs(60));
    pin(&mut tb.world, &[client_hm, server_hm], &[])
}

/// One federation round trip: 2 leaf domains, 4 hosts, 3 reporters
/// each, five reports per reporter escalating across a domain boundary.
/// Telemetry stays off, so every report carries `corr 0` and the
/// duplicate window folds what lands inside it.
fn federation_round() -> Pinned {
    let mut fed = Federation::build(&FederationConfig {
        seed: 4207,
        domains: 2,
        hosts: 4,
        reporters_per_host: 3,
        rounds: 5,
        cross_domain_upstreams: true,
        ..FederationConfig::default()
    });
    let hms = fed.hms.clone();
    widen_traces(&mut fed.world, &hms);
    fed.world.run_for(Dur::from_secs(10));
    let dms: Vec<Pid> = std::iter::once(fed.root_dm)
        .chain(fed.leaf_dms.clone())
        .collect();
    pin(&mut fed.world, &hms, &dms)
}

/// `chaos.rs`'s dead-client run: a boosted client is killed and the
/// liveness sweep reclaims it (the three named above never reap).
fn dead_client() -> Pinned {
    let mut tb = Testbed::build(&TestbedConfig {
        seed: 2200,
        managed: true,
        ..TestbedConfig::default()
    });
    let hms = [tb.client_hm.unwrap()];
    widen_traces(&mut tb.world, &hms);
    six_hogs(&mut tb);
    tb.world.run_for(Dur::from_secs(30));
    tb.world.kill(tb.clients[0]);
    tb.world.run_for(Dur::from_secs(12));
    pin(&mut tb.world, &hms, &[])
}

/// E10's overloaded client: the boost hits its cap and the manager asks
/// the application to adapt (the only run that sends `AdaptMsg`).
fn overload() -> Pinned {
    let mut tb = Testbed::build(&TestbedConfig {
        seed: 10,
        managed: true,
        overload_adaptation: true,
        decode_cost: Dur::from_micros(45_000),
        baseline_daemons: false,
        ..TestbedConfig::default()
    });
    let hms = [tb.client_hm.unwrap()];
    widen_traces(&mut tb.world, &hms);
    tb.world.run_for(Dur::from_secs(60));
    pin(&mut tb.world, &hms, &[])
}

#[test]
fn seeded_runs_are_pinned_across_commits() {
    let mut moved = Vec::new();
    let mut row =
        |name, got: Pinned, events, stats: &[[u64; 17]], domains: &[[u64; 8]], trace_hash| {
            let want = Pinned {
                events,
                stats: stats.to_vec(),
                domains: domains.to_vec(),
                trace_hash,
            };
            if got != want {
                moved.push(format!("{name}: got {got:?}, pinned {want:?}"));
            }
        };
    const IDLE: [u64; 17] = [0; 17];
    // Taken at a164898, the parent of the `HostCore` extraction.
    row(
        "example_1",
        example_1(),
        33_897,
        &[[77, 3, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0], IDLE],
        &[],
        9_326_500_288_366_723_665,
    );
    row(
        "lossy_restart",
        lossy_restart(),
        23_754,
        &[[2, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], IDLE],
        &[],
        11_403_067_169_477_952_957,
    );
    row(
        "federation_round",
        federation_round(),
        1_718,
        &[[6, 0, 0, 0, 6, 0, 3, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0]; 4],
        // The root, then the two leaves. Every leaf diagnosis decides a
        // reroute for a pair with no backup path, so none acts: each is
        // counted unactionable.
        &[
            [24, 0, 24, 0, 0, 0, 0, 0],
            [24, 12, 12, 0, 0, 0, 0, 12],
            [24, 12, 12, 0, 0, 0, 0, 12],
        ],
        5_408_789_824_773_166_309,
    );
    row(
        "dead_client",
        dead_client(),
        16_099,
        &[[25, 4, 0, 0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0]],
        &[],
        12_694_084_927_303_896_901,
    );
    row(
        "overload",
        overload(),
        15_991,
        &[[56, 20, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0]],
        &[],
        15_825_189_766_276_881_532,
    );
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}

/// E6's fault-localization runs, one line per (fault, buffer sensor):
/// the client host manager's escalations and CPU boosts, fps before /
/// during / after the fault, the domain manager's actions in order (a
/// run of `n` equal actions as `n×action`) and its unactionable
/// decisions.
#[test]
fn localization_runs_are_pinned_across_commits() {
    let render = |fault, sensor| {
        let r = localization(99, fault, sensor);
        let mut actions: Vec<(usize, String)> = Vec::new();
        for a in &r.domain_actions {
            let a = match a {
                DomainAction::Reroute { a, b } => format!("reroute h{}↔h{}", a.0, b.0),
                DomainAction::BoostServer { pid } => {
                    format!("boost-server {}", pid_to_string(*pid))
                }
                DomainAction::BoostServerMemory { pid } => {
                    format!("boost-server-memory {}", pid_to_string(*pid))
                }
            };
            match actions.last_mut() {
                Some((n, last)) if *last == a => *n += 1,
                _ => actions.push((1, a)),
            }
        }
        let actions: Vec<String> = actions
            .into_iter()
            .map(|(n, a)| if n == 1 { a } else { format!("{n}×{a}") })
            .collect();
        format!(
            "{fault:?} sensor {}: alerts {} boosts {} fps {:.2} / {:.2} / {:.2} [{}] \
             unactionable {}",
            if sensor { "on" } else { "off" },
            r.domain_alerts,
            r.client_boosts,
            r.fps_before,
            r.fps_during,
            r.fps_after,
            actions.join(", "),
            r.domain_unactionable,
        )
    };
    let mut got = Vec::new();
    for sensor in [true, false] {
        for fault in [Fault::ClientCpu, Fault::ServerCpu, Fault::Network] {
            got.push(render(fault, sensor));
        }
    }
    for line in &got {
        println!("{line}");
    }
    assert_eq!(
        got,
        [
            "ClientCpu sensor on: alerts 1 boosts 1 fps 30.00 / 28.25 / 30.00 \
             [reroute h0↔h1] unactionable 0",
            "ServerCpu sensor on: alerts 4 boosts 0 fps 30.00 / 29.95 / 30.00 \
             [2×reroute h0↔h1, 2×boost-server h1:p1] unactionable 0",
            "Network sensor on: alerts 2 boosts 0 fps 30.00 / 28.85 / 30.00 \
             [2×reroute h0↔h1] unactionable 0",
            "ClientCpu sensor off: alerts 42 boosts 0 fps 30.00 / 9.10 / 6.57 \
             [42×reroute h0↔h1] unactionable 0",
            "ServerCpu sensor off: alerts 4 boosts 0 fps 30.00 / 29.95 / 30.00 \
             [2×reroute h0↔h1, 2×boost-server h1:p1] unactionable 0",
            "Network sensor off: alerts 2 boosts 0 fps 30.00 / 28.85 / 30.00 \
             [2×reroute h0↔h1] unactionable 0",
        ]
    );
}

const STORM_ROUNDS: u64 = 10;
/// Control port of a host's first storm reporter; reporter `p` binds
/// `STORM_PORT_BASE + p`.
const STORM_PORT_BASE: Port = 100;
const TAG_STORM: u64 = 1;

/// Registers with its host manager, then reports one violation every
/// 200 ms, in step with every other reporter: the worst case for the
/// managers' engines. A large communication buffer selects the
/// local-CPU-starvation diagnosis, a small one the local fallback, so
/// several rules stay hot.
struct StormReporter {
    hm: Endpoint,
    telemetry: Telemetry,
    rounds: u64,
    big_buffer: bool,
    port: Port,
}

impl ProcessLogic for StormReporter {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
        let msg = match ev {
            ProcEvent::Start => WireMsg::Register(RegisterMsg {
                pid: ctx.pid(),
                control_port: self.port,
                executable: "StormReporter".into(),
                application: "ScaleBench".into(),
                role: "*".into(),
                weight: 1.0,
                heartbeat: None,
            }),
            ProcEvent::Timer(TAG_STORM) if self.rounds > 0 => {
                self.rounds -= 1;
                let corr = self.telemetry.next_corr();
                self.telemetry.stage(
                    ctx.now().as_micros(),
                    corr,
                    Stage::Detect,
                    pid_name(ctx.pid()),
                    "scale-storm",
                    &[],
                );
                let buffer = if self.big_buffer { 50_000.0 } else { 100.0 };
                WireMsg::Violation(ViolationMsg {
                    pid: ctx.pid(),
                    proc_name: "StormReporter".into(),
                    policy: "scale-storm".into(),
                    corr,
                    readings: vec![("frame_rate".into(), 15.0), ("buffer_size".into(), buffer)],
                    bounds: Some(("frame_rate".into(), 23.0, 27.0)),
                    upstream: None,
                })
            }
            ProcEvent::Readable(port) => {
                while ctx.recv(port).is_some() {}
                return;
            }
            _ => return,
        };
        send_ctrl(ctx, self.hm, self.port, msg);
        ctx.set_timer(Dur::from_millis(200), TAG_STORM);
    }
}

/// `hosts` × `procs` storm reporters, seed 20260807, every host manager
/// on the overload rules (which keep an `alloc` fact per process in
/// working memory, the population the naive matcher re-scans each
/// cycle). Returns violations, join work and every manager's firings.
fn storm(hosts: usize, procs: usize, naive: bool) -> (u64, u64, Vec<Vec<String>>) {
    let telemetry = Telemetry::enabled();
    let mut world = World::new(20260807);
    world.set_telemetry(&telemetry);
    let mut hms = Vec::new();
    for h in 0..hosts {
        let host = world.add_host(format!("host-{h}"), 1 << 16);
        let mut hm = QosHostManager::new(None).with_telemetry(&telemetry);
        hm.load_rules(overload_rules());
        hm.use_naive_matcher(naive);
        hm.set_engine_trace_capacity(1 << 20);
        let class = SchedClass::RealTime {
            rtpri: 50,
            budget: None,
        };
        let cfg = ProcConfig::new("QoSHostManager").class(class);
        hms.push(world.spawn(host, cfg.port(HOST_MANAGER_PORT, 1 << 20), hm));
        for p in 0..procs {
            let port = STORM_PORT_BASE + p as Port;
            let reporter = StormReporter {
                hm: Endpoint::new(host, HOST_MANAGER_PORT),
                telemetry: telemetry.clone(),
                rounds: STORM_ROUNDS,
                big_buffer: p % 2 == 0,
                port,
            };
            let cfg = ProcConfig::new("StormReporter").port(port, 1 << 14);
            world.spawn(host, cfg, reporter);
        }
    }
    // The rounds, and three more for the last one's queues to drain.
    world.run_for(Dur::from_millis(200 * (STORM_ROUNDS + 3)));
    let (mut violations, mut join_work, mut traces) = (0, 0, Vec::new());
    for pid in hms {
        let hm: &mut QosHostManager = world.logic_mut(pid).expect("host manager");
        violations += hm.stats.violations;
        join_work += hm.engine_join_work();
        traces.push(hm.take_engine_trace());
    }
    (violations, join_work, traces)
}

/// `domains` leaf domains × 4 hosts × 4 reporters × 2 rounds, seed
/// 20260809, every host manager binding through discovery. Returns
/// violations, route pushes and host entries pushed.
fn federated(domains: u32) -> (u64, u64, u64) {
    let hosts = 4 * domains;
    let mut fed = Federation::build(&FederationConfig {
        seed: 20260809,
        domains,
        hosts,
        reporters_per_host: 4,
        rounds: 2,
        telemetry: Telemetry::enabled(),
        ..FederationConfig::default()
    });
    // Two seconds to bind, then the rounds and three more to drain.
    fed.world.run_for(Dur::from_millis(2_000 + 200 * 5));
    assert_eq!(fed.bound_hosts(), hosts as usize, "every host binds");
    let shards = fed.shard_sizes();
    assert_eq!(shards.len(), domains as usize, "one shard per domain");
    assert_eq!(shards.iter().sum::<usize>(), hosts as usize, "a partition");
    let violations = fed
        .hms
        .iter()
        .filter_map(|&pid| fed.world.logic::<QosHostManager>(pid))
        .map(|hm| hm.stats.violations);
    let st = fed.disc_stats();
    (violations.sum(), st.route_pushes, st.pushed_host_entries)
}

/// The matcher and the registry as they scale. Counts, not times: the
/// naive matcher fires exactly the incremental one's sequence at every
/// size while its join work grows with working memory; the incremental
/// matcher's stays 10 per violation, flat. A sharded registry pushes
/// each leaf its own shard, so entries per push grow sub-linearly in
/// total hosts. Skipped where telemetry is compiled out: every report
/// then carries correlation id 0 and the duplicate window folds the
/// storm.
#[test]
fn storms_and_federations_are_pinned_across_commits() {
    if !Telemetry::enabled().is_enabled() {
        return;
    }
    // (hosts, procs per host) → violations, naive join work, incremental.
    let matcher = [
        ((1, 8), (80, 13_256, 800)),
        ((2, 16), (320, 96_800, 3_200)),
        ((4, 32), (1_280, 737_408, 12_800)),
        ((8, 64), (5_120, 5_751_296, 51_200)),
    ];
    for ((hosts, procs), pinned) in matcher {
        let (violations, naive_work, naive) = storm(hosts, procs, true);
        let (rete_violations, rete_work, rete) = storm(hosts, procs, false);
        // Not `assert_eq!`: a failure would print every firing.
        assert!(naive == rete, "matchers diverged at {hosts}x{procs}");
        assert_eq!(violations, rete_violations);
        let got = (violations, naive_work, rete_work);
        assert_eq!(got, pinned, "{hosts}x{procs}: violations, join work");
        assert_eq!(rete_work, 10 * violations);
    }
    // Domains of 4 hosts → violations, route pushes, host entries pushed.
    let registry = [(1, (32, 15, 36)), (2, (64, 36, 104)), (4, (128, 105, 336))];
    for (domains, pinned) in registry {
        assert_eq!(federated(domains), pinned, "{domains} domain(s)");
    }
    let per_push = |(_, pushes, entries): (u64, u64, u64)| entries as f64 / pushes as f64;
    let traffic_growth = per_push(registry[2].1) / per_push(registry[0].1);
    assert!(
        traffic_growth <= 0.6 * 4.0,
        "{traffic_growth:.2}x over 4x hosts"
    );
}
