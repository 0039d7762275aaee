//! Seeded runs pinned across commits. `chaos.rs` compares a run with
//! itself at one commit; this table compares it with the numbers of the
//! commit that last moved them: `world.events_processed()`, every host
//! manager's full [`HostMgrStats`], every domain manager's
//! [`DomainStats`], and a hash of every host manager's rule-firing
//! trace. Then one test per simulated table of the paper's evaluation
//! (E1, E4, E5, E6, E9, E10), each at the seed EXPERIMENTS.md quotes;
//! one each for two policy bounds those tables never reach (Example 1's
//! `jitter_rate < 1.25` and the proactive policy's `buffer_size <
//! 36000`); and three for how the matcher and the discovery registry
//! scale. A refactor of either manager passes unchanged; a change that
//! moves a number edits it here and says why.

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
    assert_rows(
        got,
        &[
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
        ],
    );
}

/// Prints `got`, one line each, so that `--nocapture` shows the table
/// EXPERIMENTS.md quotes, then compares it with the pinned lines.
fn assert_rows(got: Vec<String>, want: &[&str]) {
    for line in &got {
        println!("{line}");
    }
    assert_eq!(got, want);
}

/// E1 / Figure 3 at the paper's five load points: the measured load and
/// the client's fps under normal scheduling and managed.
#[test]
fn figure3_is_pinned_across_commits() {
    let got = figure3(20000704, &[0.70, 3.00, 5.00, 7.00, 10.00])
        .iter()
        .map(|r| {
            format!(
                "load {:.2}: measured {:.2} fps normal {:.2} managed {:.2}",
                r.target_load, r.measured_load, r.fps_normal, r.fps_managed
            )
        })
        .collect();
    assert_rows(
        got,
        &[
            "load 0.70: measured 0.81 fps normal 30.00 managed 30.00",
            "load 3.00: measured 3.44 fps normal 9.89 managed 30.00",
            "load 5.00: measured 5.51 fps normal 6.66 managed 29.09",
            "load 7.00: measured 7.66 fps normal 5.23 managed 30.00",
            "load 10.00: measured 10.93 fps normal 3.76 managed 30.00",
        ],
    );
}

/// E4: the client under 5 CPU hogs, managed and not: every fifth
/// second's fps and the manager's boost, when the managed run settled
/// into [23, 30] fps, and both runs' mean fps over their last 20 s.
#[test]
fn convergence_is_pinned_across_commits() {
    let managed = convergence(42, 5, true);
    let unmanaged = convergence(42, 5, false);
    let tail = |t: &ConvergenceTrace| t.fps.iter().rev().take(20).map(|p| p.1).sum::<f64>() / 20.0;
    let mut got: Vec<String> = (0..managed.fps.len())
        .step_by(5)
        .map(|i| {
            format!(
                "t {:.0}: managed {:.2} boost {}, unmanaged {:.2}",
                managed.fps[i].0, managed.fps[i].1, managed.boost[i].1, unmanaged.fps[i].1
            )
        })
        .collect();
    got.push(format!(
        "settled at {:?} s; steady state managed {:.2}, unmanaged {:.2}",
        managed.settled_at,
        tail(&managed),
        tail(&unmanaged)
    ));
    assert_rows(
        got,
        &[
            "t 1: managed 30.00 boost 0, unmanaged 30.00",
            "t 6: managed 30.00 boost 3, unmanaged 7.33",
            "t 11: managed 30.00 boost 3, unmanaged 21.72",
            "t 16: managed 30.00 boost 3, unmanaged 22.14",
            "t 21: managed 30.00 boost 3, unmanaged 6.16",
            "t 26: managed 30.00 boost 3, unmanaged 5.59",
            "t 31: managed 30.00 boost 3, unmanaged 5.76",
            "t 36: managed 30.00 boost 3, unmanaged 4.18",
            "t 41: managed 30.00 boost 3, unmanaged 0.52",
            "t 46: managed 30.00 boost 3, unmanaged 22.18",
            "t 51: managed 30.00 boost 3, unmanaged 6.49",
            "t 56: managed 30.00 boost 3, unmanaged 20.97",
            "t 61: managed 30.00 boost 3, unmanaged 4.40",
            "t 66: managed 30.00 boost 3, unmanaged 5.52",
            "t 71: managed 30.00 boost 3, unmanaged 6.99",
            "t 76: managed 30.00 boost 3, unmanaged 9.54",
            "t 81: managed 30.00 boost 3, unmanaged 9.22",
            "t 86: managed 30.00 boost 3, unmanaged 0.93",
            "settled at Some(6.0) s; steady state managed 30.00, unmanaged 10.61",
        ],
    );
}

/// E5: three video clients on one CPU, under fair-share and under
/// differentiated administrative rules.
#[test]
fn contention_is_pinned_across_commits() {
    let fair = contention(77, AdminRules::FairShare);
    let diff = contention(77, AdminRules::Differentiated);
    let got = fair
        .iter()
        .zip(&diff)
        .map(|(f, d)| {
            format!(
                "client {} weight {:.1}: fair {:.2} differentiated {:.2}",
                f.client, f.weight, f.fps, d.fps
            )
        })
        .collect();
    assert_rows(
        got,
        &[
            "client 0 weight 1.0: fair 16.47 differentiated 9.00",
            "client 1 weight 2.0: fair 16.56 differentiated 15.22",
            "client 2 weight 4.0: fair 16.88 differentiated 21.84",
        ],
    );
}

/// E9: a gradual load ramp, reactive and proactive.
#[test]
fn proactive_runs_are_pinned_across_commits() {
    let got = [false, true]
        .map(|enabled| {
            let r = proactive(20260704, enabled);
            format!(
                "{}: {} s below spec, worst {:.2}, mean {:.2}, nudges {}, boosts {}",
                if enabled { "proactive" } else { "reactive" },
                r.secs_below_spec,
                r.worst_fps,
                r.mean_fps,
                r.nudges,
                r.boosts
            )
        })
        .to_vec();
    assert_rows(
        got,
        &[
            "reactive: 2 s below spec, worst 15.00, mean 29.62, nudges 0, boosts 1",
            "proactive: 0 s below spec, worst 29.00, mean 30.00, nudges 1, boosts 0",
        ],
    );
}

/// E10: 135 % CPU demand at full quality, rigid and adaptive.
#[test]
fn overload_runs_are_pinned_across_commits() {
    let got = [false, true]
        .map(|adaptive| {
            let r = qos_core::experiment::overload(20260704, adaptive);
            format!(
                "{}: fps {:.2}, quality {}, adaptations {}, boost {}",
                if adaptive { "adaptive" } else { "rigid" },
                r.fps,
                r.quality,
                r.adaptations,
                r.boost
            )
        })
        .to_vec();
    assert_rows(
        got,
        &[
            "rigid: fps 22.17, quality 0, adaptations 0, boost 60",
            "adaptive: fps 30.00, quality 1, adaptations 1, boost 58",
        ],
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

/// Example 1's jitter leg, `jitter_rate < 1.25` in `EXAMPLE1_SOURCE`:
/// 25 fps delivered in pairs every 80 ms to a client that decodes a frame
/// in 28 ms, so display gaps alternate near 28 and 52 ms and the jitter
/// wanders across 1.25 while the frame rate stays in band. Unmanaged,
/// seed 91: every fifth second's frame rate, jitter and verdict, then
/// the violations reported and the seconds the policy stood violated.
#[test]
fn bursty_jitter_is_pinned_across_commits() {
    use qos_core::apps::video::{
        VideoClient, VideoClientConfig, VideoServer, VideoServerConfig, VIDEO_PORT,
    };
    let policy = qos_policy::parser::parse_policy(EXAMPLE1_SOURCE).expect("Example 1 parses");
    let policy = qos_policy::compile::compile(&policy).expect("Example 1 compiles");
    let mut world = World::new(91);
    let ch = world.add_host("client", 1 << 16);
    let sh = world.add_host("server", 1 << 16);
    let hop = world
        .net_mut()
        .add_hop(10_000_000.0, Dur::from_millis(1), Dur::from_secs(1));
    world.net_mut().set_route_symmetric(ch, sh, vec![hop]);
    let client = world.spawn(
        ch,
        ProcConfig::new("VideoApplication").port(VIDEO_PORT, 1 << 20),
        VideoClient::new(
            VideoClientConfig {
                decode_cost: Dur::from_micros(28_000),
                ..VideoClientConfig::default()
            },
            vec![policy],
        ),
    );
    world.spawn(
        sh,
        ProcConfig::new("VideoServer"),
        VideoServer::new(VideoServerConfig {
            client: Endpoint::new(ch, VIDEO_PORT),
            fps: 25.0,
            burst: 2,
            ..VideoServerConfig::default()
        }),
    );
    let mut got = Vec::new();
    let mut secs_violated = 0;
    for t in 1..=30 {
        world.run_for(Dur::from_secs(1));
        let c: &VideoClient = world.logic(client).expect("client");
        let violated = c.coordinator().is_violated(0);
        secs_violated += u32::from(violated);
        if t % 5 == 0 {
            let read = |attr| c.sensors().read_attr(attr).expect("Example 1 sensor");
            got.push(format!(
                "t {t}: fps {:.2} jitter {:.2} violated {violated}",
                read("frame_rate"),
                read("jitter_rate")
            ));
        }
    }
    let c: &VideoClient = world.logic(client).expect("client");
    got.push(format!(
        "{} violations, violated in {secs_violated} of 30 s",
        c.coordinator().violation_count(0)
    ));
    assert_rows(
        got,
        &[
            "t 5: fps 25.00 jitter 1.20 violated false",
            "t 10: fps 25.33 jitter 1.19 violated false",
            "t 15: fps 25.00 jitter 1.28 violated true",
            "t 20: fps 25.33 jitter 1.16 violated false",
            "t 25: fps 25.00 jitter 1.22 violated false",
            "t 30: fps 25.33 jitter 1.21 violated false",
            "12 violations, violated in 9 of 30 s",
        ],
    );
}

/// The proactive policy's bound, `buffer_size < 36000` in
/// `PROACTIVE_SOURCE`: E9's proactive testbed (seed 20260704) settles for
/// 30 s, then three CPU hogs start. Stepped in 10 ms for 30 s: each time
/// the policy comes to stand violated, with the buffer and frame rate the
/// client read then; how long it stood violated in all; and the manager's
/// nudges and boosts.
#[test]
fn buffer_pressure_is_pinned_across_commits() {
    let mut tb = Testbed::build(&TestbedConfig {
        seed: 20260704,
        managed: true,
        proactive: true,
        ..TestbedConfig::default()
    });
    tb.world.run_for(Dur::from_secs(30));
    spawn_mix(
        &mut tb.world,
        tb.client_host,
        LoadMix {
            hogs: 3,
            fraction: 0.0,
        },
    );
    let coordinator = tb.client(0).coordinator();
    let ix = (0..coordinator.policy_count())
        .find(|&i| coordinator.policy(i).name == "ProactiveBufferPressure")
        .expect("the proactive policy is distributed");
    let mut got = Vec::new();
    let (mut was_violated, mut violated_ms) = (false, 0);
    for ms in (10..=30_000).step_by(10) {
        tb.world.run_for(Dur::from_millis(10));
        let c = tb.client(0);
        let violated = c.coordinator().is_violated(ix);
        if violated {
            violated_ms += 10;
        }
        if violated && !was_violated {
            let read = |attr| c.sensors().read_attr(attr).expect("standard sensor");
            got.push(format!(
                "violated {ms} ms after the hogs: buffer {:.0} fps {:.2}",
                read("buffer_size"),
                read("frame_rate")
            ));
        }
        was_violated = violated;
    }
    let hm = tb.client_hm_stats().expect("managed testbed");
    got.push(format!(
        "violated for {violated_ms} ms; nudges {}, boosts {}",
        hm.nudges, hm.cpu_boosts
    ));
    assert_rows(
        got,
        &[
            "violated 16950 ms after the hogs: buffer 36000 fps 29.33",
            "violated for 70 ms; nudges 1, boosts 0",
        ],
    );
}

/// A storm of `hosts` × `procs` reporters under both matchers. Counts,
/// not times: the naive matcher fires exactly the incremental one's
/// sequence while its join work grows with working memory; the
/// incremental matcher's stays 10 per violation, flat. `pinned` is
/// violations, naive join work and incremental join work.
fn assert_storm(hosts: usize, procs: usize, pinned: (u64, u64, u64)) {
    let (violations, naive_work, naive) = storm(hosts, procs, true);
    let (rete_violations, rete_work, rete) = storm(hosts, procs, false);
    // Not `assert_eq!`: a failure would print every firing.
    assert!(naive == rete, "matchers diverged at {hosts}x{procs}");
    assert_eq!(violations, rete_violations);
    let got = (violations, naive_work, rete_work);
    assert_eq!(got, pinned, "{hosts}x{procs}: violations, join work");
    assert_eq!(rete_work, 10 * violations);
}

// The storm and federation tests are skipped where telemetry is
// compiled out: every report then carries correlation id 0 and the
// duplicate window folds the storm.

/// The matcher at the largest storm, 8 hosts × 64 reporters: the
/// longest test in this file, named to sort — and so to start — first.
#[test]
fn big_storm_is_pinned_across_commits() {
    if !Telemetry::enabled().is_enabled() {
        return;
    }
    assert_storm(8, 64, (5_120, 5_751_296, 51_200));
}

/// The matcher at the smaller storms: (hosts, procs per host).
#[test]
fn small_storms_are_pinned_across_commits() {
    if !Telemetry::enabled().is_enabled() {
        return;
    }
    assert_storm(1, 8, (80, 13_256, 800));
    assert_storm(2, 16, (320, 96_800, 3_200));
    assert_storm(4, 32, (1_280, 737_408, 12_800));
}

/// The registry as it scales: a sharded registry pushes each leaf its
/// own shard, so entries per push grow sub-linearly in total hosts.
#[test]
fn federations_are_pinned_across_commits() {
    if !Telemetry::enabled().is_enabled() {
        return;
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
