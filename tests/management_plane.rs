//! Integration tests for the management plane inside the simulation:
//! host managers, the domain manager, dynamic rule distribution and the
//! memory resource manager, spanning `qos-manager`, `qos-inference` and
//! `qos-sim`.

use qos_core::prelude::*;
use qos_core::sim::memory::PAGE_FAULT_COST;
use qos_core::wire::BatchMsg;

#[test]
fn host_manager_processes_violations_in_sim() {
    let cfg = TestbedConfig {
        seed: 60,
        managed: true,
        ..TestbedConfig::default()
    };
    let mut tb = Testbed::build(&cfg);
    spawn_mix(
        &mut tb.world,
        tb.client_host,
        LoadMix {
            hogs: 5,
            fraction: 0.0,
        },
    );
    tb.world.run_for(Dur::from_secs(60));
    let hm = tb.client_hm_stats().unwrap();
    assert!(hm.registrations >= 1, "client registered at startup");
    assert!(hm.violations >= 3, "violations flowed: {}", hm.violations);
    assert!(hm.cpu_boosts >= 1);
    // The scheduler actually carries the boost.
    let upri = tb
        .world
        .host(tb.client_host)
        .proc_upri(tb.clients[0])
        .unwrap();
    assert!(upri > 0, "upri {upri}");
}

#[test]
fn rule_update_message_changes_running_manager() {
    let cfg = TestbedConfig {
        seed: 61,
        managed: true,
        ..TestbedConfig::default()
    };
    let mut tb = Testbed::build(&cfg);
    let hm_pid = tb.client_hm.unwrap();

    struct Updater {
        hm: Endpoint,
    }
    impl ProcessLogic for Updater {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
            if let ProcEvent::Start = ev {
                send_ctrl(
                    ctx,
                    self.hm,
                    98,
                    WireMsg::RuleUpdate(RuleUpdateMsg {
                        add: Some(
                            "(defrule custom-rule (never (matches ?x)) => (call noop ?x))".into(),
                        ),
                        remove: vec!["over-achieving".into()],
                    }),
                );
                ctx.exit();
            }
        }
    }
    tb.world.spawn(
        tb.client_host,
        ProcConfig::new("updater"),
        Updater {
            hm: Endpoint::new(tb.client_host, HOST_MANAGER_PORT),
        },
    );
    tb.world.run_for(Dur::from_secs(2));
    let hm: &QosHostManager = tb.world.logic(hm_pid).unwrap();
    assert_eq!(hm.stats.rule_updates, 1);
    let names = hm.rule_names();
    assert!(names.iter().any(|n| n == "custom-rule"));
    assert!(!names.iter().any(|n| n == "over-achieving"));
}

/// Spawn a process on the client host that sends `msgs` to the client's
/// host manager, one frame each, then exits.
fn send_to_client_hm(tb: &mut Testbed, msgs: Vec<WireMsg>) {
    struct Sender {
        hm: Endpoint,
        msgs: Vec<WireMsg>,
    }
    impl ProcessLogic for Sender {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
            if let ProcEvent::Start = ev {
                for m in self.msgs.drain(..) {
                    send_ctrl(ctx, self.hm, 98, m);
                }
                ctx.exit();
            }
        }
    }
    let hm = Endpoint::new(tb.client_host, HOST_MANAGER_PORT);
    tb.world.spawn(
        tb.client_host,
        ProcConfig::new("sender"),
        Sender { hm, msgs },
    );
}

fn rule_update(add: Option<&str>, remove: &[&str]) -> WireMsg {
    WireMsg::RuleUpdate(RuleUpdateMsg {
        add: add.map(str::to_string),
        remove: remove.iter().map(|s| s.to_string()).collect(),
    })
}

/// A peer cannot panic the manager: a frame coalescing two messages is
/// two messages' work and one blocking `run`, not two.
#[test]
fn two_message_batch_frame_is_handled_in_one_callback() {
    let mut tb = Testbed::build(&TestbedConfig {
        seed: 63,
        managed: true,
        ..TestbedConfig::default()
    });
    let batch = WireMsg::Batch(BatchMsg {
        msgs: vec![
            rule_update(None, &["over-achieving"]),
            rule_update(
                Some("(defrule second (never (matches ?x)) => (call noop ?x))"),
                &[],
            ),
        ],
    });
    send_to_client_hm(&mut tb, vec![batch]);
    tb.world.run_for(Dur::from_secs(2));
    let hm: &QosHostManager = tb.world.logic(tb.client_hm.unwrap()).unwrap();
    assert_eq!(hm.stats.batch_frames, 1);
    assert_eq!(hm.stats.rule_updates, 2, "both coalesced messages applied");
    let names = hm.rule_names();
    assert!(names.iter().any(|n| n == "second"));
    assert!(!names.iter().any(|n| n == "over-achieving"));
}

/// A rule update is applied whole or not at all: text that does not
/// parse must not leave the removals done and nothing added, and the
/// refusal is counted rather than dropped.
#[test]
fn unparsable_rule_update_is_rejected_whole_and_counted() {
    let telemetry = Telemetry::enabled();
    let mut tb = Testbed::build(&TestbedConfig {
        seed: 64,
        managed: true,
        telemetry: telemetry.clone(),
        ..TestbedConfig::default()
    });
    let hm_pid = tb.client_hm.unwrap();
    let before = tb
        .world
        .logic::<QosHostManager>(hm_pid)
        .unwrap()
        .rule_names();
    send_to_client_hm(
        &mut tb,
        vec![rule_update(
            Some("(this is (not valid"),
            &["over-achieving"],
        )],
    );
    tb.world.run_for(Dur::from_secs(2));
    let hm: &QosHostManager = tb.world.logic(hm_pid).unwrap();
    assert_eq!(hm.rule_names(), before, "nothing removed, nothing added");
    assert_eq!(hm.stats.rule_rejects, 1);
    assert_eq!(
        hm.stats.rule_updates, 0,
        "a refused update is not an update"
    );
    if telemetry.is_enabled() {
        assert_eq!(telemetry.counter_value("hm.rule_rejects", "h0"), 1);
    }

    // The manager is not wedged: the same removal with text that parses
    // goes through.
    send_to_client_hm(
        &mut tb,
        vec![rule_update(
            Some("(defrule custom-rule (never (matches ?x)) => (call noop ?x))"),
            &["over-achieving"],
        )],
    );
    tb.world.run_for(Dur::from_secs(2));
    let hm: &QosHostManager = tb.world.logic(hm_pid).unwrap();
    assert_eq!((hm.stats.rule_updates, hm.stats.rule_rejects), (1, 1));
    let names = hm.rule_names();
    assert!(names.iter().any(|n| n == "custom-rule"));
    assert!(!names.iter().any(|n| n == "over-achieving"));
}

#[test]
fn stats_query_roundtrip_through_the_network() {
    // The domain manager's query path, in isolation: a prober asks a
    // host manager for stats and receives the reply.
    struct Prober {
        hm: Endpoint,
        got: Option<(f64, u64)>,
    }
    impl ProcessLogic for Prober {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
            match ev {
                ProcEvent::Start => {
                    send_ctrl(
                        ctx,
                        self.hm,
                        77,
                        WireMsg::StatsQuery(StatsQueryMsg {
                            reply_to: Endpoint::new(ctx.host_id(), 77),
                            correlation: 42,
                        }),
                    );
                }
                ProcEvent::Readable(77) => {
                    let msg = ctx.recv(77).unwrap();
                    let Ok(Some(WireMsg::StatsReply(r))) = decode_ctrl(&msg) else {
                        panic!("expected a stats reply");
                    };
                    self.got = Some((r.load_avg, r.correlation));
                }
                _ => {}
            }
        }
    }
    let cfg = TestbedConfig {
        seed: 62,
        managed: true,
        domain: true,
        ..TestbedConfig::default()
    };
    let mut tb = Testbed::build(&cfg);
    spawn_mix(
        &mut tb.world,
        tb.server_host,
        LoadMix {
            hogs: 4,
            fraction: 0.0,
        },
    );
    tb.world.run_for(Dur::from_secs(120)); // let the load average build
    let prober = tb.world.spawn(
        tb.mgmt_host,
        ProcConfig::new("prober").port(77, 1 << 16),
        Prober {
            hm: Endpoint::new(tb.server_host, HOST_MANAGER_PORT),
            got: None,
        },
    );
    tb.world.run_for(Dur::from_secs(2));
    let p: &Prober = tb.world.logic(prober).unwrap();
    let (load, corr) = p.got.expect("reply received");
    assert_eq!(corr, 42);
    assert!(load > 3.0, "server load visible over the network: {load}");
}

#[test]
fn memory_manager_grows_a_thrashing_resident_set() {
    // A host with scarce memory: the client's working set cannot be fully
    // resident, page faults slow every decode burst, fps violates, and
    // the memory rule grows the resident set.
    struct TransientHog;
    impl ProcessLogic for TransientHog {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
            match ev {
                ProcEvent::Start => ctx.set_timer(Dur::from_secs(20), 0),
                ProcEvent::Timer(_) => ctx.exit(), // frames return to the pool
                _ => {}
            }
        }
    }
    let mut w = World::new(63);
    let ch = w.add_host("client", 1000); // 1000 frames of memory
    let sh = w.add_host("server", 1 << 16);
    let hop = w
        .net_mut()
        .add_hop(10_000_000.0, Dur::from_millis(1), Dur::from_secs(1));
    w.net_mut().set_route_symmetric(ch, sh, vec![hop]);
    let hm = w.spawn(
        ch,
        ProcConfig::new("QoSHostManager")
            .class(SchedClass::RealTime {
                rtpri: 50,
                budget: None,
            })
            .port(HOST_MANAGER_PORT, 1 << 20),
        QosHostManager::new(None),
    );
    // A memory hog holds 400 frames when the client starts, so the
    // client's 800-page working set cannot be fully resident. The hog
    // exits at t=20s; the memory manager can then grow the client.
    w.spawn(ch, ProcConfig::new("memhog").working_set(400), TransientHog);
    let client_cfg = VideoClientConfig {
        host_manager: Some(Endpoint::new(ch, HOST_MANAGER_PORT)),
        ..VideoClientConfig::default()
    };
    let client = w.spawn(
        ch,
        ProcConfig::new("VideoApplication")
            .working_set(800)
            .port(VIDEO_PORT, 1 << 16),
        VideoClient::new(client_cfg, vec![example1_policy()]),
    );
    w.spawn(
        sh,
        ProcConfig::new("VideoServer"),
        VideoServer::new(VideoServerConfig {
            client: Endpoint::new(ch, VIDEO_PORT),
            ..VideoServerConfig::default()
        }),
    );
    let deficit_before = w.host(ch).proc_mem(client).unwrap().deficit();
    assert!(deficit_before > 0, "scenario must start with a deficit");
    w.run_for(Dur::from_secs(60));
    let hm_logic: &QosHostManager = w.logic(hm).unwrap();
    assert!(
        hm_logic.stats.mem_adjustments >= 1,
        "memory rule fired: {:?}",
        hm_logic.stats
    );
    let mem = w.host(ch).proc_mem(client).unwrap();
    assert!(
        mem.deficit() < deficit_before,
        "resident set grew: {} -> {}",
        deficit_before,
        mem.deficit()
    );
    assert!(mem.faults > 0, "page faults were charged");
    let _ = PAGE_FAULT_COST; // referenced to document the cost model
}

#[test]
fn manager_survives_malformed_messages() {
    // Garbage payloads to the host manager port must be ignored, not
    // crash the manager.
    struct Garbler {
        hm: Endpoint,
    }
    impl ProcessLogic for Garbler {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
            if let ProcEvent::Start = ev {
                ctx.send(self.hm, 5, 64, "not a management message".to_string());
                ctx.send(self.hm, 5, 64, 12345u64);
                ctx.exit();
            }
        }
    }
    let cfg = TestbedConfig {
        seed: 64,
        managed: true,
        ..TestbedConfig::default()
    };
    let mut tb = Testbed::build(&cfg);
    tb.world.spawn(
        tb.client_host,
        ProcConfig::new("garbler"),
        Garbler {
            hm: Endpoint::new(tb.client_host, HOST_MANAGER_PORT),
        },
    );
    tb.world.run_for(Dur::from_secs(30));
    // The system still works afterwards.
    spawn_mix(
        &mut tb.world,
        tb.client_host,
        LoadMix {
            hogs: 5,
            fraction: 0.0,
        },
    );
    tb.world.run_for(Dur::from_secs(60));
    assert!(tb.client_hm_stats().unwrap().cpu_boosts > 0);
}

#[test]
fn managed_webserver_recovers_response_times() {
    use qos_core::apps::webserver::{
        response_time_policy, RequestGen, WebServer, WebServerConfig, WEB_PORT,
    };

    let mut w = World::new(71);
    let h = w.add_host("web", 1 << 16);
    let hm_pid = w.spawn(
        h,
        ProcConfig::new("QoSHostManager")
            .class(SchedClass::RealTime {
                rtpri: 50,
                budget: None,
            })
            .port(HOST_MANAGER_PORT, 1 << 20),
        QosHostManager::new(None),
    );
    // A realistic kernel accept queue (~64 requests): excess arrivals are
    // tail-dropped instead of accumulating minutes of backlog.
    let ws = w.spawn(
        h,
        ProcConfig::new("WebServer").port(WEB_PORT, 1 << 15),
        WebServer::new(
            WebServerConfig {
                cpu_per_request: Dur::from_micros(8_000),
                host_manager: Some(Endpoint::new(h, HOST_MANAGER_PORT)),
            },
            vec![response_time_policy(50.0)],
        ),
    );
    w.spawn(
        h,
        ProcConfig::new("RequestGen"),
        RequestGen::new(Endpoint::new(h, WEB_PORT), 90.0),
    );
    for _ in 0..6 {
        w.spawn(h, ProcConfig::new("hog"), CpuHog::new());
    }
    // Let contention bite and the manager respond.
    w.run_for(Dur::from_secs(120));
    let hm: &QosHostManager = w.logic(hm_pid).unwrap();
    assert!(
        hm.stats.violations >= 1,
        "web server must have reported: {:?}",
        hm.stats
    );
    assert!(
        hm.stats.nudges >= 1,
        "response-time rule must have nudged: {:?}",
        hm.stats
    );
    let upri = w.host(h).proc_upri(ws).unwrap();
    assert!(upri > 0, "server priority raised: {upri}");
    // Steady-state responses are healthy again.
    w.run_for(Dur::from_secs(60)); // drain the residual backlog
    let s: &WebServer = w.logic(ws).unwrap();
    let before = s.stats.served;
    let before_total = s.stats.total_response_us;
    w.run_for(Dur::from_secs(30));
    let s: &WebServer = w.logic(ws).unwrap();
    let recent_ms = (s.stats.total_response_us - before_total) as f64
        / (s.stats.served - before).max(1) as f64
        / 1_000.0;
    assert!(recent_ms < 50.0, "recent mean response {recent_ms} ms");
}

#[test]
fn managed_game_recovers_frame_rate() {
    use qos_core::apps::game::{game_fps_policy, Game, GameConfig};

    let mut w = World::new(72);
    let h = w.add_host("game", 1 << 16);
    let _hm = w.spawn(
        h,
        ProcConfig::new("QoSHostManager")
            .class(SchedClass::RealTime {
                rtpri: 50,
                budget: None,
            })
            .port(HOST_MANAGER_PORT, 1 << 20),
        QosHostManager::new(None),
    );
    let g = w.spawn(
        h,
        ProcConfig::new("Game").port(201, 1 << 16),
        Game::new(
            GameConfig {
                frame_cost: Dur::from_millis(25),
                host_manager: Some(Endpoint::new(h, HOST_MANAGER_PORT)),
                ..GameConfig::default()
            },
            vec![game_fps_policy(35.0, 5.0)],
        ),
    );
    for _ in 0..6 {
        w.spawn(h, ProcConfig::new("hog"), CpuHog::new());
    }
    w.run_for(Dur::from_secs(60));
    let frames_before = w.logic::<Game>(g).unwrap().frames;
    w.run_for(Dur::from_secs(30));
    let fps = (w.logic::<Game>(g).unwrap().frames - frames_before) as f64 / 30.0;
    assert!(fps > 30.0, "managed game holds its target: {fps}");
    assert!(w.host(h).proc_upri(g).unwrap() > 0);
}

#[test]
fn cross_domain_alert_is_forwarded_to_the_peer_domain_manager() {
    use qos_core::apps::video::{
        example1_policy, VideoClient, VideoClientConfig, VideoServer, VideoServerConfig, VIDEO_PORT,
    };
    use std::collections::HashMap;

    // Two administrative domains: A = {client host}, B = {server host},
    // each with its own domain manager on its own management host. The
    // stream crosses the domain boundary; a server-side fault must be
    // localized by B after A forwards the alert (Section 9's
    // "Interconnecting QoS Domain Managers"). Nothing is hand-wired: B is
    // the federation's root `d0`, A its leaf `d1`, and a discovery server
    // on B's management host assigns each host its domain and pushes the
    // routes A forwards along.
    let mut w = World::new(81);
    let ch = w.add_host("client", 1 << 16);
    let sh = w.add_host("server", 1 << 16);
    let ma = w.add_host("mgmt-a", 1 << 16);
    let mb = w.add_host("mgmt-b", 1 << 16);
    let data = w
        .net_mut()
        .add_hop(10_000_000.0, Dur::from_millis(1), Dur::from_millis(500));
    let ctrl = w
        .net_mut()
        .add_hop(1_000_000.0, Dur::from_millis(1), Dur::from_secs(1));
    w.net_mut().set_route_symmetric(ch, sh, vec![data]);
    for (a, b) in [(ch, ma), (sh, mb), (ma, mb), (ch, mb), (sh, ma)] {
        w.net_mut().set_route_symmetric(a, b, vec![ctrl]);
    }

    let mgr_class = SchedClass::RealTime {
        rtpri: 50,
        budget: None,
    };
    // Discovery: the client host is pinned to A's domain, the server
    // host to B's.
    let disc_ep = Endpoint::new(mb, DISCOVERY_PORT);
    let mut disc = DiscoveryServer::new(DISCOVERY_LEASE);
    disc.core.pin(ch, DomainId(1));
    disc.core.pin(sh, DomainId(0));
    w.spawn(
        mb,
        ProcConfig::new("DiscoveryServer")
            .class(mgr_class)
            .port(DISCOVERY_PORT, 1 << 20),
        disc,
    );
    // Host managers, told only where discovery lives.
    for (h, seed) in [(ch, 1), (sh, 2)] {
        w.spawn(
            h,
            ProcConfig::new("QoSHostManager")
                .class(mgr_class)
                .port(HOST_MANAGER_PORT, 1 << 20),
            QosHostManager::new(None).with_discovery(disc_ep, seed),
        );
    }
    // Domain managers: B the root, A its child. Each learns its shard
    // from the route pushes; A learns B as its parent the same way.
    let dm = |w: &mut World, host, name, domain, parent| {
        w.spawn(
            host,
            ProcConfig::new(name)
                .class(mgr_class)
                .port(DOMAIN_MANAGER_PORT, 1 << 20),
            QosDomainManager::new(HashMap::new()).with_federation(domain, parent, disc_ep),
        )
    };
    let dm_b = dm(&mut w, mb, "QoSDomainManager-d0", DomainId(0), None);
    let dm_a = dm(
        &mut w,
        ma,
        "QoSDomainManager-d1",
        DomainId(1),
        Some(DomainId(0)),
    );

    // The cross-domain stream.
    let server_pid = Pid { host: sh, local: 1 };
    let client = w.spawn(
        ch,
        ProcConfig::new("VideoApplication").port(VIDEO_PORT, 1 << 16),
        VideoClient::new(
            VideoClientConfig {
                host_manager: Some(Endpoint::new(ch, HOST_MANAGER_PORT)),
                upstream: Some(Upstream {
                    host: sh,
                    pid: server_pid,
                }),
                ..VideoClientConfig::default()
            },
            vec![example1_policy()],
        ),
    );
    let server = w.spawn(
        sh,
        ProcConfig::new("VideoServer"),
        VideoServer::new(VideoServerConfig {
            client: Endpoint::new(ch, VIDEO_PORT),
            ..VideoServerConfig::default()
        }),
    );
    assert_eq!(server, server_pid);

    w.run_for(Dur::from_secs(30));
    // Server-side fault in domain B: interactive storm + degraded encode.
    for _ in 0..30 {
        w.spawn(
            sh,
            ProcConfig::new("storm"),
            DutyLoadGen {
                duty: 0.25,
                period: Dur::from_millis(60),
            },
        );
    }
    w.logic_mut::<VideoServer>(server)
        .unwrap()
        .set_cpu_per_frame(Dur::from_millis(25));
    w.run_for(Dur::from_secs(60));

    let a: &QosDomainManager = w.logic(dm_a).unwrap();
    let b: &QosDomainManager = w.logic(dm_b).unwrap();
    assert_eq!((a.shard_size(), b.shard_size()), (1, 1), "one host each");
    assert!(a.stats.alerts >= 1, "A received the client-side alert");
    assert!(
        a.stats.forwarded >= 1,
        "A forwarded across the domain boundary"
    );
    assert!(
        a.stats.actions.is_empty(),
        "A itself must not act on a foreign host"
    );
    assert!(b.stats.alerts >= 1, "B received the forwarded alert");
    assert!(
        b.stats
            .actions
            .iter()
            .any(|x| matches!(x, DomainAction::BoostServer { .. })),
        "B localized the server fault: {:?}",
        b.stats.actions
    );
    // Service recovered end to end.
    let d0 = w.logic::<VideoClient>(client).unwrap().stats.displayed;
    w.run_for(Dur::from_secs(30));
    let fps = (w.logic::<VideoClient>(client).unwrap().stats.displayed - d0) as f64 / 30.0;
    assert!(fps > 25.0, "cross-domain recovery: {fps}");
}
