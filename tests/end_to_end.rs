//! End-to-end integration tests: the full stack — policy text in the
//! repository → agent resolution → coordinator → sensors → violation →
//! host manager inference → resource manager → scheduler — exercised
//! through whole-system scenarios.

use qos_core::prelude::*;

fn fps_over(tb: &mut Testbed, secs: u64) -> f64 {
    let d0 = tb.displayed(0);
    tb.world.run_for(Dur::from_secs(secs));
    (tb.displayed(0) - d0) as f64 / secs as f64
}

#[test]
fn managed_system_holds_qos_under_load() {
    let cfg = TestbedConfig {
        seed: 1001,
        managed: true,
        ..TestbedConfig::default()
    };
    let mut tb = Testbed::build(&cfg);
    spawn_mix(
        &mut tb.world,
        tb.client_host,
        LoadMix {
            hogs: 6,
            fraction: 0.0,
        },
    );
    tb.world.run_for(Dur::from_secs(40)); // detect + adapt
    let fps = fps_over(&mut tb, 40);
    assert!(fps > 23.0, "managed fps {fps}");
    let hm = tb.client_hm_stats().expect("managed");
    assert!(hm.violations > 0, "violations must have been reported");
    assert!(
        hm.cpu_boosts > 0,
        "the CPU resource manager must have acted"
    );
}

#[test]
fn unmanaged_system_collapses_under_load() {
    let cfg = TestbedConfig {
        seed: 1001,
        managed: false,
        ..TestbedConfig::default()
    };
    let mut tb = Testbed::build(&cfg);
    spawn_mix(
        &mut tb.world,
        tb.client_host,
        LoadMix {
            hogs: 6,
            fraction: 0.0,
        },
    );
    tb.world.run_for(Dur::from_secs(40));
    let fps = fps_over(&mut tb, 40);
    assert!(fps < 15.0, "unmanaged fps {fps} should collapse");
}

#[test]
fn identical_seeds_reproduce_identical_runs() {
    let run = |seed| {
        let cfg = TestbedConfig {
            seed,
            managed: true,
            ..TestbedConfig::default()
        };
        let mut tb = Testbed::build(&cfg);
        spawn_mix(
            &mut tb.world,
            tb.client_host,
            LoadMix {
                hogs: 3,
                fraction: 0.5,
            },
        );
        tb.world.run_for(Dur::from_secs(60));
        (
            tb.displayed(0),
            tb.world.events_processed(),
            tb.client_hm_stats().map(|s| s.violations),
        )
    };
    assert_eq!(run(77), run(77));
    assert_ne!(run(77), run(78), "different seeds should diverge");
}

#[test]
fn feedback_loop_converges_and_outperforms() {
    let managed = convergence(55, 5, true);
    let unmanaged = convergence(55, 5, false);
    assert!(managed.settled_at.is_some(), "managed run must settle");
    let tail =
        |t: &ConvergenceTrace| t.fps.iter().rev().take(15).map(|&(_, v)| v).sum::<f64>() / 15.0;
    assert!(
        tail(&managed) > tail(&unmanaged) + 5.0,
        "managed {} vs unmanaged {}",
        tail(&managed),
        tail(&unmanaged)
    );
    // The boost trace is the Section 2 strategy made visible: it must
    // have moved off zero.
    assert!(managed.boost.iter().any(|&(_, b)| b > 0));
}

#[test]
fn figure3_shape_holds_at_the_extremes() {
    let rows = figure3(2000, &[0.70, 10.00]);
    let light = &rows[0];
    let heavy = &rows[1];
    // Both schedulers fine at baseline load.
    assert!(
        light.fps_normal > 25.0,
        "baseline normal {}",
        light.fps_normal
    );
    assert!(
        light.fps_managed > 25.0,
        "baseline managed {}",
        light.fps_managed
    );
    // At load 10 the unmanaged player collapses; the managed one holds.
    assert!(heavy.fps_normal < 10.0, "heavy normal {}", heavy.fps_normal);
    assert!(
        heavy.fps_managed > 23.0,
        "heavy managed {}",
        heavy.fps_managed
    );
    // Load calibration: measured within ~15% of target.
    assert!(
        (heavy.measured_load - 10.0).abs() < 1.5,
        "load {}",
        heavy.measured_load
    );
}

#[test]
fn domain_manager_localizes_network_fault_and_reroutes() {
    let r = localization(3000, Fault::Network, true);
    assert!(r.fps_before > 25.0);
    assert!(r
        .domain_actions
        .iter()
        .any(|a| matches!(a, DomainAction::Reroute { .. })));
    assert!(
        r.fps_after > 25.0,
        "service restored after reroute: {}",
        r.fps_after
    );
}

#[test]
fn domain_manager_localizes_server_fault() {
    let r = localization(3000, Fault::ServerCpu, true);
    assert!(r
        .domain_actions
        .iter()
        .any(|a| matches!(a, DomainAction::BoostServer { .. })));
    assert!(
        r.fps_after > 25.0,
        "service restored after boost: {}",
        r.fps_after
    );
}

#[test]
fn client_cpu_fault_is_handled_locally() {
    let r = localization(3000, Fault::ClientCpu, true);
    assert!(r.client_boosts > 0, "local adaptation expected");
    assert!(r.fps_after > 23.0, "service restored: {}", r.fps_after);
}

#[test]
fn buffer_sensor_ablation_breaks_local_diagnosis() {
    let ok = localization(3000, Fault::ClientCpu, true);
    let ablated = localization(3000, Fault::ClientCpu, false);
    assert!(ok.fps_after > 23.0);
    assert!(
        ablated.fps_after < ok.fps_after - 10.0,
        "without the Example 5 heuristic the fault is misdiagnosed: {} vs {}",
        ablated.fps_after,
        ok.fps_after
    );
    // The misdiagnosis shows up as futile escalations.
    assert!(ablated.domain_alerts > ok.domain_alerts);
}

#[test]
fn rt_units_strategy_also_enforces_qos() {
    let cfg = TestbedConfig {
        seed: 4004,
        managed: true,
        cpu_policy: CpuPolicy::RtUnits,
        ..TestbedConfig::default()
    };
    let mut tb = Testbed::build(&cfg);
    spawn_mix(
        &mut tb.world,
        tb.client_host,
        LoadMix {
            hogs: 6,
            fraction: 0.0,
        },
    );
    tb.world.run_for(Dur::from_secs(40));
    let fps = fps_over(&mut tb, 40);
    assert!(fps > 20.0, "RT-units managed fps {fps}");
}

#[test]
fn contention_fair_vs_differentiated() {
    let fair = contention(5005, AdminRules::FairShare);
    let diff = contention(5005, AdminRules::Differentiated);
    // Fair: nobody dominates.
    let spread = fair.iter().map(|r| r.fps).fold(f64::MIN, f64::max)
        - fair.iter().map(|r| r.fps).fold(f64::MAX, f64::min);
    assert!(spread < 5.0, "fair spread {spread}");
    // Differentiated: service ordered by role.
    assert!(
        diff[2].fps > diff[1].fps && diff[1].fps > diff[0].fps,
        "{diff:?}"
    );
}

#[test]
fn proactive_management_prevents_the_dip() {
    let reactive = proactive(9009, false);
    let proactive_run = proactive(9009, true);
    assert!(proactive_run.nudges > 0, "proactive policy must fire");
    assert!(
        proactive_run.secs_below_spec <= reactive.secs_below_spec,
        "proactive {} vs reactive {}",
        proactive_run.secs_below_spec,
        reactive.secs_below_spec
    );
    assert!(proactive_run.worst_fps >= reactive.worst_fps);
}

#[test]
fn overload_is_unwinnable_without_adaptation_and_winnable_with_it() {
    let rigid = overload(9010, false);
    assert_eq!(rigid.boost, 60, "allocation must max out");
    assert!(rigid.fps < 23.0, "and still fail: {}", rigid.fps);
    assert_eq!(rigid.quality, 0, "no adaptation without the overload rules");

    let adaptive = overload(9010, true);
    assert!(adaptive.quality > 0, "quality actuator driven");
    assert!(adaptive.adaptations >= 1);
    assert!(
        adaptive.fps > 23.0,
        "degraded stream in spec: {}",
        adaptive.fps
    );
}

#[test]
fn in_sim_policy_distribution_full_path() {
    // The complete Figure 2 path inside the simulation: the client
    // starts uninstrumented, registers with the Policy Agent process
    // over the network, receives its compiled policies, and enforcement
    // works from then on.
    let cfg = TestbedConfig {
        seed: 9011,
        managed: true,
        in_sim_distribution: true,
        ..TestbedConfig::default()
    };
    let mut tb = Testbed::build(&cfg);
    tb.world.run_for(Dur::from_secs(2));
    let loaded_at = tb.client(0).stats.policies_loaded_at_us;
    assert!(loaded_at > 0, "policies must arrive via the agent");
    assert!(
        loaded_at < 1_000_000,
        "registration should complete within a second: {loaded_at} us"
    );
    assert_eq!(tb.client(0).coordinator().policy_count(), 1);
    // Enforcement works end to end afterwards.
    spawn_mix(
        &mut tb.world,
        tb.client_host,
        LoadMix {
            hogs: 6,
            fraction: 0.0,
        },
    );
    tb.world.run_for(Dur::from_secs(60));
    let d0 = tb.displayed(0);
    tb.world.run_for(Dur::from_secs(30));
    let fps = (tb.displayed(0) - d0) as f64 / 30.0;
    assert!(fps > 23.0, "agent-distributed policy enforced: {fps}");
}

#[test]
fn bursty_stream_violates_via_jitter_not_frame_rate() {
    use qos_core::apps::video::{
        example1_policy, VideoClient, VideoClientConfig, VideoServer, VideoServerConfig, VIDEO_PORT,
    };
    // A server that delivers 30 fps in bursts of 6 frames every 200 ms:
    // the mean rate satisfies the policy's frame_rate leg, but the
    // inter-display gaps alternate between ~0 and 200 ms — the
    // jitter_rate < 1.25 condition is what must catch it.
    let mut w = qos_core::sim::World::new(91);
    let ch = w.add_host("client", 1 << 16);
    let sh = w.add_host("server", 1 << 16);
    let hop = w
        .net_mut()
        .add_hop(10_000_000.0, Dur::from_millis(1), Dur::from_secs(1));
    w.net_mut().set_route_symmetric(ch, sh, vec![hop]);
    let client = w.spawn(
        ch,
        ProcConfig::new("VideoApplication").port(VIDEO_PORT, 1 << 20),
        VideoClient::new(
            VideoClientConfig {
                decode_cost: Dur::from_micros(2_000),
                ..VideoClientConfig::default()
            },
            vec![example1_policy()],
        ),
    );
    w.spawn(
        sh,
        ProcConfig::new("VideoServer"),
        VideoServer::new(VideoServerConfig {
            client: Endpoint::new(ch, VIDEO_PORT),
            burst: 6,
            ..VideoServerConfig::default()
        }),
    );
    w.run_for(Dur::from_secs(30));
    let c: &VideoClient = w.logic(client).unwrap();
    // Mean rate in spec...
    let fps = c.sensors().read_attr("frame_rate").unwrap();
    assert!(fps > 23.0, "mean rate fine: {fps}");
    // ...but jitter far out of spec, and the policy is violated.
    let jitter = c.sensors().read_attr("jitter_rate").unwrap();
    assert!(jitter > 1.25, "jitter {jitter}");
    assert!(
        c.coordinator().is_violated(0),
        "violated through the jitter leg"
    );
    assert!(c.coordinator().violation_count(0) >= 1);
}

#[test]
fn multimedia_coexists_with_transaction_processing() {
    // The paper's opening premise: multimedia applications "will co-exist
    // with more traditional applications for transaction processing" —
    // one managed host running a video session AND a web/transaction
    // server, both under their own policies, both held in specification
    // simultaneously despite background CPU contention.
    use qos_core::apps::webserver::{
        response_time_policy, RequestGen, WebServer, WebServerConfig, WEB_PORT,
    };
    let cfg = TestbedConfig {
        seed: 9100,
        managed: true,
        ..TestbedConfig::default()
    };
    let mut tb = Testbed::build(&cfg);
    let ws = tb.world.spawn(
        tb.client_host,
        ProcConfig::new("WebServer").port(WEB_PORT, 1 << 15),
        WebServer::new(
            WebServerConfig {
                cpu_per_request: Dur::from_micros(3_000),
                host_manager: Some(Endpoint::new(tb.client_host, HOST_MANAGER_PORT)),
            },
            vec![response_time_policy(50.0)],
        ),
    );
    tb.world.spawn(
        tb.client_host,
        ProcConfig::new("RequestGen"),
        RequestGen::new(Endpoint::new(tb.client_host, WEB_PORT), 60.0),
    );
    // Background contention on top of both services.
    spawn_mix(
        &mut tb.world,
        tb.client_host,
        LoadMix {
            hogs: 3,
            fraction: 0.0,
        },
    );
    tb.world.run_for(Dur::from_secs(90)); // detect + adapt + settle
                                          // Measure both services over a steady window.
    let d0 = tb.displayed(0);
    let s0 = {
        let s: &WebServer = tb.world.logic(ws).unwrap();
        (s.stats.served, s.stats.total_response_us)
    };
    tb.world.run_for(Dur::from_secs(30));
    let fps = (tb.displayed(0) - d0) as f64 / 30.0;
    let s: &WebServer = tb.world.logic(ws).unwrap();
    let served = s.stats.served - s0.0;
    let mean_ms = (s.stats.total_response_us - s0.1) as f64 / served.max(1) as f64 / 1_000.0;
    assert!(fps > 23.0, "video in spec: {fps}");
    assert!(served > 1_500, "transactions flowing: {served}");
    assert!(mean_ms < 50.0, "transactions in spec: {mean_ms} ms");
}
