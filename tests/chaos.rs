//! Chaos harness: seeded, deterministic fault schedules driven against
//! the complete managed testbed. The management plane must degrade
//! gracefully and recover — a lossy control plane plus a host-manager
//! crash-restart still converges the video stream back into
//! specification, and a client that dies mid-session cannot pin its
//! CPU boost or working-memory facts forever.

use qos_core::prelude::*;

/// The management control plane: host managers (10), the domain
/// manager (11) and the policy agent (12).
fn control_ports() -> Vec<Port> {
    vec![HOST_MANAGER_PORT, DOMAIN_MANAGER_PORT, POLICY_AGENT_PORT]
}

/// One full chaos run: build the managed testbed with in-sim policy
/// distribution and a 25 fps stream (Example 1's target), put the
/// client host under load, drop 30% of every control message for the
/// whole run, and crash-and-restart the client's host manager three
/// seconds in — before the adaptation has settled, so the replacement
/// must finish the job from empty state. Returns the converged tail
/// fps, the replacement manager's stats, and run fingerprints for
/// determinism checks.
fn lossy_restart_run(seed: u64, telemetry: &Telemetry) -> (f64, HostMgrStats, u64, FaultStats) {
    let cfg = TestbedConfig {
        seed,
        managed: true,
        // Policies arrive through the (lossy) agent handshake, so the
        // retry/backoff/fallback path is exercised too.
        in_sim_distribution: true,
        stream_fps: 25.0,
        telemetry: telemetry.clone(),
        ..TestbedConfig::default()
    };
    let mut tb = Testbed::build(&cfg);
    tb.world.install_faults(FaultPlan::new().lose(
        Window::always(),
        MsgSelector::ports(control_ports()),
        0.30,
    ));
    spawn_mix(
        &mut tb.world,
        tb.client_host,
        LoadMix {
            hogs: 6,
            fraction: 0.0,
        },
    );
    // Let the disturbance bite and the first violations flow...
    tb.world.run_for(Dur::from_secs(3));
    // ...then the client-side manager crashes mid-adaptation and a fresh
    // one takes over the well-known port with empty state. Heartbeat
    // re-registration repairs the registry; re-reported violations
    // rebuild the allocation from scratch — all under 30% loss.
    tb.restart_host_manager(tb.client_host)
        .expect("managed testbed has a client host manager");
    tb.world.run_for(Dur::from_secs(40));
    // Measure a converged tail window.
    let d0 = tb.displayed(0);
    tb.world.run_for(Dur::from_secs(20));
    let fps = (tb.displayed(0) - d0) as f64 / 20.0;
    let stats = tb
        .client_hm_stats()
        .expect("replacement host manager is alive");
    assert!(
        stats.registrations >= 1,
        "seed {seed}: heartbeats must repair the replacement's registry"
    );
    (
        fps,
        stats,
        tb.world.events_processed(),
        tb.world.fault_stats(),
    )
}

#[test]
fn fps_reconverges_despite_lossy_control_plane_and_hm_restart() {
    for seed in [2102u64, 2103, 2300] {
        // Telemetry rides along on the first seed: the same chaos run
        // must surface its fault drops and manager activity through the
        // metrics registry without perturbing the outcome.
        let t = if seed == 2102 {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        let (fps, stats, _, faults) = lossy_restart_run(seed, &t);
        assert!(
            faults.msgs_dropped > 0,
            "seed {seed}: the loss schedule must actually bite"
        );
        assert!(
            stats.cpu_boosts >= 1,
            "seed {seed}: the replacement manager must have adapted"
        );
        assert!(
            (fps - 25.0).abs() <= 2.0,
            "seed {seed}: tail fps {fps} outside the 25±2 specification"
        );
        if t.is_enabled() {
            // The fault layer's write-only stats are mirrored 1:1 into
            // the registry...
            assert_eq!(
                t.counter_value("sim.fault.msgs_dropped", ""),
                faults.msgs_dropped,
                "seed {seed}: registry must mirror the fault layer's drop count"
            );
            // ...and the crashed manager's work plus its replacement's
            // accumulate under the same labeled series, so the registry
            // is at least the replacement's own count.
            // The client host is the testbed's first host (h0).
            let label = "h0";
            assert!(
                t.counter_value("hm.cpu_boosts", label) >= stats.cpu_boosts,
                "seed {seed}: hm.cpu_boosts must cover the replacement's boosts"
            );
            assert!(
                t.counter_value("hm.violations", label) >= stats.violations,
                "seed {seed}: hm.violations must cover the replacement's reports"
            );
        }
    }
}

#[test]
fn dead_client_is_reaped_and_its_boost_reclaimed() {
    let telemetry = Telemetry::enabled();
    let cfg = TestbedConfig {
        seed: 2200,
        managed: true,
        telemetry: telemetry.clone(),
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
    tb.world.run_for(Dur::from_secs(30));
    let client = tb.clients[0];
    let hm_pid = tb.client_hm.expect("managed testbed");
    {
        let hm: &QosHostManager = tb.world.logic(hm_pid).expect("host manager logic");
        assert!(
            hm.cpu_allocation(client).boost > 0,
            "load must have forced a boost before the crash"
        );
        assert!(hm.is_registered(client));
    }
    tb.world.kill(client);
    // Grace is 4 missed heartbeat periods (2 s each); add sweep slack.
    tb.world.run_for(Dur::from_secs(12));
    let stats = tb.client_hm_stats().expect("managed testbed");
    let hm: &QosHostManager = tb.world.logic(hm_pid).expect("host manager logic");
    assert!(
        stats.deaths >= 1,
        "the liveness sweep must declare the silent client dead"
    );
    assert!(!hm.is_registered(client), "registry entry reclaimed");
    assert_eq!(
        hm.cpu_allocation(client).boost,
        0,
        "the dead client's CPU boost must be reclaimed"
    );
    assert_eq!(
        hm.facts_of("violation"),
        0,
        "no violation facts may leak past the reap"
    );
    if telemetry.is_enabled() {
        assert_eq!(
            telemetry.counter_value("hm.liveness_reaps", "h0"),
            stats.deaths,
            "the write-only death count must be visible in the registry"
        );
    }
}

/// Outcome of one buggify-driven run; coverage is captured before
/// `disable()`, which drops all per-point state.
#[derive(Debug, PartialEq)]
struct BuggifyRun {
    events: u64,
    fired: u64,
    hit: Vec<(String, u64)>,
    seen: Vec<(String, u64)>,
    fps: f64,
}

/// One buggify-driven run: seeded fault points inside the management
/// plane itself (dropped violations, duplicated registrations, deferred
/// and interrupted reaps, lost agent replies, redelivered alarms). The
/// tail fps is measured after chaos is switched off.
fn buggify_run(seed: u64) -> BuggifyRun {
    qos_buggify::enable(seed);
    let cfg = TestbedConfig {
        seed,
        managed: true,
        in_sim_distribution: true,
        stream_fps: 25.0,
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
    tb.world.run_for(Dur::from_secs(30));
    let fired = qos_buggify::fired_total();
    let hit = qos_buggify::points_hit();
    let seen = qos_buggify::points_seen();
    let events_mid = tb.world.events_processed();
    // Chaos off: the plane must converge from whatever state the fault
    // points left behind.
    qos_buggify::disable();
    tb.world.run_for(Dur::from_secs(20));
    let d0 = tb.displayed(0);
    tb.world.run_for(Dur::from_secs(20));
    let fps = (tb.displayed(0) - d0) as f64 / 20.0;
    BuggifyRun {
        events: events_mid,
        fired,
        hit,
        seen,
        fps,
    }
}

#[test]
fn buggify_chaos_recovers_on_three_seeds() {
    if !qos_buggify::compiled_in() {
        return; // release / buggify-off build: the points are no-ops
    }
    for seed in [11u64, 12, 13] {
        let run = buggify_run(seed);
        assert!(
            run.fired > 0,
            "seed {seed}: chaos points must actually fire in a managed run"
        );
        assert!(
            run.hit.len() >= 2,
            "seed {seed}: expected several distinct points to fire, got {:?}",
            run.hit
        );
        assert!(
            run.seen.iter().any(|(n, _)| n.starts_with("hm.")),
            "seed {seed}: host-manager points must be evaluated, saw {:?}",
            run.seen
        );
        assert!(
            (run.fps - 25.0).abs() <= 2.0,
            "seed {seed}: tail fps {} outside 25±2 after chaos ended",
            run.fps
        );
    }
}

#[test]
fn buggify_schedule_replays_deterministically() {
    if !qos_buggify::compiled_in() {
        return;
    }
    let a = buggify_run(11);
    let b = buggify_run(11);
    assert_eq!(a, b, "same buggify seed must replay the same run");
    let c = buggify_run(12);
    assert_ne!(
        (a.events, a.fired, &a.hit),
        (c.events, c.fired, &c.hit),
        "a different buggify seed must draw a different fault schedule"
    );
}

/// Satellite scenario: torn and corrupted frames on a real Unix-domain
/// socket, plus the reconnect storm they trigger. The server drops
/// unreframeable connections (counted in `live.decode_errors`), the
/// client's transport reconnects with capped, seeded backoff (counted
/// in `live.reconnects`), and once chaos stops the violation path
/// works end to end again.
#[test]
fn socket_chaos_torn_frames_reconnect_and_recover() {
    use qos_core::repository::prelude::Registration;
    use std::sync::atomic::Ordering;
    use std::time::{Duration as StdDur, Instant};

    if !qos_buggify::compiled_in() {
        return;
    }
    let t = Telemetry::enabled();
    let path = std::env::temp_dir().join(format!("qos-chaos-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mgr = LiveHostManager::builder()
        .listen(ListenSpec::Sock(SockAddr::Uds(path.clone())))
        .telemetry(&t)
        .spawn()
        .expect("spawn socket manager");
    let addr = mgr.local_addr().expect("bound");

    let (repo, mut agent) = standard_live_repo();
    let sock = SocketTransport::builder(addr)
        .reconnect(ReconnectPolicy::seeded(7))
        .connect_retry(StdDur::from_secs(5))
        .expect("manager reachable");
    let registration = Registration {
        process: "live:chaos".into(),
        executable: "VideoApplication".into(),
        application: "VideoPlayback".into(),
        role: "*".into(),
    };
    let mut p = LiveProcess::start(&registration, &repo, &mut agent, Box::new(sock))
        .expect("manager running");
    p.set_telemetry(&t);
    let base_reconnects = p.reconnects();

    let mk_report = |i: u64| ViolationReport {
        policy: "NotifyQoSViolation".into(),
        process: "live:chaos".into(),
        at_us: i * 1000,
        corr: i,
        readings: vec![("frame_rate".into(), 5.0 + i as f64)],
    };

    // Chaos phase: a high-probability tear/corrupt schedule. Torn frames
    // desynchronise the server's frame buffer; corrupt ones invalidate
    // the header outright. Both end with the server dropping the
    // connection and the client reconnecting through its backoff.
    qos_buggify::enable_with(42, 0.3);
    let deadline = Instant::now() + StdDur::from_secs(30);
    let mut i = 0u64;
    while (mgr.stats.decode_errors.load(Ordering::Relaxed) == 0
        || p.reconnects() == base_reconnects)
        && Instant::now() < deadline
    {
        p.report(mk_report(i));
        i += 1;
        std::thread::sleep(StdDur::from_millis(5));
    }
    qos_buggify::disable();

    let decode_errors = mgr.stats.decode_errors.load(Ordering::Relaxed);
    assert!(
        decode_errors > 0,
        "torn/corrupt frames must surface as decode errors"
    );
    assert!(
        p.reconnects() > base_reconnects,
        "the chaos schedule must force at least one reconnect"
    );

    // Recovery phase: with chaos off, the transport reconnects (backoff
    // is capped, so this is bounded) and the violation path works again.
    let deadline = Instant::now() + StdDur::from_secs(10);
    while !p.sync() {
        assert!(Instant::now() < deadline, "transport never recovered");
        std::thread::sleep(StdDur::from_millis(20));
    }
    let v0 = mgr.stats.violations.load(Ordering::Relaxed);
    p.report(mk_report(10_000));
    assert!(p.sync(), "post-chaos sync barrier");
    assert!(
        mgr.stats.violations.load(Ordering::Relaxed) > v0,
        "a clean violation must reach the manager after recovery"
    );
    if t.is_enabled() {
        // Let reactor turns still reading torn streams finish reporting
        // before comparing the registry mirror to the raw stat.
        std::thread::sleep(StdDur::from_millis(100));
        assert!(mgr.sync());
        assert_eq!(
            t.counter_value("live.decode_errors", "host-manager"),
            mgr.stats.decode_errors.load(Ordering::Relaxed),
            "registry mirrors the manager's decode-error count"
        );
        assert_eq!(
            t.counter_value("live.reconnects", "live:chaos"),
            p.reconnects(),
            "registry mirrors the transport's reconnect count"
        );
    }
    mgr.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn chaos_schedule_is_deterministic() {
    let off = Telemetry::disabled();
    let (fps_a, _, events_a, faults_a) = lossy_restart_run(2300, &off);
    // Observability must not perturb the schedule: an instrumented run
    // is bit-identical to a dark one.
    let (fps_b, _, events_b, faults_b) = lossy_restart_run(2300, &Telemetry::enabled());
    assert_eq!(
        (fps_a, events_a, faults_a),
        (fps_b, events_b, faults_b),
        "same seed, same schedule, same run — telemetry on or off"
    );
    let (_, _, events_c, faults_c) = lossy_restart_run(2301, &off);
    assert_ne!(
        (events_a, faults_a),
        (events_c, faults_c),
        "a different seed must draw a different schedule"
    );
}
