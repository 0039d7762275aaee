//! Two-OS-process cockpit smoke test: a live manager in this process,
//! real `qosctl record` and `qosctl tail` child processes subscribed
//! over a Unix-domain socket. The acceptance bar is end-to-end fidelity:
//! the lifecycle table replayed from the recording and the one rebuilt
//! from `tail --jsonl` output must be identical to each other — and,
//! when telemetry is compiled in, to the manager's own local telemetry.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use qos_core::prelude::*;
use qos_core::repository::prelude::Registration;

/// How long the children stay subscribed. Long enough for several
/// publish ticks (100 ms cadence) and at least one metrics snapshot
/// (500 ms cadence) after the violations land.
const WINDOW_MS: u64 = 4_000;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qosctl-smoke-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Drive the fps sensor below its 23 fps floor with manual timestamps
/// (frames 200 ms apart => 5 fps) and push the resulting violation
/// reports at the manager.
fn force_violations(p: &mut LiveProcess) -> usize {
    let fps = p.sensors.fps().expect("video pipeline has an fps sensor");
    let mut now = 0u64;
    let mut alarms = Vec::new();
    for _ in 0..20 {
        now += 200_000;
        alarms.extend(fps.frame_displayed(now));
    }
    let mut generated = 0;
    for a in &alarms {
        for pix in p.coordinator.on_alarm(a) {
            if let Some(r) = p.coordinator.execute_actions(pix, &p.sensors, now) {
                p.report(r);
                generated += 1;
            }
        }
    }
    generated
}

#[test]
fn record_tail_replay_see_the_same_lifecycles() {
    let dir = scratch_dir("roundtrip");
    let sock = dir.join("mgr.sock");
    let rec_dir = dir.join("rec");
    let addr_arg = format!("uds:{}", sock.display());

    let t = Telemetry::enabled();
    let mgr = LiveHostManager::builder()
        .listen(ListenSpec::Sock(SockAddr::Uds(sock.clone())))
        .telemetry(&t)
        .spawn()
        .expect("spawn UDS manager");

    // Real OS-process cockpit children, one recording and one tailing.
    let bin = env!("CARGO_BIN_EXE_qosctl");
    let for_ms = format!("{WINDOW_MS}");
    let mut rec_child = Command::new(bin)
        .args([
            "record",
            "--addr",
            &addr_arg,
            "--out",
            &rec_dir.display().to_string(),
            "--for-ms",
            &for_ms,
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn qosctl record");
    let tail_child = Command::new(bin)
        .args(["tail", "--addr", &addr_arg, "--for-ms", &for_ms, "--jsonl"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn qosctl tail");

    // Both children must be subscribed before any violation fires, so
    // each observes the complete event stream.
    let deadline = Instant::now() + Duration::from_secs(10);
    while mgr.stats.subscribers.load(Ordering::Relaxed) < 2 {
        assert!(
            Instant::now() < deadline,
            "children never subscribed (subscribers={})",
            mgr.stats.subscribers.load(Ordering::Relaxed)
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // A managed process connects over the same socket and misbehaves.
    let (repo, mut agent) = standard_live_repo();
    let transport =
        SocketTransport::connect_retry(SockAddr::Uds(sock.clone()), Duration::from_secs(5))
            .expect("connect managed process");
    let registration = Registration {
        process: "smoke:p1".into(),
        executable: "VideoApplication".into(),
        application: "VideoPlayback".into(),
        role: "*".into(),
    };
    let mut p = LiveProcess::start(&registration, &repo, &mut agent, Box::new(transport))
        .expect("manager reachable over UDS");
    assert!(force_violations(&mut p) >= 1, "no violation generated");
    assert!(p.sync(), "manager drains the violation reports");

    let rec_out = rec_child.wait().expect("record child exits");
    let tail_out = tail_child
        .wait_with_output()
        .expect("tail child exits with output");
    assert!(rec_out.success(), "qosctl record failed");
    assert!(
        tail_out.status.success(),
        "qosctl tail failed: {}",
        String::from_utf8_lossy(&tail_out.stderr)
    );
    mgr.shutdown();

    // Rebuild the lifecycle view from each of the three vantage points.
    let tail_events =
        parse_jsonl(&String::from_utf8_lossy(&tail_out.stdout)).expect("tail emits valid JSONL");
    assert!(
        tail_events.iter().any(|e| e.stage == Stage::Detect),
        "tail never observed a Detect event"
    );
    let recording = read_recording_dir(&rec_dir, "qosctl").expect("read recording");
    assert!(!recording.truncated, "clean shutdown leaves no torn tail");
    assert!(recording.corrupt.is_none(), "recording must decode cleanly");
    assert!(
        recording.last_snapshot().is_some(),
        "recording must carry at least one metrics snapshot"
    );

    let tail_table = lifecycle_table(&reconstruct(&tail_events));
    let replay_table = lifecycle_table(&recording.lifecycles());
    assert!(tail_table.contains("MTTR"));
    assert_eq!(
        tail_table, replay_table,
        "replayed recording must reproduce the tailed per-stage stats"
    );

    // With telemetry compiled in, the manager's own local trace agrees
    // bit-for-bit with what the remote cockpit saw.
    if t.is_enabled() {
        let mgr_table = lifecycle_table(&t.lifecycles());
        assert_eq!(
            mgr_table, tail_table,
            "cockpit view must match the manager's local telemetry"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_renders_lifecycle_table_from_recording() {
    let dir = scratch_dir("report");
    let rec_path = dir.join("ring.qrec");

    // Synthesize a complete lifecycle straight into a ring recorder and
    // dump it — `qosctl report` must render per-stage stats from it.
    let rec = FlightRecorder::new(1 << 20);
    let mk = |at_us: u64, stage: Stage| TraceEvent {
        at_us,
        corr: 42,
        stage,
        component: "hm:h0".into(),
        name: "example1".into(),
        fields: Fields::new(),
    };
    rec.record_event(&mk(0, Stage::Detect));
    rec.record_event(&mk(120, Stage::Report));
    rec.record_event(&mk(300, Stage::Diagnose));
    rec.record_event(&mk(340, Stage::Adapt));
    rec.record_event(&mk(5_340, Stage::BackInSpec));
    rec.record_snapshot(6_000, &[]);
    rec.dump(&rec_path).expect("dump ring");

    let out = Command::new(env!("CARGO_BIN_EXE_qosctl"))
        .args(["report", "--in", &rec_path.display().to_string()])
        .output()
        .expect("run qosctl report");
    assert!(out.status.success(), "qosctl report failed");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("violation lifecycles"));
    assert!(text.contains("MTTR"));
    assert!(text.contains("1 completed, 0 still open"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn domains_renders_federation_tree_from_discovery_gauges() {
    if !Telemetry::enabled().is_enabled() {
        return; // probe-free build: no gauges to render
    }
    let dir = scratch_dir("domains");
    let sock = dir.join("mgr.sock");
    let addr_arg = format!("uds:{}", sock.display());

    // A live manager publishes the stream; a discovery core sharing its
    // telemetry handle mirrors the federation gauges into it — the same
    // wiring the simulated testbed and the socket daemon use.
    let t = Telemetry::enabled();
    let mgr = LiveHostManager::builder()
        .listen(ListenSpec::Sock(SockAddr::Uds(sock.clone())))
        .telemetry(&t)
        .spawn()
        .expect("spawn UDS manager");
    let mut core = DiscoveryCore::new(Dur::from_secs(4)).with_telemetry(&t);
    use qos_core::wire::messages::{DiscAnnounceMsg, DiscDomainRegisterMsg};
    let reg = |domain: u32, parent: Option<u32>| DiscDomainRegisterMsg {
        domain: DomainId(domain),
        manager: Endpoint::new(HostId(100 + domain), DOMAIN_MANAGER_PORT),
        parent: parent.map(DomainId),
    };
    core.on_domain_register(reg(0, None));
    core.on_domain_register(reg(1, Some(0)));
    core.on_domain_register(reg(2, Some(0)));
    for h in 1..=4u32 {
        core.on_announce(
            0,
            DiscAnnounceMsg {
                host: HostId(h),
                manager: Endpoint::new(HostId(h), HOST_MANAGER_PORT),
                epoch: 1,
            },
        );
    }

    let out = Command::new(env!("CARGO_BIN_EXE_qosctl"))
        .args(["domains", "--addr", &addr_arg])
        .output()
        .expect("run qosctl domains");
    drop(mgr);
    assert!(
        out.status.success(),
        "qosctl domains failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("d0 [root]"), "root rendered:\n{text}");
    assert!(text.contains("d1"), "leaf d1 rendered:\n{text}");
    assert!(text.contains("d2"), "leaf d2 rendered:\n{text}");
    // The four announced hosts partition across the two leaves; each
    // leaf line carries its shard count and the counts sum to 4.
    let shard_total: u32 = text
        .lines()
        .filter(|l| {
            let lt = l.trim_start();
            lt.starts_with("d1 ") || lt.starts_with("d2 ")
        })
        .filter_map(|l| {
            l.split("— ")
                .nth(1)?
                .split_whitespace()
                .next()?
                .parse::<u32>()
                .ok()
        })
        .sum();
    assert_eq!(
        shard_total, 4,
        "leaf shard counts sum to the host count:\n{text}"
    );
    assert!(
        text.contains("disc.assignments"),
        "discovery counters listed:\n{text}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hosts_lists_reactor_counters_beside_manager_counters() {
    if !Telemetry::enabled().is_enabled() {
        return; // probe-free build: no counters to list
    }
    let dir = scratch_dir("hosts");
    let sock = dir.join("mgr.sock");
    let addr_arg = format!("uds:{}", sock.display());

    let t = Telemetry::enabled();
    let mgr = LiveHostManager::builder()
        .listen(ListenSpec::Sock(SockAddr::Uds(sock.clone())))
        .telemetry(&t)
        .spawn()
        .expect("spawn UDS manager");
    let (repo, mut agent) = standard_live_repo();
    let transport =
        SocketTransport::connect_retry(SockAddr::Uds(sock.clone()), Duration::from_secs(5))
            .expect("connect managed process");
    let registration = Registration {
        process: "smoke:hosts".into(),
        executable: "VideoApplication".into(),
        application: "VideoPlayback".into(),
        role: "*".into(),
    };
    let mut p = LiveProcess::start(&registration, &repo, &mut agent, Box::new(transport))
        .expect("manager reachable over UDS");
    assert!(p.sync(), "registration processed");

    let out = Command::new(env!("CARGO_BIN_EXE_qosctl"))
        .args(["hosts", "--addr", &addr_arg])
        .output()
        .expect("run qosctl hosts");
    drop(p);
    mgr.shutdown();
    assert!(
        out.status.success(),
        "qosctl hosts failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("smoke:hosts"), "process listed:\n{text}");
    // A socket subscriber's evictions are counted only by the reactor.
    assert!(
        text.contains("net.telemetry_dropped"),
        "reactor counters listed:\n{text}"
    );
    assert!(text.contains("live."), "manager counters listed:\n{text}");
    let _ = std::fs::remove_dir_all(&dir);
}
