//! The live plane's epoll reactor at its edges: a four-digit peer count
//! served by one reactor thread, with an *exact* message ledger
//! (everything a peer sent or knowingly dropped is accounted for —
//! nothing vanishes untracked); fps-violation recovery under a buggify
//! chaos schedule; a subscriber that never reads, which costs counted
//! telemetry and nothing else; and an in-proc-vs-socket rule-firing
//! trace-equality gate at a smaller peer count.
//!
//! Linux-only: the reactor is raw epoll, and it is what serves every
//! socket peer of a live manager.
#![cfg(target_os = "linux")]

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use qos_core::manager::transport::SockStream;
use qos_core::prelude::*;
use qos_core::repository::agent::Registration;
use qos_telemetry::{Stage, Telemetry};
use qos_wire::messages::{LiveRegisterMsg, LiveViolationMsg, TelemetrySubscribeMsg};
use qos_wire::WireMsg;

/// Concurrent reactor peers in the soak (the acceptance floor is 1000).
const PEERS: usize = 1024;
/// Client threads carrying those peers (each drives PEERS/THREADS
/// connections — the *client* side may multiplex over threads; the
/// point is that the server side must not).
const CLIENT_THREADS: usize = 8;
/// Violation reports per peer. Modest on purpose: the ledger is about
/// exactness under fan-in, not raw throughput (`benchmark/` measures
/// that: `violations_per_s` on `live_storm` and `live_storm_batched`).
const VIOLATIONS_PER_PEER: u64 = 4;

fn temp_sock(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("qos-c10k-{}-{name}.sock", std::process::id()))
}

fn register_frame(process: &str) -> Vec<u8> {
    WireMsg::LiveRegister(LiveRegisterMsg {
        process: process.into(),
    })
    .encode_frame()
}

fn violation_frame(process: &str, corr: u64) -> Vec<u8> {
    WireMsg::LiveViolation(LiveViolationMsg {
        policy: "NotifyQoSViolation".into(),
        process: process.into(),
        at_us: corr,
        corr,
        readings: vec![
            ("frame_rate".into(), 15.0),
            ("buffer_size".into(), 50_000.0),
        ],
    })
    .encode_frame()
}

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    cond()
}

/// The tentpole gate: 1024 simultaneously-connected UDS peers against
/// one reactor-driven manager on one reactor thread, every peer
/// registering and reporting, and the ledger closing exactly —
/// `Σ sent == violations counted`, `Σ sent + Σ dropped == generated`,
/// zero decode errors.
#[test]
fn reactor_holds_1024_uds_peers_with_an_exact_ledger() {
    let path = temp_sock("soak");
    let _ = std::fs::remove_file(&path);
    let mgr = LiveHostManager::builder()
        .listen(ListenSpec::Sock(SockAddr::Uds(path.clone())))
        .spawn()
        .expect("spawn reactor manager");
    let addr = mgr.local_addr().expect("bound");
    let net = mgr.net_stats().expect("reactor manager exposes net stats");

    let sent = Arc::new(AtomicU64::new(0));
    let dropped = Arc::new(AtomicU64::new(0));
    let synced = Arc::new(AtomicU64::new(0));
    // All client threads hold at this barrier with every connection
    // open, so the main thread can observe the full peer count live.
    let connected = Arc::new(Barrier::new(CLIENT_THREADS + 1));
    let verified = Arc::new(Barrier::new(CLIENT_THREADS + 1));

    let per_thread = PEERS / CLIENT_THREADS;
    std::thread::scope(|s| {
        for tid in 0..CLIENT_THREADS {
            let addr = addr.clone();
            let (sent, dropped, synced) =
                (Arc::clone(&sent), Arc::clone(&dropped), Arc::clone(&synced));
            let (connected, verified) = (Arc::clone(&connected), Arc::clone(&verified));
            s.spawn(move || {
                let mut conns = Vec::with_capacity(per_thread);
                for i in 0..per_thread {
                    let name = format!("c10k:{tid}:{i}");
                    let mut tr =
                        SocketTransport::connect_retry(addr.clone(), Duration::from_secs(30))
                            .expect("reactor accepts the peer");
                    if tr.try_send(&register_frame(&name)) {
                        conns.push((name, tr));
                    } else {
                        panic!("registration write refused for {name}");
                    }
                }
                connected.wait();
                verified.wait();
                for (name, tr) in conns.iter_mut() {
                    for k in 0..VIOLATIONS_PER_PEER {
                        if tr.try_send(&violation_frame(name, 0)) {
                            sent.fetch_add(1, Ordering::Relaxed);
                        } else {
                            dropped.fetch_add(1, Ordering::Relaxed);
                            let _ = k;
                        }
                    }
                }
                // Per-peer barrier: the ack proves every frame this peer
                // sent has been *processed* (not merely buffered
                // somewhere between the socket and the rule engine).
                for (_, tr) in conns.iter_mut() {
                    if tr.sync(Duration::from_secs(60)) {
                        synced.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }

        connected.wait();
        // Every peer is connected right now — the reactor must report
        // all of them live on its one thread.
        assert!(
            wait_until(Duration::from_secs(30), || {
                net.peers.load(Ordering::Relaxed) >= PEERS as u64
            }),
            "reactor never reached {PEERS} concurrent peers (at {})",
            net.peers.load(Ordering::Relaxed)
        );
        verified.wait();
    });

    let sent = sent.load(Ordering::Relaxed);
    let dropped = dropped.load(Ordering::Relaxed);
    assert_eq!(
        sent + dropped,
        (PEERS as u64) * VIOLATIONS_PER_PEER,
        "every generated report must be either sent or knowingly dropped"
    );
    assert_eq!(
        synced.load(Ordering::Relaxed),
        PEERS as u64,
        "every peer's sync barrier must ack through the reactor"
    );
    assert_eq!(
        mgr.stats.violations.load(Ordering::Relaxed),
        sent,
        "the manager must count exactly what the peers delivered"
    );
    assert_eq!(
        mgr.stats.registrations.load(Ordering::Relaxed),
        PEERS as u64,
        "every distinct peer registered exactly once"
    );
    assert_eq!(mgr.stats.decode_errors.load(Ordering::Relaxed), 0);
    assert!(mgr.stats.rules_fired.load(Ordering::Relaxed) >= sent);
    assert!(net.accepted.load(Ordering::Relaxed) >= PEERS as u64);
    assert!(net.frames_in.load(Ordering::Relaxed) >= sent + PEERS as u64);
    mgr.shutdown();
    assert!(!path.exists(), "socket file cleaned up on shutdown");
}

/// Chaos gate: with the reactor's own fault points armed (spurious
/// wakeups, accept bursts, `WouldBlock` tears on the write path) plus
/// the client-side write chaos, real fps-instrumented processes must
/// keep reporting — reconnecting as needed — and once client chaos
/// quiets, a full round must land and sync.
#[test]
fn fps_reporting_recovers_under_a_reactor_chaos_schedule() {
    if !qos_buggify::compiled_in() {
        return; // release / buggify-off build: nothing to arm
    }
    // Armed before spawn so the manager thread and the reactor thread
    // both adopt the schedule. The reactor points are lossless
    // perf-chaos, so leaving them armed for the whole test must not cost
    // a single frame.
    qos_buggify::enable_with(0xC10C, 0.2);
    let t = Telemetry::enabled();
    let path = temp_sock("chaos");
    let _ = std::fs::remove_file(&path);
    let mgr = LiveHostManager::builder()
        .listen(ListenSpec::Sock(SockAddr::Uds(path.clone())))
        .telemetry(&t)
        .spawn()
        .expect("spawn reactor manager");
    let addr = mgr.local_addr().expect("bound");

    const CHAOS_PEERS: usize = 8;
    let (repo, mut agent) = standard_live_repo();
    let mut procs = Vec::new();
    for i in 0..CHAOS_PEERS {
        let reg = Registration {
            process: format!("chaos:{i}"),
            executable: "VideoApplication".into(),
            application: "VideoPlayback".into(),
            role: "*".into(),
        };
        let tr = SocketTransport::builder(addr.clone())
            .reconnect(ReconnectPolicy::seeded(i as u64 + 1))
            .connect_retry(Duration::from_secs(10))
            .expect("reactor accepts the peer");
        procs.push(
            LiveProcess::start(&reg, &repo, &mut agent, Box::new(tr))
                .expect("manager reachable through the chaotic reactor"),
        );
    }

    // Chaos phase: drive the fps sensors below spec repeatedly. The
    // client-side tear/corrupt points will wreck some streams; the
    // reactor must drop those connections cleanly (counted) and accept
    // the reconnects, greeting replay included.
    let mut now_us = 0u64;
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut chaos_rounds = 0u32;
    while chaos_rounds < 20 && Instant::now() < deadline {
        now_us += 60_000_000;
        for p in procs.iter_mut() {
            if chaos_rounds == 0 {
                // First round: a real fps collapse through the sensor.
                let fps = p.sensors.fps().unwrap();
                let mut ts = now_us;
                let mut alarms = Vec::new();
                for _ in 0..20 {
                    ts += 200_000;
                    alarms.extend(fps.frame_displayed(ts));
                }
                for a in &alarms {
                    for pix in p.coordinator.on_alarm(a) {
                        if let Some(r) = p.coordinator.execute_actions(pix, &p.sensors, ts) {
                            p.report(r);
                        }
                    }
                }
            } else {
                // Later rounds: re-notification of the standing violation.
                for pix in p.coordinator.poll(now_us) {
                    if let Some(r) = p.coordinator.execute_actions(pix, &p.sensors, now_us) {
                        p.report(r);
                    }
                }
            }
        }
        chaos_rounds += 1;
        std::thread::sleep(Duration::from_millis(10));
    }
    // Quiet the *client-side* chaos (thread-local). The reactor threads
    // stay armed — their points are lossless by contract.
    qos_buggify::disable();

    // Recovery: keep re-notifying until a full round lands and syncs on
    // every peer.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        now_us += 60_000_000;
        let before = mgr.stats.violations.load(Ordering::Relaxed);
        let mut round = 0u64;
        for p in procs.iter_mut() {
            for pix in p.coordinator.poll(now_us) {
                if let Some(r) = p.coordinator.execute_actions(pix, &p.sensors, now_us) {
                    p.report(r);
                    round += 1;
                }
            }
        }
        assert!(round >= 1, "the fps policies must still be in violation");
        if procs.iter_mut().all(|p| p.sync()) {
            // dup-frame chaos in the manager can only inflate the count,
            // never shrink it: a full round is >= what was sent.
            if mgr.stats.violations.load(Ordering::Relaxed) >= before + round {
                break;
            }
        }
        assert!(
            Instant::now() < deadline,
            "fps reporting never recovered after the chaos schedule"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // Greeting replay keeps registration idempotent across every
    // chaos-induced reconnect.
    assert_eq!(
        mgr.stats.registrations.load(Ordering::Relaxed),
        CHAOS_PEERS as u64
    );
    let sent: u64 = procs.iter().map(|p| p.reports_sent()).sum();
    assert!(sent >= 1, "chaos must not have silenced every report");
    // Two of the reactor's three chaos points fired on this schedule
    // (`net.accept.burst` has its own test in `qos-net`'s reactor).
    let net = mgr.net_stats().expect("reactor manager exposes net stats");
    assert!(
        net.spurious.load(Ordering::Relaxed) > 0,
        "net.epoll.spurious never fired"
    );
    assert!(
        net.backpressure_stalls.load(Ordering::Relaxed) > 0,
        "net.write.wouldblock never fired"
    );
    mgr.shutdown();
}

/// Violation reports per round of the stalled-subscriber test, each
/// round closed by a sync.
const STALL_ROUND: usize = 256;
/// Rounds within which the stalled subscriber's telemetry lane must
/// have evicted a batch. The manager publishes once 256 events (64
/// violations' worth) are staged, so a round publishes several batches;
/// the lane holds 64 on top of what the socket buffer takes.
const STALL_MAX_ROUNDS: u64 = 64;
/// Rounds run after the first eviction is counted: the manager must
/// keep pace with the lane saturated.
const STALL_ROUNDS_AFTER_LOSS: u64 = 8;

/// A telemetry subscriber that subscribes and never reads costs
/// counted telemetry and nothing else. The reactor's drop-oldest
/// telemetry lane evicts its oldest batches
/// (`NetStats::telemetry_dropped`) while a peer on the same manager
/// keeps reporting and every round's sync acks. The test's length is
/// bounded by those syncs' timeouts.
#[test]
fn a_subscriber_that_never_reads_cannot_stop_the_manager() {
    let path = temp_sock("stall");
    let _ = std::fs::remove_file(&path);
    let mgr = LiveHostManager::builder()
        .listen(ListenSpec::Sock(SockAddr::Uds(path.clone())))
        .spawn()
        .expect("spawn socket manager");
    let addr = mgr.local_addr().expect("bound");
    let evicted = || {
        mgr.net_stats()
            .map_or(0, |n| n.telemetry_dropped.load(Ordering::Relaxed))
    };
    // Declared after the manager, so a failing assertion closes it
    // first and a manager blocked writing to it can shut down.
    let mut stalled = SockStream::connect(&addr).expect("subscriber dials");
    let subscribe = WireMsg::TelemetrySubscribe(TelemetrySubscribeMsg {
        subscriber: "stalled".into(),
        want_events: true,
        want_metrics: true,
    });
    stalled
        .write_all(&subscribe.encode_frame())
        .expect("subscription written");

    let mut peer = SocketTransport::connect_retry(addr, Duration::from_secs(10))
        .expect("manager accepts the peer");
    assert!(peer.try_send(&register_frame("stall:peer")));
    let mut rounds = 0u64;
    let mut rounds_after_loss = 0u64;
    while rounds_after_loss < STALL_ROUNDS_AFTER_LOSS {
        assert!(
            rounds < STALL_MAX_ROUNDS,
            "no telemetry batch was evicted in {rounds} rounds"
        );
        for _ in 0..STALL_ROUND {
            assert!(peer.try_send(&violation_frame("stall:peer", 0)));
        }
        assert!(
            peer.sync(Duration::from_secs(10)),
            "round {rounds}: the manager stopped acking"
        );
        rounds += 1;
        if evicted() > 0 {
            rounds_after_loss += 1;
        }
    }
    assert_eq!(
        mgr.stats.violations.load(Ordering::Relaxed),
        rounds * STALL_ROUND as u64,
        "every report was handled"
    );
    assert_eq!(
        mgr.stats.subscribers.load(Ordering::Relaxed),
        1,
        "the stalled subscriber stays attached"
    );
    assert!(evicted() > 0, "the reactor counts what it evicted");
    assert_eq!(
        mgr.stats.telemetry_dropped.load(Ordering::Relaxed),
        0,
        "a socket subscriber's loss is the reactor's to count"
    );
    drop(stalled);
    mgr.shutdown();
}

/// How the trace workload's peers reach the manager.
#[derive(Clone, Copy)]
enum Carrier {
    /// `LiveHostManager::connect`: frames on the manager's queue.
    InProc,
    /// `SocketTransport` over UDS, through the reactor.
    Socket,
}

/// Run `peers` peers over `carrier` through an identical serialized
/// workload and capture the rule-firing trace: (violations, rules
/// fired, sorted per-correlation lifecycle stage chains).
fn run_trace(carrier: Carrier, peers: usize) -> (u64, u64, Vec<(String, Vec<Stage>)>) {
    let t = Telemetry::enabled();
    let path = temp_sock("trace");
    let _ = std::fs::remove_file(&path);
    let listen = match carrier {
        Carrier::InProc => ListenSpec::InProc,
        Carrier::Socket => ListenSpec::Sock(SockAddr::Uds(path.clone())),
    };
    let mgr = LiveHostManager::builder()
        .listen(listen)
        .telemetry(&t)
        .spawn()
        .expect("spawn manager");

    let mut conns: Vec<(String, Box<dyn WireTransport>)> = (0..peers)
        .map(|i| {
            let name = format!("trace:{i}");
            let mut tr: Box<dyn WireTransport> = match carrier {
                Carrier::InProc => mgr.connect(),
                Carrier::Socket => Box::new(
                    SocketTransport::connect_retry(
                        mgr.local_addr().expect("bound"),
                        Duration::from_secs(10),
                    )
                    .expect("manager accepts the peer"),
                ),
            };
            assert!(tr.try_send(&register_frame(&name)));
            (name, tr)
        })
        .collect();
    // Serialize the workload peer-by-peer (sync between peers), so both
    // carriers present the manager the exact same total order — the
    // equality gate is about the *carriers*, not about scheduling luck.
    for (i, (name, tr)) in conns.iter_mut().enumerate() {
        for k in 0..3u64 {
            let corr = (i as u64) * 8 + k + 1;
            assert!(tr.try_send(&violation_frame(name, corr)));
        }
        assert!(tr.sync(Duration::from_secs(30)), "per-peer barrier");
    }

    let violations = mgr.stats.violations.load(Ordering::Relaxed);
    let fired = mgr.stats.rules_fired.load(Ordering::Relaxed);
    let mut chains: Vec<(String, Vec<Stage>)> = t
        .lifecycles()
        .iter()
        .map(|lc| {
            (
                lc.policy.clone(),
                lc.stages.iter().map(|&(s, _)| s).collect(),
            )
        })
        .collect();
    chains.sort();
    mgr.shutdown();
    (violations, fired, chains)
}

/// The socket pump changes how frames reach the manager, not what the
/// manager decides: at equal workloads the in-proc channel and the
/// reactor-served socket produce identical traces, stage for stage.
#[test]
fn in_proc_and_socket_carriers_produce_identical_traces() {
    let in_proc = run_trace(Carrier::InProc, 16);
    let socket = run_trace(Carrier::Socket, 16);
    assert_eq!(in_proc.0, socket.0, "violation counts diverged");
    assert_eq!(in_proc.1, socket.1, "rule firings diverged");
    assert_eq!(in_proc.2, socket.2, "lifecycle chains diverged");
    if Telemetry::enabled().is_enabled() {
        assert!(!socket.2.is_empty(), "lifecycles must be observed");
    }
}
