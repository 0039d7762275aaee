//! Batching under faults: report batch frames must survive split
//! writes, torn streams, and manager restarts without losing or
//! double-counting violations — and a batched run must produce exactly
//! the lifecycle chains an unbatched run does.
//!
//! Report batching (`ReportBatchPolicy`) is the client's one coalescing
//! layer: the socket transport writes each batch frame in the
//! `try_send` call that hands it over, so a batch lost to a dead
//! manager is counted as dropped, never as sent.
//!
//! These drive the real `LiveProcess` / `LiveHostManager` pair (threads
//! and sockets, no simulator) with the transport-layer chaos points
//! (`sock.write.split_batch`, `sock.write.tear`) armed deterministically
//! via `qos_buggify::force` — no background dice.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use qos_manager::prelude::*;
use qos_repository::prelude::Registration;
use qos_telemetry::{Stage, Telemetry};

fn registration(process: &str) -> Registration {
    Registration {
        process: process.into(),
        executable: "VideoApplication".into(),
        application: "VideoPlayback".into(),
        role: "*".into(),
    }
}

/// Drive the fps sensor below spec with manual timestamps (frames
/// 200 ms apart → 5 fps) and push every resulting report. Returns the
/// number of reports generated.
fn force_violation_reports(p: &mut LiveProcess) -> usize {
    let fps = p.sensors.fps().unwrap();
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

/// One re-notification round for the policies `force_violation_reports`
/// left in violation: advance the manual clock past the re-notify
/// interval and push the resulting reports. (The alarm path is
/// edge-triggered, so repeated rounds must come from `poll`, not from
/// replaying the same fps collapse.)
fn renotify_round(p: &mut LiveProcess, now_us: &mut u64) -> usize {
    *now_us += 60_000_000; // comfortably past any re-notify interval
    let mut generated = 0;
    for pix in p.coordinator.poll(*now_us) {
        if let Some(r) = p.coordinator.execute_actions(pix, &p.sensors, *now_us) {
            p.report(r);
            generated += 1;
        }
    }
    generated
}

fn temp_sock(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("qos-batch-{}-{name}.sock", std::process::id()))
}

/// Every socket write split in two by chaos, the report batch frame
/// included: the peer's FrameBuffer must reassemble across the write
/// boundary, so nothing is lost and nothing is counted twice.
#[test]
fn split_writes_deliver_every_batched_report_exactly_once() {
    if !qos_buggify::compiled_in() {
        return; // release / buggify-off build: no chaos points to arm
    }
    let path = temp_sock("split");
    let mgr = LiveHostManager::builder()
        .listen(ListenSpec::Sock(SockAddr::Uds(path.clone())))
        .spawn()
        .expect("spawn socket manager");
    let addr = mgr.local_addr().expect("bound");

    let (repo, mut agent) = standard_live_repo();
    let sock = SocketTransport::builder(addr)
        .connect_retry(Duration::from_secs(5))
        .unwrap();
    let mut p = LiveProcess::start(&registration("live:p1"), &repo, &mut agent, Box::new(sock))
        .expect("manager reachable");
    p.enable_report_batching(ReportBatchPolicy {
        max_msgs: 1024,
        max_delay: Duration::from_secs(60),
    });

    // Split every multi-byte write from here on.
    qos_buggify::force("sock.write.split_batch", 1_000);
    let generated = force_violation_reports(&mut p) as u64;
    assert!(generated >= 1);
    assert!(p.sync(), "sync barrier through split writes");
    qos_buggify::clear("sock.write.split_batch");

    assert_eq!(p.reports_sent(), generated);
    assert_eq!(p.reports_dropped(), 0);
    assert_eq!(mgr.stats.violations.load(Ordering::Relaxed), generated);
    assert_eq!(mgr.stats.decode_errors.load(Ordering::Relaxed), 0);
    assert!(mgr.stats.rules_fired.load(Ordering::Relaxed) >= 1);
    mgr.shutdown();
}

/// A torn write (process preempted mid-write, connection stays up)
/// corrupts the stream: the manager must drop the connection and count
/// it, the process must reconnect and re-register, and reports sent
/// after recovery must be counted exactly once.
#[test]
fn torn_batch_write_recovers_without_double_counting() {
    if !qos_buggify::compiled_in() {
        return;
    }
    let path = temp_sock("tear");
    let mgr = LiveHostManager::builder()
        .listen(ListenSpec::Sock(SockAddr::Uds(path.clone())))
        .spawn()
        .expect("spawn socket manager");
    let addr = mgr.local_addr().expect("bound");

    let (repo, mut agent) = standard_live_repo();
    let sock = SocketTransport::builder(addr)
        .reconnect(ReconnectPolicy::seeded(7))
        .connect_retry(Duration::from_secs(5))
        .unwrap();
    let mut p = LiveProcess::start(&registration("live:p1"), &repo, &mut agent, Box::new(sock))
        .expect("manager reachable");
    p.enable_report_batching(ReportBatchPolicy {
        max_msgs: 1024,
        max_delay: Duration::from_secs(60),
    });

    // Exactly one torn write: the next batch frame loses its tail,
    // leaving a partial frame on the manager's stream. The write
    // "succeeds" client-side (the tear models a crash the sender never
    // observes); the corruption only becomes visible to the manager once
    // later bytes land behind the torn frame and misalign the stream.
    qos_buggify::force("sock.write.tear", 1);
    let torn = force_violation_reports(&mut p) as u64;
    assert!(torn >= 1);
    let _ = p.sync();
    qos_buggify::clear("sock.write.tear");

    // Recovery: keep sending re-notification rounds — the first ones
    // complete the torn frame with garbage (decode error, possibly a
    // dropped connection), then the transport reconnects with the
    // greeting replayed and a round lands in full.
    let mut now_us = 4_000_000u64;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let before = mgr.stats.violations.load(Ordering::Relaxed);
        let round = renotify_round(&mut p, &mut now_us) as u64;
        assert!(round >= 1, "the fps policy must still be in violation");
        if p.sync() {
            let now = mgr.stats.violations.load(Ordering::Relaxed);
            if now == before + round {
                break;
            }
        }
        assert!(Instant::now() < deadline, "reconnect never recovered");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        mgr.stats.decode_errors.load(Ordering::Relaxed) >= 1,
        "the torn stream must be detected and counted"
    );
    // Idempotent re-registration after the greeting replay.
    assert_eq!(mgr.stats.registrations.load(Ordering::Relaxed), 1);
    // Ledger: everything the process thinks it sent or dropped accounts
    // for everything generated — nothing vanishes untracked.
    assert!(mgr.stats.violations.load(Ordering::Relaxed) <= p.reports_sent());
    mgr.shutdown();
}

/// Kill the manager mid-stream and restart it on the same socket path:
/// the batching process must reconnect, re-register once, and
/// the combined ledger (old manager + new manager + dropped) must cover
/// every generated report with none counted twice.
#[test]
fn manager_restart_preserves_the_batched_report_ledger() {
    let path = temp_sock("restart");
    let mgr1 = LiveHostManager::builder()
        .listen(ListenSpec::Sock(SockAddr::Uds(path.clone())))
        .spawn()
        .expect("spawn socket manager");
    let addr = mgr1.local_addr().expect("bound");

    let (repo, mut agent) = standard_live_repo();
    let sock = SocketTransport::builder(addr.clone())
        .reconnect(ReconnectPolicy::seeded(11))
        .connect_retry(Duration::from_secs(5))
        .unwrap();
    let mut p = LiveProcess::start(&registration("live:p1"), &repo, &mut agent, Box::new(sock))
        .expect("manager reachable");
    p.enable_report_batching(ReportBatchPolicy {
        max_msgs: 1024,
        max_delay: Duration::from_secs(60),
    });

    let mut generated = force_violation_reports(&mut p) as u64;
    assert!(p.sync());
    let mgr1_violations = mgr1.stats.violations.load(Ordering::Relaxed);
    assert_eq!(mgr1_violations, generated);
    mgr1.shutdown();

    // Manager gone: the round's batch frame fails to write and its
    // reports count as dropped, not as sent, and nothing hangs.
    let sent_before_outage = p.reports_sent();
    let mut now_us = 4_000_000u64;
    generated += renotify_round(&mut p, &mut now_us) as u64;
    let _ = p.sync();
    assert!(
        p.reports_dropped() >= 1,
        "a batch lost to a dead manager must count as dropped"
    );
    assert_eq!(
        p.reports_sent(),
        sent_before_outage,
        "a batch lost to a dead manager must not count as sent"
    );

    let mgr2 = LiveHostManager::builder()
        .listen(ListenSpec::Sock(SockAddr::Uds(path)))
        .spawn()
        .expect("respawn on the same path");
    // Reconnect happens inside try_send after backoff; keep generating
    // rounds until one lands in full on the new manager.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let before = mgr2.stats.violations.load(Ordering::Relaxed);
        let round = renotify_round(&mut p, &mut now_us) as u64;
        assert!(round >= 1, "the fps policy must still be in violation");
        generated += round;
        if p.sync() {
            let now = mgr2.stats.violations.load(Ordering::Relaxed);
            if now == before + round {
                break;
            }
        }
        assert!(Instant::now() < deadline, "restart recovery never landed");
        std::thread::sleep(Duration::from_millis(20));
    }
    // Greeting replay re-registers exactly once on the new manager.
    assert_eq!(mgr2.stats.registrations.load(Ordering::Relaxed), 1);
    // Client-side ledger is exact: every report was either sent or
    // knowingly dropped.
    assert_eq!(p.reports_sent() + p.reports_dropped(), generated);
    // Neither manager counted anything the process never sent.
    let counted = mgr1_violations + mgr2.stats.violations.load(Ordering::Relaxed);
    assert!(counted <= p.reports_sent(), "double-counted violations");
    mgr2.shutdown();
}

/// Lifecycle chains per correlation id for a run, as ordered stage
/// sequences (timestamps are wall-clock and excluded), sorted for
/// set-wise comparison.
fn run_lifecycles(batched: bool) -> (u64, u64, Vec<(String, Vec<Stage>)>) {
    let (repo, mut agent) = standard_live_repo();
    let t = Telemetry::enabled();
    let mgr = LiveHostManager::builder().telemetry(&t).spawn().unwrap();
    let mut p = LiveProcess::start(&registration("live:p1"), &repo, &mut agent, mgr.connect())
        .expect("manager running");
    if batched {
        p.enable_report_batching(ReportBatchPolicy {
            max_msgs: 1024,
            max_delay: Duration::from_secs(60),
        });
    }
    let generated = force_violation_reports(&mut p) as u64;
    assert!(generated >= 1);
    assert!(p.sync());
    assert!(mgr.sync());
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

/// The acceptance gate: a batched run is indistinguishable from an
/// unbatched one — same violations, same rule firings, same lifecycle
/// chains stage for stage.
#[test]
fn batched_and_unbatched_runs_produce_identical_lifecycles() {
    let unbatched = run_lifecycles(false);
    let batched = run_lifecycles(true);
    assert_eq!(unbatched.0, batched.0, "violation counts diverged");
    assert_eq!(unbatched.1, batched.1, "rule firings diverged");
    assert_eq!(unbatched.2, batched.2, "lifecycle chains diverged");
    if Telemetry::enabled().is_enabled() {
        assert!(!batched.2.is_empty(), "lifecycles must be observed");
    }
}
