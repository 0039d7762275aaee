//! Live mode across real OS process boundaries: an instrumented process
//! in a *child process* talks to a `LiveHostManager` in this process over
//! a Unix-domain socket, reproducing the Section 7 overhead shape
//! (initialisation + registration is orders of magnitude more expensive
//! than a steady-state instrumentation pass) and surviving manager death
//! and restart via the transport's reconnect-with-greeting machinery.
//!
//! The child is this same test binary re-executed with `--exact
//! child_entry` and `SOCKQOS_CHILD` set; it prints `CHILD key value`
//! lines that the parent parses.

use std::io::Write as _;
use std::process::{Command, Stdio};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use qos_core::prelude::*;
use qos_core::repository::agent::Registration;

fn temp_sock(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("qos-sl-{}-{name}.sock", std::process::id()))
}

fn child_command(mode: &str, addr: &std::path::Path) -> Command {
    let mut cmd = Command::new(std::env::current_exe().expect("test binary path"));
    cmd.args(["child_entry", "--exact", "--nocapture"])
        .env("SOCKQOS_CHILD", mode)
        .env("SOCKQOS_ADDR", addr)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    cmd
}

/// Parse `CHILD key value` lines out of the child's (libtest-framed)
/// stdout. libtest prints `test child_entry ... ` without a trailing
/// newline, so the first marker can share its line with that prefix —
/// search for the marker anywhere in the line, not just at the start.
fn child_values(stdout: &[u8]) -> std::collections::HashMap<String, f64> {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter_map(|l| {
            let rest = &l[l.find("CHILD ")? + "CHILD ".len()..];
            let (k, v) = rest.split_once(' ')?;
            Some((k.to_string(), v.trim().parse().ok()?))
        })
        .collect()
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

/// Child-process entry point. A no-op under the normal test run; the
/// real work happens only when the parent re-executes the binary with
/// `SOCKQOS_CHILD` set.
#[test]
fn child_entry() {
    let Ok(mode) = std::env::var("SOCKQOS_CHILD") else {
        return;
    };
    let addr = SockAddr::Uds(
        std::env::var("SOCKQOS_ADDR")
            .expect("child needs an address")
            .into(),
    );
    let (repo, mut agent) = standard_live_repo();
    match mode.as_str() {
        "overhead" => {
            // E2 shape: full initialisation (agent registration, policy
            // load, sensor config, manager announce) per process.
            let iters = 30u32;
            let t0 = Instant::now();
            let mut procs = Vec::new();
            for i in 0..iters {
                let reg = Registration {
                    process: format!("sock:{i}"),
                    executable: "VideoApplication".into(),
                    application: "VideoPlayback".into(),
                    role: "*".into(),
                };
                let t = SocketTransport::connect_retry(addr.clone(), Duration::from_secs(5))
                    .expect("manager listening");
                procs.push(
                    LiveProcess::start(&reg, &repo, &mut agent, Box::new(t))
                        .expect("manager reachable"),
                );
            }
            let init_us = t0.elapsed().as_micros() as f64 / iters as f64;

            // E3 shape: steady-state instrumentation pass, QoS met.
            let p = procs.last_mut().expect("at least one process");
            let passes = 100_000u64;
            let t0 = Instant::now();
            let mut sent = 0usize;
            for i in 0..passes {
                sent += p.buffer_pass(100 + (i & 0xff));
            }
            let pass_us = t0.elapsed().as_micros() as f64 / passes as f64;
            assert_eq!(sent, 0, "happy path must not notify");

            // A handful of real violations, then a barrier so the parent
            // sees them the moment we exit.
            for k in 0..5 {
                p.report(ViolationReport {
                    policy: "NotifyQoSViolation".into(),
                    process: "sock:last".into(),
                    at_us: k,
                    corr: 0,
                    readings: vec![
                        ("frame_rate".into(), 15.0),
                        ("buffer_size".into(), 50_000.0),
                    ],
                });
            }
            assert!(p.sync(), "manager must ack the barrier over the socket");
            let mut out = std::io::stdout().lock();
            writeln!(out, "CHILD init_us {init_us}").unwrap();
            writeln!(out, "CHILD pass_us {pass_us}").unwrap();
            writeln!(out, "CHILD sent {}", p.reports_sent()).unwrap();
        }
        "reconnect" => {
            let reg = Registration {
                process: "sock:reconnect".into(),
                executable: "VideoApplication".into(),
                application: "VideoPlayback".into(),
                role: "*".into(),
            };
            let t = SocketTransport::connect_retry(addr, Duration::from_secs(5))
                .expect("manager listening");
            let mut p = LiveProcess::start(&reg, &repo, &mut agent, Box::new(t))
                .expect("manager reachable");
            let report = |k: u64| ViolationReport {
                policy: "NotifyQoSViolation".into(),
                process: "sock:reconnect".into(),
                at_us: k,
                corr: 0,
                readings: vec![
                    ("frame_rate".into(), 15.0),
                    ("buffer_size".into(), 50_000.0),
                ],
            };
            p.report(report(0));
            assert!(p.sync(), "first manager acks");
            println!("CHILD phase1 1");
            // Keep reporting while the parent kills and restarts the
            // manager: some reports drop into the void, then the
            // transport reconnects (replaying the registration greeting)
            // and delivery resumes. Stop once a post-drop sync succeeds.
            let mut recovered = false;
            for k in 1..200u64 {
                p.report(report(k));
                if p.reports_dropped() > 0 && p.sync() {
                    recovered = true;
                    break;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            assert!(recovered, "transport must reconnect to the new manager");
            println!("CHILD dropped {}", p.reports_dropped());
            println!("CHILD sent {}", p.reports_sent());
        }
        other => panic!("unknown child mode {other:?}"),
    }
}

#[test]
fn overhead_shape_reproduces_across_os_processes() {
    let path = temp_sock("overhead");
    let _ = std::fs::remove_file(&path);
    let mgr = LiveHostManager::builder()
        .listen(ListenSpec::Sock(SockAddr::Uds(path.clone())))
        .spawn()
        .expect("bind UDS listener");

    let out = child_command("overhead", &path)
        .output()
        .expect("run child process");
    assert!(
        out.status.success(),
        "child failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let vals = child_values(&out.stdout);
    let init_us = vals["init_us"];
    let pass_us = vals["pass_us"];
    let sent = vals["sent"] as u64;

    // The child synced before exiting, so the manager has seen
    // everything; registrations may still need the last reactor turn to
    // drain, hence the short poll.
    assert!(
        wait_until(Duration::from_secs(5), || {
            mgr.stats.registrations.load(Ordering::Relaxed) == 30
        }),
        "all 30 child processes registered over the socket: {}",
        mgr.stats.registrations.load(Ordering::Relaxed)
    );
    assert_eq!(mgr.stats.violations.load(Ordering::Relaxed), sent);
    assert!(sent >= 5, "child delivered its violations: {sent}");
    assert_eq!(mgr.stats.decode_errors.load(Ordering::Relaxed), 0);

    let mut t = Table::new(&[
        "measurement",
        "paper (UltraSparc, 2000)",
        "measured (2 OS processes, UDS)",
    ]);
    t.row(&[
        "init + registration".into(),
        "~400 us".into(),
        format!("{init_us:.1} us"),
    ]);
    t.row(&[
        "instrumentation pass (QoS met)".into(),
        "~11 us".into(),
        format!("{pass_us:.3} us"),
    ]);
    println!("Section 7 overhead shape, manager and process in separate OS processes");
    println!("{}", t.render());
    // The paper's qualitative shape: initialisation dwarfs a steady-state
    // pass (~36x there). Socket registration adds a round trip, so only
    // the ordering is asserted, not the ratio.
    assert!(
        init_us > pass_us * 5.0,
        "init ({init_us:.1} us) must dominate a pass ({pass_us:.3} us)"
    );
    mgr.shutdown();
}

#[test]
fn manager_death_and_restart_is_survived_across_os_processes() {
    let path = temp_sock("reconnect");
    let _ = std::fs::remove_file(&path);
    let mgr1 = LiveHostManager::builder()
        .listen(ListenSpec::Sock(SockAddr::Uds(path.clone())))
        .spawn()
        .expect("bind UDS listener");

    let child = child_command("reconnect", &path)
        .spawn()
        .expect("spawn child process");

    // Phase 1: the child registered and delivered through manager #1.
    assert!(
        wait_until(Duration::from_secs(10), || {
            mgr1.stats.violations.load(Ordering::Relaxed) >= 1
        }),
        "first manager receives the child's violation"
    );
    assert_eq!(mgr1.stats.registrations.load(Ordering::Relaxed), 1);

    // Kill the manager process-side: listener, reactor and manager
    // thread all go away; the UDS file is removed.
    mgr1.shutdown();
    std::thread::sleep(Duration::from_millis(300));

    // Restart on the same address. The child's transport reconnects with
    // backoff and replays its registration greeting, so the fresh
    // manager re-learns the process without any help.
    let mgr2 = LiveHostManager::builder()
        .listen(ListenSpec::Sock(SockAddr::Uds(path.clone())))
        .spawn()
        .expect("rebind UDS listener");
    assert!(
        wait_until(Duration::from_secs(20), || {
            mgr2.stats.registrations.load(Ordering::Relaxed) >= 1
                && mgr2.stats.violations.load(Ordering::Relaxed) >= 1
        }),
        "restarted manager re-learns the process from the replayed greeting \
         (reg {} viol {})",
        mgr2.stats.registrations.load(Ordering::Relaxed),
        mgr2.stats.violations.load(Ordering::Relaxed)
    );

    let out = child.wait_with_output().expect("child exit");
    assert!(
        out.status.success(),
        "child failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let vals = child_values(&out.stdout);
    assert!(
        vals["dropped"] >= 1.0,
        "the outage must have cost something"
    );
    assert!(vals["sent"] >= 2.0, "delivery resumed after reconnect");
    mgr2.shutdown();
    let _ = std::fs::remove_file(&path);
}
