//! Edge-case tests for the simulation kernel through its public API:
//! scheduling corners, socket saturation, syscall semantics, rerouting,
//! and determinism under composition.

use qos_core::sim::prelude::*;

/// A process that runs one configurable burst per timer tick.
struct Periodic {
    period: Dur,
    work: Dur,
    completions: u64,
}

impl ProcessLogic for Periodic {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
        match ev {
            ProcEvent::Start | ProcEvent::Timer(_) => ctx.run(self.work),
            ProcEvent::BurstDone => {
                self.completions += 1;
                ctx.set_timer(self.period, 0);
            }
            _ => {}
        }
    }
}

struct Hog;
impl ProcessLogic for Hog {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
        if matches!(ev, ProcEvent::Start | ProcEvent::BurstDone) {
            ctx.run(Dur::from_secs(1000));
        }
    }
}

#[test]
fn run_until_advances_time_even_without_events() {
    let mut w = World::new(1);
    let _ = w.add_host("a", 16);
    w.run_until(SimTime::from_micros(5_000_000));
    assert_eq!(w.now(), SimTime::from_micros(5_000_000));
    w.run_for(Dur::from_secs(1));
    assert_eq!(w.now(), SimTime::from_micros(6_000_000));
}

#[test]
fn zero_length_burst_completes_immediately() {
    struct ZeroBurst {
        done: bool,
    }
    impl ProcessLogic for ZeroBurst {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
            match ev {
                ProcEvent::Start => ctx.run(Dur::ZERO),
                ProcEvent::BurstDone => self.done = true,
                _ => {}
            }
        }
    }
    let mut w = World::new(1);
    let h = w.add_host("a", 16);
    let p = w.spawn(h, ProcConfig::new("z"), ZeroBurst { done: false });
    w.run_for(Dur::from_millis(1));
    assert!(w.logic::<ZeroBurst>(p).unwrap().done);
    assert_eq!(w.host(h).proc_cpu_time(p), Some(Dur::ZERO));
}

#[test]
fn socket_saturation_counts_drops_and_delivery_resumes() {
    struct SlowSink {
        received: u64,
    }
    impl ProcessLogic for SlowSink {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
            if let ProcEvent::Readable(port) = ev {
                if ctx.recv(port).is_some() {
                    self.received += 1;
                    // 100 ms per message: far slower than arrivals.
                    ctx.run(Dur::from_millis(100));
                }
            }
        }
    }
    struct Blaster {
        dst: Endpoint,
    }
    impl ProcessLogic for Blaster {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
            match ev {
                ProcEvent::Start | ProcEvent::Timer(_) => {
                    // 100 messages/s of 1 kB.
                    ctx.send(self.dst, 1, 1_000, 0u8);
                    ctx.set_timer(Dur::from_millis(10), 0);
                }
                _ => {}
            }
        }
    }
    let mut w = World::new(2);
    let a = w.add_host("a", 1 << 10);
    let b = w.add_host("b", 1 << 10);
    let hop = w
        .net_mut()
        .add_hop(10_000_000.0, Dur::from_millis(1), Dur::from_secs(1));
    w.net_mut().set_route_symmetric(a, b, vec![hop]);
    // Tiny 4 kB buffer: 4 messages.
    let sink = w.spawn(
        b,
        ProcConfig::new("sink").port(9, 4_000),
        SlowSink { received: 0 },
    );
    w.spawn(
        a,
        ProcConfig::new("blaster"),
        Blaster {
            dst: Endpoint::new(b, 9),
        },
    );
    w.run_for(Dur::from_secs(10));
    let received = w.logic::<SlowSink>(sink).unwrap().received;
    let dropped = w.host(b).socket_dropped(9);
    // Sink serves ~10/s; blaster sends 100/s; the rest must be dropped.
    assert!((80..=105).contains(&received), "received {received}");
    assert!(dropped > 800, "dropped {dropped}");
    assert!(received + dropped <= 1_001);
}

#[test]
fn priocntl_on_waiting_process_applies_at_wake() {
    struct Booster {
        target: Pid,
    }
    impl ProcessLogic for Booster {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
            if let ProcEvent::Start = ev {
                // Target is Waiting (it starts with a long timer).
                ctx.priocntl(self.target, PriocntlCmd::SetUpri(60));
                ctx.exit();
            }
        }
    }
    struct LateStarter {
        completions: u64,
    }
    impl ProcessLogic for LateStarter {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
            match ev {
                ProcEvent::Start => ctx.set_timer(Dur::from_secs(2), 0),
                ProcEvent::Timer(_) => ctx.run(Dur::from_millis(500)),
                ProcEvent::BurstDone => self.completions += 1,
                _ => {}
            }
        }
    }
    let mut w = World::new(3);
    let h = w.add_host("a", 1 << 10);
    let late = w.spawn(h, ProcConfig::new("late"), LateStarter { completions: 0 });
    for _ in 0..4 {
        w.spawn(h, ProcConfig::new("hog"), Hog);
    }
    w.spawn(h, ProcConfig::new("boost"), Booster { target: late });
    w.run_for(Dur::from_secs(4));
    // With +60 it preempts the hogs on wake and finishes its 500 ms burst
    // promptly (2.0s wake + 0.5s work, small slack for hog quanta).
    let l = w.logic::<LateStarter>(late).unwrap();
    assert_eq!(l.completions, 1);
    let cpu = w.host(h).proc_cpu_time(late).unwrap();
    assert_eq!(cpu, Dur::from_millis(500));
}

#[test]
fn kill_parked_rt_process_is_clean() {
    struct Killer {
        victim: Pid,
    }
    impl ProcessLogic for Killer {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
            match ev {
                ProcEvent::Start => ctx.set_timer(Dur::from_millis(2_500), 0),
                ProcEvent::Timer(_) => {
                    ctx.kill(self.victim);
                    ctx.exit();
                }
                _ => {}
            }
        }
    }
    let mut w = World::new(4);
    let h = w.add_host("a", 1 << 10);
    // A budgeted RT hog: exhausts 200 ms within each second, then parks.
    let rt = w.spawn(
        h,
        ProcConfig::new("rt").class(SchedClass::RealTime {
            rtpri: 9,
            budget: Some(RtBudget {
                per_window: Dur::from_millis(200),
                window: Dur::from_secs(1),
            }),
        }),
        Hog,
    );
    w.spawn(h, ProcConfig::new("killer"), Killer { victim: rt });
    w.run_for(Dur::from_secs(5));
    assert_eq!(w.host(h).proc_state(rt), Some(ProcState::Dead));
    // It was killed mid-window (2.5 s): two full windows plus part of the
    // third were charged.
    let cpu = w.host(h).proc_cpu_time(rt).unwrap().as_secs_f64();
    assert!((0.4..=0.7).contains(&cpu), "rt cpu {cpu}");
    // The host keeps running fine afterwards.
    let p = w.spawn(
        h,
        ProcConfig::new("p"),
        Periodic {
            period: Dur::from_millis(50),
            work: Dur::from_millis(1),
            completions: 0,
        },
    );
    w.run_for(Dur::from_secs(2));
    assert!(w.logic::<Periodic>(p).unwrap().completions > 30);
}

#[test]
fn reroute_syscall_redirects_traffic() {
    struct Sender {
        dst: Endpoint,
    }
    impl ProcessLogic for Sender {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
            match ev {
                ProcEvent::Start | ProcEvent::Timer(_) => {
                    ctx.send(self.dst, 1, 1_000, 0u8);
                    ctx.set_timer(Dur::from_millis(20), 0);
                }
                _ => {}
            }
        }
    }
    struct Rerouter {
        a: HostId,
        b: HostId,
        to: HopId,
    }
    impl ProcessLogic for Rerouter {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
            match ev {
                ProcEvent::Start => ctx.set_timer(Dur::from_secs(5), 0),
                ProcEvent::Timer(_) => {
                    ctx.reroute(self.a, self.b, vec![self.to]);
                    ctx.exit();
                }
                _ => {}
            }
        }
    }
    struct Sink;
    impl ProcessLogic for Sink {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
            if let ProcEvent::Readable(p) = ev {
                let _ = ctx.recv(p);
            }
        }
    }
    let mut w = World::new(5);
    let a = w.add_host("a", 1 << 10);
    let b = w.add_host("b", 1 << 10);
    let primary = w
        .net_mut()
        .add_hop(1_000_000.0, Dur::from_millis(1), Dur::from_secs(1));
    let backup = w
        .net_mut()
        .add_hop(1_000_000.0, Dur::from_millis(1), Dur::from_secs(1));
    w.net_mut().set_route_symmetric(a, b, vec![primary]);
    w.spawn(b, ProcConfig::new("sink").port(9, 1 << 16), Sink);
    w.spawn(
        a,
        ProcConfig::new("send"),
        Sender {
            dst: Endpoint::new(b, 9),
        },
    );
    w.spawn(
        a,
        ProcConfig::new("rerouter"),
        Rerouter { a, b, to: backup },
    );
    w.run_for(Dur::from_secs(10));
    let p = w.net().hop_stats(primary);
    let bk = w.net().hop_stats(backup);
    // ~250 packets at 50/s before the reroute, the rest after.
    assert!((200..300).contains(&(p.delivered as i64)), "primary {p:?}");
    assert!((200..300).contains(&(bk.delivered as i64)), "backup {bk:?}");
    assert_eq!(p.dropped + bk.dropped, 0);
}

#[test]
fn competing_hosts_do_not_interact() {
    // Identical workloads on two hosts in one world behave identically to
    // the same workload alone: hosts are isolated except via the network.
    fn completions(two_hosts: bool) -> u64 {
        let mut w = World::new(6);
        let a = w.add_host("a", 1 << 10);
        let pa = w.spawn(
            a,
            ProcConfig::new("p"),
            Periodic {
                period: Dur::from_millis(40),
                work: Dur::from_millis(10),
                completions: 0,
            },
        );
        w.spawn(a, ProcConfig::new("hog"), Hog);
        if two_hosts {
            let b = w.add_host("b", 1 << 10);
            w.spawn(
                b,
                ProcConfig::new("p"),
                Periodic {
                    period: Dur::from_millis(40),
                    work: Dur::from_millis(10),
                    completions: 0,
                },
            );
            for _ in 0..5 {
                w.spawn(b, ProcConfig::new("hog"), Hog);
            }
        }
        w.run_for(Dur::from_secs(30));
        w.logic::<Periodic>(pa).unwrap().completions
    }
    // Note: not exactly equal (RNG streams fork in creation order), but
    // the second host's heavy load must not slow host a's process.
    let alone = completions(false);
    let shared = completions(true);
    assert!(
        (alone as i64 - shared as i64).abs() <= alone as i64 / 10,
        "host isolation: alone {alone}, shared-world {shared}"
    );
}

#[test]
fn timers_fire_in_order_with_multiple_outstanding() {
    struct MultiTimer {
        fired: Vec<u64>,
    }
    impl ProcessLogic for MultiTimer {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
            match ev {
                ProcEvent::Start => {
                    ctx.set_timer(Dur::from_millis(30), 3);
                    ctx.set_timer(Dur::from_millis(10), 1);
                    ctx.set_timer(Dur::from_millis(20), 2);
                }
                ProcEvent::Timer(tag) => self.fired.push(tag),
                _ => {}
            }
        }
    }
    let mut w = World::new(7);
    let h = w.add_host("a", 16);
    let p = w.spawn(h, ProcConfig::new("t"), MultiTimer { fired: Vec::new() });
    w.run_for(Dur::from_millis(100));
    assert_eq!(w.logic::<MultiTimer>(p).unwrap().fired, vec![1, 2, 3]);
}

#[test]
fn rt_process_unaffected_by_ts_starvation_boosts() {
    // An unbudgeted RT process gets exactly its demand no matter how many
    // TS hogs exist.
    let mut w = World::new(8);
    let h = w.add_host("a", 1 << 10);
    let rt = w.spawn(
        h,
        ProcConfig::new("rt").class(SchedClass::RealTime {
            rtpri: 20,
            budget: None,
        }),
        Periodic {
            period: Dur::from_millis(20),
            work: Dur::from_millis(10),
            completions: 0,
        },
    );
    for _ in 0..10 {
        w.spawn(h, ProcConfig::new("hog"), Hog);
    }
    w.run_for(Dur::from_secs(20));
    let c = w.logic::<Periodic>(rt).unwrap().completions;
    // One completion per ~30 ms cycle.
    assert!((600..=700).contains(&c), "completions {c}");
}

#[test]
fn trace_records_process_logs_when_enabled() {
    struct Chatty;
    impl ProcessLogic for Chatty {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
            match ev {
                ProcEvent::Start | ProcEvent::Timer(_) => {
                    ctx.log(|| format!("tick at {}", ctx_now_placeholder()));
                    ctx.set_timer(Dur::from_millis(100), 0);
                }
                _ => {}
            }
        }
    }
    fn ctx_now_placeholder() -> &'static str {
        "work"
    }
    // Disabled by default: nothing recorded.
    let mut w = World::new(1);
    let h = w.add_host("a", 16);
    w.spawn(h, ProcConfig::new("chatty"), Chatty);
    w.run_for(Dur::from_secs(1));
    assert!(w.trace().is_none());

    // Enabled with a small capacity: bounded, oldest evicted.
    let mut w = World::new(1);
    let h = w.add_host("a", 16);
    w.enable_trace(5);
    let pid = w.spawn(h, ProcConfig::new("chatty"), Chatty);
    w.run_for(Dur::from_secs(2));
    let trace = w.trace().expect("enabled");
    let entries: Vec<_> = trace.entries().collect();
    assert_eq!(entries.len(), 5, "bounded at capacity");
    assert!(entries
        .iter()
        .all(|(_, p, line)| *p == pid && line.contains("tick")));
    // Entries are in time order and the oldest were evicted.
    assert!(entries.windows(2).all(|w| w[0].0 <= w[1].0));
    assert!(entries[0].0 > SimTime::from_micros(1_000_000));
    assert!(trace.render().lines().count() == 5);
}
