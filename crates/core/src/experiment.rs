//! Experiment harnesses regenerating the paper's evaluation artifacts
//! (see DESIGN.md's experiment index). Parameter sweeps run one
//! simulation per point, in parallel with crossbeam scoped threads —
//! each simulation is an independent, deterministic world.

use crossbeam::thread;
use qos_apps::prelude::*;
use qos_manager::prelude::*;
use qos_sim::prelude::*;
use qos_telemetry::Telemetry;

use crate::system::{AdminRules, CpuPolicy, Testbed, TestbedConfig};

/// Measurement window: statistics are taken after this warm-up.
pub const WARMUP: Dur = Dur::from_secs(30);
/// Default experiment length.
pub const RUN_LEN: Dur = Dur::from_secs(120);

// ----------------------------------------------------------------------
// E1 / Figure 3
// ----------------------------------------------------------------------

/// One point of Figure 3.
#[derive(Debug, Clone, Copy)]
pub struct Fig3Row {
    /// Target CPU load average.
    pub target_load: f64,
    /// Load average actually measured over the run.
    pub measured_load: f64,
    /// Mean video playback throughput (fps) with normal scheduling.
    pub fps_normal: f64,
    /// Mean throughput with the QoS Host Manager + CPU resource manager.
    pub fps_managed: f64,
}

/// Reproduce Figure 3: video playback throughput vs CPU load average,
/// normal Solaris-style scheduling vs the managed system. The paper's
/// x-axis points are `[0.70, 3.00, 5.00, 7.00, 10.00]`.
pub fn figure3(seed: u64, loads: &[f64]) -> Vec<Fig3Row> {
    let runs: Vec<(f64, bool)> = loads
        .iter()
        .flat_map(|&l| [(l, false), (l, true)])
        .collect();
    let results = parallel_map(&runs, |&(load, managed)| {
        let (fps, measured) = fig3_point(seed, load, managed);
        (load, managed, fps, measured)
    });
    loads
        .iter()
        .map(|&l| {
            let normal = results
                .iter()
                .find(|r| r.0 == l && !r.1)
                .expect("every load has an unmanaged run");
            let managed = results
                .iter()
                .find(|r| r.0 == l && r.1)
                .expect("every load has a managed run");
            Fig3Row {
                target_load: l,
                measured_load: (normal.3 + managed.3) / 2.0,
                fps_normal: normal.2,
                fps_managed: managed.2,
            }
        })
        .collect()
}

/// One Figure 3 run: returns (mean fps, measured load average).
pub fn fig3_point(seed: u64, target_load: f64, managed: bool) -> (f64, f64) {
    fig3_point_with(seed, target_load, managed, &Telemetry::disabled())
}

/// [`fig3_point`] with a telemetry handle attached to the testbed, for
/// the `--trace-out` / `--metrics-out` flags of the experiment binary.
pub fn fig3_point_with(
    seed: u64,
    target_load: f64,
    managed: bool,
    telemetry: &Telemetry,
) -> (f64, f64) {
    let cfg = TestbedConfig {
        seed: seed ^ (target_load.to_bits().rotate_left(17)) ^ (managed as u64),
        managed,
        telemetry: telemetry.clone(),
        ..TestbedConfig::default()
    };
    let mut tb = Testbed::build(&cfg);
    // The baseline daemons + client contribute roughly 0.7; hogs make up
    // the difference to the target.
    let mix = mix_for_target(target_load, 0.7);
    spawn_mix(&mut tb.world, tb.client_host, mix);
    tb.world.run_for(WARMUP);
    let d0 = tb.displayed(0);
    tb.world.run_for(RUN_LEN.saturating_sub(WARMUP));
    let from = SimTime::ZERO + WARMUP;
    let window = RUN_LEN.saturating_sub(WARMUP).as_secs_f64();
    let fps = (tb.displayed(0) - d0) as f64 / window;
    let load = tb
        .world
        .host(tb.client_host)
        .runnable_series()
        .mean_from(from);
    (fps, load)
}

// ----------------------------------------------------------------------
// E4: convergence of the feedback loop
// ----------------------------------------------------------------------

/// Time series of the adaptation: (t seconds, fps, client upri boost).
#[derive(Debug, Clone)]
pub struct ConvergenceTrace {
    /// Displayed-fps points over time.
    pub fps: Vec<(f64, f64)>,
    /// CPU boost applied by the manager over time.
    pub boost: Vec<(f64, i16)>,
    /// Time (s) at which fps first re-entered `[lo, hi]` and stayed for
    /// 5 consecutive samples, if it did.
    pub settled_at: Option<f64>,
}

/// E4: start an already-loaded host, watch the manager pull the client
/// back into specification step by step.
pub fn convergence(seed: u64, hogs: u32, managed: bool) -> ConvergenceTrace {
    let cfg = TestbedConfig {
        seed,
        managed,
        ..TestbedConfig::default()
    };
    let mut tb = Testbed::build(&cfg);
    spawn_mix(
        &mut tb.world,
        tb.client_host,
        LoadMix {
            hogs,
            fraction: 0.0,
        },
    );
    let mut fps = Vec::new();
    let mut boost = Vec::new();
    let step = Dur::from_secs(1);
    let total_secs = 90;
    for s in 1..=total_secs {
        tb.world.run_for(step);
        let t = s as f64;
        let last = tb.client(0).stats.fps_series.last().unwrap_or(0.0);
        fps.push((t, last));
        let upri = tb
            .world
            .host(tb.client_host)
            .proc_upri(tb.clients[0])
            .unwrap_or(0);
        boost.push((t, upri));
    }
    // Settling: 5 consecutive in-spec samples.
    let mut settled_at = None;
    let mut streak = 0;
    for &(t, f) in &fps {
        if (23.0..=30.0).contains(&f) {
            streak += 1;
            if streak >= 5 && settled_at.is_none() {
                settled_at = Some(t - 4.0);
            }
        } else {
            streak = 0;
            settled_at = None;
        }
    }
    ConvergenceTrace {
        fps,
        boost,
        settled_at,
    }
}

// ----------------------------------------------------------------------
// E5: multi-application contention under administrative policies
// ----------------------------------------------------------------------

/// Result of the contention experiment for one client.
#[derive(Debug, Clone, Copy)]
pub struct ContentionRow {
    /// Client index.
    pub client: usize,
    /// Administrative weight.
    pub weight: f64,
    /// Mean fps achieved.
    pub fps: f64,
}

/// E5: several video clients on one host with insufficient CPU for all.
/// Under fair-share rules all degrade roughly equally; under
/// differentiated rules fps follows weight.
pub fn contention(seed: u64, admin: AdminRules) -> Vec<ContentionRow> {
    let weights = [1.0, 2.0, 4.0];
    // Differentiated administration: role-scoped QoS targets (the
    // Section 6 "UserRole" mechanism) — student 10, assistant 16,
    // lecturer 26 fps. Fair share: everyone runs the standard 25 ± 2
    // policy and degrades equally.
    // Targets must be jointly feasible (the host can decode ~50 fps in
    // total), otherwise the differentiated allocation cannot converge.
    let targets = match admin {
        AdminRules::FairShare => Vec::new(),
        AdminRules::Differentiated => vec![8.0, 14.0, 22.0],
    };
    // Role-differentiated shares need an allocation mechanism that a
    // competitor's interactivity boost cannot bypass: real-time CPU units
    // ("allocating units of real-time CPU cycles", Section 7). Fair-share
    // keeps the prototype's default TS boosts.
    let cpu_policy = match admin {
        AdminRules::FairShare => CpuPolicy::TsBoost,
        AdminRules::Differentiated => CpuPolicy::RtUnits,
    };
    let cfg = TestbedConfig {
        seed,
        managed: true,
        admin,
        cpu_policy,
        clients: 3,
        client_weights: weights.to_vec(),
        client_targets: targets,
        // Each client needs ~60% of a CPU: three of them oversubscribe it.
        baseline_daemons: false,
        ..TestbedConfig::default()
    };
    let mut tb = Testbed::build(&cfg);
    tb.world.run_for(WARMUP);
    let d0: Vec<u64> = (0..3).map(|i| tb.displayed(i)).collect();
    tb.world.run_for(RUN_LEN.saturating_sub(WARMUP));
    let window = RUN_LEN.saturating_sub(WARMUP).as_secs_f64();
    (0..3)
        .map(|i| ContentionRow {
            client: i,
            weight: weights[i],
            fps: (tb.displayed(i) - d0[i]) as f64 / window,
        })
        .collect()
}

// ----------------------------------------------------------------------
// E6: fault localization
// ----------------------------------------------------------------------

/// Faults injected for the localization experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// CPU contention on the client host.
    ClientCpu,
    /// CPU contention on the server host.
    ServerCpu,
    /// Congestion on the data-path switch.
    Network,
}

/// Outcome of one localization run.
#[derive(Debug, Clone)]
pub struct LocalizationResult {
    /// The injected fault.
    pub fault: Fault,
    /// fps before the fault.
    pub fps_before: f64,
    /// fps after the fault, before any recovery had time to act.
    pub fps_during: f64,
    /// fps at the end (after diagnosis + adaptation).
    pub fps_after: f64,
    /// Client-side CPU boosts issued.
    pub client_boosts: u64,
    /// Escalations to the domain manager.
    pub domain_alerts: u64,
    /// What the domain manager decided.
    pub domain_actions: Vec<DomainAction>,
    /// Domain-manager decisions that acted on nothing.
    pub domain_unactionable: u64,
}

/// E6: inject a fault mid-run and observe where the management plane
/// localizes it and whether service recovers. `buffer_sensor` can be
/// disabled to ablate the Example 5 heuristic.
pub fn localization(seed: u64, fault: Fault, buffer_sensor: bool) -> LocalizationResult {
    localization_with(seed, fault, buffer_sensor, &Telemetry::disabled())
}

/// [`localization`] with a telemetry handle attached to the testbed,
/// for the `--trace-out` / `--metrics-out` flags of the experiment
/// binary.
pub fn localization_with(
    seed: u64,
    fault: Fault,
    buffer_sensor: bool,
    telemetry: &Telemetry,
) -> LocalizationResult {
    let cfg = TestbedConfig {
        seed,
        managed: true,
        domain: true,
        disable_buffer_sensor: !buffer_sensor,
        telemetry: telemetry.clone(),
        ..TestbedConfig::default()
    };
    let mut tb = Testbed::build(&cfg);

    // Healthy phase.
    tb.world.run_for(Dur::from_secs(20));
    let d0 = tb.displayed(0);
    tb.world.run_for(Dur::from_secs(20));
    let fps_before = (tb.displayed(0) - d0) as f64 / 20.0;

    // Inject the fault.
    match fault {
        Fault::ClientCpu => {
            spawn_mix(
                &mut tb.world,
                tb.client_host,
                LoadMix {
                    hogs: 6,
                    fraction: 0.0,
                },
            );
        }
        Fault::ServerCpu => {
            // Two-part server-side fault. (1) An interactive storm:
            // sub-quantum sleep-boosted bursts that monopolise the strong
            // priority levels (plain CPU hogs would sink and never delay
            // anyone). (2) A degraded encode path: the server's per-frame
            // cost rises past the strongest-level quantum, so it expires
            // mid-frame and falls behind the storm. Either alone is
            // survivable; together the server starves — until the domain
            // manager diagnoses it and promotes it to the RT class.
            for _ in 0..30 {
                tb.world.spawn(
                    tb.server_host,
                    ProcConfig::new("interactive-burst"),
                    DutyLoadGen {
                        duty: 0.25,
                        period: Dur::from_millis(60),
                    },
                );
            }
            let server = tb.servers[0];
            tb.world
                .logic_mut::<VideoServer>(server)
                .expect("server logic type")
                .set_cpu_per_frame(Dur::from_millis(25));
        }
        Fault::Network => {
            tb.world.net_mut().set_bg_util(tb.primary_hop, 0.97);
        }
    }
    let d1 = tb.displayed(0);
    tb.world.run_for(Dur::from_secs(20));
    let fps_during = (tb.displayed(0) - d1) as f64 / 20.0;

    tb.world.run_for(Dur::from_secs(30));
    let d2 = tb.displayed(0);
    tb.world.run_for(Dur::from_secs(30));
    let fps_after = (tb.displayed(0) - d2) as f64 / 30.0;

    let hm = tb.client_hm_stats().expect("managed testbed");
    LocalizationResult {
        fault,
        fps_before,
        fps_during,
        fps_after,
        client_boosts: hm.cpu_boosts,
        domain_alerts: hm.domain_alerts,
        domain_actions: tb.domain_actions(),
        domain_unactionable: tb
            .domain_mgr
            .and_then(|pid| tb.world.logic::<QosDomainManager>(pid))
            .map_or(0, |d| d.stats.unactionable),
    }
}

// ----------------------------------------------------------------------
// E9: proactive vs reactive QoS (Section 10 extension)
// ----------------------------------------------------------------------

/// Outcome of one proactive/reactive run.
#[derive(Debug, Clone, Copy)]
pub struct ProactiveOutcome {
    /// Seconds (out of the post-fault window) with displayed fps below
    /// the 23 fps specification floor.
    pub secs_below_spec: u64,
    /// Worst single-second fps after the fault.
    pub worst_fps: f64,
    /// Mean fps over the post-fault window.
    pub mean_fps: f64,
    /// Proactive nudges issued by the manager.
    pub nudges: u64,
    /// Reactive CPU boosts issued by the manager.
    pub boosts: u64,
}

/// E9: load ramps up gradually (one CPU hog every 4 s); compare the
/// purely reactive system (adaptation starts only after the frame rate
/// leaves specification) with the proactive one (the buffer-growth trend
/// policy triggers adaptation while the frame rate is still in
/// specification — the buffer starts growing the moment the client falls
/// even slightly behind).
pub fn proactive(seed: u64, enabled: bool) -> ProactiveOutcome {
    /// Spawns one CPU hog every `interval`, `count` times.
    struct Ramp {
        interval: Dur,
        remaining: u32,
    }
    impl ProcessLogic for Ramp {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
            match ev {
                ProcEvent::Start | ProcEvent::Timer(_) => {
                    if let ProcEvent::Timer(_) = ev {
                        let host = ctx.host_id();
                        ctx.spawn(host, ProcConfig::new("ramp-hog"), Box::new(CpuHog::new()));
                        self.remaining -= 1;
                    }
                    if self.remaining > 0 {
                        ctx.set_timer(self.interval, 0);
                    }
                }
                _ => {}
            }
        }
    }
    let cfg = TestbedConfig {
        seed,
        managed: true,
        proactive: enabled,
        ..TestbedConfig::default()
    };
    let mut tb = Testbed::build(&cfg);
    tb.world.run_for(Dur::from_secs(30));
    tb.world.spawn(
        tb.client_host,
        ProcConfig::new("ramp"),
        Ramp {
            interval: Dur::from_secs(4),
            remaining: 6,
        },
    );
    // Observe second by second for 60 s after the fault.
    let mut secs_below = 0;
    let mut worst = f64::INFINITY;
    let mut total = 0.0;
    let window = 60;
    let mut prev = tb.displayed(0);
    for _ in 0..window {
        tb.world.run_for(Dur::from_secs(1));
        let d = tb.displayed(0);
        let fps = (d - prev) as f64;
        prev = d;
        if fps < 23.0 {
            secs_below += 1;
        }
        worst = worst.min(fps);
        total += fps;
    }
    let hm = tb.client_hm_stats().expect("managed testbed");
    ProactiveOutcome {
        secs_below_spec: secs_below,
        worst_fps: worst,
        mean_fps: total / window as f64,
        nudges: hm.nudges,
        boosts: hm.cpu_boosts,
    }
}

// ----------------------------------------------------------------------
// E10: overload handling via application adaptation (Section 10)
// ----------------------------------------------------------------------

/// Outcome of one overload run.
#[derive(Debug, Clone, Copy)]
pub struct OverloadOutcome {
    /// Mean fps over the final 60 s.
    pub fps: f64,
    /// Final quality level (0 = full; higher = degraded).
    pub quality: u8,
    /// Application-adaptation requests the manager issued.
    pub adaptations: u64,
    /// Final CPU boost (stuck at the cap in the overloaded case).
    pub boost: i16,
}

/// E10: the decode cost is raised beyond what any allocation can satisfy
/// (demand > 100% of the CPU at full quality). Without overload handling
/// the manager maxes the allocation and the requirement still fails;
/// with it, the manager directs the quality actuator and the (degraded)
/// stream returns to specification.
pub fn overload(seed: u64, adaptive: bool) -> OverloadOutcome {
    overload_with(seed, adaptive, &Telemetry::disabled())
}

/// [`overload`] with a telemetry handle attached to the testbed, for
/// the `--trace-out` / `--metrics-out` flags of the experiment binary.
pub fn overload_with(seed: u64, adaptive: bool, telemetry: &Telemetry) -> OverloadOutcome {
    let cfg = TestbedConfig {
        seed,
        managed: true,
        overload_adaptation: adaptive,
        telemetry: telemetry.clone(),
        // 45 ms per frame at 30 fps = 135% CPU demand at full quality;
        // the ladder's 0.65 level brings it to ~88%.
        decode_cost: Dur::from_micros(45_000),
        baseline_daemons: false,
        ..TestbedConfig::default()
    };
    let mut tb = Testbed::build(&cfg);
    tb.world.run_for(Dur::from_secs(60)); // detect, max out, adapt
    let d0 = tb.displayed(0);
    tb.world.run_for(Dur::from_secs(60));
    let fps = (tb.displayed(0) - d0) as f64 / 60.0;
    let hm = tb.client_hm_stats().expect("managed testbed");
    OverloadOutcome {
        fps,
        quality: tb.client(0).quality(),
        adaptations: hm.adaptations,
        boost: tb
            .world
            .host(tb.client_host)
            .proc_upri(tb.clients[0])
            .unwrap_or(0),
    }
}

// ----------------------------------------------------------------------
// Parallel sweep helper
// ----------------------------------------------------------------------

/// Map a function over inputs in parallel with scoped threads; results
/// come back in input order. Each call must be independent (they each own
/// their own simulation world).
pub fn parallel_map<T: Sync, R: Send>(inputs: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let n = inputs.len();
    if n <= 1 {
        return inputs.iter().map(&f).collect();
    }
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let slots: Vec<parking_lot::Mutex<&mut Option<R>>> =
        out.iter_mut().map(parking_lot::Mutex::new).collect();
    thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|_| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&inputs[i]);
                **slots[i].lock() = Some(r);
            });
        }
    })
    .expect("worker panicked");
    drop(slots);
    out.into_iter()
        .map(|r| r.expect("all slots filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let inputs: Vec<u64> = (0..37).collect();
        let out = parallel_map(&inputs, |&x| x * x);
        assert_eq!(out, inputs.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_single_input() {
        assert_eq!(parallel_map(&[5u32], |&x| x + 1), vec![6]);
        assert_eq!(parallel_map(&[] as &[u32], |&x| x + 1), Vec::<u32>::new());
    }

    #[test]
    fn fig3_managed_beats_unmanaged_under_load() {
        // Single mid-sweep point as a smoke test (the full sweep is the
        // bench binary's job).
        let (fps_unmanaged, load) = fig3_point(11, 5.0, false);
        let (fps_managed, _) = fig3_point(11, 5.0, true);
        assert!(
            (3.5..6.5).contains(&load),
            "load calibration off: target 5.0, measured {load}"
        );
        assert!(
            fps_managed > fps_unmanaged + 5.0,
            "manager must help: unmanaged {fps_unmanaged}, managed {fps_managed}"
        );
        assert!(
            fps_managed > 23.0,
            "managed system should hold the QoS floor: {fps_managed}"
        );
        assert!(
            fps_unmanaged < 18.0,
            "unmanaged system should collapse: {fps_unmanaged}"
        );
    }
}
