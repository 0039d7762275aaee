//! Multi-host matcher scale benchmark: N hosts × M instrumented
//! processes per host firing simultaneous violation storms at their QoS
//! Host Managers. Sweeps 1×8 → 8×64 and reports, per configuration and
//! per matcher (the naive full-rematch oracle vs the incremental
//! Rete-lite matcher):
//!
//! * end-to-end diagnose latency (Detect → Diagnose stage events,
//!   p50/p95) — queueing at the manager plus inference cost;
//! * engine join work (candidate facts examined by the matcher), summed
//!   over every host manager;
//! * wall-clock spent per violation by the harness, broken down by
//!   engine phase (match / agenda / fire) via the engines' per-phase
//!   profilers.
//!
//! Both matchers must produce identical rule-firing traces — the sweep
//! asserts it — and the incremental matcher must cut join work by ≥5×
//! at the largest configuration. The incremental per-violation wall
//! cost should also stay *flat* as the sweep scales (the flattened
//! fact-store and matcher make the per-violation delta independent of
//! working-memory size); the sweep reports the spread.
//!
//! Flags: `--smoke` (small sweep for CI), `--assert-budget-us <N>`
//! (fail if the incremental run's mean wall-clock per violation exceeds
//! the budget), `--assert-flat-pct <N>` (fail if the incremental
//! per-violation wall cost varies more than N% across the sweep),
//! `--json <path>` (result rows; defaults to `BENCH_scale.json`).
//!
//! `--domains <D>` additionally runs the *federated* weak-scaling
//! sweep: domains grow 1 → D with 25 managed hosts per domain (full
//! mode; the largest run is ≥100 hosts × 100 reporters ≈ 10k managed
//! processes in 4+ domains), every host binding through the discovery
//! plane. The witness of the sharded registry is the average host-route
//! entry count per route push: a flat registry ships every host to its
//! one manager on every change (linear in total hosts), while the
//! sharded federation ships each leaf only its own shard — the sweep
//! asserts the per-push registry traffic grows at most 60% as fast as
//! the host count. The same `--assert-budget-us` bound is applied to
//! the federated runs' wall-clock per violation.

use std::time::Instant;

use qos_bench::{bench_rows_to_json, BenchRow};
use qos_core::prelude::*;

/// First port used by storm reporters (ports are per-host; reporter `p`
/// binds `REPORTER_PORT_BASE + p`).
const REPORTER_PORT_BASE: Port = 100;
const TAG_STORM: u64 = 1;

/// A minimal instrumented process: registers with the host manager at
/// start, then reports a violation every storm round — every reporter on
/// every host fires at the same instant, the worst case for the
/// managers' inference engines.
struct StormReporter {
    hm: Endpoint,
    telemetry: Telemetry,
    rounds: u32,
    interval: Dur,
    /// Large communication buffer ⇒ the local-CPU-starvation diagnosis;
    /// small ⇒ the local fallback. Mixed across reporters so several
    /// rules stay hot.
    big_buffer: bool,
    /// This reporter's control port (unique per host).
    port: Port,
}

impl ProcessLogic for StormReporter {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
        match ev {
            ProcEvent::Start => {
                send_ctrl(
                    ctx,
                    self.hm,
                    self.port,
                    WireMsg::Register(RegisterMsg {
                        pid: ctx.pid(),
                        control_port: self.port,
                        executable: "StormReporter".into(),
                        application: "ScaleBench".into(),
                        role: "*".into(),
                        weight: 1.0,
                        heartbeat: None,
                    }),
                );
                ctx.set_timer(self.interval, TAG_STORM);
            }
            ProcEvent::Timer(TAG_STORM) => {
                if self.rounds == 0 {
                    return;
                }
                self.rounds -= 1;
                let now_us = ctx.now().as_micros();
                let corr = if self.telemetry.is_enabled() {
                    let corr = self.telemetry.next_corr();
                    self.telemetry.stage(
                        now_us,
                        corr,
                        Stage::Detect,
                        pid_name(ctx.pid()),
                        "scale-storm",
                        &[],
                    );
                    corr
                } else {
                    0
                };
                let buffer = if self.big_buffer { 50_000.0 } else { 100.0 };
                send_ctrl(
                    ctx,
                    self.hm,
                    self.port,
                    WireMsg::Violation(ViolationMsg {
                        pid: ctx.pid(),
                        proc_name: "StormReporter".into(),
                        policy: "scale-storm".into(),
                        corr,
                        readings: vec![("frame_rate".into(), 15.0), ("buffer_size".into(), buffer)],
                        bounds: Some(("frame_rate".into(), 23.0, 27.0)),
                        upstream: None,
                    }),
                );
                ctx.set_timer(self.interval, TAG_STORM);
            }
            ProcEvent::Readable(port) => {
                // Drain and ignore manager control traffic (AdaptMsg).
                while ctx.recv(port).is_some() {}
            }
            _ => {}
        }
    }
}

/// Outcome of one (hosts × procs, matcher) run.
struct ModeOutcome {
    violations: u64,
    join_work: u64,
    p50_us: u64,
    p95_us: u64,
    wall_us_per_violation: f64,
    /// Engine-phase wall time summed over every host manager, in µs per
    /// violation: (match, agenda, fire).
    phase_us_per_violation: (f64, f64, f64),
    /// Per-host firing traces, for the naive-vs-incremental equality
    /// check.
    traces: Vec<Vec<String>>,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let ix = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[ix]
}

fn run_mode(seed: u64, hosts: usize, procs: usize, rounds: u32, naive: bool) -> ModeOutcome {
    run_mode_with(seed, hosts, procs, rounds, naive, &Telemetry::enabled())
}

fn run_mode_with(
    seed: u64,
    hosts: usize,
    procs: usize,
    rounds: u32,
    naive: bool,
    telemetry: &Telemetry,
) -> ModeOutcome {
    let telemetry = telemetry.clone();
    let mut world = World::new(seed);
    world.set_telemetry(&telemetry);
    let interval = Dur::from_millis(200);
    let mut hm_pids = Vec::with_capacity(hosts);
    for h in 0..hosts {
        let host = world.add_host(format!("host-{h}"), 1 << 16);
        let mut hm = QosHostManager::new(None).with_telemetry(&telemetry);
        // Overload rules keep a persistent `alloc` fact per process in
        // working memory — the realistic fact population the naive
        // matcher re-scans on every cycle.
        hm.load_rules(overload_rules());
        hm.use_naive_matcher(naive);
        hm.set_engine_trace_capacity(1 << 20);
        hm.enable_engine_phase_profile(true);
        hm_pids.push(
            world.spawn(
                host,
                ProcConfig::new("QoSHostManager")
                    .class(SchedClass::RealTime {
                        rtpri: 50,
                        budget: None,
                    })
                    .port(HOST_MANAGER_PORT, 1 << 20),
                hm,
            ),
        );
        for p in 0..procs {
            let port = REPORTER_PORT_BASE + p as Port;
            world.spawn(
                host,
                ProcConfig::new("StormReporter").port(port, 1 << 14),
                StormReporter {
                    hm: Endpoint::new(host, HOST_MANAGER_PORT),
                    telemetry: telemetry.clone(),
                    rounds,
                    interval,
                    big_buffer: p % 2 == 0,
                    port,
                },
            );
        }
    }
    let start = Instant::now();
    // Storm rounds plus drain time for the last round's queues.
    world.run_for(Dur::from_micros(interval.as_micros() * (rounds as u64 + 3)));
    let wall_us = start.elapsed().as_micros() as f64;

    let mut violations = 0;
    let mut join_work = 0;
    let (mut match_ns, mut agenda_ns, mut fire_ns) = (0u64, 0u64, 0u64);
    let mut traces = Vec::with_capacity(hm_pids.len());
    for &pid in &hm_pids {
        {
            let hm: &QosHostManager = world.logic(pid).expect("host manager logic");
            violations += hm.stats.violations;
            join_work += hm.engine_join_work();
        }
        let hm: &mut QosHostManager = world.logic_mut(pid).expect("host manager logic");
        let prof = hm.take_engine_phase_profile();
        match_ns += prof.match_ns;
        agenda_ns += prof.agenda_ns;
        fire_ns += prof.fire_ns;
        traces.push(hm.take_engine_trace());
    }
    let mut diagnose_us: Vec<u64> = telemetry
        .lifecycles()
        .iter()
        .filter_map(|lc| {
            let d = lc.stage_at(Stage::Detect)?;
            let g = lc.stage_at(Stage::Diagnose)?;
            Some(g.saturating_sub(d))
        })
        .collect();
    diagnose_us.sort_unstable();
    let per_violation = |ns: u64| ns as f64 / 1_000.0 / violations.max(1) as f64;
    ModeOutcome {
        violations,
        join_work,
        p50_us: percentile(&diagnose_us, 0.50),
        p95_us: percentile(&diagnose_us, 0.95),
        wall_us_per_violation: wall_us / violations.max(1) as f64,
        phase_us_per_violation: (
            per_violation(match_ns),
            per_violation(agenda_ns),
            per_violation(fire_ns),
        ),
        traces,
    }
}

/// Outcome of one federated weak-scaling run.
struct FedOutcome {
    violations: u64,
    bound: usize,
    shards: Vec<usize>,
    route_pushes: u64,
    entries_per_push: f64,
    wall_us_per_violation: f64,
}

/// One federated run: `domains` leaf domains × (25 hosts each in full
/// mode), every host manager binding through the discovery plane, every
/// reporter storming its local manager. Returns the registry-traffic
/// and wall-cost witnesses.
fn run_fed(seed: u64, domains: u32, hosts: u32, procs: u32, rounds: u32) -> FedOutcome {
    let cfg = FederationConfig {
        seed,
        domains,
        hosts,
        reporters_per_host: procs,
        rounds,
        interval: Dur::from_millis(200),
        // Distinct correlation ids per report round; without them the
        // managers' at-least-once dedup would fold a storm of identical
        // reports into one violation each.
        telemetry: Telemetry::enabled(),
        ..FederationConfig::default()
    };
    let mut fed = Federation::build(&cfg);
    // Time the whole federated run — discovery convergence, lease
    // renewals and the violation storm — so the per-violation figure is
    // the amortized cost of *being federated*, not just the matcher.
    let start = Instant::now();
    fed.world.run_for(
        Dur::from_secs(2) + Dur::from_micros(cfg.interval.as_micros() * (rounds as u64 + 3)),
    );
    let wall_us = start.elapsed().as_micros() as f64;
    assert_eq!(
        fed.bound_hosts(),
        hosts as usize,
        "every host manager must bind during the run"
    );
    let violations: u64 = fed
        .hms
        .iter()
        .map(|&pid| {
            fed.world
                .logic::<QosHostManager>(pid)
                .expect("host manager logic")
                .stats
                .violations
        })
        .sum();
    let st = fed.disc_stats();
    FedOutcome {
        violations,
        bound: fed.bound_hosts(),
        shards: fed.shard_sizes(),
        route_pushes: st.route_pushes,
        entries_per_push: st.pushed_host_entries as f64 / st.route_pushes.max(1) as f64,
        wall_us_per_violation: wall_us / violations.max(1) as f64,
    }
}

/// The federated weak-scaling sweep: hosts grow linearly with domains,
/// so a *flat* per-domain cost curve means management cost per domain is
/// independent of federation size.
fn fed_sweep(max_domains: u32, smoke: bool, budget_us: Option<f64>, rows: &mut Vec<BenchRow>) {
    let hosts_per_domain: u32 = if smoke { 4 } else { 25 };
    let procs: u32 = if smoke { 4 } else { 100 };
    let rounds: u32 = if smoke { 2 } else { 3 };
    // 1, 2, 4, ... max_domains (weak scaling: 25 hosts per domain).
    let mut sweep = Vec::new();
    let mut d = 1u32;
    while d < max_domains {
        sweep.push(d);
        d *= 2;
    }
    sweep.push(max_domains);
    eprintln!(
        "federated sweep: domains {sweep:?} x {hosts_per_domain} hosts x {procs} reporters \
         ({rounds} rounds each, serial)..."
    );
    let mut t = Table::new(&[
        "domains",
        "hosts",
        "procs",
        "violations",
        "route pushes",
        "entries/push",
        "us/violation",
    ]);
    let mut outcomes = Vec::new();
    for &d in &sweep {
        let hosts = hosts_per_domain * d;
        let out = run_fed(20260809, d, hosts, procs, rounds);
        assert_eq!(out.bound, hosts as usize, "all hosts bound at {d} domains");
        assert_eq!(
            out.violations,
            (hosts * procs * rounds) as u64,
            "every storm round must land as a distinct violation at {d} domains"
        );
        assert_eq!(
            out.shards.iter().sum::<usize>(),
            hosts as usize,
            "shards partition the host set at {d} domains"
        );
        assert_eq!(out.shards.len(), d as usize);
        t.row(&[
            format!("{d}"),
            format!("{hosts}"),
            format!("{}", hosts * procs),
            format!("{}", out.violations),
            format!("{}", out.route_pushes),
            f(out.entries_per_push, 1),
            f(out.wall_us_per_violation, 1),
        ]);
        rows.push(
            BenchRow::new("fed_scale")
                .param("domains", d as usize)
                .param("hosts", hosts as usize)
                .param("procs_per_host", procs as usize)
                .param("rounds", rounds)
                .metric("violations", out.violations as f64)
                .metric("route_pushes", out.route_pushes as f64)
                .metric("route_entries_per_push", out.entries_per_push)
                .metric("wall_us_per_violation", out.wall_us_per_violation),
        );
        outcomes.push((d, hosts, out));
    }
    println!("\nFederated weak scaling: discovery-bound hosts, sharded registry");
    println!("{}", t.render());
    let (d0, h0, first) = &outcomes[0];
    let (dn, hn, last) = &outcomes[outcomes.len() - 1];
    let host_growth = *hn as f64 / *h0 as f64;
    let traffic_growth = last.entries_per_push / first.entries_per_push.max(f64::EPSILON);
    println!(
        "registry traffic per push: {:.1} entries at {d0} domain(s) -> {:.1} at {dn} \
         ({traffic_growth:.2}x over a {host_growth:.0}x host growth)",
        first.entries_per_push, last.entries_per_push
    );
    assert!(
        traffic_growth <= 0.6 * host_growth,
        "per-domain registry traffic must grow sub-linearly in total hosts: \
         {traffic_growth:.2}x traffic vs {host_growth:.0}x hosts"
    );
    if let Some(budget) = budget_us {
        let worst = outcomes
            .iter()
            .map(|(_, _, o)| o.wall_us_per_violation)
            .fold(0.0_f64, f64::max);
        eprintln!("federated wall budget: worst run {worst:.1} us/violation (budget {budget})");
        assert!(
            worst <= budget,
            "federated wall cost {worst:.1} us/violation exceeds budget {budget}"
        );
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let budget_us = arg_value("--assert-budget-us").and_then(|v| v.parse::<f64>().ok());
    let flat_pct = arg_value("--assert-flat-pct").and_then(|v| v.parse::<f64>().ok());
    let sweep: &[(usize, usize)] = if smoke {
        &[(1, 8), (2, 16)]
    } else {
        &[(1, 8), (2, 16), (4, 32), (8, 64)]
    };
    let rounds: u32 = if smoke { 4 } else { 10 };
    eprintln!(
        "running {} configurations x 2 matchers ({} storm rounds each, in parallel)...",
        sweep.len(),
        rounds
    );
    let results = parallel_map(sweep, |&(hosts, procs)| {
        let naive = run_mode(20260807, hosts, procs, rounds, true);
        let rete = run_mode(20260807, hosts, procs, rounds, false);
        (hosts, procs, naive, rete)
    });
    // The parallel sweep saturates every core, so its wall-clock numbers
    // measure scheduler contention, not the matcher. Re-time the
    // incremental runs one at a time for the wall/phase metrics.
    eprintln!("re-timing incremental runs serially for wall/phase metrics...");
    let timed: Vec<ModeOutcome> = sweep
        .iter()
        .map(|&(hosts, procs)| run_mode(20260807, hosts, procs, rounds, false))
        .collect();

    let mut t = Table::new(&[
        "hosts",
        "procs/host",
        "violations",
        "naive join",
        "rete join",
        "ratio",
        "naive p50/p95 (us)",
        "rete p50/p95 (us)",
        "rete us/viol (match/agenda/fire)",
    ]);
    let mut rows = Vec::new();
    let mut last_ratio = 0.0;
    for ((hosts, procs, naive, rete), timed) in results.iter().zip(&timed) {
        assert_eq!(
            naive.traces, rete.traces,
            "matchers diverged at {hosts}x{procs}: the incremental engine \
             must fire exactly the naive oracle's sequence"
        );
        assert_eq!(naive.violations, rete.violations);
        let ratio = naive.join_work as f64 / rete.join_work.max(1) as f64;
        last_ratio = ratio;
        let (m_us, a_us, f_us) = timed.phase_us_per_violation;
        let (nm_us, na_us, nf_us) = naive.phase_us_per_violation;
        t.row(&[
            format!("{hosts}"),
            format!("{procs}"),
            format!("{}", rete.violations),
            format!("{}", naive.join_work),
            format!("{}", rete.join_work),
            f(ratio, 1),
            format!("{}/{}", naive.p50_us, naive.p95_us),
            format!("{}/{}", rete.p50_us, rete.p95_us),
            format!("{m_us:.2}/{a_us:.2}/{f_us:.2}"),
        ]);
        rows.push(
            BenchRow::new("scale")
                .param("hosts", hosts)
                .param("procs_per_host", procs)
                .param("rounds", rounds)
                .metric("violations", rete.violations as f64)
                .metric("naive_join_work", naive.join_work as f64)
                .metric("rete_join_work", rete.join_work as f64)
                .metric("join_work_ratio", ratio)
                .metric("naive_p50_us", naive.p50_us as f64)
                .metric("naive_p95_us", naive.p95_us as f64)
                .metric("rete_p50_us", rete.p50_us as f64)
                .metric("rete_p95_us", rete.p95_us as f64)
                .metric("rete_wall_us_per_violation", timed.wall_us_per_violation)
                .metric("rete_match_us_per_violation", m_us)
                .metric("rete_agenda_us_per_violation", a_us)
                .metric("rete_fire_us_per_violation", f_us)
                .metric("naive_match_us_per_violation", nm_us)
                .metric("naive_agenda_us_per_violation", na_us)
                .metric("naive_fire_us_per_violation", nf_us),
        );
    }
    println!("Matcher scale sweep: simultaneous violation storms, naive vs incremental");
    println!("{}", t.render());
    println!(
        "largest configuration: {:.1}x less join work with the incremental matcher, \
         identical firing traces everywhere",
        last_ratio
    );
    assert!(
        last_ratio >= 5.0,
        "incremental matcher must cut join work >=5x at the largest \
         configuration (got {last_ratio:.1}x)"
    );
    let walls: Vec<f64> = timed.iter().map(|t| t.wall_us_per_violation).collect();
    let worst = walls.iter().copied().fold(0.0_f64, f64::max);
    let best = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let spread_pct = (worst / best.max(f64::EPSILON) - 1.0) * 100.0;
    println!(
        "incremental per-violation wall cost: {best:.1}..{worst:.1} us across the sweep \
         ({spread_pct:.0}% spread)"
    );
    if let Some(budget) = budget_us {
        eprintln!("wall budget: worst incremental run {worst:.1} us/violation (budget {budget})");
        assert!(
            worst <= budget,
            "incremental matcher wall cost {worst:.1} us/violation exceeds budget {budget}"
        );
    }
    if let Some(max_pct) = flat_pct {
        assert!(
            spread_pct <= max_pct,
            "incremental per-violation wall cost spread {spread_pct:.0}% exceeds {max_pct}% \
             (the scale curve must stay flat)"
        );
    }

    if let Some(domains) = arg_value("--domains").and_then(|v| v.parse::<u32>().ok()) {
        fed_sweep(domains, smoke, budget_us, &mut rows);
    }

    let path = arg_value("--json").unwrap_or_else(|| "BENCH_scale.json".to_string());
    std::fs::write(&path, bench_rows_to_json(&rows)).expect("write benchmark rows");
    eprintln!("benchmark rows written to {path}");

    if telemetry_requested() {
        // Re-run the smallest configuration with one shared instrumented
        // handle and emit the requested artifacts.
        let t = Telemetry::enabled();
        let _ = run_mode_with(20260807, 1, 8, rounds.min(4), false, &t);
        println!("\n{}", telemetry_summary(&t));
        emit_telemetry_outputs(&t).expect("write telemetry artifacts");
    }
}
