//! `sim_federation`: a violation storm through the simulated plane.
//!
//! `Federation::build` assembles 4 leaf domains, 100 managed hosts and
//! 100 reporters per host (10k instrumented processes) under one
//! discovery server; every reporter fires one violation per 200 ms
//! round at its host's `QosHostManager`. Everything runs on the calling
//! thread in virtual time, so the work is `host.rs`, `qos-sim`,
//! `qos-discovery` and the sim transport codec — no sockets, no
//! `live.rs`. Telemetry is enabled so each report carries a distinct
//! correlation id (the managers fold identical ones), and upstreams are
//! off so every violation is diagnosed locally.
//!
//! The loop is closed by construction: a round's wall time is however
//! long the harness thread takes to simulate it.

use std::io;
use std::time::Instant;

use qos_core::discovery::DiscStats;
use qos_core::prelude::{
    Dur, FedReporter, Federation, FederationConfig, QosHostManager, Stage as LifecycleStage,
    Telemetry,
};

use crate::ledger::{self, Ledger, Snapshot};
use crate::measure::{self, Outcome, Params, Sample, Timing, Values, SUB_WINDOWS};
use crate::stats;
use crate::trace::{Stage, Tracer};

/// Set-ups per run; each takes about 30 ms.
const SETUP_REPS: usize = 21;
const DOMAINS: u32 = 4;
const HOSTS: u32 = 100;
const REPORTERS_PER_HOST: u32 = 100;
/// Violations per round.
const PER_ROUND: u64 = HOSTS as u64 * REPORTERS_PER_HOST as u64;
const INTERVAL: Dur = Dur::from_millis(200);
/// Simulated time discovery is given to bind every host (set-up, and
/// the floor on a session's length before the bound-hosts check).
const CONVERGENCE: Dur = Dur::from_secs(2);
/// Rounds each reporter is armed with: more than any window can use, so
/// the harness — not the reporter — decides when the storm ends.
const ARMED_ROUNDS: u32 = u32::MAX / 2;
/// Rounds after the storm for the last reports to drain.
const DRAIN_ROUNDS: u64 = 3;

fn config(seed: u64, rounds: u32) -> FederationConfig {
    FederationConfig {
        seed,
        domains: DOMAINS,
        hosts: HOSTS,
        reporters_per_host: REPORTERS_PER_HOST,
        rounds,
        interval: INTERVAL,
        cross_domain_upstreams: false,
        telemetry: Telemetry::enabled(),
        ..FederationConfig::default()
    }
}

fn violations(fed: &Federation) -> u64 {
    fed.hms
        .iter()
        .filter_map(|&pid| fed.world.logic::<QosHostManager>(pid))
        .map(|hm| hm.stats.violations)
        .sum()
}

/// `Federation::build` plus discovery convergence with the reporters
/// quiet, `reps` times; returns the seconds each took.
fn measure_setup(seed: u64, reps: usize, tracer: &mut Tracer) -> io::Result<Vec<f64>> {
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let mut fed = Federation::build(&config(seed, 0));
        tracer.span(0, Stage::SimBuild, t0, Instant::now(), 0, 1);
        fed.world.run_for(CONVERGENCE);
        secs.push(t0.elapsed().as_secs_f64());
        if fed.bound_hosts() != HOSTS as usize {
            return Err(io::Error::other(format!(
                "set-up bound {} of {HOSTS} hosts",
                fed.bound_hosts()
            )));
        }
    }
    Ok(secs)
}

/// One federation's life: warm-up rounds, measured rounds, drain.
struct Session {
    samples: Vec<Sample>,
    ledger: Ledger,
    /// Wall time of each measured round, µs.
    round_us: Vec<f64>,
    /// Violations the managers counted in the measured rounds.
    violations: u64,
    /// `World::events_processed` over the measured rounds.
    events: u64,
    /// Wall time of the measured rounds, s.
    wall_s: f64,
    /// Violations the reporters fired over the whole session.
    fired: u64,
    /// Violations the managers counted over the whole session.
    counted: u64,
    bound_hosts: usize,
    shards: Vec<usize>,
    disc: DiscStats,
    join_work: u64,
    /// Engine phase profile summed over the managers, ns (traced only).
    phases: (u64, u64, u64),
    /// Simulated Detect → Diagnose latencies still in the event ring, µs.
    diagnose_us: Vec<f64>,
}

/// `tracer` is given for the traced session only, which also turns on
/// the managers' engine phase profile.
fn session(seed: u64, t: Timing, mut tracer: Option<&mut Tracer>) -> io::Result<Session> {
    let cfg = config(seed, ARMED_ROUNDS);
    let mut fed = Federation::build(&cfg);
    if tracer.is_some() {
        for &pid in &fed.hms {
            if let Some(hm) = fed.world.logic_mut::<QosHostManager>(pid) {
                hm.enable_engine_phase_profile(true);
            }
        }
    }
    let mut round = 0u64;
    let mut run_round = |fed: &mut Federation| {
        round += 1;
        let t0 = Instant::now();
        fed.world.run_for(INTERVAL);
        let t1 = Instant::now();
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.span(0, Stage::SimRound, t0, t1, round, PER_ROUND as u32);
        }
        t1.duration_since(t0)
    };

    let warm = Instant::now();
    while warm.elapsed() < t.warmup {
        run_round(&mut fed);
    }

    // Measured rounds, grouped into sub-windows of whole rounds.
    let before = Snapshot::take()?;
    let start = Instant::now();
    let (v0, e0) = (violations(&fed), fed.world.events_processed());
    let mut samples = vec![Sample::now(v0)?];
    let mut round_us = Vec::new();
    for k in 1..=SUB_WINDOWS as u32 {
        let due = t.window * k / SUB_WINDOWS as u32;
        loop {
            round_us.push(run_round(&mut fed).as_secs_f64() * 1e6);
            if start.elapsed() >= due {
                break;
            }
        }
        samples.push(Sample::now(violations(&fed))?);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let after = Snapshot::take()?;
    let (v1, e1) = (violations(&fed), fed.world.events_processed());

    // Disarm the reporters, then let the last reports drain and — in a
    // run too short for it — discovery finish binding.
    let mut fired = 0u64;
    for &pid in &fed.reporters {
        let r = fed
            .world
            .logic_mut::<FedReporter>(pid)
            .ok_or_else(|| io::Error::other("reporter logic missing"))?;
        fired += u64::from(ARMED_ROUNDS - r.rounds);
        r.rounds = 0;
    }
    let simulated = INTERVAL.as_micros() * round;
    let drain = (INTERVAL.as_micros() * DRAIN_ROUNDS)
        .max(CONVERGENCE.as_micros().saturating_sub(simulated));
    fed.world.run_for(Dur::from_micros(drain));

    let mut join_work = 0;
    let mut phases = (0, 0, 0);
    for &pid in &fed.hms {
        if let Some(hm) = fed.world.logic_mut::<QosHostManager>(pid) {
            join_work += hm.engine_join_work();
            let prof = hm.take_engine_phase_profile();
            phases.0 += prof.match_ns;
            phases.1 += prof.agenda_ns;
            phases.2 += prof.fire_ns;
        }
    }
    let diagnose_us = stats::sorted(
        cfg.telemetry
            .lifecycles()
            .iter()
            .filter_map(|lc| {
                let detect = lc.stage_at(LifecycleStage::Detect)?;
                let diagnose = lc.stage_at(LifecycleStage::Diagnose)?;
                Some(diagnose.saturating_sub(detect) as f64)
            })
            .collect(),
    );
    Ok(Session {
        samples,
        ledger: Ledger::between(&before, &after),
        round_us,
        violations: v1 - v0,
        events: e1 - e0,
        wall_s,
        fired,
        counted: violations(&fed),
        bound_hosts: fed.bound_hosts(),
        shards: fed.shard_sizes(),
        disc: fed.disc_stats(),
        join_work,
        phases,
        diagnose_us,
    })
}

impl Session {
    /// The output checks of the issue: every host bound, the shards
    /// partition the host set, every fired violation counted.
    fn check(&self, what: &str, out: &mut Outcome) {
        out.check(self.bound_hosts == HOSTS as usize, || {
            format!(
                "sim_federation ({what}): {} of {HOSTS} hosts bound",
                self.bound_hosts
            )
        });
        out.check(
            self.shards.len() == DOMAINS as usize
                && self.shards.iter().sum::<usize>() == HOSTS as usize,
            || {
                format!(
                    "sim_federation ({what}): shard sizes {:?} do not partition {HOSTS} hosts",
                    self.shards
                )
            },
        );
        out.check(self.counted == self.fired, || {
            format!(
                "sim_federation ({what}): reporters fired {} violations, managers counted {}",
                self.fired, self.counted
            )
        });
        out.attempted += self.fired;
        out.failed += self.fired.saturating_sub(self.counted)
            + (HOSTS as usize).saturating_sub(self.bound_hosts) as u64;
    }
}

fn per_layer(plain: &Session, traced: &Session, out: &mut Outcome) {
    let mut m = Values::new();
    measure::ledger_metrics(&plain.ledger, plain.violations, &mut m);
    m.push((
        "trace.overhead_share",
        measure::overhead_share(&plain.samples, &traced.samples),
    ));
    let v = plain.violations.max(1) as f64;
    let tv = traced.violations.max(1) as f64;
    let phase_us = |ns: u64| ns as f64 / 1e3 / traced.counted.max(1) as f64;
    let (match_us, agenda_us, fire_us) = (
        phase_us(traced.phases.0),
        phase_us(traced.phases.1),
        phase_us(traced.phases.2),
    );
    m.extend([
        ("sim.events_per_violation", plain.events as f64 / v),
        ("sim.events_per_s", plain.events as f64 / plain.wall_s),
        ("sim.match_us", match_us),
        ("sim.agenda_us", agenda_us),
        ("sim.fire_us", fire_us),
        (
            "sim.join_work_per_violation",
            plain.join_work as f64 / plain.counted.max(1) as f64,
        ),
        // Wall per violation of the profiled run minus what its engine
        // phases explain: event queue, scheduler, network model, codec.
        (
            "sim.unattributed_us",
            traced.wall_s * 1e6 / tv - (match_us + agenda_us + fire_us),
        ),
        (
            "sim.diagnose_p50_us",
            stats::percentile(&plain.diagnose_us, 0.50),
        ),
        (
            "sim.diagnose_p95_us",
            stats::percentile(&plain.diagnose_us, 0.95),
        ),
        ("discovery.route_pushes", plain.disc.route_pushes as f64),
        (
            "discovery.entries_per_push",
            plain.disc.pushed_host_entries as f64 / plain.disc.route_pushes.max(1) as f64,
        ),
        ("discovery.bound_hosts", plain.bound_hosts as f64),
    ]);
    out.per_layer = m;
}

/// Run the simulated-federation workload.
pub fn run(p: &Params) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(Instant::now(), 0);
    let setup = measure_setup(p.seed, p.setup_reps(SETUP_REPS), &mut tracer)?;
    let plain = session(p.seed, p.plain(), None)?;
    plain.check("untraced", &mut out);
    let rounds = stats::sorted(plain.round_us.clone());
    out.end_to_end = vec![
        ("setup_s", stats::median_of(&setup)),
        (
            "violations_per_s",
            measure::violations_per_s(&plain.samples),
        ),
        (
            "cpu_us_per_violation",
            measure::cpu_us_per_violation(&plain.samples),
        ),
        ("rtt_p50_us", stats::median(&rounds)),
    ];
    let peak_rss_mb = ledger::peak_rss_mb()?;
    out.notes.push(format!(
        "sim_federation: {} violations in {} measured rounds, {} set-ups",
        plain.violations,
        rounds.len(),
        setup.len()
    ));
    if !p.trace {
        return Ok(out);
    }
    let traced = session(p.seed, p.traced(), Some(&mut tracer))?;
    traced.check("traced", &mut out);
    per_layer(&plain, &traced, &mut out);
    out.per_layer.push(("mem.peak_rss_mb", peak_rss_mb));
    out.tracer = Some(tracer);
    Ok(out)
}
