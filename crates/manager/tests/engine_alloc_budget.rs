//! Counts of the violation path, pinned exactly (ROADMAP 7a).
//!
//! Per violation the live manager runs the engine loop — build the
//! `violation` fact, `assert_fact`, `run(100)`, `drain_invocations` — and
//! the simulated one runs [`HostCore::step`], inside a round of the
//! simulated plane that also reports, encodes, carries and decodes the
//! violation and emits its stage events. On a saturated manager thread
//! their cost is the system's throughput ceiling, and heap traffic is
//! the easiest way to raise it unnoticed (a binding map cloned per
//! condition element and an index entry per slot once made the engine
//! loop ≈ 82 allocations per violation; a `String` per slot name and a
//! map per fact kept it at 14; two `String`s, a `Vec` and a `String` per
//! field made one stage event cost more than the match). Wall time
//! cannot gate that on a shared runner; these counts repeat exactly, so
//! the tables below are compared with `==`. A change that moves a number
//! edits it here and says why. (Last moved by shared string values,
//! the engine's kept invocation buffer and recycled fact rows, the
//! reporter's frame encoded from borrowed fields and the simulator's
//! kept syscall list: the engine loop 6 → 0 and `HostCore::step` 7 → 0
//! allocations per violation, and a simulated round 18.97 → 3.94 at
//! this file's size, 17.10 → 2.11 at the benchmark's. Before that,
//! allocation-free stage events, the borrowed `Violation` view and the
//! one-allocation frame took a simulated round from 37.04 to 18.97.)
//!
//! The same loops must also hold no memory behind: one permanent fact
//! (the threshold) plus any number of violations passing through is a
//! constant-size working memory, with an empty conflict set — no
//! pending activation, no refraction entry, no by-fact index entry. A
//! burst of activations pending against that permanent fact must leave
//! nothing behind either, once its partners go.
//!
//! So is the instrumented process's side: §7's steady-state pass, which
//! must cost nothing when QoS is met.
//!
//! What a violation costs on the wire is pinned here too: the encoded
//! length of one report shaped as the benchmark's generators send it,
//! alone and in a batch of 64. These back `BENCHMARK.json`'s
//! `wire.bytes_per_violation`: 129 B on `live_rtt` and `live_storm`
//! (plus a 16-byte `SyncReq` per window) and 8 076 / 64 = 126.2 B on
//! `live_storm_batched`.
//!
//! Live bytes are process-wide, so there is one test in this file on
//! purpose: a concurrent test's heap would be measured too.

#[path = "support/counting.rs"]
mod counting;

use counting::{allocs, frees, live_bytes, reallocs};
use qos_core::federation::{Federation, FederationConfig};
use qos_inference::prelude::*;
use qos_manager::host::{HostCore, HostInput, HostView, QosHostManager};
use qos_manager::live::{standard_live_repo, LiveHostManager, LiveProcess};
use qos_manager::messages::{RegisterMsg, ViolationMsg, WireMsg};
use qos_manager::rules::{host_base_facts, host_rules_fair};
use qos_repository::agent::Registration;
use qos_sim::memory::ProcMem;
use qos_sim::proc::HostSnapshot;
use qos_sim::{Dur, HostId, Pid, SimTime};
use qos_telemetry::{FlightRecorder, Name, Stage, Telemetry};
use qos_wire::messages::LiveViolationMsg;
use qos_wire::{BatchBuilder, WireMsgRef};

/// Allocator calls that can move memory: what the engine rows count.
fn heap_calls() -> u64 {
    allocs() + reallocs()
}

/// Frame rate and buffer occupancy of the `i`-th report: the two
/// local-CPU diagnoses (buffer above and below the threshold) and
/// over-achieving, so three rules take turns.
fn readings(i: u64) -> (f64, f64) {
    match i % 3 {
        0 => (12.0, 4000.0),
        1 => (14.5, 10.0),
        _ => (31.0, 10.0),
    }
}

/// What the live manager keeps between violations: the process's name,
/// built once at registration, and the buffer it drains the engine's
/// commands into.
struct Kept {
    violation: Template,
    pid: Value,
    calls: Invocations,
}

/// One violation through the engine, as `ManagerCore::handle_violation`
/// does it: the fact on a row the engine recycled, the registered name
/// shared into it, the commands drained into the kept buffer (slots by
/// name, as the benchmark's replay builds it).
fn violation(engine: &mut Engine, kept: &mut Kept, i: u64) -> (RunStats, usize) {
    let (fps, buffer) = readings(i);
    let fact = engine
        .fact(kept.violation)
        .with("pid", kept.pid.clone())
        .with("fps", fps)
        .with("lo", 23.0)
        .with("hi", 27.0)
        .with("buffer", buffer)
        .with("weight", 1.0)
        .with("has-upstream", false);
    engine.assert_fact(fact);
    let run = engine.run(100);
    engine.drain_invocations(&mut kept.calls);
    (run, kept.calls.len())
}

/// A machine with memory to spare.
struct Roomy;

impl HostView for Roomy {
    fn proc_mem(&self, _: Pid) -> Option<ProcMem> {
        None
    }
    fn host_stats(&self) -> HostSnapshot {
        HostSnapshot {
            load_avg: 0.0,
            mem_utilization: 0.0,
            runnable: 0,
            cpu_busy: Dur::ZERO,
        }
    }
}

/// What a window of the loop under test did.
#[derive(Debug, PartialEq)]
struct Counts {
    /// Heap allocations and reallocations per violation.
    allocs: u64,
    /// Candidate facts the matcher examined per violation.
    join_work: u64,
    /// Rule firings per violation.
    fired: u64,
    /// Facts left in working memory.
    live_facts: usize,
    /// The engine's conflict-set bookkeeping left behind.
    conflict_set: ConflictSet,
}

/// No pending activation, no refraction entry, no by-fact index entry.
const EMPTY: ConflictSet = ConflictSet {
    pending: 0,
    refracted: 0,
    indexed_facts: 0,
};

const WARMUP: u64 = 1_000;
const MEASURED: u64 = 200_000;

/// `total` over the window as a whole number per violation, which every
/// count here is in steady state.
fn per_violation(total: u64) -> u64 {
    assert_eq!(total % MEASURED, 0, "{total} over {MEASURED} violations");
    total / MEASURED
}

/// Heap growth over a window must stay under this: a leak of even one
/// byte per violation would be 200 kB.
fn assert_no_growth(what: &str, growth: i64) {
    assert!(
        growth < 16 * 1024,
        "{what}: heap grew by {growth} B over {MEASURED} violations with one live fact"
    );
}

fn engine_loop() -> Counts {
    let mut engine = Engine::new();
    for rule in parse_program(&host_rules_fair()).unwrap().rules {
        engine.add_rule(rule);
    }
    for fact in parse_program(&host_base_facts()).unwrap().facts {
        engine.assert_fact(fact);
    }
    let mut kept = Kept {
        violation: Template::named("violation"),
        pid: Value::str("h0:p7"),
        calls: Invocations::default(),
    };
    for i in 0..WARMUP {
        violation(&mut engine, &mut kept, i);
    }
    // The retained trace is a bounded ring; drain it so the window below
    // starts and ends with it in the same state.
    engine.take_trace();

    let allocs_before = heap_calls();
    let bytes_before = live_bytes();
    let (mut fired, mut join_work) = (0, 0);
    for i in 0..MEASURED {
        let (run, invocations) = violation(&mut engine, &mut kept, WARMUP + i);
        fired += run.fired;
        join_work += run.activations;
        assert_eq!(invocations, 1);
    }
    let allocs = heap_calls() - allocs_before;
    engine.take_trace();
    assert_no_growth("engine loop", live_bytes() - bytes_before);
    Counts {
        allocs: per_violation(allocs),
        join_work: per_violation(join_work),
        fired: per_violation(fired),
        live_facts: engine.facts().len(),
        conflict_set: engine.conflict_set(),
    }
}

/// The same three diagnoses through [`HostCore::step`], telemetry off,
/// from one registered process. The core reads the violation as a view,
/// as it does of a frame; here the view is of one message rewritten in
/// place per report, so the loop allocates nothing of its own.
fn host_core_loop() -> Counts {
    let host = HostId(0);
    let pid = Pid { host, local: 7 };
    let mut report = ViolationMsg {
        pid,
        proc_name: "vidplayer".into(),
        policy: "fps".into(),
        corr: 0,
        readings: vec![("frame_rate".into(), 0.0), ("buffer_size".into(), 0.0)],
        bounds: Some(("frame_rate".into(), 23.0, 27.0)),
        upstream: None,
    };

    let mut core = HostCore::new(None);
    core.set_engine_trace_capacity(16);
    let mut out = Vec::new();
    let mut feed = |core: &mut HostCore, at_ms: u64, msg: WireMsgRef<'_>| {
        out.clear();
        let now = SimTime::from_micros(at_ms * 1_000);
        core.step(now, host, HostInput::Msg(msg), &Roomy, &mut out);
    };
    feed(
        &mut core,
        0,
        WireMsgRef::Owned(WireMsg::Register(RegisterMsg {
            pid,
            control_port: 100,
            executable: "vidplayer".into(),
            application: "video".into(),
            role: "student".into(),
            weight: 1.0,
            heartbeat: None,
        })),
    );
    let mut violate = |core: &mut HostCore, i: u64| {
        let (fps, buffer) = readings(i);
        report.corr = i + 1;
        report.readings[0].1 = fps;
        report.readings[1].1 = buffer;
        feed(core, i, WireMsgRef::Violation(report.as_view()));
    };
    for i in 0..WARMUP {
        violate(&mut core, i);
    }
    let join_before = core.engine_join_work();
    let violations_before = core.stats.violations;
    core.take_engine_trace();

    let allocs_before = heap_calls();
    let bytes_before = live_bytes();
    for i in WARMUP..WARMUP + MEASURED {
        violate(&mut core, i);
    }
    let allocs = heap_calls() - allocs_before;
    assert_no_growth("HostCore::step", live_bytes() - bytes_before);
    assert_eq!(core.stats.violations - violations_before, MEASURED);
    assert_eq!(core.stats.dup_violations + core.stats.stale_violations, 0);
    // The ring holds the last 16 firings: one per violation means the
    // last 16 violations' rules, in rotation.
    let trace = core.take_engine_trace();
    assert_eq!(trace.len(), 16);
    Counts {
        allocs: per_violation(allocs),
        join_work: per_violation(core.engine_join_work() - join_before),
        // Every admitted violation is consumed by exactly one rule, or
        // a `violation` fact would be left behind below.
        fired: 1,
        live_facts: core.facts_of("threshold")
            + core.facts_of("violation")
            + core.facts_of("alloc"),
        conflict_set: core.engine_conflict_set(),
    }
}

/// What the conflict set held at each point of [`burst`].
#[derive(Debug, PartialEq)]
struct Burst {
    /// Every partner asserted, nothing run.
    pending: ConflictSet,
    /// Firings of the partial run.
    fired: u64,
    /// Every even-numbered partner retracted.
    halfway: ConflictSet,
    /// Every partner retracted.
    after: ConflictSet,
}

const BURST: i64 = 10_000;
const BURST_FIRED: u64 = 1_000;

/// [`BURST`] activations pending at once, each joining one partner fact
/// to the permanent threshold; a run fires the newest [`BURST_FIRED`]
/// (the rule does not consume its activation, so each firing files a
/// refraction entry); then the partners go, evens first.
fn burst(engine: &mut Engine) -> Burst {
    let partners: Vec<FactId> = (0..BURST)
        .map(|n| engine.assert_fact(Fact::new("partner").with("n", n)))
        .collect();
    let pending = engine.conflict_set();
    let fired = engine.run(BURST_FIRED).fired;
    for &id in partners.iter().step_by(2) {
        engine.retract(id);
    }
    let halfway = engine.conflict_set();
    for &id in partners.iter().skip(1).step_by(2) {
        engine.retract(id);
    }
    Burst {
        pending,
        fired,
        halfway,
        after: engine.conflict_set(),
    }
}

/// Two bursts through one engine: the first sets the high-water mark of
/// the agenda's slab, heap and index, the second must not grow the heap.
fn bursts() -> Burst {
    let mut engine = Engine::new();
    engine.add_rule(
        Rule::new("partnered")
            .when(Pattern::new("partner").slot_var("n", "n"))
            .when(
                Pattern::new("threshold")
                    .slot_const("name", "buffer-cutoff")
                    .slot_var("value", "t"),
            )
            .then_call("partnered", vec![Term::var("n")]),
    );
    for fact in parse_program(&host_base_facts()).unwrap().facts {
        engine.assert_fact(fact);
    }
    let first = burst(&mut engine);
    engine.take_invocations();
    engine.take_trace();
    let bytes_before = live_bytes();
    let second = burst(&mut engine);
    engine.take_invocations();
    engine.take_trace();
    let growth = live_bytes() - bytes_before;
    println!("second burst of {BURST}: heap grew by {growth} B");
    assert!(
        growth < 16 * 1024,
        "a second burst of {BURST} pending activations grew the heap by {growth} B"
    );
    assert_eq!(first, second);
    assert_eq!(engine.facts().len(), 1, "the threshold alone");
    second
}

/// What a window of simulated rounds did, as totals: at this size a
/// round's discovery and liveness traffic is not a whole number per
/// violation, but the totals repeat exactly.
#[derive(Debug, PartialEq)]
struct SimRounds {
    violations: u64,
    allocs: u64,
    reallocs: u64,
    /// `World::events_processed` over the window.
    events: u64,
}

const SIM_WARM_ROUNDS: u64 = 50;
const SIM_ROUNDS: u64 = 200;

/// The benchmark's `sim_federation` storm at a size a test can afford:
/// 1 domain × 2 hosts × 8 reporters, every reporter firing one violation
/// per round at its host manager, telemetry enabled (the correlation ids
/// keep the reports distinct) with a ring small enough to be turning
/// over, as the benchmark's is. `None` in a `telemetry-off` build, where
/// every report carries correlation id 0 and all but the first are
/// folded as duplicates.
fn sim_rounds() -> Option<SimRounds> {
    let telemetry = Telemetry::with_capacity(1024);
    if !telemetry.is_enabled() {
        return None;
    }
    let cfg = FederationConfig {
        seed: 11,
        domains: 1,
        hosts: 2,
        reporters_per_host: 8,
        rounds: u32::MAX / 2,
        cross_domain_upstreams: false,
        telemetry: telemetry.clone(),
        ..FederationConfig::default()
    };
    let mut fed = Federation::build(&cfg);
    let rounds = |n: u64| Dur::from_micros(cfg.interval.as_micros() * n);
    let violations = |fed: &Federation| -> u64 {
        fed.hms
            .iter()
            .filter_map(|&pid| fed.world.logic::<QosHostManager>(pid))
            .map(|hm| hm.stats.violations)
            .sum()
    };
    fed.world.run_for(rounds(SIM_WARM_ROUNDS));
    assert_eq!(fed.bound_hosts(), 2);
    assert!(telemetry.events_dropped() > 0, "the ring must be full");

    let before = (
        violations(&fed),
        allocs(),
        reallocs(),
        fed.world.events_processed(),
    );
    fed.world.run_for(rounds(SIM_ROUNDS));
    Some(SimRounds {
        violations: violations(&fed) - before.0,
        allocs: allocs() - before.1,
        reallocs: reallocs() - before.2,
        events: fed.world.events_processed() - before.3,
    })
}

/// Heap calls of warmed stage events into a ring that is turning over.
#[derive(Debug, PartialEq)]
struct StageEvents {
    allocs: u64,
    reallocs: u64,
    /// Every event evicts one, so a free here is an eviction's.
    frees: u64,
    /// Records the flight recorder accepted.
    records: u64,
}

const STAGE_EVENTS: u64 = 10_000;

/// [`STAGE_EVENTS`] Diagnose events shaped as `HostCore` emits them —
/// a component the emitter holds, a policy name off the wire, five
/// fields — into a capacity-8 ring, after as many to warm it; with a
/// ring-only flight recorder attached when `recorded`. All zeroes in a
/// `telemetry-off` build, trivially: the same call compiles to nothing.
fn stage_events(recorded: bool) -> StageEvents {
    let t = Telemetry::with_capacity(8);
    // Small enough to be evicting, like the event ring.
    let recorder = FlightRecorder::new(4096);
    if recorded {
        t.set_recorder(Some(recorder.clone()));
    }
    let component = Name::from_fmt(format_args!("hm:h{}", 7));
    let keys = ["fired", "cycles", "activations", "peak_agenda", "facts"].map(Name::from_static);
    let emit = |i: u64| {
        let fields = keys.clone().map(|k| (k, i as f64));
        t.stage(i, i + 1, Stage::Diagnose, &component, "fed-report", &fields);
    };
    (0..STAGE_EVENTS).for_each(emit);
    let before = (allocs(), reallocs(), frees(), recorder.records());
    (STAGE_EVENTS..2 * STAGE_EVENTS).for_each(emit);
    let counts = StageEvents {
        allocs: allocs() - before.0,
        reallocs: reallocs() - before.1,
        frees: frees() - before.2,
        records: recorder.records() - before.3,
    };
    if t.is_enabled() {
        assert_eq!(t.events_dropped(), 2 * STAGE_EVENTS - 8);
    }
    counts
}

/// What [`PASSES`] instrumentation passes did, after as many warm ones.
#[derive(Debug, PartialEq)]
struct Passes {
    buffer_allocs: u64,
    buffer_reports: usize,
    frame_allocs: u64,
}

const WARM_PASSES: u64 = 10_000;
const PASSES: u64 = 100_000;

/// §7's pass on a live process registered with a live manager: a
/// healthy buffer sample (QoS met, experiment E3), and a frame pass
/// (fps and jitter probes). The manager's thread counts apart, and is
/// gone before any live-bytes read.
fn live_passes() -> Passes {
    let (repo, mut agent) = standard_live_repo();
    let mgr = LiveHostManager::builder().spawn().expect("live manager");
    let reg = Registration {
        process: "bench:0".into(),
        executable: "VideoApplication".into(),
        application: "VideoPlayback".into(),
        role: "*".into(),
    };
    let mut p = LiveProcess::start(&reg, &repo, &mut agent, mgr.connect()).expect("registered");
    let buffer_passes = |p: &mut LiveProcess, range: std::ops::Range<u64>| -> usize {
        range.map(|i| p.buffer_pass(100 + (i & 0xff))).sum()
    };
    buffer_passes(&mut p, 0..WARM_PASSES);
    let before = allocs();
    let buffer_reports = buffer_passes(&mut p, WARM_PASSES..WARM_PASSES + PASSES);
    let buffer_allocs = allocs() - before;
    for _ in 0..WARM_PASSES {
        p.frame_pass();
    }
    let before = allocs();
    for _ in 0..PASSES {
        p.frame_pass();
    }
    let frame_allocs = allocs() - before;
    mgr.shutdown();
    Passes {
        buffer_allocs,
        buffer_reports,
        frame_allocs,
    }
}

/// Reports per batch frame on `live_storm_batched`.
const BATCH: u64 = 64;

/// Encoded bytes of one report as the benchmark's client 0 sends it —
/// its policy, process name, sequence number, correlation id and three
/// readings — as a frame of its own and as a batch frame of [`BATCH`].
fn wire_bytes() -> (usize, usize) {
    let report = |seq: u64| {
        WireMsg::LiveViolation(LiveViolationMsg {
            policy: "NotifyQoSViolation".into(),
            process: "bench:0".into(),
            at_us: seq,
            corr: (1 << 40) | seq,
            readings: vec![
                ("frame_rate".into(), 12.5),
                ("jitter_rate".into(), 1.5),
                ("buffer_size".into(), 4000.0),
            ],
        })
    };
    let mut batch = BatchBuilder::new();
    for seq in 1..=BATCH {
        batch.push(&report(seq));
    }
    let mut batch_frame = Vec::new();
    batch.append_frame_to(&mut batch_frame);
    (report(1).encode_frame().len(), batch_frame.len())
}

#[test]
fn violation_path_stays_within_its_allocation_budget_and_leaks_nothing() {
    // §7's ≈ 11 µs pass, counted: a pass that meets QoS allocates
    // nothing and tells the manager nothing, and a frame pass allocates
    // nothing either.
    let got = live_passes();
    println!("live passes: {got:?} over {PASSES}");
    assert_eq!(
        got,
        Passes {
            buffer_allocs: 0,
            buffer_reports: 0,
            frame_allocs: 0,
        }
    );

    // Every field of a report is fixed-width or a name, so these do not
    // depend on the values: 8 header + 22 policy + 11 process + 16 for
    // the two u64s + 4 + 68 for the readings; a batch adds 12 bytes of
    // header and count, then 5 bytes of kind and length per body.
    let (single, batched) = wire_bytes();
    println!(
        "wire: {single} B per report frame, {batched} B per batch of {BATCH} ({:.1} B each)",
        batched as f64 / BATCH as f64
    );
    assert_eq!((single, batched), (129, 8_076));

    let table = [
        (
            "engine loop",
            engine_loop(),
            // Nothing: the fact's row is the one the rule's retract gave
            // back, the pid is the registered name shared, the command
            // is the rule's name shared, and the arguments and the
            // drained commands land in buffers both sides keep. No name
            // is allocated, hashed or compared.
            Counts {
                allocs: 0,
                join_work: 7,
                fired: 1,
                live_facts: 1,
                conflict_set: EMPTY,
            },
        ),
        (
            "HostCore::step",
            host_core_loop(),
            // Nothing, as the engine loop, and the `attr` symbol is the
            // one kept from the first report. The process sits at its
            // boost cap, so no command lands; no fact is asserted for a
            // template no loaded rule reads (`alloc`), and no label is
            // formatted or counter looked up.
            Counts {
                allocs: 0,
                join_work: 7,
                fired: 1,
                live_facts: 1,
                conflict_set: EMPTY,
            },
        ),
    ];
    println!(
        "{:<16} {:>12} {:>12} {:>8} {:>11} {:>26}",
        "per violation",
        "allocations",
        "join work",
        "fired",
        "live facts",
        "pending/refracted/indexed"
    );
    for (name, got, _) in &table {
        let cs = got.conflict_set;
        println!(
            "{name:<16} {:>12} {:>12} {:>8} {:>11} {:>26}",
            got.allocs,
            got.join_work,
            got.fired,
            got.live_facts,
            format!("{}/{}/{}", cs.pending, cs.refracted, cs.indexed_facts)
        );
    }
    for (name, got, pinned) in table {
        assert_eq!(got, pinned, "{name}");
    }

    // A burst of pending activations against the permanent threshold:
    // every one is indexed under its partner and the threshold, and the
    // threshold's list gives each up in O(1) as its partner goes. The
    // refraction entries follow the live facts the rule fired on (the
    // odd-numbered of the newest thousand), not its firings.
    let got = bursts();
    println!("burst of {BURST}: {got:?}");
    assert_eq!(
        got,
        Burst {
            pending: ConflictSet {
                pending: BURST as usize,
                refracted: 0,
                indexed_facts: BURST as usize + 1,
            },
            fired: BURST_FIRED,
            halfway: ConflictSet {
                pending: 4_500,
                refracted: 500,
                indexed_facts: 4_501,
            },
            after: EMPTY,
        }
    );

    // One stage event, warmed: nothing allocated, nothing moved, and
    // nothing freed by the event it evicts — with the flight recorder
    // attached too, whose ring recycles the evicted record's buffer, and
    // which then records every event (none where probes compile out).
    for recorded in [false, true] {
        let got = stage_events(recorded);
        println!("stage events (recorder attached: {recorded}): {got:?} over {STAGE_EVENTS}");
        let records = if recorded && Telemetry::enabled().is_enabled() {
            STAGE_EVENTS
        } else {
            0
        };
        let want = StageEvents {
            allocs: 0,
            reallocs: 0,
            frees: 0,
            records,
        };
        assert_eq!(got, want, "recorder attached: {recorded}");
    }

    let Some(got) = sim_rounds() else {
        println!("simulated rounds: skipped (telemetry compiled out)");
        return;
    };
    let per = |n: u64| n as f64 / got.violations as f64;
    println!(
        "simulated round   {:.2} allocations, {:.3} reallocations, {:.2} events per violation \
         ({} violations)",
        per(got.allocs),
        per(got.reallocs),
        per(got.events),
        got.violations
    );
    // Per violation: the reporter's frame (1) and the box the simulator
    // carries it in (1), and ≈ 1.9 of discovery leases, liveness sweeps
    // and the simulator's own bookkeeping, shared by 16 reporters here.
    // The reporter encodes from borrowed fields, each callback's syscall
    // list is the world's kept buffer, and `HostCore::step` allocates
    // nothing (above). The Detect and Diagnose events, the pid string
    // and the manager's decode allocate nothing. The reallocations are
    // the event queue's: an instant's FIFO that grew past the 16 events
    // it keeps (the round's timers share one) is freed, and the next
    // such instant grows its own. At the benchmark's 100 hosts × 100
    // reporters: 2.11 / 0.10 / 6.03 per violation (EXPERIMENTS E26;
    // 17.10 / 0.05 before, 35.10 / 5.93 before E22); here 3.94 / 0.080
    // (18.97 / 0.005 before).
    assert_eq!(
        got,
        SimRounds {
            violations: SIM_ROUNDS * 16,
            allocs: 12_593,
            reallocs: 256,
            events: 20_759,
        }
    );
}
