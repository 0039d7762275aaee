//! Counts of the violation path, pinned exactly (ROADMAP 7a).
//!
//! Per violation the live manager runs the engine loop — build the
//! `violation` fact, `assert_fact`, `run(100)`, `take_invocations` — and
//! the simulated one runs [`HostCore::step`]. On a saturated manager
//! thread their cost is the system's throughput ceiling, and heap
//! traffic is the easiest way to raise it unnoticed (a binding map
//! cloned per condition element and an index entry per slot once made it
//! ≈ 82 allocations per violation; a `String` per slot name and a map
//! per fact kept it at 14). Wall time cannot gate that on a shared
//! runner; these counts repeat exactly, so the table below is compared
//! with `==`. A change that moves a number edits it here and says why.
//! (Last moved by slot-addressed facts and the read-set gate: engine
//! loop 14 → 6, `HostCore::step` 22 → 7 and one live fact fewer.)
//!
//! The same loops must also hold no memory behind: one permanent fact
//! (the threshold) plus any number of violations passing through is a
//! constant-size working memory.
//!
//! Allocations are counted per thread — the test harness's own threads
//! allocate now and then, and an exact count cannot absorb that. Live
//! bytes are process-wide, so there is one test in this file on purpose:
//! a concurrent test's heap would be measured too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};

use qos_inference::prelude::*;
use qos_manager::host::{HostCore, HostInput, HostView};
use qos_manager::messages::{RegisterMsg, ViolationMsg, WireMsg};
use qos_manager::rules::{host_base_facts, host_rules_fair};
use qos_sim::memory::ProcMem;
use qos_sim::proc::HostSnapshot;
use qos_sim::{Dur, HostId, Pid, SimTime};

struct Counting;

thread_local! {
    /// Allocations and reallocations made by this thread. No destructor,
    /// so the allocator may touch it at any point of a thread's life.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

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

/// One violation through the engine, as `ManagerCore::handle_msg` does
/// it (by name, as the benchmark's replay builds it).
fn violation(engine: &mut Engine, i: u64) -> (RunStats, usize) {
    let (fps, buffer) = readings(i);
    engine.assert_fact(
        Fact::new("violation")
            .with("pid", Value::str("h0:p7"))
            .with("fps", fps)
            .with("lo", 23.0)
            .with("hi", 27.0)
            .with("buffer", buffer)
            .with("weight", 1.0)
            .with("has-upstream", false),
    );
    let run = engine.run(100);
    (run, engine.take_invocations().len())
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
    /// Heap allocations (and reallocations) per violation.
    allocs: u64,
    /// Candidate facts the matcher examined per violation.
    join_work: u64,
    /// Rule firings per violation.
    fired: u64,
    /// Facts left in working memory.
    live_facts: usize,
}

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
    for i in 0..WARMUP {
        violation(&mut engine, i);
    }
    // The retained trace is a bounded ring; drain it so the window below
    // starts and ends with it in the same state.
    engine.take_trace();

    let allocs_before = allocs();
    let bytes_before = LIVE_BYTES.load(Ordering::Relaxed);
    let (mut fired, mut join_work) = (0, 0);
    for i in 0..MEASURED {
        let (run, invocations) = violation(&mut engine, WARMUP + i);
        fired += run.fired;
        join_work += run.activations;
        assert_eq!(invocations, 1);
    }
    let allocs = allocs() - allocs_before;
    engine.take_trace();
    assert_no_growth(
        "engine loop",
        LIVE_BYTES.load(Ordering::Relaxed) - bytes_before,
    );
    Counts {
        allocs: per_violation(allocs),
        join_work: per_violation(join_work),
        fired: per_violation(fired),
        live_facts: engine.facts().len(),
    }
}

/// The same three diagnoses through [`HostCore::step`], telemetry off,
/// from one registered process. The message is the caller's (decoded
/// off the wire), so its own allocations are counted apart and taken
/// out.
fn host_core_loop() -> Counts {
    let host = HostId(0);
    let pid = Pid { host, local: 7 };
    let report = |i: u64| {
        let (fps, buffer) = readings(i);
        ViolationMsg {
            pid,
            proc_name: "vidplayer".into(),
            policy: "fps".into(),
            corr: i + 1,
            readings: vec![("frame_rate".into(), fps), ("buffer_size".into(), buffer)],
            bounds: Some(("frame_rate".into(), 23.0, 27.0)),
            upstream: None,
        }
    };
    let before = allocs();
    drop(report(0));
    let allocs_per_report = allocs() - before;

    let mut core = HostCore::new(None);
    core.set_engine_trace_capacity(16);
    let mut out = Vec::new();
    let mut feed = |core: &mut HostCore, at_ms: u64, msg: WireMsg| {
        out.clear();
        let now = SimTime::from_micros(at_ms * 1_000);
        core.step(now, host, HostInput::Msg(msg), &Roomy, &mut out);
    };
    feed(
        &mut core,
        0,
        WireMsg::Register(RegisterMsg {
            pid,
            control_port: 100,
            executable: "vidplayer".into(),
            application: "video".into(),
            role: "student".into(),
            weight: 1.0,
            heartbeat: None,
        }),
    );
    for i in 0..WARMUP {
        feed(&mut core, i, WireMsg::Violation(report(i)));
    }
    let join_before = core.engine_join_work();
    let violations_before = core.stats.violations;
    core.take_engine_trace();

    let allocs_before = allocs();
    let bytes_before = LIVE_BYTES.load(Ordering::Relaxed);
    for i in WARMUP..WARMUP + MEASURED {
        feed(&mut core, i, WireMsg::Violation(report(i)));
    }
    let allocs = allocs() - allocs_before - MEASURED * allocs_per_report;
    assert_no_growth(
        "HostCore::step",
        LIVE_BYTES.load(Ordering::Relaxed) - bytes_before,
    );
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
    }
}

#[test]
fn violation_path_stays_within_its_allocation_budget_and_leaks_nothing() {
    let table = [
        (
            "engine loop",
            engine_loop(),
            // The fact's row and its pid string (2), the invocation's
            // command, argument vector and pid (3), the drained outbox
            // (1). No name is allocated, hashed or compared.
            Counts {
                allocs: 6,
                join_work: 7,
                fired: 1,
                live_facts: 1,
            },
        ),
        (
            "HostCore::step",
            host_core_loop(),
            // The engine loop's six and the `attr` symbol. The process
            // sits at its boost cap, so no command lands; no fact is
            // asserted for a template no loaded rule reads (`alloc`), and
            // no label is formatted or counter looked up.
            Counts {
                allocs: 7,
                join_work: 7,
                fired: 1,
                live_facts: 1,
            },
        ),
    ];
    println!(
        "{:<16} {:>12} {:>12} {:>8} {:>11}",
        "per violation", "allocations", "join work", "fired", "live facts"
    );
    for (name, got, _) in &table {
        println!(
            "{name:<16} {:>12} {:>12} {:>8} {:>11}",
            got.allocs, got.join_work, got.fired, got.live_facts
        );
    }
    for (name, got, pinned) in table {
        assert_eq!(got, pinned, "{name}");
    }
}
