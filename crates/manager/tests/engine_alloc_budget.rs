//! Allocation budget of the violation path through the rule engine.
//!
//! `ManagerCore` (live mode) runs, per violation, exactly this loop:
//! build the `violation` fact, `assert_fact`, `run(100)`,
//! `take_invocations`. On a saturated manager thread its cost is the
//! system's throughput ceiling, and heap traffic is the easiest way to
//! raise it unnoticed (a binding map cloned per condition element and an
//! index entry per slot once made it ≈ 82 allocations per violation).
//! What the public types force is 14 — the fact's template, slot names
//! and string value (10), the invocation's command, argument vector and
//! pid (3), the drained outbox (1). The budget leaves room for a rule or
//! two more, not for per-rule or per-slot allocation.
//!
//! The same loop must also hold no memory behind: one permanent fact (the
//! threshold) plus any number of violations passing through is a
//! constant-size working memory.
//!
//! One test in this file on purpose: the counting allocator is global,
//! and a concurrent test would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use qos_inference::prelude::*;
use qos_manager::rules::{host_base_facts, host_rules_fair};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One violation through the engine, as `ManagerCore::handle_msg` does
/// it. Alternates between the two local-CPU diagnoses (buffer above and
/// below the threshold) and over-achieving, so three rules take turns.
fn violation(engine: &mut Engine, i: u64) -> (u64, usize) {
    let (fps, buffer) = match i % 3 {
        0 => (12.0, 4000.0),
        1 => (14.5, 10.0),
        _ => (31.0, 10.0),
    };
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
    (run.fired, engine.take_invocations().len())
}

#[test]
fn violation_path_stays_within_its_allocation_budget_and_leaks_nothing() {
    const BUDGET_PER_VIOLATION: f64 = 24.0;
    const WARMUP: u64 = 1_000;
    const MEASURED: u64 = 200_000;

    let mut engine = Engine::new();
    for rule in parse_program(&host_rules_fair()).unwrap().rules {
        engine.add_rule(rule);
    }
    for fact in parse_program(&host_base_facts()).unwrap().facts {
        engine.assert_fact(fact);
    }
    for i in 0..WARMUP {
        assert_eq!(violation(&mut engine, i), (1, 1));
    }
    // The retained trace is a bounded ring; drain it so the window below
    // starts and ends with it in the same state.
    engine.take_trace();

    let allocs_before = ALLOCS.load(Ordering::Relaxed);
    let bytes_before = LIVE_BYTES.load(Ordering::Relaxed);
    let mut fired = 0;
    for i in 0..MEASURED {
        let (f, invocations) = violation(&mut engine, WARMUP + i);
        fired += f;
        assert_eq!(invocations, 1);
    }
    engine.take_trace();
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    let growth = LIVE_BYTES.load(Ordering::Relaxed) - bytes_before;

    assert_eq!(fired, MEASURED, "one rule per violation");
    assert_eq!(engine.facts().len(), 1, "only the threshold stays");
    let per_violation = allocs as f64 / MEASURED as f64;
    println!("{per_violation:.2} allocations per violation, heap growth {growth} B");
    assert!(
        per_violation <= BUDGET_PER_VIOLATION,
        "{per_violation:.1} allocations per violation (budget {BUDGET_PER_VIOLATION})"
    );
    // A leak of even one byte per violation would be 200 kB here.
    assert!(
        growth < 16 * 1024,
        "heap grew by {growth} B over {MEASURED} violations with one live fact"
    );
}
