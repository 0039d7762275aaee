//! Flight-recorder hot-path cost: what attaching a [`FlightRecorder`]
//! to a live telemetry handle adds to each probe-site event. The
//! headline number is the *delta* — per-event cost with a ring recorder
//! attached minus the cost of the bare enabled handle — because that is
//! exactly what `Telemetry::set_recorder` buys into every probe site.
//!
//! With `--features telemetry-off` the probe sites compile to nothing,
//! so both sides of the delta collapse to the cost of an inlined branch
//! and the delta itself to ~0; only the explicit `record_event` path
//! (what `qosctl record` uses) keeps its real cost.
//!
//! Flags: `--smoke` (fewer iterations for CI), `--assert-budget-ns <N>`
//! (fail if the delta exceeds the budget), `--json <path>` (result
//! rows; defaults to `BENCH_recorder.json`).

use std::time::Instant;

use qos_bench::{bench_rows_to_json, BenchRow};
use qos_core::prelude::*;
use qos_core::telemetry::record::DEFAULT_RING_BYTES;

/// Per-event cost of one probe-site emission through `t`, ns.
fn per_event_ns(t: &Telemetry, iters: u64) -> f64 {
    let t0 = Instant::now();
    for i in 0..iters {
        t.stage(
            i,
            (i / 4) + 1,
            Stage::Detect,
            "h0:p1",
            "example1",
            &[(Name::from_static("frame_rate"), 15.0)],
        );
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let iters: u64 = if smoke { 200_000 } else { 2_000_000 };
    eprintln!("timing the flight-recorder hot path ({iters} events per measurement)...");

    // Bare enabled handle vs the same handle shape with a ring recorder
    // attached (every event additionally length-prefix encoded and
    // pushed into the byte ring). Three paired passes, keeping the
    // smallest delta: the pairing makes machine-speed noise cancel and
    // the min filters scheduler interference.
    let plain = Telemetry::enabled();
    let recording = Telemetry::enabled();
    let rec = FlightRecorder::new(DEFAULT_RING_BYTES);
    recording.set_recorder(Some(rec.clone()));
    let (mut plain_ns, mut rec_ns, mut delta_ns) = (f64::MAX, f64::MAX, f64::MAX);
    for _ in 0..3 {
        let p = per_event_ns(&plain, iters);
        let r = per_event_ns(&recording, iters);
        plain_ns = plain_ns.min(p);
        rec_ns = rec_ns.min(r);
        delta_ns = delta_ns.min((r - p).max(0.0));
    }

    // Floor: a disabled handle (and, under telemetry-off, *every*
    // handle) never invokes the closure at all.
    let off_ns = per_event_ns(&Telemetry::disabled(), iters);

    // The explicit path `qosctl record` drives: encode + ring push with
    // no telemetry handle in front.
    let direct = FlightRecorder::new(DEFAULT_RING_BYTES);
    let ev = TraceEvent {
        at_us: 42,
        corr: 7,
        stage: Stage::Detect,
        component: "h0:p1".into(),
        name: "example1".into(),
        fields: vec![("frame_rate", 15.0)].into(),
    };
    let t0 = Instant::now();
    for _ in 0..iters {
        direct.record_event(&ev);
    }
    let direct_ns = t0.elapsed().as_nanos() as f64 / iters as f64;

    let compiled_in = plain.is_enabled();
    let mut t = Table::new(&["measurement", "ns/event"]);
    t.row(&["probe site, enabled handle".into(), f(plain_ns, 1)]);
    t.row(&["probe site + ring recorder".into(), f(rec_ns, 1)]);
    t.row(&["recorder hot-path delta".into(), f(delta_ns, 1)]);
    t.row(&["probe site, disabled handle".into(), f(off_ns, 1)]);
    t.row(&["explicit record_event (qosctl)".into(), f(direct_ns, 1)]);
    println!(
        "Flight-recorder hot path (probes {})",
        if compiled_in {
            "compiled in"
        } else {
            "compiled out: --features telemetry-off"
        }
    );
    println!("{}", t.render());
    println!(
        "ring after {} events: {} records held, {} evicted by the byte budget",
        iters,
        rec.ring_records().len(),
        rec.ring_dropped()
    );

    let rows = vec![BenchRow::new("recorder")
        .param("iters", iters)
        .param("compiled_in", compiled_in)
        .metric("probe_enabled_ns", plain_ns)
        .metric("probe_with_recorder_ns", rec_ns)
        .metric("recorder_delta_ns", delta_ns)
        .metric("probe_disabled_ns", off_ns)
        .metric("direct_record_event_ns", direct_ns)];
    let path = arg_value("--json").unwrap_or_else(|| "BENCH_recorder.json".to_string());
    std::fs::write(&path, bench_rows_to_json(&rows)).expect("write benchmark rows");
    eprintln!("benchmark rows written to {path}");

    if let Some(budget) = arg_value("--assert-budget-ns").and_then(|v| v.parse::<f64>().ok()) {
        assert!(
            delta_ns <= budget,
            "recorder hot-path delta {delta_ns:.1} ns/event exceeds the {budget} ns budget"
        );
        println!("budget check: recorder delta {delta_ns:.1} ns <= {budget} ns");
    }
}
