//! E2/E3 / Section 7 overhead measurements, on real threads with real
//! clocks: instrumented-process initialisation + registration (paper:
//! ≈400 µs on an UltraSparc) and one pass through the instrumentation
//! code when QoS is met (paper: ≈11 µs), plus the cost of this repo's
//! own telemetry probes in their three states (enabled, runtime-
//! disabled, compiled out with `--features telemetry-off`).
//!
//! Flags: `--smoke` shrinks iteration counts. What a pass allocates and
//! sends is counted, not timed, in
//! `crates/manager/tests/engine_alloc_budget.rs`.

use std::hint::black_box;
use std::time::Instant;

use qos_core::manager::live::{standard_live_repo, LiveHostManager, LiveProcess};
use qos_core::prelude::*;
use qos_core::repository::agent::Registration;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = if smoke { 10 } else { 1 };
    let (repo, mut agent) = standard_live_repo();
    let mgr = LiveHostManager::builder()
        .spawn()
        .expect("spawn live manager");

    // --- E2: initialisation + registration.
    let iters = 2_000 / scale;
    let t0 = Instant::now();
    let mut procs = Vec::with_capacity(iters);
    for i in 0..iters {
        let reg = Registration {
            process: format!("bench:{i}"),
            executable: "VideoApplication".into(),
            application: "VideoPlayback".into(),
            role: "*".into(),
        };
        procs.push(
            LiveProcess::start(&reg, &repo, &mut agent, mgr.connect()).expect("manager running"),
        );
    }
    let init_us = t0.elapsed().as_micros() as f64 / iters as f64;

    // --- E3: steady-state instrumentation pass (QoS met: the buffer
    // probe with a healthy value raises no alarms and sends nothing).
    let p = procs.last_mut().expect("at least one process");
    let passes = 2_000_000u64 / scale as u64;
    let t0 = Instant::now();
    let mut sent = 0usize;
    for i in 0..passes {
        sent += p.buffer_pass(100 + (i & 0xff));
    }
    let pass_us = t0.elapsed().as_micros() as f64 / passes as f64;
    assert_eq!(sent, 0, "happy path must not notify");

    // --- For contrast: a frame pass (fps + jitter probes).
    let passes2 = 1_000_000u64 / scale as u64;
    let t0 = Instant::now();
    for _ in 0..passes2 {
        p.frame_pass();
    }
    let frame_us = t0.elapsed().as_micros() as f64 / passes2 as f64;

    // --- E3b: the same steady-state pass with this repo's telemetry
    // attached and live. The happy path touches no event probes, so
    // enabled and disabled should both sit within noise of the plain
    // pass (and of a `--features telemetry-off` build of this binary).
    let telemetry = Telemetry::enabled();
    p.set_telemetry(&telemetry);
    let t0 = Instant::now();
    for i in 0..passes {
        sent += p.buffer_pass(100 + (i & 0xff));
    }
    let pass_tel_us = t0.elapsed().as_micros() as f64 / passes as f64;
    assert_eq!(sent, 0, "happy path must not notify");

    // --- E3c: raw probe cost, per operation. A disabled handle is the
    // probe-site floor; with `telemetry-off` even the "enabled" ops
    // compile to nothing.
    let probe_iters = 20_000_000u64 / scale as u64;
    let per_op = |c: &Counter, h: Option<&Histogram>| {
        let t0 = Instant::now();
        for i in 0..probe_iters {
            match h {
                None => black_box(c).inc(),
                Some(h) => black_box(h).record(i & 0xfff),
            }
        }
        t0.elapsed().as_nanos() as f64 / probe_iters as f64
    };
    let c_on = telemetry.counter("bench.counter", "");
    let c_off = Telemetry::disabled().counter("bench.counter", "");
    let h_on = telemetry.histogram("bench.histogram", "");
    let counter_on_ns = per_op(&c_on, None);
    let counter_off_ns = per_op(&c_off, None);
    let hist_on_ns = per_op(&c_on, Some(&h_on));

    let mut t = Table::new(&["measurement", "paper (UltraSparc, 2000)", "measured here"]);
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
    t.row(&[
        "frame pass (fps+jitter probes)".into(),
        "-".into(),
        format!("{frame_us:.3} us"),
    ]);
    t.row(&[
        "pass + telemetry enabled".into(),
        "-".into(),
        format!("{pass_tel_us:.3} us"),
    ]);
    t.row(&[
        "counter.inc (enabled)".into(),
        "-".into(),
        format!("{counter_on_ns:.1} ns"),
    ]);
    t.row(&[
        "counter.inc (disabled handle)".into(),
        "-".into(),
        format!("{counter_off_ns:.1} ns"),
    ]);
    t.row(&[
        "histogram.record (enabled)".into(),
        "-".into(),
        format!("{hist_on_ns:.1} ns"),
    ]);
    println!("Section 7 instrumentation overhead");
    println!("{}", t.render());
    println!(
        "shape: init is {:.0}x the cost of a steady-state pass (paper: ~36x)",
        init_us / pass_us.max(1e-9)
    );
    println!(
        "telemetry: pass {pass_us:.3} us plain vs {pass_tel_us:.3} us instrumented ({})",
        if Telemetry::enabled().is_enabled() {
            "probes compiled in"
        } else {
            "probes compiled out: --features telemetry-off"
        }
    );
    mgr.shutdown();
}
