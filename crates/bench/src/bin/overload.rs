//! E10 / Section 10 extension: overload conditions — "when there simply
//! are not enough resources to meet demand".
//!
//! The decode cost is raised to 135% of the CPU at full quality. The
//! rigid system maxes its allocation and the requirement still fails
//! permanently; with overload handling, the manager concludes (rule:
//! violation persists while the allocation is at its cap) that no
//! resource adjustment can help and directs the application's quality
//! actuator instead — the degraded stream returns to specification.

use qos_core::prelude::*;

fn main() {
    eprintln!("running rigid and adaptive overload scenarios...");
    let results = parallel_map(&[false, true], |&adaptive| overload(20260704, adaptive));
    let (rigid, adaptive_run) = (&results[0], &results[1]);

    let mut t = Table::new(&[
        "mode",
        "steady fps",
        "quality level",
        "adaptations",
        "final boost",
    ]);
    for (name, r) in [("rigid", rigid), ("adaptive", adaptive_run)] {
        t.row(&[
            name.into(),
            f(r.fps, 1),
            format!("{}", r.quality),
            format!("{}", r.adaptations),
            format!("{}", r.boost),
        ]);
    }
    println!("E10: 45 ms/frame decode at 30 fps = 135% CPU demand at full quality");
    println!("{}", t.render());
    println!(
        "rigid: allocation pinned at +{} and still {:.1} fps (out of spec); \
         adaptive: quality level {} at {:.1} fps (in spec)",
        rigid.boost, rigid.fps, adaptive_run.quality, adaptive_run.fps
    );
    assert!(
        rigid.fps < 23.0,
        "overload must defeat pure resource management"
    );
    assert_eq!(rigid.quality, 0);
    assert!(
        adaptive_run.quality > 0,
        "the actuator must have been driven"
    );
    assert!(
        adaptive_run.fps > 23.0,
        "degraded stream back in specification"
    );

    // Optional observability artifacts (`--trace-out`, `--metrics-out`):
    // rerun the adaptive scenario instrumented to expose the
    // quality-actuator adaptations in the trace.
    if telemetry_requested() {
        let t = Telemetry::enabled();
        eprintln!("rerunning the adaptive overload scenario with tracing enabled...");
        overload_with(20260704, true, &t);
        println!("{}", telemetry_summary(&t));
        emit_telemetry_outputs(&t).expect("write telemetry artifacts");
    }
}
