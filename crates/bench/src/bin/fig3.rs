//! E1 / Figure 3: mean video playback throughput (fps) vs CPU load
//! average, normal scheduling vs the QoS Host Manager with its CPU
//! resource manager. Regenerates the series of the paper's Figure 3.

use qos_core::prelude::*;

fn main() {
    let loads = [0.70, 3.00, 5.00, 7.00, 10.00];
    eprintln!(
        "running {} simulations (2 per load point, in parallel)...",
        loads.len() * 2
    );
    let rows = figure3(20000704, &loads);

    // The paper's figure, read off the plot (approximate).
    let paper_normal = [28.5, 18.0, 11.0, 8.0, 5.0];
    let paper_managed = [28.5, 28.0, 28.0, 28.0, 28.0];

    let mut t = Table::new(&[
        "target load",
        "measured load",
        "normal fps",
        "managed fps",
        "paper normal",
        "paper managed",
    ]);
    for (i, r) in rows.iter().enumerate() {
        t.row(&[
            f(r.target_load, 2),
            f(r.measured_load, 2),
            f(r.fps_normal, 1),
            f(r.fps_managed, 1),
            f(paper_normal[i], 1),
            f(paper_managed[i], 1),
        ]);
    }
    println!("Figure 3: Video Playback Throughput Comparison");
    println!("{}", t.render());

    // Shape checks the figure makes visually.
    let first = &rows[0];
    let last = rows.last().expect("nonempty sweep");
    println!(
        "shape: unmanaged collapse {:.1} -> {:.1} fps; managed stays {:.1} -> {:.1} fps",
        first.fps_normal, last.fps_normal, first.fps_managed, last.fps_managed
    );
    assert!(
        last.fps_normal < first.fps_normal / 2.0,
        "unmanaged must collapse under load"
    );
    assert!(
        last.fps_managed > 23.0,
        "managed must hold the policy floor at the highest load"
    );

    // Optional observability artifacts (`--trace-out x.jsonl|x.json`,
    // `--metrics-out m.json`): rerun the mid-sweep managed point with
    // tracing enabled and export its violation lifecycles.
    if telemetry_requested() {
        let t = Telemetry::enabled();
        eprintln!("rerunning managed load 5.00 with tracing enabled...");
        fig3_point_with(20000704, 5.00, true, &t);
        println!("{}", telemetry_summary(&t));
        emit_telemetry_outputs(&t).expect("write telemetry artifacts");
    }
}
