//! Plain-text table formatting for the experiment binaries and the
//! examples, plus the human-readable telemetry summary.

use qos_telemetry::{stage_latencies, Lifecycle, MetricValue, Telemetry};

/// A simple aligned-column table.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", cells[i], width = widths[i]));
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Format a float to a fixed number of decimals.
pub fn f(x: f64, decimals: usize) -> String {
    format!("{x:.decimals$}")
}

/// Headline counter families surfaced in [`telemetry_summary`]: the
/// write-only stats the fault layer, the managers and the reactor keep
/// are mirrored into the registry under these names. Telemetry a
/// subscriber loses is counted where it is dropped: the manager's own
/// queue (`live.telemetry_dropped`, an in-proc subscriber) or the
/// reactor's telemetry lane (`net.telemetry_dropped`, a socket one).
const HEADLINE_COUNTERS: [&str; 14] = [
    "sim.fault.msgs_dropped",
    "sim.fault.msgs_duplicated",
    "sim.fault.msgs_delayed",
    "sim.fault.kills",
    "live.reports_dropped",
    "live.reconnects",
    "live.decode_errors",
    "live.telemetry_dropped",
    "net.telemetry_dropped",
    "live.flush.deadline_hits",
    "wire.batch.frames",
    "dm.late_replies",
    "hm.liveness_reaps",
    "hm.unhandled",
];

/// Histogram families surfaced in [`telemetry_summary`] alongside the
/// headline counters (rendered as count/p50/p95/max).
const HEADLINE_HISTOGRAMS: [&str; 1] = ["wire.batch.msgs_per_frame"];

/// Render the per-stage latency + MTTR table for a set of reconstructed
/// lifecycles — the shared core of [`telemetry_summary`] and `qosctl
/// report` (which feeds it lifecycles replayed from a flight recording
/// rather than a live handle).
pub fn lifecycle_table(lifecycles: &[Lifecycle]) -> String {
    let lat = stage_latencies(lifecycles);
    let mut out = String::new();
    let mut stages = Table::new(&["stage", "count", "p50 (us)", "p95 (us)", "max (us)"]);
    for (name, h) in lat
        .transitions
        .iter()
        .map(|(n, h)| (*n, h))
        .chain(std::iter::once(("detect→back-in-spec (MTTR)", &lat.mttr)))
    {
        stages.row(&[
            name.into(),
            format!("{}", h.count),
            format!("{}", h.quantile(0.50)),
            format!("{}", h.quantile(0.95)),
            format!("{}", h.max),
        ]);
    }
    out.push_str("violation lifecycles\n");
    out.push_str(&stages.render());
    out.push_str(&format!(
        "lifecycles: {} completed, {} still open\n",
        lat.completed, lat.open
    ));
    out
}

/// Render the chaos layer's point coverage (times evaluated vs times
/// fired, per point). Empty when buggify is compiled out or no point
/// was ever reached on this thread.
pub fn buggify_coverage() -> String {
    let seen = qos_buggify::points_seen();
    if seen.is_empty() {
        return String::new();
    }
    let hit = qos_buggify::points_hit();
    let mut tb = Table::new(&["buggify point", "seen", "hit"]);
    for (name, n) in &seen {
        let h = hit
            .iter()
            .find(|(p, _)| p == name)
            .map(|&(_, v)| v)
            .unwrap_or(0);
        tb.row(&[name.clone(), format!("{n}"), format!("{h}")]);
    }
    format!(
        "buggify coverage ({} fired total)\n{}",
        qos_buggify::fired_total(),
        tb.render()
    )
}

/// Render the violation-lifecycle summary for a telemetry handle: one
/// row per stage transition (p50/p95/max latency), the end-to-end MTTR
/// distribution, completed/open lifecycle counts, the headline
/// fault/drop counters, and — when the chaos layer is live — buggify
/// point coverage. Empty string for a disabled handle.
pub fn telemetry_summary(t: &Telemetry) -> String {
    if !t.is_enabled() {
        return String::new();
    }
    let lifecycles = t.lifecycles();
    let mut out = lifecycle_table(&lifecycles);
    // Splice the event-buffer accounting into the lifecycle footer.
    out.pop();
    out.push_str(&format!(
        "; {} trace events ({} evicted)\n",
        t.events().len(),
        t.events_dropped()
    ));

    let snapshot = t.snapshot();
    let mut counters = Table::new(&["counter", "label", "value"]);
    let mut any = false;
    for m in snapshot
        .iter()
        .filter(|m| HEADLINE_COUNTERS.contains(&m.family.as_str()))
    {
        if let MetricValue::Counter(v) = &m.value {
            counters.row(&[m.family.clone(), m.label.clone(), format!("{v}")]);
            any = true;
        }
    }
    for m in snapshot
        .iter()
        .filter(|m| HEADLINE_HISTOGRAMS.contains(&m.family.as_str()))
    {
        if let MetricValue::Histogram(h) = &m.value {
            counters.row(&[
                m.family.clone(),
                m.label.clone(),
                format!(
                    "count={} p50={} p95={} max={}",
                    h.count,
                    h.quantile(0.50),
                    h.quantile(0.95),
                    h.max
                ),
            ]);
            any = true;
        }
    }
    if any {
        out.push_str("\nfault & drop counters\n");
        out.push_str(&counters.render());
    }
    let chaos = buggify_coverage();
    if !chaos.is_empty() {
        out.push('\n');
        out.push_str(&chaos);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["load", "fps"]);
        t.row(&[f(0.7, 2), f(28.31, 1)]);
        t.row(&[f(10.0, 2), f(4.2, 1)]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("load"));
        assert!(lines[2].ends_with("28.3"));
        assert!(lines[3].ends_with("4.2"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["x".to_string()]);
    }

    #[test]
    fn telemetry_summary_renders_lifecycles_and_counters() {
        use qos_telemetry::Stage;
        let t = Telemetry::enabled();
        if !t.is_enabled() {
            // telemetry-off build: the summary degrades to empty.
            assert!(telemetry_summary(&t).is_empty());
            return;
        }
        let c = t.next_corr();
        t.stage(0, c, Stage::Detect, "h0:p4", "example1", &[]);
        t.stage(100, c, Stage::Report, "h0:p4", "example1", &[]);
        t.stage(220, c, Stage::Diagnose, "hm:h0", "example1", &[]);
        t.stage(230, c, Stage::Adapt, "hm:h0", "adjust-cpu", &[]);
        t.stage(5230, c, Stage::BackInSpec, "h0:p4", "example1", &[]);
        t.counter("sim.fault.msgs_dropped", "").add(7);
        let s = telemetry_summary(&t);
        assert!(s.contains("detect→report"));
        assert!(s.contains("MTTR"));
        assert!(s.contains("1 completed, 0 still open"));
        assert!(s.contains("sim.fault.msgs_dropped"));
        assert!(telemetry_summary(&Telemetry::disabled()).is_empty());
    }

    #[test]
    fn summary_surfaces_live_counters_and_chaos_coverage() {
        let t = Telemetry::enabled();
        if !t.is_enabled() {
            return;
        }
        t.counter("live.reconnects", "live:p1").add(3);
        t.counter("live.telemetry_dropped", "host-manager").add(2);
        t.counter("net.telemetry_dropped", "reactor").add(4);
        t.counter("live.decode_errors", "host-manager").inc();
        if qos_buggify::compiled_in() {
            // Probability 0: the point is *seen* but never fires.
            qos_buggify::enable_with(7, 0.0);
            assert!(!qos_buggify::fire("report.test.point"));
        }
        let s = telemetry_summary(&t);
        assert!(s.contains("live.reconnects"));
        assert!(s.contains("live.telemetry_dropped"));
        assert!(s.contains("net.telemetry_dropped"));
        assert!(s.contains("live.decode_errors"));
        if qos_buggify::compiled_in() {
            assert!(s.contains("buggify coverage"));
            assert!(s.contains("report.test.point"));
            qos_buggify::disable();
        } else {
            assert!(!s.contains("buggify coverage"));
        }
    }

    #[test]
    fn summary_surfaces_batching_counters_and_histogram() {
        let t = Telemetry::enabled();
        if !t.is_enabled() {
            return;
        }
        t.counter("wire.batch.frames", "host-manager").add(5);
        t.counter("live.flush.deadline_hits", "live:p1").add(2);
        let h = t.histogram("wire.batch.msgs_per_frame", "host-manager");
        for n in [1, 16, 16, 64] {
            h.record(n);
        }
        let s = telemetry_summary(&t);
        assert!(s.contains("wire.batch.frames"));
        assert!(s.contains("live.flush.deadline_hits"));
        assert!(s.contains("wire.batch.msgs_per_frame"));
        assert!(s.contains("count=4"), "histogram row renders stats: {s}");
    }

    #[test]
    fn lifecycle_table_works_on_replayed_events() {
        use qos_telemetry::{reconstruct, Fields, Stage, TraceEvent};
        let mk = |at_us, corr, stage| TraceEvent {
            at_us,
            corr,
            stage,
            component: "h0:p1".into(),
            name: "example1".into(),
            fields: Fields::new(),
        };
        let events = vec![
            mk(0, 1, Stage::Detect),
            mk(50, 1, Stage::Report),
            mk(90, 1, Stage::Diagnose),
            mk(120, 1, Stage::Adapt),
            mk(900, 1, Stage::BackInSpec),
        ];
        let s = lifecycle_table(&reconstruct(&events));
        assert!(s.contains("1 completed, 0 still open"));
        assert!(s.contains("MTTR"));
    }
}
