//! `qosctl` — the softqos cockpit.
//!
//! A small operator CLI over the live management plane and the flight
//! recorder:
//!
//! * `hosts` — the processes a live manager has registered, with the
//!   manager's `live.*` and its socket reactor's `net.*` counters (a
//!   socket subscriber's lost telemetry is `net.telemetry_dropped`);
//! * `metrics` — one metrics snapshot pulled from the live stream;
//! * `tail` — follow violation-lifecycle events as the manager handles
//!   them;
//! * `record` — write the live stream into rotating `.qrec` segments;
//! * `replay` — decode a recording back into events (tolerant of torn
//!   tails and corruption — a crash mid-write costs the tail, never the
//!   recording);
//! * `report` — per-stage latency / MTTR table from a recording;
//! * `domains` — the federation tree (domain hierarchy and per-shard
//!   host counts) rebuilt from the discovery plane's `disc.*` gauges.
//!
//! Addresses are `uds:<path>`, `tcp:<host:port>`, or a bare socket
//! path. All subcommands speak the ordinary `qos-wire` protocol; the
//! manager treats the cockpit as just another telemetry subscriber with
//! drop-oldest backpressure, so a stalled `qosctl` can never wedge the
//! management plane.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use qos_core::prelude::*;
use qos_core::telemetry::record::DEFAULT_RING_BYTES;
use qos_core::telemetry::MetricSnapshot;

const USAGE: &str = "\
qosctl — softqos cockpit

usage: qosctl <command> [flags]

commands:
  hosts    --addr <a>                      registered processes + manager and reactor counters
  metrics  --addr <a> [--json]             one metrics snapshot from the live stream
  tail     --addr <a> [--for-ms N] [--jsonl]
                                           follow lifecycle events as they happen
  record   --addr <a> --out <dir> [--for-ms N]
           [--segment-bytes N] [--segments N]
                                           record the live stream to rotating segments
  replay   --in <file|dir> [--jsonl]       decode a recording back into events
  report   --in <file|dir>                 per-stage latency / MTTR table
  domains  --addr <a>                      federation tree from the discovery gauges

  <a> is uds:<path>, tcp:<host:port>, or a bare socket path.
  --in takes one .qrec file or a directory of qosctl-*.qrec segments.
";

/// Prefix used for segments written by `qosctl record` (and expected by
/// `replay`/`report` when pointed at a directory).
const SEGMENT_PREFIX: &str = "qosctl";

fn flag_value(args: &[String], name: &str) -> Option<String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == name {
            return it.next().cloned();
        }
        if let Some(v) = a.strip_prefix(name).and_then(|r| r.strip_prefix('=')) {
            return Some(v.to_string());
        }
    }
    None
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn parse_addr(s: &str) -> SockAddr {
    if let Some(rest) = s.strip_prefix("uds:") {
        return SockAddr::Uds(PathBuf::from(rest));
    }
    if let Some(rest) = s.strip_prefix("tcp:") {
        return SockAddr::Tcp(rest.to_string());
    }
    if s.contains('/') {
        SockAddr::Uds(PathBuf::from(s))
    } else {
        SockAddr::Tcp(s.to_string())
    }
}

fn require_addr(args: &[String]) -> Result<SockAddr, String> {
    flag_value(args, "--addr")
        .map(|a| parse_addr(&a))
        .ok_or_else(|| "--addr is required".into())
}

fn for_ms(args: &[String], default_ms: u64) -> Duration {
    Duration::from_millis(
        flag_value(args, "--for-ms")
            .and_then(|v| v.parse().ok())
            .unwrap_or(default_ms),
    )
}

/// Connect a subscriber, retrying briefly — the cockpit often races the
/// manager binding its socket.
fn tap_connect(
    addr: &SockAddr,
    subscriber: &str,
    want_events: bool,
    want_metrics: bool,
) -> Result<TelemetryTap, String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match TelemetryTap::connect(addr, subscriber, want_events, want_metrics) {
            Ok(t) => return Ok(t),
            Err(e) if Instant::now() >= deadline => {
                return Err(format!("cannot reach manager at {addr}: {e}"))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Pull batches until one carries a metrics snapshot.
fn first_snapshot(tap: &mut TelemetryTap) -> Result<(u64, Vec<MetricSnapshot>), String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        match tap.next_batch(Duration::from_millis(250)) {
            Ok(Some(b)) => {
                if let Some(m) = b.metrics {
                    return Ok(m);
                }
            }
            Ok(None) => {}
            Err(e) => return Err(format!("stream failed: {e}")),
        }
    }
    Err("manager never published a metrics snapshot".into())
}

fn fields_str(fields: &[(Name, f64)]) -> String {
    fields
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn print_events_text(events: &[TraceEvent]) {
    for e in events {
        println!(
            "{:>12} corr={:016x} {:<12} {:<20} {} {}",
            e.at_us,
            e.corr,
            e.stage.name(),
            e.component,
            e.name,
            fields_str(&e.fields),
        );
    }
}

fn metric_value_str(v: &MetricValue) -> String {
    match v {
        MetricValue::Counter(c) => format!("{c}"),
        MetricValue::Gauge(g) => format!("{g:.3}"),
        MetricValue::Histogram(h) => format!(
            "count={} p50={} p95={} max={}",
            h.count,
            h.quantile(0.50),
            h.quantile(0.95),
            h.max
        ),
    }
}

fn metrics_table(snapshot: &[MetricSnapshot]) -> String {
    let mut t = Table::new(&["metric", "label", "value"]);
    for m in snapshot {
        t.row(&[
            m.family.clone(),
            m.label.clone(),
            metric_value_str(&m.value),
        ]);
    }
    t.render()
}

fn cmd_hosts(args: &[String]) -> Result<(), String> {
    let addr = require_addr(args)?;
    let mut tap = tap_connect(&addr, "qosctl-hosts", false, true)?;
    let (at_us, snapshot) = first_snapshot(&mut tap)?;
    let mut hosts = Table::new(&["process", "registered"]);
    let mut n = 0;
    for m in snapshot.iter().filter(|m| m.family == "live.registered") {
        hosts.row(&[m.label.clone(), metric_value_str(&m.value)]);
        n += 1;
    }
    println!("registered processes at {addr} (snapshot t={at_us}us):");
    if n == 0 {
        println!("  (none — or the manager runs without telemetry)");
    } else {
        print!("{}", hosts.render());
    }
    // The reactor's `net.*` families sit beside the manager's own: a
    // socket subscriber's evicted telemetry is counted only there.
    let counters: Vec<&MetricSnapshot> = snapshot
        .iter()
        .filter(|m| {
            (m.family.starts_with("live.") && m.family != "live.registered")
                || m.family.starts_with("net.")
        })
        .collect();
    if !counters.is_empty() {
        println!("\nmanager and reactor counters:");
        let mut t = Table::new(&["counter", "label", "value"]);
        for m in counters {
            t.row(&[
                m.family.clone(),
                m.label.clone(),
                metric_value_str(&m.value),
            ]);
        }
        print!("{}", t.render());
    }
    Ok(())
}

fn cmd_metrics(args: &[String]) -> Result<(), String> {
    let addr = require_addr(args)?;
    let mut tap = tap_connect(&addr, "qosctl-metrics", false, true)?;
    let (at_us, snapshot) = first_snapshot(&mut tap)?;
    if has_flag(args, "--json") {
        println!("{}", metrics_to_json(&snapshot));
    } else {
        println!("metrics at {addr} (snapshot t={at_us}us):");
        print!("{}", metrics_table(&snapshot));
    }
    Ok(())
}

fn cmd_tail(args: &[String]) -> Result<(), String> {
    let addr = require_addr(args)?;
    let window = for_ms(args, u64::MAX / 2);
    let jsonl = has_flag(args, "--jsonl");
    let mut tap = tap_connect(&addr, "qosctl-tail", true, false)?;
    let deadline = Instant::now() + window;
    let mut last_seq = 0u64;
    while Instant::now() < deadline {
        let left = deadline.saturating_duration_since(Instant::now());
        match tap.next_batch(left.min(Duration::from_millis(250))) {
            Ok(Some(b)) => {
                if last_seq != 0 && b.seq > last_seq + 1 {
                    eprintln!(
                        "qosctl: {} batch(es) dropped by backpressure",
                        b.seq - last_seq - 1
                    );
                }
                last_seq = b.seq;
                if jsonl {
                    print!("{}", to_jsonl(&b.events));
                } else {
                    print_events_text(&b.events);
                }
            }
            Ok(None) => {}
            Err(e) => return Err(format!("stream failed: {e}")),
        }
    }
    Ok(())
}

fn cmd_record(args: &[String]) -> Result<(), String> {
    let addr = require_addr(args)?;
    let out = PathBuf::from(flag_value(args, "--out").ok_or("--out <dir> is required")?);
    let window = for_ms(args, 5_000);
    let seg_bytes: u64 = flag_value(args, "--segment-bytes")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4 << 20);
    let max_segs: usize = flag_value(args, "--segments")
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let writer = SegmentWriter::create(&out, SEGMENT_PREFIX, seg_bytes, max_segs)
        .map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let rec = FlightRecorder::with_writer(DEFAULT_RING_BYTES, writer);
    let mut tap = tap_connect(&addr, "qosctl-record", true, true)?;
    let deadline = Instant::now() + window;
    let (mut events, mut snapshots) = (0u64, 0u64);
    while Instant::now() < deadline {
        let left = deadline.saturating_duration_since(Instant::now());
        match tap.next_batch(left.min(Duration::from_millis(250))) {
            Ok(Some(b)) => {
                for e in &b.events {
                    rec.record_event(e);
                    events += 1;
                }
                if let Some((at_us, metrics)) = b.metrics {
                    rec.record_snapshot(at_us, &metrics);
                    snapshots += 1;
                }
            }
            Ok(None) => {}
            Err(e) => return Err(format!("stream failed: {e}")),
        }
    }
    rec.flush().map_err(|e| format!("flush failed: {e}"))?;
    eprintln!(
        "recorded {events} events + {snapshots} snapshots into {} segment(s) under {} \
         ({} write errors)",
        rec.segments().len(),
        out.display(),
        rec.write_errors(),
    );
    Ok(())
}

/// Load a recording from a single `.qrec` file or a directory of
/// `qosctl-*.qrec` segments.
fn load_recording(input: &Path) -> Result<Recording, String> {
    let rec = if input.is_dir() {
        read_recording_dir(input, SEGMENT_PREFIX)
    } else {
        read_recording(input)
    }
    .map_err(|e| format!("cannot read {}: {e}", input.display()))?;
    if rec.truncated {
        eprintln!("qosctl: recording has a torn tail (crash mid-write); prefix recovered");
    }
    if let Some(err) = &rec.corrupt {
        eprintln!("qosctl: recording corrupt past the recovered prefix: {err}");
    }
    Ok(rec)
}

fn require_input(args: &[String]) -> Result<Recording, String> {
    let input = PathBuf::from(flag_value(args, "--in").ok_or("--in <file|dir> is required")?);
    load_recording(&input)
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    let rec = require_input(args)?;
    let events = rec.events();
    if has_flag(args, "--jsonl") {
        print!("{}", to_jsonl(&events));
    } else {
        print_events_text(&events);
        eprintln!(
            "{} events + {} snapshots from {} segment(s)",
            events.len(),
            rec.snapshots().len(),
            rec.segments
        );
    }
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let rec = require_input(args)?;
    let events = rec.events();
    let lifecycles = rec.lifecycles();
    print!("{}", lifecycle_table(&lifecycles));
    println!(
        "{} events + {} snapshots from {} segment(s)",
        events.len(),
        rec.snapshots().len(),
        rec.segments
    );
    if let Some(snap) = rec.last_snapshot() {
        println!("\nlast metrics snapshot (t={}us):", snap.at_us);
        print!("{}", metrics_table(&snap.metrics));
    }
    Ok(())
}

/// One domain as the discovery gauges describe it.
#[derive(Debug, Default, Clone, Copy)]
struct DomainRow {
    parent: Option<u32>,
    is_root: bool,
    hosts: Option<f64>,
}

/// Rebuild the federation tree from `disc.domain.parent` /
/// `disc.shard.hosts` gauges (labels are `d<id>`; a parent of -1 marks
/// the root). Returns rows keyed by domain id.
fn federation_rows(snapshot: &[MetricSnapshot]) -> std::collections::BTreeMap<u32, DomainRow> {
    let mut rows: std::collections::BTreeMap<u32, DomainRow> = std::collections::BTreeMap::new();
    for m in snapshot {
        let MetricValue::Gauge(g) = &m.value else {
            continue;
        };
        let Some(id) = m
            .label
            .strip_prefix('d')
            .and_then(|r| r.parse::<u32>().ok())
        else {
            continue;
        };
        let row = rows.entry(id).or_default();
        match m.family.as_str() {
            "disc.domain.parent" => {
                if *g < 0.0 {
                    row.is_root = true;
                } else {
                    row.parent = Some(*g as u32);
                }
            }
            "disc.shard.hosts" => row.hosts = Some(*g),
            _ => {}
        }
    }
    rows
}

fn print_domain_subtree(
    rows: &std::collections::BTreeMap<u32, DomainRow>,
    children: &std::collections::BTreeMap<u32, Vec<u32>>,
    id: u32,
    depth: usize,
) {
    let row = rows.get(&id).copied().unwrap_or_default();
    let hosts = row
        .hosts
        .map(|h| format!("{h:.0} host(s)"))
        .unwrap_or_else(|| "?".into());
    println!(
        "{:indent$}d{id}{} — {hosts}",
        "",
        if row.is_root { " [root]" } else { "" },
        indent = depth * 2,
    );
    for &c in children.get(&id).map(Vec::as_slice).unwrap_or_default() {
        print_domain_subtree(rows, children, c, depth + 1);
    }
}

fn cmd_domains(args: &[String]) -> Result<(), String> {
    let addr = require_addr(args)?;
    let mut tap = tap_connect(&addr, "qosctl-domains", false, true)?;
    let (at_us, snapshot) = first_snapshot(&mut tap)?;
    let rows = federation_rows(&snapshot);
    println!("federation at {addr} (snapshot t={at_us}us):");
    if rows.is_empty() {
        println!("  (no discovery gauges — is a discovery server publishing here?)");
    } else {
        let mut children: std::collections::BTreeMap<u32, Vec<u32>> =
            std::collections::BTreeMap::new();
        for (&id, row) in &rows {
            if let Some(p) = row.parent {
                children.entry(p).or_default().push(id);
            }
        }
        for (&id, row) in &rows {
            // Roots, plus any domain whose parent the gauges never named
            // (a partial snapshot mid-registration).
            if row.is_root || row.parent.is_none() {
                print_domain_subtree(&rows, &children, id, 1);
            }
        }
    }
    let disc: Vec<&MetricSnapshot> = snapshot
        .iter()
        .filter(|m| m.family.starts_with("disc.") && matches!(m.value, MetricValue::Counter(_)))
        .collect();
    if !disc.is_empty() {
        println!("\ndiscovery counters:");
        let mut t = Table::new(&["counter", "label", "value"]);
        for m in disc {
            t.row(&[
                m.family.clone(),
                m.label.clone(),
                metric_value_str(&m.value),
            ]);
        }
        print!("{}", t.render());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "hosts" => cmd_hosts(rest),
        "metrics" => cmd_metrics(rest),
        "tail" => cmd_tail(rest),
        "record" => cmd_record(rest),
        "replay" => cmd_replay(rest),
        "report" => cmd_report(rest),
        "domains" => cmd_domains(rest),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("qosctl: {e}");
            ExitCode::from(2)
        }
    }
}
