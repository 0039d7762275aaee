//! The benchmark's contract in one place: workloads, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the root of the
//! repo is this table rendered by the `spec` subcommand; a test asserts
//! the file and the table agree, and the smoke test asserts every name
//! here is emitted.

use crate::json::Json;

/// The seed `run` and `check` use when none is given (the "committed
/// seed" of the issue).
pub const DEFAULT_SEED: u64 = 11;

/// Measured window of one run, seconds (the driver passes it back as
/// `--seconds`).
pub const RUN_SECONDS: u32 = 20;

/// What the driver runs; it appends `--workload … --seed … --seconds …
/// --trace …`.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the contract. `bound` is set for end-to-end metrics
/// only: the share of the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound (end-to-end metrics).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// Workloads, with the one line on why each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "live_rtt",
        "closed loop, 1 client, 1 report per sync: the unloaded trip of one violation, nothing queues, the wakeup chain dominates",
    ),
    (
        "live_storm",
        "closed loop, 2 clients, one frame and one write per report, 256 per sync: per-frame costs on every message, the manager thread saturates",
    ),
    (
        "live_storm_batched",
        "the same storm in 64-report batch frames, 4096 per sync: 1/64 the frames, so codec and engine cost show and per-frame cost does not",
    ),
    (
        "sim_federation",
        "single-threaded 4-domain, 100-host, 10k-reporter simulated storm: host.rs, qos-sim and qos-discovery do the work, sockets and live.rs none",
    ),
];

/// End-to-end metrics: emitted by every workload with `--trace 0`.
pub const END_TO_END: [MetricSpec; 4] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("violations_per_s", "1/s", Better::Higher, 0.25),
    e2e("cpu_us_per_violation", "us", Better::Lower, 0.25),
    e2e("rtt_p50_us", "us", Better::Lower, 0.25),
];

/// Per-layer metrics: emitted by every workload with `--trace 1`; a
/// metric whose layer a workload does not exercise reads 0 there.
pub const PER_LAYER: [MetricSpec; 55] = [
    // Failures, as a share of what was attempted (also the result
    // line's `failed` / `attempted`).
    lower("failed_share", "ratio"),
    // Memory: the untraced session's high-water mark, and what the
    // resident set gained per violation over its measured window (the
    // peak alone grows with however many violations the window held).
    lower("mem.peak_rss_mb", "MB"),
    lower("mem.rss_growth_b_per_violation", "B"),
    // Thread ledger, per violation, from /proc/self/task/*/schedstat.
    lower("thread.generator.cpu_us", "us"),
    lower("thread.manager.cpu_us", "us"),
    lower("thread.manager.util", "ratio"),
    lower("thread.poller.cpu_us", "us"),
    lower("thread.workers.cpu_us", "us"),
    lower("thread.other.cpu_us", "us"),
    lower("thread.generator.runq_wait_us", "us"),
    lower("thread.manager.runq_wait_us", "us"),
    lower("thread.poller.runq_wait_us", "us"),
    lower("thread.workers.runq_wait_us", "us"),
    lower("thread.switches_per_violation", "count"),
    lower("thread.unaccounted_share", "ratio"),
    // Stage spans: generator side in situ, manager side replayed.
    lower("instrument.to_wire_ns", "ns"),
    lower("instrument.pass_ns", "ns"),
    lower("instrument.frame_pass_ns", "ns"),
    lower("instrument.init_us", "us"),
    lower("wire.encode_ns", "ns"),
    lower("wire.decode_ns", "ns"),
    lower("wire.batch_encode_ns", "ns"),
    lower("wire.batch_decode_ns", "ns"),
    lower("net.send_p50_ns", "ns"),
    lower("net.send_p99_ns", "ns"),
    lower("net.reassemble_ns", "ns"),
    lower("net.sync_wait_us", "us"),
    lower("inference.assert_ns", "ns"),
    lower("inference.run_ns", "ns"),
    lower("inference.take_invocations_ns", "ns"),
    lower("manager.unattributed_us", "us"),
    higher("manager.attributed_share", "ratio"),
    lower("live.rtt_unattributed_us", "us"),
    lower("live.rtt_p99_us", "us"),
    lower("live.rtt_p999_us", "us"),
    higher("live.rtt_samples", "count"),
    lower("trace.overhead_share", "ratio"),
    // Counters the program keeps, read through public accessors.
    lower("wire.bytes_per_violation", "B"),
    lower("wire.frames_per_violation", "count"),
    lower("wire.decode_errors", "count"),
    lower("net.wakeups_per_frame", "count"),
    lower("inference.fired_per_violation", "count"),
    lower("inference.join_work_per_violation", "count"),
    lower("sim.events_per_violation", "count"),
    higher("sim.events_per_s", "1/s"),
    lower("sim.match_us", "us"),
    lower("sim.agenda_us", "us"),
    lower("sim.fire_us", "us"),
    lower("sim.join_work_per_violation", "count"),
    lower("sim.unattributed_us", "us"),
    lower("sim.diagnose_p50_us", "us"),
    lower("sim.diagnose_p95_us", "us"),
    lower("discovery.route_pushes", "count"),
    lower("discovery.entries_per_push", "count"),
    higher("discovery.bound_hosts", "count"),
];

/// Look up a metric of either table by name.
pub fn find(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

/// Whether `name` is one of the four workloads.
pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|&(w, _)| w == name)
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let metric = |m: &MetricSpec| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if let Some(b) = m.bound {
            pairs.push(("bound", Json::Num(b)));
        }
        Json::obj(pairs)
    };
    Json::obj([
        (
            "command",
            Json::Arr(COMMAND.iter().map(|&s| Json::str(s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Int(u64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|&(name, why)| {
                        Json::obj([("name", Json::str(name)), ("why", Json::str(why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed(m.name, 64), "metric name {:?}", m.name);
            assert!(seen.insert(m.name), "metric {:?} named twice", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {:?}",
                m.unit
            );
        }
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = find("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for (name, why) in WORKLOADS {
            assert!(well_formed(name, 64), "workload name {name:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
        }
        assert!(COMMAND.len() <= 32 && (1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- spec > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
