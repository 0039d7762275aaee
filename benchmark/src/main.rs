//! The softqos benchmark: one violation's trip, end to end and layer by
//! layer. See `README.md` for the workloads, the metrics and how they
//! are expected to move together.
//!
//! ```text
//! qos-benchmark run   [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! qos-benchmark check [--seed N] [--seconds S] [--runs R] [--smoke]
//! qos-benchmark spec
//! ```
//!
//! `run --workload W` is what `BENCHMARK.json`'s command invokes: one
//! workload, tracing off (end-to-end metrics) or on (per-layer metrics),
//! a `metric` line per value and the result object as the last line.
//! `run` alone does that for all four workloads, untraced then traced.
//! `check` runs two sets of untraced runs of this build and fails if
//! they disagree by more than a metric's bound. `spec` prints
//! `BENCHMARK.json`.

mod check;
mod json;
mod ledger;
mod live;
mod measure;
mod meta;
mod sim;
mod spec;
mod stats;
mod trace;

use std::io;
use std::process::ExitCode;
use std::time::Duration;

use json::Json;
use measure::{Outcome, Params, Values};
use spec::MetricSpec;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    runs: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        runs: 5,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &String| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !spec::is_workload(w) {
                    return Err(format!("unknown workload {w:?}"));
                }
                out.workload = Some(w.clone());
            }
            "--seed" => out.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(v))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(v));
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--runs" => out.runs = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if out.runs < 2 {
        return Err("--runs must be at least 2".into());
    }
    Ok(out)
}

impl Args {
    /// Measured window: `--seconds`, else 1 s in smoke mode, else the
    /// contract's run length.
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            1.0
        } else {
            f64::from(spec::RUN_SECONDS)
        })
    }

    fn params(&self, trace: bool) -> Params {
        Params {
            seed: self.seed,
            seconds: Duration::from_secs_f64(self.seconds()),
            smoke: self.smoke,
            trace,
        }
    }
}

fn run_workload(name: &str, p: &Params) -> io::Result<Outcome> {
    match live::SHAPES.iter().find(|s| s.name == name) {
        Some(shape) => live::run(shape, p),
        None => sim::run(p),
    }
}

/// `values` in the order of `table`, 0 for a metric the workload has no
/// layer for; `failed_share` comes from the outcome's counts.
fn in_spec_order(table: &[MetricSpec], values: &Values, out: &Outcome) -> Vec<(MetricSpec, f64)> {
    table
        .iter()
        .map(|m| {
            let v = match m.name {
                "failed_share" => out.failed as f64 / out.attempted.max(1) as f64,
                name => values.iter().find(|(n, _)| *n == name).map_or(0.0, |x| x.1),
            };
            (*m, v)
        })
        .collect()
}

fn metrics_json(values: &[(MetricSpec, f64)]) -> Json {
    Json::obj(values.iter().map(|(m, v)| {
        (
            m.name,
            Json::obj([("value", Json::Num(*v)), ("unit", Json::str(m.unit))]),
        )
    }))
}

/// One workload in one mode: print its `metric` lines, write its result
/// (and trace) file, and return the contract's result object.
fn report(workload: &str, args: &Args, trace: bool) -> io::Result<(Json, bool)> {
    let p = args.params(trace);
    let mut out = run_workload(workload, &p)?;
    let table: &[MetricSpec] = if trace {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    };
    let source = if trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    let values = in_spec_order(table, source, &out);
    for (m, v) in &values {
        out.check(v.is_finite(), || {
            format!("{workload}: {} is not a number", m.name)
        });
        if !trace {
            out.check(*v > 0.0, || format!("{workload}: {} is {v}", m.name));
        }
        println!("metric {workload} {} {v} {}", m.name, m.unit);
    }
    for note in &out.notes {
        println!("note {note}");
    }
    for problem in &out.problems {
        println!("FAILED CHECK {problem}");
    }
    let correct = out.problems.is_empty();
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(out.attempted.max(1))),
        ("failed", Json::Int(out.failed)),
        ("metrics", metrics_json(&values)),
    ]);

    let dir = meta::out_dir()?;
    let machine = meta::describe(&p);
    let tag = if trace { "traced" } else { "untraced" };
    let file = Json::obj([
        ("workload", Json::str(workload)),
        ("mode", Json::str(tag)),
        ("machine", machine.clone()),
        ("result", result.clone()),
        (
            "problems",
            Json::Arr(out.problems.iter().map(Json::str).collect()),
        ),
        (
            "notes",
            Json::Arr(out.notes.iter().map(Json::str).collect()),
        ),
    ]);
    std::fs::write(
        dir.join(format!("result-{workload}-{tag}.json")),
        file.pretty(),
    )?;
    if let Some(tracer) = &out.tracer {
        let file = Json::obj([
            ("workload", Json::str(workload)),
            ("machine", machine),
            ("stages", tracer.summary_json()),
            ("spans", tracer.spans_json()),
        ]);
        std::fs::write(dir.join(format!("trace-{workload}.json")), file.compact())?;
    }
    Ok((result, correct))
}

fn run(args: &Args) -> io::Result<bool> {
    if let Some(workload) = &args.workload {
        let (result, correct) = report(workload, args, args.trace)?;
        println!("{}", result.compact());
        return Ok(correct);
    }
    // Every workload with tracing off, then a shorter traced run of
    // each; a process per run, so one workload's peak memory and warm
    // caches do not leak into the next.
    let mut all_correct = true;
    let traced = Args {
        seconds: Some(args.seconds() / 2.0),
        ..args.clone()
    };
    for (mode, trace) in [(args, false), (&traced, true)] {
        for (workload, _) in spec::WORKLOADS {
            all_correct &= check::child_run(mode, workload, args.seed, trace)?.is_some();
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: qos-benchmark run|check|spec [options]; see benchmark/README.md");
        return ExitCode::from(2);
    };
    let outcome = parse_args(rest).and_then(|args| match command.as_str() {
        "run" => run(&args).map_err(|e| e.to_string()),
        "check" => check::run(&args).map_err(|e| e.to_string()),
        "spec" => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
        other => Err(format!("unknown command {other:?}")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("qos-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
