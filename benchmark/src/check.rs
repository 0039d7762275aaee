//! `check`: does this build agree with itself?
//!
//! Two sets of untraced runs of the same binary, interleaved and with
//! the workload order alternating (set A runs the workloads forward, set
//! B backward), every run a process of its own as the driver's are. Run
//! `i` of both sets uses seed `--seed + i`. For every end-to-end metric
//! of every workload the two medians must lie within the metric's bound
//! of each other, or the benchmark cannot tell a change from noise and
//! `check` fails. A metric whose run-to-run spread (inter-quartile
//! distance over the median) is itself wider than the bound is listed as
//! unresolved: agreement of its medians shows nothing.

use std::collections::BTreeMap;
use std::io;
use std::process::{Command, Stdio};

use crate::spec;
use crate::stats;
use crate::Args;

/// Run one workload in a child process of this binary; its standard
/// output is echoed, and returned when it exits with success.
pub fn child_run(
    args: &Args,
    workload: &str,
    seed: u64,
    trace: bool,
) -> io::Result<Option<String>> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.stderr(Stdio::inherit()).output()?;
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    print!("{text}");
    Ok(out.status.success().then_some(text))
}

/// The `metric <workload> <name> <value> <unit>` lines of a run.
fn parse_metrics(text: &str) -> impl Iterator<Item = (&str, f64)> {
    text.lines().filter_map(|l| {
        let mut f = l.split_whitespace();
        (f.next() == Some("metric")).then_some(())?;
        let (_workload, name, value) = (f.next()?, f.next()?, f.next()?);
        Some((name, value.parse().ok()?))
    })
}

/// Verdict on one metric of one workload.
#[derive(Debug, PartialEq)]
enum Verdict {
    Agree,
    Unresolved,
    Differ,
}

fn verdict(a: &[f64], b: &[f64], bound: f64) -> (f64, f64, Verdict) {
    let (med_a, med_b) = (stats::median_of(a), stats::median_of(b));
    let differ = (med_a - med_b).abs() / med_a.abs().min(med_b.abs()).max(f64::MIN_POSITIVE);
    let spread = stats::spread(a).max(stats::spread(b));
    let v = if differ > bound {
        Verdict::Differ
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Agree
    };
    (differ, spread, v)
}

/// Run the check; `Ok(false)` when a run failed or two medians differ by
/// more than their bound.
pub fn run(args: &Args) -> io::Result<bool> {
    let workloads: Vec<&str> = spec::WORKLOADS.iter().map(|&(w, _)| w).collect();
    // (workload, metric) -> [set A values, set B values]
    let mut sets: BTreeMap<(&str, &str), [Vec<f64>; 2]> = BTreeMap::new();
    let mut all_ran = true;
    for i in 0..args.runs {
        for set in 0..2 {
            let mut order = workloads.clone();
            if set == 1 {
                order.reverse();
            }
            for w in order {
                eprintln!(
                    "check: run {} of {}, set {}, {w}",
                    i + 1,
                    args.runs,
                    ["A", "B"][set]
                );
                let Some(text) = child_run(args, w, args.seed + i as u64, false)? else {
                    eprintln!("check: {w} failed");
                    all_ran = false;
                    continue;
                };
                for (name, value) in parse_metrics(&text) {
                    if let Some(m) = spec::find(name).filter(|m| m.bound.is_some()) {
                        sets.entry((w, m.name)).or_default()[set].push(value);
                    }
                }
            }
        }
    }

    println!(
        "\ncheck: {} runs per set, seeds {}..{}, {} s windows",
        args.runs,
        args.seed,
        args.seed + args.runs as u64 - 1,
        args.seconds()
    );
    println!(
        "{:<20} {:<22} {:>36} {:>36} {:>8} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "set A q1 / median / q3",
        "set B q1 / median / q3",
        "differ",
        "spread",
        "bound"
    );
    let mut agree = all_ran;
    let mut unresolved = Vec::new();
    for (&(w, name), [a, b]) in &sets {
        let bound = spec::find(name)
            .and_then(|m| m.bound)
            .expect("only bounded spec metrics are collected");
        let (differ, spread, v) = verdict(a, b, bound);
        let q = |x: &[f64]| {
            let (q1, med, q3) = stats::quartiles(x);
            format!("{q1:.4} / {med:.4} / {q3:.4}")
        };
        println!(
            "{w:<20} {name:<22} {:>36} {:>36} {differ:>8.4} {spread:>8.4} {bound:>6.2}  {}",
            q(a),
            q(b),
            match v {
                Verdict::Agree => "agree",
                Verdict::Unresolved => "UNRESOLVED (spread wider than bound)",
                Verdict::Differ => "DIFFER (more than bound)",
            }
        );
        match v {
            Verdict::Agree => {}
            Verdict::Unresolved => unresolved.push(format!("{w}/{name}")),
            Verdict::Differ => agree = false,
        }
    }
    if !unresolved.is_empty() {
        println!("unresolved, not unchanged: {}", unresolved.join(", "));
    }
    println!(
        "check: {}",
        if agree {
            "the two sets agree"
        } else {
            "FAILED"
        }
    );
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lines_are_read_back() {
        let text = "note x\nmetric live_rtt rtt_p50_us 181.25 us\nmetric live_rtt setup_s 0.0021 s\n{\"correct\":true}\n";
        let got: Vec<_> = parse_metrics(text).collect();
        assert_eq!(got, vec![("rtt_p50_us", 181.25), ("setup_s", 0.0021)]);
    }

    #[test]
    fn verdicts_separate_agreement_noise_and_difference() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let shifted = [120.0, 121.0, 119.0, 120.5, 119.5];
        let noisy = [80.0, 125.0, 100.0, 70.0, 130.0];
        assert_eq!(verdict(&steady, &steady, 0.10).2, Verdict::Agree);
        assert_eq!(verdict(&steady, &shifted, 0.10).2, Verdict::Differ);
        assert_eq!(verdict(&shifted, &steady, 0.10).2, Verdict::Differ);
        assert_eq!(verdict(&steady, &noisy, 0.10).2, Verdict::Unresolved);
    }
}
