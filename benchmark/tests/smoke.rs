//! Drives the built binary through every workload in `--smoke` mode
//! (1 s windows, a couple of simulated rounds, one set-up) and asserts
//! that every metric `BENCHMARK.json` names is emitted by every workload — so a name cannot be added to the contract, or
//! dropped from the harness, without this failing.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_qos-benchmark");

/// The `"name": "…"` values of one top-level array of `BENCHMARK.json`.
/// The file is the harness's own `spec` output (asserted below), one
/// key per line, so a line scan reads it.
fn names(benchmark_json: &str, array: &str) -> Vec<String> {
    benchmark_json
        .lines()
        .skip_while(|l| !l.starts_with(&format!("  \"{array}\": [")))
        .take_while(|l| !l.starts_with("  ]"))
        .filter_map(|l| l.trim().strip_prefix("\"name\": \""))
        .map(|rest| rest.trim_end_matches(',').trim_end_matches('"').to_string())
        .collect()
}

#[test]
fn smoke_run_emits_every_name_in_benchmark_json() {
    let spec = Command::new(BIN).arg("spec").output().expect("run spec");
    assert!(spec.status.success());
    let benchmark_json = String::from_utf8(spec.stdout).expect("utf-8");
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed, benchmark_json,
        "BENCHMARK.json is `spec`'s output"
    );

    let workloads = names(&committed, "workloads");
    let end_to_end = names(&committed, "end_to_end");
    let per_layer = names(&committed, "per_layer");
    assert_eq!(workloads.len(), 4, "{workloads:?}");
    assert!(end_to_end.iter().any(|n| n == "setup_s"), "{end_to_end:?}");
    assert!(
        per_layer.len() > 40,
        "parsed {} per-layer names",
        per_layer.len()
    );

    let run = Command::new(BIN)
        .args(["run", "--smoke", "--seed", "11"])
        .output()
        .expect("run the smoke benchmark");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(!stdout.contains("FAILED CHECK"), "{stdout}");
    for w in &workloads {
        for name in end_to_end.iter().chain(&per_layer) {
            let emitted = stdout.lines().any(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                f.len() == 5
                    && f[..3] == ["metric", w.as_str(), name.as_str()]
                    && f[3].parse::<f64>().is_ok_and(f64::is_finite)
            });
            assert!(emitted, "{w} did not emit {name}:\n{stdout}");
        }
    }
    // One result object per workload and mode, the last line of its run.
    let results = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\":true,\"attempted\":"))
        .count();
    assert_eq!(results, 2 * workloads.len(), "{stdout}");
}

#[test]
fn a_bad_command_line_exits_non_zero_without_a_result() {
    for args in [
        &["run", "--workload", "no_such_workload"][..],
        &["run", "--trace", "2"],
        &["run", "--seconds", "0"],
        &["frobnicate"],
        &[],
    ] {
        let out = Command::new(BIN).args(args).output().expect("run");
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
