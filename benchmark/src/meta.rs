//! The machine and the build, embedded in every result file: a number
//! without them cannot be compared with the next one.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::Json;
use crate::measure::{Params, Timing};

/// The benchmark package's directory: where `cargo run` / `cargo test`
/// say it is, else where it was when the binary was built.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// `out/` under the package directory, created on first use; result
/// files, trace files and the Unix sockets of the live workloads live
/// there, so the benchmark writes nowhere outside its checkout.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = package_dir().join("out");
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn trimmed(path: impl AsRef<Path>) -> Option<String> {
    fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

/// The checked-out commit, read from `../.git` without running git (the
/// driver's checkout is not a repository, and git would search upward).
fn git_commit(repo: &Path) -> String {
    let git = repo.join(".git");
    let Some(head) = trimmed(git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    trimmed(git.join(reference))
        .or_else(|| {
            let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
            packed.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The `[profile.release]` table of the benchmark's own manifest — the
/// flags the measured binary was built with, comments dropped.
fn release_profile(package: &Path) -> String {
    let manifest = fs::read_to_string(package.join("Cargo.toml")).unwrap_or_default();
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect::<Vec<_>>()
        .join(", ")
}

fn count_rust_lines(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                count_rust_lines(&path)
            } else if path.extension().is_some_and(|x| x == "rs") {
                fs::read_to_string(&path).map_or(0, |s| s.lines().count() as u64)
            } else {
                0
            }
        })
        .sum()
}

/// Lines of Rust under `../crates/<name>/src`, per crate (ROADMAP item 3
/// tracks the trend).
fn lines_of_rust(repo: &Path) -> Json {
    let mut crates: Vec<(String, u64)> = fs::read_dir(repo.join("crates"))
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            let src = e.path().join("src");
            src.is_dir().then(|| {
                (
                    e.file_name().to_string_lossy().into_owned(),
                    count_rust_lines(&src),
                )
            })
        })
        .collect();
    crates.sort();
    let total = crates.iter().map(|&(_, n)| n).sum();
    crates.push(("total".into(), total));
    Json::obj(crates.into_iter().map(|(name, n)| (name, Json::Int(n))))
}

fn timing(t: Timing) -> Json {
    Json::obj([
        ("warmup", Json::Num(t.warmup.as_secs_f64())),
        ("measured", Json::Num(t.window.as_secs_f64())),
    ])
}

/// Machine, build and run parameters of this invocation.
pub fn describe(p: &Params) -> Json {
    let package = package_dir();
    let repo = package.join("..");
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    Json::obj([
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        (
            "kernel",
            Json::str(trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into())),
        ),
        ("rustc", Json::str(rustc)),
        ("git_commit", Json::str(git_commit(&repo))),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "dev (not a measurement build)".to_string()
            } else {
                format!("release: {}", release_profile(&package))
            }),
        ),
        ("seed", Json::Int(p.seed)),
        ("untraced_session_s", timing(p.plain())),
        (
            "traced_session_s",
            if p.trace {
                timing(p.traced())
            } else {
                Json::str("not run")
            },
        ),
        ("smoke", Json::Bool(p.smoke)),
        ("link", Json::str("UDS loopback, not a real link")),
        ("lines_of_rust", lines_of_rust(&repo)),
    ])
}
