//! `softqos` — one testbed scenario with a per-second fps trace, handy
//! for eyeballing the feedback loop. The evaluation's simulated tables
//! are pinned in `tests/pinned_runs.rs`; `--nocapture` prints them.
//!
//! ```text
//! softqos run [--seed N] [--secs S] [--hogs K] [--unmanaged]
//! ```

use qos_core::prelude::*;

/// Minimal flag parser: `--key value` pairs plus boolean `--key` flags.
struct Args {
    cmd: String,
    kv: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    fn parse() -> Option<Args> {
        let mut it = std::env::args().skip(1);
        let cmd = it.next()?;
        let mut kv = Vec::new();
        let mut flags = Vec::new();
        let rest: Vec<String> = it.collect();
        let mut i = 0;
        while i < rest.len() {
            let key = rest[i].strip_prefix("--")?.to_string();
            if i + 1 < rest.len() && !rest[i + 1].starts_with("--") {
                kv.push((key, rest[i + 1].clone()));
                i += 2;
            } else {
                flags.push(key);
                i += 1;
            }
        }
        Some(Args { cmd, kv, flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.kv
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

fn usage() -> ! {
    eprintln!("usage: softqos run [--seed N] [--secs S] [--hogs K] [--unmanaged]");
    std::process::exit(2);
}

fn main() {
    let args = match Args::parse() {
        Some(args) if args.cmd == "run" => args,
        _ => usage(),
    };
    let seed: u64 = args.num("seed", 20260704);
    let secs: u64 = args.num("secs", 60);
    let hogs: u32 = args.num("hogs", 5);
    let cfg = TestbedConfig {
        seed,
        managed: !args.flag("unmanaged"),
        ..TestbedConfig::default()
    };
    let mut tb = Testbed::build(&cfg);
    tb.world.run_for(Dur::from_secs(10));
    spawn_mix(
        &mut tb.world,
        tb.client_host,
        LoadMix {
            hogs,
            fraction: 0.0,
        },
    );
    println!("t=10s: injected {hogs} CPU hogs");
    let mut prev = tb.displayed(0);
    for s in 0..secs {
        tb.world.run_for(Dur::from_secs(1));
        let d = tb.displayed(0);
        let boost = tb
            .world
            .host(tb.client_host)
            .proc_upri(tb.clients[0])
            .unwrap_or(0);
        println!(
            "t={:3}s  fps {:5.1}  boost {:3}",
            11 + s,
            (d - prev) as f64,
            boost
        );
        prev = d;
    }
}
