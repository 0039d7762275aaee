//! The thread ledger: who used the CPU, read from outside the program.
//!
//! A [`Snapshot`] reads `/proc/self/task/*/{comm,schedstat}` (per-thread
//! run time, run-queue wait and timeslices, in ns) and the process's
//! `utime + stime` from `/proc/self/stat` and resident set from
//! `/proc/self/status`; the difference of two snapshots, classed by
//! thread name, is a [`Ledger`]. The program names
//! its threads (`qos-host-manager`, `qos-net-poller`, `qos-net-worker-N`)
//! and the harness names its generators `bench-gen-N`, so the classes
//! need no cooperation from the code under test.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::time::Instant;

/// Thread classes of the ledger, by name prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `bench-gen-*`: the harness's instrumented-process threads.
    Generator,
    /// `qos-host-manage*` (the kernel keeps 15 bytes of the name).
    Manager,
    /// `qos-net-poller`.
    Poller,
    /// `qos-net-worker-*`.
    Workers,
    /// Everything else: the harness's main thread, acceptors.
    Other,
}

/// Number of [`Class`]es.
pub const CLASSES: usize = 5;

/// Class of a thread, from its `comm`.
pub fn classify(comm: &str) -> Class {
    if comm.starts_with("bench-gen-") {
        Class::Generator
    } else if comm.starts_with("qos-host-manage") {
        Class::Manager
    } else if comm.starts_with("qos-net-poller") {
        Class::Poller
    } else if comm.starts_with("qos-net-worker-") {
        Class::Workers
    } else {
        Class::Other
    }
}

#[derive(Debug, Clone)]
struct ThreadSample {
    comm: String,
    run_ns: u64,
    wait_ns: u64,
    slices: u64,
}

/// Per-thread scheduler counters and process CPU time at one instant.
#[derive(Debug, Clone)]
pub struct Snapshot {
    at: Instant,
    threads: BTreeMap<u64, ThreadSample>,
    proc_cpu_us: u64,
    rss_kb: u64,
}

/// Process `utime + stime` in microseconds, from `/proc/self/stat`.
pub fn process_cpu_us() -> io::Result<u64> {
    let stat = fs::read_to_string("/proc/self/stat")?;
    // The command name may hold spaces and parentheses; fields resume
    // after the last ')'. utime and stime are fields 14 and 15, and the
    // first field after the name is field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || -> io::Result<u64> {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| io::Error::other("unparseable /proc/self/stat"))
    };
    let ticks = tick()? + tick()?;
    // USER_HZ is 100 on every Linux ABI this runs on (`getconf CLK_TCK`).
    Ok(ticks * 10_000)
}

/// A `kB` field of `/proc/self/status`.
fn status_kb(field: &str) -> io::Result<u64> {
    let status = fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other(format!("no {field} in /proc/self/status")))
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> io::Result<f64> {
    Ok(status_kb("VmHWM")? as f64 / 1024.0)
}

impl Snapshot {
    /// Read every thread of this process now. A thread that exits while
    /// the directory is walked is skipped.
    pub fn take() -> io::Result<Snapshot> {
        let mut threads = BTreeMap::new();
        for entry in fs::read_dir("/proc/self/task")? {
            let entry = entry?;
            let Some(tid) = entry
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<u64>().ok())
            else {
                continue;
            };
            let dir = entry.path();
            let (Ok(comm), Ok(sched)) = (
                fs::read_to_string(dir.join("comm")),
                fs::read_to_string(dir.join("schedstat")),
            ) else {
                continue;
            };
            let mut f = sched.split_whitespace().map(|x| x.parse::<u64>());
            let (Some(Ok(run_ns)), Some(Ok(wait_ns)), Some(Ok(slices))) =
                (f.next(), f.next(), f.next())
            else {
                return Err(io::Error::other("unparseable schedstat"));
            };
            threads.insert(
                tid,
                ThreadSample {
                    comm: comm.trim_end().to_string(),
                    run_ns,
                    wait_ns,
                    slices,
                },
            );
        }
        Ok(Snapshot {
            at: Instant::now(),
            threads,
            proc_cpu_us: process_cpu_us()?,
            rss_kb: status_kb("VmRSS")?,
        })
    }
}

/// What one thread class did between two snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassUse {
    /// Time on a CPU, ns.
    pub run_ns: u64,
    /// Time runnable but waiting for a CPU, ns.
    pub wait_ns: u64,
    /// Timeslices run (≈ context switches onto a CPU).
    pub slices: u64,
}

/// CPU use between two snapshots, by thread class.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ledger {
    /// Wall time covered, ns.
    pub wall_ns: u64,
    /// Process `utime + stime` over the interval, µs.
    pub proc_cpu_us: u64,
    /// Resident-set growth over the interval, KiB (negative if it shrank).
    pub rss_growth_kb: i64,
    by_class: [ClassUse; CLASSES],
}

impl Ledger {
    /// The interval from `a` to `b`. A thread born inside it counts from
    /// zero; one that died inside it loses what it ran after `a`, which
    /// then shows in [`Ledger::unaccounted_share`].
    pub fn between(a: &Snapshot, b: &Snapshot) -> Ledger {
        let mut by_class = [ClassUse::default(); CLASSES];
        for (tid, end) in &b.threads {
            let start = a.threads.get(tid);
            let since = |now: u64, then: fn(&ThreadSample) -> u64| {
                now.saturating_sub(start.map_or(0, then))
            };
            let c = &mut by_class[classify(&end.comm) as usize];
            c.run_ns += since(end.run_ns, |t| t.run_ns);
            c.wait_ns += since(end.wait_ns, |t| t.wait_ns);
            c.slices += since(end.slices, |t| t.slices);
        }
        Ledger {
            wall_ns: b.at.duration_since(a.at).as_nanos() as u64,
            proc_cpu_us: b.proc_cpu_us.saturating_sub(a.proc_cpu_us),
            rss_growth_kb: b.rss_kb as i64 - a.rss_kb as i64,
            by_class,
        }
    }

    /// One class's use.
    pub fn class(&self, c: Class) -> ClassUse {
        self.by_class[c as usize]
    }

    /// Run time of every thread, ns.
    pub fn threads_run_ns(&self) -> u64 {
        self.by_class.iter().map(|c| c.run_ns).sum()
    }

    /// Timeslices of every thread.
    pub fn slices(&self) -> u64 {
        self.by_class.iter().map(|c| c.slices).sum()
    }

    /// `1 − Σ thread run time / process CPU`: what the per-thread view
    /// misses (exited threads, tick rounding of `utime + stime`).
    pub fn unaccounted_share(&self) -> f64 {
        if self.proc_cpu_us == 0 {
            return 0.0;
        }
        1.0 - self.threads_run_ns() as f64 / 1e3 / self.proc_cpu_us as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    #[test]
    fn classes_follow_the_thread_names_the_program_uses() {
        assert_eq!(classify("bench-gen-1"), Class::Generator);
        assert_eq!(classify("qos-host-manage"), Class::Manager);
        assert_eq!(classify("qos-net-poller"), Class::Poller);
        assert_eq!(classify("qos-net-worker-"), Class::Workers);
        assert_eq!(classify("qos-net-worker-3"), Class::Workers);
        assert_eq!(classify("qos-benchmark"), Class::Other);
        assert_eq!(classify("qos-hm-accept"), Class::Other);
    }

    /// The self-test of the issue: on a synthetic two-thread spin the
    /// per-thread run times add up to the process's CPU time within 3 %.
    #[test]
    fn thread_run_times_sum_to_process_cpu_on_a_two_thread_spin() {
        let stop = AtomicBool::new(false);
        let ledger = std::thread::scope(|s| {
            for i in 0..2 {
                let stop = &stop;
                std::thread::Builder::new()
                    .name(format!("bench-gen-{i}"))
                    .spawn_scoped(s, move || {
                        let mut x = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            x = std::hint::black_box(x.wrapping_mul(6364136223846793005) + 1);
                        }
                    })
                    .expect("spawn spinner");
            }
            let before = Snapshot::take().expect("snapshot");
            std::thread::sleep(Duration::from_millis(1500));
            let after = Snapshot::take().expect("snapshot");
            stop.store(true, Ordering::Relaxed);
            Ledger::between(&before, &after)
        });
        let spun = ledger.class(Class::Generator);
        assert!(
            spun.run_ns > 500_000_000,
            "two spinners ran only {} ns in {} ns of wall",
            spun.run_ns,
            ledger.wall_ns
        );
        assert!(
            ledger.unaccounted_share().abs() <= 0.03,
            "threads {} ns vs process {} us: unaccounted {:.4}",
            ledger.threads_run_ns(),
            ledger.proc_cpu_us,
            ledger.unaccounted_share()
        );
    }
}
