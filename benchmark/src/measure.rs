//! What the live and the simulated workloads share: run parameters, the
//! seeded generator, the sub-window samples the end-to-end medians come
//! from, and the outcome a workload hands back.

use std::io;
use std::time::{Duration, Instant};

use crate::ledger::{self, Class, Ledger};
use crate::stats;
use crate::trace::Tracer;

/// Sub-windows the measured window is cut into; throughput is the median
/// over them, so one scheduler hiccup moves one sample of ten and not
/// the result.
pub const SUB_WINDOWS: usize = 10;

/// Parameters of one run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured time of the whole run (`--seconds`).
    pub seconds: Duration,
    /// Smoke mode: set-up runs once instead of a workload's full count
    /// of repetitions (`setup_s` is the median over them).
    pub smoke: bool,
    /// Also run the traced session and produce per-layer metrics.
    pub trace: bool,
}

/// Measured window and unmeasured lead-in of one session.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Measured window.
    pub window: Duration,
    /// Lead-in: caches fill, connections settle, discovery converges.
    pub warmup: Duration,
}

impl Timing {
    fn of(window: Duration) -> Timing {
        Timing {
            window,
            // 2 s ahead of a full window; a tenth of a short one.
            warmup: Duration::from_secs(2).min(window / 10),
        }
    }
}

impl Params {
    /// How often to repeat set-up, given the workload's full count.
    pub fn setup_reps(&self, full: usize) -> usize {
        if self.smoke {
            1
        } else {
            full
        }
    }

    /// The untraced session: all of `seconds`, or two fifths of it when
    /// a traced session has to fit into the same run.
    pub fn plain(&self) -> Timing {
        Timing::of(if self.trace {
            self.seconds * 2 / 5
        } else {
            self.seconds
        })
    }

    /// The traced session: the other three fifths.
    pub fn traced(&self) -> Timing {
        Timing::of(self.seconds * 3 / 5)
    }
}

/// splitmix64: the harness's own generator, so inputs depend on the seed
/// and on nothing in the program under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `lane` (client index).
    pub fn new(seed: u64, lane: u64) -> Rng {
        Rng(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// Progress at one instant: violations the manager(s) have counted and
/// CPU the process has used.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When.
    pub at: Instant,
    /// Violations counted by the manager(s) so far.
    pub violations: u64,
    /// Process `utime + stime` so far, µs.
    pub cpu_us: u64,
}

impl Sample {
    /// Sample now, given the managers' violation count.
    pub fn now(violations: u64) -> io::Result<Sample> {
        Ok(Sample {
            at: Instant::now(),
            violations,
            cpu_us: ledger::process_cpu_us()?,
        })
    }
}

/// Median over adjacent sample pairs of violations per wall second.
pub fn violations_per_s(samples: &[Sample]) -> f64 {
    stats::median_of(
        &samples
            .windows(2)
            .map(|w| {
                (w[1].violations - w[0].violations) as f64
                    / w[1].at.duration_since(w[0].at).as_secs_f64()
            })
            .collect::<Vec<_>>(),
    )
}

/// Process CPU µs per violation over the whole window: `utime + stime`
/// moves in 10 ms ticks, too coarse for a sub-window, and a stall burns
/// no CPU, so this ratio does not need the median's protection.
pub fn cpu_us_per_violation(samples: &[Sample]) -> f64 {
    let (Some(first), Some(last)) = (samples.first(), samples.last()) else {
        return 0.0;
    };
    (last.cpu_us - first.cpu_us) as f64 / (last.violations - first.violations).max(1) as f64
}

/// `trace.overhead_share`: the share of untraced throughput the traced
/// session lost.
pub fn overhead_share(untraced: &[Sample], traced: &[Sample]) -> f64 {
    let base = violations_per_s(untraced);
    if base > 0.0 {
        1.0 - violations_per_s(traced) / base
    } else {
        0.0
    }
}

/// Named metric values, in emission order.
pub type Values = Vec<(&'static str, f64)>;

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (reports and barriers; expected violations
    /// in the simulation).
    pub attempted: u64,
    /// Operations that failed: dropped or uncounted reports, failed
    /// barriers, missing violations, unbound hosts.
    pub failed: u64,
    /// Output checks that did not hold; empty means correct.
    pub problems: Vec<String>,
    /// End-to-end metrics, from the untraced session.
    pub end_to_end: Values,
    /// Per-layer metrics (only with `Params::trace`).
    pub per_layer: Values,
    /// Human-readable remarks (sample counts, the supported tail).
    pub notes: Vec<String>,
    /// Spans of the traced session.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Record a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// The thread-ledger metrics and resident-set growth, per violation,
/// shared by every workload (the simulation runs on the main thread, so
/// all of its CPU lands in `thread.other`).
pub fn ledger_metrics(l: &Ledger, violations: u64, out: &mut Values) {
    let v = violations.max(1) as f64;
    let cpu = |c: Class| l.class(c).run_ns as f64 / 1e3 / v;
    let wait = |c: Class| l.class(c).wait_ns as f64 / 1e3 / v;
    out.extend([
        ("thread.generator.cpu_us", cpu(Class::Generator)),
        ("thread.manager.cpu_us", cpu(Class::Manager)),
        (
            "thread.manager.util",
            l.class(Class::Manager).run_ns as f64 / l.wall_ns.max(1) as f64,
        ),
        ("thread.poller.cpu_us", cpu(Class::Poller)),
        ("thread.workers.cpu_us", cpu(Class::Workers)),
        ("thread.other.cpu_us", cpu(Class::Other)),
        ("thread.generator.runq_wait_us", wait(Class::Generator)),
        ("thread.manager.runq_wait_us", wait(Class::Manager)),
        ("thread.poller.runq_wait_us", wait(Class::Poller)),
        ("thread.workers.runq_wait_us", wait(Class::Workers)),
        ("thread.switches_per_violation", l.slices() as f64 / v),
        ("thread.unaccounted_share", l.unaccounted_share()),
        (
            "mem.rss_growth_b_per_violation",
            l.rss_growth_kb as f64 * 1024.0 / v,
        ),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_lanes_differ() {
        let draw = |seed, lane| {
            let mut r = Rng::new(seed, lane);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(11, 0), draw(11, 0));
        assert_ne!(draw(11, 0), draw(12, 0));
        assert_ne!(draw(11, 0), draw(11, 1));
        let mut r = Rng::new(1, 0);
        assert!((0..1000).all(|_| (5.0..23.0).contains(&r.uniform(5.0, 23.0))));
    }

    #[test]
    fn throughput_is_a_sub_window_median_and_cpu_a_whole_window_ratio() {
        let t0 = Instant::now();
        let at = |s: u64, violations, cpu_us| Sample {
            at: t0 + Duration::from_secs(s),
            violations,
            cpu_us,
        };
        // 1000 violations and 10 ms of CPU per second, except a stall.
        let samples = [
            at(0, 0, 0),
            at(1, 1_000, 10_000),
            at(2, 1_100, 30_000),
            at(3, 2_100, 40_000),
        ];
        assert_eq!(violations_per_s(&samples), 1_000.0);
        assert_eq!(cpu_us_per_violation(&samples), 40_000.0 / 2_100.0);
    }
}
