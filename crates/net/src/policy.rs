//! Reconnect timing for the dialing client: [`ReconnectPolicy`] (its
//! jitter seed) and the jittered doubling [`Backoff`] envelope behind
//! it.

use std::time::Duration;

/// First reconnect delay after a send failure.
pub const BACKOFF_INITIAL: Duration = Duration::from_millis(50);
/// Reconnect backoff ceiling.
pub const BACKOFF_MAX: Duration = Duration::from_secs(2);

/// Doubling reconnect backoff with a hard cap and seeded jitter.
///
/// Without jitter, every client of a crashed manager arms the same
/// 50/100/200… ms schedule and the whole population reconnects in
/// lockstep — a thundering herd against the freshly restarted listener.
/// Each delay is drawn uniformly from `[cur/2, cur)` (decorrelated but
/// still bounded by the doubling envelope), and `cur` never exceeds the
/// cap, so a long outage cannot push retries apart indefinitely.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    cur: Duration,
    rng: u64,
}

impl Backoff {
    /// A doubling backoff from `base` to `cap`, jittered from `seed`.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        Backoff {
            base,
            cap,
            cur: base,
            rng: seed,
        }
    }

    /// SplitMix64 step — hermetic, deterministic per seed.
    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Draw the next delay and advance the envelope. The returned delay
    /// is strictly below the current envelope value, which is itself
    /// capped — so no delay ever exceeds the cap.
    pub fn next_delay(&mut self) -> Duration {
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let d = self.cur.mul_f64(0.5 + 0.5 * u);
        self.cur = (self.cur * 2).min(self.cap);
        d.min(self.cap)
    }

    /// Back to the initial envelope (call after a successful connect).
    pub fn reset(&mut self) {
        self.cur = self.base;
    }
}

/// Reconnect configuration for a dialing transport. The envelope is
/// fixed — [`BACKOFF_INITIAL`] doubling to [`BACKOFF_MAX`] — and the
/// one setting is its jitter seed.
///
/// `seed: None` (the default) decorrelates co-hosted processes and
/// transports without coordination (pid ⊕ a per-process counter); pin a
/// seed for deterministic tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Jitter seed; `None` derives a per-process, per-transport seed.
    pub seed: Option<u64>,
}

impl ReconnectPolicy {
    /// The envelope with a pinned jitter seed (deterministic tests).
    pub fn seeded(seed: u64) -> Self {
        ReconnectPolicy { seed: Some(seed) }
    }

    /// Materialize the backoff envelope, deriving a decorrelated seed
    /// when none was pinned.
    pub fn backoff(&self) -> Backoff {
        let seed = self.seed.unwrap_or_else(|| {
            static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
            u64::from(std::process::id()).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        });
        Backoff::new(BACKOFF_INITIAL, BACKOFF_MAX, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_never_exceeds_cap() {
        let base = Duration::from_millis(50);
        let cap = Duration::from_secs(2);
        let mut b = Backoff::new(base, cap, 0xDEAD_BEEF);
        let mut saw_near_cap = false;
        for _ in 0..50 {
            let d = b.next_delay();
            assert!(d <= cap, "delay {d:?} exceeds cap {cap:?}");
            assert!(d >= base / 2, "delay {d:?} below half the base");
            if d >= cap / 2 {
                saw_near_cap = true;
            }
        }
        assert!(saw_near_cap, "envelope never grew near the cap");
        // After reset the envelope shrinks back to the base.
        b.reset();
        assert!(b.next_delay() < base);
    }

    #[test]
    fn backoff_jitter_is_seeded() {
        let base = Duration::from_millis(50);
        let cap = Duration::from_secs(2);
        let draw = |seed: u64| -> Vec<Duration> {
            let mut b = Backoff::new(base, cap, seed);
            (0..16).map(|_| b.next_delay()).collect()
        };
        assert_eq!(draw(7), draw(7), "same seed must replay the same delays");
        assert_ne!(draw(7), draw(8), "different seeds should diverge");
    }

    #[test]
    fn reconnect_policy_pins_and_derives_seeds() {
        let mut a = ReconnectPolicy::seeded(7).backoff();
        let mut b = ReconnectPolicy::seeded(7).backoff();
        for _ in 0..8 {
            assert_eq!(a.next_delay(), b.next_delay());
        }
        // Unpinned seeds must decorrelate transports within one process.
        let mut c = ReconnectPolicy::default().backoff();
        let mut d = ReconnectPolicy::default().backoff();
        let cs: Vec<_> = (0..8).map(|_| c.next_delay()).collect();
        let ds: Vec<_> = (0..8).map(|_| d.next_delay()).collect();
        assert_ne!(cs, ds, "derived seeds should differ per transport");
    }
}
