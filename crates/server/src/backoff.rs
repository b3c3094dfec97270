//! Decorrelated-jitter backoff and the tiny PRNG behind it.
//!
//! Deterministic exponential backoff synchronizes clients: after a
//! worker restart, every frontend that lost a connection re-dials on
//! the same schedule and the worker takes the whole thundering herd at
//! once. Jitter decorrelates them. The policy here is the classic
//! "decorrelated jitter": each delay is drawn uniformly from
//! `[base, prev * 3]` and capped, which spreads retries while still
//! backing off exponentially in expectation.
//!
//! The PRNG is a self-contained xorshift64* — statistical quality is
//! irrelevant for sleep times, and keeping it local avoids promoting
//! the dev-only `rand` crate into a library dependency. Seeding goes
//! through [`std::collections::hash_map::RandomState`], the standard
//! library's per-process random source.

use std::hash::{BuildHasher, Hasher};
use std::time::{Duration, Instant};

/// A tiny xorshift64* generator for backoff jitter and chaos draws.
#[derive(Debug, Clone)]
pub struct Jitter(u64);

impl Default for Jitter {
    fn default() -> Self {
        Self::new()
    }
}

impl Jitter {
    /// A generator seeded from the process's random hasher keys.
    pub fn new() -> Jitter {
        let seed = std::collections::hash_map::RandomState::new()
            .build_hasher()
            .finish();
        Jitter::from_seed(seed)
    }

    /// A generator with a fixed seed (deterministic tests and the chaos
    /// harness's reproducible fault schedules).
    pub fn from_seed(seed: u64) -> Jitter {
        Jitter(seed | 1) // xorshift state must be nonzero
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `[lo, hi]` (inclusive). `lo > hi` clamps to `lo`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Next decorrelated-jitter delay: uniform in `[base, prev * 3]`,
    /// capped at `cap`.
    pub fn decorrelated(&mut self, base: Duration, prev: Duration, cap: Duration) -> Duration {
        let base_us = base.as_micros().max(1) as u64;
        let hi_us = (prev.as_micros() as u64).saturating_mul(3).max(base_us);
        let drawn = Duration::from_micros(self.range(base_us, hi_us));
        drawn.min(cap)
    }
}

/// Sleeps for `delay`, truncated so the sleep never runs past
/// `deadline`. Returns `false` — without sleeping — when the deadline
/// has already passed, so retry loops stop burning budget the moment
/// it's gone.
pub fn sleep_capped(delay: Duration, deadline: Option<Instant>) -> bool {
    let delay = match deadline {
        Some(d) => {
            let now = Instant::now();
            if now >= d {
                return false;
            }
            delay.min(d - now)
        }
        None => delay,
    };
    std::thread::sleep(delay);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decorrelated_stays_in_bounds() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(200);
        let mut j = Jitter::from_seed(42);
        let mut prev = base;
        for _ in 0..1000 {
            let d = j.decorrelated(base, prev, cap);
            assert!(d >= base.min(cap), "below base: {d:?}");
            assert!(d <= cap, "above cap: {d:?}");
            prev = d;
        }
    }

    #[test]
    fn draws_vary() {
        let mut j = Jitter::from_seed(7);
        let a: Vec<u64> = (0..8).map(|_| j.range(0, 1000)).collect();
        assert!(a.windows(2).any(|w| w[0] != w[1]), "constant draws: {a:?}");
        // fixed seed → reproducible
        let mut k = Jitter::from_seed(7);
        let b: Vec<u64> = (0..8).map(|_| k.range(0, 1000)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn expired_deadline_refuses_to_sleep() {
        let past = Instant::now() - Duration::from_millis(1);
        assert!(!sleep_capped(Duration::from_secs(5), Some(past)));
        assert!(sleep_capped(Duration::from_micros(10), None));
    }
}
