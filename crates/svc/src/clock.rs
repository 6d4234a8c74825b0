//! The daemon's wall clock, behind the `ices_obs::Clock` trait.
//!
//! `ices-obs` owns the trait and knows only ticks; this is the
//! workspace's one wall-clock impl of it. Everything downstream of [`crate::ServiceCore`] sees time only as
//! the `u64` this clock produced — swap in `ices_obs::TickClock` and
//! the whole protocol logic runs under simulated time in tests.

use ices_obs::Clock;
use std::time::Instant;

/// Milliseconds elapsed since the clock was created. Monotonic (backed
/// by [`Instant`]), so certificate TTLs and journal timestamps never
/// run backwards even if the host's wall time is adjusted.
#[derive(Debug, Clone)]
pub struct ServiceClock {
    start: Instant,
}

impl ServiceClock {
    /// Start counting from now.
    pub fn new() -> Self {
        Self {
            start: Instant::now(),
        }
    }
}

impl Default for ServiceClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for ServiceClock {
    fn now(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_millis()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_near_zero_and_is_monotone() {
        let clock = ServiceClock::new();
        let a = clock.now();
        assert!(a < 60_000, "fresh clock reads {a} ms");
        let b = clock.now();
        assert!(b >= a);
    }
}
