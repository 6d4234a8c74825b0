//! Time source abstraction for the observability layer.
//!
//! Everything in `ices-obs` is stamped with a `u64` "time" read from a
//! [`Clock`]. In the simulation that time is the **tick counter** — the
//! drivers advance a [`TickClock`] once per tick, so every journal
//! event and every snapshot delta is keyed to deterministic simulation
//! time and the DET02 invariant (no wall clock outside `crates/bench`)
//! holds for the whole subsystem. The one wall-clock impl lives on the
//! other side of the fence, in the service daemon
//! (`ices_svc::ServiceClock`); this crate never touches `std::time`.

/// A monotone source of `u64` timestamps.
///
/// Implementations must be cheap (`now` is called on every journal
/// event) and monotone non-decreasing. The unit is unspecified — the
/// simulation uses ticks, the daemon's wall clock milliseconds.
pub trait Clock {
    /// Current timestamp.
    fn now(&self) -> u64;
}

/// The simulation clock: a plain counter advanced explicitly by the
/// driver at each tick boundary. Reading it has no side effects and no
/// system dependence, so any two runs with the same tick schedule see
/// identical timestamps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TickClock {
    tick: u64,
}

impl TickClock {
    /// A clock at tick 0.
    pub fn new() -> Self {
        Self { tick: 0 }
    }

    /// Set the current tick. Drivers call this once per tick boundary;
    /// setting a lower value than the current one is allowed (e.g. a
    /// fresh run on a reused registry) but unusual.
    pub fn set(&mut self, tick: u64) {
        self.tick = tick;
    }

    /// Advance by one tick and return the new value.
    pub fn advance(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

impl Clock for TickClock {
    fn now(&self) -> u64 {
        self.tick
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_clock_reads_what_was_set() {
        let mut c = TickClock::new();
        assert_eq!(c.now(), 0);
        c.set(17);
        assert_eq!(c.now(), 17);
        assert_eq!(c.advance(), 18);
        assert_eq!(c.now(), 18);
    }
}
