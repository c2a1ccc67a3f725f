//! Time base for the simulator.
//!
//! Everything in the workspace measures time in **core clock cycles** of the simulated Rocket
//! Chip (the paper's prototype runs at 80 MHz). [`Cycle`] is a plain `u64` so that arithmetic
//! stays ergonomic in hot simulation loops; [`Frequency`] provides the conversions needed when
//! reasoning about the 667 MHz memory clock or wall-clock time.

/// A point in (or duration of) simulated time, measured in core clock cycles.
pub type Cycle = u64;

/// A clock frequency in hertz.
///
/// The prototype evaluated in the paper runs its Rocket cores at 80 MHz while the memory
/// controller runs at 667 MHz; both are captured as `Frequency` values so latencies can be
/// converted between domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Frequency(u64);

impl Frequency {
    /// Rocket Chip core clock used by the paper's FPGA prototype.
    pub const ROCKET_FPGA: Frequency = Frequency::from_mhz(80);
    /// DDR memory clock of the ZCU102 board used by the paper.
    pub const ZCU102_DDR: Frequency = Frequency::from_mhz(667);

    /// Creates a frequency from a value in hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero.
    pub const fn from_hz(hz: u64) -> Self {
        assert!(hz > 0, "frequency must be non-zero");
        Frequency(hz)
    }

    /// Creates a frequency from a value in megahertz.
    pub const fn from_mhz(mhz: u64) -> Self {
        Frequency::from_hz(mhz * 1_000_000)
    }

    /// Returns the frequency in hertz.
    pub const fn hz(self) -> u64 {
        self.0
    }

    /// Returns the frequency in megahertz (integer division).
    pub const fn mhz(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Converts a number of cycles of this clock into seconds.
    pub fn cycles_to_seconds(self, cycles: Cycle) -> f64 {
        cycles as f64 / self.0 as f64
    }

    /// Converts a duration in seconds into a (rounded) number of cycles of this clock.
    pub fn seconds_to_cycles(self, seconds: f64) -> Cycle {
        (seconds * self.0 as f64).round() as Cycle
    }
}

impl Default for Frequency {
    fn default() -> Self {
        Frequency::ROCKET_FPGA
    }
}

impl core::fmt::Display for Frequency {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.0.is_multiple_of(1_000_000) {
            write!(f, "{} MHz", self.mhz())
        } else {
            write!(f, "{} Hz", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequency_constructors_and_accessors() {
        let f = Frequency::from_mhz(80);
        assert_eq!(f.hz(), 80_000_000);
        assert_eq!(f.mhz(), 80);
        assert_eq!(format!("{f}"), "80 MHz");
        let odd = Frequency::from_hz(1234);
        assert_eq!(format!("{odd}"), "1234 Hz");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_frequency_panics() {
        let _ = Frequency::from_hz(0);
    }

    #[test]
    fn cycles_seconds_roundtrip() {
        let f = Frequency::from_mhz(80);
        let s = f.cycles_to_seconds(80_000_000);
        assert!((s - 1.0).abs() < 1e-12);
        assert_eq!(f.seconds_to_cycles(0.5), 40_000_000);
    }
}
