//! Virtual time: the simulator never reads a wall clock.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// The simulator's canonical seeded random number generator.
///
/// Every stream of randomness in the workspace is an explicitly seeded
/// [`lucent_support::rng::Rng64`]; this alias marks the sanctioned
/// construction point. `clippy.toml` disallows `Rng64::seed_from_u64`
/// outside the seed-plumbing functions that `#[expect]` it, so no code
/// can quietly introduce a stream that does not trace back to a seed.
pub type SimRng = lucent_support::rng::Rng64;

/// An instant of virtual time, in microseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// Simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Microseconds since epoch.
    pub fn micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since epoch.
    pub fn millis(self) -> u64 {
        self.0 / 1_000
    }

    /// The span since an earlier instant; saturates at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct from seconds.
    pub fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Microseconds in this span.
    pub fn micros(self) -> u64 {
        self.0
    }

    /// Scale by an integer factor.
    pub fn saturating_mul(self, k: u64) -> Self {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 = self.0.saturating_add(d.0);
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:06}s", self.0 / 1_000_000, self.0 % 1_000_000)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_and_ordering() {
        let t = SimTime::ZERO + SimDuration::from_millis(5);
        assert_eq!(t.micros(), 5_000);
        assert_eq!(t.millis(), 5);
        assert!(t > SimTime::ZERO);
        assert_eq!(t.since(SimTime::ZERO), SimDuration::from_millis(5));
        assert_eq!(SimTime::ZERO.since(t), SimDuration::ZERO); // saturating
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2_000));
        assert_eq!(SimDuration::from_millis(3), SimDuration::from_micros(3_000));
        assert_eq!(SimDuration::from_secs(1).saturating_mul(3), SimDuration::from_secs(3));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime(1_500_000).to_string(), "1.500000s");
        assert_eq!(SimDuration(250).to_string(), "250us");
        assert_eq!(SimDuration(2_500).to_string(), "2.500ms");
        assert_eq!(SimDuration(1_200_000).to_string(), "1.200s");
    }

    #[test]
    fn saturation_at_extremes() {
        let huge = SimTime(u64::MAX);
        assert_eq!(huge + SimDuration::from_secs(1), huge);
        assert_eq!(SimDuration(u64::MAX).saturating_mul(2), SimDuration(u64::MAX));
        assert_eq!(SimDuration(5) - SimDuration(9), SimDuration::ZERO);
    }
}
