//! Simulated time: instants and durations in seconds.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulated clock, in seconds since simulation start.
///
/// `SimTime` is totally ordered and always finite and non-negative; the
/// constructors enforce this so the event queue never sees NaN.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct SimTime(f64);

impl SimTime {
    /// The simulation epoch, t = 0.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates an instant at `secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN or infinite.
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "SimTime must be finite and non-negative, got {secs}"
        );
        SimTime(secs)
    }

    /// Seconds since the simulation epoch.
    pub fn as_secs(self) -> f64 {
        self.0
    }
}

impl Eq for SimTime {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, d: Duration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, d: Duration) {
        self.0 += d.0;
    }
}

impl Sub for SimTime {
    type Output = Duration;
    fn sub(self, other: SimTime) -> Duration {
        Duration::from_secs(self.0 - other.0)
    }
}

/// A span of simulated time in seconds; always finite and non-negative.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Duration(f64);

impl Duration {
    /// Creates a duration of `secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN or infinite.
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "Duration must be finite and non-negative, got {secs}"
        );
        Duration(secs)
    }

    /// Length in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }
}

impl Eq for Duration {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for Duration {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, other: Duration) -> Duration {
        Duration(self.0 + other.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, other: Duration) {
        self.0 += other.0;
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10.0) + Duration::from_secs(5.0);
        assert_eq!(t, SimTime::from_secs(15.0));
        assert_eq!(t - SimTime::from_secs(10.0), Duration::from_secs(5.0));
        let mut u = SimTime::ZERO;
        u += Duration::from_secs(2.5);
        assert_eq!(u.as_secs(), 2.5);
        let mut d = Duration::from_secs(1.0);
        d += Duration::from_secs(0.5);
        assert_eq!(d, Duration::from_secs(1.5));
    }

    #[test]
    fn ordering_is_total() {
        assert!(SimTime::from_secs(1.0) < SimTime::from_secs(2.0));
        assert!(Duration::from_secs(0.1) < Duration::from_secs(0.2));
        let mut v = [
            SimTime::from_secs(3.0),
            SimTime::ZERO,
            SimTime::from_secs(1.0),
        ];
        v.sort();
        assert_eq!(v[0], SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_time_rejected() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn nan_duration_rejected() {
        let _ = Duration::from_secs(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn backwards_difference_rejected() {
        let _ = SimTime::ZERO - SimTime::from_secs(1.0);
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_secs(1.5).to_string(), "1.500000s");
        assert_eq!(Duration::from_secs(0.25).to_string(), "0.250000s");
    }
}
