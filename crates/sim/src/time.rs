//! Simulated time: instants and durations in seconds.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulated clock, in seconds since simulation start.
///
/// `SimTime` is totally ordered and always finite and non-negative; the
/// constructors enforce this so the event queue never sees NaN, and store
/// zero as `+0.0`, so `==`, `<` and `cmp` agree on every value and the
/// order of instants is the order of their bit patterns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTime(f64);

impl SimTime {
    /// The simulation epoch, t = 0.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates an instant at `secs` seconds; `-0.0` becomes `+0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN or infinite.
    pub fn from_secs(secs: f64) -> Self {
        SimTime(canonical(secs, "SimTime"))
    }

    /// Seconds since the simulation epoch.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The raw bits of the seconds value. For the finite, non-negative,
    /// `+0.0`-canonical values a `SimTime` holds, they order as the
    /// instants do.
    pub(crate) fn to_bits(self) -> u64 {
        self.0.to_bits()
    }

    /// The instant whose [`to_bits`](Self::to_bits) are `bits`.
    pub(crate) fn from_bits(bits: u64) -> Self {
        SimTime(f64::from_bits(bits))
    }
}

/// Checks a constructor's argument and maps `-0.0` to `+0.0`.
fn canonical(secs: f64, what: &str) -> f64 {
    assert!(
        secs.is_finite() && secs >= 0.0,
        "{what} must be finite and non-negative, got {secs}"
    );
    // `-0.0 + 0.0` is `+0.0`; every other value passes unchanged.
    secs + 0.0
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
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

/// A span of simulated time in seconds; always finite and non-negative,
/// with zero stored as `+0.0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Duration(f64);

impl Duration {
    /// Creates a duration of `secs` seconds; `-0.0` becomes `+0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN or infinite.
    pub fn from_secs(secs: f64) -> Self {
        Duration(canonical(secs, "Duration"))
    }

    /// Length in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }
}

impl Eq for Duration {}

impl PartialOrd for Duration {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Duration {
    fn cmp(&self, other: &Self) -> Ordering {
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
    use proptest::prelude::*;

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
    fn negative_zero_is_stored_as_zero() {
        assert_eq!(SimTime::from_secs(-0.0).to_bits(), SimTime::ZERO.to_bits());
        assert_eq!(
            Duration::from_secs(-0.0).as_secs().to_bits(),
            Duration::from_secs(0.0).as_secs().to_bits()
        );
        assert_eq!(
            SimTime::from_secs(-0.0).cmp(&SimTime::ZERO),
            Ordering::Equal
        );
    }

    /// Seconds values around the edges of the bit order: both zeros, the
    /// subnormals, the smallest normal and ordinary values.
    fn edge_secs() -> impl Strategy<Value = f64> {
        (0u8..6, any::<u64>(), 0.0f64..1.0e6).prop_map(|(kind, bits, x)| match kind {
            0 => 0.0,
            1 => -0.0,
            2 => f64::from_bits(bits % (1 << 52)), // subnormal (or +0.0)
            3 => f64::MIN_POSITIVE,
            4 => f64::from_bits(bits % 4),
            _ => x,
        })
    }

    proptest! {
        /// `==`, `<` and `cmp` agree on every pair, zeros included, and
        /// the order of instants is the order of their bits.
        #[test]
        fn partial_order_agrees_with_the_total_order(a in edge_secs(), b in edge_secs()) {
            let (s, t) = (SimTime::from_secs(a), SimTime::from_secs(b));
            prop_assert_eq!(s.partial_cmp(&t), Some(s.cmp(&t)));
            prop_assert_eq!(s == t, s.cmp(&t) == Ordering::Equal);
            prop_assert_eq!(s.to_bits().cmp(&t.to_bits()), s.cmp(&t));
            let (d, e) = (Duration::from_secs(a), Duration::from_secs(b));
            prop_assert_eq!(d.partial_cmp(&e), Some(d.cmp(&e)));
            prop_assert_eq!(d == e, d.cmp(&e) == Ordering::Equal);
        }
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_secs(1.5).to_string(), "1.500000s");
        assert_eq!(Duration::from_secs(0.25).to_string(), "0.250000s");
    }
}
