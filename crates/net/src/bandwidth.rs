//! Bandwidth quantities.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// A bandwidth quantity in bits per second.
///
/// All link capacities, reservations and per-flow QoS demands in this
/// workspace are expressed as `Bandwidth`. The newtype rules out unit
/// confusion between bits and bytes or per-second and absolute quantities.
///
/// ```rust
/// use anycast_net::Bandwidth;
/// let link = Bandwidth::from_mbps(100);
/// let flow = Bandwidth::from_bps(64_000);
/// assert_eq!(link.saturating_div(flow), 1562);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Zero bandwidth.
    pub const ZERO: Bandwidth = Bandwidth(0);

    /// Creates a bandwidth from bits per second.
    pub const fn from_bps(bps: u64) -> Self {
        Bandwidth(bps)
    }

    /// Creates a bandwidth from kilobits (10³ bits) per second.
    pub const fn from_kbps(kbps: u64) -> Self {
        Bandwidth(kbps * 1_000)
    }

    /// Creates a bandwidth from megabits (10⁶ bits) per second.
    pub const fn from_mbps(mbps: u64) -> Self {
        Bandwidth(mbps * 1_000_000)
    }

    /// Returns the value in bits per second.
    pub const fn bps(self) -> u64 {
        self.0
    }

    /// Returns `true` if this bandwidth is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction (floors at zero).
    pub(crate) fn saturating_sub(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.saturating_sub(other.0))
    }

    /// Scales by a non-negative fraction, rounding down.
    ///
    /// Used to carve out the anycast partition (the paper reserves 20% of
    /// each 100 Mb/s link for anycast flows).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is negative or not finite.
    pub fn scaled(self, fraction: f64) -> Bandwidth {
        assert!(
            fraction.is_finite() && fraction >= 0.0,
            "fraction must be finite and non-negative, got {fraction}"
        );
        Bandwidth((self.0 as f64 * fraction) as u64)
    }

    /// How many flows of demand `unit` fit into this bandwidth (integer
    /// division). Returns `u64::MAX` when `unit` is zero.
    pub fn saturating_div(self, unit: Bandwidth) -> u64 {
        self.0.checked_div(unit.0).unwrap_or(u64::MAX)
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl AddAssign for Bandwidth {
    fn add_assign(&mut self, rhs: Bandwidth) {
        self.0 += rhs.0;
    }
}

impl Sub for Bandwidth {
    type Output = Bandwidth;
    /// # Panics
    ///
    /// Panics on underflow in debug builds (standard integer semantics).
    fn sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 - rhs.0)
    }
}

impl SubAssign for Bandwidth {
    fn sub_assign(&mut self, rhs: Bandwidth) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Bandwidth {
    type Output = Bandwidth;
    fn mul(self, rhs: u64) -> Bandwidth {
        Bandwidth(self.0 * rhs)
    }
}

impl Sum for Bandwidth {
    fn sum<I: Iterator<Item = Bandwidth>>(iter: I) -> Bandwidth {
        Bandwidth(iter.map(|b| b.0).sum())
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 && self.0.is_multiple_of(1_000_000) {
            write!(f, "{}Mb/s", self.0 / 1_000_000)
        } else if self.0 >= 1_000 && self.0.is_multiple_of(1_000) {
            write!(f, "{}kb/s", self.0 / 1_000)
        } else {
            write!(f, "{}b/s", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Bandwidth::from_kbps(64), Bandwidth::from_bps(64_000));
        assert_eq!(Bandwidth::from_mbps(100), Bandwidth::from_bps(100_000_000));
    }

    #[test]
    fn paper_anycast_partition_holds_312_flows() {
        // 20% of a 100 Mb/s link divided by 64 kb/s flows = 312 slots.
        let partition = Bandwidth::from_mbps(100).scaled(0.2);
        assert_eq!(partition, Bandwidth::from_mbps(20));
        assert_eq!(partition.saturating_div(Bandwidth::from_kbps(64)), 312);
    }

    #[test]
    fn arithmetic() {
        let a = Bandwidth::from_kbps(100);
        let b = Bandwidth::from_kbps(60);
        assert_eq!(a + b, Bandwidth::from_kbps(160));
        assert_eq!(a - b, Bandwidth::from_kbps(40));
        assert_eq!(b.saturating_sub(a), Bandwidth::ZERO);
        assert_eq!(a * 3, Bandwidth::from_kbps(300));
        let total: Bandwidth = [a, b, b].into_iter().sum();
        assert_eq!(total, Bandwidth::from_kbps(220));
    }

    #[test]
    fn div_by_zero_unit_is_max() {
        assert_eq!(
            Bandwidth::from_bps(5).saturating_div(Bandwidth::ZERO),
            u64::MAX
        );
    }

    #[test]
    fn display_picks_natural_unit() {
        assert_eq!(Bandwidth::from_mbps(100).to_string(), "100Mb/s");
        assert_eq!(Bandwidth::from_kbps(64).to_string(), "64kb/s");
        assert_eq!(Bandwidth::from_bps(7).to_string(), "7b/s");
        assert_eq!(Bandwidth::ZERO.to_string(), "0b/s");
    }

    #[test]
    #[should_panic(expected = "fraction must be finite")]
    fn scaled_rejects_negative_fraction() {
        let _ = Bandwidth::from_mbps(1).scaled(-0.5);
    }
}
