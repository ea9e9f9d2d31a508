//! Mapping delay requirements onto bandwidth (the §6 extension).
//!
//! The paper's admission control handles bandwidth QoS only, but §6 notes
//! that "in the networks with rate-based schedulers, such as weighted fair
//! queue (WFQ) \[or\] virtual clock (VC), delay requirement can be directly
//! mapped to bandwidth requirement". This module performs that mapping with
//! the Parekh–Gallager end-to-end delay bound for a leaky-bucket-shaped
//! flow crossing `H` rate-based schedulers at reserved rate `g`:
//!
//! ```text
//! D  ≤  σ/g + (H−1)·L/g + Σⱼ Lmax/Cⱼ
//! ```
//!
//! where `σ` is the token-bucket burst, `L` the flow's maximum packet size,
//! and `Lmax/Cⱼ` the non-preemption latency of hop `j`. Solving for `g`
//! turns a delay bound into the bandwidth to hand to the DAC procedure.

use crate::DacError;
use anycast_net::Bandwidth;
use serde::{Deserialize, Serialize};

/// Leaky-bucket traffic description of a flow requesting delay QoS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowSpec {
    /// Token-bucket burst size σ in bytes.
    pub burst_bytes: u64,
    /// The flow's maximum packet size L in bytes.
    pub max_packet_bytes: u64,
    /// Sustained (token) rate ρ — the reservation can never be below this.
    pub sustained_rate: Bandwidth,
}

/// Computes the bandwidth that must be reserved for `spec` so its
/// end-to-end delay over `hops` WFQ/Virtual-Clock schedulers stays below
/// `delay_bound_secs`, on links of capacity `link_capacity` carrying
/// packets of at most `link_max_packet_bytes`.
///
/// The result is the Parekh–Gallager rate, floored at the flow's sustained
/// rate. A zero-hop route (source co-located with the destination) needs
/// only the sustained rate.
///
/// # Errors
///
/// [`DacError::InfeasibleDelay`] when the fixed per-hop latency
/// `H · Lmax/C` already exceeds the bound — no reservation rate can help.
///
/// # Panics
///
/// Panics if `delay_bound_secs` is not positive/finite or the link
/// capacity is zero.
///
/// # Example
///
/// ```rust
/// use anycast_dac::qos::{required_bandwidth, FlowSpec};
/// use anycast_net::Bandwidth;
///
/// # fn main() -> Result<(), anycast_dac::DacError> {
/// let spec = FlowSpec {
///     burst_bytes: 3_000,
///     max_packet_bytes: 1_500,
///     sustained_rate: Bandwidth::from_kbps(64),
/// };
/// // 100 ms across 4 hops of 100 Mb/s links.
/// let bw = required_bandwidth(&spec, 0.100, 4, Bandwidth::from_mbps(100), 1_500)?;
/// assert!(bw >= spec.sustained_rate);
/// # Ok(())
/// # }
/// ```
pub fn required_bandwidth(
    spec: &FlowSpec,
    delay_bound_secs: f64,
    hops: usize,
    link_capacity: Bandwidth,
    link_max_packet_bytes: u64,
) -> Result<Bandwidth, DacError> {
    assert!(
        delay_bound_secs.is_finite() && delay_bound_secs > 0.0,
        "delay bound must be positive and finite, got {delay_bound_secs}"
    );
    assert!(
        !link_capacity.is_zero(),
        "link capacity must be positive for delay mapping"
    );
    if hops == 0 {
        return Ok(spec.sustained_rate);
    }
    // Fixed term: Σ_j Lmax/C_j (uniform links).
    let per_hop_latency = (link_max_packet_bytes as f64 * 8.0) / link_capacity.bps() as f64;
    let fixed = hops as f64 * per_hop_latency;
    if fixed >= delay_bound_secs {
        return Err(DacError::InfeasibleDelay {
            requested_secs: delay_bound_secs,
            floor_secs: fixed,
        });
    }
    // Rate-dependent term: (σ + (H−1)·L) / g ≤ D − fixed.
    let numerator_bits =
        (spec.burst_bytes + (hops as u64 - 1) * spec.max_packet_bytes) as f64 * 8.0;
    let g = numerator_bits / (delay_bound_secs - fixed);
    let g = Bandwidth::from_bps(g.ceil() as u64);
    Ok(g.max(spec.sustained_rate))
}

/// The delay actually guaranteed when `rate` is reserved for `spec` across
/// `hops` schedulers — the inverse of [`required_bandwidth`], exposed so
/// callers can display the slack a reservation obtained.
///
/// # Panics
///
/// Panics if `rate` or `link_capacity` is zero with a nonzero hop count.
pub fn guaranteed_delay(
    spec: &FlowSpec,
    rate: Bandwidth,
    hops: usize,
    link_capacity: Bandwidth,
    link_max_packet_bytes: u64,
) -> f64 {
    if hops == 0 {
        return 0.0;
    }
    assert!(!rate.is_zero(), "reserved rate must be positive");
    assert!(!link_capacity.is_zero(), "link capacity must be positive");
    let per_hop_latency = (link_max_packet_bytes as f64 * 8.0) / link_capacity.bps() as f64;
    let fixed = hops as f64 * per_hop_latency;
    let numerator_bits =
        (spec.burst_bytes + (hops as u64 - 1) * spec.max_packet_bytes) as f64 * 8.0;
    fixed + numerator_bits / rate.bps() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 64 kb/s voice-like flow: 1500-byte packets, 3 kB burst — the kind
    /// of flow the paper's experiments admit.
    fn voice() -> FlowSpec {
        FlowSpec {
            burst_bytes: 3_000,
            max_packet_bytes: 1_500,
            sustained_rate: Bandwidth::from_kbps(64),
        }
    }

    const C: Bandwidth = Bandwidth::from_mbps(100);

    #[test]
    fn hand_computed_example() {
        // σ = 1000 B, L = 500 B, H = 2, C = 100 Mb/s, Lmax = 1000 B.
        // fixed = 2 · 8000/1e8 = 1.6e-4 s.
        // numerator = (1000 + 500) · 8 = 12000 bits.
        // D = 1 ms → g = 12000 / (0.001 − 0.00016) = 14 285 714.3 b/s,
        // well above the 8 kb/s sustained floor, so g wins.
        let spec = FlowSpec {
            burst_bytes: 1_000,
            max_packet_bytes: 500,
            sustained_rate: Bandwidth::from_bps(8_000),
        };
        let bw = required_bandwidth(&spec, 0.001, 2, C, 1_000).unwrap();
        assert_eq!(bw, Bandwidth::from_bps(14_285_715));
    }

    #[test]
    fn tighter_delay_needs_more_bandwidth() {
        let spec = voice();
        let loose = required_bandwidth(&spec, 0.5, 4, C, 1_500).unwrap();
        let tight = required_bandwidth(&spec, 0.05, 4, C, 1_500).unwrap();
        assert!(tight > loose);
    }

    #[test]
    fn longer_routes_need_more_bandwidth() {
        let spec = voice();
        let short = required_bandwidth(&spec, 0.1, 2, C, 1_500).unwrap();
        let long = required_bandwidth(&spec, 0.1, 6, C, 1_500).unwrap();
        assert!(long > short, "distance discrimination of §4.3.2 in action");
    }

    #[test]
    fn sustained_rate_is_a_floor() {
        let spec = FlowSpec {
            burst_bytes: 10,
            max_packet_bytes: 10,
            sustained_rate: Bandwidth::from_mbps(5),
        };
        // A very loose bound would need almost no rate, but ρ wins.
        let bw = required_bandwidth(&spec, 10.0, 3, C, 1_500).unwrap();
        assert_eq!(bw, Bandwidth::from_mbps(5));
    }

    #[test]
    fn infeasible_delay_detected() {
        let spec = voice();
        // 4 hops of 1500 B at 100 Mb/s = 0.48 ms fixed; ask for 0.1 ms.
        let err = required_bandwidth(&spec, 0.0001, 4, C, 1_500).unwrap_err();
        assert!(matches!(err, DacError::InfeasibleDelay { .. }));
    }

    #[test]
    fn zero_hops_needs_only_sustained_rate() {
        let spec = voice();
        let bw = required_bandwidth(&spec, 0.001, 0, C, 1_500).unwrap();
        assert_eq!(bw, spec.sustained_rate);
        assert_eq!(guaranteed_delay(&spec, bw, 0, C, 1_500), 0.0);
    }

    #[test]
    fn mapping_round_trips() {
        let spec = voice();
        let bound = 0.080;
        let bw = required_bandwidth(&spec, bound, 5, C, 1_500).unwrap();
        let achieved = guaranteed_delay(&spec, bw, 5, C, 1_500);
        assert!(
            achieved <= bound + 1e-9,
            "achieved {achieved} exceeds bound {bound}"
        );
        // And the bound is tight to within the 1-bit/s ceiling rounding.
        let slack = bound - achieved;
        assert!(slack < 0.001, "mapping unnecessarily conservative: {slack}");
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_delay_bound_panics() {
        let _ = required_bandwidth(&voice(), 0.0, 1, C, 1_500);
    }
}
