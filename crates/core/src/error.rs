//! Error type for the admission-control layer.

use std::error::Error;
use std::fmt;

/// Errors produced by admission-control configuration and execution.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DacError {
    /// A weight-policy parameter was outside its valid range.
    InvalidParameter {
        /// The parameter's name (e.g. `"alpha"`).
        name: &'static str,
        /// Human-readable constraint that was violated.
        constraint: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A delay requirement cannot be met on the given route at any rate.
    InfeasibleDelay {
        /// The requested end-to-end delay bound in seconds.
        requested_secs: f64,
        /// The minimum achievable delay in seconds (fixed per-hop terms).
        floor_secs: f64,
    },
}

impl fmt::Display for DacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DacError::InvalidParameter {
                name,
                constraint,
                value,
            } => write!(f, "invalid parameter {name}: {constraint} (got {value})"),
            DacError::InfeasibleDelay {
                requested_secs,
                floor_secs,
            } => write!(
                f,
                "delay bound {requested_secs}s infeasible: fixed per-hop latency is {floor_secs}s"
            ),
        }
    }
}

impl Error for DacError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let variants = [
            DacError::InvalidParameter {
                name: "alpha",
                constraint: "must lie in [0, 1]",
                value: 2.0,
            },
            DacError::InfeasibleDelay {
                requested_secs: 0.001,
                floor_secs: 0.002,
            },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DacError>();
    }
}
