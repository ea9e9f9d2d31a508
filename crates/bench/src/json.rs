//! JSON emission for machine-readable figure output.
//!
//! The implementation moved to [`anycast_telemetry::json`] so the
//! telemetry exporters and the `figures` driver share one emitter; this
//! module re-exports it under the historical `anycast_bench::json` path.

pub use anycast_telemetry::json::{parse, JsonValue};
