//! # anycast — distributed admission control for anycast flows with QoS
//!
//! A from-scratch Rust reproduction of *Distributed Admission Control for
//! Anycast Flows with QoS Requirements* (Dong Xuan & Weijia Jia,
//! ICDCS 2001): the DAC procedure with its three destination-selection
//! algorithms (ED, WD/D+H, WD/D+B), the SP and GDI baselines, an
//! RSVP-style reservation substrate, a deterministic discrete-event
//! simulator, and the Appendix-A analytical model (reduced-load fixed
//! point with Erlang-B / UAA link blocking).
//!
//! This crate is a facade: it re-exports the workspace member crates under
//! stable module names and provides a [`prelude`] for examples and quick
//! experiments.
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`net`] | `anycast-net` | topologies, link ledger, groups, routing |
//! | [`sim`] | `anycast-sim` | event engine, RNG, workload, statistics |
//! | [`rsvp`] | `anycast-rsvp` | PATH/RESV reservation walks, message ledger |
//! | [`dac`] | `anycast-dac` | the DAC procedure, policies, baselines, experiments |
//! | [`telemetry`] | `anycast-telemetry` | structured events, recorders, exporters, metrics registry |
//! | [`chaos`] | `anycast-chaos` | fault plans, deterministic fault timelines, outage ledger |
//! | [`analysis`] | `anycast-analysis` | Erlang-B, UAA, fixed point, AP prediction |
//! | [`estimator`] | `anycast-estimator` | calibrated link-decomposition fast path (Parsimon-style) |
//!
//! # Quickstart
//!
//! ```rust
//! use anycast::prelude::*;
//!
//! // The paper's §5.1 setup at 20 requests/second with <WD/D+H, 2>.
//! let topo = topologies::mci();
//! let config = ExperimentConfig::paper_defaults(
//!     20.0,
//!     SystemSpec::dac(PolicySpec::wd_dh_default(), 2),
//! )
//! .with_warmup_secs(100.0)
//! .with_measure_secs(200.0);
//! let metrics = run_experiment(&topo, &config);
//! assert!(metrics.admission_probability > 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use anycast_analysis as analysis;
pub use anycast_chaos as chaos;
pub use anycast_dac as dac;
pub use anycast_estimator as estimator;
pub use anycast_net as net;
pub use anycast_rsvp as rsvp;
pub use anycast_sim as sim;
pub use anycast_telemetry as telemetry;

/// The items the examples use, re-exported flat.
pub mod prelude {
    pub use anycast_analysis::scenario::{build_paper_scenario, AnalyzedSystem, ScenarioSpec};
    pub use anycast_analysis::{predict_ap, BlockingModel};
    pub use anycast_dac::baselines::ShortestPathSystem;
    pub use anycast_dac::experiment::{
        run_experiment, ArrivalProcess, ExperimentConfig, GroupSpec, SystemSpec,
    };
    pub use anycast_dac::policy::PolicySpec;
    pub use anycast_dac::{AdmissionController, RetrialPolicy};
    pub use anycast_net::routing::RouteTable;
    pub use anycast_net::{
        topologies, AnycastGroup, Bandwidth, LinkId, LinkStateTable, NodeId, Topology,
    };
    pub use anycast_rsvp::ReservationEngine;
    pub use anycast_sim::SimRng;
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_modules_resolve() {
        let topo = crate::net::topologies::mci();
        assert_eq!(topo.node_count(), 19);
        let b = crate::analysis::erlang_b(1.0, 1);
        assert_eq!(b, 0.5);
    }
}
