//! Distributed Admission Control (DAC) for anycast flows with QoS
//! requirements — the primary contribution of Xuan & Jia (ICDCS 2001).
//!
//! An anycast flow may be delivered to *any* member of a recipient group;
//! admitting one therefore requires choosing a destination before resources
//! can be reserved. This crate implements the paper's §4 procedure —
//! destination selection, resource reservation, retrial control — together
//! with its three weight-assignment algorithms and the two baseline systems
//! of §5:
//!
//! | System | Status information used |
//! |--------|-------------------------|
//! | `Ed` | none (uniform weights, eq. 2) |
//! | `WdDh` | route distances + local admission history (eqs. 4–10) |
//! | `WdDb` | route distances + route available bandwidth (eq. 12) |
//! | [`ShortestPathSystem`](baselines::ShortestPathSystem) | distances only; always the nearest member |
//! | [`GlobalDynamicSystem`](baselines::GlobalDynamicSystem) | perfect global dynamic information |
//!
//! The closed-loop simulation that evaluates them lives in [`experiment`];
//! QoS mapping from delay bounds to bandwidth (the §6 extension) in [`qos`].
//!
//! # Quickstart
//!
//! ```rust
//! use anycast_dac::experiment::{ExperimentConfig, SystemSpec, run_experiment};
//! use anycast_dac::policy::PolicySpec;
//! use anycast_net::topologies;
//!
//! let topo = topologies::mci();
//! let config = ExperimentConfig::paper_defaults(20.0, SystemSpec::dac(PolicySpec::Ed, 2))
//!     .with_measure_secs(400.0)
//!     .with_seed(7);
//! let metrics = run_experiment(&topo, &config);
//! assert!(metrics.admission_probability > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod backoff;
pub mod baselines;
pub mod calibrate;
mod controller;
mod error;
pub mod experiment;
mod history;
pub(crate) mod multipath;
pub mod online;
pub mod policy;
pub mod qos;
mod retrial;
mod signalling;
mod soft_state;
mod weights;

pub use backoff::BackoffPolicy;
pub use controller::{AdmissionController, AdmissionOutcome, AdmittedFlow};
pub use error::DacError;
pub use history::HistoryTable;
pub use retrial::RetrialPolicy;
