//! Parsimon-style link-decomposition fast path for anycast admission
//! control.
//!
//! The full discrete-event simulation answers "what AP does `<WD/D+H,2>`
//! reach at λ = 27?" in minutes; the Appendix-A analysis answers it in
//! milliseconds but only for `<ED,1>` and SP, whose selection behaviour
//! has a closed form. This crate closes the gap the way Parsimon does
//! for data-centre networks — *decompose the network into links,
//! calibrate each link from short cheap simulations, compose the parts
//! analytically*:
//!
//! 1. [`calibrate`](calibrate::calibrate) runs one short traced DES burst
//!    per anchor λ (seconds of simulated time, not the paper's 5400 s)
//!    and folds the event stream into a [`CalibrationTable`]: per-source
//!    destination-selection shares, per-link occupancy peakedness, and
//!    the measured AP at each anchor.
//! 2. [`Estimator`] substitutes those calibrated quantities into the
//!    reduced-load fixed point (`anycast-analysis::predict_ap_fn`):
//!    Fredericks–Hayward peaked blocking per link, the without-
//!    replacement retrial walk of [`compose_retrials`] for the DAC
//!    systems, inclusion–exclusion ([`any_route_clear`]) for GDI, and an
//!    anchor-interpolated residual correction for everything the
//!    link-independence assumption still misses.
//! 3. [`Estimator::predict_batch`] fans a λ grid over the worker pool —
//!    a full five-system sweep costs milliseconds after calibration;
//!    `anycast-bench`'s `tests/estimator_accuracy.rs` cross-validates a
//!    grid of cells against the full DES.
//!
//! [`Estimator::analytic`] runs the same machinery with closed-form
//! weights and unit peakedness, reducing exactly to the Appendix-A
//! analysis — the property tests pin the two against each other, so the
//! calibrated path is anchored to the already-validated fixed point.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod compose;
pub mod estimate;
pub mod table;

pub use calibrate::{calibrate, CalibrationOptions};
pub use compose::{any_route_clear, compose_retrials, RetrialComposition};
pub use estimate::{Estimate, Estimator};
pub use table::{AnchorProfile, CalibrationTable, LinkProfile, ShareKind, SourceProfile};
