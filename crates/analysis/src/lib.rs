//! Analytical admission-probability model (Appendix A of the paper).
//!
//! The paper validates its simulation with a queueing-theoretic model:
//! every link is an Erlang loss system, link blocking probabilities are
//! coupled through the classical *reduced-load* ("thinning") fixed point
//! under the link-independence assumption, and per-link blocking is
//! evaluated either exactly (Erlang-B — exact here because all flows
//! demand the same bandwidth) or with the paper's *uniform asymptotic
//! approximation* (UAA, eqs. 23–29).
//!
//! * [`erlang_b`] — numerically stable Erlang-B recursion;
//! * [`uaa_blocking`] — the UAA formula, including our own `erfc`;
//! * [`predict_ap`] — the reduced-load fixed point (eqs. 19–22) and the
//!   admission probability of eq. (15);
//! * [`scenario`] — builders that turn a topology + §5.1 traffic spec into
//!   the offered route loads of the `<ED,1>` and `SP` systems (eq. 14 and
//!   the uniform split above it), plus the multi-retrial extension.
//!
//! # Example
//!
//! ```rust
//! use anycast_analysis::scenario::{build_paper_scenario, AnalyzedSystem};
//! use anycast_analysis::{predict_ap, BlockingModel};
//! use anycast_net::topologies;
//!
//! let topo = topologies::mci();
//! let scenario = build_paper_scenario(&topo, 20.0, AnalyzedSystem::Ed1);
//! let prediction = predict_ap(&scenario, BlockingModel::ErlangB);
//! assert!(prediction.converged);
//! assert!(prediction.admission_probability > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod erlang;
mod fixed_point;
pub mod planning;
pub mod scenario;
mod special;
mod uaa;

pub use erlang::{erlang_b, erlang_b_ln};
pub use fixed_point::{predict_ap, predict_ap_batch, ApPrediction, BlockingModel};
pub use uaa::uaa_blocking;
