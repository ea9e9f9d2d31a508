//! Experiment harness: parallel parameter sweeps, replication statistics
//! and table formatting behind the `figures` driver.
//!
//! Every table and figure of the paper, and every design ablation, is one
//! entry of `FIGURES`; `figures [NAME...]` runs them and writes
//! `results/<NAME>.txt`, the same rows/series the paper reports:
//!
//! | Name | Paper artifact |
//! |------|----------------|
//! | `fig3_ed_sensitivity` | Figure 3 — AP of `<ED,R>` vs λ |
//! | `fig4_wddh_sensitivity` | Figure 4 — AP of `<WD/D+H,R>` vs λ |
//! | `fig5_wddb_sensitivity` | Figure 5 — AP of `<WD/D+B,R>` vs λ |
//! | `fig6_ap_comparison` | Figure 6 — AP of the three DAC systems vs SP and GDI |
//! | `fig7_avg_retrials` | Figure 7 — average tries per request |
//! | `table1_ed1_analysis_vs_sim` | Table 1 — analysis vs simulation, `<ED,1>` |
//! | `table2_sp_analysis_vs_sim` | Table 2 — analysis vs simulation, `SP` |
//! | `ablation_*` | design-choice ablations (α, history mode, topology, group size, …) |
//! | `ablation_faults` | AP and availability under rising link-failure rates |
//!
//! `cargo run --release -p anycast-bench --bin figures [-- NAME...]`
//! takes `--quick` for a shortened smoke-test configuration, `--jobs N`
//! for the sweep worker count and `--out DIR` for another directory than
//! `results/`. Output is deterministic for fixed seeds **and for every
//! `--jobs` value** — sweeps fan `(config, seed)` jobs across a
//! scoped-thread [`parallel_map`] pool whose reassembled results are
//! bit-for-bit identical to a serial run. Figures 6–7 and the fault
//! ablation also write a machine-readable copy of their series to
//! `<NAME>.json` (see [`json`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod json;
mod settings;
pub mod stats;
mod sweep;
mod table;

pub use anycast_sim::pool::{default_jobs, parallel_map};
pub use settings::RunSettings;
pub use sweep::{
    mean_and_stderr, run_grid, run_grid_traced, run_replicated, ReplicatedMetrics, TracedCell,
};
pub(crate) use table::Table;

/// The arrival-rate grid of the paper's figures (flows/second).
pub(crate) const LAMBDA_GRID: [f64; 10] =
    [5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0];

/// The arrival rates of Tables 1 and 2.
pub(crate) const TABLE_LAMBDAS: [f64; 4] = [5.0, 20.0, 35.0, 50.0];

/// The retrial limits of Figures 3–5.
pub(crate) const RETRIAL_GRID: [u32; 5] = [1, 2, 3, 4, 5];
