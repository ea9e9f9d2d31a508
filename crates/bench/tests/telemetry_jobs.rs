//! Determinism of traced sweeps under parallelism: the event streams and
//! metrics a `run_grid_traced` sweep returns are bit-identical for every
//! `--jobs` value, and identical to the untraced `run_grid` metrics.

use anycast_bench::{run_grid, run_grid_traced, TracedCell};
use anycast_dac::experiment::{ExperimentConfig, SystemSpec};
use anycast_dac::policy::PolicySpec;
use anycast_net::topologies;
use anycast_telemetry::TelemetryMode;

fn configs() -> Vec<ExperimentConfig> {
    [20.0, 45.0]
        .into_iter()
        .map(|lambda| {
            ExperimentConfig::paper_defaults(lambda, SystemSpec::dac(PolicySpec::Ed, 2))
                .with_warmup_secs(20.0)
                .with_measure_secs(80.0)
        })
        .collect()
}

fn assert_cells_identical(a: &[TracedCell], b: &[TracedCell]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.config_index, y.config_index);
        assert_eq!(x.seed, y.seed);
        assert_eq!(x.metrics, y.metrics);
        assert_eq!(x.events, y.events, "event streams diverged under --jobs");
    }
}

#[test]
fn traced_sweep_is_bit_identical_for_every_job_count() {
    let topo = topologies::mci();
    let configs = configs();
    let seeds = [11, 22];
    let mode = TelemetryMode::Ring {
        sample_interval_secs: Some(30.0),
        capacity: 1 << 18,
    };
    let (serial_sum, serial_cells) = run_grid_traced(&topo, &configs, &seeds, 1, mode);
    for jobs in [2, 4] {
        let (par_sum, par_cells) = run_grid_traced(&topo, &configs, &seeds, jobs, mode);
        assert_cells_identical(&serial_cells, &par_cells);
        for (a, b) in serial_sum.iter().zip(&par_sum) {
            assert_eq!(a.runs, b.runs, "jobs={jobs}");
        }
    }
    assert!(
        serial_cells.iter().all(|c| !c.events.is_empty()),
        "every traced cell captures events"
    );
    // Cells come back in input order: config-major, then seed.
    let keys: Vec<(usize, u64)> = serial_cells
        .iter()
        .map(|c| (c.config_index, c.seed))
        .collect();
    assert_eq!(keys, vec![(0, 11), (0, 22), (1, 11), (1, 22)]);
}

#[test]
fn traced_metrics_match_untraced_grid() {
    let topo = topologies::mci();
    let configs = configs();
    let seeds = [11, 22];
    let plain = run_grid(&topo, &configs, &seeds, 2);
    for mode in [TelemetryMode::Null, TelemetryMode::ring()] {
        let (traced, _) = run_grid_traced(&topo, &configs, &seeds, 2, mode);
        for (a, b) in plain.iter().zip(&traced) {
            assert_eq!(a.runs, b.runs, "mode {mode:?} changed sweep results");
        }
    }
}
