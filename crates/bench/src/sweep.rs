//! Parallel sweep execution with replication averaging.
//!
//! Sweeps fan the flattened `(configuration, seed)` job list across the
//! [`pool`](crate::parallel_map) worker threads. Every job is a pure
//! function of its `(config, seed)` pair, and results are reassembled in
//! input order, so a sweep's output is **bit-for-bit identical** for every
//! `jobs` value — parallelism changes only the wall-clock.

use anycast_dac::experiment::{run_experiment, run_experiment_traced, ExperimentConfig, Metrics};
use anycast_net::Topology;
use anycast_sim::pool::parallel_map;
use anycast_telemetry::{NullRecorder, RingRecorder, TelemetryMode, TimedEvent};

/// Metrics averaged over independent replications of one configuration.
#[derive(Debug, Clone)]
pub struct ReplicatedMetrics {
    /// The system label of the underlying runs.
    pub label: String,
    /// Arrival rate.
    pub lambda: f64,
    /// Mean admission probability across replications.
    pub admission_probability: f64,
    /// Standard error of the AP across replications (0 for one rep).
    pub ap_stderr: f64,
    /// Mean of the per-run mean tries (Figure 7 metric).
    pub mean_tries: f64,
    /// Mean signaling messages per request.
    pub messages_per_request: f64,
    /// Mean time-average network utilization across replications.
    pub mean_network_utilization: f64,
    /// The individual replication results.
    pub runs: Vec<Metrics>,
}

/// Sample mean and standard error of a slice.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn mean_and_stderr(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "need at least one value");
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if values.len() < 2 {
        return (mean, 0.0);
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, (var / n).sqrt())
}

/// Runs `config` once per seed (serially) and averages the replications.
pub fn run_replicated(
    topo: &Topology,
    config: &ExperimentConfig,
    seeds: &[u64],
) -> ReplicatedMetrics {
    assert!(!seeds.is_empty(), "need at least one seed");
    let runs: Vec<Metrics> = seeds
        .iter()
        .map(|&s| run_experiment(topo, &config.clone().with_seed(s)))
        .collect();
    summarize(runs)
}

fn summarize(runs: Vec<Metrics>) -> ReplicatedMetrics {
    let aps: Vec<f64> = runs.iter().map(|m| m.admission_probability).collect();
    let (ap, ap_stderr) = mean_and_stderr(&aps);
    let tries: Vec<f64> = runs.iter().map(|m| m.mean_tries).collect();
    let msgs: Vec<f64> = runs.iter().map(|m| m.messages_per_request).collect();
    let utils: Vec<f64> = runs.iter().map(|m| m.mean_network_utilization).collect();
    ReplicatedMetrics {
        label: runs[0].label.clone(),
        lambda: runs[0].lambda,
        admission_probability: ap,
        ap_stderr,
        mean_tries: mean_and_stderr(&tries).0,
        messages_per_request: mean_and_stderr(&msgs).0,
        mean_network_utilization: mean_and_stderr(&utils).0,
        runs,
    }
}

/// Runs a grid of configurations on `jobs` worker threads and returns
/// results in input order.
///
/// Each grid cell is replicated over `seeds` and averaged. Work is
/// distributed over the flattened `(config, seed)` job list by
/// atomic-cursor stealing, so heavily loaded cells (high λ) do not
/// serialise the sweep. Every job runs `run_experiment` — a pure function
/// of `(topo, config, seed)` — and results are reassembled in input order,
/// so the returned vector is bit-for-bit identical for every `jobs` value.
///
/// # Panics
///
/// Panics if `seeds` is empty or `jobs == 0`.
pub fn run_grid(
    topo: &Topology,
    configs: &[ExperimentConfig],
    seeds: &[u64],
    jobs: usize,
) -> Vec<ReplicatedMetrics> {
    assert!(!seeds.is_empty(), "need at least one seed");
    let cells: Vec<(usize, u64)> = configs
        .iter()
        .enumerate()
        .flat_map(|(i, _)| seeds.iter().map(move |&s| (i, s)))
        .collect();
    let metrics = parallel_map(jobs, &cells, |_, &(cfg_idx, seed)| {
        run_experiment(topo, &configs[cfg_idx].clone().with_seed(seed))
    });
    metrics
        .chunks(seeds.len())
        .map(|runs| summarize(runs.to_vec()))
        .collect()
}

/// One `(config, seed)` grid cell's run result together with the
/// telemetry events it produced.
///
/// Cells are keyed by `config_index` (position in the `configs` slice
/// handed to [`run_grid_traced`]) and the replication `seed`, so consumers
/// can reassociate events with their scenario regardless of how the sweep
/// was scheduled across worker threads.
#[derive(Debug, Clone)]
pub struct TracedCell {
    /// Index into the `configs` slice this cell ran.
    pub config_index: usize,
    /// Substream seed of this replication.
    pub seed: u64,
    /// The run's end-of-run metrics.
    pub metrics: Metrics,
    /// The telemetry events the run emitted (empty for
    /// [`TelemetryMode::Off`] and [`TelemetryMode::Null`]).
    pub events: Vec<TimedEvent>,
}

/// [`run_grid`] with a telemetry recorder attached to every cell.
///
/// Returns the same replication-averaged summaries as [`run_grid`] plus
/// one [`TracedCell`] per `(config, seed)` pair, **in input order**
/// (config-major, then seed). Each cell owns its recorder, and every
/// event stream is a pure function of `(topo, config, seed)`, so both
/// return values are bit-for-bit identical for every `jobs` value.
///
/// # Panics
///
/// Panics if `seeds` is empty or `jobs == 0`.
pub fn run_grid_traced(
    topo: &Topology,
    configs: &[ExperimentConfig],
    seeds: &[u64],
    jobs: usize,
    mode: TelemetryMode,
) -> (Vec<ReplicatedMetrics>, Vec<TracedCell>) {
    assert!(!seeds.is_empty(), "need at least one seed");
    let cells: Vec<(usize, u64)> = configs
        .iter()
        .enumerate()
        .flat_map(|(i, _)| seeds.iter().map(move |&s| (i, s)))
        .collect();
    let traced: Vec<TracedCell> = parallel_map(jobs, &cells, |_, &(cfg_idx, seed)| {
        let config = configs[cfg_idx].clone().with_seed(seed);
        let (metrics, events) = match mode {
            TelemetryMode::Off => (run_experiment(topo, &config), Vec::new()),
            TelemetryMode::Null => {
                let mut rec = NullRecorder;
                (run_experiment_traced(topo, &config, &mut rec), Vec::new())
            }
            TelemetryMode::Ring {
                sample_interval_secs,
                capacity,
            } => {
                let mut rec = RingRecorder::with_capacity(seed, capacity);
                if let Some(secs) = sample_interval_secs {
                    rec = rec.with_sample_interval(secs);
                }
                let metrics = run_experiment_traced(topo, &config, &mut rec);
                (metrics, rec.events())
            }
        };
        TracedCell {
            config_index: cfg_idx,
            seed,
            metrics,
            events,
        }
    });
    let summaries = traced
        .chunks(seeds.len())
        .map(|cells| summarize(cells.iter().map(|c| c.metrics.clone()).collect()))
        .collect();
    (summaries, traced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anycast_dac::experiment::SystemSpec;
    use anycast_dac::policy::PolicySpec;
    use anycast_net::topologies;

    fn tiny(lambda: f64) -> ExperimentConfig {
        ExperimentConfig::paper_defaults(lambda, SystemSpec::dac(PolicySpec::Ed, 2))
            .with_warmup_secs(50.0)
            .with_measure_secs(100.0)
    }

    #[test]
    fn mean_stderr_hand_case() {
        let (m, se) = mean_and_stderr(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((se - (1.0f64 / 3.0).sqrt()).abs() < 1e-12);
        let (m1, se1) = mean_and_stderr(&[5.0]);
        assert_eq!((m1, se1), (5.0, 0.0));
    }

    #[test]
    fn replication_is_deterministic_and_ordered() {
        let topo = topologies::mci();
        let cfg = tiny(20.0);
        let a = run_replicated(&topo, &cfg, &[1, 2]);
        let b = run_replicated(&topo, &cfg, &[1, 2]);
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.runs[0].seed, 1);
        assert_eq!(a.runs[1].seed, 2);
        assert!(a.ap_stderr >= 0.0);
    }

    #[test]
    fn grid_matches_sequential() {
        let topo = topologies::mci();
        let configs = vec![tiny(10.0), tiny(30.0)];
        let grid = run_grid(&topo, &configs, &[7, 8], 4);
        for (cfg, rep) in configs.iter().zip(&grid) {
            let seq = run_replicated(&topo, cfg, &[7, 8]);
            assert_eq!(rep.runs, seq.runs, "parallel and sequential runs agree");
        }
        assert_eq!(grid[0].lambda, 10.0);
        assert_eq!(grid[1].lambda, 30.0);
    }

    #[test]
    fn traced_grid_matches_plain_grid_in_every_mode() {
        let topo = topologies::mci();
        let configs = vec![tiny(15.0)];
        let plain = run_grid(&topo, &configs, &[5], 1);
        for mode in [
            TelemetryMode::Off,
            TelemetryMode::Null,
            TelemetryMode::ring(),
        ] {
            let (summary, cells) = run_grid_traced(&topo, &configs, &[5], 1, mode);
            assert_eq!(summary[0].runs, plain[0].runs, "mode {mode:?}");
            assert_eq!(cells.len(), 1);
            assert_eq!(cells[0].config_index, 0);
            assert_eq!(cells[0].seed, 5);
            assert_eq!(cells[0].metrics, plain[0].runs[0], "mode {mode:?}");
            match mode {
                TelemetryMode::Ring { .. } => assert!(!cells[0].events.is_empty()),
                _ => assert!(cells[0].events.is_empty()),
            }
        }
    }

    #[test]
    fn grid_is_identical_for_every_job_count() {
        let topo = topologies::mci();
        let configs = vec![tiny(10.0), tiny(25.0), tiny(40.0)];
        let serial = run_grid(&topo, &configs, &[3, 4], 1);
        for jobs in [2, 8] {
            let par = run_grid(&topo, &configs, &[3, 4], jobs);
            assert_eq!(serial.len(), par.len());
            for (a, b) in serial.iter().zip(&par) {
                assert_eq!(a.runs, b.runs, "jobs={jobs}");
            }
        }
    }
}
