//! Satellite invariance property for the two-phase signalling engine:
//! degenerate two-phase (zero per-hop delay, no signalling faults,
//! whatever the timeout) is bit-identical to the atomic engine — same
//! metrics, same message ledger, same event streams — for every `--jobs`
//! value, and delayed and lossy two-phase sweeps stay jobs-invariant too.

use anycast_bench::{run_grid_traced, TracedCell};
use anycast_chaos::{FaultPlan, MessageFault, SignalingFaults};
use anycast_dac::experiment::{ExperimentConfig, SignalingMode, SystemSpec, TwoPhaseConfig};
use anycast_dac::policy::PolicySpec;
use anycast_net::topologies;
use anycast_telemetry::TelemetryMode;

fn configs(signaling: SignalingMode) -> Vec<ExperimentConfig> {
    [20.0, 45.0]
        .into_iter()
        .map(|lambda| {
            ExperimentConfig::paper_defaults(lambda, SystemSpec::dac(PolicySpec::Ed, 2))
                .with_warmup_secs(20.0)
                .with_measure_secs(80.0)
                .with_signaling(signaling)
        })
        .collect()
}

fn assert_cells_identical(a: &[TracedCell], b: &[TracedCell], what: &str) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.config_index, y.config_index);
        assert_eq!(x.seed, y.seed);
        assert_eq!(x.metrics, y.metrics, "{what}: metrics diverged");
        assert_eq!(x.events, y.events, "{what}: event streams diverged");
    }
}

#[test]
fn degenerate_two_phase_matches_atomic_for_every_job_count() {
    let topo = topologies::mci();
    let seeds = [11, 22];
    let atomic = configs(SignalingMode::Atomic);
    // An infinite timeout and a non-default backoff must be irrelevant:
    // with zero delay and no faults the exchange is synchronous.
    let degenerate = configs(SignalingMode::TwoPhase(TwoPhaseConfig {
        setup_timeout_secs: f64::INFINITY,
        ..TwoPhaseConfig::default()
    }));
    let (_, atomic_cells) = run_grid_traced(&topo, &atomic, &seeds, 1, TelemetryMode::ring());
    for jobs in [1, 2, 4] {
        let (_, cells) = run_grid_traced(&topo, &degenerate, &seeds, jobs, TelemetryMode::ring());
        assert_cells_identical(&atomic_cells, &cells, "degenerate two-phase vs atomic");
    }
    // The equality above includes admitted/rejected counts and the
    // per-kind message ledger; spot-check the ledger is non-trivial.
    let ledger = &atomic_cells[0].metrics.messages;
    assert!(ledger.total() > 0, "the runs must exchange messages");
}

#[test]
fn delayed_and_lossy_two_phase_sweeps_are_jobs_invariant() {
    let topo = topologies::mci();
    let seeds = [11, 22];
    let delayed = configs(SignalingMode::TwoPhase(TwoPhaseConfig {
        per_hop_delay_secs: 0.05,
        ..TwoPhaseConfig::default()
    }));
    // 2% loss per hop crossing on every message kind: timeouts, hold
    // expiry and retransmission all fire.
    let lost = MessageFault {
        loss_probability: 0.02,
        extra_delay_secs: 0.0,
    };
    let lossy_plan = FaultPlan::none().with_signaling(SignalingFaults {
        path: lost,
        resv: lost,
        resv_err: lost,
    });
    let lossy: Vec<ExperimentConfig> = delayed
        .iter()
        .map(|c| c.clone().with_faults(lossy_plan.clone()))
        .collect();
    for (what, grid) in [("delayed two-phase", delayed), ("lossy two-phase", lossy)] {
        let (serial_sum, serial_cells) =
            run_grid_traced(&topo, &grid, &seeds, 1, TelemetryMode::ring());
        for jobs in [2, 4] {
            let (par_sum, par_cells) =
                run_grid_traced(&topo, &grid, &seeds, jobs, TelemetryMode::ring());
            assert_cells_identical(&serial_cells, &par_cells, what);
            for (a, b) in serial_sum.iter().zip(&par_sum) {
                assert_eq!(a.runs, b.runs, "{what}: jobs={jobs}");
            }
        }
        assert!(
            serial_cells
                .iter()
                .all(|c| c.metrics.setups_completed > 0 && c.metrics.holds_placed > 0),
            "{what}: cells actually exercised the signalling engine"
        );
    }
}
