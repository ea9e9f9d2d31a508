//! The tentpole guarantee of the parallel sweep engine: results are
//! **bit-for-bit identical** for every `--jobs` value — across all five
//! systems of the paper's comparison, under a non-trivial fault plan, and
//! for arbitrary `(λ, master seed)` pairs.

use anycast_bench::figures::comparison_systems;
use anycast_bench::{parallel_map, run_grid};
use anycast_chaos::FaultPlan;
use anycast_dac::experiment::{ExperimentConfig, SystemSpec};
use anycast_net::topologies;
use anycast_sim::SimRng;
use proptest::prelude::*;

/// A fault plan that exercises every chaos channel the engine feeds into
/// the runs: link outages, lossy teardowns, and delayed teardowns.
fn chaotic_plan() -> FaultPlan {
    let mut plan = FaultPlan::none().with_link_model(300.0, 60.0);
    plan.control.teardown_loss_probability = 0.1;
    plan.control.teardown_delay_secs = 2.0;
    plan
}

fn short(lambda: f64, system: SystemSpec, plan: FaultPlan) -> ExperimentConfig {
    ExperimentConfig::paper_defaults(lambda, system)
        .with_warmup_secs(30.0)
        .with_measure_secs(90.0)
        .with_faults(plan)
}

/// All five systems of Figures 6/7 (ED, WD/D+H, WD/D+B, SP, GDI), under
/// faults and fault-free: `--jobs 2` and `--jobs 8` reproduce `--jobs 1`
/// exactly.
#[test]
fn five_systems_are_jobs_invariant_with_and_without_faults() {
    let topo = topologies::mci();
    let seeds = [SimRng::substream_seed(9, 0), SimRng::substream_seed(9, 1)];
    for plan in [chaotic_plan(), FaultPlan::none()] {
        let configs: Vec<ExperimentConfig> = comparison_systems()
            .into_iter()
            .map(|system| short(25.0, system, plan.clone()))
            .collect();
        assert_eq!(configs.len(), 5, "ED, WD/D+H, WD/D+B, SP, GDI");
        let serial = run_grid(&topo, &configs, &seeds, 1);
        for jobs in [2, 8] {
            let parallel = run_grid(&topo, &configs, &seeds, jobs);
            assert_eq!(serial.len(), parallel.len());
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.runs, b.runs, "{}: jobs={jobs} diverged", a.label);
            }
        }
    }
}

/// Randomly sampled `(λ, master seed)` cases of the same invariance — a
/// hand-rolled property loop because sweeps are too expensive for the
/// default proptest case count; the draws are substream-seeded so the
/// sampled cases are fixed across runs.
#[test]
fn sampled_sweeps_are_jobs_invariant() {
    let topo = topologies::mci();
    let mut sampler = SimRng::seed_from(0xB2E7);
    for case in 0..4 {
        let lambda = 5.0 + sampler.uniform() * 45.0;
        let master = SimRng::substream_seed(0xB2E7, case);
        let configs: Vec<ExperimentConfig> = comparison_systems()
            .into_iter()
            .map(|system| short(lambda, system, chaotic_plan()))
            .collect();
        let seeds = [
            SimRng::substream_seed(master, 0),
            SimRng::substream_seed(master, 1),
        ];
        let serial = run_grid(&topo, &configs, &seeds, 1);
        for jobs in [2, 8] {
            let parallel = run_grid(&topo, &configs, &seeds, jobs);
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(
                    a.runs, b.runs,
                    "{}: lambda={lambda} master={master} jobs={jobs} diverged",
                    a.label
                );
            }
        }
    }
}

proptest! {
    /// The pool primitive itself preserves input order for any job count
    /// and any input length.
    #[test]
    fn pool_output_is_scheduling_independent(
        items in prop::collection::vec(any::<u32>(), 0..50),
        jobs in 1usize..12,
    ) {
        let serial: Vec<u64> = items.iter().enumerate()
            .map(|(i, &x)| (i as u64) << 32 | u64::from(x))
            .collect();
        let pooled = parallel_map(jobs, &items, |i, &x| (i as u64) << 32 | u64::from(x));
        prop_assert_eq!(pooled, serial);
    }
}
