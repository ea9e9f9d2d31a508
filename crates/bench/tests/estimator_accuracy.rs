//! The link-decomposition estimator against the full DES: for all five
//! systems of Fig. 6 on MCI, `|AP_est − AP_sim| ≤ 0.05` on every cell of a
//! 3-λ grid. Calibration and validation never share randomness — bursts
//! run under the estimator's default seed, the DES under its own.
//!
//! This is the smoke profile of the retired `bench_pr8` binary; its full
//! 95-cell run at paper horizons is the history in `BENCH_pr8.json`.

use anycast_bench::figures::comparison_systems;
use anycast_bench::parallel_map;
use anycast_dac::calibrate::CalibrationBurst;
use anycast_dac::experiment::{run_experiment, ExperimentConfig};
use anycast_estimator::{CalibrationOptions, Estimator};
use anycast_net::topologies;

const LAMBDAS: [f64; 3] = [15.0, 30.0, 45.0];
const DES_SEED: u64 = 101;
const ERROR_BOUND: f64 = 0.05;
const JOBS: usize = 2;

#[test]
fn estimator_tracks_the_des_on_every_cell() {
    let topo = topologies::mci();
    let options = CalibrationOptions {
        anchors: vec![12.0, 30.0, 48.0],
        burst: CalibrationBurst {
            warmup_secs: 90.0,
            measure_secs: 60.0,
            ..CalibrationBurst::default()
        },
        time_compression: 6.0,
        jobs: JOBS,
        ..CalibrationOptions::default()
    };
    let mut worst = (0.0f64, String::new(), 0.0);
    for system in comparison_systems() {
        let label = system.label();
        let base = ExperimentConfig::paper_defaults(LAMBDAS[0], system);
        let estimates = Estimator::calibrated(&topo, &base, &options).predict_batch(JOBS, &LAMBDAS);
        let simulated = parallel_map(JOBS, &LAMBDAS, |_, &lambda| {
            let config = ExperimentConfig::paper_defaults(lambda, system)
                .with_warmup_secs(540.0)
                .with_measure_secs(300.0)
                .with_seed(DES_SEED);
            run_experiment(&topo, &config)
        });
        for ((est, sim), lambda) in estimates.iter().zip(simulated).zip(LAMBDAS) {
            // Every number `bench_pr8` wrote per cell, which ci.sh's NaN
            // gate used to grep.
            for (name, value) in [
                ("ap_est_raw", est.raw_admission_probability),
                ("residual", est.residual_correction),
                ("tries_est", est.mean_tries),
                ("ap_sim", sim.admission_probability),
                ("tries_sim", sim.mean_tries),
            ] {
                assert!(value.is_finite(), "{label} λ={lambda}: {name} is {value}");
            }
            let (ap_est, ap_sim) = (est.admission_probability, sim.admission_probability);
            assert!(
                (0.0..=1.0).contains(&ap_est),
                "{label} λ={lambda}: estimate {ap_est} is not a probability"
            );
            let err = (ap_est - ap_sim).abs();
            eprintln!(
                "{label:<11} λ={lambda:>4}  sim {ap_sim:.4}  est {ap_est:.4}  |err| {err:.4}"
            );
            assert!(
                err <= ERROR_BOUND,
                "{label} λ={lambda}: |{ap_est:.4} − {ap_sim:.4}| exceeds {ERROR_BOUND}"
            );
            if err > worst.0 {
                worst = (err, label.clone(), lambda);
            }
        }
    }
    eprintln!("worst |err| {:.4} ({} λ={})", worst.0, worst.1, worst.2);
}
