//! Integration tests for the experiment harness itself: the figure
//! drivers must produce well-formed, deterministic output at smoke-test
//! scale.

use anycast_bench::figures::comparison_systems;
use anycast_bench::{run_grid, run_replicated};
use anycast_dac::experiment::{ExperimentConfig, SystemSpec};
use anycast_dac::policy::PolicySpec;
use anycast_net::topologies;

#[test]
fn comparison_systems_are_the_figure6_lineup() {
    let labels: Vec<String> = comparison_systems().iter().map(|s| s.label()).collect();
    assert_eq!(
        labels,
        vec!["<ED,2>", "<WD/D+H,2>", "<WD/D+B,2>", "SP", "GDI"]
    );
}

#[test]
fn figures_rejects_unknown_names_and_flags_before_running_anything() {
    for bad in ["fig8_does_not_exist", "--bogus"] {
        let out = std::env::temp_dir().join(format!(
            "anycast-figures-cli-{}-{}",
            std::process::id(),
            bad.trim_start_matches('-')
        ));
        // A valid, minutes-long figure first: nothing may start before
        // the whole command line has been checked.
        let status = std::process::Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(["fig6_ap_comparison", bad, "--out"])
            .arg(&out)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .unwrap();
        assert_eq!(status.code(), Some(2), "{bad}");
        assert!(!out.exists(), "{bad}: the output directory was created");
    }
}

#[test]
fn replication_stderr_reflects_seed_spread() {
    let topo = topologies::mci();
    let cfg = ExperimentConfig::paper_defaults(35.0, SystemSpec::dac(PolicySpec::Ed, 2))
        .with_warmup_secs(60.0)
        .with_measure_secs(120.0);
    let one = run_replicated(&topo, &cfg, &[1]);
    let three = run_replicated(&topo, &cfg, &[1, 2, 3]);
    assert_eq!(one.ap_stderr, 0.0);
    assert!(
        three.ap_stderr > 0.0,
        "distinct seeds must disagree a little"
    );
    assert_eq!(three.runs.len(), 3);
}

#[test]
fn grid_results_keep_config_order() {
    let topo = topologies::mci();
    let configs: Vec<ExperimentConfig> = [50.0, 5.0, 30.0]
        .iter()
        .map(|&l| {
            ExperimentConfig::paper_defaults(l, SystemSpec::ShortestPath)
                .with_warmup_secs(30.0)
                .with_measure_secs(60.0)
        })
        .collect();
    let results = run_grid(&topo, &configs, &[9], 2);
    assert_eq!(results.len(), 3);
    assert_eq!(results[0].lambda, 50.0);
    assert_eq!(results[1].lambda, 5.0);
    assert_eq!(results[2].lambda, 30.0);
    // λ=5 trivially admits more than λ=50.
    assert!(results[1].admission_probability > results[0].admission_probability);
}
