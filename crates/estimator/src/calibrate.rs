//! Calibration: short DES bursts at a few anchor λs → a
//! [`CalibrationTable`] the composition engine interpolates.
//!
//! Each anchor burst is an ordinary traced experiment with shortened
//! horizons (`anycast-dac::calibrate`); the extractors in
//! `anycast-telemetry::occupancy` fold its event stream into per-source
//! destination-selection shares and per-link occupancy moments. Bursts
//! are independent, so anchors fan out over the worker pool — and because
//! each burst is a pure function of `(topo, config, burst)` and results
//! come back in input order, the table is **byte-identical for every
//! `jobs` value and every repetition at the same seed** (the
//! determinism test pins this down on the canonical JSON rendering).

use crate::table::{AnchorProfile, CalibrationTable, LinkProfile, SourceProfile};
use anycast_dac::calibrate::{run_calibration_burst, CalibrationBurst, CalibrationObservation};
use anycast_dac::experiment::ExperimentConfig;
use anycast_net::Topology;
use anycast_telemetry::{link_occupancy, source_attempt_profiles};

/// How a calibration run sweeps its anchor bursts.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationOptions {
    /// Anchor request rates, strictly increasing. The default brackets
    /// the paper's Figure-6 sweep (λ ∈ [5, 50]) with one anchor per
    /// regime: underload, knee onset, knee, overload.
    pub anchors: Vec<f64>,
    /// Seed every burst runs under (bursts at different anchors share it;
    /// determinism is per-(anchor, seed)).
    pub seed: u64,
    /// Burst horizons and sampling, in *compressed* simulated seconds
    /// (see [`time_compression`](CalibrationOptions::time_compression)).
    /// The default — 10 s warmup, 40 s measured — is deliberately far
    /// below the paper's 1800 s + 3600 s: the table only needs occupancy
    /// *shapes* and selection *shares*, not tail-accurate point
    /// estimates, and the speedup budget of the fast path lives exactly
    /// in this gap.
    pub burst: CalibrationBurst,
    /// Time-compression factor `c ≥ 1`: each burst runs at `λ·c` with
    /// mean holding time `T/c`. The offered load `ρ = λ·T` — the only
    /// quantity the Erlang loss network's steady state depends on
    /// (insensitivity) — is unchanged, but the transient fill time
    /// (a few mean holding times) shrinks by `c`, so a burst reaches
    /// quasi-steady state `c×` sooner in simulated time. Per-request
    /// statistics (AP, selection shares, occupancy moments) are invariant;
    /// the anchor profile records the *real* λ.
    pub time_compression: f64,
    /// Worker threads for the anchor fan-out.
    pub jobs: usize,
}

impl Default for CalibrationOptions {
    fn default() -> Self {
        CalibrationOptions {
            anchors: vec![5.0, 20.0, 35.0, 50.0],
            seed: 0xCA11B,
            burst: CalibrationBurst {
                warmup_secs: 10.0,
                measure_secs: 40.0,
                ..CalibrationBurst::default()
            },
            time_compression: 1.0,
            jobs: 1,
        }
    }
}

/// Runs one burst per anchor λ and folds the observations into a
/// [`CalibrationTable`] for `base`'s system on `topo`.
///
/// `base` supplies everything but λ and the horizons: system, group,
/// sources, flow bandwidth, anycast fraction. Deterministic: equal
/// `(topo, base, options)` give byte-identical tables for any `jobs`.
///
/// # Panics
///
/// Panics if `options` is degenerate (no anchors, unsorted anchors,
/// `jobs == 0`), if `base` uses the multi-group extension (the estimator
/// models the paper's single group), or if a burst is invalid for the
/// topology (see [`run_calibration_burst`]).
pub fn calibrate(
    topo: &Topology,
    base: &ExperimentConfig,
    options: &CalibrationOptions,
) -> CalibrationTable {
    assert!(!options.anchors.is_empty(), "need at least one anchor λ");
    assert!(
        options.anchors.windows(2).all(|w| w[0] < w[1]),
        "anchors must be strictly increasing, got {:?}",
        options.anchors
    );
    assert!(options.jobs >= 1, "need at least one worker");
    assert!(
        options.time_compression.is_finite() && options.time_compression >= 1.0,
        "time compression must be >= 1, got {}",
        options.time_compression
    );
    assert!(
        base.groups.is_empty(),
        "calibration models the paper's single anycast group"
    );
    let members = base.group_members.len();
    assert!(members >= 1, "group must be non-empty");

    let observations: Vec<CalibrationObservation> =
        anycast_sim::pool::parallel_map(options.jobs, &options.anchors, |_, &lambda| {
            let mut config = base.clone().with_seed(options.seed);
            config.lambda = lambda * options.time_compression;
            config.mean_holding_secs = base.mean_holding_secs / options.time_compression;
            run_calibration_burst(topo, &config, &options.burst)
        });

    let anchors = options
        .anchors
        .iter()
        .zip(&observations)
        .map(|(&lambda, obs)| fold_observation(lambda, obs, topo, base, members))
        .collect();
    CalibrationTable {
        system_label: base.system.label(),
        seed: options.seed,
        burst_warmup_secs: options.burst.warmup_secs,
        burst_measure_secs: options.burst.measure_secs,
        anchors,
    }
}

fn fold_observation(
    lambda: f64,
    obs: &CalibrationObservation,
    topo: &Topology,
    base: &ExperimentConfig,
    members: usize,
) -> AnchorProfile {
    let occ = link_occupancy(&obs.events, topo.link_count(), obs.warmup_secs);
    let profiles = source_attempt_profiles(&obs.events, &base.sources, members, obs.warmup_secs);
    let sources = base
        .sources
        .iter()
        .zip(&profiles)
        .map(|(&node, p)| SourceProfile {
            node: node.raw(),
            requests: p.requests,
            first_share: counts_to_shares(&p.first_attempts),
            attempt_share: counts_to_shares(&p.attempts),
            admitted_share: counts_to_shares(&p.admissions),
        })
        .collect();
    let links = occ
        .iter()
        .map(|o| LinkProfile {
            samples: o.samples,
            mean_flows: o.mean_flows,
            peakedness: o.peakedness,
        })
        .collect();
    AnchorProfile {
        lambda,
        requests: profiles.iter().map(|p| p.requests).sum(),
        measured_ap: obs.metrics.admission_probability,
        measured_tries: obs.metrics.mean_tries,
        sources,
        links,
    }
}

/// Counts → probability shares; all-zero counts fall back to uniform so
/// a source that saw no traffic in a short burst still gets usable
/// weights.
fn counts_to_shares(counts: &[u64]) -> Vec<f64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        let k = counts.len().max(1);
        return vec![1.0 / k as f64; counts.len()];
    }
    counts.iter().map(|&c| c as f64 / total as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use anycast_dac::experiment::SystemSpec;
    use anycast_dac::policy::PolicySpec;
    use anycast_net::topologies;

    fn quick_options() -> CalibrationOptions {
        CalibrationOptions {
            anchors: vec![10.0, 40.0],
            burst: CalibrationBurst {
                warmup_secs: 5.0,
                measure_secs: 15.0,
                ..CalibrationBurst::default()
            },
            ..CalibrationOptions::default()
        }
    }

    #[test]
    fn table_shape_matches_scenario() {
        let topo = topologies::mci();
        let base = ExperimentConfig::paper_defaults(10.0, SystemSpec::dac(PolicySpec::Ed, 2));
        let table = calibrate(&topo, &base, &quick_options());
        assert_eq!(table.system_label, "<ED,2>");
        assert_eq!(table.anchors.len(), 2);
        for a in &table.anchors {
            assert_eq!(a.sources.len(), base.sources.len());
            assert_eq!(a.links.len(), topo.link_count());
            assert!(a.requests > 50, "burst too quiet: {} requests", a.requests);
            assert!(a.measured_ap > 0.0 && a.measured_ap <= 1.0);
            for s in &a.sources {
                assert!((s.first_share.iter().sum::<f64>() - 1.0).abs() < 1e-9);
                assert_eq!(s.first_share.len(), base.group_members.len());
            }
        }
        // Heavier anchor must not admit more than the light one.
        assert!(table.anchors[1].measured_ap <= table.anchors[0].measured_ap + 0.05);
    }

    #[test]
    fn jobs_do_not_change_the_table() {
        let topo = topologies::mci();
        let base = ExperimentConfig::paper_defaults(10.0, SystemSpec::ShortestPath);
        let opts = quick_options();
        let serial = calibrate(&topo, &base, &opts);
        let parallel = calibrate(&topo, &base, &CalibrationOptions { jobs: 4, ..opts });
        assert_eq!(serial.canonical_json(), parallel.canonical_json());
    }

    #[test]
    fn compression_keeps_real_lambda_and_boosts_evidence() {
        let topo = topologies::mci();
        let base = ExperimentConfig::paper_defaults(8.0, SystemSpec::dac(PolicySpec::Ed, 2));
        let burst = CalibrationBurst {
            warmup_secs: 20.0,
            measure_secs: 20.0,
            ..CalibrationBurst::default()
        };
        let plain = calibrate(
            &topo,
            &base,
            &CalibrationOptions {
                anchors: vec![8.0],
                burst: burst.clone(),
                ..CalibrationOptions::default()
            },
        );
        let compressed = calibrate(
            &topo,
            &base,
            &CalibrationOptions {
                anchors: vec![8.0],
                burst,
                time_compression: 5.0,
                ..CalibrationOptions::default()
            },
        );
        // The table is keyed by the real λ either way, and compression
        // packs ~5× the requests into the same simulated horizon.
        assert_eq!(compressed.anchors[0].lambda, 8.0);
        assert!(
            compressed.anchors[0].requests > 3 * plain.anchors[0].requests,
            "compressed {} vs plain {}",
            compressed.anchors[0].requests,
            plain.anchors[0].requests
        );
        assert!(compressed.anchors[0].measured_ap > 0.5);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_anchors_rejected() {
        let topo = topologies::mci();
        let base = ExperimentConfig::paper_defaults(10.0, SystemSpec::ShortestPath);
        let _ = calibrate(
            &topo,
            &base,
            &CalibrationOptions {
                anchors: vec![20.0, 10.0],
                ..CalibrationOptions::default()
            },
        );
    }
}
