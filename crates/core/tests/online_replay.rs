//! Replay determinism: feeding a recorded arrival trace through the
//! externally-fed [`OnlineEngine`] in virtual time must be bit-identical
//! to the self-driving offline engine — same [`Metrics`], same telemetry
//! event stream, same per-request decisions — for every system,
//! signalling mode and fault plan, and for any worker count.

use anycast_chaos::FaultPlan;
use anycast_dac::experiment::{
    run_experiment_traced, ArrivalProcess, Decision, DemandClass, ExperimentConfig, GroupSpec,
    Metrics, SignalingMode, SystemSpec, TwoPhaseConfig,
};
use anycast_dac::online::{record_arrivals, OnlineArrival, OnlineEngine};
use anycast_dac::policy::PolicySpec;
use anycast_net::Topology;
use anycast_net::{topologies, Bandwidth, NodeId};
use anycast_sim::pool::parallel_map;
use anycast_telemetry::{NullRecorder, Recorder, RingRecorder};

fn quick(lambda: f64, system: SystemSpec) -> ExperimentConfig {
    ExperimentConfig::paper_defaults(lambda, system)
        .with_warmup_secs(300.0)
        .with_measure_secs(600.0)
        .with_seed(17)
}

/// Replays a recorded arrival trace in virtual time: submits every
/// arrival to a fresh [`OnlineEngine`], runs to the horizon and closes the
/// run.
fn replay<R: Recorder>(
    topo: &Topology,
    config: &ExperimentConfig,
    trace: &[OnlineArrival],
    recorder: R,
) -> (Metrics, Vec<Decision>, R) {
    let mut online = OnlineEngine::new(topo, config, recorder);
    for &arrival in trace {
        online.submit(arrival);
    }
    online.finish()
}

/// Runs `config` offline and as a virtual-time trace replay, with ring
/// recorders on both sides, and asserts the runs are indistinguishable.
fn assert_replay_identical(config: &ExperimentConfig) {
    let topo = topologies::mci();
    let mut offline_rec = RingRecorder::with_capacity(config.seed, 1 << 20);
    let offline = run_experiment_traced(&topo, config, &mut offline_rec);

    let trace = record_arrivals(config);
    assert!(!trace.is_empty(), "trace must cover the run");
    let replay_rec = RingRecorder::with_capacity(config.seed, 1 << 20);
    let (replayed, decisions, replay_rec) = replay(&topo, config, &trace, replay_rec);

    assert_eq!(offline, replayed, "metrics diverged ({})", offline.label);
    let (_, offline_events, offline_dropped) = offline_rec.into_parts();
    let (_, replay_events, replay_dropped) = replay_rec.into_parts();
    assert_eq!(offline_dropped, 0, "ring too small for the offline run");
    assert_eq!(replay_dropped, 0, "ring too small for the replay");
    assert_eq!(
        offline_events, replay_events,
        "telemetry stream diverged ({})",
        offline.label
    );

    // Decisions are finalised in simulated-time order and never decide
    // the same request twice. (Under asynchronous two-phase signalling
    // they may resolve out of *arrival* order — setups race.)
    assert!(decisions.windows(2).all(|w| w[0].at_secs <= w[1].at_secs));
    let mut ids: Vec<u64> = decisions.iter().map(|d| d.request).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(
        ids.len(),
        decisions.len(),
        "duplicate decision for a request"
    );
}

#[test]
fn replay_matches_offline_dac() {
    assert_replay_identical(&quick(20.0, SystemSpec::dac(PolicySpec::Ed, 2)));
}

#[test]
fn replay_matches_offline_every_system() {
    for system in [
        SystemSpec::dac(PolicySpec::wd_dh_default(), 3),
        SystemSpec::dac(PolicySpec::WdDb, 2),
        SystemSpec::dac_multipath(PolicySpec::WdDb, 2, 2),
        SystemSpec::ShortestPath,
        SystemSpec::GlobalDynamic,
    ] {
        assert_replay_identical(&quick(25.0, system));
    }
}

#[test]
fn replay_matches_offline_two_phase_express() {
    // Zero per-hop delay with inert signaling faults degenerates to the
    // atomic exchange.
    assert_replay_identical(
        &quick(20.0, SystemSpec::dac(PolicySpec::WdDb, 2))
            .with_signaling(SignalingMode::TwoPhase(TwoPhaseConfig::default())),
    );
}

#[test]
fn replay_matches_offline_two_phase_async() {
    // Real per-hop latency: admission is event-driven and asynchronous,
    // decisions resolve after their arrival instant. Replay must still be
    // bit-identical.
    assert_replay_identical(
        &quick(15.0, SystemSpec::dac(PolicySpec::WdDb, 2)).with_signaling(SignalingMode::TwoPhase(
            TwoPhaseConfig {
                per_hop_delay_secs: 0.002,
                setup_timeout_secs: 1.0,
                ..TwoPhaseConfig::default()
            },
        )),
    );
}

#[test]
fn replay_matches_offline_under_chaos() {
    // The kitchen sink: bursty arrivals, a demand mix, two groups, link
    // faults, control-plane teardown loss — every auxiliary RNG stream in
    // play at once.
    let config = quick(18.0, SystemSpec::dac(PolicySpec::wd_dh_default(), 2))
        .with_arrivals(ArrivalProcess::Bursty {
            burstiness: 1.6,
            mean_sojourn_secs: 40.0,
        })
        .with_demand_mix(vec![
            DemandClass {
                bandwidth: Bandwidth::from_kbps(64),
                weight: 3.0,
            },
            DemandClass {
                bandwidth: Bandwidth::from_kbps(256),
                weight: 1.0,
            },
        ])
        .with_groups(vec![
            GroupSpec {
                members: vec![NodeId::new(2), NodeId::new(10), NodeId::new(14)],
                share: 2.0,
            },
            GroupSpec {
                members: vec![NodeId::new(5), NodeId::new(12)],
                share: 1.0,
            },
        ])
        .with_faults({
            let mut plan = FaultPlan::none().with_link_model(900.0, 60.0);
            plan.control.teardown_loss_probability = 0.05;
            plan.control.teardown_delay_secs = 2.0;
            plan
        });
    assert_replay_identical(&config);
}

#[test]
fn recorded_trace_is_deterministic_and_ordered() {
    let config = quick(20.0, SystemSpec::dac(PolicySpec::Ed, 2));
    let a = record_arrivals(&config);
    let b = record_arrivals(&config);
    assert_eq!(a, b, "recording must be a pure function of the config");
    assert!(a.windows(2).all(|w| w[0].at_secs <= w[1].at_secs));
    let horizon = config.warmup_secs + config.measure_secs;
    assert!(a.iter().all(|x| x.at_secs <= horizon));
    // ~λ·horizon arrivals: the trace covers the whole run, not a prefix.
    assert!(a.len() as f64 > 0.8 * config.lambda * horizon);
}

#[test]
fn every_sync_arrival_gets_exactly_one_decision() {
    let topo = topologies::mci();
    let config = quick(20.0, SystemSpec::dac(PolicySpec::Ed, 2));
    let trace = record_arrivals(&config);
    let (metrics, decisions, _) = replay(&topo, &config, &trace, NullRecorder);
    assert_eq!(
        decisions.len(),
        trace.len(),
        "synchronous admission decides every submitted arrival"
    );
    // The measured-period counters are a subset of the decision log
    // (warm-up decisions are made but not measured).
    let admitted = decisions.iter().filter(|d| d.admitted).count() as u64;
    assert!(metrics.admitted <= admitted);
    for d in &decisions {
        if d.admitted {
            assert!(d.member_index.is_some() && d.session.is_some());
        } else {
            assert!(d.member_index.is_none() && d.session.is_none());
        }
    }
}

#[test]
fn incremental_pumping_equals_one_shot_replay() {
    // Submitting arrival-by-arrival with a pump after each (as the live
    // daemon does) must equal submitting everything then finishing — also
    // for GDI's search and for asynchronous two-phase signalling, where
    // decisions resolve across later pumps.
    let topo = topologies::mci();
    for config in [
        quick(20.0, SystemSpec::dac(PolicySpec::WdDb, 2)),
        quick(20.0, SystemSpec::GlobalDynamic),
        quick(15.0, SystemSpec::dac(PolicySpec::wd_dh_default(), 2)).with_signaling(
            SignalingMode::TwoPhase(TwoPhaseConfig {
                per_hop_delay_secs: 0.002,
                setup_timeout_secs: 1.0,
                ..TwoPhaseConfig::default()
            }),
        ),
    ] {
        let trace = record_arrivals(&config);

        let (one_shot, one_decisions, _) = replay(&topo, &config, &trace, NullRecorder);

        let mut eng = OnlineEngine::new(&topo, &config, NullRecorder);
        let mut incremental = Vec::new();
        for a in &trace {
            eng.submit(*a);
            incremental.extend(eng.pump());
        }
        let (stepped, tail, _) = eng.finish();
        incremental.extend(tail);

        assert_eq!(one_shot, stepped, "pacing must not change the outcome");
        assert_eq!(one_decisions, incremental);
    }
}

#[test]
fn replay_is_identical_for_any_worker_count() {
    // The daemon's bench fans replays across a worker pool; the pool
    // contract (bit-identical output for any job count) must carry over.
    let topo = topologies::mci();
    let seeds: Vec<u64> = (0..4).collect();
    let run_all = |jobs: usize| {
        parallel_map(jobs, &seeds, |_, &seed| {
            let config = quick(20.0, SystemSpec::dac(PolicySpec::Ed, 2)).with_seed(seed);
            let trace = record_arrivals(&config);
            let (metrics, decisions, _) = replay(&topo, &config, &trace, NullRecorder);
            (metrics, decisions)
        })
    };
    let sequential = run_all(1);
    for jobs in [2, 4] {
        assert_eq!(sequential, run_all(jobs), "jobs={jobs} diverged");
    }
}
