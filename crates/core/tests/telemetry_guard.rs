//! Zero-overhead guard: attaching telemetry must never change what the
//! simulation computes.
//!
//! Three runs of the same `(topology, config)` — the plain
//! `run_experiment` hot path, the hooked path with a disabled
//! `NullRecorder`, and the hooked path with a full `RingRecorder` plus the
//! link sampler — must produce **bit-identical** `Metrics`. The recorder
//! only observes; it consumes no randomness and schedules nothing that
//! mutates state.

use anycast_dac::experiment::{
    run_experiment, run_experiment_traced, ExperimentConfig, SystemSpec,
};
use anycast_dac::policy::PolicySpec;
use anycast_net::{topologies, Bandwidth, LinkId, NodeId};
use anycast_telemetry::{Event, NullRecorder, RingRecorder, SkipReason};

fn saturated(system: SystemSpec) -> ExperimentConfig {
    ExperimentConfig::paper_defaults(50.0, system)
        .with_warmup_secs(30.0)
        .with_measure_secs(120.0)
}

/// The tentpole guarantee, across every admission system: plain, null and
/// ring runs are bit-identical.
#[test]
fn telemetry_never_perturbs_metrics() {
    let topo = topologies::mci();
    for system in [
        SystemSpec::dac(PolicySpec::Ed, 2),
        SystemSpec::dac(PolicySpec::wd_dh_default(), 2),
        SystemSpec::dac(PolicySpec::WdDb, 2),
        SystemSpec::ShortestPath,
        SystemSpec::GlobalDynamic,
    ] {
        let config = saturated(system);
        let plain = run_experiment(&topo, &config);
        let mut null = NullRecorder;
        let with_null = run_experiment_traced(&topo, &config, &mut null);
        let mut ring = RingRecorder::new(config.seed).with_sample_interval(25.0);
        let with_ring = run_experiment_traced(&topo, &config, &mut ring);
        assert_eq!(
            plain, with_null,
            "{}: NullRecorder changed the run",
            plain.label
        );
        assert_eq!(
            plain, with_ring,
            "{}: RingRecorder changed the run",
            plain.label
        );
        assert!(!ring.is_empty(), "{}: ring captured nothing", plain.label);
    }
}

/// The ring stream itself is a pure function of `(topo, config)`.
#[test]
fn ring_event_stream_is_deterministic() {
    let topo = topologies::mci();
    let config = saturated(SystemSpec::dac(PolicySpec::Ed, 2));
    let mut a = RingRecorder::new(config.seed).with_sample_interval(50.0);
    let mut b = RingRecorder::new(config.seed).with_sample_interval(50.0);
    run_experiment_traced(&topo, &config, &mut a);
    run_experiment_traced(&topo, &config, &mut b);
    assert_eq!(a.events(), b.events());
    assert_eq!(a.dropped(), b.dropped());
}

/// Every rejection's decision trace is complete: one skipped step per
/// probe, each carrying the weight it was drawn at and a concrete skip
/// reason, plus the full first-draw weight vector over the group.
#[test]
fn rejection_traces_enumerate_every_probe() {
    let topo = topologies::mci();
    let config = saturated(SystemSpec::dac(PolicySpec::wd_dh_default(), 2));
    let group_size = config.group_members.len();
    let mut ring = RingRecorder::new(config.seed);
    run_experiment_traced(&topo, &config, &mut ring);
    let mut rejections = 0;
    for timed in ring.events() {
        let Event::Rejection {
            request: _,
            tries,
            trace,
        } = timed.event
        else {
            continue;
        };
        rejections += 1;
        assert_eq!(
            trace.steps.len(),
            tries as usize,
            "a rejected request must record one skipped step per probe"
        );
        assert_eq!(trace.weights.len(), group_size);
        let sum: f64 = trace.weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "weights must be a distribution");
        for step in &trace.steps {
            assert!(step.member_index < group_size);
            assert!(step.weight > 0.0, "a probed member had positive weight");
            match step.skip {
                SkipReason::LinkBlocked { link, .. } => {
                    assert!(topo.link(link).is_ok(), "blocked link must exist");
                }
                other => panic!("DAC probes only skip on blocked links, got {other:?}"),
            }
        }
    }
    assert!(rejections > 0, "a saturated run must reject something");
}

/// The event stream is consistent with the run's own books: counts of
/// setups and rejections match admitted/rejected totals, and arrivals
/// match offered + warmup arrivals.
#[test]
fn event_counts_match_metrics() {
    let topo = topologies::mci();
    let config = saturated(SystemSpec::dac(PolicySpec::Ed, 2));
    let mut ring = RingRecorder::new(config.seed);
    let metrics = run_experiment_traced(&topo, &config, &mut ring);
    assert_eq!(ring.dropped(), 0, "default capacity must hold a short run");
    let mut arrivals = 0u64;
    let mut setups = 0u64;
    let mut rejections = 0u64;
    for timed in ring.events() {
        match timed.event {
            Event::RequestArrival { .. } => arrivals += 1,
            Event::ReservationSetup { .. } => setups += 1,
            Event::Rejection { .. } => rejections += 1,
            _ => {}
        }
    }
    // The recorder sees warmup too; metrics only count the measured phase.
    assert!(arrivals >= metrics.offered);
    assert!(setups >= metrics.admitted);
    assert_eq!(
        setups + rejections,
        arrivals,
        "every arrival ends in exactly one setup or rejection"
    );
}

/// Every sampler tick emits exactly one `LinkSample` per link, in ascending
/// link id, on a fabric of 162 links.
#[test]
fn every_sampler_tick_samples_every_link_in_order() {
    let topo = topologies::fat_tree(6, Bandwidth::from_mbps(100));
    assert_eq!(topo.link_count(), 162);
    let hosts = topologies::fat_tree_hosts(6);
    let members: Vec<NodeId> = hosts.iter().copied().step_by(9).collect();
    let sources: Vec<NodeId> = hosts
        .iter()
        .copied()
        .filter(|h| !members.contains(h))
        .collect();
    let config = saturated(SystemSpec::dac(PolicySpec::WdDb, 2))
        .with_group(members)
        .with_sources(sources);
    let mut ring = RingRecorder::new(config.seed).with_sample_interval(25.0);
    run_experiment_traced(&topo, &config, &mut ring);
    assert_eq!(ring.dropped(), 0);
    let mut ticks: Vec<(f64, Vec<LinkId>)> = Vec::new();
    for timed in ring.events() {
        let Event::LinkSample { link, .. } = timed.event else {
            continue;
        };
        match ticks.last_mut() {
            Some((at, links)) if *at == timed.time_secs => links.push(link),
            _ => ticks.push((timed.time_secs, vec![link])),
        }
    }
    assert!(ticks.len() >= 5, "{} sampler ticks", ticks.len());
    let every_link: Vec<LinkId> = (0..162).map(LinkId::new).collect();
    for (at, links) in &ticks {
        assert_eq!(links, &every_link, "tick at {at} s");
    }
}
