//! Cross-crate conservation and consistency invariants: whatever the
//! admission layer does, the network ledger and the reservation engine
//! must never disagree.

use anycast::prelude::*;
use anycast::sim::workload::PoissonWorkload;

/// Drives a random admit/release schedule through the full stack and
/// checks ledger conservation at every step.
#[test]
fn ledger_never_leaks_under_random_schedule() {
    let topo = topologies::mci();
    let group = AnycastGroup::new("G", topologies::MCI_GROUP_MEMBERS.map(NodeId::new)).unwrap();
    let routes = RouteTable::shortest_paths(&topo, &group);
    let mut links = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::from_mbps(100), 0.2);
    let mut rsvp = ReservationEngine::new();
    let mut rng = SimRng::seed_from(99);
    let demand = Bandwidth::from_kbps(64);
    let sources = topologies::mci_source_nodes();

    let mut controllers: Vec<AdmissionController> = sources
        .iter()
        .map(|&s| {
            AdmissionController::new(
                PolicySpec::wd_dh_default().build().unwrap(),
                RetrialPolicy::FixedLimit(3),
                routes.distances(s).expect("sources are in the topology"),
            )
        })
        .collect();

    let mut live: Vec<(anycast::rsvp::SessionId, usize)> = Vec::new();
    let mut expected_flow_bandwidth = Bandwidth::ZERO;
    for step in 0..5_000 {
        let admit = live.is_empty() || rng.uniform() < 0.6;
        if admit {
            let si = rng.below(sources.len());
            let out = controllers[si].admit(
                routes.routes_from(sources[si]).unwrap(),
                &mut links,
                &mut rsvp,
                demand,
                &mut rng,
            );
            if let Some(flow) = out.admitted {
                let hops = routes.routes_from(sources[si]).unwrap()[flow.member_index].hops();
                expected_flow_bandwidth += demand * hops as u64;
                live.push((flow.session, hops));
            }
        } else {
            let idx = rng.below(live.len());
            let (session, hops) = live.swap_remove(idx);
            rsvp.teardown(&mut links, session).unwrap();
            expected_flow_bandwidth -= demand * hops as u64;
        }
        // `audit` scans the reserved column (and checks the ledger's O(1)
        // running total against it), so this still reads the links.
        assert_eq!(
            links.audit().unwrap().reserved_bps,
            expected_flow_bandwidth.bps(),
            "step {step}: ledger total must equal the sum of live reservations"
        );
        assert_eq!(rsvp.active_sessions(), live.len());
    }
    // Drain everything: the ledger must return to pristine.
    for (session, _) in live {
        rsvp.teardown(&mut links, session).unwrap();
    }
    assert_eq!(links.audit().unwrap().reserved_bps, 0);
    assert_eq!(links.total_reserved(), Bandwidth::ZERO);
    for (_, snap) in links.iter() {
        assert_eq!(snap.flows, 0);
        assert_eq!(snap.reserved, Bandwidth::ZERO);
    }
}

/// No link ever reports more reserved bandwidth than its capacity during
/// a full closed-loop experiment, and the run is reproducible.
#[test]
fn experiment_determinism_across_systems() {
    let topo = topologies::mci();
    for system in [
        SystemSpec::dac(PolicySpec::Ed, 2),
        SystemSpec::dac(PolicySpec::wd_dh_default(), 3),
        SystemSpec::dac(PolicySpec::WdDb, 2),
        SystemSpec::ShortestPath,
        SystemSpec::GlobalDynamic,
    ] {
        let cfg = ExperimentConfig::paper_defaults(30.0, system)
            .with_warmup_secs(100.0)
            .with_measure_secs(200.0)
            .with_seed(31337);
        let a = run_experiment(&topo, &cfg);
        let b = run_experiment(&topo, &cfg);
        assert_eq!(a, b, "{}: runs with one seed must be identical", a.label);
        assert!(a.offered > 0);
        assert!(a.admission_probability >= 0.0 && a.admission_probability <= 1.0);
    }
}

/// The workload generator, the engine and the stats agree on how many
/// requests a run offers: λ · duration within sampling error.
#[test]
fn offered_load_matches_lambda() {
    let topo = topologies::mci();
    let lambda = 20.0;
    let measure = 2_000.0;
    let cfg = ExperimentConfig::paper_defaults(lambda, SystemSpec::GlobalDynamic)
        .with_warmup_secs(100.0)
        .with_measure_secs(measure)
        .with_seed(8);
    let m = run_experiment(&topo, &cfg);
    let expected = lambda * measure;
    let sd = expected.sqrt();
    assert!(
        (m.offered as f64 - expected).abs() < 5.0 * sd,
        "offered {} vs expected {expected} ± {sd}",
        m.offered
    );
}

/// Workload determinism feeds experiment determinism: same master seed,
/// same request stream.
#[test]
fn workload_streams_are_stable() {
    let mut rng_a = SimRng::seed_from(1234);
    let mut rng_b = SimRng::seed_from(1234);
    let mut wa = PoissonWorkload::new(15.0, 180.0, 9, &mut rng_a);
    let mut wb = PoissonWorkload::new(15.0, 180.0, 9, &mut rng_b);
    for _ in 0..1_000 {
        assert_eq!(wa.next_request(), wb.next_request());
    }
}

/// Unicast degenerates correctly: a group of one behaves like plain
/// unicast admission control (the paper's §1 observation that unicast is
/// the K = 1 special case of anycast).
#[test]
fn unicast_special_case() {
    let topo = topologies::mci();
    let cfg = ExperimentConfig::paper_defaults(25.0, SystemSpec::dac(PolicySpec::Ed, 5))
        .with_group(vec![NodeId::new(8)])
        .with_warmup_secs(200.0)
        .with_measure_secs(400.0)
        .with_seed(77);
    let m = run_experiment(&topo, &cfg);
    // K = 1: retrials are impossible regardless of R.
    assert!((m.mean_tries - 1.0).abs() < 1e-9);
    // And ED = SP = WD/* when there is only one member.
    let sp = run_experiment(&topo, &cfg.clone().with_system(SystemSpec::ShortestPath));
    assert!(
        (m.admission_probability - sp.admission_probability).abs() < 1e-9,
        "ED with K=1 ({}) must equal SP ({})",
        m.admission_probability,
        sp.admission_probability
    );
}
