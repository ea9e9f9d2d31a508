//! Integration tests for the beyond-the-paper extensions, exercised
//! through the facade crate exactly as a downstream user would.

use anycast::prelude::*;

fn quick(lambda: f64, system: SystemSpec) -> ExperimentConfig {
    ExperimentConfig::paper_defaults(lambda, system)
        .with_warmup_secs(400.0)
        .with_measure_secs(1_200.0)
        .with_seed(55)
}

/// Multipath admission dominates single-path at every load level, and
/// never exceeds the GDI oracle by more than noise.
#[test]
fn multipath_sits_between_single_path_and_gdi() {
    let topo = topologies::mci();
    for lambda in [25.0, 40.0] {
        let single = run_experiment(
            &topo,
            &quick(lambda, SystemSpec::dac(PolicySpec::wd_dh_default(), 2)),
        );
        let multi = run_experiment(
            &topo,
            &quick(
                lambda,
                SystemSpec::dac_multipath(PolicySpec::wd_dh_default(), 2, 2),
            ),
        );
        let gdi = run_experiment(&topo, &quick(lambda, SystemSpec::GlobalDynamic));
        assert!(
            multi.admission_probability >= single.admission_probability - 0.01,
            "λ={lambda}: multipath {} vs single {}",
            multi.admission_probability,
            single.admission_probability
        );
        assert!(
            multi.admission_probability <= gdi.admission_probability + 0.02,
            "λ={lambda}: multipath {} vs GDI {}",
            multi.admission_probability,
            gdi.admission_probability
        );
    }
}

/// Two services sharing the network: the replicated one (K=5) out-admits
/// the sparse one (K=2).
#[test]
fn multigroup_simulation_favours_the_larger_group() {
    let topo = topologies::mci();
    let cdn_members: Vec<NodeId> = topologies::MCI_GROUP_MEMBERS.map(NodeId::new).to_vec();
    let db_members = vec![NodeId::new(2), NodeId::new(14)];

    let cfg = quick(35.0, SystemSpec::dac(PolicySpec::Ed, 1)).with_groups(vec![
        GroupSpec {
            members: cdn_members,
            share: 1.0,
        },
        GroupSpec {
            members: db_members,
            share: 1.0,
        },
    ]);
    let sim = run_experiment(&topo, &cfg);
    assert!(
        sim.per_group_ap[0] > sim.per_group_ap[1],
        "simulated: K=5 {} must beat K=2 {}",
        sim.per_group_ap[0],
        sim.per_group_ap[1]
    );
}

/// Burstiness monotonically erodes AP at equal mean rate.
#[test]
fn burstiness_monotone_penalty() {
    let topo = topologies::mci();
    let system = SystemSpec::dac(PolicySpec::wd_dh_default(), 2);
    let base = quick(30.0, system).with_measure_secs(2_400.0);
    let mut prev = f64::INFINITY;
    for b in [1.0, 1.5, 1.9] {
        let cfg = if b == 1.0 {
            base.clone()
        } else {
            base.clone().with_arrivals(ArrivalProcess::Bursty {
                burstiness: b,
                mean_sojourn_secs: 60.0,
            })
        };
        let m = run_experiment(&topo, &cfg);
        assert!(
            m.admission_probability <= prev + 0.02,
            "burstiness {b}: AP {} should not exceed previous {prev}",
            m.admission_probability
        );
        prev = m.admission_probability;
    }
}

/// A user-supplied topology (edge list) drives the whole pipeline.
#[test]
fn external_topology_end_to_end() {
    // A 6-node dumbbell: two triangles joined by one thin waist link.
    let text = "\
0 1 100000000
0 2 100000000
1 2 100000000
2 3 10000000
3 4 100000000
3 5 100000000
4 5 100000000
";
    let topo = anycast::net::io::parse_edge_list(text).unwrap();
    assert!(topo.is_connected());
    let cfg =
        ExperimentConfig::paper_defaults(4.0, SystemSpec::dac(PolicySpec::wd_dh_default(), 2))
            .with_group(vec![NodeId::new(0), NodeId::new(5)])
            .with_sources(vec![NodeId::new(1), NodeId::new(4)])
            .with_warmup_secs(300.0)
            .with_measure_secs(900.0)
            .with_seed(3);
    let m = run_experiment(&topo, &cfg);
    // Sources sit on both sides of the waist; most flows reach the local
    // member without crossing it, so AP stays high even though the waist
    // is thin.
    assert!(
        m.admission_probability > 0.8,
        "AP {} on the dumbbell",
        m.admission_probability
    );
    assert!(m.mean_network_utilization > 0.0);
}
