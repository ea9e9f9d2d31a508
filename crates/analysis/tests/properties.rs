//! Property-based tests for the analytical model.

use anycast_analysis::scenario::{RouteLoad, TrafficScenario};
use anycast_analysis::{erlang_b, predict_ap, uaa_blocking, BlockingModel};
use proptest::prelude::*;

proptest! {
    /// Erlang-B is a probability, monotone increasing in load and
    /// decreasing in servers.
    #[test]
    fn erlang_b_shape(load in 0.0f64..5_000.0, servers in 1u32..600) {
        let b = erlang_b(load, servers);
        prop_assert!((0.0..=1.0).contains(&b));
        prop_assert!(erlang_b(load + 1.0, servers) >= b - 1e-12);
        prop_assert!(erlang_b(load, servers + 1) <= b + 1e-12);
    }

    /// Erlang-B satisfies its own defining recursion.
    #[test]
    fn erlang_b_recursion_holds(load in 0.01f64..2_000.0, servers in 1u32..400) {
        let prev = erlang_b(load, servers - 1);
        let cur = erlang_b(load, servers);
        let expected = load * prev / (servers as f64 + load * prev);
        prop_assert!((cur - expected).abs() < 1e-12);
    }

    /// UAA stays within a bounded absolute error of exact Erlang-B across
    /// the asymptotic regime it is built for (C ≥ 20, v = O(C)).
    #[test]
    fn uaa_tracks_erlang(servers in 20u32..500, ratio in 0.3f64..3.0) {
        let load = servers as f64 * ratio;
        let exact = erlang_b(load, servers);
        let approx = uaa_blocking(load, servers);
        prop_assert!((0.0..=1.0).contains(&approx));
        prop_assert!(
            (approx - exact).abs() < 0.02 + 0.03 * exact,
            "C={servers} v={load}: UAA {approx} vs {exact}"
        );
    }

    /// The fixed point always converges on random single-group scenarios,
    /// produces blocking in [0, 1], and its AP is consistent with the
    /// per-route rejections it reports.
    #[test]
    fn fixed_point_consistency(
        routes in prop::collection::vec(
            (prop::collection::vec(0usize..12, 1..5), 0.1f64..600.0),
            1..12,
        ),
        capacity in 10u32..400,
    ) {
        let scenario = TrafficScenario {
            routes: routes
                .iter()
                .map(|(links, load)| {
                    // Routes are loop-free by construction in the real
                    // system; dedup the random draw accordingly.
                    let mut links = links.clone();
                    links.sort_unstable();
                    links.dedup();
                    RouteLoad {
                        links,
                        offered_erlangs: *load,
                    }
                })
                .collect(),
            capacities: vec![capacity; 12],
        };
        let p = predict_ap(&scenario, BlockingModel::ErlangB);
        prop_assert!(p.converged, "did not converge in {} iterations", p.iterations);
        for &b in &p.link_blocking {
            prop_assert!((0.0..=1.0).contains(&b));
        }
        for (route, &rej) in scenario.routes.iter().zip(&p.route_rejection) {
            prop_assert!((0.0..=1.0).contains(&rej));
            let direct: f64 =
                1.0 - route.links.iter().map(|&l| 1.0 - p.link_blocking[l]).product::<f64>();
            prop_assert!((rej - direct).abs() < 1e-12);
        }
        let total: f64 = scenario.routes.iter().map(|r| r.offered_erlangs).sum();
        let admitted: f64 = scenario
            .routes
            .iter()
            .zip(&p.route_rejection)
            .map(|(r, rej)| r.offered_erlangs * (1.0 - rej))
            .sum();
        prop_assert!((p.admission_probability - admitted / total).abs() < 1e-12);
    }

    /// Adding load to a scenario never increases the predicted AP.
    #[test]
    fn ap_monotone_in_total_load(base_load in 1.0f64..300.0, bump in 1.0f64..300.0) {
        let make = |load: f64| TrafficScenario {
            routes: vec![
                RouteLoad { links: vec![0, 1], offered_erlangs: load },
                RouteLoad { links: vec![1, 2], offered_erlangs: load },
            ],
            capacities: vec![312; 3],
        };
        let a = predict_ap(&make(base_load), BlockingModel::ErlangB);
        let b = predict_ap(&make(base_load + bump), BlockingModel::ErlangB);
        prop_assert!(
            b.admission_probability <= a.admission_probability + 1e-9,
            "AP rose from {} to {}",
            a.admission_probability,
            b.admission_probability
        );
    }
}
