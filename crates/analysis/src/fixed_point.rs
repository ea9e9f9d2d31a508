//! The reduced-load fixed point (eqs. 19–22) and the admission probability
//! of eq. (15).

use crate::scenario::TrafficScenario;
use crate::{erlang_b, uaa_blocking};
use serde::{Deserialize, Serialize};

/// Which link-blocking function `L(v_l)` (eq. 19) the fixed point uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockingModel {
    /// Exact Erlang-B — available because all flows demand equal bandwidth.
    ErlangB,
    /// The paper's uniform asymptotic approximation (eqs. 25–29).
    Uaa,
}

impl BlockingModel {
    /// Evaluates the model's blocking probability for one link offered
    /// `load` erlangs with `servers` flow slots.
    pub(crate) fn blocking(self, load: f64, servers: u32) -> f64 {
        match self {
            BlockingModel::ErlangB => erlang_b(load, servers),
            BlockingModel::Uaa => {
                if servers == 0 {
                    1.0
                } else {
                    uaa_blocking(load, servers)
                }
            }
        }
    }
}

/// Convergence controls for the fixed-point iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FixedPointOptions {
    /// Stop when the largest change in any link's blocking drops below this.
    pub tolerance: f64,
    /// Hard iteration cap.
    pub max_iterations: u32,
    /// Under-relaxation factor in `(0, 1]`: `B ← (1−θ)·B + θ·B_new`.
    /// Damping guarantees convergence on scenarios where the plain
    /// iteration (θ = 1) oscillates.
    pub damping: f64,
}

impl Default for FixedPointOptions {
    fn default() -> Self {
        FixedPointOptions {
            tolerance: 1e-10,
            max_iterations: 10_000,
            damping: 0.7,
        }
    }
}

/// Output of the analytical model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApPrediction {
    /// The admission probability of eq. (15).
    pub admission_probability: f64,
    /// Converged per-link blocking probabilities `B_l`.
    pub link_blocking: Vec<f64>,
    /// Per-route rejection probabilities `L_{s,r}` (eq. 17), in the
    /// scenario's route order.
    pub route_rejection: Vec<f64>,
    /// Iterations performed.
    pub iterations: u32,
    /// Whether the tolerance was met within the iteration cap.
    pub converged: bool,
}

/// Runs the reduced-load fixed point with default options.
///
/// See [`predict_ap_with`].
pub fn predict_ap(scenario: &TrafficScenario, model: BlockingModel) -> ApPrediction {
    predict_ap_with(scenario, model, FixedPointOptions::default())
}

/// Solves a batch of independent fixed points across `jobs` worker
/// threads, returning predictions in input order.
///
/// Each case is a pure function of its `(scenario, model)` pair, so the
/// output is **bit-identical for every `jobs` value** — the same guarantee
/// the simulation sweeps make. The analysis-vs-simulation tables fan their
/// per-λ × per-model cells through this instead of a serial loop.
///
/// # Panics
///
/// Panics if `jobs == 0`, or on any invalid scenario (see
/// [`predict_ap_with`]).
pub fn predict_ap_batch(
    jobs: usize,
    cases: &[(TrafficScenario, BlockingModel)],
) -> Vec<ApPrediction> {
    anycast_sim::pool::parallel_map(jobs, cases, |_, (scenario, model)| {
        predict_ap(scenario, *model)
    })
}

/// Runs the reduced-load fixed point (eqs. 19–22) on a traffic scenario
/// and evaluates eq. (15).
///
/// Each route offers its load to every link it crosses, *thinned* by the
/// blocking of the route's other links (eq. 18, link independence); each
/// link's blocking is `L(v_l)` under the chosen model; iterate to a fixed
/// point, then combine per eq. (17) and eq. (15).
///
/// # Panics
///
/// Panics if the scenario references a link outside its capacity vector,
/// if options are out of range, or if total offered load is zero.
pub fn predict_ap_with(
    scenario: &TrafficScenario,
    model: BlockingModel,
    options: FixedPointOptions,
) -> ApPrediction {
    predict_ap_fn(
        scenario,
        |_, load, servers| model.blocking(load, servers),
        options,
    )
}

/// [`predict_ap_with`] with an arbitrary per-link blocking function.
///
/// `blocking_fn(link, load, servers)` maps one link's reduced offered
/// load to its blocking probability; [`BlockingModel`] supplies the two
/// closed-form instances, while `anycast-estimator` substitutes
/// calibrated occupancy-distribution estimators per link. The function
/// must return values in `[0, 1]` for the iteration to remain a map on
/// probabilities; everything else about the reduced-load fixed point
/// (thinning, adaptive under-relaxation, eq. 17/15 readout) is shared.
///
/// # Panics
///
/// As [`predict_ap_with`].
pub fn predict_ap_fn<F>(
    scenario: &TrafficScenario,
    blocking_fn: F,
    options: FixedPointOptions,
) -> ApPrediction
where
    F: Fn(usize, f64, u32) -> f64,
{
    let zeros = vec![0.0f64; scenario.capacities.len()];
    predict_ap_fn_from(scenario, blocking_fn, options, &zeros)
}

/// [`predict_ap_fn`] warm-started from `initial_blocking`.
///
/// The iteration is a contraction towards the same fixed point from any
/// starting vector in `[0, 1]^L`; starting near the solution (e.g. the
/// converged blocking of a slightly different load, as the estimator's
/// retrial outer loop does) cuts the iteration count from hundreds to a
/// handful. `predict_ap_fn` is exactly this function started from zero.
///
/// # Panics
///
/// As [`predict_ap_fn`], plus if `initial_blocking` has the wrong length
/// or holds values outside `[0, 1]`.
pub fn predict_ap_fn_from<F>(
    scenario: &TrafficScenario,
    blocking_fn: F,
    options: FixedPointOptions,
    initial_blocking: &[f64],
) -> ApPrediction
where
    F: Fn(usize, f64, u32) -> f64,
{
    assert!(
        options.damping > 0.0 && options.damping <= 1.0,
        "damping must lie in (0, 1], got {}",
        options.damping
    );
    assert!(options.tolerance > 0.0, "tolerance must be positive");
    let link_count = scenario.capacities.len();
    for route in &scenario.routes {
        for &l in &route.links {
            assert!(
                l < link_count,
                "route references link {l} outside capacity vector of length {link_count}"
            );
        }
        let mut sorted = route.links.clone();
        sorted.sort_unstable();
        assert!(
            sorted.windows(2).all(|w| w[0] != w[1]),
            "routes must be loop-free: link repeated within a route"
        );
        assert!(
            route.offered_erlangs.is_finite() && route.offered_erlangs >= 0.0,
            "offered load must be finite and non-negative"
        );
    }
    let total_offered: f64 = scenario.routes.iter().map(|r| r.offered_erlangs).sum();
    assert!(total_offered > 0.0, "scenario offers no traffic");
    assert_eq!(
        initial_blocking.len(),
        link_count,
        "initial blocking vector must cover every link"
    );
    assert!(
        initial_blocking.iter().all(|b| (0.0..=1.0).contains(b)),
        "initial blocking values must be probabilities"
    );

    let mut blocking = initial_blocking.to_vec();
    let mut iterations = 0;
    let mut converged = false;
    // Adaptive under-relaxation. Under heavy overload the Picard map has
    // a negative slope of magnitude near (or beyond) the stability limit
    // at the fixed point — the classic reduced-load period-2 oscillation
    // — where any fixed damping above 2/(1+|slope|) cycles forever and
    // damping *at* the limit converges only like 1/n. Oscillation is
    // detected by the update direction reversing between iterations
    // (negative dot product); each detection halves θ and lowers a
    // ceiling that the grow-back path may never exceed again, so θ
    // settles just inside the stable region (near slope 0) while easy
    // monotone instances keep running at full speed.
    let mut theta = options.damping;
    let mut theta_ceiling = options.damping;
    let mut prev_update: Vec<f64> = Vec::new();
    while iterations < options.max_iterations {
        iterations += 1;
        // Eq. (20)/(22): reduced loads from the current blocking estimates.
        let mut reduced = vec![0.0f64; link_count];
        for route in &scenario.routes {
            if route.offered_erlangs == 0.0 {
                continue;
            }
            // Π over the whole route, divided out per link below. Guard the
            // division when some (1 − B_m) is ~0 by recomputing directly.
            for (i, &l) in route.links.iter().enumerate() {
                let mut thinned = route.offered_erlangs;
                for (j, &m) in route.links.iter().enumerate() {
                    if i != j {
                        thinned *= 1.0 - blocking[m];
                    }
                }
                reduced[l] += thinned;
            }
        }
        // Eq. (21): new blocking from the link model. Convergence is
        // judged on the *undamped* residual |L(v) − B| so shrinking θ can
        // never fake convergence.
        let fresh: Vec<f64> = (0..link_count)
            .map(|l| blocking_fn(l, reduced[l], scenario.capacities[l]))
            .collect();
        let residual = fresh
            .iter()
            .zip(&blocking)
            .map(|(f, b)| (f - b).abs())
            .fold(0.0f64, f64::max);
        if residual < options.tolerance {
            blocking = fresh;
            converged = true;
            break;
        }
        let update: Vec<f64> = fresh.iter().zip(&blocking).map(|(f, b)| f - b).collect();
        let oscillating = !prev_update.is_empty()
            && prev_update
                .iter()
                .zip(&update)
                .map(|(p, u)| p * u)
                .sum::<f64>()
                < 0.0;
        for l in 0..link_count {
            blocking[l] += theta * update[l];
        }
        if oscillating {
            theta_ceiling = (theta * 0.9).max(1e-3);
            theta = (theta * 0.5).max(1e-3);
        } else {
            theta = (theta * 1.05).min(theta_ceiling);
        }
        prev_update = update;
    }

    // Eq. (17): route rejection under link independence.
    let route_rejection: Vec<f64> = scenario
        .routes
        .iter()
        .map(|r| 1.0 - r.links.iter().map(|&l| 1.0 - blocking[l]).product::<f64>())
        .collect();
    // Eq. (15): traffic-weighted admission probability.
    let admitted: f64 = scenario
        .routes
        .iter()
        .zip(&route_rejection)
        .map(|(r, rej)| r.offered_erlangs * (1.0 - rej))
        .sum();
    ApPrediction {
        admission_probability: admitted / total_offered,
        link_blocking: blocking,
        route_rejection,
        iterations,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::RouteLoad;

    /// Single route over a single link: the fixed point must reproduce
    /// plain Erlang-B.
    #[test]
    fn single_link_is_erlang_b() {
        let scenario = TrafficScenario {
            routes: vec![RouteLoad {
                links: vec![0],
                offered_erlangs: 250.0,
            }],
            capacities: vec![312],
        };
        let p = predict_ap(&scenario, BlockingModel::ErlangB);
        assert!(p.converged);
        let expected = 1.0 - erlang_b(250.0, 312);
        assert!(
            (p.admission_probability - expected).abs() < 1e-9,
            "{} vs {}",
            p.admission_probability,
            expected
        );
        assert_eq!(p.route_rejection.len(), 1);
    }

    /// Two disjoint routes do not interact: AP is the load-weighted mean of
    /// their independent Erlang-B admissions.
    #[test]
    fn disjoint_routes_average() {
        let scenario = TrafficScenario {
            routes: vec![
                RouteLoad {
                    links: vec![0],
                    offered_erlangs: 100.0,
                },
                RouteLoad {
                    links: vec![1],
                    offered_erlangs: 300.0,
                },
            ],
            capacities: vec![100, 100],
        };
        let p = predict_ap(&scenario, BlockingModel::ErlangB);
        let a0 = 1.0 - erlang_b(100.0, 100);
        let a1 = 1.0 - erlang_b(300.0, 100);
        let expected = (100.0 * a0 + 300.0 * a1) / 400.0;
        assert!((p.admission_probability - expected).abs() < 1e-9);
    }

    /// A two-link tandem route must reject more than either link alone,
    /// and the thinning must reduce the load each link sees.
    #[test]
    fn tandem_route_thinning() {
        let scenario = TrafficScenario {
            routes: vec![RouteLoad {
                links: vec![0, 1],
                offered_erlangs: 320.0,
            }],
            capacities: vec![312, 312],
        };
        let p = predict_ap(&scenario, BlockingModel::ErlangB);
        assert!(p.converged);
        let single = erlang_b(320.0, 312);
        // Each link sees *thinned* load, so per-link blocking < isolated value.
        assert!(p.link_blocking[0] < single);
        assert!((p.link_blocking[0] - p.link_blocking[1]).abs() < 1e-9);
        // But the route rejects more than one isolated (thinned) link.
        assert!(p.route_rejection[0] > p.link_blocking[0]);
        // Consistency: rejection = 1 − (1 − B)².
        let b = p.link_blocking[0];
        assert!((p.route_rejection[0] - (1.0 - (1.0 - b) * (1.0 - b))).abs() < 1e-12);
    }

    /// A shared bottleneck splits capacity between competing routes.
    #[test]
    fn shared_bottleneck_couples_routes() {
        let scenario = TrafficScenario {
            routes: vec![
                RouteLoad {
                    links: vec![0, 1],
                    offered_erlangs: 200.0,
                },
                RouteLoad {
                    links: vec![0, 2],
                    offered_erlangs: 200.0,
                },
            ],
            capacities: vec![312, 10_000, 10_000],
        };
        let p = predict_ap(&scenario, BlockingModel::ErlangB);
        assert!(p.converged);
        // Link 0 carries the combined (thinned) 400 erlangs against 312
        // slots: substantial blocking; the private links see ~200 against
        // 10 000 slots: none.
        assert!(p.link_blocking[0] > 0.1);
        assert!(p.link_blocking[1] < 1e-12);
        let expected_ap = 1.0 - p.route_rejection[0];
        assert!((p.admission_probability - expected_ap).abs() < 1e-9);
    }

    #[test]
    fn uaa_and_erlang_agree_on_network() {
        let scenario = TrafficScenario {
            routes: vec![
                RouteLoad {
                    links: vec![0, 1],
                    offered_erlangs: 250.0,
                },
                RouteLoad {
                    links: vec![1, 2],
                    offered_erlangs: 180.0,
                },
            ],
            capacities: vec![312, 312, 312],
        };
        let a = predict_ap(&scenario, BlockingModel::ErlangB);
        let b = predict_ap(&scenario, BlockingModel::Uaa);
        assert!(
            (a.admission_probability - b.admission_probability).abs() < 0.01,
            "ErlangB {} vs UAA {}",
            a.admission_probability,
            b.admission_probability
        );
    }

    #[test]
    fn result_is_a_fixed_point() {
        let scenario = TrafficScenario {
            routes: vec![
                RouteLoad {
                    links: vec![0, 1],
                    offered_erlangs: 300.0,
                },
                RouteLoad {
                    links: vec![1],
                    offered_erlangs: 150.0,
                },
            ],
            capacities: vec![312, 312],
        };
        let p = predict_ap(&scenario, BlockingModel::ErlangB);
        assert!(p.converged);
        // Re-evaluate one Picard step at the solution: it must not move.
        let b = &p.link_blocking;
        let v0 = 300.0 * (1.0 - b[1]);
        let v1 = 300.0 * (1.0 - b[0]) + 150.0;
        assert!((erlang_b(v0, 312) - b[0]).abs() < 1e-7);
        assert!((erlang_b(v1, 312) - b[1]).abs() < 1e-7);
    }

    #[test]
    fn trivial_route_always_admitted() {
        let scenario = TrafficScenario {
            routes: vec![
                RouteLoad {
                    links: vec![],
                    offered_erlangs: 50.0,
                },
                RouteLoad {
                    links: vec![0],
                    offered_erlangs: 1_000.0,
                },
            ],
            capacities: vec![100],
        };
        let p = predict_ap(&scenario, BlockingModel::ErlangB);
        assert_eq!(p.route_rejection[0], 0.0);
        assert!(p.admission_probability > 50.0 / 1_050.0);
    }

    #[test]
    #[should_panic(expected = "outside capacity vector")]
    fn bad_link_reference_panics() {
        let scenario = TrafficScenario {
            routes: vec![RouteLoad {
                links: vec![5],
                offered_erlangs: 1.0,
            }],
            capacities: vec![100],
        };
        let _ = predict_ap(&scenario, BlockingModel::ErlangB);
    }

    #[test]
    #[should_panic(expected = "offers no traffic")]
    fn zero_traffic_panics() {
        let scenario = TrafficScenario {
            routes: vec![RouteLoad {
                links: vec![0],
                offered_erlangs: 0.0,
            }],
            capacities: vec![100],
        };
        let _ = predict_ap(&scenario, BlockingModel::ErlangB);
    }

    #[test]
    fn damping_options_respected() {
        let scenario = TrafficScenario {
            routes: vec![RouteLoad {
                links: vec![0],
                offered_erlangs: 400.0,
            }],
            capacities: vec![312],
        };
        let fast = predict_ap_with(
            &scenario,
            BlockingModel::ErlangB,
            FixedPointOptions {
                damping: 1.0,
                ..Default::default()
            },
        );
        let slow = predict_ap_with(
            &scenario,
            BlockingModel::ErlangB,
            FixedPointOptions {
                damping: 0.1,
                ..Default::default()
            },
        );
        assert!((fast.admission_probability - slow.admission_probability).abs() < 1e-8);
        assert!(fast.iterations <= slow.iterations);
    }

    #[test]
    fn warm_start_from_solution_converges_immediately() {
        let scenario = TrafficScenario {
            routes: vec![
                RouteLoad {
                    links: vec![0, 1],
                    offered_erlangs: 300.0,
                },
                RouteLoad {
                    links: vec![1],
                    offered_erlangs: 150.0,
                },
            ],
            capacities: vec![312, 312],
        };
        let opts = FixedPointOptions::default();
        let blocking_fn =
            |_: usize, load: f64, servers: u32| BlockingModel::ErlangB.blocking(load, servers);
        let cold = predict_ap_fn(&scenario, blocking_fn, opts);
        assert!(cold.converged);
        let warm = predict_ap_fn_from(&scenario, blocking_fn, opts, &cold.link_blocking);
        assert!(warm.converged);
        // Restarting at the fixed point must terminate at once and agree.
        assert!(warm.iterations <= 2, "took {} iterations", warm.iterations);
        assert!(
            (warm.admission_probability - cold.admission_probability).abs() < 1e-8,
            "warm {} vs cold {}",
            warm.admission_probability,
            cold.admission_probability
        );
    }

    #[test]
    fn warm_start_near_solution_beats_cold_start() {
        let scenario = TrafficScenario {
            routes: vec![RouteLoad {
                links: vec![0, 1],
                offered_erlangs: 350.0,
            }],
            capacities: vec![312, 312],
        };
        let opts = FixedPointOptions::default();
        let blocking_fn =
            |_: usize, load: f64, servers: u32| BlockingModel::ErlangB.blocking(load, servers);
        let cold = predict_ap_fn(&scenario, blocking_fn, opts);
        // A nearby load's solution is a realistic warm start.
        let nearby = TrafficScenario {
            routes: vec![RouteLoad {
                links: vec![0, 1],
                offered_erlangs: 345.0,
            }],
            capacities: vec![312, 312],
        };
        let seed = predict_ap_fn(&nearby, blocking_fn, opts);
        let warm = predict_ap_fn_from(&scenario, blocking_fn, opts, &seed.link_blocking);
        assert!(warm.converged);
        assert!(
            warm.iterations < cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
        assert!((warm.admission_probability - cold.admission_probability).abs() < 1e-8);
    }

    #[test]
    #[should_panic(expected = "cover every link")]
    fn warm_start_length_mismatch_panics() {
        let scenario = TrafficScenario {
            routes: vec![RouteLoad {
                links: vec![0],
                offered_erlangs: 10.0,
            }],
            capacities: vec![100],
        };
        let _ = predict_ap_fn_from(
            &scenario,
            |_, load, servers| BlockingModel::ErlangB.blocking(load, servers),
            FixedPointOptions::default(),
            &[0.0, 0.0],
        );
    }

    #[test]
    fn batch_matches_serial_bit_for_bit_for_any_jobs() {
        let scenario = |load: f64| TrafficScenario {
            routes: vec![
                RouteLoad {
                    links: vec![0, 1],
                    offered_erlangs: load,
                },
                RouteLoad {
                    links: vec![1],
                    offered_erlangs: load / 2.0,
                },
            ],
            capacities: vec![312, 200],
        };
        let cases: Vec<(TrafficScenario, BlockingModel)> = [10.0, 120.0, 250.0, 400.0]
            .iter()
            .flat_map(|&load| {
                [BlockingModel::ErlangB, BlockingModel::Uaa]
                    .into_iter()
                    .map(move |m| (scenario(load), m))
            })
            .collect();
        let serial: Vec<ApPrediction> = cases.iter().map(|(s, m)| predict_ap(s, *m)).collect();
        for jobs in [1, 2, 5] {
            assert_eq!(predict_ap_batch(jobs, &cases), serial, "jobs={jobs}");
        }
    }
}
