//! Building traffic scenarios from topologies (Appendix A.1).
//!
//! The fixed point consumes an abstract [`TrafficScenario`]: routes as
//! link-index lists with offered loads in erlangs, plus per-link capacities
//! in flow slots. The builders here derive those from a topology and the
//! §5.1 traffic parameters for the two systems the paper analyses —
//! `<ED,1>` (uniform load split over the `K` fixed routes) and `SP` (all
//! load on the shortest route, eq. 14) — and extend the analysis to
//! `<ED,R>` retrials.

use crate::{predict_ap, ApPrediction, BlockingModel};
use anycast_net::{topologies, AnycastGroup, Bandwidth, NodeId, RouteTable, Topology};

/// One fixed route with its offered traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteLoad {
    /// Indices of the links the route crosses (dense link ids).
    pub links: Vec<usize>,
    /// Offered traffic intensity `ρ_{s,r}` in erlangs.
    pub offered_erlangs: f64,
}

/// The abstract input of the fixed-point model.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficScenario {
    /// All routes carrying traffic. For the builders in this module the
    /// order is source-major, member-minor (`routes[s·K + i]` is source `s`
    /// to member `i`).
    pub routes: Vec<RouteLoad>,
    /// Per-link capacity in flow slots (`C_l`).
    pub capacities: Vec<u32>,
}

/// The systems Appendix A derives admission probabilities for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalyzedSystem {
    /// `<ED,1>`: load split uniformly over the `K` fixed routes.
    Ed1,
    /// `SP`: all load offered to the shortest route (eq. 14).
    Sp,
}

/// Traffic parameters for scenario construction (§5.1 defaults available
/// via [`ScenarioSpec::paper_defaults`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Total request rate λ in flows/second.
    pub lambda: f64,
    /// Mean flow lifetime in seconds.
    pub mean_holding_secs: f64,
    /// Per-flow bandwidth demand.
    pub flow_bandwidth: Bandwidth,
    /// Fraction of each link reserved for anycast flows.
    pub anycast_fraction: f64,
    /// Capacity for links whose topology capacity is zero.
    pub default_link_capacity: Bandwidth,
    /// The anycast group members.
    pub group_members: Vec<NodeId>,
    /// The source routers.
    pub sources: Vec<NodeId>,
}

impl ScenarioSpec {
    /// The §5.1 parameters on the MCI backbone.
    pub fn paper_defaults(lambda: f64) -> Self {
        ScenarioSpec {
            lambda,
            mean_holding_secs: 180.0,
            flow_bandwidth: Bandwidth::from_kbps(64),
            anycast_fraction: 0.2,
            default_link_capacity: Bandwidth::from_mbps(100),
            group_members: topologies::MCI_GROUP_MEMBERS.map(NodeId::new).to_vec(),
            sources: topologies::mci_source_nodes(),
        }
    }

    /// Offered intensity per source, `ρ_s = (λ/|S|)·(1/μ)` erlangs.
    pub(crate) fn per_source_erlangs(&self) -> f64 {
        self.lambda * self.mean_holding_secs / self.sources.len() as f64
    }
}

/// Builds the fixed-point input for `system` from a topology and traffic
/// spec.
///
/// Routes are ordered source-major, member-minor. Under `Sp` the non-
/// shortest routes are present with zero load so route indices line up
/// across systems.
///
/// # Panics
///
/// Panics if the group or sources are invalid for the topology, or the
/// flow bandwidth is zero.
pub fn build_scenario(
    topo: &Topology,
    spec: &ScenarioSpec,
    system: AnalyzedSystem,
) -> TrafficScenario {
    assert!(
        !spec.flow_bandwidth.is_zero(),
        "flow bandwidth must be positive"
    );
    assert!(!spec.sources.is_empty(), "need at least one source");
    let group = AnycastGroup::new("G", spec.group_members.iter().copied())
        .expect("group must be non-empty");
    let table = RouteTable::shortest_paths(topo, &group);
    let k = group.len();
    let rho_s = spec.per_source_erlangs();

    let capacities: Vec<u32> = topo
        .links()
        .map(|l| {
            let base = if l.capacity().is_zero() {
                spec.default_link_capacity
            } else {
                l.capacity()
            };
            let partition = base.scaled(spec.anycast_fraction);
            u32::try_from(partition.saturating_div(spec.flow_bandwidth))
                .expect("links hold fewer than 2^32 flows")
        })
        .collect();

    let mut routes = Vec::with_capacity(spec.sources.len() * k);
    for &s in &spec.sources {
        let nearest = table
            .nearest_member(s)
            .expect("scenario sources are nodes of the topology");
        let paths = table
            .routes_from(s)
            .expect("scenario sources are nodes of the topology");
        for (i, path) in paths.iter().enumerate() {
            let offered = match system {
                AnalyzedSystem::Ed1 => rho_s / k as f64,
                AnalyzedSystem::Sp => {
                    if i == nearest {
                        rho_s
                    } else {
                        0.0
                    }
                }
            };
            routes.push(RouteLoad {
                links: path.links().iter().map(|l| l.index()).collect(),
                offered_erlangs: offered,
            });
        }
    }
    TrafficScenario { routes, capacities }
}

/// Convenience: [`build_scenario`] with [`ScenarioSpec::paper_defaults`].
pub fn build_paper_scenario(
    topo: &Topology,
    lambda: f64,
    system: AnalyzedSystem,
) -> TrafficScenario {
    build_scenario(topo, &ScenarioSpec::paper_defaults(lambda), system)
}

/// Extension beyond the paper: an approximate admission probability for
/// `<ED,R>` with `R ≥ 1` retrials.
///
/// Appendix A analyses `R = 1` only. For larger `R`, retrials both help
/// (another chance per request) and hurt (successful retries add carried
/// load, raising everyone's blocking), so the extension couples two fixed
/// points:
///
/// 1. **Retrial model.** Under ED, a request visits members in a uniform
///    random order without replacement, stopping at the first success or
///    after `R` tries. With route rejections `L_{s,1..K}`, the probability
///    that route `i` receives an attempt is
///    `q_i = (1/K) · Σ_{t=1}^{R} e_{t−1}(L_{s,−i}) / C(K−1, t−1)`
///    (the preceding `t−1` members are a uniform subset of the others and
///    all must fail), and the request is rejected with probability
///    `e_R(L_s)/C(K,R)` — elementary symmetric means over subsets.
/// 2. **Load model.** Route `i` is therefore *offered* `ρ_s · q_i`
///    erlangs; the reduced-load fixed point maps offered loads back to
///    route rejections.
///
/// The two are iterated (damped) to a joint fixed point. Residual error
/// comes from the link-independence assumption and from ignoring the
/// correlation between consecutive attempts of one request sharing links;
/// the integration tests bound it against simulation.
///
/// Returns the prediction at the joint fixed point (its
/// `admission_probability` field is the traffic-weighted per-attempt
/// value; the first tuple element is the per-*request* AP, which is the
/// figure-of-merit).
///
/// # Panics
///
/// Panics if `r` is zero.
pub fn approx_ap_ed_r(
    topo: &Topology,
    spec: &ScenarioSpec,
    r: u32,
    model: BlockingModel,
) -> (f64, ApPrediction) {
    assert!(r >= 1, "at least one try is required");
    let mut scenario = build_scenario(topo, spec, AnalyzedSystem::Ed1);
    let k = spec.group_members.len();
    let r_eff = (r as usize).min(k);
    let rho_s = spec.per_source_erlangs();
    let sources = spec.sources.len();
    let mut prediction = predict_ap(&scenario, model);
    for _ in 0..200 {
        // Retry-aware offered loads from the current rejection estimates.
        let mut max_delta: f64 = 0.0;
        for s in 0..sources {
            let losses: Vec<f64> = prediction.route_rejection[s * k..(s + 1) * k].to_vec();
            for i in 0..k {
                let q = attempt_probability(&losses, i, r_eff);
                let offered = rho_s * q;
                let slot = &mut scenario.routes[s * k + i].offered_erlangs;
                let next = 0.5 * *slot + 0.5 * offered;
                max_delta = max_delta.max((next - *slot).abs());
                *slot = next;
            }
        }
        prediction = predict_ap(&scenario, model);
        if max_delta < 1e-9 * rho_s.max(1.0) {
            break;
        }
    }
    let mut reject_sum = 0.0;
    for s in 0..sources {
        let losses = &prediction.route_rejection[s * k..(s + 1) * k];
        reject_sum += subset_mean_product(losses, r_eff);
    }
    let ap = 1.0 - reject_sum / sources as f64;
    (ap, prediction)
}

/// `P(route i receives an attempt)` for a uniform without-replacement
/// visit order truncated at `r` tries: the preceding visitors are a
/// uniform subset of the other members and all must have failed.
fn attempt_probability(losses: &[f64], i: usize, r: usize) -> f64 {
    let k = losses.len();
    debug_assert!(r >= 1 && r <= k);
    let others: Vec<f64> = losses
        .iter()
        .enumerate()
        .filter(|(j, _)| *j != i)
        .map(|(_, &l)| l)
        .collect();
    let mut q = 0.0;
    for t in 1..=r {
        let mean_fail_product = if t == 1 {
            1.0
        } else {
            subset_mean_product(&others, t - 1)
        };
        q += mean_fail_product / k as f64;
    }
    q
}

/// Mean over all size-`r` subsets of the product of the selected values:
/// `e_r(x) / C(n, r)` via the generating-polynomial DP.
fn subset_mean_product(values: &[f64], r: usize) -> f64 {
    let n = values.len();
    assert!(r >= 1 && r <= n, "subset size out of range");
    // Coefficients of Π (1 + x_i t): coeff[j] = e_j.
    let mut coeff = vec![0.0; n + 1];
    coeff[0] = 1.0;
    for &x in values {
        for j in (1..=n).rev() {
            coeff[j] += coeff[j - 1] * x;
        }
    }
    let mut binom = 1.0;
    for j in 0..r {
        binom *= (n - j) as f64 / (j + 1) as f64;
    }
    coeff[r] / binom
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_capacities_are_312_slots() {
        let topo = topologies::mci();
        let s = build_paper_scenario(&topo, 20.0, AnalyzedSystem::Ed1);
        assert_eq!(s.capacities.len(), topo.link_count());
        assert!(s.capacities.iter().all(|&c| c == 312));
    }

    #[test]
    fn ed1_splits_load_uniformly() {
        let topo = topologies::mci();
        let s = build_paper_scenario(&topo, 20.0, AnalyzedSystem::Ed1);
        // 9 sources × 5 members.
        assert_eq!(s.routes.len(), 45);
        let rho = 20.0 * 180.0 / 9.0 / 5.0;
        assert!(s
            .routes
            .iter()
            .all(|r| (r.offered_erlangs - rho).abs() < 1e-9));
    }

    #[test]
    fn sp_concentrates_load_on_nearest() {
        let topo = topologies::mci();
        let s = build_paper_scenario(&topo, 20.0, AnalyzedSystem::Sp);
        assert_eq!(s.routes.len(), 45);
        let rho_s = 20.0 * 180.0 / 9.0;
        for chunk in s.routes.chunks(5) {
            let loaded: Vec<&RouteLoad> =
                chunk.iter().filter(|r| r.offered_erlangs > 0.0).collect();
            assert_eq!(loaded.len(), 1, "exactly one loaded route per source");
            assert!((loaded[0].offered_erlangs - rho_s).abs() < 1e-9);
            // The loaded route is (one of) the shortest.
            let min_len = chunk.iter().map(|r| r.links.len()).min().unwrap();
            assert_eq!(loaded[0].links.len(), min_len);
        }
    }

    #[test]
    fn total_offered_load_matches_lambda() {
        let topo = topologies::mci();
        for system in [AnalyzedSystem::Ed1, AnalyzedSystem::Sp] {
            let s = build_paper_scenario(&topo, 35.0, system);
            let total: f64 = s.routes.iter().map(|r| r.offered_erlangs).sum();
            assert!((total - 35.0 * 180.0).abs() < 1e-6, "{system:?}: {total}");
        }
    }

    #[test]
    fn ed1_beats_sp_analytically_at_load() {
        // The headline analytical claim: spreading beats concentrating.
        let topo = topologies::mci();
        let ed = predict_ap(
            &build_paper_scenario(&topo, 35.0, AnalyzedSystem::Ed1),
            BlockingModel::ErlangB,
        );
        let sp = predict_ap(
            &build_paper_scenario(&topo, 35.0, AnalyzedSystem::Sp),
            BlockingModel::ErlangB,
        );
        assert!(ed.converged && sp.converged);
        assert!(
            ed.admission_probability > sp.admission_probability,
            "ED {} vs SP {}",
            ed.admission_probability,
            sp.admission_probability
        );
    }

    #[test]
    fn ap_decreases_in_lambda() {
        let topo = topologies::mci();
        let mut prev = 1.1;
        for lambda in [5.0, 20.0, 35.0, 50.0] {
            let p = predict_ap(
                &build_paper_scenario(&topo, lambda, AnalyzedSystem::Ed1),
                BlockingModel::ErlangB,
            );
            assert!(p.admission_probability < prev + 1e-12);
            prev = p.admission_probability;
        }
        assert!(prev < 0.8, "λ=50 must show real blocking, got {prev}");
    }

    #[test]
    fn subset_mean_product_hand_cases() {
        // r = 1: plain mean.
        assert!((subset_mean_product(&[0.1, 0.3, 0.5], 1) - 0.3).abs() < 1e-12);
        // r = n: full product.
        assert!((subset_mean_product(&[0.1, 0.3, 0.5], 3) - 0.015).abs() < 1e-12);
        // r = 2 of three: (0.03 + 0.05 + 0.15)/3.
        assert!(
            (subset_mean_product(&[0.1, 0.3, 0.5], 2) - (0.03 + 0.05 + 0.15) / 3.0).abs() < 1e-12
        );
    }

    #[test]
    fn ed_r_extension_improves_with_r() {
        let topo = topologies::mci();
        let spec = ScenarioSpec::paper_defaults(35.0);
        let (ap1, base) = approx_ap_ed_r(&topo, &spec, 1, BlockingModel::ErlangB);
        let (ap2, _) = approx_ap_ed_r(&topo, &spec, 2, BlockingModel::ErlangB);
        let (ap5, _) = approx_ap_ed_r(&topo, &spec, 5, BlockingModel::ErlangB);
        let (ap9, _) = approx_ap_ed_r(&topo, &spec, 9, BlockingModel::ErlangB);
        assert!(base.converged);
        // R = 1 must agree with the plain fixed-point AP (uniform loads).
        assert!((ap1 - base.admission_probability).abs() < 1e-9);
        assert!(ap2 > ap1);
        assert!(ap5 > ap2);
        // R beyond K changes nothing.
        assert!((ap9 - ap5).abs() < 1e-12);
        // Diminishing returns: the 1→2 jump dwarfs the 2→5 jump's per-step gain.
        assert!(ap2 - ap1 > (ap5 - ap2) / 3.0);
    }

    #[test]
    fn spec_erlang_math() {
        let spec = ScenarioSpec::paper_defaults(50.0);
        assert!((spec.per_source_erlangs() - 1_000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one try")]
    fn zero_retries_rejected() {
        let topo = topologies::mci();
        let spec = ScenarioSpec::paper_defaults(5.0);
        let _ = approx_ap_ed_r(&topo, &spec, 0, BlockingModel::ErlangB);
    }
}
