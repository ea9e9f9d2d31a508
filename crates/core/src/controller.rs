//! The admission controller: the DAC procedure of §4.2.

use crate::policy::{SelectionContext, WeightAssigner};
use crate::{HistoryTable, RetrialPolicy};
use anycast_net::{Bandwidth, LinkStateTable, Path};
use anycast_rsvp::{ProbeError, ReservationEngine, ReservationOutcome, SessionId, SetupTable};
use anycast_sim::SimRng;
use anycast_telemetry::{NullRecorder, ProbeResult, RequestTracer, SkipReason};

/// A flow that passed admission control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmittedFlow {
    /// The reservation session to tear down when the flow ends.
    pub session: SessionId,
    /// Index of the selected group member.
    pub member_index: usize,
    /// Bottleneck bandwidth of the route before this flow reserved on it.
    pub route_bandwidth: Bandwidth,
}

/// The outcome of running the DAC procedure for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionOutcome {
    /// `Some` if the flow was admitted.
    pub admitted: Option<AdmittedFlow>,
    /// Number of destinations tried (≥ 1 unless the group was exhausted
    /// before any try, which cannot happen with a non-empty group).
    pub tries: u32,
}

impl AdmissionOutcome {
    /// `true` when the flow was admitted.
    pub fn is_admitted(&self) -> bool {
        self.admitted.is_some()
    }
}

/// One AC-router's admission-control state: a weight policy, its local
/// admission history, and a retrial budget.
///
/// The paper places admission decisions at the source routers ("we assume
/// that the source routers that receive anycast flow requests are
/// AC-routers", §4.2), so an experiment creates one controller per source;
/// each accumulates its own history.
///
/// [`admit`](Self::admit) runs the REPEAT loop of Figure 1:
///
/// 1. select a destination by weighted random draw over the not-yet-tried
///    members (weights from the policy, §4.3);
/// 2. attempt an RSVP-style reservation along the fixed route (§4.4);
/// 3. on failure consult the retrial policy (§4.5) and possibly repeat.
#[derive(Debug)]
pub struct AdmissionController {
    policy: Box<dyn WeightAssigner>,
    retrial: RetrialPolicy,
    history: HistoryTable,
    distances: Vec<u32>,
    /// Flat member-indexed cache of route bottleneck bandwidths `B_i` in
    /// bits/s — the `route_bandwidth_bps` slice handed to the policy.
    /// Empty unless the policy needs bandwidth information.
    bw_cache: Vec<f64>,
    /// `links.version()` at which `bw_cache[i]` was last recomputed.
    bw_epoch: Vec<u64>,
    /// `links.version()` at which the whole cache was last validated;
    /// `None` before the first computation.
    bw_version: Option<u64>,
}

impl AdmissionController {
    /// Creates a controller for one source.
    ///
    /// `distances[i]` must be the hop count of the fixed route from this
    /// source to group member `i` (as produced by
    /// [`RouteTable::distances`](anycast_net::RouteTable::distances)).
    ///
    /// # Panics
    ///
    /// Panics if `distances` is empty.
    pub fn new(
        policy: Box<dyn WeightAssigner>,
        retrial: RetrialPolicy,
        distances: Vec<u32>,
    ) -> Self {
        assert!(!distances.is_empty(), "group must have at least one member");
        let history = HistoryTable::new(distances.len());
        AdmissionController {
            policy,
            retrial,
            history,
            distances,
            bw_cache: Vec::new(),
            bw_epoch: Vec::new(),
            bw_version: None,
        }
    }

    /// The policy's display name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// This router's local admission history.
    pub fn history(&self) -> &HistoryTable {
        &self.history
    }

    /// The configured retrial policy.
    pub fn retrial(&self) -> RetrialPolicy {
        self.retrial
    }

    /// Computes the policy's current selection weights without performing
    /// an admission (used by examples and diagnostics).
    pub fn current_weights(&mut self, routes: &[Path], links: &LinkStateTable) -> Vec<f64> {
        self.selection_weights(routes, links)
    }

    /// Step 1.1 of Figure 1: the policy's selection weights against the
    /// current link state. Exposed so a latency-aware driver can run the
    /// selection/retrial loop asynchronously (one weight computation per
    /// attempt, exactly as [`admit_traced`](Self::admit_traced) does).
    pub fn selection_weights(&mut self, routes: &[Path], links: &LinkStateTable) -> Vec<f64> {
        self.refresh_route_bandwidth(routes, links);
        let ctx = SelectionContext {
            distances: &self.distances,
            history: self.history.entries(),
            route_bandwidth_bps: &self.bw_cache,
        };
        let weights = self.policy.assign(&ctx);
        debug_assert!((weights.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        weights
    }

    /// Draws the next destination among the `untried` members, weighted by
    /// `weights`; when every untried member carries zero weight the policy
    /// considers them hopeless, so the draw falls back to uniform over the
    /// untried to keep behaviour total. `None` when the group is
    /// exhausted. RNG consumption is identical to the draw inside
    /// [`admit_traced`](Self::admit_traced).
    pub fn pick_destination(weights: &[f64], untried: &[bool], rng: &mut SimRng) -> Option<usize> {
        match rng.choose_weighted_masked(weights, untried) {
            Some(i) => Some(i),
            None => {
                let remaining: Vec<usize> = (0..untried.len()).filter(|&i| untried[i]).collect();
                match remaining.len() {
                    0 => None,
                    n => Some(remaining[rng.below(n)]),
                }
            }
        }
    }

    /// Records an admission at `member` in the local history (step 1.3).
    pub fn note_success(&mut self, member: usize) {
        self.history.record_success(member);
    }

    /// Records a failed probe at `member` in the local history.
    pub fn note_failure(&mut self, member: usize) {
        self.history.record_failure(member);
    }

    /// Step 1.4, the retrial decision: whether to keep trying after
    /// `tries` probes, given the weight vector of the iteration that just
    /// failed. Returns the remaining untried weight when another try is
    /// allowed, `None` when the request must be rejected.
    pub fn retrial_weight(&self, tries: u32, weights: &[f64], untried: &[bool]) -> Option<f64> {
        if untried.iter().all(|&u| !u) {
            return None; // no alternative destination left
        }
        let remaining_weight: f64 = weights
            .iter()
            .zip(untried)
            .filter(|(_, &u)| u)
            .map(|(&w, _)| w)
            .sum();
        if self.retrial.keep_going(tries, remaining_weight) {
            Some(remaining_weight)
        } else {
            None
        }
    }

    /// Runs the DAC procedure of Figure 1 for one flow request.
    ///
    /// `routes[i]` must be the fixed route to member `i` (same order as the
    /// distances given at construction). Retrials draw without replacement:
    /// every try targets a member not yet tried for this request.
    ///
    /// # Panics
    ///
    /// Panics if `routes` does not match the construction-time group size.
    pub fn admit(
        &mut self,
        routes: &[Path],
        links: &mut LinkStateTable,
        rsvp: &mut ReservationEngine,
        demand: Bandwidth,
        rng: &mut SimRng,
    ) -> AdmissionOutcome {
        let mut null = NullRecorder;
        let mut tracer = RequestTracer::new(&mut null, 0.0, 0);
        self.admit_traced(routes, links, rsvp, demand, rng, &mut tracer)
    }

    /// [`admit`](Self::admit) with a telemetry tracer: identical decisions
    /// and RNG consumption, plus a per-request decision trace (weight
    /// vector, probe outcomes, retrial decisions) when the tracer is
    /// armed. With a disarmed tracer every hook is a no-op, which is what
    /// keeps telemetry-off runs bit-identical — guarded by the
    /// zero-overhead test in `tests/telemetry_guard.rs`.
    ///
    /// # Panics
    ///
    /// Panics if `routes` does not match the construction-time group size.
    pub fn admit_traced(
        &mut self,
        routes: &[Path],
        links: &mut LinkStateTable,
        rsvp: &mut ReservationEngine,
        demand: Bandwidth,
        rng: &mut SimRng,
        tracer: &mut RequestTracer<'_>,
    ) -> AdmissionOutcome {
        self.admit_with(
            routes,
            links,
            rsvp,
            demand,
            rng,
            tracer,
            |links, rsvp, route, bw| rsvp.probe_and_reserve(links, route, bw),
        )
    }

    /// [`admit_traced`](Self::admit_traced) with the reservation performed
    /// as a synchronous two-phase exchange through `setups` (per-hop holds
    /// placed and committed in one instant). This is the degenerate
    /// zero-delay mode of the latency-aware engine: decisions, RNG
    /// consumption and the message ledger are bit-identical to the atomic
    /// path.
    ///
    /// # Panics
    ///
    /// Panics if `routes` does not match the construction-time group size.
    #[allow(clippy::too_many_arguments)]
    pub fn admit_two_phase_express(
        &mut self,
        routes: &[Path],
        links: &mut LinkStateTable,
        rsvp: &mut ReservationEngine,
        setups: &mut SetupTable,
        demand: Bandwidth,
        now: f64,
        rng: &mut SimRng,
        tracer: &mut RequestTracer<'_>,
    ) -> AdmissionOutcome {
        self.admit_with(
            routes,
            links,
            rsvp,
            demand,
            rng,
            tracer,
            |links, rsvp, route, bw| setups.run_express(rsvp, links, route, bw, now),
        )
    }

    /// The REPEAT loop of Figure 1 with the reservation step abstracted:
    /// `reserve` either probes atomically or runs a synchronous two-phase
    /// exchange. Monomorphized per caller, so the atomic path costs
    /// nothing for the generality.
    #[allow(clippy::too_many_arguments)]
    fn admit_with(
        &mut self,
        routes: &[Path],
        links: &mut LinkStateTable,
        rsvp: &mut ReservationEngine,
        demand: Bandwidth,
        rng: &mut SimRng,
        tracer: &mut RequestTracer<'_>,
        mut reserve: impl FnMut(
            &mut LinkStateTable,
            &mut ReservationEngine,
            &Path,
            Bandwidth,
        ) -> Result<ReservationOutcome, ProbeError>,
    ) -> AdmissionOutcome {
        assert_eq!(
            routes.len(),
            self.distances.len(),
            "routes must cover every group member"
        );
        let k = routes.len();
        let mut untried = vec![true; k];
        let mut tries = 0u32;
        loop {
            // Step 1.1: destination selection.
            let weights = self.selection_weights(routes, links);
            tracer.note_weights(&weights);
            let pick = match Self::pick_destination(&weights, &untried, rng) {
                Some(i) => i,
                None => break, // group exhausted
            };
            // Steps 1.2–1.3: resource reservation.
            tries += 1;
            match reserve(links, rsvp, &routes[pick], demand) {
                Ok(outcome) => {
                    self.note_success(pick);
                    tracer.note_probe(pick, weights[pick], ProbeResult::Admitted);
                    tracer.finish_admitted(outcome.session, pick, routes[pick].hops(), tries);
                    return AdmissionOutcome {
                        admitted: Some(AdmittedFlow {
                            session: outcome.session,
                            member_index: pick,
                            route_bandwidth: outcome.route_bandwidth,
                        }),
                        tries,
                    };
                }
                Err(e) => {
                    self.note_failure(pick);
                    untried[pick] = false;
                    tracer.note_probe(
                        pick,
                        weights[pick],
                        ProbeResult::Skipped(SkipReason::LinkBlocked {
                            link: e.failed_link,
                            hop_index: e.hop_index,
                            available_bps: e.available.bps(),
                        }),
                    );
                }
            }
            // Step 1.4: retrial control.
            match self.retrial_weight(tries, &weights, &untried) {
                Some(remaining_weight) => tracer.note_retrial(tries, remaining_weight),
                None => break,
            }
        }
        // Step 2: the flow is rejected.
        tracer.finish_rejected(tries);
        AdmissionOutcome {
            admitted: None,
            tries,
        }
    }

    /// Clears the admission history (e.g. between measurement epochs).
    pub fn reset_history(&mut self) {
        self.history.reset();
    }

    /// Brings `bw_cache` up to date with the ledger, recomputing only the
    /// members whose routes were actually touched since their last
    /// computation (per-link stamps from [`LinkStateTable::stamp`]).
    ///
    /// The cache is exact, not approximate: a member's bottleneck can only
    /// change when some link on its route changes, and any such change
    /// advances that link's stamp past the epoch recorded here. The one
    /// contract is that a controller observes a *single* ledger whose
    /// version counter is monotone over its lifetime — the §4.2 model of
    /// one AC-router against one link-state table, which is how every
    /// experiment drives it. Within a request's retrial loop the
    /// whole-vector version check makes repeat evaluations O(1).
    fn refresh_route_bandwidth(&mut self, routes: &[Path], links: &LinkStateTable) {
        if !self.policy.needs_route_bandwidth() {
            return; // bw_cache stays empty, as the policy contract expects
        }
        let version = links.version();
        if self.bw_version == Some(version) {
            return;
        }
        let recompute = |cache: &mut f64, epoch: &mut u64, r: &Path| {
            let bw = links.min_available_on(r).bps();
            // Trivial routes report u64::MAX; clamp to keep weights
            // finite but overwhelmingly in favour of the local member.
            *cache = if bw == u64::MAX { 1e18 } else { bw as f64 };
            *epoch = version;
        };
        if self.bw_version.is_none() {
            self.bw_cache.resize(routes.len(), 0.0);
            self.bw_epoch.resize(routes.len(), 0);
            for (i, r) in routes.iter().enumerate() {
                recompute(&mut self.bw_cache[i], &mut self.bw_epoch[i], r);
            }
        } else {
            for (i, r) in routes.iter().enumerate() {
                // Shard-aware staleness check: stripes whose shard stamp
                // has not advanced past this member's epoch are skipped
                // without reading any per-link stamp.
                if links.any_stamp_on_after(r, self.bw_epoch[i]) {
                    recompute(&mut self.bw_cache[i], &mut self.bw_epoch[i], r);
                }
            }
        }
        self.bw_version = Some(version);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Ed, PolicySpec, WdDb, WdDh};
    use anycast_net::routing::RouteTable;
    use anycast_net::{AnycastGroup, NodeId, Topology, TopologyBuilder};

    /// Line 0-1-2-3-4 with members at 0 and 4; source at 1.
    fn fixture() -> (Topology, Vec<Path>, Vec<u32>) {
        let mut b = TopologyBuilder::new(5);
        b.links_uniform([(0, 1), (1, 2), (2, 3), (3, 4)], Bandwidth::from_kbps(128))
            .unwrap();
        let topo = b.build();
        let group = AnycastGroup::new("A", [NodeId::new(0), NodeId::new(4)]).unwrap();
        let table = RouteTable::shortest_paths(&topo, &group);
        let routes = table.routes_from(NodeId::new(1)).unwrap().to_vec();
        let dists = table.distances(NodeId::new(1)).unwrap();
        (topo, routes, dists)
    }

    fn controller(policy: Box<dyn WeightAssigner>, r: u32, dists: Vec<u32>) -> AdmissionController {
        AdmissionController::new(policy, RetrialPolicy::FixedLimit(r), dists)
    }

    #[test]
    fn admits_on_idle_network() {
        let (topo, routes, dists) = fixture();
        let mut links = LinkStateTable::from_topology(&topo);
        let mut rsvp = ReservationEngine::new();
        let mut rng = SimRng::seed_from(1);
        let mut c = controller(Box::new(Ed), 1, dists);
        let out = c.admit(
            &routes,
            &mut links,
            &mut rsvp,
            Bandwidth::from_kbps(64),
            &mut rng,
        );
        assert!(out.is_admitted());
        assert_eq!(out.tries, 1);
        assert_eq!(c.history().clean_count(), 2);
    }

    #[test]
    fn retries_distinct_destination_and_succeeds() {
        let (topo, routes, dists) = fixture();
        let mut links = LinkStateTable::from_topology(&topo);
        // Saturate the route toward member 0 (link 0-1).
        links
            .reserve(routes[0].links()[0], Bandwidth::from_kbps(128))
            .unwrap();
        let mut rsvp = ReservationEngine::new();
        let mut c = controller(Box::new(Ed), 2, dists);
        // Try many seeds: whenever member 0 is picked first, the retry must
        // land on member 1 and succeed; tear down to keep the network clean.
        let mut retried = false;
        for seed in 0..50 {
            let mut rng = SimRng::seed_from(seed);
            let out = c.admit(
                &routes,
                &mut links,
                &mut rsvp,
                Bandwidth::from_kbps(64),
                &mut rng,
            );
            assert!(out.is_admitted(), "seed {seed}");
            let flow = out.admitted.unwrap();
            assert_eq!(flow.member_index, 1, "only member 1 is reachable");
            if out.tries == 2 {
                retried = true;
            }
            rsvp.teardown(&mut links, flow.session).unwrap();
        }
        assert!(retried, "some request should have needed a retry");
    }

    #[test]
    fn r1_rejects_when_first_pick_blocked() {
        let (topo, routes, dists) = fixture();
        let mut links = LinkStateTable::from_topology(&topo);
        links
            .reserve(routes[0].links()[0], Bandwidth::from_kbps(128))
            .unwrap();
        let mut rsvp = ReservationEngine::new();
        let mut c = controller(Box::new(Ed), 1, dists);
        let mut rejections = 0;
        for seed in 0..200 {
            let mut rng = SimRng::seed_from(seed);
            let out = c.admit(
                &routes,
                &mut links,
                &mut rsvp,
                Bandwidth::from_kbps(64),
                &mut rng,
            );
            assert_eq!(out.tries, 1);
            match out.admitted {
                Some(flow) => {
                    rsvp.teardown(&mut links, flow.session).unwrap();
                }
                None => rejections += 1,
            }
        }
        // ED picks member 0 about half the time; all those reject under R=1.
        assert!(
            (60..140).contains(&rejections),
            "rejections {rejections} not near half"
        );
    }

    #[test]
    fn rejects_when_all_members_blocked() {
        let (topo, routes, dists) = fixture();
        let mut links = LinkStateTable::from_topology(&topo);
        links
            .reserve(routes[0].links()[0], Bandwidth::from_kbps(128))
            .unwrap();
        links
            .reserve(routes[1].links()[2], Bandwidth::from_kbps(128))
            .unwrap();
        let mut rsvp = ReservationEngine::new();
        let mut rng = SimRng::seed_from(9);
        let mut c = controller(Box::new(Ed), 5, dists);
        let out = c.admit(
            &routes,
            &mut links,
            &mut rsvp,
            Bandwidth::from_kbps(64),
            &mut rng,
        );
        assert!(!out.is_admitted());
        assert_eq!(out.tries, 2, "both members tried once, none twice");
        assert_eq!(c.history().failures(0), 1);
        assert_eq!(c.history().failures(1), 1);
    }

    #[test]
    fn history_steers_wddh_away_from_failures() {
        let (topo, routes, dists) = fixture();
        let mut links = LinkStateTable::from_topology(&topo);
        links
            .reserve(routes[0].links()[0], Bandwidth::from_kbps(128))
            .unwrap();
        let mut rsvp = ReservationEngine::new();
        let policy = WdDh::new(0.2, crate::policy::HistoryMode::FromBase).unwrap();
        let mut c = controller(Box::new(policy), 2, dists);
        let mut rng = SimRng::seed_from(3);
        // Warm the history with a few requests.
        let mut sessions = Vec::new();
        for _ in 0..10 {
            let out = c.admit(
                &routes,
                &mut links,
                &mut rsvp,
                Bandwidth::from_bps(1),
                &mut rng,
            );
            if let Some(f) = out.admitted {
                sessions.push(f.session);
            }
        }
        for s in sessions {
            rsvp.teardown(&mut links, s).unwrap();
        }
        let w = c.current_weights(&routes, &links);
        assert!(
            w[1] > w[0],
            "member 0 keeps failing, weights should favour member 1: {w:?}"
        );
    }

    #[test]
    fn wddb_avoids_saturated_route_without_history() {
        let (topo, routes, dists) = fixture();
        let mut links = LinkStateTable::from_topology(&topo);
        links
            .reserve(routes[0].links()[0], Bandwidth::from_kbps(128))
            .unwrap();
        let mut rsvp = ReservationEngine::new();
        let mut c = controller(Box::new(WdDb), 1, dists);
        // WD/D+B sees B_0 = 0 and should never pick member 0, so even with
        // R = 1 every request is admitted.
        for seed in 0..100 {
            let mut rng = SimRng::seed_from(seed);
            let out = c.admit(
                &routes,
                &mut links,
                &mut rsvp,
                Bandwidth::from_kbps(1),
                &mut rng,
            );
            assert!(out.is_admitted(), "seed {seed}");
            let flow = out.admitted.unwrap();
            assert_eq!(flow.member_index, 1);
            rsvp.teardown(&mut links, flow.session).unwrap();
        }
    }

    #[test]
    fn zero_weight_fallback_still_tries() {
        // All routes saturated: WD/D+B weights degrade to distance weights,
        // reservation fails, request rejected after R tries or exhaustion.
        let (topo, routes, dists) = fixture();
        let mut links = LinkStateTable::from_topology(&topo);
        for l in 0..4u32 {
            let id = anycast_net::LinkId::new(l);
            let avail = links.available(id);
            links.reserve(id, avail).unwrap();
        }
        let mut rsvp = ReservationEngine::new();
        let mut rng = SimRng::seed_from(5);
        let mut c = controller(Box::new(WdDb), 5, dists);
        let out = c.admit(
            &routes,
            &mut links,
            &mut rsvp,
            Bandwidth::from_kbps(64),
            &mut rng,
        );
        assert!(!out.is_admitted());
        assert_eq!(out.tries, 2, "both members tried");
    }

    #[test]
    fn reset_history_clears_state() {
        let (_, _, dists) = fixture();
        let mut c = controller(PolicySpec::wd_dh_default().build().unwrap(), 2, dists);
        c.history.record_failure(0);
        c.reset_history();
        assert_eq!(c.history().clean_count(), 2);
        assert_eq!(c.retrial(), RetrialPolicy::FixedLimit(2));
        assert_eq!(c.policy_name(), "WD/D+H");
    }

    #[test]
    fn express_admission_matches_atomic_bit_for_bit() {
        // Drive two identical universes through a churn of admissions and
        // teardowns: one through the atomic probe, one through the
        // synchronous two-phase exchange. Outcomes, message ledgers, link
        // state and history must stay equal throughout.
        let (topo, routes, dists) = fixture();
        let mut links_a = LinkStateTable::from_topology(&topo);
        let mut links_e = LinkStateTable::from_topology(&topo);
        let mut rsvp_a = ReservationEngine::new();
        let mut rsvp_e = ReservationEngine::new();
        let mut setups = anycast_rsvp::SetupTable::default();
        let mut ca = controller(Box::new(WdDb), 2, dists.clone());
        let mut ce = controller(Box::new(WdDb), 2, dists);
        let mut rng_a = SimRng::seed_from(42);
        let mut rng_e = SimRng::seed_from(42);
        let mut live_a = Vec::new();
        let mut live_e = Vec::new();
        for step in 0..60u64 {
            let demand = Bandwidth::from_kbps(48);
            let a = ca.admit(&routes, &mut links_a, &mut rsvp_a, demand, &mut rng_a);
            let mut null = NullRecorder;
            let mut tracer = RequestTracer::new(&mut null, 0.0, step);
            let e = ce.admit_two_phase_express(
                &routes,
                &mut links_e,
                &mut rsvp_e,
                &mut setups,
                demand,
                step as f64,
                &mut rng_e,
                &mut tracer,
            );
            assert_eq!(a, e, "step {step}");
            if let Some(f) = a.admitted {
                live_a.push(f.session);
                live_e.push(e.admitted.unwrap().session);
            }
            // Periodically tear down the oldest flow in both universes.
            if step % 3 == 2 && !live_a.is_empty() {
                rsvp_a.teardown(&mut links_a, live_a.remove(0)).unwrap();
                rsvp_e.teardown(&mut links_e, live_e.remove(0)).unwrap();
            }
            assert_eq!(rsvp_a.ledger(), rsvp_e.ledger(), "step {step}");
        }
        assert!(links_a.iter().zip(links_e.iter()).all(|(x, y)| x == y));
        // The hold column by full scan, which also vouches for the O(1) total.
        assert_eq!(links_e.audit().unwrap().pending_bps, 0);
        assert_eq!(links_e.total_pending(), Bandwidth::ZERO);
        assert!(setups.in_flight() == 0, "express leaves no live setups");
    }

    #[test]
    fn route_bandwidth_cache_matches_fresh_recompute() {
        // Churn the ledger with reservations, holds and faults; after every
        // mutation the cached controller must see exactly the weights a
        // cache-less (fresh) controller computes from scratch.
        let (topo, routes, dists) = fixture();
        let mut links = LinkStateTable::from_topology(&topo);
        let mut cached = controller(Box::new(WdDb), 2, dists.clone());
        let check = |cached: &mut AdmissionController, links: &LinkStateTable| {
            let mut fresh = controller(Box::new(WdDb), 2, dists.clone());
            assert_eq!(
                cached.current_weights(&routes, links),
                fresh.current_weights(&routes, links)
            );
        };
        check(&mut cached, &links);
        // Repeat without any mutation: the O(1) whole-vector hit.
        check(&mut cached, &links);
        let l0 = routes[0].links()[0];
        let l1 = routes[1].links()[1];
        links.reserve(l0, Bandwidth::from_kbps(32)).unwrap();
        check(&mut cached, &links);
        links.place_hold(l1, Bandwidth::from_kbps(16)).unwrap();
        check(&mut cached, &links);
        links.commit_hold(l1, Bandwidth::from_kbps(16)).unwrap();
        check(&mut cached, &links);
        links.fail_link(l0).unwrap();
        check(&mut cached, &links);
        links.restore_link(l0).unwrap();
        check(&mut cached, &links);
        links.release(l1, Bandwidth::from_kbps(16)).unwrap();
        check(&mut cached, &links);
        links.reset();
        check(&mut cached, &links);
    }

    #[test]
    #[should_panic(expected = "routes must cover every group member")]
    fn mismatched_routes_panic() {
        let (topo, routes, dists) = fixture();
        let mut links = LinkStateTable::from_topology(&topo);
        let mut rsvp = ReservationEngine::new();
        let mut rng = SimRng::seed_from(0);
        let mut c = controller(Box::new(Ed), 1, dists);
        let _ = c.admit(
            &routes[..1],
            &mut links,
            &mut rsvp,
            Bandwidth::from_kbps(64),
            &mut rng,
        );
    }
}
