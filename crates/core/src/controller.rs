//! The admission controller: the DAC procedure of §4.2.
//!
//! Figure 1's REPEAT loop is written once, as a [`DacRequest`] that stops
//! at each reservation attempt. Three drivers feed it: the atomic
//! [`AdmissionController::admit`], the multipath
//! [`MultipathController`](crate::multipath::MultipathController), and the
//! event-driven two-phase engine (`crate::signalling`), which parks the
//! request between PATH/RESV messages.

use crate::policy::{SelectionContext, WeightAssigner};
use crate::{HistoryTable, RetrialPolicy};
use anycast_net::{Bandwidth, LinkStateTable, Path};
use anycast_rsvp::{ProbeError, ReservationEngine, ReservationOutcome, SessionId};
use anycast_sim::SimRng;
use anycast_telemetry::{
    DecisionTrace, NullRecorder, ProbeResult, Recorder, RequestTracer, SkipReason,
};

/// A flow that passed admission control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmittedFlow {
    /// The reservation session to tear down when the flow ends.
    pub session: SessionId,
    /// Index of the selected group member.
    pub member_index: usize,
    /// Bottleneck bandwidth of the route before this flow reserved on it.
    pub(crate) route_bandwidth: Bandwidth,
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
    #[cfg(test)]
    pub(crate) fn is_admitted(&self) -> bool {
        self.admitted.is_some()
    }
}

/// The fixed routes one source selects among, indexed by member: one route
/// each (§3), or a fan of alternates each in preference order (the
/// multipath extension).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Routes<'r> {
    Single(&'r [Path]),
    Fans(&'r [Vec<Path>]),
}

impl<'r> Routes<'r> {
    fn len(self) -> usize {
        match self {
            Routes::Single(routes) => routes.len(),
            Routes::Fans(fans) => fans.len(),
        }
    }

    /// Member `i`'s routes, in preference order.
    pub(crate) fn member(self, i: usize) -> &'r [Path] {
        match self {
            Routes::Single(routes) => std::slice::from_ref(&routes[i]),
            Routes::Fans(fans) => &fans[i],
        }
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
    /// A finished request's `weights` and `untried` buffers, handed to the
    /// next [`DacRequest`]; empty while a parked request holds them.
    spare_weights: Vec<f64>,
    spare_untried: Vec<bool>,
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
            spare_weights: Vec::new(),
            spare_untried: Vec::new(),
        }
    }

    /// This router's local admission history.
    pub fn history(&self) -> &HistoryTable {
        &self.history
    }

    /// Computes the policy's current selection weights without performing
    /// an admission (used by examples and diagnostics).
    pub fn current_weights(&mut self, routes: &[Path], links: &LinkStateTable) -> Vec<f64> {
        let mut weights = Vec::new();
        self.weights(Routes::Single(routes), links, &mut weights);
        weights
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
    pub(crate) fn admit_traced(
        &mut self,
        routes: &[Path],
        links: &mut LinkStateTable,
        rsvp: &mut ReservationEngine,
        demand: Bandwidth,
        rng: &mut SimRng,
        tracer: &mut RequestTracer<'_>,
    ) -> AdmissionOutcome {
        self.decide(Routes::Single(routes), links, rsvp, demand, rng, tracer)
            .0
    }

    /// The synchronous driver of a [`DacRequest`]: each attempt reserves
    /// atomically (§4.4), walking the member's routes in order until one
    /// admits. Returns the outcome and the number of route probes.
    pub(crate) fn decide(
        &mut self,
        routes: Routes<'_>,
        links: &mut LinkStateTable,
        rsvp: &mut ReservationEngine,
        demand: Bandwidth,
        rng: &mut SimRng,
        tracer: &mut RequestTracer<'_>,
    ) -> (AdmissionOutcome, u32) {
        let mut probes = 0u32;
        let mut request = DacRequest::start(self, routes, links, rng, tracer);
        let outcome = loop {
            let fan = routes.member(request.pick);
            match reserve_first(fan, links, rsvp, demand, &mut probes) {
                Ok((reserved, hops)) => break request.admitted(self, reserved, hops, tracer),
                Err(e) => {
                    if !request.failed(self, routes, links, rng, e.into(), tracer) {
                        break request.rejected();
                    }
                }
            }
        };
        self.spare_weights = request.weights;
        self.spare_untried = request.untried;
        (outcome, probes)
    }

    /// The input to step 1.1: the policy's selection weights against the
    /// current link state, written into `weights`.
    fn weights(&mut self, routes: Routes<'_>, links: &LinkStateTable, weights: &mut Vec<f64>) {
        self.refresh_route_bandwidth(routes, links);
        let ctx = SelectionContext {
            distances: &self.distances,
            history: self.history.entries(),
            route_bandwidth_bps: &self.bw_cache,
        };
        self.policy.assign_into(&ctx, weights);
        debug_assert!((weights.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }

    /// Brings `bw_cache` up to date with the ledger, recomputing only the
    /// members whose routes were actually touched since their last
    /// computation (per-link stamps from [`LinkStateTable::stamp`]). A
    /// member's bandwidth is the best bottleneck over its routes.
    ///
    /// The cache is exact, not approximate: a member's bottleneck can only
    /// change when some link on its routes changes, and any such change
    /// advances that link's stamp past the epoch recorded here. The one
    /// contract is that a controller observes a *single* ledger whose
    /// version counter is monotone over its lifetime — the §4.2 model of
    /// one AC-router against one link-state table, which is how every
    /// experiment drives it. Within a request's retrial loop the
    /// whole-vector version check makes repeat evaluations O(1).
    fn refresh_route_bandwidth(&mut self, routes: Routes<'_>, links: &LinkStateTable) {
        if !self.policy.needs_route_bandwidth() {
            return; // bw_cache stays empty, as the policy contract expects
        }
        let version = links.version();
        if self.bw_version == Some(version) {
            return;
        }
        let recompute = |cache: &mut f64, epoch: &mut u64, fan: &[Path]| {
            // Trivial routes report u64::MAX; clamp to keep weights
            // finite but overwhelmingly in favour of the local member.
            *cache = fan
                .iter()
                .map(|r| match links.min_available_on(r).bps() {
                    u64::MAX => 1e18,
                    bw => bw as f64,
                })
                .fold(0.0, f64::max);
            *epoch = version;
        };
        if self.bw_version.is_none() {
            self.bw_cache.resize(routes.len(), 0.0);
            self.bw_epoch.resize(routes.len(), 0);
            for i in 0..routes.len() {
                recompute(
                    &mut self.bw_cache[i],
                    &mut self.bw_epoch[i],
                    routes.member(i),
                );
            }
        } else {
            for i in 0..routes.len() {
                // Shard-aware staleness check: stripes whose shard stamp
                // has not advanced past this member's epoch are skipped
                // without reading any per-link stamp.
                let fan = routes.member(i);
                if fan
                    .iter()
                    .any(|r| links.any_stamp_on_after(r, self.bw_epoch[i]))
                {
                    recompute(&mut self.bw_cache[i], &mut self.bw_epoch[i], fan);
                }
            }
        }
        self.bw_version = Some(version);
    }
}

/// Reserves along the first of `fan`'s routes that admits `demand`,
/// counting each probe. The error is the last route's bottleneck.
fn reserve_first(
    fan: &[Path],
    links: &mut LinkStateTable,
    rsvp: &mut ReservationEngine,
    demand: Bandwidth,
    probes: &mut u32,
) -> Result<(ReservationOutcome, usize), ProbeError> {
    let mut blocked = None;
    for route in fan {
        *probes += 1;
        match rsvp.probe_and_reserve(links, route, demand) {
            Ok(reserved) => return Ok((reserved, route.hops())),
            Err(e) => blocked = Some(e),
        }
    }
    Err(blocked.expect("every member has at least one route"))
}

/// One request's pass through the REPEAT loop of Figure 1, stopped at
/// each reservation attempt so the attempt may take as long as its
/// signalling does.
///
/// [`start`](Self::start) makes the step 1.1 draw. The driver then
/// attempts a reservation toward [`pick`](Self::pick) and reports back:
/// [`admitted`](Self::admitted) records the success in the history;
/// [`failed`](Self::failed) records the failure, applies the §4.5 test and
/// either draws again against fresh weights or rejects. RNG consumption
/// is one weighted draw per try, whatever the driver.
#[derive(Debug)]
pub(crate) struct DacRequest {
    /// Members not yet tried for this request (retrials draw without
    /// replacement).
    untried: Vec<bool>,
    /// Destinations tried so far, the current one included.
    tries: u32,
    /// The weights the current pick was drawn from — the §4.5 test reads
    /// the weights of the iteration that failed.
    weights: Vec<f64>,
    /// The destination of the current attempt.
    pick: usize,
    /// The decision trail between events, for a driver that resumes the
    /// request later ([`resume`](Self::resume)); empty unless traced.
    trail: DecisionTrace,
}

impl DacRequest {
    /// A new request: step 1.1's first draw over the whole group.
    ///
    /// # Panics
    ///
    /// Panics if `routes` does not match the controller's group size.
    pub(crate) fn start(
        controller: &mut AdmissionController,
        routes: Routes<'_>,
        links: &LinkStateTable,
        rng: &mut SimRng,
        tracer: &mut RequestTracer<'_>,
    ) -> Self {
        assert_eq!(
            routes.len(),
            controller.distances.len(),
            "routes must cover every group member"
        );
        // The controller's spare buffers, if no parked request holds them.
        let mut untried = std::mem::take(&mut controller.spare_untried);
        untried.clear();
        untried.resize(routes.len(), true);
        let mut request = DacRequest {
            untried,
            tries: 0,
            weights: std::mem::take(&mut controller.spare_weights),
            pick: 0,
            trail: DecisionTrace::default(),
        };
        let drawn = request.draw(controller, routes, links, rng, tracer);
        debug_assert!(drawn, "anycast groups are non-empty");
        request
    }

    /// The member the current attempt targets.
    pub(crate) fn pick(&self) -> usize {
        self.pick
    }

    /// The verdict of a request [`failed`](Self::failed) rejected.
    pub(crate) fn rejected(&self) -> AdmissionOutcome {
        AdmissionOutcome {
            admitted: None,
            tries: self.tries,
        }
    }

    /// Step 1.3: the attempt installed `reserved` over `hops` links. The
    /// success enters the history (eq. 7) and the trace closes.
    pub(crate) fn admitted(
        &self,
        controller: &mut AdmissionController,
        reserved: ReservationOutcome,
        hops: usize,
        tracer: &mut RequestTracer<'_>,
    ) -> AdmissionOutcome {
        controller.history.record_success(self.pick);
        tracer.note_probe(self.pick, self.weights[self.pick], ProbeResult::Admitted);
        tracer.finish_admitted(reserved.session, self.pick, hops, self.tries);
        AdmissionOutcome {
            admitted: Some(AdmittedFlow {
                session: reserved.session,
                member_index: self.pick,
                route_bandwidth: reserved.route_bandwidth,
            }),
            tries: self.tries,
        }
    }

    /// The attempt failed for `skip`. The failure enters the history, then
    /// step 1.4 applies the §4.5 test: `true` when another member was
    /// drawn against fresh weights, `false` when the request is rejected
    /// (and its trace closed).
    pub(crate) fn failed(
        &mut self,
        controller: &mut AdmissionController,
        routes: Routes<'_>,
        links: &LinkStateTable,
        rng: &mut SimRng,
        skip: SkipReason,
        tracer: &mut RequestTracer<'_>,
    ) -> bool {
        controller.history.record_failure(self.pick);
        self.untried[self.pick] = false;
        tracer.note_probe(
            self.pick,
            self.weights[self.pick],
            ProbeResult::Skipped(skip),
        );
        if self.untried.contains(&true) {
            let remaining_weight: f64 = self
                .weights
                .iter()
                .zip(&self.untried)
                .filter(|(_, &u)| u)
                .map(|(&w, _)| w)
                .sum();
            if controller.retrial.keep_going(self.tries, remaining_weight) {
                tracer.note_retrial(self.tries, remaining_weight);
                if self.draw(controller, routes, links, rng, tracer) {
                    return true;
                }
            }
        }
        // Step 2: the flow is rejected.
        tracer.finish_rejected(self.tries);
        false
    }

    /// Step 1.1: fresh weights from the current link state, then a
    /// weighted draw over the untried members. When every untried member
    /// carries zero weight the policy considers them hopeless, so the draw
    /// falls back to uniform over the untried to keep behaviour total.
    /// `false` when no member is left.
    fn draw(
        &mut self,
        controller: &mut AdmissionController,
        routes: Routes<'_>,
        links: &LinkStateTable,
        rng: &mut SimRng,
        tracer: &mut RequestTracer<'_>,
    ) -> bool {
        controller.weights(routes, links, &mut self.weights);
        tracer.note_weights(&self.weights);
        let pick = match rng.choose_weighted_masked(&self.weights, &self.untried) {
            Some(i) => i,
            None => {
                let mut remaining = (0..self.untried.len()).filter(|&i| self.untried[i]);
                match remaining.clone().count() {
                    0 => return false,
                    n => remaining.nth(rng.below(n)).expect("n untried members"),
                }
            }
        };
        self.pick = pick;
        self.tries += 1;
        true
    }

    /// A tracer for `request` at `now_secs` that continues this request's
    /// trail: for a driver that reaches the next transition at a later
    /// event. Hand it back with [`suspend`](Self::suspend).
    pub(crate) fn resume<'a>(
        &mut self,
        recorder: &'a mut dyn Recorder,
        now_secs: f64,
        request: u64,
    ) -> RequestTracer<'a> {
        RequestTracer::resume(recorder, now_secs, request, std::mem::take(&mut self.trail))
    }

    /// Keeps `tracer`'s trail until the request's next event.
    pub(crate) fn suspend(&mut self, tracer: RequestTracer<'_>) {
        self.trail = tracer.into_trail();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Ed, WdDb, WdDh};
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
        let mut links = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
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
        let mut links = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
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
        let mut links = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
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
        let mut links = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
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
        let mut links = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
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
        let mut links = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
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
        let mut links = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
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
    fn route_bandwidth_cache_matches_fresh_recompute() {
        // Churn the ledger with reservations, holds and faults; after every
        // mutation the cached controller must see exactly the weights a
        // cache-less (fresh) controller computes from scratch.
        let (topo, routes, dists) = fixture();
        let mut links = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
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
        let mut links = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
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
