//! Fault-injection integration tests — beyond the paper's fault-free
//! assumption (§3): the admission layer must degrade gracefully when
//! links die, and recover when they return.

use anycast::chaos::FaultPlan;
use anycast::dac::baselines::GlobalDynamicSystem;
use anycast::dac::online::{record_arrivals, OnlineEngine};
use anycast::net::Path;
use anycast::prelude::*;
use anycast::rsvp::{RefreshConfig, RefreshTracker, SessionId};
use anycast::sim::SimTime;
use anycast::telemetry::NullRecorder;
use std::collections::BTreeMap;

fn setup() -> (
    Topology,
    AnycastGroup,
    RouteTable,
    LinkStateTable,
    ReservationEngine,
    SimRng,
) {
    let topo = topologies::mci();
    let group = AnycastGroup::new("G", topologies::MCI_GROUP_MEMBERS.map(NodeId::new)).unwrap();
    let routes = RouteTable::shortest_paths(&topo, &group);
    let links = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::from_mbps(100), 0.2);
    (
        topo,
        group,
        routes,
        links,
        ReservationEngine::new(),
        SimRng::seed_from(4242),
    )
}

fn admit_release_batch(
    controller: &mut AdmissionController,
    routes: &[Path],
    links: &mut LinkStateTable,
    rsvp: &mut ReservationEngine,
    rng: &mut SimRng,
    n: usize,
) -> (f64, Vec<usize>) {
    let mut admitted = 0;
    let mut member_counts = vec![0usize; 5];
    for _ in 0..n {
        let out = controller.admit(routes, links, rsvp, Bandwidth::from_kbps(64), rng);
        if let Some(flow) = out.admitted {
            admitted += 1;
            member_counts[flow.member_index] += 1;
            rsvp.teardown(links, flow.session).unwrap();
        }
    }
    (admitted as f64 / n as f64, member_counts)
}

/// Failing one member's access route only dents availability briefly for
/// the history-driven policy, and traffic shifts to survivors; once the
/// link returns, the member's failure history keeps it out of rotation.
#[test]
fn wddh_steers_around_failed_link_and_recovers() {
    let (_topo, _group, routes, mut links, mut rsvp, _) = setup();
    // The exile phase below asserts one *realization* of a stochastic
    // process: with h failures accumulated, the restored member escapes
    // exile with probability ≈ 400·α^h per batch, which is small but not
    // negligible. The seed pins a stream (under the vendored RNG) where
    // the escape does not happen; see the α^h discussion below.
    let mut rng = SimRng::seed_from(177);
    let source = NodeId::new(5);
    let mut controller = AdmissionController::new(
        PolicySpec::wd_dh_default().build().unwrap(),
        RetrialPolicy::FixedLimit(2),
        routes.distances(source).expect("source is in the topology"),
    );
    let source_routes = routes.routes_from(source).unwrap();

    let (ap0, dist0) = admit_release_batch(
        &mut controller,
        source_routes,
        &mut links,
        &mut rsvp,
        &mut rng,
        400,
    );
    assert_eq!(ap0, 1.0);
    assert!(dist0.iter().all(|&c| c > 0), "all members used: {dist0:?}");

    // Kill the last hop toward the nearest member.
    let victim_member = routes.nearest_member(source).unwrap();
    let victim_link = *source_routes[victim_member].links().last().unwrap();
    links.fail_link(victim_link).unwrap();

    let (ap1, dist1) = admit_release_batch(
        &mut controller,
        source_routes,
        &mut links,
        &mut rsvp,
        &mut rng,
        400,
    );
    assert_eq!(
        dist1[victim_member], 0,
        "no flow can complete toward the failed member"
    );
    assert!(
        ap1 > 0.95,
        "history + one retry must absorb a single member failure, got {ap1}"
    );

    // Restore the link. This documents a *real limitation* of the paper's
    // WD/D+H as specified: h_i only resets on a successful reservation,
    // and a member with a large h_i is almost never selected, so it can
    // never earn that success — a long outage exiles the member
    // permanently (α^h underflows). The paper never hits this because its
    // experiments are fault-free and h_i stays small.
    links.restore_link(victim_link).unwrap();
    let h_after_outage = controller.history().entries()[victim_member];
    assert!(
        h_after_outage >= 5,
        "outage must have accumulated consecutive failures, got {h_after_outage}"
    );
    let (ap2, dist2) = admit_release_batch(
        &mut controller,
        source_routes,
        &mut links,
        &mut rsvp,
        &mut rng,
        400,
    );
    assert_eq!(ap2, 1.0, "other members still carry everything");
    assert_eq!(
        dist2[victim_member], 0,
        "exile: α^h ≈ 0 keeps the restored member out of rotation"
    );
}

/// GDI sees through fixed routes entirely: a failed link on the shortest
/// path does not cost the oracle a single admission while alternative
/// paths exist.
#[test]
fn gdi_is_immune_to_single_link_failure() {
    let (topo, group, routes, mut links, mut rsvp, _) = setup();
    let source = NodeId::new(17);
    let victim = *routes.routes_from(source).unwrap()[routes.nearest_member(source).unwrap()]
        .links()
        .first()
        .unwrap();
    links.fail_link(victim).unwrap();
    let mut gdi = GlobalDynamicSystem::new();
    for _ in 0..200 {
        let out = gdi.admit(
            &topo,
            &group,
            source,
            &mut links,
            &mut rsvp,
            Bandwidth::from_kbps(64),
        );
        let flow = out.admitted.expect("oracle routes around one dead link");
        rsvp.teardown(&mut links, flow.session).unwrap();
    }
}

/// Soft state cleans up after a crashed source: reservations that stop
/// being refreshed expire and return their bandwidth.
#[test]
fn soft_state_reclaims_orphaned_reservations() {
    let (_topo, _group, routes, mut links, mut rsvp, _) = setup();
    let route = &routes.routes_from(NodeId::new(3)).unwrap()[2]; // member 8
    let mut tracker = RefreshTracker::new(RefreshConfig::rsvp_default());

    // Three flows; their source crashes at t = 100 (stops refreshing).
    let mut sessions = Vec::new();
    for i in 0..3 {
        let out = rsvp
            .probe_and_reserve(&mut links, route, Bandwidth::from_kbps(64))
            .unwrap();
        tracker.register(out.session, i as f64 * 10.0);
        sessions.push(out.session);
    }
    // `audit` is the column scan; it also vouches for `total_reserved`.
    let reserved_before = links.audit().unwrap().reserved_bps;
    assert_eq!(reserved_before, 3 * 64_000 * route.hops() as u64);

    // Refresh until the crash...
    for t in [30.0, 60.0, 90.0] {
        for &s in &sessions {
            tracker.refresh(s, t).unwrap();
        }
    }
    // ... then silence. Sweep at crash + lifetime: everything expires.
    let expired =
        tracker.collect_expired(90.0 + RefreshConfig::rsvp_default().lifetime_secs() + 1.0);
    assert_eq!(expired.len(), 3);
    for s in expired {
        rsvp.teardown(&mut links, s).unwrap();
    }
    assert_eq!(links.audit().unwrap().reserved_bps, 0);
    assert_eq!(links.total_reserved(), Bandwidth::ZERO);
    assert_eq!(rsvp.active_sessions(), 0);
}

/// A partitioned member (all incident links failed) is simply never
/// admitted to, while the rest of the group carries on.
#[test]
fn partitioned_member_is_isolated_not_fatal() {
    let (topo, group, routes, mut links, mut rsvp, mut rng) = setup();
    // Partition member node 12 completely.
    let victim = NodeId::new(12);
    for &(_, link) in topo.neighbors(victim) {
        links.fail_link(link).unwrap();
    }
    let victim_index = group.members().iter().position(|&m| m == victim).unwrap();
    let source = NodeId::new(1);
    let mut controller = AdmissionController::new(
        PolicySpec::WdDb.build().unwrap(),
        RetrialPolicy::FixedLimit(5),
        routes.distances(source).expect("source is in the topology"),
    );
    let (ap, dist) = admit_release_batch(
        &mut controller,
        routes.routes_from(source).unwrap(),
        &mut links,
        &mut rsvp,
        &mut rng,
        300,
    );
    assert_eq!(dist[victim_index], 0);
    // WD/D+B sees B_victim = 0 instantly, so admission stays near perfect
    // unless other routes shared the failed links.
    assert!(ap > 0.9, "AP {ap} with one partitioned member");
}

/// Wire teardowns race link faults and a lossy, slow control plane: every
/// third admitted flow is torn down over the wire halfway through its
/// holding time, while links fail under it and one PATH_TEAR in five is
/// lost and the rest land after an exponential delay. A teardown can only
/// find nothing when a fault killed the flow first; every other one
/// releases, orphans or delays the reservation, and nothing leaks.
#[test]
fn wire_teardowns_race_link_faults_and_lossy_delayed_path_tears() {
    let topo = topologies::mci();
    let mut plan = FaultPlan::none().with_link_model(300.0, 30.0);
    plan.control.teardown_loss_probability = 0.2;
    plan.control.teardown_delay_secs = 2.0;
    let config = ExperimentConfig::paper_defaults(30.0, SystemSpec::dac(PolicySpec::WdDb, 2))
        .with_warmup_secs(100.0)
        .with_measure_secs(900.0)
        .with_seed(23)
        .with_faults(plan);
    let trace = record_arrivals(&config);
    let horizon = config.warmup_secs + config.measure_secs;
    let mut engine = OnlineEngine::new(&topo, &config, NullRecorder);

    // Wire teardowns still to send, keyed by (instant bits, request): a
    // non-negative f64's bits order as its value.
    let mut due: BTreeMap<(u64, u64), SessionId> = BTreeMap::new();
    let mut results = Vec::new();
    let mut decisions = Vec::new();
    let mut admitted = 0u64;
    let mut tear_down_until = |engine: &mut OnlineEngine<NullRecorder>,
                               due: &mut BTreeMap<(u64, u64), SessionId>,
                               until: f64| {
        while let Some(entry) = due.first_entry() {
            let at = f64::from_bits(entry.key().0);
            if at > until {
                break;
            }
            let session = entry.remove();
            engine.advance_to(SimTime::from_secs(at), &mut Vec::new());
            results.push(engine.teardown(session));
        }
    };
    for arrival in &trace {
        tear_down_until(&mut engine, &mut due, arrival.at_secs);
        engine.submit(*arrival);
        engine.advance_to(SimTime::from_secs(arrival.at_secs), &mut decisions);
        for d in decisions.drain(..) {
            let Some(session) = d.session else { continue };
            admitted += 1;
            if admitted.is_multiple_of(3) {
                let holding = trace[d.request as usize].holding_secs;
                due.insert(((d.at_secs + holding / 2.0).to_bits(), d.request), session);
            }
        }
    }
    tear_down_until(&mut engine, &mut due, horizon);
    let (metrics, _, _) = engine.finish();

    assert_eq!(metrics.leaked_bandwidth_bps, 0);
    // Each session is torn down once, before its holding time ends: a
    // `false` is a flow a link fault killed first.
    assert!(
        results.contains(&false),
        "no wire teardown met a fault kill"
    );
    let digest = results.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &ok| {
        (h ^ u64::from(ok)).wrapping_mul(0x0100_0000_01b3)
    });
    let refused = results.iter().filter(|&&ok| !ok).count();
    assert_eq!(
        (results.len(), refused, digest),
        (8_775, 2_979, 0x7c8f_3418_5ab4_66a3)
    );
    assert_eq!(
        (
            metrics.flows_killed_by_failure,
            metrics.orphaned_reservations,
            metrics.orphans_reclaimed
        ),
        (12_610, 2_830, 2_684)
    );
}
