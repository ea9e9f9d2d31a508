//! Fault-injection integration tests — beyond the paper's fault-free
//! assumption (§3): the admission layer must degrade gracefully when
//! links die, and recover when they return.

use anycast::dac::baselines::GlobalDynamicSystem;
use anycast::net::Path;
use anycast::prelude::*;
use anycast::rsvp::{RefreshConfig, RefreshTracker};

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
