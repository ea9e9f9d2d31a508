//! The reservation engine: PATH/RESV walks over the link ledger.

use crate::{MessageKind, MessageLedger, Reservation, SessionId, SessionMap};
use anycast_net::{Bandwidth, LinkId, LinkStateTable, Path};
use std::error::Error;
use std::fmt;

/// Why a reservation attempt failed: the PATH walk hit a link without
/// enough available bandwidth.
///
/// The failing link's position feeds the message accounting (the probe and
/// its error notification only crossed `hop_index + 1` links), and the
/// available bandwidth at the bottleneck is what a smarter AC-router could
/// learn from the error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeError {
    /// The first link (in source→destination order) lacking bandwidth.
    pub failed_link: LinkId,
    /// Zero-based index of that link along the route.
    pub hop_index: usize,
    /// Bandwidth available on the bottleneck when the probe crossed it.
    pub available: Bandwidth,
}

impl fmt::Display for ProbeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reservation blocked at {} (hop {}), only {} available",
            self.failed_link, self.hop_index, self.available
        )
    }
}

impl Error for ProbeError {}

/// Successful reservation: the session handle plus the RESV feedback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReservationOutcome {
    /// Handle to release the reservation when the flow ends.
    pub session: SessionId,
    /// Minimum available bandwidth observed along the route *before* this
    /// flow's reservation — the `B_i` the paper's extended RESV message
    /// would carry back to the AC-router for WD/D+B.
    pub route_bandwidth: Bandwidth,
}

/// Errors from releasing a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TeardownError {
    /// The session id was never issued or has already been torn down.
    UnknownSession(SessionId),
}

impl fmt::Display for TeardownError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TeardownError::UnknownSession(s) => write!(f, "unknown session {s}"),
        }
    }
}

impl Error for TeardownError {}

/// The RSVP-style reservation engine of §4.4.
///
/// `probe_and_reserve` performs the availability check (Task 1) as a PATH
/// walk from the source toward the destination — one PATH message per link
/// crossed, stopping at the first bottleneck — followed, on success, by a
/// RESV walk back that reserves every link atomically (Task 2). On failure
/// a RESV_ERR retraces the probed hops to notify the AC-router, which may
/// then retry another destination (§4.5).
///
/// All signaling is tallied in a [`MessageLedger`] so experiments can
/// report overhead in messages rather than abstract retrial counts.
#[derive(Debug, Default)]
pub struct ReservationEngine {
    next_id: u64,
    active: SessionMap<Reservation>,
    ledger: MessageLedger,
}

impl ReservationEngine {
    /// Creates an engine with no active sessions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attempts to admit a flow of `bw` along `route`.
    ///
    /// On success every link of the route has `bw` reserved and a session
    /// is recorded; on failure the ledger is untouched (all-or-nothing).
    /// Trivial routes (source = destination) succeed without signaling.
    ///
    /// # Errors
    ///
    /// [`ProbeError`] naming the first bottleneck link.
    pub fn probe_and_reserve(
        &mut self,
        links: &mut LinkStateTable,
        route: &Path,
        bw: Bandwidth,
    ) -> Result<ReservationOutcome, ProbeError> {
        let hops = route.hops() as u64;
        // PATH walk: check hop by hop, stop at the first bottleneck.
        let mut route_bandwidth = Bandwidth::from_bps(u64::MAX);
        for (idx, link) in route.links().iter().enumerate() {
            let available = links.available(*link);
            self.ledger.record(MessageKind::Path, 1);
            if available < bw {
                // Error notification retraces the probed prefix.
                self.ledger.record(MessageKind::ResvErr, idx as u64 + 1);
                return Err(ProbeError {
                    failed_link: *link,
                    hop_index: idx,
                    available,
                });
            }
            route_bandwidth = route_bandwidth.min(available);
        }
        // RESV walk: reserve every link (atomic in the simulated world —
        // the PATH walk just verified availability and the DES admits no
        // interleaving between the two walks).
        links
            .reserve_path(route, bw)
            .expect("PATH walk verified availability on every link");
        self.ledger.record(MessageKind::Resv, hops);
        let session = SessionId::new(self.next_id);
        self.next_id += 1;
        self.active
            .insert(session, Reservation::new(route.clone(), bw));
        Ok(ReservationOutcome {
            session,
            route_bandwidth,
        })
    }

    /// Releases an admitted flow's reservations (PATH_TEAR walk).
    ///
    /// # Errors
    ///
    /// [`TeardownError::UnknownSession`] for unknown or double teardowns.
    pub fn teardown(
        &mut self,
        links: &mut LinkStateTable,
        session: SessionId,
    ) -> Result<Reservation, TeardownError> {
        let reservation = self
            .active
            .remove(session)
            .ok_or(TeardownError::UnknownSession(session))?;
        links
            .release_path(reservation.path(), reservation.bandwidth())
            .expect("active sessions hold consistent reservations");
        self.ledger
            .record(MessageKind::PathTear, reservation.path().hops() as u64);
        Ok(reservation)
    }

    /// Number of currently active sessions.
    pub fn active_sessions(&self) -> usize {
        self.active.len()
    }

    /// Looks up an active session's reservation.
    pub fn reservation(&self, session: SessionId) -> Option<&Reservation> {
        self.active.get(session)
    }

    /// Iterates over all active sessions in unspecified order. Callers
    /// that need determinism (e.g. the fault injector tearing down the
    /// victims of a link failure) should sort the collected ids.
    pub fn sessions(&self) -> impl Iterator<Item = (SessionId, &Reservation)> {
        self.active.iter()
    }

    /// Active sessions whose route crosses `link`, ascending by id.
    /// These are the flows a failure of `link` severs.
    pub fn sessions_using_link(&self, link: LinkId) -> Vec<SessionId> {
        let mut ids: Vec<SessionId> = self
            .active
            .iter()
            .filter(|(_, r)| r.path().uses_link(link))
            .map(|(s, _)| s)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Active sessions whose route visits `node` (as source, transit hop
    /// or destination), ascending by id. These are the flows a crash of
    /// `node` severs.
    pub fn sessions_through_node(&self, node: anycast_net::NodeId) -> Vec<SessionId> {
        let mut ids: Vec<SessionId> = self
            .active
            .iter()
            .filter(|(_, r)| r.path().nodes().contains(&node))
            .map(|(s, _)| s)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// The signaling message tally so far.
    pub fn ledger(&self) -> &MessageLedger {
        &self.ledger
    }

    /// Mutable ledger access for the two-phase machinery, which counts
    /// messages one crossing at a time instead of one walk at a time.
    pub(crate) fn ledger_mut(&mut self) -> &mut MessageLedger {
        &mut self.ledger
    }

    /// Installs a session whose per-link bandwidth was already committed
    /// hop by hop (two-phase RESV commit). The link ledger is untouched —
    /// the caller moved each hop's pending hold into the reserved column.
    pub(crate) fn install_committed(&mut self, route: Path, bw: Bandwidth) -> SessionId {
        let session = SessionId::new(self.next_id);
        self.next_id += 1;
        self.active.insert(session, Reservation::new(route, bw));
        session
    }

    /// Resets the message tally (sessions are unaffected).
    pub fn reset_ledger(&mut self) {
        self.ledger.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anycast_net::routing::shortest_path;
    use anycast_net::{NodeId, Topology, TopologyBuilder};

    fn line4() -> (Topology, LinkStateTable, Path) {
        let mut b = TopologyBuilder::new(4);
        b.links_uniform([(0, 1), (1, 2), (2, 3)], Bandwidth::from_mbps(1))
            .unwrap();
        let topo = b.build();
        let links = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        let path = shortest_path(&topo, NodeId::new(0), NodeId::new(3)).unwrap();
        (topo, links, path)
    }

    #[test]
    fn successful_reservation_counts_path_and_resv() {
        let (_t, mut links, path) = line4();
        let mut engine = ReservationEngine::new();
        let out = engine
            .probe_and_reserve(&mut links, &path, Bandwidth::from_kbps(64))
            .unwrap();
        assert_eq!(engine.ledger().count(MessageKind::Path), 3);
        assert_eq!(engine.ledger().count(MessageKind::Resv), 3);
        assert_eq!(engine.ledger().count(MessageKind::ResvErr), 0);
        assert_eq!(engine.active_sessions(), 1);
        assert_eq!(out.route_bandwidth, Bandwidth::from_mbps(1));
        assert!(engine.reservation(out.session).is_some());
    }

    #[test]
    fn failure_counts_partial_walk() {
        let (_t, mut links, path) = line4();
        // Saturate the middle link (hop index 1).
        links
            .reserve(path.links()[1], Bandwidth::from_mbps(1))
            .unwrap();
        let mut engine = ReservationEngine::new();
        let err = engine
            .probe_and_reserve(&mut links, &path, Bandwidth::from_kbps(64))
            .unwrap_err();
        assert_eq!(err.hop_index, 1);
        assert_eq!(err.failed_link, path.links()[1]);
        assert_eq!(err.available, Bandwidth::ZERO);
        // PATH crossed 2 links, RESV_ERR retraced them.
        assert_eq!(engine.ledger().count(MessageKind::Path), 2);
        assert_eq!(engine.ledger().count(MessageKind::ResvErr), 2);
        assert_eq!(engine.ledger().count(MessageKind::Resv), 0);
        assert_eq!(engine.active_sessions(), 0);
        // First link untouched (all-or-nothing).
        assert_eq!(links.available(path.links()[0]), Bandwidth::from_mbps(1));
    }

    #[test]
    fn teardown_releases_and_counts() {
        let (_t, mut links, path) = line4();
        let mut engine = ReservationEngine::new();
        let out = engine
            .probe_and_reserve(&mut links, &path, Bandwidth::from_kbps(64))
            .unwrap();
        let res = engine.teardown(&mut links, out.session).unwrap();
        assert_eq!(res.bandwidth(), Bandwidth::from_kbps(64));
        assert_eq!(engine.ledger().count(MessageKind::PathTear), 3);
        assert_eq!(engine.active_sessions(), 0);
        for l in path.links() {
            assert_eq!(links.available(*l), Bandwidth::from_mbps(1));
        }
        // Double teardown fails.
        assert_eq!(
            engine.teardown(&mut links, out.session).unwrap_err(),
            TeardownError::UnknownSession(out.session)
        );
    }

    #[test]
    fn trivial_route_needs_no_signaling() {
        let (_t, mut links, _) = line4();
        let mut engine = ReservationEngine::new();
        let p = Path::trivial(NodeId::new(1));
        let out = engine
            .probe_and_reserve(&mut links, &p, Bandwidth::from_mbps(999))
            .unwrap();
        assert_eq!(engine.ledger().total(), 0);
        assert_eq!(out.route_bandwidth, Bandwidth::from_bps(u64::MAX));
        engine.teardown(&mut links, out.session).unwrap();
        assert_eq!(engine.ledger().total(), 0);
    }

    #[test]
    fn sessions_have_unique_ids() {
        let (_t, mut links, path) = line4();
        let mut engine = ReservationEngine::new();
        let a = engine
            .probe_and_reserve(&mut links, &path, Bandwidth::from_kbps(64))
            .unwrap();
        let b = engine
            .probe_and_reserve(&mut links, &path, Bandwidth::from_kbps(64))
            .unwrap();
        assert_ne!(a.session, b.session);
        assert_eq!(engine.active_sessions(), 2);
    }

    #[test]
    fn route_bandwidth_reflects_load() {
        let (_t, mut links, path) = line4();
        let mut engine = ReservationEngine::new();
        engine
            .probe_and_reserve(&mut links, &path, Bandwidth::from_kbps(300))
            .unwrap();
        let measured = links.min_available_on(&path);
        assert_eq!(measured, Bandwidth::from_bps(700_000));
        let out = engine
            .probe_and_reserve(&mut links, &path, Bandwidth::from_kbps(64))
            .unwrap();
        assert_eq!(out.route_bandwidth, Bandwidth::from_bps(700_000));
    }

    #[test]
    fn reset_ledger_keeps_sessions() {
        let (_t, mut links, path) = line4();
        let mut engine = ReservationEngine::new();
        engine
            .probe_and_reserve(&mut links, &path, Bandwidth::from_kbps(64))
            .unwrap();
        engine.reset_ledger();
        assert_eq!(engine.ledger().total(), 0);
        assert_eq!(engine.active_sessions(), 1);
    }

    #[test]
    fn session_queries_find_victims_of_a_fault() {
        let (_t, mut links, path) = line4();
        let mut engine = ReservationEngine::new();
        // Two flows over 0→3 and one trivial flow at node 1.
        let a = engine
            .probe_and_reserve(&mut links, &path, Bandwidth::from_kbps(64))
            .unwrap();
        let b = engine
            .probe_and_reserve(&mut links, &path, Bandwidth::from_kbps(64))
            .unwrap();
        let c = engine
            .probe_and_reserve(&mut links, &Path::trivial(NodeId::new(1)), Bandwidth::ZERO)
            .unwrap();
        assert_eq!(
            engine.sessions_using_link(path.links()[1]),
            vec![a.session, b.session]
        );
        assert_eq!(
            engine.sessions_through_node(NodeId::new(1)),
            vec![a.session, b.session, c.session]
        );
        assert_eq!(engine.sessions_through_node(NodeId::new(3)).len(), 2);
        assert_eq!(engine.sessions().count(), 3);
        engine.teardown(&mut links, a.session).unwrap();
        assert_eq!(engine.sessions_using_link(path.links()[1]), vec![b.session]);
    }

    #[test]
    fn errors_display() {
        let e = ProbeError {
            failed_link: LinkId::new(2),
            hop_index: 1,
            available: Bandwidth::from_kbps(3),
        };
        assert!(e.to_string().contains("l2"));
        assert!(TeardownError::UnknownSession(SessionId::new(4))
            .to_string()
            .contains("s4"));
    }
}
