//! Latency-aware two-phase signalling: per-hop holds between PATH and RESV.
//!
//! [`ReservationEngine::probe_and_reserve`] collapses the PATH/RESV
//! exchange of §4.4 into one atomic instant — admission never acts on
//! stale state and concurrent setups never race. This module is the
//! honest version: a [`SetupTable`] tracks in-flight setup attempts whose
//! PATH messages cross one link at a time, placing **pending holds**
//! ([`LinkStateTable::place_hold`]) that count against availability
//! without being confirmed reservations. A RESV retraces the route and
//! commits every hold into a real session at the source
//! ([`SetupTable::complete`]); a RESV_ERR or a timeout releases them.
//!
//! The table is deliberately clockless and queue-less: the owning
//! simulation decides *when* each crossing happens (scheduling per-hop
//! message events, drawing losses and delays, arming hold-expiry timers)
//! and calls one transition per crossing. That keeps every transition
//! deterministic and unit-testable. An exchange with no delay and no loss
//! is the atomic one, so a zero-delay caller uses
//! [`ReservationEngine::probe_and_reserve`] and never builds a table.
//!
//! Leak-freedom invariant: every hold placed by a transition is released
//! by exactly one of [`resv_err_step`](SetupTable::resv_err_step),
//! [`expire_hold`](SetupTable::expire_hold),
//! [`complete`](SetupTable::complete) (which converts it into a
//! reservation) or [`drain`](SetupTable::drain). A setup whose source has
//! given up ([`abandon`](SetupTable::abandon)) stays in the table, dead,
//! until its remaining holds expire — remote routers do not learn of the
//! source's timeout, so their holds die on their own timers.

use crate::{MessageKind, ProbeError, ReservationEngine, ReservationOutcome};
use anycast_net::{Bandwidth, LinkId, LinkStateTable, Path};
use std::collections::HashMap;
use std::fmt;

/// Identifier of one in-flight setup attempt. Unlike a
/// [`SessionId`](crate::SessionId), a `SetupId` names an *attempt*:
/// retransmissions of the same request get fresh ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SetupId(u64);

impl SetupId {
    /// The raw attempt number (monotone per table).
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SetupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Outcome of one PATH crossing ([`SetupTable::path_step`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathStep {
    /// A hold was placed on `link`. When `reached_destination` is true the
    /// PATH walk is finished and the destination answers with a RESV.
    Held {
        /// The link the hold was placed on.
        link: LinkId,
        /// Whether this was the last hop of the route.
        reached_destination: bool,
    },
    /// The link lacked bandwidth: no hold was placed and a RESV_ERR should
    /// retrace hops `hop..=0` via [`SetupTable::resv_err_step`].
    Blocked(ProbeError),
}

#[derive(Debug, Clone)]
struct SetupState {
    route: Path,
    bw: Bandwidth,
    started_at: f64,
    /// Per-hop: whether a pending hold is currently placed on that link.
    holds: Vec<bool>,
    outstanding: usize,
    /// Minimum availability observed by the PATH walk *before* each own
    /// hold — the `B_i` feedback the RESV carries back.
    route_bandwidth: Bandwidth,
    blocked: Option<ProbeError>,
    /// The source gave up (timeout) or finished; in-flight state only
    /// lingers until the remaining holds drain.
    dead: bool,
}

/// The in-flight setup attempts of a two-phase signalling run.
#[derive(Debug, Default)]
pub struct SetupTable {
    next: u64,
    active: HashMap<SetupId, SetupState>,
}

impl SetupTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a setup attempt for `bw` along `route` at simulated time
    /// `now`. The caller then drives the PATH walk hop by hop.
    pub fn begin(&mut self, route: Path, bw: Bandwidth, now: f64) -> SetupId {
        let id = SetupId(self.next);
        self.next += 1;
        let hops = route.hops();
        self.active.insert(
            id,
            SetupState {
                route,
                bw,
                started_at: now,
                holds: vec![false; hops],
                outstanding: 0,
                route_bandwidth: Bandwidth::from_bps(u64::MAX),
                blocked: None,
                dead: false,
            },
        );
        id
    }

    /// Whether `id` is known and its source is still waiting on it.
    pub fn is_live(&self, id: SetupId) -> bool {
        self.active.get(&id).is_some_and(|s| !s.dead)
    }

    /// Whether `id` still has state in the table (live or draining).
    pub fn contains(&self, id: SetupId) -> bool {
        self.active.contains_key(&id)
    }

    /// Number of setups with state in the table.
    pub fn in_flight(&self) -> usize {
        self.active.len()
    }

    /// Hop count of the setup's route.
    pub fn hops(&self, id: SetupId) -> Option<usize> {
        self.active.get(&id).map(|s| s.route.hops())
    }

    /// The bandwidth the setup is reserving.
    pub fn bandwidth(&self, id: SetupId) -> Option<Bandwidth> {
        self.active.get(&id).map(|s| s.bw)
    }

    /// The simulated time the attempt started at.
    pub fn started_at(&self, id: SetupId) -> Option<f64> {
        self.active.get(&id).map(|s| s.started_at)
    }

    /// The bottleneck the PATH walk hit, once blocked.
    pub fn blocked_error(&self, id: SetupId) -> Option<ProbeError> {
        self.active.get(&id).and_then(|s| s.blocked)
    }

    /// The link the setup's route crosses at `hop`.
    pub fn link_at(&self, id: SetupId, hop: usize) -> Option<LinkId> {
        self.active
            .get(&id)
            .and_then(|s| s.route.links().get(hop).copied())
    }

    /// PATH attempts to cross link `hop`: counts one Path message, checks
    /// availability and places a hold. Returns `None` when the setup is no
    /// longer in the table (its state was reaped — the message is dropped).
    ///
    /// # Panics
    ///
    /// Panics if `hop` is out of range or already holds.
    pub fn path_step(
        &mut self,
        engine: &mut ReservationEngine,
        links: &mut LinkStateTable,
        id: SetupId,
        hop: usize,
    ) -> Option<PathStep> {
        let state = self.active.get_mut(&id)?;
        assert!(!state.holds[hop], "PATH must not cross a hop twice");
        let link = state.route.links()[hop];
        engine.ledger_mut().record(MessageKind::Path, 1);
        let available = links.available(link);
        if available < state.bw {
            let err = ProbeError {
                failed_link: link,
                hop_index: hop,
                available,
            };
            state.blocked = Some(err);
            return Some(PathStep::Blocked(err));
        }
        links
            .place_hold(link, state.bw)
            .expect("availability checked above");
        state.holds[hop] = true;
        state.outstanding += 1;
        state.route_bandwidth = state.route_bandwidth.min(available);
        Some(PathStep::Held {
            link,
            reached_destination: hop + 1 == state.route.hops(),
        })
    }

    /// RESV_ERR crosses link `hop` on its way back to the source: counts
    /// one ResvErr message and releases the hold at that hop, if one is
    /// still placed. Returns the released link (`Some(None)` = crossed but
    /// nothing to release, outer `None` = setup reaped, message dropped).
    pub fn resv_err_step(
        &mut self,
        engine: &mut ReservationEngine,
        links: &mut LinkStateTable,
        id: SetupId,
        hop: usize,
    ) -> Option<Option<LinkId>> {
        let state = self.active.get_mut(&id)?;
        engine.ledger_mut().record(MessageKind::ResvErr, 1);
        let released = if state.holds[hop] {
            let link = state.route.links()[hop];
            links
                .release_hold(link, state.bw)
                .expect("hold was placed by path_step");
            state.holds[hop] = false;
            state.outstanding -= 1;
            Some(link)
        } else {
            None
        };
        self.reap(id);
        Some(released)
    }

    /// RESV crosses one link on its way back to the source: counts one
    /// Resv message. Holds are committed only when the RESV reaches the
    /// source ([`complete`](Self::complete)), so a RESV lost mid-route
    /// leaves nothing half-reserved — the unconfirmed holds just expire.
    /// Returns whether the setup still had state (else the message drops).
    pub fn resv_step(&mut self, engine: &mut ReservationEngine, id: SetupId) -> bool {
        if !self.active.contains_key(&id) {
            return false;
        }
        engine.ledger_mut().record(MessageKind::Resv, 1);
        true
    }

    /// The RESV reached the source: commits every hold into a confirmed
    /// reservation and installs the session. Returns `None` when the setup
    /// is dead/reaped or a hold expired mid-setup (in which case the
    /// survivors are released and the attempt fails cleanly).
    pub fn complete(
        &mut self,
        engine: &mut ReservationEngine,
        links: &mut LinkStateTable,
        id: SetupId,
    ) -> Option<ReservationOutcome> {
        let intact = match self.active.get(&id) {
            Some(state) if !state.dead => state.outstanding == state.route.hops(),
            _ => return None,
        };
        let mut state = self.active.remove(&id).expect("checked above");
        if !intact {
            // A hold expired while the RESV was in flight (timeout shorter
            // than the round trip): the setup fails; free the survivors.
            release_outstanding(&mut state, links);
            return None;
        }
        for link in state.route.links() {
            links
                .commit_hold(*link, state.bw)
                .expect("every hop holds; commit cannot fail");
        }
        let session = engine.install_committed(state.route, state.bw);
        Some(ReservationOutcome {
            session,
            route_bandwidth: state.route_bandwidth,
        })
    }

    /// A hold-expiry timer fired: releases the hold at `hop` if it is
    /// still placed, returning the freed link.
    pub fn expire_hold(
        &mut self,
        links: &mut LinkStateTable,
        id: SetupId,
        hop: usize,
    ) -> Option<LinkId> {
        let state = self.active.get_mut(&id)?;
        if !state.holds[hop] {
            return None;
        }
        let link = state.route.links()[hop];
        links
            .release_hold(link, state.bw)
            .expect("hold was placed by path_step");
        state.holds[hop] = false;
        state.outstanding -= 1;
        self.reap(id);
        Some(link)
    }

    /// The source gives up on the attempt (setup timeout or refusal
    /// received). Remote holds are *not* released here — the routers
    /// holding them never hear of the source's decision; their holds
    /// expire on their own timers. Returns the number of holds still
    /// outstanding (0 means the state was reaped immediately).
    pub fn abandon(&mut self, id: SetupId) -> usize {
        let Some(state) = self.active.get_mut(&id) else {
            return 0;
        };
        state.dead = true;
        let outstanding = state.outstanding;
        self.reap(id);
        outstanding
    }

    /// End-of-run drain: releases every outstanding hold and clears the
    /// table, returning `(holds_released, bandwidth_released)`. After this
    /// the ledger's [`LinkStateTable::total_pending`] must be zero — the
    /// leak-freedom invariant.
    pub fn drain(&mut self, links: &mut LinkStateTable) -> (usize, Bandwidth) {
        let mut ids: Vec<SetupId> = self.active.keys().copied().collect();
        ids.sort_unstable();
        let mut released = 0usize;
        let mut bw_total = Bandwidth::ZERO;
        for id in ids {
            let mut state = self.active.remove(&id).expect("key just listed");
            let n = release_outstanding(&mut state, links);
            released += n;
            bw_total += state.bw.scaled(n as f64);
        }
        (released, bw_total)
    }
}

/// Releases every hold a state still carries; returns how many.
fn release_outstanding(state: &mut SetupState, links: &mut LinkStateTable) -> usize {
    let mut n = 0;
    for (hop, held) in state.holds.iter_mut().enumerate() {
        if *held {
            links
                .release_hold(state.route.links()[hop], state.bw)
                .expect("hold was placed by path_step");
            *held = false;
            n += 1;
        }
    }
    state.outstanding = 0;
    n
}

impl SetupTable {
    fn reap(&mut self, id: SetupId) {
        if let Some(state) = self.active.get(&id) {
            if state.dead && state.outstanding == 0 {
                self.active.remove(&id);
            }
        }
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
        let links = LinkStateTable::from_topology(&topo);
        let path = shortest_path(&topo, NodeId::new(0), NodeId::new(3)).unwrap();
        (topo, links, path)
    }

    /// The hold column's total by the ledger's full scan; `audit` also
    /// checks the O(1) `total_pending` against it.
    fn pending(links: &LinkStateTable) -> Bandwidth {
        Bandwidth::from_bps(links.audit().unwrap().pending_bps)
    }

    /// As [`pending`], for the reservation column.
    fn reserved(links: &LinkStateTable) -> Bandwidth {
        Bandwidth::from_bps(links.audit().unwrap().reserved_bps)
    }

    #[test]
    fn holds_race_between_overlapping_setups() {
        let (_t, mut links, path) = line4();
        let mut engine = ReservationEngine::new();
        let mut table = SetupTable::new();
        let bw = Bandwidth::from_kbps(600);
        let first = table.begin(path.clone(), bw, 0.0);
        let second = table.begin(path.clone(), bw, 0.1);
        assert!(matches!(
            table.path_step(&mut engine, &mut links, first, 0),
            Some(PathStep::Held { .. })
        ));
        // The second setup sees the first one's hold and is refused, even
        // though nothing is *reserved* yet.
        match table.path_step(&mut engine, &mut links, second, 0) {
            Some(PathStep::Blocked(err)) => {
                assert_eq!(err.hop_index, 0);
                assert_eq!(err.available, Bandwidth::from_kbps(400));
            }
            other => panic!("expected a block, got {other:?}"),
        }
        assert_eq!(table.blocked_error(second).unwrap().hop_index, 0);
    }

    #[test]
    fn abandon_keeps_holds_until_expiry_then_reaps() {
        let (_t, mut links, path) = line4();
        let mut engine = ReservationEngine::new();
        let mut table = SetupTable::new();
        let bw = Bandwidth::from_kbps(64);
        let id = table.begin(path.clone(), bw, 0.0);
        table.path_step(&mut engine, &mut links, id, 0);
        table.path_step(&mut engine, &mut links, id, 1);
        assert_eq!(pending(&links), Bandwidth::from_bps(128_000));
        // Source times out: holds survive (remote routers don't know).
        assert_eq!(table.abandon(id), 2);
        assert!(table.contains(id));
        assert!(!table.is_live(id));
        assert_eq!(pending(&links), Bandwidth::from_bps(128_000));
        // Hold timers fire one by one.
        assert_eq!(table.expire_hold(&mut links, id, 0), Some(path.links()[0]));
        assert!(table.contains(id), "state lingers while holds remain");
        assert_eq!(table.expire_hold(&mut links, id, 1), Some(path.links()[1]));
        assert!(!table.contains(id), "reaped once the last hold drains");
        assert_eq!(pending(&links), Bandwidth::ZERO);
        // Late messages for the reaped setup are dropped.
        assert!(table.path_step(&mut engine, &mut links, id, 2).is_none());
        assert!(!table.resv_step(&mut engine, id));
    }

    #[test]
    fn lost_resv_leaves_no_partial_reservation() {
        let (_t, mut links, path) = line4();
        let mut engine = ReservationEngine::new();
        let mut table = SetupTable::new();
        let bw = Bandwidth::from_kbps(64);
        let id = table.begin(path.clone(), bw, 0.0);
        for hop in 0..3 {
            table.path_step(&mut engine, &mut links, id, hop);
        }
        // RESV crosses one hop then is lost; nothing was committed.
        assert!(table.resv_step(&mut engine, id));
        assert_eq!(reserved(&links), Bandwidth::ZERO);
        assert_eq!(engine.active_sessions(), 0);
        // Source timeout, then the hold timers fire; all bandwidth returns.
        table.abandon(id);
        for hop in 0..3 {
            table.expire_hold(&mut links, id, hop);
        }
        assert_eq!(pending(&links), Bandwidth::ZERO);
        assert_eq!(reserved(&links), Bandwidth::ZERO);
    }

    #[test]
    fn complete_after_mid_setup_expiry_fails_cleanly() {
        let (_t, mut links, path) = line4();
        let mut engine = ReservationEngine::new();
        let mut table = SetupTable::new();
        let bw = Bandwidth::from_kbps(64);
        let id = table.begin(path.clone(), bw, 0.0);
        for hop in 0..3 {
            table.path_step(&mut engine, &mut links, id, hop);
        }
        // One hold expires while the RESV is still in flight.
        table.expire_hold(&mut links, id, 1);
        assert!(table.complete(&mut engine, &mut links, id).is_none());
        assert_eq!(engine.active_sessions(), 0);
        assert_eq!(pending(&links), Bandwidth::ZERO, "survivors freed");
        assert!(!table.contains(id));
    }

    #[test]
    fn drain_releases_everything() {
        let (_t, mut links, path) = line4();
        let mut engine = ReservationEngine::new();
        let mut table = SetupTable::new();
        let bw = Bandwidth::from_kbps(100);
        let a = table.begin(path.clone(), bw, 0.0);
        let b = table.begin(path.clone(), bw, 0.0);
        table.path_step(&mut engine, &mut links, a, 0);
        table.path_step(&mut engine, &mut links, a, 1);
        table.path_step(&mut engine, &mut links, b, 0);
        let (released, bw_released) = table.drain(&mut links);
        assert_eq!(released, 3);
        assert_eq!(bw_released, Bandwidth::from_kbps(300));
        assert_eq!(pending(&links), Bandwidth::ZERO);
        assert_eq!(table.in_flight(), 0);
    }
}
