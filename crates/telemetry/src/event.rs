//! The structured event vocabulary of the telemetry layer.
//!
//! Every observable moment of a run — a request arriving, a destination
//! being probed, a reservation being set up or torn down, a fault firing —
//! is one [`Event`] variant stamped with simulated seconds into a
//! [`TimedEvent`]. The variants carry dense ids (`u64` request counters,
//! raw [`LinkId`]/[`NodeId`]/[`SessionId`] values) rather than references,
//! so recorded streams are plain data: comparable, cloneable and
//! exportable without holding the simulation alive.

use anycast_net::{LinkId, NodeId};
use anycast_rsvp::{MessageKind, ProbeError, SessionId};

/// An [`Event`] stamped with the simulated time it occurred at.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// Simulated seconds since the start of the run.
    pub time_secs: f64,
    /// What happened.
    pub event: Event,
}

/// One structured telemetry event.
///
/// The JSONL/CSV exporters give each variant a stable `kind` discriminant
/// (listed per variant below); see the crate-level docs for the full
/// schema.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// `kind: "arrival"` — an anycast request entered the system.
    RequestArrival {
        /// Dense per-run request counter, assigned in arrival order.
        request: u64,
        /// Node the request originated at.
        source: NodeId,
        /// Index of the anycast group the request addresses.
        group: usize,
        /// Requested bandwidth in bits per second.
        demand_bps: u64,
    },
    /// `kind: "probe"` — one destination was probed on behalf of a request.
    DestinationProbe {
        /// The probing request.
        request: u64,
        /// Index of the probed group member (destination ordering).
        member_index: usize,
        /// Selection weight the policy assigned to this member when it was
        /// picked (0.0 for systems without weights).
        weight: f64,
        /// Whether the probe admitted the flow or was skipped, and why.
        result: ProbeResult,
    },
    /// `kind: "retrial"` — the controller decided to keep trying after a
    /// failed probe (§4.5 retrial decision).
    Retrial {
        /// The retrying request.
        request: u64,
        /// Probes attempted so far.
        tries_so_far: u32,
        /// Total selection weight still untried.
        remaining_weight: f64,
    },
    /// `kind: "setup"` — a reservation was established end to end.
    ReservationSetup {
        /// The admitted request.
        request: u64,
        /// Reservation session id.
        session: SessionId,
        /// Group member the flow was admitted to.
        member_index: usize,
        /// Hop count of the reserved route.
        hops: usize,
        /// Probes it took to find this destination.
        tries: u32,
    },
    /// `kind: "teardown"` — a reservation was released.
    ReservationTeardown {
        /// The released session.
        session: SessionId,
        /// Why the reservation ended.
        reason: TeardownReason,
    },
    /// `kind: "rejection"` — a request was rejected after exhausting its
    /// retrials; carries the full per-request decision trace.
    Rejection {
        /// The rejected request.
        request: u64,
        /// Probes attempted before giving up.
        tries: u32,
        /// Weight vector and per-candidate skip reasons.
        trace: DecisionTrace,
    },
    /// `kind: "link_sample"` — periodic link-state snapshot from the
    /// sampler.
    LinkSample {
        /// Sampled link.
        link: LinkId,
        /// Reserved bandwidth in bits per second.
        reserved_bps: u64,
        /// Link capacity in bits per second.
        capacity_bps: u64,
        /// Live flows traversing the link.
        flows: u32,
        /// Whether the link is currently failed.
        failed: bool,
    },
    /// `kind: "fault_fired"` — a chaos fault took an entity down.
    FaultFired {
        /// The failed entity.
        entity: FaultKind,
    },
    /// `kind: "fault_healed"` — a previously failed entity recovered.
    FaultHealed {
        /// The recovered entity.
        entity: FaultKind,
    },
    /// `kind: "msg_sent"` — a two-phase signaling message started one hop
    /// crossing.
    MsgSent {
        /// The request whose setup the message belongs to.
        request: u64,
        /// Message kind (PATH / RESV / RESV_ERR).
        message: MessageKind,
        /// The link being crossed.
        link: LinkId,
    },
    /// `kind: "msg_lost"` — a chaos fault dropped the message on that
    /// crossing.
    MsgLost {
        /// The request whose setup the message belongs to.
        request: u64,
        /// Message kind (PATH / RESV / RESV_ERR).
        message: MessageKind,
        /// The link the message was lost on.
        link: LinkId,
    },
    /// `kind: "hold_placed"` — a PATH crossing placed a pending hold on a
    /// link (bandwidth claimed but not yet confirmed).
    HoldPlaced {
        /// The request whose setup placed the hold.
        request: u64,
        /// The link holding the bandwidth.
        link: LinkId,
        /// Held bandwidth in bits per second.
        bw_bps: u64,
    },
    /// `kind: "hold_expired"` — an unconfirmed hold hit its setup timeout
    /// and returned its bandwidth.
    HoldExpired {
        /// The request whose setup had placed the hold.
        request: u64,
        /// The link releasing the bandwidth.
        link: LinkId,
        /// Released bandwidth in bits per second.
        bw_bps: u64,
    },
    /// `kind: "setup_completed"` — a two-phase setup's RESV reached the
    /// source and every hold was committed into a reservation.
    SetupCompleted {
        /// The admitted request.
        request: u64,
        /// The installed session.
        session: SessionId,
        /// Wall-clock of the setup in simulated seconds, from the first
        /// PATH send of the attempt to the RESV arriving at the source.
        latency_secs: f64,
    },
}

/// The entity a chaos fault acts on.
///
/// Mirrors `anycast_chaos::FaultEntity` without depending on the chaos
/// crate (chaos depends on telemetry, not the other way around).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A network link.
    Link(LinkId),
    /// A group-member node.
    Node(NodeId),
}

/// Why a reservation was torn down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TeardownReason {
    /// The flow completed and its teardown message was delivered.
    Departure,
    /// The flow completed but its teardown was delayed in transit.
    Delayed,
    /// A fault killed the flow mid-life.
    FaultKilled,
    /// An orphaned reservation's soft state expired and was reclaimed.
    SoftStateExpired,
}

impl TeardownReason {
    /// Stable lowercase label used by the exporters.
    pub(crate) fn label(self) -> &'static str {
        match self {
            TeardownReason::Departure => "departure",
            TeardownReason::Delayed => "delayed",
            TeardownReason::FaultKilled => "fault_killed",
            TeardownReason::SoftStateExpired => "soft_state_expired",
        }
    }
}

/// Outcome of probing one destination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProbeResult {
    /// The reservation succeeded and the flow was admitted here.
    Admitted,
    /// The destination was skipped; the reason says why.
    Skipped(SkipReason),
}

/// Why a probed (or considered) destination did not admit the flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SkipReason {
    /// The reservation walked the route and hit a link without capacity.
    LinkBlocked {
        /// The first link that could not take the demand.
        link: LinkId,
        /// Hop index of that link along the route.
        hop_index: usize,
        /// Bandwidth the link had available, in bits per second.
        available_bps: u64,
    },
    /// No feasible path existed at probe time (global-knowledge systems).
    NoFeasiblePath,
    /// The candidate was feasible but another destination was chosen.
    NotSelected,
}

impl From<ProbeError> for SkipReason {
    /// The bottleneck a refused reservation walk reported.
    fn from(err: ProbeError) -> Self {
        SkipReason::LinkBlocked {
            link: err.failed_link,
            hop_index: err.hop_index,
            available_bps: err.available.bps(),
        }
    }
}

impl SkipReason {
    /// Stable lowercase label used by the exporters.
    pub(crate) fn label(self) -> &'static str {
        match self {
            SkipReason::LinkBlocked { .. } => "link_blocked",
            SkipReason::NoFeasiblePath => "no_feasible_path",
            SkipReason::NotSelected => "not_selected",
        }
    }
}

/// The per-request decision record attached to a rejection: the weight
/// vector the policy assigned on the first iteration, plus one
/// [`DecisionStep`] per candidate that was probed and skipped, in probe
/// order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DecisionTrace {
    /// Selection weights over the group members at the first draw.
    pub weights: Vec<f64>,
    /// Every probed-and-skipped candidate, in the order tried.
    pub steps: Vec<DecisionStep>,
}

/// One skipped candidate within a [`DecisionTrace`].
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionStep {
    /// Group-member index of the candidate.
    pub member_index: usize,
    /// Weight it carried when drawn.
    pub weight: f64,
    /// Why it did not admit the flow.
    pub skip: SkipReason,
}

impl Event {
    /// Stable lowercase discriminant used as the `kind` field by the
    /// exporters.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RequestArrival { .. } => "arrival",
            Event::DestinationProbe { .. } => "probe",
            Event::Retrial { .. } => "retrial",
            Event::ReservationSetup { .. } => "setup",
            Event::ReservationTeardown { .. } => "teardown",
            Event::Rejection { .. } => "rejection",
            Event::LinkSample { .. } => "link_sample",
            Event::FaultFired { .. } => "fault_fired",
            Event::FaultHealed { .. } => "fault_healed",
            Event::MsgSent { .. } => "msg_sent",
            Event::MsgLost { .. } => "msg_lost",
            Event::HoldPlaced { .. } => "hold_placed",
            Event::HoldExpired { .. } => "hold_expired",
            Event::SetupCompleted { .. } => "setup_completed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable() {
        let ev = Event::RequestArrival {
            request: 0,
            source: NodeId::new(1),
            group: 0,
            demand_bps: 1,
        };
        assert_eq!(ev.kind(), "arrival");
        assert_eq!(
            Event::FaultFired {
                entity: FaultKind::Link(LinkId::new(3))
            }
            .kind(),
            "fault_fired"
        );
        assert_eq!(
            TeardownReason::SoftStateExpired.label(),
            "soft_state_expired"
        );
        assert_eq!(
            Event::MsgLost {
                request: 1,
                message: MessageKind::Resv,
                link: LinkId::new(2)
            }
            .kind(),
            "msg_lost"
        );
        assert_eq!(
            Event::SetupCompleted {
                request: 1,
                session: SessionId::for_tests(0),
                latency_secs: 0.5
            }
            .kind(),
            "setup_completed"
        );
        assert_eq!(
            SkipReason::LinkBlocked {
                link: LinkId::new(0),
                hop_index: 2,
                available_bps: 64_000
            }
            .label(),
            "link_blocked"
        );
    }
}
