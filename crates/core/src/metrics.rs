//! What a run reports: the [`Metrics`] of a finished run, each online
//! [`Decision`], and the [`ServiceSnapshot`] of a running service.

use anycast_rsvp::{MessageLedger, SessionId};

/// Measured output of one run: the paper's two performance metrics plus
/// the supporting evidence (message counts, load levels, CIs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// The system's paper label (`<ED,2>`, `SP`, `GDI`, …).
    pub label: String,
    /// Arrival rate the run was driven at.
    pub lambda: f64,
    /// Seed the run used.
    pub seed: u64,
    /// Admission probability over the measured period.
    pub admission_probability: f64,
    /// 95% half-width of the admission probability estimate.
    pub ap_ci95: f64,
    /// Requests offered after warm-up.
    pub offered: u64,
    /// Requests admitted after warm-up.
    pub admitted: u64,
    /// Mean destinations tried per request (Figure 7's y-axis).
    pub mean_tries: f64,
    /// Mean retrials per request (tries beyond the first).
    pub mean_retrials: f64,
    /// Signaling messages during the measured period.
    pub messages: MessageLedger,
    /// Signaling messages per offered request.
    pub messages_per_request: f64,
    /// Time-average number of concurrently active flows.
    pub mean_active_flows: f64,
    /// Distribution of destinations tried per request: index `t` holds the
    /// number of requests that made exactly `t` tries.
    pub tries_histogram: Vec<u64>,
    /// Per-group admission probabilities, in `effective_groups` order
    /// (length 1 for paper-style single-group runs).
    pub per_group_ap: Vec<f64>,
    /// Time-average fraction of the network's total anycast partition
    /// held by reservations — the paper's "effectiveness" objective
    /// (§4.1: "maximize the bandwidth utilization to the possible
    /// extent").
    pub mean_network_utilization: f64,
    /// Fraction of admitted flows sent to each member, per group
    /// (`member_share[g][i]` for member `i` of group `g`) — how well the
    /// §4.1 goal of "randomly distribut\[ing\] anycast flows" is met.
    pub member_share: Vec<Vec<f64>>,
    /// Time-average fraction of links operational over the measured
    /// period (1.0 in fault-free runs).
    pub availability: f64,
    /// Flows torn down mid-service because a fault removed their path
    /// (counted over the whole run, warm-up included).
    pub flows_killed_by_failure: u64,
    /// Completed outages (failure followed by repair) over the run.
    pub outages: u64,
    /// Mean repair time over completed outages, seconds (0 when none).
    pub mean_recovery_secs: f64,
    /// Reservations orphaned by a lost teardown message over the run.
    pub orphaned_reservations: u64,
    /// Orphaned reservations whose bandwidth was recovered — by
    /// soft-state expiry, or early when a fault tore their path down.
    pub orphans_reclaimed: u64,
    /// Reserved bandwidth at the horizon not attributable to any
    /// surviving session, in bit/s per link-hop. Always 0 unless the
    /// bookkeeping leaks.
    pub leaked_bandwidth_bps: u64,
    /// Pending holds placed by two-phase PATH crossings, whole run.
    /// Zero under atomic signalling and in the degenerate zero-delay
    /// two-phase mode (whose exchange is instantaneous).
    pub holds_placed: u64,
    /// Unconfirmed holds returned by their expiry timers, whole run.
    pub holds_expired: u64,
    /// Two-phase setups whose RESV reached the source, whole run.
    pub setups_completed: u64,
    /// Timed-out setups retransmitted under the backoff policy, whole run.
    pub retransmits: u64,
    /// Signalling messages dropped by the `[signaling]` fault model,
    /// whole run.
    pub signaling_messages_lost: u64,
    /// Mean setup latency (first PATH send of the successful attempt to
    /// the RESV arriving at the source) over completions after warm-up.
    pub mean_setup_latency_secs: f64,
    /// Held (uncommitted) bandwidth still pending after the horizon
    /// drain, in bit/s per link-hop. Always 0 unless hold accounting
    /// leaks — the leak-freedom invariant.
    pub leaked_hold_bps: u64,
}

/// One finalised admission decision, captured by the online engine for
/// its callers (wire-protocol responses, replay diffing, benchmarks).
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Dense per-run request counter, assigned in arrival order.
    pub request: u64,
    /// Simulated time the decision was made at.
    pub at_secs: f64,
    /// Whether the flow was admitted.
    pub admitted: bool,
    /// Group member the flow went to (admitted only).
    pub member_index: Option<usize>,
    /// Installed reservation session (admitted only).
    pub session: Option<SessionId>,
    /// Destinations probed before the decision.
    pub tries: u32,
}

/// A point-in-time operational snapshot of a running (online) simulation:
/// the metrics endpoint of the admission daemon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceSnapshot {
    /// Simulated time of the snapshot.
    pub time_secs: f64,
    /// Requests offered so far (measured period).
    pub offered: u64,
    /// Requests admitted so far (measured period).
    pub admitted: u64,
    /// Requests rejected so far (measured period).
    pub rejected: u64,
    /// Currently active reservations.
    pub active_sessions: usize,
    /// Reserved bandwidth across all links, bit/s.
    pub reserved_bps: u64,
    /// Pending (uncommitted two-phase hold) bandwidth, bit/s.
    pub pending_hold_bps: u64,
    /// Total anycast-partition capacity across all links, bit/s.
    pub capacity_bps: u64,
    /// Two-phase setups currently in flight.
    pub setups_in_flight: usize,
    /// Links in the topology.
    pub links: usize,
    /// Links currently failed.
    pub failed_links: usize,
    /// Width of the rolling measurement window, seconds (0 when the run
    /// measures over its whole finite horizon instead).
    pub window_secs: f64,
    /// Requests offered inside the trailing window (rolling mode only).
    pub window_offered: u64,
    /// Requests admitted inside the trailing window (rolling mode only).
    pub window_admitted: u64,
    /// Requests rejected inside the trailing window (rolling mode only).
    pub window_rejected: u64,
}
