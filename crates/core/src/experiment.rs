//! The closed-loop simulation experiment of §5: workload in, metrics out.
//!
//! [`run_experiment`] wires together the whole stack — topology and fixed
//! routes ([`anycast_net`]), RSVP-style reservation ([`anycast_rsvp`]), the
//! admission systems of this crate, and the discrete-event engine and
//! statistics of ([`anycast_sim`]) — and reproduces the measurement setup
//! of §5.1: Poisson arrivals over the odd-numbered source routers,
//! exponential lifetimes, one five-member anycast group, 64 kb/s demands
//! against the 20% anycast partition of 100 Mb/s links.

use crate::backoff::BackoffPolicy;
use crate::baselines::{GlobalDynamicSystem, ShortestPathSystem};
use crate::controller::{DacRequest, Routes};
use crate::multipath::{MultipathController, MultipathRouteTable};
use crate::online::OnlineArrival;
use crate::policy::PolicySpec;
use crate::signalling::{PendingAdmission, Plane, Settled, Signal, TwoPhaseState};
use crate::soft_state::OrphanTimers;
use crate::{AdmissionController, AdmissionOutcome, RetrialPolicy};
use anycast_chaos::{
    build_timeline, ControlFaultModel, FaultAction, FaultBook, FaultEntity, FaultPlan,
};
use anycast_net::{
    topologies, AnycastGroup, Bandwidth, LinkStateTable, NodeId, Path, RouteSet, RouteTable,
    Topology,
};
use anycast_rsvp::{
    MessageLedger, ReservationEngine, ReservationOutcome, SessionId, SessionMap, SessionSet,
};
use anycast_sim::stats::{AdmissionStats, TimeWeighted};
use anycast_sim::workload::{
    BurstyWorkload, FlowRequest, ModulatedWorkload, PoissonWorkload, RateEnvelope,
};
use anycast_sim::{Duration, Engine, SimRng, SimTime};
use anycast_telemetry::{
    Event as TelemetryEvent, FaultKind, NullRecorder, Recorder, RequestTracer, SkipReason,
    TeardownReason,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// The horizon a rolling-window (run-forever) service advances toward:
/// ~31 million simulated years, far past any deployment's lifetime, yet
/// finite so [`SimTime`] arithmetic (adding holding times, signalling
/// delays) can never overflow to infinity.
pub(crate) const UNBOUNDED_HORIZON_SECS: f64 = 1e15;

/// Which admission system the experiment evaluates — the paper's
/// `<A, R>` tuples plus the two baselines.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SystemSpec {
    /// The DAC procedure with a destination-selection policy and retrial
    /// control: the `<A, R>` notation of §5.1.
    Dac {
        /// Destination-selection algorithm `A`.
        policy: PolicySpec,
        /// Retrial control (the paper's `R` is `FixedLimit(R)`).
        retrial: RetrialPolicy,
    },
    /// The multipath extension: DAC where each member may be probed over
    /// its `paths_per_member` shortest alternate routes (§6 future work;
    /// see `MultipathController` — the paper's §6
    /// future work).
    DacMultipath {
        /// Destination-selection algorithm `A`.
        policy: PolicySpec,
        /// Retrial control over members.
        retrial: RetrialPolicy,
        /// Alternate fixed routes per member (k of Yen's algorithm).
        paths_per_member: usize,
    },
    /// The SP baseline: always the nearest member, no retrials.
    ShortestPath,
    /// The GDI baseline: perfect global dynamic information, any path.
    GlobalDynamic,
}

impl SystemSpec {
    /// `<policy, R>` with the standard fixed retrial limit.
    pub fn dac(policy: PolicySpec, r: u32) -> Self {
        SystemSpec::Dac {
            policy,
            retrial: RetrialPolicy::FixedLimit(r),
        }
    }

    /// Multipath DAC with a fixed member-retrial limit and `k` routes per
    /// member.
    pub fn dac_multipath(policy: PolicySpec, r: u32, paths_per_member: usize) -> Self {
        SystemSpec::DacMultipath {
            policy,
            retrial: RetrialPolicy::FixedLimit(r),
            paths_per_member,
        }
    }

    /// The paper's label for this system, e.g. `<ED,2>`, `SP`, `GDI`;
    /// the multipath extension is labelled `<A,R,k>`.
    pub fn label(&self) -> String {
        match self {
            SystemSpec::Dac { policy, retrial } => {
                format!("<{},{}>", policy.name(), retrial.max_tries())
            }
            SystemSpec::DacMultipath {
                policy,
                retrial,
                paths_per_member,
            } => format!(
                "<{},{},k={}>",
                policy.name(),
                retrial.max_tries(),
                paths_per_member
            ),
            SystemSpec::ShortestPath => "SP".to_string(),
            SystemSpec::GlobalDynamic => "GDI".to_string(),
        }
    }
}

/// The arrival process shape (extension — the paper assumes Poisson).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Plain Poisson arrivals at rate λ (§5.1).
    Poisson,
    /// MMPP-2 bursty arrivals with long-run mean λ: the rate alternates
    /// between `λ·burstiness` and `λ·(2−burstiness)` with exponential
    /// sojourns of the given mean.
    Bursty {
        /// Burst intensity in `[1, 2)`; 1 ≈ Poisson.
        burstiness: f64,
        /// Mean sojourn in each modulating state, seconds.
        mean_sojourn_secs: f64,
    },
    /// Sinusoidal diurnal modulation of the Poisson rate: the instantaneous
    /// rate is `λ · (1 + amplitude · sin(2πt / period))`, so the long-run
    /// mean stays λ while load peaks and troughs once per period.
    Diurnal {
        /// Peak-to-mean excursion in `[0, 1)`.
        amplitude: f64,
        /// Length of one full cycle, seconds.
        period_secs: f64,
    },
    /// A flash crowd: Poisson at rate λ outside the window; inside
    /// `[start, start + duration)` the rate jumps to `λ · multiplier` and
    /// every arrival targets anycast group `group_index` — a burst of
    /// demand aimed at one service, the §4.1 stress case for
    /// destination-selection spreading.
    FlashCrowd {
        /// Window start, seconds.
        start_secs: f64,
        /// Window length, seconds.
        duration_secs: f64,
        /// Rate multiplier inside the window (≥ 1).
        multiplier: f64,
        /// The group (index into [`ExperimentConfig::effective_groups`])
        /// the crowd piles onto.
        group_index: usize,
    },
}

/// One anycast group of a multi-service workload (extension — the paper
/// evaluates a single group).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupSpec {
    /// The group's member routers.
    pub members: Vec<NodeId>,
    /// Relative share of the request stream targeting this group
    /// (need not be normalised; must be positive).
    pub share: f64,
}

/// One bandwidth class of a heterogeneous workload (extension beyond the
/// paper, whose flows all demand 64 kb/s).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DemandClass {
    /// Per-flow bandwidth demand of this class.
    pub bandwidth: Bandwidth,
    /// Relative frequency (need not be normalised; must be positive).
    pub weight: f64,
}

/// Parameters of the latency-aware two-phase signalling engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TwoPhaseConfig {
    /// Propagation + processing delay per link crossing, in seconds.
    /// Zero with an inert `[signaling]` fault section is the atomic
    /// exchange: the run is validated as two-phase, then admits atomically.
    pub per_hop_delay_secs: f64,
    /// How long the source waits for the RESV before abandoning the
    /// attempt and consulting the backoff policy. Unconfirmed per-hop
    /// holds expire on the same clock. `f64::INFINITY` disables both
    /// timers (setups then only fail via an explicit RESV_ERR).
    pub setup_timeout_secs: f64,
    /// Retransmission schedule for timed-out setups toward the same
    /// destination, applied before a §4.5 retrial is spent.
    pub backoff: BackoffPolicy,
}

impl Default for TwoPhaseConfig {
    /// 0 delay, 1 s setup timeout, default backoff.
    fn default() -> Self {
        TwoPhaseConfig {
            per_hop_delay_secs: 0.0,
            setup_timeout_secs: 1.0,
            backoff: BackoffPolicy::default(),
        }
    }
}

impl TwoPhaseConfig {
    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics if the per-hop delay is negative or non-finite, or the
    /// setup timeout is not positive (infinity is allowed).
    pub(crate) fn validate(&self) {
        assert!(
            self.per_hop_delay_secs.is_finite() && self.per_hop_delay_secs >= 0.0,
            "per-hop signalling delay must be finite and non-negative, got {}",
            self.per_hop_delay_secs
        );
        assert!(
            self.setup_timeout_secs > 0.0 && !self.setup_timeout_secs.is_nan(),
            "setup timeout must be positive (infinity allowed), got {}",
            self.setup_timeout_secs
        );
        self.backoff.validate();
    }
}

/// How the §4.4 reservation exchange is performed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SignalingMode {
    /// The paper's model: the PATH/RESV exchange completes in one
    /// instant, so admission state is never stale.
    Atomic,
    /// Latency-aware two-phase signalling: PATH messages propagate hop by
    /// hop placing pending holds, a RESV confirms them, unconfirmed holds
    /// expire at the setup timeout, and timed-out setups are retransmitted
    /// under bounded backoff. Only valid for [`SystemSpec::Dac`].
    TwoPhase(TwoPhaseConfig),
}

/// Full description of one simulation run.
///
/// [`ExperimentConfig::paper_defaults`] reproduces §5.1; the `with_*`
/// builders tweak individual knobs for sweeps, ablations and tests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// PRNG seed; identical seeds give identical runs.
    pub seed: u64,
    /// Total anycast request rate λ in flows/second.
    pub lambda: f64,
    /// Mean exponential flow lifetime in seconds (paper: 180).
    pub mean_holding_secs: f64,
    /// Per-flow bandwidth demand (paper: 64 kb/s). Ignored when
    /// `demand_mix` is non-empty.
    pub flow_bandwidth: Bandwidth,
    /// Heterogeneous demand classes (extension). Empty means every flow
    /// demands `flow_bandwidth`, as in the paper.
    pub demand_mix: Vec<DemandClass>,
    /// Fraction of each link reserved for anycast flows (paper: 0.2).
    pub anycast_fraction: f64,
    /// Capacity assumed for links whose topology capacity is zero.
    pub default_link_capacity: Bandwidth,
    /// Transient period discarded from statistics, in seconds.
    pub warmup_secs: f64,
    /// Measured period after warm-up, in seconds.
    pub measure_secs: f64,
    /// The anycast group members (ignored when `groups` is non-empty).
    pub group_members: Vec<NodeId>,
    /// Multiple anycast groups sharing the network (extension). Empty
    /// means the single group of `group_members`, as in the paper.
    pub groups: Vec<GroupSpec>,
    /// The source routers whose hosts originate requests.
    pub sources: Vec<NodeId>,
    /// The admission system under test.
    pub system: SystemSpec,
    /// Shape of the request arrival process (extension; paper: Poisson).
    pub(crate) arrivals: ArrivalProcess,
    /// Fault-injection plan (extension; the paper's analysis is
    /// fault-free, which [`FaultPlan::none`] reproduces exactly).
    pub faults: FaultPlan,
    /// How the reservation exchange is signalled (extension; the paper's
    /// exchange is atomic, which [`SignalingMode::Atomic`] reproduces
    /// exactly).
    pub(crate) signaling: SignalingMode,
}

impl ExperimentConfig {
    /// The §5.1 setup on the MCI backbone: group at routers {0,4,8,12,16},
    /// sources at the odd routers, 64 kb/s flows living 180 s on average
    /// against a 20% anycast partition of 100 Mb/s links; 1800 s warm-up
    /// and 3600 s of measurement.
    pub fn paper_defaults(lambda: f64, system: SystemSpec) -> Self {
        ExperimentConfig {
            seed: 0x5EED,
            lambda,
            mean_holding_secs: 180.0,
            flow_bandwidth: Bandwidth::from_kbps(64),
            demand_mix: Vec::new(),
            anycast_fraction: 0.2,
            default_link_capacity: Bandwidth::from_mbps(100),
            warmup_secs: 1_800.0,
            measure_secs: 3_600.0,
            group_members: topologies::MCI_GROUP_MEMBERS.map(NodeId::new).to_vec(),
            groups: Vec::new(),
            sources: topologies::mci_source_nodes(),
            system,
            arrivals: ArrivalProcess::Poisson,
            faults: FaultPlan::none(),
            signaling: SignalingMode::Atomic,
        }
    }

    /// Replaces the PRNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the measured duration.
    pub fn with_measure_secs(mut self, secs: f64) -> Self {
        self.measure_secs = secs;
        self
    }

    /// Replaces the warm-up duration.
    pub fn with_warmup_secs(mut self, secs: f64) -> Self {
        self.warmup_secs = secs;
        self
    }

    /// Replaces the anycast group members.
    pub fn with_group(mut self, members: Vec<NodeId>) -> Self {
        self.group_members = members;
        self
    }

    /// Replaces the source routers.
    pub fn with_sources(mut self, sources: Vec<NodeId>) -> Self {
        self.sources = sources;
        self
    }

    /// Replaces the admission system under test.
    pub fn with_system(mut self, system: SystemSpec) -> Self {
        self.system = system;
        self
    }

    /// Replaces the arrival-process shape (extension beyond the paper).
    pub fn with_arrivals(mut self, arrivals: ArrivalProcess) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Installs a fault-injection plan (extension beyond the paper).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the signalling mode (extension beyond the paper).
    pub fn with_signaling(mut self, signaling: SignalingMode) -> Self {
        self.signaling = signaling;
        self
    }

    /// Installs multiple anycast groups (extension beyond the paper).
    ///
    /// # Panics
    ///
    /// Panics if any share is non-positive or non-finite.
    pub fn with_groups(mut self, groups: Vec<GroupSpec>) -> Self {
        for g in &groups {
            assert!(
                g.share.is_finite() && g.share > 0.0,
                "group shares must be positive and finite"
            );
        }
        self.groups = groups;
        self
    }

    /// The effective group list: `groups` if set, else the single
    /// paper-style group.
    pub fn effective_groups(&self) -> Vec<GroupSpec> {
        if self.groups.is_empty() {
            vec![GroupSpec {
                members: self.group_members.clone(),
                share: 1.0,
            }]
        } else {
            self.groups.clone()
        }
    }

    /// Installs a heterogeneous demand mix (extension beyond the paper).
    ///
    /// # Panics
    ///
    /// Panics if any class weight is non-positive or non-finite.
    pub fn with_demand_mix(mut self, mix: Vec<DemandClass>) -> Self {
        for class in &mix {
            assert!(
                class.weight.is_finite() && class.weight > 0.0,
                "demand class weights must be positive and finite"
            );
        }
        self.demand_mix = mix;
        self
    }
}

/// Measured output of one run: the paper's two performance metrics plus
/// the supporting evidence (message counts, load levels, CIs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// One flow request as it reaches its source router.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Arrival {
    pub(crate) source_index: usize,
    pub(crate) group_index: usize,
    pub(crate) holding_secs: f64,
    pub(crate) demand: Bandwidth,
}

/// Internal event alphabet of the closed-loop simulation.
#[derive(Debug)]
pub(crate) enum Event {
    Arrival(Arrival),
    Departure(SessionId),
    /// A delayed PATH_TEAR finally landing (control-plane delay model).
    Teardown(SessionId),
    /// One fault-plan action firing.
    Fault(FaultAction),
    /// Periodic soft-state refresh: every session that still has a source
    /// is refreshed — which takes recording the instant, not visiting the
    /// sessions; orphans miss the refresh and eventually expire.
    RefreshSweep,
    /// Periodic telemetry link-state sample. Only ever scheduled when the
    /// recorder asks for it, and touches no RNG stream and no simulation
    /// state, so enabling the sampler cannot change the metrics.
    TelemetrySample,
    WarmupEnd,
    /// A two-phase signalling message, timer or retransmission.
    Signal(Signal),
    /// Wake-up for the orphan timers: reclaim the orphaned reservations
    /// whose soft-state lifetime ends at this instant. Never scheduled
    /// before the first teardown is lost.
    SoftTick,
}

/// Where the simulation's arrivals come from: the closed-loop workload of
/// the offline experiment, or an externally fed queue (trace replay, the
/// wire protocol) drained by the online engine.
enum Feed {
    /// Self-driving: each arrival draws its successor from the workload,
    /// exactly as the offline experiment always has.
    Workload(WorkloadKind),
    /// Externally fed: successors — an instant and the [`Event::Arrival`]
    /// due then — are popped from this queue instead of drawn. When it
    /// runs dry no arrival is scheduled until the next submission re-arms
    /// the feed.
    External(VecDeque<(SimTime, Event)>),
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

fn draw_group(group_shares: &[f64], rng: &mut SimRng) -> usize {
    if group_shares.len() == 1 {
        0
    } else {
        rng.choose_weighted(group_shares)
            .expect("group shares validated positive")
    }
}

fn draw_demand(config: &ExperimentConfig, demand_weights: &[f64], rng: &mut SimRng) -> Bandwidth {
    if config.demand_mix.is_empty() {
        config.flow_bandwidth
    } else {
        let idx = rng
            .choose_weighted(demand_weights)
            .expect("demand weights validated positive");
        config.demand_mix[idx].bandwidth
    }
}

/// A flash crowd aims every in-window arrival at its configured group.
///
/// The group stream is still *drawn* (and its result discarded) for every
/// arrival, so the RNG streams stay aligned and arrivals outside the
/// window are bit-identical to a run without the override.
fn flash_group_override(config: &ExperimentConfig, at: SimTime, drawn: usize) -> usize {
    if let ArrivalProcess::FlashCrowd {
        start_secs,
        duration_secs,
        group_index,
        ..
    } = config.arrivals
    {
        let t = at.as_secs();
        if t >= start_secs && t < start_secs + duration_secs {
            return group_index;
        }
    }
    drawn
}

/// Builds the configured workload, consuming the master stream's workload
/// forks. Shared by [`Sim::new`] and [`draw_arrival_trace`] so the two
/// consume identical fork sequences — the replay-equivalence contract.
fn build_workload(config: &ExperimentConfig, master_rng: &mut SimRng) -> WorkloadKind {
    match config.arrivals {
        ArrivalProcess::Poisson => WorkloadKind::Poisson(PoissonWorkload::new(
            config.lambda,
            config.mean_holding_secs,
            config.sources.len(),
            master_rng,
        )),
        ArrivalProcess::Bursty {
            burstiness,
            mean_sojourn_secs,
        } => WorkloadKind::Bursty(BurstyWorkload::with_mean_rate(
            config.lambda,
            burstiness,
            mean_sojourn_secs,
            config.mean_holding_secs,
            config.sources.len(),
            master_rng,
        )),
        ArrivalProcess::Diurnal {
            amplitude,
            period_secs,
        } => WorkloadKind::Modulated(ModulatedWorkload::new(
            config.lambda,
            RateEnvelope::Diurnal {
                amplitude,
                period_secs,
            },
            config.mean_holding_secs,
            config.sources.len(),
            master_rng,
        )),
        ArrivalProcess::FlashCrowd {
            start_secs,
            duration_secs,
            multiplier,
            ..
        } => WorkloadKind::Modulated(ModulatedWorkload::new(
            config.lambda,
            RateEnvelope::Window {
                start_secs,
                duration_secs,
                multiplier,
            },
            config.mean_holding_secs,
            config.sources.len(),
            master_rng,
        )),
    }
}

/// The next arrival of the stream, in the exact draw order of the
/// pre-refactor sequential code (request, then demand, then group), or
/// `None` when an external feed has run dry.
fn next_feed_arrival(
    feed: &mut Feed,
    config: &ExperimentConfig,
    group_shares: &[f64],
    demand_weights: &[f64],
    demand_rng: &mut SimRng,
    group_rng: &mut SimRng,
) -> Option<(SimTime, Event)> {
    match feed {
        Feed::Workload(workload) => {
            let next = workload.next_request();
            let demand = draw_demand(config, demand_weights, demand_rng);
            let group_index =
                flash_group_override(config, next.arrival, draw_group(group_shares, group_rng));
            Some((
                next.arrival,
                Event::Arrival(Arrival {
                    source_index: next.source_index,
                    group_index,
                    holding_secs: next.holding.as_secs(),
                    demand,
                }),
            ))
        }
        Feed::External(queue) => queue.pop_front(),
    }
}

/// Draws a config's complete arrival process — every arrival inside
/// `[0, warmup + measure]` — without running any admission, in the exact
/// order the experiment itself draws it. This is the `record` fixture
/// generator: replaying the returned arrivals through an externally-fed
/// engine is bit-identical to the workload-driven run.
pub(crate) fn draw_arrival_trace(config: &ExperimentConfig) -> Vec<OnlineArrival> {
    let mut master_rng = SimRng::seed_from(config.seed);
    let mut workload = build_workload(config, &mut master_rng);
    // Mirror Sim::new's fork order exactly: selection is forked (and
    // discarded here) before the demand and group streams.
    let _selection_rng = master_rng.fork();
    let mut demand_rng = master_rng.fork();
    let mut group_rng = master_rng.fork();
    let group_specs = config.effective_groups();
    let group_shares: Vec<f64> = group_specs.iter().map(|g| g.share).collect();
    let demand_weights: Vec<f64> = config.demand_mix.iter().map(|c| c.weight).collect();
    let horizon = SimTime::from_secs(config.warmup_secs + config.measure_secs);
    let mut out = Vec::new();
    loop {
        let next = workload.next_request();
        let demand = draw_demand(config, &demand_weights, &mut demand_rng);
        let group_index = flash_group_override(
            config,
            next.arrival,
            draw_group(&group_shares, &mut group_rng),
        );
        if next.arrival > horizon {
            return out;
        }
        out.push(OnlineArrival {
            at_secs: next.arrival.as_secs(),
            source_index: next.source_index,
            group_index,
            holding_secs: next.holding.as_secs(),
            demand,
        });
    }
}

/// Arrival-stream dispatch without a trait object (all variants are
/// concrete and cheap).
pub(crate) enum WorkloadKind {
    Poisson(PoissonWorkload),
    Bursty(BurstyWorkload),
    Modulated(ModulatedWorkload),
}

impl WorkloadKind {
    fn next_request(&mut self) -> FlowRequest {
        match self {
            WorkloadKind::Poisson(w) => w.next_request(),
            WorkloadKind::Bursty(w) => w.next_request(),
            WorkloadKind::Modulated(w) => w.next_request(),
        }
    }
}

/// Per-group admission machinery (controllers are per source within it).
enum SystemState {
    Dac(Vec<AdmissionController>),
    DacMulti(Box<MultipathRouteTable>, Vec<MultipathController>),
    Sp(Vec<ShortestPathSystem>),
    Gdi(GlobalDynamicSystem),
}

/// The DAC controller of `arrival`'s source in its group, and the fixed
/// routes it selects among: two-phase signalling is DAC-only.
fn dac_of<'s, 'r>(
    systems: &'s mut [SystemState],
    route_sets: &'r [Vec<RouteSet>],
    arrival: Arrival,
) -> (&'s mut AdmissionController, Routes<'r>) {
    let (group, source) = (arrival.group_index, arrival.source_index);
    match &mut systems[group] {
        SystemState::Dac(controllers) => (
            &mut controllers[source],
            Routes::Single(&route_sets[group][source]),
        ),
        _ => unreachable!("two-phase signalling is DAC-only"),
    }
}

/// Runs one closed-loop simulation and returns its metrics.
///
/// Deterministic: the same `(topo, config)` always produces the same
/// metrics. The run processes every arrival in
/// `[0, warmup_secs + measure_secs]`; departures beyond the horizon are
/// irrelevant to the reported statistics and are left unprocessed.
///
/// # Panics
///
/// Panics if the configuration is inconsistent with the topology (unknown
/// nodes, empty groups or sources, non-positive durations, an invalid
/// policy parameter, a source that cannot reach some group member, or a
/// fault plan whose scripted actions reference unknown links or nodes), or
/// with itself: two-phase signalling needs the DAC system, and a
/// `[signaling]` fault section needs two-phase signalling.
pub fn run_experiment(topo: &Topology, config: &ExperimentConfig) -> Metrics {
    run_experiment_traced(topo, config, &mut NullRecorder)
}

/// [`run_experiment`] with a telemetry [`Recorder`] capturing the run's
/// structured event stream: arrivals, per-request decision traces (probes,
/// retrials, rejections with weight vectors and skip reasons), reservation
/// lifecycle, chaos faults, and — when the recorder requests it — periodic
/// link-state samples.
///
/// The metrics returned are **bit-identical** to [`run_experiment`]'s for
/// any recorder: every hook is read-only with respect to simulation state
/// and consumes no randomness, and the sampler event is only scheduled
/// when [`Recorder::link_sample_interval`] asks for it. With a
/// [`NullRecorder`] the hooks reduce to a disabled-branch check, which is
/// the zero-overhead guarantee the guard tests assert.
///
/// # Panics
///
/// As [`run_experiment`].
pub fn run_experiment_traced(
    topo: &Topology,
    config: &ExperimentConfig,
    recorder: &mut dyn Recorder,
) -> Metrics {
    let (mut sim, mut engine) = Sim::new(topo, config, recorder, false);
    let horizon = sim.horizon;
    engine.run_until(horizon, |eng, now, event| sim.handle(eng, now, event));
    sim.finish(horizon).0
}

/// The measurement window's time-weighted load signals: concurrently
/// active sessions and total reserved bandwidth. Both reads are field
/// loads (the ledger keeps its own totals), so every event that moves
/// either notes them here, whatever the fabric size.
struct LoadWindow {
    active: TimeWeighted,
    reserved_bw: TimeWeighted,
}

impl LoadWindow {
    /// Opens the window at `at` on the current load.
    fn open(at: SimTime, rsvp: &ReservationEngine, links: &LinkStateTable) -> Self {
        let mut window = LoadWindow {
            active: TimeWeighted::new(at, 0.0),
            reserved_bw: TimeWeighted::new(at, 0.0),
        };
        window.note(at, rsvp, links);
        window
    }

    /// Records the load as of `at`.
    fn note(&mut self, at: SimTime, rsvp: &ReservationEngine, links: &LinkStateTable) {
        self.active.update(at, rsvp.active_sessions() as f64);
        self.reserved_bw
            .update(at, links.total_reserved().bps() as f64);
    }
}

/// Checks a configuration against the topology and against itself.
///
/// # Panics
///
/// As [`run_experiment`].
fn validate(topo: &Topology, config: &ExperimentConfig) {
    assert!(
        config.measure_secs > 0.0 && config.warmup_secs >= 0.0,
        "durations must be positive"
    );
    assert!(!config.sources.is_empty(), "need at least one source");
    for s in &config.sources {
        assert!(topo.contains_node(*s), "source {s} not in topology");
    }
    let refresh = config.faults.refresh;
    assert!(
        refresh.refresh_interval_secs.is_finite() && refresh.refresh_interval_secs > 0.0,
        "refresh interval must be positive"
    );
    assert!(
        refresh.missed_refresh_limit > 0,
        "missed-refresh limit must be at least 1"
    );
    let control = config.faults.control;
    assert!(
        (0.0..=1.0).contains(&control.teardown_loss_probability),
        "teardown loss probability must lie in [0, 1]"
    );
    assert!(
        control.teardown_delay_secs.is_finite() && control.teardown_delay_secs >= 0.0,
        "teardown delay mean must be non-negative"
    );
    match config.signaling {
        // An atomic exchange has no messages to lose or delay.
        SignalingMode::Atomic => assert!(
            config.faults.signaling.is_inert(),
            "a [signaling] fault section needs two-phase signalling"
        ),
        SignalingMode::TwoPhase(cfg) => {
            cfg.validate();
            assert!(
                matches!(config.system, SystemSpec::Dac { .. }),
                "two-phase signalling requires the DAC system, got {}",
                config.system.label()
            );
        }
    }
    if let ArrivalProcess::FlashCrowd { group_index, .. } = config.arrivals {
        assert!(
            group_index < config.effective_groups().len(),
            "flash crowd targets unknown group index {group_index}"
        );
    }
}

/// The anycast groups of `group_specs` and their fixed §3 routes from the
/// configured sources.
///
/// # Panics
///
/// Panics on an empty group, a member outside the topology, or a source
/// that cannot reach a member.
fn route_groups(
    topo: &Topology,
    config: &ExperimentConfig,
    group_specs: &[GroupSpec],
) -> (Vec<AnycastGroup>, Vec<RouteTable>) {
    let mut groups = Vec::with_capacity(group_specs.len());
    let mut route_tables = Vec::with_capacity(group_specs.len());
    for (gi, spec) in group_specs.iter().enumerate() {
        let group = AnycastGroup::new(format!("G{gi}"), spec.members.iter().copied())
            .expect("group must be non-empty");
        for m in group.members() {
            assert!(topo.contains_node(*m), "member {m} not in topology");
        }
        // Only the configured sources originate traffic, so only they
        // must reach every member.
        route_tables.push(
            RouteTable::for_sources(topo, &group, config.sources.iter().copied())
                .unwrap_or_else(|e| panic!("cannot route group {gi}: {e}")),
        );
        groups.push(group);
    }
    (groups, route_tables)
}

/// One admission system per group, with one controller per source where
/// the system keeps per-source state.
fn build_systems(
    topo: &Topology,
    config: &ExperimentConfig,
    groups: &[AnycastGroup],
    route_tables: &[RouteTable],
) -> Vec<SystemState> {
    // One distance buffer reused across every (group, source) pair —
    // the `distances_into` convention keeps controller construction
    // allocation-light even on datacenter-sized source sets.
    let mut dist_buf: Vec<u32> = Vec::new();
    let mut systems: Vec<SystemState> = Vec::with_capacity(groups.len());
    for (group, table) in groups.iter().zip(route_tables) {
        systems.push(match &config.system {
            SystemSpec::Dac { policy, retrial } => SystemState::Dac(
                config
                    .sources
                    .iter()
                    .map(|&s| {
                        table
                            .distances_into(s, &mut dist_buf)
                            .expect("table was built for this source");
                        AdmissionController::new(
                            policy.build().expect("policy parameters validated"),
                            *retrial,
                            dist_buf.clone(),
                        )
                    })
                    .collect(),
            ),
            SystemSpec::DacMultipath {
                policy,
                retrial,
                paths_per_member,
            } => {
                let fans =
                    MultipathRouteTable::build(topo, group, &config.sources, *paths_per_member);
                let controllers = config
                    .sources
                    .iter()
                    .map(|&s| {
                        MultipathController::new(
                            policy.build().expect("policy parameters validated"),
                            *retrial,
                            fans.distances(s),
                        )
                    })
                    .collect();
                SystemState::DacMulti(Box::new(fans), controllers)
            }
            SystemSpec::ShortestPath => SystemState::Sp(
                config
                    .sources
                    .iter()
                    .map(|&s| {
                        ShortestPathSystem::new(
                            table
                                .nearest_member(s)
                                .expect("table was built for this source"),
                        )
                    })
                    .collect(),
            ),
            SystemSpec::GlobalDynamic => SystemState::Gdi(GlobalDynamicSystem::new()),
        });
    }
    systems
}

/// Schedules the events every run starts with: warm-up end, the
/// telemetry sampler when the recorder asks for one, the fault timeline
/// and the first refresh sweep. The timeline is expanded up front
/// (deterministically, from `fault_rng`) and scheduled as ordinary events;
/// the refresh sweep runs even in fault-free experiments, so reservation
/// lifecycle behaviour never depends on whether faults are possible.
fn schedule_fixed_events(
    engine: &mut Engine<Event>,
    topo: &Topology,
    config: &ExperimentConfig,
    groups: &[AnycastGroup],
    sample_interval: Option<f64>,
    fault_rng: &mut SimRng,
) {
    engine.schedule_at(SimTime::from_secs(config.warmup_secs), Event::WarmupEnd);
    if let Some(interval_secs) = sample_interval {
        assert!(
            interval_secs.is_finite() && interval_secs > 0.0,
            "link sample interval must be positive"
        );
        engine.schedule_at(SimTime::from_secs(interval_secs), Event::TelemetrySample);
    }
    let fault_members: Vec<NodeId> = groups
        .iter()
        .flat_map(|g| g.members().iter().copied())
        .collect();
    let timeline = build_timeline(
        &config.faults,
        topo,
        &fault_members,
        config.warmup_secs + config.measure_secs,
        fault_rng,
    );
    for ev in timeline.events() {
        engine.schedule_at(SimTime::from_secs(ev.at_secs), Event::Fault(ev.action));
    }
    engine.schedule_at(
        SimTime::from_secs(config.faults.refresh.refresh_interval_secs),
        Event::RefreshSweep,
    );
}

/// The full state of one closed-loop simulation between events: every
/// table, RNG stream, statistic and timer the handler needs.
///
/// [`run_experiment_traced`] owns one for the duration of a run; the
/// online engine ([`crate::online::OnlineEngine`]) keeps one alive across
/// externally-submitted arrivals. Both drive the **same** [`Sim::handle`]
/// — there is exactly one admission/event code path, which is what makes
/// virtual-time replay bit-identical to the offline engine by
/// construction.
pub(crate) struct Sim<R: Recorder> {
    config: ExperimentConfig,
    topo: Topology,
    groups: Vec<AnycastGroup>,
    /// The fixed §3 routes, `route_sets[group_index][source_index]`.
    route_sets: Vec<Vec<RouteSet>>,
    links: LinkStateTable,
    rsvp: ReservationEngine,
    systems: Vec<SystemState>,
    selection_rng: SimRng,
    demand_rng: SimRng,
    group_rng: SimRng,
    fault_rng: SimRng,
    /// The event-driven signalling engine; `None` when every exchange is
    /// atomic (including a two-phase config with no delay and no loss).
    two_phase: Option<TwoPhaseState>,
    group_shares: Vec<f64>,
    demand_weights: Vec<f64>,
    warmup_end: SimTime,
    horizon: SimTime,
    stats: AdmissionStats,
    group_stats: Vec<AdmissionStats>,
    member_counts: Vec<Vec<u64>>,
    /// `None` until warm-up ends.
    load: Option<LoadWindow>,
    availability: Option<TimeWeighted>,
    /// Soft-state expiry timers for orphaned reservations.
    orphans: OrphanTimers,
    /// Admitted flows whose source is still there, with the instant each
    /// reservation was installed — the last refresh of a session no sweep
    /// has seen yet.
    live_flows: SessionMap<f64>,
    killed: SessionSet,
    /// Sessions torn down early over the wire (`teardown` op): their
    /// still-scheduled holding-time [`Event::Departure`] must become a
    /// no-op, exactly as `killed` neutralises fault victims' departures.
    wire_torn: SessionSet,
    book: FaultBook,
    refresh_interval: Duration,
    control: ControlFaultModel,
    rec_on: bool,
    sample_interval: Option<f64>,
    next_request_id: u64,
    /// Verdicts given, warm-up included: with the two-phase requests still
    /// in flight, always `next_request_id`.
    verdicts: u64,
    feed: Feed,
    capture_decisions: bool,
    decisions: Vec<Decision>,
    recorder: R,
}

impl<R: Recorder> Sim<R> {
    /// Builds the full simulation state and its event engine, scheduling
    /// warm-up end, the fault timeline, the refresh sweep, the optional
    /// telemetry sampler — and, unless `external`, the first workload
    /// arrival.
    ///
    /// # Panics
    ///
    /// As [`run_experiment`].
    pub(crate) fn new(
        topo: &Topology,
        config: &ExperimentConfig,
        recorder: R,
        external: bool,
    ) -> (Self, Engine<Event>) {
        validate(topo, config);
        let group_specs = config.effective_groups();
        let (groups, route_tables) = route_groups(topo, config, &group_specs);
        let route_sets: Vec<Vec<RouteSet>> = route_tables
            .iter()
            .map(|table| {
                config
                    .sources
                    .iter()
                    .map(|&s| table.route_set(s).expect("table was built for this source"))
                    .collect()
            })
            .collect();
        let links = LinkStateTable::with_uniform_fraction(
            topo,
            config.default_link_capacity,
            config.anycast_fraction,
        );
        let systems = build_systems(topo, config, &groups, &route_tables);

        let mut master_rng = SimRng::seed_from(config.seed);
        let workload = build_workload(config, &mut master_rng);
        let selection_rng = master_rng.fork();
        let mut demand_rng = master_rng.fork();
        let mut group_rng = master_rng.fork();
        // Forked last so the fault stream never perturbs the workload,
        // selection, demand or group streams: a run under FaultPlan::none()
        // is bit-identical to one that predates fault injection.
        let mut fault_rng = master_rng.fork();
        // Forked after the fault stream (and only ever drawn from by backoff
        // jitter) so enabling two-phase signalling perturbs no earlier
        // stream.
        let backoff_rng = master_rng.fork();
        let warmup_end = SimTime::from_secs(config.warmup_secs);
        let horizon = SimTime::from_secs(config.warmup_secs + config.measure_secs);
        let two_phase = match config.signaling {
            SignalingMode::Atomic => None,
            SignalingMode::TwoPhase(cfg) => {
                TwoPhaseState::new(cfg, config.faults.signaling, backoff_rng, warmup_end)
            }
        };
        let group_shares: Vec<f64> = group_specs.iter().map(|g| g.share).collect();
        let demand_weights: Vec<f64> = config.demand_mix.iter().map(|c| c.weight).collect();
        let member_counts: Vec<Vec<u64>> = groups.iter().map(|g| vec![0u64; g.len()]).collect();

        // Soft state costs nothing per live flow: a session whose source
        // refreshes it cannot expire, so only a reservation that loses its
        // PATH_TEAR gets a deadline, armed at the moment it is orphaned; a
        // SoftTick event reclaims it the moment that lifetime ends. A run
        // that orphans nothing arms nothing and schedules no SoftTick.
        let refresh = config.faults.refresh;

        // --- Telemetry state ---------------------------------------------
        // `rec_on` is hoisted so disabled runs pay one branch per hook and
        // never construct an event. The sampler is only scheduled when the
        // recorder asks for it; its handler is read-only and consumes no
        // randomness, so it cannot perturb the metrics.
        let rec_on = recorder.enabled();
        let sample_interval = recorder.link_sample_interval();

        let mut engine: Engine<Event> = Engine::new();
        schedule_fixed_events(
            &mut engine,
            topo,
            config,
            &groups,
            sample_interval,
            &mut fault_rng,
        );
        // The arrival feed. Offline runs draw the first arrival from the
        // workload now; externally-fed (online) runs start with an empty
        // queue and schedule arrivals as they are submitted. The workload
        // was constructed — consuming its RNG forks — in both modes, so the
        // selection/demand/group/fault/backoff streams are seeded identically
        // either way; that is what makes virtual-time replay of a recorded
        // trace bit-identical to the offline engine. The feed has at most
        // one arrival pending, and it waits in the engine's next-event slot.
        let mut feed = if external {
            Feed::External(VecDeque::new())
        } else {
            Feed::Workload(workload)
        };
        if let Some((at, arrival)) = next_feed_arrival(
            &mut feed,
            config,
            &group_shares,
            &demand_weights,
            &mut demand_rng,
            &mut group_rng,
        ) {
            engine.schedule_next(at, arrival);
        }

        let sim = Sim {
            config: config.clone(),
            topo: topo.clone(),
            groups,
            route_sets,
            links,
            rsvp: ReservationEngine::new(),
            systems,
            selection_rng,
            demand_rng,
            group_rng,
            fault_rng,
            two_phase,
            group_shares,
            demand_weights,
            warmup_end,
            horizon,
            stats: AdmissionStats::new(warmup_end),
            group_stats: group_specs
                .iter()
                .map(|_| AdmissionStats::new(warmup_end))
                .collect(),
            member_counts,
            load: None,
            availability: None,
            orphans: OrphanTimers::new(refresh),
            live_flows: SessionMap::default(),
            killed: SessionSet::default(),
            wire_torn: SessionSet::default(),
            book: FaultBook::new(),
            refresh_interval: Duration::from_secs(refresh.refresh_interval_secs),
            control: config.faults.control,
            rec_on,
            sample_interval,
            next_request_id: 0,
            verdicts: 0,
            feed,
            capture_decisions: false,
            decisions: Vec::new(),
            recorder,
        };
        (sim, engine)
    }

    /// Processes one event — the single admission/bookkeeping code path
    /// shared by the offline and online engines.
    pub(crate) fn handle(&mut self, eng: &mut Engine<Event>, now: SimTime, event: Event) {
        match event {
            Event::Arrival(arrival) => self.on_arrival(eng, now, arrival),
            Event::Departure(session) => self.on_departure(eng, now, session),
            Event::Teardown(session) => self.on_delayed_teardown(now, session),
            Event::Fault(action) => self.on_fault(now, action),
            Event::RefreshSweep => {
                // Every flow whose source (or, post-departure, pending
                // delayed teardown) still exists refreshes its state now.
                // None of them holds a deadline, so the sweep is its
                // instant; orphans miss it and keep the deadline they were
                // armed with.
                self.orphans.note_sweep(now.as_secs());
                eng.schedule_in(now, self.refresh_interval, Event::RefreshSweep);
            }
            Event::SoftTick => self.on_soft_tick(eng, now),
            Event::TelemetrySample => self.on_sample(eng, now),
            Event::WarmupEnd => {
                self.rsvp.reset_ledger();
                self.load = Some(LoadWindow::open(now, &self.rsvp, &self.links));
                self.availability = Some(TimeWeighted::new(now, self.links.operational_fraction()));
            }
            Event::Signal(signal) => self.on_signal(eng, now, signal),
        }
    }

    /// A request arrives: it is admitted or rejected on the spot, or, under
    /// event-driven two-phase signalling, its first attempt is launched.
    fn on_arrival(&mut self, eng: &mut Engine<Event>, now: SimTime, arrival: Arrival) {
        let request = self.next_request_id;
        self.next_request_id += 1;
        if self.rec_on {
            self.recorder.record(
                now.as_secs(),
                TelemetryEvent::RequestArrival {
                    request,
                    source: self.config.sources[arrival.source_index],
                    group: arrival.group_index,
                    demand_bps: arrival.demand.bps(),
                },
            );
        }
        if self.two_phase.is_some() {
            self.begin_two_phase(eng, now, request, arrival);
        } else {
            let outcome = self.admit_now(now, request, arrival);
            self.verdict(eng, now, request, arrival, outcome);
        }
        self.note_load(now);
        self.check_accounting();
        if let Some((at, next)) = next_feed_arrival(
            &mut self.feed,
            &self.config,
            &self.group_shares,
            &self.demand_weights,
            &mut self.demand_rng,
            &mut self.group_rng,
        ) {
            eng.schedule_next(at, next);
        }
    }

    /// Decides a request in one instant: every system, and DAC whenever
    /// its exchange is atomic.
    fn admit_now(&mut self, now: SimTime, request: u64, arrival: Arrival) -> AdmissionOutcome {
        let Arrival {
            source_index,
            group_index,
            demand,
            ..
        } = arrival;
        let source = self.config.sources[source_index];
        // SP and the single-path DAC walk the fixed routes; GDI searches
        // the live topology and multipath keeps its own fan table.
        let routes: &[Path] = &self.route_sets[group_index][source_index];
        let (links, rsvp, rng) = (&mut self.links, &mut self.rsvp, &mut self.selection_rng);
        let mut tracer = RequestTracer::new(&mut self.recorder, now.as_secs(), request);
        match &mut self.systems[group_index] {
            SystemState::Dac(controllers) => controllers[source_index].admit_traced(
                routes,
                links,
                rsvp,
                demand,
                rng,
                &mut tracer,
            ),
            SystemState::DacMulti(table, controllers) => {
                let fans = table.routes_from(source);
                controllers[source_index]
                    .admit_traced(fans, links, rsvp, demand, rng, &mut tracer)
                    .outcome
            }
            SystemState::Sp(per_source) => {
                per_source[source_index].admit_traced(routes, links, rsvp, demand, &mut tracer)
            }
            SystemState::Gdi(gdi) => {
                let group = &self.groups[group_index];
                gdi.admit_traced(&self.topo, group, source, links, rsvp, demand, &mut tracer)
            }
        }
    }

    /// Starts an event-driven two-phase admission: the first draw now (the
    /// atomic controller's RNG order), then the first attempt. The verdict
    /// comes when the exchanges resolve.
    fn begin_two_phase(
        &mut self,
        eng: &mut Engine<Event>,
        now: SimTime,
        request: u64,
        arrival: Arrival,
    ) {
        let (controller, routes) = dac_of(&mut self.systems, &self.route_sets, arrival);
        let mut tracer = RequestTracer::new(&mut self.recorder, now.as_secs(), request);
        let mut dac = DacRequest::start(
            controller,
            routes,
            &self.links,
            &mut self.selection_rng,
            &mut tracer,
        );
        dac.suspend(tracer);
        let tp = self.two_phase.as_mut().expect("two-phase mode");
        tp.pending
            .insert(request, PendingAdmission::new(arrival, dac));
        self.start_attempt(eng, now, request);
    }

    /// Launches (or relaunches) the pending request `req`'s attempt toward
    /// its current pick.
    fn start_attempt(&mut self, eng: &mut Engine<Event>, now: SimTime, req: u64) {
        let tp = self.two_phase.as_mut().expect("two-phase mode");
        let p = tp
            .pending
            .get(&req)
            .expect("attempt needs a pending admission");
        let Arrival {
            source_index,
            group_index,
            demand,
            ..
        } = p.arrival;
        let route = &self.route_sets[group_index][source_index][p.request.pick()];
        if route.hops() > 0 {
            tp.launch(eng, now, req, route.clone());
            return;
        }
        // The member is local: zero links to signal over, so the setup
        // completes on the spot — as in the atomic engine.
        let reserved = self
            .rsvp
            .probe_and_reserve(&mut self.links, route, demand)
            .expect("zero-hop routes always admit");
        let latency_secs = tp.completed(now, now.as_secs());
        self.complete_admission(eng, now, req, reserved, 0, latency_secs);
    }

    /// One signalling event, and what it settles for its request.
    fn on_signal(&mut self, eng: &mut Engine<Event>, now: SimTime, signal: Signal) {
        let tp = self
            .two_phase
            .as_mut()
            .expect("signalling events only fire in two-phase mode");
        let mut plane = Plane {
            links: &mut self.links,
            rsvp: &mut self.rsvp,
            fault_rng: &mut self.fault_rng,
            recorder: &mut self.recorder,
            rec_on: self.rec_on,
        };
        match tp.handle(&mut plane, eng, now, signal) {
            Settled::InFlight => {}
            Settled::Admitted {
                req,
                reserved,
                hops,
                latency_secs,
            } => self.complete_admission(eng, now, req, reserved, hops, latency_secs),
            Settled::Failed { req, skip } => self.fail_attempt(eng, now, req, skip),
            Settled::Retransmit(req) => self.start_attempt(eng, now, req),
        }
    }

    /// The pending request `req`'s attempt installed `reserved` over
    /// `hops` links, `latency_secs` after it began.
    fn complete_admission(
        &mut self,
        eng: &mut Engine<Event>,
        now: SimTime,
        req: u64,
        reserved: ReservationOutcome,
        hops: usize,
        latency_secs: f64,
    ) {
        let tp = self.two_phase.as_mut().expect("two-phase mode");
        let mut p = tp
            .pending
            .remove(&req)
            .expect("completing setups belong to a pending admission");
        let (controller, _) = dac_of(&mut self.systems, &self.route_sets, p.arrival);
        let mut tracer = p.request.resume(&mut self.recorder, now.as_secs(), req);
        let outcome = p.request.admitted(controller, reserved, hops, &mut tracer);
        drop(tracer);
        if self.rec_on {
            self.recorder.record(
                now.as_secs(),
                TelemetryEvent::SetupCompleted {
                    request: req,
                    session: reserved.session,
                    latency_secs,
                },
            );
        }
        self.verdict(eng, now, req, p.arrival, outcome);
        self.note_load(now);
    }

    /// The pending request `req`'s attempt failed for `skip`: its DAC
    /// request either draws another destination or rejects.
    fn fail_attempt(&mut self, eng: &mut Engine<Event>, now: SimTime, req: u64, skip: SkipReason) {
        let tp = self.two_phase.as_mut().expect("two-phase mode");
        let p = tp
            .pending
            .get_mut(&req)
            .expect("failed attempts belong to a pending admission");
        let (controller, routes) = dac_of(&mut self.systems, &self.route_sets, p.arrival);
        let mut tracer = p.request.resume(&mut self.recorder, now.as_secs(), req);
        let retry = p.request.failed(
            controller,
            routes,
            &self.links,
            &mut self.selection_rng,
            skip,
            &mut tracer,
        );
        p.request.suspend(tracer);
        if retry {
            self.start_attempt(eng, now, req);
        } else {
            let p = tp.pending.remove(&req).expect("still pending");
            self.verdict(eng, now, req, p.arrival, p.request.rejected());
        }
    }

    /// Where every request's verdict lands, whichever path decided it: the
    /// statistics, the captured decision and, for an admission, the flow's
    /// departure. The load window is noted by the caller once its event's
    /// changes are all in: at the end of an arrival, after a two-phase
    /// completion.
    fn verdict(
        &mut self,
        eng: &mut Engine<Event>,
        now: SimTime,
        request: u64,
        arrival: Arrival,
        outcome: AdmissionOutcome,
    ) {
        self.verdicts += 1;
        let admitted = outcome.admitted;
        self.stats.record(now, admitted.is_some(), outcome.tries);
        self.group_stats[arrival.group_index].record(now, admitted.is_some(), outcome.tries);
        if self.capture_decisions {
            self.decisions.push(Decision {
                request,
                at_secs: now.as_secs(),
                admitted: admitted.is_some(),
                member_index: admitted.map(|f| f.member_index),
                session: admitted.map(|f| f.session),
                tries: outcome.tries,
            });
        }
        if let Some(flow) = admitted {
            if now >= self.warmup_end {
                self.member_counts[arrival.group_index][flow.member_index] += 1;
            }
            self.live_flows.insert(flow.session, now.as_secs());
            eng.schedule_in(
                now,
                Duration::from_secs(arrival.holding_secs),
                Event::Departure(flow.session),
            );
        }
        self.check_accounting();
    }

    /// The request-accounting identity: every request offered so far has
    /// exactly one verdict, or is a two-phase request still in flight.
    fn check_accounting(&self) {
        debug_assert_eq!(
            self.verdicts
                + self
                    .two_phase
                    .as_ref()
                    .map_or(0, |tp| tp.pending.len() as u64),
            self.next_request_id,
            "every request gets exactly one verdict"
        );
    }

    /// A flow's holding time ends.
    fn on_departure(&mut self, eng: &mut Engine<Event>, now: SimTime, session: SessionId) {
        if self.wire_torn.remove(&session) {
            // The endpoint already tore this reservation down over the wire
            // (or its teardown is lost/in flight); the holding-time
            // departure has nothing left to do.
            return;
        }
        let admitted_at = self
            .live_flows
            .remove(&session)
            .expect("a flow is live until it departs");
        if self.killed.remove(&session) {
            // The reservation already died with a fault; the flow's
            // endpoints have nothing left to tear down.
            return;
        }
        self.release(eng, now, session, admitted_at);
    }

    /// The source's PATH_TEAR for a live flow's `session`, under the
    /// control-plane fault model: lost, the reservation holds its bandwidth
    /// until soft state expires it (§4.4); delayed, an
    /// [`Event::Teardown`] lands later; otherwise it releases now.
    fn release(
        &mut self,
        eng: &mut Engine<Event>,
        now: SimTime,
        session: SessionId,
        admitted_at: f64,
    ) {
        let control = self.control;
        if control.teardown_loss_probability > 0.0
            && self.fault_rng.uniform() < control.teardown_loss_probability
        {
            if let Some(tick) = self.orphans.orphan(session, admitted_at) {
                eng.schedule_at(SimTime::from_secs(tick), Event::SoftTick);
            }
            self.book.note_orphan_created();
        } else if control.teardown_delay_secs > 0.0 {
            let delay = self.fault_rng.exp_duration(control.teardown_delay_secs);
            eng.schedule_in(now, delay, Event::Teardown(session));
        } else {
            self.rsvp
                .teardown(&mut self.links, session)
                .expect("live flows hold live sessions");
            self.note_teardown(now, session, TeardownReason::Departure);
            self.note_load(now);
        }
    }

    /// A delayed PATH_TEAR lands.
    fn on_delayed_teardown(&mut self, now: SimTime, session: SessionId) {
        if self.killed.remove(&session) {
            // A fault beat the delayed teardown to the reservation.
            return;
        }
        self.rsvp
            .teardown(&mut self.links, session)
            .expect("delayed teardowns target live sessions");
        self.note_teardown(now, session, TeardownReason::Delayed);
        self.note_load(now);
    }

    /// One fault-plan action: the ledger and the outage book follow it, and
    /// a failure tears down every reservation crossing what failed.
    fn on_fault(&mut self, now: SimTime, action: FaultAction) {
        let t = now.as_secs();
        let (entity, kind, victims) = match action {
            FaultAction::FailLink(link) => {
                self.links
                    .fail_link(link)
                    .expect("fault plan references known links");
                let victims = self.rsvp.sessions_using_link(link);
                (
                    FaultEntity::Link(link),
                    FaultKind::Link(link),
                    Some(victims),
                )
            }
            FaultAction::CrashNode(node) => {
                self.links
                    .fail_node(node)
                    .expect("fault plan references known nodes");
                let victims = self.rsvp.sessions_through_node(node);
                (
                    FaultEntity::Node(node),
                    FaultKind::Node(node),
                    Some(victims),
                )
            }
            FaultAction::RestoreLink(link) => {
                self.links
                    .restore_link(link)
                    .expect("fault plan references known links");
                (FaultEntity::Link(link), FaultKind::Link(link), None)
            }
            FaultAction::RestoreNode(node) => {
                self.links
                    .restore_node(node)
                    .expect("fault plan references known nodes");
                (FaultEntity::Node(node), FaultKind::Node(node), None)
            }
        };
        let event = if victims.is_some() {
            self.book.record_down(entity, t);
            TelemetryEvent::FaultFired { entity: kind }
        } else {
            self.book.record_up(entity, t);
            TelemetryEvent::FaultHealed { entity: kind }
        };
        if self.rec_on {
            self.recorder.record(t, event);
        }
        for session in victims.into_iter().flatten() {
            self.rsvp
                .teardown(&mut self.links, session)
                .expect("fault victims hold live reservations");
            self.note_teardown(now, session, TeardownReason::FaultKilled);
            if self.orphans.cancel(session) {
                // The fault returned an orphan's bandwidth before soft
                // state got to it.
                self.book.note_orphan_reclaimed();
            } else {
                // A Departure or delayed Teardown event is still pending
                // for this session and must become a no-op.
                self.killed.insert(session);
                if self.live_flows.contains_key(&session) {
                    self.book.note_flow_killed();
                }
            }
        }
        debug_assert_eq!(self.links.audit().err(), None, "after {action:?}");
        if let Some(tw) = self.availability.as_mut() {
            tw.update(now, self.links.operational_fraction());
        }
        self.note_load(now);
    }

    /// Exact-deadline soft-state expiry: reclaims precisely the orphans
    /// whose lifetime just ended. Only ever scheduled once a reservation
    /// has been orphaned, and consumes no randomness.
    fn on_soft_tick(&mut self, eng: &mut Engine<Event>, now: SimTime) {
        let mut reclaimed_any = false;
        for session in self.orphans.pop_expired(now.as_secs()) {
            self.rsvp
                .teardown(&mut self.links, session)
                .expect("expired sessions hold reservations");
            self.book.note_orphan_reclaimed();
            reclaimed_any = true;
            self.note_teardown(now, session, TeardownReason::SoftStateExpired);
        }
        if reclaimed_any {
            self.note_load(now);
        }
        if let Some(tick) = self.orphans.tick_needed() {
            eng.schedule_at(SimTime::from_secs(tick), Event::SoftTick);
        }
    }

    /// Read-only periodic probe of the link-state table: consumes no
    /// randomness and mutates nothing, so scheduling it (or not) leaves
    /// the simulated system bit-identical. Walks the sharded view stripe
    /// by stripe — ascending shard order is ascending link order.
    fn on_sample(&mut self, eng: &mut Engine<Event>, now: SimTime) {
        let sharded = self.links.sharded();
        for shard in 0..sharded.shard_count() {
            for (link, snap) in sharded.iter_shard(shard) {
                self.recorder.record(
                    now.as_secs(),
                    TelemetryEvent::LinkSample {
                        link,
                        reserved_bps: snap.reserved.bps(),
                        capacity_bps: snap.capacity.bps(),
                        flows: snap.flows,
                        failed: snap.failed,
                    },
                );
            }
        }
        if let Some(interval_secs) = self.sample_interval {
            eng.schedule_in(
                now,
                Duration::from_secs(interval_secs),
                Event::TelemetrySample,
            );
        }
    }

    /// Records that `session`'s reservation was torn down for `reason`.
    fn note_teardown(&mut self, now: SimTime, session: SessionId, reason: TeardownReason) {
        if self.rec_on {
            self.recorder.record(
                now.as_secs(),
                TelemetryEvent::ReservationTeardown { session, reason },
            );
        }
    }

    /// Records the load window's signals as of `now` (after warm-up).
    fn note_load(&mut self, now: SimTime) {
        if let Some(window) = self.load.as_mut() {
            window.note(now, &self.rsvp, &self.links);
        }
    }

    /// Finishes the run: drains in-flight two-phase setups, audits the
    /// bandwidth ledger and assembles the [`Metrics`], with time-weighted
    /// averages taken over `[warmup_end, end]`. The offline engine passes
    /// the horizon; the online engine passes wherever its clock stopped.
    pub(crate) fn finish(mut self, end: SimTime) -> (Metrics, R) {
        self.check_accounting();
        // Orphans expire exactly at their soft-state deadline via SoftTick
        // events inside the run, so no closing sweep is needed: an orphan
        // still armed at the horizon is genuinely within lifetime.
        //
        // Drain in-flight two-phase setups: their exchanges never resolved
        // (censored, like any open request at the horizon) and their holds
        // go back. Every held bit must belong to a tabled setup — whatever
        // the hold column still shows afterwards leaked.
        if let Some(tp) = self.two_phase.as_mut() {
            tp.drain(&mut self.links);
        }
        // The run's one full pass over the ledger (release builds too):
        // the leak figures below come from the scanned columns, not from
        // the running totals the hot path read, and a total that drifted
        // from its column is a bug worth stopping on.
        let audited = self
            .links
            .audit()
            .expect("the link ledger must pass its end-of-run audit");
        let leaked_hold_bps = audited.pending_bps;
        // Audit the bandwidth ledger: every reserved bit must be
        // attributable to a surviving session (live flows, pending
        // teardowns, and orphans still inside their soft-state lifetime).
        let attributable: u64 = self
            .rsvp
            .sessions()
            .map(|(_, r)| r.bandwidth().bps() * r.path().links().len() as u64)
            .sum();
        let leaked_bandwidth_bps = audited.reserved_bps.saturating_sub(attributable);

        let messages = self.rsvp.ledger().clone();
        let offered = self.stats.offered();
        let tp = self.two_phase.as_ref();
        let metrics = Metrics {
            label: self.config.system.label(),
            lambda: self.config.lambda,
            seed: self.config.seed,
            admission_probability: self.stats.admission_probability(),
            ap_ci95: self.stats.ap_ci95_half_width(),
            offered,
            admitted: self.stats.admitted(),
            mean_tries: self.stats.mean_tries(),
            mean_retrials: self.stats.mean_retrials(),
            messages_per_request: if offered == 0 {
                0.0
            } else {
                messages.total() as f64 / offered as f64
            },
            messages,
            tries_histogram: self.stats.tries_histogram().buckets().to_vec(),
            per_group_ap: self
                .group_stats
                .iter()
                .map(|s| s.admission_probability())
                .collect(),
            member_share: self
                .member_counts
                .iter()
                .map(|counts| {
                    let total: u64 = counts.iter().sum();
                    counts
                        .iter()
                        .map(|&c| {
                            if total == 0 {
                                0.0
                            } else {
                                c as f64 / total as f64
                            }
                        })
                        .collect()
                })
                .collect(),
            mean_active_flows: self
                .load
                .as_ref()
                .map_or(0.0, |w| w.active.average_until(end)),
            mean_network_utilization: self.load.as_ref().map_or(0.0, |w| {
                if audited.capacity_bps == 0 {
                    0.0
                } else {
                    w.reserved_bw.average_until(end) / audited.capacity_bps as f64
                }
            }),
            availability: self
                .availability
                .as_ref()
                .map(|tw| tw.average_until(end))
                .unwrap_or(1.0),
            flows_killed_by_failure: self.book.flows_killed(),
            outages: self.book.completed_outages(),
            mean_recovery_secs: self.book.mean_recovery_secs(),
            orphaned_reservations: self.book.orphans_created(),
            orphans_reclaimed: self.book.orphans_reclaimed(),
            leaked_bandwidth_bps,
            holds_placed: tp.map_or(0, |tp| tp.holds_placed),
            holds_expired: tp.map_or(0, |tp| tp.holds_expired),
            setups_completed: tp.map_or(0, |tp| tp.setups_completed),
            retransmits: tp.map_or(0, |tp| tp.retransmits),
            signaling_messages_lost: tp.map_or(0, |tp| tp.msgs_lost),
            mean_setup_latency_secs: tp.map_or(0.0, TwoPhaseState::mean_setup_latency_secs),
            leaked_hold_bps,
        };
        (metrics, self.recorder)
    }

    /// The run horizon (`warmup_secs + measure_secs`).
    pub(crate) fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Number of configured source routers.
    pub(crate) fn source_count(&self) -> usize {
        self.config.sources.len()
    }

    /// Number of effective anycast groups.
    pub(crate) fn group_count(&self) -> usize {
        self.group_shares.len()
    }

    /// Turns on per-request [`Decision`] capture (off for offline runs,
    /// so their instruction stream is untouched).
    pub(crate) fn enable_decision_capture(&mut self) {
        self.capture_decisions = true;
    }

    /// Drains the decisions captured since the last call.
    pub(crate) fn take_decisions(&mut self) -> Vec<Decision> {
        std::mem::take(&mut self.decisions)
    }

    /// Shared access to the recorder.
    pub(crate) fn recorder(&self) -> &R {
        &self.recorder
    }

    /// A point-in-time operational snapshot for the service loop.
    pub(crate) fn snapshot(&self, now: SimTime) -> ServiceSnapshot {
        let summary = self.links.summary();
        ServiceSnapshot {
            time_secs: now.as_secs(),
            offered: self.stats.offered(),
            admitted: self.stats.admitted(),
            rejected: self.stats.rejected(),
            active_sessions: self.rsvp.active_sessions(),
            reserved_bps: summary.reserved_bps,
            pending_hold_bps: summary.pending_bps,
            capacity_bps: summary.capacity_bps,
            setups_in_flight: self
                .two_phase
                .as_ref()
                .map_or(0, TwoPhaseState::setups_in_flight),
            links: summary.links,
            failed_links: summary.failed_links,
            window_secs: 0.0,
            window_offered: 0,
            window_admitted: 0,
            window_rejected: 0,
        }
    }

    /// Pushes the run horizon out to [`UNBOUNDED_HORIZON_SECS`]: the
    /// rolling-window service mode, where the daemon runs until told to
    /// stop instead of to a configured measurement horizon. The fault
    /// timeline and any workload pre-draw keep the original
    /// `warmup + measure` span; only the engine's stopping time moves.
    pub(crate) fn make_unbounded(&mut self) {
        self.horizon = SimTime::from_secs(UNBOUNDED_HORIZON_SECS);
    }

    /// Tears down a live admitted session right now — the wire `teardown`
    /// op. Returns `false` when the session is not a live flow (already
    /// departed, already torn down, killed by a fault, or never existed):
    /// the op is idempotent and a lost or late teardown is harmless,
    /// because the holding-time departure and the §4.4 soft-state expiry
    /// path reclaim the reservation anyway.
    ///
    /// The control-plane fault model applies exactly as to a natural
    /// departure: the internal PATH_TEAR can be lost (the reservation
    /// orphans and soft state reclaims it) or delayed (a
    /// [`Event::Teardown`] lands later). Either way the still-scheduled
    /// holding-time departure is neutralised via `wire_torn`.
    pub(crate) fn teardown_session(&mut self, eng: &mut Engine<Event>, session: SessionId) -> bool {
        if !self.live_flows.contains_key(&session) {
            return false;
        }
        if self.killed.contains(&session) {
            // A fault already reclaimed the reservation; the endpoint's
            // teardown finds nothing. The `killed` marker stays for the
            // still-scheduled holding-time departure to consume.
            return false;
        }
        let admitted_at = self
            .live_flows
            .remove(&session)
            .expect("checked live above");
        self.wire_torn.insert(session);
        self.release(eng, eng.now(), session, admitted_at);
        true
    }

    /// Enqueues one externally-submitted arrival.
    ///
    /// When no arrival is scheduled (the engine's next-event slot is
    /// empty: the queue had run dry) this one is scheduled directly;
    /// otherwise it waits in the queue for the
    /// arrival before it to pop it — exactly where the offline engine
    /// would have drawn it from the workload.
    ///
    /// # Panics
    ///
    /// Panics if the simulation is workload-driven, the arrival references
    /// an unknown source or group, its demand or holding time is not
    /// positive, or it is earlier than a previously submitted arrival.
    pub(crate) fn submit_arrival(&mut self, engine: &mut Engine<Event>, arrival: OnlineArrival) {
        assert!(
            arrival.source_index < self.config.sources.len(),
            "arrival references unknown source index {}",
            arrival.source_index
        );
        assert!(
            arrival.group_index < self.group_shares.len(),
            "arrival references unknown group index {}",
            arrival.group_index
        );
        assert!(
            arrival.holding_secs.is_finite() && arrival.holding_secs > 0.0,
            "arrival holding time must be positive, got {}",
            arrival.holding_secs
        );
        assert!(arrival.demand.bps() > 0, "arrival demand must be positive");
        let Feed::External(queue) = &mut self.feed else {
            panic!("submit_arrival requires an externally-fed simulation");
        };
        let at = SimTime::from_secs(arrival.at_secs);
        if let Some((last, _)) = queue.back() {
            assert!(
                at >= *last,
                "arrivals must be submitted in nondecreasing time order"
            );
        }
        let event = Event::Arrival(Arrival {
            source_index: arrival.source_index,
            group_index: arrival.group_index,
            holding_secs: arrival.holding_secs,
            demand: arrival.demand,
        });
        if engine.next_scheduled() {
            queue.push_back((at, event));
        } else {
            engine.schedule_next(at, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anycast_chaos::{MessageFault, SignalingFaults};

    fn quick(lambda: f64, system: SystemSpec) -> ExperimentConfig {
        ExperimentConfig::paper_defaults(lambda, system)
            .with_warmup_secs(300.0)
            .with_measure_secs(600.0)
            .with_seed(11)
    }

    #[test]
    fn low_load_admits_everything() {
        let topo = topologies::mci();
        for system in [
            SystemSpec::dac(PolicySpec::Ed, 1),
            SystemSpec::ShortestPath,
            SystemSpec::GlobalDynamic,
        ] {
            let m = run_experiment(&topo, &quick(0.5, system));
            assert!(
                m.admission_probability > 0.999,
                "{}: AP {} at trivial load",
                m.label,
                m.admission_probability
            );
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let topo = topologies::mci();
        let cfg = quick(20.0, SystemSpec::dac(PolicySpec::Ed, 2));
        let a = run_experiment(&topo, &cfg);
        let b = run_experiment(&topo, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn seeds_vary_outcomes() {
        let topo = topologies::mci();
        let cfg = quick(20.0, SystemSpec::dac(PolicySpec::Ed, 2));
        let a = run_experiment(&topo, &cfg);
        let b = run_experiment(&topo, &cfg.clone().with_seed(99));
        assert_ne!(
            a.admitted, b.admitted,
            "different seeds should explore different sample paths"
        );
    }

    #[test]
    fn high_load_rejects_some() {
        let topo = topologies::mci();
        let m = run_experiment(&topo, &quick(50.0, SystemSpec::dac(PolicySpec::Ed, 1)));
        assert!(
            m.admission_probability < 0.9,
            "AP {}",
            m.admission_probability
        );
        assert!(m.admission_probability > 0.1);
        assert!(m.offered > 10_000);
        assert_eq!(m.offered, m.admitted + (m.offered - m.admitted));
        assert!(m.mean_active_flows > 0.0);
        assert!(m.messages.total() > 0);
        assert!(m.messages_per_request > 0.0);
    }

    #[test]
    fn retrials_increase_ap_and_tries() {
        let topo = topologies::mci();
        let r1 = run_experiment(&topo, &quick(35.0, SystemSpec::dac(PolicySpec::Ed, 1)));
        let r3 = run_experiment(&topo, &quick(35.0, SystemSpec::dac(PolicySpec::Ed, 3)));
        assert!(
            r3.admission_probability > r1.admission_probability,
            "R=3 {} must beat R=1 {}",
            r3.admission_probability,
            r1.admission_probability
        );
        assert!(r3.mean_tries > r1.mean_tries);
        assert!((r1.mean_tries - 1.0).abs() < 1e-9, "R=1 always tries once");
        assert_eq!(r1.mean_retrials, 0.0);
    }

    #[test]
    fn gdi_dominates_sp_at_load() {
        let topo = topologies::mci();
        let sp = run_experiment(&topo, &quick(35.0, SystemSpec::ShortestPath));
        let gdi = run_experiment(&topo, &quick(35.0, SystemSpec::GlobalDynamic));
        assert!(
            gdi.admission_probability > sp.admission_probability,
            "GDI {} vs SP {}",
            gdi.admission_probability,
            sp.admission_probability
        );
    }

    #[test]
    fn labels_match_paper_notation() {
        assert_eq!(SystemSpec::dac(PolicySpec::Ed, 2).label(), "<ED,2>");
        assert_eq!(
            SystemSpec::dac(PolicySpec::wd_dh_default(), 3).label(),
            "<WD/D+H,3>"
        );
        assert_eq!(SystemSpec::dac(PolicySpec::WdDb, 1).label(), "<WD/D+B,1>");
        assert_eq!(SystemSpec::ShortestPath.label(), "SP");
        assert_eq!(SystemSpec::GlobalDynamic.label(), "GDI");
    }

    #[test]
    fn member_share_reflects_algorithm_bias() {
        let topo = topologies::mci();
        // ED spreads uniformly; SP concentrates per source on the nearest
        // member, so its shares are lumpier.
        let ed = run_experiment(&topo, &quick(10.0, SystemSpec::dac(PolicySpec::Ed, 1)));
        let sp = run_experiment(&topo, &quick(10.0, SystemSpec::ShortestPath));
        let spread = |shares: &[f64]| -> f64 {
            let max = shares.iter().cloned().fold(0.0, f64::max);
            let min = shares.iter().cloned().fold(f64::INFINITY, f64::min);
            max - min
        };
        let ed_shares = &ed.member_share[0];
        let sp_shares = &sp.member_share[0];
        assert_eq!(ed_shares.len(), 5);
        assert!((ed_shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(
            spread(ed_shares) < 0.1,
            "ED at low load is near-uniform: {ed_shares:?}"
        );
        assert!(
            spread(sp_shares) > spread(ed_shares),
            "SP concentrates: {sp_shares:?} vs ED {ed_shares:?}"
        );
    }

    #[test]
    fn utilization_tracks_load_and_algorithm() {
        let topo = topologies::mci();
        // More admitted flows → more reserved bandwidth. GDI admits the
        // most, so it utilises the partition at least as much as SP.
        let sp = run_experiment(&topo, &quick(35.0, SystemSpec::ShortestPath));
        let gdi = run_experiment(&topo, &quick(35.0, SystemSpec::GlobalDynamic));
        assert!(sp.mean_network_utilization > 0.0);
        assert!(sp.mean_network_utilization < 1.0);
        assert!(
            gdi.mean_network_utilization > sp.mean_network_utilization,
            "GDI {} must fill more of the partition than SP {}",
            gdi.mean_network_utilization,
            sp.mean_network_utilization
        );
        // And utilization grows with offered load.
        let light = run_experiment(&topo, &quick(5.0, SystemSpec::ShortestPath));
        assert!(light.mean_network_utilization < sp.mean_network_utilization);
    }

    #[test]
    fn multi_group_splits_traffic() {
        let topo = topologies::mci();
        let groups = vec![
            GroupSpec {
                members: vec![NodeId::new(0), NodeId::new(8), NodeId::new(16)],
                share: 2.0,
            },
            GroupSpec {
                members: vec![NodeId::new(4), NodeId::new(12)],
                share: 1.0,
            },
        ];
        let cfg = quick(25.0, SystemSpec::dac(PolicySpec::wd_dh_default(), 2)).with_groups(groups);
        let m = run_experiment(&topo, &cfg);
        assert_eq!(m.per_group_ap.len(), 2);
        for &ap in &m.per_group_ap {
            assert!(ap > 0.0 && ap <= 1.0);
        }
        // Overall AP is a weighted combination, so it lies between the
        // per-group extremes.
        let lo = m.per_group_ap.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = m.per_group_ap.iter().cloned().fold(0.0, f64::max);
        assert!(m.admission_probability >= lo - 1e-12);
        assert!(m.admission_probability <= hi + 1e-12);
    }

    #[test]
    fn single_group_field_matches_groups_vec() {
        // Configuring the paper group explicitly through `groups` must be
        // equivalent to the legacy `group_members` field.
        let topo = topologies::mci();
        let base = quick(30.0, SystemSpec::dac(PolicySpec::Ed, 2));
        let a = run_experiment(&topo, &base);
        let explicit = base.clone().with_groups(vec![GroupSpec {
            members: topologies::MCI_GROUP_MEMBERS.map(NodeId::new).to_vec(),
            share: 1.0,
        }]);
        let b = run_experiment(&topo, &explicit);
        assert_eq!(a.admitted, b.admitted);
        assert_eq!(a.admission_probability, b.admission_probability);
        assert_eq!(b.per_group_ap.len(), 1);
        assert_eq!(b.per_group_ap[0], b.admission_probability);
    }

    #[test]
    fn multipath_system_dominates_single_path() {
        let topo = topologies::mci();
        let single = run_experiment(
            &topo,
            &quick(35.0, SystemSpec::dac(PolicySpec::wd_dh_default(), 2)),
        );
        let multi = run_experiment(
            &topo,
            &quick(
                35.0,
                SystemSpec::dac_multipath(PolicySpec::wd_dh_default(), 2, 2),
            ),
        );
        assert_eq!(multi.label, "<WD/D+H,2,k=2>");
        assert!(
            multi.admission_probability > single.admission_probability,
            "multipath {} must beat single-path {}",
            multi.admission_probability,
            single.admission_probability
        );
    }

    #[test]
    fn bursty_arrivals_lower_ap_at_equal_mean_load() {
        // Burstiness concentrates arrivals, so blocking worsens at the
        // same long-run rate — the classic overdispersion penalty.
        let topo = topologies::mci();
        let system = SystemSpec::dac(PolicySpec::wd_dh_default(), 2);
        // Long enough for the modulating chain to cycle ~40 times, else
        // the realised mean rate is dominated by a few sojourns.
        let base = quick(30.0, system).with_measure_secs(2_400.0);
        let poisson = run_experiment(&topo, &base);
        let bursty = run_experiment(
            &topo,
            &base.clone().with_arrivals(ArrivalProcess::Bursty {
                burstiness: 1.9,
                mean_sojourn_secs: 60.0,
            }),
        );
        assert!(
            bursty.admission_probability < poisson.admission_probability,
            "bursty {} must underperform Poisson {}",
            bursty.admission_probability,
            poisson.admission_probability
        );
        // Comparable offered volume (same mean rate).
        let ratio = bursty.offered as f64 / poisson.offered as f64;
        assert!((0.8..1.2).contains(&ratio), "offered ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "shares must be positive")]
    fn bad_group_share_panics() {
        let _ = ExperimentConfig::paper_defaults(1.0, SystemSpec::ShortestPath).with_groups(vec![
            GroupSpec {
                members: vec![NodeId::new(0)],
                share: 0.0,
            },
        ]);
    }

    #[test]
    #[should_panic(expected = "not in topology")]
    fn unknown_source_panics() {
        let topo = topologies::mci();
        let cfg = quick(1.0, SystemSpec::ShortestPath).with_sources(vec![NodeId::new(99)]);
        let _ = run_experiment(&topo, &cfg);
    }

    #[test]
    fn zero_fault_plan_reproduces_fault_free_metrics_exactly() {
        let topo = topologies::mci();
        let base = quick(30.0, SystemSpec::dac(PolicySpec::Ed, 2));
        let fault_free = run_experiment(&topo, &base);
        // An explicit (but inert) plan, and a plan whose only scripted
        // action lies beyond the horizon, must both be bit-identical to
        // the fault-free run.
        let explicit = base.clone().with_faults(FaultPlan::none());
        assert_eq!(fault_free, run_experiment(&topo, &explicit));
        let beyond = base.clone().with_faults(FaultPlan::none().with_scripted(
            1_000_000.0,
            FaultAction::FailLink(anycast_net::LinkId::new(0)),
        ));
        assert_eq!(fault_free, run_experiment(&topo, &beyond));
        assert_eq!(fault_free.availability, 1.0);
        assert_eq!(fault_free.flows_killed_by_failure, 0);
        assert_eq!(fault_free.orphaned_reservations, 0);
        assert_eq!(fault_free.leaked_bandwidth_bps, 0);
    }

    #[test]
    fn faulty_runs_replay_bit_identically() {
        let topo = topologies::mci();
        let mut plan = FaultPlan::none()
            .with_link_model(400.0, 60.0)
            .with_member_model(600.0, 120.0);
        plan.control.teardown_loss_probability = 0.1;
        plan.control.teardown_delay_secs = 2.0;
        let cfg = quick(25.0, SystemSpec::dac(PolicySpec::wd_dh_default(), 2)).with_faults(plan);
        let a = run_experiment(&topo, &cfg);
        let b = run_experiment(&topo, &cfg);
        assert_eq!(a, b, "same seed + same plan must replay exactly");
        assert!(a.outages > 0, "the stochastic models must actually fire");
    }

    #[test]
    fn link_faults_cost_availability_without_leaking_bandwidth() {
        let topo = topologies::mci();
        let plan = FaultPlan::none().with_link_model(500.0, 100.0);
        let cfg = quick(25.0, SystemSpec::dac(PolicySpec::Ed, 2)).with_faults(plan);
        let m = run_experiment(&topo, &cfg);
        assert!(
            m.availability < 1.0,
            "links failing every ~500 s must dent availability, got {}",
            m.availability
        );
        assert!(m.availability > 0.5, "MTTR ≪ MTBF keeps most links up");
        assert!(m.flows_killed_by_failure > 0);
        assert!(m.outages > 0);
        assert!(m.mean_recovery_secs > 0.0);
        assert_eq!(m.leaked_bandwidth_bps, 0, "no fault may leak bandwidth");
        assert!(
            m.admission_probability < 1.0,
            "lost capacity must cost some admissions"
        );
    }

    /// Soft state is work per orphan, not per flow: a run that loses no
    /// teardown — link faults, delayed teardowns and all — arms no expiry
    /// timer and handles no `SoftTick`, and a lossy one arms exactly one
    /// timer per orphan. Counted, not timed.
    #[test]
    fn only_orphans_arm_soft_state_timers() {
        let topo = topologies::mci();
        let run = |plan: FaultPlan| {
            let cfg = quick(25.0, SystemSpec::dac(PolicySpec::Ed, 2)).with_faults(plan);
            let (mut sim, mut engine) = Sim::new(&topo, &cfg, NullRecorder, false);
            let horizon = sim.horizon;
            let (mut sweeps, mut soft_ticks) = (0u64, 0u64);
            engine.run_until(horizon, |eng, now, event| {
                sweeps += u64::from(matches!(event, Event::RefreshSweep));
                soft_ticks += u64::from(matches!(event, Event::SoftTick));
                sim.handle(eng, now, event)
            });
            assert_eq!(sweeps, 30, "one sweep per 30 s of a 900 s run");
            let armed = sim.orphans.armed_total();
            (armed, soft_ticks, sim.finish(horizon).0)
        };
        let mut lossless = FaultPlan::none().with_link_model(400.0, 60.0);
        lossless.control.teardown_delay_secs = 2.0;
        let (armed, soft_ticks, m) = run(lossless.clone());
        assert!(m.flows_killed_by_failure > 0 && m.admitted > 10_000);
        assert_eq!((armed, soft_ticks), (0, 0));

        let mut lossy = lossless;
        lossy.control.teardown_loss_probability = 0.1;
        let (armed, soft_ticks, m) = run(lossy);
        assert!(m.orphaned_reservations > 100 && m.orphans_reclaimed > 0);
        assert_eq!(armed, m.orphaned_reservations);
        assert!(soft_ticks > 0);
    }

    #[test]
    fn lost_teardowns_orphan_and_soft_state_reclaims() {
        let topo = topologies::mci();
        let mut plan = FaultPlan::none();
        plan.control.teardown_loss_probability = 0.25;
        let cfg = quick(15.0, SystemSpec::dac(PolicySpec::Ed, 2)).with_faults(plan);
        let m = run_experiment(&topo, &cfg);
        assert!(
            m.orphaned_reservations > 100,
            "a quarter of teardowns vanish: {}",
            m.orphaned_reservations
        );
        assert!(
            m.orphans_reclaimed > 0,
            "refresh sweeps must expire orphans"
        );
        // Orphans linger ≤ one lifetime + one sweep; with a 900 s run and
        // a 90 s lifetime, nearly all created orphans are reclaimed.
        assert!(m.orphans_reclaimed <= m.orphaned_reservations);
        assert_eq!(m.leaked_bandwidth_bps, 0);
        // Orphans hold bandwidth the fault-free run would have released,
        // so admission can only get worse.
        let clean = run_experiment(&topo, &quick(15.0, SystemSpec::dac(PolicySpec::Ed, 2)));
        assert!(m.admission_probability <= clean.admission_probability);
    }

    #[test]
    fn scripted_member_crash_shifts_traffic() {
        let topo = topologies::mci();
        let member = NodeId::new(0);
        let plan = FaultPlan::none()
            .with_scripted(400.0, FaultAction::CrashNode(member))
            .with_scripted(700.0, FaultAction::RestoreNode(member));
        let cfg = quick(10.0, SystemSpec::dac(PolicySpec::Ed, 3)).with_faults(plan);
        let m = run_experiment(&topo, &cfg);
        let clean = run_experiment(&topo, &quick(10.0, SystemSpec::dac(PolicySpec::Ed, 3)));
        assert!(m.availability < 1.0, "a crashed member downs its links");
        assert_eq!(m.outages, 1);
        assert!((m.mean_recovery_secs - 300.0).abs() < 1e-6);
        // The crashed member (group index 0) receives less than its
        // fault-free share while the outage lasts.
        assert!(m.member_share[0][0] < clean.member_share[0][0]);
        assert_eq!(m.leaked_bandwidth_bps, 0);
    }

    #[test]
    fn degenerate_two_phase_is_bit_identical_to_atomic() {
        // Zero per-hop delay + an inert `[signaling]` fault section must
        // reproduce the atomic engine exactly: same metrics, same message
        // ledger, same member shares — the two-phase machinery only
        // changes behaviour when latency or loss actually exists.
        let topo = topologies::mci();
        for policy in [
            PolicySpec::Ed,
            PolicySpec::WdDb,
            PolicySpec::wd_dh_default(),
        ] {
            let base = quick(30.0, SystemSpec::dac(policy, 2));
            let atomic = run_experiment(&topo, &base);
            let degenerate = base
                .clone()
                .with_signaling(SignalingMode::TwoPhase(TwoPhaseConfig::default()));
            assert_eq!(
                atomic,
                run_experiment(&topo, &degenerate),
                "degenerate two-phase must be bit-identical to atomic for {policy:?}"
            );
        }
    }

    #[test]
    fn delayed_two_phase_admits_and_replays_deterministically() {
        let topo = topologies::mci();
        let cfg = quick(20.0, SystemSpec::dac(PolicySpec::Ed, 2)).with_signaling(
            SignalingMode::TwoPhase(TwoPhaseConfig {
                per_hop_delay_secs: 0.05,
                ..TwoPhaseConfig::default()
            }),
        );
        let a = run_experiment(&topo, &cfg);
        let b = run_experiment(&topo, &cfg);
        assert_eq!(a, b, "delayed signalling must replay bit-identically");
        assert!(a.admitted > 0);
        assert!(a.setups_completed > 0);
        assert!(a.holds_placed > 0);
        assert_eq!(a.signaling_messages_lost, 0, "no faults were configured");
        assert!(
            a.mean_setup_latency_secs >= 2.0 * 0.05,
            "a completed setup takes at least one round trip over one hop, got {}",
            a.mean_setup_latency_secs
        );
        assert_eq!(a.leaked_hold_bps, 0);
        assert_eq!(a.leaked_bandwidth_bps, 0);
    }

    #[test]
    fn lossy_signalling_retransmits_expires_holds_and_leaks_nothing() {
        let topo = topologies::mci();
        let sig = SignalingFaults {
            path: MessageFault {
                loss_probability: 0.05,
                extra_delay_secs: 0.02,
            },
            resv: MessageFault {
                loss_probability: 0.05,
                extra_delay_secs: 0.0,
            },
            resv_err: MessageFault {
                loss_probability: 0.05,
                extra_delay_secs: 0.0,
            },
        };
        let cfg = quick(25.0, SystemSpec::dac(PolicySpec::Ed, 2))
            .with_faults(FaultPlan::none().with_signaling(sig))
            .with_signaling(SignalingMode::TwoPhase(TwoPhaseConfig {
                per_hop_delay_secs: 0.02,
                setup_timeout_secs: 0.5,
                ..TwoPhaseConfig::default()
            }));
        let m = run_experiment(&topo, &cfg);
        assert!(m.signaling_messages_lost > 0, "5% loss must drop messages");
        assert!(m.retransmits > 0, "timed-out setups must be retransmitted");
        assert!(
            m.holds_expired > 0,
            "abandoned setups leave holds to expire"
        );
        assert!(m.admitted > 0, "most setups still complete");
        assert_eq!(
            m.leaked_hold_bps, 0,
            "every hold must be confirmed, errored, expired, or drained"
        );
        assert_eq!(m.leaked_bandwidth_bps, 0);
        assert_eq!(
            m,
            run_experiment(&topo, &cfg),
            "lossy signalling must replay bit-identically"
        );
    }

    #[test]
    #[should_panic(expected = "two-phase signalling requires the DAC system")]
    fn two_phase_rejects_non_dac_systems() {
        let topo = topologies::mci();
        let cfg = quick(5.0, SystemSpec::ShortestPath)
            .with_signaling(SignalingMode::TwoPhase(TwoPhaseConfig::default()));
        run_experiment(&topo, &cfg);
    }

    /// `[signaling]` faults act on messages only two-phase signalling
    /// sends; under atomic signalling they would be silently ignored.
    #[test]
    #[should_panic(expected = "a [signaling] fault section needs two-phase signalling")]
    fn signaling_faults_require_two_phase_signalling() {
        let topo = topologies::mci();
        let lossy = MessageFault {
            loss_probability: 0.5,
            extra_delay_secs: 0.2,
        };
        let sig = SignalingFaults {
            path: lossy,
            resv: lossy,
            resv_err: MessageFault::default(),
        };
        let cfg = quick(5.0, SystemSpec::dac(PolicySpec::Ed, 2))
            .with_faults(FaultPlan::none().with_signaling(sig));
        run_experiment(&topo, &cfg);
    }

    /// A two-phase exchange with no delay and no loss is the atomic one:
    /// validated as two-phase, run without the signalling engine.
    #[test]
    fn instantaneous_two_phase_builds_no_signalling_engine() {
        let topo = topologies::mci();
        let cfg = quick(5.0, SystemSpec::dac(PolicySpec::Ed, 2))
            .with_signaling(SignalingMode::TwoPhase(TwoPhaseConfig::default()));
        let (sim, _) = Sim::new(&topo, &cfg, NullRecorder, false);
        assert!(sim.two_phase.is_none());
        let delayed = cfg.with_signaling(SignalingMode::TwoPhase(TwoPhaseConfig {
            per_hop_delay_secs: 0.01,
            ..TwoPhaseConfig::default()
        }));
        assert!(Sim::new(&topo, &delayed, NullRecorder, false)
            .0
            .two_phase
            .is_some());
    }

    /// Every floating-point metric a run reports, for the NaN sweep.
    fn assert_all_finite(m: &Metrics, what: &str) {
        let fields = [
            ("admission_probability", m.admission_probability),
            ("ap_ci95", m.ap_ci95),
            ("mean_tries", m.mean_tries),
            ("mean_retrials", m.mean_retrials),
            ("messages_per_request", m.messages_per_request),
            ("mean_active_flows", m.mean_active_flows),
            ("mean_network_utilization", m.mean_network_utilization),
            ("availability", m.availability),
            ("mean_recovery_secs", m.mean_recovery_secs),
            ("mean_setup_latency_secs", m.mean_setup_latency_secs),
        ];
        for (name, v) in fields {
            assert!(
                v.is_finite(),
                "{what}: {}.{name} = {v} is not finite",
                m.label
            );
        }
        for ap in &m.per_group_ap {
            assert!(ap.is_finite(), "{what}: {} per-group AP {ap}", m.label);
        }
        for shares in &m.member_share {
            for s in shares {
                assert!(s.is_finite(), "{what}: {} member share {s}", m.label);
            }
        }
    }

    /// A two-phase run where every PATH message is lost completes zero
    /// setups; the mean setup latency must degrade to 0.0, not NaN
    /// (regression test for the 0/0 guard in the metrics assembly).
    #[test]
    fn total_path_loss_yields_finite_zero_setup_latency() {
        let topo = topologies::mci();
        let sig = SignalingFaults {
            path: MessageFault {
                loss_probability: 1.0,
                extra_delay_secs: 0.0,
            },
            resv: MessageFault::default(),
            resv_err: MessageFault::default(),
        };
        let cfg = quick(5.0, SystemSpec::dac(PolicySpec::Ed, 2))
            .with_faults(FaultPlan::none().with_signaling(sig))
            .with_signaling(SignalingMode::TwoPhase(TwoPhaseConfig {
                per_hop_delay_secs: 0.02,
                setup_timeout_secs: 0.5,
                ..TwoPhaseConfig::default()
            }));
        let m = run_experiment(&topo, &cfg);
        assert_eq!(
            m.setups_completed, 0,
            "no PATH survives, no setup completes"
        );
        assert_eq!(
            m.mean_setup_latency_secs, 0.0,
            "zero completions must report 0.0, not 0/0"
        );
        assert_all_finite(&m, "total PATH loss");
    }

    /// The NaN sweep across the corners that historically divide by a
    /// zero count: empty measurement (warm-up only traffic at trivial
    /// load), saturated load, chaos, lossy signalling.
    #[test]
    fn no_metric_is_ever_nan() {
        let topo = topologies::mci();
        let cases = [
            quick(0.001, SystemSpec::dac(PolicySpec::Ed, 1)),
            quick(50.0, SystemSpec::dac(PolicySpec::wd_dh_default(), 3)),
            quick(50.0, SystemSpec::GlobalDynamic),
            quick(25.0, SystemSpec::ShortestPath)
                .with_faults(FaultPlan::none().with_link_model(300.0, 60.0)),
        ];
        for cfg in cases {
            let m = run_experiment(&topo, &cfg);
            assert_all_finite(&m, "NaN sweep");
        }
    }

    /// MCI plus node `n19`, which has no links.
    fn mci_plus_isolated_node() -> Topology {
        let mci = topologies::mci();
        let mut b = anycast_net::TopologyBuilder::new(mci.node_count() + 1);
        for l in mci.links() {
            b.link(l.a(), l.b(), l.capacity()).unwrap();
        }
        let topo = b.build();
        assert!(!topo.is_connected());
        topo
    }

    /// Only configured sources need routes: a spare node that reaches
    /// nothing is no obstacle, and the run is bit-identical to the same
    /// network without it.
    #[test]
    fn isolated_spare_node_changes_nothing() {
        let mci = topologies::mci();
        let with_spare = mci_plus_isolated_node();
        for system in [
            SystemSpec::dac(PolicySpec::wd_dh_default(), 2),
            SystemSpec::ShortestPath,
            SystemSpec::GlobalDynamic,
            SystemSpec::dac_multipath(PolicySpec::Ed, 2, 2),
        ] {
            let cfg = quick(30.0, system);
            assert_eq!(
                run_experiment(&mci, &cfg),
                run_experiment(&with_spare, &cfg),
                "{}",
                cfg.system.label()
            );
        }
    }

    /// A source that cannot reach a member is rejected at construction,
    /// naming the pair, not by a mid-run lookup.
    #[test]
    #[should_panic(expected = "no route from n19 to n0")]
    fn cut_off_source_is_rejected_at_construction() {
        let topo = mci_plus_isolated_node();
        let mut sources = quick(5.0, SystemSpec::GlobalDynamic).sources;
        sources.push(NodeId::new(19));
        let cfg = quick(5.0, SystemSpec::GlobalDynamic).with_sources(sources);
        let mut recorder = NullRecorder;
        let _ = Sim::new(&topo, &cfg, &mut recorder, false);
    }

    /// Diurnal and flash-crowd arrival processes are deterministic under a
    /// seed and actually modulate load.
    #[test]
    fn modulated_arrivals_are_deterministic_and_modulate() {
        let topo = topologies::mci();
        let diurnal = quick(20.0, SystemSpec::dac(PolicySpec::Ed, 2)).with_arrivals(
            ArrivalProcess::Diurnal {
                amplitude: 0.8,
                period_secs: 300.0,
            },
        );
        let a = run_experiment(&topo, &diurnal);
        let b = run_experiment(&topo, &diurnal);
        assert_eq!(a, b, "diurnal arrivals must replay bit-identically");
        assert_all_finite(&a, "diurnal");

        let flat = quick(20.0, SystemSpec::dac(PolicySpec::Ed, 2));
        let base = run_experiment(&topo, &flat);
        let crowd = quick(20.0, SystemSpec::dac(PolicySpec::Ed, 2)).with_arrivals(
            ArrivalProcess::FlashCrowd {
                start_secs: 400.0,
                duration_secs: 300.0,
                multiplier: 4.0,
                group_index: 0,
            },
        );
        let c1 = run_experiment(&topo, &crowd);
        let c2 = run_experiment(&topo, &crowd);
        assert_eq!(c1, c2, "flash crowds must replay bit-identically");
        assert!(
            c1.offered > base.offered,
            "a 4x burst must raise offered load: {} vs {}",
            c1.offered,
            base.offered
        );
    }

    /// A flash crowd aimed at one group of a two-group deployment
    /// congests that group: its admission probability drops relative to
    /// the same run without the burst, while the untargeted group is
    /// barely affected.
    #[test]
    fn flash_crowd_concentrates_on_target_group() {
        let topo = topologies::mci();
        let groups = vec![
            GroupSpec {
                members: vec![NodeId::new(0), NodeId::new(8), NodeId::new(16)],
                share: 1.0,
            },
            GroupSpec {
                members: vec![NodeId::new(4), NodeId::new(12)],
                share: 1.0,
            },
        ];
        let base = quick(25.0, SystemSpec::dac(PolicySpec::Ed, 1)).with_groups(groups.clone());
        let calm = run_experiment(&topo, &base);
        let crowd = run_experiment(
            &topo,
            &base.clone().with_arrivals(ArrivalProcess::FlashCrowd {
                start_secs: 300.0,
                duration_secs: 600.0,
                multiplier: 6.0,
                group_index: 1,
            }),
        );
        assert!(
            crowd.per_group_ap[1] < calm.per_group_ap[1] - 0.05,
            "the targeted group must congest: {} vs calm {}",
            crowd.per_group_ap[1],
            calm.per_group_ap[1]
        );
    }

    #[test]
    fn config_builders_compose() {
        let cfg = ExperimentConfig::paper_defaults(5.0, SystemSpec::GlobalDynamic)
            .with_seed(1)
            .with_warmup_secs(10.0)
            .with_measure_secs(20.0)
            .with_group(vec![NodeId::new(0)])
            .with_sources(vec![NodeId::new(1)])
            .with_system(SystemSpec::ShortestPath);
        assert_eq!(cfg.seed, 1);
        assert_eq!(cfg.warmup_secs, 10.0);
        assert_eq!(cfg.measure_secs, 20.0);
        assert_eq!(cfg.group_members.len(), 1);
        assert_eq!(cfg.sources.len(), 1);
        assert_eq!(cfg.system, SystemSpec::ShortestPath);
    }
}
