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
use crate::multipath::{MultipathController, MultipathRouteTable};
use crate::online::OnlineArrival;
use crate::policy::PolicySpec;
use crate::soft_state::OrphanTimers;
use crate::{AdmissionController, AdmissionOutcome, RetrialPolicy};
use anycast_chaos::{
    build_timeline, ControlFaultModel, FaultAction, FaultBook, FaultEntity, FaultPlan,
    MessageFault, SignalingFaults,
};
use anycast_net::{
    topologies, AnycastGroup, Bandwidth, LinkStateTable, NodeId, Path, RouteSet, RouteTable,
    Topology,
};
use anycast_rsvp::{
    MessageKind, MessageLedger, PathStep, ReservationEngine, SessionId, SetupId, SetupTable,
};
use anycast_sim::stats::{AdmissionStats, TimeWeighted};
use anycast_sim::workload::{
    BurstyWorkload, FlowRequest, HoldingSampler, ModulatedWorkload, PoissonWorkload, RateEnvelope,
};
use anycast_sim::{Engine, SimRng, SimTime, TimerWheel};
use anycast_telemetry::{
    DecisionStep, DecisionTrace, Event as TelemetryEvent, FaultKind, NullRecorder, ProbeResult,
    Recorder, RequestTracer, SkipReason, TeardownReason,
};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet, VecDeque};

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
    /// see [`crate::multipath::MultipathController`] — the paper's §6
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

/// How the workload draws flow holding times (extension — the paper's
/// lifetimes are exponential).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum HoldingModel {
    /// Exponential lifetimes with the configured mean (§5.1). The default,
    /// bit-identical to the pre-knob workload.
    #[default]
    Exponential,
    /// Heavy-tailed Pareto-I lifetimes with the configured mean: most
    /// flows are short but a fat tail of long-lived flows pins bandwidth.
    Pareto {
        /// Tail exponent, `> 1` so the mean exists; smaller is heavier.
        shape: f64,
    },
}

impl HoldingModel {
    /// The concrete sampler drawing from this model at the given mean.
    fn sampler(&self, mean_secs: f64) -> HoldingSampler {
        match *self {
            HoldingModel::Exponential => HoldingSampler::exponential(mean_secs),
            HoldingModel::Pareto { shape } => HoldingSampler::pareto(mean_secs, shape),
        }
    }
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
    /// Zero with an inert `[signaling]` fault section degenerates to the
    /// atomic exchange bit-for-bit.
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
    pub fn validate(&self) {
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
    pub arrivals: ArrivalProcess,
    /// Holding-time distribution (extension; paper: exponential, which
    /// the default reproduces bit-for-bit).
    #[serde(default)]
    pub holding: HoldingModel,
    /// Fault-injection plan (extension; the paper's analysis is
    /// fault-free, which [`FaultPlan::none`] reproduces exactly).
    pub faults: FaultPlan,
    /// How the reservation exchange is signalled (extension; the paper's
    /// exchange is atomic, which [`SignalingMode::Atomic`] reproduces
    /// exactly).
    pub signaling: SignalingMode,
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
            holding: HoldingModel::Exponential,
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

    /// Replaces the per-flow bandwidth demand.
    pub fn with_flow_bandwidth(mut self, bw: Bandwidth) -> Self {
        self.flow_bandwidth = bw;
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

    /// Replaces the holding-time model (extension beyond the paper).
    pub fn with_holding_model(mut self, holding: HoldingModel) -> Self {
        self.holding = holding;
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

/// Internal event alphabet of the closed-loop simulation.
#[derive(Debug)]
pub(crate) enum Event {
    Arrival {
        source_index: usize,
        group_index: usize,
        holding_secs: f64,
        demand: Bandwidth,
    },
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
    /// Two-phase: a PATH message starts crossing link `hop` of its route.
    PathHop {
        req: u64,
        setup: SetupId,
        hop: usize,
    },
    /// Two-phase: a RESV message starts crossing link `hop` back toward
    /// the source.
    ResvHop {
        req: u64,
        setup: SetupId,
        hop: usize,
    },
    /// Two-phase: a RESV_ERR message starts crossing link `hop` back
    /// toward the source, releasing the hold there.
    ResvErrHop {
        req: u64,
        setup: SetupId,
        hop: usize,
    },
    /// Two-phase: the RESV arrived at the source; commit the holds.
    SetupComplete {
        req: u64,
        setup: SetupId,
    },
    /// Two-phase: the RESV_ERR arrived at the source; the destination
    /// refused the attempt.
    SetupRefused {
        req: u64,
        setup: SetupId,
    },
    /// Two-phase: the source's setup timer fired before an answer came.
    SetupTimeout {
        req: u64,
        setup: SetupId,
    },
    /// Two-phase: the backoff delay elapsed; retransmit toward the same
    /// destination.
    RetrySetup(u64),
    /// Two-phase: wake-up for the hold-expiry timer wheel.
    HoldTick,
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
    let holding = config.holding.sampler(config.mean_holding_secs);
    match config.arrivals {
        ArrivalProcess::Poisson => WorkloadKind::Poisson(
            PoissonWorkload::new(
                config.lambda,
                config.mean_holding_secs,
                config.sources.len(),
                master_rng,
            )
            .with_holding(holding),
        ),
        ArrivalProcess::Bursty {
            burstiness,
            mean_sojourn_secs,
        } => WorkloadKind::Bursty(
            BurstyWorkload::with_mean_rate(
                config.lambda,
                burstiness,
                mean_sojourn_secs,
                config.mean_holding_secs,
                config.sources.len(),
                master_rng,
            )
            .with_holding(holding),
        ),
        ArrivalProcess::Diurnal {
            amplitude,
            period_secs,
        } => WorkloadKind::Modulated(
            ModulatedWorkload::new(
                config.lambda,
                RateEnvelope::Diurnal {
                    amplitude,
                    period_secs,
                },
                config.mean_holding_secs,
                config.sources.len(),
                master_rng,
            )
            .with_holding(holding),
        ),
        ArrivalProcess::FlashCrowd {
            start_secs,
            duration_secs,
            multiplier,
            ..
        } => WorkloadKind::Modulated(
            ModulatedWorkload::new(
                config.lambda,
                RateEnvelope::Window {
                    start_secs,
                    duration_secs,
                    multiplier,
                },
                config.mean_holding_secs,
                config.sources.len(),
                master_rng,
            )
            .with_holding(holding),
        ),
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
                Event::Arrival {
                    source_index: next.source_index,
                    group_index,
                    holding_secs: next.holding.as_secs(),
                    demand,
                },
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

/// One request whose admission is in flight under event-driven two-phase
/// signalling: the controller's REPEAT-loop state, frozen between
/// messages.
struct PendingAdmission {
    source_index: usize,
    group_index: usize,
    demand: Bandwidth,
    holding_secs: f64,
    /// Destinations probed so far (≥ 1 once the first attempt starts).
    tries: u32,
    untried: Vec<bool>,
    /// Retransmissions already spent on the current destination.
    attempts_this_dest: u32,
    /// The destination currently being attempted.
    pick: usize,
    /// `pick`'s selection weight when it was drawn (for telemetry).
    pick_weight: f64,
    /// The weight vector of the current attempt — the §4.5 retrial
    /// decision uses the weights of the iteration that failed, exactly as
    /// the synchronous loop does.
    current_weights: Vec<f64>,
    /// The first draw's weight vector (a rejection's decision trace).
    weights_first: Vec<f64>,
    /// Every probed-and-failed destination, in order.
    steps: Vec<DecisionStep>,
    /// The live setup attempt; `None` between a timeout and its
    /// retransmission (stale answers for abandoned setups are dropped).
    setup: Option<SetupId>,
}

/// Runtime state of the event-driven two-phase signalling engine.
struct TwoPhaseState {
    cfg: TwoPhaseConfig,
    /// Degenerate mode: zero per-hop delay and an inert `[signaling]`
    /// fault section. The exchange runs synchronously at arrival and is
    /// bit-identical to the atomic engine (no timers, no events, no
    /// signalling telemetry).
    express: bool,
    sig: SignalingFaults,
    table: SetupTable,
    /// Request owning each setup, kept until the setup's state is reaped
    /// (in-flight messages for dead setups still need attribution).
    setup_req: HashMap<SetupId, u64>,
    pending: HashMap<u64, PendingAdmission>,
    holds: TimerWheel<(SetupId, usize)>,
    backoff_rng: SimRng,
    holds_placed: u64,
    holds_expired: u64,
    setups_completed: u64,
    retransmits: u64,
    msgs_lost: u64,
    latency_sum: f64,
    latency_count: u64,
}

/// One message crossing under the `[signaling]` fault model: `None` means
/// the message was dropped; `Some(d)` the crossing takes `d` seconds.
/// Draw order (loss first, then extra delay) is part of the determinism
/// contract, and each draw is guarded so an inert fault model consumes no
/// randomness at all.
fn transit(fault: &MessageFault, per_hop_secs: f64, rng: &mut SimRng) -> Option<f64> {
    if fault.loss_probability > 0.0 && rng.uniform() < fault.loss_probability {
        return None;
    }
    let mut d = per_hop_secs;
    if fault.extra_delay_secs > 0.0 {
        d += rng.exp_duration(fault.extra_delay_secs).as_secs();
    }
    Some(d)
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
/// fault plan whose scripted actions reference unknown links or nodes).
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
    live_flows: HashMap<SessionId, f64>,
    killed: HashSet<SessionId>,
    /// Sessions torn down early over the wire (`teardown` op): their
    /// still-scheduled holding-time [`Event::Departure`] must become a
    /// no-op, exactly as `killed` neutralises fault victims' departures.
    wire_torn: HashSet<SessionId>,
    book: FaultBook,
    refresh_interval: anycast_sim::Duration,
    control: ControlFaultModel,
    rec_on: bool,
    sample_interval: Option<f64>,
    next_request_id: u64,
    feed: Feed,
    feed_head_scheduled: bool,
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
        let two_phase_cfg = match config.signaling {
            SignalingMode::Atomic => None,
            SignalingMode::TwoPhase(cfg) => {
                cfg.validate();
                assert!(
                    matches!(config.system, SystemSpec::Dac { .. }),
                    "two-phase signalling requires the DAC system, got {}",
                    config.system.label()
                );
                Some(cfg)
            }
        };
        if let ArrivalProcess::FlashCrowd { group_index, .. } = config.arrivals {
            assert!(
                group_index < config.effective_groups().len(),
                "flash crowd targets unknown group index {group_index}"
            );
        }
        let group_specs = config.effective_groups();
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
        let rsvp = ReservationEngine::new();

        // One distance buffer reused across every (group, source) pair —
        // the `distances_into` convention keeps controller construction
        // allocation-light even on datacenter-sized source sets.
        let mut dist_buf: Vec<u32> = Vec::new();
        let mut systems: Vec<SystemState> = Vec::with_capacity(groups.len());
        for (group, table) in groups.iter().zip(&route_tables) {
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
        let two_phase: Option<TwoPhaseState> = two_phase_cfg.map(|cfg| TwoPhaseState {
            cfg,
            express: cfg.per_hop_delay_secs == 0.0 && config.faults.signaling.is_inert(),
            sig: config.faults.signaling,
            table: SetupTable::new(),
            setup_req: HashMap::new(),
            pending: HashMap::new(),
            holds: TimerWheel::new(),
            backoff_rng,
            holds_placed: 0,
            holds_expired: 0,
            setups_completed: 0,
            retransmits: 0,
            msgs_lost: 0,
            latency_sum: 0.0,
            latency_count: 0,
        });
        let group_shares: Vec<f64> = group_specs.iter().map(|g| g.share).collect();
        let demand_weights: Vec<f64> = config.demand_mix.iter().map(|c| c.weight).collect();

        let warmup_end = SimTime::from_secs(config.warmup_secs);
        let horizon = SimTime::from_secs(config.warmup_secs + config.measure_secs);
        let stats = AdmissionStats::new(warmup_end);
        let group_stats: Vec<AdmissionStats> = group_specs
            .iter()
            .map(|_| AdmissionStats::new(warmup_end))
            .collect();
        let member_counts: Vec<Vec<u64>> = groups.iter().map(|g| vec![0u64; g.len()]).collect();

        // --- Fault-injection state ---------------------------------------
        // The timeline is expanded up front (deterministically, from its own
        // forked stream) and scheduled as ordinary events; the refresh
        // sweep runs even in fault-free experiments, so reservation
        // lifecycle behaviour never depends on whether faults are possible.
        // Soft state costs nothing per live flow: a session whose source
        // refreshes it cannot expire, so only a reservation that loses its
        // PATH_TEAR gets a deadline, armed at the moment it is orphaned; a
        // SoftTick event reclaims it the moment that lifetime ends. A run
        // that orphans nothing arms nothing and schedules no SoftTick.
        let orphans = OrphanTimers::new(refresh);
        let live_flows: HashMap<SessionId, f64> = HashMap::new();
        let killed: HashSet<SessionId> = HashSet::new();
        let wire_torn: HashSet<SessionId> = HashSet::new();
        let book = FaultBook::new();
        let availability: Option<TimeWeighted> = None;
        let refresh_interval = anycast_sim::Duration::from_secs(refresh.refresh_interval_secs);

        // --- Telemetry state ---------------------------------------------
        // `rec_on` is hoisted so disabled runs pay one branch per hook and
        // never construct an event. The sampler is only scheduled when the
        // recorder asks for it; its handler is read-only and consumes no
        // randomness, so it cannot perturb the metrics.
        let rec_on = recorder.enabled();
        let sample_interval = recorder.link_sample_interval();
        let next_request_id: u64 = 0;

        let mut engine: Engine<Event> = Engine::new();
        engine.schedule_at(warmup_end, Event::WarmupEnd);
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
            &mut fault_rng,
        );
        for ev in timeline.events() {
            engine.schedule_at(SimTime::from_secs(ev.at_secs), Event::Fault(ev.action));
        }
        engine.schedule_at(
            SimTime::from_secs(refresh.refresh_interval_secs),
            Event::RefreshSweep,
        );
        // The arrival feed. Offline runs draw the first arrival from the
        // workload now; externally-fed (online) runs start with an empty
        // queue and schedule arrivals as they are submitted. The workload
        // was constructed — consuming its RNG forks — in both modes, so the
        // selection/demand/group/fault/backoff streams are seeded identically
        // either way; that is what makes virtual-time replay of a recorded
        // trace bit-identical to the offline engine.
        let mut feed = if external {
            Feed::External(VecDeque::new())
        } else {
            Feed::Workload(workload)
        };
        let first = next_feed_arrival(
            &mut feed,
            config,
            &group_shares,
            &demand_weights,
            &mut demand_rng,
            &mut group_rng,
        );
        let feed_head_scheduled = first.is_some();
        if let Some((at, arrival)) = first {
            engine.schedule_at(at, arrival);
        }

        let sim = Sim {
            config: config.clone(),
            topo: topo.clone(),
            groups,
            route_sets,
            links,
            rsvp,
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
            stats,
            group_stats,
            member_counts,
            load: None,
            availability,
            orphans,
            live_flows,
            killed,
            wire_torn,
            book,
            refresh_interval,
            control,
            rec_on,
            sample_interval,
            next_request_id,
            feed,
            feed_head_scheduled,
            capture_decisions: false,
            decisions: Vec::new(),
            recorder,
        };
        (sim, engine)
    }

    /// Processes one event — the single admission/bookkeeping code path
    /// shared by the offline and online engines.
    pub(crate) fn handle(&mut self, eng: &mut Engine<Event>, now: SimTime, event: Event) {
        let rec_on = self.rec_on;
        let warmup_end = self.warmup_end;
        let control = self.control;
        let refresh_interval = self.refresh_interval;
        let sample_interval = self.sample_interval;
        let capture_decisions = self.capture_decisions;
        // Destructure so the macros below can borrow many fields at once,
        // exactly as the original closure captured its locals.
        let Sim {
            config,
            topo,
            groups,
            route_sets,
            links,
            rsvp,
            systems,
            selection_rng,
            demand_rng,
            group_rng,
            fault_rng,
            two_phase,
            group_shares,
            demand_weights,
            stats,
            group_stats,
            member_counts,
            load,
            availability,
            orphans,
            live_flows,
            killed,
            wire_torn,
            book,
            next_request_id,
            feed,
            feed_head_scheduled,
            decisions,
            recorder,
            ..
        } = self;
        let recorder: &mut dyn Recorder = recorder;
        // Local macros instead of closures: the bookkeeping below needs
        // simultaneous mutable access to many captured bindings (stats,
        // telemetry, the two-phase tables, the engine itself), which no
        // single helper closure could borrow at once.
        macro_rules! tw_note {
            () => {{
                if let Some(window) = load.as_mut() {
                    window.note(now, rsvp, links);
                }
            }};
        }
        // Finish an event-mode two-phase admission: credit the
        // destination, record stats/telemetry, start the flow's lifecycle.
        macro_rules! admit_complete {
            ($req:expr, $session:expr, $hops:expr, $started_secs:expr) => {{
                let req = $req;
                let session = $session;
                let p = two_phase
                    .as_mut()
                    .expect("two-phase arms only run in two-phase mode")
                    .pending
                    .remove(&req)
                    .expect("completing setups belong to a pending admission");
                match &mut systems[p.group_index] {
                    SystemState::Dac(controllers) => {
                        controllers[p.source_index].note_success(p.pick)
                    }
                    _ => unreachable!("two-phase signalling is DAC-only"),
                }
                let latency = now.as_secs() - $started_secs;
                {
                    let tp = two_phase.as_mut().expect("checked above");
                    tp.setups_completed += 1;
                    if now >= warmup_end {
                        tp.latency_sum += latency;
                        tp.latency_count += 1;
                    }
                }
                if rec_on {
                    recorder.record(
                        now.as_secs(),
                        TelemetryEvent::DestinationProbe {
                            request: req,
                            member_index: p.pick,
                            weight: p.pick_weight,
                            result: ProbeResult::Admitted,
                        },
                    );
                    recorder.record(
                        now.as_secs(),
                        TelemetryEvent::ReservationSetup {
                            request: req,
                            session,
                            member_index: p.pick,
                            hops: $hops,
                            tries: p.tries,
                        },
                    );
                    recorder.record(
                        now.as_secs(),
                        TelemetryEvent::SetupCompleted {
                            request: req,
                            session,
                            latency_secs: latency,
                        },
                    );
                }
                stats.record(now, true, p.tries);
                group_stats[p.group_index].record(now, true, p.tries);
                if capture_decisions {
                    decisions.push(Decision {
                        request: req,
                        at_secs: now.as_secs(),
                        admitted: true,
                        member_index: Some(p.pick),
                        session: Some(session),
                        tries: p.tries,
                    });
                }
                if now >= warmup_end {
                    member_counts[p.group_index][p.pick] += 1;
                }
                live_flows.insert(session, now.as_secs());
                eng.schedule_in(
                    now,
                    anycast_sim::Duration::from_secs(p.holding_secs),
                    Event::Departure(session),
                );
                tw_note!();
            }};
        }
        // Launch (or relaunch) the setup toward the pending admission's
        // currently picked destination.
        macro_rules! start_attempt {
            ($req:expr) => {{
                let req = $req;
                let tp = two_phase.as_mut().expect("two-phase mode");
                let (gi, si, pick, demand) = {
                    let p = tp
                        .pending
                        .get(&req)
                        .expect("attempt needs a pending admission");
                    (p.group_index, p.source_index, p.pick, p.demand)
                };
                let route = route_sets[gi][si][pick].clone();
                if route.hops() == 0 {
                    // The member is local: zero links to signal over, so the
                    // setup completes on the spot — same as the atomic engine.
                    let out = tp
                        .table
                        .run_express(&mut *rsvp, &mut *links, &route, demand, now.as_secs())
                        .expect("zero-hop routes always admit");
                    admit_complete!(req, out.session, 0, now.as_secs());
                } else {
                    let setup = tp.table.begin(route, demand, now.as_secs());
                    tp.setup_req.insert(setup, req);
                    tp.pending.get_mut(&req).expect("still pending").setup = Some(setup);
                    if tp.cfg.setup_timeout_secs.is_finite() {
                        eng.schedule_in(
                            now,
                            anycast_sim::Duration::from_secs(tp.cfg.setup_timeout_secs),
                            Event::SetupTimeout { req, setup },
                        );
                    }
                    eng.schedule_at(now, Event::PathHop { req, setup, hop: 0 });
                }
            }};
        }
        // A setup attempt failed (refusal or timeout): charge the
        // destination, then either retry another member (§4.5) or reject.
        macro_rules! resolve_failed_attempt {
            ($req:expr, $skip:expr) => {{
                let req = $req;
                let skip = $skip;
                let tp = two_phase.as_mut().expect("two-phase mode");
                let (gi, si, pick, pick_weight, tries) = {
                    let p = tp
                        .pending
                        .get_mut(&req)
                        .expect("failed attempts belong to a pending admission");
                    p.setup = None;
                    p.untried[p.pick] = false;
                    p.steps.push(DecisionStep {
                        member_index: p.pick,
                        weight: p.pick_weight,
                        skip,
                    });
                    (
                        p.group_index,
                        p.source_index,
                        p.pick,
                        p.pick_weight,
                        p.tries,
                    )
                };
                let controllers = match &mut systems[gi] {
                    SystemState::Dac(controllers) => controllers,
                    _ => unreachable!("two-phase signalling is DAC-only"),
                };
                controllers[si].note_failure(pick);
                if rec_on {
                    recorder.record(
                        now.as_secs(),
                        TelemetryEvent::DestinationProbe {
                            request: req,
                            member_index: pick,
                            weight: pick_weight,
                            result: ProbeResult::Skipped(skip),
                        },
                    );
                }
                // The §4.5 decision looks at the weights the failed pick was
                // drawn from; a retrial then re-reads link state for fresh
                // weights, exactly like the atomic controller.
                let decision = {
                    let p = tp.pending.get(&req).expect("still pending");
                    controllers[si].retrial_weight(tries, &p.current_weights, &p.untried)
                };
                match decision {
                    Some(remaining_weight) => {
                        if rec_on {
                            recorder.record(
                                now.as_secs(),
                                TelemetryEvent::Retrial {
                                    request: req,
                                    tries_so_far: tries,
                                    remaining_weight,
                                },
                            );
                        }
                        let weights =
                            controllers[si].selection_weights(&route_sets[gi][si], &*links);
                        let p = tp.pending.get_mut(&req).expect("still pending");
                        let next_pick = AdmissionController::pick_destination(
                            &weights,
                            &p.untried,
                            &mut *selection_rng,
                        )
                        .expect("a granted retrial implies an untried member");
                        p.tries += 1;
                        p.attempts_this_dest = 0;
                        p.pick = next_pick;
                        p.pick_weight = weights[next_pick];
                        p.current_weights = weights;
                        start_attempt!(req);
                    }
                    None => {
                        let p = tp.pending.remove(&req).expect("still pending");
                        stats.record(now, false, p.tries);
                        group_stats[p.group_index].record(now, false, p.tries);
                        if capture_decisions {
                            decisions.push(Decision {
                                request: req,
                                at_secs: now.as_secs(),
                                admitted: false,
                                member_index: None,
                                session: None,
                                tries: p.tries,
                            });
                        }
                        if rec_on {
                            recorder.record(
                                now.as_secs(),
                                TelemetryEvent::Rejection {
                                    request: req,
                                    tries: p.tries,
                                    trace: DecisionTrace {
                                        weights: p.weights_first,
                                        steps: p.steps,
                                    },
                                },
                            );
                        }
                    }
                }
            }};
        }
        match event {
            Event::Arrival {
                source_index,
                group_index,
                holding_secs,
                demand,
            } => {
                let source = config.sources[source_index];
                let group = &groups[group_index];
                // SP and the single-path DAC walk the fixed routes; GDI
                // searches the live topology and multipath keeps its own
                // fan table.
                let routes: &[Path] = &route_sets[group_index][source_index];
                let request_id = *next_request_id;
                *next_request_id += 1;
                if rec_on {
                    recorder.record(
                        now.as_secs(),
                        TelemetryEvent::RequestArrival {
                            request: request_id,
                            source,
                            group: group_index,
                            demand_bps: demand.bps(),
                        },
                    );
                }
                let async_two_phase = matches!(
                    (&systems[group_index], two_phase.as_ref()),
                    (SystemState::Dac(_), Some(tp)) if !tp.express
                );
                if async_two_phase {
                    // Event-driven two-phase signalling: pick a destination
                    // now (same RNG draw order as the atomic controller) and
                    // launch the PATH; admission resolves when the exchange
                    // does.
                    let controllers = match &mut systems[group_index] {
                        SystemState::Dac(controllers) => controllers,
                        _ => unreachable!("checked above"),
                    };
                    let weights = controllers[source_index].selection_weights(routes, &*links);
                    let untried = vec![true; weights.len()];
                    let pick = AdmissionController::pick_destination(
                        &weights,
                        &untried,
                        &mut *selection_rng,
                    )
                    .expect("anycast groups are non-empty");
                    let tp = two_phase.as_mut().expect("checked above");
                    tp.pending.insert(
                        request_id,
                        PendingAdmission {
                            source_index,
                            group_index,
                            demand,
                            holding_secs,
                            tries: 1,
                            untried,
                            attempts_this_dest: 0,
                            pick,
                            pick_weight: weights[pick],
                            weights_first: weights.clone(),
                            current_weights: weights,
                            steps: Vec::new(),
                            setup: None,
                        },
                    );
                    start_attempt!(request_id);
                } else {
                    let mut tracer = RequestTracer::new(&mut *recorder, now.as_secs(), request_id);
                    let outcome: AdmissionOutcome = match &mut systems[group_index] {
                        SystemState::Dac(controllers) => match two_phase.as_mut() {
                            // Degenerate two-phase (zero delay, inert faults):
                            // synchronous per-hop walk, bit-identical to atomic.
                            Some(tp) => controllers[source_index].admit_two_phase_express(
                                routes,
                                &mut *links,
                                &mut *rsvp,
                                &mut tp.table,
                                demand,
                                now.as_secs(),
                                &mut *selection_rng,
                                &mut tracer,
                            ),
                            None => controllers[source_index].admit_traced(
                                routes,
                                &mut *links,
                                &mut *rsvp,
                                demand,
                                &mut *selection_rng,
                                &mut tracer,
                            ),
                        },
                        SystemState::DacMulti(table, controllers) => {
                            let out = controllers[source_index]
                                .admit(
                                    table.routes_from(source),
                                    &mut *links,
                                    &mut *rsvp,
                                    demand,
                                    &mut *selection_rng,
                                )
                                .outcome;
                            // The multipath controller is not internally traced;
                            // emit lifecycle summaries (hops unknown → 0, empty
                            // decision trace) so the stream still closes every
                            // request.
                            match &out.admitted {
                                Some(flow) => tracer.finish_admitted(
                                    flow.session,
                                    flow.member_index,
                                    0,
                                    out.tries,
                                ),
                                None => tracer.finish_rejected(out.tries),
                            }
                            out
                        }
                        SystemState::Sp(per_source) => per_source[source_index].admit_traced(
                            routes,
                            &mut *links,
                            &mut *rsvp,
                            demand,
                            &mut tracer,
                        ),
                        SystemState::Gdi(gdi) => gdi.admit_traced(
                            topo,
                            group,
                            source,
                            &mut *links,
                            &mut *rsvp,
                            demand,
                            &mut tracer,
                        ),
                    };
                    drop(tracer);
                    if capture_decisions {
                        decisions.push(Decision {
                            request: request_id,
                            at_secs: now.as_secs(),
                            admitted: outcome.is_admitted(),
                            member_index: outcome.admitted.as_ref().map(|f| f.member_index),
                            session: outcome.admitted.as_ref().map(|f| f.session),
                            tries: outcome.tries,
                        });
                    }
                    stats.record(now, outcome.is_admitted(), outcome.tries);
                    group_stats[group_index].record(now, outcome.is_admitted(), outcome.tries);
                    if now >= warmup_end {
                        if let Some(flow) = &outcome.admitted {
                            member_counts[group_index][flow.member_index] += 1;
                        }
                    }
                    if let Some(flow) = outcome.admitted {
                        live_flows.insert(flow.session, now.as_secs());
                        eng.schedule_in(
                            now,
                            anycast_sim::Duration::from_secs(holding_secs),
                            Event::Departure(flow.session),
                        );
                    }
                }
                tw_note!();
                match next_feed_arrival(
                    feed,
                    config,
                    group_shares,
                    demand_weights,
                    demand_rng,
                    group_rng,
                ) {
                    Some((at, arrival)) => eng.schedule_at(at, arrival),
                    None => *feed_head_scheduled = false,
                }
            }
            Event::Departure(session) => {
                if wire_torn.remove(&session) {
                    // The endpoint already tore this reservation down over
                    // the wire (or its teardown is lost/in flight); the
                    // holding-time departure has nothing left to do.
                    return;
                }
                let admitted_at = live_flows
                    .remove(&session)
                    .expect("a flow is live until it departs");
                if killed.remove(&session) {
                    // The reservation already died with a fault; the flow's
                    // endpoints have nothing left to tear down.
                } else if control.teardown_loss_probability > 0.0
                    && fault_rng.uniform() < control.teardown_loss_probability
                {
                    // PATH_TEAR lost: the reservation holds its bandwidth
                    // until soft state expires it.
                    if let Some(tick) = orphans.orphan(session, admitted_at) {
                        eng.schedule_at(SimTime::from_secs(tick), Event::SoftTick);
                    }
                    book.note_orphan_created();
                } else if control.teardown_delay_secs > 0.0 {
                    let delay = fault_rng.exp_duration(control.teardown_delay_secs);
                    eng.schedule_in(now, delay, Event::Teardown(session));
                } else {
                    rsvp.teardown(&mut *links, session)
                        .expect("departing flows hold live sessions");
                    if rec_on {
                        recorder.record(
                            now.as_secs(),
                            TelemetryEvent::ReservationTeardown {
                                session,
                                reason: TeardownReason::Departure,
                            },
                        );
                    }
                    tw_note!();
                }
            }
            Event::Teardown(session) => {
                if killed.remove(&session) {
                    // A fault beat the delayed teardown to the reservation.
                } else {
                    rsvp.teardown(&mut *links, session)
                        .expect("delayed teardowns target live sessions");
                    if rec_on {
                        recorder.record(
                            now.as_secs(),
                            TelemetryEvent::ReservationTeardown {
                                session,
                                reason: TeardownReason::Delayed,
                            },
                        );
                    }
                    tw_note!();
                }
            }
            Event::Fault(action) => {
                let t = now.as_secs();
                let victims: Vec<SessionId> = match action {
                    FaultAction::FailLink(link) => {
                        links
                            .fail_link(link)
                            .expect("fault plan references known links");
                        book.record_down(FaultEntity::Link(link), t);
                        if rec_on {
                            recorder.record(
                                t,
                                TelemetryEvent::FaultFired {
                                    entity: FaultKind::Link(link),
                                },
                            );
                        }
                        rsvp.sessions_using_link(link)
                    }
                    FaultAction::RestoreLink(link) => {
                        links
                            .restore_link(link)
                            .expect("fault plan references known links");
                        book.record_up(FaultEntity::Link(link), t);
                        if rec_on {
                            recorder.record(
                                t,
                                TelemetryEvent::FaultHealed {
                                    entity: FaultKind::Link(link),
                                },
                            );
                        }
                        Vec::new()
                    }
                    FaultAction::CrashNode(node) => {
                        links
                            .fail_node(node)
                            .expect("fault plan references known nodes");
                        book.record_down(FaultEntity::Node(node), t);
                        if rec_on {
                            recorder.record(
                                t,
                                TelemetryEvent::FaultFired {
                                    entity: FaultKind::Node(node),
                                },
                            );
                        }
                        rsvp.sessions_through_node(node)
                    }
                    FaultAction::RestoreNode(node) => {
                        links
                            .restore_node(node)
                            .expect("fault plan references known nodes");
                        book.record_up(FaultEntity::Node(node), t);
                        if rec_on {
                            recorder.record(
                                t,
                                TelemetryEvent::FaultHealed {
                                    entity: FaultKind::Node(node),
                                },
                            );
                        }
                        Vec::new()
                    }
                };
                for session in victims {
                    rsvp.teardown(&mut *links, session)
                        .expect("fault victims hold live reservations");
                    if rec_on {
                        recorder.record(
                            t,
                            TelemetryEvent::ReservationTeardown {
                                session,
                                reason: TeardownReason::FaultKilled,
                            },
                        );
                    }
                    if orphans.cancel(session) {
                        // The fault returned an orphan's bandwidth before soft
                        // state got to it.
                        book.note_orphan_reclaimed();
                    } else {
                        // A Departure or delayed Teardown event is still
                        // pending for this session and must become a no-op.
                        killed.insert(session);
                        if live_flows.contains_key(&session) {
                            book.note_flow_killed();
                        }
                    }
                }
                debug_assert_eq!(links.audit().err(), None, "after {action:?}");
                if let Some(tw) = availability.as_mut() {
                    tw.update(now, links.operational_fraction());
                }
                tw_note!();
            }
            Event::RefreshSweep => {
                // Every flow whose source (or, post-departure, pending
                // delayed teardown) still exists refreshes its state now.
                // None of them holds a deadline, so the sweep is its
                // instant; orphans miss it and keep the deadline they were
                // armed with.
                orphans.note_sweep(now.as_secs());
                eng.schedule_in(now, refresh_interval, Event::RefreshSweep);
            }
            Event::SoftTick => {
                // Exact-deadline soft-state expiry: reclaim precisely the
                // orphans whose lifetime just ended. Only ever scheduled
                // once a reservation has been orphaned, and consumes no
                // randomness.
                let t = now.as_secs();
                let mut reclaimed_any = false;
                for session in orphans.pop_expired(t) {
                    rsvp.teardown(&mut *links, session)
                        .expect("expired sessions hold reservations");
                    book.note_orphan_reclaimed();
                    reclaimed_any = true;
                    if rec_on {
                        recorder.record(
                            t,
                            TelemetryEvent::ReservationTeardown {
                                session,
                                reason: TeardownReason::SoftStateExpired,
                            },
                        );
                    }
                }
                if reclaimed_any {
                    tw_note!();
                }
                if let Some(tick) = orphans.tick_needed() {
                    eng.schedule_at(SimTime::from_secs(tick), Event::SoftTick);
                }
            }
            Event::TelemetrySample => {
                // Read-only periodic probe of the link-state table: consumes
                // no randomness and mutates nothing, so scheduling it (or
                // not) leaves the simulated system bit-identical. Walks the
                // sharded view stripe by stripe — ascending shard order is
                // ascending link order, so the stream is unchanged.
                let sharded = links.sharded();
                for shard in 0..sharded.shard_count() {
                    for (link, snap) in sharded.iter_shard(shard) {
                        recorder.record(
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
                if let Some(interval_secs) = sample_interval {
                    eng.schedule_in(
                        now,
                        anycast_sim::Duration::from_secs(interval_secs),
                        Event::TelemetrySample,
                    );
                }
            }
            Event::WarmupEnd => {
                rsvp.reset_ledger();
                *load = Some(LoadWindow::open(now, rsvp, links));
                *availability = Some(TimeWeighted::new(now, links.operational_fraction()));
            }
            Event::PathHop { req, setup, hop } => {
                let tp = two_phase
                    .as_mut()
                    .expect("signalling events only fire in two-phase mode");
                if !tp.table.contains(setup) {
                    // The setup was reaped while this message was in flight
                    // (e.g. its last hold expired); the message dies with it.
                    return;
                }
                let bw_bps = tp.table.bandwidth(setup).expect("tabled setup").bps();
                match tp
                    .table
                    .path_step(&mut *rsvp, &mut *links, setup, hop)
                    .expect("contains() checked above")
                {
                    PathStep::Held {
                        link,
                        reached_destination,
                    } => {
                        tp.holds_placed += 1;
                        if rec_on {
                            recorder.record(
                                now.as_secs(),
                                TelemetryEvent::MsgSent {
                                    request: req,
                                    message: MessageKind::Path,
                                    link,
                                },
                            );
                            recorder.record(
                                now.as_secs(),
                                TelemetryEvent::HoldPlaced {
                                    request: req,
                                    link,
                                    bw_bps,
                                },
                            );
                        }
                        if tp.cfg.setup_timeout_secs.is_finite() {
                            tp.holds
                                .arm((setup, hop), now.as_secs() + tp.cfg.setup_timeout_secs);
                            if let Some(tick) = tp.holds.tick_needed() {
                                eng.schedule_at(SimTime::from_secs(tick), Event::HoldTick);
                            }
                        }
                        match transit(&tp.sig.path, tp.cfg.per_hop_delay_secs, &mut *fault_rng) {
                            Some(delay) => {
                                let next = if reached_destination {
                                    // The destination answers: its RESV first
                                    // re-crosses this same link on the way back.
                                    Event::ResvHop { req, setup, hop }
                                } else {
                                    Event::PathHop {
                                        req,
                                        setup,
                                        hop: hop + 1,
                                    }
                                };
                                eng.schedule_in(now, anycast_sim::Duration::from_secs(delay), next);
                            }
                            None => {
                                tp.msgs_lost += 1;
                                if rec_on {
                                    recorder.record(
                                        now.as_secs(),
                                        TelemetryEvent::MsgLost {
                                            request: req,
                                            message: MessageKind::Path,
                                            link,
                                        },
                                    );
                                }
                                // The hold just placed (and the ones upstream)
                                // linger until their expiry timers fire.
                            }
                        }
                    }
                    PathStep::Blocked(err) => {
                        if rec_on {
                            recorder.record(
                                now.as_secs(),
                                TelemetryEvent::MsgSent {
                                    request: req,
                                    message: MessageKind::Path,
                                    link: err.failed_link,
                                },
                            );
                        }
                        // The router at the bottleneck answers on the spot: the
                        // RESV_ERR's first crossing (back over this same link)
                        // starts now.
                        eng.schedule_at(now, Event::ResvErrHop { req, setup, hop });
                    }
                }
            }
            Event::ResvHop { req, setup, hop } => {
                let tp = two_phase.as_mut().expect("two-phase mode");
                if !tp.table.resv_step(&mut *rsvp, setup) {
                    return;
                }
                let link = tp.table.link_at(setup, hop).expect("route covers this hop");
                if rec_on {
                    recorder.record(
                        now.as_secs(),
                        TelemetryEvent::MsgSent {
                            request: req,
                            message: MessageKind::Resv,
                            link,
                        },
                    );
                }
                match transit(&tp.sig.resv, tp.cfg.per_hop_delay_secs, &mut *fault_rng) {
                    Some(delay) => {
                        let next = if hop == 0 {
                            Event::SetupComplete { req, setup }
                        } else {
                            Event::ResvHop {
                                req,
                                setup,
                                hop: hop - 1,
                            }
                        };
                        eng.schedule_in(now, anycast_sim::Duration::from_secs(delay), next);
                    }
                    None => {
                        tp.msgs_lost += 1;
                        if rec_on {
                            recorder.record(
                                now.as_secs(),
                                TelemetryEvent::MsgLost {
                                    request: req,
                                    message: MessageKind::Resv,
                                    link,
                                },
                            );
                        }
                        // Nothing is committed yet; the unconfirmed holds
                        // expire on their own timers and the source times out.
                    }
                }
            }
            Event::ResvErrHop { req, setup, hop } => {
                let tp = two_phase.as_mut().expect("two-phase mode");
                if !tp.table.contains(setup) {
                    return;
                }
                let link = tp.table.link_at(setup, hop).expect("route covers this hop");
                let released = tp
                    .table
                    .resv_err_step(&mut *rsvp, &mut *links, setup, hop)
                    .expect("contains() checked above");
                if released.is_some() {
                    // The error released this hop's hold before its timer fired.
                    tp.holds.cancel(&(setup, hop));
                }
                if rec_on {
                    recorder.record(
                        now.as_secs(),
                        TelemetryEvent::MsgSent {
                            request: req,
                            message: MessageKind::ResvErr,
                            link,
                        },
                    );
                }
                let lost =
                    match transit(&tp.sig.resv_err, tp.cfg.per_hop_delay_secs, &mut *fault_rng) {
                        Some(delay) => {
                            let next = if hop == 0 {
                                Event::SetupRefused { req, setup }
                            } else {
                                Event::ResvErrHop {
                                    req,
                                    setup,
                                    hop: hop - 1,
                                }
                            };
                            eng.schedule_in(now, anycast_sim::Duration::from_secs(delay), next);
                            false
                        }
                        None => true,
                    };
                if lost {
                    tp.msgs_lost += 1;
                    if rec_on {
                        recorder.record(
                            now.as_secs(),
                            TelemetryEvent::MsgLost {
                                request: req,
                                message: MessageKind::ResvErr,
                                link,
                            },
                        );
                    }
                    // Upstream holds stay until expiry; the source times out.
                }
                if !tp.table.contains(setup) {
                    tp.setup_req.remove(&setup);
                }
            }
            Event::SetupComplete { req, setup } => {
                let tp = two_phase.as_mut().expect("two-phase mode");
                if tp.pending.get(&req).is_none_or(|p| p.setup != Some(setup)) {
                    // The source already moved on (timeout fired first); the
                    // dead setup's holds expire on their own timers.
                    return;
                }
                let hops = tp.table.hops(setup).expect("pending setups stay tabled");
                let started = tp
                    .table
                    .started_at(setup)
                    .expect("pending setups stay tabled");
                match tp.table.complete(&mut *rsvp, &mut *links, setup) {
                    Some(outcome) => {
                        for h in 0..hops {
                            tp.holds.cancel(&(setup, h));
                        }
                        tp.setup_req.remove(&setup);
                        admit_complete!(req, outcome.session, hops, started);
                    }
                    None => {
                        // A hold expired while the RESV was in flight (the
                        // timeout is shorter than the round trip): survivors
                        // were just released, and the source's setup timer
                        // will resolve this attempt as failed.
                        for h in 0..hops {
                            tp.holds.cancel(&(setup, h));
                        }
                        if !tp.table.contains(setup) {
                            tp.setup_req.remove(&setup);
                        }
                    }
                }
            }
            Event::SetupRefused { req, setup } => {
                let tp = two_phase.as_mut().expect("two-phase mode");
                if tp.pending.get(&req).is_none_or(|p| p.setup != Some(setup)) {
                    return;
                }
                let err = tp
                    .table
                    .blocked_error(setup)
                    .expect("refused setups recorded their bottleneck");
                tp.table.abandon(setup);
                if !tp.table.contains(setup) {
                    tp.setup_req.remove(&setup);
                }
                let skip = SkipReason::LinkBlocked {
                    link: err.failed_link,
                    hop_index: err.hop_index,
                    available_bps: err.available.bps(),
                };
                resolve_failed_attempt!(req, skip);
            }
            Event::SetupTimeout { req, setup } => {
                let tp = two_phase.as_mut().expect("two-phase mode");
                if tp.pending.get(&req).is_none_or(|p| p.setup != Some(setup)) {
                    // Stale timer: the attempt already resolved (and possibly
                    // a newer setup took its place).
                    return;
                }
                // Give up on this exchange. Remote holds are NOT released here
                // — the source cannot reach them; they expire on their timers.
                let blocked = tp.table.blocked_error(setup);
                tp.table.abandon(setup);
                if !tp.table.contains(setup) {
                    tp.setup_req.remove(&setup);
                }
                let attempts = tp
                    .pending
                    .get(&req)
                    .expect("checked above")
                    .attempts_this_dest;
                if attempts < tp.cfg.backoff.max_retransmits {
                    let delay = tp.cfg.backoff.delay_for(attempts, &mut tp.backoff_rng);
                    tp.retransmits += 1;
                    {
                        let p = tp.pending.get_mut(&req).expect("checked above");
                        p.attempts_this_dest += 1;
                        p.setup = None;
                    }
                    eng.schedule_in(
                        now,
                        anycast_sim::Duration::from_secs(delay),
                        Event::RetrySetup(req),
                    );
                } else {
                    // Retransmissions exhausted: the destination counts as
                    // failed and the §4.5 retrial policy takes over.
                    let skip = match blocked {
                        Some(err) => SkipReason::LinkBlocked {
                            link: err.failed_link,
                            hop_index: err.hop_index,
                            available_bps: err.available.bps(),
                        },
                        None => SkipReason::NoFeasiblePath,
                    };
                    resolve_failed_attempt!(req, skip);
                }
            }
            Event::RetrySetup(req) => {
                if two_phase
                    .as_ref()
                    .is_some_and(|tp| tp.pending.contains_key(&req))
                {
                    start_attempt!(req);
                }
            }
            Event::HoldTick => {
                let tp = two_phase.as_mut().expect("two-phase mode");
                for (setup, hop) in tp.holds.pop_due(now.as_secs()) {
                    let bw_bps = tp.table.bandwidth(setup).map(|b| b.bps());
                    if let Some(link) = tp.table.expire_hold(&mut *links, setup, hop) {
                        tp.holds_expired += 1;
                        if rec_on {
                            let owner = tp
                                .setup_req
                                .get(&setup)
                                .copied()
                                .expect("tabled setups keep their owner mapping");
                            recorder.record(
                                now.as_secs(),
                                TelemetryEvent::HoldExpired {
                                    request: owner,
                                    link,
                                    bw_bps: bw_bps.expect("state existed at expiry"),
                                },
                            );
                        }
                        if !tp.table.contains(setup) {
                            tp.setup_req.remove(&setup);
                        }
                    }
                }
                if let Some(tick) = tp.holds.tick_needed() {
                    eng.schedule_at(SimTime::from_secs(tick), Event::HoldTick);
                }
            }
        }
    }

    /// Finishes the run: drains in-flight two-phase setups, audits the
    /// bandwidth ledger and assembles the [`Metrics`], with time-weighted
    /// averages taken over `[warmup_end, end]`. The offline engine passes
    /// the horizon; the online engine passes wherever its clock stopped.
    pub(crate) fn finish(mut self, end: SimTime) -> (Metrics, R) {
        // Orphans expire exactly at their soft-state deadline via SoftTick
        // events inside the run, so no closing sweep is needed: an orphan
        // still armed at the horizon is genuinely within lifetime.
        //
        // Drain in-flight two-phase setups: their exchanges never resolved
        // (censored, like any open request at the horizon) and their holds
        // go back. Every held bit must belong to a tabled setup — whatever
        // the hold column still shows afterwards leaked.
        if let Some(tp) = self.two_phase.as_mut() {
            let _ = tp.table.drain(&mut self.links);
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
            holds_placed: self.two_phase.as_ref().map_or(0, |tp| tp.holds_placed),
            holds_expired: self.two_phase.as_ref().map_or(0, |tp| tp.holds_expired),
            setups_completed: self.two_phase.as_ref().map_or(0, |tp| tp.setups_completed),
            retransmits: self.two_phase.as_ref().map_or(0, |tp| tp.retransmits),
            signaling_messages_lost: self.two_phase.as_ref().map_or(0, |tp| tp.msgs_lost),
            mean_setup_latency_secs: self.two_phase.as_ref().map_or(0.0, |tp| {
                if tp.latency_count == 0 {
                    0.0
                } else {
                    tp.latency_sum / tp.latency_count as f64
                }
            }),
            leaked_hold_bps,
        };
        (metrics, self.recorder)
    }

    /// End of the warm-up period.
    pub(crate) fn warmup_end(&self) -> SimTime {
        self.warmup_end
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
            setups_in_flight: self.two_phase.as_ref().map_or(0, |tp| tp.table.in_flight()),
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
        let now = eng.now();
        self.wire_torn.insert(session);
        if self.control.teardown_loss_probability > 0.0
            && self.fault_rng.uniform() < self.control.teardown_loss_probability
        {
            // PATH_TEAR lost: the reservation holds its bandwidth until
            // soft state expires it — §4.4, end to end over the wire.
            if let Some(tick) = self.orphans.orphan(session, admitted_at) {
                eng.schedule_at(SimTime::from_secs(tick), Event::SoftTick);
            }
            self.book.note_orphan_created();
        } else if self.control.teardown_delay_secs > 0.0 {
            let delay = self
                .fault_rng
                .exp_duration(self.control.teardown_delay_secs);
            eng.schedule_in(now, delay, Event::Teardown(session));
        } else {
            self.rsvp
                .teardown(&mut self.links, session)
                .expect("live flows hold live sessions");
            if self.rec_on {
                self.recorder.record(
                    now.as_secs(),
                    TelemetryEvent::ReservationTeardown {
                        session,
                        reason: TeardownReason::Departure,
                    },
                );
            }
            if let Some(window) = self.load.as_mut() {
                window.note(now, &self.rsvp, &self.links);
            }
        }
        true
    }

    /// Enqueues one externally-submitted arrival.
    ///
    /// When no arrival is scheduled (the queue had run dry) this one is
    /// scheduled directly; otherwise it waits in the queue for the
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
        let event = Event::Arrival {
            source_index: arrival.source_index,
            group_index: arrival.group_index,
            holding_secs: arrival.holding_secs,
            demand: arrival.demand,
        };
        if self.feed_head_scheduled {
            queue.push_back((at, event));
        } else {
            engine.schedule_at(at, event);
            self.feed_head_scheduled = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let plan = FaultPlan::none()
            .with_link_model(400.0, 60.0)
            .with_member_model(600.0, 120.0)
            .with_teardown_loss(0.1)
            .with_teardown_delay(2.0);
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
        let lossless = FaultPlan::none()
            .with_link_model(400.0, 60.0)
            .with_teardown_delay(2.0);
        let (armed, soft_ticks, m) = run(lossless.clone());
        assert!(m.flows_killed_by_failure > 0 && m.admitted > 10_000);
        assert_eq!((armed, soft_ticks), (0, 0));

        let (armed, soft_ticks, m) = run(lossless.with_teardown_loss(0.1));
        assert!(m.orphaned_reservations > 100 && m.orphans_reclaimed > 0);
        assert_eq!(armed, m.orphaned_reservations);
        assert!(soft_ticks > 0);
    }

    #[test]
    fn lost_teardowns_orphan_and_soft_state_reclaims() {
        let topo = topologies::mci();
        let plan = FaultPlan::none().with_teardown_loss(0.25);
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
        // ledger, same member shares — the express path is the proof that
        // the two-phase machinery only changes behaviour when latency or
        // loss actually exists.
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

    /// Heavy-tailed Pareto holding times are deterministic under a seed
    /// and produce a different sample path than exponential holding at
    /// the same mean.
    #[test]
    fn pareto_holding_is_deterministic_and_distinct() {
        let topo = topologies::mci();
        let pareto = quick(30.0, SystemSpec::dac(PolicySpec::Ed, 2))
            .with_holding_model(HoldingModel::Pareto { shape: 2.5 });
        let a = run_experiment(&topo, &pareto);
        let b = run_experiment(&topo, &pareto);
        assert_eq!(a, b, "Pareto holding must replay bit-identically");
        assert_all_finite(&a, "pareto");
        let exp = run_experiment(&topo, &quick(30.0, SystemSpec::dac(PolicySpec::Ed, 2)));
        assert_ne!(
            a.admitted, exp.admitted,
            "a different holding law must explore a different sample path"
        );
    }

    #[test]
    fn config_builders_compose() {
        let cfg = ExperimentConfig::paper_defaults(5.0, SystemSpec::GlobalDynamic)
            .with_seed(1)
            .with_warmup_secs(10.0)
            .with_measure_secs(20.0)
            .with_flow_bandwidth(Bandwidth::from_kbps(128))
            .with_group(vec![NodeId::new(0)])
            .with_sources(vec![NodeId::new(1)])
            .with_system(SystemSpec::ShortestPath);
        assert_eq!(cfg.seed, 1);
        assert_eq!(cfg.warmup_secs, 10.0);
        assert_eq!(cfg.measure_secs, 20.0);
        assert_eq!(cfg.flow_bandwidth, Bandwidth::from_kbps(128));
        assert_eq!(cfg.group_members.len(), 1);
        assert_eq!(cfg.sources.len(), 1);
        assert_eq!(cfg.system, SystemSpec::ShortestPath);
    }
}
