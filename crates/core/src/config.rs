//! What one run of the closed-loop experiment is: the admission system
//! under test, the workload's shape, the groups and demand classes, the
//! signalling mode, and [`ExperimentConfig`] with its builders.

use crate::backoff::BackoffPolicy;
use crate::policy::PolicySpec;
use crate::RetrialPolicy;
use anycast_chaos::FaultPlan;
use anycast_net::{topologies, Bandwidth, NodeId, Topology};

/// Which admission system the experiment evaluates — the paper's
/// `<A, R>` tuples plus the two baselines.
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
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
}

/// One anycast group of a multi-service workload (extension — the paper
/// evaluates a single group).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSpec {
    /// The group's member routers.
    pub members: Vec<NodeId>,
    /// Relative share of the request stream targeting this group
    /// (need not be normalised; must be positive).
    pub share: f64,
}

/// One bandwidth class of a heterogeneous workload (extension beyond the
/// paper, whose flows all demand 64 kb/s).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandClass {
    /// Per-flow bandwidth demand of this class.
    pub bandwidth: Bandwidth,
    /// Relative frequency (need not be normalised; must be positive).
    pub weight: f64,
}

/// Parameters of the latency-aware two-phase signalling engine.
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// Whether the setup timeout is shorter than the shortest round trip
    /// over a link, two per-hop delays: every setup that crosses a link
    /// then times out before its RESV is back.
    pub fn times_out_every_crossing(&self) -> bool {
        self.setup_timeout_secs < 2.0 * self.per_hop_delay_secs
    }
}

/// How the §4.4 reservation exchange is performed.
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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

    /// Whether some source is a member of a group, so that its requests
    /// can be admitted over a zero-hop route.
    pub fn has_local_member(&self) -> bool {
        let is_member = |n: &NodeId| {
            if self.groups.is_empty() {
                self.group_members.contains(n)
            } else {
                self.groups.iter().any(|g| g.members.contains(n))
            }
        };
        self.sources.iter().any(is_member)
    }

    /// Checks the configuration against `topo` and against itself: the
    /// one rulebook every run and every `anycast` command holds a config
    /// to. Allocates nothing when the config is valid. Reachability is
    /// left to route building, which finds it anyway.
    ///
    /// # Errors
    ///
    /// The first rule broken, in words: a non-finite or negative warm-up,
    /// a non-finite or non-positive measured period, no sources, a source
    /// or member outside the topology, burstiness outside `[1, 2)`, an
    /// invalid refresh or control-plane fault model, a `[signaling]` fault
    /// section without two-phase signalling, two-phase signalling on a
    /// system other than DAC, or an invalid two-phase or backoff parameter.
    pub fn check(&self, topo: &Topology) -> Result<(), String> {
        macro_rules! ensure {
            ($ok:expr, $($message:tt)+) => {
                if !$ok {
                    return Err(format!($($message)+));
                }
            };
        }
        let (warmup, measure) = (self.warmup_secs, self.measure_secs);
        ensure!(
            warmup.is_finite() && warmup >= 0.0,
            "warm-up must be finite and non-negative seconds, got {warmup}"
        );
        ensure!(
            measure.is_finite() && measure > 0.0,
            "measured period must be finite and positive seconds, got {measure}"
        );
        ensure!(!self.sources.is_empty(), "need at least one source");
        for s in &self.sources {
            ensure!(topo.contains_node(*s), "source {s} not in topology");
        }
        // `effective_groups` would clone; the member lists are read in place.
        let single = self.groups.is_empty().then_some(&self.group_members);
        for m in self
            .groups
            .iter()
            .map(|g| &g.members)
            .chain(single)
            .flatten()
        {
            ensure!(topo.contains_node(*m), "member {m} not in topology");
        }
        if let ArrivalProcess::Bursty { burstiness, .. } = self.arrivals {
            ensure!(
                (1.0..2.0).contains(&burstiness),
                "burstiness must lie in [1, 2), got {burstiness}"
            );
        }
        let refresh = self.faults.refresh;
        ensure!(
            refresh.refresh_interval_secs.is_finite() && refresh.refresh_interval_secs > 0.0,
            "refresh interval must be positive"
        );
        ensure!(
            refresh.missed_refresh_limit > 0,
            "missed-refresh limit must be at least 1"
        );
        let control = self.faults.control;
        ensure!(
            (0.0..=1.0).contains(&control.teardown_loss_probability),
            "teardown loss probability must lie in [0, 1]"
        );
        ensure!(
            control.teardown_delay_secs.is_finite() && control.teardown_delay_secs >= 0.0,
            "teardown delay mean must be non-negative"
        );
        let tp = match self.signaling {
            // An atomic exchange has no messages to lose or delay.
            SignalingMode::Atomic => {
                ensure!(
                    self.faults.signaling.is_inert(),
                    "a [signaling] fault section needs two-phase signalling"
                );
                return Ok(());
            }
            SignalingMode::TwoPhase(tp) => tp,
        };
        ensure!(
            matches!(self.system, SystemSpec::Dac { .. }),
            "two-phase signalling requires the DAC system, got {}",
            self.system.label()
        );
        ensure!(
            tp.per_hop_delay_secs.is_finite() && tp.per_hop_delay_secs >= 0.0,
            "per-hop signalling delay must be finite and non-negative, got {}",
            tp.per_hop_delay_secs
        );
        ensure!(
            tp.setup_timeout_secs > 0.0 && !tp.setup_timeout_secs.is_nan(),
            "setup timeout must be positive (infinity allowed), got {}",
            tp.setup_timeout_secs
        );
        // A source on a member completes its zero-hop setups on the spot,
        // with no timer, so any timeout still admits them.
        ensure!(
            self.has_local_member() || !tp.times_out_every_crossing(),
            "setup timeout {} s is shorter than a one-link round trip (2 × {} s per hop): \
             no setup could complete",
            tp.setup_timeout_secs,
            tp.per_hop_delay_secs
        );
        let b = tp.backoff;
        ensure!(
            b.base_secs.is_finite() && b.base_secs >= 0.0,
            "backoff base must be finite and non-negative, got {}",
            b.base_secs
        );
        ensure!(
            b.multiplier.is_finite() && b.multiplier >= 1.0,
            "backoff multiplier must be finite and at least 1, got {}",
            b.multiplier
        );
        ensure!(
            b.max_backoff_secs.is_finite() && b.max_backoff_secs >= 0.0,
            "backoff cap must be finite and non-negative, got {}",
            b.max_backoff_secs
        );
        ensure!(
            b.jitter_frac.is_finite() && (0.0..1.0).contains(&b.jitter_frac),
            "backoff jitter fraction must lie in [0, 1), got {}",
            b.jitter_frac
        );
        Ok(())
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
