//! The fault-plan vocabulary: what can break, how often, and on what
//! schedule.

use anycast_net::{LinkId, NodeId};
use anycast_rsvp::RefreshConfig;

/// One atomic state change injected into the running experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Take a link down; flows whose path crosses it are killed.
    FailLink(LinkId),
    /// Bring a previously failed link back up.
    RestoreLink(LinkId),
    /// Crash a router (an anycast member, under the stochastic member
    /// model); all its incident links go down and flows through it die.
    CrashNode(NodeId),
    /// Bring a crashed router back.
    RestoreNode(NodeId),
}

impl FaultAction {
    /// Whether this action takes capacity away (as opposed to restoring
    /// it).
    #[cfg(test)]
    pub(crate) fn is_failure(&self) -> bool {
        matches!(self, FaultAction::FailLink(_) | FaultAction::CrashNode(_))
    }
}

/// An alternating up/down renewal process: exponential time-to-failure
/// with mean `mtbf_secs`, exponential repair with mean `mttr_secs`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StochasticFaultModel {
    /// Mean time between failures (exponential), seconds of up time.
    pub(crate) mtbf_secs: f64,
    /// Mean time to repair (exponential), seconds of down time.
    pub(crate) mttr_secs: f64,
}

impl StochasticFaultModel {
    /// Builds a model, validating that both means are positive and
    /// finite.
    ///
    /// # Panics
    ///
    /// Panics on non-positive or non-finite means.
    pub(crate) fn new(mtbf_secs: f64, mttr_secs: f64) -> Self {
        assert!(
            mtbf_secs.is_finite() && mtbf_secs > 0.0,
            "MTBF must be positive and finite, got {mtbf_secs}"
        );
        assert!(
            mttr_secs.is_finite() && mttr_secs > 0.0,
            "MTTR must be positive and finite, got {mttr_secs}"
        );
        StochasticFaultModel {
            mtbf_secs,
            mttr_secs,
        }
    }
}

/// RSVP control-plane faults: teardown (PATH_TEAR) messages can be lost
/// — orphaning the reservation until soft state expires it — or delayed,
/// holding bandwidth past the flow's departure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlFaultModel {
    /// Probability that a flow's teardown message is lost entirely.
    pub teardown_loss_probability: f64,
    /// Mean of an exponential extra delay on (non-lost) teardown
    /// delivery; `0` means teardowns land instantly, as in the fault-free
    /// model.
    pub teardown_delay_secs: f64,
}

impl ControlFaultModel {
    /// No control-plane faults at all.
    pub(crate) fn none() -> Self {
        ControlFaultModel {
            teardown_loss_probability: 0.0,
            teardown_delay_secs: 0.0,
        }
    }

    /// Whether this model never perturbs anything.
    #[cfg(test)]
    pub(crate) fn is_inert(&self) -> bool {
        self.teardown_loss_probability == 0.0 && self.teardown_delay_secs == 0.0
    }
}

impl Default for ControlFaultModel {
    fn default() -> Self {
        Self::none()
    }
}

/// Loss and delay knobs for one signaling message kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MessageFault {
    /// Probability that one *hop crossing* of the message is lost.
    pub loss_probability: f64,
    /// Mean of an exponential extra delay added to each (non-lost) hop
    /// crossing, on top of the configured per-hop signaling delay.
    pub extra_delay_secs: f64,
}

impl MessageFault {
    /// No perturbation at all.
    pub(crate) fn none() -> Self {
        MessageFault {
            loss_probability: 0.0,
            extra_delay_secs: 0.0,
        }
    }

    /// Whether this fault never perturbs anything.
    pub(crate) fn is_inert(&self) -> bool {
        self.loss_probability == 0.0 && self.extra_delay_secs == 0.0
    }

    /// Validates the knobs.
    ///
    /// # Panics
    ///
    /// Panics on a loss probability outside `[0, 1]` or a negative /
    /// non-finite delay mean.
    pub(crate) fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.loss_probability),
            "loss probability {} not in [0,1]",
            self.loss_probability
        );
        assert!(
            self.extra_delay_secs.is_finite() && self.extra_delay_secs >= 0.0,
            "extra delay mean {} must be non-negative",
            self.extra_delay_secs
        );
    }
}

impl Default for MessageFault {
    fn default() -> Self {
        Self::none()
    }
}

/// Per-kind faults for the two-phase setup signaling (PATH / RESV /
/// RESV_ERR). Only meaningful when the experiment runs the two-phase
/// engine — the atomic engine exchanges no individual messages to lose.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SignalingFaults {
    /// Faults on PATH hop crossings (forward, hold-placing direction).
    pub path: MessageFault,
    /// Faults on RESV hop crossings (backward, confirming direction). A
    /// lost RESV strands the setup's holds until their timers expire.
    pub resv: MessageFault,
    /// Faults on RESV_ERR hop crossings (backward, refusal direction). A
    /// lost RESV_ERR leaves the source waiting for its setup timeout.
    pub resv_err: MessageFault,
}

impl SignalingFaults {
    /// No signaling faults at all.
    pub(crate) fn none() -> Self {
        Self::default()
    }

    /// Whether no message kind is ever perturbed.
    pub fn is_inert(&self) -> bool {
        self.path.is_inert() && self.resv.is_inert() && self.resv_err.is_inert()
    }
}

/// One hand-scripted fault at an absolute simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScriptedFault {
    /// When the action fires, in seconds of simulated time.
    pub at_secs: f64,
    /// What happens.
    pub action: FaultAction,
}

/// Full failure description for one experiment run.
///
/// [`FaultPlan::none`] is the fault-free plan and is the default of
/// `ExperimentConfig`; an experiment run under it must be bit-identical
/// to one that predates fault injection entirely.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Stochastic up/down process applied independently to every link
    /// (`None` = links never fail on their own).
    pub(crate) link_model: Option<StochasticFaultModel>,
    /// Stochastic crash/repair process applied independently to every
    /// anycast member router (`None` = members never crash).
    pub(crate) member_model: Option<StochasticFaultModel>,
    /// RSVP control-plane loss and delay.
    pub control: ControlFaultModel,
    /// Two-phase setup signaling faults (per message kind).
    pub signaling: SignalingFaults,
    /// Soft-state refresh lifecycle governing how fast orphaned
    /// reservations are reclaimed.
    pub refresh: RefreshConfig,
    /// Explicit scripted faults, merged with the stochastic timelines.
    pub(crate) script: Vec<ScriptedFault>,
}

impl FaultPlan {
    /// The fault-free plan: nothing ever fails and no control message is
    /// perturbed. Soft-state refresh still runs (it is part of RSVP, not
    /// a fault), at the protocol default cadence.
    pub fn none() -> Self {
        FaultPlan {
            link_model: None,
            member_model: None,
            control: ControlFaultModel::none(),
            signaling: SignalingFaults::none(),
            refresh: RefreshConfig::rsvp_default(),
            script: Vec::new(),
        }
    }

    /// Whether this plan can never inject any fault.
    #[cfg(test)]
    pub(crate) fn is_inert(&self) -> bool {
        self.link_model.is_none()
            && self.member_model.is_none()
            && self.control.is_inert()
            && self.signaling.is_inert()
            && self.script.is_empty()
    }

    /// Installs a stochastic link up/down model.
    pub fn with_link_model(mut self, mtbf_secs: f64, mttr_secs: f64) -> Self {
        self.link_model = Some(StochasticFaultModel::new(mtbf_secs, mttr_secs));
        self
    }

    /// Installs a stochastic member crash/repair model.
    pub fn with_member_model(mut self, mtbf_secs: f64, mttr_secs: f64) -> Self {
        self.member_model = Some(StochasticFaultModel::new(mtbf_secs, mttr_secs));
        self
    }

    /// Replaces the two-phase signaling fault knobs.
    ///
    /// # Panics
    ///
    /// Panics when any per-kind knob is out of range (see
    /// `validate`).
    pub fn with_signaling(mut self, signaling: SignalingFaults) -> Self {
        signaling.path.validate();
        signaling.resv.validate();
        signaling.resv_err.validate();
        self.signaling = signaling;
        self
    }

    /// Appends one scripted fault.
    ///
    /// # Panics
    ///
    /// Panics on a negative or non-finite fire time.
    pub fn with_scripted(mut self, at_secs: f64, action: FaultAction) -> Self {
        assert!(
            at_secs.is_finite() && at_secs >= 0.0,
            "scripted fault time {at_secs} must be non-negative"
        );
        self.script.push(ScriptedFault { at_secs, action });
        self
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inert() {
        let p = FaultPlan::none();
        assert!(p.is_inert());
        assert_eq!(p, FaultPlan::default());
        assert_eq!(p.refresh, RefreshConfig::rsvp_default());
    }

    #[test]
    fn any_knob_breaks_inertness() {
        assert!(!FaultPlan::none().with_link_model(100.0, 10.0).is_inert());
        assert!(!FaultPlan::none().with_member_model(100.0, 10.0).is_inert());
        let mut lossy = FaultPlan::none();
        lossy.control.teardown_loss_probability = 0.1;
        assert!(!lossy.is_inert());
        assert!(!FaultPlan::none()
            .with_signaling(SignalingFaults {
                resv: MessageFault {
                    loss_probability: 0.2,
                    extra_delay_secs: 0.0,
                },
                ..SignalingFaults::none()
            })
            .is_inert());
        assert!(!FaultPlan::none()
            .with_scripted(10.0, FaultAction::FailLink(LinkId::new(0)))
            .is_inert());
    }

    #[test]
    fn failure_actions_classified() {
        assert!(FaultAction::FailLink(LinkId::new(1)).is_failure());
        assert!(FaultAction::CrashNode(NodeId::new(1)).is_failure());
        assert!(!FaultAction::RestoreLink(LinkId::new(1)).is_failure());
        assert!(!FaultAction::RestoreNode(NodeId::new(1)).is_failure());
    }

    #[test]
    #[should_panic(expected = "MTBF must be positive")]
    fn zero_mtbf_rejected() {
        let _ = StochasticFaultModel::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "must be non-negative")]
    fn bad_signaling_delay_rejected() {
        let _ = FaultPlan::none().with_signaling(SignalingFaults {
            path: MessageFault {
                loss_probability: 0.0,
                extra_delay_secs: -1.0,
            },
            ..SignalingFaults::none()
        });
    }
}
