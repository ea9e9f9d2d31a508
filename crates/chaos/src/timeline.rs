//! Expanding a [`FaultPlan`] into a concrete, deterministic event
//! sequence for one run.

use crate::plan::{FaultAction, FaultPlan, ScriptedFault, StochasticFaultModel};
use anycast_net::{NodeId, Topology};
use anycast_sim::SimRng;

/// A time-sorted sequence of fault actions, ready to be scheduled on the
/// simulation engine.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTimeline {
    events: Vec<ScriptedFault>,
}

impl FaultTimeline {
    /// The events, sorted by fire time (stable for ties).
    pub fn events(&self) -> &[ScriptedFault] {
        &self.events
    }

    /// Number of scheduled actions.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no action will ever fire.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of capacity-removing actions (failures, not repairs).
    #[cfg(test)]
    pub(crate) fn failure_count(&self) -> usize {
        self.events.iter().filter(|e| e.action.is_failure()).count()
    }
}

/// Generates one entity's alternating up/down sample path over
/// `[0, horizon)` and appends it to `out`.
fn sample_entity(
    model: &StochasticFaultModel,
    horizon_secs: f64,
    rng: &mut SimRng,
    fail: impl Fn() -> FaultAction,
    restore: impl Fn() -> FaultAction,
    out: &mut Vec<ScriptedFault>,
) {
    let mut t = rng.exp(model.mtbf_secs);
    while t < horizon_secs {
        out.push(ScriptedFault {
            at_secs: t,
            action: fail(),
        });
        t += rng.exp(model.mttr_secs);
        if t >= horizon_secs {
            break; // the outage outlives the run; no repair to schedule
        }
        out.push(ScriptedFault {
            at_secs: t,
            action: restore(),
        });
        t += rng.exp(model.mtbf_secs);
    }
}

/// Expands `plan` into the concrete timeline of one run.
///
/// Deterministic: the same `(plan, topo, members, horizon, rng state)`
/// always yields the same timeline. Each link and each member gets its
/// own forked RNG stream, consumed in a fixed order (links by id, then
/// members sorted by id), so adding entities or lengthening the horizon
/// never perturbs the sample path of the others. An inert plan consumes
/// no randomness at all.
///
/// Scripted events beyond the horizon are dropped; stochastic events are
/// generated only in `[0, horizon)`.
pub fn build_timeline(
    plan: &FaultPlan,
    topo: &Topology,
    members: &[NodeId],
    horizon_secs: f64,
    rng: &mut SimRng,
) -> FaultTimeline {
    assert!(
        horizon_secs.is_finite() && horizon_secs >= 0.0,
        "horizon must be non-negative, got {horizon_secs}"
    );
    let mut events = Vec::new();
    if let Some(model) = &plan.link_model {
        for link in topo.links() {
            let id = link.id();
            let mut stream = rng.fork();
            sample_entity(
                model,
                horizon_secs,
                &mut stream,
                || FaultAction::FailLink(id),
                || FaultAction::RestoreLink(id),
                &mut events,
            );
        }
    }
    if let Some(model) = &plan.member_model {
        let mut targets: Vec<NodeId> = members.to_vec();
        targets.sort_unstable();
        targets.dedup();
        for node in targets {
            let mut stream = rng.fork();
            sample_entity(
                model,
                horizon_secs,
                &mut stream,
                || FaultAction::CrashNode(node),
                || FaultAction::RestoreNode(node),
                &mut events,
            );
        }
    }
    for s in &plan.script {
        assert!(
            s.at_secs.is_finite() && s.at_secs >= 0.0,
            "scripted fault time {} must be non-negative",
            s.at_secs
        );
        if s.at_secs < horizon_secs {
            events.push(*s);
        }
    }
    events.sort_by(|a, b| a.at_secs.total_cmp(&b.at_secs));
    FaultTimeline { events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anycast_net::{topologies, LinkId};

    fn members() -> Vec<NodeId> {
        topologies::MCI_GROUP_MEMBERS.map(NodeId::new).to_vec()
    }

    #[test]
    fn inert_plan_yields_empty_timeline_and_consumes_no_rng() {
        let topo = topologies::mci();
        let mut rng = SimRng::seed_from(7);
        let mut snapshot = rng.clone();
        let tl = build_timeline(&FaultPlan::none(), &topo, &members(), 1_000.0, &mut rng);
        assert!(tl.is_empty());
        // The rng was untouched: it still matches its pre-call snapshot.
        assert_eq!(snapshot.uniform(), rng.uniform());
    }

    #[test]
    fn same_seed_same_timeline() {
        let topo = topologies::mci();
        let plan = FaultPlan::none()
            .with_link_model(600.0, 60.0)
            .with_member_model(2_000.0, 200.0);
        let tl1 = build_timeline(
            &plan,
            &topo,
            &members(),
            5_000.0,
            &mut SimRng::seed_from(42),
        );
        let tl2 = build_timeline(
            &plan,
            &topo,
            &members(),
            5_000.0,
            &mut SimRng::seed_from(42),
        );
        assert_eq!(tl1, tl2);
        assert!(!tl1.is_empty(), "5000 s at MTBF 600 s must produce faults");
    }

    #[test]
    fn different_seeds_differ() {
        let topo = topologies::mci();
        let plan = FaultPlan::none().with_link_model(600.0, 60.0);
        let tl1 = build_timeline(&plan, &topo, &members(), 5_000.0, &mut SimRng::seed_from(1));
        let tl2 = build_timeline(&plan, &topo, &members(), 5_000.0, &mut SimRng::seed_from(2));
        assert_ne!(tl1, tl2);
    }

    #[test]
    fn timeline_is_sorted_and_alternates_per_entity() {
        let topo = topologies::mci();
        let plan = FaultPlan::none().with_link_model(400.0, 80.0);
        let tl = build_timeline(
            &plan,
            &topo,
            &members(),
            10_000.0,
            &mut SimRng::seed_from(9),
        );
        let events = tl.events();
        for w in events.windows(2) {
            assert!(w[0].at_secs <= w[1].at_secs, "not sorted: {w:?}");
        }
        // Per link: fail, restore, fail, restore, ... in time order.
        for link in topo.links() {
            let mine: Vec<&ScriptedFault> = events
                .iter()
                .filter(|e| {
                    matches!(e.action,
                        FaultAction::FailLink(l) | FaultAction::RestoreLink(l) if l == link.id())
                })
                .collect();
            for (i, e) in mine.iter().enumerate() {
                assert_eq!(
                    e.action.is_failure(),
                    i % 2 == 0,
                    "link {} event {} breaks alternation",
                    link.id(),
                    i
                );
            }
        }
        assert!(tl.failure_count() >= tl.len() / 2);
    }

    #[test]
    fn scripted_events_merge_and_clip_to_horizon() {
        let topo = topologies::mci();
        let plan = FaultPlan::none()
            .with_scripted(50.0, FaultAction::FailLink(LinkId::new(3)))
            .with_scripted(999.0, FaultAction::RestoreLink(LinkId::new(3)))
            .with_scripted(10.0, FaultAction::CrashNode(NodeId::new(4)));
        let tl = build_timeline(&plan, &topo, &members(), 100.0, &mut SimRng::seed_from(0));
        assert_eq!(tl.len(), 2, "the 999 s event lies beyond the horizon");
        assert_eq!(tl.events()[0].at_secs, 10.0);
        assert_eq!(tl.events()[1].at_secs, 50.0);
    }

    #[test]
    fn member_order_does_not_matter() {
        let topo = topologies::mci();
        let plan = FaultPlan::none().with_member_model(1_000.0, 100.0);
        let fwd = members();
        let mut rev = members();
        rev.reverse();
        let tl1 = build_timeline(&plan, &topo, &fwd, 5_000.0, &mut SimRng::seed_from(5));
        let tl2 = build_timeline(&plan, &topo, &rev, 5_000.0, &mut SimRng::seed_from(5));
        assert_eq!(tl1, tl2, "members are sampled in sorted order");
    }
}
