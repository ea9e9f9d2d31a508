//! Outage accounting: the ledger behind the availability, recovery-time
//! and soft-state metrics.

use anycast_net::{LinkId, NodeId};
use anycast_telemetry::{MetricKey, MetricsRegistry};
use std::collections::HashMap;

/// A thing that can be down: one link or one router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultEntity {
    /// A failed link.
    Link(LinkId),
    /// A crashed router.
    Node(NodeId),
}

/// Running ledger of one experiment's fault history.
///
/// The book never looks at the network itself; the experiment loop
/// reports state transitions and the book turns them into durations and
/// counts. Double-failing an already-down entity or restoring a healthy
/// one is ignored, so idempotent scripted plans stay well-defined.
///
/// All counts live in a telemetry [`MetricsRegistry`] rather than bespoke
/// fields, so the same numbers the end-of-run `Metrics` report are also
/// exportable as labelled metrics (see `registry`).
#[derive(Debug, Clone, Default)]
pub struct FaultBook {
    down_since: HashMap<FaultEntity, f64>,
    registry: MetricsRegistry,
}

fn counter(name: &str) -> MetricKey {
    MetricKey::plain(name)
}

const OUTAGES_COMPLETED: &str = "chaos_outages_completed_total";
const REPAIR_SECS: &str = "chaos_repair_secs_total";
const FLOWS_KILLED: &str = "chaos_flows_killed_total";
const ORPHANS_CREATED: &str = "chaos_orphans_created_total";
const ORPHANS_RECLAIMED: &str = "chaos_orphans_reclaimed_total";

impl FaultBook {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `entity` went down at `now` (ignored if already
    /// down).
    pub fn record_down(&mut self, entity: FaultEntity, now: f64) {
        self.down_since.entry(entity).or_insert(now);
    }

    /// Records that `entity` came back at `now`, completing an outage
    /// (ignored if it was not down).
    pub fn record_up(&mut self, entity: FaultEntity, now: f64) {
        if let Some(start) = self.down_since.remove(&entity) {
            self.registry.inc(counter(OUTAGES_COMPLETED), 1.0);
            self.registry.inc(counter(REPAIR_SECS), now - start);
        }
    }

    /// Records a live flow torn down because a fault removed its path.
    pub fn note_flow_killed(&mut self) {
        self.registry.inc(counter(FLOWS_KILLED), 1.0);
    }

    /// Records a reservation orphaned by a lost teardown message.
    pub fn note_orphan_created(&mut self) {
        self.registry.inc(counter(ORPHANS_CREATED), 1.0);
    }

    /// Records an orphaned reservation reclaimed by soft-state expiry.
    pub fn note_orphan_reclaimed(&mut self) {
        self.registry.inc(counter(ORPHANS_RECLAIMED), 1.0);
    }

    /// Live flows torn down because a fault removed their path.
    pub fn flows_killed(&self) -> u64 {
        self.registry.counter(&counter(FLOWS_KILLED)) as u64
    }

    /// Reservations orphaned by a lost teardown message.
    pub fn orphans_created(&self) -> u64 {
        self.registry.counter(&counter(ORPHANS_CREATED)) as u64
    }

    /// Orphaned reservations reclaimed by soft-state expiry.
    pub fn orphans_reclaimed(&self) -> u64 {
        self.registry.counter(&counter(ORPHANS_RECLAIMED)) as u64
    }

    /// Outages that completed (failure followed by repair).
    pub fn completed_outages(&self) -> u64 {
        self.registry.counter(&counter(OUTAGES_COMPLETED)) as u64
    }

    /// Entities still down.
    #[cfg(test)]
    pub(crate) fn open_outages(&self) -> usize {
        self.down_since.len()
    }

    /// Mean repair time over completed outages (0 when none completed).
    pub fn mean_recovery_secs(&self) -> f64 {
        let completed = self.registry.counter(&counter(OUTAGES_COMPLETED));
        if completed == 0.0 {
            0.0
        } else {
            self.registry.counter(&counter(REPAIR_SECS)) / completed
        }
    }

    /// The underlying metrics registry (counters named `chaos_*`), for
    /// export alongside the run's other telemetry.
    #[cfg(test)]
    pub(crate) fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(n: u32) -> FaultEntity {
        FaultEntity::Link(LinkId::new(n))
    }

    #[test]
    fn outage_durations_accumulate() {
        let mut b = FaultBook::new();
        b.record_down(link(1), 10.0);
        b.record_down(FaultEntity::Node(NodeId::new(3)), 20.0);
        assert_eq!(b.open_outages(), 2);
        b.record_up(link(1), 40.0);
        b.record_up(FaultEntity::Node(NodeId::new(3)), 30.0);
        assert_eq!(b.completed_outages(), 2);
        assert_eq!(b.open_outages(), 0);
        assert!((b.mean_recovery_secs() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn double_fail_and_spurious_restore_are_ignored() {
        let mut b = FaultBook::new();
        b.record_down(link(7), 5.0);
        b.record_down(link(7), 8.0); // keeps the original start
        b.record_up(link(7), 15.0);
        assert_eq!(b.completed_outages(), 1);
        assert!((b.mean_recovery_secs() - 10.0).abs() < 1e-12);
        b.record_up(link(7), 99.0); // not down: no-op
        assert_eq!(b.completed_outages(), 1);
    }

    #[test]
    fn empty_book_reports_zeroes() {
        let b = FaultBook::new();
        assert_eq!(b.completed_outages(), 0);
        assert_eq!(b.mean_recovery_secs(), 0.0);
        assert_eq!(b.open_outages(), 0);
        assert_eq!(b.flows_killed(), 0);
        assert_eq!(b.orphans_created(), 0);
        assert_eq!(b.orphans_reclaimed(), 0);
    }

    #[test]
    fn soft_state_counts_flow_through_registry() {
        let mut b = FaultBook::new();
        b.note_flow_killed();
        b.note_orphan_created();
        b.note_orphan_created();
        b.note_orphan_reclaimed();
        assert_eq!(b.flows_killed(), 1);
        assert_eq!(b.orphans_created(), 2);
        assert_eq!(b.orphans_reclaimed(), 1);
        assert_eq!(
            b.registry()
                .counter(&MetricKey::plain("chaos_orphans_created_total")),
            2.0
        );
    }
}
