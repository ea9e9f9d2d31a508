//! Outage accounting: the ledger behind the availability, recovery-time
//! and soft-state metrics.

use anycast_net::{LinkId, NodeId};
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
#[derive(Debug, Clone, Default)]
pub struct FaultBook {
    down_since: HashMap<FaultEntity, f64>,
    outages_completed: u64,
    /// Repair times of the completed outages, summed in completion order.
    repair_secs: f64,
    flows_killed: u64,
    orphans_created: u64,
    orphans_reclaimed: u64,
}

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
            self.outages_completed += 1;
            self.repair_secs += now - start;
        }
    }

    /// Records a live flow torn down because a fault removed its path.
    pub fn note_flow_killed(&mut self) {
        self.flows_killed += 1;
    }

    /// Records a reservation orphaned by a lost teardown message.
    pub fn note_orphan_created(&mut self) {
        self.orphans_created += 1;
    }

    /// Records an orphaned reservation reclaimed by soft-state expiry.
    pub fn note_orphan_reclaimed(&mut self) {
        self.orphans_reclaimed += 1;
    }

    /// Live flows torn down because a fault removed their path.
    pub fn flows_killed(&self) -> u64 {
        self.flows_killed
    }

    /// Reservations orphaned by a lost teardown message.
    pub fn orphans_created(&self) -> u64 {
        self.orphans_created
    }

    /// Orphaned reservations reclaimed by soft-state expiry.
    pub fn orphans_reclaimed(&self) -> u64 {
        self.orphans_reclaimed
    }

    /// Outages that completed (failure followed by repair).
    pub fn completed_outages(&self) -> u64 {
        self.outages_completed
    }

    /// Entities still down.
    #[cfg(test)]
    pub(crate) fn open_outages(&self) -> usize {
        self.down_since.len()
    }

    /// Mean repair time over completed outages (0 when none completed).
    pub fn mean_recovery_secs(&self) -> f64 {
        if self.outages_completed == 0 {
            0.0
        } else {
            self.repair_secs / self.outages_completed as f64
        }
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
    fn soft_state_counts_accumulate() {
        let mut b = FaultBook::new();
        b.note_flow_killed();
        b.note_orphan_created();
        b.note_orphan_created();
        b.note_orphan_reclaimed();
        assert_eq!(b.flows_killed(), 1);
        assert_eq!(b.orphans_created(), 2);
        assert_eq!(b.orphans_reclaimed(), 1);
    }
}
