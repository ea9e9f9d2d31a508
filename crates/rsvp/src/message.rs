//! Signaling message kinds and the per-run message ledger.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The RSVP message kinds exchanged during admission and teardown.
///
/// One message of a given kind is counted per link it crosses, matching how
/// signaling load scales with route length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MessageKind {
    /// Downstream probe from the source toward the candidate destination
    /// (availability check of §4.4 Task 1).
    Path,
    /// Upstream reservation confirming the probe (§4.4 Task 2).
    Resv,
    /// Upstream error: a link on the route lacked bandwidth.
    ResvErr,
    /// Downstream teardown releasing a session's reservations.
    PathTear,
}

impl fmt::Display for MessageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MessageKind::Path => "PATH",
            MessageKind::Resv => "RESV",
            MessageKind::ResvErr => "RESV_ERR",
            MessageKind::PathTear => "PATH_TEAR",
        };
        f.write_str(s)
    }
}

/// Counts signaling messages by kind over a simulation run.
///
/// The paper's overhead argument (§5.2.2, Figure 7) is that each retrial
/// costs a reservation round-trip; this ledger makes that cost measurable
/// rather than assumed.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MessageLedger {
    path: u64,
    resv: u64,
    resv_err: u64,
    path_tear: u64,
}

impl MessageLedger {
    /// Records `hops` messages of the given kind (one per link crossed).
    pub(crate) fn record(&mut self, kind: MessageKind, hops: u64) {
        match kind {
            MessageKind::Path => self.path += hops,
            MessageKind::Resv => self.resv += hops,
            MessageKind::ResvErr => self.resv_err += hops,
            MessageKind::PathTear => self.path_tear += hops,
        }
    }

    /// Message count for one kind.
    pub fn count(&self, kind: MessageKind) -> u64 {
        match kind {
            MessageKind::Path => self.path,
            MessageKind::Resv => self.resv,
            MessageKind::ResvErr => self.resv_err,
            MessageKind::PathTear => self.path_tear,
        }
    }

    /// Total messages across all kinds.
    pub fn total(&self) -> u64 {
        self.path + self.resv + self.resv_err + self.path_tear
    }

    /// Resets all counters to zero.
    pub(crate) fn reset(&mut self) {
        *self = MessageLedger::default();
    }
}

impl fmt::Display for MessageLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PATH={} RESV={} RESV_ERR={} PATH_TEAR={}",
            self.path, self.resv, self.resv_err, self.path_tear
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_count() {
        let mut l = MessageLedger::default();
        l.record(MessageKind::Path, 4);
        l.record(MessageKind::Resv, 4);
        l.record(MessageKind::ResvErr, 2);
        l.record(MessageKind::PathTear, 4);
        assert_eq!(l.count(MessageKind::Path), 4);
        assert_eq!(l.count(MessageKind::Resv), 4);
        assert_eq!(l.count(MessageKind::ResvErr), 2);
        assert_eq!(l.count(MessageKind::PathTear), 4);
        assert_eq!(l.total(), 14);
    }

    #[test]
    fn reset_zeroes() {
        let mut l = MessageLedger::default();
        l.record(MessageKind::PathTear, 9);
        l.reset();
        assert_eq!(l.total(), 0);
        assert_eq!(l, MessageLedger::default());
    }

    #[test]
    fn display_nonempty() {
        let l = MessageLedger::default();
        assert!(l.to_string().contains("PATH=0"));
    }
}
