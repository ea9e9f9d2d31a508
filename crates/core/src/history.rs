//! The local admission history of eqs. (5)–(7).

/// Per-AC-router admission history `H = <h₁, …, h_K>` (eq. 5).
///
/// `h_i` counts the *consecutive* failures in the most recent selections of
/// member `i`: it resets to zero whenever a reservation toward `i` succeeds
/// (eq. 7). This log is "readily available at the AC-router. Its collection
/// does not cost much at all" (§4.3.2) — it is the cheap dynamic signal
/// behind the WD/D+H algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryTable {
    entries: Vec<u32>,
}

impl HistoryTable {
    /// Creates an all-zero history for a group of `k` members (eq. 6).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub(crate) fn new(k: usize) -> Self {
        assert!(k > 0, "history needs at least one member");
        HistoryTable {
            entries: vec![0; k],
        }
    }

    /// Group size `K`.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Always `false`: constructed non-empty.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The raw `h_i` values in member order.
    pub fn entries(&self) -> &[u32] {
        &self.entries
    }

    /// `h_i` for one member.
    ///
    /// # Panics
    ///
    /// Panics if `member` is out of range.
    #[cfg(test)]
    pub(crate) fn failures(&self, member: usize) -> u32 {
        self.entries[member]
    }

    /// Records that a reservation toward `member` succeeded: `h_i ← 0`.
    ///
    /// # Panics
    ///
    /// Panics if `member` is out of range.
    pub(crate) fn record_success(&mut self, member: usize) {
        self.entries[member] = 0;
    }

    /// Records that a reservation toward `member` failed: `h_i ← h_i + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `member` is out of range.
    pub(crate) fn record_failure(&mut self, member: usize) {
        self.entries[member] = self.entries[member].saturating_add(1);
    }

    /// Number of members with a clean record (`h_i = 0`) — the `M` of
    /// eq. (9).
    #[cfg(test)]
    pub(crate) fn clean_count(&self) -> usize {
        self.entries.iter().filter(|&&h| h == 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_clean() {
        let h = HistoryTable::new(5);
        assert_eq!(h.len(), 5);
        assert!(!h.is_empty());
        assert_eq!(h.entries(), &[0; 5]);
        assert_eq!(h.clean_count(), 5);
    }

    #[test]
    fn failures_accumulate_and_success_resets() {
        let mut h = HistoryTable::new(3);
        h.record_failure(0);
        h.record_failure(0);
        h.record_failure(2);
        assert_eq!(h.failures(0), 2);
        assert_eq!(h.failures(1), 0);
        assert_eq!(h.failures(2), 1);
        assert_eq!(h.clean_count(), 1);
        h.record_success(0);
        assert_eq!(h.failures(0), 0);
        assert_eq!(h.clean_count(), 2);
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let mut h = HistoryTable::new(1);
        h.entries[0] = u32::MAX;
        h.record_failure(0);
        assert_eq!(h.failures(0), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn zero_members_rejected() {
        let _ = HistoryTable::new(0);
    }

    proptest::proptest! {
        /// The history table is a fold of its event stream: success zeroes,
        /// failure increments.
        #[test]
        fn history_is_fold_of_events(
            k in 1usize..8,
            events in proptest::collection::vec((proptest::prelude::any::<bool>(), 0usize..8), 0..100),
        ) {
            let mut table = HistoryTable::new(k);
            let mut model = vec![0u32; k];
            for (success, who) in events {
                let m = who % k;
                if success {
                    table.record_success(m);
                    model[m] = 0;
                } else {
                    table.record_failure(m);
                    model[m] += 1;
                }
                proptest::prop_assert_eq!(table.entries(), model.as_slice());
                proptest::prop_assert_eq!(
                    table.clean_count(),
                    model.iter().filter(|&&h| h == 0).count()
                );
            }
        }
    }
}
