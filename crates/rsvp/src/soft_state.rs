//! Soft-state reservation lifecycle — the RSVP refresh model.
//!
//! Real RSVP reservations are *soft state*: they expire unless refreshed
//! every refresh period, which is how the protocol survives router
//! crashes and route changes without explicit teardown. The paper leans
//! on RSVP for its reservation step (§4.4) but, in a fault-free analysis,
//! never needs expiry; this module supplies it for the fault-injection
//! extension so that orphaned reservations (e.g. a source that silently
//! dies) eventually return their bandwidth.
//!
//! The tracker is deliberately decoupled from the simulation engine: the
//! caller feeds it the current simulated time, and it reports which
//! sessions have timed out. This keeps the module testable in isolation
//! and usable from any event loop.
//!
//! The experiment loop does not run the tracker: rewriting one deadline
//! per live session per refresh was most of a simulated request's cost,
//! and a refreshed session's deadline is never read. It keeps deadlines
//! for orphans only (`anycast_dac`'s `soft_state` module), and the
//! tracker is the naive reference that module is tested against.

use crate::SessionId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configuration of the refresh lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RefreshConfig {
    /// Nominal interval between refreshes (RSVP's `R`, default 30 s).
    pub refresh_interval_secs: f64,
    /// How many consecutive missed refreshes kill a reservation (RSVP
    /// computes its lifetime as `(K + 0.5)·1.5·R` with `K = 3`; we keep
    /// the multiplier explicit).
    pub missed_refresh_limit: u32,
}

impl RefreshConfig {
    /// RSVP's defaults: 30 s refresh, state dies after ~3 missed
    /// refreshes.
    pub fn rsvp_default() -> Self {
        RefreshConfig {
            refresh_interval_secs: 30.0,
            missed_refresh_limit: 3,
        }
    }

    /// The lifetime granted by one refresh.
    pub fn lifetime_secs(&self) -> f64 {
        self.refresh_interval_secs * f64::from(self.missed_refresh_limit)
    }
}

impl Default for RefreshConfig {
    fn default() -> Self {
        Self::rsvp_default()
    }
}

/// Tracks refresh deadlines for active sessions — the naive model of
/// soft state: one deadline per session, pushed out by every refresh,
/// polled for expiries. Simple enough to be obviously right, which is
/// what it is kept for: the simulator's per-orphan timers are checked
/// against it.
///
/// ```rust
/// use anycast_rsvp::{RefreshConfig, RefreshTracker, SessionId};
///
/// let mut tracker = RefreshTracker::new(RefreshConfig::rsvp_default());
/// let s = SessionId::for_tests(1);
/// tracker.register(s, 0.0);
/// tracker.refresh(s, 60.0).unwrap();
/// // 60 + 90 s lifetime: expired well after 150.
/// assert_eq!(tracker.collect_expired(100.0), vec![]);
/// assert_eq!(tracker.collect_expired(151.0), vec![s]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RefreshTracker {
    config: RefreshConfig,
    deadlines: HashMap<SessionId, f64>,
}

impl RefreshTracker {
    /// Creates a tracker with the given lifecycle configuration.
    pub fn new(config: RefreshConfig) -> Self {
        RefreshTracker {
            config,
            deadlines: HashMap::new(),
        }
    }

    /// Number of sessions currently tracked.
    pub fn tracked(&self) -> usize {
        self.deadlines.len()
    }

    /// Starts tracking a session installed at `now` (seconds of simulated
    /// time); its first deadline is one lifetime out.
    pub fn register(&mut self, session: SessionId, now: f64) {
        self.deadlines
            .insert(session, now + self.config.lifetime_secs());
    }

    /// Records a refresh for `session` at `now`, extending its deadline.
    ///
    /// # Errors
    ///
    /// Returns `Err(session)` when the session is unknown (already
    /// expired or torn down) — the caller should treat its state as gone
    /// and re-reserve, exactly as RSVP endpoints do.
    pub fn refresh(&mut self, session: SessionId, now: f64) -> Result<(), SessionId> {
        match self.deadlines.get_mut(&session) {
            Some(deadline) => {
                *deadline = now + self.config.lifetime_secs();
                Ok(())
            }
            None => Err(session),
        }
    }

    /// Stops tracking a session (explicit teardown).
    pub fn forget(&mut self, session: SessionId) {
        self.deadlines.remove(&session);
    }

    /// Removes and returns every session whose deadline passed at `now`,
    /// sorted by id for deterministic processing.
    pub fn collect_expired(&mut self, now: f64) -> Vec<SessionId> {
        let mut expired: Vec<SessionId> = self
            .deadlines
            .iter()
            .filter(|(_, &deadline)| deadline < now)
            .map(|(&s, _)| s)
            .collect();
        expired.sort_unstable();
        for s in &expired {
            self.deadlines.remove(s);
        }
        expired
    }

    /// The deadline currently recorded for `session`, if tracked. Lets a
    /// timer-driven caller arm exactly one expiry timer per session
    /// instead of polling [`collect_expired`](Self::collect_expired).
    pub fn deadline(&self, session: SessionId) -> Option<f64> {
        self.deadlines.get(&session).copied()
    }

    /// The next deadline across all sessions, for scheduling a sweep.
    #[cfg(test)]
    pub(crate) fn next_deadline(&self) -> Option<f64> {
        self.deadlines
            .values()
            .copied()
            .min_by(|a, b| a.total_cmp(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u64) -> SessionId {
        SessionId::for_tests(n)
    }

    #[test]
    fn config_lifetime() {
        let c = RefreshConfig::rsvp_default();
        assert_eq!(c.lifetime_secs(), 90.0);
        assert_eq!(RefreshConfig::default(), c);
    }

    #[test]
    fn sessions_expire_without_refresh() {
        let mut t = RefreshTracker::new(RefreshConfig::rsvp_default());
        t.register(s(1), 0.0);
        t.register(s(2), 50.0);
        assert_eq!(t.tracked(), 2);
        assert_eq!(t.collect_expired(89.0), vec![]);
        assert_eq!(t.collect_expired(91.0), vec![s(1)]);
        assert_eq!(t.collect_expired(141.0), vec![s(2)]);
        assert_eq!(t.tracked(), 0);
    }

    #[test]
    fn refresh_extends_deadline() {
        let mut t = RefreshTracker::new(RefreshConfig::rsvp_default());
        t.register(s(1), 0.0);
        for now in [30.0, 60.0, 90.0, 120.0] {
            t.refresh(s(1), now).unwrap();
            assert!(t.collect_expired(now + 1.0).is_empty());
        }
        assert_eq!(t.collect_expired(120.0 + 91.0), vec![s(1)]);
    }

    #[test]
    fn refresh_after_expiry_fails() {
        let mut t = RefreshTracker::new(RefreshConfig::rsvp_default());
        t.register(s(1), 0.0);
        assert_eq!(t.collect_expired(1_000.0), vec![s(1)]);
        assert_eq!(t.refresh(s(1), 1_000.0), Err(s(1)));
    }

    #[test]
    fn forget_is_idempotent() {
        let mut t = RefreshTracker::new(RefreshConfig::rsvp_default());
        t.register(s(3), 0.0);
        t.forget(s(3));
        t.forget(s(3));
        assert_eq!(t.tracked(), 0);
        assert!(t.collect_expired(f64::MAX).is_empty());
    }

    #[test]
    fn expired_sorted_deterministically() {
        let mut t = RefreshTracker::new(RefreshConfig {
            refresh_interval_secs: 1.0,
            missed_refresh_limit: 1,
        });
        for n in [9u64, 3, 7, 1] {
            t.register(s(n), 0.0);
        }
        assert_eq!(t.collect_expired(2.0), vec![s(1), s(3), s(7), s(9)]);
    }

    #[test]
    fn next_deadline_tracks_minimum() {
        let mut t = RefreshTracker::new(RefreshConfig::rsvp_default());
        assert_eq!(t.next_deadline(), None);
        t.register(s(1), 10.0);
        t.register(s(2), 0.0);
        assert_eq!(t.next_deadline(), Some(90.0));
    }
}
