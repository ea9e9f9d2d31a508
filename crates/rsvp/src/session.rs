//! Reservation sessions.

use anycast_net::{Bandwidth, IdHasher, Path};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::BuildHasherDefault;

/// Opaque identifier of an active reservation session.
///
/// Returned by a successful
/// [`probe_and_reserve`](crate::ReservationEngine::probe_and_reserve) and
/// redeemed at [`teardown`](crate::ReservationEngine::teardown) when the
/// flow's lifetime expires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(u64);

impl SessionId {
    pub(crate) fn new(raw: u64) -> Self {
        SessionId(raw)
    }

    /// Constructs an arbitrary session id for tests and documentation.
    ///
    /// Real ids are only ever issued by
    /// [`ReservationEngine::probe_and_reserve`](crate::ReservationEngine::probe_and_reserve);
    /// ids minted here will not resolve against an engine.
    pub fn for_tests(raw: u64) -> Self {
        SessionId(raw)
    }

    /// The raw session number (monotone per engine).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Reconstructs a session id from its raw number — the inverse of
    /// [`raw`](Self::raw), for ids that crossed a process boundary (the
    /// daemon's wire `teardown` op names sessions by number). An id that
    /// was never issued simply resolves to nothing.
    pub fn from_raw(raw: u64) -> Self {
        SessionId(raw)
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A map keyed by engine-issued sessions, hashed with [`IdHasher`]: only
/// issued ids are ever inserted (a wire `teardown` only looks one up).
pub type SessionMap<V> = HashMap<SessionId, V, BuildHasherDefault<IdHasher>>;

/// A set of engine-issued sessions.
pub type SessionSet = HashSet<SessionId, BuildHasherDefault<IdHasher>>;

/// The state held for one admitted flow: its route and reserved bandwidth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reservation {
    path: Path,
    bandwidth: Bandwidth,
}

impl Reservation {
    pub(crate) fn new(path: Path, bandwidth: Bandwidth) -> Self {
        Reservation { path, bandwidth }
    }

    /// The route the flow was admitted onto.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The bandwidth reserved on every link of the route.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anycast_net::NodeId;

    #[test]
    fn session_id_display_and_order() {
        assert_eq!(SessionId::new(5).to_string(), "s5");
        assert!(SessionId::new(1) < SessionId::new(2));
        assert_eq!(SessionId::new(3).raw(), 3);
    }

    #[test]
    fn session_hasher_separates_dense_ids() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<IdHasher>::default();
        let hashes: HashSet<u64> = (0..10_000)
            .map(|i| build.hash_one(SessionId::new(i)))
            .collect();
        assert_eq!(hashes.len(), 10_000);
        let mut map = SessionMap::default();
        for i in 0..10_000 {
            map.insert(SessionId::new(i), i);
        }
        assert!((0..10_000).all(|i| map[&SessionId::new(i)] == i));
    }

    #[test]
    fn reservation_accessors() {
        let p = Path::trivial(NodeId::new(2));
        let r = Reservation::new(p.clone(), Bandwidth::from_kbps(64));
        assert_eq!(r.path(), &p);
        assert_eq!(r.bandwidth(), Bandwidth::from_kbps(64));
    }
}
