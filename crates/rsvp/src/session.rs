//! Reservation sessions.

use anycast_net::{Bandwidth, Path};
use std::fmt;

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

/// A map keyed by engine-issued sessions, whose size follows its live
/// count rather than its churn.
///
/// An open-addressed table of `(id, value)` slots with linear probing
/// from each id's Fibonacci hash. Removal shifts the rest of the key's
/// probe run back instead of leaving a tombstone, so a table under
/// constant insert and remove traffic never fills with dead slots. It
/// doubles only when its live count would pass three quarters of its
/// slots, and never shrinks. Ids are issued densely and in order, so a
/// home slot taken straight from their low bits would line the live flows
/// up in one long occupied run, and every removal would walk the rest of
/// it; the hash's top bits spread consecutive ids evenly over the table.
/// Only issued ids are inserted (a wire `teardown` only looks one up), so
/// no client can choose colliding keys.
#[derive(Debug)]
pub struct SessionMap<V> {
    /// A power of two long, or empty before the first insert.
    slots: Vec<Option<(SessionId, V)>>,
    /// 64 less log2 of the slot count: a key's home slot is that many
    /// top bits of its Fibonacci hash.
    shift: u32,
    len: usize,
}

/// The first table's slot count.
const MIN_SLOTS: usize = 16;

/// An empty map: it allocates at its first insert.
impl<V> Default for SessionMap<V> {
    fn default() -> Self {
        SessionMap {
            slots: Vec::new(),
            shift: 64,
            len: 0,
        }
    }
}

impl<V> SessionMap<V> {
    /// Sessions in the map.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// How many sessions the map holds before its next growth.
    pub fn capacity(&self) -> usize {
        self.slots.len() / 4 * 3
    }

    /// The slot a probe for `id` starts at. The table must not be empty.
    fn home(&self, id: SessionId) -> usize {
        (id.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// The slot holding `id`, or the empty slot ending its probe run.
    /// The table must not be empty.
    fn probe(&self, id: SessionId) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(id);
        loop {
            match &self.slots[i] {
                None => return Err(i),
                Some((k, _)) if *k == id => return Ok(i),
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    fn find(&self, id: SessionId) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(id).ok()
    }

    /// Whether `id` is in the map.
    pub fn contains_key(&self, id: SessionId) -> bool {
        self.find(id).is_some()
    }

    /// The value stored under `id`.
    pub fn get(&self, id: SessionId) -> Option<&V> {
        let at = self.find(id)?;
        self.slots[at].as_ref().map(|(_, v)| v)
    }

    /// Stores `value` under `id`, returning the value it replaces.
    pub fn insert(&mut self, id: SessionId, value: V) -> Option<V> {
        if !self.slots.is_empty() {
            match self.probe(id) {
                Ok(at) => {
                    let (_, old) = self.slots[at].as_mut().expect("probe found it");
                    return Some(std::mem::replace(old, value));
                }
                Err(at) if self.len < self.capacity() => {
                    self.slots[at] = Some((id, value));
                    self.len += 1;
                    return None;
                }
                Err(_) => {}
            }
        }
        self.grow();
        let at = self.probe(id).expect_err("a new key");
        self.slots[at] = Some((id, value));
        self.len += 1;
        None
    }

    /// Removes `id`, returning its value. The keys after it in its probe
    /// run move back over the hole, so no tombstone is left.
    pub fn remove(&mut self, id: SessionId) -> Option<V> {
        let mut hole = self.find(id)?;
        let (_, value) = self.slots[hole].take().expect("find found it");
        self.len -= 1;
        let mask = self.slots.len() - 1;
        let mut at = hole;
        loop {
            at = (at + 1) & mask;
            let Some((k, _)) = &self.slots[at] else {
                return Some(value);
            };
            // The key at `at` may fill the hole unless its home lies
            // after the hole: it must stay reachable from its home.
            let home = self.home(*k);
            if at.wrapping_sub(home) & mask >= at.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[at].take();
                hole = at;
            }
        }
    }

    /// Every session and its value, in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (SessionId, &V)> {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|(k, v)| (*k, v)))
    }

    /// Doubles the table (or makes the first one) and re-homes every key.
    fn grow(&mut self) {
        let n = (2 * self.slots.len()).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, (0..n).map(|_| None).collect());
        self.shift = 64 - n.trailing_zeros();
        for (k, v) in old.into_iter().flatten() {
            let at = self.probe(k).expect_err("keys are unique");
            self.slots[at] = Some((k, v));
        }
    }
}

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
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn session_id_display_and_order() {
        assert_eq!(SessionId::new(5).to_string(), "s5");
        assert!(SessionId::new(1) < SessionId::new(2));
        assert_eq!(SessionId::new(3).raw(), 3);
    }

    #[test]
    fn a_session_map_grows_past_three_quarters_full_and_only_then() {
        let mut map = SessionMap::default();
        assert_eq!(map.capacity(), 0);
        for i in 0..10_000 {
            assert_eq!(map.insert(SessionId::new(i), i), None);
        }
        assert!((0..10_000).all(|i| map.get(SessionId::new(i)) == Some(&i)));
        assert_eq!((map.len(), map.capacity()), (10_000, 12_288));
        assert_eq!(map.insert(SessionId::new(7), 70), Some(7));
        assert_eq!(map.len(), 10_000);
        // Exactly three quarters full holds; one more key doubles the table.
        let mut map = SessionMap::default();
        for i in 0..12 {
            map.insert(SessionId::new(i), ());
        }
        assert_eq!((map.capacity(), map.slots.len()), (12, 16));
        map.insert(SessionId::new(12), ());
        assert_eq!((map.capacity(), map.slots.len()), (24, 32));
    }

    /// `n` ids from `from` on whose home in a table of `slots` slots is
    /// `home`.
    fn homed(slots: usize, home: usize, from: u64, n: usize) -> Vec<SessionId> {
        let table = SessionMap::<()> {
            slots: (0..slots).map(|_| None).collect(),
            shift: 64 - slots.trailing_zeros(),
            len: 0,
        };
        (0..)
            .map(|i| SessionId::new(from.wrapping_add(i)))
            .filter(|&k| table.home(k) == home)
            .take(n)
            .collect()
    }

    #[test]
    fn removal_shifts_a_wrapped_probe_run_back() {
        // Sixteen slots: a, b and c share home slot 14, so c wraps to slot
        // 0 and d, homed there, is pushed to slot 1.
        let [a, b, c] = homed(16, 14, 0, 3)[..] else {
            unreachable!()
        };
        let d = homed(16, 0, 0, 1)[0];
        let mut map = SessionMap::default();
        for k in [a, b, c, d] {
            map.insert(k, k.raw());
        }
        assert_eq!(map.slots.len(), 16);
        let at = |i: usize| map.slots[i].as_ref().map(|s| s.0);
        assert_eq!(
            [at(14), at(15), at(0), at(1)],
            [Some(a), Some(b), Some(c), Some(d)]
        );
        assert_eq!(map.remove(a), Some(a.raw()));
        assert_eq!(map.remove(a), None);
        for k in [b, c, d] {
            assert_eq!(map.get(k), Some(&k.raw()), "{k}");
        }
        // No tombstone: the run moved back a slot, `d` to its home.
        let at = |i: usize| map.slots[i].as_ref().map(|s| s.0);
        assert_eq!(
            [at(14), at(15), at(0), at(1)],
            [Some(b), Some(c), Some(d), None]
        );
        let mut all: Vec<SessionId> = map.iter().map(|(k, _)| k).collect();
        all.sort_unstable();
        let mut expected = vec![b, c, d];
        expected.sort_unstable();
        assert_eq!(all, expected);
    }

    #[test]
    fn reservation_accessors() {
        let p = Path::trivial(NodeId::new(2));
        let r = Reservation::new(p.clone(), Bandwidth::from_kbps(64));
        assert_eq!(r.path(), &p);
        assert_eq!(r.bandwidth(), Bandwidth::from_kbps(64));
    }

    /// Keys for a 16-slot table: three each homed at slots 0, 1, 14 and
    /// 15 (so probe runs wrap past the end), plus one each near
    /// `u64::MAX`. Past twelve live keys the table doubles and they
    /// spread out.
    fn key_pool() -> Vec<SessionId> {
        [0, 1, 14, 15]
            .into_iter()
            .flat_map(|home| {
                let mut keys = homed(16, home, 0, 3);
                keys.extend(homed(16, home, u64::MAX - 999, 1));
                keys
            })
            .collect()
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(SessionId, u32),
        Remove(SessionId),
        Get(SessionId),
        Contains(SessionId),
    }

    fn op() -> impl Strategy<Value = Op> {
        let pool = key_pool();
        (0u8..6, 0..pool.len(), any::<u32>()).prop_map(move |(kind, k, v)| {
            let k = pool[k];
            match kind {
                0..=2 => Op::Insert(k, v),
                3 => Op::Remove(k),
                4 => Op::Get(k),
                _ => Op::Contains(k),
            }
        })
    }

    proptest! {
        /// Any program of inserts, removes and lookups leaves the table
        /// holding what a std `HashMap` holds, with every key reachable
        /// from its home slot and the table at most three quarters full.
        #[test]
        fn a_session_map_agrees_with_a_std_hash_map(
            ops in proptest::collection::vec(op(), 1..120),
        ) {
            let mut map = SessionMap::default();
            let mut model = HashMap::new();
            for op in ops {
                match op {
                    Op::Insert(k, v) => prop_assert_eq!(map.insert(k, v), model.insert(k, v)),
                    Op::Remove(k) => prop_assert_eq!(map.remove(k), model.remove(&k)),
                    Op::Get(k) => prop_assert_eq!(map.get(k), model.get(&k)),
                    Op::Contains(k) => prop_assert_eq!(map.contains_key(k), model.contains_key(&k)),
                }
                prop_assert_eq!(map.len(), model.len());
                prop_assert!(map.len() <= map.capacity() && map.capacity() < map.slots.len().max(1));
                for (k, v) in &model {
                    prop_assert_eq!(map.get(*k), Some(v));
                }
                let mut listed: Vec<(SessionId, u32)> = map.iter().map(|(k, v)| (k, *v)).collect();
                listed.sort_unstable();
                let mut expected: Vec<(SessionId, u32)> = model.iter().map(|(k, v)| (*k, *v)).collect();
                expected.sort_unstable();
                prop_assert_eq!(listed, expected);
            }
        }
    }
}
