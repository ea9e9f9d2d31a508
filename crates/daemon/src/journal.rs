//! The decision journal: reconnect-safe verdict delivery.
//!
//! A TCP reset between submit and decision would otherwise lose the
//! verdict forever — the engine has spent the capacity, the client knows
//! nothing. Clients that send a correlation `token` with their admit get
//! journaled: the daemon records the request's lifecycle under the token
//! (queued → dispatched → decided) and a reconnecting client retrieves
//! the decision with a `resume` op, or rebinds a pending one to its new
//! connection so the decision is delivered there.
//!
//! A decided token keeps its [`Verdict`], the fields of the `decision`
//! line, not the line: a resume or duplicate submit renders it again with
//! the asking request's token, which is the token it was journaled under,
//! so the reply is byte for byte the line first sent.
//!
//! The journal is **bounded**: beyond `limit` tokens the oldest
//! evictable entry goes (still-queued entries are spared while anything
//! else can go — see [`DecisionJournal::enqueue`]), so a hostile client
//! minting fresh tokens forever cannot grow daemon memory. Eviction is
//! counted, never silent; a resume for an evicted token answers
//! `unknown` and the client must treat the request as undecided.
//!
//! Memory is one 64-byte record per token in a ring of at most `limit`,
//! plus an index of `(2·limit).next_power_of_two()` four-byte positions,
//! made at its final size in [`DecisionJournal::new`]: 72 bytes a token
//! at the default bound (294 912 bytes for 4 096), and once the ring has
//! grown to the bound nothing is allocated per token, however long the
//! tokens churn. Tokens are not stored. Two keyed digests stand for one,
//! under keys drawn per journal that no client sees: the index key, and a
//! check a record must also match.

use crate::wire::{decision_response, parse_decision};
use anycast_dac::experiment::Decision;
use anycast_rsvp::SessionId;
use std::hash::{BuildHasher, RandomState};

/// What a `decision` line says, its token aside: all the journal keeps of
/// a decided request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    request: u64,
    at_secs: f64,
    /// The raw session id; meaningless for a rejection.
    session: u64,
    latency_us: u64,
    /// The group member, or [`REJECTED`].
    member: u32,
    tries: u32,
}

/// `Verdict::member` of a rejection.
const REJECTED: u32 = u32::MAX;

impl Verdict {
    /// The verdict the `decision` line for `d` with this `latency_us`
    /// carries.
    ///
    /// # Panics
    ///
    /// Panics if an admitted decision's member index does not fit below
    /// `u32::MAX`.
    pub fn new(d: &Decision, latency_us: u64) -> Self {
        debug_assert!(
            d.admitted == d.member_index.is_some() && d.admitted == d.session.is_some(),
            "an admitted decision has a member and a session, a rejection neither: {d:?}"
        );
        let member = d.member_index.map_or(REJECTED, |m| {
            u32::try_from(m)
                .ok()
                .filter(|&m| m != REJECTED)
                .expect("member index below u32::MAX")
        });
        Verdict {
            request: d.request,
            at_secs: d.at_secs,
            session: d.session.map_or(0, SessionId::raw),
            latency_us,
            member,
            tries: d.tries,
        }
    }

    /// The decision this verdict was taken from.
    fn decision(&self) -> Decision {
        let admitted = self.member != REJECTED;
        Decision {
            request: self.request,
            at_secs: self.at_secs,
            admitted,
            member_index: admitted.then_some(self.member as usize),
            session: admitted.then(|| SessionId::from_raw(self.session)),
            tries: self.tries,
        }
    }

    /// The `decision` line for this verdict under `token`.
    pub(crate) fn line(&self, token: &str) -> String {
        decision_response(&self.decision(), self.latency_us, Some(token))
    }
}

/// Reads a line [`decision_response`] rendered back into its verdict,
/// without allocating; the line's token is skipped.
///
/// # Panics
///
/// Panics on any other line.
impl From<String> for Verdict {
    fn from(line: String) -> Self {
        let (decision, latency_us) =
            parse_decision(&line).unwrap_or_else(|| panic!("not a decision line: {line}"));
        Verdict::new(&decision, latency_us)
    }
}

/// Where a journaled request stands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JournalEntry {
    /// Still in the admission queue; `conn` is where the decision should
    /// go (rebindable by a duplicate submit or resume from a new
    /// connection).
    Queued {
        /// Connection to deliver the decision to.
        conn: u64,
    },
    /// Dispatched to the engine as request `request`; the server's
    /// pending map owns the connection binding now.
    Dispatched {
        /// The engine's dense request id.
        request: u64,
    },
    /// Decided: the verdict, rendered again for duplicates and resumes.
    Decided(Verdict),
}

/// One journaled token: its two digests and where it stands. `None` once
/// [`DecisionJournal::forget`] or a colliding index key emptied it; the
/// ring then reuses the position.
#[derive(Debug)]
struct Record {
    key: u64,
    check: u64,
    entry: Option<JournalEntry>,
}

const _: () = assert!(std::mem::size_of::<Record>() == 64);

/// An index slot that points at no record.
const VACANT: u32 = u32::MAX;

/// The journal's index: index key → position in the ring, an
/// open-addressed table of positions with linear probing that reads each
/// key from the record it points at. Its size is fixed at twice the bound,
/// rounded up to a power of two, so it is never more than half full and
/// never grows. A removal shifts the rest of its probe run back instead of
/// leaving a tombstone, so churn cannot clog it.
#[derive(Debug)]
struct Index {
    /// A position in the ring, or [`VACANT`]. A key's home slot is its
    /// low bits: index keys are keyed digests, so they spread evenly.
    slots: Box<[u32]>,
    /// Positions indexed.
    len: usize,
}

impl Index {
    fn new(limit: usize) -> Self {
        Index {
            slots: vec![VACANT; (2 * limit).next_power_of_two()].into_boxed_slice(),
            len: 0,
        }
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    fn home(&self, key: u64) -> usize {
        key as usize & self.mask()
    }

    /// The slot pointing at the record keyed `key`.
    fn slot(&self, key: u64, records: &[Record]) -> Option<usize> {
        let mut i = self.home(key);
        loop {
            match self.slots[i] {
                VACANT => return None,
                at if records[at as usize].key == key => return Some(i),
                _ => i = (i + 1) & self.mask(),
            }
        }
    }

    /// The position of the record keyed `key`.
    fn get(&self, key: u64, records: &[Record]) -> Option<usize> {
        self.slot(key, records).map(|i| self.slots[i] as usize)
    }

    /// Indexes position `at`, whose record is keyed `key`. The key must
    /// not be indexed yet.
    fn insert(&mut self, key: u64, at: usize) {
        let mut i = self.home(key);
        while self.slots[i] != VACANT {
            i = (i + 1) & self.mask();
        }
        self.slots[i] = at as u32;
        self.len += 1;
    }

    /// Unindexes the record keyed `key`, returning its position. The keys
    /// after it in its probe run move back over the hole, so no tombstone
    /// is left; `records` must still hold every indexed key.
    fn remove(&mut self, key: u64, records: &[Record]) -> Option<usize> {
        let mut hole = self.slot(key, records)?;
        let at = self.slots[hole] as usize;
        self.slots[hole] = VACANT;
        self.len -= 1;
        let mask = self.mask();
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let next = self.slots[i];
            if next == VACANT {
                return Some(at);
            }
            // The entry at `i` may fill the hole unless its home lies
            // after the hole: it must stay reachable from its home.
            let home = self.home(records[next as usize].key);
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                self.slots[hole] = next;
                self.slots[i] = VACANT;
                hole = i;
            }
        }
    }

    fn clear(&mut self) {
        self.slots.fill(VACANT);
        self.len = 0;
    }
}

/// A bounded token → [`JournalEntry`] map with FIFO eviction.
#[derive(Debug)]
pub struct DecisionJournal {
    limit: usize,
    /// At most `limit` records. Oldest first from `head` on, wrapping
    /// round; `head` is 0 until the ring is full.
    records: Vec<Record>,
    head: usize,
    /// Index key → position in `records`, for every live record.
    index: Index,
    index_keys: RandomState,
    check_keys: RandomState,
    evicted: u64,
    /// Every token gets index key 0, so the collision path can be tested.
    #[cfg(test)]
    collide: bool,
}

impl DecisionJournal {
    /// An empty journal holding at most `limit` tokens. Its index,
    /// `(2·limit).next_power_of_two()` four-byte slots, is allocated here
    /// at its final size; the ring of records grows to `limit` as tokens
    /// come.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero or above `u32::MAX`.
    pub fn new(limit: usize) -> Self {
        assert!(limit > 0, "journal limit must be positive");
        assert!(u32::try_from(limit).is_ok(), "journal limit above u32::MAX");
        DecisionJournal {
            limit,
            records: Vec::new(),
            head: 0,
            index: Index::new(limit),
            index_keys: RandomState::new(),
            check_keys: RandomState::new(),
            evicted: 0,
            #[cfg(test)]
            collide: false,
        }
    }

    /// Tokens currently journaled.
    pub fn len(&self) -> usize {
        self.index.len
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries evicted to stay within the bound.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The token's index key and check.
    fn keys(&self, token: &str) -> (u64, u64) {
        let check = self.check_keys.hash_one(token);
        #[cfg(test)]
        if self.collide {
            return (0, check);
        }
        (self.index_keys.hash_one(token), check)
    }

    /// The position of the token's record, if it is journaled.
    fn find(&self, token: &str) -> Option<usize> {
        let (key, check) = self.keys(token);
        let at = self.index.get(key, &self.records)?;
        (self.records[at].check == check).then_some(at)
    }

    fn entry_mut(&mut self, token: &str) -> Option<&mut JournalEntry> {
        let at = self.find(token)?;
        self.records[at].entry.as_mut()
    }

    /// Looks a token up.
    pub(crate) fn get(&self, token: &str) -> Option<JournalEntry> {
        self.find(token).and_then(|at| self.records[at].entry)
    }

    /// Journals a fresh token as queued for `conn`, evicting the oldest
    /// *evictable* entry if the bound is hit. The caller has already
    /// checked the token is not present (a duplicate submit never
    /// reaches here).
    ///
    /// Still-`Queued` entries are spared when anything else can go: the
    /// request they describe sits in the bounded admission queue, so
    /// their count cannot exceed the queue bound, and evicting one would
    /// silently unbind a resumed client from a decision that is still
    /// coming. Passing one makes it the newest entry. Only when *every*
    /// journaled token is still queued (the journal was sized below the
    /// queue) does the bound win and the oldest entry go regardless.
    ///
    /// A live token whose index key equals this one's (a 2⁻⁶⁴ chance per
    /// pair) can no longer be reached and counts as evicted.
    pub fn enqueue(&mut self, token: &str, conn: u64) {
        debug_assert!(self.find(token).is_none(), "token already journaled");
        let (key, check) = self.keys(token);
        if let Some(at) = self.index.remove(key, &self.records) {
            self.records[at].entry = None;
            self.evicted += 1;
        }
        let record = Record {
            key,
            check,
            entry: Some(JournalEntry::Queued { conn }),
        };
        let at = self.tail();
        if at == self.records.len() {
            if at == self.records.capacity() {
                // Doubling, but never past the bound.
                let more = at.max(4).min(self.limit - at);
                self.records.reserve_exact(more);
            }
            self.records.push(record);
        } else {
            self.records[at] = record;
        }
        self.index.insert(key, at);
    }

    /// The position the next token goes to, making it the newest entry:
    /// the end of a ring not yet full, else the head, moved on past it.
    /// Evicts only when `limit` tokens are live.
    fn tail(&mut self) -> usize {
        let n = self.records.len();
        if n < self.limit {
            return n;
        }
        if self.len() == self.limit {
            // Every record is live. Walk from the oldest, passing queued
            // records; after a whole lap the oldest goes regardless.
            for _ in 0..n {
                if !matches!(
                    self.records[self.head].entry,
                    Some(JournalEntry::Queued { .. })
                ) {
                    break;
                }
                self.head = (self.head + 1) % n;
            }
            self.index
                .remove(self.records[self.head].key, &self.records);
            self.evicted += 1;
        } else if self.records[self.head].entry.is_some() {
            // A record emptied mid-ring cannot take the newest token
            // without reordering the rest; close the gaps instead (only
            // after `forget` or a key collision).
            self.compact();
            return self.records.len();
        }
        let at = self.head;
        self.head = (at + 1) % n;
        at
    }

    /// Moves the live records to the front, oldest first, and indexes
    /// them afresh. O(limit), allocation-free.
    fn compact(&mut self) {
        self.records.rotate_left(self.head);
        self.head = 0;
        self.records.retain(|r| r.entry.is_some());
        self.index.clear();
        for (at, r) in self.records.iter().enumerate() {
            self.index.insert(r.key, at);
        }
    }

    /// Rebinds a still-queued token to a new connection (duplicate submit
    /// or resume after reconnect). Returns `false` if the token is not in
    /// the queued state.
    pub(crate) fn rebind_queued(&mut self, token: &str, conn: u64) -> bool {
        match self.entry_mut(token) {
            Some(JournalEntry::Queued { conn: c }) => {
                *c = conn;
                true
            }
            _ => false,
        }
    }

    /// Marks a queued token as dispatched to the engine, returning the
    /// connection it was last bound to. `None` if the token was evicted
    /// meanwhile.
    pub fn dispatch(&mut self, token: &str, request: u64) -> Option<u64> {
        let entry = self.entry_mut(token)?;
        let JournalEntry::Queued { conn } = *entry else {
            return None;
        };
        *entry = JournalEntry::Dispatched { request };
        Some(conn)
    }

    /// Records the verdict for a token (no-op if evicted meanwhile). A
    /// rendered `decision` line converts into its verdict.
    pub fn decide(&mut self, token: &str, verdict: impl Into<Verdict>) {
        let verdict = verdict.into();
        if let Some(entry) = self.entry_mut(token) {
            *entry = JournalEntry::Decided(verdict);
        }
    }

    /// Drops a token outright (shutdown rejection of a queued admit: the
    /// request was never decided, so a later resume must say `unknown`,
    /// not `pending`). O(1): the record stays in the ring, emptied.
    pub(crate) fn forget(&mut self, token: &str) {
        if let Some(at) = self.find(token) {
            self.index.remove(self.records[at].key, &self.records);
            self.records[at].entry = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::Entry;
    use std::collections::{HashMap, VecDeque};

    fn verdict(request: u64) -> Verdict {
        Verdict::new(
            &Decision {
                request,
                at_secs: 1.5,
                admitted: true,
                member_index: Some(3),
                session: Some(SessionId::from_raw(request + 7)),
                tries: 2,
            },
            250,
        )
    }

    #[test]
    fn a_record_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<Verdict>(), 40);
        assert_eq!(std::mem::size_of::<Record>(), 64);
    }

    #[test]
    fn lifecycle_queued_dispatched_decided() {
        let mut j = DecisionJournal::new(8);
        j.enqueue("t1", 3);
        assert_eq!(j.get("t1"), Some(JournalEntry::Queued { conn: 3 }));
        assert!(j.rebind_queued("t1", 9));
        assert_eq!(j.dispatch("t1", 42), Some(9));
        assert!(!j.rebind_queued("t1", 1), "dispatched tokens do not rebind");
        assert_eq!(j.dispatch("t1", 43), None, "dispatched once");
        j.decide("t1", verdict(42));
        assert_eq!(j.get("t1"), Some(JournalEntry::Decided(verdict(42))));
    }

    #[test]
    fn a_verdict_renders_the_line_it_was_read_from() {
        let line = verdict(42).line("t1");
        assert_eq!(Verdict::from(line.clone()), verdict(42));
        assert_eq!(Verdict::from(line.clone()).line("t1"), line);
    }

    #[test]
    fn eviction_is_fifo_bounded_and_counted() {
        let mut j = DecisionJournal::new(2);
        j.enqueue("a", 0);
        j.enqueue("b", 0);
        j.decide("a", verdict(0));
        j.enqueue("c", 0);
        // `a` (oldest) went, even though decided; bound holds.
        assert_eq!(j.len(), 2);
        assert_eq!(j.evicted(), 1);
        assert!(j.get("a").is_none());
        assert!(j.get("b").is_some() && j.get("c").is_some());
        // Deciding an evicted token is a no-op.
        j.decide("a", verdict(1));
        assert!(j.get("a").is_none());
    }

    #[test]
    fn eviction_spares_queued_entries_when_possible() {
        let mut j = DecisionJournal::new(2);
        j.enqueue("q", 0); // stays Queued: its request is still in the
                           // bounded admission queue
        j.enqueue("d", 0);
        j.decide("d", verdict(0));
        j.enqueue("n", 0);
        // The decided entry went first even though the queued one is
        // older: evicting `q` would strand a resumed client.
        assert_eq!(j.evicted(), 1);
        assert!(j.get("d").is_none());
        assert_eq!(j.get("q"), Some(JournalEntry::Queued { conn: 0 }));
        assert!(j.get("n").is_some());
        // But the bound always wins: with only queued entries left, the
        // oldest goes regardless.
        j.enqueue("m", 0);
        assert_eq!(j.len(), 2);
        assert_eq!(j.evicted(), 2);
    }

    #[test]
    fn forget_removes_cleanly() {
        let mut j = DecisionJournal::new(2);
        j.enqueue("a", 0);
        j.forget("a");
        assert!(j.is_empty());
        // The emptied record is reused: filling to the bound twice over
        // never over-evicts.
        j.enqueue("b", 0);
        j.enqueue("c", 0);
        j.enqueue("d", 0);
        assert_eq!(j.len(), 2);
        assert_eq!(j.evicted(), 1);
    }

    #[test]
    fn a_record_emptied_mid_ring_is_reused_without_eviction() {
        let mut j = DecisionJournal::new(3);
        for t in ["a", "b", "c"] {
            j.enqueue(t, 0);
            j.decide(t, verdict(0));
        }
        j.forget("b");
        j.enqueue("d", 0);
        assert_eq!(j.evicted(), 0);
        // `d` is the newest: `a`, then `c`, go before it.
        j.enqueue("e", 0);
        assert!(j.get("a").is_none() && j.get("c").is_some());
        j.enqueue("f", 0);
        assert!(j.get("c").is_none() && j.get("d").is_some());
        assert_eq!((j.len(), j.evicted()), (3, 2));
    }

    #[test]
    fn a_shared_index_key_needs_the_check_too() {
        let mut j = DecisionJournal::new(4);
        j.collide = true;
        j.enqueue("a", 1);
        assert_eq!(j.get("a"), Some(JournalEntry::Queued { conn: 1 }));
        // `b` shares `a`'s index key but not its check: it is not `a`.
        assert_eq!(j.get("b"), None);
        assert!(!j.rebind_queued("b", 2));
        assert_eq!(j.dispatch("b", 7), None);
        j.decide("b", verdict(7));
        j.forget("b");
        assert_eq!(j.get("a"), Some(JournalEntry::Queued { conn: 1 }));
        // Journaling `b` makes `a` unreachable, counted as an eviction.
        j.enqueue("b", 2);
        assert_eq!(j.get("a"), None);
        assert_eq!(j.get("b"), Some(JournalEntry::Queued { conn: 2 }));
        assert_eq!((j.len(), j.evicted()), (1, 1));
        // Emptied records are reused once the ring is full: it never
        // grows past the bound.
        for t in ["c", "d", "e", "f", "g"] {
            j.enqueue(t, 0);
        }
        assert_eq!(j.get("g"), Some(JournalEntry::Queued { conn: 0 }));
        assert_eq!((j.len(), j.evicted()), (1, 6));
        assert_eq!(j.records.len(), 4);
    }

    /// Token characters: plain, JSON-escaped (`"`, `\`, control) and
    /// multi-byte.
    const TOKEN_CHARS: [char; 8] = ['a', 'Z', '7', '"', '\\', '\n', '\u{1}', 'é'];

    /// Instants from the whole `f64` domain: any bit pattern (NaN and the
    /// infinities render as `null`), powers of ten from subnormal to near
    /// `f64::MAX`, integers past 2⁵³, and everyday times.
    fn instant(scale: u8, bits: u64, exp: i32) -> f64 {
        match scale {
            0 => f64::from_bits(bits),
            1 => 10f64.powi(exp) * (bits as f64 / u64::MAX as f64),
            2 => bits as f64,
            _ => (bits % 1_000_000_000) as f64 / 1_000.0,
        }
    }

    proptest! {
        /// A resume or duplicate submit replays a verdict by rendering it
        /// again: that must give the bytes first sent.
        #[test]
        fn a_verdict_read_from_its_line_renders_the_same_bytes(
            (request, session, latency_us) in any::<(u64, u64, u64)>(),
            (admitted, member, tries) in any::<(bool, u32, u32)>(),
            (scale, bits, exp) in (0u8..4, any::<u64>(), -330i32..310),
            chars in proptest::collection::vec(0usize..TOKEN_CHARS.len(), 1..20),
        ) {
            let d = Decision {
                request,
                at_secs: instant(scale, bits, exp),
                admitted,
                member_index: admitted.then_some(member.min(REJECTED - 1) as usize),
                session: admitted.then(|| SessionId::from_raw(session)),
                tries,
            };
            let token: String = chars.iter().map(|&c| TOKEN_CHARS[c]).collect();
            let line = decision_response(&d, latency_us, Some(&token));
            prop_assert_eq!(Verdict::from(line.clone()).line(&token), line);
        }
    }

    /// The journal as it was before it kept fixed-size records: a map
    /// from token to entry plus a FIFO of tokens, queued entries spared.
    #[derive(Default)]
    struct Model {
        limit: usize,
        entries: HashMap<u8, JournalEntry>,
        order: VecDeque<u8>,
        evicted: u64,
    }

    impl Model {
        fn enqueue(&mut self, token: u8, conn: u64) {
            while self.entries.len() >= self.limit {
                let mut evicted_one = false;
                for _ in 0..self.order.len() {
                    let oldest = self.order.pop_front().expect("order holds every entry");
                    if matches!(self.entries[&oldest], JournalEntry::Queued { .. }) {
                        self.order.push_back(oldest);
                    } else {
                        self.entries.remove(&oldest);
                        evicted_one = true;
                        break;
                    }
                }
                if !evicted_one {
                    let oldest = self.order.pop_front().expect("the journal is full");
                    self.entries.remove(&oldest);
                }
                self.evicted += 1;
            }
            self.entries.insert(token, JournalEntry::Queued { conn });
            self.order.push_back(token);
        }

        fn rebind_queued(&mut self, token: u8, conn: u64) -> bool {
            match self.entries.get_mut(&token) {
                Some(JournalEntry::Queued { conn: c }) => {
                    *c = conn;
                    true
                }
                _ => false,
            }
        }

        fn dispatch(&mut self, token: u8, request: u64) -> Option<u64> {
            let entry = self.entries.get_mut(&token)?;
            let JournalEntry::Queued { conn } = *entry else {
                return None;
            };
            *entry = JournalEntry::Dispatched { request };
            Some(conn)
        }

        fn decide(&mut self, token: u8, verdict: Verdict) {
            if let Some(entry) = self.entries.get_mut(&token) {
                *entry = JournalEntry::Decided(verdict);
            }
        }

        fn forget(&mut self, token: u8) {
            if self.entries.remove(&token).is_some() {
                self.order.retain(|&t| t != token);
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Enqueue(u8, u64),
        Rebind(u8, u64),
        Dispatch(u8, u64),
        Decide(u8, u64),
        Forget(u8),
        Get(u8),
    }

    /// Enqueues weighted 4, dispatches and decides 2 each, the rest 1.
    fn op() -> impl Strategy<Value = Op> {
        (0u8..11, 0u8..12, 0u64..100).prop_map(|(kind, t, n)| match kind {
            0..=3 => Op::Enqueue(t, n % 4),
            4 => Op::Rebind(t, n % 4),
            5 | 6 => Op::Dispatch(t, n),
            7 | 8 => Op::Decide(t, n),
            9 => Op::Forget(t),
            _ => Op::Get(t),
        })
    }

    proptest! {
        /// Any program of journal calls leaves the ring exactly where the
        /// map-and-FIFO journal it replaced would be: every token's entry,
        /// the size and the eviction count agree after every step.
        #[test]
        fn the_ring_agrees_with_the_map_and_fifo_model(
            limit in 1usize..=8,
            ops in proptest::collection::vec(op(), 1..80),
        ) {
            let mut journal = DecisionJournal::new(limit);
            let mut model = Model { limit, ..Model::default() };
            let name = |t: u8| format!("tok-{t}");
            for op in ops {
                match op {
                    Op::Enqueue(t, conn) => {
                        // A journaled token is answered, never re-enqueued.
                        if !model.entries.contains_key(&t) {
                            journal.enqueue(&name(t), conn);
                            model.enqueue(t, conn);
                        }
                    }
                    Op::Rebind(t, conn) => prop_assert_eq!(
                        journal.rebind_queued(&name(t), conn),
                        model.rebind_queued(t, conn)
                    ),
                    Op::Dispatch(t, request) => prop_assert_eq!(
                        journal.dispatch(&name(t), request),
                        model.dispatch(t, request)
                    ),
                    Op::Decide(t, request) => {
                        journal.decide(&name(t), verdict(request));
                        model.decide(t, verdict(request));
                    }
                    Op::Forget(t) => {
                        journal.forget(&name(t));
                        model.forget(t);
                    }
                    Op::Get(t) => prop_assert_eq!(
                        journal.get(&name(t)),
                        model.entries.get(&t).copied()
                    ),
                }
                for t in 0..12 {
                    prop_assert_eq!(journal.get(&name(t)), model.entries.get(&t).copied());
                }
                prop_assert_eq!(journal.len(), model.entries.len());
                prop_assert_eq!(journal.evicted(), model.evicted);
                prop_assert!(journal.records.len() <= limit);
            }
        }
    }

    /// Index keys whose home slots, for an index of 2 to 16 slots, sit at
    /// the start and at the end of the table (so probe runs wrap), each
    /// shared by several keys, some of them with high bits set.
    fn index_key() -> impl Strategy<Value = u64> {
        (0usize..7, 0u64..4).prop_map(|(home, lap)| {
            let home = [0, 1, 5, 6, 7, 14, 15][home];
            if lap == 3 {
                home | 0xABCD << 48
            } else {
                home + 16 * lap
            }
        })
    }

    #[derive(Debug, Clone)]
    enum IndexOp {
        Insert(u64),
        Remove(u64),
        Get(u64),
        Contains(u64),
    }

    fn index_op() -> impl Strategy<Value = IndexOp> {
        (0u8..6, index_key()).prop_map(|(kind, k)| match kind {
            0..=2 => IndexOp::Insert(k),
            3 => IndexOp::Remove(k),
            4 => IndexOp::Get(k),
            _ => IndexOp::Contains(k),
        })
    }

    proptest! {
        /// Any program of inserts, removes and lookups, up to the bound,
        /// leaves the index mapping each key to the position a std
        /// `HashMap` maps it to, with every key reachable from its home.
        #[test]
        fn the_index_agrees_with_a_std_hash_map(
            limit in 1usize..=8,
            ops in proptest::collection::vec(index_op(), 1..120),
        ) {
            let mut index = Index::new(limit);
            let mut records: Vec<Record> = (0..limit)
                .map(|_| Record { key: 0, check: 0, entry: None })
                .collect();
            let mut free: Vec<usize> = (0..limit).rev().collect();
            let mut model = HashMap::new();
            for op in ops {
                match op {
                    IndexOp::Insert(k) => {
                        if let Entry::Vacant(slot) = model.entry(k) {
                            if let Some(at) = free.pop() {
                                records[at].key = k;
                                index.insert(k, at);
                                slot.insert(at);
                            }
                        }
                    }
                    IndexOp::Remove(k) => {
                        let at = model.remove(&k);
                        prop_assert_eq!(index.remove(k, &records), at);
                        free.extend(at);
                    }
                    IndexOp::Get(k) => prop_assert_eq!(index.get(k, &records), model.get(&k).copied()),
                    IndexOp::Contains(k) => prop_assert_eq!(
                        index.slot(k, &records).is_some(),
                        model.contains_key(&k)
                    ),
                }
                prop_assert_eq!(index.len, model.len());
                for (k, at) in &model {
                    prop_assert_eq!(index.get(*k, &records), Some(*at));
                }
            }
        }
    }
}
