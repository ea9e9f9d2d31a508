//! The decision journal: reconnect-safe verdict delivery.
//!
//! A TCP reset between submit and decision would otherwise lose the
//! verdict forever — the engine has spent the capacity, the client knows
//! nothing. Clients that send a correlation `token` with their admit get
//! journaled: the daemon records the request's lifecycle under the token
//! (queued → dispatched → decided) and a reconnecting client retrieves
//! the rendered decision line with a `resume` op, or rebinds a pending
//! one to its new connection so the decision is delivered there.
//!
//! The journal is **bounded**: beyond `limit` tokens the oldest
//! evictable entry goes (still-queued entries are spared while anything
//! else can go — see [`DecisionJournal::enqueue`]), so a hostile client
//! minting fresh tokens forever cannot grow daemon memory. Eviction is
//! counted, never silent; a resume for an evicted token answers
//! `unknown` and the client must treat the request as undecided.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Where a journaled request stands.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// Decided: the rendered `decision` response line, replayed verbatim
    /// to duplicates and resumes.
    Decided {
        /// The rendered wire line (no trailing newline).
        line: String,
    },
}

/// A bounded token → [`JournalEntry`] map with FIFO eviction.
#[derive(Debug)]
pub struct DecisionJournal {
    limit: usize,
    entries: HashMap<Arc<str>, JournalEntry>,
    /// Insertion order; each live token appears exactly once, sharing
    /// the allocation of its `entries` key.
    order: VecDeque<Arc<str>>,
    evicted: u64,
}

impl DecisionJournal {
    /// An empty journal holding at most `limit` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    pub fn new(limit: usize) -> Self {
        assert!(limit > 0, "journal limit must be positive");
        DecisionJournal {
            limit,
            entries: HashMap::new(),
            order: VecDeque::new(),
            evicted: 0,
        }
    }

    /// Tokens currently journaled.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries evicted to stay within the bound.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Looks a token up.
    pub fn get(&self, token: &str) -> Option<&JournalEntry> {
        self.entries.get(token)
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
    /// coming. Only when *every* journaled token is still queued (the
    /// journal was sized below the queue) does the bound win and the
    /// oldest entry go regardless.
    pub fn enqueue(&mut self, token: &str, conn: u64) {
        debug_assert!(!self.entries.contains_key(token));
        while self.entries.len() >= self.limit {
            let mut evicted_one = false;
            for _ in 0..self.order.len() {
                let Some(oldest) = self.order.pop_front() else {
                    break;
                };
                if matches!(
                    self.entries.get(&*oldest),
                    Some(JournalEntry::Queued { .. })
                ) {
                    self.order.push_back(oldest);
                } else {
                    self.entries.remove(&*oldest);
                    self.evicted += 1;
                    evicted_one = true;
                    break;
                }
            }
            if !evicted_one {
                if let Some(oldest) = self.order.pop_front() {
                    self.entries.remove(&*oldest);
                    self.evicted += 1;
                }
            }
        }
        let token: Arc<str> = token.into();
        self.entries
            .insert(Arc::clone(&token), JournalEntry::Queued { conn });
        self.order.push_back(token);
    }

    /// Rebinds a still-queued token to a new connection (duplicate submit
    /// or resume after reconnect). Returns `false` if the token is not in
    /// the queued state.
    pub fn rebind_queued(&mut self, token: &str, conn: u64) -> bool {
        match self.entries.get_mut(token) {
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
        match self.entries.get_mut(token) {
            Some(entry @ JournalEntry::Queued { .. }) => {
                let JournalEntry::Queued { conn } = *entry else {
                    unreachable!()
                };
                *entry = JournalEntry::Dispatched { request };
                Some(conn)
            }
            _ => None,
        }
    }

    /// Records the decided line for a token (no-op if evicted meanwhile).
    pub fn decide(&mut self, token: &str, line: String) {
        if let Some(entry) = self.entries.get_mut(token) {
            *entry = JournalEntry::Decided { line };
        }
    }

    /// Drops a token outright (shutdown rejection of a queued admit: the
    /// request was never decided, so a later resume must say `unknown`,
    /// not `pending`).
    pub fn forget(&mut self, token: &str) {
        if self.entries.remove(token).is_some() {
            self.order.retain(|t| &**t != token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_queued_dispatched_decided() {
        let mut j = DecisionJournal::new(8);
        j.enqueue("t1", 3);
        assert_eq!(j.get("t1"), Some(&JournalEntry::Queued { conn: 3 }));
        assert!(j.rebind_queued("t1", 9));
        assert_eq!(j.dispatch("t1", 42), Some(9));
        assert!(!j.rebind_queued("t1", 1), "dispatched tokens do not rebind");
        j.decide("t1", "{\"op\":\"decision\"}".into());
        assert_eq!(
            j.get("t1"),
            Some(&JournalEntry::Decided {
                line: "{\"op\":\"decision\"}".into()
            })
        );
    }

    #[test]
    fn eviction_is_fifo_bounded_and_counted() {
        let mut j = DecisionJournal::new(2);
        j.enqueue("a", 0);
        j.enqueue("b", 0);
        j.decide("a", "da".into());
        j.enqueue("c", 0);
        // `a` (oldest) went, even though decided; bound holds.
        assert_eq!(j.len(), 2);
        assert_eq!(j.evicted(), 1);
        assert!(j.get("a").is_none());
        assert!(j.get("b").is_some() && j.get("c").is_some());
        // Deciding an evicted token is a no-op.
        j.decide("a", "again".into());
        assert!(j.get("a").is_none());
    }

    #[test]
    fn eviction_spares_queued_entries_when_possible() {
        let mut j = DecisionJournal::new(2);
        j.enqueue("q", 0); // stays Queued: its request is still in the
                           // bounded admission queue
        j.enqueue("d", 0);
        j.decide("d", "dd".into());
        j.enqueue("n", 0);
        // The decided entry went first even though the queued one is
        // older: evicting `q` would strand a resumed client.
        assert_eq!(j.evicted(), 1);
        assert!(j.get("d").is_none());
        assert_eq!(j.get("q"), Some(&JournalEntry::Queued { conn: 0 }));
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
        // The order queue is clean too: filling to the bound twice over
        // never over-evicts.
        j.enqueue("b", 0);
        j.enqueue("c", 0);
        j.enqueue("d", 0);
        assert_eq!(j.len(), 2);
        assert_eq!(j.evicted(), 1);
    }
}
