//! A keyed deadline heap for soft timers riding on the event queue.
//!
//! The two-phase signalling engine and soft-state expiry both need
//! *cancellable* timers: "expire this hold at `t + timeout` unless it is
//! confirmed first", "reclaim this orphaned reservation at its deadline
//! unless a fault releases it first" (orphans only — a reservation whose
//! source still refreshes it has no timer). A [`DeadlineHeap`] tracks one
//! pending deadline per key over a binary heap with generation-stamped
//! lazy cancellation — re-arming or cancelling a key invalidates its old
//! heap entry without touching the heap, and stale entries are skipped on
//! pop. Arming and popping cost O(log n), as in any binary heap (it is not
//! a timing wheel), and every re-arm or cancel leaves a stale entry for a
//! later pop to discard, so it suits deadlines that are armed once.
//!
//! The heap does not run time itself; the owning simulation schedules an
//! engine event at [`next_deadline`](DeadlineHeap::next_deadline) and calls
//! [`pop_due`](DeadlineHeap::pop_due) when it fires.
//! [`tick_needed`](DeadlineHeap::tick_needed) deduplicates those wake-ups so
//! a run schedules at most one pending tick event at a time instead of one
//! per armed timer.
//!
//! Expiry order is deterministic: due keys come back ordered by
//! `(deadline, arm order)`, independent of hash-map iteration order.

use std::cmp::Ordering;
use std::collections::hash_map::Entry as MapEntry;
use std::collections::{BinaryHeap, HashMap};
use std::hash::Hash;

/// One heap entry: a deadline plus the identity of the arming call.
#[derive(Debug, Clone)]
struct HeapEntry<K> {
    deadline: f64,
    seq: u64,
    generation: u64,
    key: K,
}

impl<K> PartialEq for HeapEntry<K> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<K> Eq for HeapEntry<K> {}

impl<K> PartialOrd for HeapEntry<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K> Ord for HeapEntry<K> {
    /// Reversed so the `BinaryHeap` max-heap pops the *earliest* deadline;
    /// ties break by arm order (earlier arms pop first).
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .deadline
            .total_cmp(&self.deadline)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic, cancellable one-deadline-per-key timer set.
///
/// ```rust
/// use anycast_sim::DeadlineHeap;
///
/// let mut heap: DeadlineHeap<u32> = DeadlineHeap::new();
/// heap.arm(7, 10.0);
/// heap.arm(8, 5.0);
/// heap.cancel(&7);
/// assert_eq!(heap.pop_due(6.0), vec![8]);
/// assert_eq!(heap.pop_due(100.0), Vec::<u32>::new());
/// ```
#[derive(Debug, Clone)]
pub struct DeadlineHeap<K> {
    heap: BinaryHeap<HeapEntry<K>>,
    /// Live deadline per key: `(generation, deadline)`. Heap entries whose
    /// generation disagrees are stale and skipped.
    live: HashMap<K, (u64, f64)>,
    next_seq: u64,
    /// Earliest tick already promised to the caller by
    /// [`tick_needed`](Self::tick_needed) and not yet consumed.
    promised_tick: Option<f64>,
}

impl<K> Default for DeadlineHeap<K> {
    fn default() -> Self {
        DeadlineHeap {
            heap: BinaryHeap::new(),
            live: HashMap::new(),
            next_seq: 0,
            promised_tick: None,
        }
    }
}

impl<K: Clone + Eq + Hash> DeadlineHeap<K> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms (or re-arms) the timer for `key` at `deadline`. A previous
    /// deadline for the same key is superseded.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is not finite.
    pub fn arm(&mut self, key: K, deadline: f64) {
        assert!(deadline.is_finite(), "timer deadline must be finite");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live.insert(key.clone(), (seq, deadline));
        self.heap.push(HeapEntry {
            deadline,
            seq,
            generation: seq,
            key,
        });
    }

    /// Cancels the pending timer for `key`, if any. Returns the deadline
    /// it was armed for.
    pub fn cancel(&mut self, key: &K) -> Option<f64> {
        self.live.remove(key).map(|(_, d)| d)
    }

    /// The deadline `key` is currently armed for, if any.
    pub fn deadline(&self, key: &K) -> Option<f64> {
        self.live.get(key).map(|&(_, d)| d)
    }

    /// Number of armed timers.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.live.len()
    }

    /// Calls to [`arm`](Self::arm) over the heap's whole life — zero
    /// means no timer was ever armed, not merely that none is pending.
    pub fn armed_total(&self) -> u64 {
        self.next_seq
    }

    /// Whether no timer is armed.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Earliest armed deadline, if any. Drops stale heap entries as a side
    /// effect, so repeated calls stay cheap.
    pub(crate) fn next_deadline(&mut self) -> Option<f64> {
        while let Some(top) = self.heap.peek() {
            match self.live.get(&top.key) {
                Some(&(generation, _)) if generation == top.generation => {
                    return Some(top.deadline);
                }
                _ => {
                    self.heap.pop();
                }
            }
        }
        None
    }

    /// Pops every key whose deadline is `<= now`, in `(deadline, arm
    /// order)` order. Popped keys are disarmed.
    pub fn pop_due(&mut self, now: f64) -> Vec<K> {
        if let Some(p) = self.promised_tick {
            if p <= now {
                self.promised_tick = None;
            }
        }
        let mut due = Vec::new();
        while let Some(top) = self.heap.peek() {
            if top.deadline > now {
                break;
            }
            let entry = self.heap.pop().expect("peeked entry exists");
            if let MapEntry::Occupied(live) = self.live.entry(entry.key.clone()) {
                if live.get().0 == entry.generation {
                    live.remove();
                    due.push(entry.key);
                }
            }
        }
        due
    }

    /// Returns `Some(deadline)` when the caller should schedule a wake-up
    /// event at that time — i.e. when the earliest armed deadline precedes
    /// every wake-up already promised. Returns `None` when a sufficient
    /// tick is already scheduled (or nothing is armed), so a run keeps at
    /// most one outstanding tick event instead of one per armed timer.
    ///
    /// A promised tick is consumed by the [`pop_due`](Self::pop_due) call
    /// at (or after) its time.
    pub fn tick_needed(&mut self) -> Option<f64> {
        let next = self.next_deadline()?;
        match self.promised_tick {
            Some(promised) if promised <= next => None,
            _ => {
                self.promised_tick = Some(next);
                Some(next)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_deadline_then_arm_order() {
        let mut w: DeadlineHeap<&str> = DeadlineHeap::new();
        w.arm("b", 2.0);
        w.arm("a", 1.0);
        w.arm("c", 2.0);
        assert_eq!(w.next_deadline(), Some(1.0));
        assert_eq!(w.pop_due(2.0), vec!["a", "b", "c"]);
        assert!(w.is_empty());
        assert_eq!(w.pop_due(100.0), Vec::<&str>::new());
    }

    #[test]
    fn cancel_and_rearm_supersede_old_entries() {
        let mut w: DeadlineHeap<u32> = DeadlineHeap::new();
        w.arm(1, 5.0);
        w.arm(2, 6.0);
        assert_eq!(w.cancel(&1), Some(5.0));
        assert_eq!(w.cancel(&1), None);
        w.arm(2, 20.0); // re-arm pushes the deadline out
        assert_eq!(w.len(), 1);
        assert_eq!(w.deadline(&2), Some(20.0));
        assert_eq!(w.pop_due(10.0), Vec::<u32>::new());
        assert_eq!(w.pop_due(20.0), vec![2]);
    }

    #[test]
    fn rearm_earlier_fires_earlier() {
        let mut w: DeadlineHeap<u32> = DeadlineHeap::new();
        w.arm(1, 50.0);
        w.arm(1, 3.0);
        assert_eq!(w.next_deadline(), Some(3.0));
        assert_eq!(w.pop_due(3.0), vec![1]);
        // The stale 50.0 entry must not resurrect the key.
        assert_eq!(w.pop_due(60.0), Vec::<u32>::new());
    }

    #[test]
    fn tick_needed_promises_each_improvement_once() {
        let mut w: DeadlineHeap<u32> = DeadlineHeap::new();
        assert_eq!(w.tick_needed(), None);
        w.arm(1, 10.0);
        assert_eq!(w.tick_needed(), Some(10.0));
        assert_eq!(w.tick_needed(), None, "tick already promised");
        w.arm(2, 12.0);
        assert_eq!(w.tick_needed(), None, "10.0 tick still covers us");
        w.arm(3, 4.0);
        assert_eq!(w.tick_needed(), Some(4.0), "earlier deadline needs a tick");
        // The 4.0 tick fires: its pop consumes the promise.
        assert_eq!(w.pop_due(4.0), vec![3]);
        assert_eq!(w.tick_needed(), Some(10.0));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinite_deadline_rejected() {
        let mut w: DeadlineHeap<u32> = DeadlineHeap::new();
        w.arm(1, f64::INFINITY);
    }
}
