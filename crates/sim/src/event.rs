//! The time-ordered event queue.

use crate::SimTime;

/// A future-event list: events pop in nondecreasing time order, with FIFO
/// order among events scheduled for the same instant.
///
/// Each event is keyed by one `u128`: its time's bits above a push
/// sequence number. A `SimTime` is finite, non-negative and never `-0.0`,
/// so its bits order as the instants do, and the packed keys order exactly
/// as `(time, seq)`. The keys form a 4-ary min-heap in a vector of their
/// own, which keeps a node's four children on one cache line; the payloads
/// sit at the same indices in a parallel vector and move with their keys.
///
/// Beside the heap sits a one-entry *slot* for the single pending event of
/// a one-at-a-time stream (a workload's next arrival): an event that is
/// nearly always the earliest need not be sifted into the heap and back
/// out. The slot event takes the sequence number a heap push would have
/// taken, and [`pop`](Self::pop) compares it with the heap head by key,
/// so the pop order is exactly that of an all-heap queue.
#[derive(Debug)]
pub(crate) struct EventQueue<E> {
    /// Packed keys in heap order: `keys[i]`'s children are
    /// `keys[4i + 1 ..= 4i + 4]`, and none is smaller.
    keys: Vec<u128>,
    /// `events[i]` is the payload keyed by `keys[i]`.
    events: Vec<E>,
    /// The pending event of the one-at-a-time stream, if any.
    next: Option<(u128, E)>,
    seq: u64,
}

/// The time half of a packed key.
fn time_of(key: u128) -> SimTime {
    SimTime::from_bits((key >> 64) as u64)
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub(crate) fn new() -> Self {
        EventQueue {
            keys: Vec::new(),
            events: Vec::new(),
            next: None,
            seq: 0,
        }
    }

    fn key(&mut self, time: SimTime) -> u128 {
        let seq = self.seq;
        self.seq += 1;
        (u128::from(time.to_bits()) << 64) | u128::from(seq)
    }

    /// Schedules `event` at the given instant.
    pub(crate) fn push(&mut self, time: SimTime, event: E) {
        let key = self.key(time);
        self.keys.push(key);
        self.events.push(event);
        self.sift_up(self.keys.len() - 1, key);
    }

    /// Schedules `event` in the slot beside the heap: the single pending
    /// event of a stream that schedules its successor only once the
    /// previous one has popped.
    ///
    /// # Panics
    ///
    /// Panics if the slot already holds an event.
    pub(crate) fn push_next(&mut self, time: SimTime, event: E) {
        assert!(
            self.next.is_none(),
            "the next-event slot is already occupied"
        );
        let key = self.key(time);
        self.next = Some((key, event));
    }

    /// `true` while the slot holds an event.
    pub(crate) fn next_pending(&self) -> bool {
        self.next.is_some()
    }

    /// Removes and returns the earliest event.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
        let slot_first = match (&self.next, self.keys.first()) {
            (Some((next, _)), Some(head)) => next < head,
            (next, _) => next.is_some(),
        };
        let (key, event) = if slot_first {
            self.next.take()?
        } else {
            self.pop_heap()?
        };
        Some((time_of(key), event))
    }

    /// Removes the heap's least entry. The last entry takes the root's
    /// place; the hole it leaves there moves down to a leaf, each level
    /// promoting the least child, and the last entry then sifts back up
    /// from that leaf. It belongs near the bottom, so this compares less
    /// than sifting it down from the root would.
    fn pop_heap(&mut self) -> Option<(u128, E)> {
        let last_key = self.keys.pop()?;
        let last = self.events.pop().expect("keys and events have one length");
        if self.keys.is_empty() {
            return Some((last_key, last));
        }
        let top_key = std::mem::replace(&mut self.keys[0], last_key);
        let top = std::mem::replace(&mut self.events[0], last);
        let leaf = self.hole_to_bottom();
        self.sift_up(leaf, last_key);
        Some((top_key, top))
    }

    /// Moves the root's payload down to a leaf, promoting the least child
    /// of each node on the way, and returns the leaf's index. The keys
    /// along the path shift up a level; the key at the leaf is left stale
    /// for [`sift_up`](Self::sift_up) to overwrite.
    fn hole_to_bottom(&mut self) -> usize {
        let len = self.keys.len();
        let mut pos = 0;
        loop {
            let first = 4 * pos + 1;
            let child = if first + 4 <= len {
                // All four children exist: pick the least without a branch
                // on the keys, the winner of each pair by index arithmetic.
                let k = &self.keys[first..first + 4];
                let lo = usize::from(k[1] < k[0]);
                let hi = 2 + usize::from(k[3] < k[2]);
                let least = if k[hi] < k[lo] { hi } else { lo };
                first + least
            } else if first < len {
                let k = &self.keys[first..];
                let least = (1..k.len()).fold(0, |m, i| if k[i] < k[m] { i } else { m });
                first + least
            } else {
                return pos;
            };
            self.keys[pos] = self.keys[child];
            self.events.swap(pos, child);
            pos = child;
        }
    }

    /// Settles `key`, whose payload sits at `pos`, by moving it up past
    /// every larger ancestor, and writes it into its final place.
    fn sift_up(&mut self, mut pos: usize, key: u128) {
        while pos > 0 {
            let parent = (pos - 1) / 4;
            if self.keys[parent] <= key {
                break;
            }
            self.keys[pos] = self.keys[parent];
            self.events.swap(pos, parent);
            pos = parent;
        }
        self.keys[pos] = key;
    }

    /// The timestamp of the earliest pending event.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        let next = self.next.as_ref().map(|(key, _)| *key);
        let head = self.keys.first().copied();
        let least = match (next, head) {
            (Some(next), Some(head)) => next.min(head),
            (next, head) => next.or(head)?,
        };
        Some(time_of(least))
    }

    /// Number of pending events.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.keys.len() + usize::from(self.next.is_some())
    }

    /// `true` when no events are pending.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.keys.is_empty() && self.next.is_none()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn slot_event_pops_in_push_order_among_ties() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(2.0), "late");
        q.push(SimTime::from_secs(1.0), "early");
        q.push_next(SimTime::from_secs(1.0), "early-second");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), "early")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), "early-second")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2.0), "late")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[5.0, 1.0, 3.0, 2.0, 4.0] {
            q.push(SimTime::from_secs(t), t as u32);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn fifo_among_simultaneous_events() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(SimTime::from_secs(7.0), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(2.0), ());
        q.push(SimTime::from_secs(1.0), ());
        q.push_next(SimTime::from_secs(0.5), ());
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(0.5)));
    }

    #[test]
    fn default_is_empty() {
        let q: EventQueue<u8> = EventQueue::default();
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn second_pending_slot_event_panics() {
        let mut q = EventQueue::new();
        q.push_next(SimTime::from_secs(1.0), 1u32);
        q.push_next(SimTime::from_secs(2.0), 2u32);
    }

    /// One step of a queue program.
    #[derive(Debug, Clone)]
    enum Op {
        /// Schedule on the heap at instant `.0` of [`instant`].
        Push(u8),
        /// Schedule in the slot (skipped while it is occupied).
        Next(u8),
        Pop,
    }

    /// Eight instants, ties frequent: both zeros, the least subnormal and
    /// whole seconds.
    fn instant(i: u8) -> SimTime {
        SimTime::from_secs(match i {
            0 => -0.0,
            1 => 0.0,
            2 => f64::from_bits(1),
            _ => f64::from(i - 2),
        })
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..12, 0u8..8).prop_map(|(kind, t)| match kind {
            0..=4 => Op::Push(t),
            5..=6 => Op::Next(t),
            _ => Op::Pop,
        })
    }

    /// The reference: every pending event in one vector, and a pop scans
    /// it for the least `(time, seq)` by `SimTime::cmp`.
    #[derive(Default)]
    struct Model(Vec<(SimTime, usize)>);

    impl Model {
        fn pop(&mut self) -> Option<(SimTime, usize)> {
            let least = (0..self.0.len()).min_by(|&a, &b| {
                let ((ta, sa), (tb, sb)) = (self.0[a], self.0[b]);
                ta.cmp(&tb).then(sa.cmp(&sb))
            })?;
            Some(self.0.remove(least))
        }
    }

    proptest! {
        /// Any program of heap pushes, slot schedules and pops pops in
        /// exactly the order of a scan for the least `(time, seq)`, where
        /// the sequence number is the push order (slot schedules included),
        /// and agrees with it on `len`, `peek_time` and `is_empty` after
        /// every step.
        #[test]
        fn pops_exactly_as_a_linear_scan_reference(
            ops in proptest::collection::vec(op(), 1..300)
        ) {
            let mut q = EventQueue::new();
            let mut model = Model::default();
            for (seq, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Push(t) => {
                        q.push(instant(t), seq);
                        model.0.push((instant(t), seq));
                    }
                    Op::Next(t) if !q.next_pending() => {
                        q.push_next(instant(t), seq);
                        model.0.push((instant(t), seq));
                    }
                    Op::Next(_) => {}
                    Op::Pop => prop_assert_eq!(q.pop(), model.pop()),
                }
                prop_assert_eq!(q.len(), model.0.len());
                prop_assert_eq!(q.peek_time(), model.0.iter().map(|&(t, _)| t).min());
                prop_assert_eq!(q.is_empty(), model.0.is_empty());
            }
            while let Some(got) = q.pop() {
                prop_assert_eq!(Some(got), model.pop());
            }
            prop_assert!(model.0.is_empty());
        }
    }
}
