//! The time-ordered event queue.

use crate::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A future-event list: events pop in nondecreasing time order, with FIFO
/// order among events scheduled for the same instant.
///
/// Beside the heap sits a one-entry *slot* for the single pending event of
/// a one-at-a-time stream (a workload's next arrival): an event that is
/// nearly always the earliest need not be sifted into the heap and back
/// out. The slot event takes the sequence number a heap push would have
/// taken, and [`pop`](Self::pop) compares it with the heap head by
/// `(time, seq)`, so the pop order is exactly that of an all-heap queue.
#[derive(Debug)]
pub(crate) struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// The pending event of the one-at-a-time stream, if any.
    next: Option<Entry<E>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .cmp(&other.time)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next: None,
            seq: 0,
        }
    }

    fn entry(&mut self, time: SimTime, event: E) -> Entry<E> {
        let seq = self.seq;
        self.seq += 1;
        Entry { time, seq, event }
    }

    /// Schedules `event` at the given instant.
    pub(crate) fn push(&mut self, time: SimTime, event: E) {
        let entry = self.entry(time, event);
        self.heap.push(Reverse(entry));
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
        self.next = Some(self.entry(time, event));
    }

    /// `true` while the slot holds an event.
    pub(crate) fn next_pending(&self) -> bool {
        self.next.is_some()
    }

    /// Whether the slot event precedes every heap event.
    fn slot_first(&self) -> bool {
        match (&self.next, self.heap.peek()) {
            (Some(next), Some(Reverse(head))) => next < head,
            (next, _) => next.is_some(),
        }
    }

    /// Removes and returns the earliest event.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = if self.slot_first() {
            self.next.take()
        } else {
            self.heap.pop().map(|Reverse(e)| e)
        };
        e.map(|e| (e.time, e.event))
    }

    /// The timestamp of the earliest pending event.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        let head = self.heap.peek().map(|Reverse(e)| e.time);
        match (&self.next, head) {
            (Some(next), Some(head)) => Some(next.time.min(head)),
            (Some(next), None) => Some(next.time),
            (None, head) => head,
        }
    }

    /// Number of pending events.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len() + usize::from(self.next.is_some())
    }

    /// `true` when no events are pending.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.next.is_none()
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
        /// Schedule on the heap, `.0` quanta after the last popped time.
        Push(u8),
        /// Schedule in the slot (skipped while it is occupied).
        Next(u8),
        Pop,
    }

    fn op() -> impl Strategy<Value = Op> {
        // Delays of 0..4 quanta make same-instant ties frequent.
        (0u8..12, 0u8..4).prop_map(|(kind, d)| match kind {
            0..=3 => Op::Push(d),
            4..=6 => Op::Next(d),
            _ => Op::Pop,
        })
    }

    proptest! {
        /// The slot changes where an event waits, never when it pops: any
        /// program of heap pushes and slot schedules pops in exactly the
        /// order of an all-heap reference queue, and the two agree on
        /// `len`, `peek_time` and `is_empty` after every step.
        #[test]
        fn slot_pops_exactly_as_an_all_heap_queue(
            ops in proptest::collection::vec(op(), 1..200)
        ) {
            let mut q = EventQueue::new();
            let mut reference = EventQueue::new();
            let mut now = 0u32;
            for (id, op) in ops.into_iter().enumerate() {
                let at = |d: u8| SimTime::from_secs(f64::from(now + u32::from(d)));
                match op {
                    Op::Push(d) => {
                        q.push(at(d), id);
                        reference.push(at(d), id);
                    }
                    Op::Next(d) if !q.next_pending() => {
                        q.push_next(at(d), id);
                        reference.push(at(d), id);
                    }
                    Op::Next(_) => {}
                    Op::Pop => {
                        let got = q.pop();
                        prop_assert_eq!(got, reference.pop());
                        if let Some((t, _)) = got {
                            now = t.as_secs() as u32;
                        }
                    }
                }
                prop_assert_eq!(q.len(), reference.len());
                prop_assert_eq!(q.peek_time(), reference.peek_time());
                prop_assert_eq!(q.is_empty(), reference.is_empty());
            }
            while let Some(got) = q.pop() {
                prop_assert_eq!(Some(got), reference.pop());
            }
            prop_assert!(reference.is_empty());
        }
    }
}
