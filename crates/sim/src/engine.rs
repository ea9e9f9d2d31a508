//! The discrete-event driver loop.

use crate::{Duration, EventQueue, SimTime};

/// A discrete-event simulation engine: a clock plus a future-event list.
///
/// The engine is deliberately minimal — the event type `E` and all model
/// state belong to the caller, which keeps the engine reusable across the
/// DAC experiments, the RSVP substrate tests and the examples. Handlers
/// receive `&mut Engine` so they can schedule follow-up events.
///
/// Time never runs backwards: scheduling an event before the current clock
/// is a logic error and panics.
#[derive(Debug)]
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
}

impl<E> Engine<E> {
    /// Creates an engine with the clock at zero and no pending events.
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < now {}",
            self.now
        );
        self.queue.push(at, event);
    }

    /// Schedules `event` at absolute time `at` as the single pending event
    /// of a one-at-a-time stream, such as a workload whose each arrival
    /// schedules the next. It waits in a slot beside the heap and pops in
    /// exactly the order [`schedule_at`](Self::schedule_at) would give it.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock, or if the
    /// stream's previous event has not popped yet.
    pub fn schedule_next(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < now {}",
            self.now
        );
        self.queue.push_next(at, event);
    }

    /// `true` while an event scheduled with
    /// [`schedule_next`](Self::schedule_next) has not popped.
    pub fn next_scheduled(&self) -> bool {
        self.queue.next_pending()
    }

    /// Schedules `event` at `base + delay`.
    ///
    /// Passing the handler's `now` argument as `base` is the common case.
    ///
    /// # Panics
    ///
    /// Panics if `base + delay` is earlier than the current clock.
    pub fn schedule_in(&mut self, base: SimTime, delay: Duration, event: E) {
        self.schedule_at(base + delay, event);
    }

    /// Runs until the event queue drains, calling `handler` for each event.
    pub fn run<F>(&mut self, mut handler: F)
    where
        F: FnMut(&mut Engine<E>, SimTime, E),
    {
        while self.step(&mut handler) {}
    }

    /// Runs until the queue drains or the clock passes `horizon`.
    ///
    /// Events scheduled strictly after `horizon` remain queued; the clock
    /// stops at the last processed event (never beyond `horizon`).
    pub fn run_until<F>(&mut self, horizon: SimTime, mut handler: F)
    where
        F: FnMut(&mut Engine<E>, SimTime, E),
    {
        while let Some(t) = self.queue.peek_time() {
            if t > horizon {
                break;
            }
            self.step(&mut handler);
        }
    }

    /// Processes one event; returns `false` when the queue was empty.
    pub fn step<F>(&mut self, handler: &mut F) -> bool
    where
        F: FnMut(&mut Engine<E>, SimTime, E),
    {
        match self.queue.pop() {
            Some((t, ev)) => {
                debug_assert!(t >= self.now, "event queue violated time order");
                self.now = t;
                self.processed += 1;
                handler(self, t, ev);
                true
            }
            None => false,
        }
    }

    /// Discards all pending events (the clock is left where it is).
    pub fn clear(&mut self) {
        self.queue.clear();
    }
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tick(u32),
        Stop,
    }

    #[test]
    fn drains_queue_in_order() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_secs(3.0), Ev::Tick(3));
        engine.schedule_at(SimTime::from_secs(1.0), Ev::Tick(1));
        engine.schedule_at(SimTime::from_secs(2.0), Ev::Tick(2));
        let mut seen = Vec::new();
        engine.run(|_, t, ev| {
            if let Ev::Tick(n) = ev {
                seen.push((t.as_secs() as u32, n));
            }
        });
        assert_eq!(seen, vec![(1, 1), (2, 2), (3, 3)]);
        assert_eq!(engine.processed(), 3);
        assert_eq!(engine.pending(), 0);
    }

    #[test]
    fn handlers_can_schedule() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::ZERO, Ev::Tick(0));
        let mut count = 0u32;
        engine.run(|eng, now, ev| {
            if let Ev::Tick(n) = ev {
                count += 1;
                if n < 4 {
                    eng.schedule_in(now, Duration::from_secs(1.0), Ev::Tick(n + 1));
                }
            }
        });
        assert_eq!(count, 5);
        assert_eq!(engine.now(), SimTime::from_secs(4.0));
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut engine = Engine::new();
        for i in 0..10 {
            engine.schedule_at(SimTime::from_secs(i as f64), Ev::Tick(i));
        }
        let mut count = 0;
        engine.run_until(SimTime::from_secs(4.5), |_, _, _| count += 1);
        assert_eq!(count, 5); // t = 0..=4
        assert_eq!(engine.pending(), 5);
        assert_eq!(engine.now(), SimTime::from_secs(4.0));
    }

    #[test]
    fn horizon_is_inclusive() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_secs(2.0), Ev::Stop);
        let mut hit = false;
        engine.run_until(SimTime::from_secs(2.0), |_, _, ev| hit = ev == Ev::Stop);
        assert!(hit);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_secs(5.0), Ev::Stop);
        engine.run(|eng, _, _| {
            eng.schedule_at(SimTime::from_secs(1.0), Ev::Stop);
        });
    }

    #[test]
    fn next_event_interleaves_with_the_heap() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_secs(1.0), Ev::Tick(1));
        engine.schedule_next(SimTime::from_secs(1.0), Ev::Tick(2));
        assert!(engine.next_scheduled());
        assert_eq!(engine.pending(), 2);
        let mut seen = Vec::new();
        engine.run(|eng, now, ev| {
            if let Ev::Tick(n) = ev {
                seen.push(n);
                if n == 2 {
                    assert!(!eng.next_scheduled());
                    eng.schedule_next(now, Ev::Tick(3));
                }
            }
        });
        assert_eq!(seen, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn second_pending_next_event_panics() {
        let mut engine = Engine::new();
        engine.schedule_next(SimTime::from_secs(1.0), Ev::Stop);
        engine.schedule_next(SimTime::from_secs(2.0), Ev::Stop);
    }

    #[test]
    fn clear_discards_pending() {
        let mut engine: Engine<Ev> = Engine::default();
        engine.schedule_at(SimTime::from_secs(1.0), Ev::Stop);
        engine.clear();
        assert_eq!(engine.pending(), 0);
        let mut fired = false;
        engine.run(|_, _, _| fired = true);
        assert!(!fired);
    }
}
