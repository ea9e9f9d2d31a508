//! Recorder trait and its two implementations: the no-op [`NullRecorder`]
//! and the per-run [`RingRecorder`].
//!
//! The design contract is *zero overhead when disabled*: every hook in the
//! simulation first asks [`Recorder::enabled`] and only then constructs an
//! event, so a [`NullRecorder`] run executes the exact instruction stream
//! of a build without telemetry — no allocation, no branch beyond the one
//! `enabled()` check, and bit-identical metrics (asserted by the
//! zero-overhead guard test in `anycast-dac`).

use crate::event::{Event, TimedEvent};

/// A sink for telemetry events.
///
/// Recorders are owned per run (one recorder per `(config, seed)` cell),
/// so no locking is needed even under a parallel sweep: "lock-free" by
/// construction. Determinism under `--jobs N` follows from the same
/// ownership — each cell's stream is a pure function of its config and
/// substream seed, and the sweep layer reassembles cells in input order.
pub trait Recorder {
    /// Whether events should be constructed at all. Hooks gate on this
    /// before building an [`Event`], so a disabled recorder costs one
    /// predictable branch.
    fn enabled(&self) -> bool;

    /// Records `event` at `time_secs` simulated seconds.
    fn record(&mut self, time_secs: f64, event: Event);

    /// Interval in simulated seconds between periodic link-state samples,
    /// or `None` to disable the sampler (the default).
    fn link_sample_interval(&self) -> Option<f64> {
        None
    }
}

/// Forwarding impl so generic simulation code (`Sim<R: Recorder>`) can be
/// driven through a borrowed recorder — in particular a `&mut dyn
/// Recorder` — without wrapping it.
impl<R: Recorder + ?Sized> Recorder for &mut R {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline]
    fn record(&mut self, time_secs: f64, event: Event) {
        (**self).record(time_secs, event)
    }

    #[inline]
    fn link_sample_interval(&self) -> Option<f64> {
        (**self).link_sample_interval()
    }
}

/// The disabled recorder: `enabled()` is `false` and `record` is a no-op
/// the optimizer removes entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn record(&mut self, _time_secs: f64, _event: Event) {}
}

/// A bounded in-memory event buffer with ring semantics: once `capacity`
/// events are held, each new event overwrites the oldest and the
/// [`dropped`](RingRecorder::dropped) counter grows, so a runaway run can
/// never exhaust memory while the most recent window is always intact.
///
/// The recorder carries the run's substream `seed` so exported events can
/// be attributed to the replication that produced them.
#[derive(Debug, Clone)]
pub struct RingRecorder {
    seed: u64,
    capacity: usize,
    events: Vec<TimedEvent>,
    head: usize,
    dropped: u64,
    sample_every_secs: Option<f64>,
}

/// Default ring capacity: 2²⁰ events (≈ tens of MB), enough for every
/// paper-scale scenario without truncation.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 20;

impl RingRecorder {
    /// A ring with the default capacity for the run with this substream
    /// seed.
    pub fn new(seed: u64) -> Self {
        Self::with_capacity(seed, DEFAULT_RING_CAPACITY)
    }

    /// A ring holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(seed: u64, capacity: usize) -> Self {
        assert!(capacity > 0, "ring recorder needs a positive capacity");
        RingRecorder {
            seed,
            capacity,
            events: Vec::new(),
            head: 0,
            dropped: 0,
            sample_every_secs: None,
        }
    }

    /// Enables the periodic link-state sampler at `secs` intervals.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is not positive and finite.
    pub fn with_sample_interval(mut self, secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs > 0.0,
            "sample interval must be positive and finite, got {secs}"
        );
        self.sample_every_secs = Some(secs);
        self
    }

    /// The substream seed of the run this recorder captured.
    #[cfg(test)]
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// Events lost to ring wraparound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The retained events in chronological (recording) order.
    pub fn events(&self) -> Vec<TimedEvent> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.head..]);
        out.extend_from_slice(&self.events[..self.head]);
        out
    }

    /// Consumes the recorder, returning `(seed, events, dropped)`.
    pub fn into_parts(self) -> (u64, Vec<TimedEvent>, u64) {
        let events = self.events();
        (self.seed, events, self.dropped)
    }
}

impl Recorder for RingRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, time_secs: f64, event: Event) {
        let timed = TimedEvent { time_secs, event };
        if self.events.len() < self.capacity {
            self.events.push(timed);
        } else {
            self.events[self.head] = timed;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    fn link_sample_interval(&self) -> Option<f64> {
        self.sample_every_secs
    }
}

/// How a sweep should record telemetry for each cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TelemetryMode {
    /// A [`NullRecorder`] per cell: the hooks stay disabled, and the run
    /// is the one an untraced run makes.
    Null,
    /// A [`RingRecorder`] per cell.
    Ring {
        /// Periodic link-sampler interval, if any.
        sample_interval_secs: Option<f64>,
        /// Ring capacity in events.
        capacity: usize,
    },
}

impl TelemetryMode {
    /// A ring mode with the default capacity and no sampler.
    pub fn ring() -> Self {
        TelemetryMode::Ring {
            sample_interval_secs: None,
            capacity: DEFAULT_RING_CAPACITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anycast_net::LinkId;

    fn sample(i: u64) -> Event {
        Event::LinkSample {
            link: LinkId::new(i as u32),
            reserved_bps: i,
            capacity_bps: 100,
            flows: 0,
            failed: false,
        }
    }

    #[test]
    fn null_recorder_is_disabled() {
        let mut r = NullRecorder;
        assert!(!r.enabled());
        assert_eq!(r.link_sample_interval(), None);
        r.record(1.0, sample(0)); // no-op, must not panic
    }

    #[test]
    fn ring_keeps_chronological_order_within_capacity() {
        let mut r = RingRecorder::with_capacity(7, 10);
        for i in 0..5 {
            r.record(i as f64, sample(i));
        }
        let events = r.events();
        assert_eq!(events.len(), 5);
        assert_eq!(r.dropped(), 0);
        assert!(events.windows(2).all(|w| w[0].time_secs < w[1].time_secs));
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let mut r = RingRecorder::with_capacity(7, 4);
        for i in 0..10 {
            r.record(i as f64, sample(i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        let times: Vec<f64> = r.events().iter().map(|e| e.time_secs).collect();
        // The newest 4 events survive, oldest first.
        assert_eq!(times, vec![6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn sample_interval_builder() {
        let r = RingRecorder::new(1).with_sample_interval(60.0);
        assert_eq!(r.link_sample_interval(), Some(60.0));
        assert_eq!(r.seed(), 1);
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn zero_capacity_rejected() {
        let _ = RingRecorder::with_capacity(0, 0);
    }
}
