//! Per-request decision tracing.
//!
//! A [`RequestTracer`] is handed down into an admission controller for the
//! duration of one request. It accumulates the policy's weight vector and
//! every probed-and-skipped candidate, emits a probe/retrial event stream
//! as the decision unfolds, and closes the request with either a
//! `ReservationSetup` or a `Rejection` carrying the full
//! [`DecisionTrace`]. Every method early-returns when the underlying
//! recorder is disabled, so the traced admission path costs a disabled
//! run nothing beyond one boolean captured at construction.
//!
//! A decision that spans several events (two-phase signalling waits for
//! messages between its reservation attempts) keeps its trail between
//! them: [`into_trail`](RequestTracer::into_trail) hands it back and
//! [`resume`](RequestTracer::resume) continues it at the next event.

use crate::event::{DecisionStep, DecisionTrace, Event, ProbeResult, SkipReason};
use crate::recorder::Recorder;
use anycast_rsvp::SessionId;

/// Collects the decision trail of a single admission request and forwards
/// it to a [`Recorder`].
pub struct RequestTracer<'a> {
    recorder: &'a mut dyn Recorder,
    now_secs: f64,
    request: u64,
    armed: bool,
    /// The first weight vector and every skipped probe so far; empty
    /// unless armed.
    trail: DecisionTrace,
}

impl<'a> RequestTracer<'a> {
    /// A tracer for `request` at simulated time `now_secs`. The tracer is
    /// armed exactly when the recorder is enabled.
    pub fn new(recorder: &'a mut dyn Recorder, now_secs: f64, request: u64) -> Self {
        Self::resume(recorder, now_secs, request, DecisionTrace::default())
    }

    /// A tracer for `request` at `now_secs` that continues `trail`, which
    /// an earlier tracer for the same request handed back through
    /// [`into_trail`](Self::into_trail).
    pub fn resume(
        recorder: &'a mut dyn Recorder,
        now_secs: f64,
        request: u64,
        trail: DecisionTrace,
    ) -> Self {
        let armed = recorder.enabled();
        RequestTracer {
            recorder,
            now_secs,
            request,
            armed,
            trail,
        }
    }

    /// Ends this tracer and returns the trail accumulated so far (empty,
    /// and never allocated, when disarmed) for a later
    /// [`resume`](Self::resume).
    pub fn into_trail(self) -> DecisionTrace {
        self.trail
    }

    /// Whether this tracer records anything. Callers may gate optional
    /// bookkeeping (e.g. collecting per-candidate feasibility) on this.
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// The request id this tracer is attached to.
    pub fn request(&self) -> u64 {
        self.request
    }

    /// Notes the policy's weight vector. Only the first call is kept — the
    /// trace records the weights the request *arrived* to, before retrials
    /// updated the history.
    #[inline]
    pub fn note_weights(&mut self, weights: &[f64]) {
        if !self.armed || !self.trail.weights.is_empty() {
            return;
        }
        self.trail.weights.extend_from_slice(weights);
    }

    /// Notes a probe of `member_index` with the given selection `weight`
    /// and outcome; skipped candidates are added to the decision trace.
    #[inline]
    pub fn note_probe(&mut self, member_index: usize, weight: f64, result: ProbeResult) {
        if !self.armed {
            return;
        }
        if let ProbeResult::Skipped(skip) = result {
            self.trail.steps.push(DecisionStep {
                member_index,
                weight,
                skip,
            });
        }
        self.recorder.record(
            self.now_secs,
            Event::DestinationProbe {
                request: self.request,
                member_index,
                weight,
                result,
            },
        );
    }

    /// Notes a considered-but-never-probed candidate (global-knowledge
    /// systems that reject candidates from routing state alone).
    #[inline]
    pub fn note_skip(&mut self, member_index: usize, weight: f64, skip: SkipReason) {
        self.note_probe(member_index, weight, ProbeResult::Skipped(skip));
    }

    /// Notes the §4.5 decision to keep retrying after a failed probe.
    #[inline]
    pub fn note_retrial(&mut self, tries_so_far: u32, remaining_weight: f64) {
        if !self.armed {
            return;
        }
        self.recorder.record(
            self.now_secs,
            Event::Retrial {
                request: self.request,
                tries_so_far,
                remaining_weight,
            },
        );
    }

    /// Closes the request as admitted.
    #[inline]
    pub fn finish_admitted(
        &mut self,
        session: SessionId,
        member_index: usize,
        hops: usize,
        tries: u32,
    ) {
        if !self.armed {
            return;
        }
        self.recorder.record(
            self.now_secs,
            Event::ReservationSetup {
                request: self.request,
                session,
                member_index,
                hops,
                tries,
            },
        );
    }

    /// Closes the request as rejected, emitting the accumulated
    /// [`DecisionTrace`].
    #[inline]
    pub fn finish_rejected(&mut self, tries: u32) {
        if !self.armed {
            return;
        }
        let trace = std::mem::take(&mut self.trail);
        self.recorder.record(
            self.now_secs,
            Event::Rejection {
                request: self.request,
                tries,
                trace,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TimedEvent;
    use crate::recorder::{NullRecorder, RingRecorder};
    use anycast_net::LinkId;

    fn blocked(link: u32) -> SkipReason {
        SkipReason::LinkBlocked {
            link: LinkId::new(link),
            hop_index: 0,
            available_bps: 0,
        }
    }

    #[test]
    fn disarmed_tracer_records_nothing() {
        let mut null = NullRecorder;
        let mut t = RequestTracer::new(&mut null, 1.0, 42);
        assert!(!t.is_armed());
        t.note_weights(&[0.5, 0.5]);
        t.note_probe(0, 0.5, ProbeResult::Skipped(blocked(1)));
        t.note_retrial(1, 0.5);
        t.finish_rejected(1);
        // Nothing observable; the NullRecorder has no state to inspect,
        // which is exactly the point.
    }

    #[test]
    fn rejection_carries_full_decision_trace() {
        let mut ring = RingRecorder::new(7);
        {
            let mut t = RequestTracer::new(&mut ring, 2.5, 9);
            assert!(t.is_armed());
            t.note_weights(&[0.7, 0.3]);
            t.note_weights(&[0.0, 0.0]); // later weight vectors are ignored
            t.note_probe(0, 0.7, ProbeResult::Skipped(blocked(4)));
            t.note_retrial(1, 0.3);
            t.note_probe(1, 0.3, ProbeResult::Skipped(blocked(8)));
            t.finish_rejected(2);
        }
        let events: Vec<TimedEvent> = ring.events();
        assert_eq!(events.len(), 4); // probe, retrial, probe, rejection
        let Event::Rejection {
            request,
            tries,
            trace,
        } = &events[3].event
        else {
            panic!("last event must be the rejection, got {:?}", events[3]);
        };
        assert_eq!(*request, 9);
        assert_eq!(*tries, 2);
        assert_eq!(trace.weights, vec![0.7, 0.3]);
        assert_eq!(trace.steps.len(), 2);
        assert_eq!(trace.steps[0].member_index, 0);
        assert_eq!(trace.steps[1].member_index, 1);
        assert_eq!(trace.steps[1].skip, blocked(8));
    }

    #[test]
    fn a_resumed_trail_closes_with_every_step() {
        let mut ring = RingRecorder::new(7);
        let mut t = RequestTracer::new(&mut ring, 1.0, 3);
        t.note_weights(&[0.6, 0.4]);
        t.note_probe(0, 0.6, ProbeResult::Skipped(blocked(2)));
        let trail = t.into_trail();
        let mut t = RequestTracer::resume(&mut ring, 1.5, 3, trail);
        t.note_weights(&[0.0, 1.0]);
        t.note_probe(1, 1.0, ProbeResult::Skipped(blocked(5)));
        t.finish_rejected(2);
        let events = ring.events();
        let Event::Rejection { trace, .. } = &events[2].event else {
            panic!("last event must be the rejection, got {:?}", events[2]);
        };
        assert_eq!(events[2].time_secs, 1.5);
        assert_eq!(trace.weights, vec![0.6, 0.4], "the first draw's weights");
        assert_eq!(trace.steps.len(), 2);
        assert_eq!(trace.steps[1].skip, blocked(5));
    }

    #[test]
    fn admission_emits_setup_not_trace() {
        let mut ring = RingRecorder::new(7);
        {
            let mut t = RequestTracer::new(&mut ring, 0.0, 1);
            t.note_weights(&[1.0]);
            t.note_probe(0, 1.0, ProbeResult::Admitted);
            t.finish_admitted(SessionId::for_tests(5), 0, 3, 1);
        }
        let events = ring.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].event.kind(), "setup");
    }
}
