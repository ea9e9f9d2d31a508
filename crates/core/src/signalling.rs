//! Event-driven two-phase signalling: the §4.4 PATH/RESV exchange with
//! latency. Each admission attempt's PATH crosses its route one link per
//! event, placing pending holds; the destination's RESV retraces it and
//! the holds are committed when it reaches the source. A RESV_ERR
//! releases them hop by hop, unconfirmed holds expire on their own timers,
//! and a source whose setup timer fires retransmits under bounded backoff.
//! Messages are lost or delayed by the `[signaling]` fault model.
//!
//! The module owns the exchange and nothing else. A request's destination
//! selection and retrial control stay in its [`DacRequest`], which waits
//! here between messages; an event that settles an attempt returns a
//! [`Settled`] for the simulation to feed back into that request.
//!
//! A configuration with zero per-hop delay and an inert `[signaling]`
//! section never builds this state: its exchange is the atomic one.

use crate::arrivals::Arrival;
use crate::controller::DacRequest;
use crate::experiment::{Event, TwoPhaseConfig};
use anycast_chaos::{MessageFault, SignalingFaults};
use anycast_net::{LinkId, LinkStateTable, Path};
use anycast_rsvp::{
    MessageKind, PathStep, ReservationEngine, ReservationOutcome, SetupId, SetupTable,
};
use anycast_sim::{DeadlineHeap, Duration, Engine, SimRng, SimTime};
use anycast_telemetry::{Event as TelemetryEvent, Recorder, SkipReason};
use std::collections::HashMap;

/// A message crossing one link of an attempt's route.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Hop {
    req: u64,
    setup: SetupId,
    hop: usize,
}

/// The signalling events.
#[derive(Debug)]
pub(crate) enum Signal {
    /// A PATH message starts crossing its hop.
    PathHop(Hop),
    /// A RESV message starts crossing its hop back toward the source.
    ResvHop(Hop),
    /// A RESV_ERR message starts crossing its hop back toward the source,
    /// releasing the hold there.
    ResvErrHop(Hop),
    /// The RESV arrived at the source; commit the holds.
    SetupComplete { req: u64, setup: SetupId },
    /// The RESV_ERR arrived at the source; the attempt was refused.
    SetupRefused { req: u64, setup: SetupId },
    /// The source's setup timer fired before an answer came.
    SetupTimeout { req: u64, setup: SetupId },
    /// The backoff delay elapsed; retransmit toward the same destination.
    RetrySetup(u64),
    /// Wake-up for the hold-expiry timers.
    HoldTick,
}

/// One request whose admission is in flight.
pub(crate) struct PendingAdmission {
    pub(crate) arrival: Arrival,
    /// The request's REPEAT loop, frozen between messages.
    pub(crate) request: DacRequest,
    /// Retransmissions already spent on the current destination.
    attempts_this_dest: u32,
    /// The live setup attempt; `None` between a timeout and its
    /// retransmission (stale answers for abandoned setups are dropped).
    setup: Option<SetupId>,
}

impl PendingAdmission {
    pub(crate) fn new(arrival: Arrival, request: DacRequest) -> Self {
        PendingAdmission {
            arrival,
            request,
            attempts_this_dest: 0,
            setup: None,
        }
    }
}

/// How a signalling event left the request it belongs to.
pub(crate) enum Settled {
    /// Still in flight, or the event concerned no live attempt.
    InFlight,
    /// The RESV reached the source: `reserved` is installed over `hops`
    /// links, `latency_secs` after the attempt's first PATH.
    Admitted {
        req: u64,
        reserved: ReservationOutcome,
        hops: usize,
        latency_secs: f64,
    },
    /// The attempt toward the current destination failed for `skip`.
    Failed { req: u64, skip: SkipReason },
    /// The backoff elapsed: launch the attempt again.
    Retransmit(u64),
}

/// What a signalling event touches outside the signalling state.
pub(crate) struct Plane<'a> {
    pub(crate) links: &'a mut LinkStateTable,
    pub(crate) rsvp: &'a mut ReservationEngine,
    /// Message losses and extra delays draw from the fault stream.
    pub(crate) fault_rng: &'a mut SimRng,
    pub(crate) recorder: &'a mut dyn Recorder,
    pub(crate) rec_on: bool,
}

impl Plane<'_> {
    #[inline]
    fn note(&mut self, now: SimTime, event: TelemetryEvent) {
        if self.rec_on {
            self.recorder.record(now.as_secs(), event);
        }
    }

    /// Request `req`'s `message` starts crossing `link`.
    fn sent(&mut self, now: SimTime, request: u64, message: MessageKind, link: LinkId) {
        let sent = TelemetryEvent::MsgSent {
            request,
            message,
            link,
        };
        self.note(now, sent);
    }
}

/// The state of the event-driven signalling engine.
pub(crate) struct TwoPhaseState {
    cfg: TwoPhaseConfig,
    sig: SignalingFaults,
    warmup_end: SimTime,
    table: SetupTable,
    pub(crate) pending: HashMap<u64, PendingAdmission>,
    /// Expiry timers of unconfirmed holds, keyed by the request, setup and
    /// hop each one holds, so an expiry names its request.
    holds: DeadlineHeap<(u64, SetupId, usize)>,
    backoff_rng: SimRng,
    pub(crate) holds_placed: u64,
    pub(crate) holds_expired: u64,
    pub(crate) setups_completed: u64,
    pub(crate) retransmits: u64,
    pub(crate) msgs_lost: u64,
    latency_sum: f64,
    latency_count: u64,
}

impl TwoPhaseState {
    /// The engine for `cfg` under the `sig` fault model, or `None` when the
    /// exchange is instantaneous and lossless and so is the atomic one.
    /// Setup latencies count from `warmup_end`.
    pub(crate) fn new(
        cfg: TwoPhaseConfig,
        sig: SignalingFaults,
        backoff_rng: SimRng,
        warmup_end: SimTime,
    ) -> Option<Self> {
        if cfg.per_hop_delay_secs == 0.0 && sig.is_inert() {
            return None;
        }
        Some(TwoPhaseState {
            cfg,
            sig,
            warmup_end,
            table: SetupTable::new(),
            pending: HashMap::new(),
            holds: DeadlineHeap::new(),
            backoff_rng,
            holds_placed: 0,
            holds_expired: 0,
            setups_completed: 0,
            retransmits: 0,
            msgs_lost: 0,
            latency_sum: 0.0,
            latency_count: 0,
        })
    }

    /// Setups with state in the table.
    pub(crate) fn setups_in_flight(&self) -> usize {
        self.table.in_flight()
    }

    /// Mean latency of the setups completed after warm-up (0 when none).
    pub(crate) fn mean_setup_latency_secs(&self) -> f64 {
        if self.latency_count == 0 {
            0.0
        } else {
            self.latency_sum / self.latency_count as f64
        }
    }

    /// End of run: releases the holds of every setup still in flight.
    pub(crate) fn drain(&mut self, links: &mut LinkStateTable) {
        let _ = self.table.drain(links);
    }

    /// Counts a setup completed at `now` that began at `started_secs`, and
    /// returns its latency.
    pub(crate) fn completed(&mut self, now: SimTime, started_secs: f64) -> f64 {
        let latency = now.as_secs() - started_secs;
        self.setups_completed += 1;
        if now >= self.warmup_end {
            self.latency_sum += latency;
            self.latency_count += 1;
        }
        latency
    }

    /// Launches the pending request `req`'s attempt along `route`: arms
    /// the setup timer and sends the first PATH.
    pub(crate) fn launch(&mut self, eng: &mut Engine<Event>, now: SimTime, req: u64, route: Path) {
        let p = self
            .pending
            .get_mut(&req)
            .expect("attempt needs a pending admission");
        let setup = self.table.begin(route, p.arrival.demand, now.as_secs());
        p.setup = Some(setup);
        if self.cfg.setup_timeout_secs.is_finite() {
            eng.schedule_in(
                now,
                Duration::from_secs(self.cfg.setup_timeout_secs),
                Event::Signal(Signal::SetupTimeout { req, setup }),
            );
        }
        let first = Hop { req, setup, hop: 0 };
        eng.schedule_at(now, Event::Signal(Signal::PathHop(first)));
    }

    /// Processes one signalling event.
    pub(crate) fn handle(
        &mut self,
        plane: &mut Plane<'_>,
        eng: &mut Engine<Event>,
        now: SimTime,
        signal: Signal,
    ) -> Settled {
        match signal {
            Signal::PathHop(at) => self.path_hop(plane, eng, now, at),
            Signal::ResvHop(at) => self.resv_hop(plane, eng, now, at),
            Signal::ResvErrHop(at) => self.resv_err_hop(plane, eng, now, at),
            Signal::SetupComplete { req, setup } if self.is_current(req, setup) => {
                return self.setup_complete(plane, now, req, setup);
            }
            Signal::SetupRefused { req, setup } if self.is_current(req, setup) => {
                let err = self
                    .table
                    .blocked_error(setup)
                    .expect("refused setups recorded their bottleneck");
                self.table.abandon(setup);
                return self.fail(req, err.into());
            }
            Signal::SetupTimeout { req, setup } if self.is_current(req, setup) => {
                return self.setup_timeout(eng, now, req, setup);
            }
            Signal::RetrySetup(req) if self.pending.contains_key(&req) => {
                return Settled::Retransmit(req);
            }
            Signal::HoldTick => self.hold_tick(plane, eng, now),
            // A stale answer or timer: the source already moved on (and
            // possibly a newer setup took its place); a dead setup's holds
            // expire on their own timers.
            Signal::SetupComplete { .. }
            | Signal::SetupRefused { .. }
            | Signal::SetupTimeout { .. }
            | Signal::RetrySetup(_) => {}
        }
        Settled::InFlight
    }

    /// Whether `setup` is the attempt request `req`'s source waits on.
    fn is_current(&self, req: u64, setup: SetupId) -> bool {
        self.pending
            .get(&req)
            .is_some_and(|p| p.setup == Some(setup))
    }

    /// The attempt toward the current destination is over.
    fn fail(&mut self, req: u64, skip: SkipReason) -> Settled {
        let p = self.pending.get_mut(&req).expect("checked current");
        p.setup = None;
        p.attempts_this_dest = 0;
        Settled::Failed { req, skip }
    }

    /// One message crossing `link` under the `[signaling]` fault model:
    /// its transit time to the next router, or `None` when it is lost.
    fn cross(
        &mut self,
        plane: &mut Plane<'_>,
        now: SimTime,
        req: u64,
        message: MessageKind,
        link: LinkId,
    ) -> Option<Duration> {
        let fault = match message {
            MessageKind::Path => self.sig.path,
            MessageKind::Resv => self.sig.resv,
            _ => self.sig.resv_err,
        };
        match transit(&fault, self.cfg.per_hop_delay_secs, plane.fault_rng) {
            Some(secs) => Some(Duration::from_secs(secs)),
            None => {
                self.msgs_lost += 1;
                plane.note(
                    now,
                    TelemetryEvent::MsgLost {
                        request: req,
                        message,
                        link,
                    },
                );
                None
            }
        }
    }

    fn path_hop(&mut self, plane: &mut Plane<'_>, eng: &mut Engine<Event>, now: SimTime, at: Hop) {
        let Hop { req, setup, hop } = at;
        if !self.table.contains(setup) {
            // The setup was reaped while this message was in flight (e.g.
            // its last hold expired); the message dies with it.
            return;
        }
        let bw_bps = self.table.bandwidth(setup).expect("tabled setup").bps();
        let step = self
            .table
            .path_step(plane.rsvp, plane.links, setup, hop)
            .expect("contains() checked above");
        let (link, reached_destination) = match step {
            PathStep::Held {
                link,
                reached_destination,
            } => (link, reached_destination),
            PathStep::Blocked(err) => {
                plane.sent(now, req, MessageKind::Path, err.failed_link);
                // The router at the bottleneck answers on the spot: the
                // RESV_ERR's first crossing (back over this same link)
                // starts now.
                eng.schedule_at(now, Event::Signal(Signal::ResvErrHop(at)));
                return;
            }
        };
        self.holds_placed += 1;
        plane.sent(now, req, MessageKind::Path, link);
        let held = TelemetryEvent::HoldPlaced {
            request: req,
            link,
            bw_bps,
        };
        plane.note(now, held);
        if self.cfg.setup_timeout_secs.is_finite() {
            self.holds.arm(
                (req, setup, hop),
                now.as_secs() + self.cfg.setup_timeout_secs,
            );
            if let Some(tick) = self.holds.tick_needed() {
                eng.schedule_at(SimTime::from_secs(tick), Event::Signal(Signal::HoldTick));
            }
        }
        // A lost PATH leaves the hold just placed (and the ones upstream)
        // to their expiry timers.
        if let Some(delay) = self.cross(plane, now, req, MessageKind::Path, link) {
            let next = if reached_destination {
                // The destination answers: its RESV first re-crosses this
                // same link on the way back.
                Signal::ResvHop(at)
            } else {
                Signal::PathHop(Hop { hop: hop + 1, ..at })
            };
            eng.schedule_in(now, delay, Event::Signal(next));
        }
    }

    fn resv_hop(&mut self, plane: &mut Plane<'_>, eng: &mut Engine<Event>, now: SimTime, at: Hop) {
        let Hop { req, setup, hop } = at;
        if !self.table.resv_step(plane.rsvp, setup) {
            return;
        }
        let link = self
            .table
            .link_at(setup, hop)
            .expect("route covers this hop");
        plane.sent(now, req, MessageKind::Resv, link);
        // Nothing is committed before the RESV reaches the source, so a lost
        // one leaves unconfirmed holds to expire and the source times out.
        if let Some(delay) = self.cross(plane, now, req, MessageKind::Resv, link) {
            let next = if hop == 0 {
                Signal::SetupComplete { req, setup }
            } else {
                Signal::ResvHop(Hop { hop: hop - 1, ..at })
            };
            eng.schedule_in(now, delay, Event::Signal(next));
        }
    }

    fn resv_err_hop(
        &mut self,
        plane: &mut Plane<'_>,
        eng: &mut Engine<Event>,
        now: SimTime,
        at: Hop,
    ) {
        let Hop { req, setup, hop } = at;
        if !self.table.contains(setup) {
            return;
        }
        let link = self
            .table
            .link_at(setup, hop)
            .expect("route covers this hop");
        let released = self
            .table
            .resv_err_step(plane.rsvp, plane.links, setup, hop)
            .expect("contains() checked above");
        if released.is_some() {
            // The error released this hop's hold before its timer fired.
            self.holds.cancel(&(req, setup, hop));
        }
        plane.sent(now, req, MessageKind::ResvErr, link);
        // A lost RESV_ERR leaves the upstream holds until expiry, and the
        // source times out.
        if let Some(delay) = self.cross(plane, now, req, MessageKind::ResvErr, link) {
            let next = if hop == 0 {
                Signal::SetupRefused { req, setup }
            } else {
                Signal::ResvErrHop(Hop { hop: hop - 1, ..at })
            };
            eng.schedule_in(now, delay, Event::Signal(next));
        }
    }

    fn setup_complete(
        &mut self,
        plane: &mut Plane<'_>,
        now: SimTime,
        req: u64,
        setup: SetupId,
    ) -> Settled {
        let hops = self.table.hops(setup).expect("pending setups stay tabled");
        let started = self
            .table
            .started_at(setup)
            .expect("pending setups stay tabled");
        let committed = self.table.complete(plane.rsvp, plane.links, setup);
        for h in 0..hops {
            self.holds.cancel(&(req, setup, h));
        }
        match committed {
            Some(reserved) => Settled::Admitted {
                req,
                reserved,
                hops,
                latency_secs: self.completed(now, started),
            },
            // A hold expired while the RESV was in flight (the timeout is
            // shorter than the round trip): survivors were just released,
            // and the source's setup timer will fail this attempt.
            None => Settled::InFlight,
        }
    }

    fn setup_timeout(
        &mut self,
        eng: &mut Engine<Event>,
        now: SimTime,
        req: u64,
        setup: SetupId,
    ) -> Settled {
        // Give up on this exchange. Remote holds are NOT released here —
        // the source cannot reach them; they expire on their timers.
        let blocked = self.table.blocked_error(setup);
        self.table.abandon(setup);
        let p = self.pending.get_mut(&req).expect("checked current");
        if p.attempts_this_dest >= self.cfg.backoff.max_retransmits {
            // Retransmissions exhausted: the destination counts as failed
            // and the §4.5 retrial policy takes over.
            return self.fail(req, blocked.map_or(SkipReason::NoFeasiblePath, Into::into));
        }
        let delay = self
            .cfg
            .backoff
            .delay_for(p.attempts_this_dest, &mut self.backoff_rng);
        self.retransmits += 1;
        p.attempts_this_dest += 1;
        p.setup = None;
        eng.schedule_in(
            now,
            Duration::from_secs(delay),
            Event::Signal(Signal::RetrySetup(req)),
        );
        Settled::InFlight
    }

    fn hold_tick(&mut self, plane: &mut Plane<'_>, eng: &mut Engine<Event>, now: SimTime) {
        for (req, setup, hop) in self.holds.pop_due(now.as_secs()) {
            let bw_bps = self.table.bandwidth(setup).map(|b| b.bps());
            let Some(link) = self.table.expire_hold(plane.links, setup, hop) else {
                continue;
            };
            self.holds_expired += 1;
            if plane.rec_on {
                let expired = TelemetryEvent::HoldExpired {
                    request: req,
                    link,
                    bw_bps: bw_bps.expect("state existed at expiry"),
                };
                plane.note(now, expired);
            }
        }
        if let Some(tick) = self.holds.tick_needed() {
            eng.schedule_at(SimTime::from_secs(tick), Event::Signal(Signal::HoldTick));
        }
    }
}

/// One message crossing under the `[signaling]` fault model: `None` means
/// the message was dropped; `Some(d)` the crossing takes `d` seconds.
/// Draw order (loss first, then extra delay) is part of the determinism
/// contract, and each draw is guarded so an inert fault model consumes no
/// randomness at all.
fn transit(fault: &MessageFault, per_hop_secs: f64, rng: &mut SimRng) -> Option<f64> {
    if fault.loss_probability > 0.0 && rng.uniform() < fault.loss_probability {
        return None;
    }
    let mut d = per_hop_secs;
    if fault.extra_delay_secs > 0.0 {
        d += rng.exp_duration(fault.extra_delay_secs).as_secs();
    }
    Some(d)
}
