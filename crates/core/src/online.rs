//! The online admission engine: the closed-loop experiment of
//! [`experiment`](crate::experiment), decoupled from its pre-scheduled
//! arrival process so a long-lived service can feed it arrivals as they
//! happen.
//!
//! [`run_experiment`](crate::experiment::run_experiment) owns its whole
//! timeline: the workload draws every arrival up front and the event loop
//! runs straight to the horizon. An admission *daemon* cannot do that —
//! requests arrive from the outside world (a replayed trace, a wire
//! protocol) and time is advanced by a real clock. [`OnlineEngine`] is the
//! bridge: it owns the same simulation state and drives the **same** event
//! handler, but its arrival feed is an externally-submitted queue and its
//! clock advances only as far as the caller says.
//!
//! Because the offline and online engines share one code path (down to
//! the RNG fork order: one function forks every stream of a run, and the
//! arrival stream is forked even when it is never drawn from), a
//! virtual-time replay of a config's recorded arrival trace is
//! **bit-identical** to the offline run: same decisions, same
//! [`Metrics`], same telemetry stream.
//! [`record_arrivals`] + [`OnlineEngine::submit`] round-trip is the
//! contract; `core/tests/online_replay.rs` enforces it.

use crate::arrivals::RunStreams;
use crate::experiment::{Decision, Event, ExperimentConfig, Metrics, ServiceSnapshot, Sim};
use anycast_net::{Bandwidth, Topology};
use anycast_rsvp::SessionId;
use anycast_sim::{Engine, SimTime};
use anycast_telemetry::Recorder;
use std::collections::VecDeque;

/// Trailing-window admission counters for the rolling (run-forever)
/// service mode: every decision is folded into a fixed number of
/// simulated-time buckets and buckets older than the window are evicted,
/// so memory stays O(buckets) no matter how long the daemon runs.
#[derive(Debug, Clone)]
struct RollingWindow {
    window_secs: f64,
    bucket_secs: f64,
    /// (bucket start, offered, admitted), oldest first.
    buckets: VecDeque<(f64, u64, u64)>,
}

/// Buckets per window: coarse enough to stay tiny, fine enough that the
/// reported window is within ~1/32 of the configured width.
const WINDOW_BUCKETS: f64 = 32.0;

impl RollingWindow {
    fn new(window_secs: f64) -> Self {
        assert!(
            window_secs.is_finite() && window_secs > 0.0,
            "rolling window must be positive seconds, got {window_secs}"
        );
        RollingWindow {
            window_secs,
            bucket_secs: window_secs / WINDOW_BUCKETS,
            buckets: VecDeque::new(),
        }
    }

    fn evict(&mut self, now_secs: f64) {
        let cutoff = now_secs - self.window_secs;
        while let Some(&(start, ..)) = self.buckets.front() {
            if start + self.bucket_secs <= cutoff {
                self.buckets.pop_front();
            } else {
                break;
            }
        }
    }

    fn note(&mut self, at_secs: f64, admitted: bool) {
        let start = (at_secs / self.bucket_secs).floor() * self.bucket_secs;
        match self.buckets.back_mut() {
            Some((s, offered, adm)) if *s >= start => {
                *offered += 1;
                *adm += u64::from(admitted);
            }
            _ => self.buckets.push_back((start, 1, u64::from(admitted))),
        }
        self.evict(at_secs);
    }

    fn totals(&mut self, now_secs: f64) -> (u64, u64) {
        self.evict(now_secs);
        let mut offered = 0;
        let mut admitted = 0;
        for &(_, o, a) in &self.buckets {
            offered += o;
            admitted += a;
        }
        (offered, admitted)
    }
}

/// One externally-submitted arrival: the online analogue of a workload
/// draw, in plain units so trace files and wire messages map onto it
/// directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineArrival {
    /// Simulated arrival time, seconds.
    pub at_secs: f64,
    /// Index into the config's source list.
    pub source_index: usize,
    /// Index into the config's effective anycast groups.
    pub group_index: usize,
    /// Flow holding time, seconds.
    pub holding_secs: f64,
    /// Requested bandwidth.
    pub demand: Bandwidth,
}

/// A long-lived admission engine fed by external arrivals.
///
/// Lifecycle: [`new`](Self::new) → any interleaving of
/// [`submit`](Self::submit) / [`pump`](Self::pump) /
/// [`advance_to`](Self::advance_to) → [`finish`](Self::finish) (run out
/// the full horizon, for replays) or [`finish_now`](Self::finish_now)
/// (stop where the clock stands, for services shutting down).
pub struct OnlineEngine<R: Recorder> {
    sim: Sim<R>,
    engine: Engine<Event>,
    last_submit: SimTime,
    rolling: Option<RollingWindow>,
}

impl<R: Recorder> OnlineEngine<R> {
    /// Builds an externally-fed engine for `config` on `topo`.
    ///
    /// Warm-up, the fault timeline, refresh sweeps and telemetry sampling
    /// are scheduled exactly as in the offline experiment; only arrivals
    /// wait for [`submit`](Self::submit). Decision capture is on.
    ///
    /// # Panics
    ///
    /// As [`run_experiment`](crate::experiment::run_experiment) for
    /// invalid configs.
    pub fn new(topo: &Topology, config: &ExperimentConfig, recorder: R) -> Self {
        let (sim, engine) = Sim::new(topo, config, recorder, true);
        OnlineEngine {
            sim,
            engine,
            last_submit: SimTime::ZERO,
            rolling: None,
        }
    }

    /// Switches the engine into rolling-window service mode: the run
    /// horizon moves out to an effectively unbounded instant (so `serve`
    /// runs until told to stop, not to `warmup + measure`), and
    /// [`snapshot`](Self::snapshot) reports trailing-window admission
    /// counters over the last `window_secs` of simulated time alongside
    /// the monotone totals.
    ///
    /// The configured `warmup + measure` span still scopes the fault
    /// timeline; warm-up stat gating is unchanged. Replays that need
    /// bit-identical offline metrics must not enable this.
    ///
    /// # Panics
    ///
    /// Panics if `window_secs` is not positive and finite.
    pub fn enable_rolling(&mut self, window_secs: f64) {
        self.rolling = Some(RollingWindow::new(window_secs));
        self.sim.make_unbounded();
    }

    /// Whether rolling-window mode is on.
    pub fn is_rolling(&self) -> bool {
        self.rolling.is_some()
    }

    /// Current simulated time (time of the last processed event).
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// The run horizon (`warmup_secs + measure_secs`); the engine never
    /// advances past it and arrivals beyond it are rejected at submit.
    pub fn horizon(&self) -> SimTime {
        self.sim.horizon()
    }

    /// Number of configured source routers (valid `source_index` bound).
    pub fn source_count(&self) -> usize {
        self.sim.source_count()
    }

    /// Number of effective anycast groups (valid `group_index` bound).
    pub fn group_count(&self) -> usize {
        self.sim.group_count()
    }

    /// Shared access to the recorder (e.g. to inspect a ring buffer).
    pub fn recorder(&self) -> &R {
        self.sim.recorder()
    }

    /// A point-in-time operational snapshot (the daemon's `stats`
    /// endpoint). In rolling mode the trailing-window counters are
    /// filled in; otherwise they are zero and `window_secs` is 0.
    pub fn snapshot(&mut self) -> ServiceSnapshot {
        let now = self.engine.now();
        let mut snap = self.sim.snapshot(now);
        if let Some(window) = self.rolling.as_mut() {
            let (offered, admitted) = window.totals(now.as_secs());
            snap.window_secs = window.window_secs;
            snap.window_offered = offered;
            snap.window_admitted = admitted;
            snap.window_rejected = offered - admitted;
        }
        snap
    }

    /// Tears down a live admitted session right now — the wire `teardown`
    /// op. Returns `false` when the session is not live (already departed
    /// at its holding deadline, already torn down, fault-killed, or never
    /// existed): lost and duplicate teardowns are harmless because the
    /// §4.4 soft-state path reclaims the reservation regardless.
    pub fn teardown(&mut self, session: SessionId) -> bool {
        let Self { sim, engine, .. } = self;
        sim.teardown_session(engine, session)
    }

    /// Enqueues one arrival. The decision is made when the engine's
    /// clock reaches `arrival.at_secs` — call [`pump`](Self::pump) or
    /// [`advance_to`](Self::advance_to) to collect it.
    ///
    /// # Panics
    ///
    /// Panics if the arrival is before the engine's current time or an
    /// earlier submission, past the horizon, references an unknown source
    /// or group, or has a non-positive demand or holding time.
    pub fn submit(&mut self, arrival: OnlineArrival) {
        assert!(
            arrival.at_secs.is_finite() && arrival.at_secs >= 0.0,
            "arrival time must be finite and nonnegative, got {}",
            arrival.at_secs
        );
        let at = SimTime::from_secs(arrival.at_secs);
        assert!(
            at >= self.engine.now(),
            "arrival at {:?} is in the past (engine is at {:?})",
            at,
            self.engine.now()
        );
        assert!(
            at >= self.last_submit,
            "arrivals must be submitted in nondecreasing time order"
        );
        assert!(
            at <= self.sim.horizon(),
            "arrival at {:?} is past the horizon {:?}",
            at,
            self.sim.horizon()
        );
        self.sim.submit_arrival(&mut self.engine, arrival);
        self.last_submit = at;
    }

    /// Advances the clock to the latest submitted arrival, deciding
    /// everything due by then, and drains the finalised decisions.
    pub fn pump(&mut self) -> Vec<Decision> {
        let mut decisions = Vec::new();
        self.advance_to(self.last_submit, &mut decisions);
        decisions
    }

    /// Advances the clock to `t` (clamped to the horizon), processing
    /// every event due by then — admissions, departures, signalling
    /// exchanges, faults — and appends the finalised decisions to `out`.
    /// A caller that reuses `out` allocates nothing for them.
    ///
    /// Advancing to a time earlier than [`now`](Self::now) is a no-op
    /// apart from draining.
    pub fn advance_to(&mut self, t: SimTime, out: &mut Vec<Decision>) {
        let target = t.min(self.sim.horizon());
        let Self { sim, engine, .. } = self;
        engine.run_until(target, |eng, now, event| sim.handle(eng, now, event));
        let from = out.len();
        sim.drain_decisions_into(out);
        if let Some(window) = self.rolling.as_mut() {
            for d in &out[from..] {
                window.note(d.at_secs, d.admitted);
            }
        }
    }

    /// Runs the engine out to the full horizon and closes the run. This
    /// is the replay path: its [`Metrics`] are bit-identical to the
    /// offline engine's for the same config and arrival trace.
    pub fn finish(mut self) -> (Metrics, Vec<Decision>, R) {
        if self.rolling.is_some() {
            // A rolling engine has no meaningful horizon to run out to
            // (it is ~1e15 s away, with self-rescheduling periodic events
            // in between); close where the clock stands instead.
            return self.finish_now();
        }
        let horizon = self.sim.horizon();
        let mut decisions = Vec::new();
        self.advance_to(horizon, &mut decisions);
        let (metrics, recorder) = self.sim.finish(horizon);
        (metrics, decisions, recorder)
    }

    /// Closes the run where the clock currently stands, without running
    /// out the horizon — the graceful-shutdown path. In-flight two-phase
    /// holds are drained (and audited via `leaked_hold_bps`), the ledger
    /// is audited via `leaked_bandwidth_bps`, and time-weighted averages
    /// cover `[warmup_end, now]`.
    pub fn finish_now(mut self) -> (Metrics, Vec<Decision>, R) {
        let end = self.engine.now();
        let mut decisions = Vec::new();
        self.sim.drain_decisions_into(&mut decisions);
        let (metrics, recorder) = self.sim.finish(end);
        (metrics, decisions, recorder)
    }
}

/// Draws a config's complete arrival process — every arrival in
/// `[0, warmup + measure]`, with its source, group, demand and holding
/// time — without running any admission. This is what `anycast record`
/// writes to a trace file; submitting the result to an [`OnlineEngine`]
/// reproduces the offline run bit-identically.
pub fn record_arrivals(config: &ExperimentConfig) -> Vec<OnlineArrival> {
    let mut stream = RunStreams::fork(config, &config.effective_groups()).arrivals;
    let horizon = SimTime::from_secs(config.warmup_secs + config.measure_secs);
    let mut out = Vec::new();
    loop {
        let (at, arrival) = stream.next();
        if at > horizon {
            return out;
        }
        out.push(OnlineArrival {
            at_secs: at.as_secs(),
            source_index: arrival.source_index,
            group_index: arrival.group_index,
            holding_secs: arrival.holding_secs,
            demand: arrival.demand,
        });
    }
}
