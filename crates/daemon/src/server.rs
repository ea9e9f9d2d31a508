//! The service loop: a long-lived DAC controller behind a TCP or Unix
//! socket, speaking the line-delimited JSON protocol of [`crate::wire`].
//!
//! One engine thread owns the [`OnlineEngine`] and all connection
//! writers; per-connection reader threads parse request lines (bounded at
//! [`MAX_LINE_BYTES`]) and feed them through a channel. Simulated time is
//! anchored to a rate-scaled [`WallClock`]: every tick the engine is
//! advanced to the clock's current instant, then finalised decisions are
//! routed back to the connections that asked for them — possibly out of
//! arrival order under asynchronous two-phase signalling, which is what
//! the `request` ids and correlation tokens are for.
//!
//! Between the wire and the engine sits the overload machinery of
//! [`crate::overload`]: admits wait in a bounded, per-connection-fair
//! [`AdmissionQueue`]; a hysteresis [`ShedController`] watches queue
//! depth and answers `overloaded` while the backlog is past its
//! watermarks. Tokens are journaled in a bounded
//! [`DecisionJournal`] so reconnecting clients can `resume` verdicts
//! they missed, with duplicate-submit idempotency.
//!
//! Graceful shutdown (SIGINT/SIGTERM, a `shutdown` request, or the
//! horizon): stop accepting, decide everything already due, reject every
//! queued-but-unserved admit with an explicit `shutting_down` line,
//! release every pending two-phase hold ([`Metrics::leaked_hold_bps`]
//! audits this to zero), flush the telemetry stream, and return the
//! final [`Metrics`] plus the service [`DaemonCounters`].

use crate::journal::{DecisionJournal, JournalEntry};
use crate::overload::{AdmissionQueue, OverloadOptions, QueuedAdmit, ShedController};
use crate::shutdown::{drain_unserved, signalled, ShutdownFlag};
use crate::wire::{
    decision_response, error_response, overloaded_response, parse_request, read_line_bounded,
    resumed_response, shutdown_rejection, shutdown_response, stats_response, torn_down_response,
    LineRead, Request, ServiceStats, WireError, MAX_LINE_BYTES,
};
use anycast_dac::experiment::{Decision, ExperimentConfig, Metrics};
use anycast_dac::online::{OnlineArrival, OnlineEngine};
use anycast_net::Topology;
use anycast_rsvp::SessionId;
use anycast_sim::{TimeSource, WallClock};
use anycast_telemetry::{
    Event, MetricKey, MetricsRegistry, NullRecorder, Recorder, StreamPolicy, StreamRecorder,
    DEFAULT_STREAM_CAPACITY,
};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:4730` (port 0 picks one).
    Tcp(String),
    /// A Unix-domain socket path (unlinked on bind and on exit).
    Unix(PathBuf),
}

/// Service knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Simulated seconds per real second (1.0 = real time).
    pub speed: f64,
    /// Engine tick: how long the loop waits for traffic before advancing
    /// the clock anyway (drives departures, timers, telemetry sampling).
    pub tick: Duration,
    /// Live telemetry: stream every event as JSONL to this path.
    pub telemetry: Option<PathBuf>,
    /// Full-channel policy for the telemetry stream. The default for a
    /// live service is [`StreamPolicy::DropNewest`]: a slow disk must not
    /// stall admission decisions; drops are counted, never silent.
    pub telemetry_policy: StreamPolicy,
    /// Rolling-window service mode: `Some(window_secs)` makes the run
    /// horizon effectively unbounded (the daemon serves until told to
    /// stop) and `stats` reports trailing-window admission counters over
    /// the last `window_secs` of simulated time. `None` keeps the
    /// configured finite horizon.
    pub window_secs: Option<f64>,
    /// Overload protection: queue, per-connection and journal bounds, the
    /// dispatch budget, and whether the shed controller runs (its
    /// watermarks follow the queue bound).
    pub overload: OverloadOptions,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            speed: 1.0,
            tick: Duration::from_millis(5),
            telemetry: None,
            telemetry_policy: StreamPolicy::DropNewest,
            window_secs: None,
            overload: OverloadOptions::default(),
        }
    }
}

/// Service-layer counters: what happened between the wire and the
/// engine. The accounting invariant, checked by the soak test, is
///
/// ```text
/// admits_received == submitted + shed + duplicates + rejected_shutdown
/// ```
///
/// — every validated admit is dispatched to the engine, refused with an
/// `overloaded` line, answered from the journal, or rejected at
/// shutdown. Nothing is dropped silently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonCounters {
    /// Well-formed admits that passed validation (including duplicates).
    pub admits_received: u64,
    /// Admits refused with an `overloaded` response (shed controller or
    /// hard queue bound).
    pub shed: u64,
    /// Duplicate-token submits answered from the journal.
    pub duplicates: u64,
    /// Queued admits rejected with `shutting_down` at drain.
    pub rejected_shutdown: u64,
    /// `resume` ops served.
    pub resumed: u64,
    /// Wire `teardown` ops that reclaimed a live session.
    pub torn_down: u64,
    /// Wire `teardown` ops for dead or unknown sessions (harmless).
    pub teardown_misses: u64,
    /// `error` responses sent (parse, unknown op, overlong line,
    /// out-of-range, horizon).
    pub wire_errors: u64,
    /// Journal entries evicted to stay within the bound.
    pub journal_evicted: u64,
    /// High-water mark of the admission queue.
    pub queue_peak: u64,
    /// High-water mark of the journal.
    pub journal_peak: u64,
    /// Times the shed controller engaged (excursions, not requests).
    pub shed_engaged: u64,
}

impl DaemonCounters {
    /// Exports the counters as a [`MetricsRegistry`] (counters for the
    /// monotone totals, high-water-mark gauges for the peaks) so daemon
    /// runs merge and render like any other telemetry source.
    pub fn to_registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        for (name, value) in [
            ("daemon_admits_received", self.admits_received),
            ("daemon_shed_total", self.shed),
            ("daemon_duplicates_total", self.duplicates),
            ("daemon_rejected_shutdown_total", self.rejected_shutdown),
            ("daemon_resumed_total", self.resumed),
            ("daemon_torn_down_total", self.torn_down),
            ("daemon_teardown_misses_total", self.teardown_misses),
            ("daemon_wire_errors_total", self.wire_errors),
            ("daemon_journal_evicted_total", self.journal_evicted),
            ("daemon_shed_engaged_total", self.shed_engaged),
        ] {
            reg.inc(MetricKey::plain(name), value as f64);
        }
        reg.set_gauge_max(
            MetricKey::plain("daemon_queue_peak"),
            self.queue_peak as f64,
        );
        reg.set_gauge_max(
            MetricKey::plain("daemon_journal_peak"),
            self.journal_peak as f64,
        );
        reg
    }
}

/// What a completed service run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// End-of-run metrics, closed at the instant the service stopped
    /// (holds drained, ledger audited).
    pub metrics: Metrics,
    /// Requests dispatched into the engine.
    pub submitted: u64,
    /// Decisions finalised and routed (some may have found their
    /// connection already gone).
    pub decided: u64,
    /// Telemetry lines written to the stream file (0 when telemetry off).
    pub telemetry_written: u64,
    /// Telemetry events dropped under backpressure (the
    /// `telemetry_dropped` metric; 0 when telemetry off).
    pub telemetry_dropped: u64,
    /// Service-layer accounting (shed, duplicates, errors, peaks).
    pub counters: DaemonCounters,
}

/// Either telemetry sink, behind one concrete type so the engine is not
/// generic over it at the service layer.
enum ServiceRecorder {
    Null(NullRecorder),
    Stream(StreamRecorder),
}

impl Recorder for ServiceRecorder {
    fn enabled(&self) -> bool {
        match self {
            ServiceRecorder::Null(r) => r.enabled(),
            ServiceRecorder::Stream(r) => r.enabled(),
        }
    }

    fn record(&mut self, time_secs: f64, event: Event) {
        match self {
            ServiceRecorder::Null(r) => r.record(time_secs, event),
            ServiceRecorder::Stream(r) => r.record(time_secs, event),
        }
    }

    fn link_sample_interval(&self) -> Option<f64> {
        match self {
            ServiceRecorder::Null(r) => r.link_sample_interval(),
            ServiceRecorder::Stream(r) => r.link_sample_interval(),
        }
    }
}

impl ServiceRecorder {
    fn dropped(&self) -> u64 {
        match self {
            ServiceRecorder::Null(_) => 0,
            ServiceRecorder::Stream(r) => r.dropped(),
        }
    }

    fn finish(self) -> io::Result<(u64, u64)> {
        match self {
            ServiceRecorder::Null(_) => Ok((0, 0)),
            ServiceRecorder::Stream(r) => {
                let dropped = r.dropped();
                Ok((r.finish()?, dropped))
            }
        }
    }
}

enum ListenerKind {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

enum StreamKind {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl StreamKind {
    fn split(self) -> io::Result<(Box<dyn BufRead + Send>, Box<dyn Write + Send>)> {
        match self {
            StreamKind::Tcp(s) => {
                let w = s.try_clone()?;
                Ok((Box::new(BufReader::new(s)), Box::new(ClosingWriter::Tcp(w))))
            }
            StreamKind::Unix(s) => {
                let w = s.try_clone()?;
                Ok((
                    Box::new(BufReader::new(s)),
                    Box::new(ClosingWriter::Unix(w)),
                ))
            }
        }
    }
}

/// Write half of a split connection. The reader half is a `try_clone`,
/// so merely dropping this handle would leave the socket open (and a
/// peer draining responses would block forever waiting for EOF).
/// Dropping the write half therefore shuts the whole socket down: the
/// peer sees EOF, and so does our own reader thread, which then exits.
enum ClosingWriter {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Write for ClosingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            ClosingWriter::Tcp(s) => s.write(buf),
            ClosingWriter::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            ClosingWriter::Tcp(s) => s.flush(),
            ClosingWriter::Unix(s) => s.flush(),
        }
    }
}

impl Drop for ClosingWriter {
    fn drop(&mut self) {
        let _ = match self {
            ClosingWriter::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            ClosingWriter::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

/// Messages from reader/accept threads into the engine thread.
enum Inbound {
    Connected(u64, Box<dyn Write + Send>),
    /// A parsed line and when the reader thread read it: the engine
    /// thread may not get to it for a whole dispatch batch, and that wait
    /// belongs in the `latency_us` the client is told.
    Request(u64, Request, Instant),
    /// A line that never became a request: the structured error plus the
    /// offending line (truncated by the reader) to echo back.
    Malformed(u64, WireError, String),
    Disconnected(u64),
}

/// Everything the engine thread owns besides the engine itself. Split
/// from the engine so methods can borrow both without fighting.
struct ServiceState {
    writers: HashMap<u64, Box<dyn Write + Send>>,
    /// request id -> delivery binding; ids are the engine's dense
    /// arrival counter, assigned in dispatch order.
    pending: HashMap<u64, PendingDecision>,
    queue: AdmissionQueue,
    shed: ShedController,
    shed_enabled: bool,
    journal: DecisionJournal,
    counters: DaemonCounters,
    admit_spin: Duration,
    submitted: u64,
    decided: u64,
}

struct PendingDecision {
    conn: u64,
    token: Option<String>,
    since: Instant,
}

impl ServiceState {
    fn respond(&mut self, conn: u64, line: &str) {
        let gone = match self.writers.get_mut(&conn) {
            Some(w) => w
                .write_all(line.as_bytes())
                .and_then(|()| w.write_all(b"\n"))
                .and_then(|()| w.flush())
                .is_err(),
            None => false,
        };
        if gone {
            self.writers.remove(&conn);
        }
    }

    fn send_error(&mut self, conn: u64, err: &WireError, line: &str) {
        self.counters.wire_errors += 1;
        let rendered = error_response(err, line);
        self.respond(conn, &rendered);
    }

    /// One admit line, already parsed and range-validated: journal
    /// idempotency, shed control, then the bounded queue.
    #[allow(clippy::too_many_arguments)]
    fn handle_admit(
        &mut self,
        conn: u64,
        source_index: usize,
        group_index: usize,
        demand: anycast_net::Bandwidth,
        holding_secs: f64,
        token: Option<String>,
        received: Instant,
    ) {
        self.counters.admits_received += 1;

        // Duplicate-submit idempotency: a token the journal knows is
        // answered from the journal, never re-decided — even while
        // shedding, so a retrying client cannot double-spend capacity.
        if let Some(t) = token.as_deref() {
            match self.journal.get(t) {
                Some(JournalEntry::Decided { line }) => {
                    let line = line.clone();
                    self.counters.duplicates += 1;
                    self.respond(conn, &line);
                    return;
                }
                Some(JournalEntry::Queued { .. }) => {
                    self.journal.rebind_queued(t, conn);
                    self.counters.duplicates += 1;
                    let line = resumed_response(t, "pending");
                    self.respond(conn, &line);
                    return;
                }
                Some(JournalEntry::Dispatched { request }) => {
                    let request = *request;
                    if let Some(p) = self.pending.get_mut(&request) {
                        p.conn = conn;
                    }
                    self.counters.duplicates += 1;
                    let line = resumed_response(t, "pending");
                    self.respond(conn, &line);
                    return;
                }
                None => {}
            }
        }

        if self.shed_enabled && self.shed.is_shedding() {
            self.counters.shed += 1;
            let line = overloaded_response(token.as_deref(), self.queue.len(), true);
            self.respond(conn, &line);
            return;
        }
        let item = QueuedAdmit {
            conn,
            token: token.clone(),
            source_index,
            group_index,
            demand,
            holding_secs,
            received,
        };
        match self.queue.push(item) {
            Ok(()) => {
                let depth = self.queue.len() as u64;
                self.counters.queue_peak = self.counters.queue_peak.max(depth);
            }
            Err((item, _refusal)) => {
                self.counters.shed += 1;
                let line = overloaded_response(item.token.as_deref(), self.queue.len(), false);
                self.respond(item.conn, &line);
                return;
            }
        }
        // Journal only after the push succeeded, so a shed admit's token
        // stays unknown (the client must retry it as a fresh request).
        if let Some(t) = token.as_deref() {
            self.journal.enqueue(t, conn);
            self.counters.journal_peak = self.counters.journal_peak.max(self.journal.len() as u64);
            self.counters.journal_evicted = self.journal.evicted();
        }
    }

    /// Debug builds check the accounting identity of [`DaemonCounters`]
    /// after every event, counting the admits still queued: each
    /// validated admit is dispatched, queued, shed, a duplicate, or
    /// rejected at shutdown.
    fn debug_assert_accounting(&self) {
        debug_assert_eq!(
            self.counters.admits_received,
            self.submitted
                + self.queue.len() as u64
                + self.counters.shed
                + self.counters.duplicates
                + self.counters.rejected_shutdown,
            "daemon request accounting out of balance: {:?}",
            self.counters
        );
    }

    /// Fairly dispatches up to `budget` queued admits into the engine.
    fn dispatch(
        &mut self,
        engine: &mut OnlineEngine<ServiceRecorder>,
        clock: &mut WallClock,
        budget: usize,
    ) {
        for _ in 0..budget {
            let Some(item) = self.queue.pop() else { break };
            let horizon = engine.horizon();
            let at = clock.now().max(engine.now()).min(horizon);
            engine.submit(OnlineArrival {
                at_secs: at.as_secs(),
                source_index: item.source_index,
                group_index: item.group_index,
                holding_secs: item.holding_secs,
                demand: item.demand,
            });
            if !self.admit_spin.is_zero() {
                // The benchmark's synthetic decision cost: burn wall
                // clock on the engine thread, as a heavier policy would.
                let until = Instant::now() + self.admit_spin;
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            }
            // A resume/duplicate may have rebound the token to a newer
            // connection while it sat queued; the journal's binding wins.
            let conn = item
                .token
                .as_deref()
                .and_then(|t| self.journal.dispatch(t, self.submitted))
                .unwrap_or(item.conn);
            self.pending.insert(
                self.submitted,
                PendingDecision {
                    conn,
                    token: item.token,
                    since: item.received,
                },
            );
            self.submitted += 1;
        }
    }

    /// Routes finalised decisions back to their connections, journaling
    /// tokened ones.
    fn route(&mut self, decisions: Vec<Decision>) {
        for d in decisions {
            self.decided += 1;
            if let Some(p) = self.pending.remove(&d.request) {
                let latency_us = p.since.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                let line = decision_response(&d, latency_us, p.token.as_deref());
                self.respond(p.conn, &line);
                if let Some(t) = p.token.as_deref() {
                    self.journal.decide(t, line);
                }
            }
        }
    }

    fn service_stats(&self) -> ServiceStats {
        ServiceStats {
            queue_depth: self.queue.len(),
            queue_limit: self.queue.limit(),
            shed: self.counters.shed,
            shedding: self.shed.is_shedding(),
            journal_size: self.journal.len(),
            duplicates: self.counters.duplicates,
            resumed: self.counters.resumed,
            torn_down: self.counters.torn_down,
            wire_errors: self.counters.wire_errors,
        }
    }
}

/// A daemon bound to its endpoint but not yet serving — split so tests
/// (and the CLI) can learn an ephemeral port before the loop starts.
pub struct BoundServer {
    listener: ListenerKind,
}

impl BoundServer {
    /// Binds the endpoint. A Unix path is unlinked first if present.
    ///
    /// # Errors
    ///
    /// Any bind error.
    pub fn bind(endpoint: &Endpoint) -> io::Result<Self> {
        let listener = match endpoint {
            Endpoint::Tcp(addr) => ListenerKind::Tcp(TcpListener::bind(addr)?),
            Endpoint::Unix(path) => {
                let _ = std::fs::remove_file(path);
                ListenerKind::Unix(UnixListener::bind(path)?, path.clone())
            }
        };
        Ok(BoundServer { listener })
    }

    /// The bound TCP address (None for Unix endpoints).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match &self.listener {
            ListenerKind::Tcp(l) => l.local_addr().ok(),
            ListenerKind::Unix(..) => None,
        }
    }

    /// Runs the service loop until shutdown (signal, wire request, or —
    /// outside rolling mode — the config horizon) and returns the final
    /// report.
    ///
    /// # Errors
    ///
    /// Listener/telemetry I/O errors. Per-connection errors only drop
    /// that connection.
    pub fn run(
        self,
        topo: &Topology,
        config: &ExperimentConfig,
        options: &ServeOptions,
        shutdown: ShutdownFlag,
    ) -> io::Result<ServeReport> {
        let recorder = match &options.telemetry {
            None => ServiceRecorder::Null(NullRecorder),
            Some(path) => ServiceRecorder::Stream(
                StreamRecorder::create(path, config.seed, DEFAULT_STREAM_CAPACITY)?
                    .with_policy(options.telemetry_policy),
            ),
        };
        let mut engine = OnlineEngine::new(topo, config, recorder);
        if let Some(window_secs) = options.window_secs {
            engine.enable_rolling(window_secs);
        }
        let horizon = engine.horizon();
        let rolling = engine.is_rolling();
        let mut clock = WallClock::new(options.speed);

        let (tx, rx) = channel::<Inbound>();
        let accept_handle = spawn_acceptor(self.listener, tx, shutdown.clone());

        let ov = &options.overload;
        let mut state = ServiceState {
            writers: HashMap::new(),
            pending: HashMap::new(),
            queue: AdmissionQueue::new(ov.queue_limit, ov.per_conn_limit),
            shed: ShedController::new(ov.queue_limit),
            shed_enabled: ov.shed,
            journal: DecisionJournal::new(ov.journal_limit),
            counters: DaemonCounters::default(),
            admit_spin: ov.admit_spin,
            submitted: 0,
            decided: 0,
        };

        loop {
            // Wait up to one tick for traffic, then drain whatever else
            // already arrived so a burst is seen whole before dispatch.
            match rx.recv_timeout(options.tick) {
                Ok(msg) => {
                    handle_inbound(&mut state, &mut engine, &mut clock, &shutdown, rolling, msg);
                    state.debug_assert_accounting();
                    while let Ok(msg) = rx.try_recv() {
                        handle_inbound(
                            &mut state,
                            &mut engine,
                            &mut clock,
                            &shutdown,
                            rolling,
                            msg,
                        );
                        state.debug_assert_accounting();
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }

            // The shed controller reads the backlog *before* dispatch:
            // that is the queueing the next admit would join. Post-
            // dispatch the queue is transiently empty every tick and
            // depth-based shedding would never see overload.
            state.shed.update(state.queue.len());
            state.counters.shed_engaged = state.shed.times_engaged();
            state.dispatch(&mut engine, &mut clock, ov.dispatch_per_tick);
            state.debug_assert_accounting();
            let now = clock.now();
            let decisions = engine.advance_to(now);
            state.route(decisions);

            if shutdown.is_requested() || signalled() || (!rolling && engine.now() >= horizon) {
                break;
            }
        }
        shutdown.request(); // stops the acceptor whatever ended the loop

        // Graceful drain, in three moves. (1) Reject every
        // queued-but-unserved admit explicitly — the engine is stopping
        // and will not decide them.
        for item in drain_unserved(&mut state.queue) {
            state.counters.rejected_shutdown += 1;
            if let Some(t) = item.token.as_deref() {
                state.journal.forget(t);
            }
            let line = shutdown_rejection(item.token.as_deref());
            state.respond(item.conn, &line);
        }
        state.debug_assert_accounting();
        // (2) Decide everything already dispatched and due.
        let decisions = engine.advance_to(clock.now());
        state.route(decisions);
        // (3) Close the run where it stands — finish_now() releases
        // every pending two-phase hold and audits the ledger.
        let (metrics, tail, recorder) = engine.finish_now();
        state.route(tail);
        state.counters.journal_evicted = state.journal.evicted();
        let ServiceState {
            writers,
            counters,
            submitted,
            decided,
            ..
        } = state;
        drop(writers);
        let (telemetry_written, telemetry_dropped) = recorder.finish()?;
        let _ = accept_handle.join();

        Ok(ServeReport {
            metrics,
            submitted,
            decided,
            telemetry_written,
            telemetry_dropped,
            counters,
        })
    }
}

/// One channel message against the service state. Free function (not a
/// method) so the engine and clock borrow independently of `state`.
fn handle_inbound(
    state: &mut ServiceState,
    engine: &mut OnlineEngine<ServiceRecorder>,
    clock: &mut WallClock,
    shutdown: &ShutdownFlag,
    rolling: bool,
    msg: Inbound,
) {
    match msg {
        Inbound::Connected(conn, writer) => {
            state.writers.insert(conn, writer);
        }
        Inbound::Disconnected(conn) => {
            state.writers.remove(&conn);
        }
        Inbound::Malformed(conn, err, line) => {
            state.send_error(conn, &err, &line);
        }
        Inbound::Request(conn, request, received) => match request {
            Request::Admit {
                source_index,
                group_index,
                demand,
                holding_secs,
                token,
            } => {
                if source_index >= engine.source_count() || group_index >= engine.group_count() {
                    let err = WireError {
                        reason: "out_of_range",
                        message: format!(
                            "source/group out of range (< {} / < {})",
                            engine.source_count(),
                            engine.group_count()
                        ),
                    };
                    state.send_error(conn, &err, "");
                } else if !rolling && clock.now() > engine.horizon() {
                    let err = WireError {
                        reason: "horizon_reached",
                        message: "daemon horizon reached; request not admitted".into(),
                    };
                    state.send_error(conn, &err, "");
                } else if shutdown.is_requested() {
                    state.counters.admits_received += 1;
                    state.counters.rejected_shutdown += 1;
                    let line = shutdown_rejection(token.as_deref());
                    state.respond(conn, &line);
                } else {
                    state.handle_admit(
                        conn,
                        source_index,
                        group_index,
                        demand,
                        holding_secs,
                        token,
                        received,
                    );
                }
            }
            Request::Teardown { session } => {
                let reclaimed = engine.teardown(SessionId::from_raw(session));
                if reclaimed {
                    state.counters.torn_down += 1;
                } else {
                    state.counters.teardown_misses += 1;
                }
                let line = torn_down_response(session, reclaimed);
                state.respond(conn, &line);
            }
            Request::Resume { token } => {
                state.counters.resumed += 1;
                let line = match state.journal.get(&token) {
                    Some(JournalEntry::Decided { line }) => line.clone(),
                    Some(JournalEntry::Queued { .. }) => {
                        state.journal.rebind_queued(&token, conn);
                        resumed_response(&token, "pending")
                    }
                    Some(JournalEntry::Dispatched { request }) => {
                        let request = *request;
                        if let Some(p) = state.pending.get_mut(&request) {
                            p.conn = conn;
                        }
                        resumed_response(&token, "pending")
                    }
                    None => resumed_response(&token, "unknown"),
                };
                state.respond(conn, &line);
            }
            Request::Stats => {
                // Answer after everything the client sent before this
                // line has reached the engine: flush the current backlog
                // and process its arrival events so freshly submitted
                // setups are visible in the snapshot as in-flight.
                let backlog = state.queue.len();
                state.dispatch(engine, clock, backlog);
                let tail = engine.pump();
                state.route(tail);
                let snapshot = engine.snapshot();
                let stats = state.service_stats();
                let line = stats_response(&snapshot, engine.recorder().dropped(), &stats);
                state.respond(conn, &line);
            }
            Request::Shutdown => {
                let line = shutdown_response();
                state.respond(conn, &line);
                shutdown.request();
            }
        },
    }
}

/// Accepts connections until shutdown, spawning one reader thread per
/// connection. Non-blocking accept polled at 20 Hz so the flag is
/// honoured promptly.
fn spawn_acceptor(
    listener: ListenerKind,
    tx: Sender<Inbound>,
    shutdown: ShutdownFlag,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let unix_path = match &listener {
            ListenerKind::Unix(l, path) => {
                let _ = l.set_nonblocking(true);
                Some(path.clone())
            }
            ListenerKind::Tcp(l) => {
                let _ = l.set_nonblocking(true);
                None
            }
        };
        let mut next_conn: u64 = 0;
        while !shutdown.is_requested() && !signalled() {
            let accepted = match &listener {
                ListenerKind::Tcp(l) => match l.accept() {
                    Ok((s, _)) => Some(StreamKind::Tcp(s)),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                    Err(_) => None,
                },
                ListenerKind::Unix(l, _) => match l.accept() {
                    Ok((s, _)) => Some(StreamKind::Unix(s)),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                    Err(_) => None,
                },
            };
            match accepted {
                None => std::thread::sleep(Duration::from_millis(50)),
                Some(stream) => {
                    let conn = next_conn;
                    next_conn += 1;
                    let Ok((mut reader, writer)) = stream.split() else {
                        continue;
                    };
                    if tx.send(Inbound::Connected(conn, writer)).is_err() {
                        break;
                    }
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        loop {
                            let msg = match read_line_bounded(&mut *reader, MAX_LINE_BYTES) {
                                Err(_) | Ok(LineRead::Eof) => break,
                                Ok(LineRead::Overlong { echo, len }) => Inbound::Malformed(
                                    conn,
                                    WireError {
                                        reason: "line_too_long",
                                        message: format!(
                                            "line of {len} bytes exceeds the \
                                             {MAX_LINE_BYTES}-byte limit"
                                        ),
                                    },
                                    echo,
                                ),
                                Ok(LineRead::Line(line)) => {
                                    if line.trim().is_empty() {
                                        continue;
                                    }
                                    let received = Instant::now();
                                    match parse_request(&line) {
                                        Ok(req) => Inbound::Request(conn, req, received),
                                        Err(e) => Inbound::Malformed(conn, e, line),
                                    }
                                }
                            };
                            if tx.send(msg).is_err() {
                                break;
                            }
                        }
                        let _ = tx.send(Inbound::Disconnected(conn));
                    });
                }
            }
        }
        if let Some(path) = unix_path {
            let _ = std::fs::remove_file(path);
        }
    })
}
