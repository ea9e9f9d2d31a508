//! The daemon's wire protocol: line-delimited JSON over TCP or a Unix
//! socket.
//!
//! Each client line is one request object; each response is one line.
//! Requests:
//!
//! ```text
//! {"op":"admit","source":2,"group":0,"demand_bps":64000,"holding_secs":120,"token":"c1-r0"}
//! {"op":"teardown","session":17}
//! {"op":"resume","token":"c1-r0"}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! Responses:
//!
//! | request | response |
//! |---------|----------|
//! | `admit` | `{"op":"decision","request":<id>,"token":<str or null>,"at":<sim secs>,"admitted":<bool>,"member":<idx or null>,"session":<raw id or null>,"tries":<n>,"latency_us":<wall μs>}` — or `{"op":"overloaded",...}` when shed |
//! | `teardown` | `{"op":"torn_down","session":<id>,"reclaimed":<bool>}` (`false` for dead/unknown sessions: duplicate and late teardowns are harmless) |
//! | `resume` | the journaled `decision` line if decided; else `{"op":"resumed","token":…,"state":"pending"\|"unknown"}` |
//! | `stats` | `{"op":"stats",…}` — engine snapshot plus queue/shed/journal/window counters |
//! | `shutdown` | `{"op":"shutting_down"}` then a graceful drain; queued-but-unserved admits each get `{"op":"shutting_down","token":…,"rejected":true}` |
//! | malformed | `{"op":"error","reason":<code>,"message":…,"line":<echo>}` (the connection stays open) |
//!
//! Error `reason` codes: `parse` (bad JSON or field values), `unknown_op`,
//! `line_too_long` (the [`MAX_LINE_BYTES`] guard), `out_of_range`
//! (source/group index), `horizon_reached` (fixed-horizon service only).
//!
//! Request ids are the engine's dense per-run arrival counter, assigned
//! in dispatch order — under asynchronous two-phase signalling a decision
//! line may arrive *after* later requests' lines. Clients that need to
//! survive a TCP reset should send a `token` (≤ `MAX_TOKEN_BYTES`
//! bytes, unique per request): the daemon journals the verdict under the
//! token, duplicate submits are idempotent, and `resume` on a fresh
//! connection re-delivers it. `state:"unknown"` says the journal holds no
//! such token at that instant — never sent, shed, evicted, or not seen
//! *yet*: connections are read by separate threads, so a `resume` on a
//! new connection can overtake admits still buffered on the old one. The
//! client resubmits the admit, which is idempotent whichever it was.
//! `latency_us` is wall-clock time from the reader thread reading the
//! line to the decision, so it includes the wait for the engine thread.
//!
//! Both directions are flat: a request line is read in one pass that
//! keeps the handful of members the protocol knows (first occurrence of a
//! key wins, other keys are checked as JSON and skipped), and a response
//! is written member by member into the one buffer that is sent. No line
//! becomes a tree of JSON values; the tree codec this replaced is the test
//! module's oracle.

use anycast_dac::experiment::{Decision, ServiceSnapshot};
use anycast_net::Bandwidth;
use anycast_rsvp::SessionId;
use anycast_telemetry::json::{scan_object, write_num, write_str, write_uint, Scalar};
use std::io::{self, BufRead};

/// Hard cap on one request line. Anything longer draws a
/// `line_too_long` error and is discarded without ever being buffered
/// whole, so a hostile writer cannot balloon the reader's memory.
pub const MAX_LINE_BYTES: usize = 8 * 1024;

/// Hard cap on a correlation token.
pub(crate) const MAX_TOKEN_BYTES: usize = 64;

/// How much of an offending line an `error` response echoes back.
const ECHO_BYTES: usize = 120;

/// A structured protocol error: a machine-readable reason code plus a
/// human-readable message. The server echoes the offending line alongside.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Machine-readable reason code (`parse`, `unknown_op`,
    /// `line_too_long`, `out_of_range`, `horizon_reached`).
    pub(crate) reason: &'static str,
    /// Human-readable detail.
    pub(crate) message: String,
}

impl WireError {
    /// A `parse` error.
    pub(crate) fn parse(message: impl Into<String>) -> Self {
        WireError {
            reason: "parse",
            message: message.into(),
        }
    }
}

/// One parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit one flow for admission.
    Admit {
        /// Index into the config's source list.
        source_index: usize,
        /// Index into the config's effective groups.
        group_index: usize,
        /// Requested bandwidth.
        demand: Bandwidth,
        /// Flow holding time, seconds.
        holding_secs: f64,
        /// Client-supplied correlation token for reconnect-safe delivery.
        token: Option<String>,
    },
    /// Tear down an admitted session before its holding time expires.
    Teardown {
        /// The raw session id from the admitting `decision` line.
        session: u64,
    },
    /// Retrieve the verdict journaled under a correlation token.
    Resume {
        /// The token the original `admit` carried.
        token: String,
    },
    /// Ask for an operational snapshot.
    Stats,
    /// Ask the daemon to drain and exit gracefully.
    Shutdown,
}

/// The members a request line can carry, each as first seen on the line:
/// a repeated key does not override an earlier one.
#[derive(Default)]
struct Fields<'a> {
    op: Option<Scalar<'a>>,
    source: Option<Scalar<'a>>,
    group: Option<Scalar<'a>>,
    demand_bps: Option<Scalar<'a>>,
    holding_secs: Option<Scalar<'a>>,
    token: Option<Scalar<'a>>,
    session: Option<Scalar<'a>>,
}

fn num_field(slot: &Option<Scalar>, key: &str) -> Result<f64, WireError> {
    match slot {
        Some(Scalar::Num(x)) => Ok(*x),
        Some(_) => Err(WireError::parse(format!("field `{key}` is not a number"))),
        None => Err(WireError::parse(format!("missing field `{key}`"))),
    }
}

fn index_field(slot: &Option<Scalar>, key: &str) -> Result<u64, WireError> {
    let x = num_field(slot, key)?;
    if x.fract() != 0.0 || x < 0.0 {
        return Err(WireError::parse(format!(
            "field `{key}` must be a nonnegative integer, got {x}"
        )));
    }
    Ok(x as u64)
}

fn token_field(slot: Option<Scalar>) -> Result<Option<String>, WireError> {
    match slot {
        None | Some(Scalar::Null) => Ok(None),
        Some(Scalar::Str(s)) => {
            if s.is_empty() || s.len() > MAX_TOKEN_BYTES {
                return Err(WireError::parse(format!(
                    "token must be 1..={MAX_TOKEN_BYTES} bytes, got {}",
                    s.len()
                )));
            }
            Ok(Some(s.into_owned()))
        }
        Some(_) => Err(WireError::parse("field `token` is not a string")),
    }
}

/// Parses one request line in one pass over its bytes; a well-formed
/// line allocates its token and nothing else.
///
/// # Errors
///
/// A [`WireError`] with reason `parse` (JSON syntax, missing/invalid
/// fields) or `unknown_op`, suitable for `error_response`.
pub fn parse_request(line: &str) -> Result<Request, WireError> {
    let mut f = Fields::default();
    scan_object(line.trim(), |key, value| {
        let slot = match key {
            "op" => &mut f.op,
            "source" => &mut f.source,
            "group" => &mut f.group,
            "demand_bps" => &mut f.demand_bps,
            "holding_secs" => &mut f.holding_secs,
            "token" => &mut f.token,
            "session" => &mut f.session,
            _ => return,
        };
        slot.get_or_insert(value);
    })
    .map_err(WireError::parse)?;
    let op = match &f.op {
        Some(Scalar::Str(s)) => &**s,
        _ => return Err(WireError::parse("missing string field `op`")),
    };
    match op {
        "admit" => {
            let holding_secs = num_field(&f.holding_secs, "holding_secs")?;
            if !(holding_secs.is_finite() && holding_secs > 0.0) {
                return Err(WireError::parse(format!(
                    "holding_secs must be positive, got {holding_secs}"
                )));
            }
            let demand_bps = num_field(&f.demand_bps, "demand_bps")?;
            if !(demand_bps.is_finite() && demand_bps >= 1.0) {
                return Err(WireError::parse(format!(
                    "demand_bps must be at least 1, got {demand_bps}"
                )));
            }
            Ok(Request::Admit {
                source_index: index_field(&f.source, "source")? as usize,
                group_index: index_field(&f.group, "group")? as usize,
                demand: Bandwidth::from_bps(demand_bps as u64),
                holding_secs,
                token: token_field(f.token)?,
            })
        }
        "teardown" => Ok(Request::Teardown {
            session: index_field(&f.session, "session")?,
        }),
        "resume" => match token_field(f.token)? {
            Some(token) => Ok(Request::Resume { token }),
            None => Err(WireError::parse("resume requires a `token`")),
        },
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(WireError {
            reason: "unknown_op",
            message: format!("unknown op `{other}`"),
        }),
    }
}

/// One response line under construction: `{"op":<op>` and then members
/// appended in call order, straight into the one buffer that is sent.
/// Member names are this file's own literals and need no escaping.
struct Line(String);

impl Line {
    /// `capacity` is the caller's estimate of the finished line; an
    /// underestimate costs a reallocation, nothing else.
    fn new(op: &str, capacity: usize) -> Self {
        let mut out = String::with_capacity(capacity);
        out.push_str("{\"op\":\"");
        out.push_str(op);
        out.push('"');
        Line(out)
    }

    fn key(&mut self, name: &str) -> &mut String {
        self.0.push_str(",\"");
        self.0.push_str(name);
        self.0.push_str("\":");
        &mut self.0
    }

    fn uint(&mut self, name: &str, n: u64) {
        write_uint(self.key(name), n);
    }

    fn opt_uint(&mut self, name: &str, n: Option<u64>) {
        match n {
            Some(n) => self.uint(name, n),
            None => self.key(name).push_str("null"),
        }
    }

    fn num(&mut self, name: &str, x: f64) {
        write_num(self.key(name), x);
    }

    fn bool(&mut self, name: &str, b: bool) {
        self.key(name).push_str(if b { "true" } else { "false" });
    }

    fn str(&mut self, name: &str, s: &str) {
        write_str(self.key(name), s);
    }

    fn opt_str(&mut self, name: &str, s: Option<&str>) {
        match s {
            Some(s) => self.str(name, s),
            None => self.key(name).push_str("null"),
        }
    }

    fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

/// Room for a `decision` line whatever its numbers (four `u64`s, a `u32`,
/// a shortest-round-trip `f64`), the token aside.
const DECISION_BYTES: usize = 224;

/// Renders a `decision` response line (no trailing newline).
pub fn decision_response(d: &Decision, latency_us: u64, token: Option<&str>) -> String {
    let mut line = Line::new("decision", DECISION_BYTES + token.map_or(0, str::len));
    line.uint("request", d.request);
    line.opt_str("token", token);
    line.num("at", d.at_secs);
    line.bool("admitted", d.admitted);
    line.opt_uint("member", d.member_index.map(|m| m as u64));
    line.opt_uint("session", d.session.map(|s| s.raw()));
    line.uint("tries", d.tries.into());
    line.uint("latency_us", latency_us);
    line.finish()
}

/// Reads back a line [`decision_response`] rendered: the decision and its
/// `latency_us`, the token skipped. `None` for any other line, or one
/// whose `admitted`, `member` and `session` disagree. Allocates nothing.
pub(crate) fn parse_decision(line: &str) -> Option<(Decision, u64)> {
    let rest = line
        .strip_prefix("{\"op\":\"decision\",\"request\":")?
        .strip_suffix('}')?;
    let (request, rest) = rest.split_once(',')?;
    // The token may hold any character; the six members after it hold no
    // comma, so they are read from the end.
    let mut members = rest.rsplitn(7, ',');
    let mut value = |name: &str| {
        let member = members.next()?.strip_prefix('"')?.strip_prefix(name)?;
        member.strip_prefix("\":")
    };
    let uint = |text: &str| -> Option<Option<u64>> {
        match text {
            "null" => Some(None),
            n => n.parse().ok().map(Some),
        }
    };
    let latency_us = value("latency_us")?.parse().ok()?;
    let tries = value("tries")?.parse().ok()?;
    let session = uint(value("session")?)?;
    let member_index = uint(value("member")?)?;
    let admitted = match value("admitted")? {
        "true" => true,
        "false" => false,
        _ => return None,
    };
    let at_secs = match value("at")? {
        "null" => f64::NAN,
        x => x.parse().ok()?,
    };
    value("token")?;
    if member_index.is_some() != admitted || session.is_some() != admitted {
        return None;
    }
    let decision = Decision {
        request: request.parse().ok()?,
        at_secs,
        admitted,
        member_index: member_index.map(usize::try_from).transpose().ok()?,
        session: session.map(SessionId::from_raw),
        tries,
    };
    Some((decision, latency_us))
}

/// Daemon-side service counters folded into the `stats` response, next to
/// the engine's [`ServiceSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServiceStats {
    /// Admits currently waiting in the admission queue.
    pub(crate) queue_depth: usize,
    /// The queue's hard bound.
    pub(crate) queue_limit: usize,
    /// Admits refused with an `overloaded` response so far.
    pub(crate) shed: u64,
    /// Whether the hysteresis shed controller is currently engaged.
    pub(crate) shedding: bool,
    /// Tokens currently held in the decision journal.
    pub(crate) journal_size: usize,
    /// Duplicate submits answered from the journal.
    pub(crate) duplicates: u64,
    /// `resume` ops served.
    pub(crate) resumed: u64,
    /// Wire `teardown` ops that reclaimed a live session.
    pub(crate) torn_down: u64,
    /// `error` responses sent.
    pub(crate) wire_errors: u64,
}

/// Renders a `stats` response line (no trailing newline).
/// `telemetry_dropped` is the stream recorder's drop counter (0 when
/// telemetry is off or lossless).
pub(crate) fn stats_response(
    s: &ServiceSnapshot,
    telemetry_dropped: u64,
    d: &ServiceStats,
) -> String {
    let mut line = Line::new("stats", 768);
    line.num("time_secs", s.time_secs);
    line.uint("offered", s.offered);
    line.uint("admitted", s.admitted);
    line.uint("rejected", s.rejected);
    line.uint("active_sessions", s.active_sessions as u64);
    line.uint("reserved_bps", s.reserved_bps);
    line.uint("pending_hold_bps", s.pending_hold_bps);
    line.uint("capacity_bps", s.capacity_bps);
    line.uint("setups_in_flight", s.setups_in_flight as u64);
    line.uint("links", s.links as u64);
    line.uint("failed_links", s.failed_links as u64);
    line.uint("telemetry_dropped", telemetry_dropped);
    line.num("window_secs", s.window_secs);
    line.uint("window_offered", s.window_offered);
    line.uint("window_admitted", s.window_admitted);
    line.uint("window_rejected", s.window_rejected);
    line.uint("queue_depth", d.queue_depth as u64);
    line.uint("queue_limit", d.queue_limit as u64);
    line.uint("shed", d.shed);
    line.bool("shedding", d.shedding);
    line.uint("journal_size", d.journal_size as u64);
    line.uint("duplicates", d.duplicates);
    line.uint("resumed", d.resumed);
    line.uint("torn_down", d.torn_down);
    line.uint("wire_errors", d.wire_errors);
    line.finish()
}

/// Renders an `error` response line (no trailing newline): the reason
/// code, the message, and the offending line echoed back (truncated to
/// [`ECHO_BYTES`] on a character boundary).
pub(crate) fn error_response(err: &WireError, line: &str) -> String {
    let mut echo = line.trim();
    if echo.len() > ECHO_BYTES {
        let mut cut = ECHO_BYTES;
        while !echo.is_char_boundary(cut) {
            cut -= 1;
        }
        echo = &echo[..cut];
    }
    let mut line = Line::new("error", 64 + err.message.len() + echo.len());
    line.str("reason", err.reason);
    line.str("message", &err.message);
    line.str("line", echo);
    line.finish()
}

/// Renders an `overloaded` response line (no trailing newline): the admit
/// was shed, never enqueued, and will get no decision. `shedding` tells
/// the client whether the hysteresis controller (vs. the hard queue
/// bound) refused it.
pub(crate) fn overloaded_response(
    token: Option<&str>,
    queue_depth: usize,
    shedding: bool,
) -> String {
    let mut line = Line::new("overloaded", 96 + token.map_or(0, str::len));
    line.opt_str("token", token);
    line.uint("queue_depth", queue_depth as u64);
    line.bool("shedding", shedding);
    line.finish()
}

/// Renders a `torn_down` response line (no trailing newline).
/// `reclaimed` is `false` when the session was not live — already torn
/// down, departed, or never issued; duplicate teardowns are harmless.
pub(crate) fn torn_down_response(session: u64, reclaimed: bool) -> String {
    let mut line = Line::new("torn_down", 72);
    line.uint("session", session);
    line.bool("reclaimed", reclaimed);
    line.finish()
}

/// Renders a `resumed` status line (no trailing newline) for a token
/// whose verdict is not yet (or no longer) in the journal: `state` is
/// `pending` (still queued or in flight — the decision will be delivered
/// to *this* connection) or `unknown` (not seen — at least not yet — or
/// evicted).
pub(crate) fn resumed_response(token: &str, state: &str) -> String {
    let mut line = Line::new("resumed", 48 + token.len() + state.len());
    line.str("token", token);
    line.str("state", state);
    line.finish()
}

/// Renders the `shutting_down` acknowledgement line (no trailing newline).
pub(crate) fn shutdown_response() -> String {
    Line::new("shutting_down", 24).finish()
}

/// Renders the `shutting_down` rejection line (no trailing newline) sent
/// to each queued-but-unserved admit when the daemon drains its admission
/// queue at shutdown: the request was *not* decided and must be retried
/// elsewhere.
pub(crate) fn shutdown_rejection(token: Option<&str>) -> String {
    let mut line = Line::new("shutting_down", 56 + token.map_or(0, str::len));
    line.opt_str("token", token);
    line.bool("rejected", true);
    line.finish()
}

/// One line read by [`read_line_bounded`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum LineRead {
    /// End of stream with no pending bytes.
    Eof,
    /// A complete line (without its newline; possibly the unterminated
    /// tail of the stream).
    Line(String),
    /// A line longer than the limit: `echo` is its (truncated) head,
    /// `len` the total bytes discarded. The stream is positioned after
    /// the line's newline.
    Overlong {
        /// Truncated head of the discarded line, for the error echo.
        echo: String,
        /// Total bytes the line held (excluding the newline).
        len: usize,
    },
}

/// Reads one `\n`-terminated line, buffering at most `max_bytes` of it.
/// A longer line is consumed and discarded — the reader never holds more
/// than `max_bytes` in memory, whatever a hostile client streams.
///
/// # Errors
///
/// Propagates I/O errors from the underlying reader.
pub(crate) fn read_line_bounded<R: BufRead + ?Sized>(
    reader: &mut R,
    max_bytes: usize,
) -> io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    let mut len = 0usize;
    let mut terminated = false;
    loop {
        let (consumed, done) = {
            let chunk = match reader.fill_buf() {
                Ok(c) => c,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if chunk.is_empty() {
                (0, true)
            } else {
                let newline = chunk.iter().position(|&b| b == b'\n');
                let part = &chunk[..newline.unwrap_or(chunk.len())];
                len += part.len();
                // Keep at most max_bytes buffered; the rest of an
                // overlong line is counted and dropped.
                let room = max_bytes.saturating_sub(buf.len());
                buf.extend_from_slice(&part[..part.len().min(room)]);
                terminated = newline.is_some();
                (
                    part.len() + usize::from(newline.is_some()),
                    newline.is_some(),
                )
            }
        };
        reader.consume(consumed);
        if done {
            break;
        }
    }
    if len == 0 && !terminated {
        return Ok(LineRead::Eof);
    }
    // A valid line keeps the buffer it was read into.
    let text = String::from_utf8(buf)
        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
    if len > max_bytes {
        let mut echo = text;
        let mut cut = echo.len().min(ECHO_BYTES);
        while !echo.is_char_boundary(cut) {
            cut -= 1;
        }
        echo.truncate(cut);
        Ok(LineRead::Overlong { echo, len })
    } else {
        Ok(LineRead::Line(text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anycast_telemetry::json::{parse, JsonValue};
    use proptest::prelude::*;
    use proptest::TestRng;
    use std::io::BufReader;

    /// The codec this file had before the flat one: every line parsed
    /// into a [`JsonValue`] tree, every reply built as a tree and
    /// rendered. Kept as the oracle the flat codec is held to.
    mod tree {
        use super::super::{
            Bandwidth, Decision, Request, ServiceSnapshot, ServiceStats, WireError, ECHO_BYTES,
            MAX_TOKEN_BYTES,
        };
        use anycast_telemetry::json::{parse, JsonValue};

        pub(crate) fn field<'a>(obj: &'a JsonValue, key: &str) -> Option<&'a JsonValue> {
            match obj {
                JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        fn num_field(obj: &JsonValue, key: &str) -> Result<f64, WireError> {
            match field(obj, key) {
                Some(JsonValue::Num(x)) => Ok(*x),
                Some(_) => Err(WireError::parse(format!("field `{key}` is not a number"))),
                None => Err(WireError::parse(format!("missing field `{key}`"))),
            }
        }

        fn index_field(obj: &JsonValue, key: &str) -> Result<usize, WireError> {
            let x = num_field(obj, key)?;
            if x.fract() != 0.0 || x < 0.0 {
                return Err(WireError::parse(format!(
                    "field `{key}` must be a nonnegative integer, got {x}"
                )));
            }
            Ok(x as usize)
        }

        fn token_field(obj: &JsonValue) -> Result<Option<String>, WireError> {
            match field(obj, "token") {
                None | Some(JsonValue::Null) => Ok(None),
                Some(JsonValue::Str(s)) => {
                    if s.is_empty() || s.len() > MAX_TOKEN_BYTES {
                        return Err(WireError::parse(format!(
                            "token must be 1..={MAX_TOKEN_BYTES} bytes, got {}",
                            s.len()
                        )));
                    }
                    Ok(Some(s.clone()))
                }
                Some(_) => Err(WireError::parse("field `token` is not a string")),
            }
        }

        pub(crate) fn parse_request(line: &str) -> Result<Request, WireError> {
            let v = parse(line.trim()).map_err(WireError::parse)?;
            let op = match field(&v, "op") {
                Some(JsonValue::Str(s)) => s.as_str(),
                _ => return Err(WireError::parse("missing string field `op`")),
            };
            match op {
                "admit" => {
                    let holding_secs = num_field(&v, "holding_secs")?;
                    if !(holding_secs.is_finite() && holding_secs > 0.0) {
                        return Err(WireError::parse(format!(
                            "holding_secs must be positive, got {holding_secs}"
                        )));
                    }
                    let demand_bps = num_field(&v, "demand_bps")?;
                    if !(demand_bps.is_finite() && demand_bps >= 1.0) {
                        return Err(WireError::parse(format!(
                            "demand_bps must be at least 1, got {demand_bps}"
                        )));
                    }
                    Ok(Request::Admit {
                        source_index: index_field(&v, "source")?,
                        group_index: index_field(&v, "group")?,
                        demand: Bandwidth::from_bps(demand_bps as u64),
                        holding_secs,
                        token: token_field(&v)?,
                    })
                }
                "teardown" => {
                    let session = num_field(&v, "session")?;
                    if session.fract() != 0.0 || session < 0.0 {
                        return Err(WireError::parse(format!(
                            "field `session` must be a nonnegative integer, got {session}"
                        )));
                    }
                    Ok(Request::Teardown {
                        session: session as u64,
                    })
                }
                "resume" => match token_field(&v)? {
                    Some(token) => Ok(Request::Resume { token }),
                    None => Err(WireError::parse("resume requires a `token`")),
                },
                "stats" => Ok(Request::Stats),
                "shutdown" => Ok(Request::Shutdown),
                other => Err(WireError {
                    reason: "unknown_op",
                    message: format!("unknown op `{other}`"),
                }),
            }
        }

        fn op(name: &str) -> (&'static str, JsonValue) {
            ("op", JsonValue::Str(name.into()))
        }

        fn uint(n: u64) -> JsonValue {
            JsonValue::Num(n as f64)
        }

        fn opt_token(token: Option<&str>) -> JsonValue {
            token.map_or(JsonValue::Null, |t| JsonValue::Str(t.into()))
        }

        pub(crate) fn decision_response(
            d: &Decision,
            latency_us: u64,
            token: Option<&str>,
        ) -> String {
            JsonValue::obj([
                op("decision"),
                ("request", uint(d.request)),
                ("token", opt_token(token)),
                ("at", JsonValue::Num(d.at_secs)),
                ("admitted", JsonValue::Bool(d.admitted)),
                (
                    "member",
                    d.member_index.map_or(JsonValue::Null, |m| uint(m as u64)),
                ),
                (
                    "session",
                    d.session.map_or(JsonValue::Null, |s| uint(s.raw())),
                ),
                ("tries", uint(d.tries.into())),
                ("latency_us", uint(latency_us)),
            ])
            .render()
        }

        pub(crate) fn stats_response(
            s: &ServiceSnapshot,
            telemetry_dropped: u64,
            d: &ServiceStats,
        ) -> String {
            JsonValue::obj([
                op("stats"),
                ("time_secs", JsonValue::Num(s.time_secs)),
                ("offered", uint(s.offered)),
                ("admitted", uint(s.admitted)),
                ("rejected", uint(s.rejected)),
                ("active_sessions", uint(s.active_sessions as u64)),
                ("reserved_bps", uint(s.reserved_bps)),
                ("pending_hold_bps", uint(s.pending_hold_bps)),
                ("capacity_bps", uint(s.capacity_bps)),
                ("setups_in_flight", uint(s.setups_in_flight as u64)),
                ("links", uint(s.links as u64)),
                ("failed_links", uint(s.failed_links as u64)),
                ("telemetry_dropped", uint(telemetry_dropped)),
                ("window_secs", JsonValue::Num(s.window_secs)),
                ("window_offered", uint(s.window_offered)),
                ("window_admitted", uint(s.window_admitted)),
                ("window_rejected", uint(s.window_rejected)),
                ("queue_depth", uint(d.queue_depth as u64)),
                ("queue_limit", uint(d.queue_limit as u64)),
                ("shed", uint(d.shed)),
                ("shedding", JsonValue::Bool(d.shedding)),
                ("journal_size", uint(d.journal_size as u64)),
                ("duplicates", uint(d.duplicates)),
                ("resumed", uint(d.resumed)),
                ("torn_down", uint(d.torn_down)),
                ("wire_errors", uint(d.wire_errors)),
            ])
            .render()
        }

        pub(crate) fn error_response(err: &WireError, line: &str) -> String {
            let mut echo = line.trim();
            if echo.len() > ECHO_BYTES {
                let mut cut = ECHO_BYTES;
                while !echo.is_char_boundary(cut) {
                    cut -= 1;
                }
                echo = &echo[..cut];
            }
            JsonValue::obj([
                op("error"),
                ("reason", JsonValue::Str(err.reason.into())),
                ("message", JsonValue::Str(err.message.clone())),
                ("line", JsonValue::Str(echo.into())),
            ])
            .render()
        }

        pub(crate) fn overloaded_response(
            token: Option<&str>,
            queue_depth: usize,
            shedding: bool,
        ) -> String {
            JsonValue::obj([
                op("overloaded"),
                ("token", opt_token(token)),
                ("queue_depth", uint(queue_depth as u64)),
                ("shedding", JsonValue::Bool(shedding)),
            ])
            .render()
        }

        pub(crate) fn torn_down_response(session: u64, reclaimed: bool) -> String {
            JsonValue::obj([
                op("torn_down"),
                ("session", uint(session)),
                ("reclaimed", JsonValue::Bool(reclaimed)),
            ])
            .render()
        }

        pub(crate) fn resumed_response(token: &str, state: &str) -> String {
            JsonValue::obj([
                op("resumed"),
                ("token", JsonValue::Str(token.into())),
                ("state", JsonValue::Str(state.into())),
            ])
            .render()
        }

        pub(crate) fn shutdown_response() -> String {
            JsonValue::obj([op("shutting_down")]).render()
        }

        pub(crate) fn shutdown_rejection(token: Option<&str>) -> String {
            JsonValue::obj([
                op("shutting_down"),
                ("token", opt_token(token)),
                ("rejected", JsonValue::Bool(true)),
            ])
            .render()
        }
    }

    use tree::field;

    #[test]
    fn parses_all_ops() -> Result<(), WireError> {
        assert_eq!(
            parse_request(
                "{\"op\":\"admit\",\"source\":2,\"group\":0,\"demand_bps\":64000,\"holding_secs\":120}"
            )?,
            Request::Admit {
                source_index: 2,
                group_index: 0,
                demand: Bandwidth::from_bps(64_000),
                holding_secs: 120.0,
                token: None,
            }
        );
        assert_eq!(
            parse_request(
                "{\"op\":\"admit\",\"source\":2,\"group\":0,\"demand_bps\":64000,\
                 \"holding_secs\":120,\"token\":\"c1-r7\"}"
            )?,
            Request::Admit {
                source_index: 2,
                group_index: 0,
                demand: Bandwidth::from_bps(64_000),
                holding_secs: 120.0,
                token: Some("c1-r7".into()),
            }
        );
        assert_eq!(
            parse_request("{\"op\":\"teardown\",\"session\":17}")?,
            Request::Teardown { session: 17 }
        );
        assert_eq!(
            parse_request("{\"op\":\"resume\",\"token\":\"c1-r7\"}")?,
            Request::Resume {
                token: "c1-r7".into()
            }
        );
        assert_eq!(parse_request("{\"op\":\"stats\"}")?, Request::Stats);
        assert_eq!(parse_request(" {\"op\":\"shutdown\"} ")?, Request::Shutdown);
        Ok(())
    }

    #[test]
    fn rejects_malformed_requests_with_reason_codes() {
        assert_eq!(parse_request("not json").unwrap_err().reason, "parse");
        assert_eq!(
            parse_request("{\"op\":\"frobnicate\"}").unwrap_err().reason,
            "unknown_op"
        );
        assert_eq!(parse_request("{\"source\":1}").unwrap_err().reason, "parse");
        // Negative, zero or fractional-index fields.
        for bad in [
            "{\"op\":\"admit\",\"source\":-1,\"group\":0,\"demand_bps\":1,\"holding_secs\":1}",
            "{\"op\":\"admit\",\"source\":0.5,\"group\":0,\"demand_bps\":1,\"holding_secs\":1}",
            "{\"op\":\"admit\",\"source\":0,\"group\":0,\"demand_bps\":0,\"holding_secs\":1}",
            "{\"op\":\"admit\",\"source\":0,\"group\":0,\"demand_bps\":1,\"holding_secs\":0}",
            "{\"op\":\"teardown\",\"session\":-3}",
            "{\"op\":\"teardown\"}",
            "{\"op\":\"resume\"}",
            "{\"op\":\"resume\",\"token\":\"\"}",
        ] {
            assert_eq!(parse_request(bad).unwrap_err().reason, "parse", "{bad}");
        }
        // Token cap.
        let long = format!(
            "{{\"op\":\"admit\",\"source\":0,\"group\":0,\"demand_bps\":1,\
             \"holding_secs\":1,\"token\":\"{}\"}}",
            "x".repeat(MAX_TOKEN_BYTES + 1)
        );
        assert_eq!(parse_request(&long).unwrap_err().reason, "parse");
    }

    #[test]
    fn first_occurrence_of_a_key_wins() {
        assert_eq!(
            parse_request("{\"op\":\"teardown\",\"session\":3,\"session\":4,\"op\":\"stats\"}"),
            Ok(Request::Teardown { session: 3 })
        );
        // Also when the first is the wrong type and a later one is not.
        assert_eq!(
            parse_request("{\"op\":\"teardown\",\"session\":[3],\"session\":4}")
                .unwrap_err()
                .message,
            "field `session` is not a number"
        );
        // And when the key is spelled with an escape.
        assert_eq!(
            parse_request("{\"\\u006fp\":\"stats\",\"op\":\"shutdown\"}"),
            Ok(Request::Stats)
        );
    }

    #[test]
    fn responses_render_and_parse_back() -> Result<(), String> {
        let d = Decision {
            request: 7,
            at_secs: 12.5,
            admitted: true,
            member_index: Some(1),
            session: Some(SessionId::for_tests(42)),
            tries: 2,
        };
        let line = decision_response(&d, 830, Some("c0-r7"));
        let v = parse(&line)?;
        assert_eq!(field(&v, "request"), Some(&JsonValue::Num(7.0)));
        assert_eq!(field(&v, "session"), Some(&JsonValue::Num(42.0)));
        assert_eq!(field(&v, "admitted"), Some(&JsonValue::Bool(true)));
        assert_eq!(field(&v, "token"), Some(&JsonValue::Str("c0-r7".into())));

        let rejected = Decision {
            request: 8,
            at_secs: 13.0,
            admitted: false,
            member_index: None,
            session: None,
            tries: 3,
        };
        let v = parse(&decision_response(&rejected, 12, None))?;
        assert_eq!(field(&v, "member"), Some(&JsonValue::Null));
        assert_eq!(field(&v, "token"), Some(&JsonValue::Null));

        let v = parse(&error_response(
            &WireError::parse("bad \"line\""),
            "{\"op\":\"nope",
        ))?;
        assert_eq!(field(&v, "reason"), Some(&JsonValue::Str("parse".into())));
        assert_eq!(
            field(&v, "line"),
            Some(&JsonValue::Str("{\"op\":\"nope".into()))
        );

        let v = parse(&overloaded_response(Some("t"), 512, true))?;
        assert_eq!(field(&v, "queue_depth"), Some(&JsonValue::Num(512.0)));
        assert_eq!(field(&v, "shedding"), Some(&JsonValue::Bool(true)));

        let v = parse(&torn_down_response(42, true))?;
        assert_eq!(field(&v, "reclaimed"), Some(&JsonValue::Bool(true)));

        let v = parse(&resumed_response("t", "pending"))?;
        assert_eq!(field(&v, "state"), Some(&JsonValue::Str("pending".into())));

        assert!(parse(&shutdown_response()).is_ok());
        let v = parse(&shutdown_rejection(Some("t")))?;
        assert_eq!(field(&v, "rejected"), Some(&JsonValue::Bool(true)));
        Ok(())
    }

    /// `u64` fields are written digit for digit, not through an `f64`
    /// that rounds from 2⁵³ up.
    #[test]
    fn u64_fields_are_exact_at_u64_max() {
        const MAX: &str = "18446744073709551615";
        let d = Decision {
            request: u64::MAX,
            at_secs: 1.0,
            admitted: true,
            member_index: Some(usize::MAX),
            session: Some(SessionId::from_raw(u64::MAX)),
            tries: u32::MAX,
        };
        assert_eq!(
            decision_response(&d, u64::MAX, None),
            format!(
                "{{\"op\":\"decision\",\"request\":{MAX},\"token\":null,\"at\":1,\
                 \"admitted\":true,\"member\":{MAX},\"session\":{MAX},\"tries\":4294967295,\
                 \"latency_us\":{MAX}}}"
            )
        );
        // A session id past every real one saturates and is echoed as what
        // the daemon looked up, where the tree wrote 18446744073709552000.
        assert_eq!(
            parse_request("{\"op\":\"teardown\",\"session\":1e30}"),
            Ok(Request::Teardown { session: u64::MAX })
        );
        assert_eq!(
            torn_down_response(u64::MAX, false),
            format!("{{\"op\":\"torn_down\",\"session\":{MAX},\"reclaimed\":false}}")
        );
        let stats = ServiceStats {
            shed: u64::MAX,
            ..ServiceStats::default()
        };
        let line = stats_response(&snapshot(&mut TestRng::from_name("max")), 0, &stats);
        assert!(line.contains(&format!("\"shed\":{MAX},")), "{line}");
    }

    #[test]
    fn error_echo_truncates_on_char_boundary() {
        let line = format!("{}é", "a".repeat(ECHO_BYTES - 1));
        let rendered = error_response(&WireError::parse("x"), &line);
        let v = parse(&rendered).unwrap();
        match field(&v, "line") {
            Some(JsonValue::Str(s)) => assert_eq!(s.len(), ECHO_BYTES - 1),
            other => panic!("bad echo: {other:?}"),
        }
    }

    #[test]
    fn bounded_reader_handles_normal_overlong_and_eof() {
        let data = format!("\nshort\n{}\ntail", "y".repeat(100));
        let mut r = BufReader::with_capacity(16, data.as_bytes());
        // A bare newline is an empty line, not EOF.
        assert_eq!(
            read_line_bounded(&mut r, 32).unwrap(),
            LineRead::Line(String::new())
        );
        assert_eq!(
            read_line_bounded(&mut r, 32).unwrap(),
            LineRead::Line("short".into())
        );
        match read_line_bounded(&mut r, 32).unwrap() {
            LineRead::Overlong { echo, len } => {
                assert_eq!(len, 100);
                assert_eq!(echo, "y".repeat(32));
            }
            other => panic!("expected overlong, got {other:?}"),
        }
        // The unterminated tail still comes through as a line, then EOF.
        assert_eq!(
            read_line_bounded(&mut r, 32).unwrap(),
            LineRead::Line("tail".into())
        );
        assert_eq!(read_line_bounded(&mut r, 32).unwrap(), LineRead::Eof);
    }

    // ---- generators -----------------------------------------------------

    fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
        from[rng.below(from.len() as u64) as usize]
    }

    fn chance(rng: &mut TestRng, one_in: u64) -> bool {
        rng.below(one_in) == 0
    }

    /// A string as a client might spell it on the wire, quotes included:
    /// plain ASCII mostly, sometimes with escapes, raw non-ASCII, or a
    /// length on either side of the token cap.
    fn wire_string(rng: &mut TestRng) -> String {
        let pieces = match rng.below(8) {
            0 => 0,
            1 => 60 + rng.below(10),
            _ => 1 + rng.below(12),
        };
        let mut s = String::from("\"");
        for _ in 0..pieces {
            s.push_str(match rng.below(12) {
                0 => "\\\"",
                1 => "\\\\",
                2 => "\\u00e9",
                3 => "\\u0041",
                4 => "\\ud800",
                5 => "\\n",
                6 => "é",
                7 => "漢",
                8 => "🦀",
                9 => "\\/",
                _ => pick(rng, &["a", "Z", "7", "-", "_", " ", "c1-r"]),
            });
        }
        s.push('"');
        s
    }

    fn numeral(rng: &mut TestRng) -> String {
        match rng.below(4) {
            0 => pick(
                rng,
                &[
                    "+5",
                    "1.",
                    "1e400",
                    "-1",
                    "0.5",
                    "1e3",
                    "007",
                    ".5",
                    "5e",
                    "--1",
                    "0",
                    "-0",
                    "1e-9",
                    "9007199254740993",
                    "1e30",
                    "2.5E2",
                    "1.7976931348623157e308",
                    "-",
                ],
            )
            .to_string(),
            1 => format!("{:.6}", rng.unit_f64() * 600.0),
            _ => rng.below(100_000).to_string(),
        }
    }

    /// Arrays and objects `depth` levels deep; 64 levels under a key of
    /// the request object is one more than [`parse`] allows.
    fn nested(rng: &mut TestRng) -> String {
        let depth = match rng.below(4) {
            0 => 62 + rng.below(4) as usize,
            _ => 1 + rng.below(3) as usize,
        };
        let mut open = String::new();
        let mut close = String::new();
        for _ in 0..depth {
            if chance(rng, 2) {
                open.push('[');
                close.insert(0, ']');
            } else {
                open.push_str("{\"k\":");
                close.insert(0, '}');
            }
        }
        format!("{open}1{close}")
    }

    fn any_value(rng: &mut TestRng) -> String {
        match rng.below(8) {
            0 => "null".into(),
            1 => pick(rng, &["true", "false", "nul", "tru", "False"]).into(),
            2 => nested(rng),
            3 | 4 => wire_string(rng),
            _ => numeral(rng),
        }
    }

    /// A key, now and then spelled with an escape the tree decodes.
    fn wire_key(rng: &mut TestRng, key: &str) -> String {
        match key.chars().next() {
            Some(first) if chance(rng, 10) => {
                format!("\"\\u{:04x}{}\"", first as u32, &key[first.len_utf8()..])
            }
            _ => format!("\"{key}\""),
        }
    }

    /// One request line: a well-formed op, then some of — a member of the
    /// wrong type, duplicated or unknown keys, shuffled order, stray
    /// whitespace, a replaced byte — or no object at all.
    struct RequestLine;

    impl Strategy for RequestLine {
        type Value = String;

        fn sample(&self, rng: &mut TestRng) -> String {
            if chance(rng, 16) {
                return pick(
                    rng,
                    &[
                        "",
                        "[1,2,3]",
                        "\"op\"",
                        "5",
                        "null",
                        "[{\"op\":\"stats\"}]",
                        "{}",
                        "}{",
                    ],
                )
                .into();
            }
            let op = pick(
                rng,
                &[
                    "admit", "admit", "admit", "teardown", "resume", "stats", "shutdown", "nope",
                ],
            );
            let keys: &[&str] = match op {
                "admit" => &["source", "group", "demand_bps", "holding_secs", "token"],
                "teardown" => &["session"],
                "resume" => &["token"],
                _ => &[],
            };
            let mut members = vec![(wire_key(rng, "op"), format!("\"{op}\""))];
            for key in keys {
                if chance(rng, 12) {
                    continue; // a missing member
                }
                let value = if chance(rng, 6) {
                    any_value(rng)
                } else if *key == "token" {
                    wire_string(rng)
                } else {
                    numeral(rng)
                };
                members.push((wire_key(rng, key), value));
            }
            for _ in 0..rng.below(3) {
                let key = pick(
                    rng,
                    &[
                        "op",
                        "source",
                        "token",
                        "session",
                        "holding_secs",
                        "pad",
                        "é",
                        "",
                    ],
                );
                let at = rng.below(members.len() as u64 + 1) as usize;
                members.insert(at, (wire_key(rng, key), any_value(rng)));
            }
            if chance(rng, 2) {
                for i in (1..members.len()).rev() {
                    members.swap(i, rng.below(i as u64 + 1) as usize);
                }
            }
            let ws = |rng: &mut TestRng| {
                if chance(rng, 8) {
                    pick(rng, &[" ", "\t", "  ", "\r"])
                } else {
                    ""
                }
            };
            let mut line = format!("{}{{", ws(rng));
            for (i, (key, value)) in members.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push_str(&format!(
                    "{}{key}{}:{}{value}{}",
                    ws(rng),
                    ws(rng),
                    ws(rng),
                    ws(rng)
                ));
            }
            line.push('}');
            line.push_str(ws(rng));
            if chance(rng, 6) {
                let chars: Vec<char> = line.chars().collect();
                let at = rng.below(chars.len() as u64) as usize;
                let junk = pick(
                    rng,
                    &["{", "}", "[", "]", "\"", ",", ":", "\\", "x", "0", ""],
                );
                line = chars[..at].iter().collect::<String>()
                    + junk
                    + &chars[at + 1..].iter().collect::<String>();
            }
            line
        }
    }

    fn raw_token(rng: &mut TestRng) -> String {
        (0..1 + rng.below(12))
            .map(|_| {
                pick(
                    rng,
                    &[
                        "a", "c1-r", "7", "\"", "\\", "\n", "\r", "\t", "\u{1}", "\u{1f}", "é",
                        "漢", "🦀", " ", "/",
                    ],
                )
            })
            .collect()
    }

    /// Integers the tree renders exactly: below 2⁵³.
    fn uint53(rng: &mut TestRng) -> u64 {
        match rng.below(4) {
            0 => rng.below(10),
            1 => (1 << 53) - 1 - rng.below(3),
            _ => rng.next_u64() >> (11 + rng.below(53)),
        }
    }

    fn secs(rng: &mut TestRng) -> f64 {
        match rng.below(6) {
            0 => rng.below(5_000) as f64,
            1 => pick(
                rng,
                &[0.0, 1e-7, 5e-324, 1e15 + 0.5, 1e22, 1.5e300, f64::MAX],
            ),
            _ => rng.unit_f64() * 4_000.0,
        }
    }

    fn snapshot(rng: &mut TestRng) -> ServiceSnapshot {
        ServiceSnapshot {
            time_secs: secs(rng),
            offered: uint53(rng),
            admitted: uint53(rng),
            rejected: uint53(rng),
            active_sessions: uint53(rng) as usize,
            reserved_bps: uint53(rng),
            pending_hold_bps: uint53(rng),
            capacity_bps: uint53(rng),
            setups_in_flight: uint53(rng) as usize,
            links: uint53(rng) as usize,
            failed_links: uint53(rng) as usize,
            window_secs: secs(rng),
            window_offered: uint53(rng),
            window_admitted: uint53(rng),
            window_rejected: uint53(rng),
        }
    }

    /// The flat line is the tree's, byte for byte, and is what the tree
    /// renders when it reads it back.
    fn check_reply(flat: &str, tree: &str) -> Result<(), TestCaseError> {
        prop_assert_eq!(flat, tree);
        let reread = parse(flat).map_err(TestCaseError::fail)?;
        prop_assert_eq!(reread.render(), flat);
        Ok(())
    }

    /// The generator reaches what it is there for: accepted lines of
    /// every op as well as rejected ones.
    #[test]
    fn generated_lines_cover_every_op() {
        let mut rng = TestRng::from_name("coverage");
        let parsed: Vec<_> = (0..2_000)
            .map(|_| parse_request(&RequestLine.sample(&mut rng)))
            .collect();
        let any = |wanted: fn(&Result<Request, WireError>) -> bool| parsed.iter().any(wanted);
        assert!(any(|r| matches!(
            r,
            Ok(Request::Admit { token: Some(_), .. })
        )));
        assert!(any(|r| matches!(r, Ok(Request::Admit { token: None, .. }))));
        assert!(any(|r| matches!(r, Ok(Request::Teardown { .. }))));
        assert!(any(|r| matches!(r, Ok(Request::Resume { .. }))));
        assert!(any(|r| matches!(r, Ok(Request::Stats))));
        assert!(any(|r| matches!(r, Err(e) if e.reason == "unknown_op")));
        assert!(any(
            |r| matches!(r, Err(e) if e.message.contains("nesting deeper"))
        ));
        let accepted = parsed.iter().filter(|r| r.is_ok()).count();
        assert!((400..1_600).contains(&accepted), "{accepted} of 2000");
    }

    proptest! {
        /// The flat parser and the tree oracle agree on every generated
        /// line and on every prefix of it: the same `Request`, or the
        /// same error down to its message.
        #[test]
        fn flat_parser_agrees_with_the_tree_oracle(
            lines in prop::collection::vec(RequestLine, 32),
        ) {
            for line in &lines {
                for (cut, _) in line.char_indices().chain([(line.len(), ' ')]) {
                    let prefix = &line[..cut];
                    prop_assert_eq!(
                        parse_request(prefix),
                        tree::parse_request(prefix),
                        "on {:?}",
                        prefix
                    );
                }
            }
        }

        /// Every reply is the tree's reply, byte for byte, for every value
        /// the tree could write exactly.
        #[test]
        fn flat_replies_are_the_tree_replies(seed in any::<u64>()) {
            let rng = &mut TestRng::from_name(&seed.to_string());
            let d = Decision {
                request: uint53(rng),
                at_secs: secs(rng),
                admitted: chance(rng, 2),
                member_index: (!chance(rng, 3)).then(|| uint53(rng) as usize),
                session: (!chance(rng, 3)).then(|| SessionId::from_raw(uint53(rng))),
                tries: rng.next_u64() as u32 >> rng.below(32),
            };
            let token = (!chance(rng, 3)).then(|| raw_token(rng));
            let token = token.as_deref();
            let latency_us = uint53(rng);
            check_reply(
                &decision_response(&d, latency_us, token),
                &tree::decision_response(&d, latency_us, token),
            )?;

            let (s, dropped) = (snapshot(rng), uint53(rng));
            let stats = ServiceStats {
                queue_depth: uint53(rng) as usize,
                queue_limit: uint53(rng) as usize,
                shed: uint53(rng),
                shedding: chance(rng, 2),
                journal_size: uint53(rng) as usize,
                duplicates: uint53(rng),
                resumed: uint53(rng),
                torn_down: uint53(rng),
                wire_errors: uint53(rng),
            };
            check_reply(
                &stats_response(&s, dropped, &stats),
                &tree::stats_response(&s, dropped, &stats),
            )?;

            let bad = RequestLine.sample(rng).repeat(1 + rng.below(3) as usize);
            let err = WireError { reason: "parse", message: raw_token(rng) };
            check_reply(&error_response(&err, &bad), &tree::error_response(&err, &bad))?;

            let (depth, flag) = (uint53(rng) as usize, chance(rng, 2));
            check_reply(
                &overloaded_response(token, depth, flag),
                &tree::overloaded_response(token, depth, flag),
            )?;
            let session = uint53(rng);
            check_reply(
                &torn_down_response(session, flag),
                &tree::torn_down_response(session, flag),
            )?;
            let state = pick(rng, &["pending", "unknown"]);
            let resumed = raw_token(rng);
            check_reply(
                &resumed_response(&resumed, state),
                &tree::resumed_response(&resumed, state),
            )?;
            check_reply(&shutdown_response(), &tree::shutdown_response())?;
            check_reply(&shutdown_rejection(token), &tree::shutdown_rejection(token))?;
        }

        /// Whatever bytes arrive, the reader's path — bounded line read,
        /// parse, error reply — neither panics nor writes a reply that is
        /// not one JSON object on one line.
        #[test]
        fn arbitrary_bytes_never_panic_the_reader_path(
            noise in prop::collection::vec(any::<u8>(), 0..400),
            lines in prop::collection::vec(RequestLine, 4),
            hits in prop::collection::vec((any::<u64>(), any::<u8>()), 0..8),
            chunk in 1usize..64,
        ) {
            // Request lines with bytes overwritten at random, then noise.
            let mut bytes = lines.join("\n").into_bytes();
            for (at, byte) in hits {
                if !bytes.is_empty() {
                    let at = (at % bytes.len() as u64) as usize;
                    bytes[at] = byte;
                }
            }
            bytes.push(b'\n');
            bytes.extend_from_slice(&noise);
            let mut reader = BufReader::with_capacity(chunk, &bytes[..]);
            loop {
                let (err, echo) = match read_line_bounded(&mut reader, 96) {
                    Ok(LineRead::Eof) => break,
                    Ok(LineRead::Line(line)) => match parse_request(&line) {
                        Ok(_) => continue,
                        Err(e) => (e, line),
                    },
                    Ok(LineRead::Overlong { echo, len }) => {
                        prop_assert!(len > 96 && echo.len() <= ECHO_BYTES);
                        (WireError::parse("too long"), echo)
                    }
                    Err(e) => return Err(TestCaseError::fail(e.to_string())),
                };
                let reply = error_response(&err, &echo);
                prop_assert!(!reply.contains('\n'), "{:?}", reply);
                prop_assert!(matches!(parse(&reply), Ok(JsonValue::Obj(_))), "{:?}", reply);
            }
        }
    }
}
