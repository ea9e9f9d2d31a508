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
//! survive a TCP reset should send a `token` (≤ [`MAX_TOKEN_BYTES`]
//! bytes, unique per request): the daemon journals the verdict under the
//! token, duplicate submits are idempotent, and `resume` on a fresh
//! connection re-delivers it. `latency_us` is wall-clock time from the
//! reader thread reading the line to the decision, so it includes the
//! wait for the engine thread.

use anycast_dac::experiment::{Decision, ServiceSnapshot};
use anycast_net::Bandwidth;
use anycast_telemetry::json::{parse, JsonValue};
use std::io::{self, BufRead};

/// Hard cap on one request line. Anything longer draws a
/// `line_too_long` error and is discarded without ever being buffered
/// whole, so a hostile writer cannot balloon the reader's memory.
pub const MAX_LINE_BYTES: usize = 8 * 1024;

/// Hard cap on a correlation token.
pub const MAX_TOKEN_BYTES: usize = 64;

/// How much of an offending line an `error` response echoes back.
const ECHO_BYTES: usize = 120;

/// A structured protocol error: a machine-readable reason code plus a
/// human-readable message. The server echoes the offending line alongside.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Machine-readable reason code (`parse`, `unknown_op`,
    /// `line_too_long`, `out_of_range`, `horizon_reached`).
    pub reason: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// A `parse` error.
    pub fn parse(message: impl Into<String>) -> Self {
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

fn field<'a>(obj: &'a JsonValue, key: &str) -> Option<&'a JsonValue> {
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

/// Parses one request line.
///
/// # Errors
///
/// A [`WireError`] with reason `parse` (JSON syntax, missing/invalid
/// fields) or `unknown_op`, suitable for [`error_response`].
pub fn parse_request(line: &str) -> Result<Request, WireError> {
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

fn opt_token(token: Option<&str>) -> JsonValue {
    token.map_or(JsonValue::Null, |t| JsonValue::Str(t.into()))
}

/// Renders a `decision` response line (no trailing newline).
pub fn decision_response(d: &Decision, latency_us: u64, token: Option<&str>) -> String {
    JsonValue::obj([
        ("op", JsonValue::Str("decision".into())),
        ("request", JsonValue::Num(d.request as f64)),
        ("token", opt_token(token)),
        ("at", JsonValue::Num(d.at_secs)),
        ("admitted", JsonValue::Bool(d.admitted)),
        (
            "member",
            d.member_index
                .map_or(JsonValue::Null, |m| JsonValue::Num(m as f64)),
        ),
        (
            "session",
            d.session
                .map_or(JsonValue::Null, |s| JsonValue::Num(s.raw() as f64)),
        ),
        ("tries", JsonValue::Num(d.tries as f64)),
        ("latency_us", JsonValue::Num(latency_us as f64)),
    ])
    .render()
}

/// Daemon-side service counters folded into the `stats` response, next to
/// the engine's [`ServiceSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServiceStats {
    /// Admits currently waiting in the admission queue.
    pub queue_depth: usize,
    /// The queue's hard bound.
    pub queue_limit: usize,
    /// Admits refused with an `overloaded` response so far.
    pub shed: u64,
    /// Whether the hysteresis shed controller is currently engaged.
    pub shedding: bool,
    /// Tokens currently held in the decision journal.
    pub journal_size: usize,
    /// Duplicate submits answered from the journal.
    pub duplicates: u64,
    /// `resume` ops served.
    pub resumed: u64,
    /// Wire `teardown` ops that reclaimed a live session.
    pub torn_down: u64,
    /// `error` responses sent.
    pub wire_errors: u64,
}

/// Renders a `stats` response line (no trailing newline).
/// `telemetry_dropped` is the stream recorder's drop counter (0 when
/// telemetry is off or lossless).
pub fn stats_response(s: &ServiceSnapshot, telemetry_dropped: u64, d: &ServiceStats) -> String {
    JsonValue::obj([
        ("op", JsonValue::Str("stats".into())),
        ("time_secs", JsonValue::Num(s.time_secs)),
        ("offered", JsonValue::Num(s.offered as f64)),
        ("admitted", JsonValue::Num(s.admitted as f64)),
        ("rejected", JsonValue::Num(s.rejected as f64)),
        ("active_sessions", JsonValue::Num(s.active_sessions as f64)),
        ("reserved_bps", JsonValue::Num(s.reserved_bps as f64)),
        (
            "pending_hold_bps",
            JsonValue::Num(s.pending_hold_bps as f64),
        ),
        ("capacity_bps", JsonValue::Num(s.capacity_bps as f64)),
        (
            "setups_in_flight",
            JsonValue::Num(s.setups_in_flight as f64),
        ),
        ("links", JsonValue::Num(s.links as f64)),
        ("failed_links", JsonValue::Num(s.failed_links as f64)),
        (
            "telemetry_dropped",
            JsonValue::Num(telemetry_dropped as f64),
        ),
        ("window_secs", JsonValue::Num(s.window_secs)),
        ("window_offered", JsonValue::Num(s.window_offered as f64)),
        ("window_admitted", JsonValue::Num(s.window_admitted as f64)),
        ("window_rejected", JsonValue::Num(s.window_rejected as f64)),
        ("queue_depth", JsonValue::Num(d.queue_depth as f64)),
        ("queue_limit", JsonValue::Num(d.queue_limit as f64)),
        ("shed", JsonValue::Num(d.shed as f64)),
        ("shedding", JsonValue::Bool(d.shedding)),
        ("journal_size", JsonValue::Num(d.journal_size as f64)),
        ("duplicates", JsonValue::Num(d.duplicates as f64)),
        ("resumed", JsonValue::Num(d.resumed as f64)),
        ("torn_down", JsonValue::Num(d.torn_down as f64)),
        ("wire_errors", JsonValue::Num(d.wire_errors as f64)),
    ])
    .render()
}

/// Renders an `error` response line (no trailing newline): the reason
/// code, the message, and the offending line echoed back (truncated to
/// [`ECHO_BYTES`] on a character boundary).
pub fn error_response(err: &WireError, line: &str) -> String {
    let mut echo = line.trim();
    if echo.len() > ECHO_BYTES {
        let mut cut = ECHO_BYTES;
        while !echo.is_char_boundary(cut) {
            cut -= 1;
        }
        echo = &echo[..cut];
    }
    JsonValue::obj([
        ("op", JsonValue::Str("error".into())),
        ("reason", JsonValue::Str(err.reason.into())),
        ("message", JsonValue::Str(err.message.clone())),
        ("line", JsonValue::Str(echo.into())),
    ])
    .render()
}

/// Renders an `overloaded` response line (no trailing newline): the admit
/// was shed, never enqueued, and will get no decision. `shedding` tells
/// the client whether the hysteresis controller (vs. the hard queue
/// bound) refused it.
pub fn overloaded_response(token: Option<&str>, queue_depth: usize, shedding: bool) -> String {
    JsonValue::obj([
        ("op", JsonValue::Str("overloaded".into())),
        ("token", opt_token(token)),
        ("queue_depth", JsonValue::Num(queue_depth as f64)),
        ("shedding", JsonValue::Bool(shedding)),
    ])
    .render()
}

/// Renders a `torn_down` response line (no trailing newline).
/// `reclaimed` is `false` when the session was not live — already torn
/// down, departed, or never issued; duplicate teardowns are harmless.
pub fn torn_down_response(session: u64, reclaimed: bool) -> String {
    JsonValue::obj([
        ("op", JsonValue::Str("torn_down".into())),
        ("session", JsonValue::Num(session as f64)),
        ("reclaimed", JsonValue::Bool(reclaimed)),
    ])
    .render()
}

/// Renders a `resumed` status line (no trailing newline) for a token
/// whose verdict is not yet (or no longer) in the journal: `state` is
/// `pending` (still queued or in flight — the decision will be delivered
/// to *this* connection) or `unknown` (never seen or evicted).
pub fn resumed_response(token: &str, state: &str) -> String {
    JsonValue::obj([
        ("op", JsonValue::Str("resumed".into())),
        ("token", JsonValue::Str(token.into())),
        ("state", JsonValue::Str(state.into())),
    ])
    .render()
}

/// Renders the `shutting_down` acknowledgement line (no trailing newline).
pub fn shutdown_response() -> String {
    JsonValue::obj([("op", JsonValue::Str("shutting_down".into()))]).render()
}

/// Renders the `shutting_down` rejection line (no trailing newline) sent
/// to each queued-but-unserved admit when the daemon drains its admission
/// queue at shutdown: the request was *not* decided and must be retried
/// elsewhere.
pub fn shutdown_rejection(token: Option<&str>) -> String {
    JsonValue::obj([
        ("op", JsonValue::Str("shutting_down".into())),
        ("token", opt_token(token)),
        ("rejected", JsonValue::Bool(true)),
    ])
    .render()
}

/// One line read by [`read_line_bounded`].
#[derive(Debug, PartialEq, Eq)]
pub enum LineRead {
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
pub fn read_line_bounded<R: BufRead + ?Sized>(
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
    let text = String::from_utf8_lossy(&buf).into_owned();
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
    use std::io::BufReader;

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
    fn responses_render_and_parse_back() -> Result<(), String> {
        let d = Decision {
            request: 7,
            at_secs: 12.5,
            admitted: true,
            member_index: Some(1),
            session: Some(anycast_rsvp::SessionId::for_tests(42)),
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
}
