//! End-to-end service tests: a real client over a real socket against the
//! live daemon loop, and the graceful-shutdown zero-leak guarantee.

use anycast_dac::experiment::{ExperimentConfig, SignalingMode, SystemSpec, TwoPhaseConfig};
use anycast_dac::policy::PolicySpec;
use anycast_daemon::{
    BoundServer, Endpoint, OverloadOptions, ServeOptions, ServeReport, ShutdownFlag,
};
use anycast_net::topologies;
use anycast_telemetry::json::{parse, JsonValue};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::time::Duration;

fn field<'a>(v: &'a JsonValue, key: &str) -> Option<&'a JsonValue> {
    match v {
        JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn op_of(v: &JsonValue) -> String {
    match field(v, "op") {
        Some(JsonValue::Str(s)) => s.clone(),
        other => panic!("response without op: {other:?}"),
    }
}

/// A live daemon: no warm-up discard, long horizon, modest speed so
/// two-phase setups stay in flight for wall-clock milliseconds.
fn service_config(system: SystemSpec) -> ExperimentConfig {
    ExperimentConfig::paper_defaults(1.0, system)
        .with_warmup_secs(0.0)
        .with_measure_secs(3_600.0)
        .with_seed(7)
}

/// One request line out, one (or more) response lines back.
struct Client<W: Write, R: BufRead> {
    writer: W,
    reader: R,
}

impl<W: Write, R: BufRead> Client<W, R> {
    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
    }

    fn recv(&mut self) -> JsonValue {
        parse(&self.recv_line()).unwrap()
    }

    /// The next response line as sent, newline aside.
    fn recv_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        assert!(!line.is_empty(), "server closed the connection early");
        line.trim_end_matches('\n').to_owned()
    }
}

/// Asks the daemon to stop when dropped. A client assertion that panics
/// inside `std::thread::scope` unwinds through this, so the scope's join
/// of the server thread returns and the test fails — instead of waiting
/// for ever on a server nobody told to shut down.
struct StopOnDrop(ShutdownFlag);

impl Drop for StopOnDrop {
    fn drop(&mut self) {
        self.0.request();
    }
}

/// Runs the daemon on MCI at `endpoint` for the duration of `client`,
/// which is given the bound TCP address (if the endpoint has one) and
/// must end the session with a wire `shutdown`.
fn with_daemon<T>(
    endpoint: &Endpoint,
    config: &ExperimentConfig,
    options: &ServeOptions,
    client: impl FnOnce(Option<SocketAddr>) -> T,
) -> (ServeReport, T) {
    let topo = topologies::mci();
    let shutdown = ShutdownFlag::new();
    let server = BoundServer::bind(endpoint).unwrap();
    let addr = server.tcp_addr();
    std::thread::scope(|s| {
        let _stop = StopOnDrop(shutdown.clone());
        let serve = s.spawn(|| server.run(&topo, config, options, shutdown).unwrap());
        let out = client(addr);
        (serve.join().unwrap(), out)
    })
}

fn loopback() -> Endpoint {
    Endpoint::Tcp("127.0.0.1:0".into())
}

fn connect(addr: Option<SocketAddr>) -> Client<TcpStream, BufReader<TcpStream>> {
    let stream = TcpStream::connect(addr.expect("a TCP endpoint")).unwrap();
    Client {
        writer: stream.try_clone().unwrap(),
        reader: BufReader::new(stream),
    }
}

#[test]
fn tcp_round_trip_admit_stats_shutdown() {
    let config = service_config(SystemSpec::dac(PolicySpec::wd_dh_default(), 2));
    let options = ServeOptions {
        speed: 50.0,
        tick: Duration::from_millis(2),
        ..ServeOptions::default()
    };
    let (report, ()) = with_daemon(&loopback(), &config, &options, |addr| {
        let mut client = connect(addr);

        // Malformed line: error response, connection stays usable.
        client.send("{\"op\":\"frobnicate\"}");
        let v = client.recv();
        assert_eq!(op_of(&v), "error");

        // One admission round-trip.
        client.send(
            "{\"op\":\"admit\",\"source\":1,\"group\":0,\"demand_bps\":64000,\"holding_secs\":300}",
        );
        let v = client.recv();
        assert_eq!(op_of(&v), "decision");
        assert_eq!(field(&v, "request"), Some(&JsonValue::Num(0.0)));
        assert_eq!(field(&v, "admitted"), Some(&JsonValue::Bool(true)));
        assert!(matches!(field(&v, "member"), Some(JsonValue::Num(_))));
        assert!(matches!(field(&v, "latency_us"), Some(JsonValue::Num(_))));

        // Stats reflect it.
        client.send("{\"op\":\"stats\"}");
        let v = client.recv();
        assert_eq!(op_of(&v), "stats");
        assert_eq!(field(&v, "offered"), Some(&JsonValue::Num(1.0)));
        assert_eq!(field(&v, "admitted"), Some(&JsonValue::Num(1.0)));
        assert_eq!(field(&v, "active_sessions"), Some(&JsonValue::Num(1.0)));
        assert_eq!(field(&v, "telemetry_dropped"), Some(&JsonValue::Num(0.0)));
        match field(&v, "reserved_bps") {
            Some(JsonValue::Num(x)) => assert!(*x >= 64_000.0, "reserved {x}"),
            other => panic!("bad reserved_bps: {other:?}"),
        }

        // Out-of-range admit: error, still connected.
        client.send(
            "{\"op\":\"admit\",\"source\":99,\"group\":0,\"demand_bps\":1,\"holding_secs\":1}",
        );
        assert_eq!(op_of(&client.recv()), "error");

        // Graceful exit over the wire.
        client.send("{\"op\":\"shutdown\"}");
        assert_eq!(op_of(&client.recv()), "shutting_down");
    });

    assert_eq!(report.submitted, 1);
    assert_eq!(report.decided, 1);
    assert_eq!(report.metrics.offered, 1);
    assert_eq!(report.metrics.admitted, 1);
    assert_eq!(report.metrics.leaked_hold_bps, 0);
    assert_eq!(report.metrics.leaked_bandwidth_bps, 0);
}

#[test]
fn unix_socket_round_trip() {
    let config = service_config(SystemSpec::dac(PolicySpec::Ed, 2));
    let options = ServeOptions {
        speed: 50.0,
        tick: Duration::from_millis(2),
        ..ServeOptions::default()
    };
    let path =
        std::env::temp_dir().join(format!("anycast-daemon-test-{}.sock", std::process::id()));
    let endpoint = Endpoint::Unix(path.clone());

    let (report, ()) = with_daemon(&endpoint, &config, &options, |_| {
        let stream = UnixStream::connect(&path).unwrap();
        let mut client = Client {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        };
        client.send(
            "{\"op\":\"admit\",\"source\":3,\"group\":0,\"demand_bps\":64000,\"holding_secs\":60}",
        );
        let v = client.recv();
        assert_eq!(op_of(&v), "decision");
        client.send("{\"op\":\"shutdown\"}");
        assert_eq!(op_of(&client.recv()), "shutting_down");
    });
    assert_eq!(report.submitted, 1);
    assert!(!path.exists(), "socket file must be unlinked on shutdown");
}

/// Satellite 2: shutting down with asynchronous two-phase setups in
/// flight must release every pending hold (zero leak) and flush the
/// telemetry stream.
#[test]
fn graceful_shutdown_drains_two_phase_holds_and_flushes_telemetry() {
    // Slow signalling (0.5 s/hop at 1x speed): setups submitted just
    // before shutdown cannot complete first, so holds are pending when
    // the drain runs.
    let config = service_config(SystemSpec::dac(PolicySpec::Ed, 2)).with_signaling(
        SignalingMode::TwoPhase(TwoPhaseConfig {
            per_hop_delay_secs: 0.5,
            ..TwoPhaseConfig::default()
        }),
    );
    let options = ServeOptions {
        speed: 1.0,
        tick: Duration::from_millis(2),
        telemetry: Some(std::env::temp_dir().join(format!(
            "anycast-daemon-shutdown-{}.jsonl",
            std::process::id()
        ))),
        ..ServeOptions::default()
    };
    let telemetry_path = options.telemetry.clone().unwrap();
    let (report, ()) = with_daemon(&loopback(), &config, &options, |addr| {
        let mut client = connect(addr);
        for source in [1, 3, 5, 7] {
            client.send(&format!(
                "{{\"op\":\"admit\",\"source\":{source},\"group\":0,\"demand_bps\":64000,\"holding_secs\":600}}"
            ));
        }
        // The setups are now in flight (0.5 s/hop ≫ the few ms elapsed);
        // stats must show pending holds before any decision lands.
        client.send("{\"op\":\"stats\"}");
        let v = client.recv();
        assert_eq!(op_of(&v), "stats");
        match field(&v, "setups_in_flight") {
            Some(JsonValue::Num(x)) => assert!(*x >= 1.0, "no setup in flight: {x}"),
            other => panic!("bad setups_in_flight: {other:?}"),
        }
        match field(&v, "pending_hold_bps") {
            Some(JsonValue::Num(x)) => assert!(*x > 0.0, "no pending hold bandwidth: {x}"),
            other => panic!("bad pending_hold_bps: {other:?}"),
        }
        client.send("{\"op\":\"shutdown\"}");
        assert_eq!(op_of(&client.recv()), "shutting_down");
    });

    assert_eq!(report.submitted, 4);
    assert!(report.metrics.holds_placed >= 1, "test must exercise holds");
    // The zero-leak guarantee: every pending hold released, ledger clean.
    assert_eq!(report.metrics.leaked_hold_bps, 0);
    assert_eq!(report.metrics.leaked_bandwidth_bps, 0);
    // Telemetry flushed and parseable; the accounting invariant holds.
    assert_eq!(report.telemetry_dropped, 0);
    let text = std::fs::read_to_string(&telemetry_path).unwrap();
    let lines = text.lines().count() as u64;
    assert!(lines > 0, "telemetry stream must not be empty");
    for line in text.lines() {
        parse(line).unwrap();
    }
    assert!(
        text.lines().any(|l| l.contains("hold_placed")),
        "two-phase run must stream hold telemetry"
    );
    std::fs::remove_file(&telemetry_path).ok();
}

/// Malformed client input — wire garbage over the socket and broken trace
/// rows through the replay path — must come back as protocol/validation
/// errors; the engine thread never panics and the service stays up.
#[test]
fn malformed_client_input_never_panics_the_engine() {
    use anycast_daemon::{read_trace, replay_trace};
    use anycast_telemetry::NullRecorder;

    let topo = topologies::mci();
    let config = service_config(SystemSpec::dac(PolicySpec::wd_dh_default(), 2));
    let options = ServeOptions {
        speed: 50.0,
        tick: Duration::from_millis(2),
        ..ServeOptions::default()
    };
    let (report, ()) = with_daemon(&loopback(), &config, &options, |addr| {
        let mut client = connect(addr);
        // Every hostile line draws an error response, never a crash:
        // garbage bytes, wrong types, zero/negative/non-finite numerics,
        // out-of-range indices.
        for bad in [
            "}{ not json at all",
            "[1,2,3]",
            "{\"op\":\"admit\"}",
            "{\"op\":\"admit\",\"source\":1,\"group\":0,\"demand_bps\":0,\"holding_secs\":10}",
            "{\"op\":\"admit\",\"source\":1,\"group\":0,\"demand_bps\":64000,\"holding_secs\":0}",
            "{\"op\":\"admit\",\"source\":1,\"group\":0,\"demand_bps\":64000,\"holding_secs\":-5}",
            "{\"op\":\"admit\",\"source\":1,\"group\":99,\"demand_bps\":64000,\"holding_secs\":10}",
            "{\"op\":\"admit\",\"source\":\"x\",\"group\":0,\"demand_bps\":64000,\"holding_secs\":10}",
        ] {
            client.send(bad);
            assert_eq!(op_of(&client.recv()), "error", "line survived: {bad}");
        }
        // The engine is still healthy: a valid admit round-trips.
        client.send(
            "{\"op\":\"admit\",\"source\":1,\"group\":0,\"demand_bps\":64000,\"holding_secs\":60}",
        );
        assert_eq!(op_of(&client.recv()), "decision");
        client.send("{\"op\":\"shutdown\"}");
        assert_eq!(op_of(&client.recv()), "shutting_down");
    });
    assert_eq!(
        report.submitted, 1,
        "only the valid request reaches the engine"
    );
    assert_eq!(report.metrics.leaked_hold_bps, 0);
    assert_eq!(report.metrics.leaked_bandwidth_bps, 0);

    // The replay path rejects broken trace rows the same way: errors with
    // line numbers, never an engine panic.
    let path = std::env::temp_dir().join(format!(
        "anycast-daemon-malformed-replay-{}.jsonl",
        std::process::id()
    ));
    let header = "{\"kind\":\"anycast-trace\",\"version\":1,\"seed\":7,\"lambda\":1,\
                  \"sources\":9,\"groups\":1,\"horizon_secs\":3600}";
    for (row, needle) in [
        (
            "{\"at\":1,\"source\":0,\"group\":0,\"holding_secs\":0,\"demand_bps\":64000}",
            "holding_secs",
        ),
        (
            "{\"at\":1,\"source\":0,\"group\":0,\"holding_secs\":10,\"demand_bps\":0}",
            "demand_bps",
        ),
        (
            "{\"at\":999999,\"source\":0,\"group\":0,\"holding_secs\":10,\"demand_bps\":64000}",
            "past the recorded horizon",
        ),
    ] {
        std::fs::write(&path, format!("{header}\n{row}\n")).unwrap();
        let err = read_trace(&path).unwrap_err().to_string();
        assert!(err.contains(":2:") && err.contains(needle), "{row}: {err}");
        let err = replay_trace(&topo, &config, &path, NullRecorder)
            .unwrap_err()
            .to_string();
        assert!(err.contains(needle), "replay {row}: {err}");
    }
    std::fs::remove_file(&path).ok();
}

fn str_field(v: &JsonValue, key: &str) -> String {
    match field(v, key) {
        Some(JsonValue::Str(s)) => s.clone(),
        other => panic!("missing string field {key}: {other:?}"),
    }
}

#[test]
fn wire_errors_carry_reason_codes_and_the_offending_line() {
    let config = service_config(SystemSpec::dac(PolicySpec::wd_dh_default(), 2));
    let options = ServeOptions {
        speed: 50.0,
        tick: Duration::from_millis(2),
        ..ServeOptions::default()
    };
    let (report, ()) = with_daemon(&loopback(), &config, &options, |addr| {
        let mut client = connect(addr);

        // Unknown op: the reason names it and the echo shows the line.
        client.send("{\"op\":\"frobnicate\"}");
        let v = client.recv();
        assert_eq!(op_of(&v), "error");
        assert_eq!(str_field(&v, "reason"), "unknown_op");
        assert!(str_field(&v, "line").contains("frobnicate"));

        // Unparseable JSON: reason `parse`.
        client.send("}{ garbage");
        let v = client.recv();
        assert_eq!(op_of(&v), "error");
        assert_eq!(str_field(&v, "reason"), "parse");
        assert!(str_field(&v, "line").contains("garbage"));

        // A line past the hard length guard: reason `line_too_long`,
        // echo truncated, connection still alive.
        let huge = format!("{{\"op\":\"admit\",\"pad\":\"{}\"}}", "y".repeat(9_000));
        client.send(&huge);
        let v = client.recv();
        assert_eq!(op_of(&v), "error");
        assert_eq!(str_field(&v, "reason"), "line_too_long");
        assert!(str_field(&v, "line").len() <= 120);

        // Indices outside the scenario: reason `out_of_range`.
        client.send(
            "{\"op\":\"admit\",\"source\":99,\"group\":0,\"demand_bps\":1,\"holding_secs\":1}",
        );
        let v = client.recv();
        assert_eq!(op_of(&v), "error");
        assert_eq!(str_field(&v, "reason"), "out_of_range");

        // The connection survived all four insults.
        client.send(
            "{\"op\":\"admit\",\"source\":1,\"group\":0,\"demand_bps\":64000,\"holding_secs\":60}",
        );
        assert_eq!(op_of(&client.recv()), "decision");
        client.send("{\"op\":\"shutdown\"}");
        assert_eq!(op_of(&client.recv()), "shutting_down");
    });

    assert_eq!(report.counters.wire_errors, 4);
    assert_eq!(report.submitted, 1);
    assert_eq!(report.metrics.leaked_hold_bps, 0);
    assert_eq!(report.metrics.leaked_bandwidth_bps, 0);
}

#[test]
fn wire_teardown_reclaims_a_live_session_exactly_once() {
    let config = service_config(SystemSpec::dac(PolicySpec::wd_dh_default(), 2));
    let options = ServeOptions {
        speed: 50.0,
        tick: Duration::from_millis(2),
        ..ServeOptions::default()
    };
    let (report, ()) = with_daemon(&loopback(), &config, &options, |addr| {
        let mut client = connect(addr);

        client.send(
            "{\"op\":\"admit\",\"source\":1,\"group\":0,\"demand_bps\":64000,\"holding_secs\":600}",
        );
        let v = client.recv();
        assert_eq!(op_of(&v), "decision");
        assert_eq!(field(&v, "admitted"), Some(&JsonValue::Bool(true)));
        let session = match field(&v, "session") {
            Some(JsonValue::Num(s)) => *s as u64,
            other => panic!("admitted decision without session: {other:?}"),
        };

        // First teardown reclaims the reservation.
        client.send(&format!("{{\"op\":\"teardown\",\"session\":{session}}}"));
        let v = client.recv();
        assert_eq!(op_of(&v), "torn_down");
        assert_eq!(field(&v, "reclaimed"), Some(&JsonValue::Bool(true)));

        // The bandwidth is back immediately, long before the holding
        // deadline.
        client.send("{\"op\":\"stats\"}");
        let v = client.recv();
        assert_eq!(field(&v, "active_sessions"), Some(&JsonValue::Num(0.0)));
        assert_eq!(field(&v, "reserved_bps"), Some(&JsonValue::Num(0.0)));

        // A duplicate teardown and a teardown for a session that never
        // existed are both harmless misses.
        client.send(&format!("{{\"op\":\"teardown\",\"session\":{session}}}"));
        let v = client.recv();
        assert_eq!(field(&v, "reclaimed"), Some(&JsonValue::Bool(false)));
        client.send("{\"op\":\"teardown\",\"session\":424242}");
        let v = client.recv();
        assert_eq!(field(&v, "reclaimed"), Some(&JsonValue::Bool(false)));

        client.send("{\"op\":\"shutdown\"}");
        assert_eq!(op_of(&client.recv()), "shutting_down");
    });

    assert_eq!(report.counters.torn_down, 1);
    assert_eq!(report.counters.teardown_misses, 2);
    assert_eq!(report.metrics.leaked_hold_bps, 0);
    assert_eq!(report.metrics.leaked_bandwidth_bps, 0);
}

/// The crash/restart contract: a client that dies mid-stream and comes
/// back with the same correlation tokens gets **exactly one verdict per
/// request** — replayed from the journal when the decision landed while
/// it was gone, or delivered to the new connection when still in flight.
#[test]
fn reconnect_with_tokens_resumes_exactly_one_verdict_per_request() {
    // Slow two-phase signalling so decisions are still in flight when
    // the first connection dies.
    let config = service_config(SystemSpec::dac(PolicySpec::Ed, 2)).with_signaling(
        SignalingMode::TwoPhase(TwoPhaseConfig {
            per_hop_delay_secs: 0.3,
            ..TwoPhaseConfig::default()
        }),
    );
    let options = ServeOptions {
        speed: 1.0,
        tick: Duration::from_millis(2),
        ..ServeOptions::default()
    };
    let (report, ()) = with_daemon(&loopback(), &config, &options, |addr| {
        // First life: four tokened admits, then the process "crashes"
        // (connection dropped without reading a single verdict).
        {
            let mut client = connect(addr);
            for t in 0..4 {
                client.send(&format!(
                    "{{\"op\":\"admit\",\"source\":{t},\"group\":0,\"demand_bps\":64000,\
                     \"holding_secs\":600,\"token\":\"boot-{t}\"}}"
                ));
            }
            // Not before the daemon has taken them in, though: `stats`
            // answers after dispatching everything sent ahead of it, and
            // at 0.3 s per hop no verdict can come first. Without this the
            // second life's resumes can overtake admits still sitting in
            // this connection's reader thread and rightly draw `unknown`.
            client.send("{\"op\":\"stats\"}");
            assert_eq!(op_of(&client.recv()), "stats");
        }

        // Second life: same tokens, new connection.
        let mut client = connect(addr);
        for t in 0..4 {
            client.send(&format!("{{\"op\":\"resume\",\"token\":\"boot-{t}\"}}"));
        }
        // Read until every token has a verdict: `decision` lines count,
        // `resumed`/`pending` status lines do not. Each token's first
        // verdict line is kept as sent.
        let mut verdicts: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
        let mut first: std::collections::HashMap<String, String> = std::collections::HashMap::new();
        while verdicts.len() < 4 || verdicts.values().sum::<u64>() < 4 {
            let line = client.recv_line();
            let v = parse(&line).unwrap();
            match op_of(&v).as_str() {
                "decision" => {
                    let token = str_field(&v, "token");
                    *verdicts.entry(token.clone()).or_insert(0) += 1;
                    first.entry(token).or_insert(line);
                }
                "resumed" => {
                    let state = str_field(&v, "state");
                    assert!(
                        state == "pending",
                        "token must not be unknown after a crash: {state}"
                    );
                }
                other => panic!("unexpected response {other}"),
            }
        }
        for t in 0..4 {
            assert_eq!(
                verdicts.get(&format!("boot-{t}")).copied(),
                Some(1),
                "exactly one verdict per request: {verdicts:?}"
            );
        }

        // Resuming a settled token replays the journaled verdict
        // verbatim instead of minting a second one: the bytes first sent.
        client.send("{\"op\":\"resume\",\"token\":\"boot-0\"}");
        assert_eq!(client.recv_line(), first["boot-0"]);

        // And a duplicate *submit* of a settled token is answered from
        // the journal too — the engine never sees a fifth request.
        client.send(
            "{\"op\":\"admit\",\"source\":0,\"group\":0,\"demand_bps\":64000,\
             \"holding_secs\":600,\"token\":\"boot-1\"}",
        );
        assert_eq!(client.recv_line(), first["boot-1"]);

        client.send("{\"op\":\"shutdown\"}");
        assert_eq!(op_of(&client.recv()), "shutting_down");
    });

    assert_eq!(report.submitted, 4, "the engine decided each request once");
    assert_eq!(report.decided, 4);
    assert_eq!(report.counters.duplicates, 1);
    assert!(report.counters.resumed >= 5);
    assert_eq!(report.metrics.leaked_hold_bps, 0);
    assert_eq!(report.metrics.leaked_bandwidth_bps, 0);
}

/// A burst that engages shedding must not leave it engaged: once the
/// backlog has drained the daemon decides again, for every connection.
#[test]
fn shedding_releases_once_the_burst_has_drained() {
    const CONNECTIONS: usize = 4;
    const BURST: usize = 100;
    let admit =
        "{\"op\":\"admit\",\"source\":1,\"group\":0,\"demand_bps\":64000,\"holding_secs\":10}";

    let config = service_config(SystemSpec::dac(PolicySpec::wd_dh_default(), 2));
    let options = ServeOptions {
        speed: 200.0,
        tick: Duration::from_millis(2),
        window_secs: Some(300.0),
        overload: OverloadOptions {
            admit_spin: Duration::from_millis(1),
            ..OverloadOptions::default().with_queue_limit(64)
        },
        ..ServeOptions::default()
    };
    let (report, (overloaded, released, after)) =
        with_daemon(&loopback(), &config, &options, |addr| {
            let mut clients: Vec<_> = (0..CONNECTIONS).map(|_| connect(addr)).collect();

            // 400 admits land at once on a queue of 64 served at 1 ms each.
            let burst = format!("{admit}\n").repeat(BURST);
            for client in &mut clients {
                client.writer.write_all(burst.as_bytes()).unwrap();
            }
            let mut overloaded = 0u64;
            for client in &mut clients {
                for _ in 0..BURST {
                    overloaded += u64::from(op_of(&client.recv()) == "overloaded");
                }
            }

            // Every reply is in, so the backlog is gone. The flag is
            // re-evaluated once per loop iteration, after inbound is handled:
            // a `stats` or two may still report the previous evaluation.
            let released = (0..10).any(|_| {
                clients[0].send("{\"op\":\"stats\"}");
                field(&clients[0].recv(), "shedding") == Some(&JsonValue::Bool(false))
            });
            let after: Vec<String> = clients
                .iter_mut()
                .map(|client| {
                    client.send(admit);
                    op_of(&client.recv())
                })
                .collect();

            clients[0].send("{\"op\":\"shutdown\"}");
            assert_eq!(op_of(&clients[0].recv()), "shutting_down");
            (overloaded, released, after)
        });

    let c = &report.counters;
    assert!(overloaded > 0, "the burst must overflow the queue");
    assert!(c.shed_engaged >= 1, "the burst must engage the controller");
    assert!(released, "still shedding with an empty queue");
    assert_eq!(after, ["decision"; CONNECTIONS]);
    assert_eq!(c.shed, overloaded);
    assert_eq!(
        c.admits_received,
        report.submitted + c.duplicates + c.shed + c.rejected_shutdown
    );
    assert_eq!(report.metrics.leaked_bandwidth_bps, 0);
}
