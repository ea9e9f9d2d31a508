//! The service path under tier-1: one client over a real socket against the
//! live daemon loop — admit, stats, wire shutdown, nothing leaked.

use anycast::prelude::*;
use anycast::telemetry::json::{parse, JsonValue};
use anycast_daemon::{BoundServer, Endpoint, ServeOptions, ShutdownFlag};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Sends one request line and parses the one response line.
fn round_trip(stream: &mut BufReader<TcpStream>, request: &str) -> JsonValue {
    stream
        .get_mut()
        .write_all(format!("{request}\n").as_bytes())
        .unwrap();
    let mut line = String::new();
    stream.read_line(&mut line).unwrap();
    assert!(!line.is_empty(), "daemon closed the connection early");
    parse(line.trim()).unwrap()
}

fn field<'a>(v: &'a JsonValue, key: &str) -> &'a JsonValue {
    match v {
        JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
    .unwrap_or_else(|| panic!("no `{key}` in {v:?}"))
}

/// Runs the daemon on a loopback port for the duration of `client`, which
/// must end the session with a wire `shutdown`.
fn with_daemon(client: impl FnOnce(&mut BufReader<TcpStream>)) -> anycast_daemon::ServeReport {
    let topo = topologies::mci();
    let config =
        ExperimentConfig::paper_defaults(1.0, SystemSpec::dac(PolicySpec::wd_dh_default(), 2))
            .with_warmup_secs(0.0)
            .with_measure_secs(3_600.0)
            .with_seed(3);
    let options = ServeOptions {
        speed: 50.0,
        tick: Duration::from_millis(2),
        ..ServeOptions::default()
    };
    let server = BoundServer::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
    let addr = server.tcp_addr().unwrap();

    std::thread::scope(|s| {
        let serve = s.spawn(|| {
            server
                .run(&topo, &config, &options, ShutdownFlag::new())
                .unwrap()
        });
        let mut stream = BufReader::new(TcpStream::connect(addr).unwrap());
        client(&mut stream);
        let bye = round_trip(&mut stream, r#"{"op":"shutdown"}"#);
        assert_eq!(field(&bye, "op"), &JsonValue::Str("shutting_down".into()));
        serve.join().unwrap()
    })
}

const ADMIT: &str = r#"{"op":"admit","source":1,"group":0,"demand_bps":64000,"holding_secs":120}"#;

#[test]
fn admit_stats_shutdown_over_tcp() {
    let report = with_daemon(|client| {
        let decision = round_trip(client, ADMIT);
        assert_eq!(field(&decision, "op"), &JsonValue::Str("decision".into()));
        assert_eq!(field(&decision, "admitted"), &JsonValue::Bool(true));

        let stats = round_trip(client, r#"{"op":"stats"}"#);
        assert_eq!(field(&stats, "offered"), &JsonValue::Num(1.0));
    });

    assert_eq!(report.decided, 1);
    assert_eq!(report.metrics.offered, 1);
    assert_eq!(report.metrics.leaked_hold_bps, 0);
    assert_eq!(report.metrics.leaked_bandwidth_bps, 0);
}

/// A line nested 4 000 deep fits the wire's line limit and used to take
/// the reader thread's stack with it (one parser frame per level). It is
/// an ordinary parse error: answered, and the connection carries on.
#[test]
fn deeply_nested_line_is_a_parse_error() {
    let deep = format!(
        r#"{{"op":"stats","x":{}{}}}"#,
        "[".repeat(4_000),
        "]".repeat(4_000)
    );
    assert!(deep.len() < anycast_daemon::MAX_LINE_BYTES);
    let report = with_daemon(|client| {
        let error = round_trip(client, &deep);
        assert_eq!(field(&error, "op"), &JsonValue::Str("error".into()));
        assert_eq!(field(&error, "reason"), &JsonValue::Str("parse".into()));

        let decision = round_trip(client, ADMIT);
        assert_eq!(field(&decision, "op"), &JsonValue::Str("decision".into()));
    });
    assert_eq!(report.decided, 1);
}

/// A finite horizon ends the service by itself, with no client and no
/// shutdown request. The engine's own clock moves only when an event
/// pops, so the loop watches the wall clock: a 0.5 s horizon has no event
/// on it (the first refresh sweep is due at 30 s).
#[test]
fn an_idle_daemon_stops_at_its_horizon() {
    let topo = topologies::mci();
    let config =
        ExperimentConfig::paper_defaults(1.0, SystemSpec::dac(PolicySpec::wd_dh_default(), 2))
            .with_warmup_secs(0.0)
            .with_measure_secs(0.5)
            .with_seed(3);
    let options = ServeOptions::default();
    let server = BoundServer::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
    let shutdown = ShutdownFlag::new();
    let (done, stopped) = std::sync::mpsc::channel();
    let (topo, config, options) = (&topo, &config, &options);
    std::thread::scope(|s| {
        let flag = shutdown.clone();
        s.spawn(move || {
            let _ = done.send(server.run(topo, config, options, flag).unwrap());
        });
        let report = stopped.recv_timeout(Duration::from_secs(30));
        if report.is_err() {
            // Stop the server so the scope can join it, then fail.
            shutdown.request();
        }
        let report = report.expect("the daemon was still serving 30 s past its 0.5 s horizon");
        assert_eq!(report.submitted, 0);
        assert_eq!(report.metrics.leaked_hold_bps, 0);
        assert_eq!(report.metrics.leaked_bandwidth_bps, 0);
    });
}
