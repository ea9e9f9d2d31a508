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

#[test]
fn admit_stats_shutdown_over_tcp() {
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

    let report = std::thread::scope(|s| {
        let serve = s.spawn(|| {
            server
                .run(&topo, &config, &options, ShutdownFlag::new())
                .unwrap()
        });
        let mut client = BufReader::new(TcpStream::connect(addr).unwrap());

        let decision = round_trip(
            &mut client,
            r#"{"op":"admit","source":1,"group":0,"demand_bps":64000,"holding_secs":120}"#,
        );
        assert_eq!(field(&decision, "op"), &JsonValue::Str("decision".into()));
        assert_eq!(field(&decision, "admitted"), &JsonValue::Bool(true));

        let stats = round_trip(&mut client, r#"{"op":"stats"}"#);
        assert_eq!(field(&stats, "offered"), &JsonValue::Num(1.0));

        let bye = round_trip(&mut client, r#"{"op":"shutdown"}"#);
        assert_eq!(field(&bye, "op"), &JsonValue::Str("shutting_down".into()));
        serve.join().unwrap()
    });

    assert_eq!(report.decided, 1);
    assert_eq!(report.metrics.offered, 1);
    assert_eq!(report.metrics.leaked_hold_bps, 0);
    assert_eq!(report.metrics.leaked_bandwidth_bps, 0);
}
