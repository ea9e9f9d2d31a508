//! Service-layer chaos soak: a deterministic hostile-client swarm
//! (connection churn, slow-loris, half-frames, malformed JSON, duplicate
//! submits, reconnect-resume, withheld teardowns) against a live rolling-
//! horizon daemon whose *engine* is simultaneously losing RSVP teardown
//! messages (§4.4 soft state must reclaim them).
//!
//! The assertions are the deployment guarantees, not behaviour details:
//! the bandwidth ledger closes at zero leak, queue and journal memory
//! stay within their configured bounds, and the service-layer accounting
//! identity holds — every validated admit is either dispatched, answered
//! from the journal, shed with an explicit `overloaded`, or rejected
//! with an explicit `shutting_down`. Nothing vanishes.

use anycast_chaos::{run_chaos_clients, ChaosClientPlan, FaultPlan};
use anycast_dac::experiment::{ExperimentConfig, SystemSpec};
use anycast_dac::policy::PolicySpec;
use anycast_daemon::{BoundServer, Endpoint, OverloadOptions, ServeOptions, ShutdownFlag};
use anycast_net::topologies;
use anycast_telemetry::json::{parse, JsonValue};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

fn field<'a>(v: &'a JsonValue, key: &str) -> Option<&'a JsonValue> {
    match v {
        JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn num(v: &JsonValue, key: &str) -> f64 {
    match field(v, key) {
        Some(JsonValue::Num(x)) => *x,
        other => panic!("missing numeric field {key}: {other:?}"),
    }
}

#[test]
fn soak_thousands_of_faulted_connections_leak_nothing() {
    let connections = 2_400;
    let topo = topologies::mci();
    // The engine loses 20% of its own teardown messages: wire-admitted
    // flows whose clients also vanish exercise the §4.4 soft-state path
    // end to end while the swarm hammers the socket.
    let mut faults = FaultPlan::none();
    faults.control.teardown_loss_probability = 0.2;
    let config =
        ExperimentConfig::paper_defaults(1.0, SystemSpec::dac(PolicySpec::wd_dh_default(), 2))
            .with_warmup_secs(0.0)
            .with_measure_secs(3_600.0)
            .with_seed(11)
            .with_faults(faults);
    let overload = OverloadOptions {
        journal_limit: 512,
        ..OverloadOptions::default()
    };
    let journal_limit = overload.journal_limit;
    let queue_limit = overload.queue_limit;
    let options = ServeOptions {
        speed: 50.0,
        tick: Duration::from_millis(2),
        window_secs: Some(120.0),
        overload,
        ..ServeOptions::default()
    };
    let shutdown = ShutdownFlag::new();
    let server = BoundServer::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
    let addr = server.tcp_addr().unwrap().to_string();

    let (report, swarm) = std::thread::scope(|s| {
        let serve = s.spawn(|| server.run(&topo, &config, &options, shutdown).unwrap());

        let plan = ChaosClientPlan {
            connections,
            workers: 8,
            seed: 23,
            source_count: 9,
            group_count: 1,
            demand_bps: 64_000,
            holding_secs: 20.0,
            read_timeout: Duration::from_secs(20),
        };
        let swarm = run_chaos_clients(&addr, &plan);

        // One well-behaved control connection closes the run: the stats
        // line must still parse and reflect a sane rolling window, then
        // shutdown drains the daemon.
        let stream = TcpStream::connect(&addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(b"{\"op\":\"stats\"}\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let stats = parse(line.trim()).unwrap();
        assert!(
            num(&stats, "window_secs") > 0.0,
            "rolling mode must report its window"
        );
        assert!(num(&stats, "queue_depth") <= num(&stats, "queue_limit"));
        assert!(num(&stats, "journal_size") <= journal_limit as f64);
        writer.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();

        (serve.join().unwrap(), swarm)
    });

    // The swarm really was a soak, and really was hostile.
    assert!(
        swarm.connections >= connections as u64 - 10,
        "swarm opened too few connections: {}",
        swarm.connections
    );
    assert!(swarm.connections >= 2_000, "soak floor is 2000 connections");
    assert!(swarm.churned > 0, "churn behaviour never ran");
    assert!(
        swarm.partial_frames > 0,
        "partial-frame behaviour never ran"
    );
    assert!(swarm.slow_loris > 0, "slow-loris behaviour never ran");
    assert!(swarm.malformed_sent > 0, "malformed behaviour never ran");
    assert!(swarm.duplicates_sent > 0, "duplicate behaviour never ran");
    assert!(swarm.resumes_sent > 0, "resume behaviour never ran");
    assert!(swarm.teardowns_sent > 0, "teardown behaviour never ran");
    assert!(
        swarm.teardowns_withheld > 0,
        "withheld-teardown behaviour never ran"
    );
    assert_eq!(swarm.read_timeouts, 0, "no client should ever time out");

    // The deployment guarantees.
    let m = &report.metrics;
    assert_eq!(m.leaked_hold_bps, 0, "pending holds leaked");
    assert_eq!(m.leaked_bandwidth_bps, 0, "reservations leaked");

    let c = &report.counters;
    assert!(
        c.queue_peak <= queue_limit as u64,
        "queue grew past its bound: {} > {queue_limit}",
        c.queue_peak
    );
    assert!(
        c.journal_peak <= journal_limit as u64,
        "journal grew past its bound: {} > {journal_limit}",
        c.journal_peak
    );
    assert!(
        c.journal_evicted > 0,
        "a {journal_limit}-entry journal under {} tokens must evict",
        swarm.admits_sent
    );

    // The accounting identity: every validated admit has exactly one
    // explicit fate.
    assert_eq!(
        c.admits_received,
        report.submitted + c.duplicates + c.shed + c.rejected_shutdown,
        "admit accounting does not balance: {c:?} vs submitted {}",
        report.submitted
    );
    // And the wire saw every one of them: what the clients finished
    // writing is exactly what the daemon validated.
    assert_eq!(
        c.admits_received,
        swarm.admits_sent + swarm.duplicates_sent,
        "daemon and swarm disagree on admits: {c:?} vs {swarm:?}"
    );

    // Wire teardown reconciliation: every reclaim the clients saw is
    // counted, and duplicates/unknowns were misses, not errors.
    assert_eq!(c.torn_down, swarm.teardowns_reclaimed);
    assert!(c.torn_down > 0, "no wire teardown ever reclaimed a session");
    assert!(c.resumed > 0, "no resume op reached the daemon");
    assert!(c.wire_errors > 0, "hostile lines must surface as errors");

    // The engine really decided things under all this (client-side
    // `decisions` also counts journal replays, so it is not comparable
    // one-to-one with `report.decided`).
    assert!(report.decided > 0);
    assert!(swarm.decisions > 0);
}
