//! PR 9 daemon overload benchmark: sustained request rate and decision
//! latency against a live `anycast-daemon` service loop at 1×, 2× and 4×
//! its engine capacity, with and without the queue-depth shed controller,
//! written to `BENCH_pr9.json`.
//!
//! Capacity is made synthetic and explicit: every dispatched admit burns
//! a fixed `admit_spin` of engine-thread wall clock (standing in for a
//! heavier admission policy), so the engine sustains ≈ 1/spin requests
//! per second and the load factors mean something reproducible. An
//! open-loop client swarm then offers `factor × capacity` for a fixed
//! window over real TCP, and the harness reports, per cell:
//!
//! * offered and decided request rates;
//! * decision latency p50/p99 (the daemon's own `latency_us`, measured
//!   from reading the line to verdict delivery — queueing delay included);
//! * how many admits were refused `overloaded` (shed controller or hard
//!   queue bound) and how many the shutdown drain rejected.
//!
//! The gates: at every load factor with shedding enabled, latency p99
//! must stay under the structural bound `queue_limit × spin` with slack
//! — overload must surface as explicit refusals, not unbounded queueing
//! delay; at 2× and above the daemon must decide at least 0.7 times as
//! many requests per second with shedding as without — a controller that
//! bounds p99 by deciding nothing is not protection; and the
//! service-layer accounting identity must balance in every cell.

use anycast_bench::json::JsonValue;
use anycast_bench::stats::percentile;
use anycast_dac::experiment::{ExperimentConfig, SystemSpec};
use anycast_dac::policy::PolicySpec;
use anycast_daemon::{
    BoundServer, Endpoint, OverloadOptions, ServeOptions, ServeReport, ShutdownFlag,
};
use anycast_net::topologies;
use anycast_telemetry::json::parse;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Under overload, the least the decided rate with shedding may be as a
/// share of the rate without it. p99 alone is met by deciding nothing.
const MIN_DECIDED_SHARE: f64 = 0.7;

/// Sizing for one profile.
struct Profile {
    name: &'static str,
    /// Synthetic per-admit engine cost; capacity ≈ 1/spin req/s.
    admit_spin: Duration,
    /// Offered-load window per cell, wall seconds.
    window_secs: f64,
    /// Client connections spreading the offered load.
    connections: usize,
    /// Admission queue bound (shed watermarks scale from it).
    queue_limit: usize,
}

impl Profile {
    /// CI gate: 1 ms spin (≈1000 req/s capacity), 2 s windows.
    fn smoke() -> Self {
        Profile {
            name: "smoke",
            admit_spin: Duration::from_micros(1_000),
            window_secs: 2.0,
            connections: 4,
            queue_limit: 256,
        }
    }

    /// 0.5 ms spin (≈2000 req/s capacity), 6 s windows.
    fn quick() -> Self {
        Profile {
            name: "quick",
            admit_spin: Duration::from_micros(500),
            window_secs: 6.0,
            connections: 8,
            queue_limit: 512,
        }
    }

    /// The checked-in artifact: 12 s windows at quick's capacity.
    fn full() -> Self {
        Profile {
            name: "full",
            window_secs: 12.0,
            ..Profile::quick()
        }
    }
}

/// What one (factor, shedding) cell measured.
struct Cell {
    factor: f64,
    offered: u64,
    latencies_us: Vec<u64>,
    elapsed_secs: f64,
    report: ServeReport,
}

/// Runs one cell: a fresh daemon, an open-loop swarm at
/// `factor × capacity` for `window_secs`, a graceful shutdown.
fn run_cell(profile: &Profile, factor: f64, shedding: bool) -> Cell {
    let topo = topologies::mci();
    // Rolling mode: the bench window is wall time, not a scenario
    // horizon. High speed keeps holding times short so session state
    // churns instead of accumulating.
    let config =
        ExperimentConfig::paper_defaults(1.0, SystemSpec::dac(PolicySpec::wd_dh_default(), 2))
            .with_warmup_secs(0.0)
            .with_measure_secs(3_600.0)
            .with_seed(17);
    let options = ServeOptions {
        speed: 200.0,
        tick: Duration::from_millis(1),
        window_secs: Some(300.0),
        overload: OverloadOptions {
            admit_spin: profile.admit_spin,
            shed: shedding,
            ..OverloadOptions::default().with_queue_limit(profile.queue_limit)
        },
        ..ServeOptions::default()
    };
    let shutdown = ShutdownFlag::new();
    let server = BoundServer::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
    let addr = server.tcp_addr().unwrap().to_string();

    let capacity = 1.0 / profile.admit_spin.as_secs_f64();
    let rate_per_conn = factor * capacity / profile.connections as f64;
    // Pace in batches: sleeps of a few ms are dependable, sub-ms ones
    // are not.
    let batch = (rate_per_conn / 100.0).ceil().max(1.0) as usize;
    let batch_interval = Duration::from_secs_f64(batch as f64 / rate_per_conn);
    let window = Duration::from_secs_f64(profile.window_secs);

    let (report, offered, latencies, elapsed) = std::thread::scope(|s| {
        let serve = s.spawn(|| server.run(&topo, &config, &options, shutdown).unwrap());

        let started = Instant::now();
        let mut senders = Vec::new();
        for c in 0..profile.connections {
            let addr = addr.clone();
            senders.push(s.spawn(move || {
                let stream = TcpStream::connect(&addr).unwrap();
                let mut writer = stream.try_clone().unwrap();
                let reader = BufReader::new(stream);

                // Collect the daemon-reported decision latency of every
                // verdict that comes back on this connection.
                let collector = std::thread::spawn(move || {
                    let mut latencies = Vec::new();
                    for line in reader.lines() {
                        let Ok(line) = line else { break };
                        let Ok(v) = parse(line.trim()) else { continue };
                        if let JsonValue::Obj(pairs) = &v {
                            let op = pairs.iter().find(|(k, _)| k == "op");
                            if !matches!(op, Some((_, JsonValue::Str(s))) if s == "decision") {
                                continue;
                            }
                            if let Some((_, JsonValue::Num(us))) =
                                pairs.iter().find(|(k, _)| k == "latency_us")
                            {
                                latencies.push(*us as u64);
                            }
                        }
                    }
                    latencies
                });

                let source = 1 + (c % 8);
                let line = format!(
                    "{{\"op\":\"admit\",\"source\":{source},\"group\":0,\
                     \"demand_bps\":64000,\"holding_secs\":10}}\n"
                );
                let mut sent: u64 = 0;
                while started.elapsed() < window {
                    for _ in 0..batch {
                        if writer.write_all(line.as_bytes()).is_err() {
                            break;
                        }
                        sent += 1;
                    }
                    let _ = writer.flush();
                    std::thread::sleep(batch_interval);
                }
                // Keep the socket open: the tail of the queue decides
                // after the send window ends, and those (slowest)
                // verdicts must reach the collector or p99 would be
                // under-measured. The collector drains until the daemon
                // closes the connection at shutdown.
                (sent, collector, writer)
            }));
        }

        let mut offered = 0u64;
        let mut collectors = Vec::new();
        let mut held_open = Vec::new();
        for h in senders {
            let (sent, collector, writer) = h.join().unwrap();
            offered += sent;
            collectors.push(collector);
            held_open.push(writer);
        }
        // Let the queue drain before shutdown so the decided rate
        // reflects service, not the drain rejection.
        std::thread::sleep(Duration::from_millis(500));
        let elapsed = started.elapsed().as_secs_f64();

        let control = TcpStream::connect(&addr).unwrap();
        let mut cw = control.try_clone().unwrap();
        let mut cr = BufReader::new(control);
        cw.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        let mut ack = String::new();
        let _ = cr.read_line(&mut ack);

        let report = serve.join().unwrap();
        drop(held_open);
        let mut latencies = Vec::new();
        for c in collectors {
            latencies.extend(c.join().unwrap());
        }
        (report, offered, latencies, elapsed)
    });

    Cell {
        factor,
        offered,
        latencies_us: latencies,
        elapsed_secs: elapsed,
        report,
    }
}

fn main() {
    let mut profile = Profile::quick();
    let mut out = String::from("BENCH_pr9.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => profile = Profile::smoke(),
            "--quick" => profile = Profile::quick(),
            "--full" => profile = Profile::full(),
            "--out" => {
                out = args.next().unwrap_or_else(|| {
                    eprintln!("bench_pr9: --out needs a path");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                println!("usage: bench_pr9 [--smoke|--quick|--full] [--out PATH]");
                println!("  drives a live daemon at 1x/2x/4x engine capacity with and");
                println!("  without overload shedding, gates decision-latency p99 under");
                println!("  the structural queue bound and the decided rate under overload");
                println!("  against the unshed one, and writes {out}");
                return;
            }
            other => {
                eprintln!("bench_pr9: unknown argument `{other}` (try --help)");
                std::process::exit(2);
            }
        }
    }

    let capacity = 1.0 / profile.admit_spin.as_secs_f64();
    println!(
        "bench_pr9: profile={} capacity={capacity:.0} req/s queue_limit={} window={}s",
        profile.name, profile.queue_limit, profile.window_secs
    );

    // The structural latency ceiling with shedding: a queue never deeper
    // than its bound, drained at one admit per spin. Generous slack (4x)
    // absorbs scheduler noise; without a bound like this, overload p99
    // would scale with the *offered* load instead of the queue.
    let p99_bound_us =
        (profile.queue_limit as f64 * profile.admit_spin.as_secs_f64() * 1e6 * 4.0) as u64;

    let mut cells = Vec::new();
    let mut gate_failures = Vec::new();
    for &factor in &[1.0, 2.0, 4.0] {
        let mut decided_rate_shedding = 0.0;
        for &shedding in &[true, false] {
            let cell = run_cell(&profile, factor, shedding);
            let mut sorted = cell.latencies_us.clone();
            sorted.sort_unstable();
            let p50 = percentile(&sorted, 0.50);
            let p99 = percentile(&sorted, 0.99);
            let c = &cell.report.counters;

            // Accounting identity, every cell: nothing vanished.
            assert_eq!(
                c.admits_received,
                cell.report.submitted + c.duplicates + c.shed + c.rejected_shutdown,
                "cell factor={factor} shedding={shedding}: accounting does not balance"
            );

            let offered_rate = cell.offered as f64 / cell.elapsed_secs;
            let decided_rate = cell.report.decided as f64 / cell.elapsed_secs;
            println!(
                "  {factor:.0}x shed={} offered={offered_rate:.0}/s decided={decided_rate:.0}/s \
                 shed_count={} p50={p50}us p99={p99}us queue_peak={}",
                if shedding { "on " } else { "off" },
                c.shed,
                c.queue_peak
            );
            if shedding && !sorted.is_empty() && p99 > p99_bound_us {
                gate_failures.push(format!(
                    "factor={factor} p99={p99}us exceeds bound={p99_bound_us}us"
                ));
            }
            if shedding {
                decided_rate_shedding = decided_rate;
            } else if factor >= 2.0 && decided_rate_shedding < MIN_DECIDED_SHARE * decided_rate {
                gate_failures.push(format!(
                    "factor={factor} decided {decided_rate_shedding:.0}/s with shedding, under \
                     {MIN_DECIDED_SHARE} of the {decided_rate:.0}/s without"
                ));
            }
            cells.push(JsonValue::obj([
                ("load_factor", JsonValue::Num(factor)),
                ("shedding", JsonValue::Bool(shedding)),
                ("offered", JsonValue::Num(cell.offered as f64)),
                ("offered_per_sec", JsonValue::Num(offered_rate)),
                ("decided", JsonValue::Num(cell.report.decided as f64)),
                ("decided_per_sec", JsonValue::Num(decided_rate)),
                ("submitted", JsonValue::Num(cell.report.submitted as f64)),
                ("shed_count", JsonValue::Num(c.shed as f64)),
                (
                    "rejected_shutdown",
                    JsonValue::Num(c.rejected_shutdown as f64),
                ),
                ("queue_peak", JsonValue::Num(c.queue_peak as f64)),
                ("shed_engaged", JsonValue::Num(c.shed_engaged as f64)),
                ("latency_p50_us", JsonValue::Num(p50 as f64)),
                ("latency_p99_us", JsonValue::Num(p99 as f64)),
                (
                    "latency_samples",
                    JsonValue::Num(cell.latencies_us.len() as f64),
                ),
                ("factor_requested", JsonValue::Num(cell.factor)),
            ]));
        }
    }

    let doc = JsonValue::obj([
        ("bench", JsonValue::Str("pr9_daemon_overload".into())),
        ("profile", JsonValue::Str(profile.name.into())),
        ("capacity_per_sec", JsonValue::Num(capacity)),
        (
            "admit_spin_us",
            JsonValue::Num(profile.admit_spin.as_micros() as f64),
        ),
        ("queue_limit", JsonValue::Num(profile.queue_limit as f64)),
        ("connections", JsonValue::Num(profile.connections as f64)),
        ("window_secs", JsonValue::Num(profile.window_secs)),
        ("p99_bound_us", JsonValue::Num(p99_bound_us as f64)),
        ("cells", JsonValue::Arr(cells)),
    ]);
    match std::fs::write(&out, doc.render() + "\n") {
        Ok(()) => println!("wrote {out}"),
        Err(e) => {
            eprintln!("bench_pr9: cannot write {out}: {e}");
            std::process::exit(1);
        }
    }
    // The hard gate, last so the JSON survives for debugging a failure.
    assert!(
        gate_failures.is_empty(),
        "shedding did not protect the service under overload:\n  {}",
        gate_failures.join("\n  ")
    );
    println!(
        "bench_pr9: p99 stayed under {p99_bound_us}us in every shedding cell, and the decided \
         rate at 2x and 4x at or above {MIN_DECIDED_SHARE} of the unshed one"
    );
}
