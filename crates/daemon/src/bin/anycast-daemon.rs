//! `anycast-daemon` — run the DAC admission controller as a standalone
//! service on the paper's MCI backbone scenario.
//!
//! ```text
//! anycast-daemon --listen 127.0.0.1:4730 [options]
//! anycast-daemon --unix /run/anycast.sock [options]
//! ```
//!
//! This binary is the minimal deployment shell: MCI topology, paper
//! default group/sources, a small flag set. The `anycast serve`
//! subcommand exposes the full experiment configuration surface
//! (topologies, fault plans, two-phase signalling, …) over the same
//! service loop.

use anycast_dac::experiment::{ExperimentConfig, SystemSpec};
use anycast_dac::policy::PolicySpec;
use anycast_daemon::{install_signal_handler, BoundServer, Endpoint, ServeOptions, ShutdownFlag};
use anycast_net::topologies;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: anycast-daemon (--listen ADDR | --unix PATH) [options]

Runs the DAC admission controller as a long-lived service on the MCI
backbone scenario, speaking line-delimited JSON (admit/stats/shutdown).

options:
  --listen ADDR    TCP listen address, e.g. 127.0.0.1:4730 (port 0 = any)
  --unix PATH      Unix-domain socket path (instead of --listen)
  --system NAME    ed | wddh | wddb | sp | gdi (default wddh)
  --r N            retrial limit (default 2)
  --seed N         PRNG seed for selection/fault streams (default 1)
  --horizon SECS   service lifetime in simulated seconds (default 86400)
  --speed X        simulated seconds per real second (default 1)
  --tick-ms MS     engine tick while idle (default 5)
  --telemetry PATH stream telemetry events to PATH as JSONL
  --window SECS    rolling-horizon mode: serve forever, report trailing
                   admission stats over the last SECS simulated seconds
                   (--horizon is ignored)
  --queue-limit N  admission queue bound; shed watermarks scale with it
                   (default 1024)
  --no-shed        disable the hysteresis shed controller (the hard queue
                   bound still refuses admits when full)

SIGINT/SIGTERM or a {\"op\":\"shutdown\"} request drains in-flight work,
rejects queued-but-unserved admits, releases pending holds and exits
after printing final metrics and service counters.";

fn parse_flags(argv: Vec<String>) -> Result<(Endpoint, ExperimentConfig, ServeOptions), String> {
    let mut listen: Option<String> = None;
    let mut unix: Option<String> = None;
    let mut system = "wddh".to_string();
    let mut r: u32 = 2;
    let mut seed: u64 = 1;
    let mut horizon: f64 = 86_400.0;
    let mut options = ServeOptions::default();

    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--listen" => listen = Some(value("--listen")?),
            "--unix" => unix = Some(value("--unix")?),
            "--system" => system = value("--system")?,
            "--r" => r = parse_num(&value("--r")?, "--r")?,
            "--seed" => seed = parse_num(&value("--seed")?, "--seed")?,
            "--horizon" => horizon = parse_num(&value("--horizon")?, "--horizon")?,
            "--speed" => options.speed = parse_num(&value("--speed")?, "--speed")?,
            "--tick-ms" => {
                options.tick = Duration::from_millis(parse_num(&value("--tick-ms")?, "--tick-ms")?);
            }
            "--telemetry" => options.telemetry = Some(value("--telemetry")?.into()),
            "--window" => {
                let secs: f64 = parse_num(&value("--window")?, "--window")?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err(format!("--window must be positive seconds, got {secs}"));
                }
                options.window_secs = Some(secs);
            }
            "--queue-limit" => {
                let limit: usize = parse_num(&value("--queue-limit")?, "--queue-limit")?;
                if limit == 0 {
                    return Err("--queue-limit must be positive".into());
                }
                options.overload = options.overload.with_queue_limit(limit);
            }
            "--no-shed" => options.overload.shed = false,
            other => return Err(format!("unknown flag `{other}`\n\n{USAGE}")),
        }
    }
    let endpoint = match (listen, unix) {
        (Some(addr), None) => Endpoint::Tcp(addr),
        (None, Some(path)) => Endpoint::Unix(path.into()),
        (Some(_), Some(_)) => return Err("--listen and --unix are mutually exclusive".into()),
        (None, None) => return Err(format!("missing --listen or --unix\n\n{USAGE}")),
    };
    let system = match system.as_str() {
        "ed" => SystemSpec::dac(PolicySpec::Ed, r),
        "wddh" => SystemSpec::dac(PolicySpec::wd_dh_default(), r),
        "wddb" => SystemSpec::dac(PolicySpec::WdDb, r),
        "sp" => SystemSpec::ShortestPath,
        "gdi" => SystemSpec::GlobalDynamic,
        other => return Err(format!("unknown system `{other}`")),
    };
    if !(horizon.is_finite() && horizon > 0.0) {
        return Err(format!("--horizon must be positive seconds, got {horizon}"));
    }
    if !(options.speed.is_finite() && options.speed > 0.0) {
        return Err(format!("--speed must be positive, got {}", options.speed));
    }
    // A live service measures from t=0: no warm-up discard.
    let config = ExperimentConfig::paper_defaults(1.0, system)
        .with_seed(seed)
        .with_warmup_secs(0.0)
        .with_measure_secs(horizon);
    Ok((endpoint, config, options))
}

fn parse_num<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    raw.parse()
        .map_err(|e| format!("{flag}: cannot parse `{raw}`: {e}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run(argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("anycast-daemon: {message}");
            ExitCode::from(2)
        }
    }
}

fn run(argv: Vec<String>) -> Result<(), String> {
    let (endpoint, config, options) = parse_flags(argv)?;
    let topo = topologies::mci();
    let shutdown = ShutdownFlag::new();
    if !install_signal_handler() {
        eprintln!("anycast-daemon: signal handler not installed; use the wire shutdown op");
    }
    let server = BoundServer::bind(&endpoint).map_err(|e| format!("bind {endpoint:?}: {e}"))?;
    match (&endpoint, server.tcp_addr()) {
        (_, Some(addr)) => println!("listening on tcp {addr}"),
        (Endpoint::Unix(path), None) => println!("listening on unix {}", path.display()),
        _ => {}
    }
    println!(
        "system {} seed {} speed {}x horizon {}s",
        config.system.label(),
        config.seed,
        options.speed,
        config.measure_secs
    );
    let report = server
        .run(&topo, &config, &options, shutdown)
        .map_err(|e| format!("serve: {e}"))?;
    println!(
        "served {} requests, {} decisions routed",
        report.submitted, report.decided
    );
    let c = &report.counters;
    println!(
        "service: {} admits received, {} shed, {} duplicates, {} rejected at shutdown",
        c.admits_received, c.shed, c.duplicates, c.rejected_shutdown
    );
    println!(
        "service: {} resumed, {} torn down ({} misses), {} wire errors",
        c.resumed, c.torn_down, c.teardown_misses, c.wire_errors
    );
    println!(
        "service: queue peak {} journal peak {} (evicted {}), shed engaged {}x",
        c.queue_peak, c.journal_peak, c.journal_evicted, c.shed_engaged
    );
    if options.telemetry.is_some() {
        println!(
            "telemetry {} events written, {} dropped",
            report.telemetry_written, report.telemetry_dropped
        );
    }
    let m = &report.metrics;
    println!(
        "offered {} admitted {} AP {:.6}",
        m.offered, m.admitted, m.admission_probability
    );
    if m.leaked_hold_bps != 0 || m.leaked_bandwidth_bps != 0 {
        return Err(format!(
            "ledger leak at shutdown: {} bps holds, {} bps reservations",
            m.leaked_hold_bps, m.leaked_bandwidth_bps
        ));
    }
    Ok(())
}
