//! The CLI subcommands.
//!
//! Each command declares its flags once, in `flags.rs`: the table its
//! parser and its `--help` both read. The CLI only parses; whether a
//! run's config is valid is [`ExperimentConfig::check`]'s call.

use crate::args::{parse_id_list, parse_range, Args};
use crate::flags::{
    COMMANDS, OVERVIEW, PREDICT, RECORD, REPLAY, SERVE, SIMULATE, SWEEP, TOPO, TRACE,
};
use crate::spec::{parse_system, parse_topology};
use anycast_analysis::scenario::{build_scenario, AnalyzedSystem, ScenarioSpec};
use anycast_analysis::{predict_ap, predict_ap_batch, BlockingModel};
use anycast_bench::{default_jobs, run_grid_traced, TracedCell};
use anycast_dac::experiment::{
    run_experiment_traced, ArrivalProcess, ExperimentConfig, SignalingMode, TwoPhaseConfig,
};
use anycast_dac::online::record_arrivals;
use anycast_dac::BackoffPolicy;
use anycast_daemon::{
    install_signal_handler, replay_trace, write_trace, BoundServer, Endpoint, ServeOptions,
    ShutdownFlag,
};
use anycast_net::{metrics, AnycastGroup, LinkId, NodeId, RouteTable, Topology};
use anycast_sim::SimRng;
use anycast_telemetry::export::{to_csv, to_jsonl};
use anycast_telemetry::{
    json, registry_from_events, Event as TelemetryEvent, MetricsRegistry, NullRecorder, SkipReason,
    StreamRecorder, TelemetryMode, DEFAULT_RING_CAPACITY,
};
use std::fmt::Display;
use std::str::FromStr;

/// Usage for a command (or the overview for anything else): its
/// description, then every flag of its table.
pub fn help(command: &str) -> String {
    let Some((_, table, about)) = COMMANDS.iter().find(|(name, ..)| *name == command) else {
        return OVERVIEW.to_string();
    };
    let mut text = format!("{about}\n\noptions:\n");
    for flag in table.iter().flat_map(|group| group.iter()) {
        let head = match flag.value {
            Some(shape) => format!("--{} {shape}", flag.name),
            None => format!("--{}", flag.name),
        };
        let lines = flag.help.replace('\n', &format!("\n{:33}", ""));
        text += &format!("  {head:<30} {lines}\n");
    }
    text
}

/// A `--group` or `--sources` list, if given.
type Nodes = Option<Vec<NodeId>>;

/// The placement flags [`common_config`] and [`predict`] share: whether
/// `--topology` is the MCI backbone, the topology, and the `--group` and
/// `--sources` lists as given.
fn placement(args: &Args) -> Result<(bool, Topology, Nodes, Nodes), String> {
    let spec = args.get_str("topology").unwrap_or("mci");
    let nodes = |name: &str| -> Result<Nodes, String> {
        let Some(raw) = args.get_str(name) else {
            return Ok(None);
        };
        Ok(Some(
            parse_id_list(raw)?.into_iter().map(NodeId::new).collect(),
        ))
    };
    Ok((
        spec == "mci",
        parse_topology(spec)?,
        nodes("group")?,
        nodes("sources")?,
    ))
}

/// Builds the topology and experiment configuration of the run flags
/// and has [`ExperimentConfig::check`] judge it. `default_system` is the
/// system used when `--system` is absent (a trace scenario picks its own).
fn common_config(
    args: &Args,
    lambda: f64,
    default_system: &str,
) -> Result<(Topology, ExperimentConfig), String> {
    if !(lambda.is_finite() && lambda > 0.0) {
        return Err(format!("arrival rate must be positive, got {lambda}"));
    }
    let system = parse_system(
        args.get_str("system").unwrap_or(default_system),
        args.get_or("r", 2)?,
        args.get_or("alpha", 0.5)?,
        args.get_or("multipath", 1)?,
    )?;
    let (on_mci, topo, group, sources) = placement(args)?;
    let mut config = ExperimentConfig::paper_defaults(lambda, system)
        .with_seed(args.get_or("seed", 1)?)
        .with_warmup_secs(args.get_or("warmup", 1_800.0)?)
        .with_measure_secs(args.get_or("measure", 3_600.0)?);
    if let Some(group) = group {
        config = config.with_group(group);
    }
    if let Some(sources) = sources {
        config = config.with_sources(sources);
    } else if !on_mci {
        // The paper's odd-router default only makes sense on the MCI
        // backbone; elsewhere default to every non-member node.
        let members = &config.group_members;
        let sources: Vec<NodeId> = topo.nodes().filter(|n| !members.contains(n)).collect();
        if sources.is_empty() {
            return Err("every node is a group member; no sources remain".to_string());
        }
        config = config.with_sources(sources);
    }
    if let Some(burstiness) = args.get("burstiness")? {
        config = config.with_arrivals(ArrivalProcess::Bursty {
            burstiness,
            mean_sojourn_secs: 60.0,
        });
    }
    if let Some(path) = args.get_str("faults") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read fault plan `{path}`: {e}"))?;
        let plan =
            anycast_chaos::spec::parse_fault_plan(&text).map_err(|e| format!("`{path}`: {e}"))?;
        config = config.with_faults(plan);
    }
    // Any of the three two-phase flags switches the engine from atomic to
    // latency-aware two-phase signalling.
    let delay = args.get("signaling-delay")?;
    let timeout = args.get("setup-timeout")?;
    let backoff = args.get_str("backoff").map(parse_backoff).transpose()?;
    if delay.is_some() || timeout.is_some() || backoff.is_some() {
        let default = TwoPhaseConfig::default();
        config = config.with_signaling(SignalingMode::TwoPhase(TwoPhaseConfig {
            per_hop_delay_secs: delay.unwrap_or(default.per_hop_delay_secs),
            setup_timeout_secs: timeout.unwrap_or(default.setup_timeout_secs),
            backoff: backoff.unwrap_or(default.backoff),
        }));
    }
    config.check(&topo)?;
    // The run builds these same routes, and panics on a source that cannot
    // reach a member; built here, that is an error naming the pair.
    let group =
        AnycastGroup::new("G0", config.group_members.iter().copied()).map_err(|e| e.to_string())?;
    RouteTable::for_sources(&topo, &group, config.sources.iter().copied())
        .map_err(|e| format!("cannot route group 0: {e}"))?;
    Ok((topo, config))
}

/// Parses `--backoff RETRANSMITS:BASE:MULT:CAP[:JITTER]` into a
/// [`BackoffPolicy`]. Omitted jitter keeps the default fraction.
fn parse_backoff(raw: &str) -> Result<BackoffPolicy, String> {
    fn field<T: FromStr<Err: Display>>(raw: &str, what: &str) -> Result<T, String> {
        raw.parse()
            .map_err(|e| format!("--backoff {what} `{raw}`: {e}"))
    }
    let (retransmits, base, multiplier, cap, jitter) = match raw.split(':').collect::<Vec<_>>()[..]
    {
        [r, b, m, c] => (r, b, m, c, None),
        [r, b, m, c, j] => (r, b, m, c, Some(j)),
        _ => {
            return Err(format!(
                "--backoff `{raw}` must be RETRANSMITS:BASE:MULT:CAP[:JITTER]"
            ))
        }
    };
    let default = BackoffPolicy::default();
    Ok(BackoffPolicy {
        max_retransmits: field(retransmits, "retransmits")?,
        base_secs: field(base, "base")?,
        multiplier: field(multiplier, "multiplier")?,
        max_backoff_secs: field(cap, "cap")?,
        jitter_frac: jitter.map_or(Ok(default.jitter_frac), |j| field(j, "jitter"))?,
    })
}

fn print_metrics(m: &anycast_dac::experiment::Metrics) {
    println!("system                {}", m.label);
    println!("lambda                {:.3} flows/s", m.lambda);
    println!("seed                  {}", m.seed);
    println!("offered               {}", m.offered);
    println!("admitted              {}", m.admitted);
    println!(
        "admission probability {:.6} ± {:.6}",
        m.admission_probability, m.ap_ci95
    );
    println!("mean tries/request    {:.4}", m.mean_tries);
    println!("messages/request      {:.2}", m.messages_per_request);
    println!("mean active flows     {:.1}", m.mean_active_flows);
    println!("network utilization   {:.4}", m.mean_network_utilization);
    println!("availability          {:.6}", m.availability);
    if m.outages > 0 || m.flows_killed_by_failure > 0 || m.orphaned_reservations > 0 {
        println!("outages completed     {}", m.outages);
        println!("mean recovery         {:.1} s", m.mean_recovery_secs);
        println!("flows killed by fault {}", m.flows_killed_by_failure);
        println!(
            "orphaned reservations {} ({} reclaimed)",
            m.orphaned_reservations, m.orphans_reclaimed
        );
        println!("leaked bandwidth      {} bps", m.leaked_bandwidth_bps);
    }
    if m.holds_placed > 0 || m.setups_completed > 0 {
        println!("setups completed      {}", m.setups_completed);
        println!("mean setup latency    {:.4} s", m.mean_setup_latency_secs);
        println!(
            "holds placed          {} ({} expired)",
            m.holds_placed, m.holds_expired
        );
        println!("retransmits           {}", m.retransmits);
        println!("signaling msgs lost   {}", m.signaling_messages_lost);
        println!("leaked holds          {} bps", m.leaked_hold_bps);
    }
    for (g, shares) in m.member_share.iter().enumerate() {
        let pretty: Vec<String> = shares.iter().map(|s| format!("{s:.3}")).collect();
        println!("member share (g{g})     [{}]", pretty.join(", "));
    }
}

/// Parses the shared `--reps`/`--jobs` pair and derives the replication
/// seed list: one run per substream of the base seed, so the set of seeds
/// is a pure function of `(--seed, --reps)` and never of scheduling.
///
/// `--reps 1` (the default) runs the base seed itself, so single runs are
/// byte-identical to the pre-`--reps` CLI.
fn replication_plan(args: &Args, base_seed: u64) -> Result<(Vec<u64>, usize), String> {
    let reps: usize = args.get_or("reps", 1)?;
    if reps == 0 {
        return Err("--reps must be at least 1".to_string());
    }
    let jobs: usize = args.get_or("jobs", default_jobs())?;
    if jobs == 0 {
        return Err("--jobs must be at least 1".to_string());
    }
    let seeds = if reps == 1 {
        vec![base_seed]
    } else {
        (0..reps as u64)
            .map(|i| SimRng::substream_seed(base_seed, i))
            .collect()
    };
    Ok((seeds, jobs))
}

fn print_replicated(rep: &anycast_bench::ReplicatedMetrics, reps: usize, base_seed: u64) {
    println!("system                {}", rep.label);
    println!("lambda                {:.3} flows/s", rep.lambda);
    println!("replications          {reps} (substreams of seed {base_seed})");
    println!(
        "admission probability {:.6} ± {:.6} (stderr across reps)",
        rep.admission_probability, rep.ap_stderr
    );
    println!("mean tries/request    {:.4}", rep.mean_tries);
    println!("messages/request      {:.2}", rep.messages_per_request);
    println!("network utilization   {:.4}", rep.mean_network_utilization);
}

/// The recorder a `--telemetry` switch asks for: the ring when given, a
/// [`NullRecorder`] otherwise (which records nothing and changes no result).
fn mode(telemetry: bool) -> TelemetryMode {
    if telemetry {
        TelemetryMode::ring()
    } else {
        TelemetryMode::Null
    }
}

/// One-line recap of what a ring recorder captured across the run's cells.
fn print_telemetry_summary(cells: &[TracedCell]) {
    let total: usize = cells.iter().map(|c| c.events.len()).sum();
    let mut setups = 0usize;
    let mut rejections = 0usize;
    for cell in cells {
        for ev in &cell.events {
            match ev.event.kind() {
                "setup" => setups += 1,
                "rejection" => rejections += 1,
                _ => {}
            }
        }
    }
    println!(
        "telemetry             {total} events captured ({setups} setups, {rejections} rejections)"
    );
}

/// `anycast simulate`.
pub fn simulate(raw: Vec<String>) -> Result<(), String> {
    let args = Args::parse(raw, SIMULATE)?;
    let lambda: f64 = args.require("lambda")?;
    let (topo, config) = common_config(&args, lambda, "wddh")?;
    let (seeds, jobs) = replication_plan(&args, config.seed)?;
    let telemetry = args.switch("telemetry");
    let configs = std::slice::from_ref(&config);
    let (summaries, cells) = run_grid_traced(&topo, configs, &seeds, jobs, mode(telemetry));
    match &cells[..] {
        [cell] => print_metrics(&cell.metrics),
        _ => print_replicated(&summaries[0], seeds.len(), config.seed),
    }
    if telemetry {
        print_telemetry_summary(&cells);
    }
    Ok(())
}

/// `anycast sweep`.
pub fn sweep(raw: Vec<String>) -> Result<(), String> {
    let args = Args::parse(raw, SWEEP)?;
    let lambdas = parse_range(&args.require::<String>("lambdas")?)?;
    let (topo, base) = common_config(&args, lambdas[0], "wddh")?;
    let (seeds, jobs) = replication_plan(&args, base.seed)?;
    let telemetry = args.switch("telemetry");
    if !args.switch("no-header") {
        println!(
            "{:>8} {:>10} {:>8} {:>9} {:>7}",
            "lambda", "AP", "tries", "msgs/req", "util"
        );
    }
    let configs: Vec<ExperimentConfig> = lambdas
        .iter()
        .map(|&lambda| {
            let mut config = base.clone();
            config.lambda = lambda;
            config
        })
        .collect();
    let (results, cells) = run_grid_traced(&topo, &configs, &seeds, jobs, mode(telemetry));
    for (lambda, m) in lambdas.iter().zip(&results) {
        println!(
            "{:>8.2} {:>10.6} {:>8.4} {:>9.2} {:>7.4}",
            lambda,
            m.admission_probability,
            m.mean_tries,
            m.messages_per_request,
            m.mean_network_utilization
        );
    }
    if telemetry {
        print_telemetry_summary(&cells);
    }
    Ok(())
}

/// `anycast trace`: run a preset (or customised) scenario with the ring
/// recorder attached and export the event stream for offline analysis.
pub fn trace(raw: Vec<String>) -> Result<(), String> {
    // The optional scenario preset is the one positional argument in the
    // CLI; peel it off before the flag parser (which rejects positionals).
    let mut raw = raw;
    let scenario = if raw.first().is_some_and(|a| !a.starts_with("--")) {
        raw.remove(0)
    } else {
        "saturated".to_string()
    };
    let (preset_lambda, preset_system) = match scenario.as_str() {
        // The paper's Figure 6 operating point, default multi-destination
        // policy.
        "paper" => (35.0, "wddh"),
        // Overload: plenty of rejections, so decision traces are dense.
        "saturated" => (50.0, "ed"),
        // Low load: mostly clean admissions and departures.
        "light" => (5.0, "wddh"),
        other => {
            return Err(format!(
                "unknown trace scenario `{other}` (expected paper, saturated or light)"
            ))
        }
    };
    let args = Args::parse(raw, TRACE)?;
    let check = args.switch("check");
    let lambda: f64 = args.get_or("lambda", preset_lambda)?;
    let (topo, config) = common_config(&args, lambda, preset_system)?;
    let (seeds, jobs) = replication_plan(&args, config.seed)?;
    let out_dir = args.get_str("out").unwrap_or("traces");
    let sample: f64 = args.get_or("sample", 60.0)?;
    if !(sample.is_finite() && sample > 0.0) {
        return Err(format!("--sample must be positive seconds, got {sample}"));
    }
    let (want_jsonl, want_csv) = match args.get_str("format").unwrap_or("jsonl") {
        "jsonl" => (true, false),
        "csv" => (false, true),
        "both" => (true, true),
        other => {
            return Err(format!(
                "--format must be jsonl, csv or both, got `{other}`"
            ))
        }
    };
    let capacity: usize = args.get_or("events", DEFAULT_RING_CAPACITY)?;
    if capacity == 0 {
        return Err("--events must be at least 1".to_string());
    }

    if let Some(path) = args.get_str("stream") {
        // Constant-memory export: events go straight to the JSONL file as
        // they happen instead of through the in-memory ring, so the run
        // length is bounded by disk, not by --events.
        if seeds.len() != 1 {
            return Err("--stream exports a single replication; drop --reps".to_string());
        }
        let mut rec = StreamRecorder::create_default(std::path::Path::new(path), seeds[0])
            .map_err(|e| format!("cannot create stream file `{path}`: {e}"))?
            .with_sample_interval(sample);
        let m = run_experiment_traced(&topo, &config, &mut rec);
        let lines = rec
            .finish()
            .map_err(|e| format!("stream writer for `{path}`: {e}"))?;
        println!("scenario              {scenario}");
        print_metrics(&m);
        println!("streamed              {lines} events");
        println!("wrote                 {path}");
        return Ok(());
    }

    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create output directory `{out_dir}`: {e}"))?;
    let mode = TelemetryMode::Ring {
        sample_interval_secs: Some(sample),
        capacity,
    };
    let (_, cells) = run_grid_traced(&topo, std::slice::from_ref(&config), &seeds, jobs, mode);

    let label = config.system.label();
    let mut registry = MetricsRegistry::new();
    let mut written: Vec<String> = Vec::new();
    let mut first_rejection = None;
    for cell in &cells {
        registry.merge(&registry_from_events(&label, &cell.events));
        if first_rejection.is_none() {
            first_rejection = cell.events.iter().find_map(|e| match &e.event {
                TelemetryEvent::Rejection {
                    request,
                    tries,
                    trace,
                } => Some((cell.seed, e.time_secs, *request, *tries, trace)),
                _ => None,
            });
        }
        let stem = format!("{out_dir}/trace_{scenario}_seed{}", cell.seed);
        if want_jsonl {
            let path = format!("{stem}.jsonl");
            let text = to_jsonl(cell.seed, &cell.events);
            if check {
                for (i, line) in text.lines().enumerate() {
                    json::parse(line)
                        .map_err(|e| format!("{path}: line {} is not valid JSON: {e}", i + 1))?;
                }
            }
            std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
            written.push(path);
        }
        if want_csv {
            let path = format!("{stem}.csv");
            std::fs::write(&path, to_csv(cell.seed, &cell.events))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            written.push(path);
        }
    }
    let metrics_path = format!("{out_dir}/metrics.json");
    std::fs::write(&metrics_path, registry.to_json().render() + "\n")
        .map_err(|e| format!("cannot write {metrics_path}: {e}"))?;
    written.push(metrics_path);

    println!("scenario              {scenario}");
    println!("system                {label}");
    println!("lambda                {lambda:.3} flows/s");
    println!("runs                  {}", cells.len());
    print_telemetry_summary(&cells);
    for path in &written {
        println!("wrote                 {path}");
    }
    let Some((seed, t, request, tries, trace)) = first_rejection else {
        println!("no rejections in this trace (try `saturated` or a higher --lambda)");
        return Ok(());
    };
    println!("first rejection       request {request} (seed {seed}, t={t:.2}s, {tries} tries)");
    let weights: Vec<String> = trace.weights.iter().map(|w| format!("{w:.4}")).collect();
    println!("  weights             [{}]", weights.join(", "));
    for step in &trace.steps {
        let why = match step.skip {
            SkipReason::LinkBlocked {
                link,
                hop_index,
                available_bps,
            } => format!("link_blocked at {link} hop {hop_index}, {available_bps} bps free"),
            SkipReason::NoFeasiblePath => "no_feasible_path".to_string(),
            SkipReason::NotSelected => "not_selected".to_string(),
        };
        println!(
            "  member {} (w={:.4})  {why}",
            step.member_index, step.weight
        );
    }
    Ok(())
}

/// `anycast record`: draw a config's complete arrival process and write
/// it as a replayable JSONL trace. No admission control runs.
pub fn record(raw: Vec<String>) -> Result<(), String> {
    let args = Args::parse(raw, RECORD)?;
    let lambda: f64 = args.require("lambda")?;
    let (_topo, config) = common_config(&args, lambda, "wddh")?;
    let out = args.get_str("out").unwrap_or("trace.jsonl");
    let arrivals = record_arrivals(&config);
    let written = write_trace(std::path::Path::new(out), &config, &arrivals)
        .map_err(|e| format!("cannot write trace `{out}`: {e}"))?;
    println!("seed                  {}", config.seed);
    println!("lambda                {:.3} flows/s", config.lambda);
    println!(
        "horizon               {:.1} s",
        config.warmup_secs + config.measure_secs
    );
    println!("arrivals              {written}");
    println!("wrote                 {out}");
    Ok(())
}

/// `anycast replay`: feed a recorded trace through the online engine.
/// Metrics go to stdout in exactly `simulate`'s format and auxiliary
/// lines to stderr, so a virtual-time replay's stdout diffs clean against
/// the offline run it reproduces.
pub fn replay(raw: Vec<String>) -> Result<(), String> {
    let args = Args::parse(raw, REPLAY)?;
    let lambda: f64 = args.require("lambda")?;
    let (topo, config) = common_config(&args, lambda, "wddh")?;
    let trace_path: String = args.require("trace")?;
    let path = std::path::Path::new(&trace_path);
    let outcome = match args.get_str("stream") {
        None => {
            let (outcome, _) = replay_trace(&topo, &config, path, NullRecorder)
                .map_err(|e| format!("replay `{trace_path}`: {e}"))?;
            outcome
        }
        Some(stream_path) => {
            let rec =
                StreamRecorder::create_default(std::path::Path::new(&stream_path), config.seed)
                    .map_err(|e| format!("cannot create stream file `{stream_path}`: {e}"))?;
            let (outcome, rec) = replay_trace(&topo, &config, path, rec)
                .map_err(|e| format!("replay `{trace_path}`: {e}"))?;
            let lines = rec
                .finish()
                .map_err(|e| format!("stream writer for `{stream_path}`: {e}"))?;
            eprintln!("streamed              {lines} events -> {stream_path}");
            outcome
        }
    };
    eprintln!(
        "replayed              {} arrivals from {trace_path} (recorded seed {})",
        outcome.arrivals, outcome.header.seed
    );
    eprintln!(
        "decisions             {} ({} admitted)",
        outcome.decisions.len(),
        outcome.decisions.iter().filter(|d| d.admitted).count()
    );
    print_metrics(&outcome.metrics);
    Ok(())
}

/// `anycast serve`: run the admission controller as a long-lived daemon
/// behind a TCP or Unix socket.
pub fn serve(raw: Vec<String>) -> Result<(), String> {
    let args = Args::parse(raw, SERVE)?;
    let lambda: f64 = args.get_or("lambda", 1.0)?;
    let (topo, config) = common_config(&args, lambda, "wddh")?;
    let speed: f64 = args.get_or("speed", 1.0)?;
    let tick_ms: u64 = args.get_or("tick-ms", 5)?;
    let window_secs: Option<f64> = args.get("window")?;
    let queue_limit: usize = args.get_or("queue-limit", 1024)?;
    if !(speed.is_finite() && speed > 0.0) {
        return Err(format!("--speed must be positive, got {speed}"));
    }
    if let Some(secs) = window_secs.filter(|secs| !(secs.is_finite() && *secs > 0.0)) {
        return Err(format!("--window must be positive seconds, got {secs}"));
    }
    if queue_limit == 0 {
        return Err("--queue-limit must be positive".to_string());
    }
    let endpoint = match (args.get_str("listen"), args.get_str("unix")) {
        (Some(addr), None) => Endpoint::Tcp(addr.to_string()),
        (None, Some(path)) => Endpoint::Unix(path.into()),
        (Some(_), Some(_)) => return Err("--listen and --unix are mutually exclusive".into()),
        (None, None) => return Err("missing --listen or --unix".into()),
    };
    let options = ServeOptions {
        speed,
        tick: std::time::Duration::from_millis(tick_ms),
        telemetry: args.get_str("stream").map(std::path::PathBuf::from),
        window_secs,
        overload: anycast_daemon::OverloadOptions::default().with_queue_limit(queue_limit),
    };
    let shutdown = ShutdownFlag::new();
    if !install_signal_handler() {
        eprintln!("anycast: signal handler not installed; use the wire shutdown op");
    }
    let server =
        BoundServer::bind(&endpoint).map_err(|e| format!("cannot bind {endpoint:?}: {e}"))?;
    match (&endpoint, server.tcp_addr()) {
        (_, Some(addr)) => println!("listening on tcp {addr}"),
        (Endpoint::Unix(path), None) => println!("listening on unix {}", path.display()),
        _ => {}
    }
    let lifetime = match window_secs {
        Some(window) => format!("rolling window {window}s"),
        None => format!("horizon {}s", config.warmup_secs + config.measure_secs),
    };
    println!(
        "system {} seed {} speed {speed}x {lifetime}",
        config.system.label(),
        config.seed
    );
    let report = server
        .run(&topo, &config, &options, shutdown)
        .map_err(|e| format!("serve: {e}"))?;
    println!(
        "served                {} requests ({} decisions routed)",
        report.submitted, report.decided
    );
    let c = &report.counters;
    println!(
        "service               {} admits, {} shed, {} duplicates, {} rejected at shutdown",
        c.admits_received, c.shed, c.duplicates, c.rejected_shutdown
    );
    println!(
        "service               {} resumed, {} torn down ({} misses), {} wire errors",
        c.resumed, c.torn_down, c.teardown_misses, c.wire_errors
    );
    println!(
        "service               queue peak {}, journal peak {} ({} evicted), shed engaged {}x",
        c.queue_peak, c.journal_peak, c.journal_evicted, c.shed_engaged
    );
    if options.telemetry.is_some() {
        println!(
            "telemetry             {} events written, {} dropped",
            report.telemetry_written, report.telemetry_dropped
        );
    }
    print_metrics(&report.metrics);
    let m = &report.metrics;
    if m.leaked_hold_bps != 0 || m.leaked_bandwidth_bps != 0 {
        return Err(format!(
            "ledger leak at shutdown: {} bps holds, {} bps reservations",
            m.leaked_hold_bps, m.leaked_bandwidth_bps
        ));
    }
    Ok(())
}

/// `anycast predict`: the Appendix-A analytic model for `--system ed1|sp`
/// (closed-form weights, milliseconds, no simulation at all).
pub fn predict(raw: Vec<String>) -> Result<(), String> {
    let args = Args::parse(raw, PREDICT)?;
    let lambdas = match (args.get_str("lambda"), args.get_str("lambdas")) {
        (Some(_), Some(_)) => {
            return Err("--lambda and --lambdas are mutually exclusive".to_string())
        }
        (Some(spec), None) | (None, Some(spec)) => parse_range(spec)?,
        (None, None) => return Err("one of --lambda or --lambdas is required".to_string()),
    };
    for &lambda in &lambdas {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(format!("--lambda must be positive, got {lambda}"));
        }
    }
    let jobs: usize = args.get_or("jobs", default_jobs())?;
    if jobs == 0 {
        return Err("--jobs must be at least 1".to_string());
    }
    let hot: usize = args.get_or("hot", 5)?;
    let (_, topo, group, sources) = placement(&args)?;
    let system = match args.get_str("system").unwrap_or("ed1") {
        "ed1" => AnalyzedSystem::Ed1,
        "sp" => AnalyzedSystem::Sp,
        other @ ("ed" | "wddh" | "wddb" | "gdi") => {
            return Err(format!(
                "--system {other} has no analytic model (ed1, sp); simulate it with \
                 `anycast sweep --system {other}`"
            ))
        }
        other => return Err(format!("unknown system `{other}` (expected ed1 or sp)")),
    };
    let model = match args.get_str("model").unwrap_or("erlang") {
        "erlang" => BlockingModel::ErlangB,
        "uaa" => BlockingModel::Uaa,
        other => {
            return Err(format!(
                "unknown blocking model `{other}` (expected erlang or uaa)"
            ))
        }
    };
    let spec_at = |lambda: f64| {
        let mut spec = ScenarioSpec::paper_defaults(lambda);
        if let Some(g) = &group {
            spec.group_members = g.clone();
        }
        if let Some(s) = &sources {
            spec.sources = s.clone();
        }
        spec
    };
    let probe = spec_at(lambdas[0]);
    let mut placed = probe.group_members.iter().chain(&probe.sources);
    if let Some(n) = placed.find(|n| !topo.contains_node(**n)) {
        let nodes = topo.node_count();
        return Err(format!("{n} is not a node of the topology ({nodes} nodes)"));
    }

    if let [lambda] = lambdas[..] {
        let scenario = build_scenario(&topo, &spec_at(lambda), system);
        let p = predict_ap(&scenario, model);
        println!("system                {system:?}");
        println!("model                 {model:?}");
        println!("lambda                {lambda:.3} flows/s");
        println!("admission probability {:.6}", p.admission_probability);
        println!(
            "fixed point           {} iterations, converged = {}",
            p.iterations, p.converged
        );
        println!("hottest links:");
        print_hot_links(&topo, &p.link_blocking, hot);
    } else {
        let cases: Vec<_> = lambdas
            .iter()
            .map(|&lambda| (build_scenario(&topo, &spec_at(lambda), system), model))
            .collect();
        let predictions = predict_ap_batch(jobs, &cases);
        println!("system {system:?}  model {model:?}  jobs {jobs}");
        println!(
            "{:>8}  {:>10}  {:>10}  {:>9}",
            "lambda", "admission", "iterations", "converged"
        );
        for (p, &lambda) in predictions.iter().zip(&lambdas) {
            println!(
                "{lambda:8.2}  {:10.6}  {:10}  {:9}",
                p.admission_probability, p.iterations, p.converged
            );
        }
        let top = predictions.last().expect("at least one lambda");
        println!("hottest links at lambda {:.2}:", lambdas[lambdas.len() - 1]);
        print_hot_links(&topo, &top.link_blocking, hot);
    }
    Ok(())
}

/// Prints the `hot` highest-blocking links of `blocking` on `topo`.
fn print_hot_links(topo: &Topology, blocking: &[f64], hot: usize) {
    let mut links: Vec<(usize, f64)> = blocking.iter().copied().enumerate().collect();
    links.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (l, b) in links.into_iter().take(hot) {
        let link = topo
            .link(LinkId::new(l as u32))
            .expect("blocking vector matches topology");
        println!(
            "  {} ({}-{}): blocking {:.6}",
            link.id(),
            link.a(),
            link.b(),
            b
        );
    }
}

/// `anycast topo`.
pub fn topo(raw: Vec<String>) -> Result<(), String> {
    let args = Args::parse(raw, TOPO)?;
    let spec = args.get_str("topology").unwrap_or("mci");
    let topo = parse_topology(spec)?;
    let m = metrics::analyze(&topo);
    println!("topology       {spec}");
    println!("nodes          {}", m.nodes);
    println!("links          {}", m.links);
    println!("mean degree    {:.3}", m.mean_degree);
    println!("degree range   {}..={}", m.min_degree, m.max_degree);
    match m.diameter {
        Some(d) => println!("diameter       {d}"),
        None => println!("diameter       (disconnected)"),
    }
    match m.mean_distance {
        Some(d) => println!("mean distance  {d:.3}"),
        None => println!("mean distance  (disconnected)"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn common_config_defaults_to_paper_setup() {
        let args = Args::parse(strs(&[]), SIMULATE).unwrap();
        let (topo, config) = common_config(&args, 20.0, "wddh").unwrap();
        assert_eq!(topo.node_count(), 19);
        assert_eq!(config.lambda, 20.0);
        assert_eq!(config.system.label(), "<WD/D+H,2>");
        assert_eq!(config.sources.len(), 9);
        assert_eq!(config.group_members.len(), 5);
    }

    #[test]
    fn non_mci_default_sources_are_non_members() {
        let args =
            Args::parse(strs(&["--topology", "ring:6", "--group", "0,3"]), SIMULATE).unwrap();
        let (_, config) = common_config(&args, 5.0, "wddh").unwrap();
        let sources: Vec<u32> = config.sources.iter().map(|n| n.raw()).collect();
        assert_eq!(sources, vec![1, 2, 4, 5]);
    }

    #[test]
    fn rejects_bad_common_options() {
        for (flags, needle) in [
            (vec!["--system", "bogus"], "unknown system"),
            (vec!["--burstiness", "2.5"], "burstiness"),
            (vec!["--group", "0,99"], "not in topology"),
            (vec!["--r", "0"], "--r"),
            (vec!["--measure", "0"], "measured period"),
            (vec!["--measure", "inf"], "measured period"),
            (vec!["--measure", "-5"], "measured period"),
            (vec!["--warmup", "nan"], "warm-up"),
            (vec!["--warmup", "-5"], "warm-up"),
            (vec!["--warmup", "inf"], "warm-up"),
        ] {
            let args = Args::parse(strs(&flags), SIMULATE).unwrap();
            let err = common_config(&args, 10.0, "wddh").unwrap_err();
            assert!(err.contains(needle), "{flags:?}: {err}");
        }
        let args = Args::parse(strs(&[]), SIMULATE).unwrap();
        assert!(common_config(&args, -1.0, "wddh").is_err());
    }

    #[test]
    fn simulate_runs_end_to_end() {
        simulate(strs(&[
            "--lambda",
            "3",
            "--system",
            "ed",
            "--warmup",
            "20",
            "--measure",
            "40",
        ]))
        .unwrap();
    }

    #[test]
    fn simulate_accepts_a_fault_plan() {
        let path = std::env::temp_dir().join("anycast_cli_faults_test.toml");
        std::fs::write(
            &path,
            "[links]\nmtbf_secs = 60.0\nmttr_secs = 20.0\n\n[control]\nteardown_loss_probability = 0.1\n",
        )
        .unwrap();
        simulate(strs(&[
            "--lambda",
            "3",
            "--system",
            "ed",
            "--warmup",
            "20",
            "--measure",
            "60",
            "--faults",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        std::fs::remove_file(&path).ok();
        // Unreadable and malformed plans are rejected with context.
        let err = simulate(strs(&["--lambda", "3", "--faults", "/no/such/plan.toml"])).unwrap_err();
        assert!(err.contains("cannot read fault plan"), "{err}");
        let bad = std::env::temp_dir().join("anycast_cli_faults_bad.toml");
        std::fs::write(&bad, "[bogus]\n").unwrap();
        let err =
            simulate(strs(&["--lambda", "3", "--faults", bad.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("unknown section"), "{err}");
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn sweep_runs_and_validates() {
        sweep(strs(&[
            "--lambdas",
            "3:6:3",
            "--system",
            "sp",
            "--warmup",
            "10",
            "--measure",
            "20",
        ]))
        .unwrap();
        assert!(sweep(strs(&["--lambdas", "3", "--lambda", "4"])).is_err());
        assert!(sweep(strs(&[])).is_err());
    }

    #[test]
    fn simulate_replications_and_jobs() {
        simulate(strs(&[
            "--lambda",
            "3",
            "--system",
            "ed",
            "--warmup",
            "10",
            "--measure",
            "20",
            "--reps",
            "2",
            "--jobs",
            "2",
        ]))
        .unwrap();
        assert!(simulate(strs(&["--lambda", "3", "--reps", "0"])).is_err());
        assert!(simulate(strs(&["--lambda", "3", "--jobs", "0"])).is_err());
    }

    #[test]
    fn sweep_accepts_jobs_and_reps() {
        sweep(strs(&[
            "--lambdas",
            "3:6:3",
            "--system",
            "sp",
            "--warmup",
            "10",
            "--measure",
            "20",
            "--reps",
            "2",
            "--jobs",
            "4",
        ]))
        .unwrap();
    }

    #[test]
    fn replication_seeds_are_substreams() {
        let args = Args::parse(strs(&["--reps", "3", "--jobs", "2"]), SIMULATE).unwrap();
        let (seeds, jobs) = replication_plan(&args, 42).unwrap();
        assert_eq!(jobs, 2);
        assert_eq!(
            seeds,
            vec![
                SimRng::substream_seed(42, 0),
                SimRng::substream_seed(42, 1),
                SimRng::substream_seed(42, 2)
            ]
        );
        // The default keeps the base seed itself for exact compatibility.
        let args = Args::parse(strs(&[]), SIMULATE).unwrap();
        let (seeds, _) = replication_plan(&args, 42).unwrap();
        assert_eq!(seeds, vec![42]);
    }

    #[test]
    fn predict_runs_and_validates() {
        predict(strs(&["--lambda", "20"])).unwrap();
        predict(strs(&[
            "--lambda", "20", "--system", "sp", "--model", "uaa",
        ]))
        .unwrap();
        assert!(predict(strs(&["--lambda", "20", "--system", "x"])).is_err());
        // The simulated systems have no analytic model: the error names `sweep`.
        let err = predict(strs(&["--lambda", "20", "--system", "wddh"])).unwrap_err();
        assert!(err.contains("anycast sweep --system wddh"), "{err}");
        assert!(predict(strs(&["--lambda", "20", "--model", "x"])).is_err());
        assert!(predict(strs(&["--lambda", "-3"])).is_err());
        assert!(predict(strs(&["--lambda", "20", "--group", "77"])).is_err());
        // The λ grid surface: exactly one of --lambda/--lambdas, jobs >= 1.
        assert!(predict(strs(&[])).is_err());
        assert!(predict(strs(&["--lambda", "5", "--lambdas", "5:10:5"])).is_err());
        assert!(predict(strs(&["--lambda", "20", "--jobs", "0"])).is_err());
    }

    #[test]
    fn predict_batches_lambda_grids() {
        predict(strs(&["--lambdas", "10:30:10", "--jobs", "2"])).unwrap();
        predict(strs(&[
            "--lambdas",
            "10:30:10",
            "--system",
            "sp",
            "--model",
            "uaa",
            "--hot",
            "3",
        ]))
        .unwrap();
    }

    #[test]
    fn topo_runs_and_validates() {
        topo(strs(&[])).unwrap();
        topo(strs(&["--topology", "grid:3x3"])).unwrap();
        assert!(topo(strs(&["--topology", "grid:zz"])).is_err());
        assert!(topo(strs(&["--nope", "1"])).is_err());
    }

    #[test]
    fn unknown_flags_rejected_per_command() {
        assert!(simulate(strs(&["--lambda", "3", "--wat", "1"])).is_err());
    }

    #[test]
    fn simulate_and_sweep_accept_telemetry_switch() {
        simulate(strs(&[
            "--lambda",
            "3",
            "--system",
            "ed",
            "--warmup",
            "10",
            "--measure",
            "20",
            "--telemetry",
        ]))
        .unwrap();
        sweep(strs(&[
            "--lambdas",
            "3",
            "--system",
            "sp",
            "--warmup",
            "10",
            "--measure",
            "20",
            "--telemetry",
        ]))
        .unwrap();
    }

    #[test]
    fn trace_writes_parseable_jsonl_with_rejections() {
        let dir = std::env::temp_dir().join("anycast_cli_trace_test");
        std::fs::remove_dir_all(&dir).ok();
        trace(strs(&[
            "saturated",
            "--warmup",
            "10",
            "--measure",
            "60",
            "--out",
            dir.to_str().unwrap(),
            "--format",
            "both",
            "--check",
        ]))
        .unwrap();
        let jsonl = std::fs::read_to_string(dir.join("trace_saturated_seed1.jsonl")).unwrap();
        assert!(
            jsonl.lines().any(|l| l.contains("\"kind\":\"rejection\"")),
            "saturated trace must contain at least one rejection"
        );
        for line in jsonl.lines() {
            json::parse(line).unwrap();
        }
        let csv = std::fs::read_to_string(dir.join("trace_saturated_seed1.csv")).unwrap();
        assert!(csv.starts_with("t,seed,kind"));
        let metrics = std::fs::read_to_string(dir.join("metrics.json")).unwrap();
        let parsed = json::parse(&metrics).unwrap();
        assert!(parsed.render().contains("rejections_total"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_accepts_two_phase_flags() {
        simulate(strs(&[
            "--lambda",
            "3",
            "--system",
            "ed",
            "--warmup",
            "10",
            "--measure",
            "30",
            "--signaling-delay",
            "0.02",
            "--setup-timeout",
            "0.5",
            "--backoff",
            "2:0.1:2:1",
        ]))
        .unwrap();
        // `inf` disables the setup timer entirely.
        simulate(strs(&[
            "--lambda",
            "3",
            "--system",
            "ed",
            "--warmup",
            "10",
            "--measure",
            "20",
            "--setup-timeout",
            "inf",
        ]))
        .unwrap();
    }

    #[test]
    fn two_phase_flags_validate() {
        let err = simulate(strs(&[
            "--lambda",
            "3",
            "--system",
            "sp",
            "--signaling-delay",
            "0.1",
        ]))
        .unwrap_err();
        assert!(err.contains("DAC system"), "{err}");
        for (flag, value, needle) in [
            ("--signaling-delay", "-1", "signalling delay"),
            ("--setup-timeout", "0", "setup timeout"),
            ("--backoff", "3:0.1:2", "backoff"),
            ("--backoff", "3:0.1:0.5:2", "backoff"),
            ("--backoff", "x:0.1:2:2", "backoff"),
        ] {
            let err = simulate(strs(&["--lambda", "3", flag, value])).unwrap_err();
            assert!(err.contains(needle), "{flag} {value}: {err}");
        }
    }

    #[test]
    fn signaling_faults_need_two_phase_signalling() {
        let path = std::env::temp_dir().join("anycast_cli_signaling_faults.toml");
        std::fs::write(
            &path,
            "[signaling]\npath_loss_probability = 0.5\nresv_loss_probability = 0.5\n\
             extra_delay_secs = 0.2\n",
        )
        .unwrap();
        let plan = path.to_str().unwrap();
        let run = [
            "--lambda",
            "3",
            "--warmup",
            "10",
            "--measure",
            "20",
            "--faults",
            plan,
        ];
        let err = simulate(strs(&run)).unwrap_err();
        assert!(
            err.contains("[signaling]") && err.contains("two-phase signalling"),
            "{err}"
        );
        // The same plan over two-phase signalling, even without delay, runs.
        simulate(strs(&[&run[..], &["--signaling-delay", "0"]].concat())).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_setup_timeout_below_one_round_trip_is_refused() {
        let run = [
            "--lambda",
            "3",
            "--system",
            "wddh",
            "--warmup",
            "10",
            "--measure",
            "20",
            "--signaling-delay",
            "1",
        ];
        // The default 1 s timeout against a 2 s round trip.
        let err = simulate(strs(&run)).unwrap_err();
        assert!(
            err.contains("setup timeout") && err.contains("round trip"),
            "{err}"
        );
        // One round trip exactly is accepted, and so is a short timeout
        // when a source sits on a member (router 0).
        simulate(strs(&[&run[..], &["--setup-timeout", "2"]].concat())).unwrap();
        simulate(strs(&[&run[..], &["--sources", "0,1,3"]].concat())).unwrap();
    }

    #[test]
    fn parse_backoff_round_trips() {
        let p = parse_backoff("4:0.5:3:10").unwrap();
        assert_eq!(p.max_retransmits, 4);
        assert_eq!(p.base_secs, 0.5);
        assert_eq!(p.multiplier, 3.0);
        assert_eq!(p.max_backoff_secs, 10.0);
        assert_eq!(p.jitter_frac, BackoffPolicy::default().jitter_frac);
        let p = parse_backoff("1:0.1:2:2:0").unwrap();
        assert_eq!(p.jitter_frac, 0.0);
        assert!(parse_backoff("1:2").is_err());
        let err = simulate(strs(&["--lambda", "3", "--backoff", "1:0.1:2:2:1.5"])).unwrap_err();
        assert!(err.contains("backoff jitter"), "{err}");
    }

    #[test]
    fn non_finite_backoff_fields_are_rejected() {
        // `inf`/`nan` parse as valid f64s, so the config check (not the
        // parser) must reject them — in every numeric position.
        for raw in [
            "3:inf:2:2",
            "3:nan:2:2",
            "3:0.1:inf:2",
            "3:0.1:2:inf",
            "3:0.1:2:2:nan",
        ] {
            let err = simulate(strs(&["--lambda", "3", "--backoff", raw])).unwrap_err();
            assert!(
                err.starts_with("backoff ") && err.contains(" must "),
                "`{raw}` must hit the config check, got: {err}"
            );
        }
    }

    #[test]
    fn retired_flags_are_unknown() {
        // Admission has one path and the shed controller is always on:
        // `simulate --batch` and `serve --no-shed` fail like any other
        // typo, before anything runs or is bound.
        type Command = fn(Vec<String>) -> Result<(), String>;
        for (command, base, flag) in [
            (simulate as Command, ["--lambda", "5"], "--batch"),
            (serve as Command, ["--listen", "127.0.0.1:0"], "--no-shed"),
        ] {
            let err = command(strs(&[base[0], base[1], flag])).unwrap_err();
            assert_eq!(err, format!("flag {flag} expects a value"));
            let err = command(strs(&[base[0], base[1], flag, "1"])).unwrap_err();
            assert_eq!(err, format!("unknown flag {flag} for this command"));
        }
    }

    #[test]
    fn trace_streams_parseable_jsonl() {
        let path = std::env::temp_dir().join("anycast_cli_stream_test.jsonl");
        std::fs::remove_file(&path).ok();
        trace(strs(&[
            "light",
            "--warmup",
            "10",
            "--measure",
            "40",
            "--signaling-delay",
            "0.02",
            "--stream",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.is_empty());
        for line in text.lines() {
            json::parse(line).unwrap();
        }
        assert!(
            text.lines().any(|l| l.contains("\"kind\":\"hold_placed\"")),
            "delayed two-phase trace must contain hold telemetry"
        );
        std::fs::remove_file(&path).ok();
        // --stream is single-replication only.
        let err = trace(strs(&[
            "light",
            "--reps",
            "2",
            "--stream",
            "/tmp/anycast_never_written.jsonl",
        ]))
        .unwrap_err();
        assert!(err.contains("--stream"), "{err}");
    }

    #[test]
    fn record_then_replay_round_trips() {
        let path = std::env::temp_dir().join("anycast_cli_record_test.jsonl");
        std::fs::remove_file(&path).ok();
        let flags = [
            "--lambda",
            "8",
            "--system",
            "ed",
            "--warmup",
            "20",
            "--measure",
            "40",
            "--seed",
            "3",
        ];
        let mut record_args: Vec<&str> = flags.to_vec();
        record_args.extend(["--out", path.to_str().unwrap()]);
        record(strs(&record_args)).unwrap();
        assert!(path.exists());
        // Replaying with the same config works; the bit-identity itself
        // is asserted in the daemon/core tests.
        let mut replay_args: Vec<&str> = flags.to_vec();
        replay_args.extend(["--trace", path.to_str().unwrap()]);
        replay(strs(&replay_args)).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_and_replay_validate_their_flags() {
        assert!(record(strs(&[])).is_err()); // missing --lambda
        let err = replay(strs(&["--lambda", "8"])).unwrap_err();
        assert!(err.contains("--trace"), "{err}");
        let err = replay(strs(&["--lambda", "8", "--trace", "/no/such/trace.jsonl"])).unwrap_err();
        assert!(err.contains("replay"), "{err}");
        let path = std::env::temp_dir().join("anycast_cli_replay_speed_test.jsonl");
        record(strs(&[
            "--lambda",
            "8",
            "--warmup",
            "5",
            "--measure",
            "10",
            "--out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        let err = replay(strs(&[
            "--lambda",
            "8",
            "--warmup",
            "5",
            "--measure",
            "10",
            "--trace",
            path.to_str().unwrap(),
            "--speed",
            "10",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown flag --speed"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_validates_its_flags() {
        let err = serve(strs(&["--lambda", "1"])).unwrap_err();
        assert!(err.contains("--listen or --unix"), "{err}");
        let err = serve(strs(&[
            "--lambda",
            "1",
            "--listen",
            "127.0.0.1:0",
            "--unix",
            "/tmp/x.sock",
        ]))
        .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = serve(strs(&[
            "--lambda",
            "1",
            "--listen",
            "127.0.0.1:0",
            "--speed",
            "-1",
        ]))
        .unwrap_err();
        assert!(err.contains("--speed"), "{err}");
        let err = serve(strs(&[
            "--lambda",
            "1",
            "--listen",
            "127.0.0.1:0",
            "--window",
            "-3",
        ]))
        .unwrap_err();
        assert!(err.contains("--window"), "{err}");
        let err = serve(strs(&[
            "--lambda",
            "1",
            "--listen",
            "127.0.0.1:0",
            "--queue-limit",
            "0",
        ]))
        .unwrap_err();
        assert!(err.contains("--queue-limit"), "{err}");
    }

    #[test]
    fn trace_validates_its_flags() {
        assert!(trace(strs(&["bogus"])).is_err());
        assert!(trace(strs(&["--format", "xml"])).is_err());
        assert!(trace(strs(&["--sample", "-5"])).is_err());
        assert!(trace(strs(&["--events", "0"])).is_err());
    }

    #[test]
    fn an_unroutable_placement_is_an_error() {
        // Nodes 3 and 4 form an island: as default sources on a non-MCI
        // topology they cannot reach member 0.
        let path =
            std::env::temp_dir().join(format!("anycast_cli_island_{}.txt", std::process::id()));
        std::fs::write(&path, "0 1 100000000\n1 2 100000000\n3 4 100000000\n").unwrap();
        let topology = path.to_str().unwrap();
        let err = simulate(strs(&[
            "--lambda",
            "3",
            "--topology",
            topology,
            "--group",
            "0",
        ]));
        std::fs::remove_file(&path).ok();
        let err = err.unwrap_err();
        assert!(err.contains("no route from"), "{err}");
    }

    #[test]
    fn help_lists_exactly_the_flags_each_command_accepts() {
        for (command, run, flag) in [
            (
                "record",
                record as fn(Vec<String>) -> Result<(), String>,
                ["--reps", "2"],
            ),
            ("serve", serve, ["--jobs", "2"]),
            ("trace", trace, ["--telemetry", "--check"]),
        ] {
            let err = run(strs(&["--lambda", "5", flag[0], flag[1]])).unwrap_err();
            assert_eq!(err, format!("unknown flag {} for this command", flag[0]));
            assert!(!help(command).contains(flag[0]), "{command}");
        }
        for command in [
            "simulate", "sweep", "trace", "record", "replay", "serve", "predict", "topo",
        ] {
            let text = help(command);
            let listed: Vec<&str> = text
                .lines()
                .filter_map(|line| line.strip_prefix("  --"))
                .map(|line| line.split(' ').next().unwrap())
                .collect();
            let (_, table, _) = COMMANDS.iter().find(|(name, ..)| *name == command).unwrap();
            let declared: Vec<&str> = table
                .iter()
                .flat_map(|g| g.iter())
                .map(|f| f.name)
                .collect();
            assert_eq!(listed, declared, "{command}");
        }
    }
}
