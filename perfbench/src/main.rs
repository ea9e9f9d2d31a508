//! `perf`: the repository's one benchmark.
//!
//! Five seeded workloads go through the public, default-configured entry
//! points of the net, sim, rsvp, core, telemetry and daemon crates. With
//! tracing off a run prints the end-to-end metrics; a separate traced pass
//! replays the workload's generated inputs through each layer's public
//! functions and prints the per-layer cost budget with its residual.
//! `README.md` has the workloads, the layer-to-metric map and the rules
//! this package keeps so later changes compile against it untouched.
//!
//! ```text
//! perf --workload NAME --seed N --seconds S --trace 0|1   one run; last line is the result object
//! perf [--seed N] [--seconds S] [--trace 0|1] [--out PATH]  every workload, each in a fresh process
//! perf --repeat N                                          N full sets, spread of each metric against its bound
//! perf --list                                              every workload and metric with unit, direction, bound
//! perf --smoke …                                           seconds-sized offline inputs, for a quick look
//! ```

mod daemon;
mod daemon_layers;
mod offline;
mod report;
mod spans;
mod spec;
mod stats;

use anycast_bench::json::{parse, JsonValue};
use offline::Scale;
use report::Outcome;
use spec::{MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

#[derive(Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
    list: bool,
    smoke: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

const USAGE: &str = "usage: perf [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
                     [--repeat N] [--list] [--smoke] [--out PATH] [--trace-out PATH]";

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        repeat: None,
        list: false,
        smoke: false,
        out: None,
        trace_out: None,
    };
    let mut argv = argv.peekable();
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--repeat" => {
                let n: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if n < 2 {
                    return Err("--repeat needs at least 2 sets to have a spread".into());
                }
                args.repeat = Some(n);
            }
            "--out" => args.out = Some(value("a path")?.into()),
            "--trace-out" => args.trace_out = Some(value("a path")?.into()),
            "--list" => args.list = true,
            "--smoke" => args.smoke = true,
            // The driver passes `--trace 0|1`; a bare `--trace` means on.
            "--trace" => {
                args.trace = match argv.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if let Some(w) = &args.workload {
        if spec::workload(w).is_none() {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload `{w}`; one of {}",
                names.join(", ")
            ));
        }
    }
    Ok(args)
}

fn specs(trace: bool) -> &'static [MetricSpec] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// One workload in this process.
fn run_workload(name: &str, args: &Args) -> Outcome {
    let trace_out = args
        .trace_out
        .clone()
        .unwrap_or_else(|| report::scratch_dir().join(format!("{name}.spans.json")));
    let (seed, seconds) = (args.seed, args.seconds);
    let daemon = |kind| {
        let run = if args.trace {
            daemon_layers::run_layers(kind, seed, seconds, &trace_out)
        } else {
            daemon::run_e2e(kind, seed, seconds)
        };
        run.unwrap_or_else(|e| {
            let mut failed = Outcome::default();
            failed.gate(false, || format!("{name}: {e}"));
            failed
        })
    };
    let scale = if args.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    };
    let offline = |sc| {
        if args.trace {
            offline::run_layers(sc, seed, scale, &trace_out)
        } else {
            offline::run_e2e(sc, seed, seconds, scale)
        }
    };
    match name {
        "offline_mci" => offline(&offline::OFFLINE_MCI),
        "offline_fattree" => offline(&offline::OFFLINE_FATTREE),
        "daemon_saturation" => daemon(daemon::Kind::Saturation),
        "daemon_tcp_rr" => daemon(daemon::Kind::TcpRr),
        "daemon_overload" => daemon(daemon::Kind::Overload),
        other => unreachable!("parse_args admitted unknown workload {other}"),
    }
}

/// What one workload's child process reported.
struct ChildRun {
    workload: &'static str,
    correct: bool,
    values: Vec<(String, f64)>,
}

/// One workload in a fresh child process (clean peak RSS, no warmth from
/// the previous workload).
fn run_child(workload: &'static str, args: &Args) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let child = Command::new(exe)
        .args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(args.smoke.then_some("--smoke"))
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&child.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("{workload} printed nothing"))?;
    let JsonValue::Obj(result) =
        parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?
    else {
        return Err(format!("{workload}: result line is not an object"));
    };
    let field = |k: &str| result.iter().find(|(key, _)| key == k).map(|(_, v)| v);
    let correct = field("correct") == Some(&JsonValue::Bool(true)) && child.status.success();
    let mut values = Vec::new();
    if let Some(JsonValue::Obj(metrics)) = field("metrics") {
        for (metric, v) in metrics {
            if let JsonValue::Obj(pairs) = v {
                if let Some((_, JsonValue::Num(x))) = pairs.iter().find(|(k, _)| k == "value") {
                    values.push((metric.clone(), *x));
                }
            }
        }
    }
    Ok(ChildRun {
        workload,
        correct,
        values,
    })
}

/// Every workload once, each in its own process.
fn run_set(args: &Args) -> Vec<ChildRun> {
    WORKLOADS
        .iter()
        .map(|w| {
            run_child(w.name, args).unwrap_or_else(|e| {
                eprintln!("perf: {e}");
                ChildRun {
                    workload: w.name,
                    correct: false,
                    values: Vec::new(),
                }
            })
        })
        .collect()
}

fn print_set(set: &[ChildRun], trace: bool) {
    for run in set {
        println!(
            "{}: {}",
            run.workload,
            if run.correct { "correct" } else { "FAILED" }
        );
        for m in specs(trace) {
            if let Some((_, v)) = run.values.iter().find(|(n, _)| n == m.name) {
                println!("  {:<42} {:>16.4} {}", m.name, v, m.unit);
            }
        }
    }
}

fn set_json(set: &[ChildRun], args: &Args) -> JsonValue {
    let workloads = set
        .iter()
        .map(|run| {
            let metrics = run
                .values
                .iter()
                .map(|(n, v)| (n.clone(), JsonValue::Num(*v)))
                .collect();
            (
                run.workload.to_string(),
                JsonValue::obj([
                    ("correct", JsonValue::Bool(run.correct)),
                    ("metrics", JsonValue::Obj(metrics)),
                ]),
            )
        })
        .collect();
    JsonValue::obj([
        ("host", report::host_facts()),
        ("seed", JsonValue::Num(args.seed as f64)),
        ("seconds", JsonValue::Num(args.seconds)),
        ("trace", JsonValue::Bool(args.trace)),
        ("workloads", JsonValue::Obj(workloads)),
    ])
}

/// `--repeat N`: N full sets; per (workload, end-to-end metric) the
/// median, quartiles and spread over the bound. Fails if a spread exceeds
/// its bound (set-up time excepted, as in the driver's rule).
fn self_check(n: usize, args: &Args) -> bool {
    // A fresh seed per set, as the driver does: the spread then includes
    // what the inputs themselves vary.
    let sets: Vec<_> = (0..n)
        .map(|i| {
            let seed = args.seed + i as u64;
            eprintln!("perf: set {} of {n}, seed {seed}", i + 1);
            run_set(&Args {
                seed,
                ..args.clone()
            })
        })
        .collect();
    let mut ok = sets.iter().flatten().all(|run| run.correct);
    println!(
        "{:<18} {:<16} {:>12} {:>12} {:>12} {:>8} {:>7} {:>9}",
        "workload", "metric", "q1", "median", "q3", "spread", "bound", "spread/bound"
    );
    for w in &WORKLOADS {
        for m in specs(args.trace).iter().filter(|m| m.bound.is_some()) {
            let values: Vec<f64> = sets
                .iter()
                .flatten()
                .filter(|run| run.workload == w.name)
                .filter_map(|run| {
                    run.values
                        .iter()
                        .find(|(k, _)| k == m.name)
                        .map(|(_, v)| *v)
                })
                .collect();
            let (Some((q1, q2, q3)), Some(spread)) =
                (stats::quartiles(&values), stats::spread(&values))
            else {
                println!("{:<18} {:<16} missing", w.name, m.name);
                ok = false;
                continue;
            };
            let bound = m.bound.expect("filtered on bound");
            let within = spread <= bound || m.name == "setup_s";
            ok &= within;
            println!(
                "{:<18} {:<16} {q1:>12.4} {q2:>12.4} {q3:>12.4} {spread:>8.4} {bound:>7.2} {:>9.2}{}",
                w.name,
                m.name,
                spread / bound,
                if within { "" } else { "  EXCEEDS" }
            );
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perf: {msg}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        print!("{}", spec::list());
        return ExitCode::SUCCESS;
    }
    if let Some(name) = &args.workload {
        let outcome = run_workload(name, &args);
        println!(
            "{name} seed={} seconds={} trace={}",
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        print!("{}", outcome.table(specs(args.trace)));
        println!("{}", outcome.result_line(specs(args.trace)));
        return ExitCode::from(report::exit_code([&outcome]) as u8);
    }
    if let Some(n) = args.repeat {
        return if self_check(n, &args) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let set = run_set(&args);
    print_set(&set, args.trace);
    let doc = set_json(&set, &args).render();
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, doc + "\n") {
                eprintln!("perf: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        None => println!("{doc}"),
    }
    if set.iter().all(|run| run.correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "daemon_tcp_rr",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("daemon_tcp_rr"), 7, 10.0, false)
        );
        assert!(args(&["--trace", "1"]).unwrap().trace);
        // A bare `--trace` means on and does not swallow the next flag.
        let a = args(&["--trace", "--seed", "3"]).unwrap();
        assert!(a.trace && a.seed == 3);
        assert_eq!(args(&[]).unwrap().seed, spec::DEFAULT_SEED);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--repeat", "1"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }

    /// None of the names the roadmap schedules for deletion, and no
    /// non-default execution knob, appears in the benchmark's sources: the
    /// default path is what is measured, and each planned deletion compiles
    /// against these files untouched.
    #[test]
    fn sources_name_no_symbol_scheduled_for_deletion() {
        let sources = [
            ("main.rs", include_str!("main.rs")),
            ("spec.rs", include_str!("spec.rs")),
            ("stats.rs", include_str!("stats.rs")),
            ("spans.rs", include_str!("spans.rs")),
            ("report.rs", include_str!("report.rs")),
            ("offline.rs", include_str!("offline.rs")),
            ("daemon.rs", include_str!("daemon.rs")),
            ("daemon_layers.rs", include_str!("daemon_layers.rs")),
        ];
        // Spelled in pieces so this list does not trip its own scan.
        let forbidden = [
            ["Route", "Mode"].concat(),
            ["Route", "Book"].concat(),
            ["Route", "Table"].concat(),
            ["Route", "Provider"].concat(),
            ["with_", "routing"].concat(),
            ["with_", "batching"].concat(),
            ["with_", "batch_jobs"].concat(),
            ["Shed", "Controller"].concat(),
            ["Shed", "Config"].concat(),
            ["Gdi", "BatchCache"].concat(),
            ["bench_", "pr"].concat(),
            ["shed", ":"].concat(),
            ["shed_", "config"].concat(),
        ];
        for (file, text) in sources {
            for word in &forbidden {
                assert!(!text.contains(word.as_str()), "{file} names `{word}`");
            }
        }
    }
}
