//! `anycast` — command-line front end for the admission-control workspace.
//!
//! ```text
//! anycast simulate --lambda 25 --system wddh --r 2        # one simulation
//! anycast sweep --lambdas 5:50:5 --system ed --r 2        # a λ sweep
//! anycast trace saturated --out traces                    # export event traces
//! anycast record --lambda 20 --out trace.jsonl            # dump an arrival trace
//! anycast replay --trace trace.jsonl --lambda 20          # replay it online
//! anycast serve --listen 127.0.0.1:4730 --warmup 0        # live admission daemon
//! anycast predict --lambda 35 --system ed1                # Appendix-A analysis
//! anycast topo --topology grid:5x4                        # structure report
//! ```
//!
//! Run `anycast help` (or any subcommand with `--help`) for details.

mod args;
mod commands;
// The flag tables are aligned by hand.
#[rustfmt::skip]
mod flags;
mod spec;

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_else(|| "help".to_string());
    let rest: Vec<String> = argv.collect();
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", commands::help(&command));
        return ExitCode::SUCCESS;
    }
    let result = match command.as_str() {
        "simulate" => commands::simulate(rest),
        "sweep" => commands::sweep(rest),
        "trace" => commands::trace(rest),
        "record" => commands::record(rest),
        "replay" => commands::replay(rest),
        "serve" => commands::serve(rest),
        "predict" => commands::predict(rest),
        "topo" => commands::topo(rest),
        "help" | "--help" | "-h" => {
            print!("{}", commands::help(""));
            Ok(())
        }
        other => Err(format!("unknown command `{other}` (try `anycast help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("anycast: {message}");
            ExitCode::from(2)
        }
    }
}
