//! Regenerates the paper's tables and figures and the design ablations:
//! `figures [NAME...] [--quick|--full] [--jobs N] [--out DIR]` writes
//! `DIR/<NAME>.txt` (and `.json` where the entry has a series) and prints
//! each table. See `anycast_bench::figures::FIGURES` for the names.
use anycast_bench::figures::{parse_args, USAGE};

fn main() {
    let invocation = match parse_args(std::env::args().skip(1)) {
        Ok(Some(invocation)) => invocation,
        Ok(None) => {
            print!("{USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("figures: {e} (try --help)");
            std::process::exit(2);
        }
    };
    let out = &invocation.out;
    let written = std::fs::create_dir_all(out).and_then(|()| {
        invocation.figures.iter().try_for_each(|figure| {
            print!("{}", figure.write(&invocation.settings, out)?);
            eprintln!("wrote {}/{}.txt", out.display(), figure.name);
            Ok(())
        })
    });
    if let Err(e) = written {
        eprintln!("figures: cannot write into {}: {e}", out.display());
        std::process::exit(1);
    }
}
