//! What each command accepts and says: its flags, one line a flag, the
//! one table its parser and its `--help` both read, and the description
//! its `--help` prints above them. Flag groups are shared where a flag
//! means the same thing to several commands. Aligned by hand, so `main.rs`
//! keeps `rustfmt` out of this file.

use crate::args::{Flag, Table};

/// A flag that takes a value of the given shape.
pub(crate) const fn flag(name: &'static str, shape: &'static str, help: &'static str) -> Flag {
    Flag { name, value: Some(shape), help }
}

/// A switch: a flag that takes no value.
pub(crate) const fn switch(name: &'static str, help: &'static str) -> Flag {
    Flag { name, value: None, help }
}

const LAMBDA: Flag = flag("lambda", "RATE", "request rate in flows/s (required)");
const TOPOLOGY: Flag = flag("topology", "SPEC", "mci (default) | grid:WxH | ring:N | star:N | waxman:N:SEED |\n\
                                                 fat_tree:K | clos:SPINE:LEAF:HOSTS | an edge-list file");
const GROUP: Flag = flag("group", "IDS", "comma-separated member routers (default 0,4,8,12,16)");
const SOURCES: Flag = flag("sources", "IDS", "comma-separated source routers (default: odd\n\
                                              routers on mci, all non-members elsewhere)");

/// What one run is: the flags `common_config` reads.
const RUN: &[Flag] = &[
    flag("system",          "ed|wddh|wddb|sp|gdi",      "admission system (default wddh)"),
    flag("r",               "N",                        "retrial limit (default 2)"),
    flag("alpha",           "X",                        "WD/D+H damping in [0,1] (default 0.5)"),
    flag("multipath",       "K",                        "K shortest routes per member (default 1)"),
    TOPOLOGY,
    GROUP,
    SOURCES,
    flag("seed",            "N",                        "PRNG seed (default 1)"),
    flag("warmup",          "SECS",                     "warm-up period (default 1800)"),
    flag("measure",         "SECS",                     "measured period (default 3600)"),
    flag("burstiness",      "B",                        "MMPP-2 burstiness in [1,2) (default: Poisson)"),
    flag("faults",          "FILE",                     "fault-plan spec (TOML subset; grammar in anycast-chaos::spec)"),
    flag("signaling-delay", "SECS",                     "per-hop signalling latency: two-phase PATH/RESV setup\n\
                                                         with pending holds (0 = atomic-identical)"),
    flag("setup-timeout",   "SECS",                     "two-phase setup timer (default 1.0; `inf` disables)"),
    flag("backoff",         "R:BASE:MULT:CAP[:J]",      "R retransmits, BASE·MULT^n s apart, capped at CAP\n\
                                                         (default 3:0.1:2:2; jitter J in [0,1), default 0.1)"),
];

/// The flags `replication_plan` reads.
const REPLICATION: &[Flag] = &[
    flag("reps", "N", "independent replications on RNG substreams of --seed (default 1)"),
    flag("jobs", "N", "worker threads (default: available cores; results\n\
                       are bit-identical for every N)"),
];

const TELEMETRY: &[Flag] = &[
    switch("telemetry", "attach the ring recorder and print an event summary\n\
                         (results are unchanged)"),
];

pub(crate) const SIMULATE: Table = &[&[LAMBDA], RUN, REPLICATION, TELEMETRY];

pub(crate) const SWEEP: Table = &[
    &[
        flag("lambdas",  "START:END:STEP", "request rates in flows/s (required)"),
        switch("no-header",                "omit the column header (for scripting)"),
    ],
    RUN, REPLICATION, TELEMETRY,
];

pub(crate) const TRACE: Table = &[
    &[flag("lambda", "RATE", "request rate in flows/s (default: the scenario's)")],
    RUN, REPLICATION,
    &[
        flag("out",    "DIR",            "output directory (default traces)"),
        flag("format", "jsonl|csv|both", "export format (default jsonl)"),
        flag("sample", "SECS",           "link-state sampling interval (default 60)"),
        flag("events", "N",              "ring capacity in events (default 2^20)"),
        switch("check",                  "re-parse every exported JSONL line"),
        flag("stream", "PATH",           "stream events to PATH as JSONL while the run executes\n\
                                          (constant memory; one replication; no --out/--format)"),
    ],
];

pub(crate) const RECORD: Table = &[
    &[LAMBDA, flag("out", "PATH", "trace file (default trace.jsonl)")],
    RUN,
];

pub(crate) const REPLAY: Table = &[
    &[
        LAMBDA,
        flag("trace",  "PATH", "trace file from `anycast record` (required)"),
        flag("stream", "PATH", "stream telemetry events to PATH as JSONL"),
    ],
    RUN,
];

pub(crate) const SERVE: Table = &[
    &[
        flag("lambda",      "RATE", "the config's request rate in flows/s (default 1)"),
        flag("listen",      "ADDR", "TCP listen address (port 0 = any)"),
        flag("unix",        "PATH", "Unix-domain socket path instead"),
        flag("speed",       "X",    "simulated seconds per real second (default 1 = real time)"),
        flag("tick-ms",     "MS",   "idle engine tick (default 5)"),
        flag("stream",      "PATH", "stream live telemetry to PATH as JSONL (drop-newest)"),
        flag("window",      "SECS", "rolling-horizon mode: serve forever, stats report\n\
                                     a trailing SECS window"),
        flag("queue-limit", "N",    "admission queue bound; shed watermarks scale with it\n\
                                     (default 1024)"),
    ],
    RUN,
];

pub(crate) const PREDICT: Table = &[&[
    flag("lambda",  "RATE",           "one request rate in flows/s"),
    flag("lambdas", "START:END:STEP", "a grid of request rates (one of --lambda, --lambdas)"),
    flag("system",  "ed1|sp",         "analyzed system (default ed1)"),
    flag("model",   "erlang|uaa",     "link-blocking model (default erlang)"),
    flag("jobs",    "N",              "worker threads for the λ grid (default: available cores;\n\
                                       results are bit-identical for every N)"),
    TOPOLOGY,
    GROUP,
    flag("sources", "IDS",            "comma-separated source routers (default: the odd\n\
                                       routers 1,3,…,17 on every topology)"),
    flag("hot",     "N",              "list the N hottest links (default 5)"),
]];

pub(crate) const TOPO: Table = &[&[TOPOLOGY]];

/// Each command's name, flags, and the usage and description its `--help`
/// prints above them.
pub(crate) const COMMANDS: &[(&str, Table, &str)] = &[
    ("simulate", SIMULATE, "\
usage: anycast simulate --lambda RATE [options]

Runs one closed-loop admission-control simulation."),
    ("sweep", SWEEP, "\
usage: anycast sweep --lambdas START:END:STEP [options]

Runs a λ sweep and prints one row per rate. Sweep points run
on --jobs worker threads (default: available cores); output is
bit-identical for every --jobs value."),
    ("trace", TRACE, "\
usage: anycast trace [SCENARIO] [options]

Runs a scenario with structured tracing on and exports every
event (arrivals, probes, retrials, setups, teardowns,
rejections with full decision traces, link samples, faults)
for offline analysis. Results are bit-identical to the same
run without tracing.

scenarios:
  paper       λ=35, WD/D+H — the paper's Figure 6 operating point
  saturated   λ=50, ED — overload, dense rejection traces (default)
  light       λ=5, WD/D+H — low load, mostly clean admissions

Writes trace_<scenario>_seed<seed>.jsonl (one JSON object per
line) per replication plus metrics.json (the labelled metrics
registry), and prints the first rejection's decision trace."),
    ("record", RECORD, "\
usage: anycast record --lambda RATE --out PATH [options]

Draws a config's complete arrival process (every arrival with
its source, group, demand and holding time) and writes it as a
replayable JSONL trace — one header line of provenance (seed,
rate, bounds, horizon), then one line per arrival. No
admission control runs. Replaying the trace with the same
config reproduces the offline run bit-identically."),
    ("replay", REPLAY, "\
usage: anycast replay --trace PATH --lambda RATE [options]

Feeds a recorded arrival trace through the online admission
engine. With the config the trace was recorded from, a
virtual-time replay is bit-identical to `simulate` — metrics
go to stdout in exactly `simulate`'s format (auxiliary lines
to stderr) so the two outputs diff clean."),
    ("serve", SERVE, r#"usage: anycast serve (--listen ADDR | --unix PATH) [options]

Runs the admission controller as a long-lived daemon speaking
line-delimited JSON (one request per line):

  {"op":"admit","source":2,"group":0,"demand_bps":64000,"holding_secs":120,"token":"t1"}
  {"op":"teardown","session":7}
  {"op":"resume","token":"t1"}
  {"op":"stats"}
  {"op":"shutdown"}

Decisions come back per connection, correlated by request id
and optional client token (out of order under asynchronous
two-phase signalling). Under overload the daemon answers
`overloaded` instead of queueing without bound; malformed or
overlong lines draw an `error` with a reason code and the
offending line echoed. SIGINT/SIGTERM or a shutdown request
drains in-flight work, rejects queued-but-unserved admits
with `shutting_down`, releases pending holds and prints
final metrics. The service ends by itself at the config
horizon (--warmup + --measure; a service typically wants
--warmup 0) unless --window puts it in rolling mode."#),
    ("predict", PREDICT, "\
usage: anycast predict --lambda RATE | --lambdas START:END:STEP [options]

Predicts admission probability without a simulation, from the
Appendix-A analytical model, batched over the whole λ grid. The
other systems have no analytic model: `anycast sweep --system
ed|wddh|wddb|gdi` simulates them."),
    ("topo", TOPO, "\
usage: anycast topo [--topology SPEC]

Prints structural metrics of a topology."),
];

/// `anycast help`: the commands.
pub(crate) const OVERVIEW: &str = "\
anycast — distributed admission control for anycast flows (ICDCS 2001)

commands:
  simulate   run one closed-loop simulation
  sweep      run a λ sweep of simulations
  trace      run a scenario with structured tracing and export events
  record     dump a scenario's arrival process as a replayable trace
  replay     feed a recorded trace through the online engine
  serve      run the admission controller as a live daemon
  predict    analytical admission probability (Appendix A)
  topo       topology structure report
  help       this overview

`anycast <command> --help` shows per-command options.
";
