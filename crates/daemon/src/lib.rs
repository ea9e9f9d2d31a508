//! `anycast-daemon`: the DAC controller as a long-lived online service.
//!
//! The offline crates answer "what would this admission control system
//! have done over a whole scenario?". This crate answers "what does it do
//! *right now*?" — the same engine, the same GDI/SP/two-phase machinery,
//! run as a daemon that:
//!
//! * **replays traces** (`replay`): JSONL arrival traces recorded with
//!   `anycast record`, either in virtual time (bit-identical to the
//!   offline engine, in milliseconds) or paced against a rate-scaled wall
//!   clock (`--speed`);
//! * **serves a wire protocol** (`server`, [`wire`]): line-delimited
//!   JSON over TCP or a Unix socket — `admit` (with optional correlation
//!   tokens), `teardown`, `resume`, `stats`, `shutdown` — with decisions
//!   routed back per connection, out of order if the signalling is
//!   asynchronous, and structured `error` responses (reason code plus
//!   offending-line echo) for anything unparseable;
//! * **survives hostile clients** ([`overload`], `journal`): a bounded,
//!   per-connection-fair admission queue behind a hysteresis shed
//!   controller that answers `overloaded` past its watermarks, a bounded
//!   decision journal for reconnect-safe verdict delivery and
//!   duplicate-submit idempotency, and a hard cap on wire line length;
//! * **runs forever** if asked: rolling-horizon mode (`--window`) lifts
//!   the configured horizon and reports trailing-window admission stats;
//! * **streams telemetry** live (the PR 4 `StreamRecorder` JSONL, with
//!   drop-newest backpressure so a slow disk never stalls admission);
//! * **shuts down gracefully** (`shutdown`): SIGINT/SIGTERM or a wire
//!   request drains everything in flight, rejects queued-but-unserved
//!   admits with explicit `shutting_down` lines, releases every pending
//!   two-phase hold (audited to zero leak), and flushes the stream.
//!
//! The crate is a thin deployment shell: every admission decision is made
//! by [`anycast_dac::online::OnlineEngine`], which shares its event
//! handler with the offline experiment down to the RNG fork order.

pub(crate) mod journal;
pub mod overload;
pub(crate) mod replay;
pub(crate) mod server;
pub(crate) mod shutdown;
pub(crate) mod trace;
pub mod wire;

pub use journal::{DecisionJournal, JournalEntry};
pub use overload::{AdmissionQueue, OverloadOptions, PushRefusal, ShedController};
pub use replay::{replay_trace, ReplayOutcome, ReplayPacing};
pub use server::{BoundServer, DaemonCounters, Endpoint, ServeOptions, ServeReport};
pub use shutdown::{drain_unserved, install_signal_handler, signalled, ShutdownFlag};
pub use trace::{read_trace, write_trace, TraceHeader, TRACE_VERSION};
pub use wire::{parse_request, Request, ServiceStats, WireError, MAX_LINE_BYTES};
