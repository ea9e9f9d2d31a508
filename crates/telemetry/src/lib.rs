//! Zero-overhead structured tracing, metrics and admission decision logs.
//!
//! The paper's evaluation (§5) reports only end-of-run aggregates, but a
//! production admission controller needs the trajectory: per-link
//! utilization time series, per-request decision traces, always-on
//! counters. This crate is that observability layer, designed so that a
//! run with telemetry disabled is **bit-and-speed identical** to one
//! compiled without it:
//!
//! * [`Recorder`] — the sink trait; hooks gate on [`Recorder::enabled`]
//!   before constructing an event, so the [`NullRecorder`] costs a single
//!   predictable branch per hook.
//! * [`RingRecorder`] — a bounded per-run buffer (no locks: one recorder
//!   per `(config, seed)` cell) with wraparound and a dropped-event count.
//! * [`StreamRecorder`] — streams each event as one JSON line through a
//!   bounded channel to a writer thread, with backpressure instead of
//!   drops; for runs whose event volume outgrows any ring.
//! * [`RequestTracer`] — accumulates one request's weight vector and
//!   skipped candidates, closing with a `ReservationSetup` or a
//!   `Rejection` that carries the full [`DecisionTrace`].
//! * [`MetricsRegistry`] — labelled counters/gauges/histograms built on
//!   `anycast_sim::stats`, deterministically ordered and JSON-exportable.
//! * [`export`] — JSONL/CSV exporters; [`json`] — the shared JSON
//!   emitter/parser (also re-exported as `anycast_bench::json`).
//!
//! Determinism under parallel sweeps: every event carries simulated time,
//! every exported record carries the run's substream seed, and the sweep
//! layer reassembles per-cell streams in input order — so trace files are
//! byte-identical for any `--jobs` value.
//!
//! # Event schema
//!
//! One JSON object per line (JSONL). Common fields: `t` (simulated
//! seconds, number), `seed` (substream seed of the run), `kind`
//! (discriminant). Variant fields:
//!
//! | `kind` | fields |
//! |--------|--------|
//! | `arrival` | `request`, `source` (node index), `group`, `demand_bps` |
//! | `probe` | `request`, `member`, `weight`, `outcome` (`admitted`\|`skipped`), `skip`? |
//! | `retrial` | `request`, `tries_so_far`, `remaining_weight` |
//! | `setup` | `request`, `session`, `member`, `hops`, `tries` |
//! | `teardown` | `session`, `reason` (`departure`\|`delayed`\|`fault_killed`\|`soft_state_expired`) |
//! | `rejection` | `request`, `tries`, `trace` (see below) |
//! | `link_sample` | `link`, `reserved_bps`, `capacity_bps`, `flows`, `failed`, `utilization` |
//! | `fault_fired` / `fault_healed` | `entity` (`{type: link\|node, id}`) |
//! | `msg_sent` / `msg_lost` | `request`, `message` (`path`\|`resv`\|`resv_err`\|`path_tear`), `link` |
//! | `hold_placed` / `hold_expired` | `request`, `link`, `bw_bps` |
//! | `setup_completed` | `request`, `session`, `latency_secs` |
//!
//! The `msg_*`, `hold_*` and `setup_completed` kinds are emitted only by
//! the two-phase signalling engine (`--signaling-delay` et al.); the
//! atomic engine performs its exchange in one instant and has no
//! per-message moments to report.
//!
//! A `rejection.trace` is `{weights: [f64; group_size], steps: [{member,
//! weight, skip}]}` — `weights` is the policy's weight vector when the
//! request arrived, `steps` lists every probed-and-skipped destination in
//! probe order, and each `skip` is `{reason: link_blocked, link,
//! hop_index, available_bps}`, `{reason: no_feasible_path}` or `{reason:
//! not_selected}`. A probe's `skip` object uses the same shape.
//!
//! The CSV exporter flattens the same stream into fixed columns
//! `t,seed,kind,request,session,member,link,value,detail` (RFC 4180
//! escaping); `value` holds the variant's headline number and `detail` a
//! compact `k=v;...` rest.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod event;
pub mod export;
pub mod json;
pub(crate) mod occupancy;
pub(crate) mod recorder;
pub(crate) mod registry;
pub(crate) mod stream;
pub(crate) mod tracer;

pub use event::{
    DecisionStep, DecisionTrace, Event, FaultKind, ProbeResult, SkipReason, TeardownReason,
    TimedEvent,
};
pub use occupancy::{link_occupancy, source_attempt_profiles, LinkOccupancy, SourceAttempts};
pub use recorder::{
    EventFilter, NullRecorder, Recorder, RingRecorder, TelemetryMode, DEFAULT_RING_CAPACITY,
};
pub use registry::{registry_from_events, MetricKey, MetricsRegistry};
pub use stream::{StreamPolicy, StreamRecorder, DEFAULT_STREAM_CAPACITY};
pub use tracer::RequestTracer;
