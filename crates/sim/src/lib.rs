//! Discrete-event simulation substrate.
//!
//! The paper ran its experiments on Mesquite CSIM, a commercial
//! process-oriented simulation toolkit written in C. This crate is the
//! from-scratch Rust replacement: a deterministic, event-oriented
//! discrete-event engine plus the stochastic processes and output statistics
//! the evaluation needs.
//!
//! * [`SimTime`] / [`Duration`] — simulated seconds with a total order
//!   (zero is always `+0.0`, so an instant's bits order as it does);
//! * `EventQueue` / [`Engine`] — a 4-ary heap over packed `(time, seq)`
//!   keys with FIFO tie-break, a one-entry slot beside it for the next
//!   arrival, and the loop that runs them;
//! * [`SimRng`] — a seeded PRNG with exponential, uniform and weighted
//!   categorical sampling (including without-replacement);
//! * [`DeadlineHeap`] — keyed, cancellable deadlines (setup timeouts,
//!   soft-state expiry) popped deterministically off the event queue;
//! * [`stats`] — counters, Welford mean/variance, confidence intervals,
//!   time-weighted averages and an admission-probability estimator with
//!   warm-up truncation;
//! * [`workload`] — the Poisson anycast-request generator of §5.1;
//! * [`pool`] — a scoped-thread `parallel_map` whose output is bit-identical
//!   for any worker count, shared by the sweep engine and the analysis
//!   fixed-point batch solver.
//!
//! # Example
//!
//! ```rust
//! use anycast_sim::{Duration, Engine, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev { Ping(u32) }
//!
//! let mut engine = Engine::new();
//! engine.schedule_at(SimTime::ZERO, Ev::Ping(0));
//! let mut count = 0;
//! engine.run_until(SimTime::from_secs(100.0), |eng, now, Ev::Ping(n)| {
//!     count += 1;
//!     if n < 9 {
//!         eng.schedule_in(now, Duration::from_secs(1.0), Ev::Ping(n + 1));
//!     }
//! });
//! assert_eq!(count, 10);
//! assert_eq!(engine.now(), SimTime::from_secs(9.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod clock;
mod deadline;
mod engine;
mod event;
pub mod pool;
mod random;
pub mod stats;
mod time;
pub mod workload;

pub use clock::{TimeSource, VirtualClock, WallClock};
pub use deadline::DeadlineHeap;
pub use engine::Engine;
pub(crate) use event::EventQueue;
pub use random::SimRng;
pub use time::{Duration, SimTime};
