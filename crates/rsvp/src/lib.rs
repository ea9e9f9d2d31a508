//! RSVP-style resource reservation for anycast flows.
//!
//! §4.4 of the paper performs resource reservation with "the standard RSVP
//! protocol": a PATH message travels hop-by-hop from the source toward the
//! selected destination checking available bandwidth, and a RESV message
//! travels back reserving it. This crate models that exchange over the
//! [`LinkStateTable`](anycast_net::LinkStateTable) ledger:
//!
//! * [`ReservationEngine::probe_and_reserve`] — the all-or-nothing admission
//!   test and reservation of §4.4's Task 1 + Task 2, returning a
//!   [`SessionId`] on success and the bottleneck link on failure;
//! * [`ReservationEngine::teardown`] — releases a session when its flow
//!   ends;
//! * [`MessageLedger`] — counts every signaling message by kind, the raw
//!   material of the paper's overhead metric (Figure 7 is "directly
//!   proportional to ... resource reservation messages");
//! * optional RESV feedback of the route's bottleneck bandwidth — the
//!   extension the paper says WD/D+B needs ("we have to extend it to let
//!   RESV message carry this kind of information back to AC-routers").
//!
//! # Example
//!
//! ```rust
//! use anycast_net::{topologies, Bandwidth, LinkStateTable, NodeId};
//! use anycast_net::routing::shortest_path;
//! use anycast_rsvp::ReservationEngine;
//!
//! let topo = topologies::mci();
//! let mut links = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::from_mbps(100), 0.2);
//! let mut rsvp = ReservationEngine::new();
//!
//! let route = shortest_path(&topo, NodeId::new(1), NodeId::new(8)).unwrap();
//! let outcome = rsvp
//!     .probe_and_reserve(&mut links, &route, Bandwidth::from_kbps(64))
//!     .expect("idle network admits the first flow");
//! rsvp.teardown(&mut links, outcome.session).expect("session exists");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod message;
mod session;
mod soft_state;
mod two_phase;

pub use engine::{ProbeError, ReservationEngine, ReservationOutcome, TeardownError};
pub use message::{MessageKind, MessageLedger};
pub use session::{Reservation, SessionId, SessionMap};
pub use soft_state::{RefreshConfig, RefreshTracker};
pub use two_phase::{PathStep, SetupId, SetupTable};
