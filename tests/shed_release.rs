//! The shed controller against a model of the service loop, in virtual
//! time: under a sustained overload the daemon must keep serving at
//! capacity, shedding only the excess, must bound how long an admit it
//! accepts waits for its decision, and must stop shedding as soon as the
//! backlog is gone.

use anycast::net::Bandwidth;
use anycast_daemon::overload::{QueuedAdmit, DISPATCH_PER_TICK, PER_CONN_LIMIT};
use anycast_daemon::{AdmissionQueue, ShedController};
use std::time::Instant;

const QUEUE_LIMIT: usize = 256;
const CONNECTIONS: u64 = 4;
/// Engine cost of one admit, virtual microseconds: capacity 1 000 /s.
const SPIN_US: u64 = 1_000;
const WINDOW_US: u64 = 4_000_000;

struct Outcome {
    offered: u64,
    /// Admits decided before the arrival window closed.
    served_in_window: u64,
    shed: u64,
    /// Longest virtual wait from an admit's due instant to its decision,
    /// its own engine cost included.
    max_wait_us: u64,
    /// Times `update` returned `true` after returning `false`.
    excursions: u64,
    times_engaged: u64,
}

/// `server.rs`'s loop with the sockets and the engine taken out: handle
/// everything that has arrived (shed or queue it), `update` on the
/// pre-dispatch depth, dispatch at most a tick's budget at `SPIN_US`
/// each, repeat. Arrivals are evenly spaced at `load` × capacity; each
/// carries its arrival index in `source_index`, so a dispatch knows when
/// its admit fell due.
fn drive(load: f64) -> Outcome {
    let mut queue = AdmissionQueue::new(QUEUE_LIMIT, PER_CONN_LIMIT);
    let mut shed = ShedController::new(QUEUE_LIMIT);
    let gap_us = SPIN_US as f64 / load;
    let offered = (WINDOW_US as f64 / gap_us) as u64;
    let due_us = |i: u64| (i as f64 * gap_us) as u64;
    let mut out = Outcome {
        offered,
        served_in_window: 0,
        shed: 0,
        max_wait_us: 0,
        excursions: 0,
        times_engaged: 0,
    };
    let (mut now_us, mut next, mut was_shedding) = (0u64, 0u64, false);
    while next < offered || !queue.is_empty() {
        if queue.is_empty() && next < offered {
            now_us = now_us.max(due_us(next)); // idle: wait for traffic
        }
        while next < offered && due_us(next) <= now_us {
            let item = QueuedAdmit {
                conn: next % CONNECTIONS,
                token: None,
                source_index: next as usize,
                group_index: 0,
                demand: Bandwidth::from_bps(64_000),
                holding_secs: 1.0,
                received: Instant::now(),
            };
            if shed.is_shedding() || queue.push(item).is_err() {
                out.shed += 1;
            }
            next += 1;
        }
        let depth = queue.len();
        let shedding = shed.update(depth);
        assert!(
            !(shedding && depth <= QUEUE_LIMIT / 4),
            "load {load}: still shedding at depth {depth}, at or below the release mark"
        );
        out.excursions += u64::from(shedding && !was_shedding);
        was_shedding = shedding;
        for _ in 0..DISPATCH_PER_TICK {
            let Some(item) = queue.pop() else { break };
            now_us += SPIN_US;
            out.max_wait_us = out
                .max_wait_us
                .max(now_us - due_us(item.source_index as u64));
            out.served_in_window += u64::from(now_us <= WINDOW_US);
        }
    }
    assert!(!shed.update(0), "load {load}: shedding with an empty queue");
    out.times_engaged = shed.times_engaged();
    out
}

#[test]
fn no_shedding_at_or_below_capacity() {
    for load in [0.5, 1.0] {
        let out = drive(load);
        assert_eq!(out.shed, 0, "load {load}");
        assert_eq!(out.times_engaged, 0, "load {load}");
        assert!(out.served_in_window + 1 >= out.offered, "load {load}");
        // Nothing queues: every admit waits only for its own decision.
        assert!(
            out.max_wait_us <= SPIN_US,
            "load {load}: waited {} µs",
            out.max_wait_us
        );
    }
}

#[test]
fn overload_is_served_at_capacity_and_shedding_releases() {
    let capacity = WINDOW_US / SPIN_US;
    for load in [2.0, 4.0] {
        let out = drive(load);
        assert!(
            out.served_in_window * 10 >= capacity * 9,
            "load {load}: served {} of a possible {capacity}",
            out.served_in_window
        );
        assert!(out.shed > 0, "load {load}: the excess must be refused");
        assert!(out.shed <= out.offered - out.served_in_window);
        // What is accepted is decided within a full queue plus one
        // dispatch batch: overload surfaces as refusals, not as delay.
        let bound_us = (QUEUE_LIMIT + DISPATCH_PER_TICK) as u64 * SPIN_US;
        assert!(
            out.max_wait_us <= bound_us,
            "load {load}: waited {} µs, bound {bound_us} µs",
            out.max_wait_us
        );
        // One engagement per excursion over the high mark, and a long
        // overload is many excursions, not one that never ends.
        assert_eq!(out.times_engaged, out.excursions, "load {load}");
        assert!(out.times_engaged >= 2, "load {load}: {}", out.times_engaged);
    }
}
