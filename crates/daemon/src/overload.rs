//! Overload protection for the service loop: a bounded admission queue
//! with per-connection fairness, and a hysteresis shed controller driven
//! by queue depth alone.
//!
//! The paper's controllers assume a well-behaved arrival process; a
//! deployed daemon cannot. Two mechanisms keep an overloaded engine
//! honest instead of letting it collapse:
//!
//! * **The [`AdmissionQueue`]** bounds how much work may wait for the
//!   engine thread — globally and per connection, so one firehose client
//!   cannot starve the rest. Dispatch is round-robin across connections
//!   that have queued work. A full queue refuses the admit outright; the
//!   server answers with an explicit `overloaded` line, never a silent
//!   drop.
//! * **The [`ShedController`]** engages *before* the hard bound: once
//!   queue depth reaches 3/4 of the bound, new admits are shed until it
//!   falls back to 1/4. The hysteresis gap keeps the daemon from
//!   oscillating admit/shed at the boundary, and shedding early is what
//!   keeps decision latency bounded under sustained overload
//!   (`tests/shed_release.rs` bounds the wait in virtual time). Backlog
//!   is the only signal: an empty queue is below the release mark by
//!   construction, so the controller cannot stay engaged once the work
//!   is gone, and signalling round trips — which a decision's latency
//!   includes — cannot engage it at all.

use anycast_net::Bandwidth;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Per-connection admission-queue bound: one connection's fair share.
pub const PER_CONN_LIMIT: usize = 128;

/// How many queued admits one engine tick may dispatch.
pub const DISPATCH_PER_TICK: usize = 256;

/// Overload-protection knobs for the service loop.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadOptions {
    /// Global admission-queue bound.
    pub queue_limit: usize,
    /// Decision-journal bound (correlation tokens retained).
    pub journal_limit: usize,
    /// Busy-work burned per dispatched admit. Zero in production; the
    /// overload benchmarks raise it to give the engine a known capacity
    /// so 1×/2×/4× driving rates mean something.
    pub admit_spin: Duration,
}

impl Default for OverloadOptions {
    fn default() -> Self {
        OverloadOptions {
            queue_limit: 1024,
            journal_limit: 4096,
            admit_spin: Duration::ZERO,
        }
    }
}

impl OverloadOptions {
    /// Sets the queue bound; the shed watermarks follow it (see
    /// [`ShedController::new`]).
    pub fn with_queue_limit(mut self, limit: usize) -> Self {
        self.queue_limit = limit;
        self
    }
}

/// One admit waiting for the engine thread, stamped when its line was
/// read so decision latency includes every wait on the daemon's side.
#[derive(Debug)]
pub struct QueuedAdmit {
    /// Connection that submitted it.
    pub conn: u64,
    /// Client correlation token, if any.
    pub token: Option<String>,
    /// Index into the config's source list.
    pub source_index: usize,
    /// Index into the config's effective groups.
    pub group_index: usize,
    /// Requested bandwidth.
    pub demand: Bandwidth,
    /// Flow holding time, seconds.
    pub holding_secs: f64,
    /// When the reader thread read the line off the socket.
    pub received: Instant,
}

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushRefusal {
    /// The global bound is hit.
    QueueFull,
    /// This connection already has its fair share queued.
    ConnFull,
}

/// A bounded admission queue, round-robin fair across connections.
#[derive(Debug)]
pub struct AdmissionQueue {
    limit: usize,
    per_conn_limit: usize,
    len: usize,
    queues: HashMap<u64, VecDeque<QueuedAdmit>>,
    /// Connections with queued work, in round-robin service order.
    rotation: VecDeque<u64>,
}

impl AdmissionQueue {
    /// An empty queue with the given global and per-connection bounds.
    ///
    /// # Panics
    ///
    /// Panics if either bound is zero.
    pub fn new(limit: usize, per_conn_limit: usize) -> Self {
        assert!(limit > 0, "queue limit must be positive");
        assert!(per_conn_limit > 0, "per-connection limit must be positive");
        AdmissionQueue {
            limit,
            per_conn_limit,
            len: 0,
            queues: HashMap::new(),
            rotation: VecDeque::new(),
        }
    }

    /// Queued admits right now.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The global bound.
    pub(crate) fn limit(&self) -> usize {
        self.limit
    }

    /// Enqueues `item`, or refuses it (returning it back so the caller
    /// can answer the right connection).
    ///
    /// # Errors
    ///
    /// [`PushRefusal::QueueFull`] at the global bound,
    /// [`PushRefusal::ConnFull`] at the connection's.
    pub fn push(&mut self, item: QueuedAdmit) -> Result<(), (QueuedAdmit, PushRefusal)> {
        if self.len >= self.limit {
            return Err((item, PushRefusal::QueueFull));
        }
        let per_conn = self.queues.entry(item.conn).or_default();
        // A connection at its bound necessarily has a nonempty queue, so
        // the entry just created (if any) is never left behind empty.
        if per_conn.len() >= self.per_conn_limit {
            return Err((item, PushRefusal::ConnFull));
        }
        if per_conn.is_empty() {
            self.rotation.push_back(item.conn);
        }
        per_conn.push_back(item);
        self.len += 1;
        Ok(())
    }

    /// Dequeues the next admit, round-robin across connections: each pop
    /// serves the connection at the head of the rotation and sends it to
    /// the back if it still has work.
    pub fn pop(&mut self) -> Option<QueuedAdmit> {
        let conn = self.rotation.pop_front()?;
        let queue = self
            .queues
            .get_mut(&conn)
            .expect("rotation only holds connections with queues");
        let item = queue
            .pop_front()
            .expect("rotation only holds nonempty queues");
        if queue.is_empty() {
            self.queues.remove(&conn);
        } else {
            self.rotation.push_back(conn);
        }
        self.len -= 1;
        Some(item)
    }
}

/// Hysteresis load shedding on queue depth: sheds from the high
/// watermark until the backlog has drained to the low one.
#[derive(Debug)]
pub struct ShedController {
    enter_depth: usize,
    exit_depth: usize,
    shedding: bool,
    engaged: u64,
}

impl ShedController {
    /// A disengaged controller for a queue bounded at `queue_limit`:
    /// engages at 3/4 of the bound, releases at 1/4.
    pub fn new(queue_limit: usize) -> Self {
        ShedController {
            enter_depth: (queue_limit * 3 / 4).max(1),
            exit_depth: queue_limit / 4,
            shedding: false,
            engaged: 0,
        }
    }

    /// Re-evaluates the hysteresis against the current queue depth and
    /// returns whether the daemon is now shedding.
    pub fn update(&mut self, queue_depth: usize) -> bool {
        if self.shedding {
            if queue_depth <= self.exit_depth {
                self.shedding = false;
            }
        } else if queue_depth >= self.enter_depth {
            self.shedding = true;
            self.engaged += 1;
        }
        self.shedding
    }

    /// Whether shedding is currently engaged.
    pub fn is_shedding(&self) -> bool {
        self.shedding
    }

    /// How many times shedding has engaged (not per-request; per
    /// excursion over the high watermark).
    pub fn times_engaged(&self) -> u64 {
        self.engaged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn admit(conn: u64) -> QueuedAdmit {
        QueuedAdmit {
            conn,
            token: None,
            source_index: 0,
            group_index: 0,
            demand: Bandwidth::from_bps(1),
            holding_secs: 1.0,
            received: Instant::now(),
        }
    }

    #[test]
    fn queue_round_robins_across_connections() {
        let mut q = AdmissionQueue::new(16, 8);
        // Connection 0 floods, connections 1 and 2 each queue one.
        for _ in 0..4 {
            q.push(admit(0)).unwrap();
        }
        q.push(admit(1)).unwrap();
        q.push(admit(2)).unwrap();
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|a| a.conn).collect();
        // 1 and 2 are served within the first rotation, not after the
        // flood: one item per connection per round.
        assert_eq!(order, vec![0, 1, 2, 0, 0, 0]);
        assert!(q.is_empty());
    }

    #[test]
    fn queue_enforces_both_bounds() {
        let mut q = AdmissionQueue::new(4, 2);
        q.push(admit(0)).unwrap();
        q.push(admit(0)).unwrap();
        // Per-connection bound first.
        let (back, why) = q.push(admit(0)).unwrap_err();
        assert_eq!(why, PushRefusal::ConnFull);
        assert_eq!(back.conn, 0);
        q.push(admit(1)).unwrap();
        q.push(admit(2)).unwrap();
        // Global bound.
        let (_, why) = q.push(admit(3)).unwrap_err();
        assert_eq!(why, PushRefusal::QueueFull);
        assert_eq!(q.len(), 4);
        // Refusals leave no ghost per-connection queues behind.
        while q.pop().is_some() {}
        assert!(q.queues.is_empty() && q.rotation.is_empty());
    }

    #[test]
    fn shed_hysteresis_engages_and_releases() {
        let mut s = ShedController::new(11); // marks: enter 8, exit 2
        assert!(!s.update(7));
        assert!(s.update(8), "enter on depth");
        // Between the watermarks: still shedding (hysteresis).
        assert!(s.update(5));
        assert!(!s.update(2), "exit only at the low watermark");
        assert!(!s.update(7), "and stay out below the high one");
        assert_eq!(s.times_engaged(), 1);

        // A bound too small to divide still engages before it overflows.
        let mut tiny = ShedController::new(1);
        assert!(tiny.update(1));
        assert!(!tiny.update(0));
    }
}
