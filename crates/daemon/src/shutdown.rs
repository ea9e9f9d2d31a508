//! Cooperative shutdown signalling: a shared flag set by SIGINT/SIGTERM
//! or by a `shutdown` wire request, polled by the service loop between
//! ticks — plus the admission-queue drain that keeps shutdown honest
//! toward queued clients ([`drain_unserved`]).
//!
//! The workspace vendors no `libc`/`signal-hook`, so the signal handler
//! is registered through the C `signal(2)` ABI directly — the only
//! `unsafe` in the workspace, confined to this module. The handler does
//! the one thing that is async-signal-safe: a relaxed atomic store.

use crate::overload::{AdmissionQueue, QueuedAdmit};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A clonable shutdown flag.
#[derive(Debug, Clone, Default)]
pub struct ShutdownFlag(Arc<AtomicBool>);

impl ShutdownFlag {
    /// A fresh, unset flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests shutdown (idempotent).
    pub fn request(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether shutdown has been requested.
    pub(crate) fn is_requested(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// The process-wide flag the C signal handler stores into. Process-global
/// by necessity: a signal handler takes no closure context.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    SIGNALLED.store(true, Ordering::Relaxed);
}

/// Installs `on_signal` for SIGINT and SIGTERM and returns the
/// process-global view of it as a [`ShutdownFlag`]-compatible check.
/// Returns `false` if registration failed (the daemon then still shuts
/// down via the wire `shutdown` op).
pub fn install_signal_handler() -> bool {
    // signal(2): registering a plain function pointer. SIG_ERR is -1.
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    let sig_err = usize::MAX;
    // SAFETY: `on_signal` only performs a relaxed atomic store, which is
    // async-signal-safe; `signal` itself is safe to call from the main
    // thread before the service loop starts.
    unsafe { signal(SIGINT, on_signal) != sig_err && signal(SIGTERM, on_signal) != sig_err }
}

/// Whether a registered signal handler has fired.
pub fn signalled() -> bool {
    SIGNALLED.load(Ordering::Relaxed)
}

/// Empties the admission queue at shutdown, in the queue's own fair
/// dispatch order, so the server can send every queued-but-unserved admit
/// an explicit `shutting_down` rejection instead of leaving its client
/// waiting on a decision that will never come. The engine is stopping:
/// nothing drained here may be submitted.
pub fn drain_unserved(queue: &mut AdmissionQueue) -> Vec<QueuedAdmit> {
    std::iter::from_fn(|| queue.pop()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_round_trip() {
        let f = ShutdownFlag::new();
        assert!(!f.is_requested());
        let g = f.clone();
        g.request();
        assert!(f.is_requested());
    }

    #[test]
    fn handler_installs() {
        assert!(install_signal_handler());
        assert!(!signalled());
    }

    #[test]
    fn drain_empties_the_queue_in_dispatch_order() {
        let admit = |conn: u64| QueuedAdmit {
            conn,
            token: None,
            source_index: 0,
            group_index: 0,
            demand: anycast_net::Bandwidth::from_bps(1),
            holding_secs: 1.0,
            received: std::time::Instant::now(),
        };
        let mut q = AdmissionQueue::new(8, 4);
        q.push(admit(0)).unwrap();
        q.push(admit(0)).unwrap();
        q.push(admit(1)).unwrap();
        let drained = drain_unserved(&mut q);
        assert_eq!(
            drained.iter().map(|a| a.conn).collect::<Vec<_>>(),
            vec![0, 1, 0]
        );
        assert!(q.is_empty());
    }
}
