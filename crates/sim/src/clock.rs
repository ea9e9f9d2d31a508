//! Wall-clock vs virtual-clock time sources for online (long-lived)
//! simulation driving.
//!
//! The discrete-event [`Engine`](crate::Engine) keeps its own virtual
//! clock; a [`TimeSource`] tells a *driver loop* how far that clock is
//! allowed to advance and how to wait for the next quantum:
//!
//! * [`VirtualClock`] — time is wherever the driver says it is and
//!   "waiting" is free. Trace replay in virtual-time mode uses this, which
//!   is why a replay finishes in milliseconds yet remains bit-identical to
//!   the offline engine.
//! * [`WallClock`] — simulated seconds are anchored to a real
//!   [`Instant`], optionally rate-scaled (`speed` simulated seconds per
//!   real second), and waiting actually sleeps. The admission daemon and
//!   paced (`--speed`) replay use this.

use crate::SimTime;
use std::time::{Duration as StdDuration, Instant};

/// A monotonic source of simulated time for a driver loop.
pub trait TimeSource {
    /// The current simulated time according to this source.
    fn now(&mut self) -> SimTime;

    /// Blocks (or, for virtual sources, instantly advances) until the
    /// source reaches `t`. Returns the source's time afterwards, which is
    /// `>= t`.
    fn sleep_until(&mut self, t: SimTime) -> SimTime;
}

/// A virtual clock: advancing is free and instantaneous.
///
/// `now` only moves forward via [`sleep_until`](TimeSource::sleep_until)
/// (or `advance_to`), so a replay driver that
/// sleeps to each arrival timestamp visits exactly the same instants a
/// wall-clock driver would, with zero real-time cost.
#[derive(Debug, Clone, Copy)]
pub struct VirtualClock {
    now: SimTime,
}

impl Default for VirtualClock {
    fn default() -> Self {
        Self::new()
    }
}

impl VirtualClock {
    /// A virtual clock starting at simulated time zero.
    pub(crate) fn new() -> Self {
        VirtualClock { now: SimTime::ZERO }
    }

    /// Moves the clock to `t` if that is later than the current time.
    pub(crate) fn advance_to(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }
}

impl TimeSource for VirtualClock {
    fn now(&mut self) -> SimTime {
        self.now
    }

    fn sleep_until(&mut self, t: SimTime) -> SimTime {
        self.advance_to(t);
        self.now
    }
}

/// A wall clock mapping real elapsed time to simulated seconds at a
/// configurable rate.
///
/// `speed` is simulated seconds per real second: 1.0 runs in real time,
/// 60.0 replays an hour-long trace in a minute. The origin is captured at
/// construction, so simulated time `t` corresponds to the real instant
/// `origin + t / speed`.
///
/// Pacing is **absolute-deadline anchored**: every sleep targets
/// `origin + t / speed` rather than a duration relative to the previous
/// wake-up, so per-sleep overheads (scheduler latency, timer coarseness)
/// never accumulate across a long replay — a driver issuing thousands of
/// `sleep_until` calls lands on the final deadline with bounded error,
/// not the sum of each call's overshoot.
#[derive(Debug, Clone)]
pub struct WallClock {
    origin: Instant,
    speed: f64,
}

impl WallClock {
    /// A wall clock starting now, mapping `speed` simulated seconds to
    /// each real second.
    ///
    /// # Panics
    ///
    /// Panics if `speed` is not positive and finite.
    pub fn new(speed: f64) -> Self {
        assert!(
            speed.is_finite() && speed > 0.0,
            "wall-clock speed must be positive and finite, got {speed}"
        );
        WallClock {
            origin: Instant::now(),
            speed,
        }
    }
}

impl TimeSource for WallClock {
    fn now(&mut self) -> SimTime {
        SimTime::from_secs(self.origin.elapsed().as_secs_f64() * self.speed)
    }

    fn sleep_until(&mut self, t: SimTime) -> SimTime {
        loop {
            let now = self.now();
            if now >= t {
                return now;
            }
            let remaining_real = (t.as_secs() - now.as_secs()) / self.speed;
            std::thread::sleep(StdDuration::from_secs_f64(remaining_real.max(0.0)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_advances_for_free() {
        let mut c = VirtualClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        let t = SimTime::from_secs(1_000_000.0);
        let started = Instant::now();
        assert_eq!(c.sleep_until(t), t);
        assert_eq!(c.now(), t);
        assert!(started.elapsed() < StdDuration::from_secs(1));
        // Sleeping backwards is a no-op.
        assert_eq!(c.sleep_until(SimTime::from_secs(1.0)), t);
    }

    #[test]
    fn wall_clock_scales_real_time() {
        // 1000 simulated seconds per real second: 50ms of real time must
        // cover the 20-simulated-second sleep with huge margin.
        let mut c = WallClock::new(1_000.0);
        let reached = c.sleep_until(SimTime::from_secs(20.0));
        assert!(reached >= SimTime::from_secs(20.0));
        assert!(c.now() >= reached);
    }

    #[test]
    fn paced_sleeps_do_not_accumulate_drift() {
        // A --speed replay issues one sleep_until per arrival. Because
        // each sleep targets the absolute deadline `origin + t/speed`,
        // per-call overshoot must NOT accumulate: many short sleeps land
        // on the final deadline with the same bounded error as one long
        // sleep. 2000 sleeps covering 100 simulated seconds at 100000x
        // is 1 ms of nominal real time; even a slow CI runner stays far
        // under the 1 s slack unless overheads compound per call.
        let speed = 100_000.0;
        let mut c = WallClock::new(speed);
        let started = Instant::now();
        let steps = 2_000;
        let final_secs = 100.0;
        for i in 1..=steps {
            let target = SimTime::from_secs(final_secs * i as f64 / steps as f64);
            let reached = c.sleep_until(target);
            assert!(reached >= target, "woke before the deadline at step {i}");
        }
        let elapsed = started.elapsed().as_secs_f64();
        let nominal = final_secs / speed;
        assert!(
            elapsed < nominal + 1.0,
            "cumulative pacing drift: {elapsed:.3}s real for {nominal:.3}s nominal"
        );
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_speed_rejected() {
        let _ = WallClock::new(0.0);
    }
}
