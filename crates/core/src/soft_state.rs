//! Lazy soft state: expiry timers for orphaned reservations only.
//!
//! RSVP state is soft (§4.4): a reservation lives one lifetime past its
//! last refresh, and its source refreshes it at every sweep. A *live*
//! session's deadline is therefore never read — the next sweep always
//! lands before it — so none is stored, armed or re-armed. A deadline
//! only starts to matter when the source goes silent (its PATH_TEAR was
//! lost), and at that instant it is fully determined by two numbers the
//! simulation already has: when the session was admitted and when the
//! last sweep ran. [`OrphanTimers`] materialises it exactly then.
//!
//! [`anycast_rsvp::RefreshTracker`] is the eager model this replaces —
//! one deadline per live session, rewritten every sweep — and stays as
//! the reference the property test below checks this one against.

use anycast_rsvp::{RefreshConfig, SessionId};
use anycast_sim::DeadlineHeap;

/// Soft-state expiry for orphans: the last sweep's instant plus one
/// armed timer per orphaned reservation.
#[derive(Debug)]
pub(crate) struct OrphanTimers {
    refresh: RefreshConfig,
    /// When the latest refresh sweep ran; −∞ until the first one.
    last_sweep: f64,
    deadlines: DeadlineHeap<SessionId>,
}

impl OrphanTimers {
    pub(crate) fn new(refresh: RefreshConfig) -> Self {
        OrphanTimers {
            refresh,
            last_sweep: f64::NEG_INFINITY,
            deadlines: DeadlineHeap::new(),
        }
    }

    /// A refresh sweep ran at `now`: every session that still has a
    /// source was refreshed. Constant work, whatever the number of live
    /// sessions.
    pub(crate) fn note_sweep(&mut self, now: f64) {
        self.last_sweep = now;
    }

    /// `session`, admitted at `admitted_at`, just lost its source. Its
    /// last refresh was the latest sweep — or its own installation, if no
    /// sweep has seen it yet — and it expires one lifetime after that.
    /// Returns the wake-up to schedule, if the pending one is too late.
    pub(crate) fn orphan(&mut self, session: SessionId, admitted_at: f64) -> Option<f64> {
        let deadline = admitted_at.max(self.last_sweep) + self.refresh.lifetime_secs();
        self.deadlines.arm(session, deadline);
        self.deadlines.tick_needed()
    }

    /// Something else (a fault) released `session`'s reservation. Returns
    /// whether it was an orphan awaiting expiry.
    pub(crate) fn cancel(&mut self, session: SessionId) -> bool {
        self.deadlines.cancel(&session).is_some()
    }

    /// The deadline `session` is orphaned until, if it is an orphan.
    #[cfg(test)]
    pub(crate) fn deadline(&self, session: SessionId) -> Option<f64> {
        self.deadlines.deadline(&session)
    }

    /// Orphans whose lifetime ended by `now`, ascending by id. A wake-up
    /// fires at every armed deadline, so one call returns the orphans of
    /// one deadline; id order is the order a sweep refreshed them in.
    pub(crate) fn pop_expired(&mut self, now: f64) -> Vec<SessionId> {
        let mut due = self.deadlines.pop_due(now);
        due.sort_unstable();
        due
    }

    /// The next wake-up to schedule, if none pending covers it.
    pub(crate) fn tick_needed(&mut self) -> Option<f64> {
        self.deadlines.tick_needed()
    }

    /// Timers armed over the whole run — orphans created, that is.
    #[cfg(test)]
    pub(crate) fn armed_total(&self) -> u64 {
        self.deadlines.armed_total()
    }
}

#[cfg(test)]
mod tests {
    //! Lazy ≡ eager: [`OrphanTimers`] against [`RefreshTracker`], the
    //! one-deadline-per-live-session model it replaced.

    use super::*;
    use anycast_rsvp::RefreshTracker;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// Sweep period of the test clock. A power of two, like the quarter
    /// second every other instant is a multiple of, so all arithmetic on
    /// times is exact and instants coincide whenever the schedule says so.
    const INTERVAL: f64 = 4.0;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Op {
        Admit,
        /// Lose the teardown of the `n`-th live session.
        Orphan(usize),
        /// Tear the `n`-th live session down explicitly.
        Teardown(usize),
        /// A fault releases the `n`-th session, live or orphaned.
        FaultReclaim(usize),
    }

    /// One scheduled operation: at `quarters / 4` seconds, and — when that
    /// is a sweep instant — before or after the sweep.
    #[derive(Debug, Clone, Copy)]
    struct Step {
        quarters: u32,
        after_sweep: bool,
        op: Op,
    }

    /// What one schedule exercised, so the hand-written cases can prove
    /// they hit what they were written to hit.
    #[derive(Debug, Default, PartialEq)]
    struct Seen {
        orphaned: usize,
        expired: usize,
        before_first_sweep: bool,
        at_sweep_before: bool,
        at_sweep_after: bool,
        shared_deadline: bool,
    }

    fn sid(n: u64) -> SessionId {
        SessionId::for_tests(n)
    }

    /// Drives both models through `steps` (interleaved with a sweep every
    /// [`INTERVAL`]) and checks, at every orphaning, that the lazy deadline
    /// is the tracker's, and at the end that both expired the same
    /// sessions at the same instants in the same order.
    ///
    /// Within one instant the order is: operations scheduled before the
    /// sweep, the sweep, operations scheduled after it, then expiry.
    fn run(limit: u32, steps: &[Step]) -> Result<Seen, String> {
        let refresh = RefreshConfig {
            refresh_interval_secs: INTERVAL,
            missed_refresh_limit: limit,
        };
        let mut seen = Seen::default();

        // Eager: a deadline per live session, rewritten by every sweep;
        // orphans are the sessions the sweep skips.
        let mut tracker = RefreshTracker::new(refresh);
        let mut eager_orphans: BTreeSet<SessionId> = BTreeSet::new();
        let mut eager_expiries: Vec<(f64, SessionId)> = Vec::new();
        // Lazy: admission instants, the timers, and the wake-ups they
        // asked for.
        let mut live: BTreeMap<SessionId, f64> = BTreeMap::new();
        let mut timers = OrphanTimers::new(refresh);
        let mut ticks: Vec<f64> = Vec::new();
        let mut lazy_expiries: Vec<(f64, SessionId)> = Vec::new();

        // The merged schedule: (instant, phase, op); phase 1 is the sweep.
        // After the last operation everything live is torn down and the
        // sweeps run on until the last orphan must have expired.
        let last = steps.iter().map(|s| s.quarters).max().unwrap_or(0);
        let sweeps_until = f64::from(last) / 4.0 + f64::from(limit + 2) * INTERVAL;
        let mut schedule: Vec<(f64, u8, Option<Op>)> = steps
            .iter()
            .map(|s| {
                let t = f64::from(s.quarters) / 4.0;
                (t, if s.after_sweep { 2 } else { 0 }, Some(s.op))
            })
            .collect();
        let mut sweep = INTERVAL;
        while sweep <= sweeps_until {
            schedule.push((sweep, 1, None));
            sweep += INTERVAL;
        }
        schedule.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let drain_from = f64::from(last) / 4.0;

        let mut next_id = 0u64;
        let mut first_sweep_done = false;
        let mut drained = false;
        for (t, phase, op) in schedule {
            // Everything that expires strictly before `t`, on both sides.
            // The tracker is polled the naive way; a poll may span several
            // deadlines, which come back in id order, so they are put in
            // deadline order with the id order kept inside each.
            let deadlines: BTreeMap<SessionId, f64> = eager_orphans
                .iter()
                .map(|&s| (s, tracker.deadline(s).expect("orphans stay tracked")))
                .collect();
            let mut polled: Vec<(f64, SessionId)> = Vec::new();
            for s in tracker.collect_expired(t) {
                if !eager_orphans.remove(&s) {
                    return Err(format!("live session {s} expired at {t}"));
                }
                polled.push((deadlines[&s], s));
            }
            polled.sort_by(|a, b| a.0.total_cmp(&b.0));
            eager_expiries.extend(polled);
            ticks.sort_by(f64::total_cmp);
            while ticks.first().is_some_and(|&tick| tick < t) {
                let tick = ticks.remove(0);
                let expired = timers.pop_expired(tick);
                seen.shared_deadline |= expired.len() > 1;
                lazy_expiries.extend(expired.into_iter().map(|s| (tick, s)));
                ticks.extend(timers.tick_needed());
                ticks.sort_by(f64::total_cmp);
            }

            if !drained && t > drain_from {
                drained = true;
                for (s, _) in std::mem::take(&mut live) {
                    tracker.forget(s);
                }
            }
            let at_sweep_instant = (t / INTERVAL).fract() == 0.0 && t > 0.0;
            let pick = |n: usize, len: usize| (len > 0).then(|| n % len);
            match op {
                None => {
                    for &s in live.keys() {
                        tracker
                            .refresh(s, t)
                            .map_err(|s| format!("{s} untracked"))?;
                    }
                    timers.note_sweep(t);
                    first_sweep_done = true;
                }
                Some(Op::Admit) => {
                    let s = sid(next_id);
                    next_id += 1;
                    tracker.register(s, t);
                    live.insert(s, t);
                }
                Some(Op::Orphan(n)) => {
                    let Some(i) = pick(n, live.len()) else {
                        continue;
                    };
                    let s = *live.keys().nth(i).expect("index in range");
                    let admitted_at = live.remove(&s).expect("picked from live");
                    eager_orphans.insert(s);
                    ticks.extend(timers.orphan(s, admitted_at));
                    let eager = tracker.deadline(s);
                    let lazy = timers.deadline(s);
                    if eager.map(f64::to_bits) != lazy.map(f64::to_bits) {
                        return Err(format!(
                            "{s} admitted {admitted_at}, orphaned {t}: \
                             tracker says {eager:?}, lazy says {lazy:?}"
                        ));
                    }
                    seen.orphaned += 1;
                    seen.before_first_sweep |= !first_sweep_done;
                    seen.at_sweep_before |= at_sweep_instant && phase == 0;
                    seen.at_sweep_after |= at_sweep_instant && phase == 2;
                }
                Some(Op::Teardown(n)) => {
                    let Some(i) = pick(n, live.len()) else {
                        continue;
                    };
                    let s = *live.keys().nth(i).expect("index in range");
                    live.remove(&s);
                    tracker.forget(s);
                }
                Some(Op::FaultReclaim(n)) => {
                    let all: Vec<SessionId> =
                        live.keys().chain(eager_orphans.iter()).copied().collect();
                    let Some(i) = pick(n, all.len()) else {
                        continue;
                    };
                    let s = all[i];
                    let was_orphan = eager_orphans.remove(&s);
                    tracker.forget(s);
                    live.remove(&s);
                    if timers.cancel(s) != was_orphan {
                        return Err(format!("{s}: orphan membership disagrees at {t}"));
                    }
                }
            }
        }
        if !eager_orphans.is_empty() || tracker.tracked() != 0 {
            return Err(format!("the schedule left {eager_orphans:?} unexpired"));
        }
        seen.expired = eager_expiries.len();
        if eager_expiries != lazy_expiries {
            return Err(format!(
                "expiry sequences differ:\n eager {eager_expiries:?}\n lazy  {lazy_expiries:?}"
            ));
        }
        Ok(seen)
    }

    fn step(quarters: u32, after_sweep: bool, op: Op) -> Step {
        Step {
            quarters,
            after_sweep,
            op,
        }
    }

    /// The cases a random schedule is not guaranteed to reach, each
    /// checked to have been reached.
    #[test]
    fn named_cases_agree_with_the_tracker() {
        // Orphaned before the first sweep: the deadline counts from the
        // admission, there being no sweep to count from.
        let seen = run(
            3,
            &[step(1, false, Op::Admit), step(5, false, Op::Orphan(0))],
        )
        .unwrap();
        assert!(seen.before_first_sweep && seen.expired == 1, "{seen:?}");

        // Orphaned at a sweep instant (t = 8 s), before the sweep — which
        // then skips it — and after — which refreshed it first.
        for (after, limit) in [(false, 3), (true, 3), (false, 1), (true, 1)] {
            let seen = run(
                limit,
                &[step(3, false, Op::Admit), step(32, after, Op::Orphan(0))],
            )
            .unwrap();
            assert_eq!(seen.at_sweep_before, !after, "{seen:?}");
            assert_eq!(seen.at_sweep_after, after, "{seen:?}");
            assert_eq!(seen.expired, 1);
        }

        // One missed refresh kills: a live session's lifetime ends at the
        // very sweep that renews it, and must not expire there.
        let seen = run(
            1,
            &[
                step(2, false, Op::Admit),
                step(6, false, Op::Admit),
                step(70, false, Op::Orphan(1)),
                step(90, false, Op::Teardown(0)),
            ],
        )
        .unwrap();
        assert_eq!((seen.orphaned, seen.expired), (1, 1));

        // Two orphans sharing a deadline — both last refreshed by the
        // sweep at 16 s — expire in one wake-up, in id order although the
        // higher id was orphaned first; and two admitted at one instant,
        // never swept, do the same.
        let seen = run(
            2,
            &[
                step(1, false, Op::Admit),
                step(2, false, Op::Admit),
                step(66, false, Op::Orphan(1)),
                step(70, false, Op::Orphan(0)),
                step(101, false, Op::Admit),
                step(101, false, Op::Admit),
                step(102, false, Op::Orphan(1)),
                step(103, false, Op::Orphan(0)),
            ],
        )
        .unwrap();
        assert!(seen.shared_deadline && seen.expired == 4, "{seen:?}");

        // A fault gets to an orphan first: nothing is left to expire.
        let seen = run(
            3,
            &[
                step(1, false, Op::Admit),
                step(9, false, Op::Orphan(0)),
                step(20, false, Op::FaultReclaim(0)),
            ],
        )
        .unwrap();
        assert_eq!((seen.orphaned, seen.expired), (1, 0));
    }

    proptest! {
        /// Random schedules of admit / orphan / teardown / fault-reclaim,
        /// half of them landing on sweep instants, for every lifetime from
        /// one missed refresh to three.
        #[test]
        fn lazy_deadlines_and_expiry_order_match_the_tracker(
            limit in 1u32..=3,
            raw in prop::collection::vec(
                (0u32..8, 0usize..64, 0u32..24, any::<bool>(), any::<bool>()),
                1..160,
            ),
        ) {
            let mut quarters = 0u32;
            let steps: Vec<Step> = raw
                .into_iter()
                .map(|(kind, n, gap, snap, after_sweep)| {
                    quarters += gap;
                    if snap {
                        // Round up to the next sweep instant.
                        quarters = quarters.div_ceil(16).max(1) * 16;
                    }
                    let op = match kind {
                        0..=2 => Op::Admit,
                        3..=5 => Op::Orphan(n),
                        6 => Op::Teardown(n),
                        _ => Op::FaultReclaim(n),
                    };
                    step(quarters, after_sweep, op)
                })
                .collect();
            if let Err(why) = run(limit, &steps) {
                return Err(TestCaseError::fail(why));
            }
        }
    }
}
