//! The statistics of one run: what every verdict, load change and link
//! fault adds to the [`Metrics`] a run reports.

use crate::metrics::Metrics;
use crate::AdmissionOutcome;
use anycast_net::{AnycastGroup, LinkStateTable};
use anycast_rsvp::{MessageLedger, ReservationEngine};
use anycast_sim::stats::{AdmissionStats, TimeWeighted};
use anycast_sim::SimTime;

/// Admission counts overall and per group, each member's admitted flows,
/// and the measurement window's time-weighted signals. Everything here
/// counts from the end of warm-up on.
pub(crate) struct RunStats {
    warmup_end: SimTime,
    admissions: AdmissionStats,
    per_group: Vec<AdmissionStats>,
    /// Flows admitted after warm-up, `member_counts[group][member]`.
    member_counts: Vec<Vec<u64>>,
    /// `None` until warm-up ends.
    window: Option<Window>,
}

/// The measurement window's time-weighted signals: concurrently active
/// sessions, total reserved bandwidth and the operational fraction of
/// links. The load reads are field loads (the ledger keeps its own
/// totals), so every event that moves either notes them here, whatever
/// the fabric size.
struct Window {
    active: TimeWeighted,
    reserved_bw: TimeWeighted,
    availability: TimeWeighted,
}

impl RunStats {
    /// Empty statistics for `groups`, gated at `warmup_end`.
    pub(crate) fn new(warmup_end: SimTime, groups: &[AnycastGroup]) -> Self {
        RunStats {
            warmup_end,
            admissions: AdmissionStats::new(warmup_end),
            per_group: groups
                .iter()
                .map(|_| AdmissionStats::new(warmup_end))
                .collect(),
            member_counts: groups.iter().map(|g| vec![0u64; g.len()]).collect(),
            window: None,
        }
    }

    /// Counts one verdict for a request of `group` decided at `now`.
    pub(crate) fn verdict(&mut self, now: SimTime, group: usize, outcome: AdmissionOutcome) {
        let admitted = outcome.admitted;
        self.admissions
            .record(now, admitted.is_some(), outcome.tries);
        self.per_group[group].record(now, admitted.is_some(), outcome.tries);
        if let Some(flow) = admitted {
            if now >= self.warmup_end {
                self.member_counts[group][flow.member_index] += 1;
            }
        }
    }

    /// Opens the measurement window at `now` on the current load and link
    /// state: warm-up has ended.
    pub(crate) fn open_window(
        &mut self,
        now: SimTime,
        rsvp: &ReservationEngine,
        links: &LinkStateTable,
    ) {
        self.window = Some(Window {
            active: TimeWeighted::new(now, 0.0),
            reserved_bw: TimeWeighted::new(now, 0.0),
            availability: TimeWeighted::new(now, links.operational_fraction()),
        });
        self.note_load(now, rsvp, links);
    }

    /// Records the load as of `now` (after warm-up).
    pub(crate) fn note_load(
        &mut self,
        now: SimTime,
        rsvp: &ReservationEngine,
        links: &LinkStateTable,
    ) {
        if let Some(window) = self.window.as_mut() {
            window.active.update(now, rsvp.active_sessions() as f64);
            window
                .reserved_bw
                .update(now, links.total_reserved().bps() as f64);
        }
    }

    /// Records the operational fraction of links as of `now` (after
    /// warm-up).
    pub(crate) fn note_availability(&mut self, now: SimTime, links: &LinkStateTable) {
        if let Some(window) = self.window.as_mut() {
            window
                .availability
                .update(now, links.operational_fraction());
        }
    }

    /// Admission counts over every group.
    pub(crate) fn admissions(&self) -> &AdmissionStats {
        &self.admissions
    }

    /// The statistical half of the run's [`Metrics`], with time-weighted
    /// averages over `[warmup_end, end]`: admission probability and its
    /// CI, tries, messages per request, per-group AP, member shares, load
    /// and availability. `capacity_bps` is the network's whole anycast
    /// partition. The label, the fault book's and the two-phase fields are
    /// left at their defaults for the caller.
    pub(crate) fn metrics(
        &self,
        end: SimTime,
        messages: MessageLedger,
        capacity_bps: u64,
    ) -> Metrics {
        let stats = &self.admissions;
        let offered = stats.offered();
        let window = self.window.as_ref();
        Metrics {
            admission_probability: stats.admission_probability(),
            ap_ci95: stats.ap_ci95_half_width(),
            offered,
            admitted: stats.admitted(),
            mean_tries: stats.mean_tries(),
            mean_retrials: stats.mean_retrials(),
            messages_per_request: if offered == 0 {
                0.0
            } else {
                messages.total() as f64 / offered as f64
            },
            messages,
            tries_histogram: stats.tries_histogram().buckets().to_vec(),
            per_group_ap: self
                .per_group
                .iter()
                .map(|s| s.admission_probability())
                .collect(),
            member_share: self
                .member_counts
                .iter()
                .map(|counts| {
                    // A group that admitted nothing has all-zero shares.
                    let total = counts.iter().sum::<u64>().max(1) as f64;
                    counts.iter().map(|&c| c as f64 / total).collect()
                })
                .collect(),
            mean_active_flows: window.map_or(0.0, |w| w.active.average_until(end)),
            mean_network_utilization: window.map_or(0.0, |w| {
                if capacity_bps == 0 {
                    0.0
                } else {
                    w.reserved_bw.average_until(end) / capacity_bps as f64
                }
            }),
            availability: window.map_or(1.0, |w| w.availability.average_until(end)),
            ..Metrics::default()
        }
    }
}
