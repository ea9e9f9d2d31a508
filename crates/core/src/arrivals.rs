//! A run's random streams and the arrival stream they feed.
//!
//! [`RunStreams::fork`] is the one place a run's seed is split into
//! streams, in one fixed order: workload, selection, demand, group,
//! fault, backoff. The offline experiment draws its arrivals from the
//! resulting [`ArrivalStream`]; `record_arrivals` walks a fresh one to
//! the horizon. Both therefore see the same arrivals, which is what makes
//! a virtual-time replay of a recorded trace bit-identical to the offline
//! run.

use crate::config::{ArrivalProcess, ExperimentConfig, GroupSpec};
use anycast_net::Bandwidth;
use anycast_sim::workload::{BurstyWorkload, FlowRequest, PoissonWorkload};
use anycast_sim::{SimRng, SimTime};

/// One flow request as it reaches its source router.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Arrival {
    pub(crate) source_index: usize,
    pub(crate) group_index: usize,
    pub(crate) holding_secs: f64,
    pub(crate) demand: Bandwidth,
}

/// Every random stream of one run, forked from its seed.
pub(crate) struct RunStreams {
    pub(crate) arrivals: ArrivalStream,
    /// Destination-selection draws.
    pub(crate) selection: SimRng,
    /// Fault timeline and control-plane loss and delay draws.
    pub(crate) fault: SimRng,
    /// Two-phase retransmission jitter.
    pub(crate) backoff: SimRng,
}

impl RunStreams {
    /// Forks `config`'s seed into the run's streams, with `group_specs`
    /// its effective groups.
    pub(crate) fn fork(config: &ExperimentConfig, group_specs: &[GroupSpec]) -> Self {
        let mut master_rng = SimRng::seed_from(config.seed);
        let workload = match config.arrivals {
            ArrivalProcess::Poisson => WorkloadKind::Poisson(PoissonWorkload::new(
                config.lambda,
                config.mean_holding_secs,
                config.sources.len(),
                &mut master_rng,
            )),
            ArrivalProcess::Bursty {
                burstiness,
                mean_sojourn_secs,
            } => WorkloadKind::Bursty(BurstyWorkload::with_mean_rate(
                config.lambda,
                burstiness,
                mean_sojourn_secs,
                config.mean_holding_secs,
                config.sources.len(),
                &mut master_rng,
            )),
        };
        let selection = master_rng.fork();
        let arrivals = ArrivalStream {
            workload,
            demand_rng: master_rng.fork(),
            group_rng: master_rng.fork(),
            group_shares: group_specs.iter().map(|g| g.share).collect(),
            demand_weights: config.demand_mix.iter().map(|c| c.weight).collect(),
            demand_bandwidths: config.demand_mix.iter().map(|c| c.bandwidth).collect(),
            flow_bandwidth: config.flow_bandwidth,
        };
        // Forked last so the fault stream never perturbs the workload,
        // selection, demand or group streams: a run under FaultPlan::none()
        // is bit-identical to one that predates fault injection.
        let fault = master_rng.fork();
        // Forked after the fault stream (and only ever drawn from by backoff
        // jitter) so enabling two-phase signalling perturbs no earlier
        // stream.
        let backoff = master_rng.fork();
        RunStreams {
            arrivals,
            selection,
            fault,
            backoff,
        }
    }
}

/// A run's arrivals: the workload's requests, each with its demand class
/// and its group drawn from their own streams.
pub(crate) struct ArrivalStream {
    workload: WorkloadKind,
    demand_rng: SimRng,
    group_rng: SimRng,
    group_shares: Vec<f64>,
    /// The demand classes' weights and bandwidths; both empty when every
    /// flow demands `flow_bandwidth`.
    demand_weights: Vec<f64>,
    demand_bandwidths: Vec<Bandwidth>,
    flow_bandwidth: Bandwidth,
}

impl ArrivalStream {
    /// The next arrival and its instant. The request is drawn first, then
    /// its demand, then its group.
    pub(crate) fn next(&mut self) -> (SimTime, Arrival) {
        let request = self.workload.next_request();
        let demand = if self.demand_weights.is_empty() {
            self.flow_bandwidth
        } else {
            let class = self
                .demand_rng
                .choose_weighted(&self.demand_weights)
                .expect("demand weights validated positive");
            self.demand_bandwidths[class]
        };
        let group_index = if self.group_shares.len() == 1 {
            0
        } else {
            self.group_rng
                .choose_weighted(&self.group_shares)
                .expect("group shares validated positive")
        };
        let arrival = Arrival {
            source_index: request.source_index,
            group_index,
            holding_secs: request.holding.as_secs(),
            demand,
        };
        (request.arrival, arrival)
    }
}

/// Arrival-process dispatch without a trait object (all variants are
/// concrete and cheap).
enum WorkloadKind {
    Poisson(PoissonWorkload),
    Bursty(BurstyWorkload),
}

impl WorkloadKind {
    fn next_request(&mut self) -> FlowRequest {
        match self {
            WorkloadKind::Poisson(w) => w.next_request(),
            WorkloadKind::Bursty(w) => w.next_request(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DemandClass, SystemSpec};
    use anycast_net::NodeId;

    /// The fork order, pinned where every stream shows: two groups and two
    /// demand classes make the demand and group streams draw, and each of
    /// the other streams is read once. A swapped or missing fork moves
    /// these draws; the replay tests cannot see that, because recording and
    /// the run fork alike.
    #[test]
    fn the_fork_order_is_pinned() {
        let class = |kbps, weight| DemandClass {
            bandwidth: Bandwidth::from_kbps(kbps),
            weight,
        };
        let group = |member, share| GroupSpec {
            members: vec![NodeId::new(member)],
            share,
        };
        let config = ExperimentConfig::paper_defaults(10.0, SystemSpec::ShortestPath)
            .with_seed(7)
            .with_groups(vec![group(0, 2.0), group(4, 1.0)])
            .with_demand_mix(vec![class(64, 3.0), class(256, 1.0)]);
        let mut streams = RunStreams::fork(&config, &config.effective_groups());
        let arrivals: Vec<(usize, usize, u64)> = (0..10)
            .map(|_| {
                let (_, a) = streams.arrivals.next();
                (a.source_index, a.group_index, a.demand.bps() / 1_000)
            })
            .collect();
        let others = [
            streams.selection.below(1_000),
            streams.fault.below(1_000),
            streams.backoff.below(1_000),
        ];
        // (source index, group index, kb/s) of the first ten arrivals.
        let expected = [
            (7, 1, 256),
            (1, 0, 64),
            (2, 0, 64),
            (5, 0, 64),
            (3, 1, 64),
            (1, 0, 64),
            (8, 0, 64),
            (2, 1, 64),
            (3, 0, 64),
            (2, 0, 64),
        ];
        assert_eq!(arrivals, expected);
        assert_eq!(others, [744, 842, 736]);
    }
}
