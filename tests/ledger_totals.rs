//! The ledger keeps its own totals: after *every* call — successful or
//! refused — each O(1) aggregate reader must equal a naive fold over the
//! per-link columns, `audit()` must pass, and the columns must equal what
//! an independent model of the outstanding reservations, holds and faults
//! says they hold. A refused call (insufficient bandwidth, release
//! underflow, unknown link or node) must leave the ledger, its version and
//! its totals untouched, and `reserve_path` must be all-or-nothing.
//!
//! This is the first slice of the continuous invariant checker: deleting
//! any single `+=`/`-=` on a running total in `link_state.rs` fails it.

use anycast::net::routing::shortest_path;
use anycast::net::{LinkSnapshot, LinkSummary, NetError, Path, TopologyBuilder};
use anycast::prelude::*;

/// The anycast partition of every link (§5.1).
const PARTITION: f64 = 0.2;

/// What the ledger should hold, tracked without reading it.
struct Model {
    /// Single-link reservations, one per ledger flow.
    reservations: Vec<(LinkId, Bandwidth)>,
    /// Whole-path reservations.
    paths: Vec<(Path, Bandwidth)>,
    /// Pending holds.
    holds: Vec<(LinkId, Bandwidth)>,
    /// Explicit link faults.
    link_down: Vec<bool>,
    /// Node faults.
    node_down: Vec<bool>,
}

impl Model {
    fn new(topo: &Topology) -> Self {
        Model {
            reservations: Vec::new(),
            paths: Vec::new(),
            holds: Vec::new(),
            link_down: vec![false; topo.link_count()],
            node_down: vec![false; topo.node_count()],
        }
    }

    fn summary(&self, topo: &Topology) -> LinkSummary {
        let single: u64 = self.reservations.iter().map(|(_, bw)| bw.bps()).sum();
        let pathwise: u64 = self
            .paths
            .iter()
            .map(|(p, bw)| bw.bps() * p.hops() as u64)
            .sum();
        LinkSummary {
            links: topo.link_count(),
            failed_links: topo
                .links()
                .filter(|l| {
                    self.link_down[l.id().index()]
                        || self.node_down[l.a().index()]
                        || self.node_down[l.b().index()]
                })
                .count(),
            capacity_bps: topo
                .links()
                .map(|l| l.capacity().scaled(PARTITION).bps())
                .sum(),
            reserved_bps: single + pathwise,
            pending_bps: self.holds.iter().map(|(_, bw)| bw.bps()).sum(),
        }
    }
}

/// The whole observable state of the ledger: every column plus the version.
fn state(table: &LinkStateTable) -> (Vec<(LinkId, LinkSnapshot)>, u64) {
    (table.iter().collect(), table.version())
}

/// Every O(1) reader against a naive fold over `iter()`, the audit, and
/// the model.
fn check(table: &LinkStateTable, topo: &Topology, model: &Model, ctx: &str) {
    let mut naive = LinkSummary {
        links: 0,
        failed_links: 0,
        capacity_bps: 0,
        reserved_bps: 0,
        pending_bps: 0,
    };
    for (_, s) in table.iter() {
        naive.links += 1;
        naive.failed_links += usize::from(s.failed);
        naive.capacity_bps += s.capacity.bps();
        naive.reserved_bps += s.reserved.bps();
        naive.pending_bps += s.held.bps();
    }
    assert_eq!(table.audit(), Ok(naive), "audit, {ctx}");
    assert_eq!(table.summary(), naive, "summary, {ctx}");
    assert_eq!(table.sharded().summary(), naive, "sharded summary, {ctx}");
    assert_eq!(
        table.total_reserved().bps(),
        naive.reserved_bps,
        "total_reserved, {ctx}"
    );
    assert_eq!(
        table.total_pending().bps(),
        naive.pending_bps,
        "total_pending, {ctx}"
    );
    assert_eq!(
        table.failed_link_count(),
        naive.failed_links,
        "failed_link_count, {ctx}"
    );
    assert_eq!(
        table.operational_fraction(),
        1.0 - naive.failed_links as f64 / naive.links as f64,
        "operational_fraction, {ctx}"
    );
    assert_eq!(naive, model.summary(topo), "columns vs model, {ctx}");
}

/// Which refusals the run actually provoked.
#[derive(Default)]
struct Refusals {
    insufficient: u32,
    underflow: u32,
    unknown_link: u32,
    unknown_node: u32,
    /// `reserve_path` refused at a link past the first, i.e. with links
    /// before the bottleneck that had to stay untouched.
    mid_path: u32,
}

impl Refusals {
    fn note(&mut self, e: &NetError) {
        match e {
            NetError::InsufficientBandwidth { .. } => self.insufficient += 1,
            NetError::ReleaseUnderflow { .. } => self.underflow += 1,
            NetError::UnknownLink(_) => self.unknown_link += 1,
            NetError::UnknownNode(_) => self.unknown_node += 1,
            other => panic!("unexpected ledger error {other}"),
        }
    }
}

fn drive(topo: &Topology, seeds: std::ops::Range<u64>, steps: usize) {
    let mut refusals = Refusals::default();
    let links = topo.link_count();
    let nodes = topo.node_count();
    for seed in seeds {
        let mut rng = SimRng::seed_from(seed);
        let mut table = LinkStateTable::with_uniform_fraction(topo, Bandwidth::ZERO, PARTITION);
        let mut model = Model::new(topo);
        check(&table, topo, &model, "fresh ledger");
        for step in 0..steps {
            // One in twelve ids is out of range, so the unknown-id refusals
            // interleave with everything else.
            let link = LinkId::new(rng.below(links + links.div_ceil(12)) as u32);
            let node = NodeId::new(rng.below(nodes + nodes.div_ceil(12)) as u32);
            // Mostly a few per cent of a 20 Mb/s partition, sometimes more
            // than any link can carry.
            let bw = if rng.below(6) == 0 {
                Bandwidth::from_mbps(15 + rng.below(10) as u64)
            } else {
                Bandwidth::from_bps(rng.below(3_000_000) as u64)
            };
            let before = state(&table);
            let op = rng.below(18);
            let ctx = format!("seed {seed} step {step} op {op}");
            // `Some(result)` when the op called the ledger with arguments
            // that may legitimately be refused; valid releases unwrap.
            let result: Option<Result<(), NetError>> = match op {
                0 | 1 => Some(table.reserve(link, bw).map(|()| {
                    model.reservations.push((link, bw));
                })),
                2 if !model.reservations.is_empty() => {
                    let (l, b) = model
                        .reservations
                        .swap_remove(rng.below(model.reservations.len()));
                    table.release(l, b).expect("releasing what was reserved");
                    None
                }
                3 => {
                    // Unknown link, or one bit more than the link holds.
                    let over =
                        table.snapshot(link).map_or(bw, |s| s.reserved) + Bandwidth::from_bps(1);
                    Some(table.release(link, over))
                }
                4..=6 => {
                    let src = NodeId::new(rng.below(nodes) as u32);
                    let dst = NodeId::new(rng.below(nodes) as u32);
                    let path = shortest_path(topo, src, dst).expect("connected topology");
                    let r = table.reserve_path(&path, bw);
                    if let Err(NetError::InsufficientBandwidth { link, .. }) = &r {
                        refusals.mid_path += u32::from(path.links()[0] != *link);
                    }
                    Some(r.map(|()| model.paths.push((path, bw))))
                }
                7 if !model.paths.is_empty() => {
                    let (p, b) = model.paths.swap_remove(rng.below(model.paths.len()));
                    table
                        .release_path(&p, b)
                        .expect("releasing a reserved path");
                    None
                }
                8 => {
                    // A path release that underflows on its *first* link, the
                    // one case `release_path` documents as touching nothing.
                    let src = NodeId::new(rng.below(nodes) as u32);
                    let dst = NodeId::new(rng.below(nodes) as u32);
                    let path = shortest_path(topo, src, dst).expect("connected topology");
                    path.links().first().map(|first| {
                        let over =
                            table.snapshot(*first).unwrap().reserved + Bandwidth::from_bps(1);
                        table.release_path(&path, over)
                    })
                }
                9 | 10 => Some(table.place_hold(link, bw).map(|()| {
                    model.holds.push((link, bw));
                })),
                11 if !model.holds.is_empty() => {
                    let (l, b) = model.holds.swap_remove(rng.below(model.holds.len()));
                    if rng.below(2) == 0 {
                        table.release_hold(l, b).expect("releasing a placed hold");
                    } else {
                        table.commit_hold(l, b).expect("committing a placed hold");
                        model.reservations.push((l, b));
                    }
                    None
                }
                12 => {
                    let over = table.snapshot(link).map_or(bw, |s| s.held) + Bandwidth::from_bps(1);
                    Some(if rng.below(2) == 0 {
                        table.release_hold(link, over)
                    } else {
                        table.commit_hold(link, over)
                    })
                }
                13 => Some(table.fail_link(link).map(|()| {
                    model.link_down[link.index()] = true;
                })),
                14 => Some(table.restore_link(link).map(|()| {
                    model.link_down[link.index()] = false;
                })),
                15 => Some(table.fail_node(node).map(|()| {
                    model.node_down[node.index()] = true;
                })),
                16 => Some(table.restore_node(node).map(|()| {
                    model.node_down[node.index()] = false;
                })),
                17 if rng.below(8) == 0 => {
                    table.reset();
                    model = Model::new(topo);
                    None
                }
                _ => None,
            };
            if let Some(Err(e)) = &result {
                refusals.note(e);
                assert_eq!(
                    state(&table),
                    before,
                    "refused call moved the ledger, {ctx}: {e}"
                );
            }
            check(&table, topo, &model, &ctx);
        }
    }
    assert!(
        refusals.insufficient > 0
            && refusals.underflow > 0
            && refusals.unknown_link > 0
            && refusals.unknown_node > 0
            && refusals.mid_path > 0,
        "every kind of refusal must have been exercised"
    );
}

#[test]
fn totals_track_columns_on_a_line() {
    let mut b = TopologyBuilder::new(6);
    b.links_uniform(
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
        Bandwidth::from_mbps(100),
    )
    .unwrap();
    drive(&b.build(), 0..24, 400);
}

#[test]
fn totals_track_columns_on_mci() {
    drive(&topologies::mci(), 100..124, 400);
}

#[test]
fn totals_track_columns_on_fat_tree_4() {
    drive(
        &topologies::fat_tree(4, Bandwidth::from_mbps(100)),
        200..224,
        400,
    );
}
