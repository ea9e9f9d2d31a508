//! The link-capacity ledger: available bandwidth per link, plus link and
//! node up/down state for the fault-injection extension.

use crate::{Bandwidth, LinkId, NetError, NodeId, Path, Topology};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Links per shard of the striped ledger view. Each shard carries its own
/// last-touched stamp, so a reader scanning many links (telemetry
/// sampling, route-bandwidth refresh) can skip whole stripes whose stamp
/// has not advanced past the version it last saw. 64 keeps a shard's
/// snapshots within a cache line or two while still collapsing the paper
/// topologies (tens of links) into one or two stripes.
pub const LINKS_PER_SHARD: usize = 64;

fn shard_count_for(links: usize) -> usize {
    links.div_ceil(LINKS_PER_SHARD)
}

/// Read-only snapshot of one link's capacity accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkSnapshot {
    /// Capacity usable by anycast flows (the anycast partition of §5.1).
    pub capacity: Bandwidth,
    /// Bandwidth currently reserved by admitted flows.
    pub reserved: Bandwidth,
    /// Number of flows currently holding a reservation across this link.
    pub flows: u32,
    /// Bandwidth held by in-flight two-phase setups (PATH walks that have
    /// crossed this link but whose RESV has not confirmed yet). Holds count
    /// against availability so concurrent setups race honestly, but are not
    /// confirmed reservations: an unconfirmed hold expires and returns its
    /// bandwidth.
    pub held: Bandwidth,
    /// Number of pending holds on this link.
    pub(crate) holds: u32,
    /// `true` while the link is administratively or physically down
    /// (fault-injection extension; the paper assumes a fault-free network).
    pub failed: bool,
}

impl LinkSnapshot {
    /// Remaining capacity — the paper's available bandwidth `AB_l`.
    /// A failed link has no available bandwidth. Pending holds count as
    /// taken: a concurrent setup must not double-book bandwidth another
    /// setup has already claimed mid-signalling.
    pub(crate) fn available(&self) -> Bandwidth {
        if self.failed {
            Bandwidth::ZERO
        } else {
            self.capacity
                .saturating_sub(self.reserved)
                .saturating_sub(self.held)
        }
    }
}

/// Whole-table aggregate of the ledger, for operational snapshots (the
/// admission daemon's `stats` endpoint). [`LinkStateTable::summary`] reads
/// it from the ledger's running totals in O(1);
/// [`LinkStateTable::audit`] recomputes it with a pass over every link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkSummary {
    /// Links tracked by the ledger.
    pub links: usize,
    /// Links currently (effectively) down.
    pub failed_links: usize,
    /// Total anycast-partition capacity, bit/s.
    pub capacity_bps: u64,
    /// Total reserved bandwidth, bit/s.
    pub reserved_bps: u64,
    /// Total bandwidth held by pending (unconfirmed) setups, bit/s.
    pub pending_bps: u64,
}

/// Mutable per-link bandwidth bookkeeping for one simulation run.
///
/// Tracks, for every link, how much of the anycast partition is reserved by
/// active flows. `AB_l` of the paper is [`available`](Self::available). The
/// ledger enforces the two invariants the admission control relies on:
/// reservations never exceed capacity, and releases never exceed
/// reservations.
///
/// The ledger also owns its whole-table aggregates — total reserved, total
/// held, effectively-failed link count, total capacity — as running
/// totals adjusted by the same mutators that move the per-link columns, so
/// [`total_reserved`](Self::total_reserved), [`summary`](Self::summary)
/// and friends cost a field load whatever the fabric size. Bandwidth is
/// integer bit/s, so each total is *exactly* the sum of its column;
/// [`audit`](Self::audit) is the full scan that proves it.
///
/// Path-level operations ([`reserve_path`](Self::reserve_path)) are
/// all-or-nothing: on failure the ledger is left exactly as it was.
/// Link and node up/down state is tracked separately from the capacity
/// accounting: `LinkSnapshot::failed` is the *effective* state (a link is
/// down if it failed itself **or** either endpoint node is down), while
/// the table remembers the explicit link faults so that restoring a node
/// does not silently resurrect a link that is still broken on its own.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkStateTable {
    states: Vec<LinkSnapshot>,
    /// Explicit per-link faults (`fail_link`), independent of node state.
    link_failed: Vec<bool>,
    /// Per-node faults (`fail_node`); a down node downs every incident link.
    node_failed: Vec<bool>,
    /// Link endpoints, captured from the topology at construction.
    endpoints: Vec<(NodeId, NodeId)>,
    /// Monotone mutation counter: bumped by every operation that can change
    /// some link's available bandwidth. Lets callers cache derived
    /// quantities (route bottlenecks, feasibility verdicts) and invalidate
    /// them exactly when a relevant link moved.
    #[serde(default)]
    version: u64,
    /// Per-link last-touched version (parallel to `states`): `stamps[i]` is
    /// the `version` at which link `i`'s availability last changed.
    #[serde(default)]
    stamps: Vec<u64>,
    /// Per-shard last-touched version: `shard_stamps[s]` upper-bounds the
    /// stamp of every link in shard `s` (links `s*LINKS_PER_SHARD ..`), so
    /// an unchanged shard stamp proves the whole stripe is unchanged.
    #[serde(default)]
    shard_stamps: Vec<u64>,
    /// Running `Σ reserved` over `states`.
    total_reserved: Bandwidth,
    /// Running `Σ held` over `states`.
    total_held: Bandwidth,
    /// Running count of `states` with `failed` set.
    failed_links: usize,
    /// `Σ capacity` over `states`; fixed at construction.
    total_capacity: Bandwidth,
}

impl LinkStateTable {
    /// Builds a ledger where every link's anycast partition is
    /// `fraction` of its physical capacity.
    ///
    /// The paper reserves 20% of each 100 Mb/s link for anycast flows, so
    /// `with_uniform_fraction(&topo, Bandwidth::from_mbps(100), 0.2)` — or
    /// simply `fraction = 0.2` of the capacities already stored in the
    /// topology — reproduces the experimental setup. The `default_capacity`
    /// argument is used for links whose topology capacity is zero.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is negative or not finite.
    pub fn with_uniform_fraction(
        topo: &Topology,
        default_capacity: Bandwidth,
        fraction: f64,
    ) -> Self {
        let states: Vec<LinkSnapshot> = topo
            .links()
            .map(|l| {
                let base = if l.capacity().is_zero() {
                    default_capacity
                } else {
                    l.capacity()
                };
                LinkSnapshot {
                    capacity: base.scaled(fraction),
                    reserved: Bandwidth::ZERO,
                    flows: 0,
                    held: Bandwidth::ZERO,
                    holds: 0,
                    failed: false,
                }
            })
            .collect();
        let endpoints = topo.links().map(|l| (l.a(), l.b())).collect();
        LinkStateTable {
            total_reserved: Bandwidth::ZERO,
            total_held: Bandwidth::ZERO,
            failed_links: 0,
            total_capacity: states.iter().map(|s| s.capacity).sum(),
            states,
            link_failed: vec![false; topo.link_count()],
            node_failed: vec![false; topo.node_count()],
            endpoints,
            version: 0,
            stamps: vec![0; topo.link_count()],
            shard_stamps: vec![0; shard_count_for(topo.link_count())],
        }
    }

    /// Number of links tracked.
    #[cfg(test)]
    pub(crate) fn link_count(&self) -> usize {
        self.states.len()
    }

    /// Snapshot of one link.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownLink`] if `link` is out of range.
    pub fn snapshot(&self, link: LinkId) -> Result<LinkSnapshot, NetError> {
        self.states
            .get(link.index())
            .copied()
            .ok_or(NetError::UnknownLink(link))
    }

    /// Available bandwidth `AB_l` of a link.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn available(&self, link: LinkId) -> Bandwidth {
        self.states[link.index()].available()
    }

    /// Capacity of the anycast partition of a link.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[cfg(test)]
    pub(crate) fn capacity(&self, link: LinkId) -> Bandwidth {
        self.states[link.index()].capacity
    }

    /// The current mutation version: strictly increases whenever any
    /// link's availability (or fault state) changes. Equal versions imply
    /// an identical availability picture.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The version at which `link`'s availability last changed (0 if it
    /// was never touched).
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[cfg(test)]
    pub(crate) fn stamp(&self, link: LinkId) -> u64 {
        self.stamps[link.index()]
    }

    /// The newest per-link stamp along `path` — a cached quantity derived
    /// from this path's links (e.g. its bottleneck bandwidth) is still
    /// exact iff `max_stamp_on(path)` has not advanced past the version at
    /// which it was computed. A trivial path reports 0: nothing it depends
    /// on can ever change.
    #[cfg(test)]
    pub(crate) fn max_stamp_on(&self, path: &Path) -> u64 {
        path.links()
            .iter()
            .map(|l| self.stamps[l.index()])
            .max()
            .unwrap_or(0)
    }

    /// Whether any link along `path` was touched after `epoch`. Screens at
    /// shard granularity first: a shard stamp upper-bounds every member
    /// link's stamp, so stripes that have not moved past `epoch` are
    /// skipped without reading a single per-link stamp. Equivalent to
    /// `max_stamp_on(path) > epoch`.
    pub fn any_stamp_on_after(&self, path: &Path, epoch: u64) -> bool {
        path.links().iter().any(|l| {
            self.shard_stamps[l.index() / LINKS_PER_SHARD] > epoch && self.stamps[l.index()] > epoch
        })
    }

    /// Number of shards in the striped view (`⌈links / LINKS_PER_SHARD⌉`).
    #[cfg(test)]
    pub(crate) fn shard_count(&self) -> usize {
        self.shard_stamps.len()
    }

    /// The shard a link belongs to.
    #[cfg(test)]
    pub(crate) fn shard_of(link: LinkId) -> usize {
        link.index() / LINKS_PER_SHARD
    }

    /// The version at which any link in `shard` last changed (0 if the
    /// whole stripe was never touched).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`.
    #[cfg(test)]
    pub(crate) fn shard_stamp(&self, shard: usize) -> u64 {
        self.shard_stamps[shard]
    }

    /// The link-index range covered by `shard`. The final shard may be
    /// shorter than [`LINKS_PER_SHARD`].
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`.
    pub(crate) fn shard_range(&self, shard: usize) -> Range<usize> {
        assert!(
            shard < self.shard_stamps.len(),
            "shard {shard} out of range"
        );
        let start = shard * LINKS_PER_SHARD;
        start..(start + LINKS_PER_SHARD).min(self.states.len())
    }

    /// A read-only, shard-aware view of the ledger. The view is `Copy`:
    /// every reader sees the same frozen version, and the borrow checker
    /// guarantees no mutation can interleave while any view is alive.
    pub fn sharded(&self) -> ShardedSnapshot<'_> {
        ShardedSnapshot { table: self }
    }

    /// Records that `link_index`'s availability changed.
    fn touch(&mut self, link_index: usize) {
        self.version += 1;
        self.stamps[link_index] = self.version;
        self.shard_stamps[link_index / LINKS_PER_SHARD] = self.version;
    }

    /// Reserves `bw` on a single link.
    ///
    /// # Errors
    ///
    /// [`NetError::InsufficientBandwidth`] if less than `bw` is available;
    /// [`NetError::UnknownLink`] if the link is out of range.
    pub fn reserve(&mut self, link: LinkId, bw: Bandwidth) -> Result<(), NetError> {
        let state = self
            .states
            .get_mut(link.index())
            .ok_or(NetError::UnknownLink(link))?;
        let available = state.available();
        if bw > available {
            return Err(NetError::InsufficientBandwidth {
                link,
                demanded: bw,
                available,
            });
        }
        state.reserved += bw;
        state.flows += 1;
        self.total_reserved += bw;
        self.touch(link.index());
        Ok(())
    }

    /// Releases `bw` previously reserved on a single link.
    ///
    /// # Errors
    ///
    /// [`NetError::ReleaseUnderflow`] if `bw` exceeds the reserved amount;
    /// [`NetError::UnknownLink`] if the link is out of range.
    pub fn release(&mut self, link: LinkId, bw: Bandwidth) -> Result<(), NetError> {
        let state = self
            .states
            .get_mut(link.index())
            .ok_or(NetError::UnknownLink(link))?;
        if bw > state.reserved || state.flows == 0 {
            return Err(NetError::ReleaseUnderflow {
                link,
                released: bw,
                reserved: state.reserved,
            });
        }
        state.reserved -= bw;
        state.flows -= 1;
        self.total_reserved -= bw;
        self.touch(link.index());
        Ok(())
    }

    /// Places a pending hold of `bw` on a link (a two-phase PATH message
    /// claiming bandwidth it has not confirmed yet).
    ///
    /// Holds reduce [`available`](Self::available) exactly like confirmed
    /// reservations, so overlapping setups contend for the same capacity,
    /// but they live in a separate ledger column: an unconfirmed hold is
    /// released (timeout, RESV_ERR) or committed (RESV) — never leaked.
    ///
    /// # Errors
    ///
    /// [`NetError::InsufficientBandwidth`] if less than `bw` is available;
    /// [`NetError::UnknownLink`] if the link is out of range.
    pub fn place_hold(&mut self, link: LinkId, bw: Bandwidth) -> Result<(), NetError> {
        let state = self
            .states
            .get_mut(link.index())
            .ok_or(NetError::UnknownLink(link))?;
        let available = state.available();
        if bw > available {
            return Err(NetError::InsufficientBandwidth {
                link,
                demanded: bw,
                available,
            });
        }
        state.held += bw;
        state.holds += 1;
        self.total_held += bw;
        self.touch(link.index());
        Ok(())
    }

    /// Releases a pending hold without confirming it (setup timed out or a
    /// RESV_ERR retraced the route).
    ///
    /// # Errors
    ///
    /// [`NetError::ReleaseUnderflow`] if `bw` exceeds the held amount;
    /// [`NetError::UnknownLink`] if the link is out of range.
    pub fn release_hold(&mut self, link: LinkId, bw: Bandwidth) -> Result<(), NetError> {
        let state = self
            .states
            .get_mut(link.index())
            .ok_or(NetError::UnknownLink(link))?;
        if bw > state.held || state.holds == 0 {
            return Err(NetError::ReleaseUnderflow {
                link,
                released: bw,
                reserved: state.held,
            });
        }
        state.held -= bw;
        state.holds -= 1;
        self.total_held -= bw;
        self.touch(link.index());
        Ok(())
    }

    /// Confirms a pending hold, converting it into a reserved flow (the
    /// RESV leg of the two-phase exchange). The bandwidth moves from the
    /// hold column to the reservation column atomically — availability is
    /// unchanged by the commit itself.
    ///
    /// # Errors
    ///
    /// [`NetError::ReleaseUnderflow`] if `bw` exceeds the held amount;
    /// [`NetError::UnknownLink`] if the link is out of range.
    pub fn commit_hold(&mut self, link: LinkId, bw: Bandwidth) -> Result<(), NetError> {
        let state = self
            .states
            .get_mut(link.index())
            .ok_or(NetError::UnknownLink(link))?;
        if bw > state.held || state.holds == 0 {
            return Err(NetError::ReleaseUnderflow {
                link,
                released: bw,
                reserved: state.held,
            });
        }
        state.held -= bw;
        state.holds -= 1;
        state.reserved += bw;
        state.flows += 1;
        self.total_held -= bw;
        self.total_reserved += bw;
        // Availability is unchanged by the commit itself, but the hold and
        // reservation columns both moved; stamp conservatively so any
        // cached per-column view invalidates too.
        self.touch(link.index());
        Ok(())
    }

    /// Total bandwidth held by pending (unconfirmed) setups across all
    /// links, in O(1) from the running total ([`audit`](Self::audit) is
    /// the scan). Zero whenever no two-phase signalling is in flight.
    pub fn total_pending(&self) -> Bandwidth {
        self.total_held
    }

    /// Checks whether `bw` is available on every link of `path` without
    /// reserving anything. Returns the first bottleneck link on failure.
    pub(crate) fn check_path(&self, path: &Path, bw: Bandwidth) -> Result<(), LinkId> {
        for link in path.links() {
            if self.available(*link) < bw {
                return Err(*link);
            }
        }
        Ok(())
    }

    /// Atomically reserves `bw` on every link of `path`.
    ///
    /// All-or-nothing: if any link lacks capacity, nothing is reserved.
    /// A trivial path reserves nothing and always succeeds.
    ///
    /// # Errors
    ///
    /// [`NetError::InsufficientBandwidth`] naming the first bottleneck link.
    pub fn reserve_path(&mut self, path: &Path, bw: Bandwidth) -> Result<(), NetError> {
        if let Err(link) = self.check_path(path, bw) {
            return Err(NetError::InsufficientBandwidth {
                link,
                demanded: bw,
                available: self.available(link),
            });
        }
        for link in path.links() {
            self.reserve(*link, bw)
                .expect("checked availability above; reservation cannot fail");
        }
        Ok(())
    }

    /// Releases `bw` on every link of `path`.
    ///
    /// # Errors
    ///
    /// [`NetError::ReleaseUnderflow`] if any link holds less than `bw`;
    /// links earlier in the path are released before the error surfaces, so
    /// callers should treat this as a logic bug, not a recoverable state.
    pub fn release_path(&mut self, path: &Path, bw: Bandwidth) -> Result<(), NetError> {
        for link in path.links() {
            self.release(*link, bw)?;
        }
        Ok(())
    }

    /// Minimum available bandwidth along a path — the paper's *route
    /// bandwidth* `B_i = min_{l ∈ r} AB_l` (eq. 11) used by the WD/D+B
    /// destination-selection algorithm.
    ///
    /// A trivial path has unbounded route bandwidth; we report
    /// `Bandwidth::from_bps(u64::MAX)` in that case.
    pub fn min_available_on(&self, path: &Path) -> Bandwidth {
        path.links()
            .iter()
            .map(|l| self.available(*l))
            .min()
            .unwrap_or(Bandwidth::from_bps(u64::MAX))
    }

    /// Iterates over `(LinkId, LinkSnapshot)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (LinkId, LinkSnapshot)> + '_ {
        self.states
            .iter()
            .enumerate()
            .map(|(i, s)| (LinkId::new(i as u32), *s))
    }

    /// Total reserved bandwidth across all links (a congestion indicator),
    /// in O(1) from the running total ([`audit`](Self::audit) is the scan).
    pub fn total_reserved(&self) -> Bandwidth {
        self.total_reserved
    }

    /// The whole ledger as a [`LinkSummary`], in O(1) from the running
    /// totals ([`audit`](Self::audit) is the scan).
    pub fn summary(&self) -> LinkSummary {
        LinkSummary {
            links: self.states.len(),
            failed_links: self.failed_links,
            capacity_bps: self.total_capacity.bps(),
            reserved_bps: self.total_reserved.bps(),
            pending_bps: self.total_held.bps(),
        }
    }

    /// Full consistency pass: recomputes every aggregate from the per-link
    /// columns, checks each link's own invariants (`reserved + held ≤
    /// capacity`; no flows ⇒ nothing reserved; no holds ⇒ nothing held)
    /// and compares the recomputed aggregates with the running totals.
    /// Returns the *scanned* summary, so leak audits and conservation
    /// checks built on it read the columns, never a counter that could
    /// have drifted with them. O(links): for end-of-run audits and tests,
    /// not for the admission path.
    ///
    /// # Errors
    ///
    /// [`NetError::InconsistentLedger`] naming the first broken link, or
    /// no link when a running total disagrees with its column.
    pub fn audit(&self) -> Result<LinkSummary, NetError> {
        let mut scanned = LinkSummary {
            links: self.states.len(),
            failed_links: 0,
            capacity_bps: 0,
            reserved_bps: 0,
            pending_bps: 0,
        };
        for (i, s) in self.states.iter().enumerate() {
            let broken = |what| NetError::InconsistentLedger {
                link: Some(LinkId::new(i as u32)),
                what,
            };
            if s.reserved + s.held > s.capacity {
                return Err(broken("reserved + held exceeds capacity"));
            }
            if s.flows == 0 && !s.reserved.is_zero() {
                return Err(broken("bandwidth reserved by no flow"));
            }
            if s.holds == 0 && !s.held.is_zero() {
                return Err(broken("bandwidth held by no setup"));
            }
            scanned.failed_links += usize::from(s.failed);
            scanned.capacity_bps += s.capacity.bps();
            scanned.reserved_bps += s.reserved.bps();
            scanned.pending_bps += s.held.bps();
        }
        if scanned != self.summary() {
            return Err(NetError::InconsistentLedger {
                link: None,
                what: "running totals disagree with the per-link columns",
            });
        }
        Ok(scanned)
    }

    /// Marks a link as failed (fault-injection extension, beyond the
    /// paper's fault-free assumption in §3).
    ///
    /// While failed the link reports zero available bandwidth, so every
    /// new admission across it is rejected. Existing reservations remain
    /// recorded — the flows holding them are broken in reality, and it is
    /// the caller's policy whether to tear them down (releasing across a
    /// failed link works normally).
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownLink`] if `link` is out of range.
    pub fn fail_link(&mut self, link: LinkId) -> Result<(), NetError> {
        let i = link.index();
        if i >= self.states.len() {
            return Err(NetError::UnknownLink(link));
        }
        self.link_failed[i] = true;
        self.recompute_effective(i);
        Ok(())
    }

    /// Brings a failed link back into service. If an endpoint node is
    /// still down, the link stays effectively down until the node returns.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownLink`] if `link` is out of range.
    pub fn restore_link(&mut self, link: LinkId) -> Result<(), NetError> {
        let i = link.index();
        if i >= self.states.len() {
            return Err(NetError::UnknownLink(link));
        }
        self.link_failed[i] = false;
        self.recompute_effective(i);
        Ok(())
    }

    /// Marks a node as failed (crashed router / anycast server host).
    ///
    /// Every link incident to the node becomes effectively down: new
    /// admissions across it are rejected, while existing reservations
    /// remain recorded for the caller's teardown policy, exactly as with
    /// [`fail_link`](Self::fail_link).
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownNode`] if `node` is out of range.
    pub fn fail_node(&mut self, node: NodeId) -> Result<(), NetError> {
        let n = node.index();
        if n >= self.node_failed.len() {
            return Err(NetError::UnknownNode(node));
        }
        self.node_failed[n] = true;
        self.recompute_incident(node);
        Ok(())
    }

    /// Brings a failed node back into service. Incident links recover
    /// unless they carry an explicit link fault of their own (or their
    /// other endpoint is still down).
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownNode`] if `node` is out of range.
    pub fn restore_node(&mut self, node: NodeId) -> Result<(), NetError> {
        let n = node.index();
        if n >= self.node_failed.len() {
            return Err(NetError::UnknownNode(node));
        }
        self.node_failed[n] = false;
        self.recompute_incident(node);
        Ok(())
    }

    /// Whether a link is currently (effectively) failed — down itself or
    /// attached to a down node.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[cfg(test)]
    pub(crate) fn is_failed(&self, link: LinkId) -> bool {
        self.states[link.index()].failed
    }

    /// Number of links currently (effectively) down, in O(1) from the
    /// running count ([`audit`](Self::audit) is the scan).
    pub fn failed_link_count(&self) -> usize {
        self.failed_links
    }

    /// Fraction of links currently operational, in `[0, 1]` — the
    /// instantaneous network availability the fault metrics integrate.
    /// An empty ledger reports full availability.
    pub fn operational_fraction(&self) -> f64 {
        if self.states.is_empty() {
            return 1.0;
        }
        1.0 - self.failed_link_count() as f64 / self.states.len() as f64
    }

    fn recompute_effective(&mut self, link_index: usize) {
        let (a, b) = self.endpoints[link_index];
        let failed = self.link_failed[link_index]
            || self.node_failed[a.index()]
            || self.node_failed[b.index()];
        if self.states[link_index].failed != failed {
            self.states[link_index].failed = failed;
            if failed {
                self.failed_links += 1;
            } else {
                self.failed_links -= 1;
            }
            self.touch(link_index);
        }
    }

    fn recompute_incident(&mut self, node: NodeId) {
        for i in 0..self.states.len() {
            let (a, b) = self.endpoints[i];
            if a == node || b == node {
                self.recompute_effective(i);
            }
        }
    }

    /// Clears all reservations and failures (link and node), returning
    /// the ledger to its initial state.
    pub fn reset(&mut self) {
        for s in &mut self.states {
            s.reserved = Bandwidth::ZERO;
            s.flows = 0;
            s.held = Bandwidth::ZERO;
            s.holds = 0;
            s.failed = false;
        }
        self.link_failed.fill(false);
        self.node_failed.fill(false);
        self.total_reserved = Bandwidth::ZERO;
        self.total_held = Bandwidth::ZERO;
        self.failed_links = 0;
        // The version stays monotone across a reset: every link's
        // availability (potentially) changed, so stamp them all.
        self.version += 1;
        self.stamps.fill(self.version);
        self.shard_stamps.fill(self.version);
    }
}

/// Read-only, shard-aware view of a [`LinkStateTable`], obtained from
/// [`LinkStateTable::sharded`].
///
/// The view pins one version of the ledger for its whole lifetime: it
/// holds a shared borrow, so no mutation can interleave while any copy is
/// alive, and every copy observes the identical availability picture.
///
/// Shard iteration walks the ledger stripe by stripe in ascending shard
/// order, which is exactly ascending link order — so shard-aware readers
/// observe the same sequence as a flat scan, and the stripes exist purely
/// to let stamp-based readers skip unchanged ranges.
#[derive(Debug, Clone, Copy)]
pub struct ShardedSnapshot<'a> {
    table: &'a LinkStateTable,
}

impl<'a> ShardedSnapshot<'a> {
    /// The ledger version this view pins.
    #[cfg(test)]
    pub(crate) fn version(&self) -> u64 {
        self.table.version
    }

    /// Number of links tracked.
    #[cfg(test)]
    pub(crate) fn link_count(&self) -> usize {
        self.table.states.len()
    }

    /// Number of shards (`⌈links / LINKS_PER_SHARD⌉`).
    pub fn shard_count(&self) -> usize {
        self.table.shard_stamps.len()
    }

    /// Iterates one stripe's `(LinkId, LinkSnapshot)` pairs in link order.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`.
    pub fn iter_shard(&self, shard: usize) -> impl Iterator<Item = (LinkId, LinkSnapshot)> + 'a {
        let range = self.table.shard_range(shard);
        let states = &self.table.states[range.clone()];
        states
            .iter()
            .enumerate()
            .map(move |(i, s)| (LinkId::new((range.start + i) as u32), *s))
    }

    /// The ledger's [`LinkSummary`] at the pinned version, as
    /// [`LinkStateTable::summary`]: O(1) from the running totals.
    pub fn summary(&self) -> LinkSummary {
        self.table.summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeId, TopologyBuilder};

    fn line4() -> (Topology, Path) {
        let mut b = TopologyBuilder::new(4);
        b.links_uniform([(0, 1), (1, 2), (2, 3)], Bandwidth::from_mbps(100))
            .unwrap();
        let topo = b.build();
        let path = Path::new(
            &topo,
            (0..4).map(NodeId::new).collect(),
            (0..3).map(LinkId::new).collect(),
        )
        .unwrap();
        (topo, path)
    }

    #[test]
    fn partition_fraction_applied() {
        let (topo, _) = line4();
        let table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 0.2);
        assert_eq!(table.capacity(LinkId::new(0)), Bandwidth::from_mbps(20));
        assert_eq!(table.available(LinkId::new(0)), Bandwidth::from_mbps(20));
    }

    #[test]
    fn reserve_and_release_roundtrip() {
        let (topo, path) = line4();
        let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        let before = table.snapshot(LinkId::new(1)).unwrap();
        table.reserve_path(&path, Bandwidth::from_kbps(64)).unwrap();
        assert_eq!(table.snapshot(LinkId::new(1)).unwrap().flows, 1);
        table.release_path(&path, Bandwidth::from_kbps(64)).unwrap();
        assert_eq!(table.snapshot(LinkId::new(1)).unwrap(), before);
    }

    #[test]
    fn reserve_path_is_atomic_on_failure() {
        let (topo, path) = line4();
        let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        // Saturate the middle link.
        table
            .reserve(LinkId::new(1), Bandwidth::from_mbps(100))
            .unwrap();
        let err = table
            .reserve_path(&path, Bandwidth::from_kbps(64))
            .unwrap_err();
        assert!(matches!(
            err,
            NetError::InsufficientBandwidth {
                link,
                ..
            } if link == LinkId::new(1)
        ));
        // Links 0 and 2 must be untouched.
        assert_eq!(table.available(LinkId::new(0)), Bandwidth::from_mbps(100));
        assert_eq!(table.available(LinkId::new(2)), Bandwidth::from_mbps(100));
    }

    #[test]
    fn release_underflow_detected() {
        let (topo, _) = line4();
        let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        let err = table
            .release(LinkId::new(0), Bandwidth::from_bps(1))
            .unwrap_err();
        assert!(matches!(err, NetError::ReleaseUnderflow { .. }));
    }

    #[test]
    fn min_available_is_bottleneck() {
        let (topo, path) = line4();
        let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        table
            .reserve(LinkId::new(1), Bandwidth::from_mbps(60))
            .unwrap();
        assert_eq!(table.min_available_on(&path), Bandwidth::from_mbps(40));
    }

    #[test]
    fn trivial_path_always_reservable() {
        let (topo, _) = line4();
        let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        let p = Path::trivial(NodeId::new(2));
        table
            .reserve_path(&p, Bandwidth::from_mbps(10_000))
            .unwrap();
        assert_eq!(table.total_reserved(), Bandwidth::ZERO);
        assert_eq!(table.min_available_on(&p), Bandwidth::from_bps(u64::MAX));
    }

    #[test]
    fn check_path_names_first_bottleneck() {
        let (topo, path) = line4();
        let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        table
            .reserve(LinkId::new(2), Bandwidth::from_mbps(100))
            .unwrap();
        assert_eq!(
            table.check_path(&path, Bandwidth::from_bps(1)),
            Err(LinkId::new(2))
        );
    }

    #[test]
    fn snapshot_reads_the_reservation() {
        let (topo, _) = line4();
        let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        table
            .reserve(LinkId::new(0), Bandwidth::from_mbps(50))
            .unwrap();
        let snap = table.snapshot(LinkId::new(0)).unwrap();
        assert_eq!(snap.reserved, Bandwidth::from_mbps(50));
    }

    #[test]
    fn reset_restores_initial_state() {
        let (topo, path) = line4();
        let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        table.reserve_path(&path, Bandwidth::from_mbps(3)).unwrap();
        table.reset();
        assert_eq!(table.total_reserved(), Bandwidth::ZERO);
        for (_, s) in table.iter() {
            assert_eq!(s.flows, 0);
        }
    }

    #[test]
    fn unknown_link_errors() {
        let (topo, _) = line4();
        let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        assert!(matches!(
            table.reserve(LinkId::new(50), Bandwidth::ZERO),
            Err(NetError::UnknownLink(_))
        ));
        assert!(matches!(
            table.snapshot(LinkId::new(50)),
            Err(NetError::UnknownLink(_))
        ));
    }

    #[test]
    fn zero_capacity_link_utilization_is_zero() {
        let snap = LinkSnapshot {
            capacity: Bandwidth::ZERO,
            reserved: Bandwidth::ZERO,
            flows: 0,
            held: Bandwidth::ZERO,
            holds: 0,
            failed: false,
        };
        assert_eq!(snap.reserved, Bandwidth::ZERO);
    }

    #[test]
    fn holds_reduce_availability_and_release_restores_it() {
        let (topo, _) = line4();
        let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        let l = LinkId::new(0);
        table.place_hold(l, Bandwidth::from_mbps(30)).unwrap();
        assert_eq!(table.available(l), Bandwidth::from_mbps(70));
        assert_eq!(table.total_pending(), Bandwidth::from_mbps(30));
        let snap = table.snapshot(l).unwrap();
        assert_eq!(snap.holds, 1);
        assert_eq!(snap.reserved, Bandwidth::ZERO);
        table.release_hold(l, Bandwidth::from_mbps(30)).unwrap();
        assert_eq!(table.available(l), Bandwidth::from_mbps(100));
        assert_eq!(table.total_pending(), Bandwidth::ZERO);
    }

    #[test]
    fn concurrent_holds_race_for_the_same_capacity() {
        let (topo, _) = line4();
        let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        let l = LinkId::new(1);
        table.place_hold(l, Bandwidth::from_mbps(60)).unwrap();
        // A second in-flight setup sees the held bandwidth as taken.
        let err = table.place_hold(l, Bandwidth::from_mbps(60)).unwrap_err();
        assert!(matches!(
            err,
            NetError::InsufficientBandwidth { available, .. }
                if available == Bandwidth::from_mbps(40)
        ));
        // A plain reservation is blocked by the hold too.
        assert!(table.reserve(l, Bandwidth::from_mbps(50)).is_err());
    }

    #[test]
    fn commit_hold_converts_to_reservation_without_changing_availability() {
        let (topo, _) = line4();
        let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        let l = LinkId::new(2);
        table.place_hold(l, Bandwidth::from_mbps(25)).unwrap();
        let before = table.available(l);
        table.commit_hold(l, Bandwidth::from_mbps(25)).unwrap();
        assert_eq!(table.available(l), before);
        let snap = table.snapshot(l).unwrap();
        assert_eq!(snap.reserved, Bandwidth::from_mbps(25));
        assert_eq!(snap.flows, 1);
        assert_eq!(snap.held, Bandwidth::ZERO);
        assert_eq!(snap.holds, 0);
        assert_eq!(table.total_pending(), Bandwidth::ZERO);
        // The committed flow releases like any other reservation.
        table.release(l, Bandwidth::from_mbps(25)).unwrap();
        assert_eq!(table.available(l), Bandwidth::from_mbps(100));
    }

    #[test]
    fn hold_underflow_and_unknown_link_detected() {
        let (topo, _) = line4();
        let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        assert!(matches!(
            table.release_hold(LinkId::new(0), Bandwidth::from_bps(1)),
            Err(NetError::ReleaseUnderflow { .. })
        ));
        assert!(matches!(
            table.commit_hold(LinkId::new(0), Bandwidth::from_bps(1)),
            Err(NetError::ReleaseUnderflow { .. })
        ));
        assert!(matches!(
            table.place_hold(LinkId::new(50), Bandwidth::ZERO),
            Err(NetError::UnknownLink(_))
        ));
    }

    #[test]
    fn failed_link_rejects_holds_and_reset_clears_them() {
        let (topo, _) = line4();
        let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        table.fail_link(LinkId::new(0)).unwrap();
        assert!(table
            .place_hold(LinkId::new(0), Bandwidth::from_bps(1))
            .is_err());
        table.restore_link(LinkId::new(0)).unwrap();
        table
            .place_hold(LinkId::new(0), Bandwidth::from_mbps(5))
            .unwrap();
        table.reset();
        assert_eq!(table.total_pending(), Bandwidth::ZERO);
        assert_eq!(table.snapshot(LinkId::new(0)).unwrap().holds, 0);
    }

    #[test]
    fn failed_link_blocks_new_reservations() {
        let (topo, path) = line4();
        let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        table.fail_link(LinkId::new(1)).unwrap();
        assert!(table.is_failed(LinkId::new(1)));
        assert_eq!(table.available(LinkId::new(1)), Bandwidth::ZERO);
        assert!(matches!(
            table.reserve_path(&path, Bandwidth::from_bps(1)),
            Err(NetError::InsufficientBandwidth { link, .. }) if link == LinkId::new(1)
        ));
        table.restore_link(LinkId::new(1)).unwrap();
        assert!(!table.is_failed(LinkId::new(1)));
        table.reserve_path(&path, Bandwidth::from_bps(1)).unwrap();
    }

    #[test]
    fn release_across_failed_link_works() {
        let (topo, path) = line4();
        let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        table.reserve_path(&path, Bandwidth::from_kbps(64)).unwrap();
        table.fail_link(LinkId::new(0)).unwrap();
        table.release_path(&path, Bandwidth::from_kbps(64)).unwrap();
        assert_eq!(
            table.snapshot(LinkId::new(0)).unwrap().reserved,
            Bandwidth::ZERO
        );
        // Still failed after the release; reset clears it.
        assert!(table.is_failed(LinkId::new(0)));
        table.reset();
        assert!(!table.is_failed(LinkId::new(0)));
    }

    #[test]
    fn failed_node_downs_incident_links_only() {
        let (topo, _) = line4();
        let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        table.fail_node(NodeId::new(1)).unwrap();
        // Links 0 (0-1) and 1 (1-2) touch node 1; link 2 (2-3) does not.
        assert!(table.is_failed(LinkId::new(0)));
        assert!(table.is_failed(LinkId::new(1)));
        assert!(!table.is_failed(LinkId::new(2)));
        assert_eq!(table.available(LinkId::new(0)), Bandwidth::ZERO);
        assert_eq!(table.failed_link_count(), 2);
        assert!((table.operational_fraction() - 1.0 / 3.0).abs() < 1e-12);
        table.restore_node(NodeId::new(1)).unwrap();
        assert_eq!(table.failed_link_count(), 0);
        assert_eq!(table.operational_fraction(), 1.0);
    }

    #[test]
    fn node_restore_preserves_explicit_link_faults() {
        let (topo, _) = line4();
        let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        table.fail_link(LinkId::new(0)).unwrap();
        table.fail_node(NodeId::new(0)).unwrap();
        // Restoring the node must not resurrect the separately failed link.
        table.restore_node(NodeId::new(0)).unwrap();
        assert!(table.is_failed(LinkId::new(0)));
        // And restoring the link while the node is down keeps it down.
        table.fail_node(NodeId::new(0)).unwrap();
        table.restore_link(LinkId::new(0)).unwrap();
        assert!(table.is_failed(LinkId::new(0)));
        table.restore_node(NodeId::new(0)).unwrap();
        assert!(!table.is_failed(LinkId::new(0)));
    }

    #[test]
    fn fail_unknown_node_errors() {
        let (topo, _) = line4();
        let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        assert!(matches!(
            table.fail_node(NodeId::new(99)),
            Err(NetError::UnknownNode(_))
        ));
        assert!(matches!(
            table.restore_node(NodeId::new(99)),
            Err(NetError::UnknownNode(_))
        ));
    }

    #[test]
    fn reset_clears_node_faults() {
        let (topo, _) = line4();
        let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        table.fail_node(NodeId::new(2)).unwrap();
        table.reset();
        assert_eq!(table.failed_link_count(), 0);
    }

    #[test]
    fn stamps_track_exactly_the_touched_links() {
        let (topo, path) = line4();
        let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        assert_eq!(table.version(), 0);
        for i in 0..3 {
            assert_eq!(table.stamp(LinkId::new(i)), 0);
        }

        table
            .reserve(LinkId::new(1), Bandwidth::from_kbps(64))
            .unwrap();
        let v1 = table.version();
        assert!(v1 > 0);
        assert_eq!(table.stamp(LinkId::new(1)), v1);
        assert_eq!(table.stamp(LinkId::new(0)), 0);
        assert_eq!(table.stamp(LinkId::new(2)), 0);
        assert_eq!(table.max_stamp_on(&path), v1);

        // A failed reservation must not advance anything.
        assert!(table
            .reserve(LinkId::new(1), Bandwidth::from_mbps(1000))
            .is_err());
        assert_eq!(table.version(), v1);

        // Hold / release / commit all stamp their link.
        table
            .place_hold(LinkId::new(2), Bandwidth::from_mbps(1))
            .unwrap();
        assert!(table.stamp(LinkId::new(2)) > v1);
        table
            .commit_hold(LinkId::new(2), Bandwidth::from_mbps(1))
            .unwrap();
        table
            .release(LinkId::new(2), Bandwidth::from_mbps(1))
            .unwrap();
        let v2 = table.version();
        assert_eq!(table.stamp(LinkId::new(2)), v2);
        assert_eq!(table.max_stamp_on(&path), v2);

        // A trivial path depends on no links at all.
        let trivial = Path::trivial(NodeId::new(0));
        assert_eq!(table.max_stamp_on(&trivial), 0);
    }

    #[test]
    fn fault_transitions_stamp_only_effective_changes() {
        let (topo, _) = line4();
        let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        table.fail_node(NodeId::new(1)).unwrap();
        let after_node = table.version();
        // Links 0 and 1 flipped to failed; link 2 untouched.
        assert!(table.stamp(LinkId::new(0)) > 0);
        assert!(table.stamp(LinkId::new(1)) > 0);
        assert_eq!(table.stamp(LinkId::new(2)), 0);

        // Failing a link that is already effectively down changes nothing.
        table.fail_link(LinkId::new(0)).unwrap();
        assert_eq!(table.version(), after_node);

        // Restoring the node flips link 1 back up, but link 0 keeps its
        // explicit fault — only link 1 is stamped.
        let before_restore = (table.stamp(LinkId::new(0)), table.stamp(LinkId::new(1)));
        table.restore_node(NodeId::new(1)).unwrap();
        assert_eq!(table.stamp(LinkId::new(0)), before_restore.0);
        assert!(table.stamp(LinkId::new(1)) > before_restore.1);

        // Reset stamps every link and keeps the version monotone.
        let v = table.version();
        table.reset();
        assert!(table.version() > v);
        for i in 0..3 {
            assert_eq!(table.stamp(LinkId::new(i)), table.version());
        }
    }

    #[test]
    fn node_faults_stamp_exactly_the_incident_links_in_link_order() {
        let topo = crate::topologies::fat_tree(8, Bandwidth::from_mbps(100));
        // Node ids span hosts, edge, aggregation and core switches.
        for node in topo.nodes().step_by(37) {
            let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
            let mut incident: Vec<LinkId> = topo.neighbors(node).iter().map(|&(_, l)| l).collect();
            incident.sort_unstable();
            for fault in [true, false] {
                let before = table.version();
                if fault {
                    table.fail_node(node).unwrap();
                } else {
                    table.restore_node(node).unwrap();
                }
                assert_eq!(table.version() - before, topo.degree(node) as u64);
                let stamped: Vec<LinkId> = table
                    .iter()
                    .map(|(l, _)| l)
                    .filter(|&l| table.stamp(l) > before)
                    .collect();
                assert_eq!(stamped, incident, "node {node}");
                // Stamped one by one in ascending link id, as a full scan would.
                let stamps: Vec<u64> = stamped.iter().map(|&l| table.stamp(l)).collect();
                assert_eq!(stamps, (before + 1..=table.version()).collect::<Vec<_>>());
                assert_eq!(
                    table.failed_link_count(),
                    if fault { incident.len() } else { 0 }
                );
            }
        }
    }

    #[test]
    fn summary_aggregates_all_columns() {
        let (topo, _) = line4();
        let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        table
            .reserve(LinkId::new(0), Bandwidth::from_mbps(10))
            .unwrap();
        table
            .place_hold(LinkId::new(1), Bandwidth::from_mbps(5))
            .unwrap();
        table.fail_link(LinkId::new(2)).unwrap();
        let s = table.summary();
        assert_eq!(s.links, 3);
        assert_eq!(s.failed_links, 1);
        assert_eq!(s.capacity_bps, 3 * Bandwidth::from_mbps(100).bps());
        assert_eq!(s.reserved_bps, Bandwidth::from_mbps(10).bps());
        assert_eq!(s.pending_bps, Bandwidth::from_mbps(5).bps());
        assert_eq!(table.audit(), Ok(s), "the column scan agrees");
    }

    #[test]
    fn audit_catches_a_drifted_total_and_a_broken_link() {
        let (topo, _) = line4();
        let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        table
            .reserve(LinkId::new(0), Bandwidth::from_mbps(10))
            .unwrap();
        assert!(table.audit().is_ok());

        // A running total that moved without its column.
        let mut drifted = table.clone();
        drifted.total_reserved += Bandwidth::from_bps(1);
        assert_eq!(
            drifted.audit(),
            Err(NetError::InconsistentLedger {
                link: None,
                what: "running totals disagree with the per-link columns",
            })
        );
        let mut drifted = table.clone();
        drifted.failed_links += 1;
        assert!(drifted.audit().is_err());

        // A partial release (a caller bug the ledger cannot refuse) leaves
        // bandwidth that no flow owns; the totals still agree, the link
        // does not.
        table
            .release(LinkId::new(0), Bandwidth::from_mbps(4))
            .unwrap();
        assert_eq!(table.total_reserved(), Bandwidth::from_mbps(6));
        assert!(matches!(
            table.audit(),
            Err(NetError::InconsistentLedger { link: Some(l), .. }) if l == LinkId::new(0)
        ));
    }

    #[test]
    fn shard_stamps_upper_bound_link_stamps() {
        let (topo, path) = line4();
        let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        // 3 links fit in one shard at LINKS_PER_SHARD = 64.
        assert_eq!(table.shard_count(), 1);
        assert_eq!(LinkStateTable::shard_of(LinkId::new(2)), 0);
        assert_eq!(table.shard_range(0), 0..3);
        assert_eq!(table.shard_stamp(0), 0);

        table
            .reserve(LinkId::new(1), Bandwidth::from_kbps(64))
            .unwrap();
        let v1 = table.version();
        assert_eq!(table.shard_stamp(0), v1);
        // The shard stamp upper-bounds every member stamp.
        for i in 0..3 {
            assert!(table.stamp(LinkId::new(i)) <= table.shard_stamp(0));
        }
        assert!(table.any_stamp_on_after(&path, 0));
        assert!(!table.any_stamp_on_after(&path, v1));
        // A trivial path depends on nothing.
        assert!(!table.any_stamp_on_after(&Path::trivial(NodeId::new(0)), 0));

        table.reset();
        assert_eq!(table.shard_stamp(0), table.version());
    }

    #[test]
    fn any_stamp_on_after_matches_max_stamp() {
        let (topo, path) = line4();
        let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        table
            .reserve(LinkId::new(0), Bandwidth::from_kbps(64))
            .unwrap();
        table
            .place_hold(LinkId::new(2), Bandwidth::from_kbps(64))
            .unwrap();
        for epoch in 0..=table.version() + 1 {
            assert_eq!(
                table.any_stamp_on_after(&path, epoch),
                table.max_stamp_on(&path) > epoch,
                "epoch {epoch}"
            );
        }
    }

    #[test]
    fn sharded_view_matches_flat_scan() {
        let (topo, _) = line4();
        let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        table
            .reserve(LinkId::new(0), Bandwidth::from_mbps(10))
            .unwrap();
        table
            .place_hold(LinkId::new(1), Bandwidth::from_mbps(5))
            .unwrap();
        table.fail_link(LinkId::new(2)).unwrap();

        let snap = table.sharded();
        assert_eq!(snap.version(), table.version());
        assert_eq!(snap.link_count(), table.link_count());
        assert_eq!(Ok(snap.summary()), table.audit());
        // Shard iteration visits every link exactly once, in link order.
        let mut seen = Vec::new();
        for shard in 0..snap.shard_count() {
            for (link, state) in snap.iter_shard(shard) {
                assert_eq!(state, table.snapshot(link).unwrap());
                seen.push(link);
            }
        }
        let flat: Vec<LinkId> = table.iter().map(|(l, _)| l).collect();
        assert_eq!(seen, flat);
    }

    #[test]
    fn shard_boundaries_partition_wide_tables() {
        // A topology wider than one shard: a star with 70 spokes.
        let mut b = TopologyBuilder::new(71);
        let spokes: Vec<(u32, u32)> = (1..71u32).map(|i| (0, i)).collect();
        b.links_uniform(spokes, Bandwidth::from_mbps(100)).unwrap();
        let topo = b.build();
        let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        assert_eq!(table.shard_count(), 2);
        assert_eq!(table.shard_range(0), 0..64);
        assert_eq!(table.shard_range(1), 64..70);
        assert_eq!(LinkStateTable::shard_of(LinkId::new(63)), 0);
        assert_eq!(LinkStateTable::shard_of(LinkId::new(64)), 1);

        // Touching a link in the second stripe leaves the first stripe's
        // stamp behind — that is the skip a shard-aware reader exploits.
        table
            .reserve(LinkId::new(65), Bandwidth::from_kbps(64))
            .unwrap();
        assert_eq!(table.shard_stamp(0), 0);
        assert_eq!(table.shard_stamp(1), table.version());
        let snap = table.sharded();
        assert_eq!(Ok(snap.summary()), table.audit());
        assert_eq!(
            snap.iter_shard(0).count() + snap.iter_shard(1).count(),
            table.link_count()
        );
    }

    #[test]
    fn fail_unknown_link_errors() {
        let (topo, _) = line4();
        let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        assert!(matches!(
            table.fail_link(LinkId::new(99)),
            Err(NetError::UnknownLink(_))
        ));
        assert!(matches!(
            table.restore_link(LinkId::new(99)),
            Err(NetError::UnknownLink(_))
        ));
    }
}
