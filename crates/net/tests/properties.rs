//! Property-based tests for the network substrate invariants.

use anycast_net::routing::{
    bfs_tree, dijkstra_path, filtered_shortest_path, k_shortest_paths, nearest_feasible_member,
    widest_path, RoutingScratch,
};
use anycast_net::{topologies, Bandwidth, LinkId, LinkStateTable, NodeId, Path, Topology};
use proptest::prelude::*;

/// Strategy: a connected random topology (Waxman) with 5–30 nodes.
fn arb_topology() -> impl Strategy<Value = Topology> {
    (5usize..30, any::<u64>()).prop_map(|(n, seed)| {
        topologies::waxman(n, 0.6, 0.6, seed, Bandwidth::from_mbps(100))
            .expect("waxman retry finds a connected graph at these densities")
    })
}

/// Strategy: a connected topology from any generator — Waxman, grid,
/// ring, star, the MCI backbone — or `fat_tree(4)`, all at 100 Mb/s.
fn arb_connected_topology() -> impl Strategy<Value = Topology> {
    (0u8..6, 2usize..8, 2usize..8, any::<u64>()).prop_map(|(kind, a, b, seed)| {
        let cap = Bandwidth::from_mbps(100);
        match kind {
            0 => topologies::waxman(a + b + 3, 0.6, 0.6, seed, cap)
                .expect("waxman retry finds a connected graph at these densities"),
            1 => topologies::grid(a, b, cap),
            2 => topologies::ring(a + b, cap),
            3 => topologies::star(a + b, cap),
            4 => topologies::mci(),
            _ => topologies::fat_tree(4, cap),
        }
    })
}

proptest! {
    /// BFS tree paths have length equal to the reported distance, and the
    /// distance function satisfies the triangle property along links.
    #[test]
    fn bfs_paths_match_distances(topo in arb_topology(), root_seed in any::<u32>()) {
        let root = NodeId::new(root_seed % topo.node_count() as u32);
        let tree = bfs_tree(&topo, root);
        for d in topo.nodes() {
            let dist = tree.distance(d).expect("waxman graphs are connected");
            let path = tree.path_to(&topo, d).unwrap();
            prop_assert_eq!(path.hops() as u32, dist);
            prop_assert_eq!(path.source(), root);
            prop_assert_eq!(path.destination(), d);
        }
        // Neighbouring nodes differ in distance by at most one hop.
        for n in topo.nodes() {
            let dn = tree.distance(n).unwrap();
            for &(m, _) in topo.neighbors(n) {
                let dm = tree.distance(m).unwrap();
                prop_assert!(dn.abs_diff(dm) <= 1);
            }
        }
    }

    /// Dijkstra with unit costs agrees with BFS hop distances.
    #[test]
    fn dijkstra_unit_matches_bfs(topo in arb_topology(), seeds in any::<(u32, u32)>()) {
        let s = NodeId::new(seeds.0 % topo.node_count() as u32);
        let d = NodeId::new(seeds.1 % topo.node_count() as u32);
        let bfs = bfs_tree(&topo, s);
        let dij = dijkstra_path(&topo, s, d, |_| 1.0).unwrap();
        prop_assert_eq!(dij.hops() as u32, bfs.distance(d).unwrap());
    }

    /// Reserving then releasing any multiset of (link, bandwidth) pairs
    /// restores the ledger exactly.
    #[test]
    fn ledger_reserve_release_is_identity(
        topo in arb_topology(),
        ops in prop::collection::vec((any::<u32>(), 1u64..1_000_000), 0..40),
    ) {
        let mut table = LinkStateTable::from_topology(&topo);
        let initial: Vec<_> = table.iter().collect();
        let mut applied = Vec::new();
        for (raw_link, bw) in ops {
            let link = LinkId::new(raw_link % topo.link_count() as u32);
            let bw = Bandwidth::from_bps(bw);
            if table.reserve(link, bw).is_ok() {
                applied.push((link, bw));
            }
        }
        // Available bandwidth never exceeds capacity, never negative
        // (guaranteed by types, but check reserved <= capacity explicitly).
        for (id, snap) in table.iter() {
            prop_assert!(snap.reserved <= snap.capacity, "link {} over-reserved", id);
        }
        for (link, bw) in applied.into_iter().rev() {
            table.release(link, bw).unwrap();
        }
        let fin: Vec<_> = table.iter().collect();
        prop_assert_eq!(initial, fin);
    }

    /// Path-level reservation is all-or-nothing: after a failed
    /// reserve_path the ledger is unchanged.
    #[test]
    fn failed_path_reservation_leaves_no_trace(
        topo in arb_topology(),
        pair in any::<(u32, u32)>(),
        preload in any::<u32>(),
    ) {
        let s = NodeId::new(pair.0 % topo.node_count() as u32);
        let d = NodeId::new(pair.1 % topo.node_count() as u32);
        let tree = bfs_tree(&topo, s);
        let path = tree.path_to(&topo, d).unwrap();
        prop_assume!(path.hops() >= 1);
        let mut table = LinkStateTable::from_topology(&topo);
        // Saturate one link on the path.
        let victim = path.links()[preload as usize % path.links().len()];
        let avail = table.available(victim);
        table.reserve(victim, avail).unwrap();
        let before: Vec<_> = table.iter().collect();
        let res = table.reserve_path(&path, Bandwidth::from_bps(1));
        prop_assert!(res.is_err());
        let after: Vec<_> = table.iter().collect();
        prop_assert_eq!(before, after);
    }

    /// The filtered search never returns a path containing an infeasible
    /// link, and agrees with plain BFS when the network is idle.
    #[test]
    fn filtered_search_respects_filter(
        topo in arb_topology(),
        pair in any::<(u32, u32)>(),
        saturate in prop::collection::vec(any::<u32>(), 0..10),
    ) {
        let s = NodeId::new(pair.0 % topo.node_count() as u32);
        let d = NodeId::new(pair.1 % topo.node_count() as u32);
        let mut table = LinkStateTable::from_topology(&topo);
        for raw in saturate {
            let l = LinkId::new(raw % topo.link_count() as u32);
            let avail = table.available(l);
            if !avail.is_zero() {
                table.reserve(l, avail).unwrap();
            }
        }
        let demand = Bandwidth::from_kbps(64);
        if let Some(p) = filtered_shortest_path(&topo, &table, s, d, demand) {
            for l in p.links() {
                prop_assert!(table.available(*l) >= demand);
            }
            prop_assert_eq!(p.source(), s);
            prop_assert_eq!(p.destination(), d);
        }
        let idle = LinkStateTable::from_topology(&topo);
        let free = filtered_shortest_path(&topo, &idle, s, d, demand).unwrap();
        let bfs = bfs_tree(&topo, s).path_to(&topo, d).unwrap();
        prop_assert_eq!(free.hops(), bfs.hops());
    }

    /// GDI's one residual search picks what a per-pair search to every
    /// member would: the lowest-index member among those with the fewest
    /// hops, over the same path, and — run to exhaustion — the same
    /// feasibility verdict for every member. Every node takes a turn as the
    /// source. Members may repeat, sit at the source, or lie outside the
    /// topology (on a scratch with stale marks from a larger graph);
    /// demands run from 0 past link capacity.
    #[test]
    fn nearest_member_is_the_per_pair_argmin(
        topo in arb_connected_topology(),
        member_seeds in prop::collection::vec(any::<u32>(), 1..10),
        special in (any::<bool>(), any::<bool>(), any::<u32>(), any::<u32>()),
        loads in prop::collection::vec((any::<u32>(), 0.0f64..1.0, any::<bool>()), 0..40),
        demand_bps in (0u8..5, 0u64..=120_000_000),
    ) {
        let n = topo.node_count() as u32;
        let (with_source, with_outsider, at, outsider) = special;
        let mut table = LinkStateTable::from_topology(&topo);
        for (raw, frac, saturate) in loads {
            let l = LinkId::new(raw % topo.link_count() as u32);
            let avail = table.available(l);
            let bw = if saturate { avail } else { avail.scaled(frac) };
            if !bw.is_zero() {
                table.reserve(l, bw).unwrap();
            }
        }
        let demand = Bandwidth::from_bps(match demand_bps.0 {
            0 => 0,
            1 => 100_000_000,
            2 => 100_000_001,
            _ => demand_bps.1,
        });
        let mut scratch = RoutingScratch::new();
        let wide = topologies::grid(8, 8, Bandwidth::from_mbps(100));
        let everyone: Vec<NodeId> = wide.nodes().collect();
        let idle = LinkStateTable::from_topology(&wide);
        nearest_feasible_member(&mut scratch, &wide, &idle, NodeId::new(0), &everyone, demand, true);

        for src in topo.nodes() {
            let mut members: Vec<NodeId> =
                member_seeds.iter().map(|&m| NodeId::new(m % n)).collect();
            if with_source {
                members.insert(at as usize % (members.len() + 1), src);
            }
            if with_outsider {
                let outside = NodeId::new(n + outsider % 16);
                members.insert(at as usize / 7 % (members.len() + 1), outside);
            }
            let reference: Vec<Option<Path>> = members
                .iter()
                .map(|&m| filtered_shortest_path(&topo, &table, src, m, demand))
                .collect();
            let expected = reference
                .iter()
                .enumerate()
                .filter_map(|(i, p)| p.as_ref().map(|p| (i, p)))
                .min_by_key(|&(i, p)| (p.hops(), i));
            for exhaustive in [false, true] {
                let got = nearest_feasible_member(
                    &mut scratch, &topo, &table, src, &members, demand, exhaustive,
                );
                prop_assert_eq!(
                    got.as_ref().map(|(i, _)| *i),
                    expected.map(|(i, _)| i),
                    "source {}, members {:?}", src, members
                );
                if let (Some((_, path)), Some((_, want))) = (&got, expected) {
                    prop_assert_eq!(path.nodes(), want.nodes());
                    prop_assert_eq!(path.links(), want.links());
                }
                if exhaustive {
                    for (&m, r) in members.iter().zip(&reference) {
                        prop_assert_eq!(scratch.reached(m), r.is_some(), "member {}", m);
                    }
                }
            }
        }
    }

    /// The widest path's claimed width equals the measured bottleneck and
    /// is at least the width of the BFS shortest path.
    #[test]
    fn widest_path_width_is_bottleneck(
        topo in arb_topology(),
        pair in any::<(u32, u32)>(),
        loads in prop::collection::vec(0u64..100_000_000, 0..20),
    ) {
        let s = NodeId::new(pair.0 % topo.node_count() as u32);
        let d = NodeId::new(pair.1 % topo.node_count() as u32);
        prop_assume!(s != d);
        let mut table = LinkStateTable::from_topology(&topo);
        for (i, load) in loads.iter().enumerate() {
            let l = LinkId::new((i % topo.link_count()) as u32);
            let bw = Bandwidth::from_bps(*load).min(table.available(l));
            if !bw.is_zero() {
                table.reserve(l, bw).unwrap();
            }
        }
        if let Some((path, width)) = widest_path(&topo, &table, s, d) {
            prop_assert_eq!(table.min_available_on(&path), width);
            let bfs = bfs_tree(&topo, s).path_to(&topo, d).unwrap();
            prop_assert!(width >= table.min_available_on(&bfs));
        }
    }

    /// Yen's k shortest paths are distinct, loop-free, sorted by length,
    /// and start from the plain BFS shortest path.
    #[test]
    fn yen_paths_well_formed(
        topo in arb_topology(),
        pair in any::<(u32, u32)>(),
        k in 1usize..6,
    ) {
        let s = NodeId::new(pair.0 % topo.node_count() as u32);
        let d = NodeId::new(pair.1 % topo.node_count() as u32);
        prop_assume!(s != d);
        let paths = k_shortest_paths(&topo, s, d, k);
        prop_assert!(!paths.is_empty(), "waxman graphs are connected");
        prop_assert!(paths.len() <= k);
        let bfs = bfs_tree(&topo, s).path_to(&topo, d).unwrap();
        prop_assert_eq!(paths[0].hops(), bfs.hops());
        for (i, p) in paths.iter().enumerate() {
            prop_assert_eq!(p.source(), s);
            prop_assert_eq!(p.destination(), d);
            // Loop-free: Path::new enforces node uniqueness.
            prop_assert!(Path::new(&topo, p.nodes().to_vec(), p.links().to_vec()).is_ok());
            for q in &paths[..i] {
                prop_assert_ne!(p, q, "paths must be distinct");
            }
        }
        for w in paths.windows(2) {
            prop_assert!(w[0].hops() <= w[1].hops(), "nondecreasing lengths");
        }
    }

    /// Any BFS path validates under Path::new against its topology.
    #[test]
    fn bfs_paths_validate(topo in arb_topology(), pair in any::<(u32, u32)>()) {
        let s = NodeId::new(pair.0 % topo.node_count() as u32);
        let d = NodeId::new(pair.1 % topo.node_count() as u32);
        let p = bfs_tree(&topo, s).path_to(&topo, d).unwrap();
        let rebuilt = Path::new(&topo, p.nodes().to_vec(), p.links().to_vec());
        prop_assert!(rebuilt.is_ok());
    }
}
