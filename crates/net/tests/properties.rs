//! Property-based tests for the network substrate invariants.

use anycast_net::routing::{
    bfs_tree, filtered_shortest_path, k_shortest_paths, nearest_feasible_member, PathMemo,
    RoutingScratch,
};
use anycast_net::{
    topologies, AnycastGroup, Bandwidth, LinkId, LinkStateTable, NetError, NodeId, Path,
    RouteTable, Topology, TopologyBuilder,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

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

/// Strategy: a random simple graph on 2–24 nodes, from up to 40 random
/// pairs (self-loops and repeats skipped), so often disconnected.
fn arb_sparse_topology() -> impl Strategy<Value = Topology> {
    (2u32..25, prop::collection::vec(any::<(u32, u32)>(), 0..40)).prop_map(|(n, pairs)| {
        let mut b = TopologyBuilder::new(n as usize);
        for (x, y) in pairs {
            let _ = b.link(
                NodeId::new(x % n),
                NodeId::new(y % n),
                Bandwidth::from_mbps(100),
            );
        }
        b.build()
    })
}

/// Strategy: `fat_tree(k)` for k ∈ {4, 6, 8} or a leaf–spine `clos` of
/// 1–4 spines, 2–6 leaves and 1–4 hosts per leaf, at 100 Mb/s, with its
/// hosts. Half the fabrics lose 1–10 % of their links (so some are cut).
fn arb_fabric() -> impl Strategy<Value = (Topology, Vec<NodeId>)> {
    (
        any::<bool>(),
        0usize..3,
        (1usize..5, 2usize..7, 1usize..5),
        (any::<bool>(), 1u64..=10),
        any::<u64>(),
    )
        .prop_map(|(fat, k, (spine, leaf, hosts), (cut, percent), seed)| {
            let percent = if cut { percent } else { 0 };
            let cap = Bandwidth::from_mbps(100);
            let (full, hosts) = if fat {
                let k = 4 + 2 * k;
                (topologies::fat_tree(k, cap), topologies::fat_tree_hosts(k))
            } else {
                (
                    topologies::clos(spine, leaf, hosts, cap),
                    topologies::clos_hosts(spine, leaf, hosts),
                )
            };
            let mut b = TopologyBuilder::with_capacity(full.node_count(), full.link_count());
            for l in full.links() {
                // splitmix64 of (seed, link id): a fixed, even coin per link.
                let mut z = seed ^ (l.id().index() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                if (z ^ (z >> 31)) % 100 >= percent {
                    b.link(l.a(), l.b(), l.capacity()).unwrap();
                }
            }
            (b.build(), hosts)
        })
}

/// The naive route table: a full `bfs_tree` per source, in source order,
/// failing on the first unknown source or disconnected pair.
fn reference_routes(
    topo: &Topology,
    group: &AnycastGroup,
    sources: &[NodeId],
) -> Result<Vec<(NodeId, Vec<Path>)>, NetError> {
    let mut out = Vec::new();
    for &src in sources {
        if !topo.contains_node(src) {
            return Err(NetError::UnknownNode(src));
        }
        let tree = bfs_tree(topo, src);
        let paths = group
            .members()
            .iter()
            .map(|&m| tree.path_to(topo, m).ok_or(NetError::NoRoute(src, m)))
            .collect::<Result<Vec<Path>, NetError>>()?;
        out.push((src, paths));
    }
    Ok(out)
}

proptest! {
    /// The route table's early-stopping search returns, for every
    /// (source, member) pair, exactly the nodes and links of the full
    /// tree's path, or the reference's error: the first unknown source or
    /// the first disconnected pair. Graphs are connected or sparse random
    /// ones with unreachable members; members and sources may coincide,
    /// repeat, or (rarely) lie outside the topology.
    #[test]
    fn route_table_matches_the_per_source_trees(
        graphs in (any::<bool>(), arb_connected_topology(), arb_sparse_topology()),
        member_seeds in prop::collection::vec(any::<u32>(), 1..8),
        source_seeds in prop::collection::vec(any::<u32>(), 0..12),
        outsiders in (0u32..40, 0u32..40),
    ) {
        let (sparse, connected, random) = graphs;
        let topo = if sparse { random } else { connected };
        let n = topo.node_count() as u32;
        // A seed below the threshold names a node just past the topology.
        let pick = |seed: u32, threshold: u32| {
            if seed % 40 < threshold {
                NodeId::new(n + seed % 3)
            } else {
                NodeId::new(seed / 40 % n)
            }
        };
        let (member_out, source_out) = (u32::from(outsiders.0 == 0), u32::from(outsiders.1 == 0));
        let group =
            AnycastGroup::new("A", member_seeds.iter().map(|&s| pick(s, member_out))).unwrap();
        let sources: Vec<NodeId> = source_seeds.iter().map(|&s| pick(s, source_out)).collect();
        let got = RouteTable::for_sources(&topo, &group, sources.iter().copied());
        match (got, reference_routes(&topo, &group, &sources)) {
            (Ok(table), Ok(want)) => {
                for (src, paths) in &want {
                    let routes = table.routes_from(*src).unwrap();
                    prop_assert_eq!(routes.len(), paths.len());
                    for (route, path) in routes.iter().zip(paths) {
                        prop_assert_eq!(route.nodes(), path.nodes(), "from {}", src);
                        prop_assert_eq!(route.links(), path.links(), "from {}", src);
                    }
                }
                for node in topo.nodes().filter(|s| !sources.contains(s)) {
                    prop_assert!(table.routes_from(node).is_none());
                }
            }
            (Err(got), Err(want)) => prop_assert_eq!(got, want),
            (got, want) => prop_assert!(
                false,
                "table {:?} but reference {:?}",
                got.map(|_| ()),
                want.map(|_| ())
            ),
        }
    }

    /// On datacenter fabrics, where the search finishes from the members'
    /// side, every route is still the full tree's path, node for node and
    /// link for link, and every error the reference's. Members are hosts
    /// or switches, include both ends of some links and some of the
    /// sources, and now and then one node outside the topology.
    #[test]
    fn route_table_matches_the_per_source_trees_on_fabrics(
        (topo, hosts) in arb_fabric(),
        member_seeds in prop::collection::vec((any::<bool>(), any::<u32>()), 1..8),
        linked_seeds in prop::collection::vec(any::<u32>(), 0..3),
        source_seeds in prop::collection::vec(any::<u32>(), 0..12),
        shared_seeds in prop::collection::vec(any::<u32>(), 0..3),
        outsider in 0u32..10,
    ) {
        let n = topo.node_count() as u32;
        let links: Vec<_> = topo.links().collect();
        // Mostly hosts, as a fabric's endpoints are, but any node now and then.
        let pick = |switch: bool, s: u32| {
            if switch && s.is_multiple_of(4) {
                NodeId::new(s / 4 % n)
            } else {
                hosts[s as usize % hosts.len()]
            }
        };
        let sources: Vec<NodeId> = source_seeds.iter().map(|&s| pick(true, s)).collect();
        let mut members: Vec<NodeId> = member_seeds.iter().map(|&(switch, s)| pick(switch, s)).collect();
        if !links.is_empty() {
            for &s in &linked_seeds {
                let l = links[s as usize % links.len()];
                members.extend([l.a(), l.b()]);
            }
        }
        if !sources.is_empty() {
            members.extend(shared_seeds.iter().map(|&s| sources[s as usize % sources.len()]));
        }
        if outsider == 0 {
            members.push(NodeId::new(n));
        }
        let group = AnycastGroup::new("A", members).unwrap();
        let got = RouteTable::for_sources(&topo, &group, sources.iter().copied());
        match (got, reference_routes(&topo, &group, &sources)) {
            (Ok(table), Ok(want)) => {
                for (src, paths) in &want {
                    let routes = table.routes_from(*src).unwrap();
                    prop_assert_eq!(routes.len(), paths.len());
                    for (route, path) in routes.iter().zip(paths) {
                        prop_assert_eq!(route.nodes(), path.nodes(), "from {}", src);
                        prop_assert_eq!(route.links(), path.links(), "from {}", src);
                    }
                }
            }
            (Err(got), Err(want)) => prop_assert_eq!(got, want),
            (got, want) => prop_assert!(
                false,
                "table {:?} but reference {:?}",
                got.map(|_| ()),
                want.map(|_| ())
            ),
        }
    }

    /// The builder keeps the old contract: ids in insertion order, the
    /// lower endpoint first, `DuplicateLink` for a repeated pair in
    /// either orientation, `SelfLoop` and `UnknownNode` as a `BTreeSet`
    /// model says; and every node's neighbours are exactly the sorted
    /// adjacency its links imply. The capacity hint changes none of it.
    #[test]
    fn builder_matches_a_set_model(
        n in 1u32..20,
        pairs in prop::collection::vec((0u32..22, 0u32..22), 0..60),
        hint in 0usize..4,
    ) {
        // No hint, one too small, the exact link count, one too large.
        let links = {
            let mut model = BTreeSet::new();
            for &(x, y) in &pairs {
                if x < n && y < n && x != y {
                    model.insert((x.min(y), x.max(y)));
                }
            }
            model.len()
        };
        let capacity = [0, links / 2, links, 2 * links + 7][hint];
        let mut b = TopologyBuilder::with_capacity(n as usize, capacity);
        let mut linked = BTreeSet::new();
        let cap = Bandwidth::from_mbps(1);
        for (x, y) in pairs {
            let (a, z) = (NodeId::new(x), NodeId::new(y));
            let (lo, hi) = (a.min(z), a.max(z));
            let want = if x >= n {
                Err(NetError::UnknownNode(a))
            } else if y >= n {
                Err(NetError::UnknownNode(z))
            } else if x == y {
                Err(NetError::SelfLoop(a))
            } else if linked.contains(&(lo, hi)) {
                Err(NetError::DuplicateLink(lo, hi))
            } else {
                Ok(LinkId::new(linked.len() as u32))
            };
            prop_assert_eq!(b.link(a, z, cap), want);
            if want.is_ok() {
                linked.insert((lo, hi));
                for (p, q) in [(a, z), (z, a)] {
                    prop_assert_eq!(b.link(p, q, cap), Err(NetError::DuplicateLink(lo, hi)));
                }
            }
        }
        let topo = b.build();
        prop_assert_eq!(topo.node_count(), n as usize);
        prop_assert_eq!(topo.link_count(), linked.len());
        let mut adjacency = vec![Vec::new(); n as usize];
        for l in topo.links() {
            prop_assert!(l.a() < l.b());
            prop_assert!(linked.contains(&(l.a(), l.b())));
            adjacency[l.a().index()].push((l.b(), l.id()));
            adjacency[l.b().index()].push((l.a(), l.id()));
        }
        for (node, mut want) in topo.nodes().zip(adjacency) {
            want.sort_unstable();
            prop_assert_eq!(topo.neighbors(node), &want[..], "node {}", node);
        }
    }

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
            prop_assert_eq!(path.nodes()[0], root);
            prop_assert_eq!(*path.nodes().last().unwrap(), d);
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

    /// Reserving then releasing any multiset of (link, bandwidth) pairs
    /// restores the ledger exactly.
    #[test]
    fn ledger_reserve_release_is_identity(
        topo in arb_topology(),
        ops in prop::collection::vec((any::<u32>(), 1u64..1_000_000), 0..40),
    ) {
        let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
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
        let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
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
        let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
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
            prop_assert_eq!(p.nodes()[0], s);
            prop_assert_eq!(*p.nodes().last().unwrap(), d);
        }
        let idle = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        let free = filtered_shortest_path(&topo, &idle, s, d, demand).unwrap();
        let bfs = bfs_tree(&topo, s).path_to(&topo, d).unwrap();
        prop_assert_eq!(free.hops(), bfs.hops());
    }

    /// GDI's one residual search picks what a per-pair search to every
    /// member would: the lowest-index member among those with the fewest
    /// hops, over the same path, and — run to exhaustion — the same
    /// feasibility verdict for every member. Every node takes a turn as the
    /// source. Members may repeat, sit at the source, or lie outside the
    /// topology (on a scratch with stale marks from a larger graph, and a
    /// path memo holding that graph's paths); demands run from 0 past
    /// link capacity.
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
        let mut table = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
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
        let mut scratch = RoutingScratch::default();
        let mut memo = PathMemo::default();
        let wide = topologies::grid(8, 8, Bandwidth::from_mbps(100));
        let everyone: Vec<NodeId> = wide.nodes().collect();
        let idle = LinkStateTable::with_uniform_fraction(&wide, Bandwidth::ZERO, 1.0);
        for far in [0, 9, 63] {
            let far = [NodeId::new(far)];
            nearest_feasible_member(
                &mut scratch, &mut memo, &wide, &idle, NodeId::new(0), &far, demand, false,
            );
        }
        nearest_feasible_member(
            &mut scratch, &mut memo, &wide, &idle, NodeId::new(0), &everyone, demand, true,
        );

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
                    &mut scratch, &mut memo, &topo, &table, src, &members, demand, exhaustive,
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
            prop_assert_eq!(p.nodes()[0], s);
            prop_assert_eq!(*p.nodes().last().unwrap(), d);
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
