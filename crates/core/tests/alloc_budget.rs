//! How many heap allocations a full-horizon offline run makes per request,
//! counted by a global allocator that exists in this test binary only.
//! Counts, unlike timings, repeat exactly: a change that adds an
//! allocation to the request path shows here on the first run.

use anycast_dac::experiment::{run_experiment, ExperimentConfig, SystemSpec};
use anycast_dac::online::{record_arrivals, OnlineArrival, OnlineEngine};
use anycast_dac::policy::PolicySpec;
use anycast_net::routing::shortest_path;
use anycast_net::{topologies, Bandwidth, LinkStateTable, NodeId};
use anycast_rsvp::{ReservationEngine, SessionId, SessionMap};
use anycast_sim::SimTime;
use anycast_telemetry::NullRecorder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Per thread, so tests running beside this one do not count here.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn bump(bytes: usize) {
    // A thread being torn down has no counter left, and nothing to count.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every call is handed to `System` unchanged; the counter is a
// plain thread-local cell that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations plus reallocations this thread made while `f` ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, allocs, _) = counted_bytes(f);
    (out, allocs)
}

/// [`counted`], plus the bytes those calls asked for (a reallocation
/// counts its new size).
fn counted_bytes<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (allocs, bytes) = (ALLOCS.get(), BYTES.get());
    let out = f();
    (out, ALLOCS.get() - allocs, BYTES.get() - bytes)
}

/// One full-horizon MCI run per Fig. 6 system at λ = 35, seed 11: its
/// allocations and reallocations, set-up included, over the 189 040
/// requests it decides. The per-request figure is in each comment. Before
/// routes were shared and session ids hashed without SipHash it was 5.40,
/// 5.33, 5.21, 0.92 and 4.62; before the DAC draw reused its weight and
/// mask buffers, the three DAC systems stood at 4.11, 3.93 and 3.84; before
/// GDI interned its paths it stood at 3.02 (570 331). The event queue's
/// keys and payloads grow as two vectors, which costs each run 11 or 12
/// reallocations more than one heap vector did. The two session tables
/// (the reservation engine's and the live flows') start at 16 slots, where
/// the std maps they replaced started at 4 buckets, and fill to three
/// quarters before they double: 4 or 6 allocations fewer a run. The
/// fault ledger's five counts were read back at the end of each run by a
/// `String`-keyed registry lookup until they became plain fields: 5 fewer.
#[test]
fn a_full_mci_run_allocates_a_pinned_count_per_request() {
    let topo = topologies::mci();
    let pinned = [
        (SystemSpec::dac(PolicySpec::Ed, 2), 312), // 0.0017
        (SystemSpec::dac(PolicySpec::wd_dh_default(), 2), 342), // 0.0018
        (SystemSpec::dac(PolicySpec::WdDb, 2), 324), // 0.0017
        (SystemSpec::ShortestPath, 273),           // 0.0014
        (SystemSpec::GlobalDynamic, 1_180),        // 0.0062
    ];
    for (system, expected) in pinned {
        let config = ExperimentConfig::paper_defaults(35.0, system).with_seed(11);
        let requests = record_arrivals(&config).len();
        assert_eq!(requests, 189_040);
        let (metrics, allocs) = counted(|| run_experiment(&topo, &config));
        assert_eq!(
            allocs,
            expected,
            "{}: {:.3} allocations per request",
            metrics.label,
            allocs as f64 / requests as f64
        );
    }
}

/// The daemon's engine tick on MCI at λ = 35: one submit, then one
/// `advance_to` into a buffer the caller reuses. After 20 000 ticks of
/// warm-up, 2 000 ticks and 20 000 ticks allocate the same: nothing. No
/// tick allocates for the decision it hands out; each did when
/// `advance_to` returned a fresh `Vec`. (Over 100 000 ticks a new high
/// of live flows can still grow a vector: 2 allocations.)
#[test]
fn online_ticks_allocate_a_count_independent_of_their_number() {
    let topo = topologies::mci();
    let config =
        ExperimentConfig::paper_defaults(35.0, SystemSpec::dac(PolicySpec::Ed, 2)).with_seed(11);
    let arrivals = record_arrivals(&config);
    let warm = 20_000;
    let ticks = |n: usize| {
        let mut engine = OnlineEngine::new(&topo, &config, NullRecorder);
        let mut decided = Vec::new();
        let mut tick = |a: &OnlineArrival| {
            engine.submit(*a);
            engine.advance_to(SimTime::from_secs(a.at_secs), &mut decided);
            assert_eq!(decided.len(), 1, "one arrival, one atomic decision");
            decided.clear();
        };
        arrivals[..warm].iter().for_each(&mut tick);
        let ((), allocs) = counted(|| arrivals[warm..warm + n].iter().for_each(&mut tick));
        allocs
    };
    assert_eq!([ticks(2_000), ticks(20_000)], [0, 0]);
}

/// A reservation shares its route's hops: admitting a flow copies no
/// node or link sequence.
#[test]
fn an_admitted_session_shares_its_routes_hops() {
    let topo = topologies::mci();
    let mut links = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::from_mbps(100), 0.2);
    let mut rsvp = ReservationEngine::new();
    let route = shortest_path(&topo, NodeId::new(1), NodeId::new(8)).unwrap();
    let (outcome, allocs) = counted(|| {
        rsvp.probe_and_reserve(&mut links, &route, Bandwidth::from_kbps(64))
            .unwrap()
    });
    let reserved = rsvp.reservation(outcome.session).unwrap().path();
    assert_eq!(reserved.links().as_ptr(), route.links().as_ptr());
    assert_eq!(reserved.nodes().as_ptr(), route.nodes().as_ptr());
    // The session map's first insert sizes its table; nothing else.
    assert_eq!(allocs, 1);
}

/// A session table under churn, as the reservation engine's and the live
/// flows' are: 4 096 live sessions, then 200 000 cycles that each end a
/// random one and admit a new one. The table keeps the capacity it had
/// when first filled and allocates nothing. A std `HashMap` doubled here,
/// because the tombstones of removed keys count against its load.
#[test]
fn a_churned_session_table_keeps_one_capacity() {
    const LIVE: u64 = 4_096;
    let mut table = SessionMap::default();
    let mut live: Vec<SessionId> = (0..LIVE).map(SessionId::from_raw).collect();
    for &s in &live {
        table.insert(s, s.raw() as f64);
    }
    let capacity = table.capacity();
    let mut state = 11u64;
    let ((), allocs) = counted(|| {
        for raw in LIVE..LIVE + 200_000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let ended = live.swap_remove((state >> 33) as usize % live.len());
            assert_eq!(table.remove(ended), Some(ended.raw() as f64));
            let admitted = SessionId::from_raw(raw);
            assert_eq!(table.insert(admitted, raw as f64), None);
            live.push(admitted);
            assert_eq!(table.capacity(), capacity, "cycle {raw}");
        }
    });
    assert_eq!(allocs, 0);
    assert_eq!((table.len(), capacity), (4_096, 6_144));
    assert!(live.iter().all(|&s| table.contains_key(s)));
}

/// ⟨WD/D+H,2⟩ on `fat_tree(8)` with K = 16 members (every eighth host) and
/// the other 112 hosts as sources, at a load that rejects about one
/// request in five, so retrials draw over the whole group. Set-up allocates
/// the same for any horizon, so the difference between two horizons is
/// what the extra requests cost: at most 0.01 allocations each.
#[test]
fn a_sixteen_member_fat_tree_run_allocates_almost_nothing_per_request() {
    let topo = topologies::fat_tree(8, Bandwidth::from_mbps(100));
    let hosts = topologies::fat_tree_hosts(8);
    let members: Vec<NodeId> = hosts.iter().copied().step_by(8).collect();
    let sources: Vec<NodeId> = hosts
        .iter()
        .copied()
        .filter(|h| !members.contains(h))
        .collect();
    assert_eq!(members.len(), 16);
    let run = |measure_secs: f64| {
        let config =
            ExperimentConfig::paper_defaults(35.0, SystemSpec::dac(PolicySpec::wd_dh_default(), 2))
                .with_group(members.clone())
                .with_sources(sources.clone())
                .with_warmup_secs(200.0)
                .with_measure_secs(measure_secs)
                .with_seed(11);
        let requests = record_arrivals(&config).len() as u64;
        let (metrics, allocs) = counted(|| run_experiment(&topo, &config));
        (requests, allocs, metrics.admission_probability)
    };
    let (short_requests, short_allocs, _) = run(300.0);
    let (long_requests, long_allocs, admission) = run(1_200.0);
    assert!(admission < 0.9, "the run must see rejections: {admission}");
    let extra = long_requests - short_requests;
    let per_request = (long_allocs - short_allocs) as f64 / extra as f64;
    assert!(extra > 30_000, "{extra} extra requests");
    assert!(
        per_request <= 0.01,
        "{per_request:.4} allocations per request ({short_allocs} allocations \
         for {short_requests} requests, {long_allocs} for {long_requests})"
    );
}

/// `fat_tree(34)`, the `offline_fattree` fabric of 11 271 nodes and
/// 29 478 links: the link list and the duplicate check's table, each
/// sized once for the link count, then one offsets and one neighbour array.
#[test]
fn a_fat_tree_34_builds_in_a_pinned_count() {
    let (topo, allocs) = counted(|| topologies::fat_tree(34, Bandwidth::from_mbps(100)));
    assert_eq!((topo.node_count(), topo.link_count()), (11_271, 29_478));
    assert_eq!(allocs, 4);
}

/// `OnlineEngine::new` (the `Sim::new` every run starts with) for
/// ⟨WD/D+H,2⟩ on `fat_tree(34)` with the `offline_fattree` placement: 16
/// members and 64 sources spread evenly over the hosts. The 1 024 routes
/// come from one search per source through one reused scratch, each
/// finished from the members' side and each path allocated at its length.
/// The topology is not copied: only GDI keeps a copy.
#[test]
fn fat_tree_set_up_allocates_a_pinned_count() {
    let topo = topologies::fat_tree(34, Bandwidth::from_mbps(100));
    let hosts = topologies::fat_tree_hosts(34);
    let spread = |pool: &[NodeId], count: usize| -> Vec<NodeId> {
        (0..count).map(|i| pool[i * pool.len() / count]).collect()
    };
    let members = spread(&hosts, 16);
    let pool: Vec<NodeId> = hosts
        .iter()
        .copied()
        .filter(|h| !members.contains(h))
        .collect();
    let sources = spread(&pool, 64);
    let config =
        ExperimentConfig::paper_defaults(40.0, SystemSpec::dac(PolicySpec::wd_dh_default(), 2))
            .with_group(members)
            .with_sources(sources)
            .with_warmup_secs(300.0)
            .with_measure_secs(2_400.0)
            .with_seed(11);
    let (engine, allocs, bytes) = counted_bytes(|| OnlineEngine::new(&topo, &config, NullRecorder));
    drop(engine);
    assert!(bytes <= 2_250_000, "{bytes} bytes allocated");
    assert_eq!(allocs, 4_458, "{bytes} bytes allocated");
}
