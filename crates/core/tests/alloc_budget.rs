//! How many heap allocations a full-horizon offline run makes per request,
//! counted by a global allocator that exists in this test binary only.
//! Counts, unlike timings, repeat exactly: a change that adds an
//! allocation to the request path shows here on the first run.

use anycast_dac::experiment::{run_experiment, ExperimentConfig, SystemSpec};
use anycast_dac::online::record_arrivals;
use anycast_dac::policy::PolicySpec;
use anycast_net::routing::shortest_path;
use anycast_net::{topologies, Bandwidth, LinkStateTable, NodeId};
use anycast_rsvp::ReservationEngine;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Per thread, so tests running beside this one do not count here.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn bump() {
    // A thread being torn down has no counter left, and nothing to count.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is handed to `System` unchanged; the counter is a
// plain thread-local cell that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations plus reallocations this thread made while `f` ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.get();
    let out = f();
    (out, ALLOCS.get() - before)
}

/// One full-horizon MCI run per Fig. 6 system at λ = 35, seed 11: its
/// allocations and reallocations, set-up included, over the 189 040
/// requests it decides. The per-request figure is in each comment. Before
/// routes were shared and session ids hashed without SipHash it was 5.40,
/// 5.33, 5.21, 0.92 and 4.62; before the DAC draw reused its weight and
/// mask buffers, the three DAC systems stood at 4.11, 3.93 and 3.84.
#[test]
fn a_full_mci_run_allocates_a_pinned_count_per_request() {
    let topo = topologies::mci();
    let pinned = [
        (SystemSpec::dac(PolicySpec::Ed, 2), 378), // 0.0020
        (SystemSpec::dac(PolicySpec::wd_dh_default(), 2), 409), // 0.0022
        (SystemSpec::dac(PolicySpec::WdDb, 2), 400), // 0.0021
        (SystemSpec::ShortestPath, 341),           // 0.0018
        (SystemSpec::GlobalDynamic, 729_895),      // 3.86
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
