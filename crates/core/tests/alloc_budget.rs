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
/// requests it decides. The per-request figure is in each comment; before
/// routes were shared and session ids hashed without SipHash it was 5.40,
/// 5.33, 5.21, 0.92 and 4.62.
#[test]
fn a_full_mci_run_allocates_a_pinned_count_per_request() {
    let topo = topologies::mci();
    let pinned = [
        (SystemSpec::dac(PolicySpec::Ed, 2), 777_200), // 4.11
        (SystemSpec::dac(PolicySpec::wd_dh_default(), 2), 742_583), // 3.93
        (SystemSpec::dac(PolicySpec::WdDb, 2), 725_860), // 3.84
        (SystemSpec::ShortestPath, 343),               // 0.002
        (SystemSpec::GlobalDynamic, 729_899),          // 3.86
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
