//! How many heap allocations the hot calls of the request path make,
//! counted by a global allocator that exists in this test binary only.
//! Counts, unlike timings, repeat exactly: a change that adds one shows
//! here on the first run.

use anycast_dac::experiment::Decision;
use anycast_daemon::wire::{decision_response, parse_request};
use anycast_daemon::{DecisionJournal, Request};
use anycast_rsvp::SessionId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Per thread, so tests running beside this one do not count here.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // A thread being torn down has no counter left, and nothing to count.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is handed to `System` unchanged; the counters are
// plain thread-local cells that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the (allocations, reallocations)
/// this thread made meanwhile.
fn counted<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let before = (ALLOCS.get(), REALLOCS.get());
    let out = f();
    (out, (ALLOCS.get() - before.0, REALLOCS.get() - before.1))
}

#[test]
fn parsing_an_admit_allocates_its_token_and_nothing_else() {
    let tokened = "{\"op\":\"admit\",\"source\":2,\"group\":0,\"demand_bps\":64000,\
                   \"holding_secs\":4.283721,\"token\":\"a123456\"}";
    let (request, counts) = counted(|| parse_request(tokened));
    assert!(matches!(request, Ok(Request::Admit { token: Some(_), .. })));
    assert_eq!(counts, (1, 0));

    let bare = "{\"op\":\"admit\",\"source\":2,\"group\":0,\"demand_bps\":64000,\
                \"holding_secs\":4.283721}";
    let (request, counts) = counted(|| parse_request(bare));
    assert!(matches!(request, Ok(Request::Admit { token: None, .. })));
    assert_eq!(counts, (0, 0));
}

#[test]
fn rendering_a_decision_allocates_the_line_once() {
    let d = Decision {
        request: u64::MAX,
        at_secs: 1234.567891234567,
        admitted: true,
        member_index: Some(4),
        session: Some(SessionId::from_raw(u64::MAX)),
        tries: 2,
    };
    let token = "t".repeat(64);
    let (line, counts) = counted(|| decision_response(&d, u64::MAX, Some(&token)));
    assert!(line.ends_with("\"latency_us\":18446744073709551615}"));
    assert_eq!(counts, (1, 0));
}

#[test]
fn a_full_journal_allocates_only_the_token() {
    const BOUND: usize = 4096;
    let mut journal = DecisionJournal::new(BOUND);
    let mut cycle = |i: usize| {
        let token = format!("a{i}");
        let line = format!("{{\"op\":\"decision\",\"request\":{i}}}");
        let ((), counts) = counted(|| {
            journal.enqueue(&token, 0);
            journal.dispatch(&token, i as u64);
            journal.decide(&token, line);
        });
        counts
    };
    // Fill to the bound and go round once more: map and queue are at
    // their final size and every enqueue evicts.
    for i in 0..2 * BOUND {
        cycle(i);
    }
    for i in 2 * BOUND..4 * BOUND {
        assert_eq!(cycle(i), (1, 0), "cycle {i}");
    }
    assert_eq!(journal.len(), BOUND);
    assert_eq!(journal.evicted(), 3 * BOUND as u64);
}
