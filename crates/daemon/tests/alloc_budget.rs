//! How many heap allocations the hot calls of the request path make,
//! counted by a global allocator that exists in this test binary only.
//! Counts, unlike timings, repeat exactly: a change that adds one shows
//! here on the first run.

use anycast_dac::experiment::Decision;
use anycast_daemon::wire::{decision_response, parse_request};
use anycast_daemon::{DecisionJournal, Request, Verdict};
use anycast_rsvp::SessionId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Per thread, so tests running beside this one do not count here.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
    // Bytes allocated and not yet freed by this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // A thread being torn down has no counter left, and nothing to count.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

fn live(bytes: usize, sign: i64) {
    let _ = LIVE.try_with(|c| c.set(c.get() + sign * bytes as i64));
}

// SAFETY: every call is handed to `System` unchanged; the counters are
// plain thread-local cells that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        live(layout.size(), 1);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(layout.size(), -1);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS);
        live(new_size, 1);
        live(layout.size(), -1);
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

/// The journal's default bound.
const BOUND: usize = 4096;

/// A decided verdict for request `i`, admitted or not.
fn verdict(i: usize) -> Verdict {
    let admitted = !i.is_multiple_of(5);
    let d = Decision {
        request: i as u64,
        at_secs: i as f64 * 0.013,
        admitted,
        member_index: admitted.then_some(i % 4),
        session: admitted.then(|| SessionId::from_raw(i as u64)),
        tries: 1 + (i % 2) as u32,
    };
    Verdict::new(&d, 180 + i as u64 % 97)
}

/// Tokens each journal test pushes through, well past 100 000: churn can
/// grow a table long after a short run has seen it full. A std `HashMap`
/// index doubled near token 37 000; the exact token moves with the
/// journal's random keys.
const CYCLES: usize = 120_000;

/// Token `i` as a client mints it, written into a reused buffer.
fn token(buf: &mut String, i: usize) -> &str {
    use std::fmt::Write;
    buf.clear();
    write!(buf, "client-7-req-{i}").expect("a String takes any write");
    buf
}

#[test]
fn a_full_journal_allocates_nothing_per_token() {
    let mut buf = String::with_capacity(64);
    let mut journal = DecisionJournal::new(BOUND);
    let mut cycle = |i: usize| {
        let token = token(&mut buf, i);
        let ((), counts) = counted(|| {
            journal.enqueue(token, 0);
            journal.dispatch(token, i as u64);
            journal.decide(token, verdict(i));
        });
        counts
    };
    // Fill to the bound: the ring is at its final size, the index was
    // from the start, and every enqueue from here on evicts.
    for i in 0..BOUND {
        cycle(i);
    }
    for i in BOUND..CYCLES {
        assert_eq!(cycle(i), (0, 0), "cycle {i}");
    }
    assert_eq!(journal.len(), BOUND);
    assert_eq!(journal.evicted(), (CYCLES - BOUND) as u64);
}

/// A full journal at the default bound, after 120 000 tokens: a 64-byte
/// record per token plus the index's 8 192 four-byte slots, 294 912 bytes
/// in all. With a std `HashMap` for its index it held 401 424 bytes after
/// 8 192 tokens and 540 688 from about token 37 000 on, when the map's
/// tombstones made it double. Kept as rendered lines, with an `Arc<str>`
/// token, a map slot and a queue slot each, the same verdicts took
/// 1 552 400.
#[test]
fn a_full_journal_holds_at_most_300_kib() {
    let mut buf = String::with_capacity(64);
    let before = LIVE.get();
    let mut journal = DecisionJournal::new(BOUND);
    for i in 0..CYCLES {
        let token = token(&mut buf, i);
        journal.enqueue(token, 0);
        journal.dispatch(token, i as u64);
        journal.decide(token, verdict(i));
    }
    let bytes = LIVE.get() - before;
    assert_eq!(journal.len(), BOUND);
    assert!(bytes <= 300 * 1024, "a full journal holds {bytes} bytes");
    drop(journal);
    assert_eq!(LIVE.get(), before, "the journal frees what it held");
}
