//! Heap allocations on the warm cache-hit paths.
//!
//! A cached query answer is shared, not copied: a hit hands the caller
//! the same [`scserve::Rows`] the cache holds. This binary counts the
//! allocations of warm `query` and `get` hits with a counting global
//! allocator and pins them to small constants, independent of how many
//! rows the answer has.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use scnosql::document::{Doc, Filter};
use scserve::{Outcome, ServeConfig, Server};
use simclock::SimTime;

/// Counts heap allocations made by the current thread, so tests running
/// in parallel do not see each other's allocations.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result and how many heap allocations it made.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const KINDS: [&str; 4] = ["camera", "air", "traffic", "noise"];

/// Five shards holding 200 keys; each kind matches 50 of them.
fn seeded() -> Server {
    let mut server = Server::new(ServeConfig {
        shards: 5,
        ..ServeConfig::default()
    });
    for i in 0..200i64 {
        let doc = Doc::object([
            ("kind", Doc::Str(KINDS[i as usize % KINDS.len()].into())),
            ("v", Doc::I64(i)),
        ]);
        server
            .put(&format!("sensor-{i:03}"), doc, SimTime::ZERO)
            .unwrap();
    }
    server
}

#[test]
fn warm_query_hit_allocates_at_most_once() {
    let mut server = seeded();
    let filter = Filter::Eq("kind".into(), Doc::Str("air".into()));
    let cold = server.query(&filter, SimTime::from_millis(1)).unwrap();
    let Outcome::Fresh(rows) = cold.outcome else {
        panic!("cold query must be fresh")
    };
    assert_eq!(rows.len(), 50);
    for ms in 2..20 {
        let (served, allocs) =
            allocations_in(|| server.query(&filter, SimTime::from_millis(ms)).unwrap());
        assert!(matches!(served.outcome, Outcome::Cached(_)));
        assert_eq!(served.outcome.value(), Some(&rows));
        assert!(allocs <= 1, "warm query hit made {allocs} allocations");
    }
}

#[test]
fn warm_get_hit_allocates_at_most_five_times() {
    let mut server = seeded();
    let cold = server.get("sensor-042", SimTime::from_millis(1)).unwrap();
    assert!(matches!(cold.outcome, Outcome::Fresh(Some(_))));
    for ms in 2..20 {
        let (served, allocs) =
            allocations_in(|| server.get("sensor-042", SimTime::from_millis(ms)).unwrap());
        assert!(matches!(served.outcome, Outcome::Cached(Some(_))));
        assert!(allocs <= 5, "warm get hit made {allocs} allocations");
    }
}
