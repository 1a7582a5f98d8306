//! Heap allocations on the serving read paths.
//!
//! A cached query answer is shared, not copied: a hit hands the caller
//! the same [`scserve::Rows`] the cache holds. A miss shares too: each
//! row holds the key and document the shard stores, so building an
//! answer bumps reference counts instead of copying documents. This
//! binary counts the allocations of warm hits and of misses after a
//! write with a counting global allocator and pins them to small
//! constants, independent of how large the documents are.

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

fn sensor(i: i64) -> Doc {
    Doc::object([
        ("kind", Doc::Str(KINDS[i as usize % KINDS.len()].into())),
        ("v", Doc::I64(i)),
    ])
}

/// Five shards holding 200 keys; each kind matches 50 of them.
fn seeded() -> Server {
    let mut server = Server::new(ServeConfig {
        shards: 5,
        ..ServeConfig::default()
    });
    for i in 0..200i64 {
        server
            .put(&format!("sensor-{i:03}"), sensor(i), SimTime::ZERO)
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
fn warm_get_hit_does_not_allocate() {
    let mut server = seeded();
    let cold = server.get("sensor-042", SimTime::from_millis(1)).unwrap();
    assert!(matches!(cold.outcome, Outcome::Fresh(Some(_))));
    for ms in 2..20 {
        let (served, allocs) =
            allocations_in(|| server.get("sensor-042", SimTime::from_millis(ms)).unwrap());
        assert!(matches!(served.outcome, Outcome::Cached(Some(_))));
        assert_eq!(allocs, 0, "warm get hit made {allocs} allocations");
    }
}

/// Every query after a write misses the cache and fans out to all five
/// shards; its 50 rows share the stored keys and documents.
#[test]
fn query_miss_allocates_at_most_40_times() {
    let mut server = seeded();
    let filter = Filter::Eq("kind".into(), Doc::Str("air".into()));
    // The first query on `kind` builds the shard indexes.
    server.query(&filter, SimTime::from_millis(1)).unwrap();
    for ms in 2..20 {
        let now = SimTime::from_millis(ms);
        server.put("sensor-001", sensor(1), now).unwrap();
        let (served, allocs) = allocations_in(|| server.query(&filter, now).unwrap());
        let Outcome::Fresh(rows) = served.outcome else {
            panic!("a query after a write must miss")
        };
        assert_eq!(rows.len(), 50);
        assert!(allocs <= 40, "query miss made {allocs} allocations");
    }
}

/// A `get` after a write misses the cache; the only allocation is the
/// one-row answer the cache keeps.
#[test]
fn get_miss_allocates_at_most_once() {
    let mut server = seeded();
    // The first fill sets up the cache's own maps.
    server.get("sensor-042", SimTime::ZERO).unwrap();
    for ms in 1..20 {
        let now = SimTime::from_millis(ms);
        server.put("sensor-001", sensor(1), now).unwrap();
        let (served, allocs) = allocations_in(|| server.get("sensor-042", now).unwrap());
        assert!(matches!(served.outcome, Outcome::Fresh(Some(_))));
        assert!(allocs <= 1, "get miss made {allocs} allocations");
    }
}
