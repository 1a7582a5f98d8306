//! Property tests for the serving-layer invariants.
//!
//! Three families, matching the scserve design claims:
//!
//! - **Routing** — every key routes to exactly one live shard, replicas
//!   are distinct, and routing is a pure function of the node set.
//! - **Minimal movement** — removing one of `N` nodes remaps about
//!   `keys / N` keys; survivors' keys never move.
//! - **Cache freshness** — under arbitrary insert / read / invalidate /
//!   advance interleavings, a cache read never returns a value that is
//!   wrong for its key or older than the TTL.
//! - **Scale-event coherence** — cache generation stamps survive shard
//!   add/remove cycles: across arbitrary autoscale interleavings a
//!   served answer never reflects a state older than the latest
//!   acknowledged write and is never served beyond its TTL.
//! - **Owner rule under faults** — with shards crashing over random
//!   windows, a query answers each key from its first live replica, and
//!   the reroute and degraded counters match a reference walk.

use proptest::prelude::*;
use scfault::{FaultKind, FaultPlan, OutageWindows};
use scnosql::document::{Doc, Filter};
use scserve::{CacheConfig, LruTtlCache, Outcome, Rows, ServeConfig, Server, ShardMap};
use simclock::{SimDuration, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every key routes to exactly one node, and that node is a live ring
    /// member. Replica lists lead with the home node and never repeat.
    #[test]
    fn every_key_routes_to_exactly_one_live_shard(
        nodes in 1u32..12,
        vnodes in 1u32..96,
        replicas in 1usize..5,
        keys in proptest::collection::vec(any::<u64>(), 1..200),
    ) {
        let map = ShardMap::with_nodes(nodes, vnodes);
        for key in &keys {
            let bytes = key.to_le_bytes();
            let home = map.route(&bytes).expect("non-empty ring always routes");
            prop_assert!(map.contains(home), "routed to a dead node");
            // Routing is a function: ask twice, same answer.
            prop_assert_eq!(map.route(&bytes), Some(home));
            let reps = map.route_replicas(&bytes, replicas);
            prop_assert_eq!(reps.len(), replicas.min(nodes as usize));
            prop_assert_eq!(reps[0], home, "replica list must lead with home");
            let mut uniq = reps.clone();
            uniq.sort_unstable();
            uniq.dedup();
            prop_assert_eq!(uniq.len(), reps.len(), "replicas must be distinct");
        }
    }

    /// Removing one of `N` nodes only moves the keys the node owned —
    /// about `keys / N` — and never touches a survivor's keys. The bound
    /// allows consistent hashing's placement variance on top of ⌈keys/N⌉.
    #[test]
    fn removal_remaps_at_most_its_share_plus_slack(
        nodes in 2u32..10,
        victim_ix in 0u32..10,
        nkeys in 100usize..600,
    ) {
        let mut map = ShardMap::with_nodes(nodes, 128);
        let victim = victim_ix % nodes;
        let keys: Vec<Vec<u8>> = (0..nkeys)
            .map(|i| format!("key-{i}").into_bytes())
            .collect();
        let before: Vec<u32> = keys.iter().map(|k| map.route(k).unwrap()).collect();
        map.remove_node(victim);
        let mut moved = 0usize;
        for (key, &was) in keys.iter().zip(&before) {
            let now = map.route(key).unwrap();
            if was == victim {
                prop_assert_ne!(now, victim, "keys must leave the removed node");
                moved += 1;
            } else {
                prop_assert_eq!(now, was, "a survivor's key moved");
            }
        }
        let fair_share = nkeys.div_ceil(nodes as usize);
        let slack = fair_share + 16; // ring-variance allowance (128 vnodes)
        prop_assert!(
            moved <= fair_share + slack,
            "removing 1 of {} nodes moved {} of {} keys (fair share {})",
            nodes, moved, nkeys, fair_share
        );
    }

    /// Adding a node then removing it restores the exact prior routing.
    #[test]
    fn add_remove_is_a_routing_no_op(
        nodes in 1u32..8,
        newcomer in 100u32..200,
        keys in proptest::collection::vec(any::<u64>(), 1..150),
    ) {
        let mut map = ShardMap::with_nodes(nodes, 64);
        let before: Vec<_> = keys.iter().map(|k| map.route(&k.to_le_bytes())).collect();
        map.add_node(newcomer);
        map.remove_node(newcomer);
        let after: Vec<_> = keys.iter().map(|k| map.route(&k.to_le_bytes())).collect();
        prop_assert_eq!(before, after);
    }
}

/// One step of the cache interleaving driver.
#[derive(Debug, Clone)]
enum CacheOp {
    /// Insert key → versioned value.
    Insert(u8),
    /// Read a key and check freshness.
    Read(u8),
    /// Explicitly invalidate a key.
    Invalidate(u8),
    /// Advance sim-time by this many milliseconds.
    Advance(u16),
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        any::<u8>().prop_map(CacheOp::Insert),
        any::<u8>().prop_map(CacheOp::Read),
        any::<u8>().prop_map(CacheOp::Invalidate),
        (0u16..500).prop_map(CacheOp::Advance),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under arbitrary insert/read/invalidate/advance interleavings a
    /// read never observes (a) a value other than the key's latest
    /// insert, (b) a value older than the TTL, or (c) an invalidated
    /// value. Eviction may cause misses, never wrong hits.
    #[test]
    fn no_stale_read_under_arbitrary_interleavings(
        capacity in 1usize..64,
        ttl_ms in 1u64..2_000,
        seed in any::<u64>(),
        ops in proptest::collection::vec(cache_op(), 1..200),
    ) {
        let ttl = SimDuration::from_millis(ttl_ms);
        let mut cache: LruTtlCache<u8, u64> = LruTtlCache::new(CacheConfig {
            capacity,
            ttl,
            seed,
            ..CacheConfig::default()
        });
        // Ground truth: key → (latest version, insert time).
        let mut model: std::collections::BTreeMap<u8, (u64, SimTime)> = Default::default();
        let mut now = SimTime::ZERO;
        let mut version = 0u64;

        for op in ops {
            match op {
                CacheOp::Insert(k) => {
                    version += 1;
                    cache.insert(k, version, now);
                    model.insert(k, (version, now));
                }
                CacheOp::Read(k) => {
                    if let Some(v) = cache.get(&k, now) {
                        let (want, at) = model
                            .get(&k)
                            .copied()
                            .expect("hit for a never-inserted key");
                        prop_assert_eq!(v, want, "hit returned a superseded value");
                        prop_assert!(
                            now.saturating_since(at) < ttl,
                            "hit at {:?} for a value inserted at {:?} breaches ttl {:?}",
                            now, at, ttl
                        );
                    }
                }
                CacheOp::Invalidate(k) => {
                    cache.invalidate(&k);
                    model.remove(&k);
                    prop_assert_eq!(cache.get(&k, now), None, "read-after-invalidate");
                }
                CacheOp::Advance(ms) => {
                    now += SimDuration::from_millis(ms as u64);
                }
            }
        }
    }

    /// With capacity for every key, a read immediately after an insert
    /// always hits (eviction can only be the reason for a miss).
    #[test]
    fn uncontended_cache_never_misses(
        keys in proptest::collection::vec(any::<u8>(), 1..100),
    ) {
        let mut cache: LruTtlCache<u8, u64> = LruTtlCache::new(CacheConfig {
            capacity: 256,
            ttl: SimDuration::from_secs(60),
            ..CacheConfig::default()
        });
        let now = SimTime::ZERO;
        for (i, k) in keys.into_iter().enumerate() {
            cache.insert(k, i as u64, now);
            prop_assert_eq!(cache.get(&k, now), Some(i as u64));
        }
    }
}

/// One step of the autoscale-cycle coherence driver.
#[derive(Debug, Clone)]
enum FleetOp {
    /// Write a new version under this key (bumps the generation).
    Put(u8),
    /// Read a key and check the answer against the ground truth.
    Get(u8),
    /// Autoscale up: add the next shard node and rebalance.
    AddShard,
    /// Autoscale down: remove the most recently added node (never a
    /// seed node, so the fleet never shrinks below its base size).
    RemoveShard,
    /// Turn the runtime knobs mid-run (service rate / rate limit), as
    /// the scmetro autoscaler does, with values that keep admission
    /// open so every answer stays checkable.
    Retune(bool),
    /// Advance sim-time by this many milliseconds (can cross the TTL).
    Advance(u16),
}

fn fleet_op() -> impl Strategy<Value = FleetOp> {
    prop_oneof![
        (0u8..24).prop_map(FleetOp::Put),
        (0u8..24).prop_map(FleetOp::Get),
        (0u8..24).prop_map(FleetOp::Get),
        Just(FleetOp::AddShard),
        Just(FleetOp::RemoveShard),
        any::<bool>().prop_map(FleetOp::Retune),
        (1u16..5_000).prop_map(FleetOp::Advance),
    ]
}

fn versioned(v: i64) -> Doc {
    Doc::object([("v", Doc::I64(v))])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cache generation stamps survive autoscale add/remove cycles:
    /// under arbitrary put/get/add-shard/remove-shard/retune/advance
    /// interleavings of a healthy fleet, every served answer
    ///
    /// 1. equals the latest acknowledged write for its key (a cached
    ///    entry whose generation a rebalance failed to invalidate or a
    ///    write failed to supersede would violate this),
    /// 2. is never served from the cache beyond its TTL (a `Cached`
    ///    outcome at `now` implies a fill within `ttl`), and
    /// 3. is never `Stale` or `Degraded` — with every shard live those
    ///    ladder rungs are unreachable, scale events included.
    #[test]
    fn cache_generations_survive_autoscale_cycles(
        ttl_ms in 50u64..10_000,
        ops in proptest::collection::vec(fleet_op(), 1..120),
    ) {
        let ttl = SimDuration::from_millis(ttl_ms);
        let base = ServeConfig::default();
        let mut server = Server::new(ServeConfig {
            query_cache: CacheConfig { ttl, ..CacheConfig::default() },
            ..base.clone()
        });
        // Ground truth: key → latest acknowledged version, plus the
        // fill time of the freshest backend answer per key (a `Cached`
        // outcome must trace back to a fill within TTL).
        let mut model: std::collections::BTreeMap<u8, i64> = Default::default();
        let mut filled: std::collections::BTreeMap<u8, SimTime> = Default::default();
        let mut now = SimTime::ZERO;
        let mut version = 0i64;
        let mut next_node = base.shards;
        let mut added: Vec<u32> = Vec::new();

        for op in ops {
            match op {
                FleetOp::Put(k) => {
                    version += 1;
                    server
                        .put(&format!("key-{k:02}"), versioned(version), now)
                        .unwrap();
                    model.insert(k, version);
                }
                FleetOp::Get(k) => {
                    let served = server.get(&format!("key-{k:02}"), now).unwrap();
                    let want = model.get(&k).map(|v| versioned(*v));
                    match served.outcome {
                        Outcome::Fresh(doc) => {
                            prop_assert_eq!(doc.as_deref(), want.as_ref(), "fresh answer lost a write");
                            filled.insert(k, now);
                        }
                        Outcome::Cached(doc) => {
                            prop_assert_eq!(doc.as_deref(), want.as_ref(), "cached answer is stale");
                            let at = filled.get(&k).copied()
                                .expect("a cached answer implies a prior fill");
                            prop_assert!(
                                now.saturating_since(at) < ttl,
                                "cache hit at {:?} for an entry filled at {:?} breaches ttl {:?}",
                                now, at, ttl
                            );
                        }
                        other => prop_assert!(
                            false,
                            "healthy fleet must answer fresh or cached, got {:?}",
                            other
                        ),
                    }
                }
                FleetOp::AddShard => {
                    server.add_shard(next_node);
                    added.push(next_node);
                    next_node += 1;
                }
                FleetOp::RemoveShard => {
                    if let Some(node) = added.pop() {
                        server.remove_shard(node);
                    }
                }
                FleetOp::Retune(up) => {
                    let rate = if up { 2.0 * base.service_rate } else { base.service_rate };
                    server.set_service_rate(rate, now);
                    server.set_rate_limit(base.rate_per_s, base.burst, now);
                }
                FleetOp::Advance(ms) => {
                    now += SimDuration::from_millis(ms as u64);
                }
            }
        }
    }
}

/// One step of the owner-rule driver under shard crashes.
#[derive(Debug, Clone)]
enum OutageOp {
    /// Write `key` with document kind `kind` (index into `KINDS`).
    Put(u8, u8),
    /// Remove `key`.
    Remove(u8),
    /// Read `key` and check it against the model.
    Get(u8),
    /// Query one kind and check rows and counters against the model.
    Query(u8),
    /// Add the next shard node and rebalance.
    AddShard,
    /// Remove the most recently added node.
    RemoveShard,
    /// Advance sim-time by this many milliseconds.
    Advance(u16),
}

const KINDS: [&str; 3] = ["camera", "air", "traffic"];

fn outage_op() -> impl Strategy<Value = OutageOp> {
    prop_oneof![
        (0u8..24, 0u8..3).prop_map(|(k, c)| OutageOp::Put(k, c)),
        (0u8..24).prop_map(OutageOp::Remove),
        (0u8..24).prop_map(OutageOp::Get),
        (0u8..3).prop_map(OutageOp::Query),
        (0u8..3).prop_map(OutageOp::Query),
        Just(OutageOp::AddShard),
        Just(OutageOp::RemoveShard),
        (1u16..4_000).prop_map(OutageOp::Advance),
    ]
}

/// `(node, start ms, length ms)` crash windows over the first 20 s.
fn crash_windows() -> impl Strategy<Value = Vec<(u32, u64, u64)>> {
    proptest::collection::vec((0u32..6, 0u64..20_000, 1u64..10_000), 1..10)
}

/// The rows as owned `(key, document)` pairs, for comparing with a model.
fn owned(rows: &Rows) -> Vec<(String, Doc)> {
    rows.iter()
        .map(|(k, d)| (k.to_string(), Doc::clone(d)))
        .collect()
}

fn kind_doc(kind: usize, v: i64) -> Doc {
    Doc::object([("kind", Doc::Str(KINDS[kind].into())), ("v", Doc::I64(v))])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The query owner rule holds under shard crashes: each key is
    /// answered by its first live replica. Under arbitrary
    /// put/remove/add-shard/remove-shard/get/query interleavings against
    /// random crash windows, every `Fresh` or `Degraded` query answer
    /// equals the model's matching documents, in key order, over the keys
    /// with a live replica among their ring replicas; every backend query
    /// grows `reroutes` by the keys whose primary is down but a replica is
    /// live, and `degraded` by one exactly when some key has no live
    /// replica. A `Cached` answer is the complete current answer.
    #[test]
    fn query_owner_rule_holds_under_shard_crashes(
        replicas in 1usize..4,
        windows in crash_windows(),
        ops in proptest::collection::vec(outage_op(), 1..120),
    ) {
        let mut plan = FaultPlan::empty();
        for &(node, start, len) in &windows {
            let at = SimTime::from_millis(start);
            plan = plan
                .with_event(at, FaultKind::NodeCrash { node })
                .with_event(at + SimDuration::from_millis(len), FaultKind::NodeRestart { node });
        }
        let outages = OutageWindows::node_crashes(&plan);
        let base = ServeConfig {
            replicas,
            rate_per_s: 1e9,
            burst: 1e9,
            service_rate: 1e9,
            queue_capacity: usize::MAX,
            breaker_failures: u32::MAX,
            ..ServeConfig::default()
        };
        let mut server = Server::new(base.clone()).with_fault_plan(&plan);
        let mut model: std::collections::BTreeMap<String, Doc> = Default::default();
        let mut now = SimTime::ZERO;
        let mut version = 0i64;
        let mut next_node = base.shards;
        let mut added: Vec<u32> = Vec::new();

        for op in ops {
            // Each key's ring replicas, and whether the first live one is
            // the primary (`Some(0)`), a later replica, or none at all.
            let live_replica = |server: &Server, key: &str| {
                let n = replicas.min(server.shard_map().len());
                server
                    .shard_map()
                    .route_replicas(key.as_bytes(), n)
                    .iter()
                    .position(|&node| !outages.is_down(node, now))
            };
            match op {
                OutageOp::Put(k, c) => {
                    version += 1;
                    let doc = kind_doc(c as usize, version);
                    server.put(&format!("key-{k:02}"), doc.clone(), now).unwrap();
                    model.insert(format!("key-{k:02}"), doc);
                }
                OutageOp::Remove(k) => {
                    let key = format!("key-{k:02}");
                    prop_assert_eq!(server.remove_key(&key, now), model.remove(&key).is_some());
                }
                OutageOp::Get(k) => {
                    let key = format!("key-{k:02}");
                    let live = live_replica(&server, &key);
                    let served = server.get(&key, now).unwrap();
                    match served.outcome {
                        Outcome::Fresh(doc) => {
                            prop_assert!(live.is_some() || !model.contains_key(&key));
                            prop_assert_eq!(doc.as_deref(), model.get(&key), "get({}) diverged", key);
                        }
                        Outcome::Cached(doc) => {
                            prop_assert_eq!(doc.as_deref(), model.get(&key), "get({}) cached", key);
                        }
                        Outcome::Stale(_) | Outcome::Degraded(_) => {
                            prop_assert!(live.is_none() && model.contains_key(&key));
                        }
                        Outcome::Shed => prop_assert!(false, "admission is wide open"),
                    }
                }
                OutageOp::Query(c) => {
                    let kind = KINDS[c as usize];
                    let matching = |live_only: bool| -> Vec<(String, Doc)> {
                        model
                            .iter()
                            .filter(|(_, d)| d.path("kind").and_then(|x| x.as_str()) == Some(kind))
                            .filter(|(key, _)| !live_only || live_replica(&server, key).is_some())
                            .map(|(key, d)| (key.clone(), d.clone()))
                            .collect()
                    };
                    let want_live = matching(true);
                    let want_all = matching(false);
                    let mut want_reroutes = 0u64;
                    let mut unreachable = 0usize;
                    for key in model.keys() {
                        match live_replica(&server, key) {
                            Some(0) => {}
                            Some(_) => want_reroutes += 1,
                            None => unreachable += 1,
                        }
                    }
                    let before = server.stats();
                    let served = server
                        .query(&Filter::Eq("kind".into(), Doc::Str(kind.into())), now)
                        .unwrap();
                    let after = server.stats();
                    let reroutes = after.reroutes - before.reroutes;
                    let degraded = after.degraded - before.degraded;
                    match served.outcome {
                        Outcome::Cached(rows) => {
                            prop_assert_eq!(owned(&rows), want_all, "cached {}", kind);
                            prop_assert_eq!((reroutes, degraded), (0, 0));
                        }
                        Outcome::Fresh(rows) => {
                            prop_assert_eq!(unreachable, 0, "fresh answer with unreachable keys");
                            prop_assert_eq!(owned(&rows), want_live, "fresh {}", kind);
                            prop_assert_eq!((reroutes, degraded), (want_reroutes, 0));
                        }
                        Outcome::Degraded(rows) => {
                            prop_assert!(unreachable > 0, "degraded with every key reachable");
                            prop_assert_eq!(owned(&rows), want_live, "degraded {}", kind);
                            prop_assert_eq!((reroutes, degraded), (want_reroutes, 1));
                        }
                        Outcome::Stale(_) => {
                            prop_assert!(unreachable > 0, "stale with every key reachable");
                            prop_assert_eq!((reroutes, degraded), (want_reroutes, 1));
                        }
                        Outcome::Shed => prop_assert!(false, "admission is wide open"),
                    }
                }
                OutageOp::AddShard => {
                    server.add_shard(next_node);
                    added.push(next_node);
                    next_node += 1;
                }
                OutageOp::RemoveShard => {
                    if let Some(node) = added.pop() {
                        server.remove_shard(node);
                    }
                }
                OutageOp::Advance(ms) => {
                    now += SimDuration::from_millis(ms as u64);
                }
            }
        }
    }
}
