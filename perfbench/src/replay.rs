//! The traced replay of one Metropolis day.
//!
//! [`replay`] makes the same calls, in the same order, into the public
//! APIs of `scstream`, `scdfs`, `scserve`, `sctsdb` and
//! `scmetro::AutoscalePolicy` that `MetroSim::run_with_flight` makes, and
//! wraps each call in a span. It rebuilds the `MetroReport` and the
//! flight recording the same way, so comparing them with `MetroSim`'s
//! proves that the traced numbers describe the same program. Any change
//! to `crates/metro/src/sim.rs` must be mirrored here; the equality
//! check fails until it is.

use std::collections::BTreeMap;
use std::sync::Arc;

use scdfs::DfsCluster;
use scfault::{OutageWindows, RetryPolicy};
use scmetro::{
    apportion, AutoscalePolicy, MetroConfig, MetroReport, MetroSim, ScaleAction, WindowStats,
};
use scneural::exec::ExecCtx;
use scneural::layers::{Dense, Relu};
use scneural::net::Sequential;
use scnosql::document::{Doc, Filter};
use scpar::ScparConfig;
use scserve::{CacheConfig, InferSubmit, Outcome, ServeConfig, Server};
use scstream::{audit_delivery, Broker, Event, ResilientProducer, SendOutcome, Topic};
use sctelemetry::Telemetry;
use sctsdb::{
    increase, last_over_time, quantile_over_time, FlightRecorder, RecordingRule, RuleEngine,
    RuleExpr, Scraper, Series, SeriesId, Tsdb,
};
use serde_json::json;
use simclock::{SeededRng, SimDuration, SimTime};

use crate::trace::{Name, Tracer};

const KINDS: [&str; 4] = ["traffic", "air", "camera", "event"];
const BROKER_NODE: u32 = 0;
const SCALE_NODE_BASE: u32 = 1_000;

/// Work counted from outside the layers: cache outcomes, retries and
/// failures the day would otherwise discard.
#[derive(Debug, Default)]
pub struct Counts {
    /// `Server::query` answers served as `Outcome::Cached`.
    pub query_hits: u64,
    /// `Server::infer` submissions answered as `InferSubmit::Cached`.
    pub infer_hits: u64,
    /// Producer attempts beyond the first, summed over all sends.
    pub send_retries: u64,
    /// `DfsCluster::append` calls that returned an error.
    pub append_failed: u64,
    /// Document copies moved by shard add/remove.
    pub rebalance_moves: u64,
    /// Micro-batches flushed (`ServeStats::batches`).
    pub batches: u64,
    /// Distinct rows across flushed micro-batches.
    pub batched_rows: u64,
}

/// One replayed day.
#[derive(Debug)]
pub struct Replay {
    /// The report, built exactly as `MetroSim` builds it.
    pub report: MetroReport,
    /// The flight recording, built exactly as `MetroSim` builds it.
    pub flight: FlightRecorder,
    /// Every span of the day.
    pub tracer: Tracer,
    /// Outcome counts.
    pub counts: Counts,
}

fn model(dim: usize) -> Sequential {
    Sequential::new()
        .with(Dense::new(dim, 16, 1_901))
        .with(Relu::new())
        .with(Dense::new(16, 4, 1_902))
}

fn ctx_for_pool(pool: usize) -> ExecCtx {
    let par = if pool <= 1 {
        ScparConfig::serial()
    } else {
        ScparConfig::with_threads(pool)
    };
    ExecCtx::serial().with_par(par)
}

/// Replays the day `sim` would run for `cfg` (the config `sim` was built
/// from), with `recorder` attached as `MetroSim::with_recorder` attaches it.
pub fn replay(sim: &MetroSim, cfg: &MetroConfig, recorder: &Arc<Telemetry>) -> Replay {
    let telemetry = recorder.handle();
    let pop = sim.population();
    let plan = sim.topology();
    let faults = sim.fault_plan();
    let windows = pop.windows();
    let total_demand = pop.total().max(1);
    let ratio = cfg.sample_total as f64 / total_demand as f64;
    // Roughly five spans per request plus twenty per window.
    let mut tr = Tracer::new(cfg.sample_total as usize * 5 + windows * 20 + 1_024);
    let mut counts = Counts::default();
    tr.open(Name::Day, Some(0));

    let weights: Vec<f64> = (0..windows).map(|w| pop.demand(w) as f64).collect();
    let samples = apportion(cfg.sample_total, &weights);

    let capacity_rps = |shards: usize, pool: usize| {
        let pool_factor = 1.0 + 0.25 * pool.saturating_sub(cfg.autoscale.min_pool) as f64;
        plan.guidelines.per_shard_rps * shards as f64 * pool_factor
    };
    let mut policy = AutoscalePolicy::new(
        cfg.autoscale.clone(),
        plan.initial_shards,
        cfg.autoscale.min_pool,
        SCALE_NODE_BASE,
    );
    let mut shards = plan.initial_shards;
    let mut pool = cfg.autoscale.min_pool;
    let capacity_sample = |s: usize, p: usize| (capacity_rps(s, p) * ratio).max(1e-9);
    let nominal_rate = |s: usize, p: usize| 4.0 * capacity_sample(s, p);

    let mut server = Server::new(ServeConfig {
        shards: shards as u32,
        rate_per_s: nominal_rate(shards, pool),
        burst: 64.0,
        service_rate: capacity_sample(shards, pool),
        queue_capacity: 64,
        query_cache: CacheConfig {
            ttl: SimDuration::from_secs(300),
            ..CacheConfig::default()
        },
        ..ServeConfig::default()
    })
    .with_model(model(cfg.feature_dim))
    .with_ctx(ctx_for_pool(pool))
    .with_fault_plan(faults)
    .with_telemetry(telemetry.clone());

    let mut broker = Broker::new(
        Topic::new("metro/ingest", plan.partitions as u32),
        BROKER_NODE,
        faults,
    )
    .with_telemetry(telemetry);
    let mut producer = ResilientProducer::new(
        "metro",
        RetryPolicy::new(4, SimDuration::from_millis(50)).with_jitter(0.0),
        cfg.seed ^ 0x16E5_7001,
    );

    let mut dfs = DfsCluster::new(
        plan.dfs_nodes,
        plan.guidelines.dfs_replication,
        plan.guidelines.dfs_block_size,
        cfg.seed ^ 0xD5,
    )
    .expect("topology plan sizes a valid cluster");
    dfs.create("/metro/day.log", b"metropolis\n")
        .expect("fresh namespace");

    let mut rng = SeededRng::new(cfg.seed ^ 0x3E7_2070);
    let mut row_rng = rng.fork();
    let rows: Vec<Vec<f32>> = (0..cfg.row_pool.max(1))
        .map(|_| {
            (0..cfg.feature_dim.max(1))
                .map(|_| row_rng.next_f64() as f32)
                .collect()
        })
        .collect();
    let rank = |rng: &mut SeededRng, n: usize| -> usize {
        let u = rng.next_f64();
        ((n as f64 * u.powf(1.0 + cfg.skew)) as usize).min(n - 1)
    };
    let mut serial = 0i64;
    for r in 0..cfg.keyspace {
        let kind = KINDS[rng.next_bounded(KINDS.len() as u64) as usize];
        let doc = Doc::object([
            ("kind", Doc::Str(kind.into())),
            ("v", Doc::I64(serial)),
            ("reading", Doc::F64(rng.next_f64() * 100.0)),
        ]);
        serial += 1;
        let key = format!("k-{r:05}");
        tr.call(Name::ServePut, || server.put(&key, doc, SimTime::ZERO))
            .expect("generated docs are valid");
    }

    let mut fault_cursor = 0usize;
    let fault_events = faults.events();
    let mut dfs_clock = SimTime::ZERO;
    let mut sends = 0u64;
    let mut delivered_sends = 0u64;
    let mut pending: BTreeMap<u64, ()> = BTreeMap::new();
    let mut shards_added = 0u64;
    let mut shards_removed = 0u64;
    let mut pool_resizes = 0u64;
    let mut shed_actions = 0u64;

    let good_id = SeriesId::new("metro_good_total");
    let bad_id = SeriesId::new("metro_bad_total");
    let sampled_id = SeriesId::new("metro_sampled_total");
    let demand_id = SeriesId::new("metro_demand_total");
    let lat_id = SeriesId::new("metro_latency_ms");
    let shards_id = SeriesId::new("metro_shards");
    let pool_id = SeriesId::new("metro_pool");
    let util_id = SeriesId::new("metro_utilization");
    let burn_short_id = SeriesId::new("metro:burn_short");
    let burn_long_id = SeriesId::new("metro:burn_long");
    let burn_fired_id = SeriesId::new("metro:burn_fired");

    let mut db = Tsdb::with_capacity_hint(windows + 2);
    db.insert_series(Series::with_capacity(
        lat_id.clone(),
        cfg.sample_total as usize + 8,
    ));
    let (mut cum_good, mut cum_bad, mut cum_sampled, mut cum_demand) = (0u64, 0u64, 0u64, 0u64);
    // Every store write goes through this one traced entry point.
    let record = |tr: &mut Tracer, db: &mut Tsdb, id: &SeriesId, at: SimTime, v: f64| {
        tr.call(Name::TsdbRecord, || db.record(id, at, v))
            .expect("samples land in time order");
    };
    for id in [&good_id, &bad_id, &sampled_id, &demand_id] {
        record(&mut tr, &mut db, id, SimTime::ZERO, 0.0);
    }
    record(&mut tr, &mut db, &shards_id, SimTime::ZERO, shards as f64);
    record(&mut tr, &mut db, &pool_id, SimTime::ZERO, pool as f64);

    let rules = RuleEngine::new()
        .with_rule(RecordingRule::new(
            "metro:rps",
            RuleExpr::Rate(demand_id.clone()),
        ))
        .with_rule(RecordingRule::new(
            "metro:shed_fraction",
            RuleExpr::Ratio(
                Box::new(RuleExpr::Increase(bad_id.clone())),
                Box::new(RuleExpr::Increase(sampled_id.clone())),
            ),
        ))
        .with_rule(RecordingRule::new(
            "metro:p50_ms",
            RuleExpr::Quantile(lat_id.clone(), 0.50),
        ))
        .with_rule(RecordingRule::new(
            "metro:p99_ms",
            RuleExpr::Quantile(lat_id.clone(), 0.99),
        ));

    let mut scraper = Scraper::new(
        recorder.registry().clone(),
        SimDuration::from_secs_f64(pop.window_secs(0)),
    )
    .with_sample_capacity(windows + 2)
    .with_label("job", "metro");

    let mut request_index = 0u64;
    for (w, &sampled) in samples.iter().enumerate() {
        tr.open(Name::Window, Some(w as u64));
        let t0 = pop.window_start(w);
        let t1 = pop.window_end(w);
        let secs = pop.window_secs(w);

        tr.call(Name::DfsArchive, || {
            while fault_cursor < fault_events.len() && fault_events[fault_cursor].at < t1 {
                dfs.apply_fault(&fault_events[fault_cursor]);
                fault_cursor += 1;
            }
            dfs_clock = dfs.tick(t1.saturating_since(dfs_clock));
            dfs.re_replicate();
            let digest = vec![(w % 251) as u8; (sampled as usize).max(1)];
            if dfs.append("/metro/day.log", &digest).is_err() {
                counts.append_failed += 1;
            }
        });

        for i in 0..sampled {
            tr.open(Name::Request, Some(request_index));
            request_index += 1;
            let at = t0
                + SimDuration::from_micros(
                    t1.saturating_since(t0).as_micros() * i / sampled.max(1),
                );
            let key = format!("k-{:05}", rank(&mut rng, cfg.keyspace.max(1)));
            sends += 1;
            cum_sampled += 1;
            let event = Event::with_key(key.clone(), vec![w as u8]);
            match tr.call(Name::StreamSend, || producer.send(&mut broker, event, at)) {
                SendOutcome::Delivered { attempts, .. } => {
                    delivered_sends += 1;
                    counts.send_retries += u64::from(attempts - 1);
                }
                SendOutcome::GaveUp { attempts } => counts.send_retries += u64::from(attempts - 1),
            }

            while let Some(deadline) = server.next_deadline() {
                if deadline > at {
                    break;
                }
                for c in tr.call(Name::ServeFlush, || server.tick(deadline)) {
                    pending.remove(&c.req.0);
                    cum_good += 1;
                    record(
                        &mut tr,
                        &mut db,
                        &lat_id,
                        deadline,
                        c.latency.as_secs_f64() * 1e3,
                    );
                }
            }
            let roll = rng.next_f64();
            if roll < cfg.write_fraction {
                let kind = KINDS[rng.next_bounded(KINDS.len() as u64) as usize];
                let doc = Doc::object([
                    ("kind", Doc::Str(kind.into())),
                    ("v", Doc::I64(serial)),
                    ("reading", Doc::F64(rng.next_f64() * 100.0)),
                ]);
                serial += 1;
                tr.call(Name::ServePut, || server.put(&key, doc, at))
                    .expect("generated docs are valid");
                cum_good += 1;
                record(
                    &mut tr,
                    &mut db,
                    &lat_id,
                    at,
                    scserve::CACHE_HIT_COST.as_secs_f64() * 1e3,
                );
            } else if roll < cfg.write_fraction + cfg.infer_fraction {
                let row = rows[rank(&mut rng, rows.len())].clone();
                match tr.call(Name::ServeInfer, || server.infer(row, at)) {
                    InferSubmit::Cached { latency, .. } => {
                        counts.infer_hits += 1;
                        cum_good += 1;
                        record(&mut tr, &mut db, &lat_id, at, latency.as_secs_f64() * 1e3);
                    }
                    InferSubmit::Stale { latency, .. } => {
                        cum_good += 1;
                        record(&mut tr, &mut db, &lat_id, at, latency.as_secs_f64() * 1e3);
                    }
                    InferSubmit::Pending(req) => {
                        pending.insert(req.0, ());
                    }
                    InferSubmit::Shed => cum_bad += 1,
                }
            } else if rng.next_f64() < 0.5 {
                let served = tr
                    .call(Name::ServeGet, || server.get(&key, at))
                    .expect("gets cannot fail");
                if served.outcome.is_shed() {
                    cum_bad += 1;
                } else {
                    cum_good += 1;
                    record(
                        &mut tr,
                        &mut db,
                        &lat_id,
                        at,
                        served.latency.as_secs_f64() * 1e3,
                    );
                }
            } else {
                let kind = KINDS[rank(&mut rng, KINDS.len())];
                let filter = Filter::Eq("kind".into(), Doc::Str(kind.into()));
                let served = tr
                    .call(Name::ServeQuery, || server.query(&filter, at))
                    .expect("filters are valid");
                if served.outcome.is_shed() {
                    cum_bad += 1;
                } else {
                    if matches!(served.outcome, Outcome::Cached(_)) {
                        counts.query_hits += 1;
                    }
                    cum_good += 1;
                    record(
                        &mut tr,
                        &mut db,
                        &lat_id,
                        at,
                        served.latency.as_secs_f64() * 1e3,
                    );
                }
            }
            tr.close();
        }
        while let Some(deadline) = server.next_deadline() {
            if deadline > t1 {
                break;
            }
            for c in tr.call(Name::ServeFlush, || server.tick(deadline)) {
                pending.remove(&c.req.0);
                cum_good += 1;
                record(
                    &mut tr,
                    &mut db,
                    &lat_id,
                    deadline,
                    c.latency.as_secs_f64() * 1e3,
                );
            }
        }

        cum_demand += pop.demand(w);
        record(&mut tr, &mut db, &good_id, t1, cum_good as f64);
        record(&mut tr, &mut db, &bad_id, t1, cum_bad as f64);
        record(&mut tr, &mut db, &sampled_id, t1, cum_sampled as f64);
        record(&mut tr, &mut db, &demand_id, t1, cum_demand as f64);

        let (w_good, w_bad) = tr.call(Name::TsdbRead, || {
            (
                increase(&db.samples(&good_id), t0.as_micros(), t1.as_micros()) as u64,
                increase(&db.samples(&bad_id), t0.as_micros(), t1.as_micros()) as u64,
            )
        });
        let utilization = (pop.demand(w) as f64 / secs) / capacity_rps(shards, pool);
        let actions = tr.call(Name::MetroAutoscale, || {
            policy.observe(w as u64, t1, w_good as usize, w_bad as usize, utilization)
        });
        for action in actions {
            match action {
                ScaleAction::AddShard { node } => {
                    counts.rebalance_moves +=
                        tr.call(Name::ServeRebalance, || server.add_shard(node)) as u64;
                    shards += 1;
                    shards_added += 1;
                }
                ScaleAction::RemoveShard { node } => {
                    counts.rebalance_moves +=
                        tr.call(Name::ServeRebalance, || server.remove_shard(node)) as u64;
                    shards -= 1;
                    shards_removed += 1;
                }
                ScaleAction::GrowPool { workers } | ScaleAction::ShrinkPool { workers } => {
                    pool = workers;
                    server.set_ctx(ctx_for_pool(pool));
                    pool_resizes += 1;
                }
                ScaleAction::Shed { keep_millis } => {
                    let keep = keep_millis as f64 / 1_000.0;
                    server.set_rate_limit(keep * capacity_sample(shards, pool), 8.0, t1);
                    shed_actions += 1;
                }
                ScaleAction::Restore => {
                    server.set_rate_limit(nominal_rate(shards, pool), 64.0, t1);
                    shed_actions += 1;
                }
            }
        }
        server.set_service_rate(capacity_sample(shards, pool), t1);

        record(&mut tr, &mut db, &util_id, t1, utilization);
        record(&mut tr, &mut db, &shards_id, t1, shards as f64);
        record(&mut tr, &mut db, &pool_id, t1, pool as f64);
        let sig = *policy
            .signals()
            .last()
            .expect("observe emits one signal per window");
        record(&mut tr, &mut db, &burn_short_id, t1, sig.burn_short);
        record(&mut tr, &mut db, &burn_long_id, t1, sig.burn_long);
        record(
            &mut tr,
            &mut db,
            &burn_fired_id,
            t1,
            if sig.fired { 1.0 } else { 0.0 },
        );

        tr.call(Name::TsdbRules, || rules.eval_window(&mut db, t0, t1));
        tr.call(Name::TsdbScrape, || {
            scraper.sync();
            scraper.scrape_at(t1);
        });
        tr.close();
    }
    let day_end = pop.window_end(windows - 1);
    let drain_at = SimTime::from_micros(day_end.as_micros() + 1);
    for c in tr.call(Name::ServeFlush, || server.drain(day_end)) {
        pending.remove(&c.req.0);
        cum_good += 1;
        record(
            &mut tr,
            &mut db,
            &lat_id,
            drain_at,
            c.latency.as_secs_f64() * 1e3,
        );
    }
    record(&mut tr, &mut db, &good_id, drain_at, cum_good as f64);
    assert!(pending.is_empty(), "drain settles every ticket");

    let end_us = drain_at.as_micros();
    let (window_stats, answered, unanswered, p50_ms, p99_ms) = tr.call(Name::TsdbRead, || {
        let good_samples = db.samples(&good_id);
        let bad_samples = db.samples(&bad_id);
        let sampled_samples = db.samples(&sampled_id);
        let demand_samples = db.samples(&demand_id);
        let util_samples = db.samples(&util_id);
        let shards_samples = db.samples(&shards_id);
        let pool_samples = db.samples(&pool_id);
        let lat_samples = db.samples(&lat_id);
        let window_stats: Vec<WindowStats> = (0..windows)
            .map(|w| {
                let f = pop.window_start(w).as_micros();
                let t = pop.window_end(w).as_micros();
                WindowStats {
                    window: w as u64,
                    demand: increase(&demand_samples, f, t) as u64,
                    sampled: increase(&sampled_samples, f, t) as u64,
                    good: increase(&good_samples, f, t) as u64,
                    bad: increase(&bad_samples, f, t) as u64,
                    utilization: last_over_time(&util_samples, f, t).unwrap_or(0.0),
                    shards: last_over_time(&shards_samples, f, t).unwrap_or(0.0) as usize,
                    pool: last_over_time(&pool_samples, f, t).unwrap_or(0.0) as usize,
                }
            })
            .collect();
        (
            window_stats,
            increase(&good_samples, 0, end_us) as u64,
            increase(&bad_samples, 0, end_us) as u64,
            quantile_over_time(&lat_samples, 0, end_us, 0.50).unwrap_or(0.0),
            quantile_over_time(&lat_samples, 0, end_us, 0.99).unwrap_or(0.0),
        )
    });

    let outages = OutageWindows::node_crashes(faults);
    let last_outage_end = (0..plan.initial_shards as u32)
        .flat_map(|n| outages.windows_for(n).iter().map(|&(_, e)| e))
        .max();
    let recovery_s = last_outage_end
        .map(|end| {
            window_stats
                .iter()
                .find(|s| pop.window_end(s.window as usize) > end && s.bad == 0)
                .map(|s| {
                    pop.window_end(s.window as usize)
                        .saturating_since(end)
                        .as_secs_f64()
                })
                .unwrap_or(f64::INFINITY)
        })
        .unwrap_or(0.0);

    let audit = tr.call(Name::StreamAudit, || {
        audit_delivery(broker.topic(), &[("metro", sends)])
    });
    assert!(audit.delivered >= delivered_sends as usize);

    tr.call(Name::TsdbScrape, || scraper.export_into(&mut db));
    let flight = FlightRecorder::new(db)
        .with_meta("bench", json!("e19_metropolis"))
        .with_meta("seed", json!(cfg.seed))
        .with_meta("users", json!(cfg.population.users))
        .with_meta("windows", json!(windows as u64))
        .with_meta("sample_total", json!(cfg.sample_total));

    let stats = server.stats();
    counts.batches = stats.batches;
    counts.batched_rows = stats.batched_rows;
    let report = MetroReport {
        users: cfg.population.users,
        daily_queries: pop.base_total(),
        total_demand: pop.total(),
        sampled_requests: cfg.sample_total,
        peak_rps: pop.peak_rps(),
        mean_rps: pop.mean_rps(),
        p50_ms,
        p99_ms,
        answered,
        unanswered,
        shed_fraction: unanswered as f64 / cfg.sample_total.max(1) as f64,
        shards_added,
        shards_removed,
        pool_resizes,
        shed_actions,
        final_shards: shards,
        final_pool: pool,
        recovery_s,
        delivered: audit.delivered,
        duplicates: audit.duplicates,
        lost: audit.lost,
        dfs: dfs.stats(),
        decisions: policy.decisions().to_vec(),
        windows: window_stats,
    };
    tr.close();
    Replay {
        report,
        flight,
        tracer: tr,
        counts,
    }
}
