//! City-day benchmark driver: one Metropolis day per process.
//!
//! ```text
//! perfbench day    --workload <name> --seed <n>
//! perfbench replay --workload <name> --seed <n> --spans <file>
//! perfbench calib
//! ```
//!
//! `day` sets the day up several times (workload config with its fault
//! schedule, `MetroSim::new`, a fresh recorder; each timed), then runs
//! the last set-up with `MetroSim::with_recorder(..).run_with_flight()` untraced.
//! `replay` runs the same day through the traced replay in
//! [`replay`] and writes its spans to `<file>`. Both print one JSON line
//! holding the day's outcome (report counts, decision log, flight
//! fingerprint and a digest of the whole `MetroReport`) and their
//! measurements; `perfbench/run.py` compares the two. `calib` times the
//! fixed reference kernel in [`calib`] that `run.py` uses to take the
//! host's changing speed out of the day times.

mod calib;
mod replay;
mod trace;
mod workload;

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use scmetro::{MetroConfig, MetroReport, MetroSim};
use scserve::hash_bytes;
use sctelemetry::Telemetry;
use sctsdb::FlightRecorder;
use serde_json::{json, Map, Value};

use crate::replay::{replay, Replay};
use crate::trace::Name;
use crate::workload::Workload;

/// Set-ups per `day` process; the median is reported. One set-up takes
/// microseconds, so a single sample would be mostly timer and cache noise.
const SETUPS: usize = 101;

#[derive(Debug)]
enum Mode {
    Day,
    Replay { spans: PathBuf },
}

#[derive(Debug)]
struct Args {
    mode: Mode,
    workload: Workload,
    seed: u64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mode, rest) = args
        .split_first()
        .ok_or("missing mode (day | replay | calib)")?;
    let (mut workload, mut seed, mut spans) = (None, None, None);
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let mode = match (mode.as_str(), spans) {
        ("day", None) => Mode::Day,
        ("replay", Some(spans)) => Mode::Replay { spans },
        ("replay", None) => return Err("replay needs --spans".into()),
        _ => return Err(format!("unknown mode {mode:?} or misplaced --spans")),
    };
    Ok(Args {
        mode,
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
    })
}

/// The outcome fields both modes print, compared by `run.py`.
fn outcome(r: &MetroReport, flight: &FlightRecorder) -> Map<String, Value> {
    let mut m = Map::new();
    for (k, v) in [
        ("executed", json!(r.sampled_requests)),
        ("answered", json!(r.answered)),
        ("unanswered", json!(r.unanswered)),
        // Every executed request is sent to ingest exactly once.
        ("sends", json!(r.sampled_requests)),
        ("delivered", json!(r.delivered as u64)),
        ("duplicates", json!(r.duplicates as u64)),
        ("lost", json!(r.lost as u64)),
        (
            "decision_log",
            json!(r.decision_log().lines().collect::<Vec<_>>()),
        ),
        ("flight_fingerprint", json!(flight.fingerprint())),
        (
            "report_digest",
            json!(format!("{:016x}", hash_bytes(format!("{r:?}").as_bytes()))),
        ),
    ] {
        m.insert(k.to_string(), v);
    }
    m
}

/// The day's configuration, recorded beside every result.
fn describe(cfg: &MetroConfig) -> Value {
    let faults = cfg.fault_plan.as_ref().map_or_else(
        || "generated from seed".to_string(),
        |p| format!("{:016x}", p.fingerprint()),
    );
    json!({
        "seed": cfg.seed,
        "users": cfg.population.users,
        "windows": cfg.population.windows as u64,
        "sample_total": cfg.sample_total,
        "keyspace": cfg.keyspace as u64,
        "skew": cfg.skew,
        "write_fraction": cfg.write_fraction,
        "infer_fraction": cfg.infer_fraction,
        "feature_dim": cfg.feature_dim as u64,
        "row_pool": cfg.row_pool as u64,
        "fault_plan": faults,
    })
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn day(w: Workload, seed: u64) -> Result<Value, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut armed = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let cfg = w.config(seed);
        let recorder = Telemetry::shared();
        let sim = MetroSim::new(cfg).with_recorder(&recorder);
        setup_s.push(start.elapsed().as_secs_f64());
        armed = Some((sim, recorder));
    }
    let (sim, _recorder) = armed.expect("SETUPS > 0");
    let config = describe(&w.config(seed));
    let start = Instant::now();
    let (report, flight) = sim.run_with_flight();
    let day_s = start.elapsed().as_secs_f64();
    let mut m = outcome(&report, &flight);
    m.insert("day_s".into(), json!(day_s));
    m.insert("setup_s".into(), json!(median(setup_s)));
    m.insert("peak_rss_mb".into(), json!(peak_rss_mb()?));
    m.insert("config".into(), config);
    Ok(Value::Object(m))
}

/// Nearest-rank percentile of `sorted` (ns), in µs.
fn percentile_us(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e3
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics of one replay, `name -> (value, unit)`.
fn per_layer(rp: &Replay) -> Vec<(String, f64, &'static str)> {
    let tr = &rp.tracer;
    let c = &rp.counts;
    let self_times = tr.self_times();
    let calls = |n: Name| self_times[n as usize].0;
    let mut out = Vec::new();
    let mut loop_ns = 0u64;
    for n in Name::ALL {
        let (count, ns) = self_times[n as usize];
        if n.is_loop() {
            loop_ns += ns;
        } else {
            out.push((format!("{}.calls", n.as_str()), count as f64, "count"));
            out.push((format!("{}.self_ms", n.as_str()), ns as f64 / 1e6, "ms"));
        }
    }
    for n in [Name::ServeQuery, Name::ServeGet] {
        let mut d = tr.durations(n);
        d.sort_unstable();
        out.push((
            format!("{}.us_p50", n.as_str()),
            percentile_us(&d, 0.50),
            "us",
        ));
        out.push((
            format!("{}.us_p99", n.as_str()),
            percentile_us(&d, 0.99),
            "us",
        ));
    }
    let rules = tr.durations(Name::TsdbRules);
    let quarter = (rules.len() / 4).max(1).min(rules.len());
    let mean_ms = |s: &[u64]| ratio(s.iter().sum::<u64>(), s.len() as u64) / 1e6;
    out.extend([
        (
            "scserve.query.hit_ratio".into(),
            ratio(c.query_hits, calls(Name::ServeQuery)),
            "ratio",
        ),
        (
            "scserve.infer.hit_ratio".into(),
            ratio(c.infer_hits, calls(Name::ServeInfer)),
            "ratio",
        ),
        (
            "sctsdb.rules.ms_per_window_q1".into(),
            mean_ms(&rules[..quarter]),
            "ms",
        ),
        (
            "sctsdb.rules.ms_per_window_q4".into(),
            mean_ms(&rules[rules.len() - quarter..]),
            "ms",
        ),
        ("scserve.flush.rows".into(), c.batched_rows as f64, "count"),
        (
            "scserve.flush.mean_batch_rows".into(),
            ratio(c.batched_rows, c.batches),
            "rows",
        ),
        (
            "scstream.send.retries".into(),
            c.send_retries as f64,
            "count",
        ),
        (
            "scstream.send.duplicates".into(),
            rp.report.duplicates as f64,
            "count",
        ),
        ("scstream.send.lost".into(), rp.report.lost as f64, "count"),
        (
            "scdfs.archive.append_failed".into(),
            c.append_failed as f64,
            "count",
        ),
        (
            "sctsdb.flight.compressed_bytes".into(),
            rp.flight.tsdb.compressed_bytes() as f64,
            "bytes",
        ),
        (
            "scmetro.autoscale.decisions".into(),
            rp.report.decisions.len() as f64,
            "count",
        ),
        (
            "scserve.rebalance.moves".into(),
            c.rebalance_moves as f64,
            "count",
        ),
        (
            "scmetro.day.shed_frac".into(),
            ratio(rp.report.unanswered, rp.report.sampled_requests),
            "ratio",
        ),
        (
            "scstream.send.lost_frac".into(),
            ratio(rp.report.lost as u64, rp.report.sampled_requests),
            "ratio",
        ),
        ("scmetro.loop.self_ms".into(), loop_ns as f64 / 1e6, "ms"),
        ("trace.day_ms".into(), tr.root_ns() as f64 / 1e6, "ms"),
    ]);
    out
}

fn replay_day(w: Workload, seed: u64, spans: &Path) -> Result<Value, String> {
    let cfg = w.config(seed);
    let recorder = Telemetry::shared();
    let sim = MetroSim::new(cfg.clone());
    let rp = replay(&sim, &cfg, &recorder);
    let total_self: u64 = rp.tracer.self_times().iter().map(|&(_, ns)| ns).sum();
    if total_self != rp.tracer.root_ns() {
        return Err("span self times do not add up to the traced day".into());
    }
    let file = File::create(spans).map_err(|e| format!("creating {}: {e}", spans.display()))?;
    let mut out = BufWriter::new(file);
    rp.tracer
        .write_to(&mut out)
        .and_then(|()| out.flush())
        .map_err(|e| format!("writing {}: {e}", spans.display()))?;

    let mut m = outcome(&rp.report, &rp.flight);
    m.insert("day_s".into(), json!(rp.tracer.root_ns() as f64 / 1e9));
    let mut layers = Map::new();
    for (name, value, unit) in per_layer(&rp) {
        layers.insert(name, json!({ "value": value, "unit": unit }));
    }
    m.insert("per_layer".into(), Value::Object(layers));
    Ok(Value::Object(m))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [mode] if mode == "calib" => Ok(json!({ "calib_s": calib::calibrate() })),
        _ => parse_args(&args).and_then(|a| match &a.mode {
            Mode::Day => day(a.workload, a.seed),
            Mode::Replay { spans } => replay_day(a.workload, a.seed, spans),
        }),
    };
    match result {
        Ok(v) => {
            println!("{}", serde_json::to_string(&v).expect("values are finite"));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The replay reproduces `MetroSim`'s report and flight recording on
    /// a small day of every workload mix.
    #[test]
    fn replay_equals_metrosim_at_small_scale() {
        for w in [
            Workload::CityDay,
            Workload::WriteInfer,
            Workload::FineWindows,
            Workload::E19Quick,
        ] {
            for seed in [42, 7] {
                let mut cfg = w.config(seed);
                cfg.sample_total = 1_500;
                let recorder = Telemetry::shared();
                let (report, flight) = MetroSim::new(cfg.clone())
                    .with_recorder(&recorder)
                    .run_with_flight();
                let rp = replay(&MetroSim::new(cfg.clone()), &cfg, &Telemetry::shared());
                assert_eq!(rp.report, report, "{w:?} seed {seed}");
                assert_eq!(rp.flight.fingerprint(), flight.fingerprint(), "{w:?}");
                assert_eq!(rp.flight.render(), flight.render(), "{w:?}");
                let total: u64 = rp.tracer.self_times().iter().map(|&(_, ns)| ns).sum();
                assert_eq!(total, rp.tracer.root_ns());
            }
        }
    }

    #[test]
    fn metric_names_and_units_are_valid() {
        let mut cfg = Workload::CityDay.config(42);
        cfg.sample_total = 500;
        cfg.population.windows = 8;
        let rp = replay(&MetroSim::new(cfg.clone()), &cfg, &Telemetry::shared());
        let metrics = per_layer(&rp);
        let mut seen = std::collections::BTreeSet::new();
        for (name, value, unit) in &metrics {
            let first = name.chars().next().unwrap();
            assert!(first.is_ascii_alphanumeric(), "{name}");
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
            assert!(value.is_finite(), "{name}");
            assert!(seen.insert(name.clone()), "{name} twice");
        }
    }

    #[test]
    fn args_are_checked() {
        let a = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&a("day --workload city-day --seed 3")).is_ok());
        assert!(parse_args(&a("replay --workload city-day --seed 3")).is_err());
        assert!(parse_args(&a("day --workload town --seed 3")).is_err());
        assert!(parse_args(&a("day --workload city-day --seed x")).is_err());
        assert!(parse_args(&a("day --workload city-day")).is_err());
        assert!(parse_args(&a("calib --seed 3")).is_err());
    }
}
