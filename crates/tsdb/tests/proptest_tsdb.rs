//! Property tests for sctsdb: compression must be bit-exact, the query
//! layer must agree with naive recomputation from raw samples on aligned
//! windows, and a checkpointed range read must give every query — and
//! every recording rule — the same bits as a full read.

use proptest::prelude::*;
use sctsdb::{
    increase, quantile_over_time, range_agg, rate, value_at, GorillaEncoder, RangeAgg,
    RecordingRule, RuleEngine, RuleExpr, SeriesId, Tsdb,
};
use simclock::SimTime;

const AGGS: [RangeAgg; 6] = [
    RangeAgg::Min,
    RangeAgg::Max,
    RangeAgg::Sum,
    RangeAgg::Count,
    RangeAgg::Avg,
    RangeAgg::Last,
];

/// Strategy: sorted sample streams with irregular cadence and values
/// spanning sign flips, zeros, and repeats — the XOR encoder's worst
/// terrain.
fn stream() -> impl Strategy<Value = Vec<(u64, f64)>> {
    proptest::collection::vec((0u64..5_000_000u64, -1e9f64..1e9), 1..200).prop_map(|mut raw| {
        let mut t = 0u64;
        for (dt, _) in raw.iter_mut() {
            t += *dt;
            *dt = t;
        }
        raw
    })
}

/// Naive reference: values in `(from, to]` with the epoch included when
/// `from == 0` (the query layer's documented range convention).
fn values_in(samples: &[(u64, f64)], from: u64, to: u64) -> Vec<f64> {
    samples
        .iter()
        .filter(|&&(t, _)| (t > from || (from == 0 && t == 0)) && t <= to)
        .map(|&(_, v)| v)
        .collect()
}

/// Strategy: series that start with a run of epoch samples (sometimes
/// longer than a checkpoint interval) and hold runs of equal timestamps,
/// a climbing counter with resets, NaN payloads and both zeros — long
/// enough to span several checkpoints (one per 64 samples).
fn tricky_series() -> impl Strategy<Value = Vec<(u64, f64)>> {
    (
        proptest::collection::vec((0u8..8, 1u64..3_000, 0u8..6, -1e6f64..1e6), 65..400),
        1usize..160,
    )
        .prop_map(|(raw, epoch_run)| {
            let (mut t, mut counter) = (0u64, 0.0f64);
            raw.into_iter()
                .enumerate()
                .map(|(i, (gap, dt, kind, x))| {
                    if i >= epoch_run {
                        t += match gap {
                            0..=2 => 0,
                            3 => 1,
                            _ => dt,
                        };
                    }
                    let v = match kind {
                        0 => {
                            counter += x.abs();
                            counter
                        }
                        1 => {
                            counter = x.abs() * 1e-3;
                            counter
                        }
                        2 => f64::from_bits(0x7ff8_0000_0000_0000 | (x.to_bits() & 0xffff)),
                        3 => 0.0,
                        4 => -0.0,
                        _ => x,
                    };
                    (t, v)
                })
                .collect()
        })
}

fn bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

/// The reference reading of [`RuleExpr`] over full decodes.
fn reference_eval(expr: &RuleExpr, db: &Tsdb, from: u64, to: u64) -> Option<f64> {
    match expr {
        RuleExpr::Rate(id) => Some(rate(&db.samples(id), from, to)),
        RuleExpr::Increase(id) => Some(increase(&db.samples(id), from, to)),
        RuleExpr::Agg(id, agg) => range_agg(&db.samples(id), from, to, *agg),
        RuleExpr::Quantile(id, q) => quantile_over_time(&db.samples(id), from, to, *q),
        RuleExpr::Ratio(num, den) => {
            let n = reference_eval(num, db, from, to).unwrap_or(0.0);
            let d = reference_eval(den, db, from, to).unwrap_or(0.0);
            Some(if d == 0.0 { 0.0 } else { n / d })
        }
    }
}

/// Window-by-window recording rules over a store of more than 10 000
/// samples fingerprint equal to the same rules folded over full reads.
#[test]
fn rule_engine_over_range_reads_matches_full_reads() {
    let counter = SeriesId::new("req_total");
    let bad = SeriesId::new("bad_total");
    let gauge = SeriesId::new("lat_ms").with_label("tier", "edge");
    let mut db = Tsdb::new();
    let (mut cum, mut cum_bad, mut x) = (0.0, 0.0, 0x2545_f491_4f6c_dd1du64);
    for i in 0..4_000u64 {
        // xorshift: a fixed pseudo-random stream, no seed to choose.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let at = SimTime::from_micros(i / 3 * 250_000);
        cum = if x % 97 == 0 {
            0.0
        } else {
            cum + (x % 5) as f64
        };
        cum_bad += (x % 2) as f64;
        let lat = match x % 11 {
            0 => f64::from_bits(0x7ff8_0000_0000_0000 | (x & 0xff)),
            1 => -0.0,
            _ => (x % 10_000) as f64 * 0.01,
        };
        db.record(&counter, at, cum).unwrap();
        db.record(&bad, at, cum_bad).unwrap();
        db.record(&gauge, at, lat).unwrap();
    }
    assert!(db.total_samples() > 10_000);

    let mut engine = RuleEngine::new()
        .with_rule(RecordingRule::new(
            "r:rate",
            RuleExpr::Rate(counter.clone()),
        ))
        .with_rule(RecordingRule::new(
            "r:inc",
            RuleExpr::Increase(counter.clone()),
        ))
        .with_rule(RecordingRule::new(
            "r:p99",
            RuleExpr::Quantile(gauge.clone(), 0.99),
        ))
        .with_rule(RecordingRule::new(
            "r:ratio",
            RuleExpr::Ratio(
                Box::new(RuleExpr::Increase(bad.clone())),
                Box::new(RuleExpr::Increase(counter.clone())),
            ),
        ));
    for (i, agg) in AGGS.into_iter().enumerate() {
        engine = engine.with_rule(RecordingRule::new(
            &format!("r:agg{i}"),
            RuleExpr::Agg(gauge.clone(), agg),
        ));
    }

    let mut reference = db.clone();
    let window = 7_000_000u64;
    for w in 0..48u64 {
        let (from, to) = (w * window, (w + 1) * window);
        engine.eval_window(
            &mut db,
            SimTime::from_micros(from),
            SimTime::from_micros(to),
        );
        let pending: Vec<(SeriesId, f64)> = engine
            .rules()
            .iter()
            .filter_map(|r| {
                Some((
                    r.output.clone(),
                    reference_eval(&r.expr, &reference, from, to)?,
                ))
            })
            .collect();
        for (id, v) in pending {
            reference.record(&id, SimTime::from_micros(to), v).unwrap();
        }
    }
    assert_eq!(db.fingerprint(), reference.fingerprint());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Compressed round-trip is bit-exact: every timestamp equal, every
    /// value equal through `f64::to_bits`.
    #[test]
    fn gorilla_round_trip_is_bit_exact(samples in stream()) {
        let mut enc = GorillaEncoder::new();
        for &(t, v) in &samples {
            enc.push(t, v).expect("sorted by construction");
        }
        let got = enc.decode_all();
        prop_assert_eq!(got.len(), samples.len());
        for (g, s) in got.iter().zip(&samples) {
            prop_assert_eq!(g.0, s.0);
            prop_assert_eq!(g.1.to_bits(), s.1.to_bits());
        }
    }

    /// Special float values survive compression byte-for-byte, NaN
    /// payloads included.
    #[test]
    fn gorilla_round_trips_special_values(seed in 0u64..1_000) {
        let specials = [
            0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::MAX, f64::MIN_POSITIVE,
            f64::from_bits(0x7ff8_0000_0000_0000 | seed),
        ];
        let mut enc = GorillaEncoder::new();
        for (i, &v) in specials.iter().enumerate() {
            enc.push(seed + i as u64 * 17, v).unwrap();
        }
        for (g, &want) in enc.decode_all().iter().zip(&specials) {
            prop_assert_eq!(g.1.to_bits(), want.to_bits());
        }
    }

    /// `quantile_over_time` and the range aggregations agree with naive
    /// recomputation over the same aligned windows.
    #[test]
    fn range_queries_match_naive_recomputation(
        samples in stream(),
        width_s in 1u64..30,
        q in 0.01f64..1.0,
    ) {
        let width = width_s * 1_000_000;
        let last_t = samples.last().unwrap().0;
        for w in 0..(last_t / width + 1) {
            let (from, to) = (w * width, (w + 1) * width);
            let want = values_in(&samples, from, to);
            let quant = quantile_over_time(&samples, from, to, q);
            if want.is_empty() {
                prop_assert_eq!(quant, None);
                prop_assert_eq!(range_agg(&samples, from, to, RangeAgg::Sum), None);
                continue;
            }
            let mut sorted = want.clone();
            sorted.sort_by(f64::total_cmp);
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            prop_assert_eq!(quant, Some(sorted[rank - 1]));
            let mut naive_sum = 0.0;
            for v in &want {
                naive_sum += v;
            }
            prop_assert_eq!(
                range_agg(&samples, from, to, RangeAgg::Sum).unwrap().to_bits(),
                naive_sum.to_bits()
            );
            prop_assert_eq!(
                range_agg(&samples, from, to, RangeAgg::Avg).unwrap().to_bits(),
                (naive_sum / want.len() as f64).to_bits()
            );
            prop_assert_eq!(range_agg(&samples, from, to, RangeAgg::Count), Some(want.len() as f64));
            prop_assert_eq!(range_agg(&samples, from, to, RangeAgg::Last), want.last().copied());
        }
    }

    /// A range read gives every query the same bits as a full read, with
    /// `from` on, just before and just after each checkpoint sample.
    #[test]
    fn range_reads_equal_full_reads(
        samples in tricky_series(),
        width in 0u64..20_000,
        q in 0.01f64..1.0,
    ) {
        let id = SeriesId::new("s");
        let mut db = Tsdb::new();
        for &(t, v) in &samples {
            db.record(&id, SimTime::from_micros(t), v).unwrap();
        }
        // Ground truth is the input itself, so a decoder fault shared by
        // full and range reads cannot hide.
        let all = &samples;
        let full = db.samples(&id);
        prop_assert_eq!(full.len(), all.len());
        for (g, w) in full.iter().zip(all) {
            prop_assert_eq!((g.0, g.1.to_bits()), (w.0, w.1.to_bits()));
        }
        for k in (0..samples.len()).step_by(64) {
            let t_cp = samples[k].0;
            for from in [t_cp.saturating_sub(1), t_cp, t_cp + 1] {
                let to = from + width;
                let range = db.samples_range(&id, from, to);
                // Exactly the baseline plus the range's samples, in order.
                let baseline = all.iter().rposition(|&(t, _)| t <= from);
                let want: Vec<(u64, f64)> = all
                    .iter()
                    .enumerate()
                    .filter(|&(i, &(t, _))| {
                        Some(i) == baseline || ((t > from || (from == 0 && t == 0)) && t <= to)
                    })
                    .map(|(_, &s)| s)
                    .collect();
                prop_assert_eq!(range.len(), want.len());
                for (g, w) in range.iter().zip(&want) {
                    prop_assert_eq!((g.0, g.1.to_bits()), (w.0, w.1.to_bits()));
                }
                prop_assert_eq!(bits(value_at(&range, from)), bits(value_at(all, from)));
                prop_assert_eq!(
                    increase(&range, from, to).to_bits(),
                    increase(all, from, to).to_bits()
                );
                prop_assert_eq!(rate(&range, from, to).to_bits(), rate(all, from, to).to_bits());
                for agg in AGGS {
                    prop_assert_eq!(
                        bits(range_agg(&range, from, to, agg)),
                        bits(range_agg(all, from, to, agg))
                    );
                }
                prop_assert_eq!(
                    bits(quantile_over_time(&range, from, to, q)),
                    bits(quantile_over_time(all, from, to, q))
                );
            }
        }
    }
}
