//! The sctune determinism contract: tuning is a wall-clock knob and
//! nothing else.
//!
//! Every tunable (matmul panel height, predict chunk height, k-means
//! cells per task, micro-batch size) only moves scpar task boundaries
//! between independent work units, and every kernel keeps its telemetry
//! accounting pinned to the nominal constants. So for a given seed:
//!
//! * the committed `tuning_table.json` must yield byte-identical outputs,
//!   profiles, and Prometheus text at any `SCPAR_THREADS` and any
//!   `SCSIMD_FORCE` — identical to the untuned run;
//! * **any** table entry — including adversarial values no sane generator
//!   would emit — must preserve output bits (property-tested below);
//! * the committed table itself must be canonical: load → re-serialize
//!   must reproduce the file byte-for-byte.

use proptest::prelude::*;
use smartcity::compute::mllib::kmeans_ctx;
use smartcity::neural::exec::ExecCtx;
use smartcity::neural::layers::{Dense, Relu};
use smartcity::neural::linalg::Mat;
use smartcity::neural::net::Sequential;
use smartcity::neural::tensor::Tensor;
use smartcity::par::ScparConfig;
use smartcity::simclock::splitmix64;
use smartcity::telemetry::{prometheus_text, Telemetry};
use smartcity::tune::{TuneKey, Tuner, TuningTable};

/// Deterministic pseudo-random fill: a splitmix64 stream mapped to [-1, 1].
fn fill(seed: u64, n: usize) -> Vec<f64> {
    // The i-th draw of the stream starting at `seed`.
    (0..n as u64)
        .map(|i| {
            let z = splitmix64(seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
            (z as f64 / u64::MAX as f64) * 2.0 - 1.0
        })
        .collect()
}

fn committed_table_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tuning_table.json")
}

#[test]
fn committed_table_is_canonical_and_nonempty() {
    let path = committed_table_path();
    let text = std::fs::read_to_string(&path).expect("tuning_table.json is committed");
    let table = TuningTable::from_json(&text).expect("committed table validates");
    assert!(!table.is_empty(), "committed table has entries");
    assert_eq!(
        table.to_json_string(),
        text,
        "committed table must be in canonical form (regenerate with tune_gen)"
    );
}

/// One full tuned pass over the three wired compute kernels, with work
/// accounting recorded. Returns (output bits, prometheus text).
fn tuned_run(tuner: Tuner, threads: usize, isa: smartcity::simd::Isa) -> (Vec<u64>, String) {
    let telemetry = Telemetry::shared();
    let ctx = ExecCtx::serial()
        .with_par(ScparConfig::with_threads(threads))
        .with_isa(isa)
        .with_telemetry(telemetry.handle())
        .with_tuner(tuner);

    let mut bits: Vec<u64> = Vec::new();

    // f64 matmul: the committed table has an exact entry for this shape.
    let a = Mat::from_vec(2048, 16, fill(3, 2048 * 16));
    let b = Mat::from_vec(16, 16, fill(4, 16 * 16));
    let prod = a.matmul_ctx(&b, &ctx);
    bits.extend(
        (0..2048)
            .flat_map(|i| (0..16).map(move |j| (i, j)))
            .map(|(i, j)| prod[(i, j)].to_bits()),
    );

    // f32 matmul through the tensor path.
    let ta = Tensor::from_vec(
        vec![192, 32],
        fill(5, 192 * 32).iter().map(|v| *v as f32).collect(),
    )
    .unwrap();
    let tb = Tensor::from_vec(
        vec![32, 8],
        fill(6, 32 * 8).iter().map(|v| *v as f32).collect(),
    )
    .unwrap();
    let tp = ta.matmul_ctx(&tb, &ctx).expect("shapes agree");
    bits.extend(tp.data().iter().map(|v| v.to_bits() as u64));

    // Batched inference (exact `predict/r256/e64/t*` entries).
    let net = Sequential::new()
        .with(Dense::new(64, 32, 7))
        .with(Relu::new())
        .with(Dense::new(32, 8, 8))
        .with_telemetry(telemetry.handle());
    let input = Tensor::from_vec(
        vec![256, 64],
        fill(9, 256 * 64).iter().map(|v| *v as f32).collect(),
    )
    .unwrap();
    let logits = net.predict_ctx(&input, &ctx);
    bits.extend(logits.data().iter().map(|v| v.to_bits() as u64));

    // k-means (exact `kmeans/p2048/d4/k8/t*` entries).
    let points: Vec<Vec<f64>> = (0..2048).map(|i| fill(100 + i as u64, 4)).collect();
    let model = kmeans_ctx(&points, 8, 4, 11, &ctx);
    bits.extend(model.centroids.iter().flatten().map(|v| v.to_bits()));
    bits.push(model.inertia.to_bits());
    bits.push(model.iterations as u64);

    (bits, prometheus_text(telemetry.registry()))
}

/// The committed table at every thread count and both ISA pins must match
/// the untuned serial run bit-for-bit — outputs *and* telemetry.
#[test]
fn committed_table_is_bit_and_telemetry_identical_across_threads_and_isa() {
    let table = TuningTable::load(&committed_table_path()).expect("committed table loads");
    let (base_bits, base_prom) = tuned_run(Tuner::disabled(), 1, smartcity::simd::Isa::Scalar);
    for threads in [1usize, 2, 8] {
        for isa in [smartcity::simd::Isa::Scalar, smartcity::simd::Isa::active()] {
            let (bits, prom) = tuned_run(Tuner::from_table(table.clone()), threads, isa);
            assert_eq!(
                base_bits,
                bits,
                "tuned outputs diverged at {threads} threads, ISA {}",
                isa.name()
            );
            assert_eq!(
                base_prom,
                prom,
                "tuned Prometheus text diverged at {threads} threads, ISA {}",
                isa.name()
            );
        }
    }
}

/// Work accounting is pinned to the *nominal* schedule constants, so the
/// scprof profile JSON must be byte-identical tuned vs untuned — at every
/// thread count.
#[test]
fn tuned_profile_json_matches_untuned_across_threads() {
    use smartcity::prof::Profiler;
    let table = TuningTable::load(&committed_table_path()).expect("committed table loads");
    let profile = |tuner: Tuner, threads: usize| {
        let profiler = Profiler::shared();
        let ctx = ExecCtx::serial()
            .with_par(ScparConfig::with_threads(threads))
            .with_telemetry(profiler.handle())
            .with_tuner(tuner);
        let a = Mat::from_vec(2048, 16, fill(31, 2048 * 16));
        let b = Mat::from_vec(16, 16, fill(32, 16 * 16));
        a.matmul_ctx(&b, &ctx);
        let points: Vec<Vec<f64>> = (0..2048).map(|i| fill(300 + i as u64, 4)).collect();
        kmeans_ctx(&points, 8, 4, 33, &ctx);
        profiler.report().to_json()
    };
    let base = profile(Tuner::disabled(), 1);
    for threads in [1usize, 2, 8] {
        assert_eq!(
            base,
            profile(Tuner::from_table(table.clone()), threads),
            "tuned profile JSON diverged at {threads} threads"
        );
    }
}

/// Nearest-key fallback serves shapes the table has never seen — and the
/// donated schedule is still bit-safe.
#[test]
fn nearest_key_fallback_is_bit_safe() {
    let mut table = TuningTable::empty();
    table.insert(TuneKey::matmul_f64(2048, 16, 16, 2, "any"), 256);
    let tuner = Tuner::from_table(table);
    // No entry for this shape or thread count: nearest donates 256.
    assert_eq!(
        tuner.matmul_f64_panel_rows(1000, 16, 16, 8, "avx2", 32),
        256
    );

    let a = Mat::from_vec(1000, 16, fill(21, 1000 * 16));
    let b = Mat::from_vec(16, 16, fill(22, 16 * 16));
    let plain = a.matmul_ctx(&b, &ExecCtx::serial());
    let ctx = ExecCtx::serial()
        .with_par(ScparConfig::with_threads(8))
        .with_tuner(tuner);
    let tuned = a.matmul_ctx(&b, &ctx);
    let same =
        (0..1000).all(|i| (0..16).all(|j| plain[(i, j)].to_bits() == tuned[(i, j)].to_bits()));
    assert!(same, "nearest-donated panel changed matmul bits");
}

/// A corrupt table file must never poison a run: the env-path loader
/// reports and disables instead of panicking, and a disabled tuner is the
/// pre-tuning behavior exactly.
#[test]
fn corrupt_table_file_disables_tuning_without_panic() {
    let dir = std::env::temp_dir().join("sctune-corrupt-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tuning_table.json");
    std::fs::write(&path, "{ not json").unwrap();
    let tuner = Tuner::from_table_path(&path);
    assert!(!tuner.is_enabled(), "corrupt table must disable the tuner");
    assert_eq!(tuner.predict_chunk_rows(256, 64, 2, 32), 32);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// ANY table entry — sane, absurd, adversarial — preserves output
    /// bits for every wired kernel, at any thread count. This is the
    /// schedule-only guarantee the whole crate rests on.
    #[test]
    fn arbitrary_table_entries_preserve_bits(
        panel in 1usize..600,
        chunk in 1usize..600,
        cells in 1usize..40,
        m in 1usize..200,
        rows in 1usize..120,
        points in 8usize..600,
        threads in 1usize..9,
        seed in any::<u64>(),
    ) {
        let mut table = TuningTable::empty();
        table.insert(TuneKey::matmul_f64(m, 8, 8, threads, "any"), panel);
        table.insert(TuneKey::predict(rows, 6, threads), chunk);
        table.insert(TuneKey::kmeans(points, 3, 4, threads), cells);
        let ctx = ExecCtx::serial()
            .with_par(ScparConfig::with_threads(threads))
            .with_tuner(Tuner::from_table(table));
        let plain = ExecCtx::serial();

        let a = Mat::from_vec(m, 8, fill(seed, m * 8));
        let b = Mat::from_vec(8, 8, fill(seed ^ 1, 64));
        let (x, y) = (a.matmul_ctx(&b, &plain), a.matmul_ctx(&b, &ctx));
        let same = (0..m).all(|i| (0..8).all(|j| x[(i, j)].to_bits() == y[(i, j)].to_bits()));
        prop_assert!(same, "tuned matmul diverged (panel {panel})");

        let net = Sequential::new()
            .with(Dense::new(6, 12, seed))
            .with(Relu::new())
            .with(Dense::new(12, 3, seed ^ 2));
        let data: Vec<f32> = fill(seed ^ 3, rows * 6).iter().map(|v| *v as f32).collect();
        let input = Tensor::from_vec(vec![rows, 6], data).unwrap();
        let (px, py) = (net.predict_ctx(&input, &plain), net.predict_ctx(&input, &ctx));
        let same = px.data().iter().zip(py.data().iter()).all(|(u, v)| u.to_bits() == v.to_bits());
        prop_assert!(same, "tuned predict diverged (chunk {chunk})");

        let pts: Vec<Vec<f64>> = (0..points).map(|i| fill(seed ^ (4 + i as u64), 3)).collect();
        let (kx, ky) = (kmeans_ctx(&pts, 4, 3, seed, &plain), kmeans_ctx(&pts, 4, 3, seed, &ctx));
        prop_assert_eq!(kx.iterations, ky.iterations, "tuned kmeans iteration count diverged");
        let same = kx.centroids.iter().flatten().zip(ky.centroids.iter().flatten())
            .all(|(u, v)| u.to_bits() == v.to_bits())
            && kx.inertia.to_bits() == ky.inertia.to_bits();
        prop_assert!(same, "tuned kmeans diverged (cells {cells})");
    }
}
