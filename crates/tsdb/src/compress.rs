//! Gorilla-style sample compression: delta-of-delta timestamps and
//! XOR-compressed float values, bit-exact.
//!
//! The layout follows Facebook's Gorilla paper adapted to sim-time
//! microseconds:
//!
//! - First sample: raw 64-bit timestamp, raw 64-bit IEEE value bits.
//! - Timestamps: `dod = (tₙ − tₙ₋₁) − (tₙ₋₁ − tₙ₋₂)`, bucketed as
//!   `0` (dod = 0), `10`+7 bits, `110`+9 bits, `1110`+12 bits,
//!   `1111`+64 bits (zig-zag-free biased encodings).
//! - Values: XOR against the previous value's bits; `0` when identical,
//!   `10` + meaningful bits when the previous leading/trailing-zero
//!   window still covers them, `11` + 5-bit leading count + 6-bit
//!   length−1 + the bits otherwise.
//!
//! Unlike the paper we never quantise: values round-trip through
//! `f64::to_bits`, so decompression is **bit-exact** (NaN payloads
//! included) — the property the golden artifacts and proptests pin.
//!
//! # Checkpoints
//!
//! Beside the payload, the encoder keeps a sparse index: the decoder
//! state after every 64th sample (bit position, timestamp, delta, value
//! bits, leading/trailing window). [`GorillaEncoder::decode_range`]
//! resumes at the last checkpoint before a query's range, so a window
//! read decodes the window plus about one checkpoint interval, however
//! long the series has grown. The index is not part of the payload:
//! [`GorillaEncoder::compressed_bytes`] and every decoded bit are the
//! same with or without it.

use crate::bits::{BitReader, BitWriter};

/// Samples per checkpoint interval: checkpoint `k` holds the decoder
/// state right after sample `k · CHECKPOINT_EVERY`.
const CHECKPOINT_EVERY: usize = 64;

/// Decoder state right after one sample: enough to decode every later
/// sample without reading any earlier bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Checkpoint {
    /// Where the next sample's bits start.
    bit_pos: usize,
    t: u64,
    delta: i64,
    v_bits: u64,
    leading: u32,
    trailing: u32,
}

/// Streaming encoder for one series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GorillaEncoder {
    bits: BitWriter,
    checkpoints: Vec<Checkpoint>,
    count: u64,
    prev_t: u64,
    prev_delta: i64,
    prev_v_bits: u64,
    prev_leading: u32,
    prev_trailing: u32,
    window_valid: bool,
}

/// Appending a sample older than its predecessor is refused: series are
/// append-only in sim time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeRegression {
    /// Timestamp of the last accepted sample (µs).
    pub last_us: u64,
    /// The offending earlier timestamp (µs).
    pub got_us: u64,
}

impl std::fmt::Display for TimeRegression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sample at {}us precedes the series tail at {}us",
            self.got_us, self.last_us
        )
    }
}

impl std::error::Error for TimeRegression {}

impl GorillaEncoder {
    /// An empty encoder with no reserved capacity.
    pub fn new() -> Self {
        GorillaEncoder::default()
    }

    /// Reserves buffer space for roughly `samples` more appends at the
    /// worst-case encoded width (~18 bytes), and room for the checkpoints
    /// they add, so appends within the reserve never touch the allocator.
    pub fn reserve_samples(&mut self, samples: usize) {
        self.bits.reserve(samples.saturating_mul(18));
        let count = self.count as usize;
        let due = count.saturating_add(samples).div_ceil(CHECKPOINT_EVERY)
            - count.div_ceil(CHECKPOINT_EVERY);
        self.checkpoints.reserve(due);
    }

    /// Samples encoded so far.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether no sample has been encoded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Compressed size in bytes (last byte possibly partial).
    pub fn compressed_bytes(&self) -> usize {
        self.bits.len_bytes()
    }

    /// Timestamp of the most recent sample (0 when empty).
    pub fn last_timestamp(&self) -> u64 {
        self.prev_t
    }

    /// Appends `(t_us, v)`; timestamps must be non-decreasing.
    pub fn push(&mut self, t_us: u64, v: f64) -> Result<(), TimeRegression> {
        // An empty encoder's `prev_t` is 0, so the first sample always passes.
        if t_us < self.prev_t {
            return Err(TimeRegression {
                last_us: self.prev_t,
                got_us: t_us,
            });
        }
        let v_bits = v.to_bits();
        if self.count == 0 {
            self.bits.push_bits(t_us, 64);
            self.bits.push_bits(v_bits, 64);
        } else {
            self.push_delta((t_us - self.prev_t) as i64);
            self.push_xor(v_bits ^ self.prev_v_bits);
        }
        self.prev_t = t_us;
        self.prev_v_bits = v_bits;
        if (self.count as usize).is_multiple_of(CHECKPOINT_EVERY) {
            self.checkpoints.push(Checkpoint {
                bit_pos: self.bits.len_bits(),
                t: t_us,
                delta: self.prev_delta,
                v_bits,
                leading: self.prev_leading,
                trailing: self.prev_trailing,
            });
        }
        self.count += 1;
        Ok(())
    }

    fn push_delta(&mut self, delta: i64) {
        let dod = delta - self.prev_delta;
        match dod {
            0 => self.bits.push_bit(false),
            -63..=64 => {
                self.bits.push_bits(0b10, 2);
                self.bits.push_bits((dod + 63) as u64, 7);
            }
            -255..=256 => {
                self.bits.push_bits(0b110, 3);
                self.bits.push_bits((dod + 255) as u64, 9);
            }
            -2047..=2048 => {
                self.bits.push_bits(0b1110, 4);
                self.bits.push_bits((dod + 2047) as u64, 12);
            }
            _ => {
                self.bits.push_bits(0b1111, 4);
                self.bits.push_bits(dod as u64, 64);
            }
        }
        self.prev_delta = delta;
    }

    fn push_xor(&mut self, xor: u64) {
        if xor == 0 {
            self.bits.push_bit(false);
            return;
        }
        self.bits.push_bit(true);
        let leading = xor.leading_zeros().min(31);
        let trailing = xor.trailing_zeros();
        if self.window_valid && leading >= self.prev_leading && trailing >= self.prev_trailing {
            // The previous meaningful-bit window still covers us.
            self.bits.push_bit(false);
            let sig = 64 - self.prev_leading - self.prev_trailing;
            self.bits.push_bits(xor >> self.prev_trailing, sig);
        } else {
            self.bits.push_bit(true);
            let sig = 64 - leading - trailing;
            self.bits.push_bits(leading as u64, 5);
            self.bits.push_bits((sig - 1) as u64, 6);
            self.bits.push_bits(xor >> trailing, sig);
            self.prev_leading = leading;
            self.prev_trailing = trailing;
            self.window_valid = true;
        }
    }

    /// Decodes every sample back out (allocates the result vector).
    pub fn decode_all(&self) -> Vec<(u64, f64)> {
        self.decode_range(0, u64::MAX)
    }

    /// Decodes what a `(from, to]` query needs, in order: the counter
    /// baseline (the last sample at or before `from`), then every sample
    /// in `(from, to]`. A range from the epoch keeps every `t = 0` sample,
    /// as [`crate::query`]'s range convention includes them. Decoding
    /// starts at the last checkpoint stamped before `from` and stops at
    /// the first sample past `to`, so it decodes the window plus at most
    /// one checkpoint interval before it (more only when a run of equal
    /// timestamps spans checkpoints), not the whole series.
    ///
    /// Every query in [`crate::query`] gives the same bits over this
    /// slice as over [`GorillaEncoder::decode_all`] for the same range.
    pub fn decode_range(&self, from_us: u64, to_us: u64) -> Vec<(u64, f64)> {
        let first = self
            .checkpoints
            .partition_point(|c| c.t < from_us)
            .saturating_sub(1);
        let Some(cp) = self.checkpoints.get(first) else {
            return Vec::new();
        };
        let start = first * CHECKPOINT_EVERY;
        // Samples from the first checkpoint stamped after `to` on are never
        // returned, which bounds the result's length.
        let stop = self.checkpoints.partition_point(|c| c.t <= to_us);
        let end = (stop * CHECKPOINT_EVERY).min(self.count as usize);
        let mut out = Vec::with_capacity(end.saturating_sub(start));
        let mut index = start as u64;

        let mut r = self.bits.reader_at(cp.bit_pos);
        let (mut t, mut delta, mut v_bits) = (cp.t, cp.delta, cp.v_bits);
        let (mut leading, mut trailing) = (cp.leading, cp.trailing);
        while t <= to_us {
            if from_us > 0 && t <= from_us {
                // A later baseline supersedes everything decoded so far.
                out.clear();
            }
            out.push((t, f64::from_bits(v_bits)));
            index += 1;
            if index == self.count {
                break;
            }
            delta += Self::read_dod(&mut r);
            t = (t as i64 + delta) as u64;
            if r.read_bit().expect("value control bit") {
                if r.read_bit().expect("window control bit") {
                    leading = r.read_bits(5).expect("leading count") as u32;
                    let sig = r.read_bits(6).expect("length field") as u32 + 1;
                    trailing = 64 - leading - sig;
                }
                let sig = 64 - leading - trailing;
                let bits = r.read_bits(sig).expect("meaningful bits");
                v_bits ^= bits << trailing;
            }
        }
        out
    }

    fn read_dod(r: &mut BitReader<'_>) -> i64 {
        if !r.read_bit().expect("dod control bit") {
            return 0;
        }
        if !r.read_bit().expect("dod control bit") {
            return r.read_bits(7).expect("7-bit dod") as i64 - 63;
        }
        if !r.read_bit().expect("dod control bit") {
            return r.read_bits(9).expect("9-bit dod") as i64 - 255;
        }
        if !r.read_bit().expect("dod control bit") {
            return r.read_bits(12).expect("12-bit dod") as i64 - 2047;
        }
        r.read_bits(64).expect("64-bit dod") as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(samples: &[(u64, f64)]) {
        let mut enc = GorillaEncoder::new();
        for &(t, v) in samples {
            enc.push(t, v).expect("non-decreasing");
        }
        let got = enc.decode_all();
        assert_eq!(got.len(), samples.len());
        for (g, s) in got.iter().zip(samples) {
            assert_eq!(g.0, s.0, "timestamp");
            assert_eq!(g.1.to_bits(), s.1.to_bits(), "value bits");
        }
    }

    #[test]
    fn round_trips_regular_cadence() {
        let samples: Vec<(u64, f64)> = (0..500)
            .map(|i| (i * 1_000_000, (i as f64).sin() * 100.0))
            .collect();
        round_trip(&samples);
    }

    #[test]
    fn round_trips_awkward_values() {
        round_trip(&[
            (0, 0.0),
            (1, -0.0),
            (1, f64::INFINITY),
            (2, f64::NEG_INFINITY),
            (100, f64::from_bits(0x7ff8_0000_dead_beef)), // NaN payload
            (100, f64::MIN_POSITIVE),
            (u64::MAX / 2, f64::MAX),
        ]);
    }

    #[test]
    fn constant_series_compress_tightly() {
        let mut enc = GorillaEncoder::new();
        for i in 0..1000u64 {
            enc.push(i * 3_600_000_000, 7.5).unwrap();
        }
        // First sample is 16 bytes, the first delta 69 bits; every later
        // sample costs 2 bits (dod = 0, value unchanged).
        assert!(
            enc.compressed_bytes() <= 16 + 9 + 1000 / 4,
            "got {} bytes",
            enc.compressed_bytes()
        );
        assert_eq!(enc.decode_all().len(), 1000);
    }

    #[test]
    fn time_regression_is_refused() {
        let mut enc = GorillaEncoder::new();
        enc.push(100, 1.0).unwrap();
        assert!(enc.push(99, 2.0).is_err());
        assert!(enc.push(100, 2.0).is_ok(), "equal timestamps are allowed");
    }

    #[test]
    fn reserve_bounds_allocation() {
        let mut enc = GorillaEncoder::new();
        enc.reserve_samples(200);
        let cap = enc.bits.capacity_bytes();
        let index_cap = enc.checkpoints.capacity();
        for i in 0..200u64 {
            enc.push(i * 1234, i as f64 * 0.1).unwrap();
        }
        assert_eq!(enc.bits.capacity_bytes(), cap, "stayed within the reserve");
        assert_eq!(enc.checkpoints.len(), 4, "samples 0, 64, 128, 192");
        assert_eq!(enc.checkpoints.capacity(), index_cap, "index too");
        // A reserve taken mid-series covers the checkpoints still due.
        enc.reserve_samples(100);
        let index_cap = enc.checkpoints.capacity();
        for i in 200..300u64 {
            enc.push(i * 1234, 1.0).unwrap();
        }
        assert_eq!(enc.checkpoints.len(), 5);
        assert_eq!(enc.checkpoints.capacity(), index_cap);
    }

    #[test]
    fn decode_range_is_the_baseline_plus_the_window() {
        let all: Vec<(u64, f64)> = (0..1000).map(|i| (i * 10, i as f64)).collect();
        let mut enc = GorillaEncoder::new();
        for &(t, v) in &all {
            enc.push(t, v).unwrap();
        }
        // (4990, 5200]: baseline 4990, then 5000 … 5200.
        let got = enc.decode_range(4990, 5200);
        assert_eq!(got, all[499..=520]);
        assert_eq!(enc.decode_range(0, 0), vec![(0, 0.0)]);
        // A range past the last sample holds just the baseline.
        assert_eq!(enc.decode_range(20_000, 30_000), vec![(9990, 999.0)]);
        assert!(GorillaEncoder::new().decode_range(0, u64::MAX).is_empty());
    }

    #[test]
    fn decode_range_keeps_every_epoch_sample_from_the_epoch() {
        let mut samples: Vec<(u64, f64)> = (0..150).map(|i| (0, i as f64)).collect();
        samples.push((5, -1.0));
        let mut enc = GorillaEncoder::new();
        for &(t, v) in &samples {
            enc.push(t, v).unwrap();
        }
        // The last checkpoint at t = 0 is sample 128, yet a range from the
        // epoch holds all 150 epoch samples.
        assert_eq!(enc.decode_range(0, 5), samples);
        assert_eq!(enc.decode_all(), samples);
        // Later ranges need only the last of them as a baseline.
        assert_eq!(enc.decode_range(3, 5), vec![(0, 149.0), (5, -1.0)]);
    }
}
