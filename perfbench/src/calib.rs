//! A fixed reference kernel that gauges the host's speed at the moment.
//!
//! On a shared host the same day can run a quarter slower or faster from
//! one minute to the next, because neighbours contend for caches and
//! memory. `run.py` runs this kernel in its own process before the first
//! day and after every day, and divides each day's wall time by the
//! kernel's (the mean of the runs on either side of the day). Shifts in
//! host speed then cancel, while a change to the program does not: the
//! kernel uses none of the repository's crates, so no change to them can
//! make it faster or slower.
//!
//! The work resembles the day's own: string-keyed hash maps, ordered-map
//! churn and sorting of `f64` vectors, all from a fixed seed.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Rounds of the kernel; one round takes about 65 ms on a 2-core host.
const ROUNDS: usize = 3;

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// One round: a checksum of the work, so none of it is optimised away.
fn round(rng: &mut XorShift) -> u64 {
    let mut by_key: HashMap<String, Vec<f64>> = HashMap::new();
    let mut ordered = BTreeMap::new();
    for i in 0..100_000u64 {
        let key = format!("key{}", rng.next() % 5_000);
        by_key.entry(key).or_default().push(i as f64);
        ordered.insert(rng.next() % 50_000, i);
    }
    let mut sum = by_key.len() as u64 + ordered.len() as u64;
    for _ in 0..3 {
        let mut v: Vec<f64> = (0..100_000)
            .map(|_| (rng.next() % 1_000_000) as f64)
            .collect();
        v.sort_by(f64::total_cmp);
        sum = sum.wrapping_add(v[v.len() / 2] as u64);
    }
    sum
}

/// Runs the kernel and returns its wall time in seconds.
pub fn calibrate() -> f64 {
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    let start = Instant::now();
    for _ in 0..ROUNDS {
        black_box(round(&mut rng));
    }
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_do_the_same_work_every_time() {
        let a = round(&mut XorShift(1));
        assert_eq!(a, round(&mut XorShift(1)));
        assert!(calibrate() > 0.0);
    }
}
