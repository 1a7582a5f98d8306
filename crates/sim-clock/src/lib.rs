//! # simclock — deterministic simulation time
//!
//! Foundations shared by every simulator in the smart-city cyberinfrastructure:
//!
//! - [`SimTime`] / [`SimDuration`]: microsecond-resolution virtual time.
//! - [`VirtualClock`]: a monotonically advancing clock.
//! - [`EventQueue`]: a stable priority queue of timestamped events (ties break
//!   by insertion order so simulations are reproducible).
//! - [`SeededRng`]: a tiny, fast, fully deterministic xorshift* PRNG used
//!   wherever cross-platform bit-for-bit reproducibility matters.
//! - [`Fnv1a`]: the workspace's one streaming FNV-1a hash, for digests and
//!   key hashes that must match on every platform and in every process,
//!   and [`splitmix64`], the one bijective mixer that finishes them.
//!
//! # Examples
//!
//! ```
//! use simclock::{EventQueue, SimTime, SimDuration};
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_millis(5), "b");
//! q.schedule(SimTime::from_millis(1), "a");
//! let (t, e) = q.pop().unwrap();
//! assert_eq!(t, SimTime::from_millis(1));
//! assert_eq!(e, "a");
//! ```

mod event_queue;
mod hash;
mod rng;
mod time;

pub use event_queue::EventQueue;
pub use hash::{splitmix64, Fnv1a};
pub use rng::SeededRng;
pub use time::{SimDuration, SimTime, VirtualClock};
