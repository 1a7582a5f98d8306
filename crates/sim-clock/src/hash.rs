//! The workspace's one FNV-1a hash and one splitmix64 mixer.

use std::fmt;

/// Streaming 64-bit FNV-1a.
///
/// Every content digest, checksum and key hash in the workspace that must
/// be identical on every platform and in every process goes through this
/// one type (unlike `std::hash::DefaultHasher`, which is seeded per
/// process). It implements [`fmt::Write`], so formatted text can be
/// hashed with `write!` without first building a `String`.
///
/// # Examples
///
/// ```
/// use std::fmt::Write;
/// use simclock::Fnv1a;
///
/// let mut h = Fnv1a::default();
/// write!(h, "foo{}", "bar").unwrap();
/// assert_eq!(h.finish(), Fnv1a::hash(b"foobar"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The FNV-1a 64-bit offset basis: the state before any byte.
    pub const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    /// The FNV-1a 64-bit prime.
    pub const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A stream keyed by starting from `OFFSET_BASIS ^ key`.
    pub fn with_key(key: u64) -> Self {
        Fnv1a(Self::OFFSET_BASIS ^ key)
    }

    /// FNV-1a of `bytes` in one call.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::default();
        h.write(bytes);
        h.finish()
    }

    /// Feeds `bytes` into the stream.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The raw FNV-1a state (no finalizer).
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(Self::OFFSET_BASIS)
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// The splitmix64 finalizer: a bijective `u64` mixer.
///
/// The workspace's one copy. It scrambles weak seeds (0, 1, 2, ...) into
/// well-spread states, finishes raw [`Fnv1a`] key hashes, and derives
/// trace ids. Pure arithmetic, so it also runs in `const` contexts.
///
/// # Examples
///
/// ```
/// use simclock::splitmix64;
///
/// assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
/// ```
#[inline]
pub const fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write;

    #[test]
    fn known_answers() {
        assert_eq!(Fnv1a::hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn splitmix64_known_answers() {
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
        assert_eq!(splitmix64(42), 0xBDD7_3226_2FEB_6E95);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let mut h = Fnv1a::default();
        h.write(b"foo");
        let (text, c) = ("ba", 'r');
        write!(h, "{text}{c:?}").unwrap();
        assert_eq!(h.finish(), Fnv1a::hash(b"fooba'r'"));
    }

    #[test]
    fn keyed_stream_starts_from_keyed_basis() {
        assert_eq!(Fnv1a::with_key(0), Fnv1a::default());
        assert_eq!(Fnv1a::with_key(7).finish(), Fnv1a::OFFSET_BASIS ^ 7);
    }
}
