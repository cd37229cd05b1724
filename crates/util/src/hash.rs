//! FNV-1a hashing.
//!
//! Darshan derives a stable 64-bit *record id* for every file path so
//! that all ranks agree on the id without communication; the connector
//! publishes it as `record_id` (Table I). We use FNV-1a like Darshan's
//! own hash for this purpose: deterministic across runs, cheap, and with
//! good dispersion on path-like strings.

/// 64-bit FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes a byte slice with 64-bit FNV-1a.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Combines an existing hash with more bytes (streaming use).
pub fn fnv1a64_continue(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A [`std::hash::Hasher`] for map keys made inside the program (node
/// names, job and rank numbers): FNV-1a over bytes, one multiply per
/// integer word. Not for keys an outside party could craft to collide.
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a64_continue(self.0, bytes);
    }

    fn write_u64(&mut self, word: u64) {
        // The rotation carries the previous word's high bits into the
        // low ones, which pick a hash map's bucket.
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FNV_PRIME);
    }
}

/// [`std::hash::BuildHasher`] of [`FnvHasher`], for `HashMap::with_hasher`.
pub type FnvBuildHasher = std::hash::BuildHasherDefault<FnvHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn deterministic_and_distinct() {
        let a = fnv1a64(b"/scratch/run1/output.dat");
        let b = fnv1a64(b"/scratch/run1/output.dat");
        let c = fnv1a64(b"/scratch/run2/output.dat");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn hasher_matches_fnv_on_bytes_and_spreads_small_integers() {
        use std::hash::{BuildHasher, Hasher};
        let mut h = FnvBuildHasher::default().build_hasher();
        h.write(b"foobar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
        // (job, rank) pairs differing in one small word land in
        // different low-bit buckets.
        let low = |job: u64, rank: u64| {
            let mut h = FnvHasher::default();
            h.write_u64(job);
            h.write_u64(rank);
            h.finish() & 0xff
        };
        let buckets: std::collections::HashSet<u64> = (0..64).map(|r| low(7, r)).collect();
        assert!(buckets.len() > 48, "{} of 64 distinct", buckets.len());
    }

    #[test]
    fn continue_matches_one_shot() {
        let h = fnv1a64_continue(fnv1a64(b"hello "), b"world");
        assert_eq!(h, fnv1a64(b"hello world"));
    }
}
