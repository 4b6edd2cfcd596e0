//! Integer hashing used by the hash-based partitioners.
//!
//! GraphX's partitioners hash vertex IDs either with a large "mixing prime"
//! multiplication (`EdgePartition1D`, `EdgePartition2D`) or with the JVM
//! tuple `hashCode` (`RandomVertexCut`, `CanonicalRandomVertexCut`). We keep
//! the mixing-prime trick verbatim (the constant below is the one in the
//! GraphX source) and replace the weak JVM tuple hash with a full-avalanche
//! 64-bit mixer, which matches its *role* (pseudo-random spreading of a pair
//! of IDs) with strictly better uniformity.

use crate::rng::mix64;

/// The multiplicative mixing prime used by GraphX's `EdgePartition1D`/`2D`.
pub(crate) const GRAPHX_MIXING_PRIME: u64 = 1_125_899_906_842_597;

/// Hashes a single 64-bit value with full avalanche.
#[inline]
pub fn hash64(x: u64) -> u64 {
    mix64(x)
}

/// Hashes an ordered pair of 64-bit values.
#[inline]
pub fn hash_pair(a: u64, b: u64) -> u64 {
    // Combine then avalanche; the odd constant decorrelates (a,b) from (b,a).
    mix64(mix64(a).wrapping_add(b.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// GraphX-style 1D mix: multiply by the mixing prime (wrapping), as in
/// `EdgePartition1D.getPartition`.
#[inline]
pub fn graphx_mix(id: u64) -> u64 {
    id.wrapping_mul(GRAPHX_MIXING_PRIME)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash64_is_injective_on_small_domain() {
        let mut seen = std::collections::BTreeSet::new();
        for x in 0..10_000u64 {
            assert!(seen.insert(hash64(x)), "collision at {x}");
        }
    }

    #[test]
    fn hash_pair_is_order_sensitive() {
        assert_ne!(hash_pair(1, 2), hash_pair(2, 1));
        assert_ne!(hash_pair(0, 1), hash_pair(1, 0));
    }

    #[test]
    fn hash_pair_spreads_buckets() {
        // All pairs in a small grid should spread near-uniformly over 16 buckets.
        let mut counts = [0u32; 16];
        for a in 0..64u64 {
            for b in 0..64u64 {
                counts[(hash_pair(a, b) % 16) as usize] += 1;
            }
        }
        let expected = (64 * 64 / 16) as f64;
        for &c in &counts {
            assert!((c as f64 - expected).abs() < expected * 0.25);
        }
    }

    #[test]
    fn graphx_mix_matches_definition() {
        assert_eq!(graphx_mix(3), 3u64.wrapping_mul(GRAPHX_MIXING_PRIME));
    }
}
