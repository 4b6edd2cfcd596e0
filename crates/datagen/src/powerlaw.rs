//! Discrete power-law ("Pareto") degree sampling.
//!
//! Social-graph degree distributions are fat-tailed (Figure 1 of the paper);
//! generators draw per-vertex degree budgets from a discrete Pareto
//! distribution and then rescale the sample to hit a target mean, so a
//! profile can fix |E|/|V| independently of the tail exponent.

use cutfit_util::Xoshiro256pp;

/// Draws one discrete Pareto sample: `floor(xmin * U^(-1/(alpha-1)))`,
/// capped at `cap`. `alpha` is the *density* exponent (P(k) ~ k^-alpha),
/// so `alpha > 1` is required for a finite mean region.
// A float sample: `as` saturates, and the clamp bounds the result.
#[allow(clippy::cast_possible_truncation)]
pub(crate) fn pareto_sample(rng: &mut Xoshiro256pp, xmin: u64, alpha: f64, cap: u64) -> u64 {
    debug_assert!(alpha > 1.0, "pareto requires alpha > 1");
    let u = rng.next_f64().max(f64::MIN_POSITIVE);
    let x = xmin as f64 * u.powf(-1.0 / (alpha - 1.0));
    (x as u64).clamp(xmin, cap)
}

/// Draws `n` power-law degrees and rescales them to sum to ~`target_sum`
/// (exact up to rounding). Zero entries (selected by `zero_fraction`) stay
/// zero — these become the paper's "leaf"/silent vertices.
// Rescaled degrees are float samples: `as` saturates.
#[allow(clippy::cast_possible_truncation)]
pub(crate) fn degree_sequence(
    rng: &mut Xoshiro256pp,
    n: usize,
    alpha: f64,
    zero_fraction: f64,
    target_sum: u64,
    cap: u64,
) -> Vec<u64> {
    let mut degrees: Vec<u64> = (0..n)
        .map(|_| {
            if rng.bernoulli(zero_fraction) {
                0
            } else {
                pareto_sample(rng, 1, alpha, cap)
            }
        })
        .collect();
    let sum: u64 = degrees.iter().sum();
    if sum == 0 {
        return degrees;
    }
    let ratio = target_sum as f64 / sum as f64;
    let mut acc_err = 0.0;
    for d in degrees.iter_mut() {
        if *d == 0 {
            continue;
        }
        let exact = *d as f64 * ratio + acc_err;
        let rounded = exact.round().max(if ratio >= 1.0 { 1.0 } else { 0.0 });
        acc_err = exact - rounded;
        *d = rounded as u64;
    }
    degrees
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pareto_respects_bounds() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = pareto_sample(&mut rng, 2, 2.5, 100);
            assert!((2..=100).contains(&x));
        }
    }

    #[test]
    fn pareto_is_skewed() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let samples: Vec<u64> = (0..50_000)
            .map(|_| pareto_sample(&mut rng, 1, 2.2, 1_000_000))
            .collect();
        let ones = samples.iter().filter(|&&x| x == 1).count();
        let big = samples.iter().filter(|&&x| x >= 100).count();
        assert!(ones > samples.len() / 2, "mass concentrates at xmin");
        assert!(big > 0, "tail reaches far");
    }

    #[test]
    fn degree_sequence_hits_target_sum() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let degrees = degree_sequence(&mut rng, 10_000, 2.3, 0.1, 80_000, 10_000);
        let sum: u64 = degrees.iter().sum();
        let err = (sum as f64 - 80_000.0).abs() / 80_000.0;
        assert!(err < 0.02, "sum {sum} deviates {err}");
    }

    #[test]
    fn degree_sequence_preserves_zeros() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let degrees = degree_sequence(&mut rng, 10_000, 2.3, 0.25, 50_000, 10_000);
        let zeros = degrees.iter().filter(|&&d| d == 0).count();
        let frac = zeros as f64 / degrees.len() as f64;
        assert!((frac - 0.25).abs() < 0.03, "zero fraction {frac}");
    }

    #[test]
    fn upscaling_keeps_nonzero_positive() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let degrees = degree_sequence(&mut rng, 1000, 3.0, 0.0, 100_000, 1000);
        assert!(degrees.iter().all(|&d| d >= 1));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = degree_sequence(&mut Xoshiro256pp::seed_from_u64(7), 100, 2.0, 0.1, 500, 50);
        let b = degree_sequence(&mut Xoshiro256pp::seed_from_u64(7), 100, 2.0, 0.1, 500, 50);
        assert_eq!(a, b);
    }
}
