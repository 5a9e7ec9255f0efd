//! Exact-sample statistics: no histogram sits between a measurement and the
//! number reported for it.

/// Median of `values` (mean of the two middle values for an even count).
/// `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of the per-pair ratios `a / b` — the armed-vs-disarmed estimator.
/// Pairing cancels drift that hits both blocks of a pair alike; the median
/// discards the pairs an interfering neighbour spoiled.
pub fn median_of_pair_ratios(pairs: &[(f64, f64)]) -> f64 {
    let ratios: Vec<f64> = pairs.iter().map(|(a, b)| a / b).collect();
    median(&ratios)
}

/// First and third quartile by linear interpolation between order
/// statistics. `(NaN, NaN)` when empty.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.75))
}

/// The `q`-quantile of an ascending-sorted sample: the smallest sample with
/// at least `q` of the samples at or below it.
pub fn quantile_sorted(sorted: &[u32], q: f64) -> u32 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of `candidates` (ascending quantiles in `(0, 1)`) that still
/// has at least ten samples beyond it in a sample of `n` — a percentile
/// resting on fewer is one scheduler hiccup, not a property of the system.
pub fn top_quantile(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .rfind(|q| (n as f64) * (1.0 - q) >= 10.0)
}

/// Failed operations as a share of attempted; zero attempts count as zero.
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_on_known_vectors() {
        let s: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile_sorted(&s, 0.50), 50);
        assert_eq!(quantile_sorted(&s, 0.90), 90);
        assert_eq!(quantile_sorted(&s, 0.99), 99);
        assert_eq!(quantile_sorted(&s, 1.0), 100);
        assert_eq!(quantile_sorted(&s, 0.0), 1);
        assert_eq!(quantile_sorted(&[7], 0.999), 7);
        assert_eq!(quantile_sorted(&[1, 2, 3, 4], 0.5), 2);
    }

    #[test]
    fn top_quantile_needs_ten_samples_beyond() {
        let c = [0.5, 0.9, 0.99, 0.999];
        // 10_000 samples leave exactly ten beyond p99.9.
        assert_eq!(top_quantile(10_000, &c), Some(0.999));
        assert_eq!(top_quantile(9_999, &c), Some(0.99));
        assert_eq!(top_quantile(1_000, &c), Some(0.99));
        assert_eq!(top_quantile(999, &c), Some(0.9));
        assert_eq!(top_quantile(20, &c), Some(0.5));
        assert_eq!(top_quantile(19, &c), None);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn median_of_pairs_odd_and_even() {
        // Ratios 0.5, 1.0, 2.0 -> 1.0.
        let odd = [(1.0, 2.0), (3.0, 3.0), (4.0, 2.0)];
        assert_eq!(median_of_pair_ratios(&odd), 1.0);
        // Ratios 0.5, 0.9, 1.0, 2.0 -> 0.95.
        let even = [(1.0, 2.0), (9.0, 10.0), (3.0, 3.0), (4.0, 2.0)];
        assert!((median_of_pair_ratios(&even) - 0.95).abs() < 1e-12);
    }

    #[test]
    fn quartiles_interpolate() {
        let (q1, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((q1, q3), (2.0, 4.0));
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert_eq!((q1, q3), (1.25, 1.75));
    }

    #[test]
    fn failures_count_against_attempts() {
        assert_eq!(failed_frac(0, 100), 0.0);
        assert_eq!(failed_frac(5, 100), 0.05);
        assert_eq!(failed_frac(0, 0), 0.0);
    }
}
