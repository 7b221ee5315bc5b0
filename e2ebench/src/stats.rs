//! Percentiles and the closure arithmetic of the ledger.

/// Percentiles the tail rule may pick, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending slice.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples, in integer
/// per-mille arithmetic so ranks like 99.9 % of 10 000 come out exact.
fn rank(n: usize, p: f64) -> usize {
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// How many of `n` samples lie beyond the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest percentile of the ladder that still has at least ten samples
/// beyond it, or `None` when even the median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Median of unsorted values (upper median for even counts, matching
/// nearest rank); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile(&sorted, 50.0))
}

/// Arithmetic mean; `0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Checks that `parts` sum to `whole` within a relative tolerance:
/// `|Σ parts − whole| ≤ tolerance · whole`. Returns the ratio Σ/whole.
pub fn closure(parts: &[f64], whole: f64, tolerance: f64) -> Result<f64, String> {
    let sum: f64 = parts.iter().sum();
    if whole.is_nan() || whole <= 0.0 || !sum.is_finite() {
        return Err(format!("closure: parts sum {sum} against whole {whole}"));
    }
    let ratio = sum / whole;
    if (ratio - 1.0).abs() <= tolerance {
        Ok(ratio)
    } else {
        Err(format!(
            "closure: parts sum to {sum:.6} but the whole is {whole:.6} \
             (ratio {ratio:.4}, tolerance ±{tolerance})"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 90.0), 90.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&values, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        for n in [100, 137, 1_000, 5_000] {
            let p = tail_percentile(n).expect("enough samples");
            assert!(samples_beyond(n, p) >= 10);
        }
    }

    #[test]
    fn median_of_unsorted_values() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn closure_accepts_within_tolerance_and_rejects_beyond() {
        assert!((closure(&[1.0, 2.0, 3.0], 6.0, 0.0).unwrap() - 1.0).abs() < 1e-12);
        assert!(closure(&[1.0, 2.0, 3.0], 6.5, 0.1).is_ok());
        assert!(closure(&[1.0, 2.0, 3.0], 6.5, 0.05).is_err());
        assert!(closure(&[1.0, 2.0, 3.0], 5.5, 0.05).is_err());
        assert!(closure(&[1.0], 0.0, 0.5).is_err());
        assert!(closure(&[f64::NAN], 1.0, 0.5).is_err());
    }
}
