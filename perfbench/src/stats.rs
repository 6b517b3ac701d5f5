//! Order statistics over timing samples.

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linear-interpolated percentile `p` ∈ [0, 100] of `xs` (0 for an
/// empty slice).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The tail of `xs`: the highest whole percentile that still has at
/// least ten samples above it, as `(percentile, value)`. With fewer than
/// twenty samples no percentile at or above the median qualifies, and
/// the median is returned with percentile 50.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let p = if n >= 20.0 {
        (100.0 * (1.0 - 10.0 / n)).floor()
    } else {
        50.0
    };
    (p, percentile(xs, p))
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 100.0), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, v) = tail(&xs);
        assert_eq!(p, 90.0);
        assert!(xs.iter().filter(|&&x| x > v).count() >= 10);
        assert_eq!(tail(&[1.0, 2.0, 3.0]).0, 50.0);
    }
}
