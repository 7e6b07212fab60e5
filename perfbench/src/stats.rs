//! Order statistics for host-time samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Samples that must lie strictly beyond a percentile before it is
/// reported: fewer, and the tail estimate rests on a handful of runs.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-th percentile (`0 < q < 100`) of `samples`, or
/// `None` unless at least [`MIN_BEYOND`] samples lie beyond it.
pub fn supported_percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(q > 0.0 && q < 100.0) {
        return None;
    }
    let rank = ((q / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

#[cfg(test)]
mod test {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        let two_hundred: Vec<f64> = (1..=200).map(f64::from).collect();
        // Rank 190 of 200 leaves exactly 10 samples above it.
        assert_eq!(supported_percentile(&two_hundred, 95.0), Some(190.0));
        let fewer: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(supported_percentile(&fewer, 95.0), None);
    }

    #[test]
    fn median_percentile_needs_twenty_samples() {
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(supported_percentile(&twenty, 50.0), Some(10.0));
        assert_eq!(supported_percentile(&twenty[..19], 50.0), None);
        assert_eq!(supported_percentile(&[], 50.0), None);
    }
}
