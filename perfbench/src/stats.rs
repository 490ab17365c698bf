//! Order statistics over measured samples.

/// The median of `values` (mean of the two middle values for an even
/// count); `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quantile `q` (in `0..=1`) of whole-nanosecond samples, sorting
/// them in place.
///
/// Timer readings are rounded to whole nanoseconds and fast calls pile
/// up on a few values, so the plain order statistic reads the same
/// integer run after run. Each reading `v` is therefore taken to stand
/// for the interval `[v - 0.5, v + 0.5)`, and the quantile is
/// interpolated linearly within the run of samples tied at the value
/// the rank falls on.
pub fn quantile_ns(samples: &mut [u32], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let n = samples.len();
    let rank = q.clamp(0.0, 1.0) * n as f64;
    let v = samples[(rank as usize).min(n - 1)];
    let lo = samples.partition_point(|&s| s < v);
    let hi = samples.partition_point(|&s| s <= v);
    f64::from(v) - 0.5 + ((rank - lo as f64) / (hi - lo) as f64).clamp(0.0, 1.0)
}

/// `num / den` scaled by `scale`, or `0.0` when `den` is zero (a layer
/// that did no work on this workload).
pub fn ratio(num: f64, den: f64, scale: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den * scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantile_interpolates_within_tied_readings() {
        // Half the readings are 10 ns: the median sits at the top of
        // the 10 ns interval, the quartile in its middle.
        let mut s = vec![12, 10, 10, 11, 10, 13, 10, 14];
        assert_eq!(quantile_ns(&mut s, 0.5), 10.5);
        assert_eq!(quantile_ns(&mut s, 0.25), 10.0);
        let mut distinct: Vec<u32> = (0..100).rev().collect();
        assert_eq!(quantile_ns(&mut distinct, 0.5), 49.5);
        assert_eq!(quantile_ns(&mut [], 0.5), 0.0);
    }
}
