//! Order statistics for benchmark figures: median, a nearest-rank tail
//! percentile that refuses thinly supported tails, and the quartiles and
//! relative interquartile range the steadiness check compares to bounds.

/// Fewest samples that must lie strictly beyond a reported tail percentile;
/// with fewer, the "percentile" is just one of the last few maxima.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the middle pair for even counts); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank `p`-th percentile (`0 < p < 100`): the smallest value with
/// at least `p`% of the samples at or below it. Refuses (`None`) unless at
/// least [`MIN_TAIL_SAMPLES`] samples lie beyond the chosen rank.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    if !(p > 0.0 && p < 100.0) {
        return None;
    }
    let v = sorted(values);
    let n = v.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(v[rank - 1])
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method)
/// computes them; `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile range as a share of the median — the spread the
/// steadiness check holds under each metric's bound.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_percentile_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 1..=100 is rank 90, with exactly 10 samples beyond.
        assert_eq!(tail_percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(tail_percentile(&hundred, 50.0), Some(50.0));
        // p99 would rest on one sample beyond: refused.
        assert_eq!(tail_percentile(&hundred, 99.0), None);
        // 99 samples leave only 9 beyond p90.
        assert_eq!(tail_percentile(&hundred[..99], 90.0), None);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand, 99.0), Some(990.0));
        assert_eq!(tail_percentile(&thousand, 100.0), None);
        assert_eq!(tail_percentile(&thousand, 0.0), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_iqr_is_spread_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let r = relative_iqr(&ten).unwrap();
        assert!((r - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[2.0; 6]), Some(0.0));
        assert_eq!(relative_iqr(&[0.0, 0.0, 0.0]), None);
    }
}
