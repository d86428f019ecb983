//! Order statistics over latency samples.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it. `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Samples strictly beyond the nearest-rank `p` percentile of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// 1-based nearest rank, clamped to `1..=n`. The epsilon keeps `p * n`
/// that is integral in exact arithmetic (0.95 × 200) from rounding up a
/// rank through floating-point error.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median of unsorted values: their nearest-rank 50th percentile (the
/// lower middle value for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Mean of the middle 80 % of the values: the lowest and the highest tenth
/// (rounded down) are dropped, so that a few samples stalled by the host
/// scheduler do not move it. `None` for no values.
pub fn trimmed_mean(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 10;
    let kept = &v[cut..v.len() - cut];
    (!kept.is_empty()).then(|| kept.iter().sum::<f64>() / kept.len() as f64)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_of_200_samples_leaves_ten_beyond() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(percentile(&samples, 0.95), Some(190.0));
        let beyond = samples.iter().filter(|&&x| x > 190.0).count();
        assert_eq!(beyond, 10);
        assert!(samples_beyond(199, 0.95) < 10);
        assert_eq!(samples_beyond(crate::workload::MIN_TASKS, 0.95), 10);
    }

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.95), Some(7.0));
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 0.5), Some(2.0));
        assert_eq!(percentile(&s, 1.0), Some(4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(trimmed_mean(&[]), None);
        assert_eq!(trimmed_mean(&[1.0, 2.0, 6.0]), Some(3.0));
        let mut stalled: Vec<f64> = vec![1.0; 9];
        stalled.push(50.0);
        assert_eq!(trimmed_mean(&stalled), Some(1.0));
    }
}
