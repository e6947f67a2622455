//! Order statistics for latency samples.

/// Samples that must lie strictly above a reported percentile: a
/// percentile with fewer samples beyond it is a maximum in disguise.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile of `sorted` (ascending), or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond the selected rank.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, sorted.len()) - 1;
    (sorted.len() - 1 - idx >= MIN_BEYOND).then(|| sorted[idx])
}

/// The fewest samples for which [`percentile`] can report `p`.
#[cfg(test)]
pub fn samples_needed(p: f64) -> usize {
    (1..)
        .find(|&n| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            n - rank.clamp(1, n) >= MIN_BEYOND
        })
        .expect("some sample count suffices for p < 100")
}

/// The median of unsorted values (the mean of the middle pair for an
/// even count).
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

/// Sorts a sample in place and returns it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Rank 990 holds 990.0 and exactly ten samples lie beyond it.
        assert_eq!(percentile(&thousand, 99.0), Some(990.0));
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&short, 99.0), None);
        assert_eq!(samples_needed(99.0), 1000);
    }

    #[test]
    fn p50_and_p95_ranks() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(100.0));
        assert_eq!(percentile(&v, 95.0), Some(190.0));
        assert_eq!(samples_needed(95.0), 200);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
