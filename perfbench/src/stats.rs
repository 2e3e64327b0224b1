//! Sample summaries with the nearest-rank percentile rule.

/// A percentile is reported only when at least this many samples lie beyond
/// it, so every printed tail rests on more than one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile of `samples` (0 < p ≤ 100): the
/// smallest sample with at least `p`% of the population at or below it.
/// `None` when fewer than [`MIN_BEYOND`] samples lie strictly beyond that
/// rank.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let rank = rank.clamp(1, sorted.len());
    (sorted.len() - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The median (nearest rank, lower middle for even counts) without the
/// samples-beyond rule: used for the few repeated set-ups of one run.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        // p99 has only one sample beyond it.
        assert_eq!(percentile(&samples, 99.0), None);
        assert_eq!(percentile(&samples[..15], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
