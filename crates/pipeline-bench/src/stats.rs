//! The arithmetic every reported number rests on: nearest-rank
//! percentiles, medians, quartiles, and the five-segment throughput
//! median.

/// Nearest-rank percentile of an unsorted sample: the value at 1-based
/// rank `ceil(q · n)`. `q` is clamped to `[0, 1]`; an empty sample
/// yields `0.0`.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// How many samples lie strictly beyond the nearest-rank `q`
/// percentile — printed with every percentile so a reader can see what
/// the tail rests on.
#[must_use]
pub fn samples_beyond(n: usize, q: f64) -> usize {
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// Median with the even-length midpoint (the convention of Python's
/// `statistics.median`, which the acceptance harness uses).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// First and third quartile, by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)` — the same rule the acceptance
/// harness applies to ten runs. Needs at least two samples.
#[must_use]
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    // j = k(n+1) div 4 clamped to [1, n-1]; the remainder (which the
    // clamp can push outside [0, 4]) weights the two neighbours.
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        #[allow(clippy::cast_precision_loss)]
        let delta = pos as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// `(q3 − q1) ÷ median`: the run-to-run spread the acceptance harness
/// holds against each metric's bound.
#[must_use]
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    let mid = median(samples);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid
    }
}

/// Throughput as the median of `segments` consecutive segments: each
/// segment's rate is its work divided by its seconds. `work` and
/// `seconds` hold one entry per window; windows past the last whole
/// segment are ignored (N is always a multiple of the segment count).
#[must_use]
pub fn segment_median_rate(work: &[u64], seconds: &[f64], segments: usize) -> f64 {
    median(&segment_rates(work, seconds, segments))
}

/// The per-segment rates behind [`segment_median_rate`].
#[must_use]
pub fn segment_rates(work: &[u64], seconds: &[f64], segments: usize) -> Vec<f64> {
    let per = work.len() / segments.max(1);
    if per == 0 {
        return Vec::new();
    }
    (0..segments)
        .map(|s| {
            let range = s * per..(s + 1) * per;
            #[allow(clippy::cast_precision_loss)]
            let done = work[range.clone()].iter().sum::<u64>() as f64;
            let took: f64 = seconds[range].iter().sum();
            if took > 0.0 {
                done / took
            } else {
                0.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(400, 0.9), 40);
        assert_eq!(samples_beyond(600, 0.9), 60);
        assert_eq!(samples_beyond(10, 0.5), 5);
        assert_eq!(samples_beyond(0, 0.9), 0);
    }

    #[test]
    fn median_takes_the_midpoint_of_an_even_sample() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&ten);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn one_slow_segment_does_not_move_the_segment_median() {
        // Ten windows of 100 alerts at 1 ms each: 100k alerts/s.
        let work = vec![100u64; 10];
        let mut seconds = vec![0.001; 10];
        let clean = segment_median_rate(&work, &seconds, 5);
        assert!((clean - 100_000.0).abs() < 1e-6);
        // A noisy-neighbour burst makes one segment 10× slower.
        seconds[4] = 0.010;
        seconds[5] = 0.010;
        let noisy = segment_median_rate(&work, &seconds, 5);
        assert!((noisy - 100_000.0).abs() < 1e-6, "median moved to {noisy}");
        // The plain mean would have moved a lot.
        let mean = 1000.0 / seconds.iter().sum::<f64>();
        assert!(mean < 40_000.0);
    }
}
