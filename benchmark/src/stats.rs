//! The statistics every reported number goes through: nearest-rank
//! percentiles with a minimum tail population, medians over measured
//! segments, and the two spreads printed beside them.

/// Fewest samples that must lie beyond a percentile for it to be reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile (`p` in `(0, 1]`) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the `p` percentile among `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Whether `n` samples leave at least [`MIN_TAIL_SAMPLES`] beyond `p`.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && samples_beyond(n, p) >= MIN_TAIL_SAMPLES
}

fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Percentile of unsorted samples; 0 when there are none (a layer that is
/// not on a workload's path).
pub fn percentile_of(mut samples: Vec<f64>, p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    percentile(&samples, p)
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::MIN, f64::max)
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::MAX, f64::min)
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(max − min) / median`: a run's own noise floor over its segments.
pub fn range_share(values: &[f64]) -> f64 {
    (max(values) - min(values)) / median(values)
}

/// `(Q3 − Q1) / median` with the quartiles of Python's
/// `statistics.quantiles(values, n=4)`, the spread the acceptance check
/// uses across runs. Needs at least two values.
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(&v)
}

/// A metric measured once per segment and reported as the median.
#[derive(Debug, Clone)]
pub struct Segmented {
    pub per_segment: Vec<f64>,
    /// Fewest samples any segment's statistic was computed from.
    pub min_samples: usize,
}

impl Segmented {
    pub fn value(&self) -> f64 {
        median(&self.per_segment)
    }

    pub fn noise(&self) -> f64 {
        range_share(&self.per_segment)
    }
}

/// Percentile `p` of each segment's latencies. `None` when any segment has
/// too few samples beyond `p` to support it.
pub fn segment_percentile(segments: &mut [Vec<f64>], p: f64) -> Option<Segmented> {
    let min_samples = segments.iter().map(Vec::len).min()?;
    if !supports(min_samples, p) {
        return None;
    }
    let per_segment = segments
        .iter_mut()
        .map(|s| {
            s.sort_by(f64::total_cmp);
            percentile(s, p)
        })
        .collect();
    Some(Segmented {
        per_segment,
        min_samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[3.0], 0.95), 3.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p95 of 199 samples: rank 190, 9 beyond. 200 samples: 10 beyond.
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert!(!supports(199, 0.95));
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert!(supports(200, 0.95));
        assert!(supports(20, 0.50));
        assert!(!supports(19, 0.50));
        assert!(!supports(0, 0.50));

        let mut thin = vec![vec![1.0; 200], vec![1.0; 199]];
        assert!(segment_percentile(&mut thin, 0.95).is_none());
        let mut enough = vec![vec![1.0; 200], vec![2.0; 200]];
        let stat = segment_percentile(&mut enough, 0.95).unwrap();
        assert_eq!(stat.min_samples, 200);
        assert_eq!(stat.per_segment, vec![1.0, 2.0]);
    }

    #[test]
    fn a_metric_is_the_median_of_its_segments() {
        let stat = Segmented {
            per_segment: vec![10.0, 30.0, 11.0, 12.0, 9.0],
            min_samples: 0,
        };
        // One disturbed segment does not move the reported value.
        assert_eq!(stat.value(), 11.0);
        assert!((stat.noise() - 21.0 / 11.0).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert!((iqr_share(&[16.0, 1.0, 8.0, 2.0, 4.0]) - 10.5 / 4.0).abs() < 1e-12);
    }
}
