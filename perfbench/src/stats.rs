//! Statistics helpers: percentiles that refuse thin tails, medians of
//! repetitions, quartile summaries and the tail window.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile the samples cannot support: fewer than [`MIN_BEYOND`]
/// samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Refused {
    /// Samples available.
    pub samples: usize,
    /// Samples that would lie beyond the percentile.
    pub beyond: usize,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `p` (0 < p < 100), refused unless at least
/// [`MIN_BEYOND`] samples lie strictly beyond its rank.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, Refused> {
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || rank == 0 || beyond < MIN_BEYOND {
        return Err(Refused { samples: n, beyond });
    }
    Ok(sorted(samples)[rank - 1])
}

/// The median of repetitions (mean of the middle two for an even count).
/// Unlike [`percentile`] it needs no tail: it summarises whole repeated
/// runs, not a latency distribution.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Each position's median across repetitions of one fixed operation
/// sequence: position `i` of the result is the median of position `i`
/// over every repetition, so a minority of repetitions slowed by other
/// work on the host does not move it. The result is as long as the
/// shortest repetition.
pub fn elementwise_median(reps: &[Vec<f64>]) -> Vec<f64> {
    let len = reps.iter().map(Vec::len).min().unwrap_or(0);
    (0..len)
        .map(|i| median(&reps.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect()
}

/// Min, quartiles, median and max of a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

/// Summarise a series. Quartiles use the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`, so a summary here matches one
/// computed from the same values there; with fewer than two samples
/// both quartiles equal the median.
pub fn summary(samples: &[f64]) -> Option<Summary> {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let quartile = |i: usize| -> f64 {
        if n < 2 {
            return v[0];
        }
        // Position (n + 1) * i / 4, 1-based, clamped to the data.
        let m = (n + 1) as f64 * i as f64 / 4.0;
        let j = (m.floor() as usize).clamp(1, n - 1);
        let delta = m - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some(Summary {
        n,
        min: v[0],
        q1: quartile(1),
        median: median(&v),
        q3: quartile(3),
        max: v[n - 1],
    })
}

/// The tail window: given the item count of each consecutive batch
/// (waves of flows, say), the index of the first batch holding any of
/// the last tenth of all items. Batches from there on are the tail.
pub fn tail_start(batch_sizes: &[usize]) -> usize {
    let total: usize = batch_sizes.iter().sum();
    // Items with 0-based index >= cut are the last tenth.
    let cut = total - total.div_ceil(10);
    let mut seen = 0;
    for (i, &size) in batch_sizes.iter().enumerate() {
        if seen + size > cut {
            return i;
        }
        seen += size;
    }
    batch_sizes.len()
}

/// The head window: the number of leading batches that hold the first
/// tenth of all items (at least one batch when there are any).
pub fn head_end(batch_sizes: &[usize]) -> usize {
    let total: usize = batch_sizes.iter().sum();
    let want = total.div_ceil(10);
    let mut seen = 0;
    for (i, &size) in batch_sizes.iter().enumerate() {
        seen += size;
        if seen >= want {
            return i + 1;
        }
    }
    batch_sizes.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_fewer_than_ten_beyond() {
        let ninety_nine: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(
            percentile(&ninety_nine, 99.0),
            Err(Refused {
                samples: 999,
                beyond: 9
            })
        );
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99.0), Ok(990.0));
        assert_eq!(percentile(&thousand, 50.0), Ok(500.0));
        let nineteen: Vec<f64> = (1..=19).map(f64::from).collect();
        assert!(
            percentile(&nineteen, 50.0).is_err(),
            "p50 of 19 samples has 9 beyond"
        );
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 50.0), Ok(10.0));
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn elementwise_median_takes_each_positions_median() {
        let three = vec![vec![3.0, 1.0], vec![2.0, 4.0, 7.0], vec![9.0, 5.0]];
        assert_eq!(elementwise_median(&three), vec![3.0, 4.0]);
        assert!(elementwise_median(&[]).is_empty());
    }

    #[test]
    fn summary_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = summary(&(1..=10).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        let s = summary(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 3.0, 5.0));
        let s = summary(&[4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (4.0, 4.0, 4.0));
        assert!(summary(&[]).is_none());
    }

    #[test]
    fn tail_window_holds_the_last_tenth() {
        // 16 waves of 250: the last tenth (400 flows) spans the last two
        // waves (the 15th holds flows 3500..3750).
        let waves = vec![250; 16];
        assert_eq!(tail_start(&waves), 14);
        assert_eq!(head_end(&waves), 2);
        // Ten equal waves: exactly the last one / the first one.
        assert_eq!(tail_start(&[10; 10]), 9);
        assert_eq!(head_end(&[10; 10]), 1);
        // One wave is both head and tail.
        assert_eq!(tail_start(&[7]), 0);
        assert_eq!(head_end(&[7]), 1);
    }
}
