//! Sample statistics: nearest-rank percentiles for latency samples, and the
//! median and quartiles used to judge run-to-run spread.

/// Nearest-rank percentile: the smallest sample whose rank is at least
/// `ceil(q * n)`. `None` for an empty sample.
pub fn nearest_rank(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The middle value (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len();
    Some(if m % 2 == 1 {
        sorted[m / 2]
    } else {
        (sorted[m / 2 - 1] + sorted[m / 2]) / 2.0
    })
}

/// First and third quartile with the "exclusive" interpolation of Python's
/// `statistics.quantiles(values, n=4)`. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let m = samples.len();
    if m < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_hand_computed_samples() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        // ceil(0.5 * 10) = 5th value, ceil(0.9 * 10) = 9th value.
        assert_eq!(nearest_rank(&ten, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&ten, 0.9), Some(9.0));
        // Order of the input does not matter.
        let shuffled = [7.0, 3.0, 10.0, 1.0, 9.0, 2.0, 8.0, 4.0, 6.0, 5.0];
        assert_eq!(nearest_rank(&shuffled, 0.9), Some(9.0));
        // Five samples: p50 is the 3rd, p90 the 5th (ceil 4.5).
        let five = [0.4, 0.1, 0.5, 0.3, 0.2];
        assert_eq!(nearest_rank(&five, 0.5), Some(0.3));
        assert_eq!(nearest_rank(&five, 0.9), Some(0.5));
        // 101 samples: p90 is the 91st (ceil 90.9).
        let many: Vec<f64> = (0..101).map(f64::from).collect();
        assert_eq!(nearest_rank(&many, 0.9), Some(90.0));
        assert_eq!(nearest_rank(&many, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&[2.5], 0.9), Some(2.5));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&ten), Some(5.5));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
