//! Order statistics over timing samples.

/// The median of `samples` (mean of the middle pair for an even count);
/// `0.0` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The highest percentile of `samples` that still has at least ten samples
/// above it: the value at sorted index `n - 11`, with its percentile.
/// With eleven samples or fewer, the largest sample and its percentile.
pub fn tail(samples: &[f64]) -> Tail {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 0 {
        return Tail { value: 0.0, percentile: 0.0, samples: 0, beyond: 0 };
    }
    let index = if n <= 11 { n - 1 } else { n - 11 };
    Tail {
        value: sorted[index],
        percentile: 100.0 * (index + 1) as f64 / n as f64,
        samples: n,
        beyond: n - 1 - index,
    }
}

/// A tail percentile and the sample counts it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, in percent.
    pub percentile: f64,
    /// Samples in all.
    pub samples: usize,
    /// Samples above the reported one.
    pub beyond: usize,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!(t.value, 30.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.percentile, 75.0);
        let few = tail(&[1.0, 5.0, 2.0]);
        assert_eq!((few.value, few.beyond), (5.0, 0));
    }
}
