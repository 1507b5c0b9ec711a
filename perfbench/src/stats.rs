//! Exact order statistics over raw samples.

/// Median of `xs` (mean of the two middle values for an even count).
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// One exact quantile read off the sorted samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// Percentile actually reported (100 = the maximum).
    pub pct: f64,
    pub value: f64,
    /// Samples the quantile was taken over.
    pub n: usize,
}

impl std::fmt::Display for Quantile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.pct >= 100.0 {
            write!(f, "max={:.4} (n={})", self.value, self.n)
        } else {
            write!(f, "p{}={:.4} (n={})", self.pct, self.value, self.n)
        }
    }
}

/// Nearest-rank quantile: the smallest sample with at least `pct`% of
/// the samples at or below it.
fn nearest_rank(sorted: &[f64], pct: f64) -> (usize, f64) {
    let n = sorted.len();
    let rank = ((pct / 100.0) * n as f64).ceil().max(1.0) as usize;
    let idx = rank.min(n) - 1;
    (idx, sorted[idx])
}

/// The median of the raw samples.
pub fn p50(xs: &[f64]) -> Quantile {
    Quantile {
        pct: 50.0,
        value: median(xs),
        n: xs.len(),
    }
}

/// The highest of p99, p95, p90, p75 and p50 that still has at least
/// ten samples above it; the maximum when even p50 has fewer.
pub fn tail(xs: &[f64]) -> Quantile {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return Quantile {
            pct: 100.0,
            value: f64::NAN,
            n,
        };
    }
    for pct in [99.0, 95.0, 90.0, 75.0, 50.0] {
        let (idx, value) = nearest_rank(&s, pct);
        if n - 1 - idx >= 10 {
            return Quantile { pct, value, n };
        }
    }
    Quantile {
        pct: 100.0,
        value: s[n - 1],
        n,
    }
}

/// The nearest-rank `pct` quantile, without the ten-sample rule (used
/// for pass/fail limits, never reported as a metric).
pub fn quantile(xs: &[f64], pct: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    nearest_rank(&s, pct).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let q = tail(&xs);
        assert_eq!((q.pct, q.value, q.n), (99.0, 990.0, 1000));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs).pct, 90.0);
        let xs: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!((tail(&xs).pct, tail(&xs).value), (100.0, 5.0));
    }
}
