//! Statistics helpers: per-operation minimum over interleaved rounds,
//! percentiles with the "at least ten samples beyond" rule, and the
//! median / quartile / count summary.

/// Per-operation minimum over rounds: `rounds[r][i]` is operation `i`'s
/// wall time in round `r`. On a host whose slowdowns only ever add time,
/// the minimum over rounds is the operation's service time.
pub fn min_over_rounds(rounds: &[Vec<f64>]) -> Vec<f64> {
    let first = rounds.first().expect("at least one round");
    let mut min = first.clone();
    for round in &rounds[1..] {
        assert_eq!(round.len(), min.len(), "rounds time different op counts");
        for (m, &t) in min.iter_mut().zip(round) {
            *m = m.min(t);
        }
    }
    min
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// 1-based nearest rank of the `p`-th percentile of `n` samples. The
/// epsilon keeps `p * n / 100` that is a whole number in exact arithmetic
/// from rounding up a rank (99.9 * 10000 / 100 is 9990.000000000002).
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The highest percentile of `ladder` that has at least ten samples beyond
/// it out of `n`, or `None` when even the lowest does not.
pub fn highest_supported_percentile(n: usize, ladder: &[f64]) -> Option<f64> {
    ladder
        .iter()
        .copied()
        .filter(|&p| n > 0 && samples_beyond(n, p) >= 10)
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

/// Nearest-rank percentile of `values` (need not be sorted).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// Median, quartiles and count of a sample. Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), so spreads
/// printed here match a check made with Python.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "summary of nothing");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        let (p25, p75) = if n < 2 {
            (v[0], v[0])
        } else {
            (quartile(&v, 1), quartile(&v, 3))
        };
        Self {
            median,
            p25,
            p75,
            n,
        }
    }

    /// Interquartile range as a share of the median.
    pub fn iqr_frac(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25) / self.median.abs()
        }
    }
}

/// Quartile `i` (1 or 3) of sorted `v` by the exclusive method.
fn quartile(v: &[f64], i: usize) -> f64 {
    let (ld, m) = (v.len(), v.len() + 1);
    let j = (i * m / 4).clamp(1, ld - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_over_rounds_takes_each_ops_fastest_round() {
        let rounds = vec![
            vec![5.0, 1.0, 9.0],
            vec![4.0, 3.0, 9.5],
            vec![6.0, 2.0, 8.0],
        ];
        assert_eq!(min_over_rounds(&rounds), vec![4.0, 1.0, 8.0]);
        assert_eq!(min_over_rounds(&rounds[..1]), rounds[0]);
    }

    #[test]
    #[should_panic(expected = "different op counts")]
    fn min_over_rounds_rejects_ragged_rounds() {
        min_over_rounds(&[vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    fn percentile_support_needs_ten_samples_beyond() {
        let ladder = [50.0, 90.0, 99.0, 99.9];
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(highest_supported_percentile(1000, &ladder), Some(99.0));
        assert_eq!(highest_supported_percentile(999, &ladder), Some(90.0));
        assert_eq!(highest_supported_percentile(10_000, &ladder), Some(99.9));
        assert_eq!(highest_supported_percentile(19, &ladder), None);
        assert_eq!(highest_supported_percentile(20, &ladder), Some(50.0));
        assert_eq!(highest_supported_percentile(0, &ladder), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn summary_matches_python_statistics() {
        // statistics.median / statistics.quantiles(n=4) of these values.
        let s = Summary::of(&[10.0, 1.0, 4.0, 3.0, 2.0, 8.0, 6.0, 5.0, 9.0, 7.0]);
        assert_eq!((s.median, s.p25, s.p75, s.n), (5.5, 2.75, 8.25, 10));
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.p25, s.p75, s.n), (2.0, 1.0, 3.0, 3));
        let s = Summary::of(&[4.0]);
        assert_eq!((s.median, s.p25, s.p75, s.n), (4.0, 4.0, 4.0, 1));
        assert_eq!(Summary::of(&[1.0, 2.0, 3.0, 4.0]).iqr_frac(), 1.0);
    }
}
