//! Order statistics the benchmark reports: medians, quartiles, the
//! tail-percentile rule, and a latency histogram for loops too long to
//! keep every sample.

/// Percentiles the tail rule may pick from, highest first.
const TAIL_CANDIDATES: [u64; 4] = [99, 90, 75, 50];

/// Samples needed beyond a percentile before it may be reported.
const BEYOND: u64 = 10;

/// The highest candidate percentile with at least ten samples beyond its
/// nearest rank out of `n`, or `None` when even the median lacks them
/// (`n < 20`).
pub fn tail_percentile(n: u64) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|p| n - (p * n).div_ceil(100) >= BEYOND)
        .map(|p| p as f64)
}

/// Nearest-rank percentile of sorted samples (`p` in (0, 100]).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of the samples (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len() as i64;
    let m = ld + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (d[j as usize - 1] * (4.0 - delta) + d[j as usize] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median: the run-to-run spread a
/// metric's bound is judged against.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Latency histogram: 1 ns buckets below [`LINEAR_NS`], then 64
/// log-spaced buckets per octave. Percentiles interpolate inside the
/// bucket, so a reported value keeps sub-bucket digits.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

/// Upper end of the exact 1 ns range.
const LINEAR_NS: u64 = 16_384;
/// Sub-buckets per octave above the linear range.
const PER_OCTAVE: u64 = 64;
/// Octaves covered above the linear range (up to ~2^54 ns).
const OCTAVES: u64 = 40;

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: vec![0; (LINEAR_NS + PER_OCTAVE * OCTAVES) as usize],
            total: 0,
        }
    }
}

impl Histogram {
    fn index(ns: u64) -> usize {
        if ns < LINEAR_NS {
            return ns as usize;
        }
        let octave = u64::from(63 - (ns / LINEAR_NS).leading_zeros());
        let base = LINEAR_NS << octave;
        let sub = (ns - base) * PER_OCTAVE / base;
        (LINEAR_NS + (octave * PER_OCTAVE + sub).min(PER_OCTAVE * OCTAVES - 1)) as usize
    }

    /// `[low, high)` nanoseconds of bucket `i`.
    fn bounds(i: usize) -> (f64, f64) {
        let i = i as u64;
        if i < LINEAR_NS {
            return (i as f64, (i + 1) as f64);
        }
        let k = i - LINEAR_NS;
        let base = (LINEAR_NS << (k / PER_OCTAVE)) as f64;
        let width = base / PER_OCTAVE as f64;
        let low = base + (k % PER_OCTAVE) as f64 * width;
        (low, low + width)
    }

    /// Adds one sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[Histogram::index(ns)] += 1;
        self.total += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `p`-th percentile (nearest rank, interpolated inside its
    /// bucket).
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(self.total > 0, "percentile of an empty histogram");
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0);
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (before + c) as f64 >= rank {
                let (low, high) = Histogram::bounds(i);
                let within = (rank - before as f64 - 0.5) / c as f64;
                return low + (high - low) * within.clamp(0.0, 1.0);
            }
            before += c;
        }
        unreachable!("rank is at most the total count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 22.5));
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_percentiles_track_exact_ones() {
        let mut h = Histogram::default();
        let mut exact = Vec::new();
        for i in 0..10_000u64 {
            let ns = 200 + (i * 7919) % 900;
            h.record(ns);
            exact.push(ns as f64);
        }
        exact.sort_by(f64::total_cmp);
        for p in [50.0, 90.0, 99.0] {
            let (a, b) = (h.percentile(p), percentile_sorted(&exact, p));
            assert!((a - b).abs() <= 1.0, "p{p}: {a} vs {b}");
        }
        assert_eq!(h.count(), 10_000);
    }

    #[test]
    fn histogram_log_range_is_within_two_percent() {
        let mut h = Histogram::default();
        for ns in [40_000u64, 1_000_000, 3_000_000_000] {
            h.record(ns);
            let (low, high) = Histogram::bounds(Histogram::index(ns));
            assert!(
                low <= ns as f64 && (ns as f64) < high,
                "{ns} in [{low}, {high})"
            );
            assert!(high / low < 1.02);
        }
        let mut other = Histogram::default();
        other.record(5);
        h.merge(&other);
        assert_eq!(h.count(), 4);
        assert!(h.percentile(1.0) < 6.0);
    }
}
