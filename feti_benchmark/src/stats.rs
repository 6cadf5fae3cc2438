//! Sample summaries and the metric record every number of the benchmark is
//! reported through.  No best-of-N anywhere: a timing is the median of its samples,
//! with the sample count and the spread beside it.

/// What a number is, so modelled seconds are never mistaken for wall seconds and the
/// comparison mode knows which values must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Measured with a wall clock around a call.
    Wall,
    /// Produced by the `feti-gpu` cost model: deterministic, never summed with wall.
    Modelled,
    /// A count made by the program; repeats exactly.
    Count,
    /// Derived from other numbers (ratios, rates, fractions).
    Ratio,
}

impl Kind {
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Wall => "wall",
            Kind::Modelled => "modelled",
            Kind::Count => "count",
            Kind::Ratio => "ratio",
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of the sorted samples (`q` in `[0, 1]`); 0 for an
/// empty slice, which only a layer the workload does not exercise produces.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest of p99/p95/p90 that still has at least ten samples beyond it.
pub fn tail_percentile(n: usize) -> Option<u32> {
    [99u32, 95, 90].into_iter().find(|p| n as f64 * (100 - p) as f64 / 100.0 >= 10.0)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub kind: Kind,
    pub median: f64,
    pub n: usize,
    pub min: f64,
    pub max: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)` where the sample count supports one.
    pub tail: Option<(u32, f64)>,
}

impl Metric {
    pub fn from_samples(name: &str, unit: &'static str, kind: Kind, samples: &[f64]) -> Self {
        let tail =
            tail_percentile(samples.len()).map(|p| (p, quantile(samples, f64::from(p) / 100.0)));
        Metric {
            name: name.to_string(),
            unit,
            kind,
            median: median(samples),
            n: samples.len(),
            min: quantile(samples, 0.0),
            max: quantile(samples, 1.0),
            q1: quantile(samples, 0.25),
            q3: quantile(samples, 0.75),
            tail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
    }

    #[test]
    fn metric_summarises_samples() {
        let m = Metric::from_samples("x", "s", Kind::Wall, &[1.0, 2.0, 3.0, 4.0, 100.0]);
        assert_eq!((m.median, m.n, m.min, m.max), (3.0, 5, 1.0, 100.0));
        assert_eq!((m.q1, m.q3), (2.0, 4.0));
        let empty = Metric::from_samples("x", "s", Kind::Wall, &[]);
        assert_eq!((empty.median, empty.n, empty.min, empty.max), (0.0, 0, 0.0, 0.0));
    }
}
