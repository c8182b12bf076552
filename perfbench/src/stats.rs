//! The benchmark's own arithmetic: nearest-rank percentiles, the
//! "at least ten samples beyond" rule, quartiles as Python's
//! `statistics.quantiles(values, n=4)` computes them, and ratios that
//! always travel with their base.

use std::collections::BTreeMap;

/// Samples a percentile must leave beyond it before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0 < p <= 100) in `n` samples.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n.max(1))
}

/// Nearest-rank percentile of `values` (unsorted is fine). `None` when
/// there are no samples.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(p, sorted.len()) - 1])
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(p: f64, n: usize) -> usize {
    n.saturating_sub(nearest_rank(p, n))
}

/// True when percentile `p` of `n` samples has at least [`MIN_BEYOND`]
/// samples beyond it, so it may be reported.
pub fn percentile_supported(p: f64, n: usize) -> bool {
    n > 0 && samples_beyond(p, n) >= MIN_BEYOND
}

/// The median (p50 by nearest rank).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// First quartile, median and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`. Needs two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median (`None` for a zero
/// median or fewer than two samples).
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// Named metrics in output order.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<String, Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), Metric { value, unit });
    }

    /// Reports `numerator / base` under `name` together with the base
    /// itself under `base_name`, so a ratio is never read without it.
    /// A zero base reports no ratio.
    pub fn put_ratio(
        &mut self,
        name: &str,
        numerator: f64,
        base_name: &str,
        base: f64,
        base_unit: &'static str,
    ) {
        self.put(base_name, base, base_unit);
        if base != 0.0 {
            self.put(name, numerator / base, "ratio");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.1), Some(1.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(samples_beyond(90.0, 100), 10);
        assert!(percentile_supported(90.0, 100));
        assert!(!percentile_supported(90.0, 99));
        assert!(!percentile_supported(99.0, 999));
        assert!(percentile_supported(99.0, 1000));
        assert!(percentile_supported(50.0, 20));
        assert!(!percentile_supported(50.0, 19));
        assert!(!percentile_supported(50.0, 0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 3.0, 1.0]), Some([1.25, 2.5, 3.75]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
        assert_eq!(relative_spread(&[2.0; 10]), Some(0.0));
    }

    #[test]
    fn ratios_carry_their_base() {
        let mut m = Metrics::default();
        m.put_ratio(
            "logger.host_overhead.talos",
            30.0,
            "workloads.run_unlogged_ms.talos",
            20.0,
            "ms",
        );
        let get = |m: &Metrics, name: &str| m.0.get(name).map(|m| m.value);
        assert_eq!(get(&m, "logger.host_overhead.talos"), Some(1.5));
        assert_eq!(get(&m, "workloads.run_unlogged_ms.talos"), Some(20.0));
        m.put_ratio("x", 1.0, "x_base", 0.0, "ms");
        assert_eq!(get(&m, "x"), None);
        assert_eq!(get(&m, "x_base"), Some(0.0));
    }
}
