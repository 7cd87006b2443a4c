//! Estimators. A run is cut into slices, each slice yields one value,
//! and the run reports the *quiet decile* across slices: the host
//! drifts between speed regimes for seconds at a time and loses about
//! 1 % of wall time to scheduler stalls, so a mean over a run does not
//! repeat, while a quantile on the undisturbed side does. The decile,
//! not the quartile: with a neighbour busy half of the time, q90 of the
//! corrected slice rates spread 6 % over twenty runs where q75 spread
//! 11 %; with ≥ 40 slices it still has four slices beyond it.

/// Linear-interpolated quantile (`q` in 0..=1) of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts `values` in place and returns its `q` quantile.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    quantile_sorted(values, q)
}

/// Median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Which way a metric improves; picks the decile on the quiet side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Rates: the quiet slices are the fast ones, so q90.
    Higher,
    /// Latencies and durations: the quiet slices are the short ones,
    /// so q10.
    Lower,
}

/// Quiet-decile value of per-slice values, with the relative
/// interquartile spread the run saw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quiet {
    /// q90 for rates, q10 for latencies and durations.
    pub value: f64,
    /// (q75 − q25) ÷ q50 across the slices.
    pub spread: f64,
}

/// The quiet decile of `values` (sorted in place).
pub fn quiet(values: &mut [f64], better: Better) -> Quiet {
    values.sort_unstable_by(f64::total_cmp);
    let q25 = quantile_sorted(values, 0.25);
    let q50 = quantile_sorted(values, 0.50);
    let q75 = quantile_sorted(values, 0.75);
    Quiet {
        value: match better {
            Better::Higher => quantile_sorted(values, 0.90),
            Better::Lower => quantile_sorted(values, 0.10),
        },
        spread: if q50 == 0.0 { 0.0 } else { (q75 - q25) / q50 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 0.5), 3.0);
        assert_eq!(quantile_sorted(&v, 1.0), 5.0);
        assert_eq!(quantile_sorted(&v, 0.25), 2.0);
        assert!((quantile_sorted(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(quantile_sorted(&[7.0], 0.9), 7.0);
        let mut unsorted = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&mut unsorted), 3.0);
    }

    #[test]
    fn quiet_decile_ignores_a_slow_regime() {
        // A run that spent 80 % of its slices at half speed: the mean
        // moves with the share of slow slices, q90 does not.
        let mut rates: Vec<f64> = (0..100)
            .map(|i| if i < 80 { 50.0 } else { 100.0 })
            .collect();
        let q = quiet(&mut rates, Better::Higher);
        assert_eq!(q.value, 100.0);
        let mut lats: Vec<f64> = (0..100).map(|i| if i < 80 { 20.0 } else { 10.0 }).collect();
        assert_eq!(quiet(&mut lats, Better::Lower).value, 10.0);
    }

    #[test]
    fn spread_is_the_interquartile_range_over_the_median() {
        let mut v: Vec<f64> = (1..=5).map(f64::from).collect();
        let q = quiet(&mut v, Better::Lower);
        assert!((q.value - 1.4).abs() < 1e-12);
        assert!((q.spread - 2.0 / 3.0).abs() < 1e-12);
    }
}
