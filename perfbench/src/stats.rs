//! Order statistics over job wall times and the result line's JSON.

/// Median of `values` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail of the job times: the highest percentile that still has at
/// least ten samples beyond it, but never below p75. With `n` sorted
/// samples that is the value at rank `max(n - 10, ceil(3n/4))`
/// (1-based); it returns the value and the rank. The floor keeps it a
/// tail when a run has fewer than forty jobs.
pub fn tail(values: &[f64]) -> (f64, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0);
    }
    let rank = n.saturating_sub(10).max((3 * n).div_ceil(4));
    (v[rank - 1], rank)
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line: exactly the keys `correct`, `attempted`, `failed`
/// and `metrics`, with every value printed with all its digits.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a metric that could not be
            // measured reads 0 and the run is already marked incorrect.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=60).map(f64::from).collect();
        let (value, rank) = tail(&v);
        assert_eq!((value, rank), (50.0, 50));
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
    }

    #[test]
    fn tail_is_never_below_p75() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), (15.0, 15));
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (3.0, 3));
        assert_eq!(tail(&[]), (0.0, 0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
