//! Order statistics over round and job samples.

/// Sorts ascending (NaN-free by construction: every sample is a measured
/// duration or count).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let deviations: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&deviations)
}

/// Which end of the round samples a metric reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pick {
    /// Best repeat of a time (`_s`, `_ms`).
    Min,
    /// Best round of a rate (`_per_s`).
    Max,
    /// Median round (memory).
    Median,
}

/// The reported value of one metric over its rounds, with the dispersion
/// recorded beside it.
#[derive(Clone, Debug)]
pub struct Summary {
    pub value: f64,
    pub median: f64,
    pub mad: f64,
    /// Every round's sample, in round order.
    pub samples: Vec<f64>,
}

pub fn summarize(values: &[f64], pick: Pick) -> Summary {
    let value = match pick {
        Pick::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
        Pick::Max => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        Pick::Median => median(values),
    };
    Summary {
        value: if values.is_empty() { 0.0 } else { value },
        median: median(values),
        mad: mad(values),
        samples: values.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_and_mad() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
    }

    #[test]
    fn summarize_picks_the_best_round() {
        let v = [3.0, 1.0, 2.0];
        assert_eq!(summarize(&v, Pick::Min).value, 1.0);
        assert_eq!(summarize(&v, Pick::Max).value, 3.0);
        assert_eq!(summarize(&v, Pick::Median).value, 2.0);
        assert_eq!(summarize(&[], Pick::Min).value, 0.0);
    }
}
