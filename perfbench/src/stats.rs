//! Order statistics over timing samples.

/// Linear-interpolated quantile `q` (0..=1) of `sorted`, which must be
/// sorted ascending; 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// A sorted copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The tail percentile this benchmark reports for `n` samples: the
/// highest percentile, capped at 99, that still has at least ten
/// samples beyond it. With 1000 or more samples that is p99; with 300
/// it is p96.67. Fewer than eleven samples leave no tail: `None`.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n <= 10 {
        return None;
    }
    Some((100.0 * (1.0 - 10.0 / n as f64)).min(99.0))
}

/// Mean of the order statistics within `half` ranks of quantile `q` of
/// `sorted`: a kernel-smoothed quantile. Op latencies of a fixed job
/// set cluster by kernel, and a single order statistic at a cluster
/// edge jumps with the noise of that edge; the band mean does not.
pub fn smoothed_quantile(sorted: &[f64], q: f64, half: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = (pos - half as f64).floor().max(0.0) as usize;
    let hi = ((pos + half as f64).ceil() as usize).min(n - 1);
    let band = &sorted[lo..=hi];
    band.iter().sum::<f64>() / band.len() as f64
}

/// The median latency, smoothed over the middle fifth of the samples.
pub fn smoothed_median(samples: &[f64]) -> f64 {
    smoothed_quantile(&sorted(samples), 0.5, samples.len() / 10)
}

/// The latency at [`tail_percentile`], smoothed over a band as wide as
/// the samples beyond it.
pub fn tail(samples: &[f64]) -> Option<f64> {
    let n = samples.len();
    let p = tail_percentile(n)?;
    let beyond = (n as f64 * (1.0 - p / 100.0)).floor() as usize;
    Some(smoothed_quantile(&sorted(samples), p / 100.0, beyond / 2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(5000), Some(99.0), "capped at p99");
        assert_eq!(tail_percentile(200), Some(95.0));
        for n in 11..3000 {
            let p = tail_percentile(n).unwrap();
            let beyond = n as f64 * (1.0 - p / 100.0);
            assert!(
                beyond >= 10.0 - 1e-9,
                "n={n}: only {beyond} samples beyond p{p}"
            );
            if p < 99.0 {
                assert!(beyond < 10.0 + 1e-9, "n={n}: p{p} is not the highest");
            }
        }
    }

    #[test]
    fn tail_of_uniform_samples_sits_below_the_top_ten() {
        let samples: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let t = tail(&samples).unwrap();
        // p95 of 1..=200 is 190.05, with ten samples (191..=200) above
        // it; the band of ranks 184..=195 averages to 190.5.
        assert!((quantile(&sorted(&samples), 0.95) - 190.05).abs() < 1e-9);
        assert!((t - 190.5).abs() < 1e-9, "{t}");
        assert_eq!(samples.iter().filter(|&&s| s > t).count(), 10);
        assert_eq!(tail(&samples[..10]), None);
    }

    #[test]
    fn smoothed_median_bridges_a_gap_between_clusters() {
        // Half the ops take ~10 ms, half ~30 ms: the plain median is
        // the noisy midpoint of the two cluster edges; the band mean
        // averages a fifth of the samples around it.
        let mut samples: Vec<f64> = (0..50).map(|i| 10.0 + f64::from(i) * 0.01).collect();
        samples.extend((0..50).map(|i| 30.0 + f64::from(i) * 0.01));
        let m = smoothed_median(&samples);
        assert!((m - 20.245).abs() < 1e-9, "{m}");
        assert_eq!(smoothed_quantile(&[], 0.5, 3), 0.0);
        assert_eq!(smoothed_quantile(&[4.0], 0.5, 3), 4.0);
    }

    #[test]
    fn quantile_interpolates_and_median_sorts() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }
}
