//! Order statistics and the class-boundary rule the workloads are
//! designed around.

/// The `p`-th percentile (0 < p <= 100) by the nearest-rank method: the
/// smallest sample with at least `p`% of the samples at or below it.
/// Always an observed value, never an interpolation between two.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Interior boundaries, in percentile points, between cost classes of
/// the given shares (percent, summing to 100) once the classes are laid
/// out cheapest first.
pub fn class_boundaries(shares_cheapest_first: &[f64]) -> Vec<f64> {
    let mut at = 0.0;
    let mut out = Vec::new();
    for s in &shares_cheapest_first[..shares_cheapest_first.len().saturating_sub(1)] {
        at += s;
        out.push(at);
    }
    out
}

/// Smallest distance, in percentile points, between any reported
/// percentile and any class boundary.
pub fn boundary_margin(percentiles: &[f64], boundaries: &[f64]) -> f64 {
    percentiles
        .iter()
        .flat_map(|p| boundaries.iter().map(move |b| (p - b).abs()))
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hms_stats::rng::Rng;

    #[test]
    fn nearest_rank_matches_exact_order_statistics() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);

        let mut rng = Rng::seed_from_u64(11);
        for n in [1usize, 2, 3, 10, 99, 1000, 1001] {
            let xs: Vec<f64> = (0..n).map(|_| rng.gen_f64()).collect();
            let mut sorted = xs.clone();
            sorted.sort_by(f64::total_cmp);
            for p in [1.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
                // The k-th order statistic with k = ceil(p n / 100).
                let k = ((p * n as f64) / 100.0).ceil().max(1.0) as usize;
                assert_eq!(percentile(&xs, p), sorted[k - 1], "n={n} p={p}");
                // Nearest rank: at least p% at or below, fewer below.
                let v = percentile(&xs, p);
                let at_or_below = xs.iter().filter(|x| **x <= v).count();
                let below = xs.iter().filter(|x| **x < v).count();
                assert!(at_or_below as f64 >= p / 100.0 * n as f64);
                assert!((below as f64) < p / 100.0 * n as f64 || below == 0);
            }
        }
    }

    #[test]
    fn boundaries_and_margin() {
        assert_eq!(class_boundaries(&[60.0, 15.0, 25.0]), vec![60.0, 75.0]);
        assert_eq!(boundary_margin(&[50.0, 90.0, 99.0], &[60.0, 75.0]), 10.0);
        assert_eq!(class_boundaries(&[100.0]), Vec::<f64>::new());
    }
}
