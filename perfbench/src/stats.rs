//! The benchmark's own maths: percentiles and the sample-size rule that
//! decides which tail percentile a sample supports, seed derivation,
//! and metric-name validation.

/// The highest percentile (in `[0, 100)`) that a sample of `n` values
/// supports: at least ten samples must lie beyond it. `None` when fewer
/// than eleven samples exist.
pub fn supported_percentile(n: usize) -> Option<f64> {
    if n <= 10 {
        return None;
    }
    Some(100.0 * (n - 10) as f64 / n as f64)
}

/// Whether a sample of `n` values supports reporting percentile `p`
/// (at least ten samples strictly beyond it).
pub fn supports(n: usize, p: f64) -> bool {
    supported_percentile(n).is_some_and(|top| top + 1e-9 >= p)
}

/// The smallest sample size that supports percentile `p`.
pub fn min_samples_for(p: f64) -> usize {
    (1..).find(|&n| supports(n, p)).unwrap_or(usize::MAX)
}

/// Nearest-rank percentile of an ascending-sorted slice (`p` in
/// `[0, 100]`); 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (nearest rank); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// One splitmix64 step: derives independent seeds from the run seed.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Whether `name` is a valid metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(10), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
        assert_eq!(min_samples_for(99.0), 1000);
        assert_eq!(min_samples_for(50.0), 20);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Exactly ten samples lie beyond the reported p99.
        assert_eq!(v.iter().filter(|&&x| x > percentile(&v, 99.0)).count(), 10);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn arrival_schedule_replays_exactly_per_seed() {
        let a = recipe_bench::timing::arrival_offsets(300.0, 2000, 7);
        let b = recipe_bench::timing::arrival_offsets(300.0, 2000, 7);
        let c = recipe_bench::timing::arrival_offsets(300.0, 2000, 8);
        assert_eq!(a.len(), 2000);
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "offsets are increasing");
        // The mean gap matches the offered rate within sampling error.
        let rate = a.len() as f64 / a[a.len() - 1];
        assert!((rate - 300.0).abs() < 30.0, "rate {rate}");
    }

    #[test]
    fn derived_seeds_differ() {
        assert_ne!(splitmix(1), splitmix(2));
        assert_eq!(splitmix(42), splitmix(42));
    }

    #[test]
    fn name_rule() {
        assert!(valid_name("p50_ms.lo"));
        assert!(valid_name("serve.queue_wait_us"));
        assert!(valid_name("9lives-x"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name(&"x".repeat(65)));
    }
}
