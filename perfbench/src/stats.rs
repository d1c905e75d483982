//! Order statistics and the seeded sampler.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `pct`-th percentile of `values`, with the number of
/// samples strictly above the rank.
pub fn percentile(values: &[f64], pct: f64) -> (f64, usize) {
    assert!(!values.is_empty(), "percentile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    (v[rank - 1], v.len() - rank)
}

/// SplitMix64: a tiny, well-mixed generator, enough to pick and order
/// the traced sample from `--seed`.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The first `k` items of a seeded Fisher–Yates shuffle of `items`.
    pub fn sample<T>(&mut self, mut items: Vec<T>, k: usize) -> Vec<T> {
        let n = items.len();
        for i in 0..n.min(k) {
            let j = i + (self.next() % (n - i) as u64) as usize;
            items.swap(i, j);
        }
        items.truncate(k);
        items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), (95.0, 5));
        assert_eq!(percentile(&v, 50.0), (50.0, 50));
    }

    #[test]
    fn sample_is_seeded() {
        let a = SplitMix::new(7).sample((0..50).collect::<Vec<_>>(), 10);
        let b = SplitMix::new(7).sample((0..50).collect::<Vec<_>>(), 10);
        let c = SplitMix::new(8).sample((0..50).collect::<Vec<_>>(), 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 10);
    }
}
