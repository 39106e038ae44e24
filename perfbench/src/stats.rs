//! Order statistics over timing samples.

/// The nearest-rank `p`-th percentile (`0 < p ≤ 100`): the smallest sample
/// with at least `p`% of the samples at or below it. Reorders `xs` in
/// place (linear-time selection, no full sort). `None` when empty.
pub fn percentile(xs: &mut [f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    let k = rank.clamp(1, xs.len()) - 1;
    let (_, kth, _) = xs.select_nth_unstable_by(k, f64::total_cmp);
    Some(*kth)
}

/// The nearest-rank median (the 50th percentile).
pub fn median(xs: &mut [f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

    fn exact(xs: &[f64], p: f64) -> f64 {
        let mut sorted = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.max(1) - 1]
    }

    #[test]
    fn percentile_agrees_with_an_exact_sort() {
        let mut rng = Rng::new(42, 0);
        for n in [1usize, 2, 3, 10, 99, 100, 1001] {
            let xs: Vec<f64> = (0..n).map(|_| rng.log_range(1e-6, 1.0)).collect();
            for p in [1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
                let mut work = xs.clone();
                assert_eq!(percentile(&mut work, p), Some(exact(&xs, p)), "n={n} p={p}");
            }
        }
        assert_eq!(percentile(&mut [], 50.0), None);
    }
}
