//! Log-linear quantile histogram with a provable relative-error bound.
//!
//! [`QuantileHistogram`] is the workspace's one histogram type, built for
//! quantile queries: buckets are spaced geometrically with ratio
//! `γ = (1+α)/(1−α)`, so the bucket holding a value `v` spans
//! `(γ^(k-1), γ^k]` and the mid-bucket estimate `2γ^k/(γ+1)` is off by at
//! most `α·v` — the classic DDSketch guarantee. Observations are one
//! `ln`, one atomic increment, and two atomic folds (sum, extrema): the
//! structure is shared by `&self` across threads with no locks, and two
//! histograms with the same configuration [`merge`](QuantileHistogram::merge)
//! by adding buckets, preserving the bound regardless of merge order.
//!
//! Memory is fixed at construction: `O(log(max/min)/α)` buckets
//! (~2.8 k buckets ≈ 22 KiB at the defaults). Values outside the
//! configured `[min_value, max_value]` range are clamped into the edge
//! buckets — the error bound is advertised for in-range values only.
//!
//! A sketch built with [`QuantileHistogram::new`] is a plain data
//! structure: it does **not** gate on [`crate::enabled`], so latency
//! tracking (load generators, server SLOs) works even when the collector
//! is compiled out. The registry's sketches ([`crate::metrics::histogram`],
//! [`crate::histogram!`]) are metrics like counters and gauges: they record
//! only while a collector is installed.

use std::sync::atomic::{AtomicU64, Ordering};

/// Default relative-error bound.
pub const DEFAULT_ALPHA: f64 = 0.01;
/// Default smallest resolvable value (1 ns when observing seconds).
pub const DEFAULT_MIN_VALUE: f64 = 1e-9;
/// Default largest resolvable value.
pub const DEFAULT_MAX_VALUE: f64 = 1e15;

/// A mergeable, thread-safe log-linear histogram answering quantile
/// queries within a configured relative-error bound. See the module docs
/// for the guarantee.
#[derive(Debug)]
pub struct QuantileHistogram {
    alpha: f64,
    min_value: f64,
    max_value: f64,
    /// `ln γ` where `γ = (1+α)/(1−α)`.
    ln_gamma: f64,
    /// Log-domain key of `min_value`: `ceil(ln(min_value)/ln γ)`.
    key_min: i64,
    /// `buckets[0]` holds values ≤ `min_value` (and invalid inputs);
    /// `buckets[i]` (i ≥ 1) holds key `key_min + i`.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Running sum, CAS-folded as `f64` bits.
    sum_bits: AtomicU64,
    /// Extrema of (clamped) observations. Non-negative IEEE-754 doubles
    /// order the same as their bit patterns, so `fetch_min`/`fetch_max`
    /// on the bits are exact.
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    /// Registry sketches drop observations while no collector is installed.
    gated: bool,
}

impl QuantileHistogram {
    /// A histogram with relative-error bound `alpha` over the default
    /// value range.
    ///
    /// # Panics
    /// If `alpha` is outside `(0.0001, 0.5)`.
    pub fn new(alpha: f64) -> Self {
        Self::with_range(alpha, DEFAULT_MIN_VALUE, DEFAULT_MAX_VALUE)
    }

    /// A histogram with bound `alpha` resolving values in
    /// `[min_value, max_value]` (values outside clamp to the edges).
    ///
    /// # Panics
    /// If `alpha` is outside `(0.0001, 0.5)` or the range is not
    /// `0 < min_value < max_value` and finite.
    pub fn with_range(alpha: f64, min_value: f64, max_value: f64) -> Self {
        assert!(
            alpha > 0.0001 && alpha < 0.5,
            "alpha {alpha} outside the supported (0.0001, 0.5) band"
        );
        assert!(
            min_value > 0.0 && max_value > min_value && max_value.is_finite(),
            "invalid value range [{min_value}, {max_value}]"
        );
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        let ln_gamma = gamma.ln();
        let key_min = (min_value.ln() / ln_gamma).ceil() as i64;
        let key_max = (max_value.ln() / ln_gamma).ceil() as i64;
        let spread = usize::try_from(key_max - key_min).expect("range keys are ordered");
        let buckets = (0..=spread + 1).map(|_| AtomicU64::new(0)).collect();
        QuantileHistogram {
            alpha,
            min_value,
            max_value,
            ln_gamma,
            key_min,
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(0),
            gated: false,
        }
    }

    /// The registry's sketch: [`DEFAULT_ALPHA`] over the default range,
    /// recording only while a collector is installed.
    pub(crate) fn registered() -> Self {
        QuantileHistogram { gated: true, ..Self::new(DEFAULT_ALPHA) }
    }

    /// The configured relative-error bound.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Number of buckets (fixed at construction; memory is
    /// `buckets() * 8` bytes plus the struct header).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Records one observation. Invalid inputs (NaN, negatives) count
    /// into the underflow bucket as `min_value`. A registry sketch ignores
    /// the call while no collector is installed.
    #[inline]
    pub fn observe(&self, v: f64) {
        if self.gated && !crate::enabled() {
            return;
        }
        let clamped = if v.is_finite() && v > 0.0 {
            v.clamp(self.min_value, self.max_value)
        } else {
            self.min_value
        };
        let idx = self.bucket_index(clamped);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.min_bits.fetch_min(clamped.to_bits(), Ordering::Relaxed);
        self.max_bits.fetch_max(clamped.to_bits(), Ordering::Relaxed);
        let mut current = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + clamped).to_bits();
            match self.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    fn bucket_index(&self, clamped: f64) -> usize {
        let key = (clamped.ln() / self.ln_gamma).ceil() as i64;
        let idx = key - self.key_min;
        if idx <= 0 {
            0
        } else {
            (idx as usize).min(self.buckets.len() - 1)
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of (clamped) observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Smallest (clamped) observation, `None` while empty.
    pub fn min(&self) -> Option<f64> {
        let bits = self.min_bits.load(Ordering::Relaxed);
        (bits != f64::INFINITY.to_bits()).then(|| f64::from_bits(bits))
    }

    /// Largest (clamped) observation, `None` while empty.
    pub fn max(&self) -> Option<f64> {
        (self.count() > 0).then(|| f64::from_bits(self.max_bits.load(Ordering::Relaxed)))
    }

    /// The `q`-quantile estimate (`q` in `[0, 1]`), `None` while empty.
    ///
    /// Rank semantics match a sorted array: the estimate targets
    /// `sorted[ceil(q · (n−1))]`, and for in-range values is within
    /// `alpha` relative error of it.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let n: u64 = counts.iter().sum();
        if n == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * (n - 1) as f64).ceil() as u64; // target sorted[rank]
        let mut cumulative = 0u64;
        let mut idx = counts.len() - 1;
        for (i, &c) in counts.iter().enumerate() {
            cumulative += c;
            if cumulative > rank {
                idx = i;
                break;
            }
        }
        let estimate = if idx == 0 {
            self.min_value
        } else {
            let key = self.key_min + idx as i64;
            let gamma_k = (key as f64 * self.ln_gamma).exp();
            gamma_k * 2.0 / ((self.ln_gamma.exp()) + 1.0)
        };
        // Clamping into the observed extrema never widens the error: the
        // true quantile lies inside [min, max].
        let lo = self.min().unwrap_or(self.min_value);
        let hi = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        Some(estimate.clamp(lo, hi))
    }

    /// Folds another histogram's observations into this one.
    ///
    /// # Panics
    /// If the two histograms were built with different configurations.
    pub fn merge(&self, other: &QuantileHistogram) {
        assert!(
            self.alpha.to_bits() == other.alpha.to_bits()
                && self.min_value.to_bits() == other.min_value.to_bits()
                && self.max_value.to_bits() == other.max_value.to_bits(),
            "merging histograms with different configurations"
        );
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.min_bits.fetch_min(other.min_bits.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max_bits.fetch_max(other.max_bits.load(Ordering::Relaxed), Ordering::Relaxed);
        let delta = other.sum();
        let mut current = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    /// Forgets every observation in place, so holders of a shared
    /// reference (the [`crate::histogram!`] callsite caches) keep a valid,
    /// empty sketch. Observations racing with the reset may survive it.
    pub fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0, Ordering::Relaxed);
        self.min_bits.store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        self.max_bits.store(0, Ordering::Relaxed);
    }

    /// A plain-data summary: count, sum, extrema, and the standard
    /// latency quantiles (p50/p99/p999).
    pub fn summary(&self) -> QuantileSummary {
        QuantileSummary {
            count: self.count(),
            sum: self.sum(),
            min: self.min().unwrap_or(0.0),
            max: self.max().unwrap_or(0.0),
            p50: self.quantile(0.50).unwrap_or(0.0),
            p99: self.quantile(0.99).unwrap_or(0.0),
            p999: self.quantile(0.999).unwrap_or(0.0),
        }
    }
}

/// Point-in-time summary of a [`QuantileHistogram`] (plain data — callers
/// that serialize it define their own wire shape).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantileSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (0 while empty).
    pub min: f64,
    /// Largest observation (0 while empty).
    pub max: f64,
    /// Median estimate.
    pub p50: f64,
    /// 99th percentile estimate.
    pub p99: f64,
    /// 99.9th percentile estimate.
    pub p999: f64,
}

impl QuantileSummary {
    /// Mean of observations (0 while empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle rank the estimator targets.
    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let rank = (q * (sorted.len() - 1) as f64).ceil() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    fn assert_within_bound(hist: &QuantileHistogram, sorted: &[f64], q: f64) {
        let exact = exact_quantile(sorted, q);
        let est = hist.quantile(q).expect("non-empty");
        let bound = hist.alpha() * exact * (1.0 + 1e-9) + 1e-12;
        assert!(
            (est - exact).abs() <= bound,
            "q={q}: estimate {est} vs exact {exact} exceeds α={}",
            hist.alpha()
        );
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let hist = QuantileHistogram::new(0.01);
        assert_eq!(hist.quantile(0.5), None);
        assert_eq!(hist.count(), 0);
        assert_eq!(hist.min(), None);
        assert_eq!(hist.max(), None);
        assert_eq!(hist.summary().p99, 0.0);
    }

    #[test]
    fn single_value_is_recovered_within_bound() {
        let hist = QuantileHistogram::new(0.01);
        hist.observe(0.125);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let est = hist.quantile(q).unwrap();
            assert!((est - 0.125).abs() <= 0.01 * 0.125 + 1e-12, "q={q}: {est}");
        }
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.min(), Some(0.125));
        assert_eq!(hist.max(), Some(0.125));
    }

    #[test]
    fn uniform_values_within_bound_at_all_standard_quantiles() {
        let hist = QuantileHistogram::new(0.01);
        let mut values: Vec<f64> = (1..=10_000).map(|i| i as f64 * 1e-4).collect();
        for &v in &values {
            hist.observe(v);
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_within_bound(&hist, &values, q);
        }
    }

    #[test]
    fn heavy_tail_within_bound() {
        // Five decades of magnitude: microseconds to tens of seconds.
        let hist = QuantileHistogram::new(0.02);
        let mut values = Vec::new();
        let mut x = 0x9E3779B97F4A7C15u64;
        for _ in 0..50_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            values.push(1e-6 * (10f64).powf(5.0 * u));
        }
        for &v in &values {
            hist.observe(v);
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.5, 0.99, 0.999] {
            assert_within_bound(&hist, &values, q);
        }
    }

    #[test]
    fn merge_matches_single_histogram() {
        let whole = QuantileHistogram::new(0.01);
        let parts: Vec<QuantileHistogram> = (0..4).map(|_| QuantileHistogram::new(0.01)).collect();
        for i in 0..1_000 {
            let v = (i + 1) as f64 * 0.003;
            whole.observe(v);
            parts[i % 4].observe(v);
        }
        let merged = QuantileHistogram::new(0.01);
        for part in &parts {
            merged.merge(part);
        }
        assert_eq!(merged.count(), whole.count());
        assert_eq!(merged.min(), whole.min());
        assert_eq!(merged.max(), whole.max());
        for q in [0.1, 0.5, 0.9, 0.99, 0.999] {
            assert_eq!(merged.quantile(q), whole.quantile(q), "q={q}");
        }
    }

    #[test]
    fn invalid_and_out_of_range_values_clamp() {
        let hist = QuantileHistogram::with_range(0.01, 1e-3, 1e3);
        hist.observe(f64::NAN);
        hist.observe(-5.0);
        hist.observe(0.0);
        hist.observe(1e9); // clamps to max_value
        assert_eq!(hist.count(), 4);
        assert_eq!(hist.min(), Some(1e-3));
        assert_eq!(hist.max(), Some(1e3));
        let p_hi = hist.quantile(1.0).unwrap();
        assert!((p_hi - 1e3).abs() <= 0.01 * 1e3 + 1e-12, "{p_hi}");
    }

    #[test]
    fn concurrent_observers_lose_nothing() {
        let hist = std::sync::Arc::new(QuantileHistogram::new(0.01));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let hist = std::sync::Arc::clone(&hist);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        hist.observe((t * 10_000 + i + 1) as f64 * 1e-5);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(hist.count(), 40_000);
        let sum = hist.sum();
        let exact: f64 = (1..=40_000u64).map(|i| i as f64 * 1e-5).sum();
        assert!((sum - exact).abs() / exact < 1e-9, "sum {sum} vs {exact}");
    }

    #[test]
    fn reset_empties_in_place() {
        let hist = QuantileHistogram::new(0.01);
        for v in [0.5, 2.0, 8.0] {
            hist.observe(v);
        }
        hist.reset();
        assert_eq!(hist.summary(), QuantileHistogram::new(0.01).summary());
        hist.observe(0.25);
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.min(), Some(0.25));
        assert_eq!(hist.max(), Some(0.25));
    }

    #[test]
    #[should_panic(expected = "different configurations")]
    fn merging_mismatched_configs_panics() {
        let a = QuantileHistogram::new(0.01);
        let b = QuantileHistogram::new(0.02);
        a.merge(&b);
    }
}
