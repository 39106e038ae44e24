//! Persistent power traces: the bridge between [`PowerTrace`] and the
//! on-disk [`tgi_trace_store::TraceStore`].
//!
//! Three integration points:
//!
//! * [`PowerTrace::to_store`] persists an in-memory trace into a store
//!   directory; [`PowerTrace::from_store`] materializes one back. The
//!   round trip is `to_bits`-identical sample-for-sample (the codec is
//!   lossless at the bit-pattern level).
//! * [`StoreBackedTrace`] is a query handle over an open store with the
//!   `PowerTrace` query surface — `energy`, `energy_between`, `power_at`,
//!   `window`, peak/min — answering from chunk footers and at most one
//!   restart block per window boundary, bit-identical to the in-memory
//!   prefix index over the same samples.
//! * `BackgroundSampler::start_streaming` (in [`crate::sampler`]) records
//!   straight into an open store, so long captures never hold the full
//!   trace in memory.
//!
//! Fallibility differs by direction: in-memory queries are infallible,
//! store-backed ones return [`StoreError`] because they may touch disk and
//! hit torn or corrupt payloads.

use crate::trace::PowerTrace;
use std::path::Path;
use tgi_core::{Joules, Seconds, Watts};
use tgi_trace_store::{StoreConfig, StoreError, TraceStore};

impl PowerTrace {
    /// Persists every sample into a (fresh or existing) store at `dir` and
    /// syncs it to disk. Appending to a non-empty store requires this
    /// trace's first timestamp to not precede the store's last.
    pub fn to_store(
        &self,
        dir: impl AsRef<Path>,
        config: StoreConfig,
    ) -> Result<TraceStore, StoreError> {
        let mut store = TraceStore::open(dir, config)?;
        store.append_batch(self.times(), self.watts())?;
        store.sync()?;
        Ok(store)
    }

    /// Materializes a store back into an in-memory trace — sample columns
    /// and the rebuilt prefix index are `to_bits`-identical to the trace
    /// that produced the store.
    pub fn from_store(store: &TraceStore) -> Result<PowerTrace, StoreError> {
        let (times, watts) = store.to_columns()?;
        let mut trace = PowerTrace::with_capacity(times.len());
        // The store validated at its append boundary and its decoder
        // re-checks on the way out, so the columns satisfy the trace
        // invariants; extend re-validates cheaply anyway for defense in
        // depth at this crate's boundary.
        trace.extend_from_slices(&times, &watts);
        Ok(trace)
    }
}

/// A [`PowerTrace`]-shaped query handle over an on-disk [`TraceStore`].
///
/// Queries have the same semantics (clamping, interpolation, duplicate
/// handling, NaN panics) as their `PowerTrace` counterparts and return
/// bit-identical values over the same samples; they differ only in being
/// fallible, since cold chunks live on disk.
#[derive(Debug)]
pub struct StoreBackedTrace {
    store: TraceStore,
}

impl StoreBackedTrace {
    /// Opens (or creates) the store at `dir`.
    pub fn open(dir: impl AsRef<Path>, config: StoreConfig) -> Result<Self, StoreError> {
        Ok(StoreBackedTrace { store: TraceStore::open(dir, config)? })
    }

    /// Wraps an already open store.
    pub fn new(store: TraceStore) -> Self {
        StoreBackedTrace { store }
    }

    /// The underlying store (chunk/disk introspection, compaction stats).
    pub fn store(&self) -> &TraceStore {
        &self.store
    }

    /// Mutable access to the underlying store (compaction, sync).
    pub fn store_mut(&mut self) -> &mut TraceStore {
        &mut self.store
    }

    /// Unwraps back into the store.
    pub fn into_store(self) -> TraceStore {
        self.store
    }

    /// Appends one sample, WAL-first. Invalid samples are rejected as
    /// [`StoreError::InvalidSample`] (the store boundary reports errors
    /// where the in-memory trace panics).
    pub fn push(&mut self, t: f64, watts: Watts) -> Result<(), StoreError> {
        self.store.append(t, watts.value())
    }

    /// Appends parallel sample columns as one WAL record.
    pub fn extend_from_slices(&mut self, times: &[f64], watts: &[f64]) -> Result<(), StoreError> {
        self.store.append_batch(times, watts)
    }

    /// Number of samples (sealed + active).
    pub fn len(&self) -> u64 {
        self.store.len()
    }

    /// True when the store holds no samples.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// First and last sample timestamps, when non-empty.
    pub fn time_bounds(&self) -> Option<(f64, f64)> {
        self.store.time_bounds()
    }

    /// Trace duration — O(1) from footers.
    pub fn duration(&self) -> Seconds {
        match self.time_bounds() {
            Some((a, b)) => Seconds::new(b - a),
            None => Seconds::new(0.0),
        }
    }

    /// Total trapezoidal energy — O(1) from the footer chain snapshots.
    pub fn energy(&self) -> Joules {
        Joules::new(self.store.energy_total())
    }

    /// Time-weighted average power over the whole trace. Falls back to 0
    /// for an empty or zero-duration store (the in-memory sample-mean
    /// fallback would require decompressing everything).
    pub fn average_power(&self) -> Watts {
        let d = self.duration().value();
        if d > 0.0 {
            Watts::new(self.energy().value() / d)
        } else {
            Watts::new(0.0)
        }
    }

    /// Peak sampled power — O(1).
    pub fn peak_power(&self) -> Watts {
        Watts::new(self.store.peak_watts())
    }

    /// Minimum sampled power (0 when empty) — O(1).
    pub fn min_power(&self) -> Watts {
        Watts::new(self.store.min_watts())
    }

    /// Trapezoidal energy over `[t0, t1]` clamped to the stored span —
    /// footer and restart-index binary search, decoding at most two
    /// blocks.
    ///
    /// # Panics
    /// Panics if either bound is NaN, mirroring
    /// [`PowerTrace::energy_between`].
    pub fn energy_between(&self, t0: f64, t1: f64) -> Result<Joules, StoreError> {
        Ok(Joules::new(self.store.energy_between(t0, t1)?))
    }

    /// Time-weighted average power over `[t0, t1]` clamped to the stored
    /// span.
    ///
    /// # Panics
    /// Panics if either bound is NaN.
    pub fn average_power_between(&self, t0: f64, t1: f64) -> Result<Watts, StoreError> {
        Ok(Watts::new(self.store.average_power_between(t0, t1)?))
    }

    /// Linearly interpolated instantaneous power at `t`; `None` outside
    /// the span.
    pub fn power_at(&self, t: f64) -> Result<Option<Watts>, StoreError> {
        Ok(self.store.power_at(t)?.map(Watts::new))
    }

    /// The sub-trace covering `[t0, t1]` (clamped), with interpolated
    /// boundary samples — the same construction as [`PowerTrace::window`],
    /// materialized into memory.
    ///
    /// # Panics
    /// Panics if either bound is NaN.
    pub fn window(&self, t0: f64, t1: f64) -> Result<PowerTrace, StoreError> {
        assert!(!t0.is_nan() && !t1.is_nan(), "window bounds must not be NaN");
        let (first, last) = match self.time_bounds() {
            Some(b) => b,
            None => return Ok(PowerTrace::new()),
        };
        let a = t0.max(first);
        let b = t1.min(last);
        if b < a {
            return Ok(PowerTrace::new());
        }
        let (times, watts) = self.store.samples_in(a, b)?;
        let mut out = PowerTrace::with_capacity(times.len() + 2);
        if times.first().map(|&t| t > a).unwrap_or(true) {
            // `a` falls strictly inside a segment: open with an
            // interpolated sample.
            let w = self.store.power_at(a)?.expect("a is in range");
            out.push_unvalidated(a, w);
        }
        for (&t, &w) in times.iter().zip(&watts) {
            out.push_unvalidated(t, w);
        }
        if out.time_bounds().map(|(_, end)| end < b).unwrap_or(true) {
            let w = self.store.power_at(b)?.expect("b is in range");
            out.push_unvalidated(b, w);
        }
        Ok(out)
    }

    /// Materializes the full trace into memory.
    pub fn to_trace(&self) -> Result<PowerTrace, StoreError> {
        PowerTrace::from_store(&self.store)
    }

    /// Scans a window of the stored trace (the whole trace when a bound
    /// is `None`) with a fresh [`crate::anomaly::AnomalyDetector`] — the
    /// post-hoc query behind the server's `/traces/{node}/anomalies`.
    pub fn scan_anomalies(
        &self,
        config: crate::anomaly::AnomalyConfig,
        from: Option<f64>,
        to: Option<f64>,
    ) -> Result<Vec<crate::anomaly::AnomalyEvent>, StoreError> {
        crate::anomaly::scan_stored(self, config, from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    struct ScratchDir(PathBuf);

    impl ScratchDir {
        fn new(tag: &str) -> Self {
            let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("tgi_persist_{tag}_{}_{seq}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            ScratchDir(dir)
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn synth_trace(n: usize) -> PowerTrace {
        let mut trace = PowerTrace::with_capacity(n);
        for i in 0..n {
            let t = i as f64 * 0.25;
            let w = 120.0 + 35.0 * ((i % 13) as f64) + if i % 4 == 0 { 0.1 } else { 0.0 };
            trace.push(t, Watts::new(w));
        }
        trace
    }

    #[test]
    fn to_store_from_store_round_trips_bitwise() {
        let scratch = ScratchDir::new("round_trip");
        let trace = synth_trace(700);
        let config = StoreConfig { chunk_samples: 64, retain_seconds: None };
        let store = trace.to_store(&scratch.0, config).unwrap();
        assert_eq!(store.len(), 700);
        assert!(store.sealed_chunks() >= 10);
        let back = PowerTrace::from_store(&store).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.prefix_energy(), trace.prefix_energy());
        assert_eq!(back.energy().value().to_bits(), trace.energy().value().to_bits());
    }

    #[test]
    fn store_backed_queries_match_in_memory_bitwise() {
        let scratch = ScratchDir::new("parity");
        let trace = synth_trace(500);
        let config = StoreConfig { chunk_samples: 32, retain_seconds: None };
        let store = trace.to_store(&scratch.0, config).unwrap();
        let backed = StoreBackedTrace::new(store);
        assert_eq!(backed.len(), trace.len() as u64);
        assert_eq!(backed.time_bounds(), trace.time_bounds());
        assert_eq!(backed.energy().value().to_bits(), trace.energy().value().to_bits());
        assert_eq!(backed.peak_power().value(), trace.peak_power().value());
        assert_eq!(backed.min_power().value(), trace.min_power().value());
        for &(t0, t1) in &[(0.0, 124.75), (3.3, 77.7), (10.0, 10.0), (-5.0, 1e9), (60.125, 60.375)]
        {
            assert_eq!(
                backed.energy_between(t0, t1).unwrap().value().to_bits(),
                trace.energy_between(t0, t1).value().to_bits(),
                "energy_between({t0}, {t1})"
            );
            assert_eq!(
                backed.average_power_between(t0, t1).unwrap().value().to_bits(),
                trace.average_power_between(t0, t1).value().to_bits(),
                "average_power_between({t0}, {t1})"
            );
        }
        for &t in &[0.0, 0.125, 61.9, 124.75, -1.0, 200.0] {
            assert_eq!(
                backed.power_at(t).unwrap().map(|w| w.value().to_bits()),
                trace.power_at(t).map(|w| w.value().to_bits()),
                "power_at({t})"
            );
        }
    }

    #[test]
    fn store_backed_window_matches_in_memory() {
        let scratch = ScratchDir::new("window");
        let trace = synth_trace(300);
        let config = StoreConfig { chunk_samples: 32, retain_seconds: None };
        let backed = StoreBackedTrace::new(trace.to_store(&scratch.0, config).unwrap());
        for &(t0, t1) in &[(5.3, 40.9), (0.0, 74.75), (12.0, 12.0), (70.0, 90.0)] {
            let w_mem = trace.window(t0, t1);
            let w_store = backed.window(t0, t1).unwrap();
            assert_eq!(w_store, w_mem, "window({t0}, {t1})");
            assert_eq!(
                w_store.energy().value().to_bits(),
                w_mem.energy().value().to_bits(),
                "window({t0}, {t1}) energy"
            );
        }
    }

    #[test]
    fn empty_store_behaves_like_empty_trace() {
        let scratch = ScratchDir::new("empty");
        let backed = StoreBackedTrace::open(&scratch.0, StoreConfig::default()).unwrap();
        assert!(backed.is_empty());
        assert_eq!(backed.energy().value(), 0.0);
        assert_eq!(backed.average_power().value(), 0.0);
        assert_eq!(backed.peak_power().value(), 0.0);
        assert_eq!(backed.min_power().value(), 0.0);
        assert_eq!(backed.energy_between(0.0, 10.0).unwrap().value(), 0.0);
        assert!(backed.power_at(0.0).unwrap().is_none());
        assert!(backed.window(0.0, 1.0).unwrap().is_empty());
    }

    #[test]
    fn push_appends_across_reopen() {
        let scratch = ScratchDir::new("reopen");
        let config = StoreConfig { chunk_samples: 8, retain_seconds: None };
        {
            let mut backed = StoreBackedTrace::open(&scratch.0, config.clone()).unwrap();
            for i in 0..20 {
                backed.push(i as f64, Watts::new(100.0 + i as f64)).unwrap();
            }
            backed.store_mut().sync().unwrap();
        }
        let mut backed = StoreBackedTrace::open(&scratch.0, config).unwrap();
        assert_eq!(backed.len(), 20);
        backed.push(20.0, Watts::new(120.0)).unwrap();
        assert_eq!(backed.len(), 21);
        assert!(backed.push(5.0, Watts::new(100.0)).is_err(), "backwards time must fail");
    }
}
