//! Oracle parity: the on-disk trace store vs. the in-memory prefix index.
//!
//! Builds one randomized trace, persists it, and asserts that every query
//! the store answers is `to_bits`-identical to the in-memory `PowerTrace`
//! over the same samples — while the store's decompression counter proves
//! each energy window touched at most its two boundary chunks. Chunks
//! larger than the restart interval `K` are checked at their restart
//! points too (windows ending exactly on them, duplicate runs across a
//! block edge, and stores after both compaction paths), with at most `K`
//! samples decoded per query bound.

use power_model::persist::StoreBackedTrace;
use power_model::PowerTrace;
use std::path::PathBuf;
use tgi_core::Watts;
use tgi_trace_store::chunk::RESTART_INTERVAL as K;
use tgi_trace_store::StoreConfig;

struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("tgi_store_oracle_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Deterministic splitmix-style generator (no external dependency).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A meter-like trace: mostly fixed cadence with occasional jitter and
/// duplicate timestamps, quantized watts holding levels between phase
/// shifts.
fn synth(n: usize, seed: u64) -> PowerTrace {
    let mut rng = Rng(seed);
    let mut trace = PowerTrace::with_capacity(n);
    let mut t = 0.0f64;
    let mut level = 180.0f64;
    for i in 0..n {
        let r = rng.uniform();
        if i > 0 {
            if r < 0.02 {
                // duplicate timestamp
            } else if r < 0.07 {
                t += 1.0 + (rng.uniform() - 0.5) * 0.25; // jittered tick
            } else {
                t += 1.0; // metronomic tick
            }
        }
        if rng.uniform() < 0.03 {
            level = (80.0 + 400.0 * rng.uniform() * 10.0).round() / 10.0;
        }
        trace.push(t, Watts::new(level));
    }
    trace
}

#[test]
fn store_queries_are_bit_identical_to_memory_oracle() {
    let scratch = ScratchDir::new("parity");
    let trace = synth(40_000, 0xC0FFEE);
    let config = StoreConfig { chunk_samples: 512, retain_seconds: None };
    let backed = StoreBackedTrace::new(trace.to_store(&scratch.0, config).unwrap());
    assert!(backed.store().sealed_chunks() >= 70, "want many chunks for a meaningful test");

    assert_eq!(backed.energy().value().to_bits(), trace.energy().value().to_bits());
    assert_eq!(backed.peak_power().value().to_bits(), trace.peak_power().value().to_bits());
    assert_eq!(backed.min_power().value().to_bits(), trace.min_power().value().to_bits());
    assert_eq!(backed.time_bounds(), trace.time_bounds());

    let (first, last) = trace.time_bounds().unwrap();
    let span = last - first;
    let mut rng = Rng(0xDECAF);
    for case in 0..400 {
        let a = first + span * rng.uniform();
        let b = first + span * rng.uniform();
        backed.store().reset_decompressions();
        let got = backed.energy_between(a, b).unwrap().value();
        let want = trace.energy_between(a, b).value();
        assert_eq!(got.to_bits(), want.to_bits(), "case {case}: energy_between({a}, {b})");
        assert!(
            backed.store().decompressions() <= 2,
            "case {case}: energy_between({a}, {b}) decompressed {} chunks",
            backed.store().decompressions()
        );
        let got = backed.power_at(a).unwrap().map(|w| w.value().to_bits());
        let want = trace.power_at(a).map(|w| w.value().to_bits());
        assert_eq!(got, want, "case {case}: power_at({a})");
        let got = backed.average_power_between(a, b).unwrap().value();
        let want = trace.average_power_between(a, b).value();
        assert_eq!(got.to_bits(), want.to_bits(), "case {case}: average_power_between({a}, {b})");
    }

    // Exact stored timestamps (chunk edges included) and out-of-range
    // probes behave identically too.
    for idx in [0usize, 511, 512, 513, 8191, 8192, 39_999] {
        let t = trace.times()[idx];
        assert_eq!(
            backed.power_at(t).unwrap().map(|w| w.value().to_bits()),
            trace.power_at(t).map(|w| w.value().to_bits()),
            "power_at stored sample {idx}"
        );
        backed.store().reset_decompressions();
        let got = backed.energy_between(first, t).unwrap().value();
        assert_eq!(got.to_bits(), trace.energy_between(first, t).value().to_bits());
        assert!(backed.store().decompressions() <= 2);
    }
    assert_eq!(backed.power_at(first - 1.0).unwrap(), None);
    assert_eq!(backed.power_at(last + 1.0).unwrap(), None);
    assert_eq!(
        backed.energy_between(f64::NEG_INFINITY, f64::INFINITY).unwrap().value().to_bits(),
        trace.energy_between(f64::NEG_INFINITY, f64::INFINITY).value().to_bits()
    );
}

#[test]
fn windows_round_trip_through_store() {
    let scratch = ScratchDir::new("window");
    let trace = synth(5_000, 42);
    let config = StoreConfig { chunk_samples: 256, retain_seconds: None };
    let backed = StoreBackedTrace::new(trace.to_store(&scratch.0, config).unwrap());
    let (first, last) = trace.time_bounds().unwrap();
    let span = last - first;
    let mut rng = Rng(7);
    for case in 0..40 {
        let a = first + span * rng.uniform();
        let b = a + span * rng.uniform() * 0.2;
        let w_mem = trace.window(a, b);
        let w_store = backed.window(a, b).unwrap();
        assert_eq!(w_store, w_mem, "case {case}: window({a}, {b})");
        assert_eq!(
            w_store.energy().value().to_bits(),
            w_mem.energy().value().to_bits(),
            "case {case}: window({a}, {b}) energy"
        );
    }
}

#[test]
fn reopened_store_stays_bit_identical() {
    let scratch = ScratchDir::new("reopen");
    let trace = synth(3_000, 99);
    let config = StoreConfig { chunk_samples: 128, retain_seconds: None };
    drop(trace.to_store(&scratch.0, config.clone()).unwrap());
    // A fresh process would see exactly this: recovery from disk alone.
    let backed = StoreBackedTrace::open(&scratch.0, config).unwrap();
    assert_eq!(backed.len(), 3_000);
    assert_eq!(backed.energy().value().to_bits(), trace.energy().value().to_bits());
    let restored = backed.to_trace().unwrap();
    assert_eq!(restored, trace);
    assert_eq!(restored.prefix_energy(), trace.prefix_energy());
}

/// A chunk of three full restart blocks plus a partial fourth.
const MULTI_BLOCK_CHUNK: usize = 3 * K + 517;

/// `synth`, with a run of six duplicate timestamps (distinct watts) across
/// the first restart edge (samples `K - 3 ..= K + 2`), so the restart
/// sample `K - 1` repeats into block 1.
fn synth_with_edge_duplicates(n: usize, seed: u64) -> PowerTrace {
    let base = synth(n, seed);
    let mut trace = PowerTrace::with_capacity(n);
    let dup_t = base.times()[K - 3];
    for (i, (&t, &w)) in base.times().iter().zip(base.watts()).enumerate() {
        if (K - 3..=K + 2).contains(&i) {
            trace.push(dup_t, Watts::new(100.0 + i as f64));
        } else {
            trace.push(t, Watts::new(w));
        }
    }
    trace
}

/// Every query at and around each restart point, chunk edge, and first
/// and last block matches the oracle bitwise, and no window decodes more
/// than two blocks or `2 K` samples.
fn assert_restart_points_match(backed: &StoreBackedTrace, trace: &PowerTrace) {
    let store = backed.store();
    let (first, last) = trace.time_bounds().unwrap();
    let mut probes = vec![first, last];
    for chunk in store.sealed() {
        let m = &chunk.meta;
        probes.extend([m.first_t, m.last_t, (m.first_t + m.last_t) / 2.0]);
        for block in &chunk.blocks[1..] {
            let key = block.key();
            probes.extend([key, key - 0.25, key + 0.25, key + 0.5]);
        }
        // Inside the first and the last block.
        let b0_end = chunk.blocks.get(1).map_or(m.last_t, |b| b.key());
        let last_key = chunk.blocks.last().unwrap().key().max(m.first_t);
        probes.extend([m.first_t + 0.5, (m.first_t + b0_end) / 2.0, (last_key + m.last_t) / 2.0]);
    }
    for &a in &probes {
        assert_eq!(
            backed.power_at(a).unwrap().map(|w| w.value().to_bits()),
            trace.power_at(a).map(|w| w.value().to_bits()),
            "power_at({a})"
        );
        for &b in &[first, last, a + 0.75, a + 3_000.0] {
            store.reset_decompressions();
            let got = backed.energy_between(a, b).unwrap().value();
            assert_eq!(
                got.to_bits(),
                trace.energy_between(a, b).value().to_bits(),
                "energy_between({a}, {b})"
            );
            assert!(store.decompressions() <= 2, "energy_between({a}, {b}) decoded > 2 blocks");
            assert!(store.decoded_samples() <= 2 * K as u64, "energy_between({a}, {b})");
            let got = backed.average_power_between(a, b).unwrap().value();
            assert_eq!(
                got.to_bits(),
                trace.average_power_between(a, b).value().to_bits(),
                "average_power_between({a}, {b})"
            );
        }
    }
}

#[test]
fn restart_points_are_bit_identical_to_memory_oracle() {
    let scratch = ScratchDir::new("restart");
    let trace = synth_with_edge_duplicates(2 * MULTI_BLOCK_CHUNK + 1_000, 0xB10C);
    let config = StoreConfig { chunk_samples: MULTI_BLOCK_CHUNK, retain_seconds: None };
    drop(trace.to_store(&scratch.0, config.clone()).unwrap());
    let backed = StoreBackedTrace::open(&scratch.0, config).unwrap();
    let store = backed.store();
    assert_eq!(store.sealed_chunks(), 2);
    assert!(store.sealed().iter().all(|c| c.blocks.len() == 4), "want 4 restart blocks per chunk");
    assert_restart_points_match(&backed, &trace);

    // The duplicate run across the first restart edge: power_at reports
    // the last duplicate's watts, and an energy bound on it is answered
    // from the restart point without decoding.
    let dup_t = trace.times()[K - 1];
    assert_eq!(store.sealed()[0].blocks[1].key(), dup_t);
    assert_eq!(backed.power_at(dup_t).unwrap().unwrap().value(), 100.0 + (K + 2) as f64);
    let edge = store.sealed()[0].meta.last_t;
    store.reset_decompressions();
    let got = backed.energy_between(dup_t, edge).unwrap().value();
    assert_eq!(got.to_bits(), trace.energy_between(dup_t, edge).value().to_bits());
    assert_eq!(store.decompressions(), 0, "bounds on a restart point and a chunk edge");

    // A window strictly inside one block decodes that block alone.
    let inside = trace.times()[K + 100] + 0.5;
    store.reset_decompressions();
    backed.energy_between(inside, inside + 10.0).unwrap();
    assert_eq!(store.decompressions(), 2);
    assert!(store.decoded_samples() <= 2 * K as u64);
}

#[test]
fn compacted_restart_stores_stay_bit_identical() {
    // Verbatim path: full multi-block chunks survive compaction alone and
    // are copied with their trailers; the active tail seals fresh.
    let scratch = ScratchDir::new("compact_copy");
    let trace = synth_with_edge_duplicates(2 * MULTI_BLOCK_CHUNK + 3_000, 5);
    let config = StoreConfig { chunk_samples: MULTI_BLOCK_CHUNK, retain_seconds: None };
    let mut backed = StoreBackedTrace::new(trace.to_store(&scratch.0, config.clone()).unwrap());
    let blocks_before: Vec<_> = backed.store().sealed().iter().map(|c| c.blocks.clone()).collect();
    let stats = backed.store_mut().compact().unwrap();
    assert_eq!((stats.chunks_before, stats.chunks_after), (2, 3));
    let blocks_after: Vec<_> = backed.store().sealed().iter().map(|c| c.blocks.clone()).collect();
    assert_eq!(blocks_after[..2], blocks_before[..], "verbatim copies keep their index");
    assert_eq!(blocks_after[2].len(), 2, "the sealed 3000-sample tail has two blocks");
    assert_restart_points_match(&backed, &trace);
    drop(backed);
    let backed = StoreBackedTrace::open(&scratch.0, config).unwrap();
    assert_restart_points_match(&backed, &trace);

    // Re-encode path: many one-block chunks merge into multi-block ones.
    let scratch = ScratchDir::new("compact_merge");
    drop(trace.to_store(&scratch.0, StoreConfig { chunk_samples: 700, retain_seconds: None }));
    let config = StoreConfig { chunk_samples: MULTI_BLOCK_CHUNK, retain_seconds: None };
    let mut backed = StoreBackedTrace::open(&scratch.0, config.clone()).unwrap();
    assert!(backed.store().sealed().iter().all(|c| c.blocks.len() == 1));
    backed.store_mut().compact().unwrap();
    assert!(backed.store().sealed().iter().any(|c| c.blocks.len() == 4), "merged chunks index");
    assert_restart_points_match(&backed, &trace);
    assert_eq!(backed.to_trace().unwrap(), trace);
    drop(backed);
    let backed = StoreBackedTrace::open(&scratch.0, config).unwrap();
    assert_restart_points_match(&backed, &trace);
}
