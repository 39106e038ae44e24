//! Property tests: the codec round-trips arbitrary valid sample columns
//! bit-for-bit, the store round-trips them through disk under arbitrary
//! batch splits, and a torn-write corpus — truncations and corrupted
//! tails at arbitrary byte offsets — proves recovery only ever surfaces
//! a bit-exact prefix of what was written, never an invalid or mangled
//! sample.
//!
//! Restart points: queries at and around every restart point match a
//! reference chain bitwise, and damage never becomes a number — a flipped
//! bit fails exactly the queries that decode its block, a damaged trailer
//! degrades its chunk to one block whose whole-payload CRC reports it, a
//! segment written without trailers still answers bitwise, and a seal torn
//! inside its trailer is re-sealed from the WAL.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use tgi_trace_store::chunk::{self, ChunkMeta, RESTART_INTERVAL as K};
use tgi_trace_store::crc::crc32;
use tgi_trace_store::{codec, StoreConfig, StoreError, TraceStore, SEGMENT_FILE, WAL_FILE};

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("tgi_store_prop_{tag}_{}_{seq}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Builds valid sample columns out of raw generator material: deltas are
/// clamped non-negative (zero deltas exercise duplicate timestamps), and
/// watts mix free values with the 0.1 W-quantized levels real meters
/// emit.
fn columns(raw: &[(f64, f64, bool)]) -> (Vec<f64>, Vec<f64>) {
    let mut t = 0.0;
    let mut times = Vec::with_capacity(raw.len());
    let mut watts = Vec::with_capacity(raw.len());
    for &(dt, w, quantize) in raw {
        t += dt;
        times.push(t);
        watts.push(if quantize { (w * 10.0).round() / 10.0 } else { w });
    }
    (times, watts)
}

proptest! {
    /// The chunk codec is lossless at the bit-pattern level for any valid
    /// column pair, including zero deltas and repeated watts.
    #[test]
    fn codec_round_trips_bitwise(
        raw in proptest::collection::vec((0.0..90.0f64, 0.0..4500.0f64, proptest::bool::ANY), 1..300),
    ) {
        let (times, watts) = columns(&raw);
        let mut enc = codec::Encoder::new();
        for (&t, &w) in times.iter().zip(&watts) {
            enc.push(t, w);
        }
        let (payload, bit_len) = enc.finish();
        let (t2, w2) = codec::decode(&payload, bit_len, times.len()).expect("decodes");
        prop_assert_eq!(t2.len(), times.len());
        for i in 0..times.len() {
            prop_assert_eq!(t2[i].to_bits(), times[i].to_bits(), "time {}", i);
            prop_assert_eq!(w2[i].to_bits(), watts[i].to_bits(), "watts {}", i);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any valid column pair, appended under an arbitrary batch split and
    /// chunk size, reads back bit-identically after a reopen.
    #[test]
    fn store_round_trips_under_any_batching(
        raw in proptest::collection::vec((0.0..10.0f64, 0.0..900.0f64, proptest::bool::ANY), 1..400),
        chunk in 2usize..96,
        split in 1usize..64,
    ) {
        let (times, watts) = columns(&raw);
        let scratch = ScratchDir::new("batch");
        let config = StoreConfig { chunk_samples: chunk, retain_seconds: None };
        {
            let mut store = TraceStore::open(&scratch.0, config.clone()).expect("opens");
            for (ts, ws) in times.chunks(split).zip(watts.chunks(split)) {
                store.append_batch(ts, ws).expect("appends");
            }
            store.sync().expect("syncs");
        }
        let store = TraceStore::open(&scratch.0, config).expect("reopens");
        let (t2, w2) = store.to_columns().expect("reads back");
        prop_assert_eq!(t2.len(), times.len());
        for i in 0..times.len() {
            prop_assert_eq!(t2[i].to_bits(), times[i].to_bits(), "time {}", i);
            prop_assert_eq!(w2[i].to_bits(), watts[i].to_bits(), "watts {}", i);
        }
    }
}

/// Asserts the recovered store holds a bit-exact prefix of `times`/`watts`
/// — the crash-consistency contract. Returns the recovered length.
fn assert_is_prefix(store: &TraceStore, times: &[f64], watts: &[f64]) -> usize {
    let (t2, w2) = store.to_columns().expect("recovered store reads back");
    assert!(
        t2.len() <= times.len(),
        "recovery surfaced {} samples, only {} were ever written",
        t2.len(),
        times.len()
    );
    for i in 0..t2.len() {
        assert_eq!(t2[i].to_bits(), times[i].to_bits(), "recovered time {i} mangled");
        assert_eq!(w2[i].to_bits(), watts[i].to_bits(), "recovered watts {i} mangled");
        assert!(t2[i].is_finite() && t2[i] >= 0.0, "invalid recovered time");
        assert!(w2[i].is_finite() && w2[i] >= 0.0, "invalid recovered watts");
    }
    t2.len()
}

fn truncate_file(path: &Path, len: u64) {
    let f = std::fs::OpenOptions::new().write(true).open(path).expect("file opens");
    f.set_len(len).expect("truncates");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Torn-write corpus: tear the WAL at an arbitrary byte offset —
    /// optionally scribbling garbage over the new tail — and recovery
    /// yields a valid bit-exact prefix, never a torn or invalid sample.
    #[test]
    fn torn_wal_recovers_a_clean_prefix(
        raw in proptest::collection::vec((0.0..5.0f64, 0.0..800.0f64, proptest::bool::ANY), 8..200),
        cut_unit in 0.0..1.0f64,
        scribble in proptest::bool::ANY,
    ) {
        let (times, watts) = columns(&raw);
        let scratch = ScratchDir::new("torn_wal");
        let config = StoreConfig { chunk_samples: 1 << 20, retain_seconds: None };
        {
            // Large chunks: nothing seals, every sample lives in the WAL.
            let mut store = TraceStore::open(&scratch.0, config.clone()).expect("opens");
            for (ts, ws) in times.chunks(7).zip(watts.chunks(7)) {
                store.append_batch(ts, ws).expect("appends");
            }
            store.sync().expect("syncs");
        }
        let wal = scratch.0.join(WAL_FILE);
        let full = std::fs::metadata(&wal).expect("wal exists").len();
        let cut = (full as f64 * cut_unit) as u64;
        truncate_file(&wal, cut);
        if scribble && cut > 4 {
            // A torn sector is rarely clean zeros: overwrite the last few
            // bytes with junk that cannot CRC-validate.
            let mut bytes = std::fs::read(&wal).expect("read wal");
            let n = bytes.len();
            for b in &mut bytes[n.saturating_sub(4)..] {
                *b ^= 0xA5;
            }
            std::fs::write(&wal, bytes).expect("rewrite wal");
        }
        let store = TraceStore::open(&scratch.0, config).expect("recovery never fails open");
        let recovered = assert_is_prefix(&store, &times, &watts);
        // A full, untouched WAL must recover everything.
        if cut == full && !scribble {
            prop_assert_eq!(recovered, times.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Torn segment writes: tear the sealed-chunk file at an arbitrary
    /// offset. Recovery truncates to the last intact chunk, replays what
    /// the WAL still covers, and surfaces only a bit-exact prefix.
    #[test]
    fn torn_segment_recovers_a_clean_prefix(
        raw in proptest::collection::vec((0.0..5.0f64, 0.0..800.0f64, proptest::bool::ANY), 32..300),
        chunk in 4usize..32,
        cut_unit in 0.0..1.0f64,
    ) {
        let (times, watts) = columns(&raw);
        let scratch = ScratchDir::new("torn_seg");
        let config = StoreConfig { chunk_samples: chunk, retain_seconds: None };
        {
            let mut store = TraceStore::open(&scratch.0, config.clone()).expect("opens");
            store.append_batch(&times, &watts).expect("appends");
            store.sync().expect("syncs");
        }
        let segment = scratch.0.join(SEGMENT_FILE);
        let full = std::fs::metadata(&segment).expect("segment exists").len();
        truncate_file(&segment, (full as f64 * cut_unit) as u64);
        let store = TraceStore::open(&scratch.0, config).expect("recovery never fails open");
        assert_is_prefix(&store, &times, &watts);
        // Whatever survived still answers queries without error.
        if !store.is_empty() {
            let (first, last) = store.time_bounds().expect("bounds");
            let e = store.energy_between(first, last).expect("energy query");
            prop_assert!(e.is_finite() && e >= 0.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Appending after a torn-tail recovery continues the timeline as if
    /// the lost suffix had never been written.
    #[test]
    fn appends_continue_after_recovery(
        raw in proptest::collection::vec((0.0..5.0f64, 0.0..800.0f64, proptest::bool::ANY), 8..120),
        cut_unit in 0.0..1.0f64,
    ) {
        let (times, watts) = columns(&raw);
        let scratch = ScratchDir::new("resume");
        let config = StoreConfig { chunk_samples: 16, retain_seconds: None };
        {
            let mut store = TraceStore::open(&scratch.0, config.clone()).expect("opens");
            store.append_batch(&times, &watts).expect("appends");
            store.sync().expect("syncs");
        }
        let wal = scratch.0.join(WAL_FILE);
        let full = std::fs::metadata(&wal).expect("wal exists").len();
        truncate_file(&wal, (full as f64 * cut_unit) as u64);
        let mut store = TraceStore::open(&scratch.0, config).expect("recovers");
        let recovered = assert_is_prefix(&store, &times, &watts);
        // Continue past the highest timestamp ever written: always valid.
        let resume_t = times[times.len() - 1] + 1.0;
        store.append(resume_t, 123.4).expect("append resumes");
        prop_assert_eq!(store.len(), recovered as u64 + 1);
        let (_, last) = store.time_bounds().expect("bounds");
        prop_assert_eq!(last.to_bits(), resume_t.to_bits());
    }
}

/// Three full restart blocks plus a partial fourth per chunk.
const CHUNK: usize = 3 * K + 517;

fn config(chunk_samples: usize) -> StoreConfig {
    StoreConfig { chunk_samples, retain_seconds: None }
}

/// The reference: the running trapezoid chain and the query arithmetic of
/// the in-memory `PowerTrace`, over plain columns.
struct Reference {
    times: Vec<f64>,
    watts: Vec<f64>,
    cum: Vec<f64>,
}

impl Reference {
    fn new(times: &[f64], watts: &[f64]) -> Self {
        let mut cum = vec![0.0f64; times.len()];
        for i in 1..times.len() {
            cum[i] = cum[i - 1] + 0.5 * (watts[i - 1] + watts[i]) * (times[i] - times[i - 1]);
        }
        Reference { times: times.to_vec(), watts: watts.to_vec(), cum }
    }

    fn cum_at(&self, t: f64) -> f64 {
        let i = self.times.partition_point(|&x| x <= t) - 1;
        if t <= self.times[i] {
            return self.cum[i];
        }
        let dt = t - self.times[i];
        let seg = self.times[i + 1] - self.times[i];
        let w_t = self.watts[i] + (self.watts[i + 1] - self.watts[i]) * (dt / seg);
        self.cum[i] + 0.5 * (self.watts[i] + w_t) * dt
    }

    fn energy_between(&self, t0: f64, t1: f64) -> f64 {
        let (first, last) = (self.times[0], self.times[self.times.len() - 1]);
        let (a, b) = (t0.max(first), t1.min(last));
        if b <= a {
            0.0
        } else {
            self.cum_at(b) - self.cum_at(a)
        }
    }

    fn power_at(&self, t: f64) -> Option<f64> {
        let (first, last) = (self.times[0], self.times[self.times.len() - 1]);
        if t < first || t > last {
            return None;
        }
        let i = self.times.partition_point(|&x| x <= t) - 1;
        if t <= self.times[i] {
            return Some(self.watts[i]);
        }
        let frac = (t - self.times[i]) / (self.times[i + 1] - self.times[i]);
        Some(self.watts[i] + (self.watts[i + 1] - self.watts[i]) * frac)
    }
}

/// Meter-like columns: a 1 s cadence with jitter and duplicate
/// timestamps, quantized watts holding levels, and a run of six
/// duplicate timestamps with distinct watts across the first restart edge
/// (samples `K - 3 ..= K + 2`).
fn meter(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut unit = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let (mut times, mut watts) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let (mut t, mut level) = (1.0e6, 240.0);
    for i in 0..n {
        let r = unit();
        if (K - 2..=K + 2).contains(&i) {
            // Duplicates of sample K - 3.
        } else if r < 0.02 {
            // A duplicate timestamp.
        } else if r < 0.1 {
            t += 0.5 + unit();
        } else {
            t += 1.0;
        }
        if unit() < 0.03 {
            level = (800.0 + 3000.0 * unit()).round() / 10.0;
        }
        times.push(t);
        watts.push(if (K - 3..=K + 2).contains(&i) { 100.0 + i as f64 } else { level });
    }
    (times, watts)
}

/// Probe times at and around every chunk edge and restart point, and
/// inside the first and last block of each chunk.
fn restart_probes(store: &TraceStore) -> Vec<f64> {
    let mut probes = Vec::new();
    for c in store.sealed() {
        let m = &c.meta;
        probes.extend([m.first_t, m.last_t, m.first_t + 0.25, m.last_t - 0.25]);
        for b in &c.blocks[1..] {
            probes.extend([b.key(), b.key() - 0.25, b.key() + 0.25, b.key() + 0.75]);
        }
    }
    probes
}

/// Asserts `store` answers every probe pair like `reference`, bitwise,
/// decoding at most two blocks and `2 K` samples per energy query.
fn assert_matches(store: &TraceStore, reference: &Reference, probes: &[f64]) {
    let (first, last) = store.time_bounds().expect("non-empty");
    for &a in probes {
        assert_eq!(
            store.power_at(a).unwrap().map(f64::to_bits),
            reference.power_at(a).map(f64::to_bits),
            "power_at({a})"
        );
        for &b in &[first, last, a + 1.5, a + 2_500.0] {
            store.reset_decompressions();
            let got = store.energy_between(a, b).unwrap();
            assert_eq!(got.to_bits(), reference.energy_between(a, b).to_bits(), "[{a}, {b}]");
            assert!(store.decompressions() <= 2, "[{a}, {b}]: {} blocks", store.decompressions());
            assert!(store.decoded_samples() <= 2 * K as u64, "[{a}, {b}]");
        }
    }
}

fn write_store(dir: &Path, times: &[f64], watts: &[f64], chunk_samples: usize) {
    let mut store = TraceStore::open(dir, config(chunk_samples)).expect("opens");
    store.append_batch(times, watts).expect("appends");
    store.sync().expect("syncs");
}

fn flip_byte(path: &Path, at: u64) {
    let mut bytes = std::fs::read(path).expect("reads");
    bytes[at as usize] ^= 0x10;
    std::fs::write(path, bytes).expect("writes");
}

fn is_corrupt<T: std::fmt::Debug>(r: Result<T, StoreError>) -> bool {
    matches!(r, Err(StoreError::Corrupt { .. }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For any meter-like trace and any chunk size above `K`, every query
    /// at and around restart points, chunk edges and random times matches
    /// the reference chain bitwise, before and after a reopen.
    #[test]
    fn restart_points_answer_like_the_reference(
        seed in 0u64..u64::MAX,
        chunk_samples in (K + 1)..(3 * K),
        extra in 0usize..K,
        picks in proptest::collection::vec(0.0..1.0f64, 8),
    ) {
        let n = 2 * chunk_samples + extra;
        let (times, watts) = meter(n, seed);
        let reference = Reference::new(&times, &watts);
        let scratch = ScratchDir::new("restart");
        write_store(&scratch.0, &times, &watts, chunk_samples);
        let store = TraceStore::open(&scratch.0, config(chunk_samples)).expect("reopens");
        prop_assert!(store.sealed().iter().all(|c| c.blocks.len() >= 2));
        let (first, last) = (times[0], times[n - 1]);
        let mut probes = restart_probes(&store);
        probes.extend(picks.iter().map(|u| first + u * (last - first)));
        assert_matches(&store, &reference, &probes);
        // The duplicate run across the first restart edge: the last
        // duplicate's watts, and no decode for an energy bound on it.
        let dup_t = times[K - 1];
        prop_assert_eq!(store.power_at(dup_t).unwrap(), Some(watts[K + 2]));
        store.reset_decompressions();
        let got = store.energy_between(dup_t, store.sealed()[0].meta.last_t).unwrap();
        prop_assert_eq!(got.to_bits(), reference.energy_between(dup_t, times[chunk_samples - 1]).to_bits());
        prop_assert_eq!(store.decompressions(), 0);
    }
}

#[test]
fn bit_flip_in_one_block_fails_only_queries_that_touch_it() {
    let (times, watts) = meter(2 * CHUNK + 100, 7);
    let reference = Reference::new(&times, &watts);
    let scratch = ScratchDir::new("flip_block");
    write_store(&scratch.0, &times, &watts, CHUNK);
    let segment = scratch.0.join(SEGMENT_FILE);
    let (sealed, _) = chunk::scan_segment(&mut std::fs::File::open(&segment).unwrap()).unwrap();
    let block = sealed[0].blocks[2];
    // A byte in the middle of block 2, shared with no neighbor.
    flip_byte(&segment, sealed[0].meta.payload_offset + (block.bytes.0 + block.bytes.1) / 2);
    let store = TraceStore::open(&scratch.0, config(CHUNK)).expect("reopens");
    assert_eq!(store.sealed()[0].blocks.len(), 4, "the trailer is intact");

    let inside = times[2 * K + 300] + 0.25;
    assert!(is_corrupt(store.energy_between(inside, times[2 * CHUNK + 50])));
    assert!(is_corrupt(store.energy_between(times[10], inside)));
    assert!(is_corrupt(store.power_at(inside)));
    assert!(is_corrupt(store.to_columns()));
    // Bounds in every other block, the other chunk, and the active tail.
    let elsewhere = [
        times[100] + 0.25,
        times[K + 500] + 0.25,
        times[3 * K + 200] + 0.25,
        times[CHUNK + 1_000] + 0.25,
        times[2 * CHUNK + 50] + 0.25,
    ];
    for &a in &elsewhere {
        for &b in &elsewhere {
            let got = store.energy_between(a, b).expect("untouched blocks answer");
            assert_eq!(got.to_bits(), reference.energy_between(a, b).to_bits(), "[{a}, {b}]");
        }
        assert_eq!(store.power_at(a).unwrap(), reference.power_at(a));
    }
}

#[test]
fn padding_bits_are_covered_by_the_block_crc() {
    // A flip in the unused low bits of a bit stream's last byte changes no
    // decoded sample; only the last block's CRC can catch it.
    let (times, watts) = meter(2 * CHUNK + 100, 7);
    let scratch = ScratchDir::new("flip_padding");
    write_store(&scratch.0, &times, &watts, CHUNK);
    let segment = scratch.0.join(SEGMENT_FILE);
    let (sealed, _) = chunk::scan_segment(&mut std::fs::File::open(&segment).unwrap()).unwrap();
    let c = sealed.iter().position(|c| c.meta.bit_len % 8 != 0).expect("a padded stream");
    let meta = sealed[c].meta;
    let mut bytes = std::fs::read(&segment).unwrap();
    bytes[(meta.payload_offset + meta.bit_len / 8) as usize] ^= 1 << (7 - meta.bit_len % 8);
    std::fs::write(&segment, bytes).unwrap();
    let store = TraceStore::open(&scratch.0, config(CHUNK)).expect("reopens");
    let inside = (sealed[c].blocks.last().unwrap().key() + meta.last_t) / 2.0;
    assert!(is_corrupt(store.power_at(inside)));
    assert!(is_corrupt(store.energy_between(inside, times[2 * CHUNK + 50])));
}

#[test]
fn damaged_trailer_falls_back_to_one_block_and_reports_corrupt() {
    let (times, watts) = meter(2 * CHUNK + 100, 8);
    let reference = Reference::new(&times, &watts);
    let scratch = ScratchDir::new("flip_trailer");
    write_store(&scratch.0, &times, &watts, CHUNK);
    let segment = scratch.0.join(SEGMENT_FILE);
    let (sealed, _) = chunk::scan_segment(&mut std::fs::File::open(&segment).unwrap()).unwrap();
    let meta = sealed[1].meta;
    flip_byte(&segment, meta.payload_offset + chunk::stream_bytes(&meta) + 10);
    let store = TraceStore::open(&scratch.0, config(CHUNK)).expect("reopens");
    assert_eq!(store.sealed()[0].blocks.len(), 4);
    assert_eq!(store.sealed()[1].blocks.len(), 1, "a damaged trailer degrades to one block");
    // Inside chunk 1, the whole-payload CRC catches the damage.
    let inside = times[CHUNK + 2_000] + 0.25;
    assert!(is_corrupt(store.energy_between(times[5] + 0.25, inside)));
    assert!(is_corrupt(store.power_at(inside)));
    // Chunk 0, and chunk 1's footer-only edges, still answer bitwise.
    for &(a, b) in &[
        (times[5] + 0.25, times[K + 7] + 0.25),
        (times[100] + 0.25, meta.last_t),
        (meta.first_t, times[2 * CHUNK + 40] + 0.25),
    ] {
        let got = store.energy_between(a, b).expect("untouched data answers");
        assert_eq!(got.to_bits(), reference.energy_between(a, b).to_bits(), "[{a}, {b}]");
    }
}

#[test]
fn segment_without_trailers_opens_and_answers_bitwise() {
    // Two 5000-sample chunks hand-built from plain encoder payloads, as a
    // writer without restart trailers produced them.
    let (times, watts) = meter(10_000 + 300, 9);
    let reference = Reference::new(&times, &watts);
    let scratch = ScratchDir::new("no_trailer");
    std::fs::create_dir_all(&scratch.0).unwrap();
    let mut file = std::fs::File::create(scratch.0.join(SEGMENT_FILE)).unwrap();
    let mut end = 0;
    for range in [0..5_000, 5_000..10_000] {
        let mut enc = codec::Encoder::new();
        for i in range.clone() {
            enc.push(times[i], watts[i]);
        }
        let (payload, bit_len) = enc.finish();
        let ws = &watts[range.clone()];
        let meta = ChunkMeta {
            payload_offset: 0,
            payload_len: payload.len() as u32,
            bit_len: bit_len as u64,
            count: range.len() as u64,
            first_t: times[range.start],
            last_t: times[range.end - 1],
            first_w: watts[range.start],
            last_w: watts[range.end - 1],
            cum_first: reference.cum[range.start],
            cum_last: reference.cum[range.end - 1],
            peak_w: ws.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            min_w: ws.iter().copied().fold(f64::INFINITY, f64::min),
            payload_crc: crc32(&payload),
        };
        end = chunk::append_block(&mut file, end, &meta, &payload).unwrap();
    }
    file.sync_all().unwrap();
    drop(file);
    let mut store = TraceStore::open(&scratch.0, config(5_000)).expect("opens");
    assert_eq!(store.sealed_chunks(), 2);
    assert!(store.sealed().iter().all(|c| c.blocks.len() == 1), "no trailer: one block");
    store.append_batch(&times[10_000..], &watts[10_000..]).unwrap();
    let probes: Vec<f64> = (0..40).map(|i| times[0] + i as f64 * 263.3).collect();
    for &a in &probes {
        assert_eq!(store.power_at(a).unwrap(), reference.power_at(a), "power_at({a})");
        for &b in &[times[0], times[10_299], a + 1_700.0] {
            store.reset_decompressions();
            let got = store.energy_between(a, b).unwrap();
            assert_eq!(got.to_bits(), reference.energy_between(a, b).to_bits(), "[{a}, {b}]");
            assert!(store.decompressions() <= 2);
        }
    }
    let (t2, w2) = store.to_columns().unwrap();
    assert_eq!((t2, w2), (times, watts));
}

#[test]
fn seal_torn_inside_its_trailer_is_resealed_from_wal() {
    let (times, watts) = meter(CHUNK + 200, 10);
    let reference = Reference::new(&times, &watts);
    let scratch = ScratchDir::new("torn_trailer");
    let wal_snapshot;
    {
        let mut store = TraceStore::open(&scratch.0, config(CHUNK)).unwrap();
        store.append_batch(&times[..CHUNK - 1], &watts[..CHUNK - 1]).unwrap();
        wal_snapshot = std::fs::read(scratch.0.join(WAL_FILE)).unwrap();
        store.append_batch(&times[CHUNK - 1..], &watts[CHUNK - 1..]).unwrap();
        assert_eq!(store.sealed_chunks(), 1);
    }
    // Cut the segment halfway through the sealed chunk's trailer, and put
    // back the WAL as it was before the seal.
    let segment = scratch.0.join(SEGMENT_FILE);
    let (sealed, _) = chunk::scan_segment(&mut std::fs::File::open(&segment).unwrap()).unwrap();
    let meta = sealed[0].meta;
    let trailer_start = meta.payload_offset + chunk::stream_bytes(&meta);
    let trailer_end = meta.payload_offset + meta.payload_len as u64;
    truncate_file(&segment, (trailer_start + trailer_end) / 2);
    std::fs::write(scratch.0.join(WAL_FILE), &wal_snapshot).unwrap();

    let mut store = TraceStore::open(&scratch.0, config(CHUNK)).expect("recovers");
    assert_eq!(store.sealed_chunks(), 0, "the torn seal is truncated away");
    assert_eq!(store.len(), CHUNK as u64 - 1, "its samples come back from the WAL");
    assert_eq!(std::fs::metadata(&segment).unwrap().len(), 0);
    store.append_batch(&times[CHUNK - 1..], &watts[CHUNK - 1..]).unwrap();
    assert_eq!(store.sealed_chunks(), 1);
    assert_eq!(store.sealed()[0].blocks.len(), 4, "re-sealed with its trailer");
    assert_matches(&store, &reference, &restart_probes(&store));
    let (t2, w2) = store.to_columns().unwrap();
    assert_eq!((t2, w2), (times, watts));
}
