//! The historical-query path: job-energy reports over random windows of a
//! large on-disk trace, the same two calls `GET /traces/{node}/energy`
//! makes.

use crate::gen::{window, MeterStream, Rng};
use crate::trace::{layer, op, Ledger};
use crate::{Metric, Mode, Tally, Timings};
use power_model::{anomaly, AnomalyConfig, PowerTrace, StoreBackedTrace};
use std::path::{Path, PathBuf};
use std::time::Instant;
use tgi_trace_store::{StoreConfig, TraceStore};

/// Samples per append, one hour of 1 Hz meter data.
pub const BATCH: usize = 3_600;
/// Chunk decodes one window call may cost: its two boundary chunks.
const MAX_DECODES_PER_CALL: u64 = 2;
/// One `power.scan_stored` probe per this many traced windows.
const SCAN_EVERY: u64 = 64;

/// The samples every store of the run holds, kept in memory as the
/// `PowerTrace` oracle whose answers the store must match bit for bit.
pub fn meter_trace(seed: u64, stream: u64, samples: usize) -> (PowerTrace, MeterStream) {
    let mut meter = MeterStream::new(Rng::new(seed, stream), 0.0);
    let mut trace = PowerTrace::with_capacity(samples);
    let (mut times, mut watts) = (Vec::with_capacity(BATCH), Vec::with_capacity(BATCH));
    while trace.len() < samples {
        meter.fill(BATCH.min(samples - trace.len()), &mut times, &mut watts);
        trace.extend_from_slices(&times, &watts);
    }
    (trace, meter)
}

/// Writes `trace` into a new store at `dir` in [`BATCH`]-sample appends and
/// syncs it.
fn write_store(dir: &Path, trace: &PowerTrace) {
    let mut store = TraceStore::open(dir, StoreConfig::default()).expect("store opens");
    for (times, watts) in trace.times().chunks(BATCH).zip(trace.watts().chunks(BATCH)) {
        let _s = layer("store.append_batch");
        store.append_batch(times, watts).expect("meter samples are valid");
    }
    let _s = layer("store.sync");
    store.sync().expect("store syncs");
}

pub struct StoreQuery {
    dir: PathBuf,
    oracle: PowerTrace,
    store: Option<StoreBackedTrace>,
    rng: Rng,
    timings: Timings,
    calls: u64,
    decodes: u64,
    bytes_per_sample: f64,
    pub tally: Tally,
}

impl StoreQuery {
    /// Generates the seed's trace (not timed).
    pub fn new(seed: u64, samples: usize, dir: PathBuf) -> Self {
        let (oracle, _) = meter_trace(seed, 10, samples);
        StoreQuery {
            dir,
            oracle,
            store: None,
            rng: Rng::new(seed, 11),
            timings: Timings::default(),
            calls: 0,
            decodes: 0,
            bytes_per_sample: 0.0,
            tally: Tally::default(),
        }
    }

    /// Removes the previous store (not timed).
    pub fn teardown(&mut self) {
        self.store = None;
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    /// Writes the trace into a fresh store, syncs, and reopens it so every
    /// query starts from footers alone.
    pub fn setup(&mut self) {
        write_store(&self.dir, &self.oracle);
        let store = {
            let _s = layer("store.open");
            TraceStore::open(&self.dir, StoreConfig::default()).expect("store reopens")
        };
        self.tally.check(store.len() == self.oracle.len() as u64, || {
            format!("reopened store holds {} samples, wrote {}", store.len(), self.oracle.len())
        });
        self.bytes_per_sample = store.disk_bytes() as f64 / self.oracle.len() as f64;
        self.store = Some(StoreBackedTrace::new(store));
    }

    /// Runs window queries until `until`.
    pub fn run_slice(&mut self, until: Instant, mode: Mode) {
        let traced = mode != Mode::Untraced;
        let (first, last) = self.oracle.time_bounds().expect("trace is non-empty");
        let backed = self.store.as_ref().expect("set up before running");
        let store = backed.store();
        while Instant::now() < until {
            let (a, b) = window(&mut self.rng, first, last);
            let start = Instant::now();
            let (energy, power, decodes) = {
                let _op = op("store.window");
                let before = store.decompressions();
                let energy = {
                    let _s = layer("store.energy_between");
                    store.energy_between(a, b)
                };
                let mid = store.decompressions();
                let power = {
                    let _s = layer("store.average_power_between");
                    store.average_power_between(a, b)
                };
                (energy, power, [mid - before, store.decompressions() - mid])
            };
            self.timings.push(traced, start.elapsed().as_secs_f64());
            self.calls += 2;
            self.decodes += decodes[0] + decodes[1];
            let want = (self.oracle.energy_between(a, b), self.oracle.average_power_between(a, b));
            let ok = matches!((&energy, &power), (Ok(e), Ok(p))
                if e.to_bits() == want.0.value().to_bits() && p.to_bits() == want.1.value().to_bits());
            self.tally.check(ok && decodes.iter().all(|&d| d <= MAX_DECODES_PER_CALL), || {
                format!("window [{a}, {b}]: store {energy:?}/{power:?} with {decodes:?} decodes, oracle {want:?}")
            });
            if traced {
                let _s = layer("power.memory_energy_between");
                std::hint::black_box(self.oracle.energy_between(a, b));
            }
            if traced && self.calls.is_multiple_of(2 * SCAN_EVERY) {
                probe_scan(backed, &self.oracle, a, &mut self.tally);
            }
        }
    }

    pub fn end_to_end(&mut self, out: &mut Vec<Metric>) {
        out.push(Metric::rate("windows_per_s", &mut self.timings.untraced));
    }

    pub fn per_layer(&mut self, ledger: &Ledger, out: &mut Vec<Metric>) {
        for (name, span) in [
            ("store.energy_between_ms", "store.energy_between"),
            ("store.average_power_between_ms", "store.average_power_between"),
            ("store.open_ms", "store.open"),
            ("power.scan_stored_ms", "power.scan_stored"),
        ] {
            out.push(Metric::span_median(name, ledger, span, 1e3, "ms"));
        }
        out.push(Metric::span_median(
            "power.memory_energy_between_us",
            ledger,
            "power.memory_energy_between",
            1e6,
            "us",
        ));
        out.push(Metric {
            name: "store.decodes_per_call",
            value: self.decodes as f64 / self.calls.max(1) as f64,
            unit: "count",
            samples: self.calls as usize,
        });
        out.push(Metric {
            name: "store.bytes_per_sample",
            value: self.bytes_per_sample,
            unit: "B",
            samples: self.oracle.len(),
        });
    }

    pub fn timings(&self) -> &[Timings] {
        std::slice::from_ref(&self.timings)
    }
}

/// `anomaly::scan_stored` over one day from `a`, against the same scan over
/// the in-memory window.
fn probe_scan(backed: &StoreBackedTrace, oracle: &PowerTrace, a: f64, tally: &mut Tally) {
    let config = AnomalyConfig::default();
    let stored = {
        let _s = layer("power.scan_stored");
        anomaly::scan_stored(backed, config, Some(a), Some(a + 86_400.0))
    };
    let memory = anomaly::scan(&oracle.window(a, a + 86_400.0), config);
    tally.check(stored.as_ref().is_ok_and(|s| *s == memory), || {
        format!("scan_stored from {a} differs from the in-memory scan")
    });
}
