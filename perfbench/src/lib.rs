//! # perfbench — end-to-end and per-layer benchmark of the TGI workspace
//!
//! One run measures the workspace's three paths against their public APIs:
//!
//! * **green500** — the paper's artifacts from scratch, then a 500-system
//!   synthetic Green500 list built cold (every simulation misses the memo)
//!   and re-scored warm (every lookup hits).
//! * **store-query** — job-energy reports over random historical windows
//!   of a 4M-sample on-disk trace.
//! * **serve** — a closed loop of ingests, energy queries and evaluations
//!   against an in-process server that keeps its traces in memory.
//!
//! Every run reports every end-to-end metric, so every run exercises every
//! path; the workload picks the path that gets half of the measured time
//! (the other two get a quarter each). Paths take turns in short slices so
//! each one samples the whole run's host speed.
//!
//! Every answer is checked: the fleet tables against `run_sequential`, the
//! paper artifacts against a pinned digest, store windows against the
//! in-memory `PowerTrace`, and server replies against in-process oracles.
//!
//! With tracing on, slices alternate between untraced and traced, spans
//! recorded around each call into a layer give the per-layer table, and
//! the traced/untraced ratio of op times is the tracing overhead.

mod gen;
mod green500;
pub mod machine;
mod serve;
mod stats;
mod store_query;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Ledger;

/// The paths a run exercises; the workload names the one in front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Green500,
    StoreQuery,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Green500, Workload::StoreQuery, Workload::Serve];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Green500 => "green500",
            Workload::StoreQuery => "store-query",
            Workload::Serve => "serve",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Sizes::FULL`] is the benchmark; [`Sizes::SMOKE`] runs the
/// same code and checks on small inputs, for tests.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub fleet_systems: usize,
    pub store_samples: usize,
    pub serve_samples_per_node: usize,
}

impl Sizes {
    pub const FULL: Sizes =
        Sizes { fleet_systems: 500, store_samples: 4_000_000, serve_samples_per_node: 20_000 };
    pub const SMOKE: Sizes =
        Sizes { fleet_systems: 24, store_samples: 150_000, serve_samples_per_node: 2_000 };
}

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// Directory for the stores (removed at the end) and the Chrome trace.
    pub out_dir: PathBuf,
}

/// Times one slice of a path is measured before the next path's turn.
const SLICE: Duration = Duration::from_millis(500);
/// How many times the set-up runs; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// How a slice runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No collector installed: the numbers end-to-end metrics come from.
    Untraced,
    /// Spans recorded around each call.
    Traced,
    /// Traced, and the server's handler called in-process, without sockets.
    Direct,
}

/// Op durations (seconds) of one class, split by whether spans recorded.
#[derive(Debug, Default, Clone)]
pub struct Timings {
    pub untraced: Vec<f64>,
    pub traced: Vec<f64>,
}

impl Timings {
    pub fn push(&mut self, traced: bool, secs: f64) {
        if traced { &mut self.traced } else { &mut self.untraced }.push(secs);
    }

    /// Median traced over median untraced op time.
    fn overhead(&self) -> Option<f64> {
        let traced = stats::median(&mut self.traced.clone())?;
        let untraced = stats::median(&mut self.untraced.clone())?;
        Some(traced / untraced)
    }
}

/// Checked answers: how many, how many wrong, and the first few failures.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures.into_iter().take(8 - self.failures.len().min(8)));
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
}

impl Metric {
    /// Ops per second, as one over the median op time.
    pub fn rate(name: &'static str, secs: &mut [f64]) -> Metric {
        let median = stats::median(secs).unwrap_or(f64::NAN);
        Metric { name, value: 1.0 / median, unit: "1/s", samples: secs.len() }
    }

    /// The median of values already in `unit`.
    pub fn median(name: &'static str, xs: &mut [f64], unit: &'static str) -> Metric {
        let value = stats::median(xs).unwrap_or(f64::NAN);
        Metric { name, value, unit, samples: xs.len() }
    }

    /// A percentile of op times, in milliseconds.
    pub fn quantile_ms(name: &'static str, secs: &mut [f64], p: f64) -> Metric {
        let q = stats::percentile(secs, p).unwrap_or(f64::NAN);
        Metric { name, value: q * 1e3, unit: "ms", samples: secs.len() }
    }

    /// The median duration of a span, scaled from seconds.
    pub fn span_median(
        name: &'static str,
        ledger: &Ledger,
        span: &str,
        scale: f64,
        unit: &'static str,
    ) -> Metric {
        let mut secs = ledger.durations(span).to_vec();
        let median = stats::median(&mut secs).unwrap_or(f64::NAN);
        Metric { name, value: median * scale, unit, samples: secs.len() }
    }

    /// An exact count.
    pub fn count(name: &'static str, value: f64, samples: usize) -> Metric {
        Metric { name, value, unit: "count", samples }
    }
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    pub machine: machine::Machine,
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    /// Where the Chrome trace went, for traced runs.
    pub chrome_trace: Option<PathBuf>,
    /// Median of the host-drift probe between slices, microseconds.
    pub calib_us: f64,
}

/// Removes the stores however the run ends.
struct DataDir(PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one workload: set-up (several times), then the measured slices.
pub fn run(config: &Config) -> std::io::Result<Report> {
    let data = DataDir(config.out_dir.join(format!("data-{}", std::process::id())));
    std::fs::create_dir_all(&data.0)?;
    let machine = machine::Machine::probe(&data.0);
    let sizes = config.sizes;

    // Inputs and oracles: generated from the seed, not timed.
    let mut green = green500::Green500::new(config.seed, sizes.fleet_systems);
    let mut store =
        store_query::StoreQuery::new(config.seed, sizes.store_samples, data.0.join("store"));
    let mut serve = serve::Serve::new(config.seed, sizes.serve_samples_per_node);

    // The inputs and oracles are the harness's memory, not the program's.
    let rss_before_setup = machine::rss_mb();
    let mut ledger = Ledger::default();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        store.teardown();
        serve.teardown();
        if config.trace {
            Ledger::start();
        }
        let start = Instant::now();
        green.setup();
        store.setup();
        serve.setup(green.reference());
        setup_s.push(start.elapsed().as_secs_f64());
        if config.trace {
            ledger.stop(false);
        }
    }
    let appended = SETUP_REPS * sizes.store_samples;
    // What set-up made resident at its peak: the store, the server with its
    // history, the reference. Later growth is mostly samples the serve loop
    // ingests, which tracks its throughput, not its footprint.
    let peak_rss_mb = machine::peak_rss_mb().zip(rss_before_setup).map(|(peak, base)| peak - base);

    let modes: &[Mode] =
        if config.trace { &[Mode::Untraced, Mode::Traced] } else { &[Mode::Untraced] };
    let serve_modes: &[Mode] = if config.trace {
        &[Mode::Untraced, Mode::Traced, Mode::Direct]
    } else {
        &[Mode::Untraced]
    };
    // The workload's own path gets every other slice, the other two share
    // the rest.
    let others: Vec<Workload> =
        Workload::ALL.into_iter().filter(|&w| w != config.workload).collect();
    let order = [config.workload, others[0], config.workload, others[1]];
    let mut visits = [0usize; 3];
    let mut calib = Vec::new();
    let end = Instant::now() + Duration::from_secs_f64(config.seconds);
    'slices: loop {
        for path in order {
            calib.extend((0..5).map(|_| machine::calibrate_us()));
            let now = Instant::now();
            if now >= end {
                break 'slices;
            }
            let until = (now + SLICE).min(end);
            let index = path as usize;
            let path_modes = if path == Workload::Serve { serve_modes } else { modes };
            let mode = path_modes[visits[index] % path_modes.len()];
            visits[index] += 1;
            if mode != Mode::Untraced {
                Ledger::start();
            }
            match path {
                Workload::Green500 => green.run_slice(until, mode),
                Workload::StoreQuery => store.run_slice(until, mode),
                Workload::Serve => serve.run_slice(until, mode),
            }
            if mode != Mode::Untraced {
                // Keep the crates' own spans from each path's first traced slice.
                ledger.stop(visits[index] <= path_modes.len());
            }
        }
    }
    serve.finish();
    let calib_us = stats::median(&mut calib).unwrap_or(f64::NAN);

    let mut metrics = Vec::new();
    if config.trace {
        green.per_layer(&ledger, &mut metrics);
        store.per_layer(&ledger, &mut metrics);
        serve.per_layer(&ledger, &mut metrics);
        let appended_s = ledger.total("store.append_batch");
        metrics.push(Metric {
            name: "store.append_msamples_per_s",
            value: appended as f64 / appended_s / 1e6,
            unit: "M/s",
            samples: ledger.durations("store.append_batch").len(),
        });
        metrics.push(Metric {
            name: "host.calib_us",
            value: calib_us,
            unit: "us",
            samples: calib.len(),
        });
        metrics.push(Metric {
            name: "trace.coverage",
            value: ledger.coverage().unwrap_or(f64::NAN),
            unit: "ratio",
            samples: 1,
        });
        let serve_timings = serve.timings();
        let ratios: Vec<f64> = green
            .timings()
            .iter()
            .chain(store.timings())
            .chain(&serve_timings)
            .filter_map(Timings::overhead)
            .collect();
        let geomean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
        metrics.push(Metric {
            name: "trace.overhead",
            value: geomean,
            unit: "ratio",
            samples: ratios.len(),
        });
    } else {
        green.end_to_end(&mut metrics);
        store.end_to_end(&mut metrics);
        serve.end_to_end(&mut metrics);
        metrics.push(Metric::median("setup_s", &mut setup_s, "s"));
        metrics.push(Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb.unwrap_or(f64::NAN),
            unit: "MiB",
            samples: 1,
        });
    }

    let mut tally = Tally::default();
    tally.absorb(std::mem::take(&mut green.tally));
    tally.absorb(std::mem::take(&mut store.tally));
    tally.absorb(std::mem::take(&mut serve.tally));

    let chrome_trace = if config.trace {
        let path = config.out_dir.join(format!(
            "trace-{}-seed{}.json",
            config.workload.name(),
            config.seed
        ));
        ledger.write_chrome(&path)?;
        Some(path)
    } else {
        None
    };
    Ok(Report { machine, metrics, tally, chrome_trace, calib_us })
}
