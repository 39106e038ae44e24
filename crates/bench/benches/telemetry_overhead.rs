//! Telemetry disabled-path overhead guard, written to `BENCH_telemetry.json`
//! at the repository root (override the path with `TGI_BENCH_OUT`, the
//! iteration count with `TGI_TELEMETRY_BENCH_ITERS`).
//!
//! The instrumentation layer's contract is that with no collector installed
//! every entry point collapses to a relaxed atomic load. This bench proves
//! it: it times a no-op loop baseline, the disabled span/counter/histogram
//! paths, and (for context) the enabled paths, and asserts the disabled
//! span cost stays within 2x of the baseline (with a small absolute floor
//! so sub-nanosecond jitter cannot flake the guard).

use serde::Serialize;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Serialize)]
struct Machine {
    available_parallelism: usize,
}

#[derive(Serialize)]
struct DisabledPath {
    baseline_ns: f64,
    span_ns: f64,
    counter_ns: f64,
    histogram_ns: f64,
    span_overhead_x: f64,
}

#[derive(Serialize)]
struct EnabledPath {
    span_ns: f64,
    counter_ns: f64,
    histogram_ns: f64,
}

#[derive(Serialize)]
struct Baseline {
    machine: Machine,
    iters: usize,
    disabled: DisabledPath,
    enabled: EnabledPath,
}

/// The reference unit of work: something the optimizer cannot delete but
/// that does no real work — the floor any "free when off" claim is
/// measured against.
#[inline(never)]
fn noop_unit(i: u64) -> u64 {
    black_box(i)
}

fn time_per_iter(iters: usize, mut f: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    for i in 0..iters as u64 {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Median of several timing runs, to shrug off scheduler noise.
fn median_of(runs: usize, mut measure: impl FnMut() -> f64) -> f64 {
    let mut samples: Vec<f64> = (0..runs).map(|_| measure()).collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn output_path() -> PathBuf {
    if let Ok(p) = std::env::var("TGI_BENCH_OUT") {
        return PathBuf::from(p);
    }
    // crates/bench/ → repository root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join("BENCH_telemetry.json")
}

fn main() {
    let iters: usize = std::env::var("TGI_TELEMETRY_BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000_000);
    let runs = 7;
    let n_threads = std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1);
    eprintln!("telemetry_overhead: {iters} iters x {runs} runs, {n_threads} thread(s)");

    assert!(!tgi_telemetry::installed(), "bench must start with no collector");

    // Disabled paths: no collector installed.
    let baseline_ns = median_of(runs, || {
        time_per_iter(iters, |i| {
            black_box(noop_unit(i));
        })
    });
    let disabled_span_ns = median_of(runs, || {
        time_per_iter(iters, |i| {
            let _span = tgi_telemetry::span("bench.disabled");
            black_box(noop_unit(i));
        })
    });
    let disabled_counter_ns = median_of(runs, || {
        time_per_iter(iters, |i| {
            tgi_telemetry::counter!("bench_disabled_total").inc();
            black_box(noop_unit(i));
        })
    });
    let disabled_histogram_ns = median_of(runs, || {
        time_per_iter(iters, |i| {
            tgi_telemetry::histogram!("bench_disabled_seconds").observe(i as f64);
            black_box(noop_unit(i));
        })
    });

    // Enabled paths, for context (spans allocate + timestamp here). Uses a
    // smaller iteration count so the per-thread buffer bound is never hit.
    let enabled_iters = iters.min(100_000);
    assert!(tgi_telemetry::install(), "collector should install");
    let enabled_counter_ns = median_of(runs, || {
        time_per_iter(enabled_iters, |i| {
            tgi_telemetry::counter!("bench_enabled_total").inc();
            black_box(noop_unit(i));
        })
    });
    let enabled_histogram_ns = median_of(runs, || {
        time_per_iter(enabled_iters, |i| {
            tgi_telemetry::histogram!("bench_enabled_seconds").observe(i as f64);
            black_box(noop_unit(i));
        })
    });
    let mut recorded_spans = 0usize;
    let enabled_span_ns = median_of(runs, || {
        let per = time_per_iter(enabled_iters, |i| {
            let _span = tgi_telemetry::span("bench.enabled");
            black_box(noop_unit(i));
        });
        // Drain between runs so the bounded per-thread buffer never fills
        // (a full buffer would silently turn recording into counting).
        recorded_spans += tgi_telemetry::drain().len();
        per
    });
    tgi_telemetry::uninstall();
    assert!(recorded_spans > 0 || enabled_iters == 0, "enabled spans were recorded");

    let span_overhead_x = disabled_span_ns / baseline_ns.max(0.5);
    eprintln!("  baseline:           {baseline_ns:.2} ns/iter");
    eprintln!("  disabled span:      {disabled_span_ns:.2} ns/iter ({span_overhead_x:.2}x)");
    eprintln!("  disabled counter:   {disabled_counter_ns:.2} ns/iter");
    eprintln!("  disabled histogram: {disabled_histogram_ns:.2} ns/iter");
    eprintln!("  enabled span:       {enabled_span_ns:.2} ns/iter");
    eprintln!("  enabled counter:    {enabled_counter_ns:.2} ns/iter");
    eprintln!("  enabled histogram:  {enabled_histogram_ns:.2} ns/iter");

    // The guard: disabled spans must cost within 2x of the no-op loop
    // (the 0.5 ns floor keeps the ratio meaningful when the baseline is
    // faster than the clock's resolution).
    assert!(
        disabled_span_ns <= 2.0 * baseline_ns.max(0.5),
        "disabled span overhead {disabled_span_ns:.2} ns exceeds 2x baseline {baseline_ns:.2} ns"
    );

    let baseline = Baseline {
        machine: Machine { available_parallelism: n_threads },
        iters,
        disabled: DisabledPath {
            baseline_ns,
            span_ns: disabled_span_ns,
            counter_ns: disabled_counter_ns,
            histogram_ns: disabled_histogram_ns,
            span_overhead_x,
        },
        enabled: EnabledPath {
            span_ns: enabled_span_ns,
            counter_ns: enabled_counter_ns,
            histogram_ns: enabled_histogram_ns,
        },
    };
    let json = serde_json::to_string_pretty(&baseline).expect("baseline serializes");
    let path = output_path();
    std::fs::write(&path, json + "\n").expect("baseline file writable");
    eprintln!("telemetry_overhead: wrote {}", path.display());
}
