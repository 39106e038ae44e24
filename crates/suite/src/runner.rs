//! Resilient, parallel execution of a [`BenchmarkSuite`].
//!
//! [`SuiteRunner`] supersedes the sequential fail-fast loop that
//! [`BenchmarkSuite::run_all`] used to be: it schedules every
//! (benchmark × repeat) item over a bounded worker pool, serializes
//! benchmarks that need exclusive use of the power meter, retries
//! transient failures with exponential backoff, abandons attempts that
//! exceed a wall-clock timeout, and records everything it did in a
//! [`RunReport`] whose entries serialize into an append-only JSONL run
//! journal (written by the harness).
//!
//! ## Execution model
//!
//! * Work items are the flattened cross product of benchmarks and
//!   repeats, in suite order. `parallelism` worker threads pull items
//!   from a shared queue; results land in per-item slots, so report
//!   order is deterministic regardless of scheduling.
//! * A benchmark whose [`Benchmark::exclusive_meter`] returns `true`
//!   (all metered native benchmarks) runs **fully exclusively**: its
//!   worker takes the write side of the runner's meter lock while every
//!   other item holds the read side, so a metered run overlaps with
//!   nothing — not even non-metered items. Concurrent metered runs
//!   would perturb each other's power trace (the paper's setup has one
//!   wall meter per node), and the native kernels are genuinely
//!   multi-threaded through the `rayon` shim (`TGI_NUM_THREADS`), so a
//!   metered kernel uses the whole machine: any concurrent item would
//!   both distort its sampled draw and steal its cores. Simulated and
//!   cluster benchmarks fan out freely among themselves.
//! * Each attempt runs on its own thread. If it exceeds the configured
//!   timeout the attempt is *abandoned* (the thread is detached, not
//!   killed — Rust has no safe thread cancellation) and reported as
//!   [`SuiteError::Timeout`]. An abandoned metered attempt may keep
//!   sampling until its kernel finishes; the meter token is released
//!   when the timeout fires, so a long-hung metered benchmark can
//!   overlap its successor's trace. Timeouts are a last-resort
//!   containment, not a precision instrument.
//! * A failed attempt is retried up to `retries` times iff the error
//!   [`SuiteError::is_transient`], sleeping `backoff × 2^attempt`
//!   between attempts. Deterministic failures (validation, kernel,
//!   panic, timeout) are never retried.
//! * Under [`FailureMode::FailFast`] the first exhausted failure stops
//!   the queue: unstarted items are reported as [`RunOutcome::Skipped`]
//!   (in-flight items finish normally). Under
//!   [`FailureMode::CollectErrors`] every item runs and the report
//!   carries all failures.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use tgi_core::Measurement;

use crate::benchmark::{Benchmark, BenchmarkOutput, SuiteError};
use crate::suite::BenchmarkSuite;

/// What the runner does after a benchmark exhausts its retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureMode {
    /// Stop scheduling new items; unstarted items are reported as skipped.
    FailFast,
    /// Keep going; the report collects every failure alongside successes.
    CollectErrors,
}

/// Configurable executor for a [`BenchmarkSuite`]. Builder-style.
#[derive(Debug, Clone)]
pub struct SuiteRunner {
    parallelism: usize,
    repeats: usize,
    retries: usize,
    backoff: Duration,
    timeout: Option<Duration>,
    failure_mode: FailureMode,
}

impl Default for SuiteRunner {
    fn default() -> Self {
        SuiteRunner {
            parallelism: 1,
            repeats: 1,
            retries: 0,
            backoff: Duration::from_millis(50),
            timeout: None,
            failure_mode: FailureMode::FailFast,
        }
    }
}

impl SuiteRunner {
    /// A sequential, single-shot, fail-fast runner — the exact semantics
    /// `BenchmarkSuite::run_all` always had.
    pub fn new() -> Self {
        SuiteRunner::default()
    }

    /// Number of worker threads (clamped to at least 1).
    pub fn parallelism(mut self, n: usize) -> Self {
        self.parallelism = n.max(1);
        self
    }

    /// How many times each benchmark runs (clamped to at least 1). Every
    /// repeat is a separate report entry.
    pub fn repeats(mut self, n: usize) -> Self {
        self.repeats = n.max(1);
        self
    }

    /// Extra attempts allowed after a transient failure.
    pub fn retries(mut self, n: usize) -> Self {
        self.retries = n;
        self
    }

    /// Initial sleep before the first retry; doubles on each subsequent one.
    pub fn backoff(mut self, d: Duration) -> Self {
        self.backoff = d;
        self
    }

    /// Wall-clock budget per attempt; `None` (the default) waits forever.
    pub fn timeout(mut self, d: Option<Duration>) -> Self {
        self.timeout = d;
        self
    }

    /// Whether the first failure stops the run or is merely collected.
    pub fn failure_mode(mut self, mode: FailureMode) -> Self {
        self.failure_mode = mode;
        self
    }

    /// Executes the suite and reports what happened, item by item.
    pub fn run(&self, suite: &BenchmarkSuite) -> RunReport {
        let started = Instant::now();
        let benchmarks = suite.benchmarks();
        let items: Vec<(usize, usize)> =
            (0..benchmarks.len()).flat_map(|b| (0..self.repeats).map(move |r| (b, r))).collect();
        let _run_span = tgi_telemetry::span_cat("suite.run", "suite")
            .field("benchmarks", benchmarks.len())
            .field("items", items.len())
            .field("parallelism", self.parallelism);
        let slots: Vec<Mutex<Option<BenchmarkReport>>> =
            items.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        // Write side = metered item (exclusive machine), read side = everyone else.
        let meter = RwLock::new(());

        let workers = self.parallelism.min(items.len().max(1));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(&(bench_idx, repeat)) = items.get(i) else {
                        break;
                    };
                    let bench = &benchmarks[bench_idx];
                    let report = if abort.load(Ordering::SeqCst) {
                        if tgi_telemetry::enabled() {
                            tgi_telemetry::counter!("tgi_suite_skipped_total").inc();
                        }
                        BenchmarkReport::skipped(bench.as_ref(), repeat)
                    } else {
                        let report = self.run_item(bench, repeat, &meter);
                        if matches!(report.outcome, RunOutcome::Failed(_))
                            && self.failure_mode == FailureMode::FailFast
                        {
                            abort.store(true, Ordering::SeqCst);
                        }
                        report
                    };
                    *slots[i].lock().expect("report slot poisoned") = Some(report);
                });
            }
        });

        let entries = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("report slot poisoned")
                    .expect("worker pool exited with an unfilled slot")
            })
            .collect();
        RunReport { entries, wall_secs: started.elapsed().as_secs_f64() }
    }

    /// Runs one (benchmark, repeat) item: attempts + retries + timeout.
    fn run_item(
        &self,
        bench: &Arc<dyn Benchmark>,
        repeat: usize,
        meter: &RwLock<()>,
    ) -> BenchmarkReport {
        let started = Instant::now();
        let item_span = tgi_telemetry::span_cat("suite.item", "suite")
            .field("benchmark", bench.id())
            .field("repeat", repeat)
            .field("metered", bench.exclusive_meter());
        let mut attempts = 0;
        let outcome = loop {
            attempts += 1;
            // Metered items take the write lock (run alone on the whole
            // machine); everything else shares the read lock so it can
            // overlap with other non-metered items but never with a
            // metered one.
            let lock_started = Instant::now();
            let write_guard;
            let read_guard;
            if bench.exclusive_meter() {
                write_guard = Some(meter.write().expect("meter lock poisoned"));
                read_guard = None;
            } else {
                write_guard = None;
                read_guard = Some(meter.read().expect("meter lock poisoned"));
            }
            if tgi_telemetry::enabled() {
                // Cumulative seconds every item spent waiting for its meter
                // token (write side for metered items, read side otherwise).
                tgi_telemetry::gauge!("tgi_suite_meter_wait_seconds")
                    .add(lock_started.elapsed().as_secs_f64());
            }
            let attempt_started = Instant::now();
            let result = self.attempt(bench);
            drop(write_guard);
            drop(read_guard);
            if tgi_telemetry::enabled() {
                tgi_telemetry::histogram!("tgi_suite_attempt_seconds")
                    .observe(attempt_started.elapsed().as_secs_f64());
            }
            match result {
                Ok(output) => break RunOutcome::Success(output),
                Err(e) if e.is_transient() && attempts <= self.retries => {
                    if tgi_telemetry::enabled() {
                        tgi_telemetry::counter!("tgi_suite_retries_total").inc();
                        tgi_telemetry::instant("suite.retry")
                            .field("benchmark", bench.id())
                            .field("attempt", attempts)
                            .end();
                    }
                    std::thread::sleep(self.backoff * 2u32.pow(attempts as u32 - 1));
                }
                Err(e) => break RunOutcome::Failed(e),
            }
        };
        if tgi_telemetry::enabled() {
            match &outcome {
                RunOutcome::Success(_) => {
                    tgi_telemetry::counter!("tgi_suite_successes_total").inc()
                }
                RunOutcome::Failed(SuiteError::Timeout { .. }) => {
                    tgi_telemetry::counter!("tgi_suite_timeouts_total").inc();
                    tgi_telemetry::counter!("tgi_suite_failures_total").inc();
                }
                RunOutcome::Failed(_) => tgi_telemetry::counter!("tgi_suite_failures_total").inc(),
                RunOutcome::Skipped => {}
            }
        }
        item_span.field("attempts", attempts).end();
        BenchmarkReport {
            benchmark: bench.id().to_string(),
            subsystem: bench.subsystem(),
            repeat,
            attempts,
            wall_secs: started.elapsed().as_secs_f64(),
            outcome,
        }
    }

    /// One attempt on a dedicated thread, bounded by the timeout.
    fn attempt(&self, bench: &Arc<dyn Benchmark>) -> Result<BenchmarkOutput, SuiteError> {
        let (tx, rx) = mpsc::channel();
        let worker = Arc::clone(bench);
        let handle = std::thread::spawn(move || {
            let span =
                tgi_telemetry::span_cat("suite.attempt", "suite").field("benchmark", worker.id());
            let result = worker.run_detailed();
            span.field("ok", result.is_ok()).end();
            // A send error only means the runner timed out and dropped
            // the receiver; the result is discarded either way.
            let _ = tx.send(result);
        });
        let received = match self.timeout {
            Some(budget) => rx.recv_timeout(budget),
            None => rx.recv().map_err(mpsc::RecvTimeoutError::from),
        };
        match received {
            Ok(result) => {
                let _ = handle.join();
                result
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // Abandon the hung attempt: the thread is detached and
                // its eventual result is dropped with the receiver.
                Err(SuiteError::Timeout {
                    benchmark: bench.id().to_string(),
                    seconds: self.timeout.expect("timeout fired without a budget").as_secs_f64(),
                })
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                let detail = match handle.join() {
                    Err(payload) => payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| String::from("<non-string panic payload>")),
                    Ok(()) => String::from("<attempt thread exited without reporting>"),
                };
                Err(SuiteError::Panicked { benchmark: bench.id().to_string(), detail })
            }
        }
    }
}

/// How one (benchmark, repeat) item ended.
#[derive(Debug)]
pub enum RunOutcome {
    /// The benchmark produced a measurement.
    Success(BenchmarkOutput),
    /// Every allowed attempt failed; this is the last error.
    Failed(SuiteError),
    /// Never started because an earlier failure aborted the run
    /// (fail-fast mode only).
    Skipped,
}

/// The runner's record of one (benchmark, repeat) item.
#[derive(Debug)]
pub struct BenchmarkReport {
    /// Benchmark id.
    pub benchmark: String,
    /// Subsystem the benchmark stresses.
    pub subsystem: &'static str,
    /// Which repeat this entry is (0-based).
    pub repeat: usize,
    /// Attempts actually made (1 + retries taken; 0 when skipped).
    pub attempts: usize,
    /// Wall-clock seconds spent on this item, including retries/backoff.
    pub wall_secs: f64,
    /// How the item ended.
    pub outcome: RunOutcome,
}

impl BenchmarkReport {
    fn skipped(bench: &dyn Benchmark, repeat: usize) -> Self {
        BenchmarkReport {
            benchmark: bench.id().to_string(),
            subsystem: bench.subsystem(),
            repeat,
            attempts: 0,
            wall_secs: 0.0,
            outcome: RunOutcome::Skipped,
        }
    }

    /// The measurement, when the item succeeded.
    pub fn measurement(&self) -> Option<&Measurement> {
        match &self.outcome {
            RunOutcome::Success(output) => Some(&output.measurement),
            _ => None,
        }
    }

    /// Flattens the report into the serializable journal-record form.
    pub fn record(&self) -> RunRecord {
        let (status, m, trace_samples, error) = match &self.outcome {
            RunOutcome::Success(o) => ("success", Some(&o.measurement), o.trace_samples, None),
            RunOutcome::Failed(e) => ("failed", None, 0, Some(e.to_string())),
            RunOutcome::Skipped => ("skipped", None, 0, None),
        };
        RunRecord {
            benchmark: self.benchmark.clone(),
            subsystem: self.subsystem.to_string(),
            repeat: self.repeat,
            attempts: self.attempts,
            wall_secs: self.wall_secs,
            trace_samples,
            status: status.to_string(),
            perf: m.map(|m| m.performance().value()),
            perf_unit: m.map(|m| m.performance().unit().to_string()),
            power_watts: m.map(|m| m.power().value()),
            time_secs: m.map(|m| m.time().value()),
            energy_joules: m.map(|m| m.energy().value()),
            error,
        }
    }
}

/// One JSONL journal line: a [`BenchmarkReport`] flattened to plain data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    /// Benchmark id.
    pub benchmark: String,
    /// Subsystem the benchmark stresses.
    pub subsystem: String,
    /// Which repeat this entry is (0-based).
    pub repeat: usize,
    /// Attempts actually made.
    pub attempts: usize,
    /// Wall-clock seconds spent on the item.
    pub wall_secs: f64,
    /// Power-trace samples collected (0 unless metered and successful).
    pub trace_samples: usize,
    /// `"success"`, `"failed"`, or `"skipped"`.
    pub status: String,
    /// Measured performance in canonical units (successes only).
    pub perf: Option<f64>,
    /// Unit label for `perf` (successes only).
    pub perf_unit: Option<String>,
    /// Average power in watts (successes only).
    pub power_watts: Option<f64>,
    /// Measured wall time in seconds (successes only).
    pub time_secs: Option<f64>,
    /// Integrated energy in joules (successes only).
    pub energy_joules: Option<f64>,
    /// Display form of the final error (failures only).
    pub error: Option<String>,
}

/// Everything a [`SuiteRunner::run`] did, in suite order.
#[derive(Debug)]
pub struct RunReport {
    /// One entry per (benchmark × repeat) item, in suite order.
    pub entries: Vec<BenchmarkReport>,
    /// Wall-clock seconds for the whole run.
    pub wall_secs: f64,
}

impl RunReport {
    /// Successful measurements, in suite order.
    pub fn measurements(&self) -> Vec<&Measurement> {
        self.entries.iter().filter_map(|e| e.measurement()).collect()
    }

    /// Entries that ended in failure.
    pub fn failures(&self) -> Vec<&BenchmarkReport> {
        self.entries.iter().filter(|e| matches!(e.outcome, RunOutcome::Failed(_))).collect()
    }

    /// Whether every item produced a measurement.
    pub fn all_succeeded(&self) -> bool {
        self.entries.iter().all(|e| matches!(e.outcome, RunOutcome::Success(_)))
    }

    /// Journal-record form of every entry, in suite order.
    pub fn records(&self) -> Vec<RunRecord> {
        self.entries.iter().map(|e| e.record()).collect()
    }

    /// Collects the meter traces of every successful metered item into a
    /// [`power_model::TraceSet`] labeled `benchmark#repeat`, ready for
    /// parallel fleet analysis (aggregate energy, idle floor, window
    /// queries). Unmetered and failed items contribute nothing.
    pub fn trace_set(&self) -> power_model::TraceSet {
        let mut set = power_model::TraceSet::new();
        for entry in &self.entries {
            if let RunOutcome::Success(output) = &entry.outcome {
                if let Some(trace) = &output.trace {
                    set.push(format!("{}#{}", entry.benchmark, entry.repeat), trace.clone());
                }
            }
        }
        set
    }

    /// Summarizes per-item wall time through a log-linear quantile sketch
    /// (1% relative error): p50/p99/p999 over every *attempted* item —
    /// skipped items spent no wall time and are excluded.
    pub fn latency_quantiles(&self) -> tgi_telemetry::QuantileSummary {
        let hist = tgi_telemetry::QuantileHistogram::new(0.01);
        for entry in &self.entries {
            if !matches!(entry.outcome, RunOutcome::Skipped) {
                hist.observe(entry.wall_secs);
            }
        }
        hist.summary()
    }

    /// Scans the power trace of every successful metered item with the
    /// anomaly detector and totals the events per kind. Deterministic
    /// given the traces: the scan replays a fresh detector per trace in
    /// sample order regardless of how the run was scheduled.
    pub fn anomaly_counts(&self, config: power_model::AnomalyConfig) -> power_model::AnomalyCounts {
        let mut counts = power_model::AnomalyCounts::default();
        for entry in &self.entries {
            if let RunOutcome::Success(output) = &entry.outcome {
                if let Some(trace) = &output.trace {
                    for event in power_model::anomaly::scan(trace, config) {
                        match event.kind {
                            power_model::AnomalyKind::Spike => counts.spikes += 1,
                            power_model::AnomalyKind::Drift => counts.drifts += 1,
                            power_model::AnomalyKind::Dropout => counts.dropouts += 1,
                        }
                    }
                }
            }
        }
        counts
    }

    /// Collapses the report into `run_all`-style results: every
    /// measurement in order, or the first failure.
    pub fn into_result(self) -> Result<Vec<Measurement>, SuiteError> {
        let mut out = Vec::with_capacity(self.entries.len());
        for entry in self.entries {
            match entry.outcome {
                RunOutcome::Success(o) => out.push(o.measurement),
                RunOutcome::Failed(e) => return Err(e),
                RunOutcome::Skipped => {}
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use tgi_core::{Perf, Seconds, Watts};

    fn meas(id: &str, gflops: f64) -> Measurement {
        Measurement::new(id, Perf::gflops(gflops), Watts::new(100.0), Seconds::new(1.0)).unwrap()
    }

    struct Fixed {
        id: &'static str,
        gflops: f64,
    }
    impl Benchmark for Fixed {
        fn id(&self) -> &str {
            self.id
        }
        fn subsystem(&self) -> &'static str {
            "test"
        }
        fn run(&self) -> Result<Measurement, SuiteError> {
            Ok(meas(self.id, self.gflops))
        }
    }

    /// Fails with a transient I/O error `failures` times, then succeeds.
    struct FlakyThenOk {
        failures: u32,
        calls: AtomicU32,
    }
    impl FlakyThenOk {
        fn new(failures: u32) -> Self {
            FlakyThenOk { failures, calls: AtomicU32::new(0) }
        }
    }
    impl Benchmark for FlakyThenOk {
        fn id(&self) -> &str {
            "flaky"
        }
        fn subsystem(&self) -> &'static str {
            "test"
        }
        fn run(&self) -> Result<Measurement, SuiteError> {
            if self.calls.fetch_add(1, Ordering::SeqCst) < self.failures {
                Err(SuiteError::Io(std::io::Error::other("scratch disk busy")))
            } else {
                Ok(meas("flaky", 2.0))
            }
        }
    }

    struct Hang {
        secs: f64,
    }
    impl Benchmark for Hang {
        fn id(&self) -> &str {
            "hang"
        }
        fn subsystem(&self) -> &'static str {
            "test"
        }
        fn run(&self) -> Result<Measurement, SuiteError> {
            std::thread::sleep(Duration::from_secs_f64(self.secs));
            Ok(meas("hang", 1.0))
        }
    }

    struct Panicking;
    impl Benchmark for Panicking {
        fn id(&self) -> &str {
            "panicking"
        }
        fn subsystem(&self) -> &'static str {
            "test"
        }
        fn run(&self) -> Result<Measurement, SuiteError> {
            panic!("kernel blew up");
        }
    }

    struct AlwaysFails;
    impl Benchmark for AlwaysFails {
        fn id(&self) -> &str {
            "fails"
        }
        fn subsystem(&self) -> &'static str {
            "test"
        }
        fn run(&self) -> Result<Measurement, SuiteError> {
            Err(SuiteError::Kernel("deterministic".into()))
        }
    }

    fn fixed_suite() -> BenchmarkSuite {
        BenchmarkSuite::new()
            .with(Fixed { id: "a", gflops: 1.0 })
            .with(Fixed { id: "b", gflops: 2.0 })
            .with(Fixed { id: "c", gflops: 3.0 })
            .with(Fixed { id: "d", gflops: 4.0 })
    }

    #[test]
    fn parallel_matches_sequential() {
        let sequential = SuiteRunner::new().run(&fixed_suite()).into_result().unwrap();
        let parallel = SuiteRunner::new().parallelism(4).run(&fixed_suite()).into_result().unwrap();
        assert_eq!(sequential, parallel);
        assert_eq!(parallel.iter().map(|m| m.id()).collect::<Vec<_>>(), ["a", "b", "c", "d"]);
    }

    #[test]
    fn retries_transient_failures_and_counts_attempts() {
        let suite = BenchmarkSuite::new().with(FlakyThenOk::new(2));
        let report = SuiteRunner::new().retries(3).backoff(Duration::from_millis(1)).run(&suite);
        let entry = &report.entries[0];
        assert_eq!(entry.attempts, 3, "two transient failures then success");
        assert!(entry.measurement().is_some());
    }

    #[test]
    fn retries_exhausted_reports_last_error() {
        let suite = BenchmarkSuite::new().with(FlakyThenOk::new(10));
        let report = SuiteRunner::new().retries(2).backoff(Duration::from_millis(1)).run(&suite);
        let entry = &report.entries[0];
        assert_eq!(entry.attempts, 3);
        assert!(matches!(entry.outcome, RunOutcome::Failed(SuiteError::Io(_))));
    }

    #[test]
    fn deterministic_failures_are_not_retried() {
        let suite = BenchmarkSuite::new().with(AlwaysFails);
        let report = SuiteRunner::new().retries(5).run(&suite);
        assert_eq!(report.entries[0].attempts, 1);
    }

    #[test]
    fn timeout_abandons_hung_benchmark() {
        let suite = BenchmarkSuite::new().with(Hang { secs: 2.0 });
        let started = Instant::now();
        let report = SuiteRunner::new().timeout(Some(Duration::from_millis(50))).run(&suite);
        assert!(started.elapsed() < Duration::from_secs(1), "did not wait for the hang");
        assert!(matches!(
            report.entries[0].outcome,
            RunOutcome::Failed(SuiteError::Timeout { .. })
        ));
    }

    #[test]
    fn panic_is_contained_and_reported() {
        let suite = BenchmarkSuite::new().with(Panicking).with(Fixed { id: "ok", gflops: 1.0 });
        let report = SuiteRunner::new().failure_mode(FailureMode::CollectErrors).run(&suite);
        match &report.entries[0].outcome {
            RunOutcome::Failed(SuiteError::Panicked { detail, .. }) => {
                assert!(detail.contains("kernel blew up"), "got {detail}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert!(report.entries[1].measurement().is_some());
    }

    #[test]
    fn fail_fast_skips_unstarted_items() {
        let suite = BenchmarkSuite::new().with(AlwaysFails).with(Fixed { id: "late", gflops: 1.0 });
        let report = SuiteRunner::new().run(&suite);
        assert!(matches!(report.entries[0].outcome, RunOutcome::Failed(_)));
        assert!(matches!(report.entries[1].outcome, RunOutcome::Skipped));
        assert_eq!(report.entries[1].attempts, 0);
        assert!(report.into_result().is_err());
    }

    #[test]
    fn collect_errors_runs_everything() {
        let suite = BenchmarkSuite::new().with(AlwaysFails).with(Fixed { id: "late", gflops: 1.0 });
        let report = SuiteRunner::new().failure_mode(FailureMode::CollectErrors).run(&suite);
        assert_eq!(report.failures().len(), 1);
        assert_eq!(report.measurements().len(), 1);
        assert!(!report.all_succeeded());
    }

    #[test]
    fn repeats_produce_one_entry_each() {
        let suite = BenchmarkSuite::new().with(Fixed { id: "a", gflops: 1.0 });
        let report = SuiteRunner::new().repeats(3).run(&suite);
        assert_eq!(report.entries.len(), 3);
        assert_eq!(report.entries.iter().map(|e| e.repeat).collect::<Vec<_>>(), [0, 1, 2]);
        assert!(report.all_succeeded());
    }

    /// The ISSUE acceptance scenario: ≥4 benchmarks, one injected
    /// transient failure, one injected hang, CollectErrors — completes
    /// with retries and the timeout recorded, and the journal records
    /// round-trip through JSON.
    #[test]
    fn acceptance_flaky_and_hung_suite_collects_errors() {
        let suite = BenchmarkSuite::new()
            .with(Fixed { id: "hpl", gflops: 90.0 })
            .with(FlakyThenOk::new(1))
            .with(Hang { secs: 5.0 })
            .with(Fixed { id: "stream", gflops: 2.0 })
            .with(Fixed { id: "iozone", gflops: 1.0 });
        let report = SuiteRunner::new()
            .parallelism(3)
            .retries(2)
            .backoff(Duration::from_millis(1))
            .timeout(Some(Duration::from_millis(100)))
            .failure_mode(FailureMode::CollectErrors)
            .run(&suite);

        assert_eq!(report.entries.len(), 5);
        assert_eq!(report.measurements().len(), 4, "all but the hang succeed");
        let flaky = &report.entries[1];
        assert_eq!(flaky.attempts, 2, "one transient failure, one retry");
        let hung = &report.entries[2];
        assert!(matches!(
            hung.outcome,
            RunOutcome::Failed(SuiteError::Timeout { seconds, .. }) if seconds > 0.0
        ));

        for record in report.records() {
            let line = serde_json::to_string(&record).unwrap();
            let parsed: RunRecord = serde_json::from_str(&line).unwrap();
            assert_eq!(parsed.benchmark, record.benchmark);
            assert_eq!(parsed.status, record.status);
        }
    }

    #[test]
    fn exclusive_meter_serializes_metered_benchmarks() {
        /// Asserts no two metered runs overlap via a shared "in meter" flag.
        struct Metered {
            id: &'static str,
            active: Arc<AtomicUsize>,
            overlap: Arc<AtomicBool>,
        }
        impl Benchmark for Metered {
            fn id(&self) -> &str {
                self.id
            }
            fn subsystem(&self) -> &'static str {
                "test"
            }
            fn exclusive_meter(&self) -> bool {
                true
            }
            fn run(&self) -> Result<Measurement, SuiteError> {
                if self.active.fetch_add(1, Ordering::SeqCst) > 0 {
                    self.overlap.store(true, Ordering::SeqCst);
                }
                std::thread::sleep(Duration::from_millis(10));
                self.active.fetch_sub(1, Ordering::SeqCst);
                Ok(meas(self.id, 1.0))
            }
        }

        let active = Arc::new(AtomicUsize::new(0));
        let overlap = Arc::new(AtomicBool::new(false));
        let mut suite = BenchmarkSuite::new();
        for id in ["m1", "m2", "m3", "m4"] {
            suite.push(Box::new(Metered {
                id,
                active: Arc::clone(&active),
                overlap: Arc::clone(&overlap),
            }));
        }
        let report = SuiteRunner::new().parallelism(4).run(&suite);
        assert!(report.all_succeeded());
        assert!(!overlap.load(Ordering::SeqCst), "metered runs overlapped");
    }

    #[test]
    fn metered_benchmarks_overlap_with_nothing() {
        /// Tracks concurrent runners; a metered run must see zero others
        /// in flight (metered *or* not) for its whole duration.
        struct Tracked {
            id: &'static str,
            metered: bool,
            active: Arc<AtomicUsize>,
            violated: Arc<AtomicBool>,
        }
        impl Benchmark for Tracked {
            fn id(&self) -> &str {
                self.id
            }
            fn subsystem(&self) -> &'static str {
                "test"
            }
            fn exclusive_meter(&self) -> bool {
                self.metered
            }
            fn run(&self) -> Result<Measurement, SuiteError> {
                let others = self.active.fetch_add(1, Ordering::SeqCst);
                if self.metered && others > 0 {
                    self.violated.store(true, Ordering::SeqCst);
                }
                std::thread::sleep(Duration::from_millis(10));
                if self.metered && self.active.load(Ordering::SeqCst) > 1 {
                    self.violated.store(true, Ordering::SeqCst);
                }
                self.active.fetch_sub(1, Ordering::SeqCst);
                Ok(meas(self.id, 1.0))
            }
        }

        let active = Arc::new(AtomicUsize::new(0));
        let violated = Arc::new(AtomicBool::new(false));
        let mut suite = BenchmarkSuite::new();
        for (id, metered) in
            [("sim1", false), ("hpl", true), ("sim2", false), ("stream", true), ("sim3", false)]
        {
            suite.push(Box::new(Tracked {
                id,
                metered,
                active: Arc::clone(&active),
                violated: Arc::clone(&violated),
            }));
        }
        let report = SuiteRunner::new().parallelism(5).run(&suite);
        assert!(report.all_succeeded());
        assert!(!violated.load(Ordering::SeqCst), "a metered run overlapped with another item");
    }

    #[test]
    fn trace_set_collects_metered_traces() {
        struct WithTrace;
        impl Benchmark for WithTrace {
            fn id(&self) -> &str {
                "metered"
            }
            fn subsystem(&self) -> &'static str {
                "test"
            }
            fn run_detailed(&self) -> Result<BenchmarkOutput, SuiteError> {
                let mut t = power_model::PowerTrace::new();
                t.push(0.0, Watts::new(100.0));
                t.push(1.0, Watts::new(100.0));
                Ok(BenchmarkOutput::metered(meas("metered", 1.0), t))
            }
        }
        let suite = BenchmarkSuite::new().with(WithTrace).with(Fixed { id: "plain", gflops: 1.0 });
        let report = SuiteRunner::new().repeats(2).run(&suite);
        assert_eq!(report.entries.len(), 4);
        let set = report.trace_set();
        assert_eq!(set.len(), 2, "only metered successes carry traces");
        assert!(set.get("metered#0").is_some());
        assert!(set.get("metered#1").is_some());
        assert!((set.total_energy().value() - 200.0).abs() < 1e-9);
        let summary = set.summarize();
        assert_eq!(summary.nodes.len(), 2);
        assert_eq!(summary.total_samples, 4);
    }

    #[test]
    fn observability_summaries_over_the_report() {
        /// Metered benchmark whose trace carries an injected 3-sample
        /// spike over a noisy-but-quiet baseline.
        struct Spiky;
        impl Benchmark for Spiky {
            fn id(&self) -> &str {
                "spiky"
            }
            fn subsystem(&self) -> &'static str {
                "test"
            }
            fn run_detailed(&self) -> Result<BenchmarkOutput, SuiteError> {
                let mut t = power_model::PowerTrace::new();
                for i in 0..300usize {
                    let w =
                        if (200..203).contains(&i) { 900.0 } else { 100.0 + (i % 7) as f64 * 0.1 };
                    t.push(i as f64, Watts::new(w));
                }
                Ok(BenchmarkOutput::metered(meas("spiky", 1.0), t))
            }
        }

        let suite = BenchmarkSuite::new().with(Spiky).with(Fixed { id: "plain", gflops: 1.0 });
        let report = SuiteRunner::new().parallelism(2).run(&suite);

        let q = report.latency_quantiles();
        assert_eq!(q.count, 2, "both attempted items are summarized");
        assert!(q.p50 > 0.0 && q.p99 >= q.p50 && q.p999 >= q.p99, "{q:?}");

        let counts = report.anomaly_counts(power_model::AnomalyConfig::default());
        assert_eq!(counts.spikes, 1, "the injected spike is the only event: {counts:?}");
        assert_eq!(counts.drifts, 0, "{counts:?}");

        // Skipped items contribute no latency sample.
        let failing = BenchmarkSuite::new().with(AlwaysFails).with(Fixed { id: "z", gflops: 1.0 });
        let report = SuiteRunner::new().run(&failing);
        assert_eq!(report.latency_quantiles().count, 1, "skipped item excluded");
    }

    #[test]
    fn journal_record_shape() {
        let suite = BenchmarkSuite::new().with(Fixed { id: "a", gflops: 1.0 });
        let report = SuiteRunner::new().run(&suite);
        let records = report.records();
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.status, "success");
        assert_eq!(r.perf, Some(1e9));
        assert_eq!(r.power_watts, Some(100.0));
        assert!(r.error.is_none());
        let line = serde_json::to_string(r).unwrap();
        assert!(line.contains("\"benchmark\""));
        assert!(!line.contains('\n'), "one journal record must be one line");
    }
}
