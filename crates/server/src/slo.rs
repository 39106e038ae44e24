//! Per-endpoint latency SLOs with burn-rate windows.
//!
//! Every served request lands in exactly one [`Endpoint`] class. Each
//! class keeps a log-linear [`QuantileHistogram`] (relative-error-bounded
//! p50/p99/p999, replacing the old fixed-bucket request histogram), a
//! pair of lifetime good/total counters against the class objective, and
//! a 600-slot per-second ring so burn rates over the last 1 and 10
//! minutes come from real wall-clock windows, not lifetime averages.
//!
//! The burn rate follows the standard SRE definition: with objective `o`
//! (fraction of requests that must finish under the latency threshold),
//! `burn = bad_fraction / (1 - o)`. Burn 1.0 means the error budget is
//! being spent exactly as fast as it accrues; above 1.0 the endpoint is
//! breaching.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{SystemTime, UNIX_EPOCH};
use tgi_telemetry::export::{prom_label_value, prom_name, prom_summary};
use tgi_telemetry::QuantileHistogram;

/// Seconds of per-second history the burn-rate ring retains (covers the
/// 10-minute window exactly).
const RING_SECONDS: usize = 600;

/// The request classes tracked independently. `Other` absorbs 404s and
/// unknown paths so noise cannot pollute a real endpoint's quantiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /healthz`
    Healthz,
    /// `GET /metrics`
    Metrics,
    /// `GET /traces`
    ListTraces,
    /// `POST /traces/{node}`
    Ingest,
    /// `GET /traces/{node}/energy`
    Energy,
    /// `GET /traces/{node}/anomalies`
    Anomalies,
    /// `GET /fleet/summary`
    FleetSummary,
    /// `POST /evaluate`
    Evaluate,
    /// `GET /debug/flight`
    DebugFlight,
    /// Everything else (unknown paths, wrong verbs).
    Other,
}

impl Endpoint {
    const ALL: [Endpoint; 10] = [
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::ListTraces,
        Endpoint::Ingest,
        Endpoint::Energy,
        Endpoint::Anomalies,
        Endpoint::FleetSummary,
        Endpoint::Evaluate,
        Endpoint::DebugFlight,
        Endpoint::Other,
    ];

    /// Stable label used in metrics and health output.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::ListTraces => "list_traces",
            Endpoint::Ingest => "ingest",
            Endpoint::Energy => "energy",
            Endpoint::Anomalies => "anomalies",
            Endpoint::FleetSummary => "fleet_summary",
            Endpoint::Evaluate => "evaluate",
            Endpoint::DebugFlight => "debug_flight",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        Endpoint::ALL.iter().position(|e| *e == self).expect("endpoint in ALL")
    }
}

/// Classifies a parsed request into its endpoint class. Mirrors the
/// router in [`crate::ServerState::handle`]; anything the router would
/// 404 or 405 lands in [`Endpoint::Other`].
pub fn classify(method: &str, path: &str) -> Endpoint {
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (method, segments.as_slice()) {
        ("GET", ["healthz"]) => Endpoint::Healthz,
        ("GET", ["metrics"]) => Endpoint::Metrics,
        ("GET", ["traces"]) => Endpoint::ListTraces,
        ("POST", ["traces", _]) => Endpoint::Ingest,
        ("GET", ["traces", _, "energy"]) => Endpoint::Energy,
        ("GET", ["traces", _, "anomalies"]) => Endpoint::Anomalies,
        ("GET", ["fleet", "summary"]) => Endpoint::FleetSummary,
        ("POST", ["evaluate"]) => Endpoint::Evaluate,
        ("GET", ["debug", "flight"]) => Endpoint::DebugFlight,
        _ => Endpoint::Other,
    }
}

/// One wall-clock second of good/bad counts.
#[derive(Debug, Clone, Copy, Default)]
struct SecondCell {
    epoch_s: u64,
    good: u64,
    bad: u64,
}

/// The SLO state for one endpoint class.
struct EndpointSlo {
    endpoint: Endpoint,
    /// Fraction of requests that must land under the threshold.
    objective: f64,
    /// Latency threshold, seconds.
    threshold_s: f64,
    latency: QuantileHistogram,
    good: AtomicU64,
    total: AtomicU64,
    /// Per-second ring. Slot `epoch_s % RING_SECONDS`; a slot whose
    /// stored epoch is stale is reset in place on first write of the new
    /// second. Lock hold times are a few loads/stores, and contention is
    /// limited to requests landing in the same class in the same second.
    ring: Vec<Mutex<SecondCell>>,
}

impl EndpointSlo {
    fn new(endpoint: Endpoint, objective: f64, threshold_s: f64) -> Self {
        EndpointSlo {
            endpoint,
            objective,
            threshold_s,
            // 1% relative error: p99 of a 1ms endpoint is exact to ~10µs.
            latency: QuantileHistogram::new(0.01),
            good: AtomicU64::new(0),
            total: AtomicU64::new(0),
            ring: (0..RING_SECONDS).map(|_| Mutex::new(SecondCell::default())).collect(),
        }
    }

    fn record(&self, latency_s: f64, epoch_s: u64) {
        self.latency.observe(latency_s);
        let good = latency_s <= self.threshold_s;
        self.total.fetch_add(1, Ordering::Relaxed);
        if good {
            self.good.fetch_add(1, Ordering::Relaxed);
        }
        let slot = (epoch_s as usize) % RING_SECONDS;
        let mut cell = self.ring[slot].lock().unwrap_or_else(PoisonError::into_inner);
        if cell.epoch_s != epoch_s {
            *cell = SecondCell { epoch_s, good: 0, bad: 0 };
        }
        if good {
            cell.good += 1;
        } else {
            cell.bad += 1;
        }
    }

    /// `(good, total)` over the trailing `window_s` seconds ending at
    /// `now_s` (inclusive).
    fn window_counts(&self, now_s: u64, window_s: u64) -> (u64, u64) {
        let oldest = now_s.saturating_sub(window_s.saturating_sub(1));
        let mut good = 0u64;
        let mut total = 0u64;
        for cell in &self.ring {
            let cell = cell.lock().unwrap_or_else(PoisonError::into_inner);
            if cell.epoch_s >= oldest && cell.epoch_s <= now_s {
                good += cell.good;
                total += cell.good + cell.bad;
            }
        }
        (good, total)
    }

    fn burn_rate(&self, now_s: u64, window_s: u64) -> f64 {
        let (good, total) = self.window_counts(now_s, window_s);
        if total == 0 {
            return 0.0;
        }
        let bad_fraction = (total - good) as f64 / total as f64;
        bad_fraction / (1.0 - self.objective)
    }
}

/// A point-in-time view of one endpoint's SLO state, as reported by
/// `/healthz`.
#[derive(Debug, Clone, Serialize)]
pub struct EndpointSloStatus {
    /// Endpoint label (`ingest`, `evaluate`, …).
    pub endpoint: &'static str,
    /// Lifetime requests observed.
    pub total: u64,
    /// Lifetime requests under the threshold.
    pub good: u64,
    /// Latency objective: fraction that must land under the threshold.
    pub objective: f64,
    /// Latency threshold, seconds.
    pub threshold_s: f64,
    /// Median latency, seconds (0 when nothing was observed).
    pub p50_s: f64,
    /// 99th-percentile latency, seconds.
    pub p99_s: f64,
    /// 99.9th-percentile latency, seconds.
    pub p999_s: f64,
    /// Burn rate over the trailing minute.
    pub burn_1m: f64,
    /// Burn rate over the trailing ten minutes.
    pub burn_10m: f64,
    /// Whether the fast (1-minute) window is burning budget faster than
    /// it accrues.
    pub breaching: bool,
}

/// Per-endpoint latency SLOs for a running server.
pub struct SloTracker {
    endpoints: Vec<EndpointSlo>,
}

impl Default for SloTracker {
    fn default() -> Self {
        SloTracker::new(0.99, 0.25)
    }
}

impl SloTracker {
    /// Builds a tracker where every endpoint shares one objective
    /// (`objective` of requests under `threshold_s` seconds).
    pub fn new(objective: f64, threshold_s: f64) -> Self {
        assert!((0.0..1.0).contains(&objective), "objective must be in [0, 1)");
        assert!(threshold_s > 0.0, "threshold must be positive");
        SloTracker {
            endpoints: Endpoint::ALL
                .iter()
                .map(|&e| EndpointSlo::new(e, objective, threshold_s))
                .collect(),
        }
    }

    /// Records one served request.
    pub fn record(&self, endpoint: Endpoint, latency_s: f64) {
        self.record_at(endpoint, latency_s, epoch_seconds());
    }

    /// Records with an explicit wall-clock second (tests drive windows
    /// deterministically through this).
    pub fn record_at(&self, endpoint: Endpoint, latency_s: f64, epoch_s: u64) {
        self.endpoints[endpoint.index()].record(latency_s, epoch_s);
    }

    /// Burn rate for one endpoint over the trailing `window_s` seconds.
    pub fn burn_rate(&self, endpoint: Endpoint, window_s: u64) -> f64 {
        self.burn_rate_at(endpoint, window_s, epoch_seconds())
    }

    /// Burn rate with an explicit "now" second.
    pub fn burn_rate_at(&self, endpoint: Endpoint, window_s: u64, now_s: u64) -> f64 {
        self.endpoints[endpoint.index()].burn_rate(now_s, window_s.min(RING_SECONDS as u64))
    }

    /// Status rows for every endpoint that has seen traffic.
    pub fn status(&self) -> Vec<EndpointSloStatus> {
        let now_s = epoch_seconds();
        self.endpoints
            .iter()
            .filter(|slo| slo.total.load(Ordering::Relaxed) > 0)
            .map(|slo| {
                let burn_1m = slo.burn_rate(now_s, 60);
                EndpointSloStatus {
                    endpoint: slo.endpoint.label(),
                    total: slo.total.load(Ordering::Relaxed),
                    good: slo.good.load(Ordering::Relaxed),
                    objective: slo.objective,
                    threshold_s: slo.threshold_s,
                    p50_s: slo.latency.quantile(0.50).unwrap_or(0.0),
                    p99_s: slo.latency.quantile(0.99).unwrap_or(0.0),
                    p999_s: slo.latency.quantile(0.999).unwrap_or(0.0),
                    burn_1m,
                    burn_10m: slo.burn_rate(now_s, 600),
                    breaching: burn_1m > 1.0,
                }
            })
            .collect()
    }

    /// Number of endpoints whose 1-minute burn rate exceeds 1.0.
    pub fn breaching(&self) -> usize {
        let now_s = epoch_seconds();
        self.endpoints
            .iter()
            .filter(|slo| slo.total.load(Ordering::Relaxed) > 0)
            .filter(|slo| slo.burn_rate(now_s, 60) > 1.0)
            .count()
    }

    /// Appends the SLO metric families to a Prometheus exposition body:
    /// a latency summary (quantiles from the log-linear histogram) and
    /// the good/total counters plus windowed burn-rate gauges, all
    /// labeled by endpoint.
    pub fn prometheus_append(&self, out: &mut String) {
        let now_s = epoch_seconds();
        let latency = prom_name("tgi_server_request_latency_seconds");
        out.push_str(&format!(
            "# HELP {latency} Request latency by endpoint \
             (log-linear sketch, 1% relative error).\n"
        ));
        out.push_str(&format!("# TYPE {latency} summary\n"));
        for slo in &self.endpoints {
            if slo.latency.count() == 0 {
                continue;
            }
            let labels = format!("endpoint=\"{}\"", prom_label_value(slo.endpoint.label()));
            prom_summary(out, &latency, &labels, &slo.latency.summary());
        }

        let good = prom_name("tgi_server_slo_good_total");
        let total = prom_name("tgi_server_slo_requests_total");
        let burn = prom_name("tgi_server_slo_burn_rate");
        out.push_str(&format!(
            "# HELP {good} Requests under the endpoint latency threshold.\n# TYPE {good} counter\n"
        ));
        for slo in &self.endpoints {
            if slo.total.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let label = prom_label_value(slo.endpoint.label());
            out.push_str(&format!(
                "{good}{{endpoint=\"{label}\"}} {}\n",
                slo.good.load(Ordering::Relaxed)
            ));
        }
        out.push_str(&format!(
            "# HELP {total} Requests observed against the endpoint SLO.\n\
             # TYPE {total} counter\n"
        ));
        for slo in &self.endpoints {
            if slo.total.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let label = prom_label_value(slo.endpoint.label());
            out.push_str(&format!(
                "{total}{{endpoint=\"{label}\"}} {}\n",
                slo.total.load(Ordering::Relaxed)
            ));
        }
        out.push_str(&format!(
            "# HELP {burn} Error-budget burn rate over the trailing window \
             (1.0 = burning exactly at budget).\n# TYPE {burn} gauge\n"
        ));
        for slo in &self.endpoints {
            if slo.total.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let label = prom_label_value(slo.endpoint.label());
            for (window, tag) in [(60u64, "1m"), (600, "10m")] {
                out.push_str(&format!(
                    "{burn}{{endpoint=\"{label}\",window=\"{tag}\"}} {}\n",
                    slo.burn_rate(now_s, window)
                ));
            }
        }
    }
}

/// Whole seconds since the Unix epoch (0 if the clock is before it).
fn epoch_seconds() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_mirrors_the_router() {
        assert_eq!(classify("GET", "/healthz"), Endpoint::Healthz);
        assert_eq!(classify("GET", "/metrics"), Endpoint::Metrics);
        assert_eq!(classify("GET", "/traces"), Endpoint::ListTraces);
        assert_eq!(classify("POST", "/traces/node-7"), Endpoint::Ingest);
        assert_eq!(classify("GET", "/traces/node-7/energy"), Endpoint::Energy);
        assert_eq!(classify("GET", "/traces/node-7/anomalies"), Endpoint::Anomalies);
        assert_eq!(classify("GET", "/fleet/summary"), Endpoint::FleetSummary);
        assert_eq!(classify("POST", "/evaluate"), Endpoint::Evaluate);
        assert_eq!(classify("GET", "/debug/flight"), Endpoint::DebugFlight);
        assert_eq!(classify("DELETE", "/traces/node-7"), Endpoint::Other);
        assert_eq!(classify("GET", "/nope"), Endpoint::Other);
    }

    #[test]
    fn burn_rate_windows_are_wall_clock_scoped() {
        let slo = SloTracker::new(0.99, 0.25);
        let t0 = 1_000_000u64;
        // 99 fast + 1 slow in the first second: bad fraction exactly the
        // error budget → burn 1.0 over any window containing it.
        for _ in 0..99 {
            slo.record_at(Endpoint::Ingest, 0.001, t0);
        }
        slo.record_at(Endpoint::Ingest, 0.5, t0);
        assert!((slo.burn_rate_at(Endpoint::Ingest, 60, t0) - 1.0).abs() < 1e-9);
        // 5 minutes later the 1-minute window is clean, the 10-minute one
        // still sees the breach.
        let t1 = t0 + 300;
        slo.record_at(Endpoint::Ingest, 0.001, t1);
        assert_eq!(slo.burn_rate_at(Endpoint::Ingest, 60, t1), 0.0);
        assert!(slo.burn_rate_at(Endpoint::Ingest, 600, t1) > 0.9);
        // Other endpoints are untouched.
        assert_eq!(slo.burn_rate_at(Endpoint::Evaluate, 600, t1), 0.0);
    }

    #[test]
    fn status_reports_quantiles_and_breaches() {
        let slo = SloTracker::new(0.9, 0.01);
        let now = epoch_seconds();
        for i in 0..100 {
            // Half under the 10ms threshold, half far over it.
            let latency = if i % 2 == 0 { 0.001 } else { 0.1 };
            slo.record_at(Endpoint::Evaluate, latency, now);
        }
        let status = slo.status();
        assert_eq!(status.len(), 1);
        let row = &status[0];
        assert_eq!(row.endpoint, "evaluate");
        assert_eq!(row.total, 100);
        assert_eq!(row.good, 50);
        assert!(row.p99_s > 0.09 && row.p99_s < 0.11, "{row:?}");
        assert!(row.breaching, "bad fraction 0.5 burns 5x the 0.1 budget: {row:?}");
        assert_eq!(slo.breaching(), 1);

        let mut out = String::new();
        slo.prometheus_append(&mut out);
        assert!(
            out.contains(
                "tgi_server_request_latency_seconds{endpoint=\"evaluate\",quantile=\"0.99\"}"
            ),
            "{out}"
        );
        assert!(out.contains("tgi_server_slo_requests_total{endpoint=\"evaluate\"} 100"), "{out}");
        assert!(out.contains("window=\"1m\""), "{out}");
    }
}
