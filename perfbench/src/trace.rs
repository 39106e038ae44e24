//! Spans recorded from the benchmark's own code around each call into a
//! layer of the program, collected through `tgi-telemetry`'s collector and
//! folded into per-layer timings.
//!
//! Two span categories matter here: [`OP`] spans bracket one benchmark
//! operation as its caller sees it, and [`LAYER`] spans bracket one public
//! call into a crate (`cluster`, `core`, `harness`, `power`, `store`,
//! `server`). Layer spans never nest inside each other, so a layer span's
//! self time is its duration, and the share of op time that layer spans
//! cover is the trace's coverage. Spans the crates record internally are
//! kept only for the Chrome trace.

use std::collections::BTreeMap;
use std::path::Path;
use tgi_telemetry::{Event, EventKind, Span};

/// Category of spans around one benchmark operation.
pub const OP: &str = "op";
/// Category of spans around one public call into a layer.
pub const LAYER: &str = "layer";

/// Opens a span around one benchmark operation (a no-op while untraced).
pub fn op(name: &'static str) -> Span {
    tgi_telemetry::span_cat(name, OP)
}

/// Opens a span around one call into a layer (a no-op while untraced).
pub fn layer(name: &'static str) -> Span {
    tgi_telemetry::span_cat(name, LAYER)
}

/// Chrome-trace events kept per run, for op and layer spans and again for
/// the crates' internal spans (those only from each path's first traced
/// slice).
const KEEP_EVENTS: usize = 30_000;

/// Folded spans of one run.
#[derive(Debug, Default)]
pub struct Ledger {
    durations: BTreeMap<&'static str, Vec<f64>>,
    op_ns: u64,
    covered_ns: u64,
    kept: Vec<Event>,
    kept_internal: Vec<Event>,
}

impl Ledger {
    /// Starts recording spans.
    pub fn start() {
        assert!(tgi_telemetry::install(), "telemetry collector must be compiled in and free");
    }

    /// Stops recording and folds everything recorded since [`Ledger::start`].
    /// With `keep_internal`, the crates' own spans go into the Chrome trace
    /// as well.
    pub fn stop(&mut self, keep_internal: bool) {
        let events = tgi_telemetry::uninstall();
        self.absorb(events, keep_internal);
    }

    fn absorb(&mut self, events: Vec<Event>, keep_internal: bool) {
        // Events arrive sorted by start, parents before their children, so
        // the op a layer span belongs to is the latest op opened on its
        // thread.
        let mut open_op: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for event in events {
            if event.kind != EventKind::Span {
                continue;
            }
            let ours = event.cat == OP || event.cat == LAYER;
            if ours {
                self.durations.entry(event.name).or_default().push(event.dur_ns as f64 * 1e-9);
            }
            if event.cat == OP {
                self.op_ns += event.dur_ns;
                open_op.insert(event.tid, (event.start_ns, event.end_ns()));
            } else if event.cat == LAYER {
                if let Some(&(start, end)) = open_op.get(&event.tid) {
                    if event.start_ns >= start && event.end_ns() <= end {
                        self.covered_ns += event.dur_ns;
                    }
                }
            }
            let kept = if ours { &mut self.kept } else { &mut self.kept_internal };
            if kept.len() < KEEP_EVENTS && (ours || keep_internal) {
                kept.push(event);
            }
        }
    }

    /// Durations (seconds) of every span with this name.
    pub fn durations(&self, name: &str) -> &[f64] {
        self.durations.get(name).map_or(&[], Vec::as_slice)
    }

    /// Total duration (seconds) of every span with this name.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Share of op time covered by layer spans; `None` before any op.
    pub fn coverage(&self) -> Option<f64> {
        (self.op_ns > 0).then(|| self.covered_ns as f64 / self.op_ns as f64)
    }

    /// Writes the kept events as Chrome `trace_event` JSON.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut events = [self.kept.as_slice(), &self.kept_internal].concat();
        events.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.dur_ns), e.tid));
        tgi_telemetry::export::write_chrome_trace(path, &events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, cat: &'static str, tid: u64, start: u64, dur: u64) -> Event {
        Event {
            kind: EventKind::Span,
            name,
            cat,
            tid,
            start_ns: start,
            dur_ns: dur,
            fields: Vec::new(),
        }
    }

    #[test]
    fn coverage_counts_layer_time_inside_ops_on_the_same_thread() {
        let mut ledger = Ledger::default();
        ledger.absorb(
            vec![
                span("op.a", OP, 1, 0, 100),
                span("layer.x", LAYER, 1, 10, 50),
                span("internal", "cluster", 1, 12, 20),
                span("layer.y", LAYER, 1, 70, 20),
                span("layer.x", LAYER, 2, 10, 50),
                span("layer.z", LAYER, 1, 200, 10),
            ],
            false,
        );
        assert_eq!(ledger.coverage(), Some(0.7));
        assert_eq!(ledger.durations("layer.x").len(), 2);
        assert!(ledger.durations("internal").is_empty());
        assert_eq!(ledger.kept.len(), 5);
        assert!(ledger.kept_internal.is_empty());
    }
}
