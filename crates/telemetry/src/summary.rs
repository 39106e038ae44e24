//! End-of-run summary: a plain-text table aggregating spans by name plus
//! the current metric values, suitable for printing to stderr.

use crate::collector::{Event, EventKind};
use crate::metrics::MetricsSnapshot;
use std::fmt::Write as _;

struct SpanAgg {
    name: &'static str,
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

fn fmt_dur(ns: u64) -> String {
    let secs = ns as f64 / 1e9;
    if secs >= 1.0 {
        format!("{secs:.3}s")
    } else if secs >= 1e-3 {
        format!("{:.3}ms", secs * 1e3)
    } else {
        format!("{:.1}us", secs * 1e6)
    }
}

/// Renders a human-readable summary of a drained event stream and a metrics
/// snapshot: span aggregates (count / total / mean / max per name, sorted by
/// total time descending), then counters, gauges, and histograms.
pub fn summary(events: &[Event], snapshot: &MetricsSnapshot) -> String {
    let mut aggs: Vec<SpanAgg> = Vec::new();
    let mut instants = 0u64;
    for ev in events {
        match ev.kind {
            EventKind::Instant => instants += 1,
            EventKind::Span => match aggs.iter_mut().find(|a| a.name == ev.name) {
                Some(agg) => {
                    agg.count += 1;
                    agg.total_ns += ev.dur_ns;
                    agg.max_ns = agg.max_ns.max(ev.dur_ns);
                }
                None => aggs.push(SpanAgg {
                    name: ev.name,
                    count: 1,
                    total_ns: ev.dur_ns,
                    max_ns: ev.dur_ns,
                }),
            },
        }
    }
    aggs.sort_by_key(|a| std::cmp::Reverse(a.total_ns));

    let mut out = String::new();
    let _ = writeln!(out, "== telemetry summary ==");
    let _ = writeln!(
        out,
        "{} span(s) across {} name(s), {} instant marker(s)",
        aggs.iter().map(|a| a.count).sum::<u64>(),
        aggs.len(),
        instants
    );
    if !aggs.is_empty() {
        let name_w = aggs.iter().map(|a| a.name.len()).max().unwrap_or(4).max(4);
        let _ = writeln!(
            out,
            "  {:<name_w$} {:>8} {:>12} {:>12} {:>12}",
            "span", "count", "total", "mean", "max"
        );
        for agg in &aggs {
            let mean = agg.total_ns / agg.count.max(1);
            let _ = writeln!(
                out,
                "  {:<name_w$} {:>8} {:>12} {:>12} {:>12}",
                agg.name,
                agg.count,
                fmt_dur(agg.total_ns),
                fmt_dur(mean),
                fmt_dur(agg.max_ns)
            );
        }
    }
    if !snapshot.counters.is_empty() {
        let _ = writeln!(out, "counters:");
        for (name, value) in &snapshot.counters {
            let _ = writeln!(out, "  {name} = {value}");
        }
    }
    if !snapshot.gauges.is_empty() {
        let _ = writeln!(out, "gauges:");
        for (name, value) in &snapshot.gauges {
            let _ = writeln!(out, "  {name} = {value:.6}");
        }
    }
    if !snapshot.histograms.is_empty() {
        let _ = writeln!(out, "histograms:");
        for (name, h) in &snapshot.histograms {
            let _ =
                writeln!(out, "  {name}: count={} sum={:.6} mean={:.6}", h.count, h.sum, h.mean());
        }
    }
    out
}
