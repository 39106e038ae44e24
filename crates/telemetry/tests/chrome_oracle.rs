//! Oracle test: the Chrome `trace_event` export round-trips span
//! begin/end pairing — every `ph:"X"` complete event carries a `ts`/`dur`
//! pair, and within each thread lane spans either nest fully or are
//! disjoint (never partially overlapping), which is exactly what
//! `chrome://tracing`/Perfetto require to render a well-formed timeline.

use serde::Value;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;

fn lock() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn record_nested_workload() -> Vec<tgi_telemetry::Event> {
    assert!(tgi_telemetry::install());
    thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let _outer = tgi_telemetry::span_cat("outer", "test").field("depth", 0u64);
                for i in 0..3 {
                    let _mid = tgi_telemetry::span_cat("mid", "test").field("i", i as u64);
                    let _inner = tgi_telemetry::span_cat("inner", "test");
                    tgi_telemetry::instant("tick").field("i", i as u64).end();
                }
            });
        }
    });
    tgi_telemetry::uninstall()
}

#[test]
fn chrome_trace_is_valid_json_with_paired_spans() {
    let _gate = lock();
    let events = record_nested_workload();
    assert_eq!(events.iter().filter(|e| e.name == "outer").count(), 2);

    let trace = tgi_telemetry::export::chrome_trace(&events);
    let root: Value = serde_json::from_str(&trace).expect("export must be valid JSON");

    let trace_events = root.get("traceEvents").and_then(Value::as_array).expect("traceEvents");
    assert_eq!(trace_events.len(), events.len());

    let mut complete = 0usize;
    let mut instants = 0usize;
    for ev in trace_events {
        let ph = ev.get("ph").and_then(Value::as_str).expect("ph");
        let ts = ev.get("ts").and_then(Value::as_f64).expect("ts");
        assert!(ts >= 0.0);
        assert!(ev.get("name").and_then(Value::as_str).is_some());
        assert!(ev.get("tid").and_then(Value::as_f64).is_some());
        assert_eq!(ev.get("pid").and_then(Value::as_f64), Some(1.0));
        match ph {
            "X" => {
                // A complete event is a begin/end pair in one record: its
                // end is ts + dur, and dur must be present and non-negative.
                let dur = ev.get("dur").and_then(Value::as_f64).expect("X events carry dur");
                assert!(dur >= 0.0);
                complete += 1;
            }
            "i" => {
                assert!(ev.get("dur").is_none(), "instants have no duration");
                instants += 1;
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert_eq!(complete, 2 * (1 + 3 + 3), "outer + 3 mid + 3 inner per thread");
    assert_eq!(instants, 2 * 3);
}

#[test]
fn spans_nest_correctly_within_each_thread() {
    let _gate = lock();
    let events = record_nested_workload();
    let trace = tgi_telemetry::export::chrome_trace(&events);
    let root: Value = serde_json::from_str(&trace).unwrap();
    let trace_events = root.get("traceEvents").and_then(Value::as_array).unwrap();

    // Group complete events per tid as (start, end, name) intervals.
    type Lane = Vec<(f64, f64, String)>;
    let mut lanes: Vec<(u64, Lane)> = Vec::new();
    for ev in trace_events {
        if ev.get("ph").and_then(Value::as_str) != Some("X") {
            continue;
        }
        let tid = ev.get("tid").and_then(Value::as_f64).unwrap() as u64;
        let ts = ev.get("ts").and_then(Value::as_f64).unwrap();
        let dur = ev.get("dur").and_then(Value::as_f64).unwrap();
        let name = ev.get("name").and_then(Value::as_str).unwrap().to_string();
        match lanes.iter_mut().find(|(t, _)| *t == tid) {
            Some((_, spans)) => spans.push((ts, ts + dur, name)),
            None => lanes.push((tid, vec![(ts, ts + dur, name)])),
        }
    }
    assert_eq!(lanes.len(), 2, "one lane per worker thread");

    for (tid, spans) in &lanes {
        // Every pair within a lane must nest or be disjoint — partial
        // overlap would make the timeline unrenderable.
        for (i, a) in spans.iter().enumerate() {
            for b in spans.iter().skip(i + 1) {
                let nested = (a.0 <= b.0 && b.1 <= a.1) || (b.0 <= a.0 && a.1 <= b.1);
                let disjoint = a.1 <= b.0 || b.1 <= a.0;
                assert!(nested || disjoint, "tid {tid}: spans {a:?} and {b:?} partially overlap");
            }
        }
        // The structural oracle: each lane's "outer" span contains every
        // other span recorded on that lane.
        let outer = spans.iter().find(|(_, _, n)| n == "outer").expect("outer span present");
        for span in spans {
            assert!(
                outer.0 <= span.0 && span.1 <= outer.1,
                "tid {tid}: {span:?} escapes its outer span {outer:?}"
            );
        }
    }
}

#[test]
fn jsonl_and_prometheus_exports_parse() {
    let _gate = lock();
    assert!(tgi_telemetry::install());
    {
        let _span = tgi_telemetry::span("fmt.work").field("label", "a\"b\\c\nd");
        tgi_telemetry::counter!("fmt_ops_total").add(3);
        tgi_telemetry::gauge!("fmt_ratio").set(0.25);
        tgi_telemetry::histogram!("fmt_seconds").observe(0.5);
    }
    let snapshot = tgi_telemetry::metrics::snapshot();
    let events = tgi_telemetry::uninstall();

    // Every JSONL line is standalone valid JSON, escaping included.
    let jsonl = tgi_telemetry::export::jsonl(&events);
    for line in jsonl.lines() {
        let v: Value = serde_json::from_str(line).expect("JSONL line parses");
        assert!(v.get("name").and_then(Value::as_str).is_some());
    }
    let span_line = jsonl
        .lines()
        .map(|l| serde_json::from_str::<Value>(l).unwrap())
        .find(|v| v.get("name").and_then(Value::as_str) == Some("fmt.work"))
        .expect("span exported");
    assert_eq!(
        span_line.get("fields").and_then(|f| f.get("label")).and_then(Value::as_str),
        Some("a\"b\\c\nd")
    );

    // Prometheus exposition: TYPE lines, counter value, histogram shape.
    let prom = tgi_telemetry::export::prometheus(&snapshot);
    assert!(prom.contains("# TYPE fmt_ops_total counter"));
    assert!(prom.contains("fmt_ops_total 3"));
    assert!(prom.contains("# TYPE fmt_ratio gauge"));
    assert!(prom.contains("fmt_ratio 0.25"));
    assert!(prom.contains("# TYPE fmt_seconds summary"));
    let p50: f64 = prom
        .lines()
        .find_map(|l| l.strip_prefix("fmt_seconds{quantile=\"0.5\"} "))
        .expect("p50 line")
        .parse()
        .unwrap();
    assert!((p50 - 0.5).abs() <= 0.01 * 0.5, "p50 {p50} outside the 1% bound");
    assert!(prom.contains("fmt_seconds{quantile=\"0.999\"} "));
    assert!(prom.contains("fmt_seconds_sum 0.5"));
    assert!(prom.contains("fmt_seconds_count 1"));
}
